//! Fault-tolerance integration tests: under seeded fault injection no
//! request is ever silently lost — every `infer` ends in exactly one of
//! {remote success, edge-local fallback, typed error} — and every produced
//! result is bit-identical to the monolithic forward.
//!
//! CI runs this suite once per fault regime by setting `MTLSPLIT_FAULT_PLAN`
//! (e.g. `drop-heavy:17`, `delay-heavy:29`, `corrupt-heavy:43`); without the
//! variable it sweeps every preset with fixed seeds, so a plain `cargo test`
//! still covers all regimes.

use std::sync::Arc;
use std::time::Duration;

use mtlsplit_core::{deploy, MtlSplitModel};
use mtlsplit_data::TaskSpec;
use mtlsplit_models::BackboneKind;
use mtlsplit_serve::{
    BreakerConfig, EdgeClient, FaultPlan, FaultyTransport, Frame, InferenceServer,
    LoopbackTransport, ResilientClient, RetryPolicy, ServeError, ServedVia, ServerConfig,
    Transport,
};
use mtlsplit_split::TensorCodec;
use mtlsplit_tensor::{StdRng, Tensor};

/// Builds the same two-task model from one seed (construction is fully
/// deterministic, so every call yields identical weights).
fn fixture_model() -> MtlSplitModel {
    let mut rng = StdRng::seed_from(91);
    MtlSplitModel::new(
        BackboneKind::MobileStyle,
        3,
        16,
        &[TaskSpec::new("size", 4), TaskSpec::new("kind", 3)],
        16,
        &mut rng,
    )
    .expect("build model")
}

/// The fault regimes under test: `MTLSPLIT_FAULT_PLAN` selects one (the CI
/// matrix), otherwise every preset runs with a fixed seed.
fn plans_under_test() -> Vec<FaultPlan> {
    match std::env::var("MTLSPLIT_FAULT_PLAN") {
        Ok(spec) => vec![FaultPlan::parse(&spec).expect("valid MTLSPLIT_FAULT_PLAN")],
        Err(_) => vec![
            FaultPlan::drop_heavy(17),
            FaultPlan::delay_heavy(29),
            FaultPlan::corrupt_heavy(43),
            FaultPlan::light(7),
        ],
    }
}

/// A resilient client over a fault-injected loopback to a real server, with
/// the server half replicated locally as the fallback model.
fn resilient_under_plan(plan: FaultPlan) -> ResilientClient {
    let (edge, server_half) = deploy::split_for_serving(fixture_model());
    let server = Arc::new(InferenceServer::start(
        server_half.into_layers(),
        ServerConfig::default().with_workers(2),
    ));
    let (fallback_tail, fallback_heads) = deploy::split_for_serving(fixture_model()).1.into_parts();
    let client = EdgeClient::new(
        edge.into_layer(),
        TensorCodec::default(),
        Box::new(FaultyTransport::new(LoopbackTransport::new(server), plan)),
    )
    .with_retry_policy(
        RetryPolicy::resilient(plan.seed)
            .with_deadline(Some(Duration::from_millis(250)))
            .with_backoff(Duration::from_micros(100), Duration::from_millis(1)),
    );
    ResilientClient::new(
        client,
        fallback_tail,
        fallback_heads,
        BreakerConfig::default(),
    )
}

#[test]
fn no_request_is_silently_lost_under_any_fault_plan() {
    let monolithic = fixture_model();
    for plan in plans_under_test() {
        let mut resilient = resilient_under_plan(plan);
        let mut rng = StdRng::seed_from(92);
        let mut remote = 0u64;
        let mut fallback = 0u64;
        let mut typed_errors = 0u64;
        let rounds = 40;
        for round in 0..rounds {
            let x = Tensor::randn(&[1, 3, 16, 16], 0.5, 0.2, &mut rng);
            let expected = monolithic.infer_forward(&x).expect("monolithic").1;
            // Exactly one outcome per request: remote result, local
            // fallback result, or a typed error — never a hang, a panic or
            // a silent loss.
            match resilient.infer(&x) {
                Ok(served) => {
                    match served.via {
                        ServedVia::Remote => remote += 1,
                        ServedVia::Fallback => fallback += 1,
                    }
                    assert_eq!(
                        served.outputs, expected,
                        "plan {plan:?}, round {round}: served result diverged \
                         from the monolithic forward"
                    );
                }
                Err(err @ (ServeError::DeadlineExceeded { .. } | ServeError::Remote { .. })) => {
                    // Typed and attributable — acceptable only for requests
                    // the policy could not serve at all.
                    let _ = err;
                    typed_errors += 1;
                }
                Err(other) => panic!("plan {plan:?}, round {round}: untyped loss: {other:?}"),
            }
        }
        assert_eq!(remote + fallback + typed_errors, rounds);
        // The fallback model exists precisely so faults do not surface:
        // with a local copy of the server half every request is answerable.
        assert_eq!(
            typed_errors, 0,
            "plan {plan:?}: requests were lost despite a local fallback"
        );
        let stats = resilient.stats();
        assert_eq!(stats.remote, remote, "plan {plan:?}: remote accounting");
        assert_eq!(
            stats.fallbacks, fallback,
            "plan {plan:?}: fallback accounting"
        );
    }
}

#[test]
fn fault_sequences_replay_identically_across_runs() {
    let run = |plan: FaultPlan| {
        let mut resilient = resilient_under_plan(plan);
        let mut rng = StdRng::seed_from(93);
        let mut trace = Vec::new();
        for _ in 0..20 {
            let x = Tensor::randn(&[1, 3, 16, 16], 0.5, 0.2, &mut rng);
            let served = resilient.infer(&x).expect("answered");
            trace.push((served.via, served.outputs));
        }
        (trace, resilient.stats(), resilient.breaker_state())
    };
    for plan in plans_under_test() {
        // Delay faults perturb wall-clock timing, and a deadline turns
        // timing into control flow — replay determinism is only promised
        // for the timing-free fault kinds.
        let mut plan = plan;
        plan.delay_rate = 0.0;
        let first = run(plan);
        let second = run(plan);
        assert_eq!(first.0, second.0, "plan {plan:?}: traces diverged");
        assert_eq!(first.1, second.1, "plan {plan:?}: stats diverged");
        assert_eq!(first.2, second.2, "plan {plan:?}: breaker diverged");
    }
}

/// A link that never comes up: every request fails as a refused connection.
struct DeadLink;

impl Transport for DeadLink {
    fn request(&mut self, _frame: &Frame) -> mtlsplit_serve::Result<Frame> {
        Err(ServeError::Io(std::io::Error::new(
            std::io::ErrorKind::ConnectionRefused,
            "link down",
        )))
    }
}

#[test]
fn fallback_at_a_mid_backbone_split_is_bitwise_monolithic() {
    // Stage 1 keeps a real backbone tail on the server side, so the local
    // fallback must finish the backbone before running the heads.
    let monolithic = fixture_model();
    let (edge, _) = deploy::split_for_serving_at(fixture_model(), 1).expect("split");
    let (tail, heads) = deploy::split_for_serving_at(fixture_model(), 1)
        .expect("split")
        .1
        .into_parts();
    assert!(tail.is_some(), "stage 1 must leave a backbone tail");
    let client = EdgeClient::new(
        edge.into_layer(),
        TensorCodec::default(),
        Box::new(DeadLink),
    );
    let mut resilient = ResilientClient::new(client, tail, heads, BreakerConfig::default());
    let mut rng = StdRng::seed_from(95);
    for round in 0..8 {
        let batch = if round % 2 == 0 { 1 } else { 3 };
        let x = Tensor::randn(&[batch, 3, 16, 16], 0.5, 0.2, &mut rng);
        let expected = monolithic.infer_forward(&x).expect("monolithic").1;
        let served = resilient.infer(&x).expect("the fallback answers");
        assert_eq!(served.via, ServedVia::Fallback, "round {round}");
        assert_eq!(
            served.outputs, expected,
            "round {round} (batch {batch}): fallback diverged from the monolith"
        );
    }
    assert_eq!(resilient.stats().fallbacks, 8);
    assert_eq!(resilient.stats().remote, 0);
}

#[test]
fn retry_alone_recovers_light_faults_without_fallback() {
    // Under the light plan the retry layer should absorb nearly everything:
    // run a plain EdgeClient (no fallback) and require every request to
    // succeed remotely.
    let monolithic = fixture_model();
    let (edge, server_half) = deploy::split_for_serving(fixture_model());
    let server = Arc::new(InferenceServer::start(
        server_half.into_layers(),
        ServerConfig::default(),
    ));
    let mut client = EdgeClient::new(
        edge.into_layer(),
        TensorCodec::default(),
        Box::new(FaultyTransport::new(
            LoopbackTransport::new(server),
            FaultPlan::light(5),
        )),
    )
    .with_retry_policy(
        RetryPolicy::resilient(5)
            .with_backoff(Duration::from_micros(100), Duration::from_millis(1)),
    );
    let mut rng = StdRng::seed_from(94);
    for round in 0..30 {
        let x = Tensor::randn(&[1, 3, 16, 16], 0.5, 0.2, &mut rng);
        let expected = monolithic.infer_forward(&x).expect("monolithic").1;
        let outputs = client.infer(&x).unwrap_or_else(|err| {
            panic!("round {round}: light faults should be retried away: {err:?}")
        });
        assert_eq!(outputs, expected, "round {round} diverged");
    }
    assert!(
        client.stats().retries > 0 || client.stats().reconnects > 0,
        "the light plan should have forced at least one retry in 30 rounds"
    );
}
