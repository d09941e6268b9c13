//! Graceful degradation: a circuit breaker plus an edge-local fallback
//! model over an [`EdgeClient`].
//!
//! A [`ResilientClient`] guarantees that **every** `infer` call ends in
//! exactly one of three outcomes — a remote result, a *local fallback*
//! result, or a typed error — and never a silently lost request. It holds
//! the pieces of the model the server normally runs (the backbone tail of
//! the negotiated split, if any, plus replicas of the task heads), so when
//! the link is too degraded to serve a request within its budget, the
//! request is answered entirely on the edge device. The fallback weights
//! are the same weights the server holds, and every compute path in this
//! workspace is bit-deterministic, so a fallback result is **bit-identical**
//! to the monolithic forward — degradation costs latency and edge energy,
//! never accuracy.
//!
//! The fallback runs the tail and the heads through its own
//! [`InferPlan`], separate from the [`EdgeClient`]'s backbone plan. Its
//! intermediates are recycled into that plan, and the outputs it returns
//! are copies that belong to the caller, so after the first local serve the
//! plan takes no fresh buffers for requests of the same shape.
//!
//! The circuit breaker keeps a dying link from burning a full retry budget
//! on every request. It is deliberately wall-clock-free, counting requests
//! instead of seconds, so its behavior replays deterministically under the
//! fault injector ([`crate::FaultyTransport`]):
//!
//! * **Closed** — requests go remote. [`BreakerConfig::failure_threshold`]
//!   *consecutive* transient failures trip the breaker.
//! * **Open** — requests are served locally without touching the link.
//!   After [`BreakerConfig::probe_after`] locally served requests the
//!   breaker moves to half-open.
//! * **Half-open** — the next request first probes the server with the
//!   protocol's `Ping`. A `Pong` closes the breaker and the request goes
//!   remote; a failed probe reopens it and the request is served locally.
//!
//! Server-side *application* errors (`App`/`Protocol` codes, malformed
//! payloads) are not channel failures: they pass through untouched, do not
//! count toward the breaker, and do not trigger fallback — a request the
//! server understood and rejected would be rejected by the local model too.

use mtlsplit_nn::{InferPlan, Layer};
use mtlsplit_obs as obs;
use mtlsplit_tensor::Tensor;

use crate::client::EdgeClient;
use crate::error::{Result, ServeError};
use crate::frame::ErrorCode;

/// When the circuit breaker trips and when it probes for recovery.
///
/// Both knobs count requests, not seconds, keeping the breaker
/// deterministic under fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive transient remote failures that open the breaker.
    pub failure_threshold: u32,
    /// Locally served requests after which an open breaker goes half-open
    /// and probes the server again.
    pub probe_after: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 3,
            probe_after: 8,
        }
    }
}

impl BreakerConfig {
    /// Returns this configuration with the given trip threshold (clamped
    /// to ≥ 1).
    pub fn with_failure_threshold(mut self, failure_threshold: u32) -> Self {
        self.failure_threshold = failure_threshold.max(1);
        self
    }

    /// Returns this configuration with the given probe cadence (clamped
    /// to ≥ 1).
    pub fn with_probe_after(mut self, probe_after: u64) -> Self {
        self.probe_after = probe_after.max(1);
        self
    }
}

/// Where the circuit breaker currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests go remote.
    Closed,
    /// Tripped: requests are served locally without touching the link.
    Open,
    /// Probing: the next request pings the server before choosing a path.
    HalfOpen,
}

/// Which path answered a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedVia {
    /// The server answered over the wire.
    Remote,
    /// The edge-local fallback model answered.
    Fallback,
}

/// A served inference result: the per-task outputs plus which path
/// produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    /// One output tensor per task head, in the server's head order.
    pub outputs: Vec<Tensor>,
    /// The path that produced them. Outputs are bit-identical either way.
    pub via: ServedVia,
}

/// Counters of everything the degradation policy has decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResilientStats {
    /// Requests answered by the server.
    pub remote: u64,
    /// Requests answered by the edge-local fallback.
    pub fallbacks: u64,
    /// Times the breaker tripped open.
    pub breaker_trips: u64,
    /// Half-open recovery probes sent.
    pub probes: u64,
}

/// An [`EdgeClient`] wrapped in a circuit breaker with an edge-local
/// fallback copy of the server-side model.
///
/// See the [module docs](self) for the full policy. Construct it with the
/// server half of the deployed split (e.g. from
/// `mtlsplit_core::deploy::split_for_serving_at`): the backbone `tail`
/// (`None` at the deepest split) and one replica per task head.
pub struct ResilientClient {
    client: EdgeClient,
    tail: Option<Box<dyn Layer>>,
    heads: Vec<Box<dyn Layer>>,
    plan: InferPlan,
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    fallbacks_since_open: u64,
    stats: ResilientStats,
}

impl std::fmt::Debug for ResilientClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientClient")
            .field("config", &self.config)
            .field("state", &self.state)
            .field("stats", &self.stats)
            .field("has_tail", &self.tail.is_some())
            .field("heads", &self.heads.len())
            .finish()
    }
}

impl ResilientClient {
    /// Wraps `client` with a local fallback built from the server half of
    /// the split: the backbone `tail` (`None` at the deepest split) and one
    /// replica per task head, holding the same weights the server serves.
    pub fn new(
        client: EdgeClient,
        tail: Option<Box<dyn Layer>>,
        heads: Vec<Box<dyn Layer>>,
        config: BreakerConfig,
    ) -> Self {
        Self {
            client,
            tail,
            heads,
            plan: InferPlan::new(),
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            fallbacks_since_open: 0,
            stats: ResilientStats::default(),
        }
    }

    /// Runs the backbone locally and serves the request remotely or, when
    /// the link is too degraded, via the local fallback.
    ///
    /// # Errors
    ///
    /// Backbone failures and non-transient server errors (`App`/`Protocol`
    /// codes, malformed payloads). Transient failures never surface here —
    /// they are answered by the fallback.
    pub fn infer(&mut self, input: &Tensor) -> Result<Served> {
        let features = self.client.backbone_features(input)?;
        let served = self.infer_features(&features);
        self.client.recycle_features(features);
        served
    }

    /// Serves an already-computed shared representation `Z_b`.
    ///
    /// # Errors
    ///
    /// Non-transient server errors and local fallback compute failures.
    pub fn infer_features(&mut self, features: &Tensor) -> Result<Served> {
        match self.state {
            BreakerState::Open => {
                self.fallbacks_since_open += 1;
                if self.fallbacks_since_open >= self.config.probe_after {
                    self.state = BreakerState::HalfOpen;
                }
                return self.serve_local(features);
            }
            BreakerState::HalfOpen => {
                self.stats.probes += 1;
                if self.client.ping().is_ok() {
                    self.state = BreakerState::Closed;
                    self.consecutive_failures = 0;
                } else {
                    self.state = BreakerState::Open;
                    self.fallbacks_since_open = 0;
                    return self.serve_local(features);
                }
            }
            BreakerState::Closed => {}
        }
        match self.client.infer_features(features) {
            Ok(outputs) => {
                self.consecutive_failures = 0;
                self.stats.remote += 1;
                Ok(Served {
                    outputs,
                    via: ServedVia::Remote,
                })
            }
            Err(err) if Self::is_transient(&err) => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.failure_threshold {
                    self.trip();
                }
                self.serve_local(features)
            }
            Err(err) => Err(err),
        }
    }

    /// The breaker's current state.
    pub fn breaker_state(&self) -> BreakerState {
        self.state
    }

    /// What the policy has decided so far.
    pub fn stats(&self) -> ResilientStats {
        self.stats
    }

    /// The wrapped client (e.g. to scrape server metrics when healthy).
    pub fn client_mut(&mut self) -> &mut EdgeClient {
        &mut self.client
    }

    /// Unwraps the policy layer, returning the client underneath.
    pub fn into_client(self) -> EdgeClient {
        self.client
    }

    fn trip(&mut self) {
        self.state = BreakerState::Open;
        self.fallbacks_since_open = 0;
        self.stats.breaker_trips += 1;
        obs::metrics::SERVE_BREAKER_TRIPS.add(1);
    }

    fn serve_local(&mut self, features: &Tensor) -> Result<Served> {
        self.stats.fallbacks += 1;
        obs::metrics::SERVE_FALLBACKS.add(1);
        let outputs = self.run_local(features)?;
        Ok(Served {
            outputs,
            via: ServedVia::Fallback,
        })
    }

    /// The exact computation the server would run: finish the backbone with
    /// the tail (if the split keeps one server-side), then run every head.
    /// Same weights, same deterministic kernels — bit-identical outputs.
    fn run_local(&mut self, features: &Tensor) -> Result<Vec<Tensor>> {
        let tail_output = match &self.tail {
            Some(tail) => Some(
                self.plan
                    .run(tail.as_ref(), features)
                    .map_err(mtlsplit_split::SplitError::from)?,
            ),
            None => None,
        };
        let input = tail_output.as_ref().unwrap_or(features);
        let outputs: Result<Vec<Tensor>> = self
            .heads
            .iter()
            .map(|head| {
                let output = self
                    .plan
                    .run(head.as_ref(), input)
                    .map_err(mtlsplit_split::SplitError::from)?;
                // The caller keeps a copy; the arena keeps the buffer.
                let owned = output.clone();
                self.plan.recycle(output);
                Ok(owned)
            })
            .collect();
        if let Some(output) = tail_output {
            self.plan.recycle(output);
        }
        outputs
    }

    /// Transient failures are channel problems the fallback can absorb;
    /// everything the server *meant* (application and protocol rejections)
    /// or that is locally malformed passes through.
    fn is_transient(err: &ServeError) -> bool {
        !matches!(
            err,
            ServeError::Remote {
                code: ErrorCode::App | ErrorCode::Protocol,
                ..
            } | ServeError::Malformed { .. }
                | ServeError::Split(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultyTransport};
    use crate::frame::Frame;
    use crate::server::{InferenceServer, ServerConfig};
    use crate::transport::{LoopbackTransport, Transport};
    use crate::RetryPolicy;
    use mtlsplit_nn::{Flatten, Linear, Relu, Sequential};
    use mtlsplit_split::{Precision, TensorCodec};
    use mtlsplit_tensor::StdRng;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    /// Everything a policy test needs, built three times from one seed: a
    /// monolithic reference, a served copy and a fallback copy.
    struct Fixture {
        reference_backbone: Sequential,
        reference_heads: Vec<Sequential>,
        server: Arc<InferenceServer>,
        served_backbone: Sequential,
        fallback: Vec<Box<dyn Layer>>,
    }

    fn fixture() -> Fixture {
        let build = || {
            let mut rng = StdRng::seed_from(77);
            let backbone = Sequential::new()
                .push(Flatten::new())
                .push(Linear::new(3 * 4 * 4, 12, &mut rng))
                .push(Relu::new());
            let heads = vec![
                Sequential::new().push(Linear::new(12, 5, &mut rng)),
                Sequential::new().push(Linear::new(12, 2, &mut rng)),
            ];
            (backbone, heads)
        };
        let (reference_backbone, reference_heads) = build();
        let (served_backbone, served_heads) = build();
        let (_, fallback_heads) = build();
        let boxed: Vec<Box<dyn Layer>> = served_heads
            .into_iter()
            .map(|h| Box::new(h) as Box<dyn Layer>)
            .collect();
        let fallback: Vec<Box<dyn Layer>> = fallback_heads
            .into_iter()
            .map(|h| Box::new(h) as Box<dyn Layer>)
            .collect();
        let server = Arc::new(InferenceServer::start(boxed, ServerConfig::default()));
        Fixture {
            reference_backbone,
            reference_heads,
            server,
            served_backbone,
            fallback,
        }
    }

    fn monolithic(backbone: &Sequential, heads: &[Sequential], x: &Tensor) -> Vec<Tensor> {
        let features = backbone.infer(x).unwrap();
        heads.iter().map(|h| h.infer(&features).unwrap()).collect()
    }

    /// A transport whose link can be switched on and off from the test.
    struct ToggleTransport {
        inner: LoopbackTransport,
        down: Arc<AtomicBool>,
    }

    impl Transport for ToggleTransport {
        fn request(&mut self, frame: &Frame) -> crate::Result<Frame> {
            if self.down.load(Ordering::SeqCst) {
                return Err(ServeError::Io(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "link down",
                )));
            }
            self.inner.request(frame)
        }
    }

    #[test]
    fn healthy_link_serves_remotely_and_matches_monolith() {
        let Fixture {
            reference_backbone: ref_backbone,
            reference_heads: ref_heads,
            server,
            served_backbone,
            fallback,
        } = fixture();
        let client = EdgeClient::new(
            Box::new(served_backbone),
            TensorCodec::new(Precision::Float32),
            Box::new(LoopbackTransport::new(server)),
        );
        let mut resilient = ResilientClient::new(client, None, fallback, BreakerConfig::default());
        let mut rng = StdRng::seed_from(78);
        let x = Tensor::randn(&[2, 3, 4, 4], 0.0, 1.0, &mut rng);
        let served = resilient.infer(&x).unwrap();
        assert_eq!(served.via, ServedVia::Remote);
        assert_eq!(served.outputs, monolithic(&ref_backbone, &ref_heads, &x));
        assert_eq!(resilient.breaker_state(), BreakerState::Closed);
        assert_eq!(resilient.stats().remote, 1);
        assert_eq!(resilient.stats().fallbacks, 0);
    }

    #[test]
    fn dead_link_degrades_to_bit_identical_local_results() {
        let Fixture {
            reference_backbone: ref_backbone,
            reference_heads: ref_heads,
            server,
            served_backbone,
            fallback,
        } = fixture();
        let down = Arc::new(AtomicBool::new(true));
        let client = EdgeClient::new(
            Box::new(served_backbone),
            TensorCodec::new(Precision::Float32),
            Box::new(ToggleTransport {
                inner: LoopbackTransport::new(server),
                down: Arc::clone(&down),
            }),
        );
        let config = BreakerConfig::default().with_failure_threshold(2);
        let mut resilient = ResilientClient::new(client, None, fallback, config);
        let mut rng = StdRng::seed_from(79);
        for round in 0..6 {
            let x = Tensor::randn(&[1, 3, 4, 4], 0.0, 1.0, &mut rng);
            let served = resilient.infer(&x).unwrap();
            assert_eq!(served.via, ServedVia::Fallback, "round {round}");
            assert_eq!(
                served.outputs,
                monolithic(&ref_backbone, &ref_heads, &x),
                "fallback diverged from the monolith in round {round}"
            );
        }
        assert_eq!(resilient.breaker_state(), BreakerState::Open);
        assert_eq!(resilient.stats().breaker_trips, 1);
        assert_eq!(resilient.stats().fallbacks, 6);
        assert_eq!(resilient.stats().remote, 0);
    }

    #[test]
    fn fallback_plan_stops_allocating_after_the_first_local_serve() {
        let Fixture {
            reference_backbone: ref_backbone,
            reference_heads: ref_heads,
            server,
            served_backbone,
            fallback,
        } = fixture();
        let client = EdgeClient::new(
            Box::new(served_backbone),
            TensorCodec::new(Precision::Float32),
            Box::new(ToggleTransport {
                inner: LoopbackTransport::new(server),
                down: Arc::new(AtomicBool::new(true)),
            }),
        );
        let mut resilient = ResilientClient::new(client, None, fallback, BreakerConfig::default());
        assert_eq!(resilient.plan.fresh_allocations(), 0, "no eager warm-up");
        let mut rng = StdRng::seed_from(82);
        let mut warmed = None;
        for round in 0..17 {
            let x = Tensor::randn(&[2, 3, 4, 4], 0.0, 1.0, &mut rng);
            let served = resilient.infer(&x).unwrap();
            assert_eq!(served.via, ServedVia::Fallback, "round {round}");
            assert_eq!(served.outputs, monolithic(&ref_backbone, &ref_heads, &x));
            let fresh = resilient.plan.fresh_allocations();
            assert!(fresh > 0, "round {round}: the fallback runs planned");
            assert_eq!(*warmed.get_or_insert(fresh), fresh, "round {round}");
        }
    }

    #[test]
    fn breaker_probes_and_recovers_when_the_link_returns() {
        let Fixture {
            server,
            served_backbone,
            fallback,
            ..
        } = fixture();
        let down = Arc::new(AtomicBool::new(true));
        let client = EdgeClient::new(
            Box::new(served_backbone),
            TensorCodec::new(Precision::Float32),
            Box::new(ToggleTransport {
                inner: LoopbackTransport::new(server),
                down: Arc::clone(&down),
            }),
        );
        let config = BreakerConfig {
            failure_threshold: 2,
            probe_after: 3,
        };
        let mut resilient = ResilientClient::new(client, None, fallback, config);
        let mut rng = StdRng::seed_from(80);
        let x = Tensor::randn(&[1, 3, 4, 4], 0.0, 1.0, &mut rng);
        // Trip the breaker: 2 consecutive failures (each served locally).
        resilient.infer(&x).unwrap();
        resilient.infer(&x).unwrap();
        assert_eq!(resilient.breaker_state(), BreakerState::Open);
        // Open: 3 locally served requests move it to half-open.
        for _ in 0..3 {
            let served = resilient.infer(&x).unwrap();
            assert_eq!(served.via, ServedVia::Fallback);
        }
        assert_eq!(resilient.breaker_state(), BreakerState::HalfOpen);
        // Still down: the probe fails, the breaker reopens, the request is
        // still answered.
        let served = resilient.infer(&x).unwrap();
        assert_eq!(served.via, ServedVia::Fallback);
        assert_eq!(resilient.breaker_state(), BreakerState::Open);
        // Link restored: walk back to half-open, probe succeeds, traffic
        // goes remote again.
        down.store(false, Ordering::SeqCst);
        for _ in 0..3 {
            resilient.infer(&x).unwrap();
        }
        assert_eq!(resilient.breaker_state(), BreakerState::HalfOpen);
        let served = resilient.infer(&x).unwrap();
        assert_eq!(served.via, ServedVia::Remote);
        assert_eq!(resilient.breaker_state(), BreakerState::Closed);
        assert!(resilient.stats().probes >= 2);
    }

    #[test]
    fn application_errors_pass_through_without_tripping_or_fallback() {
        let Fixture {
            server, fallback, ..
        } = fixture();
        let client = EdgeClient::new(
            Box::new(Sequential::new()),
            TensorCodec::default(),
            Box::new(LoopbackTransport::new(server)),
        );
        let mut resilient = ResilientClient::new(
            client,
            None,
            fallback,
            BreakerConfig::default().with_failure_threshold(1),
        );
        // 5 features instead of 12: the server's heads reject it, and so
        // would the fallback — this is not a channel failure.
        let bad = Tensor::ones(&[1, 5]);
        assert!(matches!(
            resilient.infer_features(&bad),
            Err(ServeError::Remote {
                code: ErrorCode::App,
                ..
            })
        ));
        assert_eq!(resilient.breaker_state(), BreakerState::Closed);
        assert_eq!(resilient.stats().fallbacks, 0);
        assert_eq!(resilient.stats().breaker_trips, 0);
    }

    #[test]
    fn every_request_under_faults_ends_in_exactly_one_outcome() {
        let Fixture {
            reference_backbone: ref_backbone,
            reference_heads: ref_heads,
            server,
            served_backbone,
            fallback,
        } = fixture();
        // Harsher than the drop-heavy preset so the retry budget is
        // genuinely exhausted on some requests and the fallback engages.
        let mut plan = FaultPlan::drop_heavy(1234);
        plan.drop_rate = 0.6;
        plan.refuse_rate = 0.8;
        let transport = FaultyTransport::new(LoopbackTransport::new(server), plan);
        let client = EdgeClient::new(
            Box::new(served_backbone),
            TensorCodec::new(Precision::Float32),
            Box::new(transport),
        )
        .with_retry_policy(
            RetryPolicy::resilient(5)
                .with_max_attempts(3)
                .with_backoff(Duration::from_micros(50), Duration::from_micros(400)),
        );
        let mut resilient = ResilientClient::new(client, None, fallback, BreakerConfig::default());
        let mut rng = StdRng::seed_from(81);
        let mut remote = 0u64;
        let mut local = 0u64;
        for round in 0..60 {
            let x = Tensor::randn(&[1, 3, 4, 4], 0.0, 1.0, &mut rng);
            let expected = monolithic(&ref_backbone, &ref_heads, &x);
            let served = resilient
                .infer(&x)
                .expect("under a drop-heavy plan every request must be answered");
            match served.via {
                ServedVia::Remote => remote += 1,
                ServedVia::Fallback => local += 1,
            }
            assert_eq!(served.outputs, expected, "round {round} diverged");
        }
        assert_eq!(remote + local, 60);
        assert!(local > 0, "a drop-heavy plan must force some fallbacks");
        let stats = resilient.stats();
        assert_eq!(stats.remote, remote);
        assert_eq!(stats.fallbacks, local);
    }
}
