//! Integration tests of the deployment analysis: the qualitative claims of
//! Section 4.2 and Table 4 must hold for every backbone and every channel —
//! plus the serving-equivalence guarantee: a multi-worker `InferenceServer`
//! must be bit-identical to a single worker and to a monolithic forward.

use std::sync::Arc;

use mtlsplit_core::experiment::{run_paradigm_analysis, run_table4};
use mtlsplit_core::{deploy, MtlSplitModel};
use mtlsplit_data::TaskSpec;
use mtlsplit_models::analysis::{analyze_backbone_at, raw_input_bytes};
use mtlsplit_models::{Backbone, BackboneConfig, BackboneKind};
use mtlsplit_serve::{EdgeClient, InferenceServer, LoopbackTransport, ServerConfig};
use mtlsplit_split::{ChannelModel, DeploymentParadigm, EdgeDevice, TensorCodec, WorkloadProfile};
use mtlsplit_tensor::{StdRng, Tensor};

#[test]
fn table4_orderings_hold() {
    let reports = run_table4(224, 24).expect("table4");
    let mobile = &reports[0];
    let efficient = &reports[1];
    // EfficientNet-style is the larger model in every column, as in Table 4.
    assert!(efficient.parameters > mobile.parameters);
    assert!(efficient.forward_backward_bytes > mobile.forward_backward_bytes);
    assert!(efficient.zb_bytes > mobile.zb_bytes);
    // Z_b stays tiny compared with a raw 224x224 RGB frame for both models.
    let frame = raw_input_bytes(3, 224, 224);
    assert!(efficient.zb_bytes * 50 < frame);
    assert!(mobile.zb_bytes * 50 < frame);
}

#[test]
fn split_paradigm_dominates_loc_memory_and_roc_latency_everywhere() {
    for channel in [
        ChannelModel::gigabit(),
        ChannelModel::wifi(),
        ChannelModel::lte_uplink(),
    ] {
        let rows = run_paradigm_analysis(
            &[2, 3, 4],
            224,
            2835,
            100,
            &channel,
            &EdgeDevice::jetson_nano(),
        )
        .expect("analysis");
        for row in rows {
            let by_paradigm = |p: DeploymentParadigm| {
                row.analyses
                    .iter()
                    .find(|a| a.paradigm == p)
                    .expect("paradigm present")
                    .clone()
            };
            let loc = by_paradigm(DeploymentParadigm::LocalOnly);
            let roc = by_paradigm(DeploymentParadigm::RemoteOnly);
            let sc = by_paradigm(DeploymentParadigm::Split);
            // SC needs no more edge memory than LoC and no more network than RoC.
            assert!(sc.memory.edge_bytes <= loc.memory.edge_bytes);
            assert!(sc.network_bytes_per_inference <= roc.network_bytes_per_inference);
            assert!(sc.transfer.seconds_total <= roc.transfer.seconds_total);
            // LoC never touches the network.
            assert_eq!(loc.network_bytes_per_inference, 0);
        }
    }
}

#[test]
fn loc_memory_saving_grows_with_the_number_of_tasks() {
    let mut rng = StdRng::seed_from(5);
    let backbone = Backbone::new(
        BackboneConfig::new(BackboneKind::EfficientStyle, 3, 24),
        &mut rng,
    )
    .expect("backbone");
    let report = analyze_backbone_at(&backbone, 224);
    let mut previous = 0.0f64;
    for tasks in 2..=6 {
        let profile = WorkloadProfile {
            model_name: report.model.clone(),
            task_count: tasks,
            backbone_bytes: report.estimated_total_bytes,
            head_bytes: report.zb_bytes * 64,
            raw_input_bytes: raw_input_bytes(3, 224, 224),
            zb_bytes: report.zb_bytes,
            inference_count: 100,
        };
        let saving = profile.memory_saving_vs_loc();
        assert!(
            saving > previous,
            "saving should grow with task count: {saving} after {previous}"
        );
        previous = saving;
    }
    // With many tasks the saving approaches the paper's 57 %+ regime.
    assert!(previous > 0.55, "saving for 6 tasks was only {previous}");
}

/// Builds the same two-task model from one seed (construction is fully
/// deterministic, so every call yields identical weights).
fn fixture_model() -> MtlSplitModel {
    let mut rng = StdRng::seed_from(77);
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

#[test]
fn multi_worker_server_is_bit_identical_to_single_worker_and_monolithic() {
    // Monolithic reference: the intact model, &self inference.
    let monolithic = fixture_model();
    let mut rng = StdRng::seed_from(78);
    let codec = TensorCodec::default();
    let inputs: Vec<Tensor> = (0..24)
        .map(|_| Tensor::randn(&[1, 3, 16, 16], 0.5, 0.2, &mut rng))
        .collect();
    let references: Vec<Vec<Tensor>> = inputs
        .iter()
        .map(|x| monolithic.infer_forward(x).expect("monolithic forward").1)
        .collect();

    // Two servers over identically-built split halves: one worker vs four.
    let serve_all = |workers: usize| -> Vec<Vec<Tensor>> {
        let (_, server_half) = deploy::split_for_serving(fixture_model());
        let server = Arc::new(InferenceServer::start(
            server_half.into_layers(),
            ServerConfig::default()
                .with_max_batch(8)
                .with_workers(workers),
        ));
        // Drive from several edge clients on their own threads so the worker
        // pool actually interleaves and micro-batching can coalesce
        // unrelated requests.
        let chunk = inputs.len() / 4;
        let mut answers: Vec<Option<Vec<Tensor>>> = vec![None; inputs.len()];
        std::thread::scope(|scope| {
            let mut pending = Vec::new();
            for (start, slice) in inputs
                .chunks(chunk)
                .enumerate()
                .map(|(i, s)| (i * chunk, s))
            {
                let (edge, _) = deploy::split_for_serving(fixture_model());
                let mut client = EdgeClient::new(
                    edge.into_layer(),
                    codec,
                    Box::new(LoopbackTransport::new(Arc::clone(&server))),
                );
                pending.push((
                    start,
                    scope.spawn(move || {
                        slice
                            .iter()
                            .map(|x| client.infer(x).expect("served request"))
                            .collect::<Vec<Vec<Tensor>>>()
                    }),
                ));
            }
            for (start, handle) in pending {
                for (offset, outputs) in handle
                    .join()
                    .expect("client thread")
                    .into_iter()
                    .enumerate()
                {
                    answers[start + offset] = Some(outputs);
                }
            }
        });
        answers.into_iter().map(|a| a.expect("answered")).collect()
    };

    let single = serve_all(1);
    let multi = serve_all(4);
    for ((reference, one), four) in references.iter().zip(&single).zip(&multi) {
        // Bit-identical across all three execution modes: the f32 codec is
        // lossless and batched &self inference computes rows independently.
        assert_eq!(one, reference, "single-worker output diverged");
        assert_eq!(four, reference, "multi-worker output diverged");
        assert_eq!(one, four);
    }
}

#[test]
fn degraded_channels_increase_transfer_time_but_not_the_relative_saving_direction() {
    let profile = WorkloadProfile {
        model_name: "probe".to_string(),
        task_count: 3,
        backbone_bytes: 3_450_000_000,
        head_bytes: 20_000_000,
        raw_input_bytes: 115_000_000,
        zb_bytes: 1_500_000,
        inference_count: 100,
    };
    let clean = ChannelModel::gigabit();
    let degraded = clean.with_degradation(0.75).expect("degradation");
    let clean_sc = profile
        .analyze(
            DeploymentParadigm::Split,
            &clean,
            &EdgeDevice::jetson_nano(),
        )
        .expect("analysis");
    let degraded_sc = profile
        .analyze(
            DeploymentParadigm::Split,
            &degraded,
            &EdgeDevice::jetson_nano(),
        )
        .expect("analysis");
    assert!(degraded_sc.transfer.seconds_total > clean_sc.transfer.seconds_total);
    // The saving over RoC persists on the degraded channel.
    assert!(profile.latency_saving_vs_roc(&degraded) > 0.85);
}
