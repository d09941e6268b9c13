//! Integration tests spanning the whole stack: data generation → training →
//! split deployment, exercising the architecture of Figure 1 end to end.

use std::sync::Arc;

use mtlsplit_core::experiment::{run_stl_vs_mtl, Preset};
use mtlsplit_core::{deploy, trainer, MtlSplitModel, TrainConfig};
use mtlsplit_data::shapes::ShapesConfig;
use mtlsplit_models::BackboneKind;
use mtlsplit_serve::{EdgeClient, InferenceServer, LoopbackTransport, ServerConfig};
use mtlsplit_split::{ChannelModel, Precision, TensorCodec};

fn quick_config(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: 2,
        batch_size: 32,
        learning_rate: 3e-3,
        head_hidden: 24,
        seed,
        ..TrainConfig::default()
    }
}

/// Deploys `model` at its default split: the backbone on an edge client,
/// the heads on a server behind a simulated gigabit loopback link.
fn serve_split(model: MtlSplitModel, precision: Precision) -> EdgeClient {
    let (edge, server_half) = deploy::split_for_serving(model);
    let server = InferenceServer::start(server_half.into_layers(), ServerConfig::default());
    EdgeClient::new(
        edge.into_layer(),
        TensorCodec::new(precision),
        Box::new(LoopbackTransport::with_channel(
            Arc::new(server),
            ChannelModel::gigabit(),
        )),
    )
}

#[test]
fn mtl_training_then_split_inference_matches_monolithic_inference() {
    let dataset = ShapesConfig {
        samples: 240,
        image_size: 16,
        noise_fraction: 0.1,
    }
    .generate_table1_tasks(41)
    .expect("generate dataset");
    let (train, test) = dataset.split(0.8, 41).expect("split dataset");

    let outcome = trainer::train_mtl(BackboneKind::MobileStyle, &train, &test, &quick_config(41))
        .expect("train");
    let model = outcome.model;

    let sample = test.images().slice_batch(0, 6).expect("slice batch");
    // Monolithic logits (no network in the middle); &self inference.
    let (_, direct) = model.infer_forward(&sample).expect("monolithic forward");

    // Split logits: backbone on the edge, heads behind the channel.
    let mut client = serve_split(model, Precision::Float32);
    let features = client.backbone_features(&sample).expect("edge forward");
    let wire_bytes = client.codec().encode(&features).wire_bytes();
    let outputs = client.infer_features(&features).expect("served request");

    assert_eq!(direct, outputs, "splitting must not change the logits");
    // The transmitted payload is much smaller than the raw input.
    assert!(wire_bytes * 4 < sample.len() * 4);
}

#[test]
fn quantised_split_rarely_changes_predictions_and_shrinks_payload() {
    let dataset = ShapesConfig {
        samples: 200,
        image_size: 16,
        noise_fraction: 0.1,
    }
    .generate_table1_tasks(42)
    .expect("generate dataset");
    let (train, test) = dataset.split(0.8, 42).expect("split dataset");
    let outcome = trainer::train_mtl(BackboneKind::MobileStyle, &train, &test, &quick_config(42))
        .expect("train");
    let model = outcome.model;
    let sample = test.images().slice_batch(0, 10).expect("slice batch");
    let direct = model.predict(&sample).expect("predict");
    let full_payload_bytes = model.backbone().feature_dim() * 10 * 4;

    let mut client = serve_split(model, Precision::Quant8);
    let features = client.backbone_features(&sample).expect("edge forward");
    let wire_bytes = client.codec().encode(&features).wire_bytes();
    let outputs = client.infer_features(&features).expect("served request");

    // 8-bit quantisation of Z_b shrinks the payload ~4x...
    assert!(wire_bytes < full_payload_bytes / 2);
    // ...and at most a small fraction of predictions may flip.
    let mut agreements = 0usize;
    let mut total = 0usize;
    for (task, logits) in outputs.iter().enumerate() {
        let predictions = logits.argmax_rows().expect("argmax");
        for (a, b) in predictions.iter().zip(&direct[task]) {
            total += 1;
            if a == b {
                agreements += 1;
            }
        }
    }
    assert!(
        agreements * 10 >= total * 8,
        "quantisation flipped too many predictions: {agreements}/{total}"
    );
}

#[test]
fn stl_vs_mtl_comparison_produces_well_formed_rows() {
    let dataset = ShapesConfig {
        samples: 240,
        image_size: 16,
        noise_fraction: 0.15,
    }
    .generate_table1_tasks(43)
    .expect("generate dataset");
    let rows = run_stl_vs_mtl(
        &[BackboneKind::MobileStyle],
        &dataset,
        "T1+T2",
        &Preset::Quick.train_config(43),
    )
    .expect("comparison");
    assert_eq!(rows.len(), 1);
    let row = &rows[0];
    assert_eq!(row.stl.len(), 2);
    assert_eq!(row.mtl.len(), 2);
    assert_eq!(row.stl[0].task, row.mtl[0].task);
    for acc in row.stl.iter().chain(&row.mtl) {
        assert!((0.0..=1.0).contains(&acc.accuracy), "accuracy {acc:?}");
    }
    // Both tasks should be learned at better-than-chance level by at least
    // one of the two regimes (chance is 12.5 % and 25 %).
    assert!(row.mtl[0].accuracy.max(row.stl[0].accuracy) > 0.125);
    assert!(row.mtl[1].accuracy.max(row.stl[1].accuracy) > 0.25);
}

#[test]
fn training_is_reproducible_for_a_fixed_seed() {
    let dataset = ShapesConfig {
        samples: 160,
        image_size: 16,
        noise_fraction: 0.1,
    }
    .generate_table1_tasks(44)
    .expect("generate dataset");
    let (train, test) = dataset.split(0.8, 44).expect("split");
    let a = trainer::train_mtl(BackboneKind::MobileStyle, &train, &test, &quick_config(44))
        .expect("train a");
    let b = trainer::train_mtl(BackboneKind::MobileStyle, &train, &test, &quick_config(44))
        .expect("train b");
    assert_eq!(a.loss_history, b.loss_history);
    for (x, y) in a.accuracies.iter().zip(&b.accuracies) {
        assert_eq!(x.accuracy, y.accuracy);
    }
}
