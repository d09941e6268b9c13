//! Quickstart: build an MTL-Split model, train it briefly on the synthetic
//! shapes corpus, and serve it split: the backbone on an edge client, the
//! heads on an in-process server over the loopback transport. Prints what
//! the measured `Z_b` payload would take on a gigabit link, and exits
//! non-zero if the served logits differ from the monolithic forward pass.
//!
//! Run with:
//! ```text
//! cargo run --release -p mtlsplit --example quickstart
//! ```

use std::error::Error;
use std::sync::Arc;

use mtlsplit_core::{deploy, trainer, TrainConfig};
use mtlsplit_data::shapes::ShapesConfig;
use mtlsplit_models::BackboneKind;
use mtlsplit_serve::{EdgeClient, InferenceServer, LoopbackTransport, ServerConfig};
use mtlsplit_split::{ChannelModel, Precision, TensorCodec};

fn main() -> Result<(), Box<dyn Error>> {
    // 1. A small multi-task dataset: object size (8 classes) and object type
    //    (4 classes), the two tasks of the paper's Table 1.
    let dataset = ShapesConfig {
        samples: 600,
        image_size: 20,
        noise_fraction: 0.15,
    }
    .generate_table1_tasks(7)?;
    let (train, test) = dataset.split(0.8, 7)?;
    println!(
        "dataset: {} train / {} test samples, tasks: {:?}",
        train.len(),
        test.len(),
        train
            .tasks()
            .iter()
            .map(|t| t.name.as_str())
            .collect::<Vec<_>>()
    );

    // 2. Joint multi-task training of one shared backbone + two heads.
    let config = TrainConfig {
        epochs: 3,
        batch_size: 32,
        learning_rate: 3e-3,
        head_hidden: 32,
        seed: 7,
        ..TrainConfig::default()
    };
    let outcome = trainer::train_mtl(BackboneKind::MobileStyle, &train, &test, &config)?;
    for acc in &outcome.accuracies {
        println!("task {:<12} test accuracy {:.2}%", acc.task, acc.percent());
    }

    // 3. Deploy: backbone on the "edge", heads on the "server", with the
    //    flattened representation Z_b crossing the in-process loopback
    //    transport. Inference is immutable (&self), so the trained model
    //    needs no `mut`.
    let model = outcome.model;
    let sample = test.images().slice_batch(0, 8)?;
    let (_, monolithic) = model.infer_forward(&sample)?;
    let (edge, server_half) = deploy::split_for_serving(model);
    let feature_dim = edge.feature_dim();
    let server = InferenceServer::start(server_half.into_layers(), ServerConfig::default());
    let mut client = EdgeClient::new(
        edge.into_layer(),
        TensorCodec::new(Precision::Float32),
        Box::new(LoopbackTransport::new(Arc::new(server))),
    );

    let features = client.backbone_features(&sample)?;
    let wire_bytes = client.codec().encode(&features).wire_bytes();
    println!(
        "edge: produced Z_b of {feature_dim} features/sample, payload {wire_bytes} bytes for 8 samples"
    );
    println!(
        "a gigabit link would carry it in {:.1} us",
        ChannelModel::gigabit().transfer_time_bytes(wire_bytes) * 1e6
    );

    let outputs = client.infer_features(&features)?;
    for (task, logits) in outputs.iter().enumerate() {
        let predictions = logits.argmax_rows()?;
        println!("server: task {task} predictions for 8 samples: {predictions:?}");
    }
    if outputs != monolithic {
        return Err("served logits differ from the monolithic forward pass".into());
    }

    let raw_bytes = sample.len() * 4;
    println!(
        "raw input would have been {} bytes — the split transmits {:.1}x less data",
        raw_bytes,
        raw_bytes as f64 / wire_bytes as f64
    );
    println!("ok: served logits match the monolithic forward pass");
    Ok(())
}
