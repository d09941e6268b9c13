//! Regenerates the Local-only-Computing analysis of Section 4.2: edge memory
//! needed for N separate single-task networks versus one shared MTL-Split
//! backbone, and whether each deployment fits a Jetson-Nano-class device.
//!
//! Usage: `cargo run --release -p mtlsplit-tools --bin loc_analysis -- [--json PATH]`

use mtlsplit_core::experiment::run_paradigm_analysis;
use mtlsplit_split::{ChannelModel, DeploymentParadigm, EdgeDevice, WorkloadProfile};
use mtlsplit_tools::{maybe_write_rows, print_paradigm_rows, CliOptions};

/// Reruns the feasibility argument with the paper's own published model
/// sizes (Table 4 / Section 4.2), so the "only MobileNetV3 fits under LoC"
/// conclusion can be checked directly against a 4 GB Jetson Nano.
fn paper_scale_feasibility(device: &EdgeDevice, channel: &ChannelModel) {
    println!("\n=== Paper-scale feasibility (published model sizes, 4 GB Jetson Nano) ===");
    // Estimated per-network sizes from the paper: MobileNetV3 ~727.66 MB,
    // EfficientNet ~3467.54 MB; Z_b 0.21 MB and 1.56 MB respectively.
    let profiles = [
        ("MobileNetV3 (paper sizes)", 727_660_000usize, 210_000usize),
        ("EfficientNet (paper sizes)", 3_467_540_000, 1_560_000),
    ];
    for tasks in [2usize, 3] {
        for (name, network_bytes, zb_bytes) in profiles {
            let profile = WorkloadProfile {
                model_name: name.to_string(),
                task_count: tasks,
                backbone_bytes: network_bytes,
                head_bytes: network_bytes / 50,
                raw_input_bytes: 115_000_000,
                zb_bytes,
                inference_count: 100,
            };
            let loc = profile.memory_footprint(DeploymentParadigm::LocalOnly);
            let sc = profile.memory_footprint(DeploymentParadigm::Split);
            println!(
                "{name}, {tasks} tasks: LoC needs {:>8.2} GB on the edge ({}), SC needs {:>6.2} GB ({}) — saving {:>4.1}%, transfer saving vs RoC {:>4.1}%",
                loc.edge_bytes as f64 / 1e9,
                if device.fits(loc.edge_bytes) { "fits" } else { "DOES NOT FIT" },
                sc.edge_bytes as f64 / 1e9,
                if device.fits(sc.edge_bytes) { "fits" } else { "DOES NOT FIT" },
                profile.memory_saving_vs_loc() * 100.0,
                profile.latency_saving_vs_roc(channel) * 100.0,
            );
        }
    }
}

fn main() {
    let options = CliOptions::from_env();
    let channel = ChannelModel::gigabit();
    let device = EdgeDevice::jetson_nano();
    match run_paradigm_analysis(&[2, 3], 224, 2835, 100, &channel, &device) {
        Ok(rows) => {
            print_paradigm_rows(
                "Section 4.2 (LoC): edge memory for N single-task networks vs one shared backbone",
                &rows,
            );
            paper_scale_feasibility(&device, &channel);
            println!(
                "\nPaper reference points: ~38% memory saving for 2 tasks and ~57% for 3 tasks\n\
                 with EfficientNet; only MobileNetV3 fits the Jetson Nano under LoC."
            );
            maybe_write_rows(&options.json_path, &rows);
        }
        Err(err) => {
            eprintln!("loc_analysis failed: {err}");
            std::process::exit(1);
        }
    }
}
