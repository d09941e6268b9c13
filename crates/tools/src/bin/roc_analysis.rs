//! Regenerates the Remote-only-Computing analysis of Section 4.2: time to
//! transfer 100 raw inputs versus 100 `Z_b` payloads over a gigabit channel,
//! plus a degraded-channel sweep showing how the gap widens as the link
//! quality drops.
//!
//! Usage: `cargo run --release -p mtlsplit-tools --bin roc_analysis -- [--json PATH]`

use mtlsplit_split::ChannelModel;
use mtlsplit_tools::{maybe_write_rows, CliOptions};

#[derive(Debug)]
struct RocRow {
    channel: String,
    degradation: f64,
    raw_seconds: f64,
    zb_seconds: f64,
    saving_percent: f64,
}

fn main() {
    let options = CliOptions::from_env();
    // The paper's figures: ~115 MB per raw FACES image, ~1.5 MB per Z_b,
    // 100 inferences, gigabit channel.
    let raw_bytes = 115_000_000usize;
    let zb_bytes = 1_500_000usize;
    let inferences = 100usize;

    let mut rows = Vec::new();
    for (name, base) in [
        ("gigabit", ChannelModel::gigabit()),
        ("wifi", ChannelModel::wifi()),
        ("lte-uplink", ChannelModel::lte_uplink()),
    ] {
        for degradation in [0.0, 0.25, 0.5, 0.75] {
            let channel = base
                .with_degradation(degradation)
                .expect("degradation in range");
            let raw = channel.transfer_batch(raw_bytes, inferences).seconds_total;
            let zb = channel.transfer_batch(zb_bytes, inferences).seconds_total;
            rows.push(RocRow {
                channel: name.to_string(),
                degradation,
                raw_seconds: raw,
                zb_seconds: zb,
                saving_percent: (1.0 - zb / raw) * 100.0,
            });
        }
    }

    println!("\n=== Section 4.2 (RoC): transferring 100 raw inputs vs 100 Z_b payloads ===");
    println!(
        "{:<12} {:>12} {:>14} {:>14} {:>12}",
        "channel", "degradation", "raw (s)", "Z_b (s)", "saving"
    );
    for row in &rows {
        println!(
            "{:<12} {:>12.2} {:>14.2} {:>14.2} {:>11.1}%",
            row.channel, row.degradation, row.raw_seconds, row.zb_seconds, row.saving_percent
        );
    }
    println!(
        "\nPaper reference point: ~98 s vs ~12 s on a clean gigabit link (~87% saving).\n\
         Our Z_b payloads are smaller than the paper's 1.5 MB for the scaled models, so the\n\
         saving reported by the split pipeline itself is even larger; this sweep uses the\n\
         paper's own payload sizes to make the numbers directly comparable."
    );
    maybe_write_rows(&options.json_path, &rows);
}
