//! Regenerates Table 2: STL vs MTL classification accuracy on the MEDIC-like
//! incident-imagery corpus (damage severity `T1`, disaster type `T2`).
//!
//! Usage: `cargo run --release -p mtlsplit-tools --bin table2 -- [--quick|--full] [--seed N] [--json PATH]`

use mtlsplit_core::experiment::run_table2;
use mtlsplit_models::BackboneKind;
use mtlsplit_tools::{maybe_write_rows, print_comparison, CliOptions};

fn main() {
    let options = CliOptions::from_env();
    println!(
        "Table 2 — MEDIC (synthetic analogue), preset {:?}, seed {}",
        options.preset, options.seed
    );
    match run_table2(&BackboneKind::ALL, options.preset, options.seed) {
        Ok(rows) => {
            print_comparison(
                "Table 2: STL vs MTL on the incident corpus (T1 = damage severity, T2 = disaster type)",
                &rows,
            );
            maybe_write_rows(&options.json_path, &rows);
        }
        Err(err) => {
            eprintln!("table2 failed: {err}");
            std::process::exit(1);
        }
    }
}
