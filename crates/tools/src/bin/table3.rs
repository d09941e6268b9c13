//! Regenerates Table 3: fine-tuning on the FACES-like portrait corpus from a
//! backbone pre-trained on the shapes corpus, for every task subset
//! (T1+T3, T2+T3, T1+T2+T3) against per-task STL baselines.
//!
//! Usage: `cargo run --release -p mtlsplit-tools --bin table3 -- [--quick|--full] [--seed N] [--json PATH]`

use mtlsplit_core::experiment::run_table3;
use mtlsplit_models::BackboneKind;
use mtlsplit_tools::{maybe_write_rows, print_comparison, CliOptions};

fn main() {
    let options = CliOptions::from_env();
    println!(
        "Table 3 — FACES (synthetic analogue) with fine-tuning, preset {:?}, seed {}",
        options.preset, options.seed
    );
    match run_table3(&BackboneKind::ALL, options.preset, options.seed) {
        Ok(rows) => {
            print_comparison(
                "Table 3: STL vs MTL with fine-tuning (T1 = age, T2 = gender, T3 = expression)",
                &rows,
            );
            maybe_write_rows(&options.json_path, &rows);
        }
        Err(err) => {
            eprintln!("table3 failed: {err}");
            std::process::exit(1);
        }
    }
}
