//! Regenerates Table 1: STL vs MTL classification accuracy on the
//! 3D-Shapes-like corpus (object size `T1`, object type `T2`) for all three
//! backbone families.
//!
//! Usage: `cargo run --release -p mtlsplit-tools --bin table1 -- [--quick|--full] [--seed N] [--json PATH]`

use mtlsplit_core::experiment::run_table1;
use mtlsplit_models::BackboneKind;
use mtlsplit_tools::{maybe_write_rows, print_comparison, CliOptions};

fn main() {
    let options = CliOptions::from_env();
    println!(
        "Table 1 — 3D Shapes (synthetic analogue), preset {:?}, seed {}",
        options.preset, options.seed
    );
    match run_table1(&BackboneKind::ALL, options.preset, options.seed) {
        Ok(rows) => {
            print_comparison(
                "Table 1: STL vs MTL on the shapes corpus (T1 = object size, T2 = object type)",
                &rows,
            );
            maybe_write_rows(&options.json_path, &rows);
        }
        Err(err) => {
            eprintln!("table1 failed: {err}");
            std::process::exit(1);
        }
    }
}
