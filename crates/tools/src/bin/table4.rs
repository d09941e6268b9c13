//! Regenerates Table 4: backbone parameter counts, parameter size,
//! forward/backward activation footprint, estimated total size, and the
//! element count and size of the transmitted representation `Z_b`.
//!
//! The activations are extrapolated to the paper's 224×224 input resolution;
//! pass `--native` to report the scaled models at their native resolution
//! instead.
//!
//! Usage: `cargo run --release -p mtlsplit-tools --bin table4 -- [--native] [--json PATH]`

use mtlsplit_core::experiment::run_table4;
use mtlsplit_tools::{maybe_write_rows, print_model_reports, CliOptions};

fn main() {
    let options = CliOptions::from_env();
    let native = std::env::args().any(|a| a == "--native");
    let base_size = 24;
    let input_size = if native { base_size } else { 224 };
    match run_table4(input_size, base_size) {
        Ok(reports) => {
            print_model_reports(
                &format!("Table 4: backbone and Z_b sizes at {input_size}x{input_size} input"),
                &reports,
            );
            println!(
                "\nNote: absolute sizes are for the CPU-scale analogues; the ordering and the\n\
                 activation-vs-parameter ratio are the quantities compared against the paper."
            );
            maybe_write_rows(&options.json_path, &reports);
        }
        Err(err) => {
            eprintln!("table4 failed: {err}");
            std::process::exit(1);
        }
    }
}
