//! Regenerate the paper's Table I from scratch: run all 28 benchmarks
//! through the Vortex flow (cycle simulation + result verification) and
//! through HLS synthesis for the MX2100, printing the coverage table with
//! failure reasons.
//!
//! ```sh
//! cargo run --release --example coverage_sweep
//! ```

use fpga_arch::{paper, VortexConfig};
use ocl_suite::Scale;
use repro_core::{check_suite, coverage_table, report};

fn main() {
    let rows = coverage_table(&check_suite(Scale::Test, VortexConfig::new(2, 4, 16)));
    print!("{}", report::render_table1(&rows));
    print!("\n{}", report::render_table1_summary(&rows));
    let slowest = rows
        .iter()
        .max_by(|a, b| a.hls_hours.total_cmp(&b.hls_hours))
        .expect("28 rows");
    println!(
        "longest modeled synthesis: {} at {:.1} h (the paper reports {} h \
         for its largest successful run)",
        slowest.name,
        slowest.hls_hours,
        paper::SYNTH_HOURS_LARGEST
    );
}
