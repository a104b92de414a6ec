//! Pins what `ir::interp` computes and counts for every suite benchmark:
//! per-launch-summed `steps`, `global_loads`, `global_stores` and an FNV-1a
//! of every final buffer, for all 28 benchmarks × the four opt levels at
//! test scale and at `DEFAULT_OPT` at paper scale (the shapes the
//! `hls-interp` benchmark workload serves). The HLS cycle estimate is a
//! function of the three counters, so this is the direct form of what
//! `perf_report.md` pins only through test-scale HLS cycles.
//!
//! Regenerate after an intentional change with
//! `REGOLD=1 cargo test --test interp_counts`.

use fpga_gpu_repro::ir::interp::Limits;
use fpga_gpu_repro::ir::passes::OptLevel;
use fpga_gpu_repro::suite::{all_benchmarks, run, Backend, Benchmark, Scale, DEFAULT_OPT};
use fpga_gpu_repro::util::Fnv;
use std::fmt::Write;

#[path = "support/golden.rs"]
mod golden;

/// One table row: the counters summed over the benchmark's launches and
/// the hash of its final buffers, in declaration order.
fn row(b: &Benchmark, scale: Scale, level: OptLevel) -> String {
    let interp = Backend::Interp {
        limits: Limits::default(),
    };
    let r = run(&interp, b.source, &(b.workload)(scale), Some(level), None)
        .unwrap_or_else(|e| panic!("{} at {}: {e}", b.name, level.flag_name()));
    let mut h = Fnv::new();
    for word in r.buffers.iter().flatten() {
        h.write(&word.to_le_bytes());
    }
    format!(
        "| {} | {} | {} | {} | {} | {:016x} |\n",
        b.name,
        level.flag_name(),
        r.instructions,
        r.global_loads,
        r.global_stores,
        h.finish()
    )
}

fn render() -> String {
    let header = "| benchmark | opt | steps | global_loads | global_stores | buffers fnv1a |\n\
                  |---|---|---|---|---|---|\n";
    let benches = all_benchmarks();
    let mut out = String::from("# ir::interp counts\n\n## test scale\n\n");
    out.push_str(header);
    for b in &benches {
        for level in OptLevel::ALL {
            out.push_str(&row(b, Scale::Test, level));
        }
    }
    write!(out, "\n## paper scale\n\n{header}").unwrap();
    for b in &benches {
        out.push_str(&row(b, Scale::Paper, DEFAULT_OPT));
    }
    out
}

#[test]
fn interp_counts_match_golden() {
    let rendered = render();
    golden::check("interp_counts.md", &rendered, "interpreter counts");
}
