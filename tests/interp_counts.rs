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

use fpga_gpu_repro::cache::wire::Fnv;
use fpga_gpu_repro::ir::interp::{run_ndrange, KernelArg, Limits, Memory};
use fpga_gpu_repro::ir::passes::OptLevel;
use fpga_gpu_repro::suite::{all_benchmarks, compile_bench, Benchmark, LArg, Scale, DEFAULT_OPT};
use std::fmt::Write;

/// One table row: the counters summed over the benchmark's launches and
/// the hash of its final buffers, in declaration order.
fn row(b: &Benchmark, scale: Scale, level: OptLevel) -> String {
    let module = compile_bench(b, level).unwrap();
    let w = (b.workload)(scale);
    let mut mem = Memory::new(32 << 20);
    let addrs: Vec<u32> = w
        .buffers
        .iter()
        .map(|h| mem.try_alloc_u32(&h.to_words()).unwrap())
        .collect();
    let (mut steps, mut loads, mut stores) = (0u64, 0u64, 0u64);
    for l in &w.launches {
        let args: Vec<KernelArg> = l
            .args
            .iter()
            .map(|a| match a {
                LArg::Buf(i) => KernelArg::Ptr(addrs[*i]),
                LArg::I32(v) => KernelArg::I32(*v),
                LArg::U32(v) => KernelArg::U32(*v),
                LArg::F32(v) => KernelArg::F32(*v),
            })
            .collect();
        let kernel = module.expect_kernel(l.kernel);
        let r = run_ndrange(kernel, &args, &l.nd, &mut mem, &Limits::default())
            .unwrap_or_else(|e| panic!("{} at {}: {e}", b.name, level.flag_name()));
        steps += r.steps;
        loads += r.global_loads;
        stores += r.global_stores;
    }
    let mut h = Fnv::new();
    for (buf, &addr) in w.buffers.iter().zip(&addrs) {
        for word in mem.read_u32_slice(addr, buf.words()) {
            h.write(&word.to_le_bytes());
        }
    }
    format!(
        "| {} | {} | {steps} | {loads} | {stores} | {:016x} |\n",
        b.name,
        level.flag_name(),
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
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/interp_counts.md");
    if std::env::var_os("REGOLD").is_some() {
        std::fs::write(golden_path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file missing — run with REGOLD=1 to create it");
    assert_eq!(
        rendered, golden,
        "interpreter counts changed; if intentional, regenerate with REGOLD=1"
    );
}
