//! Pins the ablations EXPERIMENTS.md cites, as deterministic modeled cycle
//! counts (host wall-clock lives in `benchmark/`):
//! * LSU style (burst-coalesced vs `__pipelined_load`) — the §III-B
//!   area/performance trade;
//! * divergence lowering cost — SPLIT/JOIN cycles vs an equivalent
//!   branch-free (select-based) kernel, the §IV-A challenge ❸;
//! * D-cache size sensitivity of the cycle simulator, on a 4-core machine.
//!
//! The two Vortex-side ablations run at the suite-wide middle-end level
//! (`reuse`) and at the loop tier.
//!
//! Regenerate after an intentional change with
//! `REGOLD=1 cargo test --test ablations`.

use fpga_gpu_repro::arch::{Device, VortexConfig};
use fpga_gpu_repro::ir::interp::{KernelArg, Memory, NdRange};
use fpga_gpu_repro::ir::passes::OptLevel;
use fpga_gpu_repro::suite::{benchmark, run_vortex_at, Scale};
use fpga_gpu_repro::vrt::{compile_for_at, Arg, VxSession};
use fpga_gpu_repro::vsim::{CacheConfig, SimConfig};
use std::fmt::Write;

const LEVELS: [OptLevel; 2] = [OptLevel::VariableReuse, OptLevel::Loop];

const BURST: &str = r#"
    __kernel void k(__global const float* a, __global float* o) {
        int i = get_global_id(0);
        int j = (i * 17) % 512;
        o[i] = a[j];
    }
"#;
const PIPED: &str = r#"
    __kernel void k(__global const float* a, __global float* o) {
        int i = get_global_id(0);
        int j = (i * 17) % 512;
        o[i] = __pipelined_load(a + j);
    }
"#;

/// HLS cycles for a kernel via the pipelined-execution model.
fn hls_cycles(src: &str, n: u32) -> u64 {
    let m = fpga_gpu_repro::front::compile(src).unwrap();
    let k = m.expect_kernel("k");
    let mut mem = Memory::new(1 << 20);
    let pa = mem.alloc_f32(&vec![1.0; 512]);
    let po = mem.alloc(n * 4);
    fpga_gpu_repro::hls::execute_ndrange(
        k,
        &[KernelArg::Ptr(pa), KernelArg::Ptr(po)],
        &NdRange::d1(n, 16),
        &mut mem,
        &Device::mx2100(),
    )
    .unwrap()
    .cycles
}

const DIVERGENT: &str = r#"
    __kernel void k(__global const int* a, __global int* o) {
        int i = get_global_id(0);
        if (a[i] % 2 == 0) { o[i] = a[i] * 3; } else { o[i] = a[i] - 7; }
    }
"#;
const SELECTED: &str = r#"
    __kernel void k(__global const int* a, __global int* o) {
        int i = get_global_id(0);
        o[i] = (a[i] % 2 == 0) ? (a[i] * 3) : (a[i] - 7);
    }
"#;

fn vortex_cycles(src: &str, cfg: &SimConfig, level: OptLevel) -> u64 {
    let n = 1024u32;
    let compiled = compile_for_at(src, "k", cfg, level).unwrap();
    let mut sess = VxSession::new(cfg.clone(), compiled);
    let data: Vec<i32> = (0..n as i32).collect();
    let da = sess.alloc_i32(&data).unwrap();
    let dout = sess.alloc(n * 4).unwrap();
    let r = sess
        .launch(&[Arg::Buf(da), Arg::Buf(dout)], &NdRange::d1(n, 16))
        .unwrap();
    r.stats.cycles
}

fn transpose_cycles(dcache_kib: u32, level: OptLevel) -> u64 {
    let mut cfg = SimConfig::new(VortexConfig::new(4, 8, 8));
    cfg.dcache = CacheConfig {
        sets: dcache_kib * 1024 / (4 * 64),
        ways: 4,
        line_bytes: 64,
    };
    let b = benchmark("Transpose").unwrap();
    run_vortex_at(&b, Scale::Test, &cfg, level).unwrap().cycles
}

fn render() -> String {
    let mut out = String::from("# Ablations (modeled cycles)\n\n");
    out.push_str("## LSU style (HLS model, strided loads, 4096 items)\n\n");
    out.push_str("| burst-coalesced | `__pipelined_load` |\n|---|---|\n");
    writeln!(
        out,
        "| {} | {} |",
        hls_cycles(BURST, 4096),
        hls_cycles(PIPED, 4096)
    )
    .unwrap();
    out.push_str("\n## Divergence lowering (2c4w8t, 1024 items)\n\n");
    out.push_str("| opt | SPLIT/JOIN | select |\n|---|---|---|\n");
    let cfg = SimConfig::new(VortexConfig::new(2, 4, 8));
    for level in LEVELS {
        writeln!(
            out,
            "| {} | {} | {} |",
            level.flag_name(),
            vortex_cycles(DIVERGENT, &cfg, level),
            vortex_cycles(SELECTED, &cfg, level)
        )
        .unwrap();
    }
    out.push_str("\n## D-cache size (Transpose on 4c8w8t, test scale)\n\n");
    out.push_str("| opt | 1 KiB | 4 KiB | 16 KiB |\n|---|---|---|---|\n");
    for level in LEVELS {
        writeln!(
            out,
            "| {} | {} | {} | {} |",
            level.flag_name(),
            transpose_cycles(1, level),
            transpose_cycles(4, level),
            transpose_cycles(16, level)
        )
        .unwrap();
    }
    out
}

#[test]
fn ablations_match_golden() {
    let rendered = render();
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/ablations.md");
    if std::env::var_os("REGOLD").is_some() {
        std::fs::write(golden_path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file missing — run with REGOLD=1 to create it");
    assert_eq!(
        rendered, golden,
        "ablation cycle counts changed; if intentional, regenerate with REGOLD=1"
    );
}
