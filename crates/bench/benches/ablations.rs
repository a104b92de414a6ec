//! Ablations for the design choices DESIGN.md calls out, as deterministic
//! modeled cycle counts (host wall-clock lives in `benchmark/`):
//! * LSU style (burst-coalesced vs `__pipelined_load`) — the §III-B
//!   area/performance trade;
//! * divergence lowering cost — SPLIT/JOIN cycles vs an equivalent
//!   branch-free (select-based) kernel, the §IV-A challenge ❸;
//! * D-cache size sensitivity of the cycle simulator.

use fpga_arch::{Device, VortexConfig};
use ocl_ir::interp::{KernelArg, Memory, NdRange};
use vortex_sim::{CacheConfig, SimConfig};

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
    let m = ocl_front::compile(src).unwrap();
    let k = m.expect_kernel("k");
    let mut mem = Memory::new(1 << 20);
    let pa = mem.alloc_f32(&vec![1.0; 512]);
    let po = mem.alloc(n * 4);
    hls_flow::execute_ndrange(
        k,
        &[KernelArg::Ptr(pa), KernelArg::Ptr(po)],
        &NdRange::d1(n, 16),
        &mut mem,
        &Device::mx2100(),
    )
    .unwrap()
    .cycles
}

fn lsu_style() {
    let (cb, cp) = (hls_cycles(BURST, 4096), hls_cycles(PIPED, 4096));
    eprintln!("ablation/lsu_style modeled kernel cycles: burst={cb} pipelined={cp}");
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

fn vortex_cycles(src: &str, cfg: &SimConfig, level: ocl_ir::passes::OptLevel) -> u64 {
    let n = 1024u32;
    let compiled = vortex_rt::compile_for_at(src, "k", cfg, level).unwrap();
    let mut sess = vortex_rt::VxSession::new(cfg.clone(), compiled);
    let data: Vec<i32> = (0..n as i32).collect();
    let da = sess.alloc_i32(&data).unwrap();
    let dout = sess.alloc(n * 4).unwrap();
    let r = sess
        .launch(
            &[vortex_rt::Arg::Buf(da), vortex_rt::Arg::Buf(dout)],
            &NdRange::d1(n, 16),
        )
        .unwrap();
    r.stats.cycles
}

fn divergence_lowering(level: ocl_ir::passes::OptLevel) {
    let cfg = SimConfig::new(VortexConfig::new(2, 4, 8));
    let (cd, cs) = (
        vortex_cycles(DIVERGENT, &cfg, level),
        vortex_cycles(SELECTED, &cfg, level),
    );
    eprintln!(
        "ablation/divergence simulated cycles: split/join={cd} ternary={cs} \
         (SPLIT/JOIN overhead the paper's §IV-A challenge 3 targets)"
    );
}

fn dcache_sensitivity(level: ocl_ir::passes::OptLevel) {
    for kb in [1u32, 4, 16] {
        let mut cfg = SimConfig::new(VortexConfig::new(4, 8, 8));
        cfg.dcache = CacheConfig {
            sets: kb * 1024 / (4 * 64),
            ways: 4,
            line_bytes: 64,
        };
        let b = ocl_suite::benchmark("Transpose").unwrap();
        let cycles = ocl_suite::run_vortex_at(&b, ocl_suite::Scale::Test, &cfg, level)
            .unwrap()
            .cycles;
        eprintln!("ablation/dcache_size simulated cycles: transpose at {kb} KiB = {cycles}");
    }
}

fn main() {
    // `--opt none|basic|reuse|loop` selects the middle-end level for the
    // Vortex-side ablations (default: the suite-wide level), so the loop
    // tier's simulator impact is one flag away.
    let args: Vec<String> = std::env::args().collect();
    let level = match args.iter().position(|a| a == "--opt") {
        None => ocl_suite::DEFAULT_OPT,
        Some(i) => args
            .get(i + 1)
            .and_then(|s| ocl_ir::passes::OptLevel::parse(s))
            .unwrap_or_else(|| {
                eprintln!("--opt expects one of: none, basic, reuse, loop");
                std::process::exit(2);
            }),
    };
    eprintln!("ablations at middle-end level `{}`", level.flag_name());
    lsu_style();
    divergence_lowering(level);
    dcache_sensitivity(level);
}
