//! Optimization-level invariants over the real benchmark suite, plus the
//! golden `repro opt-report` rendering for backprop. Regenerate the golden
//! after an intentional middle-end change with
//! `REGOLD=1 cargo test --test opt_levels`.

use ocl_ir::passes::OptLevel;
use ocl_suite::{benchmark, run_on_interp, Scale};

/// Every suite benchmark computes correct results on the reference
/// interpreter at every optimization level (the workload's result check
/// runs inside `run_on_interp`), and higher levels never execute more
/// dynamic instructions than `None`.
#[test]
fn every_benchmark_correct_at_every_level() {
    for b in ocl_suite::all_benchmarks() {
        let base = run_on_interp(&b, Scale::Test, OptLevel::None)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        for level in [OptLevel::Basic, OptLevel::VariableReuse, OptLevel::Loop] {
            let r = run_on_interp(&b, Scale::Test, level)
                .unwrap_or_else(|e| panic!("{} at {level:?}: {e}", b.name));
            assert!(
                r.instructions <= base.instructions,
                "{} at {level:?}: {} dynamic insts vs {} unoptimized",
                b.name,
                r.instructions,
                base.instructions
            );
        }
    }
}

/// The loop tier actually pays for itself: on at least three loop-heavy
/// benchmarks `Loop` strictly reduces the dynamic instruction count over
/// `VariableReuse` (and regresses it nowhere — checked against the full
/// suite above).
#[test]
fn loop_tier_strictly_reduces_dynamic_count() {
    let candidates = [
        "Matmul", "Sgemm", "Kmeans", "Gaussian", "Stencil", "Backprop", "Cutcp",
    ];
    let mut reduced = Vec::new();
    for name in candidates {
        let b = benchmark(name).unwrap();
        let reuse = run_on_interp(&b, Scale::Test, OptLevel::VariableReuse)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let l = run_on_interp(&b, Scale::Test, OptLevel::Loop)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            l.instructions <= reuse.instructions,
            "{name}: loop tier regressed {} -> {}",
            reuse.instructions,
            l.instructions
        );
        if l.instructions < reuse.instructions {
            reduced.push((name, reuse.instructions, l.instructions));
        }
    }
    assert!(
        reduced.len() >= 3,
        "loop tier should strictly reduce >= 3 benchmarks, got {reduced:?}"
    );
}

/// The Vortex flow agrees with the interpreter at the loop tier on the
/// benchmarks the tier rewrites most (full-flow differential at `Loop`).
#[test]
fn loop_tier_vortex_matches_reference() {
    use fpga_gpu_repro::arch::VortexConfig;
    use vortex_sim::SimConfig;
    let cfg = SimConfig::new(VortexConfig::new(1, 8, 8));
    for name in ["Matmul", "Sgemm", "Kmeans"] {
        let b = benchmark(name).unwrap();
        // run_vortex_at verifies the workload's expected results itself.
        ocl_suite::run_vortex_at(&b, Scale::Test, &cfg, OptLevel::Loop)
            .unwrap_or_else(|e| panic!("{name} on vortex at Loop: {e}"));
    }
}

/// A conversion the folder evaluates at compile time stores the word the
/// execution computes: `(int)NaN` is `i32::MAX` (RISC-V `fcvt.w.s`) whether
/// or not the middle end folded it.
#[test]
fn folded_float_to_int_of_nan_matches_the_execution() {
    use ocl_ir::interp::{run_ndrange, KernelArg, Limits, Memory, NdRange};
    let src = "__kernel void k(__global int* out) { out[0] = (int)(0.0f / 0.0f); }";
    for level in OptLevel::ALL {
        let module = fpga_gpu_repro::cache::global()
            .optimize(src, level)
            .unwrap();
        let mut mem = Memory::new(64);
        let out = mem.alloc(4);
        let args = [KernelArg::Ptr(out)];
        let nd = NdRange::d1(1, 1);
        run_ndrange(
            module.expect_kernel("k"),
            &args,
            &nd,
            &mut mem,
            &Limits::default(),
        )
        .unwrap();
        assert_eq!(mem.read_i32_slice(out, 1), vec![i32::MAX], "at {level:?}");
    }
}

/// Golden rendering of `repro opt-report backprop` (without the timing
/// column, which is the only nondeterministic part).
#[test]
fn backprop_opt_report_matches_golden() {
    let r = repro_core::opt_report("Backprop").unwrap();
    let rendered = repro_core::render_opt_report(&r, false);
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/backprop_opt_report.md"
    );
    if std::env::var_os("REGOLD").is_some() {
        std::fs::write(golden_path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file missing — run with REGOLD=1 to create it");
    assert_eq!(
        rendered, golden,
        "opt-report output changed; if intentional, regenerate with REGOLD=1"
    );
}
