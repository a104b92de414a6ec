//! Cross-crate integration tests: the paper's full methodology end-to-end.
//! Identical OpenCL source goes through the shared front end into (a) the
//! reference interpreter, (b) the Vortex soft-GPU flow, and (c) the HLS
//! flow, and all three must agree; coverage and area artifacts must match
//! the paper's tables.

use fpga_gpu_repro::arch::{Device, VortexConfig};
use fpga_gpu_repro::hls;
use fpga_gpu_repro::ir::interp::{run_ndrange, KernelArg, Limits, Memory, NdRange};
use fpga_gpu_repro::sched::{ExecConfig, Executor};
use fpga_gpu_repro::suite::{self, Scale};
use fpga_gpu_repro::vrt::{Arg, VxSession};
use fpga_gpu_repro::vsim::SimConfig;

/// Three-way agreement on a kernel with divergence, loops, and f32 math.
#[test]
fn three_backends_agree_bit_for_bit() {
    let src = r#"
        __kernel void mix(__global const float* a, __global float* o, int n) {
            int i = get_global_id(0);
            float acc = 0.0f;
            for (int j = 0; j < i % 5 + 1; j++) {
                acc += sqrt(fabs(a[(i + j) % n]));
            }
            if (acc > 2.0f) acc = acc * 0.5f; else acc = acc + 1.0f;
            o[i] = acc;
        }
    "#;
    let n = 128u32;
    let nd = NdRange::d1(n, 16);
    let input: Vec<f32> = (0..n).map(|i| (i as f32 - 64.0) * 0.37).collect();

    // (a) interpreter.
    let module = ocl_front::compile(src).unwrap();
    let k = module.expect_kernel("mix");
    let mut mem_i = Memory::new(1 << 20);
    let pa = mem_i.alloc_f32(&input);
    let po = mem_i.alloc(n * 4);
    run_ndrange(
        k,
        &[
            KernelArg::Ptr(pa),
            KernelArg::Ptr(po),
            KernelArg::I32(n as i32),
        ],
        &nd,
        &mut mem_i,
        &Limits::default(),
    )
    .unwrap();
    let ref_out = mem_i.read_u32_slice(po, n as usize);

    // (b) Vortex.
    let cfg = SimConfig::new(VortexConfig::new(2, 4, 8));
    let compiled = fpga_gpu_repro::vrt::compile_for(src, "mix", &cfg).unwrap();
    let mut sess = VxSession::new(cfg, compiled);
    let da = sess.alloc_f32(&input).unwrap();
    let dout = sess.alloc(n * 4).unwrap();
    sess.launch(&[Arg::Buf(da), Arg::Buf(dout), Arg::I32(n as i32)], &nd)
        .unwrap();
    let vx_out = sess.read_u32(dout, n as usize).unwrap();
    assert_eq!(vx_out, ref_out, "vortex != interpreter");

    // (c) HLS.
    let mut mem_h = Memory::new(1 << 20);
    let ha = mem_h.alloc_f32(&input);
    let ho = mem_h.alloc(n * 4);
    hls::execute_ndrange(
        k,
        &hls::analysis::profile(k),
        &[
            KernelArg::Ptr(ha),
            KernelArg::Ptr(ho),
            KernelArg::I32(n as i32),
        ],
        &nd,
        &mut mem_h,
        &Device::mx2100(),
    )
    .unwrap();
    let hls_out = mem_h.read_u32_slice(ho, n as usize);
    assert_eq!(hls_out, ref_out, "hls != interpreter");
}

/// IR optimization passes preserve semantics through the whole Vortex flow.
#[test]
fn optimized_ir_produces_identical_vortex_results() {
    let src = r#"
        __kernel void poly(__global const float* x, __global float* y) {
            int i = get_global_id(0);
            float v = x[i];
            float a = v * 2.0f + 1.0f;
            float b = v * 2.0f + 1.0f;
            y[i] = a * b + x[i] * x[i];
        }
    "#;
    let n = 64u32;
    let input: Vec<f32> = (0..n).map(|i| i as f32 * 0.25).collect();
    let nd = NdRange::d1(n, 8);
    let run = |module: &ocl_ir::Module| {
        let cfg = SimConfig::new(VortexConfig::new(1, 2, 4));
        let compiled = fpga_gpu_repro::vcc::compile_kernel(
            module.expect_kernel("poly"),
            &fpga_gpu_repro::vcc::CodegenOpts { threads: 4 },
        )
        .unwrap();
        let mut sess = VxSession::new(cfg, compiled);
        let dx = sess.alloc_f32(&input).unwrap();
        let dy = sess.alloc(n * 4).unwrap();
        sess.launch(&[Arg::Buf(dx), Arg::Buf(dy)], &nd).unwrap();
        (
            sess.read_u32(dy, n as usize).unwrap(),
            // Rough code-size proxy to confirm the passes did something.
            module.kernels[0].num_insts(),
        )
    };
    let baseline = ocl_front::compile(src).unwrap();
    let mut optimized = baseline.clone();
    let stats =
        ocl_ir::passes::optimize_module(&mut optimized, ocl_ir::passes::OptLevel::VariableReuse);
    assert!(
        stats.rewrites("cse") > 0,
        "CSE should fire on the duplicate expr"
    );
    let (out_base, size_base) = run(&baseline);
    let (out_opt, size_opt) = run(&optimized);
    assert_eq!(out_base, out_opt, "optimization changed results");
    assert!(
        size_opt < size_base,
        "optimization should shrink the kernel"
    );
}

/// The binary encoding round-trips through a real compiled kernel.
#[test]
fn compiled_kernel_encodes_and_decodes() {
    let src = "__kernel void k(__global int* o) { o[get_global_id(0)] = 7; }";
    let cfg = SimConfig::new(VortexConfig::new(1, 1, 2));
    let compiled = fpga_gpu_repro::vrt::compile_for(src, "k", &cfg).unwrap();
    use fpga_gpu_repro::visa::encode::{decode, encode};
    for i in &compiled.program.instrs {
        assert_eq!(decode(encode(i).unwrap()), Ok(*i));
    }
}

/// Suite-level: one barrier benchmark and one atomics benchmark through the
/// full Vortex flow, plus Table I spot checks on the HLS side.
#[test]
fn representative_suite_benchmarks_roundtrip() {
    let on = |backend: suite::Backend, b: &suite::Benchmark| {
        let w = (b.workload)(Scale::Test);
        suite::run(&backend, b.source, &w, Some(suite::DEFAULT_OPT), None)
    };
    let cfg = SimConfig::new(VortexConfig::new(2, 4, 16));
    for name in ["Dotproduct", "Hybridsort", "Backprop"] {
        let b = suite::benchmark(name).unwrap();
        on(suite::Backend::Vortex { cfg: cfg.clone() }, &b)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    // HLS: hybridsort fails on atomics (MX2100), runs fine on the DDR4
    // board the paper puts Vortex on.
    let b = suite::benchmark("Hybridsort").unwrap();
    let hls = |device| suite::Backend::Hls { device };
    let on_hbm = on(hls(Device::mx2100()), &b);
    assert!(matches!(on_hbm, Err(suite::ReproError::Synthesis { .. })));
    let on_ddr = on(hls(Device::sx2800()), &b);
    assert!(on_ddr.is_ok());
}

/// The per-experiment index of DESIGN.md: every generator produces data.
#[test]
fn all_experiment_generators_run() {
    let t2 = fpga_gpu_repro::repro::table2();
    assert_eq!(t2.len(), 3);
    let t3 = fpga_gpu_repro::repro::table3();
    assert_eq!(t3.len(), 4);
    let t4 = fpga_gpu_repro::repro::table4();
    assert_eq!(t4.len(), 5);
    let exec = Executor::new(ExecConfig::with_workers(1));
    let g = fpga_gpu_repro::repro::fig7_grid(&exec, "Vecadd", 1, &[2, 4], &[4], Scale::Test);
    assert_eq!(g.unwrap().cells.len(), 2);
}

/// The `{4,8,16}²` corner of Figure 7 at test scale: simulated cycle counts
/// are a pure function of (kernel, machine shape), so any change here is a
/// timing-model change and must be deliberate.
#[test]
fn fig7_subgrid_cycles_are_pinned() {
    let steps = [4, 8, 16];
    let exec = Executor::new(ExecConfig::with_workers(2));
    for (name, want) in [
        ("Vecadd", [701, 521, 482, 950, 761, 882, 1334, 1418, 1708]),
        (
            "Transpose",
            [1608, 1208, 1062, 1879, 1429, 1271, 2809, 1869, 2494],
        ),
    ] {
        let g =
            fpga_gpu_repro::repro::fig7_grid(&exec, name, 4, &steps, &steps, Scale::Test).unwrap();
        // Cells come back sorted by (warps, threads).
        let got: Vec<u64> = g.cells.iter().map(|c| c.cycles).collect();
        assert_eq!(got, want, "{name} 4c{{4,8,16}}w{{4,8,16}}t");
    }
}
