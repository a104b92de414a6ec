//! Quickstart: compile one OpenCL kernel and run it through *both* flows the
//! paper compares — the Vortex soft GPU (cycle-level simulation) and the
//! Intel-HLS-style pipeline (synthesis + pipelined execution model) — then
//! print what each flow reports.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fpga_arch::{Device, VortexConfig};
use ocl_ir::interp::{KernelArg, Memory, NdRange};
use vortex_rt::{Arg, VxSession};
use vortex_sim::SimConfig;

const SRC: &str = r#"
    __kernel void saxpy(__global const float* x, __global float* y, float a) {
        int i = get_global_id(0);
        y[i] = a * x[i] + y[i];
    }
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 1024u32;
    let alpha = 2.0f32;
    let xs: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let ys: Vec<f32> = (0..n).map(|i| (i % 7) as f32).collect();
    let nd = NdRange::d1(n, 16);

    // Shared front end (Figure 2 of the paper): one compile, two back ends.
    let module = ocl_front::compile(SRC)?;
    println!("compiled kernel IR:\n{}", module.kernels[0]);

    // --- Soft-GPU flow (Vortex): binary + cycle-level simulation ---------
    let hw = VortexConfig::new(2, 4, 8);
    let cfg = SimConfig::new(hw);
    let kernel = vortex_rt::compile_for(SRC, "saxpy", &cfg)?;
    println!(
        "vortex binary: {} instructions, {} divergent branches, {} spills",
        kernel.program.len(),
        kernel.divergent_branches,
        kernel.spill_slots
    );
    let mut sess = VxSession::new(cfg, kernel);
    let dx = sess.alloc_f32(&xs)?;
    let dy = sess.alloc_f32(&ys)?;
    let run = sess.launch(&[Arg::Buf(dx), Arg::Buf(dy), Arg::F32(alpha)], &nd)?;
    let vortex_out = sess.read_f32(dy, n as usize)?;
    println!(
        "vortex ({hw}): {} cycles, IPC {:.2}, d$ hit rate {:.0}%",
        run.stats.cycles,
        run.stats.ipc(),
        100.0 * run.stats.dcache_hit_rate()
    );

    // --- HLS flow: synthesize for the MX2100, then pipelined execution ---
    let device = Device::mx2100();
    let synth = hls_flow::synthesize(&module, &device, &Default::default())?;
    println!(
        "hls synthesis: {} (BRAM {:.0}% of {}), est. {:.1} h",
        synth.area, synth.utilization.brams_pct, device.name, synth.hours
    );
    let mut mem = Memory::new(1 << 20);
    let px = mem.alloc_f32(&xs);
    let py = mem.alloc_f32(&ys);
    let hls = hls_flow::execute_ndrange(
        &module.kernels[0],
        &hls_flow::analysis::profile(&module.kernels[0]),
        &[
            KernelArg::Ptr(px),
            KernelArg::Ptr(py),
            KernelArg::F32(alpha),
        ],
        &nd,
        &mut mem,
        &device,
    )?;
    let hls_out = mem.read_f32_slice(py, n as usize);
    println!("hls: {} cycles ({}-bound)", hls.cycles, hls.bound);

    // --- Identical source, identical results (the paper's methodology) ---
    assert_eq!(vortex_out, hls_out, "flows must agree bit-for-bit");
    let want: Vec<f32> = xs.iter().zip(&ys).map(|(x, y)| alpha * x + y).collect();
    assert_eq!(vortex_out, want);
    println!("both flows agree with the host reference on all {n} elements ✓");
    Ok(())
}
