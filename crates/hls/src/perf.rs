//! NDRange pipelined-execution model.
//!
//! The AOC compiler executes multi-work-item kernels by streaming work items
//! through a deeply pipelined datapath (§II-B, "NDRange iterative work item
//! issue"). We model that as:
//!
//! * functional results from the shared reference interpreter (identical
//!   semantics to the soft-GPU flow by construction);
//! * cycle estimate `depth + max(compute, memory, serialization)` where
//!   - compute = dynamic ops / datapath ILP (one item enters per II),
//!   - memory = dynamic bytes moved / device bandwidth,
//!   - serialization = pipelined-load round trips on computed patterns (the
//!     §III-B performance cost of the O2 optimization).

use crate::analysis::{AccessPattern, KernelProfile};
use fpga_arch::Device;
use ocl_ir::interp::{run_ndrange, ExecResult, InterpError, KernelArg, Limits, Memory, NdRange};
use ocl_ir::{Function, LoadHint};

/// Result of an HLS execution: functional output lives in the caller's
/// [`Memory`]; this carries the timing estimate and counters.
#[derive(Debug, Clone)]
pub struct HlsRun {
    /// Estimated kernel cycles at the fabric clock.
    pub cycles: u64,
    /// Interpreter result (dynamic counts, printf output).
    pub exec: ExecResult,
    /// Which bound dominated: "compute", "memory" or "pipelined-load".
    pub bound: &'static str,
}

/// Datapath issue width (scalarized ops retired per cycle once the pipeline
/// is full).
const ILP: u64 = 6;
/// Pipeline depth (fill/drain overhead).
const DEPTH: u64 = 240;
/// Extra round-trip cycles per dynamic pipelined load on a non-consecutive
/// pattern (§III-B: "area efficiency at the expense of performance in
/// nonconsecutive access patterns").
const PIPELINED_PENALTY: u64 = 12;

/// Execute `f`, whose static profile is `p` ([`crate::analysis::profile`]),
/// over `nd` against `mem`, returning the timing model output. The profile
/// is the caller's so that a kernel launched many times is analysed once.
pub fn execute_ndrange(
    f: &Function,
    p: &KernelProfile,
    args: &[KernelArg],
    nd: &NdRange,
    mem: &mut Memory,
    device: &Device,
) -> Result<HlsRun, InterpError> {
    let exec = repro_util::metrics::time("hls.execute", || {
        run_ndrange(f, args, nd, mem, &Limits::default())
    })?;
    Ok(estimate(p, nd, exec, device))
}

/// Pure timing model, separated for testability.
pub fn estimate(p: &KernelProfile, nd: &NdRange, exec: ExecResult, device: &Device) -> HlsRun {
    repro_util::metrics::time("hls.estimate", || estimate_inner(p, nd, exec, device))
}

fn estimate_inner(p: &KernelProfile, nd: &NdRange, exec: ExecResult, device: &Device) -> HlsRun {
    let items = nd.total_items();
    let compute = exec.steps / ILP + items; // one II per item minimum
    let bytes = (exec.global_loads + exec.global_stores) * 4;
    let bw = device.memory.peak_bytes_per_cycle().max(1);
    let memory = bytes / bw + (device.memory.latency_cycles as u64);
    // Dynamic pipelined loads on computed patterns serialize.
    let piped_computed = p
        .load_sites
        .iter()
        .filter(|s| s.hint == LoadHint::Pipelined && s.pattern == AccessPattern::Computed)
        .count() as u64;
    let static_loads = (p.load_sites.len() as u64).max(1);
    let dyn_per_site = exec.global_loads / static_loads;
    let serialization = piped_computed * dyn_per_site * PIPELINED_PENALTY;
    let (bound, dominant) = [
        ("compute", compute),
        ("memory", memory),
        ("pipelined-load", serialization),
    ]
    .into_iter()
    .max_by_key(|(_, v)| *v)
    .expect("nonempty");
    HlsRun {
        cycles: DEPTH + dominant,
        exec,
        bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::profile;
    use fpga_arch::Device;

    fn run_src(src: &str, n: u32) -> (HlsRun, Memory, u32) {
        let m = ocl_front::compile(src).unwrap();
        let k = m.expect_kernel("k");
        let mut mem = Memory::new(1 << 20);
        let input: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let pa = mem.alloc_f32(&input);
        let po = mem.alloc(n * 4);
        let r = execute_ndrange(
            k,
            &profile(k),
            &[KernelArg::Ptr(pa), KernelArg::Ptr(po)],
            &NdRange::d1(n, 16),
            &mut mem,
            &Device::mx2100(),
        )
        .unwrap();
        (r, mem, po)
    }

    const COPY: &str = "__kernel void k(__global const float* a, __global float* o) {
        int i = get_global_id(0);
        o[i] = a[i] * 2.0f;
    }";

    #[test]
    fn functional_results_match_reference() {
        let (_, mem, po) = run_src(COPY, 128);
        let out = mem.read_f32_slice(po, 128);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 2.0 * i as f32);
        }
    }

    #[test]
    fn cycles_scale_with_items() {
        let (small, _, _) = run_src(COPY, 64);
        let (large, _, _) = run_src(COPY, 4096);
        assert!(
            large.cycles > small.cycles * 8,
            "{} vs {}",
            large.cycles,
            small.cycles
        );
    }

    #[test]
    fn pipelined_computed_load_is_slower() {
        let burst = "__kernel void k(__global const float* a, __global float* o) {
            int i = get_global_id(0);
            int j = i * 17 % 64;
            o[i] = a[j];
        }";
        let piped = "__kernel void k(__global const float* a, __global float* o) {
            int i = get_global_id(0);
            int j = i * 17 % 64;
            o[i] = __pipelined_load(a + j);
        }";
        let (rb, _, _) = run_src(burst, 1024);
        let (rp, _, _) = run_src(piped, 1024);
        assert!(
            rp.cycles > rb.cycles,
            "pipelined {} must be slower than burst {}",
            rp.cycles,
            rb.cycles
        );
        assert_eq!(rp.bound, "pipelined-load");
    }

    #[test]
    fn hbm_beats_ddr_on_streaming() {
        let m = ocl_front::compile(COPY).unwrap();
        let k = m.expect_kernel("k");
        let n = 1 << 16;
        let mut cycles = Vec::new();
        for dev in [Device::mx2100(), Device::sx2800()] {
            let mut mem = Memory::new(1 << 20);
            let input: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let pa = mem.alloc_f32(&input);
            let po = mem.alloc(n * 4);
            let r = execute_ndrange(
                k,
                &profile(k),
                &[KernelArg::Ptr(pa), KernelArg::Ptr(po)],
                &NdRange::d1(n, 16),
                &mut mem,
                &dev,
            )
            .unwrap();
            cycles.push(r.cycles);
        }
        // Streaming at this size is compute-bound on HBM but the DDR board
        // must never be faster.
        assert!(
            cycles[0] <= cycles[1],
            "hbm {} ddr {}",
            cycles[0],
            cycles[1]
        );
    }
}
