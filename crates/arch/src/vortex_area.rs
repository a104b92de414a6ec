//! Vortex synthesis-area model, calibrated to the paper's Table IV.
//!
//! The model decomposes the design into an uncore (AFU shell, memory
//! interconnect, L2) plus per-core costs that scale with the warp count `W`
//! and thread count `T`, following the microarchitectural scaling the paper
//! describes in §III-C: more threads widen the register file and the
//! ALU/FPU lanes; more warps grow the warp table.
//!
//! Calibration (the five published (C, W, T) points, `paper::TABLE4`):
//! * DSPs and BRAMs reproduce Table IV **exactly**;
//! * ALUTs and FFs are within 0.6% (the FF data is slightly non-linear in W;
//!   we keep a piecewise-linear warp-table term). Residuals are reported in
//!   EXPERIMENTS.md.

use crate::device::ResourceVector;

/// A Vortex hardware configuration: cores, warps per core, threads per warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VortexConfig {
    pub cores: u32,
    pub warps: u32,
    pub threads: u32,
}

impl VortexConfig {
    pub const fn new(cores: u32, warps: u32, threads: u32) -> Self {
        VortexConfig {
            cores,
            warps,
            threads,
        }
    }
}

impl std::fmt::Display for VortexConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}c{}w{}t", self.cores, self.warps, self.threads)
    }
}

// Uncore constants (shell + interconnect + L2).
const UNCORE_ALUT: u64 = 55_387;
const UNCORE_FF: u64 = 124_731;
const UNCORE_BRAM: u64 = 363;

/// Estimated synthesis area of a Vortex configuration.
pub fn vortex_area(cfg: &VortexConfig) -> ResourceVector {
    let c = cfg.cores as u64;
    let w = cfg.warps as u64;
    let t = cfg.threads as u64;

    // Per-core ALUTs: fixed pipeline + warp scheduler (per warp) + issue
    // lanes (per thread).
    let core_alut = 24_910 + 367 * w + 7_000 * t;
    // Per-core FFs: pipeline registers + per-thread lane registers + warp
    // table growth beyond the 8-entry base allocation.
    let core_ff = 39_310 + 8_000 * t + 1_211 * w.saturating_sub(8);
    // Per-core BRAMs: caches + register-file banks (grow with T) + IPDOM /
    // warp-table RAM (one step when W exceeds 4).
    let core_bram = 404 + 13 * t.div_ceil(4) + if w >= 8 { 12 } else { 0 };
    // DSPs: one FPU lane per thread, 28 DSP slices each.
    let dsps = 28 * c * t;

    ResourceVector {
        aluts: UNCORE_ALUT + c * core_alut,
        ffs: UNCORE_FF + c * core_ff,
        brams: UNCORE_BRAM + c * core_bram,
        dsps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::{self, TABLE4};

    #[test]
    fn brams_and_dsps_exact_on_all_table4_points() {
        for (cfg, want) in TABLE4 {
            let got = vortex_area(&cfg);
            assert_eq!(got.brams, want.brams, "BRAM mismatch for {cfg}");
            assert_eq!(got.dsps, want.dsps, "DSP mismatch for {cfg}");
        }
    }

    #[test]
    fn aluts_and_ffs_within_one_percent() {
        for (cfg, want) in TABLE4 {
            let got = vortex_area(&cfg);
            let within = |got, want| paper::rel_err(got, want) < paper::TABLE4_ALUT_FF_TOL;
            assert!(
                within(got.aluts, want.aluts),
                "{cfg}: ALUT {} vs paper {}",
                got.aluts,
                want.aluts
            );
            assert!(
                within(got.ffs, want.ffs),
                "{cfg}: FF {} vs paper {}",
                got.ffs,
                want.ffs
            );
        }
    }

    #[test]
    fn area_is_monotone_in_each_dimension() {
        let base = VortexConfig::new(2, 8, 8);
        let a0 = vortex_area(&base);
        for bigger in [
            VortexConfig::new(4, 8, 8),
            VortexConfig::new(2, 16, 8),
            VortexConfig::new(2, 8, 16),
        ] {
            let a1 = vortex_area(&bigger);
            assert!(a1.aluts >= a0.aluts, "{bigger}");
            assert!(a1.ffs >= a0.ffs, "{bigger}");
            assert!(a1.brams >= a0.brams, "{bigger}");
            assert!(a1.dsps >= a0.dsps, "{bigger}");
        }
    }

    #[test]
    fn table4_configs_fit_the_sx2800() {
        let dev = crate::Device::sx2800();
        for (cfg, _) in TABLE4 {
            let a = vortex_area(&cfg);
            assert!(a.fits_in(&dev.capacity), "{cfg} should fit the SX2800: {a}");
        }
    }
}
