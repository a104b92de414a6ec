//! The paper's published numbers, as data: every value the reproduction is
//! compared against, each with its source and the bound the tests hold the
//! models to. Reports print these beside the models' numbers, and the
//! workspace tests hold EXPERIMENTS.md and the benchmark's expectation table
//! to them. Calibration constants (the HLS cost tables, device capacities,
//! the synthesis-hours fit) compare nothing and stay with their models.

use crate::{ResourceVector, VortexConfig};
use std::fmt;

/// Table I: the suite's size, and how many benchmarks each flow runs.
pub const TABLE1_BENCHMARKS: usize = 28;
pub const TABLE1_VORTEX_PASSES: usize = 28;
pub const TABLE1_HLS_PASSES: usize = 22;

/// Table I's "Reason to Fail" for a design over the board's M20K budget.
pub const NOT_ENOUGH_BRAM: &str = "Not enough BRAM";
/// Table I's "Reason to Fail" for 32-bit atomics on the HBM2 board (§III-A).
pub const ATOMICS: &str = "Atomics";

/// Table I: the benchmarks the Intel SDK cannot synthesize, in table order.
/// Held exactly: these six fail with these reasons, and no other fails.
pub const TABLE1_HLS_FAILURES: [(&str, &str); 6] = [
    ("Lbm", NOT_ENOUGH_BRAM),
    ("Backprop", NOT_ENOUGH_BRAM),
    ("B+tree", NOT_ENOUGH_BRAM),
    ("Hybridsort", ATOMICS),
    ("Dwd2d", NOT_ENOUGH_BRAM),
    ("LUD", NOT_ENOUGH_BRAM),
];

/// §IV-B: hours of the largest successful synthesis run.
pub const SYNTH_HOURS_LARGEST: f64 = 10.4;
/// §IV-B's shape, as bounds on the modeled hours: a success takes more
/// than the first, a failure surfaces in less than the second.
pub const SYNTH_HOURS_SUCCESS_MIN: f64 = 1.0;
pub const SYNTH_HOURS_FAILURE_MAX: f64 = 2.5;

/// One published row of an area table, under the label `repro` prints.
#[derive(Debug, Clone, Copy)]
pub struct AreaRow {
    pub label: &'static str,
    pub area: ResourceVector,
}

const fn row(label: &'static str, aluts: u64, ffs: u64, brams: u64, dsps: u64) -> AreaRow {
    AreaRow {
        label,
        area: ResourceVector::new(aluts, ffs, brams, dsps),
    }
}

const fn point([c, w, t]: [u32; 3], [a, f, b, d]: [u64; 4]) -> (VortexConfig, ResourceVector) {
    (VortexConfig::new(c, w, t), ResourceVector::new(a, f, b, d))
}

/// Table II: backprop under §III-B's cumulative source optimizations.
pub const TABLE2: [AreaRow; 3] = [
    row("Original code", 1_000_388, 2_158_459, 12_898, 17),
    row("Variable reuse (O1)", 826_993, 1_587_827, 9_882, 9),
    row("Pipelined load (O2)", 451_395, 1_051_467, 5_694, 11),
];
/// §III-B: Table II's BRAMs in percent of the MX2100, which the device
/// model reproduces to the rounded percent.
pub const TABLE2_BRAM_PCT: [u64; 3] = [188, 144, 83];
/// Relative bound on the HLS model's Table II BRAMs.
pub const TABLE2_BRAM_TOL: f64 = 0.25;

/// Table III: HLS area of four suite benchmarks.
pub const TABLE3: [AreaRow; 4] = [
    row("Vecadd", 83_792, 263_632, 1_065, 1),
    row("Matmul", 250_218, 415_893, 2_696, 5),
    row("Gauss", 537_571, 1_174_446, 6_384, 10),
    row("BFS", 256_690, 1_172_664, 5_892, 6),
];
/// Relative bound on the HLS model's Table III BRAMs.
pub const TABLE3_BRAM_TOL: f64 = 0.30;
/// Relative bound on the Vecadd row's ALUTs, FFs and BRAMs; its DSPs are
/// exact.
pub const TABLE3_VECADD_TOL: f64 = 0.15;

/// Table IV: Vortex area at five (cores, warps, threads) points. The area
/// model matches BRAMs and DSPs exactly, ALUTs and FFs within
/// [`TABLE4_ALUT_FF_TOL`].
pub const TABLE4: [(VortexConfig, ResourceVector); 5] = [
    point([2, 4, 16], [332_143, 459_349, 1_275, 896]),
    point([2, 8, 16], [336_568, 459_353, 1_299, 896]),
    point([2, 16, 16], [341_134, 478_735, 1_299, 896]),
    point([4, 8, 16], [617_748, 793_976, 2_235, 1_792]),
    point([4, 16, 16], [626_688, 827_757, 2_235, 1_792]),
];
/// Relative bound on the area model's Table IV ALUTs and FFs.
pub const TABLE4_ALUT_FF_TOL: f64 = 0.01;

/// Fig. 7: each benchmark's fastest (warps, threads) on the 4-core machine.
/// Fig. 7 and §III-C are compared, not bounded: EXPERIMENTS.md says where
/// the simulator's optima differ.
pub const FIG7_VECADD_BEST: (u32, u32) = (4, 4);
pub const FIG7_TRANSPOSE_BEST: (u32, u32) = (8, 8);
/// §III-C: each benchmark's slowdown at the other's optimum.
pub const FIG7_VECADD_AT_TRANSPOSE_BEST: Pct = Pct::About(27);
pub const FIG7_TRANSPOSE_AT_VECADD_BEST: Pct = Pct::About(44);
/// §III-C: the point "suboptimal for both", and each one's slowdown there.
pub const FIG7_BOTH_SUBOPTIMAL: (u32, u32) = (8, 4);
pub const FIG7_VECADD_AT_BOTH_SUBOPTIMAL: Pct = Pct::Exact(11);
pub const FIG7_TRANSPOSE_AT_BOTH_SUBOPTIMAL: Pct = Pct::Exact(17);

/// A published percent change, `About` where the paper writes "~".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pct {
    Exact(i32),
    About(i32),
}

/// `+11%`, or `~+27%` for an approximate value.
impl fmt::Display for Pct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pct::Exact(v) => write!(f, "{v:+}%"),
            Pct::About(v) => write!(f, "~{v:+}%"),
        }
    }
}

/// `ours (paper: theirs)`: how every report sets a published value beside
/// the model's.
pub fn beside(ours: impl fmt::Display, paper: impl fmt::Display) -> String {
    format!("{ours} (paper: {paper})")
}

/// Relative error of a model count against the published one.
pub fn rel_err(model: u64, paper: u64) -> f64 {
    (model as f64 - paper as f64).abs() / paper as f64
}
