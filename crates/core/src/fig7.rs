//! Figure 7 — cycle counts for vecadd and transpose across warp × thread
//! configurations on the 4-core Vortex simulator, plus the §III-C derived
//! degradation percentages.
//!
//! Grid cells are independent simulations: one scheduled job per cell,
//! submitted to the caller's executor like every other sweep.

use crate::check::bench_request;
use fpga_arch::{paper, VortexConfig};
use ocl_suite::Scale;
use repro_sched::{Executor, Flow};
use repro_util::diag::ReproError;
use repro_util::{Json, ToJson};

/// One grid cell.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Cell {
    pub warps: u32,
    pub threads: u32,
    pub cycles: u64,
    /// Cycles normalized to the grid minimum (the paper's presentation).
    pub normalized: f64,
}

impl ToJson for Fig7Cell {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("warps", self.warps.to_json()),
            ("threads", self.threads.to_json()),
            ("cycles", self.cycles.to_json()),
            ("normalized", self.normalized.to_json()),
        ])
    }
}

/// The full grid for one benchmark.
#[derive(Debug, Clone)]
pub struct Fig7Grid {
    pub benchmark: String,
    pub cores: u32,
    pub cells: Vec<Fig7Cell>,
}

impl ToJson for Fig7Grid {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("benchmark", self.benchmark.to_json()),
            ("cores", self.cores.to_json()),
            ("cells", self.cells.to_json()),
        ])
    }
}

impl Fig7Grid {
    pub fn cell(&self, warps: u32, threads: u32) -> Option<&Fig7Cell> {
        self.cells
            .iter()
            .find(|c| c.warps == warps && c.threads == threads)
    }

    /// The best (minimum-cycle) configuration.
    pub fn best(&self) -> &Fig7Cell {
        self.cells
            .iter()
            .min_by_key(|c| c.cycles)
            .expect("nonempty grid")
    }

    /// Percent slowdown of (warps, threads) relative to the best cell.
    pub fn degradation_pct(&self, warps: u32, threads: u32) -> Option<f64> {
        let c = self.cell(warps, threads)?;
        Some((c.normalized - 1.0) * 100.0)
    }
}

/// Run the sweep for `bench_name` over `warps × threads` on `cores` cores,
/// one job per cell on `exec`. The first cell that fails, in grid order,
/// fails the sweep with its typed error.
pub fn fig7_grid(
    exec: &Executor,
    bench_name: &str,
    cores: u32,
    warp_range: &[u32],
    thread_range: &[u32],
    scale: Scale,
) -> Result<Fig7Grid, ReproError> {
    let mut grid: Vec<(u32, u32)> = warp_range
        .iter()
        .flat_map(|&w| thread_range.iter().map(move |&t| (w, t)))
        .collect();
    grid.sort_unstable();
    let jobs = grid
        .iter()
        .map(|&(w, t)| {
            let hw = VortexConfig::new(cores, w, t);
            ocl_suite::instantiate(bench_request(bench_name, Flow::Vortex, scale, hw))
        })
        .collect();
    let mut cells = Vec::with_capacity(grid.len());
    for (&(warps, threads), outcome) in grid.iter().zip(exec.run(jobs)) {
        cells.push(Fig7Cell {
            warps,
            threads,
            cycles: outcome.result?.cycles,
            normalized: 0.0,
        });
    }
    let min = cells.iter().map(|c| c.cycles).min().expect("nonempty") as f64;
    for c in &mut cells {
        c.normalized = c.cycles as f64 / min;
    }
    Ok(Fig7Grid {
        benchmark: bench_name.to_string(),
        cores,
        cells,
    })
}

/// The §III-C prose numbers derived from the two grids, at the points
/// `fpga_arch::paper` publishes.
#[derive(Debug, Clone)]
pub struct Fig7Summary {
    pub vecadd_best: (u32, u32),
    pub transpose_best: (u32, u32),
    /// Vecadd at 8w8t vs its best (paper: ~27% worse).
    pub vecadd_8w8t_pct: f64,
    /// Transpose at 4w4t vs its best (paper: ~44% worse).
    pub transpose_4w4t_pct: f64,
    /// Both at the 8w4t "suboptimal for both" point (paper: 11% / 17%).
    pub vecadd_8w4t_pct: f64,
    pub transpose_8w4t_pct: f64,
}

impl ToJson for Fig7Summary {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("vecadd_best", self.vecadd_best.to_json()),
            ("transpose_best", self.transpose_best.to_json()),
            ("vecadd_8w8t_pct", self.vecadd_8w8t_pct.to_json()),
            ("transpose_4w4t_pct", self.transpose_4w4t_pct.to_json()),
            ("vecadd_8w4t_pct", self.vecadd_8w4t_pct.to_json()),
            ("transpose_8w4t_pct", self.transpose_8w4t_pct.to_json()),
        ])
    }
}

/// Derive the summary at the points `paper` names; a grid without one of
/// them reads NaN there.
pub fn fig7_summary(vecadd: &Fig7Grid, transpose: &Fig7Grid) -> Fig7Summary {
    let slowdown = |g: &Fig7Grid, (w, t)| g.degradation_pct(w, t).unwrap_or(f64::NAN);
    let b1 = vecadd.best();
    let b2 = transpose.best();
    Fig7Summary {
        vecadd_best: (b1.warps, b1.threads),
        transpose_best: (b2.warps, b2.threads),
        vecadd_8w8t_pct: slowdown(vecadd, paper::FIG7_TRANSPOSE_BEST),
        transpose_4w4t_pct: slowdown(transpose, paper::FIG7_VECADD_BEST),
        vecadd_8w4t_pct: slowdown(vecadd, paper::FIG7_BOTH_SUBOPTIMAL),
        transpose_8w4t_pct: slowdown(transpose, paper::FIG7_BOTH_SUBOPTIMAL),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_sched::ExecConfig;

    fn exec() -> Executor {
        Executor::new(ExecConfig::with_workers(1))
    }

    #[test]
    fn small_sweep_produces_normalized_grid() {
        let g = fig7_grid(&exec(), "Vecadd", 1, &[2, 4], &[2, 4], Scale::Test).unwrap();
        assert_eq!(g.cells.len(), 4);
        let min = g.cells.iter().map(|c| c.cycles).min().unwrap();
        assert!(min > 0);
        assert!(g.cells.iter().any(|c| (c.normalized - 1.0).abs() < 1e-9));
        assert!(g.cells.iter().all(|c| c.normalized >= 1.0));
        assert_eq!(g.best().cycles, min);
    }

    #[test]
    fn degradation_is_relative_to_best() {
        let g = fig7_grid(&exec(), "Transpose", 1, &[2, 4], &[2, 4], Scale::Test).unwrap();
        let best = g.best();
        assert_eq!(g.degradation_pct(best.warps, best.threads).unwrap(), 0.0);
    }

    #[test]
    fn failed_cell_is_a_typed_error_not_a_panic() {
        let err = fig7_grid(&exec(), "NoSuchBench", 1, &[2], &[2], Scale::Test).unwrap_err();
        assert_eq!(err.kind(), "Harness");
    }
}
