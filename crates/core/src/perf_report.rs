//! `repro perf-report` — the pipeline's suite and stage tables.
//!
//! Collects two views of the pipeline in one pass with the metrics
//! registry enabled:
//!
//! 1. **suite** — the fail-soft 28-benchmark sweep on both flows
//!    ([`crate::check_suite_on`]), with per-benchmark wall times and cycles;
//! 2. **stages** — the registry's histogram series (frontend, per-pass,
//!    HLS synthesis/area/estimate, Vortex codegen/regalloc, launches).
//!
//! The report renders as markdown (deterministic with `timing: false` — the
//! golden test pins that form) and as `perf_report.json`. Host speed is
//! judged by the benchmark in `benchmark/`, not here.

use crate::check::{check_suite_on, CheckRow};
use crate::report::Table;
use fpga_arch::VortexConfig;
use ocl_suite::Scale;
use repro_sched::Executor;
use repro_util::{metrics, Json, ToJson};

/// One histogram series from the metrics registry, flattened for rendering.
#[derive(Debug, Clone)]
pub struct StagePerf {
    pub name: String,
    pub count: u64,
    pub total_secs: f64,
    pub p50_secs: f64,
    pub p95_secs: f64,
    pub max_secs: f64,
}

/// Everything `repro perf-report` measures in one run.
#[derive(Debug)]
pub struct PerfReport {
    /// Fail-soft both-flow sweep (at `Scale::Test`).
    pub rows: Vec<CheckRow>,
    pub stages: Vec<StagePerf>,
}

/// Run the collection pass on `exec`'s pool with the simulated machine
/// `hw`. Enables the metrics registry for its duration (resetting it first
/// so the snapshot describes exactly this run), and disables it again
/// before returning.
pub fn collect_perf(exec: &Executor, hw: VortexConfig) -> PerfReport {
    metrics::reset();
    metrics::enable();
    let rows = check_suite_on(exec, Scale::Test, hw);
    let snap = metrics::snapshot();
    metrics::disable();
    let stages = snap
        .histograms
        .iter()
        .map(|(name, h)| StagePerf {
            name: name.clone(),
            count: h.count,
            total_secs: h.total,
            p50_secs: h.p50,
            p95_secs: h.p95,
            max_secs: h.max,
        })
        .collect();
    PerfReport { rows, stages }
}

fn ms(secs: f64) -> String {
    format!("{:.2}", secs * 1e3)
}

/// Render the report as markdown. With `timing: false` every wall-clock
/// column (and the slowest-benchmarks table) is left out and the output is
/// fully deterministic — the golden test pins that form.
pub fn render_perf_markdown(r: &PerfReport, timing: bool) -> String {
    let keep = |h: &str| timing || !h.ends_with(" ms");
    let mut sweep = Table::new([
        "benchmark",
        "vortex cycles",
        "vortex instr",
        "vortex ms",
        "hls cycles",
        "hls ms",
        "status",
    ]);
    for row in &r.rows {
        let classes: Vec<&str> = row.failure_classes().iter().map(|c| c.name()).collect();
        let status = if classes.is_empty() {
            "ok".to_string()
        } else {
            classes.join(", ")
        };
        let fmt_u = |v: Option<u64>| v.map_or("-".to_string(), |x| x.to_string());
        let v_instr = row.vortex.outcome.as_ref().ok().map(|st| st.instructions);
        sweep.row([
            row.name.clone(),
            fmt_u(row.vortex.cycles()),
            fmt_u(v_instr),
            ms(row.vortex.wall_secs),
            fmt_u(row.hls.cycles()),
            ms(row.hls.wall_secs),
            status,
        ]);
    }
    sweep.retain_columns(keep);
    let mut s = format!(
        "## Performance report\n\n### Benchmark sweep (Scale::Test, both flows)\n\n{sweep}"
    );
    if timing {
        let mut slowest: Vec<&CheckRow> = r.rows.iter().collect();
        slowest.sort_by(|a, b| {
            (b.vortex.wall_secs + b.hls.wall_secs)
                .partial_cmp(&(a.vortex.wall_secs + a.hls.wall_secs))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut t = Table::new(["benchmark", "vortex ms", "hls ms", "total ms"]);
        for row in slowest.iter().take(5) {
            t.row([
                row.name.clone(),
                ms(row.vortex.wall_secs),
                ms(row.hls.wall_secs),
                ms(row.vortex.wall_secs + row.hls.wall_secs),
            ]);
        }
        s.push_str(&format!(
            "\n### Slowest benchmarks (host wall-clock, both flows)\n\n{t}"
        ));
    }
    let mut stages = Table::new(["stage", "count", "total ms", "p50 ms", "p95 ms", "max ms"]);
    for st in &r.stages {
        stages.row([
            st.name.clone(),
            st.count.to_string(),
            ms(st.total_secs),
            ms(st.p50_secs),
            ms(st.p95_secs),
            ms(st.max_secs),
        ]);
    }
    stages.retain_columns(keep);
    s.push_str(&format!("\n### Pipeline stages\n\n{stages}"));
    s
}

impl ToJson for PerfReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "rows",
                Json::Array(self.rows.iter().map(|r| r.to_json()).collect()),
            ),
            (
                "stages",
                Json::Array(
                    self.stages
                        .iter()
                        .map(|st| {
                            Json::obj(vec![
                                ("name", st.name.to_json()),
                                ("count", st.count.to_json()),
                                ("total_secs", st.total_secs.to_json()),
                                ("p50_secs", st.p50_secs.to_json()),
                                ("p95_secs", st.p95_secs.to_json()),
                                ("max_secs", st.max_secs.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::FlowCheck;
    use repro_sched::JobStats;

    fn row(name: &str, cycles: u64, wall: f64) -> CheckRow {
        CheckRow {
            name: name.to_string(),
            vortex: FlowCheck {
                outcome: Ok(JobStats {
                    cycles,
                    instructions: cycles / 2,
                }),
                wall_secs: wall,
            },
            hls: FlowCheck {
                outcome: Ok(JobStats {
                    cycles: cycles * 3,
                    instructions: cycles,
                }),
                wall_secs: wall / 2.0,
            },
        }
    }

    fn synthetic_report() -> PerfReport {
        PerfReport {
            rows: vec![row("Vecadd", 1000, 0.1), row("Transpose", 2000, 0.2)],
            stages: vec![StagePerf {
                name: "frontend.parse".to_string(),
                count: 4,
                total_secs: 0.04,
                p50_secs: 0.01,
                p95_secs: 0.02,
                max_secs: 0.02,
            }],
        }
    }

    #[test]
    fn deterministic_rendering_has_no_wall_clock() {
        let r = synthetic_report();
        let md = render_perf_markdown(&r, false);
        assert!(!md.contains("ms |"), "{md}");
        assert_eq!(md, render_perf_markdown(&r, false));
    }
}
