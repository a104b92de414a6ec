//! `repro perf-report` — the perf-regression dashboard.
//!
//! Collects two views of the pipeline in one pass with the metrics
//! registry enabled:
//!
//! 1. **suite** — the fail-soft 28-benchmark sweep on both flows
//!    ([`crate::check_suite`]), with per-benchmark wall times and cycles;
//! 2. **stages** — the registry's histogram series (frontend, per-pass,
//!    HLS synthesis/area/estimate, Vortex codegen/regalloc, launches).
//!
//! The report renders as markdown (deterministic with `timing: false` — the
//! golden test pins that form) and as a self-contained HTML dashboard, and
//! can be compared against a baseline, a previous `perf-report`
//! RunManifest. Comparison separates **deterministic** metrics (simulated
//! cycles — any increase beyond the threshold is a real regression) from
//! **wall-clock** metrics (compared only above a noise floor). `repro
//! perf-report --baseline …` exits nonzero when any tracked metric
//! regresses beyond the threshold.

use crate::check::{check_suite_on, CheckRow};
use crate::manifest::{manifest_benchmarks, RunManifest};
use fpga_arch::VortexConfig;
use ocl_suite::Scale;
use repro_sched::{ExecConfig, Executor};
use repro_util::{metrics, Json, ToJson};

/// Default regression threshold: a tracked metric regresses when
/// `current > baseline * (1 + threshold)`.
pub const DEFAULT_THRESHOLD: f64 = 0.20;

/// Wall-clock spans shorter than this (seconds) are never compared —
/// scheduler noise dominates below it.
pub const WALL_NOISE_FLOOR_SECS: f64 = 0.005;

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
    /// Scheduler worker-pool width the collection ran at — part of the
    /// wall-comparability fingerprint against baselines (wall times from
    /// a 4-worker batch are not comparable to a sequential run's).
    pub workers: usize,
}

/// What to collect. `bench_filter` limits the suite sweep (tests use a
/// small subset).
#[derive(Debug, Clone)]
pub struct PerfOptions {
    pub hw: VortexConfig,
    pub bench_filter: Option<Vec<String>>,
    /// Scheduler worker-pool width (`--workers`); everything the report
    /// measures goes through one executor of this size.
    pub workers: usize,
}

impl Default for PerfOptions {
    fn default() -> Self {
        PerfOptions {
            hw: VortexConfig::new(2, 4, 16),
            bench_filter: None,
            workers: 1,
        }
    }
}

/// Run the collection pass. Enables the metrics registry for its duration
/// (resetting it first so the snapshot describes exactly this run), and
/// disables it again before returning.
pub fn collect_perf(opts: &PerfOptions) -> PerfReport {
    metrics::reset();
    metrics::enable();
    let exec = Executor::new(ExecConfig::with_workers(opts.workers));
    let mut rows = check_suite_on(&exec, Scale::Test, opts.hw);
    if let Some(filter) = &opts.bench_filter {
        rows.retain(|r| filter.iter().any(|f| f == &r.name));
    }
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
    PerfReport {
        rows,
        stages,
        workers: exec.workers(),
    }
}

/// Fill a [`RunManifest`]'s benchmark rows from a collected report: one
/// entry per benchmark per flow.
pub fn fill_manifest(m: &mut RunManifest, r: &PerfReport) {
    for row in &r.rows {
        m.push_bench(
            &row.name,
            "vortex",
            row.vortex.wall_secs,
            row.vortex.cycles(),
            row.vortex.is_ok(),
        );
        m.push_bench(
            &row.name,
            "hls",
            row.hls.wall_secs,
            row.hls.cycles(),
            row.hls.is_ok(),
        );
    }
    for (class, n) in crate::check::check_class_counts(&r.rows) {
        if n > 0 {
            m.failure_classes.push((class.name().to_string(), n as u64));
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// e.g. `cycles/vortex/Vecadd`, `wall/hls/Vecadd`.
    pub metric: String,
    pub baseline: f64,
    pub current: f64,
    /// Deterministic metrics (cycles) regress on any threshold breach;
    /// wall metrics additionally respect the noise floor.
    pub deterministic: bool,
}

impl MetricDelta {
    /// `current / baseline` (`inf` when the baseline is zero).
    pub fn ratio(&self) -> f64 {
        if self.baseline == 0.0 {
            if self.current == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.current / self.baseline
        }
    }

    pub fn regressed(&self, threshold: f64) -> bool {
        self.current > self.baseline * (1.0 + threshold)
    }
}

/// Outcome of comparing a report against a baseline.
#[derive(Debug)]
pub struct Comparison {
    pub threshold: f64,
    /// Every compared metric (regressed or not).
    pub deltas: Vec<MetricDelta>,
    /// The subset beyond the threshold — nonempty means exit nonzero.
    pub regressions: Vec<MetricDelta>,
    /// Comparisons that could not be made, with reasons.
    pub skipped: Vec<String>,
}

/// Compare a collected report against a baseline RunManifest (from
/// `runs/`). Any other document is an error so a typo'd path can never
/// silently "pass".
pub fn compare_to_baseline(
    report: &PerfReport,
    baseline: &Json,
    threshold: f64,
) -> Result<Comparison, String> {
    if baseline.get("schema_version").is_some() {
        Ok(compare_to_manifest(report, baseline, threshold))
    } else {
        Err("baseline is not a RunManifest document".to_string())
    }
}

fn classify(deltas: Vec<MetricDelta>, threshold: f64) -> (Vec<MetricDelta>, Vec<MetricDelta>) {
    let regressions = deltas
        .iter()
        .filter(|d| d.regressed(threshold))
        .cloned()
        .collect();
    (deltas, regressions)
}

/// True when the baseline's host fingerprint (`meta`: os, arch, scheduler
/// workers, build profile) matches this run, i.e. its wall-clock numbers
/// are comparable to ours. Cycles are machine-independent and always
/// compared; a baseline recorded on different hardware, under a different
/// build profile, or with a different worker-pool count contributes only
/// those. Baselines without a `meta` block (or whose meta predates the
/// `workers` field) get cycles-only treatment too.
fn wall_comparable(baseline_meta: Option<&Json>, report: &PerfReport) -> bool {
    let Some(meta) = baseline_meta else {
        return false;
    };
    meta.get("os").and_then(|v| v.as_str()) == Some(std::env::consts::OS)
        && meta.get("arch").and_then(|v| v.as_str()) == Some(std::env::consts::ARCH)
        && meta.get("workers").and_then(|v| v.as_u64()) == Some(report.workers as u64)
        && meta.get("profile").and_then(|v| v.as_str()) == Some(crate::manifest::PROFILE)
}

fn compare_to_manifest(report: &PerfReport, baseline: &Json, threshold: f64) -> Comparison {
    let mut deltas = Vec::new();
    let mut skipped = Vec::new();
    let Some(base_rows) = manifest_benchmarks(baseline) else {
        return Comparison {
            threshold,
            deltas: Vec::new(),
            regressions: Vec::new(),
            skipped: vec!["baseline manifest has no readable benchmark rows".to_string()],
        };
    };
    let lookup = |name: &str, flow: &str| {
        base_rows
            .iter()
            .find(|b| b.name == name && b.flow == flow && b.ok)
    };
    let mut current: Vec<(String, &'static str, Option<u64>, f64, bool)> = Vec::new();
    for row in &report.rows {
        current.push((
            row.name.clone(),
            "vortex",
            row.vortex.cycles(),
            row.vortex.wall_secs,
            row.vortex.is_ok(),
        ));
        current.push((
            row.name.clone(),
            "hls",
            row.hls.cycles(),
            row.hls.wall_secs,
            row.hls.is_ok(),
        ));
    }
    let walls = wall_comparable(baseline.get("meta"), report);
    if !walls {
        skipped.push(
            "wall-clock deltas: baseline host/profile fingerprint differs (cycles still compared)"
                .to_string(),
        );
    }
    for (name, flow, cycles, wall, ok) in &current {
        if !ok {
            continue;
        }
        let Some(base) = lookup(name, flow) else {
            skipped.push(format!("{flow}/{name}: not in baseline"));
            continue;
        };
        if let (Some(c), Some(bc)) = (cycles, base.cycles) {
            deltas.push(MetricDelta {
                metric: format!("cycles/{flow}/{name}"),
                baseline: bc as f64,
                current: *c as f64,
                deterministic: true,
            });
        }
        if walls && base.wall_secs >= WALL_NOISE_FLOOR_SECS && *wall >= 0.0 {
            deltas.push(MetricDelta {
                metric: format!("wall/{flow}/{name}"),
                baseline: base.wall_secs,
                current: *wall,
                deterministic: false,
            });
        }
    }
    // Stage totals, where the baseline snapshot recorded the same series
    // long enough to be above the noise floor.
    if walls {
        if let Some(base_snap) = baseline
            .get("metrics")
            .and_then(metrics::snapshot_from_json)
        {
            for stage in &report.stages {
                let Some(base) = base_snap.histogram(&stage.name) else {
                    continue;
                };
                if base.total >= WALL_NOISE_FLOOR_SECS {
                    deltas.push(MetricDelta {
                        metric: format!("stage/{}", stage.name),
                        baseline: base.total,
                        current: stage.total_secs,
                        deterministic: false,
                    });
                }
            }
        }
    }
    let (deltas, regressions) = classify(deltas, threshold);
    Comparison {
        threshold,
        deltas,
        regressions,
        skipped,
    }
}

fn ms(secs: f64) -> String {
    format!("{:.2}", secs * 1e3)
}

/// Render the report as markdown. With `timing: false` every wall-clock
/// column is omitted and the output is fully deterministic — the golden
/// test pins that form.
pub fn render_perf_markdown(r: &PerfReport, cmp: Option<&Comparison>, timing: bool) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "## Performance report\n");
    let _ = writeln!(s, "### Benchmark sweep (Scale::Test, both flows)\n");
    if timing {
        let _ = writeln!(
            s,
            "| benchmark | vortex cycles | vortex instr | vortex ms | hls cycles | hls ms | status |"
        );
        let _ = writeln!(s, "|---|---|---|---|---|---|---|");
    } else {
        let _ = writeln!(
            s,
            "| benchmark | vortex cycles | vortex instr | hls cycles | status |"
        );
        let _ = writeln!(s, "|---|---|---|---|---|");
    }
    for row in &r.rows {
        let status = {
            let classes = row.failure_classes();
            if classes.is_empty() {
                "ok".to_string()
            } else {
                classes
                    .iter()
                    .map(|c| c.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            }
        };
        let fmt_u = |v: Option<u64>| v.map_or("-".to_string(), |x| x.to_string());
        let v_instr = row.vortex.outcome.as_ref().ok().map(|st| st.instructions);
        if timing {
            let _ = writeln!(
                s,
                "| {} | {} | {} | {} | {} | {} | {} |",
                row.name,
                fmt_u(row.vortex.cycles()),
                fmt_u(v_instr),
                ms(row.vortex.wall_secs),
                fmt_u(row.hls.cycles()),
                ms(row.hls.wall_secs),
                status
            );
        } else {
            let _ = writeln!(
                s,
                "| {} | {} | {} | {} | {} |",
                row.name,
                fmt_u(row.vortex.cycles()),
                fmt_u(v_instr),
                fmt_u(row.hls.cycles()),
                status
            );
        }
    }
    if timing {
        let mut slowest: Vec<&CheckRow> = r.rows.iter().collect();
        slowest.sort_by(|a, b| {
            (b.vortex.wall_secs + b.hls.wall_secs)
                .partial_cmp(&(a.vortex.wall_secs + a.hls.wall_secs))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let _ = writeln!(
            s,
            "\n### Slowest benchmarks (host wall-clock, both flows)\n"
        );
        let _ = writeln!(s, "| benchmark | vortex ms | hls ms | total ms |");
        let _ = writeln!(s, "|---|---|---|---|");
        for row in slowest.iter().take(5) {
            let _ = writeln!(
                s,
                "| {} | {} | {} | {} |",
                row.name,
                ms(row.vortex.wall_secs),
                ms(row.hls.wall_secs),
                ms(row.vortex.wall_secs + row.hls.wall_secs)
            );
        }
    }
    let _ = writeln!(s, "\n### Pipeline stages\n");
    if timing {
        let _ = writeln!(s, "| stage | count | total ms | p50 ms | p95 ms | max ms |");
        let _ = writeln!(s, "|---|---|---|---|---|---|");
    } else {
        let _ = writeln!(s, "| stage | count |");
        let _ = writeln!(s, "|---|---|");
    }
    for st in &r.stages {
        if timing {
            let _ = writeln!(
                s,
                "| {} | {} | {} | {} | {} | {} |",
                st.name,
                st.count,
                ms(st.total_secs),
                ms(st.p50_secs),
                ms(st.p95_secs),
                ms(st.max_secs)
            );
        } else {
            let _ = writeln!(s, "| {} | {} |", st.name, st.count);
        }
    }
    if let Some(cmp) = cmp {
        let _ = writeln!(s, "\n### Baseline comparison (manifest)\n");
        let _ = writeln!(
            s,
            "threshold: {:.0}% — {} metrics compared, {} regressed\n",
            cmp.threshold * 100.0,
            cmp.deltas.len(),
            cmp.regressions.len()
        );
        let _ = writeln!(s, "| metric | baseline | current | ratio | verdict |");
        let _ = writeln!(s, "|---|---|---|---|---|");
        // Regressions first, then the largest movers in either direction.
        let mut sorted: Vec<&MetricDelta> = cmp.deltas.iter().collect();
        sorted.sort_by(|a, b| {
            b.regressed(cmp.threshold)
                .cmp(&a.regressed(cmp.threshold))
                .then(
                    (b.ratio() - 1.0)
                        .abs()
                        .partial_cmp(&(a.ratio() - 1.0).abs())
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
        });
        for d in sorted.iter().take(20) {
            let _ = writeln!(
                s,
                "| {} | {:.4} | {:.4} | {:.2}x | {} |",
                d.metric,
                d.baseline,
                d.current,
                d.ratio(),
                if d.regressed(cmp.threshold) {
                    "REGRESSED"
                } else {
                    "ok"
                }
            );
        }
        if cmp.deltas.len() > 20 {
            let _ = writeln!(s, "\n({} more metrics unchanged)", cmp.deltas.len() - 20);
        }
        for sk in &cmp.skipped {
            let _ = writeln!(s, "\n> skipped: {sk}");
        }
        let _ = writeln!(
            s,
            "\n**{}**",
            if cmp.regressions.is_empty() {
                "No tracked metric regressed beyond the threshold."
            } else {
                "REGRESSION: at least one tracked metric regressed beyond the threshold."
            }
        );
    }
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
    use crate::check::{FlowCheck, FlowStats};

    fn row(name: &str, cycles: u64, wall: f64) -> CheckRow {
        CheckRow {
            name: name.to_string(),
            vortex: FlowCheck {
                outcome: Ok(FlowStats {
                    cycles,
                    instructions: cycles / 2,
                }),
                wall_secs: wall,
            },
            hls: FlowCheck {
                outcome: Ok(FlowStats {
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
            workers: 1,
        }
    }

    /// A manifest whose numbers are `scale`× the synthetic report's.
    fn baseline_manifest(scale: f64) -> Json {
        let r = synthetic_report();
        let mut m = RunManifest::new(
            "perf-report",
            &[],
            crate::manifest::host_meta(ocl_ir::passes::OptLevel::VariableReuse, 1),
        );
        for row in &r.rows {
            m.push_bench(
                &row.name,
                "vortex",
                row.vortex.wall_secs * scale,
                row.vortex.cycles().map(|c| (c as f64 * scale) as u64),
                true,
            );
            m.push_bench(
                &row.name,
                "hls",
                row.hls.wall_secs * scale,
                row.hls.cycles().map(|c| (c as f64 * scale) as u64),
                true,
            );
        }
        Json::parse(&m.to_json().to_pretty()).unwrap()
    }

    #[test]
    fn identical_baseline_has_no_regressions() {
        let r = synthetic_report();
        let cmp = compare_to_baseline(&r, &baseline_manifest(1.0), DEFAULT_THRESHOLD).unwrap();
        assert!(!cmp.deltas.is_empty());
        assert!(cmp.regressions.is_empty(), "{:?}", cmp.regressions);
    }

    #[test]
    fn injected_regression_is_detected() {
        // Baseline numbers at half the current values: every tracked
        // metric now looks 2x slower than the baseline — far beyond 20%.
        let r = synthetic_report();
        let cmp = compare_to_baseline(&r, &baseline_manifest(0.5), DEFAULT_THRESHOLD).unwrap();
        assert!(!cmp.regressions.is_empty());
        assert!(cmp
            .regressions
            .iter()
            .any(|d| d.metric == "cycles/vortex/Vecadd" && d.deterministic));
        let md = render_perf_markdown(&r, Some(&cmp), true);
        assert!(md.contains("REGRESSED"), "{md}");
        assert!(md.contains("REGRESSION: at least one tracked metric"));
    }

    #[test]
    fn faster_current_never_regresses() {
        let r = synthetic_report();
        let cmp = compare_to_baseline(&r, &baseline_manifest(2.0), DEFAULT_THRESHOLD).unwrap();
        assert!(cmp.regressions.is_empty(), "{:?}", cmp.regressions);
        // Deltas were still compared — improvements are visible.
        assert!(cmp.deltas.iter().any(|d| d.ratio() < 0.9));
    }

    #[test]
    fn foreign_host_baseline_contributes_cycles_only() {
        // Same numbers, but recorded on a "different machine": wall-clock
        // deltas must be dropped while cycle deltas survive.
        let r = synthetic_report();
        let mut base = baseline_manifest(0.5);
        if let Json::Object(fields) = &mut base {
            let meta = fields.iter_mut().find(|(k, _)| k == "meta").unwrap();
            if let Json::Object(m) = &mut meta.1 {
                for (k, v) in m.iter_mut() {
                    if k == "workers" {
                        *v = Json::UInt(100_000);
                    }
                }
            }
        }
        let cmp = compare_to_baseline(&r, &base, DEFAULT_THRESHOLD).unwrap();
        assert!(cmp.deltas.iter().all(|d| d.deterministic));
        assert!(cmp.deltas.iter().any(|d| d.metric.starts_with("cycles/")));
        assert!(cmp.skipped.iter().any(|s| s.contains("fingerprint")));
        // The injected 2x cycle regression is still caught.
        assert!(!cmp.regressions.is_empty());
    }

    #[test]
    fn unknown_baseline_schema_is_an_error() {
        let r = synthetic_report();
        let base = Json::parse(r#"{"something": "else"}"#).unwrap();
        assert!(compare_to_baseline(&r, &base, DEFAULT_THRESHOLD).is_err());
    }

    #[test]
    fn deterministic_rendering_has_no_wall_clock() {
        let r = synthetic_report();
        let md = render_perf_markdown(&r, None, false);
        assert!(!md.contains("ms |"), "{md}");
        assert_eq!(md, render_perf_markdown(&r, None, false));
    }
}
