//! `repro check` — the fail-soft coverage sweep.
//!
//! Runs all 28 benchmarks through both flows with every robustness layer
//! engaged: the typed [`ReproError`] taxonomy, the simulator watchdog
//! (cycle + instruction budgets, structured deadlock reports), and
//! per-benchmark panic isolation. It is a *health check*: every benchmark
//! gets a row no matter how its neighbours fail, and every failure carries
//! a [`FailureClass`] so CI can distinguish an expected synthesis rejection
//! from a hang or a panic in our own stack. The same sweep is the source of
//! the paper's Table I ([`crate::coverage_table`]).
//!
//! Each row also records per-flow wall-clock and — for the Vortex flow —
//! how much of the watchdog budget the run consumed; [`fill_manifest`]
//! copies the rows into the invocation's RunManifest for `repro check` and
//! `repro perf-report`.

use crate::manifest::RunManifest;
use crate::report::Table;
use fpga_arch::VortexConfig;
use ocl_suite::{all_benchmarks, FailureClass, ReproError, Scale};
use repro_sched::{ExecConfig, Executor, Flow, JobRequest, JobStats, Payload};
use repro_util::{Json, ToJson};

/// Watchdog budgets for the sweep. `Scale::Test` benchmarks finish in well
/// under a million cycles; these ceilings are generous enough to never trip
/// on a healthy kernel while still bounding a runaway one to seconds.
/// These are the scheduler-wide defaults — every job submitted without
/// explicit budgets runs under exactly these ceilings.
pub const CHECK_MAX_CYCLES: u64 = repro_sched::DEFAULT_MAX_CYCLES;
pub const CHECK_MAX_INSTRUCTIONS: u64 = repro_sched::DEFAULT_MAX_INSTRUCTIONS;

/// One flow's outcome plus its host-side wall-clock.
#[derive(Debug, Clone)]
pub struct FlowCheck {
    /// The counters of a successful run — what the budget was spent on.
    pub outcome: Result<JobStats, ReproError>,
    /// Host seconds the whole flow took (compile + run + verify), measured
    /// around the panic-isolation boundary so failures are timed too.
    pub wall_secs: f64,
}

impl FlowCheck {
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }

    /// Simulated/modeled cycles if the flow succeeded.
    pub fn cycles(&self) -> Option<u64> {
        self.outcome.as_ref().ok().map(|s| s.cycles)
    }
}

/// One benchmark's fail-soft outcome on both flows.
#[derive(Debug, Clone)]
pub struct CheckRow {
    pub name: String,
    /// Vortex flow: simulated counters, or the classified failure.
    pub vortex: FlowCheck,
    /// HLS flow: modeled counters, or the classified failure (synthesis
    /// rejections land here as [`ReproError::Synthesis`]).
    pub hls: FlowCheck,
}

impl CheckRow {
    /// Classes present in this row's failures (0, 1, or 2 entries).
    pub fn failure_classes(&self) -> Vec<FailureClass> {
        [&self.vortex, &self.hls]
            .into_iter()
            .filter_map(|r| r.outcome.as_ref().err().map(|e| e.class()))
            .collect()
    }

    /// True if either flow failed with a class CI treats as fatal.
    pub fn has_hard_failure(&self) -> bool {
        self.failure_classes()
            .iter()
            .any(|c| matches!(c, FailureClass::Hang | FailureClass::Panic))
    }
}

/// `used / limit` as a fraction, clamped to [0, 1].
fn budget_frac(used: u64, limit: u64) -> f64 {
    if limit == 0 {
        0.0
    } else {
        (used as f64 / limit as f64).min(1.0)
    }
}

fn outcome_json(r: &FlowCheck, budgets: Option<(u64, u64)>) -> Json {
    let mut fields: Vec<(String, Json)> = Vec::new();
    match &r.outcome {
        Ok(stats) => {
            fields.push(("ok".to_string(), Json::Bool(true)));
            fields.push(("cycles".to_string(), stats.cycles.to_json()));
            fields.push(("instructions".to_string(), stats.instructions.to_json()));
            if let Some((max_cycles, max_instructions)) = budgets {
                fields.push((
                    "budget".to_string(),
                    Json::obj(vec![
                        ("max_cycles", max_cycles.to_json()),
                        ("max_instructions", max_instructions.to_json()),
                        (
                            "cycles_frac",
                            budget_frac(stats.cycles, max_cycles).to_json(),
                        ),
                        (
                            "instructions_frac",
                            budget_frac(stats.instructions, max_instructions).to_json(),
                        ),
                    ]),
                ));
            }
        }
        Err(e) => {
            fields.push(("ok".to_string(), Json::Bool(false)));
            if let Json::Object(rest) = e.to_json() {
                fields.extend(rest);
            }
        }
    }
    fields.push(("wall_secs".to_string(), r.wall_secs.to_json()));
    Json::Object(fields)
}

impl ToJson for CheckRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            (
                "vortex",
                outcome_json(
                    &self.vortex,
                    Some((CHECK_MAX_CYCLES, CHECK_MAX_INSTRUCTIONS)),
                ),
            ),
            ("hls", outcome_json(&self.hls, None)),
        ])
    }
}

/// A suite-benchmark request at `scale` on the simulated machine `hw`, with
/// the default budgets and opt level.
pub(crate) fn bench_request(name: &str, flow: Flow, scale: Scale, hw: VortexConfig) -> JobRequest {
    let mut req = JobRequest::bench(name, flow);
    req.payload = Payload::Bench {
        name: name.to_string(),
        paper_scale: matches!(scale, Scale::Paper),
    };
    req.cores = hw.cores;
    req.warps = hw.warps;
    req.threads = hw.threads;
    req
}

/// The 56 requests of one sweep — each benchmark on both flows, with the
/// check budgets and the simulated machine `hw`. Job ids encode the batch
/// position so serve-side logs stay attributable.
pub fn check_requests(scale: Scale, hw: VortexConfig) -> Vec<JobRequest> {
    all_benchmarks()
        .iter()
        .flat_map(|b| {
            [Flow::Vortex, Flow::Hls]
                .into_iter()
                .map(|flow| bench_request(b.name, flow, scale, hw))
        })
        .enumerate()
        .map(|(i, mut req)| {
            req.id = i as u64;
            req
        })
        .collect()
}

/// Run the whole suite fail-soft on both flows and collect one row per
/// benchmark. A benchmark that faults — or panics — cannot cost any other
/// benchmark its row. All jobs go through `exec`'s worker pool; with one
/// worker the rows are produced exactly as the old sequential sweep did,
/// and the simulator's determinism makes the counters identical at any
/// pool width.
pub fn check_suite_on(exec: &Executor, scale: Scale, hw: VortexConfig) -> Vec<CheckRow> {
    let jobs = check_requests(scale, hw)
        .into_iter()
        .map(ocl_suite::instantiate)
        .collect();
    let outcomes = exec.run(jobs);
    outcomes
        .chunks(2)
        .map(|pair| {
            let to_flow = |oc: &repro_sched::JobOutcome| FlowCheck {
                outcome: oc.result.clone(),
                wall_secs: oc.wall_secs,
            };
            let name = pair[0]
                .label
                .split('/')
                .next()
                .unwrap_or_default()
                .to_string();
            CheckRow {
                name,
                vortex: to_flow(&pair[0]),
                hls: to_flow(&pair[1]),
            }
        })
        .collect()
}

/// [`check_suite_on`] with a private single-worker executor — the
/// sequential-equivalent form every existing caller and test uses.
pub fn check_suite(scale: Scale, hw: VortexConfig) -> Vec<CheckRow> {
    check_suite_on(&Executor::new(ExecConfig::with_workers(1)), scale, hw)
}

/// True if any row carries a `Hang` or `Panic` classification — the CI
/// failure condition for the `repro check` smoke step.
pub fn check_has_hard_failure(rows: &[CheckRow]) -> bool {
    rows.iter().any(CheckRow::has_hard_failure)
}

/// Per-class failure counts over both flows, in report column order.
pub fn check_class_counts(rows: &[CheckRow]) -> Vec<(FailureClass, usize)> {
    FailureClass::all()
        .into_iter()
        .map(|c| {
            let n = rows
                .iter()
                .flat_map(CheckRow::failure_classes)
                .filter(|&rc| rc == c)
                .count();
            (c, n)
        })
        .collect()
}

/// Record a sweep in a [`RunManifest`]: one benchmark entry per row per
/// flow, and every failure class that occurred.
pub fn fill_manifest(m: &mut RunManifest, rows: &[CheckRow]) {
    for row in rows {
        for (flow, r) in [("vortex", &row.vortex), ("hls", &row.hls)] {
            m.push_bench(&row.name, flow, r.wall_secs, r.cycles(), r.is_ok());
        }
    }
    for (class, n) in check_class_counts(rows) {
        if n > 0 {
            m.failure_classes.push((class.name().to_string(), n as u64));
        }
    }
}

fn cell(r: &FlowCheck) -> String {
    match &r.outcome {
        Ok(stats) => format!("O ({} cyc)", stats.cycles),
        Err(e) => format!("✗ {}", e.kind()),
    }
}

/// Render the Table-I-style markdown coverage report, then one row of
/// failure-class counts.
pub fn render_check(rows: &[CheckRow]) -> String {
    let mut t = Table::new(["Benchmark", "Vortex", "HLS", "Failure class", "Detail"]);
    for r in rows {
        let classes: Vec<&str> = r.failure_classes().iter().map(|c| c.name()).collect();
        let detail = [&r.vortex, &r.hls]
            .into_iter()
            .filter_map(|x| x.outcome.as_ref().err().map(|e| e.to_string()))
            .collect::<Vec<_>>()
            .join("; ");
        t.row([
            r.name.clone(),
            cell(&r.vortex),
            cell(&r.hls),
            classes.join(", "),
            detail,
        ]);
    }
    let counts = check_class_counts(rows);
    let mut totals = Table::new(counts.iter().map(|(c, _)| c.to_string()));
    totals.row(counts.iter().map(|(_, n)| n));
    format!("{t}\n{totals}")
}

/// The whole report as one JSON document (rows + class counts + verdict).
pub fn check_json(rows: &[CheckRow]) -> Json {
    Json::obj(vec![
        ("rows", rows.to_json()),
        (
            "failure_counts",
            Json::obj(
                check_class_counts(rows)
                    .into_iter()
                    .map(|(c, n)| (c.name(), (n as u64).to_json()))
                    .collect(),
            ),
        ),
        ("hard_failure", Json::Bool(check_has_hard_failure(rows))),
    ])
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The one whole-suite sweep of this test binary, shared by the check
    /// report's test and Table I's ([`crate::coverage`]), which is built
    /// from it.
    pub(crate) fn suite_sweep() -> &'static [CheckRow] {
        static ROWS: OnceLock<Vec<CheckRow>> = OnceLock::new();
        ROWS.get_or_init(|| check_suite(Scale::Test, VortexConfig::new(2, 4, 16)))
    }

    #[test]
    fn check_covers_all_benchmarks_fail_soft() {
        let rows = suite_sweep();
        assert_eq!(rows.len(), 28);
        // The healthy suite: Vortex runs everything, HLS rejects the
        // paper's six — all classified Synthesis, none Hang or Panic.
        for r in rows {
            assert!(r.vortex.is_ok(), "{}: {:?}", r.name, r.vortex.outcome);
            assert!(r.vortex.wall_secs >= 0.0 && r.hls.wall_secs >= 0.0);
        }
        let counts = check_class_counts(rows);
        let get = |class: FailureClass| {
            counts
                .iter()
                .find(|(c, _)| *c == class)
                .map(|(_, n)| *n)
                .unwrap()
        };
        assert_eq!(get(FailureClass::Synthesis), 6);
        assert_eq!(get(FailureClass::Hang), 0);
        assert_eq!(get(FailureClass::Panic), 0);
        assert!(!check_has_hard_failure(rows));
        // The report renders a row per benchmark plus header and summary.
        let md = render_check(rows);
        assert_eq!(md.matches("| O (").count(), 28 + 22);
        let j = check_json(rows);
        assert_eq!(j.get("hard_failure").and_then(|v| v.as_bool()), Some(false));
        // Every successful Vortex row reports its budget consumption, and
        // a healthy run never gets near the watchdog ceiling.
        let rows_j = j.get("rows").and_then(|v| v.as_array()).unwrap();
        for row in rows_j {
            let v = row.get("vortex").unwrap();
            assert!(v.get("wall_secs").and_then(|x| x.as_f64()).is_some());
            if v.get("ok").and_then(|x| x.as_bool()) == Some(true) {
                let budget = v.get("budget").unwrap();
                let frac = budget.get("cycles_frac").and_then(|x| x.as_f64()).unwrap();
                assert!((0.0..0.5).contains(&frac), "cycles_frac {frac}");
                assert_eq!(
                    budget.get("max_cycles").and_then(|x| x.as_u64()),
                    Some(CHECK_MAX_CYCLES)
                );
            }
        }
    }
}
