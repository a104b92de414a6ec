//! `repro opt-report` — what the shared middle end does to one benchmark
//! at every optimization level.
//!
//! For each [`OptLevel`] the report records the fixed-point round count,
//! per-pass rewrite totals, the static instruction count before/after, and
//! the dynamic instruction count of a verified reference-interpreter run at
//! `Scale::Test`. Everything except the wall-clock column is deterministic,
//! so the rendered table is goldenable (`render_opt_report` with
//! `timing: false`).

use crate::report::Table;
use ocl_ir::interp::Limits;
use ocl_ir::passes::{optimize_module, OptLevel};
use ocl_suite::{benchmark, run, Backend, Scale};
use repro_util::{Json, ToJson};

/// Canonical column order for per-pass rewrite counts — pipeline order of
/// the fullest (`Loop`) pipeline.
pub const PASS_COLUMNS: [&str; 7] = [
    "const-fold",
    "copy-prop",
    "cse",
    "licm",
    "strength-reduce",
    "unroll",
    "dce",
];

/// One optimization level's outcome.
#[derive(Debug, Clone)]
pub struct OptReportRow {
    pub level: OptLevel,
    /// Fixed-point rounds (max across the module's kernels).
    pub rounds: usize,
    /// Static instructions before the pipeline, summed over kernels.
    pub insts_before: usize,
    /// Static instructions after the pipeline, summed over kernels.
    pub insts_after: usize,
    /// Rewrites per [`PASS_COLUMNS`] entry; `None` when the pass is not in
    /// this level's pipeline (distinct from "ran and found nothing").
    pub rewrites: Vec<Option<usize>>,
    /// Dynamic instructions of a verified interpreter run at `Scale::Test`.
    pub interp_steps: u64,
    /// Total pass wall-clock (excluded from the goldenable rendering).
    pub pass_secs: f64,
}

/// The full per-level report for one benchmark.
#[derive(Debug, Clone)]
pub struct OptReport {
    pub bench: String,
    pub kernels: Vec<String>,
    pub rows: Vec<OptReportRow>,
}

/// Build the report: compile the benchmark once per level, run the shared
/// middle end, and execute the optimized module on the reference
/// interpreter (which also checks the results).
pub fn opt_report(name: &str) -> Result<OptReport, String> {
    let b = benchmark(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    let mut kernels = Vec::new();
    let mut rows = Vec::new();
    let interp = Backend::Interp {
        limits: Limits::default(),
    };
    let w = (b.workload)(Scale::Test);
    for level in OptLevel::ALL {
        let mut m = ocl_front::compile(b.source).map_err(|e| format!("{}: {e}", b.name))?;
        let report = optimize_module(&mut m, level);
        ocl_ir::verify::verify_module(&m)
            .map_err(|e| format!("{} after {level:?} passes: {e}", b.name))?;
        if kernels.is_empty() {
            kernels = m.kernels.iter().map(|k| k.name.clone()).collect();
        }
        let in_pipeline = |pass: &str| {
            report
                .kernels
                .first()
                .is_some_and(|k| k.passes.iter().any(|p| p.name == pass))
        };
        let steps = run(&interp, b.source, &w, Some(level), None)
            .map_err(|e| e.to_string())?
            .instructions;
        rows.push(OptReportRow {
            level,
            rounds: report.kernels.iter().map(|k| k.rounds).max().unwrap_or(0),
            insts_before: report.kernels.iter().map(|k| k.insts_before).sum(),
            insts_after: report.kernels.iter().map(|k| k.insts_after).sum(),
            rewrites: PASS_COLUMNS
                .iter()
                .map(|&p| in_pipeline(p).then(|| report.rewrites(p)))
                .collect(),
            interp_steps: steps,
            // + 0.0 normalizes the -0.0 that summing an empty pass list
            // yields (f64's Sum identity), which would render as "-0.00".
            pass_secs: report
                .kernels
                .iter()
                .flat_map(|k| &k.passes)
                .map(|p| p.secs)
                .sum::<f64>()
                + 0.0,
        });
    }
    Ok(OptReport {
        bench: b.name.to_string(),
        kernels,
        rows,
    })
}

/// Render as a markdown table. With `timing: false` the wall-clock column
/// is left out and the output is fully deterministic (the golden test
/// relies on this).
pub fn render_opt_report(r: &OptReport, timing: bool) -> String {
    let headers = ["level", "rounds", "static insts"]
        .into_iter()
        .chain(PASS_COLUMNS)
        .chain(["interp steps", "pass ms"]);
    let mut t = Table::new(headers);
    for row in &r.rows {
        let rounds = row.rounds.to_string();
        let insts = format!("{} -> {}", row.insts_before, row.insts_after);
        let mut cells = vec![row.level.flag_name().to_string(), rounds, insts];
        let rewrites = row
            .rewrites
            .iter()
            .map(|c| c.map_or("-".into(), |n| n.to_string()));
        cells.extend(rewrites);
        cells.push(row.interp_steps.to_string());
        cells.push(format!("{:.2}", row.pass_secs * 1e3));
        t.row(cells);
    }
    t.retain_columns(|h| timing || !h.ends_with(" ms"));
    format!(
        "## Optimization report — {} (kernels: {})\n\n{t}",
        r.bench,
        r.kernels.join(", ")
    )
}

impl ToJson for OptReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("bench", self.bench.to_json()),
            (
                "kernels",
                Json::Array(self.kernels.iter().map(|k| k.to_json()).collect()),
            ),
            (
                "levels",
                Json::Array(
                    self.rows
                        .iter()
                        .map(|r| {
                            Json::obj(vec![
                                ("level", r.level.flag_name().to_json()),
                                ("rounds", (r.rounds as u64).to_json()),
                                ("insts_before", (r.insts_before as u64).to_json()),
                                ("insts_after", (r.insts_after as u64).to_json()),
                                (
                                    "rewrites",
                                    Json::Object(
                                        PASS_COLUMNS
                                            .iter()
                                            .zip(&r.rewrites)
                                            .filter_map(|(&p, c)| {
                                                c.map(|n| (p.to_string(), (n as u64).to_json()))
                                            })
                                            .collect(),
                                    ),
                                ),
                                ("interp_steps", r.interp_steps.to_json()),
                                ("pass_secs", r.pass_secs.to_json()),
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

    #[test]
    fn unknown_benchmark_is_an_error() {
        assert!(opt_report("NoSuchBenchmark").is_err());
    }

    #[test]
    fn vecadd_report_is_consistent() {
        let r = opt_report("Vecadd").unwrap();
        assert_eq!(r.rows.len(), OptLevel::ALL.len());
        let none = &r.rows[0];
        assert_eq!(none.level, OptLevel::None);
        assert_eq!(none.rounds, 0);
        assert_eq!(none.insts_before, none.insts_after);
        assert!(none.rewrites.iter().all(Option::is_none));
        // Optimized code never executes more dynamic instructions here.
        for w in r.rows.windows(2) {
            assert!(
                w[1].interp_steps <= w[0].interp_steps,
                "{:?} regressed over {:?}",
                w[1].level,
                w[0].level
            );
        }
        // The rendering is deterministic without timing.
        assert_eq!(render_opt_report(&r, false), render_opt_report(&r, false));
    }
}
