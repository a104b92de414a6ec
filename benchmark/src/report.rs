//! Results: the driver's one-line JSON, the human table, and the
//! all-workloads mode with its `--repeat` self-agreement check.

use std::io::Write;
use std::process::Command;

use repro_util::{Json, ToJson};

use crate::e2e::E2eRun;
use crate::gen::Workload;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::Paths;

/// What one pass of one workload measured: a value for every metric of the
/// pass's table, in table order, and the correctness tallies.
pub struct Measured {
    pub values: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Deviations and other findings worth a line in the report.
    pub notes: Vec<String>,
    /// Sample counts and parameters the numbers carry with them.
    pub info: Vec<String>,
}

impl Measured {
    pub fn from_e2e(run: &E2eRun) -> Measured {
        let values = vec![
            ("setup_s", run.setup_s()),
            ("jobs_per_s", run.jobs_per_s()),
            ("batch_p50_ms", run.batch_p50_ms()),
            ("batch_p90_ms", run.batch_p90_ms()),
            ("sim_cycles_per_job", run.sim_cycles_per_job()),
            ("peak_rss_mb", run.peak_rss_mib),
        ];
        let n = run.batches();
        Measured {
            values,
            attempted: run.attempted,
            failed: run.failed,
            notes: run.notes.clone(),
            info: vec![
                format!(
                    "timed {:.2} s: {} passes, {n} batches ({} beyond p90), {} jobs; \
                     client {:.2} % of wall; timed metrics are the best quartile over passes",
                    run.wall_s,
                    run.passes.len(),
                    n / 10,
                    run.attempted,
                    100.0 * run.client_frac()
                ),
                format!("peak_rss_mb read after {} timed jobs", run.rss_after_jobs),
                format!(
                    "setup_s is the median of {:?} (child start to end of warm-up pass)",
                    run.setup_s
                ),
                format!(
                    "closed loop, 1 client, {} workers, 1 connection",
                    crate::e2e::workers()
                ),
            ],
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The driver's result line.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics: Vec<(&str, Json)> = self
            .values
            .iter()
            .map(|&(name, v)| {
                let v = if v.is_finite() { v } else { 0.0 };
                (
                    name,
                    Json::obj(vec![
                        ("value", v.to_json()),
                        ("unit", unit_of(trace, name).to_json()),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", self.attempted.max(1).to_json()),
            ("failed", self.failed.to_json()),
            ("metrics", Json::obj(metrics)),
        ])
        .to_compact()
    }
}

/// Unit and better-direction of a metric of the pass's table.
fn describe(trace: bool, name: &str) -> (&'static str, Better) {
    let found = if trace {
        PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .map(|m| (m.unit, m.better))
    } else {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .map(|m| (m.unit, m.better))
    };
    found.unwrap_or_else(|| panic!("metric `{name}` is not in the table"))
}

fn unit_of(trace: bool, name: &str) -> &'static str {
    describe(trace, name).0
}

/// `nproc`, rustc and git revision of the run: what a number must carry
/// to be compared with another.
pub fn host_fingerprint(paths: &Paths) -> String {
    let out = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .current_dir(&paths.root)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = out("rustc", &["--version"]).unwrap_or_else(|| "rustc unknown".to_string());
    let rev = match out("git", &["rev-parse", "--short", "HEAD"]) {
        None => "no git checkout".to_string(),
        Some(rev) => match out("git", &["status", "--porcelain"]) {
            Some(s) if s.is_empty() => rev,
            _ => format!("{rev}+dirty"),
        },
    };
    format!("nproc {nproc}; {rustc}; git {rev}")
}

pub fn print_table(w: Workload, trace: bool, m: &Measured, out: &mut dyn Write) {
    let pass = if trace {
        "layer pass"
    } else {
        "end-to-end pass"
    };
    let _ = writeln!(out, "## {} — {pass}", w.name());
    for line in &m.info {
        let _ = writeln!(out, "   {line}");
    }
    for &(name, v) in &m.values {
        let (unit, better) = describe(trace, name);
        let _ = writeln!(
            out,
            "   {name:<36} {v:>16.6} {unit:<12} ({} is better)",
            better.as_str()
        );
    }
    let _ = writeln!(
        out,
        "   outcomes: {} attempted, {} failed",
        m.attempted, m.failed
    );
    for note in &m.notes {
        let _ = writeln!(out, "   ! {note}");
    }
}

/// Every workload, both passes, `repeat` times. Prints every metric by
/// name; with `repeat > 1` prints min/median/max per metric and whether
/// the spread fits the metric's bound, and requires every exact count to
/// repeat. Writes `report.json` (with `"claim": null`: this benchmark
/// defines the baseline and claims no gain) into the scratch directory.
pub fn full(
    paths: &Paths,
    seed: u64,
    seconds: f64,
    repeat: usize,
    mut measure: impl FnMut(Workload, bool) -> Result<Measured, String>,
) -> Result<bool, String> {
    let mut out = std::io::stdout();
    let host = host_fingerprint(paths);
    let _ = writeln!(
        out,
        "# repro benchmark — seed {seed}, {seconds} s per run, {host}"
    );
    let mut correct = true;
    // runs[workload][trace] = one Measured per repeat
    let mut runs: Vec<[Vec<Measured>; 2]> =
        Workload::ALL.iter().map(|_| [vec![], vec![]]).collect();
    for r in 0..repeat {
        if repeat > 1 {
            let _ = writeln!(out, "\n# repeat {} of {repeat}", r + 1);
        }
        for (wi, &w) in Workload::ALL.iter().enumerate() {
            for trace in [false, true] {
                let m = measure(w, trace)?;
                print_table(w, trace, &m, &mut out);
                correct &= m.correct();
                runs[wi][trace as usize].push(m);
            }
        }
    }
    let mut rows = Vec::new();
    if repeat > 1 {
        let _ = writeln!(out, "\n# self-agreement over {repeat} repeats");
    }
    for (wi, &w) in Workload::ALL.iter().enumerate() {
        for trace in [false, true] {
            let set = &runs[wi][trace as usize];
            for (i, &(name, _)) in set[0].values.iter().enumerate() {
                let vals: Vec<f64> = set.iter().map(|m| m.values[i].1).collect();
                let (lo, hi) = vals
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
                let med = median(&vals);
                let bound = END_TO_END
                    .iter()
                    .find(|m| !trace && m.name == name)
                    .map(|m| m.bound);
                let exact = PER_LAYER.iter().any(|m| trace && m.name == name && m.exact)
                    || name == "sim_cycles_per_job";
                let spread = if med != 0.0 {
                    (hi - lo) / med.abs()
                } else {
                    0.0
                };
                let verdict = if exact && lo != hi {
                    correct = false;
                    "COUNT DIFFERS"
                } else if exact {
                    "exact"
                } else {
                    match bound {
                        Some(b) if spread > b => "spread exceeds bound",
                        Some(_) => "within bound",
                        None => "",
                    }
                };
                if repeat > 1 {
                    let _ = writeln!(
                        out,
                        "   {:<13} {name:<36} min {lo:>14.6} med {med:>14.6} max {hi:>14.6} \
                         spread {:>6.2} % {verdict}",
                        w.name(),
                        100.0 * spread
                    );
                }
                rows.push(Json::obj(vec![
                    ("workload", w.name().to_json()),
                    ("metric", name.to_json()),
                    ("unit", unit_of(trace, name).to_json()),
                    ("values", vals.to_json()),
                    ("median", med.to_json()),
                ]));
            }
        }
    }
    let doc = Json::obj(vec![
        ("claim", Json::Null),
        ("seed", seed.to_json()),
        ("run_seconds", seconds.to_json()),
        ("repeats", (repeat as u64).to_json()),
        ("host", host.to_json()),
        ("correct", Json::Bool(correct)),
        ("metrics", Json::Array(rows)),
    ]);
    let path = paths.scratch.join("report.json");
    std::fs::write(&path, doc.to_pretty()).map_err(|e| format!("write {}: {e}", path.display()))?;
    let _ = writeln!(out, "\nwrote {}", path.display());
    Ok(correct)
}
