//! `repro chaos` — seeded fault-injection sweeps asserting the fail-soft
//! contract end to end.
//!
//! Each scenario arms a [`repro_util::fault::FaultPlan`] against one subsystem
//! (cache disk tier, scheduler workers, simulator memory, serve input) and
//! drives a real workload through the same code paths production uses.
//! Every scenario is run **twice at the same seed** and must satisfy:
//!
//! 1. **Survival** — the service returns; injected panics, torn writes and
//!    bit flips never escape as process aborts.
//! 2. **Typed classification** — every failed job carries an expected
//!    [`repro_util::diag::ReproError`] kind; nothing degenerates into a panic or
//!    an unclassified error.
//! 3. **Accounting** — every submitted job gets exactly one response
//!    (`jobs == ok + failed`), shed and rejected lines included.
//! 4. **No cross-job contamination** — jobs the plan did not touch produce
//!    bit-identical cycles/instructions to a no-fault reference run.
//! 5. **Determinism** — the two runs produce byte-identical normalized
//!    outcome sets (volatile fields — wall times, worker ids — stripped).
//!
//! The sweep renders as a markdown table plus a `chaos.json` artifact and
//! exits non-zero if any invariant is violated, which is what makes it a
//! CI gate rather than a demo.

use std::path::PathBuf;

use ocl_ir::passes::OptLevel;
use repro_cache::{Cache, CacheConfig};
use repro_sched::{ExecConfig, Executor};
use repro_util::fault::{clear, install, report, FaultPlan, FaultPoint};
use repro_util::{fnv1a, Json, ToJson};

use crate::report::Table;
use crate::serve::{serve_lines, ServeOptions, ServeSummary};

/// Default sweep seed; `repro chaos --seed N` overrides it.
pub const CHAOS_SEED: u64 = 0xC0FFEE;

/// One named fault scenario.
pub struct Scenario {
    pub name: &'static str,
    /// Which subsystem the plan attacks: `cache`, `sched`, `sim`, `serve`.
    pub subsystem: &'static str,
    /// One-line description for the report table.
    pub what: &'static str,
    run: fn(u64) -> RunReport,
}

/// What one execution of a scenario observed.
struct RunReport {
    /// Normalized, volatile-field-free transcript of everything
    /// observable. Two runs at the same seed must match byte for byte.
    signature: String,
    jobs: u64,
    ok: u64,
    failed: u64,
    rejected: u64,
    /// Total fault-point fires recorded by the engine during the run.
    fired: u64,
    violations: Vec<String>,
}

/// The verdict for one scenario after both runs.
pub struct ScenarioReport {
    pub name: &'static str,
    pub subsystem: &'static str,
    pub what: &'static str,
    pub jobs: u64,
    pub ok: u64,
    pub failed: u64,
    pub rejected: u64,
    pub fired: u64,
    pub deterministic: bool,
    pub violations: Vec<String>,
}

impl ScenarioReport {
    pub fn passed(&self) -> bool {
        self.deterministic && self.violations.is_empty()
    }
}

/// Strip the fields that legitimately vary between runs (wall times,
/// worker assignment) so the rest can be compared byte for byte.
fn normalize(j: &Json) -> Json {
    match j {
        Json::Object(fields) => Json::Object(
            fields
                .iter()
                .filter(|(k, _)| !matches!(k.as_str(), "wall_secs" | "jobs_per_sec" | "worker"))
                .map(|(k, v)| (k.clone(), normalize(v)))
                .collect(),
        ),
        Json::Array(items) => Json::Array(items.iter().map(normalize).collect()),
        other => other.clone(),
    }
}

/// Drive one NDJSON script through a fresh executor, returning the summary
/// and the parsed response lines.
fn run_script(input: &str, opts: &ServeOptions, workers: usize) -> (ServeSummary, Vec<Json>) {
    let exec = Executor::new(ExecConfig::with_workers(workers));
    let mut out = Vec::new();
    let summary = serve_lines(&exec, opts, input.as_bytes(), &mut out)
        .expect("in-memory serve I/O cannot fail");
    let lines = std::str::from_utf8(&out)
        .expect("serve output is UTF-8")
        .lines()
        .map(|l| Json::parse(l).expect("every response line is valid JSON"))
        .collect();
    (summary, lines)
}

fn outcome_id(l: &Json) -> Option<u64> {
    l.get("id").and_then(Json::as_u64)
}

fn outcome_ok(l: &Json) -> bool {
    l.get("ok").and_then(Json::as_bool) == Some(true) && l.get("cycles").is_some()
}

/// The generic serve-based scenario: prewarm the compile cache, take a
/// no-fault reference, then run the same script under the plan and check
/// every invariant that does not depend on scenario specifics.
#[allow(clippy::too_many_arguments)]
fn serve_chaos(
    plan: FaultPlan,
    input: &str,
    opts: &ServeOptions,
    workers: usize,
    allowed_kinds: &[&str],
    min_failed: u64,
    min_rejected: u64,
    min_ok: u64,
) -> RunReport {
    clear();
    // Prewarm: the first-ever compile of a kernel is orders of magnitude
    // slower than a cache hit, and deadline scenarios must not depend on
    // which run paid it.
    let _ = run_script(input, opts, workers);
    let (_, ref_lines) = run_script(input, opts, workers);
    let reference: Vec<(u64, u64, u64)> = ref_lines
        .iter()
        .filter(|l| outcome_ok(l))
        .filter_map(|l| {
            Some((
                outcome_id(l)?,
                l.get("cycles")?.as_u64()?,
                l.get("instructions")?.as_u64()?,
            ))
        })
        .collect();
    install(&plan);
    let (summary, lines) = run_script(input, opts, workers);
    let fired: u64 = report().iter().map(|(_, _, f)| f).sum();
    clear();

    let mut violations = Vec::new();
    if summary.jobs != summary.ok + summary.failed {
        violations.push(format!(
            "accounting broken: {} jobs != {} ok + {} failed",
            summary.jobs, summary.ok, summary.failed
        ));
    }
    if summary.failed < min_failed {
        violations.push(format!(
            "expected >= {min_failed} typed failures, saw {}",
            summary.failed
        ));
    }
    if summary.rejected < min_rejected {
        violations.push(format!(
            "expected >= {min_rejected} protocol rejections, saw {}",
            summary.rejected
        ));
    }
    if summary.ok < min_ok {
        violations.push(format!(
            "expected >= {min_ok} healthy jobs, saw {}",
            summary.ok
        ));
    }
    for l in &lines {
        if l.get("ok").and_then(Json::as_bool) != Some(false) {
            continue;
        }
        let kind = l
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .unwrap_or("<missing>");
        // `Protocol` is the typed reject for malformed input lines — every
        // scenario that feeds garbage expects those (gated by
        // `min_rejected`), so it is always an acceptable classification.
        if kind != "Protocol" && !allowed_kinds.contains(&kind) {
            violations.push(format!("unexpected failure kind `{kind}`"));
        }
    }
    // Contamination: every job that still succeeded under fire must match
    // the no-fault reference bit for bit.
    for l in lines.iter().filter(|l| outcome_ok(l)) {
        let id = outcome_id(l).unwrap_or(u64::MAX);
        let cycles = l.get("cycles").and_then(Json::as_u64).unwrap_or(0);
        let instrs = l.get("instructions").and_then(Json::as_u64).unwrap_or(0);
        if let Some(&(_, rc, ri)) = reference.iter().find(|(rid, _, _)| *rid == id) {
            if (cycles, instrs) != (rc, ri) {
                violations.push(format!(
                    "cross-job contamination: job {id} ran {cycles}c/{instrs}i, \
                     no-fault reference ran {rc}c/{ri}i"
                ));
            }
        }
    }
    let signature = lines
        .iter()
        .map(|l| normalize(l).to_compact())
        .collect::<Vec<_>>()
        .join("\n");
    RunReport {
        signature,
        jobs: summary.jobs,
        ok: summary.ok,
        failed: summary.failed,
        rejected: summary.rejected + summary.shed,
        fired,
        violations,
    }
}

/// NDJSON batch of `n` jobs over a cycle of fast benchmarks, ids `1..=n`.
fn batch_input(n: usize) -> String {
    let benches = ["Vecadd", "Saxpy", "Sfilter"];
    let items: Vec<String> = (0..n)
        .map(|i| {
            format!(
                "{{\"id\": {}, \"bench\": \"{}\"}}",
                i + 1,
                benches[i % benches.len()]
            )
        })
        .collect();
    format!("[{}]\n", items.join(", "))
}

// ---------------------------------------------------------------------
// Cache scenarios (direct Cache instances over throwaway disk dirs).
// ---------------------------------------------------------------------

fn chaos_dir(tag: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("repro-chaos-{tag}-{}-{seed}", std::process::id()))
}

/// Compile a benchmark through `cache` and hash the resulting module.
fn module_hash(cache: &Cache, src: &str) -> Result<u64, String> {
    cache
        .optimize(src, OptLevel::VariableReuse)
        .map(|m| fnv1a(format!("{m:?}").as_bytes()))
        .map_err(|e| e.to_string())
}

fn bench_src(name: &str) -> &'static str {
    ocl_suite::benchmark(name).expect("known benchmark").source
}

/// Shared scaffolding for the cache scenarios: compile three benchmarks
/// through a disk-backed cache while `plan` is armed and compare every
/// result to a memory-only no-fault reference.
fn cache_chaos(
    tag: &str,
    seed: u64,
    plan: FaultPlan,
    check: impl Fn(&Cache, &mut Vec<String>),
) -> RunReport {
    clear();
    let sources = ["Vecadd", "Saxpy", "Sgemm"].map(bench_src);
    let reference: Vec<Result<u64, String>> = {
        let mem = Cache::new(CacheConfig::default());
        sources.iter().map(|s| module_hash(&mem, s)).collect()
    };
    let dir = chaos_dir(tag, seed);
    let _ = std::fs::remove_dir_all(&dir);
    install(&plan);
    let cache = Cache::new(CacheConfig {
        disk_dir: Some(dir.clone()),
    });
    let mut violations = Vec::new();
    let mut ok = 0u64;
    let mut failed = 0u64;
    let mut sig = String::new();
    for (i, src) in sources.iter().enumerate() {
        let got = module_hash(&cache, src);
        match (&got, &reference[i]) {
            (Ok(h), Ok(r)) if h == r => ok += 1,
            (Ok(_), Ok(_)) => {
                failed += 1;
                violations.push(format!("compile {i} under faults differs from reference"));
            }
            (Err(e), _) => {
                failed += 1;
                violations.push(format!("compile {i} failed under disk faults: {e}"));
            }
            (_, Err(e)) => violations.push(format!("reference compile {i} failed: {e}")),
        }
        sig.push_str(&format!("compile{i}={got:?}\n"));
    }
    check(&cache, &mut violations);
    let stats = cache.stats();
    sig.push_str(&format!(
        "hits_disk={} corrupt={} write_errors={} disk_active={}\n",
        stats.hits_disk,
        stats.corrupt,
        stats.disk_write_errors,
        cache.disk_active()
    ));
    let fired: u64 = report().iter().map(|(_, _, f)| f).sum();
    clear();
    let _ = std::fs::remove_dir_all(&dir);
    RunReport {
        signature: sig,
        jobs: 3,
        ok,
        failed,
        rejected: 0,
        fired,
        violations,
    }
}

fn run_cache_enospc(seed: u64) -> RunReport {
    cache_chaos(
        "enospc",
        seed,
        FaultPlan::new(seed).always(FaultPoint::CacheDiskEnospc, 0),
        |cache, violations| {
            if cache.disk_active() {
                violations
                    .push("disk tier must go offline after repeated write errors".to_string());
            }
            if cache.stats().disk_write_errors < 3 {
                violations.push(format!(
                    "expected >= 3 counted write errors, saw {}",
                    cache.stats().disk_write_errors
                ));
            }
        },
    )
}

fn run_cache_torn_write(seed: u64) -> RunReport {
    let mut r = cache_chaos(
        "torn",
        seed,
        FaultPlan::new(seed)
            .always(FaultPoint::CacheDiskShortWrite, 0)
            .always(FaultPoint::CacheDiskCorrupt, 0),
        |_, _| {},
    );
    // Second act: a fresh reader over the same damaged directory must
    // classify every torn/corrupt envelope and recompute, never serve one.
    clear();
    let dir = chaos_dir("torn-reader", seed);
    let _ = std::fs::remove_dir_all(&dir);
    install(
        &FaultPlan::new(seed)
            .always(FaultPoint::CacheDiskShortWrite, 0)
            .always(FaultPoint::CacheDiskCorrupt, 0),
    );
    let writer = Cache::new(CacheConfig {
        disk_dir: Some(dir.clone()),
    });
    let want = module_hash(&writer, bench_src("Vecadd"));
    clear();
    let reader = Cache::new(CacheConfig {
        disk_dir: Some(dir.clone()),
    });
    let got = module_hash(&reader, bench_src("Vecadd"));
    let stats = reader.stats();
    if stats.hits_disk != 0 {
        r.violations
            .push(format!("served {} damaged disk entries", stats.hits_disk));
    }
    if stats.corrupt == 0 {
        r.violations
            .push("damaged envelopes were not detected as corrupt".to_string());
    }
    if got != want {
        r.violations
            .push("recompute after corrupt reject differs from original".to_string());
    }
    r.signature.push_str(&format!(
        "reader corrupt={} hits_disk={}\n",
        stats.corrupt, stats.hits_disk
    ));
    let _ = std::fs::remove_dir_all(&dir);
    r
}

fn run_cache_readonly(seed: u64) -> RunReport {
    cache_chaos(
        "readonly",
        seed,
        FaultPlan::new(seed).always(FaultPoint::CacheDiskOpen, 0),
        |cache, violations| {
            if cache.disk_active() {
                violations.push(
                    "an unopenable cache dir must degrade to memory-only at construction"
                        .to_string(),
                );
            }
        },
    )
}

// ---------------------------------------------------------------------
// Scheduler / simulator / serve scenarios (all via `serve_lines`).
// ---------------------------------------------------------------------

fn run_sched_panic_storm(seed: u64) -> RunReport {
    serve_chaos(
        FaultPlan::new(seed).with(FaultPoint::SchedJobPanic, 0.5, None, 0),
        &batch_input(12),
        &ServeOptions::default(),
        1,
        &["Panic"],
        1,
        0,
        1,
    )
}

fn run_sched_latency_deadline(seed: u64) -> RunReport {
    // Job 1 stalls far past the service deadline; jobs 2-3 then expire in
    // the queue (deadlines anchor at submission). The follow-up batch
    // proves the worker survived all three firings.
    let input = "[{\"id\": 1, \"bench\": \"Vecadd\"}, {\"id\": 2, \"bench\": \"Saxpy\"}, \
                 {\"id\": 3, \"bench\": \"Sfilter\"}]\n\
                 [{\"id\": 4, \"bench\": \"Vecadd\"}, {\"id\": 5, \"bench\": \"Saxpy\"}]\n";
    let opts = ServeOptions {
        deadline_ms: Some(150),
        ..ServeOptions::default()
    };
    serve_chaos(
        FaultPlan::new(seed).times(FaultPoint::SchedJobLatency, 1, 600),
        input,
        &opts,
        1,
        &["DeadlineExceeded"],
        3,
        0,
        2,
    )
}

fn run_sched_lost_unpark(seed: u64) -> RunReport {
    // Every submit-time wakeup is swallowed; the watcher's rescue tick
    // must still get all jobs through, unharmed.
    serve_chaos(
        FaultPlan::new(seed).always(FaultPoint::SchedLostUnpark, 0),
        &batch_input(6),
        &ServeOptions::default(),
        2,
        &[],
        0,
        0,
        6,
    )
}

fn run_sim_dram_bitflip(seed: u64) -> RunReport {
    // Flip bit 30 (an exponent bit) of heap word 10 — inside the first
    // input buffer of every suite benchmark at test scale — right before
    // the first launch. Job 1 must come back classified, jobs 2-3 must
    // match the no-fault reference.
    let input = "[{\"id\": 1, \"bench\": \"Vecadd\"}, {\"id\": 2, \"bench\": \"Vecadd\"}, \
                 {\"id\": 3, \"bench\": \"Saxpy\"}]\n";
    serve_chaos(
        FaultPlan::new(seed).times(FaultPoint::SimDramBitflip, 1, (10 << 8) | 30),
        input,
        &ServeOptions::default(),
        1,
        &["WrongResult", "Memory", "Verify"],
        1,
        0,
        2,
    )
}

fn run_sim_l2_bitflip(seed: u64) -> RunReport {
    // Flip a bit in the *output* buffer (Vecadd `c` spans heap words
    // 512..768 at test scale) after the launch retires but before
    // readback — a post-hierarchy corruption the result check must catch.
    let input = "[{\"id\": 1, \"bench\": \"Vecadd\"}, {\"id\": 2, \"bench\": \"Vecadd\"}]\n";
    serve_chaos(
        FaultPlan::new(seed).times(FaultPoint::SimL2Bitflip, 1, (520 << 8) | 30),
        input,
        &ServeOptions::default(),
        1,
        &["WrongResult", "Memory", "Verify"],
        1,
        0,
        1,
    )
}

fn run_serve_line_garbage(seed: u64) -> RunReport {
    // First line truncated mid-JSON, second spliced with an invalid UTF-8
    // byte, third reported oversized — three typed Protocol rejections,
    // then the real batch runs untouched.
    let input = "{\"id\": 90, \"bench\": \"Vecadd\"}\n\
                 {\"id\": 91, \"bench\": \"Saxpy\"}\n\
                 {\"id\": 92, \"bench\": \"Sfilter\"}\n\
                 [{\"id\": 1, \"bench\": \"Vecadd\"}, {\"id\": 2, \"bench\": \"Saxpy\"}]\n";
    serve_chaos(
        FaultPlan::new(seed)
            .times(FaultPoint::ServeLineTruncate, 1, 0)
            .with(FaultPoint::ServeLineInvalidUtf8, 1.0, Some(2), 0)
            .with(FaultPoint::ServeLineOversize, 1.0, Some(3), 0),
        input,
        &ServeOptions::default(),
        1,
        &[],
        0,
        3,
        2,
    )
}

fn run_serve_overload_retry(seed: u64) -> RunReport {
    // Admission control sheds the tail of an oversized batch with typed
    // `Overloaded`; one injected worker panic is healed by the retry loop.
    let opts = ServeOptions {
        max_queue: Some(4),
        retry_max: 2,
        retry_backoff_ms: 1,
        ..ServeOptions::default()
    };
    serve_chaos(
        FaultPlan::new(seed).times(FaultPoint::SchedJobPanic, 1, 0),
        &batch_input(6),
        &opts,
        1,
        &["Overloaded"],
        2,
        0,
        4,
    )
}

fn run_serve_drain(seed: u64) -> RunReport {
    // A drain request lands with jobs still pending: they must come back
    // as typed `Draining` rejections, the ack must be emitted, and the
    // loop must exit without reading the post-drain line.
    let input = "{\"id\": 1, \"bench\": \"Vecadd\"}\n\
                 {\"id\": 2, \"bench\": \"Saxpy\"}\n\
                 {\"cmd\": \"drain\"}\n\
                 {\"id\": 3, \"bench\": \"Sfilter\"}\n";
    serve_chaos(
        FaultPlan::new(seed),
        input,
        &ServeOptions::default(),
        1,
        &["Draining"],
        2,
        0,
        0,
    )
}

/// The sweep, in report order. Every subsystem with a fault point gets at
/// least one scenario.
pub fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "cache-enospc",
            subsystem: "cache",
            what: "every disk write hits ENOSPC; tier degrades, results intact",
            run: run_cache_enospc,
        },
        Scenario {
            name: "cache-torn-write",
            subsystem: "cache",
            what: "torn + corrupted envelopes are detected, never served",
            run: run_cache_torn_write,
        },
        Scenario {
            name: "cache-readonly-dir",
            subsystem: "cache",
            what: "unopenable cache dir degrades to memory-only at startup",
            run: run_cache_readonly,
        },
        Scenario {
            name: "sched-panic-storm",
            subsystem: "sched",
            what: "p=0.5 worker panics over 12 jobs; all classified `Panic`",
            run: run_sched_panic_storm,
        },
        Scenario {
            name: "sched-latency-deadline",
            subsystem: "sched",
            what: "injected stall makes deadlines genuinely fire; pool survives",
            run: run_sched_latency_deadline,
        },
        Scenario {
            name: "sched-lost-unpark",
            subsystem: "sched",
            what: "all submit wakeups swallowed; watcher rescue completes the batch",
            run: run_sched_lost_unpark,
        },
        Scenario {
            name: "sim-dram-bitflip",
            subsystem: "sim",
            what: "input-buffer bit flip classifies as wrong-result, no spread",
            run: run_sim_dram_bitflip,
        },
        Scenario {
            name: "sim-l2-bitflip",
            subsystem: "sim",
            what: "output-buffer bit flip after retire is caught at readback",
            run: run_sim_l2_bitflip,
        },
        Scenario {
            name: "serve-line-garbage",
            subsystem: "serve",
            what: "truncated / non-UTF-8 / oversized lines get typed rejects",
            run: run_serve_line_garbage,
        },
        Scenario {
            name: "serve-overload-retry",
            subsystem: "serve",
            what: "tail shed with typed Overloaded; transient panic healed by retry",
            run: run_serve_overload_retry,
        },
        Scenario {
            name: "serve-drain",
            subsystem: "serve",
            what: "drain rejects pending jobs typed and acks before exit",
            run: run_serve_drain,
        },
    ]
}

/// Run scenarios matching `filter` (`smoke`/`all`, a subsystem name, or an
/// exact scenario name), each twice at `seed`.
pub fn run_chaos(seed: u64, filter: &str) -> Vec<ScenarioReport> {
    scenarios()
        .into_iter()
        .filter(|s| matches!(filter, "smoke" | "all") || s.subsystem == filter || s.name == filter)
        .map(|s| {
            let first = run_guarded(s.run, seed);
            let second = run_guarded(s.run, seed);
            let deterministic = first.signature == second.signature;
            let mut violations = first.violations;
            for v in second.violations {
                if !violations.contains(&v) {
                    violations.push(v);
                }
            }
            if !deterministic {
                violations.push(format!(
                    "outcome set differs between two runs at seed {seed}"
                ));
            }
            ScenarioReport {
                name: s.name,
                subsystem: s.subsystem,
                what: s.what,
                jobs: first.jobs,
                ok: first.ok,
                failed: first.failed,
                rejected: first.rejected,
                fired: first.fired,
                deterministic,
                violations,
            }
        })
        .collect()
}

/// Survival is invariant #1: a scenario that panics is itself the finding.
fn run_guarded(run: fn(u64) -> RunReport, seed: u64) -> RunReport {
    match std::panic::catch_unwind(move || run(seed)) {
        Ok(r) => r,
        Err(payload) => {
            clear();
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            RunReport {
                signature: format!("PANIC: {msg}"),
                jobs: 0,
                ok: 0,
                failed: 0,
                rejected: 0,
                fired: 0,
                violations: vec![format!("scenario did not survive: {msg}")],
            }
        }
    }
}

/// Markdown table for the CLI.
pub fn render_chaos(reports: &[ScenarioReport], seed: u64) -> String {
    let mut t = Table::new([
        "scenario",
        "subsystem",
        "jobs",
        "ok",
        "failed",
        "rejected",
        "fires",
        "deterministic",
        "verdict",
    ])
    .right(2..7);
    for r in reports {
        let counts = [r.jobs, r.ok, r.failed, r.rejected, r.fired].map(|n| n.to_string());
        let deterministic = if r.deterministic { "yes" } else { "**NO**" };
        let verdict = if r.passed() { "pass" } else { "**FAIL**" };
        let mut cells = vec![r.name.to_string(), r.subsystem.to_string()];
        cells.extend(counts);
        cells.extend([deterministic, verdict].map(str::to_string));
        t.row(cells);
    }
    let mut s = format!("## Chaos sweep — seed {seed}, each scenario run twice\n\n{t}");
    for r in reports.iter().filter(|r| !r.passed()) {
        s.push_str(&format!("\n`{}` violations:\n", r.name));
        for v in &r.violations {
            s.push_str(&format!("- {v}\n"));
        }
    }
    s
}

/// JSON artifact mirroring the table.
pub fn chaos_json(reports: &[ScenarioReport], seed: u64) -> Json {
    Json::obj(vec![
        ("seed", seed.to_json()),
        ("scenarios", (reports.len() as u64).to_json()),
        (
            "passed",
            Json::Bool(reports.iter().all(ScenarioReport::passed)),
        ),
        (
            "results",
            Json::Array(
                reports
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("name", r.name.to_json()),
                            ("subsystem", r.subsystem.to_json()),
                            ("what", r.what.to_json()),
                            ("jobs", r.jobs.to_json()),
                            ("ok", r.ok.to_json()),
                            ("failed", r.failed.to_json()),
                            ("rejected", r.rejected.to_json()),
                            ("fired", r.fired.to_json()),
                            ("deterministic", Json::Bool(r.deterministic)),
                            ("passed", Json::Bool(r.passed())),
                            (
                                "violations",
                                Json::Array(r.violations.iter().map(|v| v.to_json()).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_spans_every_faulted_subsystem() {
        let s = scenarios();
        assert!(s.len() >= 8, "acceptance floor: >= 8 scenarios");
        for sub in ["cache", "sched", "sim", "serve"] {
            assert!(
                s.iter().any(|sc| sc.subsystem == sub),
                "no scenario attacks `{sub}`"
            );
        }
    }

    #[test]
    fn filter_selects_by_subsystem_and_name() {
        assert_eq!(run_chaos_names("cache").len(), 3);
        assert_eq!(run_chaos_names("serve-drain"), vec!["serve-drain"]);
        assert_eq!(run_chaos_names("smoke").len(), scenarios().len());
        assert!(run_chaos_names("nope").is_empty());
    }

    fn run_chaos_names(filter: &str) -> Vec<&'static str> {
        scenarios()
            .into_iter()
            .filter(|s| {
                matches!(filter, "smoke" | "all") || s.subsystem == filter || s.name == filter
            })
            .map(|s| s.name)
            .collect()
    }

    #[test]
    fn normalize_strips_volatile_fields_recursively() {
        let j = Json::parse(
            r#"{"ok": true, "wall_secs": 1.5, "worker": 3, "inner": {"jobs_per_sec": 9.0, "jobs": 2}}"#,
        )
        .unwrap();
        let n = normalize(&j);
        assert!(n.get("wall_secs").is_none());
        assert!(n.get("worker").is_none());
        assert!(n.get("inner").unwrap().get("jobs_per_sec").is_none());
        assert_eq!(
            n.get("inner").unwrap().get("jobs").unwrap().as_u64(),
            Some(2)
        );
    }
}
