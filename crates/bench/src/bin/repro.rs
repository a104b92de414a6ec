//! `repro` — regenerates every table and figure of the paper.
//!
//! `repro <command> [<arg>] [flags]`; `repro` alone runs `all`. [`COMMANDS`]
//! declares every command: its positional argument, the flags it takes and
//! a one-line summary. An unknown command prints that list; an unknown
//! flag, a flag without its value or a value that does not parse at the
//! flag's type prints the command's synopsis. All of them exit 2.
//!
//! `check` exits nonzero if any benchmark is classified `Hang` or `Panic`
//! — the CI smoke-test contract. Host wall-clock performance is judged by
//! the benchmark in `benchmark/` (see `benchmark/README.md`), not by this
//! binary; simulated cycles are pinned by the test goldens.
//!
//! `--fast` shrinks the Figure 7 problem sizes (useful without `--release`).
//! Every command takes `--workers N` and `--opt`. `--workers` sizes the
//! executor pool every execution command submits its jobs to (`table1`,
//! `run`, `check`, `serve`, `perf-report`, `fig7`, `all`) — cycle counts
//! are bit-identical at any width, and the actual pool size is recorded in
//! the manifest's `meta.workers`. `--opt none|basic|reuse|loop` selects the
//! middle-end level for the execution commands (`trace`, `profile`,
//! `analytic`, `run`); the default is the suite-wide
//! [`ocl_suite::DEFAULT_OPT`]. Output is markdown on stdout; a JSON copy of
//! each artifact is written to `target/repro/` for EXPERIMENTS.md
//! bookkeeping, and every invocation records a RunManifest
//! (host/commit/config metadata, per-benchmark wall times, and the pipeline
//! metrics snapshot) under `runs/`.

use fpga_arch::VortexConfig;
use ocl_ir::interp::NdRange;
use ocl_ir::passes::OptLevel;
use ocl_suite::Scale;
use repro_core::report::{self, Table};
use repro_core::{coverage_table, fig7_grid, fig7_summary, table2, table3, table4};
use repro_core::{host_meta, RunManifest, ServeOptions};
use repro_sched::{ExecConfig, Executor, Flow, JobRequest};
use repro_util::ToJson;
use std::fs;

/// One subcommand: its name, the positional argument it requires (as the
/// synopsis shows it), the flags it takes besides [`COMMON`], a one-line
/// summary and its handler.
struct Command {
    name: &'static str,
    arg: Option<&'static str>,
    flags: &'static [&'static str],
    summary: &'static str,
    run: fn(&Args, &Executor, &mut RunManifest) -> Outcome,
}

/// A command's exit code, or the error `main` prints before exiting 1.
type Outcome = Result<i32, Box<dyn std::error::Error>>;

/// A flag: its name, the placeholder of its value in the synopsis (empty
/// for a switch, which takes none) and the setter that parses the value
/// into its field of [`Args`], returning `None` if it does not parse at the
/// field's type.
struct Flag {
    name: &'static str,
    value: &'static str,
    set: fn(&mut Args, &str) -> Option<()>,
}

/// A parsed command line; each field holds its default until a flag sets it.
struct Args {
    /// The command's positional argument.
    positional: Option<String>,
    fast: bool,
    timing: bool,
    /// `trace --serve`: the positional argument is a serve session log.
    serve_log: bool,
    opt: OptLevel,
    workers: usize,
    flow: Flow,
    listen: Option<String>,
    serve: ServeOptions,
    scenarios: String,
    seed: u64,
    plan: Option<String>,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            positional: None,
            fast: false,
            timing: false,
            serve_log: false,
            opt: ocl_suite::DEFAULT_OPT,
            workers: 1,
            flow: Flow::Vortex,
            listen: None,
            serve: ServeOptions::default(),
            scenarios: "smoke".to_string(),
            seed: repro_core::CHAOS_SEED,
            plan: None,
        }
    }
}

impl Args {
    /// The positional argument, which the parser requires of every command
    /// that declares one.
    fn arg(&self) -> &str {
        self.positional.as_deref().expect("parsed")
    }
}

/// `v` as a `T` greater than zero.
fn positive<T: std::str::FromStr + Default + PartialOrd>(v: &str) -> Option<T> {
    v.parse().ok().filter(|n| *n > T::default())
}

/// Every flag, declared once.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "--workers", value: "<usize ≥ 1>", set: |a, v| positive(v).map(|n| a.workers = n) },
    Flag { name: "--opt", value: "none|basic|reuse|loop", set: |a, v| OptLevel::parse(v).map(|l| a.opt = l) },
    Flag { name: "--fast", value: "", set: |a, _| { a.fast = true; Some(()) } },
    Flag { name: "--timing", value: "", set: |a, _| { a.timing = true; Some(()) } },
    Flag { name: "--serve", value: "", set: |a, _| { a.serve_log = true; Some(()) } },
    Flag { name: "--flow", value: "vortex|interp|hls", set: |a, v| Flow::parse(v).map(|f| a.flow = f) },
    Flag { name: "--listen", value: "<addr>", set: |a, v| { a.listen = Some(v.to_string()); Some(()) } },
    Flag { name: "--deadline-ms", value: "<u64 ≥ 1>", set: |a, v| positive(v).map(|n| a.serve.deadline_ms = Some(n)) },
    Flag { name: "--retry", value: "<u32>", set: |a, v| v.parse().ok().map(|n| a.serve.retry_max = n) },
    Flag { name: "--retry-backoff-ms", value: "<u64>", set: |a, v| v.parse().ok().map(|n| a.serve.retry_backoff_ms = n) },
    Flag { name: "--max-queue", value: "<usize>", set: |a, v| v.parse().ok().map(|n| a.serve.max_queue = Some(n)) },
    Flag { name: "--scenarios", value: "smoke|all|cache|sched|sim|serve|<name>", set: |a, v| { a.scenarios = v.to_string(); Some(()) } },
    Flag { name: "--seed", value: "<u64>", set: |a, v| v.parse().ok().map(|n| a.seed = n) },
    Flag { name: "--plan", value: "<json>", set: |a, v| { a.plan = Some(v.to_string()); Some(()) } },
];

/// The flags every command takes: every run manifest records both.
const COMMON: [&str; 2] = ["--workers", "--opt"];

/// Every command, declared once.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "table1", arg: None, flags: &["--timing"], run: |a, x, _| { run_table1(x, a.timing); Ok(0) },
              summary: "Table I: benchmark coverage (--timing adds the synthesis hours)" },
    Command { name: "table2", arg: None, flags: &[], run: |_, _, _| { run_table2(); Ok(0) },
              summary: "Table II: backprop area under O1/O2, plus automated O1" },
    Command { name: "table3", arg: None, flags: &[], run: |_, _, _| { run_table3(); Ok(0) },
              summary: "Table III: HLS area for four benchmarks" },
    Command { name: "table4", arg: None, flags: &[], run: |_, _, _| { run_table4(); Ok(0) },
              summary: "Table IV: Vortex area across configurations" },
    Command { name: "fig7", arg: None, flags: &["--fast"], run: |a, x, _| run_fig7(x, a.fast),
              summary: "Figure 7: warp/thread cycle sweep and the §III-C numbers" },
    Command { name: "analytic", arg: None, flags: &[], run: |a, _, _| run_analytic(a.opt),
              summary: "§IV-A: analytical model vs cycle simulator" },
    Command { name: "trace", arg: Some("<bench>|<log>"), flags: &["--serve"], run: run_trace,
              summary: "chrome://tracing export of a Vortex run, or with --serve of a serve session log" },
    Command { name: "profile", arg: Some("<bench>"), flags: &[], run: |a, _, _| run_profile(a.arg(), a.opt),
              summary: "hot-PC and stall-attribution profile of a Vortex run" },
    Command { name: "opt-report", arg: Some("<bench>"), flags: &["--timing"], run: |a, _, _| run_opt_report(a.arg(), a.timing),
              summary: "middle-end report across opt levels" },
    Command { name: "check", arg: None, flags: &[], run: |_, x, m| Ok(run_check(x, m)),
              summary: "fail-soft coverage sweep with failure classes" },
    Command { name: "run", arg: Some("<bench>"), flags: &["--flow"], run: run_run,
              summary: "one benchmark as a scheduled job" },
    Command { name: "serve", arg: None, flags: &["--listen", "--deadline-ms", "--retry", "--retry-backoff-ms", "--max-queue"],
              run: run_serve, summary: "long-running NDJSON batch service (stdin or socket)" },
    Command { name: "perf-report", arg: None, flags: &[], run: |_, x, m| { run_perf_report(x, m); Ok(0) },
              summary: "suite sweep and pipeline-stage tables (markdown and JSON)" },
    Command { name: "cache", arg: Some("stats|clear"), flags: &[], run: |a, _, _| run_cache(a.arg()),
              summary: "inspect or wipe the compile cache (runs/cache)" },
    Command { name: "chaos", arg: None, flags: &["--scenarios", "--seed", "--plan"], run: |a, _, _| Ok(run_chaos(a)),
              summary: "seeded fault-injection sweep (exit 1 on violation)" },
    Command { name: "all", arg: None, flags: &["--fast"], run: run_all,
              summary: "every table and figure above" },
];

fn flag(name: &str) -> &'static Flag {
    FLAGS.iter().find(|f| f.name == name).expect("declared")
}

fn flag_synopsis(name: &str) -> String {
    match flag(name).value {
        "" => format!("[{name}]"),
        value => format!("[{name} {value}]"),
    }
}

impl Command {
    fn synopsis(&self) -> String {
        let mut words = vec![format!("repro {}", self.name)];
        words.extend(self.arg.map(str::to_string));
        words.extend(self.flags.iter().map(|f| flag_synopsis(f)));
        words.join(" ")
    }

    /// Parse the arguments after the command name at each flag's type.
    fn parse(&self, argv: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut rest = argv.iter();
        while let Some(word) = rest.next() {
            if !word.starts_with("--") {
                if args.positional.is_some() || self.arg.is_none() {
                    return Err(format!("unexpected argument `{word}`"));
                }
                args.positional = Some(word.clone());
                continue;
            }
            if !self.flags.iter().chain(&COMMON).any(|f| f == word) {
                return Err(format!("unknown flag `{word}`"));
            }
            let flag = flag(word);
            let value = match flag.value {
                "" => Some(""),
                _ => rest
                    .next()
                    .map(String::as_str)
                    .filter(|v| !v.starts_with("--")),
            };
            if value.and_then(|v| (flag.set)(&mut args, v)).is_none() {
                let got = value.map_or("nothing".to_string(), |v| format!("`{v}`"));
                return Err(format!("`{word}` expects {}, got {got}", flag.value));
            }
        }
        match self.arg {
            Some(arg) if args.positional.is_none() => Err(format!("missing {arg}")),
            _ => Ok(args),
        }
    }
}

fn command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

fn common_synopsis() -> String {
    COMMON.map(flag_synopsis).join(" ")
}

/// Report a malformed command line for `cmd` and return the usage exit code.
fn usage(cmd: &Command, problem: &str) -> i32 {
    let (name, synopsis, common) = (cmd.name, cmd.synopsis(), common_synopsis());
    eprintln!("repro {name}: {problem}\nusage: {synopsis} {common}");
    2
}

fn save_json(name: &str, value: &impl repro_util::ToJson) {
    let dir = std::path::Path::new("target/repro");
    if fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{name}.json"));
        let _ = fs::write(path, value.to_json().to_pretty());
    }
}

fn run_table1(exec: &Executor, timing: bool) {
    println!("## Table I — Benchmark coverage (left: Vortex, right: Intel HLS)\n");
    let checks = repro_core::check_suite_on(exec, Scale::Test, VortexConfig::new(2, 4, 16));
    let rows = coverage_table(&checks);
    print!("{}", report::render_table1(&rows));
    print!("\n{}", report::render_table1_summary(&rows));
    if timing {
        println!("\n### Synthesis wall-clock model (§IV-B)\n");
        let mut t = Table::new(["Benchmark", "outcome", "hours"]);
        for r in &rows {
            let outcome = if r.hls_ok() { "ok" } else { "failed" };
            t.row([
                r.name.clone(),
                outcome.to_string(),
                format!("{:.1}", r.hls_hours),
            ]);
        }
        print!("{t}");
    }
    save_json("table1", &rows);
}

fn run_table2() {
    let rows = table2();
    print!(
        "{}",
        report::render_area_table("Table II — Backprop synthesis area (Intel HLS)", &rows)
    );
    let (manual, auto) = repro_core::tables::table2_automated_o1();
    println!(
        "\nAutomated O1 (IR-level CSE on the original source): {} BRAMs \
         (manual rewrite: {}) — the §IV-B automation opportunity, closed.",
        auto.brams, manual.brams
    );
    save_json("table2", &rows);
}

fn run_table3() {
    let rows = table3();
    print!(
        "{}",
        report::render_area_table("Table III — Synthesis area report (Intel HLS)", &rows)
    );
    save_json("table3", &rows);
}

fn run_table4() {
    println!("## Table IV — Synthesis area report from Vortex\n");
    let rows = table4();
    print!("{}", report::render_table4(&rows));
    save_json(
        "table4",
        &rows.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>(),
    );
}

fn run_fig7(exec: &Executor, fast: bool) -> Outcome {
    let scale = if fast { Scale::Test } else { Scale::Paper };
    let warps = [2u32, 4, 8, 16];
    let threads = [2u32, 4, 8, 16];
    let sweep = |name| fig7_grid(exec, name, 4, &warps, &threads, scale);
    let (vecadd, transpose) = (sweep("Vecadd")?, sweep("Transpose")?);
    print!("{}", report::render_fig7(&vecadd));
    print!("{}", report::render_fig7(&transpose));
    let sm = fig7_summary(&vecadd, &transpose);
    println!("### §III-C derived numbers\n");
    print!("{}", report::render_fig7_summary(&sm));
    save_json("fig7_vecadd", &vecadd);
    save_json("fig7_transpose", &transpose);
    save_json("fig7_summary", &sm);
    Ok(0)
}

/// The analytic model against the simulator on Vecadd and Transpose. Each
/// benchmark is one workload of zeroed buffers (their dynamic counts do not
/// depend on values), run once on the interpreter for the model's counts
/// and once per machine shape on Vortex. Both runs execute the same
/// middle-end output, or the model's inputs and the simulator would
/// describe different programs.
fn run_analytic(level: OptLevel) -> Outcome {
    use ocl_suite::{Backend, HostData, LArg, Launch, Workload};
    let mut t = Table::new([
        "benchmark",
        "config",
        "simulated",
        "predicted",
        "ratio",
        "bound",
    ]);
    let cases = [
        (
            "Vecadd",
            Launch {
                kernel: "vecadd",
                nd: NdRange::d1(8192, 16),
                args: vec![LArg::Buf(0), LArg::Buf(1), LArg::Buf(2)],
            },
        ),
        (
            "Transpose",
            Launch {
                kernel: "transpose",
                nd: NdRange::d2(128, 64, 8, 8),
                args: vec![LArg::Buf(0), LArg::Buf(1), LArg::I32(128), LArg::I32(128)],
            },
        ),
    ];
    for (name, launch) in cases {
        let b = ocl_suite::benchmark(name).expect("a suite benchmark");
        let buffers = launch.args.iter().filter(|a| matches!(a, LArg::Buf(_)));
        let w = Workload {
            buffers: buffers.map(|_| HostData::Zeroed(128 * 128)).collect(),
            launches: vec![launch],
            check: Box::new(|_| Ok(())),
        };
        let interp = Backend::Interp {
            limits: Default::default(),
        };
        let counts = ocl_suite::run(&interp, b.source, &w, Some(level), None)?;
        for hw in [
            VortexConfig::new(4, 4, 4),
            VortexConfig::new(4, 8, 8),
            VortexConfig::new(4, 16, 16),
        ] {
            let cfg = vortex_sim::SimConfig::new(hw);
            let pred = repro_core::analytic::predict(&counts, &w.launches[0].nd, &cfg);
            let vortex = Backend::Vortex { cfg };
            let sim = ocl_suite::run(&vortex, b.source, &w, Some(level), None)?.cycles as f64;
            t.row([
                name.to_string(),
                hw.to_string(),
                format!("{sim:.0}"),
                format!("{:.0}", pred.cycles),
                format!("{:.2}", pred.cycles / sim),
                pred.bound.to_string(),
            ]);
        }
    }
    println!("## Analytical Vortex performance model (§IV-A opportunity)\n");
    print!("{t}");
    Ok(0)
}

/// The machine shape `repro trace` / `repro profile` simulate: one core
/// keeps the trace readable, 8×8 warps/threads satisfies every benchmark's
/// group-size constraint at `Scale::Test`.
fn trace_config() -> vortex_sim::SimConfig {
    vortex_sim::SimConfig::new(VortexConfig::new(1, 8, 8))
}

/// Run `name` traced and return the benchmark, its outcome, and the
/// per-launch event streams. An unknown benchmark is a harness error.
fn traced_run(
    name: &str,
    level: OptLevel,
) -> Result<
    (
        ocl_suite::Benchmark,
        ocl_suite::RunOutcome,
        Vec<Vec<vortex_sim::TraceEvent>>,
    ),
    ocl_suite::ReproError,
> {
    let b = ocl_suite::benchmark(name)
        .ok_or_else(|| ocl_suite::ReproError::harness(format!("unknown benchmark `{name}`")))?;
    let vortex = ocl_suite::Backend::Vortex {
        cfg: trace_config(),
    };
    let mut launches = Vec::new();
    let w = (b.workload)(Scale::Test);
    let trace = ocl_suite::run(&vortex, b.source, &w, Some(level), Some(&mut launches))?;
    Ok((b, trace, launches))
}

fn run_trace(a: &Args, _: &Executor, _: &mut RunManifest) -> Outcome {
    if a.serve_log {
        return run_trace_serve(a.arg());
    }
    let (b, trace, launches) = traced_run(a.arg(), a.opt)?;
    let doc = repro_core::chrome_trace(&launches);
    let file = format!("trace_{}", b.name.to_lowercase());
    save_json(&file, &doc);
    let events: usize = launches.iter().map(Vec::len).sum();
    println!(
        "## Trace — {} ({} launches, {} events, {} cycles)\n",
        b.name,
        launches.len(),
        events,
        trace.cycles
    );
    println!("wrote target/repro/{file}.json — load it in chrome://tracing or Perfetto");
    Ok(0)
}

/// `repro trace --serve <log>` — export a serve session log (NDJSON, one
/// outcome per line, spans present when the service ran with observability
/// armed) as a chrome://tracing document: the host-time counterpart of
/// `repro trace <bench>`'s cycle-time view.
fn run_trace_serve(path: &str) -> Outcome {
    let log = fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let doc = repro_core::chrome_trace_serve(&log)?;
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array().map(<[_]>::len))
        .unwrap_or(0);
    save_json("trace_serve", &doc);
    println!("## Serve trace — {events} events\n");
    println!("wrote target/repro/trace_serve.json — load it in chrome://tracing or Perfetto");
    Ok(0)
}

fn run_profile(name: &str, level: OptLevel) -> Outcome {
    use vortex_sim::LaunchProfile;
    let (b, trace, launches) = traced_run(name, level)?;
    // Disassemble the hot PCs from the program the run executed: the same
    // cache lookup as the run's, so it hits.
    let w = (b.workload)(Scale::Test);
    let launched: Vec<&str> = w.launches.iter().map(|l| l.kernel).collect();
    let threads = trace_config().hw.threads;
    let kernels =
        repro_cache::global().codegen_kernels(b.source, Some(level), threads, &launched)?;
    let disasm_of = |kernel: &str| -> Vec<String> {
        kernels
            .iter()
            .find(|c| c.name == kernel)
            .map(|c| c.program.instrs.iter().map(|i| i.to_string()).collect())
            .unwrap_or_default()
    };
    let sections = launches
        .iter()
        .zip(&w.launches)
        .zip(&trace.launch_stats)
        .map(|((events, l), stats)| {
            let profile = LaunchProfile::from_events(events);
            profile.verify_tiling(stats).map_err(|e| {
                format!("launch `{}`: trace does not tile with stats: {e}", l.kernel)
            })?;
            Ok(report::ProfileSection {
                kernel: l.kernel.to_string(),
                profile,
                disasm: disasm_of(l.kernel),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    print!("{}", report::render_profile(b.name, &sections, 8));
    Ok(0)
}

fn run_check(exec: &Executor, manifest: &mut RunManifest) -> i32 {
    println!("## Fail-soft coverage check (both flows, watchdog + panic isolation)\n");
    let rows = repro_core::check_suite_on(exec, Scale::Test, VortexConfig::new(2, 4, 16));
    print!("{}", repro_core::render_check(&rows));
    save_json("check", &repro_core::check_json(&rows));
    repro_core::fill_manifest(manifest, &rows);
    let ok = rows
        .iter()
        .filter(|r| r.vortex.is_ok() && r.hls.is_ok())
        .count();
    println!(
        "\n{ok}/{} benchmarks clean on both flows; report at target/repro/check.json",
        rows.len()
    );
    if repro_core::check_has_hard_failure(&rows) {
        eprintln!("FAIL: at least one benchmark classified Hang or Panic");
        return 1;
    }
    0
}

/// `repro perf-report` — collects the suite sweep and the stage spans on
/// `exec`'s pool, prints the markdown report and writes
/// `target/repro/perf_report.json`.
fn run_perf_report(exec: &Executor, manifest: &mut RunManifest) {
    let perf = repro_core::collect_perf(exec, VortexConfig::new(2, 4, 16));
    repro_core::fill_manifest(manifest, &perf.rows);
    print!("{}", repro_core::render_perf_markdown(&perf, true));
    save_json("perf_report", &perf);
}

fn run_opt_report(name: &str, timing: bool) -> Outcome {
    let r = repro_core::opt_report(name)?;
    print!("{}", repro_core::render_opt_report(&r, timing));
    save_json(&format!("opt_report_{}", r.bench.to_lowercase()), &r);
    Ok(0)
}

/// `repro run <bench> [--flow vortex|interp|hls]` — one benchmark as a
/// scheduled job through the same executor path `serve` uses, printing the
/// outcome line a serve client would receive.
fn run_run(a: &Args, exec: &Executor, manifest: &mut RunManifest) -> Outcome {
    let bench = a.arg();
    let mut req = JobRequest::bench(bench, a.flow);
    req.opt = Some(a.opt);
    let outcomes = exec.run(vec![ocl_suite::instantiate(req)]);
    let oc = &outcomes[0];
    println!("{}", oc.to_json().to_pretty());
    manifest.push_bench(
        bench,
        a.flow.name(),
        oc.wall_secs,
        oc.stats().map(|s| s.cycles),
        oc.is_ok(),
    );
    Ok(i32::from(!oc.is_ok()))
}

/// `repro serve` — the long-running batch mode. Jobs arrive as
/// newline-delimited JSON on stdin (or a TCP socket with `--listen`), run
/// on the shared worker pool, and responses stream back one compact JSON
/// line per job plus a summary per batch. The compile cache and metrics
/// registry stay warm across batches; the exit manifest carries the
/// scheduler counters. `--retry` re-runs transient failures with
/// deterministic exponential backoff, `--max-queue` sheds overflow with
/// typed `Overloaded` responses, and a `{"cmd": "drain"}` line finishes
/// in-flight work, rejects the queue typed, and exits cleanly.
fn run_serve(a: &Args, exec: &Executor, manifest: &mut RunManifest) -> Outcome {
    // Live observability is armed only here, at the service entry point —
    // never inside `serve_lines` itself — so library users and the chaos
    // harness (which requires byte-identical replays, and span durations
    // are wall-clock) see exactly the pre-observability wire format.
    repro_util::metrics::window_enable();
    repro_obs::arm();
    let on = a.listen.as_deref().unwrap_or("stdin");
    eprintln!(
        "serving NDJSON batches on {on} ({} workers)",
        exec.workers()
    );
    let s = match &a.listen {
        Some(addr) => repro_core::serve_socket(exec, &a.serve, addr),
        None => {
            let (stdin, stdout) = (std::io::stdin(), std::io::stdout());
            repro_core::serve_lines(exec, &a.serve, stdin.lock(), stdout.lock())
        }
    }
    .map_err(|e| format!("serve I/O error: {e}"))?;
    eprintln!(
        "served {} batch(es): {} job(s), {} ok, {} failed, {} rejected line(s), \
         {} shed, {} retried, {} healed, {} deadline-fired{}",
        s.batches,
        s.jobs,
        s.ok,
        s.failed,
        s.rejected,
        s.shed,
        s.retried,
        s.healed,
        s.deadline_fired,
        if s.drained { " (drained)" } else { "" }
    );
    manifest
        .failure_classes
        .push(("JobsFailed".to_string(), s.failed));
    Ok(i32::from(s.failed > 0))
}

/// `repro chaos` — the seeded fault-injection sweep. Each scenario arms a
/// fault plan against one subsystem, runs a real workload twice at the
/// same seed, and asserts the fail-soft invariants (survival, typed
/// classification, exact accounting, no cross-job contamination,
/// byte-identical outcome sets). Exit 1 on any violation. `--plan` only
/// validates the JSON wire form of a hand-written plan and prints it back.
fn run_chaos(a: &Args) -> i32 {
    if let Some(raw) = &a.plan {
        return match repro_util::fault::FaultPlan::parse(raw) {
            Ok(plan) => {
                println!("{}", plan.to_json().to_pretty());
                0
            }
            Err(e) => {
                eprintln!("invalid fault plan: {e}");
                2
            }
        };
    }
    let reports = repro_core::run_chaos(a.seed, &a.scenarios);
    if reports.is_empty() {
        eprintln!(
            "no scenario matches `{}` (try: smoke, all, cache, sched, sim, serve)",
            a.scenarios
        );
        return 2;
    }
    println!("{}", repro_core::render_chaos(&reports, a.seed));
    save_json("chaos", &repro_core::chaos_json(&reports, a.seed));
    let passed = reports.iter().filter(|r| r.passed()).count();
    eprintln!("chaos: {passed}/{} scenario(s) passed", reports.len());
    i32::from(passed < reports.len())
}

/// The on-disk tier of the compile cache for `repro` invocations. The
/// global cache defaults to memory-only; the CLI opts in because its runs
/// are exactly the repeat-compile traffic the disk tier exists for.
const CACHE_DIR: &str = "runs/cache";

fn cache_config() -> repro_cache::CacheConfig {
    repro_cache::CacheConfig {
        disk_dir: Some(CACHE_DIR.into()),
    }
}

fn run_cache(sub: &str) -> Outcome {
    match sub {
        "stats" => {
            let stats = repro_cache::disk::DiskStats::scan(CACHE_DIR);
            println!(
                "## Compile cache — {CACHE_DIR} (schema v{})\n",
                stats.schema_version
            );
            let mut t = Table::new(["stage", "entries", "bytes"]).right(1..3);
            for (stage, entries, bytes) in &stats.stages {
                t.row([stage.to_string(), entries.to_string(), bytes.to_string()]);
            }
            t.row([
                "**total**".to_string(),
                format!("**{}**", stats.total_entries),
                format!("**{}**", stats.total_bytes),
            ]);
            print!("{t}");
            save_json("cache_stats", &stats);
            Ok(0)
        }
        "clear" => {
            let cache = repro_cache::Cache::new(cache_config());
            let removed = cache
                .clear_disk()
                .map_err(|e| format!("could not clear {CACHE_DIR}: {e}"))?;
            println!("removed {removed} cache entries from {CACHE_DIR}");
            Ok(0)
        }
        other => Ok(usage(
            command("cache").expect("a declared command"),
            &format!("unknown subcommand `{other}`"),
        )),
    }
}

fn run_all(a: &Args, exec: &Executor, _: &mut RunManifest) -> Outcome {
    run_table1(exec, true);
    for table in [run_table2, run_table3, run_table4] {
        println!();
        table();
    }
    println!();
    run_fig7(exec, a.fast)?;
    println!();
    run_analytic(a.opt)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let name = argv.first().map_or("all", String::as_str);
    let Some(cmd) = command(name) else {
        eprintln!("unknown command `{name}`; the commands are:");
        for c in COMMANDS {
            eprintln!("  {} — {}", c.synopsis(), c.summary);
        }
        eprintln!("and every command takes {}", common_synopsis());
        std::process::exit(2);
    };
    let args = match cmd.parse(argv.get(1..).unwrap_or_default()) {
        Ok(args) => args,
        Err(problem) => std::process::exit(usage(cmd, &problem)),
    };
    // Enable the persistent compile cache for every CLI invocation (tests
    // and library users stay memory-only unless they opt in themselves).
    repro_cache::init_global(cache_config());
    // One worker pool per invocation, shared by every batch the command
    // submits. Idle workers park, so the table commands pay nothing for it.
    let exec = Executor::new(ExecConfig::with_workers(args.workers));
    // Every invocation records its pipeline spans and a RunManifest; the
    // registry is a single relaxed atomic when nothing reads it, so this
    // costs nothing measurable even on the timing commands.
    repro_util::metrics::enable();
    let mut manifest = RunManifest::new(name, &argv, host_meta(args.opt, args.workers));
    let t0 = std::time::Instant::now();
    let code = (cmd.run)(&args, &exec, &mut manifest).unwrap_or_else(|e| {
        eprintln!("repro {name}: {e}");
        1
    });
    manifest.total_wall_secs = t0.elapsed().as_secs_f64();
    manifest.metrics = repro_util::metrics::snapshot();
    match manifest.write("runs") {
        Ok(path) => eprintln!("run manifest: {}", path.display()),
        Err(e) => eprintln!("warning: could not write run manifest: {e}"),
    }
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        command(&argv[0]).unwrap().parse(&argv[1..])
    }

    #[test]
    fn every_flag_is_declared_once_and_taken_by_a_command() {
        for (i, f) in FLAGS.iter().enumerate() {
            assert!(
                FLAGS[..i].iter().all(|g| g.name != f.name),
                "{} twice",
                f.name
            );
            let taken = COMMANDS.iter().any(|c| c.flags.contains(&f.name));
            assert!(taken || COMMON.contains(&f.name), "{} unused", f.name);
        }
        for c in COMMANDS {
            for name in c.flags {
                assert!(FLAGS.iter().any(|f| f.name == *name), "{name} undeclared");
            }
        }
    }

    #[test]
    fn documented_command_lines_parse() {
        for line in [
            "all --fast",
            "table1 --timing --workers 2",
            "table2",
            "fig7 --fast --workers 4",
            "analytic --opt loop",
            "trace Vecadd",
            "trace --serve /tmp/obs-out.ndjson",
            "profile Vecadd --opt basic",
            "opt-report Backprop --timing",
            "check --workers 2",
            "run Vecadd --flow hls",
            "serve --workers 2",
            "serve --workers 2 --max-queue 2 --retry 2",
            "serve --workers 4 --listen 127.0.0.1:7878",
            "perf-report",
            "cache stats",
            "cache clear",
            "chaos --scenarios cache --seed 42",
            r#"chaos --plan {"seed":1,"points":[]}"#,
        ] {
            if let Err(e) = parse(line) {
                panic!("`repro {line}`: {e}");
            }
        }
    }

    #[test]
    fn values_parse_at_their_declared_type() {
        let a = parse(
            "serve --workers 3 --listen 127.0.0.1:0 --deadline-ms 5 --retry 4294967295 \
             --retry-backoff-ms 0 --max-queue 8 --opt none",
        )
        .unwrap();
        assert_eq!(a.workers, 3);
        assert_eq!(a.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(a.serve.deadline_ms, Some(5));
        assert_eq!(a.serve.retry_max, u32::MAX);
        assert_eq!(a.serve.retry_backoff_ms, 0);
        assert_eq!(a.serve.max_queue, Some(8));
        assert_eq!(a.opt, OptLevel::None);
        assert_eq!(a.serve.workers, ServeOptions::default().workers);
        let a = parse("trace --serve log.ndjson").unwrap();
        assert!(a.serve_log);
        assert_eq!(a.arg(), "log.ndjson");
        let a = parse("chaos").unwrap();
        assert_eq!(
            (a.seed, a.scenarios.as_str()),
            (repro_core::CHAOS_SEED, "smoke")
        );
    }

    #[test]
    fn malformed_command_lines_are_rejected() {
        for (line, problem) in [
            ("table2 --timming", "unknown flag `--timming`"),
            ("fig7 --timing", "unknown flag `--timing`"),
            ("chaos --scenarios", "`--scenarios` expects"),
            ("serve --listen", "`--listen` expects <addr>, got nothing"),
            ("serve --retry 4294967296", "got `4294967296`"),
            ("serve --deadline-ms 0", "got `0`"),
            ("check --workers 0", "got `0`"),
            ("chaos --seed -1", "got `-1`"),
            ("run Vecadd --flow gpu", "got `gpu`"),
            ("run", "missing <bench>"),
            ("run Vecadd Saxpy", "unexpected argument `Saxpy`"),
            ("table1 extra", "unexpected argument `extra`"),
        ] {
            match parse(line) {
                Ok(_) => panic!("`repro {line}` parsed"),
                Err(e) => assert!(e.contains(problem), "`repro {line}`: {e}"),
            }
        }
    }
}
