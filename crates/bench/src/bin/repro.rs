//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro table1 [--timing]   Table I   benchmark coverage
//! repro table2              Table II  backprop area under O1/O2 (+ automated O1)
//! repro table3              Table III HLS area for four benchmarks
//! repro table4              Table IV  Vortex area across configurations
//! repro fig7 [--fast]       Figure 7  warp/thread cycle sweep + §III-C numbers
//! repro analytic            §IV-A     analytical model vs cycle simulator
//! repro trace <bench>       chrome://tracing export of a Vortex run
//! repro trace --serve <log> chrome://tracing export of a serve session's
//!                           per-job span trees (host time)
//! repro profile <bench>     hot-PC + stall-attribution profile of a Vortex run
//! repro opt-report <bench> [--timing]  middle-end report across opt levels
//! repro check               fail-soft coverage sweep with failure classes
//! repro run <bench> [--flow vortex|interp|hls]
//!                           one benchmark as a scheduled job
//! repro serve [--once] [--listen <addr>] [--deadline-ms <n>]
//!                           long-running NDJSON batch service (stdin/socket)
//! repro top [--addr <a>] [--interval-ms <n>] [--frames <n>] [--clear]
//!                           live dashboard over a serving --listen process
//! repro perf-report [--baseline <manifest>] [--threshold <frac>]
//!                           perf dashboard (markdown + HTML + manifest)
//! repro cache stats|clear   inspect or wipe the compile cache (runs/cache)
//! repro chaos [--scenarios smoke|all|cache|sched|sim|serve|<name>] [--seed <n>]
//!                           seeded fault-injection sweep (exit 1 on violation)
//! repro all [--fast]        every table and figure above
//! ```
//!
//! `check` exits nonzero if any benchmark is classified `Hang` or `Panic`
//! — the CI smoke-test contract. `perf-report --baseline` exits nonzero
//! when any tracked metric regresses beyond the threshold (default 20%);
//! the baseline is a previous `runs/perf-report.json` manifest. Host
//! wall-clock performance is measured by the benchmark in `benchmark/`
//! (see `benchmark/README.md`), not by this binary.
//!
//! `--fast` shrinks the Figure 7 problem sizes (useful without `--release`).
//! `--workers N` sizes the work-stealing executor pool every execution
//! command submits its jobs to (`run`, `check`, `serve`, `perf-report`,
//! `fig7`, `all`) — cycle counts are bit-identical at any width, and the
//! actual pool size is recorded in the manifest fingerprint.
//! `--opt none|basic|reuse|loop` selects the middle-end level for the
//! execution commands (`trace`, `profile`, `analytic`); the default is
//! the suite-wide [`ocl_suite::DEFAULT_OPT`]. Output is markdown
//! on stdout; a JSON copy of each artifact is written to `target/repro/`
//! for EXPERIMENTS.md bookkeeping, and every invocation records a
//! RunManifest (host/commit/config metadata, per-benchmark wall times, and
//! the pipeline metrics snapshot) under `runs/`.

use fpga_arch::VortexConfig;
use ocl_ir::passes::OptLevel;
use ocl_suite::Scale;
use repro_core::report;
use repro_core::{coverage_table, fig7_grid, fig7_summary, table2, table3, table4};
use repro_core::{host_meta, RunManifest, ServeOptions};
use repro_sched::{ExecConfig, Executor, Flow, JobRequest};
use repro_util::ToJson;
use std::fs;

fn save_json(name: &str, value: &impl repro_util::ToJson) {
    let dir = std::path::Path::new("target/repro");
    if fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{name}.json"));
        let _ = fs::write(path, value.to_json().to_pretty());
    }
}

fn run_table1(timing: bool) {
    println!("## Table I — Benchmark coverage (left: Vortex, right: Intel HLS)\n");
    let rows = coverage_table(Scale::Test, VortexConfig::new(2, 4, 16));
    print!("{}", report::render_table1(&rows));
    let v_ok = rows.iter().filter(|r| r.vortex_ok()).count();
    let h_ok = rows.iter().filter(|r| r.hls_ok()).count();
    println!("\nVortex: {v_ok}/28 pass (paper: 28/28); Intel SDK: {h_ok}/28 pass (paper: 22/28)");
    if timing {
        println!("\n### Synthesis wall-clock model (§IV-B)\n");
        println!("| Benchmark | outcome | hours |");
        println!("|---|---|---|");
        for r in &rows {
            let outcome = if r.hls_ok() { "ok" } else { "failed" };
            println!("| {} | {} | {:.1} |", r.name, outcome, r.hls_hours);
        }
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

fn run_fig7(exec: &Executor, fast: bool) -> i32 {
    let scale = if fast { Scale::Test } else { Scale::Paper };
    let warps = [2u32, 4, 8, 16];
    let threads = [2u32, 4, 8, 16];
    let sweep = |name| fig7_grid(exec, name, 4, &warps, &threads, scale);
    let (vecadd, transpose) = match sweep("Vecadd").and_then(|v| Ok((v, sweep("Transpose")?))) {
        Ok(grids) => grids,
        Err(e) => {
            eprintln!("fig7: {e}");
            return 1;
        }
    };
    print!("{}", report::render_fig7(&vecadd));
    print!("{}", report::render_fig7(&transpose));
    let sm = fig7_summary(&vecadd, &transpose);
    println!("### §III-C derived numbers\n");
    print!("{}", report::render_fig7_summary(&sm));
    save_json("fig7_vecadd", &vecadd);
    save_json("fig7_transpose", &transpose);
    save_json("fig7_summary", &sm);
    0
}

fn run_analytic(level: OptLevel) {
    use ocl_ir::interp::{run_ndrange, KernelArg, Limits, Memory, NdRange};
    use vortex_sim::SimConfig;
    println!("## Analytical Vortex performance model (§IV-A opportunity)\n");
    println!("| benchmark | config | simulated | predicted | ratio | bound |");
    println!("|---|---|---|---|---|---|");
    for name in ["Vecadd", "Transpose"] {
        let b = ocl_suite::benchmark(name).unwrap();
        // Both the dynamic-count run and the simulated run must execute the
        // same middle-end output, or the model's inputs and the simulator
        // would describe different programs.
        let mut module = ocl_front::compile(b.source).unwrap();
        ocl_ir::passes::optimize_module(&mut module, level);
        let kernel = &module.kernels[0];
        let n = 8192u32;
        let nd = if name == "Vecadd" {
            NdRange::d1(n, 16)
        } else {
            NdRange::d2(128, 64, 8, 8)
        };
        // Reference execution for dynamic counts (inputs are zeros — the
        // counts don't depend on values for these kernels).
        let mut mem = Memory::new(16 << 20);
        let args: Vec<KernelArg> = kernel
            .params
            .iter()
            .map(|p| match p.ty {
                ocl_ir::Type::Ptr(_) => KernelArg::Ptr(mem.alloc(4 * 128 * 128)),
                _ => KernelArg::I32(128),
            })
            .collect();
        let exec = run_ndrange(kernel, &args, &nd, &mut mem, &Limits::default()).unwrap();
        for hw in [
            VortexConfig::new(4, 4, 4),
            VortexConfig::new(4, 8, 8),
            VortexConfig::new(4, 16, 16),
        ] {
            let cfg = SimConfig::new(hw);
            let pred = repro_core::analytic::predict(&exec, &nd, &cfg);
            let compiled = vortex_rt::compile_for_at(b.source, &kernel.name, &cfg, level).unwrap();
            let mut sess = vortex_rt::VxSession::new(cfg, compiled);
            let vargs: Vec<vortex_rt::Arg> = kernel
                .params
                .iter()
                .map(|p| match p.ty {
                    ocl_ir::Type::Ptr(_) => vortex_rt::Arg::Buf(sess.alloc(4 * 128 * 128).unwrap()),
                    _ => vortex_rt::Arg::I32(128),
                })
                .collect();
            let r = sess.launch(&vargs, &nd).unwrap();
            let sim = r.stats.cycles as f64;
            println!(
                "| {name} | {hw} | {sim:.0} | {:.0} | {:.2} | {} |",
                pred.cycles,
                pred.cycles / sim,
                pred.bound
            );
        }
    }
}

/// The machine shape `repro trace` / `repro profile` simulate: one core
/// keeps the trace readable, 8×8 warps/threads satisfies every benchmark's
/// group-size constraint at `Scale::Test`.
fn trace_config() -> vortex_sim::SimConfig {
    vortex_sim::SimConfig::new(VortexConfig::new(1, 8, 8))
}

/// Run `name` traced and return the benchmark, observable state, and the
/// per-launch event streams.
fn traced_run(
    name: &str,
    level: OptLevel,
) -> (
    ocl_suite::Benchmark,
    ocl_suite::VortexTrace,
    Vec<Vec<vortex_sim::TraceEvent>>,
) {
    let Some(b) = ocl_suite::benchmark(name) else {
        eprintln!("unknown benchmark `{name}`");
        std::process::exit(2);
    };
    let cfg = trace_config();
    match ocl_suite::run_vortex_events_at(&b, Scale::Test, &cfg, level) {
        Ok((trace, launches)) => (b, trace, launches),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

fn run_trace(name: &str, level: OptLevel) {
    let (b, trace, launches) = traced_run(name, level);
    let doc = repro_core::chrome_trace(&launches);
    let file = format!("trace_{}", b.name.to_lowercase());
    save_json(&file, &doc);
    let events: usize = launches.iter().map(Vec::len).sum();
    println!(
        "## Trace — {} ({} launches, {} events, {} cycles)\n",
        b.name,
        launches.len(),
        events,
        trace.launch_stats.iter().map(|s| s.cycles).sum::<u64>()
    );
    println!("wrote target/repro/{file}.json — load it in chrome://tracing or Perfetto");
}

/// `repro trace --serve <log>` — export a serve session log (NDJSON, one
/// outcome per line, spans present when the service ran with observability
/// armed) as a chrome://tracing document: the host-time counterpart of
/// `repro trace <bench>`'s cycle-time view.
fn run_trace_serve(args: &[String]) -> i32 {
    let i = args
        .iter()
        .position(|a| a == "--serve")
        .expect("dispatch guard checked the flag");
    let Some(path) = args.get(i + 1).filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: repro trace --serve <serve-log.ndjson>");
        return 2;
    };
    let log = match fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read `{path}`: {e}");
            return 1;
        }
    };
    match repro_core::chrome_trace_serve(&log) {
        Ok(doc) => {
            let events = doc
                .get("traceEvents")
                .and_then(|e| e.as_array().map(<[_]>::len))
                .unwrap_or(0);
            save_json("trace_serve", &doc);
            println!("## Serve trace — {events} events\n");
            println!(
                "wrote target/repro/trace_serve.json — load it in chrome://tracing or Perfetto"
            );
            0
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

/// `repro top [--addr <host:port>] [--interval-ms <n>] [--frames <n>]
/// [--clear]` — poll a serving `repro serve --listen` process's
/// `{"cmd":"stats"}` endpoint and render a live windowed dashboard.
fn run_top_cmd(args: &[String]) -> i32 {
    let mut opts = repro_core::TopOptions::default();
    if let Some(i) = args.iter().position(|a| a == "--addr") {
        match args.get(i + 1) {
            Some(a) => opts.addr = a.clone(),
            None => {
                eprintln!("--addr expects host:port");
                return 2;
            }
        }
    }
    for (flag, slot) in [("--interval-ms", 0usize), ("--frames", 1)] {
        if let Some(i) = args.iter().position(|a| a == flag) {
            match args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                Some(n) if n >= 1 => {
                    if slot == 0 {
                        opts.interval_ms = n;
                    } else {
                        opts.frames = Some(n);
                    }
                }
                _ => {
                    eprintln!("{flag} expects a positive integer");
                    return 2;
                }
            }
        }
    }
    opts.clear = args.iter().any(|a| a == "--clear");
    match repro_core::run_top(&opts, &mut std::io::stdout()) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!(
                "repro top: {e} (is `repro serve --listen {}` up?)",
                opts.addr
            );
            1
        }
    }
}

fn run_profile(name: &str, level: OptLevel) {
    use vortex_sim::LaunchProfile;
    let (b, trace, launches) = traced_run(name, level);
    let cfg = trace_config();
    // Recompile for disassembly of the hot PCs (same optimized module and
    // codegen options as the run, so PCs line up with what executed).
    let module = ocl_suite::compile_bench(&b, level).expect("already compiled once");
    let opts = vortex_cc::CodegenOpts {
        threads: cfg.hw.threads,
    };
    let disasm_of = |kernel: &str| -> Vec<String> {
        module
            .kernel(kernel)
            .and_then(|k| vortex_cc::compile_kernel(k, &opts).ok())
            .map(|c| c.program.instrs.iter().map(|i| i.to_string()).collect())
            .unwrap_or_default()
    };
    let w = (b.workload)(Scale::Test);
    let sections: Vec<report::ProfileSection> = launches
        .iter()
        .zip(&w.launches)
        .zip(&trace.launch_stats)
        .map(|((events, l), stats)| {
            let profile = LaunchProfile::from_events(events);
            if let Err(e) = profile.verify_tiling(stats) {
                eprintln!("launch `{}`: trace does not tile with stats: {e}", l.kernel);
                std::process::exit(1);
            }
            report::ProfileSection {
                kernel: l.kernel.to_string(),
                profile,
                disasm: disasm_of(l.kernel),
            }
        })
        .collect();
    print!("{}", report::render_profile(b.name, &sections, 8));
}

fn run_check(exec: &Executor, manifest: &mut RunManifest) -> i32 {
    println!("## Fail-soft coverage check (both flows, watchdog + panic isolation)\n");
    let rows = repro_core::check_suite_on(exec, Scale::Test, VortexConfig::new(2, 4, 16));
    print!("{}", repro_core::render_check(&rows));
    save_json("check", &repro_core::check_json(&rows));
    for r in &rows {
        manifest.push_bench(
            &r.name,
            "vortex",
            r.vortex.wall_secs,
            r.vortex.cycles(),
            r.vortex.is_ok(),
        );
        manifest.push_bench(
            &r.name,
            "hls",
            r.hls.wall_secs,
            r.hls.cycles(),
            r.hls.is_ok(),
        );
    }
    for (class, n) in repro_core::check::check_class_counts(&rows) {
        if n > 0 {
            manifest
                .failure_classes
                .push((class.name().to_string(), n as u64));
        }
    }
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

/// `repro perf-report [--baseline <manifest>] [--threshold <frac>]`.
///
/// Collects the dashboard (suite sweep + stage spans), prints the markdown
/// report, writes `target/repro/perf_report.{json,html}`, and — when a
/// baseline is given — exits 3 if any tracked metric regressed beyond the
/// threshold.
fn run_perf_report(args: &[String], workers: usize, manifest: &mut RunManifest) -> i32 {
    use repro_core::{collect_perf, compare_to_baseline, PerfOptions};
    use repro_util::Json;
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let threshold = match flag_value("--threshold") {
        None => repro_core::DEFAULT_THRESHOLD,
        Some(s) => match s.parse::<f64>() {
            Ok(t) if t >= 0.0 => t,
            _ => {
                eprintln!("--threshold expects a non-negative fraction (e.g. 0.2)");
                std::process::exit(2);
            }
        },
    };
    let opts = PerfOptions {
        hw: VortexConfig::new(2, 4, 16),
        bench_filter: None,
        workers,
    };
    let perf = collect_perf(&opts);
    repro_core::fill_manifest(manifest, &perf);
    let cmp = match flag_value("--baseline") {
        None => None,
        Some(path) => {
            let doc = fs::read_to_string(path)
                .map_err(|e| format!("cannot read baseline `{path}`: {e}"))
                .and_then(|text| {
                    Json::parse(&text).map_err(|e| format!("cannot parse baseline `{path}`: {e}"))
                })
                .and_then(|doc| compare_to_baseline(&perf, &doc, threshold));
            match doc {
                Ok(cmp) => Some(cmp),
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            }
        }
    };
    print!(
        "{}",
        repro_core::render_perf_markdown(&perf, cmp.as_ref(), true)
    );
    save_json("perf_report", &perf);
    let html_path = std::path::Path::new("target/repro/perf_report.html");
    if fs::create_dir_all("target/repro").is_ok() {
        let _ = fs::write(html_path, repro_core::render_perf_html(&perf, cmp.as_ref()));
        println!("\ndashboard: {}", html_path.display());
    }
    if let Some(cmp) = &cmp {
        if !cmp.regressions.is_empty() {
            eprintln!(
                "FAIL: {} tracked metric(s) regressed beyond {:.0}%",
                cmp.regressions.len(),
                cmp.threshold * 100.0
            );
            return 3;
        }
        println!(
            "\nno tracked metric regressed beyond {:.0}%",
            cmp.threshold * 100.0
        );
    }
    0
}

fn run_opt_report(name: &str, timing: bool) {
    match repro_core::opt_report(name) {
        Ok(r) => {
            print!("{}", repro_core::render_opt_report(&r, timing));
            save_json(&format!("opt_report_{}", r.bench.to_lowercase()), &r);
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

/// `repro run <bench> [--flow vortex|interp|hls]` — one benchmark as a
/// scheduled job through the same executor path `serve` uses, printing the
/// outcome line a serve client would receive.
fn run_run(args: &[String], exec: &Executor, level: OptLevel, manifest: &mut RunManifest) -> i32 {
    use repro_util::ToJson;
    let Some(bench) = args.get(1).filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: repro run <bench> [--flow vortex|interp|hls]");
        return 2;
    };
    let flow = match args.iter().position(|a| a == "--flow") {
        None => Flow::Vortex,
        Some(i) => match args.get(i + 1).and_then(|s| Flow::parse(s)) {
            Some(f) => f,
            None => {
                eprintln!("--flow expects one of: vortex, interp, hls");
                return 2;
            }
        },
    };
    let mut req = JobRequest::bench(bench, flow);
    req.opt = Some(level);
    let outcomes = exec.run(vec![ocl_suite::instantiate(req)]);
    let oc = &outcomes[0];
    println!("{}", oc.to_json().to_pretty());
    manifest.push_bench(
        bench,
        match flow {
            Flow::Vortex => "vortex",
            Flow::Interp => "interp",
            Flow::Hls => "hls",
        },
        oc.wall_secs,
        oc.stats().map(|s| s.cycles),
        oc.is_ok(),
    );
    if oc.is_ok() {
        0
    } else {
        1
    }
}

/// `repro serve [--once] [--listen <addr>] [--deadline-ms <n>]
/// [--retry <n>] [--retry-backoff-ms <n>] [--max-queue <n>]` — the
/// long-running batch mode. Jobs arrive as newline-delimited JSON on stdin
/// (or a TCP socket with `--listen`), run on the shared worker pool, and
/// responses stream back one compact JSON line per job plus a summary per
/// batch. The compile cache and metrics registry stay warm across batches;
/// the exit manifest carries the scheduler counters. `--retry` re-runs
/// transient failures with deterministic exponential backoff, `--max-queue`
/// sheds overflow with typed `Overloaded` responses, and a
/// `{"cmd": "drain"}` line finishes in-flight work, rejects the queue
/// typed, and exits cleanly.
fn run_serve(args: &[String], exec: &Executor, manifest: &mut RunManifest) -> i32 {
    let once = args.iter().any(|a| a == "--once");
    let deadline_ms = match args.iter().position(|a| a == "--deadline-ms") {
        None => None,
        Some(i) => match args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
            Some(n) if n >= 1 => Some(n),
            _ => {
                eprintln!("--deadline-ms expects a positive integer");
                return 2;
            }
        },
    };
    let flag_u64 = |name: &str| -> Result<Option<u64>, i32> {
        match args.iter().position(|a| a == name) {
            None => Ok(None),
            Some(i) => match args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                Some(n) => Ok(Some(n)),
                None => {
                    eprintln!("{name} expects a non-negative integer");
                    Err(2)
                }
            },
        }
    };
    let (retry_max, retry_backoff_ms, max_queue) = match (
        flag_u64("--retry"),
        flag_u64("--retry-backoff-ms"),
        flag_u64("--max-queue"),
    ) {
        (Ok(r), Ok(b), Ok(q)) => (
            r.unwrap_or(0) as u32,
            b.unwrap_or(10),
            q.map(|n| n as usize),
        ),
        _ => return 2,
    };
    let listen = args
        .iter()
        .position(|a| a == "--listen")
        .and_then(|i| args.get(i + 1));
    let opts = ServeOptions {
        workers: exec.workers(),
        once,
        deadline_ms,
        retry_max,
        retry_backoff_ms,
        max_queue,
    };
    // Live observability is armed only here, at the service entry point —
    // never inside `serve_lines` itself — so library users and the chaos
    // harness (which requires byte-identical replays, and span durations
    // are wall-clock) see exactly the pre-observability wire format.
    repro_util::metrics::window_enable();
    repro_obs::arm();
    let served = match listen {
        Some(addr) => {
            eprintln!(
                "serving NDJSON batches on {addr} ({} workers)",
                exec.workers()
            );
            repro_core::serve_socket(exec, &opts, addr)
        }
        None => {
            eprintln!(
                "serving NDJSON batches on stdin ({} workers)",
                exec.workers()
            );
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            repro_core::serve_lines(exec, &opts, stdin.lock(), stdout.lock())
        }
    };
    match served {
        Ok(s) => {
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
            if s.failed > 0 {
                1
            } else {
                0
            }
        }
        Err(e) => {
            eprintln!("serve I/O error: {e}");
            1
        }
    }
}

/// `repro chaos [--scenarios smoke|all|<subsystem>|<name>] [--seed <n>]
/// [--plan <json>]` — the seeded fault-injection sweep. Each scenario arms
/// a fault plan against one subsystem, runs a real workload twice at the
/// same seed, and asserts the fail-soft invariants (survival, typed
/// classification, exact accounting, no cross-job contamination,
/// byte-identical outcome sets). Exit 1 on any violation. `--plan` only
/// validates the JSON wire form of a hand-written plan and prints it back.
fn run_chaos_cmd(args: &[String]) -> i32 {
    if let Some(i) = args.iter().position(|a| a == "--plan") {
        let Some(raw) = args.get(i + 1) else {
            eprintln!("--plan expects a JSON fault-plan argument");
            return 2;
        };
        return match repro_fault::FaultPlan::parse(raw) {
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
    let seed = match args.iter().position(|a| a == "--seed") {
        None => repro_core::CHAOS_SEED,
        Some(i) => match args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
            Some(n) => n,
            None => {
                eprintln!("--seed expects an integer");
                return 2;
            }
        },
    };
    let filter = args
        .iter()
        .position(|a| a == "--scenarios")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("smoke");
    let reports = repro_core::run_chaos(seed, filter);
    if reports.is_empty() {
        eprintln!("no scenario matches `{filter}` (try: smoke, all, cache, sched, sim, serve)");
        return 2;
    }
    println!("{}", repro_core::render_chaos(&reports, seed));
    save_json("chaos", &repro_core::chaos_json(&reports, seed));
    let passed = reports.iter().filter(|r| r.passed()).count();
    eprintln!("chaos: {passed}/{} scenario(s) passed", reports.len());
    if passed == reports.len() {
        0
    } else {
        1
    }
}

/// The on-disk tier of the compile cache for `repro` invocations. The
/// global cache defaults to memory-only; the CLI opts in because its runs
/// are exactly the repeat-compile traffic the disk tier exists for.
const CACHE_DIR: &str = "runs/cache";

fn run_cache(sub: Option<&str>) -> i32 {
    let cache = repro_cache::Cache::new(repro_cache::CacheConfig {
        disk_dir: Some(CACHE_DIR.into()),
        ..Default::default()
    });
    match sub {
        Some("stats") => {
            let stats = repro_cache::disk::DiskStats::scan(CACHE_DIR);
            println!(
                "## Compile cache — {CACHE_DIR} (schema v{})\n",
                stats.schema_version
            );
            println!("| stage | entries | bytes |");
            println!("|---|---:|---:|");
            for (stage, entries, bytes) in &stats.stages {
                println!("| {stage} | {entries} | {bytes} |");
            }
            println!(
                "| **total** | **{}** | **{}** |",
                stats.total_entries, stats.total_bytes
            );
            save_json("cache_stats", &stats);
            0
        }
        Some("clear") => match cache.clear_disk() {
            Ok(removed) => {
                println!("removed {removed} cache entries from {CACHE_DIR}");
                0
            }
            Err(e) => {
                eprintln!("could not clear {CACHE_DIR}: {e}");
                1
            }
        },
        _ => {
            eprintln!("usage: repro cache stats|clear");
            2
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    // Enable the persistent compile cache for every CLI invocation (tests
    // and library users stay memory-only unless they opt in themselves).
    repro_cache::init_global(repro_cache::CacheConfig {
        disk_dir: Some(CACHE_DIR.into()),
        ..Default::default()
    });
    let fast = args.iter().any(|a| a == "--fast");
    let timing = args.iter().any(|a| a == "--timing");
    let level = match args.iter().position(|a| a == "--opt") {
        None => ocl_suite::DEFAULT_OPT,
        Some(i) => match args.get(i + 1).and_then(|s| OptLevel::parse(s)) {
            Some(l) => l,
            None => {
                eprintln!("--opt expects one of: none, basic, reuse, loop");
                std::process::exit(2);
            }
        },
    };
    let workers = match args.iter().position(|a| a == "--workers") {
        None => 1,
        Some(i) => match args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
            Some(n) if n >= 1 => n,
            _ => {
                eprintln!("--workers expects a positive integer");
                std::process::exit(2);
            }
        },
    };
    // One work-stealing pool per invocation, shared by every batch the
    // command submits (`run`, `check`, `serve`, `perf-report`, `fig7`).
    // Idle workers park, so the table commands pay nothing for it.
    let exec = Executor::new(ExecConfig::with_workers(workers));
    // Every invocation records its pipeline spans and a RunManifest; the
    // registry is a single relaxed atomic when nothing reads it, so this
    // costs nothing measurable even on the timing commands.
    repro_util::metrics::enable();
    let mut manifest = RunManifest::new(cmd, &args, host_meta(level, workers));
    let t0 = std::time::Instant::now();
    let code = match cmd {
        "table1" => {
            run_table1(timing);
            0
        }
        "table2" => {
            run_table2();
            0
        }
        "table3" => {
            run_table3();
            0
        }
        "table4" => {
            run_table4();
            0
        }
        "fig7" => run_fig7(&exec, fast),
        "analytic" => {
            run_analytic(level);
            0
        }
        "check" => run_check(&exec, &mut manifest),
        "run" => run_run(&args, &exec, level, &mut manifest),
        "serve" => run_serve(&args, &exec, &mut manifest),
        "top" => run_top_cmd(&args),
        "cache" => run_cache(args.get(1).map(String::as_str)),
        "chaos" => run_chaos_cmd(&args),
        "trace" if args.iter().any(|a| a == "--serve") => run_trace_serve(&args),
        "perf-report" => run_perf_report(&args, workers, &mut manifest),
        "trace" | "profile" | "opt-report" => {
            let Some(bench) = args.get(1).filter(|a| !a.starts_with("--")) else {
                eprintln!("usage: repro {cmd} <bench>");
                std::process::exit(2);
            };
            match cmd {
                "trace" => run_trace(bench, level),
                "profile" => run_profile(bench, level),
                _ => run_opt_report(bench, timing),
            }
            0
        }
        "all" => {
            run_table1(true);
            println!();
            run_table2();
            println!();
            run_table3();
            println!();
            run_table4();
            println!();
            let code = run_fig7(&exec, fast);
            if code == 0 {
                println!();
                run_analytic(level);
            }
            code
        }
        other => {
            eprintln!("unknown command `{other}`; see the crate docs");
            std::process::exit(2);
        }
    };
    manifest.total_wall_secs = t0.elapsed().as_secs_f64();
    manifest.metrics = repro_util::metrics::snapshot();
    match manifest.write("runs") {
        Ok(path) => eprintln!("run manifest: {}", path.display()),
        Err(e) => eprintln!("warning: could not write run manifest: {e}"),
    }
    std::process::exit(code);
}
