//! Structural invariants of the trace artifacts: the Chrome-trace export
//! is well-formed JSON (validated with the in-tree parser), timestamps are
//! monotone within every track, and the exported event durations tile each
//! launch's issued + stalled cycle totals exactly — the same accounting
//! identity the simulator's counter statistics obey. A golden-file test
//! pins the rendered `repro profile` output for one small benchmark.
//!
//! Regenerate the golden file after an intentional change with:
//! `REGOLD=1 cargo test --test trace_invariants`.

use fpga_gpu_repro::arch::VortexConfig;
use fpga_gpu_repro::repro::chrome_trace::{chrome_trace, STALL_TID};
use fpga_gpu_repro::repro::report::{render_profile, ProfileSection};
use fpga_gpu_repro::suite::{benchmark, run, Backend, Benchmark, RunOutcome, Scale, DEFAULT_OPT};
use fpga_gpu_repro::vsim::{LaunchProfile, SimConfig, TraceEvent};
use repro_util::Json;

#[path = "support/golden.rs"]
mod golden;

/// The machine shape `repro trace` / `repro profile` use.
fn trace_config() -> SimConfig {
    SimConfig::new(VortexConfig::new(1, 8, 8))
}

/// `b` at test scale on `cfg`, with each launch's trace events.
fn traced_on(b: &Benchmark, cfg: &SimConfig) -> (RunOutcome, Vec<Vec<TraceEvent>>) {
    let vortex = Backend::Vortex { cfg: cfg.clone() };
    let mut events = Vec::new();
    let w = (b.workload)(Scale::Test);
    let trace = run(&vortex, b.source, &w, Some(DEFAULT_OPT), Some(&mut events))
        .unwrap_or_else(|e| panic!("{e}"));
    (trace, events)
}

fn traced(name: &str) -> (Benchmark, RunOutcome, Vec<Vec<TraceEvent>>) {
    let b = benchmark(name).expect("benchmark exists");
    let (trace, events) = traced_on(&b, &trace_config());
    (b, trace, events)
}

#[test]
fn chrome_export_parses_and_is_monotone_per_track() {
    for name in ["Vecadd", "Dotproduct"] {
        let (_, _, events) = traced(name);
        let doc = chrome_trace(&events);
        let parsed = Json::parse(&doc.to_pretty())
            .unwrap_or_else(|e| panic!("{name}: export is not valid JSON: {e}"));
        let rows = parsed
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("{name}: missing traceEvents array"));
        assert!(!rows.is_empty(), "{name}: empty trace");
        let mut last: Option<(u64, u64, u64)> = None;
        for row in rows {
            let ph = row.get("ph").and_then(|v| v.as_str()).unwrap();
            if ph == "M" {
                continue;
            }
            let pid = row.get("pid").and_then(|v| v.as_u64()).unwrap();
            let tid = row.get("tid").and_then(|v| v.as_u64()).unwrap();
            let ts = row.get("ts").and_then(|v| v.as_u64()).unwrap();
            if let Some((lp, lt, lts)) = last {
                assert!(
                    (pid, tid) != (lp, lt) || ts >= lts,
                    "{name}: track ({pid},{tid}) goes backwards: {ts} after {lts}"
                );
            }
            last = Some((pid, tid, ts));
        }
    }
}

/// In the exported JSON, the issue durations on the warp tracks plus the
/// stall-span durations tile each launch's `issued + stalled` cycle total.
#[test]
fn chrome_export_durations_tile_launch_totals() {
    for name in ["Vecadd", "Dotproduct", "Backprop"] {
        let (_, trace, events) = traced(name);
        let doc = chrome_trace(&events);
        let rows = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        let mut issued = vec![0u64; events.len()];
        let mut stalled = vec![0u64; events.len()];
        for row in rows {
            let (Some(dur), Some(tid)) = (
                row.get("dur").and_then(|v| v.as_u64()),
                row.get("tid").and_then(|v| v.as_u64()),
            ) else {
                continue;
            };
            let launch = row
                .get("args")
                .and_then(|a| a.get("launch"))
                .and_then(|v| v.as_u64())
                .unwrap() as usize;
            if tid < STALL_TID {
                issued[launch] += dur;
            } else if tid == STALL_TID {
                stalled[launch] += dur;
            }
        }
        for (li, stats) in trace.launch_stats.iter().enumerate() {
            assert_eq!(
                issued[li], stats.instructions,
                "{name} launch {li}: warp-track durations vs issued instructions"
            );
            let stall_total =
                stats.stall_scoreboard + stats.stall_lsu + stats.stall_barrier + stats.stall_idle;
            assert_eq!(
                stalled[li], stall_total,
                "{name} launch {li}: stall-track durations vs stall cycles"
            );
            assert_eq!(
                issued[li] + stalled[li],
                stats.cycles,
                "{name} launch {li}: durations must tile the issued+stalled total"
            );
        }
    }
}

/// The aggregated [`LaunchProfile`] tiles exactly with the simulator's
/// counter statistics, launch by launch, in both scheduler modes.
#[test]
fn profile_tiles_with_stats_in_both_modes() {
    for name in ["Vecadd", "Dotproduct", "Gaussian", "Backprop"] {
        let b = benchmark(name).expect("benchmark exists");
        for dense in [false, true] {
            let mut cfg = trace_config();
            cfg.reference_mode = dense;
            let (trace, events) = traced_on(&b, &cfg);
            for (li, (evs, stats)) in events.iter().zip(&trace.launch_stats).enumerate() {
                let p = LaunchProfile::from_events(evs);
                p.verify_tiling(stats).unwrap_or_else(|e| {
                    panic!(
                        "{name} launch {li} ({}): {e}",
                        if dense { "dense" } else { "fast" }
                    )
                });
            }
        }
    }
}

/// Golden-file pin of the rendered profile for one small benchmark — the
/// same rendering path `repro profile Vecadd` prints.
#[test]
fn vecadd_profile_matches_golden_file() {
    let (b, trace, events) = traced("Vecadd");
    let cfg = trace_config();
    // Disassembly must come from the same optimized module the run executed.
    let module = fpga_gpu_repro::cache::global()
        .optimize(b.source, DEFAULT_OPT)
        .unwrap_or_else(|e| panic!("{e}"));
    let opts = vortex_cc::CodegenOpts {
        threads: cfg.hw.threads,
    };
    let w = (b.workload)(Scale::Test);
    let sections: Vec<ProfileSection> = events
        .iter()
        .zip(&w.launches)
        .zip(&trace.launch_stats)
        .map(|((evs, l), stats)| {
            let profile = LaunchProfile::from_events(evs);
            profile.verify_tiling(stats).unwrap();
            let disasm = module
                .kernel(l.kernel)
                .and_then(|k| vortex_cc::compile_kernel(k, &opts).ok())
                .map(|c| c.program.instrs.iter().map(|i| i.to_string()).collect())
                .unwrap_or_default();
            ProfileSection {
                kernel: l.kernel.to_string(),
                profile,
                disasm,
            }
        })
        .collect();
    let rendered = render_profile(b.name, &sections, 8);
    golden::check("vecadd_profile.md", &rendered, "profile output");
}
