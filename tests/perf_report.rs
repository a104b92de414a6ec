//! Integration tests for the `repro perf-report` pipeline dashboard.
//!
//! Lives in its own integration binary (= its own process) on purpose: the
//! metrics registry is global, and the collection pass enables it, so these
//! tests must not share a process with unit tests that compile or run
//! benchmarks concurrently. Within this binary, every test that touches the
//! registry serializes on [`lock`].
//!
//! The golden pins the deterministic rendering (`timing: false`: cycle
//! counts, stage names + observation counts, failure classes — no
//! wall-clock). Regenerate after an intentional change with
//! `REGOLD=1 cargo test --test perf_report`.

use fpga_gpu_repro::arch::VortexConfig;
use fpga_gpu_repro::obs;
use fpga_gpu_repro::repro::{collect_perf, render_perf_html, render_perf_markdown, PerfOptions};
use fpga_gpu_repro::suite::{benchmark, run_vortex, Scale};
use fpga_gpu_repro::vsim::SimConfig;
use repro_util::metrics;
use std::sync::{Mutex, MutexGuard};

fn lock() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn perf_report_markdown_matches_golden() {
    let _g = lock();
    // Warm the global compile cache with exactly the run
    // `metrics_disabled_are_observably_free` performs, so the stage counts
    // below don't depend on whether that test happened to run first (test
    // order changes under `--test-threads` > 1 or a name filter).
    let b = benchmark("Vecadd").unwrap();
    run_vortex(&b, Scale::Test, &SimConfig::new(VortexConfig::new(4, 8, 8))).unwrap();
    let report = collect_perf(&PerfOptions::default());
    metrics::reset();
    assert_eq!(report.rows.len(), 28, "suite sweep covers every benchmark");
    assert!(!report.stages.is_empty());
    let rendered = render_perf_markdown(&report, None, false);
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/perf_report.md");
    if std::env::var_os("REGOLD").is_some() {
        std::fs::write(golden_path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file missing — run with REGOLD=1 to create it");
    assert_eq!(
        rendered, golden,
        "perf-report output changed; if intentional, regenerate with REGOLD=1"
    );
    // The HTML dashboard renders the same report without panicking and
    // stays self-contained (no external asset, no script).
    let html = render_perf_html(&report, None);
    assert!(html.contains("Pipeline stage time"));
    assert!(!html.contains("<script") && !html.contains("http://") && !html.contains("https://"));
}

#[test]
fn metrics_disabled_are_observably_free() {
    let _g = lock();
    metrics::disable();
    metrics::reset();
    let b = benchmark("Vecadd").unwrap();
    let cfg = SimConfig::new(VortexConfig::new(4, 8, 8));
    // One Figure 7 cell with the registry off: nothing is recorded…
    let off = run_vortex(&b, Scale::Test, &cfg).unwrap();
    assert!(
        metrics::snapshot().is_empty(),
        "disabled registry must record nothing"
    );
    // …the windowed view is empty too (disarmed cost is one relaxed load)…
    let w = metrics::window_snapshot();
    assert!(w.counters.is_empty() && w.histograms.is_empty());
    // …and the simulation itself is bit-identical to an instrumented run.
    metrics::enable();
    let on = run_vortex(&b, Scale::Test, &cfg).unwrap();
    let snap = metrics::snapshot();
    metrics::disable();
    metrics::reset();
    assert_eq!(off.cycles, on.cycles);
    assert_eq!(off.instructions, on.instructions);
    assert_eq!(off.printf_output, on.printf_output);
    assert!(snap.histogram("suite.vortex.launch").is_some());
    assert!(snap.counter("suite.runs.vortex").unwrap_or(0) >= 1);
}

#[test]
fn windowed_and_armed_observability_stay_bit_identical() {
    let _g = lock();
    // Disarmed observability records nothing: no spans outside a job, no
    // events, nothing in the windowed registry.
    metrics::disable();
    metrics::reset();
    metrics::window_reset();
    obs::disarm();
    let b = benchmark("Vecadd").unwrap();
    let cfg = SimConfig::new(VortexConfig::new(4, 8, 8));
    let off = run_vortex(&b, Scale::Test, &cfg).unwrap();
    obs::event("smoke", "never recorded while disarmed");
    assert_eq!(obs::drain_events().0.len(), 0);
    let w = metrics::window_snapshot();
    assert!(w.counters.is_empty() && w.histograms.is_empty());
    // The full serve-style arming — cumulative + windowed metrics + obs —
    // changes nothing about what the simulator computes…
    metrics::enable();
    metrics::window_enable();
    obs::arm();
    let on = run_vortex(&b, Scale::Test, &cfg).unwrap();
    let w = metrics::window_snapshot();
    // …while the windowed registry now sees the run.
    obs::disarm();
    metrics::window_disable();
    metrics::disable();
    metrics::reset();
    metrics::window_reset();
    assert_eq!(off.cycles, on.cycles);
    assert_eq!(off.instructions, on.instructions);
    assert_eq!(off.printf_output, on.printf_output);
    assert!(
        w.counter("suite.runs.vortex") >= 1,
        "windowed registry must see the armed run"
    );
    assert!(w.histogram("suite.vortex.launch").is_some());
}
