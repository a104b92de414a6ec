//! Observer-effect tests for event tracing: attaching a recording sink
//! must not perturb the simulation. A traced run has to produce
//! bit-identical per-launch statistics, final memory, and printf output to
//! an untraced run — under both the event-driven fast-forward loop and the
//! dense reference loop, across a grid of core/warp/thread shapes.
//!
//! The second test pins down the complementary property: the *traces
//! themselves* describe the same execution in both scheduler modes. The
//! dense loop emits one-cycle stall spans and the fast loop emits bulk
//! spans, but after merging adjacent same-kind spans per core
//! ([`canonical_core_events`]) the two event streams must be identical.

use fpga_gpu_repro::arch::VortexConfig;
use fpga_gpu_repro::suite::{
    benchmark, run, Backend, Benchmark, ReproError, RunOutcome, Scale, DEFAULT_OPT,
};
use fpga_gpu_repro::vsim::{canonical_core_events, SimConfig, TraceEvent};

/// `b` at test scale on the Vortex flow, recording each launch's trace
/// events into `events` when given.
fn on_vortex(
    b: &Benchmark,
    cfg: &SimConfig,
    events: Option<&mut Vec<Vec<TraceEvent>>>,
) -> Result<RunOutcome, ReproError> {
    let vortex = Backend::Vortex { cfg: cfg.clone() };
    run(
        &vortex,
        b.source,
        &(b.workload)(Scale::Test),
        Some(DEFAULT_OPT),
        events,
    )
}

// Shapes must satisfy each benchmark's group-size constraint (dotproduct
// runs 16-wide work groups, backprop 64-wide).
type Shape = (u32, u32, u32);

const SHAPES: &[Shape] = &[(1, 4, 4), (1, 2, 8), (2, 4, 8), (2, 8, 16), (1, 16, 4)];
const WIDE_SHAPES: &[Shape] = &[(1, 8, 8), (1, 4, 16), (2, 8, 8), (2, 16, 4)];

fn bench_matrix() -> Vec<(&'static str, &'static [Shape])> {
    vec![
        ("Vecadd", SHAPES),
        ("Dotproduct", SHAPES),
        ("Transpose", SHAPES),
        ("Gaussian", SHAPES),
        ("Backprop", WIDE_SHAPES),
    ]
}

#[test]
fn tracing_does_not_perturb_either_scheduler() {
    for (name, shapes) in bench_matrix() {
        let b = benchmark(name).expect("benchmark exists");
        for &(c, w, t) in shapes {
            for dense in [false, true] {
                let mut cfg = SimConfig::new(VortexConfig::new(c, w, t));
                cfg.reference_mode = dense;
                let mode = if dense { "dense" } else { "fast" };
                let untraced = on_vortex(&b, &cfg, None)
                    .unwrap_or_else(|e| panic!("{name} {c}c{w}w{t}t {mode} untraced: {e}"));
                let mut events = Vec::new();
                let traced = on_vortex(&b, &cfg, Some(&mut events))
                    .unwrap_or_else(|e| panic!("{name} {c}c{w}w{t}t {mode} traced: {e}"));
                assert_eq!(
                    untraced, traced,
                    "{name} {c}c{w}w{t}t {mode}: tracing changed observable state"
                );
                assert_eq!(
                    events.len(),
                    traced.launch_stats.len(),
                    "{name} {c}c{w}w{t}t {mode}: one event stream per launch"
                );
                assert!(
                    events.iter().all(|l| !l.is_empty()),
                    "{name} {c}c{w}w{t}t {mode}: every launch must emit events"
                );
            }
        }
    }
}

#[test]
fn canonical_traces_agree_between_schedulers() {
    for (name, shapes) in bench_matrix() {
        let b = benchmark(name).expect("benchmark exists");
        for &(c, w, t) in shapes {
            let mut cfg = SimConfig::new(VortexConfig::new(c, w, t));
            let mut fast = Vec::new();
            on_vortex(&b, &cfg, Some(&mut fast))
                .unwrap_or_else(|e| panic!("{name} {c}c{w}w{t}t fast: {e}"));
            cfg.reference_mode = true;
            let mut dense = Vec::new();
            on_vortex(&b, &cfg, Some(&mut dense))
                .unwrap_or_else(|e| panic!("{name} {c}c{w}w{t}t dense: {e}"));
            assert_eq!(fast.len(), dense.len());
            for (li, (fl, dl)) in fast.iter().zip(&dense).enumerate() {
                for core in 0..c {
                    assert_eq!(
                        canonical_core_events(fl, core),
                        canonical_core_events(dl, core),
                        "{name} {c}c{w}w{t}t launch {li} core {core}: \
                         canonical traces diverge between schedulers"
                    );
                }
            }
        }
    }
}
