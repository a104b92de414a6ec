//! Differential harness for the simulator's two run loops: run each
//! benchmark under the fast-forward event loop and the dense reference
//! loop (`SimConfig::reference_mode`), untraced and traced, and require
//! *bit-identical* results — per-launch cycle counts, the full stall
//! breakdown, cache/DRAM counters, final buffer contents, printf output,
//! and canonical per-core trace events.
//!
//! The benchmark set is chosen to cover the stall sources the scheduler
//! reasons about: vecadd/transpose (MSHR/LSU pressure and DRAM row
//! behavior), dotproduct and backprop (BAR barriers and WSPAWN fan-out,
//! multi-kernel launches), gaussian (divergent control flow with long
//! dependence chains), across one-, two- and four-core shapes (the last is
//! what `sim-paper` and Fig. 7 run: an epoch commit there merges four
//! views).

use fpga_gpu_repro::arch::VortexConfig;
use fpga_gpu_repro::suite::{benchmark, run_vortex_events, run_vortex_trace, Scale};
use fpga_gpu_repro::vsim::{canonical_core_events, SimConfig};

// Shapes must satisfy each benchmark's group-size constraint (dotproduct
// runs 16-wide work groups, backprop 64-wide: the group must be a multiple
// of threads/warp and fit in warps×threads).
type Shape = (u32, u32, u32);

const SHAPES: &[Shape] = &[
    (1, 4, 4),
    (1, 2, 8),
    (2, 4, 8),
    (2, 8, 16),
    (1, 16, 4),
    (4, 4, 8),
];
const WIDE_SHAPES: &[Shape] = &[(1, 8, 8), (1, 4, 16), (2, 8, 8), (2, 16, 4), (4, 8, 8)];

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
fn fast_forward_is_bit_identical_to_dense_loop() {
    for (name, shapes) in bench_matrix() {
        let b = benchmark(name).expect("benchmark exists");
        for &(c, w, t) in shapes {
            let mut fast_cfg = SimConfig::new(VortexConfig::new(c, w, t));
            assert!(!fast_cfg.reference_mode, "fast-forward must be the default");
            let fast = run_vortex_trace(&b, Scale::Test, &fast_cfg)
                .unwrap_or_else(|e| panic!("{name} {c}c{w}w{t}t fast: {e}"));

            fast_cfg.reference_mode = true;
            let dense = run_vortex_trace(&b, Scale::Test, &fast_cfg)
                .unwrap_or_else(|e| panic!("{name} {c}c{w}w{t}t dense: {e}"));

            assert_eq!(
                fast.launch_stats, dense.launch_stats,
                "{name} {c}c{w}w{t}t: stats diverge between schedulers"
            );
            assert_eq!(
                fast.buffers, dense.buffers,
                "{name} {c}c{w}w{t}t: final memory diverges between schedulers"
            );
            assert_eq!(
                fast.printf_output, dense.printf_output,
                "{name} {c}c{w}w{t}t: printf output diverges between schedulers"
            );
        }
    }
}

/// Traced, the two run loops must agree bit-for-bit on every observable:
/// launch stats (cycles, stall breakdown, cache/DRAM counters), final
/// memory, printf output, and the canonical per-core trace event stream.
/// The dense loop is the oracle; each raw event stream is canonicalized
/// per core (the event loop's bulk stall spans against the dense loop's
/// one-cycle ones) before comparison.
#[test]
fn traced_run_loops_are_bit_identical() {
    for (name, shapes) in bench_matrix() {
        let b = benchmark(name).expect("benchmark exists");
        for &(c, w, t) in shapes {
            let mut cfg = SimConfig::new(VortexConfig::new(c, w, t));
            cfg.reference_mode = true;
            let (oracle, oracle_events) = run_vortex_events(&b, Scale::Test, &cfg)
                .unwrap_or_else(|e| panic!("{name} {c}c{w}w{t}t dense: {e}"));
            let canon = |launches: &Vec<Vec<fpga_gpu_repro::vsim::TraceEvent>>| -> Vec<_> {
                launches
                    .iter()
                    .map(|evs| {
                        (0..c)
                            .map(|core| canonical_core_events(evs, core))
                            .collect::<Vec<_>>()
                    })
                    .collect()
            };
            cfg.reference_mode = false;
            let (got, got_events) = run_vortex_events(&b, Scale::Test, &cfg)
                .unwrap_or_else(|e| panic!("{name} {c}c{w}w{t}t events: {e}"));
            let what = format!("{name} {c}c{w}w{t}t");
            assert_eq!(got.launch_stats, oracle.launch_stats, "{what}: stats");
            assert_eq!(got.buffers, oracle.buffers, "{what}: final memory");
            assert_eq!(got.printf_output, oracle.printf_output, "{what}: printf");
            assert_eq!(
                canon(&got_events),
                canon(&oracle_events),
                "{what}: trace events"
            );
        }
    }
}

/// The stall breakdown must tile the timeline in both modes: every cycle a
/// core is live is either an issue or exactly one kind of stall, so the
/// bulk-accounted fast path can't silently drop or double-count cycles.
#[test]
fn stall_breakdown_accounts_for_every_cycle_single_core() {
    for &name in &["Vecadd", "Dotproduct", "Gaussian"] {
        let b = benchmark(name).expect("benchmark exists");
        let cfg = SimConfig::new(VortexConfig::new(1, 4, 8));
        let trace =
            run_vortex_trace(&b, Scale::Test, &cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        for (li, s) in trace.launch_stats.iter().enumerate() {
            let accounted =
                s.instructions + s.stall_scoreboard + s.stall_lsu + s.stall_barrier + s.stall_idle;
            assert_eq!(
                accounted, s.cycles,
                "{name} launch {li}: {} issued + stalled cycles vs {} total",
                accounted, s.cycles
            );
        }
    }
}
