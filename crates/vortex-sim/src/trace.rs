//! Event-level tracing for the cycle simulator.
//!
//! The simulator's run loops and [`Core`](crate::Core) are generic over a
//! [`TraceSink`]; the default [`NopSink`] monomorphizes every emission site
//! to nothing, so the untraced hot path carries zero cost. A sink observes
//! typed [`TraceEvent`]s — warp issues, stall spans (with the same
//! per-cycle classification the stall counters use), barrier traffic,
//! WSPAWN fan-out, cache/MSHR/DRAM activity — and must never influence
//! execution: a traced run is bit-identical to an untraced one in every
//! observable (cycles, stall breakdown, memory, printf output).
//!
//! Stalls are recorded as half-open spans `[from, to)`. The dense reference
//! loop emits one-cycle spans; the event-driven loop emits the failed tick's
//! one-cycle span followed by the bulk span its fast-forward skips. After
//! merging adjacent same-kind spans ([`canonical_core_events`]) the two
//! loops describe the same execution, which the trace tests assert.

use crate::stats::StallKind;

/// Cache level of a [`TraceEvent::CacheAccess`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheLevel {
    /// Per-core data cache.
    Dcache,
    /// Shared L2.
    L2,
}

/// One simulator event, timestamped in simulated cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A warp issued the instruction at `pc` in cycle `cycle`.
    Issue {
        core: u32,
        warp: u32,
        cycle: u64,
        pc: u32,
    },
    /// The core issued nothing over `[from, to)`, classified as `kind` —
    /// exactly the cycles the stall counters attribute to that kind.
    Stall {
        core: u32,
        kind: StallKind,
        from: u64,
        to: u64,
    },
    /// A warp arrived at barrier `(id, count)`; `waiting` warps (including
    /// this one) are now parked on it.
    BarrierArrive {
        core: u32,
        warp: u32,
        cycle: u64,
        id: u32,
        count: u32,
        waiting: u32,
    },
    /// Barrier `(id, count)` released `released` warps.
    BarrierRelease {
        core: u32,
        cycle: u64,
        id: u32,
        count: u32,
        released: u32,
    },
    /// WSPAWN activated warps `1..count` at `entry`.
    Wspawn {
        core: u32,
        warp: u32,
        cycle: u64,
        count: u32,
        entry: u32,
    },
    /// A cache looked up `line_addr` (byte address of the line) at `cycle`.
    CacheAccess {
        core: u32,
        level: CacheLevel,
        cycle: u64,
        line_addr: u32,
        hit: bool,
    },
    /// A D-cache miss occupied an MSHR from `cycle` until `fill`.
    MshrAcquire { core: u32, cycle: u64, fill: u64 },
    /// A DRAM transaction for `line_addr` started at `cycle` and completed
    /// at `done`; `row_hit` is the open-row outcome.
    Dram {
        core: u32,
        cycle: u64,
        line_addr: u32,
        row_hit: bool,
        done: u64,
    },
}

impl TraceEvent {
    /// The core this event belongs to.
    pub fn core(&self) -> u32 {
        match *self {
            TraceEvent::Issue { core, .. }
            | TraceEvent::Stall { core, .. }
            | TraceEvent::BarrierArrive { core, .. }
            | TraceEvent::BarrierRelease { core, .. }
            | TraceEvent::Wspawn { core, .. }
            | TraceEvent::CacheAccess { core, .. }
            | TraceEvent::MshrAcquire { core, .. }
            | TraceEvent::Dram { core, .. } => core,
        }
    }

    /// The cycle the event starts at.
    pub fn start(&self) -> u64 {
        match *self {
            TraceEvent::Issue { cycle, .. }
            | TraceEvent::BarrierArrive { cycle, .. }
            | TraceEvent::BarrierRelease { cycle, .. }
            | TraceEvent::Wspawn { cycle, .. }
            | TraceEvent::CacheAccess { cycle, .. }
            | TraceEvent::MshrAcquire { cycle, .. }
            | TraceEvent::Dram { cycle, .. } => cycle,
            TraceEvent::Stall { from, .. } => from,
        }
    }
}

/// Receiver of simulator events. Implementations must be pure observers:
/// the simulator's behavior is independent of what (if anything) a sink
/// does with the events.
pub trait TraceSink {
    fn event(&mut self, ev: &TraceEvent);
}

/// The default sink: ignores everything. Monomorphization inlines its empty
/// `event` into every emission site, so the untraced run loops compile to
/// the same code they had before tracing existed.
#[derive(Debug, Clone, Copy, Default)]
pub struct NopSink;

impl TraceSink for NopSink {
    #[inline(always)]
    fn event(&mut self, _ev: &TraceEvent) {}
}

/// A sink that records every event in order — the base consumer the
/// Chrome-trace exporter and the profiler build on.
#[derive(Debug, Clone, Default)]
pub struct RecordingSink {
    pub events: Vec<TraceEvent>,
}

impl TraceSink for RecordingSink {
    fn event(&mut self, ev: &TraceEvent) {
        self.events.push(*ev);
    }
}

/// One core's events in canonical form: filtered to `core` and with
/// adjacent same-kind stall spans merged. The dense loop (one-cycle spans)
/// and the event-driven loop (bulk fast-forward spans) both canonicalize to
/// the same sequence for the same execution.
pub fn canonical_core_events(events: &[TraceEvent], core: u32) -> Vec<TraceEvent> {
    let mut out: Vec<TraceEvent> = Vec::new();
    for &ev in events.iter().filter(|e| e.core() == core) {
        if let TraceEvent::Stall { kind, from, to, .. } = ev {
            if let Some(TraceEvent::Stall {
                kind: pk, to: pt, ..
            }) = out.last_mut()
            {
                if *pk == kind && *pt == from {
                    *pt = to;
                    continue;
                }
            }
        }
        out.push(ev);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_sink_keeps_order() {
        let mut s = RecordingSink::default();
        let a = TraceEvent::Issue {
            core: 0,
            warp: 1,
            cycle: 5,
            pc: 2,
        };
        let b = TraceEvent::Stall {
            core: 0,
            kind: StallKind::Scoreboard,
            from: 6,
            to: 7,
        };
        s.event(&a);
        s.event(&b);
        assert_eq!(s.events, vec![a, b]);
    }

    #[test]
    fn canonicalization_merges_adjacent_stalls() {
        let per_cycle: Vec<TraceEvent> = (10..14)
            .map(|c| TraceEvent::Stall {
                core: 0,
                kind: StallKind::Scoreboard,
                from: c,
                to: c + 1,
            })
            .collect();
        let bulk = vec![
            TraceEvent::Stall {
                core: 0,
                kind: StallKind::Scoreboard,
                from: 10,
                to: 11,
            },
            TraceEvent::Stall {
                core: 0,
                kind: StallKind::Scoreboard,
                from: 11,
                to: 14,
            },
        ];
        assert_eq!(
            canonical_core_events(&per_cycle, 0),
            canonical_core_events(&bulk, 0)
        );
        assert_eq!(canonical_core_events(&per_cycle, 0).len(), 1);
    }

    #[test]
    fn canonicalization_respects_kind_and_gaps() {
        let evs = vec![
            TraceEvent::Stall {
                core: 0,
                kind: StallKind::Scoreboard,
                from: 0,
                to: 1,
            },
            TraceEvent::Stall {
                core: 0,
                kind: StallKind::LsuFull,
                from: 1,
                to: 2,
            },
            TraceEvent::Stall {
                core: 0,
                kind: StallKind::LsuFull,
                from: 3,
                to: 4,
            },
            TraceEvent::Stall {
                core: 1,
                kind: StallKind::LsuFull,
                from: 4,
                to: 5,
            },
        ];
        let c0 = canonical_core_events(&evs, 0);
        assert_eq!(c0.len(), 3, "kind change and gap both break merging");
        assert_eq!(canonical_core_events(&evs, 1).len(), 1);
    }
}
