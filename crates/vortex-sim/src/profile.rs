//! Trace-driven profiling: aggregate a launch's [`TraceEvent`] stream into
//! a hot-PC histogram, a per-core / per-warp issue breakdown, and a
//! stall-attribution table that must tile *exactly* with the launch's
//! [`SimStats`] counters (`verify_tiling` checks it). The profile is pure
//! aggregation — it never re-runs or re-times anything, so it is valid for
//! both scheduler modes.

use crate::stats::{SimStats, StallKind};
use crate::trace::{CacheLevel, TraceEvent};

/// Per-core slice of a [`LaunchProfile`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreProfile {
    pub issued: u64,
    /// Stall cycles indexed by [`StallKind::index`].
    pub stalls: [u64; 4],
    /// Instructions issued per warp (index = warp id).
    pub warp_issues: Vec<u64>,
}

/// Aggregated view of one launch's event trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LaunchProfile {
    pub instructions: u64,
    /// Stall cycles indexed by [`StallKind::index`].
    pub stalls: [u64; 4],
    /// `(pc, issue count)` sorted by count descending, then pc ascending.
    pub hot_pcs: Vec<(u32, u64)>,
    pub per_core: Vec<CoreProfile>,
    pub dcache_hits: u64,
    pub dcache_misses: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub dram_accesses: u64,
    pub dram_row_hits: u64,
    pub mshr_acquires: u64,
    pub barrier_arrivals: u64,
    pub barrier_releases: u64,
    pub wspawns: u64,
}

impl LaunchProfile {
    /// Build a profile from one launch's recorded events.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut p = LaunchProfile::default();
        let mut pc_counts: Vec<(u32, u64)> = Vec::new();
        fn core(p: &mut LaunchProfile, c: u32) -> &mut CoreProfile {
            let idx = c as usize;
            if p.per_core.len() <= idx {
                p.per_core.resize(idx + 1, CoreProfile::default());
            }
            &mut p.per_core[idx]
        }
        for ev in events {
            match *ev {
                TraceEvent::Issue {
                    core: c, warp, pc, ..
                } => {
                    p.instructions += 1;
                    let cp = core(&mut p, c);
                    cp.issued += 1;
                    let wi = warp as usize;
                    if cp.warp_issues.len() <= wi {
                        cp.warp_issues.resize(wi + 1, 0);
                    }
                    cp.warp_issues[wi] += 1;
                    match pc_counts.binary_search_by_key(&pc, |&(k, _)| k) {
                        Ok(i) => pc_counts[i].1 += 1,
                        Err(i) => pc_counts.insert(i, (pc, 1)),
                    }
                }
                TraceEvent::Stall {
                    core: c,
                    kind,
                    from,
                    to,
                } => {
                    let cycles = to - from;
                    p.stalls[kind.index()] += cycles;
                    core(&mut p, c).stalls[kind.index()] += cycles;
                }
                TraceEvent::CacheAccess { level, hit, .. } => match (level, hit) {
                    (CacheLevel::Dcache, true) => p.dcache_hits += 1,
                    (CacheLevel::Dcache, false) => p.dcache_misses += 1,
                    (CacheLevel::L2, true) => p.l2_hits += 1,
                    (CacheLevel::L2, false) => p.l2_misses += 1,
                },
                TraceEvent::Dram { row_hit, .. } => {
                    p.dram_accesses += 1;
                    p.dram_row_hits += row_hit as u64;
                }
                TraceEvent::MshrAcquire { .. } => p.mshr_acquires += 1,
                TraceEvent::BarrierArrive { .. } => p.barrier_arrivals += 1,
                TraceEvent::BarrierRelease { .. } => p.barrier_releases += 1,
                TraceEvent::Wspawn { .. } => p.wspawns += 1,
            }
        }
        pc_counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        p.hot_pcs = pc_counts;
        p
    }

    /// Total stall cycles attributed to `kind`.
    pub fn stall_of(&self, kind: StallKind) -> u64 {
        self.stalls[kind.index()]
    }

    /// Total stall cycles across every kind.
    pub fn stall_total(&self) -> u64 {
        self.stalls.iter().sum()
    }

    /// Stall kinds with their cycle totals, heaviest first — the "top stall
    /// sources" ordering reports surface.
    pub fn stall_ranking(&self) -> Vec<(StallKind, u64)> {
        let mut v: Vec<(StallKind, u64)> = StallKind::ALL
            .iter()
            .map(|&k| (k, self.stall_of(k)))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.index().cmp(&b.0.index())));
        v
    }

    /// Check that this profile tiles exactly with the launch's counter
    /// statistics: every issued instruction and every attributed stall
    /// cycle in the trace is one counted by `stats`, kind by kind, and the
    /// memory-hierarchy event counts match the aggregate counters.
    pub fn verify_tiling(&self, stats: &SimStats) -> Result<(), String> {
        let mut errs = Vec::new();
        let mut check = |what: &str, got: u64, want: u64| {
            if got != want {
                errs.push(format!("{what}: trace {got} vs stats {want}"));
            }
        };
        check("instructions", self.instructions, stats.instructions);
        for kind in StallKind::ALL {
            check(
                &format!("stall[{}]", kind.label()),
                self.stall_of(kind),
                stats.stall_of(kind),
            );
        }
        check("dcache hits", self.dcache_hits, stats.dcache_hits);
        check("dcache misses", self.dcache_misses, stats.dcache_misses);
        check("l2 hits", self.l2_hits, stats.l2_hits);
        check("l2 misses", self.l2_misses, stats.l2_misses);
        check("dram accesses", self.dram_accesses, stats.dram_accesses);
        check("dram row hits", self.dram_row_hits, stats.dram_row_hits);
        check(
            "mshr acquires (one per dcache miss)",
            self.mshr_acquires,
            stats.dcache_misses,
        );
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs.join("; "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issue(core: u32, warp: u32, cycle: u64, pc: u32) -> TraceEvent {
        TraceEvent::Issue {
            core,
            warp,
            cycle,
            pc,
        }
    }

    #[test]
    fn aggregates_issues_and_stalls() {
        let evs = vec![
            issue(0, 0, 0, 7),
            issue(0, 1, 1, 7),
            issue(1, 0, 1, 3),
            TraceEvent::Stall {
                core: 0,
                kind: StallKind::Scoreboard,
                from: 2,
                to: 10,
            },
            TraceEvent::Stall {
                core: 1,
                kind: StallKind::LsuFull,
                from: 2,
                to: 5,
            },
        ];
        let p = LaunchProfile::from_events(&evs);
        assert_eq!(p.instructions, 3);
        assert_eq!(p.hot_pcs, vec![(7, 2), (3, 1)]);
        assert_eq!(p.stall_of(StallKind::Scoreboard), 8);
        assert_eq!(p.stall_of(StallKind::LsuFull), 3);
        assert_eq!(p.stall_total(), 11);
        assert_eq!(p.per_core[0].issued, 2);
        assert_eq!(p.per_core[0].warp_issues, vec![1, 1]);
        assert_eq!(p.per_core[0].stalls[StallKind::Scoreboard.index()], 8);
        assert_eq!(p.per_core[1].issued, 1);
        assert_eq!(p.per_core[1].stalls[StallKind::LsuFull.index()], 3);
        assert_eq!(p.stall_ranking()[0], (StallKind::Scoreboard, 8));
    }

    #[test]
    fn tiling_catches_mismatches() {
        let evs = vec![issue(0, 0, 0, 0)];
        let p = LaunchProfile::from_events(&evs);
        let mut stats = SimStats {
            instructions: 1,
            ..SimStats::default()
        };
        assert!(p.verify_tiling(&stats).is_ok());
        stats.stall_lsu = 5;
        let err = p.verify_tiling(&stats).unwrap_err();
        assert!(err.contains("stall[lsu]"), "{err}");
    }
}
