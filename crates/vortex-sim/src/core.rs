//! One SIMT core: warps, register files, scoreboard, LSU and the Vortex
//! SIMT control-flow semantics (Figure 4 of the paper).
//!
//! Issuing a warp instruction costs one read of a pre-decoded `Op` (from
//! the kernel's decode-once table, or decoded on the spot in
//! `reference_mode`), one switch on its opcode in `Core::execute`, and one
//! write of the warp's issue snapshot. The snapshot — the first cycle the
//! scoreboard operands of the op at the warp's PC are ready, and whether it
//! goes through the LSU — is written wherever that PC or those ready-times
//! change (the end of the warp's own issue, WSPAWN, launch start), so the
//! per-cycle scan always reads a current one.

use std::cmp::Ordering;

use crate::cache::Cache;
use crate::mem::SimMemory;
use crate::memsys::MemView;
use crate::stats::{CoreStats, StallKind};
use crate::tcache::{Op, Text};
use crate::trace::{CacheLevel, TraceEvent, TraceSink};
use crate::{SimConfig, MAX_THREADS, MAX_WARPS, MSHRS};
use repro_util::diag::ReproError;
use vortex_isa::encode::Opcode as O;
use vortex_isa::layout::{PRINTF_BASE, PRINTF_STRIDE};
use vortex_isa::{AluOp, AmoOp, CvtOp, FpCmpOp, FpOp, FpUnOp, MulOp, PrintArg, Program};

// Execution-unit latencies in cycles.
const LAT_ALU: u32 = 2;
const LAT_MUL: u32 = 4;
const LAT_DIV: u32 = 16;
const LAT_FPU: u32 = 6;
const LAT_FDIV: u32 = 16;
const LAT_SFU: u32 = 12;
/// D-cache hit latency.
const LAT_DCACHE: u32 = 2;
/// L2 hit latency.
const LAT_L2: u32 = 10;

/// IPDOM stack entries for SPLIT/JOIN (§II-D).
#[derive(Debug, Clone, Copy)]
enum Ipdom {
    /// Restore this mask and continue at the join target.
    Reconv { mask: u64 },
    /// Run the else path at `pc` with this mask, keeping the Reconv entry
    /// below for the second JOIN.
    Else { mask: u64, pc: u32 },
}

#[derive(Debug, Clone)]
struct Warp {
    active: bool,
    pc: u32,
    tmask: u64,
    stack: Vec<Ipdom>,
    /// Some((id, count)) while waiting at a barrier.
    barrier: Option<(u32, u32)>,
}

/// Outcome of one `Core::tick`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickResult {
    /// A warp-instruction issued this cycle.
    Issued,
    /// Nothing could issue; the cycle was accounted to a stall counter.
    Stalled,
}

/// Iterator over the set bits of a thread mask — the active lanes of a
/// warp. Replaces a per-instruction `Vec<u32>` collect in the execute
/// stage.
#[derive(Debug, Clone, Copy)]
struct Lanes(u64);

impl Iterator for Lanes {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.0 == 0 {
            return None;
        }
        let t = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(t)
    }
}

/// A warp's issue snapshot: the first cycle the scoreboard operands of the
/// op at its PC are ready, and whether that op goes through the LSU. A PC
/// outside the program reads as ready now and not a memory op, so the scan
/// funnels the warp into the issue path, whose fetch raises the fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Snap {
    ready_at: u64,
    mem: bool,
}

/// A single core.
pub struct Core {
    id: u32,
    warps_n: u32,
    threads_n: u32,
    warps: Vec<Warp>,
    /// Integer registers: [warp][reg][lane]. Row 0 of every warp (`x0`)
    /// is all-zero and never written, so the read side needs no `x0`
    /// branch.
    iregs: Vec<u32>,
    /// Float registers, same layout.
    fregs: Vec<u32>,
    /// Copy of a destination row that is also a source of the same
    /// instruction, taken before the lane kernel overwrites it (see
    /// [`split_rows`]).
    row_tmp: [u32; 64],
    /// Scoreboard: cycle each register becomes ready, 64 entries per warp
    /// — integer `r` at `r`, float `r` at `32 + r` (the indices in
    /// [`Op::sb`]). Entry 0 (`x0`) is never written and stays 0.
    ready: Vec<u64>,
    /// MSHR slots: cycle each becomes free.
    mshr_free: Vec<u64>,
    /// Cached `min(mshr_free)`. Slot times only move at miss allocation
    /// (and reset), so the issue scan reads this instead of re-scanning
    /// the slots every tick.
    mshr_min: u64,
    /// LSU pipeline: next cycle the LSU can accept a line.
    lsu_next_free: u64,
    dcache: Cache,
    rr_next: usize,
    full_mask: u64,
    /// Live warp count, maintained at the activation/halt sites so
    /// [`any_active`](Core::any_active) — which every run loop polls — is
    /// O(1) instead of an O(warps) scan.
    active_n: u32,
    /// Per-warp issue snapshot. Its ready cycle and LSU flag are a
    /// function of the warp's PC and its own register ready-times, and
    /// those change *only* when the warp itself issues, is respawned or is
    /// reset — other warps' issues touch shared LSU/MSHR state, which is
    /// deliberately kept out of the snapshot. So the snapshot is written
    /// exactly there (the end of the warp's issue, WSPAWN, launch start)
    /// and is current whenever the scan reads it: one ready cycle and one
    /// flag per blocked warp.
    snap: Vec<Snap>,
    /// Bit per warp: active and not parked at a barrier — the candidates
    /// the per-cycle issue scan must consider. Maintained at the
    /// activation/halt/park/release sites so the scan reads *no* per-warp
    /// state for warps that cannot issue.
    ready_mask: u64,
    /// Bit per warp: active but parked at a barrier (the scan's
    /// barrier-stall classification).
    parked_mask: u64,
    /// Warps currently parked per (barrier id, release count), updated at
    /// arrival time so barrier release costs O(arrivals), not a per-cycle
    /// O(warps²) rescan. At most a handful of barriers are ever live, so a
    /// small vec beats a hash map.
    barrier_waiters: Vec<((u32, u32), u32)>,
    /// After a tick that issued nothing: the earliest cycle some warp could
    /// issue (`u64::MAX` if only barrier-parked warps remain). Computed as
    /// a by-product of the issue scan so the event-driven run loop never
    /// needs a second pass over the warps.
    next_event: u64,
    num_cores: u32,
    pub stats: CoreStats,
}

impl Core {
    pub fn new(id: u32, cfg: &SimConfig) -> Self {
        let w = cfg.hw.warps;
        let t = cfg.hw.threads;
        assert!(t <= MAX_THREADS, "thread mask is 64 bits");
        assert!(w <= MAX_WARPS, "warp mask is 64 bits");
        let regs = (w * 32 * t) as usize;
        Core {
            id,
            warps_n: w,
            threads_n: t,
            warps: vec![
                Warp {
                    active: false,
                    pc: 0,
                    tmask: 0,
                    stack: Vec::new(),
                    barrier: None,
                };
                w as usize
            ],
            iregs: vec![0; regs],
            fregs: vec![0; regs],
            row_tmp: [0; 64],
            ready: vec![0; (w * 64) as usize],
            mshr_free: vec![0; MSHRS as usize],
            mshr_min: 0,
            lsu_next_free: 0,
            dcache: Cache::new(cfg.dcache),
            rr_next: 0,
            full_mask: if t == 64 { u64::MAX } else { (1u64 << t) - 1 },
            active_n: 0,
            snap: vec![
                Snap {
                    ready_at: 0,
                    mem: false,
                };
                w as usize
            ],
            ready_mask: 0,
            parked_mask: 0,
            barrier_waiters: Vec::new(),
            next_event: 0,
            num_cores: cfg.hw.cores,
            stats: CoreStats::default(),
        }
    }

    /// Activate warp 0 with one thread at `entry` (runtime doorbell).
    pub(crate) fn reset_for_launch(&mut self, entry: u32, text: Text) {
        for w in &mut self.warps {
            w.active = false;
            w.tmask = 0;
            w.stack.clear();
            w.barrier = None;
        }
        self.warps[0].active = true;
        self.warps[0].pc = entry;
        self.warps[0].tmask = 1;
        self.active_n = 1;
        self.ready_mask = 1;
        self.parked_mask = 0;
        self.iregs.fill(0);
        self.fregs.fill(0);
        self.ready.fill(0);
        self.mshr_free.fill(0);
        self.mshr_min = 0;
        self.lsu_next_free = 0;
        self.dcache.flush();
        self.rr_next = 0;
        self.write_snap(0, entry, text);
        self.barrier_waiters.clear();
        self.next_event = 0;
        // Counters are per-launch: each `Simulator::run` reports only its
        // own work, so a launch's issued + stalled cycles tile its runtime.
        self.stats = CoreStats::default();
    }

    /// True while any warp is live.
    pub fn any_active(&self) -> bool {
        debug_assert_eq!(
            self.active_n > 0,
            self.warps.iter().any(|w| w.active),
            "live-warp count drifted from the warp states"
        );
        self.active_n > 0
    }

    /// Write warp `wi`'s issue snapshot from its PC `pc` and its register
    /// ready-times.
    #[inline(always)]
    fn write_snap(&mut self, wi: usize, pc: u32, text: Text) {
        self.snap[wi] = match text.fetch(pc) {
            Some(op) => Snap {
                ready_at: self.operands_ready_of(wi as u32, op.sb),
                mem: op.mem,
            },
            None => Snap {
                ready_at: 0,
                mem: false,
            },
        };
    }

    /// Index range of one register row — the `threads_n` lanes of `reg`
    /// in `warp` — in `iregs`/`fregs`.
    #[inline]
    fn row(&self, warp: u32, reg: u8) -> std::ops::Range<usize> {
        let t = self.threads_n as usize;
        let base = (warp as usize * 32 + reg as usize) * t;
        base..base + t
    }

    /// Rows `rd` (to write), `rs1` and `rs2` (to read) of `warp` in the
    /// integer file.
    #[inline]
    fn int_rows(&mut self, warp: u32, rd: u8, rs1: u8, rs2: u8) -> (&mut [u32], &[u32], &[u32]) {
        let t = self.threads_n as usize;
        split_rows(&mut self.iregs, &mut self.row_tmp, t, warp, rd, rs1, rs2)
    }

    /// [`int_rows`](Core::int_rows) on the float file.
    #[inline]
    fn fp_rows(&mut self, warp: u32, rd: u8, rs1: u8, rs2: u8) -> (&mut [u32], &[u32], &[u32]) {
        let t = self.threads_n as usize;
        split_rows(&mut self.fregs, &mut self.row_tmp, t, warp, rd, rs1, rs2)
    }

    /// One lane of an integer register (`x0` reads its all-zero row).
    fn read_int(&self, warp: u32, reg: u8, lane: u32) -> u32 {
        self.iregs[self.row(warp, reg).start + lane as usize]
    }

    fn write_int(&mut self, warp: u32, reg: u8, lane: u32, v: u32) {
        if reg != 0 {
            let i = self.row(warp, reg).start + lane as usize;
            self.iregs[i] = v;
        }
    }

    /// Value of an integer register in the first active lane (used by the
    /// warp-uniform instructions: branches, tmc, wspawn, bar, jalr).
    fn read_uniform(&self, warp: u32, reg: u8) -> u32 {
        let lane = self.warps[warp as usize].tmask.trailing_zeros();
        self.read_int(warp, reg, lane.min(self.threads_n - 1))
    }

    /// Mark scoreboard entry `dst` of `warp` busy until `ready_at`. Index 0
    /// is both `x0` and "no destination": never written, always ready.
    #[inline]
    fn mark_dest(&mut self, warp: u32, dst: u8, ready_at: u64) {
        if dst != 0 {
            self.ready[warp as usize * 64 + dst as usize] = ready_at;
        }
    }

    /// Advance this core by one cycle: try to issue one warp-instruction,
    /// round-robin. A [`TickResult::Stalled`] cycle is accounted to the
    /// stall counters exactly as [`fast_forward_stalls`] would account it
    /// in bulk. Every observable step is mirrored into `sink`; with
    /// [`NopSink`](crate::trace::NopSink) the emission sites monomorphize
    /// away.
    ///
    /// [`fast_forward_stalls`]: Core::fast_forward_stalls
    #[inline(always)]
    pub(crate) fn tick<S: TraceSink>(
        &mut self,
        now: u64,
        text: Text,
        mem: &mut SimMemory,
        view: &mut MemView,
        printf_out: &mut Vec<String>,
        sink: &mut S,
    ) -> Result<TickResult, ReproError> {
        // Pick a ready warp, round-robin, from the per-warp issue
        // snapshots — one ready-time compare per warp instead of an operand
        // walk. Along the way, collect each blocked warp's exact
        // first-issuable cycle so a failed tick leaves `next_event` behind
        // for the event-driven run loop at no extra cost.
        #[cfg(debug_assertions)]
        {
            let mut r = 0u64;
            let mut p = 0u64;
            for (i, w) in self.warps.iter().enumerate() {
                if w.active {
                    if w.barrier.is_some() {
                        p |= 1 << i;
                    } else {
                        r |= 1 << i;
                    }
                }
            }
            debug_assert_eq!(
                (self.ready_mask, self.parked_mask),
                (r, p),
                "issue-scan masks drifted from the warp states"
            );
        }
        let n = self.warps_n as usize;
        let mut blocked: Option<StallKind> = None;
        let mut next_event = u64::MAX;
        // The MSHR floor is shared across warps and can only move when an
        // issue goes through memory, so the cached min serves the whole
        // tick.
        let mshr_min = self.mshr_min;
        // Round-robin over the candidate mask: warps >= rr_next ascending,
        // then the wrap. Inactive and barrier-parked warps cost nothing —
        // they are simply absent from the mask.
        let rr = self.rr_next;
        for part in [
            self.ready_mask & (u64::MAX << rr),
            self.ready_mask & !(u64::MAX << rr),
        ] {
            let mut m = part;
            while m != 0 {
                let wi = m.trailing_zeros() as usize;
                m &= m - 1;
                let Snap {
                    ready_at,
                    mem: is_mem,
                } = self.snap[wi];
                #[cfg(debug_assertions)]
                self.check_snap(wi, text);
                let t_ready = if is_mem {
                    // Both conditions must hold at once; both are monotone,
                    // so the max is the exact first issuable cycle.
                    ready_at.max(mshr_min)
                } else {
                    ready_at
                };
                if t_ready > now {
                    blocked.get_or_insert(if ready_at > now {
                        StallKind::Scoreboard
                    } else {
                        StallKind::LsuFull
                    });
                    next_event = next_event.min(t_ready);
                    continue;
                }
                let pc = self.warps[wi].pc;
                let Some(op) = text.fetch(pc) else {
                    return Err(bad_pc(pc));
                };
                // Issue.
                self.rr_next = if wi + 1 == n { 0 } else { wi + 1 };
                self.stats.instructions += 1;
                sink.event(&TraceEvent::Issue {
                    core: self.id,
                    warp: wi as u32,
                    cycle: now,
                    pc,
                });
                let next_pc =
                    self.execute(now, wi as u32, pc, op, text, mem, view, printf_out, sink)?;
                // The issue moved the warp's PC and its register ready-times.
                self.warps[wi].pc = next_pc;
                self.write_snap(wi, next_pc, text);
                return Ok(TickResult::Issued);
            }
        }
        self.next_event = next_event;
        let kind = if self.parked_mask != 0 && blocked.is_none() {
            StallKind::Barrier
        } else {
            blocked.unwrap_or(StallKind::Idle)
        };
        self.stats.stall(kind, 1);
        sink.event(&TraceEvent::Stall {
            core: self.id,
            kind,
            from: now,
            to: now + 1,
        });
        Ok(TickResult::Stalled)
    }

    /// Earliest cycle at which some warp of this core could issue, given
    /// that the tick at `now` issued nothing. Scoreboard ready-times and
    /// MSHR free-times are monotone facts that only an *issue* can change,
    /// so until this cycle the core is provably idle. Returns `u64::MAX`
    /// when every live warp is parked at a barrier: arrivals can only come
    /// from this core's own warps, so the core can never progress again and
    /// only the cycle limit bounds the run.
    ///
    /// This is the from-scratch recomputation of the value `tick` caches in
    /// [`next_event`](Core::next_event); the run loop uses the cache and
    /// debug-asserts it against this.
    pub fn next_issue_cycle(&self, now: u64, program: &Program) -> u64 {
        let mut t = u64::MAX;
        for (wi, w) in self.warps.iter().enumerate() {
            if !w.active || w.barrier.is_some() {
                continue;
            }
            let Some(op) = program.instrs.get(w.pc as usize).map(Op::decode) else {
                // Bad PC: step densely so the next tick reports it.
                return now + 1;
            };
            let mut ready = self.operands_ready_of(wi as u32, op.sb);
            if op.mem {
                ready = ready.max(self.mshr_min);
            }
            t = t.min(ready);
        }
        debug_assert!(t > now, "next_issue_cycle called while a warp is issuable");
        t
    }

    /// Bulk-account the stall cycles in `[from, to)` exactly as `to - from`
    /// dense ticks would have. During a no-issue span nothing about the
    /// core changes, so the dense loop's per-cycle classification is fully
    /// determined by the state at `from`:
    ///
    /// * no active non-barrier warp → every cycle is a barrier stall;
    /// * otherwise the first active non-barrier warp in round-robin order
    ///   is the classifying warp: scoreboard stalls until its operands are
    ///   ready, and (for memory instructions) LSU stalls from then on while
    ///   it waits for an MSHR.
    ///
    /// `stall_idle` cannot occur here: a core with no active warp is never
    /// ticked or fast-forwarded.
    ///
    /// The skipped span is mirrored into `sink` as aggregate stall events
    /// with the same classification, so a fast-forward trace canonicalizes
    /// to the dense loop's per-cycle trace.
    pub fn fast_forward_stalls<S: TraceSink>(&mut self, from: u64, to: u64, sink: &mut S) {
        if to <= from {
            return;
        }
        let span = to - from;
        let n = self.warps_n as usize;
        let first = (0..n)
            .map(|k| (self.rr_next + k) % n)
            .find(|&wi| self.warps[wi].active && self.warps[wi].barrier.is_none());
        let core_id = self.id;
        let mut charge = |stats: &mut CoreStats, kind: StallKind, a: u64, b: u64| {
            if b > a {
                stats.stall(kind, b - a);
                sink.event(&TraceEvent::Stall {
                    core: core_id,
                    kind,
                    from: a,
                    to: b,
                });
            }
        };
        let Some(wi) = first else {
            charge(&mut self.stats, StallKind::Barrier, from, to);
            return;
        };
        // A bad PC (snapshot 0, not a memory op) cannot get here: the tick
        // that would have opened the span faults on it instead.
        let Snap { ready_at, mem } = self.snap[wi];
        let sb_cycles = ready_at.clamp(from, to) - from;
        if mem {
            charge(
                &mut self.stats,
                StallKind::Scoreboard,
                from,
                from + sb_cycles,
            );
            charge(&mut self.stats, StallKind::LsuFull, from + sb_cycles, to);
        } else {
            // A non-memory warp blocks only on the scoreboard, so its
            // operands cannot come ready inside the span.
            debug_assert_eq!(sb_cycles, span);
            charge(&mut self.stats, StallKind::Scoreboard, from, to);
        }
    }

    /// Debug builds: warp `wi`'s snapshot, and the op `text` holds at its
    /// PC, equal what a from-scratch decode gives, so no snapshot write was
    /// missed and no op comes from another program's table.
    #[cfg(debug_assertions)]
    fn check_snap(&self, wi: usize, text: Text) {
        let pc = self.warps[wi].pc;
        let op = text.program.instrs.get(pc as usize).map(Op::decode);
        assert_eq!(text.fetch(pc), op, "core {} warp {wi}: stale op", self.id);
        let ready_at = op.map_or(0, |o| self.operands_ready_of(wi as u32, o.sb));
        let mem = op.is_some_and(|o| o.mem);
        assert_eq!(
            self.snap[wi],
            Snap { ready_at, mem },
            "core {} warp {wi}: stale issue snapshot at pc {pc}",
            self.id
        );
    }

    /// Latest ready-cycle over the scoreboard entries `sb` (see
    /// [`Op::sb`]): the first cycle at which the scoreboard no longer
    /// blocks the instruction.
    #[inline]
    fn operands_ready_of(&self, warp: u32, sb: [u8; 3]) -> u64 {
        let row: &[u64; 64] = self.ready[warp as usize * 64..][..64]
            .try_into()
            .expect("a row is 64 entries");
        row[sb[0] as usize & 63]
            .max(row[sb[1] as usize & 63])
            .max(row[sb[2] as usize & 63])
    }

    /// The next-event cycle cached by the last tick that issued nothing.
    pub fn next_event(&self) -> u64 {
        self.next_event
    }

    /// The warps of this core that are parked at a barrier, with their
    /// resume PC (the instruction after the barrier) and how many warps
    /// have arrived so far — the payload of a deadlock report. Pure state
    /// inspection, so both scheduler loops report the identical set.
    pub fn stuck_warps(&self) -> Vec<repro_util::diag::StuckWarp> {
        self.warps
            .iter()
            .enumerate()
            .filter(|(_, w)| w.active && w.barrier.is_some())
            .map(|(wi, w)| {
                let key = w.barrier.expect("filtered to parked warps");
                let arrived = self
                    .barrier_waiters
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map(|(_, n)| *n)
                    .unwrap_or(0);
                repro_util::diag::StuckWarp {
                    core: self.id,
                    warp: wi as u32,
                    pc: w.pc,
                    barrier: Some(key),
                    arrived,
                }
            })
            .collect()
    }

    /// True if some warp slot is not running (halted or never spawned).
    /// Under a deadlock this distinguishes divergence (the barrier count
    /// was reachable had this warp participated) from a count that no
    /// schedule could ever satisfy.
    pub fn has_inactive_warp(&self) -> bool {
        self.warps.iter().any(|w| !w.active)
    }

    /// A warp arrived at barrier `(id, count)`: bump the waiter count and,
    /// once `count` warps are parked, release them all. Doing this at
    /// arrival is observably identical to a start-of-cycle release scan —
    /// parked warps cannot execute, so between the arrival and the next
    /// cycle nothing can see the difference — and it removes the scan from
    /// the per-cycle path entirely.
    fn barrier_arrive<S: TraceSink>(
        &mut self,
        warp: u32,
        now: u64,
        id: u32,
        count: u32,
        sink: &mut S,
    ) {
        let key = (id, count);
        let waiting = match self.barrier_waiters.iter_mut().find(|(k, _)| *k == key) {
            Some(entry) => {
                entry.1 += 1;
                entry.1
            }
            None => {
                self.barrier_waiters.push((key, 1));
                1
            }
        };
        sink.event(&TraceEvent::BarrierArrive {
            core: self.id,
            warp,
            cycle: now,
            id,
            count,
            waiting,
        });
        if waiting >= count {
            let mut released = 0;
            for (i, w) in self.warps.iter_mut().enumerate() {
                if w.barrier == Some(key) {
                    w.barrier = None;
                    self.ready_mask |= 1 << i;
                    self.parked_mask &= !(1 << i);
                    released += 1;
                }
            }
            self.barrier_waiters.retain(|(k, _)| *k != key);
            sink.event(&TraceEvent::BarrierRelease {
                core: self.id,
                cycle: now,
                id,
                count,
                released,
            });
        }
    }

    /// A parked warp left barrier `key` without releasing it (its slot was
    /// overwritten by WSPAWN).
    fn barrier_leave(&mut self, key: (u32, u32)) {
        if let Some(pos) = self.barrier_waiters.iter().position(|(k, _)| *k == key) {
            self.barrier_waiters[pos].1 -= 1;
            if self.barrier_waiters[pos].1 == 0 {
                self.barrier_waiters.swap_remove(pos);
            }
        }
    }

    /// `rd = f(lane)` on the active lanes of integer register `rd`; one ALU
    /// latency.
    #[inline(always)]
    fn int_row(&mut self, wi: u32, rd: u8, part: Option<Lanes>, f: impl Fn(u32) -> u32) -> u64 {
        if rd != 0 {
            let d = self.row(wi, rd);
            lanes0(&mut self.iregs[d], part, f);
        }
        LAT_ALU.into()
    }

    /// Integer `rd = v` on every active lane; one ALU latency.
    #[inline(always)]
    fn int_uniform(&mut self, wi: u32, rd: u8, part: Option<Lanes>, v: u32) -> u64 {
        self.int_row(wi, rd, part, |_| v)
    }

    /// Integer `rd = f(rs1, imm)`; one ALU latency.
    #[inline(always)]
    fn int_imm(
        &mut self,
        wi: u32,
        op: Op,
        part: Option<Lanes>,
        f: impl Fn(u32, u32) -> u32,
    ) -> u64 {
        if op.rd != 0 {
            let (dst, a, _) = self.int_rows(wi, op.rd, op.rs1, op.rs1);
            let b = op.imm as u32;
            lanes1(dst, a, part, |x| f(x, b));
        }
        LAT_ALU.into()
    }

    /// Integer `rd = f(rs1, rs2)` from a `lat`-cycle unit.
    #[inline(always)]
    fn int_op(
        &mut self,
        wi: u32,
        op: Op,
        part: Option<Lanes>,
        lat: u32,
        f: impl Fn(u32, u32) -> u32,
    ) -> u64 {
        if op.rd != 0 {
            let (dst, a, b) = self.int_rows(wi, op.rd, op.rs1, op.rs2);
            lanes2(dst, a, b, part, f);
        }
        lat.into()
    }

    /// Float `rd = f(rs1, rs2)` from a `lat`-cycle unit.
    #[inline(always)]
    fn fp_op2(
        &mut self,
        wi: u32,
        op: Op,
        part: Option<Lanes>,
        lat: u32,
        f: impl Fn(u32, u32) -> u32,
    ) -> u64 {
        let (dst, a, b) = self.fp_rows(wi, op.rd, op.rs1, op.rs2);
        lanes2(dst, a, b, part, f);
        lat.into()
    }

    /// Float `rd = f(rs1)` from a `lat`-cycle unit.
    #[inline(always)]
    fn fp_op1(
        &mut self,
        wi: u32,
        op: Op,
        part: Option<Lanes>,
        lat: u32,
        f: impl Fn(u32) -> u32,
    ) -> u64 {
        let (dst, a, _) = self.fp_rows(wi, op.rd, op.rs1, op.rs1);
        lanes1(dst, a, part, f);
        lat.into()
    }

    /// Integer `rd = f(rs1, rs2)` over float sources; one FPU latency.
    #[inline(always)]
    fn fp_cmp2(
        &mut self,
        wi: u32,
        op: Op,
        part: Option<Lanes>,
        f: impl Fn(u32, u32) -> u32,
    ) -> u64 {
        if op.rd != 0 {
            let (d, a, b) = (
                self.row(wi, op.rd),
                self.row(wi, op.rs1),
                self.row(wi, op.rs2),
            );
            lanes2(&mut self.iregs[d], &self.fregs[a], &self.fregs[b], part, f);
        }
        LAT_FPU.into()
    }

    /// `rd = f(rs1)` from the float file into the integer file (`to_int`)
    /// or back; one FPU latency.
    #[inline(always)]
    fn cvt(
        &mut self,
        wi: u32,
        op: Op,
        part: Option<Lanes>,
        to_int: bool,
        f: impl Fn(u32) -> u32,
    ) -> u64 {
        if !(to_int && op.rd == 0) {
            let (d, a) = (self.row(wi, op.rd), self.row(wi, op.rs1));
            let (dst, a) = if to_int {
                (&mut self.iregs[d], &self.fregs[a])
            } else {
                (&mut self.fregs[d], &self.iregs[a])
            };
            lanes1(dst, a, part, f);
        }
        LAT_FPU.into()
    }

    /// A branch on `taken(rs1, rs2)`. Branches are warp-uniform by
    /// construction — the compiler SPLIT-lowers divergent conditions
    /// (§II-D) — so evaluating in the first active lane is sound.
    #[inline(always)]
    fn branch(&self, wi: u32, op: Op, next_pc: &mut u32, taken: impl Fn(u32, u32) -> bool) -> u64 {
        if taken(self.read_uniform(wi, op.rs1), self.read_uniform(wi, op.rs2)) {
            *next_pc = self.warps[wi as usize].pc.wrapping_add(op.imm as u32);
        }
        LAT_ALU.into()
    }

    /// An atomic `f`: one serialized access per active lane, bypassing
    /// coalescing. Returns the cycles until `rd` holds the old values.
    #[allow(clippy::too_many_arguments)]
    fn amo<S: TraceSink>(
        &mut self,
        now: u64,
        wi: u32,
        op: Op,
        f: AmoOp,
        mem: &mut SimMemory,
        view: &mut MemView,
        sink: &mut S,
    ) -> Result<u64, ReproError> {
        self.stats.loads += 1;
        self.stats.stores += 1;
        let pc = self.warps[wi as usize].pc;
        let mut done = now;
        for t in Lanes(self.warps[wi as usize].tmask) {
            let addr = self.read_int(wi, op.rs1, t);
            let v = self.read_int(wi, op.rs2, t);
            let old = mem.load(self.id, addr).map_err(|e| at_pc(e, pc))?;
            mem.store(self.id, addr, amo(f, old, v))
                .map_err(|e| at_pc(e, pc))?;
            self.write_int(wi, op.rd, t, old);
            done = done.max(self.memory_time(now, &[addr], view, sink));
        }
        Ok(done - now)
    }

    /// Bit `t` set for every lane whose integer register `reg` is non-zero
    /// (over all lanes; the caller masks with the thread mask).
    fn nonzero_lanes(&self, wi: u32, reg: u8) -> u64 {
        self.iregs[self.row(wi, reg)]
            .iter()
            .enumerate()
            .fold(0, |m, (t, &v)| m | (u64::from(v != 0) << t))
    }

    /// Execute one warp instruction: a single switch on the opcode. Every
    /// register arm resolves its rows before the lane loop and calls the
    /// scalar `alu`/`muldiv`/`fp_*` function — the one definition of the
    /// semantics — with a constant operation, so each opcode compiles to
    /// its own lane kernel: source rows are slices (`x0` reads its
    /// all-zero row), `rd == x0` skips the write altogether, and the kernel
    /// runs over whole rows under the full mask or walks the set bits of a
    /// divergent one (see [`lanes2`]). Each arm yields the cycles until its
    /// destination is ready; the warp's next PC is returned.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn execute<S: TraceSink>(
        &mut self,
        now: u64,
        wi: u32,
        pc: u32,
        op: Op,
        text: Text,
        mem: &mut SimMemory,
        view: &mut MemView,
        printf_out: &mut Vec<String>,
        sink: &mut S,
    ) -> Result<u32, ReproError> {
        let tmask = self.warps[wi as usize].tmask;
        let mut next_pc = pc.wrapping_add(1);
        let lanes = Lanes(tmask);
        let part = (tmask != self.full_mask).then_some(lanes);
        let lat: u64 = match op.code {
            O::Lui => self.int_row(wi, op.rd, part, |_| (op.imm as u32) << 12),
            O::Addi => self.int_imm(wi, op, part, |x, y| alu(AluOp::Add, x, y)),
            O::Slli => self.int_imm(wi, op, part, |x, y| alu(AluOp::Sll, x, y)),
            O::Slti => self.int_imm(wi, op, part, |x, y| alu(AluOp::Slt, x, y)),
            O::Sltiu => self.int_imm(wi, op, part, |x, y| alu(AluOp::Sltu, x, y)),
            O::Xori => self.int_imm(wi, op, part, |x, y| alu(AluOp::Xor, x, y)),
            O::Srli => self.int_imm(wi, op, part, |x, y| alu(AluOp::Srl, x, y)),
            O::Srai => self.int_imm(wi, op, part, |x, y| alu(AluOp::Sra, x, y)),
            O::Ori => self.int_imm(wi, op, part, |x, y| alu(AluOp::Or, x, y)),
            O::Andi => self.int_imm(wi, op, part, |x, y| alu(AluOp::And, x, y)),
            O::Add => self.int_op(wi, op, part, LAT_ALU, |x, y| alu(AluOp::Add, x, y)),
            O::Sub => self.int_op(wi, op, part, LAT_ALU, |x, y| alu(AluOp::Sub, x, y)),
            O::Sll => self.int_op(wi, op, part, LAT_ALU, |x, y| alu(AluOp::Sll, x, y)),
            O::Slt => self.int_op(wi, op, part, LAT_ALU, |x, y| alu(AluOp::Slt, x, y)),
            O::Sltu => self.int_op(wi, op, part, LAT_ALU, |x, y| alu(AluOp::Sltu, x, y)),
            O::Xor => self.int_op(wi, op, part, LAT_ALU, |x, y| alu(AluOp::Xor, x, y)),
            O::Srl => self.int_op(wi, op, part, LAT_ALU, |x, y| alu(AluOp::Srl, x, y)),
            O::Sra => self.int_op(wi, op, part, LAT_ALU, |x, y| alu(AluOp::Sra, x, y)),
            O::Or => self.int_op(wi, op, part, LAT_ALU, |x, y| alu(AluOp::Or, x, y)),
            O::And => self.int_op(wi, op, part, LAT_ALU, |x, y| alu(AluOp::And, x, y)),
            O::Mul => self.int_op(wi, op, part, LAT_MUL, |x, y| muldiv(MulOp::Mul, x, y)),
            O::Mulh => self.int_op(wi, op, part, LAT_MUL, |x, y| muldiv(MulOp::Mulh, x, y)),
            O::Mulhu => self.int_op(wi, op, part, LAT_MUL, |x, y| muldiv(MulOp::Mulhu, x, y)),
            O::Div => self.int_op(wi, op, part, LAT_DIV, |x, y| muldiv(MulOp::Div, x, y)),
            O::Divu => self.int_op(wi, op, part, LAT_DIV, |x, y| muldiv(MulOp::Divu, x, y)),
            O::Rem => self.int_op(wi, op, part, LAT_DIV, |x, y| muldiv(MulOp::Rem, x, y)),
            O::Remu => self.int_op(wi, op, part, LAT_DIV, |x, y| muldiv(MulOp::Remu, x, y)),
            O::Fadd => self.fp_op2(wi, op, part, LAT_FPU, |x, y| fp_op(FpOp::Add, x, y)),
            O::Fsub => self.fp_op2(wi, op, part, LAT_FPU, |x, y| fp_op(FpOp::Sub, x, y)),
            O::Fmul => self.fp_op2(wi, op, part, LAT_FPU, |x, y| fp_op(FpOp::Mul, x, y)),
            O::Fdiv => self.fp_op2(wi, op, part, LAT_FDIV, |x, y| fp_op(FpOp::Div, x, y)),
            O::Fmin => self.fp_op2(wi, op, part, LAT_FPU, |x, y| fp_op(FpOp::Min, x, y)),
            O::Fmax => self.fp_op2(wi, op, part, LAT_FPU, |x, y| fp_op(FpOp::Max, x, y)),
            O::Fsgnj => self.fp_op2(wi, op, part, LAT_FPU, |x, y| fp_op(FpOp::Sgnj, x, y)),
            O::Fsgnjn => self.fp_op2(wi, op, part, LAT_FPU, |x, y| fp_op(FpOp::SgnjN, x, y)),
            O::Fsgnjx => self.fp_op2(wi, op, part, LAT_FPU, |x, y| fp_op(FpOp::SgnjX, x, y)),
            O::Fsqrt => self.fp_op1(wi, op, part, LAT_FDIV, |x| fp_un(FpUnOp::Sqrt, x)),
            O::Fexp => self.fp_op1(wi, op, part, LAT_SFU, |x| fp_un(FpUnOp::Exp, x)),
            O::Flog => self.fp_op1(wi, op, part, LAT_SFU, |x| fp_un(FpUnOp::Log, x)),
            O::Fsin => self.fp_op1(wi, op, part, LAT_SFU, |x| fp_un(FpUnOp::Sin, x)),
            O::Fcos => self.fp_op1(wi, op, part, LAT_SFU, |x| fp_un(FpUnOp::Cos, x)),
            O::Ffloor => self.fp_op1(wi, op, part, LAT_SFU, |x| fp_un(FpUnOp::Floor, x)),
            O::Feq => self.fp_cmp2(wi, op, part, |x, y| fp_cmp(FpCmpOp::Eq, x, y)),
            O::Flt => self.fp_cmp2(wi, op, part, |x, y| fp_cmp(FpCmpOp::Lt, x, y)),
            O::Fle => self.fp_cmp2(wi, op, part, |x, y| fp_cmp(FpCmpOp::Le, x, y)),
            O::FcvtWS => self.cvt(wi, op, part, true, |x| fp_cvt(CvtOp::F2I, x)),
            O::FcvtWuS => self.cvt(wi, op, part, true, |x| fp_cvt(CvtOp::F2U, x)),
            O::FmvXW => self.cvt(wi, op, part, true, |x| fp_cvt(CvtOp::MvF2X, x)),
            O::FcvtSW => self.cvt(wi, op, part, false, |x| fp_cvt(CvtOp::I2F, x)),
            O::FcvtSWu => self.cvt(wi, op, part, false, |x| fp_cvt(CvtOp::U2F, x)),
            O::FmvWX => self.cvt(wi, op, part, false, |x| fp_cvt(CvtOp::MvX2F, x)),
            O::CsrThreadId => self.int_row(wi, op.rd, part, |t| t),
            O::CsrWarpId => self.int_row(wi, op.rd, part, |_| wi),
            O::CsrCoreId => self.int_uniform(wi, op.rd, part, self.id),
            O::CsrNumThreads => self.int_uniform(wi, op.rd, part, self.threads_n),
            O::CsrNumWarps => self.int_uniform(wi, op.rd, part, self.warps_n),
            O::CsrNumCores => self.int_uniform(wi, op.rd, part, self.num_cores),
            O::CsrTmask => self.int_uniform(wi, op.rd, part, tmask as u32),
            O::Lw | O::Flw => {
                self.stats.loads += 1;
                let mut addrs = [0u32; 64];
                let na = lane_addrs(&mut addrs, &self.iregs[self.row(wi, op.rs1)], op.imm, part);
                let d = self.row(wi, op.rd);
                // A load into `x0` still makes its accesses (they can
                // fault) but writes nothing.
                let mut dst_row = match op.code {
                    O::Flw => Some(&mut self.fregs[d]),
                    _ if op.rd != 0 => Some(&mut self.iregs[d]),
                    _ => None,
                };
                for (&addr, t) in addrs[..na].iter().zip(lanes) {
                    let v = mem.load(self.id, addr).map_err(|e| at_pc(e, pc))?;
                    if let Some(row) = dst_row.as_deref_mut() {
                        row[t as usize] = v;
                    }
                }
                self.memory_time(now, &addrs[..na], view, sink) - now
            }
            O::Sw | O::Fsw => {
                self.stats.stores += 1;
                let mut addrs = [0u32; 64];
                let na = lane_addrs(&mut addrs, &self.iregs[self.row(wi, op.rs1)], op.imm, part);
                let s = self.row(wi, op.rs2);
                let src = match op.code {
                    O::Fsw => &self.fregs[s],
                    _ => &self.iregs[s],
                };
                for (&addr, t) in addrs[..na].iter().zip(lanes) {
                    mem.store(self.id, addr, src[t as usize])
                        .map_err(|e| at_pc(e, pc))?;
                }
                // Stores retire through the same LSU path (write-through),
                // consuming bandwidth but not blocking a destination.
                self.memory_time(now, &addrs[..na], view, sink);
                0
            }
            O::AmoAdd => self.amo(now, wi, op, AmoOp::Add, mem, view, sink)?,
            O::AmoSwap => self.amo(now, wi, op, AmoOp::Swap, mem, view, sink)?,
            O::AmoXor => self.amo(now, wi, op, AmoOp::Xor, mem, view, sink)?,
            O::AmoOr => self.amo(now, wi, op, AmoOp::Or, mem, view, sink)?,
            O::AmoAnd => self.amo(now, wi, op, AmoOp::And, mem, view, sink)?,
            O::AmoMin => self.amo(now, wi, op, AmoOp::Min, mem, view, sink)?,
            O::AmoMax => self.amo(now, wi, op, AmoOp::Max, mem, view, sink)?,
            O::AmoMinu => self.amo(now, wi, op, AmoOp::Minu, mem, view, sink)?,
            O::AmoMaxu => self.amo(now, wi, op, AmoOp::Maxu, mem, view, sink)?,
            O::Beq => self.branch(wi, op, &mut next_pc, |a, b| a == b),
            O::Bne => self.branch(wi, op, &mut next_pc, |a, b| a != b),
            O::Blt => self.branch(wi, op, &mut next_pc, |a, b| (a as i32) < (b as i32)),
            O::Bge => self.branch(wi, op, &mut next_pc, |a, b| (a as i32) >= (b as i32)),
            O::Bltu => self.branch(wi, op, &mut next_pc, |a, b| a < b),
            O::Bgeu => self.branch(wi, op, &mut next_pc, |a, b| a >= b),
            O::Jal => {
                next_pc = pc.wrapping_add(op.imm as u32);
                self.int_row(wi, op.rd, part, |_| pc + 1)
            }
            O::Jalr => {
                next_pc = self.read_uniform(wi, op.rs1).wrapping_add(op.imm as u32);
                self.int_row(wi, op.rd, part, |_| pc + 1)
            }
            O::Tmc => {
                let mask = self.read_uniform(wi, op.rs1) as u64 & self.full_mask;
                let w = &mut self.warps[wi as usize];
                w.tmask = mask;
                if mask == 0 {
                    w.active = false;
                    self.active_n -= 1;
                    self.ready_mask &= !(1 << wi);
                }
                LAT_SFU.into()
            }
            O::Wspawn => {
                let count = self.read_uniform(wi, op.rs1).min(self.warps_n);
                let entry = self.read_uniform(wi, op.rs2);
                sink.event(&TraceEvent::Wspawn {
                    core: self.id,
                    warp: wi,
                    cycle: now,
                    count,
                    entry,
                });
                for w in 1..count as usize {
                    let warp = &mut self.warps[w];
                    if !warp.active {
                        self.active_n += 1;
                    }
                    warp.active = true;
                    warp.pc = entry;
                    warp.tmask = 1;
                    warp.stack.clear();
                    self.ready_mask |= 1 << w;
                    self.parked_mask &= !(1 << w);
                    if let Some(key) = warp.barrier.take() {
                        // Respawning a parked warp shrinks its barrier group.
                        self.barrier_leave(key);
                    }
                    // The spawn moved this warp's PC.
                    self.write_snap(w, entry, text);
                }
                LAT_SFU.into()
            }
            O::Split => {
                let taken = self.nonzero_lanes(wi, op.rs1) & tmask;
                let else_mask = tmask & !taken;
                let w = &mut self.warps[wi as usize];
                if else_mask == 0 {
                    // No divergence, all true: push reconv only.
                    w.stack.push(Ipdom::Reconv { mask: tmask });
                } else if taken == 0 {
                    // All false: jump straight to else.
                    w.stack.push(Ipdom::Reconv { mask: tmask });
                    next_pc = pc.wrapping_add(op.imm as u32);
                } else {
                    w.stack.push(Ipdom::Reconv { mask: tmask });
                    w.stack.push(Ipdom::Else {
                        mask: else_mask,
                        pc: pc.wrapping_add(op.imm as u32),
                    });
                    w.tmask = taken;
                }
                LAT_SFU.into()
            }
            O::Join => {
                let w = &mut self.warps[wi as usize];
                match w.stack.pop() {
                    Some(Ipdom::Else { mask, pc: else_pc }) => {
                        w.tmask = mask;
                        next_pc = else_pc;
                    }
                    Some(Ipdom::Reconv { mask }) => {
                        w.tmask = mask;
                        next_pc = pc.wrapping_add(op.imm as u32);
                    }
                    None => {
                        // Unbalanced join: treat as no-op jump (compiler
                        // never emits this; hand-written tests might).
                        next_pc = pc.wrapping_add(op.imm as u32);
                    }
                }
                LAT_SFU.into()
            }
            O::Pred => {
                let live = self.nonzero_lanes(wi, op.rs1) & tmask;
                if live != 0 {
                    self.warps[wi as usize].tmask = live;
                } else {
                    let restore = self.read_uniform(wi, op.rs2) as u64 & self.full_mask;
                    self.warps[wi as usize].tmask = restore;
                    next_pc = pc.wrapping_add(op.imm as u32);
                }
                LAT_SFU.into()
            }
            O::Bar => {
                let bar = self.read_uniform(wi, op.rs1);
                let count = self.read_uniform(wi, op.rs2).max(1);
                self.warps[wi as usize].barrier = Some((bar, count));
                self.ready_mask &= !(1 << wi);
                self.parked_mask |= 1 << wi;
                self.barrier_arrive(wi, now, bar, count, sink);
                LAT_SFU.into()
            }
            O::Print => {
                let fmt = op.imm as u16;
                let entry = text
                    .program
                    .printf_table
                    .get(fmt as usize)
                    .cloned()
                    .unwrap_or(vortex_isa::PrintfFmt {
                        fmt: format!("<bad printf id {fmt}>"),
                        args: vec![],
                    });
                for t in lanes {
                    let hart = (self.id * self.warps_n + wi) * self.threads_n + t;
                    let buf = PRINTF_BASE + hart * PRINTF_STRIDE;
                    let mut out = String::with_capacity(entry.fmt.len() + 8);
                    let mut argi = 0u32;
                    let mut chars = entry.fmt.chars().peekable();
                    while let Some(c) = chars.next() {
                        if c == '{' && chars.peek() == Some(&'}') {
                            chars.next();
                            let bits = mem
                                .load(self.id, buf + argi * 4)
                                .map_err(|e| at_pc(e, pc))?;
                            match entry.args.get(argi as usize) {
                                Some(PrintArg::F32) => {
                                    out.push_str(&format!("{}", f32::from_bits(bits)))
                                }
                                Some(PrintArg::I32) => out.push_str(&format!("{}", bits as i32)),
                                _ => out.push_str(&format!("{bits}")),
                            }
                            argi += 1;
                        } else {
                            out.push(c);
                        }
                    }
                    printf_out.push(out);
                }
                LAT_ALU.into()
            }
            O::Halt => {
                let w = &mut self.warps[wi as usize];
                w.tmask = 0;
                w.active = false;
                self.active_n -= 1;
                self.ready_mask &= !(1 << wi);
                LAT_ALU.into()
            }
        };
        self.mark_dest(wi, op.sb[2], now + lat);
        Ok(next_pc)
    }

    /// Timing for a warp memory access over the given lane addresses:
    /// coalesce to lines, walk D-cache → L2 → DRAM, consume LSU + MSHR
    /// resources. Local-window accesses complete at D-cache speed.
    fn memory_time<S: TraceSink>(
        &mut self,
        now: u64,
        addrs: &[u32],
        view: &mut MemView,
        sink: &mut S,
    ) -> u64 {
        // Collect distinct lines in ascending order. Lane addresses are
        // usually monotone (consecutive lanes touch consecutive words), so
        // dedup adjacent repeats on the fly and only fall back to a full
        // sort + dedup when an out-of-order line shows up.
        let mut line_buf = [0u32; 64];
        let mut raw = 0usize;
        let mut last = u32::MAX;
        let mut sorted = true;
        for &a in addrs {
            if !SimMemory::is_local(a) {
                let l = self.dcache.line_of(a);
                if l != last {
                    if raw > 0 && l < last {
                        sorted = false;
                    }
                    line_buf[raw] = l;
                    raw += 1;
                    last = l;
                }
            }
        }
        let nl = if sorted {
            raw
        } else {
            line_buf[..raw].sort_unstable();
            let mut nl = 0usize;
            for i in 0..raw {
                if nl == 0 || line_buf[i] != line_buf[nl - 1] {
                    line_buf[nl] = line_buf[i];
                    nl += 1;
                }
            }
            nl
        };
        let lines = &line_buf[..nl];
        if lines.is_empty() {
            // Pure local-memory access: SRAM-speed, with bank-conflict
            // serialization of distinct words beyond the bank count (4).
            let words = addrs.len().div_ceil(4) as u64;
            self.lsu_next_free = self.lsu_next_free.max(now) + words;
            return self.lsu_next_free + LAT_DCACHE as u64;
        }
        // The banked D-cache ingests at most 4 lane requests per cycle, so
        // wide warps occupy the LSU for T/4 cycles even on hits — the
        // per-thread cost §III-C attributes vecadd's LSU stalls to.
        let lane_cycles = (addrs.len().div_ceil(4) as u64).saturating_sub(lines.len() as u64);
        self.lsu_next_free = self.lsu_next_free.max(now) + lane_cycles;
        let line_bytes = self.dcache.config().line_bytes;
        let mut done = now;
        for &line in lines {
            // LSU accepts one line per cycle.
            self.lsu_next_free = self.lsu_next_free.max(now) + 1;
            let t0 = self.lsu_next_free;
            let addr = line * line_bytes;
            let dcache_hit = self.dcache.access(addr, t0);
            sink.event(&TraceEvent::CacheAccess {
                core: self.id,
                level: CacheLevel::Dcache,
                cycle: t0,
                line_addr: addr,
                hit: dcache_hit,
            });
            if dcache_hit {
                self.stats.dcache_hits += 1;
                done = done.max(t0 + LAT_DCACHE as u64);
            } else {
                self.stats.dcache_misses += 1;
                // Take the earliest-free MSHR (backpressure as latency).
                // One pass yields the slot, its free time and the runner-up
                // — the floor of all the others.
                let (mut slot, mut free, mut others) = (0, u64::MAX, u64::MAX);
                for (i, &t) in self.mshr_free.iter().enumerate() {
                    if t < free {
                        (slot, others, free) = (i, free, t);
                    } else {
                        others = others.min(t);
                    }
                }
                let start = t0.max(free);
                let l2_hit = view.l2_access(addr, start);
                sink.event(&TraceEvent::CacheAccess {
                    core: self.id,
                    level: CacheLevel::L2,
                    cycle: start,
                    line_addr: addr,
                    hit: l2_hit,
                });
                let fill = if l2_hit {
                    start + LAT_L2 as u64
                } else {
                    let issue = start + LAT_L2 as u64;
                    let (fill, row_hit) = view.dram_access(addr, line_bytes, issue);
                    sink.event(&TraceEvent::Dram {
                        core: self.id,
                        cycle: issue,
                        line_addr: addr,
                        row_hit,
                        done: fill,
                    });
                    fill
                };
                self.mshr_free[slot] = fill;
                self.mshr_min = others.min(fill);
                sink.event(&TraceEvent::MshrAcquire {
                    core: self.id,
                    cycle: start,
                    fill,
                });
                done = done.max(fill + LAT_DCACHE as u64);
            }
        }
        done
    }
}

/// A fetch from `pc`, outside the program text.
#[cold]
fn bad_pc(pc: u32) -> ReproError {
    ReproError::OutOfBounds {
        addr: pc,
        pc,
        space: "text".to_string(),
    }
}

/// A memory fault `e` with the faulting instruction's `pc` filled in.
fn at_pc(mut e: ReproError, pc: u32) -> ReproError {
    if let ReproError::OutOfBounds { pc: at, .. } | ReproError::Misaligned { pc: at, .. } = &mut e {
        *at = pc;
    }
    e
}

/// Rows `rd` (to write), `rs1` and `rs2` (to read) of `warp` in the register
/// file `regs` (`[warp][reg][lane]`, `t` lanes a row), borrowed disjointly.
/// A source that *is* `rd` is served from `tmp`, a copy of the row taken
/// here, before the lane kernel overwrites it; lane kernels are
/// element-wise, so the copy reads exactly what an in-place loop would.
#[inline]
fn split_rows<'a>(
    regs: &'a mut [u32],
    tmp: &'a mut [u32; 64],
    t: usize,
    warp: u32,
    rd: u8,
    rs1: u8,
    rs2: u8,
) -> (&'a mut [u32], &'a [u32], &'a [u32]) {
    let (lo, rest) = regs.split_at_mut((warp as usize * 32 + rd as usize) * t);
    let (dst, hi) = rest.split_at_mut(t);
    if rs1 == rd || rs2 == rd {
        tmp[..t].copy_from_slice(dst);
    }
    let (lo, hi, tmp) = (&*lo, &*hi, &tmp[..t]);
    let src = |r: u8| match r.cmp(&rd) {
        Ordering::Less => &lo[lo.len() - (rd - r) as usize * t..][..t],
        Ordering::Equal => tmp,
        Ordering::Greater => &hi[((r - rd) as usize - 1) * t..][..t],
    };
    (dst, src(rs1), src(rs2))
}

/// `dst[t] = f(t)` on the active lanes; see [`lanes2`].
#[inline(always)]
fn lanes0(dst: &mut [u32], part: Option<Lanes>, f: impl Fn(u32) -> u32) {
    match part {
        None => {
            for (t, d) in dst.iter_mut().enumerate() {
                *d = f(t as u32);
            }
        }
        Some(lanes) => {
            for t in lanes {
                dst[t as usize] = f(t);
            }
        }
    }
}

/// `dst[t] = f(a[t])` on the active lanes; see [`lanes2`].
#[inline(always)]
fn lanes1(dst: &mut [u32], a: &[u32], part: Option<Lanes>, f: impl Fn(u32) -> u32) {
    match part {
        None => {
            for (d, &x) in dst.iter_mut().zip(a) {
                *d = f(x);
            }
        }
        Some(lanes) => {
            for t in lanes {
                dst[t as usize] = f(a[t as usize]);
            }
        }
    }
}

/// The lane kernel: `dst[t] = f(a[t], b[t])` on the active lanes. `part` is
/// `None` under the full thread mask — then this is a plain loop over three
/// disjoint equal-length rows, which the compiler vectorises — and the
/// set-bit walk of the mask when the warp is divergent.
#[inline(always)]
fn lanes2(dst: &mut [u32], a: &[u32], b: &[u32], part: Option<Lanes>, f: impl Fn(u32, u32) -> u32) {
    match part {
        None => {
            for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                *d = f(x, y);
            }
        }
        Some(lanes) => {
            for t in lanes {
                dst[t as usize] = f(a[t as usize], b[t as usize]);
            }
        }
    }
}

/// Address generation of a warp memory access: `base[t] + imm` for the
/// active lanes, compacted into `out` in lane order. Returns the count.
#[inline]
fn lane_addrs(out: &mut [u32; 64], base: &[u32], imm: i32, part: Option<Lanes>) -> usize {
    match part {
        None => {
            for (o, &b) in out.iter_mut().zip(base) {
                *o = b.wrapping_add(imm as u32);
            }
            base.len()
        }
        Some(lanes) => {
            let mut n = 0;
            for t in lanes {
                out[n] = base[t as usize].wrapping_add(imm as u32);
                n += 1;
            }
            n
        }
    }
}

#[inline(always)]
fn alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a.wrapping_shl(b & 31),
        AluOp::Slt => ((a as i32) < (b as i32)) as u32,
        AluOp::Sltu => (a < b) as u32,
        AluOp::Xor => a ^ b,
        AluOp::Srl => a.wrapping_shr(b & 31),
        AluOp::Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
        AluOp::Or => a | b,
        AluOp::And => a & b,
    }
}

#[inline(always)]
fn muldiv(op: MulOp, a: u32, b: u32) -> u32 {
    match op {
        MulOp::Mul => a.wrapping_mul(b),
        MulOp::Mulh => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
        MulOp::Mulhu => (((a as u64) * (b as u64)) >> 32) as u32,
        MulOp::Div => {
            let (x, y) = (a as i32, b as i32);
            if y == 0 {
                u32::MAX
            } else if x == i32::MIN && y == -1 {
                x as u32
            } else {
                (x / y) as u32
            }
        }
        MulOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
        MulOp::Rem => {
            let (x, y) = (a as i32, b as i32);
            if y == 0 {
                a
            } else if x == i32::MIN && y == -1 {
                0
            } else {
                (x % y) as u32
            }
        }
        MulOp::Remu => a.checked_rem(b).unwrap_or(a),
    }
}

/// Two-operand float arithmetic on register bit patterns.
#[inline(always)]
fn fp_op(op: FpOp, a: u32, b: u32) -> u32 {
    let (a, b) = (f32::from_bits(a), f32::from_bits(b));
    let r = match op {
        FpOp::Add => a + b,
        FpOp::Sub => a - b,
        FpOp::Mul => a * b,
        FpOp::Div => a / b,
        FpOp::Min => a.min(b),
        FpOp::Max => a.max(b),
        FpOp::Sgnj => a.copysign(b),
        FpOp::SgnjN => a.copysign(-b),
        FpOp::SgnjX => f32::from_bits(a.to_bits() ^ (b.to_bits() & 0x8000_0000)),
    };
    r.to_bits()
}

/// One-operand float functions on register bit patterns.
#[inline(always)]
fn fp_un(op: FpUnOp, a: u32) -> u32 {
    let a = f32::from_bits(a);
    let r = match op {
        FpUnOp::Sqrt => a.sqrt(),
        FpUnOp::Exp => a.exp(),
        FpUnOp::Log => a.ln(),
        FpUnOp::Sin => a.sin(),
        FpUnOp::Cos => a.cos(),
        FpUnOp::Floor => a.floor(),
    };
    r.to_bits()
}

/// Float comparison on register bit patterns; 1 if it holds.
#[inline(always)]
fn fp_cmp(op: FpCmpOp, a: u32, b: u32) -> u32 {
    let (a, b) = (f32::from_bits(a), f32::from_bits(b));
    let r = match op {
        FpCmpOp::Eq => a == b,
        FpCmpOp::Lt => a < b,
        FpCmpOp::Le => a <= b,
    };
    r as u32
}

/// Conversions and moves between the register files, bit pattern in, bit
/// pattern out (float→int saturates; NaN converts to `i32::MAX` / 0).
#[inline(always)]
fn fp_cvt(op: CvtOp, a: u32) -> u32 {
    match op {
        CvtOp::F2I => {
            let a = f32::from_bits(a);
            let v = if a.is_nan() {
                i32::MAX
            } else {
                (a as i64).clamp(i32::MIN as i64, i32::MAX as i64) as i32
            };
            v as u32
        }
        CvtOp::F2U => {
            let a = f32::from_bits(a);
            if a.is_nan() || a < 0.0 {
                0
            } else {
                (a as u64).min(u32::MAX as u64) as u32
            }
        }
        CvtOp::I2F => (a as i32 as f32).to_bits(),
        CvtOp::U2F => (a as f32).to_bits(),
        CvtOp::MvF2X | CvtOp::MvX2F => a,
    }
}

#[inline]
fn amo(op: AmoOp, old: u32, v: u32) -> u32 {
    match op {
        AmoOp::Add => old.wrapping_add(v),
        AmoOp::Swap => v,
        AmoOp::And => old & v,
        AmoOp::Or => old | v,
        AmoOp::Xor => old ^ v,
        AmoOp::Min => ((old as i32).min(v as i32)) as u32,
        AmoOp::Max => ((old as i32).max(v as i32)) as u32,
        AmoOp::Minu => old.min(v),
        AmoOp::Maxu => old.max(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memsys::MemSystem;
    use crate::trace::NopSink;
    use fpga_arch::VortexConfig;
    use repro_util::Rng;
    use vortex_isa::{abi, Csr, Instr};

    fn test_core(warps: u32, threads: u32) -> Core {
        let cfg = SimConfig::new(VortexConfig::new(1, warps, threads));
        let mut core = Core::new(0, &cfg);
        core.reset_for_launch(0, Text::decoding(&Program::default()));
        core
    }

    fn one_instr(i: Instr) -> Program {
        Program {
            instrs: vec![i],
            printf_table: vec![],
            entry: 0,
        }
    }

    #[test]
    fn next_event_is_the_scoreboard_ready_time() {
        let mut core = test_core(2, 4);
        let p = one_instr(Instr::OpImm {
            op: AluOp::Add,
            rd: abi::T0,
            rs1: abi::T0,
            imm: 1,
        });
        core.ready[abi::T0 as usize] = 40;
        core.write_snap(0, 0, Text::decoding(&p));
        assert_eq!(core.next_issue_cycle(7, &p), 40);
        // The whole span is a scoreboard stall for a non-memory instruction.
        core.fast_forward_stalls(8, 40, &mut NopSink);
        assert_eq!(core.stats.stall_scoreboard, 32);
        assert_eq!(core.stats.stall_lsu, 0);
        assert_eq!(core.stats.stall_barrier, 0);
    }

    #[test]
    fn next_event_waits_for_an_mshr_on_memory_instructions() {
        let mut core = test_core(1, 4);
        let p = one_instr(Instr::Lw {
            rd: abi::T1,
            rs1: abi::T0,
            imm: 0,
        });
        core.ready[abi::T0 as usize] = 10;
        core.mshr_free.fill(33);
        core.mshr_min = 33;
        core.write_snap(0, 0, Text::decoding(&p));
        // Operands ready at 10, but every MSHR is busy until 33.
        assert_eq!(core.next_issue_cycle(7, &p), 33);
        // Cycles 8..10 classify as scoreboard, 10..33 as LSU — exactly what
        // the dense loop would count tick by tick.
        core.fast_forward_stalls(8, 33, &mut NopSink);
        assert_eq!(core.stats.stall_scoreboard, 2);
        assert_eq!(core.stats.stall_lsu, 23);
    }

    #[test]
    fn next_event_with_only_barrier_warps_is_unbounded() {
        let mut core = test_core(2, 4);
        core.warps[0].barrier = Some((0, 2));
        let p = one_instr(Instr::Halt);
        assert_eq!(core.next_issue_cycle(5, &p), u64::MAX);
        core.fast_forward_stalls(6, 20, &mut NopSink);
        assert_eq!(core.stats.stall_barrier, 14);
        assert_eq!(core.stats.stall_scoreboard, 0);
    }

    #[test]
    fn barrier_releases_exactly_at_count() {
        let mut core = test_core(4, 2);
        core.warps[1].active = true;
        core.warps[2].active = true;
        core.warps[0].barrier = Some((1, 3));
        core.barrier_arrive(0, 0, 1, 3, &mut NopSink);
        core.warps[1].barrier = Some((1, 3));
        core.barrier_arrive(0, 0, 1, 3, &mut NopSink);
        assert!(core.warps[0].barrier.is_some(), "2 of 3 arrived: parked");
        core.warps[2].barrier = Some((1, 3));
        core.barrier_arrive(0, 0, 1, 3, &mut NopSink);
        assert!(
            core.warps.iter().all(|w| w.barrier.is_none()),
            "third arrival releases the whole group"
        );
        assert!(core.barrier_waiters.is_empty());
    }

    #[test]
    fn wspawn_over_a_parked_warp_shrinks_its_barrier_group() {
        let mut core = test_core(4, 2);
        core.warps[1].active = true;
        core.warps[1].barrier = Some((0, 2));
        core.barrier_arrive(1, 0, 0, 2, &mut NopSink);
        // WSPAWN re-targets warp 1, abandoning its barrier slot.
        core.warps[1].barrier = None;
        core.barrier_leave((0, 2));
        // A later arrival must not see the abandoned slot as progress.
        core.warps[2].active = true;
        core.warps[2].barrier = Some((0, 2));
        core.barrier_arrive(1, 0, 0, 2, &mut NopSink);
        assert!(
            core.warps[2].barrier.is_some(),
            "group restarted from zero after the leave"
        );
    }

    #[test]
    fn alu_semantics() {
        assert_eq!(alu(AluOp::Add, 2, 3), 5);
        assert_eq!(alu(AluOp::Sub, 2, 3), u32::MAX);
        assert_eq!(alu(AluOp::Sra, 0x8000_0000, 31), u32::MAX);
        assert_eq!(alu(AluOp::Srl, 0x8000_0000, 31), 1);
        assert_eq!(alu(AluOp::Slt, u32::MAX, 0), 1, "-1 < 0 signed");
        assert_eq!(alu(AluOp::Sltu, u32::MAX, 0), 0);
    }

    #[test]
    fn muldiv_riscv_edge_cases() {
        assert_eq!(muldiv(MulOp::Div, 7, 0), u32::MAX);
        assert_eq!(muldiv(MulOp::Rem, 7, 0), 7);
        assert_eq!(
            muldiv(MulOp::Div, i32::MIN as u32, -1i32 as u32),
            i32::MIN as u32
        );
        assert_eq!(muldiv(MulOp::Mulh, -2i32 as u32, 3), u32::MAX);
        assert_eq!(muldiv(MulOp::Mulhu, 1 << 31, 2), 1);
    }

    #[test]
    fn fp_semantics() {
        let f = f32::to_bits;
        assert_eq!(fp_op(FpOp::Sub, f(1.5), f(4.0)), f(-2.5));
        assert_eq!(fp_op(FpOp::Min, f(f32::NAN), f(2.0)), f(2.0));
        assert_eq!(fp_op(FpOp::SgnjN, f(3.0), f(1.0)), f(-3.0));
        assert_eq!(fp_op(FpOp::SgnjX, f(-3.0), f(-1.0)), f(3.0));
        assert_eq!(fp_un(FpUnOp::Floor, f(-1.5)), f(-2.0));
        assert_eq!(fp_cmp(FpCmpOp::Le, f(2.0), f(2.0)), 1);
        assert_eq!(fp_cmp(FpCmpOp::Eq, f(f32::NAN), f(f32::NAN)), 0);
        assert_eq!(fp_cvt(CvtOp::F2I, f(-3.0e9)), i32::MIN as u32);
        assert_eq!(fp_cvt(CvtOp::F2I, f(f32::NAN)), i32::MAX as u32);
        assert_eq!(fp_cvt(CvtOp::F2U, f(-1.0)), 0);
        assert_eq!(fp_cvt(CvtOp::F2U, f(1.0e20)), u32::MAX);
        assert_eq!(fp_cvt(CvtOp::I2F, -2i32 as u32), f(-2.0));
        assert_eq!(fp_cvt(CvtOp::U2F, u32::MAX), f(4294967296.0));
    }

    /// Fill both register files of `core` from `rng`, edge values mixed in;
    /// the `x0` rows stay zero.
    fn fill_regs(core: &mut Core, rng: &mut Rng) {
        const INTS: [u32; 6] = [i32::MIN as u32, u32::MAX, 0, 1, i32::MAX as u32, 31];
        const FLOATS: [f32; 10] = [
            f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.5,
            -2.25,
            3.0e9,
            -3.0e9,
            1.0e20,
        ];
        let t = core.threads_n as usize;
        for (i, v) in core.iregs.iter_mut().enumerate() {
            *v = match ((i / t) % 32, rng.bool()) {
                (0, _) => 0,
                (_, true) => *rng.pick(&INTS),
                (_, false) => rng.next_u32(),
            };
        }
        for v in core.fregs.iter_mut() {
            *v = if rng.bool() {
                rng.pick(&FLOATS).to_bits()
            } else {
                (rng.range_i32(-4000, 4000) as f32 * 0.37).to_bits()
            };
        }
    }

    /// Execute `instr` on warp 1 of a `t_n`-thread core under the full mask
    /// and three divergent ones, and compare both whole register files with
    /// the prior state plus `want(lane, src1, src2)` in the active lanes of
    /// the destination row — so inactive lanes, other rows, the other warp
    /// and `x0` are checked too. Rows come from [`Op::sb`], which makes
    /// this a cross-check of the scoreboard indices as well.
    fn check_rows(t_n: u32, instr: Instr, rng: &mut Rng, want: &dyn Fn(u32, u32, u32) -> u32) {
        let mut core = test_core(2, t_n);
        let full = core.full_mask;
        let masks = [
            full,
            1 << (t_n / 2),
            full & 0x5555_5555_5555_5555,
            full & !(1 << (t_n - 1)),
        ];
        let (wi, t_n) = (1u32, t_n as usize);
        let op = Op::decode(&instr);
        let [s1, s2, d] = op.sb.map(|i| (wi as usize * 64 + i as usize) * t_n);
        let program = Program::default();
        let mut mem = SimMemory::new(1);
        let mut memsys = MemSystem::new(1, crate::memsys::EPOCH_CYCLES);
        let file = t_n * 32;
        for tmask in masks {
            fill_regs(&mut core, rng);
            // Both files back to back, indexed like the scoreboard.
            let regs = |c: &Core| -> Vec<u32> {
                let warp = |w: usize| {
                    let r = w * file..(w + 1) * file;
                    c.iregs[r.clone()].iter().chain(&c.fregs[r]).copied()
                };
                warp(0).chain(warp(1)).collect()
            };
            let mut expect = regs(&core);
            if d != wi as usize * 64 * t_n {
                for t in Lanes(tmask) {
                    let i = t as usize;
                    expect[d + i] = want(t, expect[s1 + i], expect[s2 + i]);
                }
            }
            core.warps[wi as usize].tmask = tmask;
            let view = memsys.view_mut(0);
            let text = Text::decoding(&program);
            core.execute(
                0,
                wi,
                0,
                op,
                text,
                &mut mem,
                view,
                &mut Vec::new(),
                &mut NopSink,
            )
            .unwrap();
            for (i, (got, want)) in regs(&core).into_iter().zip(expect).enumerate() {
                let both_nan = f32::from_bits(got).is_nan() && f32::from_bits(want).is_nan();
                assert!(
                    got == want || (both_nan && (i / file) % 2 == 1),
                    "{instr:?} T={t_n} mask={tmask:#x}: word {i} is {got:#x}, expected {want:#x}"
                );
            }
        }
    }

    #[test]
    fn lane_kernels_match_the_scalar_semantics() {
        use vortex_isa::{AluOp::*, CvtOp::*, FpUnOp::*};
        let mut rng = Rng::new(14);
        // Distinct rows, rd aliasing either or both sources, one row read
        // twice, and x0 as destination and as either source.
        let shapes = [
            (12, 10, 11),
            (10, 10, 11),
            (11, 10, 11),
            (12, 10, 10),
            (10, 10, 10),
            (0, 10, 11),
            (12, 0, 11),
            (12, 10, 0),
        ];
        for t_n in [1, 4, 8, 16, 64] {
            for (rd, rs1, rs2) in shapes {
                let mut check = |instr, want: &dyn Fn(u32, u32, u32) -> u32| {
                    check_rows(t_n, instr, &mut rng, want)
                };
                for op in [Add, Sub, Sll, Slt, Sltu, Xor, Srl, Sra, Or, And] {
                    check(Instr::Op { op, rd, rs1, rs2 }, &|_, a, b| alu(op, a, b));
                    for imm in [-7, 33] {
                        let i = Instr::OpImm { op, rd, rs1, imm };
                        check(i, &|_, a, _| alu(op, a, imm as u32));
                    }
                }
                {
                    use MulOp::*;
                    for op in [Mul, Mulh, Mulhu, Div, Divu, Rem, Remu] {
                        check(Instr::MulDiv { op, rd, rs1, rs2 }, &|_, a, b| {
                            muldiv(op, a, b)
                        });
                    }
                }
                {
                    use FpOp::*;
                    for op in [Add, Sub, Mul, Div, Min, Max, Sgnj, SgnjN, SgnjX] {
                        check(Instr::FpOp { op, rd, rs1, rs2 }, &|_, a, b| fp_op(op, a, b));
                    }
                }
                for op in [Sqrt, Exp, Log, Sin, Cos, Floor] {
                    check(Instr::FpUn { op, rd, rs1 }, &|_, a, _| fp_un(op, a));
                }
                for op in [FpCmpOp::Eq, FpCmpOp::Lt, FpCmpOp::Le] {
                    check(Instr::FpCmp { op, rd, rs1, rs2 }, &|_, a, b| {
                        fp_cmp(op, a, b)
                    });
                }
                for op in [F2I, F2U, I2F, U2F, MvF2X, MvX2F] {
                    check(Instr::FpCvt { op, rd, rs1 }, &|_, a, _| fp_cvt(op, a));
                }
                check(Instr::Lui { rd, imm: 0x1234 }, &|_, _, _| 0x1234 << 12);
                let csr = Csr::ThreadId;
                check(Instr::CsrRead { rd, csr }, &|t, _, _| t);
                let csr = Csr::NumThreads;
                check(Instr::CsrRead { rd, csr }, &|_, _, _| t_n);
            }
        }
    }

    #[test]
    fn amo_semantics() {
        assert_eq!(amo(AmoOp::Add, 5, 3), 8);
        assert_eq!(amo(AmoOp::Min, -5i32 as u32, 3), -5i32 as u32);
        assert_eq!(amo(AmoOp::Maxu, 5, u32::MAX), u32::MAX);
        assert_eq!(amo(AmoOp::Swap, 1, 2), 2);
    }
}
