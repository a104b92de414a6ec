//! Epoch-quantized shared memory system: the multi-core timing model.
//!
//! Cores interact only through the shared L2 / DRAM timing models and
//! functional memory. The timing side is quantized into fixed epochs of
//! [`EPOCH_CYCLES`] (2048) cycles: each core works against its own
//! [`MemView`] — a copy of the shared L2/DRAM state frozen at the last epoch
//! boundary — and logs every access it makes. As the clock passes a
//! boundary the logs are replayed into the master models in core order (the
//! recomputed outcomes are discarded; the outcomes each core *observed*
//! stand) and the views are refreshed from the master. Within an epoch a
//! core's timing therefore depends only on its own state and its frozen
//! view; another core's traffic becomes visible at the next boundary.
//!
//! This is the definition of multi-core timing, not an approximation of
//! another one: both run loops call [`MemSystem::advance_to`] before the
//! first tick at or past each boundary, and every golden and pinned cycle
//! count is taken under it.
//!
//! A single-core machine skips it: the view *is* the authoritative state,
//! nothing is logged and nothing is ever committed.

use crate::cache::{Cache, CacheConfig};
use crate::dram::{DramModel, BANKS};

/// Geometry of the shared L2 (64 KiB).
const L2: CacheConfig = CacheConfig {
    sets: 256,
    ways: 4,
    line_bytes: 64,
};

/// The epoch length both run loops build their machines with: they freeze
/// the shared L2/DRAM timing state at its multiples, so another value would
/// change multi-core timings (deterministically); every golden and pinned
/// cycle count is taken at this one. [`MemSystem::new`] takes the length
/// as an argument so unit tests can cross boundaries in a few cycles.
pub const EPOCH_CYCLES: u64 = 2048;

/// One logged shared-memory-system access, replayed into the master models
/// at the epoch boundary.
#[derive(Debug, Clone, Copy)]
enum Access {
    L2 { addr: u32, at: u64 },
    Dram { addr: u32, bytes: u32, at: u64 },
}

/// One core's private window onto the shared L2/DRAM: a clone of the master
/// state at the last epoch boundary, plus the access log to replay and the
/// counters for what this core actually observed (which is what the stats
/// and trace events report — the replay only advances master *state*).
#[derive(Debug)]
pub struct MemView {
    l2: Cache,
    dram: DramModel,
    log: Vec<Access>,
    /// False in the single-core machine: the view is authoritative and
    /// nothing is ever replayed.
    log_enabled: bool,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub dram_accesses: u64,
    pub dram_row_hits: u64,
}

impl MemView {
    /// L2 lookup as seen by this core, counted and logged.
    pub fn l2_access(&mut self, addr: u32, now: u64) -> bool {
        if self.log_enabled {
            self.log.push(Access::L2 { addr, at: now });
        }
        let hit = self.l2.access(addr, now);
        if hit {
            self.l2_hits += 1;
        } else {
            self.l2_misses += 1;
        }
        hit
    }

    /// DRAM transaction as seen by this core, counted and logged.
    pub fn dram_access(&mut self, addr: u32, bytes: u32, now: u64) -> (u64, bool) {
        if self.log_enabled {
            self.log.push(Access::Dram {
                addr,
                bytes,
                at: now,
            });
        }
        let (done, row_hit) = self.dram.access_info(addr, bytes, now);
        self.dram_accesses += 1;
        if row_hit {
            self.dram_row_hits += 1;
        }
        (done, row_hit)
    }
}

/// The master L2/DRAM models plus one [`MemView`] per core.
pub struct MemSystem {
    master_l2: Cache,
    master_dram: DramModel,
    views: Vec<MemView>,
    /// Epoch length in cycles; boundaries sit at multiples of this.
    epoch_cycles: u64,
    /// The first boundary not yet committed (`u64::MAX` on a single-core
    /// machine, which never commits): all logged accesses so far are from
    /// before it.
    next_boundary: u64,
    /// Commit scratch: L2 sets touched this epoch (`touched_sets` is the
    /// membership bitmap, `set_list` the dense list to iterate and clear).
    /// A view can differ from the master only where its own accesses
    /// landed, so refreshing the touched sets instead of cloning the whole
    /// cache makes commit cost proportional to the epoch's traffic, not
    /// the cache size.
    touched_sets: Vec<bool>,
    set_list: Vec<u32>,
    /// Commit scratch: DRAM banks touched this epoch, same scheme.
    touched_banks: Vec<bool>,
    bank_list: Vec<u32>,
}

impl MemSystem {
    pub fn new(cores: u32, epoch_cycles: u64) -> Self {
        let master_l2 = Cache::new(L2);
        let master_dram = DramModel::default();
        let views = (0..cores)
            .map(|_| MemView {
                l2: master_l2.clone(),
                dram: master_dram.clone(),
                log: Vec::new(),
                log_enabled: cores > 1,
                l2_hits: 0,
                l2_misses: 0,
                dram_accesses: 0,
                dram_row_hits: 0,
            })
            .collect();
        let epoch_cycles = epoch_cycles.max(1);
        MemSystem {
            master_l2,
            master_dram,
            views,
            epoch_cycles,
            next_boundary: if cores > 1 { epoch_cycles } else { u64::MAX },
            touched_sets: vec![false; L2.sets as usize],
            set_list: Vec::new(),
            touched_banks: vec![false; BANKS as usize],
            bank_list: Vec::new(),
        }
    }

    pub fn view_mut(&mut self, core: usize) -> &mut MemView {
        &mut self.views[core]
    }

    /// Sum of the per-core observed counters `(l2_hits, l2_misses,
    /// dram_accesses, dram_row_hits)`. These accumulate across launches,
    /// like the shared-device counters they replace; `run_with_sink`
    /// snapshots them per launch.
    pub fn observed(&self) -> (u64, u64, u64, u64) {
        let mut t = (0, 0, 0, 0);
        for v in &self.views {
            t.0 += v.l2_hits;
            t.1 += v.l2_misses;
            t.2 += v.dram_accesses;
            t.3 += v.dram_row_hits;
        }
        t
    }

    /// Commit every epoch boundary at or before `cycle`: replay the views'
    /// logs into the master models in canonical core order and refresh the
    /// views. Must be called before any core ticks at `cycle`; all logged
    /// accesses so far came from ticks before the boundary being committed.
    /// Between boundaries this is one compare.
    #[inline]
    pub fn advance_to(&mut self, cycle: u64) {
        if cycle >= self.next_boundary {
            self.commit();
            self.next_boundary =
                (cycle - cycle % self.epoch_cycles).saturating_add(self.epoch_cycles);
        }
    }

    /// A launch restarts the clock at cycle 0: fold any tail-of-run logs
    /// into the master (device caches persist across launches) and restart
    /// the epoch sequence.
    pub fn begin_run(&mut self) {
        if self.views.len() <= 1 {
            return;
        }
        self.commit();
        self.next_boundary = self.epoch_cycles;
    }

    fn commit(&mut self) {
        // Replay in canonical core order, collecting which L2 sets and
        // DRAM banks the epoch touched. A view mutates exactly where its
        // own logged accesses land and every logged access is replayed
        // here, so the touched sets/banks (plus the shared bus cursor) are
        // the only state where any view can differ from the master.
        let mut any_dram = false;
        for v in &mut self.views {
            for a in v.log.drain(..) {
                match a {
                    Access::L2 { addr, at } => {
                        self.master_l2.access(addr, at);
                        let s = self.master_l2.set_of(addr);
                        if !self.touched_sets[s as usize] {
                            self.touched_sets[s as usize] = true;
                            self.set_list.push(s);
                        }
                    }
                    Access::Dram { addr, bytes, at } => {
                        self.master_dram.access_info(addr, bytes, at);
                        let b = self.master_dram.bank_of(addr);
                        if !self.touched_banks[b as usize] {
                            self.touched_banks[b as usize] = true;
                            self.bank_list.push(b);
                        }
                        any_dram = true;
                    }
                }
            }
        }
        // Refresh every view on exactly the touched state.
        for v in &mut self.views {
            for &s in &self.set_list {
                v.l2.copy_set_from(&self.master_l2, s);
            }
            for &b in &self.bank_list {
                v.dram.copy_bank_from(&self.master_dram, b);
            }
            if any_dram {
                v.dram.copy_bus_from(&self.master_dram);
            }
        }
        for s in self.set_list.drain(..) {
            self.touched_sets[s as usize] = false;
        }
        for b in self.bank_list.drain(..) {
            self.touched_banks[b as usize] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// With one core the view is authoritative and commits never run:
    /// timings match the pre-epoch simulator exactly.
    #[test]
    fn single_core_never_commits() {
        let mut ms = MemSystem::new(1, 64);
        let miss_first = ms.view_mut(0).l2_access(0x100, 5);
        assert!(!miss_first);
        ms.advance_to(1 << 20);
        let hit_second = ms.view_mut(0).l2_access(0x100, 6);
        assert!(hit_second, "view state survives advance_to with one core");
        assert_eq!(ms.observed(), (1, 1, 0, 0));
    }

    /// Two cores: accesses in epoch N become visible to the *other* core's
    /// view only after the boundary commit.
    #[test]
    fn cross_core_visibility_is_epoch_quantized() {
        let mut ms = MemSystem::new(2, 64);
        assert!(!ms.view_mut(0).l2_access(0x100, 5), "cold: miss");
        // Same epoch, other core: the line is not in its frozen view.
        assert!(!ms.view_mut(1).l2_access(0x100, 6), "same epoch: miss");
        ms.advance_to(64);
        assert!(ms.view_mut(1).l2_access(0x100, 70), "next epoch: hit");
        // Observed counters kept the per-core outcomes, not the replay's.
        assert_eq!(ms.observed(), (1, 2, 0, 0));
    }

    /// Replays happen in canonical core order regardless of access times,
    /// and begin_run folds the tail so state persists across launches.
    #[test]
    fn begin_run_commits_the_tail() {
        let mut ms = MemSystem::new(2, 1 << 30);
        ms.view_mut(1).l2_access(0x200, 3);
        ms.begin_run();
        assert!(
            ms.view_mut(0).l2_access(0x200, 0),
            "core 0 sees core 1's line after the inter-launch commit"
        );
    }
}
