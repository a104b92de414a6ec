//! `vortex-sim` — cycle-level simulator for the Vortex-style soft GPU.
//!
//! The Rust counterpart of SimX, the C++ cycle-level simulator the paper
//! uses for its §III-C configuration study ("cycle accuracy within 6%
//! compared to the Verilog model"). The model is in-order issue with a
//! per-warp scoreboard:
//!
//! * each core issues at most one warp-instruction per cycle, round-robin
//!   over ready warps;
//! * execution is functional-at-issue; destination registers become busy
//!   until the producing unit's latency (or the memory system's computed
//!   completion time) elapses;
//! * the LSU coalesces the active lanes' addresses into cache lines, owns a
//!   finite number of MSHRs, and walks the D-cache → L2 → DRAM hierarchy;
//! * DRAM is modeled with banked row buffers and a shared data bus, so
//!   interleaved streams from many warps degrade effective bandwidth — the
//!   mechanism behind the paper's observation that vecadd *loses*
//!   performance beyond 4 warps × 4 threads (Figure 7);
//! * SIMT control flow implements the TMC / WSPAWN / SPLIT / JOIN / PRED
//!   semantics of §II-D with an explicit IPDOM stack.
//!
//! [`SimConfig`] holds only what callers vary: the machine shape, the
//! D-cache geometry, the watchdog budgets and the reference loop. Every
//! other parameter is a constant in the module that uses it. A parameter
//! becomes a field only once two callers need different values; a banked
//! LSU mode would be the first.
//!
//! A run that faults returns a [`SimFault`]: the [`ReproError`] of the
//! fault (`OutOfBounds` or `Misaligned` in the `"global"`, `"local"` or `"text"`
//! space at the faulting PC, a watchdog budget, or a deadlock report) and
//! the statistics up to it. [`SimMemory`] fails with the same type, with
//! `pc` 0 until the core that issued the access fills it in.

pub mod cache;
pub mod core;
pub mod dram;
pub mod mem;
pub mod memsys;
pub mod profile;
pub mod stats;
mod tcache;
pub mod trace;

pub use crate::core::{Core, TickResult};
pub use cache::{Cache, CacheConfig};
pub use dram::DramModel;
pub use mem::SimMemory;
pub use memsys::{MemSystem, MemView};
pub use profile::LaunchProfile;
pub use stats::{SimStats, StallKind};
pub use tcache::Image;
pub use trace::{canonical_core_events, CacheLevel, NopSink, RecordingSink, TraceEvent, TraceSink};

use std::sync::Arc;

use fpga_arch::VortexConfig;
use repro_util::diag::ReproError;
use repro_util::metrics;
use tcache::Text;
use vortex_isa::Program;

/// Largest machine the simulator models. Warp and thread masks are 64 bits
/// wide ([`Core::new`] asserts both); the core count is capped at the same
/// figure so that per-core state is never sized from an unchecked number.
/// Callers that take a geometry from outside the program check it against
/// these before building a [`SimConfig`].
pub const MAX_CORES: u32 = 64;
pub const MAX_WARPS: u32 = 64;
pub const MAX_THREADS: u32 = 64;

/// Miss-status holding registers per core: the LSU's outstanding line
/// misses.
pub const MSHRS: u32 = 4;

/// What a simulation's callers vary. The rest of the machine is fixed, as
/// in SimX: the unit latencies (`core.rs`), [`MSHRS`], the L2
/// (`memsys.rs`), the DRAM ([`dram`]) and the memory sizes
/// (`vortex_isa::layout`) are constants. A parameter becomes a field here
/// only once two callers need different values for it.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Cores / warps / threads (the paper's C, W, T).
    pub hw: VortexConfig,
    /// Per-core data cache (the D-cache ablation sweeps it).
    pub dcache: CacheConfig,
    /// Safety limit on simulated cycles.
    pub max_cycles: u64,
    /// Watchdog budget on issued instructions (`u64::MAX` = unlimited).
    /// Unlike `max_cycles`, this bounds *work* rather than time, so a
    /// compute-bound runaway kernel trips it at the same point in both
    /// scheduler modes regardless of how stall cycles are skipped.
    pub max_instructions: u64,
    /// Force the dense cycle-by-cycle loop instead of event-driven
    /// fast-forwarding. The two produce bit-identical results (cycles,
    /// stall breakdown, memory state); this is the escape hatch for
    /// differential testing and for debugging the scheduler itself.
    /// Reference mode also never builds the decoded op table: the
    /// baseline decodes from scratch at every issue.
    pub reference_mode: bool,
}

impl SimConfig {
    /// Defaults matching the paper's 4-core Vortex simulator study; tune
    /// `hw` per experiment.
    pub fn new(hw: VortexConfig) -> Self {
        SimConfig {
            hw,
            dcache: CacheConfig {
                sets: 16,
                ways: 4,
                line_bytes: 64,
            },
            max_cycles: 2_000_000_000,
            max_instructions: u64::MAX,
            reference_mode: false,
        }
    }
}

/// A simulation that aborted: the structured error plus everything the
/// watchdog could salvage — statistics and printf output up to the abort
/// point. Any trace events were already streamed to the sink, so a fault
/// leaves the trace intact too.
#[derive(Debug, Clone)]
pub struct SimFault {
    pub error: ReproError,
    pub partial: SimResult,
}

impl std::fmt::Display for SimFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (after {} cycles, {} instructions)",
            self.error, self.partial.stats.cycles, self.partial.stats.instructions
        )
    }
}

impl std::error::Error for SimFault {}

impl From<Box<SimFault>> for ReproError {
    fn from(f: Box<SimFault>) -> Self {
        f.error
    }
}

/// Result of a kernel simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    pub stats: SimStats,
    pub printf_output: Vec<String>,
}

/// The multi-core machine.
pub struct Simulator {
    pub cfg: SimConfig,
    pub mem: SimMemory,
    cores: Vec<Core>,
    memsys: MemSystem,
    image: Arc<Image>,
}

impl Simulator {
    /// Build a machine and load `program`.
    pub fn new(cfg: SimConfig, program: Program) -> Self {
        Self::with_image(cfg, Arc::new(Image::new(program)))
    }

    /// Build a machine and load `image`, which may be shared with other
    /// machines: its op table is decoded at most once.
    pub fn with_image(cfg: SimConfig, image: Arc<Image>) -> Self {
        let cores = (0..cfg.hw.cores).map(|c| Core::new(c, &cfg)).collect();
        Simulator {
            mem: SimMemory::new(cfg.hw.cores),
            memsys: MemSystem::new(cfg.hw.cores, memsys::EPOCH_CYCLES),
            cores,
            image,
            cfg,
        }
    }

    /// Replace the loaded kernel (between launches of a multi-kernel
    /// application); device memory is preserved. Issue snapshots are
    /// written at launch start, so nothing decoded from the previous kernel
    /// survives into the next launch.
    pub fn set_image(&mut self, image: Arc<Image>) {
        self.image = image;
    }

    /// True once the loaded image's op table is built. Stays `false` for
    /// the lifetime of a `reference_mode` machine with its own image — the
    /// zero-overhead guarantee the baseline loop's tests pin down.
    pub fn op_table_built(&self) -> bool {
        self.image.decoded()
    }

    /// Run until every warp has halted. Returns statistics and console
    /// output.
    ///
    /// The default scheduler is event-driven (see `Simulator::run_events`);
    /// [`SimConfig::reference_mode`] selects the dense cycle-by-cycle loop.
    /// The two are bit-identical in every observable: final cycle count,
    /// stall breakdown, cache/DRAM counters, memory state, printf output.
    ///
    /// On a fault the returned [`SimFault`] carries the statistics and
    /// printf output accumulated up to the abort. The *error* is identical
    /// across scheduler modes (faults are derived from identical machine
    /// state); the partial stats are best-effort and may differ in how
    /// stall cycles were bulk-accounted at the moment of abort.
    pub fn run(&mut self) -> Result<SimResult, Box<SimFault>> {
        self.run_with_sink(&mut trace::NopSink)
    }

    /// [`run`](Simulator::run) with an event-trace sink attached. Sinks are
    /// pure observers: this produces bit-identical results to `run` in both
    /// scheduler modes (the observer-effect differential tests enforce it),
    /// and with [`NopSink`] it *is* `run` after monomorphization.
    pub fn run_with_sink<S: TraceSink>(
        &mut self,
        sink: &mut S,
    ) -> Result<SimResult, Box<SimFault>> {
        let dense = self.cfg.reference_mode;
        let image = Arc::clone(&self.image);
        let (text, decoded) = image.text(!dense);
        // Reset all cores to warp 0 at the entry with one active thread, as
        // the runtime's doorbell does on real hardware.
        for core in &mut self.cores {
            core.reset_for_launch(image.program.entry, text);
        }
        // A new launch restarts the clock: fold any logged tail of the
        // previous launch into the master memory-system models (device
        // caches stay warm across launches) and restart the epoch sequence.
        self.memsys.begin_run();
        // L2/DRAM counters live on the shared device and accumulate across
        // launches; snapshot them so this launch's stats — like the
        // per-core counters reset in `reset_for_launch` — report only its
        // own work and agree with the launch's event trace.
        let (l2_hits0, l2_misses0, dr_acc0, dr_rowhits0) = self.memsys.observed();
        let mut printf_output = Vec::new();
        let outcome = if dense {
            self.run_dense(text, &mut printf_output, sink)
        } else {
            self.run_events(text, &mut printf_output, sink)
        };
        let (cycles, fault) = match outcome {
            Ok(cycles) => (cycles, None),
            Err((error, cycles)) => (cycles, Some(error)),
        };
        let mut stats = SimStats {
            cycles,
            ..SimStats::default()
        };
        for core in &self.cores {
            stats.merge_core(&core.stats);
        }
        let (l2_hits, l2_misses, dr_acc, dr_rowhits) = self.memsys.observed();
        stats.l2_hits = l2_hits - l2_hits0;
        stats.l2_misses = l2_misses - l2_misses0;
        stats.dram_accesses = dr_acc - dr_acc0;
        stats.dram_row_hits = dr_rowhits - dr_rowhits0;
        if metrics::enabled() {
            // Issues served from the op table, and ops decoded into it.
            let served = if dense { 0 } else { stats.instructions };
            metrics::counter_add("sim.trace_cache.hits", served);
            metrics::counter_add("sim.trace_cache.misses", decoded);
        }
        let result = SimResult {
            stats,
            printf_output,
        };
        match fault {
            None => Ok(result),
            Some(error) => Err(Box::new(SimFault {
                error,
                partial: result,
            })),
        }
    }

    /// Instructions issued so far this launch, across all cores (the dense
    /// loop's budget check; the event loop keeps a running count).
    fn instructions_total(&self) -> u64 {
        self.cores.iter().map(|c| c.stats.instructions).sum()
    }

    /// The structured no-progress report: every live warp on every alive
    /// core is parked at a barrier. Derived purely from core state, so
    /// both scheduler loops produce the identical report.
    /// `DivergenceDeadlock` when some warp slot is *not* parked (halted or
    /// never spawned): the count was reachable had that warp participated,
    /// so a barrier was executed under divergence. `BarrierDeadlock`
    /// otherwise.
    fn deadlock_error(&self) -> ReproError {
        let mut stuck = Vec::new();
        let mut divergence = false;
        for core in &self.cores {
            if !core.any_active() {
                // A fully-halted core finished its work; it is not party
                // to the deadlock.
                continue;
            }
            stuck.extend(core.stuck_warps());
            divergence |= core.has_inactive_warp();
        }
        if divergence {
            ReproError::DivergenceDeadlock { stuck }
        } else {
            ReproError::BarrierDeadlock { stuck }
        }
    }

    /// The dense reference loop: every core ticks every cycle while any
    /// warp is live. This is the semantic definition the event-driven
    /// scheduler must reproduce bit-for-bit; keep it boring.
    ///
    /// Errors carry the cycle count at the abort so the caller can report
    /// partial statistics.
    fn run_dense<S: TraceSink>(
        &mut self,
        text: Text,
        printf_output: &mut Vec<String>,
        sink: &mut S,
    ) -> Result<u64, (ReproError, u64)> {
        let budget = self.cfg.max_instructions;
        let mut cycle: u64 = 0;
        loop {
            // Commit the shared memory system's epoch boundaries as the
            // clock passes them, exactly as the event loop does.
            self.memsys.advance_to(cycle);
            let mut any_alive = false;
            let mut any_issued = false;
            for ci in 0..self.cores.len() {
                let core = &mut self.cores[ci];
                if core.any_active() {
                    any_alive = true;
                    let r = core
                        .tick(
                            cycle,
                            text,
                            &mut self.mem,
                            self.memsys.view_mut(ci),
                            printf_output,
                            sink,
                        )
                        .map_err(|e| (e, cycle + 1))?;
                    any_issued |= matches!(r, TickResult::Issued);
                }
            }
            if !any_alive {
                return Ok(cycle);
            }
            if !any_issued
                && self
                    .cores
                    .iter()
                    .all(|c| !c.any_active() || c.next_event() == u64::MAX)
            {
                // Every alive core just ticked without issuing and cached
                // `u64::MAX` as its next event: all live warps are parked
                // at barriers, and barriers are core-local, so no future
                // cycle can change anything.
                return Err((self.deadlock_error(), cycle + 1));
            }
            if budget != u64::MAX && self.instructions_total() > budget {
                return Err((ReproError::InstructionBudget { limit: budget }, cycle + 1));
            }
            cycle += 1;
            if cycle > self.cfg.max_cycles {
                return Err((ReproError::CycleBudget { limit: cycle }, cycle));
            }
        }
    }

    /// The event-driven scheduler: each core carries the next cycle it must
    /// be ticked at, and the clock jumps straight to the earliest one. One
    /// pass over the cores per event cycle ticks the due ones and takes the
    /// minimum for the next.
    ///
    /// Why this is exact: a core that fails to issue at cycle `c` cannot
    /// issue before [`Core::next_issue_cycle`] — scoreboard ready-times,
    /// MSHR free-times and barrier membership are core-local facts that
    /// only one of the core's *own* issues can change. Other cores interact
    /// only through the shared L2/DRAM/memory at execute time, which
    /// affects the latency of *future* issues, not whether this core can
    /// issue; and since due cores are ticked in core order at each event
    /// cycle, those shared structures see the exact access sequence of the
    /// dense loop. The skipped cycles are bulk-accounted by
    /// [`Core::fast_forward_stalls`] with the dense loop's per-cycle
    /// classification.
    fn run_events<S: TraceSink>(
        &mut self,
        text: Text,
        printf_output: &mut Vec<String>,
        sink: &mut S,
    ) -> Result<u64, (ReproError, u64)> {
        let limit = self.cfg.max_cycles;
        let budget = self.cfg.max_instructions;
        // Launch start made every core live and due at cycle 0.
        let mut next_tick = vec![0u64; self.cores.len()];
        let mut cycle: u64 = 0;
        // Running count of this launch's issues, so the budget check does
        // not re-sum the cores after every event cycle.
        let mut issued: u64 = 0;
        loop {
            self.memsys.advance_to(cycle);
            let mut next = u64::MAX;
            let mut any_alive = false;
            for (ci, tick_at) in next_tick.iter_mut().enumerate() {
                let core = &mut self.cores[ci];
                if !core.any_active() {
                    continue;
                }
                if *tick_at == cycle {
                    let r = core
                        .tick(
                            cycle,
                            text,
                            &mut self.mem,
                            self.memsys.view_mut(ci),
                            printf_output,
                            sink,
                        )
                        .map_err(|e| (e, cycle + 1))?;
                    if matches!(r, TickResult::Issued) {
                        *tick_at = cycle + 1;
                        issued += 1;
                    } else {
                        let target = core.next_event();
                        debug_assert_eq!(
                            target,
                            core.next_issue_cycle(cycle, text.program),
                            "cached next-event diverged from recomputation"
                        );
                        if target != u64::MAX {
                            core.fast_forward_stalls(
                                cycle + 1,
                                target.min(limit.saturating_add(1)),
                                sink,
                            );
                        }
                        // A core parked forever (target = MAX) is left
                        // alone: the deadlock check below fires once every
                        // other core drains, without pre-charging stall
                        // cycles that the abort would cut short.
                        *tick_at = target;
                    }
                    if !core.any_active() {
                        continue;
                    }
                }
                any_alive = true;
                next = next.min(*tick_at);
            }
            let end = cycle + 1;
            debug_assert_eq!(issued, self.instructions_total());
            if issued > budget {
                // Issues happen in the identical order in both scheduler
                // modes, so the budget trips at the identical instruction.
                return Err((ReproError::InstructionBudget { limit: budget }, end));
            }
            if !any_alive {
                // Every warp has halted; the dense loop would have broken
                // out one cycle after the last issue.
                return Ok(end);
            }
            if next == u64::MAX {
                // No core has a pending event: every live warp is parked
                // at a barrier — the same state the dense loop detects the
                // cycle after the last arrival, with the same stuck set.
                return Err((self.deadlock_error(), end));
            }
            if next > limit {
                // The dense loop errors as soon as its counter passes the
                // limit, always with value limit + 1.
                return Err((
                    ReproError::CycleBudget {
                        limit: limit.saturating_add(1),
                    },
                    limit.saturating_add(1),
                ));
            }
            cycle = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_isa::{abi, AluOp, Csr, Instr};

    /// warp0/thread0 stores 42 to HEAP_BASE then halts.
    fn store42() -> Program {
        use vortex_isa::layout::HEAP_BASE;
        Program {
            instrs: vec![
                // t0 = HEAP_BASE (via lui; HEAP_BASE = 0x100000 = 0x100 << 12)
                Instr::Lui {
                    rd: abi::T0,
                    imm: (HEAP_BASE >> 12) as i32,
                },
                Instr::OpImm {
                    op: AluOp::Add,
                    rd: abi::T1,
                    rs1: abi::ZERO,
                    imm: 42,
                },
                Instr::Sw {
                    rs1: abi::T0,
                    rs2: abi::T1,
                    imm: 0,
                },
                Instr::Tmc { rs1: abi::ZERO },
            ],
            printf_table: vec![],
            entry: 0,
        }
    }

    #[test]
    fn minimal_program_stores_and_halts() {
        let cfg = SimConfig::new(VortexConfig::new(1, 2, 4));
        let mut sim = Simulator::new(cfg, store42());
        let r = sim.run().unwrap();
        assert_eq!(sim.mem.read_u32(vortex_isa::layout::HEAP_BASE).unwrap(), 42);
        assert!(r.stats.cycles > 0);
        assert!(r.stats.instructions >= 4);
    }

    #[test]
    fn cycle_limit_catches_spin() {
        let p = Program {
            instrs: vec![Instr::Jal { rd: 0, offset: 0 }],
            printf_table: vec![],
            entry: 0,
        };
        let mut cfg = SimConfig::new(VortexConfig::new(1, 1, 1));
        cfg.max_cycles = 10_000;
        let mut sim = Simulator::new(cfg, p);
        let fault = sim.run().unwrap_err();
        assert!(matches!(fault.error, ReproError::CycleBudget { .. }));
        // The watchdog salvages the statistics accumulated so far.
        assert_eq!(fault.partial.stats.cycles, 10_001);
        assert!(fault.partial.stats.instructions > 0);
    }

    /// The instruction budget trips at the identical instruction in both
    /// scheduler modes: issues happen in the identical order, and the
    /// error payload carries the budget, not a mode-dependent cycle.
    #[test]
    fn instruction_budget_trips_identically_in_both_modes() {
        let p = Program {
            instrs: vec![Instr::Jal { rd: 0, offset: 0 }],
            printf_table: vec![],
            entry: 0,
        };
        let mut cfg = SimConfig::new(VortexConfig::new(1, 2, 2));
        cfg.max_instructions = 100;
        let mut fast = Simulator::new(cfg.clone(), p.clone());
        let fast_fault = fast.run().unwrap_err();
        cfg.reference_mode = true;
        let mut dense = Simulator::new(cfg, p);
        let dense_fault = dense.run().unwrap_err();
        assert_eq!(
            fast_fault.error,
            ReproError::InstructionBudget { limit: 100 }
        );
        assert_eq!(fast_fault.error, dense_fault.error);
        assert_eq!(
            fast_fault.partial.stats.instructions,
            dense_fault.partial.stats.instructions
        );
        assert_eq!(fast_fault.partial.stats.instructions, 101);
    }

    /// A warp that jumps outside the program faults at its next issue slot,
    /// with the same structured error from every run loop: the dense loop
    /// (from-scratch fetch) and the event loop (op-table fetch).
    #[test]
    fn bad_pc_faults_identically_in_every_run_loop() {
        let p = Program {
            instrs: vec![
                Instr::OpImm {
                    op: AluOp::Add,
                    rd: abi::T0,
                    rs1: abi::ZERO,
                    imm: 1,
                },
                Instr::Jal { rd: 0, offset: 41 },
            ],
            printf_table: vec![],
            entry: 0,
        };
        let want = ReproError::OutOfBounds {
            addr: 42,
            pc: 42,
            space: "text".to_string(),
        };
        let mut faults = Vec::new();
        for reference_mode in [true, false] {
            let mut cfg = SimConfig::new(VortexConfig::new(2, 2, 4));
            cfg.reference_mode = reference_mode;
            let fault = Simulator::new(cfg, p.clone()).run().unwrap_err();
            assert_eq!(fault.error, want);
            faults.push((fault.partial.stats.cycles, fault.partial.stats.instructions));
        }
        assert_eq!(faults[0], faults[1]);
    }

    /// WSPAWN fan-out + BAR rendezvous: both schedulers must agree on every
    /// counter and on memory. This exercises the barrier wake path, where a
    /// span's end is another warp's arrival rather than a scoreboard time.
    #[test]
    fn fast_forward_matches_dense_across_wspawn_and_barriers() {
        use vortex_isa::layout::HEAP_BASE;
        // warp 0 spawns NW warps; each warp stores its id, waits at a
        // barrier for all NW warps, then re-reads a neighbour's slot and
        // stores the sum — wrong if the barrier releases early or late.
        let p = Program {
            instrs: vec![
                Instr::CsrRead {
                    rd: abi::T0,
                    csr: Csr::NumWarps,
                },
                Instr::OpImm {
                    op: AluOp::Add,
                    rd: abi::T1,
                    rs1: abi::ZERO,
                    imm: 3,
                },
                Instr::Wspawn {
                    rs1: abi::T0,
                    rs2: abi::T1,
                },
                // entry (pc=3): x5 = wid, x6 = wid*4, x7 = HEAP_BASE
                Instr::CsrRead {
                    rd: abi::T0,
                    csr: Csr::WarpId,
                },
                Instr::OpImm {
                    op: AluOp::Sll,
                    rd: abi::T1,
                    rs1: abi::T0,
                    imm: 2,
                },
                Instr::Lui {
                    rd: abi::T2,
                    imm: (HEAP_BASE >> 12) as i32,
                },
                Instr::Op {
                    op: AluOp::Add,
                    rd: abi::T2,
                    rs1: abi::T2,
                    rs2: abi::T1,
                },
                Instr::Sw {
                    rs1: abi::T2,
                    rs2: abi::T0,
                    imm: 0,
                },
                // bar(id = 0 (x0), count = NW (x8 = NumWarps))
                Instr::CsrRead {
                    rd: 8,
                    csr: Csr::NumWarps,
                },
                Instr::Bar {
                    rs1: abi::ZERO,
                    rs2: 8,
                },
                // x9 = neighbour (wid+1 mod NW) slot value; store wid+it
                Instr::OpImm {
                    op: AluOp::Add,
                    rd: 9,
                    rs1: abi::T0,
                    imm: 1,
                },
                Instr::MulDiv {
                    op: vortex_isa::MulOp::Remu,
                    rd: 9,
                    rs1: 9,
                    rs2: 8,
                },
                Instr::OpImm {
                    op: AluOp::Sll,
                    rd: 9,
                    rs1: 9,
                    imm: 2,
                },
                Instr::Lui {
                    rd: 10,
                    imm: (HEAP_BASE >> 12) as i32,
                },
                Instr::Op {
                    op: AluOp::Add,
                    rd: 10,
                    rs1: 10,
                    rs2: 9,
                },
                Instr::Lw {
                    rd: 11,
                    rs1: 10,
                    imm: 0,
                },
                Instr::Op {
                    op: AluOp::Add,
                    rd: 11,
                    rs1: 11,
                    rs2: abi::T0,
                },
                Instr::Sw {
                    rs1: abi::T2,
                    rs2: 11,
                    imm: 0,
                },
                Instr::Tmc { rs1: abi::ZERO },
            ],
            printf_table: vec![],
            entry: 0,
        };
        for (w, t) in [(2u32, 2u32), (4, 4), (8, 2)] {
            let mut cfg = SimConfig::new(VortexConfig::new(1, w, t));
            let mut fast = Simulator::new(cfg.clone(), p.clone());
            let fast_r = fast.run().unwrap();
            cfg.reference_mode = true;
            let mut dense = Simulator::new(cfg, p.clone());
            let dense_r = dense.run().unwrap();
            assert_eq!(fast_r.stats, dense_r.stats, "{w}w{t}t stats diverge");
            for wi in 0..w {
                let addr = vortex_isa::layout::HEAP_BASE + wi * 4;
                assert_eq!(
                    fast.mem.read_u32(addr).unwrap(),
                    dense.mem.read_u32(addr).unwrap(),
                    "{w}w{t}t: heap slot {wi} diverges"
                );
                // Slot holds neighbour-id + own-id after the barrier.
                assert_eq!(
                    fast.mem.read_u32(addr).unwrap(),
                    (wi + 1) % w + wi,
                    "{w}w{t}t: barrier released at the wrong time"
                );
            }
        }
    }

    /// A barrier that can never be satisfied deadlocks the core; both
    /// schedulers must produce the identical structured report naming the
    /// stuck warp — long before the cycle limit. Warp 1 was never spawned,
    /// so the count *was* reachable: this classifies as divergence.
    #[test]
    fn barrier_deadlock_reported_identically_in_both_modes() {
        let p = Program {
            instrs: vec![
                // x5 = 2, but only warp 0 exists: bar(0, 2) never releases.
                Instr::OpImm {
                    op: AluOp::Add,
                    rd: abi::T0,
                    rs1: abi::ZERO,
                    imm: 2,
                },
                Instr::Bar {
                    rs1: abi::ZERO,
                    rs2: abi::T0,
                },
                Instr::Tmc { rs1: abi::ZERO },
            ],
            printf_table: vec![],
            entry: 0,
        };
        let mut cfg = SimConfig::new(VortexConfig::new(1, 2, 2));
        cfg.max_cycles = 10_000;
        let mut fast = Simulator::new(cfg.clone(), p.clone());
        let fast_fault = fast.run().unwrap_err();
        cfg.reference_mode = true;
        let mut dense = Simulator::new(cfg, p);
        let dense_fault = dense.run().unwrap_err();
        // Warp 1 never spawned: the count was reachable.
        let ReproError::DivergenceDeadlock { stuck } = &fast_fault.error else {
            panic!("expected divergence deadlock, got {:?}", fast_fault.error);
        };
        assert_eq!(stuck.len(), 1);
        assert_eq!(stuck[0].warp, 0);
        assert_eq!(stuck[0].barrier, Some((0, 2)));
        assert_eq!(stuck[0].arrived, 1);
        assert_eq!(fast_fault.error, dense_fault.error);
        // Detection is immediate, not budget-bound.
        assert!(fast_fault.partial.stats.cycles < 100);
    }

    /// When every warp arrives at a barrier whose count exceeds the warp
    /// count, no schedule could ever satisfy it: a true barrier deadlock,
    /// reported identically by both schedulers.
    #[test]
    fn unsatisfiable_barrier_count_is_a_barrier_deadlock() {
        let p = Program {
            instrs: vec![
                // warp 0: spawn all NW warps at pc 3.
                Instr::CsrRead {
                    rd: abi::T0,
                    csr: Csr::NumWarps,
                },
                Instr::OpImm {
                    op: AluOp::Add,
                    rd: abi::T1,
                    rs1: abi::ZERO,
                    imm: 3,
                },
                Instr::Wspawn {
                    rs1: abi::T0,
                    rs2: abi::T1,
                },
                // all warps: bar(0, NW + 1) — one arrival short, forever.
                Instr::CsrRead {
                    rd: abi::T0,
                    csr: Csr::NumWarps,
                },
                Instr::OpImm {
                    op: AluOp::Add,
                    rd: abi::T0,
                    rs1: abi::T0,
                    imm: 1,
                },
                Instr::Bar {
                    rs1: abi::ZERO,
                    rs2: abi::T0,
                },
                Instr::Tmc { rs1: abi::ZERO },
            ],
            printf_table: vec![],
            entry: 0,
        };
        let mut cfg = SimConfig::new(VortexConfig::new(1, 2, 2));
        cfg.max_cycles = 10_000;
        let mut fast = Simulator::new(cfg.clone(), p.clone());
        let fast_fault = fast.run().unwrap_err();
        cfg.reference_mode = true;
        let mut dense = Simulator::new(cfg, p);
        let dense_fault = dense.run().unwrap_err();
        // All warps parked: the count is unsatisfiable.
        let ReproError::BarrierDeadlock { stuck } = &fast_fault.error else {
            panic!("expected barrier deadlock, got {:?}", fast_fault.error);
        };
        assert_eq!(stuck.len(), 2, "both warps named in the report");
        assert!(stuck.iter().all(|w| w.barrier == Some((0, 3))));
        assert_eq!(fast_fault.error, dense_fault.error);
    }

    #[test]
    fn wspawn_activates_other_warps() {
        use vortex_isa::layout::HEAP_BASE;
        // Each warp stores its warp id to HEAP_BASE + wid*4, then halts.
        // warp 0 spawns all warps first.
        let p = Program {
            instrs: vec![
                // x5 = NW
                Instr::CsrRead {
                    rd: abi::T0,
                    csr: Csr::NumWarps,
                },
                // x6 = entry (3)
                Instr::OpImm {
                    op: AluOp::Add,
                    rd: abi::T1,
                    rs1: abi::ZERO,
                    imm: 3,
                },
                Instr::Wspawn {
                    rs1: abi::T0,
                    rs2: abi::T1,
                },
                // entry (pc=3): x5 = wid
                Instr::CsrRead {
                    rd: abi::T0,
                    csr: Csr::WarpId,
                },
                // x6 = wid*4
                Instr::OpImm {
                    op: AluOp::Sll,
                    rd: abi::T1,
                    rs1: abi::T0,
                    imm: 2,
                },
                // x7 = HEAP_BASE
                Instr::Lui {
                    rd: abi::T2,
                    imm: (HEAP_BASE >> 12) as i32,
                },
                Instr::Op {
                    op: AluOp::Add,
                    rd: abi::T2,
                    rs1: abi::T2,
                    rs2: abi::T1,
                },
                Instr::Sw {
                    rs1: abi::T2,
                    rs2: abi::T0,
                    imm: 0,
                },
                Instr::Tmc { rs1: abi::ZERO },
            ],
            printf_table: vec![],
            entry: 0,
        };
        let cfg = SimConfig::new(VortexConfig::new(1, 4, 2));
        let mut sim = Simulator::new(cfg, p);
        sim.run().unwrap();
        for w in 0..4u32 {
            assert_eq!(
                sim.mem
                    .read_u32(vortex_isa::layout::HEAP_BASE + w * 4)
                    .unwrap(),
                w,
                "warp {w} did not run"
            );
        }
    }

    /// Two programs of different lengths, swapped between launches on one
    /// 4-core machine, the longer one's image shared by its launches. A
    /// stale op table or issue snapshot after a swap would execute the
    /// other program's ops or fetch past the end of the shorter one; both
    /// loops must agree on every launch's stats and printf output, and on
    /// the final memory.
    #[test]
    fn swapping_images_between_launches_matches_the_dense_loop() {
        use vortex_isa::layout::HEAP_BASE;
        use vortex_isa::{BranchCond, PrintfFmt};
        let addi = |rd, rs1, imm| Instr::OpImm {
            op: AluOp::Add,
            rd,
            rs1,
            imm,
        };
        let slli = |rd, rs1, imm| Instr::OpImm {
            op: AluOp::Sll,
            rd,
            rs1,
            imm,
        };
        let add = |rd, rs1, rs2| Instr::Op {
            op: AluOp::Add,
            rd,
            rs1,
            rs2,
        };
        let heap = Instr::Lui {
            rd: abi::T2,
            imm: (HEAP_BASE >> 12) as i32,
        };
        // Every warp of every core sums 5 + 4 + ... + 1 onto its slot and
        // prints. The spawned warps start on a load, so a spawn that left
        // their snapshots alone would scan them as non-memory ops.
        let long = Program {
            instrs: vec![
                Instr::CsrRead {
                    rd: abi::T0,
                    csr: Csr::NumWarps,
                },
                addi(abi::T1, abi::ZERO, 3),
                Instr::Wspawn {
                    rs1: abi::T0,
                    rs2: abi::T1,
                },
                Instr::Lw {
                    rd: 11,
                    rs1: abi::ZERO,
                    imm: 0,
                },
                Instr::CsrRead {
                    rd: abi::T0,
                    csr: Csr::WarpId,
                },
                Instr::CsrRead {
                    rd: abi::T1,
                    csr: Csr::CoreId,
                },
                slli(abi::T0, abi::T0, 2),
                slli(abi::T1, abi::T1, 6),
                add(abi::T0, abi::T0, abi::T1),
                heap,
                add(abi::T2, abi::T2, abi::T0),
                Instr::Lw {
                    rd: 10,
                    rs1: abi::T2,
                    imm: 0,
                },
                addi(9, abi::ZERO, 5),
                add(10, 10, 9),
                addi(9, 9, -1),
                Instr::Branch {
                    cond: BranchCond::Ne,
                    rs1: 9,
                    rs2: abi::ZERO,
                    offset: -2,
                },
                Instr::Sw {
                    rs1: abi::T2,
                    rs2: 10,
                    imm: 0,
                },
                Instr::Print { fmt: 0 },
                Instr::Tmc { rs1: abi::ZERO },
            ],
            printf_table: vec![PrintfFmt {
                fmt: "long\n".to_string(),
                args: vec![],
            }],
            entry: 0,
        };
        // Warp 0 of every core adds 7 to its core's first slot.
        let short = Program {
            instrs: vec![
                Instr::CsrRead {
                    rd: abi::T0,
                    csr: Csr::CoreId,
                },
                slli(abi::T0, abi::T0, 6),
                heap,
                add(abi::T2, abi::T2, abi::T0),
                Instr::Lw {
                    rd: 10,
                    rs1: abi::T2,
                    imm: 0,
                },
                addi(10, 10, 7),
                Instr::Sw {
                    rs1: abi::T2,
                    rs2: 10,
                    imm: 0,
                },
                Instr::Tmc { rs1: abi::ZERO },
            ],
            printf_table: vec![],
            entry: 0,
        };
        let run = |reference_mode: bool| {
            let mut cfg = SimConfig::new(VortexConfig::new(4, 4, 2));
            cfg.reference_mode = reference_mode;
            let long = Arc::new(Image::new(long.clone()));
            let short = Arc::new(Image::new(short.clone()));
            let mut sim = Simulator::with_image(cfg, Arc::clone(&long));
            let mut launches = Vec::new();
            for image in [&long, &short, &long, &short, &short, &long] {
                sim.set_image(Arc::clone(image));
                let r = sim.run().unwrap();
                launches.push((r.stats, r.printf_output));
            }
            let words = sim.mem.read_bytes(HEAP_BASE, 256).unwrap().to_vec();
            assert_eq!(long.decoded(), !reference_mode);
            (launches, words)
        };
        let (fast, dense) = (run(false), run(true));
        assert_eq!(fast.0, dense.0, "per-launch stats or printf diverge");
        assert_eq!(fast.1, dense.1, "memory diverges");
        // Core 0's first slot: three long launches of 15 each, three short
        // ones of 7 each.
        assert_eq!(fast.1[..4], (3 * 15 + 3 * 7u32).to_le_bytes());
        assert_eq!(fast.0[0].1.len(), 16, "every warp of every core prints");
    }

    /// Zero-overhead guard: the decoded op table is never built in
    /// `reference_mode` — the dense loop stays on the from-scratch decode
    /// path — while the default loop builds it on the first run.
    #[test]
    fn trace_cache_not_constructed_in_reference_mode() {
        let mut cfg = SimConfig::new(VortexConfig::new(1, 2, 4));
        cfg.reference_mode = true;
        let mut dense = Simulator::new(cfg, store42());
        dense.run().unwrap();
        assert!(
            !dense.op_table_built(),
            "reference_mode must not pay for (or consult) the op table"
        );

        let cfg = SimConfig::new(VortexConfig::new(1, 2, 4));
        let mut fast = Simulator::new(cfg, store42());
        fast.run().unwrap();
        assert!(fast.op_table_built(), "default loop decodes into it");
    }
}
