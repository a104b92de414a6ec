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
pub use dram::{DramConfig, DramModel};
pub use mem::{DeviceMem, SimMemory};
pub use memsys::{MemSystem, MemView};
pub use profile::LaunchProfile;
pub use stats::{SimStats, StallKind};
pub use trace::{canonical_core_events, CacheLevel, NopSink, RecordingSink, TraceEvent, TraceSink};

use fpga_arch::VortexConfig;
use memsys::{AmoMem, ShardedMem, WriteBuf};
use repro_util::{metrics, par_map_mut};
use std::marker::PhantomData;
use vortex_isa::Program;

/// Full simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Cores / warps / threads (the paper's C, W, T).
    pub hw: VortexConfig,
    /// Per-core data cache.
    pub dcache: CacheConfig,
    /// Shared L2.
    pub l2: CacheConfig,
    /// Off-chip memory.
    pub dram: DramConfig,
    /// Miss-status holding registers per core (outstanding misses).
    pub mshrs: u32,
    /// Per-core local memory bytes.
    pub local_mem_bytes: u32,
    /// Global memory bytes.
    pub global_mem_bytes: u32,
    /// Execution-unit latencies in cycles.
    pub lat_alu: u32,
    pub lat_mul: u32,
    pub lat_div: u32,
    pub lat_fpu: u32,
    pub lat_fdiv: u32,
    pub lat_sfu: u32,
    /// D-cache hit latency.
    pub lat_dcache: u32,
    /// L2 hit latency.
    pub lat_l2: u32,
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
    /// Reference mode also disables the macro-op trace cache, keeping the
    /// baseline on the from-scratch decode path.
    pub reference_mode: bool,
    /// Worker threads for the deterministic parallel run loop. `1` (the
    /// default) keeps the sequential event-driven scheduler; `> 1` runs
    /// cores concurrently in barrier-synchronized epochs with results
    /// bit-identical to the sequential loops (see [`memsys`]).
    pub sim_threads: u32,
    /// Epoch length in cycles for the shared-memory-system quantization.
    /// All run loops freeze the shared L2/DRAM timing state at multiples
    /// of this, so changing it changes multi-core timings (deterministic
    /// for any fixed value); it never affects single-core machines.
    pub epoch_cycles: u64,
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
            l2: CacheConfig {
                sets: 256,
                ways: 4,
                line_bytes: 64,
            },
            dram: DramConfig::default(),
            mshrs: 4,
            local_mem_bytes: 64 << 10,
            global_mem_bytes: 64 << 20,
            lat_alu: 2,
            lat_mul: 4,
            lat_div: 16,
            lat_fpu: 6,
            lat_fdiv: 16,
            lat_sfu: 12,
            lat_dcache: 2,
            lat_l2: 10,
            max_cycles: 2_000_000_000,
            max_instructions: u64::MAX,
            reference_mode: false,
            sim_threads: 1,
            // Swept {16, 64, 256, 2048} on the Fig. 7 grid: short epochs
            // buy back a little timing fidelity (the frozen L2/DRAM view
            // refreshes more often) but the per-epoch commit overhead
            // costs more wall-clock than the fidelity is worth. 2048 was
            // the throughput knee.
            epoch_cycles: 2048,
        }
    }
}

/// Simulation failure modes.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// PC outside the program.
    BadPc { core: u32, warp: u32, pc: u32 },
    /// Memory access outside mapped regions.
    BadAccess { addr: u32, pc: u32 },
    /// Word access to a non-word-aligned address.
    Misaligned { addr: u32, pc: u32 },
    /// `max_cycles` exceeded (livelock guard).
    CycleLimit(u64),
    /// `max_instructions` exceeded (runaway-work guard).
    InstrLimit(u64),
    /// No warp can ever issue again: every live warp on every alive core
    /// is parked at a barrier whose release count cannot be reached.
    /// `divergence` is true when some warp slot is *not* parked (halted
    /// or never spawned) — the count was reachable had that warp
    /// participated, i.e. a barrier was executed under divergence.
    Deadlock {
        stuck: Vec<repro_diag::StuckWarp>,
        divergence: bool,
    },
    /// Decode failure on fetch.
    Decode(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::BadPc { core, warp, pc } => {
                write!(f, "core {core} warp {warp}: pc {pc} outside program")
            }
            SimError::BadAccess { addr, pc } => {
                write!(f, "bad memory access at {addr:#x} (pc {pc})")
            }
            SimError::Misaligned { addr, pc } => {
                write!(f, "misaligned word access at {addr:#x} (pc {pc})")
            }
            SimError::CycleLimit(c) => write!(f, "cycle limit {c} exceeded"),
            SimError::InstrLimit(n) => write!(f, "instruction budget {n} exceeded"),
            SimError::Deadlock { stuck, divergence } => {
                write!(
                    f,
                    "{} deadlock: {} warp(s) stuck",
                    if *divergence { "divergence" } else { "barrier" },
                    stuck.len()
                )?;
                for w in stuck {
                    write!(f, "; {w}")?;
                }
                Ok(())
            }
            SimError::Decode(m) => write!(f, "decode: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<SimError> for repro_diag::ReproError {
    fn from(e: SimError) -> Self {
        use repro_diag::ReproError as R;
        let space = |addr: u32| {
            if SimMemory::is_local(addr) {
                "local".to_string()
            } else {
                "global".to_string()
            }
        };
        match e {
            SimError::BadPc { pc, .. } => R::OutOfBounds {
                addr: pc,
                pc,
                space: "text".to_string(),
            },
            SimError::BadAccess { addr, pc } => R::OutOfBounds {
                addr,
                pc,
                space: space(addr),
            },
            SimError::Misaligned { addr, pc } => R::Misaligned {
                addr,
                align: 4,
                pc,
                space: space(addr),
            },
            SimError::CycleLimit(limit) => R::CycleBudget { limit },
            SimError::InstrLimit(limit) => R::InstructionBudget { limit },
            SimError::Deadlock { stuck, divergence } => {
                if divergence {
                    R::DivergenceDeadlock { stuck }
                } else {
                    R::BarrierDeadlock { stuck }
                }
            }
            SimError::Decode(m) => R::Codegen { message: m },
        }
    }
}

/// A simulation that aborted: the structured error plus everything the
/// watchdog could salvage — statistics and printf output up to the abort
/// point. Any trace events were already streamed to the sink, so a fault
/// leaves the trace intact too.
#[derive(Debug, Clone)]
pub struct SimFault {
    pub error: SimError,
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

impl From<Box<SimFault>> for repro_diag::ReproError {
    fn from(f: Box<SimFault>) -> Self {
        f.error.into()
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
    program: Program,
    /// Whether the most recent launch used the parallel run loop.
    used_parallel: bool,
}

impl Simulator {
    /// Build a machine and load `program`.
    pub fn new(cfg: SimConfig, program: Program) -> Self {
        let cores = (0..cfg.hw.cores).map(|c| Core::new(c, &cfg)).collect();
        Simulator {
            mem: SimMemory::new(cfg.global_mem_bytes, cfg.hw.cores, cfg.local_mem_bytes),
            memsys: MemSystem::new(cfg.l2, cfg.dram, cfg.hw.cores, cfg.epoch_cycles),
            cores,
            program,
            cfg,
            used_parallel: false,
        }
    }

    /// Replace the loaded kernel binary (between launches of a multi-kernel
    /// application); device memory is preserved, caches are cold. This is
    /// the *only* point that invalidates the per-core macro-op trace
    /// caches: within a launch sequence of one binary nothing is ever
    /// re-decoded.
    pub fn set_program(&mut self, program: Program) {
        self.program = program;
        for core in &mut self.cores {
            core.invalidate_tcache();
        }
    }

    /// True if any core has materialized its macro-op trace cache. Stays
    /// `false` for the lifetime of a `reference_mode` machine — the
    /// zero-overhead guarantee the baseline loop's tests pin down.
    pub fn trace_cache_built(&self) -> bool {
        self.cores.iter().any(|c| c.trace_cache_built())
    }

    /// Whether the most recent [`run`](Simulator::run) used the parallel
    /// epoch loop (as opposed to one of the sequential schedulers).
    pub fn last_run_parallel(&self) -> bool {
        self.used_parallel
    }

    /// Reset all cores to warp 0 / pc `entry` with one active thread, as the
    /// runtime's doorbell does on real hardware.
    pub fn start(&mut self) {
        for core in &mut self.cores {
            core.reset_for_launch(self.program.entry);
        }
    }

    /// Run until every warp has halted. Returns statistics and console
    /// output.
    ///
    /// The default scheduler is event-driven (see [`Simulator::run_events`]);
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
        self.start();
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
        // The parallel loop hands instruction-budgeted runs back to the
        // sequential scheduler: the budget must trip at the identical
        // instruction, which only a globally ordered loop can check
        // mid-epoch. Budgets are a watchdog/debug feature, not a perf path.
        let parallel = !self.cfg.reference_mode
            && self.cfg.sim_threads > 1
            && self.cores.len() > 1
            && self.cfg.max_instructions == u64::MAX;
        self.used_parallel = parallel;
        let outcome = if self.cfg.reference_mode {
            self.run_dense(&mut printf_output, sink)
        } else if parallel {
            self.run_parallel(&mut printf_output, sink)
        } else {
            self.run_events(&mut printf_output, sink)
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
            let mut t = (0u64, 0u64, 0u64, 0u64);
            for core in &mut self.cores {
                let (h, m, f, r) = core.take_tcache_counters();
                t = (t.0 + h, t.1 + m, t.2 + f, t.3 + r);
            }
            metrics::counter_add("sim.trace_cache.hits", t.0);
            metrics::counter_add("sim.trace_cache.misses", t.1);
            metrics::counter_add("sim.trace_cache.fused_ops", t.2);
            metrics::counter_add("sim.trace_cache.runs", t.3);
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
    fn deadlock_error(&self) -> SimError {
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
        SimError::Deadlock { stuck, divergence }
    }

    /// The dense reference loop: every core ticks every cycle while any
    /// warp is live. This is the semantic definition the event-driven
    /// scheduler must reproduce bit-for-bit; keep it boring.
    ///
    /// Errors carry the cycle count at the abort so the caller can report
    /// partial statistics.
    fn run_dense<S: TraceSink>(
        &mut self,
        printf_output: &mut Vec<String>,
        sink: &mut S,
    ) -> Result<u64, (SimError, u64)> {
        let budget = self.cfg.max_instructions;
        let mut cycle: u64 = 0;
        loop {
            // Freeze/commit the shared memory system at epoch boundaries —
            // the same quantization the parallel loop uses, applied here so
            // all schedulers see identical multi-core timing.
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
                            &self.program,
                            &mut self.mem,
                            &mut self.memsys.views_mut()[ci],
                            printf_output,
                            sink,
                            true,
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
                return Err((SimError::InstrLimit(budget), cycle + 1));
            }
            cycle += 1;
            if cycle > self.cfg.max_cycles {
                return Err((SimError::CycleLimit(cycle), cycle));
            }
        }
    }

    /// The event-driven scheduler: each core carries the next cycle it must
    /// be ticked at, and the clock jumps straight to the earliest one.
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
        printf_output: &mut Vec<String>,
        sink: &mut S,
    ) -> Result<u64, (SimError, u64)> {
        let limit = self.cfg.max_cycles;
        let budget = self.cfg.max_instructions;
        let n = self.cores.len();
        let mut next_tick = vec![0u64; n];
        let mut end: u64 = 0;
        // Running count of this launch's issues, so the budget check does
        // not re-sum the cores after every event cycle.
        let mut issued: u64 = 0;
        loop {
            let mut cycle = u64::MAX;
            let mut any_alive = false;
            for (ci, core) in self.cores.iter().enumerate() {
                if core.any_active() {
                    any_alive = true;
                    cycle = cycle.min(next_tick[ci]);
                }
            }
            if !any_alive {
                // Every warp has halted; the dense loop would have broken
                // out one cycle after the last issue.
                return Ok(end);
            }
            if cycle == u64::MAX {
                // No core has a pending event: every live warp is parked
                // at a barrier — the same state the dense loop detects the
                // cycle after the last arrival, with the same stuck set.
                return Err((self.deadlock_error(), end));
            }
            if cycle > limit {
                // The dense loop errors as soon as its counter passes the
                // limit, always with value limit + 1.
                return Err((
                    SimError::CycleLimit(limit.saturating_add(1)),
                    limit.saturating_add(1),
                ));
            }
            self.memsys.advance_to(cycle);
            for (ci, tick_at) in next_tick.iter_mut().enumerate() {
                if *tick_at != cycle || !self.cores[ci].any_active() {
                    continue;
                }
                let r = self.cores[ci]
                    .tick(
                        cycle,
                        &self.program,
                        &mut self.mem,
                        &mut self.memsys.views_mut()[ci],
                        printf_output,
                        sink,
                        true,
                    )
                    .map_err(|e| (e, cycle + 1))?;
                if matches!(r, TickResult::Issued) {
                    *tick_at = cycle + 1;
                    issued += 1;
                } else {
                    let target = self.cores[ci].next_event();
                    debug_assert_eq!(
                        target,
                        self.cores[ci].next_issue_cycle(cycle, &self.program),
                        "cached next-event diverged from recomputation"
                    );
                    if target != u64::MAX {
                        self.cores[ci].fast_forward_stalls(
                            cycle + 1,
                            target.min(limit.saturating_add(1)),
                            &self.program,
                            sink,
                        );
                    }
                    // A core parked forever (target = MAX) is left alone:
                    // the deadlock check above fires once every other core
                    // drains, without pre-charging stall cycles that the
                    // abort would cut short.
                    *tick_at = target;
                }
            }
            end = cycle + 1;
            debug_assert_eq!(issued, self.instructions_total());
            if issued > budget {
                // Issues happen in the identical order in both scheduler
                // modes, so the budget trips at the identical instruction.
                return Err((SimError::InstrLimit(budget), end));
            }
        }
    }

    /// The deterministic parallel scheduler: cores advance concurrently in
    /// barrier-synchronized epochs of [`SimConfig::epoch_cycles`] cycles.
    ///
    /// Within an epoch every core runs its own event-driven micro-loop
    /// against frozen shared state — an immutable snapshot of functional
    /// memory (plain stores buffer per-core) and its private [`MemView`] of
    /// the L2/DRAM timing models. Since the sequential loops quantize the
    /// shared memory system on the identical boundaries
    /// ([`MemSystem::advance_to`]), a core's evolution inside an epoch
    /// depends only on its own state: the worker interleaving is
    /// unobservable and cycles, stats, trace events and printf output are
    /// bit-identical to `run_events`.
    ///
    /// Atomics are the one cross-core coupling inside an epoch; a tick
    /// stops *before* executing one ([`TickResult::AmoPending`]) and the
    /// epoch barrier serializes all pending atomics in global (cycle, core)
    /// order against the master memory, resuming each core in between. At
    /// the epoch end, buffered stores land in canonical core order, the
    /// timing logs merge, and the buffered events/printf interleave back
    /// into the sequential emission order.
    fn run_parallel<S: TraceSink>(
        &mut self,
        printf_output: &mut Vec<String>,
        sink: &mut S,
    ) -> Result<u64, (SimError, u64)> {
        let limit = self.cfg.max_cycles;
        // Worker threads beyond the host's cores only add context-switch
        // overhead to a CPU-bound lockstep loop, so clamp the pool. Results
        // never depend on the worker count (the epoch protocol makes the
        // interleaving unobservable); with one worker `par_map_mut` runs
        // inline and this becomes the epoch loop minus the threads.
        let workers = (self.cfg.sim_threads as usize).min(
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
        );
        let n = self.cores.len();
        let mut states: Vec<ParCore> = (0..n).map(|_| ParCore::new()).collect();
        loop {
            let mut t0 = u64::MAX;
            let mut any_alive = false;
            for (ci, core) in self.cores.iter().enumerate() {
                if core.any_active() {
                    any_alive = true;
                    t0 = t0.min(states[ci].next_tick);
                }
            }
            let end = states.iter().map(|s| s.end).max().unwrap_or(0);
            if !any_alive {
                return Ok(end);
            }
            if t0 == u64::MAX {
                return Err((self.deadlock_error(), end));
            }
            if t0 > limit {
                return Err((
                    SimError::CycleLimit(limit.saturating_add(1)),
                    limit.saturating_add(1),
                ));
            }
            let t_end = self.memsys.epoch_end_after(t0).min(limit.saturating_add(1));
            // Parallel phase: every due core advances privately to the
            // epoch end (or until it halts, parks, faults, or reaches an
            // atomic).
            {
                let program = &self.program;
                let master: &SimMemory = &self.mem;
                let mut works: Vec<Work<'_>> = self
                    .cores
                    .iter_mut()
                    .zip(self.memsys.views_mut().iter_mut())
                    .zip(states.iter_mut())
                    .filter_map(|((core, view), st)| {
                        if core.any_active() && st.next_tick < t_end {
                            Some(Work { core, view, st })
                        } else {
                            None
                        }
                    })
                    .collect();
                par_map_mut(&mut works, workers, |w| {
                    micro_run::<S>(w.core, w.view, w.st, program, master, t_end, limit)
                });
            }
            // Atomic serialization: execute pending atomics strictly in
            // global (cycle, core) order against the master memory —
            // exactly the order the sequential loops execute them in —
            // resuming each core's private run in between.
            while states.iter().all(|s| s.error.is_none()) {
                let Some(ci) = (0..n)
                    .filter(|&i| states[i].pending_amo.is_some())
                    .min_by_key(|&i| (states[i].pending_amo.unwrap(), i))
                else {
                    break;
                };
                let cycle = states[ci].pending_amo.take().unwrap();
                let st = &mut states[ci];
                let core = &mut self.cores[ci];
                let view = &mut self.memsys.views_mut()[ci];
                let r = {
                    let mut mem = AmoMem {
                        master: &mut self.mem,
                        wbuf: &mut st.wbuf,
                    };
                    let mut sk = tagged::<S>(&mut st.events, cycle);
                    core.tick(
                        cycle,
                        &self.program,
                        &mut mem,
                        view,
                        &mut st.scratch,
                        &mut sk,
                        true,
                    )
                };
                match r {
                    Err(e) => {
                        for line in st.scratch.drain(..) {
                            st.printf.push((cycle, line));
                        }
                        st.end = st.end.max(cycle + 1);
                        st.error = Some((e, cycle + 1));
                    }
                    Ok(TickResult::Issued) => {
                        for line in st.scratch.drain(..) {
                            st.printf.push((cycle, line));
                        }
                        st.end = st.end.max(cycle + 1);
                        st.next_tick = cycle + 1;
                        micro_run::<S>(core, view, st, &self.program, &self.mem, t_end, limit);
                    }
                    Ok(other) => {
                        unreachable!("amo re-tick with amo_ok=true must issue, got {other:?}")
                    }
                }
            }
            // Epoch barrier. On a fault the buffered stores are dropped —
            // the sequential loops stop mid-epoch and partial memory state
            // is best-effort — but events and printf gathered so far flush.
            let fault = states
                .iter()
                .enumerate()
                .filter_map(|(ci, s)| s.error.clone().map(|(e, at)| (at, ci, e)))
                .min_by_key(|&(at, ci, _)| (at, ci));
            if let Some((at, _, error)) = fault {
                for st in &mut states {
                    st.wbuf.clear();
                }
                merge_epoch(&mut states, printf_output, sink);
                return Err((error, at));
            }
            // Commit: buffered plain stores land in canonical core order
            // (validated at buffering time; cannot fail), then the timing
            // logs merge and every view refreshes from the master.
            for (ci, st) in states.iter_mut().enumerate() {
                for (addr, v) in st.wbuf.drain() {
                    let _ = self.mem.store(ci as u32, addr, v);
                }
            }
            self.memsys.advance_to(t_end);
            merge_epoch(&mut states, printf_output, sink);
        }
    }
}

/// Per-core scratch state for the parallel epoch loop, persistent across
/// epochs within one launch.
struct ParCore {
    /// Buffered plain stores for the current epoch (addr → last value).
    wbuf: WriteBuf,
    /// Trace events tagged with the cycle of the tick that emitted them.
    events: Vec<(u64, TraceEvent)>,
    /// Printf lines tagged with their emitting tick's cycle.
    printf: Vec<(u64, String)>,
    /// Per-tick printf scratch, drained into `printf` after each tick.
    scratch: Vec<String>,
    /// Next cycle this core must tick at (`u64::MAX` = parked forever).
    next_tick: u64,
    /// One past the last cycle this core ticked at.
    end: u64,
    /// Cycle of a tick that stopped at an atomic, awaiting serialization.
    pending_amo: Option<u64>,
    /// First simulation error this core hit, with its end-cycle.
    error: Option<(SimError, u64)>,
}

impl ParCore {
    fn new() -> Self {
        ParCore {
            wbuf: WriteBuf::new(),
            events: Vec::new(),
            printf: Vec::new(),
            scratch: Vec::new(),
            next_tick: 0,
            end: 0,
            pending_amo: None,
            error: None,
        }
    }
}

/// One core's slice of an epoch, handed to `par_map_mut`.
struct Work<'a> {
    core: &'a mut Core,
    view: &'a mut MemView,
    st: &'a mut ParCore,
}

/// Per-core event buffering for the parallel loop: events are tagged with
/// the emitting tick's cycle so the epoch-end merge can interleave the
/// cores' buffers in the sequential loops' (cycle, core) emission order.
/// When the run's sink is a [`NopSink`] the push compiles out entirely
/// (`IS_NOP` propagates), keeping the untraced parallel path buffer-free.
struct TaggedSink<'a, S: TraceSink> {
    buf: &'a mut Vec<(u64, TraceEvent)>,
    now: u64,
    _sink: PhantomData<fn() -> S>,
}

impl<S: TraceSink> TraceSink for TaggedSink<'_, S> {
    const IS_NOP: bool = S::IS_NOP;

    #[inline]
    fn event(&mut self, ev: &TraceEvent) {
        if !S::IS_NOP {
            self.buf.push((self.now, *ev));
        }
    }
}

fn tagged<S: TraceSink>(buf: &mut Vec<(u64, TraceEvent)>, now: u64) -> TaggedSink<'_, S> {
    TaggedSink {
        buf,
        now,
        _sink: PhantomData,
    }
}

/// Advance one core through `[st.next_tick, t_end)` against the frozen
/// epoch state: the shared functional-memory snapshot (reads go through
/// the core's own write-buffer) and the core's private [`MemView`]. Stops
/// at the epoch end, at a pending atomic (serialized by the caller in
/// global cycle order), when the core halts or parks, or on error. This is
/// exactly one core's slice of `run_events`.
fn micro_run<S: TraceSink>(
    core: &mut Core,
    view: &mut MemView,
    st: &mut ParCore,
    program: &Program,
    master: &SimMemory,
    t_end: u64,
    limit: u64,
) {
    st.pending_amo = None;
    while st.next_tick < t_end && core.any_active() {
        let cycle = st.next_tick;
        let r = {
            let mut mem = ShardedMem {
                master,
                wbuf: &mut st.wbuf,
            };
            let mut sk = tagged::<S>(&mut st.events, cycle);
            core.tick(
                cycle,
                program,
                &mut mem,
                view,
                &mut st.scratch,
                &mut sk,
                false,
            )
        };
        match r {
            Err(e) => {
                for line in st.scratch.drain(..) {
                    st.printf.push((cycle, line));
                }
                st.end = st.end.max(cycle + 1);
                st.error = Some((e, cycle + 1));
                return;
            }
            Ok(TickResult::AmoPending) => {
                st.pending_amo = Some(cycle);
                return;
            }
            Ok(TickResult::Issued) => {
                for line in st.scratch.drain(..) {
                    st.printf.push((cycle, line));
                }
                st.end = st.end.max(cycle + 1);
                st.next_tick = cycle + 1;
            }
            Ok(TickResult::Stalled) => {
                st.end = st.end.max(cycle + 1);
                let target = core.next_event();
                debug_assert_eq!(
                    target,
                    core.next_issue_cycle(cycle, program),
                    "cached next-event diverged from recomputation"
                );
                if target != u64::MAX {
                    let mut sk = tagged::<S>(&mut st.events, cycle);
                    core.fast_forward_stalls(
                        cycle + 1,
                        target.min(limit.saturating_add(1)),
                        program,
                        &mut sk,
                    );
                }
                st.next_tick = target;
            }
        }
    }
}

/// Interleave the cores' buffered trace events and printf lines into the
/// sequential loops' global emission order: ascending tick cycle, cores in
/// index order within a cycle (a stable sort on the cycle tag over
/// core-ordered buffers yields both).
fn merge_epoch<S: TraceSink>(
    states: &mut [ParCore],
    printf_output: &mut Vec<String>,
    sink: &mut S,
) {
    if !S::IS_NOP {
        let mut events: Vec<(u64, TraceEvent)> = Vec::new();
        for st in states.iter_mut() {
            events.append(&mut st.events);
        }
        events.sort_by_key(|&(cycle, _)| cycle);
        for (_, ev) in &events {
            sink.event(ev);
        }
    }
    if states.iter().any(|s| !s.printf.is_empty()) {
        let mut lines: Vec<(u64, String)> = Vec::new();
        for st in states.iter_mut() {
            lines.append(&mut st.printf);
        }
        lines.sort_by_key(|&(cycle, _)| cycle);
        printf_output.extend(lines.into_iter().map(|(_, line)| line));
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
        assert!(matches!(fault.error, SimError::CycleLimit(_)));
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
        assert_eq!(fast_fault.error, SimError::InstrLimit(100));
        assert_eq!(fast_fault.error, dense_fault.error);
        assert_eq!(
            fast_fault.partial.stats.instructions,
            dense_fault.partial.stats.instructions
        );
        assert_eq!(fast_fault.partial.stats.instructions, 101);
    }

    /// A warp that jumps outside the program faults at its next issue slot,
    /// with the same structured error from every run loop: the dense loop
    /// (from-scratch fetch), the event loop and the parallel epoch loop
    /// (trace-cache fetch).
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
        let want = SimError::BadPc {
            core: 0,
            warp: 0,
            pc: 42,
        };
        let mut faults = Vec::new();
        for (reference_mode, sim_threads) in [(true, 1), (false, 1), (false, 2)] {
            let mut cfg = SimConfig::new(VortexConfig::new(2, 2, 4));
            cfg.reference_mode = reference_mode;
            cfg.sim_threads = sim_threads;
            let fault = Simulator::new(cfg, p.clone()).run().unwrap_err();
            assert_eq!(fault.error, want);
            faults.push((fault.partial.stats.cycles, fault.partial.stats.instructions));
        }
        assert_eq!(faults[0], faults[1]);
        assert_eq!(faults[0], faults[2]);
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
        let SimError::Deadlock { stuck, divergence } = &fast_fault.error else {
            panic!("expected deadlock, got {:?}", fast_fault.error);
        };
        assert!(*divergence, "warp 1 never spawned: count was reachable");
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
        let SimError::Deadlock { stuck, divergence } = &fast_fault.error else {
            panic!("expected deadlock, got {:?}", fast_fault.error);
        };
        assert!(!*divergence, "all warps parked: the count is unsatisfiable");
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

    /// Zero-overhead guard, decode side: the macro-op trace cache is never
    /// materialized in `reference_mode` — the dense loop stays on the
    /// from-scratch decode path — while the default loop builds it on the
    /// first run.
    #[test]
    fn trace_cache_not_constructed_in_reference_mode() {
        let mut cfg = SimConfig::new(VortexConfig::new(1, 2, 4));
        cfg.reference_mode = true;
        let mut dense = Simulator::new(cfg, store42());
        dense.run().unwrap();
        assert!(
            !dense.trace_cache_built(),
            "reference_mode must not pay for (or consult) the trace cache"
        );

        let cfg = SimConfig::new(VortexConfig::new(1, 2, 4));
        let mut fast = Simulator::new(cfg, store42());
        fast.run().unwrap();
        assert!(fast.trace_cache_built(), "default loop decodes into it");
    }

    /// Zero-overhead guard, threading side: runs that cannot benefit from
    /// the epoch machinery — one worker thread, or a single core — take
    /// the sequential fast path (no epoch loop, no thread spawns), and a
    /// genuinely parallel configuration actually engages it.
    #[test]
    fn one_thread_runs_take_the_sequential_fast_path() {
        // Default sim_threads = 1 on a multi-core machine: sequential.
        let cfg = SimConfig::new(VortexConfig::new(2, 2, 4));
        assert_eq!(cfg.sim_threads, 1);
        let mut sim = Simulator::new(cfg, store42());
        sim.run().unwrap();
        assert!(!sim.last_run_parallel());

        // Many threads but one core: nothing to run in parallel.
        let mut cfg = SimConfig::new(VortexConfig::new(1, 2, 4));
        cfg.sim_threads = 4;
        let mut sim = Simulator::new(cfg, store42());
        sim.run().unwrap();
        assert!(!sim.last_run_parallel());

        // Multi-thread × multi-core: the epoch loop engages.
        let mut cfg = SimConfig::new(VortexConfig::new(2, 2, 4));
        cfg.sim_threads = 2;
        let mut sim = Simulator::new(cfg, store42());
        sim.run().unwrap();
        assert!(sim.last_run_parallel());
    }
}
