//! The shared failure taxonomy for the whole reproduction.
//!
//! Every flow — frontend compile, IR interpretation, HLS synthesis, the
//! Vortex cycle simulator, and the suite harness around them — reports
//! user-kernel failures as a [`ReproError`]. The paper's Table I is a
//! *coverage* table: which benchmarks each flow can run and which fail,
//! and why. A shared, classified error type is what lets the harness keep
//! going after a failure and still say something precise about it.
//!
//! The front end, the Vortex code generator, simulator and runtime build a
//! `ReproError` at each fault site. Two producers keep a type of their own
//! and convert through a `From` impl next to it: the interpreter's
//! `InterpError`, whose group and item detail the interpreter's reference
//! tests compare, and HLS's `SynthFailure`, a cached synthesis outcome
//! rather than an error. The taxonomy lives in `repro-util`, the one crate
//! every other crate already depends on.

use crate::{Json, ToJson};
use std::fmt;

/// One warp (or interpreter work-item cohort) that can no longer make
/// progress, as named by a deadlock report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StuckWarp {
    pub core: u32,
    pub warp: u32,
    /// PC the warp is parked at (the barrier instruction for barrier
    /// deadlocks).
    pub pc: u32,
    /// `(barrier id, expected arrival count)` if parked at a barrier.
    pub barrier: Option<(u32, u32)>,
    /// How many warps have arrived at that barrier so far.
    pub arrived: u32,
}

impl fmt::Display for StuckWarp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "core {} warp {} @pc={:#x}",
            self.core, self.warp, self.pc
        )?;
        if let Some((id, count)) = self.barrier {
            write!(f, " barrier {id} ({}/{count} arrived)", self.arrived)?;
        }
        Ok(())
    }
}

impl ToJson for StuckWarp {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("core", self.core.to_json()),
            ("warp", self.warp.to_json()),
            ("pc", self.pc.to_json()),
            (
                "barrier",
                match self.barrier {
                    Some((id, count)) => Json::obj(vec![
                        ("id", id.to_json()),
                        ("count", count.to_json()),
                        ("arrived", self.arrived.to_json()),
                    ]),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// Coarse failure classification — the column set of the `repro check`
/// coverage report. `Hang` and `Panic` are the classes CI treats as
/// hard failures: a hang means the watchdog fired (the kernel never
/// terminated on its own), a panic means fail-soft isolation caught a
/// bug in *our* stack rather than a classified kernel fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureClass {
    /// Frontend parse/sema or IR verifier rejection.
    Compile,
    /// HLS flow refused to synthesize the kernel.
    Synthesis,
    /// Out-of-bounds / misaligned access or device memory exhaustion.
    Memory,
    /// Barrier or divergence deadlock (structurally never terminates).
    Deadlock,
    /// Cycle or instruction budget exhausted with no structural diagnosis.
    Hang,
    /// Ran to completion but produced wrong output.
    WrongResult,
    /// A panic escaped the stack and was caught by `catch_unwind`.
    Panic,
    /// Host-side harness error (bad launch geometry, missing kernel, …).
    Harness,
}

impl FailureClass {
    pub fn name(self) -> &'static str {
        match self {
            FailureClass::Compile => "Compile",
            FailureClass::Synthesis => "Synthesis",
            FailureClass::Memory => "Memory",
            FailureClass::Deadlock => "Deadlock",
            FailureClass::Hang => "Hang",
            FailureClass::WrongResult => "WrongResult",
            FailureClass::Panic => "Panic",
            FailureClass::Harness => "Harness",
        }
    }

    /// All classes, in report column order.
    pub fn all() -> [FailureClass; 8] {
        [
            FailureClass::Compile,
            FailureClass::Synthesis,
            FailureClass::Memory,
            FailureClass::Deadlock,
            FailureClass::Hang,
            FailureClass::WrongResult,
            FailureClass::Panic,
            FailureClass::Harness,
        ]
    }
}

impl fmt::Display for FailureClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl ToJson for FailureClass {
    fn to_json(&self) -> Json {
        Json::Str(self.name().to_string())
    }
}

/// A classified failure from any layer of either flow.
#[derive(Debug, Clone, PartialEq)]
pub enum ReproError {
    /// Frontend diagnostic (preprocess, lex, parse, lowering) with a
    /// source location when one is known.
    Frontend {
        stage: &'static str,
        message: String,
        line: u32,
        col: u32,
    },
    /// IR verifier rejection.
    Verify { message: String },
    /// Vortex code generation failure (unstructured control flow, …).
    Codegen { message: String },
    /// HLS synthesis rejection, with the paper-calibrated engineering
    /// hours spent before giving up.
    Synthesis { reason: String, hours: f64 },
    /// Out-of-bounds access. `space` names the address space
    /// ("global", "local", "arg", …); `pc` is 0 when the faulting
    /// backend has no program counter (the interpreter).
    OutOfBounds { addr: u32, pc: u32, space: String },
    /// Misaligned word access.
    Misaligned {
        addr: u32,
        align: u32,
        pc: u32,
        space: String,
    },
    /// Device memory exhausted while servicing a host allocation.
    OutOfMemory { requested: u32, available: u32 },
    /// Every live warp is parked at a barrier whose arrival count can
    /// never be reached.
    BarrierDeadlock { stuck: Vec<StuckWarp> },
    /// Some work finished (or uniformly skipped the barrier) while the
    /// rest waits forever — a barrier executed under divergence.
    DivergenceDeadlock { stuck: Vec<StuckWarp> },
    /// Watchdog: cycle budget exhausted.
    CycleBudget { limit: u64 },
    /// Watchdog: instruction budget exhausted.
    InstructionBudget { limit: u64 },
    /// Scheduler watchdog: the job's host-side wall-clock deadline passed
    /// before it finished. The simulator budgets bound *simulated* work;
    /// this bounds *service latency* — a job that blows its deadline is
    /// reported typed instead of silently occupying a worker.
    DeadlineExceeded { deadline_ms: u64 },
    /// Kernel terminated but its output failed the workload's check.
    WrongResult { message: String },
    /// A panic unwound out of the flow and was caught at the isolation
    /// boundary.
    Panic { message: String },
    /// Host-side harness error: bad launch geometry, missing kernel,
    /// readback failure, bad ND-range, bad arguments.
    Harness { message: String },
    /// Admission control shed the job: the serve queue was already at its
    /// configured depth limit when the job arrived. A client seeing this
    /// should back off and resubmit — nothing about the job itself failed.
    Overloaded { queued: usize, limit: usize },
    /// The service is draining toward shutdown; queued jobs are rejected
    /// typed (in-flight jobs still finish). Resubmit elsewhere/later.
    Draining,
}

impl ReproError {
    pub fn class(&self) -> FailureClass {
        match self {
            ReproError::Frontend { .. }
            | ReproError::Verify { .. }
            | ReproError::Codegen { .. } => FailureClass::Compile,
            ReproError::Synthesis { .. } => FailureClass::Synthesis,
            ReproError::OutOfBounds { .. }
            | ReproError::Misaligned { .. }
            | ReproError::OutOfMemory { .. } => FailureClass::Memory,
            ReproError::BarrierDeadlock { .. } | ReproError::DivergenceDeadlock { .. } => {
                FailureClass::Deadlock
            }
            ReproError::CycleBudget { .. }
            | ReproError::InstructionBudget { .. }
            | ReproError::DeadlineExceeded { .. } => FailureClass::Hang,
            ReproError::WrongResult { .. } => FailureClass::WrongResult,
            ReproError::Panic { .. } => FailureClass::Panic,
            ReproError::Harness { .. } | ReproError::Overloaded { .. } | ReproError::Draining => {
                FailureClass::Harness
            }
        }
    }

    /// Whether retrying the same job could plausibly succeed. Transient
    /// failures are environmental — load, scheduling, timing — while
    /// permanent ones are properties of the job itself (a kernel that
    /// doesn't compile won't compile on attempt three). The serve retry
    /// loop only re-runs transient classes; retrying a deterministic
    /// failure would burn a worker slot to reproduce the same error.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ReproError::DeadlineExceeded { .. }
                | ReproError::Panic { .. }
                | ReproError::Overloaded { .. }
                | ReproError::Draining
        )
    }

    /// Variant name without payload, for compact report cells.
    pub fn kind(&self) -> &'static str {
        match self {
            ReproError::Frontend { .. } => "Frontend",
            ReproError::Verify { .. } => "Verify",
            ReproError::Codegen { .. } => "Codegen",
            ReproError::Synthesis { .. } => "Synthesis",
            ReproError::OutOfBounds { .. } => "OutOfBounds",
            ReproError::Misaligned { .. } => "Misaligned",
            ReproError::OutOfMemory { .. } => "OutOfMemory",
            ReproError::BarrierDeadlock { .. } => "BarrierDeadlock",
            ReproError::DivergenceDeadlock { .. } => "DivergenceDeadlock",
            ReproError::CycleBudget { .. } => "CycleBudget",
            ReproError::InstructionBudget { .. } => "InstructionBudget",
            ReproError::DeadlineExceeded { .. } => "DeadlineExceeded",
            ReproError::WrongResult { .. } => "WrongResult",
            ReproError::Panic { .. } => "Panic",
            ReproError::Harness { .. } => "Harness",
            ReproError::Overloaded { .. } => "Overloaded",
            ReproError::Draining => "Draining",
        }
    }

    /// Convenience constructor for harness-layer string errors.
    pub fn harness(message: impl Into<String>) -> ReproError {
        ReproError::Harness {
            message: message.into(),
        }
    }
}

impl fmt::Display for ReproError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReproError::Frontend {
                stage,
                message,
                line,
                col,
            } => {
                if *line > 0 {
                    write!(f, "{stage} error at {line}:{col}: {message}")
                } else {
                    write!(f, "{stage} error: {message}")
                }
            }
            ReproError::Verify { message } => write!(f, "IR verify error: {message}"),
            ReproError::Codegen { message } => write!(f, "codegen error: {message}"),
            ReproError::Synthesis { reason, hours } => {
                write!(f, "synthesis failed after {hours:.0}h: {reason}")
            }
            ReproError::OutOfBounds { addr, pc, space } => {
                write!(f, "out-of-bounds {space} access at addr {addr:#x}")?;
                if *pc != 0 {
                    write!(f, " (pc {pc:#x})")?;
                }
                Ok(())
            }
            ReproError::Misaligned {
                addr,
                align,
                pc,
                space,
            } => {
                write!(
                    f,
                    "misaligned {space} access at addr {addr:#x} (align {align})"
                )?;
                if *pc != 0 {
                    write!(f, " (pc {pc:#x})")?;
                }
                Ok(())
            }
            ReproError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "device out of memory: requested {requested} bytes, {available} available"
            ),
            ReproError::BarrierDeadlock { stuck } => {
                write!(f, "barrier deadlock: {} warp(s) stuck", stuck.len())?;
                for w in stuck {
                    write!(f, "; {w}")?;
                }
                Ok(())
            }
            ReproError::DivergenceDeadlock { stuck } => {
                write!(f, "divergence deadlock: {} warp(s) stuck", stuck.len())?;
                for w in stuck {
                    write!(f, "; {w}")?;
                }
                Ok(())
            }
            ReproError::CycleBudget { limit } => {
                write!(f, "cycle budget exhausted ({limit} cycles)")
            }
            ReproError::InstructionBudget { limit } => {
                write!(f, "instruction budget exhausted ({limit} instructions)")
            }
            ReproError::DeadlineExceeded { deadline_ms } => {
                write!(f, "job deadline exceeded ({deadline_ms} ms)")
            }
            ReproError::WrongResult { message } => write!(f, "wrong result: {message}"),
            ReproError::Panic { message } => write!(f, "panic: {message}"),
            ReproError::Harness { message } => write!(f, "harness error: {message}"),
            ReproError::Overloaded { queued, limit } => write!(
                f,
                "overloaded: {queued} job(s) queued, admission limit {limit}"
            ),
            ReproError::Draining => write!(f, "service draining: job rejected before execution"),
        }
    }
}

impl std::error::Error for ReproError {}

impl ToJson for ReproError {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("kind", Json::Str(self.kind().to_string())),
            ("class", self.class().to_json()),
            ("message", Json::Str(self.to_string())),
        ];
        match self {
            ReproError::Frontend {
                stage, line, col, ..
            } => {
                fields.push(("stage", Json::Str(stage.to_string())));
                fields.push(("line", line.to_json()));
                fields.push(("col", col.to_json()));
            }
            ReproError::Synthesis { hours, .. } => fields.push(("hours", hours.to_json())),
            ReproError::OutOfBounds { addr, pc, space } => {
                fields.push(("addr", addr.to_json()));
                fields.push(("pc", pc.to_json()));
                fields.push(("space", space.to_json()));
            }
            ReproError::Misaligned {
                addr,
                align,
                pc,
                space,
            } => {
                fields.push(("addr", addr.to_json()));
                fields.push(("align", align.to_json()));
                fields.push(("pc", pc.to_json()));
                fields.push(("space", space.to_json()));
            }
            ReproError::OutOfMemory {
                requested,
                available,
            } => {
                fields.push(("requested", requested.to_json()));
                fields.push(("available", available.to_json()));
            }
            ReproError::BarrierDeadlock { stuck } | ReproError::DivergenceDeadlock { stuck } => {
                fields.push(("stuck", stuck.to_json()));
            }
            ReproError::CycleBudget { limit } | ReproError::InstructionBudget { limit } => {
                fields.push(("limit", limit.to_json()));
            }
            ReproError::DeadlineExceeded { deadline_ms } => {
                fields.push(("deadline_ms", deadline_ms.to_json()));
            }
            ReproError::Overloaded { queued, limit } => {
                fields.push(("queued", (*queued as u64).to_json()));
                fields.push(("limit", (*limit as u64).to_json()));
            }
            _ => {}
        }
        Json::obj(fields)
    }
}

/// Run a fallible flow with panic isolation: a panic anywhere inside `f`
/// is caught at this boundary and reported as [`ReproError::Panic`]
/// instead of unwinding into (and killing) the harness — or the scheduler
/// worker — that called it.
///
/// This is the crash-isolation primitive behind `repro check` and the
/// `repro-sched` executor: one benchmark (or job) tripping an internal
/// invariant must not cost the coverage report its remaining rows, or a
/// worker thread its life.
pub fn run_isolated<T>(f: impl FnOnce() -> Result<T, ReproError>) -> Result<T, ReproError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => Err(ReproError::Panic {
            message: panic_message(payload.as_ref()),
        }),
    }
}

/// Extract a human-readable message from a `catch_unwind` payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
