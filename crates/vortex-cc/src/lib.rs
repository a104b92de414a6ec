//! `vortex-cc` — the soft-GPU kernel compiler back end.
//!
//! Plays the role of the extended PoCL + LLVM pipeline in the paper's
//! Figure 5: it consumes the shared kernel IR, asks the work-item analysis
//! (`ocl_ir::workitem`) which branches diverge, lowers divergent control flow onto the Vortex SIMT instructions
//! (SPLIT/JOIN for divergent ifs, PRED for divergent loops — §II-D), applies
//! linear-scan register allocation, and emits a complete kernel binary with
//! the PoCL-style work-scheduling prologue that maps NDRange work items onto
//! the hardware's cores × warps × threads.
//!
//! Two scheduler shapes are emitted (see `emit`):
//! * **grid-stride** for kernels without barriers or `__local` arrays: every
//!   hardware thread strides over the flattened NDRange;
//! * **group-per-core** for barrier/local-memory kernels: work-groups are
//!   assigned to cores round-robin, one group resident at a time, with the
//!   hardware BAR instruction implementing `barrier()`.
//!
//! Every failure is a [`ReproError::Codegen`]. Documented subset
//! restrictions (checked, reported as ``kernel `k`: unsupported divergent
//! control flow: …``):
//! * `break`/`continue`/`return` under *divergent* control flow are not
//!   lowered (kernels use guard flags instead — the idiom GPU kernels use
//!   anyway); uniform ones are unrestricted.
//! * barrier kernels require `group_size % threads == 0` and
//!   `group_size <= warps*threads` (enforced by `vortex-rt` at launch).

pub mod emit;
pub mod regalloc;
pub mod structure;

use ocl_ir::Function;
use repro_util::diag::ReproError;
use vortex_isa::Program;

/// Widest warp the emitted code supports. The prologue enables every lane
/// with `tmc((1 << NT) - 1)`, and RV32 `sll` takes its shift amount mod
/// 32, so at 32 lanes the mask would be 0 (the warp halts at once) and past
/// that it would wrap. The simulator models up to
/// `vortex_sim::MAX_THREADS`-wide warps; generated kernels stop here.
pub const MAX_THREADS: u32 = 31;

/// Code generation options; the kernel is compiled for a specific hardware
/// shape, the way PoCL specializes kernels per device configuration.
#[derive(Debug, Clone, Copy)]
pub struct CodegenOpts {
    /// Threads per warp of the target configuration (fixes the stack
    /// interleaving stride so lane accesses coalesce).
    pub threads: u32,
}

impl Default for CodegenOpts {
    fn default() -> Self {
        CodegenOpts { threads: 4 }
    }
}

/// A compiled kernel plus the metadata the runtime needs to launch it.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    pub program: Program,
    pub name: String,
    pub num_args: usize,
    /// Kernel requires the group-per-core scheduler.
    pub group_mode: bool,
    /// Bytes of `__local` memory per group.
    pub local_bytes: u32,
    /// Per-warp stack bytes (runtime uses this to place stacks).
    pub warp_stack_bytes: u32,
    /// Static counts for reports.
    pub divergent_branches: usize,
    pub spill_slots: usize,
    pub threads: u32,
}

/// A code generator limit: an assembler offset out of range, or an
/// operation the subset does not lower.
pub(crate) fn limit(message: impl std::fmt::Display) -> ReproError {
    ReproError::Codegen {
        message: format!("codegen limit: {message}"),
    }
}

/// Compile one kernel for the given hardware shape.
///
/// Reports a `vortex_cc.codegen` wall-clock span (with `vortex_cc.regalloc`
/// nested inside it) into the `repro_util::metrics` registry when a harness
/// has enabled collection.
pub fn compile_kernel(f: &Function, opts: &CodegenOpts) -> Result<CompiledKernel, ReproError> {
    repro_util::metrics::time("vortex_cc.codegen", || emit::compile(f, opts))
}
