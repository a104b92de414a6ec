//! Reference NDRange interpreter — the functional golden model.
//!
//! Executes a kernel over an OpenCL NDRange exactly as the specification
//! describes, one work-group at a time. It is the `interp` flow, the
//! functional half of the HLS flow (`hls_flow::execute_ndrange` is this
//! plus a timing estimate) and the oracle of every differential test.
//!
//! A launch runs in three stages:
//!
//! 1. **Decode and fuse**, once per launch (`decode`). The blocks are
//!    flattened into one vector of 20-byte `Copy` ops: block ids become
//!    absolute pcs, terminators become ordinary ops, and every operand —
//!    register, constant, kernel argument, `__local` base address or
//!    work-item builtin — becomes a slot of one register row laid out
//!    `[vregs | scratch | constants and builtins]`. Operand fetch in the
//!    run loop is `row[slot]`; `Operand`, `Const` and `Function` are not
//!    looked at again. Then the hot adjacent pairs of each block are fused
//!    into superinstructions (`fuse`, below).
//! 2. **Register rows.** `group_size` rows are allocated once per launch.
//!    At the start of each group every row is reset by copying a template
//!    row (arguments, zeros, constants) and patching in the item's global
//!    and local ids; local memory is cleared. Nothing is allocated inside
//!    the group loop.
//! 3. **Run to barrier.** Work-items of a group run round-robin in
//!    lz/ly/lx order, each until it parks at a barrier or returns
//!    (`Launch::run_item`), which gives well-defined results for every
//!    barrier-synchronized kernel in the suite. When every item is parked
//!    the barrier releases; if some returned while others wait, that is a
//!    [`InterpError::BarrierDivergence`].
//!
//! **Opcodes.** The `(op, type)` pairs the suite's inner loops are made of
//! — wrapping integer add/sub/mul, the bitwise ops and shifts, `f32`
//! add/sub/mul/div, every comparison (`>`/`>=` as `<`/`<=` with swapped
//! operands), select, mov, gep, global and local load and store, and the
//! three terminators — have an opcode each, so one `match` dispatches
//! them. Division, remainder, min/max, every [`UnOp`], atomics and printf
//! are rare: they share one opcode that looks the operation up in a side
//! table and calls [`eval_bin`], [`eval_un`] or [`eval_atomic`]. Those
//! public functions (with [`eval_cmp`]) are the definition of the scalar
//! semantics; the specialised arms are tested equal to them for every
//! operator, type and operand shape, and the fused arms equal to them
//! applied one op at a time.
//!
//! **Superinstructions.** Dispatch — fetching the op, the `match` and the
//! limit test — costs more than most arms' arithmetic, and so does
//! passing a result to the next op through the register row, so the seven
//! adjacent pairs with about 2 % or more of the suite's dynamic steps (28
//! benchmarks at paper scale and `DEFAULT_OPT`, 63 726 752 steps) get an
//! opcode each ([`FUSED`]): `Mov→Br` 9.6 %, `Gep→LoadG` 7.8 %,
//! `LtS→CondBr` 6.2 %, `AddI→Mov` 5.5 %, `AddI→Gep` 3.8 %, `LtF→CondBr`
//! 3.4 % and `MulI→AddI` 3.0 %. Decoding rewrites the first op of each
//! such pair inside one block, left to right, to the fused opcode when
//! the partner reads the first op's result ([`linked`]); the partner stays
//! in the next slot, and the fused arm does the first op, writes its
//! result, then reads the partner's fields from that slot and does it with
//! that result still in a register. A first op is never a terminator or a
//! barrier, so no partner is a branch target or a resume point.
//! Overlapping pairs (`AddI→Mov→Br`) fuse once, so about 61 % of steps run
//! in a fused op: 0.69 dispatches per step. The table is re-measured
//! whenever the passes change the op mix. Every conditional branch, fused
//! or not, picks its target with a host branch (`branch`), which the host
//! predicts, rather than a select, which makes each later op's fetch wait
//! for the condition.
//!
//! **Step accounting.** Every instruction and every terminator is one
//! step, barriers and the final `ret` included, and a fused op is its two
//! steps. The per-item limit is tested *before* each step as `steps >
//! limit`, so an item may take `limit + 1` steps; [`InterpError::StepLimit`]
//! is raised before the step that would be number `limit + 2`, with every
//! earlier store already applied. The run loop tests `steps >= limit`
//! once per dispatch: while two or more steps remain a fused op runs
//! whole, and with exactly one left it runs as its first op alone, so the
//! partner's own test raises the limit with the first half done and the
//! second not — the same state as the unfused sequence.
//! [`ExecResult::steps`] and the global load/store counts feed the HLS
//! cycle estimate, so they are part of the contract
//! (`tests/interp_counts.rs` pins them for the whole suite).
//!
//! Integer division semantics follow RISC-V (div-by-zero yields all-ones,
//! `INT_MIN / -1` wraps) so that the interpreter and the Vortex simulator
//! agree bit-for-bit and differential tests are meaningful.

use crate::func::Function;
use crate::inst::{AtomicOp, BinOp, Builtin, CmpOp, Op, Terminator, UnOp};
use crate::types::AddressSpace;
use crate::value::{Operand, VReg};
use rustc_hash::FxHashMap;
use std::ops::Range;

/// Base address of the first allocation in [`Memory`]; keeps address 0
/// unmapped so null-pointer bugs in kernels surface as errors.
pub const GLOBAL_BASE: u32 = 0x1000;
/// Local (work-group) memory window base. Local pointers live here so the
/// interpreter can route them to the per-group buffer.
pub const LOCAL_BASE: u32 = 0x8000_0000;

/// Simple byte-addressed global memory with a bump allocator.
#[derive(Debug, Clone)]
pub struct Memory {
    data: Vec<u8>,
    next: u32,
}

/// Interpreter failure modes.
///
/// These mirror the Vortex simulator's fault set so differential tests can
/// assert that a faulty kernel is *classified the same way* by both
/// backends (see [`From<InterpError> for repro_diag::ReproError`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    OutOfBounds {
        addr: u32,
        space: &'static str,
    },
    /// Word access to a non-word-aligned address.
    Misaligned {
        addr: u32,
        space: &'static str,
    },
    /// The bump allocator ran out of backing store.
    OutOfMemory {
        requested: u32,
        available: u32,
    },
    /// Some work-items exited the kernel while others are parked at a
    /// barrier that can now never release — a barrier executed under
    /// divergent control flow.
    BarrierDivergence {
        /// Work-group in which the divergence was detected.
        group: [u32; 3],
        /// How many items finished without reaching the barrier.
        done: u32,
        /// Linearized local ids of the items parked at the barrier.
        waiting: Vec<u32>,
    },
    StepLimit {
        item: [u32; 3],
        limit: u64,
    },
    BadNdRange(String),
    BadArgs(String),
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::OutOfBounds { addr, space } => {
                write!(f, "{space} memory access out of bounds at {addr:#x}")
            }
            InterpError::Misaligned { addr, space } => {
                write!(f, "misaligned {space} word access at {addr:#x}")
            }
            InterpError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "interpreter memory exhausted: requested {requested} bytes, {available} available"
            ),
            InterpError::BarrierDivergence {
                group,
                done,
                waiting,
            } => write!(
                f,
                "divergence deadlock in group {group:?}: {} item(s) parked at a barrier while {done} item(s) already returned",
                waiting.len()
            ),
            InterpError::StepLimit { item, limit } => {
                write!(
                    f,
                    "work-item {item:?} exceeded the step limit of {limit} (infinite loop?)"
                )
            }
            InterpError::BadNdRange(s) => write!(f, "bad ndrange: {s}"),
            InterpError::BadArgs(s) => write!(f, "bad kernel arguments: {s}"),
        }
    }
}

impl std::error::Error for InterpError {}

impl From<InterpError> for repro_diag::ReproError {
    fn from(e: InterpError) -> Self {
        use repro_diag::{ReproError, StuckWarp};
        match e {
            InterpError::OutOfBounds { addr, space } => ReproError::OutOfBounds {
                addr,
                // The interpreter has no program counter.
                pc: 0,
                space: space.to_string(),
            },
            InterpError::Misaligned { addr, space } => ReproError::Misaligned {
                addr,
                align: 4,
                pc: 0,
                space: space.to_string(),
            },
            InterpError::OutOfMemory {
                requested,
                available,
            } => ReproError::OutOfMemory {
                requested,
                available,
            },
            InterpError::BarrierDivergence { waiting, .. } => {
                let arrived = waiting.len() as u32;
                ReproError::DivergenceDeadlock {
                    // No cores, warps, or PCs here: report each parked
                    // work-item as a stuck "warp" on core 0.
                    stuck: waiting
                        .into_iter()
                        .map(|li| StuckWarp {
                            core: 0,
                            warp: li,
                            pc: 0,
                            barrier: None,
                            arrived,
                        })
                        .collect(),
                }
            }
            InterpError::StepLimit { limit, .. } => ReproError::InstructionBudget { limit },
            InterpError::BadNdRange(s) | InterpError::BadArgs(s) => {
                ReproError::Harness { message: s }
            }
        }
    }
}

impl Memory {
    /// Memory with the given capacity in bytes (plus the unmapped base).
    pub fn new(capacity: u32) -> Self {
        Memory {
            data: vec![0; (GLOBAL_BASE + capacity) as usize],
            next: GLOBAL_BASE,
        }
    }

    /// Allocate `bytes` (16-byte aligned) and return the base address, or
    /// an [`InterpError::OutOfMemory`] when the backing store is exhausted.
    pub fn try_alloc(&mut self, bytes: u32) -> Result<u32, InterpError> {
        let base = self.next;
        let available = (self.data.len() as u32).saturating_sub(base);
        let next = base
            .checked_add(bytes)
            .and_then(|n| n.checked_add(15))
            .map(|n| n & !15)
            .ok_or(InterpError::OutOfMemory {
                requested: bytes,
                available,
            })?;
        if next as usize > self.data.len() {
            return Err(InterpError::OutOfMemory {
                requested: bytes,
                available,
            });
        }
        self.next = next;
        Ok(base)
    }

    /// Allocate `bytes` (16-byte aligned) and return the base address.
    ///
    /// Panics on exhaustion — convenient for tests and examples that size
    /// memory themselves. Harness code that allocates on behalf of a
    /// workload should use [`Memory::try_alloc`] instead.
    pub fn alloc(&mut self, bytes: u32) -> u32 {
        self.try_alloc(bytes).expect("interpreter memory exhausted")
    }

    /// Allocate `len` words and fill them from `words` with one chunked
    /// copy: `try_alloc` has already proved the range in bounds.
    fn try_alloc_words(
        &mut self,
        len: usize,
        words: impl Iterator<Item = u32>,
    ) -> Result<u32, InterpError> {
        // A size past `u32` saturates, which `try_alloc` always refuses.
        let bytes = u32::try_from(len).ok().and_then(|n| n.checked_mul(4));
        let base = self.try_alloc(bytes.unwrap_or(u32::MAX))?;
        let dst = &mut self.data[base as usize..][..4 * len];
        for (chunk, w) in dst.chunks_exact_mut(4).zip(words) {
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        Ok(base)
    }

    /// Fallible variant of [`Memory::alloc_u32`].
    pub fn try_alloc_u32(&mut self, init: &[u32]) -> Result<u32, InterpError> {
        self.try_alloc_words(init.len(), init.iter().copied())
    }

    /// Allocate and initialize from an `f32` slice.
    pub fn alloc_f32(&mut self, init: &[f32]) -> u32 {
        self.try_alloc_words(init.len(), init.iter().map(|v| v.to_bits()))
            .expect("interpreter memory exhausted")
    }

    /// Allocate and initialize from an `i32` slice.
    pub fn alloc_i32(&mut self, init: &[i32]) -> u32 {
        self.try_alloc_words(init.len(), init.iter().map(|&v| v as u32))
            .expect("interpreter memory exhausted")
    }

    /// Allocate and initialize from a `u32` slice.
    pub fn alloc_u32(&mut self, init: &[u32]) -> u32 {
        self.try_alloc_u32(init)
            .expect("interpreter memory exhausted")
    }

    /// Byte range of the `len` words at `addr`: the one alignment and
    /// bounds check of a bulk read. The error is the one the first
    /// offending word of a word-by-word [`Memory::read_u32`] loop reports.
    fn word_range(&self, addr: u32, len: usize) -> Result<Range<usize>, InterpError> {
        if len == 0 {
            return Ok(0..0);
        }
        check_aligned(addr, "global")?;
        let start = addr as usize;
        // Whole words between `addr` and the end of memory.
        let fit = self.data.len().saturating_sub(start) / 4;
        if addr >= GLOBAL_BASE && len <= fit {
            return Ok(start..start + 4 * len);
        }
        let first_bad = if addr < GLOBAL_BASE { 0 } else { fit as u32 };
        Err(InterpError::OutOfBounds {
            addr: addr + 4 * first_bad,
            space: "global",
        })
    }

    /// The `len` words starting at `addr`; panics on an out-of-range or
    /// misaligned read.
    fn words(&self, addr: u32, len: usize) -> impl Iterator<Item = u32> + '_ {
        let range = self.word_range(addr, len).expect("bulk read");
        self.data[range]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("chunks of four bytes")))
    }

    /// Read `len` floats starting at `addr`.
    pub fn read_f32_slice(&self, addr: u32, len: usize) -> Vec<f32> {
        self.words(addr, len).map(f32::from_bits).collect()
    }

    /// Read `len` i32s starting at `addr`.
    pub fn read_i32_slice(&self, addr: u32, len: usize) -> Vec<i32> {
        self.words(addr, len).map(|w| w as i32).collect()
    }

    /// Read `len` u32s starting at `addr`.
    pub fn read_u32_slice(&self, addr: u32, len: usize) -> Vec<u32> {
        self.words(addr, len).collect()
    }

    /// Read a 32-bit word.
    pub fn read_u32(&self, addr: u32) -> Result<u32, InterpError> {
        check_aligned(addr, "global")?;
        let a = addr as usize;
        if addr < GLOBAL_BASE || a + 4 > self.data.len() {
            return Err(InterpError::OutOfBounds {
                addr,
                space: "global",
            });
        }
        Ok(u32::from_le_bytes(self.data[a..a + 4].try_into().unwrap()))
    }

    /// Write a 32-bit word.
    pub fn write_u32(&mut self, addr: u32, v: u32) -> Result<(), InterpError> {
        check_aligned(addr, "global")?;
        let a = addr as usize;
        if addr < GLOBAL_BASE || a + 4 > self.data.len() {
            return Err(InterpError::OutOfBounds {
                addr,
                space: "global",
            });
        }
        self.data[a..a + 4].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Raw bytes (used by the runtime to snapshot buffers).
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }
}

/// Kernel launch geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NdRange {
    pub global: [u32; 3],
    pub local: [u32; 3],
}

impl NdRange {
    /// 1-D range with the given global and local sizes.
    pub fn d1(global: u32, local: u32) -> Self {
        NdRange {
            global: [global, 1, 1],
            local: [local, 1, 1],
        }
    }

    /// 2-D range.
    pub fn d2(gx: u32, gy: u32, lx: u32, ly: u32) -> Self {
        NdRange {
            global: [gx, gy, 1],
            local: [lx, ly, 1],
        }
    }

    /// Validate divisibility and non-zero sizes.
    pub fn validate(&self) -> Result<(), InterpError> {
        for d in 0..3 {
            if self.local[d] == 0 || self.global[d] == 0 {
                return Err(InterpError::BadNdRange(format!(
                    "zero size in dim {d}: global={:?} local={:?}",
                    self.global, self.local
                )));
            }
            if !self.global[d].is_multiple_of(self.local[d]) {
                return Err(InterpError::BadNdRange(format!(
                    "global size {} not divisible by local size {} in dim {d}",
                    self.global[d], self.local[d]
                )));
            }
        }
        Ok(())
    }

    /// Work-group counts per dimension.
    pub fn num_groups(&self) -> [u32; 3] {
        [
            self.global[0] / self.local[0],
            self.global[1] / self.local[1],
            self.global[2] / self.local[2],
        ]
    }

    /// Total work-items.
    pub fn total_items(&self) -> u64 {
        self.global.iter().map(|&g| g as u64).product()
    }

    /// Work-items per group.
    pub fn group_size(&self) -> u32 {
        self.local.iter().product()
    }
}

/// A kernel argument value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelArg {
    /// Global-memory pointer (an address from [`Memory::alloc`]).
    Ptr(u32),
    I32(i32),
    U32(u32),
    F32(f32),
}

impl KernelArg {
    fn bits(self) -> u32 {
        match self {
            KernelArg::Ptr(a) => a,
            KernelArg::I32(v) => v as u32,
            KernelArg::U32(v) => v,
            KernelArg::F32(v) => v.to_bits(),
        }
    }
}

/// Execution limits.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum interpreted instructions per work-item.
    pub max_steps_per_item: u64,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_steps_per_item: 50_000_000,
        }
    }
}

/// Result of a kernel execution.
#[derive(Debug, Clone, Default)]
pub struct ExecResult {
    /// Device printf output, in execution order.
    pub printf_output: Vec<String>,
    /// Total interpreted instructions across all work-items (the "dynamic
    /// instruction count" used by the analytical performance model).
    pub steps: u64,
    /// Dynamic global-memory loads (used by the HLS bandwidth model).
    pub global_loads: u64,
    /// Dynamic global-memory stores.
    pub global_stores: u64,
}

/// Opcode of a pre-decoded instruction.
///
/// The hot `(BinOp | CmpOp, Scalar)` pairs are folded into the opcode so the
/// run loop dispatches through one `match`; `Gt`/`Ge` decode to `Lt`/`Le`
/// with the operands swapped. Everything rare stays generic and calls the
/// public `eval_*` functions, which are the definition of the semantics the
/// specialised arms must equal (`tests::specialised_opcodes_match_eval`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Code {
    /// Wrapping integer arithmetic, any integer type.
    AddI,
    SubI,
    MulI,
    /// Bitwise ops, any type (`eval_bin` treats float operands as bits).
    And,
    Or,
    Xor,
    Shl,
    ShrS,
    ShrU,
    AddF,
    SubF,
    MulF,
    DivF,
    /// Integer equality on the raw bits.
    Eq,
    Ne,
    LtS,
    LeS,
    LtU,
    LeU,
    EqF,
    NeF,
    LtF,
    LeF,
    /// `d = a != 0 ? b : c`.
    Select,
    /// Register copy; also `WorkItem` and `LocalAddr`, whose values live in
    /// row slots.
    Mov,
    /// `d = a + b * c` with `c` an immediate.
    Gep,
    LoadG,
    LoadL,
    /// `*a = b`.
    StoreG,
    StoreL,
    Barrier,
    /// Jump to pc `a`.
    Br,
    /// Jump to pc `b` if slot `a` is non-zero, else to pc `c`.
    CondBr,
    Ret,
    /// Entry `c` of [`Program::rare`].
    Rare,
    // Superinstructions, one per row of [`FUSED`]: the first op with its
    // own fields, then the partner op read from the next slot, which takes
    // the first op's result from a register (see [`linked`]).
    MovBr,
    GepLoadG,
    LtSCondBr,
    AddIMov,
    AddIGep,
    LtFCondBr,
    MulIAddI,
}

/// The fused pairs `(first, partner, fused)`, each with its share of the
/// suite's dynamic steps (module doc, **Superinstructions**). `Mov→Rare`
/// (2.3 %) is left out: its partner runs through the side table, whose
/// arms a fused opcode would have to repeat.
const FUSED: [(Code, Code, Code); 7] = [
    (Code::Mov, Code::Br, Code::MovBr),         // 9.6 %
    (Code::Gep, Code::LoadG, Code::GepLoadG),   // 7.8 %
    (Code::LtS, Code::CondBr, Code::LtSCondBr), // 6.2 %
    (Code::AddI, Code::Mov, Code::AddIMov),     // 5.5 %
    (Code::AddI, Code::Gep, Code::AddIGep),     // 3.8 %
    (Code::LtF, Code::CondBr, Code::LtFCondBr), // 3.4 %
    (Code::MulI, Code::AddI, Code::MulIAddI),   // 3.0 %
];

impl Code {
    /// The first op of a fused opcode; any other opcode itself.
    fn unfused(self) -> Code {
        FUSED.iter().find(|p| p.2 == self).map_or(self, |p| p.0)
    }
}

/// Whether `partner` reads `first`'s result in the operand its fused arm
/// takes from a register rather than the row: a gep's index `b`, every
/// other partner's `a` (`Br` reads nothing). On the suite, table pairs are
/// linked in all but 0.02 % of their executions.
fn linked(first: &DOp, partner: &DOp) -> bool {
    match partner.code {
        Code::Br => true,
        Code::Gep => partner.b == first.d,
        _ => partner.a == first.d,
    }
}

/// Fuse the linked adjacent pairs of one block's ops that [`FUSED`]
/// lists, left to right, which on any run of fusable pairs fuses as many
/// as any choice could. The partner keeps its slot, opcode and fields. No
/// first op is a terminator or a barrier, so no partner is a branch target
/// or a barrier's resume point.
fn fuse(block: &mut [DOp]) {
    let mut i = 0;
    while i + 1 < block.len() {
        let (first, partner) = (&block[i], &block[i + 1]);
        let pair = (first.code, partner.code);
        match FUSED
            .iter()
            .find(|p| (p.0, p.1) == pair && linked(first, partner))
        {
            Some(&(_, _, fused)) => {
                block[i].code = fused;
                i += 2;
            }
            None => i += 1,
        }
    }
}

/// The operations too rare to earn an opcode each; they run through the
/// public `eval_*` functions.
enum Rare<'f> {
    /// `d = a <op> b`.
    Bin(BinOp, crate::Scalar),
    /// `d = <op> a`.
    Un(UnOp, crate::Scalar),
    /// `d = old(*a); *a = old <op> b`.
    Atomic(AtomicOp, crate::Scalar, AddressSpace),
    /// Format string and `(slot, type)` arguments.
    Printf(&'f str, Vec<(u32, crate::Scalar)>),
}

/// One pre-decoded instruction: an opcode, a destination slot and up to
/// three operand slots of the work-item's register row (or a pc / an
/// immediate, per opcode).
#[derive(Debug, Clone, Copy)]
struct DOp {
    code: Code,
    d: u32,
    a: u32,
    b: u32,
    c: u32,
}

/// A kernel decoded for one launch.
struct Program<'f> {
    /// Every block's instructions followed by its terminator, in block
    /// order; branch targets are indices into this vector.
    ops: Vec<DOp>,
    rare: Vec<Rare<'f>>,
    /// Initial register row: `[vregs (arguments, then zeros) | one scratch
    /// slot for result-less writes | de-duplicated constants and work-item
    /// builtin values, in order of first use]`.
    template: Vec<u32>,
    /// `(index into the builtin table, row slot)` of each builtin the
    /// kernel queries.
    builtins: Vec<(usize, u32)>,
}

/// The program under construction plus what only decoding needs.
struct Decoder<'f> {
    prog: Program<'f>,
    /// The slot after the last vreg: the destination of result-less ops.
    scratch: u32,
    /// Row slot of each constant word seen so far.
    const_slots: FxHashMap<u32, u32>,
}

impl<'f> Decoder<'f> {
    fn push_slot(&mut self, word: u32) -> u32 {
        self.prog.template.push(word);
        (self.prog.template.len() - 1) as u32
    }

    fn konst(&mut self, bits: u32) -> u32 {
        if let Some(&slot) = self.const_slots.get(&bits) {
            return slot;
        }
        let slot = self.push_slot(bits);
        self.const_slots.insert(bits, slot);
        slot
    }

    /// A vreg's slot is its number; one past the function's register
    /// count would alias the constants.
    fn reg(&self, r: VReg) -> u32 {
        assert!(r.0 < self.scratch, "{r} is not a register of the kernel");
        r.0
    }

    fn slot(&mut self, o: Operand) -> u32 {
        match o {
            Operand::Reg(r) => self.reg(r),
            Operand::Const(c) => self.konst(c.bits()),
        }
    }

    fn builtin(&mut self, b: Builtin) -> u32 {
        let index = builtin_index(b);
        let known = self.prog.builtins.iter().find(|&&(i, _)| i == index);
        if let Some(&(_, slot)) = known {
            return slot;
        }
        let slot = self.push_slot(0);
        self.prog.builtins.push((index, slot));
        slot
    }

    fn rare(&mut self, r: Rare<'f>) -> u32 {
        self.prog.rare.push(r);
        (self.prog.rare.len() - 1) as u32
    }
}

/// Position of a builtin in the 18-entry table [`builtin_table`] fills.
fn builtin_index(b: Builtin) -> usize {
    let (kind, d) = match b {
        Builtin::GlobalId(d) => (0, d),
        Builtin::LocalId(d) => (1, d),
        Builtin::GroupId(d) => (2, d),
        Builtin::GlobalSize(d) => (3, d),
        Builtin::LocalSize(d) => (4, d),
        Builtin::NumGroups(d) => (5, d),
    };
    assert!(d < 3, "work-item builtin dimension {d} out of range");
    kind * 3 + d as usize
}

/// The work-item builtin values of `group`, indexed by [`builtin_index`].
/// The global and local ids (entries 0..6) differ per item; the group loop
/// rewrites them as it walks the items.
fn builtin_table(nd: &NdRange, group: [u32; 3]) -> [u32; 18] {
    let mut t = [0; 18];
    t[6..9].copy_from_slice(&group);
    t[9..12].copy_from_slice(&nd.global);
    t[12..15].copy_from_slice(&nd.local);
    t[15..18].copy_from_slice(&nd.num_groups());
    t
}

/// The specialised opcode of a binary op, if it has one.
fn bin_code(op: BinOp, ty: crate::Scalar) -> Option<Code> {
    use crate::Scalar::*;
    Some(match (op, ty) {
        (BinOp::Add, F32) => Code::AddF,
        (BinOp::Sub, F32) => Code::SubF,
        (BinOp::Mul, F32) => Code::MulF,
        (BinOp::Div, F32) => Code::DivF,
        (BinOp::Add, _) => Code::AddI,
        (BinOp::Sub, _) => Code::SubI,
        (BinOp::Mul, _) => Code::MulI,
        (BinOp::And, _) => Code::And,
        (BinOp::Or, _) => Code::Or,
        (BinOp::Xor, _) => Code::Xor,
        (BinOp::Shl, I32 | U32 | Bool) => Code::Shl,
        (BinOp::Shr, I32) => Code::ShrS,
        (BinOp::Shr, U32 | Bool) => Code::ShrU,
        _ => return None,
    })
}

/// The opcode of a comparison and whether its operands swap.
fn cmp_code(op: CmpOp, ty: crate::Scalar) -> (Code, bool) {
    use crate::Scalar::*;
    let (lt, le, eq, ne) = match ty {
        F32 => (Code::LtF, Code::LeF, Code::EqF, Code::NeF),
        I32 => (Code::LtS, Code::LeS, Code::Eq, Code::Ne),
        U32 | Bool => (Code::LtU, Code::LeU, Code::Eq, Code::Ne),
    };
    match op {
        CmpOp::Eq => (eq, false),
        CmpOp::Ne => (ne, false),
        CmpOp::Lt => (lt, false),
        CmpOp::Le => (le, false),
        CmpOp::Gt => (lt, true),
        CmpOp::Ge => (le, true),
    }
}

/// Flatten `f` into a [`Program`]: block ids become absolute pcs and every
/// operand becomes a slot of the register row, so the run loop fetches
/// operands as `row[slot]` without looking at `Operand` or `Const`. Each
/// block's ops are then fused ([`fuse`]).
fn decode<'f>(f: &'f Function, args: &[KernelArg], local_offsets: &[u32]) -> Program<'f> {
    let mut template = vec![0u32; f.num_vregs() + 1];
    for (slot, a) in template.iter_mut().zip(args) {
        *slot = a.bits();
    }
    let mut block_pc = Vec::with_capacity(f.blocks.len());
    let mut pc = 0u32;
    for b in &f.blocks {
        block_pc.push(pc);
        pc += b.insts.len() as u32 + 1;
    }
    let mut p = Decoder {
        prog: Program {
            ops: Vec::with_capacity(pc as usize),
            rare: Vec::new(),
            template,
            builtins: Vec::new(),
        },
        scratch: f.num_vregs() as u32,
        const_slots: FxHashMap::default(),
    };
    for block in &f.blocks {
        let start = p.prog.ops.len();
        for inst in &block.insts {
            let (code, a, b, c) = match &inst.op {
                Op::Bin { op, ty, a, b } => match bin_code(*op, *ty) {
                    Some(code) => (code, p.slot(*a), p.slot(*b), 0),
                    None => (
                        Code::Rare,
                        p.slot(*a),
                        p.slot(*b),
                        p.rare(Rare::Bin(*op, *ty)),
                    ),
                },
                Op::Un { op, ty, a } => (Code::Rare, p.slot(*a), 0, p.rare(Rare::Un(*op, *ty))),
                Op::Cmp { op, ty, a, b } => match cmp_code(*op, *ty) {
                    (code, false) => (code, p.slot(*a), p.slot(*b), 0),
                    (code, true) => (code, p.slot(*b), p.slot(*a), 0),
                },
                Op::Select { cond, a, b, .. } => {
                    (Code::Select, p.slot(*cond), p.slot(*a), p.slot(*b))
                }
                Op::Mov { a, .. } => (Code::Mov, p.slot(*a), 0, 0),
                Op::Gep {
                    base,
                    index,
                    elem_bytes,
                    ..
                } => (Code::Gep, p.slot(*base), p.slot(*index), *elem_bytes),
                Op::Load { ptr, space, .. } => match space {
                    AddressSpace::Global => (Code::LoadG, p.slot(*ptr), 0, 0),
                    AddressSpace::Local => (Code::LoadL, p.slot(*ptr), 0, 0),
                },
                Op::Store {
                    ptr, value, space, ..
                } => match space {
                    AddressSpace::Global => (Code::StoreG, p.slot(*ptr), p.slot(*value), 0),
                    AddressSpace::Local => (Code::StoreL, p.slot(*ptr), p.slot(*value), 0),
                },
                Op::AtomicRmw {
                    op,
                    ptr,
                    value,
                    ty,
                    space,
                } => (
                    Code::Rare,
                    p.slot(*ptr),
                    p.slot(*value),
                    p.rare(Rare::Atomic(*op, *ty, *space)),
                ),
                Op::WorkItem(b) => (Code::Mov, p.builtin(*b), 0, 0),
                Op::LocalAddr(id) => {
                    let addr = LOCAL_BASE + local_offsets[id.index()];
                    (Code::Mov, p.konst(addr), 0, 0)
                }
                Op::Barrier => (Code::Barrier, 0, 0, 0),
                Op::Printf { fmt, args } => {
                    let args = args.iter().map(|&(o, t)| (p.slot(o), t)).collect();
                    (Code::Rare, 0, 0, p.rare(Rare::Printf(fmt, args)))
                }
            };
            let d = inst.result.map_or(p.scratch, |r| p.reg(r));
            p.prog.ops.push(DOp { code, d, a, b, c });
        }
        let (code, a, b, c) = match &block.term {
            Terminator::Ret => (Code::Ret, 0, 0, 0),
            Terminator::Br { target } => (Code::Br, block_pc[target.index()], 0, 0),
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            } => (
                Code::CondBr,
                p.slot(*cond),
                block_pc[then_bb.index()],
                block_pc[else_bb.index()],
            ),
        };
        let d = p.scratch;
        p.prog.ops.push(DOp { code, d, a, b, c });
        fuse(&mut p.prog.ops[start..]);
    }
    p.prog
}

/// Where a work-item stands between scheduling passes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    Ready,
    AtBarrier,
    Done,
}

/// The per-launch execution state: one register row, pc, step count and
/// status per work-item of a group, allocated once and reset per group.
struct Launch<'a> {
    prog: &'a Program<'a>,
    nd: &'a NdRange,
    limit: u64,
    /// `group_size` rows of `prog.template.len()` words.
    regs: Vec<u32>,
    pc: Vec<u32>,
    steps: Vec<u64>,
    status: Vec<Status>,
    local_mem: Vec<u8>,
}

/// Execute `f` over the NDRange against `mem`.
pub fn run_ndrange(
    f: &Function,
    args: &[KernelArg],
    nd: &NdRange,
    mem: &mut Memory,
    limits: &Limits,
) -> Result<ExecResult, InterpError> {
    nd.validate()?;
    if args.len() != f.params.len() {
        return Err(InterpError::BadArgs(format!(
            "kernel `{}` takes {} args, got {}",
            f.name,
            f.params.len(),
            args.len()
        )));
    }
    // Local array layout: assign offsets within the per-group buffer.
    let mut local_offsets = Vec::with_capacity(f.local_arrays.len());
    let mut local_total = 0u32;
    for a in &f.local_arrays {
        local_offsets.push(local_total);
        local_total += a.bytes();
    }
    let prog = decode(f, args, &local_offsets);
    let items = nd
        .local
        .iter()
        .try_fold(1usize, |n, &l| n.checked_mul(l as usize));
    let (Some(items), Some(words)) = (
        items,
        items.and_then(|n| n.checked_mul(prog.template.len())),
    ) else {
        return Err(InterpError::BadNdRange(format!(
            "work-group of {:?} items does not fit in host memory",
            nd.local
        )));
    };
    let mut launch = Launch {
        prog: &prog,
        nd,
        limit: limits.max_steps_per_item,
        regs: vec![0; words],
        pc: vec![0; items],
        steps: vec![0; items],
        status: vec![Status::Ready; items],
        local_mem: vec![0; local_total as usize],
    };
    let groups = nd.num_groups();
    let mut result = ExecResult::default();
    for gz in 0..groups[2] {
        for gy in 0..groups[1] {
            for gx in 0..groups[0] {
                launch.run_group([gx, gy, gz], mem, &mut result)?;
            }
        }
    }
    Ok(result)
}

impl Launch<'_> {
    /// Run one work-group to completion: items round-robin in lz/ly/lx
    /// order, each until it blocks at a barrier or returns.
    fn run_group(
        &mut self,
        group: [u32; 3],
        mem: &mut Memory,
        result: &mut ExecResult,
    ) -> Result<(), InterpError> {
        let row_len = self.prog.template.len();
        let mut rows = self.regs.chunks_exact_mut(row_len);
        let mut table = builtin_table(self.nd, group);
        for lz in 0..self.nd.local[2] {
            for ly in 0..self.nd.local[1] {
                for lx in 0..self.nd.local[0] {
                    let row = rows.next().expect("one row per work-item");
                    row.copy_from_slice(&self.prog.template);
                    let lid = [lx, ly, lz];
                    for d in 0..3 {
                        table[d] = group[d] * self.nd.local[d] + lid[d];
                        table[3 + d] = lid[d];
                    }
                    for &(index, slot) in &self.prog.builtins {
                        row[slot as usize] = table[index];
                    }
                }
            }
        }
        self.pc.fill(0);
        self.steps.fill(0);
        self.status.fill(Status::Ready);
        self.local_mem.fill(0);
        loop {
            for item in 0..self.status.len() {
                if self.status[item] == Status::Ready {
                    self.status[item] = self.run_item(item, group, mem, result)?;
                }
            }
            // Every item is now done or waiting. If some items already
            // *returned* while others wait, the barrier was executed under
            // divergent control flow and can never release — report a
            // structured deadlock instead of spinning forever.
            let parked = |s: &Status| *s == Status::AtBarrier;
            let waiting = self.status.iter().filter(|s| parked(s)).count();
            if waiting == 0 {
                break;
            }
            if waiting < self.status.len() {
                return Err(InterpError::BarrierDivergence {
                    group,
                    done: (self.status.len() - waiting) as u32,
                    waiting: (0..self.status.len() as u32)
                        .filter(|&li| parked(&self.status[li as usize]))
                        .collect(),
                });
            }
            self.status.fill(Status::Ready);
        }
        result.steps += self.steps.iter().sum::<u64>();
        Ok(())
    }

    /// Global id of the `item`-th work-item (lz/ly/lx order) of `group`.
    fn global_id(&self, group: [u32; 3], item: usize) -> [u32; 3] {
        let [lx, ly, _] = self.nd.local;
        let item = item as u32;
        let lid = [item % lx, item / lx % ly, item / (lx * ly)];
        [0, 1, 2].map(|d| group[d] * self.nd.local[d] + lid[d])
    }

    /// Run one item from its saved pc until it parks at a barrier or
    /// returns. Every instruction and every terminator is one step, a
    /// fused op two; the limit is tested before each step, so an item may
    /// take `limit + 1`. With one step left a fused op runs as its first
    /// op alone, and the partner's own test raises the limit.
    /// Kept out of line: inlined into the group loop, the step loop's
    /// pc, step count and row pointer live on the stack.
    #[inline(never)]
    fn run_item(
        &mut self,
        item: usize,
        group: [u32; 3],
        mem: &mut Memory,
        result: &mut ExecResult,
    ) -> Result<Status, InterpError> {
        let ops = &self.prog.ops[..];
        let row_len = self.prog.template.len();
        let row = &mut self.regs[item * row_len..(item + 1) * row_len];
        let local = &mut self.local_mem[..];
        let mut pc = self.pc[item] as usize;
        let mut steps = self.steps[item];
        let f = f32::from_bits;
        let status = loop {
            let mut op = ops[pc];
            if steps >= self.limit {
                if steps > self.limit {
                    return Err(InterpError::StepLimit {
                        item: self.global_id(group, item),
                        limit: self.limit,
                    });
                }
                op.code = op.code.unfused();
            }
            steps += 1;
            pc += 1;
            let (a, b) = (op.a as usize, op.b as usize);
            let value = match op.code {
                Code::AddI => row[a].wrapping_add(row[b]),
                Code::SubI => row[a].wrapping_sub(row[b]),
                Code::MulI => row[a].wrapping_mul(row[b]),
                Code::And => row[a] & row[b],
                Code::Or => row[a] | row[b],
                Code::Xor => row[a] ^ row[b],
                Code::Shl => row[a] << (row[b] & 31),
                Code::ShrS => ((row[a] as i32) >> (row[b] & 31)) as u32,
                Code::ShrU => row[a] >> (row[b] & 31),
                Code::AddF => (f(row[a]) + f(row[b])).to_bits(),
                Code::SubF => (f(row[a]) - f(row[b])).to_bits(),
                Code::MulF => (f(row[a]) * f(row[b])).to_bits(),
                Code::DivF => (f(row[a]) / f(row[b])).to_bits(),
                Code::Eq => (row[a] == row[b]) as u32,
                Code::Ne => (row[a] != row[b]) as u32,
                Code::LtS => ((row[a] as i32) < row[b] as i32) as u32,
                Code::LeS => (row[a] as i32 <= row[b] as i32) as u32,
                Code::LtU => (row[a] < row[b]) as u32,
                Code::LeU => (row[a] <= row[b]) as u32,
                Code::EqF => (f(row[a]) == f(row[b])) as u32,
                Code::NeF => (f(row[a]) != f(row[b])) as u32,
                Code::LtF => (f(row[a]) < f(row[b])) as u32,
                Code::LeF => (f(row[a]) <= f(row[b])) as u32,
                Code::Select => {
                    if row[a] != 0 {
                        row[b]
                    } else {
                        row[op.c as usize]
                    }
                }
                Code::Mov => row[a],
                Code::Gep => row[a].wrapping_add(row[b].wrapping_mul(op.c)),
                Code::LoadG => {
                    result.global_loads += 1;
                    mem.read_u32(row[a])?
                }
                Code::LoadL => local_read(local, row[a])?,
                Code::StoreG => {
                    result.global_stores += 1;
                    mem.write_u32(row[a], row[b])?;
                    continue;
                }
                Code::StoreL => {
                    local_write(local, row[a], row[b])?;
                    continue;
                }
                Code::Barrier => break Status::AtBarrier,
                Code::Br => {
                    pc = a;
                    continue;
                }
                Code::CondBr => {
                    pc = branch(row[a], op.b, op.c);
                    continue;
                }
                Code::Ret => break Status::Done,
                Code::Rare => match &self.prog.rare[op.c as usize] {
                    Rare::Bin(o, ty) => eval_bin(*o, *ty, row[a], row[b]),
                    Rare::Un(o, ty) => eval_un(*o, *ty, row[a]),
                    Rare::Atomic(o, ty, space) => {
                        let addr = row[a];
                        let old = match space {
                            AddressSpace::Global => mem.read_u32(addr)?,
                            AddressSpace::Local => local_read(local, addr)?,
                        };
                        let new = eval_atomic(*o, *ty, old, row[b]);
                        match space {
                            AddressSpace::Global => mem.write_u32(addr, new)?,
                            AddressSpace::Local => local_write(local, addr, new)?,
                        }
                        old
                    }
                    Rare::Printf(fmt, args) => {
                        result.printf_output.push(format_printf(fmt, args, row));
                        continue;
                    }
                },
                // A fused arm writes its first op's result `v`, then runs
                // the partner from the next slot as its own second step,
                // taking `v` from a register where `linked` proved it reads
                // it and its other operands from the row, after the write.
                // A partner that yields a value leaves it to the write below
                // through `op`.
                Code::MovBr => {
                    row[op.d as usize] = row[a];
                    steps += 1;
                    pc = ops[pc].a as usize;
                    continue;
                }
                Code::LtSCondBr => {
                    let v = ((row[a] as i32) < row[b] as i32) as u32;
                    row[op.d as usize] = v;
                    steps += 1;
                    let br = ops[pc];
                    pc = branch(v, br.b, br.c);
                    continue;
                }
                Code::LtFCondBr => {
                    let v = (f(row[a]) < f(row[b])) as u32;
                    row[op.d as usize] = v;
                    steps += 1;
                    let br = ops[pc];
                    pc = branch(v, br.b, br.c);
                    continue;
                }
                Code::GepLoadG => {
                    let v = row[a].wrapping_add(row[b].wrapping_mul(op.c));
                    row[op.d as usize] = v;
                    steps += 1;
                    op = ops[pc];
                    pc += 1;
                    result.global_loads += 1;
                    mem.read_u32(v)?
                }
                Code::AddIMov => {
                    let v = row[a].wrapping_add(row[b]);
                    row[op.d as usize] = v;
                    steps += 1;
                    op = ops[pc];
                    pc += 1;
                    v
                }
                Code::AddIGep => {
                    let v = row[a].wrapping_add(row[b]);
                    row[op.d as usize] = v;
                    steps += 1;
                    op = ops[pc];
                    pc += 1;
                    row[op.a as usize].wrapping_add(v.wrapping_mul(op.c))
                }
                Code::MulIAddI => {
                    let v = row[a].wrapping_mul(row[b]);
                    row[op.d as usize] = v;
                    steps += 1;
                    op = ops[pc];
                    pc += 1;
                    v.wrapping_add(row[op.b as usize])
                }
            };
            row[op.d as usize] = value;
        };
        self.pc[item] = pc as u32;
        self.steps[item] = steps;
        Ok(status)
    }
}

/// The pc a conditional branch on `cond` goes to, as a host branch rather
/// than a select: the host predicts it and fetches the next op without
/// waiting for `cond`, where a select makes every later op wait for it.
/// Both directions are common; `cold_path` is only what keeps the two
/// targets from being folded into a select.
#[inline(always)]
fn branch(cond: u32, then_pc: u32, else_pc: u32) -> usize {
    if cond != 0 {
        then_pc as usize
    } else {
        std::hint::cold_path();
        else_pc as usize
    }
}

/// Expand the `{}` placeholders of a device printf from the item's row.
fn format_printf(fmt: &str, args: &[(u32, crate::Scalar)], row: &[u32]) -> String {
    let mut out = String::with_capacity(fmt.len() + 8);
    let mut vals = args.iter();
    let mut chars = fmt.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '{' && chars.peek() == Some(&'}') {
            chars.next();
            match vals.next() {
                Some(&(slot, t)) => {
                    let bits = row[slot as usize];
                    match t {
                        crate::Scalar::F32 => out.push_str(&format!("{}", f32::from_bits(bits))),
                        crate::Scalar::I32 => out.push_str(&format!("{}", bits as i32)),
                        _ => out.push_str(&format!("{bits}")),
                    }
                }
                None => out.push_str("{}"),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Reject word accesses to non-word-aligned addresses, mirroring the
/// Vortex simulator's check so both backends fault identically on the
/// same bad pointer arithmetic.
fn check_aligned(addr: u32, space: &'static str) -> Result<(), InterpError> {
    if !addr.is_multiple_of(4) {
        return Err(InterpError::Misaligned { addr, space });
    }
    Ok(())
}

/// Byte offset of the word at `addr` in the group's local memory.
fn local_offset(local: &[u8], addr: u32) -> Result<usize, InterpError> {
    check_aligned(addr, "local")?;
    let off = addr.wrapping_sub(LOCAL_BASE) as usize;
    if off + 4 > local.len() {
        return Err(InterpError::OutOfBounds {
            addr,
            space: "local",
        });
    }
    Ok(off)
}

fn local_read(local: &[u8], addr: u32) -> Result<u32, InterpError> {
    let off = local_offset(local, addr)?;
    Ok(u32::from_le_bytes(local[off..off + 4].try_into().unwrap()))
}

fn local_write(local: &mut [u8], addr: u32, v: u32) -> Result<(), InterpError> {
    let off = local_offset(local, addr)?;
    local[off..off + 4].copy_from_slice(&v.to_le_bytes());
    Ok(())
}

/// RISC-V division semantics shared with the Vortex simulator.
pub fn riscv_div(x: i32, y: i32) -> i32 {
    if y == 0 {
        -1
    } else if x == i32::MIN && y == -1 {
        i32::MIN
    } else {
        x / y
    }
}

/// RISC-V remainder semantics shared with the Vortex simulator.
pub fn riscv_rem(x: i32, y: i32) -> i32 {
    if y == 0 {
        x
    } else if x == i32::MIN && y == -1 {
        0
    } else {
        x % y
    }
}

/// Evaluate a binary op on raw 32-bit values. With [`eval_un`] and
/// [`eval_cmp`] this is the one definition of the IR's scalar semantics:
/// the interpreter's rare-op path and `passes::const_fold` call it, and the
/// specialised opcodes are tested equal to it.
pub fn eval_bin(op: BinOp, ty: crate::Scalar, x: u32, y: u32) -> u32 {
    use crate::Scalar::*;
    match ty {
        F32 => {
            let (a, b) = (f32::from_bits(x), f32::from_bits(y));
            let r = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                BinOp::Rem => a % b,
                BinOp::Min => a.min(b),
                BinOp::Max => a.max(b),
                // Bitwise on floats is rejected by the front end; treat as
                // bit ops for robustness.
                BinOp::And => return x & y,
                BinOp::Or => return x | y,
                BinOp::Xor => return x ^ y,
                BinOp::Shl | BinOp::Shr => return x,
            };
            r.to_bits()
        }
        I32 => {
            let (a, b) = (x as i32, y as i32);
            (match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                BinOp::Div => riscv_div(a, b),
                BinOp::Rem => riscv_rem(a, b),
                BinOp::And => a & b,
                BinOp::Or => a | b,
                BinOp::Xor => a ^ b,
                BinOp::Shl => a.wrapping_shl(y & 31),
                BinOp::Shr => a.wrapping_shr(y & 31),
                BinOp::Min => a.min(b),
                BinOp::Max => a.max(b),
            }) as u32
        }
        U32 | Bool => match op {
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::Mul => x.wrapping_mul(y),
            BinOp::Div => x.checked_div(y).unwrap_or(u32::MAX),
            BinOp::Rem => x.checked_rem(y).unwrap_or(x),
            BinOp::And => x & y,
            BinOp::Or => x | y,
            BinOp::Xor => x ^ y,
            BinOp::Shl => x.wrapping_shl(y & 31),
            BinOp::Shr => x.wrapping_shr(y & 31),
            BinOp::Min => x.min(y),
            BinOp::Max => x.max(y),
        },
    }
}

/// Evaluate a unary op on a raw 32-bit value.
pub fn eval_un(op: UnOp, ty: crate::Scalar, x: u32) -> u32 {
    use crate::Scalar::*;
    match op {
        UnOp::Neg => match ty {
            F32 => (-f32::from_bits(x)).to_bits(),
            _ => (x as i32).wrapping_neg() as u32,
        },
        UnOp::Not => match ty {
            Bool => (x == 0) as u32,
            _ => !x,
        },
        UnOp::Abs => match ty {
            F32 => f32::from_bits(x).abs().to_bits(),
            _ => (x as i32).wrapping_abs() as u32,
        },
        UnOp::Sqrt => f32::from_bits(x).sqrt().to_bits(),
        UnOp::Exp => f32::from_bits(x).exp().to_bits(),
        UnOp::Log => f32::from_bits(x).ln().to_bits(),
        UnOp::Sin => f32::from_bits(x).sin().to_bits(),
        UnOp::Cos => f32::from_bits(x).cos().to_bits(),
        UnOp::Floor => f32::from_bits(x).floor().to_bits(),
        UnOp::F2I => {
            let v = f32::from_bits(x);
            // RISC-V fcvt.w.s saturates.
            if v.is_nan() {
                i32::MAX as u32
            } else {
                (v as i64).clamp(i32::MIN as i64, i32::MAX as i64) as i32 as u32
            }
        }
        UnOp::I2F => (x as i32 as f32).to_bits(),
        UnOp::U2F => (x as f32).to_bits(),
        UnOp::IntCast => x,
    }
}

/// Evaluate a comparison on raw 32-bit values.
pub fn eval_cmp(op: CmpOp, ty: crate::Scalar, x: u32, y: u32) -> bool {
    use crate::Scalar::*;
    match ty {
        F32 => {
            let (a, b) = (f32::from_bits(x), f32::from_bits(y));
            match op {
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
                CmpOp::Lt => a < b,
                CmpOp::Le => a <= b,
                CmpOp::Gt => a > b,
                CmpOp::Ge => a >= b,
            }
        }
        I32 => {
            let (a, b) = (x as i32, y as i32);
            match op {
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
                CmpOp::Lt => a < b,
                CmpOp::Le => a <= b,
                CmpOp::Gt => a > b,
                CmpOp::Ge => a >= b,
            }
        }
        U32 | Bool => match op {
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
        },
    }
}

/// Evaluate an atomic RMW's combine step.
pub fn eval_atomic(op: AtomicOp, ty: crate::Scalar, old: u32, v: u32) -> u32 {
    match op {
        AtomicOp::Add => eval_bin(BinOp::Add, ty, old, v),
        AtomicOp::Sub => eval_bin(BinOp::Sub, ty, old, v),
        AtomicOp::Min => eval_bin(BinOp::Min, ty, old, v),
        AtomicOp::Max => eval_bin(BinOp::Max, ty, old, v),
        AtomicOp::And => old & v,
        AtomicOp::Or => old | v,
        AtomicOp::Xor => old ^ v,
        AtomicOp::Xchg => v,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::func::Param;
    use crate::types::{Scalar, Type};
    use crate::{BinOp, Builtin, CmpOp};

    fn gptr(name: &str) -> Param {
        Param {
            name: name.into(),
            ty: Type::Ptr(AddressSpace::Global),
        }
    }

    /// c[i] = a[i] + b[i]
    fn vecadd_kernel() -> Function {
        let mut b = FunctionBuilder::new("vecadd", vec![gptr("a"), gptr("b"), gptr("c")]);
        let gid = b.workitem(Builtin::GlobalId(0));
        let pa = b.gep(
            Operand::Reg(b.param(0)),
            gid.into(),
            4,
            AddressSpace::Global,
        );
        let pb = b.gep(
            Operand::Reg(b.param(1)),
            gid.into(),
            4,
            AddressSpace::Global,
        );
        let pc = b.gep(
            Operand::Reg(b.param(2)),
            gid.into(),
            4,
            AddressSpace::Global,
        );
        let va = b.load(pa.into(), Scalar::F32, AddressSpace::Global);
        let vb = b.load(pb.into(), Scalar::F32, AddressSpace::Global);
        let s = b.bin(BinOp::Add, Scalar::F32, va.into(), vb.into());
        b.store(pc.into(), s.into(), Scalar::F32, AddressSpace::Global);
        b.ret();
        b.finish()
    }

    #[test]
    fn vecadd_computes_sums() {
        let f = vecadd_kernel();
        let mut mem = Memory::new(1 << 16);
        let n = 64usize;
        let a: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..n).map(|i| (i * 2) as f32).collect();
        let pa = mem.alloc_f32(&a);
        let pb = mem.alloc_f32(&b);
        let pc = mem.alloc(4 * n as u32);
        let args = [KernelArg::Ptr(pa), KernelArg::Ptr(pb), KernelArg::Ptr(pc)];
        let nd = NdRange::d1(n as u32, 16);
        run_ndrange(&f, &args, &nd, &mut mem, &Limits::default()).unwrap();
        let out = mem.read_f32_slice(pc, n);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * 3) as f32);
        }
    }

    #[test]
    fn barrier_reduction_in_local_memory() {
        // Tree reduction over one work-group of 8 using local memory.
        let mut b = FunctionBuilder::new("reduce", vec![gptr("in"), gptr("out")]);
        let tile = b.local_array("tile", Scalar::F32, 8);
        let lid = b.workitem(Builtin::LocalId(0));
        let base = b.local_addr(tile);
        let pin = b.gep(
            Operand::Reg(b.param(0)),
            lid.into(),
            4,
            AddressSpace::Global,
        );
        let v = b.load(pin.into(), Scalar::F32, AddressSpace::Global);
        let pl = b.gep(base.into(), lid.into(), 4, AddressSpace::Local);
        b.store(pl.into(), v.into(), Scalar::F32, AddressSpace::Local);
        b.barrier();
        // stride loop: s = 4, 2, 1
        let s = b.mov(Scalar::U32, Operand::imm_u32(4));
        let head = b.new_block();
        let body = b.new_block();
        let tail = b.new_block();
        let add_bb = b.new_block();
        let exit = b.new_block();
        b.br(head);
        b.switch_to(head);
        let c = b.cmp(CmpOp::Gt, Scalar::U32, s.into(), Operand::imm_u32(0));
        b.cond_br(c.into(), body, exit);
        b.switch_to(body);
        let active = b.cmp(CmpOp::Lt, Scalar::U32, lid.into(), s.into());
        b.cond_br(active.into(), add_bb, tail);
        b.switch_to(add_bb);
        let other = b.bin(BinOp::Add, Scalar::U32, lid.into(), s.into());
        let p1 = b.gep(base.into(), lid.into(), 4, AddressSpace::Local);
        let p2 = b.gep(base.into(), other.into(), 4, AddressSpace::Local);
        let v1 = b.load(p1.into(), Scalar::F32, AddressSpace::Local);
        let v2 = b.load(p2.into(), Scalar::F32, AddressSpace::Local);
        let sum = b.bin(BinOp::Add, Scalar::F32, v1.into(), v2.into());
        b.store(p1.into(), sum.into(), Scalar::F32, AddressSpace::Local);
        b.br(tail);
        b.switch_to(tail);
        b.barrier();
        let s2 = b.bin(BinOp::Shr, Scalar::U32, s.into(), Operand::imm_u32(1));
        b.assign(s, Scalar::U32, s2.into());
        b.br(head);
        b.switch_to(exit);
        // lid 0 writes the result.
        let is0 = b.cmp(CmpOp::Eq, Scalar::U32, lid.into(), Operand::imm_u32(0));
        let wr = b.new_block();
        let done = b.new_block();
        b.cond_br(is0.into(), wr, done);
        b.switch_to(wr);
        let p0 = b.gep(base.into(), Operand::imm_u32(0), 4, AddressSpace::Local);
        let r = b.load(p0.into(), Scalar::F32, AddressSpace::Local);
        let pout = b.gep(
            Operand::Reg(b.param(1)),
            Operand::imm_u32(0),
            4,
            AddressSpace::Global,
        );
        b.store(pout.into(), r.into(), Scalar::F32, AddressSpace::Global);
        b.br(done);
        b.switch_to(done);
        b.ret();
        let f = b.finish();
        crate::verify::verify_function(&f).unwrap();

        let mut mem = Memory::new(1 << 12);
        let input: Vec<f32> = (1..=8).map(|i| i as f32).collect();
        let pin = mem.alloc_f32(&input);
        let pout = mem.alloc(4);
        let nd = NdRange::d1(8, 8);
        run_ndrange(
            &f,
            &[KernelArg::Ptr(pin), KernelArg::Ptr(pout)],
            &nd,
            &mut mem,
            &Limits::default(),
        )
        .unwrap();
        assert_eq!(mem.read_f32_slice(pout, 1)[0], 36.0);
    }

    #[test]
    fn atomic_add_counts_all_items() {
        let mut b = FunctionBuilder::new("count", vec![gptr("ctr")]);
        let p = b.gep(
            Operand::Reg(b.param(0)),
            Operand::imm_u32(0),
            4,
            AddressSpace::Global,
        );
        b.atomic(
            AtomicOp::Add,
            p.into(),
            Operand::imm_i32(1),
            Scalar::I32,
            AddressSpace::Global,
        );
        b.ret();
        let f = b.finish();
        let mut mem = Memory::new(1 << 12);
        let ctr = mem.alloc_i32(&[0]);
        let nd = NdRange::d1(128, 16);
        run_ndrange(
            &f,
            &[KernelArg::Ptr(ctr)],
            &nd,
            &mut mem,
            &Limits::default(),
        )
        .unwrap();
        assert_eq!(mem.read_i32_slice(ctr, 1)[0], 128);
    }

    #[test]
    fn out_of_bounds_store_is_an_error() {
        let mut b = FunctionBuilder::new("oob", vec![gptr("p")]);
        let addr = b.gep(
            Operand::Reg(b.param(0)),
            Operand::imm_u32(1 << 20),
            4,
            AddressSpace::Global,
        );
        b.store(
            addr.into(),
            Operand::imm_i32(1),
            Scalar::I32,
            AddressSpace::Global,
        );
        b.ret();
        let f = b.finish();
        let mut mem = Memory::new(1 << 12);
        let p = mem.alloc(4);
        let e = run_ndrange(
            &f,
            &[KernelArg::Ptr(p)],
            &NdRange::d1(1, 1),
            &mut mem,
            &Limits::default(),
        )
        .unwrap_err();
        assert!(matches!(e, InterpError::OutOfBounds { .. }));
    }

    #[test]
    fn step_limit_catches_infinite_loop() {
        let mut b = FunctionBuilder::new("spin", vec![]);
        let l = b.new_block();
        b.br(l);
        b.switch_to(l);
        b.br(l);
        let f = b.finish();
        let mut mem = Memory::new(1 << 12);
        let e = run_ndrange(
            &f,
            &[],
            &NdRange::d1(1, 1),
            &mut mem,
            &Limits {
                max_steps_per_item: 1000,
            },
        )
        .unwrap_err();
        assert!(matches!(e, InterpError::StepLimit { .. }));
    }

    #[test]
    fn divergent_barrier_is_a_structured_deadlock() {
        // Items with lid < 2 hit a barrier; the rest return immediately.
        let mut b = FunctionBuilder::new("divbar", vec![]);
        let lid = b.workitem(Builtin::LocalId(0));
        let c = b.cmp(CmpOp::Lt, Scalar::U32, lid.into(), Operand::imm_u32(2));
        let bar_bb = b.new_block();
        let done = b.new_block();
        b.cond_br(c.into(), bar_bb, done);
        b.switch_to(bar_bb);
        b.barrier();
        b.br(done);
        b.switch_to(done);
        b.ret();
        let f = b.finish();
        let mut mem = Memory::new(1 << 12);
        let e = run_ndrange(&f, &[], &NdRange::d1(4, 4), &mut mem, &Limits::default()).unwrap_err();
        match &e {
            InterpError::BarrierDivergence {
                group,
                done,
                waiting,
            } => {
                assert_eq!(*group, [0, 0, 0]);
                assert_eq!(*done, 2);
                assert_eq!(waiting, &[0, 1]);
            }
            other => panic!("expected BarrierDivergence, got {other:?}"),
        }
        let repro: repro_diag::ReproError = e.into();
        assert_eq!(repro.kind(), "DivergenceDeadlock");
        assert_eq!(repro.class(), repro_diag::FailureClass::Deadlock);
    }

    #[test]
    fn misaligned_word_access_rejected() {
        let mut mem = Memory::new(1 << 12);
        let p = mem.alloc(16);
        assert!(matches!(
            mem.read_u32(p + 2),
            Err(InterpError::Misaligned {
                space: "global",
                ..
            })
        ));
        let e = mem.write_u32(p + 1, 7).unwrap_err();
        let repro: repro_diag::ReproError = e.into();
        assert_eq!(repro.class(), repro_diag::FailureClass::Memory);
    }

    #[test]
    fn allocation_exhaustion_is_an_error() {
        let mut mem = Memory::new(64);
        mem.try_alloc(48).unwrap();
        let e = mem.try_alloc(64).unwrap_err();
        assert!(matches!(e, InterpError::OutOfMemory { requested: 64, .. }));
        // Overflowing sizes are exhaustion too, not a panic.
        assert!(mem.try_alloc(u32::MAX).is_err());
        let repro: repro_diag::ReproError = e.into();
        assert_eq!(repro.class(), repro_diag::FailureClass::Memory);
    }

    #[test]
    fn invalid_ndrange_rejected() {
        assert!(NdRange::d1(10, 3).validate().is_err());
        assert!(NdRange::d1(0, 1).validate().is_err());
        assert!(NdRange::d1(12, 4).validate().is_ok());
    }

    #[test]
    fn printf_formats_values() {
        let mut b = FunctionBuilder::new("p", vec![]);
        let gid = b.workitem(Builtin::GlobalId(0));
        b.printf(
            "item {} says {}",
            vec![
                (Operand::Reg(gid), Scalar::U32),
                (Operand::imm_f32(2.5), Scalar::F32),
            ],
        );
        b.ret();
        let f = b.finish();
        let mut mem = Memory::new(1 << 12);
        let r = run_ndrange(&f, &[], &NdRange::d1(2, 1), &mut mem, &Limits::default()).unwrap();
        assert_eq!(r.printf_output, vec!["item 0 says 2.5", "item 1 says 2.5"]);
    }

    #[test]
    fn riscv_division_edge_cases() {
        assert_eq!(riscv_div(5, 0), -1);
        assert_eq!(riscv_rem(5, 0), 5);
        assert_eq!(riscv_div(i32::MIN, -1), i32::MIN);
        assert_eq!(riscv_rem(i32::MIN, -1), 0);
        assert_eq!(riscv_div(7, 2), 3);
    }

    pub(crate) const SCALARS: [Scalar; 4] = [Scalar::I32, Scalar::U32, Scalar::F32, Scalar::Bool];
    pub(crate) const BIN_OPS: [BinOp; 12] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::Min,
        BinOp::Max,
    ];
    pub(crate) const CMP_OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    pub(crate) const UN_OPS: [UnOp; 13] = [
        UnOp::Neg,
        UnOp::Not,
        UnOp::Abs,
        UnOp::Sqrt,
        UnOp::Exp,
        UnOp::Log,
        UnOp::Sin,
        UnOp::Cos,
        UnOp::Floor,
        UnOp::F2I,
        UnOp::I2F,
        UnOp::U2F,
        UnOp::IntCast,
    ];
    const ATOMIC_OPS: [AtomicOp; 8] = [
        AtomicOp::Add,
        AtomicOp::Sub,
        AtomicOp::Min,
        AtomicOp::Max,
        AtomicOp::And,
        AtomicOp::Or,
        AtomicOp::Xor,
        AtomicOp::Xchg,
    ];

    /// `i32::MIN` (also -0.0), -1, 0 (+0.0), shift counts around 32, NaN,
    /// the infinities and a few ordinary values, plus words from the
    /// in-tree RNG.
    pub(crate) fn edge_values() -> Vec<u32> {
        let mut v = vec![
            i32::MIN as u32,
            -1i32 as u32,
            0,
            1,
            2,
            31,
            32,
            33,
            63,
            i32::MAX as u32,
            f32::NAN.to_bits(),
            f32::INFINITY.to_bits(),
            f32::NEG_INFINITY.to_bits(),
            1.0f32.to_bits(),
            (-1.5f32).to_bits(),
            3.0e9f32.to_bits(),
        ];
        let mut rng = repro_util::rng::Rng::new(15);
        v.extend((0..8).map(|_| rng.next_u32()));
        v
    }

    /// Where the operands of a one-instruction kernel `r = op(x, y)` live.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Shape {
        RegReg,
        RegConst,
        ConstReg,
        ConstConst,
        /// `x = op(x, y)`.
        DstIsA,
        /// `y = op(x, y)`.
        DstIsB,
        /// `op(k, k)`: one constant slot read twice.
        SameConst,
    }

    const SHAPES: [Shape; 7] = [
        Shape::RegReg,
        Shape::RegConst,
        Shape::ConstReg,
        Shape::ConstConst,
        Shape::DstIsA,
        Shape::DstIsB,
        Shape::SameConst,
    ];

    fn scalar_param(name: &str, ty: Scalar) -> Param {
        Param {
            name: name.into(),
            ty: Type::Scalar(ty),
        }
    }

    fn konst(ty: Scalar, bits: u32) -> Operand {
        Operand::Const(crate::Const::from_bits(ty, bits))
    }

    /// The operands and the destination (a fresh register if `None`) of
    /// `op(x, y)` placed per `shape`, with `x` and `y` held in `rx`, `ry`.
    fn place(
        shape: Shape,
        ty: Scalar,
        (rx, ry): (VReg, VReg),
        (x, y): (u32, u32),
    ) -> (Operand, Operand, Option<VReg>) {
        match shape {
            Shape::RegReg => (rx.into(), ry.into(), None),
            Shape::RegConst => (rx.into(), konst(ty, y), None),
            Shape::ConstReg => (konst(ty, x), ry.into(), None),
            Shape::ConstConst => (konst(ty, x), konst(ty, y), None),
            Shape::DstIsA => (rx.into(), ry.into(), Some(rx)),
            Shape::DstIsB => (rx.into(), ry.into(), Some(ry)),
            Shape::SameConst => (konst(ty, x), konst(ty, x), None),
        }
    }

    /// Run `out[0] = make(x, y)` with the operands placed per `shape`;
    /// returns the stored word and the operand words the op really saw (a
    /// `Bool` constant holds only 0 or 1, a register any word).
    fn run_one_op(
        shape: Shape,
        ty: Scalar,
        x: u32,
        y: u32,
        make: impl Fn(Operand, Operand) -> Op,
    ) -> (u32, u32, u32) {
        let params = vec![gptr("out"), scalar_param("x", ty), scalar_param("y", ty)];
        let mut b = FunctionBuilder::new("one_op", params);
        let (a, c, dst) = place(shape, ty, (b.param(1), b.param(2)), (x, y));
        let seen = |o: Operand, raw: u32| o.as_const().map_or(raw, |k| k.bits());
        let (xs, ys) = (
            seen(a, x),
            seen(c, if shape == Shape::SameConst { x } else { y }),
        );
        let r = match dst {
            Some(d) => {
                b.push_into(d, make(a, c));
                d
            }
            None => b.push(make(a, c), Scalar::U32),
        };
        let p = Operand::Reg(b.param(0));
        b.store(p, r.into(), Scalar::U32, AddressSpace::Global);
        b.ret();
        let f = b.finish();
        let mut mem = Memory::new(64);
        let out = mem.alloc(4);
        let args = [KernelArg::Ptr(out), KernelArg::U32(x), KernelArg::U32(y)];
        run_ndrange(&f, &args, &NdRange::d1(1, 1), &mut mem, &Limits::default()).unwrap();
        (mem.read_u32(out).unwrap(), xs, ys)
    }

    /// Bit equality, except that two float NaNs are the same result: which
    /// payload an operation on two NaNs keeps is the compiler's choice.
    fn assert_same(got: u32, want: u32, float_result: bool, what: impl Fn() -> String) {
        let both_nan =
            float_result && f32::from_bits(got).is_nan() && f32::from_bits(want).is_nan();
        assert!(
            got == want || both_nan,
            "{}: got {got:#x}, want {want:#x}",
            what()
        );
    }

    #[test]
    fn specialised_opcodes_match_eval() {
        let vals = edge_values();
        // Every pair for the register shape; for the rest each value with
        // three partners, which still meets every edge value on both sides.
        let all_pairs = || vals.iter().flat_map(|&x| vals.iter().map(move |&y| (x, y)));
        let some_pairs = || {
            (0..vals.len()).flat_map(|i| [1, 5, 11].map(|k| (vals[i], vals[(i + k) % vals.len()])))
        };
        let pairs = |shape: Shape| -> Vec<(u32, u32)> {
            if shape == Shape::RegReg {
                all_pairs().collect()
            } else {
                some_pairs().collect()
            }
        };
        for ty in SCALARS {
            for shape in SHAPES {
                for (x, y) in pairs(shape) {
                    for op in BIN_OPS {
                        let (got, xs, ys) =
                            run_one_op(shape, ty, x, y, |a, b| Op::Bin { op, ty, a, b });
                        assert_same(got, eval_bin(op, ty, xs, ys), ty == Scalar::F32, || {
                            format!("{op:?} {ty:?} {shape:?} {xs:#x} {ys:#x}")
                        });
                    }
                    for op in CMP_OPS {
                        let (got, xs, ys) =
                            run_one_op(shape, ty, x, y, |a, b| Op::Cmp { op, ty, a, b });
                        assert_eq!(
                            got,
                            eval_cmp(op, ty, xs, ys) as u32,
                            "{op:?} {ty:?} {shape:?} {xs:#x} {ys:#x}"
                        );
                    }
                    if !matches!(shape, Shape::RegReg | Shape::ConstConst | Shape::DstIsA) {
                        continue;
                    }
                    for op in UN_OPS {
                        let (got, xs, _) = run_one_op(shape, ty, x, y, |a, _| Op::Un { op, ty, a });
                        assert_same(got, eval_un(op, ty, xs), true, || {
                            format!("{op:?} {ty:?} {shape:?} {xs:#x}")
                        });
                    }
                    let (got, xs, ys) = run_one_op(shape, ty, x, y, |a, b| Op::Select {
                        ty,
                        cond: a,
                        a: b,
                        b: a,
                    });
                    assert_eq!(got, if xs != 0 { ys } else { xs }, "select {shape:?}");
                }
            }
        }
    }

    fn operand_value(o: Operand, regs: &[u32]) -> u32 {
        match o {
            Operand::Reg(r) => regs[r.0 as usize],
            Operand::Const(k) => k.bits(),
        }
    }

    /// What `op` writes, given the register file before it: `eval_*` for
    /// the operators; `Mov`, `Gep` and `Load` have no evaluator and are a
    /// copy, `base + index * size` and a word of `mem`.
    fn reference(op: &Op, regs: &[u32], mem: &Memory) -> u32 {
        let v = |o: &Operand| operand_value(*o, regs);
        match op {
            Op::Bin { op, ty, a, b } => eval_bin(*op, *ty, v(a), v(b)),
            Op::Cmp { op, ty, a, b } => eval_cmp(*op, *ty, v(a), v(b)) as u32,
            Op::Mov { a, .. } => v(a),
            Op::Gep {
                base,
                index,
                elem_bytes,
                ..
            } => v(base).wrapping_add(v(index).wrapping_mul(*elem_bytes)),
            Op::Load { ptr, .. } => mem.read_u32(v(ptr)).unwrap(),
            other => unreachable!("{other:?} is in no fused pair"),
        }
    }

    /// The words a pair kernel loads from: the first allocation, at
    /// [`GLOBAL_BASE`].
    const PAIR_DATA: [u32; 4] = [0x8000_0000, 0xffff_ffff, 0x7fc0_0000, 31];

    /// Run a one-item kernel `(out, x: ty, y: ty)` whose entry block opens
    /// with the pair that `pair` builds from the registers of `x` and `y`
    /// (a branching partner goes to the two blocks it is given), check that
    /// decoding fused it into `fused` exactly when `pair` says the partner
    /// reads the first op's result where the fused arm takes it, and hold
    /// what it computes to the pair run one op at a time through
    /// [`reference`]: every register defined by the end of the pair, and
    /// which way a branch went.
    fn check_pair(
        fused: Code,
        ty: Scalar,
        (x, y): (u32, u32),
        pair: impl FnOnce(&mut FunctionBuilder, (VReg, VReg), [crate::BlockId; 2]) -> bool,
    ) {
        let params = vec![gptr("out"), scalar_param("x", ty), scalar_param("y", ty)];
        let mut b = FunctionBuilder::new("pair", params);
        let targets = [b.new_block(), b.new_block()];
        let regs = (b.param(1), b.param(2));
        let fuses = pair(&mut b, regs, targets);
        // Registers are numbered in order, so the next fresh one counts
        // those the parameters and the pair defined.
        let defined = b.fresh(Scalar::U32).0;
        // out[i] = register i, then out[defined] = the way taken: 0 when
        // the partner does not branch, else 1 + the target's index.
        let dump = |b: &mut FunctionBuilder, way: u32| {
            let out = Operand::Reg(b.param(0));
            for i in 0..=defined {
                let v = if i < defined {
                    VReg(i).into()
                } else {
                    Operand::imm_u32(way)
                };
                let p = b.gep(out, Operand::imm_u32(i), 4, AddressSpace::Global);
                b.store(p.into(), v, Scalar::U32, AddressSpace::Global);
            }
            b.ret();
        };
        let branches = b.is_terminated();
        if !branches {
            dump(&mut b, 0);
        }
        for (way, bb) in (1..).zip(targets) {
            b.switch_to(bb);
            if branches {
                dump(&mut b, way);
            } else {
                b.ret();
            }
        }
        let f = b.finish();
        let mut mem = Memory::new(256);
        let data = mem.alloc_u32(&PAIR_DATA);
        assert_eq!(data, GLOBAL_BASE);
        let out = mem.alloc(4 * (defined + 1));
        let args = [KernelArg::Ptr(out), KernelArg::U32(x), KernelArg::U32(y)];
        let code = decode(&f, &args, &[]).ops[0].code;
        assert_eq!(code, if fuses { fused } else { fused.unfused() }, "{f}");
        run_ndrange(&f, &args, &NdRange::d1(1, 1), &mut mem, &Limits::default()).unwrap();

        let mut regs = vec![0; defined as usize];
        for (r, a) in regs.iter_mut().zip(&args) {
            *r = a.bits();
        }
        let entry = &f.blocks[0];
        let steps = if branches { 1 } else { 2 };
        for inst in &entry.insts[..steps] {
            let v = reference(&inst.op, &regs, &mem);
            regs[inst.result.unwrap().0 as usize] = v;
        }
        let way = match &entry.term {
            _ if !branches => 0,
            Terminator::CondBr { cond, .. } if operand_value(*cond, &regs) == 0 => 2,
            _ => 1,
        };
        let mut want = regs;
        want.push(way);
        let got = mem.read_u32_slice(out, want.len());
        assert_eq!(got, want, "{fused:?} {ty:?} {x:#x} {y:#x}\n{f}");
    }

    /// Append `op`, writing `dst` or a fresh register, and return that.
    fn push_to(b: &mut FunctionBuilder, dst: Option<VReg>, op: Op) -> VReg {
        match dst {
            Some(d) => {
                b.push_into(d, op);
                d
            }
            None => b.push(op, Scalar::U32),
        }
    }

    #[test]
    fn fused_opcodes_match_eval() {
        let vals = edge_values();
        let pairs: Vec<(u32, u32)> = (0..vals.len())
            .flat_map(|i| [1, 5, 11].map(|k| (vals[i], vals[(i + k) % vals.len()])))
            .collect();
        // A partner's operands, the one its fused arm takes from a
        // register first, and its destination, given the first op's result
        // `r`: it reads `r` there or in its other operand, ignores it for
        // `y` and a constant, or overwrites `x`, an operand of the first op.
        let links = |r: VReg, (rx, ry): (VReg, VReg), k: Operand| {
            [
                (Operand::from(r), Operand::from(ry), None),
                (ry.into(), r.into(), None),
                (ry.into(), k, None),
                (r.into(), k, Some(rx)),
            ]
        };
        for (x, y) in pairs.iter().copied() {
            for shape in SHAPES {
                for ty in [Scalar::I32, Scalar::U32, Scalar::Bool] {
                    let arith = [
                        (BinOp::Add, Code::AddIMov),
                        (BinOp::Add, Code::AddIGep),
                        (BinOp::Mul, Code::MulIAddI),
                    ];
                    for (op, fused) in arith {
                        for link in 0..4 {
                            check_pair(fused, ty, (x, y), |b, regs, _| {
                                let (a, c, dst) = place(shape, ty, regs, (x, y));
                                let r = push_to(b, dst, Op::Bin { op, ty, a, b: c });
                                let (p, q, dst) = links(r, regs, konst(ty, x ^ y))[link];
                                let partner = match fused {
                                    Code::AddIMov => Op::Mov { ty, a: p },
                                    Code::AddIGep => Op::Gep {
                                        base: q,
                                        index: p,
                                        elem_bytes: 4,
                                        space: AddressSpace::Global,
                                    },
                                    _ => Op::Bin {
                                        op: BinOp::Add,
                                        ty,
                                        a: p,
                                        b: q,
                                    },
                                };
                                push_to(b, dst, partner);
                                p == r.into()
                            });
                        }
                    }
                }
                for (ty, fused) in [
                    (Scalar::I32, Code::LtSCondBr),
                    (Scalar::F32, Code::LtFCondBr),
                ] {
                    for op in [CmpOp::Lt, CmpOp::Gt] {
                        // Branch on `r`, on `y`, or on a constant.
                        for link in 0..3 {
                            check_pair(fused, ty, (x, y), |b, regs, [then_bb, else_bb]| {
                                let (a, c, dst) = place(shape, ty, regs, (x, y));
                                let r = push_to(b, dst, Op::Cmp { op, ty, a, b: c });
                                let cond = [r.into(), regs.1.into(), Operand::imm_u32(x & 1)];
                                b.cond_br(cond[link], then_bb, else_bb);
                                cond[link] == r.into()
                            });
                        }
                    }
                }
                for ty in SCALARS {
                    check_pair(Code::MovBr, ty, (x, y), |b, regs, [then_bb, _]| {
                        let (a, _, dst) = place(shape, ty, regs, (x, y));
                        push_to(b, dst, Op::Mov { ty, a });
                        b.br(then_bb);
                        true
                    });
                }
            }
        }
        // Gep→LoadG on valid addresses only: `x` is the data words' base
        // and `y` an index into them; `op(k, k)` would read out of range.
        for shape in SHAPES.into_iter().filter(|&s| s != Shape::SameConst) {
            for y in 0..PAIR_DATA.len() as u32 {
                for link in 0..3 {
                    let (x, ty) = (GLOBAL_BASE, Scalar::U32);
                    check_pair(Code::GepLoadG, ty, (x, y), |b, regs, _| {
                        let (base, index, dst) = place(shape, ty, regs, (x, y));
                        let gep = Op::Gep {
                            base,
                            index,
                            elem_bytes: 4,
                            space: AddressSpace::Global,
                        };
                        let r = push_to(b, dst, gep);
                        // Load through `r`, through `x` (still an address
                        // when the gep overwrote it), or through `r` into `x`.
                        let (ptr, dst) = [(r, None), (regs.0, None), (r, Some(regs.0))][link];
                        let load = Op::Load {
                            ptr: ptr.into(),
                            ty,
                            space: AddressSpace::Global,
                            hint: Default::default(),
                        };
                        push_to(b, dst, load);
                        ptr == r
                    });
                }
            }
        }
    }

    #[test]
    fn atomics_match_eval_in_both_address_spaces() {
        let vals = edge_values();
        for space in [AddressSpace::Global, AddressSpace::Local] {
            for ty in [Scalar::I32, Scalar::U32] {
                for op in ATOMIC_OPS {
                    for (i, &old) in vals.iter().enumerate() {
                        let v = vals[(i + 7) % vals.len()];
                        // cell = old; out[1] = atomic(op, &cell, v); out[0] = cell
                        let mut b =
                            FunctionBuilder::new("rmw", vec![gptr("out"), scalar_param("v", ty)]);
                        let out = Operand::Reg(b.param(0));
                        let cell = match space {
                            AddressSpace::Global => out,
                            AddressSpace::Local => {
                                let tile = b.local_array("tile", ty, 1);
                                b.local_addr(tile).into()
                            }
                        };
                        b.store(cell, Operand::imm_u32(old), ty, space);
                        // The value as a constant when `i` is even, from a
                        // register when odd.
                        let value = if i % 2 == 0 {
                            Operand::imm_u32(v)
                        } else {
                            b.param(1).into()
                        };
                        let seen = b.atomic(op, cell, value, ty, space);
                        let after = b.load(cell, ty, space);
                        b.store(out, after.into(), ty, AddressSpace::Global);
                        let p1 = b.gep(out, Operand::imm_u32(1), 4, AddressSpace::Global);
                        b.store(p1.into(), seen.into(), ty, AddressSpace::Global);
                        b.ret();
                        let f = b.finish();
                        let mut mem = Memory::new(64);
                        let po = mem.alloc(8);
                        let args = [KernelArg::Ptr(po), KernelArg::U32(v)];
                        let r = run_ndrange(
                            &f,
                            &args,
                            &NdRange::d1(1, 1),
                            &mut mem,
                            &Limits::default(),
                        )
                        .unwrap();
                        assert_eq!(
                            mem.read_u32_slice(po, 2),
                            vec![eval_atomic(op, ty, old, v), old],
                            "{op:?} {ty:?} {space:?} {old:#x} {v:#x}"
                        );
                        // Atomics are not counted as loads or stores.
                        let global = (space == AddressSpace::Global) as u64;
                        assert_eq!((r.global_loads, r.global_stores), (global, 2 + global));
                    }
                }
            }
        }
    }

    /// `out[gy * 4 + gx] = 7` over a 4 x 4 range in 2 x 2 groups; the item
    /// at (3, 2) then takes a detour. Returns the kernel and its step
    /// count on the long path (every other item takes three fewer).
    fn detour_kernel() -> (Function, u64) {
        let mut b = FunctionBuilder::new("detour", vec![gptr("out")]);
        let gx = b.workitem(Builtin::GlobalId(0));
        let gy = b.workitem(Builtin::GlobalId(1));
        let row = b.bin(BinOp::Mul, Scalar::U32, gy.into(), Operand::imm_u32(4));
        let lin = b.bin(BinOp::Add, Scalar::U32, row.into(), gx.into());
        let p = b.gep(
            Operand::Reg(b.param(0)),
            lin.into(),
            4,
            AddressSpace::Global,
        );
        b.store(
            p.into(),
            Operand::imm_u32(7),
            Scalar::U32,
            AddressSpace::Global,
        );
        let c = b.cmp(CmpOp::Eq, Scalar::U32, lin.into(), Operand::imm_u32(11));
        let (long, done) = (b.new_block(), b.new_block());
        b.cond_br(c.into(), long, done);
        b.switch_to(long);
        b.mov(Scalar::U32, Operand::imm_u32(1));
        b.mov(Scalar::U32, Operand::imm_u32(2));
        b.br(done);
        b.switch_to(done);
        b.ret();
        // 7 instructions + cond_br, 2 movs + br, ret.
        (b.finish(), 12)
    }

    #[test]
    fn step_limit_admits_limit_plus_one_steps_and_keeps_earlier_stores() {
        let (f, long_steps) = detour_kernel();
        let nd = NdRange::d2(4, 4, 2, 2);
        let run = |limit: u64| {
            let mut mem = Memory::new(256);
            let out = mem.alloc(64);
            let limits = Limits {
                max_steps_per_item: limit,
            };
            let r = run_ndrange(&f, &[KernelArg::Ptr(out)], &nd, &mut mem, &limits);
            (r, mem.read_u32_slice(out, 16))
        };
        let (r, out) = run(long_steps - 1);
        assert_eq!(r.unwrap().steps, 15 * (long_steps - 3) + long_steps);
        assert_eq!(out, vec![7; 16]);
        let (r, out) = run(long_steps - 2);
        assert_eq!(
            r.unwrap_err(),
            InterpError::StepLimit {
                item: [3, 2, 0],
                limit: long_steps - 2
            }
        );
        // Groups run in x-then-y order, items in lx-then-ly order: (3, 2)
        // is the second item of the last group, so its own store and
        // every earlier item's landed; (2, 3) and (3, 3) never ran.
        let mut want = vec![7; 16];
        want[14] = 0;
        want[15] = 0;
        assert_eq!(out, want);
    }

    /// A straight-line kernel holding every fused pair between global
    /// stores; store `k` writes `out[k]`, and the blocks run in order.
    fn every_pair_kernel() -> Function {
        let params = vec![
            gptr("out"),
            gptr("data"),
            scalar_param("x", Scalar::I32),
            scalar_param("fx", Scalar::F32),
            scalar_param("fy", Scalar::F32),
        ];
        let mut b = FunctionBuilder::new("every_pair", params);
        let (out, data) = (Operand::Reg(b.param(0)), Operand::Reg(b.param(1)));
        let (x, fx, fy) = (b.param(2), b.param(3), b.param(4));
        let blocks = [b.new_block(), b.new_block(), b.new_block()];
        let store = |b: &mut FunctionBuilder, k: u32, v: VReg| {
            let p = b.gep(out, Operand::imm_u32(k), 4, AddressSpace::Global);
            b.store(p.into(), v.into(), Scalar::U32, AddressSpace::Global);
        };
        let a = b.mov(Scalar::I32, x.into()); // Mov→Br
        b.br(blocks[0]);
        b.switch_to(blocks[0]);
        store(&mut b, 0, a);
        let q = b.gep(data, Operand::imm_u32(1), 4, AddressSpace::Global); // Gep→LoadG
        let v = b.load(q.into(), Scalar::I32, AddressSpace::Global);
        store(&mut b, 1, v);
        let t = b.bin(BinOp::Add, Scalar::I32, v.into(), a.into()); // AddI→Mov
        let m = b.mov(Scalar::I32, t.into());
        store(&mut b, 2, m);
        let u = b.bin(BinOp::Add, Scalar::I32, m.into(), Operand::imm_i32(1)); // AddI→Gep
        let p = b.gep(out, u.into(), 4, AddressSpace::Global);
        // Store 3, at out[u] with u = 3.
        b.store(p.into(), u.into(), Scalar::U32, AddressSpace::Global);
        let w = b.bin(BinOp::Mul, Scalar::I32, u.into(), Operand::imm_i32(5)); // MulI→AddI
        let z = b.bin(BinOp::Add, Scalar::I32, w.into(), Operand::imm_i32(1));
        store(&mut b, 4, z);
        let c = b.cmp(CmpOp::Lt, Scalar::I32, z.into(), Operand::imm_i32(1000)); // LtS→CondBr
        b.cond_br(c.into(), blocks[1], blocks[1]);
        b.switch_to(blocks[1]);
        store(&mut b, 5, c);
        let cf = b.cmp(CmpOp::Lt, Scalar::F32, fx.into(), fy.into()); // LtF→CondBr
        b.cond_br(cf.into(), blocks[2], blocks[2]);
        b.switch_to(blocks[2]);
        store(&mut b, 6, cf);
        b.ret();
        b.finish()
    }

    /// Run `f` as the one item of group (3, 0, 0) under `limit`, as
    /// `run_ndrange` runs an item, and return the outcome with the item's
    /// register row, which a `StepLimit` leaves as the last step wrote it.
    fn run_one_item(
        f: &Function,
        args: &[KernelArg],
        mem: &mut Memory,
        limit: u64,
    ) -> (Result<u64, InterpError>, Vec<u32>) {
        let prog = decode(f, args, &[]);
        let nd = NdRange::d1(4, 1);
        let mut launch = Launch {
            prog: &prog,
            nd: &nd,
            limit,
            regs: vec![0; prog.template.len()],
            pc: vec![0],
            steps: vec![0],
            status: vec![Status::Ready],
            local_mem: Vec::new(),
        };
        let mut result = ExecResult::default();
        let r = launch.run_group([3, 0, 0], mem, &mut result);
        (r.map(|()| result.steps), launch.regs)
    }

    #[test]
    fn step_limit_splits_every_fused_pair_exactly() {
        let f = every_pair_kernel();
        // The step at which each store lands and each register is written.
        let (mut step, mut store_steps, mut def_step) = (0, vec![], vec![0; f.num_vregs()]);
        for block in &f.blocks {
            for inst in &block.insts {
                step += 1;
                match inst.result {
                    Some(r) => def_step[r.0 as usize] = step,
                    None => store_steps.push(step),
                }
            }
            step += 1;
        }
        let total = step;
        let codes: Vec<Code> = decode(&f, &[KernelArg::U32(0); 5], &[])
            .ops
            .iter()
            .map(|op| op.code)
            .collect();
        for (_, _, fused) in FUSED {
            assert!(codes.contains(&fused), "{fused:?} missing from {codes:?}");
        }
        let run = |limit: u64| {
            let mut mem = Memory::new(256);
            let out = mem.alloc_u32(&[u32::MAX; 7]);
            let data = mem.alloc_i32(&[0, 1]);
            let args = [
                KernelArg::Ptr(out),
                KernelArg::Ptr(data),
                KernelArg::I32(1),
                KernelArg::F32(1.0),
                KernelArg::F32(2.0),
            ];
            let (r, regs) = run_one_item(&f, &args, &mut mem, limit);
            (r, mem.read_u32_slice(out, 7), regs)
        };
        let (full, full_out, full_regs) = run(total);
        assert_eq!(full, Ok(total));
        // a = 1, v = 1, m = 2, u = 3, z = 16, c = 1, cf = 1.
        assert_eq!(full_out, vec![1, 1, 2, 3, 16, 1, 1]);
        let params = 5;
        for limit in 0..=total {
            let (r, out, regs) = run(limit);
            let admitted = limit + 1;
            if admitted < total {
                let item = [3, 0, 0];
                assert_eq!(r, Err(InterpError::StepLimit { item, limit }));
            } else {
                assert_eq!(r, Ok(total), "limit {limit}");
            }
            for (k, &s) in store_steps.iter().enumerate() {
                let want = if s <= admitted { full_out[k] } else { u32::MAX };
                assert_eq!(out[k], want, "limit {limit}: store {k} at step {s}");
            }
            for (r, &s) in def_step.iter().enumerate().skip(params) {
                let want = if s <= admitted { full_regs[r] } else { 0 };
                assert_eq!(regs[r], want, "limit {limit}: %{r} written at step {s}");
            }
        }
    }

    #[test]
    fn barrier_mid_block_resumes_at_the_next_instruction() {
        // tile[lid] = lid + 1; barrier; out[gid] = tile[(lid + 1) & 3] —
        // all in the entry block, so the resume point is mid-block.
        let mut b = FunctionBuilder::new("rot", vec![gptr("out")]);
        let tile = b.local_array("tile", Scalar::U32, 4);
        let base = b.local_addr(tile);
        let lid = b.workitem(Builtin::LocalId(0));
        let gid = b.workitem(Builtin::GlobalId(0));
        let next = b.bin(BinOp::Add, Scalar::U32, lid.into(), Operand::imm_u32(1));
        let mine = b.gep(base.into(), lid.into(), 4, AddressSpace::Local);
        b.store(mine.into(), next.into(), Scalar::U32, AddressSpace::Local);
        b.barrier();
        let wrapped = b.bin(BinOp::And, Scalar::U32, next.into(), Operand::imm_u32(3));
        let theirs = b.gep(base.into(), wrapped.into(), 4, AddressSpace::Local);
        let v = b.load(theirs.into(), Scalar::U32, AddressSpace::Local);
        let po = b.gep(
            Operand::Reg(b.param(0)),
            gid.into(),
            4,
            AddressSpace::Global,
        );
        b.store(po.into(), v.into(), Scalar::U32, AddressSpace::Global);
        b.ret();
        let f = b.finish();
        let mut mem = Memory::new(256);
        let out = mem.alloc(32);
        let r = run_ndrange(
            &f,
            &[KernelArg::Ptr(out)],
            &NdRange::d1(8, 4),
            &mut mem,
            &Limits::default(),
        )
        .unwrap();
        assert_eq!(mem.read_u32_slice(out, 8), vec![2, 3, 4, 1, 2, 3, 4, 1]);
        assert_eq!((r.steps, r.global_loads, r.global_stores), (8 * 13, 0, 8));
    }

    #[test]
    fn work_item_builtins_match_the_opencl_formulae_in_three_dimensions() {
        let kinds = [
            Builtin::GlobalId,
            Builtin::LocalId,
            Builtin::GroupId,
            Builtin::GlobalSize,
            Builtin::LocalSize,
            Builtin::NumGroups,
        ];
        for nd in [
            NdRange::d2(6, 4, 3, 2),
            NdRange {
                global: [4, 6, 2],
                local: [2, 3, 1],
            },
            NdRange {
                global: [2, 2, 4],
                local: [1, 2, 2],
            },
        ] {
            // out[18 * linear global id + 3 * kind + dim] = builtin(dim)
            let mut b = FunctionBuilder::new("ids", vec![gptr("out")]);
            let mut lin: Operand = Operand::imm_u32(0);
            for d in [2u8, 1, 0] {
                let size = b.workitem(Builtin::GlobalSize(d));
                let id = b.workitem(Builtin::GlobalId(d));
                let scaled = b.bin(BinOp::Mul, Scalar::U32, lin, size.into());
                lin = b
                    .bin(BinOp::Add, Scalar::U32, scaled.into(), id.into())
                    .into();
            }
            let first = b.bin(BinOp::Mul, Scalar::U32, lin, Operand::imm_u32(18));
            for (k, kind) in kinds.iter().enumerate() {
                for d in 0..3u8 {
                    let v = b.workitem(kind(d));
                    let slot = Operand::imm_u32(3 * k as u32 + d as u32);
                    let idx = b.bin(BinOp::Add, Scalar::U32, first.into(), slot);
                    let p = b.gep(
                        Operand::Reg(b.param(0)),
                        idx.into(),
                        4,
                        AddressSpace::Global,
                    );
                    b.store(p.into(), v.into(), Scalar::U32, AddressSpace::Global);
                }
            }
            b.ret();
            let f = b.finish();
            let items = nd.total_items() as usize;
            let mut mem = Memory::new(18 * 4 * items as u32 + 64);
            let out = mem.alloc_u32(&vec![u32::MAX; 18 * items]);
            run_ndrange(
                &f,
                &[KernelArg::Ptr(out)],
                &nd,
                &mut mem,
                &Limits::default(),
            )
            .unwrap();
            let got = mem.read_u32_slice(out, 18 * items);
            let mut want = Vec::with_capacity(18 * items);
            for gz in 0..nd.global[2] {
                for gy in 0..nd.global[1] {
                    for gx in 0..nd.global[0] {
                        let g = [gx, gy, gz];
                        want.extend(g);
                        want.extend([0, 1, 2].map(|d| g[d] % nd.local[d]));
                        want.extend([0, 1, 2].map(|d| g[d] / nd.local[d]));
                        want.extend(nd.global);
                        want.extend(nd.local);
                        want.extend([0, 1, 2].map(|d| nd.global[d] / nd.local[d]));
                    }
                }
            }
            assert_eq!(got, want, "{nd:?}");
        }
    }

    #[test]
    fn decoded_op_fits_in_twenty_bytes() {
        assert!(std::mem::size_of::<DOp>() <= 20);
    }

    #[test]
    fn bulk_reads_fail_like_the_word_by_word_loop() {
        // 0x1000 unmapped bytes, then 40 mapped ones.
        let mem = Memory::new(40);
        let by_word =
            |addr: u32, len: usize| (0..len as u32).find_map(|i| mem.read_u32(addr + 4 * i).err());
        for addr in [
            0, 4, 0xffc, 0x1000, 0x1002, 0x1010, 0x1024, 0x1028, 0x1030, 0x2000,
        ] {
            for len in [0, 1, 2, 6, 10, 11, 100] {
                assert_eq!(
                    mem.word_range(addr, len).err(),
                    by_word(addr, len),
                    "{addr:#x}+{len}"
                );
            }
        }
        assert_eq!(mem.read_u32_slice(0x1000, 10), vec![0; 10]);
        assert_eq!(mem.read_i32_slice(0x2000, 0), Vec::<i32>::new());
    }

    #[test]
    #[should_panic(expected = "OutOfBounds")]
    fn bulk_read_past_the_end_panics() {
        Memory::new(40).read_u32_slice(0x1020, 3);
    }
}
