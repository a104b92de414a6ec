//! Reference NDRange interpreter — the functional golden model.
//!
//! Executes a kernel over an OpenCL NDRange, one work-group at a time. It
//! is the `interp` flow, the functional half of the HLS flow
//! (`hls_flow::execute_ndrange` is this plus a timing estimate) and the
//! oracle of every differential test.
//!
//! **Decode**, once per launch (`decode`). The reachable blocks are laid
//! out in reverse post-order and flattened into one vector of 20-byte
//! `Copy` ops: block ids become absolute pcs, terminators become ordinary
//! ops, and every operand — register, constant, kernel argument, `__local`
//! base address or work-item builtin — becomes a slot of one register row
//! laid out `[vregs | scratch | constants and builtins]`. `Operand`,
//! `Const` and `Function` are not looked at again.
//!
//! **Gangs.** A work-group's items, in lz/ly/lx order, are cut into gangs
//! of at most 64 (`GANG`; a `u64` is the lane mask), each with its own
//! slot-major register file (`regs[slot * width + lane]`). The files of
//! group `[0, 0, 0]` are built once per launch; a group starts from one
//! copy of them with its global- and group-id rows moved. A gang runs in
//! lockstep: one op fetch and one `match` per op. A pure arm on every lane
//! whose destination is not a source writes the destination row in place
//! as one slice loop; other pure arms and the memory, atomic and printf
//! arms visit the masked lanes in lane order, lower lanes' effects first.
//!
//! **Reconvergence** is min-PC. The gang keeps a small pc-sorted list of
//! `(pc, mask)` entries and always runs the lowest pc; after each op one
//! compare against the next waiting pc decides whether to merge with it
//! or to switch to it. The reverse post-order layout visits each branch's
//! else-successor first, so an if's then-arm and a loop's body sit before
//! the join and the loop exit, where the lanes meet again. Which lanes run
//! together affects only speed: every lane's own sequence of ops is fixed.
//!
//! **Barriers.** A lane that reaches a barrier parks. The group loop runs
//! gang 0 until every lane is parked or returned, then gang 1, and so on;
//! when every item of the group is parked the barrier releases, and if
//! some returned while others wait, that is an
//! [`InterpError::BarrierDivergence`] naming the group, the returned count
//! and the parked items.
//!
//! **Step accounting** is per item. Every instruction and every
//! terminator is one step, barriers and the final `ret` included, for
//! each lane in the mask. The per-item limit is tested before each step
//! as `steps > limit`, so an item may take `limit + 1` steps; the gang
//! raises [`InterpError::StepLimit`] naming the lowest lane of the mask
//! that would exceed it. A running entry counts its ops once and adds
//! them to its lanes when its mask changes.
//! [`ExecResult::steps`] and the global load/store counts feed the HLS
//! cycle estimate, so they are part of the contract
//! (`tests/interp_counts.rs` pins them for the whole suite).
//!
//! **Printf** output is buffered per item and flushed in item order at
//! each barrier release and at the end of the group: the order in which
//! items running one at a time to their next barrier would print.
//!
//! **Memory after an error** holds every effect of the ops run before it:
//! the gangs before the faulting one ran to their barrier or end, the
//! faulting gang's other entries stopped wherever they were waiting, and
//! the faulting op's lower lanes did their part.
//!
//! **Opcodes.** The `(op, type)` pairs the suite's inner loops are made of
//! — wrapping integer add/sub/mul, the bitwise ops and shifts, `f32`
//! add/sub/mul/div, every comparison (`>`/`>=` as `<`/`<=` with swapped
//! operands), select, mov, gep, global and local load and store, and the
//! three terminators — have an opcode each. Division, remainder, min/max,
//! every [`UnOp`], atomics and printf are rare: they share one opcode that
//! looks the operation up in a side table and calls [`eval_bin`],
//! [`eval_un`] or [`eval_atomic`]. Those public functions (with
//! [`eval_cmp`]) are the definition of the scalar semantics; the
//! specialised arms are tested equal to them for every operator, type and
//! operand shape.
//!
//! Integer division semantics follow RISC-V (div-by-zero yields all-ones,
//! `INT_MIN / -1` wraps) so that the interpreter and the Vortex simulator
//! agree bit-for-bit and differential tests are meaningful.

use crate::func::Function;
use crate::inst::{AtomicOp, BinOp, Builtin, CmpOp, Op, Terminator, UnOp};
use crate::types::AddressSpace;
use crate::value::{Operand, VReg};
use repro_util::fxhash::FxHashMap;
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
/// backends (see [`From<InterpError> for repro_util::diag::ReproError`]).
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

impl From<InterpError> for repro_util::diag::ReproError {
    fn from(e: InterpError) -> Self {
        use repro_util::diag::{ReproError, StuckWarp};
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

/// The work-item builtin values of the item with local id `lid` in
/// `group`, indexed by [`builtin_index`].
fn builtin_table(nd: &NdRange, group: [u32; 3], lid: [u32; 3]) -> [u32; 18] {
    let mut t = [0; 18];
    t[..3].copy_from_slice(&[0, 1, 2].map(|d| group[d] * nd.local[d] + lid[d]));
    t[3..6].copy_from_slice(&lid);
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

/// The reachable blocks of `f` in reverse post-order from the entry, each
/// branch's else-successor visited first. The then-side (a loop body, an
/// if's then-arm) thus comes before the else-side (the loop exit, the
/// join), which is where min-PC reconvergence wants the lanes to meet.
fn layout(f: &Function) -> Vec<usize> {
    let succs = |b: usize| match f.blocks[b].term {
        Terminator::Ret => [None, None],
        Terminator::Br { target } => [Some(target.index()), None],
        Terminator::CondBr {
            then_bb, else_bb, ..
        } => [Some(else_bb.index()), Some(then_bb.index())],
    };
    let mut seen = vec![false; f.blocks.len()];
    let mut post = Vec::with_capacity(f.blocks.len());
    // (block, successors already looked at)
    let mut stack = vec![(0, 0)];
    seen[0] = true;
    while let Some((b, next)) = stack.last_mut() {
        match succs(*b).get(*next) {
            Some(s) => {
                *next += 1;
                if let &Some(s) = s {
                    if !seen[s] {
                        seen[s] = true;
                        stack.push((s, 0));
                    }
                }
            }
            None => {
                post.push(*b);
                stack.pop();
            }
        }
    }
    post.reverse();
    post
}

/// Flatten `f` into a [`Program`]: blocks are laid out by [`layout`], block
/// ids become absolute pcs and every operand becomes a slot of the register
/// row, so the run loop fetches operands by slot without looking at
/// `Operand` or `Const`.
fn decode<'f>(f: &'f Function, args: &[KernelArg], local_offsets: &[u32]) -> Program<'f> {
    let mut template = vec![0u32; f.num_vregs() + 1];
    for (slot, a) in template.iter_mut().zip(args) {
        *slot = a.bits();
    }
    let order = layout(f);
    let mut block_pc = vec![u32::MAX; f.blocks.len()];
    let mut pc = 0u32;
    for &b in &order {
        block_pc[b] = pc;
        pc += f.blocks[b].insts.len() as u32 + 1;
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
    for block in order.iter().map(|&b| &f.blocks[b]) {
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
    }
    p.prog
}

/// Lanes per gang: a gang's lane mask is a `u64`.
const GANG: usize = 64;

/// Where a work-item stands between scheduling passes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    Ready,
    AtBarrier,
    Done,
}

/// The per-launch execution state, allocated once and reset per group:
/// one register file per gang, and a pc, step count, status and printf
/// buffer per work-item.
struct Launch<'a> {
    prog: &'a Program<'a>,
    nd: &'a NdRange,
    limit: u64,
    /// Lanes per gang: the group size, at most [`GANG`].
    width: usize,
    /// One register file per gang: `prog.template.len()` slots of `width`
    /// lanes, slot-major.
    regs: Vec<u32>,
    /// `regs` at the start of group `[0, 0, 0]` ([`initial_files`]).
    initial: Vec<u32>,
    pc: Vec<u32>,
    steps: Vec<u64>,
    status: Vec<Status>,
    /// Printf lines not yet flushed to the result.
    printf: Vec<Vec<String>>,
    local_mem: Vec<u8>,
    /// The running gang's waiting `(pc, lanes)` entries, highest pc first.
    waiting: Vec<(u32, u64)>,
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
    let width = items.map_or(0, |n| n.min(GANG));
    let words = items.and_then(|n| {
        n.div_ceil(GANG)
            .checked_mul(width)?
            .checked_mul(prog.template.len())
    });
    let (Some(items), Some(words)) = (items, words) else {
        return Err(InterpError::BadNdRange(format!(
            "work-group of {:?} items does not fit in host memory",
            nd.local
        )));
    };
    let mut launch = Launch {
        prog: &prog,
        nd,
        limit: limits.max_steps_per_item,
        width,
        regs: vec![0; words],
        initial: initial_files(&prog, nd, width, items, words),
        pc: vec![0; items],
        steps: vec![0; items],
        status: vec![Status::Ready; items],
        printf: vec![Vec::new(); items],
        local_mem: vec![0; local_total as usize],
        waiting: Vec::new(),
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

/// The `words` of gang register files at the start of group `[0, 0, 0]`:
/// the template row in every lane, each of the `items` with its own ids.
fn initial_files(prog: &Program, nd: &NdRange, w: usize, items: usize, words: usize) -> Vec<u32> {
    let file = prog.template.len() * w;
    let one_file: Vec<u32> = (0..file).map(|i| prog.template[i / w]).collect();
    let mut regs = one_file.repeat(words / file);
    for item in 0..items {
        // In group `[0, 0, 0]` an item's global id is its local id.
        let table = builtin_table(nd, [0; 3], global_id(nd, [0; 3], item));
        // The item's lane of slot 0 in its gang's file.
        let at = item / w * file + item % w;
        for &(index, slot) in &prog.builtins {
            regs[at + slot as usize * w] = table[index];
        }
    }
    regs
}

impl Launch<'_> {
    /// Run one work-group to completion: gang after gang, each until every
    /// lane parks at a barrier or returns, then release the barrier.
    fn run_group(
        &mut self,
        group: [u32; 3],
        mem: &mut Memory,
        result: &mut ExecResult,
    ) -> Result<(), InterpError> {
        self.reset(group);
        let gangs = self.status.len().div_ceil(GANG);
        loop {
            for gang in 0..gangs {
                self.run_gang(gang, group, mem, result)?;
            }
            for lines in &mut self.printf {
                result.printf_output.append(lines);
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

    /// Reset every item for `group`: one copy of the initial files, then
    /// `group * local` added to the global ids and `group` to the group ids.
    fn reset(&mut self, group: [u32; 3]) {
        self.regs.copy_from_slice(&self.initial);
        let (w, file) = (self.width, self.prog.template.len() * self.width);
        let first = builtin_table(self.nd, [0; 3], [0; 3]);
        let now = builtin_table(self.nd, group, [0; 3]);
        for &(index, slot) in &self.prog.builtins {
            let moved = now[index] - first[index];
            for regs in self.regs.chunks_exact_mut(file) {
                for id in &mut regs[slot as usize * w..][..w] {
                    *id += moved;
                }
            }
        }
        self.pc.fill(0);
        self.steps.fill(0);
        self.status.fill(Status::Ready);
        self.local_mem.fill(0);
    }

    /// Run the ready lanes of `gang` in lockstep until each parks at a
    /// barrier or returns: always the waiting entry with the lowest pc,
    /// until its next pc reaches the next waiting entry's (merge or
    /// switch), its lanes split at a branch, or it parks or returns.
    fn run_gang(
        &mut self,
        gang: usize,
        group: [u32; 3],
        mem: &mut Memory,
        result: &mut ExecResult,
    ) -> Result<(), InterpError> {
        let (w, limit) = (self.width, self.limit);
        let first = gang * w;
        let lanes = (self.status.len() - first).min(w);
        let file = self.prog.template.len() * w;
        let mut rows = Rows {
            regs: &mut self.regs[gang * file..][..file],
            w,
            full: u64::MAX >> (GANG - lanes),
        };
        let steps = &mut self.steps[first..][..lanes];
        let pcs = &mut self.pc[first..][..lanes];
        let status = &mut self.status[first..][..lanes];
        let printf = &mut self.printf[first..][..lanes];
        let local = &mut self.local_mem[..];
        let (ops, rare) = (&self.prog.ops[..], &self.prog.rare[..]);
        let waiting = &mut self.waiting;
        for lane in 0..lanes {
            if status[lane] == Status::Ready {
                wait(waiting, pcs[lane], 1 << lane);
            }
        }
        let f = f32::from_bits;
        'entries: while let Some((at, mask)) = waiting.pop() {
            let mut pc = at as usize;
            let most = each(mask).map(|l| steps[l]).max().unwrap_or(0);
            // The ops this entry may run before a lane would take step
            // `limit + 2`.
            let budget = limit.saturating_add(1).saturating_sub(most);
            let next = waiting.last().map_or(usize::MAX, |&(p, _)| p as usize);
            // Ops run so far, not yet added to the lanes' step counts.
            let mut n = 0;
            loop {
                if n == budget {
                    let lane = each(mask)
                        .find(|&l| steps[l] + n > limit)
                        .expect("the lane with the most steps is at the limit");
                    return Err(InterpError::StepLimit {
                        item: global_id(self.nd, group, first + lane),
                        limit,
                    });
                }
                n += 1;
                let op = ops[pc];
                pc += 1;
                match op.code {
                    Code::AddI => rows.map2(mask, op, u32::wrapping_add),
                    Code::SubI => rows.map2(mask, op, u32::wrapping_sub),
                    Code::MulI => rows.map2(mask, op, u32::wrapping_mul),
                    Code::And => rows.map2(mask, op, |x, y| x & y),
                    Code::Or => rows.map2(mask, op, |x, y| x | y),
                    Code::Xor => rows.map2(mask, op, |x, y| x ^ y),
                    Code::Shl => rows.map2(mask, op, |x, y| x << (y & 31)),
                    Code::ShrS => rows.map2(mask, op, |x, y| ((x as i32) >> (y & 31)) as u32),
                    Code::ShrU => rows.map2(mask, op, |x, y| x >> (y & 31)),
                    Code::AddF => rows.map2(mask, op, |x, y| (f(x) + f(y)).to_bits()),
                    Code::SubF => rows.map2(mask, op, |x, y| (f(x) - f(y)).to_bits()),
                    Code::MulF => rows.map2(mask, op, |x, y| (f(x) * f(y)).to_bits()),
                    Code::DivF => rows.map2(mask, op, |x, y| (f(x) / f(y)).to_bits()),
                    Code::Eq => rows.map2(mask, op, |x, y| (x == y) as u32),
                    Code::Ne => rows.map2(mask, op, |x, y| (x != y) as u32),
                    Code::LtS => rows.map2(mask, op, |x, y| ((x as i32) < y as i32) as u32),
                    Code::LeS => rows.map2(mask, op, |x, y| (x as i32 <= y as i32) as u32),
                    Code::LtU => rows.map2(mask, op, |x, y| (x < y) as u32),
                    Code::LeU => rows.map2(mask, op, |x, y| (x <= y) as u32),
                    Code::EqF => rows.map2(mask, op, |x, y| (f(x) == f(y)) as u32),
                    Code::NeF => rows.map2(mask, op, |x, y| (f(x) != f(y)) as u32),
                    Code::LtF => rows.map2(mask, op, |x, y| (f(x) < f(y)) as u32),
                    Code::LeF => rows.map2(mask, op, |x, y| (f(x) <= f(y)) as u32),
                    Code::Select => rows.map3(mask, op, |c, x, y| if c != 0 { x } else { y }),
                    Code::Mov => rows.map2(mask, op, |x, _| x),
                    Code::Gep => {
                        let size = op.c;
                        rows.map2(mask, op, |x, y| x.wrapping_add(y.wrapping_mul(size)))
                    }
                    Code::LoadG => {
                        result.global_loads += u64::from(mask.count_ones());
                        for l in each(mask) {
                            let v = mem.read_u32(rows.get(op.a, l))?;
                            rows.set(op.d, l, v);
                        }
                    }
                    Code::LoadL => {
                        for l in each(mask) {
                            let v = local_read(local, rows.get(op.a, l))?;
                            rows.set(op.d, l, v);
                        }
                    }
                    Code::StoreG => {
                        result.global_stores += u64::from(mask.count_ones());
                        for l in each(mask) {
                            mem.write_u32(rows.get(op.a, l), rows.get(op.b, l))?;
                        }
                    }
                    Code::StoreL => {
                        for l in each(mask) {
                            local_write(local, rows.get(op.a, l), rows.get(op.b, l))?;
                        }
                    }
                    Code::Barrier => {
                        settle(steps, mask, n);
                        for l in each(mask) {
                            status[l] = Status::AtBarrier;
                            pcs[l] = pc as u32;
                        }
                        continue 'entries;
                    }
                    Code::Ret => {
                        settle(steps, mask, n);
                        for l in each(mask) {
                            status[l] = Status::Done;
                        }
                        continue 'entries;
                    }
                    Code::Br => pc = op.a as usize,
                    Code::CondBr => {
                        let taken = rows.nonzero(op.a) & mask;
                        if taken == mask {
                            pc = op.b as usize;
                        } else if taken == 0 {
                            pc = op.c as usize;
                        } else {
                            settle(steps, mask, n);
                            wait(waiting, op.b, taken);
                            wait(waiting, op.c, mask & !taken);
                            continue 'entries;
                        }
                    }
                    Code::Rare => match &rare[op.c as usize] {
                        Rare::Bin(o, ty) => rows.map2(mask, op, |x, y| eval_bin(*o, *ty, x, y)),
                        Rare::Un(o, ty) => rows.map2(mask, op, |x, _| eval_un(*o, *ty, x)),
                        Rare::Atomic(o, ty, space) => {
                            for l in each(mask) {
                                let addr = rows.get(op.a, l);
                                let old = match space {
                                    AddressSpace::Global => mem.read_u32(addr)?,
                                    AddressSpace::Local => local_read(local, addr)?,
                                };
                                let new = eval_atomic(*o, *ty, old, rows.get(op.b, l));
                                match space {
                                    AddressSpace::Global => mem.write_u32(addr, new)?,
                                    AddressSpace::Local => local_write(local, addr, new)?,
                                }
                                rows.set(op.d, l, old);
                            }
                        }
                        Rare::Printf(fmt, args) => {
                            for l in each(mask) {
                                printf[l].push(format_printf(fmt, args, |slot| rows.get(slot, l)));
                            }
                        }
                    },
                }
                if pc >= next {
                    settle(steps, mask, n);
                    wait(waiting, pc as u32, mask);
                    continue 'entries;
                }
            }
        }
        Ok(())
    }
}

/// Global id of the `item`-th work-item (lz/ly/lx order) of `group`.
fn global_id(nd: &NdRange, group: [u32; 3], item: usize) -> [u32; 3] {
    let [lx, ly, _] = nd.local;
    let item = item as u32;
    let lid = [item % lx, item / lx % ly, item / (lx * ly)];
    [0, 1, 2].map(|d| group[d] * nd.local[d] + lid[d])
}

/// The lanes of `mask`, lowest first.
fn each(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

/// Add `n` steps to each lane of `mask`.
fn settle(steps: &mut [u64], mask: u64, n: u64) {
    for l in each(mask) {
        steps[l] += n;
    }
}

/// Put `lanes` in the pc-sorted waiting list at `pc`, merged into the
/// entry already there if there is one.
fn wait(waiting: &mut Vec<(u32, u64)>, pc: u32, lanes: u64) {
    match waiting.iter().position(|&(p, _)| p <= pc) {
        Some(i) if waiting[i].0 == pc => waiting[i].1 |= lanes,
        Some(i) => waiting.insert(i, (pc, lanes)),
        None => waiting.push((pc, lanes)),
    }
}

/// One gang's register file: `w` lanes per slot, slot-major.
struct Rows<'r> {
    regs: &'r mut [u32],
    w: usize,
    /// Every lane the gang has.
    full: u64,
}

impl Rows<'_> {
    #[inline(always)]
    fn get(&self, slot: u32, lane: usize) -> u32 {
        self.regs[slot as usize * self.w + lane]
    }

    #[inline(always)]
    fn set(&mut self, slot: u32, lane: usize, v: u32) {
        self.regs[slot as usize * self.w + lane] = v;
    }

    /// The `w` lanes of slot `slot`.
    #[inline(always)]
    fn row(regs: &[u32], w: usize, slot: u32) -> &[u32] {
        &regs[slot as usize * w..][..w]
    }

    /// The lanes whose slot `a` is non-zero.
    #[inline(always)]
    fn nonzero(&self, a: u32) -> u64 {
        let row = Self::row(self.regs, self.w, a);
        row.iter()
            .enumerate()
            .fold(0, |m, (l, &v)| m | u64::from(v != 0) << l)
    }

    /// Row `d` to write, borrowed disjointly from a lookup of every other
    /// row to read.
    #[inline(always)]
    fn split<'s>(&'s mut self, d: u32) -> (&'s mut [u32], impl Fn(u32) -> &'s [u32]) {
        let w = self.w;
        let (lo, rest) = self.regs.split_at_mut(d as usize * w);
        let (dst, hi) = rest.split_at_mut(w);
        let (lo, hi) = (&*lo, &*hi);
        let src = move |s: u32| match s.checked_sub(d + 1) {
            Some(above) => Self::row(hi, w, above),
            None => Self::row(lo, w, s),
        };
        (dst, src)
    }

    /// `d = f(a, b)` on every lane of `mask` (a one-operand op ignores `b`,
    /// which decodes as slot 0): with every lane and no source `d`, one
    /// slice loop straight into row `d`, else lane by lane.
    #[inline(always)]
    fn map2(&mut self, mask: u64, op: DOp, f: impl Fn(u32, u32) -> u32) {
        if mask == self.full && ![op.a, op.b].contains(&op.d) {
            let (dst, src) = self.split(op.d);
            for ((o, &x), &y) in dst.iter_mut().zip(src(op.a)).zip(src(op.b)) {
                *o = f(x, y);
            }
            return;
        }
        for l in each(mask) {
            self.set(op.d, l, f(self.get(op.a, l), self.get(op.b, l)));
        }
    }

    /// `d = f(a, b, c)` on every lane of `mask`, as [`Rows::map2`].
    #[inline(always)]
    fn map3(&mut self, mask: u64, op: DOp, f: impl Fn(u32, u32, u32) -> u32) {
        if mask == self.full && ![op.a, op.b, op.c].contains(&op.d) {
            let (dst, src) = self.split(op.d);
            let (x, y, z) = (src(op.a), src(op.b), src(op.c));
            for (((o, &x), &y), &z) in dst.iter_mut().zip(x).zip(y).zip(z) {
                *o = f(x, y, z);
            }
            return;
        }
        for l in each(mask) {
            let v = f(self.get(op.a, l), self.get(op.b, l), self.get(op.c, l));
            self.set(op.d, l, v);
        }
    }
}

/// Expand the `{}` placeholders of a device printf; `value` reads a slot
/// of the printing item.
fn format_printf(fmt: &str, args: &[(u32, crate::Scalar)], value: impl Fn(u32) -> u32) -> String {
    let mut out = String::with_capacity(fmt.len() + 8);
    let mut vals = args.iter();
    let mut chars = fmt.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '{' && chars.peek() == Some(&'}') {
            chars.next();
            match vals.next() {
                Some(&(slot, t)) => {
                    let bits = value(slot);
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

    /// Tree reduction of each work-group's `n` inputs through local
    /// memory: `out[group] = sum`, one barrier per halving.
    fn reduce_kernel(n: u32) -> Function {
        let mut b = FunctionBuilder::new("reduce", vec![gptr("in"), gptr("out")]);
        let tile = b.local_array("tile", Scalar::F32, n);
        let lid = b.workitem(Builtin::LocalId(0));
        let gid = b.workitem(Builtin::GlobalId(0));
        let base = b.local_addr(tile);
        let pin = b.gep(
            Operand::Reg(b.param(0)),
            gid.into(),
            4,
            AddressSpace::Global,
        );
        let v = b.load(pin.into(), Scalar::F32, AddressSpace::Global);
        let pl = b.gep(base.into(), lid.into(), 4, AddressSpace::Local);
        b.store(pl.into(), v.into(), Scalar::F32, AddressSpace::Local);
        b.barrier();
        // stride loop: s = n / 2, ..., 2, 1
        let s = b.mov(Scalar::U32, Operand::imm_u32(n / 2));
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
        let group = b.workitem(Builtin::GroupId(0));
        let pout = b.gep(
            Operand::Reg(b.param(1)),
            group.into(),
            4,
            AddressSpace::Global,
        );
        b.store(pout.into(), r.into(), Scalar::F32, AddressSpace::Global);
        b.br(done);
        b.switch_to(done);
        b.ret();
        let f = b.finish();
        crate::verify::verify_function(&f).unwrap();
        f
    }

    #[test]
    fn barrier_reduction_in_local_memory() {
        // 8 items: one gang; 128: two gangs, both reading the other's
        // partial sums across each barrier.
        for n in [8u32, 128] {
            let f = reduce_kernel(n);
            let mut mem = Memory::new(16 * n);
            let input: Vec<f32> = (1..=2 * n).map(|i| i as f32).collect();
            let pin = mem.alloc_f32(&input);
            let pout = mem.alloc(8);
            run_ndrange(
                &f,
                &[KernelArg::Ptr(pin), KernelArg::Ptr(pout)],
                &NdRange::d1(2 * n, n),
                &mut mem,
                &Limits::default(),
            )
            .unwrap();
            let sum = |r: std::ops::RangeInclusive<u32>| r.sum::<u32>() as f32;
            let want = [sum(1..=n), sum(n + 1..=2 * n)];
            assert_eq!(mem.read_f32_slice(pout, 2), want, "{n} items per group");
        }
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
        // Items with lid < k hit a barrier; the rest return immediately.
        // With 128 items the parked ones span both gangs.
        for (n, k) in [(4u32, 2u32), (128, 70)] {
            let mut b = FunctionBuilder::new("divbar", vec![]);
            let lid = b.workitem(Builtin::LocalId(0));
            let c = b.cmp(CmpOp::Lt, Scalar::U32, lid.into(), Operand::imm_u32(k));
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
            let e =
                run_ndrange(&f, &[], &NdRange::d1(n, n), &mut mem, &Limits::default()).unwrap_err();
            assert_eq!(
                e,
                InterpError::BarrierDivergence {
                    group: [0, 0, 0],
                    done: n - k,
                    waiting: (0..k).collect(),
                }
            );
            let repro: repro_util::diag::ReproError = e.into();
            assert_eq!(repro.kind(), "DivergenceDeadlock");
            assert_eq!(repro.class(), repro_util::diag::FailureClass::Deadlock);
        }
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
        let repro: repro_util::diag::ReproError = e.into();
        assert_eq!(repro.class(), repro_util::diag::FailureClass::Memory);
    }

    #[test]
    fn allocation_exhaustion_is_an_error() {
        let mut mem = Memory::new(64);
        mem.try_alloc(48).unwrap();
        let e = mem.try_alloc(64).unwrap_err();
        assert!(matches!(e, InterpError::OutOfMemory { requested: 64, .. }));
        // Overflowing sizes are exhaustion too, not a panic.
        assert!(mem.try_alloc(u32::MAX).is_err());
        let repro: repro_util::diag::ReproError = e.into();
        assert_eq!(repro.class(), repro_util::diag::FailureClass::Memory);
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
    fn printf_around_a_barrier_comes_out_in_item_order() {
        // "a lid", then "odd lid" on odd items only, a barrier, "b gid":
        // each group's items print up to the barrier one item after the
        // other, then past it, whatever the gangs interleave.
        let mut b = FunctionBuilder::new("p", vec![]);
        let lid = b.workitem(Builtin::LocalId(0));
        let gid = b.workitem(Builtin::GlobalId(0));
        b.printf("a {}", vec![(Operand::Reg(lid), Scalar::U32)]);
        let odd = b.bin(BinOp::And, Scalar::U32, lid.into(), Operand::imm_u32(1));
        let (then_bb, join) = (b.new_block(), b.new_block());
        b.cond_br(odd.into(), then_bb, join);
        b.switch_to(then_bb);
        b.printf("odd {}", vec![(Operand::Reg(lid), Scalar::U32)]);
        b.br(join);
        b.switch_to(join);
        b.barrier();
        b.printf("b {}", vec![(Operand::Reg(gid), Scalar::U32)]);
        b.ret();
        let f = b.finish();
        let mut mem = Memory::new(64);
        let r = run_ndrange(
            &f,
            &[],
            &NdRange::d1(256, 128),
            &mut mem,
            &Limits::default(),
        )
        .unwrap();
        let mut want = Vec::new();
        for group in 0..2 {
            for lid in 0..128 {
                want.push(format!("a {lid}"));
                if lid % 2 == 1 {
                    want.push(format!("odd {lid}"));
                }
            }
            want.extend((0..128).map(|lid| format!("b {}", group * 128 + lid)));
        }
        assert_eq!(r.printf_output, want);
    }

    /// `out[gid] = acc` after `in[gid] % 7` trips of a loop whose body
    /// branches on the trip's parity and, on odd trips, again on the item.
    fn nested_divergence_kernel() -> Function {
        let mut b = FunctionBuilder::new("nest", vec![gptr("in"), gptr("out")]);
        let gid = b.workitem(Builtin::GlobalId(0));
        let pin = b.gep(
            Operand::Reg(b.param(0)),
            gid.into(),
            4,
            AddressSpace::Global,
        );
        let v = b.load(pin.into(), Scalar::U32, AddressSpace::Global);
        let trips = b.bin(BinOp::Rem, Scalar::U32, v.into(), Operand::imm_u32(7));
        let j = b.mov(Scalar::U32, Operand::imm_u32(0));
        let acc = b.mov(Scalar::U32, Operand::imm_u32(0));
        let [head, body, odd, even, mine, theirs, latch, exit] = [(); 8].map(|_| b.new_block());
        b.br(head);
        b.switch_to(head);
        let more = b.cmp(CmpOp::Lt, Scalar::U32, j.into(), trips.into());
        b.cond_br(more.into(), body, exit);
        b.switch_to(body);
        let parity = b.bin(BinOp::And, Scalar::U32, j.into(), Operand::imm_u32(1));
        b.cond_br(parity.into(), odd, even);
        b.switch_to(odd);
        let bit = b.bin(BinOp::And, Scalar::U32, gid.into(), Operand::imm_u32(2));
        b.cond_br(bit.into(), mine, theirs);
        b.switch_to(mine);
        let t = b.bin(BinOp::Mul, Scalar::U32, j.into(), Operand::imm_u32(3));
        let t = b.bin(BinOp::Add, Scalar::U32, acc.into(), t.into());
        b.assign(acc, Scalar::U32, t.into());
        b.br(latch);
        b.switch_to(theirs);
        let t = b.bin(BinOp::Xor, Scalar::U32, acc.into(), j.into());
        b.assign(acc, Scalar::U32, t.into());
        b.br(latch);
        b.switch_to(even);
        let t = b.bin(BinOp::Add, Scalar::U32, acc.into(), Operand::imm_u32(1));
        b.assign(acc, Scalar::U32, t.into());
        b.br(latch);
        b.switch_to(latch);
        let t = b.bin(BinOp::Add, Scalar::U32, j.into(), Operand::imm_u32(1));
        b.assign(j, Scalar::U32, t.into());
        b.br(head);
        b.switch_to(exit);
        let pout = b.gep(
            Operand::Reg(b.param(1)),
            gid.into(),
            4,
            AddressSpace::Global,
        );
        b.store(pout.into(), acc.into(), Scalar::U32, AddressSpace::Global);
        b.ret();
        b.finish()
    }

    #[test]
    fn divergent_trip_counts_match_items_run_alone() {
        let f = nested_divergence_kernel();
        let input: Vec<u32> = (0..256u32)
            .map(|i| i.wrapping_mul(2654435761) >> 7)
            .collect();
        let want: Vec<u32> = (0..256u32)
            .map(|gid| {
                (0..input[gid as usize] % 7).fold(0, |acc, j| match (j & 1, gid & 2) {
                    (0, _) => acc + 1,
                    (_, 0) => acc ^ j,
                    _ => acc + 3 * j,
                })
            })
            .collect();
        let run = |local: u32| {
            let mut mem = Memory::new(2048);
            let pin = mem.alloc_u32(&input);
            let pout = mem.alloc(1024);
            let args = [KernelArg::Ptr(pin), KernelArg::Ptr(pout)];
            let nd = NdRange::d1(256, local);
            let r = run_ndrange(&f, &args, &nd, &mut mem, &Limits::default()).unwrap();
            assert_eq!(mem.read_u32_slice(pout, 256), want, "local size {local}");
            (r.steps, r.global_loads, r.global_stores)
        };
        // A group of one item is a gang of one lane: nothing to diverge.
        let alone = run(1);
        for local in [16, 64, 128, 256] {
            assert_eq!(run(local), alone, "local size {local}");
        }
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

    /// What an item's destination holds before the op when it is a fresh
    /// register.
    const BEFORE: u32 = 0x5eed_c0de;

    /// Run `r = make(x, y)` on one work-group of `pairs.len()` items, item
    /// `i`'s registers holding `pairs[i]` and the constants placed per
    /// `shape` holding `pairs[0]`; with `skip_odd` the odd items branch
    /// around the op and must keep the value `r` held before. Returns each
    /// even (or every) item's stored `r` and the operand words its op saw
    /// (a `Bool` constant holds only 0 or 1, a register any word).
    fn run_op(
        shape: Shape,
        ty: Scalar,
        pairs: &[(u32, u32)],
        skip_odd: bool,
        make: impl Fn(Operand, Operand) -> Op,
    ) -> Vec<(u32, u32, u32)> {
        let (x, y) = pairs[0];
        let mut b = FunctionBuilder::new("one_op", vec![gptr("out"), gptr("x"), gptr("y")]);
        let gid = b.workitem(Builtin::GlobalId(0));
        let [rx, ry] = [1, 2].map(|i| {
            let p = b.gep(b.param(i).into(), gid.into(), 4, AddressSpace::Global);
            b.load(p.into(), ty, AddressSpace::Global)
        });
        let (a, c, dst) = place(shape, ty, (rx, ry), (x, y));
        let r = dst.unwrap_or_else(|| b.mov(Scalar::U32, Operand::imm_u32(BEFORE)));
        let join = b.new_block();
        if skip_odd {
            let odd = b.bin(BinOp::And, Scalar::U32, gid.into(), Operand::imm_u32(1));
            let run = b.new_block();
            b.cond_br(odd.into(), join, run);
            b.switch_to(run);
        }
        b.push_into(r, make(a, c));
        b.br(join);
        b.switch_to(join);
        let p = b.gep(b.param(0).into(), gid.into(), 4, AddressSpace::Global);
        b.store(p.into(), r.into(), Scalar::U32, AddressSpace::Global);
        b.ret();
        let f = b.finish();
        let n = pairs.len();
        // Three buffers of `n` words, each rounded up to the allocator's 16.
        let mut mem = Memory::new(16 * (n as u32 + 3));
        let out = mem.alloc(4 * n as u32);
        let xs: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<u32> = pairs.iter().map(|p| p.1).collect();
        let args = [out, mem.alloc_u32(&xs), mem.alloc_u32(&ys)].map(KernelArg::Ptr);
        let nd = NdRange::d1(n as u32, n as u32);
        run_ndrange(&f, &args, &nd, &mut mem, &Limits::default()).unwrap();
        let got = mem.read_u32_slice(out, n);
        let seen = |o: Operand, raw: u32| o.as_const().map_or(raw, |k| k.bits());
        let mut ran = Vec::with_capacity(n);
        for (i, (&got, &(x, y))) in got.iter().zip(pairs).enumerate() {
            if skip_odd && i % 2 == 1 {
                let before = match dst {
                    None => BEFORE,
                    Some(d) if d == rx => x,
                    Some(_) => y,
                };
                assert_eq!(got, before, "{shape:?} {ty:?}: item {i} skipped the op");
            } else {
                ran.push((got, seen(a, x), seen(c, y)));
            }
        }
        ran
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

    /// Every pure operation of `ty` with its operands placed per `shape`,
    /// run by `run` (which returns each item's stored result and the
    /// operand words it saw, as [`run_op`]), held to `eval_*`.
    fn check_pure_ops(
        shape: Shape,
        ty: Scalar,
        run: impl Fn(&dyn Fn(Operand, Operand) -> Op) -> Vec<(u32, u32, u32)>,
    ) {
        for op in BIN_OPS {
            for (got, xs, ys) in run(&|a, b| Op::Bin { op, ty, a, b }) {
                assert_same(got, eval_bin(op, ty, xs, ys), ty == Scalar::F32, || {
                    format!("{op:?} {ty:?} {shape:?} {xs:#x} {ys:#x}")
                });
            }
        }
        for op in CMP_OPS {
            for (got, xs, ys) in run(&|a, b| Op::Cmp { op, ty, a, b }) {
                let want = eval_cmp(op, ty, xs, ys) as u32;
                assert_eq!(got, want, "{op:?} {ty:?} {shape:?} {xs:#x} {ys:#x}");
            }
        }
        let space = AddressSpace::Global;
        let gep = |base, index| Op::Gep {
            base,
            index,
            elem_bytes: 12,
            space,
        };
        for (got, xs, ys) in run(&gep) {
            let want = xs.wrapping_add(ys.wrapping_mul(12));
            assert_eq!(got, want, "gep {shape:?} {xs:#x} {ys:#x}");
        }
        if !matches!(shape, Shape::RegReg | Shape::ConstConst | Shape::DstIsA) {
            return;
        }
        for op in UN_OPS {
            for (got, xs, _) in run(&|a, _| Op::Un { op, ty, a }) {
                assert_same(got, eval_un(op, ty, xs), true, || {
                    format!("{op:?} {ty:?} {shape:?} {xs:#x}")
                });
            }
        }
        for (got, xs, _) in run(&|a, _| Op::Mov { ty, a }) {
            assert_eq!(got, xs, "mov {shape:?}");
        }
        let select = |a, b| Op::Select {
            ty,
            cond: a,
            a: b,
            b: a,
        };
        for (got, xs, ys) in run(&select) {
            assert_eq!(got, if xs != 0 { ys } else { xs }, "select {shape:?}");
        }
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
                    check_pure_ops(shape, ty, |make| run_op(shape, ty, &[(x, y)], false, make));
                }
            }
        }
    }

    #[test]
    fn pure_opcodes_match_eval_on_every_lane_with_all_or_half_the_lanes() {
        // One gang of 16 and one of 64 lanes; with every lane, the result
        // is written as one row unless the destination is a source, and
        // with the odd lanes branched around the op, lane by lane.
        let vals = edge_values();
        let n = vals.len();
        for items in [16, 64] {
            for k in [0, 8, 16] {
                let pairs: Vec<(u32, u32)> = (0..items)
                    .map(|i| (vals[(i + k) % n], vals[(3 * i + 2 * k + 1) % n]))
                    .collect();
                for ty in SCALARS {
                    for shape in SHAPES {
                        for skip_odd in [false, true] {
                            check_pure_ops(shape, ty, |make| {
                                run_op(shape, ty, &pairs, skip_odd, make)
                            });
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn no_register_state_crosses_a_work_group() {
        // if gid % 3 == 0 { v = gid + 1 }; out[gid] = v, over three groups
        // of 128 items (two gangs each). No other path writes `v`, so an
        // item that skips the write stores the template's 0, whatever its
        // lane stored in the group before (128 % 3 != 0: the writing lanes
        // differ from group to group).
        let mut b = FunctionBuilder::new("stale", vec![gptr("out")]);
        let gid = b.workitem(Builtin::GlobalId(0));
        let v = b.fresh(Scalar::U32);
        let third = b.bin(BinOp::Rem, Scalar::U32, gid.into(), Operand::imm_u32(3));
        let hit = b.cmp(CmpOp::Eq, Scalar::U32, third.into(), Operand::imm_u32(0));
        let (write, join) = (b.new_block(), b.new_block());
        b.cond_br(hit.into(), write, join);
        b.switch_to(write);
        let op = Op::Bin {
            op: BinOp::Add,
            ty: Scalar::U32,
            a: gid.into(),
            b: Operand::imm_u32(1),
        };
        b.push_into(v, op);
        b.br(join);
        b.switch_to(join);
        let p = b.gep(b.param(0).into(), gid.into(), 4, AddressSpace::Global);
        b.store(p.into(), v.into(), Scalar::U32, AddressSpace::Global);
        b.ret();
        let f = b.finish();
        let mut mem = Memory::new(4 * 384);
        let out = mem.alloc(4 * 384);
        let nd = NdRange::d1(384, 128);
        run_ndrange(
            &f,
            &[KernelArg::Ptr(out)],
            &nd,
            &mut mem,
            &Limits::default(),
        )
        .unwrap();
        let want: Vec<u32> = (0..384)
            .map(|g| if g % 3 == 0 { g + 1 } else { 0 })
            .collect();
        assert_eq!(mem.read_u32_slice(out, 384), want);
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
        let run = |nd: NdRange, limit: u64| {
            let n = nd.total_items() as u32;
            let mut mem = Memory::new(4 * n);
            let out = mem.alloc(4 * n);
            let limits = Limits {
                max_steps_per_item: limit,
            };
            let r = run_ndrange(&f, &[KernelArg::Ptr(out)], &nd, &mut mem, &limits);
            (r, mem.read_u32_slice(out, n as usize))
        };
        // 4 x 4 in 2 x 2 groups: the item at (3, 2) takes the detour.
        let nd = NdRange::d2(4, 4, 2, 2);
        let (r, out) = run(nd, long_steps - 1);
        assert_eq!(r.unwrap().steps, 15 * (long_steps - 3) + long_steps);
        assert_eq!(out, vec![7; 16]);
        let (r, out) = run(nd, long_steps - 2);
        assert_eq!(
            r.unwrap_err(),
            InterpError::StepLimit {
                item: [3, 2, 0],
                limit: long_steps - 2
            }
        );
        // Groups run in x-then-y order, so (3, 2) is in the last group; its
        // four items run as one gang, and each had stored before (3, 2)
        // left them for its detour.
        assert_eq!(out, vec![7; 16]);
        // One group of 128 items, two gangs: item 11 of gang 0 takes the
        // detour and fails, so gang 1 never ran.
        let nd = NdRange::d1(128, 128);
        let (r, out) = run(nd, long_steps - 1);
        assert_eq!(r.unwrap().steps, 127 * (long_steps - 3) + long_steps);
        assert_eq!(out, vec![7; 128]);
        let (r, out) = run(nd, long_steps - 2);
        assert_eq!(
            r.unwrap_err(),
            InterpError::StepLimit {
                item: [11, 0, 0],
                limit: long_steps - 2
            }
        );
        let mut want = vec![7; 64];
        want.resize(128, 0);
        assert_eq!(out, want);
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
            // One full gang, and two gangs of 3-D items.
            NdRange {
                global: [8, 4, 8],
                local: [4, 4, 4],
            },
            NdRange {
                global: [8, 8, 4],
                local: [8, 4, 4],
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
