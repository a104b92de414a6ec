//! `vortex-isa` — the soft-GPU instruction set.
//!
//! An RV32IMF subset extended with the Vortex SIMT instructions the paper
//! describes in §II-D: **TMC** (set thread mask), **WSPAWN** (activate
//! warps), **SPLIT**/**JOIN** (divergent branch / reconvergence point) and
//! **PRED** (divergent loop exit), plus **BAR** (work-group barrier) and the
//! RV32A atomics the discussion section calls out as a soft-GPU software
//! stack challenge. [`encode::OPS`] lists every encodable operation once;
//! the encoder, decoder and disassembler are derived from it.
//!
//! Deviations from the real Vortex encoding, chosen for clarity and
//! documented here:
//! * The program counter counts *instructions*, not bytes.
//! * `SPLIT`, `JOIN` and `PRED` carry their control-flow targets as
//!   immediate offsets instead of relying on a following branch; this makes
//!   the IPDOM-stack semantics explicit and testable in isolation.
//! * Device-side printf is a `PRINT` instruction reading a per-thread
//!   argument buffer, standing in for Vortex's console MMIO protocol.

pub mod asm;
pub mod disasm;
pub mod encode;
pub mod layout;

pub use asm::{Asm, Label};

/// An architectural register index (x0..x31 or f0..f31 depending on
/// context). x0 is hard-wired to zero.
pub type Reg = u8;

/// Number of integer (and of float) registers.
pub const NUM_REGS: usize = 32;

/// Integer ALU operations (covers OP and OP-IMM forms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    Add,
    Sub,
    Sll,
    Slt,
    Sltu,
    Xor,
    Srl,
    Sra,
    Or,
    And,
}

/// M-extension operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MulOp {
    Mul,
    Mulh,
    Mulhu,
    Div,
    Divu,
    Rem,
    Remu,
}

/// Branch conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    Eq,
    Ne,
    Lt,
    Ge,
    Ltu,
    Geu,
}

/// Single-precision FP register-register operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpOp {
    Add,
    Sub,
    Mul,
    Div,
    Min,
    Max,
    /// Sign injection (used for fneg/fabs synthesis and fmv).
    Sgnj,
    SgnjN,
    SgnjX,
}

/// Single-operand FP operations; `Sqrt` is standard RV32F, the rest model
/// the SFU the Vortex software stack otherwise provides via libm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpUnOp {
    Sqrt,
    Exp,
    Log,
    Sin,
    Cos,
    Floor,
}

/// FP compare operations (integer destination).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpCmpOp {
    Eq,
    Lt,
    Le,
}

/// FP <-> integer conversions and moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CvtOp {
    /// fcvt.w.s: float reg -> signed int reg (round toward zero, saturating).
    F2I,
    /// fcvt.wu.s.
    F2U,
    /// fcvt.s.w: signed int reg -> float reg.
    I2F,
    /// fcvt.s.wu.
    U2F,
    /// fmv.x.w: raw bits float -> int.
    MvF2X,
    /// fmv.w.x: raw bits int -> float.
    MvX2F,
}

/// RV32A atomic memory operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AmoOp {
    Add,
    Swap,
    And,
    Or,
    Xor,
    Min,
    Max,
    Minu,
    Maxu,
}

/// CSRs exposed to kernels (matching Vortex's `VX_CSR_*` set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Csr {
    /// Lane (thread) id within the warp.
    ThreadId,
    /// Warp id within the core.
    WarpId,
    /// Core id.
    CoreId,
    /// Threads per warp.
    NumThreads,
    /// Warps per core.
    NumWarps,
    /// Number of cores.
    NumCores,
    /// Current thread mask.
    Tmask,
}

/// One machine instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// rd = imm << 12.
    Lui { rd: Reg, imm: i32 },
    /// rd = rs1 op imm (Sub is not a valid OP-IMM form).
    OpImm {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    /// rd = rs1 op rs2.
    Op {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// rd = rs1 op rs2 (M extension).
    MulDiv {
        op: MulOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// rd = mem32[rs1 + imm].
    Lw { rd: Reg, rs1: Reg, imm: i32 },
    /// mem32[rs1 + imm] = rs2.
    Sw { rs1: Reg, rs2: Reg, imm: i32 },
    /// if (rs1 cond rs2) pc += offset (instruction units).
    Branch {
        cond: BranchCond,
        rs1: Reg,
        rs2: Reg,
        offset: i32,
    },
    /// rd = pc + 1; pc += offset.
    Jal { rd: Reg, offset: i32 },
    /// rd = pc + 1; pc = rs1 + imm.
    Jalr { rd: Reg, rs1: Reg, imm: i32 },
    /// frd = mem32[rs1 + imm].
    Flw { rd: Reg, rs1: Reg, imm: i32 },
    /// mem32[rs1 + imm] = frs2.
    Fsw { rs1: Reg, rs2: Reg, imm: i32 },
    /// frd = frs1 op frs2.
    FpOp {
        op: FpOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// frd = op(frs1).
    FpUn { op: FpUnOp, rd: Reg, rs1: Reg },
    /// rd = frs1 cmp frs2.
    FpCmp {
        op: FpCmpOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Conversions / moves between the register files.
    FpCvt { op: CvtOp, rd: Reg, rs1: Reg },
    /// `rd = old mem32[rs1]; mem32[rs1] = old op rs2`.
    Amo {
        op: AmoOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// rd = csr.
    CsrRead { rd: Reg, csr: Csr },
    // ---- Vortex SIMT extension ----
    /// Set the warp's thread mask from the low bits of rs1 (thread 0's
    /// value). `tmc 0` halts the warp.
    Tmc { rs1: Reg },
    /// Activate warps 1..rs1 of this core, starting at pc = rs2.
    Wspawn { rs1: Reg, rs2: Reg },
    /// Divergent branch on per-thread predicate rs1 (see `vortex-sim` for
    /// the IPDOM semantics). `else_off` is relative to this instruction.
    Split { rs1: Reg, else_off: i32 },
    /// Reconvergence point; `off` is the join target relative to this
    /// instruction.
    Join { off: i32 },
    /// Divergent loop guard: threads failing rs1 are masked off; when none
    /// remain the mask is restored from rs2 and control jumps to exit_off.
    Pred { rs1: Reg, rs2: Reg, exit_off: i32 },
    /// Work-group barrier: id rs1, warp count rs2.
    Bar { rs1: Reg, rs2: Reg },
    /// Device printf: format-table entry `fmt`, arguments in the calling
    /// thread's console buffer.
    Print { fmt: u16 },
    /// Stop the whole kernel once every warp has halted (emitted by the
    /// runtime stub, not user code).
    Halt,
}

/// Printf argument kinds recorded in the program's format table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrintArg {
    I32,
    U32,
    F32,
}

/// A printf format-table entry.
#[derive(Debug, Clone, PartialEq)]
pub struct PrintfFmt {
    pub fmt: String,
    pub args: Vec<PrintArg>,
}

/// A complete kernel binary: instructions plus metadata.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    pub instrs: Vec<Instr>,
    pub printf_table: Vec<PrintfFmt>,
    /// Entry point for spawned warps (instruction index).
    pub entry: u32,
}

impl Program {
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

/// Commonly used ABI register names.
pub mod abi {
    use super::Reg;
    /// Hard-wired zero.
    pub const ZERO: Reg = 0;
    /// Return address (used by the startup stub).
    pub const RA: Reg = 1;
    /// Stack pointer.
    pub const SP: Reg = 2;
    /// Scratch registers reserved for the code generator's internal
    /// sequences (mask save/restore, address materialization, spills).
    pub const T0: Reg = 5;
    pub const T1: Reg = 6;
    pub const T2: Reg = 7;
    /// First register available to the register allocator.
    pub const ALLOC_FIRST: Reg = 8;
    /// Last allocatable register.
    pub const ALLOC_LAST: Reg = 31;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_basics() {
        let mut p = Program::default();
        assert!(p.is_empty());
        p.instrs.push(Instr::Halt);
        assert_eq!(p.len(), 1);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn abi_registers_disjoint() {
        assert!(abi::ALLOC_FIRST > abi::T2);
        assert!(abi::T0 > abi::SP);
    }
}
