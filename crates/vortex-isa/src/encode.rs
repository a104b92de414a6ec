//! The instruction set, written down once.
//!
//! [`OPS`] has one row per encodable operation: its mnemonic, its [`Form`]
//! (where the immediate sits and how assembly writes the operands), the bits
//! the operation fixes and their mask, the register class of the `rd`, `rs1`
//! and `rs2` fields, and whether it goes through the LSU or can redirect the
//! warp. Everything else is derived from the table: [`encode`], [`decode`]
//! (its exact inverse), the disassembler (`Display` for [`Instr`]), and the
//! simulator's scoreboard indices, LSU flag and run-ending flag.
//!
//! Words use RISC-V-style formats, and the Vortex SIMT extension uses the
//! custom opcode 0x6B like the real hardware. The words are the kernel
//! binary (the "Kernel binary" box of the paper's Figure 2) and the compile
//! cache's stored form of a program; the simulator executes [`Instr`]
//! values.

use crate::*;

/// Which register file an operand field names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegClass {
    /// Not an operand: the field is fixed bits or part of the immediate.
    None,
    /// Integer register `x0..x31`.
    X,
    /// Float register `f0..f31`.
    F,
}

/// Where an operation's immediate sits in the word, and how assembly writes
/// its operands (absent registers are left out).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Form {
    /// No immediate: `op rd, rs1, rs2`.
    R,
    /// No immediate: `op rd, rs2, (rs1)`.
    Amo,
    /// No immediate, the CSR address is fixed bits: `csrr rd, Csr`.
    Csr,
    /// 12-bit signed at bit 20: `op rd, rs1, imm`.
    I,
    /// 5-bit unsigned at bit 20: `op rd, rs1, shamt`.
    Shamt,
    /// 12-bit signed at bit 20: `op rd, imm(rs1)`.
    Load,
    /// 12-bit signed, bits 4:0 at bit 7 and 11:5 at bit 25:
    /// `op rs2, imm(rs1)`.
    Store,
    /// Store's immediate as an instruction offset: `op rs1, rs2, +off`.
    B,
    /// 20-bit unsigned at bit 12: `op rd, 0xhex`.
    U,
    /// 20-bit signed instruction offset at bit 12: `op rd, +off`.
    J,
    /// 10-bit unsigned at bit 15, over the rs1 and rs2 fields: `op #imm`.
    Print,
}

impl Form {
    /// The immediate field: first bit, width and signedness.
    const fn imm(self) -> (u32, u32, bool) {
        match self {
            Form::R | Form::Amo | Form::Csr => (0, 0, false),
            Form::I | Form::Load => (20, 12, true),
            Form::Shamt => (20, 5, false),
            Form::Store | Form::B => (7, 12, true),
            Form::U => (12, 20, false),
            Form::J => (12, 20, true),
            Form::Print => (15, 10, false),
        }
    }

    /// Place the low bits of `v` in the immediate field.
    const fn place(self, v: u32) -> u32 {
        let (at, width, _) = self.imm();
        let v = v & ((1 << width) - 1);
        match self {
            Form::Store | Form::B => ((v & 31) << 7) | ((v >> 5) << 25),
            _ => v << at,
        }
    }

    /// The immediate field holding `imm`, or `None` if `imm` does not fit.
    fn pack(self, imm: i32) -> Option<u32> {
        let (_, width, signed) = self.imm();
        let range = if signed {
            -(1 << (width - 1))..1 << (width - 1)
        } else {
            0..1 << width
        };
        range.contains(&imm).then(|| self.place(imm as u32))
    }

    /// The immediate held in `w`.
    fn unpack(self, w: u32) -> i32 {
        let (at, width, signed) = self.imm();
        let raw = match self {
            Form::Store | Form::B => ((w >> 7) & 31) | ((w >> 25) << 5),
            _ => (w >> at) & ((1 << width) - 1),
        };
        if signed {
            ((raw << (32 - width)) as i32) >> (32 - width)
        } else {
            raw as i32
        }
    }
}

/// One encodable operation: a row of [`OPS`].
#[derive(Debug, Clone, Copy)]
pub struct OpSpec {
    /// Assembly mnemonic.
    pub name: &'static str,
    pub form: Form,
    /// The bits the operation fixes: every bit outside its operand fields.
    pub mask: u32,
    /// The value of the bits under `mask`.
    pub bits: u32,
    /// Register class of the `rd` field (bits 11:7).
    pub rd: RegClass,
    /// Register class of the `rs1` field (bits 19:15).
    pub rs1: RegClass,
    /// Register class of the `rs2` field (bits 24:20).
    pub rs2: RegClass,
    /// Goes through the LSU (needs an MSHR, can stall on memory).
    pub mem: bool,
    /// Can redirect the PC, change the thread mask, park the warp or
    /// print, so it ends a straight-line run.
    pub ctrl: bool,
    /// The operation with every operand zero.
    proto: Instr,
}

/// The operand fields of one instruction. A field the operation does not
/// use is zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fields {
    pub rd: Reg,
    pub rs1: Reg,
    pub rs2: Reg,
    pub imm: i32,
}

const fn fields(rd: Reg, rs1: Reg, rs2: Reg, imm: i32) -> Fields {
    Fields { rd, rs1, rs2, imm }
}

const MEM: u8 = 1;
const CTRL: u8 = 2;

const fn reg_field(class: RegClass, at: u32) -> u32 {
    match class {
        RegClass::None => 0,
        RegClass::X | RegClass::F => 31 << at,
    }
}

const fn row(
    name: &'static str,
    form: Form,
    bits: u32,
    [rd, rs1, rs2]: [RegClass; 3],
    flags: u8,
    proto: Instr,
) -> OpSpec {
    let operands = reg_field(rd, 7) | reg_field(rs1, 15) | reg_field(rs2, 20) | form.place(!0);
    assert!(bits & operands == 0, "fixed bits inside an operand field");
    OpSpec {
        name,
        form,
        mask: !operands,
        bits,
        rd,
        rs1,
        rs2,
        mem: flags & MEM != 0,
        ctrl: flags & CTRL != 0,
        proto,
    }
}

/// Major opcode, funct3 and funct7.
const fn enc(opcode: u32, funct3: u32, funct7: u32) -> u32 {
    opcode | (funct3 << 12) | (funct7 << 25)
}

/// Every encodable operation. Rows of one major opcode are adjacent.
#[rustfmt::skip]
pub const OPS: &[OpSpec] = {
    use Form::{Amo, Load, Print, Shamt, Store, B, I, J, R, U};
    use RegClass::{F, X};
    const N: RegClass = RegClass::None;
    &[
        row("lui",       U,         enc(0x37, 0, 0),               [X, N, N], 0,    Instr::Lui { rd: 0, imm: 0 }),
        row("addi",      I,         enc(0x13, 0, 0),               [X, X, N], 0,    Instr::OpImm { op: AluOp::Add, rd: 0, rs1: 0, imm: 0 }),
        row("slli",      Shamt,     enc(0x13, 1, 0),               [X, X, N], 0,    Instr::OpImm { op: AluOp::Sll, rd: 0, rs1: 0, imm: 0 }),
        row("slti",      I,         enc(0x13, 2, 0),               [X, X, N], 0,    Instr::OpImm { op: AluOp::Slt, rd: 0, rs1: 0, imm: 0 }),
        row("sltiu",     I,         enc(0x13, 3, 0),               [X, X, N], 0,    Instr::OpImm { op: AluOp::Sltu, rd: 0, rs1: 0, imm: 0 }),
        row("xori",      I,         enc(0x13, 4, 0),               [X, X, N], 0,    Instr::OpImm { op: AluOp::Xor, rd: 0, rs1: 0, imm: 0 }),
        row("srli",      Shamt,     enc(0x13, 5, 0),               [X, X, N], 0,    Instr::OpImm { op: AluOp::Srl, rd: 0, rs1: 0, imm: 0 }),
        row("srai",      Shamt,     enc(0x13, 5, 0x20),            [X, X, N], 0,    Instr::OpImm { op: AluOp::Sra, rd: 0, rs1: 0, imm: 0 }),
        row("ori",       I,         enc(0x13, 6, 0),               [X, X, N], 0,    Instr::OpImm { op: AluOp::Or, rd: 0, rs1: 0, imm: 0 }),
        row("andi",      I,         enc(0x13, 7, 0),               [X, X, N], 0,    Instr::OpImm { op: AluOp::And, rd: 0, rs1: 0, imm: 0 }),
        row("add",       R,         enc(0x33, 0, 0),               [X, X, X], 0,    Instr::Op { op: AluOp::Add, rd: 0, rs1: 0, rs2: 0 }),
        row("sub",       R,         enc(0x33, 0, 0x20),            [X, X, X], 0,    Instr::Op { op: AluOp::Sub, rd: 0, rs1: 0, rs2: 0 }),
        row("sll",       R,         enc(0x33, 1, 0),               [X, X, X], 0,    Instr::Op { op: AluOp::Sll, rd: 0, rs1: 0, rs2: 0 }),
        row("slt",       R,         enc(0x33, 2, 0),               [X, X, X], 0,    Instr::Op { op: AluOp::Slt, rd: 0, rs1: 0, rs2: 0 }),
        row("sltu",      R,         enc(0x33, 3, 0),               [X, X, X], 0,    Instr::Op { op: AluOp::Sltu, rd: 0, rs1: 0, rs2: 0 }),
        row("xor",       R,         enc(0x33, 4, 0),               [X, X, X], 0,    Instr::Op { op: AluOp::Xor, rd: 0, rs1: 0, rs2: 0 }),
        row("srl",       R,         enc(0x33, 5, 0),               [X, X, X], 0,    Instr::Op { op: AluOp::Srl, rd: 0, rs1: 0, rs2: 0 }),
        row("sra",       R,         enc(0x33, 5, 0x20),            [X, X, X], 0,    Instr::Op { op: AluOp::Sra, rd: 0, rs1: 0, rs2: 0 }),
        row("or",        R,         enc(0x33, 6, 0),               [X, X, X], 0,    Instr::Op { op: AluOp::Or, rd: 0, rs1: 0, rs2: 0 }),
        row("and",       R,         enc(0x33, 7, 0),               [X, X, X], 0,    Instr::Op { op: AluOp::And, rd: 0, rs1: 0, rs2: 0 }),
        row("mul",       R,         enc(0x33, 0, 1),               [X, X, X], 0,    Instr::MulDiv { op: MulOp::Mul, rd: 0, rs1: 0, rs2: 0 }),
        row("mulh",      R,         enc(0x33, 1, 1),               [X, X, X], 0,    Instr::MulDiv { op: MulOp::Mulh, rd: 0, rs1: 0, rs2: 0 }),
        row("mulhu",     R,         enc(0x33, 3, 1),               [X, X, X], 0,    Instr::MulDiv { op: MulOp::Mulhu, rd: 0, rs1: 0, rs2: 0 }),
        row("div",       R,         enc(0x33, 4, 1),               [X, X, X], 0,    Instr::MulDiv { op: MulOp::Div, rd: 0, rs1: 0, rs2: 0 }),
        row("divu",      R,         enc(0x33, 5, 1),               [X, X, X], 0,    Instr::MulDiv { op: MulOp::Divu, rd: 0, rs1: 0, rs2: 0 }),
        row("rem",       R,         enc(0x33, 6, 1),               [X, X, X], 0,    Instr::MulDiv { op: MulOp::Rem, rd: 0, rs1: 0, rs2: 0 }),
        row("remu",      R,         enc(0x33, 7, 1),               [X, X, X], 0,    Instr::MulDiv { op: MulOp::Remu, rd: 0, rs1: 0, rs2: 0 }),
        row("lw",        Load,      enc(0x03, 2, 0),               [X, X, N], MEM,  Instr::Lw { rd: 0, rs1: 0, imm: 0 }),
        row("sw",        Store,     enc(0x23, 2, 0),               [N, X, X], MEM,  Instr::Sw { rs1: 0, rs2: 0, imm: 0 }),
        row("beq",       B,         enc(0x63, 0, 0),               [N, X, X], CTRL, Instr::Branch { cond: BranchCond::Eq, rs1: 0, rs2: 0, offset: 0 }),
        row("bne",       B,         enc(0x63, 1, 0),               [N, X, X], CTRL, Instr::Branch { cond: BranchCond::Ne, rs1: 0, rs2: 0, offset: 0 }),
        row("blt",       B,         enc(0x63, 4, 0),               [N, X, X], CTRL, Instr::Branch { cond: BranchCond::Lt, rs1: 0, rs2: 0, offset: 0 }),
        row("bge",       B,         enc(0x63, 5, 0),               [N, X, X], CTRL, Instr::Branch { cond: BranchCond::Ge, rs1: 0, rs2: 0, offset: 0 }),
        row("bltu",      B,         enc(0x63, 6, 0),               [N, X, X], CTRL, Instr::Branch { cond: BranchCond::Ltu, rs1: 0, rs2: 0, offset: 0 }),
        row("bgeu",      B,         enc(0x63, 7, 0),               [N, X, X], CTRL, Instr::Branch { cond: BranchCond::Geu, rs1: 0, rs2: 0, offset: 0 }),
        row("jal",       J,         enc(0x6F, 0, 0),               [X, N, N], CTRL, Instr::Jal { rd: 0, offset: 0 }),
        row("jalr",      Load,      enc(0x67, 0, 0),               [X, X, N], CTRL, Instr::Jalr { rd: 0, rs1: 0, imm: 0 }),
        row("flw",       Load,      enc(0x07, 2, 0),               [F, X, N], MEM,  Instr::Flw { rd: 0, rs1: 0, imm: 0 }),
        row("fsw",       Store,     enc(0x27, 2, 0),               [N, X, F], MEM,  Instr::Fsw { rs1: 0, rs2: 0, imm: 0 }),
        row("fadd.s",    R,         enc(0x53, 0, 0x00),            [F, F, F], 0,    Instr::FpOp { op: FpOp::Add, rd: 0, rs1: 0, rs2: 0 }),
        row("fsub.s",    R,         enc(0x53, 0, 0x04),            [F, F, F], 0,    Instr::FpOp { op: FpOp::Sub, rd: 0, rs1: 0, rs2: 0 }),
        row("fmul.s",    R,         enc(0x53, 0, 0x08),            [F, F, F], 0,    Instr::FpOp { op: FpOp::Mul, rd: 0, rs1: 0, rs2: 0 }),
        row("fdiv.s",    R,         enc(0x53, 0, 0x0C),            [F, F, F], 0,    Instr::FpOp { op: FpOp::Div, rd: 0, rs1: 0, rs2: 0 }),
        row("fmin.s",    R,         enc(0x53, 0, 0x14),            [F, F, F], 0,    Instr::FpOp { op: FpOp::Min, rd: 0, rs1: 0, rs2: 0 }),
        row("fmax.s",    R,         enc(0x53, 1, 0x14),            [F, F, F], 0,    Instr::FpOp { op: FpOp::Max, rd: 0, rs1: 0, rs2: 0 }),
        row("fsgnj.s",   R,         enc(0x53, 0, 0x10),            [F, F, F], 0,    Instr::FpOp { op: FpOp::Sgnj, rd: 0, rs1: 0, rs2: 0 }),
        row("fsgnjn.s",  R,         enc(0x53, 1, 0x10),            [F, F, F], 0,    Instr::FpOp { op: FpOp::SgnjN, rd: 0, rs1: 0, rs2: 0 }),
        row("fsgnjx.s",  R,         enc(0x53, 2, 0x10),            [F, F, F], 0,    Instr::FpOp { op: FpOp::SgnjX, rd: 0, rs1: 0, rs2: 0 }),
        // fsqrt is standard; the SFU ops use a reserved funct7 with rs2 as
        // a selector.
        row("fsqrt.s",   R,         enc(0x53, 0, 0x2C),            [F, F, N], 0,    Instr::FpUn { op: FpUnOp::Sqrt, rd: 0, rs1: 0 }),
        row("vx.fexp",   R,         enc(0x53, 0, 0x7B),            [F, F, N], 0,    Instr::FpUn { op: FpUnOp::Exp, rd: 0, rs1: 0 }),
        row("vx.flog",   R,         enc(0x53, 0, 0x7B) | 1 << 20,  [F, F, N], 0,    Instr::FpUn { op: FpUnOp::Log, rd: 0, rs1: 0 }),
        row("vx.fsin",   R,         enc(0x53, 0, 0x7B) | 2 << 20,  [F, F, N], 0,    Instr::FpUn { op: FpUnOp::Sin, rd: 0, rs1: 0 }),
        row("vx.fcos",   R,         enc(0x53, 0, 0x7B) | 3 << 20,  [F, F, N], 0,    Instr::FpUn { op: FpUnOp::Cos, rd: 0, rs1: 0 }),
        row("vx.ffloor", R,         enc(0x53, 0, 0x7B) | 4 << 20,  [F, F, N], 0,    Instr::FpUn { op: FpUnOp::Floor, rd: 0, rs1: 0 }),
        row("feq.s",     R,         enc(0x53, 2, 0x50),            [X, F, F], 0,    Instr::FpCmp { op: FpCmpOp::Eq, rd: 0, rs1: 0, rs2: 0 }),
        row("flt.s",     R,         enc(0x53, 1, 0x50),            [X, F, F], 0,    Instr::FpCmp { op: FpCmpOp::Lt, rd: 0, rs1: 0, rs2: 0 }),
        row("fle.s",     R,         enc(0x53, 0, 0x50),            [X, F, F], 0,    Instr::FpCmp { op: FpCmpOp::Le, rd: 0, rs1: 0, rs2: 0 }),
        row("fcvt.w.s",  R,         enc(0x53, 0, 0x60),            [X, F, N], 0,    Instr::FpCvt { op: CvtOp::F2I, rd: 0, rs1: 0 }),
        row("fcvt.wu.s", R,         enc(0x53, 0, 0x60) | 1 << 20,  [X, F, N], 0,    Instr::FpCvt { op: CvtOp::F2U, rd: 0, rs1: 0 }),
        row("fcvt.s.w",  R,         enc(0x53, 0, 0x68),            [F, X, N], 0,    Instr::FpCvt { op: CvtOp::I2F, rd: 0, rs1: 0 }),
        row("fcvt.s.wu", R,         enc(0x53, 0, 0x68) | 1 << 20,  [F, X, N], 0,    Instr::FpCvt { op: CvtOp::U2F, rd: 0, rs1: 0 }),
        row("fmv.x.w",   R,         enc(0x53, 0, 0x70),            [X, F, N], 0,    Instr::FpCvt { op: CvtOp::MvF2X, rd: 0, rs1: 0 }),
        row("fmv.w.x",   R,         enc(0x53, 0, 0x78),            [F, X, N], 0,    Instr::FpCvt { op: CvtOp::MvX2F, rd: 0, rs1: 0 }),
        row("amoadd.w",  Amo,       enc(0x2F, 2, 0x00),            [X, X, X], MEM,  Instr::Amo { op: AmoOp::Add, rd: 0, rs1: 0, rs2: 0 }),
        row("amoswap.w", Amo,       enc(0x2F, 2, 0x04),            [X, X, X], MEM,  Instr::Amo { op: AmoOp::Swap, rd: 0, rs1: 0, rs2: 0 }),
        row("amoxor.w",  Amo,       enc(0x2F, 2, 0x10),            [X, X, X], MEM,  Instr::Amo { op: AmoOp::Xor, rd: 0, rs1: 0, rs2: 0 }),
        row("amoor.w",   Amo,       enc(0x2F, 2, 0x20),            [X, X, X], MEM,  Instr::Amo { op: AmoOp::Or, rd: 0, rs1: 0, rs2: 0 }),
        row("amoand.w",  Amo,       enc(0x2F, 2, 0x30),            [X, X, X], MEM,  Instr::Amo { op: AmoOp::And, rd: 0, rs1: 0, rs2: 0 }),
        row("amomin.w",  Amo,       enc(0x2F, 2, 0x40),            [X, X, X], MEM,  Instr::Amo { op: AmoOp::Min, rd: 0, rs1: 0, rs2: 0 }),
        row("amomax.w",  Amo,       enc(0x2F, 2, 0x50),            [X, X, X], MEM,  Instr::Amo { op: AmoOp::Max, rd: 0, rs1: 0, rs2: 0 }),
        row("amominu.w", Amo,       enc(0x2F, 2, 0x60),            [X, X, X], MEM,  Instr::Amo { op: AmoOp::Minu, rd: 0, rs1: 0, rs2: 0 }),
        row("amomaxu.w", Amo,       enc(0x2F, 2, 0x70),            [X, X, X], MEM,  Instr::Amo { op: AmoOp::Maxu, rd: 0, rs1: 0, rs2: 0 }),
        row("csrr",      Form::Csr, enc(0x73, 2, 0) | 0xCC0 << 20, [X, N, N], 0,    Instr::CsrRead { rd: 0, csr: Csr::ThreadId }),
        row("csrr",      Form::Csr, enc(0x73, 2, 0) | 0xCC1 << 20, [X, N, N], 0,    Instr::CsrRead { rd: 0, csr: Csr::WarpId }),
        row("csrr",      Form::Csr, enc(0x73, 2, 0) | 0xCC2 << 20, [X, N, N], 0,    Instr::CsrRead { rd: 0, csr: Csr::CoreId }),
        row("csrr",      Form::Csr, enc(0x73, 2, 0) | 0xFC0 << 20, [X, N, N], 0,    Instr::CsrRead { rd: 0, csr: Csr::NumThreads }),
        row("csrr",      Form::Csr, enc(0x73, 2, 0) | 0xFC1 << 20, [X, N, N], 0,    Instr::CsrRead { rd: 0, csr: Csr::NumWarps }),
        row("csrr",      Form::Csr, enc(0x73, 2, 0) | 0xFC2 << 20, [X, N, N], 0,    Instr::CsrRead { rd: 0, csr: Csr::NumCores }),
        row("csrr",      Form::Csr, enc(0x73, 2, 0) | 0xCC3 << 20, [X, N, N], 0,    Instr::CsrRead { rd: 0, csr: Csr::Tmask }),
        row("vx.tmc",    R,         enc(0x6B, 0, 0),               [N, X, N], CTRL, Instr::Tmc { rs1: 0 }),
        row("vx.wspawn", R,         enc(0x6B, 1, 0),               [N, X, X], CTRL, Instr::Wspawn { rs1: 0, rs2: 0 }),
        row("vx.split",  B,         enc(0x6B, 2, 0),               [N, X, N], CTRL, Instr::Split { rs1: 0, else_off: 0 }),
        row("vx.join",   B,         enc(0x6B, 3, 0),               [N, N, N], CTRL, Instr::Join { off: 0 }),
        row("vx.pred",   B,         enc(0x6B, 4, 0),               [N, X, X], CTRL, Instr::Pred { rs1: 0, rs2: 0, exit_off: 0 }),
        row("vx.bar",    R,         enc(0x6B, 5, 0),               [N, X, X], CTRL, Instr::Bar { rs1: 0, rs2: 0 }),
        row("vx.print",  Print,     enc(0x6B, 6, 0),               [N, N, N], CTRL, Instr::Print { fmt: 0 }),
        row("vx.halt",   R,         enc(0x6B, 7, 0),               [N, N, N], CTRL, Instr::Halt),
    ]
};

/// Sub-operation slots per `Instr` variant in [`Instr::key`] (`AluOp` has
/// the most, ten).
const SUBS: usize = 16;
const VARIANTS: usize = 25;
const NO_ROW: u8 = u8::MAX;

/// The row of each [`Instr::key`], or `NO_ROW`.
static INDEX: [u8; VARIANTS * SUBS] = {
    let mut t = [NO_ROW; VARIANTS * SUBS];
    let mut r = 0;
    while r < OPS.len() {
        let key = OPS[r].proto.key().0;
        assert!(t[key] == NO_ROW, "two rows for one operation");
        t[key] = r as u8;
        r += 1;
    }
    t
};

/// The rows of each major opcode (bits 6:0) as a range of [`OPS`]: the
/// only rows [`decode`] compares a word against.
static BY_OPCODE: [(u8, u8); 128] = {
    let mut t = [(0u8, 0u8); 128];
    let mut r = 0;
    while r < OPS.len() {
        let op = (OPS[r].bits & 0x7F) as usize;
        if t[op].0 == t[op].1 {
            t[op] = (r as u8, r as u8 + 1);
        } else {
            assert!(t[op].1 as usize == r, "rows of one opcode must be adjacent");
            t[op].1 += 1;
        }
        r += 1;
    }
    t
};

impl Instr {
    /// The instruction's `(variant, sub-operation)` slot in `INDEX`, and
    /// its operand fields.
    const fn key(&self) -> (usize, Fields) {
        let (variant, sub, x) = match *self {
            Instr::Lui { rd, imm } => (0, 0, fields(rd, 0, 0, imm)),
            Instr::OpImm { op, rd, rs1, imm } => (1, op as usize, fields(rd, rs1, 0, imm)),
            Instr::Op { op, rd, rs1, rs2 } => (2, op as usize, fields(rd, rs1, rs2, 0)),
            Instr::MulDiv { op, rd, rs1, rs2 } => (3, op as usize, fields(rd, rs1, rs2, 0)),
            Instr::Lw { rd, rs1, imm } => (4, 0, fields(rd, rs1, 0, imm)),
            Instr::Sw { rs1, rs2, imm } => (5, 0, fields(0, rs1, rs2, imm)),
            Instr::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => (6, cond as usize, fields(0, rs1, rs2, offset)),
            Instr::Jal { rd, offset } => (7, 0, fields(rd, 0, 0, offset)),
            Instr::Jalr { rd, rs1, imm } => (8, 0, fields(rd, rs1, 0, imm)),
            Instr::Flw { rd, rs1, imm } => (9, 0, fields(rd, rs1, 0, imm)),
            Instr::Fsw { rs1, rs2, imm } => (10, 0, fields(0, rs1, rs2, imm)),
            Instr::FpOp { op, rd, rs1, rs2 } => (11, op as usize, fields(rd, rs1, rs2, 0)),
            Instr::FpUn { op, rd, rs1 } => (12, op as usize, fields(rd, rs1, 0, 0)),
            Instr::FpCmp { op, rd, rs1, rs2 } => (13, op as usize, fields(rd, rs1, rs2, 0)),
            Instr::FpCvt { op, rd, rs1 } => (14, op as usize, fields(rd, rs1, 0, 0)),
            Instr::Amo { op, rd, rs1, rs2 } => (15, op as usize, fields(rd, rs1, rs2, 0)),
            Instr::CsrRead { rd, csr } => (16, csr as usize, fields(rd, 0, 0, 0)),
            Instr::Tmc { rs1 } => (17, 0, fields(0, rs1, 0, 0)),
            Instr::Wspawn { rs1, rs2 } => (18, 0, fields(0, rs1, rs2, 0)),
            Instr::Split { rs1, else_off } => (19, 0, fields(0, rs1, 0, else_off)),
            Instr::Join { off } => (20, 0, fields(0, 0, 0, off)),
            Instr::Pred { rs1, rs2, exit_off } => (21, 0, fields(0, rs1, rs2, exit_off)),
            Instr::Bar { rs1, rs2 } => (22, 0, fields(0, rs1, rs2, 0)),
            Instr::Print { fmt } => (23, 0, fields(0, 0, 0, fmt as i32)),
            Instr::Halt => (24, 0, fields(0, 0, 0, 0)),
        };
        (variant * SUBS + sub, x)
    }

    /// The instruction's row in [`OPS`] and its operand fields. `None` only
    /// for `subi` (`OpImm` with `AluOp::Sub`), which has no encoding.
    pub fn parts(&self) -> Option<(&'static OpSpec, Fields)> {
        let (key, x) = self.key();
        let r = INDEX[key];
        (r != NO_ROW).then(|| (&OPS[r as usize], x))
    }

    /// [`parts`](Self::parts) for the simulator and the disassembler, which
    /// also handle `subi`: it has no row of its own, but it has `addi`'s
    /// operand classes, syntax and flags, so it gets `addi`'s row.
    pub fn shape(&self) -> (&'static OpSpec, Fields) {
        match *self {
            Instr::OpImm {
                op: AluOp::Sub,
                rd,
                rs1,
                imm,
            } => Instr::OpImm {
                op: AluOp::Add,
                rd,
                rs1,
                imm,
            },
            i => i,
        }
        .parts()
        .expect("every instruction but subi has a row")
    }
}

impl OpSpec {
    /// This operation with operand fields `x`. Fields the operation does
    /// not use are ignored; widths are checked by [`encode`], not here.
    pub(crate) fn build(&self, x: Fields) -> Instr {
        let Fields { rd, rs1, rs2, imm } = x;
        match self.proto {
            Instr::Lui { .. } => Instr::Lui { rd, imm },
            Instr::OpImm { op, .. } => Instr::OpImm { op, rd, rs1, imm },
            Instr::Op { op, .. } => Instr::Op { op, rd, rs1, rs2 },
            Instr::MulDiv { op, .. } => Instr::MulDiv { op, rd, rs1, rs2 },
            Instr::Lw { .. } => Instr::Lw { rd, rs1, imm },
            Instr::Sw { .. } => Instr::Sw { rs1, rs2, imm },
            Instr::Branch { cond, .. } => Instr::Branch {
                cond,
                rs1,
                rs2,
                offset: imm,
            },
            Instr::Jal { .. } => Instr::Jal { rd, offset: imm },
            Instr::Jalr { .. } => Instr::Jalr { rd, rs1, imm },
            Instr::Flw { .. } => Instr::Flw { rd, rs1, imm },
            Instr::Fsw { .. } => Instr::Fsw { rs1, rs2, imm },
            Instr::FpOp { op, .. } => Instr::FpOp { op, rd, rs1, rs2 },
            Instr::FpUn { op, .. } => Instr::FpUn { op, rd, rs1 },
            Instr::FpCmp { op, .. } => Instr::FpCmp { op, rd, rs1, rs2 },
            Instr::FpCvt { op, .. } => Instr::FpCvt { op, rd, rs1 },
            Instr::Amo { op, .. } => Instr::Amo { op, rd, rs1, rs2 },
            Instr::CsrRead { csr, .. } => Instr::CsrRead { rd, csr },
            Instr::Tmc { .. } => Instr::Tmc { rs1 },
            Instr::Wspawn { .. } => Instr::Wspawn { rs1, rs2 },
            Instr::Split { .. } => Instr::Split { rs1, else_off: imm },
            Instr::Join { .. } => Instr::Join { off: imm },
            Instr::Pred { .. } => Instr::Pred {
                rs1,
                rs2,
                exit_off: imm,
            },
            Instr::Bar { .. } => Instr::Bar { rs1, rs2 },
            Instr::Print { .. } => Instr::Print { fmt: imm as u16 },
            Instr::Halt => Instr::Halt,
        }
    }
}

/// An instruction the binary cannot express.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodeError {
    pub instr: Instr,
    pub reason: &'static str,
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot encode {:?}: {}", self.instr, self.reason)
    }
}

impl std::error::Error for EncodeError {}

/// A word no operation's mask and bits match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    pub word: u32,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot decode {:#010x}: no operation matches", self.word)
    }
}

impl std::error::Error for DecodeError {}

/// Encode one instruction to its 32-bit word, checking that every register
/// index and the immediate fit their fields.
pub fn encode(i: &Instr) -> Result<u32, EncodeError> {
    let err = |reason| EncodeError { instr: *i, reason };
    let (op, x) = i
        .parts()
        .ok_or_else(|| err("no such operation (subi is addi with -imm)"))?;
    // A field the row does not use is zero, so all three can be placed.
    if (x.rd | x.rs1 | x.rs2) >= 32 {
        return Err(err("register index above 31"));
    }
    let imm = op
        .form
        .pack(x.imm)
        .ok_or_else(|| err("immediate does not fit its field"))?;
    Ok(op.bits | (x.rd as u32) << 7 | (x.rs1 as u32) << 15 | (x.rs2 as u32) << 20 | imm)
}

/// Decode a 32-bit word: the exact inverse of [`encode`]. A word no row's
/// mask and bits match is an error.
pub fn decode(w: u32) -> Result<Instr, DecodeError> {
    let (lo, hi) = BY_OPCODE[(w & 0x7F) as usize];
    let reg = |at: u32| ((w >> at) & 31) as Reg;
    OPS[lo as usize..hi as usize]
        .iter()
        .find(|op| w & op.mask == op.bits)
        .map(|op| op.build(fields(reg(7), reg(15), reg(20), op.form.unpack(w))))
        .ok_or(DecodeError { word: w })
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_util::Rng;

    /// Register and immediate values to try on `op`: each field's extremes
    /// and one seeded draw.
    fn field_values(op: &OpSpec, rng: &mut Rng) -> (Vec<Reg>, Vec<i32>) {
        let regs = vec![0, 1, 31, rng.below(32) as Reg];
        let (_, width, signed) = op.form.imm();
        let (lo, hi) = match (width, signed) {
            (0, _) => (0, 0),
            (w, true) => (-(1 << (w - 1)), (1 << (w - 1)) - 1),
            (w, false) => (0, (1 << w) - 1),
        };
        let imms = vec![0, lo, hi, rng.range_i32(lo, hi + 1)];
        (regs, imms)
    }

    /// Every row at every field's extremes and at seeded values: `parts`
    /// recovers the fields (zero where the row has none), and decode is the
    /// inverse of encode.
    #[test]
    fn encode_decode_roundtrip() {
        let mut rng = Rng::new(0xC0DE);
        for op in OPS {
            for _ in 0..8 {
                let (regs, imms) = field_values(op, &mut rng);
                let used = |class: RegClass, r: Reg| if class == RegClass::None { 0 } else { r };
                for (k, &imm) in imms.iter().enumerate() {
                    for &r in &regs {
                        let x = fields(
                            used(op.rd, r),
                            used(op.rs1, regs[(k + 1) % regs.len()]),
                            used(op.rs2, regs[(k + 2) % regs.len()]),
                            imm,
                        );
                        let i = op.build(x);
                        let (back_op, back_x) = i.parts().expect("every row has a key");
                        assert_eq!((back_op.bits, back_x), (op.bits, x), "{i:?}");
                        let w = encode(&i).unwrap_or_else(|e| panic!("{e}"));
                        assert_eq!(w & op.mask, op.bits, "{i:?} -> {w:#010x}");
                        assert_eq!(decode(w), Ok(i), "{i:?} -> {w:#010x}");
                    }
                }
            }
        }
    }

    /// Random words never panic the decoder, and every word it accepts
    /// re-encodes to itself.
    #[test]
    fn random_words_decode_to_their_own_encoding() {
        let mut rng = Rng::new(0x15A_0001);
        let mut accepted = 0;
        for _ in 0..1 << 20 {
            let w = rng.next_u64() as u32;
            if let Ok(i) = decode(w) {
                assert_eq!(encode(&i), Ok(w), "{w:#010x} decodes to {i:?}");
                accepted += 1;
            }
        }
        assert!(accepted > 0, "no random word decoded");
    }

    /// No word matches two rows.
    #[test]
    fn no_two_rows_overlap() {
        for (a, p) in OPS.iter().enumerate() {
            for q in &OPS[a + 1..] {
                assert!(
                    (p.bits ^ q.bits) & p.mask & q.mask != 0,
                    "{} and {} match the same word",
                    p.name,
                    q.name
                );
            }
        }
    }

    #[test]
    fn known_encodings_stable() {
        // addi x1, x0, 5 — classic RISC-V encoding.
        let w = encode(&Instr::OpImm {
            op: AluOp::Add,
            rd: 1,
            rs1: 0,
            imm: 5,
        });
        assert_eq!(w, Ok(0x0050_0093));
        // add x3, x1, x2.
        let w = encode(&Instr::Op {
            op: AluOp::Add,
            rd: 3,
            rs1: 1,
            rs2: 2,
        });
        assert_eq!(w, Ok(0x0020_81B3));
    }

    #[test]
    fn negative_store_offset_roundtrips() {
        let i = Instr::Sw {
            rs1: 2,
            rs2: 8,
            imm: -4,
        };
        assert_eq!(decode(encode(&i).unwrap()), Ok(i));
    }

    /// Words the old hand-written decoder accepted although no encoding
    /// produces them.
    #[test]
    fn garbage_word_rejected() {
        assert!(decode(0xFFFF_FFFF).is_err());
        assert!(decode(0x0000_0000).is_err());
        // FP funct7 0x14 with funct3 2 is neither fmin nor fmax.
        assert!(decode(0x2800_2053).is_err());
        // fcvt with selector 5 is not fcvt.wu.s.
        assert!(decode(0xC050_0053).is_err());
        // slli with a nonzero funct7.
        assert!(decode(0x4010_1013).is_err());
    }

    /// `subi` has no encoding but issues with `addi`'s row.
    #[test]
    fn subi_borrows_the_addi_row() {
        let i = Instr::OpImm {
            op: AluOp::Sub,
            rd: 3,
            rs1: 4,
            imm: 5,
        };
        assert!(i.parts().is_none());
        let (op, x) = i.shape();
        assert_eq!((op.name, x), ("addi", fields(3, 4, 0, 5)));
    }

    #[test]
    fn out_of_range_fields_are_errors() {
        let reject = |i: Instr| assert!(encode(&i).is_err(), "{i:?} encoded");
        reject(Instr::OpImm {
            op: AluOp::Sub,
            rd: 1,
            rs1: 1,
            imm: 1,
        });
        reject(Instr::Branch {
            cond: BranchCond::Eq,
            rs1: 0,
            rs2: 0,
            offset: 2048,
        });
        reject(Instr::Jal {
            rd: 0,
            offset: -(1 << 19) - 1,
        });
        reject(Instr::Print { fmt: 1024 });
        reject(Instr::Lui {
            rd: 1,
            imm: 1 << 20,
        });
        reject(Instr::OpImm {
            op: AluOp::Sll,
            rd: 1,
            rs1: 1,
            imm: 32,
        });
        reject(Instr::Tmc { rs1: 32 });
    }

    #[test]
    fn program_roundtrip() {
        let p = [
            Instr::Lui {
                rd: 5,
                imm: 0x12345,
            },
            Instr::Tmc { rs1: 5 },
            Instr::Halt,
        ];
        for i in p {
            assert_eq!(decode(encode(&i).unwrap()), Ok(i));
        }
    }
}
