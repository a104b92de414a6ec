//! The decode-once op table.
//!
//! Kernel code never changes, so a program is decoded once into a flat
//! table of [`Op`]s, one per instruction. An op is 12 bytes and `Copy`. It
//! holds everything issue would otherwise re-derive from the instruction,
//! all from one ISA table lookup: the fieldless [`Opcode`] that
//! `Core::execute` switches on, the operand fields, the three scoreboard
//! indices and the LSU flag.
//!
//! The table belongs to an [`Image`]. All cores share it, and a runtime
//! session keeps one image per kernel, so every launch of a kernel, and
//! every switch back to it, reuses the same table. The event loop builds it
//! on its first run. `reference_mode` never builds it: the dense oracle
//! decodes from scratch at every issue, into the same [`Op`] (see [`Text`]).
//!
//! The metrics registry counts the table as `sim.trace_cache.misses` (ops
//! decoded into a table) and `sim.trace_cache.hits` (issues served from
//! one), so their rate is the share of issues that needed no decode.

use std::sync::OnceLock;

use vortex_isa::encode::{Fields, OpSpec, Opcode, RegClass};
use vortex_isa::{AluOp, Instr, Program};

/// One decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Op {
    pub code: Opcode,
    pub rd: u8,
    pub rs1: u8,
    pub rs2: u8,
    pub imm: i32,
    /// Scoreboard indices: two sources, then the destination, each an index
    /// into the warp's 64-entry ready-time row (integer `r` at `r`, float
    /// `r` at `32 + r`), from the register classes of the ISA row. Unused
    /// positions hold index 0 — `x0`, whose ready time is always 0 because
    /// `Core::mark_dest` never writes it — so the scoreboard check is three
    /// loads and two `max`es for every instruction, and the destination is
    /// checked too (WAW).
    pub sb: [u8; 3],
    /// The instruction goes through the LSU (needs an MSHR, can stall).
    pub mem: bool,
}

impl Op {
    pub fn decode(instr: &Instr) -> Op {
        let (row, x) = instr.shape();
        // `subi` has `addi`'s row; it issues as `addi` of the negated
        // immediate, which wraps to the same result for every value.
        let imm = match instr {
            Instr::OpImm { op: AluOp::Sub, .. } => x.imm.wrapping_neg(),
            _ => x.imm,
        };
        Op {
            code: row.code,
            rd: x.rd,
            rs1: x.rs1,
            rs2: x.rs2,
            imm,
            sb: scoreboard(row, x),
            mem: row.mem,
        }
    }
}

fn scoreboard(row: &OpSpec, x: Fields) -> [u8; 3] {
    let sb = |class, r| match class {
        RegClass::None => 0,
        RegClass::X => r,
        RegClass::F => 32 + r,
    };
    [sb(row.rs1, x.rs1), sb(row.rs2, x.rs2), sb(row.rd, x.rd)]
}

/// A kernel binary as a machine runs it: the program, plus its op table
/// once the event loop has built it.
#[derive(Debug)]
pub struct Image {
    pub program: Program,
    ops: OnceLock<Box<[Op]>>,
}

impl Image {
    pub fn new(program: Program) -> Self {
        Image {
            program,
            ops: OnceLock::new(),
        }
    }

    /// Whether the op table has been built.
    pub fn decoded(&self) -> bool {
        self.ops.get().is_some()
    }

    /// Where one run fetches its ops: the table (built here on first use)
    /// when `table` is set, the raw program otherwise. Also returns the
    /// number of ops this call decoded.
    pub(crate) fn text(&self, table: bool) -> (Text<'_>, u64) {
        if !table {
            return (Text::decoding(&self.program), 0);
        }
        let mut decoded = 0;
        let ops = self.ops.get_or_init(|| {
            decoded = self.program.instrs.len() as u64;
            self.program.instrs.iter().map(Op::decode).collect()
        });
        let text = Text {
            program: &self.program,
            ops: Some(ops),
        };
        (text, decoded)
    }
}

/// What issue reads: the op table, or — in `reference_mode` — the program,
/// decoded from scratch at every fetch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Text<'a> {
    pub program: &'a Program,
    ops: Option<&'a [Op]>,
}

impl<'a> Text<'a> {
    pub fn decoding(program: &'a Program) -> Self {
        Text { program, ops: None }
    }

    /// The op at `pc`; `None` for a PC outside the program.
    #[inline]
    pub fn fetch(&self, pc: u32) -> Option<Op> {
        match self.ops {
            Some(ops) => ops.get(pc as usize).copied(),
            None => self.program.instrs.get(pc as usize).map(Op::decode),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macro_op_fits_in_sixteen_bytes() {
        // Every issue reads one op, and every snapshot write reads the next
        // one; an op that outgrows one 16-byte load, or a fetch result that
        // needs more than the op's own bytes, is a regression of the design.
        assert!(std::mem::size_of::<Op>() <= 16);
        assert_eq!(std::mem::size_of::<Option<Op>>(), std::mem::size_of::<Op>());
    }

    /// `subi` issues as `addi` of the negated immediate.
    #[test]
    fn subi_decodes_to_addi_of_the_negated_immediate() {
        for imm in [0, 5, -2048, i32::MIN] {
            let sub = Instr::OpImm {
                op: AluOp::Sub,
                rd: 3,
                rs1: 4,
                imm,
            };
            let add = Instr::OpImm {
                op: AluOp::Add,
                rd: 3,
                rs1: 4,
                imm: imm.wrapping_neg(),
            };
            assert_eq!(Op::decode(&sub), Op::decode(&add));
            assert_eq!(Op::decode(&add).code, Opcode::Addi);
        }
    }
}
