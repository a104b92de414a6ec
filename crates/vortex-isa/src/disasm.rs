//! Disassembly (Display) for instructions — used in simulator traces and
//! compiler debug output. Mnemonics, operand classes and syntax come from
//! the [`OPS`](crate::encode::OPS) table.

use crate::encode::{Form, RegClass};
use crate::*;
use std::fmt;

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (op, x) = self.shape();
        let (rd, rs1, rs2) = (
            Operand(op.rd, x.rd),
            Operand(op.rs1, x.rs1),
            Operand(op.rs2, x.rs2),
        );
        // `subi` is written like the `addi` whose row it borrows.
        f.write_str(self.parts().map_or("subi", |_| op.name))?;
        match op.form {
            Form::Load => write!(f, " {rd}, {}({rs1})", x.imm),
            Form::Store => write!(f, " {rs2}, {}({rs1})", x.imm),
            Form::Amo => write!(f, " {rd}, {rs2}, ({rs1})"),
            Form::Csr => {
                let Instr::CsrRead { csr, .. } = self else {
                    unreachable!("only csrr rows have the Csr form")
                };
                write!(f, " {rd}, {csr:?}")
            }
            Form::Print => write!(f, " #{}", x.imm),
            form => {
                let mut sep = " ";
                for r in [rd, rs1, rs2] {
                    if r.0 != RegClass::None {
                        write!(f, "{sep}{r}")?;
                        sep = ", ";
                    }
                }
                match form {
                    Form::I | Form::Shamt => write!(f, "{sep}{}", x.imm),
                    Form::B | Form::J => write!(f, "{sep}{:+}", x.imm),
                    Form::U => write!(f, "{sep}{:#x}", x.imm),
                    _ => Ok(()),
                }
            }
        }
    }
}

/// A register operand as assembly writes it.
#[derive(Clone, Copy)]
struct Operand(RegClass, Reg);

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            RegClass::None => Ok(()),
            RegClass::X => write!(f, "x{}", self.1),
            RegClass::F => write!(f, "f{}", self.1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_core_and_extension_forms() {
        assert_eq!(
            Instr::OpImm {
                op: AluOp::Add,
                rd: 1,
                rs1: 2,
                imm: -3
            }
            .to_string(),
            "addi x1, x2, -3"
        );
        assert_eq!(
            Instr::OpImm {
                op: AluOp::Sub,
                rd: 1,
                rs1: 2,
                imm: 3
            }
            .to_string(),
            "subi x1, x2, 3"
        );
        assert_eq!(
            Instr::Split {
                rs1: 7,
                else_off: 4
            }
            .to_string(),
            "vx.split x7, +4"
        );
        assert_eq!(Instr::Halt.to_string(), "vx.halt");
    }
}
