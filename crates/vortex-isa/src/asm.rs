//! Label-resolving assembler used by the code generator.
//!
//! Control-flow targets are emitted as [`Label`]s and resolved to relative
//! instruction offsets when [`Asm::finish`] is called, which also checks
//! that every instruction has an encoding.

use crate::encode::encode;
use crate::{BranchCond, Instr, Reg};

/// A forward-referencable code label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(pub u32);

/// Assembler failure (unbound label, or an instruction with no encoding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    pub message: String,
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "assembler error: {}", self.message)
    }
}

impl std::error::Error for AsmError {}

enum Pending {
    Done(Instr),
    Branch {
        cond: BranchCond,
        rs1: Reg,
        rs2: Reg,
        target: Label,
    },
    Jal {
        rd: Reg,
        target: Label,
    },
    Split {
        rs1: Reg,
        else_target: Label,
    },
    Join {
        target: Label,
    },
    Pred {
        rs1: Reg,
        rs2: Reg,
        exit_target: Label,
    },
}

/// The assembler.
#[derive(Default)]
pub struct Asm {
    code: Vec<Pending>,
    labels: Vec<Option<u32>>,
}

impl Asm {
    pub fn new() -> Self {
        Asm::default()
    }

    /// Current position (instruction index).
    pub fn here(&self) -> u32 {
        self.code.len() as u32
    }

    /// Create an unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label((self.labels.len() - 1) as u32)
    }

    /// Bind `l` to the current position.
    pub fn bind(&mut self, l: Label) {
        assert!(self.labels[l.0 as usize].is_none(), "label bound twice");
        self.labels[l.0 as usize] = Some(self.here());
    }

    /// Emit a fully-formed instruction.
    pub fn emit(&mut self, i: Instr) {
        self.code.push(Pending::Done(i));
    }

    /// Emit a conditional branch to a label.
    pub fn branch(&mut self, cond: BranchCond, rs1: Reg, rs2: Reg, target: Label) {
        self.code.push(Pending::Branch {
            cond,
            rs1,
            rs2,
            target,
        });
    }

    /// Emit an unconditional jump (`jal x0, target`).
    pub fn jump(&mut self, target: Label) {
        self.code.push(Pending::Jal { rd: 0, target });
    }

    /// Emit `jal rd, target`.
    pub fn jal(&mut self, rd: Reg, target: Label) {
        self.code.push(Pending::Jal { rd, target });
    }

    /// Emit a SPLIT whose else-path starts at `else_target`.
    pub fn split(&mut self, rs1: Reg, else_target: Label) {
        self.code.push(Pending::Split { rs1, else_target });
    }

    /// Emit a JOIN whose reconvergence point is `target`.
    pub fn join(&mut self, target: Label) {
        self.code.push(Pending::Join { target });
    }

    /// Emit a PRED guarding a divergent loop with the given exit.
    pub fn pred(&mut self, rs1: Reg, rs2: Reg, exit_target: Label) {
        self.code.push(Pending::Pred {
            rs1,
            rs2,
            exit_target,
        });
    }

    /// Resolve all labels and return the instruction stream. Fails if a
    /// label is unbound or an instruction does not encode (an offset past
    /// its field, for one).
    pub fn finish(self) -> Result<Vec<Instr>, AsmError> {
        let resolve = |l: Label, at: u32| -> Result<i32, AsmError> {
            let pos = self.labels[l.0 as usize].ok_or_else(|| AsmError {
                message: format!("label {l:?} used but never bound"),
            })?;
            Ok(pos as i32 - at as i32)
        };
        self.code
            .iter()
            .enumerate()
            .map(|(at, p)| {
                let at = at as u32;
                let i = match p {
                    Pending::Done(i) => *i,
                    Pending::Branch {
                        cond,
                        rs1,
                        rs2,
                        target,
                    } => Instr::Branch {
                        cond: *cond,
                        rs1: *rs1,
                        rs2: *rs2,
                        offset: resolve(*target, at)?,
                    },
                    Pending::Jal { rd, target } => Instr::Jal {
                        rd: *rd,
                        offset: resolve(*target, at)?,
                    },
                    Pending::Split { rs1, else_target } => Instr::Split {
                        rs1: *rs1,
                        else_off: resolve(*else_target, at)?,
                    },
                    Pending::Join { target } => Instr::Join {
                        off: resolve(*target, at)?,
                    },
                    Pending::Pred {
                        rs1,
                        rs2,
                        exit_target,
                    } => Instr::Pred {
                        rs1: *rs1,
                        rs2: *rs2,
                        exit_off: resolve(*exit_target, at)?,
                    },
                };
                encode(&i).map_err(|e| AsmError {
                    message: e.to_string(),
                })?;
                Ok(i)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AluOp;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut a = Asm::new();
        let top = a.label();
        let end = a.label();
        a.bind(top);
        a.emit(Instr::OpImm {
            op: AluOp::Add,
            rd: 5,
            rs1: 5,
            imm: -1,
        });
        a.branch(BranchCond::Ne, 5, 0, top); // backward: offset -1
        a.jump(end); // forward: offset +1
        a.bind(end);
        a.emit(Instr::Halt);
        let code = a.finish().unwrap();
        assert_eq!(
            code[1],
            Instr::Branch {
                cond: BranchCond::Ne,
                rs1: 5,
                rs2: 0,
                offset: -1
            }
        );
        assert_eq!(code[2], Instr::Jal { rd: 0, offset: 1 });
    }

    #[test]
    fn unbound_label_is_error() {
        let mut a = Asm::new();
        let ghost = a.label();
        a.jump(ghost);
        assert!(a.finish().is_err());
    }

    #[test]
    fn offset_past_its_field_is_error() {
        let mut a = Asm::new();
        let far = a.label();
        a.split(9, far);
        for _ in 0..2048 {
            a.emit(Instr::Halt);
        }
        a.bind(far);
        a.emit(Instr::Halt);
        let e = a.finish().unwrap_err();
        assert!(e.message.contains("does not fit"), "{e}");
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut a = Asm::new();
        let l = a.label();
        a.bind(l);
        a.bind(l);
    }

    #[test]
    fn split_join_pred_offsets() {
        let mut a = Asm::new();
        let els = a.label();
        let join = a.label();
        a.split(9, els); // 0
        a.emit(Instr::Halt); // 1 (then body stand-in)
        a.join(join); // 2
        a.bind(els);
        a.emit(Instr::Halt); // 3 (else body stand-in)
        a.join(join); // 4
        a.bind(join);
        a.emit(Instr::Halt); // 5
        let code = a.finish().unwrap();
        assert_eq!(
            code[0],
            Instr::Split {
                rs1: 9,
                else_off: 3
            }
        );
        assert_eq!(code[2], Instr::Join { off: 3 });
        assert_eq!(code[4], Instr::Join { off: 1 });
    }
}
