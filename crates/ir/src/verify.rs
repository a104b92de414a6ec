//! IR well-formedness verifier.
//!
//! Both back ends call this before consuming a module, so malformed IR is
//! rejected with a source-level error instead of a back-end panic — the same
//! role `llvm::verifyModule` plays in the flows of Figures 3 and 5.

use crate::func::{Function, Module};
use crate::inst::{Op, Terminator};
use crate::types::{Scalar, Type};
use crate::value::Operand;

/// A verification failure, with the kernel and block it occurred in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    pub kernel: String,
    pub detail: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "verify error in kernel `{}`: {}",
            self.kernel, self.detail
        )
    }
}

impl std::error::Error for VerifyError {}

/// Verify every kernel in a module.
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    for k in &m.kernels {
        verify_function(k)?;
    }
    Ok(())
}

/// Verify a single function.
pub fn verify_function(f: &Function) -> Result<(), VerifyError> {
    let err = |detail: String| VerifyError {
        kernel: f.name.clone(),
        detail,
    };
    if f.blocks.is_empty() {
        return Err(err("function has no blocks".into()));
    }
    if f.params.len() > f.vreg_types.len() {
        return Err(err("fewer vregs than parameters".into()));
    }
    for (i, p) in f.params.iter().enumerate() {
        if f.vreg_types[i] != p.ty {
            return Err(err(format!(
                "vreg %{i} type {} does not match parameter `{}` type {}",
                f.vreg_types[i], p.name, p.ty
            )));
        }
    }
    let n_blocks = f.blocks.len();
    for (bi, b) in f.blocks.iter().enumerate() {
        if b.id.index() != bi {
            return Err(err(format!("block at index {bi} has id {}", b.id)));
        }
        for (ii, inst) in b.insts.iter().enumerate() {
            let at = At(bi, ii);
            // Result arity matches the op kind.
            match (inst.result, inst.op.has_result()) {
                (None, true) => return Err(err(format!("{at}: op result dropped"))),
                (Some(_), false) => return Err(err(format!("{at}: result on void op"))),
                _ => {}
            }
            if let Some(r) = inst.result {
                if r.index() >= f.vreg_types.len() {
                    return Err(err(format!("{at}: result {r} out of range")));
                }
                let want = result_type(f, &inst.op);
                if let Some(want) = want {
                    let got = f.vreg_types[r.index()];
                    if got != want {
                        return Err(err(format!(
                            "{at}: result {r} has type {got}, op produces {want}"
                        )));
                    }
                }
            }
            let mut op_err = None;
            inst.op.for_each_operand(|o| {
                if let Operand::Reg(r) = o {
                    if r.index() >= f.vreg_types.len() {
                        op_err = Some(format!("{at}: operand {r} out of range"));
                    }
                }
            });
            if let Some(e) = op_err {
                return Err(err(e));
            }
            // Space-specific checks.
            match &inst.op {
                Op::Gep {
                    base: Operand::Reg(r),
                    space,
                    ..
                } if f.vreg_types[r.index()] != Type::Ptr(*space) => {
                    return Err(err(format!(
                        "{at}: gep base {r} is {}, expected ptr<{space}>",
                        f.vreg_types[r.index()]
                    )));
                }
                Op::Load { ptr, space, .. }
                | Op::Store { ptr, space, .. }
                | Op::AtomicRmw { ptr, space, .. } => {
                    if let Operand::Reg(r) = ptr {
                        if f.vreg_types[r.index()] != Type::Ptr(*space) {
                            return Err(err(format!(
                                "{at}: memory op pointer {r} is {}, expected ptr<{space}>",
                                f.vreg_types[r.index()]
                            )));
                        }
                    }
                }
                Op::LocalAddr(id) if id.index() >= f.local_arrays.len() => {
                    return Err(err(format!("{at}: local array #{} undeclared", id.0)));
                }
                _ => {}
            }
        }
        // Terminator targets in range.
        match &b.term {
            Terminator::Br { target } => {
                if target.index() >= n_blocks {
                    return Err(err(format!("bb{bi}: branch target {target} out of range")));
                }
            }
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => {
                for t in [then_bb, else_bb] {
                    if t.index() >= n_blocks {
                        return Err(err(format!("bb{bi}: branch target {t} out of range")));
                    }
                }
            }
            Terminator::Ret => {}
        }
    }
    Ok(())
}

/// An instruction's location, `bb{block}[{index}]`: formatted only when an
/// error message is built, never on the success path.
#[derive(Clone, Copy)]
struct At(usize, usize);

impl std::fmt::Display for At {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bb{}[{}]", self.0, self.1)
    }
}

/// Result type of an op, or `None` when the op's declared register type is
/// authoritative (e.g. `Mov` used for int<->bool coercion by the front end).
fn result_type(_f: &Function, op: &Op) -> Option<Type> {
    Some(match op {
        Op::Bin { ty, .. } | Op::Select { ty, .. } => Type::Scalar(*ty),
        Op::Cmp { .. } => Type::Scalar(Scalar::Bool),
        Op::Un { op, ty, .. } => Type::Scalar(match op {
            crate::inst::UnOp::F2I => Scalar::I32,
            crate::inst::UnOp::I2F | crate::inst::UnOp::U2F => Scalar::F32,
            // IntCast moves bits between integer/bool types; the declared
            // destination type is authoritative.
            crate::inst::UnOp::IntCast => return None,
            _ => *ty,
        }),
        // Mov is also used by the front end for int<->bool coercion, so the
        // destination register's declared type is authoritative.
        Op::Mov { .. } => return None,
        Op::Gep { space, .. } => Type::Ptr(*space),
        Op::Load { ty, .. } | Op::AtomicRmw { ty, .. } => Type::Scalar(*ty),
        Op::WorkItem(_) => Type::Scalar(Scalar::U32),
        Op::LocalAddr(_) => Type::Ptr(crate::types::AddressSpace::Local),
        Op::Store { .. } | Op::Barrier | Op::Printf { .. } => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::func::{BlockId, Param};
    use crate::inst::Inst;
    use crate::types::AddressSpace;
    use crate::value::{Operand, VReg};
    use crate::{BinOp, Builtin};

    fn ok_kernel() -> Function {
        let mut b = FunctionBuilder::new(
            "k",
            vec![Param {
                name: "a".into(),
                ty: Type::Ptr(AddressSpace::Global),
            }],
        );
        let gid = b.workitem(Builtin::GlobalId(0));
        let p = b.gep(
            Operand::Reg(b.param(0)),
            gid.into(),
            4,
            AddressSpace::Global,
        );
        let v = b.load(p.into(), Scalar::F32, AddressSpace::Global);
        let w = b.bin(BinOp::Add, Scalar::F32, v.into(), v.into());
        b.store(p.into(), w.into(), Scalar::F32, AddressSpace::Global);
        b.ret();
        b.finish()
    }

    #[test]
    fn valid_kernel_passes() {
        verify_function(&ok_kernel()).unwrap();
    }

    #[test]
    fn bad_branch_target_rejected() {
        let mut f = ok_kernel();
        f.blocks[0].term = Terminator::Br {
            target: BlockId(99),
        };
        let e = verify_function(&f).unwrap_err();
        assert!(e.detail.contains("out of range"), "{e}");
    }

    #[test]
    fn out_of_range_operand_rejected() {
        let mut f = ok_kernel();
        f.blocks[0].insts[3] = Inst {
            result: Some(VReg(4)),
            op: Op::Bin {
                op: BinOp::Add,
                ty: Scalar::F32,
                a: Operand::Reg(VReg(77)),
                b: Operand::imm_f32(0.0),
            },
        };
        assert!(verify_function(&f).is_err());
    }

    #[test]
    fn wrong_pointer_space_rejected() {
        let mut f = ok_kernel();
        // Rewrite the load to claim the pointer is local.
        if let Op::Load { space, .. } = &mut f.blocks[0].insts[2].op {
            *space = AddressSpace::Local;
        }
        let e = verify_function(&f).unwrap_err();
        assert!(e.detail.contains("expected ptr<local>"), "{e}");
    }

    #[test]
    fn dropped_result_rejected() {
        let mut f = ok_kernel();
        f.blocks[0].insts[0].result = None;
        let e = verify_function(&f).unwrap_err();
        assert!(e.detail.contains("result dropped"), "{e}");
    }

    #[test]
    fn undeclared_local_array_rejected() {
        let mut b = FunctionBuilder::new("k", vec![]);
        // Bypass the builder's checks by pushing a raw LocalAddr.
        let r = b.fresh(Type::Ptr(AddressSpace::Local));
        b.push_into(r, Op::LocalAddr(crate::LocalArrayId(3)));
        b.ret();
        let f = b.finish();
        let e = verify_function(&f).unwrap_err();
        assert!(e.detail.contains("undeclared"), "{e}");
    }

    #[test]
    fn module_verify_reports_kernel_name() {
        let mut f = ok_kernel();
        f.name = "broken".into();
        f.blocks[0].term = Terminator::Br { target: BlockId(9) };
        let m = Module { kernels: vec![f] };
        let e = verify_module(&m).unwrap_err();
        assert_eq!(e.kernel, "broken");
    }

    #[test]
    fn result_type_mismatch_rejected() {
        let mut f = ok_kernel();
        // Claim the compare-free f32 add writes into the u32 gid register.
        f.blocks[0].insts[3].result = Some(VReg(1));
        let e = verify_function(&f).unwrap_err();
        assert!(e.detail.contains("op produces"), "{e}");
    }
}
