//! Local constant folding and constant propagation.
//!
//! Per-block only: a register's constant binding is invalidated when the
//! register is reassigned and at block boundaries, which keeps the pass sound
//! on the mutable-register IR without needing reaching definitions.

use crate::func::Function;
use crate::inst::{BinOp, CmpOp, Op, UnOp};
use crate::interp;
use crate::types::Scalar;
use crate::value::{Const, Operand, VReg};
use rustc_hash::FxHashMap;

/// Run the pass; returns the number of instructions folded or operands
/// propagated.
pub fn run(f: &mut Function) -> usize {
    let mut changed = 0;
    for b in &mut f.blocks {
        let mut known: FxHashMap<VReg, Const> = FxHashMap::default();
        for inst in &mut b.insts {
            // Propagate known constants into operands.
            inst.op.map_operands(|o| match o {
                Operand::Reg(r) => match known.get(&r) {
                    Some(&c) => {
                        changed += 1;
                        Operand::Const(c)
                    }
                    None => o,
                },
                c => c,
            });
            // Invalidate any binding for the destination.
            if let Some(r) = inst.result {
                known.remove(&r);
            }
            // Try to evaluate.
            if let Some(c) = eval(&inst.op) {
                if !matches!(
                    inst.op,
                    Op::Mov {
                        a: Operand::Const(_),
                        ..
                    }
                ) {
                    inst.op = Op::Mov {
                        ty: c.scalar(),
                        a: Operand::Const(c),
                    };
                    changed += 1;
                }
                if let Some(r) = inst.result {
                    known.insert(r, c);
                }
            }
        }
        // Propagate into the terminator condition.
        if let crate::inst::Terminator::CondBr { cond, .. } = &mut b.term {
            if let Operand::Reg(r) = cond {
                if let Some(&c) = known.get(r) {
                    *cond = Operand::Const(c);
                    changed += 1;
                }
            }
        }
    }
    changed
}

/// Evaluate an op whose operands are all constants.
///
/// Values come from [`interp::eval_bin`], [`interp::eval_un`] and
/// [`interp::eval_cmp`], so a folded op is by construction the word the
/// interpreter would have computed. What is *declined* is decided here:
/// operands of different constant types, integer division by zero, bitwise
/// ops on floats and op/type pairs the front end never emits.
pub fn eval(op: &Op) -> Option<Const> {
    match op {
        Op::Mov {
            a: Operand::Const(c),
            ..
        } => Some(*c),
        Op::Bin {
            op,
            ty: _,
            a: Operand::Const(a),
            b: Operand::Const(b),
        } => eval_bin(*op, *a, *b),
        Op::Un {
            op,
            ty: _,
            a: Operand::Const(a),
        } => eval_un(*op, *a),
        Op::Cmp {
            op,
            ty: _,
            a: Operand::Const(a),
            b: Operand::Const(b),
        } => eval_cmp(*op, *a, *b),
        Op::Select {
            cond: Operand::Const(c),
            a: Operand::Const(a),
            b: Operand::Const(b),
            ..
        } => Some(if !c.is_zero() { *a } else { *b }),
        _ => None,
    }
}

fn eval_bin(op: BinOp, a: Const, b: Const) -> Option<Const> {
    let ty = a.scalar();
    let folds = match ty {
        _ if ty != b.scalar() => false,
        Scalar::I32 | Scalar::U32 => !(matches!(op, BinOp::Div | BinOp::Rem) && b.is_zero()),
        // Bitwise ops on floats never reach here (verifier/front end).
        Scalar::F32 => !matches!(
            op,
            BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr
        ),
        Scalar::Bool => false,
    };
    folds.then(|| Const::from_bits(ty, interp::eval_bin(op, ty, a.bits(), b.bits())))
}

fn eval_un(op: UnOp, a: Const) -> Option<Const> {
    use Scalar::*;
    let ty = a.scalar();
    let result_ty = match (op, ty) {
        (UnOp::IntCast, _) => return Some(a),
        (UnOp::Neg | UnOp::Abs, I32 | F32) | (UnOp::Not, I32 | U32 | Bool) => ty,
        (UnOp::Sqrt | UnOp::Exp | UnOp::Log | UnOp::Sin | UnOp::Cos | UnOp::Floor, F32) => F32,
        (UnOp::F2I, F32) => I32,
        (UnOp::I2F, I32) | (UnOp::U2F, U32) => F32,
        _ => return None,
    };
    Some(Const::from_bits(
        result_ty,
        interp::eval_un(op, ty, a.bits()),
    ))
}

fn eval_cmp(op: CmpOp, a: Const, b: Const) -> Option<Const> {
    let ty = a.scalar();
    (ty == b.scalar()).then(|| Const::Bool(interp::eval_cmp(op, ty, a.bits(), b.bits())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    #[test]
    fn folds_chained_constants() {
        let mut b = FunctionBuilder::new("k", vec![]);
        let x = b.bin(
            BinOp::Add,
            Scalar::I32,
            Operand::imm_i32(2),
            Operand::imm_i32(3),
        );
        let y = b.bin(BinOp::Mul, Scalar::I32, x.into(), Operand::imm_i32(4));
        b.ret();
        let mut f = b.finish();
        run(&mut f);
        // y must now be a constant 20.
        let inst = &f.blocks[0].insts[1];
        assert_eq!(inst.result, Some(y));
        assert!(
            matches!(
                inst.op,
                Op::Mov {
                    a: Operand::Const(Const::I32(20)),
                    ..
                }
            ),
            "got {:?}",
            inst.op
        );
    }

    #[test]
    fn division_by_zero_not_folded() {
        let mut b = FunctionBuilder::new("k", vec![]);
        b.bin(
            BinOp::Div,
            Scalar::I32,
            Operand::imm_i32(1),
            Operand::imm_i32(0),
        );
        b.ret();
        let mut f = b.finish();
        run(&mut f);
        assert!(matches!(f.blocks[0].insts[0].op, Op::Bin { .. }));
    }

    #[test]
    fn reassignment_invalidates_binding() {
        // x = 1; x = gid (not const); y = x + 0 must NOT fold x to 1.
        let mut b = FunctionBuilder::new("k", vec![]);
        let x = b.mov(Scalar::U32, Operand::imm_u32(1));
        let gid = b.workitem(crate::Builtin::GlobalId(0));
        b.assign(x, Scalar::U32, gid.into());
        let y = b.bin(BinOp::Add, Scalar::U32, x.into(), Operand::imm_u32(0));
        let _ = y;
        b.ret();
        let mut f = b.finish();
        run(&mut f);
        let inst = &f.blocks[0].insts[3];
        match &inst.op {
            Op::Bin { a, .. } => assert_eq!(*a, Operand::Reg(x)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn folds_float_math() {
        assert_eq!(eval_un(UnOp::Sqrt, Const::F32(9.0)), Some(Const::F32(3.0)));
        assert_eq!(
            eval_bin(BinOp::Max, Const::F32(1.0), Const::F32(2.0)),
            Some(Const::F32(2.0))
        );
    }

    #[test]
    fn folded_values_are_the_interpreters() {
        use crate::interp::tests::{edge_values, BIN_OPS, CMP_OPS, SCALARS, UN_OPS};
        let same = |c: Const, bits: u32| {
            c.bits() == bits
                || matches!(c, Const::F32(v) if v.is_nan() && f32::from_bits(bits).is_nan())
        };
        let vals = edge_values();
        let mut folded = 0;
        for ty in SCALARS {
            for &x in &vals {
                // A `Bool` constant holds only 0 or 1.
                let a = Const::from_bits(ty, x);
                for op in UN_OPS {
                    let Some(c) = eval(&Op::Un {
                        op,
                        ty,
                        a: a.into(),
                    }) else {
                        continue;
                    };
                    assert!(same(c, interp::eval_un(op, ty, a.bits())), "{op:?} {a}");
                    folded += 1;
                }
                for &y in &vals {
                    let b = Const::from_bits(ty, y);
                    let (oa, ob) = (Operand::Const(a), Operand::Const(b));
                    for op in BIN_OPS {
                        let Some(c) = eval(&Op::Bin {
                            op,
                            ty,
                            a: oa,
                            b: ob,
                        }) else {
                            assert!(
                                ty == Scalar::Bool || ty == Scalar::F32 || b.is_zero(),
                                "integer {op:?} {a} {b} must fold"
                            );
                            continue;
                        };
                        assert_eq!(c.scalar(), ty);
                        assert!(
                            same(c, interp::eval_bin(op, ty, a.bits(), b.bits())),
                            "{op:?} {a} {b}"
                        );
                        folded += 1;
                    }
                    for op in CMP_OPS {
                        let c = eval(&Op::Cmp {
                            op,
                            ty,
                            a: oa,
                            b: ob,
                        })
                        .expect("compares fold");
                        assert_eq!(
                            c,
                            Const::Bool(interp::eval_cmp(op, ty, a.bits(), b.bits())),
                            "{op:?} {a} {b}"
                        );
                        folded += 1;
                    }
                }
            }
        }
        assert!(folded > 20_000, "only {folded} folds exercised");
    }

    #[test]
    fn float_to_int_of_nan_saturates_like_the_execution() {
        // RISC-V fcvt.w.s, which both back ends implement: NaN -> i32::MAX.
        assert_eq!(
            eval_un(UnOp::F2I, Const::F32(f32::NAN)),
            Some(Const::I32(i32::MAX))
        );
        assert_eq!(
            eval_un(UnOp::F2I, Const::F32(3.0e9)),
            Some(Const::I32(i32::MAX))
        );
        assert_eq!(eval_un(UnOp::F2I, Const::F32(-1.5)), Some(Const::I32(-1)));
    }

    #[test]
    fn folds_comparisons() {
        assert_eq!(
            eval_cmp(CmpOp::Le, Const::U32(3), Const::U32(3)),
            Some(Const::Bool(true))
        );
        assert_eq!(
            eval_cmp(CmpOp::Gt, Const::I32(-1), Const::I32(0)),
            Some(Const::Bool(false))
        );
    }

    #[test]
    fn propagates_into_branch_condition() {
        let mut b = FunctionBuilder::new("k", vec![]);
        let c = b.cmp(
            CmpOp::Lt,
            Scalar::I32,
            Operand::imm_i32(1),
            Operand::imm_i32(2),
        );
        let t = b.new_block();
        let e = b.new_block();
        b.cond_br(c.into(), t, e);
        b.switch_to(t);
        b.ret();
        b.switch_to(e);
        b.ret();
        let mut f = b.finish();
        run(&mut f);
        match &f.blocks[0].term {
            crate::Terminator::CondBr { cond, .. } => {
                assert_eq!(*cond, Operand::Const(Const::Bool(true)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
