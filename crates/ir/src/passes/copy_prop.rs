//! Local copy propagation for `Mov` chains.
//!
//! Within a block, after `dst = mov src`, later uses of `dst` are rewritten
//! to `src` until either register is reassigned.

use crate::func::Function;
use crate::inst::Op;
use crate::value::{Operand, VReg};
use repro_util::fxhash::FxHashMap;

/// Run the pass; returns the number of operands rewritten.
pub fn run(f: &mut Function) -> usize {
    let mut changed = 0;
    for b in &mut f.blocks {
        // copy_of[dst] = src while valid.
        let mut copy_of: FxHashMap<VReg, VReg> = FxHashMap::default();
        for inst in &mut b.insts {
            inst.op.map_operands(|o| match o {
                Operand::Reg(r) => match copy_of.get(&r) {
                    Some(&src) => {
                        changed += 1;
                        Operand::Reg(src)
                    }
                    None => o,
                },
                c => c,
            });
            if let Some(dst) = inst.result {
                // Any binding *to* or *through* dst dies.
                copy_of.remove(&dst);
                copy_of.retain(|_, src| *src != dst);
                if let Op::Mov {
                    a: Operand::Reg(src),
                    ..
                } = inst.op
                {
                    if src != dst && f.vreg_types[src.index()] == f.vreg_types[dst.index()] {
                        copy_of.insert(dst, src);
                    }
                }
            }
        }
        if let crate::inst::Terminator::CondBr { cond, .. } = &mut b.term {
            if let Operand::Reg(r) = cond {
                if let Some(&src) = copy_of.get(r) {
                    *cond = Operand::Reg(src);
                    changed += 1;
                }
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::Scalar;
    use crate::value::Operand;
    use crate::BinOp;

    #[test]
    fn propagates_simple_copy() {
        let mut b = FunctionBuilder::new("k", vec![]);
        let gid = b.workitem(crate::Builtin::GlobalId(0));
        let cp = b.mov(Scalar::U32, gid.into());
        let sum = b.bin(BinOp::Add, Scalar::U32, cp.into(), Operand::imm_u32(1));
        let _ = sum;
        b.ret();
        let mut f = b.finish();
        assert_eq!(run(&mut f), 1);
        match &f.blocks[0].insts[2].op {
            Op::Bin { a, .. } => assert_eq!(*a, Operand::Reg(gid)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn source_reassignment_kills_copy() {
        // cp = mov gid; gid = mov 0; use(cp) must NOT become use(gid).
        let mut b = FunctionBuilder::new("k", vec![]);
        let gid = b.workitem(crate::Builtin::GlobalId(0));
        let cp = b.mov(Scalar::U32, gid.into());
        b.assign(gid, Scalar::U32, Operand::imm_u32(0));
        let sum = b.bin(BinOp::Add, Scalar::U32, cp.into(), Operand::imm_u32(1));
        let _ = sum;
        b.ret();
        let mut f = b.finish();
        run(&mut f);
        match &f.blocks[0].insts[3].op {
            Op::Bin { a, .. } => assert_eq!(*a, Operand::Reg(cp), "copy wrongly propagated"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dest_reassignment_kills_copy() {
        let mut b = FunctionBuilder::new("k", vec![]);
        let gid = b.workitem(crate::Builtin::GlobalId(0));
        let cp = b.mov(Scalar::U32, gid.into());
        b.assign(cp, Scalar::U32, Operand::imm_u32(7));
        let sum = b.bin(BinOp::Add, Scalar::U32, cp.into(), Operand::imm_u32(1));
        let _ = sum;
        b.ret();
        let mut f = b.finish();
        run(&mut f);
        match &f.blocks[0].insts[3].op {
            Op::Bin { a, .. } => assert_eq!(*a, Operand::Reg(cp)),
            other => panic!("unexpected {other:?}"),
        }
    }
}
