//! Dead-code elimination.
//!
//! Removes pure instructions whose results are never used, driven by the
//! liveness analysis so values dead across block boundaries are caught too.

use crate::cfg::Cfg;
use crate::func::Function;
use crate::liveness::{Liveness, RegSet};
use crate::value::Operand;

/// Run the pass; returns the number of instructions removed.
pub fn run(f: &mut Function) -> usize {
    let cfg = Cfg::new(f);
    let lv = Liveness::compute(f, &cfg);
    run_with(f, &lv)
}

/// Like [`run`], but reusing a precomputed liveness result (the pass
/// manager caches analyses across passes).
pub fn run_with(f: &mut Function, lv: &Liveness) -> usize {
    let mut removed = 0;
    let mut live = RegSet::new(f.num_vregs());
    let mut keep = Vec::new();
    for (bi, b) in f.blocks.iter_mut().enumerate() {
        live.copy_from(lv.live_out(bi));
        // Terminator uses.
        if let crate::inst::Terminator::CondBr {
            cond: Operand::Reg(r),
            ..
        } = &b.term
        {
            live.insert(*r);
        }
        // Backward sweep marking deletions.
        keep.clear();
        keep.resize(b.insts.len(), true);
        for (ii, inst) in b.insts.iter().enumerate().rev() {
            let dead = inst.op.is_pure()
                && match inst.result {
                    Some(r) => !live.contains(r),
                    None => true,
                };
            if dead {
                keep[ii] = false;
                removed += 1;
                continue;
            }
            if let Some(r) = inst.result {
                live.remove(r);
            }
            inst.op.for_each_operand(|o| {
                if let Operand::Reg(r) = o {
                    live.insert(r);
                }
            });
        }
        let mut it = keep.iter();
        b.insts
            .retain(|_| *it.next().expect("keep mask matches length"));
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::{AddressSpace, Scalar, Type};
    use crate::value::Operand;
    use crate::{BinOp, Builtin};

    #[test]
    fn removes_dead_chain() {
        let mut b = FunctionBuilder::new("k", vec![]);
        let x = b.mov(Scalar::I32, Operand::imm_i32(1));
        let _y = b.bin(BinOp::Add, Scalar::I32, x.into(), Operand::imm_i32(2));
        b.ret();
        let mut f = b.finish();
        assert_eq!(run(&mut f), 2);
        assert_eq!(f.num_insts(), 0);
    }

    #[test]
    fn keeps_stores_and_their_inputs() {
        let mut b = FunctionBuilder::new(
            "k",
            vec![crate::Param {
                name: "p".into(),
                ty: Type::Ptr(AddressSpace::Global),
            }],
        );
        let gid = b.workitem(Builtin::GlobalId(0));
        let addr = b.gep(
            Operand::Reg(b.param(0)),
            gid.into(),
            4,
            AddressSpace::Global,
        );
        b.store(
            addr.into(),
            Operand::imm_f32(1.0),
            Scalar::F32,
            AddressSpace::Global,
        );
        b.ret();
        let mut f = b.finish();
        assert_eq!(run(&mut f), 0);
        assert_eq!(f.num_insts(), 3);
    }

    #[test]
    fn keeps_value_live_across_blocks() {
        let mut b = FunctionBuilder::new("k", vec![]);
        let x = b.workitem(Builtin::GlobalId(0));
        let next = b.new_block();
        b.br(next);
        b.switch_to(next);
        let c = b.cmp(crate::CmpOp::Lt, Scalar::U32, x.into(), Operand::imm_u32(4));
        let t = b.new_block();
        let e = b.new_block();
        b.cond_br(c.into(), t, e);
        b.switch_to(t);
        b.ret();
        b.switch_to(e);
        b.ret();
        let mut f = b.finish();
        assert_eq!(run(&mut f), 0);
        assert_eq!(f.blocks[0].insts.len(), 1, "gid kept");
    }

    #[test]
    fn dead_load_is_removed_only_if_pure_policy_allows() {
        // Loads are not pure (they can fault / have perf effects on HLS LSU
        // counts), so DCE must keep them; the CSE pass replaces them with
        // movs first, which then die here.
        let mut b = FunctionBuilder::new(
            "k",
            vec![crate::Param {
                name: "p".into(),
                ty: Type::Ptr(AddressSpace::Global),
            }],
        );
        let addr = b.gep(
            Operand::Reg(b.param(0)),
            Operand::imm_u32(0),
            4,
            AddressSpace::Global,
        );
        let _dead = b.load(addr.into(), Scalar::F32, AddressSpace::Global);
        b.ret();
        let mut f = b.finish();
        let removed = run(&mut f);
        // The load stays; its (now-dead) gep feeds it so it stays too.
        assert_eq!(removed, 0);
        assert_eq!(f.num_insts(), 2);
    }
}
