//! Warp divergence analysis.
//!
//! The Vortex ISA manages intra-warp divergence with the SPLIT / JOIN / PRED
//! instructions (paper §II-D). The code generator only needs to emit those
//! (and pay their extra cycles — paper §IV-A challenge ❸) for branches whose
//! condition actually varies across the threads of a warp. This module
//! computes a sound over-approximation of that set.
//!
//! The analysis is a fixed point over two interacting facts:
//! * **value divergence** — a register may hold different values in
//!   different threads. Sources: per-thread builtins (`get_global_id`, …),
//!   loads through divergent addresses, atomics (each thread sees a
//!   different old value), and any computation over divergent inputs.
//! * **control divergence** — an assignment executed under a divergent
//!   branch makes the assigned register divergent (threads that skipped the
//!   assignment keep the old value). Control dependence is derived from the
//!   post-dominator tree.

use crate::cfg::{Cfg, PostDominators};
use crate::func::{BlockId, Function};
use crate::inst::{Op, Terminator};
use crate::value::Operand;

/// Result of the analysis.
#[derive(Debug, Clone)]
pub struct DivergenceInfo {
    /// Per-register: may the value vary across threads of a warp?
    pub div_reg: Vec<bool>,
    /// Per-block: does the block end in a divergent conditional branch?
    pub div_branch: Vec<bool>,
}

impl DivergenceInfo {
    /// Run the analysis on `f`, given its CFG and post-dominators.
    pub fn analyze(f: &Function, cfg: &Cfg, pdom: &PostDominators) -> Self {
        let n_blocks = f.blocks.len();

        // Row `a` of `cd` = blocks control-dependent on block a's branch:
        // everything reachable from a's successors without passing through
        // ipdom(a).
        let mut cd = vec![false; n_blocks * n_blocks];
        let mut work: Vec<BlockId> = Vec::new();
        for (id, b) in f.iter_blocks() {
            if !matches!(b.term, Terminator::CondBr { .. }) || !cfg.is_reachable(id) {
                continue;
            }
            let stop = pdom.ipdom(id);
            let seen = &mut cd[id.index() * n_blocks..][..n_blocks];
            work.extend_from_slice(&cfg.succs[id.index()]);
            while let Some(cur) = work.pop() {
                if Some(cur) == stop || seen[cur.index()] {
                    continue;
                }
                seen[cur.index()] = true;
                work.extend(cfg.succs[cur.index()].iter().copied());
            }
        }

        let mut div_reg = vec![false; f.num_vregs()];
        let mut div_branch = vec![false; n_blocks];
        // Blocks currently under divergent control.
        let mut under = vec![false; n_blocks];
        loop {
            let mut changed = false;
            under.fill(false);
            for a in (0..n_blocks).filter(|&a| div_branch[a]) {
                let region = &cd[a * n_blocks..][..n_blocks];
                for (u, &in_region) in under.iter_mut().zip(region) {
                    *u |= in_region;
                }
            }
            for &bb in &cfg.rpo {
                let block = f.block(bb);
                for inst in &block.insts {
                    let Some(r) = inst.result else { continue };
                    if div_reg[r.index()] {
                        continue;
                    }
                    let mut d = under[bb.index()] || source_divergence(&inst.op);
                    if !d {
                        inst.op.for_each_operand(|o| {
                            if let Operand::Reg(x) = o {
                                d |= div_reg[x.index()];
                            }
                        });
                    }
                    // Loads are divergent when the address is divergent.
                    if !d {
                        if let Op::Load {
                            ptr: Operand::Reg(x),
                            ..
                        } = &inst.op
                        {
                            d |= div_reg[x.index()];
                        }
                    }
                    if d {
                        div_reg[r.index()] = true;
                        changed = true;
                    }
                }
                if let Terminator::CondBr { cond, .. } = &block.term {
                    let d = match cond {
                        Operand::Reg(r) => div_reg[r.index()],
                        Operand::Const(_) => false,
                    };
                    if d && !div_branch[bb.index()] {
                        div_branch[bb.index()] = true;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        DivergenceInfo {
            div_reg,
            div_branch,
        }
    }

    /// Whether the branch terminating `bb` diverges.
    pub fn is_divergent_branch(&self, bb: BlockId) -> bool {
        self.div_branch[bb.index()]
    }

    /// Number of divergent branches (used by reports).
    pub fn divergent_branch_count(&self) -> usize {
        self.div_branch.iter().filter(|&&b| b).count()
    }
}

/// Ops that are divergent regardless of operands.
fn source_divergence(op: &Op) -> bool {
    match op {
        Op::WorkItem(b) => !b.is_uniform(),
        // Each thread receives a distinct old value.
        Op::AtomicRmw { .. } => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::func::Param;
    use crate::types::{AddressSpace, Scalar, Type};
    use crate::value::{Operand, VReg};
    use crate::{BinOp, Builtin, CmpOp};

    fn analyze(f: &Function) -> DivergenceInfo {
        let cfg = Cfg::new(f);
        DivergenceInfo::analyze(f, &cfg, &PostDominators::new(f, &cfg))
    }

    fn gptr() -> Param {
        Param {
            name: "p".into(),
            ty: Type::Ptr(AddressSpace::Global),
        }
    }

    fn iparam(name: &str) -> Param {
        Param {
            name: name.into(),
            ty: Type::Scalar(Scalar::I32),
        }
    }

    #[test]
    fn gid_branch_is_divergent() {
        let mut b = FunctionBuilder::new("k", vec![]);
        let gid = b.workitem(Builtin::GlobalId(0));
        let c = b.cmp(CmpOp::Lt, Scalar::U32, gid.into(), Operand::imm_u32(8));
        let t = b.new_block();
        let e = b.new_block();
        b.cond_br(c.into(), t, e);
        b.switch_to(t);
        b.ret();
        b.switch_to(e);
        b.ret();
        let f = b.finish();
        let d = analyze(&f);
        assert!(d.is_divergent_branch(BlockId(0)));
        assert_eq!(d.divergent_branch_count(), 1);
    }

    #[test]
    fn uniform_param_loop_is_uniform() {
        // for (i = 0; i < n; i++) with n a kernel scalar param: uniform.
        let mut b = FunctionBuilder::new("k", vec![iparam("n")]);
        let i = b.mov(Scalar::I32, Operand::imm_i32(0));
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(head);
        b.switch_to(head);
        let c = b.cmp(CmpOp::Lt, Scalar::I32, i.into(), Operand::Reg(b.param(0)));
        b.cond_br(c.into(), body, exit);
        b.switch_to(body);
        let i2 = b.bin(BinOp::Add, Scalar::I32, i.into(), Operand::imm_i32(1));
        b.assign(i, Scalar::I32, i2.into());
        b.br(head);
        b.switch_to(exit);
        b.ret();
        let f = b.finish();
        let d = analyze(&f);
        assert!(
            !d.is_divergent_branch(BlockId(1)),
            "uniform loop marked divergent"
        );
        assert_eq!(d.divergent_branch_count(), 0);
    }

    #[test]
    fn divergent_trip_count_loop() {
        // for (i = 0; i < gid; i++): divergent loop branch.
        let mut b = FunctionBuilder::new("k", vec![]);
        let gid = b.workitem(Builtin::GlobalId(0));
        let i = b.mov(Scalar::U32, Operand::imm_u32(0));
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(head);
        b.switch_to(head);
        let c = b.cmp(CmpOp::Lt, Scalar::U32, i.into(), gid.into());
        b.cond_br(c.into(), body, exit);
        b.switch_to(body);
        let i2 = b.bin(BinOp::Add, Scalar::U32, i.into(), Operand::imm_u32(1));
        b.assign(i, Scalar::U32, i2.into());
        b.br(head);
        b.switch_to(exit);
        b.ret();
        let f = b.finish();
        let d = analyze(&f);
        assert!(d.is_divergent_branch(BlockId(1)));
    }

    #[test]
    fn assignment_under_divergent_branch_taints_register() {
        // x = 0; if (gid < 8) x = 1; branch on x afterwards must be divergent.
        let mut b = FunctionBuilder::new("k", vec![]);
        let x = b.mov(Scalar::I32, Operand::imm_i32(0));
        let gid = b.workitem(Builtin::GlobalId(0));
        let c = b.cmp(CmpOp::Lt, Scalar::U32, gid.into(), Operand::imm_u32(8));
        let t = b.new_block();
        let join = b.new_block();
        let t2 = b.new_block();
        let e2 = b.new_block();
        b.cond_br(c.into(), t, join);
        b.switch_to(t);
        b.assign(x, Scalar::I32, Operand::imm_i32(1));
        b.br(join);
        b.switch_to(join);
        let c2 = b.cmp(CmpOp::Eq, Scalar::I32, x.into(), Operand::imm_i32(1));
        b.cond_br(c2.into(), t2, e2);
        b.switch_to(t2);
        b.ret();
        b.switch_to(e2);
        b.ret();
        let f = b.finish();
        let d = analyze(&f);
        assert!(d.div_reg[x.index()], "x must be divergent");
        assert!(d.is_divergent_branch(BlockId(2)), "second branch divergent");
    }

    #[test]
    fn load_through_divergent_address_is_divergent() {
        let mut b = FunctionBuilder::new("k", vec![gptr()]);
        let gid = b.workitem(Builtin::GlobalId(0));
        let addr = b.gep(
            Operand::Reg(b.param(0)),
            gid.into(),
            4,
            AddressSpace::Global,
        );
        let v = b.load(addr.into(), Scalar::I32, AddressSpace::Global);
        b.ret();
        let f = b.finish();
        let d = analyze(&f);
        assert!(d.div_reg[v.index()]);
    }

    #[test]
    fn uniform_address_load_is_uniform() {
        let mut b = FunctionBuilder::new("k", vec![gptr()]);
        let addr = b.gep(
            Operand::Reg(b.param(0)),
            Operand::imm_u32(0),
            4,
            AddressSpace::Global,
        );
        let v = b.load(addr.into(), Scalar::I32, AddressSpace::Global);
        let _ = v;
        b.ret();
        let f = b.finish();
        let d = analyze(&f);
        assert!(!d.div_reg[VReg(2).index()], "uniform load marked divergent");
    }

    #[test]
    fn atomic_result_is_divergent() {
        let mut b = FunctionBuilder::new("k", vec![gptr()]);
        let addr = b.gep(
            Operand::Reg(b.param(0)),
            Operand::imm_u32(0),
            4,
            AddressSpace::Global,
        );
        let old = b.atomic(
            crate::AtomicOp::Add,
            addr.into(),
            Operand::imm_i32(1),
            Scalar::I32,
            AddressSpace::Global,
        );
        let d = {
            b.ret();
            analyze(&b.finish())
        };
        assert!(d.div_reg[old.index()]);
    }
}
