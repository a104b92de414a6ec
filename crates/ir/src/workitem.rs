//! Work-item dependence: how each register's value depends on the
//! work-item id.
//!
//! Both flows ask this one question about the same IR. The Vortex flow
//! needs to know which branches vary across the threads of a warp: only
//! those pay for SPLIT / JOIN / PRED (paper §II-D, §IV-A challenge ❸). The
//! HLS flow needs to know which global access sites step through memory one
//! element per adjacent work item: those get narrow burst buffers, while
//! every other site provisions the deep ones that dominate the BRAM counts
//! (§III-B).
//!
//! One flat lattice per register answers both, solved once per kernel as a
//! fixed point over two interacting facts:
//! * **data dependence** — per-thread builtins (`get_global_id`, …) are
//!   affine in one id dimension with unit stride; sums with uniform values
//!   keep the stride, scaling loses its unit, and loads through addresses
//!   that are not uniform, atomics (each thread sees a different old value)
//!   and any other arithmetic over non-uniform inputs are [`Dep::Varying`].
//!   A register assigned more than once joins all its assignments.
//! * **control dependence** — an assignment executed under a divergent
//!   branch cannot be uniform: threads that skipped it keep the old value.
//!   A value that is uniform on every path is then [`Dep::ControlDivergent`].
//!   Control dependence is derived from the post-dominator tree.

use crate::cfg::{Cfg, PostDominators};
use crate::func::{BlockId, Function};
use crate::inst::{BinOp, Builtin, Op, Terminator, UnOp};
use crate::value::Operand;

/// How a register's value depends on the work-item id. The variants are
/// ordered: a register assigned on several paths holds the join (the
/// maximum) of what each assignment computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dep {
    /// The same value in every work item: constants, kernel arguments, size
    /// queries and anything computed only from them.
    Uniform,
    /// Computed only from uniform values, but assigned under a divergent
    /// branch, so threads that took different paths may hold different
    /// values.
    ControlDivergent,
    /// `u + k · id(dim)` for uniform `u` and `k`; `unit` when `|k|` is one
    /// element, so adjacent work items touch adjacent elements.
    Affine { dim: u8, unit: bool },
    /// Anything else: indirect, data-dependent or a mix of dimensions.
    Varying,
}

impl Dep {
    fn rank(self) -> u8 {
        match self {
            Dep::Uniform => 0,
            Dep::ControlDivergent => 1,
            Dep::Affine { unit: true, .. } => 2,
            Dep::Affine { unit: false, .. } => 3,
            Dep::Varying => 4,
        }
    }

    fn join(self, other: Dep) -> Dep {
        match (self, other) {
            (Dep::Affine { dim: a, .. }, Dep::Affine { dim: b, .. }) if a != b => Dep::Varying,
            _ if self.rank() >= other.rank() => self,
            _ => other,
        }
    }

    /// Whether the value may differ between the threads of a warp.
    pub fn is_divergent(self) -> bool {
        self != Dep::Uniform
    }
}

/// Result of the analysis.
#[derive(Debug, Clone)]
pub struct WorkItemInfo {
    /// Per register.
    dep: Vec<Dep>,
    /// Per block: does the block end in a divergent conditional branch?
    div_branch: Vec<bool>,
}

impl WorkItemInfo {
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

        let mut info = WorkItemInfo {
            dep: vec![Dep::Uniform; f.num_vregs()],
            div_branch: vec![false; n_blocks],
        };
        // Blocks currently under divergent control.
        let mut under = vec![false; n_blocks];
        loop {
            let mut changed = false;
            under.fill(false);
            for a in (0..n_blocks).filter(|&a| info.div_branch[a]) {
                let region = &cd[a * n_blocks..][..n_blocks];
                for (u, &in_region) in under.iter_mut().zip(region) {
                    *u |= in_region;
                }
            }
            for &bb in &cfg.rpo {
                let block = f.block(bb);
                for inst in &block.insts {
                    let Some(r) = inst.result else { continue };
                    let mut d = info.transfer(&inst.op);
                    if under[bb.index()] {
                        d = d.join(Dep::ControlDivergent);
                    }
                    let old = info.dep[r.index()];
                    let new = old.join(d);
                    if new != old {
                        info.dep[r.index()] = new;
                        changed = true;
                    }
                }
                if let Terminator::CondBr { cond, .. } = &block.term {
                    if info.of(cond).is_divergent() && !info.div_branch[bb.index()] {
                        info.div_branch[bb.index()] = true;
                        changed = true;
                    }
                }
            }
            if !changed {
                return info;
            }
        }
    }

    /// The dependence of an operand's value on the work-item id.
    pub fn of(&self, o: &Operand) -> Dep {
        match o {
            Operand::Const(_) => Dep::Uniform,
            Operand::Reg(r) => self.dep[r.index()],
        }
    }

    /// Whether the branch terminating `bb` diverges.
    pub fn is_divergent_branch(&self, bb: BlockId) -> bool {
        self.div_branch[bb.index()]
    }

    /// What `op` computes from its operands' current dependence. Data rules
    /// see a control-divergent operand as uniform; the result is then
    /// control-divergent at least.
    fn transfer(&self, op: &Op) -> Dep {
        let data = |o: &Operand| match self.of(o) {
            Dep::ControlDivergent => Dep::Uniform,
            d => d,
        };
        let (mut control, mut all_uniform) = (false, true);
        op.for_each_operand(|o| {
            control |= self.of(&o) == Dep::ControlDivergent;
            all_uniform &= data(&o) == Dep::Uniform;
        });
        let d = match op {
            Op::WorkItem(Builtin::GlobalId(dim) | Builtin::LocalId(dim)) => Dep::Affine {
                dim: *dim,
                unit: true,
            },
            // A step function of the id, not an affine one.
            Op::WorkItem(Builtin::GroupId(_)) => Dep::Varying,
            Op::Mov { a, .. }
            | Op::Un {
                op: UnOp::IntCast | UnOp::Neg,
                a,
                ..
            } => data(a),
            // Threads whose addresses differ read unrelated data, even when
            // each address is a uniform function of the path taken.
            Op::Load { ptr, .. } if self.of(ptr) != Dep::Uniform => Dep::Varying,
            Op::AtomicRmw { .. } => Dep::Varying,
            Op::Bin {
                op: BinOp::Add | BinOp::Sub,
                a,
                b,
                ..
            }
            | Op::Gep {
                base: a, index: b, ..
            } => match (data(a), data(b)) {
                (Dep::Uniform, x) | (x, Dep::Uniform) => x,
                (Dep::Affine { dim: x, .. }, Dep::Affine { dim: y, .. }) if x == y => Dep::Affine {
                    dim: x,
                    unit: false,
                },
                _ => Dep::Varying,
            },
            Op::Bin { op, a, b, .. } if !all_uniform => match (op, data(a), data(b)) {
                (BinOp::Mul, Dep::Uniform, Dep::Affine { dim, .. })
                | (BinOp::Mul | BinOp::Shl, Dep::Affine { dim, .. }, Dep::Uniform) => {
                    Dep::Affine { dim, unit: false }
                }
                _ => Dep::Varying,
            },
            // Size queries, local array bases, and any other arithmetic,
            // compare, select or load over uniform operands.
            _ if all_uniform => Dep::Uniform,
            _ => Dep::Varying,
        };
        if control {
            d.join(Dep::ControlDivergent)
        } else {
            d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::func::Param;
    use crate::types::{AddressSpace, Scalar, Type};
    use crate::value::{Operand, VReg};
    use crate::CmpOp;

    fn analyze(f: &Function) -> WorkItemInfo {
        let cfg = Cfg::new(f);
        WorkItemInfo::analyze(f, &cfg, &PostDominators::new(f, &cfg))
    }

    fn dep(info: &WorkItemInfo, r: VReg) -> Dep {
        info.of(&Operand::Reg(r))
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

    fn divergent_branches(info: &WorkItemInfo) -> usize {
        info.div_branch.iter().filter(|&&b| b).count()
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
        let info = analyze(&f);
        assert!(info.is_divergent_branch(BlockId(0)));
        assert_eq!(divergent_branches(&info), 1);
        assert_eq!(dep(&info, gid), Dep::Affine { dim: 0, unit: true });
        assert_eq!(dep(&info, c), Dep::Varying);
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
        let info = analyze(&f);
        assert!(
            !info.is_divergent_branch(BlockId(1)),
            "uniform loop marked divergent"
        );
        assert_eq!(divergent_branches(&info), 0);
        assert_eq!(dep(&info, c), Dep::Uniform);
    }

    #[test]
    fn divergent_trip_count_loop() {
        // for (i = 0; i < gid; i++): divergent loop branch, and the counter
        // is control-divergent after it.
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
        let info = analyze(&f);
        assert!(info.is_divergent_branch(BlockId(1)));
        assert_eq!(dep(&info, i), Dep::ControlDivergent);
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
        let info = analyze(&f);
        assert_eq!(dep(&info, x), Dep::ControlDivergent, "x must be divergent");
        assert_eq!(dep(&info, c2), Dep::ControlDivergent);
        assert!(
            info.is_divergent_branch(BlockId(2)),
            "second branch divergent"
        );
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
        let info = analyze(&f);
        assert_eq!(dep(&info, addr), Dep::Affine { dim: 0, unit: true });
        assert_eq!(dep(&info, v), Dep::Varying);
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
        b.ret();
        let f = b.finish();
        assert_eq!(dep(&analyze(&f), v), Dep::Uniform);
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
        b.ret();
        assert_eq!(dep(&analyze(&b.finish()), old), Dep::Varying);
    }

    #[test]
    fn stride_follows_the_arithmetic() {
        // row = gid(1) * n + gid(0) mixes dimensions; gid(0) * 2 keeps its
        // dimension but loses the unit stride; n - gid(0) keeps both.
        let mut b = FunctionBuilder::new("k", vec![iparam("n")]);
        let n = Operand::Reg(b.param(0));
        let x = b.workitem(Builtin::GlobalId(0));
        let y = b.workitem(Builtin::GlobalId(1));
        let row = b.bin(BinOp::Mul, Scalar::I32, y.into(), n);
        let idx = b.bin(BinOp::Add, Scalar::I32, row.into(), x.into());
        let twice = b.bin(BinOp::Shl, Scalar::I32, x.into(), Operand::imm_i32(1));
        let back = b.bin(BinOp::Sub, Scalar::I32, n, x.into());
        let grp = b.workitem(Builtin::GroupId(0));
        let size = b.workitem(Builtin::GlobalSize(0));
        b.ret();
        let info = analyze(&b.finish());
        assert_eq!(
            dep(&info, row),
            Dep::Affine {
                dim: 1,
                unit: false
            }
        );
        assert_eq!(dep(&info, idx), Dep::Varying);
        assert_eq!(
            dep(&info, twice),
            Dep::Affine {
                dim: 0,
                unit: false
            }
        );
        assert_eq!(dep(&info, back), Dep::Affine { dim: 0, unit: true });
        assert_eq!(dep(&info, grp), Dep::Varying);
        assert_eq!(dep(&info, size), Dep::Uniform);
    }

    #[test]
    fn joins_are_ordered_and_mixed_dimensions_vary() {
        let x = Dep::Affine { dim: 0, unit: true };
        let y = Dep::Affine { dim: 1, unit: true };
        assert_eq!(
            Dep::Uniform.join(Dep::ControlDivergent),
            Dep::ControlDivergent
        );
        assert_eq!(Dep::ControlDivergent.join(x), x);
        assert_eq!(
            x.join(Dep::Affine {
                dim: 0,
                unit: false
            })
            .rank(),
            3
        );
        assert_eq!(x.join(y), Dep::Varying);
        assert_eq!(Dep::Varying.join(Dep::Uniform), Dep::Varying);
    }
}
