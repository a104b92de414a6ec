//! Loop-invariant code motion.
//!
//! Hoists pure instructions out of natural loops into a preheader. On the
//! mutable-register IR the soundness conditions are phrased with liveness
//! instead of SSA dominance:
//!
//! * the destination has exactly one definition inside the loop, and is not
//!   live into the header — so no path (zero-trip exit, use-before-def
//!   around the back edge, conditional definition) observes the old value;
//! * every register operand is either never defined inside the loop, or is
//!   the destination of an instruction hoisted in an earlier round.
//!
//! All pure ops of this IR are total (integer division follows the RISC-V
//! convention in the evaluator and never traps), so executing a hoisted
//! instruction on the zero-trip path is safe speculation.

use super::Analyses;
use crate::cfg::{Cfg, Dominators};
use crate::func::{BlockId, Function};
use crate::inst::{Inst, Terminator};
use crate::liveness::Liveness;
use crate::loops::Loop;
use crate::value::Operand;

/// Run the pass; returns the number of instructions hoisted.
pub fn run(f: &mut Function, an: &mut Analyses) -> usize {
    let mut total = 0;
    // Hoisting rewrites the CFG (preheader insertion), so analyses are
    // recomputed after every loop processed; iterate until no loop yields
    // further candidates. Inner loops come first in the forest order, which
    // lets a value migrate outward one level per iteration.
    loop {
        if an.loops(f).2.loops.is_empty() {
            return total;
        }
        let (cfg, dom, forest, lv) = an.loops_live(f);
        let mut hoisted = 0;
        for l in &forest.loops {
            hoisted = hoist_loop(f, cfg, dom, lv, l);
            if hoisted > 0 {
                break;
            }
        }
        if hoisted == 0 {
            return total;
        }
        an.invalidate_all();
        total += hoisted;
    }
}

fn hoist_loop(f: &mut Function, cfg: &Cfg, dom: &Dominators, lv: &Liveness, l: &Loop) -> usize {
    if l.header == f.entry() {
        // No outside edge to place a preheader on.
        return 0;
    }
    // Only hoist from blocks executed on every iteration (they dominate
    // every latch). Hoisting from a conditional block is still sound — the
    // ops are pure and total — but turns "executed when the branch is
    // taken" into "executed always", which can *increase* the dynamic
    // count (e.g. a once-per-group tail guarded by `lid == 0`).
    let every_iter: Vec<bool> = l
        .body
        .iter()
        .map(|&b| l.latches.iter().all(|&lt| dom.dominates(b, lt)))
        .collect();
    // How often each register is defined inside the loop.
    let mut defs = vec![0u32; f.num_vregs()];
    for &b in &l.body {
        for inst in &f.block(b).insts {
            if let Some(r) = inst.result {
                defs[r.index()] += 1;
            }
        }
    }
    // Select candidates to a fixed point: an instruction whose operands are
    // defined by an earlier-round selection becomes movable itself. Rounds
    // are recorded so the preheader lists definitions before their uses.
    let live_hdr = lv.live_in(l.header.index());
    let mut selected: Vec<(BlockId, usize)> = Vec::new();
    let mut selected_set = vec![false; f.num_vregs()];
    let mut is_selected: Vec<Vec<bool>> = l
        .body
        .iter()
        .map(|&b| vec![false; f.block(b).insts.len()])
        .collect();
    loop {
        let mut grew = false;
        for (bi, &b) in l.body.iter().enumerate() {
            if !every_iter[bi] {
                continue;
            }
            for (ii, inst) in f.block(b).insts.iter().enumerate() {
                if is_selected[bi][ii] {
                    continue;
                }
                let Some(r) = inst.result else { continue };
                if !inst.op.is_pure() || defs[r.index()] != 1 || live_hdr.contains(r) {
                    continue;
                }
                let mut ok = true;
                inst.op.for_each_operand(|o| {
                    if let Operand::Reg(or) = o {
                        if defs[or.index()] > 0 && !selected_set[or.index()] {
                            ok = false;
                        }
                    }
                });
                if ok {
                    is_selected[bi][ii] = true;
                    selected_set[r.index()] = true;
                    selected.push((b, ii));
                    grew = true;
                }
            }
        }
        if !grew {
            break;
        }
    }
    if selected.is_empty() {
        return 0;
    }
    // Extract the hoisted instructions in selection order (defs before uses),
    // then drop them from their blocks.
    let hoisted: Vec<Inst> = selected
        .iter()
        .map(|&(b, ii)| f.block(b).insts[ii].clone())
        .collect();
    for (bi, &b) in l.body.iter().enumerate() {
        let mask = &is_selected[bi];
        let mut it = mask.iter();
        f.block_mut(b)
            .insts
            .retain(|_| !*it.next().expect("mask matches length"));
    }
    let n = hoisted.len();
    place_in_preheader(f, cfg, l, hoisted);
    n
}

/// Append `insts` to the loop's preheader, creating one if the header has
/// several outside predecessors or a conditional incoming edge.
fn place_in_preheader(f: &mut Function, cfg: &Cfg, l: &Loop, insts: Vec<Inst>) {
    let outside: Vec<BlockId> = cfg.preds[l.header.index()]
        .iter()
        .copied()
        .filter(|p| !l.contains(*p))
        .collect();
    if let [p] = outside[..] {
        if matches!(f.block(p).term, Terminator::Br { .. }) {
            f.block_mut(p).insts.extend(insts);
            return;
        }
    }
    let nb = BlockId(f.blocks.len() as u32);
    for &p in &outside {
        let term = &mut f.block_mut(p).term;
        match term {
            Terminator::Br { target } if *target == l.header => *target = nb,
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => {
                if *then_bb == l.header {
                    *then_bb = nb;
                }
                if *else_bb == l.header {
                    *else_bb = nb;
                }
            }
            _ => {}
        }
    }
    f.blocks.push(crate::func::Block {
        id: nb,
        insts,
        term: Terminator::Br { target: l.header },
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::func::Param;
    use crate::loops::LoopForest;
    use crate::types::{AddressSpace, Scalar, Type};
    use crate::value::Operand;
    use crate::{BinOp, Builtin, CmpOp};

    /// for (i = 0; i < n; i++) out[i] = x * 3  — with `x * 3` recomputed in
    /// the body, hoistable to the preheader.
    fn loop_with_invariant() -> (Function, crate::value::VReg) {
        let mut b = FunctionBuilder::new(
            "k",
            vec![Param {
                name: "out".into(),
                ty: Type::Ptr(AddressSpace::Global),
            }],
        );
        let x = b.workitem(Builtin::GlobalId(0));
        let i = b.mov(Scalar::U32, Operand::imm_u32(0));
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(head);
        b.switch_to(head);
        let c = b.cmp(CmpOp::Lt, Scalar::U32, i.into(), Operand::imm_u32(8));
        b.cond_br(c.into(), body, exit);
        b.switch_to(body);
        let inv = b.bin(BinOp::Mul, Scalar::U32, x.into(), Operand::imm_u32(3));
        let addr = b.gep(Operand::Reg(b.param(0)), i.into(), 4, AddressSpace::Global);
        b.store(addr.into(), inv.into(), Scalar::U32, AddressSpace::Global);
        let i2 = b.bin(BinOp::Add, Scalar::U32, i.into(), Operand::imm_u32(1));
        b.assign(i, Scalar::U32, i2.into());
        b.br(head);
        b.switch_to(exit);
        b.ret();
        (b.finish(), inv)
    }

    #[test]
    fn hoists_invariant_multiply() {
        let (mut f, inv) = loop_with_invariant();
        let hoisted = run(&mut f, &mut Analyses::default());
        assert!(hoisted >= 1, "invariant multiply must move");
        crate::verify::verify_function(&f).unwrap();
        // The multiply now sits outside the loop: in a block that is not in
        // any loop body.
        let cfg = Cfg::new(&f);
        let dom = Dominators::new(&cfg);
        let forest = LoopForest::find(&f, &cfg, &dom);
        let def_block = f
            .iter_blocks()
            .find(|(_, b)| b.insts.iter().any(|i| i.result == Some(inv)))
            .map(|(id, _)| id)
            .expect("multiply still defined somewhere");
        assert!(
            forest.loops.iter().all(|l| !l.contains(def_block)),
            "hoisted def must be outside every loop, is in {def_block}"
        );
    }

    #[test]
    fn loop_varying_value_stays() {
        // i2 = i + 1 depends on i which is redefined in the loop: not hoisted.
        let (mut f, _) = loop_with_invariant();
        run(&mut f, &mut Analyses::default());
        let cfg = Cfg::new(&f);
        let dom = Dominators::new(&cfg);
        let forest = LoopForest::find(&f, &cfg, &dom);
        assert_eq!(forest.loops.len(), 1);
        let l = &forest.loops[0];
        let body_has_add = l.body.iter().any(|&b| {
            f.block(b)
                .insts
                .iter()
                .any(|i| matches!(i.op, crate::Op::Bin { op: BinOp::Add, .. }))
        });
        assert!(body_has_add, "induction update must remain in the loop");
    }

    #[test]
    fn load_is_not_hoisted() {
        // Loads are not pure; a load of an invariant address must stay put
        // (a store in the loop could change the value).
        let mut b = FunctionBuilder::new(
            "k",
            vec![Param {
                name: "p".into(),
                ty: Type::Ptr(AddressSpace::Global),
            }],
        );
        let i = b.mov(Scalar::U32, Operand::imm_u32(0));
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(head);
        b.switch_to(head);
        let c = b.cmp(CmpOp::Lt, Scalar::U32, i.into(), Operand::imm_u32(4));
        b.cond_br(c.into(), body, exit);
        b.switch_to(body);
        let addr = b.gep(
            Operand::Reg(b.param(0)),
            Operand::imm_u32(0),
            4,
            AddressSpace::Global,
        );
        let v = b.load(addr.into(), Scalar::U32, AddressSpace::Global);
        let addr2 = b.gep(Operand::Reg(b.param(0)), i.into(), 4, AddressSpace::Global);
        b.store(addr2.into(), v.into(), Scalar::U32, AddressSpace::Global);
        let i2 = b.bin(BinOp::Add, Scalar::U32, i.into(), Operand::imm_u32(1));
        b.assign(i, Scalar::U32, i2.into());
        b.br(head);
        b.switch_to(exit);
        b.ret();
        let mut f = b.finish();
        run(&mut f, &mut Analyses::default());
        crate::verify::verify_function(&f).unwrap();
        let loads_in_body = f
            .block(BlockId(2))
            .insts
            .iter()
            .any(|i| matches!(i.op, crate::Op::Load { .. }));
        assert!(loads_in_body, "load must not be hoisted");
    }
}
