//! Bounded full unrolling of constant-trip innermost loops.
//!
//! A loop is unrolled only when its trip count can be proven at compile
//! time by simulating the induction variable with the constant evaluator's
//! exact wrapping semantics: constant init in the unique preheader edge,
//! constant-stride update confined to the unique latch, and a compare
//! against a constant bound in the header. That shape is exactly what the
//! front end emits for `for (i = K0; i < K1; i += K2)` counting loops.
//!
//! Registers are shared between the unrolled copies — on the mutable
//! register IR the straight-lined iterations replay the same register
//! trace the loop produced, so no renaming is needed. The header's compare
//! is replicated with each copy (its register side effects are preserved;
//! DCE deletes it once nothing reads the condition).
//!
//! Zero-trip loops fold to a jump straight to the exit, after which the
//! unreachable body is deleted.

use super::Analyses;
use crate::cfg::Cfg;
use crate::func::{Block, BlockId, Function};
use crate::inst::{BinOp, CmpOp, Op, Terminator};
use crate::loops::Loop;
use crate::passes::const_fold;
use crate::types::Scalar;
use crate::value::{Const, Operand, VReg};
use repro_util::fxhash::FxHashMap;

/// Maximum provable trip count that is still worth straight-lining.
pub const MAX_TRIPS: u32 = 8;
/// Per-loop size budgets: bodies larger than this stay rolled.
const MAX_BODY_INSTS: usize = 40;
const MAX_BODY_BLOCKS: usize = 8;
/// Whole-function caps — unrolling stops growing a kernel past these.
const MAX_FUNC_INSTS: usize = 2048;
const MAX_FUNC_BLOCKS: usize = 96;

/// Run the pass; returns the number of loops unrolled (or folded away).
pub fn run(f: &mut Function, an: &mut Analyses) -> usize {
    let mut unrolled = 0;
    loop {
        let (cfg, _, forest) = an.loops(f);
        let Some(p) = forest.innermost().find_map(|l| plan(f, cfg, l)) else {
            break;
        };
        apply(f, &p);
        an.invalidate_all();
        unrolled += 1;
    }
    unrolled
}

/// Everything needed to rewrite one loop.
struct Plan {
    header: BlockId,
    /// The header's in-loop branch target.
    enter: BlockId,
    /// The header's out-of-loop branch target.
    exit: BlockId,
    latch: BlockId,
    /// Body blocks, sorted (includes header and latch).
    body: Vec<BlockId>,
    trips: u32,
}

fn plan(f: &Function, cfg: &Cfg, l: &Loop) -> Option<Plan> {
    if l.body.len() > MAX_BODY_BLOCKS || l.num_insts(f) > MAX_BODY_INSTS {
        return None;
    }
    let h = l.header;
    if h == f.entry() {
        return None;
    }
    // Unique latch, distinct from the header, and a unique outside
    // predecessor holding the induction variable's initial value.
    let [latch] = l.latches[..] else { return None };
    if latch == h || cfg.preds[h.index()].len() != 2 {
        return None;
    }
    let pre = *cfg.preds[h.index()].iter().find(|p| !l.contains(**p))?;
    // Header exits the loop on a compare of the induction variable against
    // a constant; everything else stays inside (single-exit loop).
    let Terminator::CondBr {
        cond: Operand::Reg(c),
        then_bb,
        else_bb,
    } = f.block(h).term
    else {
        return None;
    };
    let (enter, exit) = match (l.contains(then_bb), l.contains(else_bb)) {
        (true, false) => (then_bb, else_bb),
        (false, true) => (else_bb, then_bb),
        _ => return None,
    };
    if enter == h {
        return None;
    }
    for &b in &l.body {
        if b != h && f.block(b).term.successors().any(|s| !l.contains(s)) {
            return None;
        }
    }
    // The condition is the last header definition of `c`: a compare with a
    // register on one side and a matching-typed constant on the other.
    let cmp = f
        .block(h)
        .insts
        .iter()
        .rev()
        .find(|i| i.result == Some(c))?;
    let Op::Cmp { op, ty, a, b } = cmp.op else {
        return None;
    };
    if !matches!(ty, Scalar::I32 | Scalar::U32) {
        return None;
    }
    let (ivar, reg_is_lhs) = match (a, b) {
        (Operand::Reg(r), Operand::Const(_)) => (r, true),
        (Operand::Const(_), Operand::Reg(r)) => (r, false),
        _ => return None,
    };
    // The induction variable may only be written in the latch.
    for &bb in &l.body {
        if bb != latch && f.block(bb).insts.iter().any(|i| i.result == Some(ivar)) {
            return None;
        }
    }
    let init = init_value(f.block(pre), ivar, ty)?;
    let stride = latch_stride(f.block(latch), ivar, ty);
    let trips = simulate(op, ty, a, b, reg_is_lhs, init, stride)?;
    // Size after unrolling: `trips - 1` extra body copies plus the final
    // header copy.
    if trips > 0 {
        let extra = (trips as usize - 1) * l.body.len() + 1;
        let extra_insts = (trips as usize - 1) * l.num_insts(f) + f.block(h).insts.len();
        if f.blocks.len() + extra > MAX_FUNC_BLOCKS || f.num_insts() + extra_insts > MAX_FUNC_INSTS
        {
            return None;
        }
    }
    Some(Plan {
        header: h,
        enter,
        exit,
        latch,
        body: l.body.clone(),
        trips,
    })
}

/// Last definition of `ivar` in the preheader, which must be a constant of
/// the compare's type. Returns the raw 32-bit value.
fn init_value(pre: &Block, ivar: VReg, ty: Scalar) -> Option<u32> {
    let def = pre.insts.iter().rev().find(|i| i.result == Some(ivar))?;
    match def.op {
        Op::Mov {
            a: Operand::Const(c),
            ..
        } => const_bits(c, ty),
        _ => None,
    }
}

fn const_bits(c: Const, ty: Scalar) -> Option<u32> {
    match (c, ty) {
        (Const::I32(x), Scalar::I32) => Some(x as u32),
        (Const::U32(x), Scalar::U32) => Some(x),
        _ => None,
    }
}

fn typed_const(bits: u32, ty: Scalar) -> Const {
    match ty {
        Scalar::I32 => Const::I32(bits as i32),
        _ => Const::U32(bits),
    }
}

/// Walk the latch symbolically: every register is either `ivar + k` (mod
/// 2^32) or opaque. Returns the net stride applied to `ivar`, or `None`
/// when the latch rewrites it unpredictably. A latch that never writes
/// `ivar` yields stride 0 (the simulation then proves 0 trips or gives up).
fn latch_stride(latch: &Block, ivar: VReg, ty: Scalar) -> Option<u32> {
    let mut offset: FxHashMap<VReg, u32> = FxHashMap::default();
    offset.insert(ivar, 0);
    for inst in &latch.insts {
        let Some(r) = inst.result else { continue };
        let sym = |o: Operand| match o {
            Operand::Reg(rr) => offset.get(&rr).copied(),
            Operand::Const(_) => None,
        };
        let konst = |o: Operand| match o {
            Operand::Const(c) => const_bits(c, ty),
            Operand::Reg(_) => None,
        };
        let new = match inst.op {
            Op::Mov { a, .. } => sym(a),
            Op::Bin {
                op: BinOp::Add,
                ty: t,
                a,
                b,
            } if t == ty => match (sym(a), konst(b), konst(a), sym(b)) {
                (Some(o), Some(k), _, _) | (_, _, Some(k), Some(o)) => Some(o.wrapping_add(k)),
                _ => None,
            },
            Op::Bin {
                op: BinOp::Sub,
                ty: t,
                a,
                b,
            } if t == ty => match (sym(a), konst(b)) {
                (Some(o), Some(k)) => Some(o.wrapping_sub(k)),
                _ => None,
            },
            _ => None,
        };
        match new {
            Some(o) => {
                offset.insert(r, o);
            }
            None => {
                offset.remove(&r);
            }
        }
    }
    offset.get(&ivar).copied()
}

/// Replay the exit compare with the evaluator's exact semantics until it
/// goes false; `None` when it stays true past [`MAX_TRIPS`] or the compare
/// does not evaluate (e.g. mismatched constant type).
fn simulate(
    op: CmpOp,
    ty: Scalar,
    a: Operand,
    b: Operand,
    reg_is_lhs: bool,
    init: u32,
    stride: Option<u32>,
) -> Option<u32> {
    let mut cur = init;
    for trip in 0..=MAX_TRIPS {
        let iv = Operand::Const(typed_const(cur, ty));
        let (ca, cb) = if reg_is_lhs { (iv, b) } else { (a, iv) };
        let cond = const_fold::eval(&Op::Cmp {
            op,
            ty,
            a: ca,
            b: cb,
        })?;
        match cond {
            Const::Bool(true) => {}
            Const::Bool(false) => return Some(trip),
            _ => return None,
        }
        cur = cur.wrapping_add(stride?);
    }
    None
}

fn apply(f: &mut Function, p: &Plan) {
    let h = p.header;
    if p.trips == 0 {
        // The header executes once and leaves; the body is unreachable.
        f.block_mut(h).term = Terminator::Br { target: p.exit };
        remove_unreachable_blocks(f);
        return;
    }
    let body_pos: FxHashMap<BlockId, usize> =
        p.body.iter().enumerate().map(|(i, &b)| (b, i)).collect();
    let base = f.blocks.len() as u32;
    let len = p.body.len() as u32;
    // Clone id of `b` in iteration `k` (iterations are 1-based; iteration 1
    // is the original blocks).
    let clone_id = |k: u32, b: BlockId| BlockId(base + (k - 2) * len + body_pos[&b] as u32);
    let final_header = BlockId(base + (p.trips - 1) * len);
    // Header of iteration `k`, where iteration `trips + 1` is the final
    // compare-only copy that falls through to the exit.
    let header_of = |k: u32| {
        if k > p.trips {
            final_header
        } else {
            clone_id(k, h)
        }
    };
    // Iterations 2..=trips: clone every body block.
    for k in 2..=p.trips {
        for &b in &p.body {
            let mut nb = f.block(b).clone();
            nb.id = clone_id(k, b);
            if b == h {
                nb.term = Terminator::Br {
                    target: clone_id(k, p.enter),
                };
            } else {
                remap(&mut nb.term, |t| {
                    if t == h {
                        header_of(k + 1)
                    } else {
                        clone_id(k, t)
                    }
                });
            }
            f.blocks.push(nb);
        }
    }
    // Final copy: the header's instructions (the compare evaluates false
    // here) and a jump out.
    let mut fin = f.block(h).clone();
    fin.id = final_header;
    fin.term = Terminator::Br { target: p.exit };
    f.blocks.push(fin);
    // Iteration 1 = the original blocks: enter the body unconditionally and
    // send the back edge to iteration 2.
    f.block_mut(h).term = Terminator::Br { target: p.enter };
    let next = header_of(2);
    remap(&mut f.block_mut(p.latch).term, |t| {
        if t == h {
            next
        } else {
            t
        }
    });
}

fn remap(term: &mut Terminator, f: impl Fn(BlockId) -> BlockId) {
    match term {
        Terminator::Br { target } => *target = f(*target),
        Terminator::CondBr {
            then_bb, else_bb, ..
        } => {
            *then_bb = f(*then_bb);
            *else_bb = f(*else_bb);
        }
        Terminator::Ret => {}
    }
}

/// Delete blocks unreachable from the entry, renumbering the survivors so
/// `block.id` matches its position again (the verifier's layout invariant).
/// Returns the number of blocks removed.
pub fn remove_unreachable_blocks(f: &mut Function) -> usize {
    let cfg = Cfg::new(f);
    let n = f.blocks.len();
    let mut new_id: Vec<Option<BlockId>> = vec![None; n];
    let mut next = 0u32;
    for (i, slot) in new_id.iter_mut().enumerate() {
        if cfg.is_reachable(BlockId(i as u32)) {
            *slot = Some(BlockId(next));
            next += 1;
        }
    }
    if next as usize == n {
        return 0;
    }
    let removed = n - next as usize;
    let old = std::mem::take(&mut f.blocks);
    for mut b in old {
        let Some(nid) = new_id[b.id.index()] else {
            continue;
        };
        b.id = nid;
        remap(&mut b.term, |t| {
            new_id[t.index()].expect("reachable block targets reachable block")
        });
        f.blocks.push(b);
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::cfg::Dominators;
    use crate::func::Param;
    use crate::loops::LoopForest;
    use crate::types::{AddressSpace, Type};
    use crate::value::Operand;
    use crate::Builtin;

    /// for (i = 0; i < `bound`; i++) { out[i] = i; } with a constant or
    /// register bound.
    fn counting_loop(bound: Operand) -> Function {
        let mut b = FunctionBuilder::new(
            "k",
            vec![Param {
                name: "out".into(),
                ty: Type::Ptr(AddressSpace::Global),
            }],
        );
        let i = b.mov(Scalar::U32, Operand::imm_u32(0));
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(head);
        b.switch_to(head);
        let c = b.cmp(CmpOp::Lt, Scalar::U32, i.into(), bound);
        b.cond_br(c.into(), body, exit);
        b.switch_to(body);
        let addr = b.gep(Operand::Reg(b.param(0)), i.into(), 4, AddressSpace::Global);
        b.store(addr.into(), i.into(), Scalar::U32, AddressSpace::Global);
        let i2 = b.bin(BinOp::Add, Scalar::U32, i.into(), Operand::imm_u32(1));
        b.assign(i, Scalar::U32, i2.into());
        b.br(head);
        b.switch_to(exit);
        b.ret();
        b.finish()
    }

    fn count_stores(f: &Function) -> usize {
        f.blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i.op, Op::Store { .. }))
            .count()
    }

    fn has_loops(f: &Function) -> bool {
        let cfg = Cfg::new(f);
        let dom = Dominators::new(&cfg);
        !LoopForest::find(f, &cfg, &dom).loops.is_empty()
    }

    #[test]
    fn unrolls_constant_trip_loop() {
        let mut f = counting_loop(Operand::imm_u32(3));
        assert_eq!(count_stores(&f), 1);
        assert_eq!(run(&mut f, &mut Analyses::default()), 1);
        crate::verify::verify_function(&f).unwrap();
        assert!(!has_loops(&f), "back edges must be gone:\n{f}");
        assert_eq!(count_stores(&f), 3, "one store copy per trip:\n{f}");
    }

    #[test]
    fn zero_trip_loop_folds_to_exit() {
        let mut f = counting_loop(Operand::imm_u32(0));
        let blocks_before = f.blocks.len();
        assert_eq!(run(&mut f, &mut Analyses::default()), 1);
        crate::verify::verify_function(&f).unwrap();
        assert!(!has_loops(&f));
        assert_eq!(count_stores(&f), 0, "body removed:\n{f}");
        assert!(f.blocks.len() < blocks_before, "unreachable body deleted");
    }

    #[test]
    fn register_bound_stays_rolled() {
        let mut fb = FunctionBuilder::new("k", vec![]);
        let bound = fb.workitem(Builtin::GlobalId(0));
        let i = fb.mov(Scalar::U32, Operand::imm_u32(0));
        let head = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.br(head);
        fb.switch_to(head);
        let c = fb.cmp(CmpOp::Lt, Scalar::U32, i.into(), bound.into());
        fb.cond_br(c.into(), body, exit);
        fb.switch_to(body);
        let i2 = fb.bin(BinOp::Add, Scalar::U32, i.into(), Operand::imm_u32(1));
        fb.assign(i, Scalar::U32, i2.into());
        fb.br(head);
        fb.switch_to(exit);
        fb.ret();
        let mut f = fb.finish();
        assert_eq!(
            run(&mut f, &mut Analyses::default()),
            0,
            "unknown trip count must stay rolled"
        );
        assert!(has_loops(&f));
    }

    #[test]
    fn long_loop_stays_rolled() {
        let mut f = counting_loop(Operand::imm_u32(MAX_TRIPS + 1));
        assert_eq!(run(&mut f, &mut Analyses::default()), 0);
        assert!(has_loops(&f));
    }

    #[test]
    fn nested_constant_loops_fully_flatten() {
        // for (i = 0; i < 2; i++) for (j = 0; j < 2; j++) out[0] = j;
        let mut fb = FunctionBuilder::new(
            "k",
            vec![Param {
                name: "out".into(),
                ty: Type::Ptr(AddressSpace::Global),
            }],
        );
        let i = fb.mov(Scalar::U32, Operand::imm_u32(0));
        let oh = fb.new_block();
        let opre = fb.new_block();
        let ih = fb.new_block();
        let ib = fb.new_block();
        let ol = fb.new_block();
        let exit = fb.new_block();
        fb.br(oh);
        fb.switch_to(oh);
        let ci = fb.cmp(CmpOp::Lt, Scalar::U32, i.into(), Operand::imm_u32(2));
        fb.cond_br(ci.into(), opre, exit);
        fb.switch_to(opre);
        let j = fb.mov(Scalar::U32, Operand::imm_u32(0));
        fb.br(ih);
        fb.switch_to(ih);
        let cj = fb.cmp(CmpOp::Lt, Scalar::U32, j.into(), Operand::imm_u32(2));
        fb.cond_br(cj.into(), ib, ol);
        fb.switch_to(ib);
        let addr = fb.gep(
            Operand::Reg(fb.param(0)),
            Operand::imm_u32(0),
            4,
            AddressSpace::Global,
        );
        fb.store(addr.into(), j.into(), Scalar::U32, AddressSpace::Global);
        let j2 = fb.bin(BinOp::Add, Scalar::U32, j.into(), Operand::imm_u32(1));
        fb.assign(j, Scalar::U32, j2.into());
        fb.br(ih);
        fb.switch_to(ol);
        let i2 = fb.bin(BinOp::Add, Scalar::U32, i.into(), Operand::imm_u32(1));
        fb.assign(i, Scalar::U32, i2.into());
        fb.br(oh);
        fb.switch_to(exit);
        fb.ret();
        let mut f = fb.finish();
        // Inner unrolls in each outer iteration context; then the outer.
        assert!(run(&mut f, &mut Analyses::default()) >= 2);
        crate::verify::verify_function(&f).unwrap();
        assert!(!has_loops(&f), "both levels must flatten:\n{f}");
        assert_eq!(count_stores(&f), 4, "2x2 iterations:\n{f}");
    }

    #[test]
    fn removes_only_unreachable_blocks() {
        let mut b = FunctionBuilder::new("u", vec![]);
        let dead = b.new_block();
        let live = b.new_block();
        b.br(live);
        b.switch_to(dead);
        b.ret();
        b.switch_to(live);
        b.ret();
        let mut f = b.finish();
        assert_eq!(remove_unreachable_blocks(&mut f), 1);
        crate::verify::verify_function(&f).unwrap();
        assert_eq!(f.blocks.len(), 2);
    }
}
