//! Control-flow structure analysis for SIMT lowering.
//!
//! Classifies every divergent branch as either a structured if/else (lowered
//! with SPLIT/JOIN) or a divergent loop exit (lowered with PRED + a mask
//! save in the loop preheader), and rejects shapes outside the supported
//! subset with a source-level error.

use ocl_ir::cfg::{Cfg, PostDominators};
use ocl_ir::loops::LoopForest;
use ocl_ir::workitem::WorkItemInfo;
use ocl_ir::{BlockId, Function, Terminator};
use rustc_hash::FxHashMap;

/// How one divergent branch is lowered.
#[derive(Debug, Clone, PartialEq)]
pub enum DivBranch {
    /// SPLIT/JOIN: `reconv` is the immediate post-dominator.
    IfElse { reconv: BlockId },
    /// PRED: `body` stays in the loop, `exit` leaves it; the thread mask is
    /// saved in `preheader`.
    LoopExit {
        body: BlockId,
        exit: BlockId,
        preheader: BlockId,
    },
}

/// The full lowering plan for one kernel.
#[derive(Debug, Default)]
pub struct DivPlan {
    /// Per divergent-branch block: its lowering.
    pub branches: FxHashMap<BlockId, DivBranch>,
    /// Edges (from, to) that must execute a JOIN instead of a jump, keyed to
    /// their reconvergence target.
    pub join_edges: FxHashMap<(BlockId, BlockId), BlockId>,
    /// Preheader block -> mask-slot indices to save there.
    pub mask_saves: FxHashMap<BlockId, Vec<usize>>,
    /// Loop-header block -> mask-slot index its PRED reloads.
    pub pred_slots: FxHashMap<BlockId, usize>,
    /// Total mask slots needed.
    pub num_mask_slots: usize,
}

/// Build the lowering plan from the kernel's analyses, or reject the kernel.
pub fn plan(
    f: &Function,
    cfg: &Cfg,
    pdom: &PostDominators,
    loops: &LoopForest,
    div: &WorkItemInfo,
) -> Result<DivPlan, crate::CodegenError> {
    let mut plan = DivPlan::default();
    let err = |detail: String| crate::CodegenError::Unstructured {
        kernel: f.name.clone(),
        detail,
    };
    for (b, block) in f.iter_blocks() {
        if !cfg.is_reachable(b) || !div.is_divergent_branch(b) {
            continue;
        }
        let Terminator::CondBr {
            then_bb, else_bb, ..
        } = block.term
        else {
            continue;
        };
        // Loop-exit shape: B is in a loop and exactly one successor leaves
        // that loop.
        if let Some(l) = loops.loop_of(b) {
            let h = l.header;
            let then_in = l.contains(then_bb);
            let else_in = l.contains(else_bb);
            if then_in != else_in {
                let (body, exit) = if then_in {
                    (then_bb, else_bb)
                } else {
                    (else_bb, then_bb)
                };
                // Every edge out of the loop must be this one.
                for &x in l.body.iter().filter(|&&x| cfg.is_reachable(x)) {
                    for s in f.block(x).term.successors() {
                        if !l.contains(s) && (x != b || s != exit) {
                            return Err(err(format!(
                                "loop with header {h} has a second exit {x}->{s} \
                                 (divergent break?); rewrite with a guard flag"
                            )));
                        }
                    }
                }
                // Unique preheader.
                let preheaders: Vec<BlockId> = cfg.preds[h.index()]
                    .iter()
                    .copied()
                    .filter(|&p| !l.contains(p))
                    .collect();
                let &[preheader] = preheaders.as_slice() else {
                    return Err(err(format!(
                        "divergent loop at {h} needs a unique preheader, found {}",
                        preheaders.len()
                    )));
                };
                let slot = plan.num_mask_slots;
                plan.num_mask_slots += 1;
                plan.mask_saves.entry(preheader).or_default().push(slot);
                plan.pred_slots.insert(b, slot);
                plan.branches.insert(
                    b,
                    DivBranch::LoopExit {
                        body,
                        exit,
                        preheader,
                    },
                );
                continue;
            }
        }
        // If/else shape: reconvergence at the immediate post-dominator.
        let Some(reconv) = pdom.ipdom(b) else {
            return Err(err(format!(
                "divergent branch at {b} has no reconvergence point \
                 (divergent return?); guard the body with an if instead"
            )));
        };
        let then_region = region_of(cfg, then_bb, reconv);
        let else_region = if else_bb == reconv {
            vec![false; f.blocks.len()]
        } else {
            region_of(cfg, else_bb, reconv)
        };
        // Structural checks.
        for (x, xb) in f.iter_blocks() {
            let in_then = then_region[x.index()];
            let in_else = else_region[x.index()];
            if in_then && in_else {
                return Err(err(format!(
                    "then/else regions of divergent branch {b} share block {x}"
                )));
            }
            if !(in_then || in_else) {
                continue;
            }
            if matches!(xb.term, Terminator::Ret) {
                return Err(err(format!(
                    "return under divergent branch {b} (block {x}); \
                     guard the kernel body with an if instead"
                )));
            }
            for s in xb.term.successors() {
                let ok = s == reconv || then_region[s.index()] || else_region[s.index()];
                if !ok {
                    return Err(err(format!(
                        "edge {x}->{s} escapes the divergent region of {b} \
                         (divergent break/continue?); rewrite with a guard flag"
                    )));
                }
                if s == reconv {
                    plan.join_edges.insert((x, s), reconv);
                }
            }
        }
        if then_bb == reconv {
            // Handled by the emitter with a synthesized join stub.
        }
        plan.branches.insert(b, DivBranch::IfElse { reconv });
    }
    Ok(plan)
}

/// Blocks reachable from `entry` without passing through `stop`.
fn region_of(cfg: &Cfg, entry: BlockId, stop: BlockId) -> Vec<bool> {
    let n = cfg.succs.len();
    let mut seen = vec![false; n];
    if entry == stop {
        return seen;
    }
    let mut work = vec![entry];
    while let Some(x) = work.pop() {
        if x == stop || seen[x.index()] {
            continue;
        }
        seen[x.index()] = true;
        work.extend(cfg.succs[x.index()].iter().copied());
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocl_ir::cfg::Dominators;
    use ocl_ir::{AddressSpace, Builtin, CmpOp, FunctionBuilder, Operand, Param, Scalar, Type};

    fn analyze(f: &Function) -> Result<DivPlan, crate::CodegenError> {
        let cfg = Cfg::new(f);
        let pdom = PostDominators::new(f, &cfg);
        let loops = LoopForest::find(f, &cfg, &Dominators::new(&cfg));
        let div = WorkItemInfo::analyze(f, &cfg, &pdom);
        plan(f, &cfg, &pdom, &loops, &div)
    }

    #[test]
    fn divergent_if_is_ifelse_plan() {
        let src = r#"
            __kernel void k(__global int* o) {
                int i = get_global_id(0);
                if (i < 4) { o[i] = 1; } else { o[i] = 2; }
            }
        "#;
        let m = ocl_front::compile(src).unwrap();
        let p = analyze(&m.kernels[0]).unwrap();
        assert_eq!(p.branches.len(), 1);
        assert!(p
            .branches
            .values()
            .all(|b| matches!(b, DivBranch::IfElse { .. })));
        assert!(!p.join_edges.is_empty());
    }

    #[test]
    fn divergent_loop_is_pred_plan() {
        let src = r#"
            __kernel void k(__global int* o) {
                int i = get_global_id(0);
                int acc = 0;
                for (int j = 0; j < i; j++) acc += j;
                o[i] = acc;
            }
        "#;
        let m = ocl_front::compile(src).unwrap();
        let p = analyze(&m.kernels[0]).unwrap();
        assert!(
            p.branches
                .values()
                .any(|b| matches!(b, DivBranch::LoopExit { .. })),
            "plan: {:?}",
            p.branches
        );
        assert_eq!(p.num_mask_slots, 1);
        assert_eq!(p.mask_saves.len(), 1);
    }

    #[test]
    fn divergent_break_rejected() {
        let src = r#"
            __kernel void k(__global int* o) {
                int i = get_global_id(0);
                int acc = 0;
                for (int j = 0; j < 10; j++) {
                    if (j > i) break;
                    acc += j;
                }
                o[i] = acc;
            }
        "#;
        let m = ocl_front::compile(src).unwrap();
        let e = analyze(&m.kernels[0]).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("divergent"), "{msg}");
    }

    #[test]
    fn uniform_control_flow_needs_no_plan() {
        let src = r#"
            __kernel void k(__global int* o, int n) {
                int acc = 0;
                for (int j = 0; j < n; j++) {
                    if (j % 2 == 0) acc += j; else acc -= 1;
                }
                o[get_global_id(0)] = acc;
            }
        "#;
        let m = ocl_front::compile(src).unwrap();
        let p = analyze(&m.kernels[0]).unwrap();
        assert!(p.branches.is_empty(), "{:?}", p.branches);
    }

    #[test]
    fn nested_divergent_ifs_get_distinct_reconv() {
        let src = r#"
            __kernel void k(__global int* o) {
                int i = get_global_id(0);
                int v = 0;
                if (i < 8) {
                    if (i < 4) v = 1; else v = 2;
                }
                o[i] = v;
            }
        "#;
        let m = ocl_front::compile(src).unwrap();
        let p = analyze(&m.kernels[0]).unwrap();
        assert_eq!(p.branches.len(), 2);
        let reconvs: Vec<_> = p
            .branches
            .values()
            .map(|b| match b {
                DivBranch::IfElse { reconv } => *reconv,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_ne!(reconvs[0], reconvs[1]);
    }

    #[test]
    fn loop_detection_on_hand_built_cfg() {
        // entry -> head; head -> {body, exit}; body -> head.
        let mut b = FunctionBuilder::new(
            "k",
            vec![Param {
                name: "p".into(),
                ty: Type::Ptr(AddressSpace::Global),
            }],
        );
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
        let i2 = b.bin(
            ocl_ir::BinOp::Add,
            Scalar::U32,
            i.into(),
            Operand::imm_u32(1),
        );
        b.assign(i, Scalar::U32, i2.into());
        b.br(head);
        b.switch_to(exit);
        b.ret();
        let f = b.finish();
        // The gid-bounded trip count diverges: the header's exit is a PRED
        // loop exit with the mask saved in the entry block.
        let p = analyze(&f).unwrap();
        assert_eq!(
            p.branches[&head],
            DivBranch::LoopExit {
                body,
                exit,
                preheader: BlockId(0)
            }
        );
        assert_eq!(p.pred_slots[&head], 0);
        assert_eq!(p.mask_saves[&BlockId(0)], vec![0]);
    }
}
