//! Natural-loop detection over the dominator tree.
//!
//! Feeds the loop tier of the pass pipeline (LICM, strength reduction,
//! bounded unrolling). A *natural loop* is identified by a back edge
//! `u -> h` where `h` dominates `u`; its body is every block that can reach
//! the latch `u` without passing through the header `h`. Back edges sharing
//! a header are merged into one loop, matching the classical definition.

use crate::cfg::{Cfg, Dominators};
use crate::func::{BlockId, Function};

/// One natural loop of a function.
#[derive(Debug, Clone)]
pub struct Loop {
    /// The unique entry block of the loop (target of the back edges).
    pub header: BlockId,
    /// Sources of the back edges into `header`.
    pub latches: Vec<BlockId>,
    /// Every block of the loop, including the header, sorted by id.
    pub body: Vec<BlockId>,
    /// Blocks outside the loop that are branched to from inside, sorted.
    pub exits: Vec<BlockId>,
}

impl Loop {
    /// Whether `b` belongs to the loop body (header included).
    pub fn contains(&self, b: BlockId) -> bool {
        self.body.binary_search(&b).is_ok()
    }

    /// Total instruction count of the body blocks (excluding terminators).
    pub fn num_insts(&self, f: &Function) -> usize {
        self.body.iter().map(|&b| f.block(b).insts.len()).sum()
    }
}

/// All natural loops of a function.
#[derive(Debug, Clone, Default)]
pub struct LoopForest {
    /// Loops sorted by body size ascending, so iterating visits inner loops
    /// before the loops that enclose them.
    pub loops: Vec<Loop>,
}

impl LoopForest {
    /// Detect the natural loops of `f`.
    pub fn find(f: &Function, cfg: &Cfg, dom: &Dominators) -> Self {
        // Back edges grouped by header.
        let mut latches_of: Vec<Vec<BlockId>> = vec![Vec::new(); f.blocks.len()];
        for (id, b) in f.iter_blocks() {
            if !cfg.is_reachable(id) {
                continue;
            }
            for s in b.term.successors() {
                if dom.dominates(s, id) {
                    latches_of[s.index()].push(id);
                }
            }
        }
        let mut loops = Vec::new();
        for (hi, latches) in latches_of.into_iter().enumerate() {
            if latches.is_empty() {
                continue;
            }
            let header = BlockId(hi as u32);
            // Body: backward reachability from the latches, stopping at the
            // header.
            let mut in_body = vec![false; f.blocks.len()];
            in_body[header.index()] = true;
            let mut work: Vec<BlockId> = latches.clone();
            while let Some(b) = work.pop() {
                if in_body[b.index()] {
                    continue;
                }
                in_body[b.index()] = true;
                for &p in &cfg.preds[b.index()] {
                    work.push(p);
                }
            }
            let body: Vec<BlockId> = (0..f.blocks.len())
                .filter(|&i| in_body[i])
                .map(|i| BlockId(i as u32))
                .collect();
            let mut exits: Vec<BlockId> = body
                .iter()
                .flat_map(|&b| f.block(b).term.successors())
                .filter(|s| !in_body[s.index()])
                .collect();
            exits.sort();
            exits.dedup();
            loops.push(Loop {
                header,
                latches,
                body,
                exits,
            });
        }
        loops.sort_by_key(|l| l.body.len());
        LoopForest { loops }
    }

    /// The innermost loop containing `b`, if any. Two natural loops are
    /// disjoint or nested, so the first, smallest, match is the innermost.
    pub fn loop_of(&self, b: BlockId) -> Option<&Loop> {
        self.loops.iter().find(|l| l.contains(b))
    }

    /// Loops whose body contains no other loop's header — the candidates for
    /// full unrolling.
    pub fn innermost(&self) -> impl Iterator<Item = &Loop> {
        self.loops.iter().filter(|l| {
            self.loops
                .iter()
                .all(|m| m.header == l.header || !l.contains(m.header))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::Scalar;
    use crate::value::Operand;
    use crate::{BinOp, CmpOp};

    /// entry -> outer head -> inner head -> inner body -> inner head (back)
    ///                     \> exit        \> outer latch -> outer head (back)
    fn nested() -> Function {
        let mut b = FunctionBuilder::new("n", vec![]);
        let i = b.mov(Scalar::I32, Operand::imm_i32(0));
        let oh = b.new_block();
        let ih = b.new_block();
        let ib = b.new_block();
        let ol = b.new_block();
        let exit = b.new_block();
        b.br(oh);
        b.switch_to(oh);
        let c = b.cmp(CmpOp::Lt, Scalar::I32, i.into(), Operand::imm_i32(4));
        b.cond_br(c.into(), ih, exit);
        b.switch_to(ih);
        let j = b.mov(Scalar::I32, Operand::imm_i32(0));
        let cj = b.cmp(CmpOp::Lt, Scalar::I32, j.into(), Operand::imm_i32(2));
        b.cond_br(cj.into(), ib, ol);
        b.switch_to(ib);
        let j2 = b.bin(BinOp::Add, Scalar::I32, j.into(), Operand::imm_i32(1));
        b.assign(j, Scalar::I32, j2.into());
        b.br(ih);
        b.switch_to(ol);
        let i2 = b.bin(BinOp::Add, Scalar::I32, i.into(), Operand::imm_i32(1));
        b.assign(i, Scalar::I32, i2.into());
        b.br(oh);
        b.switch_to(exit);
        b.ret();
        b.finish()
    }

    #[test]
    fn finds_nested_loops() {
        let f = nested();
        let cfg = Cfg::new(&f);
        let dom = Dominators::new(&cfg);
        let forest = LoopForest::find(&f, &cfg, &dom);
        assert_eq!(forest.loops.len(), 2);
        // Sorted inner-first.
        let inner = &forest.loops[0];
        let outer = &forest.loops[1];
        assert_eq!(inner.header, BlockId(2));
        assert_eq!(inner.body, vec![BlockId(2), BlockId(3)]);
        assert_eq!(inner.exits, vec![BlockId(4)]);
        assert_eq!(outer.header, BlockId(1));
        assert!(outer.contains(inner.header));
        assert_eq!(outer.exits, vec![BlockId(5)]);
        let innermost: Vec<_> = forest.innermost().map(|l| l.header).collect();
        assert_eq!(innermost, vec![BlockId(2)]);
        let loop_of = |b| forest.loop_of(BlockId(b)).map(|l| l.header);
        assert_eq!(loop_of(3), Some(BlockId(2)));
        assert_eq!(loop_of(4), Some(BlockId(1)));
        assert_eq!(loop_of(5), None);
    }

    #[test]
    fn straight_line_has_no_loops() {
        let mut b = FunctionBuilder::new("s", vec![]);
        b.ret();
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let dom = Dominators::new(&cfg);
        assert!(LoopForest::find(&f, &cfg, &dom).loops.is_empty());
    }
}
