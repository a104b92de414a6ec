//! Control-flow-graph utilities: successor/predecessor maps, reverse
//! post-order, dominators and post-dominators.
//!
//! Post-dominators feed the control-dependence computation the work-item
//! analysis needs to decide which branches require the Vortex SPLIT/JOIN/PRED
//! lowering (paper §II-D).

use crate::func::{BlockId, Function};

/// Precomputed CFG edge information for a function.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub succs: Vec<Vec<BlockId>>,
    pub preds: Vec<Vec<BlockId>>,
    /// Blocks in reverse post-order from the entry. Unreachable blocks are
    /// excluded.
    pub rpo: Vec<BlockId>,
    /// Position of each block in `rpo`; `usize::MAX` for unreachable blocks.
    pub rpo_index: Vec<usize>,
}

impl Cfg {
    /// Build the CFG for a function.
    pub fn new(f: &Function) -> Self {
        let n = f.blocks.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for (id, b) in f.iter_blocks() {
            for s in b.term.successors() {
                succs[id.index()].push(s);
                preds[s.index()].push(id);
            }
        }
        // Iterative DFS producing post-order, then reverse it.
        let mut post = Vec::with_capacity(n);
        let mut state = vec![0u8; n]; // 0 = unvisited, 1 = on stack, 2 = done
        let mut stack: Vec<(BlockId, usize)> = vec![(BlockId(0), 0)];
        state[0] = 1;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if *i < succs[b.index()].len() {
                let s = succs[b.index()][*i];
                *i += 1;
                if state[s.index()] == 0 {
                    state[s.index()] = 1;
                    stack.push((s, 0));
                }
            } else {
                state[b.index()] = 2;
                post.push(b);
                stack.pop();
            }
        }
        let rpo: Vec<BlockId> = post.into_iter().rev().collect();
        let mut rpo_index = vec![usize::MAX; n];
        for (i, b) in rpo.iter().enumerate() {
            rpo_index[b.index()] = i;
        }
        Cfg {
            succs,
            preds,
            rpo,
            rpo_index,
        }
    }

    /// Whether `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index[b.index()] != usize::MAX
    }
}

/// Immediate-dominator tree computed with the Cooper–Harvey–Kennedy
/// algorithm. `idom[entry] == entry`; unreachable blocks map to `None`.
#[derive(Debug, Clone)]
pub struct Dominators {
    pub idom: Vec<Option<BlockId>>,
}

impl Dominators {
    /// Compute dominators over the forward CFG.
    pub fn new(cfg: &Cfg) -> Self {
        Self::compute(&cfg.rpo, &cfg.rpo_index, &cfg.preds, cfg.succs.len())
    }

    fn compute(rpo: &[BlockId], rpo_index: &[usize], preds: &[Vec<BlockId>], n: usize) -> Self {
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        if rpo.is_empty() {
            return Dominators { idom };
        }
        let entry = rpo[0];
        idom[entry.index()] = Some(entry);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &preds[b.index()] {
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, rpo_index, p, cur),
                    });
                }
                if new_idom.is_some() && idom[b.index()] != new_idom {
                    idom[b.index()] = new_idom;
                    changed = true;
                }
            }
        }
        Dominators { idom }
    }

    /// True if `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur.index()] {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }
}

fn intersect(
    idom: &[Option<BlockId>],
    rpo_index: &[usize],
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    while a != b {
        while rpo_index[a.index()] > rpo_index[b.index()] {
            a = idom[a.index()].expect("idom set for processed block");
        }
        while rpo_index[b.index()] > rpo_index[a.index()] {
            b = idom[b.index()].expect("idom set for processed block");
        }
    }
    a
}

/// Post-dominator tree. Computed by running the dominator algorithm on the
/// reversed CFG rooted at the (single) exit. Functions produced by the front
/// end always have exactly one `Ret` block; the builder API permits several,
/// in which case a virtual exit joins them.
#[derive(Debug, Clone)]
pub struct PostDominators {
    /// Immediate post-dominator; the virtual exit is represented as `None`
    /// parent for exit blocks.
    ipdom: Vec<Option<BlockId>>,
    exits: Vec<BlockId>,
}

impl PostDominators {
    /// Compute post-dominators for `f`.
    pub fn new(f: &Function, cfg: &Cfg) -> Self {
        let n = f.blocks.len();
        // Reverse CFG with a virtual exit node at index n.
        let mut rsuccs: Vec<Vec<BlockId>> = vec![Vec::new(); n + 1];
        let mut rpreds: Vec<Vec<BlockId>> = vec![Vec::new(); n + 1];
        let virt = BlockId(n as u32);
        let mut exits = Vec::new();
        for (id, _) in f.iter_blocks() {
            if !cfg.is_reachable(id) {
                continue;
            }
            if cfg.succs[id.index()].is_empty() {
                exits.push(id);
                // Edge exit -> virtual in reverse graph means virtual -> exit.
                rsuccs[virt.index()].push(id);
                rpreds[id.index()].push(virt);
            }
            for &s in &cfg.succs[id.index()] {
                rsuccs[s.index()].push(id);
                rpreds[id.index()].push(s);
            }
        }
        // RPO over reversed graph from virtual exit.
        let mut post = Vec::with_capacity(n + 1);
        let mut state = vec![0u8; n + 1];
        let mut stack: Vec<(BlockId, usize)> = vec![(virt, 0)];
        state[virt.index()] = 1;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if *i < rsuccs[b.index()].len() {
                let s = rsuccs[b.index()][*i];
                *i += 1;
                if state[s.index()] == 0 {
                    state[s.index()] = 1;
                    stack.push((s, 0));
                }
            } else {
                state[b.index()] = 2;
                post.push(b);
                stack.pop();
            }
        }
        let rpo: Vec<BlockId> = post.into_iter().rev().collect();
        let mut rpo_index = vec![usize::MAX; n + 1];
        for (i, b) in rpo.iter().enumerate() {
            rpo_index[b.index()] = i;
        }
        let doms = Dominators::compute(&rpo, &rpo_index, &rpreds, n + 1);
        let ipdom = doms.idom[..n]
            .iter()
            .map(|d| d.filter(|b| b.index() < n))
            .collect();
        PostDominators { ipdom, exits }
    }

    /// Immediate post-dominator of `b` (`None` if it is the virtual exit).
    pub fn ipdom(&self, b: BlockId) -> Option<BlockId> {
        self.ipdom[b.index()]
    }

    /// Exit blocks of the function.
    pub fn exits(&self) -> &[BlockId] {
        &self.exits
    }

    /// True if `a` post-dominates `b` (reflexive).
    pub fn post_dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.ipdom[cur.index()] {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::value::Operand;

    /// Build a diamond: bb0 -> {bb1, bb2} -> bb3.
    fn diamond() -> Function {
        let mut b = FunctionBuilder::new("d", vec![]);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.cond_br(Operand::imm_i32(1), t, e);
        b.switch_to(t);
        b.br(j);
        b.switch_to(e);
        b.br(j);
        b.switch_to(j);
        b.ret();
        b.finish()
    }

    #[test]
    fn diamond_cfg_edges() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.succs[0], vec![BlockId(1), BlockId(2)]);
        assert_eq!(cfg.preds[3], vec![BlockId(1), BlockId(2)]);
        assert_eq!(cfg.rpo[0], BlockId(0));
        assert_eq!(*cfg.rpo.last().unwrap(), BlockId(3));
    }

    #[test]
    fn diamond_dominators() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let dom = Dominators::new(&cfg);
        assert_eq!(dom.idom[3], Some(BlockId(0)));
        assert!(dom.dominates(BlockId(0), BlockId(3)));
        assert!(!dom.dominates(BlockId(1), BlockId(3)));
    }

    #[test]
    fn diamond_post_dominators() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let pdom = PostDominators::new(&f, &cfg);
        // Join block post-dominates the branch.
        assert_eq!(pdom.ipdom(BlockId(0)), Some(BlockId(3)));
        assert!(pdom.post_dominates(BlockId(3), BlockId(0)));
        assert!(!pdom.post_dominates(BlockId(1), BlockId(0)));
        assert_eq!(pdom.exits(), &[BlockId(3)]);
    }

    #[test]
    fn loop_post_dominators() {
        // bb0 -> bb1 (head) -> {bb2 (body) -> bb1, bb3 (exit)}
        let mut b = FunctionBuilder::new("l", vec![]);
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(head);
        b.switch_to(head);
        b.cond_br(Operand::imm_i32(1), body, exit);
        b.switch_to(body);
        b.br(head);
        b.switch_to(exit);
        b.ret();
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let pdom = PostDominators::new(&f, &cfg);
        assert_eq!(pdom.ipdom(BlockId(1)), Some(BlockId(3)));
        assert_eq!(pdom.ipdom(BlockId(2)), Some(BlockId(1)));
    }

    #[test]
    fn unreachable_block_excluded_from_rpo() {
        let mut b = FunctionBuilder::new("u", vec![]);
        let dead = b.new_block();
        b.ret();
        b.switch_to(dead);
        b.ret();
        let f = b.finish();
        let cfg = Cfg::new(&f);
        assert!(!cfg.is_reachable(dead));
        assert_eq!(cfg.rpo.len(), 1);
    }
}
