//! Backward liveness analysis over virtual registers.
//!
//! Consumed by the Vortex code generator's register allocator and by the DCE
//! and LICM passes. Kernels have a few hundred registers at most, so sets
//! are dense bitsets, and the per-block results live in two flat
//! `blocks × words` matrices: one call allocates four vectors whatever the
//! function's size, and the fixed point updates a row a word at a time.

use crate::cfg::Cfg;
use crate::func::Function;
use crate::inst::Terminator;
use crate::value::{Operand, VReg};

/// Members of a bitset, ascending, by `trailing_zeros`.
fn members(words: &[u64]) -> impl Iterator<Item = VReg> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let mut rest = w;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let b = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            Some(VReg((wi * 64 + b) as u32))
        })
    })
}

fn word_bit(r: VReg) -> (usize, u64) {
    (r.index() / 64, 1 << (r.index() % 64))
}

/// A use of `r` is upward-exposed unless the block defined `r` before it.
fn add_use(gen: &mut [u64], kill: &[u64], r: VReg) {
    let (w, bit) = word_bit(r);
    gen[w] |= bit & !kill[w];
}

/// A dense bitset over virtual registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegSet {
    words: Vec<u64>,
}

impl RegSet {
    /// Empty set sized for `n` registers.
    pub fn new(n: usize) -> Self {
        RegSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    pub fn insert(&mut self, r: VReg) -> bool {
        let (w, bit) = word_bit(r);
        let old = self.words[w];
        self.words[w] |= bit;
        old & bit == 0
    }

    pub fn remove(&mut self, r: VReg) {
        let (w, bit) = word_bit(r);
        self.words[w] &= !bit;
    }

    pub fn contains(&self, r: VReg) -> bool {
        self.as_row().contains(r)
    }

    /// `self |= other`; returns true if `self` changed.
    pub fn union_with(&mut self, other: &RegSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a | *b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// Make `self` a copy of `row` (same register count), reusing storage.
    pub fn copy_from(&mut self, row: RegRow<'_>) {
        self.words.copy_from_slice(row.0);
    }

    /// Iterate over members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = VReg> + '_ {
        members(&self.words)
    }

    pub fn len(&self) -> usize {
        self.as_row().len()
    }

    pub fn is_empty(&self) -> bool {
        self.as_row().is_empty()
    }

    /// Borrowed view of the set.
    pub fn as_row(&self) -> RegRow<'_> {
        RegRow(&self.words)
    }
}

/// One block's row of a [`Liveness`] matrix: a borrowed register set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegRow<'a>(&'a [u64]);

impl<'a> RegRow<'a> {
    pub fn contains(self, r: VReg) -> bool {
        let (w, bit) = word_bit(r);
        self.0[w] & bit != 0
    }

    /// Iterate over members in ascending order.
    pub fn iter(self) -> impl Iterator<Item = VReg> + 'a {
        members(self.0)
    }

    pub fn len(self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn is_empty(self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }
}

/// Per-block liveness results: row `b` of each matrix is block `b`'s set.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// `u64` words per row.
    words: usize,
    live_in: Vec<u64>,
    live_out: Vec<u64>,
}

impl Liveness {
    /// Registers live on entry to block `b`.
    pub fn live_in(&self, b: usize) -> RegRow<'_> {
        RegRow(&self.live_in[b * self.words..][..self.words])
    }

    /// Registers live on exit from block `b`.
    pub fn live_out(&self, b: usize) -> RegRow<'_> {
        RegRow(&self.live_out[b * self.words..][..self.words])
    }

    /// Compute liveness for `f` given its CFG.
    pub fn compute(f: &Function, cfg: &Cfg) -> Self {
        let w = f.num_vregs().div_ceil(64);
        let cells = f.blocks.len() * w;
        // Per-block gen (upward-exposed uses) and kill (defs).
        let mut gen = vec![0u64; cells];
        let mut kill = vec![0u64; cells];
        for (id, b) in f.iter_blocks() {
            let rows = id.index() * w..(id.index() + 1) * w;
            let (g, k) = (&mut gen[rows.clone()], &mut kill[rows]);
            for inst in &b.insts {
                inst.op.for_each_operand(|o| {
                    if let Operand::Reg(r) = o {
                        add_use(g, k, r);
                    }
                });
                if let Some(r) = inst.result {
                    let (wi, bit) = word_bit(r);
                    k[wi] |= bit;
                }
            }
            if let Terminator::CondBr {
                cond: Operand::Reg(r),
                ..
            } = &b.term
            {
                add_use(g, k, *r);
            }
        }
        let mut live_in = vec![0u64; cells];
        let mut live_out = vec![0u64; cells];
        // Iterate to fixed point in post-order (reverse RPO) for fast
        // convergence of the backward problem; unreachable blocks stay empty.
        let mut changed = true;
        while changed {
            changed = false;
            for &bb in cfg.rpo.iter().rev() {
                let row = bb.index() * w;
                let out = &mut live_out[row..row + w];
                out.fill(0);
                for &s in &cfg.succs[bb.index()] {
                    let succ_in = &live_in[s.index() * w..][..w];
                    for (o, &i) in out.iter_mut().zip(succ_in) {
                        *o |= i;
                    }
                }
                // in = gen | (out & !kill)
                for j in 0..w {
                    let new = gen[row + j] | (out[j] & !kill[row + j]);
                    if new != live_in[row + j] {
                        live_in[row + j] = new;
                        changed = true;
                    }
                }
            }
        }
        Liveness {
            words: w,
            live_in,
            live_out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::Scalar;
    use crate::value::Operand;
    use crate::{BinOp, CmpOp};

    #[test]
    fn regset_basics() {
        let mut s = RegSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(VReg(0)));
        assert!(!s.insert(VReg(0)));
        assert!(s.insert(VReg(129)));
        assert!(s.contains(VReg(129)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![VReg(0), VReg(129)]);
        s.remove(VReg(0));
        assert!(!s.contains(VReg(0)));
    }

    #[test]
    fn regset_union() {
        let mut a = RegSet::new(10);
        let mut b = RegSet::new(10);
        a.insert(VReg(1));
        b.insert(VReg(2));
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn members_cross_word_boundaries() {
        let mut s = RegSet::new(192);
        let want = [0, 1, 62, 63, 64, 65, 127, 128, 191].map(VReg);
        for r in want {
            s.insert(r);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), want);
        assert_eq!(s.as_row().iter().count(), want.len());
    }

    #[test]
    fn loop_carried_value_is_live_around_backedge() {
        // i defined in entry, used and redefined in loop body.
        let mut b = FunctionBuilder::new("k", vec![]);
        let i = b.mov(Scalar::I32, Operand::imm_i32(0));
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(head);
        b.switch_to(head);
        let c = b.cmp(CmpOp::Lt, Scalar::I32, i.into(), Operand::imm_i32(10));
        b.cond_br(c.into(), body, exit);
        b.switch_to(body);
        let i2 = b.bin(BinOp::Add, Scalar::I32, i.into(), Operand::imm_i32(1));
        b.assign(i, Scalar::I32, i2.into());
        b.br(head);
        b.switch_to(exit);
        b.ret();
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let lv = Liveness::compute(&f, &cfg);
        // i is live into the loop head and around the backedge.
        assert!(lv.live_in(1).contains(i));
        assert!(lv.live_out(2).contains(i));
        // i2 is consumed within the body.
        assert!(!lv.live_out(2).contains(i2));
    }

    #[test]
    fn dead_value_not_live_anywhere() {
        let mut b = FunctionBuilder::new("k", vec![]);
        let dead = b.mov(Scalar::I32, Operand::imm_i32(42));
        b.ret();
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let lv = Liveness::compute(&f, &cfg);
        assert!(!lv.live_in(0).contains(dead));
        assert!(!lv.live_out(0).contains(dead));
    }
}
