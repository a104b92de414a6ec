//! The flat bit-matrix liveness against the set-based fixed point it
//! replaced, kept here as the oracle: fresh sets per block per sweep and
//! `kill` removed one member at a time. Compared on every suite kernel at
//! the four opt levels, before and after optimisation, and on seeded random
//! CFGs at register counts on either side of the 64-bit word boundaries.

use fpga_gpu_repro::ir::cfg::Cfg;
use fpga_gpu_repro::ir::liveness::{Liveness, RegSet};
use fpga_gpu_repro::ir::passes::{optimize_module, OptLevel};
use fpga_gpu_repro::ir::{
    BinOp, Block, BlockId, Function, FunctionBuilder, Inst, Op, Operand, Scalar, Terminator, Type,
};
use fpga_gpu_repro::suite::all_benchmarks;
use repro_util::Rng;

/// The pre-matrix algorithm, verbatim in behaviour.
fn reference(f: &Function, cfg: &Cfg) -> (Vec<RegSet>, Vec<RegSet>) {
    let n_blocks = f.blocks.len();
    let n_regs = f.num_vregs();
    let mut gen = vec![RegSet::new(n_regs); n_blocks];
    let mut kill = vec![RegSet::new(n_regs); n_blocks];
    for (id, b) in f.iter_blocks() {
        let bi = id.index();
        for inst in &b.insts {
            inst.op.for_each_operand(|o| {
                if let Operand::Reg(r) = o {
                    if !kill[bi].contains(r) {
                        gen[bi].insert(r);
                    }
                }
            });
            if let Some(r) = inst.result {
                kill[bi].insert(r);
            }
        }
        if let Terminator::CondBr {
            cond: Operand::Reg(r),
            ..
        } = &b.term
        {
            if !kill[bi].contains(*r) {
                gen[bi].insert(*r);
            }
        }
    }
    let mut live_in = vec![RegSet::new(n_regs); n_blocks];
    let mut live_out = vec![RegSet::new(n_regs); n_blocks];
    let order: Vec<_> = cfg.rpo.iter().rev().copied().collect();
    let mut changed = true;
    while changed {
        changed = false;
        for &bb in &order {
            let bi = bb.index();
            let mut out = RegSet::new(n_regs);
            for &s in &cfg.succs[bi] {
                out.union_with(&live_in[s.index()]);
            }
            live_out[bi] = out;
            let mut inp = live_out[bi].clone();
            for r in kill[bi].iter() {
                inp.remove(r);
            }
            inp.union_with(&gen[bi]);
            if inp != live_in[bi] {
                live_in[bi] = inp;
                changed = true;
            }
        }
    }
    (live_in, live_out)
}

fn assert_matches_reference(f: &Function, what: &str) {
    let cfg = Cfg::new(f);
    let lv = Liveness::compute(f, &cfg);
    let (live_in, live_out) = reference(f, &cfg);
    for bi in 0..f.blocks.len() {
        assert_eq!(
            lv.live_in(bi),
            live_in[bi].as_row(),
            "{what}: live_in of bb{bi}"
        );
        assert_eq!(
            lv.live_out(bi),
            live_out[bi].as_row(),
            "{what}: live_out of bb{bi}"
        );
    }
}

#[test]
fn matrix_matches_set_oracle_on_every_suite_kernel() {
    for b in all_benchmarks() {
        for level in OptLevel::ALL {
            let mut m = fpga_gpu_repro::front::compile(b.source).expect(b.name);
            for k in &m.kernels {
                assert_matches_reference(k, &format!("{} before {level:?}", k.name));
            }
            optimize_module(&mut m, level);
            for k in &m.kernels {
                assert_matches_reference(k, &format!("{} after {level:?}", k.name));
            }
        }
    }
}

/// A random CFG over `regs` i32 registers: straight-line blocks of random
/// uses and defs, each ending in a return, a jump or a conditional branch
/// to random targets — so self-loops, nested and overlapping back edges
/// and blocks no edge reaches all occur.
fn random_function(rng: &mut Rng, regs: u32) -> Function {
    let n_blocks = 1 + rng.below(12) as u32;
    let mut fb = FunctionBuilder::new("rand", vec![]);
    let vregs: Vec<_> = (0..regs)
        .map(|_| fb.fresh(Type::Scalar(Scalar::I32)))
        .collect();
    fb.ret();
    let mut f = fb.finish();
    let reg = |rng: &mut Rng| vregs[rng.below(regs as u64) as usize];
    let operand = |rng: &mut Rng| {
        if rng.below(4) == 0 {
            Operand::imm_i32(rng.below(9) as i32)
        } else {
            Operand::Reg(reg(rng))
        }
    };
    let target = |rng: &mut Rng| BlockId(rng.below(n_blocks as u64) as u32);
    f.blocks = (0..n_blocks)
        .map(|id| Block {
            id: BlockId(id),
            insts: (0..rng.below(6))
                .map(|_| Inst {
                    result: Some(reg(rng)),
                    op: Op::Bin {
                        op: BinOp::Add,
                        ty: Scalar::I32,
                        a: operand(rng),
                        b: operand(rng),
                    },
                })
                .collect(),
            term: match rng.below(4) {
                0 => Terminator::Ret,
                1 => Terminator::Br {
                    target: target(rng),
                },
                _ => Terminator::CondBr {
                    cond: operand(rng),
                    then_bb: target(rng),
                    else_bb: target(rng),
                },
            },
        })
        .collect();
    f
}

#[test]
fn matrix_matches_set_oracle_on_random_cfgs_at_word_boundaries() {
    let mut rng = Rng::new(0x11fe);
    let (mut self_loops, mut unreachable) = (0, 0);
    for regs in [63, 64, 65, 128] {
        for case in 0..300 {
            let f = random_function(&mut rng, regs);
            assert_eq!(f.num_vregs(), regs as usize);
            let cfg = Cfg::new(&f);
            self_loops += f
                .iter_blocks()
                .filter(|(id, b)| b.term.successors().any(|s| s == *id))
                .count();
            unreachable += (0..f.blocks.len())
                .filter(|&i| !cfg.is_reachable(BlockId(i as u32)))
                .count();
            assert_matches_reference(&f, &format!("{regs} regs, case {case}"));
        }
    }
    // The generator really produces the shapes the oracle is meant for.
    assert!(
        self_loops > 50 && unreachable > 50,
        "{self_loops} {unreachable}"
    );
}
