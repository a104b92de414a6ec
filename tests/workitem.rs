//! The two questions both flows ask about a register — does its value
//! depend on the work-item id, and how? — pinned over every suite kernel at
//! the four opt levels.
//!
//! Per kernel the golden records what each flow consumes: the branches the
//! Vortex flow lowers with SPLIT/JOIN or PRED, and the HLS pattern of every
//! global access site (which sizes its burst buffers). It also records the
//! census of registers on which the HLS stride lattice and the warp
//! divergence analysis disagree about thread invariance, each classed as
//!
//! * `hls-coarse` — the stride lattice calls a value work-item dependent
//!   that divergence proves uniform (it gives up on every load, compare and
//!   select);
//! * `div-coarse` — divergence calls a value divergent only because its
//!   assignments sit under a divergent branch together (a single assignment,
//!   or a loop counter whose own exit test is the only branch splitting
//!   them), so every thread that runs a use holds the same value;
//! * `genuine` — a divergent branch governs some of the value's
//!   assignments and not others (or the value reads one that is), so threads
//!   may hold different values; the stride lattice has no control dependence
//!   and calls it uniform.
//!
//! Both analyses live here as oracles, and the flows' own answers must
//! agree with them.
//!
//! Regenerate after an intentional change with
//! `REGOLD=1 cargo test --test workitem`.

use fpga_gpu_repro::front::compile;
use fpga_gpu_repro::hls::analysis::{profile, AccessPattern};
use fpga_gpu_repro::ir::cfg::{Cfg, PostDominators};
use fpga_gpu_repro::ir::passes::{optimize_module, OptLevel};
use fpga_gpu_repro::ir::workitem::WorkItemInfo;
use fpga_gpu_repro::ir::{
    AddressSpace, BinOp, BlockId, Builtin, Function, Op, Operand, Terminator, UnOp, VReg,
};
use fpga_gpu_repro::suite::all_benchmarks;
use std::fmt::Write;

/// The HLS flow's stride lattice as it stood before the unified analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Aff {
    Uniform,
    UnitAffine,
    StridedAffine,
    Other,
}

fn aff_of(o: &Operand, aff: &[Aff]) -> Aff {
    match o {
        Operand::Const(_) => Aff::Uniform,
        Operand::Reg(r) => aff[r.index()],
    }
}

fn aff_infer(op: &Op, aff: &[Aff]) -> Aff {
    use Aff::*;
    let affine = |a: Aff| a == UnitAffine || a == StridedAffine;
    match op {
        Op::WorkItem(Builtin::GlobalId(0) | Builtin::LocalId(0)) => UnitAffine,
        Op::WorkItem(Builtin::GlobalId(_) | Builtin::LocalId(_) | Builtin::GroupId(_)) => {
            StridedAffine
        }
        Op::WorkItem(_) | Op::LocalAddr(_) => Uniform,
        Op::Mov { a, .. }
        | Op::Un {
            op: UnOp::IntCast | UnOp::Neg,
            a,
            ..
        } => aff_of(a, aff),
        Op::Un { a, .. } => match aff_of(a, aff) {
            Uniform => Uniform,
            _ => Other,
        },
        Op::Bin { op, a, b, .. } => match (op, aff_of(a, aff), aff_of(b, aff)) {
            (_, Uniform, Uniform) => Uniform,
            (BinOp::Add | BinOp::Sub, x, Uniform) | (BinOp::Add | BinOp::Sub, Uniform, x)
                if affine(x) =>
            {
                x
            }
            (BinOp::Add | BinOp::Sub, x, y) if affine(x) && affine(y) => StridedAffine,
            (BinOp::Mul | BinOp::Shl, x, Uniform) | (BinOp::Mul | BinOp::Shl, Uniform, x)
                if affine(x) =>
            {
                StridedAffine
            }
            _ => Other,
        },
        Op::Gep { base, index, .. } => match (aff_of(base, aff), aff_of(index, aff)) {
            (Uniform, Uniform) => Uniform,
            (Uniform, x) | (x, Uniform) if x != Other => x,
            _ => Other,
        },
        _ => Other,
    }
}

/// Flow-insensitive fixed point over every block, joining all assignments.
fn stride_lattice(f: &Function) -> Vec<Aff> {
    let mut aff = vec![Aff::Uniform; f.num_vregs()];
    loop {
        let mut changed = false;
        for inst in f.blocks.iter().flat_map(|b| &b.insts) {
            let Some(r) = inst.result else { continue };
            let new = aff_infer(&inst.op, &aff).max(aff[r.index()]);
            if new != aff[r.index()] {
                aff[r.index()] = new;
                changed = true;
            }
        }
        if !changed {
            return aff;
        }
    }
}

fn hls_pattern(a: Aff) -> AccessPattern {
    match a {
        Aff::Uniform | Aff::UnitAffine => AccessPattern::ThreadAffine,
        Aff::StridedAffine | Aff::Other => AccessPattern::Computed,
    }
}

/// The warp divergence analysis as it stood before the unified analysis:
/// per register "may vary across a warp", per block "ends in a divergent
/// branch", and per block pair `(a, b)` "`b` is control-dependent on `a`".
struct Divergence {
    reg: Vec<bool>,
    branch: Vec<bool>,
    cd: Vec<bool>,
}

/// With `merges_only`, an assignment under a divergent branch taints its
/// register only when the branch governs some of the register's assignments
/// and not others: threads that took different sides then hold values from
/// different assignments. The analysis the flows used taints every
/// assignment under a divergent branch.
fn divergence(f: &Function, cfg: &Cfg, pdom: &PostDominators, merges_only: bool) -> Divergence {
    let n = f.blocks.len();
    // Row `a`: blocks reachable from a's successors without passing ipdom(a).
    let mut cd = vec![false; n * n];
    for (id, b) in f.iter_blocks() {
        if !matches!(b.term, Terminator::CondBr { .. }) || !cfg.is_reachable(id) {
            continue;
        }
        let stop = pdom.ipdom(id);
        let row = &mut cd[id.index() * n..][..n];
        let mut work = cfg.succs[id.index()].clone();
        while let Some(cur) = work.pop() {
            if Some(cur) != stop && !row[cur.index()] {
                row[cur.index()] = true;
                work.extend(&cfg.succs[cur.index()]);
            }
        }
    }
    let mut def_blocks = vec![Vec::new(); f.num_vregs()];
    for (bb, block) in f.iter_blocks() {
        for r in block.insts.iter().filter_map(|i| i.result) {
            def_blocks[r.index()].push(bb.index());
        }
    }
    let mut d = Divergence {
        reg: vec![false; f.num_vregs()],
        branch: vec![false; n],
        cd,
    };
    let mut under = vec![false; n];
    loop {
        let mut changed = false;
        under.fill(false);
        for a in (0..n).filter(|&a| d.branch[a]) {
            for (u, &c) in under.iter_mut().zip(&d.cd[a * n..][..n]) {
                *u |= c;
            }
        }
        let split: Vec<bool> = def_blocks
            .iter()
            .map(|defs| {
                (0..n).filter(|&a| d.branch[a]).any(|a| {
                    let inside = defs.iter().filter(|&&b| d.cd[a * n + b]).count();
                    inside > 0 && inside < defs.len()
                })
            })
            .collect();
        for &bb in &cfg.rpo {
            let block = f.block(bb);
            for inst in &block.insts {
                let Some(r) = inst.result else { continue };
                let tainted = if merges_only {
                    split[r.index()]
                } else {
                    under[bb.index()]
                };
                let mut v = tainted
                    || matches!(inst.op, Op::WorkItem(w) if !w.is_uniform())
                    || matches!(inst.op, Op::AtomicRmw { .. });
                inst.op.for_each_operand(|o| {
                    v |= matches!(o, Operand::Reg(x) if d.reg[x.index()]);
                });
                if v && !d.reg[r.index()] {
                    d.reg[r.index()] = true;
                    changed = true;
                }
            }
            if let Terminator::CondBr {
                cond: Operand::Reg(c),
                ..
            } = block.term
            {
                if d.reg[c.index()] && !d.branch[bb.index()] {
                    d.branch[bb.index()] = true;
                    changed = true;
                }
            }
        }
        if !changed {
            return d;
        }
    }
}

fn op_name(op: &Op) -> &'static str {
    match op {
        Op::Bin { .. } => "bin",
        Op::Un { .. } => "un",
        Op::Cmp { .. } => "cmp",
        Op::Select { .. } => "select",
        Op::Mov { .. } => "mov",
        Op::Gep { .. } => "gep",
        Op::Load { .. } => "load",
        Op::AtomicRmw { .. } => "atomic",
        Op::WorkItem(_) => "workitem",
        Op::LocalAddr(_) => "localaddr",
        Op::Store { .. } | Op::Barrier | Op::Printf { .. } => "none",
    }
}

/// The census column: every register whose thread invariance the two
/// analyses answer differently, in register order.
fn disagreements(
    f: &Function,
    aff: &[Aff],
    div: &Divergence,
    cfg: &Cfg,
    pdom: &PostDominators,
) -> String {
    // A register the stride lattice calls uniform but divergence does not is
    // `genuine` if it still diverges when only merges across a divergent
    // branch taint (or it reads a register that does); otherwise its
    // divergence is `div-coarse` — for instance a loop counter inside a
    // divergent `if`, which diverges only because its own exit test reads it.
    let n = f.num_vregs();
    let mut first: Vec<Option<&Op>> = vec![None; n];
    for inst in f.blocks.iter().flat_map(|b| &b.insts) {
        if let Some(r) = inst.result {
            first[r.index()].get_or_insert(&inst.op);
        }
    }
    let merges = divergence(f, cfg, pdom, true);
    let disputed = |r: usize| aff[r] == Aff::Uniform && div.reg[r];
    let rows: Vec<String> = (0..n)
        .filter_map(|r| {
            let op = first[r]?;
            let class = if aff[r] != Aff::Uniform && !div.reg[r] {
                "hls-coarse"
            } else if !disputed(r) {
                return None;
            } else if merges.reg[r] {
                "genuine"
            } else {
                "div-coarse"
            };
            Some(format!("%{r} {} {class}", op_name(op)))
        })
        .collect();
    if rows.is_empty() {
        "—".into()
    } else {
        rows.join(", ")
    }
}

fn render() -> String {
    let mut out = String::from(
        "# work-item analyses\n\n\
         Per kernel: the blocks whose branch the Vortex flow treats as divergent \
         (`div`), the HLS pattern of each global access site in block order \
         (`sites`: `L`/`S` load/store, `a` thread-affine, `c` computed), and each \
         register whose thread invariance the HLS stride lattice and warp \
         divergence answer differently (`census`).\n",
    );
    for b in all_benchmarks() {
        write!(
            out,
            "\n## {}\n\n| opt | kernel | div | sites | census |\n|---|---|---|---|---|\n",
            b.name
        )
        .unwrap();
        for level in OptLevel::ALL {
            let mut m = compile(b.source).expect(b.name);
            optimize_module(&mut m, level);
            for f in &m.kernels {
                let cfg = Cfg::new(f);
                let pdom = PostDominators::new(f, &cfg);
                let aff = stride_lattice(f);
                let div = divergence(f, &cfg, &pdom, false);

                // The flows' own answers agree with the oracles.
                let wi = WorkItemInfo::analyze(f, &cfg, &pdom);
                for (i, &d) in div.reg.iter().enumerate() {
                    let r = Operand::Reg(VReg(i as u32));
                    assert_eq!(wi.of(&r).is_divergent(), d, "{} {level:?} %{i}", f.name);
                }
                for (i, &d) in div.branch.iter().enumerate() {
                    let bb = BlockId(i as u32);
                    assert_eq!(wi.is_divergent_branch(bb), d, "{} {level:?} {bb}", f.name);
                }
                let p = profile(f);
                let mut sites = Vec::new();
                let (mut loads, mut stores) = (p.load_sites.iter(), p.store_sites.iter());
                for inst in f.blocks.iter().flat_map(|b| &b.insts) {
                    let (kind, ptr, site) = match &inst.op {
                        Op::Load {
                            ptr,
                            space: AddressSpace::Global,
                            ..
                        } => ('L', ptr, loads.next()),
                        Op::Store {
                            ptr,
                            space: AddressSpace::Global,
                            ..
                        } => ('S', ptr, stores.next()),
                        _ => continue,
                    };
                    let pattern = hls_pattern(aff_of(ptr, &aff));
                    assert_eq!(site.unwrap().pattern, pattern, "{} {level:?}", f.name);
                    let p = if pattern == AccessPattern::ThreadAffine {
                        'a'
                    } else {
                        'c'
                    };
                    sites.push(format!("{kind}{p}"));
                }

                let branches: Vec<String> = (0..f.blocks.len())
                    .filter(|&i| div.branch[i])
                    .map(|i| BlockId(i as u32).to_string())
                    .collect();
                writeln!(
                    out,
                    "| {} | {} | {} | {} | {} |",
                    level.flag_name(),
                    f.name,
                    if branches.is_empty() {
                        "—".into()
                    } else {
                        branches.join(" ")
                    },
                    sites.join(" "),
                    disagreements(f, &aff, &div, &cfg, &pdom),
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn workitem_analyses_match_golden() {
    let rendered = render();
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/workitem.md");
    if std::env::var_os("REGOLD").is_some() {
        std::fs::write(golden_path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file missing — run with REGOLD=1 to create it");
    assert_eq!(
        rendered, golden,
        "work-item analysis answers changed; if intentional, regenerate with REGOLD=1"
    );
}
