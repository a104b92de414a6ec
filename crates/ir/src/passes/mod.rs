//! The IR middle end: named passes behind a [`PassManager`].
//!
//! The pass set deliberately mirrors the transformations the paper leans on:
//! * [`cse`] is the automated form of the §III-B "O1: variable reuse"
//!   optimization — it removes redundant global loads and recomputed
//!   subexpressions exactly the way the authors did by hand in Listing 2.
//! * [`const_fold`] and [`copy_prop`] clean up front-end output.
//! * [`dce`] removes the dead code those passes leave behind.
//! * [`licm`], [`strength_reduce`] and [`unroll`] form the loop tier behind
//!   [`OptLevel::Loop`], built on the natural-loop analysis in
//!   [`crate::loops`].
//!
//! The manager drives the selected pipeline to a fixed point (bounded by
//! [`MAX_ROUNDS`]), re-verifies the IR after every pass in debug builds,
//! and records per-pass rewrite counts and wall-clock time in a
//! [`FunctionReport`]. To look at the IR between passes, print the
//! [`Function`] with its `Display` impl.

pub mod const_fold;
pub mod copy_prop;
pub mod cse;
pub mod dce;
pub mod licm;
pub mod strength_reduce;
pub mod unroll;

use crate::cfg::{Cfg, Dominators};
use crate::func::{Function, Module};
use crate::liveness::Liveness;
use crate::loops::LoopForest;
use std::time::Instant;

/// Optimization level, matching the flags both flows accept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptLevel {
    /// Front-end output as-is.
    None,
    /// Constant folding + copy propagation + DCE.
    #[default]
    Basic,
    /// `Basic` plus CSE / variable-reuse (the automated "O1" of §III-B).
    VariableReuse,
    /// `VariableReuse` plus the loop tier: invariant code motion, integer
    /// strength reduction and bounded unrolling of constant-trip loops.
    Loop,
}

impl OptLevel {
    /// All levels, weakest first.
    pub const ALL: [OptLevel; 4] = [
        OptLevel::None,
        OptLevel::Basic,
        OptLevel::VariableReuse,
        OptLevel::Loop,
    ];

    /// Parse the CLI spelling used by the `--opt` flag.
    pub fn parse(s: &str) -> Option<OptLevel> {
        Some(match s.to_ascii_lowercase().as_str() {
            "none" | "o0" => OptLevel::None,
            "basic" => OptLevel::Basic,
            "reuse" | "variable-reuse" | "o1" => OptLevel::VariableReuse,
            "loop" => OptLevel::Loop,
            _ => return None,
        })
    }

    /// The canonical CLI spelling accepted by [`OptLevel::parse`].
    pub fn flag_name(self) -> &'static str {
        match self {
            OptLevel::None => "none",
            OptLevel::Basic => "basic",
            OptLevel::VariableReuse => "reuse",
            OptLevel::Loop => "loop",
        }
    }
}

/// Lazily-computed, cached analyses shared by the passes of one pipeline
/// run — the only place a pass gets a CFG, dominators, loops or liveness
/// from. The manager invalidates entries according to each pass's
/// `preserves_cfg` flag, so a pass that only rewrites operands
/// does not force a CFG rebuild for the next one; a pass that rewrites the
/// CFG and wants to look again calls [`Analyses::invalidate_all`] itself.
#[derive(Default)]
pub struct Analyses {
    cfg: Option<Cfg>,
    dom: Option<Dominators>,
    live: Option<Liveness>,
    loops: Option<LoopForest>,
}

impl Analyses {
    /// CFG plus register liveness.
    pub fn cfg_live(&mut self, f: &Function) -> (&Cfg, &Liveness) {
        let cfg = self.cfg.get_or_insert_with(|| Cfg::new(f));
        let live = self.live.get_or_insert_with(|| Liveness::compute(f, cfg));
        (cfg, live)
    }

    /// CFG, dominator tree and natural loops.
    pub fn loops(&mut self, f: &Function) -> (&Cfg, &Dominators, &LoopForest) {
        let cfg = self.cfg.get_or_insert_with(|| Cfg::new(f));
        let dom = self.dom.get_or_insert_with(|| Dominators::new(cfg));
        let loops = self
            .loops
            .get_or_insert_with(|| LoopForest::find(f, cfg, dom));
        (cfg, dom, loops)
    }

    /// [`Analyses::loops`] plus register liveness.
    pub fn loops_live(&mut self, f: &Function) -> (&Cfg, &Dominators, &LoopForest, &Liveness) {
        let cfg = self.cfg.get_or_insert_with(|| Cfg::new(f));
        let dom = self.dom.get_or_insert_with(|| Dominators::new(cfg));
        let loops = self
            .loops
            .get_or_insert_with(|| LoopForest::find(f, cfg, dom));
        let live = self.live.get_or_insert_with(|| Liveness::compute(f, cfg));
        (cfg, dom, loops, live)
    }

    /// Drop everything — the CFG changed.
    pub fn invalidate_all(&mut self) {
        *self = Analyses::default();
    }

    /// Drop the dataflow results but keep the CFG-shaped ones — for passes
    /// that rewrite instructions without touching block structure.
    pub fn invalidate_dataflow(&mut self) {
        self.live = None;
    }
}

/// A named transformation over one function: one row of the pipeline
/// table.
struct Pass {
    /// Stable name used in reports and goldens.
    name: &'static str,
    /// `"ir.pass.<name>"`: the histogram the driver records each
    /// invocation's wall time under. Static, so a sample formats nothing.
    secs_metric: &'static str,
    /// `"ir.rewrites.<name>"`: the counter of the invocation's rewrites.
    rewrites_metric: &'static str,
    /// Apply the pass; returns the number of rewrites performed (0 means
    /// the function is unchanged).
    run: fn(&mut Function, &mut Analyses) -> usize,
    /// Whether the pass leaves block structure and edges untouched. The
    /// manager keeps CFG-derived analyses cached across passes that do.
    preserves_cfg: bool,
}

impl Pass {
    /// Constant folding and per-block constant propagation.
    const CONST_FOLD: Pass = Pass {
        name: "const-fold",
        secs_metric: "ir.pass.const-fold",
        rewrites_metric: "ir.rewrites.const-fold",
        run: |f, _| const_fold::run(f),
        preserves_cfg: true,
    };
    /// Per-block copy propagation.
    const COPY_PROP: Pass = Pass {
        name: "copy-prop",
        secs_metric: "ir.pass.copy-prop",
        rewrites_metric: "ir.rewrites.copy-prop",
        run: |f, _| copy_prop::run(f),
        preserves_cfg: true,
    };
    /// Common-subexpression and redundant-load elimination (automated O1).
    const CSE: Pass = Pass {
        name: "cse",
        secs_metric: "ir.pass.cse",
        rewrites_metric: "ir.rewrites.cse",
        run: |f, _| cse::run(f),
        preserves_cfg: true,
    };
    /// Liveness-driven dead-code elimination.
    const DCE: Pass = Pass {
        name: "dce",
        secs_metric: "ir.pass.dce",
        rewrites_metric: "ir.rewrites.dce",
        run: |f, an| {
            let (_, live) = an.cfg_live(f);
            dce::run_with(f, live)
        },
        preserves_cfg: true,
    };
    /// Loop-invariant code motion (inserts preheaders).
    const LICM: Pass = Pass {
        name: "licm",
        secs_metric: "ir.pass.licm",
        rewrites_metric: "ir.rewrites.licm",
        run: licm::run,
        preserves_cfg: false,
    };
    /// Integer strength reduction and algebraic identities.
    const STRENGTH_REDUCE: Pass = Pass {
        name: "strength-reduce",
        secs_metric: "ir.pass.strength-reduce",
        rewrites_metric: "ir.rewrites.strength-reduce",
        run: |f, _| strength_reduce::run(f),
        preserves_cfg: true,
    };
    /// Bounded full unrolling of constant-trip loops.
    const UNROLL: Pass = Pass {
        name: "unroll",
        secs_metric: "ir.pass.unroll",
        rewrites_metric: "ir.rewrites.unroll",
        run: unroll::run,
        preserves_cfg: false,
    };
}

/// The pipelines of [`PassManager::for_level`], one slot per row.
/// `VariableReuse` runs the exact sequence the paper's automated-O1
/// experiment used; `Loop` inserts the loop tier between CSE cleanup and
/// the final DCE.
const BASIC: &[Pass] = &[Pass::CONST_FOLD, Pass::COPY_PROP, Pass::DCE];
const VARIABLE_REUSE: &[Pass] = &[
    Pass::CONST_FOLD,
    Pass::COPY_PROP,
    Pass::CSE,
    Pass::COPY_PROP,
    Pass::DCE,
];
const LOOP: &[Pass] = &[
    Pass::CONST_FOLD,
    Pass::COPY_PROP,
    Pass::CSE,
    Pass::COPY_PROP,
    Pass::LICM,
    Pass::STRENGTH_REDUCE,
    Pass::UNROLL,
    Pass::DCE,
];

/// Upper bound on fixed-point rounds. Every pipeline in this crate
/// converges far below it; hitting the cap means a pass keeps reporting
/// rewrites without making progress, which debug builds treat as a bug.
pub const MAX_ROUNDS: usize = 12;

/// Accumulated statistics for one pipeline slot.
#[derive(Debug, Clone)]
pub struct PassRunStats {
    /// Name of the pass in this slot.
    pub name: &'static str,
    /// How many times the slot ran (once per round).
    pub runs: usize,
    /// Total rewrites across all rounds.
    pub rewrites: usize,
    /// Total wall-clock seconds across all rounds.
    pub secs: f64,
}

/// What the pipeline did to one function.
#[derive(Debug, Clone, Default)]
pub struct FunctionReport {
    /// Kernel name.
    pub name: String,
    /// Fixed-point rounds executed.
    pub rounds: usize,
    /// Static instruction count before the pipeline.
    pub insts_before: usize,
    /// Static instruction count after the pipeline.
    pub insts_after: usize,
    /// One entry per pipeline slot, in pipeline order. The same pass may
    /// appear in several slots (e.g. `copy-prop` after CSE).
    pub passes: Vec<PassRunStats>,
}

impl FunctionReport {
    /// Total rewrites across every slot named `pass`.
    pub fn rewrites(&self, pass: &str) -> usize {
        self.passes
            .iter()
            .filter(|p| p.name == pass)
            .map(|p| p.rewrites)
            .sum()
    }

    /// Total rewrites across the whole pipeline.
    pub fn total_rewrites(&self) -> usize {
        self.passes.iter().map(|p| p.rewrites).sum()
    }
}

/// Per-kernel reports for a module.
#[derive(Debug, Clone, Default)]
pub struct ModuleReport {
    pub kernels: Vec<FunctionReport>,
}

impl ModuleReport {
    /// Total rewrites across every kernel for slots named `pass`.
    pub fn rewrites(&self, pass: &str) -> usize {
        self.kernels.iter().map(|k| k.rewrites(pass)).sum()
    }

    /// Total rewrites across every kernel and slot.
    pub fn total_rewrites(&self) -> usize {
        self.kernels.iter().map(|k| k.total_rewrites()).sum()
    }

    /// Report for one kernel by name.
    pub fn kernel(&self, name: &str) -> Option<&FunctionReport> {
        self.kernels.iter().find(|k| k.name == name)
    }
}

/// An ordered pipeline of passes plus the fixed-point driver.
pub struct PassManager {
    passes: &'static [Pass],
}

impl PassManager {
    /// The standard pipeline for an optimization level.
    pub fn for_level(level: OptLevel) -> Self {
        let passes = match level {
            OptLevel::None => &[],
            OptLevel::Basic => BASIC,
            OptLevel::VariableReuse => VARIABLE_REUSE,
            OptLevel::Loop => LOOP,
        };
        PassManager { passes }
    }

    /// Drive the pipeline to a fixed point on one function.
    ///
    /// In debug builds the IR verifier runs after every pass and panics,
    /// naming the pass, if a transformation produced malformed IR.
    pub fn run(&self, f: &mut Function) -> FunctionReport {
        let insts_before = f.num_insts();
        let mut slots: Vec<PassRunStats> = self
            .passes
            .iter()
            .map(|p| PassRunStats {
                name: p.name,
                runs: 0,
                rewrites: 0,
                secs: 0.0,
            })
            .collect();
        let mut an = Analyses::default();
        let mut rounds = 0;
        let mut quiesced = self.passes.is_empty();
        while !quiesced && rounds < MAX_ROUNDS {
            rounds += 1;
            let mut round_rewrites = 0;
            for (si, p) in self.passes.iter().enumerate() {
                let t0 = Instant::now();
                let n = (p.run)(f, &mut an);
                let secs = t0.elapsed().as_secs_f64();
                repro_util::metrics::observe_secs(p.secs_metric, secs);
                repro_util::metrics::counter_add(p.rewrites_metric, n as u64);
                if n > 0 {
                    if p.preserves_cfg {
                        an.invalidate_dataflow();
                    } else {
                        an.invalidate_all();
                    }
                }
                if cfg!(debug_assertions) {
                    if let Err(e) = crate::verify::verify_function(f) {
                        panic!(
                            "IR verifier failed after pass `{}` on `{}`: {e}\n{f}",
                            p.name, f.name
                        );
                    }
                }
                slots[si].runs += 1;
                slots[si].rewrites += n;
                slots[si].secs += secs;
                round_rewrites += n;
            }
            quiesced = round_rewrites == 0;
        }
        debug_assert!(
            quiesced,
            "pass pipeline did not quiesce within {MAX_ROUNDS} rounds on `{}`",
            f.name
        );
        FunctionReport {
            name: f.name.clone(),
            rounds,
            insts_before,
            insts_after: f.num_insts(),
            passes: slots,
        }
    }
}

/// Run the standard pipeline for `level` on one function.
pub fn optimize_function(f: &mut Function, level: OptLevel) -> FunctionReport {
    PassManager::for_level(level).run(f)
}

/// Run the standard pipeline for `level` on every kernel of a module.
pub fn optimize_module(m: &mut Module, level: OptLevel) -> ModuleReport {
    let pm = PassManager::for_level(level);
    ModuleReport {
        kernels: m.kernels.iter_mut().map(|k| pm.run(k)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::func::Param;
    use crate::types::{AddressSpace, Scalar, Type};
    use crate::value::Operand;
    use crate::{BinOp, Builtin, CmpOp};

    /// Kernel with a redundant load and a foldable constant, shaped like the
    /// backprop Listing 1 pattern.
    fn redundant_kernel() -> Function {
        let mut b = FunctionBuilder::new(
            "k",
            vec![Param {
                name: "delta".into(),
                ty: Type::Ptr(AddressSpace::Global),
            }],
        );
        let gid = b.workitem(Builtin::GlobalId(0));
        let p1 = b.gep(
            Operand::Reg(b.param(0)),
            gid.into(),
            4,
            AddressSpace::Global,
        );
        let v1 = b.load(p1.into(), Scalar::F32, AddressSpace::Global);
        // Same address computed and loaded a second time.
        let p2 = b.gep(
            Operand::Reg(b.param(0)),
            gid.into(),
            4,
            AddressSpace::Global,
        );
        let v2 = b.load(p2.into(), Scalar::F32, AddressSpace::Global);
        let s = b.bin(BinOp::Add, Scalar::F32, v1.into(), v2.into());
        // Foldable: 2 + 3.
        let c = b.bin(
            BinOp::Add,
            Scalar::I32,
            Operand::imm_i32(2),
            Operand::imm_i32(3),
        );
        let addr = b.gep(Operand::Reg(b.param(0)), c.into(), 4, AddressSpace::Global);
        b.store(addr.into(), s.into(), Scalar::F32, AddressSpace::Global);
        b.ret();
        b.finish()
    }

    fn count_loads(f: &Function) -> usize {
        f.blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i.op, crate::Op::Load { .. }))
            .count()
    }

    #[test]
    fn variable_reuse_removes_redundant_load() {
        let mut f = redundant_kernel();
        assert_eq!(count_loads(&f), 2);
        let report = optimize_function(&mut f, OptLevel::VariableReuse);
        assert!(report.rewrites("cse") >= 1, "report: {report:?}");
        assert_eq!(count_loads(&f), 1, "after:\n{f}");
        crate::verify::verify_function(&f).unwrap();
    }

    #[test]
    fn basic_level_keeps_loads() {
        let mut f = redundant_kernel();
        optimize_function(&mut f, OptLevel::Basic);
        assert_eq!(count_loads(&f), 2);
        crate::verify::verify_function(&f).unwrap();
    }

    #[test]
    fn opt_none_is_identity() {
        let mut f = redundant_kernel();
        let before = f.clone();
        let report = optimize_function(&mut f, OptLevel::None);
        assert_eq!(report.total_rewrites(), 0);
        assert_eq!(report.rounds, 0);
        assert_eq!(f, before);
    }

    #[test]
    fn report_tracks_rounds_and_sizes() {
        let mut f = redundant_kernel();
        let report = optimize_function(&mut f, OptLevel::VariableReuse);
        assert!(report.rounds >= 1 && report.rounds < MAX_ROUNDS);
        assert_eq!(report.insts_after, f.num_insts());
        assert!(report.insts_after < report.insts_before);
        // Every slot ran every round.
        for s in &report.passes {
            assert_eq!(s.runs, report.rounds, "slot {}", s.name);
        }
    }

    /// for (i = 0; i < 4; i++) out[i] = x * 8  — exercises the whole loop
    /// tier: the multiply is hoisted and strength-reduced, the loop is
    /// unrolled, and the bookkeeping dies.
    fn loop_kernel() -> Function {
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
        let c = b.cmp(CmpOp::Lt, Scalar::U32, i.into(), Operand::imm_u32(4));
        b.cond_br(c.into(), body, exit);
        b.switch_to(body);
        let v = b.bin(BinOp::Mul, Scalar::U32, x.into(), Operand::imm_u32(8));
        let addr = b.gep(Operand::Reg(b.param(0)), i.into(), 4, AddressSpace::Global);
        b.store(addr.into(), v.into(), Scalar::U32, AddressSpace::Global);
        let i2 = b.bin(BinOp::Add, Scalar::U32, i.into(), Operand::imm_u32(1));
        b.assign(i, Scalar::U32, i2.into());
        b.br(head);
        b.switch_to(exit);
        b.ret();
        b.finish()
    }

    #[test]
    fn loop_tier_flattens_constant_loop() {
        let mut f = loop_kernel();
        let report = optimize_function(&mut f, OptLevel::Loop);
        crate::verify::verify_function(&f).unwrap();
        assert!(report.rewrites("unroll") >= 1, "report: {report:?}");
        assert!(report.rewrites("licm") >= 1, "report: {report:?}");
        assert!(
            report.rewrites("strength-reduce") >= 1,
            "report: {report:?}"
        );
        let cfg = Cfg::new(&f);
        let dom = Dominators::new(&cfg);
        assert!(
            LoopForest::find(&f, &cfg, &dom).loops.is_empty(),
            "loop must be gone:\n{f}"
        );
    }

    #[test]
    fn loop_level_matches_reuse_on_loop_free_code() {
        let mut a = redundant_kernel();
        let mut b = redundant_kernel();
        optimize_function(&mut a, OptLevel::VariableReuse);
        optimize_function(&mut b, OptLevel::Loop);
        // Strength reduction may still fire, but on this kernel there is
        // nothing to reduce: results must be identical.
        assert_eq!(a, b);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "IR verifier failed after pass `breaker`")]
    fn broken_pass_is_caught_by_debug_verifier() {
        const BREAKER: Pass = Pass {
            name: "breaker",
            secs_metric: "ir.pass.breaker",
            rewrites_metric: "ir.rewrites.breaker",
            run: |f, _| {
                // Point the terminator at a block that does not exist.
                f.blocks[0].term = crate::Terminator::Br {
                    target: crate::BlockId(999),
                };
                1
            },
            preserves_cfg: true,
        };
        let pm = PassManager { passes: &[BREAKER] };
        let mut f = redundant_kernel();
        pm.run(&mut f);
    }

    #[test]
    fn opt_level_parse_round_trips() {
        for level in OptLevel::ALL {
            assert_eq!(OptLevel::parse(level.flag_name()), Some(level));
        }
        assert_eq!(OptLevel::parse("O1"), Some(OptLevel::VariableReuse));
        assert_eq!(OptLevel::parse("bogus"), None);
    }
}
