//! Instruction selection and scheduler emission.

use crate::regalloc::{allocate, Allocation, Loc};
use crate::structure::{plan, DivBranch, DivPlan};
use crate::{limit, CodegenOpts, CompiledKernel};
use ocl_ir::cfg::{Cfg, Dominators, PostDominators};
use ocl_ir::liveness::Liveness;
use ocl_ir::loops::LoopForest;
use ocl_ir::workitem::WorkItemInfo;
use ocl_ir::{
    AtomicOp, BinOp, BlockId, Builtin, CmpOp, Function, LocalArrayId, Op, Operand, Scalar,
    Terminator, UnOp, VReg,
};
use repro_util::diag::ReproError;

use vortex_isa::layout::{self, arg, LOCAL_BASE, PRINTF_BASE, PRINTF_STRIDE};
use vortex_isa::{
    abi, AluOp, AmoOp, Asm, BranchCond, Csr, CvtOp, FpCmpOp, FpOp, FpUnOp, Instr, Label, MulOp,
    PrintArg, PrintfFmt, Program, Reg,
};

// Register conventions (see `regalloc` for the allocatable pools).
const SP: Reg = abi::SP;
const T0: Reg = abi::T0;
const T1: Reg = abi::T1;
const T2: Reg = abi::T2;
/// Extra codegen scratch (free outside the prologue).
const S0: Reg = 30;
const S1: Reg = 31;
/// Scheduler state: current item / group index.
const X_IDX: Reg = 3;
/// Scheduler state: stride (total harts or core count).
const X_STRIDE: Reg = 4;
/// Scheduler state: loop limit (total items or groups).
const X_LIMIT: Reg = 28;
/// Base of the kernel-argument block (constant ARG_BASE).
const X_ARG: Reg = 29;
/// Float scratch.
const FT0: Reg = 30;
const FT1: Reg = 31;

/// Stack slot indices: 9 work-item id slots, then mask slots, then spills.
const SLOT_GID: usize = 0;
const SLOT_LID: usize = 3;
const SLOT_GRP: usize = 6;
const NUM_ID_SLOTS: usize = 9;

/// Which work-item ids the kernel body reads.
#[derive(Default, Clone, Copy)]
struct UsedIds {
    gid: [bool; 3],
    lid: [bool; 3],
    grp: [bool; 3],
}

struct Emitter<'f> {
    f: &'f Function,
    a: Asm,
    alloc: Allocation,
    plan: DivPlan,
    opts: CodegenOpts,
    block_labels: Vec<Label>,
    item_done: Label,
    printf_table: Vec<PrintfFmt>,
    used: UsedIds,
    num_mask_slots: usize,
}

/// Compile a kernel to a program (see crate docs for the two scheduler
/// shapes).
pub fn compile(f: &Function, opts: &CodegenOpts) -> Result<CompiledKernel, ReproError> {
    // One of each analysis per kernel, shared by every consumer below.
    let cfg = Cfg::new(f);
    let pdom = PostDominators::new(f, &cfg);
    let loops = LoopForest::find(f, &cfg, &Dominators::new(&cfg));
    let div = WorkItemInfo::analyze(f, &cfg, &pdom);
    let plan = plan(f, &cfg, &pdom, &loops, &div)?;
    let alloc = repro_util::metrics::time("vortex_cc.regalloc", || {
        allocate(f, &Liveness::compute(f, &cfg))
    });
    let group_mode = f.uses_barrier() || !f.local_arrays.is_empty();
    let used = scan_used_ids(f);
    let num_mask_slots = plan.num_mask_slots;
    let divergent_branches = plan.branches.len();
    let spill_slots = alloc.spill_slots;

    let mut e = Emitter {
        f,
        a: Asm::new(),
        alloc,
        plan,
        opts: *opts,
        block_labels: Vec::new(),
        item_done: Label(0), // replaced below
        printf_table: Vec::new(),
        used,
        num_mask_slots,
    };
    e.block_labels = (0..f.blocks.len()).map(|_| e.a.label()).collect();
    e.item_done = e.a.label();

    let finish = e.a.label();
    e.emit_prologue_common();
    if group_mode {
        e.emit_group_scheduler(finish)?;
    } else {
        e.emit_stride_scheduler(finish)?;
    }
    e.a.bind(finish);
    e.a.emit(Instr::Tmc { rs1: abi::ZERO });

    let slot_count = NUM_ID_SLOTS + num_mask_slots + spill_slots;
    let warp_stack_bytes = (slot_count as u32 * 4 * opts.threads).next_multiple_of(64);

    let instrs = e.a.finish().map_err(limit)?;
    Ok(CompiledKernel {
        program: Program {
            instrs,
            printf_table: e.printf_table,
            entry: 0,
        },
        name: f.name.clone(),
        num_args: f.params.len(),
        group_mode,
        local_bytes: f.local_bytes(),
        warp_stack_bytes,
        divergent_branches,
        spill_slots,
        threads: opts.threads,
    })
}

fn scan_used_ids(f: &Function) -> UsedIds {
    let mut u = UsedIds::default();
    for b in &f.blocks {
        for i in &b.insts {
            if let Op::WorkItem(w) = &i.op {
                match w {
                    Builtin::GlobalId(d) => u.gid[*d as usize] = true,
                    Builtin::LocalId(d) => u.lid[*d as usize] = true,
                    Builtin::GroupId(d) => u.grp[*d as usize] = true,
                    _ => {}
                }
            }
        }
    }
    u
}

impl<'f> Emitter<'f> {
    // ---- small emission helpers ---------------------------------------

    fn li(&mut self, rd: Reg, v: i32) {
        if (-2048..2048).contains(&v) {
            self.a.emit(Instr::OpImm {
                op: AluOp::Add,
                rd,
                rs1: abi::ZERO,
                imm: v,
            });
        } else {
            // lui + addi with carry correction for negative low parts.
            let low = (v << 20) >> 20;
            let high = (v.wrapping_sub(low) >> 12) & 0xFFFFF;
            self.a.emit(Instr::Lui { rd, imm: high });
            if low != 0 {
                self.a.emit(Instr::OpImm {
                    op: AluOp::Add,
                    rd,
                    rs1: rd,
                    imm: low,
                });
            }
        }
    }

    fn mv(&mut self, rd: Reg, rs: Reg) {
        if rd != rs {
            self.a.emit(Instr::OpImm {
                op: AluOp::Add,
                rd,
                rs1: rs,
                imm: 0,
            });
        }
    }

    fn fmv(&mut self, rd: Reg, rs: Reg) {
        if rd != rs {
            self.a.emit(Instr::FpOp {
                op: FpOp::Sgnj,
                rd,
                rs1: rs,
                rs2: rs,
            });
        }
    }

    /// Byte offset of stack slot `k` (lane-interleaved by `threads`). An
    /// offset past the 12-bit immediate (too many spills for the warp
    /// width) fails in [`Asm::finish`], which checks every field width.
    fn slot_off(&self, k: usize) -> i32 {
        (k as u32 * 4 * self.opts.threads) as i32
    }

    fn load_slot(&mut self, rd: Reg, k: usize) {
        let imm = self.slot_off(k);
        self.a.emit(Instr::Lw { rd, rs1: SP, imm });
    }

    fn store_slot(&mut self, rs: Reg, k: usize) {
        let imm = self.slot_off(k);
        self.a.emit(Instr::Sw {
            rs1: SP,
            rs2: rs,
            imm,
        });
    }

    fn fload_slot(&mut self, rd: Reg, k: usize) {
        let imm = self.slot_off(k);
        self.a.emit(Instr::Flw { rd, rs1: SP, imm });
    }

    fn fstore_slot(&mut self, rs: Reg, k: usize) {
        let imm = self.slot_off(k);
        self.a.emit(Instr::Fsw {
            rs1: SP,
            rs2: rs,
            imm,
        });
    }

    fn spill_slot_index(&self, s: usize) -> usize {
        NUM_ID_SLOTS + self.num_mask_slots + s
    }

    fn mask_slot_index(&self, m: usize) -> usize {
        NUM_ID_SLOTS + m
    }

    /// Materialize an integer operand into a register; `scratch` is used for
    /// spills and constants.
    fn int_operand(&mut self, o: Operand, scratch: Reg) -> Result<Reg, ReproError> {
        match o {
            Operand::Reg(v) => match self.alloc.locs[v.index()] {
                Loc::Int(r) => Ok(r),
                Loc::SpillInt(s) => {
                    let k = self.spill_slot_index(s);
                    self.load_slot(scratch, k);
                    Ok(scratch)
                }
                Loc::Fp(_) | Loc::SpillFp(_) => unreachable!("int operand in fp location"),
            },
            Operand::Const(c) => {
                self.li(scratch, c.bits() as i32);
                Ok(scratch)
            }
        }
    }

    /// Materialize a float operand into an fp register.
    fn fp_operand(&mut self, o: Operand, fscratch: Reg, iscratch: Reg) -> Result<Reg, ReproError> {
        match o {
            Operand::Reg(v) => match self.alloc.locs[v.index()] {
                Loc::Fp(r) => Ok(r),
                Loc::SpillFp(s) => {
                    let k = self.spill_slot_index(s);
                    self.fload_slot(fscratch, k);
                    Ok(fscratch)
                }
                Loc::Int(_) | Loc::SpillInt(_) => unreachable!("fp operand in int location"),
            },
            Operand::Const(c) => {
                self.li(iscratch, c.bits() as i32);
                self.a.emit(Instr::FpCvt {
                    op: CvtOp::MvX2F,
                    rd: fscratch,
                    rs1: iscratch,
                });
                Ok(fscratch)
            }
        }
    }

    /// Destination register for an int-class result; returns (reg, spill).
    fn int_dest(&mut self, v: VReg) -> (Reg, Option<usize>) {
        match self.alloc.locs[v.index()] {
            Loc::Int(r) => (r, None),
            Loc::SpillInt(s) => (T2, Some(self.spill_slot_index(s))),
            _ => unreachable!("int dest in fp location"),
        }
    }

    fn fp_dest(&mut self, v: VReg) -> (Reg, Option<usize>) {
        match self.alloc.locs[v.index()] {
            Loc::Fp(r) => (r, None),
            Loc::SpillFp(s) => (FT1, Some(self.spill_slot_index(s))),
            _ => unreachable!("fp dest in int location"),
        }
    }

    fn finish_int_dest(&mut self, spill: Option<usize>, r: Reg) -> Result<(), ReproError> {
        if let Some(k) = spill {
            self.store_slot(r, k);
        }
        Ok(())
    }

    fn finish_fp_dest(&mut self, spill: Option<usize>, r: Reg) -> Result<(), ReproError> {
        if let Some(k) = spill {
            self.fstore_slot(r, k);
        }
        Ok(())
    }

    fn is_fp_class(&self, v: VReg) -> bool {
        matches!(self.alloc.locs[v.index()], Loc::Fp(_) | Loc::SpillFp(_))
    }

    // ---- prologue -------------------------------------------------------

    /// Mask init, warp spawn, sp computation — shared by both schedulers.
    fn emit_prologue_common(&mut self) {
        let a = &mut self.a;
        // Enable all lanes: tmc((1 << NT) - 1).
        a.emit(Instr::CsrRead {
            rd: T0,
            csr: Csr::NumThreads,
        });
        a.emit(Instr::OpImm {
            op: AluOp::Add,
            rd: T1,
            rs1: abi::ZERO,
            imm: 1,
        });
        a.emit(Instr::Op {
            op: AluOp::Sll,
            rd: T1,
            rs1: T1,
            rs2: T0,
        });
        a.emit(Instr::OpImm {
            op: AluOp::Add,
            rd: T1,
            rs1: T1,
            imm: -1,
        });
        a.emit(Instr::Tmc { rs1: T1 });
        // Warp 0 spawns the rest at pc 0.
        let after_spawn = a.label();
        a.emit(Instr::CsrRead {
            rd: T0,
            csr: Csr::WarpId,
        });
        a.branch(BranchCond::Ne, T0, abi::ZERO, after_spawn);
        a.emit(Instr::CsrRead {
            rd: T0,
            csr: Csr::NumWarps,
        });
        a.emit(Instr::Wspawn {
            rs1: T0,
            rs2: abi::ZERO,
        });
        a.bind(after_spawn);
        // x29 = ARG_BASE (0x1000).
        a.emit(Instr::Lui {
            rd: X_ARG,
            imm: (layout::ARG_BASE >> 12) as i32,
        });
        // warp_gidx = core*NW + wid.
        a.emit(Instr::CsrRead {
            rd: T0,
            csr: Csr::CoreId,
        });
        a.emit(Instr::CsrRead {
            rd: T1,
            csr: Csr::NumWarps,
        });
        a.emit(Instr::MulDiv {
            op: MulOp::Mul,
            rd: T0,
            rs1: T0,
            rs2: T1,
        });
        a.emit(Instr::CsrRead {
            rd: T1,
            csr: Csr::WarpId,
        });
        a.emit(Instr::Op {
            op: AluOp::Add,
            rd: T0,
            rs1: T0,
            rs2: T1,
        });
        a.emit(Instr::OpImm {
            op: AluOp::Add,
            rd: T0,
            rs1: T0,
            imm: 1,
        });
        // sp = stack_top - warp_gidx1 * warp_stride + tid*4.
        a.emit(Instr::Lw {
            rd: T1,
            rs1: X_ARG,
            imm: arg::STACK_STRIDE as i32,
        });
        a.emit(Instr::MulDiv {
            op: MulOp::Mul,
            rd: T0,
            rs1: T0,
            rs2: T1,
        });
        a.emit(Instr::Lw {
            rd: T1,
            rs1: X_ARG,
            imm: arg::STACK_TOP as i32,
        });
        a.emit(Instr::Op {
            op: AluOp::Sub,
            rd: T1,
            rs1: T1,
            rs2: T0,
        });
        a.emit(Instr::CsrRead {
            rd: T2,
            csr: Csr::ThreadId,
        });
        a.emit(Instr::OpImm {
            op: AluOp::Sll,
            rd: T2,
            rs1: T2,
            imm: 2,
        });
        a.emit(Instr::Op {
            op: AluOp::Add,
            rd: SP,
            rs1: T1,
            rs2: T2,
        });
    }

    /// Load kernel arguments into their allocated locations.
    fn emit_param_loads(&mut self) -> Result<(), ReproError> {
        for i in 0..self.f.params.len() {
            let v = VReg(i as u32);
            let imm = (arg::KERNEL_ARGS + 4 * i as u32) as i32;
            if self.is_fp_class(v) {
                let (rd, spill) = self.fp_dest(v);
                self.a.emit(Instr::Flw {
                    rd,
                    rs1: X_ARG,
                    imm,
                });
                self.finish_fp_dest(spill, rd)?;
            } else {
                let (rd, spill) = self.int_dest(v);
                self.a.emit(Instr::Lw {
                    rd,
                    rs1: X_ARG,
                    imm,
                });
                self.finish_int_dest(spill, rd)?;
            }
        }
        Ok(())
    }

    /// Warp-chunked scheduler for kernels without barriers/local memory:
    /// each warp owns a contiguous chunk of the flattened NDRange (the way
    /// the PoCL port distributes work groups onto Vortex warps), with lanes
    /// covering adjacent items so accesses coalesce within the warp. With
    /// C·W warps streaming separate windows, memory-system pressure grows
    /// with the configuration — the §III-C bottleneck behaviour.
    fn emit_stride_scheduler(&mut self, finish: Label) -> Result<(), ReproError> {
        // x4 = T (per-iteration stride); x3 = first item; x28 = chunk end.
        let a = &mut self.a;
        a.emit(Instr::CsrRead {
            rd: X_STRIDE,
            csr: Csr::NumThreads,
        });
        // N (total items) into x28.
        a.emit(Instr::Lw {
            rd: T0,
            rs1: X_ARG,
            imm: arg::GLOBAL_X as i32,
        });
        a.emit(Instr::Lw {
            rd: T1,
            rs1: X_ARG,
            imm: arg::GLOBAL_Y as i32,
        });
        a.emit(Instr::MulDiv {
            op: MulOp::Mul,
            rd: T0,
            rs1: T0,
            rs2: T1,
        });
        a.emit(Instr::Lw {
            rd: T1,
            rs1: X_ARG,
            imm: arg::GLOBAL_Z as i32,
        });
        a.emit(Instr::MulDiv {
            op: MulOp::Mul,
            rd: X_LIMIT,
            rs1: T0,
            rs2: T1,
        });
        // warps_total = C * NW in T0.
        a.emit(Instr::CsrRead {
            rd: T0,
            csr: Csr::NumCores,
        });
        a.emit(Instr::CsrRead {
            rd: T1,
            csr: Csr::NumWarps,
        });
        a.emit(Instr::MulDiv {
            op: MulOp::Mul,
            rd: T0,
            rs1: T0,
            rs2: T1,
        });
        // chunk = ceil(ceil(N / warps_total) / T) * T into S1.
        a.emit(Instr::Op {
            op: AluOp::Add,
            rd: T1,
            rs1: X_LIMIT,
            rs2: T0,
        });
        a.emit(Instr::OpImm {
            op: AluOp::Add,
            rd: T1,
            rs1: T1,
            imm: -1,
        });
        a.emit(Instr::MulDiv {
            op: MulOp::Divu,
            rd: S1,
            rs1: T1,
            rs2: T0,
        });
        a.emit(Instr::Op {
            op: AluOp::Add,
            rd: S1,
            rs1: S1,
            rs2: X_STRIDE,
        });
        a.emit(Instr::OpImm {
            op: AluOp::Add,
            rd: S1,
            rs1: S1,
            imm: -1,
        });
        a.emit(Instr::MulDiv {
            op: MulOp::Divu,
            rd: S1,
            rs1: S1,
            rs2: X_STRIDE,
        });
        a.emit(Instr::MulDiv {
            op: MulOp::Mul,
            rd: S1,
            rs1: S1,
            rs2: X_STRIDE,
        });
        // warp_global = core * NW + wid in S0; base = warp_global * chunk.
        a.emit(Instr::CsrRead {
            rd: T0,
            csr: Csr::CoreId,
        });
        a.emit(Instr::CsrRead {
            rd: T1,
            csr: Csr::NumWarps,
        });
        a.emit(Instr::MulDiv {
            op: MulOp::Mul,
            rd: T0,
            rs1: T0,
            rs2: T1,
        });
        a.emit(Instr::CsrRead {
            rd: T1,
            csr: Csr::WarpId,
        });
        a.emit(Instr::Op {
            op: AluOp::Add,
            rd: S0,
            rs1: T0,
            rs2: T1,
        });
        a.emit(Instr::MulDiv {
            op: MulOp::Mul,
            rd: S0,
            rs1: S0,
            rs2: S1,
        });
        // x3 = base + tid.
        a.emit(Instr::CsrRead {
            rd: T1,
            csr: Csr::ThreadId,
        });
        a.emit(Instr::Op {
            op: AluOp::Add,
            rd: X_IDX,
            rs1: S0,
            rs2: T1,
        });
        // x28 = min(base + chunk, N).
        a.emit(Instr::Op {
            op: AluOp::Add,
            rd: T1,
            rs1: S0,
            rs2: S1,
        });
        let keep_n = a.label();
        a.branch(BranchCond::Geu, T1, X_LIMIT, keep_n);
        a.emit(Instr::OpImm {
            op: AluOp::Add,
            rd: X_LIMIT,
            rs1: T1,
            imm: 0,
        });
        a.bind(keep_n);
        self.emit_param_loads()?;
        // Item loop. The whole warp iterates in lockstep: the loop bound
        // check diverges only on the ragged tail, handled with PRED.
        let item_loop = self.a.label();
        self.a.bind(item_loop);
        // live = x3 < N (per lane); save full mask once into T2 via CSR.
        self.a.emit(Instr::CsrRead {
            rd: T2,
            csr: Csr::Tmask,
        });
        self.a.emit(Instr::Op {
            op: AluOp::Sltu,
            rd: T0,
            rs1: X_IDX,
            rs2: X_LIMIT,
        });
        self.a.pred(T0, T2, finish);
        self.emit_stride_ids()?;
        self.emit_body()?;
        self.a.bind(self.item_done);
        self.a.emit(Instr::Op {
            op: AluOp::Add,
            rd: X_IDX,
            rs1: X_IDX,
            rs2: X_STRIDE,
        });
        self.a.jump(item_loop);
        Ok(())
    }

    /// Decompose the linear item index (x3) into the ids the body uses.
    fn emit_stride_ids(&mut self) -> Result<(), ReproError> {
        let u = self.used;
        let any_hi = u.gid[1] | u.gid[2] | u.lid[1] | u.lid[2] | u.grp[1] | u.grp[2];
        let dims: &[(u32, usize)] = &[(arg::GLOBAL_X, 0), (arg::GLOBAL_Y, 1), (arg::GLOBAL_Z, 2)];
        // gid decomposition: x3 = ((gid2*gy)+gid1)*gx + gid0.
        self.mv(T0, X_IDX);
        for &(off, d) in dims {
            let need_this_gid = u.gid[d] || u.lid[d] || u.grp[d];
            let last = d == 2 || (!any_hi && d == 0);
            if need_this_gid || !last {
                self.a.emit(Instr::Lw {
                    rd: T1,
                    rs1: X_ARG,
                    imm: off as i32,
                });
            }
            if need_this_gid {
                if last {
                    self.mv(S0, T0);
                } else {
                    self.a.emit(Instr::MulDiv {
                        op: MulOp::Remu,
                        rd: S0,
                        rs1: T0,
                        rs2: T1,
                    });
                }
                self.store_slot(S0, SLOT_GID + d);
                // lid/group for this dim.
                if u.lid[d] || u.grp[d] {
                    self.a.emit(Instr::Lw {
                        rd: S1,
                        rs1: X_ARG,
                        imm: (arg::LOCAL_X + 4 * d as u32) as i32,
                    });
                    if u.lid[d] {
                        self.a.emit(Instr::MulDiv {
                            op: MulOp::Remu,
                            rd: T2,
                            rs1: S0,
                            rs2: S1,
                        });
                        self.store_slot(T2, SLOT_LID + d);
                    }
                    if u.grp[d] {
                        self.a.emit(Instr::MulDiv {
                            op: MulOp::Divu,
                            rd: T2,
                            rs1: S0,
                            rs2: S1,
                        });
                        self.store_slot(T2, SLOT_GRP + d);
                    }
                }
            }
            if !last {
                self.a.emit(Instr::MulDiv {
                    op: MulOp::Divu,
                    rd: T0,
                    rs1: T0,
                    rs2: T1,
                });
            }
            if !any_hi {
                break;
            }
        }
        Ok(())
    }

    /// Group-per-core scheduler for barrier / local-memory kernels.
    fn emit_group_scheduler(&mut self, finish: Label) -> Result<(), ReproError> {
        let a = &mut self.a;
        // x4 = num cores; x3 = core id; x28 = total groups.
        a.emit(Instr::CsrRead {
            rd: X_STRIDE,
            csr: Csr::NumCores,
        });
        a.emit(Instr::CsrRead {
            rd: X_IDX,
            csr: Csr::CoreId,
        });
        a.emit(Instr::Lw {
            rd: T0,
            rs1: X_ARG,
            imm: arg::GROUPS_X as i32,
        });
        a.emit(Instr::Lw {
            rd: T1,
            rs1: X_ARG,
            imm: arg::GROUPS_Y as i32,
        });
        a.emit(Instr::MulDiv {
            op: MulOp::Mul,
            rd: T0,
            rs1: T0,
            rs2: T1,
        });
        a.emit(Instr::Lw {
            rd: T1,
            rs1: X_ARG,
            imm: arg::GROUPS_Z as i32,
        });
        a.emit(Instr::MulDiv {
            op: MulOp::Mul,
            rd: X_LIMIT,
            rs1: T0,
            rs2: T1,
        });
        self.emit_param_loads()?;
        let group_loop = self.a.label();
        let group_done = self.a.label();
        let body_start = self.a.label();
        self.a.bind(group_loop);
        // if g >= total: finish.
        self.a.branch(BranchCond::Ltu, X_IDX, X_LIMIT, body_start);
        self.a.jump(finish);
        self.a.bind(body_start);
        // Participation: warps with wid >= barrier_warps skip the body.
        self.a.emit(Instr::Lw {
            rd: T0,
            rs1: X_ARG,
            imm: arg::BARRIER_WARPS as i32,
        });
        self.a.emit(Instr::CsrRead {
            rd: T1,
            csr: Csr::WarpId,
        });
        self.a.branch(BranchCond::Geu, T1, T0, group_done);
        self.emit_group_ids()?;
        self.emit_body()?;
        self.a.bind(self.item_done);
        self.a.bind(group_done);
        self.a.emit(Instr::Op {
            op: AluOp::Add,
            rd: X_IDX,
            rs1: X_IDX,
            rs2: X_STRIDE,
        });
        self.a.jump(group_loop);
        Ok(())
    }

    /// Compute ids in group mode: x3 is the linear group index; the hart's
    /// linear local id is wid*threads + tid.
    fn emit_group_ids(&mut self) -> Result<(), ReproError> {
        // Group coordinates from x3.
        self.mv(T0, X_IDX);
        for d in 0..3usize {
            let last = d == 2;
            self.a.emit(Instr::Lw {
                rd: T1,
                rs1: X_ARG,
                imm: (arg::GROUPS_X + 4 * d as u32) as i32,
            });
            if last {
                self.mv(S0, T0);
            } else {
                self.a.emit(Instr::MulDiv {
                    op: MulOp::Remu,
                    rd: S0,
                    rs1: T0,
                    rs2: T1,
                });
                self.a.emit(Instr::MulDiv {
                    op: MulOp::Divu,
                    rd: T0,
                    rs1: T0,
                    rs2: T1,
                });
            }
            self.store_slot(S0, SLOT_GRP + d);
        }
        // Linear local id L = wid*NT + tid.
        self.a.emit(Instr::CsrRead {
            rd: T0,
            csr: Csr::WarpId,
        });
        self.a.emit(Instr::CsrRead {
            rd: T1,
            csr: Csr::NumThreads,
        });
        self.a.emit(Instr::MulDiv {
            op: MulOp::Mul,
            rd: T0,
            rs1: T0,
            rs2: T1,
        });
        self.a.emit(Instr::CsrRead {
            rd: T1,
            csr: Csr::ThreadId,
        });
        self.a.emit(Instr::Op {
            op: AluOp::Add,
            rd: T0,
            rs1: T0,
            rs2: T1,
        });
        // lid decomposition and gid = grp*local + lid, all three dims.
        for d in 0..3usize {
            let last = d == 2;
            self.a.emit(Instr::Lw {
                rd: T1,
                rs1: X_ARG,
                imm: (arg::LOCAL_X + 4 * d as u32) as i32,
            });
            if last {
                self.mv(S0, T0);
            } else {
                self.a.emit(Instr::MulDiv {
                    op: MulOp::Remu,
                    rd: S0,
                    rs1: T0,
                    rs2: T1,
                });
                self.a.emit(Instr::MulDiv {
                    op: MulOp::Divu,
                    rd: T0,
                    rs1: T0,
                    rs2: T1,
                });
            }
            self.store_slot(S0, SLOT_LID + d);
            // gid_d = grp_d * local_d + lid_d.
            self.load_slot(S1, SLOT_GRP + d);
            self.a.emit(Instr::MulDiv {
                op: MulOp::Mul,
                rd: S1,
                rs1: S1,
                rs2: T1,
            });
            self.a.emit(Instr::Op {
                op: AluOp::Add,
                rd: S1,
                rs1: S1,
                rs2: S0,
            });
            self.store_slot(S1, SLOT_GID + d);
        }
        Ok(())
    }

    // ---- body -----------------------------------------------------------

    fn emit_body(&mut self) -> Result<(), ReproError> {
        for bi in 0..self.f.blocks.len() {
            let id = BlockId(bi as u32);
            self.a.bind(self.block_labels[bi]);
            for ii in 0..self.f.blocks[bi].insts.len() {
                let inst = self.f.blocks[bi].insts[ii].clone();
                self.emit_inst(&inst)?;
            }
            // Mask saves for divergent loops whose preheader is this block.
            if let Some(slots) = self.plan.mask_saves.get(&id).cloned() {
                for m in slots {
                    self.a.emit(Instr::CsrRead {
                        rd: S0,
                        csr: Csr::Tmask,
                    });
                    let k = self.mask_slot_index(m);
                    self.store_slot(S0, k);
                }
            }
            let term = self.f.blocks[bi].term.clone();
            self.emit_terminator(id, &term)?;
        }
        Ok(())
    }

    /// Emit a jump along CFG edge `from -> to`, emitting a JOIN when the
    /// edge re-converges a divergent region.
    fn emit_edge(&mut self, from: BlockId, to: BlockId) {
        if self.plan.join_edges.contains_key(&(from, to)) {
            self.a.join(self.block_labels[to.index()]);
        } else {
            self.a.jump(self.block_labels[to.index()]);
        }
    }

    fn emit_terminator(&mut self, id: BlockId, term: &Terminator) -> Result<(), ReproError> {
        match term {
            Terminator::Ret => {
                self.a.jump(self.item_done);
            }
            Terminator::Br { target } => {
                self.emit_edge(id, *target);
            }
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                let c = self.int_operand(*cond, T0)?;
                match self.plan.branches.get(&id).cloned() {
                    None => {
                        // Uniform branch via a trampoline so label distances
                        // are unbounded.
                        let tramp = self.a.label();
                        self.a.branch(BranchCond::Ne, c, abi::ZERO, tramp);
                        self.emit_edge(id, *else_bb);
                        self.a.bind(tramp);
                        self.emit_edge(id, *then_bb);
                    }
                    Some(DivBranch::IfElse { reconv }) => {
                        // SPLIT to the else entry; taken path falls through
                        // to a jump to then.
                        let reconv_l = self.block_labels[reconv.index()];
                        let else_entry = if *else_bb == reconv {
                            // Empty else: stub that immediately rejoins.

                            self.a.label()
                        } else {
                            self.block_labels[else_bb.index()]
                        };
                        self.a.split(c, else_entry);
                        if *then_bb == reconv {
                            self.a.join(reconv_l);
                        } else {
                            self.a.jump(self.block_labels[then_bb.index()]);
                        }
                        if *else_bb == reconv {
                            self.a.bind(else_entry);
                            self.a.join(reconv_l);
                        }
                    }
                    Some(DivBranch::LoopExit { body, exit, .. }) => {
                        let slot = self.plan.pred_slots[&id];
                        let k = self.mask_slot_index(slot);
                        self.load_slot(T2, k);
                        // Predicate must be "stay in loop".
                        let stay = if *then_bb == body {
                            c
                        } else {
                            // Invert into T1.
                            self.a.emit(Instr::OpImm {
                                op: AluOp::Sltu,
                                rd: T1,
                                rs1: c,
                                imm: 1,
                            });
                            T1
                        };
                        self.a.pred(stay, T2, self.block_labels[exit.index()]);
                        self.a.jump(self.block_labels[body.index()]);
                    }
                }
            }
        }
        Ok(())
    }

    fn emit_inst(&mut self, inst: &ocl_ir::Inst) -> Result<(), ReproError> {
        match &inst.op {
            Op::Bin { op, ty, a, b } => self.emit_bin(inst.result.unwrap(), *op, *ty, *a, *b),
            Op::Un { op, ty, a } => self.emit_un(inst.result.unwrap(), *op, *ty, *a),
            Op::Cmp { op, ty, a, b } => self.emit_cmp(inst.result.unwrap(), *op, *ty, *a, *b),
            Op::Select { ty, cond, a, b } => {
                self.emit_select(inst.result.unwrap(), *ty, *cond, *a, *b)
            }
            Op::Mov { a, .. } => self.emit_mov(inst.result.unwrap(), *a),
            Op::Gep {
                base,
                index,
                elem_bytes,
                ..
            } => self.emit_gep(inst.result.unwrap(), *base, *index, *elem_bytes),
            Op::Load { ptr, ty, .. } => self.emit_load(inst.result.unwrap(), *ptr, *ty),
            Op::Store { ptr, value, ty, .. } => self.emit_store(*ptr, *value, *ty),
            Op::AtomicRmw {
                op, ptr, value, ty, ..
            } => self.emit_atomic(inst.result.unwrap(), *op, *ptr, *value, *ty),
            Op::WorkItem(w) => self.emit_workitem(inst.result.unwrap(), *w),
            Op::LocalAddr(id) => self.emit_local_addr(inst.result.unwrap(), *id),
            Op::Barrier => {
                self.a.emit(Instr::Lw {
                    rd: T0,
                    rs1: X_ARG,
                    imm: arg::BARRIER_WARPS as i32,
                });
                self.a.emit(Instr::Bar {
                    rs1: abi::ZERO,
                    rs2: T0,
                });
                Ok(())
            }
            Op::Printf { fmt, args } => self.emit_printf(fmt, args),
        }
    }

    fn emit_mov(&mut self, dest: VReg, a: Operand) -> Result<(), ReproError> {
        if self.is_fp_class(dest) {
            let (rd, spill) = self.fp_dest(dest);
            let rs = self.fp_operand(a, FT0, T0)?;
            self.fmv(rd, rs);
            if rd == rs && spill.is_some() {
                // Value already in the right scratch; fall through to store.
            }
            self.finish_fp_dest(spill, if rd == rs { rs } else { rd })?;
        } else {
            let (rd, spill) = self.int_dest(dest);
            let rs = self.int_operand(a, T0)?;
            self.mv(rd, rs);
            self.finish_int_dest(spill, if rd == rs { rs } else { rd })?;
        }
        Ok(())
    }

    fn emit_bin(
        &mut self,
        dest: VReg,
        op: BinOp,
        ty: Scalar,
        a: Operand,
        b: Operand,
    ) -> Result<(), ReproError> {
        if ty == Scalar::F32 {
            let (rd, spill) = self.fp_dest(dest);
            let ra = self.fp_operand(a, FT0, T0)?;
            let rb = self.fp_operand(b, FT1, T1)?;
            match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Min | BinOp::Max => {
                    let fop = match op {
                        BinOp::Add => FpOp::Add,
                        BinOp::Sub => FpOp::Sub,
                        BinOp::Mul => FpOp::Mul,
                        BinOp::Div => FpOp::Div,
                        BinOp::Min => FpOp::Min,
                        BinOp::Max => FpOp::Max,
                        _ => unreachable!(),
                    };
                    self.a.emit(Instr::FpOp {
                        op: fop,
                        rd,
                        rs1: ra,
                        rs2: rb,
                    });
                }
                BinOp::Rem => {
                    // fmod via truncated quotient (documented approximation
                    // for |a/b| < 2^31).
                    self.a.emit(Instr::FpOp {
                        op: FpOp::Div,
                        rd: FT0,
                        rs1: ra,
                        rs2: rb,
                    });
                    self.a.emit(Instr::FpCvt {
                        op: CvtOp::F2I,
                        rd: S0,
                        rs1: FT0,
                    });
                    self.a.emit(Instr::FpCvt {
                        op: CvtOp::I2F,
                        rd: FT0,
                        rs1: S0,
                    });
                    self.a.emit(Instr::FpOp {
                        op: FpOp::Mul,
                        rd: FT0,
                        rs1: FT0,
                        rs2: rb,
                    });
                    self.a.emit(Instr::FpOp {
                        op: FpOp::Sub,
                        rd,
                        rs1: ra,
                        rs2: FT0,
                    });
                }
                _ => return Err(limit(format_args!("bitwise op {op} on f32 operands"))),
            }
            return self.finish_fp_dest(spill, rd);
        }
        let signed = ty == Scalar::I32;
        let (rd, spill) = self.int_dest(dest);
        let ra = self.int_operand(a, T0)?;
        // Immediate forms where profitable.
        if let Some(c) = b.as_const() {
            let imm = c.bits() as i32;
            if (-2048..2048).contains(&imm) {
                let done = match op {
                    BinOp::Add => {
                        self.a.emit(Instr::OpImm {
                            op: AluOp::Add,
                            rd,
                            rs1: ra,
                            imm,
                        });
                        true
                    }
                    BinOp::Sub if imm > -2048 => {
                        self.a.emit(Instr::OpImm {
                            op: AluOp::Add,
                            rd,
                            rs1: ra,
                            imm: -imm,
                        });
                        true
                    }
                    BinOp::And | BinOp::Or | BinOp::Xor => {
                        let aop = match op {
                            BinOp::And => AluOp::And,
                            BinOp::Or => AluOp::Or,
                            _ => AluOp::Xor,
                        };
                        self.a.emit(Instr::OpImm {
                            op: aop,
                            rd,
                            rs1: ra,
                            imm,
                        });
                        true
                    }
                    BinOp::Shl if (0..32).contains(&imm) => {
                        self.a.emit(Instr::OpImm {
                            op: AluOp::Sll,
                            rd,
                            rs1: ra,
                            imm,
                        });
                        true
                    }
                    BinOp::Shr if (0..32).contains(&imm) => {
                        self.a.emit(Instr::OpImm {
                            op: if signed { AluOp::Sra } else { AluOp::Srl },
                            rd,
                            rs1: ra,
                            imm,
                        });
                        true
                    }
                    _ => false,
                };
                if done {
                    return self.finish_int_dest(spill, rd);
                }
            }
        }
        let rb = self.int_operand(b, T1)?;
        match op {
            BinOp::Add => self.a.emit(Instr::Op {
                op: AluOp::Add,
                rd,
                rs1: ra,
                rs2: rb,
            }),
            BinOp::Sub => self.a.emit(Instr::Op {
                op: AluOp::Sub,
                rd,
                rs1: ra,
                rs2: rb,
            }),
            BinOp::And => self.a.emit(Instr::Op {
                op: AluOp::And,
                rd,
                rs1: ra,
                rs2: rb,
            }),
            BinOp::Or => self.a.emit(Instr::Op {
                op: AluOp::Or,
                rd,
                rs1: ra,
                rs2: rb,
            }),
            BinOp::Xor => self.a.emit(Instr::Op {
                op: AluOp::Xor,
                rd,
                rs1: ra,
                rs2: rb,
            }),
            BinOp::Shl => self.a.emit(Instr::Op {
                op: AluOp::Sll,
                rd,
                rs1: ra,
                rs2: rb,
            }),
            BinOp::Shr => self.a.emit(Instr::Op {
                op: if signed { AluOp::Sra } else { AluOp::Srl },
                rd,
                rs1: ra,
                rs2: rb,
            }),
            BinOp::Mul => self.a.emit(Instr::MulDiv {
                op: MulOp::Mul,
                rd,
                rs1: ra,
                rs2: rb,
            }),
            BinOp::Div => self.a.emit(Instr::MulDiv {
                op: if signed { MulOp::Div } else { MulOp::Divu },
                rd,
                rs1: ra,
                rs2: rb,
            }),
            BinOp::Rem => self.a.emit(Instr::MulDiv {
                op: if signed { MulOp::Rem } else { MulOp::Remu },
                rd,
                rs1: ra,
                rs2: rb,
            }),
            BinOp::Min | BinOp::Max => {
                // Branchless select: mask = -(a<b); rd = ((a^b)&mask)^b
                // picks a when mask is all-ones.
                let slt = if signed { AluOp::Slt } else { AluOp::Sltu };
                let (x, y) = if op == BinOp::Min { (ra, rb) } else { (rb, ra) };
                self.a.emit(Instr::Op {
                    op: slt,
                    rd: S0,
                    rs1: x,
                    rs2: y,
                });
                self.a.emit(Instr::Op {
                    op: AluOp::Sub,
                    rd: S0,
                    rs1: abi::ZERO,
                    rs2: S0,
                });
                self.a.emit(Instr::Op {
                    op: AluOp::Xor,
                    rd: S1,
                    rs1: ra,
                    rs2: rb,
                });
                self.a.emit(Instr::Op {
                    op: AluOp::And,
                    rd: S1,
                    rs1: S1,
                    rs2: S0,
                });
                // When mask set we pick x; (x^y)&m ^ y == x.
                let base = if op == BinOp::Min { rb } else { ra };
                self.a.emit(Instr::Op {
                    op: AluOp::Xor,
                    rd,
                    rs1: S1,
                    rs2: base,
                });
            }
        }
        self.finish_int_dest(spill, rd)
    }

    fn emit_un(&mut self, dest: VReg, op: UnOp, ty: Scalar, a: Operand) -> Result<(), ReproError> {
        match op {
            UnOp::Sqrt | UnOp::Exp | UnOp::Log | UnOp::Sin | UnOp::Cos | UnOp::Floor => {
                let (rd, spill) = self.fp_dest(dest);
                let ra = self.fp_operand(a, FT0, T0)?;
                let fop = match op {
                    UnOp::Sqrt => FpUnOp::Sqrt,
                    UnOp::Exp => FpUnOp::Exp,
                    UnOp::Log => FpUnOp::Log,
                    UnOp::Sin => FpUnOp::Sin,
                    UnOp::Cos => FpUnOp::Cos,
                    _ => FpUnOp::Floor,
                };
                self.a.emit(Instr::FpUn {
                    op: fop,
                    rd,
                    rs1: ra,
                });
                self.finish_fp_dest(spill, rd)
            }
            UnOp::Neg if ty == Scalar::F32 => {
                let (rd, spill) = self.fp_dest(dest);
                let ra = self.fp_operand(a, FT0, T0)?;
                self.a.emit(Instr::FpOp {
                    op: FpOp::SgnjN,
                    rd,
                    rs1: ra,
                    rs2: ra,
                });
                self.finish_fp_dest(spill, rd)
            }
            UnOp::Abs if ty == Scalar::F32 => {
                let (rd, spill) = self.fp_dest(dest);
                let ra = self.fp_operand(a, FT0, T0)?;
                self.a.emit(Instr::FpOp {
                    op: FpOp::SgnjX,
                    rd,
                    rs1: ra,
                    rs2: ra,
                });
                self.finish_fp_dest(spill, rd)
            }
            UnOp::I2F | UnOp::U2F => {
                let (rd, spill) = self.fp_dest(dest);
                let ra = self.int_operand(a, T0)?;
                self.a.emit(Instr::FpCvt {
                    op: if op == UnOp::I2F {
                        CvtOp::I2F
                    } else {
                        CvtOp::U2F
                    },
                    rd,
                    rs1: ra,
                });
                self.finish_fp_dest(spill, rd)
            }
            UnOp::F2I => {
                let (rd, spill) = self.int_dest(dest);
                let ra = self.fp_operand(a, FT0, T0)?;
                self.a.emit(Instr::FpCvt {
                    op: CvtOp::F2I,
                    rd,
                    rs1: ra,
                });
                self.finish_int_dest(spill, rd)
            }
            UnOp::Neg => {
                let (rd, spill) = self.int_dest(dest);
                let ra = self.int_operand(a, T0)?;
                self.a.emit(Instr::Op {
                    op: AluOp::Sub,
                    rd,
                    rs1: abi::ZERO,
                    rs2: ra,
                });
                self.finish_int_dest(spill, rd)
            }
            UnOp::Not => {
                let (rd, spill) = self.int_dest(dest);
                let ra = self.int_operand(a, T0)?;
                if ty == Scalar::Bool {
                    self.a.emit(Instr::OpImm {
                        op: AluOp::Sltu,
                        rd,
                        rs1: ra,
                        imm: 1,
                    });
                } else {
                    self.a.emit(Instr::OpImm {
                        op: AluOp::Xor,
                        rd,
                        rs1: ra,
                        imm: -1,
                    });
                }
                self.finish_int_dest(spill, rd)
            }
            UnOp::Abs => {
                let (rd, spill) = self.int_dest(dest);
                let ra = self.int_operand(a, T0)?;
                self.a.emit(Instr::OpImm {
                    op: AluOp::Sra,
                    rd: S0,
                    rs1: ra,
                    imm: 31,
                });
                self.a.emit(Instr::Op {
                    op: AluOp::Xor,
                    rd: S1,
                    rs1: ra,
                    rs2: S0,
                });
                self.a.emit(Instr::Op {
                    op: AluOp::Sub,
                    rd,
                    rs1: S1,
                    rs2: S0,
                });
                self.finish_int_dest(spill, rd)
            }
            UnOp::IntCast => self.emit_mov(dest, a),
        }
    }

    fn emit_cmp(
        &mut self,
        dest: VReg,
        op: CmpOp,
        ty: Scalar,
        a: Operand,
        b: Operand,
    ) -> Result<(), ReproError> {
        let (rd, spill) = self.int_dest(dest);
        if ty == Scalar::F32 {
            let ra = self.fp_operand(a, FT0, T0)?;
            let rb = self.fp_operand(b, FT1, T1)?;
            let (fop, swap, invert) = match op {
                CmpOp::Eq => (FpCmpOp::Eq, false, false),
                CmpOp::Ne => (FpCmpOp::Eq, false, true),
                CmpOp::Lt => (FpCmpOp::Lt, false, false),
                CmpOp::Le => (FpCmpOp::Le, false, false),
                CmpOp::Gt => (FpCmpOp::Lt, true, false),
                CmpOp::Ge => (FpCmpOp::Le, true, false),
            };
            let (x, y) = if swap { (rb, ra) } else { (ra, rb) };
            self.a.emit(Instr::FpCmp {
                op: fop,
                rd,
                rs1: x,
                rs2: y,
            });
            if invert {
                self.a.emit(Instr::OpImm {
                    op: AluOp::Xor,
                    rd,
                    rs1: rd,
                    imm: 1,
                });
            }
            return self.finish_int_dest(spill, rd);
        }
        let signed = ty == Scalar::I32;
        let slt = if signed { AluOp::Slt } else { AluOp::Sltu };
        let ra = self.int_operand(a, T0)?;
        let rb = self.int_operand(b, T1)?;
        match op {
            CmpOp::Lt => self.a.emit(Instr::Op {
                op: slt,
                rd,
                rs1: ra,
                rs2: rb,
            }),
            CmpOp::Gt => self.a.emit(Instr::Op {
                op: slt,
                rd,
                rs1: rb,
                rs2: ra,
            }),
            CmpOp::Ge => {
                self.a.emit(Instr::Op {
                    op: slt,
                    rd,
                    rs1: ra,
                    rs2: rb,
                });
                self.a.emit(Instr::OpImm {
                    op: AluOp::Xor,
                    rd,
                    rs1: rd,
                    imm: 1,
                });
            }
            CmpOp::Le => {
                self.a.emit(Instr::Op {
                    op: slt,
                    rd,
                    rs1: rb,
                    rs2: ra,
                });
                self.a.emit(Instr::OpImm {
                    op: AluOp::Xor,
                    rd,
                    rs1: rd,
                    imm: 1,
                });
            }
            CmpOp::Eq => {
                self.a.emit(Instr::Op {
                    op: AluOp::Xor,
                    rd: S0,
                    rs1: ra,
                    rs2: rb,
                });
                self.a.emit(Instr::OpImm {
                    op: AluOp::Sltu,
                    rd,
                    rs1: S0,
                    imm: 1,
                });
            }
            CmpOp::Ne => {
                self.a.emit(Instr::Op {
                    op: AluOp::Xor,
                    rd: S0,
                    rs1: ra,
                    rs2: rb,
                });
                self.a.emit(Instr::Op {
                    op: AluOp::Sltu,
                    rd,
                    rs1: abi::ZERO,
                    rs2: S0,
                });
            }
        }
        self.finish_int_dest(spill, rd)
    }

    fn emit_select(
        &mut self,
        dest: VReg,
        ty: Scalar,
        cond: Operand,
        a: Operand,
        b: Operand,
    ) -> Result<(), ReproError> {
        let rc = self.int_operand(cond, T2)?;
        if ty == Scalar::F32 {
            let (rd, spill) = self.fp_dest(dest);
            let ra = self.fp_operand(a, FT0, T0)?;
            let rb = self.fp_operand(b, FT1, T1)?;
            self.a.emit(Instr::FpCvt {
                op: CvtOp::MvF2X,
                rd: S0,
                rs1: ra,
            });
            self.a.emit(Instr::FpCvt {
                op: CvtOp::MvF2X,
                rd: S1,
                rs1: rb,
            });
            self.a.emit(Instr::Op {
                op: AluOp::Xor,
                rd: S0,
                rs1: S0,
                rs2: S1,
            });
            self.a.emit(Instr::Op {
                op: AluOp::Sub,
                rd: T0,
                rs1: abi::ZERO,
                rs2: rc,
            });
            self.a.emit(Instr::Op {
                op: AluOp::And,
                rd: S0,
                rs1: S0,
                rs2: T0,
            });
            self.a.emit(Instr::Op {
                op: AluOp::Xor,
                rd: S0,
                rs1: S0,
                rs2: S1,
            });
            self.a.emit(Instr::FpCvt {
                op: CvtOp::MvX2F,
                rd,
                rs1: S0,
            });
            return self.finish_fp_dest(spill, rd);
        }
        let (rd, spill) = self.int_dest(dest);
        let ra = self.int_operand(a, T0)?;
        let rb = self.int_operand(b, T1)?;
        self.a.emit(Instr::Op {
            op: AluOp::Sub,
            rd: S0,
            rs1: abi::ZERO,
            rs2: rc,
        });
        self.a.emit(Instr::Op {
            op: AluOp::Xor,
            rd: S1,
            rs1: ra,
            rs2: rb,
        });
        self.a.emit(Instr::Op {
            op: AluOp::And,
            rd: S1,
            rs1: S1,
            rs2: S0,
        });
        self.a.emit(Instr::Op {
            op: AluOp::Xor,
            rd,
            rs1: S1,
            rs2: rb,
        });
        self.finish_int_dest(spill, rd)
    }

    fn emit_gep(
        &mut self,
        dest: VReg,
        base: Operand,
        index: Operand,
        elem_bytes: u32,
    ) -> Result<(), ReproError> {
        let (rd, spill) = self.int_dest(dest);
        let rb = self.int_operand(base, T0)?;
        if let Some(c) = index.as_const() {
            let off = (c.bits() as i32).wrapping_mul(elem_bytes as i32);
            if (-2048..2048).contains(&off) {
                self.a.emit(Instr::OpImm {
                    op: AluOp::Add,
                    rd,
                    rs1: rb,
                    imm: off,
                });
            } else {
                self.li(S0, off);
                self.a.emit(Instr::Op {
                    op: AluOp::Add,
                    rd,
                    rs1: rb,
                    rs2: S0,
                });
            }
            return self.finish_int_dest(spill, rd);
        }
        let ri = self.int_operand(index, T1)?;
        if elem_bytes.is_power_of_two() {
            self.a.emit(Instr::OpImm {
                op: AluOp::Sll,
                rd: S0,
                rs1: ri,
                imm: elem_bytes.trailing_zeros() as i32,
            });
        } else {
            self.li(S0, elem_bytes as i32);
            self.a.emit(Instr::MulDiv {
                op: MulOp::Mul,
                rd: S0,
                rs1: ri,
                rs2: S0,
            });
        }
        self.a.emit(Instr::Op {
            op: AluOp::Add,
            rd,
            rs1: rb,
            rs2: S0,
        });
        self.finish_int_dest(spill, rd)
    }

    fn emit_load(&mut self, dest: VReg, ptr: Operand, ty: Scalar) -> Result<(), ReproError> {
        let rp = self.int_operand(ptr, T0)?;
        if ty == Scalar::F32 {
            let (rd, spill) = self.fp_dest(dest);
            self.a.emit(Instr::Flw {
                rd,
                rs1: rp,
                imm: 0,
            });
            self.finish_fp_dest(spill, rd)
        } else {
            let (rd, spill) = self.int_dest(dest);
            self.a.emit(Instr::Lw {
                rd,
                rs1: rp,
                imm: 0,
            });
            self.finish_int_dest(spill, rd)
        }
    }

    fn emit_store(&mut self, ptr: Operand, value: Operand, ty: Scalar) -> Result<(), ReproError> {
        let rp = self.int_operand(ptr, T0)?;
        if ty == Scalar::F32 {
            let rv = self.fp_operand(value, FT0, T1)?;
            self.a.emit(Instr::Fsw {
                rs1: rp,
                rs2: rv,
                imm: 0,
            });
        } else {
            let rv = self.int_operand(value, T1)?;
            self.a.emit(Instr::Sw {
                rs1: rp,
                rs2: rv,
                imm: 0,
            });
        }
        Ok(())
    }

    fn emit_atomic(
        &mut self,
        dest: VReg,
        op: AtomicOp,
        ptr: Operand,
        value: Operand,
        ty: Scalar,
    ) -> Result<(), ReproError> {
        let (rd, spill) = self.int_dest(dest);
        let rp = self.int_operand(ptr, T0)?;
        let mut rv = self.int_operand(value, T1)?;
        let signed = ty == Scalar::I32;
        let aop = match op {
            AtomicOp::Add => AmoOp::Add,
            AtomicOp::Sub => {
                self.a.emit(Instr::Op {
                    op: AluOp::Sub,
                    rd: S0,
                    rs1: abi::ZERO,
                    rs2: rv,
                });
                rv = S0;
                AmoOp::Add
            }
            AtomicOp::Min => {
                if signed {
                    AmoOp::Min
                } else {
                    AmoOp::Minu
                }
            }
            AtomicOp::Max => {
                if signed {
                    AmoOp::Max
                } else {
                    AmoOp::Maxu
                }
            }
            AtomicOp::And => AmoOp::And,
            AtomicOp::Or => AmoOp::Or,
            AtomicOp::Xor => AmoOp::Xor,
            AtomicOp::Xchg => AmoOp::Swap,
        };
        self.a.emit(Instr::Amo {
            op: aop,
            rd,
            rs1: rp,
            rs2: rv,
        });
        self.finish_int_dest(spill, rd)
    }

    fn emit_workitem(&mut self, dest: VReg, w: Builtin) -> Result<(), ReproError> {
        let (rd, spill) = self.int_dest(dest);
        match w {
            Builtin::GlobalId(d) => self.load_slot(rd, SLOT_GID + d as usize),
            Builtin::LocalId(d) => self.load_slot(rd, SLOT_LID + d as usize),
            Builtin::GroupId(d) => self.load_slot(rd, SLOT_GRP + d as usize),
            Builtin::GlobalSize(d) => self.a.emit(Instr::Lw {
                rd,
                rs1: X_ARG,
                imm: (arg::GLOBAL_X + 4 * d as u32) as i32,
            }),
            Builtin::LocalSize(d) => self.a.emit(Instr::Lw {
                rd,
                rs1: X_ARG,
                imm: (arg::LOCAL_X + 4 * d as u32) as i32,
            }),
            Builtin::NumGroups(d) => self.a.emit(Instr::Lw {
                rd,
                rs1: X_ARG,
                imm: (arg::GROUPS_X + 4 * d as u32) as i32,
            }),
        }
        self.finish_int_dest(spill, rd)
    }

    fn emit_local_addr(&mut self, dest: VReg, id: LocalArrayId) -> Result<(), ReproError> {
        let (rd, spill) = self.int_dest(dest);
        let mut off = 0u32;
        for a in &self.f.local_arrays[..id.index()] {
            off += a.bytes();
        }
        let addr = LOCAL_BASE + off;
        self.a.emit(Instr::Lui {
            rd,
            imm: (addr >> 12) as i32,
        });
        let low = (addr & 0xFFF) as i32;
        if low != 0 {
            // LOCAL_BASE is 4 KiB aligned and arrays are word-aligned, so
            // the low part is always a valid positive immediate.
            self.a.emit(Instr::OpImm {
                op: AluOp::Add,
                rd,
                rs1: rd,
                imm: low,
            });
        }
        self.finish_int_dest(spill, rd)
    }

    fn emit_printf(&mut self, fmt: &str, args: &[(Operand, Scalar)]) -> Result<(), ReproError> {
        // hart = ((core*NW + wid)*NT + tid); buf = PRINTF_BASE + hart*64.
        let a = &mut self.a;
        a.emit(Instr::CsrRead {
            rd: T0,
            csr: Csr::CoreId,
        });
        a.emit(Instr::CsrRead {
            rd: T1,
            csr: Csr::NumWarps,
        });
        a.emit(Instr::MulDiv {
            op: MulOp::Mul,
            rd: T0,
            rs1: T0,
            rs2: T1,
        });
        a.emit(Instr::CsrRead {
            rd: T1,
            csr: Csr::WarpId,
        });
        a.emit(Instr::Op {
            op: AluOp::Add,
            rd: T0,
            rs1: T0,
            rs2: T1,
        });
        a.emit(Instr::CsrRead {
            rd: T1,
            csr: Csr::NumThreads,
        });
        a.emit(Instr::MulDiv {
            op: MulOp::Mul,
            rd: T0,
            rs1: T0,
            rs2: T1,
        });
        a.emit(Instr::CsrRead {
            rd: T1,
            csr: Csr::ThreadId,
        });
        a.emit(Instr::Op {
            op: AluOp::Add,
            rd: T0,
            rs1: T0,
            rs2: T1,
        });
        a.emit(Instr::OpImm {
            op: AluOp::Sll,
            rd: T0,
            rs1: T0,
            imm: PRINTF_STRIDE.trailing_zeros() as i32,
        });
        a.emit(Instr::Lui {
            rd: T1,
            imm: (PRINTF_BASE >> 12) as i32,
        });
        a.emit(Instr::Op {
            op: AluOp::Add,
            rd: T2,
            rs1: T0,
            rs2: T1,
        });
        // Store args into the buffer (T2 = base).
        let mut arg_kinds = Vec::with_capacity(args.len());
        for (i, (o, sc)) in args.iter().enumerate() {
            let imm = (i as i32) * 4;
            if *sc == Scalar::F32 {
                let rv = self.fp_operand(*o, FT0, T0)?;
                self.a.emit(Instr::Fsw {
                    rs1: T2,
                    rs2: rv,
                    imm,
                });
                arg_kinds.push(PrintArg::F32);
            } else {
                let rv = self.int_operand(*o, T0)?;
                self.a.emit(Instr::Sw {
                    rs1: T2,
                    rs2: rv,
                    imm,
                });
                arg_kinds.push(if *sc == Scalar::I32 {
                    PrintArg::I32
                } else {
                    PrintArg::U32
                });
            }
        }
        let id = self.printf_table.len() as u16;
        self.printf_table.push(PrintfFmt {
            fmt: fmt.to_string(),
            args: arg_kinds,
        });
        self.a.emit(Instr::Print { fmt: id });
        Ok(())
    }
}
