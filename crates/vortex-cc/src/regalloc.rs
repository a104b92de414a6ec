//! Linear-scan register allocation over the non-SSA virtual registers.
//!
//! Intervals are conservative: a register's interval spans from its first
//! definition/use (or the start of the first block where it is live-in) to
//! its last use (or the end of the last block where it is live-out).
//! Registers that do not fit in the physical pools are spilled to
//! lane-interleaved stack slots and reloaded into scratch registers at each
//! use by the emitter.

use ocl_ir::liveness::Liveness;
use ocl_ir::{Function, Operand, Scalar, Type, VReg};

/// Where a virtual register lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loc {
    /// Physical integer register.
    Int(vortex_isa::Reg),
    /// Physical float register.
    Fp(vortex_isa::Reg),
    /// Spill slot index (int class).
    SpillInt(usize),
    /// Spill slot index (fp class).
    SpillFp(usize),
}

impl Loc {
    pub fn is_spill(self) -> bool {
        matches!(self, Loc::SpillInt(_) | Loc::SpillFp(_))
    }
}

/// Allocation result.
#[derive(Debug)]
pub struct Allocation {
    pub locs: Vec<Loc>,
    pub spill_slots: usize,
}

/// Register class of an IR register.
fn is_fp(f: &Function, v: VReg) -> bool {
    matches!(f.vreg_type(v), Type::Scalar(Scalar::F32))
}

/// Allocatable integer registers: x8..=x27 (x3/x4/x28..x31 are reserved for
/// the scheduler and codegen scratch, x5..x7 are the short-lived scratch
/// trio).
pub const INT_POOL: std::ops::RangeInclusive<u8> = 8..=27;
/// Allocatable float registers: f0..=f29 (f30/f31 are scratch).
pub const FP_POOL: std::ops::RangeInclusive<u8> = 0..=29;

/// Run linear scan for `f` given its liveness.
pub fn allocate(f: &Function, lv: &Liveness) -> Allocation {
    let n = f.num_vregs();

    // Linearize: position of each instruction; block b spans
    // [block_start[b], block_end[b]).
    let mut pos = 0usize;
    let mut block_range = vec![(0usize, 0usize); f.blocks.len()];
    for (bi, b) in f.blocks.iter().enumerate() {
        let start = pos;
        pos += b.insts.len() + 1; // +1 for the terminator
        block_range[bi] = (start, pos);
    }

    let mut start = vec![usize::MAX; n];
    let mut end = vec![0usize; n];
    let touch = |v: VReg, p: usize, start: &mut [usize], end: &mut [usize]| {
        start[v.index()] = start[v.index()].min(p);
        end[v.index()] = end[v.index()].max(p + 1);
    };
    // Parameters are loaded once in the emitter's prologue, *outside* the
    // per-item loop that wraps the body, so their registers must survive the
    // whole kernel: pin their intervals to the full function.
    for i in 0..f.params.len() {
        touch(VReg(i as u32), 0, &mut start, &mut end);
        touch(VReg(i as u32), pos.saturating_sub(1), &mut start, &mut end);
    }
    for (bi, b) in f.blocks.iter().enumerate() {
        let (bs, be) = block_range[bi];
        for v in lv.live_in(bi).iter() {
            touch(v, bs, &mut start, &mut end);
        }
        for v in lv.live_out(bi).iter() {
            touch(v, be - 1, &mut start, &mut end);
        }
        let mut p = bs;
        for inst in &b.insts {
            inst.op.for_each_operand(|o| {
                if let Operand::Reg(v) = o {
                    touch(v, p, &mut start, &mut end);
                }
            });
            if let Some(v) = inst.result {
                touch(v, p, &mut start, &mut end);
            }
            p += 1;
        }
        if let ocl_ir::Terminator::CondBr {
            cond: Operand::Reg(v),
            ..
        } = &b.term
        {
            touch(*v, p, &mut start, &mut end);
        }
    }

    // Sort live vregs by interval start.
    let mut order: Vec<VReg> = (0..n as u32)
        .map(VReg)
        .filter(|v| start[v.index()] != usize::MAX)
        .collect();
    order.sort_by_key(|v| start[v.index()]);

    let mut locs = vec![Loc::SpillInt(usize::MAX); n];
    let mut spill_slots = 0usize;
    // Independent passes for the two register classes.
    for fp in [false, true] {
        let pool: Vec<u8> = if fp {
            FP_POOL.collect()
        } else {
            INT_POOL.collect()
        };
        let mut free = pool;
        // Active: (end, vreg, phys).
        let mut active: Vec<(usize, VReg, u8)> = Vec::new();
        for &v in order.iter().filter(|&&v| is_fp(f, v) == fp) {
            let s = start[v.index()];
            // Expire.
            active.retain(|&(e, _, phys)| {
                if e <= s {
                    free.push(phys);
                    false
                } else {
                    true
                }
            });
            if let Some(phys) = free.pop() {
                locs[v.index()] = if fp { Loc::Fp(phys) } else { Loc::Int(phys) };
                active.push((end[v.index()], v, phys));
            } else {
                // Spill the interval with the furthest end.
                let (far_i, &(far_end, far_v, far_phys)) = active
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, (e, _, _))| *e)
                    .expect("active nonempty when pool exhausted");
                if far_end > end[v.index()] {
                    // Steal the register; spill the far interval.
                    locs[far_v.index()] = if fp {
                        Loc::SpillFp(spill_slots)
                    } else {
                        Loc::SpillInt(spill_slots)
                    };
                    spill_slots += 1;
                    locs[v.index()] = if fp {
                        Loc::Fp(far_phys)
                    } else {
                        Loc::Int(far_phys)
                    };
                    active[far_i] = (end[v.index()], v, far_phys);
                } else {
                    locs[v.index()] = if fp {
                        Loc::SpillFp(spill_slots)
                    } else {
                        Loc::SpillInt(spill_slots)
                    };
                    spill_slots += 1;
                }
            }
        }
    }
    // Dead registers (never touched): park them in a shared dummy slot-less
    // int register location; they are never read or written.
    for l in &mut locs {
        if *l == Loc::SpillInt(usize::MAX) {
            *l = Loc::Int(*INT_POOL.start());
        }
    }
    Allocation { locs, spill_slots }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocl_ir::cfg::Cfg;
    use ocl_ir::{AddressSpace, BinOp, Builtin, FunctionBuilder, Param};

    fn allocate(f: &Function) -> Allocation {
        super::allocate(f, &Liveness::compute(f, &Cfg::new(f)))
    }

    fn gptr() -> Param {
        Param {
            name: "p".into(),
            ty: Type::Ptr(AddressSpace::Global),
        }
    }

    #[test]
    fn small_kernel_fits_in_registers() {
        let mut b = FunctionBuilder::new("k", vec![gptr()]);
        let gid = b.workitem(Builtin::GlobalId(0));
        let p = b.gep(
            Operand::Reg(b.param(0)),
            gid.into(),
            4,
            AddressSpace::Global,
        );
        let v = b.load(p.into(), Scalar::F32, AddressSpace::Global);
        let w = b.bin(BinOp::Add, Scalar::F32, v.into(), v.into());
        b.store(p.into(), w.into(), Scalar::F32, AddressSpace::Global);
        b.ret();
        let f = b.finish();
        let a = allocate(&f);
        assert_eq!(a.spill_slots, 0);
        // Float values in fp regs, the rest in int regs.
        assert!(matches!(a.locs[v.index()], Loc::Fp(_)));
        assert!(matches!(a.locs[w.index()], Loc::Fp(_)));
        assert!(matches!(a.locs[gid.index()], Loc::Int(_)));
    }

    #[test]
    fn no_two_live_vregs_share_a_register() {
        // Chain of adds keeping many values live simultaneously.
        let mut b = FunctionBuilder::new("k", vec![gptr()]);
        let vals: Vec<_> = (0..10)
            .map(|i| b.mov(Scalar::I32, Operand::imm_i32(i)))
            .collect();
        // Sum them so they are all live until the end.
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = b.bin(BinOp::Add, Scalar::I32, acc.into(), v.into());
        }
        let addr = b.gep(
            Operand::Reg(b.param(0)),
            acc.into(),
            4,
            AddressSpace::Global,
        );
        b.store(addr.into(), acc.into(), Scalar::I32, AddressSpace::Global);
        b.ret();
        let f = b.finish();
        let a = allocate(&f);
        // vals[1..] are all live at the first add; ensure distinct regs.
        let mut seen = std::collections::HashSet::new();
        for &v in &vals[1..] {
            if let Loc::Int(r) = a.locs[v.index()] {
                assert!(seen.insert(r), "register x{r} double-booked");
            }
        }
    }

    #[test]
    fn pressure_forces_spills() {
        // More simultaneously-live ints than the pool holds.
        let mut b = FunctionBuilder::new("k", vec![gptr()]);
        let n_pool = INT_POOL.count();
        let vals: Vec<_> = (0..(n_pool + 5) as i32)
            .map(|i| b.mov(Scalar::I32, Operand::imm_i32(i)))
            .collect();
        let mut acc = b.mov(Scalar::I32, Operand::imm_i32(0));
        for &v in &vals {
            acc = b.bin(BinOp::Add, Scalar::I32, acc.into(), v.into());
        }
        let addr = b.gep(
            Operand::Reg(b.param(0)),
            acc.into(),
            4,
            AddressSpace::Global,
        );
        b.store(addr.into(), acc.into(), Scalar::I32, AddressSpace::Global);
        b.ret();
        let f = b.finish();
        let a = allocate(&f);
        assert!(a.spill_slots > 0, "expected spills under pressure");
    }

    #[test]
    fn fp_and_int_pools_are_independent() {
        let mut b = FunctionBuilder::new("k", vec![gptr()]);
        let i = b.mov(Scalar::I32, Operand::imm_i32(1));
        let x = b.mov(Scalar::F32, Operand::imm_f32(1.0));
        let s = b.bin(BinOp::Add, Scalar::F32, x.into(), x.into());
        let addr = b.gep(Operand::Reg(b.param(0)), i.into(), 4, AddressSpace::Global);
        b.store(addr.into(), s.into(), Scalar::F32, AddressSpace::Global);
        b.ret();
        let f = b.finish();
        let a = allocate(&f);
        assert!(matches!(a.locs[i.index()], Loc::Int(_)));
        assert!(matches!(a.locs[x.index()], Loc::Fp(_)));
    }
}
