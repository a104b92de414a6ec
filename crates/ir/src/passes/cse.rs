//! Local common-subexpression elimination, including redundant-load removal.
//!
//! This is the automated counterpart of the paper's §III-B "O1: variable
//! reuse" optimization: values such as `delta[index_x] * ETA` that the
//! original backprop kernel loads and computes repeatedly are computed once
//! and reused. On the HLS flow every removed *load site* eliminates an entire
//! burst-coalesced LSU (32 load units), which is where the 12,898 → 9,882
//! BRAM reduction of Table II comes from.
//!
//! Soundness on the mutable-register IR is handled with value versioning:
//! every register carries a version that increments on reassignment, and
//! expression keys embed the versions of their operands. Loads additionally
//! carry a memory epoch per *alias class* — each pointer kernel parameter
//! is its own class (OpenCL kernel pointer arguments are treated as
//! noalias, the assumption both AOC and PoCL make), local arrays are
//! per-array classes, and anything untraceable is a wildcard class whose
//! stores invalidate everything.

use crate::func::Function;
use crate::inst::{Op, UnOp};
use crate::types::{AddressSpace, Scalar, Type};
use crate::value::{Operand, VReg};
use repro_util::fxhash::FxHashMap;

/// Alias class of a memory access: which underlying object the pointer can
/// point into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum AliasClass {
    /// The pointer kernel parameter with this index.
    Param(u32),
    /// A `__local` array.
    Local(u32),
    /// Untraceable — may alias anything.
    Any,
}

/// Trace a pointer operand back through gep/mov chains to its root object.
fn alias_class(f: &Function, insts: &[crate::inst::Inst], upto: usize, ptr: Operand) -> AliasClass {
    let mut cur = ptr;
    // Bounded walk to guard against pathological chains.
    for _ in 0..64 {
        let Operand::Reg(r) = cur else {
            return AliasClass::Any;
        };
        if (r.index()) < f.params.len() {
            return if matches!(f.vreg_type(r), Type::Ptr(_)) {
                AliasClass::Param(r.0)
            } else {
                AliasClass::Any
            };
        }
        // Find the latest assignment to r before `upto` in this block; if
        // none, the value came from another block: give up.
        let def = insts[..upto].iter().rev().find(|i| i.result == Some(r));
        let Some(def) = def else {
            return AliasClass::Any;
        };
        match &def.op {
            Op::Gep { base, .. } => cur = *base,
            Op::Mov { a, .. } => cur = *a,
            Op::LocalAddr(id) => return AliasClass::Local(id.0),
            _ => return AliasClass::Any,
        }
    }
    AliasClass::Any
}

/// Run the pass; returns the number of instructions replaced with reuses.
pub fn run(f: &mut Function) -> usize {
    let mut replaced = 0;
    for bi in 0..f.blocks.len() {
        replaced += run_block(f, bi);
    }
    replaced
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum KeyOperand {
    Reg(VReg, u32),
    Const(u32, ConstKind),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ConstKind {
    Int,
    Float,
    Bool,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Bin(crate::BinOp, Scalar, KeyOperand, KeyOperand),
    Un(UnOp, Scalar, KeyOperand),
    Cmp(crate::CmpOp, Scalar, KeyOperand, KeyOperand),
    Select(Scalar, KeyOperand, KeyOperand, KeyOperand),
    Gep(KeyOperand, KeyOperand, u32, AddressSpace),
    WorkItem(crate::Builtin),
    LocalAddr(u32),
    Load(KeyOperand, Scalar, AddressSpace, u64),
}

struct BlockState {
    version: Vec<u32>,
    /// Per-alias-class epoch; bumped by stores/atomics to that class.
    epochs: FxHashMap<AliasClass, u64>,
    /// Epoch of the wildcard class (stores to it invalidate everything, and
    /// every class observes it).
    epoch_any: u64,
    avail: FxHashMap<Key, (VReg, u32)>,
}

impl BlockState {
    fn epoch_of(&self, class: AliasClass) -> u64 {
        match class {
            // An untraceable pointer may alias anything: it must observe
            // every store, whatever class the store resolved to.
            AliasClass::Any => self.epoch_any + self.epochs.values().sum::<u64>(),
            c => self.epoch_any + self.epochs.get(&c).copied().unwrap_or(0),
        }
    }

    fn bump(&mut self, class: AliasClass) {
        match class {
            AliasClass::Any => self.epoch_any += 1,
            c => *self.epochs.entry(c).or_insert(0) += 1,
        }
    }
}

impl BlockState {
    fn key_operand(&self, o: Operand) -> KeyOperand {
        match o {
            Operand::Reg(r) => KeyOperand::Reg(r, self.version[r.index()]),
            Operand::Const(c) => KeyOperand::Const(
                c.bits(),
                match c.scalar() {
                    Scalar::F32 => ConstKind::Float,
                    Scalar::Bool => ConstKind::Bool,
                    _ => ConstKind::Int,
                },
            ),
        }
    }

    fn key(&self, op: &Op, load_epoch: u64) -> Option<Key> {
        Some(match op {
            Op::Bin { op, ty, a, b } => {
                Key::Bin(*op, *ty, self.key_operand(*a), self.key_operand(*b))
            }
            Op::Un { op, ty, a } => Key::Un(*op, *ty, self.key_operand(*a)),
            Op::Cmp { op, ty, a, b } => {
                Key::Cmp(*op, *ty, self.key_operand(*a), self.key_operand(*b))
            }
            Op::Select { ty, cond, a, b } => Key::Select(
                *ty,
                self.key_operand(*cond),
                self.key_operand(*a),
                self.key_operand(*b),
            ),
            Op::Gep {
                base,
                index,
                elem_bytes,
                space,
            } => Key::Gep(
                self.key_operand(*base),
                self.key_operand(*index),
                *elem_bytes,
                *space,
            ),
            Op::WorkItem(b) => Key::WorkItem(*b),
            Op::LocalAddr(id) => Key::LocalAddr(id.0),
            Op::Load { ptr, ty, space, .. } => {
                Key::Load(self.key_operand(*ptr), *ty, *space, load_epoch)
            }
            _ => return None,
        })
    }
}

fn run_block(f: &mut Function, bi: usize) -> usize {
    let mut replaced = 0;
    let mut st = BlockState {
        version: vec![0; f.num_vregs()],
        epochs: FxHashMap::default(),
        epoch_any: 0,
        avail: FxHashMap::default(),
    };
    let n = f.blocks[bi].insts.len();
    for ii in 0..n {
        let op = f.blocks[bi].insts[ii].op.clone();
        // Memory effects bump the written object's epoch (done before
        // keying loads so a load after a store never matches a load before
        // it). Atomics and barriers are treated as clobbering everything.
        match &op {
            Op::Store { ptr, .. } => {
                let class = alias_class(f, &f.blocks[bi].insts, ii, *ptr);
                st.bump(class);
            }
            Op::AtomicRmw { .. } | Op::Barrier => st.bump(AliasClass::Any),
            _ => {}
        }
        let load_epoch = match &op {
            Op::Load { ptr, .. } => st.epoch_of(alias_class(f, &f.blocks[bi].insts, ii, *ptr)),
            _ => 0,
        };
        let dest = f.blocks[bi].insts[ii].result;
        let key = st.key(&op, load_epoch);
        if let (Some(key), Some(dest)) = (key, dest) {
            match st.avail.get(&key) {
                Some(&(src, src_version))
                    if src != dest && st.version[src.index()] == src_version =>
                {
                    // Replace with a reuse of the previous result.
                    let ty = f.vreg_types[dest.index()];
                    let mov_ty = match ty {
                        crate::Type::Scalar(s) => s,
                        // Pointer reuse (gep/local_addr): keep a move; the
                        // scalar tag is irrelevant for pointer-width moves.
                        crate::Type::Ptr(_) => Scalar::U32,
                    };
                    f.blocks[bi].insts[ii].op = Op::Mov {
                        ty: mov_ty,
                        a: Operand::Reg(src),
                    };
                    replaced += 1;
                }
                _ => {
                    st.avail.insert(key, (dest, st.version[dest.index()] + 1));
                }
            }
        }
        if let Some(dest) = dest {
            st.version[dest.index()] += 1;
        }
    }
    replaced
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::func::Param;
    use crate::types::Type;
    use crate::value::Operand;
    use crate::{BinOp, Builtin};

    fn gptr(name: &str) -> Param {
        Param {
            name: name.into(),
            ty: Type::Ptr(AddressSpace::Global),
        }
    }

    #[test]
    fn duplicate_load_same_address_replaced() {
        let mut b = FunctionBuilder::new("k", vec![gptr("a")]);
        let gid = b.workitem(Builtin::GlobalId(0));
        let p = b.gep(
            Operand::Reg(b.param(0)),
            gid.into(),
            4,
            AddressSpace::Global,
        );
        let v1 = b.load(p.into(), Scalar::F32, AddressSpace::Global);
        let v2 = b.load(p.into(), Scalar::F32, AddressSpace::Global);
        let s = b.bin(BinOp::Add, Scalar::F32, v1.into(), v2.into());
        let _ = s;
        b.ret();
        let mut f = b.finish();
        assert_eq!(run(&mut f), 1);
        assert!(matches!(f.blocks[0].insts[3].op, Op::Mov { .. }));
        crate::verify::verify_function(&f).unwrap();
    }

    #[test]
    fn store_to_different_param_does_not_block_reuse() {
        // load a[i]; store b[i]; load a[i] -> second load reused (noalias
        // kernel parameters).
        let mut b = FunctionBuilder::new("k", vec![gptr("a"), gptr("b")]);
        let gid = b.workitem(Builtin::GlobalId(0));
        let pa = b.gep(
            Operand::Reg(b.param(0)),
            gid.into(),
            4,
            AddressSpace::Global,
        );
        let pb = b.gep(
            Operand::Reg(b.param(1)),
            gid.into(),
            4,
            AddressSpace::Global,
        );
        let v1 = b.load(pa.into(), Scalar::F32, AddressSpace::Global);
        b.store(pb.into(), v1.into(), Scalar::F32, AddressSpace::Global);
        let v2 = b.load(pa.into(), Scalar::F32, AddressSpace::Global);
        let s = b.bin(BinOp::Add, Scalar::F32, v1.into(), v2.into());
        let _ = s;
        b.ret();
        let mut f = b.finish();
        assert_eq!(run(&mut f), 1, "cross-param store must not block reuse");
    }

    #[test]
    fn atomic_blocks_all_reuse() {
        let mut b = FunctionBuilder::new("k", vec![gptr("a"), gptr("b")]);
        let gid = b.workitem(Builtin::GlobalId(0));
        let pa = b.gep(
            Operand::Reg(b.param(0)),
            gid.into(),
            4,
            AddressSpace::Global,
        );
        let pb = b.gep(
            Operand::Reg(b.param(1)),
            gid.into(),
            4,
            AddressSpace::Global,
        );
        let v1 = b.load(pa.into(), Scalar::I32, AddressSpace::Global);
        b.atomic(
            crate::AtomicOp::Add,
            pb.into(),
            Operand::imm_i32(1),
            Scalar::I32,
            AddressSpace::Global,
        );
        let v2 = b.load(pa.into(), Scalar::I32, AddressSpace::Global);
        let s = b.bin(BinOp::Add, Scalar::I32, v1.into(), v2.into());
        let _ = s;
        b.ret();
        let mut f = b.finish();
        assert_eq!(run(&mut f), 0, "atomics clobber every class");
    }

    #[test]
    fn store_between_loads_blocks_reuse() {
        let mut b = FunctionBuilder::new("k", vec![gptr("a")]);
        let gid = b.workitem(Builtin::GlobalId(0));
        let p = b.gep(
            Operand::Reg(b.param(0)),
            gid.into(),
            4,
            AddressSpace::Global,
        );
        let v1 = b.load(p.into(), Scalar::F32, AddressSpace::Global);
        b.store(
            p.into(),
            Operand::imm_f32(0.0),
            Scalar::F32,
            AddressSpace::Global,
        );
        let v2 = b.load(p.into(), Scalar::F32, AddressSpace::Global);
        let s = b.bin(BinOp::Add, Scalar::F32, v1.into(), v2.into());
        let _ = s;
        b.ret();
        let mut f = b.finish();
        assert_eq!(run(&mut f), 0, "load after store must not be reused");
    }

    #[test]
    fn barrier_blocks_local_load_reuse() {
        let mut b = FunctionBuilder::new("k", vec![]);
        let arr = b.local_array("tile", Scalar::F32, 64);
        let base = b.local_addr(arr);
        let p = b.gep(base.into(), Operand::imm_u32(0), 4, AddressSpace::Local);
        let v1 = b.load(p.into(), Scalar::F32, AddressSpace::Local);
        b.barrier();
        let v2 = b.load(p.into(), Scalar::F32, AddressSpace::Local);
        let s = b.bin(BinOp::Add, Scalar::F32, v1.into(), v2.into());
        let _ = s;
        b.ret();
        let mut f = b.finish();
        assert_eq!(run(&mut f), 0, "load across barrier must not be reused");
    }

    #[test]
    fn operand_reassignment_blocks_reuse() {
        // t = x + 1; x = 0; u = x + 1 must not reuse t.
        let mut b = FunctionBuilder::new("k", vec![]);
        let x = b.workitem(Builtin::GlobalId(0));
        let t = b.bin(BinOp::Add, Scalar::U32, x.into(), Operand::imm_u32(1));
        b.assign(x, Scalar::U32, Operand::imm_u32(0));
        let u = b.bin(BinOp::Add, Scalar::U32, x.into(), Operand::imm_u32(1));
        let _ = (t, u);
        b.ret();
        let mut f = b.finish();
        assert_eq!(run(&mut f), 0);
    }

    #[test]
    fn pure_expression_reused() {
        let mut b = FunctionBuilder::new("k", vec![]);
        let x = b.workitem(Builtin::GlobalId(0));
        let t = b.bin(BinOp::Mul, Scalar::U32, x.into(), Operand::imm_u32(3));
        let u = b.bin(BinOp::Mul, Scalar::U32, x.into(), Operand::imm_u32(3));
        let s = b.bin(BinOp::Add, Scalar::U32, t.into(), u.into());
        let _ = s;
        b.ret();
        let mut f = b.finish();
        assert_eq!(run(&mut f), 1);
    }

    #[test]
    fn source_reassigned_after_availability_blocks_reuse() {
        // t = x*3; t = 0 (reassigned!); u = x*3 must not become mov t.
        let mut b = FunctionBuilder::new("k", vec![]);
        let x = b.workitem(Builtin::GlobalId(0));
        let t = b.bin(BinOp::Mul, Scalar::U32, x.into(), Operand::imm_u32(3));
        b.assign(t, Scalar::U32, Operand::imm_u32(0));
        let u = b.bin(BinOp::Mul, Scalar::U32, x.into(), Operand::imm_u32(3));
        let _ = u;
        b.ret();
        let mut f = b.finish();
        assert_eq!(run(&mut f), 0);
    }
}
