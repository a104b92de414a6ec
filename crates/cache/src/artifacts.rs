//! [`Wire`] encodings for every artifact the pipeline cache stores:
//! IR modules (lowered and optimized), Vortex compiled kernels, and HLS
//! synthesis outcomes.
//!
//! Tags are explicit literals, not derived from declaration order, so adding
//! an enum variant in a source crate cannot silently renumber the on-disk
//! format — it either gets a fresh tag here or fails to compile. Any change
//! to an encoding must bump [`crate::CACHE_SCHEMA_VERSION`].

use crate::wire::{Reader, Wire, WireError, Writer};
use fpga_arch::{ResourceVector, Utilization};
use hls_flow::analysis::{AccessPattern, KernelProfile, SiteInfo};
use hls_flow::{SynthFailure, SynthReport};
use ocl_ir::{
    AddressSpace, AtomicOp, BinOp, Block, BlockId, Builtin, CmpOp, Const, Function, Inst, LoadHint,
    LocalArray, LocalArrayId, Module, Op, Operand, Param, Scalar, Terminator, Type, UnOp, VReg,
};
use vortex_cc::CompiledKernel;
use vortex_isa::encode::{decode, encode};
use vortex_isa::{PrintArg, PrintfFmt, Program};

macro_rules! wire_unit_enum {
    ($ty:ty { $($tag:literal => $v:ident),* $(,)? }) => {
        impl Wire for $ty {
            fn put(&self, w: &mut Writer) {
                w.u8(match self { $(<$ty>::$v => $tag,)* });
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let t = r.u8()?;
                match t {
                    $($tag => Ok(<$ty>::$v),)*
                    _ => Err(r.error(format!(
                        concat!("invalid ", stringify!($ty), " tag {}"), t
                    ))),
                }
            }
        }
    };
}

// ---------------------------------------------------------------------------
// IR (`ocl-ir`)
// ---------------------------------------------------------------------------

wire_unit_enum!(Scalar { 0 => I32, 1 => U32, 2 => F32, 3 => Bool });
wire_unit_enum!(AddressSpace { 0 => Global, 1 => Local });
wire_unit_enum!(LoadHint { 0 => BurstCoalesced, 1 => Pipelined });
wire_unit_enum!(BinOp {
    0 => Add, 1 => Sub, 2 => Mul, 3 => Div, 4 => Rem, 5 => And,
    6 => Or, 7 => Xor, 8 => Shl, 9 => Shr, 10 => Min, 11 => Max,
});
wire_unit_enum!(UnOp {
    0 => Neg, 1 => Not, 2 => Abs, 3 => Sqrt, 4 => Exp, 5 => Log, 6 => Sin,
    7 => Cos, 8 => Floor, 9 => F2I, 10 => I2F, 11 => U2F, 12 => IntCast,
});
wire_unit_enum!(CmpOp { 0 => Eq, 1 => Ne, 2 => Lt, 3 => Le, 4 => Gt, 5 => Ge });
wire_unit_enum!(AtomicOp {
    0 => Add, 1 => Sub, 2 => Min, 3 => Max, 4 => And, 5 => Or, 6 => Xor, 7 => Xchg,
});

impl Wire for Builtin {
    fn put(&self, w: &mut Writer) {
        let (tag, dim) = match *self {
            Builtin::GlobalId(d) => (0, d),
            Builtin::LocalId(d) => (1, d),
            Builtin::GroupId(d) => (2, d),
            Builtin::GlobalSize(d) => (3, d),
            Builtin::LocalSize(d) => (4, d),
            Builtin::NumGroups(d) => (5, d),
        };
        w.u8(tag);
        w.u8(dim);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let tag = r.u8()?;
        let dim = r.u8()?;
        Ok(match tag {
            0 => Builtin::GlobalId(dim),
            1 => Builtin::LocalId(dim),
            2 => Builtin::GroupId(dim),
            3 => Builtin::GlobalSize(dim),
            4 => Builtin::LocalSize(dim),
            5 => Builtin::NumGroups(dim),
            t => return Err(r.error(format!("invalid Builtin tag {t}"))),
        })
    }
}

impl Wire for Type {
    fn put(&self, w: &mut Writer) {
        match self {
            Type::Scalar(s) => {
                w.u8(0);
                s.put(w);
            }
            Type::Ptr(space) => {
                w.u8(1);
                space.put(w);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(Type::Scalar(Scalar::get(r)?)),
            1 => Ok(Type::Ptr(AddressSpace::get(r)?)),
            t => Err(r.error(format!("invalid Type tag {t}"))),
        }
    }
}

impl Wire for VReg {
    fn put(&self, w: &mut Writer) {
        w.u32(self.0);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(VReg(r.u32()?))
    }
}

impl Wire for BlockId {
    fn put(&self, w: &mut Writer) {
        w.u32(self.0);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(BlockId(r.u32()?))
    }
}

impl Wire for LocalArrayId {
    fn put(&self, w: &mut Writer) {
        w.u32(self.0);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(LocalArrayId(r.u32()?))
    }
}

impl Wire for Const {
    fn put(&self, w: &mut Writer) {
        // Tag + raw 32-bit pattern: exact for every constant kind.
        let tag = match self {
            Const::I32(_) => 0,
            Const::U32(_) => 1,
            Const::F32(_) => 2,
            Const::Bool(_) => 3,
        };
        w.u8(tag);
        w.u32(self.bits());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let tag = r.u8()?;
        let bits = r.u32()?;
        Ok(match tag {
            0 => Const::I32(bits as i32),
            1 => Const::U32(bits),
            2 => Const::F32(f32::from_bits(bits)),
            3 => Const::Bool(bits != 0),
            t => return Err(r.error(format!("invalid Const tag {t}"))),
        })
    }
}

impl Wire for Operand {
    fn put(&self, w: &mut Writer) {
        match self {
            Operand::Reg(v) => {
                w.u8(0);
                v.put(w);
            }
            Operand::Const(c) => {
                w.u8(1);
                c.put(w);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(Operand::Reg(VReg::get(r)?)),
            1 => Ok(Operand::Const(Const::get(r)?)),
            t => Err(r.error(format!("invalid Operand tag {t}"))),
        }
    }
}

impl Wire for Op {
    fn put(&self, w: &mut Writer) {
        match self {
            Op::Bin { op, ty, a, b } => {
                w.u8(0);
                op.put(w);
                ty.put(w);
                a.put(w);
                b.put(w);
            }
            Op::Un { op, ty, a } => {
                w.u8(1);
                op.put(w);
                ty.put(w);
                a.put(w);
            }
            Op::Cmp { op, ty, a, b } => {
                w.u8(2);
                op.put(w);
                ty.put(w);
                a.put(w);
                b.put(w);
            }
            Op::Select { ty, cond, a, b } => {
                w.u8(3);
                ty.put(w);
                cond.put(w);
                a.put(w);
                b.put(w);
            }
            Op::Mov { ty, a } => {
                w.u8(4);
                ty.put(w);
                a.put(w);
            }
            Op::Gep {
                base,
                index,
                elem_bytes,
                space,
            } => {
                w.u8(5);
                base.put(w);
                index.put(w);
                w.u32(*elem_bytes);
                space.put(w);
            }
            Op::Load {
                ptr,
                ty,
                space,
                hint,
            } => {
                w.u8(6);
                ptr.put(w);
                ty.put(w);
                space.put(w);
                hint.put(w);
            }
            Op::Store {
                ptr,
                value,
                ty,
                space,
            } => {
                w.u8(7);
                ptr.put(w);
                value.put(w);
                ty.put(w);
                space.put(w);
            }
            Op::AtomicRmw {
                op,
                ptr,
                value,
                ty,
                space,
            } => {
                w.u8(8);
                op.put(w);
                ptr.put(w);
                value.put(w);
                ty.put(w);
                space.put(w);
            }
            Op::WorkItem(b) => {
                w.u8(9);
                b.put(w);
            }
            Op::LocalAddr(id) => {
                w.u8(10);
                id.put(w);
            }
            Op::Barrier => w.u8(11),
            Op::Printf { fmt, args } => {
                w.u8(12);
                w.str(fmt);
                args.put(w);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => Op::Bin {
                op: BinOp::get(r)?,
                ty: Scalar::get(r)?,
                a: Operand::get(r)?,
                b: Operand::get(r)?,
            },
            1 => Op::Un {
                op: UnOp::get(r)?,
                ty: Scalar::get(r)?,
                a: Operand::get(r)?,
            },
            2 => Op::Cmp {
                op: CmpOp::get(r)?,
                ty: Scalar::get(r)?,
                a: Operand::get(r)?,
                b: Operand::get(r)?,
            },
            3 => Op::Select {
                ty: Scalar::get(r)?,
                cond: Operand::get(r)?,
                a: Operand::get(r)?,
                b: Operand::get(r)?,
            },
            4 => Op::Mov {
                ty: Scalar::get(r)?,
                a: Operand::get(r)?,
            },
            5 => Op::Gep {
                base: Operand::get(r)?,
                index: Operand::get(r)?,
                elem_bytes: r.u32()?,
                space: AddressSpace::get(r)?,
            },
            6 => Op::Load {
                ptr: Operand::get(r)?,
                ty: Scalar::get(r)?,
                space: AddressSpace::get(r)?,
                hint: LoadHint::get(r)?,
            },
            7 => Op::Store {
                ptr: Operand::get(r)?,
                value: Operand::get(r)?,
                ty: Scalar::get(r)?,
                space: AddressSpace::get(r)?,
            },
            8 => Op::AtomicRmw {
                op: AtomicOp::get(r)?,
                ptr: Operand::get(r)?,
                value: Operand::get(r)?,
                ty: Scalar::get(r)?,
                space: AddressSpace::get(r)?,
            },
            9 => Op::WorkItem(Builtin::get(r)?),
            10 => Op::LocalAddr(LocalArrayId::get(r)?),
            11 => Op::Barrier,
            12 => Op::Printf {
                fmt: r.str()?,
                args: Vec::get(r)?,
            },
            t => return Err(r.error(format!("invalid Op tag {t}"))),
        })
    }
}

impl Wire for Inst {
    fn put(&self, w: &mut Writer) {
        self.result.put(w);
        self.op.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Inst {
            result: Option::get(r)?,
            op: Op::get(r)?,
        })
    }
}

impl Wire for Terminator {
    fn put(&self, w: &mut Writer) {
        match self {
            Terminator::Br { target } => {
                w.u8(0);
                target.put(w);
            }
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                w.u8(1);
                cond.put(w);
                then_bb.put(w);
                else_bb.put(w);
            }
            Terminator::Ret => w.u8(2),
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => Terminator::Br {
                target: BlockId::get(r)?,
            },
            1 => Terminator::CondBr {
                cond: Operand::get(r)?,
                then_bb: BlockId::get(r)?,
                else_bb: BlockId::get(r)?,
            },
            2 => Terminator::Ret,
            t => return Err(r.error(format!("invalid Terminator tag {t}"))),
        })
    }
}

impl Wire for Block {
    fn put(&self, w: &mut Writer) {
        self.id.put(w);
        self.insts.put(w);
        self.term.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Block {
            id: BlockId::get(r)?,
            insts: Vec::get(r)?,
            term: Terminator::get(r)?,
        })
    }
}

impl Wire for Param {
    fn put(&self, w: &mut Writer) {
        w.str(&self.name);
        self.ty.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Param {
            name: r.str()?,
            ty: Type::get(r)?,
        })
    }
}

impl Wire for LocalArray {
    fn put(&self, w: &mut Writer) {
        w.str(&self.name);
        self.elem.put(w);
        w.u32(self.len);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(LocalArray {
            name: r.str()?,
            elem: Scalar::get(r)?,
            len: r.u32()?,
        })
    }
}

impl Wire for Function {
    fn put(&self, w: &mut Writer) {
        w.str(&self.name);
        self.params.put(w);
        self.vreg_types.put(w);
        self.local_arrays.put(w);
        self.blocks.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Function {
            name: r.str()?,
            params: Vec::get(r)?,
            vreg_types: Vec::get(r)?,
            local_arrays: Vec::get(r)?,
            blocks: Vec::get(r)?,
        })
    }
}

impl Wire for Module {
    fn put(&self, w: &mut Writer) {
        self.kernels.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Module {
            kernels: Vec::get(r)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Vortex compiled kernels (`vortex-isa`, `vortex-cc`)
// ---------------------------------------------------------------------------

wire_unit_enum!(PrintArg { 0 => I32, 1 => U32, 2 => F32 });

impl Wire for PrintfFmt {
    fn put(&self, w: &mut Writer) {
        w.str(&self.fmt);
        self.args.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PrintfFmt {
            fmt: r.str()?,
            args: Vec::get(r)?,
        })
    }
}

/// Instructions are stored as their 32-bit encoding, the kernel binary.
impl Wire for Program {
    fn put(&self, w: &mut Writer) {
        w.u32(u32::try_from(self.instrs.len()).expect("wire: program longer than u32"));
        for i in &self.instrs {
            w.u32(encode(i).expect("code generation emits only encodable instructions"));
        }
        self.printf_table.put(w);
        w.u32(self.entry);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.u32()? as usize;
        if len > r.remaining() / 4 {
            return Err(r.error(format!(
                "corrupt program length {len} exceeds {} remaining bytes",
                r.remaining()
            )));
        }
        let mut instrs = Vec::with_capacity(len);
        for _ in 0..len {
            let at = r.offset();
            let word = r.u32()?;
            instrs.push(decode(word).map_err(|e| WireError {
                message: e.to_string(),
                offset: at,
            })?);
        }
        Ok(Program {
            instrs,
            printf_table: Vec::get(r)?,
            entry: r.u32()?,
        })
    }
}

impl Wire for CompiledKernel {
    fn put(&self, w: &mut Writer) {
        self.program.put(w);
        w.str(&self.name);
        self.num_args.put(w);
        w.bool(self.group_mode);
        w.u32(self.local_bytes);
        w.u32(self.warp_stack_bytes);
        self.divergent_branches.put(w);
        self.spill_slots.put(w);
        w.u32(self.threads);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(CompiledKernel {
            program: Program::get(r)?,
            name: r.str()?,
            num_args: usize::get(r)?,
            group_mode: r.bool()?,
            local_bytes: r.u32()?,
            warp_stack_bytes: r.u32()?,
            divergent_branches: usize::get(r)?,
            spill_slots: usize::get(r)?,
            threads: r.u32()?,
        })
    }
}

// ---------------------------------------------------------------------------
// HLS synthesis outcome (`hls-flow`, `fpga-arch`)
// ---------------------------------------------------------------------------

wire_unit_enum!(AccessPattern { 0 => ThreadAffine, 1 => Computed });

impl Wire for ResourceVector {
    fn put(&self, w: &mut Writer) {
        w.u64(self.aluts);
        w.u64(self.ffs);
        w.u64(self.brams);
        w.u64(self.dsps);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ResourceVector {
            aluts: r.u64()?,
            ffs: r.u64()?,
            brams: r.u64()?,
            dsps: r.u64()?,
        })
    }
}

impl Wire for Utilization {
    fn put(&self, w: &mut Writer) {
        w.f64(self.aluts_pct);
        w.f64(self.ffs_pct);
        w.f64(self.brams_pct);
        w.f64(self.dsps_pct);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Utilization {
            aluts_pct: r.f64()?,
            ffs_pct: r.f64()?,
            brams_pct: r.f64()?,
            dsps_pct: r.f64()?,
        })
    }
}

impl Wire for SiteInfo {
    fn put(&self, w: &mut Writer) {
        self.pattern.put(w);
        self.hint.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SiteInfo {
            pattern: AccessPattern::get(r)?,
            hint: LoadHint::get(r)?,
        })
    }
}

impl Wire for KernelProfile {
    fn put(&self, w: &mut Writer) {
        w.str(&self.name);
        self.load_sites.put(w);
        self.store_sites.put(w);
        self.atomic_sites.put(w);
        self.local_arrays.put(w);
        self.int_alu_ops.put(w);
        self.int_mul_sites.put(w);
        self.fadd_sites.put(w);
        self.fmul_sites.put(w);
        self.fdiv_sites.put(w);
        self.sfu_sites.put(w);
        w.bool(self.uses_barrier);
        w.bool(self.uses_printf);
        self.blocks.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(KernelProfile {
            name: r.str()?,
            load_sites: Vec::get(r)?,
            store_sites: Vec::get(r)?,
            atomic_sites: usize::get(r)?,
            local_arrays: Vec::get(r)?,
            int_alu_ops: usize::get(r)?,
            int_mul_sites: usize::get(r)?,
            fadd_sites: usize::get(r)?,
            fmul_sites: usize::get(r)?,
            fdiv_sites: usize::get(r)?,
            sfu_sites: usize::get(r)?,
            uses_barrier: r.bool()?,
            uses_printf: r.bool()?,
            blocks: usize::get(r)?,
        })
    }
}

impl Wire for SynthReport {
    fn put(&self, w: &mut Writer) {
        self.area.put(w);
        self.utilization.put(w);
        w.f64(self.hours);
        self.profiles.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SynthReport {
            area: ResourceVector::get(r)?,
            utilization: Utilization::get(r)?,
            hours: r.f64()?,
            profiles: Vec::get(r)?,
        })
    }
}

/// The resource classes `ResourceVector::first_overflow` can name. The
/// failure's `resource` field is `&'static str`, so decoding maps a tag back
/// into this fixed set instead of allocating.
const RESOURCE_NAMES: [&str; 4] = ["BRAM", "ALUT", "FF", "DSP"];

impl Wire for SynthFailure {
    fn put(&self, w: &mut Writer) {
        match self {
            SynthFailure::NotEnoughResources {
                resource,
                required,
                capacity,
                hours,
            } => {
                w.u8(0);
                let idx = RESOURCE_NAMES
                    .iter()
                    .position(|n| n == resource)
                    .expect("unknown resource class in SynthFailure");
                w.u8(idx as u8);
                required.put(w);
                capacity.put(w);
                w.f64(*hours);
            }
            SynthFailure::AtomicsUnsupported { hours } => {
                w.u8(1);
                w.f64(*hours);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => {
                let idx = r.u8()? as usize;
                let resource = *RESOURCE_NAMES
                    .get(idx)
                    .ok_or_else(|| r.error(format!("invalid resource class tag {idx}")))?;
                SynthFailure::NotEnoughResources {
                    resource,
                    required: ResourceVector::get(r)?,
                    capacity: ResourceVector::get(r)?,
                    hours: r.f64()?,
                }
            }
            1 => SynthFailure::AtomicsUnsupported { hours: r.f64()? },
            t => return Err(r.error(format!("invalid SynthFailure tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode, encode};

    #[test]
    fn module_round_trips_bytes() {
        let module = ocl_front::compile(
            r#"
            __kernel void axpy(__global float* y, __global const float* x, float a, int n) {
                int i = get_global_id(0);
                if (i < n) { y[i] = a * x[i] + y[i]; }
            }
            "#,
        )
        .unwrap();
        let bytes = encode(&module);
        let back: Module = decode(&bytes).unwrap();
        assert_eq!(back, module);
        // Canonical: re-encoding the decoded value reproduces the bytes.
        assert_eq!(encode(&back), bytes);
    }

    #[test]
    fn compiled_kernel_round_trips_bytes() {
        let module = ocl_front::compile(
            r#"
            __kernel void scale(__global int* d, int n) {
                int i = get_global_id(0);
                for (int k = 0; k < n; k++) { d[i] = d[i] * 2; }
            }
            "#,
        )
        .unwrap();
        let compiled = vortex_cc::compile_kernel(
            module.kernel("scale").unwrap(),
            &vortex_cc::CodegenOpts { threads: 16 },
        )
        .unwrap();
        let bytes = encode(&compiled);
        let back: CompiledKernel = decode(&bytes).unwrap();
        assert_eq!(encode(&back), bytes);
        assert_eq!(back.program, compiled.program);
        assert_eq!(back.name, compiled.name);
        assert_eq!(back.threads, compiled.threads);
    }

    #[test]
    fn synth_outcomes_round_trip() {
        let device = fpga_arch::Device::mx2100();
        let module =
            ocl_front::compile("__kernel void id(__global int* d) { d[get_global_id(0)] = 1; }")
                .unwrap();
        let ok = hls_flow::synthesize(&module, &device, &hls_flow::SynthOptions::default());
        let bytes = encode(&ok);
        let back: Result<SynthReport, SynthFailure> = decode(&bytes).unwrap();
        assert_eq!(encode(&back), bytes);

        let failure: Result<SynthReport, SynthFailure> = Err(SynthFailure::NotEnoughResources {
            resource: "BRAM",
            required: ResourceVector {
                aluts: 1,
                ffs: 2,
                brams: 9999,
                dsps: 4,
            },
            capacity: ResourceVector {
                aluts: 10,
                ffs: 20,
                brams: 30,
                dsps: 40,
            },
            hours: 10.4,
        });
        let bytes = encode(&failure);
        let back: Result<SynthReport, SynthFailure> = decode(&bytes).unwrap();
        assert_eq!(encode(&back), bytes);
        match back.unwrap_err() {
            SynthFailure::NotEnoughResources { resource, .. } => assert_eq!(resource, "BRAM"),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn corrupt_artifact_reports_offset() {
        let module =
            ocl_front::compile("__kernel void id(__global int* d) { d[get_global_id(0)] = 1; }")
                .unwrap();
        let mut bytes = encode(&module);
        let cut = bytes.len() / 2;
        bytes.truncate(cut);
        let err = decode::<Module>(&bytes).unwrap_err();
        assert!(err.offset <= cut, "offset {} past end {}", err.offset, cut);
    }
}
