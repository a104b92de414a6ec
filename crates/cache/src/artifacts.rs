//! [`Wire`] encodings for every artifact the pipeline cache stores:
//! IR modules (lowered and optimized), Vortex compiled kernels, and HLS
//! synthesis outcomes.
//!
//! Each layout is declared once. `wire_struct!` writes a struct's fields
//! in the order listed; `wire_enum!` writes a `u8` tag and then the
//! variant's fields. Both derive `put` and `get` from the same list, so the
//! two halves cannot disagree. Only three layouts are not field by field and
//! stay hand-written: [`Const`] (a tag and the raw bits), [`Program`] (the
//! 32-bit instruction words) and [`SynthFailure`] (a resource-name table).
//!
//! Tags are explicit literals, not derived from declaration order, so adding
//! an enum variant in a source crate cannot silently renumber the on-disk
//! format — it either gets a fresh tag here or fails to compile. Any change
//! to an encoding must bump [`crate::CACHE_SCHEMA_VERSION`];
//! `tests/golden/cache_artifacts.md` pins the bytes of every suite artifact.

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

/// `Name { a, b }`: the fields in the order listed, each as its own
/// [`Wire`]. `Name(_)`: a newtype, as its one field.
macro_rules! wire_struct {
    ($ty:ident(_)) => {
        wire_struct!($ty { 0 });
    };
    ($ty:ident { $($f:tt),* $(,)? }) => {
        impl Wire for $ty {
            fn put(&self, w: &mut Writer) {
                $(self.$f.put(w);)*
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok($ty { $($f: Wire::get(r)?),* })
            }
        }
    };
}

/// `Name { 0 => Unit, 1 => Tuple(a, b), 2 => Struct { a, b } }`: a `u8` tag,
/// then the variant's fields in the order listed.
macro_rules! wire_enum {
    ($ty:ident {
        $($tag:literal => $v:ident $(($($t:ident),*))? $({ $($f:ident),* $(,)? })?),* $(,)?
    }) => {
        impl Wire for $ty {
            fn put(&self, w: &mut Writer) {
                match self {
                    $($ty::$v $(($($t),*))? $({ $($f),* })? => {
                        w.u8($tag);
                        $($($t.put(w);)*)?
                        $($($f.put(w);)*)?
                    })*
                }
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(match r.u8()? {
                    $($tag => $ty::$v
                        $(($({ let $t = Wire::get(r)?; $t }),*))?
                        $({ $($f: Wire::get(r)?),* })?,)*
                    t => return Err(r.error(format!(
                        concat!("invalid ", stringify!($ty), " tag {}"), t
                    ))),
                })
            }
        }
    };
}

// ---------------------------------------------------------------------------
// IR (`ocl-ir`)
// ---------------------------------------------------------------------------

wire_enum!(Scalar { 0 => I32, 1 => U32, 2 => F32, 3 => Bool });
wire_enum!(AddressSpace { 0 => Global, 1 => Local });
wire_enum!(LoadHint { 0 => BurstCoalesced, 1 => Pipelined });
wire_enum!(BinOp {
    0 => Add, 1 => Sub, 2 => Mul, 3 => Div, 4 => Rem, 5 => And,
    6 => Or, 7 => Xor, 8 => Shl, 9 => Shr, 10 => Min, 11 => Max,
});
wire_enum!(UnOp {
    0 => Neg, 1 => Not, 2 => Abs, 3 => Sqrt, 4 => Exp, 5 => Log, 6 => Sin,
    7 => Cos, 8 => Floor, 9 => F2I, 10 => I2F, 11 => U2F, 12 => IntCast,
});
wire_enum!(CmpOp { 0 => Eq, 1 => Ne, 2 => Lt, 3 => Le, 4 => Gt, 5 => Ge });
wire_enum!(AtomicOp {
    0 => Add, 1 => Sub, 2 => Min, 3 => Max, 4 => And, 5 => Or, 6 => Xor, 7 => Xchg,
});
wire_enum!(Builtin {
    0 => GlobalId(d), 1 => LocalId(d), 2 => GroupId(d),
    3 => GlobalSize(d), 4 => LocalSize(d), 5 => NumGroups(d),
});
wire_enum!(Type { 0 => Scalar(s), 1 => Ptr(space) });
wire_struct!(VReg(_));
wire_struct!(BlockId(_));
wire_struct!(LocalArrayId(_));

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

wire_enum!(Operand { 0 => Reg(v), 1 => Const(c) });
wire_enum!(Op {
    0 => Bin { op, ty, a, b },
    1 => Un { op, ty, a },
    2 => Cmp { op, ty, a, b },
    3 => Select { ty, cond, a, b },
    4 => Mov { ty, a },
    5 => Gep { base, index, elem_bytes, space },
    6 => Load { ptr, ty, space, hint },
    7 => Store { ptr, value, ty, space },
    8 => AtomicRmw { op, ptr, value, ty, space },
    9 => WorkItem(b),
    10 => LocalAddr(id),
    11 => Barrier,
    12 => Printf { fmt, args },
});
wire_struct!(Inst { result, op });
wire_enum!(Terminator {
    0 => Br { target },
    1 => CondBr { cond, then_bb, else_bb },
    2 => Ret,
});
wire_struct!(Block { id, insts, term });
wire_struct!(Param { name, ty });
wire_struct!(LocalArray { name, elem, len });
wire_struct!(Function {
    name,
    params,
    vreg_types,
    local_arrays,
    blocks
});
wire_struct!(Module { kernels });

// ---------------------------------------------------------------------------
// Vortex compiled kernels (`vortex-isa`, `vortex-cc`)
// ---------------------------------------------------------------------------

wire_enum!(PrintArg { 0 => I32, 1 => U32, 2 => F32 });
wire_struct!(PrintfFmt { fmt, args });

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

wire_struct!(CompiledKernel {
    program,
    name,
    num_args,
    group_mode,
    local_bytes,
    warp_stack_bytes,
    divergent_branches,
    spill_slots,
    threads,
});

// ---------------------------------------------------------------------------
// HLS synthesis outcome (`hls-flow`, `fpga-arch`)
// ---------------------------------------------------------------------------

wire_enum!(AccessPattern { 0 => ThreadAffine, 1 => Computed });
wire_struct!(ResourceVector {
    aluts,
    ffs,
    brams,
    dsps
});
wire_struct!(Utilization {
    aluts_pct,
    ffs_pct,
    brams_pct,
    dsps_pct
});
wire_struct!(SiteInfo { pattern, hint });
wire_struct!(KernelProfile {
    name,
    load_sites,
    store_sites,
    atomic_sites,
    local_arrays,
    int_alu_ops,
    int_mul_sites,
    fadd_sites,
    fmul_sites,
    fdiv_sites,
    sfu_sites,
    uses_barrier,
    uses_printf,
    blocks,
});
wire_struct!(SynthReport {
    area,
    utilization,
    hours,
    profiles
});

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

/// Hand-built cases, one per artifact kind. `tests/cache_equivalence.rs`
/// checks the same properties on every artifact the suite produces.
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
