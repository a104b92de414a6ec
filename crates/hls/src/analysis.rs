//! Kernel datapath analysis: LSU inference and operation census.

use ocl_ir::cfg::{Cfg, PostDominators};
use ocl_ir::workitem::{Dep, WorkItemInfo};
use ocl_ir::{BinOp, Function, LoadHint, Op, Scalar, UnOp};

/// How the address of a memory access site relates to the work-item id —
/// the property the AOC compiler's LSU inference keys burst-buffer sizing
/// on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Address is an affine function of `get_global_id` (contiguous across
    /// adjacent work items): a narrow burst buffer suffices.
    ThreadAffine,
    /// Computed / indirect index: the LSU provisions deep burst buffers.
    Computed,
}

/// One global-memory access site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteInfo {
    pub pattern: AccessPattern,
    /// For loads: the LSU style chosen (burst-coalesced vs pipelined).
    pub hint: LoadHint,
}

/// Static profile of one kernel, input to the area and performance models.
#[derive(Debug, Clone, Default)]
pub struct KernelProfile {
    pub name: String,
    pub load_sites: Vec<SiteInfo>,
    pub store_sites: Vec<SiteInfo>,
    pub atomic_sites: usize,
    /// (bytes, access-site count) per `__local` array.
    pub local_arrays: Vec<(u32, usize)>,
    pub int_alu_ops: usize,
    pub int_mul_sites: usize,
    pub fadd_sites: usize,
    pub fmul_sites: usize,
    pub fdiv_sites: usize,
    pub sfu_sites: usize,
    pub uses_barrier: bool,
    pub uses_printf: bool,
    /// Basic-block count, a crude proxy for control-path complexity.
    pub blocks: usize,
}

impl KernelProfile {
    /// Total burst-coalesced load sites (32 load units each).
    pub fn burst_load_sites(&self) -> usize {
        self.load_sites
            .iter()
            .filter(|s| s.hint == LoadHint::BurstCoalesced)
            .count()
    }
}

/// Build the profile for a kernel.
pub fn profile(f: &Function) -> KernelProfile {
    let cfg = Cfg::new(f);
    let workitem = WorkItemInfo::analyze(f, &cfg, &PostDominators::new(f, &cfg));
    let mut p = KernelProfile {
        name: f.name.clone(),
        uses_barrier: f.uses_barrier(),
        uses_printf: f.uses_printf(),
        blocks: f.blocks.len(),
        ..Default::default()
    };
    // Per-local-array access counts keyed by the LocalAddr result chains: we
    // count local-space memory ops and attribute them evenly (arrays are few
    // and the area cost depends mostly on the total).
    let mut local_accesses = 0usize;
    for b in &f.blocks {
        for inst in &b.insts {
            match &inst.op {
                Op::Load {
                    ptr, space, hint, ..
                } => match space {
                    ocl_ir::AddressSpace::Global => p.load_sites.push(SiteInfo {
                        pattern: pattern_of(workitem.of(ptr)),
                        hint: *hint,
                    }),
                    ocl_ir::AddressSpace::Local => local_accesses += 1,
                },
                Op::Store { ptr, space, .. } => match space {
                    ocl_ir::AddressSpace::Global => p.store_sites.push(SiteInfo {
                        pattern: pattern_of(workitem.of(ptr)),
                        hint: LoadHint::BurstCoalesced,
                    }),
                    ocl_ir::AddressSpace::Local => local_accesses += 1,
                },
                Op::AtomicRmw { .. } => p.atomic_sites += 1,
                Op::Bin { op, ty, .. } => match (ty, op) {
                    (Scalar::F32, BinOp::Mul) => p.fmul_sites += 1,
                    (Scalar::F32, BinOp::Div | BinOp::Rem) => p.fdiv_sites += 1,
                    (Scalar::F32, _) => p.fadd_sites += 1,
                    (_, BinOp::Mul | BinOp::Div | BinOp::Rem) => p.int_mul_sites += 1,
                    _ => p.int_alu_ops += 1,
                },
                Op::Un { op, .. } => match op {
                    UnOp::Sqrt | UnOp::Exp | UnOp::Log | UnOp::Sin | UnOp::Cos => p.sfu_sites += 1,
                    UnOp::I2F | UnOp::U2F | UnOp::F2I | UnOp::Floor => p.fadd_sites += 1,
                    _ => p.int_alu_ops += 1,
                },
                Op::Cmp { ty, .. } => {
                    if *ty == Scalar::F32 {
                        p.fadd_sites += 1;
                    } else {
                        p.int_alu_ops += 1;
                    }
                }
                Op::Select { .. } | Op::Mov { .. } | Op::Gep { .. } | Op::WorkItem(_) => {
                    p.int_alu_ops += 1
                }
                Op::LocalAddr(_) | Op::Barrier | Op::Printf { .. } => {}
            }
        }
    }
    let n_arrays = f.local_arrays.len().max(1);
    for a in &f.local_arrays {
        p.local_arrays
            .push((a.bytes(), local_accesses.div_ceil(n_arrays)));
    }
    p
}

/// Only addresses that stay put or step one element per adjacent work item
/// along the fastest-varying dimension coalesce into narrow bursts; strided,
/// higher-dimension and data-dependent addresses provision the deep burst
/// buffers that dominate the paper's BRAM counts. An address that is uniform
/// on every path stays put even where a divergent branch skips it.
fn pattern_of(dep: Dep) -> AccessPattern {
    match dep {
        Dep::Uniform | Dep::ControlDivergent | Dep::Affine { dim: 0, unit: true } => {
            AccessPattern::ThreadAffine
        }
        Dep::Affine { .. } | Dep::Varying => AccessPattern::Computed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile_src(src: &str) -> KernelProfile {
        let m = ocl_front::compile(src).unwrap();
        profile(&m.kernels[0])
    }

    #[test]
    fn vecadd_sites_are_thread_affine() {
        let p = profile_src(
            "__kernel void v(__global const float* a, __global const float* b, __global float* c) {
                int i = get_global_id(0);
                c[i] = a[i] + b[i];
            }",
        );
        assert_eq!(p.load_sites.len(), 2);
        assert_eq!(p.store_sites.len(), 1);
        assert!(p
            .load_sites
            .iter()
            .all(|s| s.pattern == AccessPattern::ThreadAffine));
        assert_eq!(p.store_sites[0].pattern, AccessPattern::ThreadAffine);
        assert_eq!(p.burst_load_sites(), 2);
        assert_eq!(p.fadd_sites, 1);
    }

    #[test]
    fn matmul_row_access_is_computed() {
        let p = profile_src(
            "__kernel void mm(__global const float* a, __global const float* b,
                              __global float* c, int n) {
                int row = get_global_id(1);
                int col = get_global_id(0);
                float acc = 0.0f;
                for (int k = 0; k < n; k++) acc += a[row * n + k] * b[k * n + col];
                c[row * n + col] = acc;
            }",
        );
        // a[row*n+k]: row comes from dimension 1, so the address is strided
        // across adjacent work items -> deep burst buffers (Computed).
        // b[k*n+col]: unit stride in col -> coalesces (ThreadAffine).
        assert_eq!(p.load_sites.len(), 2);
        let patterns: Vec<_> = p.load_sites.iter().map(|s| s.pattern).collect();
        assert!(
            patterns.contains(&AccessPattern::Computed)
                && patterns.contains(&AccessPattern::ThreadAffine),
            "{patterns:?}"
        );
        // c[row*n+col] is strided for the same reason as a.
        assert_eq!(p.store_sites[0].pattern, AccessPattern::Computed);
        assert_eq!(p.fmul_sites, 1);
    }

    #[test]
    fn indirect_access_is_computed() {
        let p = profile_src(
            "__kernel void g(__global const int* idx, __global float* x) {
                int i = get_global_id(0);
                x[idx[i]] = 1.0f;
            }",
        );
        assert_eq!(p.load_sites[0].pattern, AccessPattern::ThreadAffine);
        assert_eq!(p.store_sites[0].pattern, AccessPattern::Computed);
    }

    #[test]
    fn pipelined_hint_counted() {
        let p = profile_src(
            "__kernel void k(__global const float* a, __global float* o) {
                int i = get_global_id(0);
                o[i] = __pipelined_load(a + i);
            }",
        );
        assert_eq!(p.load_sites.len(), 1);
        assert_eq!(p.load_sites[0].hint, LoadHint::Pipelined);
        assert_eq!(p.burst_load_sites(), 0);
    }

    #[test]
    fn atomics_and_locals_counted() {
        let p = profile_src(
            "__kernel void k(__global int* h) {
                __local float tile[32];
                int i = get_global_id(0);
                tile[get_local_id(0)] = 0.0f;
                barrier(CLK_LOCAL_MEM_FENCE);
                atomic_add(&h[i % 4], 1);
            }",
        );
        assert_eq!(p.atomic_sites, 1);
        assert_eq!(p.local_arrays.len(), 1);
        assert_eq!(p.local_arrays[0].0, 128);
        assert!(p.uses_barrier);
    }
}
