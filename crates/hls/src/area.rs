//! RTL resource estimation — the cost table calibrated against the paper's
//! Tables II and III.
//!
//! All constants live in [`costs`]; EXPERIMENTS.md records the resulting
//! paper-vs-model deltas for every calibrated row.

use crate::analysis::{AccessPattern, KernelProfile};
use fpga_arch::ResourceVector;
use ocl_ir::LoadHint;

/// Calibrated cost constants.
pub mod costs {
    /// Load units instantiated per burst-coalesced access site (§III-A).
    pub const BURST_UNITS: u64 = 32;
    /// ALUTs per load unit.
    pub const LOAD_UNIT_ALUT: u64 = 820;
    /// FFs per load unit.
    pub const LOAD_UNIT_FF: u64 = 2_450;
    /// BRAMs per load unit with a thread-affine (narrow-burst) pattern.
    pub const LOAD_UNIT_BRAM_AFFINE: u64 = 12;
    /// BRAMs per load unit with a computed/indirect (deep-burst) pattern —
    /// this is what makes one backprop load line cost "over 1,000 BRAM
    /// blocks" (§III-B): 32 units × 33 ≈ 1,056.
    pub const LOAD_UNIT_BRAM_COMPUTED: u64 = 33;
    /// Store units per store site.
    pub const STORE_UNITS: u64 = 32;
    pub const STORE_UNIT_ALUT: u64 = 620;
    pub const STORE_UNIT_FF: u64 = 2_200;
    pub const STORE_UNIT_BRAM_AFFINE: u64 = 8;
    pub const STORE_UNIT_BRAM_COMPUTED: u64 = 16;
    /// A pipelined LSU is a single unit with a deep buffer.
    pub const PIPELINED_ALUT: u64 = 1_900;
    pub const PIPELINED_FF: u64 = 5_200;
    pub const PIPELINED_BRAM: u64 = 33;
    /// Atomic units (hardware CAS loop + arbitration).
    pub const ATOMIC_ALUT: u64 = 6_500;
    pub const ATOMIC_FF: u64 = 11_000;
    pub const ATOMIC_BRAM: u64 = 64;
    /// Fixed per-kernel infrastructure (dispatcher, id generators, CSRs).
    pub const KERNEL_BASE_ALUT: u64 = 7_800;
    pub const KERNEL_BASE_FF: u64 = 26_000;
    pub const KERNEL_BASE_BRAM: u64 = 24;
    pub const KERNEL_BASE_DSP: u64 = 1;
    /// Datapath op costs.
    pub const INT_ALU_ALUT: u64 = 40;
    pub const INT_ALU_FF: u64 = 72;
    pub const INT_MUL_ALUT: u64 = 160;
    pub const INT_MUL_FF: u64 = 240;
    pub const INT_MUL_DSP: u64 = 1;
    pub const FADD_ALUT: u64 = 640;
    pub const FADD_FF: u64 = 1_100;
    pub const FMUL_ALUT: u64 = 260;
    pub const FMUL_FF: u64 = 520;
    pub const FMUL_DSP: u64 = 2;
    pub const FDIV_ALUT: u64 = 3_800;
    pub const FDIV_FF: u64 = 6_900;
    pub const FDIV_DSP: u64 = 6;
    pub const SFU_ALUT: u64 = 5_200;
    pub const SFU_FF: u64 = 8_800;
    pub const SFU_DSP: u64 = 8;
    /// Control-path cost per basic block (state machine + handshakes).
    pub const BLOCK_ALUT: u64 = 900;
    pub const BLOCK_FF: u64 = 2_600;
    /// Bytes per M20K block.
    pub const M20K_BYTES: u64 = 2_560;
    /// Replication factor for banked local arrays (dual-port + double
    /// buffering per concurrent accessor pair).
    pub const LOCAL_PORTS_PER_BANKSET: u64 = 2;
}

/// Estimated area of a single kernel.
pub fn kernel_area(p: &KernelProfile) -> ResourceVector {
    repro_util::metrics::time("hls.kernel_area", || kernel_area_inner(p))
}

fn kernel_area_inner(p: &KernelProfile) -> ResourceVector {
    use costs::*;
    let mut r = ResourceVector::new(
        KERNEL_BASE_ALUT,
        KERNEL_BASE_FF,
        KERNEL_BASE_BRAM,
        KERNEL_BASE_DSP,
    );
    for s in &p.load_sites {
        match s.hint {
            LoadHint::BurstCoalesced => {
                let bram = match s.pattern {
                    AccessPattern::ThreadAffine => LOAD_UNIT_BRAM_AFFINE,
                    AccessPattern::Computed => LOAD_UNIT_BRAM_COMPUTED,
                };
                r += ResourceVector::new(LOAD_UNIT_ALUT, LOAD_UNIT_FF, bram, 0).scaled(BURST_UNITS);
            }
            LoadHint::Pipelined => {
                r += ResourceVector::new(PIPELINED_ALUT, PIPELINED_FF, PIPELINED_BRAM, 0);
            }
        }
    }
    for s in &p.store_sites {
        let bram = match s.pattern {
            AccessPattern::ThreadAffine => STORE_UNIT_BRAM_AFFINE,
            AccessPattern::Computed => STORE_UNIT_BRAM_COMPUTED,
        };
        r += ResourceVector::new(STORE_UNIT_ALUT, STORE_UNIT_FF, bram, 0).scaled(STORE_UNITS);
    }
    r += ResourceVector::new(ATOMIC_ALUT, ATOMIC_FF, ATOMIC_BRAM, 0).scaled(p.atomic_sites as u64);
    for &(bytes, accesses) in &p.local_arrays {
        let base_banks = (bytes as u64).div_ceil(M20K_BYTES);
        let replication = (accesses as u64).div_ceil(LOCAL_PORTS_PER_BANKSET).max(1);
        r += ResourceVector::new(
            300 * replication,
            520 * replication,
            base_banks * replication,
            0,
        );
    }
    r += ResourceVector::new(INT_ALU_ALUT, INT_ALU_FF, 0, 0).scaled(p.int_alu_ops as u64);
    r += ResourceVector::new(INT_MUL_ALUT, INT_MUL_FF, 0, INT_MUL_DSP)
        .scaled(p.int_mul_sites as u64);
    r += ResourceVector::new(FADD_ALUT, FADD_FF, 0, 0).scaled(p.fadd_sites as u64);
    r += ResourceVector::new(FMUL_ALUT, FMUL_FF, 0, FMUL_DSP).scaled(p.fmul_sites as u64);
    r += ResourceVector::new(FDIV_ALUT, FDIV_FF, 0, FDIV_DSP).scaled(p.fdiv_sites as u64);
    r += ResourceVector::new(SFU_ALUT, SFU_FF, 0, SFU_DSP).scaled(p.sfu_sites as u64);
    r += ResourceVector::new(BLOCK_ALUT, BLOCK_FF, 0, 0).scaled(p.blocks as u64);
    r
}

/// Area of a whole module (benchmarks with several kernels synthesize each
/// compute unit side by side).
pub fn module_area(profiles: &[KernelProfile]) -> ResourceVector {
    profiles
        .iter()
        .map(kernel_area)
        .fold(ResourceVector::ZERO, |a, b| a + b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::profile;
    use fpga_arch::paper;

    fn area_of(src: &str) -> ResourceVector {
        let m = ocl_front::compile(src).unwrap();
        let profiles: Vec<_> = m.kernels.iter().map(profile).collect();
        module_area(&profiles)
    }

    const VECADD: &str =
        "__kernel void v(__global const float* a, __global const float* b, __global float* c) {
        int i = get_global_id(0);
        c[i] = a[i] + b[i];
    }";

    #[test]
    fn vecadd_area_matches_table3_shape() {
        // Paper Table III: Vecadd = 83,792 ALUTs / 263,632 FFs / 1,065
        // BRAMs / 1 DSP. The model must land within 15% on every class.
        let a = area_of(VECADD);
        let want = paper::TABLE3
            .iter()
            .find(|r| r.label == "Vecadd")
            .unwrap()
            .area;
        let close = |got, want| paper::rel_err(got, want) < paper::TABLE3_VECADD_TOL;
        assert!(close(a.aluts, want.aluts), "ALUTs {}", a.aluts);
        assert!(close(a.ffs, want.ffs), "FFs {}", a.ffs);
        assert!(close(a.brams, want.brams), "BRAMs {}", a.brams);
        assert_eq!(a.dsps, want.dsps);
    }

    #[test]
    fn pipelined_load_reduces_bram_by_an_order_of_magnitude() {
        let burst = area_of(VECADD);
        let piped = area_of(
            "__kernel void v(__global const float* a, __global const float* b, __global float* c) {
                int i = get_global_id(0);
                c[i] = __pipelined_load(a + i) + __pipelined_load(b + i);
            }",
        );
        assert!(
            piped.brams * 3 < burst.brams,
            "pipelined {} vs burst {}",
            piped.brams,
            burst.brams
        );
        assert!(piped.aluts < burst.aluts);
    }

    #[test]
    fn computed_pattern_costs_more_bram_than_affine() {
        let affine = area_of(
            "__kernel void k(__global const float* a, __global float* o) {
                int i = get_global_id(0);
                o[i] = a[i];
            }",
        );
        let computed = area_of(
            "__kernel void k(__global const float* a, __global float* o) {
                int i = get_global_id(0);
                o[i] = a[i * i % 1024];
            }",
        );
        assert!(computed.brams > affine.brams + 500);
    }

    #[test]
    fn more_sites_more_area() {
        let one = area_of(
            "__kernel void k(__global float* a) { int i = get_global_id(0); a[i] += 1.0f; }",
        );
        let many = area_of(
            "__kernel void k(__global float* a, __global float* b, __global float* c,
                             __global float* d) {
                int i = get_global_id(0);
                a[i] = b[i] + c[i] + d[i] + a[i];
            }",
        );
        assert!(many.aluts > one.aluts);
        assert!(many.brams > one.brams);
    }
}
