//! Synthesis simulation: feasibility, failure reasons, wall-clock model.

use crate::analysis::{profile, KernelProfile};
use crate::area::module_area;
use fpga_arch::{Device, MemoryKind, ResourceVector, Utilization};
use ocl_ir::Module;

/// Options for a synthesis run.
#[derive(Debug, Clone, Default)]
pub struct SynthOptions {
    /// Record the per-kernel profiles in the report (for area debugging).
    pub keep_profiles: bool,
}

/// Why synthesis failed — the "Reason to Fail" column of Table I.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthFailure {
    /// Estimated resources exceed the device; `resource` names the first
    /// overflowing class (BRAM in every Table I case).
    NotEnoughResources {
        resource: &'static str,
        required: ResourceVector,
        capacity: ResourceVector,
        /// Wall-clock hours burned before the failure (§IV-B).
        hours: f64,
    },
    /// 32-bit atomics cannot be synthesized against this board's
    /// heterogeneous memory system (the hybridsort failure, §III-A).
    AtomicsUnsupported { hours: f64 },
}

impl SynthFailure {
    /// Short label matching the paper's Table I wording.
    pub fn reason(&self) -> String {
        match self {
            SynthFailure::NotEnoughResources { resource, .. } => {
                format!("Not enough {resource}")
            }
            SynthFailure::AtomicsUnsupported { .. } => "Atomics".to_string(),
        }
    }

    /// Hours spent before the failure surfaced.
    pub fn hours(&self) -> f64 {
        match self {
            SynthFailure::NotEnoughResources { hours, .. } => *hours,
            SynthFailure::AtomicsUnsupported { hours } => *hours,
        }
    }
}

impl std::fmt::Display for SynthFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthFailure::NotEnoughResources {
                resource,
                required,
                capacity,
                hours,
            } => write!(
                f,
                "synthesis failed after {hours:.1} h: not enough {resource} \
                 (needs {required}, device has {capacity})"
            ),
            SynthFailure::AtomicsUnsupported { hours } => write!(
                f,
                "synthesis failed after {hours:.1} h: atomic functions are not \
                 supported against the board's heterogeneous memory system"
            ),
        }
    }
}

impl std::error::Error for SynthFailure {}

impl From<SynthFailure> for repro_util::diag::ReproError {
    fn from(e: SynthFailure) -> Self {
        repro_util::diag::ReproError::Synthesis {
            reason: e.reason(),
            hours: e.hours(),
        }
    }
}

/// A successful synthesis result — one FPGA bitstream per benchmark.
#[derive(Debug, Clone)]
pub struct SynthReport {
    pub area: ResourceVector,
    pub utilization: Utilization,
    /// Estimated wall-clock synthesis hours (§IV-B reports 10.4 h for the
    /// working backprop variant).
    pub hours: f64,
    /// Per-kernel profiles (when requested).
    pub profiles: Vec<KernelProfile>,
}

/// Wall-clock model: mapping + place&route time grows with design size;
/// infeasible designs die during placement, much earlier.
fn synth_hours(area: &ResourceVector, fits: bool) -> f64 {
    let aluts = area.aluts as f64;
    if fits {
        // Calibrated so the working backprop variant (451,395 ALUTs) costs
        // 10.4 hours (§IV-B).
        1.0 + aluts * (9.4 / 451_395.0)
    } else {
        // Failures surfaced after 1.2–1.5 hours in the paper.
        (0.8 + aluts * 0.7e-6).min(2.0)
    }
}

/// Synthesize a module for `device`.
pub fn synthesize(
    module: &Module,
    device: &Device,
    opts: &SynthOptions,
) -> Result<SynthReport, SynthFailure> {
    repro_util::metrics::time("hls.synthesize", || synthesize_inner(module, device, opts))
}

fn synthesize_inner(
    module: &Module,
    device: &Device,
    opts: &SynthOptions,
) -> Result<SynthReport, SynthFailure> {
    let profiles: Vec<KernelProfile> = module.kernels.iter().map(profile).collect();
    // Feature check first: the Intel SDK rejects atomics against HBM's
    // heterogeneous memory system during RTL generation (fast failure).
    if device.memory.kind == MemoryKind::Hbm2 && profiles.iter().any(|p| p.atomic_sites > 0) {
        return Err(SynthFailure::AtomicsUnsupported { hours: 0.4 });
    }
    let area = module_area(&profiles);
    if let Some(resource) = area.first_overflow(&device.capacity) {
        return Err(SynthFailure::NotEnoughResources {
            resource,
            required: area,
            capacity: device.capacity,
            hours: synth_hours(&area, false),
        });
    }
    Ok(SynthReport {
        area,
        utilization: device.utilization(&area),
        hours: synth_hours(&area, true),
        profiles: if opts.keep_profiles {
            profiles
        } else {
            Vec::new()
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_arch::paper;

    fn dev() -> Device {
        Device::mx2100()
    }

    #[test]
    fn small_kernel_synthesizes() {
        let m = ocl_front::compile(
            "__kernel void v(__global float* a) { a[get_global_id(0)] *= 2.0f; }",
        )
        .unwrap();
        let r = synthesize(&m, &dev(), &SynthOptions::default()).unwrap();
        assert!(r.area.fits_in(&dev().capacity));
        assert!(
            r.hours > paper::SYNTH_HOURS_SUCCESS_MIN && r.hours < 12.0,
            "hours {}",
            r.hours
        );
        assert!(r.utilization.brams_pct < 100.0);
    }

    #[test]
    fn bram_hungry_kernel_fails_with_bram_reason() {
        // Many computed-index access sites: each load site costs
        // 32 × 33 = 1,056 BRAMs, so 8 sites blow the 6,847 budget.
        let m = ocl_front::compile(
            "__kernel void big(__global float* a, __global float* b, __global float* c) {
                int i = get_global_id(0);
                int j = i * i % 512;
                a[j] = a[j + 1] + a[j + 2] + b[j] + b[j + 3] + c[j] + c[j + 5]
                     + a[j * 3 % 256] + b[j * 5 % 128];
            }",
        )
        .unwrap();
        let e = synthesize(&m, &dev(), &SynthOptions::default()).unwrap_err();
        assert_eq!(e.reason(), paper::NOT_ENOUGH_BRAM);
        assert!(
            e.hours() < paper::SYNTH_HOURS_FAILURE_MAX,
            "failures are fast: {}",
            e.hours()
        );
    }

    #[test]
    fn atomics_fail_on_hbm_board_only() {
        let m = ocl_front::compile(
            "__kernel void h(__global int* bins, __global const int* d) {
                atomic_add(&bins[d[get_global_id(0)] % 16], 1);
            }",
        )
        .unwrap();
        let e = synthesize(&m, &Device::mx2100(), &SynthOptions::default()).unwrap_err();
        assert_eq!(e.reason(), paper::ATOMICS);
        // The same kernel synthesizes on the DDR4 board.
        synthesize(&m, &Device::sx2800(), &SynthOptions::default()).unwrap();
    }

    #[test]
    fn multi_kernel_modules_sum_area() {
        let one = ocl_front::compile(
            "__kernel void a(__global float* x) { x[get_global_id(0)] += 1.0f; }",
        )
        .unwrap();
        let two = ocl_front::compile(
            "__kernel void a(__global float* x) { x[get_global_id(0)] += 1.0f; }
             __kernel void b(__global float* x) { x[get_global_id(0)] *= 2.0f; }",
        )
        .unwrap();
        let r1 = synthesize(&one, &dev(), &SynthOptions::default()).unwrap();
        let r2 = synthesize(&two, &dev(), &SynthOptions::default()).unwrap();
        assert!(r2.area.aluts > r1.area.aluts);
        assert!(r2.hours > r1.hours);
    }

    #[test]
    fn profiles_kept_on_request() {
        let m = ocl_front::compile(
            "__kernel void v(__global float* a) { a[get_global_id(0)] *= 2.0f; }",
        )
        .unwrap();
        let r = synthesize(
            &m,
            &dev(),
            &SynthOptions {
                keep_profiles: true,
            },
        )
        .unwrap();
        assert_eq!(r.profiles.len(), 1);
        assert_eq!(r.profiles[0].name, "v");
    }
}
