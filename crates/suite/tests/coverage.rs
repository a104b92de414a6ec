//! Suite-wide coverage tests — the executable form of the paper's Table I:
//! every benchmark must pass the reference interpreter and the Vortex flow;
//! on the HLS flow exactly the six benchmarks the paper lists must fail,
//! with the paper's failure reasons.

use fpga_arch::{paper, Device, VortexConfig};
use ocl_ir::interp::Limits;
use ocl_suite::{
    all_benchmarks, benchmark, run, Backend, Benchmark, ReproError, RunOutcome, Scale, DEFAULT_OPT,
};
use vortex_sim::SimConfig;

/// `b` at test scale on `backend`, at the suite default level.
fn run_test(b: &Benchmark, backend: &Backend) -> Result<RunOutcome, ReproError> {
    run(
        backend,
        b.source,
        &(b.workload)(Scale::Test),
        Some(DEFAULT_OPT),
        None,
    )
}

fn interp() -> Backend {
    Backend::Interp {
        limits: Limits::default(),
    }
}

fn vortex(hw: VortexConfig) -> Backend {
    Backend::Vortex {
        cfg: SimConfig::new(hw),
    }
}

#[test]
fn reference_interpreter_passes_all_28() {
    for b in all_benchmarks() {
        run_test(&b, &interp()).unwrap_or_else(|e| panic!("{}: {e}", b.name));
    }
}

/// Table I, Vortex column: every benchmark runs (coverage config 2c4w16t —
/// one of the synthesizable Table IV configurations).
#[test]
fn vortex_passes_all_28() {
    let vx = vortex(VortexConfig::new(2, 4, 16));
    for b in all_benchmarks() {
        run_test(&b, &vx).unwrap_or_else(|e| panic!("{}: {e}", b.name));
    }
}

/// Table I, Intel SDK column: six failures with the paper's reasons.
#[test]
fn hls_coverage_matches_table1() {
    let hls = Backend::Hls {
        device: Device::mx2100(),
    };
    for b in all_benchmarks() {
        let outcome = match run_test(&b, &hls) {
            Err(ReproError::Synthesis { reason, .. }) => Err(reason),
            other => Ok(other.unwrap_or_else(|e| panic!("{} harness error: {e}", b.name))),
        };
        let expected = paper::TABLE1_HLS_FAILURES
            .iter()
            .find(|(n, _)| *n == b.name);
        match (outcome, expected) {
            (Ok(_), None) => {}
            (Err(f), Some((_, reason))) => {
                assert_eq!(&f, reason, "{}: wrong failure reason ({f})", b.name);
            }
            (Ok(_), Some((_, reason))) => {
                panic!(
                    "{} should fail HLS synthesis with `{reason}` but passed",
                    b.name
                )
            }
            (Err(f), None) => panic!("{} unexpectedly failed HLS synthesis: {f}", b.name),
        }
    }
}

#[test]
fn oclprintf_emits_device_output_on_both_flows() {
    let b = benchmark("OCLPrintf").unwrap();
    let r = run_test(&b, &interp()).unwrap();
    assert_eq!(r.printf_output.len(), 1);
    assert!(
        r.printf_output[0].contains("first=1"),
        "{:?}",
        r.printf_output
    );
    let v = run_test(&b, &vortex(VortexConfig::new(1, 2, 8))).unwrap();
    assert_eq!(v.printf_output, r.printf_output);
}

#[test]
fn vortex_runs_on_multiple_configs() {
    // A couple of representative benchmarks across hardware shapes, making
    // sure results are config-independent (only cycles change).
    for hw in [
        VortexConfig::new(1, 2, 4),
        VortexConfig::new(2, 8, 8),
        VortexConfig::new(4, 4, 4),
    ] {
        let vx = vortex(hw);
        for name in ["Vecadd", "Transpose", "BFS"] {
            let b = benchmark(name).unwrap();
            run_test(&b, &vx).unwrap_or_else(|e| panic!("{name} on {hw}: {e}"));
        }
    }
}
