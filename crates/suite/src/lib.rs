//! `ocl-suite` — the 28-benchmark workload suite of the paper's Table I.
//!
//! Ports of the Rodinia and NVIDIA OpenCL SDK benchmarks to the OpenCL-C
//! subset, scaled down to simulator-friendly sizes while preserving the
//! kernel *structure* that drives the paper's results: the number and kind
//! of global-memory access sites (HLS LSU/BRAM costs), atomics
//! (hybridsort's failure), barriers and `__local` arrays (scheduling
//! constraints), and control-flow divergence (Vortex SPLIT/JOIN/PRED).
//!
//! Every benchmark carries a host-side reference implementation and builds
//! a [`Workload`]: buffers, a launch sequence and a check. [`run`] executes
//! one on a [`Backend`] (the reference interpreter, the Vortex flow or the
//! HLS flow) and verifies it; [`jobs`] turns a scheduler request, a
//! benchmark by name or inline kernel source, into the same call.
//!
//! The backprop benchmark ships the paper's three kernel variants
//! (Figure 6): original, O1 variable reuse, and O2 `__pipelined_load` — the
//! inputs to Table II.

pub mod benches;
pub mod jobs;
pub mod runner;
pub mod spec;

pub use jobs::{instantiate, run_oneshot, run_request};
/// The crash-isolation primitive behind `repro check` and the scheduler's
/// workers; it lives in `repro_util::diag` next to the failure taxonomy.
pub use repro_util::diag::{run_isolated, FailureClass, ReproError};
pub use runner::{run, Backend, RunOutcome, DEFAULT_OPT};
pub use spec::{Benchmark, HostData, LArg, Launch, Scale, Workload};

/// All 28 benchmarks, in the paper's Table I order.
pub fn all_benchmarks() -> Vec<Benchmark> {
    vec![
        benches::simple::vecadd(),
        benches::linalg::sgemm(),
        benches::sort::psort(),
        benches::simple::saxpy(),
        benches::simple::sfilter(),
        benches::simple::dotproduct(),
        benches::physics::spmv(),
        benches::physics::cutcp(),
        benches::physics::stencil(),
        benches::physics::lbm(),
        benches::simple::oclprintf(),
        benches::simple::blackscholes(),
        benches::linalg::matmul(),
        benches::linalg::transpose(),
        benches::ml::kmeans(),
        benches::ml::nearn(),
        benches::linalg::gaussian(),
        benches::graph::bfs(),
        benches::ml::backprop(),
        benches::ml::streamcluster(),
        benches::misc::pathfinder(),
        benches::linalg::nw(),
        benches::graph::btree(),
        benches::physics::lavamd(),
        benches::sort::hybridsort(),
        benches::misc::particlefilter(),
        benches::misc::dwt2d(),
        benches::linalg::lud(),
    ]
}

/// Look up a benchmark by its Table I name (case-insensitive).
pub fn benchmark(name: &str) -> Option<Benchmark> {
    all_benchmarks()
        .into_iter()
        .find(|b| b.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_28_benchmarks_in_table1_order() {
        let names: Vec<_> = all_benchmarks().iter().map(|b| b.name).collect();
        assert_eq!(names.len(), 28);
        assert_eq!(names[0], "Vecadd");
        assert_eq!(names[9], "Lbm");
        assert_eq!(names[18], "Backprop");
        assert_eq!(names[24], "Hybridsort");
        assert_eq!(names[27], "LUD");
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(benchmark("vecadd").is_some());
        assert!(benchmark("BFS").is_some());
        assert!(benchmark("nope").is_none());
    }

    #[test]
    fn all_sources_compile() {
        for b in all_benchmarks() {
            ocl_front::compile(b.source)
                .unwrap_or_else(|e| panic!("{} fails to compile: {e}", b.name));
        }
    }
}
