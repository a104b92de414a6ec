//! Binds the scheduler's pure-data [`JobRequest`] to the suite's one launch
//! path: the request's flow becomes a [`Backend`], its payload a workload,
//! and [`run`] executes the pair. `repro-sched` sits *below* this crate, so
//! a [`Job`] carries that as a closure, bound by [`instantiate`].
//!
//! A benchmark request runs the benchmark's workload at `opt` (unset =
//! [`DEFAULT_OPT`]). An inline-source request becomes a one-launch workload
//! of [`HostData::Zeroed`] buffers whose check always passes, compiled at
//! `opt` (unset = as written); the hls flow rejects it, because synthesis
//! gating needs a named suite benchmark. Budgets: the vortex flow runs under
//! [`sim_config`]'s cycle and instruction watchdogs, the interp flow takes
//! `max_instructions` as its per-work-item step limit, and the hls flow keeps
//! `hls_flow::execute_ndrange`'s fixed limit. Unset budgets fall back to
//! [`DEFAULT_MAX_CYCLES`] / [`DEFAULT_MAX_INSTRUCTIONS`].
//!
//! Determinism contract: [`run_request`] is a pure function of the request
//! (the simulator is deterministic, compile results are content-addressed),
//! so a batch pushed through the executor is bit-identical
//! to running [`run_oneshot`] over the same requests in a plain loop.

use fpga_arch::{Device, VortexConfig};
use ocl_ir::interp::{Limits, NdRange};
use repro_sched::{
    Flow, Job, JobCtx, JobRequest, JobStats, Payload, DEFAULT_MAX_CYCLES, DEFAULT_MAX_INSTRUCTIONS,
};
use repro_util::diag::{run_isolated, ReproError};
use repro_util::span::SpanScope;
use vortex_cc::MAX_THREADS;
use vortex_sim::{SimConfig, MAX_CORES, MAX_WARPS};

use crate::runner::{run, Backend, DEFAULT_OPT};
use crate::spec::{HostData, LaunchOf, Scale, WorkloadOf};

/// The simulated machine a request describes, with the watchdog budgets
/// every scheduled job runs under (unset budgets fall back to the `repro
/// check` ceilings, [`DEFAULT_MAX_CYCLES`] / [`DEFAULT_MAX_INSTRUCTIONS`]).
pub fn sim_config(req: &JobRequest) -> SimConfig {
    let mut cfg = SimConfig::new(VortexConfig::new(req.cores, req.warps, req.threads));
    cfg.max_cycles = req.max_cycles.unwrap_or(DEFAULT_MAX_CYCLES);
    cfg.max_instructions = req.max_instructions.unwrap_or(DEFAULT_MAX_INSTRUCTIONS);
    cfg.reference_mode = req.reference;
    cfg
}

/// Execute one request. This is the body of every scheduled job; the
/// executor wraps it in panic isolation, the sequential reference path
/// ([`run_oneshot`]) calls it directly. With spans armed the whole
/// execution records as one `flow.*` span, with the cache-lookup and
/// compile-stage spans nesting beneath it.
pub fn run_request(req: &JobRequest, _ctx: &JobCtx) -> Result<JobStats, ReproError> {
    let _span = SpanScope::enter(req.flow.span_name());
    bind_and_run(req)
}

/// A request's machine geometry comes straight off the wire; reject, typed
/// and before anything is sized from it, a shape the simulator does not
/// model or the code generator cannot target (warps wider than
/// [`vortex_cc::MAX_THREADS`]). Only the vortex flow builds a machine — the
/// other two ignore the three fields.
fn check_geometry(req: &JobRequest) -> Result<(), ReproError> {
    for (field, value, max) in [
        ("cores", req.cores, MAX_CORES),
        ("warps", req.warps, MAX_WARPS),
        ("threads", req.threads, MAX_THREADS),
    ] {
        if !(1..=max).contains(&value) {
            return Err(ReproError::harness(format!(
                "`{field}` is {value}, outside the supported 1..={max}"
            )));
        }
    }
    Ok(())
}

fn bind_and_run(req: &JobRequest) -> Result<JobStats, ReproError> {
    let backend = match req.flow {
        Flow::Interp => Backend::Interp {
            limits: Limits {
                max_steps_per_item: req.max_instructions.unwrap_or(DEFAULT_MAX_INSTRUCTIONS),
            },
        },
        Flow::Vortex => {
            check_geometry(req)?;
            Backend::Vortex {
                cfg: sim_config(req),
            }
        }
        Flow::Hls => Backend::Hls {
            device: Device::mx2100(),
        },
    };
    let o = match &req.payload {
        Payload::Bench { name, paper_scale } => {
            let b = crate::benchmark(name)
                .ok_or_else(|| ReproError::harness(format!("unknown benchmark `{name}`")))?;
            let scale = if *paper_scale {
                Scale::Paper
            } else {
                Scale::Test
            };
            let level = req.opt.unwrap_or(DEFAULT_OPT);
            run(&backend, b.source, &(b.workload)(scale), Some(level), None)?
        }
        Payload::Source { .. } if req.flow == Flow::Hls => {
            return Err(ReproError::harness(
                "inline-source jobs are not supported on the hls flow \
                 (synthesis gating needs a named suite benchmark)",
            ))
        }
        Payload::Source {
            source,
            kernel,
            nd,
            buffers,
            args,
        } => {
            let w = WorkloadOf {
                buffers: buffers.iter().map(|&n| HostData::Zeroed(n)).collect(),
                launches: vec![LaunchOf {
                    kernel,
                    nd: NdRange {
                        global: [nd.gx, nd.gy, 1],
                        local: [nd.lx, nd.ly, 1],
                    },
                    args: args.clone(),
                }],
                check: Box::new(|_| Ok(())),
            };
            run(&backend, source, &w, req.opt, None)?
        }
    };
    Ok(JobStats {
        cycles: o.cycles,
        instructions: o.instructions,
    })
}

/// Bind a request to its execution closure — the form the executor takes.
pub fn instantiate(req: JobRequest) -> Job {
    Job::new(req, run_request)
}

/// Run one request inline, sequentially, under the same panic isolation a
/// worker applies — the reference path the scheduler's results must be
/// bit-identical to.
pub fn run_oneshot(req: &JobRequest) -> Result<JobStats, ReproError> {
    run_isolated(|| run_request(req, &JobCtx::unbounded()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_sched::{ExecConfig, Executor};

    #[test]
    fn bench_job_matches_direct_runner_call() {
        let req = JobRequest::bench("Vecadd", Flow::Vortex);
        let stats = run_oneshot(&req).expect("vecadd runs");
        let b = crate::benchmark("Vecadd").unwrap();
        let vortex = Backend::Vortex {
            cfg: sim_config(&req),
        };
        let w = (b.workload)(Scale::Test);
        let direct = run(&vortex, b.source, &w, Some(DEFAULT_OPT), None).expect("direct run");
        assert_eq!(stats.cycles, direct.cycles);
        assert_eq!(stats.instructions, direct.instructions);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn bench_jobs_on_the_interp_flow_honour_max_instructions() {
        // At paper scale each Sgemm work-item takes ~1 100 steps.
        let mut req = JobRequest::bench("Sgemm", Flow::Interp);
        req.payload = Payload::Bench {
            name: "Sgemm".to_string(),
            paper_scale: true,
        };
        req.max_instructions = Some(1_000);
        let err = run_oneshot(&req).unwrap_err();
        assert_eq!(err.kind(), "InstructionBudget", "{err}");
    }

    #[test]
    fn unknown_benchmark_is_a_typed_harness_error() {
        let req = JobRequest::bench("NoSuchBench", Flow::Vortex);
        let err = run_oneshot(&req).unwrap_err();
        assert_eq!(err.kind(), "Harness");
    }

    #[test]
    fn out_of_range_geometry_is_a_typed_harness_error_on_the_vortex_flow_only() {
        let inline = r#"{"source": "__kernel void k(__global int* o) { o[0] = 1; }",
            "kernel": "k", "nd": {"gx": 1, "lx": 1}, "buffers": [1], "args": [{"buf": 0}]}"#;
        let inline = JobRequest::parse(&repro_util::json::Json::parse(inline).unwrap()).unwrap();
        type Field = fn(&mut JobRequest) -> &mut u32;
        let fields: [(&str, Field, u32); 3] = [
            ("cores", |r| &mut r.cores, MAX_CORES),
            ("warps", |r| &mut r.warps, MAX_WARPS),
            ("threads", |r| &mut r.threads, MAX_THREADS),
        ];
        for base in [JobRequest::bench("Vecadd", Flow::Vortex), inline] {
            for (name, field, max) in fields {
                for bad in [0, max + 1] {
                    let mut req = base.clone();
                    *field(&mut req) = bad;
                    let err = run_oneshot(&req).unwrap_err();
                    assert_eq!(err.kind(), "Harness", "{name} = {bad}: {err}");
                    assert!(!err.is_transient(), "{name} = {bad} must not be retried");
                    let msg = err.to_string();
                    assert!(
                        msg.contains(name) && msg.contains(&format!("1..={max}")),
                        "{name} = {bad}: message names neither field nor bound: {msg}"
                    );
                    // The other flows build no machine and keep succeeding.
                    req.flow = Flow::Interp;
                    run_oneshot(&req).unwrap_or_else(|e| panic!("interp, {name} = {bad}: {e}"));
                }
            }
        }
    }

    /// The prologue's `(1 << NT) - 1` lane mask wraps at 32 lanes: a
    /// 32-thread inline job must be refused, not run as a kernel that
    /// halts before doing anything.
    #[test]
    fn inline_vortex_job_wider_than_the_codegen_is_a_typed_error() {
        let wire = r#"{"source": "__kernel void k(__global int* o) { o[get_global_id(0)] = 1; }",
            "kernel": "k", "nd": {"gx": 64, "lx": 32}, "buffers": [64], "args": [{"buf": 0}],
            "cores": 1, "warps": 1, "threads": 32}"#;
        let req = JobRequest::parse(&repro_util::json::Json::parse(wire).unwrap()).unwrap();
        let err = run_oneshot(&req).unwrap_err();
        assert_eq!(err.kind(), "Harness", "{err}");
        assert!(!err.is_transient());
        assert!(err.to_string().contains("1..=31"), "{err}");
    }

    /// Every warp width the code generator accepts runs Vecadd to a
    /// verified result.
    #[test]
    fn vecadd_verifies_at_every_supported_warp_width() {
        for threads in 1..=MAX_THREADS {
            let mut req = JobRequest::bench("Vecadd", Flow::Vortex);
            (req.cores, req.warps, req.threads) = (1, 1, threads);
            run_oneshot(&req).unwrap_or_else(|e| panic!("1c1w{threads}t: {e}"));
        }
    }

    #[test]
    fn sim_threads_is_accepted_and_ignored() {
        let wire = r#"{"bench": "Vecadd", "cores": 4, "warps": 4, "threads": 8, "sim_threads": 4}"#;
        let four = JobRequest::parse(&repro_util::json::Json::parse(wire).unwrap()).unwrap();
        assert_eq!(
            four.sim_threads, 4,
            "still parsed: the wire form keys trace ids"
        );
        let mut one = four.clone();
        one.sim_threads = 1;
        assert_eq!(run_oneshot(&four).unwrap(), run_oneshot(&one).unwrap());
    }

    #[test]
    fn executor_batch_is_bit_identical_to_oneshot() {
        let reqs: Vec<JobRequest> = ["Vecadd", "Sfilter", "Saxpy"]
            .iter()
            .flat_map(|name| {
                [Flow::Vortex, Flow::Interp]
                    .into_iter()
                    .map(|flow| JobRequest::bench(name, flow))
            })
            .collect();
        let sequential: Vec<JobStats> = reqs
            .iter()
            .map(|r| run_oneshot(r).expect("oneshot ok"))
            .collect();
        let exec = Executor::new(ExecConfig::with_workers(2));
        let outcomes = exec.run(reqs.into_iter().map(instantiate).collect());
        assert_eq!(outcomes.len(), sequential.len());
        for (oc, want) in outcomes.iter().zip(&sequential) {
            assert_eq!(oc.stats().expect("scheduled ok"), *want, "{}", oc.label);
        }
    }

    #[test]
    fn inline_buffer_size_past_u32_is_out_of_memory_not_a_wrap() {
        // 1073741825 words * 4 wraps to 4 bytes in u32 arithmetic.
        let wire = r#"{"source": "__kernel void k(__global int* o) { o[0] = 1; }",
            "kernel": "k", "nd": {"gx": 1, "lx": 1}, "buffers": [1073741825],
            "args": [{"buf": 0}]}"#;
        let mut req = JobRequest::parse(&repro_util::json::Json::parse(wire).unwrap()).unwrap();
        for flow in [Flow::Vortex, Flow::Interp] {
            req.flow = flow;
            let err = run_oneshot(&req).unwrap_err();
            assert_eq!(err.kind(), "OutOfMemory", "{flow:?}: {err}");
            assert_eq!(err.class(), repro_util::diag::FailureClass::Memory);
        }
    }
}
