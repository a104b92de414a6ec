//! Binds the scheduler's pure-data [`JobRequest`] to the suite's actual
//! execution paths — the one place a request becomes runnable code.
//!
//! `repro-sched` sits *below* this crate (it knows nothing about
//! benchmarks, flows, or simulators), so a [`Job`] carries its execution
//! as a closure; [`instantiate`] is where that closure is bound. Every
//! entry point that used to own a private run loop — `repro run`, `check`,
//! `perf-report`, and the long-running `repro serve` — builds
//! requests, instantiates them here, and submits the batch to one
//! [`repro_sched::Executor`].
//!
//! Determinism contract: [`run_request`] is a pure function of the request
//! (the simulator is deterministic, compile results are content-addressed),
//! so a batch pushed through the work-stealing executor is bit-identical
//! to running [`run_oneshot`] over the same requests in a plain loop.

use fpga_arch::{Device, VortexConfig};
use ocl_ir::interp::{self, KernelArg, Limits, Memory, NdRange};
use repro_diag::{run_isolated, ReproError};
use repro_sched::{
    ArgSpec, Flow, Job, JobCtx, JobRequest, JobStats, Payload, DEFAULT_MAX_CYCLES,
    DEFAULT_MAX_INSTRUCTIONS,
};
use vortex_rt::{Arg, VxSession};
use vortex_sim::{SimConfig, MAX_CORES, MAX_THREADS, MAX_WARPS};

use crate::runner::DEFAULT_OPT;
use crate::spec::Scale;

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
/// ([`run_oneshot`]) calls it directly. Under an armed `repro-obs` the
/// whole execution records as one `flow.*` span, with the cache-lookup and
/// compile-stage spans nesting beneath it.
pub fn run_request(req: &JobRequest, ctx: &JobCtx) -> Result<JobStats, ReproError> {
    let span_name = match req.flow {
        Flow::Interp => "flow.interp",
        Flow::Vortex => "flow.vortex",
        Flow::Hls => "flow.hls",
    };
    repro_obs::span(span_name, || run_request_inner(req, ctx))
}

/// A request's machine geometry comes straight off the wire; reject, typed
/// and before anything is sized from it, a shape the simulator does not
/// model. Only the vortex flow builds a machine — the other two ignore the
/// three fields.
fn check_geometry(req: &JobRequest) -> Result<(), ReproError> {
    for (field, value, max) in [
        ("cores", req.cores, MAX_CORES),
        ("warps", req.warps, MAX_WARPS),
        ("threads", req.threads, MAX_THREADS),
    ] {
        if !(1..=max).contains(&value) {
            return Err(ReproError::harness(format!(
                "`{field}` is {value}, outside the simulated machine's 1..={max}"
            )));
        }
    }
    Ok(())
}

fn run_request_inner(req: &JobRequest, _ctx: &JobCtx) -> Result<JobStats, ReproError> {
    if req.flow == Flow::Vortex {
        check_geometry(req)?;
    }
    match &req.payload {
        Payload::Bench { name, paper_scale } => {
            let b = crate::benchmark(name)
                .ok_or_else(|| ReproError::harness(format!("unknown benchmark `{name}`")))?;
            let scale = if *paper_scale {
                Scale::Paper
            } else {
                Scale::Test
            };
            let level = req.opt.unwrap_or(DEFAULT_OPT);
            match req.flow {
                Flow::Interp => {
                    let o = crate::run_on_interp(&b, scale, level)?;
                    Ok(JobStats {
                        cycles: o.cycles,
                        instructions: o.instructions,
                    })
                }
                Flow::Vortex => {
                    let cfg = sim_config(req);
                    let o = crate::run_vortex_at(&b, scale, &cfg, level)?;
                    Ok(JobStats {
                        cycles: o.cycles,
                        instructions: o.instructions,
                    })
                }
                Flow::Hls => match crate::run_hls_at(&b, scale, &Device::mx2100(), level)? {
                    Ok(o) => Ok(JobStats {
                        cycles: o.cycles,
                        instructions: o.instructions,
                    }),
                    Err(f) => Err(f.into()),
                },
            }
        }
        Payload::Source {
            source,
            kernel,
            nd,
            buffers,
            args,
        } => {
            let nd = NdRange {
                global: [nd.gx, nd.gy, 1],
                local: [nd.lx, nd.ly, 1],
            };
            match req.flow {
                Flow::Vortex => run_source_vortex(req, source, kernel, &nd, buffers, args),
                Flow::Interp => run_source_interp(req, source, kernel, &nd, buffers, args),
                Flow::Hls => Err(ReproError::harness(
                    "inline-source jobs are not supported on the hls flow \
                     (synthesis gating needs a named suite benchmark)",
                )),
            }
        }
    }
}

/// Byte size of an inline job's buffer of `words` words. The count comes
/// straight off the wire, so a size past `u32` saturates — no allocator
/// has that much, and it answers a typed `OutOfMemory` instead of wrapping
/// to a small allocation.
fn buffer_bytes(words: u32) -> u32 {
    words.saturating_mul(4)
}

/// Inline source on the Vortex flow: codegen (through the global compile
/// cache), zero-initialized device buffers, one launch, no verification
/// beyond the run itself. `opt: None` compiles the source as written.
fn run_source_vortex(
    req: &JobRequest,
    source: &str,
    kernel: &str,
    nd: &NdRange,
    buffers: &[u32],
    args: &[ArgSpec],
) -> Result<JobStats, ReproError> {
    let cfg = sim_config(req);
    let kernels = repro_cache::global().codegen_vortex(source, req.opt, cfg.hw.threads)?;
    let compiled = kernels
        .into_iter()
        .find(|k| k.name == kernel)
        .ok_or_else(|| ReproError::harness(format!("kernel `{kernel}` not found in source")))?;
    let mut sess = VxSession::new(cfg, compiled);
    let bufs: Vec<vortex_rt::Buffer> = buffers
        .iter()
        .map(|&words| sess.alloc(buffer_bytes(words)))
        .collect::<Result<_, _>>()
        .map_err(ReproError::from)?;
    let args = args
        .iter()
        .map(|a| {
            Ok(match a {
                ArgSpec::Buf(i) => Arg::Buf(*bufs.get(*i).ok_or_else(|| {
                    ReproError::harness(format!("arg references buffer {i} of {}", bufs.len()))
                })?),
                ArgSpec::I32(v) => Arg::I32(*v),
                ArgSpec::U32(v) => Arg::U32(*v),
                ArgSpec::F32(v) => Arg::F32(*v),
            })
        })
        .collect::<Result<Vec<_>, ReproError>>()?;
    let r = sess.launch(&args, nd)?;
    Ok(JobStats {
        cycles: r.stats.cycles,
        instructions: r.stats.instructions,
    })
}

/// Inline source on the reference interpreter. The per-item step limit is
/// derived from the request's instruction budget so a runaway kernel dies
/// typed here too. `opt: None` interprets the source as written.
fn run_source_interp(
    req: &JobRequest,
    source: &str,
    kernel: &str,
    nd: &NdRange,
    buffers: &[u32],
    args: &[ArgSpec],
) -> Result<JobStats, ReproError> {
    let level = req.opt.unwrap_or(ocl_ir::passes::OptLevel::None);
    let module = repro_cache::global().optimize(source, level)?;
    let f = module
        .kernel(kernel)
        .ok_or_else(|| ReproError::harness(format!("kernel `{kernel}` not found in source")))?;
    let mut mem = Memory::new(32 << 20);
    // Fresh interpreter memory is zeroed: reserving is initializing.
    let addrs: Vec<u32> = buffers
        .iter()
        .map(|&words| mem.try_alloc(buffer_bytes(words)))
        .collect::<Result<_, _>>()?;
    let args = args
        .iter()
        .map(|a| {
            Ok(match a {
                ArgSpec::Buf(i) => KernelArg::Ptr(*addrs.get(*i).ok_or_else(|| {
                    ReproError::harness(format!("arg references buffer {i} of {}", addrs.len()))
                })?),
                ArgSpec::I32(v) => KernelArg::I32(*v),
                ArgSpec::U32(v) => KernelArg::U32(*v),
                ArgSpec::F32(v) => KernelArg::F32(*v),
            })
        })
        .collect::<Result<Vec<_>, ReproError>>()?;
    let limits = Limits {
        max_steps_per_item: req.max_instructions.unwrap_or(DEFAULT_MAX_INSTRUCTIONS),
    };
    let r = interp::run_ndrange(f, &args, nd, &mut mem, &limits)?;
    Ok(JobStats {
        cycles: 0,
        instructions: r.steps,
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
        let cfg = sim_config(&req);
        let direct = crate::run_vortex_at(
            &crate::benchmark("Vecadd").unwrap(),
            Scale::Test,
            &cfg,
            DEFAULT_OPT,
        )
        .expect("direct run");
        assert_eq!(stats.cycles, direct.cycles);
        assert_eq!(stats.instructions, direct.instructions);
        assert!(stats.cycles > 0);
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
            assert_eq!(err.class(), repro_diag::FailureClass::Memory);
        }
    }
}
