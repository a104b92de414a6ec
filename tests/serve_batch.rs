//! Scheduler determinism and fail-soft classification at service scale.
//!
//! The `repro serve` contract is that putting work through the
//! executor's worker pool changes *when* things run, never *what* they
//! compute: a 4-worker batch over the whole suite must be bit-identical —
//! cycles, instructions, success/failure — to running the same requests
//! one at a time in a plain loop. And adversarial kernels submitted as
//! inline-source jobs must come back as classified response lines (the
//! fail-soft taxonomy of `tests/fail_soft.rs`), never as a wedged or dead
//! service.

use fpga_gpu_repro::ir::passes::OptLevel;
use fpga_gpu_repro::repro::serve::{serve_bench_requests, serve_lines, ServeOptions};
use fpga_gpu_repro::sched::{ArgSpec, ExecConfig, Executor, Flow, JobRequest, NdSpec, Payload};
use fpga_gpu_repro::suite::{instantiate, run_oneshot, FailureClass};
use fpga_gpu_repro::util::{Json, ToJson};

/// The whole suite — 28 benchmarks × 2 opt levels on the Vortex flow —
/// through a 4-worker pool, versus the sequential one-shot reference.
/// Everything observable must match exactly.
#[test]
fn four_worker_batch_is_bit_identical_to_sequential_oneshot() {
    let reqs = serve_bench_requests();
    assert_eq!(reqs.len(), 56, "28 benchmarks x 2 opt levels");
    let sequential: Vec<_> = reqs.iter().map(run_oneshot).collect();
    let exec = Executor::new(ExecConfig::with_workers(4));
    let outcomes = exec.run(reqs.iter().cloned().map(instantiate).collect());
    assert_eq!(outcomes.len(), sequential.len());
    for ((oc, seq), req) in outcomes.iter().zip(&sequential).zip(&reqs) {
        assert_eq!(oc.id, req.id, "outcomes come back in submission order");
        match (&oc.result, seq) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got, want, "{}: scheduled stats diverged", oc.label)
            }
            (Err(got), Err(want)) => {
                assert_eq!(
                    got.kind(),
                    want.kind(),
                    "{}: scheduled failure kind diverged",
                    oc.label
                )
            }
            (got, want) => panic!(
                "{}: scheduled {:?} vs sequential {:?}",
                oc.label,
                got.is_ok(),
                want.is_ok()
            ),
        }
    }
    // The suite is healthy on the Vortex flow at both levels.
    assert!(
        outcomes.iter().all(|oc| oc.is_ok()),
        "every Vortex job succeeds"
    );
    assert_eq!(exec.stats().jobs(), 56);
}

/// An adversarial inline-source request with the `tests/fail_soft.rs`
/// budgets: one core, 4×4 warps/threads, watchdogs tight enough to bound a
/// runaway kernel to well under a second. `lx` mirrors that suite's launch
/// geometry (the divergent barrier needs the full 16-item group so the
/// divergence is warp-uniform).
fn adversarial(id: u64, source: &str, lx: u32) -> JobRequest {
    JobRequest {
        id,
        payload: Payload::Source {
            source: source.to_string(),
            kernel: "bad".to_string(),
            nd: NdSpec {
                gx: 16,
                gy: 1,
                lx,
                ly: 1,
            },
            buffers: vec![64],
            args: vec![ArgSpec::Buf(0)],
        },
        flow: Flow::Vortex,
        opt: Some(OptLevel::None),
        cores: 1,
        warps: 4,
        threads: 4,
        sim_threads: 1,
        max_cycles: Some(5_000_000),
        max_instructions: Some(200_000),
        deadline_ms: None,
        reference: false,
    }
}

const DIVERGENT_BARRIER: &str = "__kernel void bad(__global int* o) {
    int lid = get_local_id(0);
    if (lid < 4) { barrier(CLK_LOCAL_MEM_FENCE); }
    o[get_global_id(0)] = lid;
}";

const INFINITE_LOOP: &str = "__kernel void bad(__global int* o) {
    int acc = 0;
    for (int j = 0; j < 10; j = j) { acc = acc + 1; }
    o[get_global_id(0)] = acc;
}";

const OOB_STORE: &str = "__kernel void bad(__global int* o) {
    int i = get_global_id(0);
    o[i + 268435456] = 1;
}";

/// Adversarial kernels through the executor: each dies typed with the same
/// classification the fail-soft suite pins, and none of them costs the
/// healthy job riding in the same batch its result.
#[test]
fn adversarial_batch_classifies_and_stays_fail_soft() {
    let mut reqs = vec![
        adversarial(1, DIVERGENT_BARRIER, 16),
        adversarial(2, INFINITE_LOOP, 4),
        adversarial(3, OOB_STORE, 4),
    ];
    let mut healthy = JobRequest::bench("Vecadd", Flow::Vortex);
    healthy.id = 4;
    reqs.push(healthy);
    let exec = Executor::new(ExecConfig::with_workers(2));
    let outcomes = exec.run(reqs.into_iter().map(instantiate).collect());
    let class_of = |i: usize| outcomes[i].class().expect("adversarial job fails");
    assert_eq!(class_of(0), FailureClass::Deadlock, "divergent barrier");
    assert_eq!(class_of(1), FailureClass::Hang, "infinite loop");
    assert_eq!(class_of(2), FailureClass::Memory, "OOB store");
    assert!(outcomes[3].is_ok(), "healthy neighbour unharmed");
    // Same requests sequentially: identical classification (the executor
    // adds isolation, not semantics).
    for (req, want) in [
        (
            adversarial(1, DIVERGENT_BARRIER, 16),
            FailureClass::Deadlock,
        ),
        (adversarial(2, INFINITE_LOOP, 4), FailureClass::Hang),
        (adversarial(3, OOB_STORE, 4), FailureClass::Memory),
    ] {
        assert_eq!(run_oneshot(&req).unwrap_err().class(), want);
    }
}

/// The same adversarial kernels over the NDJSON wire: request lines in,
/// one classified response line per job out, service alive throughout.
#[test]
fn adversarial_kernels_over_the_serve_protocol() {
    let mut input = String::new();
    for req in [
        adversarial(1, DIVERGENT_BARRIER, 16),
        adversarial(2, INFINITE_LOOP, 4),
        adversarial(3, OOB_STORE, 4),
    ] {
        input.push_str(&req.to_json().to_compact());
        input.push('\n');
    }
    input.push('\n');
    let exec = Executor::new(ExecConfig::with_workers(2));
    let mut out = Vec::new();
    let summary = serve_lines(&exec, &ServeOptions::default(), input.as_bytes(), &mut out)
        .expect("serve loop survives adversarial jobs");
    assert_eq!((summary.jobs, summary.ok, summary.failed), (3, 0, 3));
    let lines: Vec<Json> = std::str::from_utf8(&out)
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .collect();
    assert_eq!(lines.len(), 4, "three responses plus the batch summary");
    for (line, want_class) in lines.iter().zip(["Deadlock", "Hang", "Memory"]) {
        assert_eq!(line.get("ok").and_then(|v| v.as_bool()), Some(false));
        let err = line.get("error").expect("failure line carries the error");
        assert_eq!(
            err.get("class").and_then(|v| v.as_str()),
            Some(want_class),
            "line: {}",
            line.to_compact()
        );
    }
    assert_eq!(lines[3].get("failed").and_then(|v| v.as_u64()), Some(3));
}

/// An inline kernel whose binary the ISA cannot express — a divergent
/// branch whose else-offset passes the 12-bit field — comes back as a
/// typed `Codegen` failure that the retry loop leaves alone, and the job
/// beside it in the same batch still runs.
#[test]
fn unencodable_kernel_is_a_typed_codegen_failure() {
    let body = "x = x * 3 + o[x & 7];\n".repeat(700);
    let source = format!(
        "__kernel void bad(__global int* o) {{
            int i = get_global_id(0);
            int x = o[i];
            if (x > 0) {{ {body} }}
            o[i] = x;
        }}"
    );
    let mut input = adversarial(1, &source, 4).to_json().to_compact();
    input.push('\n');
    input.push_str(r#"{"id":2,"bench":"Vecadd"}"#);
    input.push_str("\n\n");
    let opts = ServeOptions {
        retry_max: 2,
        ..ServeOptions::default()
    };
    let exec = Executor::new(ExecConfig::with_workers(2));
    let mut out = Vec::new();
    let summary =
        serve_lines(&exec, &opts, input.as_bytes(), &mut out).expect("serve loop survives");
    assert_eq!((summary.jobs, summary.ok, summary.failed), (2, 1, 1));
    assert_eq!(summary.retried, 0, "a codegen failure is not transient");
    let lines: Vec<Json> = std::str::from_utf8(&out)
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .collect();
    let err = lines[0]
        .get("error")
        .expect("failure line carries the error");
    assert_eq!(err.get("kind").and_then(|v| v.as_str()), Some("Codegen"));
    assert_eq!(err.get("class").and_then(|v| v.as_str()), Some("Compile"));
    let message = err.get("message").and_then(|v| v.as_str()).unwrap();
    assert!(message.contains("cannot encode"), "{message}");
    assert_eq!(lines[1].get("ok").and_then(|v| v.as_bool()), Some(true));
}

/// A kernel whose `__local` arrays take more than 64 MiB together — here
/// `arrays` arrays of 2²⁴ floats, each at the per-array cap — is a typed,
/// non-transient front-end failure on every flow, before any layout sums
/// the sizes in 32 bits, and the job beside it in the same batch runs.
#[test]
fn oversized_local_footprint_is_a_typed_compile_failure() {
    let source = |arrays: usize| {
        let decls: String = (0..arrays)
            .map(|i| format!("__local float t{i}[16777216];\n"))
            .collect();
        let fills: String = (0..arrays).map(|i| format!("t{i}[l] = 1.0f;\n")).collect();
        format!(
            "__kernel void bad(__global float* o) {{
                {decls}
                int l = get_local_id(0);
                {fills}
                barrier(CLK_LOCAL_MEM_FENCE);
                o[get_global_id(0)] = t0[l];
            }}"
        )
    };
    let mut input = String::new();
    let mut id = 0;
    for arrays in [64, 16] {
        for flow in [Flow::Interp, Flow::Vortex] {
            id += 1;
            let mut req = adversarial(id, &source(arrays), 4);
            req.flow = flow;
            input.push_str(&req.to_json().to_compact());
            input.push('\n');
        }
    }
    input.push_str(r#"{"id":5,"bench":"Vecadd","flow":"interp"}"#);
    input.push_str("\n\n");
    let opts = ServeOptions {
        retry_max: 2,
        ..ServeOptions::default()
    };
    let exec = Executor::new(ExecConfig::with_workers(2));
    let mut out = Vec::new();
    let summary =
        serve_lines(&exec, &opts, input.as_bytes(), &mut out).expect("serve loop survives");
    assert_eq!((summary.jobs, summary.ok, summary.failed), (5, 1, 4));
    assert_eq!(summary.retried, 0, "a front-end failure is not transient");
    let lines: Vec<Json> = std::str::from_utf8(&out)
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .collect();
    for line in &lines[..4] {
        let err = line.get("error").expect("failure line carries the error");
        let field = |k: &str| err.get(k).and_then(|v| v.as_str());
        assert_eq!(field("kind"), Some("Frontend"), "{}", line.to_compact());
        assert_eq!(field("class"), Some("Compile"), "{}", line.to_compact());
        let message = field("message").unwrap();
        assert!(message.contains("67108864-byte limit"), "{message}");
    }
    assert_eq!(lines[4].get("ok").and_then(|v| v.as_bool()), Some(true));
}

/// A request's machine geometry is outside input: shapes the simulator
/// does not model come back as typed, non-transient `Harness` rejects —
/// not as an allocation abort that takes the service down, a caught panic
/// `--retry` would re-run, or a `WrongResult` from a machine with no cores
/// — and the valid job behind them in the same session still runs.
#[test]
fn out_of_range_geometry_is_rejected_typed_and_the_service_lives() {
    let input = r#"{"id":1,"bench":"Vecadd","cores":100000}
{"id":2,"bench":"Vecadd","warps":100}
{"id":3,"bench":"Vecadd","threads":128}
{"id":4,"bench":"Vecadd","threads":0}
{"id":5,"bench":"Vecadd","cores":0}
{"id":6,"bench":"Vecadd"}

"#;
    let exec = Executor::new(ExecConfig::with_workers(2));
    let mut out = Vec::new();
    let summary = serve_lines(&exec, &ServeOptions::default(), input.as_bytes(), &mut out)
        .expect("serve loop survives malformed geometry");
    assert_eq!((summary.jobs, summary.ok, summary.failed), (6, 1, 5));
    let lines: Vec<Json> = std::str::from_utf8(&out)
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .collect();
    assert_eq!(lines.len(), 7, "six responses plus the batch summary");
    let threads = ("threads", vortex_cc::MAX_THREADS);
    for (line, (field, max)) in lines.iter().zip([
        ("cores", vortex_sim::MAX_CORES),
        ("warps", vortex_sim::MAX_WARPS),
        threads,
        threads,
        ("cores", vortex_sim::MAX_CORES),
    ]) {
        let err = line.get("error").expect("reject line carries the error");
        assert_eq!(
            err.get("kind").and_then(|v| v.as_str()),
            Some("Harness"),
            "line: {}",
            line.to_compact()
        );
        let message = err.get("message").and_then(|v| v.as_str()).unwrap();
        assert!(
            message.contains(field) && message.contains(&format!("1..={max}")),
            "message names neither `{field}` nor its bound: {message}"
        );
    }
    assert_eq!(lines[5].get("ok").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(lines[6].get("failed").and_then(|v| v.as_u64()), Some(5));
}

/// A wire integer too wide for its field — 2^32 + 1 cores, which used to
/// wrap to 1 and run, or a fractional `i32` argument, which used to
/// truncate — is a typed `Protocol` reject naming the field, and the job
/// behind it in the same session still runs.
#[test]
fn wire_integers_that_do_not_fit_are_rejected_typed_and_the_service_lives() {
    let input = r#"{"id":1,"bench":"Vecadd","cores":4294967297}
{"id":2,"source":"__kernel void k(__global int* o, int v) { o[0] = v; }","kernel":"k","nd":{"gx":1},"buffers":[1],"args":[{"buf":0},{"i32":1.5}],"flow":"interp"}
{"id":3,"bench":"Vecadd","cores":1}

"#;
    let exec = Executor::new(ExecConfig::with_workers(2));
    let mut out = Vec::new();
    let summary = serve_lines(&exec, &ServeOptions::default(), input.as_bytes(), &mut out)
        .expect("serve loop survives malformed integers");
    assert_eq!(
        (summary.rejected, summary.jobs, summary.ok),
        (2, 1, 1),
        "{summary:?}"
    );
    let lines: Vec<Json> = std::str::from_utf8(&out)
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .collect();
    for (line, field) in lines.iter().zip(["`cores`", "`args[1].i32`"]) {
        let err = line.get("error").expect("reject line carries the error");
        assert_eq!(err.get("kind").and_then(|v| v.as_str()), Some("Protocol"));
        let detail = err.get("detail").and_then(|v| v.as_str()).unwrap();
        assert!(detail.contains(field), "{field} not named: {detail}");
    }
    assert_eq!(lines[2].get("id").and_then(|v| v.as_u64()), Some(3));
    assert_eq!(lines[2].get("ok").and_then(|v| v.as_bool()), Some(true));
}
