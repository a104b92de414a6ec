//! Span-tree determinism: the *shape* of a job's span tree (names,
//! nesting, child order) is a pure function of what the job executed, and
//! its trace id is a pure function of the request — neither may depend on
//! pool width, which worker ran the job, or wall-clock luck.
//!
//! Lives in its own integration binary on purpose: arming spans and
//! the metrics registry is process-global, and span recording piggybacks on
//! every `metrics::time` call site — sharing a process with tests that
//! assert empty registries or byte-identical serve output would race.
//!
//! The batch is run once sequentially first to warm the global compile
//! cache, so both pool widths execute fully cache-hit and their trees
//! can't differ by who compiled first.

use fpga_gpu_repro::obs;
use fpga_gpu_repro::sched::{ArgSpec, ExecConfig, Executor, Flow, JobRequest, NdSpec, Payload};
use fpga_gpu_repro::suite::{instantiate, run_oneshot};
use repro_util::{metrics, ToJson};
use std::sync::{Mutex, MutexGuard};

/// Every test here sets the process-wide registry and arming state.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn batch() -> Vec<JobRequest> {
    ["Vecadd", "Saxpy", "Sfilter"]
        .iter()
        .flat_map(|name| {
            [Flow::Vortex, Flow::Interp]
                .into_iter()
                .map(|flow| JobRequest::bench(name, flow))
        })
        .collect()
}

fn run_at(workers: usize) -> Vec<(u64, String, usize)> {
    let exec = Executor::new(ExecConfig::with_workers(workers));
    let outcomes = exec.run(batch().into_iter().map(instantiate).collect());
    outcomes
        .iter()
        .map(|oc| {
            let spans = oc
                .spans
                .as_ref()
                .unwrap_or_else(|| panic!("armed run must attach spans to {}", oc.label));
            (oc.trace_id, spans.signature(), spans.count())
        })
        .collect()
}

#[test]
fn span_trees_are_identical_across_pool_widths_and_reruns() {
    let _g = serial();
    metrics::enable();
    obs::arm();
    // Warm the compile cache so every scheduled run below is a cache hit.
    for req in batch() {
        run_oneshot(&req).expect("warm-up run succeeds");
    }
    let narrow = run_at(1);
    let wide = run_at(4);
    let again = run_at(4);
    assert_eq!(narrow.len(), 6);
    // Same structure and node counts at any width; durations are the only
    // nondeterministic part of a tree and are excluded by signature().
    assert_eq!(narrow, wide, "pool width must not change span structure");
    assert_eq!(wide, again, "reruns must not change span structure");
    for (trace_id, sig, count) in &narrow {
        assert!(sig.starts_with("job("), "root is the synthetic job: {sig}");
        assert!(sig.contains("queue_wait"), "{sig}");
        assert!(sig.contains("flow."), "{sig}");
        assert!(*count >= 3, "job + queue_wait + flow at minimum: {sig}");
        assert_ne!(*trace_id, 0);
    }
    // Trace ids are a pure function of (request, slot): recomputing from
    // the wire form reproduces them.
    for (i, (req, (trace_id, _, _))) in batch().iter().zip(&narrow).enumerate() {
        assert_eq!(
            *trace_id,
            obs::trace_id(&req.to_json().to_compact(), i),
            "trace id must be derivable from the request alone"
        );
    }
    // Distinct slots get distinct ids even for identical payloads.
    let mut ids: Vec<u64> = narrow.iter().map(|(t, _, _)| *t).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 6);
}

#[test]
fn vortex_and_interp_flows_record_their_own_stage_spans() {
    let _g = serial();
    metrics::enable();
    obs::arm();
    for req in batch() {
        run_oneshot(&req).expect("warm-up run succeeds");
    }
    let exec = Executor::new(ExecConfig::with_workers(2));
    let outcomes = exec.run(batch().into_iter().map(instantiate).collect());
    let sig_of = |flow: Flow| {
        outcomes
            .iter()
            .zip(batch())
            .find(|(_, req)| req.flow == flow)
            .map(|(oc, _)| oc.spans.as_ref().unwrap().signature())
            .unwrap()
    };
    let vortex = sig_of(Flow::Vortex);
    assert!(vortex.contains("flow.vortex("), "{vortex}");
    assert!(vortex.contains("suite.vortex.launch"), "{vortex}");
    let interp = sig_of(Flow::Interp);
    assert!(interp.contains("flow.interp("), "{interp}");
    assert!(interp.contains("suite.interp.launch"), "{interp}");
}

/// A one-kernel inline vortex job whose source no other run compiles, so
/// every cache stage misses and the compile stages run.
fn cold_vortex_job(seed: usize) -> JobRequest {
    let mut r = JobRequest::bench("unused", Flow::Vortex);
    r.payload = Payload::Source {
        source: format!(
            "__kernel void k(__global int* d) {{\n    int i = get_global_id(0);\n    \
             d[i] = (d[i] + {}) ^ 0x5a17;\n}}\n",
            0x0b5e_0000 + seed
        ),
        kernel: "k".to_string(),
        nd: NdSpec {
            gx: 8,
            gy: 1,
            lx: 4,
            ly: 1,
        },
        buffers: vec![8],
        args: vec![ArgSpec::Buf(0)],
    };
    r
}

/// What arming means: a job gets a tree only while spans are armed; the
/// cache and flow scopes need nothing more, while the `metrics::time`
/// stages (front end, codegen) nest in it only while the registry is on.
#[test]
fn job_trees_need_arming_and_stage_spans_also_need_the_registry() {
    let _g = serial();
    let states = [(false, false), (false, true), (true, false), (true, true)];
    for (i, (registry, armed)) in states.into_iter().enumerate() {
        if registry {
            metrics::enable();
        } else {
            metrics::disable();
        }
        if armed {
            obs::arm();
        } else {
            obs::disarm();
        }
        let exec = Executor::new(ExecConfig::with_workers(1));
        let outcome = exec
            .run(vec![instantiate(cold_vortex_job(i))])
            .pop()
            .expect("one outcome per job");
        let state = format!("registry {registry}, armed {armed}");
        assert!(outcome.is_ok(), "{state}: {:?}", outcome.result);
        let Some(tree) = &outcome.spans else {
            assert!(!armed, "{state}: an armed job must carry a tree");
            continue;
        };
        assert!(armed, "{state}: a disarmed job must carry no tree");
        let sig = tree.signature();
        for scope in ["flow.vortex(", "cache.vortex", "cache.lower"] {
            assert!(sig.contains(scope), "{state}: no {scope} in {sig}");
        }
        for stage in ["frontend.", "vortex_cc."] {
            assert_eq!(sig.contains(stage), registry, "{state}: {stage} in {sig}");
        }
    }
    obs::disarm();
    metrics::disable();
}
