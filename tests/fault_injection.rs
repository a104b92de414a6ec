//! Fault-injection engine integration suite.
//!
//! The contract under test, end to end across crates:
//!
//! * **Zero overhead when silent.** A disarmed engine — and an armed one
//!   whose every point has probability zero — must leave the simulator's
//!   observable outputs (cycles, instructions) bit-identical to an
//!   uninstrumented run. The probes are one relaxed atomic load on the
//!   disarmed path, the same idiom as the metrics registry.
//! * **Loop-independent classification.** An injected memory bit flip must
//!   classify *identically* (same error, same message) whether the
//!   simulator runs its dense cycle-by-cycle reference loop or the
//!   event-driven fast-forward loop — the flip lands at the launch
//!   boundary, outside either loop.
//! * **Serve-level healing.** The hardened `serve_lines` retry loop turns
//!   a transient injected worker panic into a clean outcome, and the
//!   serve-input fault points surface as typed `Protocol` rejections, not
//!   connection-killing errors.
//!
//! The engine is process-global, so every test serializes on one mutex
//! (`into_inner` on poison: a test that panics must not wedge the rest).

use std::sync::Mutex;

use fpga_gpu_repro::arch::VortexConfig;
use fpga_gpu_repro::fault::{self, FaultPlan, FaultPoint};
use fpga_gpu_repro::repro::{serve_lines, ServeOptions};
use fpga_gpu_repro::sched::{ExecConfig, Executor};
use fpga_gpu_repro::suite::{
    benchmark, run, Backend, Benchmark, ReproError, RunOutcome, Scale, DEFAULT_OPT,
};
use fpga_gpu_repro::util::Json;
use fpga_gpu_repro::vsim::SimConfig;

/// `b` at test scale on the Vortex flow at the suite default level.
fn on_vortex(b: &Benchmark, cfg: &SimConfig) -> Result<RunOutcome, ReproError> {
    let vortex = Backend::Vortex { cfg: cfg.clone() };
    run(
        &vortex,
        b.source,
        &(b.workload)(Scale::Test),
        Some(DEFAULT_OPT),
        None,
    )
}

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn cfg(reference_mode: bool) -> SimConfig {
    let mut c = SimConfig::new(VortexConfig::new(1, 4, 8));
    c.reference_mode = reference_mode;
    c
}

#[test]
fn disarmed_and_zero_probability_runs_are_bit_identical() {
    let _g = serial();
    fault::clear();
    let b = benchmark("Vecadd").unwrap();
    let base = on_vortex(&b, &cfg(false)).expect("healthy run");
    // Armed engine, every point at probability zero: the probes evaluate
    // on the hot paths but must perturb nothing observable.
    let mut plan = FaultPlan::new(7);
    for p in fault::ALL_POINTS {
        plan = plan.with(p, 0.0, None, 0);
    }
    fault::install(&plan);
    let armed = on_vortex(&b, &cfg(false)).expect("armed-but-silent run");
    let evaluated: u64 = fault::report().iter().map(|(_, e, _)| e).sum();
    let fired: u64 = fault::report().iter().map(|(_, _, f)| f).sum();
    fault::clear();
    let again = on_vortex(&b, &cfg(false)).expect("disarmed again");
    assert_eq!(
        (base.cycles, base.instructions),
        (armed.cycles, armed.instructions),
        "an armed-but-silent engine must be invisible"
    );
    assert_eq!(
        (base.cycles, base.instructions),
        (again.cycles, again.instructions),
        "clearing the engine must restore the uninstrumented behaviour"
    );
    assert!(evaluated > 0, "the sim probes must actually have evaluated");
    assert_eq!(fired, 0, "probability zero must never fire");
}

#[test]
fn bitflip_classification_is_identical_in_dense_and_event_loops() {
    let _g = serial();
    let b = benchmark("Vecadd").unwrap();
    // Flip an exponent bit of heap word 10 — inside input buffer `a` —
    // before the first launch. The same plan is re-installed per loop so
    // both runs see the identical single fire.
    let plan = FaultPlan::new(3).times(FaultPoint::SimDramBitflip, 1, (10 << 8) | 30);
    let mut verdicts = Vec::new();
    for reference_mode in [false, true] {
        fault::install(&plan);
        let r = on_vortex(&b, &cfg(reference_mode));
        fault::clear();
        verdicts.push(match r {
            Ok(_) => "ok".to_string(),
            Err(e) => format!("{e:?}"),
        });
    }
    assert_eq!(
        verdicts[0], verdicts[1],
        "dense and event loops must classify the injected flip identically"
    );
    assert!(
        verdicts[0].contains("WrongResult"),
        "an exponent-bit flip in an input buffer must surface as a wrong \
         result, got: {}",
        verdicts[0]
    );
}

#[test]
fn serve_retry_heals_a_transient_injected_panic() {
    let _g = serial();
    fault::install(&FaultPlan::new(11).times(FaultPoint::SchedJobPanic, 1, 0));
    let exec = Executor::new(ExecConfig::with_workers(1));
    let opts = ServeOptions {
        retry_max: 1,
        retry_backoff_ms: 1,
        ..ServeOptions::default()
    };
    let input = "[{\"id\": 1, \"bench\": \"Vecadd\"}, {\"id\": 2, \"bench\": \"Saxpy\"}]\n";
    let mut out = Vec::new();
    let s = serve_lines(&exec, &opts, input.as_bytes(), &mut out).unwrap();
    fault::clear();
    assert_eq!(
        (s.jobs, s.ok, s.failed, s.retried),
        (2, 2, 0, 1),
        "one injected panic, one retry, everything ok in the end"
    );
    let first = Json::parse(std::str::from_utf8(&out).unwrap().lines().next().unwrap()).unwrap();
    assert_eq!(first.get("id").unwrap().as_u64(), Some(1));
    assert_eq!(
        first.get("ok").unwrap().as_bool(),
        Some(true),
        "the healed outcome must land in the original response slot"
    );
}

#[test]
fn serve_line_faults_surface_as_typed_protocol_rejects() {
    let _g = serial();
    // Per-line fire schedule (each line probes oversize, then UTF-8, then
    // truncate ordinals independently): line 1 oversize, line 2 invalid
    // UTF-8, line 3 truncated mid-JSON, line 4 untouched.
    fault::install(
        &FaultPlan::new(5)
            .times(FaultPoint::ServeLineOversize, 1, 0)
            .with(FaultPoint::ServeLineInvalidUtf8, 1.0, Some(2), 0)
            .with(FaultPoint::ServeLineTruncate, 1.0, Some(3), 0),
    );
    let input = "{\"id\": 90, \"bench\": \"Vecadd\"}\n\
                 {\"id\": 91, \"bench\": \"Saxpy\"}\n\
                 {\"id\": 92, \"bench\": \"Sfilter\"}\n\
                 [{\"id\": 1, \"bench\": \"Vecadd\"}]\n";
    let exec = Executor::new(ExecConfig::with_workers(1));
    let mut out = Vec::new();
    let s = serve_lines(&exec, &ServeOptions::default(), input.as_bytes(), &mut out).unwrap();
    fault::clear();
    assert_eq!(
        (s.rejected, s.jobs, s.ok),
        (3, 1, 1),
        "three corrupted lines rejected, the clean batch still ran"
    );
    let resp: Vec<Json> = std::str::from_utf8(&out)
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).expect("every response line stays valid JSON"))
        .collect();
    let detail = |i: usize| {
        resp[i]
            .get("error")
            .unwrap()
            .get("detail")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    };
    for r in resp.iter().take(3) {
        assert_eq!(
            r.get("error").unwrap().get("kind").unwrap().as_str(),
            Some("Protocol")
        );
    }
    assert!(
        detail(0).contains("exceeds"),
        "line 1: oversize, got {}",
        detail(0)
    );
    assert!(
        detail(1).contains("invalid UTF-8"),
        "line 2: utf8, got {}",
        detail(1)
    );
    assert!(
        detail(2).contains("bad JSON"),
        "line 3: truncation, got {}",
        detail(2)
    );
    assert_eq!(resp[3].get("ok").unwrap().as_bool(), Some(true));
}
