//! Unit tests of the fault engine, the span recorder and the failure
//! taxonomy, and the one lock every test of the crate's process-wide
//! instruments takes: the metrics, span and fault tests share this binary,
//! and a fault that fires counts into the registry, so they must not
//! interleave.

use std::sync::{Mutex, MutexGuard};

use crate::diag::{panic_message, FailureClass, ReproError, StuckWarp};
use crate::fault::{
    armed, clear, fire, fire_param, install, report, FaultPlan, FaultPoint, ALL_POINTS,
};
use crate::span::{arm, attach_span, begin_job, disarm, end_job, parse_span, SpanScope};
use crate::{Json, ToJson};

/// Serialise the tests that touch the registry, the span recorder or the
/// fault engine (`cargo test` runs `#[test]`s on threads).
pub(crate) fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn disarmed_probes_never_fire() {
    let _g = serial();
    clear();
    assert!(!armed());
    for p in ALL_POINTS {
        assert!(!fire(p));
        assert_eq!(fire_param(p), None);
    }
    assert!(report().is_empty());
}

#[test]
fn unplanned_points_stay_quiet_while_armed() {
    let _g = serial();
    install(&FaultPlan::new(1).always(FaultPoint::SchedJobPanic, 0));
    assert!(!fire(FaultPoint::CacheDiskEnospc));
    assert!(fire(FaultPoint::SchedJobPanic));
    clear();
}

#[test]
fn max_fires_caps_the_schedule() {
    let _g = serial();
    install(&FaultPlan::new(2).times(FaultPoint::CacheDiskEnospc, 2, 0));
    let fires: Vec<bool> = (0..5).map(|_| fire(FaultPoint::CacheDiskEnospc)).collect();
    assert_eq!(fires, [true, true, false, false, false]);
    let rep = report();
    assert_eq!(rep, vec![("cache.disk.enospc", 5, 2)]);
    clear();
}

#[test]
fn same_seed_same_decision_sequence() {
    let _g = serial();
    let plan = FaultPlan::new(0xDEAD).with(FaultPoint::SimDramBitflip, 0.3, None, 42);
    let run = || -> Vec<Option<u64>> {
        install(&plan);
        let v = (0..64)
            .map(|_| fire_param(FaultPoint::SimDramBitflip))
            .collect();
        clear();
        v
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
    assert!(a.iter().any(|d| d.is_some()), "0.3 over 64 draws fires");
    assert!(a.iter().any(|d| d.is_none()), "0.3 over 64 draws skips");
    assert!(
        a.iter().flatten().all(|&p| p == 42),
        "param comes from the spec"
    );
}

#[test]
fn different_seeds_differ() {
    let _g = serial();
    let decisions = |seed: u64| -> Vec<bool> {
        install(&FaultPlan::new(seed).with(FaultPoint::SchedLostUnpark, 0.5, None, 0));
        let v = (0..64).map(|_| fire(FaultPoint::SchedLostUnpark)).collect();
        clear();
        v
    };
    assert_ne!(decisions(1), decisions(2));
}

#[test]
fn plan_json_round_trips() {
    let plan = FaultPlan::new(99)
        .with(FaultPoint::CacheDiskCorrupt, 0.25, Some(3), 7)
        .always(FaultPoint::ServeLineOversize, 1 << 20);
    let back = FaultPlan::parse(&plan.to_json().to_pretty()).unwrap();
    assert_eq!(back, plan);
}

#[test]
fn plan_parse_rejects_unknown_point_and_bad_prob() {
    assert!(
        FaultPlan::parse(r#"{"seed":1,"points":[{"point":"no.such"}]}"#)
            .unwrap_err()
            .contains("unknown point")
    );
    assert!(
        FaultPlan::parse(r#"{"seed":1,"points":[{"point":"sched.job.panic","prob":1.5}]}"#)
            .unwrap_err()
            .contains("out of [0,1]")
    );
}

#[test]
fn point_names_round_trip() {
    for p in ALL_POINTS {
        assert_eq!(FaultPoint::from_name(p.name()), Some(p));
    }
    assert_eq!(FaultPoint::from_name("nope"), None);
}

/// Record `f` as a nested span named `name` in the current job's tree.
fn span<R>(name: &str, f: impl FnOnce() -> R) -> R {
    let _scope = SpanScope::enter(name);
    f()
}

#[test]
fn disarmed_records_nothing() {
    let _g = serial();
    disarm();
    assert!(!begin_job());
    let mut calls = 0;
    let v = span("work", || {
        calls += 1;
        3
    });
    assert_eq!((v, calls), (3, 1));
    attach_span("queue_wait", 0, 10);
    assert!(end_job().is_none());
}

#[test]
fn span_tree_nests_and_tiles() {
    let _g = serial();
    arm();
    assert!(begin_job());
    attach_span("queue_wait", 0, 5);
    span("compile", || {
        span("lower", || {});
        span("codegen", || {});
    });
    span("launch", || {});
    let tree = end_job().expect("recording was armed");
    disarm();
    assert_eq!(tree.name, "job");
    let names: Vec<&str> = tree.children.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, ["queue_wait", "compile", "launch"]);
    let inner: Vec<&str> = tree.children[1]
        .children
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(inner, ["lower", "codegen"]);
    // Round trip through the wire form.
    let parsed =
        parse_span(&Json::parse(&tree.to_json().to_pretty()).unwrap()).expect("parses back");
    assert_eq!(parsed.signature(), tree.signature());
    assert_eq!(parsed.name, "job");
}

#[test]
fn unclosed_frames_are_closed_at_end_job() {
    let _g = serial();
    arm();
    begin_job();
    // Simulate a panic unwinding past an open scope: enter without exit.
    let scope = SpanScope::enter("doomed");
    std::mem::forget(scope);
    let tree = end_job().unwrap();
    disarm();
    assert_eq!(tree.children.len(), 1);
    assert_eq!(tree.children[0].name, "doomed");
    // A fresh job is unaffected by the leak.
    arm();
    begin_job();
    let tree = end_job().unwrap();
    disarm();
    assert!(tree.children.is_empty());
}

#[test]
fn classes_partition_the_taxonomy() {
    let stuck = vec![StuckWarp {
        core: 0,
        warp: 1,
        pc: 0x80,
        barrier: Some((0, 4)),
        arrived: 2,
    }];
    let cases: Vec<(ReproError, FailureClass)> = vec![
        (
            ReproError::Frontend {
                stage: "parse",
                message: "x".into(),
                line: 3,
                col: 7,
            },
            FailureClass::Compile,
        ),
        (
            ReproError::Synthesis {
                reason: "Irregular".into(),
                hours: 40.0,
            },
            FailureClass::Synthesis,
        ),
        (
            ReproError::OutOfBounds {
                addr: 0x1000,
                pc: 0,
                space: "global".into(),
            },
            FailureClass::Memory,
        ),
        (
            ReproError::BarrierDeadlock {
                stuck: stuck.clone(),
            },
            FailureClass::Deadlock,
        ),
        (
            ReproError::DivergenceDeadlock { stuck },
            FailureClass::Deadlock,
        ),
        (ReproError::CycleBudget { limit: 10 }, FailureClass::Hang),
        (
            ReproError::DeadlineExceeded { deadline_ms: 250 },
            FailureClass::Hang,
        ),
        (
            ReproError::Panic {
                message: "boom".into(),
            },
            FailureClass::Panic,
        ),
    ];
    for (err, class) in cases {
        assert_eq!(err.class(), class, "{err}");
    }
}

#[test]
fn display_names_stuck_warps() {
    let err = ReproError::BarrierDeadlock {
        stuck: vec![StuckWarp {
            core: 1,
            warp: 2,
            pc: 0x40,
            barrier: Some((0, 8)),
            arrived: 4,
        }],
    };
    let text = err.to_string();
    assert!(text.contains("core 1 warp 2"), "{text}");
    assert!(text.contains("barrier 0 (4/8 arrived)"), "{text}");
}

#[test]
fn json_carries_class_and_payload() {
    let err = ReproError::Misaligned {
        addr: 0x1001,
        align: 4,
        pc: 0x20,
        space: "global".into(),
    };
    let j = err.to_json();
    assert_eq!(j.get("class").unwrap().as_str(), Some("Memory"));
    assert_eq!(j.get("kind").unwrap().as_str(), Some("Misaligned"));
    assert_eq!(j.get("addr").unwrap().as_u64(), Some(0x1001));
}

#[test]
fn transient_split_is_conservative() {
    // Transient: worth a retry.
    assert!(ReproError::DeadlineExceeded { deadline_ms: 5 }.is_transient());
    assert!(ReproError::Panic {
        message: "x".into()
    }
    .is_transient());
    assert!(ReproError::Overloaded {
        queued: 9,
        limit: 8
    }
    .is_transient());
    assert!(ReproError::Draining.is_transient());
    // Permanent: deterministic properties of the job.
    assert!(!ReproError::harness("bad args").is_transient());
    assert!(!ReproError::CycleBudget { limit: 10 }.is_transient());
    assert!(!ReproError::WrongResult {
        message: "x".into()
    }
    .is_transient());
    assert!(!ReproError::Verify {
        message: "x".into()
    }
    .is_transient());
}

#[test]
fn overload_and_drain_are_typed_harness_rejections() {
    let err = ReproError::Overloaded {
        queued: 12,
        limit: 8,
    };
    assert_eq!(err.class(), FailureClass::Harness);
    let j = err.to_json();
    assert_eq!(j.get("kind").unwrap().as_str(), Some("Overloaded"));
    assert_eq!(j.get("queued").unwrap().as_u64(), Some(12));
    assert_eq!(j.get("limit").unwrap().as_u64(), Some(8));
    assert_eq!(ReproError::Draining.class(), FailureClass::Harness);
    assert_eq!(ReproError::Draining.kind(), "Draining");
}

#[test]
fn panic_payloads_downcast() {
    let err = std::panic::catch_unwind(|| panic!("kernel bug {}", 7)).unwrap_err();
    assert_eq!(panic_message(err.as_ref()), "kernel bug 7");
}
