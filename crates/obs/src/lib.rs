//! `repro-obs` — host-time observability for the long-running service.
//!
//! The PR 2 tracer sees *simulated* cycles and the PR 5 metrics registry
//! yields one cumulative snapshot at manifest-write time; neither can tell
//! an operator what one request did, or what the service is doing *right
//! now*. This crate adds the missing host-time layer:
//!
//! * **Correlated spans** ([`span`], [`SpanScope`], [`SpanNode`]) — a
//!   per-job tree of nested wall-clock spans (queue wait, cache lookups,
//!   compile stages, launch), recorded on the worker thread that executes
//!   the job and attached to its outcome under a deterministic
//!   [`trace_id`]. The executor brackets each job with [`begin_job`] /
//!   [`end_job`]; everything recorded between the two on that thread lands
//!   in the tree.
//! * **Structured events** ([`event`], [`drain_events`]) — a bounded ring
//!   of service-level happenings (admissions, sheds, retries, drains,
//!   cache degradations) that `repro serve` flushes on
//!   `{"cmd":"events"}`.
//!
//! Mirroring the metrics registry and fault engine, everything here is
//! **off by default and observably free while off**: every recording entry
//! point checks one relaxed atomic load ([`armed`]) and returns before
//! touching a clock, a lock, thread-local state, or an allocation. Batch
//! commands never arm it; `repro serve` does.
//!
//! Determinism: span *structure* (names, nesting, child order) is a pure
//! function of what the job executed, never of which worker ran it or how
//! wide the pool was; only the recorded durations are wall-clock. The
//! `trace_id` is a pure hash of the request's canonical wire form and its
//! batch position, so reruns of the same plan yield the same ids.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use repro_util::{fnv1a, Json, ToJson};

mod events;
mod span;

pub use events::{drain_events, event, Event, EVENT_RING_CAPACITY};
pub use span::{parse_span, SpanNode, SpanScope};

static ARMED: AtomicBool = AtomicBool::new(false);

/// Turn span + event recording on (idempotent). Also registers the
/// [`repro_util::metrics::time`] hook, so every already-instrumented
/// pipeline stage (frontend, middle end, codegen, launch) nests into the
/// current job's span tree with no per-crate changes.
pub fn arm() {
    repro_util::metrics::set_span_hook(span::hook_enter, span::hook_exit);
    ARMED.store(true, Ordering::Relaxed);
}

/// Turn recording off again (the default state).
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
}

/// Whether recording is armed — one relaxed atomic load, the entire cost
/// of the disarmed path.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Process-wide host-time epoch: every span timestamp and event time is
/// microseconds since this instant. Fixed at first use (service startup in
/// practice), so all timestamps in one process share one timeline.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since [`epoch`].
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Seconds since [`epoch`] — the service uptime `{"cmd":"health"}` reports.
pub fn uptime_secs() -> f64 {
    epoch().elapsed().as_secs_f64()
}

/// SplitMix64 finalizer — spreads the batch index so two identical
/// requests in one batch still get distinct ids.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic correlation id for one job: a pure hash of the request's
/// canonical wire form and its position in the submitted batch. No clock,
/// no randomness — the same seeded plan reruns to the same ids.
pub fn trace_id(canonical_request: &str, index: usize) -> u64 {
    mix(fnv1a(canonical_request.as_bytes()) ^ mix(index as u64 + 1))
}

/// The wire spelling of a trace id: 16 lowercase hex digits. JSON numbers
/// are f64 in too many consumers to trust a raw u64 across the wire.
pub fn trace_id_hex(id: u64) -> String {
    format!("{id:016x}")
}

/// Parse the wire spelling back ([`trace_id_hex`] round trip).
pub fn parse_trace_id(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

thread_local! {
    pub(crate) static RECORDER: RefCell<Option<span::Recorder>> = const { RefCell::new(None) };
}

/// Start recording a span tree for one job on the current thread. Replaces
/// any recorder a previous (possibly panicked) job left behind, so a
/// poisoned tree can never leak across jobs. No-op while disarmed; returns
/// whether recording actually started.
pub fn begin_job(trace_id: u64) -> bool {
    if !armed() {
        return false;
    }
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(span::Recorder::new(trace_id, now_us()));
    });
    true
}

/// Finish the current thread's job recording and return the completed span
/// tree. Frames still open (a panicked job unwound past its scopes) are
/// closed at the root's end time, so the tree always tiles. `None` while
/// disarmed or if [`begin_job`] never ran on this thread.
pub fn end_job() -> Option<SpanNode> {
    RECORDER
        .with(|r| r.borrow_mut().take())
        .map(|rec| rec.finish(now_us()))
}

/// Attach an already-measured leaf span to the current job (used for the
/// queue-wait interval, which elapses *before* the worker starts the job).
/// No-op when no recording is active.
pub fn attach_span(name: &str, start_us: u64, dur_us: u64) {
    if !armed() {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.attach(name, start_us, dur_us);
        }
    });
}

/// Record `f` as a nested span named `name` in the current job's tree.
/// While disarmed (or outside a job) this is a direct call — no clock.
pub fn span<R>(name: &str, f: impl FnOnce() -> R) -> R {
    let scope = SpanScope::enter(name);
    let r = f();
    drop(scope);
    r
}

/// The global event ring, shared with the [`events`] module.
fn ring() -> &'static Mutex<events::Ring> {
    static RING: OnceLock<Mutex<events::Ring>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(events::Ring::new()))
}

impl ToJson for Event {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seq", self.seq.to_json()),
            ("t_secs", (self.t_us as f64 * 1e-6).to_json()),
            ("kind", self.kind.to_json()),
            ("detail", self.detail.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Arming state and the recorder TLS are process-global; tests that
    /// flip them must not interleave.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn trace_ids_are_deterministic_and_index_sensitive() {
        let a = trace_id(r#"{"bench":"Vecadd"}"#, 0);
        let b = trace_id(r#"{"bench":"Vecadd"}"#, 0);
        let c = trace_id(r#"{"bench":"Vecadd"}"#, 1);
        let d = trace_id(r#"{"bench":"Saxpy"}"#, 0);
        assert_eq!(a, b, "same request + index => same id");
        assert_ne!(a, c, "same request at another batch position differs");
        assert_ne!(a, d, "different request differs");
        let hex = trace_id_hex(a);
        assert_eq!(hex.len(), 16);
        assert_eq!(parse_trace_id(&hex), Some(a));
        assert_eq!(parse_trace_id("zz"), None);
    }

    #[test]
    fn disarmed_records_nothing() {
        let _g = serial();
        disarm();
        assert!(!begin_job(7));
        let mut calls = 0;
        let v = span("work", || {
            calls += 1;
            3
        });
        assert_eq!((v, calls), (3, 1));
        attach_span("queue_wait", 0, 10);
        assert!(end_job().is_none());
        event("shed", "never recorded");
        let (evs, dropped) = drain_events();
        assert!(evs.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn span_tree_nests_and_tiles() {
        let _g = serial();
        arm();
        assert!(begin_job(42));
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
        begin_job(1);
        // Simulate a panic unwinding past an open scope: enter without exit.
        let scope = SpanScope::enter("doomed");
        std::mem::forget(scope);
        let tree = end_job().unwrap();
        disarm();
        assert_eq!(tree.children.len(), 1);
        assert_eq!(tree.children[0].name, "doomed");
        // A fresh job is unaffected by the leak.
        arm();
        begin_job(2);
        let tree = end_job().unwrap();
        disarm();
        assert!(tree.children.is_empty());
    }

    #[test]
    fn event_ring_is_bounded_and_counts_drops() {
        let _g = serial();
        arm();
        drain_events(); // reset any residue from other tests
        for i in 0..(EVENT_RING_CAPACITY + 10) {
            event("retry", &format!("job {i}"));
        }
        let (evs, dropped) = drain_events();
        disarm();
        assert_eq!(evs.len(), EVENT_RING_CAPACITY);
        assert_eq!(dropped, 10);
        // Oldest were dropped: the survivors are the most recent ones.
        assert!(evs[0].detail.ends_with("10"));
        assert!(evs.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        // Drained means drained.
        let (evs, dropped) = drain_events();
        assert!(evs.is_empty());
        assert_eq!(dropped, 0);
    }
}
