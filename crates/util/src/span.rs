//! Per-job span trees: a nested record of where one request's host time
//! went, built on the worker thread that executes the job.
//!
//! The executor brackets each job with [`begin_job`] / [`end_job`];
//! everything recorded between the two on that thread lands in the tree:
//! [`SpanScope`]s (cache lookups, the `flow.*` body), leaves attached with
//! [`attach_span`] (queue wait), and every [`metrics::time`] stage while
//! the registry is also enabled (front end, passes, codegen, launch).
//!
//! Like the registry, recording is **off by default and observably free
//! while off**: every entry point checks one relaxed atomic load
//! ([`armed`]) and returns before touching a clock, thread-local state or
//! an allocation. Batch commands never arm it; `repro serve` does.
//!
//! Determinism: span *structure* (names, nesting, child order) is a pure
//! function of what the job executed, never of which worker ran it or how
//! wide the pool was; only the recorded durations are wall-clock.
//!
//! [`metrics::time`]: crate::metrics::time

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::{Json, ToJson};

static ARMED: AtomicBool = AtomicBool::new(false);

/// Turn span recording on (idempotent).
pub fn arm() {
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

/// One node of a job's span tree. Times are microseconds since the
/// process [`epoch`]; durations are wall-clock and therefore
/// nondeterministic — everything else (name, nesting, child order) is a
/// pure function of what the job executed.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    pub name: String,
    pub start_us: u64,
    pub dur_us: u64,
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Total nodes in this subtree (root included).
    pub fn count(&self) -> usize {
        1 + self.children.iter().map(SpanNode::count).sum::<usize>()
    }

    /// The duration-free shape of the tree: nested names only. Two runs of
    /// the same job must produce equal signatures regardless of pool width
    /// or which worker executed them — the span-determinism tests compare
    /// exactly this.
    pub fn signature(&self) -> String {
        let mut out = String::new();
        self.write_signature(&mut out);
        out
    }

    fn write_signature(&self, out: &mut String) {
        out.push_str(&self.name);
        if !self.children.is_empty() {
            out.push('(');
            for (i, c) in self.children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                c.write_signature(out);
            }
            out.push(')');
        }
    }
}

impl ToJson for SpanNode {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", self.name.to_json()),
            ("start_us", self.start_us.to_json()),
            ("dur_us", self.dur_us.to_json()),
        ];
        if !self.children.is_empty() {
            fields.push((
                "children",
                Json::Array(self.children.iter().map(ToJson::to_json).collect()),
            ));
        }
        Json::obj(fields)
    }
}

/// Parse a span tree back from its wire form ([`SpanNode::to_json`]
/// inverse). `None` on any missing or mistyped field.
pub fn parse_span(j: &Json) -> Option<SpanNode> {
    let name = j.get("name")?.as_str()?.to_string();
    let start_us = j.get("start_us")?.as_u64()?;
    let dur_us = j.get("dur_us")?.as_u64()?;
    let children = match j.get("children") {
        None => Vec::new(),
        Some(c) => c
            .as_array()?
            .iter()
            .map(parse_span)
            .collect::<Option<Vec<_>>>()?,
    };
    Some(SpanNode {
        name,
        start_us,
        dur_us,
        children,
    })
}

/// An open (not yet closed) span frame on the recorder stack.
struct Frame {
    name: String,
    start_us: u64,
    children: Vec<SpanNode>,
}

/// Per-thread span recorder for one job. The stack holds the chain of
/// currently-open frames; closing a frame folds it into its parent's
/// children. Index 0 is the synthetic `job` root.
struct Recorder {
    stack: Vec<Frame>,
}

impl Recorder {
    fn new(start_us: u64) -> Recorder {
        Recorder {
            stack: vec![Frame {
                name: "job".to_string(),
                start_us,
                children: Vec::new(),
            }],
        }
    }

    fn enter(&mut self, name: &str, now_us: u64) {
        self.stack.push(Frame {
            name: name.to_string(),
            start_us: now_us,
            children: Vec::new(),
        });
    }

    fn exit(&mut self, now_us: u64) {
        // Never pop the root: a stray exit is dropped rather than
        // corrupting the tree.
        if self.stack.len() <= 1 {
            return;
        }
        let frame = self.stack.pop().expect("len checked above");
        let node = SpanNode {
            name: frame.name,
            start_us: frame.start_us,
            dur_us: now_us.saturating_sub(frame.start_us),
            children: frame.children,
        };
        self.stack
            .last_mut()
            .expect("root always present")
            .children
            .push(node);
    }

    fn attach(&mut self, name: &str, start_us: u64, dur_us: u64) {
        self.stack
            .last_mut()
            .expect("root always present")
            .children
            .push(SpanNode {
                name: name.to_string(),
                start_us,
                dur_us,
                children: Vec::new(),
            });
    }

    /// Close every still-open frame (a panicked job unwinds past its
    /// scopes) and return the finished tree.
    fn finish(mut self, now_us: u64) -> SpanNode {
        while self.stack.len() > 1 {
            self.exit(now_us);
        }
        let root = self.stack.pop().expect("root always present");
        SpanNode {
            name: root.name,
            start_us: root.start_us,
            dur_us: now_us.saturating_sub(root.start_us),
            children: root.children,
        }
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording a span tree for one job on the current thread. Replaces
/// any recorder a previous (possibly panicked) job left behind, so a
/// poisoned tree can never leak across jobs. No-op while disarmed; returns
/// whether recording actually started.
pub fn begin_job() -> bool {
    if !armed() {
        return false;
    }
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder::new(now_us()));
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

/// RAII guard for one nested span: created by [`enter`](SpanScope::enter),
/// closes the span on drop. While disarmed — or on a thread with no active
/// job — construction is one relaxed atomic load and drop is free.
pub struct SpanScope {
    live: bool,
}

impl SpanScope {
    pub fn enter(name: &str) -> SpanScope {
        SpanScope { live: enter(name) }
    }
}

impl Drop for SpanScope {
    fn drop(&mut self) {
        if self.live {
            exit();
        }
    }
}

/// Push a frame onto the current thread's recorder, if one is active.
/// Returns whether a frame was actually opened (so the matching [`exit`]
/// can be skipped when it wasn't).
pub(crate) fn enter(name: &str) -> bool {
    if !armed() {
        return false;
    }
    let now = now_us();
    RECORDER.with(|r| match r.borrow_mut().as_mut() {
        Some(rec) => {
            rec.enter(name, now);
            true
        }
        None => false,
    })
}

/// Close the innermost open frame of the current thread's recorder.
pub(crate) fn exit() {
    let now = now_us();
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.exit(now);
        }
    });
}
