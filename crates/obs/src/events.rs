//! Bounded structured event ring: service-level happenings (admissions,
//! sheds, retries, drains, cache degradations) kept in memory until an
//! operator flushes them with `{"cmd":"events"}`.
//!
//! The ring is deliberately small and lossy-at-the-tail: under a burst it
//! keeps the newest [`EVENT_RING_CAPACITY`] events and counts what it
//! dropped, so the service's memory stays bounded no matter how noisy a
//! chaos run gets.

use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};

use repro_util::span::{armed, now_us};
use repro_util::{Json, ToJson};

/// Maximum events held between drains; older entries are dropped (and
/// counted) when the ring is full.
pub const EVENT_RING_CAPACITY: usize = 256;

/// One recorded service event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotonic sequence number (process-wide, never reset) — gaps after
    /// a drop tell the reader exactly how much history is missing.
    pub seq: u64,
    /// Microseconds since the process [`epoch`](repro_util::span::epoch).
    pub t_us: u64,
    /// Short machine-readable kind: `admit`, `shed`, `retry`, `drain`,
    /// `cache_degraded`, ...
    pub kind: String,
    /// Free-form human detail (job label, error class, ...).
    pub detail: String,
}

struct Ring {
    buf: VecDeque<Event>,
    next_seq: u64,
    dropped: u64,
}

impl Ring {
    fn new() -> Ring {
        Ring {
            buf: VecDeque::with_capacity(EVENT_RING_CAPACITY),
            next_seq: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, kind: &str, detail: &str, t_us: u64) {
        if self.buf.len() == EVENT_RING_CAPACITY {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(Event {
            seq: self.next_seq,
            t_us,
            kind: kind.to_string(),
            detail: detail.to_string(),
        });
        self.next_seq += 1;
    }

    fn drain(&mut self) -> (Vec<Event>, u64) {
        let evs = self.buf.drain(..).collect();
        let dropped = std::mem::take(&mut self.dropped);
        (evs, dropped)
    }
}

/// The process-wide event ring.
fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(Ring::new()))
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

/// Record one service event. One relaxed atomic load while disarmed.
pub fn event(kind: &str, detail: &str) {
    if !armed() {
        return;
    }
    let t_us = now_us();
    let mut ring = ring().lock().unwrap_or_else(|e| e.into_inner());
    ring.push(kind, detail, t_us);
}

/// Flush the ring: all buffered events (oldest first) plus how many were
/// dropped since the previous drain.
pub fn drain_events() -> (Vec<Event>, u64) {
    let mut ring = ring().lock().unwrap_or_else(|e| e.into_inner());
    ring.drain()
}
