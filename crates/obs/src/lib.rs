//! `repro-obs` — the service-level half of host-time observability.
//!
//! The per-job span trees live in [`repro_util::span`], next to the
//! metrics registry whose `time` stages nest into them. This crate keeps
//! what only the long-running service needs:
//!
//! * **Trace ids** ([`trace_id`], [`trace_id_hex`]) — the deterministic
//!   correlation id each outcome line carries: a pure hash of the
//!   request's canonical wire form and its batch position, so reruns of
//!   the same plan yield the same ids.
//! * **Structured events** ([`event`], [`drain_events`]) — a bounded ring
//!   of service-level happenings (admissions, sheds, retries, drains,
//!   cache degradations) that `repro serve` flushes on
//!   `{"cmd":"events"}`.
//!
//! Events share the span recorder's arming flag ([`arm`] / [`disarm`],
//! re-exported from [`repro_util::span`]): while disarmed, recording one
//! is a single relaxed atomic load. Batch commands never arm it; `repro
//! serve` does.

use repro_util::span::epoch;
use repro_util::{fnv1a, Fnv, Json};

mod events;

pub use events::{drain_events, event, Event, EVENT_RING_CAPACITY};
pub use repro_util::span::{arm, armed, disarm};

/// Seconds since the process [`epoch`] — the service uptime `{"cmd":"health"}` reports.
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
    slot_id(fnv1a(canonical_request.as_bytes()), index)
}

/// [`trace_id`] of `request`'s compact form, hashed as it is written rather
/// than from a `String` of it.
pub fn trace_id_of(request: &Json, index: usize) -> u64 {
    let mut h = Fnv::new();
    let _ = request.write_compact(&mut h);
    slot_id(h.finish(), index)
}

fn slot_id(request_hash: u64, index: usize) -> u64 {
    mix(request_hash ^ mix(index as u64 + 1))
}

/// The wire spelling of a trace id: 16 lowercase hex digits. JSON numbers
/// are f64 in too many consumers to trust a raw u64 across the wire.
pub fn trace_id_hex(id: u64) -> String {
    format!("{id:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Arming state and the event ring are process-global; tests that
    /// flip them must not interleave.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
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
        assert_eq!(u64::from_str_radix(&hex, 16), Ok(a));
        let req = Json::obj(vec![("bench", Json::Str("Vecadd".into()))]);
        assert_eq!(trace_id_of(&req, 1), c);
    }

    #[test]
    fn disarmed_records_nothing() {
        let _g = serial();
        disarm();
        event("shed", "never recorded");
        let (evs, dropped) = drain_events();
        assert!(evs.is_empty());
        assert_eq!(dropped, 0);
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
