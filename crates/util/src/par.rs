//! [`Parker`]: a one-permit park/unpark token, the idle protocol of
//! long-lived worker pools (the `repro-sched` executor) whose threads sleep
//! between batches instead of exiting.

use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// A one-permit park/unpark primitive — the idle protocol for worker
/// threads that must never miss a wakeup.
///
/// Semantics match `std::thread::park` but with an explicit, shareable
/// token: [`Parker::unpark`] stores a permit and wakes the parked thread
/// (if any); [`Parker::park`] consumes a pending permit and returns
/// immediately, or blocks until one arrives. Because the permit is state
/// rather than an edge-triggered signal, the classic lost-wakeup race
/// ("worker checks queues, producer pushes + signals, worker sleeps
/// forever") cannot happen: the signal sent between the check and the
/// sleep is still there when the sleep starts.
#[derive(Default)]
pub struct Parker {
    permit: Mutex<bool>,
    cv: Condvar,
}

impl Parker {
    pub fn new() -> Parker {
        Parker::default()
    }

    /// Block until a permit is available, then consume it. Returns
    /// immediately if one is already pending.
    pub fn park(&self) {
        let mut permit = self.permit.lock().unwrap();
        while !*permit {
            permit = self.cv.wait(permit).unwrap();
        }
        *permit = false;
    }

    /// Like [`Parker::park`] but gives up after `timeout`. Returns `true`
    /// if a permit was consumed, `false` on timeout.
    pub fn park_timeout(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut permit = self.permit.lock().unwrap();
        while !*permit {
            let Some(left) = deadline.checked_duration_since(std::time::Instant::now()) else {
                return false;
            };
            let (guard, _) = self.cv.wait_timeout(permit, left).unwrap();
            permit = guard;
        }
        *permit = false;
        true
    }

    /// Make a permit available and wake the parked thread, if any. Multiple
    /// unparks coalesce into one permit.
    pub fn unpark(&self) {
        let mut permit = self.permit.lock().unwrap();
        *permit = true;
        drop(permit);
        self.cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parker_permit_before_park_returns_immediately() {
        let p = Parker::new();
        p.unpark();
        p.unpark(); // coalesces into one permit
        p.park(); // consumes it without blocking
        assert!(
            !p.park_timeout(std::time::Duration::from_millis(10)),
            "second park found a permit that should have been consumed"
        );
    }

    #[test]
    fn parker_wakes_across_threads() {
        use std::sync::Arc;
        let p = Arc::new(Parker::new());
        let q = Arc::clone(&p);
        let h = std::thread::spawn(move || q.park());
        std::thread::sleep(std::time::Duration::from_millis(20));
        p.unpark();
        h.join().expect("parked thread woke");
    }

    #[test]
    fn parker_never_loses_a_wakeup_under_hammering() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let p = Arc::new(Parker::new());
        let woken = Arc::new(AtomicU64::new(0));
        const ROUNDS: u64 = 500;
        let consumer = {
            let p = Arc::clone(&p);
            let woken = Arc::clone(&woken);
            std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    p.park();
                    woken.fetch_add(1, Ordering::SeqCst);
                }
            })
        };
        for i in 0..ROUNDS {
            // Wait for the previous permit to be consumed so each unpark
            // is a distinct wakeup rather than a coalesced one.
            while woken.load(Ordering::SeqCst) < i {
                std::thread::yield_now();
            }
            p.unpark();
        }
        consumer.join().expect("consumer finished all rounds");
        assert_eq!(woken.load(Ordering::SeqCst), ROUNDS);
    }
}
