//! Bounded-parallelism ordered map — the sweep-driver fan-out primitive.
//!
//! The configuration sweeps (Figure 7 grids, coverage tables, the bench
//! harness) previously spawned one OS thread per grid cell and funneled
//! results through a `Mutex<Vec<_>>`, so a 64-cell sweep launched 64
//! threads regardless of core count. [`par_map`] instead runs a fixed pool
//! of `min(available_parallelism, items)` workers that pull indices from a
//! shared atomic counter and write into private buffers; results are
//! scattered back into input order after the join, so no lock is held on
//! the hot path and the output is deterministic.
//!
//! [`Parker`] is the companion idle-protocol primitive: a one-permit
//! park/unpark token used by long-lived worker pools (the `repro-sched`
//! executor) whose threads sleep between batches instead of exiting.

use std::sync::atomic::{AtomicUsize, Ordering};
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

/// Map `f` over `items` in parallel with bounded workers, preserving input
/// order in the output. Panics in `f` propagate after all workers stop.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let f = &f;
                s.spawn(move || {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(&items[i])));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("par_map worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every index visited"))
        .collect()
}

/// Map `f` over `items` in parallel with an *explicit* worker count,
/// handing each worker exclusive `&mut` access to the elements it claims.
/// The simulator's deterministic parallel cores use this: each epoch every
/// core structure is advanced independently, so the closure needs mutable
/// access but no two workers ever touch the same element. Workers claim
/// indices from a shared atomic counter; results come back in input order.
///
/// Unlike [`par_map`], the worker count is a parameter rather than
/// `available_parallelism`: the caller (a job's `sim_threads`) owns the
/// policy. `workers <= 1` or a single item degrades to a plain sequential
/// loop with no thread spawns at all.
pub fn par_map_mut<T, R, F>(items: &mut [T], workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter_mut().map(f).collect();
    }
    let len = items.len();
    // Each index is claimed by exactly one worker via the atomic counter,
    // so the raw-pointer `&mut` projections are disjoint.
    struct SendPtr<T>(*mut T);
    unsafe impl<T> Sync for SendPtr<T> {}
    let base = SendPtr(items.as_mut_ptr());
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..len).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let f = &f;
                let base = &base;
                s.spawn(move || {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= len {
                            break;
                        }
                        // SAFETY: `i` is in bounds and claimed exactly once.
                        let item = unsafe { &mut *base.0.add(i) };
                        local.push((i, f(item)));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("par_map_mut worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every index visited"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let none: Vec<u32> = vec![];
        assert!(par_map(&none, |&x| x).is_empty());
        assert_eq!(par_map(&[5u32], |&x| x + 1), vec![6]);
    }

    #[test]
    fn par_map_mut_mutates_every_item_in_place() {
        for workers in [1usize, 2, 4, 9] {
            let mut items: Vec<u64> = (0..103).collect();
            let out = par_map_mut(&mut items, workers, |x| {
                *x += 1;
                *x * 10
            });
            assert_eq!(
                items,
                (1..104).collect::<Vec<u64>>(),
                "workers={workers}: in-place mutation lost"
            );
            assert_eq!(
                out,
                (1..104).map(|x| x * 10).collect::<Vec<u64>>(),
                "workers={workers}: result order broken"
            );
        }
    }

    #[test]
    fn par_map_mut_empty_and_single() {
        let mut none: Vec<u32> = vec![];
        assert!(par_map_mut(&mut none, 4, |&mut x| x).is_empty());
        let mut one = [7u32];
        assert_eq!(par_map_mut(&mut one, 4, |x| *x + 1), vec![8]);
    }

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
        use std::sync::atomic::AtomicU64;
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

    #[test]
    fn every_item_visited_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let calls = AtomicU32::new(0);
        let items: Vec<u32> = (0..100).collect();
        let out = par_map(&items, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 100);
        assert_eq!(calls.load(Ordering::Relaxed), 100);
    }
}
