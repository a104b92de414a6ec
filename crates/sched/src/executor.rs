//! The work-stealing executor: a fixed pool of long-lived workers with
//! per-worker deques, a park/unpark idle protocol, and a watcher thread
//! that enforces per-job wall-clock deadlines.
//!
//! Shape of the machine:
//!
//! - **Placement.** A submitted batch is dealt round-robin across the
//!   per-worker deques, so even before any stealing each worker starts
//!   with an equal share.
//! - **Stealing.** A worker pops its own deque from the *front* (FIFO —
//!   oldest local work first) and, when empty, scans the other deques
//!   starting from its right-hand neighbour and steals from the *back*.
//!   FIFO-own/LIFO-steal keeps a stolen task as far as possible from the
//!   victim's current position, minimizing contention on the deque lock.
//! - **Idle protocol.** A worker that finds every deque empty parks on
//!   its [`Parker`]. Submission unparks every worker; task completion
//!   unparks one. The parker's permit semantics make the classic lost
//!   wakeup ("check queues, miss the push, sleep forever") impossible,
//!   and the watcher doubles as a rescuer: on every tick it unparks all
//!   workers if any work is still queued.
//! - **Deadlines.** Jobs with `deadline_ms` register in an in-flight
//!   table; the watcher marks overdue entries, which (a) flips the job's
//!   cooperative [`JobCtx`] cancel flag and (b) replaces its outcome with
//!   the typed [`ReproError::DeadlineExceeded`]. The worker thread itself
//!   is never killed — simulator watchdog budgets guarantee the closure
//!   returns — so a fired deadline costs bounded wall-clock, not a thread.
//! - **Isolation.** Every closure runs under [`run_isolated`], so a
//!   panicking kernel becomes a classified [`ReproError::Panic`] outcome
//!   and the worker survives to take the next job.
//!
//! Determinism: the simulator is deterministic, so *which worker* runs a
//! job cannot change its cycles/stats; outcomes are written into a slot
//! table by batch index, so scheduling order cannot reorder results. A
//! batch pushed through the executor is bit-identical to running its jobs
//! one by one.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use repro_diag::{run_isolated, ReproError};
use repro_fault::{fire, fire_param, FaultPoint};
use repro_util::{metrics, Parker, ToJson};

use crate::job::{Job, JobCtx, JobOutcome};

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Worker threads in the pool (clamped to at least 1).
    pub workers: usize,
    /// Deadline granularity: how often the watcher scans the in-flight
    /// table. Deadlines fire within one tick of the true expiry.
    pub watch_tick: Duration,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig {
            workers: 1,
            watch_tick: Duration::from_millis(5),
        }
    }
}

impl ExecConfig {
    pub fn with_workers(workers: usize) -> ExecConfig {
        ExecConfig {
            workers: workers.max(1),
            ..ExecConfig::default()
        }
    }
}

/// Monotonic counters for everything the executor has done since
/// construction — mirrored into the global metrics registry but also
/// readable directly, so tests can assert on exact values without a
/// metrics snapshot race.
#[derive(Default)]
pub struct ExecStats {
    pub jobs: AtomicU64,
    pub jobs_failed: AtomicU64,
    pub steals: AtomicU64,
    pub parks: AtomicU64,
    pub unparks: AtomicU64,
    pub deadlines_fired: AtomicU64,
    /// Jobs completed with a typed rejection instead of executing
    /// (drain-mode [`ReproError::Draining`], queue-expired deadlines).
    pub jobs_rejected: AtomicU64,
}

impl ExecStats {
    pub fn jobs(&self) -> u64 {
        self.jobs.load(Ordering::Relaxed)
    }
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }
    pub fn deadlines_fired(&self) -> u64 {
        self.deadlines_fired.load(Ordering::Relaxed)
    }
    pub fn rejected(&self) -> u64 {
        self.jobs_rejected.load(Ordering::Relaxed)
    }
}

/// One queued task: a job plus where its outcome goes.
struct Task {
    job: Job,
    index: usize,
    batch: Arc<BatchShared>,
    /// Absolute wall-clock deadline, anchored at *submission*. A deadline
    /// is a service-latency promise, so queue time counts against it: a
    /// job whose deadline expires while it is still parked in a deque is
    /// rejected typed when a worker picks it up, without executing.
    deadline: Option<Instant>,
    /// Deterministic correlation id, computed at submission from the
    /// request's canonical wire form and batch position.
    trace_id: u64,
    /// When the task entered the deque — the queue-wait span's start.
    submitted: Instant,
}

/// Shared state of one submitted batch: the outcome slots and a
/// remaining-count the waiter blocks on.
struct BatchShared {
    slots: Mutex<Vec<Option<JobOutcome>>>,
    remaining: AtomicUsize,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl BatchShared {
    fn finish_one(&self, index: usize, outcome: JobOutcome) {
        self.slots.lock().unwrap()[index] = Some(outcome);
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            *self.done.lock().unwrap() = true;
            self.done_cv.notify_all();
        }
    }
}

/// Handle to a submitted batch; [`BatchHandle::wait`] blocks until every
/// job has an outcome and returns them in submission order.
pub struct BatchHandle {
    shared: Arc<BatchShared>,
}

impl BatchHandle {
    pub fn wait(self) -> Vec<JobOutcome> {
        let mut done = self.shared.done.lock().unwrap();
        while !*done {
            done = self.shared.done_cv.wait(done).unwrap();
        }
        drop(done);
        let mut slots = self.shared.slots.lock().unwrap();
        slots
            .drain(..)
            .map(|s| s.expect("batch complete but slot empty"))
            .collect()
    }
}

/// An in-flight (currently executing) job, visible to the watcher.
struct InFlight {
    cancelled: Arc<AtomicBool>,
    fired: Arc<AtomicBool>,
    deadline: Instant,
}

struct Shared {
    /// One lock-guarded deque per worker. Simple and honest: at suite job
    /// granularity (milliseconds per job) the lock is uncontended; the
    /// stealing protocol, not the deque implementation, is the design.
    deques: Vec<Mutex<VecDeque<Task>>>,
    parkers: Vec<Parker>,
    watcher_parker: Parker,
    /// Tasks queued across all deques (the `sched.queue_depth` gauge).
    queued: AtomicUsize,
    shutdown: AtomicBool,
    /// Graceful-drain mode: in-flight jobs finish, queued jobs complete
    /// with a typed [`ReproError::Draining`] rejection instead of running.
    draining: AtomicBool,
    inflight: Mutex<Vec<InFlight>>,
    stats: ExecStats,
    next_worker: AtomicUsize,
}

/// The work-stealing worker pool. One executor serves any number of
/// batches over its lifetime; dropping it drains queued work, then joins
/// every thread.
pub struct Executor {
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
    watcher: Option<std::thread::JoinHandle<()>>,
    workers: usize,
}

impl Executor {
    pub fn new(config: ExecConfig) -> Executor {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            parkers: (0..workers).map(|_| Parker::new()).collect(),
            watcher_parker: Parker::new(),
            queued: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            inflight: Mutex::new(Vec::new()),
            stats: ExecStats::default(),
            next_worker: AtomicUsize::new(0),
        });
        let threads = (0..workers)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sched-worker-{me}"))
                    .spawn(move || worker_loop(me, &shared))
                    .expect("spawn sched worker")
            })
            .collect();
        let watcher = {
            let shared = Arc::clone(&shared);
            let tick = config.watch_tick;
            Some(
                std::thread::Builder::new()
                    .name("sched-watcher".to_string())
                    .spawn(move || watcher_loop(&shared, tick))
                    .expect("spawn sched watcher"),
            )
        };
        Executor {
            shared,
            threads,
            watcher,
            workers,
        }
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    pub fn stats(&self) -> &ExecStats {
        &self.shared.stats
    }

    /// Tasks currently queued across all worker deques (excludes jobs
    /// already executing). The admission-control signal for `repro serve`.
    pub fn queue_depth(&self) -> usize {
        self.shared.queued.load(Ordering::Acquire)
    }

    /// Enter graceful-drain mode: jobs already executing finish normally,
    /// every still-queued job completes with a typed
    /// [`ReproError::Draining`] rejection (its batch handle still resolves,
    /// so nothing submitted is ever unaccounted for), and subsequent
    /// submissions are rejected the same way. Irreversible for this
    /// executor — drain is the first half of shutdown.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::Release);
        for p in &self.shared.parkers {
            p.unpark();
        }
        self.shared.watcher_parker.unpark();
    }

    /// Whether [`drain`](Self::drain) has been called.
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// Submit a batch of jobs; returns immediately with a handle. Jobs are
    /// dealt round-robin across the worker deques and outcomes come back
    /// in submission order regardless of execution order.
    pub fn submit(&self, jobs: Vec<Job>) -> BatchHandle {
        let n = jobs.len();
        let shared = Arc::new(BatchShared {
            slots: Mutex::new((0..n).map(|_| None).collect()),
            remaining: AtomicUsize::new(n),
            done: Mutex::new(n == 0),
            done_cv: Condvar::new(),
        });
        let start = self.shared.next_worker.fetch_add(n, Ordering::Relaxed);
        let now = Instant::now();
        // Count before publishing: a worker that is already awake can pop a
        // task the moment it lands in a deque, and its decrement must find
        // the increment already there.
        let depth = self.shared.queued.fetch_add(n, Ordering::AcqRel) + n;
        metrics::gauge_set("sched.queue_depth", depth as f64);
        for (index, job) in jobs.into_iter().enumerate() {
            let w = (start + index) % self.workers;
            let deadline = job
                .req
                .deadline_ms
                .map(|ms| now + Duration::from_millis(ms));
            let trace_id = repro_obs::trace_id(&job.req.to_json().to_compact(), index);
            self.shared.deques[w].lock().unwrap().push_back(Task {
                job,
                index,
                batch: Arc::clone(&shared),
                deadline,
                trace_id,
                submitted: now,
            });
        }
        let mut woken = 0u64;
        for p in &self.shared.parkers {
            // `sched.lost_unpark` drops the notification; liveness must
            // then come from the watcher's rescue tick, not this unpark.
            if fire(FaultPoint::SchedLostUnpark) {
                continue;
            }
            p.unpark();
            woken += 1;
        }
        self.shared
            .stats
            .unparks
            .fetch_add(woken, Ordering::Relaxed);
        self.shared.watcher_parker.unpark();
        BatchHandle { shared }
    }

    /// Submit and wait: the one-shot convenience used by every CLI entry
    /// point.
    pub fn run(&self, jobs: Vec<Job>) -> Vec<JobOutcome> {
        self.submit(jobs).wait()
    }
}

impl Drop for Executor {
    /// Graceful drain: workers finish everything already queued, then
    /// exit; no submitted job is ever dropped on the floor.
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for p in &self.shared.parkers {
            p.unpark();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.shared.watcher_parker.unpark();
        if let Some(w) = self.watcher.take() {
            let _ = w.join();
        }
    }
}

/// Pop local work (front) or steal from a victim (back), scanning
/// neighbours to the right of `me` so thieves spread instead of mobbing
/// worker 0.
fn find_task(me: usize, shared: &Shared) -> Option<(Task, bool)> {
    if let Some(task) = shared.deques[me].lock().unwrap().pop_front() {
        return Some((task, false));
    }
    let n = shared.deques.len();
    for off in 1..n {
        let victim = (me + off) % n;
        if let Some(task) = shared.deques[victim].lock().unwrap().pop_back() {
            return Some((task, true));
        }
    }
    None
}

fn worker_loop(me: usize, shared: &Shared) {
    loop {
        match find_task(me, shared) {
            Some((task, stolen)) => {
                if stolen {
                    shared.stats.steals.fetch_add(1, Ordering::Relaxed);
                    metrics::counter_add("sched.steal", 1);
                }
                let depth = shared.queued.fetch_sub(1, Ordering::AcqRel) - 1;
                metrics::gauge_set("sched.queue_depth", depth as f64);
                execute(me, task, shared);
                // Work may remain; wake one neighbour to help drain it.
                if shared.queued.load(Ordering::Acquire) > 0 {
                    shared.parkers[(me + 1) % shared.deques.len()].unpark();
                    shared.stats.unparks.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                shared.stats.parks.fetch_add(1, Ordering::Relaxed);
                metrics::counter_add("sched.park", 1);
                shared.parkers[me].park();
            }
        }
    }
}

fn execute(me: usize, task: Task, shared: &Shared) {
    let Task {
        job,
        index,
        batch,
        deadline,
        trace_id,
        submitted,
    } = task;
    let id = job.req.id;
    let label = job.req.label();
    let deadline_ms = job.req.deadline_ms;
    // Drain mode: queued work completes with a typed rejection instead of
    // executing, so every submitted job still gets exactly one outcome.
    if shared.draining.load(Ordering::Acquire) {
        shared.stats.jobs_rejected.fetch_add(1, Ordering::Relaxed);
        metrics::counter_add("sched.rejected", 1);
        batch.finish_one(
            index,
            JobOutcome {
                id,
                index,
                label,
                result: Err(ReproError::Draining),
                wall_secs: 0.0,
                worker: me,
                deadline_fired: false,
                trace_id,
                spans: None,
            },
        );
        return;
    }
    // Deadline already expired in the queue (`deadline_ms: 0` is the
    // degenerate case): classify without burning worker time on a job
    // whose latency promise is already broken.
    if deadline.is_some_and(|d| Instant::now() >= d) {
        shared.stats.deadlines_fired.fetch_add(1, Ordering::Relaxed);
        metrics::counter_add("sched.deadline_fired", 1);
        shared.stats.jobs.fetch_add(1, Ordering::Relaxed);
        metrics::counter_add("sched.jobs", 1);
        shared.stats.jobs_failed.fetch_add(1, Ordering::Relaxed);
        metrics::counter_add("sched.jobs_failed", 1);
        batch.finish_one(
            index,
            JobOutcome {
                id,
                index,
                label,
                result: Err(ReproError::DeadlineExceeded {
                    deadline_ms: deadline_ms.unwrap_or(0),
                }),
                wall_secs: 0.0,
                worker: me,
                deadline_fired: true,
                trace_id,
                spans: None,
            },
        );
        return;
    }
    let cancelled = Arc::new(AtomicBool::new(false));
    let fired = Arc::new(AtomicBool::new(false));
    if let Some(d) = deadline {
        shared.inflight.lock().unwrap().push(InFlight {
            cancelled: Arc::clone(&cancelled),
            fired: Arc::clone(&fired),
            deadline: d,
        });
        shared.watcher_parker.unpark();
    }
    let ctx = JobCtx {
        cancelled: Arc::clone(&cancelled),
    };
    // Span recording (armed only under `repro serve`): the queue-wait
    // interval elapsed before we picked the task up, so it is attached as
    // an already-measured leaf; everything from here on records live.
    if repro_obs::begin_job(trace_id) {
        let wait_us = submitted.elapsed().as_micros() as u64;
        let now_us = repro_obs::now_us();
        repro_obs::attach_span("queue_wait", now_us.saturating_sub(wait_us), wait_us);
    }
    let start = Instant::now();
    let mut result = run_isolated(|| {
        // `sched.job.panic`: a bug in our own stack, not the kernel — must
        // be caught right here at the isolation boundary.
        if fire(FaultPoint::SchedJobPanic) {
            panic!("injected fault: worker panic");
        }
        // `sched.job.latency`: stall (in cancellable slices) so wall-clock
        // deadlines genuinely fire rather than being untestably fast.
        if let Some(ms) = fire_param(FaultPoint::SchedJobLatency) {
            let until = Instant::now() + Duration::from_millis(ms);
            while Instant::now() < until && !ctx.cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        job.execute(&ctx)
    });
    let wall_secs = start.elapsed().as_secs_f64();
    let spans = repro_obs::end_job();
    // Retire from the in-flight table (identity: our cancelled flag).
    shared
        .inflight
        .lock()
        .unwrap()
        .retain(|f| !Arc::ptr_eq(&f.cancelled, &cancelled));
    let deadline_fired = fired.load(Ordering::Acquire);
    if deadline_fired {
        result = Err(ReproError::DeadlineExceeded {
            deadline_ms: deadline_ms.unwrap_or(0),
        });
    }
    shared.stats.jobs.fetch_add(1, Ordering::Relaxed);
    metrics::counter_add("sched.jobs", 1);
    if result.is_err() {
        shared.stats.jobs_failed.fetch_add(1, Ordering::Relaxed);
        metrics::counter_add("sched.jobs_failed", 1);
    }
    metrics::observe_secs("sched.job_latency", wall_secs);
    batch.finish_one(
        index,
        JobOutcome {
            id,
            index,
            label,
            result,
            wall_secs,
            worker: me,
            deadline_fired,
            trace_id,
            spans,
        },
    );
}

/// The watcher: fires deadlines and rescues any theoretically-possible
/// missed wakeup by re-unparking all workers while work is queued. Parks
/// itself when the executor is completely idle and no deadline is armed.
fn watcher_loop(shared: &Shared, tick: Duration) {
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let armed = {
            let now = Instant::now();
            let inflight = shared.inflight.lock().unwrap();
            for f in inflight.iter() {
                if now >= f.deadline && !f.fired.swap(true, Ordering::AcqRel) {
                    f.cancelled.store(true, Ordering::Release);
                    shared.stats.deadlines_fired.fetch_add(1, Ordering::Relaxed);
                    metrics::counter_add("sched.deadline_fired", 1);
                }
            }
            !inflight.is_empty()
        };
        let queued = shared.queued.load(Ordering::Acquire);
        if queued > 0 {
            for p in &shared.parkers {
                p.unpark();
            }
        }
        if armed || queued > 0 {
            // Active phase: tick at deadline granularity.
            shared.watcher_parker.park_timeout(tick);
        } else {
            // Idle: sleep until a submit or an armed deadline wakes us.
            shared.watcher_parker.park();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Flow, JobRequest, JobStats};
    use repro_diag::FailureClass;

    fn quick_job(id: u64, work: impl FnOnce() -> u64 + Send + 'static) -> Job {
        let mut req = JobRequest::bench("unit", Flow::Interp);
        req.id = id;
        Job::new(req, move |_, _| {
            Ok(JobStats {
                cycles: work(),
                instructions: 0,
            })
        })
    }

    #[test]
    fn outcomes_come_back_in_submission_order() {
        let exec = Executor::new(ExecConfig::with_workers(4));
        let jobs: Vec<Job> = (0..32)
            .map(|i| {
                quick_job(i, move || {
                    // Reverse-skewed delays so completion order differs
                    // from submission order.
                    std::thread::sleep(Duration::from_micros(5 * (32 - i)));
                    i * 100
                })
            })
            .collect();
        let outcomes = exec.run(jobs);
        assert_eq!(outcomes.len(), 32);
        for (i, oc) in outcomes.iter().enumerate() {
            assert_eq!(oc.id, i as u64);
            assert_eq!(oc.index, i);
            assert_eq!(oc.stats().unwrap().cycles, i as u64 * 100);
        }
        assert_eq!(exec.stats().jobs(), 32);
    }

    #[test]
    fn steals_rebalance_a_skewed_batch() {
        // Maximally skewed workload: the first job blocks its worker until
        // every OTHER job in the batch has finished. Round-robin placement
        // leaves 7 more jobs queued behind it on that worker's deque, and
        // the only thread free to run them is the other worker — which
        // must steal them. Deterministic (no timing window): either
        // stealing works and the batch completes, or the test hangs.
        let exec = Executor::new(ExecConfig::with_workers(2));
        let done = Arc::new(AtomicU64::new(0));
        let jobs: Vec<Job> = (0..16)
            .map(|i| {
                let done = Arc::clone(&done);
                quick_job(i, move || {
                    if i == 0 {
                        while done.load(Ordering::Acquire) < 15 {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                    done.fetch_add(1, Ordering::AcqRel);
                    i * 3
                })
            })
            .collect();
        let outcomes = exec.run(jobs);
        assert_eq!(outcomes.len(), 16);
        for (i, oc) in outcomes.iter().enumerate() {
            assert!(oc.is_ok());
            assert_eq!(oc.stats().unwrap().cycles, i as u64 * 3);
        }
        // The blocked worker held 7 queued jobs; every one was stolen.
        assert!(
            exec.stats().steals() >= 7,
            "expected the free worker to steal the blocked worker's queue, saw {} steals",
            exec.stats().steals()
        );
        // Which worker ran which job is scheduling-dependent (on a loaded
        // host the free worker may even steal the blocking job before its
        // owner wakes); the invariant is that all 16 ran exactly once.
        let by_worker: Vec<usize> = (0..2)
            .map(|w| outcomes.iter().filter(|oc| oc.worker == w).count())
            .collect();
        assert_eq!(by_worker.iter().sum::<usize>(), 16);
    }

    #[test]
    fn deadline_fires_on_a_job_that_never_finishes_on_its_own() {
        let exec = Executor::new(ExecConfig::with_workers(1));
        let mut req = JobRequest::bench("spin", Flow::Interp);
        req.id = 9;
        req.deadline_ms = Some(50);
        let job = Job::new(req, |_, ctx| {
            // Host-side spin that only the cooperative cancel flag stops —
            // the stand-in for a hung job.
            while !ctx.cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(JobStats::default())
        });
        let start = Instant::now();
        let outcomes = exec.run(vec![job]);
        assert_eq!(outcomes.len(), 1);
        let oc = &outcomes[0];
        assert!(oc.deadline_fired, "deadline should have fired");
        assert_eq!(oc.class(), Some(FailureClass::Hang));
        match &oc.result {
            Err(ReproError::DeadlineExceeded { deadline_ms }) => assert_eq!(*deadline_ms, 50),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "deadline fired but job took {:?}",
            start.elapsed()
        );
        assert_eq!(exec.stats().deadlines_fired(), 1);
    }

    #[test]
    fn deadline_does_not_fire_on_a_fast_job() {
        let exec = Executor::new(ExecConfig::with_workers(1));
        let mut req = JobRequest::bench("fast", Flow::Interp);
        req.deadline_ms = Some(10_000);
        let job = Job::new(req, |_, _| {
            Ok(JobStats {
                cycles: 1,
                instructions: 1,
            })
        });
        let outcomes = exec.run(vec![job]);
        assert!(outcomes[0].is_ok());
        assert!(!outcomes[0].deadline_fired);
        assert_eq!(exec.stats().deadlines_fired(), 0);
    }

    #[test]
    fn park_unpark_liveness_across_many_tiny_batches() {
        // 200 sequential one-job batches: between batches every worker is
        // parked, so each submit must wake one. A single lost wakeup hangs
        // this test (the driver's test timeout catches it); completion is
        // the liveness proof.
        let exec = Executor::new(ExecConfig::with_workers(2));
        for i in 0..200u64 {
            let outcomes = exec.run(vec![quick_job(i, move || i)]);
            assert_eq!(outcomes[0].stats().unwrap().cycles, i);
        }
        assert_eq!(exec.stats().jobs(), 200);
        assert!(
            exec.stats().parks() > 0,
            "workers should have parked between 200 sequential batches"
        );
    }

    #[test]
    fn queue_depth_is_exact_on_a_live_pool() {
        /// Releases the gate jobs when dropped — also on unwind, so a
        /// failing run fails instead of hanging in `Executor::drop`.
        struct Gate(Arc<AtomicBool>);
        impl Drop for Gate {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Release);
            }
        }
        // Every worker spins inside a gate job, so the whole pool is awake
        // with nothing queued. Opening the gate and submitting in the same
        // breath makes workers pop tasks of the new batch while `submit`
        // is still dealing it. The depth counter must already include
        // those tasks: it never underflows, and it reads zero once both
        // batches are done.
        for workers in [2, 4, 8] {
            let exec = Executor::new(ExecConfig::with_workers(workers));
            for round in 0..200u64 {
                let gate = Gate(Arc::new(AtomicBool::new(false)));
                let gated = exec.submit(
                    (0..workers as u64)
                        .map(|i| {
                            let open = Arc::clone(&gate.0);
                            quick_job(i, move || {
                                while !open.load(Ordering::Acquire) {
                                    std::thread::yield_now();
                                }
                                i
                            })
                        })
                        .collect(),
                );
                while exec.queue_depth() != 0 {
                    std::thread::yield_now();
                }
                drop(gate);
                let batch = exec.submit((0..64).map(|i| quick_job(i, move || round + i)).collect());
                assert!(gated.wait().iter().all(JobOutcome::is_ok));
                assert!(batch.wait().iter().all(JobOutcome::is_ok));
                assert_eq!(exec.queue_depth(), 0, "{workers} workers, round {round}");
            }
        }
    }

    #[test]
    fn drop_drains_queued_work_before_joining() {
        let exec = Executor::new(ExecConfig::with_workers(2));
        let jobs: Vec<Job> = (0..12)
            .map(|i| {
                quick_job(i, move || {
                    std::thread::sleep(Duration::from_millis(2));
                    i + 1
                })
            })
            .collect();
        let handle = exec.submit(jobs);
        drop(exec); // graceful drain: queued jobs still run to completion
        let outcomes = handle.wait();
        assert_eq!(outcomes.len(), 12);
        for (i, oc) in outcomes.iter().enumerate() {
            assert_eq!(oc.stats().unwrap().cycles, i as u64 + 1);
        }
    }

    #[test]
    fn panicking_job_is_isolated_and_classified() {
        let exec = Executor::new(ExecConfig::with_workers(2));
        let mut jobs = vec![quick_job(0, || 7)];
        let req = JobRequest::bench("boom", Flow::Interp);
        jobs.push(Job::new(req, |_, _| panic!("kernel exploded")));
        jobs.push(quick_job(2, || 9));
        let outcomes = exec.run(jobs);
        assert!(outcomes[0].is_ok());
        assert_eq!(outcomes[1].class(), Some(FailureClass::Panic));
        match &outcomes[1].result {
            Err(ReproError::Panic { message }) => {
                assert!(message.contains("kernel exploded"), "{message}")
            }
            other => panic!("expected Panic, got {other:?}"),
        }
        assert!(outcomes[2].is_ok(), "worker survived the panic");
        assert_eq!(exec.stats().jobs(), 3);
    }

    #[test]
    fn empty_batch_completes_immediately() {
        let exec = Executor::new(ExecConfig::with_workers(2));
        assert!(exec.run(Vec::new()).is_empty());
    }

    /// The fault engine is process-global; tests that arm it must not
    /// interleave with each other.
    fn fault_serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn deadline_job(id: u64, deadline_ms: u64, work_ms: u64) -> Job {
        let mut req = JobRequest::bench("edge", Flow::Interp);
        req.id = id;
        req.deadline_ms = Some(deadline_ms);
        Job::new(req, move |_, ctx| {
            let until = Instant::now() + Duration::from_millis(work_ms);
            while Instant::now() < until && !ctx.cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(JobStats {
                cycles: id + 1,
                instructions: 0,
            })
        })
    }

    #[test]
    fn zero_deadline_classifies_without_executing() {
        let exec = Executor::new(ExecConfig::with_workers(1));
        let ran = Arc::new(AtomicU64::new(0));
        let mut req = JobRequest::bench("zero", Flow::Interp);
        req.deadline_ms = Some(0);
        let flag = Arc::clone(&ran);
        let job = Job::new(req, move |_, _| {
            flag.fetch_add(1, Ordering::AcqRel);
            Ok(JobStats::default())
        });
        let outcomes = exec.run(vec![job]);
        assert!(outcomes[0].deadline_fired);
        assert_eq!(outcomes[0].class(), Some(FailureClass::Hang));
        assert_eq!(ran.load(Ordering::Acquire), 0, "body must not run");
        assert_eq!(exec.stats().deadlines_fired(), 1);
        // The worker is not poisoned: a follow-up job runs normally.
        let outcomes = exec.run(vec![quick_job(1, || 11)]);
        assert_eq!(outcomes[0].stats().unwrap().cycles, 11);
    }

    #[test]
    fn deadline_shorter_than_the_job_fires_mid_run() {
        // Deadline 20ms against a 10s (cancellable) body — the stand-in
        // for "deadline shorter than compile time".
        let exec = Executor::new(ExecConfig::with_workers(1));
        let start = Instant::now();
        let outcomes = exec.run(vec![deadline_job(0, 20, 10_000)]);
        assert!(outcomes[0].deadline_fired);
        match &outcomes[0].result {
            Err(ReproError::DeadlineExceeded { deadline_ms }) => assert_eq!(*deadline_ms, 20),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(start.elapsed() < Duration::from_secs(5));
        let outcomes = exec.run(vec![quick_job(1, || 5)]);
        assert!(outcomes[0].is_ok(), "worker survived the fired deadline");
    }

    #[test]
    fn deadline_expires_while_queued_behind_a_long_job() {
        // One worker: job 0 holds it past job 1's whole deadline budget.
        // Deadlines are anchored at submission, so job 1 must come back
        // DeadlineExceeded without ever executing.
        let exec = Executor::new(ExecConfig::with_workers(1));
        let jobs = vec![deadline_job(0, 10_000, 120), deadline_job(1, 30, 1)];
        let outcomes = exec.run(jobs);
        assert!(outcomes[0].is_ok(), "long job finishes inside its deadline");
        assert!(outcomes[1].deadline_fired, "queued job's deadline expired");
        assert_eq!(outcomes[1].class(), Some(FailureClass::Hang));
        assert_eq!(
            outcomes[1].wall_secs, 0.0,
            "expired-in-queue job must not execute"
        );
        let outcomes = exec.run(vec![quick_job(2, || 3)]);
        assert!(outcomes[0].is_ok(), "worker not poisoned");
    }

    #[test]
    fn injected_latency_makes_deadlines_fire() {
        let _g = fault_serial();
        let exec = Executor::new(ExecConfig::with_workers(1));
        repro_fault::install(&repro_fault::FaultPlan::new(3).times(
            FaultPoint::SchedJobLatency,
            1,
            10_000,
        ));
        let mut req = JobRequest::bench("lag", Flow::Interp);
        req.deadline_ms = Some(25);
        let job = Job::new(req, |_, _| Ok(JobStats::default()));
        let start = Instant::now();
        let outcomes = exec.run(vec![job]);
        repro_fault::clear();
        assert!(outcomes[0].deadline_fired, "latency fault must trip it");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "cancel cuts the stall short"
        );
    }

    #[test]
    fn injected_panic_is_classified_and_isolated() {
        let _g = fault_serial();
        let exec = Executor::new(ExecConfig::with_workers(2));
        repro_fault::install(&repro_fault::FaultPlan::new(4).times(
            FaultPoint::SchedJobPanic,
            1,
            0,
        ));
        let outcomes = exec.run((0..4).map(|i| quick_job(i, move || i)).collect());
        repro_fault::clear();
        let panicked = outcomes
            .iter()
            .filter(|oc| oc.class() == Some(FailureClass::Panic))
            .count();
        assert_eq!(panicked, 1, "exactly one injected panic");
        assert_eq!(
            outcomes.iter().filter(|oc| oc.is_ok()).count(),
            3,
            "the other jobs are untouched"
        );
        let outcomes = exec.run(vec![quick_job(9, || 9)]);
        assert!(outcomes[0].is_ok(), "workers survived the injected panic");
    }

    #[test]
    fn lost_unparks_do_not_lose_liveness() {
        let _g = fault_serial();
        // Every submit-side unpark is dropped; the watcher's rescue tick
        // is the only wakeup source left. Completion is the proof.
        let exec = Executor::new(ExecConfig::with_workers(2));
        repro_fault::install(
            &repro_fault::FaultPlan::new(5).always(FaultPoint::SchedLostUnpark, 0),
        );
        for i in 0..10u64 {
            let outcomes = exec.run(vec![quick_job(i, move || i * 2)]);
            assert_eq!(outcomes[0].stats().unwrap().cycles, i * 2);
        }
        repro_fault::clear();
        assert_eq!(exec.stats().jobs(), 10);
    }

    #[test]
    fn drain_rejects_queued_jobs_typed_and_finishes_inflight() {
        let exec = Executor::new(ExecConfig::with_workers(1));
        let started = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let (s, gate) = (Arc::clone(&started), Arc::clone(&release));
        let mut jobs = vec![quick_job(0, move || {
            s.store(true, Ordering::Release);
            while !gate.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            7
        })];
        jobs.extend((1..6).map(|i| quick_job(i, move || i)));
        let handle = exec.submit(jobs);
        // Wait until the gate job is genuinely executing, then drain.
        while !started.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        exec.drain();
        assert!(exec.draining());
        release.store(true, Ordering::Release);
        let outcomes = handle.wait();
        assert_eq!(outcomes.len(), 6, "every job is accounted for");
        assert_eq!(
            outcomes[0].stats().unwrap().cycles,
            7,
            "in-flight job finished normally"
        );
        for oc in &outcomes[1..] {
            match &oc.result {
                Err(ReproError::Draining) => {}
                other => panic!("queued job should be rejected Draining, got {other:?}"),
            }
        }
        assert_eq!(exec.stats().rejected(), 5);
        // Post-drain submissions are rejected typed too.
        let outcomes = exec.run(vec![quick_job(9, || 1)]);
        assert!(matches!(outcomes[0].result, Err(ReproError::Draining)));
    }
}
