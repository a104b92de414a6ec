//! The executor: a fixed pool of long-lived workers popping one shared
//! FIFO queue, and a watcher thread that enforces per-job wall-clock
//! deadlines.
//!
//! Shape of the machine:
//!
//! - **One queue.** A batch is appended in submission order; workers pop
//!   the front. With two workers and jobs of 0.25 ms and up, one mutex
//!   around a `VecDeque` is not contended enough to need stealing.
//! - **Chained wakeup.** `submit` pushes the whole batch under one lock and
//!   wakes one worker; a worker that pops a task and leaves the queue
//!   non-empty wakes one more before releasing the lock. `notify_all` on
//!   submit and one `notify_one` per task both measured slower on
//!   `serve-small` (ROADMAP item 13).
//! - **No lost wakeup.** A worker checks the queue and starts waiting
//!   under the lock `submit` pushes under, so a push is either seen by the
//!   check or notifies a waiting worker. The one way to lose a wakeup is
//!   the `sched.lost_unpark` fault, which sends the submit notification to
//!   the watcher instead; the watcher wakes every worker on each tick
//!   while the queue is non-empty.
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
//!
//! Concurrency audit — every value shared across threads, and why its
//! ordering is enough:
//!
//! - **The state mutex** guards the queue, the in-flight table, `shutdown`
//!   and `draining`; nothing touches them outside it. So
//!   [`Executor::queue_depth`] is exact, and every task popped after
//!   [`Executor::drain`] is rejected. The `sched.queue_depth` gauge is set
//!   after the lock is released (the metrics registry has its own mutex):
//!   a concurrent push or pop may leave it one write stale, never adrift.
//! - **The batch mutex** guards a batch's outcome slots and remaining
//!   count; the last `finish_one` notifies under it and
//!   [`BatchHandle::wait`] reads the slots under it.
//! - **[`ExecStats`]** counters are `Relaxed` statistics. A job's counters
//!   are bumped before its `finish_one` (a deadline the watcher fires,
//!   under the state lock the worker then takes to retire the job), so a
//!   read after `wait` sees them; `parks` is only read as a lower bound.
//! - **`cancelled` and `fired`** (per in-flight job): the watcher claims a
//!   deadline with an `AcqRel` swap of `fired`, so it fires once, then
//!   stores `cancelled` with `Release`; the job polls `cancelled` as a
//!   stop hint that carries no data. The watcher fires only entries it
//!   sees under the state lock, and the worker loads `fired` with
//!   `Acquire` after retiring its entry under that lock, so a fire is
//!   either seen or never happens.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use repro_util::diag::{run_isolated, ReproError};
use repro_util::fault::{fire, fire_param, FaultPoint};
use repro_util::{metrics, span};

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
    pub parks: AtomicU64,
    pub deadlines_fired: AtomicU64,
    /// Jobs completed with a typed rejection instead of executing
    /// (drain-mode [`ReproError::Draining`]).
    pub jobs_rejected: AtomicU64,
}

impl ExecStats {
    pub fn jobs(&self) -> u64 {
        self.jobs.load(Ordering::Relaxed)
    }
    /// Always 0: the executor has one queue and nothing to steal. Kept only
    /// because the benchmark's layer pass still reports a `sched.steals`
    /// row; it goes when that row does (ROADMAP item 1(vii)).
    pub fn steals(&self) -> u64 {
        0
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
    /// Deterministic correlation id, computed at submission from the
    /// request's canonical wire form and batch position.
    trace_id: u64,
    /// When the task entered the queue: the queue-wait span's start and the
    /// deadline's anchor. Queue time counts against a deadline, so a job
    /// whose deadline expires while it is queued is rejected typed when a
    /// worker picks it up, without executing.
    submitted: Instant,
}

/// Shared state of one submitted batch: the outcome slots and the count
/// of jobs still without one, which the waiter blocks on.
struct BatchShared {
    done: Mutex<(Vec<Option<JobOutcome>>, usize)>,
    cv: Condvar,
}

impl BatchShared {
    fn finish_one(&self, index: usize, outcome: JobOutcome) {
        let mut done = self.done.lock().unwrap();
        done.0[index] = Some(outcome);
        done.1 -= 1;
        if done.1 == 0 {
            self.cv.notify_all();
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
        while done.1 > 0 {
            done = self.shared.cv.wait(done).unwrap();
        }
        done.0
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

/// Everything the workers and the watcher share, behind one lock.
#[derive(Default)]
struct State {
    queue: VecDeque<Task>,
    inflight: Vec<InFlight>,
    shutdown: bool,
    /// Graceful-drain mode: in-flight jobs finish, queued jobs complete
    /// with a typed [`ReproError::Draining`] rejection instead of running.
    draining: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for queued work.
    work: Condvar,
    /// The watcher waits here for a deadline to arm (or a lost wakeup).
    watch: Condvar,
    stats: ExecStats,
}

/// The worker pool. One executor serves any number of batches over its
/// lifetime; dropping it drains queued work, then joins every thread.
pub struct Executor {
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
    watcher: Option<std::thread::JoinHandle<()>>,
}

impl Executor {
    pub fn new(config: ExecConfig) -> Executor {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            watch: Condvar::new(),
            stats: ExecStats::default(),
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
        let watched = Arc::clone(&shared);
        let watcher = std::thread::Builder::new()
            .name("sched-watcher".to_string())
            .spawn(move || watcher_loop(&watched, config.watch_tick))
            .expect("spawn sched watcher");
        Executor {
            shared,
            threads,
            watcher: Some(watcher),
        }
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.threads.len()
    }

    pub fn stats(&self) -> &ExecStats {
        &self.shared.stats
    }

    /// Tasks currently queued (excludes jobs already executing). The
    /// admission-control signal for `repro serve`.
    pub fn queue_depth(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// Enter graceful-drain mode: jobs already executing finish normally,
    /// every still-queued job completes with a typed
    /// [`ReproError::Draining`] rejection (its batch handle still resolves,
    /// so nothing submitted is ever unaccounted for), and subsequent
    /// submissions are rejected the same way. Irreversible for this
    /// executor — drain is the first half of shutdown.
    pub fn drain(&self) {
        self.shared.state.lock().unwrap().draining = true;
    }

    /// Whether [`drain`](Self::drain) has been called.
    pub fn draining(&self) -> bool {
        self.shared.state.lock().unwrap().draining
    }

    /// Submit a batch of jobs; returns immediately with a handle. Jobs
    /// queue in submission order and outcomes come back in submission
    /// order regardless of execution order.
    pub fn submit(&self, jobs: Vec<Job>) -> BatchHandle {
        let n = jobs.len();
        let batch = Arc::new(BatchShared {
            done: Mutex::new(((0..n).map(|_| None).collect(), n)),
            cv: Condvar::new(),
        });
        let now = Instant::now();
        let tasks: Vec<Task> = jobs
            .into_iter()
            .enumerate()
            .map(|(index, job)| Task {
                trace_id: job.req.trace_id(index),
                job,
                index,
                batch: Arc::clone(&batch),
                submitted: now,
            })
            .collect();
        let mut state = self.shared.state.lock().unwrap();
        state.queue.extend(tasks);
        let depth = state.queue.len();
        drop(state);
        // `sched.lost_unpark` drops the notification; liveness must then
        // come from the watcher's tick, so the watcher is woken instead.
        if fire(FaultPoint::SchedLostUnpark) {
            self.shared.watch.notify_one();
        } else {
            self.shared.work.notify_one();
        }
        metrics::gauge_set("sched.queue_depth", depth as f64);
        BatchHandle { shared: batch }
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
        self.shared.state.lock().unwrap().shutdown = true;
        self.shared.work.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.shared.watch.notify_one();
        if let Some(w) = self.watcher.take() {
            let _ = w.join();
        }
    }
}

fn worker_loop(me: usize, shared: &Shared) {
    let mut state = shared.state.lock().unwrap();
    loop {
        if let Some(task) = state.queue.pop_front() {
            // Chain the wakeup: work remains, so one more worker can help.
            if !state.queue.is_empty() {
                shared.work.notify_one();
            }
            let (depth, draining) = (state.queue.len(), state.draining);
            drop(state);
            metrics::gauge_set("sched.queue_depth", depth as f64);
            execute(me, task, draining, shared);
            state = shared.state.lock().unwrap();
        } else if state.shutdown {
            return;
        } else {
            shared.stats.parks.fetch_add(1, Ordering::Relaxed);
            metrics::counter_add("sched.park", 1);
            state = shared.work.wait(state).unwrap();
        }
    }
}

fn execute(me: usize, task: Task, draining: bool, shared: &Shared) {
    let Task {
        job,
        index,
        batch,
        trace_id,
        submitted,
    } = task;
    let deadline = job
        .req
        .deadline_ms
        .map(|ms| submitted + Duration::from_millis(ms));
    let deadline_ms = job.req.deadline_ms.unwrap_or(0);
    let mut outcome = JobOutcome {
        id: job.req.id,
        index,
        label: job.req.label(),
        result: Err(ReproError::Draining),
        wall_secs: 0.0,
        worker: me,
        deadline_fired: false,
        trace_id,
        spans: None,
    };
    // Drain mode: queued work completes with a typed rejection instead of
    // executing, so every submitted job still gets exactly one outcome.
    if draining {
        shared.stats.jobs_rejected.fetch_add(1, Ordering::Relaxed);
        metrics::counter_add("sched.rejected", 1);
        batch.finish_one(index, outcome);
        return;
    }
    if deadline.is_some_and(|d| Instant::now() >= d) {
        // Deadline already expired in the queue (`deadline_ms: 0` is the
        // degenerate case): classify without burning worker time on a job
        // whose latency promise is already broken.
        outcome.deadline_fired = true;
        shared.stats.deadlines_fired.fetch_add(1, Ordering::Relaxed);
        metrics::counter_add("sched.deadline_fired", 1);
    } else {
        let cancelled = Arc::new(AtomicBool::new(false));
        let fired = Arc::new(AtomicBool::new(false));
        if let Some(d) = deadline {
            shared.state.lock().unwrap().inflight.push(InFlight {
                cancelled: Arc::clone(&cancelled),
                fired: Arc::clone(&fired),
                deadline: d,
            });
            shared.watch.notify_one();
        }
        let ctx = JobCtx {
            cancelled: Arc::clone(&cancelled),
        };
        // Span recording (armed only under `repro serve`): the queue-wait
        // interval elapsed before we picked the task up, so it is attached
        // as an already-measured leaf; everything from here on records live.
        if span::begin_job() {
            let wait_us = submitted.elapsed().as_micros() as u64;
            let now_us = span::now_us();
            span::attach_span("queue_wait", now_us.saturating_sub(wait_us), wait_us);
        }
        let start = Instant::now();
        outcome.result = run_isolated(|| {
            // `sched.job.panic`: a bug in our own stack, not the kernel —
            // must be caught right here at the isolation boundary.
            if fire(FaultPoint::SchedJobPanic) {
                panic!("injected fault: worker panic");
            }
            // `sched.job.latency`: stall (in cancellable slices) so
            // wall-clock deadlines genuinely fire rather than being
            // untestably fast.
            if let Some(ms) = fire_param(FaultPoint::SchedJobLatency) {
                let until = Instant::now() + Duration::from_millis(ms);
                while Instant::now() < until && !ctx.cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            job.execute(&ctx)
        });
        outcome.wall_secs = start.elapsed().as_secs_f64();
        outcome.spans = span::end_job();
        if deadline.is_some() {
            // Retire from the in-flight table (identity: our fired flag).
            let mut state = shared.state.lock().unwrap();
            state.inflight.retain(|f| !Arc::ptr_eq(&f.fired, &fired));
        }
        outcome.deadline_fired = fired.load(Ordering::Acquire);
        metrics::observe_secs("sched.job_latency", outcome.wall_secs);
    }
    if outcome.deadline_fired {
        outcome.result = Err(ReproError::DeadlineExceeded { deadline_ms });
    }
    shared.stats.jobs.fetch_add(1, Ordering::Relaxed);
    metrics::counter_add("sched.jobs", 1);
    if outcome.result.is_err() {
        shared.stats.jobs_failed.fetch_add(1, Ordering::Relaxed);
        metrics::counter_add("sched.jobs_failed", 1);
    }
    batch.finish_one(index, outcome);
}

/// The watcher: fires deadlines, and wakes every worker on each tick while
/// work is queued (the rescue for a dropped submit notification). Waits
/// untimed when no deadline is armed and nothing is queued.
fn watcher_loop(shared: &Shared, tick: Duration) {
    let mut state = shared.state.lock().unwrap();
    while !state.shutdown {
        let now = Instant::now();
        for f in &state.inflight {
            if now >= f.deadline && !f.fired.swap(true, Ordering::AcqRel) {
                f.cancelled.store(true, Ordering::Release);
                shared.stats.deadlines_fired.fetch_add(1, Ordering::Relaxed);
                metrics::counter_add("sched.deadline_fired", 1);
            }
        }
        if !state.queue.is_empty() {
            shared.work.notify_all();
        }
        state = if state.inflight.is_empty() && state.queue.is_empty() {
            shared.watch.wait(state).unwrap()
        } else {
            shared.watch.wait_timeout(state, tick).unwrap().0
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Flow, JobRequest, JobStats};
    use repro_util::diag::FailureClass;

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
        let (_g, exec) = pool(ExecConfig::with_workers(4));
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
    fn a_blocked_worker_strands_no_queued_job() {
        // Maximally skewed workload: the first job blocks its worker until
        // every OTHER job in the batch has finished, so the other worker
        // must run all 15. Deterministic (no timing window): either the
        // free worker keeps popping the queue and the batch completes, or
        // the test hangs.
        let (_g, exec) = pool(ExecConfig::with_workers(2));
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
        // Which worker ran which job is scheduling-dependent; the
        // invariant is that all 16 ran exactly once.
        let by_worker: Vec<usize> = (0..2)
            .map(|w| outcomes.iter().filter(|oc| oc.worker == w).count())
            .collect();
        assert_eq!(by_worker.iter().sum::<usize>(), 16);
    }

    #[test]
    fn a_batch_wakes_the_workers_it_needs_without_the_watcher() {
        // The watcher ticks once an hour, so only the submit and pop-side
        // notifications can start the second worker. Each job waits (for
        // at most 10 s) until both jobs have started and records whether
        // they did.
        let (_g, exec) = pool(ExecConfig {
            workers: 2,
            watch_tick: Duration::from_secs(3600),
        });
        // Both workers park on an empty queue before the batch arrives;
        // the pause lets the watcher settle into its untimed wait too.
        while exec.stats().parks() < 2 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));
        let started = Arc::new(AtomicU64::new(0));
        let jobs: Vec<Job> = (0..2)
            .map(|i| {
                let started = Arc::clone(&started);
                quick_job(i, move || {
                    started.fetch_add(1, Ordering::AcqRel);
                    let until = Instant::now() + Duration::from_secs(10);
                    while started.load(Ordering::Acquire) < 2 && Instant::now() < until {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    u64::from(started.load(Ordering::Acquire) == 2)
                })
            })
            .collect();
        for oc in exec.run(jobs) {
            assert_eq!(
                oc.stats().unwrap().cycles,
                1,
                "job {} ran while the other job never started",
                oc.id
            );
        }
    }

    #[test]
    fn deadline_fires_on_a_job_that_never_finishes_on_its_own() {
        let (_g, exec) = pool(ExecConfig::with_workers(1));
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
        let (_g, exec) = pool(ExecConfig::with_workers(1));
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
        let (_g, exec) = pool(ExecConfig::with_workers(2));
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
            let (_g, exec) = pool(ExecConfig::with_workers(workers));
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
        let (_g, exec) = pool(ExecConfig::with_workers(2));
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
        let (_g, exec) = pool(ExecConfig::with_workers(2));
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
        let (_g, exec) = pool(ExecConfig::with_workers(2));
        assert!(exec.run(Vec::new()).is_empty());
    }

    /// The fault engine is process-global; tests that arm it must not
    /// interleave with each other.
    fn fault_serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// An executor for one test, with the fault lock held: a fault armed
    /// by another test must not land in this test's jobs. Bind the guard
    /// first so the executor drops (and joins) while it is still held.
    fn pool(config: ExecConfig) -> (std::sync::MutexGuard<'static, ()>, Executor) {
        (fault_serial(), Executor::new(config))
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
        let (_g, exec) = pool(ExecConfig::with_workers(1));
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
        let (_g, exec) = pool(ExecConfig::with_workers(1));
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
        let (_g, exec) = pool(ExecConfig::with_workers(1));
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
        let (_g, exec) = pool(ExecConfig::with_workers(1));
        repro_util::fault::install(&repro_util::fault::FaultPlan::new(3).times(
            FaultPoint::SchedJobLatency,
            1,
            10_000,
        ));
        let mut req = JobRequest::bench("lag", Flow::Interp);
        req.deadline_ms = Some(25);
        let job = Job::new(req, |_, _| Ok(JobStats::default()));
        let start = Instant::now();
        let outcomes = exec.run(vec![job]);
        repro_util::fault::clear();
        assert!(outcomes[0].deadline_fired, "latency fault must trip it");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "cancel cuts the stall short"
        );
    }

    #[test]
    fn injected_panic_is_classified_and_isolated() {
        let (_g, exec) = pool(ExecConfig::with_workers(2));
        repro_util::fault::install(&repro_util::fault::FaultPlan::new(4).times(
            FaultPoint::SchedJobPanic,
            1,
            0,
        ));
        let outcomes = exec.run((0..4).map(|i| quick_job(i, move || i)).collect());
        repro_util::fault::clear();
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
        // Every submit-side unpark is dropped; the watcher's rescue tick
        // is the only wakeup source left. Completion is the proof.
        let (_g, exec) = pool(ExecConfig::with_workers(2));
        repro_util::fault::install(
            &repro_util::fault::FaultPlan::new(5).always(FaultPoint::SchedLostUnpark, 0),
        );
        for i in 0..10u64 {
            let outcomes = exec.run(vec![quick_job(i, move || i * 2)]);
            assert_eq!(outcomes[0].stats().unwrap().cycles, i * 2);
        }
        repro_util::fault::clear();
        assert_eq!(exec.stats().jobs(), 10);
    }

    #[test]
    fn drain_rejects_queued_jobs_typed_and_finishes_inflight() {
        let (_g, exec) = pool(ExecConfig::with_workers(1));
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
