//! `repro-sched` — the job-oriented work-stealing executor behind every
//! `repro` entry point.
//!
//! Before this crate, each CLI verb (`run`, `check`, `perf-report`) owned
//! its own ad-hoc loop over benchmarks: its own timing, its own
//! isolation, its own failure handling. This crate gives
//! the pipeline ONE compute substrate instead:
//!
//! - [`job`] defines the unit of work — [`job::JobRequest`] (pure data
//!   with a JSON wire form, also the `repro serve` protocol),
//!   [`job::Job`] (request + execution closure, bound one crate up in
//!   `ocl-suite::jobs`), and [`job::JobOutcome`] (typed result, failure
//!   class, wall/cycle stats).
//! - [`executor`] runs jobs — a fixed worker pool with per-worker deques,
//!   work stealing, a [`repro_util::Parker`]-based idle protocol, per-job
//!   wall-clock deadlines enforced by a watcher thread, and catch_unwind
//!   isolation so one bad kernel cannot take down a batch.
//!
//! Layering: this crate sits *below* the benchmark suite (it depends only
//! on `repro-util`, `repro-diag` and `ocl-ir`), which is what lets the
//! long-running `repro serve` mode, the one-shot CLI verbs, and the unit
//! tests all share the same scheduler without dependency cycles.

pub mod executor;
pub mod job;

pub use executor::{BatchHandle, ExecConfig, ExecStats, Executor};
pub use job::{
    ArgSpec, Flow, Job, JobCtx, JobOutcome, JobRequest, JobStats, NdSpec, Payload,
    DEFAULT_MAX_CYCLES, DEFAULT_MAX_INSTRUCTIONS,
};
