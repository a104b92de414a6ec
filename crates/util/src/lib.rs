//! `repro-util` — dependency-free support code shared across the workspace,
//! and the one home of the process-wide instruments every crate reaches.
//!
//! The build environment is fully offline, so the usual crates.io helpers
//! (serde, rand, proptest) are replaced by the small modules here:
//!
//! * [`fnv`] — FNV-1a 64, the one stable hash behind cache keys, trace
//!   ids and fault seeds;
//! * [`fxhash`] — the fast `FxHashMap`/`FxHashSet` hasher of the compiler
//!   passes (in the place of crates.io `rustc-hash`);
//! * [`json`] — a minimal JSON value tree + pretty printer and the
//!   [`json::ToJson`] trait, covering exactly what the `repro` harness
//!   serializes;
//! * [`rng`] — a deterministic SplitMix64 generator for the randomized
//!   differential tests and the fault engine's draws;
//! * [`diag`] — the failure taxonomy of the paper's Table I: every flow's
//!   [`diag::ReproError`], its [`diag::FailureClass`], and the
//!   [`diag::run_isolated`] panic boundary.
//!
//! The three instruments, each off by default and observably free while
//! off (one relaxed atomic load per probe):
//!
//! * [`metrics`] — the counters/gauges/histograms registry behind
//!   `repro perf-report`;
//! * [`span`] — the per-job span trees of `repro serve`; every
//!   [`metrics::time`] stage nests into the running job's tree;
//! * [`fault`] — the seeded fault-injection engine the chaos scenarios
//!   arm; each fire counts into the registry as `fault.fired`.

pub mod diag;
pub mod fault;
pub mod fnv;
pub mod fxhash;
pub mod json;
pub mod metrics;
pub mod rng;
pub mod span;

pub use fnv::{fnv1a, Fnv};
pub use json::{Json, JsonError, ToJson};
pub use rng::Rng;

#[cfg(test)]
mod tests;
