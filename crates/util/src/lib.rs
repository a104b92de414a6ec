//! `repro-util` — dependency-free support code shared across the workspace.
//!
//! The build environment is fully offline, so the usual crates.io helpers
//! (serde, rand, proptest) are replaced by the small modules here:
//!
//! * [`json`] — a minimal JSON value tree + pretty printer and the
//!   [`json::ToJson`] trait, covering exactly what the `repro` harness
//!   serializes;
//! * [`par`] — [`par::Parker`], the executor workers' park/unpark token;
//! * [`rng`] — a deterministic SplitMix64 generator for the randomized
//!   differential tests;
//! * [`metrics`] — the process-wide counters/gauges/histograms registry
//!   behind `repro perf-report` (off by default, observably free while off).

pub mod json;
pub mod metrics;
pub mod par;
pub mod rng;
pub mod timing;

pub use json::{Json, JsonError, ToJson};
pub use par::Parker;
pub use rng::Rng;
