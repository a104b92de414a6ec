//! `repro-core` — the paper's comparison framework.
//!
//! This crate is the primary contribution layer: it drives *identical
//! kernel source* through both tool flows (the methodology of §III) and
//! regenerates every quantitative artifact of the evaluation:
//!
//! * [`coverage`] — Table I (benchmark coverage, with failure reasons);
//! * [`check`] — the fail-soft coverage sweep behind `repro check`
//!   (per-benchmark outcomes with failure classes, panic-isolated);
//! * [`tables`] — Table II (backprop area under O1/O2), Table III (HLS area
//!   for four benchmarks), Table IV (Vortex area across configurations);
//! * [`fig7`] — Figure 7 (cycle heatmap over warps × threads on the 4-core
//!   Vortex simulator) plus the §III-C derived percentages;
//! * [`analytic`] — the analytical Vortex performance model the paper's
//!   §IV-A calls for as future work, validated against the cycle simulator;
//! * [`report`] — [`report::Table`], the one markdown table model every
//!   printed table goes through, and the renderers of Tables I–IV, the
//!   Figure 7 grid and the profile report;
//! * [`chrome_trace`](mod@chrome_trace) — chrome://tracing export of the Vortex simulator's
//!   event stream (the `repro trace` artifact);
//! * [`manifest`] — per-invocation RunManifest records (host/commit/config
//!   metadata + per-benchmark wall times + metrics snapshot);
//! * [`perf_report`] — the `repro perf-report` suite and pipeline-stage
//!   tables (markdown + JSON);
//! * [`serve`] — the `repro serve` long-running batch service (NDJSON jobs
//!   over stdin or a socket into the shared executor).

pub mod analytic;
pub mod chaos;
pub mod check;
pub mod chrome_trace;
pub mod coverage;
pub mod fig7;
pub mod manifest;
pub mod opt_report;
pub mod perf_report;
pub mod report;
pub mod serve;
pub mod tables;

pub use chaos::{chaos_json, render_chaos, run_chaos, ScenarioReport, CHAOS_SEED};
pub use check::{
    check_has_hard_failure, check_json, check_requests, check_suite, check_suite_on, fill_manifest,
    render_check, CheckRow, FlowCheck,
};
pub use chrome_trace::{chrome_trace, chrome_trace_serve};
pub use coverage::{coverage_table, CoverageRow};
pub use fig7::{fig7_grid, fig7_summary, Fig7Cell, Fig7Grid};
pub use manifest::{host_meta, HostMeta, RunManifest, MANIFEST_SCHEMA_VERSION};
pub use opt_report::{opt_report, render_opt_report, OptReport};
pub use perf_report::{collect_perf, render_perf_markdown, PerfReport};
pub use serve::{serve_lines, serve_socket, ServeOptions, ServeSummary};
pub use tables::{table2, table3, table4, AreaRow};
