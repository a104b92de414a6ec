//! `hls-flow` — the high-level-synthesis tool flow.
//!
//! The Rust analogue of the Intel FPGA SDK for OpenCL pipeline the paper
//! describes in Figure 3: kernel IR → datapath analysis → RTL-level resource
//! estimation → synthesis (feasibility against the target device) → NDRange
//! pipelined execution.
//!
//! The pieces that drive the paper's results are modeled explicitly:
//! * **LSU inference** ([`analysis`]): every *global-memory access site* in
//!   the kernel becomes a load-store unit. Default (burst-coalesced) loads
//!   instantiate **32 load units** per site, exactly the behaviour the paper
//!   measured (§III-A: "each array access in the kernel code was synthesized
//!   into 32 load units"); `__pipelined_load` sites instantiate one. Each
//!   site's access pattern is a query over the work-item analysis the Vortex
//!   flow also uses (`ocl_ir::workitem`).
//! * **Area estimation** ([`area`]): a cost table over the profile,
//!   calibrated against the paper's Tables II and III. Access-pattern
//!   classification (thread-affine vs computed index) decides the
//!   burst-buffer depth and hence the BRAM cost per load unit.
//! * **Synthesis** ([`synth`]): feasibility against the device capacity
//!   (BRAM-first failure reporting, matching Table I's "Not enough BRAM"),
//!   the atomics-on-heterogeneous-memory restriction that fails hybridsort,
//!   and a wall-clock model reproducing §IV-B's synthesis times.
//! * **Execution** ([`perf`]): functional execution via the shared reference
//!   interpreter plus a pipelined NDRange performance model (initiation
//!   interval, memory bandwidth bound, pipelined-load serialization).

pub mod analysis;
pub mod area;
pub mod perf;
pub mod synth;

pub use analysis::{AccessPattern, KernelProfile, SiteInfo};
pub use perf::{execute_ndrange, HlsRun};
pub use synth::{synthesize, SynthFailure, SynthOptions, SynthReport};
