//! Umbrella crate: re-exports the whole reproduction stack for examples and integration tests.
pub use fpga_arch as arch;
pub use hls_flow as hls;
pub use ocl_front as front;
pub use ocl_ir as ir;
pub use ocl_suite as suite;
pub use repro_cache as cache;
pub use repro_core as repro;
pub use repro_obs as obs;
pub use repro_sched as sched;
pub use repro_util as util;
pub use repro_util::diag;
pub use repro_util::fault;
pub use vortex_cc as vcc;
pub use vortex_isa as visa;
pub use vortex_rt as vrt;
pub use vortex_sim as vsim;
