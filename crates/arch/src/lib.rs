//! `fpga-arch` — FPGA device models and the Vortex soft-GPU area model.
//!
//! Provides the two Stratix 10 boards the paper evaluates on (§III):
//! * **MX2100** (HBM2) — the board the Intel FPGA SDK bitstreams target;
//! * **SX2800** (DDR4) — the board Vortex is synthesized on;
//!
//! plus the resource-vector arithmetic used by the coverage evaluation
//! (Table I), the Vortex area model calibrated to Table IV, and [`paper`],
//! the one home of the paper's published numbers.

pub mod device;
pub mod memory;
pub mod paper;
pub mod vortex_area;

pub use device::{Device, DeviceKind, ResourceVector, Utilization};
pub use memory::{MemoryKind, MemorySystem};
pub use vortex_area::{vortex_area, VortexConfig};
