//! Device memory map and kernel-argument block layout, shared between the
//! code generator (`vortex-cc`), the runtime (`vortex-rt`) and the simulator
//! (`vortex-sim`) — the ABI contract of the soft-GPU software stack
//! (paper Figure 5).

/// Base of the kernel-argument block the runtime writes before launch.
pub const ARG_BASE: u32 = 0x0000_1000;
/// Base of the device console (printf) buffers: 64 bytes per hardware
/// thread.
pub const PRINTF_BASE: u32 = 0x0008_0000;
/// Bytes reserved per hart for printf arguments.
pub const PRINTF_STRIDE: u32 = 64;
/// Base of the buffer heap the runtime allocates from.
pub const HEAP_BASE: u32 = 0x0010_0000;
/// Harts the printf region holds (8 192): a machine with more cannot run a
/// kernel that prints, or the last harts' buffers would land in the heap.
pub const PRINTF_HARTS: u32 = (HEAP_BASE - PRINTF_BASE) / PRINTF_STRIDE;
/// Per-core local (work-group) memory window base.
pub const LOCAL_BASE: u32 = 0x8000_0000;

/// Offsets (bytes, within the ARG block) of launch geometry fields.
pub mod arg {
    pub const GLOBAL_X: u32 = 0;
    pub const GLOBAL_Y: u32 = 4;
    pub const GLOBAL_Z: u32 = 8;
    pub const LOCAL_X: u32 = 12;
    pub const LOCAL_Y: u32 = 16;
    pub const LOCAL_Z: u32 = 20;
    pub const GROUPS_X: u32 = 24;
    pub const GROUPS_Y: u32 = 28;
    pub const GROUPS_Z: u32 = 32;
    /// Top of the per-hart stack region (stacks grow down from here).
    pub const STACK_TOP: u32 = 36;
    /// Bytes of stack per hart.
    pub const STACK_STRIDE: u32 = 40;
    /// Warps per core participating in each work-group (barrier count).
    pub const BARRIER_WARPS: u32 = 44;
    /// First kernel argument; each argument occupies 4 bytes.
    pub const KERNEL_ARGS: u32 = 64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn regions_do_not_overlap() {
        assert!(ARG_BASE + arg::KERNEL_ARGS + 4 * 64 < PRINTF_BASE);
        assert_eq!(PRINTF_HARTS, 8192);
        assert!(PRINTF_BASE + PRINTF_STRIDE * PRINTF_HARTS <= HEAP_BASE);
        assert!(HEAP_BASE < LOCAL_BASE);
    }
}
