//! Banked DRAM timing model with open-row buffers and a shared data bus.
//!
//! This is the component that makes the paper's Figure 7 shape emerge
//! organically: a single streaming warp enjoys row-buffer hits, but many
//! interleaved streams (more warps × threads) thrash the row buffers and
//! queue on the bus, so effective bandwidth *drops* as parallelism grows —
//! exactly the "memory bandwidth limitations" bottleneck §III-C describes.

// DRAM geometry and timing: DDR4-class, as on the SX2800 board. Cycles
// are fabric cycles.

/// Number of independent banks.
pub(crate) const BANKS: u32 = 8;
/// Bytes in an open row.
const ROW_BYTES: u32 = 2048;
/// Access latency when the row is already open.
const ROW_HIT_CYCLES: u32 = 4;
/// Extra latency to close + activate a row.
const ROW_MISS_CYCLES: u32 = 18;
/// Bus transfer bytes per cycle (aggregate).
pub const BUS_BYTES_PER_CYCLE: u32 = 16;
/// Base (controller + wire) latency added to every access.
pub const BASE_LATENCY: u32 = 24;

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: u32,
    has_open: bool,
    next_free: u64,
}

/// The DRAM device state.
#[derive(Debug, Clone, Default)]
pub struct DramModel {
    banks: [Bank; BANKS as usize],
    bus_next_free: u64,
    accesses: u64,
    row_hits: u64,
}

impl DramModel {
    /// Service a `bytes`-wide access to `addr` issued at `now`; returns the
    /// completion cycle.
    pub fn access(&mut self, addr: u32, bytes: u32, now: u64) -> u64 {
        self.access_info(addr, bytes, now).0
    }

    /// Like [`access`](DramModel::access), but also reports whether the
    /// access hit the open row — the per-transaction outcome event traces
    /// record (the aggregate lives in [`stats`](DramModel::stats)).
    pub fn access_info(&mut self, addr: u32, bytes: u32, now: u64) -> (u64, bool) {
        self.accesses += 1;
        let row_global = addr / ROW_BYTES;
        let bank_idx = (row_global % BANKS) as usize;
        let row = row_global / BANKS;
        let bank = &mut self.banks[bank_idx];
        let start = now.max(bank.next_free);
        let row_hit = bank.has_open && bank.open_row == row;
        let access_cycles = if row_hit {
            self.row_hits += 1;
            ROW_HIT_CYCLES
        } else {
            bank.open_row = row;
            bank.has_open = true;
            ROW_MISS_CYCLES
        };
        let bank_done = start + access_cycles as u64;
        bank.next_free = bank_done;
        // Bus occupancy: transfers serialize on the shared data bus.
        let xfer = (bytes.div_ceil(BUS_BYTES_PER_CYCLE)).max(1) as u64;
        let bus_start = bank_done.max(self.bus_next_free);
        self.bus_next_free = bus_start + xfer;
        (bus_start + xfer + BASE_LATENCY as u64, row_hit)
    }

    /// Bank index `addr` maps to.
    pub fn bank_of(&self, addr: u32) -> u32 {
        (addr / ROW_BYTES) % BANKS
    }

    /// Adopt `src`'s open-row/queue state for one bank (same geometry
    /// assumed). Counters are left alone.
    pub fn copy_bank_from(&mut self, src: &DramModel, bank: u32) {
        self.banks[bank as usize] = src.banks[bank as usize];
    }

    /// Adopt `src`'s shared-bus queue cursor.
    pub fn copy_bus_from(&mut self, src: &DramModel) {
        self.bus_next_free = src.bus_next_free;
    }

    /// (total accesses, row-buffer hits).
    pub fn stats(&self) -> (u64, u64) {
        (self.accesses, self.row_hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_stream_gets_row_hits() {
        let mut d = DramModel::default();
        let mut t = 0;
        for i in 0..16u32 {
            t = d.access(i * 64, 64, t);
        }
        let (acc, hits) = d.stats();
        assert_eq!(acc, 16);
        // 2048-byte rows hold 32 lines; first access opens, rest hit.
        assert!(hits >= 14, "row hits: {hits}");
    }

    #[test]
    fn interleaved_streams_thrash_rows() {
        // Two streams in the same bank but different rows, interleaved.
        let mut d = DramModel::default();
        let mut t = 0;
        for i in 0..8u32 {
            t = d.access(i * 64, 64, t);
            t = d.access(BANKS * ROW_BYTES + i * 64, 64, t);
        }
        let (_, hits) = d.stats();
        assert_eq!(hits, 0, "alternating rows must never hit");
    }

    #[test]
    fn interleaving_is_slower_than_streaming() {
        let mut a = DramModel::default();
        let mut t_stream = 0;
        for i in 0..32u32 {
            t_stream = a.access(i * 64, 64, t_stream);
        }
        let mut b = DramModel::default();
        let mut t_mix = 0;
        for i in 0..16u32 {
            t_mix = b.access(i * 64, 64, t_mix);
            t_mix = b.access(BANKS * ROW_BYTES + i * 64, 64, t_mix);
        }
        assert!(
            t_mix > t_stream,
            "interleaved ({t_mix}) must be slower than streamed ({t_stream})"
        );
    }

    #[test]
    fn bus_serializes_wide_transfers() {
        let mut d = DramModel::default();
        let t1 = d.access(0, 64, 0);
        // Different bank, same time: bank-parallel but bus-serialized.
        let t2 = d.access(2048, 64, 0);
        assert!(t2 > t1 - BASE_LATENCY as u64);
    }

    #[test]
    fn banks_overlap_latency() {
        let mut d = DramModel::default();
        // 8 accesses to 8 different banks at t=0 finish much sooner than 8
        // accesses to one bank.
        let mut multi_done = 0;
        for b in 0..BANKS {
            multi_done = multi_done.max(d.access(b * ROW_BYTES, 64, 0));
        }
        let mut d2 = DramModel::default();
        let mut single_done = 0;
        for i in 0..BANKS {
            single_done = single_done.max(d2.access(i * ROW_BYTES * BANKS, 64, 0));
        }
        assert!(
            multi_done < single_done,
            "bank parallelism: {multi_done} vs {single_done}"
        );
    }
}
