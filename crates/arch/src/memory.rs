//! Off-chip memory system models.
//!
//! The paper notes the key board difference: "the MX2100 is equipped with
//! HBM2 memory, whereas the SX2800 relies solely on DDR4 off-chip memory"
//! (§III). Both flows' performance models consume these descriptors.

/// Memory technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryKind {
    Hbm2,
    Ddr4,
}

/// A device memory system, in units of the 200 MHz fabric clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemorySystem {
    pub kind: MemoryKind,
    /// Number of independent channels (HBM2 pseudo-channels / DDR4 DIMMs).
    pub channels: u32,
    /// Peak bytes per fabric cycle per channel.
    pub bytes_per_cycle_per_channel: u32,
    /// Round-trip latency of a row-hit access, in fabric cycles.
    pub latency_cycles: u32,
}

impl MemorySystem {
    /// HBM2 stack on the MX2100: 32 pseudo-channels, ~512 GB/s aggregate
    /// (≈ 2,560 B per 5 ns fabric cycle), ~125 ns loaded latency.
    pub fn hbm2() -> MemorySystem {
        MemorySystem {
            kind: MemoryKind::Hbm2,
            channels: 32,
            bytes_per_cycle_per_channel: 80,
            latency_cycles: 25,
        }
    }

    /// DDR4 on the SX2800: one DDR4-2400 interface presented as 4 banks
    /// (≈ 19.2 GB/s, 96 B/cycle aggregate), ~200 ns loaded latency.
    pub fn ddr4() -> MemorySystem {
        MemorySystem {
            kind: MemoryKind::Ddr4,
            channels: 4,
            bytes_per_cycle_per_channel: 24,
            latency_cycles: 40,
        }
    }

    /// Aggregate peak bandwidth in bytes per fabric cycle.
    pub fn peak_bytes_per_cycle(&self) -> u64 {
        self.channels as u64 * self.bytes_per_cycle_per_channel as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hbm_outpaces_ddr4() {
        let hbm = MemorySystem::hbm2();
        let ddr = MemorySystem::ddr4();
        assert!(hbm.peak_bytes_per_cycle() > 10 * ddr.peak_bytes_per_cycle());
        assert!(hbm.latency_cycles < ddr.latency_cycles);
    }

    #[test]
    fn bandwidth_in_expected_range() {
        // HBM2 ≈ 512 GB/s, DDR4 x4 ≈ 19.2 GB/s at 200 MHz.
        assert_eq!(MemorySystem::hbm2().peak_bytes_per_cycle(), 2560);
        assert_eq!(MemorySystem::ddr4().peak_bytes_per_cycle(), 96);
    }
}
