//! Stratix 10 device models and resource-vector arithmetic.

use crate::memory::MemorySystem;
use repro_util::{Json, ToJson};
use std::fmt;
use std::ops::{Add, AddAssign};

/// A vector of the four FPGA resource classes the paper's area reports use
/// (Tables II, III, IV): adaptive LUTs, flip-flops, M20K block RAMs, and DSP
/// blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceVector {
    pub aluts: u64,
    pub ffs: u64,
    pub brams: u64,
    pub dsps: u64,
}

impl ResourceVector {
    pub const ZERO: ResourceVector = ResourceVector {
        aluts: 0,
        ffs: 0,
        brams: 0,
        dsps: 0,
    };

    pub const fn new(aluts: u64, ffs: u64, brams: u64, dsps: u64) -> Self {
        ResourceVector {
            aluts,
            ffs,
            brams,
            dsps,
        }
    }

    /// Component-wise scaling (e.g. N identical load units).
    pub fn scaled(self, n: u64) -> Self {
        ResourceVector {
            aluts: self.aluts * n,
            ffs: self.ffs * n,
            brams: self.brams * n,
            dsps: self.dsps * n,
        }
    }

    /// True if every component fits within `capacity`.
    pub fn fits_in(&self, capacity: &ResourceVector) -> bool {
        self.aluts <= capacity.aluts
            && self.ffs <= capacity.ffs
            && self.brams <= capacity.brams
            && self.dsps <= capacity.dsps
    }

    /// Name of the first resource class exceeding `capacity`, checking BRAM
    /// first because it is the dominant HLS bottleneck the paper reports
    /// ("Not enough BRAM" in Table I).
    pub fn first_overflow(&self, capacity: &ResourceVector) -> Option<&'static str> {
        if self.brams > capacity.brams {
            Some("BRAM")
        } else if self.aluts > capacity.aluts {
            Some("ALUT")
        } else if self.ffs > capacity.ffs {
            Some("FF")
        } else if self.dsps > capacity.dsps {
            Some("DSP")
        } else {
            None
        }
    }
}

impl Add for ResourceVector {
    type Output = ResourceVector;
    fn add(self, rhs: ResourceVector) -> ResourceVector {
        ResourceVector {
            aluts: self.aluts + rhs.aluts,
            ffs: self.ffs + rhs.ffs,
            brams: self.brams + rhs.brams,
            dsps: self.dsps + rhs.dsps,
        }
    }
}

impl AddAssign for ResourceVector {
    fn add_assign(&mut self, rhs: ResourceVector) {
        *self = *self + rhs;
    }
}

impl fmt::Display for ResourceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ALUTs, {} FFs, {} BRAMs, {} DSPs",
            self.aluts, self.ffs, self.brams, self.dsps
        )
    }
}

impl ToJson for ResourceVector {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("aluts", self.aluts.to_json()),
            ("ffs", self.ffs.to_json()),
            ("brams", self.brams.to_json()),
            ("dsps", self.dsps.to_json()),
        ])
    }
}

/// Per-class utilization of a device, as percentages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Utilization {
    pub aluts_pct: f64,
    pub ffs_pct: f64,
    pub brams_pct: f64,
    pub dsps_pct: f64,
}

/// The Stratix 10 family members used in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Stratix 10 MX2100 — HBM2 board, used for the Intel HLS flow.
    StratixMx2100,
    /// Stratix 10 SX2800 — DDR4 board, used for Vortex.
    StratixSx2800,
}

/// An FPGA device: capacities plus its off-chip memory system.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    pub kind: DeviceKind,
    pub name: &'static str,
    pub capacity: ResourceVector,
    pub memory: MemorySystem,
    /// Peak fabric clock the paper's designs close timing at (MHz). Vortex
    /// runs "over 200 MHz" (§II-C); HLS kernels are normalized to the same
    /// clock so cycle counts compare.
    pub clock_mhz: u32,
}

impl Device {
    /// The MX2100 board (HLS flow target).
    ///
    /// The M20K capacity of 6,847 makes the paper's backprop utilization
    /// arithmetic exact: 12,898 BRAMs = 188%, 9,882 = 144%, 5,694 = 83%
    /// (§III-B / Table II).
    pub fn mx2100() -> Device {
        Device {
            kind: DeviceKind::StratixMx2100,
            name: "Stratix 10 MX2100",
            capacity: ResourceVector::new(1_404_672, 2_809_344, 6_847, 3_960),
            memory: MemorySystem::hbm2(),
            clock_mhz: 200,
        }
    }

    /// The SX2800 board (Vortex target).
    pub fn sx2800() -> Device {
        Device {
            kind: DeviceKind::StratixSx2800,
            name: "Stratix 10 SX2800",
            capacity: ResourceVector::new(1_866_240, 3_732_480, 11_721, 5_760),
            memory: MemorySystem::ddr4(),
            clock_mhz: 200,
        }
    }

    /// Utilization of this device by `used`.
    pub fn utilization(&self, used: &ResourceVector) -> Utilization {
        let pct = |u: u64, c: u64| 100.0 * u as f64 / c as f64;
        Utilization {
            aluts_pct: pct(used.aluts, self.capacity.aluts),
            ffs_pct: pct(used.ffs, self.capacity.ffs),
            brams_pct: pct(used.brams, self.capacity.brams),
            dsps_pct: pct(used.dsps, self.capacity.dsps),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    #[test]
    fn resource_vector_arithmetic() {
        let a = ResourceVector::new(1, 2, 3, 4);
        let b = ResourceVector::new(10, 20, 30, 40);
        assert_eq!((a + b).aluts, 11);
        assert_eq!(a.scaled(3).brams, 9);
        let mut c = a;
        c += b;
        assert_eq!(c.ffs, 22);
    }

    #[test]
    fn fits_and_overflow_detection() {
        let cap = ResourceVector::new(100, 100, 100, 100);
        assert!(ResourceVector::new(100, 1, 1, 1).fits_in(&cap));
        assert!(!ResourceVector::new(101, 1, 1, 1).fits_in(&cap));
        assert_eq!(
            ResourceVector::new(101, 1, 200, 1).first_overflow(&cap),
            Some("BRAM"),
            "BRAM reported first, matching the paper's failure mode"
        );
        assert_eq!(ResourceVector::new(1, 1, 1, 1).first_overflow(&cap), None);
    }

    #[test]
    fn backprop_utilization_matches_paper_percentages() {
        // Paper §III-B: 12,898 BRAMs = 188%, 9,882 = 144%, 5,694 = 83%.
        let dev = Device::mx2100();
        for (row, pct) in paper::TABLE2.iter().zip(paper::TABLE2_BRAM_PCT) {
            let used = dev.utilization(&row.area).brams_pct;
            assert_eq!(used.round() as u64, pct, "{}", row.label);
        }
    }

    #[test]
    fn boards_have_expected_memory() {
        assert_eq!(Device::mx2100().memory.kind, crate::MemoryKind::Hbm2);
        assert_eq!(Device::sx2800().memory.kind, crate::MemoryKind::Ddr4);
        assert!(Device::sx2800().capacity.brams > Device::mx2100().capacity.brams);
    }
}
