//! Functional memory: flat global space plus per-core local (work-group)
//! memory windows.

use repro_util::diag::ReproError;
use vortex_isa::layout::{GLOBAL_MEM_BYTES, LOCAL_BASE, LOCAL_MEM_BYTES};

/// Byte-addressed functional memory.
#[derive(Debug, Clone)]
pub struct SimMemory {
    global: Vec<u8>,
    /// One local window per core.
    locals: Vec<Vec<u8>>,
}

impl SimMemory {
    pub fn new(cores: u32) -> Self {
        SimMemory {
            global: vec![0; GLOBAL_MEM_BYTES as usize],
            locals: (0..cores)
                .map(|_| vec![0; LOCAL_MEM_BYTES as usize])
                .collect(),
        }
    }

    /// True if `addr` is in the per-core local window.
    pub fn is_local(addr: u32) -> bool {
        addr >= LOCAL_BASE
    }

    /// The address space `addr` lies in, as a fault names it.
    fn space(addr: u32) -> String {
        if Self::is_local(addr) {
            "local"
        } else {
            "global"
        }
        .to_string()
    }

    /// An access at `addr` outside mapped memory. `pc` is 0 until the
    /// core that issued it fills it in.
    #[cold]
    fn out_of_bounds(addr: u32) -> ReproError {
        ReproError::OutOfBounds {
            addr,
            pc: 0,
            space: Self::space(addr),
        }
    }

    /// Reject word accesses to non-word-aligned addresses. The ISA is
    /// word-only (LW/SW/FLW/FSW/AMO), so this catches pointer arithmetic
    /// gone wrong in a kernel before it silently straddles elements.
    #[inline]
    fn check_aligned(addr: u32) -> Result<(), ReproError> {
        if !addr.is_multiple_of(4) {
            return Err(Self::misaligned(addr));
        }
        Ok(())
    }

    /// A word access at the unaligned `addr`; `pc` as for
    /// [`out_of_bounds`](SimMemory::out_of_bounds).
    #[cold]
    fn misaligned(addr: u32) -> ReproError {
        ReproError::Misaligned {
            addr,
            align: 4,
            pc: 0,
            space: Self::space(addr),
        }
    }

    /// Read a word from `addr` (global space).
    #[inline]
    pub fn read_u32(&self, addr: u32) -> Result<u32, ReproError> {
        Self::check_aligned(addr)?;
        let a = addr as usize;
        if a + 4 > self.global.len() {
            return Err(Self::out_of_bounds(addr));
        }
        Ok(u32::from_le_bytes(
            self.global[a..a + 4].try_into().unwrap(),
        ))
    }

    /// Write a word to `addr` (global space).
    #[inline]
    pub fn write_u32(&mut self, addr: u32, v: u32) -> Result<(), ReproError> {
        Self::check_aligned(addr)?;
        let a = addr as usize;
        if a + 4 > self.global.len() {
            return Err(Self::out_of_bounds(addr));
        }
        self.global[a..a + 4].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Read a word as seen by `core` (routing local-window addresses).
    // The word accessors run once per lane of every memory instruction.
    // Left to itself the compiler calls them out of line, which costs
    // `sim-paper` a few percent, so they are marked for inlining.
    #[inline]
    pub fn load(&self, core: u32, addr: u32) -> Result<u32, ReproError> {
        if Self::is_local(addr) {
            Self::check_aligned(addr)?;
            let off = (addr - LOCAL_BASE) as usize;
            let l = &self.locals[core as usize];
            if off + 4 > l.len() {
                return Err(Self::out_of_bounds(addr));
            }
            Ok(u32::from_le_bytes(l[off..off + 4].try_into().unwrap()))
        } else {
            self.read_u32(addr)
        }
    }

    /// Write a word as seen by `core`.
    #[inline]
    pub fn store(&mut self, core: u32, addr: u32, v: u32) -> Result<(), ReproError> {
        if Self::is_local(addr) {
            Self::check_aligned(addr)?;
            let off = (addr - LOCAL_BASE) as usize;
            let l = &mut self.locals[core as usize];
            if off + 4 > l.len() {
                return Err(Self::out_of_bounds(addr));
            }
            l[off..off + 4].copy_from_slice(&v.to_le_bytes());
            Ok(())
        } else {
            self.write_u32(addr, v)
        }
    }

    /// Bulk copy into global memory (runtime buffer writes).
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) -> Result<(), ReproError> {
        self.global_mut(addr, data.len())?.copy_from_slice(data);
        Ok(())
    }

    /// `len` bytes of global memory at `addr`: the one bounds check of the
    /// bulk writes.
    fn global_mut(&mut self, addr: u32, len: usize) -> Result<&mut [u8], ReproError> {
        let a = addr as usize;
        self.global
            .get_mut(a..a + len)
            .ok_or_else(|| Self::out_of_bounds(addr))
    }

    /// Bulk copy of 32-bit words into global memory, little-endian, with no
    /// intermediate byte buffer (runtime typed-buffer writes). Same bounds
    /// check and error as [`write_bytes`](SimMemory::write_bytes).
    pub fn write_words(
        &mut self,
        addr: u32,
        words: impl ExactSizeIterator<Item = u32>,
    ) -> Result<(), ReproError> {
        let dst = self.global_mut(addr, words.len() * 4)?;
        for (bytes, w) in dst.chunks_exact_mut(4).zip(words) {
            bytes.copy_from_slice(&w.to_le_bytes());
        }
        Ok(())
    }

    /// Bulk copy out of global memory (runtime buffer reads).
    pub fn read_bytes(&self, addr: u32, len: usize) -> Result<&[u8], ReproError> {
        let a = addr as usize;
        if a + len > self.global.len() {
            return Err(Self::out_of_bounds(addr));
        }
        Ok(&self.global[a..a + len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_roundtrip() {
        let mut m = SimMemory::new(1);
        m.write_u32(16, 0xDEADBEEF).unwrap();
        assert_eq!(m.read_u32(16).unwrap(), 0xDEADBEEF);
    }

    #[test]
    fn locals_are_per_core() {
        let mut m = SimMemory::new(2);
        m.store(0, LOCAL_BASE, 1).unwrap();
        m.store(1, LOCAL_BASE, 2).unwrap();
        assert_eq!(m.load(0, LOCAL_BASE).unwrap(), 1);
        assert_eq!(m.load(1, LOCAL_BASE).unwrap(), 2);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut m = SimMemory::new(1);
        let end = GLOBAL_MEM_BYTES;
        assert!(m.read_u32(end).is_err());
        assert!(m.store(0, LOCAL_BASE + LOCAL_MEM_BYTES, 0).is_err());
        assert!(m.write_bytes(end - 4, &[0; 8]).is_err());
        assert_eq!(
            m.write_words(end - 4, [0u32; 2].into_iter()),
            m.write_bytes(end - 4, &[0; 8])
        );
    }

    #[test]
    fn misaligned_word_access_rejected() {
        let mut m = SimMemory::new(1);
        assert!(matches!(
            m.read_u32(2),
            Err(ReproError::Misaligned { addr: 2, .. })
        ));
        assert!(matches!(
            m.store(0, LOCAL_BASE + 1, 7),
            Err(ReproError::Misaligned { .. })
        ));
        // Byte-granular bulk copies stay unconstrained (host-side memcpy).
        assert!(m.write_bytes(3, &[1, 2]).is_ok());
    }

    #[test]
    fn bulk_copies() {
        let mut m = SimMemory::new(1);
        m.write_bytes(8, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.read_bytes(8, 4).unwrap(), &[1, 2, 3, 4]);
        assert_eq!(m.read_u32(8).unwrap(), u32::from_le_bytes([1, 2, 3, 4]));
        let tail = GLOBAL_MEM_BYTES - 8;
        m.write_words(tail, [0x0403_0201, u32::MAX].into_iter())
            .unwrap();
        assert_eq!(
            m.read_bytes(tail, 8).unwrap(),
            &[1, 2, 3, 4, 255, 255, 255, 255]
        );
    }
}
