//! Benchmark specification types.

use ocl_ir::interp::NdRange;

/// Problem-size scale: `Test` keeps cycle-level simulation fast; `Paper`
/// approaches the evaluation sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Test,
    Paper,
}

impl Scale {
    /// Pick a size by scale.
    pub fn pick(self, test: u32, paper: u32) -> u32 {
        match self {
            Scale::Test => test,
            Scale::Paper => paper,
        }
    }
}

/// Host-side buffer contents.
#[derive(Debug, Clone, PartialEq)]
pub enum HostData {
    F32(Vec<f32>),
    I32(Vec<i32>),
    U32(Vec<u32>),
    /// `n` zero words, reserved on the device but never materialised on
    /// the host nor read back: an inline job's buffer. `n` comes off the
    /// wire, so its byte count saturates.
    Zeroed(u32),
}

impl HostData {
    /// Length in 32-bit words.
    pub fn words(&self) -> usize {
        match self {
            HostData::F32(v) => v.len(),
            HostData::I32(v) => v.len(),
            HostData::U32(v) => v.len(),
            HostData::Zeroed(n) => *n as usize,
        }
    }

    /// Length in bytes, saturating: no allocator has `u32::MAX` bytes, so an
    /// oversized buffer fails typed (`OutOfMemory`) instead of wrapping.
    pub(crate) fn bytes(&self) -> u32 {
        u32::try_from(self.words())
            .unwrap_or(u32::MAX)
            .saturating_mul(4)
    }

    /// Raw little-endian words. Panics on a `Zeroed` buffer, which has
    /// none on the host: its word count comes off the wire unbounded.
    pub fn to_words(&self) -> Vec<u32> {
        match self {
            HostData::F32(v) => v.iter().map(|x| x.to_bits()).collect(),
            HostData::I32(v) => v.iter().map(|x| *x as u32).collect(),
            HostData::U32(v) => v.clone(),
            HostData::Zeroed(_) => panic!("a zeroed buffer has no host words"),
        }
    }

    /// Interpret raw words back with this buffer's type. A `Zeroed` buffer
    /// has no host view and stays itself.
    pub fn from_words(&self, words: Vec<u32>) -> HostData {
        match self {
            HostData::F32(_) => HostData::F32(words.into_iter().map(f32::from_bits).collect()),
            HostData::I32(_) => HostData::I32(words.into_iter().map(|w| w as i32).collect()),
            HostData::U32(_) => HostData::U32(words),
            HostData::Zeroed(n) => HostData::Zeroed(*n),
        }
    }

    /// The f32 view (panics if the buffer is integer — test-code only).
    pub fn as_f32(&self) -> &[f32] {
        match self {
            HostData::F32(v) => v,
            other => panic!("expected f32 buffer, found {other:?}"),
        }
    }

    /// The i32 view.
    pub fn as_i32(&self) -> &[i32] {
        match self {
            HostData::I32(v) => v,
            other => panic!("expected i32 buffer, found {other:?}"),
        }
    }
}

/// A launch argument: a workload buffer by index or an immediate scalar.
/// The same enum an inline job carries on the wire.
pub use repro_sched::ArgSpec as LArg;

/// One kernel launch within a workload. `'k` is the lifetime of the kernel
/// name: `'static` for a suite benchmark ([`Launch`]), the request's for an
/// inline job.
#[derive(Debug, Clone)]
pub struct LaunchOf<'k> {
    pub kernel: &'k str,
    pub nd: NdRange,
    pub args: Vec<LArg>,
}

/// A suite benchmark's launch.
pub type Launch = LaunchOf<'static>;

/// Verification callback over the final buffer states.
pub type Check = Box<dyn Fn(&[HostData]) -> Result<(), String>>;

/// A concrete workload: buffers, launch sequence, verifier.
pub struct WorkloadOf<'k> {
    pub buffers: Vec<HostData>,
    pub launches: Vec<LaunchOf<'k>>,
    pub check: Check,
}

/// A suite benchmark's workload.
pub type Workload = WorkloadOf<'static>;

/// A benchmark of the suite.
pub struct Benchmark {
    /// Table I name.
    pub name: &'static str,
    /// Originating suite ("Rodinia" / "NVIDIA SDK").
    pub origin: &'static str,
    /// OpenCL-C subset source (all kernels).
    pub source: &'static str,
    /// Build a workload at the given scale.
    pub workload: fn(Scale) -> Workload,
}

/// Deterministic xorshift PRNG so workloads are reproducible without
/// threading a seed through every benchmark constructor.
pub struct Prng(u64);

impl Prng {
    pub fn new(seed: u64) -> Self {
        Prng(seed.max(1))
    }

    pub fn next_u32(&mut self) -> u32 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        (x >> 32) as u32
    }

    /// Uniform float in [0, 1).
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 / (1 << 24) as f32
    }

    /// Uniform integer in [0, n).
    pub fn below(&mut self, n: u32) -> u32 {
        self.next_u32() % n.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hostdata_roundtrip() {
        let d = HostData::F32(vec![1.5, -2.0]);
        let w = d.to_words();
        assert_eq!(d.from_words(w), d);
        let i = HostData::I32(vec![-3, 4]);
        assert_eq!(i.from_words(i.to_words()), i);
    }

    #[test]
    fn prng_is_deterministic() {
        let mut a = Prng::new(42);
        let mut b = Prng::new(42);
        for _ in 0..10 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
        let f = a.next_f32();
        assert!((0.0..1.0).contains(&f));
        assert!(a.below(10) < 10);
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Test.pick(8, 256), 8);
        assert_eq!(Scale::Paper.pick(8, 256), 256);
    }
}
