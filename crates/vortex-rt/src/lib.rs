//! `vortex-rt` — the host runtime for the soft-GPU flow.
//!
//! The counterpart of the extended PoCL runtime in the paper's Figure 5: it
//! owns device memory allocation, kernel-argument marshalling, NDRange
//! launch (writing the argument block the `vortex-cc` scheduler prologue
//! reads), and result readback from the simulator.
//!
//! Launch-time validation enforces the documented scheduling constraints of
//! the group-per-core scheduler: for kernels using barriers or `__local`
//! memory the flattened work-group size must be a multiple of the warp width
//! and fit within one core's warps × threads.

use std::sync::Arc;

use ocl_ir::interp::NdRange;
use repro_util::fault::{fire_param, FaultPoint};
use vortex_cc::CompiledKernel;
use vortex_isa::layout::{self, arg};
use vortex_sim::{Image, SimConfig, SimError, SimFault, SimResult, Simulator, TraceSink};

/// A device buffer handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Buffer {
    pub addr: u32,
    pub bytes: u32,
}

/// A kernel argument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arg {
    Buf(Buffer),
    I32(i32),
    U32(u32),
    F32(f32),
}

impl Arg {
    fn bits(&self) -> u32 {
        match self {
            Arg::Buf(b) => b.addr,
            Arg::I32(v) => *v as u32,
            Arg::U32(v) => *v,
            Arg::F32(v) => v.to_bits(),
        }
    }
}

/// Runtime failure modes.
#[derive(Debug)]
pub enum RtError {
    /// Host-side memory-system error (bounds on a buffer copy, argument
    /// block write): no kernel ran.
    Sim(SimError),
    /// The device faulted *while running a kernel*; partial statistics
    /// and printf output survive in the fault.
    Fault(Box<SimFault>),
    BadLaunch(String),
    OutOfMemory {
        requested: u32,
        available: u32,
    },
}

impl std::fmt::Display for RtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtError::Sim(e) => write!(f, "simulator: {e}"),
            RtError::Fault(e) => write!(f, "device fault: {e}"),
            RtError::BadLaunch(m) => write!(f, "bad launch: {m}"),
            RtError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "device out of memory: need {requested}, have {available}"
            ),
        }
    }
}

impl std::error::Error for RtError {}

impl From<SimError> for RtError {
    fn from(e: SimError) -> Self {
        RtError::Sim(e)
    }
}

impl From<Box<SimFault>> for RtError {
    fn from(f: Box<SimFault>) -> Self {
        RtError::Fault(f)
    }
}

impl From<RtError> for repro_util::diag::ReproError {
    fn from(e: RtError) -> Self {
        use repro_util::diag::ReproError as R;
        match e {
            RtError::Sim(e) => e.into(),
            RtError::Fault(f) => f.error.into(),
            RtError::BadLaunch(m) => R::Harness { message: m },
            RtError::OutOfMemory {
                requested,
                available,
            } => R::OutOfMemory {
                requested,
                available,
            },
        }
    }
}

/// A device session bound to one or more compiled kernels: allocate
/// buffers, launch any of them by name, read back. Device memory persists
/// across launches, so multi-kernel applications (gaussian's Fan1/Fan2,
/// sort phases, …) chain launches the way an OpenCL command queue does.
/// Each kernel is loaded as one [`Image`], whose op table is decoded once
/// and reused by every launch of that kernel.
pub struct VxSession {
    sim: Simulator,
    heap_next: u32,
    heap_limit: u32,
    kernels: Vec<CompiledKernel>,
    images: Vec<Arc<Image>>,
    current: usize,
}

impl VxSession {
    /// Create a session for one kernel on a machine described by `cfg`.
    pub fn new(cfg: SimConfig, kernel: CompiledKernel) -> Self {
        Self::with_kernels(cfg, vec![kernel])
    }

    /// Create a session holding several compiled kernels.
    ///
    /// # Panics
    /// Panics if any kernel was compiled for a different warp width than
    /// `cfg` specifies, or if no kernels are given — host-programming
    /// errors, not data errors.
    pub fn with_kernels(cfg: SimConfig, kernels: Vec<CompiledKernel>) -> Self {
        assert!(!kernels.is_empty(), "session needs at least one kernel");
        for k in &kernels {
            assert_eq!(
                k.threads, cfg.hw.threads,
                "kernel `{}` compiled for {} threads/warp, machine has {}",
                k.name, k.threads, cfg.hw.threads
            );
        }
        let mem_top = layout::GLOBAL_MEM_BYTES;
        let total_warps = cfg.hw.cores * cfg.hw.warps;
        let max_stack = kernels
            .iter()
            .map(|k| k.warp_stack_bytes)
            .max()
            .expect("nonempty");
        let stack_bytes = total_warps * max_stack;
        let images: Vec<_> = kernels
            .iter()
            .map(|k| Arc::new(Image::new(k.program.clone())))
            .collect();
        VxSession {
            sim: Simulator::with_image(cfg, Arc::clone(&images[0])),
            heap_next: layout::HEAP_BASE,
            heap_limit: mem_top - stack_bytes,
            kernels,
            images,
            current: 0,
        }
    }

    /// Allocate `bytes` of device memory (16-byte aligned).
    pub fn alloc(&mut self, bytes: u32) -> Result<Buffer, RtError> {
        let addr = self.heap_next;
        // Checked: `bytes` can come off the wire, and a sum that wraps
        // would pass the limit test as a tiny allocation.
        let next = addr
            .checked_add(bytes)
            .and_then(|n| n.checked_add(15))
            .map(|n| n & !15);
        match next {
            Some(next) if next <= self.heap_limit => {
                self.heap_next = next;
                Ok(Buffer { addr, bytes })
            }
            _ => Err(RtError::OutOfMemory {
                requested: bytes,
                available: self.heap_limit.saturating_sub(addr),
            }),
        }
    }

    /// Allocate and fill from host f32 data.
    pub fn alloc_f32(&mut self, data: &[f32]) -> Result<Buffer, RtError> {
        let b = self.alloc((data.len() * 4) as u32)?;
        self.write_f32(b, data)?;
        Ok(b)
    }

    /// Allocate and fill from host i32 data.
    pub fn alloc_i32(&mut self, data: &[i32]) -> Result<Buffer, RtError> {
        let b = self.alloc((data.len() * 4) as u32)?;
        self.write_i32(b, data)?;
        Ok(b)
    }

    /// Allocate and fill from host u32 data.
    pub fn alloc_u32(&mut self, data: &[u32]) -> Result<Buffer, RtError> {
        let b = self.alloc((data.len() * 4) as u32)?;
        self.sim.mem.write_words(b.addr, data.iter().copied())?;
        Ok(b)
    }

    /// Host -> device copy.
    pub fn write_f32(&mut self, b: Buffer, data: &[f32]) -> Result<(), RtError> {
        let words = data.iter().map(|v| v.to_bits());
        self.sim.mem.write_words(b.addr, words)?;
        Ok(())
    }

    /// Host -> device copy.
    pub fn write_i32(&mut self, b: Buffer, data: &[i32]) -> Result<(), RtError> {
        let words = data.iter().map(|&v| v as u32);
        self.sim.mem.write_words(b.addr, words)?;
        Ok(())
    }

    /// Device -> host copy.
    pub fn read_f32(&self, b: Buffer, len: usize) -> Result<Vec<f32>, RtError> {
        let bytes = self.sim.mem.read_bytes(b.addr, len * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Device -> host copy.
    pub fn read_i32(&self, b: Buffer, len: usize) -> Result<Vec<i32>, RtError> {
        let bytes = self.sim.mem.read_bytes(b.addr, len * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Device -> host copy.
    pub fn read_u32(&self, b: Buffer, len: usize) -> Result<Vec<u32>, RtError> {
        let bytes = self.sim.mem.read_bytes(b.addr, len * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Launch the session's (single) kernel over `nd`.
    pub fn launch(&mut self, args: &[Arg], nd: &NdRange) -> Result<SimResult, RtError> {
        self.launch_with_sink(args, nd, &mut vortex_sim::NopSink)
    }

    /// Like [`launch`](VxSession::launch), but streams [`TraceEvent`]s
    /// (vortex_sim::TraceEvent) from the run into `sink`.
    pub fn launch_with_sink<S: TraceSink>(
        &mut self,
        args: &[Arg],
        nd: &NdRange,
        sink: &mut S,
    ) -> Result<SimResult, RtError> {
        let name = self.kernels[self.current].name.clone();
        self.launch_named_with_sink(&name, args, nd, sink)
    }

    /// Launch kernel `name` over `nd` and run the machine to completion.
    pub fn launch_named(
        &mut self,
        name: &str,
        args: &[Arg],
        nd: &NdRange,
    ) -> Result<SimResult, RtError> {
        self.launch_named_with_sink(name, args, nd, &mut vortex_sim::NopSink)
    }

    /// Like [`launch_named`](VxSession::launch_named), but streams trace
    /// events into `sink`. The untraced entry points pass
    /// [`NopSink`](vortex_sim::NopSink), whose empty inlined handler keeps
    /// the simulator's hot loop free of tracing overhead.
    pub fn launch_named_with_sink<S: TraceSink>(
        &mut self,
        name: &str,
        args: &[Arg],
        nd: &NdRange,
        sink: &mut S,
    ) -> Result<SimResult, RtError> {
        let idx = self
            .kernels
            .iter()
            .position(|k| k.name == name)
            .ok_or_else(|| RtError::BadLaunch(format!("kernel `{name}` not in session")))?;
        if idx != self.current {
            self.current = idx;
            self.sim.set_image(Arc::clone(&self.images[idx]));
        }
        let kernel = &self.kernels[self.current];
        nd.validate()
            .map_err(|e| RtError::BadLaunch(e.to_string()))?;
        if args.len() != kernel.num_args {
            return Err(RtError::BadLaunch(format!(
                "kernel `{}` takes {} arguments, {} given",
                kernel.name,
                kernel.num_args,
                args.len()
            )));
        }
        let cfg = self.sim.cfg.clone();
        let harts = cfg.hw.cores * cfg.hw.warps * cfg.hw.threads;
        if !kernel.program.printf_table.is_empty() && harts > layout::PRINTF_HARTS {
            return Err(RtError::BadLaunch(format!(
                "kernel `{}` calls printf, whose buffers hold {} harts; the machine has {harts}",
                kernel.name,
                layout::PRINTF_HARTS
            )));
        }
        let gsize = nd.group_size();
        if kernel.group_mode {
            let wt = cfg.hw.warps * cfg.hw.threads;
            if !gsize.is_multiple_of(cfg.hw.threads) || gsize > wt {
                return Err(RtError::BadLaunch(format!(
                    "group-mode kernel `{}` needs group size ({gsize}) to be a \
                     multiple of threads/warp ({}) and at most warps*threads ({wt})",
                    kernel.name, cfg.hw.threads
                )));
            }
            if kernel.local_bytes > layout::LOCAL_MEM_BYTES {
                return Err(RtError::BadLaunch(format!(
                    "kernel needs {} bytes of local memory, core has {}",
                    kernel.local_bytes,
                    layout::LOCAL_MEM_BYTES
                )));
            }
        }
        let warp_stack_bytes = kernel.warp_stack_bytes;
        // Write the argument block.
        let groups = nd.num_groups();
        let base = layout::ARG_BASE;
        let w = |sim: &mut Simulator, off: u32, v: u32| sim.mem.write_u32(base + off, v);
        w(&mut self.sim, arg::GLOBAL_X, nd.global[0])?;
        w(&mut self.sim, arg::GLOBAL_Y, nd.global[1])?;
        w(&mut self.sim, arg::GLOBAL_Z, nd.global[2])?;
        w(&mut self.sim, arg::LOCAL_X, nd.local[0])?;
        w(&mut self.sim, arg::LOCAL_Y, nd.local[1])?;
        w(&mut self.sim, arg::LOCAL_Z, nd.local[2])?;
        w(&mut self.sim, arg::GROUPS_X, groups[0])?;
        w(&mut self.sim, arg::GROUPS_Y, groups[1])?;
        w(&mut self.sim, arg::GROUPS_Z, groups[2])?;
        w(&mut self.sim, arg::STACK_TOP, layout::GLOBAL_MEM_BYTES)?;
        w(&mut self.sim, arg::STACK_STRIDE, warp_stack_bytes)?;
        w(
            &mut self.sim,
            arg::BARRIER_WARPS,
            (gsize / cfg.hw.threads).max(1),
        )?;
        for (i, a) in args.iter().enumerate() {
            w(&mut self.sim, arg::KERNEL_ARGS + 4 * i as u32, a.bits())?;
        }
        // `sim.mem.dram_bitflip`: corrupt one heap word *before* the run.
        // Injected at the launch boundary, outside the simulation loop, so
        // the dense and event loops see the identical corrupted initial
        // image and classify the outcome bit-identically by construction.
        if let Some(p) = fire_param(FaultPoint::SimDramBitflip) {
            self.flip_heap_bit(p)?;
        }
        let result = self.sim.run_with_sink(sink)?;
        // `sim.mem.l2_bitflip`: corrupt one heap word *after* the run,
        // before the caller reads results back — a writeback-path flip.
        if let Some(p) = fire_param(FaultPoint::SimL2Bitflip) {
            self.flip_heap_bit(p)?;
        }
        Ok(result)
    }

    /// Flip one bit in the allocated heap region. `param` packs
    /// `word_offset << 8 | bit_index`; both are reduced modulo the live
    /// range so any plan value lands on real data. The damage is meant to
    /// surface through the workload's own verification as `WrongResult`
    /// (or a `Memory` fault if the flipped word feeds an address), never
    /// as a panic.
    fn flip_heap_bit(&mut self, param: u64) -> Result<(), RtError> {
        let heap_words = (self.heap_next - layout::HEAP_BASE) / 4;
        if heap_words == 0 {
            return Ok(());
        }
        let word = (param >> 8) as u32 % heap_words;
        let bit = (param & 0xff) as u32 % 32;
        let addr = layout::HEAP_BASE + word * 4;
        let bytes = self.sim.mem.read_bytes(addr, 4)?;
        let v = u32::from_le_bytes(bytes.try_into().unwrap());
        self.sim.mem.write_u32(addr, v ^ (1 << bit))?;
        Ok(())
    }
}

/// Compile `src` and launch kernel `name` in one step — the convenience
/// entry point examples and tests use. The source is compiled *as written*;
/// use [`compile_for_at`] to run the shared middle end first.
///
/// Compilation is served by the process-global content-addressed cache
/// ([`repro_cache::global`]); every kernel in the module is compiled and
/// cached together, and the named one is returned.
pub fn compile_for(
    src: &str,
    name: &str,
    cfg: &SimConfig,
) -> Result<CompiledKernel, Box<dyn std::error::Error>> {
    compile_named(src, name, cfg, None)
}

/// [`compile_for`] with the shared IR middle end run at `level` before
/// codegen, so callers can compare the Vortex flow across optimization
/// levels against the interpreter's semantics at the same level.
pub fn compile_for_at(
    src: &str,
    name: &str,
    cfg: &SimConfig,
    level: ocl_ir::passes::OptLevel,
) -> Result<CompiledKernel, Box<dyn std::error::Error>> {
    compile_named(src, name, cfg, Some(level))
}

fn compile_named(
    src: &str,
    name: &str,
    cfg: &SimConfig,
    level: Option<ocl_ir::passes::OptLevel>,
) -> Result<CompiledKernel, Box<dyn std::error::Error>> {
    let kernels = repro_cache::global().codegen_vortex(src, level, cfg.hw.threads)?;
    kernels
        .into_iter()
        .find(|k| k.name == name)
        .ok_or_else(|| format!("kernel `{name}` not found").into())
}
