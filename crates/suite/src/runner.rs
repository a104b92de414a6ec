//! Executes a workload on one of the three back ends and verifies the
//! results — the suite's form of the paper's "identical source code on both
//! platforms" methodology. [`run`] is the one launch path: a suite
//! benchmark and an inline-source job are both a [`WorkloadOf`], and a
//! [`Backend`] picks the interpreter, the Vortex flow or the HLS flow.
//!
//! A run compiles only the kernels its workload launches: the front end
//! skips the other kernels' bodies unparsed, and the cache's `lower`, `opt`
//! and `vortex` stages are keyed on that selection. A selection of every
//! kernel is the whole module at every stage, under the key
//! `Cache::optimize` and `Cache::codegen_vortex` use, so a suite workload
//! shares its entries with them. The HLS synthesis gate still reads the
//! whole source as written.

use crate::spec::{HostData, LArg, LaunchOf, WorkloadOf};
use fpga_arch::Device;
use hls_flow::analysis::KernelProfile;
use ocl_ir::interp::{self, KernelArg, Limits, Memory};
use ocl_ir::passes::OptLevel;
use ocl_ir::Module;
use repro_util::diag::ReproError;
use repro_util::metrics;
use vortex_rt::{Arg, Buffer, VxSession};
use vortex_sim::{RecordingSink, SimConfig, SimStats, TraceEvent};

/// The optimization level every execution path shares unless a caller picks
/// another one — the automated form of the paper's §III-B "O1" rewrite.
///
/// Synthesis-area artifacts (Tables I–III) deliberately keep compiling the
/// source *as written*, because the paper's area story is about source-level
/// rewrites fed verbatim to the Intel SDK; see [`Backend::Hls`].
pub const DEFAULT_OPT: OptLevel = OptLevel::VariableReuse;

/// Which back end executes a workload, with the budget that binds it.
#[derive(Debug, Clone)]
pub enum Backend {
    /// The reference IR interpreter; `limits` bounds each work-item's steps.
    Interp { limits: Limits },
    /// The Vortex flow: codegen, then cycle-level simulation on `cfg`,
    /// whose `max_cycles` / `max_instructions` are the watchdog budgets.
    Vortex { cfg: SimConfig },
    /// The HLS flow: the synthesis gate for `device`, then the pipelined
    /// execution model under `hls_flow::execute_ndrange`'s fixed step limit.
    Hls { device: Device },
}

/// Everything observable about one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunOutcome {
    /// Simulated (Vortex) or modeled (HLS) cycles summed over all launches;
    /// 0 on the interpreter, which has no cycle model.
    pub cycles: u64,
    /// Dynamic instructions: simulator retires or interpreter steps.
    pub instructions: u64,
    /// Dynamic global loads and stores (interpreter and HLS only).
    pub global_loads: u64,
    pub global_stores: u64,
    /// Full simulator statistics, one entry per launch (Vortex only).
    pub launch_stats: Vec<SimStats>,
    /// Final contents of each workload buffer, in declaration order; empty
    /// for a [`HostData::Zeroed`] buffer, which is never read back.
    pub buffers: Vec<Vec<u32>>,
    /// Device printf output across all launches.
    pub printf_output: Vec<String>,
}

/// Run workload `w` of kernel source `source` on `backend` and verify it:
/// compile through the global cache, allocate and fill the buffers, bind
/// and launch each launch in order, read back, run the workload's check.
///
/// `level: None` compiles the source as written (Vortex codegen straight
/// off the lowered module; the interpreter and HLS at [`OptLevel::None`]).
/// The HLS synthesis gate always reads the source as written, and a ✗ is
/// [`ReproError::Synthesis`]. With `events`, each Vortex launch appends its
/// recorded [`TraceEvent`] stream.
pub fn run(
    backend: &Backend,
    source: &str,
    w: &WorkloadOf<'_>,
    level: Option<OptLevel>,
    mut events: Option<&mut Vec<Vec<TraceEvent>>>,
) -> Result<RunOutcome, ReproError> {
    let mut target = Target::open(backend, source, w, level)?;
    let bufs: Vec<Buffer> = w
        .buffers
        .iter()
        .map(|h| target.alloc(h))
        .collect::<Result<_, _>>()?;
    let mut out = RunOutcome::default();
    for l in &w.launches {
        let args = bind(&l.args, &bufs)?;
        target.launch(l, &args, &mut out, events.as_deref_mut())?;
    }
    let mut finals = Vec::with_capacity(bufs.len());
    for (h, &b) in w.buffers.iter().zip(&bufs) {
        let words = match h {
            HostData::Zeroed(_) => Vec::new(),
            _ => target.read(b, h.words())?,
        };
        finals.push(h.from_words(words.clone()));
        out.buffers.push(words);
    }
    (w.check)(&finals).map_err(|m| ReproError::WrongResult { message: m })?;
    Ok(out)
}

/// The device memory and compiled code one run executes with: a simulator
/// session, or the interpreter's memory and the optimized module.
enum Target {
    Sim(Box<VxSession>),
    Host {
        module: Module,
        mem: Memory,
        exec: HostExec,
    },
}

enum HostExec {
    Interp(Limits),
    /// The device, and the profile of each kernel launched so far.
    Hls(Device, Vec<KernelProfile>),
}

impl Target {
    /// Compile for `backend` the kernels the workload launches, and only
    /// those: the Vortex program, or the optimized module the interpreter
    /// and the HLS model run. A launched name the source does not define is
    /// the cache's harness error, `kernel `<name>` not found in source`. A
    /// Vortex session holds exactly the launched kernels, since its heap
    /// limit is sized from their largest stack.
    fn open(
        backend: &Backend,
        source: &str,
        w: &WorkloadOf<'_>,
        level: Option<OptLevel>,
    ) -> Result<Target, ReproError> {
        let cache = repro_cache::global();
        let launched: Vec<&str> = w.launches.iter().map(|l| l.kernel).collect();
        let host = |exec| {
            Ok(Target::Host {
                module: cache.optimize_kernels(
                    source,
                    level.unwrap_or(OptLevel::None),
                    &launched,
                )?,
                mem: Memory::new(32 << 20),
                exec,
            })
        };
        match backend {
            Backend::Interp { limits } => {
                metrics::counter_add("suite.runs.interp", 1);
                host(HostExec::Interp(*limits))
            }
            Backend::Vortex { cfg } => {
                metrics::counter_add("suite.runs.vortex", 1);
                let kernels = cache.codegen_kernels(source, level, cfg.hw.threads, &launched)?;
                Ok(Target::Sim(Box::new(VxSession::with_kernels(
                    cfg.clone(),
                    kernels,
                ))))
            }
            Backend::Hls { device } => {
                metrics::counter_add("suite.runs.hls", 1);
                cache.synthesize_hls(source, device)??;
                host(HostExec::Hls(device.clone(), Vec::new()))
            }
        }
    }

    /// Reserve `h` in device memory and fill it. A `Zeroed` buffer is only
    /// reserved: fresh device memory is zeroed.
    fn alloc(&mut self, h: &HostData) -> Result<Buffer, ReproError> {
        let bytes = h.bytes();
        let addr = match (self, h) {
            (Target::Sim(sess), HostData::Zeroed(_)) => return sess.alloc(bytes),
            (Target::Sim(sess), _) => return sess.alloc_u32(&h.to_words()),
            (Target::Host { mem, .. }, HostData::Zeroed(_)) => mem.try_alloc(bytes)?,
            (Target::Host { mem, .. }, _) => mem.try_alloc_u32(&h.to_words())?,
        };
        Ok(Buffer { addr, bytes })
    }

    fn launch(
        &mut self,
        l: &LaunchOf<'_>,
        args: &[Arg],
        out: &mut RunOutcome,
        events: Option<&mut Vec<Vec<TraceEvent>>>,
    ) -> Result<(), ReproError> {
        let (module, mem, exec) = match self {
            Target::Sim(sess) => {
                let r = metrics::time("suite.vortex.launch", || match events {
                    Some(events) => {
                        let mut sink = RecordingSink::default();
                        let r = sess.launch_named_with_sink(l.kernel, args, &l.nd, &mut sink)?;
                        events.push(sink.events);
                        Ok(r)
                    }
                    None => sess.launch_named(l.kernel, args, &l.nd),
                })?;
                out.cycles += r.stats.cycles;
                out.instructions += r.stats.instructions;
                out.launch_stats.push(r.stats);
                out.printf_output.extend(r.printf_output);
                return Ok(());
            }
            Target::Host { module, mem, exec } => (module, mem, exec),
        };
        let kernel = module.expect_kernel(l.kernel);
        let args: Vec<KernelArg> = args
            .iter()
            .map(|a| match *a {
                Arg::Buf(b) => KernelArg::Ptr(b.addr),
                Arg::I32(v) => KernelArg::I32(v),
                Arg::U32(v) => KernelArg::U32(v),
                Arg::F32(v) => KernelArg::F32(v),
            })
            .collect();
        let r = match exec {
            HostExec::Interp(limits) => metrics::time("suite.interp.launch", || {
                interp::run_ndrange(kernel, &args, &l.nd, mem, limits)
            })?,
            HostExec::Hls(device, profiles) => {
                let p = match profiles.iter().position(|p| p.name == kernel.name) {
                    Some(i) => &profiles[i],
                    None => {
                        profiles.push(hls_flow::analysis::profile(kernel));
                        profiles.last().expect("just pushed")
                    }
                };
                let r = hls_flow::execute_ndrange(kernel, p, &args, &l.nd, mem, device)?;
                out.cycles += r.cycles;
                r.exec
            }
        };
        out.instructions += r.steps;
        out.global_loads += r.global_loads;
        out.global_stores += r.global_stores;
        out.printf_output.extend(r.printf_output);
        Ok(())
    }

    fn read(&self, b: Buffer, words: usize) -> Result<Vec<u32>, ReproError> {
        Ok(match self {
            Target::Sim(sess) => sess.read_u32(b, words)?,
            Target::Host { mem, .. } => mem.read_u32_slice(b.addr, words),
        })
    }
}

/// Bind a launch's arguments: buffer indices to the allocated buffers,
/// scalars as given.
fn bind(args: &[LArg], bufs: &[Buffer]) -> Result<Vec<Arg>, ReproError> {
    args.iter()
        .map(|a| {
            Ok(match *a {
                LArg::Buf(i) => Arg::Buf(*bufs.get(i).ok_or_else(|| {
                    ReproError::harness(format!("arg references buffer {i} of {}", bufs.len()))
                })?),
                LArg::I32(v) => Arg::I32(v),
                LArg::U32(v) => Arg::U32(v),
                LArg::F32(v) => Arg::F32(v),
            })
        })
        .collect()
}

/// Assert two float slices match within `tol` (shared by benchmark checks).
pub fn expect_close(got: &[f32], want: &[f32], tol: f32, what: &str) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: length mismatch {} vs {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let scale = w.abs().max(1.0);
        if (g - w).abs() > tol * scale {
            return Err(format!("{what}[{i}]: got {g}, want {w}"));
        }
    }
    Ok(())
}

/// Assert two int slices match exactly.
pub fn expect_eq_i32(got: &[i32], want: &[i32], what: &str) -> Result<(), String> {
    match got.iter().zip(want).position(|(g, w)| g != w) {
        Some(i) => Err(format!("{what}[{i}]: got {}, want {}", got[i], want[i])),
        None if got.len() != want.len() => Err(format!("{what}: length mismatch")),
        None => Ok(()),
    }
}
