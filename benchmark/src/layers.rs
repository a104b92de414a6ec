//! The layer pass: one pass of a workload's generated jobs replayed in
//! this process, single-threaded, by calling each crate's public functions
//! and timing them from outside.
//!
//! Nothing under `crates/` is instrumented. The replay in [`Replay`] is the
//! suite's own job body (`ocl_suite::jobs::run_request`) written out call
//! by call so that a harness span can go around each one; its outcomes
//! must equal `run_oneshot`'s and the served ones, which is also what
//! keeps it honest. The same jobs run plain through `run_oneshot` for the
//! tracing overhead, through `Executor::run` and `serve_lines` for the
//! scheduler and serve-loop figures, and a short traced end-to-end run
//! supplies the two numbers only a live service has.

use std::collections::HashMap;
use std::io::Cursor;
use std::path::Path;
use std::time::Instant;

use fpga_arch::Device;
use hls_flow::SynthOptions;
use ocl_ir::interp::{self, KernelArg, Limits, Memory, NdRange};
use ocl_ir::passes::OptLevel;
use ocl_suite::jobs::sim_config;
use ocl_suite::{instantiate, run_oneshot, HostData, LArg, ReproError, Scale, DEFAULT_OPT};
use repro_cache::{Cache, CacheConfig, Stage};
use repro_core::{serve_lines, ServeOptions};
use repro_sched::{
    ArgSpec, ExecConfig, Executor, Flow, Job, JobRequest, JobStats, Payload,
    DEFAULT_MAX_INSTRUCTIONS,
};
use repro_util::{metrics, Json, ToJson};
use vortex_rt::{Arg, VxSession};
use vortex_sim::SimStats;

use crate::e2e::{self, check_response, Checker};
use crate::expect::Seen;
use crate::gen::{Batch, GenJob, Generator, Workload};
use crate::report::Measured;
use crate::spans::Recorder;
use crate::stats::median;
use crate::Paths;

/// Seconds of the short traced end-to-end run inside the layer pass.
const E2E_SECONDS: f64 = 2.0;
/// No-op jobs pushed through the executor for `sched.noop_job_us`.
const NOOP_JOBS: usize = 20_000;

/// The compile stages a job needs, as cache lookups.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Lookup<'a> {
    /// `Cache::codegen_vortex(src, level, threads)`.
    Vortex(&'a str, Option<OptLevel>, u32),
    /// `Cache::optimize(src, level)`.
    Opt(&'a str, OptLevel),
    /// `Cache::synthesize_hls(src, mx2100)`.
    Hls(&'a str),
}

fn source_of(req: &JobRequest) -> Result<&str, ReproError> {
    match &req.payload {
        Payload::Bench { name, .. } => ocl_suite::benchmark(name)
            .map(|b| b.source)
            .ok_or_else(|| ReproError::harness(format!("unknown benchmark `{name}`"))),
        Payload::Source { source, .. } => Ok(source),
    }
}

/// The lookups `run_request` makes for `req`, in its order.
fn lookups_of(req: &JobRequest) -> Result<Vec<Lookup<'_>>, ReproError> {
    let src = source_of(req)?;
    Ok(match (&req.payload, req.flow) {
        (Payload::Bench { .. }, Flow::Vortex) => {
            vec![Lookup::Vortex(
                src,
                Some(req.opt.unwrap_or(DEFAULT_OPT)),
                req.threads,
            )]
        }
        (Payload::Bench { .. }, Flow::Interp) => {
            vec![Lookup::Opt(src, req.opt.unwrap_or(DEFAULT_OPT))]
        }
        (Payload::Bench { .. }, Flow::Hls) => {
            vec![
                Lookup::Hls(src),
                Lookup::Opt(src, req.opt.unwrap_or(DEFAULT_OPT)),
            ]
        }
        (Payload::Source { .. }, Flow::Vortex) => vec![Lookup::Vortex(src, req.opt, req.threads)],
        (Payload::Source { .. }, _) => vec![Lookup::Opt(src, req.opt.unwrap_or(OptLevel::None))],
    })
}

/// Seconds each compile stage of each source took when called directly,
/// and the counts those calls produced.
#[derive(Default)]
struct RawCompile<'a> {
    /// `ocl_front::compile`, by source.
    frontend_ns: HashMap<&'a str, u64>,
    /// `optimize_module` + `verify_module`, by (source, level).
    optimize_ns: HashMap<(&'a str, u64), u64>,
    /// `compile_kernel` over the module, by (source, level, threads).
    codegen_ns: HashMap<(&'a str, u64, u32), u64>,
    /// `synthesize`, by source.
    synth_ns: HashMap<&'a str, u64>,
    kernels: u64,
    src_bytes: u64,
    rewrites: u64,
    insts_after: u64,
    instrs_emitted: u64,
    hls_fit: u64,
}

/// A level as a map key, the way the cache spells it (`OptLevel` is not
/// `Hash`): the discriminant, or all ones for "as written".
fn lv(level: Option<OptLevel>) -> u64 {
    level.map_or(u64::MAX, |l| l as u64)
}

impl<'a> RawCompile<'a> {
    /// Call the compiler crates directly for everything `wanted` needs:
    /// each distinct input once, each call under its own span.
    fn measure(rec: &mut Recorder, wanted: &[Lookup<'a>]) -> Result<RawCompile<'a>, ReproError> {
        let mut raw = RawCompile::default();
        let mut lowered: HashMap<&str, ocl_ir::Module> = HashMap::new();
        let mut optimized: HashMap<(&str, u64), ocl_ir::Module> = HashMap::new();
        for lk in wanted {
            let (src, level) = match *lk {
                Lookup::Vortex(s, l, _) => (s, l),
                Lookup::Opt(s, l) => (s, Some(l)),
                Lookup::Hls(s) => (s, None),
            };
            if !lowered.contains_key(src) {
                let id = rec.enter("frontend.compile");
                let module = ocl_front::compile(src);
                rec.exit(id);
                let module = module?;
                raw.frontend_ns.insert(src, rec.spans[id].dur_ns());
                raw.kernels += module.kernels.len() as u64;
                raw.src_bytes += src.len() as u64;
                lowered.insert(src, module);
            }
            if let (Some(l), false) = (level, optimized.contains_key(&(src, lv(level)))) {
                let mut module = lowered[src].clone();
                let id = rec.enter("ir.optimize");
                let report = ocl_ir::passes::optimize_module(&mut module, l);
                let verified = ocl_ir::verify::verify_module(&module);
                rec.exit(id);
                verified.map_err(|e| ReproError::Verify {
                    message: e.to_string(),
                })?;
                raw.optimize_ns
                    .insert((src, lv(level)), rec.spans[id].dur_ns());
                raw.rewrites += report.total_rewrites() as u64;
                raw.insts_after += report
                    .kernels
                    .iter()
                    .map(|k| k.insts_after as u64)
                    .sum::<u64>();
                optimized.insert((src, lv(level)), module);
            }
            match *lk {
                Lookup::Vortex(_, l, threads) => {
                    let module = optimized.get(&(src, lv(l))).unwrap_or(&lowered[src]);
                    let opts = vortex_cc::CodegenOpts { threads };
                    let id = rec.enter("vortex-cc.codegen");
                    let kernels: Result<Vec<_>, _> = module
                        .kernels
                        .iter()
                        .map(|k| vortex_cc::compile_kernel(k, &opts))
                        .collect();
                    rec.exit(id);
                    raw.codegen_ns
                        .insert((src, lv(l), threads), rec.spans[id].dur_ns());
                    raw.instrs_emitted +=
                        kernels?.iter().map(|k| k.program.len() as u64).sum::<u64>();
                }
                Lookup::Hls(_) => {
                    let id = rec.enter("hls.synthesize");
                    let r = hls_flow::synthesize(
                        &lowered[src],
                        &Device::mx2100(),
                        &SynthOptions::default(),
                    );
                    rec.exit(id);
                    raw.synth_ns.insert(src, rec.spans[id].dur_ns());
                    raw.hls_fit += u64::from(r.is_ok());
                }
                Lookup::Opt(..) => {}
            }
        }
        Ok(raw)
    }
}

/// Simulator statistics summed over every launch of the replay.
#[derive(Default)]
struct SimTotals {
    stats: SimStats,
    launches: u64,
}

impl SimTotals {
    fn add(&mut self, s: &SimStats) {
        let t = &mut self.stats;
        t.cycles += s.cycles;
        t.instructions += s.instructions;
        t.stall_scoreboard += s.stall_scoreboard;
        t.stall_lsu += s.stall_lsu;
        t.stall_barrier += s.stall_barrier;
        t.stall_idle += s.stall_idle;
        t.loads += s.loads;
        t.stores += s.stores;
        t.dcache_hits += s.dcache_hits;
        t.dcache_misses += s.dcache_misses;
        t.l2_hits += s.l2_hits;
        t.l2_misses += s.l2_misses;
        t.dram_accesses += s.dram_accesses;
        t.dram_row_hits += s.dram_row_hits;
        self.launches += 1;
    }
}

/// The job body of `ocl_suite::jobs`, call by call, under harness spans.
struct Replay<'a> {
    rec: Recorder,
    cache: Cache,
    raw: RawCompile<'a>,
    sim: SimTotals,
    interp_steps: u64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl<'a> Replay<'a> {
    /// One cache lookup under a `cache.hit` / `cache.miss` span. On a miss
    /// the stages the cache computed inside itself are adopted as children
    /// from their direct measurements, so the span's self time is what the
    /// cache itself added: fingerprint, encode, decode, LRU, disk.
    fn lookup(&mut self, lk: &Lookup<'a>) -> Result<Artifact, ReproError> {
        let before = self.cache.stats().misses_by_stage;
        let id = self.rec.enter("cache.hit");
        let got = match *lk {
            Lookup::Vortex(s, l, t) => self.cache.codegen_vortex(s, l, t).map(Artifact::Kernels),
            Lookup::Opt(s, l) => self.cache.optimize(s, l).map(Artifact::Module),
            Lookup::Hls(s) => self
                .cache
                .synthesize_hls(s, &Device::mx2100())
                .map(|r| Artifact::Synth(r.map(|_| ()))),
        };
        self.rec.exit(id);
        let after = self.cache.stats().misses_by_stage;
        let missed = |st: Stage| after[st.index()] > before[st.index()];
        if Stage::ALL.into_iter().any(missed) {
            self.rec.rename(id, "cache.miss");
            let (src, level, threads) = match *lk {
                Lookup::Vortex(s, l, t) => (s, l, t),
                Lookup::Opt(s, l) => (s, Some(l), 0),
                Lookup::Hls(s) => (s, None, 0),
            };
            let mut adopt = |name, ns: Option<&u64>| {
                if let Some(&ns) = ns {
                    self.rec.adopt(id, name, ns);
                }
            };
            if missed(Stage::Lower) {
                adopt("frontend.compile", self.raw.frontend_ns.get(src));
            }
            if let (true, Some(l)) = (missed(Stage::Opt), level) {
                adopt("ir.optimize", self.raw.optimize_ns.get(&(src, lv(Some(l)))));
            }
            if missed(Stage::Vortex) {
                adopt(
                    "vortex-cc.codegen",
                    self.raw.codegen_ns.get(&(src, lv(level), threads)),
                );
            }
            if missed(Stage::Hls) {
                adopt("hls.synthesize", self.raw.synth_ns.get(src));
            }
        }
        got
    }

    /// Replay one job. Mirrors `run_request` for each payload and flow.
    fn job(&mut self, index: u32, req: &'a JobRequest) -> Result<JobStats, ReproError> {
        self.rec.set_job(Some(index));
        let id = self.rec.enter("suite.job");
        let r = self.job_body(req);
        self.rec.exit(id);
        self.rec.set_job(None);
        r
    }

    fn job_body(&mut self, req: &'a JobRequest) -> Result<JobStats, ReproError> {
        let mut artifacts = Vec::new();
        for lk in lookups_of(req)? {
            let a = self.lookup(&lk)?;
            if let Artifact::Synth(Err(f)) = a {
                return Err(f.into());
            }
            artifacts.push(a);
        }
        match (&req.payload, req.flow) {
            (Payload::Bench { name, paper_scale }, flow) => {
                let b = ocl_suite::benchmark(name).expect("looked up by lookups_of");
                let scale = if *paper_scale {
                    Scale::Paper
                } else {
                    Scale::Test
                };
                let w = self
                    .rec
                    .leaf("suite.workload_build", || (b.workload)(scale));
                match (flow, artifacts.pop()) {
                    (Flow::Vortex, Some(Artifact::Kernels(k))) => self.bench_vortex(req, &w, k),
                    (_, Some(Artifact::Module(m))) => self.bench_interp(flow, &w, &m),
                    _ => unreachable!("lookups_of ends with the artifact the flow executes"),
                }
            }
            (
                Payload::Source {
                    kernel,
                    nd,
                    buffers,
                    args,
                    ..
                },
                Flow::Vortex,
            ) => {
                let Some(Artifact::Kernels(kernels)) = artifacts.pop() else {
                    unreachable!("inline vortex jobs look up kernels");
                };
                let nd = NdRange {
                    global: [nd.gx, nd.gy, 1],
                    local: [nd.lx, nd.ly, 1],
                };
                let compiled = kernels
                    .into_iter()
                    .find(|k| k.name == *kernel)
                    .ok_or_else(|| ReproError::harness(format!("kernel `{kernel}` not found")))?;
                let cfg = sim_config(req);
                let (mut sess, _, args) = self.rec.leaf("vortex-rt.session", || {
                    inline_session(cfg, compiled, buffers, args)
                })?;
                let r = self
                    .rec
                    .leaf("vortex-sim.run", || sess.launch(&args, &nd))?;
                self.sim.add(&r.stats);
                Ok(JobStats {
                    cycles: r.stats.cycles,
                    instructions: r.stats.instructions,
                })
            }
            (Payload::Source { .. }, _) => Err(ReproError::harness(
                "the benchmark sends inline sources on the vortex flow only",
            )),
        }
    }

    fn bench_vortex(
        &mut self,
        req: &JobRequest,
        w: &ocl_suite::Workload,
        kernels: Vec<vortex_cc::CompiledKernel>,
    ) -> Result<JobStats, ReproError> {
        let cfg = sim_config(req);
        let (mut sess, bufs) = self.rec.leaf("vortex-rt.session", || {
            let mut sess = VxSession::with_kernels(cfg, kernels);
            let bufs: Vec<vortex_rt::Buffer> = w
                .buffers
                .iter()
                .map(|h| sess.alloc_u32(&h.to_words()))
                .collect::<Result<_, _>>()?;
            Ok::<_, ReproError>((sess, bufs))
        })?;
        let mut stats = JobStats::default();
        for l in &w.launches {
            let args: Vec<Arg> = l
                .args
                .iter()
                .map(|a| match *a {
                    LArg::Buf(i) => Arg::Buf(bufs[i]),
                    LArg::I32(v) => Arg::I32(v),
                    LArg::U32(v) => Arg::U32(v),
                    LArg::F32(v) => Arg::F32(v),
                })
                .collect();
            let r = self.rec.leaf("vortex-sim.run", || {
                sess.launch_named(l.kernel, &args, &l.nd)
            })?;
            self.sim.add(&r.stats);
            stats.cycles += r.stats.cycles;
            stats.instructions += r.stats.instructions;
        }
        let words: Vec<Vec<u32>> = self.rec.leaf("vortex-rt.session", || {
            w.buffers
                .iter()
                .zip(&bufs)
                .map(|(h, &b)| sess.read_u32(b, h.words()))
                .collect::<Result<_, _>>()
        })?;
        self.verify(w, words)?;
        Ok(stats)
    }

    /// The interpreter and HLS flows share everything but the launch call.
    fn bench_interp(
        &mut self,
        flow: Flow,
        w: &ocl_suite::Workload,
        module: &ocl_ir::Module,
    ) -> Result<JobStats, ReproError> {
        let device = Device::mx2100();
        let mut mem = Memory::new(32 << 20);
        let addrs: Vec<u32> = w
            .buffers
            .iter()
            .map(|h| mem.try_alloc_u32(&h.to_words()))
            .collect::<Result<_, _>>()?;
        let mut stats = JobStats::default();
        for l in &w.launches {
            let kernel = module
                .kernel(l.kernel)
                .ok_or_else(|| ReproError::harness(format!("kernel `{}` missing", l.kernel)))?;
            let args: Vec<KernelArg> = l
                .args
                .iter()
                .map(|a| match *a {
                    LArg::Buf(i) => KernelArg::Ptr(addrs[i]),
                    LArg::I32(v) => KernelArg::I32(v),
                    LArg::U32(v) => KernelArg::U32(v),
                    LArg::F32(v) => KernelArg::F32(v),
                })
                .collect();
            if flow == Flow::Hls {
                // `hls_flow::execute_ndrange`, step by step.
                let p = self
                    .rec
                    .leaf("hls.profile", || hls_flow::analysis::profile(kernel));
                let exec = self.rec.leaf("hls.execute", || {
                    interp::run_ndrange(kernel, &args, &l.nd, &mut mem, &Limits::default())
                })?;
                let steps = exec.steps;
                let run = self.rec.leaf("hls.estimate", || {
                    hls_flow::perf::estimate(&p, &l.nd, exec, &device)
                });
                stats.cycles += run.cycles;
                stats.instructions += steps;
            } else {
                let r = self.rec.leaf("ir.interp", || {
                    interp::run_ndrange(kernel, &args, &l.nd, &mut mem, &Limits::default())
                })?;
                self.interp_steps += r.steps;
                stats.instructions += r.steps;
            }
        }
        let words = w
            .buffers
            .iter()
            .zip(&addrs)
            .map(|(h, &a)| mem.read_u32_slice(a, h.words()))
            .collect();
        self.verify(w, words)?;
        Ok(stats)
    }

    fn verify(&mut self, w: &ocl_suite::Workload, words: Vec<Vec<u32>>) -> Result<(), ReproError> {
        self.rec.leaf("suite.verify", || {
            let finals: Vec<HostData> = w
                .buffers
                .iter()
                .zip(words)
                .map(|(h, ws)| h.from_words(ws))
                .collect();
            (w.check)(&finals).map_err(|m| ReproError::WrongResult { message: m })
        })
    }
}

/// A session for one inline kernel: its zero-filled buffers allocated and
/// its arguments bound, as `run_request` does for an inline-source job.
fn inline_session(
    cfg: vortex_sim::SimConfig,
    compiled: vortex_cc::CompiledKernel,
    buffers: &[u32],
    args: &[ArgSpec],
) -> Result<(VxSession, Vec<vortex_rt::Buffer>, Vec<Arg>), ReproError> {
    let mut sess = VxSession::new(cfg, compiled);
    let bufs: Vec<vortex_rt::Buffer> = buffers
        .iter()
        .map(|&w| sess.alloc(w * 4))
        .collect::<Result<_, _>>()?;
    let args = args
        .iter()
        .map(|a| match *a {
            ArgSpec::Buf(i) => Arg::Buf(bufs[i]),
            ArgSpec::I32(v) => Arg::I32(v),
            ArgSpec::U32(v) => Arg::U32(v),
            ArgSpec::F32(v) => Arg::F32(v),
        })
        .collect();
    Ok((sess, bufs, args))
}

enum Artifact {
    Kernels(Vec<vortex_cc::CompiledKernel>),
    Module(ocl_ir::Module),
    Synth(Result<(), hls_flow::SynthFailure>),
}

/// The jobs of the layer pass: the first `layer_batches` batches of the
/// seed's first pass (for `compile-cold`, of the given epoch).
fn layer_batches(w: Workload, seed: u64, epoch: u64) -> Vec<Batch> {
    let mut g = Generator::with_epoch(w, seed, epoch);
    (0..w.layer_batches()).map(|_| g.next_batch()).collect()
}

fn jobs_of(batches: &[Batch]) -> Vec<&GenJob> {
    batches.iter().flat_map(|b| &b.jobs).collect()
}

/// Distinct lookups of a job list, in first-use order.
fn distinct_lookups<'a>(jobs: &[&'a GenJob]) -> Result<Vec<Lookup<'a>>, ReproError> {
    let mut out = Vec::new();
    for j in jobs {
        for lk in lookups_of(&j.req)? {
            if !out.contains(&lk) {
                out.push(lk);
            }
        }
    }
    Ok(out)
}

/// What the cache part of the layer pass counted.
pub struct CacheCounts {
    pub misses: u64,
    pub warm_lookups: u64,
    pub warm_hits: u64,
}

/// Everything about one workload's jobs that runs through the private
/// cache and the replay. `execute` false stops after the lookups (used by
/// the unit tests, which cannot afford the simulator in a debug build).
struct ReplayOutcome<'a> {
    replay: Replay<'a>,
    counts: CacheCounts,
    outcomes: Vec<Result<JobStats, ReproError>>,
    wall_s: f64,
    /// Wall of the cold lookups on the twin cache (the other disk setting).
    twin_miss_s: f64,
}

fn replay_jobs<'a>(
    w: Workload,
    jobs: &[&'a GenJob],
    cache_dir: &Path,
    execute: bool,
) -> Result<ReplayOutcome<'a>, ReproError> {
    let mut rec = Recorder::new();
    let wanted = distinct_lookups(jobs)?;
    let raw = RawCompile::measure(&mut rec, &wanted)?;
    // The replay's cache is configured as the served child's is; its twin
    // is the other configuration, and the difference between their cold
    // lookups is what the disk tier (tmp file, rename) adds to a miss.
    let with_disk = |on: bool| {
        Cache::new(CacheConfig {
            disk_dir: on.then(|| cache_dir.to_path_buf()),
            ..CacheConfig::default()
        })
    };
    let cache = with_disk(w.disk_cache());
    let twin = with_disk(!w.disk_cache());
    let mut replay = Replay {
        rec,
        cache,
        raw,
        sim: SimTotals::default(),
        interp_steps: 0,
    };
    let t = Instant::now();
    for lk in &wanted {
        match *lk {
            Lookup::Vortex(s, l, th) => drop(twin.codegen_vortex(s, l, th)?),
            Lookup::Opt(s, l) => drop(twin.optimize(s, l)?),
            Lookup::Hls(s) => drop(twin.synthesize_hls(s, &Device::mx2100())?),
        }
    }
    let twin_miss_s = t.elapsed().as_secs_f64();
    drop(twin);

    // Warm workloads meet a warm cache, as the service does after set-up:
    // the cold lookups happen here, outside any job. `compile-cold` meets
    // the cache cold inside the replay and warm in a second round after it.
    let cold_first = w != Workload::CompileCold;
    if cold_first {
        for lk in &wanted {
            replay.lookup(lk)?;
        }
    }
    let cold = replay.cache.stats();
    let started = Instant::now();
    let mut outcomes = Vec::new();
    for (i, j) in jobs.iter().enumerate() {
        if execute {
            outcomes.push(replay.job(i as u32, &j.req));
        } else {
            for lk in lookups_of(&j.req)? {
                replay.lookup(&lk)?;
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let after_jobs = replay.cache.stats();
    if !cold_first {
        // The hit path on the now-warm instance: the last batch's jobs,
        // whose artifacts the memory tier (512 entries) still holds.
        let last = jobs.len().saturating_sub(w.batch_jobs());
        for j in &jobs[last..] {
            for lk in lookups_of(&j.req)? {
                replay.lookup(&lk)?;
            }
        }
    }
    let end = replay.cache.stats();
    let (cold_stats, warm_from, warm_to) = if cold_first {
        (cold, cold, after_jobs)
    } else {
        (after_jobs, after_jobs, end)
    };
    let lookups = |s: &repro_cache::CacheStats| s.hits() + s.misses;
    let counts = CacheCounts {
        misses: cold_stats.misses,
        warm_lookups: lookups(&warm_to) - lookups(&warm_from),
        warm_hits: warm_to.hits() - warm_from.hits(),
    };
    Ok(ReplayOutcome {
        replay,
        counts,
        outcomes,
        wall_s,
        twin_miss_s,
    })
}

fn arm(on: bool) {
    if on {
        metrics::enable();
        metrics::window_enable();
        repro_obs::arm();
    } else {
        repro_obs::disarm();
        metrics::window_disable();
        metrics::disable();
    }
}

/// Feed the outcomes of an in-process run to the checker.
fn check_results(
    checker: &mut Checker,
    jobs: &[&GenJob],
    results: impl IntoIterator<Item = Result<JobStats, ReproError>>,
) {
    let mut results = results.into_iter();
    for j in jobs {
        checker.outcome(j, results.next().map(|r| Seen::from_result(&r)));
    }
}

/// `serve_lines` over in-memory buffers; returns its wall seconds and
/// checks every response.
fn serve_in_memory(
    exec: &Executor,
    batches: &[Batch],
    checker: &mut Checker,
) -> Result<f64, String> {
    let input: String = batches.iter().map(|b| b.text.as_str()).collect();
    let opts = ServeOptions {
        workers: exec.workers(),
        ..ServeOptions::default()
    };
    let mut out = Vec::new();
    let t = Instant::now();
    serve_lines(exec, &opts, Cursor::new(input.as_bytes()), &mut out)
        .map_err(|e| format!("serve_lines: {e}"))?;
    let wall = t.elapsed().as_secs_f64();
    let text = String::from_utf8(out).map_err(|e| format!("serve output: {e}"))?;
    let mut rest = text.as_str();
    for b in batches {
        // One batch's response: its outcome lines and the summary line.
        let mut end = 0;
        for _ in 0..=b.jobs.len() {
            end += rest[end..].find('\n').map_or(rest.len() - end, |i| i + 1);
        }
        check_response(checker, b, &rest[..end], None);
        rest = &rest[end..];
    }
    Ok(wall)
}

/// Run `f` `reps` times and return the median of what it returns.
fn median_of(reps: usize, mut f: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let v: Vec<f64> = (0..reps).map(|_| f()).collect::<Result<_, _>>()?;
    Ok(median(&v))
}

fn harness(e: ReproError) -> String {
    format!("layer pass: {e}")
}

pub fn run(paths: &Paths, w: Workload, seed: u64) -> Result<Measured, String> {
    let started = Instant::now();
    let dir = paths
        .scratch
        .join(format!("layers-{}-{}", w.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut m: HashMap<&'static str, f64> = HashMap::new();

    // The two numbers only the live service has, and the shape table the
    // in-process outcomes below are held against.
    let (served, mut checker) =
        e2e::run(&paths.repro, &paths.scratch, w, seed, E2E_SECONDS, 1, true)?;
    m.insert(
        "core.queue_wait_mean_ms",
        ratio(
            served.spans.queue_wait_us as f64 / 1e3,
            served.spans.outcomes as f64,
        ),
    );
    m.insert(
        "obs.spans_per_job",
        ratio(served.spans.spans as f64, served.spans.outcomes as f64),
    );
    m.insert("bench.client_frac", served.client_frac());
    m.insert("bench.e2e_batches", served.batches() as f64);
    let served_failed = served.failed;
    let mut notes = served.notes.clone();

    // The global cache is set up as the served child's is.
    repro_cache::init_global(CacheConfig {
        disk_dir: w.disk_cache().then(|| dir.join("global-cache")),
        ..CacheConfig::default()
    });
    // Passes this short are repeated and the median taken.
    let reps = if w == Workload::ServeSmall { 5 } else { 3 };
    let cold = w == Workload::CompileCold;
    // Each in-process pass of `compile-cold` takes its own epoch of fresh
    // sources; the warm workloads replay one list throughout.
    let mut epoch = 0u64;
    let mut fresh = || {
        epoch += 1;
        layer_batches(w, seed, if cold { epoch } else { 0 })
    };

    // -- suite: the plain pass --------------------------------------------
    arm(false);
    if !cold {
        let warm = fresh();
        let jobs = jobs_of(&warm);
        check_results(
            &mut checker,
            &jobs,
            jobs.iter().map(|j| run_oneshot(&j.req)),
        );
    }
    let mut plain = Vec::new();
    let mut results = Vec::new();
    let oneshot_s = median_of(reps, || {
        plain = fresh();
        let t = Instant::now();
        results = jobs_of(&plain)
            .iter()
            .map(|j| run_oneshot(&j.req))
            .collect();
        Ok(t.elapsed().as_secs_f64())
    })?;
    let jobs = jobs_of(&plain);
    let n_jobs = jobs.len();
    check_results(&mut checker, &jobs, results);
    m.insert("suite.run_oneshot_s", oneshot_s);
    m.insert("bench.layer_jobs", n_jobs as f64);

    // -- the traced replay --------------------------------------------------
    let traced = fresh();
    let tjobs = jobs_of(&traced);
    let out = replay_jobs(w, &tjobs, &dir.join("private-cache"), true).map_err(harness)?;
    check_results(&mut checker, &tjobs, out.outcomes);
    let rec = &out.replay.rec;
    let self_s = rec.self_secs(|_| true);
    let s = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    let raw = &out.replay.raw;
    // Compile seconds are the direct calls' own spans, not the adopted
    // copies that only exist to take them out of the cache's self time.
    let direct = |name: &str| {
        rec.spans
            .iter()
            .filter(|sp| sp.name == name && !sp.adopted)
            .map(|sp| sp.dur_ns() as f64 * 1e-9)
            .sum::<f64>()
    };
    m.insert("frontend.compile_s", direct("frontend.compile"));
    m.insert("frontend.kernels", raw.kernels as f64);
    m.insert(
        "frontend.src_kb_per_s",
        ratio(raw.src_bytes as f64 / 1e3, direct("frontend.compile")),
    );
    m.insert("ir.optimize_s", direct("ir.optimize"));
    m.insert("ir.rewrites", raw.rewrites as f64);
    m.insert("ir.insts_after", raw.insts_after as f64);
    m.insert("vortex-cc.codegen_s", direct("vortex-cc.codegen"));
    m.insert("vortex-cc.instrs_emitted", raw.instrs_emitted as f64);
    m.insert("hls.synthesize_s", direct("hls.synthesize"));
    m.insert("hls.fit_count", raw.hls_fit as f64);
    m.insert("cache.miss_count", out.counts.misses as f64);
    m.insert("cache.miss_overhead_s", s("cache.miss"));
    let disk_sign = if w.disk_cache() { 1.0 } else { -1.0 };
    m.insert(
        "cache.disk_overhead_s",
        disk_sign * (rec.total_secs("cache.miss") - out.twin_miss_s),
    );
    m.insert("cache.hit_count", out.counts.warm_hits as f64);
    m.insert("cache.hit_s", s("cache.hit"));
    m.insert(
        "cache.hit_rate",
        ratio(out.counts.warm_hits as f64, out.counts.warm_lookups as f64),
    );
    let cstats = out.replay.cache.stats();
    m.insert("cache.evictions", cstats.evictions as f64);
    m.insert(
        "cache.artifact_bytes",
        repro_cache::disk::DiskStats::scan(dir.join("private-cache")).total_bytes as f64,
    );
    m.insert("suite.workload_build_s", s("suite.workload_build"));
    m.insert("suite.verify_s", s("suite.verify"));
    m.insert("vortex-rt.session_s", s("vortex-rt.session"));
    m.insert("ir.interp_s", s("ir.interp"));
    m.insert(
        "ir.interp_msteps_per_s",
        ratio(out.replay.interp_steps as f64 / 1e6, s("ir.interp")),
    );
    m.insert("hls.execute_s", s("hls.execute"));
    m.insert("hls.estimate_s", s("hls.estimate") + s("hls.profile"));
    let sim = &out.replay.sim.stats;
    let run_s = s("vortex-sim.run");
    m.insert("vortex-sim.run_s", run_s);
    m.insert(
        "vortex-sim.minstr_per_s",
        ratio(sim.instructions as f64 / 1e6, run_s),
    );
    m.insert(
        "vortex-sim.mcycles_per_s",
        ratio(sim.cycles as f64 / 1e6, run_s),
    );
    m.insert("vortex-sim.instructions", sim.instructions as f64);
    m.insert("vortex-sim.cycles", sim.cycles as f64);
    m.insert(
        "vortex-sim.ipc",
        ratio(sim.instructions as f64, sim.cycles as f64),
    );
    m.insert(
        "vortex-sim.dcache_hit_rate",
        ratio(
            sim.dcache_hits as f64,
            (sim.dcache_hits + sim.dcache_misses) as f64,
        ),
    );
    m.insert(
        "vortex-sim.l2_hit_rate",
        ratio(sim.l2_hits as f64, (sim.l2_hits + sim.l2_misses) as f64),
    );
    m.insert("vortex-sim.dram_accesses", sim.dram_accesses as f64);
    let stalls = sim.stall_total() as f64;
    m.insert(
        "vortex-sim.stall_scoreboard_frac",
        ratio(sim.stall_scoreboard as f64, stalls),
    );
    m.insert(
        "vortex-sim.stall_lsu_frac",
        ratio(sim.stall_lsu as f64, stalls),
    );
    m.insert(
        "vortex-sim.stall_barrier_frac",
        ratio(sim.stall_barrier as f64, stalls),
    );
    m.insert(
        "vortex-sim.stall_idle_frac",
        ratio(sim.stall_idle as f64, stalls),
    );
    // Tiling: what the layers' spans account for of the replay's own job
    // spans; the rest (the harness's glue between calls) is printed, not
    // hidden. Shares are taken within the replay, not against the plain
    // pass: on the reference host two passes a second apart differ by more
    // than any layer but the largest.
    let mut in_jobs = rec.self_secs(|sp| sp.job != u32::MAX);
    let glue = in_jobs.remove("suite.job").unwrap_or(0.0);
    let attributed: f64 = in_jobs.values().sum();
    m.insert(
        "bench.trace_overhead_frac",
        ratio(out.wall_s - oneshot_s, oneshot_s),
    );
    let job_s = attributed + glue;
    m.insert("bench.unattributed_frac", ratio(glue, job_s));
    let mut shares: Vec<(&str, f64)> = in_jobs.iter().map(|(&n, &v)| (n, v / job_s)).collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    let shares_line = shares
        .iter()
        .map(|(n, v)| format!("{n} {:.1} %", 100.0 * v))
        .chain([format!("unattributed {:.1} %", 100.0 * glue / job_s)])
        .collect::<Vec<_>>()
        .join(", ");
    let trace_path = paths.scratch.join(format!("{}.trace.json", w.name()));
    rec.write_chrome(&trace_path)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    // The cache contract holds or the run is not correct: every cold
    // inline job misses at its three stages (lower, opt, vortex), and a
    // warm cache only hits.
    if cold && out.counts.misses != 3 * tjobs.len() as u64 {
        checker.fail(format!(
            "compile-cold: {} cache misses for {} jobs x 3 stages",
            out.counts.misses,
            tjobs.len()
        ));
    }
    if out.counts.warm_hits != out.counts.warm_lookups {
        checker.fail(format!(
            "warm cache: {} hits of {} lookups",
            out.counts.warm_hits, out.counts.warm_lookups
        ));
    }
    // A workload whose design does not hold on this host says so.
    let share = ratio(run_s, job_s);
    let compile_share = ratio(
        [
            "frontend.compile",
            "ir.optimize",
            "vortex-cc.codegen",
            "cache.miss",
        ]
        .iter()
        .map(|n| in_jobs.get(n).copied().unwrap_or(0.0))
        .sum(),
        job_s,
    );
    let design_holds = match w {
        Workload::SimPaper => share >= 0.85,
        Workload::CompileCold => share <= 0.35 && compile_share >= 0.5,
        Workload::HlsInterp => run_s == 0.0,
        Workload::ServeSmall => true,
    };
    if !design_holds {
        notes.push(format!(
            "workload design does not hold on this host: vortex-sim share {share:.3}, compile+cache share {compile_share:.3}"
        ));
    }

    // -- sched and core: the executor and the serve loop --------------------
    arm(true);
    metrics::reset();
    let width = e2e::workers();
    // Batch by batch, as the service submits them: a 4-job batch gives a
    // second worker less to take than the whole list at once would.
    let run_on = |exec: &Executor, batches: &[Batch], checker: &mut Checker| {
        let mut wall = 0.0;
        let mut outcomes = Vec::new();
        for b in batches {
            let jobs: Vec<Job> = b.jobs.iter().map(|j| instantiate(j.req.clone())).collect();
            let t = Instant::now();
            let done = exec.run(jobs);
            wall += t.elapsed().as_secs_f64();
            let refs: Vec<&GenJob> = b.jobs.iter().collect();
            check_results(checker, &refs, done.iter().map(|o| o.result.clone()));
            outcomes.extend(done);
        }
        (wall, outcomes)
    };
    let one = Executor::new(ExecConfig::with_workers(1));
    let wall_1w = median_of(reps, || Ok(run_on(&one, &fresh(), &mut checker).0))?;
    drop(one);
    let pool = Executor::new(ExecConfig::with_workers(width));
    let mut outcomes = Vec::new();
    let wall_2w = median_of(reps, || {
        let (wall, o) = run_on(&pool, &fresh(), &mut checker);
        outcomes = o;
        Ok(wall)
    })?;
    m.insert("sched.speedup_2w", ratio(wall_1w, wall_2w));
    m.insert("sched.steals", pool.stats().steals() as f64 / reps as f64);
    m.insert("sched.parks", pool.stats().parks() as f64 / reps as f64);
    let snap = metrics::snapshot();
    let (hits, misses) = (
        snap.counter("sim.trace_cache.hits").unwrap_or(0),
        snap.counter("sim.trace_cache.misses").unwrap_or(0),
    );
    m.insert(
        "vortex-sim.tcache_hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
    );
    let armed_s = median_of(reps, || serve_in_memory(&pool, &fresh(), &mut checker))?;
    m.insert(
        "core.serve_overhead_us_per_job",
        (armed_s - wall_2w) * 1e6 / n_jobs as f64,
    );
    arm(false);
    let disarmed_s = median_of(reps, || serve_in_memory(&pool, &fresh(), &mut checker))?;
    m.insert(
        "obs.armed_overhead_frac",
        ratio(armed_s - disarmed_s, disarmed_s),
    );
    arm(true);
    let noop = JobRequest::bench("Vecadd", Flow::Interp);
    let noops: Vec<Job> = (0..NOOP_JOBS)
        .map(|_| Job::new(noop.clone(), |_, _| Ok(JobStats::default())))
        .collect();
    let t = Instant::now();
    let done = pool.run(noops);
    m.insert(
        "sched.noop_job_us",
        t.elapsed().as_secs_f64() * 1e6 / done.len() as f64,
    );
    arm(false);
    drop(pool);

    // -- util and sched: the wire forms --------------------------------------
    const WIRE_REPS: usize = 20;
    let lines: Vec<&str> = plain
        .iter()
        .flat_map(|b| b.text.lines())
        .filter(|l| !l.is_empty())
        .collect();
    let bytes: usize = lines.iter().map(|l| l.len()).sum();
    let mut parsed = Vec::new();
    let parse_s = median_of(WIRE_REPS, || {
        let t = Instant::now();
        parsed = lines
            .iter()
            .map(|l| Json::parse(std::hint::black_box(l)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        Ok(t.elapsed().as_secs_f64())
    })?;
    m.insert("util.json_parse_s", parse_s);
    m.insert(
        "util.json_parse_mb_per_s",
        ratio(bytes as f64 / 1e6, parse_s),
    );
    let objects: Vec<&Json> = parsed
        .iter()
        .flat_map(|j| match j {
            Json::Array(items) => items.iter().collect::<Vec<_>>(),
            other => vec![other],
        })
        .collect();
    m.insert(
        "sched.request_parse_s",
        median_of(WIRE_REPS, || {
            let t = Instant::now();
            for o in &objects {
                std::hint::black_box(JobRequest::parse(o)?);
            }
            Ok(t.elapsed().as_secs_f64())
        })?,
    );
    let mut emitted = Vec::new();
    m.insert(
        "sched.outcome_emit_s",
        median_of(WIRE_REPS, || {
            let t = Instant::now();
            emitted = outcomes
                .iter()
                .map(|o| std::hint::black_box(o).to_json())
                .collect();
            Ok(t.elapsed().as_secs_f64())
        })?,
    );
    m.insert(
        "util.json_emit_s",
        median_of(WIRE_REPS, || {
            let t = Instant::now();
            for j in &emitted {
                std::hint::black_box(j.to_compact());
            }
            Ok(t.elapsed().as_secs_f64())
        })?,
    );

    // -- vortex-sim: the other run loops -------------------------------------
    let vortex: Vec<&GenJob> = jobs
        .iter()
        .copied()
        .filter(|j| j.req.flow == Flow::Vortex)
        .collect();
    let timed = |req: &JobRequest| {
        let t = Instant::now();
        let r = run_oneshot(req);
        (t.elapsed().as_secs_f64(), r)
    };
    // Dense reference loop against the event loop, on a seeded 1-in-8 sample.
    let (mut fast_s, mut dense_s) = (0.0, 0.0);
    for j in vortex.iter().skip((seed % 8) as usize).step_by(8) {
        let (a, fast) = timed(&j.req);
        let mut dense_req = j.req.clone();
        dense_req.reference = true;
        let (b, dense) = timed(&dense_req);
        fast_s += a;
        dense_s += b;
        if Seen::from_result(&fast) != Seen::from_result(&dense) {
            checker.fail(format!(
                "{}: dense loop disagrees with the event loop",
                j.req.label()
            ));
        }
    }
    m.insert("vortex-sim.fast_vs_dense", ratio(dense_s, fast_s));
    // Two simulator threads against one on the 4-core machines. The
    // parallel loop refuses instruction-budgeted runs, so the budget is
    // lifted here; served jobs all carry the default budget and never take
    // it.
    let (mut seq_s, mut par_s) = (0.0, 0.0);
    for j in vortex.iter().filter(|j| j.req.cores >= 4) {
        let mut req = j.req.clone();
        req.max_instructions = Some(u64::MAX);
        let (a, seq) = timed(&req);
        req.sim_threads = 2;
        let (b, par) = timed(&req);
        seq_s += a;
        par_s += b;
        if Seen::from_result(&seq) != Seen::from_result(&par) {
            checker.fail(format!(
                "{}: 2 simulator threads disagree with 1",
                j.req.label()
            ));
        }
    }
    m.insert("vortex-sim.par2_speedup", ratio(seq_s, par_s));

    // -- inline kernels: the service does not verify them, so a seeded
    //    1-in-16 sample runs on both vortex-rt and the interpreter ---------
    let mut sampled = 0u64;
    for j in jobs.iter().skip((seed % 16) as usize).step_by(16) {
        if let Payload::Source { .. } = &j.req.payload {
            sampled += 1;
            if let Err(why) = differential(&j.req) {
                checker.fail(format!("{}: {why}", j.req.label()));
            }
        }
    }
    m.insert("bench.diff_sampled", sampled as f64);
    m.insert("bench.layer_pass_s", started.elapsed().as_secs_f64());
    let _ = std::fs::remove_dir_all(&dir);

    let values = crate::metrics::PER_LAYER
        .iter()
        .map(|d| {
            let v = m.get(d.name).copied();
            // `+ 0.0` turns the empty sum's negative zero into zero.
            (
                d.name,
                v.unwrap_or_else(|| panic!("layer pass did not measure `{}`", d.name)) + 0.0,
            )
        })
        .collect();
    notes.extend(checker.notes.iter().cloned());
    Ok(Measured {
        values,
        attempted: checker.attempted,
        failed: checker.failed + served_failed,
        notes,
        info: vec![
            format!(
                "{n_jobs} jobs ({} batches) replayed in process, single-threaded; \
                 scheduler figures at {width} workers; seconds are per pass of these jobs",
                w.layer_batches()
            ),
            "simulated caches start empty at every launch; vortex-sim.* counts are sums over launches".to_string(),
            format!("self time, share of the replayed jobs: {shares_line}"),
            format!("spans: {}", trace_path.display()),
        ],
    })
}

/// Run an inline-source request on vortex-rt and on the interpreter and
/// compare the final contents of every buffer.
fn differential(req: &JobRequest) -> Result<(), String> {
    let Payload::Source {
        source,
        kernel,
        nd,
        buffers,
        args,
    } = &req.payload
    else {
        return Err("not an inline-source job".to_string());
    };
    let nd = NdRange {
        global: [nd.gx, nd.gy, 1],
        local: [nd.lx, nd.ly, 1],
    };
    let cfg = sim_config(req);
    let kernels = repro_cache::global()
        .codegen_vortex(source, req.opt, cfg.hw.threads)
        .map_err(|e| e.to_string())?;
    let compiled = kernels
        .into_iter()
        .find(|k| k.name == *kernel)
        .ok_or("kernel not found")?;
    let (mut sess, bufs, vargs) =
        inline_session(cfg, compiled, buffers, args).map_err(|e| e.to_string())?;
    sess.launch(&vargs, &nd).map_err(|e| e.to_string())?;

    let module = repro_cache::global()
        .optimize(source, req.opt.unwrap_or(OptLevel::None))
        .map_err(|e| e.to_string())?;
    let f = module.kernel(kernel).ok_or("kernel not found")?;
    let mut mem = Memory::new(32 << 20);
    let addrs: Vec<u32> = buffers
        .iter()
        .map(|&w| mem.try_alloc_u32(&vec![0u32; w as usize]))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let iargs: Vec<KernelArg> = args
        .iter()
        .map(|a| match *a {
            ArgSpec::Buf(i) => KernelArg::Ptr(addrs[i]),
            ArgSpec::I32(v) => KernelArg::I32(v),
            ArgSpec::U32(v) => KernelArg::U32(v),
            ArgSpec::F32(v) => KernelArg::F32(v),
        })
        .collect();
    let limits = Limits {
        max_steps_per_item: DEFAULT_MAX_INSTRUCTIONS,
    };
    interp::run_ndrange(f, &iargs, &nd, &mut mem, &limits).map_err(|e| e.to_string())?;
    for (i, (&b, &a)) in bufs.iter().zip(&addrs).enumerate() {
        let words = buffers[i] as usize;
        let sim = sess.read_u32(b, words).map_err(|e| e.to_string())?;
        if sim != mem.read_u32_slice(a, words) {
            return Err(format!(
                "buffer {i} differs between vortex-rt and the interpreter"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "repro-benchmark-test-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// Every cold lookup of `compile-cold` misses at every stage.
    #[test]
    fn compile_cold_misses_jobs_times_stages() {
        let batches: Vec<Batch> = layer_batches(Workload::CompileCold, 1, 1)
            .into_iter()
            .take(1)
            .collect();
        let jobs = jobs_of(&batches);
        let dir = scratch("cold");
        let out = replay_jobs(Workload::CompileCold, &jobs, &dir, false).expect("lookups run");
        assert_eq!(
            out.counts.misses,
            jobs.len() as u64 * 3,
            "lower, opt and vortex per job"
        );
        assert_eq!(out.counts.warm_hits, out.counts.warm_lookups);
        assert_eq!(out.counts.warm_lookups, jobs.len() as u64);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// After the warm-up lookups the three warm workloads only hit.
    #[test]
    fn warm_workloads_hit_every_lookup() {
        for w in [
            Workload::SimPaper,
            Workload::ServeSmall,
            Workload::HlsInterp,
        ] {
            let batches = Generator::new(w, 1).next_pass();
            let jobs = jobs_of(&batches);
            let dir = scratch(w.name());
            let out = replay_jobs(w, &jobs, &dir, false).expect("lookups run");
            assert!(out.counts.warm_lookups >= jobs.len() as u64, "{}", w.name());
            assert_eq!(
                out.counts.warm_hits,
                out.counts.warm_lookups,
                "{}",
                w.name()
            );
            assert!(out.counts.misses > 0, "{}", w.name());
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// The replay is the suite's job body: same statistics as `run_oneshot`
    /// on a job of every flow, and its spans tile the job.
    #[test]
    fn replay_agrees_with_run_oneshot() {
        let batches = Generator::new(Workload::ServeSmall, 1).next_pass();
        let all = jobs_of(&batches);
        let jobs: Vec<&GenJob> = [Flow::Vortex, Flow::Hls, Flow::Interp]
            .iter()
            .map(|&f| {
                *all.iter()
                    .find(|j| j.req.flow == f && j.shape % 28 == 0)
                    .expect("Vecadd")
            })
            .collect();
        let dir = scratch("replay");
        let out = replay_jobs(Workload::ServeSmall, &jobs, &dir, true).expect("replays");
        for (j, got) in jobs.iter().zip(&out.outcomes) {
            assert_eq!(
                Seen::from_result(got),
                Seen::from_result(&run_oneshot(&j.req)),
                "{}",
                j.req.label()
            );
        }
        assert_eq!(out.replay.rec.count("suite.job"), 3);
        assert!(out.replay.rec.count("vortex-sim.run") >= 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn differential_passes_on_a_template_kernel_and_names_the_flow() {
        let batch = Generator::new(Workload::CompileCold, 1).next_batch();
        differential(&batch.jobs[0].req).expect("both back ends agree");
        let suite = Generator::new(Workload::ServeSmall, 1).next_batch();
        assert!(differential(&suite.jobs[0].req).is_err());
    }
}
