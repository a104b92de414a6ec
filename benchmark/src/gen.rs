//! Seeded request generators for the four workloads.
//!
//! The program under test sees only the text produced here. A workload is
//! a cyclic sequence of *passes*; every pass holds the same multiset of
//! job shapes, split into the same batches, so any whole number of passes
//! does the same simulated work whatever the seed and however long the run.
//! The seed decides the order of batches within a pass, the order of jobs
//! within a batch and, on `compile-cold`, the constants and names that make
//! every source text unique.

use ocl_ir::passes::OptLevel;
use ocl_suite::all_benchmarks;
use repro_sched::{ArgSpec, Flow, JobRequest, NdSpec, Payload};
use repro_util::{Rng, ToJson};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimPaper,
    CompileCold,
    ServeSmall,
    HlsInterp,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SimPaper,
        Workload::CompileCold,
        Workload::ServeSmall,
        Workload::HlsInterp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimPaper => "sim-paper",
            Workload::CompileCold => "compile-cold",
            Workload::ServeSmall => "serve-small",
            Workload::HlsInterp => "hls-interp",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Jobs per batch. The paper-scale workloads use 7 (not the issue's
    /// 14) so a run of `run_seconds` still times at least 100 batches
    /// inside the driver's total time cap.
    pub fn batch_jobs(self) -> usize {
        match self {
            Workload::SimPaper | Workload::HlsInterp => 7,
            Workload::CompileCold => COLD_SLOTS,
            Workload::ServeSmall => 4,
        }
    }

    /// Distinct job shapes, i.e. the size of the table outcomes are
    /// checked against. One pass sends each shape once.
    pub fn shapes(self) -> usize {
        match self {
            Workload::SimPaper => 28 * GEOMETRIES.len(),
            Workload::CompileCold => COLD_SLOTS * COLD_PASS_BATCHES,
            Workload::ServeSmall => 28 * 3,
            Workload::HlsInterp => 28 * 2,
        }
    }

    /// How many times an end-to-end run sets the service up; `setup_s` is
    /// the median. More where a set-up is shorter: it is mostly the cold
    /// compiles' cache files, and on the reference host file creation is
    /// the least steady thing there is (`serve-small`'s 70 ms set-up spread
    /// by half over ten runs of five set-ups each).
    pub fn setups(self) -> usize {
        match self {
            Workload::SimPaper => 3,
            Workload::CompileCold | Workload::HlsInterp => 5,
            Workload::ServeSmall => 15,
        }
    }

    /// Timed jobs after which the end-to-end pass reads the child's peak
    /// memory: a few seconds' worth on the reference host, the same work
    /// on every run.
    pub fn rss_after_jobs(self) -> u64 {
        match self {
            Workload::SimPaper => 2 * 112,
            Workload::CompileCold => 20 * 224,
            Workload::ServeSmall => 50 * 84,
            Workload::HlsInterp => 5 * 56,
        }
    }

    /// Whether the served child keeps its compile cache's disk tier.
    ///
    /// Off on `compile-cold`: there every job writes three cache files,
    /// and on the reference host (a small VM on ext4) one create + rename
    /// costs 0.5 ms of kernel time that swings by half with whatever was
    /// deleted in the last minute, so jobs/s read 500 or 980 from one run
    /// to the next and said nothing about the program. The write path is
    /// still measured, in the layer pass (`cache.disk_overhead_s`). The
    /// warm workloads write the tier only during set-up and keep it.
    pub fn disk_cache(self) -> bool {
        self != Workload::CompileCold
    }

    pub fn batches_per_pass(self) -> usize {
        self.shapes() / self.batch_jobs()
    }

    /// Batches the in-process layer pass replays (the first ones of the
    /// seed's first pass): a whole pass, except on `sim-paper`, where a
    /// quarter of one (28 jobs over all four machines) keeps each of the
    /// dozen single-threaded replays under a second.
    pub fn layer_batches(self) -> usize {
        match self {
            Workload::SimPaper => 4,
            Workload::CompileCold => 7,
            Workload::ServeSmall => 21,
            Workload::HlsInterp => 8,
        }
    }
}

/// Simulated machines of `sim-paper`: the service default and three Fig. 7
/// points. (The issue's 4c4w4t is replaced by 4c4w16t: Backprop's 64-item
/// work-groups do not fit 4 warps × 4 threads, and a workload must hold no
/// job that fails.)
pub const GEOMETRIES: [(u32, u32, u32); 4] = [(2, 4, 16), (4, 4, 16), (4, 8, 8), (4, 16, 16)];

/// Template kernels per `compile-cold` source, and jobs per batch: slot `s`
/// launches template `s % 4` at variant `s / 4`.
pub const COLD_TEMPLATES: usize = 4;
pub const COLD_VARIANTS: usize = 8;
pub const COLD_SLOTS: usize = COLD_TEMPLATES * COLD_VARIANTS;
/// The verbatim suite source of shape `j` (slot `j % 32` of the pass's
/// batch `j / 32`) is benchmark `j % 28`, which repeats every 7 batches.
pub const COLD_PASS_BATCHES: usize = 7;

/// One generated job: the request, and which row of the workload's shape
/// table its outcome must agree with.
#[derive(Debug, Clone)]
pub struct GenJob {
    pub req: JobRequest,
    pub shape: usize,
}

/// One batch as it goes on the wire.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Request lines, ending with whatever submits the batch.
    pub text: String,
    pub jobs: Vec<GenJob>,
}

/// Endless generator of a workload's batches for one seed.
pub struct Generator {
    workload: Workload,
    seed: u64,
    rng: Rng,
    names: Vec<&'static str>,
    sources: Vec<&'static str>,
    /// Batches of the current pass not yet handed out (shape indices).
    pending: Vec<Vec<usize>>,
    next_id: u64,
    next_batch: u64,
}

impl Generator {
    pub fn new(workload: Workload, seed: u64) -> Generator {
        let benches = all_benchmarks();
        Generator {
            workload,
            seed,
            rng: Rng::new(seed ^ 0x6265_6e63_686d_6172),
            names: benches.iter().map(|b| b.name).collect(),
            sources: benches.iter().map(|b| b.source).collect(),
            pending: Vec::new(),
            next_id: 0,
            next_batch: 0,
        }
    }

    /// A generator whose `compile-cold` sources are disjoint from every
    /// other epoch's of the same seed (same shapes, fresh names), so each
    /// in-process pass of the layer run meets a cold cache. The warm
    /// workloads ignore the epoch.
    pub fn with_epoch(workload: Workload, seed: u64, epoch: u64) -> Generator {
        let mut g = Generator::new(workload, seed);
        g.next_batch = epoch << 32;
        g
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.rng.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// The fixed split of a pass into batches: on the suite workloads shape
    /// `j` rides in batch `j % batches_per_pass`, so every batch mixes flows
    /// and geometries.
    fn refill(&mut self) {
        let n = self.workload.batches_per_pass();
        let per = self.workload.batch_jobs();
        let mut batches: Vec<Vec<usize>> = (0..n)
            .map(|b| match self.workload {
                // Shape `b * 32 + s` is slot `s` of the pass's batch `b`.
                Workload::CompileCold => (b * per..(b + 1) * per).collect(),
                _ => (0..per).map(|k| b + k * n).collect(),
            })
            .collect();
        for b in &mut batches {
            self.shuffle(b);
        }
        self.shuffle(&mut batches);
        self.pending = batches;
    }

    pub fn next_batch(&mut self) -> Batch {
        if self.pending.is_empty() {
            self.refill();
        }
        let shapes = self.pending.pop().expect("refilled");
        let serial = self.next_batch;
        self.next_batch += 1;
        let jobs: Vec<GenJob> = shapes
            .into_iter()
            .map(|shape| {
                let mut req = self.request(shape, serial);
                req.id = self.next_id;
                self.next_id += 1;
                GenJob { req, shape }
            })
            .collect();
        let text = match self.workload {
            // Inline sources go one object per line and a blank line
            // submits; the suite workloads send one array line.
            Workload::CompileCold => {
                let mut t = String::new();
                for j in &jobs {
                    t.push_str(&j.req.to_json().to_compact());
                    t.push('\n');
                }
                t.push('\n');
                t
            }
            _ => {
                let reqs: Vec<_> = jobs.iter().map(|j| j.req.to_json()).collect();
                let mut t = repro_util::Json::Array(reqs).to_compact();
                t.push('\n');
                t
            }
        };
        Batch { text, jobs }
    }

    /// One whole pass.
    pub fn next_pass(&mut self) -> Vec<Batch> {
        (0..self.workload.batches_per_pass())
            .map(|_| self.next_batch())
            .collect()
    }

    fn request(&mut self, shape: usize, batch_serial: u64) -> JobRequest {
        let suite = |flow, paper: bool| {
            let mut req = JobRequest::bench(self.names[shape % 28], flow);
            if let Payload::Bench { paper_scale, .. } = &mut req.payload {
                *paper_scale = paper;
            }
            req
        };
        match self.workload {
            Workload::SimPaper => {
                let mut req = suite(Flow::Vortex, true);
                (req.cores, req.warps, req.threads) = GEOMETRIES[shape / 28];
                req
            }
            Workload::ServeSmall => {
                suite([Flow::Vortex, Flow::Hls, Flow::Interp][shape / 28], false)
            }
            Workload::HlsInterp => suite([Flow::Hls, Flow::Interp][shape / 28], true),
            Workload::CompileCold => self.cold_request(shape, batch_serial),
        }
    }

    fn cold_request(&mut self, shape: usize, batch_serial: u64) -> JobRequest {
        let slot = shape % COLD_SLOTS;
        let suite = self.sources[shape % 28];
        let tag = format!("s{}_b{}_{}", self.seed, batch_serial, slot);
        let mut source = String::with_capacity(suite.len() + 2048);
        source.push_str(suite);
        source.push('\n');
        let variant = slot / COLD_TEMPLATES;
        for t in 0..COLD_TEMPLATES {
            let consts = [(); 4].map(|_| 3 + 2 * self.rng.below(1022) as u32);
            source.push_str(&template_kernel(t, variant, &tag, consts));
        }
        let mut req = JobRequest::bench("", Flow::Vortex);
        req.payload = Payload::Source {
            source,
            kernel: template_name(slot % COLD_TEMPLATES, &tag),
            nd: NdSpec {
                gx: 64,
                gy: 1,
                lx: 16,
                ly: 1,
            },
            buffers: vec![64, 64],
            args: vec![ArgSpec::Buf(0), ArgSpec::Buf(1)],
        };
        req.opt = Some(OptLevel::Loop);
        req
    }
}

pub fn template_name(template: usize, tag: &str) -> String {
    format!("t{template}_{tag}")
}

/// Text of template kernel `template` (0 straight-line arithmetic, 1
/// counted loop, 2 divergent if/else, 3 `__local` + barrier reduction).
///
/// `variant` sets the shape (statement count, trip count, which lanes
/// diverge); `c` only supplies odd constants below 2048 used as add/xor
/// immediates and never in an index, a branch condition or a multiply, so
/// two kernels of one shape compile to the same instruction sequence and
/// simulate in the same number of cycles whatever the seed.
pub fn template_kernel(template: usize, variant: usize, tag: &str, c: [u32; 4]) -> String {
    let name = template_name(template, tag);
    let head = format!(
        "__kernel void {name}(__global int* out, __global const int* in) {{\n    \
         int i = get_global_id(0);\n"
    );
    let mut body = String::new();
    match template {
        0 => {
            body.push_str(&format!("    int x = in[i] + {};\n", c[0]));
            for k in 0..(2 + variant) {
                body.push_str(&format!(
                    "    x = (x ^ {}) + (x >> {}) + i * x;\n",
                    c[1 + k % 3],
                    1 + k % 5
                ));
            }
            body.push_str("    out[i] = x;\n");
        }
        1 => {
            body.push_str(&format!("    int acc = {};\n", c[0]));
            body.push_str(&format!(
                "    for (int k = 0; k < {}; k++) {{\n        \
                 acc = acc + (in[(i + k) & 63] ^ {}) + (acc >> 2);\n    }}\n",
                4 + 2 * variant,
                c[1]
            ));
            body.push_str(&format!("    out[i] = acc + {};\n", c[2]));
        }
        2 => {
            body.push_str(&format!("    int x = in[i] + {};\n", c[0]));
            body.push_str(&format!(
                "    if ((i & {}) != 0) {{\n        x = x + {};\n        x = x ^ i;\n    \
                 }} else {{\n        x = x - {};\n        x = x + (i << {});\n    }}\n",
                1 << (variant % 4),
                c[1],
                c[2],
                1 + variant / 4
            ));
            body.push_str(&format!("    out[i] = x ^ {};\n", c[3]));
        }
        _ => {
            body.push_str("    __local int tile[16];\n    int lid = get_local_id(0);\n");
            body.push_str(&format!("    int v = in[i] + {};\n", c[0]));
            for k in 0..variant {
                body.push_str(&format!("    v = (v ^ {}) + (v >> 1);\n", c[1 + k % 3]));
            }
            body.push_str(
                "    tile[lid] = v;\n    barrier(CLK_LOCAL_MEM_FENCE);\n    \
                 for (int s = 8; s > 0; s >>= 1) {\n        \
                 if (lid < s) tile[lid] += tile[lid + s];\n        \
                 barrier(CLK_LOCAL_MEM_FENCE);\n    }\n",
            );
            body.push_str(&format!(
                "    if (lid == 0) out[get_group_id(0)] = tile[0] ^ {};\n",
                c[3]
            ));
        }
    }
    format!("{head}{body}}}\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocl_ir::interp::{self, KernelArg, Limits, Memory, NdRange};
    use repro_core::serve::MAX_LINE_BYTES;
    use std::collections::HashSet;

    fn stream(w: Workload, seed: u64, batches: usize) -> String {
        let mut g = Generator::new(w, seed);
        (0..batches).map(|_| g.next_batch().text).collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_stream() {
        for w in Workload::ALL {
            let n = 2 * w.batches_per_pass() + 1;
            assert_eq!(stream(w, 7, n), stream(w, 7, n), "{}", w.name());
            assert_ne!(stream(w, 7, n), stream(w, 8, n), "{}", w.name());
        }
    }

    #[test]
    fn every_pass_holds_every_shape_once() {
        for w in Workload::ALL {
            let mut g = Generator::new(w, 3);
            for _ in 0..2 {
                let mut seen: Vec<usize> = g
                    .next_pass()
                    .iter()
                    .flat_map(|b| b.jobs.iter().map(|j| j.shape))
                    .collect();
                seen.sort_unstable();
                assert_eq!(seen, (0..w.shapes()).collect::<Vec<_>>(), "{}", w.name());
            }
        }
    }

    #[test]
    fn batch_composition_does_not_depend_on_seed() {
        for w in Workload::ALL {
            let sets = |seed| {
                let mut v: Vec<Vec<usize>> = Generator::new(w, seed)
                    .next_pass()
                    .into_iter()
                    .map(|b| {
                        let mut s: Vec<usize> = b.jobs.iter().map(|j| j.shape).collect();
                        s.sort_unstable();
                        s
                    })
                    .collect();
                v.sort();
                v
            };
            assert_eq!(sets(1), sets(2), "{}", w.name());
        }
    }

    #[test]
    fn lines_fit_the_protocol_limit() {
        for w in Workload::ALL {
            for line in stream(w, 1, w.batches_per_pass()).lines() {
                assert!(line.len() < MAX_LINE_BYTES, "{}: {}", w.name(), line.len());
            }
        }
    }

    fn cold_fingerprints(seed: u64, epoch: u64) -> HashSet<u64> {
        let mut g = Generator::with_epoch(Workload::CompileCold, seed, epoch);
        let mut fps = HashSet::new();
        for b in g.next_pass() {
            for j in b.jobs {
                let Payload::Source { source, .. } = &j.req.payload else {
                    panic!("compile-cold sends inline sources");
                };
                assert!(
                    fps.insert(repro_cache::token_fingerprint(source).expect("lexes")),
                    "source repeats within one seed"
                );
            }
        }
        fps
    }

    #[test]
    fn cold_sources_are_unique_and_disjoint_across_seeds_and_epochs() {
        let a = cold_fingerprints(1, 0);
        assert_eq!(a.len(), Workload::CompileCold.shapes());
        assert!(a.is_disjoint(&cold_fingerprints(2, 0)));
        assert!(a.is_disjoint(&cold_fingerprints(1, 1)));
    }

    /// Every template kernel, at every variant, terminates on zero-filled
    /// buffers in a sliver of the default budgets, and two draws of the
    /// constants execute the same number of interpreter steps.
    #[test]
    fn templates_terminate_on_zero_buffers_and_shape_fixes_the_step_count() {
        for t in 0..COLD_TEMPLATES {
            for v in 0..COLD_VARIANTS {
                let steps = |c: [u32; 4]| {
                    let src = template_kernel(t, v, "x", c);
                    let mut module = ocl_front::compile(&src).expect("template compiles");
                    ocl_ir::passes::optimize_module(&mut module, OptLevel::Loop);
                    let f = module.kernel(&template_name(t, "x")).expect("kernel");
                    let mut mem = Memory::new(1 << 20);
                    let out = mem.alloc_u32(&[0; 64]);
                    let inp = mem.alloc_u32(&[0; 64]);
                    interp::run_ndrange(
                        f,
                        &[KernelArg::Ptr(out), KernelArg::Ptr(inp)],
                        &NdRange::d1(64, 16),
                        &mut mem,
                        &Limits::default(),
                    )
                    .expect("terminates")
                    .steps
                };
                let a = steps([3, 5, 7, 9]);
                assert!(a < 100_000, "t{t} v{v}: {a} steps");
                assert_eq!(a, steps([2047, 1025, 77, 333]), "t{t} v{v}");
            }
        }
    }
}
