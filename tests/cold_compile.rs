//! A cold compile pays for compiling once, and only for what it runs: the
//! cache lexes a new source a single time — for the fingerprint — and the
//! `Lower` miss that follows parses those tokens; a job parses, lowers,
//! optimizes and generates code for the kernels it launches and no others.
//! Its own test binary: the tests read the process-global metrics registry
//! and cache.

use fpga_gpu_repro::cache::{self, Cache, CacheConfig, Stage};
use fpga_gpu_repro::diag::ReproError;
use fpga_gpu_repro::front::{compile, compile_lexed, lex_source};
use fpga_gpu_repro::ir::passes::OptLevel;
use fpga_gpu_repro::sched::{ArgSpec, Flow, JobRequest, NdSpec, Payload};
use fpga_gpu_repro::suite::{all_benchmarks, run_oneshot};
use repro_util::{metrics, Rng};
use std::sync::{Mutex, MutexGuard};

/// The tests compile; only one may do it while the registry is armed.
fn lock() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn compile_lexed_equals_compile_on_every_suite_source() {
    let _g = lock();
    let benchmarks = all_benchmarks();
    assert_eq!(benchmarks.len(), 28);
    for b in benchmarks {
        let lexed = lex_source(b.source, &[]).expect(b.name);
        assert_eq!(
            compile_lexed(&lexed).expect(b.name),
            compile(b.source).expect(b.name),
            "{}",
            b.name
        );
    }
}

/// A kernel no other seed spells: the constants are add/xor immediates.
fn seeded_source(rng: &mut Rng) -> String {
    let (a, b) = (rng.below(1 << 20), rng.below(1 << 20));
    format!(
        "__kernel void k(__global int* d, int n) {{\n    int i = get_global_id(0);\n    \
         for (int j = 0; j < n; j++) {{ d[i] = (d[i] + {a}) ^ {b}; }}\n}}\n"
    )
}

#[test]
fn every_lex_the_cache_causes_is_metered_and_there_is_one_per_cold_source() {
    let _g = lock();
    const SOURCES: u64 = 12;
    let mut rng = Rng::new(0x16);
    let sources: Vec<String> = (0..SOURCES).map(|_| seeded_source(&mut rng)).collect();
    let cache = Cache::new(CacheConfig::default());
    metrics::enable();
    metrics::reset();
    for src in &sources {
        cache.codegen_vortex(src, Some(OptLevel::Loop), 4).unwrap();
    }
    let cold = metrics::snapshot();
    // A second spelling of one source: new bytes, so it is lexed for its
    // fingerprint; same tokens, so every stage hits.
    let respelled = sources[3].replace('\n', "\n\n  ");
    cache
        .codegen_vortex(&respelled, Some(OptLevel::Loop), 4)
        .unwrap();
    let warm = metrics::snapshot();
    metrics::disable();
    metrics::reset();

    let spans = |s: &metrics::Snapshot, name: &str| s.histogram(name).map_or(0, |h| h.count);
    assert_eq!(spans(&cold, "frontend.lex"), SOURCES);
    assert_eq!(spans(&cold, "frontend.preprocess"), SOURCES);
    assert_eq!(spans(&cold, "frontend.parse"), SOURCES);
    assert_eq!(cold.counter("cache.miss.lower"), Some(SOURCES));
    assert_eq!(cold.counter("cache.miss"), Some(3 * SOURCES));

    assert_eq!(spans(&warm, "frontend.lex"), SOURCES + 1);
    assert_eq!(spans(&warm, "frontend.parse"), SOURCES);
    assert_eq!(warm.counter("cache.miss"), Some(3 * SOURCES));
    assert_eq!(warm.counter("cache.hit"), Some(1));
    assert_eq!(cache.stats().misses, 3 * SOURCES);
}

/// Five kernels that differ in body and constant; `seed` makes the source
/// one no other test compiles.
fn five_kernels(seed: u64) -> String {
    (0..5)
        .map(|k| {
            format!(
                "__kernel void k{k}(__global int* d, int n) {{\n    int i = get_global_id(0);\n    \
                 for (int j = 0; j < n + {k}; j++) {{ d[i] = (d[i] * {m}) ^ {seed}; }}\n}}\n",
                m = k + 3
            )
        })
        .collect()
}

/// A one-launch vortex job of `kernel` in `source` at the loop tier.
fn launch(source: &str, kernel: &str) -> JobRequest {
    let mut r = JobRequest::bench("unused", Flow::Vortex);
    r.opt = Some(OptLevel::Loop);
    r.payload = Payload::Source {
        source: source.to_string(),
        kernel: kernel.to_string(),
        nd: NdSpec {
            gx: 8,
            gy: 1,
            lx: 4,
            ly: 1,
        },
        buffers: vec![32],
        args: vec![ArgSpec::Buf(0), ArgSpec::I32(2)],
    };
    r
}

#[test]
fn a_cold_job_compiles_only_the_kernel_it_launches() {
    let _g = lock();
    let src = five_kernels(0x4c41_554e);
    assert_eq!(compile(&src).unwrap().kernels.len(), 5);
    metrics::enable();
    metrics::reset();
    run_oneshot(&launch(&src, "k2")).expect("k2 runs");
    let cold = metrics::snapshot();
    metrics::disable();
    metrics::reset();
    // vortex → opt → lower, each once, and one kernel through codegen.
    assert_eq!(cold.counter("cache.miss"), Some(3));
    let codegens = cold.histogram("vortex_cc.codegen").map_or(0, |h| h.count);
    assert_eq!(codegens, 1);
    // The `opt` artifact the job stored holds the launched kernel alone.
    let before = cache::global().stats();
    let opt = cache::global()
        .optimize_kernels(&src, OptLevel::Loop, &["k2"])
        .unwrap();
    assert_eq!(cache::global().stats().misses, before.misses);
    let names: Vec<&str> = opt.kernels.iter().map(|k| k.name.as_str()).collect();
    assert_eq!(names, ["k2"]);
}

/// The front end parses only the launched kernel's body: an error inside
/// another kernel's body does not fail the job, though every whole-module
/// entry point still reports it. A body that never closes hides the rest of
/// the source, so it fails every job.
#[test]
fn a_job_does_not_parse_the_bodies_of_kernels_it_does_not_launch() {
    let _g = lock();
    let stage = |e: ReproError| match e {
        ReproError::Frontend { stage, message, .. } => (stage, message),
        other => panic!("not a front-end error: {other}"),
    };
    // `k4` alone multiplies by 7; `~` of a float is a type error.
    let src = five_kernels(0x5459_5045).replace("(d[i] * 7)", "~2.0f");
    let job = run_oneshot(&launch(&src, "k2"));
    assert!(job.is_ok(), "k2 runs: {job:?}");
    let whole = Cache::new(CacheConfig::default()).lower(&src).unwrap_err();
    assert_eq!(stage(whole), ("sema", "`~` on a float".to_string()));
    assert_eq!(
        stage(run_oneshot(&launch(&src, "k4")).unwrap_err()).0,
        "sema"
    );

    let unclosed = five_kernels(0x4f50_454e);
    let unclosed = unclosed.strip_suffix("}\n").unwrap();
    let (stage_name, message) = stage(run_oneshot(&launch(unclosed, "k2")).unwrap_err());
    assert_eq!(
        (stage_name, message.as_str()),
        ("parse", "unexpected end of input inside a block")
    );
}

#[test]
fn a_job_naming_a_missing_kernel_fails_and_caches_nothing() {
    let _g = lock();
    let src = five_kernels(0x4d49_5353);
    run_oneshot(&launch(&src, "k0")).expect("k0 runs");
    let before = cache::global().stats();
    for round in 1..=2 {
        let err = run_oneshot(&launch(&src, "nope")).unwrap_err();
        assert_eq!(
            err.to_string(),
            "harness error: kernel `nope` not found in source"
        );
        let after = cache::global().stats();
        assert_eq!(
            (after.mem_entries, after.mem_bytes),
            (before.mem_entries, before.mem_bytes),
            "an error stored an artifact"
        );
        // The missing name fails before any lookup, at every stage.
        let misses = |stage: Stage| {
            let i = stage.index();
            after.misses_by_stage[i] - before.misses_by_stage[i]
        };
        let stages = [Stage::Lower, Stage::Opt, Stage::Vortex];
        assert_eq!(stages.map(misses), [0, 0, 0], "round {round}");
    }
}
