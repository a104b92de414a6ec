//! Cache-equivalence differential suite: the content-addressed compile
//! cache must be *invisible* to every consumer. Cold compiles, warm
//! memory hits, warm disk hits, and post-restart disk hits all have to
//! produce byte-identical artifacts and identical end-to-end simulation
//! results across the whole benchmark matrix — and a corrupted or
//! half-written entry must silently degrade to a fresh compile, never to
//! a wrong answer.

use fpga_gpu_repro::arch::{Device, VortexConfig};
use fpga_gpu_repro::cache::{wire, Cache, CacheConfig, Stage};
use fpga_gpu_repro::hls::{synthesize, SynthOptions};
use fpga_gpu_repro::ir::passes::OptLevel;
use fpga_gpu_repro::suite::runner::{run_vortex_trace_at, DEFAULT_OPT};
use fpga_gpu_repro::suite::{all_benchmarks, Scale};
use fpga_gpu_repro::vsim::SimConfig;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn mem_cache() -> Cache {
    Cache::new(CacheConfig::default())
}

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "repro-cache-eq-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Compile `src` at `level` with no cache anywhere near the pipeline —
/// the fresh-compilation oracle every cached artifact is compared against.
fn fresh_optimize(src: &str, level: OptLevel) -> fpga_gpu_repro::ir::Module {
    let mut m = ocl_front::compile(src).expect("fresh compile");
    fpga_gpu_repro::ir::passes::optimize_module(&mut m, level);
    fpga_gpu_repro::ir::verify::verify_module(&m).expect("fresh verify");
    m
}

/// The tentpole matrix: every benchmark x every optimization level x both
/// flows. For each cell, the cold cached artifact, the warm (memory-hit)
/// artifact and a fresh uncached compile must all encode to the same
/// canonical bytes — i.e. the cache can never change what a consumer sees —
/// and a warm Vortex program must equal the fresh one instruction for
/// instruction.
#[test]
fn artifacts_byte_identical_cold_warm_fresh_across_matrix() {
    let cache = mem_cache();
    let devices = [Device::mx2100(), Device::sx2800()];
    for b in all_benchmarks() {
        // Lowering (source as written).
        let fresh_lower = ocl_front::compile(b.source).expect(b.name);
        let cold = cache.lower(b.source).unwrap();
        let warm = cache.lower(b.source).unwrap();
        assert_eq!(
            wire::encode(&cold),
            wire::encode(&fresh_lower),
            "{}: cold lower != fresh",
            b.name
        );
        assert_eq!(
            wire::encode(&warm),
            wire::encode(&fresh_lower),
            "{}: warm lower != fresh",
            b.name
        );
        for level in OptLevel::ALL {
            // Middle end.
            let fresh = wire::encode(&fresh_optimize(b.source, level));
            let cold = wire::encode(&cache.optimize(b.source, level).unwrap());
            let warm = wire::encode(&cache.optimize(b.source, level).unwrap());
            assert_eq!(cold, fresh, "{} at {level:?}: cold opt != fresh", b.name);
            assert_eq!(warm, fresh, "{} at {level:?}: warm opt != fresh", b.name);

            // Vortex back end.
            let opts = fpga_gpu_repro::vcc::CodegenOpts { threads: 4 };
            let fresh_kernels: Vec<_> = fresh_optimize(b.source, level)
                .kernels
                .iter()
                .map(|k| fpga_gpu_repro::vcc::compile_kernel(k, &opts).expect(b.name))
                .collect();
            let fresh = wire::encode(&fresh_kernels);
            let cold = wire::encode(&cache.codegen_vortex(b.source, Some(level), 4).unwrap());
            let warm_kernels = cache.codegen_vortex(b.source, Some(level), 4).unwrap();
            // Equal bytes would not catch a lossy codec that re-encodes to
            // the bytes it read, so the decoded programs are compared too.
            assert_eq!(warm_kernels.len(), fresh_kernels.len());
            for (w, f) in warm_kernels.iter().zip(&fresh_kernels) {
                assert_eq!(
                    w.program, f.program,
                    "{} at {level:?}: warm program != fresh",
                    b.name
                );
            }
            let warm = wire::encode(&warm_kernels);
            assert_eq!(
                cold, fresh,
                "{} at {level:?}: cold codegen != fresh",
                b.name
            );
            assert_eq!(
                warm, fresh,
                "{} at {level:?}: warm codegen != fresh",
                b.name
            );
        }
        // HLS synthesis outcome (reports and typed x failures alike), on
        // both paper devices.
        for device in &devices {
            let fresh = wire::encode(&synthesize(&fresh_lower, device, &SynthOptions::default()));
            let cold = wire::encode(&cache.synthesize_hls(b.source, device).unwrap());
            let warm = wire::encode(&cache.synthesize_hls(b.source, device).unwrap());
            assert_eq!(
                cold, fresh,
                "{} on {}: cold hls != fresh",
                b.name, device.name
            );
            assert_eq!(
                warm, fresh,
                "{} on {}: warm hls != fresh",
                b.name, device.name
            );
        }
    }
    let s = cache.stats();
    assert!(s.hits_mem > 0 && s.corrupt == 0 && s.disk_write_errors == 0);
}

/// Warm disk hits are byte-identical too: a second cache instance sharing
/// only the on-disk store (fresh empty memory tier) must return the same
/// bytes the first instance computed, serving them from disk.
#[test]
fn disk_hits_byte_identical_to_cold_compiles() {
    let dir = temp_dir("disk-hit");
    let mk = || {
        Cache::new(CacheConfig {
            disk_dir: Some(dir.clone()),
            ..CacheConfig::default()
        })
    };
    let first = mk();
    let mut cold_bytes = Vec::new();
    for b in all_benchmarks().iter().take(6) {
        cold_bytes.push(wire::encode(
            &first.optimize(b.source, DEFAULT_OPT).unwrap(),
        ));
        cold_bytes.push(wire::encode(
            &first
                .codegen_vortex(b.source, Some(DEFAULT_OPT), 8)
                .unwrap(),
        ));
    }
    assert_eq!(first.stats().hits_disk, 0);

    let second = mk();
    let mut warm_bytes = Vec::new();
    for b in all_benchmarks().iter().take(6) {
        warm_bytes.push(wire::encode(
            &second.optimize(b.source, DEFAULT_OPT).unwrap(),
        ));
        warm_bytes.push(wire::encode(
            &second
                .codegen_vortex(b.source, Some(DEFAULT_OPT), 8)
                .unwrap(),
        ));
    }
    assert_eq!(
        cold_bytes, warm_bytes,
        "disk-served artifacts differ from cold"
    );
    let s = second.stats();
    assert_eq!(s.misses, 0, "second instance should be fully disk-served");
    assert!(s.hits_disk > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end equivalence: a full Vortex run (cycles, stall breakdowns,
/// final buffer contents, printf output) is identical whether the compile
/// was cold or served warm from the cache — for every benchmark.
#[test]
fn end_to_end_sim_results_identical_cold_vs_warm() {
    // 8x8 per core: large enough for Backprop's 64-wide work groups.
    let cfg = SimConfig::new(VortexConfig::new(4, 8, 8));
    for b in all_benchmarks() {
        let cold = run_vortex_trace_at(&b, Scale::Test, &cfg, DEFAULT_OPT)
            .unwrap_or_else(|e| panic!("{}: cold run: {e}", b.name));
        let warm = run_vortex_trace_at(&b, Scale::Test, &cfg, DEFAULT_OPT)
            .unwrap_or_else(|e| panic!("{}: warm run: {e}", b.name));
        assert_eq!(
            cold, warm,
            "{}: warm-cache run diverged from cold run",
            b.name
        );
    }
}

/// The PR 6 memoization guarantee, now enforced by the shared cache and
/// observable through its miss counters: across repeated suite-style
/// traffic, each `(benchmark, level)` pair is compiled at most once and
/// each benchmark is lowered at most once.
#[test]
fn each_bench_level_pair_compiles_at_most_once() {
    let cache = mem_cache();
    let benches = all_benchmarks();
    for _round in 0..3 {
        for b in &benches {
            for level in OptLevel::ALL {
                cache.optimize(b.source, level).unwrap();
            }
        }
    }
    let s = cache.stats();
    let n = benches.len() as u64;
    assert_eq!(
        s.misses_by_stage[Stage::Opt.index()],
        n * OptLevel::ALL.len() as u64,
        "some (bench, level) pair compiled more than once"
    );
    assert_eq!(
        s.misses_by_stage[Stage::Lower.index()],
        n,
        "some benchmark was lowered more than once"
    );
    // Rounds two and three are pure hits; round one also hit the cached
    // lowering three times per benchmark (once per subsequent level).
    assert_eq!(s.hits_mem, 2 * n * OptLevel::ALL.len() as u64 + 3 * n);
}

/// Crash consistency: a truncated entry, a bit-flipped payload, and a
/// leftover `.tmp` from a simulated mid-write crash must all degrade to a
/// fresh compile whose artifact is byte-identical to the uncorrupted one.
#[test]
fn corrupt_and_partial_disk_entries_recompile_correctly() {
    let dir = temp_dir("corrupt");
    let b = &all_benchmarks()[0];
    let mk = || {
        Cache::new(CacheConfig {
            disk_dir: Some(dir.clone()),
            ..CacheConfig::default()
        })
    };
    let writer = mk();
    let good = wire::encode(&writer.optimize(b.source, OptLevel::Basic).unwrap());
    let entry = {
        let store = fpga_gpu_repro::cache::disk::DiskStore::new(dir.clone());
        let mut found = None;
        for f in std::fs::read_dir(store.dir()).unwrap() {
            let p = f.unwrap().path();
            if p.extension().is_some_and(|e| e == "bin")
                && p.file_name().unwrap().to_str().unwrap().starts_with("opt-")
            {
                found = Some(p);
            }
        }
        found.expect("opt entry on disk")
    };
    let sealed = std::fs::read(&entry).unwrap();

    // Truncation (torn write that dodged the atomic rename).
    std::fs::write(&entry, &sealed[..sealed.len() / 2]).unwrap();
    let c = mk();
    assert_eq!(
        wire::encode(&c.optimize(b.source, OptLevel::Basic).unwrap()),
        good
    );
    assert_eq!(c.stats().corrupt, 1);
    assert_eq!(c.stats().misses, 1);

    // Bit flip in the payload (checksum must catch it).
    let mut flipped = sealed.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x40;
    std::fs::write(&entry, &flipped).unwrap();
    let c = mk();
    assert_eq!(
        wire::encode(&c.optimize(b.source, OptLevel::Basic).unwrap()),
        good
    );
    assert_eq!(c.stats().corrupt, 1);

    // Leftover .tmp from a crashed writer: reads ignore it, and the real
    // entry (re-written above) still serves.
    std::fs::write(dir.join("opt-dead.12345.0.tmp"), b"partial").unwrap();
    let c = mk();
    assert_eq!(
        wire::encode(&c.optimize(b.source, OptLevel::Basic).unwrap()),
        good
    );
    assert_eq!(c.stats().hits_disk, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A schema-version bump silently invalidates old entries: no corruption
/// counted, just a recompile that overwrites the stale file.
#[test]
fn stale_version_entries_are_silently_recompiled() {
    let dir = temp_dir("stale");
    let b = &all_benchmarks()[0];
    let mk = || {
        Cache::new(CacheConfig {
            disk_dir: Some(dir.clone()),
            ..CacheConfig::default()
        })
    };
    let writer = mk();
    let good = wire::encode(&writer.optimize(b.source, OptLevel::Basic).unwrap());
    for f in std::fs::read_dir(&dir).unwrap() {
        let p = f.unwrap().path();
        if p.extension().is_some_and(|e| e == "bin") {
            let mut bytes = std::fs::read(&p).unwrap();
            // Version field is the u32 right after the 4-byte magic.
            bytes[4] ^= 0xff;
            std::fs::write(&p, &bytes).unwrap();
        }
    }
    let c = mk();
    assert_eq!(
        wire::encode(&c.optimize(b.source, OptLevel::Basic).unwrap()),
        good
    );
    let s = c.stats();
    assert_eq!(s.corrupt, 0, "version skew is staleness, not corruption");
    // Both the Opt entry and the Lower entry it chains to were stale.
    assert_eq!(s.misses, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Process-restart persistence, via a real child process
// ---------------------------------------------------------------------------

/// Not a test: the body of the child process spawned by
/// [`disk_cache_survives_process_restart`]. Reads `CACHE_EQ_DIR`, compiles
/// one benchmark through a disk-backed cache, and prints a digest of the
/// artifacts plus its miss/hit counters for the parent to compare.
#[test]
#[ignore = "child-process probe; driven by disk_cache_survives_process_restart"]
fn child_warm_probe() {
    let Some(dir) = std::env::var_os("CACHE_EQ_DIR") else {
        return; // invoked by a bare `--ignored` sweep, not by the parent
    };
    let cache = Cache::new(CacheConfig {
        disk_dir: Some(PathBuf::from(dir)),
        ..CacheConfig::default()
    });
    let b = &all_benchmarks()[1];
    let mut h = wire::Fnv::new();
    h.write(&wire::encode(
        &cache.optimize(b.source, DEFAULT_OPT).unwrap(),
    ));
    h.write(&wire::encode(
        &cache
            .codegen_vortex(b.source, Some(DEFAULT_OPT), 4)
            .unwrap(),
    ));
    h.write(&wire::encode(
        &cache.synthesize_hls(b.source, &Device::mx2100()).unwrap(),
    ));
    let s = cache.stats();
    // Parsed by the parent; keep on one line so test-harness chatter
    // around it doesn't matter.
    println!(
        "CACHE_EQ_RESULT digest={:016x} misses={} hits_disk={}",
        h.finish(),
        s.misses,
        s.hits_disk
    );
}

fn run_probe(dir: &std::path::Path) -> (u64, u64, u64) {
    let exe = std::env::current_exe().unwrap();
    let out = std::process::Command::new(exe)
        .args(["--exact", "child_warm_probe", "--ignored", "--nocapture"])
        .env("CACHE_EQ_DIR", dir)
        .output()
        .expect("spawn child probe");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "child probe failed:\n{stdout}");
    // libtest may glue its own "test ... " prefix onto the line, so match
    // by substring and parse from the marker on.
    let line = stdout
        .lines()
        .find_map(|l| l.split("CACHE_EQ_RESULT").nth(1))
        .unwrap_or_else(|| panic!("no result line in child output:\n{stdout}"));
    let field = |name: &str| -> u64 {
        let v = line
            .split_whitespace()
            .find_map(|w| w.strip_prefix(&format!("{name}=")))
            .unwrap_or_else(|| panic!("missing {name} in: {line}"));
        u64::from_str_radix(v, if name == "digest" { 16 } else { 10 }).unwrap()
    };
    (field("digest"), field("misses"), field("hits_disk"))
}

/// The on-disk tier survives a process restart: a second OS process sees
/// only hits (zero compiles) and reproduces bit-identical artifacts. This
/// is the property the old per-process memoization could not provide.
#[test]
fn disk_cache_survives_process_restart() {
    let dir = temp_dir("restart");
    let (cold_digest, cold_misses, cold_disk_hits) = run_probe(&dir);
    assert!(cold_misses > 0, "first process should compile");
    assert_eq!(cold_disk_hits, 0);
    let (warm_digest, warm_misses, warm_disk_hits) = run_probe(&dir);
    assert_eq!(warm_digest, cold_digest, "restart changed artifact bytes");
    assert_eq!(
        warm_misses, 0,
        "second process recompiled despite disk cache"
    );
    assert!(warm_disk_hits > 0);
    let _ = std::fs::remove_dir_all(&dir);
}
