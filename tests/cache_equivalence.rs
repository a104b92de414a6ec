//! Cache-equivalence differential suite: the content-addressed compile
//! cache must be *invisible* to every consumer. Cold compiles, warm
//! memory hits, warm disk hits, and post-restart disk hits all have to
//! produce byte-identical artifacts and identical end-to-end simulation
//! results across the whole benchmark matrix — and a corrupted or
//! half-written entry must silently degrade to a fresh compile, never to
//! a wrong answer.

use fpga_gpu_repro::arch::{Device, VortexConfig};
use fpga_gpu_repro::cache::wire::{self, Wire};
use fpga_gpu_repro::cache::{Cache, CacheConfig, Stage};
use fpga_gpu_repro::hls::{synthesize, SynthFailure, SynthOptions, SynthReport};
use fpga_gpu_repro::ir::passes::OptLevel;
use fpga_gpu_repro::ir::{Const, Inst, Module, Op, Operand, Scalar, Terminator, Type, VReg};
use fpga_gpu_repro::suite::runner::{run, Backend, DEFAULT_OPT};
use fpga_gpu_repro::suite::{all_benchmarks, Scale};
use fpga_gpu_repro::util::{fnv1a, Fnv, Rng};
use fpga_gpu_repro::vsim::SimConfig;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

#[path = "support/golden.rs"]
mod golden;

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

/// The codec contract on one artifact's canonical bytes: decoding and
/// re-encoding gives the same bytes, and seeded truncations and byte flips
/// come back as a `WireError` at an offset inside the input, never a panic
/// (a flip may also decode to another valid value).
fn check_codec<T: Wire>(bytes: &[u8], rng: &mut Rng, what: &str) {
    let back: T = wire::decode(bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(wire::encode(&back), bytes, "{what}: not canonical");
    for _ in 0..4 {
        let cut = rng.below(bytes.len() as u64) as usize;
        match wire::decode::<T>(&bytes[..cut]) {
            Ok(_) => panic!("{what}: truncated to {cut} bytes but decoded"),
            Err(e) => assert!(e.offset <= cut, "{what}: cut {cut}, error at {e}"),
        }
        let mut flipped = bytes.to_vec();
        let at = rng.below(bytes.len() as u64) as usize;
        flipped[at] ^= 1 + rng.below(255) as u8;
        if let Err(e) = wire::decode::<T>(&flipped) {
            assert!(
                e.offset <= bytes.len(),
                "{what}: flip at {at}, error at {e}"
            );
        }
    }
}

/// Every fresh artifact of the matrix passes through here once: its golden
/// row, [`check_codec`], and a census of the wire tags its values use.
struct Ledger {
    rows: String,
    tags: BTreeMap<&'static str, BTreeSet<u8>>,
    rng: Rng,
}

impl Ledger {
    /// Record one artifact (the golden row is its encoded length and the
    /// FNV-1a of its bytes) and return its canonical bytes.
    fn artifact<T: Wire>(&mut self, bench: &str, artifact: &str, v: &T) -> Vec<u8> {
        let bytes = wire::encode(v);
        let (len, hash) = (bytes.len(), fnv1a(&bytes));
        writeln!(self.rows, "| {bench} | {artifact} | {len} | {hash:016x} |").unwrap();
        check_codec::<T>(&bytes, &mut self.rng, &format!("{bench} {artifact}"));
        bytes
    }

    /// An enum's wire tag is the first byte of its encoding.
    fn tag<T: Wire>(&mut self, name: &'static str, v: &T) {
        let tag = wire::encode(v)[0];
        self.tags.entry(name).or_default().insert(tag);
    }

    fn module(&mut self, m: &Module) {
        for f in &m.kernels {
            for ty in f.params.iter().map(|p| &p.ty).chain(&f.vreg_types) {
                self.tag("Type", ty);
            }
            for b in &f.blocks {
                for i in &b.insts {
                    self.tag("Op", &i.op);
                    if let Op::WorkItem(w) = &i.op {
                        self.tag("Builtin", w);
                    }
                    i.op.for_each_operand(|o| self.operand(o));
                }
                self.tag("Terminator", &b.term);
                if let Terminator::CondBr { cond, .. } = b.term {
                    self.operand(cond);
                }
            }
        }
    }

    fn operand(&mut self, o: Operand) {
        self.tag("Operand", &o);
        if let Operand::Const(c) = o {
            self.tag("Const", &c);
        }
    }

    fn synth(&mut self, outcome: &Result<SynthReport, SynthFailure>) {
        if let Err(f) = outcome {
            self.tag("SynthFailure", f);
        }
    }
}

/// The builtins and constant kind no suite benchmark uses.
const EXTRA_VARIANTS: &str = r#"
__kernel void extra(__global uint* d) {
    d[get_group_id(0)] = get_local_size(0) * get_num_groups(0) + 7u;
}
"#;

/// [`EXTRA_VARIANTS`], plus a select: the front end lowers `?:` with
/// control flow, so no source produces one.
fn extra_variants() -> Module {
    let mut m = ocl_front::compile(EXTRA_VARIANTS).expect("extra variants");
    let f = &mut m.kernels[0];
    let r = VReg(f.vreg_types.len() as u32);
    f.vreg_types.push(Type::Scalar(Scalar::U32));
    let select = Op::Select {
        ty: Scalar::U32,
        cond: Operand::Const(Const::Bool(true)),
        a: Operand::Const(Const::U32(1)),
        b: Operand::Const(Const::U32(2)),
    };
    f.blocks[0].insts.push(Inst {
        result: Some(r),
        op: select,
    });
    m
}

/// The tentpole matrix: every benchmark x every optimization level x both
/// flows. For each cell, the cold cached artifact, the warm (memory-hit)
/// artifact and a fresh uncached compile must all encode to the same
/// canonical bytes — i.e. the cache can never change what a consumer sees —
/// and a warm Vortex program must equal the fresh one instruction for
/// instruction. Every fresh artifact's length and FNV-1a are pinned in
/// `tests/golden/cache_artifacts.md`, so a codec change that moves a byte
/// fails here; regenerate after an intentional format change (with a
/// `CACHE_SCHEMA_VERSION` bump) with
/// `REGOLD=1 cargo test --test cache_equivalence`.
///
/// Each fresh artifact also passes [`check_codec`], and together with
/// [`extra_variants`] they use every tag of `Op`, `Terminator`, `Builtin`,
/// `Type`, `Operand`, `Const` and `SynthFailure`.
#[test]
fn artifacts_byte_identical_cold_warm_fresh_across_matrix() {
    let cache = mem_cache();
    let devices = [Device::mx2100(), Device::sx2800()];
    let mut ledger = Ledger {
        rows: String::from(
            "# cache artifacts\n\n\
             Encoded length and FNV-1a of every artifact the compile cache stores \
             for the suite: the lowered module, the optimized module and the T = 4 \
             Vortex kernels at each opt level, and the HLS outcome on both devices.\n\n\
             | benchmark | artifact | bytes | fnv1a |\n\
             |---|---|---|---|\n",
        ),
        tags: BTreeMap::new(),
        rng: Rng::new(0xc0de_c0de),
    };
    for b in all_benchmarks() {
        // Lowering (source as written).
        let fresh_lower = ocl_front::compile(b.source).expect(b.name);
        ledger.artifact(b.name, "lower", &fresh_lower);
        ledger.module(&fresh_lower);
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
            let fresh_opt = fresh_optimize(b.source, level);
            let fresh = ledger.artifact(b.name, &format!("opt@{}", level.flag_name()), &fresh_opt);
            ledger.module(&fresh_opt);
            let cold = wire::encode(&cache.optimize(b.source, level).unwrap());
            let warm = wire::encode(&cache.optimize(b.source, level).unwrap());
            assert_eq!(cold, fresh, "{} at {level:?}: cold opt != fresh", b.name);
            assert_eq!(warm, fresh, "{} at {level:?}: warm opt != fresh", b.name);

            // Vortex back end.
            let opts = fpga_gpu_repro::vcc::CodegenOpts { threads: 4 };
            let fresh_kernels: Vec<_> = fresh_opt
                .kernels
                .iter()
                .map(|k| fpga_gpu_repro::vcc::compile_kernel(k, &opts).expect(b.name))
                .collect();
            let label = format!("vortex@{}", level.flag_name());
            let fresh = ledger.artifact(b.name, &label, &fresh_kernels);
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
            let outcome = synthesize(&fresh_lower, device, &SynthOptions::default());
            let fresh = ledger.artifact(b.name, &format!("hls@{}", device.name), &outcome);
            ledger.synth(&outcome);
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

    let rows = std::mem::take(&mut ledger.rows);
    let extra = extra_variants();
    check_codec::<Module>(&wire::encode(&extra), &mut ledger.rng, "extra variants");
    ledger.module(&extra);
    for (name, n) in [
        ("Op", 13),
        ("Terminator", 3),
        ("Builtin", 6),
        ("Type", 2),
        ("Operand", 2),
        ("Const", 4),
        ("SynthFailure", 2),
    ] {
        let seen = ledger.tags.get(name).cloned().unwrap_or_default();
        assert_eq!(seen, (0..n).collect(), "{name} tags the matrix encodes");
    }

    golden::check(
        "cache_artifacts.md",
        &rows,
        "cache artifact bytes (bump CACHE_SCHEMA_VERSION for an intentional format change)",
    );
}

/// Holds one stage's kernel selections to its whole-module artifact, which
/// the caller has just looked up: a selection of every kernel, as given and
/// reversed and repeated, encodes to `whole` and adds no miss, since it is
/// the whole-module key; and each one-kernel selection encodes to
/// `part(i)`, that kernel's element of `whole`, cold and warm, under a key
/// of its own (so with two kernels `a` and `b`, the selections `{a}`, `{b}`
/// and the whole module are three entries).
fn check_selections(
    cache: &Cache,
    what: &str,
    stage: Stage,
    names: &[&str],
    whole: &[u8],
    part: impl Fn(usize) -> Vec<u8>,
    select: impl Fn(&[&str]) -> Vec<u8>,
) {
    let misses = || cache.stats().misses_by_stage[stage.index()];
    let start = misses();
    for pass in ["cold", "warm"] {
        assert_eq!(select(names), whole, "{what}: {pass}, every kernel");
    }
    let messy: Vec<&str> = names.iter().rev().chain(names).copied().collect();
    assert_eq!(select(&messy), whole, "{what}: {messy:?}");
    assert_eq!(
        misses(),
        start,
        "{what}: every kernel, in any order, is the whole-module key"
    );
    for (i, name) in names.iter().enumerate() {
        let before = misses();
        for pass in ["cold", "warm"] {
            assert_eq!(select(&[name]), part(i), "{what}: {pass}, {name} alone");
        }
        // With one kernel, `{name}` is the selection of every kernel.
        let new = u64::from(names.len() > 1);
        assert_eq!(misses(), before + new, "{what}: key of {name}");
    }
}

/// A job compiles only the kernels it launches, which is sound because the
/// passes, `verify` and codegen work kernel by kernel: over every benchmark
/// × every opt level (`opt` and T = 4 `vortex`), plus the as-written T = 4
/// Vortex build, each kernel selection is its part of the whole-module
/// artifact, byte for byte; see [`check_selections`].
#[test]
fn kernel_selections_are_their_part_of_the_whole_module() {
    let cache = mem_cache();
    let mut multi_kernel = 0;
    for b in all_benchmarks() {
        let lowered = cache.lower(b.source).unwrap();
        let names: Vec<&str> = lowered.kernels.iter().map(|k| k.name.as_str()).collect();
        multi_kernel += usize::from(names.len() > 1);
        for level in OptLevel::ALL {
            let whole = cache.optimize(b.source, level).unwrap();
            check_selections(
                &cache,
                &format!("{} opt@{}", b.name, level.flag_name()),
                Stage::Opt,
                &names,
                &wire::encode(&whole),
                |i| {
                    wire::encode(&Module {
                        kernels: vec![whole.kernels[i].clone()],
                    })
                },
                |sel| wire::encode(&cache.optimize_kernels(b.source, level, sel).unwrap()),
            );
        }
        for level in OptLevel::ALL.map(Some).into_iter().chain([None]) {
            let whole = cache.codegen_vortex(b.source, level, 4).unwrap();
            let label = level.map_or("as written", OptLevel::flag_name);
            check_selections(
                &cache,
                &format!("{} vortex@{label}", b.name),
                Stage::Vortex,
                &names,
                &wire::encode(&whole),
                |i| wire::encode(&whole[i..=i].to_vec()),
                |sel| wire::encode(&cache.codegen_kernels(b.source, level, 4, sel).unwrap()),
            );
        }
    }
    assert!(
        multi_kernel > 0,
        "no benchmark has two kernels to tell apart"
    );
    let s = cache.stats();
    assert!(s.corrupt == 0 && s.disk_write_errors == 0);
}

/// The front end parses and lowers only the selected kernels, which is sound
/// because lowering and `verify` work kernel by kernel: for every benchmark
/// source the `lower` selections follow [`check_selections`]'s rule, and
/// each one-kernel selection encodes to that kernel cut from the
/// whole-module artifact whether the miss parses the tokens its own lookup
/// lexed (a new cache) or lexes again (a source the memo has seen).
#[test]
fn lower_selections_are_their_part_of_the_whole_module() {
    let cache = mem_cache();
    for b in all_benchmarks() {
        let whole = cache.lower(b.source).unwrap();
        let names: Vec<&str> = whole.kernels.iter().map(|k| k.name.as_str()).collect();
        let part = |i: usize| {
            wire::encode(&Module {
                kernels: vec![whole.kernels[i].clone()],
            })
        };
        check_selections(
            &cache,
            &format!("{} lower", b.name),
            Stage::Lower,
            &names,
            &wire::encode(&whole),
            part,
            |sel| wire::encode(&cache.lower_kernels(b.source, sel).unwrap()),
        );
        for (i, name) in names.iter().enumerate() {
            let lexed_here = mem_cache().lower_kernels(b.source, &[name]).unwrap();
            assert_eq!(
                wire::encode(&lexed_here),
                part(i),
                "{}: {name}, new cache",
                b.name
            );
        }
    }
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
    let vortex = Backend::Vortex {
        cfg: SimConfig::new(VortexConfig::new(4, 8, 8)),
    };
    for b in all_benchmarks() {
        let w = (b.workload)(Scale::Test);
        let cold = run(&vortex, b.source, &w, Some(DEFAULT_OPT), None)
            .unwrap_or_else(|e| panic!("{}: cold run: {e}", b.name));
        let warm = run(&vortex, b.source, &w, Some(DEFAULT_OPT), None)
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
    let mut h = Fnv::new();
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
