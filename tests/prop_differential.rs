//! Randomized differential testing: generate random kernels in the
//! OpenCL subset, run them through the reference interpreter and the full
//! Vortex flow (front end → codegen → cycle simulator), and require
//! bit-identical memory. This hammers the whole stack — expression
//! lowering, divergence lowering, register allocation, the scheduler
//! prologue, and the simulator's SIMT semantics — with shapes no
//! hand-written test covers.
//!
//! Cases are drawn from a fixed-seed [`repro_util::Rng`], so every run
//! replays the same sequence and a failing `case` index is a full repro.

use fpga_gpu_repro::arch::VortexConfig;
use fpga_gpu_repro::ir::interp::{run_ndrange, KernelArg, Limits, Memory, NdRange};
use fpga_gpu_repro::vrt::{Arg, VxSession};
use fpga_gpu_repro::vsim::SimConfig;
use kernel_gen::{arb_atomic_kernel, arb_float_kernel, arb_kernel, arb_local_kernel, case_input};
use repro_util::Rng;

#[path = "support/kernel_gen.rs"]
mod kernel_gen;

const CASES: u64 = 48;

/// Run `src` through the reference interpreter and the full Vortex flow
/// with `input` in `a` and `init_out` preloaded into `o`, and require
/// bit-identical final output memory.
fn assert_differential(case: u64, src: &str, input: &[i32], init_out: &[i32], nd: &NdRange) {
    let n = input.len() as i32;
    let module = ocl_front::compile(src)
        .unwrap_or_else(|e| panic!("case {case}: gen produced invalid source: {e}\n{src}"));
    let k = module.expect_kernel("fuzz");
    let mut mem = Memory::new(1 << 20);
    let pa = mem.alloc_i32(input);
    let po = mem.alloc_i32(init_out);
    run_ndrange(
        k,
        &[KernelArg::Ptr(pa), KernelArg::Ptr(po), KernelArg::I32(n)],
        nd,
        &mut mem,
        &Limits::default(),
    )
    .unwrap_or_else(|e| panic!("case {case}: interp: {e}\n{src}"));
    let want = mem.read_i32_slice(po, init_out.len());

    let cfg = SimConfig::new(VortexConfig::new(1, 2, 4));
    let compiled = fpga_gpu_repro::vrt::compile_for(src, "fuzz", &cfg)
        .unwrap_or_else(|e| panic!("case {case}: codegen: {e}\n{src}"));
    let mut sess = VxSession::new(cfg, compiled);
    let da = sess.alloc_i32(input).unwrap();
    let dout = sess.alloc_i32(init_out).unwrap();
    sess.launch(&[Arg::Buf(da), Arg::Buf(dout), Arg::I32(n)], nd)
        .unwrap_or_else(|e| panic!("case {case}: launch: {e}\n{src}"));
    let got = sess.read_i32(dout, init_out.len()).unwrap();
    assert_eq!(got, want, "case {case}: kernel:\n{src}");
}

#[test]
fn vortex_matches_interpreter_on_random_kernels() {
    let mut r = Rng::new(0xD1FF_0001);
    for case in 0..CASES {
        let src = arb_kernel(&mut r);
        let seed = r.below(1000);
        let n = 64u32;
        let nd = NdRange::d1(n, 8);
        let input: Vec<i32> = (0..n as i64)
            .map(|i| ((i.wrapping_mul(2654435761) + seed as i64) % 199 - 99) as i32)
            .collect();

        let module = ocl_front::compile(&src)
            .unwrap_or_else(|e| panic!("case {case}: gen produced invalid source: {e}\n{src}"));
        let k = module.expect_kernel("fuzz");
        let mut mem = Memory::new(1 << 20);
        let pa = mem.alloc_i32(&input);
        let po = mem.alloc(n * 4);
        run_ndrange(
            k,
            &[
                KernelArg::Ptr(pa),
                KernelArg::Ptr(po),
                KernelArg::I32(n as i32),
            ],
            &nd,
            &mut mem,
            &Limits::default(),
        )
        .unwrap_or_else(|e| panic!("case {case}: interp: {e}\n{src}"));
        let want = mem.read_i32_slice(po, n as usize);

        let cfg = SimConfig::new(VortexConfig::new(1, 2, 4));
        let compiled = fpga_gpu_repro::vrt::compile_for(&src, "fuzz", &cfg)
            .unwrap_or_else(|e| panic!("case {case}: codegen: {e}\n{src}"));
        let mut sess = VxSession::new(cfg, compiled);
        let da = sess.alloc_i32(&input).unwrap();
        let dout = sess.alloc(n * 4).unwrap();
        sess.launch(&[Arg::Buf(da), Arg::Buf(dout), Arg::I32(n as i32)], &nd)
            .unwrap_or_else(|e| panic!("case {case}: launch: {e}\n{src}"));
        let got = sess.read_i32(dout, n as usize).unwrap();
        assert_eq!(got, want, "case {case}: kernel:\n{src}");
    }
}

/// Random `__local` + `barrier()` kernels (group mode, local stores,
/// cross-work-item reads after synchronization) match the interpreter
/// bit-for-bit through the full Vortex flow.
#[test]
fn local_barrier_kernels_match_interpreter() {
    let mut r = Rng::new(0xD1FF_0003);
    for case in 0..CASES {
        let src = arb_local_kernel(&mut r);
        let seed = r.below(1000);
        let n = 64u32;
        let input = case_input(n, seed);
        let zeros = vec![0i32; n as usize];
        assert_differential(case, &src, &input, &zeros, &NdRange::d1(n, 8));
    }
}

/// Random kernels with float arithmetic and int↔float conversions under a
/// divergent branch match the interpreter bit-for-bit: the independent
/// oracle for the simulator's partial-mask float lanes.
#[test]
fn divergent_float_kernels_match_interpreter() {
    let mut r = Rng::new(0xD1FF_0008);
    for case in 0..CASES {
        let src = arb_float_kernel(&mut r);
        let seed = r.below(1000);
        let n = 64u32;
        let input = case_input(n, seed);
        let zeros = vec![0i32; n as usize];
        assert_differential(case, &src, &input, &zeros, &NdRange::d1(n, 8));
    }
}

/// Random atomic-RMW kernels produce order-independent final memory, so
/// the sequential interpreter and the parallel simulator must agree
/// exactly — on a non-trivially initialized output buffer (so `min`/`max`/
/// bitwise families see varied prior values).
#[test]
fn atomic_kernels_match_interpreter() {
    let mut r = Rng::new(0xD1FF_0004);
    for case in 0..CASES {
        let src = arb_atomic_kernel(&mut r);
        let seed = r.below(1000);
        let n = 64u32;
        let input = case_input(n, seed);
        let init_out: Vec<i32> = (0..n as i32).map(|i| (i * 37) % 53 - 26).collect();
        assert_differential(case, &src, &input, &init_out, &NdRange::d1(n, 8));
    }
}

/// Every optimization level — including the loop tier — preserves
/// semantics on random kernels through BOTH back ends: the reference
/// interpreter and the full Vortex flow each run the middle-end output at
/// `None`, `Basic`, `VariableReuse` and `Loop`, and every combination must
/// be bit-identical to the unoptimized interpreter (the oracle).
#[test]
fn all_levels_match_on_both_backends() {
    use ocl_ir::passes::OptLevel;
    let mut r = Rng::new(0xD1FF_0005);
    for case in 0..CASES / 2 {
        let src = arb_kernel(&mut r);
        let seed = r.below(1000);
        let n = 32u32;
        let nd = NdRange::d1(n, 8);
        let input = case_input(n, seed);
        let module = ocl_front::compile(&src)
            .unwrap_or_else(|e| panic!("case {case}: gen produced invalid source: {e}\n{src}"));
        let run_interp = |m: &ocl_ir::Module, what: &str| {
            let mut mem = Memory::new(1 << 20);
            let pa = mem.alloc_i32(&input);
            let po = mem.alloc(n * 4);
            run_ndrange(
                m.expect_kernel("fuzz"),
                &[
                    KernelArg::Ptr(pa),
                    KernelArg::Ptr(po),
                    KernelArg::I32(n as i32),
                ],
                &nd,
                &mut mem,
                &Limits::default(),
            )
            .unwrap_or_else(|e| panic!("case {case}: {what}: {e}\n{src}"));
            mem.read_i32_slice(po, n as usize)
        };
        let want = run_interp(&module, "oracle interp");
        for level in OptLevel::ALL {
            let mut m = module.clone();
            ocl_ir::passes::optimize_module(&mut m, level);
            ocl_ir::verify::verify_module(&m)
                .unwrap_or_else(|e| panic!("case {case}: verify at {level:?}: {e}\n{src}"));
            let got = run_interp(&m, "interp");
            assert_eq!(got, want, "case {case} interp at {level:?}:\n{src}");

            let cfg = SimConfig::new(VortexConfig::new(1, 2, 4));
            let compiled = fpga_gpu_repro::vrt::compile_for_at(&src, "fuzz", &cfg, level)
                .unwrap_or_else(|e| panic!("case {case}: codegen at {level:?}: {e}\n{src}"));
            let mut sess = VxSession::new(cfg, compiled);
            let da = sess.alloc_i32(&input).unwrap();
            let dout = sess.alloc(n * 4).unwrap();
            sess.launch(&[Arg::Buf(da), Arg::Buf(dout), Arg::I32(n as i32)], &nd)
                .unwrap_or_else(|e| panic!("case {case}: launch at {level:?}: {e}\n{src}"));
            let got = sess.read_i32(dout, n as usize).unwrap();
            assert_eq!(got, want, "case {case} vortex at {level:?}:\n{src}");
        }
    }
}

/// Random kernels — plain, `__local`+barrier, and atomic-RMW — produce
/// bit-identical cycles, statistics, and output memory under both run
/// loops: the dense reference loop is the oracle and the event-driven loop
/// must match it exactly, at two optimization levels, on a 2-core machine
/// and — every third round of the three generators, so a third of the
/// cases and all three kinds — on a 4-core one, where an epoch commit
/// merges four views. This is dense ≡ events under fuzzing pressure rather
/// than hand-picked benchmarks.
#[test]
fn run_loops_agree_on_random_kernels() {
    use ocl_ir::passes::OptLevel;
    let mut r = Rng::new(0xD1FF_0007);
    for case in 0..CASES / 2 {
        let src = match case % 3 {
            0 => arb_kernel(&mut r),
            1 => arb_local_kernel(&mut r),
            _ => arb_atomic_kernel(&mut r),
        };
        let seed = r.below(1000);
        let n = 64u32;
        let nd = NdRange::d1(n, 8);
        let input = case_input(n, seed);
        let init_out: Vec<i32> = (0..n as i32).map(|i| (i * 37) % 53 - 26).collect();
        let hw = if (case / 3) % 3 == 0 {
            VortexConfig::new(4, 2, 4)
        } else {
            VortexConfig::new(2, 2, 4)
        };
        for level in [OptLevel::None, OptLevel::VariableReuse] {
            let run = |reference: bool| -> (Vec<i32>, vortex_sim::SimStats) {
                let mut cfg = SimConfig::new(hw);
                cfg.reference_mode = reference;
                let compiled = fpga_gpu_repro::vrt::compile_for_at(&src, "fuzz", &cfg, level)
                    .unwrap_or_else(|e| panic!("case {case}: codegen at {level:?}: {e}\n{src}"));
                let mut sess = VxSession::new(cfg, compiled);
                let da = sess.alloc_i32(&input).unwrap();
                let dout = sess.alloc_i32(&init_out).unwrap();
                let res = sess
                    .launch(&[Arg::Buf(da), Arg::Buf(dout), Arg::I32(n as i32)], &nd)
                    .unwrap_or_else(|e| {
                        panic!("case {case}: launch ref={reference} on {hw}: {e}\n{src}")
                    });
                (sess.read_i32(dout, init_out.len()).unwrap(), res.stats)
            };
            let (want_mem, want_stats) = run(true);
            let (got_mem, got_stats) = run(false);
            assert_eq!(
                got_stats, want_stats,
                "case {case} at {level:?} on {hw}: stats\n{src}"
            );
            assert_eq!(
                got_mem, want_mem,
                "case {case} at {level:?} on {hw}: memory\n{src}"
            );
        }
    }
}

/// Mutate a valid kernel source into likely-malformed text: truncate it,
/// drop or duplicate a span, or splice in characters the grammar treats as
/// structure (`{ } ( ) [ ] ; " \ #` …). ASCII-only generators keep every
/// mutation a valid UTF-8 boundary.
fn mutate_source(r: &mut Rng, src: &str) -> String {
    let bytes = src.as_bytes();
    let n = bytes.len();
    let mut out = bytes.to_vec();
    match r.below(4) {
        // Truncate: the classic "half a kernel" input.
        0 => out.truncate(r.below(n as u64 + 1) as usize),
        // Delete a span.
        1 => {
            let a = r.below(n as u64) as usize;
            let b = (a + 1 + r.below(16) as usize).min(n);
            out.drain(a..b);
        }
        // Duplicate a span in place.
        2 => {
            let a = r.below(n as u64) as usize;
            let b = (a + 1 + r.below(16) as usize).min(n);
            let chunk: Vec<u8> = out[a..b].to_vec();
            out.splice(a..a, chunk);
        }
        // Splice in structural noise.
        _ => {
            const NOISE: &[u8] = b"{}()[];\"\\#*/&|<>!%^~,.0x\x01\x7f";
            let at = r.below(n as u64 + 1) as usize;
            for _ in 0..1 + r.below(6) {
                let c = NOISE[r.below(NOISE.len() as u64) as usize];
                out.insert(at, c);
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// The frontend is panic-free on garbage: every mutated or truncated
/// source either compiles or returns a diagnostic — it never panics. This
/// is the compile-side half of the fail-soft contract (the run-side half
/// lives in `tests/fail_soft.rs`).
#[test]
fn frontend_never_panics_on_malformed_source() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let mut r = Rng::new(0xD1FF_0006);
    // Random mutants of generator output.
    for case in 0..CASES * 4 {
        let base = if r.bool() {
            arb_kernel(&mut r)
        } else {
            arb_local_kernel(&mut r)
        };
        let src = mutate_source(&mut r, &base);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _ = ocl_front::compile(&src);
        }));
        assert!(outcome.is_ok(), "case {case}: frontend panicked on:\n{src}");
    }
    // Known-nasty fixed seeds: unterminated comments and strings, stray
    // preprocessor lines, deep nesting, bare EOF mid-construct.
    let nasty = [
        "",
        "__kernel",
        "__kernel void k(",
        "__kernel void k() { /* never closed",
        "__kernel void k() { printf(\"never closed); }",
        "#define A",
        "#define A A\n__kernel void k() { int x = A; }",
        "__kernel void k() { int x = ((((((((((((((((1; }",
        "__kernel void k() { for (;;) }",
        "__kernel void k(__global int* o) { o[0] = 0x; }",
        "__kernel void k() { \u{1}\u{7f} }",
    ];
    for src in nasty {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _ = ocl_front::compile(src);
        }));
        assert!(outcome.is_ok(), "frontend panicked on:\n{src}");
    }
}

/// The optimization pipeline preserves interpreter semantics on random
/// kernels (CSE alias reasoning, const-fold, copy-prop, DCE).
#[test]
fn passes_preserve_semantics() {
    let mut r = Rng::new(0xD1FF_0002);
    for case in 0..CASES {
        let src = arb_kernel(&mut r);
        let seed = r.below(1000);
        let n = 32u32;
        let nd = NdRange::d1(n, 8);
        let input: Vec<i32> = (0..n as i64)
            .map(|i| {
                (i.wrapping_mul(11400714819323198485u64 as i64)
                    .wrapping_add(seed as i64)
                    % 97) as i32
            })
            .collect();
        let module = match ocl_front::compile(&src) {
            Ok(m) => m,
            Err(_) => continue,
        };
        let mut optimized = module.clone();
        ocl_ir::passes::optimize_module(&mut optimized, ocl_ir::passes::OptLevel::VariableReuse);
        ocl_ir::verify::verify_module(&optimized)
            .unwrap_or_else(|e| panic!("case {case}: verify after passes: {e}\n{src}"));
        let run = |m: &ocl_ir::Module| {
            let mut mem = Memory::new(1 << 20);
            let pa = mem.alloc_i32(&input);
            let po = mem.alloc(n * 4);
            run_ndrange(
                m.expect_kernel("fuzz"),
                &[
                    KernelArg::Ptr(pa),
                    KernelArg::Ptr(po),
                    KernelArg::I32(n as i32),
                ],
                &nd,
                &mut mem,
                &Limits::default(),
            )
            .map(|_| mem.read_i32_slice(po, n as usize))
        };
        let base = run(&module).unwrap_or_else(|e| panic!("case {case}: {e}\n{src}"));
        let opt = run(&optimized).unwrap_or_else(|e| panic!("case {case}: opt: {e}\n{src}"));
        assert_eq!(base, opt, "case {case}: kernel:\n{src}");
    }
}

// ---------------------------------------------------------------------------
// Compile-cache properties (PR 7): content addressing under fuzzing pressure
// ---------------------------------------------------------------------------

/// The cache can never serve a stale artifact: for random mutants of a
/// kernel whose original is already cached, looking the mutant up must be
/// indistinguishable from compiling it fresh — same module bytes when it
/// compiles, same rejection when it doesn't. Token-preserving mutants are
/// *allowed* (and expected) to hit; the property holds either way because
/// equal token streams lower to equal modules.
#[test]
fn cache_never_serves_stale_artifacts_for_mutants() {
    use fpga_gpu_repro::cache::{wire, Cache, CacheConfig};
    use ocl_ir::passes::OptLevel;
    let mut r = Rng::new(0xCAC4_0001);
    let cache = Cache::new(CacheConfig::default());
    for case in 0..CASES * 2 {
        let base = arb_kernel(&mut r);
        cache
            .optimize(&base, OptLevel::Basic)
            .unwrap_or_else(|e| panic!("case {case}: base failed: {e}\n{base}"));
        let mutant = mutate_source(&mut r, &base);
        let fresh = ocl_front::compile(&mutant).map(|mut m| {
            ocl_ir::passes::optimize_module(&mut m, OptLevel::Basic);
            m
        });
        match (cache.optimize(&mutant, OptLevel::Basic), fresh) {
            (Ok(cached), Ok(fresh)) => assert_eq!(
                wire::encode(&cached),
                wire::encode(&fresh),
                "case {case}: cached mutant != fresh mutant\nbase:\n{base}\nmutant:\n{mutant}"
            ),
            (Err(_), Err(_)) => {}
            (cached, fresh) => panic!(
                "case {case}: cache and fresh compile disagree on acceptance \
                 (cached ok={}, fresh ok={})\nmutant:\n{mutant}",
                cached.is_ok(),
                fresh.is_ok()
            ),
        }
    }
}

/// Formatting- and comment-only edits keep the content address: random
/// token-safe reformattings of random kernels fingerprint identically,
/// are served as hits, and decode to the same artifact bytes.
#[test]
fn cache_hits_on_formatting_only_edits() {
    use fpga_gpu_repro::cache::{token_fingerprint, wire, Cache, CacheConfig};
    use ocl_ir::passes::OptLevel;
    let mut r = Rng::new(0xCAC4_0002);
    for case in 0..CASES {
        let base = arb_kernel(&mut r);
        let mut pretty = base.clone();
        // Each transformation preserves the token stream exactly.
        if r.bool() {
            pretty = pretty.replace('\n', "\n\n");
        }
        if r.bool() {
            pretty = pretty.replace(';', ";\n  ");
        }
        if r.bool() {
            pretty = format!("/* case {case} */\n{pretty}");
        }
        pretty.push_str("\n// trailing note\n");
        assert_eq!(
            token_fingerprint(&base).unwrap(),
            token_fingerprint(&pretty).unwrap(),
            "case {case}: formatting changed the fingerprint\n{pretty}"
        );
        let cache = Cache::new(CacheConfig::default());
        let cold = cache.optimize(&base, OptLevel::Basic).unwrap();
        let warm = cache.optimize(&pretty, OptLevel::Basic).unwrap();
        assert_eq!(wire::encode(&cold), wire::encode(&warm), "case {case}");
        let s = cache.stats();
        assert_eq!(s.hits(), 1, "case {case}: reformatted source did not hit");
    }
}

/// Concurrency: hammer one shared disk-backed cache instance from four
/// threads (mixed cold and warm traffic over a pool of kernels), each also
/// hammering a *second* instance racing over the same directory. Every
/// returned artifact must be bit-identical to the fresh oracle, the store
/// must end up torn-write-free (a cold restart sees only hits), and no
/// `.tmp` litter may survive.
#[test]
fn concurrent_cache_lookups_are_bit_identical_and_disk_stays_clean() {
    use fpga_gpu_repro::cache::{wire, Cache, CacheConfig};
    use ocl_ir::passes::OptLevel;

    let dir = std::env::temp_dir().join(format!("repro-cache-prop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mk = || {
        Cache::new(CacheConfig {
            disk_dir: Some(dir.clone()),
            ..CacheConfig::default()
        })
    };

    let mut r = Rng::new(0xCAC4_0003);
    let pool: Vec<String> = (0..12).map(|_| arb_kernel(&mut r)).collect();
    let oracle: Vec<Vec<u8>> = pool
        .iter()
        .map(|src| {
            let mut m = ocl_front::compile(src).unwrap();
            ocl_ir::passes::optimize_module(&mut m, OptLevel::Loop);
            wire::encode(&m)
        })
        .collect();

    let cache = mk();
    let racer = mk();
    // Four threads, released together, each walk the pool once on both
    // racing instances: a kernel's first touches are cold and race each
    // other onto disk, the stragglers' are warm. The thread count is fixed
    // so this is a race on a one-core host too.
    const RACERS: usize = 4;
    let start = std::sync::Barrier::new(RACERS);
    std::thread::scope(|s| {
        for _ in 0..RACERS {
            s.spawn(|| {
                start.wait();
                for (i, src) in pool.iter().enumerate() {
                    let a = wire::encode(&cache.optimize(src, OptLevel::Loop).unwrap());
                    let b = wire::encode(&racer.optimize(src, OptLevel::Loop).unwrap());
                    assert_eq!(a, oracle[i], "instance A: non-fresh bytes for kernel {i}");
                    assert_eq!(b, oracle[i], "instance B: non-fresh bytes for kernel {i}");
                }
            });
        }
    });
    assert_eq!(cache.stats().corrupt + racer.stats().corrupt, 0);

    // A cold restart over the racy directory sees a fully intact store.
    let fresh = mk();
    for (i, src) in pool.iter().enumerate() {
        let m = wire::encode(&fresh.optimize(src, OptLevel::Loop).unwrap());
        assert_eq!(m, oracle[i], "post-race disk entry for kernel {i} is wrong");
    }
    let s = fresh.stats();
    assert_eq!(s.misses, 0, "racing writers left holes in the store");
    assert_eq!(s.corrupt, 0, "racing writers tore an entry");
    let tmp_litter = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|f| {
            f.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|e| e == "tmp")
        })
        .count();
    assert_eq!(
        tmp_litter, 0,
        "temporary files leaked past the atomic rename"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
