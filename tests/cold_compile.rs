//! A cold compile pays for compiling once: the cache lexes a new source a
//! single time — for the fingerprint — and the `Lower` miss that follows
//! parses those tokens. Its own test binary: the second test reads the
//! process-global metrics registry.

use fpga_gpu_repro::cache::{Cache, CacheConfig};
use fpga_gpu_repro::front::{compile, compile_lexed, lex_source};
use fpga_gpu_repro::ir::passes::OptLevel;
use fpga_gpu_repro::suite::all_benchmarks;
use repro_util::{metrics, Rng};
use std::sync::{Mutex, MutexGuard};

/// Both tests compile; only one may do it while the registry is armed.
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
