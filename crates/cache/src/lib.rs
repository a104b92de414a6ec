//! `repro-cache` — a content-addressed cache over the compile pipeline.
//!
//! Every sweep the repro stack runs (`check`, `perf-report`, the Fig. 7
//! grids, the differential harnesses) recompiles the same 28 kernels from
//! the same sources over and over. This crate makes that repeat traffic
//! near-free while keeping it *provably* equivalent to fresh compilation:
//!
//! * **Keys** are content addresses: an FNV-1a 64 fingerprint of the
//!   preprocessed *token stream* (so whitespace- and comment-only edits may
//!   still hit), mixed with the schema version, the pipeline stage and the
//!   stage parameters (opt level, warp width, target device, and for the
//!   `lower`, `opt` and `vortex` stages a selection of some but not all
//!   kernels).
//! * **Artifacts** are the outputs of the four cacheable stages — lowered
//!   IR, optimized IR, Vortex compiled kernels, HLS synthesis outcome —
//!   stored as canonical bytes in the [`wire`] format.
//! * **Tiers**: an in-memory LRU of encoded artifacts in front of an
//!   optional on-disk store ([`disk`]) with atomic writes, a versioned
//!   envelope and corrupt-entry eviction.
//!
//! A miss returns the value it computed; a hit returns a value decoded from
//! the bytes that miss stored. That the two are the same value is enforced
//! in two places rather than paid for on every miss: in debug builds (so in
//! every tier-1 test) each miss decodes its own bytes and asserts they
//! re-encode identically, and `tests/cache_equivalence.rs` pins cold ≡ warm
//! ≡ fresh compilation byte for byte across the whole benchmark matrix.
//!
//! The memory tier holds bytes, not values, on a measurement: a prototype
//! tier of `Arc<Module>` was 13 % faster in process at one worker and 12 %
//! slower end to end at two (1831 → 1605 jobs/s on `compile-cold`), because
//! evicting a node-rich value frees thousands of chunks on a thread other
//! than the one that allocated them. One allocation per artifact does not.
//!
//! A cold source is preprocessed and lexed once: the lookup that has to lex
//! for the fingerprint keeps the [`ocl_front::Lexed`] and the `Lower` miss
//! that follows in the same call parses those tokens.
//!
//! A job compiles only the kernels it launches: [`Cache::lower_kernels`],
//! [`Cache::optimize_kernels`] and [`Cache::codegen_kernels`] take the
//! launched names, which are resolved once, before any lookup, by one rule
//! for every stage. A name the source does not define is a harness error
//! and looks nothing up. Names covering every kernel, in any order and with
//! repeats, are the whole module: the same key and artifact as
//! [`Cache::lower`], [`Cache::optimize`] and [`Cache::codegen_vortex`]. Any
//! other selection adds one key part, the FNV-1a of the sorted,
//! deduplicated names, and parses, lowers, `verify`s, optimizes and
//! generates code for those kernels alone. The front end skips the other
//! kernels' bodies unparsed ([`ocl_front::compile_lexed_kernels`]), so such
//! a job does not fail on a syntax or type error inside a kernel it does
//! not launch; the whole module checks every kernel. The kernel names come
//! from the same token walk as the fingerprint and are memoized with it.
//! Every stage works kernel by kernel, so a selected artifact equals the
//! matching kernels of the whole-module one; `tests/cache_equivalence.rs`
//! pins that.

pub mod artifacts;
pub mod disk;
pub mod lru;
pub mod wire;

use disk::{DiskRead, DiskStore};
use fpga_arch::Device;
use hls_flow::{synthesize, SynthFailure, SynthOptions, SynthReport};
use ocl_front::lex::Tok;
use ocl_front::{CompileError, Lexed};
use ocl_ir::passes::OptLevel;
use ocl_ir::Module;
use repro_util::diag::ReproError;
use repro_util::{fault, fnv1a, metrics, span, Fnv};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use vortex_cc::CompiledKernel;
use wire::Wire;

/// Version of the on-disk artifact schema. Bump this whenever a [`Wire`]
/// encoding or the meaning of an existing key changes: the version is part
/// of both the key mix and the disk envelope, so stale entries from older
/// builds can never be decoded as current-format artifacts. (A new kind of
/// key, such as a kernel selection's, strands nothing and needs no bump.)
pub const CACHE_SCHEMA_VERSION: u32 = 2;

/// The cacheable pipeline stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Front-end lowering: source → verified IR module, no middle end, of
    /// the whole module or of a kernel selection.
    Lower,
    /// Lowering plus the PassManager at a specific [`OptLevel`], of the
    /// whole module or of a kernel selection.
    Opt,
    /// Vortex back end: optimized module → compiled kernels, of the whole
    /// module or of a kernel selection.
    Vortex,
    /// HLS synthesis outcome (report or typed failure) for a device.
    Hls,
}

impl Stage {
    pub const ALL: [Stage; 4] = [Stage::Lower, Stage::Opt, Stage::Vortex, Stage::Hls];

    /// Stable tag used in keys and the disk envelope.
    pub fn tag(self) -> u8 {
        match self {
            Stage::Lower => 0,
            Stage::Opt => 1,
            Stage::Vortex => 2,
            Stage::Hls => 3,
        }
    }

    pub fn index(self) -> usize {
        self.tag() as usize
    }

    /// Stable name used in filenames and metrics.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Lower => "lower",
            Stage::Opt => "opt",
            Stage::Vortex => "vortex",
            Stage::Hls => "hls",
        }
    }

    /// Span name for a lookup of this stage (static so the disarmed
    /// observability path never allocates).
    fn span_name(self) -> &'static str {
        match self {
            Stage::Lower => "cache.lower",
            Stage::Opt => "cache.opt",
            Stage::Vortex => "cache.vortex",
            Stage::Hls => "cache.hls",
        }
    }
}

/// A content address: stage plus the mixed key hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    pub stage: Stage,
    pub hash: u64,
}

/// Capacity of a [`Cache`]'s in-memory tier, in entries.
const MEM_ENTRIES: usize = 512;

/// Construction options for a [`Cache`].
#[derive(Debug, Clone, Default)]
pub struct CacheConfig {
    /// Root of the on-disk tier; `None` keeps the cache memory-only.
    pub disk_dir: Option<PathBuf>,
}

/// Point-in-time counters of one cache instance. Unlike the mirrored global
/// `cache.*` metrics, these are per-instance and therefore race-free to
/// assert on in tests that share a process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits_mem: u64,
    pub hits_disk: u64,
    pub misses: u64,
    /// Misses per stage, indexed by [`Stage::index`].
    pub misses_by_stage: [u64; 4],
    pub evictions: u64,
    /// Corrupt or undecodable entries detected (and evicted).
    pub corrupt: u64,
    pub disk_write_errors: u64,
    pub mem_entries: u64,
    pub mem_bytes: u64,
}

impl CacheStats {
    pub fn hits(&self) -> u64 {
        self.hits_mem + self.hits_disk
    }

    /// Hit fraction in `[0, 1]`; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }
}

struct MemTier {
    lru: lru::Lru<Key, Arc<Vec<u8>>>,
    bytes: u64,
}

/// After this many disk write failures the disk tier is taken offline for
/// the rest of the process: a full (or read-only-remounted) disk will fail
/// every subsequent write too, and the cache must not pay a syscall per
/// miss to rediscover that.
const DISK_WRITE_ERROR_LIMIT: u64 = 3;

/// A two-tier content-addressed artifact cache.
pub struct Cache {
    mem: Mutex<MemTier>,
    disk: Option<DiskStore>,
    /// Runtime kill switch for the disk tier (write-error escalation).
    disk_offline: AtomicBool,
    /// A disk tier was requested but is not serving (probe failure at
    /// construction, or write-error escalation later) — the health flag
    /// `repro serve` reports.
    degraded: AtomicBool,
    /// Memoizes raw source bytes → token fingerprint and kernel names so
    /// hot lookups skip re-lexing. Keyed by the hash of the *exact* bytes,
    /// so a whitespace edit recomputes the fingerprint (and still lands on
    /// the same artifact key).
    fingerprints: Mutex<lru::Lru<u64, (u64, Kernels)>>,
    hits_mem: AtomicU64,
    hits_disk: AtomicU64,
    misses: AtomicU64,
    misses_by_stage: [AtomicU64; 4],
    evictions: AtomicU64,
    corrupt: AtomicU64,
    disk_write_errors: AtomicU64,
}

impl Cache {
    /// Build a cache. A configured disk tier is *probed* here: if the
    /// directory cannot be created or written (read-only filesystem, bad
    /// path, injected `cache.disk.open` fault), the cache degrades to
    /// memory-only with a one-line warning and a counted
    /// `cache.disk_disabled` event instead of failing the run — a broken
    /// cache directory must never take the pipeline down with it.
    pub fn new(config: CacheConfig) -> Cache {
        let disk_requested = config.disk_dir.is_some();
        let disk = config.disk_dir.and_then(|dir| match probe_writable(&dir) {
            Ok(()) => Some(DiskStore::new(dir)),
            Err(e) => {
                metrics::counter_add("cache.disk_disabled", 1);
                repro_obs::event("cache_degraded", &format!("disk probe failed: {e}"));
                eprintln!(
                    "repro-cache: disk tier disabled, continuing memory-only \
                     ({}: {e})",
                    dir.display()
                );
                None
            }
        });
        let degraded = disk_requested && disk.is_none();
        Cache {
            mem: Mutex::new(MemTier {
                lru: lru::Lru::new(MEM_ENTRIES),
                bytes: 0,
            }),
            disk,
            disk_offline: AtomicBool::new(false),
            degraded: AtomicBool::new(degraded),
            fingerprints: Mutex::new(lru::Lru::new(1024)),
            hits_mem: AtomicU64::new(0),
            hits_disk: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            misses_by_stage: Default::default(),
            evictions: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            disk_write_errors: AtomicU64::new(0),
        }
    }

    /// Root of the disk tier, if one is configured.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk.as_ref().map(DiskStore::dir)
    }

    /// Whether the disk tier is currently in use (configured, probed
    /// writable, and not taken offline by write-error escalation).
    pub fn disk_active(&self) -> bool {
        self.disk.is_some() && !self.disk_offline.load(Ordering::Relaxed)
    }

    /// Whether a requested disk tier is *not* serving — degraded to
    /// memory-only by a probe failure or write-error escalation. False for
    /// a cache that never asked for a disk tier.
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    fn disk_store(&self) -> Option<&DiskStore> {
        if self.disk_offline.load(Ordering::Relaxed) {
            return None;
        }
        self.disk.as_ref()
    }

    /// Record one disk write failure; past the limit, take the tier
    /// offline for the rest of the process (counted + one-line warning).
    fn note_disk_write_error(&self) {
        let n = self.disk_write_errors.fetch_add(1, Ordering::Relaxed) + 1;
        metrics::counter_add("cache.disk.write_error", 1);
        if n >= DISK_WRITE_ERROR_LIMIT && !self.disk_offline.swap(true, Ordering::Relaxed) {
            self.degraded.store(true, Ordering::Relaxed);
            metrics::counter_add("cache.disk_disabled", 1);
            repro_obs::event(
                "cache_degraded",
                &format!("disk tier offline after {n} write error(s)"),
            );
            eprintln!(
                "repro-cache: disk tier disabled after {n} write error(s), \
                 continuing memory-only"
            );
        }
    }

    // -- key derivation -----------------------------------------------------

    /// Fingerprint `src`, once per public lookup. A source whose exact bytes
    /// the memo has seen costs one hash and one lock acquisition; any other
    /// is lexed here (outside the lock), and the tokens travel with the
    /// fingerprint so a `Lower` miss later in the same call need not lex
    /// them again.
    fn keyed<'a>(&self, src: &'a str) -> Result<Keyed<'a>, CompileError> {
        let raw = fnv1a(src.as_bytes());
        let memo = self.fingerprints.lock().unwrap().get(&raw).cloned();
        let ((fp, kernels), lexed) = match memo {
            Some(memo) => (memo, None),
            None => {
                let lexed = ocl_front::lex_source(src, &[])?;
                let (fp, names) = fingerprint_tokens(&lexed);
                let memo = (fp, Kernels::from(names));
                self.fingerprints.lock().unwrap().insert(raw, memo.clone());
                (memo, Some(lexed))
            }
        };
        Ok(Keyed {
            src,
            fp,
            kernels,
            lexed,
        })
    }

    /// A stage's key: its parts, then the selection's hash unless it is the
    /// whole module.
    fn key(stage: Stage, parts: &[u64], sel: &Selection) -> Key {
        let mut h = Fnv::new();
        h.write_u64(CACHE_SCHEMA_VERSION as u64);
        h.write_u8(stage.tag());
        for &p in parts {
            h.write_u64(p);
        }
        if let Selection::Kernels { hash, .. } = sel {
            h.write_u64(*hash);
        }
        Key {
            stage,
            hash: h.finish(),
        }
    }

    // -- pipeline entry points ---------------------------------------------

    /// Front-end lowering: source → verified IR module (no middle end).
    pub fn lower(&self, src: &str) -> Result<Module, ReproError> {
        self.lower_keyed(self.keyed(src)?, &Selection::All)
    }

    /// [`Cache::lower`] of the named kernels only, in module order, with
    /// [`Cache::optimize_kernels`]'s rules for the names.
    pub fn lower_kernels(&self, src: &str, kernels: &[&str]) -> Result<Module, ReproError> {
        let k = self.keyed(src)?;
        let sel = k.select(kernels)?;
        self.lower_keyed(k, &sel)
    }

    /// The lowered module of `sel`'s kernels. A miss parses the tokens this
    /// call lexed, or lexes the source again when the memo had its
    /// fingerprint.
    fn lower_keyed(&self, k: Keyed, sel: &Selection) -> Result<Module, ReproError> {
        self.get_or_compute(Self::key(Stage::Lower, &[k.fp], sel), || {
            Ok(metrics::time("suite.frontend", || {
                let lexed = match k.lexed {
                    Some(lexed) => lexed,
                    None => ocl_front::lex_source(k.src, &[])?,
                };
                match sel {
                    Selection::All => ocl_front::compile_lexed(&lexed),
                    Selection::Kernels { names, .. } => {
                        ocl_front::compile_lexed_kernels(&lexed, names)
                    }
                }
            })?)
        })
    }

    /// Lowering plus the shared middle end at `level`, verified.
    pub fn optimize(&self, src: &str, level: OptLevel) -> Result<Module, ReproError> {
        self.optimize_keyed(self.keyed(src)?, level, &Selection::All)
    }

    /// [`Cache::optimize`] of the named kernels only, in module order. The
    /// names may come in any order and repeat; a name the source does not
    /// define is a harness error, `kernel `<name>` not found in source`.
    pub fn optimize_kernels(
        &self,
        src: &str,
        level: OptLevel,
        kernels: &[&str],
    ) -> Result<Module, ReproError> {
        let k = self.keyed(src)?;
        let sel = k.select(kernels)?;
        self.optimize_keyed(k, level, &sel)
    }

    fn optimize_keyed(
        &self,
        k: Keyed,
        level: OptLevel,
        sel: &Selection,
    ) -> Result<Module, ReproError> {
        let key = Self::key(Stage::Opt, &[k.fp, level as u64], sel);
        self.get_or_compute(key, || {
            let mut module = self.lower_keyed(k, sel)?;
            metrics::time("suite.optimize", || {
                ocl_ir::passes::optimize_module(&mut module, level)
            });
            ocl_ir::verify::verify_module(&module).map_err(|e| ReproError::Verify {
                message: format!("after {level:?} passes: {e}"),
            })?;
            Ok(module)
        })
    }

    /// Vortex codegen for every kernel in the module, in module order.
    /// `level: None` compiles the source *as written* (no middle end),
    /// matching `vortex_rt::compile_for`; `Some(level)` runs the shared
    /// middle end first. `threads` is the warp width of the target
    /// configuration (it fixes the stack interleaving stride, so it is part
    /// of the content address); a width past [`vortex_cc::MAX_THREADS`] is
    /// a typed harness error.
    pub fn codegen_vortex(
        &self,
        src: &str,
        level: Option<OptLevel>,
        threads: u32,
    ) -> Result<Vec<CompiledKernel>, ReproError> {
        self.codegen(self.keyed(src)?, level, threads, &Selection::All)
    }

    /// [`Cache::codegen_vortex`] of the named kernels only, in module order,
    /// with [`Cache::optimize_kernels`]'s rules for the names.
    pub fn codegen_kernels(
        &self,
        src: &str,
        level: Option<OptLevel>,
        threads: u32,
        kernels: &[&str],
    ) -> Result<Vec<CompiledKernel>, ReproError> {
        let k = self.keyed(src)?;
        let sel = k.select(kernels)?;
        self.codegen(k, level, threads, &sel)
    }

    fn codegen(
        &self,
        k: Keyed,
        level: Option<OptLevel>,
        threads: u32,
        sel: &Selection,
    ) -> Result<Vec<CompiledKernel>, ReproError> {
        if !(1..=vortex_cc::MAX_THREADS).contains(&threads) {
            return Err(ReproError::harness(format!(
                "`threads` is {threads}, outside the code generator's 1..={}",
                vortex_cc::MAX_THREADS
            )));
        }
        let level_part = level.map(|l| l as u64).unwrap_or(u64::MAX);
        let key = Self::key(Stage::Vortex, &[k.fp, level_part, threads as u64], sel);
        self.get_or_compute(key, || {
            let module = match level {
                Some(l) => self.optimize_keyed(k, l, sel)?,
                None => self.lower_keyed(k, sel)?,
            };
            let opts = vortex_cc::CodegenOpts { threads };
            let kernels = module
                .kernels
                .iter()
                .map(|k| vortex_cc::compile_kernel(k, &opts))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(kernels)
        })
    }

    /// HLS synthesis outcome for the source *as written* on `device`, with
    /// default [`SynthOptions`]. Typed synthesis failures (the Table I ✗
    /// cases) are artifacts too: a cached ✗ is as valid as a cached report.
    #[allow(clippy::type_complexity)]
    pub fn synthesize_hls(
        &self,
        src: &str,
        device: &Device,
    ) -> Result<Result<SynthReport, SynthFailure>, ReproError> {
        let k = self.keyed(src)?;
        let key = Self::key(Stage::Hls, &[k.fp, device.kind as u64], &Selection::All);
        self.get_or_compute(key, || {
            let module = self.lower_keyed(k, &Selection::All)?;
            Ok(synthesize(&module, device, &SynthOptions::default()))
        })
    }

    // -- the engine ---------------------------------------------------------

    /// Look up `key`, or run `compute`, store its encoding and return it.
    ///
    /// A hit decodes the stored bytes; a miss encodes the fresh artifact
    /// once (the same bytes feed both tiers) and hands the artifact itself
    /// to the caller, so a stage computed on behalf of an outer miss goes
    /// straight up. Debug builds assert on every miss that the bytes decode
    /// and re-encode identically; see the module doc for why that and
    /// `tests/cache_equivalence.rs` are where equivalence is enforced.
    fn get_or_compute<T: Wire>(
        &self,
        key: Key,
        compute: impl FnOnce() -> Result<T, ReproError>,
    ) -> Result<T, ReproError> {
        // Span the whole lookup under its stage name: a hit closes the
        // span immediately, a miss nests the compile-stage spans (its
        // `metrics::time` stages) beneath it.
        let _span = span::SpanScope::enter(key.stage.span_name());
        // Memory tier.
        let cached = self.mem.lock().unwrap().lru.get(&key).cloned();
        if let Some(bytes) = cached {
            match wire::decode::<T>(&bytes) {
                Ok(v) => {
                    self.hits_mem.fetch_add(1, Ordering::Relaxed);
                    metrics::counter_add("cache.hit", 1);
                    metrics::counter_add("cache.hit.mem", 1);
                    return Ok(v);
                }
                // Unreachable unless an artifact type's encoding is buggy;
                // drop the entry and fall through to recompute.
                Err(_) => {
                    self.corrupt.fetch_add(1, Ordering::Relaxed);
                    metrics::counter_add("cache.corrupt", 1);
                    self.drop_mem_entry(key);
                }
            }
        }
        // Disk tier.
        if let Some(store) = self.disk_store() {
            match store.read(key) {
                DiskRead::Hit(payload) => match wire::decode::<T>(&payload) {
                    Ok(v) => {
                        self.hits_disk.fetch_add(1, Ordering::Relaxed);
                        metrics::counter_add("cache.hit", 1);
                        metrics::counter_add("cache.hit.disk", 1);
                        self.insert_mem(key, Arc::new(payload));
                        return Ok(v);
                    }
                    Err(_) => {
                        self.corrupt.fetch_add(1, Ordering::Relaxed);
                        metrics::counter_add("cache.corrupt", 1);
                        store.evict(key);
                    }
                },
                DiskRead::Corrupt(_) => {
                    self.corrupt.fetch_add(1, Ordering::Relaxed);
                    metrics::counter_add("cache.corrupt", 1);
                    store.evict(key);
                }
                DiskRead::Stale => store.evict(key),
                DiskRead::Miss => {}
            }
        }
        // Miss: compute, store the encoding, return what was computed.
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.misses_by_stage[key.stage.index()].fetch_add(1, Ordering::Relaxed);
        metrics::counter_add("cache.miss", 1);
        metrics::counter_add(
            match key.stage {
                Stage::Lower => "cache.miss.lower",
                Stage::Opt => "cache.miss.opt",
                Stage::Vortex => "cache.miss.vortex",
                Stage::Hls => "cache.miss.hls",
            },
            1,
        );
        let fresh = compute()?;
        let bytes = Arc::new(wire::encode(&fresh));
        if cfg!(debug_assertions) {
            let stage = key.stage.name();
            let decoded = wire::decode::<T>(&bytes)
                .unwrap_or_else(|e| panic!("{stage} artifact does not decode: {e}"));
            assert!(
                wire::encode(&decoded) == *bytes,
                "non-canonical wire encoding for {stage} artifact"
            );
        }
        if let Some(store) = self.disk_store() {
            if store.write(key, &bytes).is_err() {
                self.note_disk_write_error();
            }
        }
        self.insert_mem(key, bytes);
        Ok(fresh)
    }

    fn insert_mem(&self, key: Key, bytes: Arc<Vec<u8>>) {
        // The evicted artifact is freed and the gauges are set once the
        // lock is released: neither needs it, and every worker's lookups do.
        let (evicted, total, entries) = {
            let mut mem = self.mem.lock().unwrap();
            mem.bytes += bytes.len() as u64;
            let evicted = mem.lru.insert(key, bytes);
            if let Some((_, old)) = &evicted {
                mem.bytes -= old.len() as u64;
            }
            (evicted, mem.bytes, mem.lru.len())
        };
        if evicted.is_some() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            metrics::counter_add("cache.evict", 1);
        }
        metrics::gauge_set("cache.bytes", total as f64);
        metrics::gauge_set("cache.entries", entries as f64);
    }

    fn drop_mem_entry(&self, key: Key) {
        let mut mem = self.mem.lock().unwrap();
        if let Some(old) = mem.lru.remove(&key) {
            mem.bytes -= old.len() as u64;
        }
    }

    /// Replace the stored bytes of one memory-tier entry.
    #[cfg(test)]
    fn overwrite_mem_entry(&self, key: Key, bytes: Vec<u8>) {
        let mut mem = self.mem.lock().unwrap();
        let added = bytes.len() as u64;
        let (_, old) = mem.lru.insert(key, Arc::new(bytes)).expect("entry present");
        mem.bytes = mem.bytes + added - old.len() as u64;
    }

    /// Delete every on-disk entry; returns how many files were removed.
    pub fn clear_disk(&self) -> std::io::Result<usize> {
        match &self.disk {
            Some(store) => store.clear(),
            None => Ok(0),
        }
    }

    /// Snapshot the instance counters.
    pub fn stats(&self) -> CacheStats {
        let (mem_entries, mem_bytes) = {
            let mem = self.mem.lock().unwrap();
            (mem.lru.len() as u64, mem.bytes)
        };
        CacheStats {
            hits_mem: self.hits_mem.load(Ordering::Relaxed),
            hits_disk: self.hits_disk.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            misses_by_stage: [
                self.misses_by_stage[0].load(Ordering::Relaxed),
                self.misses_by_stage[1].load(Ordering::Relaxed),
                self.misses_by_stage[2].load(Ordering::Relaxed),
                self.misses_by_stage[3].load(Ordering::Relaxed),
            ],
            evictions: self.evictions.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            disk_write_errors: self.disk_write_errors.load(Ordering::Relaxed),
            mem_entries,
            mem_bytes,
        }
    }
}

/// Can we actually create files under `dir`? Creates the directory and
/// round-trips one probe file, so a read-only filesystem (or a path that
/// is already a regular file) is caught at construction time rather than
/// one write error at a time. `cache.disk.open` injects the failure.
fn probe_writable(dir: &Path) -> std::io::Result<()> {
    if fault::fire(fault::FaultPoint::CacheDiskOpen) {
        return Err(std::io::Error::other(
            "injected fault: read-only cache directory",
        ));
    }
    std::fs::create_dir_all(dir)?;
    let probe = dir.join(format!(".probe.{}", std::process::id()));
    std::fs::write(&probe, b"rw")?;
    std::fs::remove_file(&probe)
}

/// The names of a source's kernels, in source order.
type Kernels = Arc<[String]>;

/// A source on its way through one public lookup: the text, its token
/// fingerprint, its kernels and, when this call had to lex to get the
/// fingerprint, the tokens.
struct Keyed<'a> {
    src: &'a str,
    fp: u64,
    kernels: Kernels,
    lexed: Option<Lexed>,
}

impl Keyed<'_> {
    /// Resolve the kernels a lookup names, once and before any lookup: a
    /// name the source does not define is a harness error, names covering
    /// every kernel (in any order, with repeats) are the whole module, and
    /// anything else is a selection of its own.
    fn select<'n>(&self, names: &'n [&'n str]) -> Result<Selection<'n>, ReproError> {
        if let Some(name) = names
            .iter()
            .find(|&&n| !self.kernels.iter().any(|k| k == n))
        {
            return Err(ReproError::harness(format!(
                "kernel `{name}` not found in source"
            )));
        }
        if self.kernels.iter().all(|k| names.contains(&k.as_str())) {
            return Ok(Selection::All);
        }
        let mut canonical = names.to_vec();
        canonical.sort_unstable();
        canonical.dedup();
        let mut h = Fnv::new();
        for name in canonical {
            h.write(name.as_bytes());
            h.write_u8(0);
        }
        Ok(Selection::Kernels {
            names,
            hash: h.finish(),
        })
    }
}

/// The kernels one lookup compiles, as [`Keyed::select`] resolved them.
enum Selection<'a> {
    /// Every kernel: the whole module, under the stage's whole-module key.
    All,
    /// Some kernels: the names as the caller gave them, and the key part of
    /// their canonical form, FNV-1a over the sorted, deduplicated names,
    /// each followed by a NUL.
    Kernels { names: &'a [&'a str], hash: u64 },
}

/// FNV-1a 64 over the preprocessed token stream of `src`. Free function so
/// tests can fingerprint without a cache instance.
pub fn token_fingerprint(src: &str) -> Result<u64, CompileError> {
    Ok(fingerprint_tokens(&ocl_front::lex_source(src, &[])?).0)
}

/// The token fingerprint and the names of the kernels the tokens define, in
/// source order, from one walk.
///
/// Each token is hashed as its `{:?}` spelling and a NUL: a stable,
/// unambiguous spelling of kind and payload, with spans deliberately left
/// out so formatting changes don't shift the fingerprint. The spelling is
/// written directly for every token the lexer makes but float and string
/// literals, which keep the formatter's. A kernel's name is the identifier
/// after `__kernel void` outside any braces, as the parser reads it.
fn fingerprint_tokens(lexed: &Lexed) -> (u64, Vec<String>) {
    let tokens = &lexed.tokens;
    let mut h = Fnv::new();
    let mut kernels = Vec::new();
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate() {
        match &t.tok {
            Tok::LBrace => depth += 1,
            Tok::RBrace => depth = depth.saturating_sub(1),
            Tok::Ident(name)
                if depth == 0
                    && i >= 2
                    && tokens[i - 2].tok == Tok::Kernel
                    && tokens[i - 1].tok == Tok::Void =>
            {
                kernels.push(name.clone())
            }
            _ => {}
        }
        spell_token(&mut h, &t.tok);
        h.write_u8(0);
    }
    (h.finish(), kernels)
}

/// Hash `tok`'s `{:?}` spelling.
fn spell_token(h: &mut Fnv, tok: &Tok) {
    use std::fmt::Write as _;
    match tok {
        // An identifier is ASCII letters, digits and `_`, which `{:?}`
        // quotes as they are.
        Tok::Ident(name) => {
            h.write(b"Ident(\"");
            h.write(name.as_bytes());
            h.write(b"\")");
        }
        Tok::IntLit(v) => {
            h.write(b"IntLit(");
            write_decimal(h, *v);
            h.write_u8(b')');
        }
        Tok::FloatLit(_) | Tok::StrLit(_) => {
            let _ = write!(h, "{tok:?}");
        }
        _ => h.write(tok.variant_name().as_bytes()),
    }
}

/// `v` in decimal, as `{}` spells it.
fn write_decimal(h: &mut Fnv, v: i64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut n = v.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if v < 0 {
        h.write_u8(b'-');
    }
    h.write(&digits[at..]);
}

// ---------------------------------------------------------------------------
// The process-global cache
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<Cache> = OnceLock::new();

/// Install the process-global cache configuration. The first caller wins —
/// call it before any pipeline entry point runs (the `repro` binary does
/// this at startup to enable the `runs/cache` disk tier). Returns the global
/// instance.
pub fn init_global(config: CacheConfig) -> &'static Cache {
    GLOBAL.get_or_init(|| Cache::new(config))
}

/// The process-global cache. Defaults to **memory-only**: a disk tier that
/// silently outlives `cargo` rebuilds would be a correctness hazard for
/// tests, so persistent caching is an explicit opt-in via [`init_global`]
/// (or the `REPRO_CACHE_DIR` environment variable).
pub fn global() -> &'static Cache {
    GLOBAL.get_or_init(|| {
        let disk_dir = std::env::var_os("REPRO_CACHE_DIR")
            .filter(|v| !v.is_empty())
            .map(PathBuf::from);
        Cache::new(CacheConfig { disk_dir })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
        __kernel void dbl(__global int* d, int n) {
            int i = get_global_id(0);
            if (i < n) { d[i] = d[i] * 2; }
        }
    "#;

    fn mem_cache() -> Cache {
        Cache::new(CacheConfig::default())
    }

    #[test]
    fn fingerprint_ignores_formatting_but_not_tokens() {
        let reformatted = SRC.replace('\n', "\n\n  ");
        let commented = format!("// a comment\n{SRC}/* trailing */");
        let fp = token_fingerprint(SRC).unwrap();
        assert_eq!(token_fingerprint(&reformatted).unwrap(), fp);
        assert_eq!(token_fingerprint(&commented).unwrap(), fp);
        let touched = SRC.replace("* 2", "* 3");
        assert_ne!(token_fingerprint(&touched).unwrap(), fp);
        // Token *boundaries* matter, not just the character stream.
        let joined = SRC.replace("d[i] * 2", "d[i]*2");
        assert_eq!(token_fingerprint(&joined).unwrap(), fp);
    }

    /// Key derivation must not drift with a `Tok` derive or a formatting
    /// change: the constant was generated by the commit before the token
    /// spelling was streamed into the hasher.
    #[test]
    fn fingerprint_of_a_fixed_source_is_pinned() {
        const TWO_KERNELS: &str = r#"
#define SCALE 3
__kernel void scale(__global float* x, float a, int n) {
    int i = get_global_id(0);
    if (i < n) { x[i] = x[i] * a + (float)SCALE; }
}
/* second kernel: integer path, a loop and a local array */
__kernel void hist(__global const uint* in, __global uint* out, int n) {
    __local uint bins[16];
    int l = get_local_id(0);
    bins[l & 15] = 0u;
    barrier(CLK_LOCAL_MEM_FENCE);
    for (int j = 0; j < n; j += 2) { bins[(in[j] >> 4) & 0xf] += 1u; }
    out[get_global_id(0)] = bins[l & 15] ^ 0x7fu;
}
"#;
        assert_eq!(
            token_fingerprint(TWO_KERNELS).unwrap(),
            0xfbea_b55f_2fe1_c238
        );
        let cache = mem_cache();
        assert_eq!(cache.keyed(TWO_KERNELS).unwrap().fp, 0xfbea_b55f_2fe1_c238);
        cache.lower(TWO_KERNELS).unwrap();
    }

    #[test]
    fn one_undecodable_memory_entry_leaves_its_neighbours() {
        let other = SRC.replace("* 2", "* 5");
        let cache = mem_cache();
        let cold = cache.lower(SRC).unwrap();
        cache.lower(&other).unwrap();
        let whole = cache.stats();
        let key = Cache::key(
            Stage::Lower,
            &[token_fingerprint(SRC).unwrap()],
            &Selection::All,
        );
        cache.overwrite_mem_entry(key, vec![0xff; 7]);
        // The bad entry is dropped, counted and recomputed...
        assert_eq!(cache.lower(SRC).unwrap(), cold);
        let s = cache.stats();
        assert_eq!((s.corrupt, s.misses, s.hits_mem), (1, 3, 0));
        // ...its neighbour still hits, and the byte count is whole again.
        cache.lower(&other).unwrap();
        let s = cache.stats();
        assert_eq!((s.corrupt, s.misses, s.hits_mem), (1, 3, 1));
        assert_eq!((s.mem_entries, s.mem_bytes), (2, whole.mem_bytes));
    }

    #[test]
    fn lower_hits_return_equal_modules() {
        let cache = mem_cache();
        let cold = cache.lower(SRC).unwrap();
        let warm = cache.lower(SRC).unwrap();
        assert_eq!(cold, warm);
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits_mem, 1);
        assert_eq!(s.misses_by_stage[Stage::Lower.index()], 1);
    }

    #[test]
    fn optimize_reuses_lowered_module() {
        let cache = mem_cache();
        cache.optimize(SRC, OptLevel::Basic).unwrap();
        cache.optimize(SRC, OptLevel::Loop).unwrap();
        let s = cache.stats();
        // Two Opt misses but only one Lower miss: the second level reuses
        // the cached lowering.
        assert_eq!(s.misses_by_stage[Stage::Opt.index()], 2);
        assert_eq!(s.misses_by_stage[Stage::Lower.index()], 1);
        assert_eq!(s.hits_mem, 1);
    }

    #[test]
    fn levels_and_thread_widths_do_not_collide() {
        let cache = mem_cache();
        let a = cache.codegen_vortex(SRC, Some(OptLevel::None), 4).unwrap();
        let b = cache.codegen_vortex(SRC, Some(OptLevel::Loop), 4).unwrap();
        let c = cache.codegen_vortex(SRC, Some(OptLevel::None), 16).unwrap();
        let raw = cache.codegen_vortex(SRC, None, 4).unwrap();
        assert_eq!(cache.stats().misses_by_stage[Stage::Vortex.index()], 4);
        assert_eq!(a[0].threads, 4);
        assert_eq!(c[0].threads, 16);
        assert_eq!(raw[0].threads, 4);
        assert_eq!(b[0].threads, 4);
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let cache = mem_cache();
        let bad = "__kernel void broken(__global int* d) { d[0] = ; }";
        assert!(cache.lower(bad).is_err());
        assert!(cache.lower(bad).is_err());
        let s = cache.stats();
        assert_eq!(s.misses, 2, "errors must not be served from cache");
        assert_eq!(s.hits(), 0);
    }

    /// The fault engine is process-global; tests that arm it must not
    /// interleave with each other.
    fn fault_serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("repro-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn unwritable_disk_dir_degrades_to_memory_only() {
        // A path that is already a regular file: create_dir_all must fail,
        // and the cache must come up memory-only instead of erroring.
        let file =
            std::env::temp_dir().join(format!("repro-cache-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, b"x").unwrap();
        let cache = Cache::new(CacheConfig {
            disk_dir: Some(file.clone()),
        });
        assert!(!cache.disk_active());
        assert!(cache.disk_dir().is_none());
        // The pipeline still works.
        cache.lower(SRC).unwrap();
        cache.lower(SRC).unwrap();
        assert_eq!(cache.stats().hits_mem, 1);
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn injected_open_fault_degrades_to_memory_only() {
        let _g = fault_serial();
        let dir = tmp_dir("openfault");
        fault::install(&fault::FaultPlan::new(7).always(fault::FaultPoint::CacheDiskOpen, 0));
        let cache = Cache::new(CacheConfig {
            disk_dir: Some(dir.clone()),
        });
        fault::clear();
        assert!(!cache.disk_active(), "probe fault must disable the tier");
        cache.lower(SRC).unwrap();
        assert!(!dir.exists(), "no disk writes after a failed probe");
    }

    #[test]
    fn repeated_write_errors_take_the_disk_tier_offline() {
        let _g = fault_serial();
        let dir = tmp_dir("enospc");
        let cache = Cache::new(CacheConfig {
            disk_dir: Some(dir.clone()),
        });
        assert!(cache.disk_active());
        fault::install(&fault::FaultPlan::new(8).always(fault::FaultPoint::CacheDiskEnospc, 0));
        // Three distinct misses, three failed writes → tier offline.
        cache.lower(SRC).unwrap();
        cache.optimize(SRC, OptLevel::Basic).unwrap();
        cache.codegen_vortex(SRC, Some(OptLevel::Basic), 4).unwrap();
        fault::clear();
        let s = cache.stats();
        assert!(
            s.disk_write_errors >= DISK_WRITE_ERROR_LIMIT,
            "write errors: {}",
            s.disk_write_errors
        );
        assert!(!cache.disk_active(), "escalation must disable the tier");
        // Still fully functional from memory.
        cache.lower(SRC).unwrap();
        assert!(cache.stats().hits_mem >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_and_corrupt_disk_writes_are_never_served() {
        let _g = fault_serial();
        let dir = tmp_dir("torn");
        let damage = [
            fault::FaultPoint::CacheDiskShortWrite,
            fault::FaultPoint::CacheDiskCorrupt,
        ];
        for (i, point) in damage.into_iter().enumerate() {
            let writer = Cache::new(CacheConfig {
                disk_dir: Some(dir.clone()),
            });
            fault::install(&fault::FaultPlan::new(9 + i as u64).always(point, 0));
            let cold = writer.lower(SRC).unwrap();
            fault::clear();
            // A fresh instance over the same directory sees the damaged
            // entry, classifies it as corrupt, evicts, and recomputes an
            // identical module rather than serving garbage.
            let reader = Cache::new(CacheConfig {
                disk_dir: Some(dir.clone()),
            });
            let warm = reader.lower(SRC).unwrap();
            assert_eq!(cold, warm, "{point:?}");
            let s = reader.stats();
            assert_eq!(s.corrupt, 1, "{point:?} must be detected");
            assert_eq!(s.hits_disk, 0, "{point:?} must not be served");
            assert_eq!(s.misses, 1, "{point:?} recomputes");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn global_defaults_to_memory_only() {
        // Must not touch `init_global` here: other tests share the process.
        let g = global();
        if std::env::var_os("REPRO_CACHE_DIR").is_none() {
            assert!(g.disk_dir().is_none());
        }
    }
}
