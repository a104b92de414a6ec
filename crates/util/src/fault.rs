//! Process-global, seeded, deterministic fault-injection engine.
//!
//! Production code is threaded with named [`FaultPoint`]s — fixed places
//! where an adverse condition *could* happen (a disk write hitting ENOSPC,
//! a worker thread panicking, a DRAM word losing a bit). Each point is one
//! call to [`fire`] (or [`fire_param`]) on its hot path. Mirroring the
//! metrics registry and the simulator's `NopSink`, the engine is **off by
//! default and observably free while off**: every probe checks one relaxed
//! atomic load and returns before touching a lock, a clock, or an
//! allocation. The chaos tests assert that a disarmed build produces
//! bit-identical cycles and stats to an uninstrumented one.
//!
//! Arming is explicit: [`install`] takes a [`FaultPlan`] — a seed plus a
//! per-point schedule of `(probability, max_fires, param)` — and every
//! subsequent probe consults a SplitMix64 stream seeded from
//! `plan.seed ^ fnv1a(point name)`. Streams are per-point, so two points
//! never perturb each other's decision sequences; within one point the
//! decision sequence is a pure function of the seed and the call count.
//! Scenarios that need byte-identical outcome sets across runs therefore
//! either use probabilities of 0/1 (order-independent) or evaluate the
//! point from a single thread — the `repro chaos` driver does both.
//!
//! The wire form (`FaultPlan::parse` / `to_json`) exists so plans can
//! travel through CLI flags and CI scripts; the scenario matrix in
//! `repro_core::chaos` builds plans programmatically.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::{fnv1a, metrics, Json, Rng, ToJson};

/// Every named place the engine can inject a fault. The discriminant
/// indexes the per-point state tables; the string name is the stable wire
/// identity used by plans, metrics (`fault.fired.<name>`), and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum FaultPoint {
    /// Disk cache directory fails to open/probe writable (read-only fs).
    CacheDiskOpen,
    /// Disk cache write returns ENOSPC-style failure.
    CacheDiskEnospc,
    /// Disk cache write truncates the envelope (torn write).
    CacheDiskShortWrite,
    /// Disk cache entry payload is corrupted after sealing.
    CacheDiskCorrupt,
    /// Scheduled job body panics mid-run.
    SchedJobPanic,
    /// Scheduled job body sleeps `param` extra milliseconds (lets
    /// deadlines genuinely fire).
    SchedJobLatency,
    /// A submit's worker wakeup is dropped (sent to the deadline watcher
    /// instead); liveness must come from the watcher's tick.
    SchedLostUnpark,
    /// One DRAM word is bit-flipped before kernel launch; `param` packs
    /// `word_offset << 8 | bit_index`.
    SimDramBitflip,
    /// One result word is bit-flipped at L2 writeback (after the run,
    /// before readback); same `param` packing.
    SimL2Bitflip,
    /// Serve input line is truncated mid-JSON.
    ServeLineTruncate,
    /// Serve input line has an invalid UTF-8 byte spliced in.
    ServeLineInvalidUtf8,
    /// Serve input line is inflated past the max-line-bytes guard.
    ServeLineOversize,
}

/// All points, in discriminant order (index == `point as usize`).
pub const ALL_POINTS: [FaultPoint; 12] = [
    FaultPoint::CacheDiskOpen,
    FaultPoint::CacheDiskEnospc,
    FaultPoint::CacheDiskShortWrite,
    FaultPoint::CacheDiskCorrupt,
    FaultPoint::SchedJobPanic,
    FaultPoint::SchedJobLatency,
    FaultPoint::SchedLostUnpark,
    FaultPoint::SimDramBitflip,
    FaultPoint::SimL2Bitflip,
    FaultPoint::ServeLineTruncate,
    FaultPoint::ServeLineInvalidUtf8,
    FaultPoint::ServeLineOversize,
];

impl FaultPoint {
    /// Stable wire name (plans, metrics, chaos reports).
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::CacheDiskOpen => "cache.disk.open",
            FaultPoint::CacheDiskEnospc => "cache.disk.enospc",
            FaultPoint::CacheDiskShortWrite => "cache.disk.short_write",
            FaultPoint::CacheDiskCorrupt => "cache.disk.corrupt",
            FaultPoint::SchedJobPanic => "sched.job.panic",
            FaultPoint::SchedJobLatency => "sched.job.latency",
            FaultPoint::SchedLostUnpark => "sched.lost_unpark",
            FaultPoint::SimDramBitflip => "sim.mem.dram_bitflip",
            FaultPoint::SimL2Bitflip => "sim.mem.l2_bitflip",
            FaultPoint::ServeLineTruncate => "serve.line.truncate",
            FaultPoint::ServeLineInvalidUtf8 => "serve.line.invalid_utf8",
            FaultPoint::ServeLineOversize => "serve.line.oversize",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<FaultPoint> {
        ALL_POINTS.iter().copied().find(|p| p.name() == name)
    }
}

/// One row of a plan: how often a point fires and with what parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSpec {
    pub point: FaultPoint,
    /// Probability in `[0.0, 1.0]` that an evaluation fires.
    pub prob: f64,
    /// Stop firing after this many fires (`None` = unlimited).
    pub max_fires: Option<u64>,
    /// Point-specific parameter (latency ms, packed bit position, …).
    pub param: u64,
}

/// A seed plus a per-point schedule — the complete, serializable
/// description of one adverse world.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    pub seed: u64,
    pub points: Vec<PointSpec>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            points: Vec::new(),
        }
    }

    /// Add a schedule row (builder style).
    pub fn with(
        mut self,
        point: FaultPoint,
        prob: f64,
        max_fires: Option<u64>,
        param: u64,
    ) -> Self {
        self.points.push(PointSpec {
            point,
            prob,
            max_fires,
            param,
        });
        self
    }

    /// `prob = 1.0`, unlimited — the point fires on every evaluation.
    pub fn always(self, point: FaultPoint, param: u64) -> Self {
        self.with(point, 1.0, None, param)
    }

    /// `prob = 1.0`, exactly `n` fires, then the point goes quiet.
    pub fn times(self, point: FaultPoint, n: u64, param: u64) -> Self {
        self.with(point, 1.0, Some(n), param)
    }

    /// Parse the JSON wire form produced by [`ToJson`]. Unknown point
    /// names are an error (a plan that silently drops a row would make a
    /// chaos scenario vacuously pass).
    pub fn parse(input: &str) -> Result<FaultPlan, String> {
        let j = Json::parse(input).map_err(|e| format!("fault plan: {e}"))?;
        let seed = j
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or("fault plan: missing `seed`")?;
        let mut plan = FaultPlan::new(seed);
        let rows = j
            .get("points")
            .and_then(Json::as_array)
            .ok_or("fault plan: missing `points` array")?;
        for row in rows {
            let name = row
                .get("point")
                .and_then(Json::as_str)
                .ok_or("fault plan: point row missing `point`")?;
            let point = FaultPoint::from_name(name)
                .ok_or_else(|| format!("fault plan: unknown point `{name}`"))?;
            let prob = row.get("prob").and_then(Json::as_f64).unwrap_or(1.0);
            if !(0.0..=1.0).contains(&prob) {
                return Err(format!("fault plan: prob {prob} out of [0,1] for `{name}`"));
            }
            let max_fires = row.get("max_fires").and_then(Json::as_u64);
            let param = row.get("param").and_then(Json::as_u64).unwrap_or(0);
            plan.points.push(PointSpec {
                point,
                prob,
                max_fires,
                param,
            });
        }
        Ok(plan)
    }
}

impl ToJson for FaultPlan {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seed", self.seed.to_json()),
            (
                "points",
                Json::Array(
                    self.points
                        .iter()
                        .map(|s| {
                            let mut fields = vec![
                                ("point", Json::Str(s.point.name().to_string())),
                                ("prob", s.prob.to_json()),
                            ];
                            if let Some(m) = s.max_fires {
                                fields.push(("max_fires", m.to_json()));
                            }
                            fields.push(("param", s.param.to_json()));
                            Json::obj(fields)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

const N: usize = ALL_POINTS.len();

/// Per-point armed state. One decision stream per point, seeded from the
/// plan seed xor the FNV-1a hash of the point name, so adding a point to a
/// plan never shifts another point's sequence.
struct Engine {
    specs: [Option<PointSpec>; N],
    rngs: [Rng; N],
    evaluated: [u64; N],
    fired: [u64; N],
}

impl Engine {
    fn new(plan: &FaultPlan) -> Engine {
        let mut specs: [Option<PointSpec>; N] = std::array::from_fn(|_| None);
        for s in &plan.points {
            specs[s.point as usize] = Some(s.clone());
        }
        Engine {
            specs,
            rngs: std::array::from_fn(|i| {
                Rng::new(plan.seed ^ fnv1a(ALL_POINTS[i].name().as_bytes()))
            }),
            evaluated: [0; N],
            fired: [0; N],
        }
    }

    fn fire(&mut self, point: FaultPoint) -> Option<u64> {
        let i = point as usize;
        let spec = self.specs[i].as_ref()?;
        self.evaluated[i] += 1;
        if let Some(max) = spec.max_fires {
            if self.fired[i] >= max {
                return None;
            }
        }
        // 0.0 and 1.0 decide without consuming a draw, so all-or-nothing
        // schedules are independent of evaluation order across threads.
        let hit = if spec.prob >= 1.0 {
            true
        } else if spec.prob <= 0.0 {
            false
        } else {
            (self.rngs[i].next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < spec.prob
        };
        if !hit {
            return None;
        }
        self.fired[i] += 1;
        Some(spec.param)
    }
}

static ARMED: AtomicBool = AtomicBool::new(false);

fn engine() -> &'static Mutex<Option<Engine>> {
    static ENGINE: OnceLock<Mutex<Option<Engine>>> = OnceLock::new();
    ENGINE.get_or_init(|| Mutex::new(None))
}

fn engine_lock() -> MutexGuard<'static, Option<Engine>> {
    // A worker thread may die by *injected* panic while probing other
    // points; the engine state is append-only counters, safe to reuse.
    engine().lock().unwrap_or_else(|e| e.into_inner())
}

/// Arm the engine with `plan`. Replaces any previous plan and resets all
/// per-point streams and counters.
pub fn install(plan: &FaultPlan) {
    let mut g = engine_lock();
    *g = Some(Engine::new(plan));
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarm and drop all state (the default). Probes go back to one relaxed
/// load.
pub fn clear() {
    let mut g = engine_lock();
    ARMED.store(false, Ordering::Relaxed);
    *g = None;
}

/// Whether a plan is currently installed.
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Evaluate `point`: `true` means the caller must inject its fault now.
/// Disarmed cost: one relaxed atomic load.
#[inline]
pub fn fire(point: FaultPoint) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    fire_slow(point).is_some()
}

/// Like [`fire`], but hands back the schedule row's `param` on a hit —
/// for points that need a magnitude (latency ms, packed bit position).
#[inline]
pub fn fire_param(point: FaultPoint) -> Option<u64> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    fire_slow(point)
}

#[cold]
fn fire_slow(point: FaultPoint) -> Option<u64> {
    let param = engine_lock().as_mut().and_then(|e| e.fire(point))?;
    metrics::counter_add("fault.fired", 1);
    metrics::counter_add(&format!("fault.fired.{}", point.name()), 1);
    Some(param)
}

/// Per-point `(name, evaluated, fired)` tallies since [`install`], for
/// points named by the plan. Empty when disarmed.
pub fn report() -> Vec<(&'static str, u64, u64)> {
    let g = engine_lock();
    let Some(e) = g.as_ref() else {
        return Vec::new();
    };
    ALL_POINTS
        .iter()
        .filter(|&&p| e.specs[p as usize].is_some())
        .map(|&p| (p.name(), e.evaluated[p as usize], e.fired[p as usize]))
        .collect()
}
