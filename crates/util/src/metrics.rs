//! Process-wide metrics registry — the pipeline's observability spine.
//!
//! Every stage of the reproduction (front end, pass manager, HLS synthesis,
//! Vortex codegen, suite runner, the `repro` harness itself) reports into
//! one registry of three instrument kinds:
//!
//! * **counters** — monotone event tallies (`suite.runs.vortex`,
//!   `ir.rewrites.cse`). Additions saturate at `u64::MAX` instead of
//!   wrapping, so a counter can never lie by going backwards.
//! * **gauges** — last-write-wins scalars (`sim.warps_configured`).
//! * **histograms** — wall-clock span observations in seconds
//!   (`frontend.parse`, `ir.pass.licm`, `hls.synthesize`). Snapshots report
//!   count / total / p50 / p95 / max per series.
//!
//! Mirroring the simulator's `NopSink` contract, the registry is **off by
//! default** and observably free while off: every recording entry point
//! checks one relaxed atomic load and returns before touching a clock, a
//! lock, or an allocation. [`time`] calls its closure directly on the
//! disabled path — no `Instant::now` bracketing. The trace goldens and
//! Table I–IV artifacts are byte-identical with metrics off because the
//! disabled registry does nothing at all.
//!
//! Enabling is explicit ([`enable`]) and meant for harness entry points
//! (the `repro` binary, `perf-report` collection), never libraries.
//! Percentiles use the nearest-rank method: `pXX` is the smallest sample
//! such that at least XX% of samples are ≤ it.
//!
//! While on, recording a sample takes no allocation (after a name's first
//! sample on a thread), no formatting and no process-wide lock: counters,
//! histograms and the window rings live in one shard per recording thread,
//! each behind a lock only snapshots and resets contend for. [`snapshot`],
//! [`window_snapshot`], [`reset`] and [`window_reset`] visit every shard; a
//! thread that exits folds its shard into a shared one, so the shard list
//! is as long as the live recording threads. Gauges (last write wins, a few
//! writes per job) stay in one shared map.
//!
//! Memory is bounded: a series keeps exact `count`, `total` and `max` and
//! at most [`SERIES_CAP`] samples. Up to the cap the percentiles are exact;
//! past it the series keeps every 2nd, then every 4th, … observation, and
//! p50/p95 are nearest-rank over that evenly spaced subsample.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Enter half of the span hook: returns whether a frame was opened (so the
/// matching exit call can be skipped when it wasn't).
pub type SpanEnter = fn(&str) -> bool;
/// Exit half of the span hook.
pub type SpanExit = fn();

/// The installed span hook, if any. Set once per process — `repro-obs`
/// registers itself here so every [`time`] call site doubles as a span in
/// the current job's trace without this crate depending on the tracer.
static SPAN_HOOK: OnceLock<(SpanEnter, SpanExit)> = OnceLock::new();

/// Install the process-wide span hook (first caller wins; later calls are
/// ignored). The hook only fires on [`time`]'s *enabled* path, so the
/// disabled-registry cost stays one relaxed atomic load.
pub fn set_span_hook(enter: SpanEnter, exit: SpanExit) {
    let _ = SPAN_HOOK.set((enter, exit));
}

/// Samples a histogram series (cumulative, or one window bucket) retains.
pub const SERIES_CAP: usize = 1024;

/// One histogram series: exact aggregates plus a bounded subsample.
#[derive(Debug, Clone)]
struct Series {
    count: u64,
    total: f64,
    max: f64,
    /// Every `stride`-th observation is retained; a power of two.
    stride: u64,
    samples: Vec<f64>,
}

impl Series {
    const fn new() -> Series {
        Series {
            count: 0,
            total: 0.0,
            // Never reported: a series is summarised only once it has a sample.
            max: f64::NEG_INFINITY,
            stride: 1,
            samples: Vec::new(),
        }
    }

    fn observe(&mut self, v: f64) {
        if self.count.is_multiple_of(self.stride) {
            if self.samples.len() >= SERIES_CAP {
                self.halve();
            }
            self.samples.push(v);
        }
        self.max = self.max.max(v);
        self.count = self.count.saturating_add(1);
        self.total += v;
    }

    /// Keep every other retained sample and retain half as often from now on.
    fn halve(&mut self) {
        let mut i = 0usize;
        self.samples.retain(|_| {
            i += 1;
            i % 2 == 1
        });
        self.stride = self.stride.saturating_mul(2);
    }

    /// Fold `other` in. Aggregates add exactly; the subsamples are brought
    /// to the coarser of the two strides and, if still over the cap, thinned
    /// again — so two series that are both whole and fit the cap together
    /// stay whole.
    fn merge(&mut self, other: &Series) {
        self.max = self.max.max(other.max);
        self.count = self.count.saturating_add(other.count);
        self.total += other.total;
        while self.stride < other.stride {
            self.halve();
        }
        let step = (self.stride / other.stride) as usize;
        self.samples.extend(other.samples.iter().step_by(step));
        while self.samples.len() > SERIES_CAP {
            self.halve();
        }
    }

    /// Empty the series, keeping its buffer.
    fn clear(&mut self) {
        let mut samples = std::mem::take(&mut self.samples);
        samples.clear();
        *self = Series {
            samples,
            ..Series::new()
        };
    }

    fn summary(&self) -> Option<HistogramSummary> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        Some(HistogramSummary {
            count: self.count,
            total: self.total,
            p50: percentile(&sorted, 0.50),
            p95: percentile(&sorted, 0.95),
            max: self.max,
        })
    }
}

/// The cumulative counters and histograms of one shard.
struct Cumulative {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Series>,
}

/// Apply `f` to `map[name]`, starting the entry from `new()` on the name's
/// first use — the only time recording allocates.
fn update<V>(map: &mut BTreeMap<String, V>, name: &str, new: fn() -> V, f: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(v) => f(v),
        None => {
            let mut v = new();
            f(&mut v);
            map.insert(name.to_string(), v);
        }
    }
}

impl Cumulative {
    const fn new() -> Cumulative {
        Cumulative {
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    fn merge(&mut self, other: &Cumulative) {
        for (k, &v) in &other.counters {
            update(&mut self.counters, k, || 0, |c| *c = c.saturating_add(v));
        }
        for (k, v) in &other.histograms {
            update(&mut self.histograms, k, Series::new, |h| h.merge(v));
        }
    }
}

/// Everything one thread records into.
struct Shard {
    cum: Cumulative,
    windows: WindowSet,
}

impl Shard {
    const fn new() -> Shard {
        Shard {
            cum: Cumulative::new(),
            windows: WindowSet::new(),
        }
    }
}

/// The shards of the live recording threads, and the one exited threads
/// were folded into (which also takes samples recorded while a thread's
/// own shard is being torn down).
struct Shards {
    live: Vec<Arc<Mutex<Shard>>>,
    retired: Shard,
}

static SHARDS: Mutex<Shards> = Mutex::new(Shards {
    live: Vec::new(),
    retired: Shard::new(),
});

static GAUGES: Mutex<BTreeMap<String, f64>> = Mutex::new(BTreeMap::new());

/// Every update under these locks leaves the data valid, so a panic on
/// another thread does not make it unreadable.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// This thread's entry in [`Shards::live`].
struct Local(Arc<Mutex<Shard>>);

impl Local {
    fn register() -> Local {
        let shard = Arc::new(Mutex::new(Shard::new()));
        lock(&SHARDS).live.push(shard.clone());
        Local(shard)
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        let mut all = lock(&SHARDS);
        all.live.retain(|s| !Arc::ptr_eq(s, &self.0));
        let mine = lock(&self.0);
        all.retired.cum.merge(&mine.cum);
        all.retired.windows.merge(&mine.windows);
    }
}

thread_local! {
    static LOCAL: Local = Local::register();
}

/// Run `f` on the calling thread's shard. Lock order everywhere is
/// [`SHARDS`] then a shard; this path takes only the shard.
fn record(f: impl FnOnce(&mut Shard)) {
    let mut f = Some(f);
    let _ = LOCAL.try_with(|l| (f.take().expect("called once"))(&mut lock(&l.0)));
    if let Some(f) = f {
        f(&mut lock(&SHARDS).retired);
    }
}

/// Visit the retired shard and every live one.
fn for_each_shard(mut f: impl FnMut(&mut Shard)) {
    let mut all = lock(&SHARDS);
    f(&mut all.retired);
    for s in &all.live {
        f(&mut lock(s));
    }
}

/// Turn collection on. Recording entry points start taking the slow path.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn collection off again (the default state).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether the registry is currently collecting.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clear every instrument (does not change the enabled flag).
pub fn reset() {
    for_each_shard(|s| s.cum = Cumulative::new());
    lock(&GAUGES).clear();
}

/// Add `n` to counter `name`, saturating at `u64::MAX`. No-op while
/// disabled.
pub fn counter_add(name: &str, n: u64) {
    if !enabled() {
        return;
    }
    let period = windowed().then(current_period);
    record(|s| {
        update(
            &mut s.cum.counters,
            name,
            || 0,
            |c| *c = c.saturating_add(n),
        );
        if let Some(period) = period {
            s.windows.counter_add(name, n, period);
        }
    });
}

/// Set gauge `name` to `v` (last write wins). No-op while disabled.
pub fn gauge_set(name: &str, v: f64) {
    if !enabled() {
        return;
    }
    update(&mut lock(&GAUGES), name, || 0.0, |g| *g = v);
}

/// Record one observation (seconds) into histogram `name`. No-op while
/// disabled.
pub fn observe_secs(name: &str, secs: f64) {
    if !enabled() {
        return;
    }
    let period = windowed().then(current_period);
    record(|s| {
        update(&mut s.cum.histograms, name, Series::new, |h| {
            h.observe(secs)
        });
        if let Some(period) = period {
            s.windows.observe(name, secs, period);
        }
    });
}

/// Time `f` and record the span into histogram `name`. While disabled this
/// is a direct call — no clock is read and the span hook never fires.
pub fn time<R>(name: &str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let hook = SPAN_HOOK.get().map(|&(enter, exit)| (enter(name), exit));
    let t0 = Instant::now();
    let r = f();
    observe_secs(name, t0.elapsed().as_secs_f64());
    if let Some((true, exit)) = hook {
        exit();
    }
    r
}

/// Summary of one histogram series at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    pub count: u64,
    /// Sum of all observations, in seconds.
    pub total: f64,
    /// Nearest-rank 50th percentile.
    pub p50: f64,
    /// Nearest-rank 95th percentile.
    pub p95: f64,
    pub max: f64,
}

/// Nearest-rank percentile over a sorted, non-empty slice: the smallest
/// element such that at least `q` of the distribution is ≤ it.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A point-in-time copy of every instrument, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl Snapshot {
    /// True when nothing has been recorded since the last reset.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Histogram summary by exact name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Counter value by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Copy the current state of every instrument out of the registry. Works
/// whether or not collection is enabled (a disabled registry snapshots as
/// whatever was recorded before it was disabled).
pub fn snapshot() -> Snapshot {
    let mut cum = Cumulative::new();
    for_each_shard(|s| cum.merge(&s.cum));
    Snapshot {
        counters: cum.counters.into_iter().collect(),
        gauges: lock(&GAUGES).iter().map(|(k, &v)| (k.clone(), v)).collect(),
        histograms: cum
            .histograms
            .into_iter()
            .filter_map(|(k, v)| Some((k, v.summary()?)))
            .collect(),
    }
}

impl crate::ToJson for HistogramSummary {
    fn to_json(&self) -> crate::Json {
        crate::Json::obj(vec![
            ("count", self.count.to_json()),
            ("total_secs", self.total.to_json()),
            ("p50_secs", self.p50.to_json()),
            ("p95_secs", self.p95.to_json()),
            ("max_secs", self.max.to_json()),
        ])
    }
}

impl crate::ToJson for Snapshot {
    fn to_json(&self) -> crate::Json {
        use crate::Json;
        Json::obj(vec![
            (
                "counters",
                Json::Object(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Object(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Object(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Rebuild a [`Snapshot`] from the JSON form [`ToJson`] produces — the
/// manifest-reading half of baseline comparison.
pub fn snapshot_from_json(j: &crate::Json) -> Option<Snapshot> {
    use crate::Json;
    let objects = |v: &Json| match v {
        Json::Object(fields) => Some(fields.clone()),
        _ => None,
    };
    let counters = objects(j.get("counters")?)?
        .into_iter()
        .filter_map(|(k, v)| v.as_u64().map(|v| (k, v)))
        .collect();
    let gauges = objects(j.get("gauges")?)?
        .into_iter()
        .filter_map(|(k, v)| v.as_f64().map(|v| (k, v)))
        .collect();
    let histograms = objects(j.get("histograms")?)?
        .into_iter()
        .filter_map(|(k, v)| {
            Some((
                k,
                HistogramSummary {
                    count: v.get("count")?.as_u64()?,
                    total: v.get("total_secs")?.as_f64()?,
                    p50: v.get("p50_secs")?.as_f64()?,
                    p95: v.get("p95_secs")?.as_f64()?,
                    max: v.get("max_secs")?.as_f64()?,
                },
            ))
        })
        .collect();
    Some(Snapshot {
        counters,
        gauges,
        histograms,
    })
}

// ---------------------------------------------------------------------------
// Windowed time-series
//
// The cumulative registry above answers "what happened since the process
// started" — useless for an operator watching a live `repro serve`, where
// the interesting question is "what is happening *now*". The windowed
// layer keeps, per counter and histogram name, a fixed ring of per-10s
// buckets spanning a rolling 5-minute horizon. Buckets are reset lazily on
// reuse (stamped with their period id), so rotation costs nothing when a
// name goes quiet.
//
// Cost contract: windowed collection piggybacks on the *enabled* slow path
// of `counter_add`/`observe_secs` — a fully-disabled registry still costs
// exactly one relaxed atomic load, an enabled-but-unwindowed one adds one
// more relaxed load, and a windowed sample reads the clock once and goes
// into the recording thread's own shard under the lock it already holds.
// ---------------------------------------------------------------------------

/// Seconds covered by one window bucket.
pub const WINDOW_BUCKET_SECS: u64 = 10;
/// Buckets in the ring: 30 × 10 s = a rolling 5-minute horizon.
pub const WINDOW_BUCKETS: usize = 30;

static WINDOWED: AtomicBool = AtomicBool::new(false);

/// Whether windowed collection is on (checked only on the already-enabled
/// slow path).
fn windowed() -> bool {
    WINDOWED.load(Ordering::Relaxed)
}

/// Turn windowed collection on. Implies nothing about [`enable`] — the
/// windowed layer only sees what the cumulative registry records, so a
/// server wanting live stats enables both.
pub fn window_enable() {
    WINDOWED.store(true, Ordering::Relaxed);
}

/// Turn windowed collection off again (the default state).
pub fn window_disable() {
    WINDOWED.store(false, Ordering::Relaxed);
}

/// Clear every window ring (does not change the windowed flag).
pub fn window_reset() {
    for_each_shard(|s| s.windows = WindowSet::new());
}

/// The process clock the global window rings are stamped with: period ids
/// count `WINDOW_BUCKET_SECS` intervals since first use.
fn window_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn current_period() -> u64 {
    window_epoch().elapsed().as_secs() / WINDOW_BUCKET_SECS
}

/// One counter's bucket ring: `(period stamp, value)` per slot, indexed by
/// `period % WINDOW_BUCKETS`. A slot whose stamp is stale logically holds
/// zero and is reset on the next write to it.
#[derive(Debug, Clone)]
struct CounterRing {
    slots: Vec<(u64, u64)>,
}

impl CounterRing {
    fn new() -> CounterRing {
        CounterRing {
            slots: vec![(u64::MAX, 0); WINDOW_BUCKETS],
        }
    }

    fn add(&mut self, n: u64, period: u64) {
        let slot = &mut self.slots[(period as usize) % WINDOW_BUCKETS];
        if slot.0 != period {
            *slot = (period, 0);
        }
        slot.1 = slot.1.saturating_add(n);
    }

    fn merge(&mut self, other: &CounterRing) {
        merge_slots(&mut self.slots, &other.slots, |mine, theirs| {
            *mine = mine.saturating_add(*theirs)
        });
    }

    /// Sum over the horizon ending at `now_period` (inclusive).
    fn total(&self, now_period: u64) -> u64 {
        self.slots
            .iter()
            .filter(|(stamp, _)| in_horizon(*stamp, now_period))
            .map(|&(_, v)| v)
            .sum()
    }
}

/// One histogram's bucket ring: a bounded [`Series`] per bucket (stale
/// buckets are reset on reuse, and snapshots ignore them).
#[derive(Debug, Clone)]
struct HistoRing {
    slots: Vec<(u64, Series)>,
}

impl HistoRing {
    fn new() -> HistoRing {
        HistoRing {
            slots: vec![(u64::MAX, Series::new()); WINDOW_BUCKETS],
        }
    }

    fn observe(&mut self, secs: f64, period: u64) {
        let slot = &mut self.slots[(period as usize) % WINDOW_BUCKETS];
        if slot.0 != period {
            slot.0 = period;
            slot.1.clear();
        }
        slot.1.observe(secs);
    }

    fn merge(&mut self, other: &HistoRing) {
        merge_slots(&mut self.slots, &other.slots, Series::merge);
    }

    /// The buckets within the horizon ending at `now_period`, as one series.
    fn within(&self, now_period: u64) -> Series {
        let mut all = Series::new();
        for (stamp, series) in &self.slots {
            if in_horizon(*stamp, now_period) {
                all.merge(series);
            }
        }
        all
    }
}

/// Fold ring `theirs` into `mine`, slot by slot. Two stamps that share a
/// slot are a whole number of ring turns apart, so the older one has left
/// every horizon the newer one is in and is dropped.
fn merge_slots<T: Clone>(mine: &mut [(u64, T)], theirs: &[(u64, T)], combine: impl Fn(&mut T, &T)) {
    for (m, t) in mine.iter_mut().zip(theirs) {
        if t.0 == u64::MAX {
            continue;
        }
        if m.0 == t.0 {
            combine(&mut m.1, &t.1);
        } else if m.0 == u64::MAX || m.0 < t.0 {
            *m = t.clone();
        }
    }
}

/// Whether a bucket stamped `stamp` is inside the horizon ending at
/// `now_period`: the `WINDOW_BUCKETS` most recent periods, current one
/// included. `u64::MAX` (the never-written sentinel) is always outside.
fn in_horizon(stamp: u64, now_period: u64) -> bool {
    stamp <= now_period && stamp + (WINDOW_BUCKETS as u64) > now_period
}

/// The windowed registry core. Period ids are an explicit argument on
/// every method so rotation is testable without a clock; the global
/// wrapper derives them from the process epoch.
#[derive(Debug, Default)]
pub struct WindowSet {
    counters: BTreeMap<String, CounterRing>,
    histograms: BTreeMap<String, HistoRing>,
}

impl WindowSet {
    pub const fn new() -> WindowSet {
        WindowSet {
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    /// Add `n` to counter `name` in the bucket for `period`.
    pub fn counter_add(&mut self, name: &str, n: u64, period: u64) {
        update(&mut self.counters, name, CounterRing::new, |r| {
            r.add(n, period)
        });
    }

    /// Record one observation into histogram `name`'s bucket for `period`.
    pub fn observe(&mut self, name: &str, secs: f64, period: u64) {
        update(&mut self.histograms, name, HistoRing::new, |r| {
            r.observe(secs, period)
        });
    }

    /// Fold another thread's rings in, bucket by bucket.
    fn merge(&mut self, other: &WindowSet) {
        for (k, v) in &other.counters {
            update(&mut self.counters, k, CounterRing::new, |r| r.merge(v));
        }
        for (k, v) in &other.histograms {
            update(&mut self.histograms, k, HistoRing::new, |r| r.merge(v));
        }
    }

    /// Summarise the horizon ending at `now_period`. Names whose every
    /// bucket has aged out vanish from the snapshot entirely — a windowed
    /// snapshot reports recent activity, not lifetime presence.
    pub fn snapshot_at(&self, now_period: u64) -> WindowSnapshot {
        let counters = self
            .counters
            .iter()
            .filter_map(|(k, ring)| match ring.total(now_period) {
                0 => None,
                v => Some((k.clone(), v)),
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .filter_map(|(k, ring)| Some((k.clone(), ring.within(now_period).summary()?)))
            .collect();
        WindowSnapshot {
            horizon_secs: (WINDOW_BUCKETS as u64) * WINDOW_BUCKET_SECS,
            counters,
            histograms,
        }
    }
}

/// A point-in-time summary of the rolling window, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowSnapshot {
    /// Seconds the window spans (bucket size × bucket count).
    pub horizon_secs: u64,
    /// Per-counter sums within the horizon.
    pub counters: Vec<(String, u64)>,
    /// Per-histogram summaries over the samples within the horizon.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl WindowSnapshot {
    /// Counter sum within the window, by exact name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Histogram summary within the window, by exact name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Events per second for counter `name`, over the smaller of the
    /// horizon and the observed age — so a 20-second-old server reports
    /// jobs/sec against 20 s, not against an empty 5-minute window.
    pub fn rate(&self, name: &str, age_secs: f64) -> f64 {
        let denom = age_secs.min(self.horizon_secs as f64).max(1e-9);
        self.counter(name) as f64 / denom
    }
}

impl crate::ToJson for WindowSnapshot {
    fn to_json(&self) -> crate::Json {
        use crate::Json;
        Json::obj(vec![
            ("horizon_secs", self.horizon_secs.to_json()),
            (
                "counters",
                Json::Object(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Object(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Summarise the global window rings as of now. Works whether or not
/// windowed collection is on (an unwindowed registry snapshots as empty).
pub fn window_snapshot() -> WindowSnapshot {
    let mut all = WindowSet::new();
    for_each_shard(|s| all.merge(&s.windows));
    all.snapshot_at(current_period())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global; tests that mutate it must not
    /// interleave. (`cargo test` runs `#[test]`s on threads.)
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let _g = serial();
        disable();
        reset();
        counter_add("c", 3);
        gauge_set("g", 1.0);
        observe_secs("h", 0.5);
        let mut calls = 0;
        let v = time("span", || {
            calls += 1;
            7
        });
        assert_eq!((v, calls), (7, 1), "closure still runs exactly once");
        assert!(snapshot().is_empty());
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let _g = serial();
        enable();
        reset();
        counter_add("sat", u64::MAX - 1);
        counter_add("sat", 5);
        counter_add("sat", u64::MAX);
        let s = snapshot();
        disable();
        assert_eq!(s.counter("sat"), Some(u64::MAX));
    }

    #[test]
    fn histogram_percentiles_on_known_distribution() {
        let _g = serial();
        enable();
        reset();
        // 1..=100 milliseconds, inserted shuffled to prove order-independence.
        let mut rng = crate::Rng::new(0xfeed);
        let mut vals: Vec<u64> = (1..=100).collect();
        for i in (1..vals.len()).rev() {
            vals.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for v in vals {
            observe_secs("d", v as f64 * 1e-3);
        }
        let s = snapshot();
        disable();
        let h = *s.histogram("d").unwrap();
        assert_eq!(h.count, 100);
        assert!((h.total - 5.050).abs() < 1e-9, "total {}", h.total);
        // Nearest-rank: p50 of 1..=100 ms is exactly 50 ms, p95 is 95 ms.
        assert!((h.p50 - 0.050).abs() < 1e-12, "p50 {}", h.p50);
        assert!((h.p95 - 0.095).abs() < 1e-12, "p95 {}", h.p95);
        assert!((h.max - 0.100).abs() < 1e-12, "max {}", h.max);
    }

    #[test]
    fn single_sample_percentiles_are_the_sample() {
        let _g = serial();
        enable();
        reset();
        observe_secs("one", 2.5);
        let s = snapshot();
        disable();
        let h = *s.histogram("one").unwrap();
        assert_eq!((h.count, h.p50, h.p95, h.max), (1, 2.5, 2.5, 2.5));
    }

    #[test]
    fn snapshot_json_round_trips() {
        let _g = serial();
        enable();
        reset();
        counter_add("runs", 2);
        gauge_set("threads", 8.0);
        observe_secs("span", 0.25);
        observe_secs("span", 0.75);
        let s = snapshot();
        disable();
        use crate::ToJson;
        let j = s.to_json();
        let parsed = crate::Json::parse(&j.to_pretty()).unwrap();
        let back = snapshot_from_json(&parsed).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.histogram("span").unwrap().count, 2);
    }

    #[test]
    fn threads_record_into_shards_that_snapshots_merge_and_reset_clears() {
        let _g = serial();
        enable();
        reset();
        std::thread::scope(|sc| {
            for _ in 0..8 {
                sc.spawn(|| {
                    for i in 0..10_000u64 {
                        counter_add("mt.c", 1);
                        observe_secs("mt.h", (i % 4) as f64);
                    }
                });
            }
        });
        let s = snapshot();
        assert_eq!(s.counter("mt.c"), Some(80_000));
        let h = *s.histogram("mt.h").unwrap();
        // 0 + 1 + 2 + 3 per four samples; integer-valued, so exact in any
        // summation order.
        assert_eq!((h.count, h.total, h.max), (80_000, 120_000.0, 3.0));
        reset();
        let empty = snapshot();
        disable();
        assert!(empty.is_empty(), "{empty:?}");
    }

    #[test]
    fn exited_threads_fold_into_the_shared_shard() {
        let _g = serial();
        enable();
        reset();
        counter_add("fold.c", 1);
        // Recording tests are serialised, so no other thread registers a
        // shard meanwhile; one that exits late only shortens the list.
        let before = lock(&SHARDS).live.len();
        for _ in 0..100 {
            std::thread::spawn(|| counter_add("fold.c", 1))
                .join()
                .unwrap();
        }
        let after = lock(&SHARDS).live.len();
        let s = snapshot();
        disable();
        assert!(after <= before, "{before} shards grew to {after}");
        assert_eq!(s.counter("fold.c"), Some(101));
    }

    #[test]
    fn window_snapshot_sums_a_counter_across_threads() {
        let _g = serial();
        window_reset();
        window_enable();
        enable();
        std::thread::scope(|sc| {
            for _ in 0..2 {
                sc.spawn(|| {
                    counter_add("w2.jobs", 3);
                    observe_secs("w2.lat", 0.5);
                });
            }
        });
        let snap = window_snapshot();
        disable();
        window_disable();
        window_reset();
        assert_eq!(snap.counter("w2.jobs"), 6);
        assert_eq!(snap.histogram("w2.lat").unwrap().count, 2);
        assert_eq!(window_snapshot().counter("w2.jobs"), 0, "reset clears");
    }

    /// Samples the calling thread's shard retains for `name`: in the
    /// cumulative series, and in its fullest window bucket.
    fn retained(name: &str) -> (usize, usize) {
        LOCAL.with(|l| {
            let s = lock(&l.0);
            let ring = &s.windows.histograms[name];
            (
                s.cum.histograms[name].samples.len(),
                ring.slots.iter().map(|b| b.1.samples.len()).max().unwrap(),
            )
        })
    }

    #[test]
    fn a_million_observations_keep_exact_aggregates_and_bounded_samples() {
        let _g = serial();
        window_reset();
        window_enable();
        enable();
        reset();
        const N: u64 = 1_000_000;
        for i in 0..N {
            observe_secs("big", i as f64);
        }
        let (cum, bucket) = retained("big");
        let h = *snapshot().histogram("big").unwrap();
        let w = *window_snapshot().histogram("big").unwrap();
        disable();
        window_disable();
        reset();
        window_reset();
        assert!(cum <= SERIES_CAP && bucket <= SERIES_CAP, "{cum} {bucket}");
        assert!(
            cum >= SERIES_CAP / 2,
            "decimation keeps at least half the cap"
        );
        let sum = (N * (N - 1) / 2) as f64;
        assert_eq!((h.count, h.total, h.max), (N, sum, (N - 1) as f64));
        assert_eq!((w.count, w.max), (N, (N - 1) as f64));
        // Past the cap the percentiles are those of an evenly spaced
        // subsample of the ramp.
        assert!((h.p50 / N as f64 - 0.50).abs() < 0.01, "p50 {}", h.p50);
        assert!((h.p95 / N as f64 - 0.95).abs() < 0.01, "p95 {}", h.p95);
    }

    #[test]
    fn a_series_at_the_cap_is_still_exact() {
        let mut s = Series::new();
        let mut rng = crate::Rng::new(0xcab);
        let mut vals: Vec<u64> = (1..=SERIES_CAP as u64).collect();
        for i in (1..vals.len()).rev() {
            vals.swap(i, rng.below(i as u64 + 1) as usize);
        }
        // Split over two series and merged, as two threads' shards are.
        let mut other = Series::new();
        for (i, v) in vals.into_iter().enumerate() {
            if i % 3 == 0 { &mut other } else { &mut s }.observe(v as f64);
        }
        s.merge(&other);
        assert_eq!((s.stride, s.samples.len()), (1, SERIES_CAP));
        let h = s.summary().unwrap();
        assert_eq!(h.count, SERIES_CAP as u64);
        assert_eq!(h.p50, (SERIES_CAP / 2) as f64);
        assert_eq!(h.p95, (0.95 * SERIES_CAP as f64).ceil());
        // One more observation thins it; the aggregates stay exact.
        s.observe(0.0);
        assert_eq!((s.stride, s.samples.len()), (2, SERIES_CAP / 2 + 1));
        assert_eq!((s.count, s.max), (SERIES_CAP as u64 + 1, SERIES_CAP as f64));
    }

    #[test]
    fn window_counter_rotates_out_at_horizon_boundary() {
        let mut w = WindowSet::new();
        w.counter_add("jobs", 5, 0);
        w.counter_add("jobs", 3, 1);
        // Period 0's bucket is visible through period WINDOW_BUCKETS - 1...
        let last_in = WINDOW_BUCKETS as u64 - 1;
        assert_eq!(w.snapshot_at(0).counter("jobs"), 5);
        assert_eq!(w.snapshot_at(last_in).counter("jobs"), 8);
        // ...and gone exactly one period later; period 1's bucket follows.
        assert_eq!(w.snapshot_at(last_in + 1).counter("jobs"), 3);
        assert_eq!(w.snapshot_at(last_in + 2).counter("jobs"), 0);
        // An aged-out name disappears from the snapshot entirely.
        assert!(w.snapshot_at(last_in + 2).counters.is_empty());
    }

    #[test]
    fn window_bucket_slot_resets_on_reuse_one_full_turn_later() {
        let mut w = WindowSet::new();
        w.counter_add("c", 100, 2);
        // One full ring revolution later the same slot is reused; the old
        // value must not bleed into the new period's count.
        let reuse = 2 + WINDOW_BUCKETS as u64;
        w.counter_add("c", 7, reuse);
        assert_eq!(w.snapshot_at(reuse).counter("c"), 7);
    }

    #[test]
    fn window_percentiles_are_nearest_rank_over_window_samples_only() {
        let mut w = WindowSet::new();
        // 100 samples of 1..=100 ms spread over periods 0..4, plus a huge
        // outlier far in the past that must age out of the window.
        w.observe("lat", 999.0, 0);
        for v in 1..=100u64 {
            w.observe("lat", v as f64 * 1e-3, v % 5 + WINDOW_BUCKETS as u64);
        }
        let now = WINDOW_BUCKETS as u64 + 4;
        let h = *w.snapshot_at(now).histogram("lat").unwrap();
        assert_eq!(h.count, 100, "outlier aged out");
        assert!((h.p50 - 0.050).abs() < 1e-12, "p50 {}", h.p50);
        assert!((h.p95 - 0.095).abs() < 1e-12, "p95 {}", h.p95);
        assert!((h.max - 0.100).abs() < 1e-12, "max {}", h.max);
    }

    #[test]
    fn window_snapshot_json_shape() {
        let mut w = WindowSet::new();
        w.counter_add("jobs.done", 4, 0);
        w.observe("job.wall", 0.5, 0);
        let snap = w.snapshot_at(0);
        assert!((snap.rate("jobs.done", 2.0) - 2.0).abs() < 1e-12);
        use crate::ToJson;
        let j = crate::Json::parse(&snap.to_json().to_compact()).unwrap();
        assert_eq!(
            j.get("horizon_secs").and_then(|v| v.as_u64()),
            Some(WINDOW_BUCKET_SECS * WINDOW_BUCKETS as u64)
        );
        assert_eq!(
            j.get("counters")
                .and_then(|c| c.get("jobs.done"))
                .and_then(|v| v.as_u64()),
            Some(4)
        );
        assert_eq!(
            j.get("histograms")
                .and_then(|h| h.get("job.wall"))
                .and_then(|h| h.get("count"))
                .and_then(|v| v.as_u64()),
            Some(1)
        );
    }

    #[test]
    fn windowed_global_registry_sees_enabled_traffic_only() {
        let _g = serial();
        disable();
        window_reset();
        window_enable();
        // Disabled cumulative registry => windowed layer sees nothing
        // either (it rides the enabled slow path).
        counter_add("w.jobs", 5);
        assert_eq!(window_snapshot().counter("w.jobs"), 0);
        enable();
        counter_add("w.jobs", 2);
        observe_secs("w.lat", 0.25);
        let snap = window_snapshot();
        disable();
        window_disable();
        window_reset();
        assert_eq!(snap.counter("w.jobs"), 2);
        assert_eq!(snap.histogram("w.lat").unwrap().count, 1);
    }
}
