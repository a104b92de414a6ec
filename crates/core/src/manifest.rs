//! Run manifests — one machine-readable record per `repro` invocation.
//!
//! Every `repro` subcommand writes a **RunManifest** to `runs/<command>.json`
//! when it exits: the command and its arguments, host/commit/config metadata
//! (so every number is reported with its host and commit), per-benchmark wall
//! times, failure-class counts, and a snapshot of the pipeline-wide metrics
//! registry. Nothing in the repository reads a manifest back; it is the
//! record a person or a script inspects after a run (CI's smoke steps read
//! `meta.workers` and the `metrics` block).
//!
//! Schema (`schema_version` 1):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "command": "check",
//!   "args": ["check"],
//!   "meta": { "git_rev": "…", "opt_level": "reuse", "workers": 2, … },
//!   "benchmarks": [ {"name": "Vecadd", "flow": "vortex",
//!                    "wall_secs": 0.01, "cycles": 4242, "ok": true}, … ],
//!   "failure_classes": { "Synthesis": 6, … },
//!   "metrics": { "counters": {…}, "gauges": {…}, "histograms": {…} },
//!   "total_wall_secs": 12.5
//! }
//! ```

use ocl_ir::passes::OptLevel;
use repro_util::metrics;
use repro_util::{Json, ToJson};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Manifest schema version; bump when a field changes meaning.
pub const MANIFEST_SCHEMA_VERSION: u64 = 1;

/// Where the host was and what it was configured as when a run happened —
/// the parameters every number in the manifest is reported with.
#[derive(Debug, Clone)]
pub struct HostMeta {
    /// `git rev-parse --short=12 HEAD`, with a `+dirty` suffix when the
    /// working tree has local modifications; `"unknown"` outside a repo.
    pub git_rev: String,
    /// Middle-end level the run executed at (CLI spelling).
    pub opt_level: String,
    /// Scheduler worker-pool size the run used (`--workers`) — the actual
    /// executor width, never a hardcoded placeholder. Read it beside any
    /// wall time: a 4-worker batch's wall times are not a sequential run's.
    pub workers: u64,
    pub os: &'static str,
    pub arch: &'static str,
    /// `debug` or `release` — wall-clock numbers from the two are not
    /// comparable.
    pub profile: &'static str,
    /// Seconds since the Unix epoch at collection time.
    pub timestamp_secs: u64,
}

/// Ask git for the current commit (best-effort; never fails the run).
fn git_rev() -> String {
    let out = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output();
    let Ok(out) = out else {
        return "unknown".to_string();
    };
    if !out.status.success() {
        return "unknown".to_string();
    }
    let mut rev = String::from_utf8_lossy(&out.stdout).trim().to_string();
    if rev.is_empty() {
        return "unknown".to_string();
    }
    let dirty = Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .map(|o| o.status.success() && !o.stdout.is_empty())
        .unwrap_or(false);
    if dirty {
        rev.push_str("+dirty");
    }
    rev
}

/// The build profile this binary was compiled under.
const PROFILE: &str = if cfg!(debug_assertions) {
    "debug"
} else {
    "release"
};

/// Collect [`HostMeta`] for a run at `level` on a `workers`-wide scheduler
/// pool.
pub fn host_meta(level: OptLevel, workers: usize) -> HostMeta {
    HostMeta {
        git_rev: git_rev(),
        opt_level: level.flag_name().to_string(),
        workers: workers as u64,
        os: std::env::consts::OS,
        arch: std::env::consts::ARCH,
        profile: PROFILE,
        timestamp_secs: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
    }
}

impl ToJson for HostMeta {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("git_rev", self.git_rev.to_json()),
            ("opt_level", self.opt_level.to_json()),
            ("workers", self.workers.to_json()),
            ("os", self.os.to_json()),
            ("arch", self.arch.to_json()),
            ("profile", self.profile.to_json()),
            ("timestamp_secs", self.timestamp_secs.to_json()),
        ])
    }
}

/// One benchmark × flow wall-time entry in a manifest.
#[derive(Debug, Clone)]
pub struct BenchWall {
    pub name: String,
    /// `vortex`, `hls`, `interp`, or a command-specific label.
    pub flow: &'static str,
    pub wall_secs: f64,
    /// Simulated / modeled cycles when the flow produces them.
    pub cycles: Option<u64>,
    pub ok: bool,
}

impl ToJson for BenchWall {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("flow", self.flow.to_json()),
            ("wall_secs", self.wall_secs.to_json()),
            ("cycles", self.cycles.to_json()),
            ("ok", self.ok.to_json()),
        ])
    }
}

/// The record of one `repro` invocation. Build one at command start, feed
/// it rows as work happens, and [`RunManifest::write`] it on the way out.
#[derive(Debug, Clone)]
pub struct RunManifest {
    pub command: String,
    pub args: Vec<String>,
    pub meta: HostMeta,
    pub benchmarks: Vec<BenchWall>,
    /// Failure-class counts (`check`, `perf-report` and `serve` populate
    /// this).
    pub failure_classes: Vec<(String, u64)>,
    pub metrics: metrics::Snapshot,
    pub total_wall_secs: f64,
}

impl RunManifest {
    pub fn new(command: &str, args: &[String], meta: HostMeta) -> RunManifest {
        RunManifest {
            command: command.to_string(),
            args: args.to_vec(),
            meta,
            benchmarks: Vec::new(),
            failure_classes: Vec::new(),
            metrics: metrics::Snapshot::default(),
            total_wall_secs: 0.0,
        }
    }

    /// Record one benchmark × flow wall time.
    pub fn push_bench(
        &mut self,
        name: &str,
        flow: &'static str,
        wall_secs: f64,
        cycles: Option<u64>,
        ok: bool,
    ) {
        self.benchmarks.push(BenchWall {
            name: name.to_string(),
            flow,
            wall_secs,
            cycles,
            ok,
        });
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", MANIFEST_SCHEMA_VERSION.to_json()),
            ("command", self.command.to_json()),
            (
                "args",
                Json::Array(self.args.iter().map(|a| a.to_json()).collect()),
            ),
            ("meta", self.meta.to_json()),
            ("benchmarks", self.benchmarks.to_json()),
            (
                "failure_classes",
                Json::Object(
                    self.failure_classes
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
            ("metrics", self.metrics.to_json()),
            ("total_wall_secs", self.total_wall_secs.to_json()),
        ])
    }

    /// Write to `<dir>/<command>.json` (creating `dir`), returning the
    /// path. Spaces in command names become underscores.
    pub fn write(&self, dir: impl AsRef<Path>) -> std::io::Result<PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.command.replace([' ', '/'], "_")));
        std::fs::write(&path, self.to_json().to_pretty())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips_through_json() {
        let mut m = RunManifest::new(
            "check",
            &["check".to_string()],
            host_meta(OptLevel::VariableReuse, 4),
        );
        m.push_bench("Vecadd", "vortex", 0.01, Some(4242), true);
        m.push_bench("Hybridsort", "hls", 0.02, None, false);
        m.failure_classes.push(("Synthesis".to_string(), 6));
        m.total_wall_secs = 1.5;
        let doc = Json::parse(&m.to_json().to_pretty()).unwrap();
        assert_eq!(doc.get("command").unwrap().as_str(), Some("check"));
        assert_eq!(
            doc.get("schema_version").unwrap().as_u64(),
            Some(MANIFEST_SCHEMA_VERSION)
        );
        let meta = doc.get("meta").unwrap();
        assert_eq!(meta.get("opt_level").unwrap().as_str(), Some("reuse"));
        assert_eq!(meta.get("workers").unwrap().as_u64(), Some(4));
        let rows = doc.get("benchmarks").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("cycles").unwrap().as_u64(), Some(4242));
        assert_eq!(rows[1].get("ok").unwrap().as_bool(), Some(false));
    }
}
