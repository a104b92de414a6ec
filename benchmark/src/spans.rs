//! The harness's own span recorder for the layer pass.
//!
//! Spans are recorded from benchmark code around each call into a crate —
//! nothing inside `crates/` is touched. They stay in memory and are written
//! once, at the end, as a Chrome trace. A layer's seconds are the summed
//! *self* times of its spans: duration minus the direct children's.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use repro_util::{Json, ToJson};

#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<what>`; the layer is the crate directory name.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Index of the replayed job, `u32::MAX` outside any job.
    pub job: u32,
    /// A child copied from a separate measurement of the same work (see
    /// [`Recorder::adopt`]), not timed where it is drawn.
    pub adopted: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    job: u32,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            job: u32::MAX,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn set_job(&mut self, job: Option<u32>) {
        self.job = job.unwrap_or(u32::MAX);
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            job: self.job,
            adopted: false,
        });
        self.stack.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let now = self.now();
        assert_eq!(self.stack.pop(), Some(id), "span exits out of order");
        self.spans[id].end_ns = now;
    }

    /// Time a leaf call.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    pub fn rename(&mut self, id: usize, name: &'static str) {
        self.spans[id].name = name;
    }

    /// Give the closed span `parent` a child of `dur_ns` that was measured
    /// elsewhere: the cache computes a missing artifact by calling the
    /// compiler crates inside itself, where the harness cannot put a span,
    /// so the compile calls are timed on their own and their durations
    /// subtracted from the lookup's self time this way. Adopted children
    /// are laid end to end from the parent's start and clipped to it.
    pub fn adopt(&mut self, parent: usize, name: &'static str, dur_ns: u64) {
        let used: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(Span::dur_ns)
            .sum();
        let p = &self.spans[parent];
        let start = (p.start_ns + used).min(p.end_ns);
        let end = (start + dur_ns).min(p.end_ns);
        let job = p.job;
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            parent: Some(parent),
            job,
            adopted: true,
        });
    }

    /// Summed self time in seconds, by name, of the spans `keep` accepts.
    pub fn self_secs(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns).filter(|(s, _)| keep(s)) {
            *out.entry(s.name).or_insert(0.0) += s.dur_ns().saturating_sub(c) as f64 * 1e-9;
        }
        out
    }

    /// Summed duration in seconds of the spans called `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .sum()
    }

    #[cfg(test)]
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Write every span as a Chrome-trace complete event (`chrome://tracing`
    /// or Perfetto): one process per layer, one thread.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let events: Vec<Json> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let layer = s.name.split('.').next().unwrap_or(s.name);
                let mut args = vec![("span", (id as u64).to_json())];
                if let Some(p) = s.parent {
                    args.push(("parent", (p as u64).to_json()));
                }
                if s.job != u32::MAX {
                    args.push(("job", s.job.to_json()));
                }
                if s.adopted {
                    args.push(("adopted", Json::Bool(true)));
                }
                Json::obj(vec![
                    ("name", s.name.to_json()),
                    ("cat", layer.to_json()),
                    ("ph", "X".to_json()),
                    ("pid", 1u64.to_json()),
                    ("tid", 1u64.to_json()),
                    ("ts", (s.start_ns as f64 / 1e3).to_json()),
                    ("dur", (s.dur_ns() as f64 / 1e3).to_json()),
                    ("args", Json::obj(args)),
                ])
            })
            .collect();
        let doc = Json::obj(vec![
            ("displayTimeUnit", "ms".to_json()),
            ("traceEvents", Json::Array(events)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.to_compact())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut r = Recorder::new();
        let a = r.enter("suite.job");
        let b = r.enter("cache.miss");
        r.exit(b);
        r.exit(a);
        // Fix the clock readings so the arithmetic is exact.
        (r.spans[a].start_ns, r.spans[a].end_ns) = (0, 1_000);
        (r.spans[b].start_ns, r.spans[b].end_ns) = (100, 700);
        r.adopt(b, "frontend.compile", 250);
        r.adopt(b, "ir.optimize", 1_000); // clipped to the parent's end
        let s = r.self_secs(|_| true);
        assert!((s["suite.job"] - 400e-9).abs() < 1e-15);
        assert!((s["cache.miss"] - 0.0).abs() < 1e-15);
        assert!((s["frontend.compile"] - 250e-9).abs() < 1e-15);
        assert!((s["ir.optimize"] - 350e-9).abs() < 1e-15);
        let total: f64 = s.values().sum();
        assert!((total - 1_000e-9).abs() < 1e-15, "self times tile the root");
    }
}
