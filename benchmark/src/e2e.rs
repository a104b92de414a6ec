//! The end-to-end pass: one closed-loop client driving the real
//! `repro serve` child over one loopback TCP connection.
//!
//! The child runs in its production configuration — metrics, windowed
//! metrics and span tracing armed by `repro serve` itself, compile cache
//! with its disk tier — with its working directory in a scratch directory,
//! so the repo's `runs/` is never touched. No `--max-queue` and no
//! `--retry`: admission reads a queue depth the roadmap says is unreliable.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::linux::net::TcpStreamExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use repro_sched::JobStats;
use repro_util::Json;

use crate::expect::{deviation, Seen, Table};
use crate::gen::{Batch, Generator, Workload};
use crate::stats::{median, quantile};

/// Worker threads of the child: the production default on this class of
/// host, and the width the in-process scheduler measurements use too.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The client's read half, ACKing at once.
///
/// `repro serve` writes each response line to the socket on its own, with
/// Nagle's algorithm on, so a client that delays its ACKs stalls every
/// multi-line response on the 40 ms delayed-ACK timer — a 1 ms batch then
/// reads 44 ms and no layer of the program shows. Quick ACKs are the
/// client's choice; Linux clears the flag again by itself, so it is set
/// after every read.
struct QuickAck(TcpStream);

impl Read for QuickAck {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.0.read(buf)?;
        self.0.set_quickack(true)?;
        Ok(n)
    }
}

/// A running `repro serve` child and the client's connection to it.
pub struct Server {
    child: Child,
    reader: BufReader<QuickAck>,
    writer: TcpStream,
    dir: PathBuf,
}

impl Server {
    /// Start the child with `dir` (created empty) as its working directory
    /// and connect. The port is picked by binding to 0 and releasing it;
    /// the connect is retried until the child listens.
    ///
    /// `disk_cache` false leaves a regular file where the child would
    /// create `runs/`, so its cache probes the disk tier, fails, and serves
    /// from memory only — the program's own documented degradation.
    pub fn start(repro: &Path, dir: &Path, disk_cache: bool) -> Result<Server, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        if !disk_cache {
            std::fs::write(dir.join("runs"), b"").map_err(|e| format!("block runs/: {e}"))?;
        }
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("pick a port: {e}"))?
            .port();
        let addr = format!("127.0.0.1:{port}");
        let stderr = std::fs::File::create(dir.join("serve.stderr"))
            .map_err(|e| format!("create serve.stderr: {e}"))?;
        let mut child = Command::new(repro)
            .args([
                "serve",
                "--workers",
                &workers().to_string(),
                "--listen",
                &addr,
            ])
            .current_dir(dir)
            .env_remove("REPRO_CACHE_DIR")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", repro.display()))?;
        let deadline = Instant::now() + Duration::from_secs(20);
        let stream = loop {
            match TcpStream::connect(&addr) {
                Ok(s) => break s,
                Err(e) => {
                    let exited = child.try_wait().ok().flatten();
                    if exited.is_some() || Instant::now() > deadline {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!(
                            "repro serve never listened on {addr} ({e}); stderr: {}",
                            std::fs::read_to_string(dir.join("serve.stderr")).unwrap_or_default()
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        };
        let configured = stream
            .set_nodelay(true)
            .and_then(|()| stream.set_quickack(true))
            .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(120))))
            .and_then(|()| stream.try_clone());
        match configured {
            Ok(writer) => Ok(Server {
                child,
                reader: BufReader::new(QuickAck(stream)),
                writer,
                dir: dir.to_path_buf(),
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("configure client socket: {e}"))
            }
        }
    }

    /// Send one batch and read its response lines (outcomes, then the
    /// summary line) into `resp`. Returns the turnaround: first request
    /// byte written to summary line read.
    pub fn round_trip(&mut self, text: &str, resp: &mut String) -> Result<Duration, String> {
        resp.clear();
        let started = Instant::now();
        self.writer
            .write_all(text.as_bytes())
            .map_err(|e| format!("write batch: {e}"))?;
        loop {
            let at = resp.len();
            let n = self
                .reader
                .read_line(resp)
                .map_err(|e| format!("read response: {e}"))?;
            if n == 0 {
                return Err("repro serve closed the connection mid-batch".to_string());
            }
            if resp[at..].starts_with("{\"batch\":") {
                return Ok(started.elapsed());
            }
        }
    }

    /// Peak resident set of the child so far, in MiB (`VmHWM`).
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// `{"cmd":"drain"}`, wait for the ack and for the child to exit, and
    /// remove the scratch directory.
    pub fn drain(mut self) -> Result<(), String> {
        self.writer
            .write_all(b"{\"cmd\":\"drain\"}\n")
            .map_err(|e| format!("write drain: {e}"))?;
        let mut rest = String::new();
        self.reader
            .read_to_string(&mut rest)
            .map_err(|e| format!("read drain ack: {e}"))?;
        if !rest.contains("\"cmd\":\"drain\"") {
            return Err(format!("no drain ack, got `{}`", rest.trim()));
        }
        // The exit code is 1 when any job failed, which the expected HLS
        // synthesis failures make normal; only a signal is an error here.
        let status = self.child.wait().map_err(|e| format!("wait child: {e}"))?;
        if status.code().is_none() {
            return Err(format!("repro serve died: {status}"));
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        Ok(())
    }
}

impl Drop for Server {
    /// Never leave the child behind, whatever path dropped the server.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Tallies outcomes against the expectation table and against earlier
/// sightings of the same job shape.
pub struct Checker {
    table: Table,
    /// First outcome seen per shape; every later one must equal it.
    shapes: Vec<Option<Seen>>,
    pub attempted: u64,
    pub failed: u64,
    /// Outcomes that were `ok`, and their summed cycles.
    pub ok_outcomes: u64,
    pub cycles: u64,
    /// First few deviations, for the report.
    pub notes: Vec<String>,
}

impl Checker {
    pub fn new(workload: Workload) -> Checker {
        Checker {
            table: Table::load(),
            shapes: vec![None; workload.shapes()],
            attempted: 0,
            failed: 0,
            ok_outcomes: 0,
            cycles: 0,
            notes: Vec::new(),
        }
    }

    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Check one outcome of `job`; `None` is a missing response.
    pub fn outcome(&mut self, job: &crate::gen::GenJob, seen: Option<Seen>) {
        self.attempted += 1;
        let Some(seen) = seen else {
            return self.fail(format!("job {}: no response", job.req.id));
        };
        if let Seen::Ok(s) = &seen {
            self.ok_outcomes += 1;
            self.cycles += s.cycles;
        }
        if let Some(why) = deviation(self.table.expect(&job.req), &seen) {
            return self.fail(format!("{}: {why}", job.req.label()));
        }
        match &self.shapes[job.shape] {
            None => self.shapes[job.shape] = Some(seen),
            Some(first) if *first == seen => {}
            Some(first) => {
                let note = format!("{}: {seen:?} but first saw {first:?}", job.req.label());
                self.fail(note);
            }
        }
    }

    /// Forget the tallies but keep the shape table (end of warm-up).
    pub fn reset_tallies(&mut self) {
        (self.attempted, self.failed, self.ok_outcomes, self.cycles) = (0, 0, 0, 0);
    }
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(key)? + key.len()..];
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    rest[..digits].parse().ok()
}

/// Span-tree facts the traced run reads off armed outcome lines.
#[derive(Default)]
pub struct SpanTally {
    pub outcomes: u64,
    pub spans: u64,
    pub queue_wait_us: u64,
}

fn count_spans(node: &Json) -> u64 {
    1 + node
        .get("children")
        .and_then(Json::as_array)
        .map_or(0, |c| c.iter().map(count_spans).sum())
}

/// Check one batch's response text. Outcome lines come back in submission
/// order, so line `i` answers job `i`; the id echo is checked anyway. The
/// server's summary tallies are cross-checked against the client's.
pub fn check_response(
    checker: &mut Checker,
    batch: &Batch,
    resp: &str,
    mut spans: Option<&mut SpanTally>,
) {
    let mut lines = resp.lines();
    let (mut ok, mut failed) = (0u64, 0u64);
    for job in &batch.jobs {
        let line = lines.next().unwrap_or("");
        if !line.starts_with("{\"id\":") || field_u64(line, "{\"id\":") != Some(job.req.id) {
            checker.outcome(job, None);
            continue;
        }
        // The hot path reads the three numbers it needs straight off the
        // line (fixed key order, before the span tree); failures and the
        // traced run take the full parse.
        let seen = if line.contains("\"ok\":true") {
            ok += 1;
            match (
                field_u64(line, "\"cycles\":"),
                field_u64(line, "\"instructions\":"),
            ) {
                (Some(cycles), Some(instructions)) => Some(Seen::Ok(JobStats {
                    cycles,
                    instructions,
                })),
                _ => None,
            }
        } else {
            failed += 1;
            Json::parse(line).ok().and_then(|j| {
                let e = j.get("error")?;
                Some(Seen::Err {
                    kind: e.get("kind")?.as_str()?.to_string(),
                    message: e.get("message")?.as_str()?.to_string(),
                })
            })
        };
        checker.outcome(job, seen);
        if let Some(t) = spans.as_deref_mut() {
            if let Some(tree) = Json::parse(line).ok().as_ref().and_then(|j| j.get("spans")) {
                t.outcomes += 1;
                t.spans += count_spans(tree);
                t.queue_wait_us += tree
                    .get("children")
                    .and_then(Json::as_array)
                    .and_then(|c| {
                        c.iter()
                            .find(|n| n.get("name").and_then(Json::as_str) == Some("queue_wait"))
                    })
                    .and_then(|n| n.get("dur_us"))
                    .and_then(Json::as_u64)
                    .unwrap_or(0);
            }
        }
    }
    let summary = lines.next().and_then(|l| Json::parse(l).ok());
    let tally = |k: &str| {
        summary
            .as_ref()
            .and_then(|s| s.get(k))
            .and_then(Json::as_u64)
    };
    let n = batch.jobs.len() as u64;
    if (tally("jobs"), tally("ok"), tally("failed")) != (Some(n), Some(ok), Some(failed)) {
        checker.fail(format!(
            "summary line disagrees with the client ({n} jobs, {ok} ok, {failed} failed): {summary:?}"
        ));
    }
}

/// One timed pass: the same job shapes, in the same batches, every time.
pub struct Pass {
    pub wall_s: f64,
    /// Jobs of the pass whose outcome was what it had to be.
    pub correct: u64,
    pub turnaround_ms: Vec<f64>,
}

/// Everything one end-to-end run measured.
pub struct E2eRun {
    pub setup_s: Vec<f64>,
    pub wall_s: f64,
    pub passes: Vec<Pass>,
    pub attempted: u64,
    pub failed: u64,
    pub ok_outcomes: u64,
    pub cycles: u64,
    pub peak_rss_mib: f64,
    /// Timed jobs the child had answered when `peak_rss_mib` was read.
    pub rss_after_jobs: u64,
    /// Seconds the client spent generating requests and checking responses
    /// inside the timed phase.
    pub client_s: f64,
    pub spans: SpanTally,
    pub notes: Vec<String>,
}

/// Quantile over passes at which the timed metrics are read: the best
/// quartile (25th percentile of a time, 75th of a rate).
///
/// Every pass is the same work, so a pass is a clean sample. On the shared
/// two-core reference host interference comes in bursts of a second or
/// more and only ever slows a pass down; a low quantile reads the program
/// through the quiet passes. Over two sets of ten 20 s runs, taken in a
/// rough and in a calm quarter of an hour, the worst inter-quartile spread
/// of any timed metric was 9.6 % for the median over passes, 10.3 % for
/// the best decile (ten passes of `sim-paper` are too few for it) and
/// 8.4 % for the best quartile. A change to the program moves every pass,
/// and with it any quantile.
pub const BEST_QUARTILE: f64 = 0.25;

impl E2eRun {
    pub fn setup_s(&self) -> f64 {
        median(&self.setup_s)
    }
    pub fn batches(&self) -> usize {
        self.passes.iter().map(|p| p.turnaround_ms.len()).sum()
    }
    fn best_quartile(&self, of_pass: impl Fn(&Pass) -> f64) -> f64 {
        let v: Vec<f64> = self.passes.iter().map(of_pass).collect();
        quantile(&v, BEST_QUARTILE)
    }
    /// Correct jobs of a pass per second of its wall, best quartile.
    pub fn jobs_per_s(&self) -> f64 {
        1.0 / self.best_quartile(|p| p.wall_s / p.correct.max(1) as f64)
    }
    /// A pass's median batch turnaround, best quartile over passes.
    pub fn batch_p50_ms(&self) -> f64 {
        self.best_quartile(|p| median(&p.turnaround_ms))
    }
    /// A pass's 90th-percentile batch turnaround, best quartile over passes.
    pub fn batch_p90_ms(&self) -> f64 {
        self.best_quartile(|p| quantile(&p.turnaround_ms, 0.9))
    }
    pub fn sim_cycles_per_job(&self) -> f64 {
        self.cycles as f64 / self.ok_outcomes.max(1) as f64
    }
    pub fn client_frac(&self) -> f64 {
        self.client_s / self.wall_s
    }
}

/// One set-up: fresh scratch directory, child start to ready, input
/// generation, and the untimed warm-up pass over every job shape.
fn set_up(
    repro: &Path,
    dir: &Path,
    workload: Workload,
    seed: u64,
) -> Result<(Server, Generator, Checker, f64), String> {
    let started = Instant::now();
    let mut server = Server::start(repro, dir, workload.disk_cache())?;
    let mut gen = Generator::new(workload, seed);
    let mut checker = Checker::new(workload);
    let mut resp = String::new();
    for batch in gen.next_pass() {
        server.round_trip(&batch.text, &mut resp)?;
        check_response(&mut checker, &batch, &resp, None);
    }
    Ok((server, gen, checker, started.elapsed().as_secs_f64()))
}

/// Run the end-to-end pass: set up `setups` times (keeping the last
/// service), then time whole passes for about `seconds`. `traced` also
/// reads the span tree off every outcome line. The checker comes back so
/// the layer pass can hold its in-process outcomes against the served ones.
pub fn run(
    repro: &Path,
    scratch: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
    setups: usize,
    traced: bool,
) -> Result<(E2eRun, Checker), String> {
    let dir = scratch.join(format!("serve-{}-{}", workload.name(), std::process::id()));
    let mut setup_s = Vec::new();
    let mut kept = None;
    let mut warmup_failures = Vec::new();
    for rep in 0..setups {
        let (server, gen, checker, secs) = set_up(repro, &dir, workload, seed)?;
        setup_s.push(secs);
        if checker.failed > 0 {
            warmup_failures.extend(checker.notes.iter().cloned());
        }
        if rep + 1 < setups {
            server.drain()?;
        } else {
            kept = Some((server, gen, checker));
        }
    }
    let (mut server, mut gen, mut checker) = kept.ok_or("at least one set-up is needed")?;
    let warmup_failed = checker.failed;
    checker.reset_tallies();

    let mut passes: Vec<Pass> = Vec::new();
    let mut spans = SpanTally::default();
    let mut client = Duration::ZERO;
    let mut resp = String::new();
    let mut rss = None;
    let started = Instant::now();
    loop {
        let pass_started = Instant::now();
        let before = (checker.attempted, checker.failed);
        let mut turnaround_ms = Vec::with_capacity(workload.batches_per_pass());
        for _ in 0..workload.batches_per_pass() {
            let c0 = Instant::now();
            let batch = gen.next_batch();
            client += c0.elapsed();
            let took = server.round_trip(&batch.text, &mut resp)?;
            turnaround_ms.push(took.as_secs_f64() * 1e3);
            let c1 = Instant::now();
            check_response(&mut checker, &batch, &resp, traced.then_some(&mut spans));
            client += c1.elapsed();
        }
        let sent = checker.attempted - before.0;
        passes.push(Pass {
            wall_s: pass_started.elapsed().as_secs_f64(),
            correct: sent.saturating_sub(checker.failed - before.1),
            turnaround_ms,
        });
        // Memory is read after a fixed amount of work, not at the end, so
        // that a faster program is not charged for the extra jobs it fits
        // into the same seconds.
        if rss.is_none() && checker.attempted >= workload.rss_after_jobs() {
            rss = Some((server.peak_rss_mib()?, checker.attempted));
        }
        // Whole passes only, so every run does the same simulated work per
        // pass; stop at the pass boundary nearest to `seconds`.
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + 0.5 * elapsed / passes.len() as f64 >= seconds {
            break;
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let (peak_rss_mib, rss_after_jobs) = match rss {
        Some(r) => r,
        None => (server.peak_rss_mib()?, checker.attempted),
    };
    server.drain()?;
    let mut notes = warmup_failures;
    notes.extend(checker.notes.iter().cloned());
    let run = E2eRun {
        setup_s,
        wall_s,
        passes,
        attempted: checker.attempted,
        failed: checker.failed + warmup_failed,
        ok_outcomes: checker.ok_outcomes,
        cycles: checker.cycles,
        peak_rss_mib,
        rss_after_jobs,
        client_s: client.as_secs_f64(),
        spans,
        notes,
    };
    Ok((run, checker))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_are_read_off_the_line_before_the_span_tree() {
        let line = r#"{"id":12,"label":"Vecadd/hls","ok":true,"cycles":922,"instructions":2560,"wall_secs":0.0001,"spans":{"name":"job","cycles":7}}"#;
        assert_eq!(field_u64(line, "{\"id\":"), Some(12));
        assert_eq!(field_u64(line, "\"cycles\":"), Some(922));
        assert_eq!(field_u64(line, "\"instructions\":"), Some(2560));
        assert_eq!(field_u64(line, "\"missing\":"), None);
    }

    #[test]
    fn check_response_counts_deviations_missing_lines_and_summary_mismatch() {
        // Every sim-paper job is expected to be ok.
        let w = Workload::SimPaper;
        let batch = Generator::new(w, 1).next_batch();
        let n = batch.jobs.len() as u64;
        let line = |id: u64, cycles: u64| {
            format!(
                "{{\"id\":{id},\"label\":\"x\",\"ok\":true,\"cycles\":{cycles},\"instructions\":5,\"wall_secs\":0.1}}\n"
            )
        };
        let ids: Vec<u64> = batch.jobs.iter().map(|j| j.req.id).collect();
        let good: String = ids.iter().map(|&id| line(id, 9)).collect::<String>()
            + &format!("{{\"batch\":1,\"jobs\":{n},\"ok\":{n},\"failed\":0}}\n");
        let mut c = Checker::new(w);
        check_response(&mut c, &batch, &good, None);
        assert_eq!(
            (c.attempted, c.failed, c.ok_outcomes, c.cycles),
            (n, 0, n, 9 * n)
        );
        // Same shapes again with another cycle count: every job deviates.
        let drift = good.replace("\"cycles\":9", "\"cycles\":10");
        check_response(&mut c, &batch, &drift, None);
        assert_eq!((c.attempted, c.failed), (2 * n, n));
        // A short response: one job unanswered, and no summary line.
        let mut c = Checker::new(w);
        let short: String = ids[..ids.len() - 1].iter().map(|&id| line(id, 9)).collect();
        check_response(&mut c, &batch, &short, None);
        assert_eq!((c.attempted, c.failed), (n, 2));
    }
}
