//! `repro serve` — the long-running batch service.
//!
//! Turns the one-shot CLI into a resident process: jobs arrive as
//! newline-delimited JSON ([`repro_sched::JobRequest`] wire form) on stdin
//! or a TCP socket, queue into one shared FIFO
//! [`repro_sched::Executor`], and come back as one compact JSON line per
//! outcome plus a per-batch summary line. The process keeps the PR 7
//! compile cache and the metrics registry warm across batches, so a second
//! submission of the same kernels pays no compile cost.
//!
//! Protocol (NDJSON, line-oriented):
//!
//! * a line holding a JSON **object** is one job request, appended to the
//!   pending batch;
//! * a line holding a JSON **array** is a whole batch, submitted
//!   immediately (after any pending single-job lines);
//! * a **blank** line submits the pending batch;
//! * **EOF** submits whatever is pending, then exits.
//!
//! A malformed line produces one `{"ok": false, "error": …}` response line
//! and never aborts the service (the same fail-soft contract the executor
//! gives panicking jobs). That includes lines that are not valid UTF-8 and
//! lines longer than [`MAX_LINE_BYTES`] — the reader works on raw bytes
//! with a hard length guard, so hostile input costs one typed rejection,
//! not the connection. Responses for a batch are emitted in submission
//! order — the executor guarantees slot order no matter which worker ran
//! what — followed by a summary line:
//!
//! ```json
//! {"batch":1,"jobs":56,"ok":50,"failed":6,"wall_secs":3.2,"jobs_per_sec":17.5}
//! ```
//!
//! Hardening (PR 9) on top of the base protocol:
//!
//! * **Retry.** With `retry_max > 0`, jobs that fail with a *transient*
//!   class ([`ReproError::is_transient`]: deadline, panic, overload,
//!   drain) are re-run up to `retry_max` times with deterministic
//!   exponential backoff (`retry_backoff_ms · 2^attempt`, saturating). Deterministic
//!   failures are never retried — attempt three of a kernel that doesn't
//!   compile is the same error at three times the cost.
//! * **Admission control.** With `max_queue` set, a batch only admits as
//!   many jobs as fit under the executor's queue-depth limit; the rest
//!   come back immediately as typed [`ReproError::Overloaded`] response
//!   lines (counted in `serve.shed`) instead of buffering without bound.
//! * **Graceful drain.** A `{"cmd": "drain"}` line puts the executor into
//!   drain mode: in-flight jobs finish, still-queued jobs complete with
//!   typed [`ReproError::Draining`] rejections (every submitted job gets
//!   exactly one response), a final ack line is emitted, and the loop
//!   exits cleanly. The compile cache's disk tier is write-through, so
//!   there is nothing left to flush at drain time by construction.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::TcpListener;
use std::time::{Duration, Instant};

use repro_diag::ReproError;
use repro_fault::{fire, fire_param, FaultPoint};
use repro_util::metrics;

use ocl_ir::passes::OptLevel;
use ocl_suite::{all_benchmarks, instantiate};
use repro_sched::{Executor, Flow, JobOutcome, JobRequest};
use repro_util::{Json, ToJson};

/// Configuration for one serve session.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Unread: a session runs on the executor it is given, at
    /// `exec.workers()`. Kept only because `benchmark/src/layers.rs` sets
    /// it; see ROADMAP item 1(vii).
    pub workers: usize,
    /// Exit after the first submitted batch (CI smoke mode).
    pub once: bool,
    /// Wall-clock deadline applied to every job that does not set its own
    /// `deadline_ms` — the service-level guarantee that no client request
    /// can wedge a worker forever.
    pub deadline_ms: Option<u64>,
    /// Re-run jobs that fail with a transient class up to this many times
    /// (0 disables retry).
    pub retry_max: u32,
    /// Base backoff before retry attempt `n`: `retry_backoff_ms · 2ⁿ`
    /// milliseconds, saturating — deterministic, no jitter, so two runs of
    /// the same input retry on the same schedule.
    pub retry_backoff_ms: u64,
    /// Admission limit: a batch only admits jobs while the executor queue
    /// depth stays under this; the rest are shed with typed `Overloaded`
    /// responses. `None` = admit everything.
    pub max_queue: Option<usize>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            workers: 1,
            once: false,
            deadline_ms: None,
            retry_max: 0,
            retry_backoff_ms: 10,
            max_queue: None,
        }
    }
}

/// What one serve session did, for the exit manifest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    pub batches: u64,
    pub jobs: u64,
    pub ok: u64,
    pub failed: u64,
    /// Protocol errors (unparseable, non-UTF-8, over-long lines) —
    /// answered but never executed.
    pub rejected: u64,
    /// Jobs shed by admission control with a typed `Overloaded` response.
    pub shed: u64,
    /// Transient-failure re-runs performed by the retry loop.
    pub retried: u64,
    /// Retried jobs whose *final* outcome was ok — the retry loop's yield.
    pub healed: u64,
    /// Outcomes whose wall-clock deadline fired (in queue or mid-run).
    pub deadline_fired: u64,
    /// Whether the session ended via a `{"cmd":"drain"}` request.
    pub drained: bool,
}

/// What [`run_batch`] produced: the outcomes plus this batch's retry
/// accounting (also accumulated into the session [`ServeSummary`], but the
/// per-batch summary line needs the per-batch values).
struct BatchResult {
    outcomes: Vec<JobOutcome>,
    retried: u64,
    healed: u64,
}

/// One batch's worth of responses: the outcome lines then the summary line.
fn write_batch(
    out: &mut dyn Write,
    batch_no: u64,
    batch: &BatchResult,
    wall_secs: f64,
) -> std::io::Result<()> {
    let outcomes = &batch.outcomes;
    for oc in outcomes {
        writeln!(out, "{}", oc.to_json().to_compact())?;
    }
    let ok = outcomes.iter().filter(|o| o.is_ok()).count() as u64;
    let failed = outcomes.len() as u64 - ok;
    let deadline_fired = outcomes.iter().filter(|o| o.deadline_fired).count() as u64;
    let jobs_per_sec = if wall_secs > 0.0 {
        outcomes.len() as f64 / wall_secs
    } else {
        0.0
    };
    let summary = Json::obj(vec![
        ("batch", batch_no.to_json()),
        ("jobs", (outcomes.len() as u64).to_json()),
        ("ok", ok.to_json()),
        ("failed", failed.to_json()),
        ("deadline_fired", deadline_fired.to_json()),
        ("retried", batch.retried.to_json()),
        ("healed", batch.healed.to_json()),
        ("wall_secs", wall_secs.to_json()),
        ("jobs_per_sec", jobs_per_sec.to_json()),
    ]);
    writeln!(out, "{}", summary.to_compact())?;
    out.flush()
}

/// The protocol-error response line for an unparseable request.
fn write_reject(out: &mut dyn Write, detail: &str) -> std::io::Result<()> {
    let line = Json::obj(vec![
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::obj(vec![
                ("kind", "Protocol".to_json()),
                ("detail", detail.to_json()),
            ]),
        ),
    ]);
    writeln!(out, "{}", line.to_compact())?;
    out.flush()
}

fn parse_request(j: &Json, opts: &ServeOptions) -> Result<JobRequest, String> {
    let mut req = JobRequest::parse(j)?;
    if req.deadline_ms.is_none() {
        req.deadline_ms = opts.deadline_ms;
    }
    Ok(req)
}

/// Hard ceiling on one protocol line. Anything longer is discarded as it
/// streams past (bounded memory) and answered with one typed rejection.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// One raw line off the wire.
enum RawLine {
    Eof,
    /// A complete line (newline stripped) within the length guard.
    Line,
    /// The line blew past [`MAX_LINE_BYTES`]; it was consumed and
    /// discarded. Carries the total bytes seen.
    TooLong(usize),
}

/// Byte-level bounded line reader. `BufRead::lines` is wrong for a
/// network-facing loop twice over: invalid UTF-8 turns into an
/// `io::Error` that kills the whole connection, and a client that never
/// sends `\n` buffers without limit. This reads raw bytes, enforces the
/// cap while *streaming* (an over-long line is consumed chunk by chunk,
/// never held in memory), and leaves UTF-8 validation to the caller.
fn read_raw_line(input: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<RawLine> {
    buf.clear();
    let mut discarded = 0usize;
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if discarded > 0 {
                RawLine::TooLong(discarded)
            } else if buf.is_empty() {
                RawLine::Eof
            } else {
                RawLine::Line
            });
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        if discarded == 0 && buf.len() + take <= MAX_LINE_BYTES {
            buf.extend_from_slice(&chunk[..take]);
        } else {
            discarded += buf.len() + take;
            buf.clear();
        }
        input.consume(take + usize::from(newline.is_some()));
        if newline.is_some() {
            return Ok(if discarded > 0 {
                RawLine::TooLong(discarded)
            } else {
                RawLine::Line
            });
        }
    }
}

/// Apply the serve-input fault points to one raw line: truncation
/// mid-JSON, an invalid UTF-8 byte spliced into the middle, or the line
/// reported as oversized. Returns the oversize byte count if that fault
/// fired.
fn inject_line_faults(buf: &mut Vec<u8>) -> Option<usize> {
    if fire(FaultPoint::ServeLineTruncate) {
        let keep = buf.len() / 2;
        buf.truncate(keep);
    }
    if fire(FaultPoint::ServeLineInvalidUtf8) && !buf.is_empty() {
        let mid = buf.len() / 2;
        buf[mid] = 0xff;
    }
    fire_param(FaultPoint::ServeLineOversize).map(|p| (p as usize).max(MAX_LINE_BYTES + 1))
}

/// `{"cmd":"stats"}` — one JSON line summarizing the rolling 5-minute
/// window: throughput, latency percentiles, cache hit-rate, park rate,
/// and fault/retry counts, all *windowed* (what the service is
/// doing now), never cumulative totals. The raw windowed snapshot rides
/// along under `"window"` for clients that want other series.
fn write_stats(out: &mut dyn Write, exec: &Executor) -> std::io::Result<()> {
    let w = metrics::window_snapshot();
    let uptime = repro_obs::uptime_secs();
    let lat = w.histogram("sched.job_latency").copied();
    let hits = w.counter("cache.hit");
    let lookups = hits + w.counter("cache.miss");
    let hit_rate = if lookups > 0 {
        hits as f64 / lookups as f64
    } else {
        0.0
    };
    let line = Json::obj(vec![
        ("cmd", "stats".to_json()),
        ("ok", Json::Bool(true)),
        ("uptime_secs", uptime.to_json()),
        ("window_secs", uptime.min(w.horizon_secs as f64).to_json()),
        ("jobs", w.counter("sched.jobs").to_json()),
        ("jobs_per_sec", w.rate("sched.jobs", uptime).to_json()),
        ("p50_latency_secs", lat.map_or(0.0, |h| h.p50).to_json()),
        ("p95_latency_secs", lat.map_or(0.0, |h| h.p95).to_json()),
        ("cache_hit_rate", hit_rate.to_json()),
        ("parks_per_sec", w.rate("sched.park", uptime).to_json()),
        (
            "deadline_fired",
            w.counter("sched.deadline_fired").to_json(),
        ),
        ("retries", w.counter("serve.retry").to_json()),
        ("healed", w.counter("serve.healed").to_json()),
        ("shed", w.counter("serve.shed").to_json()),
        ("faults", w.counter("fault.fired").to_json()),
        ("queue_depth", (exec.queue_depth() as u64).to_json()),
        ("window", w.to_json()),
    ]);
    writeln!(out, "{}", line.to_compact())?;
    out.flush()
}

/// `{"cmd":"health"}` — liveness at a glance: queue depth, pool width,
/// drain state, degraded-cache flag, uptime, session totals.
fn write_health(
    out: &mut dyn Write,
    exec: &Executor,
    summary: &ServeSummary,
) -> std::io::Result<()> {
    let line = Json::obj(vec![
        ("cmd", "health".to_json()),
        ("ok", Json::Bool(true)),
        ("uptime_secs", repro_obs::uptime_secs().to_json()),
        ("workers", (exec.workers() as u64).to_json()),
        ("queue_depth", (exec.queue_depth() as u64).to_json()),
        ("draining", Json::Bool(exec.draining())),
        (
            "cache_degraded",
            Json::Bool(repro_cache::global().degraded()),
        ),
        ("obs_armed", Json::Bool(repro_obs::armed())),
        ("batches", summary.batches.to_json()),
        ("jobs", summary.jobs.to_json()),
    ]);
    writeln!(out, "{}", line.to_compact())?;
    out.flush()
}

/// `{"cmd":"events"}` — flush the bounded structured event ring as one
/// JSON line (oldest first, plus how many were dropped since last flush).
fn write_events(out: &mut dyn Write) -> std::io::Result<()> {
    let (events, dropped) = repro_obs::drain_events();
    let line = Json::obj(vec![
        ("cmd", "events".to_json()),
        ("ok", Json::Bool(true)),
        ("count", (events.len() as u64).to_json()),
        ("dropped", dropped.to_json()),
        (
            "events",
            Json::Array(events.iter().map(ToJson::to_json).collect()),
        ),
    ]);
    writeln!(out, "{}", line.to_compact())?;
    out.flush()
}

/// Run one batch through the executor with admission control and the
/// transient-retry loop, returning outcomes in submission order.
fn run_batch(
    exec: &Executor,
    opts: &ServeOptions,
    reqs: Vec<JobRequest>,
    summary: &mut ServeSummary,
) -> BatchResult {
    // Admission control: only as many jobs as fit under the queue-depth
    // limit enter the executor; the tail is shed typed, in order.
    let (admitted, shed) = match opts.max_queue {
        Some(limit) => {
            let depth = exec.queue_depth();
            let room = limit.saturating_sub(depth);
            if reqs.len() > room {
                let mut admitted = reqs;
                let shed: Vec<JobRequest> = admitted.split_off(room);
                metrics::counter_add("serve.shed", shed.len() as u64);
                repro_obs::event(
                    "shed",
                    &format!("{} job(s) shed at queue depth {depth}", shed.len()),
                );
                summary.shed += shed.len() as u64;
                (admitted, shed)
            } else {
                (reqs, Vec::new())
            }
        }
        None => (reqs, Vec::new()),
    };
    repro_obs::event("admit", &format!("{} job(s) admitted", admitted.len()));
    let queued = exec.queue_depth() + admitted.len();
    let mut outcomes = exec.run(admitted.iter().cloned().map(instantiate).collect());
    // Bounded retry for transient failures, deterministic exponential
    // backoff. Draining is transient for the *client* (resubmit elsewhere)
    // but futile to retry here: the executor will only reject again.
    let mut batch_retried = 0u64;
    let mut retried_slots: Vec<usize> = Vec::new();
    for attempt in 0..opts.retry_max {
        if exec.draining() {
            break;
        }
        let again: Vec<usize> = outcomes
            .iter()
            .enumerate()
            .filter(|(_, oc)| {
                oc.result
                    .as_ref()
                    .err()
                    .is_some_and(|e| e.is_transient() && *e != ReproError::Draining)
            })
            .map(|(i, _)| i)
            .collect();
        if again.is_empty() {
            break;
        }
        let factor = 2u64.saturating_pow(attempt);
        std::thread::sleep(Duration::from_millis(
            opts.retry_backoff_ms.saturating_mul(factor),
        ));
        metrics::counter_add("serve.retry", again.len() as u64);
        repro_obs::event(
            "retry",
            &format!(
                "attempt {}: {} transient failure(s)",
                attempt + 1,
                again.len()
            ),
        );
        summary.retried += again.len() as u64;
        batch_retried += again.len() as u64;
        for &i in &again {
            if !retried_slots.contains(&i) {
                retried_slots.push(i);
            }
        }
        let retried = exec.run(
            again
                .iter()
                .map(|&i| instantiate(admitted[i].clone()))
                .collect(),
        );
        for (slot, mut oc) in again.into_iter().zip(retried) {
            oc.index = slot;
            outcomes[slot] = oc;
        }
    }
    // A retried slot whose final outcome is ok was healed by the loop.
    let healed = retried_slots
        .iter()
        .filter(|&&i| outcomes[i].is_ok())
        .count() as u64;
    if healed > 0 {
        metrics::counter_add("serve.healed", healed);
    }
    summary.healed += healed;
    // Shed jobs still get one response each, in submission order.
    let limit = opts.max_queue.unwrap_or(0);
    for req in shed {
        let index = outcomes.len();
        let trace_id = req.trace_id(index);
        outcomes.push(JobOutcome {
            id: req.id,
            index,
            label: req.label(),
            result: Err(ReproError::Overloaded { queued, limit }),
            wall_secs: 0.0,
            worker: 0,
            deadline_fired: false,
            trace_id,
            spans: None,
        });
    }
    BatchResult {
        outcomes,
        retried: batch_retried,
        healed,
    }
}

/// Run the NDJSON protocol over any line source and sink — the whole serve
/// loop, parameterized over I/O so tests drive it with in-memory buffers
/// and both stdin and socket modes share it.
pub fn serve_lines(
    exec: &Executor,
    opts: &ServeOptions,
    mut input: impl BufRead,
    out: impl Write,
) -> std::io::Result<ServeSummary> {
    // Every response helper ends in `flush`, so a response reaches the
    // sink as one write (one TCP segment, not one per `writeln!` piece)
    // and the buffer is empty whenever this function returns.
    let mut out = BufWriter::new(out);
    let mut summary = ServeSummary::default();
    let mut pending: Vec<JobRequest> = Vec::new();
    let flush = |pending: &mut Vec<JobRequest>,
                 summary: &mut ServeSummary,
                 out: &mut dyn Write|
     -> std::io::Result<bool> {
        if pending.is_empty() {
            return Ok(false);
        }
        summary.batches += 1;
        let reqs = std::mem::take(pending);
        let started = Instant::now();
        let batch = run_batch(exec, opts, reqs, summary);
        let wall = started.elapsed().as_secs_f64();
        summary.jobs += batch.outcomes.len() as u64;
        summary.ok += batch.outcomes.iter().filter(|o| o.is_ok()).count() as u64;
        summary.failed += batch.outcomes.iter().filter(|o| !o.is_ok()).count() as u64;
        summary.deadline_fired += batch.outcomes.iter().filter(|o| o.deadline_fired).count() as u64;
        write_batch(out, summary.batches, &batch, wall)?;
        Ok(true)
    };
    let mut buf = Vec::new();
    loop {
        let oversize = match read_raw_line(&mut input, &mut buf)? {
            RawLine::Eof => break,
            RawLine::TooLong(n) => Some(n),
            RawLine::Line => inject_line_faults(&mut buf),
        };
        if let Some(n) = oversize {
            summary.rejected += 1;
            write_reject(
                &mut out,
                &format!("line exceeds {MAX_LINE_BYTES} bytes ({n} received); discarded"),
            )?;
            continue;
        }
        let line = match std::str::from_utf8(&buf) {
            Ok(s) => s.trim(),
            Err(e) => {
                summary.rejected += 1;
                write_reject(
                    &mut out,
                    &format!("invalid UTF-8 at byte {} of line", e.valid_up_to()),
                )?;
                continue;
            }
        };
        if line.is_empty() {
            if flush(&mut pending, &mut summary, &mut out)? && opts.once {
                return Ok(summary);
            }
            continue;
        }
        match Json::parse(line) {
            Ok(Json::Array(items)) => {
                for item in &items {
                    match parse_request(item, opts) {
                        Ok(req) => pending.push(req),
                        Err(e) => {
                            summary.rejected += 1;
                            write_reject(&mut out, &e)?;
                        }
                    }
                }
                if flush(&mut pending, &mut summary, &mut out)? && opts.once {
                    return Ok(summary);
                }
            }
            Ok(obj @ Json::Object(_)) => {
                // Any object carrying a `cmd` key is a command, never a
                // job — an unknown cmd gets a typed reject instead of a
                // confusing "job needs bench or source" parse error.
                if let Some(cmd) = obj.get("cmd").and_then(Json::as_str) {
                    match cmd {
                        "drain" => {
                            // Graceful drain: the executor stops starting
                            // new work first, so everything still pending
                            // completes with a typed Draining rejection —
                            // then we ack and exit. (The cache's disk tier
                            // is write-through; nothing needs flushing.)
                            repro_obs::event("drain", "drain requested; session ending");
                            exec.drain();
                            summary.drained = true;
                            flush(&mut pending, &mut summary, &mut out)?;
                            let ack = Json::obj(vec![
                                ("ok", Json::Bool(true)),
                                ("cmd", "drain".to_json()),
                                ("batches", summary.batches.to_json()),
                                ("jobs", summary.jobs.to_json()),
                            ]);
                            writeln!(out, "{}", ack.to_compact())?;
                            out.flush()?;
                            return Ok(summary);
                        }
                        "stats" => write_stats(&mut out, exec)?,
                        "health" => write_health(&mut out, exec, &summary)?,
                        "events" => write_events(&mut out)?,
                        other => {
                            summary.rejected += 1;
                            write_reject(
                                &mut out,
                                &format!(
                                    "unknown cmd `{other}` \
                                     (expected drain, stats, health, or events)"
                                ),
                            )?;
                        }
                    }
                    continue;
                }
                match parse_request(&obj, opts) {
                    Ok(req) => pending.push(req),
                    Err(e) => {
                        summary.rejected += 1;
                        write_reject(&mut out, &e)?;
                    }
                }
            }
            Ok(_) => {
                summary.rejected += 1;
                write_reject(&mut out, "request line must be a JSON object or array")?;
            }
            Err(e) => {
                summary.rejected += 1;
                write_reject(&mut out, &format!("bad JSON: {e}"))?;
            }
        }
    }
    flush(&mut pending, &mut summary, &mut out)?;
    Ok(summary)
}

/// Serve the NDJSON protocol on a listening TCP socket. Connections are
/// handled one at a time — the parallelism lives in the worker pool, not
/// in connection handling — and each connection runs the same protocol
/// loop as stdin mode. With `once`, returns after the first connection.
pub fn serve_socket(
    exec: &Executor,
    opts: &ServeOptions,
    addr: &str,
) -> std::io::Result<ServeSummary> {
    let listener = TcpListener::bind(addr)?;
    let mut total = ServeSummary::default();
    for conn in listener.incoming() {
        let conn = conn?;
        conn.set_nodelay(true)?;
        let reader = BufReader::new(conn.try_clone()?);
        let s = serve_lines(exec, opts, reader, conn)?;
        total.batches += s.batches;
        total.jobs += s.jobs;
        total.ok += s.ok;
        total.failed += s.failed;
        total.rejected += s.rejected;
        total.shed += s.shed;
        total.retried += s.retried;
        total.healed += s.healed;
        total.deadline_fired += s.deadline_fired;
        total.drained |= s.drained;
        if opts.once || s.drained {
            break;
        }
    }
    Ok(total)
}

/// The 56-job suite batch: every benchmark on the Vortex flow at two
/// middle-end levels (the workload `tests/serve_batch.rs` pins bit-identical
/// between a 4-worker pool and the sequential one-shot path).
pub fn serve_bench_requests() -> Vec<JobRequest> {
    all_benchmarks()
        .iter()
        .flat_map(|b| {
            [OptLevel::VariableReuse, OptLevel::Loop]
                .into_iter()
                .map(|level| {
                    let mut req = JobRequest::bench(b.name, Flow::Vortex);
                    req.opt = Some(level);
                    req
                })
        })
        .enumerate()
        .map(|(i, mut req)| {
            req.id = i as u64;
            req
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_sched::ExecConfig;

    fn exec(workers: usize) -> Executor {
        Executor::new(ExecConfig::with_workers(workers))
    }

    fn lines(out: &[u8]) -> Vec<Json> {
        std::str::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).expect("every response line is valid JSON"))
            .collect()
    }

    #[test]
    fn object_lines_batch_on_blank_line() {
        let input = "{\"id\": 1, \"bench\": \"Vecadd\"}\n{\"id\": 2, \"bench\": \"Saxpy\"}\n\n";
        let mut out = Vec::new();
        let e = exec(2);
        let s = serve_lines(&e, &ServeOptions::default(), input.as_bytes(), &mut out).unwrap();
        assert_eq!(
            (s.batches, s.jobs, s.ok, s.failed, s.rejected),
            (1, 2, 2, 0, 0)
        );
        let resp = lines(&out);
        assert_eq!(resp.len(), 3, "two outcome lines plus a summary");
        assert_eq!(resp[0].get("id").unwrap().as_u64(), Some(1));
        assert_eq!(resp[0].get("ok").unwrap().as_bool(), Some(true));
        assert!(resp[0].get("cycles").unwrap().as_u64().unwrap() > 0);
        assert_eq!(resp[1].get("id").unwrap().as_u64(), Some(2));
        let summary = &resp[2];
        assert_eq!(summary.get("jobs").unwrap().as_u64(), Some(2));
        assert_eq!(summary.get("ok").unwrap().as_u64(), Some(2));
        assert!(summary.get("jobs_per_sec").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn array_line_is_a_whole_batch_and_eof_flushes_pending() {
        let input = "[{\"bench\": \"Vecadd\"}, {\"bench\": \"Sfilter\", \"flow\": \"interp\"}]\n\
                     {\"bench\": \"Saxpy\"}\n";
        let mut out = Vec::new();
        let e = exec(2);
        let s = serve_lines(&e, &ServeOptions::default(), input.as_bytes(), &mut out).unwrap();
        assert_eq!((s.batches, s.jobs, s.ok), (2, 3, 3));
        let resp = lines(&out);
        // 2 outcomes + summary, then 1 outcome + summary.
        assert_eq!(resp.len(), 5);
        assert_eq!(resp[2].get("batch").unwrap().as_u64(), Some(1));
        assert_eq!(resp[4].get("batch").unwrap().as_u64(), Some(2));
        assert_eq!(resp[4].get("jobs").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn bad_lines_are_rejected_without_killing_the_service() {
        let input = "not json at all\n\
                     {\"flow\": \"vortex\"}\n\
                     42\n\
                     {\"bench\": \"Vecadd\"}\n\n";
        let mut out = Vec::new();
        let e = exec(1);
        let s = serve_lines(&e, &ServeOptions::default(), input.as_bytes(), &mut out).unwrap();
        assert_eq!((s.rejected, s.jobs, s.ok), (3, 1, 1));
        let resp = lines(&out);
        assert_eq!(resp.len(), 5, "three rejects, one outcome, one summary");
        for r in &resp[..3] {
            assert_eq!(r.get("ok").unwrap().as_bool(), Some(false));
            let err = r.get("error").unwrap();
            assert_eq!(err.get("kind").unwrap().as_str(), Some("Protocol"));
        }
        assert_eq!(resp[3].get("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn failures_are_fail_soft_response_lines() {
        let input =
            "[{\"id\": 9, \"bench\": \"NoSuchBench\"}, {\"id\": 10, \"bench\": \"Vecadd\"}]\n";
        let mut out = Vec::new();
        let e = exec(2);
        let s = serve_lines(&e, &ServeOptions::default(), input.as_bytes(), &mut out).unwrap();
        assert_eq!((s.jobs, s.ok, s.failed), (2, 1, 1));
        let resp = lines(&out);
        assert_eq!(resp[0].get("ok").unwrap().as_bool(), Some(false));
        let err = resp[0].get("error").unwrap();
        assert_eq!(err.get("class").unwrap().as_str(), Some("Harness"));
        assert_eq!(resp[1].get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(resp[2].get("failed").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn oversized_inline_buffer_is_a_typed_memory_failure_on_the_wire() {
        let job = |id: u32, flow: &str| {
            format!(
                "{{\"id\": {id}, \"flow\": \"{flow}\", \"kernel\": \"k\", \
                 \"source\": \"__kernel void k(__global int* o) {{ o[0] = 1; }}\", \
                 \"nd\": {{\"gx\": 1, \"lx\": 1}}, \"buffers\": [1073741825], \
                 \"args\": [{{\"buf\": 0}}]}}"
            )
        };
        let input = format!("[{}, {}]\n", job(1, "vortex"), job(2, "interp"));
        let mut out = Vec::new();
        let e = exec(2);
        let s = serve_lines(&e, &ServeOptions::default(), input.as_bytes(), &mut out).unwrap();
        assert_eq!((s.jobs, s.ok, s.failed), (2, 0, 2));
        for r in &lines(&out)[..2] {
            let err = r.get("error").unwrap();
            assert_eq!(err.get("kind").unwrap().as_str(), Some("OutOfMemory"));
            assert_eq!(err.get("class").unwrap().as_str(), Some("Memory"));
        }
    }

    #[test]
    fn once_mode_returns_after_the_first_batch() {
        let input = "{\"bench\": \"Vecadd\"}\n\n{\"bench\": \"Saxpy\"}\n\n";
        let mut out = Vec::new();
        let e = exec(1);
        let opts = ServeOptions {
            once: true,
            ..ServeOptions::default()
        };
        let s = serve_lines(&e, &opts, input.as_bytes(), &mut out).unwrap();
        assert_eq!((s.batches, s.jobs), (1, 1), "second batch never ran");
    }

    /// A job that fails transiently on every attempt is retried
    /// `retry_max` times; past attempt 63 the doubling backoff saturates
    /// instead of overflowing.
    #[test]
    fn retry_backoff_saturates_past_64_attempts() {
        // `deadline_ms: 0` expires in the queue: a typed, transient failure
        // on every attempt, without arming the process-global fault plan
        // under other tests' jobs.
        let input = "{\"id\": 1, \"bench\": \"Vecadd\", \"deadline_ms\": 0}\n\n";
        let opts = ServeOptions {
            retry_max: 65,
            retry_backoff_ms: 0,
            ..ServeOptions::default()
        };
        let mut out = Vec::new();
        let s = serve_lines(&exec(1), &opts, input.as_bytes(), &mut out).unwrap();
        assert_eq!((s.jobs, s.failed, s.retried), (1, 1, 65));
        let err = lines(&out)[0].get("error").cloned().unwrap();
        assert_eq!(err.get("kind").unwrap().as_str(), Some("DeadlineExceeded"));
    }

    #[test]
    fn default_deadline_applies_only_to_jobs_without_one() {
        let opts = ServeOptions {
            deadline_ms: Some(30_000),
            ..ServeOptions::default()
        };
        let j = Json::parse(r#"{"bench": "Vecadd"}"#).unwrap();
        assert_eq!(parse_request(&j, &opts).unwrap().deadline_ms, Some(30_000));
        let j = Json::parse(r#"{"bench": "Vecadd", "deadline_ms": 5}"#).unwrap();
        assert_eq!(parse_request(&j, &opts).unwrap().deadline_ms, Some(5));
    }

    #[test]
    fn socket_mode_speaks_the_same_protocol() {
        use std::io::Read;
        let listener_addr = {
            // Pick a free port by binding to 0 and immediately reusing it.
            let probe = TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap()
        };
        let addr = listener_addr.to_string();
        let server_addr = addr.clone();
        let server = std::thread::spawn(move || {
            let e = exec(2);
            let opts = ServeOptions {
                once: true,
                ..ServeOptions::default()
            };
            serve_socket(&e, &opts, &server_addr).unwrap()
        });
        // Connect with retry while the listener comes up.
        let mut conn = None;
        for _ in 0..200 {
            match std::net::TcpStream::connect(&addr) {
                Ok(c) => {
                    conn = Some(c);
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(5)),
            }
        }
        let mut conn = conn.expect("server listening");
        conn.write_all(b"[{\"id\": 4, \"bench\": \"Vecadd\"}]\n")
            .unwrap();
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut body = String::new();
        conn.read_to_string(&mut body).unwrap();
        let s = server.join().unwrap();
        assert_eq!((s.batches, s.jobs, s.ok), (1, 1, 1));
        let resp: Vec<Json> = body.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(resp.len(), 2);
        assert_eq!(resp[0].get("id").unwrap().as_u64(), Some(4));
        assert_eq!(resp[0].get("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn each_flushed_response_is_a_single_write() {
        /// Counts calls the way a socket would see them.
        #[derive(Default)]
        struct Counting {
            writes: usize,
            flushes: usize,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                self.flushes += 1;
                Ok(())
            }
        }
        let input = "not json\n[{\"bench\": \"Vecadd\"}, {\"bench\": \"Saxpy\"}]\n\
                     {\"cmd\": \"health\"}\n";
        let mut sink = Counting::default();
        let e = exec(1);
        let s = serve_lines(&e, &ServeOptions::default(), input.as_bytes(), &mut sink).unwrap();
        assert_eq!((s.rejected, s.jobs), (1, 2));
        assert_eq!(
            sink.flushes, 3,
            "reject, batch (2 outcomes + summary), health"
        );
        assert_eq!(sink.writes, sink.flushes, "one write per flushed response");
    }

    #[test]
    fn invalid_utf8_and_oversize_lines_get_typed_rejects() {
        let mut input: Vec<u8> = Vec::new();
        input.extend_from_slice(b"{\"bench\": \"Vec\xffadd\"}\n");
        input.extend_from_slice(b"[");
        input.resize(input.len() + MAX_LINE_BYTES + 8, b' ');
        input.extend_from_slice(b"]\n");
        input.extend_from_slice(b"{\"bench\": \"Vecadd\"}\n\n");
        let mut out = Vec::new();
        let e = exec(1);
        let s = serve_lines(&e, &ServeOptions::default(), &input[..], &mut out).unwrap();
        assert_eq!((s.rejected, s.jobs, s.ok), (2, 1, 1));
        let resp = lines(&out);
        assert_eq!(resp.len(), 4, "two rejects, one outcome, one summary");
        let detail = |r: &Json| {
            r.get("error")
                .unwrap()
                .get("detail")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string()
        };
        assert!(detail(&resp[0]).contains("invalid UTF-8"));
        assert!(detail(&resp[1]).contains("exceeds"));
        assert_eq!(resp[2].get("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn line_reader_bounds_memory_and_strips_newlines() {
        let mut input: Vec<u8> = b"short\n".to_vec();
        input.resize(input.len() + 2 * MAX_LINE_BYTES, b'x');
        input.extend_from_slice(b"\ntail");
        let mut cursor = &input[..];
        let mut buf = Vec::new();
        assert!(matches!(
            read_raw_line(&mut cursor, &mut buf).unwrap(),
            RawLine::Line
        ));
        assert_eq!(buf, b"short");
        match read_raw_line(&mut cursor, &mut buf).unwrap() {
            RawLine::TooLong(n) => assert_eq!(n, 2 * MAX_LINE_BYTES),
            _ => panic!("oversized line must be reported"),
        }
        assert!(
            buf.capacity() <= 2 * MAX_LINE_BYTES,
            "over-long input must stream past, not accumulate"
        );
        assert!(matches!(
            read_raw_line(&mut cursor, &mut buf).unwrap(),
            RawLine::Line
        ));
        assert_eq!(buf, b"tail", "final unterminated line still delivered");
        assert!(matches!(
            read_raw_line(&mut cursor, &mut buf).unwrap(),
            RawLine::Eof
        ));
    }

    #[test]
    fn admission_control_sheds_the_tail_typed() {
        let input = "[{\"id\": 1, \"bench\": \"Vecadd\"}, {\"id\": 2, \"bench\": \"Saxpy\"}, \
                     {\"id\": 3, \"bench\": \"Sgemm\"}]\n";
        let mut out = Vec::new();
        let e = exec(1);
        let opts = ServeOptions {
            max_queue: Some(1),
            ..ServeOptions::default()
        };
        let s = serve_lines(&e, &opts, input.as_bytes(), &mut out).unwrap();
        assert_eq!((s.jobs, s.ok, s.failed, s.shed), (3, 1, 2, 2));
        let resp = lines(&out);
        assert_eq!(resp.len(), 4);
        assert_eq!(resp[0].get("id").unwrap().as_u64(), Some(1));
        assert_eq!(resp[0].get("ok").unwrap().as_bool(), Some(true));
        for r in &resp[1..3] {
            assert_eq!(r.get("ok").unwrap().as_bool(), Some(false));
            let err = r.get("error").unwrap();
            assert_eq!(err.get("kind").unwrap().as_str(), Some("Overloaded"));
        }
        assert_eq!(resp[1].get("id").unwrap().as_u64(), Some(2));
        assert_eq!(resp[2].get("id").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn drain_command_rejects_pending_jobs_and_acks() {
        let input = "{\"id\": 7, \"bench\": \"Vecadd\"}\n{\"cmd\": \"drain\"}\n\
                     {\"bench\": \"Saxpy\"}\n";
        let mut out = Vec::new();
        let e = exec(1);
        let s = serve_lines(&e, &ServeOptions::default(), input.as_bytes(), &mut out).unwrap();
        assert!(s.drained);
        assert_eq!(
            (s.jobs, s.ok, s.failed),
            (1, 0, 1),
            "pending job gets a typed rejection; post-drain line never read"
        );
        let resp = lines(&out);
        assert_eq!(resp.len(), 3, "rejection line, batch summary, drain ack");
        assert_eq!(resp[0].get("id").unwrap().as_u64(), Some(7));
        let err = resp[0].get("error").unwrap();
        assert_eq!(err.get("kind").unwrap().as_str(), Some("Draining"));
        assert_eq!(resp[2].get("cmd").unwrap().as_str(), Some("drain"));
        assert_eq!(resp[2].get("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn introspection_commands_answer_inline_without_batching() {
        let input = "{\"cmd\": \"health\"}\n{\"bench\": \"Vecadd\"}\n\n\
                     {\"cmd\": \"stats\"}\n{\"cmd\": \"events\"}\n\
                     {\"cmd\": \"bogus\"}\n";
        let mut out = Vec::new();
        let e = exec(2);
        let s = serve_lines(&e, &ServeOptions::default(), input.as_bytes(), &mut out).unwrap();
        assert_eq!((s.batches, s.jobs, s.ok, s.rejected), (1, 1, 1, 1));
        let resp = lines(&out);
        assert_eq!(
            resp.len(),
            6,
            "health, outcome, summary, stats, events, reject"
        );
        let health = &resp[0];
        assert_eq!(health.get("cmd").unwrap().as_str(), Some("health"));
        assert_eq!(health.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(health.get("workers").unwrap().as_u64(), Some(2));
        assert_eq!(health.get("draining").unwrap().as_bool(), Some(false));
        assert!(health.get("cache_degraded").is_some());
        // The batch summary now carries the hardening counters.
        let summary = &resp[2];
        assert_eq!(summary.get("deadline_fired").unwrap().as_u64(), Some(0));
        assert_eq!(summary.get("retried").unwrap().as_u64(), Some(0));
        assert_eq!(summary.get("healed").unwrap().as_u64(), Some(0));
        let stats = &resp[3];
        assert_eq!(stats.get("cmd").unwrap().as_str(), Some("stats"));
        assert_eq!(stats.get("ok").unwrap().as_bool(), Some(true));
        assert!(stats.get("jobs_per_sec").unwrap().as_f64().is_some());
        assert!(stats.get("window").is_some(), "raw snapshot rides along");
        let events = &resp[4];
        assert_eq!(events.get("cmd").unwrap().as_str(), Some("events"));
        assert!(events.get("events").unwrap().as_array().is_some());
        let reject = &resp[5];
        assert_eq!(reject.get("ok").unwrap().as_bool(), Some(false));
        let detail = reject
            .get("error")
            .unwrap()
            .get("detail")
            .unwrap()
            .as_str()
            .unwrap();
        assert!(detail.contains("unknown cmd `bogus`"), "{detail}");
    }
}
