//! The job model: what one unit of scheduled work *is*.
//!
//! A [`JobRequest`] is pure declarative data — which kernel to run (a suite
//! benchmark by name, or inline kernel source with an explicit launch), on
//! which flow, at which optimization level, on what simulated machine, and
//! under which watchdog budgets and wall-clock deadline. Requests have a
//! canonical JSON form ([`JobRequest::parse`] / [`JobRequest::to_json`])
//! because they are also the wire format of `repro serve`'s
//! newline-delimited batch protocol.
//!
//! A [`Job`] pairs a request with the closure that executes it. The
//! pairing lives one crate *above* this one (`ocl-suite::jobs`) so the
//! executor stays free of any dependency on the benchmark suite; down
//! here a job is just "data plus a function that turns it into a
//! [`JobStats`] or a classified [`ReproError`]".

use ocl_ir::passes::OptLevel;
use repro_util::diag::{FailureClass, ReproError};
use repro_util::span::SpanNode;
use repro_util::{Json, ToJson};

/// Default watchdog budgets for scheduled jobs — the PR 4 `repro check`
/// ceilings: generous enough to never trip on a healthy `Scale::Test`
/// kernel, tight enough to bound a runaway one to seconds. Every job runs
/// under *some* budget; a hung job dies typed, never silently.
pub const DEFAULT_MAX_CYCLES: u64 = 20_000_000;
pub const DEFAULT_MAX_INSTRUCTIONS: u64 = 200_000_000;

/// Which back end executes the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Reference IR interpreter (no cycle model).
    Interp,
    /// Vortex soft-GPU flow: codegen + cycle-level simulation.
    Vortex,
    /// HLS flow: synthesis gate + pipelined execution model.
    Hls,
}

impl Flow {
    pub fn name(self) -> &'static str {
        match self {
            Flow::Interp => "interp",
            Flow::Vortex => "vortex",
            Flow::Hls => "hls",
        }
    }

    /// Span name of a job on this flow (static so the disarmed
    /// observability path never allocates).
    pub fn span_name(self) -> &'static str {
        match self {
            Flow::Interp => "flow.interp",
            Flow::Vortex => "flow.vortex",
            Flow::Hls => "flow.hls",
        }
    }

    pub fn parse(s: &str) -> Option<Flow> {
        match s {
            "interp" => Some(Flow::Interp),
            "vortex" => Some(Flow::Vortex),
            "hls" => Some(Flow::Hls),
            _ => None,
        }
    }
}

/// Launch geometry for inline-source jobs (`gy`/`ly` of 1 = 1-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NdSpec {
    pub gx: u32,
    pub gy: u32,
    pub lx: u32,
    pub ly: u32,
}

/// One kernel argument: a buffer by index into the job's buffer list, or an
/// immediate scalar. Suite workloads use the same enum (`ocl_suite::LArg`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgSpec {
    Buf(usize),
    I32(i32),
    U32(u32),
    F32(f32),
}

/// What to execute.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A suite benchmark by Table I name, with its workload and result
    /// verification. `paper_scale` selects `Scale::Paper` problem sizes.
    Bench { name: String, paper_scale: bool },
    /// Inline kernel source with an explicit launch: `buffers` gives the
    /// word-length of each zero-initialized device buffer; no result
    /// verification beyond the run itself. This is how adversarial /
    /// user-supplied kernels enter the service. Only `kernel`'s body is
    /// parsed and compiled: an error inside another kernel's body does
    /// not fail the job, though every kernel's signature must parse.
    Source {
        source: String,
        kernel: String,
        nd: NdSpec,
        buffers: Vec<u32>,
        args: Vec<ArgSpec>,
    },
}

/// One schedulable unit of work, as data. See the module docs for the
/// JSON wire form.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Client-chosen id, echoed back in the outcome (0 if unset).
    pub id: u64,
    pub payload: Payload,
    pub flow: Flow,
    /// Middle-end level; `None` = the suite default.
    pub opt: Option<OptLevel>,
    /// Simulated machine: cores / warps / threads.
    pub cores: u32,
    pub warps: u32,
    pub threads: u32,
    /// Accepted and ignored: a simulator instance runs on the thread of
    /// the job that owns it, whatever this says. It stays in the wire form
    /// (and so in every trace id) until `benchmark/` stops setting it.
    pub sim_threads: u32,
    /// Watchdog budgets; `None` = [`DEFAULT_MAX_CYCLES`] /
    /// [`DEFAULT_MAX_INSTRUCTIONS`].
    pub max_cycles: Option<u64>,
    pub max_instructions: Option<u64>,
    /// Host-side wall-clock deadline. `None` = no deadline (the watchdog
    /// budgets still bound the job). Deadlines make outcomes wall-clock
    /// dependent, so batch runs that must be bit-reproducible leave this
    /// unset.
    pub deadline_ms: Option<u64>,
    /// Force the dense reference simulator loop (differential timing).
    pub reference: bool,
}

impl JobRequest {
    /// A benchmark job on `flow` with every knob at its default.
    pub fn bench(name: &str, flow: Flow) -> JobRequest {
        JobRequest {
            id: 0,
            payload: Payload::Bench {
                name: name.to_string(),
                paper_scale: false,
            },
            flow,
            opt: None,
            cores: 2,
            warps: 4,
            threads: 16,
            sim_threads: 1,
            max_cycles: None,
            max_instructions: None,
            deadline_ms: None,
            reference: false,
        }
    }

    /// Stable human-readable label: `Vecadd/vortex@reuse`.
    pub fn label(&self) -> String {
        let what = match &self.payload {
            Payload::Bench { name, .. } => name.clone(),
            Payload::Source { kernel, .. } => format!("<inline:{kernel}>"),
        };
        match self.opt {
            Some(l) => format!("{what}/{}@{}", self.flow.name(), l.flag_name()),
            None => format!("{what}/{}", self.flow.name()),
        }
    }

    /// The job's correlation id in slot `index` of its batch: a hash of
    /// the compact wire form (see [`repro_obs::trace_id`]).
    pub fn trace_id(&self, index: usize) -> u64 {
        repro_obs::trace_id_of(&self.to_json(), index)
    }

    /// Parse the wire form. Unknown fields are ignored (forward compat);
    /// a missing or malformed required field is a `String` error naming it.
    pub fn parse(j: &Json) -> Result<JobRequest, String> {
        let str_field = |k: &str| j.get(k).and_then(|v| v.as_str()).map(str::to_string);
        let u64_field = |k: &str| j.get(k).and_then(|v| v.as_u64());
        let u32_field = |k: &str| j.get(k).map(|v| wire_u32(v, k)).transpose();
        let flow = match str_field("flow") {
            None => Flow::Vortex,
            Some(s) => Flow::parse(&s).ok_or_else(|| format!("unknown flow `{s}`"))?,
        };
        let opt = match str_field("opt") {
            None => None,
            Some(s) => Some(OptLevel::parse(&s).ok_or_else(|| format!("unknown opt `{s}`"))?),
        };
        let payload = if let Some(name) = str_field("bench") {
            let paper_scale = match str_field("scale").as_deref() {
                None | Some("test") => false,
                Some("paper") => true,
                Some(s) => return Err(format!("unknown scale `{s}`")),
            };
            Payload::Bench { name, paper_scale }
        } else if let Some(source) = str_field("source") {
            let kernel = str_field("kernel").ok_or("inline job missing `kernel`")?;
            let nd = j.get("nd").ok_or("inline job missing `nd`")?;
            let dim = |k: &str, default: u32| {
                nd.get(k)
                    .map_or(Ok(default), |v| wire_u32(v, &format!("nd.{k}")))
            };
            let nd = NdSpec {
                gx: dim("gx", 1)?,
                gy: dim("gy", 1)?,
                lx: dim("lx", 1)?,
                ly: dim("ly", 1)?,
            };
            let buffers = match j.get("buffers") {
                None => Vec::new(),
                Some(v) => v
                    .as_array()
                    .ok_or("`buffers` must be an array of word counts")?
                    .iter()
                    .enumerate()
                    .map(|(i, b)| wire_u32(b, &format!("buffers[{i}]")))
                    .collect::<Result<_, _>>()?,
            };
            let args = match j.get("args") {
                None => Vec::new(),
                Some(v) => v
                    .as_array()
                    .ok_or("`args` must be an array")?
                    .iter()
                    .enumerate()
                    .map(|(i, a)| parse_arg(i, a))
                    .collect::<Result<_, _>>()?,
            };
            Payload::Source {
                source,
                kernel,
                nd,
                buffers,
                args,
            }
        } else {
            return Err("job needs either `bench` or `source`".to_string());
        };
        Ok(JobRequest {
            id: u64_field("id").unwrap_or(0),
            payload,
            flow,
            opt,
            cores: u32_field("cores")?.unwrap_or(2),
            warps: u32_field("warps")?.unwrap_or(4),
            threads: u32_field("threads")?.unwrap_or(16),
            sim_threads: u32_field("sim_threads")?.unwrap_or(1).max(1),
            max_cycles: u64_field("max_cycles"),
            max_instructions: u64_field("max_instructions"),
            deadline_ms: u64_field("deadline_ms"),
            reference: j
                .get("reference")
                .and_then(|v| v.as_bool())
                .unwrap_or(false),
        })
    }
}

/// Argument `i` of an inline job: exactly one of `buf`, `i32`, `u32` or
/// `f32`, whose integer value must fit its type.
fn parse_arg(i: usize, j: &Json) -> Result<ArgSpec, String> {
    let field = |k: &str| j.get(k).map(|v| (v, format!("args[{i}].{k}")));
    if let Some((v, name)) = field("buf") {
        return Ok(ArgSpec::Buf(wire_u32(v, &name)? as usize));
    }
    if let Some((v, name)) = field("i32") {
        let int = match *v {
            Json::Int(x) => i32::try_from(x).ok(),
            Json::UInt(x) => i32::try_from(x).ok(),
            _ => None,
        };
        return int
            .map(ArgSpec::I32)
            .ok_or_else(|| format!("`{name}` must be an integer in {}..={}", i32::MIN, i32::MAX));
    }
    if let Some((v, name)) = field("u32") {
        return Ok(ArgSpec::U32(wire_u32(v, &name)?));
    }
    if let Some(v) = j.get("f32").and_then(|v| v.as_f64()) {
        return Ok(ArgSpec::F32(v as f32));
    }
    Err("arg must be one of {buf, i32, u32, f32}".to_string())
}

/// A wire integer that must fit a `u32`; out of range, negative or not an
/// integer is an error naming `field`, never a truncation.
fn wire_u32(v: &Json, field: &str) -> Result<u32, String> {
    v.as_u64()
        .and_then(|v| u32::try_from(v).ok())
        .ok_or_else(|| format!("`{field}` must be an integer in 0..={}", u32::MAX))
}

impl ToJson for JobRequest {
    fn to_json(&self) -> Json {
        let mut fields: Vec<(&str, Json)> = vec![("id", self.id.to_json())];
        match &self.payload {
            Payload::Bench { name, paper_scale } => {
                fields.push(("bench", name.to_json()));
                fields.push((
                    "scale",
                    if *paper_scale { "paper" } else { "test" }.to_json(),
                ));
            }
            Payload::Source {
                source,
                kernel,
                nd,
                buffers,
                args,
            } => {
                fields.push(("source", source.to_json()));
                fields.push(("kernel", kernel.to_json()));
                fields.push((
                    "nd",
                    Json::obj(vec![
                        ("gx", nd.gx.to_json()),
                        ("gy", nd.gy.to_json()),
                        ("lx", nd.lx.to_json()),
                        ("ly", nd.ly.to_json()),
                    ]),
                ));
                fields.push((
                    "buffers",
                    Json::Array(buffers.iter().map(|b| b.to_json()).collect()),
                ));
                fields.push((
                    "args",
                    Json::Array(
                        args.iter()
                            .map(|a| match a {
                                ArgSpec::Buf(i) => Json::obj(vec![("buf", (*i as u64).to_json())]),
                                ArgSpec::I32(v) => Json::obj(vec![("i32", (*v as i64).to_json())]),
                                ArgSpec::U32(v) => Json::obj(vec![("u32", v.to_json())]),
                                ArgSpec::F32(v) => Json::obj(vec![("f32", v.to_json())]),
                            })
                            .collect(),
                    ),
                ));
            }
        }
        fields.push(("flow", self.flow.name().to_json()));
        if let Some(l) = self.opt {
            fields.push(("opt", l.flag_name().to_json()));
        }
        fields.push(("cores", self.cores.to_json()));
        fields.push(("warps", self.warps.to_json()));
        fields.push(("threads", self.threads.to_json()));
        fields.push(("sim_threads", self.sim_threads.to_json()));
        if let Some(v) = self.max_cycles {
            fields.push(("max_cycles", v.to_json()));
        }
        if let Some(v) = self.max_instructions {
            fields.push(("max_instructions", v.to_json()));
        }
        if let Some(v) = self.deadline_ms {
            fields.push(("deadline_ms", v.to_json()));
        }
        if self.reference {
            fields.push(("reference", Json::Bool(true)));
        }
        Json::obj(fields)
    }
}

/// What a finished job measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobStats {
    /// Simulated (Vortex) or modeled (HLS) kernel cycles; 0 on the
    /// reference interpreter, which has no cycle model.
    pub cycles: u64,
    /// Dynamic instructions (simulator retires or interpreter steps).
    pub instructions: u64,
}

/// Everything the scheduler knows about one finished job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Client id echoed from the request.
    pub id: u64,
    /// Position in the submitted batch (outcomes come back in this order).
    pub index: usize,
    pub label: String,
    pub result: Result<JobStats, ReproError>,
    /// Execution wall-clock, measured around the isolation boundary on the
    /// worker (queue wait excluded).
    pub wall_secs: f64,
    /// Worker that executed the job.
    pub worker: usize,
    /// True when the deadline watcher fired before the job finished; the
    /// result is then the typed `DeadlineExceeded` error.
    pub deadline_fired: bool,
    /// Deterministic correlation id: a pure hash of the request's
    /// canonical wire form and its batch position
    /// ([`repro_obs::trace_id`]), so the same plan reruns to the same ids.
    pub trace_id: u64,
    /// Host-time span tree recorded while executing this job; present only
    /// when spans are armed (a live `repro serve`), never in batch
    /// mode.
    pub spans: Option<SpanNode>,
}

impl JobOutcome {
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }

    /// Failure classification, if the job failed.
    pub fn class(&self) -> Option<FailureClass> {
        self.result.as_ref().err().map(|e| e.class())
    }

    pub fn stats(&self) -> Option<JobStats> {
        self.result.as_ref().ok().copied()
    }
}

impl ToJson for JobOutcome {
    /// The serve response line for this job.
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id", self.id.to_json()),
            ("label", self.label.to_json()),
            ("ok", Json::Bool(self.result.is_ok())),
        ];
        match &self.result {
            Ok(stats) => {
                fields.push(("cycles", stats.cycles.to_json()));
                fields.push(("instructions", stats.instructions.to_json()));
            }
            Err(e) => {
                fields.push(("error", e.to_json()));
            }
        }
        fields.push(("wall_secs", self.wall_secs.to_json()));
        fields.push(("worker", (self.worker as u64).to_json()));
        if self.deadline_fired {
            fields.push(("deadline_fired", Json::Bool(true)));
        }
        fields.push(("trace_id", repro_obs::trace_id_hex(self.trace_id).to_json()));
        if let Some(spans) = &self.spans {
            fields.push(("spans", spans.to_json()));
        }
        Json::obj(fields)
    }
}

/// Cooperative cancellation handle passed to every job closure. Long
/// host-side loops should poll [`JobCtx::cancelled`]; simulator-bound jobs
/// can ignore it — their watchdog budgets already bound them.
pub struct JobCtx {
    pub(crate) cancelled: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl JobCtx {
    /// A context that never cancels — for executing a job closure outside
    /// the executor (the sequential one-shot reference path).
    pub fn unbounded() -> JobCtx {
        JobCtx {
            cancelled: std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false)),
        }
    }

    /// True once the deadline watcher has given up on this job.
    pub fn cancelled(&self) -> bool {
        self.cancelled.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// The boxed form of a job's execution closure.
type JobFn = Box<dyn FnOnce(&JobRequest, &JobCtx) -> Result<JobStats, ReproError> + Send>;

/// A request bound to the closure that executes it.
pub struct Job {
    pub req: JobRequest,
    run: JobFn,
}

impl Job {
    pub fn new(
        req: JobRequest,
        run: impl FnOnce(&JobRequest, &JobCtx) -> Result<JobStats, ReproError> + Send + 'static,
    ) -> Job {
        Job {
            req,
            run: Box::new(run),
        }
    }

    /// Execute, consuming the job. Public so callers can run a job inline
    /// (sequentially) with the exact closure the executor would run.
    pub fn execute(self, ctx: &JobCtx) -> Result<JobStats, ReproError> {
        (self.run)(&self.req, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_obs::trace_id_hex;

    #[test]
    fn bench_request_round_trips_through_json() {
        let mut req = JobRequest::bench("Vecadd", Flow::Vortex);
        req.id = 7;
        req.opt = Some(OptLevel::Loop);
        req.max_cycles = Some(1_000_000);
        req.deadline_ms = Some(5_000);
        let back = JobRequest::parse(&Json::parse(&req.to_json().to_pretty()).unwrap()).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.label(), "Vecadd/vortex@loop");
    }

    #[test]
    fn source_request_round_trips_through_json() {
        let req = JobRequest {
            id: 3,
            payload: Payload::Source {
                source: "__kernel void k(__global int* o) { o[0] = 1; }".to_string(),
                kernel: "k".to_string(),
                nd: NdSpec {
                    gx: 16,
                    gy: 1,
                    lx: 4,
                    ly: 1,
                },
                buffers: vec![64],
                args: vec![ArgSpec::Buf(0), ArgSpec::I32(-5), ArgSpec::U32(9)],
            },
            flow: Flow::Interp,
            opt: None,
            cores: 1,
            warps: 4,
            threads: 4,
            sim_threads: 1,
            max_cycles: Some(5_000_000),
            max_instructions: Some(200_000),
            deadline_ms: None,
            reference: false,
        };
        let back = JobRequest::parse(&Json::parse(&req.to_json().to_pretty()).unwrap()).unwrap();
        assert_eq!(back, req);
    }

    /// A trace id depends on every byte of the compact wire form, escapes
    /// included: the constants were computed by the `String`-building
    /// serializer, before the form was hashed as it is written.
    #[test]
    fn trace_id_of_a_fixed_inline_request_is_pinned() {
        let mut req = JobRequest::bench("unused", Flow::Vortex);
        req.id = 17;
        req.opt = Some(OptLevel::Loop);
        req.payload = Payload::Source {
            source: "// \"quoted\" \\ tab\t, bell\u{7}, µ\n__kernel void k(__global int* o) {\r\n  o[0] = 1;\n}\n"
                .to_string(),
            kernel: "k".to_string(),
            nd: NdSpec {
                gx: 8,
                gy: 1,
                lx: 4,
                ly: 1,
            },
            buffers: vec![32],
            args: vec![ArgSpec::Buf(0), ArgSpec::I32(-2), ArgSpec::F32(0.5)],
        };
        assert_eq!(
            req.to_json().to_compact(),
            PINNED_WIRE,
            "the compact wire form moved"
        );
        assert_eq!(trace_id_hex(req.trace_id(0)), "66598f7165d7a185");
        assert_eq!(trace_id_hex(req.trace_id(5)), "4181a8ea28355876");
    }

    const PINNED_WIRE: &str = r#"{"id":17,"source":"// \"quoted\" \\ tab\t, bell\u0007, µ\n__kernel void k(__global int* o) {\r\n  o[0] = 1;\n}\n","kernel":"k","nd":{"gx":8,"gy":1,"lx":4,"ly":1},"buffers":[32],"args":[{"buf":0},{"i32":-2},{"f32":0.5}],"flow":"vortex","opt":"loop","cores":2,"warps":4,"threads":16,"sim_threads":1}"#;

    #[test]
    fn parse_defaults_and_errors() {
        let j = Json::parse(r#"{"bench": "Sgemm"}"#).unwrap();
        let req = JobRequest::parse(&j).unwrap();
        assert_eq!(req.flow, Flow::Vortex);
        assert_eq!((req.cores, req.warps, req.threads), (2, 4, 16));
        assert_eq!(req.opt, None);
        for (bad, needle) in [
            (r#"{"flow": "vortex"}"#, "either `bench` or `source`"),
            (r#"{"bench": "x", "flow": "gpu"}"#, "unknown flow"),
            (r#"{"bench": "x", "opt": "o9"}"#, "unknown opt"),
            (r#"{"source": "s"}"#, "missing `kernel`"),
        ] {
            let err = JobRequest::parse(&Json::parse(bad).unwrap()).unwrap_err();
            assert!(err.contains(needle), "`{bad}` -> {err}");
        }
    }

    #[test]
    fn wire_integers_that_do_not_fit_are_errors_naming_the_field() {
        let inline = |extra: &str, nd: &str, buffers: &str, arg: &str| {
            format!(
                r#"{{"source": "s", "kernel": "k", "nd": {{{nd}}}, "buffers": [{buffers}], "args": [{{"buf": 0}}, {arg}]{extra}}}"#
            )
        };
        let ok = |extra: &str| inline(extra, r#""gx": 4"#, "4", r#"{"u32": 1}"#);
        for (bad, field) in [
            (ok(r#", "cores": 4294967297"#), "`cores`"),
            (ok(r#", "warps": -1"#), "`warps`"),
            (ok(r#", "threads": 1.5"#), "`threads`"),
            (ok(r#", "sim_threads": 4294967296"#), "`sim_threads`"),
            (
                inline("", r#""lx": 4294967300"#, "4", r#"{"u32": 1}"#),
                "`nd.lx`",
            ),
            (
                inline("", r#""gx": 4"#, "4, 4294967296", r#"{"u32": 1}"#),
                "`buffers[1]`",
            ),
            (
                inline("", r#""gx": 4"#, "4", r#"{"u32": 4294967296}"#),
                "`args[1].u32`",
            ),
            (
                inline("", r#""gx": 4"#, "4", r#"{"i32": 1.5}"#),
                "`args[1].i32`",
            ),
            (
                inline("", r#""gx": 4"#, "4", r#"{"i32": 2147483648}"#),
                "`args[1].i32`",
            ),
            (
                inline("", r#""gx": 4"#, "4", r#"{"i32": -2147483649}"#),
                "`args[1].i32`",
            ),
        ] {
            let err = JobRequest::parse(&Json::parse(&bad).unwrap()).unwrap_err();
            assert!(err.contains(field), "`{bad}` -> {err}");
        }
        // The extremes of each type still parse, unchanged.
        let edge = inline(
            r#", "cores": 4294967295"#,
            r#""gx": 4294967295"#,
            "4294967295",
            r#"{"i32": -2147483648}, {"u32": 4294967295}"#,
        );
        let req = JobRequest::parse(&Json::parse(&edge).unwrap()).unwrap();
        assert_eq!(req.cores, u32::MAX);
        let Payload::Source {
            nd, buffers, args, ..
        } = req.payload
        else {
            panic!("an inline job");
        };
        assert_eq!((nd.gx, buffers), (u32::MAX, vec![u32::MAX]));
        assert_eq!(
            args,
            [
                ArgSpec::Buf(0),
                ArgSpec::I32(i32::MIN),
                ArgSpec::U32(u32::MAX)
            ]
        );
    }

    #[test]
    fn outcome_json_carries_class_for_failures() {
        let oc = JobOutcome {
            id: 1,
            index: 0,
            label: "Vecadd/vortex".to_string(),
            result: Err(ReproError::DeadlineExceeded { deadline_ms: 50 }),
            wall_secs: 0.06,
            worker: 2,
            deadline_fired: true,
            trace_id: 0xdead_beef,
            spans: None,
        };
        assert_eq!(oc.class(), Some(FailureClass::Hang));
        let j = oc.to_json();
        assert_eq!(j.get("ok").unwrap().as_bool(), Some(false));
        let err = j.get("error").unwrap();
        assert_eq!(err.get("kind").unwrap().as_str(), Some("DeadlineExceeded"));
        assert_eq!(err.get("class").unwrap().as_str(), Some("Hang"));
        assert_eq!(j.get("deadline_fired").unwrap().as_bool(), Some(true));
        assert_eq!(
            j.get("trace_id").unwrap().as_str(),
            Some("00000000deadbeef"),
            "trace ids travel as 16-digit hex"
        );
        assert!(j.get("spans").is_none(), "no span tree recorded");
    }
}
