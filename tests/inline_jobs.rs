//! Pins what inline-source jobs (`Payload::Source`) return through
//! `run_oneshot`: cycles and instructions, or the error kind and message.
//! The matrix covers the vortex and interp flows, 1-D and 2-D launches,
//! every `ArgSpec` variant, `opt` unset and set, a two-kernel source whose
//! second kernel has the larger stack, and the error paths: kernel not
//! found, buffer index out of range, argument count, out of memory, the
//! instruction and cycle budgets, and the hls-flow rejection.
//!
//! Regenerate after an intentional change with
//! `REGOLD=1 cargo test --test inline_jobs`.

use fpga_gpu_repro::cache;
use fpga_gpu_repro::ir::passes::OptLevel;
use fpga_gpu_repro::sched::{ArgSpec, Flow, JobRequest, NdSpec, Payload};
use fpga_gpu_repro::suite::run_oneshot;
use std::fmt::Write;

#[path = "support/golden.rs"]
mod golden;

const ARGS_1D: &str = "__kernel void mix(__global int* o, __global float* f,
                                         int a, uint b, float c) {
    int i = get_global_id(0);
    o[i] = a * i + (int)b;
    f[i] = c * (float)i;
}";

const GRID_2D: &str = "__kernel void grid(__global int* o, int w) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    o[y * w + x] = x + 100 * y + get_local_id(1);
}";

const SPIN: &str = "__kernel void spin(__global int* o, int n) {
    int acc = 0;
    for (int j = 0; j < n; j++) { acc = acc + j; }
    o[get_global_id(0)] = acc;
}";

/// Two kernels; the second keeps 40 loaded values live at once, so it
/// spills and needs the larger per-warp stack.
fn two_kernels() -> String {
    let n = 40;
    let loads: String = (0..n)
        .map(|k| format!("    float a{k} = x[i + {k}];\n"))
        .collect();
    let sum: Vec<String> = (0..n).map(|k| format!("a{k}")).collect();
    let prod: Vec<String> = (0..n).rev().map(|k| format!("a{k}")).collect();
    format!(
        "__kernel void small(__global float* o) {{ o[get_global_id(0)] = 1.0f; }}\n\
         __kernel void spilly(__global float* o, __global const float* x) {{\n\
         \x20   int i = get_global_id(0);\n{loads}\
         \x20   float s = {};\n\
         \x20   float t = {};\n\
         \x20   o[i] = s + t;\n}}\n",
        sum.join(" + "),
        prod.join(" * ")
    )
}

fn nd(gx: u32, gy: u32, lx: u32, ly: u32) -> NdSpec {
    NdSpec { gx, gy, lx, ly }
}

fn req(source: &str, kernel: &str, nd: NdSpec, buffers: &[u32], args: &[ArgSpec]) -> JobRequest {
    let mut r = JobRequest::bench("unused", Flow::Vortex);
    r.payload = Payload::Source {
        source: source.to_string(),
        kernel: kernel.to_string(),
        nd,
        buffers: buffers.to_vec(),
        args: args.to_vec(),
    };
    r
}

/// Every case that runs to completion: each goes through both flows at
/// `opt` unset, `none` and `loop`.
fn ok_cases() -> Vec<(&'static str, JobRequest)> {
    let mix_args = [
        ArgSpec::Buf(0),
        ArgSpec::Buf(1),
        ArgSpec::I32(-3),
        ArgSpec::U32(7),
        ArgSpec::F32(0.5),
    ];
    let mut narrow = req(ARGS_1D, "mix", nd(32, 1, 8, 1), &[32, 32], &mix_args);
    (narrow.cores, narrow.warps, narrow.threads) = (1, 4, 4);
    let two = two_kernels();
    vec![
        (
            "1-D, every arg kind",
            req(ARGS_1D, "mix", nd(64, 1, 16, 1), &[64, 64], &mix_args),
        ),
        ("1-D, 1x4x4 machine", narrow),
        (
            "2-D",
            req(
                GRID_2D,
                "grid",
                nd(8, 4, 4, 2),
                &[32],
                &[ArgSpec::Buf(0), ArgSpec::I32(8)],
            ),
        ),
        (
            "2-D, 16x2 groups",
            req(
                GRID_2D,
                "grid",
                nd(16, 4, 16, 2),
                &[64],
                &[ArgSpec::Buf(0), ArgSpec::I32(16)],
            ),
        ),
        (
            "two kernels, first named",
            req(&two, "small", nd(16, 1, 16, 1), &[16], &[ArgSpec::Buf(0)]),
        ),
        (
            "two kernels, second named",
            req(
                &two,
                "spilly",
                nd(16, 1, 16, 1),
                &[16, 64],
                &[ArgSpec::Buf(0), ArgSpec::Buf(1)],
            ),
        ),
        (
            "loop under budget",
            req(
                SPIN,
                "spin",
                nd(16, 1, 16, 1),
                &[16],
                &[ArgSpec::Buf(0), ArgSpec::I32(10)],
            ),
        ),
        (
            "zero-length buffer, no args bound to it",
            req(
                GRID_2D,
                "grid",
                nd(4, 1, 4, 1),
                &[8, 0],
                &[ArgSpec::Buf(0), ArgSpec::I32(4)],
            ),
        ),
    ]
}

/// Cases that fail, each through both flows with `opt` unset.
fn error_cases() -> Vec<(&'static str, JobRequest)> {
    let two = two_kernels();
    let huge = 100_000_000;
    let mut instr_budget = req(
        SPIN,
        "spin",
        nd(16, 1, 16, 1),
        &[16],
        &[ArgSpec::Buf(0), ArgSpec::I32(100_000)],
    );
    instr_budget.max_instructions = Some(1_000);
    let mut cycle_budget = instr_budget.clone();
    cycle_budget.max_instructions = None;
    cycle_budget.max_cycles = Some(2_000);
    vec![
        (
            "kernel not found",
            req(
                GRID_2D,
                "nope",
                nd(4, 1, 4, 1),
                &[4],
                &[ArgSpec::Buf(0), ArgSpec::I32(4)],
            ),
        ),
        (
            "buf index out of range",
            req(
                GRID_2D,
                "grid",
                nd(4, 1, 4, 1),
                &[4],
                &[ArgSpec::Buf(3), ArgSpec::I32(4)],
            ),
        ),
        (
            "too few args",
            req(GRID_2D, "grid", nd(4, 1, 4, 1), &[4], &[ArgSpec::Buf(0)]),
        ),
        (
            "out of memory, first kernel named",
            req(&two, "small", nd(16, 1, 16, 1), &[huge], &[ArgSpec::Buf(0)]),
        ),
        (
            "out of memory, second kernel named",
            req(
                &two,
                "spilly",
                nd(16, 1, 16, 1),
                &[16, huge],
                &[ArgSpec::Buf(0), ArgSpec::Buf(1)],
            ),
        ),
        ("instruction budget (max_instructions 1000)", instr_budget),
        ("cycle budget (max_cycles 2000)", cycle_budget),
    ]
}

fn row(out: &mut String, case: &str, r: &JobRequest) {
    let opt = r.opt.map_or("unset", |l| l.flag_name());
    let result = match run_oneshot(r) {
        Ok(s) => format!("ok | {} | {}", s.cycles, s.instructions),
        Err(e) => format!("{} | {e} |", e.kind()),
    };
    writeln!(out, "| {case} | {} | {opt} | {result} |", r.flow.name()).unwrap();
}

fn render() -> String {
    let mut out = String::from(
        "# Inline-source jobs through run_oneshot\n\n\
         | case | flow | opt | result | cycles or message | instructions |\n\
         |---|---|---|---|---|---|\n",
    );
    for (case, base) in ok_cases() {
        for flow in [Flow::Vortex, Flow::Interp] {
            for opt in [None, Some(OptLevel::None), Some(OptLevel::Loop)] {
                let mut r = base.clone();
                (r.flow, r.opt) = (flow, opt);
                row(&mut out, case, &r);
            }
        }
    }
    for (case, base) in error_cases() {
        for flow in [Flow::Vortex, Flow::Interp] {
            let mut r = base.clone();
            r.flow = flow;
            row(&mut out, case, &r);
        }
    }
    let (_, mut hls) = ok_cases().remove(0);
    hls.flow = Flow::Hls;
    row(&mut out, "hls flow", &hls);
    out
}

#[test]
fn inline_jobs_match_golden() {
    golden::check("inline_jobs.md", &render(), "inline-job outcomes");
}

/// The two-kernel case is only meaningful while its second kernel needs
/// the larger stack: a session holding both would size its heap from it.
#[test]
fn second_kernel_has_the_larger_stack() {
    let kernels = cache::global()
        .codegen_vortex(&two_kernels(), None, 16)
        .unwrap();
    let stack = |name: &str| {
        kernels
            .iter()
            .find(|k| k.name == name)
            .unwrap()
            .warp_stack_bytes
    };
    assert!(
        stack("spilly") > stack("small"),
        "spilly {} vs small {}",
        stack("spilly"),
        stack("small")
    );
}
