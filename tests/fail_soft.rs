//! Adversarial-kernel fail-soft suite: kernels that are *wrong on purpose*
//! (divergent barriers, mismatched barrier counts, infinite loops, OOB
//! stores) must terminate within the watchdog budget on BOTH back ends —
//! the reference interpreter and the Vortex cycle simulator — and classify
//! identically under the [`ReproError`] taxonomy. No panics, no hangs.

use fpga_gpu_repro::arch::VortexConfig;
use fpga_gpu_repro::diag::{FailureClass, ReproError, StuckWarp};
use fpga_gpu_repro::front;
use fpga_gpu_repro::ir::interp::{run_ndrange, KernelArg, Limits, Memory, NdRange};
use fpga_gpu_repro::vcc::{compile_kernel, CodegenOpts, CompiledKernel};
use fpga_gpu_repro::visa::layout as vrt_layout;
use fpga_gpu_repro::visa::{abi, AluOp, Csr, Instr, Program};
use fpga_gpu_repro::vrt::{self, Arg, Buffer, VxSession};
use fpga_gpu_repro::vsim::{SimConfig, Simulator};

const OUT_WORDS: u32 = 64;

/// Interpreter budget small enough to bound a runaway kernel to well under
/// a second while never tripping on the healthy prologue.
const INTERP_STEPS: u64 = 100_000;

/// Simulator config with both watchdog budgets engaged. One core, four
/// warps of four threads: a 16-item work-group maps one warp per four
/// work-items, so `get_local_id(0) < 4` divergence is warp-uniform.
fn budgeted() -> SimConfig {
    let mut cfg = SimConfig::new(VortexConfig::new(1, 4, 4));
    cfg.max_cycles = 5_000_000;
    cfg.max_instructions = 200_000;
    cfg
}

/// Run `src` on the reference interpreter and return its classified fault.
fn interp_error(src: &str, nd: &NdRange) -> ReproError {
    let module = front::compile(src).expect("adversarial kernels still compile");
    let k = module.expect_kernel("bad");
    let mut mem = Memory::new(1 << 20);
    let po = mem.alloc(OUT_WORDS * 4);
    let err = run_ndrange(
        k,
        &[KernelArg::Ptr(po)],
        nd,
        &mut mem,
        &Limits {
            max_steps_per_item: INTERP_STEPS,
        },
    )
    .expect_err("kernel must fault on the interpreter");
    ReproError::from(err)
}

/// Run `src` through the full Vortex flow and return its classified fault.
fn vortex_error(src: &str, nd: &NdRange) -> ReproError {
    let cfg = budgeted();
    let compiled = vrt::compile_for(src, "bad", &cfg).expect("adversarial kernels still compile");
    let mut sess = VxSession::new(cfg, compiled);
    let dout = sess.alloc(OUT_WORDS * 4).expect("device alloc");
    let err = sess
        .launch(&[Arg::Buf(dout)], nd)
        .expect_err("kernel must fault on the simulator");
    classified(err)
}

/// Both back ends fault on `src` with the same `kind` and `class`.
fn assert_both_classify(src: &str, nd: &NdRange, kind: &str, class: FailureClass) {
    let ie = interp_error(src, nd);
    assert_eq!(ie.kind(), kind, "interp: {ie}\n{src}");
    assert_eq!(ie.class(), class, "interp: {ie}\n{src}");
    let ve = vortex_error(src, nd);
    assert_eq!(ve.kind(), kind, "vortex: {ve}\n{src}");
    assert_eq!(ve.class(), class, "vortex: {ve}\n{src}");
}

/// A warp-uniform subset of the group reaches the barrier; the rest
/// return. Classic divergent-barrier deadlock, detected (not hung) on both
/// back ends with a structured report.
#[test]
fn divergent_barrier_is_detected_on_both_backends() {
    let src = "__kernel void bad(__global int* o) {
        int lid = get_local_id(0);
        if (lid < 4) { barrier(CLK_LOCAL_MEM_FENCE); }
        o[get_global_id(0)] = lid;
    }";
    let nd = NdRange::d1(16, 16);
    assert_both_classify(src, &nd, "DivergenceDeadlock", FailureClass::Deadlock);
    // The simulator's report names the stuck warp(s).
    match vortex_error(src, &nd) {
        ReproError::DivergenceDeadlock { stuck } => {
            assert!(!stuck.is_empty(), "deadlock report lists no stuck warps")
        }
        other => panic!("expected DivergenceDeadlock, got {other}"),
    }
}

/// The two sides of a branch execute different *numbers* of barriers: the
/// first round pairs up, then the then-branch's second barrier waits on
/// warps that have already returned.
#[test]
fn mismatched_barrier_counts_deadlock_on_both_backends() {
    let src = "__kernel void bad(__global int* o) {
        int lid = get_local_id(0);
        if (lid < 4) {
            barrier(CLK_LOCAL_MEM_FENCE);
            barrier(CLK_LOCAL_MEM_FENCE);
        } else {
            barrier(CLK_LOCAL_MEM_FENCE);
        }
        o[get_global_id(0)] = lid;
    }";
    let nd = NdRange::d1(16, 16);
    assert_both_classify(src, &nd, "DivergenceDeadlock", FailureClass::Deadlock);
}

/// A loop that never advances trips the instruction budget — the Hang
/// class — instead of wedging the test harness.
#[test]
fn infinite_loop_trips_the_watchdog_on_both_backends() {
    let src = "__kernel void bad(__global int* o) {
        int acc = 0;
        for (int j = 0; j < 10; j = j) { acc = acc + 1; }
        o[get_global_id(0)] = acc;
    }";
    let nd = NdRange::d1(16, 4);
    assert_both_classify(src, &nd, "InstructionBudget", FailureClass::Hang);
}

/// A store far past the output buffer faults as a classified memory error
/// on both back ends.
#[test]
fn oob_store_faults_on_both_backends() {
    let src = "__kernel void bad(__global int* o) {
        int i = get_global_id(0);
        o[i + 268435456] = 1;
    }";
    let nd = NdRange::d1(16, 4);
    assert_both_classify(src, &nd, "OutOfBounds", FailureClass::Memory);
}

/// `e` as the classified failure a job reports. Generic, so that it
/// reads the same whether a layer returns its own error type or already a
/// [`ReproError`].
fn classified<E>(e: E) -> ReproError
where
    ReproError: From<E>,
{
    ReproError::from(e)
}

/// A Vortex session on `cfg` for the one kernel `name` of `src`, compiled
/// as written.
fn session(src: &str, name: &str, cfg: SimConfig) -> VxSession {
    let compiled = vrt::compile_for(src, name, &cfg).expect("kernel compiles");
    VxSession::new(cfg, compiled)
}

/// `src`'s kernel `bad` launched over `nd` with one output buffer.
fn launch_err(src: &str, cfg: SimConfig, nd: &NdRange) -> ReproError {
    let mut sess = session(src, "bad", cfg);
    let dout = sess.alloc(OUT_WORDS * 4).expect("device alloc");
    classified(sess.launch(&[Arg::Buf(dout)], nd).unwrap_err())
}

/// A session for the hand-assembled, argument-free kernel `prog`.
fn hand_session(cfg: SimConfig, prog: Program) -> VxSession {
    let kernel = CompiledKernel {
        program: prog,
        name: "hand".into(),
        num_args: 0,
        group_mode: false,
        local_bytes: 0,
        warp_stack_bytes: 0,
        divergent_branches: 0,
        spill_slots: 0,
        threads: cfg.hw.threads,
    };
    VxSession::new(cfg, kernel)
}

/// Every fault site of the front end, code generator, simulator and
/// runtime, each as the classified failure a job reports.
fn fault_sites() -> Vec<(&'static str, ReproError)> {
    let compile_err = |src: &str| classified(front::compile(src).unwrap_err());
    let mut out = vec![
        ("preprocess", compile_err("#endif\n__kernel void k() {}")),
        (
            "lex",
            compile_err("__kernel void k() {\n  int x = 1 @ 2;\n}"),
        ),
        ("parse", compile_err("__kernel void k() {\n  int x = 1\n}")),
        (
            "sema",
            compile_err("__kernel void k(__global float* o) {\n  o[0] = ~o[1];\n}"),
        ),
    ];
    let module = front::compile(
        "__kernel void k(__global int* o) {
            int i = get_global_id(0);
            for (int j = 0; j < 10; j++) { if (i > j) break; o[j] = i; }
        }",
    )
    .unwrap();
    let opts = CodegenOpts { threads: 4 };
    out.push((
        "unstructured",
        classified(compile_kernel(module.expect_kernel("k"), &opts).unwrap_err()),
    ));

    // Device faults through a session.
    let nd = NdRange::d1(16, 4);
    out.push((
        "oob global store",
        launch_err(
            "__kernel void bad(__global int* o) { o[get_global_id(0) + 268435456] = 1; }",
            budgeted(),
            &nd,
        ),
    ));
    out.push((
        "oob local store",
        launch_err(
            "__kernel void bad(__global int* o) {
                __local int t[16];
                int l = get_local_id(0);
                t[l + 100000] = 1;
                barrier(CLK_LOCAL_MEM_FENCE);
                o[get_global_id(0)] = t[l];
            }",
            budgeted(),
            &nd,
        ),
    ));
    let mut sess = session(
        "__kernel void bad(__global int* o) { o[get_global_id(0)] = 1; }",
        "bad",
        budgeted(),
    );
    out.push((
        "misaligned",
        classified(
            sess.launch(&[Arg::U32(vrt_layout::HEAP_BASE + 2)], &nd)
                .unwrap_err(),
        ),
    ));
    let spin = "__kernel void bad(__global int* o) {
        int acc = 0;
        for (int j = 0; j < 10; j = j) { acc = acc + 1; }
        o[get_global_id(0)] = acc;
    }";
    out.push(("instruction budget", launch_err(spin, budgeted(), &nd)));
    let mut cycles = budgeted();
    cycles.max_cycles = 20_000;
    cycles.max_instructions = u64::MAX;
    out.push(("cycle budget", launch_err(spin, cycles, &nd)));
    out.push((
        "divergence deadlock",
        launch_err(
            "__kernel void bad(__global int* o) {
                int lid = get_local_id(0);
                if (lid < 4) { barrier(CLK_LOCAL_MEM_FENCE); }
                o[get_global_id(0)] = lid;
            }",
            budgeted(),
            &NdRange::d1(16, 16),
        ),
    ));
    // Every warp spawned, every warp waiting for one warp more than exists.
    let unsatisfiable = Program {
        instrs: vec![
            Instr::CsrRead {
                rd: abi::T0,
                csr: Csr::NumWarps,
            },
            Instr::OpImm {
                op: AluOp::Add,
                rd: abi::T1,
                rs1: abi::ZERO,
                imm: 3,
            },
            Instr::Wspawn {
                rs1: abi::T0,
                rs2: abi::T1,
            },
            Instr::CsrRead {
                rd: abi::T0,
                csr: Csr::NumWarps,
            },
            Instr::OpImm {
                op: AluOp::Add,
                rd: abi::T0,
                rs1: abi::T0,
                imm: 1,
            },
            Instr::Bar {
                rs1: abi::ZERO,
                rs2: abi::T0,
            },
            Instr::Tmc { rs1: abi::ZERO },
        ],
        printf_table: vec![],
        entry: 0,
    };
    out.push((
        "barrier deadlock",
        classified(
            hand_session(budgeted(), unsatisfiable)
                .launch(&[], &nd)
                .unwrap_err(),
        ),
    ));
    // A jump past the end of the text.
    let jump = Program {
        instrs: vec![Instr::Jal { rd: 0, offset: 41 }],
        printf_table: vec![],
        entry: 0,
    };
    let fault = Simulator::new(budgeted(), jump).run().unwrap_err();
    out.push(("bad pc", classified(fault.error)));

    // Launches the runtime refuses before the device runs.
    let store = "__kernel void bad(__global int* o) { o[get_global_id(0)] = 1; }";
    let mut sess = session(store, "bad", budgeted());
    out.push(("arg count", classified(sess.launch(&[], &nd).unwrap_err())));
    let dout = sess.alloc(OUT_WORDS * 4).unwrap();
    out.push((
        "bad ndrange",
        classified(
            sess.launch(&[Arg::Buf(dout)], &NdRange::d1(10, 4))
                .unwrap_err(),
        ),
    ));
    out.push((
        "unknown kernel",
        classified(
            sess.launch_named("nope", &[Arg::Buf(dout)], &nd)
                .unwrap_err(),
        ),
    ));
    out.push(("oom", classified(sess.alloc(u32::MAX).unwrap_err())));
    let past_end = Buffer {
        addr: vrt_layout::GLOBAL_MEM_BYTES - 4,
        bytes: 8,
    };
    out.push((
        "host write past memory",
        classified(sess.write_i32(past_end, &[1, 2]).unwrap_err()),
    ));
    let local = Buffer {
        addr: vrt_layout::LOCAL_BASE,
        bytes: 4,
    };
    out.push((
        "host read of a local address",
        classified(sess.read_i32(local, 1).unwrap_err()),
    ));
    let group = "__kernel void bad(__global int* o) {
        __local int t[16];
        int l = get_local_id(0);
        t[l] = l;
        barrier(CLK_LOCAL_MEM_FENCE);
        o[get_global_id(0)] = t[l];
    }";
    let mut sess = session(group, "bad", budgeted());
    let dout = sess.alloc(OUT_WORDS * 4).unwrap();
    out.push((
        "group size",
        classified(
            sess.launch(&[Arg::Buf(dout)], &NdRange::d1(12, 6))
                .unwrap_err(),
        ),
    ));
    out.push((
        "local bytes",
        launch_err(
            "__kernel void bad(__global int* o) {
                __local int t[20000];
                int l = get_local_id(0);
                t[l] = l;
                barrier(CLK_LOCAL_MEM_FENCE);
                o[get_global_id(0)] = t[l];
            }",
            budgeted(),
            &nd,
        ),
    ));
    out.push((
        "printf harts",
        launch_err(
            "__kernel void bad(__global int* o) { printf(\"%d\\n\", get_global_id(0)); }",
            SimConfig::new(VortexConfig::new(64, 16, 16)),
            &nd,
        ),
    ));
    out
}

/// The pinned failure of every entry of [`fault_sites`]: the exact
/// classified value and the message a job reports for it.
#[test]
fn every_layer_reports_its_faults_as_the_pinned_repro_error() {
    let frontend = |stage, message: &str, line, col| ReproError::Frontend {
        stage,
        message: message.into(),
        line,
        col,
    };
    let harness = |message: &str| ReproError::harness(message);
    let stuck = |warp, pc, barrier, arrived| StuckWarp {
        core: 0,
        warp,
        pc,
        barrier: Some(barrier),
        arrived,
    };
    let want: Vec<(&str, ReproError, &str)> = vec![
        (
            "preprocess",
            frontend("preprocess", "#endif without #ifdef", 1, 0),
            "preprocess error at 1:0: #endif without #ifdef",
        ),
        (
            "lex",
            frontend("lex", "unexpected character `@`", 2, 13),
            "lex error at 2:13: unexpected character `@`",
        ),
        (
            "parse",
            frontend("parse", "expected `,`, found `}`", 3, 1),
            "parse error at 3:1: expected `,`, found `}`",
        ),
        (
            "sema",
            frontend("sema", "`~` on a float", 2, 10),
            "sema error at 2:10: `~` on a float",
        ),
        (
            "unstructured",
            ReproError::Codegen {
                message: "kernel `k`: unsupported divergent control flow: loop with header bb1 \
                          has a second exit bb2->bb5 (divergent break?); rewrite with a guard flag"
                    .into(),
            },
            "codegen error: kernel `k`: unsupported divergent control flow: loop with header bb1 \
             has a second exit bb2->bb5 (divergent break?); rewrite with a guard flag",
        ),
        (
            "oob global store",
            ReproError::OutOfBounds {
                addr: 0x4010_0010,
                pc: 0x41,
                space: "global".into(),
            },
            "out-of-bounds global access at addr 0x40100010 (pc 0x41)",
        ),
        (
            "oob local store",
            ReproError::OutOfBounds {
                addr: 0x8006_1a80,
                pc: 0x56,
                space: "local".into(),
            },
            "out-of-bounds local access at addr 0x80061a80 (pc 0x56)",
        ),
        (
            "misaligned",
            ReproError::Misaligned {
                addr: 0x10_0012,
                align: 4,
                pc: 0x3f,
                space: "global".into(),
            },
            "misaligned global access at addr 0x100012 (align 4) (pc 0x3f)",
        ),
        (
            "instruction budget",
            ReproError::InstructionBudget { limit: 200_000 },
            "instruction budget exhausted (200000 instructions)",
        ),
        (
            "cycle budget",
            ReproError::CycleBudget { limit: 20_001 },
            "cycle budget exhausted (20001 cycles)",
        ),
        (
            "divergence deadlock",
            ReproError::DivergenceDeadlock {
                stuck: vec![stuck(0, 0x56, (0, 4), 1)],
            },
            "divergence deadlock: 1 warp(s) stuck; core 0 warp 0 @pc=0x56 barrier 0 (1/4 arrived)",
        ),
        (
            "barrier deadlock",
            ReproError::BarrierDeadlock {
                stuck: (0..4).map(|w| stuck(w, 6, (0, 5), 4)).collect(),
            },
            "barrier deadlock: 4 warp(s) stuck; core 0 warp 0 @pc=0x6 barrier 0 (4/5 arrived); \
             core 0 warp 1 @pc=0x6 barrier 0 (4/5 arrived); core 0 warp 2 @pc=0x6 barrier 0 \
             (4/5 arrived); core 0 warp 3 @pc=0x6 barrier 0 (4/5 arrived)",
        ),
        (
            "bad pc",
            ReproError::OutOfBounds {
                addr: 41,
                pc: 41,
                space: "text".into(),
            },
            "out-of-bounds text access at addr 0x29 (pc 0x29)",
        ),
        (
            "arg count",
            harness("kernel `bad` takes 1 arguments, 0 given"),
            "harness error: kernel `bad` takes 1 arguments, 0 given",
        ),
        (
            "bad ndrange",
            harness("bad ndrange: global size 10 not divisible by local size 4 in dim 0"),
            "harness error: bad ndrange: global size 10 not divisible by local size 4 in dim 0",
        ),
        (
            "unknown kernel",
            harness("kernel `nope` not in session"),
            "harness error: kernel `nope` not in session",
        ),
        (
            "oom",
            ReproError::OutOfMemory {
                requested: u32::MAX,
                available: 66_059_264,
            },
            "device out of memory: requested 4294967295 bytes, 66059264 available",
        ),
        (
            "host write past memory",
            ReproError::OutOfBounds {
                addr: 0x3ff_fffc,
                pc: 0,
                space: "global".into(),
            },
            "out-of-bounds global access at addr 0x3fffffc",
        ),
        (
            "host read of a local address",
            ReproError::OutOfBounds {
                addr: 0x8000_0000,
                pc: 0,
                space: "local".into(),
            },
            "out-of-bounds local access at addr 0x80000000",
        ),
        (
            "group size",
            harness(
                "group-mode kernel `bad` needs group size (6) to be a multiple of \
                 threads/warp (4) and at most warps*threads (16)",
            ),
            "harness error: group-mode kernel `bad` needs group size (6) to be a multiple of \
             threads/warp (4) and at most warps*threads (16)",
        ),
        (
            "local bytes",
            harness("kernel needs 80000 bytes of local memory, core has 65536"),
            "harness error: kernel needs 80000 bytes of local memory, core has 65536",
        ),
        (
            "printf harts",
            harness(
                "kernel `bad` calls printf, whose buffers hold 8192 harts; the machine has 16384",
            ),
            "harness error: kernel `bad` calls printf, whose buffers hold 8192 harts; the machine \
             has 16384",
        ),
    ];
    let got = fault_sites();
    assert_eq!(
        got.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        want.iter().map(|(n, ..)| *n).collect::<Vec<_>>()
    );
    for ((name, got), (_, want, msg)) in got.iter().zip(&want) {
        assert_eq!(got, want, "{name}");
        assert_eq!(got.to_string(), *msg, "{name}");
    }
}
