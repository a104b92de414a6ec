//! The issue floor: what one issued warp instruction costs when it does
//! almost no work. One core, one warp, a chain of independent `addi`/`xor`
//! in a counted loop, so every issue is bookkeeping plus one lane-row ALU
//! op. The tier-1 test pins the program's instruction and cycle counts; the
//! `#[ignore]`d release variant prints host nanoseconds per issued
//! instruction at T = 1 and T = 16:
//!
//! ```sh
//! cargo test --release -p vortex-sim --test issue_floor -- --ignored --nocapture
//! ```

use std::time::Instant;

use fpga_arch::VortexConfig;
use vortex_isa::{abi, AluOp, Asm, BranchCond, Csr, Instr, Program};
use vortex_sim::{SimConfig, SimStats, Simulator};

/// Enable every lane, then run `iters` rounds of eight independent ALU ops
/// on x8..x15 plus the loop counter in x5, and halt.
fn floor_program(iters: i32) -> Program {
    let mut a = Asm::new();
    a.emit(Instr::CsrRead {
        rd: abi::T0,
        csr: Csr::NumThreads,
    });
    a.emit(Instr::OpImm {
        op: AluOp::Add,
        rd: abi::T1,
        rs1: abi::ZERO,
        imm: 1,
    });
    a.emit(Instr::Op {
        op: AluOp::Sll,
        rd: abi::T1,
        rs1: abi::T1,
        rs2: abi::T0,
    });
    a.emit(Instr::OpImm {
        op: AluOp::Add,
        rd: abi::T1,
        rs1: abi::T1,
        imm: -1,
    });
    a.emit(Instr::Tmc { rs1: abi::T1 });
    assert!(iters & 0xfff < 0x800, "the low part must fit addi");
    a.emit(Instr::Lui {
        rd: abi::T0,
        imm: iters >> 12,
    });
    a.emit(Instr::OpImm {
        op: AluOp::Add,
        rd: abi::T0,
        rs1: abi::T0,
        imm: iters & 0xfff,
    });
    let top = a.label();
    a.bind(top);
    for r in 8..16 {
        a.emit(if r % 2 == 0 {
            Instr::OpImm {
                op: AluOp::Add,
                rd: r,
                rs1: r,
                imm: 3,
            }
        } else {
            Instr::OpImm {
                op: AluOp::Xor,
                rd: r,
                rs1: r,
                imm: 0x55,
            }
        });
    }
    a.emit(Instr::OpImm {
        op: AluOp::Add,
        rd: abi::T0,
        rs1: abi::T0,
        imm: -1,
    });
    a.branch(BranchCond::Ne, abi::T0, abi::ZERO, top);
    a.emit(Instr::Tmc { rs1: abi::ZERO });
    Program {
        instrs: a.finish().unwrap(),
        printf_table: vec![],
        entry: 0,
    }
}

fn run(threads: u32, iters: i32, reference_mode: bool) -> SimStats {
    let mut cfg = SimConfig::new(VortexConfig::new(1, 1, threads));
    cfg.reference_mode = reference_mode;
    let mut sim = Simulator::new(cfg, floor_program(iters));
    sim.run().unwrap().stats
}

/// The counts the timing below divides by, in both run loops and at both
/// widths: the width changes no count.
#[test]
fn issue_floor_counts_are_pinned() {
    for threads in [1, 16] {
        for reference_mode in [false, true] {
            let s = run(threads, 1000, reference_mode);
            assert_eq!(
                (s.instructions, s.cycles),
                (10_008, 11_012),
                "T = {threads}, reference_mode = {reference_mode}"
            );
        }
    }
}

/// Host nanoseconds per issued instruction on the event loop: the best of
/// five runs of 204 800 loop rounds.
#[test]
#[ignore]
fn issue_floor_ns_per_instruction() {
    for threads in [1, 16] {
        let mut best = f64::MAX;
        let mut issued = 0;
        for _ in 0..5 {
            let t = Instant::now();
            issued = run(threads, 50 << 12, false).instructions;
            best = best.min(t.elapsed().as_secs_f64());
        }
        println!(
            "T = {threads:2}: {:.1} ns per issued instruction ({issued} issued)",
            best * 1e9 / issued as f64
        );
    }
}
