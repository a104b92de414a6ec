//! Pins what the compile path produces for every suite source, finer than
//! the benchmark's sums: the cache's token fingerprint, per pass-slot
//! rewrites, fixed-point rounds and instruction counts from the pass
//! manager's `ModuleReport`, and — per kernel, compiled for T = 16 — the
//! Vortex instruction count, spill slots, divergent branches and an FNV-1a
//! of the encoded program. All 28 benchmarks × the four opt levels.
//!
//! Regenerate after an intentional change with
//! `REGOLD=1 cargo test --test compile_counts`.

use fpga_gpu_repro::cache::{token_fingerprint, wire::Fnv};
use fpga_gpu_repro::front::compile;
use fpga_gpu_repro::ir::passes::{optimize_module, OptLevel};
use fpga_gpu_repro::suite::all_benchmarks;
use fpga_gpu_repro::vcc::{compile_kernel, CodegenOpts};
use fpga_gpu_repro::visa::encode::encode;
use std::fmt::Write;

fn render() -> String {
    let mut out = String::from(
        "# compile counts\n\n\
         Per kernel: rounds, insts before → after, rewrites per pipeline slot \
         (`name=n`, pipeline order), then the T = 16 Vortex program: \
         instructions, spill slots, divergent branches, FNV-1a of the words.\n",
    );
    let opts = CodegenOpts { threads: 16 };
    for b in all_benchmarks() {
        let fp = token_fingerprint(b.source).expect(b.name);
        write!(
            out,
            "\n## {} (tokens {fp:016x})\n\n\
             | opt | kernel | rounds | insts | rewrites | vx instrs | spills | div | program fnv1a |\n\
             |---|---|---|---|---|---|---|---|---|\n",
            b.name
        )
        .unwrap();
        for level in OptLevel::ALL {
            let mut m = compile(b.source).expect(b.name);
            let report = optimize_module(&mut m, level);
            for (k, r) in m.kernels.iter().zip(&report.kernels) {
                let rewrites: Vec<String> = r
                    .passes
                    .iter()
                    .map(|p| format!("{}={}", p.name, p.rewrites))
                    .collect();
                let codegen = match compile_kernel(k, &opts) {
                    Ok(ck) => {
                        let mut h = Fnv::new();
                        for i in &ck.program.instrs {
                            h.write(&encode(i).expect("codegen output encodes").to_le_bytes());
                        }
                        format!(
                            "{} | {} | {} | {:016x}",
                            ck.program.instrs.len(),
                            ck.spill_slots,
                            ck.divergent_branches,
                            h.finish()
                        )
                    }
                    Err(e) => format!("error: {e} | | |"),
                };
                writeln!(
                    out,
                    "| {} | {} | {} | {} → {} | {} | {codegen} |",
                    level.flag_name(),
                    r.name,
                    r.rounds,
                    r.insts_before,
                    r.insts_after,
                    rewrites.join(" "),
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn compile_counts_match_golden() {
    let rendered = render();
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/compile_counts.md"
    );
    if std::env::var_os("REGOLD").is_some() {
        std::fs::write(golden_path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file missing — run with REGOLD=1 to create it");
    assert_eq!(
        rendered, golden,
        "compile-path counts changed; if intentional, regenerate with REGOLD=1"
    );
}
