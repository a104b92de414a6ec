//! Pins the paper's artifacts as `repro` prints them: Tables I–IV, Figure 7
//! and the analytic model, each command's stdout under a heading naming the
//! command, plus the raw `cycles` of every Figure 7 cell from the
//! `target/repro/fig7_{vecadd,transpose}.json` copies.
//!
//! Every case runs the built binary in a fresh directory under
//! `CARGO_TARGET_TMPDIR` (see `support`), so the checkout's `runs/` and
//! `target/repro/` are never touched. Paper-scale Figure 7 takes too long in debug; it is an
//! `#[ignore]`d case that CI runs in release. Each case compares the whole
//! golden, with the sections it does not run copied from the golden itself
//! (`golden::check_sections`).
//!
//! Regenerate after an intentional change with
//! `REGOLD=1 cargo test --release -p repro-bench --test paper -- --include-ignored`.

#[path = "../../../tests/support/golden.rs"]
mod golden;
mod support;

use repro_util::Json;
use std::fmt::Write;
use std::fs;
use std::path::Path;

/// The golden's sections in file order: a `repro` command line and whether
/// it belongs to the paper-scale case.
const SECTIONS: [(&str, bool); 7] = [
    ("table1 --timing", false),
    ("table2", false),
    ("table3", false),
    ("table4", false),
    ("fig7 --fast", false),
    ("analytic", false),
    ("fig7", true),
];

fn heading(cmd: &str) -> String {
    format!("## `repro {cmd}`\n")
}

/// Run `repro <cmd>` in `dir` and render its section: stdout in a fence and,
/// for `fig7`, one row per cell of both grids' JSON copies.
fn run_section(dir: &Path, cmd: &str) -> String {
    let out = support::repro(dir, cmd);
    assert!(
        out.status.success(),
        "repro {cmd} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let mut s = format!("{}\n```text\n{stdout}", heading(cmd));
    if !stdout.ends_with('\n') {
        s.push('\n');
    }
    s.push_str("```\n");
    if cmd.starts_with("fig7") {
        s.push_str("\n| grid | warps | threads | cycles |\n|---|---|---|---|\n");
        for grid in ["vecadd", "transpose"] {
            let path = dir.join(format!("target/repro/fig7_{grid}.json"));
            let doc = Json::parse(&fs::read_to_string(&path).expect("fig7 JSON copy")).unwrap();
            for cell in doc.get("cells").and_then(Json::as_array).unwrap() {
                let field = |k: &str| cell.get(k).and_then(Json::as_u64).unwrap();
                writeln!(
                    s,
                    "| {grid} | {} | {} | {} |",
                    field("warps"),
                    field("threads"),
                    field("cycles")
                )
                .unwrap();
            }
        }
    }
    s.push('\n');
    s
}

/// Run this case's commands in a fresh directory and compare the golden.
fn check(case: &str, paper_scale: bool) {
    let dir = support::fresh_dir(case);
    let sections: Vec<(String, Option<String>)> = SECTIONS
        .iter()
        .map(|&(cmd, paper)| {
            (
                heading(cmd),
                (paper == paper_scale).then(|| run_section(&dir, cmd)),
            )
        })
        .collect();
    let header = "# Paper artifacts (`repro` stdout)\n\n";
    golden::check_sections("paper.md", header, &sections, "paper artifacts");
}

#[test]
fn tables_fast_fig7_and_analytic_match_golden() {
    check("paper-tables", false);
}

#[test]
#[ignore = "paper-scale Figure 7 takes ~16 s in debug; CI runs it in release"]
fn paper_scale_fig7_matches_golden() {
    check("paper-fig7", true);
}
