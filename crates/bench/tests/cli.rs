//! Pins what `repro` prints and how it exits, as `tests/golden/cli.md`:
//!
//! - the full stdout of `check`, `cache stats` (run after `check` in the same
//!   directory, so it sees the cache `check` filled) and `chaos --scenarios
//!   smoke`, which are deterministic;
//! - the shape of every table `perf-report` and `opt-report Backprop
//!   --timing` print (header row, rule row, row count): their wall-clock
//!   cells and the slowest-benchmark order vary from run to run;
//! - the exit code of each malformed command line.
//!
//! A second test holds every command that takes a benchmark to exit 1, with
//! its run manifest written, when the benchmark does not exist.
//!
//! Every command runs the built binary in a fresh directory (see `support`).
//! Regenerate after an intentional change with
//! `REGOLD=1 cargo test -p repro-bench --test cli`.

#[path = "../../../tests/support/golden.rs"]
mod golden;
mod support;

use std::fmt::Write;

/// Commands whose whole stdout is pinned, in the order they run.
const FULL: [&str; 3] = ["check", "cache stats", "chaos --scenarios smoke"];

/// Commands whose tables are pinned by shape only.
const SHAPES: [&str; 2] = ["perf-report", "opt-report Backprop --timing"];

/// Malformed command lines, each pinned by its exit code.
const USAGE: [&str; 10] = [
    "bogus",
    "run",
    "run Vecadd --flow gpu",
    "fig7 --workers",
    "chaos --seed x",
    "serve --deadline-ms 0",
    "serve --listen",
    "serve --retry 4294967297",
    "table2 --timming",
    "chaos --scenarios",
];

/// Run `repro <cmd>` in `dir`, requiring success, and return its stdout.
fn stdout_of(dir: &std::path::Path, cmd: &str) -> String {
    let out = support::repro(dir, cmd);
    assert!(
        out.status.success(),
        "repro {cmd} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// Each markdown table in `text`: its header row, its rule row and how many
/// rows follow.
fn table_shapes(text: &str) -> String {
    let mut shapes = Vec::new();
    let lines: Vec<&str> = text.lines().collect();
    let mut i = 0;
    while i < lines.len() {
        if !lines[i].starts_with('|') {
            i += 1;
            continue;
        }
        let start = i;
        while i < lines.len() && lines[i].starts_with('|') {
            i += 1;
        }
        let header = lines[start];
        let rule = lines.get(start + 1).copied().unwrap_or("");
        let rows = (i - start).saturating_sub(2);
        shapes.push(format!("{header}\n{rule}\n{rows} rows\n"));
    }
    shapes.join("\n")
}

#[test]
fn cli_output_and_exit_codes_match_golden() {
    let dir = support::fresh_dir("cli");
    let mut rendered = String::from("# `repro` command line (stdout and exit codes)\n\n");
    for cmd in FULL {
        let stdout = stdout_of(&dir, cmd);
        write!(rendered, "## `repro {cmd}`\n\n```text\n{stdout}").unwrap();
        if !stdout.ends_with('\n') {
            rendered.push('\n');
        }
        rendered.push_str("```\n\n");
    }
    for cmd in SHAPES {
        let shapes = table_shapes(&stdout_of(&dir, cmd));
        write!(
            rendered,
            "## `repro {cmd}` (table shapes)\n\n```text\n{shapes}```\n\n"
        )
        .unwrap();
    }
    rendered.push_str("## Exit codes of malformed command lines\n\n");
    rendered.push_str("| command | exit |\n|---|---|\n");
    for cmd in USAGE {
        let status = support::repro(&dir, cmd).status;
        let code = status
            .code()
            .map_or("killed".to_string(), |c| c.to_string());
        writeln!(rendered, "| `repro {cmd}` | {code} |").unwrap();
    }
    golden::check("cli.md", &rendered, "repro's output");
}

/// An unknown benchmark is a failed run, not a malformed command line: each
/// command that takes one exits 1 and still writes its run manifest.
#[test]
fn unknown_benchmark_exits_1_and_writes_the_manifest() {
    let dir = support::fresh_dir("cli-unknown-benchmark");
    for cmd in ["run", "trace", "profile", "opt-report"] {
        let out = support::repro(&dir, &format!("{cmd} NoSuch"));
        assert_eq!(
            out.status.code(),
            Some(1),
            "repro {cmd} NoSuch: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let manifest = dir.join("runs").join(format!("{cmd}.json"));
        assert!(manifest.is_file(), "repro {cmd} NoSuch wrote no manifest");
    }
}
