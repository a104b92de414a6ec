//! Holds the documents that restate the paper's numbers to
//! `fpga_arch::paper`, their one home in code:
//!
//! - `benchmark/expected.json`, whose `hls` column must be Table I;
//! - EXPERIMENTS.md's "paper" cells in the Table I–IV tables and the
//!   Figure 7 claims table, and its Table IV "ours" cells, which are the
//!   area model's pure arithmetic.
//!
//! Both files are only read. A failure names the cell that drifted: fix the
//! document, or `paper` if the document was right.

use fpga_arch::paper::{self, TABLE1_HLS_FAILURES};
use fpga_arch::vortex_area;
use repro_util::Json;

fn read(file: &str) -> String {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Body rows of every markdown table in EXPERIMENTS.md's section that
/// starts with `heading`, up to the next `## ` heading; each row is its
/// trimmed cells.
fn tables(heading: &str) -> Vec<Vec<Vec<String>>> {
    let doc = read("EXPERIMENTS.md");
    let start = doc
        .find(heading)
        .unwrap_or_else(|| panic!("no `{heading}`"));
    let section = doc[start + heading.len()..].split("\n## ").next().unwrap();
    let mut tables = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for line in section.lines().chain([""]) {
        if let Some(line) = line.strip_prefix('|') {
            let cells = line.trim_end_matches('|').split('|');
            rows.push(cells.map(|c| c.trim().to_string()).collect());
        } else if !rows.is_empty() {
            // Drop the header and rule rows.
            tables.push(std::mem::take(&mut rows).split_off(2));
        }
    }
    tables
}

/// `12,898`: a count as EXPERIMENTS.md writes it.
fn commas(n: u64) -> String {
    let digits = n.to_string();
    let mut s = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            s.push(',');
        }
        s.push(c);
    }
    s
}

fn wt((w, t): (u32, u32)) -> String {
    format!("{w}w{t}t")
}

/// The part of a `paper / ours` cell before the slash.
fn paper_half(cell: &str) -> &str {
    cell.split(" / ").next().unwrap()
}

#[test]
fn benchmark_expectations_hls_column_is_table1() {
    let doc = Json::parse(&read("benchmark/expected.json")).expect("expected.json parses");
    let rows = doc.get("benchmarks").and_then(Json::as_array).unwrap();
    assert_eq!(rows.len(), paper::TABLE1_BENCHMARKS);
    let failures: Vec<(&str, &str)> = rows
        .iter()
        .filter(|r| r.get("hls").and_then(Json::as_str) != Some("ok"))
        .map(|r| {
            let name = r.get("name").and_then(Json::as_str).unwrap();
            let reason = r.get("hls").and_then(|c| c.get("Synthesis"));
            (name, reason.and_then(Json::as_str).unwrap())
        })
        .collect();
    assert_eq!(failures, TABLE1_HLS_FAILURES, "benchmark/expected.json");
    assert_eq!(rows.len() - failures.len(), paper::TABLE1_HLS_PASSES);
}

#[test]
fn experiments_table1_paper_cells() {
    let [table] = &tables("## Table I —")[..] else {
        panic!("one Table I table")
    };
    let mut failures = Vec::new();
    for row in table {
        assert_eq!(paper_half(&row[1]), "O", "{row:?}: Vortex runs all");
        if paper_half(&row[2]) == "X" {
            failures.push((row[0].as_str(), paper_half(&row[3])));
        }
    }
    assert_eq!(failures, TABLE1_HLS_FAILURES);
}

#[test]
fn experiments_table2_paper_cells() {
    let [brams, logic] = &tables("## Table II —")[..] else {
        panic!("two Table II tables")
    };
    for (i, p) in paper::TABLE2.iter().enumerate() {
        let (a, pct) = (p.area, paper::TABLE2_BRAM_PCT[i]);
        let want = format!("{} ({pct}%)", commas(a.brams));
        assert_eq!(brams[i][1], want, "{}: paper BRAMs (util)", p.label);
        assert_eq!(logic[i][1], commas(a.aluts), "{}: paper ALUTs", p.label);
        assert_eq!(logic[i][3], commas(a.ffs), "{}: paper FFs", p.label);
    }
}

#[test]
fn experiments_table3_paper_cells() {
    let [table] = &tables("## Table III —")[..] else {
        panic!("one Table III table")
    };
    assert_eq!(table.len(), paper::TABLE3.len());
    for (row, p) in table.iter().zip(&paper::TABLE3) {
        assert_eq!(row[0], p.label);
        assert_eq!(row[1], commas(p.area.brams), "{}: paper BRAMs", p.label);
        assert_eq!(row[4], commas(p.area.aluts), "{}: paper ALUTs", p.label);
    }
}

#[test]
fn experiments_table4_paper_and_model_cells() {
    let [table] = &tables("## Table IV —")[..] else {
        panic!("one Table IV table")
    };
    assert_eq!(table.len(), paper::TABLE4.len());
    for (row, (cfg, p)) in table.iter().zip(paper::TABLE4) {
        let shape = format!("{},{},{}", cfg.cores, cfg.warps, cfg.threads);
        assert_eq!(row[0], shape);
        let m = vortex_area(&cfg);
        let pairs = [
            (p.aluts, m.aluts),
            (p.ffs, m.ffs),
            (p.brams, m.brams),
            (p.dsps, m.dsps),
        ];
        for (cell, (p, m)) in row[1..].iter().zip(pairs) {
            assert_eq!(*cell, format!("{} / {}", commas(p), commas(m)), "{shape}");
        }
    }
}

#[test]
fn experiments_fig7_claims_paper_cells() {
    let [claims] = &tables("## Figure 7 —")[..] else {
        panic!("one Figure 7 claims table")
    };
    let (vecadd, transpose) = (wt(paper::FIG7_VECADD_BEST), wt(paper::FIG7_TRANSPOSE_BEST));
    // The table drops the paper's "~".
    let pct = |p: paper::Pct| p.to_string().replace('~', "");
    let want = [
        format!("vecadd {vecadd} vs transpose {transpose}"),
        format!(
            "vecadd {transpose} {}",
            pct(paper::FIG7_VECADD_AT_TRANSPOSE_BEST)
        ),
        format!("best at {transpose} vs {vecadd}"),
        format!(
            "{} / {}",
            pct(paper::FIG7_VECADD_AT_BOTH_SUBOPTIMAL),
            pct(paper::FIG7_TRANSPOSE_AT_BOTH_SUBOPTIMAL)
        ),
    ];
    let paper_cells: Vec<&str> = claims.iter().map(|r| r[1].as_str()).collect();
    assert_eq!(paper_cells, want);
}
