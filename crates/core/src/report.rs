//! The markdown table model, [`Table`], and the renderers of the paper's
//! artifacts built on it: Table I, the area tables, Table IV, the Figure 7
//! grid and the `repro profile` report. Every markdown table the `repro`
//! binary and the examples print is a [`Table`]; titles and prose lines
//! stay with the code that prints them.

use crate::coverage::CoverageRow;
use crate::fig7::{Fig7Grid, Fig7Summary};
use crate::tables::AreaRow;
use fpga_arch::paper::{self, beside};
use fpga_arch::VortexConfig;
use std::fmt::{self, Write};
use vortex_sim::LaunchProfile;

/// A markdown table: columns, each a header and an alignment, and rows with
/// one cell per column. `Display` renders it one line per row, each line
/// `| a | b |`, with the rule row `|---|---:|` under the header marking the
/// right-aligned columns.
#[derive(Debug, Clone)]
pub struct Table {
    /// The header row, then the rows in the order they were added.
    lines: Vec<Vec<String>>,
    /// Whether each column is right-aligned.
    right: Vec<bool>,
}

impl Table {
    /// A table with these column headers, every column left-aligned.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Table {
        let header: Vec<String> = headers.into_iter().map(Into::into).collect();
        let right = vec![false; header.len()];
        Table {
            lines: vec![header],
            right,
        }
    }

    /// Right-align the columns at `cols`.
    pub fn right(mut self, cols: std::ops::Range<usize>) -> Table {
        self.right[cols].fill(true);
        self
    }

    /// Append a row. Panics unless it has one cell per column.
    pub fn row<S: ToString>(&mut self, cells: impl IntoIterator<Item = S>) {
        let row: Vec<String> = cells.into_iter().map(|c| c.to_string()).collect();
        assert_eq!(row.len(), self.right.len(), "one cell per column");
        self.lines.push(row);
    }

    /// Keep only the columns whose header satisfies `keep`, with their
    /// cells in every row.
    pub fn retain_columns(&mut self, keep: impl Fn(&str) -> bool) {
        let kept: Vec<bool> = self.lines[0].iter().map(|h| keep(h)).collect();
        for line in &mut self.lines {
            let mut k = kept.iter();
            line.retain(|_| *k.next().unwrap());
        }
        let mut k = kept.iter();
        self.right.retain(|_| *k.next().unwrap());
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rule: Vec<&str> = self
            .right
            .iter()
            .map(|&r| if r { "---:" } else { "---" })
            .collect();
        for (i, line) in self.lines.iter().enumerate() {
            writeln!(f, "| {} |", line.join(" | "))?;
            if i == 0 {
                writeln!(f, "|{}|", rule.join("|"))?;
            }
        }
        Ok(())
    }
}

/// Table I's summary line: how many of `rows` each flow passes, beside the
/// paper's counts.
pub fn render_table1_summary(rows: &[CoverageRow]) -> String {
    let count = |ok: fn(&CoverageRow) -> bool| rows.iter().filter(|r| ok(r)).count();
    let (n, all) = (rows.len(), paper::TABLE1_BENCHMARKS);
    let (v, pv) = (count(CoverageRow::vortex_ok), paper::TABLE1_VORTEX_PASSES);
    let (h, ph) = (count(CoverageRow::hls_ok), paper::TABLE1_HLS_PASSES);
    format!(
        "Vortex: {}; Intel SDK: {}\n",
        beside(format!("{v}/{n} pass"), format!("{pv}/{all}")),
        beside(format!("{h}/{n} pass"), format!("{ph}/{all}")),
    )
}

/// Render Table I as markdown.
pub fn render_table1(rows: &[CoverageRow]) -> String {
    let mut t = Table::new(["Benchmark", "Vortex", "Intel SDK", "Reason to Fail"]);
    let mark = |ok| if ok { "O" } else { "X" };
    for r in rows {
        t.row([
            r.name.as_str(),
            mark(r.vortex_ok()),
            mark(r.hls_ok()),
            &r.fail_reason(),
        ]);
    }
    t.to_string()
}

/// Render an area table (Tables II / III) as markdown with paper deltas.
pub fn render_area_table(title: &str, rows: &[AreaRow]) -> String {
    let mut t = Table::new([
        "Row",
        "ALUTs",
        "FFs",
        "BRAMs",
        "DSPs",
        "BRAM util",
        "paper BRAMs",
        "Δ",
    ]);
    for r in rows {
        let (m, p) = (&r.model, &r.paper);
        let delta = 100.0 * (m.brams as f64 - p.brams as f64) / p.brams as f64;
        let mut cells = vec![r.label.clone()];
        cells.extend([m.aluts, m.ffs, m.brams, m.dsps].map(|n| n.to_string()));
        let util = format!("{:.0}%", r.bram_pct);
        cells.extend([util, p.brams.to_string(), format!("{delta:+.1}%")]);
        t.row(cells);
    }
    format!("### {title}\n{t}")
}

/// Render Table IV as markdown.
pub fn render_table4(rows: &[(VortexConfig, AreaRow)]) -> String {
    let mut t = Table::new([
        "C",
        "W",
        "T",
        "ALUTs",
        "FFs",
        "BRAMs",
        "DSPs",
        "paper ALUTs",
        "paper BRAMs",
    ]);
    for (cfg, r) in rows {
        let (m, p) = (&r.model, &r.paper);
        let shape = [cfg.cores, cfg.warps, cfg.threads].map(u64::from);
        t.row(
            shape
                .into_iter()
                .chain([m.aluts, m.ffs, m.brams, m.dsps, p.aluts, p.brams]),
        );
    }
    t.to_string()
}

/// Render a Figure 7 grid as a normalized-cycles heat table (warps down,
/// threads across), like the paper's color map.
pub fn render_fig7(grid: &Fig7Grid) -> String {
    let mut warps: Vec<u32> = grid.cells.iter().map(|c| c.warps).collect();
    warps.dedup();
    let mut threads: Vec<u32> = grid.cells.iter().map(|c| c.threads).collect();
    threads.sort_unstable();
    threads.dedup();
    let headers = threads.iter().map(u32::to_string);
    let mut t = Table::new(std::iter::once("warps \\\\ threads".to_string()).chain(headers));
    for w in &warps {
        let cells = threads.iter().map(|th| match grid.cell(*w, *th) {
            Some(c) => format!("{:.2}", c.normalized),
            None => "-".to_string(),
        });
        t.row(std::iter::once(w.to_string()).chain(cells));
    }
    format!(
        "### Figure 7 — {} ({} cores, cycles normalized to minimum)\n{t}",
        grid.benchmark, grid.cores
    )
}

/// One launch's slice of a `repro profile` report.
pub struct ProfileSection {
    /// Kernel name of the launch.
    pub kernel: String,
    /// Aggregated trace profile of the launch.
    pub profile: LaunchProfile,
    /// Disassembly text per instruction index; empty renders pc-only rows.
    pub disasm: Vec<String>,
}

/// Render the `repro profile` report: per-launch stall attribution with
/// the top stall sources first, then the hot-PC histogram (top `top_n`
/// rows of each).
pub fn render_profile(bench: &str, sections: &[ProfileSection], top_n: usize) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "## Profile — {bench}");
    for (li, sec) in sections.iter().enumerate() {
        let p = &sec.profile;
        let stall_total = p.stall_total();
        let live = p.instructions + stall_total;
        let _ = writeln!(s, "\n### Launch {li} — `{}`", sec.kernel);
        let _ = writeln!(
            s,
            "\n{} instructions, {} stall cycles ({} live cycles across {} cores)",
            p.instructions,
            stall_total,
            live,
            p.per_core.len()
        );
        let _ = writeln!(
            s,
            "dcache {}/{} hits, l2 {}/{} hits, dram {} ({} row hits), \
             {} barriers, {} wspawns",
            p.dcache_hits,
            p.dcache_hits + p.dcache_misses,
            p.l2_hits,
            p.l2_hits + p.l2_misses,
            p.dram_accesses,
            p.dram_row_hits,
            p.barrier_arrivals,
            p.wspawns
        );
        let mut stalls = Table::new(["rank", "source", "cycles", "share of stalls"]);
        for (rank, (kind, cycles)) in p.stall_ranking().into_iter().take(top_n).enumerate() {
            let share = if stall_total > 0 {
                100.0 * cycles as f64 / stall_total as f64
            } else {
                0.0
            };
            stalls.row([
                (rank + 1).to_string(),
                kind.label().to_string(),
                cycles.to_string(),
                format!("{share:.1}%"),
            ]);
        }
        let mut hot = Table::new(["pc", "instruction", "issues", "share"]);
        for &(pc, count) in p.hot_pcs.iter().take(top_n) {
            let text = sec
                .disasm
                .get(pc as usize)
                .map(String::as_str)
                .unwrap_or("?");
            let share = 100.0 * count as f64 / p.instructions.max(1) as f64;
            hot.row([
                pc.to_string(),
                format!("`{text}`"),
                count.to_string(),
                format!("{share:.1}%"),
            ]);
        }
        let _ = write!(s, "\nTop stall sources:\n{stalls}\nHot PCs:\n{hot}");
    }
    s
}

/// Render the §III-C summary sentence comparisons.
pub fn render_fig7_summary(sm: &Fig7Summary) -> String {
    use paper::*;
    let wt = |(w, t): (u32, u32)| format!("{w}w{t}t");
    let pct = |p: f64| format!("{p:+.0}%");
    let (v, t) = (FIG7_VECADD_BEST, FIG7_TRANSPOSE_BEST);
    let (v_both, t_both) = (pct(sm.vecadd_8w4t_pct), pct(sm.transpose_8w4t_pct));
    format!(
        "vecadd best: {}; transpose best: {}\n\
         vecadd @{}: {}; transpose @{}: {}\n\
         @{}: {}\n",
        beside(wt(sm.vecadd_best), wt(v)),
        beside(wt(sm.transpose_best), wt(t)),
        wt(t),
        beside(pct(sm.vecadd_8w8t_pct), FIG7_VECADD_AT_TRANSPOSE_BEST),
        wt(v),
        beside(pct(sm.transpose_4w4t_pct), FIG7_TRANSPOSE_AT_VECADD_BEST),
        wt(FIG7_BOTH_SUBOPTIMAL),
        beside(
            format!("vecadd {v_both} / transpose {t_both}"),
            format!("{FIG7_VECADD_AT_BOTH_SUBOPTIMAL} / {FIG7_TRANSPOSE_AT_BOTH_SUBOPTIMAL}")
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig7::Fig7Cell;
    use fpga_arch::ResourceVector;

    #[test]
    fn table1_rendering_contains_marks() {
        let rows = vec![CoverageRow {
            name: "Lbm".into(),
            vortex: Ok(123),
            hls: Err("Not enough BRAM".into()),
            hls_hours: 1.4,
        }];
        let s = render_table1(&rows);
        assert!(s.contains("| Lbm | O | X | Not enough BRAM |"), "{s}");
        let s = render_table1_summary(&rows);
        assert!(
            s.starts_with("Vortex: 1/1 pass (") && s.contains("; Intel SDK: 0/1 pass ("),
            "{s}"
        );
    }

    #[test]
    fn area_table_shows_delta() {
        let rows = vec![AreaRow {
            label: "x".into(),
            model: ResourceVector::new(1, 2, 110, 4),
            paper: ResourceVector::new(1, 2, 100, 4),
            bram_pct: 1.6,
        }];
        let s = render_area_table("T", &rows);
        assert!(s.contains("+10.0%"), "{s}");
    }

    #[test]
    fn profile_report_ranks_stalls_and_pcs() {
        use vortex_sim::{StallKind, TraceEvent};
        let events = vec![
            TraceEvent::Issue {
                core: 0,
                warp: 0,
                cycle: 0,
                pc: 1,
            },
            TraceEvent::Issue {
                core: 0,
                warp: 0,
                cycle: 1,
                pc: 1,
            },
            TraceEvent::Issue {
                core: 0,
                warp: 1,
                cycle: 2,
                pc: 0,
            },
            TraceEvent::Stall {
                core: 0,
                kind: StallKind::LsuFull,
                from: 3,
                to: 9,
            },
        ];
        let sections = vec![ProfileSection {
            kernel: "k".into(),
            profile: LaunchProfile::from_events(&events),
            disasm: vec!["nop".into(), "add x8, x8, x9".into()],
        }];
        let s = render_profile("bench", &sections, 3);
        assert!(s.contains("### Launch 0 — `k`"), "{s}");
        assert!(s.contains("| 1 | lsu | 6 | 100.0% |"), "{s}");
        assert!(s.contains("| 1 | `add x8, x8, x9` | 2 | 66.7% |"), "{s}");
    }

    #[test]
    fn fig7_grid_renders_matrix() {
        let g = Fig7Grid {
            benchmark: "Vecadd".into(),
            cores: 4,
            cells: vec![
                Fig7Cell {
                    warps: 2,
                    threads: 2,
                    cycles: 100,
                    normalized: 1.0,
                },
                Fig7Cell {
                    warps: 2,
                    threads: 4,
                    cycles: 150,
                    normalized: 1.5,
                },
            ],
        };
        let s = render_fig7(&g);
        assert!(s.contains("1.00"), "{s}");
        assert!(s.contains("1.50"), "{s}");
    }
}
