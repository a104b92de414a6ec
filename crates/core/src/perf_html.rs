//! Self-contained HTML rendering of the perf-regression dashboard.
//!
//! One file, no external assets, no JavaScript: CSS custom properties carry
//! the palette (light + `prefers-color-scheme: dark`), bars are plain divs
//! sized server-side, and every chart has the same data as an adjacent
//! table so nothing is color-only. Single-series charts carry no legend —
//! the section title names the series. Status is icon + label, never color
//! alone.

use crate::perf_report::{Comparison, PerfReport};

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

fn ms(secs: f64) -> String {
    format!("{:.2}", secs * 1e3)
}

const STYLE: &str = r#"
:root {
  --surface: #ffffff; --surface-raised: #f6f8fa;
  --ink: #1a2330; --ink-2: #4b5563; --ink-muted: #768494;
  --border: #d9dee5;
  --accent: #2a78d6;            /* primary series (blue) */
  --accent-soft: #cfe1f7;       /* light end of the sequential ramp */
  --good: #1a7f37; --bad: #b42318;
  --good-bg: #e6f4ea; --bad-bg: #fbeae9;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #11161d; --surface-raised: #1a212b;
    --ink: #e6ebf1; --ink-2: #b3bdc9; --ink-muted: #8292a3;
    --border: #2c3643;
    --accent: #3987e5;
    --accent-soft: #1f3a5c;
    --good: #4ac26b; --bad: #ff8a80;
    --good-bg: #11281a; --bad-bg: #33191c;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--surface); color: var(--ink);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
main { max-width: 960px; margin: 0 auto; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 28px 0 8px; }
.meta { color: var(--ink-muted); margin-bottom: 16px; }
.tiles { display: flex; gap: 12px; flex-wrap: wrap; margin: 16px 0; }
.tile {
  background: var(--surface-raised); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 160px;
}
.tile .v { font-size: 22px; font-weight: 600; }
.tile .k { color: var(--ink-muted); font-size: 12px; }
.tile.bad .v { color: var(--bad); }
.tile.good .v { color: var(--good); }
.bars { margin: 8px 0 4px; }
.barrow { display: flex; align-items: center; gap: 8px; margin: 3px 0; }
.barrow .lbl { flex: 0 0 220px; text-align: right; color: var(--ink-2);
  font-size: 12px; overflow: hidden; text-overflow: ellipsis; white-space: nowrap; }
.barrow .track { flex: 1; background: none; }
.barrow .fill {
  height: 14px; background: var(--accent); border-radius: 0 4px 4px 0;
  min-width: 2px;
}
.barrow .val { flex: 0 0 90px; font-size: 12px; color: var(--ink-2); }
table { border-collapse: collapse; width: 100%; margin: 8px 0; font-size: 13px; }
th, td { border-bottom: 1px solid var(--border); padding: 4px 8px; text-align: left; }
th { color: var(--ink-muted); font-weight: 600; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.status { display: inline-block; padding: 1px 8px; border-radius: 10px; font-size: 12px; }
.status.ok { background: var(--good-bg); color: var(--good); }
.status.fail { background: var(--bad-bg); color: var(--bad); }
.note { color: var(--ink-muted); font-size: 12px; margin: 4px 0; }
details summary { cursor: pointer; color: var(--ink-2); margin: 8px 0; }
"#;

fn bar_block(rows: &[(String, f64, String)]) -> String {
    let max = rows.iter().map(|r| r.1).fold(0.0_f64, f64::max).max(1e-12);
    let mut s = String::from("<div class=\"bars\">\n");
    for (label, value, text) in rows {
        let pct = (value / max * 100.0).clamp(0.2, 100.0);
        s.push_str(&format!(
            "<div class=\"barrow\" title=\"{l}: {t}\"><span class=\"lbl\">{l}</span>\
             <span class=\"track\"><span class=\"fill\" style=\"display:block;width:{pct:.1}%\">\
             </span></span><span class=\"val\">{t}</span></div>\n",
            l = esc(label),
            t = esc(text),
        ));
    }
    s.push_str("</div>\n");
    s
}

/// Render the whole dashboard as one self-contained HTML document.
pub fn render_perf_html(r: &PerfReport, cmp: Option<&Comparison>) -> String {
    let mut b = String::new();
    b.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    b.push_str("<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\n");
    b.push_str("<title>repro perf report</title>\n<style>");
    b.push_str(STYLE);
    b.push_str("</style>\n</head>\n<body>\n<main>\n");
    b.push_str("<h1>Pipeline performance report</h1>\n");
    b.push_str(&format!(
        "<p class=\"meta\">{} benchmarks &middot; {} pipeline stages</p>\n",
        r.rows.len(),
        r.stages.len()
    ));

    // Headline tiles.
    let ok_rows = r
        .rows
        .iter()
        .filter(|row| row.vortex.is_ok() && row.hls.is_ok())
        .count();
    let total_wall: f64 = r
        .rows
        .iter()
        .map(|row| row.vortex.wall_secs + row.hls.wall_secs)
        .sum();
    b.push_str("<div class=\"tiles\">\n");
    b.push_str(&format!(
        "<div class=\"tile\"><div class=\"v\">{}/{}</div>\
         <div class=\"k\">benchmarks pass on both flows</div></div>\n",
        ok_rows,
        r.rows.len()
    ));
    b.push_str(&format!(
        "<div class=\"tile\"><div class=\"v\">{} ms</div>\
         <div class=\"k\">total suite wall-clock</div></div>\n",
        ms(total_wall)
    ));
    if let Some(cmp) = cmp {
        let (cls, icon, word) = if cmp.regressions.is_empty() {
            ("good", "&#10003;", "no regressions")
        } else {
            ("bad", "&#9650;", "regressed")
        };
        b.push_str(&format!(
            "<div class=\"tile {cls}\"><div class=\"v\">{icon} {}</div>\
             <div class=\"k\">{} of {} tracked metrics (manifest baseline, \
             threshold {:.0}%)</div></div>\n",
            word,
            cmp.regressions.len(),
            cmp.deltas.len(),
            cmp.threshold * 100.0
        ));
    }
    b.push_str("</div>\n");

    // Per-stage time breakdown (single series: no legend, title names it).
    b.push_str("<h2>Pipeline stage time (total ms)</h2>\n");
    let mut stages: Vec<_> = r.stages.iter().collect();
    stages.sort_by(|a, b| {
        b.total_secs
            .partial_cmp(&a.total_secs)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let stage_rows: Vec<(String, f64, String)> = stages
        .iter()
        .map(|st| {
            (
                st.name.clone(),
                st.total_secs,
                format!("{} ms ({}x)", ms(st.total_secs), st.count),
            )
        })
        .collect();
    b.push_str(&bar_block(&stage_rows));
    b.push_str("<details><summary>Stage table (count, total, p50, p95, max)</summary>\n");
    b.push_str(
        "<table><tr><th>stage</th><th class=\"num\">count</th><th class=\"num\">total ms</th>\
         <th class=\"num\">p50 ms</th><th class=\"num\">p95 ms</th><th class=\"num\">max ms</th></tr>\n",
    );
    for st in &stages {
        b.push_str(&format!(
            "<tr><td>{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td>\
             <td class=\"num\">{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td></tr>\n",
            esc(&st.name),
            st.count,
            ms(st.total_secs),
            ms(st.p50_secs),
            ms(st.p95_secs),
            ms(st.max_secs)
        ));
    }
    b.push_str("</table></details>\n");

    // Slowest benchmarks.
    b.push_str("<h2>Slowest benchmarks (host wall-clock, both flows)</h2>\n");
    let mut slowest: Vec<_> = r.rows.iter().collect();
    slowest.sort_by(|a, b| {
        (b.vortex.wall_secs + b.hls.wall_secs)
            .partial_cmp(&(a.vortex.wall_secs + a.hls.wall_secs))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let bench_rows: Vec<(String, f64, String)> = slowest
        .iter()
        .take(8)
        .map(|row| {
            let total = row.vortex.wall_secs + row.hls.wall_secs;
            (row.name.clone(), total, format!("{} ms", ms(total)))
        })
        .collect();
    b.push_str(&bar_block(&bench_rows));

    // Full suite table with status icon + label.
    b.push_str("<details><summary>Full benchmark table</summary>\n");
    b.push_str(
        "<table><tr><th>benchmark</th><th class=\"num\">vortex cycles</th>\
         <th class=\"num\">vortex ms</th><th class=\"num\">hls cycles</th>\
         <th class=\"num\">hls ms</th><th>status</th></tr>\n",
    );
    for row in &r.rows {
        let classes = row.failure_classes();
        let status = if classes.is_empty() {
            "<span class=\"status ok\">&#10003; ok</span>".to_string()
        } else {
            format!(
                "<span class=\"status fail\">&#10007; {}</span>",
                esc(&classes
                    .iter()
                    .map(|c| c.name())
                    .collect::<Vec<_>>()
                    .join(", "))
            )
        };
        let num = |v: Option<u64>| v.map_or("-".to_string(), |x| x.to_string());
        b.push_str(&format!(
            "<tr><td>{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td>\
             <td class=\"num\">{}</td><td class=\"num\">{}</td><td>{}</td></tr>\n",
            esc(&row.name),
            num(row.vortex.cycles()),
            ms(row.vortex.wall_secs),
            num(row.hls.cycles()),
            ms(row.hls.wall_secs),
            status
        ));
    }
    b.push_str("</table></details>\n");

    // Baseline comparison.
    if let Some(cmp) = cmp {
        b.push_str("<h2>Baseline comparison (manifest)</h2>\n");
        b.push_str(
            "<table><tr><th>metric</th><th class=\"num\">baseline</th>\
             <th class=\"num\">current</th><th class=\"num\">ratio</th><th>verdict</th></tr>\n",
        );
        let mut sorted: Vec<_> = cmp.deltas.iter().collect();
        sorted.sort_by(|a, b| {
            b.regressed(cmp.threshold)
                .cmp(&a.regressed(cmp.threshold))
                .then(
                    (b.ratio() - 1.0)
                        .abs()
                        .partial_cmp(&(a.ratio() - 1.0).abs())
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
        });
        for d in sorted.iter().take(30) {
            let verdict = if d.regressed(cmp.threshold) {
                "<span class=\"status fail\">&#9650; REGRESSED</span>"
            } else {
                "<span class=\"status ok\">&#10003; ok</span>"
            };
            b.push_str(&format!(
                "<tr><td>{}</td><td class=\"num\">{:.4}</td><td class=\"num\">{:.4}</td>\
                 <td class=\"num\">{:.2}x</td><td>{}</td></tr>\n",
                esc(&d.metric),
                d.baseline,
                d.current,
                d.ratio(),
                verdict
            ));
        }
        b.push_str("</table>\n");
        if cmp.deltas.len() > 30 {
            b.push_str(&format!(
                "<p class=\"note\">{} more metrics within threshold.</p>\n",
                cmp.deltas.len() - 30
            ));
        }
        for sk in &cmp.skipped {
            b.push_str(&format!("<p class=\"note\">skipped: {}</p>\n", esc(sk)));
        }
    }

    b.push_str("</main>\n</body>\n</html>\n");
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{CheckRow, FlowCheck, FlowStats};
    use crate::perf_report::{PerfReport, StagePerf};

    #[test]
    fn html_is_self_contained_and_escapes() {
        let r = PerfReport {
            rows: vec![CheckRow {
                name: "A<b>".to_string(),
                vortex: FlowCheck {
                    outcome: Ok(FlowStats {
                        cycles: 10,
                        instructions: 5,
                    }),
                    wall_secs: 0.01,
                },
                hls: FlowCheck {
                    outcome: Ok(FlowStats {
                        cycles: 30,
                        instructions: 10,
                    }),
                    wall_secs: 0.02,
                },
            }],
            stages: vec![StagePerf {
                name: "frontend.parse".to_string(),
                count: 2,
                total_secs: 0.004,
                p50_secs: 0.002,
                p95_secs: 0.003,
                max_secs: 0.003,
            }],
            workers: 1,
        };
        let html = render_perf_html(&r, None);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("prefers-color-scheme: dark"));
        assert!(html.contains("A&lt;b&gt;"));
        assert!(!html.contains("<script"));
        assert!(html.ends_with("</html>\n"));
    }
}
