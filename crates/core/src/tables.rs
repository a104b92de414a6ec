//! Tables II, III and IV.

use fpga_arch::{paper, vortex_area, Device, ResourceVector, VortexConfig};
use hls_flow::{synthesize, SynthOptions};
use ocl_ir::Module;
use ocl_suite::benches::ml::{BACKPROP_O1, BACKPROP_O2, BACKPROP_ORIGINAL};
use repro_util::{Json, ToJson};

/// One area-report row, with the paper's value for side-by-side output.
#[derive(Debug, Clone)]
pub struct AreaRow {
    pub label: String,
    pub model: ResourceVector,
    pub paper: ResourceVector,
    /// BRAM utilization of the MX2100 in percent (the §III-B headline).
    pub bram_pct: f64,
}

impl ToJson for AreaRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("label", self.label.to_json()),
            ("model", self.model.to_json()),
            ("paper", self.paper.to_json()),
            ("bram_pct", self.bram_pct.to_json()),
        ])
    }
}

fn area_of(src: &str) -> ResourceVector {
    area_of_module(&ocl_front::compile(src).expect("suite source compiles"))
}

/// The MX2100 area of `m`: its synthesized area, or the area it needs when
/// it does not fit.
fn area_of_module(m: &Module) -> ResourceVector {
    match synthesize(m, &Device::mx2100(), &SynthOptions::default()) {
        Ok(r) => r.area,
        Err(hls_flow::SynthFailure::NotEnoughResources { required, .. }) => required,
        Err(other) => panic!("unexpected synthesis failure: {other}"),
    }
}

/// A row of `model` beside the published `paper` area, with its BRAM
/// utilization of `device`.
fn row(
    label: impl Into<String>,
    model: ResourceVector,
    paper: ResourceVector,
    device: &Device,
) -> AreaRow {
    AreaRow {
        label: label.into(),
        bram_pct: device.utilization(&model).brams_pct,
        model,
        paper,
    }
}

/// Table II — backprop synthesis area under the cumulative source
/// optimizations of §III-B (Figure 6's three listings).
pub fn table2() -> Vec<AreaRow> {
    let sources = [BACKPROP_ORIGINAL, BACKPROP_O1, BACKPROP_O2];
    let mx2100 = Device::mx2100();
    paper::TABLE2
        .iter()
        .zip(sources)
        .map(|(p, src)| row(p.label, area_of(src), p.area, &mx2100))
        .collect()
}

/// The automated form of O1: run the IR-level CSE pass on the *original*
/// source and report the area it reaches (the compiler-automation
/// opportunity §IV-B points at). Returns (manual O1 area, automated area).
pub fn table2_automated_o1() -> (ResourceVector, ResourceVector) {
    let mut m = ocl_front::compile(BACKPROP_ORIGINAL).expect("compiles");
    ocl_ir::passes::optimize_module(&mut m, ocl_ir::passes::OptLevel::VariableReuse);
    (area_of(BACKPROP_O1), area_of_module(&m))
}

/// Table III — HLS synthesis area for the four selected benchmarks.
pub fn table3() -> Vec<AreaRow> {
    let benchmarks = ["Vecadd", "Matmul", "Gaussian", "BFS"];
    let mx2100 = Device::mx2100();
    paper::TABLE3
        .iter()
        .zip(benchmarks)
        .map(|(p, name)| {
            let b = ocl_suite::benchmark(name).expect("benchmark exists");
            row(p.label, area_of(b.source), p.area, &mx2100)
        })
        .collect()
}

/// Table IV — Vortex synthesis area across (C, W, T) configurations.
pub fn table4() -> Vec<(VortexConfig, AreaRow)> {
    let sx2800 = Device::sx2800();
    paper::TABLE4
        .iter()
        .map(|&(cfg, area)| (cfg, row(cfg.to_string(), vortex_area(&cfg), area, &sx2800)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_monotone_reduction_matches_paper_shape() {
        let rows = table2();
        assert_eq!(rows.len(), 3);
        let brams: Vec<u64> = rows.iter().map(|r| r.model.brams).collect();
        // Cumulative optimizations strictly reduce BRAM.
        assert!(brams[0] > brams[1] && brams[1] > brams[2], "{brams:?}");
        // Original over budget, O1 still over, O2 fits — the paper's
        // 188% → 144% → 83% story.
        assert!(rows[0].bram_pct > 100.0, "{}", rows[0].bram_pct);
        assert!(rows[1].bram_pct > 100.0, "{}", rows[1].bram_pct);
        assert!(rows[2].bram_pct < 100.0, "{}", rows[2].bram_pct);
        // Within 25% of the paper's absolute numbers on every step.
        for r in &rows {
            let paper = r.paper;
            assert!(
                paper::rel_err(r.model.brams, paper.brams) < paper::TABLE2_BRAM_TOL,
                "{}: model {} paper {}",
                r.label,
                r.model.brams,
                paper.brams
            );
        }
    }

    #[test]
    fn automated_o1_matches_manual_rewrite() {
        let (manual, auto) = table2_automated_o1();
        // The CSE pass must reach the same LSU count as the hand rewrite
        // (identical BRAM), validating the §IV-B automation claim.
        assert_eq!(
            auto.brams, manual.brams,
            "automated O1 {} vs manual {}",
            auto.brams, manual.brams
        );
    }

    #[test]
    fn table3_within_tolerance_and_ordered_like_paper() {
        let rows = table3();
        for r in &rows {
            let paper = r.paper;
            assert!(
                paper::rel_err(r.model.brams, paper.brams) < paper::TABLE3_BRAM_TOL,
                "{}: BRAM {} vs paper {}",
                r.label,
                r.model.brams,
                paper.brams
            );
        }
        // Relative ordering: Vecadd < Matmul < BFS <= Gauss (paper's shape).
        assert!(rows[0].model.brams < rows[1].model.brams);
        assert!(rows[1].model.brams < rows[3].model.brams);
        assert!(rows[3].model.brams <= rows[2].model.brams + 600);
    }

    #[test]
    fn table4_exact_brams_dsps() {
        for (cfg, r) in table4() {
            let paper = r.paper;
            assert_eq!(r.model.brams, paper.brams, "{cfg}");
            assert_eq!(r.model.dsps, paper.dsps, "{cfg}");
        }
    }
}
