//! Table I — benchmark coverage of both flows.

use crate::check::CheckRow;
use fpga_arch::Device;
use ocl_suite::ReproError;
use repro_util::{Json, ToJson};

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct CoverageRow {
    pub name: String,
    /// Vortex outcome: `Ok(cycles)` or the failure message.
    pub vortex: Result<u64, String>,
    /// HLS outcome: `Ok(brams)` or the failure reason ("Not enough BRAM" /
    /// "Atomics"), with wall-clock hours either way.
    pub hls: Result<u64, String>,
    pub hls_hours: f64,
}

impl ToJson for CoverageRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("vortex", self.vortex.to_json()),
            ("hls", self.hls.to_json()),
            ("hls_hours", self.hls_hours.to_json()),
        ])
    }
}

impl CoverageRow {
    pub fn vortex_ok(&self) -> bool {
        self.vortex.is_ok()
    }

    pub fn hls_ok(&self) -> bool {
        self.hls.is_ok()
    }

    /// The paper's "Reason to Fail" column.
    pub fn fail_reason(&self) -> String {
        match (&self.vortex, &self.hls) {
            (_, Err(r)) => r.clone(),
            (Err(r), _) => format!("vortex: {r}"),
            _ => String::new(),
        }
    }
}

/// Table I's view of a [`crate::check_suite_on`] sweep.
///
/// * Vortex is *executed* on the sweep's configuration (synthesizable per
///   Table IV): coverage means the binary actually runs and verifies.
/// * HLS is *synthesized* for the MX2100 like the paper; passing benchmarks
///   also execute the pipelined model and verify. The BRAMs and hours of a
///   passing benchmark are the synthesis report its job left in the compile
///   cache; a rejected one carries its reason and hours in its error.
pub fn coverage_table(checks: &[CheckRow]) -> Vec<CoverageRow> {
    let device = Device::mx2100();
    checks
        .iter()
        .map(|c| {
            let vortex = c.vortex.outcome.as_ref().map(|s| s.cycles);
            let (hls, hls_hours) = match &c.hls.outcome {
                Ok(_) => match synth_report(&c.name, &device) {
                    Ok(r) => (Ok(r.area.brams), r.hours),
                    Err(e) => (Err(format!("harness: {e}")), 0.0),
                },
                Err(ReproError::Synthesis { reason, hours }) => (Err(reason.clone()), *hours),
                Err(e) => (Err(format!("harness: {e}")), 0.0),
            };
            CoverageRow {
                name: c.name.clone(),
                vortex: vortex.map_err(ToString::to_string),
                hls,
                hls_hours,
            }
        })
        .collect()
}

/// The synthesis report of a benchmark whose HLS job passed.
fn synth_report(name: &str, device: &Device) -> Result<hls_flow::SynthReport, String> {
    let b = ocl_suite::benchmark(name).ok_or("unknown benchmark")?;
    match repro_cache::global().synthesize_hls(b.source, device) {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(f)) => Err(f.to_string()),
        Err(e) => Err(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::tests::suite_sweep;
    use fpga_arch::paper;

    /// Table I built from the test binary's one whole-suite sweep, which
    /// `check_covers_all_benchmarks_fail_soft` also checks.
    #[test]
    fn coverage_reproduces_table1() {
        let rows = coverage_table(suite_sweep());
        assert_eq!(rows.len(), paper::TABLE1_BENCHMARKS);
        // Vortex column: all O.
        for r in &rows {
            assert!(r.vortex_ok(), "{}: {:?}", r.name, r.vortex);
        }
        // Intel SDK column: exactly the paper's six failures.
        let failures: Vec<(&str, String)> = rows
            .iter()
            .filter(|r| !r.hls_ok())
            .map(|r| (r.name.as_str(), r.fail_reason()))
            .collect();
        let expected = paper::TABLE1_HLS_FAILURES.map(|(name, reason)| (name, reason.to_string()));
        assert_eq!(failures, expected);
        // Failures are fast, successes slow (§IV-B).
        for r in &rows {
            if r.hls_ok() {
                assert!(
                    r.hls_hours > paper::SYNTH_HOURS_SUCCESS_MIN,
                    "{}: {}",
                    r.name,
                    r.hls_hours
                );
            } else if !r.fail_reason().contains("harness") {
                assert!(
                    r.hls_hours < paper::SYNTH_HOURS_FAILURE_MAX,
                    "{}: {}",
                    r.name,
                    r.hls_hours
                );
            }
        }
    }
}
