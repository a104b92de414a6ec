//! The benchmark's metric names, units and bounds — the same tables
//! `BENCHMARK.json` carries (a unit test keeps the two in step).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, the same on every workload.
///
/// The timed bounds are the contract's widest, not the issue's 7 %/10 %:
/// on the two-core shared reference host the best 20 s estimator still
/// moves by 4–9 % (inter-quartile, ten seeds) between identical runs, and
/// a bound must be about three times the spread to mean anything.
///
/// The issue's `fail_frac` is not among them: it is 0 on every accepted
/// run, which the benchmark contract forbids for a metric, and the result
/// line's `failed`/`attempted` carry it. Its `sim_cycles_total` is reported
/// per job so that it does not grow with the length of the run.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "jobs_per_s",
        unit: "jobs/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "batch_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "batch_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_cycles_per_job",
        unit: "cycles",
        better: Better::Lower,
        bound: 0.001,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count the program makes that must repeat exactly from run to run
    /// of one commit with one seed.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics; a layer is a crate directory name.
pub const PER_LAYER: [PerLayer; 62] = [
    timed("util.json_parse_s", "s", Lower),
    timed("util.json_parse_mb_per_s", "MB/s", Higher),
    timed("util.json_emit_s", "s", Lower),
    timed("sched.request_parse_s", "s", Lower),
    timed("sched.outcome_emit_s", "s", Lower),
    timed("sched.noop_job_us", "us", Lower),
    timed("sched.steals", "count", Lower),
    timed("sched.parks", "count", Lower),
    timed("sched.speedup_2w", "ratio", Higher),
    timed("core.serve_overhead_us_per_job", "us", Lower),
    timed("core.queue_wait_mean_ms", "ms", Lower),
    exact("cache.miss_count", "count", Lower),
    timed("cache.miss_overhead_s", "s", Lower),
    timed("cache.disk_overhead_s", "s", Lower),
    exact("cache.artifact_bytes", "bytes", Lower),
    exact("cache.evictions", "count", Lower),
    exact("cache.hit_count", "count", Higher),
    timed("cache.hit_s", "s", Lower),
    exact("cache.hit_rate", "ratio", Higher),
    timed("frontend.compile_s", "s", Lower),
    exact("frontend.kernels", "count", Higher),
    timed("frontend.src_kb_per_s", "KB/s", Higher),
    timed("ir.optimize_s", "s", Lower),
    exact("ir.rewrites", "count", Higher),
    exact("ir.insts_after", "count", Lower),
    timed("ir.interp_s", "s", Lower),
    timed("ir.interp_msteps_per_s", "Msteps/s", Higher),
    timed("vortex-cc.codegen_s", "s", Lower),
    exact("vortex-cc.instrs_emitted", "count", Lower),
    timed("vortex-rt.session_s", "s", Lower),
    timed("vortex-sim.run_s", "s", Lower),
    timed("vortex-sim.minstr_per_s", "Minstr/s", Higher),
    timed("vortex-sim.mcycles_per_s", "Mcycles/s", Higher),
    exact("vortex-sim.instructions", "count", Lower),
    exact("vortex-sim.cycles", "cycles", Lower),
    exact("vortex-sim.ipc", "instr/cycle", Higher),
    exact("vortex-sim.dcache_hit_rate", "ratio", Higher),
    exact("vortex-sim.l2_hit_rate", "ratio", Higher),
    exact("vortex-sim.dram_accesses", "count", Lower),
    exact("vortex-sim.stall_scoreboard_frac", "ratio", Lower),
    exact("vortex-sim.stall_lsu_frac", "ratio", Lower),
    exact("vortex-sim.stall_barrier_frac", "ratio", Lower),
    exact("vortex-sim.stall_idle_frac", "ratio", Lower),
    exact("vortex-sim.tcache_hit_rate", "ratio", Higher),
    timed("vortex-sim.fast_vs_dense", "ratio", Higher),
    timed("vortex-sim.par2_speedup", "ratio", Higher),
    timed("hls.synthesize_s", "s", Lower),
    timed("hls.execute_s", "s", Lower),
    timed("hls.estimate_s", "s", Lower),
    exact("hls.fit_count", "count", Higher),
    timed("suite.workload_build_s", "s", Lower),
    timed("suite.verify_s", "s", Lower),
    timed("suite.run_oneshot_s", "s", Lower),
    timed("obs.armed_overhead_frac", "ratio", Lower),
    exact("obs.spans_per_job", "count", Lower),
    timed("bench.client_frac", "ratio", Lower),
    timed("bench.trace_overhead_frac", "ratio", Lower),
    timed("bench.unattributed_frac", "ratio", Lower),
    timed("bench.layer_jobs", "count", Higher),
    timed("bench.e2e_batches", "count", Higher),
    timed("bench.diff_sampled", "count", Higher),
    timed("bench.layer_pass_s", "s", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Workload;
    use repro_util::Json;

    /// `BENCHMARK.json` is what the driver reads; the tables above are what
    /// the program prints. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("parses");
        let list = |k: &str| doc.get(k).and_then(Json::as_array).expect(k).to_vec();
        let s = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).expect(k).to_string();

        let workloads: Vec<String> = list("workloads").iter().map(|w| s(w, "name")).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(s(j, "name"), m.name);
            assert_eq!(s(j, "unit"), m.unit, "{}", m.name);
            assert_eq!(s(j, "better"), m.better.as_str(), "{}", m.name);
            assert_eq!(
                j.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(s(j, "name"), m.name);
            assert_eq!(s(j, "unit"), m.unit, "{}", m.name);
            assert_eq!(s(j, "better"), m.better.as_str(), "{}", m.name);
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }
}
