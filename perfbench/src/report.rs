//! Metric specifications and the one-line JSON result.

use std::collections::BTreeMap;

use ecdp::system::SystemKind;
use sim_core::Json;

use crate::{metric_label, FIG7_SYSTEMS};

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
///
/// A "job" is the unit of work a workload submits: one grid cell on the
/// grids, one POSTed sweep on `service-mixed`, and the whole mix study
/// (both systems) on `quad-core`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("sim_minst_per_s", "Minst/s"),
    ("peak_rss_mib", "MiB"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("jobs_per_s", "1/s"),
];

/// The two multi-core systems of the `quad-core` workload.
pub const QUAD_SYSTEMS: [SystemKind; 2] = [SystemKind::StreamOnly, SystemKind::StreamEcdpThrottled];

/// Prefetcher slots of a Figure 7 system (0 = stream, 1 = CDP).
pub fn prefetcher_slots(kind: SystemKind) -> usize {
    match kind {
        SystemKind::NoPrefetch => 0,
        SystemKind::StreamOnly | SystemKind::OracleLds => 1,
        _ => 2,
    }
}

/// Per-layer metrics `(name, unit, better)`, reported by every traced
/// run. A layer a workload does not exercise reports 0.
pub fn per_layer_specs() -> Vec<(String, &'static str, &'static str)> {
    let mut v: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: String, unit, better| v.push((name, unit, better));
    add("workloads.generate_s".into(), "s", "lower");
    add("profile.run_s".into(), "s", "lower");
    add("profile.beneficial_pgs".into(), "count", "higher");
    add("profile.harmful_pgs".into(), "count", "lower");
    add("hints.derive_ms".into(), "ms", "lower");
    add("cell.build_ms_p50".into(), "ms", "lower");
    add("cell.floor_ms_p50".into(), "ms", "lower");
    for k in FIG7_SYSTEMS {
        add(
            format!("engine.ns_per_inst.{}", metric_label(k)),
            "ns/inst",
            "lower",
        );
    }
    add("engine.mcycles_per_s".into(), "Mcycles/s", "higher");
    add("engine.cell_ms_p50".into(), "ms", "lower");
    add("engine.cell_ms_max".into(), "ms", "lower");
    add("cdp.ns_per_inst".into(), "ns/inst", "lower");
    add("ecdp.ns_per_inst".into(), "ns/inst", "lower");
    add("throttle.ns_per_inst".into(), "ns/inst", "lower");
    for k in QUAD_SYSTEMS {
        add(
            format!("multicore.ns_per_inst.{}", metric_label(k)),
            "ns/inst",
            "lower",
        );
    }
    for k in QUAD_SYSTEMS {
        add(
            format!("multicore.bus_transfers.{}", metric_label(k)),
            "count",
            "lower",
        );
    }
    add("multicore.weighted_speedup".into(), "ratio", "higher");
    add("store.open_ms".into(), "ms", "lower");
    add("store.get_us_p50".into(), "us", "lower");
    add("store.append_ms_p50".into(), "ms", "lower");
    add("store.bytes".into(), "bytes", "lower");
    add("manifest.append_ms_p50".into(), "ms", "lower");
    add("manifest.append_ms_max".into(), "ms", "lower");
    add("service.submit_ms_p50".into(), "ms", "lower");
    add("service.first_event_ms_p50".into(), "ms", "lower");
    add("httpd.healthz_ms_p50".into(), "ms", "lower");
    add("service.hit_cells".into(), "count", "higher");
    add("service.coalesced_cells".into(), "count", "higher");
    add("service.fresh_cells".into(), "count", "lower");
    add("service.cells_simulated".into(), "count", "lower");
    for k in FIG7_SYSTEMS {
        add(format!("sim.cycles.{}", metric_label(k)), "cycles", "lower");
    }
    for k in FIG7_SYSTEMS {
        add(
            format!("sim.l2_demand_misses.{}", metric_label(k)),
            "count",
            "lower",
        );
    }
    for k in FIG7_SYSTEMS {
        add(
            format!("sim.bus_transfers.{}", metric_label(k)),
            "count",
            "lower",
        );
    }
    for k in FIG7_SYSTEMS {
        for slot in 0..prefetcher_slots(k) {
            add(
                format!("sim.pf_issued.{}.{slot}", metric_label(k)),
                "count",
                "lower",
            );
        }
    }
    for k in FIG7_SYSTEMS {
        for slot in 0..prefetcher_slots(k) {
            add(
                format!("sim.pf_used.{}.{slot}", metric_label(k)),
                "count",
                "higher",
            );
        }
    }
    add("sim.ecdp_throttle_speedup_gmean".into(), "ratio", "higher");
    add("sim.cdp_speedup_gmean".into(), "ratio", "higher");
    add("sim.ecdp_throttle_bpki_ratio".into(), "ratio", "lower");
    add("trace.overhead_frac".into(), "frac", "lower");
    v
}

/// One measured pass, as the end-to-end metrics see it.
#[derive(Debug, Clone, Default)]
pub struct PassSample {
    /// Set-up wall seconds.
    pub setup_s: f64,
    /// Sweep wall seconds (request to last committed result).
    pub sweep_s: f64,
    /// Simulated instructions retired during the sweep.
    pub retired: f64,
    /// Latency of every job of the pass, in ms.
    pub job_ms: Vec<f64>,
}

/// How the job latencies of the passes become job samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPool {
    /// Every latency of every pass is one sample.
    Pooled,
    /// Every pass lists the same jobs in the same order; each job is one
    /// sample, its median over the passes. A single run of one job
    /// swings by tens of percent with whatever runs beside it, so a tail
    /// of pooled repeats tracks the co-runners, not the work.
    PerJobMedian,
}

/// Sets the end-to-end metrics: medians of the per-pass times over every
/// pass, and job percentiles over the jobs of the passes, pooled as
/// `pool` says.
pub fn set_end_to_end(r: &mut Report, passes: &[PassSample], peak_rss_mib: f64, pool: JobPool) {
    use crate::stats::{median, per_job_medians, tail};
    let col = |f: &dyn Fn(&PassSample) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let jobs: Vec<f64> = match pool {
        JobPool::Pooled => passes
            .iter()
            .flat_map(|p| p.job_ms.iter().copied())
            .collect(),
        JobPool::PerJobMedian => per_job_medians(
            &passes
                .iter()
                .map(|p| p.job_ms.as_slice())
                .collect::<Vec<_>>(),
        ),
    };
    r.set("setup_s", col(&|p| p.setup_s));
    r.set("sweep_s", col(&|p| p.sweep_s));
    r.set("sim_minst_per_s", col(&|p| p.retired / p.sweep_s / 1e6));
    r.set("peak_rss_mib", peak_rss_mib);
    r.set("job_p50_ms", median(&jobs));
    r.set("job_p90_ms", tail(&jobs));
    r.set("jobs_per_s", col(&|p| p.job_ms.len() as f64 / p.sweep_s));
    eprintln!(
        "[perfbench] {} passes; {} job samples, tail = p{:.0}",
        passes.len(),
        jobs.len(),
        crate::stats::tail_quantile(jobs.len()) * 100.0
    );
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Cells or jobs attempted.
    pub attempted: u64,
    /// Cells or jobs that failed.
    pub failed: u64,
    /// Correctness-check failures (empty when the run is correct).
    pub errors: Vec<String>,
    values: BTreeMap<String, f64>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Records a correctness failure unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(msg());
        }
    }

    /// True when every check passed and no cell or job failed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The result line: the end-to-end metrics (untraced) or the
    /// per-layer ones (traced). An end-to-end metric the run did not
    /// produce, or a value that is not finite, is a correctness failure.
    pub fn to_json_line(&mut self, traced: bool) -> String {
        let specs: Vec<(String, &str)> = if traced {
            per_layer_specs()
                .into_iter()
                .map(|(n, u, _)| (n, u))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let mut metrics = Vec::new();
        for (name, unit) in specs {
            let value = match self.values.get(&name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.errors
                        .push(format!("metric {name} is not finite ({v})"));
                    0.0
                }
                None if traced => 0.0,
                None => {
                    self.errors.push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            metrics.push((
                name,
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ]),
            ));
        }
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
        .to_string_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let specs = per_layer_specs();
        let mut names: Vec<&str> = specs.iter().map(|(n, _, _)| n.as_str()).collect();
        let n = names.len();
        assert!((1..=128).contains(&n), "{n} per-layer metrics");
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate per-layer metric");
        for name in names {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
                "{name}"
            );
        }
    }

    #[test]
    fn result_line_has_every_metric_and_fails_on_gaps() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let line = r.to_json_line(false);
        assert!(r.correct());
        let j = Json::parse(&line).expect("json");
        assert_eq!(j.get("attempted").and_then(Json::as_u64), Some(3));
        for (name, unit) in END_TO_END {
            let m = j.get("metrics").and_then(|m| m.get(name)).expect(name);
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
        }
        let mut gap = Report::default();
        gap.set("setup_s", 1.0);
        gap.to_json_line(false);
        assert!(!gap.correct());
        // Traced runs fill layers the workload does not exercise with 0.
        let mut traced = Report::default();
        let line = traced.to_json_line(true);
        assert!(traced.correct());
        assert!(line.contains("\"trace.overhead_frac\""));
    }
}
