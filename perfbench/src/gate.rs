//! The real-hints gate and the by-difference layer costs.
//!
//! ECDP is only measured if it runs with the hints the train-input
//! profile produced. The gate fails a run when the profiling pass came
//! back empty, when a `stream+ecdp` cell issues no CDP prefetch although
//! its profile has beneficial pointer groups (the hints were lost), or
//! when a benchmark without beneficial groups does not match `stream`
//! cycle for cycle (ECDP scanned pointers the hints exclude).

use std::collections::BTreeMap;

use ecdp::system::SystemKind;
use sim_core::StatsSummary;

/// Prefetcher slot CDP occupies in every CDP-based system.
pub const CDP_SLOT: usize = 1;

/// What the gate needs from one benchmark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HintCheck {
    /// Benchmark name.
    pub workload: String,
    /// Pointer groups in the train profile.
    pub pgs: usize,
    /// Beneficial pointer groups in the train profile.
    pub beneficial: usize,
    /// Cycles of the `stream` cell.
    pub stream_cycles: u64,
    /// Cycles of the `stream+ecdp` cell.
    pub ecdp_cycles: u64,
    /// CDP prefetches the `stream+ecdp` cell issued.
    pub ecdp_cdp_issued: u64,
}

impl HintCheck {
    /// Builds the check from a profile's counts and the two cells' stats.
    pub fn new(
        workload: &str,
        pgs: usize,
        beneficial: usize,
        stream: &StatsSummary,
        ecdp: &StatsSummary,
    ) -> Self {
        HintCheck {
            workload: workload.to_string(),
            pgs,
            beneficial,
            stream_cycles: stream.cycles,
            ecdp_cycles: ecdp.cycles,
            ecdp_cdp_issued: ecdp.prefetchers.get(CDP_SLOT).map_or(0, |p| p.issued),
        }
    }
}

/// Every gate violation, one message each (empty when the gate passes).
pub fn real_hints_gate(checks: &[HintCheck]) -> Vec<String> {
    let mut errors = Vec::new();
    if checks.iter().all(|c| c.pgs == 0) {
        errors.push("real-hints gate: every train profile came back empty".to_string());
    }
    for c in checks {
        if c.beneficial > 0 && c.ecdp_cdp_issued == 0 {
            errors.push(format!(
                "real-hints gate: {} has {} beneficial PGs but stream+ecdp issued no CDP prefetch",
                c.workload, c.beneficial
            ));
        }
        if c.beneficial == 0 && c.ecdp_cycles != c.stream_cycles {
            errors.push(format!(
                "real-hints gate: {} has no beneficial PG but stream+ecdp ran {} cycles against stream's {}",
                c.workload, c.ecdp_cycles, c.stream_cycles
            ));
        }
    }
    errors
}

/// The host cost of adding a layer, by difference of per-system host
/// nanoseconds per simulated instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerCosts {
    /// `stream+cdp` − `stream`.
    pub cdp: f64,
    /// `stream+ecdp` − `stream`.
    pub ecdp: f64,
    /// `stream+ecdp+throttle` − `stream+ecdp`.
    pub throttle: f64,
}

/// Derives [`LayerCosts`] from per-system ns/inst; a missing system
/// counts as 0.
pub fn layer_costs(ns_per_inst: &BTreeMap<&'static str, f64>) -> LayerCosts {
    let get = |k: SystemKind| ns_per_inst.get(k.label()).copied().unwrap_or(0.0);
    LayerCosts {
        cdp: get(SystemKind::StreamCdp) - get(SystemKind::StreamOnly),
        ecdp: get(SystemKind::StreamEcdp) - get(SystemKind::StreamOnly),
        throttle: get(SystemKind::StreamEcdpThrottled) - get(SystemKind::StreamEcdp),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::Lab;
    use ecdp::system::{CompilerArtifacts, SystemBuilder};
    use workloads::InputSet;

    fn check(beneficial: usize, stream: u64, ecdp: u64, issued: u64) -> HintCheck {
        HintCheck {
            workload: "w".to_string(),
            pgs: beneficial + 1,
            beneficial,
            stream_cycles: stream,
            ecdp_cycles: ecdp,
            ecdp_cdp_issued: issued,
        }
    }

    #[test]
    fn gate_rules() {
        assert!(real_hints_gate(&[check(3, 100, 90, 5), check(0, 100, 100, 0)]).is_empty());
        assert_eq!(real_hints_gate(&[check(3, 100, 100, 0)]).len(), 1);
        assert_eq!(real_hints_gate(&[check(0, 100, 99, 0)]).len(), 1);
        let mut empty = check(0, 100, 100, 0);
        empty.pgs = 0;
        assert_eq!(real_hints_gate(&[empty.clone()]).len(), 1);
        // One empty profile among non-empty ones is legitimate.
        assert!(real_hints_gate(&[empty, check(2, 10, 9, 4)]).is_empty());
    }

    #[test]
    fn gate_fires_on_empty_compiler_artifacts() {
        // mst's train profile has beneficial PGs; with empty artifacts
        // ECDP filters every scan and issues no CDP prefetch.
        let lab = Lab::with_checkpoints(bench::FaultPlan::none(), None);
        let profile = lab.profile("mst");
        let (beneficial, _) = profile.counts();
        assert!(beneficial > 0);
        let trace = lab.trace("mst", InputSet::Test);
        let run = |kind, art: &CompilerArtifacts| {
            SystemBuilder::new(kind)
                .artifacts(art)
                .run(&trace)
                .expect("mst runs")
                .stats
                .summary()
        };
        let empty = CompilerArtifacts::empty();
        let stream = run(SystemKind::StreamOnly, &empty);
        let hinted = run(SystemKind::StreamEcdp, &lab.artifacts("mst"));
        let unhinted = run(SystemKind::StreamEcdp, &empty);
        let ok = HintCheck::new("mst", profile.pgs.len(), beneficial, &stream, &hinted);
        assert!(real_hints_gate(&[ok]).is_empty());
        let bad = HintCheck::new("mst", profile.pgs.len(), beneficial, &stream, &unhinted);
        let errors = real_hints_gate(&[bad]);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("issued no CDP prefetch"));
    }

    #[test]
    fn layer_costs_are_differences() {
        let m: BTreeMap<&'static str, f64> = [
            ("stream", 70.0),
            ("stream+cdp", 135.0),
            ("stream+ecdp", 85.0),
            ("stream+ecdp+throttle", 88.0),
        ]
        .into_iter()
        .collect();
        let c = layer_costs(&m);
        assert_eq!(c.cdp, 65.0);
        assert_eq!(c.ecdp, 15.0);
        assert_eq!(c.throttle, 3.0);
        assert_eq!(layer_costs(&BTreeMap::new()).cdp, 0.0);
    }
}
