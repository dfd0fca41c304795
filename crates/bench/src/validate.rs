//! Metamorphic/differential paper-conformance suite and the
//! `run_all --validate` trend gate.
//!
//! Each property runs a *pair* (or family) of configurations through the
//! cached [`Lab`] and asserts a directional relation the paper claims,
//! rather than a pinned number:
//!
//! * `ecdp-prunes-cdp` — ECDP-filtered CDP issues no more prefetches than
//!   raw CDP, at no loss of accuracy (the paper's central bandwidth
//!   claim).
//! * `aggressiveness-monotone` — raising the static aggressiveness level
//!   never decreases the number of issued prefetches (Table 2 degrees are
//!   monotone).
//! * `oracle-bounds-ecdp` — the oracle-LDS machine upper-bounds any real
//!   LDS prefetcher's coverage: it never leaves more LDS misses than
//!   throttled ECDP.
//! * `throttle-bounded-bandwidth` — coordinated throttling only moves
//!   each prefetcher along the Table 2 level ladder, so a throttled run's
//!   bus traffic stays within the envelope of its unthrottled twin's
//!   static per-prefetcher level assignments (including mixed corners —
//!   throttling one prefetcher down exposes misses the other then
//!   chases, so the all-aggressive corner alone is not an upper bound).
//! * `table3-rederivation` — every classified throttle transition in the
//!   recorded decision trace is re-derived from its logged inputs with
//!   the shared Table 4 const table
//!   ([`sim_core::TABLE4_THRESHOLDS`]) and must reproduce the logged
//!   case and decision, and step at most one Table 2 level.
//!
//! The resulting [`ValidateReport`] serializes to `VALIDATE_report.json`
//! (pass/fail per property per workload, with the offending evidence) and
//! is gated in CI via `run_all --validate`, which exits 2 on violation.
//!
//! Fault-injection hooks: a request `fault_plan` entry targeting a cell
//! of the paired grid fails the property that runs it, and a request
//! `validate_thresholds` of `cov,alow,ahigh` re-derives Table 3 under
//! deliberately shifted thresholds — both drive the gate's exit-2 path
//! end to end.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ecdp::{SystemKind, SystemSpec};
use sim_core::{
    check_transition_step, rederive_transition, Aggressiveness, Json, RunStats, ThrottleThresholds,
};
use workloads::InputSet;

use crate::lab::{Attempt, Lab};
use crate::sweep::{panic_message, par_map};

/// Schema version of `VALIDATE_report.json`. Bump on any change to the
/// report's field layout.
pub const VALIDATE_SCHEMA_VERSION: u64 = 1;

/// Relative slack for directional comparisons between paired runs.
///
/// The relations are directional, not bit-exact: the paired machines
/// replay the same trace but diverge microarchitecturally (a throttled
/// run's extra demand misses change DRAM row locality, for example), so
/// second-order effects can nudge a counter a hair past its bound without
/// the paper's claim being violated.
pub const PAIR_TOLERANCE: f64 = 0.02;

/// One property evaluated on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct PropertyResult {
    /// Property identifier (e.g. `ecdp-prunes-cdp`).
    pub property: String,
    /// Workload the property ran on.
    pub workload: String,
    /// Did the relation hold?
    pub passed: bool,
    /// Evidence: the compared quantities on pass, the offending interval
    /// trace or counter values on failure.
    pub detail: String,
}

/// The full conformance report: one [`PropertyResult`] per property per
/// workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ValidateReport {
    /// Individual results, in execution order.
    pub results: Vec<PropertyResult>,
}

impl ValidateReport {
    /// True if every property held.
    pub fn passed(&self) -> bool {
        self.results.iter().all(|r| r.passed)
    }

    /// The failing results.
    pub fn failures(&self) -> Vec<&PropertyResult> {
        self.results.iter().filter(|r| !r.passed).collect()
    }

    /// Serializes the report (schema `VALIDATE_SCHEMA_VERSION`).
    pub fn to_json(&self) -> Json {
        let results: Vec<Json> = self
            .results
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("property", Json::Str(r.property.clone())),
                    ("workload", Json::Str(r.workload.clone())),
                    ("passed", Json::Bool(r.passed)),
                    ("detail", Json::Str(r.detail.clone())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema_version", Json::Num(VALIDATE_SCHEMA_VERSION as f64)),
            (
                "config_hash",
                Json::Str(format!("{:016x}", crate::manifest::config_hash())),
            ),
            ("passed", Json::Bool(self.passed())),
            ("results", Json::Arr(results)),
        ])
    }

    /// Parses the [`ValidateReport::to_json`] representation. Returns
    /// `None` on a schema-version mismatch or malformed entries.
    pub fn from_json(j: &Json) -> Option<Self> {
        if j.get("schema_version")?.as_u64()? != VALIDATE_SCHEMA_VERSION {
            return None;
        }
        let mut results = Vec::new();
        for r in j.get("results")?.as_arr()? {
            results.push(PropertyResult {
                property: r.get("property")?.as_str()?.to_string(),
                workload: r.get("workload")?.as_str()?.to_string(),
                passed: matches!(r.get("passed")?, Json::Bool(true)),
                detail: r.get("detail")?.as_str()?.to_string(),
            });
        }
        Some(ValidateReport { results })
    }
}

fn total_issued(stats: &RunStats) -> u64 {
    stats.prefetchers.iter().map(|p| p.issued).sum()
}

/// The CDP/ECDP prefetcher sits behind the stream prefetcher in the
/// paired systems' registration order.
const CDP_INDEX: usize = 1;

fn ecdp_prunes_cdp(
    lab: &Lab,
    name: &str,
    input: InputSet,
    _: &ThrottleThresholds,
) -> Result<String, String> {
    let cdp = lab
        .try_run_on(name, input, SystemKind::StreamCdp)
        .map_err(|e| format!("stream+cdp run failed: {e}"))?;
    let ecdp = lab
        .try_run_on(name, input, SystemKind::StreamEcdp)
        .map_err(|e| format!("stream+ecdp run failed: {e}"))?;
    let (c, e) = (&cdp.prefetchers[CDP_INDEX], &ecdp.prefetchers[CDP_INDEX]);
    if e.issued > c.issued {
        return Err(format!(
            "ECDP issued {} > raw CDP {} content prefetches",
            e.issued, c.issued
        ));
    }
    if e.accuracy() < c.accuracy() - 1e-12 {
        return Err(format!(
            "ECDP accuracy {:.4} < raw CDP {:.4}",
            e.accuracy(),
            c.accuracy()
        ));
    }
    Ok(format!(
        "issued {} <= {}, accuracy {:.4} >= {:.4}",
        e.issued,
        c.issued,
        e.accuracy(),
        c.accuracy()
    ))
}

fn aggressiveness_monotone(
    lab: &Lab,
    name: &str,
    input: InputSet,
    _: &ThrottleThresholds,
) -> Result<String, String> {
    let mut issued_by_level = Vec::new();
    for level in Aggressiveness::ALL {
        let spec = SystemSpec::of(SystemKind::StreamOnly).pin(0, level);
        let (stats, _) = lab
            .try_run(name, input, &spec, Attempt::FIRST)
            .map_err(|e| format!("stream-only at {level:?} failed: {e}"))?;
        issued_by_level.push((level, total_issued(&stats)));
    }
    for pair in issued_by_level.windows(2) {
        let ((lo, lo_issued), (hi, hi_issued)) = (pair[0], pair[1]);
        if hi_issued < lo_issued {
            return Err(format!(
                "raising {lo:?} -> {hi:?} dropped issued prefetches {lo_issued} -> {hi_issued}"
            ));
        }
    }
    Ok(format!(
        "issued by level: {}",
        issued_by_level
            .iter()
            .map(|(l, n)| format!("{l:?}={n}"))
            .collect::<Vec<_>>()
            .join(" ")
    ))
}

fn oracle_bounds_ecdp(
    lab: &Lab,
    name: &str,
    input: InputSet,
    _: &ThrottleThresholds,
) -> Result<String, String> {
    let oracle = lab
        .try_run_on(name, input, SystemKind::OracleLds)
        .map_err(|e| format!("oracle run failed: {e}"))?;
    let ecdp = lab
        .try_run_on(name, input, SystemKind::StreamEcdpThrottled)
        .map_err(|e| format!("ecdp run failed: {e}"))?;
    if oracle.l2_lds_misses > ecdp.l2_lds_misses {
        return Err(format!(
            "oracle left {} LDS misses, more than ECDP's {} — oracle must upper-bound coverage",
            oracle.l2_lds_misses, ecdp.l2_lds_misses
        ));
    }
    Ok(format!(
        "LDS misses: oracle {} <= ecdp {}",
        oracle.l2_lds_misses, ecdp.l2_lds_misses
    ))
}

fn throttle_bounded_bandwidth(
    lab: &Lab,
    name: &str,
    input: InputSet,
    _: &ThrottleThresholds,
) -> Result<String, String> {
    let mut details = Vec::new();
    for (unthrottled, throttled) in [
        (SystemKind::StreamCdp, SystemKind::StreamCdpThrottled),
        (SystemKind::StreamEcdp, SystemKind::StreamEcdpThrottled),
    ] {
        // Coordinated throttling can only move each prefetcher within
        // the Table 2 level ladder, so the throttled run interpolates
        // between the static per-prefetcher level assignments of its
        // unthrottled twin. Its bus traffic must stay within the
        // envelope of those static corners. (A single all-aggressive
        // corner is NOT an upper bound: throttling the stream
        // prefetcher down exposes misses the content prefetcher then
        // chases, so the hybrid's worst case is a *mixed* corner like
        // conservative-stream × aggressive-CDP.)
        let mut envelope = 0u64;
        let mut corner = (Aggressiveness::Aggressive, Aggressiveness::Aggressive);
        for stream_level in Aggressiveness::ALL {
            for cdp_level in Aggressiveness::ALL {
                let spec = SystemSpec::of(unthrottled)
                    .pin(0, stream_level)
                    .pin(CDP_INDEX, cdp_level);
                let (stats, _) = lab
                    .try_run(name, input, &spec, Attempt::FIRST)
                    .map_err(|e| {
                        format!(
                            "{} at ({stream_level:?},{cdp_level:?}) failed: {e}",
                            unthrottled.label()
                        )
                    })?;
                if stats.bus_transfers > envelope {
                    envelope = stats.bus_transfers;
                    corner = (stream_level, cdp_level);
                }
            }
        }
        let thr = lab
            .try_run_on(name, input, throttled)
            .map_err(|e| format!("{} run failed: {e}", throttled.label()))?;
        let bound = (envelope as f64 * (1.0 + PAIR_TOLERANCE)).ceil() as u64;
        if thr.bus_transfers > bound {
            return Err(format!(
                "{} used {} bus transfers, above the static-level envelope {} of {} \
                 (worst corner {:?}, +{:.0}% slack)",
                throttled.label(),
                thr.bus_transfers,
                envelope,
                unthrottled.label(),
                corner,
                PAIR_TOLERANCE * 100.0
            ));
        }
        details.push(format!(
            "{} {} <= envelope {} ({} corner {:?})",
            throttled.label(),
            thr.bus_transfers,
            envelope,
            unthrottled.label(),
            corner
        ));
    }
    Ok(details.join(", "))
}

/// The machine `table3-rederivation` traces: the throttled proposal on
/// the shrunk L2 and short intervals the observability tests use.
pub fn table3_spec() -> SystemSpec {
    let mut cfg = sim_core::MachineConfig::default();
    cfg.l2.bytes = 64 * 1024;
    cfg.interval_evictions = 128;
    SystemSpec::of(SystemKind::StreamEcdpThrottled).config(cfg)
}

fn table3_rederivation(
    lab: &Lab,
    name: &str,
    input: InputSet,
    thresholds: &ThrottleThresholds,
) -> Result<String, String> {
    // The default-size L2 spans few (on the test input: zero) feedback
    // intervals, which would make this property vacuous. Run the
    // throttled system once with the shrunk L2 / short intervals the
    // observability tests use, so every workload produces a dense
    // Table 3 decision sequence to re-derive.
    let traced = Attempt {
        traced: true,
        ..Attempt::FIRST
    };
    let (_, trace) = lab
        .try_run(name, input, &table3_spec(), traced)
        .map_err(|e| format!("observed run failed: {e}"))?;
    let trace = trace.ok_or("observed run returned no trace".to_string())?;
    if trace.transitions.is_empty() {
        return Err("no throttle transitions recorded even at short intervals".into());
    }
    let mut checked = 0usize;
    let mut offending = Vec::new();
    for t in &trace.transitions {
        checked += 1;
        if let Err(e) = rederive_transition(t, thresholds) {
            offending.push(format!(
                "interval {} prefetcher {}: {e}",
                t.interval, t.prefetcher
            ));
        }
        if let Err(e) = check_transition_step(t) {
            offending.push(format!(
                "interval {} prefetcher {}: {e}",
                t.interval, t.prefetcher
            ));
        }
        if offending.len() >= 8 {
            offending.push("...".into());
            break;
        }
    }
    if offending.is_empty() {
        Ok(format!("{checked} transitions re-derived, all match"))
    } else {
        Err(offending.join("; "))
    }
}

/// A property check: lab, workload, input and the Table 3 thresholds
/// the re-derivation uses.
type PropertyFn = fn(&Lab, &str, InputSet, &ThrottleThresholds) -> Result<String, String>;

/// The paired-config properties of the conformance suite, in execution
/// order.
pub const PROPERTIES: [(&str, PropertyFn); 5] = [
    ("ecdp-prunes-cdp", ecdp_prunes_cdp),
    ("aggressiveness-monotone", aggressiveness_monotone),
    ("oracle-bounds-ecdp", oracle_bounds_ecdp),
    ("throttle-bounded-bandwidth", throttle_bounded_bandwidth),
    ("table3-rederivation", table3_rederivation),
];

/// Runs one property on one workload, converting panics (e.g. injected
/// faults) into failed results instead of aborting the gate.
fn run_property(
    lab: &Lab,
    property: &str,
    f: PropertyFn,
    name: &str,
    input: InputSet,
    thresholds: &ThrottleThresholds,
) -> PropertyResult {
    let outcome = catch_unwind(AssertUnwindSafe(|| f(lab, name, input, thresholds)));
    let (passed, detail) = match outcome {
        Ok(Ok(detail)) => (true, detail),
        Ok(Err(detail)) => (false, detail),
        Err(panic) => (false, format!("panicked: {}", panic_message(panic))),
    };
    PropertyResult {
        property: property.to_string(),
        workload: name.to_string(),
        passed,
        detail,
    }
}

/// Runs the full conformance suite: every [`PROPERTIES`] entry on every
/// workload, one workload per task on up to `jobs` worker threads
/// ([`par_map`]; cells are cached in `lab`, so paired configs shared
/// between properties simulate once). `thresholds` drive the Table 3
/// re-derivation; pass the paper's [`ThrottleThresholds::default`]
/// unless injecting a violation.
pub fn run_conformance(
    lab: &Lab,
    names: &[String],
    input: InputSet,
    thresholds: &ThrottleThresholds,
    jobs: usize,
) -> ValidateReport {
    let mut results: Vec<PropertyResult> = par_map(names, jobs, |name| {
        PROPERTIES
            .iter()
            .map(|(prop, f)| run_property(lab, prop, *f, name, input, thresholds))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    // Report order: by workload, then property name.
    results.sort_by(|a, b| {
        a.workload
            .cmp(&b.workload)
            .then_with(|| a.property.cmp(&b.property))
    });
    ValidateReport { results }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn report() -> ValidateReport {
        ValidateReport {
            results: vec![
                PropertyResult {
                    property: "ecdp-prunes-cdp".into(),
                    workload: "mst".into(),
                    passed: true,
                    detail: "issued 10 <= 20".into(),
                },
                PropertyResult {
                    property: "table3-rederivation".into(),
                    workload: "mst".into(),
                    passed: false,
                    detail: "interval 3 prefetcher 1: mismatch".into(),
                },
            ],
        }
    }

    #[test]
    fn report_json_round_trips() {
        let r = report();
        let text = r.to_json().to_string_pretty();
        let back = ValidateReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        assert!(!back.passed());
        assert_eq!(back.failures().len(), 1);
    }

    #[test]
    fn report_schema_is_stable() {
        // Pins the serialized field layout of schema v1; any change must
        // bump VALIDATE_SCHEMA_VERSION.
        let j = report().to_json();
        assert_eq!(j.get("schema_version").unwrap().as_u64().unwrap(), 1);
        assert!(j.get("config_hash").unwrap().as_str().is_some());
        assert_eq!(j.get("passed"), Some(&Json::Bool(false)));
        let first = &j.get("results").unwrap().as_arr().unwrap()[0];
        assert_eq!(
            first.to_string_compact(),
            "{\"property\":\"ecdp-prunes-cdp\",\"workload\":\"mst\",\
             \"passed\":true,\"detail\":\"issued 10 <= 20\"}"
        );
    }

    #[test]
    fn schema_version_mismatch_is_rejected() {
        let mut j = report().to_json();
        if let Json::Obj(pairs) = &mut j {
            for (k, v) in pairs.iter_mut() {
                if k == "schema_version" {
                    *v = Json::Num(99.0);
                }
            }
        }
        assert!(ValidateReport::from_json(&j).is_none());
    }
}
