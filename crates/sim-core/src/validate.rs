//! Runtime paper-conformance invariants.
//!
//! The validate subsystem encodes the paper's accounting semantics as
//! machine-checked properties evaluated at every sampling-interval boundary
//! and once more at run end:
//!
//! * **Conservation** — the engine keeps two independent accounting paths
//!   per prefetcher ([`crate::RunStats`] and the feedback counters of
//!   §4.1); they must agree, and issued prefetches must decompose into
//!   used + unused-evicted + still-outstanding (exactly used +
//!   unused-evicted once the post-run drain resolves every line).
//! * **Bus occupancy** — cumulative bus busy-cycles (transfers × transfer
//!   cycles) can never exceed elapsed time by more than one in-flight
//!   transfer: the bus is a serial resource.
//! * **MSHR occupancy** — never exceeds the configured capacity.
//! * **Aggressiveness** — levels stay inside the paper's Table 2 range and
//!   every recorded transition moves at most one level in the direction of
//!   its decision (saturating at the ends).
//! * **Table 3 re-derivation** — every classified throttle transition is
//!   re-derived from its logged inputs with the shared
//!   [`TABLE4_THRESHOLDS`](crate::TABLE4_THRESHOLDS) const table and must
//!   reproduce the logged case and decision.
//!
//! Checks are read-only: a validated run produces bit-identical statistics
//! to an unvalidated one, and a violation surfaces as
//! [`SimError::InvariantViolation`] after the run instead of perturbing it.
//!
//! Activation is two-level. [`crate::Machine::set_validate`] (or
//! `SystemBuilder::validate` one layer up) opts a single run in at any
//! build. Compiling with the `validate` cargo feature additionally arms
//! [`ValidateConfig::paper`] for **every** run that did not choose its own
//! config, so the whole test suite executes under the invariants. Without
//! the feature and without an explicit opt-in the engine carries only a
//! null pointer check, exactly like the observability layer.

use crate::obs::ThrottleTransition;
use crate::prefetcher::Aggressiveness;
use crate::stats::RunStats;
use crate::throttling::{FeedbackCounters, ThrottleDecision, ThrottleThresholds};
use crate::SimError;

/// Which invariant families a [`RuntimeValidator`] asserts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidateConfig {
    /// Per-prefetcher conservation between `RunStats` and the feedback
    /// counters, and the issued = used + unused + outstanding decomposition.
    pub conservation: bool,
    /// Bus busy-cycles bounded by elapsed cycles.
    pub bus: bool,
    /// MSHR occupancy bounded by capacity.
    pub mshr: bool,
    /// Aggressiveness levels in Table 2 range and transitions single-step.
    pub aggressiveness: bool,
    /// Re-derive each classified Table 3 transition from its logged inputs.
    pub rederive_table3: bool,
    /// Thresholds used for the Table 3 re-derivation.
    pub thresholds: ThrottleThresholds,
}

impl ValidateConfig {
    /// Every check on, with the paper's Table 4 thresholds.
    pub fn paper() -> Self {
        ValidateConfig {
            conservation: true,
            bus: true,
            mshr: true,
            aggressiveness: true,
            rederive_table3: true,
            thresholds: ThrottleThresholds::default(),
        }
    }

    /// Every check off — an explicit opt-out that beats the `validate`
    /// cargo feature's suite-wide default.
    pub fn disabled() -> Self {
        ValidateConfig {
            conservation: false,
            bus: false,
            mshr: false,
            aggressiveness: false,
            rederive_table3: false,
            thresholds: ThrottleThresholds::default(),
        }
    }

    /// True if at least one check is enabled.
    pub fn any(&self) -> bool {
        self.conservation || self.bus || self.mshr || self.aggressiveness || self.rederive_table3
    }
}

impl Default for ValidateConfig {
    fn default() -> Self {
        ValidateConfig::paper()
    }
}

/// At most this many violation messages are kept verbatim; further
/// violations only bump the count (a broken invariant usually fires every
/// interval, and one message per family is enough to debug it).
const MAX_RECORDED: usize = 16;

/// Everything the validator sees at one interval boundary. All fields are
/// read-only views of engine state *after* the throttle decisions of this
/// interval have been applied.
pub struct IntervalCheck<'a> {
    /// 0-based interval index.
    pub interval: u64,
    /// Cycle at which the interval closed.
    pub cycle: u64,
    /// Per-prefetcher feedback counters (lifetime totals are live).
    pub counters: &'a [FeedbackCounters],
    /// The core's live statistics.
    pub stats: &'a RunStats,
    /// MSHRs currently allocated.
    pub mshr_occupied: u32,
    /// Configured MSHR capacity.
    pub mshr_capacity: u32,
    /// Cumulative bus transfers attributed to this core.
    pub bus_transfers: u64,
    /// Cycles one transfer occupies the bus.
    pub bus_transfer_cycles: u64,
    /// How far the transfer counter may lead the clock (transfers are
    /// counted at scheduling time; see
    /// [`crate::Dram::bus_busy_slack`]).
    pub bus_busy_slack: u64,
    /// The throttle transitions recorded at this boundary (one per
    /// prefetcher).
    pub transitions: &'a [ThrottleTransition],
}

/// Re-derives one classified throttle transition from its logged inputs
/// with `thresholds`, returning a description of the mismatch if the
/// logged case or decision disagrees. Transitions with `case == 0`
/// (unclassifying policies) are skipped.
///
/// This is the same code path the bench-level conformance suite runs over
/// a recorded decision-trace ring, kept here so both consumers share it.
pub fn rederive_transition(
    t: &ThrottleTransition,
    thresholds: &ThrottleThresholds,
) -> Result<(), String> {
    if t.case == 0 {
        return Ok(());
    }
    let (decision, case) = thresholds.classify(t.coverage, t.accuracy, t.rival_coverage);
    if decision != t.decision || case != t.case {
        return Err(format!(
            "table3 re-derivation mismatch: logged case {} decision {:?} but inputs \
             (cov {:.6}, acc {:.6}, rival {:.6}) derive case {} decision {:?}",
            t.case, t.decision, t.coverage, t.accuracy, t.rival_coverage, case, decision
        ));
    }
    Ok(())
}

/// Checks that a transition moves at most one level in the direction of
/// its decision, saturating at the Table 2 range ends.
pub fn check_transition_step(t: &ThrottleTransition) -> Result<(), String> {
    let expected = match t.decision {
        ThrottleDecision::Up => t.from_level.up(),
        ThrottleDecision::Down => t.from_level.down(),
        ThrottleDecision::Keep => t.from_level,
    };
    if t.to_level != expected {
        return Err(format!(
            "aggressiveness step mismatch: {:?} from {:?} must land on {:?}, not {:?}",
            t.decision, t.from_level, expected, t.to_level
        ));
    }
    if t.from_level.index() >= Aggressiveness::ALL.len()
        || t.to_level.index() >= Aggressiveness::ALL.len()
    {
        return Err(format!(
            "aggressiveness level outside Table 2 range: {:?} -> {:?}",
            t.from_level, t.to_level
        ));
    }
    Ok(())
}

/// Collects invariant violations over one run.
#[derive(Debug)]
pub struct RuntimeValidator {
    cfg: ValidateConfig,
    violations: Vec<String>,
    total: u64,
}

impl RuntimeValidator {
    /// A validator asserting the checks enabled in `cfg`.
    pub fn new(cfg: ValidateConfig) -> Self {
        RuntimeValidator {
            cfg,
            violations: Vec::new(),
            total: 0,
        }
    }

    fn record(&mut self, msg: String) {
        self.total += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(msg);
        }
    }

    /// Violations recorded so far (capped; see `total_violations`).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Total number of violations, including ones past the recording cap.
    pub fn total_violations(&self) -> u64 {
        self.total
    }

    /// Serializes the violations accumulated so far (warm-state
    /// checkpointing). The check configuration is *not* captured — a forked
    /// run keeps its own validator's configuration.
    pub(crate) fn save_state(&self, w: &mut crate::frame::FrameWriter) {
        w.u64(self.violations.len() as u64);
        for v in &self.violations {
            w.str(v);
        }
        w.u64(self.total);
    }

    /// Restores state saved by [`RuntimeValidator::save_state`], keeping
    /// this validator's configuration.
    pub(crate) fn restore_state(
        &mut self,
        r: &mut crate::frame::FrameReader<'_>,
    ) -> Result<(), crate::frame::FrameError> {
        let n = r.len_prefix()?;
        if n > MAX_RECORDED {
            return Err(crate::frame::FrameError::Malformed(format!(
                "{n} recorded violations"
            )));
        }
        self.violations.clear();
        for _ in 0..n {
            self.violations.push(r.str()?);
        }
        self.total = r.u64()?;
        Ok(())
    }

    /// Runs the interval-boundary checks.
    pub fn check_interval(&mut self, view: &IntervalCheck<'_>) {
        let at = format!("interval {} cycle {}", view.interval, view.cycle);
        if self.cfg.conservation {
            for (i, (c, s)) in view
                .counters
                .iter()
                .zip(view.stats.prefetchers.iter())
                .enumerate()
            {
                // The two accounting paths must agree on lifetime totals.
                for (name, a, b) in [
                    ("issued", s.issued, c.total_prefetched),
                    ("used", s.used, c.total_used),
                    ("late", s.late, c.total_late),
                    ("pollution", s.pollution, c.total_pollution),
                ] {
                    if a != b {
                        self.record(format!(
                            "{at}: prefetcher {i} {name} diverges: stats {a} vs counters {b}"
                        ));
                    }
                }
                if s.late > s.used || s.used + s.unused_evicted > s.issued {
                    self.record(format!(
                        "{at}: prefetcher {i} conservation broken: issued {} used {} \
                         late {} unused_evicted {}",
                        s.issued, s.used, s.late, s.unused_evicted
                    ));
                }
            }
        }
        if self.cfg.bus {
            // The bus is serial: cumulative busy-cycles can lead the clock
            // only by the scheduled-but-unfinished backlog.
            let busy = view.bus_transfers * view.bus_transfer_cycles;
            if busy > view.cycle + view.bus_busy_slack {
                self.record(format!(
                    "{at}: bus busy-cycles {busy} exceed elapsed {} + backlog slack {}",
                    view.cycle, view.bus_busy_slack
                ));
            }
        }
        if self.cfg.mshr && view.mshr_occupied > view.mshr_capacity {
            self.record(format!(
                "{at}: MSHR occupancy {} exceeds capacity {}",
                view.mshr_occupied, view.mshr_capacity
            ));
        }
        for t in view.transitions {
            if self.cfg.aggressiveness {
                if let Err(e) = check_transition_step(t) {
                    self.record(format!("{at}: prefetcher {}: {e}", t.prefetcher));
                }
            }
            if self.cfg.rederive_table3 {
                if let Err(e) = rederive_transition(t, &self.cfg.thresholds) {
                    self.record(format!("{at}: prefetcher {}: {e}", t.prefetcher));
                }
            }
        }
    }

    /// Runs the end-of-run checks (after the drain loop and the
    /// unused-resident resolution) and converts any violations into the
    /// run's error.
    pub fn finish(
        mut self,
        stats: &RunStats,
        final_cycle: u64,
        bus_transfers: u64,
        bus_transfer_cycles: u64,
    ) -> Result<(), SimError> {
        if self.cfg.conservation {
            for (i, s) in stats.prefetchers.iter().enumerate() {
                // Post-drain, every issued prefetch has been filled and
                // every fill was either demanded or resolved unused: the
                // decomposition is exact.
                if s.used + s.unused_evicted != s.issued {
                    self.record(format!(
                        "run end: prefetcher {i} issued {} != used {} + unused_evicted {}",
                        s.issued, s.used, s.unused_evicted
                    ));
                }
            }
        }
        if self.cfg.bus {
            // Post-drain the DRAM is empty, so the bound is exact: every
            // counted transfer's bus slot lies in the past.
            let busy = bus_transfers * bus_transfer_cycles;
            if busy > final_cycle {
                self.record(format!(
                    "run end: bus busy-cycles {busy} exceed elapsed {final_cycle}"
                ));
            }
        }
        self.into_error()
    }

    /// Converts the violations accumulated so far into the run's error
    /// (used directly by consumers that cannot run the end-of-run exact
    /// checks, e.g. the multi-core driver whose per-core statistics are
    /// snapshotted mid-flight).
    pub fn into_error(self) -> Result<(), SimError> {
        if self.total == 0 {
            return Ok(());
        }
        let mut msg = format!(
            "{} paper-conformance invariant violation(s): {}",
            self.total,
            self.violations.join("; ")
        );
        if self.total as usize > self.violations.len() {
            msg.push_str("; ...");
        }
        Err(SimError::InvariantViolation(msg))
    }
}

/// The engine's default validator: armed with [`ValidateConfig::paper`]
/// when the `validate` cargo feature is on, absent otherwise.
pub(crate) fn default_runtime_validator() -> Option<Box<RuntimeValidator>> {
    #[cfg(feature = "validate")]
    {
        Some(Box::new(RuntimeValidator::new(ValidateConfig::paper())))
    }
    #[cfg(not(feature = "validate"))]
    {
        None
    }
}

/// Builds the validator for a run given an explicit opt-in (which beats
/// the feature default; a config with nothing enabled disables checks).
pub(crate) fn runtime_validator_for(
    explicit: Option<&ValidateConfig>,
) -> Option<Box<RuntimeValidator>> {
    match explicit {
        Some(cfg) if cfg.any() => Some(Box::new(RuntimeValidator::new(*cfg))),
        Some(_) => None,
        None => default_runtime_validator(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::PrefetcherStats;

    fn transition(case: u8, cov: f64, acc: f64, rival: f64) -> ThrottleTransition {
        let t = ThrottleThresholds::default();
        let (decision, derived) = t.classify(cov, acc, rival);
        assert_eq!(derived, case, "test fixture must pick matching inputs");
        let from = Aggressiveness::Moderate;
        let to = match decision {
            ThrottleDecision::Up => from.up(),
            ThrottleDecision::Down => from.down(),
            ThrottleDecision::Keep => from,
        };
        ThrottleTransition {
            interval: 0,
            prefetcher: 0,
            case,
            accuracy: acc,
            coverage: cov,
            rival_coverage: rival,
            decision,
            from_level: from,
            to_level: to,
        }
    }

    #[test]
    fn rederivation_accepts_consistent_transitions() {
        let th = ThrottleThresholds::default();
        for (case, cov, acc, rival) in [
            (1, 0.5, 0.0, 0.0),
            (2, 0.1, 0.2, 0.0),
            (3, 0.1, 0.5, 0.1),
            (4, 0.1, 0.5, 0.6),
            (5, 0.1, 0.9, 0.6),
        ] {
            let t = transition(case, cov, acc, rival);
            assert!(rederive_transition(&t, &th).is_ok());
            assert!(check_transition_step(&t).is_ok());
        }
    }

    #[test]
    fn rederivation_rejects_wrong_case_or_decision() {
        let th = ThrottleThresholds::default();
        let mut t = transition(2, 0.1, 0.2, 0.0);
        t.case = 3;
        assert!(rederive_transition(&t, &th).is_err());
        let mut t = transition(2, 0.1, 0.2, 0.0);
        t.decision = ThrottleDecision::Up;
        assert!(rederive_transition(&t, &th).is_err());
    }

    #[test]
    fn rederivation_detects_broken_thresholds() {
        // A transition logged under the paper thresholds fails to re-derive
        // under deliberately shifted ones — the drift detector.
        let broken = ThrottleThresholds {
            coverage: 0.5,
            ..ThrottleThresholds::default()
        };
        let t = transition(1, 0.3, 0.0, 0.0);
        assert!(rederive_transition(&t, &broken).is_err());
    }

    #[test]
    fn unclassified_transitions_are_skipped() {
        let th = ThrottleThresholds::default();
        let mut t = transition(1, 0.5, 0.0, 0.0);
        t.case = 0;
        t.decision = ThrottleDecision::Down; // would mismatch if checked
        assert!(rederive_transition(&t, &th).is_ok());
    }

    #[test]
    fn transition_step_rejects_level_jumps() {
        let mut t = transition(1, 0.5, 0.0, 0.0);
        t.from_level = Aggressiveness::VeryConservative;
        t.to_level = Aggressiveness::Aggressive;
        assert!(check_transition_step(&t).is_err());
    }

    #[test]
    fn saturated_up_keeps_the_top_level() {
        let mut t = transition(1, 0.5, 0.0, 0.0);
        t.from_level = Aggressiveness::Aggressive;
        t.to_level = Aggressiveness::Aggressive;
        assert!(check_transition_step(&t).is_ok());
    }

    fn consistent_view<'a>(
        counters: &'a [FeedbackCounters],
        stats: &'a RunStats,
    ) -> IntervalCheck<'a> {
        IntervalCheck {
            interval: 0,
            cycle: 100_000,
            counters,
            stats,
            mshr_occupied: 4,
            mshr_capacity: 32,
            bus_transfers: 10,
            bus_transfer_cycles: 40,
            bus_busy_slack: 1640,
            transitions: &[],
        }
    }

    #[test]
    fn consistent_accounting_passes() {
        let mut c = FeedbackCounters::default();
        for _ in 0..8 {
            c.record_issued();
        }
        c.record_used(false);
        c.record_used(true);
        let stats = RunStats {
            prefetchers: vec![PrefetcherStats {
                issued: 8,
                used: 2,
                late: 1,
                unused_evicted: 3,
                ..Default::default()
            }],
            ..Default::default()
        };
        let counters = vec![c];
        let mut v = RuntimeValidator::new(ValidateConfig::paper());
        v.check_interval(&consistent_view(&counters, &stats));
        assert_eq!(v.total_violations(), 0, "{:?}", v.violations());
    }

    #[test]
    fn diverging_accounting_paths_are_caught() {
        let mut c = FeedbackCounters::default();
        c.record_issued();
        let stats = RunStats {
            prefetchers: vec![PrefetcherStats {
                issued: 2, // counters say 1
                ..Default::default()
            }],
            ..Default::default()
        };
        let counters = vec![c];
        let mut v = RuntimeValidator::new(ValidateConfig::paper());
        v.check_interval(&consistent_view(&counters, &stats));
        assert_eq!(v.total_violations(), 1);
        assert!(v.violations()[0].contains("issued diverges"));
    }

    #[test]
    fn mshr_overflow_and_bus_overrun_are_caught() {
        let stats = RunStats::default();
        let counters: Vec<FeedbackCounters> = Vec::new();
        let mut v = RuntimeValidator::new(ValidateConfig::paper());
        let mut view = consistent_view(&counters, &stats);
        view.mshr_occupied = 33;
        view.bus_transfers = 10_000; // 400k busy-cycles in a 100k window
        v.check_interval(&view);
        assert_eq!(v.total_violations(), 2);
    }

    #[test]
    fn finish_reports_exact_conservation_breaks() {
        let stats = RunStats {
            prefetchers: vec![PrefetcherStats {
                issued: 10,
                used: 4,
                unused_evicted: 5, // one prefetch unaccounted for
                ..Default::default()
            }],
            ..Default::default()
        };
        let v = RuntimeValidator::new(ValidateConfig::paper());
        let err = v.finish(&stats, 1_000_000, 0, 40).expect_err("must fail");
        assert_eq!(err.kind(), "invariant");
    }

    #[test]
    fn finish_is_clean_on_balanced_books() {
        let stats = RunStats {
            prefetchers: vec![PrefetcherStats {
                issued: 10,
                used: 4,
                unused_evicted: 6,
                ..Default::default()
            }],
            ..Default::default()
        };
        let v = RuntimeValidator::new(ValidateConfig::paper());
        assert!(v.finish(&stats, 1_000_000, 100, 40).is_ok());
    }

    #[test]
    fn violation_messages_are_capped_but_counted() {
        let mut v = RuntimeValidator::new(ValidateConfig::paper());
        for i in 0..100 {
            v.record(format!("violation {i}"));
        }
        assert_eq!(v.violations().len(), MAX_RECORDED);
        assert_eq!(v.total_violations(), 100);
    }

    #[test]
    fn disabled_config_checks_nothing() {
        assert!(!ValidateConfig::disabled().any());
        assert!(ValidateConfig::paper().any());
        let stats = RunStats {
            prefetchers: vec![PrefetcherStats {
                issued: 10,
                ..Default::default()
            }],
            ..Default::default()
        };
        let v = RuntimeValidator::new(ValidateConfig::disabled());
        assert!(v.finish(&stats, 0, 1_000_000, 40).is_ok());
    }
}
