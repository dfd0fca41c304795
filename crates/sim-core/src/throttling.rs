//! Run-time feedback collection and the throttling-policy interface.
//!
//! The engine maintains, per prefetcher, the two counters of the paper's
//! §4.1 (*total-prefetched*, *total-used*) plus *total-misses* shared across
//! prefetchers, and two additional counters (late, pollution) needed by the
//! FDP comparison. At the end of every sampling interval (8192 L2 evictions)
//! each counter is halved into a running value per the paper's Equation 3:
//!
//! ```text
//! CounterValue = 1/2 * CounterValueAtBeginningOfInterval
//!              + 1/2 * CounterValueDuringInterval
//! ```
//!
//! and the [`ThrottlePolicy`] is consulted with the resulting accuracy and
//! coverage.

use crate::prefetcher::Aggressiveness;

/// The coordinated-throttling thresholds of the paper's Table 4.
///
/// This is the **single const table** shared by every consumer: the
/// `throttle` crate's coordinated policy classifies decisions with it, and
/// the validate subsystem re-derives logged Table 3 transitions from the
/// same values — so the two can never drift apart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThrottleThresholds {
    /// Coverage at or above which coverage is "high" (`T_coverage`).
    pub coverage: f64,
    /// Accuracy below which accuracy is "low" (`A_low`).
    pub accuracy_low: f64,
    /// Accuracy at or above which accuracy is "high" (`A_high`).
    pub accuracy_high: f64,
}

/// The paper's Table 4 values: `T_coverage` = 0.2, `A_low` = 0.4,
/// `A_high` = 0.7.
pub const TABLE4_THRESHOLDS: ThrottleThresholds = ThrottleThresholds {
    coverage: 0.2,
    accuracy_low: 0.4,
    accuracy_high: 0.7,
};

impl Default for ThrottleThresholds {
    fn default() -> Self {
        TABLE4_THRESHOLDS
    }
}

/// Accuracy band relative to [`ThrottleThresholds`]: the paper's
/// Low / Medium / High classification used by Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccuracyClass {
    /// `accuracy < A_low`.
    Low,
    /// `A_low <= accuracy < A_high`.
    Medium,
    /// `accuracy >= A_high`.
    High,
}

impl ThrottleThresholds {
    /// Classifies an accuracy value against `A_low`/`A_high`.
    pub fn accuracy_class(&self, accuracy: f64) -> AccuracyClass {
        if accuracy >= self.accuracy_high {
            AccuracyClass::High
        } else if accuracy < self.accuracy_low {
            AccuracyClass::Low
        } else {
            AccuracyClass::Medium
        }
    }

    /// The paper's Table 3 decision for one prefetcher, with the case
    /// number (1–5) that fired.
    ///
    /// | Case | Own coverage | Own accuracy    | Rival coverage | Decision |
    /// |------|--------------|-----------------|----------------|----------|
    /// | 1    | High         | —               | —              | Up       |
    /// | 2    | Low          | Low             | —              | Down     |
    /// | 3    | Low          | Medium or High  | Low            | Up       |
    /// | 4    | Low          | Medium          | High           | Down     |
    /// | 5    | Low          | High            | High           | Keep     |
    pub fn classify(
        &self,
        own_coverage: f64,
        own_accuracy: f64,
        rival_coverage: f64,
    ) -> (ThrottleDecision, u8) {
        if own_coverage >= self.coverage {
            return (ThrottleDecision::Up, 1);
        }
        let rival_high = rival_coverage >= self.coverage;
        match (self.accuracy_class(own_accuracy), rival_high) {
            (AccuracyClass::Low, _) => (ThrottleDecision::Down, 2),
            (AccuracyClass::Medium | AccuracyClass::High, false) => (ThrottleDecision::Up, 3),
            (AccuracyClass::Medium, true) => (ThrottleDecision::Down, 4),
            (AccuracyClass::High, true) => (ThrottleDecision::Keep, 5),
        }
    }
}

/// One prefetcher's feedback counters.
#[derive(Debug, Clone, Default)]
pub struct FeedbackCounters {
    /// Equation-3 smoothed value of *total-prefetched*.
    pub prefetched: f64,
    /// Equation-3 smoothed value of *total-used* (timely **and** late: a
    /// used prefetch did not waste bandwidth, so it counts toward
    /// accuracy).
    pub used: f64,
    /// Smoothed count of *timely* uses only — the prefetches that actually
    /// eliminated a demand miss; coverage is computed from these (a late
    /// prefetch's demand still missed and is charged to the miss counter).
    pub timely: f64,
    /// Smoothed count of late prefetches (demand merged while in flight).
    pub late: f64,
    /// Smoothed count of pollution events (demand miss to a block this
    /// prefetcher evicted).
    pub pollution: f64,
    /// Raw counts within the current interval.
    pub cur_prefetched: u64,
    /// Raw used count within the current interval.
    pub cur_used: u64,
    /// Raw timely-use count within the current interval.
    pub cur_timely: u64,
    /// Raw late count within the current interval.
    pub cur_late: u64,
    /// Raw pollution count within the current interval.
    pub cur_pollution: u64,
    /// Lifetime totals (for end-of-run statistics, not throttling).
    pub total_prefetched: u64,
    /// Lifetime used total.
    pub total_used: u64,
    /// Lifetime late total.
    pub total_late: u64,
    /// Lifetime pollution total.
    pub total_pollution: u64,
}

impl FeedbackCounters {
    /// Records an issued prefetch.
    pub fn record_issued(&mut self) {
        self.cur_prefetched += 1;
        self.total_prefetched += 1;
    }

    /// Records a used prefetch; `late` if the demand arrived before the fill.
    pub fn record_used(&mut self, late: bool) {
        self.cur_used += 1;
        self.total_used += 1;
        if late {
            self.cur_late += 1;
            self.total_late += 1;
        } else {
            self.cur_timely += 1;
        }
    }

    /// Records a pollution event.
    pub fn record_pollution(&mut self) {
        self.cur_pollution += 1;
        self.total_pollution += 1;
    }

    /// Applies Equation 3 at the end of an interval.
    pub fn end_interval(&mut self) {
        self.prefetched = 0.5 * self.prefetched + 0.5 * self.cur_prefetched as f64;
        self.used = 0.5 * self.used + 0.5 * self.cur_used as f64;
        self.timely = 0.5 * self.timely + 0.5 * self.cur_timely as f64;
        self.late = 0.5 * self.late + 0.5 * self.cur_late as f64;
        self.pollution = 0.5 * self.pollution + 0.5 * self.cur_pollution as f64;
        self.cur_prefetched = 0;
        self.cur_used = 0;
        self.cur_timely = 0;
        self.cur_late = 0;
        self.cur_pollution = 0;
    }
}

/// Smoothed feedback for one prefetcher over the last interval, handed to
/// the throttling policy.
#[derive(Debug, Clone, Copy)]
pub struct IntervalFeedback {
    /// Prefetch accuracy: used / prefetched (Equation 1). 1.0 when no
    /// prefetches were issued (an idle prefetcher is not inaccurate).
    pub accuracy: f64,
    /// Prefetch coverage: used / (used + demand misses) (Equation 2).
    pub coverage: f64,
    /// Fraction of used prefetches that were late (FDP input).
    pub lateness: f64,
    /// Pollution events / demand misses (FDP input).
    pub pollution: f64,
    /// The prefetcher's current aggressiveness level.
    pub level: Aggressiveness,
}

/// A throttling decision for one prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThrottleDecision {
    /// Increase aggressiveness one level.
    Up,
    /// Decrease aggressiveness one level.
    Down,
    /// Leave the level unchanged.
    Keep,
}

/// Why a throttling decision was taken, for the observability layer.
///
/// Policies that classify their decisions (the coordinated policy's Table 3
/// cases) expose one entry per prefetcher after each
/// [`ThrottlePolicy::adjust`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionTrace {
    /// The heuristic case that fired (Table 3 cases 1–5 for the
    /// coordinated policy; 0 when the policy does not classify).
    pub case: u8,
    /// The rival coverage the decision was based on (0.0 when the policy
    /// has no notion of a rival).
    pub rival_coverage: f64,
}

/// A policy that adjusts prefetcher aggressiveness from interval feedback.
///
/// Implementations receive one [`IntervalFeedback`] per registered
/// prefetcher (in registration order) and return one decision per
/// prefetcher.
pub trait ThrottlePolicy {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Decides the per-prefetcher throttling actions for the next interval.
    fn adjust(&mut self, feedback: &[IntervalFeedback]) -> Vec<ThrottleDecision>;

    /// The per-prefetcher rationale for the most recent [`Self::adjust`]
    /// call, if the policy records one (one entry per prefetcher, in the
    /// same order as the returned decisions). The default is `None`; the
    /// observability layer then records case 0 ("unclassified").
    fn decision_trace(&self) -> Option<&[DecisionTrace]> {
        None
    }

    /// Serializes the policy's internal state (selector flags, last
    /// decision traces) for a warm-state snapshot. Stateless policies keep
    /// the default no-op.
    fn save_state(&self, _w: &mut crate::frame::FrameWriter) {}

    /// Restores state written by [`ThrottlePolicy::save_state`], fully
    /// overwriting any previous state.
    ///
    /// # Errors
    ///
    /// Returns a [`crate::frame::FrameError`] on a malformed blob;
    /// the engine surfaces it as a snapshot rejection.
    fn load_state(
        &mut self,
        _r: &mut crate::frame::FrameReader<'_>,
    ) -> Result<(), crate::frame::FrameError> {
        Ok(())
    }
}

/// A policy that never changes anything (the paper's non-throttled configs).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoThrottle;

impl ThrottlePolicy for NoThrottle {
    fn name(&self) -> &'static str {
        "none"
    }

    fn adjust(&mut self, feedback: &[IntervalFeedback]) -> Vec<ThrottleDecision> {
        vec![ThrottleDecision::Keep; feedback.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equation3_halves_history() {
        let mut c = FeedbackCounters::default();
        for _ in 0..100 {
            c.record_issued();
        }
        c.end_interval();
        assert!((c.prefetched - 50.0).abs() < 1e-9);
        for _ in 0..100 {
            c.record_issued();
        }
        c.end_interval();
        assert!((c.prefetched - 75.0).abs() < 1e-9);
        assert_eq!(c.cur_prefetched, 0);
        assert_eq!(c.total_prefetched, 200);
    }

    #[test]
    fn used_and_late_accounting() {
        let mut c = FeedbackCounters::default();
        c.record_used(false);
        c.record_used(true);
        assert_eq!(c.total_used, 2);
        assert_eq!(c.total_late, 1);
    }

    #[test]
    fn table4_constants_match_the_paper() {
        let t = TABLE4_THRESHOLDS;
        assert_eq!(t.coverage, 0.2);
        assert_eq!(t.accuracy_low, 0.4);
        assert_eq!(t.accuracy_high, 0.7);
        assert_eq!(ThrottleThresholds::default(), t);
    }

    #[test]
    fn classify_covers_all_five_table3_cases() {
        let t = ThrottleThresholds::default();
        assert_eq!(t.classify(0.5, 0.0, 0.0), (ThrottleDecision::Up, 1));
        assert_eq!(t.classify(0.1, 0.2, 0.0), (ThrottleDecision::Down, 2));
        assert_eq!(t.classify(0.1, 0.5, 0.1), (ThrottleDecision::Up, 3));
        assert_eq!(t.classify(0.1, 0.5, 0.6), (ThrottleDecision::Down, 4));
        assert_eq!(t.classify(0.1, 0.9, 0.6), (ThrottleDecision::Keep, 5));
    }

    #[test]
    fn boundary_values_classify_as_documented() {
        let t = ThrottleThresholds::default();
        // accuracy == A_high is high; accuracy == A_low is medium.
        assert_eq!(t.accuracy_class(0.7), AccuracyClass::High);
        assert_eq!(t.accuracy_class(0.4), AccuracyClass::Medium);
        assert_eq!(t.accuracy_class(0.39), AccuracyClass::Low);
        // coverage == T_coverage is high: case 1.
        assert_eq!(t.classify(0.2, 0.0, 0.0), (ThrottleDecision::Up, 1));
    }

    #[test]
    fn no_throttle_keeps_everything() {
        let fb = IntervalFeedback {
            accuracy: 0.1,
            coverage: 0.9,
            lateness: 0.0,
            pollution: 0.0,
            level: Aggressiveness::Aggressive,
        };
        let mut p = NoThrottle;
        assert_eq!(p.adjust(&[fb, fb]), vec![ThrottleDecision::Keep; 2]);
    }
}
