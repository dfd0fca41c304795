//! Coordinated prefetcher throttling — the paper's §4.2.
//!
//! Every sampling interval, each prefetcher (the *deciding* prefetcher)
//! makes a throttling decision from three inputs: its own coverage, its own
//! accuracy, and the *rival* prefetcher's coverage:
//!
//! | Case | Own coverage | Own accuracy    | Rival coverage | Decision |
//! |------|--------------|-----------------|----------------|----------|
//! | 1    | High         | —               | —              | Up       |
//! | 2    | Low          | Low             | —              | Down     |
//! | 3    | Low          | Medium or High  | Low            | Up       |
//! | 4    | Low          | Low or Medium   | High           | Down     |
//! | 5    | Low          | High            | High           | Keep     |
//!
//! With more than two prefetchers, the rival coverage is the maximum
//! coverage among the other prefetchers (the paper notes the scheme is
//! prefetcher-symmetric and extensible this way).

use sim_core::{
    DecisionTrace, FrameError, FrameReader, FrameWriter, IntervalFeedback, ThrottleDecision,
    ThrottlePolicy,
};

/// The thresholds of the paper's Table 4.
///
/// This is the shared `sim_core` const table
/// ([`sim_core::TABLE4_THRESHOLDS`]), re-exported under its historical
/// name so the policy and the validate subsystem's Table 3 re-derivation
/// can never disagree on the values.
pub use sim_core::ThrottleThresholds as Thresholds;

/// The coordinated throttling policy. See the module docs.
///
/// # Example
///
/// ```
/// use throttle::CoordinatedThrottle;
/// use sim_core::ThrottlePolicy;
///
/// let policy = CoordinatedThrottle::new(Default::default());
/// assert_eq!(policy.name(), "coordinated");
/// ```
#[derive(Debug, Clone, Default)]
pub struct CoordinatedThrottle {
    thresholds: Thresholds,
    /// Case number + rival coverage behind the most recent `adjust`
    /// decisions, exposed through `ThrottlePolicy::decision_trace` for
    /// the observability layer.
    last_trace: Vec<DecisionTrace>,
}

impl CoordinatedThrottle {
    /// Creates the policy with the given thresholds (use
    /// `Thresholds::default()` for the paper's values).
    pub fn new(thresholds: Thresholds) -> Self {
        CoordinatedThrottle {
            thresholds,
            last_trace: Vec::new(),
        }
    }

    /// The Table 3 decision for one prefetcher, with the case number
    /// (1–5) that fired. Delegates to the shared
    /// [`sim_core::ThrottleThresholds::classify`] table.
    fn decide(
        &self,
        own_coverage: f64,
        own_accuracy: f64,
        rival_coverage: f64,
    ) -> (ThrottleDecision, u8) {
        self.thresholds
            .classify(own_coverage, own_accuracy, rival_coverage)
    }
}

impl ThrottlePolicy for CoordinatedThrottle {
    fn name(&self) -> &'static str {
        "coordinated"
    }

    fn adjust(&mut self, feedback: &[IntervalFeedback]) -> Vec<ThrottleDecision> {
        self.last_trace.clear();
        feedback
            .iter()
            .enumerate()
            .map(|(i, own)| {
                let rival_coverage = feedback
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, f)| f.coverage)
                    .fold(0.0, f64::max);
                let (decision, case) = self.decide(own.coverage, own.accuracy, rival_coverage);
                self.last_trace.push(DecisionTrace {
                    case,
                    rival_coverage,
                });
                decision
            })
            .collect()
    }

    fn decision_trace(&self) -> Option<&[DecisionTrace]> {
        Some(&self.last_trace)
    }

    fn save_state(&self, w: &mut FrameWriter) {
        // Thresholds come from construction; only the last interval's
        // decision trace is run state.
        w.u32(self.last_trace.len() as u32);
        for t in &self.last_trace {
            w.u8(t.case);
            w.f64(t.rival_coverage);
        }
    }

    fn load_state(&mut self, r: &mut FrameReader<'_>) -> Result<(), FrameError> {
        let n = r.u32()? as usize;
        self.last_trace.clear();
        for _ in 0..n {
            self.last_trace.push(DecisionTrace {
                case: r.u8()?,
                rival_coverage: r.f64()?,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::Aggressiveness;

    fn fb(coverage: f64, accuracy: f64) -> IntervalFeedback {
        IntervalFeedback {
            accuracy,
            coverage,
            lateness: 0.0,
            pollution: 0.0,
            level: Aggressiveness::Moderate,
        }
    }

    fn policy() -> CoordinatedThrottle {
        CoordinatedThrottle::new(Thresholds::default())
    }

    #[test]
    fn case1_high_coverage_throttles_up() {
        // Regardless of accuracy and rival.
        let d = policy().adjust(&[fb(0.5, 0.1), fb(0.9, 0.9)]);
        assert_eq!(d, vec![ThrottleDecision::Up, ThrottleDecision::Up]);
    }

    #[test]
    fn case2_low_coverage_low_accuracy_throttles_down() {
        let d = policy().adjust(&[fb(0.1, 0.2), fb(0.1, 0.2)]);
        assert_eq!(d, vec![ThrottleDecision::Down, ThrottleDecision::Down]);
    }

    #[test]
    fn case3_low_rival_gives_chance_to_accurate_prefetcher() {
        // Own: low cov, medium acc; rival: low cov.
        let d = policy().adjust(&[fb(0.1, 0.5), fb(0.05, 0.1)]);
        assert_eq!(d[0], ThrottleDecision::Up);
        // High accuracy too.
        let d = policy().adjust(&[fb(0.1, 0.9), fb(0.05, 0.1)]);
        assert_eq!(d[0], ThrottleDecision::Up);
    }

    #[test]
    fn case4_medium_accuracy_yields_to_high_coverage_rival() {
        let d = policy().adjust(&[fb(0.1, 0.5), fb(0.6, 0.9)]);
        assert_eq!(d[0], ThrottleDecision::Down);
        assert_eq!(d[1], ThrottleDecision::Up, "rival is case 1");
    }

    #[test]
    fn case5_high_accuracy_with_strong_rival_keeps() {
        let d = policy().adjust(&[fb(0.1, 0.9), fb(0.6, 0.9)]);
        assert_eq!(d[0], ThrottleDecision::Keep);
    }

    #[test]
    fn thresholds_match_paper_table4() {
        let t = Thresholds::default();
        assert_eq!(t.coverage, 0.2);
        assert_eq!(t.accuracy_low, 0.4);
        assert_eq!(t.accuracy_high, 0.7);
        // The policy consumes the shared sim-core const table verbatim.
        assert_eq!(t, sim_core::TABLE4_THRESHOLDS);
    }

    #[test]
    fn boundary_values_classify_as_documented() {
        use sim_core::AccuracyClass;
        let p = policy();
        // accuracy == A_high is high; accuracy == A_low is medium.
        assert_eq!(p.thresholds.accuracy_class(0.7), AccuracyClass::High);
        assert_eq!(p.thresholds.accuracy_class(0.4), AccuracyClass::Medium);
        assert_eq!(p.thresholds.accuracy_class(0.39), AccuracyClass::Low);
        // coverage == T_coverage is high: case 1.
        assert_eq!(p.decide(0.2, 0.0, 0.0), (ThrottleDecision::Up, 1));
    }

    #[test]
    fn decision_trace_reports_case_numbers_and_rival_coverage() {
        let mut p = policy();
        assert!(
            p.decision_trace().expect("always classifies").is_empty(),
            "no adjust yet"
        );
        // Idx 0: low cov, medium acc, rival high => case 4 Down.
        // Idx 1: high cov => case 1 Up.
        let d = p.adjust(&[fb(0.1, 0.5), fb(0.6, 0.9)]);
        assert_eq!(d, vec![ThrottleDecision::Down, ThrottleDecision::Up]);
        let trace = p.decision_trace().expect("recorded");
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].case, 4);
        assert!((trace[0].rival_coverage - 0.6).abs() < 1e-12);
        assert_eq!(trace[1].case, 1);
        assert!((trace[1].rival_coverage - 0.1).abs() < 1e-12);
        // All five cases classify as documented.
        assert_eq!(p.decide(0.5, 0.0, 0.0).1, 1);
        assert_eq!(p.decide(0.1, 0.2, 0.0).1, 2);
        assert_eq!(p.decide(0.1, 0.5, 0.1).1, 3);
        assert_eq!(p.decide(0.1, 0.5, 0.6).1, 4);
        assert_eq!(p.decide(0.1, 0.9, 0.6).1, 5);
        // The trace is replaced, not appended, on the next adjust.
        p.adjust(&[fb(0.5, 0.5)]);
        assert_eq!(p.decision_trace().expect("recorded").len(), 1);
    }

    #[test]
    fn three_prefetchers_use_max_rival_coverage() {
        // Own (idx 0): low cov, high acc. Rivals: one low, one high
        // coverage. Max rival coverage is high => case 5 Keep.
        let d = policy().adjust(&[fb(0.1, 0.9), fb(0.05, 0.5), fb(0.8, 0.9)]);
        assert_eq!(d[0], ThrottleDecision::Keep);
    }

    #[test]
    fn single_prefetcher_has_zero_rival_coverage() {
        // Only one prefetcher: rival coverage 0 => case 3 for med/high acc.
        let d = policy().adjust(&[fb(0.1, 0.9)]);
        assert_eq!(d, vec![ThrottleDecision::Up]);
    }
}
