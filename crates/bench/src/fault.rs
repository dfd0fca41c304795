//! Deterministic fault injection for the sweep harness.
//!
//! A [`FaultPlan`] maps sweep cells — (workload, input, system) triples —
//! to injected failures: a panic, a genuine simulator livelock (driven
//! through the real engine watchdog), an artificial slowdown, or one of
//! the I/O faults the persistent result store's write layer understands
//! (see [`crate::store`]). Plans are parsed from a request's `fault_plan`
//! field, so the integration tests can exercise the failure paths of the
//! *real* `run_all` binary without patching any experiment code.
//!
//! Plan syntax (entries separated by `;`):
//!
//! ```text
//! action@workload:input:system[=[ms][xN]]
//! action@*[=[ms][xN]]
//! ```
//!
//! * `action` is `panic`, `livelock`, `slow`, `stall`,
//!   `corrupt-checkpoint`, `torn-write`, `short-write`, `enospc` or
//!   `corrupt-record`;
//! * `workload` is a workload name, `input` is `train`/`ref`/`test`,
//!   `system` is a system label (`SystemSpec::label`: a kind's label,
//!   plus one suffix per edit for the variant studies' runs);
//! * any of the three selectors may be `*` to match everything, and a
//!   single `*` cell (`torn-write@*`) is shorthand for `*:*:*`;
//! * `slow` and `stall` require a `=<ms>` duration; no other action
//!   takes one;
//! * an optional `xN` suffix on the value caps the rule to the first
//!   `N` *attempts* of each matching cell (`slow@*=500x1` delays only
//!   attempt 1), which is how the chaos tests make a fault transient:
//!   the supervisor's retry runs clean. Without a cap the rule fires on
//!   every attempt.
//!
//! Example: `panic@mst:test:stream+cdp;slow@health:test:*=400x1;torn-write@*`.

use ecdp::system::SystemKind;
use sim_core::{Machine, MachineConfig, OpKind, SimError, Trace, TraceOp};
use sim_mem::{layout, SimMemory};
use workloads::InputSet;

use crate::manifest::input_label;

/// The failure to inject into a matched cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic inside the cell's compute closure.
    Panic,
    /// Run a trace with circular address dependences through the real
    /// engine so the watchdog reports [`SimError::Deadlock`].
    Livelock,
    /// Sleep this many milliseconds before the real run (scheduling
    /// jitter for the executor tests). Under a per-cell wall-clock
    /// deadline the sleep is interruptible: a deadline overrun mid-sleep
    /// fails the attempt with `SimError::DeadlineExceeded`.
    Slow(u64),
    /// Stall the cell's *store write* for this many milliseconds — the
    /// I/O-side twin of [`FaultAction::Slow`], injected through the
    /// result store's faultable write layer.
    Stall(u64),
    /// Flip a byte of the cell's on-disk warm checkpoint before it is
    /// parsed, so the snapshot CRC check rejects it and the lab's
    /// cold-run fallback path runs for real.
    CorruptCheckpoint,
    /// Tear the cell's result-store append: write only a prefix of the
    /// record frame and report failure, as a crash mid-`write(2)` would.
    TornWrite,
    /// Short-write the cell's result-store append: persist a prefix of
    /// the frame but report *success*, the silent-truncation case the
    /// store's startup recovery must catch by CRC.
    ShortWrite,
    /// Fail the cell's result-store append with `ENOSPC` (disk full),
    /// driving the store's in-memory degradation path.
    Enospc,
    /// Flip a byte of the cell's result-store record after a successful
    /// append, so per-record CRC validation quarantines it on the next
    /// open and the cell heals by cold re-run.
    CorruptRecord,
}

impl FaultAction {
    /// True for the actions dispatched through the result store's
    /// faultable write layer rather than the cell's compute closure.
    pub fn is_store_fault(self) -> bool {
        matches!(
            self,
            FaultAction::Stall(_)
                | FaultAction::TornWrite
                | FaultAction::ShortWrite
                | FaultAction::Enospc
                | FaultAction::CorruptRecord
        )
    }
}

/// One `action@workload:input:system` entry of a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FaultRule {
    workload: String,
    input: String,
    system: String,
    action: FaultAction,
    /// Fire only on attempts `1..=max_attempts` of a matching cell;
    /// `None` means every attempt.
    max_attempts: Option<u32>,
}

fn matches(selector: &str, value: &str) -> bool {
    selector == "*" || selector == value
}

/// A set of fault-injection rules; empty means "no faults".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// The empty plan: nothing is injected.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Adds a rule firing on every attempt; selectors may be `*`.
    pub fn push(&mut self, action: FaultAction, workload: &str, input: &str, system: &str) {
        self.push_capped(action, workload, input, system, None);
    }

    /// Adds a rule firing only on the first `max_attempts` attempts of
    /// each matching cell (`None` = every attempt).
    pub fn push_capped(
        &mut self,
        action: FaultAction,
        workload: &str,
        input: &str,
        system: &str,
        max_attempts: Option<u32>,
    ) {
        self.rules.push(FaultRule {
            workload: workload.to_string(),
            input: input.to_string(),
            system: system.to_string(),
            action,
            max_attempts,
        });
    }

    /// Parses the plan syntax described in the module docs.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed entries; an empty
    /// or whitespace-only string parses to the empty plan.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::none();
        for entry in text.split(';').map(str::trim).filter(|e| !e.is_empty()) {
            let (action_text, cell) = entry
                .split_once('@')
                .ok_or_else(|| format!("fault entry {entry:?} is missing '@'"))?;
            // Optional value: `=<ms>`, `=x<N>` or `=<ms>x<N>`.
            let (cell, ms, cap) = match cell.split_once('=') {
                Some((c, value)) => {
                    let (ms_text, cap) = match value.split_once('x') {
                        Some((m, n)) => (
                            m,
                            Some(n.parse::<u32>().ok().filter(|&n| n > 0).ok_or_else(|| {
                                format!("fault entry {entry:?} has a bad attempt cap {n:?}")
                            })?),
                        ),
                        None => (value, None),
                    };
                    let ms = if ms_text.is_empty() {
                        None
                    } else {
                        Some(ms_text.parse::<u64>().map_err(|_| {
                            format!("fault entry {entry:?} has a non-numeric duration {ms_text:?}")
                        })?)
                    };
                    if ms.is_none() && cap.is_none() {
                        return Err(format!("fault entry {entry:?} has an empty '=' value"));
                    }
                    (c, ms, cap)
                }
                None => (cell, None, None),
            };
            // `@*` is shorthand for the all-wildcard cell `*:*:*`.
            let (workload, input, system) = if cell == "*" {
                ("*", "*", "*")
            } else {
                let mut parts = cell.split(':');
                match (parts.next(), parts.next(), parts.next()) {
                    (Some(w), Some(i), Some(s)) if parts.next().is_none() => (w, i, s),
                    _ => {
                        return Err(format!(
                        "fault entry {entry:?} must target workload:input:system (or a single '*')"
                    ))
                    }
                }
            };
            let action = match (action_text, ms) {
                ("panic", None) => FaultAction::Panic,
                ("livelock", None) => FaultAction::Livelock,
                ("slow", Some(ms)) => FaultAction::Slow(ms),
                ("stall", Some(ms)) => FaultAction::Stall(ms),
                ("slow" | "stall", None) => {
                    return Err(format!("fault entry {entry:?} needs '=<ms>'"))
                }
                ("corrupt-checkpoint", None) => FaultAction::CorruptCheckpoint,
                ("torn-write", None) => FaultAction::TornWrite,
                ("short-write", None) => FaultAction::ShortWrite,
                ("enospc", None) => FaultAction::Enospc,
                ("corrupt-record", None) => FaultAction::CorruptRecord,
                (
                    "panic" | "livelock" | "corrupt-checkpoint" | "torn-write" | "short-write"
                    | "enospc" | "corrupt-record",
                    Some(_),
                ) => return Err(format!("fault entry {entry:?} takes no duration")),
                (other, _) => return Err(format!("unknown fault action {other:?} in {entry:?}")),
            };
            plan.push_capped(action, workload, input, system, cap);
        }
        Ok(plan)
    }

    /// The actions of the rules matching `attempt` (1-based) of a cell
    /// whose system has label `system` (a `SystemSpec::label`), in plan
    /// order. Rules with an `xN` cap stop firing after attempt `N`, which
    /// is what lets a supervisor retry land clean.
    fn matching<'a>(
        &'a self,
        workload: &'a str,
        input: InputSet,
        system: &'a str,
        attempt: u32,
    ) -> impl Iterator<Item = FaultAction> + 'a {
        let input = input_label(input);
        self.rules
            .iter()
            .filter(move |r| {
                r.max_attempts.is_none_or(|cap| attempt <= cap)
                    && matches(&r.workload, workload)
                    && matches(&r.input, &input)
                    && matches(&r.system, system)
            })
            .map(|r| r.action)
    }

    /// The first rule's action for `attempt` of a cell whose system has
    /// label `system` (a `SystemSpec::label`).
    pub fn action_for_attempt(
        &self,
        workload: &str,
        input: InputSet,
        system: &str,
        attempt: u32,
    ) -> Option<FaultAction> {
        self.matching(workload, input, system, attempt).next()
    }

    /// The first matching *store* fault (see
    /// [`FaultAction::is_store_fault`]) for `attempt` of a cell — the
    /// injection hook of the result store's faultable write layer.
    /// Compute-side actions never leak through this lens, so one plan
    /// can target both layers.
    pub fn store_fault_for_attempt(
        &self,
        workload: &str,
        input: InputSet,
        system: SystemKind,
        attempt: u32,
    ) -> Option<FaultAction> {
        self.matching(workload, input, system.label(), attempt)
            .find(|a| a.is_store_fault())
    }
}

/// Runs a two-op trace with circular address dependences through the real
/// engine and returns the watchdog's [`SimError::Deadlock`].
///
/// This is the injection vehicle for [`FaultAction::Livelock`]: the error
/// comes from the same detection path a genuine wedge would take, so the
/// harness tests cover snapshot capture and error propagation end-to-end.
///
/// # Panics
///
/// Panics if the engine fails to report the deadlock (itself a bug).
pub fn run_livelock() -> SimError {
    let op = |dep: u32| TraceOp {
        pc: 0x400,
        addr: layout::HEAP_BASE,
        value: 0,
        dep,
        kind: OpKind::Load,
        lds: false,
    };
    let trace = Trace {
        initial_memory: SimMemory::new(),
        ops: vec![op(1), op(0)],
        instructions: 2,
    };
    let mut machine = Machine::new(MachineConfig::default());
    match machine.run(&trace) {
        Err(e) => e,
        Ok(_) => unreachable!("circular address dependences cannot complete"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_mixed_plan() {
        let plan =
            FaultPlan::parse("panic@mst:test:stream+cdp; livelock@health:*:stream ;slow@*:*:*=7")
                .expect("valid plan");
        assert_eq!(
            plan.action_for_attempt("mst", InputSet::Test, SystemKind::StreamCdp.label(), 1),
            Some(FaultAction::Panic)
        );
        assert_eq!(
            plan.action_for_attempt("health", InputSet::Ref, SystemKind::StreamOnly.label(), 1),
            Some(FaultAction::Livelock)
        );
        // First match wins; the wildcard slow rule catches the rest.
        assert_eq!(
            plan.action_for_attempt("em3d", InputSet::Train, SystemKind::GhbAlone.label(), 1),
            Some(FaultAction::Slow(7))
        );
    }

    #[test]
    fn empty_and_invalid_plans() {
        assert!(FaultPlan::parse("").expect("empty ok").is_empty());
        assert!(FaultPlan::parse("  ;  ").expect("blank ok").is_empty());
        assert!(FaultPlan::parse("panic@mst:test").is_err());
        assert!(FaultPlan::parse("explode@a:b:c").is_err());
        assert!(FaultPlan::parse("slow@a:b:c").is_err());
        assert!(FaultPlan::parse("slow@a:b:c=fast").is_err());
        assert!(FaultPlan::parse("panic mst").is_err());
        assert!(FaultPlan::parse("corrupt-checkpoint@a:b:c=3").is_err());
        assert_eq!(
            FaultPlan::parse("corrupt-checkpoint@mst:test:stream")
                .expect("valid")
                .action_for_attempt("mst", InputSet::Test, SystemKind::StreamOnly.label(), 1),
            Some(FaultAction::CorruptCheckpoint)
        );
    }

    #[test]
    fn parses_io_fault_actions() {
        let plan = FaultPlan::parse(
            "torn-write@mst:test:stream;short-write@health:test:*;\
             enospc@*:*:stream+cdp;corrupt-record@em3d:test:stream;stall@*:*:*=25",
        )
        .expect("valid plan");
        assert_eq!(
            plan.action_for_attempt("mst", InputSet::Test, SystemKind::StreamOnly.label(), 1),
            Some(FaultAction::TornWrite)
        );
        assert_eq!(
            plan.action_for_attempt("health", InputSet::Test, SystemKind::StreamEcdp.label(), 1),
            Some(FaultAction::ShortWrite)
        );
        assert_eq!(
            plan.action_for_attempt("perimeter", InputSet::Ref, SystemKind::StreamCdp.label(), 1),
            Some(FaultAction::Enospc)
        );
        assert_eq!(
            plan.action_for_attempt("em3d", InputSet::Test, SystemKind::StreamOnly.label(), 1),
            Some(FaultAction::CorruptRecord)
        );
        assert_eq!(
            plan.action_for_attempt("treeadd", InputSet::Train, SystemKind::GhbAlone.label(), 1),
            Some(FaultAction::Stall(25))
        );
    }

    #[test]
    fn io_fault_actions_reject_durations_and_bad_cells() {
        assert!(FaultPlan::parse("torn-write@a:b:c=3").is_err());
        assert!(FaultPlan::parse("short-write@a:b:c=3").is_err());
        assert!(FaultPlan::parse("enospc@a:b:c=3").is_err());
        assert!(FaultPlan::parse("corrupt-record@a:b:c=3").is_err());
        assert!(FaultPlan::parse("stall@a:b:c").is_err(), "stall needs ms");
        assert!(FaultPlan::parse("torn-write@a:b").is_err(), "2-part cell");
        assert!(FaultPlan::parse("torn-write@a:b:c:d").is_err(), "4 parts");
        assert!(FaultPlan::parse("torn-write@").is_err(), "empty cell");
    }

    #[test]
    fn single_star_is_the_all_wildcard_cell() {
        let plan = FaultPlan::parse("torn-write@*").expect("valid");
        assert_eq!(
            plan.action_for_attempt("anything", InputSet::Ref, SystemKind::GhbAlone.label(), 1),
            Some(FaultAction::TornWrite)
        );
        // `**` or a partial star cell is still malformed.
        assert!(FaultPlan::parse("torn-write@**").is_err());
        assert!(FaultPlan::parse("torn-write@*:*").is_err());
    }

    #[test]
    fn attempt_caps_stop_rules_after_n_attempts() {
        let plan = FaultPlan::parse("slow@mst:test:stream=40x2;panic@health:test:*=x1")
            .expect("valid plan");
        let slow = |attempt| plan.action_for_attempt("mst", InputSet::Test, "stream", attempt);
        assert_eq!(slow(1), Some(FaultAction::Slow(40)));
        assert_eq!(slow(2), Some(FaultAction::Slow(40)));
        assert_eq!(slow(3), None, "the cap clears the fault on attempt 3");
        let panic_at =
            |attempt| plan.action_for_attempt("health", InputSet::Test, "stream+cdp", attempt);
        assert_eq!(panic_at(1), Some(FaultAction::Panic));
        assert_eq!(panic_at(2), None);
        // Malformed caps fail fast.
        assert!(FaultPlan::parse("slow@a:b:c=40x0").is_err(), "zero cap");
        assert!(FaultPlan::parse("slow@a:b:c=40xtwo").is_err());
        assert!(FaultPlan::parse("slow@a:b:c=").is_err(), "empty value");
    }

    #[test]
    fn store_fault_lens_sees_only_io_actions() {
        let plan = FaultPlan::parse("panic@mst:test:*;corrupt-record@mst:test:*;stall@*=9x1")
            .expect("valid plan");
        // The compute-side lens sees the panic first …
        assert_eq!(
            plan.action_for_attempt("mst", InputSet::Test, SystemKind::StreamOnly.label(), 1),
            Some(FaultAction::Panic)
        );
        // … while the store lens skips it and finds the record fault.
        assert_eq!(
            plan.store_fault_for_attempt("mst", InputSet::Test, SystemKind::StreamOnly, 1),
            Some(FaultAction::CorruptRecord)
        );
        assert_eq!(
            plan.store_fault_for_attempt("health", InputSet::Test, SystemKind::StreamOnly, 1),
            Some(FaultAction::Stall(9))
        );
        assert_eq!(
            plan.store_fault_for_attempt("health", InputSet::Test, SystemKind::StreamOnly, 2),
            None,
            "the x1 cap applies to the store lens too"
        );
    }

    #[test]
    fn unmatched_cells_get_no_action() {
        let plan = FaultPlan::parse("panic@mst:test:stream").expect("valid");
        assert_eq!(
            plan.action_for_attempt("mst", InputSet::Ref, SystemKind::StreamOnly.label(), 1),
            None
        );
        assert_eq!(
            plan.action_for_attempt("health", InputSet::Test, SystemKind::StreamOnly.label(), 1),
            None
        );
    }

    #[test]
    fn injected_livelock_is_a_real_deadlock() {
        let err = run_livelock();
        assert_eq!(err.kind(), "deadlock");
        let snap = err.snapshot().expect("deadlock carries a snapshot");
        assert_eq!(snap.retired_ops, 0);
    }
}
