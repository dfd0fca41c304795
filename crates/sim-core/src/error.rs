//! Structured simulation failures.
//!
//! The engine never aborts the process on a wedged model any more: the
//! run loop behind [`crate::Machine::run`] and
//! [`crate::Machine::run_cores`] returns a [`SimError`] carrying a
//! [`DiagnosticSnapshot`] of the stuck core, so a sweep harness can
//! record the failure, keep the remaining cells going, and print enough
//! state to debug the wedge (ROB head, MSHR occupancy, DRAM queue
//! depth).

/// Machine state captured at the moment a run was declared stuck.
///
/// All fields describe the core the failure was attributed to; in a
/// multi-core run that is the first unfinished core.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiagnosticSnapshot {
    /// Simulated cycle at capture time.
    pub cycle: u64,
    /// Core the snapshot describes.
    pub core: u8,
    /// Trace operations fully retired.
    pub retired_ops: usize,
    /// Total operations in the trace.
    pub total_ops: usize,
    /// Instructions currently in the reorder buffer.
    pub window_instrs: u32,
    /// ROB head: `(op index, issued, completion cycle)` — the completion
    /// cycle is `None` while the op has no scheduled wake-up, which is
    /// the signature of a head whose miss never drains.
    pub rob_head: Option<(u32, bool, Option<u64>)>,
    /// Occupied / total MSHRs.
    pub mshr_occupancy: u32,
    /// MSHR capacity.
    pub mshr_capacity: u32,
    /// Prefetch requests waiting in the per-core queue.
    pub pf_queue_len: usize,
    /// Writebacks waiting for request-buffer space.
    pub pending_writebacks: usize,
    /// Requests in the shared DRAM request buffer.
    pub dram_queue_depth: usize,
    /// Whether the DRAM request buffer is at capacity.
    pub dram_full: bool,
}

impl std::fmt::Display for DiagnosticSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cycle {} core {}: {}/{} ops retired, {} window instrs, rob head {}, \
             mshrs {}/{}, pf queue {}, writebacks {}, dram queue {}{}",
            self.cycle,
            self.core,
            self.retired_ops,
            self.total_ops,
            self.window_instrs,
            match self.rob_head {
                None => "empty".to_string(),
                Some((op, issued, done)) => format!(
                    "op {op} (issued={issued}, completes={})",
                    done.map_or("never".to_string(), |c| c.to_string())
                ),
            },
            self.mshr_occupancy,
            self.mshr_capacity,
            self.pf_queue_len,
            self.pending_writebacks,
            self.dram_queue_depth,
            if self.dram_full { " (full)" } else { "" },
        )
    }
}

/// Whether a failure is worth retrying.
///
/// The sweep supervisor in `bench` retries [`ErrorClass::Transient`]
/// failures with deterministic backoff and gives up immediately on
/// [`ErrorClass::Permanent`] ones: a deterministic simulator re-run of a
/// deadlocked or panicking cell reproduces the same failure, while a
/// wall-clock deadline miss is a property of the host (scheduling, I/O
/// stalls, injected delays), not of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Retrying may succeed (host-time effects: deadlines, stalls).
    Transient,
    /// Retrying reproduces the failure (deterministic simulator state).
    Permanent,
}

impl ErrorClass {
    /// Stable lower-case label used in manifests (`"transient"` /
    /// `"permanent"`).
    pub fn label(self) -> &'static str {
        match self {
            ErrorClass::Transient => "transient",
            ErrorClass::Permanent => "permanent",
        }
    }
}

impl std::fmt::Display for ErrorClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A structured simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No forward progress (no retirement and no MSHR drain) for the
    /// configured `deadlock_cycles`, or the machine went fully quiescent
    /// with unfinished work — always a simulator or trace bug, never a
    /// property of a slow workload.
    Deadlock(DiagnosticSnapshot),
    /// The run exceeded an externally imposed cycle budget (see
    /// [`crate::Machine::set_cycle_budget`]).
    CycleBudgetExceeded {
        /// The configured budget, in cycles.
        budget: u64,
        /// State at the moment the budget was exhausted.
        snapshot: DiagnosticSnapshot,
    },
    /// An internal consistency check failed (e.g. the post-run drain
    /// loop did not converge).
    InvariantViolation(String),
    /// A workload generator or simulation panicked; the harness caught
    /// the unwind and carries the panic message here.
    WorkloadPanic(String),
    /// The run exceeded a wall-clock deadline installed with
    /// [`crate::Machine::set_wall_deadline`]. The engine watchdog
    /// notices the overrun at its normal check cadence, captures the
    /// diagnostic snapshot, and kills the run — the
    /// watchdog → snapshot-capture → kill escalation the sweep
    /// supervisor relies on. Always [`ErrorClass::Transient`]: the
    /// overrun measures host time, not simulator state.
    DeadlineExceeded {
        /// The configured deadline, in wall-clock milliseconds.
        deadline_ms: u64,
        /// State at the moment the overrun was detected.
        snapshot: DiagnosticSnapshot,
    },
    /// A warm-state snapshot was rejected at fork time (wrong
    /// configuration fingerprint, mismatched prefetcher registration, or
    /// a malformed state blob). The message is the decoder's diagnostic;
    /// harnesses treat this as "fall back to a cold run".
    SnapshotRejected(String),
}

impl SimError {
    /// Short stable tag used in manifests (`error_kind` field).
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::Deadlock(_) => "deadlock",
            SimError::CycleBudgetExceeded { .. } => "cycle-budget",
            SimError::InvariantViolation(_) => "invariant",
            SimError::WorkloadPanic(_) => "panic",
            SimError::DeadlineExceeded { .. } => "deadline",
            SimError::SnapshotRejected(_) => "snapshot-rejected",
        }
    }

    /// Retry classification (see [`ErrorClass`]): only wall-clock
    /// deadline misses are transient; everything else reproduces
    /// deterministically on a retry.
    pub fn class(&self) -> ErrorClass {
        match self {
            SimError::DeadlineExceeded { .. } => ErrorClass::Transient,
            SimError::Deadlock(_)
            | SimError::CycleBudgetExceeded { .. }
            | SimError::InvariantViolation(_)
            | SimError::WorkloadPanic(_)
            | SimError::SnapshotRejected(_) => ErrorClass::Permanent,
        }
    }

    /// The diagnostic snapshot, when the failure carries one.
    pub fn snapshot(&self) -> Option<&DiagnosticSnapshot> {
        match self {
            SimError::Deadlock(s)
            | SimError::CycleBudgetExceeded { snapshot: s, .. }
            | SimError::DeadlineExceeded { snapshot: s, .. } => Some(s),
            _ => None,
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock(s) => write!(f, "simulator deadlock: {s}"),
            SimError::CycleBudgetExceeded { budget, snapshot } => {
                write!(f, "cycle budget of {budget} exceeded: {snapshot}")
            }
            SimError::InvariantViolation(msg) => write!(f, "invariant violation: {msg}"),
            SimError::WorkloadPanic(msg) => write!(f, "workload panic: {msg}"),
            SimError::DeadlineExceeded {
                deadline_ms,
                snapshot,
            } => {
                write!(
                    f,
                    "wall-clock deadline of {deadline_ms} ms exceeded: {snapshot}"
                )
            }
            SimError::SnapshotRejected(msg) => write!(f, "snapshot rejected: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable() {
        assert_eq!(
            SimError::Deadlock(DiagnosticSnapshot::default()).kind(),
            "deadlock"
        );
        assert_eq!(
            SimError::CycleBudgetExceeded {
                budget: 1,
                snapshot: DiagnosticSnapshot::default()
            }
            .kind(),
            "cycle-budget"
        );
        assert_eq!(
            SimError::InvariantViolation(String::new()).kind(),
            "invariant"
        );
        assert_eq!(SimError::WorkloadPanic(String::new()).kind(), "panic");
        assert_eq!(
            SimError::DeadlineExceeded {
                deadline_ms: 5,
                snapshot: DiagnosticSnapshot::default()
            }
            .kind(),
            "deadline"
        );
        assert_eq!(
            SimError::SnapshotRejected(String::new()).kind(),
            "snapshot-rejected"
        );
    }

    #[test]
    fn only_deadline_misses_are_transient() {
        let deadline = SimError::DeadlineExceeded {
            deadline_ms: 100,
            snapshot: DiagnosticSnapshot::default(),
        };
        assert_eq!(deadline.class(), ErrorClass::Transient);
        assert!(deadline.snapshot().is_some(), "deadline carries state");
        assert!(deadline.to_string().contains("100 ms"), "{deadline}");
        for permanent in [
            SimError::Deadlock(DiagnosticSnapshot::default()),
            SimError::CycleBudgetExceeded {
                budget: 1,
                snapshot: DiagnosticSnapshot::default(),
            },
            SimError::InvariantViolation(String::new()),
            SimError::WorkloadPanic(String::new()),
            SimError::SnapshotRejected(String::new()),
        ] {
            assert_eq!(permanent.class(), ErrorClass::Permanent, "{permanent:?}");
        }
        assert_eq!(ErrorClass::Transient.label(), "transient");
        assert_eq!(ErrorClass::Permanent.to_string(), "permanent");
    }

    #[test]
    fn display_mentions_the_snapshot() {
        let e = SimError::Deadlock(DiagnosticSnapshot {
            cycle: 42,
            mshr_occupancy: 3,
            mshr_capacity: 32,
            ..Default::default()
        });
        let text = e.to_string();
        assert!(text.contains("deadlock"), "{text}");
        assert!(text.contains("mshrs 3/32"), "{text}");
    }
}
