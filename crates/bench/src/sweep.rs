//! Parallel sweep executor.
//!
//! A [`SweepPlan`] is an explicit list of (workload, input set, system)
//! cells. [`SweepPlan::run_fault_tolerant`] executes the cells on a
//! scoped-thread worker pool against a shared [`Lab`], which memoizes
//! traces, profiles and runs behind compute-once cells — so each trace is
//! generated and profiled exactly once per process even when many cells
//! (or many concurrent sweeps) need it.
//!
//! Outcomes come back in **plan order** regardless of thread count, and
//! all metric fields are identical at any `jobs` value (only `wall_ms`
//! may differ); the determinism regression test in `crates/bench/tests`
//! pins this down.
//!
//! Each cell's simulation runs under `catch_unwind`, so a panicking or
//! deadlocked cell yields a [`RunOutcome::Failed`] record while every
//! other cell completes normally. Combined with a [`ManifestWriter`]
//! (incremental, atomic manifest flushes) and a resume manifest (skip
//! cells that already succeeded under the same machine config), this is
//! what makes long sweeps crash-safe and restartable.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ecdp::system::SystemKind;
use sim_core::{ErrorClass, Json, RunTrace};
use workloads::InputSet;

use crate::lab::Lab;
use crate::manifest::{
    config_hash, workload_provenance, FailureRecord, Manifest, ManifestWriter, RetryInfo,
    RunOutcome, RunRecord,
};
use crate::store::{AppendDisposition, ResultStore};

/// One simulation cell of a sweep.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SweepCell {
    /// Workload name (as resolved by `workloads::registry::lookup`).
    pub workload: String,
    /// Input set the measured trace comes from.
    pub input: InputSet,
    /// System configuration to run.
    pub system: SystemKind,
}

impl SweepCell {
    /// The lower-cased input label used in manifests.
    pub fn input_label(&self) -> String {
        format!("{:?}", self.input).to_lowercase()
    }
}

/// The cell supervisor's retry/deadline policy.
///
/// Failures are classified with [`sim_core::SimError::class`]:
/// *transient* failures (wall-clock deadline overruns) are retried up to
/// [`RetryPolicy::max_attempts`] times with deterministic — seeded by
/// nothing, jitter-free — exponential backoff, so two runs of the same
/// plan behave identically; *permanent* failures (deadlocks, panics,
/// invariant violations) fail the cell immediately, because a
/// deterministic simulator reproduces them on every retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempt budget per cell (≥ 1; 1 disables retries).
    pub max_attempts: u32,
    /// Backoff after the n-th failed attempt is
    /// `backoff_base_ms << (n - 1)` milliseconds.
    pub backoff_base_ms: u64,
    /// Per-attempt wall-clock deadline; `None` disables the watchdog.
    pub deadline_ms: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base_ms: 50,
            deadline_ms: None,
        }
    }
}

impl RetryPolicy {
    /// Deterministic backoff before retrying after failed `attempt`
    /// (1-based): exponential, no jitter.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        self.backoff_base_ms
            .saturating_mul(1u64 << (attempt - 1).min(16))
    }

    /// The per-attempt deadline as a [`Duration`], if configured.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline_ms.map(Duration::from_millis)
    }
}

/// Execution options for [`SweepPlan::run_fault_tolerant`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepOptions<'a> {
    /// Skip cells that already have a *successful* record (same
    /// workload, input, system and machine-config hash) in this
    /// manifest; the prior record is carried into the results.
    pub resume_from: Option<&'a Manifest>,
    /// Flush every completed cell to this writer as it finishes, so a
    /// killed process leaves a valid partial manifest behind.
    pub writer: Option<&'a ManifestWriter>,
    /// Run every cell with the observability layer enabled and write
    /// `<trace_dir>/<workload>-<input>-<system>/{timeseries.json,
    /// obs.jsonl}`; the success records carry the artifact paths.
    pub trace_dir: Option<&'a Path>,
    /// Serve cells from (and commit fresh results to) this persistent
    /// result store. A store hit skips the simulation entirely and the
    /// record carries `store: "hit"`; fresh results are appended with
    /// the cell's injected store fault, if any, routed through the
    /// write layer.
    pub store: Option<&'a ResultStore>,
    /// Retry/deadline policy for the cell supervisor.
    pub retry: RetryPolicy,
}

/// What [`SweepPlan::run_fault_tolerant`] did.
#[derive(Debug, Clone)]
pub struct SweepExecution {
    /// One outcome per plan cell, in plan order. Resume-skipped cells
    /// carry their prior success record.
    pub outcomes: Vec<RunOutcome>,
    /// Cells actually simulated in this execution.
    pub ran: usize,
    /// Cells skipped because the resume manifest already had them.
    pub skipped: usize,
    /// Cells served from the persistent result store.
    pub store_hits: usize,
}

impl SweepExecution {
    /// Number of failed cells.
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_failed()).count()
    }

    /// The success records, in plan order.
    pub fn records(&self) -> Vec<RunRecord> {
        self.outcomes
            .iter()
            .filter_map(RunOutcome::success)
            .cloned()
            .collect()
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// An ordered list of cells to execute, possibly in parallel.
#[derive(Debug, Clone, Default)]
pub struct SweepPlan {
    /// Name used for the manifest file stem.
    pub name: String,
    /// Cells in result order.
    pub cells: Vec<SweepCell>,
}

impl SweepPlan {
    /// An empty plan.
    pub fn new(name: impl Into<String>) -> Self {
        SweepPlan {
            name: name.into(),
            cells: Vec::new(),
        }
    }

    /// The full cross product of workloads × systems on one input set.
    pub fn cross(
        name: impl Into<String>,
        workloads: &[&str],
        input: InputSet,
        systems: &[SystemKind],
    ) -> Self {
        let mut plan = SweepPlan::new(name);
        for &w in workloads {
            for &s in systems {
                plan.push(w, input, s);
            }
        }
        plan
    }

    /// Appends one cell.
    pub fn push(&mut self, workload: &str, input: InputSet, system: SystemKind) {
        self.cells.push(SweepCell {
            workload: workload.to_string(),
            input,
            system,
        });
    }

    /// Keeps only cells whose workload name or system label contains
    /// `needle`, ignoring case.
    pub fn filtered(mut self, needle: &str) -> Self {
        let needle = needle.to_lowercase();
        self.cells.retain(|c| {
            c.workload.to_lowercase().contains(&needle)
                || c.system.label().to_lowercase().contains(&needle)
        });
        self
    }

    /// Executes every cell with per-cell failure isolation under the
    /// retry/deadline supervisor.
    ///
    /// Each cell's simulation runs under `catch_unwind`: a panic or a
    /// structured `SimError` produces a [`RunOutcome::Failed`] record
    /// for that cell and the remaining cells keep going on all workers.
    /// Transient failures (deadline overruns) are retried with
    /// deterministic backoff per [`RetryPolicy`]; the attempt history
    /// lands in the record's `retry` field. With a [`ResultStore`]
    /// configured, committed cells are served from the store without
    /// re-simulation and fresh results are appended to it. See
    /// [`SweepOptions`] for resume and incremental-flush behavior.
    pub fn run_fault_tolerant(
        &self,
        lab: &Lab,
        jobs: usize,
        opts: &SweepOptions<'_>,
    ) -> SweepExecution {
        let n = self.cells.len();
        let workers = jobs.clamp(1, n.max(1));
        let cfg = config_hash();

        // Resolve resume skips up front so `skipped` is exact even if
        // the process dies mid-sweep. A prior record only counts when
        // its workload provenance matches the current registry state:
        // an edited `.wl` spec or regenerated trace file must
        // re-simulate, not inherit the stale result.
        let prior: Vec<Option<RunRecord>> = self
            .cells
            .iter()
            .map(|c| {
                opts.resume_from.and_then(|m| {
                    let input = c.input_label();
                    let provenance = workload_provenance(&c.workload);
                    m.successes()
                        .find(|r| {
                            r.workload == c.workload
                                && r.input == input
                                && r.system == c.system.label()
                                && r.config_hash == cfg
                                && r.workload_hash == provenance
                        })
                        .cloned()
                })
            })
            .collect();
        let skipped = prior.iter().filter(|p| p.is_some()).count();

        let next = AtomicUsize::new(0);
        let store_hits = AtomicUsize::new(0);
        let mut slots: Vec<std::sync::OnceLock<RunOutcome>> = Vec::new();
        slots.resize_with(n, std::sync::OnceLock::new);

        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let cell = &self.cells[i];
                    let stored = || {
                        let mut record = opts.store?.get(
                            &cell.workload,
                            &cell.input_label(),
                            cell.system.label(),
                            cfg,
                        )?;
                        // Same provenance rule as resume: a committed
                        // result for an older version of the workload
                        // file is a miss, not a hit.
                        if record.workload_hash != workload_provenance(&cell.workload) {
                            return None;
                        }
                        record.store = Some("hit".to_string());
                        Some(record)
                    };
                    let outcome = match &prior[i] {
                        Some(record) => RunOutcome::Success(record.clone()),
                        None => match stored() {
                            Some(record) => {
                                store_hits.fetch_add(1, Ordering::Relaxed);
                                RunOutcome::Success(record)
                            }
                            None => supervise_cell(lab, cell, opts),
                        },
                    };
                    if let Some(w) = opts.writer {
                        if let Err(e) = w.append(i, outcome.clone()) {
                            eprintln!("[sweep] manifest flush failed: {e}");
                        }
                    }
                    let _ = slots[i].set(outcome);
                });
            }
        });

        let store_hits = store_hits.into_inner();
        SweepExecution {
            outcomes: slots
                .into_iter()
                .map(|s| {
                    s.into_inner()
                        .expect("every claimed cell stored an outcome")
                })
                .collect(),
            ran: n - skipped - store_hits,
            skipped,
            store_hits,
        }
    }
}

/// Runs one cell under the retry/deadline supervisor and commits the
/// result.
///
/// Per attempt: run (under `catch_unwind` and the per-attempt wall-clock
/// deadline), classify any failure with
/// [`sim_core::SimError::class`], and either retry after deterministic
/// backoff (transient, attempts remaining) or fail the cell. A success
/// carries the attempt history in `retry` (when more than one attempt
/// ran) and is appended to the result store with the cell's injected
/// store fault routed through the write layer.
fn supervise_cell(lab: &Lab, cell: &SweepCell, opts: &SweepOptions<'_>) -> RunOutcome {
    let policy = opts.retry;
    let deadline = policy.deadline();
    let mut attempt_errors: Vec<String> = Vec::new();
    let mut total_backoff_ms = 0u64;
    let mut attempt = 1u32;
    loop {
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| match opts.trace_dir {
            None => lab
                .try_run_attempt(&cell.workload, cell.input, cell.system, attempt, deadline)
                .map(|_| None),
            Some(_) => lab
                .try_run_traced_attempt(&cell.workload, cell.input, cell.system, attempt, deadline)
                .map(|(_, trace)| Some(trace)),
        }));
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let (kind, class, message) = match result {
            Ok(Ok(trace)) => {
                let mut record = lab
                    .record_for(&cell.workload, cell.input, cell.system)
                    .expect("successful run populated the cache");
                if let (Some(dir), Some(trace)) = (opts.trace_dir, trace) {
                    match write_cell_trace(dir, cell, &trace) {
                        Ok((ts, obs)) => {
                            record.timeseries_path = Some(ts);
                            record.obs_path = Some(obs);
                        }
                        Err(e) => eprintln!(
                            "[sweep] trace write failed for {} {} {}: {e}",
                            cell.workload,
                            cell.input_label(),
                            cell.system.label()
                        ),
                    }
                }
                if attempt > 1 {
                    record.retry = Some(RetryInfo {
                        attempts: attempt,
                        attempt_errors,
                        total_backoff_ms,
                    });
                }
                if let Some(store) = opts.store {
                    let fault = lab.faults().store_fault_for_attempt(
                        &cell.workload,
                        cell.input,
                        cell.system,
                        attempt,
                    );
                    record.store = Some(match store.append(&record, fault) {
                        AppendDisposition::Appended => "appended".to_string(),
                        AppendDisposition::Degraded(reason) => format!("degraded:{reason}"),
                    });
                }
                return RunOutcome::Success(record);
            }
            Ok(Err(e)) => (e.kind().to_string(), e.class(), e.to_string()),
            Err(payload) => (
                "panic".to_string(),
                ErrorClass::Permanent,
                panic_message(payload),
            ),
        };
        attempt_errors.push(format!("{kind}:{}", class.label()));
        if class == ErrorClass::Transient && attempt < policy.max_attempts {
            let backoff = policy.backoff_ms(attempt);
            total_backoff_ms += backoff;
            std::thread::sleep(Duration::from_millis(backoff));
            attempt += 1;
            continue;
        }
        let mut failure = FailureRecord::new(
            &cell.workload,
            cell.input,
            cell.system,
            &kind,
            &message,
            wall_ms,
        );
        failure.retry = Some(RetryInfo {
            attempts: attempt,
            attempt_errors,
            total_backoff_ms,
        });
        return RunOutcome::Failed(failure);
    }
}

/// Writes one cell's observability artifacts under `dir` and returns the
/// `(timeseries.json, obs.jsonl)` paths as manifest strings.
fn write_cell_trace(
    dir: &Path,
    cell: &SweepCell,
    trace: &RunTrace,
) -> std::io::Result<(String, String)> {
    let cell_dir = dir.join(format!(
        "{}-{}-{}",
        cell.workload,
        cell.input_label(),
        cell.system.label()
    ));
    std::fs::create_dir_all(&cell_dir)?;
    let ts_path = cell_dir.join("timeseries.json");
    std::fs::write(&ts_path, trace.timeseries_json().to_string_pretty())?;
    let obs_path = cell_dir.join("obs.jsonl");
    let meta = [
        ("workload", Json::Str(cell.workload.clone())),
        ("input", Json::Str(cell.input_label())),
        ("system", Json::Str(cell.system.label().to_string())),
        ("config_hash", Json::Str(format!("{:016x}", config_hash()))),
    ];
    std::fs::write(&obs_path, trace.to_jsonl(&meta))?;
    Ok((
        ts_path.to_string_lossy().into_owned(),
        obs_path.to_string_lossy().into_owned(),
    ))
}

/// The worker-thread count used when a request sets no `jobs`: the
/// machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn cross_builds_full_product() {
        let plan = SweepPlan::cross(
            "t",
            &["mst", "em3d"],
            InputSet::Train,
            &[SystemKind::NoPrefetch, SystemKind::StreamOnly],
        );
        assert_eq!(plan.cells.len(), 4);
        assert_eq!(plan.cells[0].workload, "mst");
        assert_eq!(plan.cells[3].system, SystemKind::StreamOnly);
    }

    #[test]
    fn filter_matches_workload_or_system() {
        let plan = SweepPlan::cross(
            "t",
            &["mst", "em3d"],
            InputSet::Train,
            &[SystemKind::NoPrefetch, SystemKind::StreamOnly],
        );
        let by_wl = plan.clone().filtered("mst");
        assert_eq!(by_wl.cells.len(), 2);
        assert!(by_wl.cells.iter().all(|c| c.workload == "mst"));
        let by_sys = plan.clone().filtered(SystemKind::StreamOnly.label());
        assert_eq!(by_sys.cells.len(), 2);
        assert!(by_sys
            .cells
            .iter()
            .all(|c| c.system == SystemKind::StreamOnly));
        // run_all lower-cases --filter; a mixed-case workload still matches.
        let mut mixed = plan;
        mixed.push("ListChase", InputSet::Train, SystemKind::StreamOnly);
        for needle in ["listchase", "ListChase", "LISTCHASE"] {
            let by_case = mixed.clone().filtered(needle);
            assert_eq!(by_case.cells.len(), 1, "{needle}");
            assert_eq!(by_case.cells[0].workload, "ListChase");
        }
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn panic_messages_are_extracted() {
        let payload = catch_unwind(|| panic!("plain {}", "message")).unwrap_err();
        assert_eq!(panic_message(payload), "plain message");
        let payload = catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(panic_message(payload), "non-string panic payload");
    }
}
