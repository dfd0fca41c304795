//! Thread-safe caching layer for experiment composition.
//!
//! A [`Lab`] memoizes workload traces, pointer-group profiles, compiler
//! artifacts and single-core run results behind compute-once cells, so
//! each is computed **exactly once per process** no matter how many
//! figures request it or how many worker threads run concurrently
//! (concurrent requesters of the same cell block on the leader instead of
//! recomputing). Runs, their observability traces and profiles are keyed
//! by (workload, input, [`SystemSpec`]): a report section or property
//! declares the spec it needs, and the lab resolves the spec's hint
//! source and builds its machine through [`SystemBuilder`]. `Lab` is
//! `Clone + Send + Sync`; clones share the same cache, which is what the
//! parallel sweep executor in [`crate::sweep`] relies on.
//!
//! The cache is failure-aware: a cell whose initializer returns an error
//! or panics stays *empty* (it does not cache the failure and does not
//! poison the map), so an injected or transient fault in one sweep cell
//! never wedges the remaining cells — the property the fault-tolerance
//! integration tests pin down.

use std::collections::HashMap;
use std::hash::Hash;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ecdp::profile::PgProfile;
use ecdp::system::{
    CompilerArtifacts, HintSource, SystemBuilder, SystemKind, SystemRun, SystemSpec,
};
use sim_core::frame::atomic_write;
use sim_core::{DiagnosticSnapshot, ObsConfig, RunStats, RunTrace, SimError, Snapshot, Trace};
use workloads::{registry, InputSet, StreamSource};

use crate::fault::{FaultAction, FaultPlan};
use crate::manifest::{config_hash, input_label, workload_provenance, RunRecord};

/// Locks a mutex, recovering from poisoning.
///
/// Every value behind these locks is a plain cache entry that is only
/// written *after* its compute completed, so a panic on another thread
/// never leaves it half-updated — recovering the guard is always safe
/// and keeps one panicking sweep cell from wedging the whole lab.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A concurrent compute-once map: the first requester of a key runs the
/// initializer, every other concurrent requester blocks until the value
/// is ready, and later requesters get the cached clone.
///
/// Failed initializers (error return or panic) leave the cell empty, so
/// the next requester retries the compute instead of observing a wedged
/// or poisoned entry.
struct OnceMap<K, V> {
    inner: Mutex<HashMap<K, Arc<Mutex<Option<V>>>>>,
}

impl<K: Eq + Hash + Clone, V: Clone> OnceMap<K, V> {
    fn new() -> Self {
        OnceMap {
            inner: Mutex::new(HashMap::new()),
        }
    }

    /// Returns the cached value or runs `f` to produce it. `Err` is
    /// propagated to the caller and *not* cached; a panicking `f`
    /// likewise leaves the cell empty for the next requester.
    fn get_or_try_init<E>(&self, key: &K, f: impl FnOnce() -> Result<V, E>) -> Result<V, E> {
        let cell = {
            let mut map = lock_recover(&self.inner);
            map.entry(key.clone()).or_default().clone()
        };
        // The map lock is released here: a slow initializer only blocks
        // requesters of the *same* key, never the whole cache.
        let mut slot = lock_recover(&cell);
        if let Some(v) = slot.as_ref() {
            return Ok(v.clone());
        }
        let v = f()?;
        *slot = Some(v.clone());
        Ok(v)
    }

    fn get_or_init(&self, key: &K, f: impl FnOnce() -> V) -> V {
        self.get_or_try_init::<std::convert::Infallible>(key, || Ok(f()))
            .unwrap_or_else(|e| match e {})
    }

    /// The cached value for `key`, if its compute has completed.
    fn get(&self, key: &K) -> Option<V> {
        let cell = lock_recover(&self.inner).get(key)?.clone();
        let slot = lock_recover(&cell);
        slot.clone()
    }

    fn len(&self) -> usize {
        lock_recover(&self.inner).len()
    }

    /// All initialized entries (skips cells still being computed).
    fn snapshot(&self) -> Vec<(K, V)> {
        let map = lock_recover(&self.inner);
        map.iter()
            .filter_map(|(k, cell)| {
                let slot = cell.try_lock().ok()?;
                slot.as_ref().map(|v| (k.clone(), v.clone()))
            })
            .collect()
    }
}

/// On-disk warm-checkpoint store configuration.
///
/// With a store configured, each sweep cell's first run captures a
/// warm-state [`Snapshot`] after `warm_cycles` simulated cycles and
/// writes it to `dir`; later runs of the same cell (typically from
/// another process — the in-process result cache already deduplicates
/// within one) fork from the stored snapshot instead of re-simulating
/// the warmup. Results are bit-identical either way (see
/// `bench::difftest`), so the store is purely a wall-clock optimization.
///
/// Checkpoints are keyed by workload, input, system label, machine-config
/// hash and warm-cycle count, plus the provenance hash for workloads
/// loaded from a file. A corrupt, truncated or stale file is
/// *never* fatal: the lab falls back to a cold run for that cell,
/// rewrites the checkpoint, and records the disposition in the cell's
/// manifest record (`checkpoint: "fallback:<reason>"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Directory holding `.snap` files (created on demand).
    pub dir: PathBuf,
    /// Cycle count at which the warm snapshot is captured.
    pub warm_cycles: u64,
}

impl CheckpointConfig {
    /// Default capture point when a request sets no
    /// `checkpoint.warm_cycles`: late enough that prefetcher tables and
    /// caches are warm on the test inputs, early enough that most runs
    /// have not finished.
    pub const DEFAULT_WARM_CYCLES: u64 = 200_000;

    /// Creates a store rooted at `dir` capturing after `warm_cycles`.
    pub fn new(dir: impl Into<PathBuf>, warm_cycles: u64) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            warm_cycles,
        }
    }

    /// The checkpoint file for one run. The spec's label (distinct for
    /// every distinct spec, so a ref-hint run never forks from a
    /// train-hint snapshot), its machine-config hash and the warm-cycle
    /// count are part of the key, so a config change or a different
    /// capture point misses cleanly instead of loading a mismatched
    /// snapshot. A workload loaded from a file also keys on its
    /// provenance hash, so an edited spec or regenerated trace never
    /// forks from the old file's warm state; built-in names carry no
    /// hash, so their existing checkpoints still load.
    pub fn cell_path(&self, name: &str, input: InputSet, spec: &SystemSpec) -> PathBuf {
        let provenance = workload_provenance(name)
            .map(|h| format!("-{h}"))
            .unwrap_or_default();
        self.dir.join(format!(
            "{name}-{}-{}-{:016x}-{}{provenance}.snap",
            input_label(input),
            spec.label(),
            spec.config_hash().unwrap_or_else(config_hash),
            self.warm_cycles
        ))
    }
}

/// Outcome of trying to load a cell's on-disk checkpoint.
enum CheckpointLoad {
    /// No checkpoint on disk yet.
    Missing,
    /// Parsed and CRC-verified.
    Loaded(Box<Snapshot>),
    /// Unreadable, corrupt or otherwise rejected — fall back cold.
    Rejected(String),
}

fn load_checkpoint(path: &Path, fault: Option<FaultAction>) -> CheckpointLoad {
    let mut bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CheckpointLoad::Missing,
        Err(e) => return CheckpointLoad::Rejected(format!("unreadable: {e}")),
    };
    if matches!(fault, Some(FaultAction::CorruptCheckpoint)) && !bytes.is_empty() {
        // Flip a payload byte so the *real* CRC check drives the
        // fallback path, not a synthetic error.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
    }
    match Snapshot::from_bytes(&bytes) {
        Ok(s) => CheckpointLoad::Loaded(Box::new(s)),
        Err(e) => CheckpointLoad::Rejected(e.to_string()),
    }
}

/// Sleeps `ms` (the injected [`FaultAction::Slow`] delay) in short
/// chunks, failing with [`SimError::DeadlineExceeded`] as soon as the
/// attempt's wall-clock budget — measured from `started` — runs out.
/// This is what makes an injected slowdown *transient*: the deadline
/// kills the stalled attempt and the supervisor's retry runs clean.
fn sleep_under_deadline(
    ms: u64,
    started: Instant,
    deadline: Option<Duration>,
) -> Result<(), SimError> {
    let total = Duration::from_millis(ms);
    let Some(limit) = deadline else {
        std::thread::sleep(total);
        return Ok(());
    };
    let end = started + total;
    loop {
        let now = Instant::now();
        if now.duration_since(started) >= limit {
            return Err(SimError::DeadlineExceeded {
                deadline_ms: limit.as_millis() as u64,
                snapshot: DiagnosticSnapshot::default(),
            });
        }
        if now >= end {
            return Ok(());
        }
        let chunk = (end - now)
            .min(limit - now.duration_since(started))
            .min(Duration::from_millis(10));
        std::thread::sleep(chunk);
    }
}

/// Run result, the wall-clock milliseconds of the fresh compute, and
/// the warm-checkpoint disposition (`None` without a store).
type RunEntry = (RunStats, f64, Option<String>);

/// What a sweep cell replays: a resident in-memory trace (built-in and
/// DSL workloads) or an external trace streamed from disk in bounded
/// windows (registered `.xtrc` files).
enum CellInput {
    Resident(Arc<Trace>),
    Streamed(Arc<StreamSource>),
}

impl CellInput {
    /// Runs a built system on this input. Streamed sources re-open (and
    /// re-validate against the registered content hash) per run, so each
    /// run has its own file cursor and the statistics stay bit-identical
    /// to a resident replay of the same ops.
    fn run(&self, builder: SystemBuilder<'_>) -> Result<SystemRun, SimError> {
        match self {
            CellInput::Resident(t) => builder.run(t),
            CellInput::Streamed(src) => {
                // The file was validated at registration; a failure here
                // means it changed or vanished mid-sweep, which is as
                // unrecoverable as a trace-generation bug.
                let mut trace = src
                    .open()
                    .unwrap_or_else(|e| panic!("streamed workload trace unusable: {e}"));
                builder.run_streamed(&mut trace)
            }
        }
    }
}

/// The key of a run, its observability trace and its profile.
type RunKey = (String, InputSet, SystemSpec);

/// The compiler artifacts and the input of one run.
type CellRun = (Arc<CompilerArtifacts>, CellInput);

/// One attempt at a run, as the sweep supervisor makes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attempt {
    /// 1-based; attempt-capped fault rules fire only on the first N.
    pub number: u32,
    /// Wall-clock budget, enforced by the engine watchdog (and by the
    /// injected-`slow` sleep, which is deadline-interruptible).
    pub deadline: Option<Duration>,
    /// Also return the run's observability trace.
    pub traced: bool,
}

impl Attempt {
    /// A first, untraced attempt without a deadline.
    pub const FIRST: Attempt = Attempt {
        number: 1,
        deadline: None,
        traced: false,
    };
}

struct LabShared {
    traces: OnceMap<(String, InputSet), Arc<Trace>>,
    profiles: OnceMap<RunKey, Arc<PgProfile>>,
    artifacts: OnceMap<String, Arc<CompilerArtifacts>>,
    runs: OnceMap<RunKey, RunEntry>,
    /// Observability traces of runs executed with [`Attempt::traced`].
    traces_obs: OnceMap<RunKey, Arc<RunTrace>>,
    faults: FaultPlan,
    checkpoints: Option<CheckpointConfig>,
    verbose: bool,
}

/// A memoizing, thread-safe experiment context.
///
/// # Example
///
/// ```no_run
/// use bench::Lab;
/// use ecdp::system::SystemKind;
///
/// let lab = Lab::new();
/// let base = lab.run("mst", SystemKind::StreamOnly).ipc();
/// let ours = lab.run("mst", SystemKind::StreamEcdpThrottled).ipc();
/// println!("speedup: {:.2}", ours / base);
/// ```
#[derive(Clone)]
pub struct Lab {
    shared: Arc<LabShared>,
}

impl Default for Lab {
    fn default() -> Self {
        Self::new()
    }
}

impl Lab {
    /// Creates an empty, quiet lab: no injected faults, no checkpoint
    /// store.
    pub fn new() -> Self {
        Self::with_checkpoints(FaultPlan::none(), None)
    }

    /// Creates an empty, quiet lab with an explicit fault-injection plan
    /// and no checkpoint store.
    pub fn with_faults(faults: FaultPlan) -> Self {
        Self::with_checkpoints(faults, None)
    }

    /// Creates an empty, quiet lab with an explicit fault plan and warm
    /// checkpoint store (`None` disables checkpointing).
    pub fn with_checkpoints(faults: FaultPlan, checkpoints: Option<CheckpointConfig>) -> Self {
        Self::build(faults, checkpoints, false)
    }

    /// The lab a resolved request describes: its fault plan (see
    /// [`FaultPlan`]), its warm-checkpoint store (see
    /// [`CheckpointConfig`]), and with `verbose` one progress line per
    /// fresh simulation on stderr.
    pub fn for_request(request: &crate::request::SweepRequest) -> Self {
        Self::build(
            request.parsed_fault_plan(),
            request.checkpoint.clone(),
            request.verbose,
        )
    }

    fn build(faults: FaultPlan, checkpoints: Option<CheckpointConfig>, verbose: bool) -> Self {
        Lab {
            shared: Arc::new(LabShared {
                traces: OnceMap::new(),
                profiles: OnceMap::new(),
                artifacts: OnceMap::new(),
                runs: OnceMap::new(),
                traces_obs: OnceMap::new(),
                faults,
                checkpoints,
                verbose,
            }),
        }
    }

    /// The (cached) trace for a workload and input set; generated at most
    /// once per process.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a known workload.
    pub fn trace(&self, name: &str, input: InputSet) -> Arc<Trace> {
        let key = (name.to_string(), input);
        let shared = &self.shared;
        shared.traces.get_or_init(&key, || {
            let wl = registry::lookup(name).unwrap_or_else(|| panic!("unknown workload {name}"));
            assert!(
                !wl.is_streamed(),
                "streamed workload {name} has no resident trace; it replays in bounded \
                 windows through the run path"
            );
            if shared.verbose {
                eprintln!("[lab] generating {name} {input:?}");
            }
            Arc::new(wl.generate(input))
        })
    }

    /// The (cached) pointer-group profile from the workload's train
    /// input — the profile the compiler artifacts derive from.
    pub fn profile(&self, name: &str) -> Arc<PgProfile> {
        self.profile_on(name, InputSet::Train)
    }

    /// The (cached) pointer-group profile of one of the workload's
    /// inputs: the `stream+cdp` profiling pass, run at most once per
    /// process.
    pub fn profile_on(&self, name: &str, input: InputSet) -> Arc<PgProfile> {
        self.profile_under(name, input, &SystemSpec::of(SystemKind::StreamCdp))
    }

    /// The (cached) pointer-group usefulness observed on `input` under
    /// `spec` (Figure 10 compares it under CDP and ECDP).
    ///
    /// # Panics
    ///
    /// Panics if the profiled run fails: a wedged profiling run is a
    /// simulator bug.
    pub fn profile_under(&self, name: &str, input: InputSet, spec: &SystemSpec) -> Arc<PgProfile> {
        let key = (name.to_string(), input, spec.clone());
        self.shared.profiles.get_or_init(&key, || {
            // The profiling spec reads no hints; resolving them would ask
            // for the train profile it is computing.
            let art = match spec.hint_source() {
                Some(_) => self.artifacts_for(name, spec),
                None => Arc::default(),
            };
            let t = self.trace(name, input);
            if self.shared.verbose {
                eprintln!("[lab] profiling {name} {input:?} on {}", spec.label());
            }
            let run = SystemBuilder::from_spec(spec.clone())
                .artifacts(&art)
                .run_profiled(&t);
            Arc::new(run.expect("profiling run failed").1)
        })
    }

    /// The (cached) compiler artifacts derived from the train profile.
    pub fn artifacts(&self, name: &str) -> Arc<CompilerArtifacts> {
        let key = name.to_string();
        self.shared.artifacts.get_or_init(&key, || {
            Arc::new(CompilerArtifacts::from_profile(&self.profile(name)))
        })
    }

    /// The compiler artifacts of `spec`'s hint source for `name`; a system
    /// that reads none gets the train artifacts, which it ignores.
    fn artifacts_for(&self, name: &str, spec: &SystemSpec) -> Arc<CompilerArtifacts> {
        match spec.hint_source() {
            None | Some(HintSource::Train) => self.artifacts(name),
            Some(HintSource::TrainAt(bar)) => Arc::new(CompilerArtifacts {
                hints: self.profile(name).hint_table_at(f64::from(bar) / 100.0),
                ..CompilerArtifacts::empty()
            }),
            Some(HintSource::Ref) => Arc::new(CompilerArtifacts::from_profile(
                &self.profile_on(name, InputSet::Ref),
            )),
        }
    }

    /// The compiler artifacts and input a run of `name` on `spec` uses.
    /// Streamed workloads have no train input to profile (an external
    /// trace is addresses, not a program), so they run with empty
    /// artifacts and skip the resident-trace cache.
    fn cell_input(&self, name: &str, input: InputSet, spec: &SystemSpec) -> CellRun {
        match registry::lookup(name) {
            Some(workloads::WorkloadHandle::Streamed(src)) => (
                Arc::new(CompilerArtifacts::empty()),
                CellInput::Streamed(src),
            ),
            _ => (
                self.artifacts_for(name, spec),
                CellInput::Resident(self.trace(name, input)),
            ),
        }
    }

    /// Runs (or returns the cached run of) `name`'s `input` trace on
    /// `kind`, using artifacts profiled from the train input.
    ///
    /// Failed runs are not cached: a later request for the same cell
    /// retries the simulation.
    ///
    /// # Errors
    ///
    /// Propagates the [`SimError`] of a wedged or injected-fault run.
    pub fn try_run_on(
        &self,
        name: &str,
        input: InputSet,
        kind: SystemKind,
    ) -> Result<RunStats, SimError> {
        self.try_run(name, input, &SystemSpec::of(kind), Attempt::FIRST)
            .map(|(stats, _)| stats)
    }

    /// The fault plan this lab injects from (the sweep supervisor uses
    /// it to route store-side faults through the result store).
    pub fn faults(&self) -> &FaultPlan {
        &self.shared.faults
    }

    /// The one run entry: runs (or returns the cached run of) `name`'s
    /// `input` trace on `spec`, as `attempt` says; fault rules match the
    /// spec's label. A traced attempt also returns the [`RunTrace`]. Its
    /// statistics are bit-identical to an untraced run's, so it seeds the
    /// plain stats cache, and a traced request for a run simulated
    /// untraced re-runs it once, for the trace alone. Failed runs are not
    /// cached: a later request retries the simulation.
    ///
    /// # Errors
    ///
    /// Propagates the [`SimError`] of a wedged, injected-fault or
    /// deadline-overrunning run.
    pub fn try_run(
        &self,
        name: &str,
        input: InputSet,
        spec: &SystemSpec,
        attempt: Attempt,
    ) -> Result<(RunStats, Option<Arc<RunTrace>>), SimError> {
        let key = (name.to_string(), input, spec.clone());
        let obs = attempt.traced.then(ObsConfig::enabled);
        let (stats, _, _) = self.shared.runs.get_or_try_init(&key, || {
            let started = Instant::now();
            let label = spec.label();
            let fault = self
                .shared
                .faults
                .action_for_attempt(name, input, &label, attempt.number);
            match fault {
                Some(FaultAction::Panic) => {
                    panic!("injected fault: panic in {name} {input:?} {label}")
                }
                Some(FaultAction::Livelock) => return Err(crate::fault::run_livelock()),
                Some(FaultAction::Slow(ms)) => sleep_under_deadline(ms, started, attempt.deadline)?,
                // CorruptCheckpoint is handled at checkpoint-load time
                // inside run_cell; the store faults (stall, torn-write,
                // short-write, enospc, corrupt-record) dispatch through
                // the result store's write layer, not the compute path.
                Some(_) | None => {}
            }
            let (art, cell_input) = self.cell_input(name, input, spec);
            if self.shared.verbose {
                eprintln!("[lab] running {name} {input:?} on {label}");
            }
            // The deadline covers the whole attempt — injected sleep,
            // trace/profile warm-up and simulation; the engine enforces
            // whatever budget remains once the run itself starts.
            let remaining = attempt
                .deadline
                .map(|limit| limit.saturating_sub(started.elapsed()));
            let t0 = Instant::now();
            let build = || {
                let b = SystemBuilder::from_spec(spec.clone())
                    .artifacts(&art)
                    .observe(obs.unwrap_or_default());
                match remaining {
                    Some(d) => b.wall_deadline(d),
                    None => b,
                }
            };
            let (run, checkpoint) = self.run_cell(&key, build, &cell_input, fault, remaining)?;
            if let Some(trace) = run.trace {
                self.shared.traces_obs.get_or_init(&key, || Arc::new(trace));
            }
            Ok((run.stats, t0.elapsed().as_secs_f64() * 1e3, checkpoint))
        })?;
        let Some(obs) = obs else {
            return Ok((stats, None));
        };
        let trace = self.shared.traces_obs.get_or_init(&key, || {
            // The run was already simulated untraced: rerun it outside
            // the stats cache to collect the trace, once.
            let (art, cell_input) = self.cell_input(name, input, spec);
            if self.shared.verbose {
                eprintln!(
                    "[lab] re-running {name} {input:?} on {} for its trace",
                    spec.label()
                );
            }
            let builder = SystemBuilder::from_spec(spec.clone())
                .artifacts(&art)
                .observe(obs);
            let run = cell_input.run(builder);
            Arc::new(run.ok().and_then(|r| r.trace).unwrap_or_default())
        });
        Ok((stats, Some(trace)))
    }

    /// Runs one cell, forking from the warm checkpoint store when one is
    /// configured. `build` assembles the cell's machine. Returns the run
    /// plus the checkpoint disposition.
    ///
    /// A corrupt, unreadable or mismatched checkpoint is a *recoverable*
    /// per-cell event: the cell falls back to a cold run (re-capturing
    /// and rewriting the checkpoint) and the disposition records the
    /// reason. Only genuine simulation errors propagate.
    fn run_cell<'a>(
        &self,
        (name, input, spec): &RunKey,
        build: impl Fn() -> SystemBuilder<'a>,
        t: &CellInput,
        fault: Option<FaultAction>,
        deadline: Option<Duration>,
    ) -> Result<(SystemRun, Option<String>), SimError> {
        if deadline.is_some_and(|d| d.is_zero()) {
            // The attempt's budget was exhausted before the engine even
            // started (e.g. a long injected sleep or trace warm-up).
            return Err(SimError::DeadlineExceeded {
                deadline_ms: 0,
                snapshot: DiagnosticSnapshot::default(),
            });
        }
        let Some(cp) = self.shared.checkpoints.as_ref() else {
            return Ok((t.run(build())?, None));
        };
        let path = cp.cell_path(name, *input, spec);
        let mut status = None;
        match load_checkpoint(&path, fault) {
            CheckpointLoad::Missing => {}
            CheckpointLoad::Loaded(snapshot) => match t.run(build().fork_from(&snapshot)) {
                Ok(run) => return Ok((run, Some("forked".to_string()))),
                // A parseable but stale snapshot (the machine shape
                // changed under the same key) is recoverable too.
                Err(e) if e.kind() == "snapshot-rejected" => {
                    status = Some(format!("fallback:{e}"));
                }
                Err(e) => return Err(e),
            },
            CheckpointLoad::Rejected(reason) => {
                status = Some(format!("fallback:{reason}"));
            }
        }
        if let Some(s) = &status {
            if self.shared.verbose {
                eprintln!("[lab] {name} {input:?} {}: {s}", spec.label());
            }
        }
        // Cold run, (re-)capturing the checkpoint for the next process.
        let run = t.run(build().warm_checkpoint(cp.warm_cycles))?;
        match &run.snapshot {
            Some(snap) => match atomic_write(&path, snap.to_bytes()) {
                Ok(()) => {
                    status.get_or_insert_with(|| "created".to_string());
                }
                Err(e) => {
                    status.get_or_insert_with(|| format!("write-failed: {e}"));
                }
            },
            // The run finished before the capture point; nothing to store.
            None => {
                status.get_or_insert_with(|| "cold".to_string());
            }
        }
        Ok((run, status))
    }

    /// [`Lab::try_run`] on a first attempt, panicking with the
    /// [`SimError`] message when the run fails.
    fn run_spec(&self, name: &str, input: InputSet, spec: &SystemSpec) -> RunStats {
        match self.try_run(name, input, spec, Attempt::FIRST) {
            Ok((stats, _)) => stats,
            Err(e) => panic!(
                "simulation of {name} {input:?} on {} failed: {e}",
                spec.label()
            ),
        }
    }

    /// Like [`Lab::try_run_on`], for callers that treat a failed
    /// simulation as fatal.
    ///
    /// # Panics
    ///
    /// Panics with the [`SimError`] message when the run fails.
    pub fn run_on(&self, name: &str, input: InputSet, kind: SystemKind) -> RunStats {
        self.run_spec(name, input, &SystemSpec::of(kind))
    }

    /// Runs (or returns the cached run of) `name`'s ref input on `kind`.
    pub fn run(&self, name: &str, kind: SystemKind) -> RunStats {
        self.run_on(name, InputSet::Ref, kind)
    }

    /// Speedup of `spec` over the stream-only baseline on `name`'s ref
    /// input.
    pub fn speedup(&self, name: &str, spec: &SystemSpec) -> f64 {
        let base = self.run(name, SystemKind::StreamOnly).ipc();
        self.run_spec(name, InputSet::Ref, spec).ipc() / base
    }

    /// The [`RunRecord`] of one cached run, if it has been executed.
    pub fn record_for(&self, name: &str, input: InputSet, kind: SystemKind) -> Option<RunRecord> {
        let key = (name.to_string(), input, SystemSpec::of(kind));
        self.shared.runs.get(&key).map(|entry| record(&key, entry))
    }

    /// Records of every successful run executed so far, sorted by
    /// (workload, input, system) for deterministic manifests.
    pub fn records(&self) -> Vec<RunRecord> {
        let mut records: Vec<RunRecord> = self
            .shared
            .runs
            .snapshot()
            .into_iter()
            .map(|(key, entry)| record(&key, entry))
            .collect();
        records.sort_by_key(RunRecord::sort_key);
        records
    }
}

/// The manifest record of one cached run.
fn record((name, input, spec): &RunKey, (stats, wall_ms, checkpoint): RunEntry) -> RunRecord {
    let mut r = RunRecord::new(name, *input, spec, &stats, wall_ms);
    r.checkpoint = checkpoint;
    r
}

impl std::fmt::Debug for Lab {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lab")
            .field("traces", &self.shared.traces.len())
            .field("runs", &self.shared.runs.len())
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn once_map_computes_once_across_threads() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let map: OnceMap<u32, u64> = OnceMap::new();
        let calls = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for k in 0..16u32 {
                        let v = map.get_or_init(&k, || {
                            calls.fetch_add(1, Ordering::SeqCst);
                            u64::from(k) * 3
                        });
                        assert_eq!(v, u64::from(k) * 3);
                    }
                });
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 16, "one compute per key");
        assert_eq!(map.len(), 16);
        assert_eq!(map.snapshot().len(), 16);
    }

    #[test]
    fn once_map_survives_a_panicking_initializer() {
        let map: OnceMap<u32, u64> = OnceMap::new();
        // A panicking leader used to poison the cell's lock and wedge
        // every later requester of the same key; now the cell is simply
        // left empty and the next requester retries.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map.get_or_init(&7, || panic!("injected"));
        }));
        assert!(r.is_err(), "the panic must propagate to the caller");
        assert_eq!(map.get(&7), None, "failed compute is not cached");
        assert_eq!(map.get_or_init(&7, || 21), 21, "retry succeeds");
        assert_eq!(map.get(&7), Some(21));
        // Unrelated keys are unaffected throughout.
        assert_eq!(map.get_or_init(&8, || 24), 24);
    }

    #[test]
    fn once_map_does_not_cache_errors() {
        let map: OnceMap<u32, u64> = OnceMap::new();
        let e = map.get_or_try_init(&1, || Err::<u64, _>("boom"));
        assert_eq!(e, Err("boom"));
        assert_eq!(map.get(&1), None);
        assert_eq!(map.get_or_try_init::<&str>(&1, || Ok(5)), Ok(5));
        assert_eq!(map.get(&1), Some(5));
    }

    #[test]
    fn train_profile_is_the_train_entry_of_the_profile_cache() {
        let lab = Lab::new();
        let train = lab.profile("mst");
        assert!(Arc::ptr_eq(&train, &lab.profile_on("mst", InputSet::Train)));
        assert_eq!(lab.shared.profiles.len(), 1, "profiled once");
    }

    #[test]
    fn lab_is_send_sync_and_clone_shares_state() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Lab>();
        let lab = Lab::new();
        let clone = lab.clone();
        assert!(Arc::ptr_eq(&lab.shared, &clone.shared));
    }
}
