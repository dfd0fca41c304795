//! Assembly of every machine configuration evaluated in the paper.
//!
//! [`SystemKind`] enumerates the systems; [`SystemBuilder`] wires the right
//! prefetchers, scan filters and throttling policy together and runs a
//! trace through the result, optionally attaching the observability layer
//! ([`sim_core::ObsConfig`]) or a [`sim_core::PrefetchObserver`].
//! Multi-core experiments build one [`core_setup`] per core and hand them
//! to [`sim_core::Machine::with_cores`].

use std::collections::HashSet;
use std::sync::Arc;

use prefetch::{
    AllowAll, AvdConfig, AvdPrefetcher, CdpConfig, ContentDirectedPrefetcher, DbpConfig,
    DependenceBasedPrefetcher, FilterConfig, GhbConfig, GhbPrefetcher, JumpPointerConfig,
    JumpPointerPrefetcher, MarkovConfig, MarkovPrefetcher, NextLinePrefetcher,
    PollutionFilteredPrefetcher, ScanFilter, StreamConfig, StreamPrefetcher, StrideConfig,
    StridePrefetcher,
};
use sim_core::{
    CoreSetup, Machine, MachineConfig, ObsConfig, PrefetchObserver, PrefetcherId, RunStats,
    RunTrace, SimError, Snapshot, Trace, ValidateConfig,
};
use throttle::{CoordinatedThrottle, FdpThrottle, PabSelector, Switchable};

use crate::hints::HintTable;
use crate::profile::PgProfile;

/// Everything the "compiler" hands to the hardware: hint bit vectors for
/// ECDP plus the coarser per-load gates used by the §7.1/§7.2 comparisons.
#[derive(Debug, Clone, Default)]
pub struct CompilerArtifacts {
    /// Per-load hint bit vectors (ECDP).
    pub hints: HintTable,
    /// Loads with at least one beneficial pointer group (GRP-style gate).
    pub grp_loads: HashSet<u32>,
    /// Loads whose aggregate prefetches are majority useful
    /// (Srinivasan-style per-load filter).
    pub accurate_loads: HashSet<u32>,
}

impl CompilerArtifacts {
    /// Derives all artifacts from a profiling run.
    pub fn from_profile(profile: &PgProfile) -> Self {
        CompilerArtifacts {
            hints: profile.hint_table(),
            grp_loads: profile.loads_with_beneficial_pg(),
            accurate_loads: profile.majority_useful_loads(),
        }
    }

    /// Empty artifacts (for systems that do not use the compiler).
    pub fn empty() -> Self {
        Self::default()
    }
}

/// A coarse per-load gate: when a load is enabled, *all* pointers in its
/// fetched blocks may be prefetched; when disabled, none (GRP §7.1 and the
/// per-triggering-load filter §7.2).
#[derive(Debug, Clone, Default)]
pub struct PerLoadGate {
    enabled: HashSet<u32>,
}

impl PerLoadGate {
    /// Creates a gate enabling exactly `enabled`.
    pub fn new(enabled: HashSet<u32>) -> Self {
        PerLoadGate { enabled }
    }
}

impl ScanFilter for PerLoadGate {
    fn allow(&self, _pc: u32, _offset: i32) -> bool {
        true
    }

    fn scan_load(&self, pc: u32) -> bool {
        self.enabled.contains(&pc)
    }
}

/// Every system configuration evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// No prefetching at all.
    NoPrefetch,
    /// The baseline: aggressive stream prefetcher only.
    StreamOnly,
    /// Baseline plus the Figure 1 oracle: LDS misses become hits.
    OracleLds,
    /// Stream + original (unfiltered) CDP — the Figure 2 problem case.
    StreamCdp,
    /// Stream + compiler-guided ECDP.
    StreamEcdp,
    /// Stream + original CDP with coordinated throttling.
    StreamCdpThrottled,
    /// The full proposal: stream + ECDP + coordinated throttling.
    StreamEcdpThrottled,
    /// Stream + dependence-based prefetcher (§6.3).
    StreamDbp,
    /// Stream + Markov correlation prefetcher (§6.3).
    StreamMarkov,
    /// GHB G/DC alone (§6.3; it subsumes streaming patterns).
    GhbAlone,
    /// GHB + ECDP hybrid (§6.3 orthogonality experiment).
    GhbEcdp,
    /// GHB + ECDP + coordinated throttling.
    GhbEcdpThrottled,
    /// Stream + CDP behind the Zhuang–Lee hardware filter (§6.4).
    StreamCdpHwFilter,
    /// Hardware filter plus coordinated throttling (§6.4).
    StreamCdpHwFilterThrottled,
    /// Stream + ECDP throttled by (uncoordinated) FDP (§6.5).
    StreamEcdpFdp,
    /// Stream + ECDP under the PAB best-prefetcher-only selector (§7.4).
    StreamEcdpPab,
    /// Stream + CDP gated per-load in GRP's coarse style (§7.1).
    StreamGrpCdp,
    /// Stream + CDP gated by per-triggering-load accuracy (§7.2).
    StreamLoadFilterCdp,
    /// Next-line prefetching only (the 1977 baseline, for context).
    NextLineOnly,
    /// Per-PC stride prefetching only.
    StrideOnly,
    /// Stream + hardware jump-pointer prefetching (§7.3, 64 KB storage).
    StreamJumpPointer,
    /// Stream + address-value-delta prediction used as a prefetcher (§7.3).
    StreamAvd,
}

impl SystemKind {
    /// Every system, in presentation order. `ALL[i].label()` round-trips
    /// through [`SystemKind::from_label`].
    pub const ALL: [SystemKind; 22] = [
        SystemKind::NoPrefetch,
        SystemKind::StreamOnly,
        SystemKind::OracleLds,
        SystemKind::StreamCdp,
        SystemKind::StreamEcdp,
        SystemKind::StreamCdpThrottled,
        SystemKind::StreamEcdpThrottled,
        SystemKind::StreamDbp,
        SystemKind::StreamMarkov,
        SystemKind::GhbAlone,
        SystemKind::GhbEcdp,
        SystemKind::GhbEcdpThrottled,
        SystemKind::StreamCdpHwFilter,
        SystemKind::StreamCdpHwFilterThrottled,
        SystemKind::StreamEcdpFdp,
        SystemKind::StreamEcdpPab,
        SystemKind::StreamGrpCdp,
        SystemKind::StreamLoadFilterCdp,
        SystemKind::NextLineOnly,
        SystemKind::StrideOnly,
        SystemKind::StreamJumpPointer,
        SystemKind::StreamAvd,
    ];

    /// Inverse of [`SystemKind::label`]; `None` for unknown labels.
    pub fn from_label(label: &str) -> Option<SystemKind> {
        SystemKind::ALL.into_iter().find(|k| k.label() == label)
    }

    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::NoPrefetch => "no-pf",
            SystemKind::StreamOnly => "stream",
            SystemKind::OracleLds => "stream+oracle",
            SystemKind::StreamCdp => "stream+cdp",
            SystemKind::StreamEcdp => "stream+ecdp",
            SystemKind::StreamCdpThrottled => "stream+cdp+throttle",
            SystemKind::StreamEcdpThrottled => "stream+ecdp+throttle",
            SystemKind::StreamDbp => "stream+dbp",
            SystemKind::StreamMarkov => "stream+markov",
            SystemKind::GhbAlone => "ghb",
            SystemKind::GhbEcdp => "ghb+ecdp",
            SystemKind::GhbEcdpThrottled => "ghb+ecdp+throttle",
            SystemKind::StreamCdpHwFilter => "stream+cdp+hwfilter",
            SystemKind::StreamCdpHwFilterThrottled => "stream+cdp+hwfilter+throttle",
            SystemKind::StreamEcdpFdp => "stream+ecdp+fdp",
            SystemKind::StreamEcdpPab => "stream+ecdp+pab",
            SystemKind::StreamGrpCdp => "stream+grp-cdp",
            SystemKind::StreamLoadFilterCdp => "stream+loadfilter-cdp",
            SystemKind::NextLineOnly => "next-line",
            SystemKind::StrideOnly => "stride",
            SystemKind::StreamJumpPointer => "stream+jump",
            SystemKind::StreamAvd => "stream+avd",
        }
    }
}

fn stream() -> Box<StreamPrefetcher> {
    Box::new(StreamPrefetcher::new(
        PrefetcherId(0),
        StreamConfig::default(),
    ))
}

fn cdp(filter: Box<dyn ScanFilter>) -> Box<ContentDirectedPrefetcher> {
    Box::new(ContentDirectedPrefetcher::new(
        PrefetcherId(1),
        CdpConfig::default(),
        filter,
    ))
}

/// Builds the per-core prefetcher/throttle setup for `kind`.
pub fn core_setup(kind: SystemKind, artifacts: &CompilerArtifacts) -> CoreSetup {
    let mut setup = CoreSetup::bare();
    match kind {
        SystemKind::NoPrefetch => {}
        SystemKind::StreamOnly | SystemKind::OracleLds => {
            setup.prefetchers.push(stream());
        }
        SystemKind::StreamCdp => {
            setup.prefetchers.push(stream());
            setup.prefetchers.push(cdp(Box::new(AllowAll)));
        }
        SystemKind::StreamEcdp => {
            setup.prefetchers.push(stream());
            setup
                .prefetchers
                .push(cdp(Box::new(artifacts.hints.clone())));
        }
        SystemKind::StreamCdpThrottled => {
            setup.prefetchers.push(stream());
            setup.prefetchers.push(cdp(Box::new(AllowAll)));
            setup.throttle = Box::new(CoordinatedThrottle::default());
        }
        SystemKind::StreamEcdpThrottled => {
            setup.prefetchers.push(stream());
            setup
                .prefetchers
                .push(cdp(Box::new(artifacts.hints.clone())));
            setup.throttle = Box::new(CoordinatedThrottle::default());
        }
        SystemKind::StreamDbp => {
            setup.prefetchers.push(stream());
            setup
                .prefetchers
                .push(Box::new(DependenceBasedPrefetcher::new(
                    PrefetcherId(1),
                    DbpConfig::default(),
                )));
        }
        SystemKind::StreamMarkov => {
            setup.prefetchers.push(stream());
            setup.prefetchers.push(Box::new(MarkovPrefetcher::new(
                PrefetcherId(1),
                MarkovConfig::default(),
            )));
        }
        SystemKind::GhbAlone => {
            setup.prefetchers.push(Box::new(GhbPrefetcher::new(
                PrefetcherId(0),
                GhbConfig::default(),
            )));
        }
        SystemKind::GhbEcdp | SystemKind::GhbEcdpThrottled => {
            setup.prefetchers.push(Box::new(GhbPrefetcher::new(
                PrefetcherId(0),
                GhbConfig::default(),
            )));
            setup
                .prefetchers
                .push(cdp(Box::new(artifacts.hints.clone())));
            if kind == SystemKind::GhbEcdpThrottled {
                setup.throttle = Box::new(CoordinatedThrottle::default());
            }
        }
        SystemKind::StreamCdpHwFilter | SystemKind::StreamCdpHwFilterThrottled => {
            setup.prefetchers.push(stream());
            setup
                .prefetchers
                .push(Box::new(PollutionFilteredPrefetcher::new(
                    cdp(Box::new(AllowAll)),
                    FilterConfig::default(),
                )));
            if kind == SystemKind::StreamCdpHwFilterThrottled {
                setup.throttle = Box::new(CoordinatedThrottle::default());
            }
        }
        SystemKind::StreamEcdpFdp => {
            setup.prefetchers.push(stream());
            setup
                .prefetchers
                .push(cdp(Box::new(artifacts.hints.clone())));
            setup.throttle = Box::new(FdpThrottle::default());
        }
        SystemKind::StreamEcdpPab => {
            let (s, sf) = Switchable::new(stream());
            let (c, cf) = Switchable::new(cdp(Box::new(artifacts.hints.clone())));
            setup.prefetchers.push(Box::new(s));
            setup.prefetchers.push(Box::new(c));
            setup.throttle = Box::new(PabSelector::new(vec![sf, cf]));
        }
        SystemKind::StreamGrpCdp => {
            setup.prefetchers.push(stream());
            setup
                .prefetchers
                .push(cdp(Box::new(PerLoadGate::new(artifacts.grp_loads.clone()))));
        }
        SystemKind::StreamLoadFilterCdp => {
            setup.prefetchers.push(stream());
            setup.prefetchers.push(cdp(Box::new(PerLoadGate::new(
                artifacts.accurate_loads.clone(),
            ))));
        }
        SystemKind::NextLineOnly => {
            setup
                .prefetchers
                .push(Box::new(NextLinePrefetcher::new(PrefetcherId(0))));
        }
        SystemKind::StrideOnly => {
            setup.prefetchers.push(Box::new(StridePrefetcher::new(
                PrefetcherId(0),
                StrideConfig::default(),
            )));
        }
        SystemKind::StreamJumpPointer => {
            setup.prefetchers.push(stream());
            setup.prefetchers.push(Box::new(JumpPointerPrefetcher::new(
                PrefetcherId(1),
                JumpPointerConfig::default(),
            )));
        }
        SystemKind::StreamAvd => {
            setup.prefetchers.push(stream());
            setup.prefetchers.push(Box::new(AvdPrefetcher::new(
                PrefetcherId(1),
                AvdConfig::default(),
            )));
        }
    }
    setup
}

/// The outcome of a [`SystemBuilder`] run: run statistics plus, when the
/// observability layer was enabled with [`SystemBuilder::observe`], the
/// interval-resolution [`RunTrace`], and, when a warm checkpoint was
/// requested with [`SystemBuilder::warm_checkpoint`], the captured
/// [`Snapshot`].
#[derive(Debug, Clone, Default)]
pub struct SystemRun {
    /// End-of-run statistics.
    pub stats: RunStats,
    /// Interval samples / throttle transitions / lifecycle events.
    /// `None` unless observability was requested and the run succeeded.
    pub trace: Option<RunTrace>,
    /// Warm-state snapshot captured mid-run. `None` unless requested (or
    /// if the run finished before the checkpoint cycle).
    pub snapshot: Option<Snapshot>,
}

/// Two runs are equal when their *results* agree: statistics and trace.
/// A captured snapshot is a by-product, not a result, and is excluded —
/// differential harnesses compare a cold run (no snapshot) against a
/// checkpointing run.
impl PartialEq for SystemRun {
    fn eq(&self, other: &Self) -> bool {
        self.stats == other.stats && self.trace == other.trace
    }
}

/// One-stop assembly and execution of a paper system — the single entry
/// point for building and running machines (the former `build_machine` /
/// `build_machine_with` / `run_system` / `run_system_profiled` free
/// functions are gone).
///
/// Observability hooks (the interval sampler and decision trace of
/// [`sim_core::obs`], or a custom [`PrefetchObserver`]) attach only
/// through this builder. The machine configuration is held behind an
/// [`Arc`], so cloning a prebuilt config across thousands of sweep cells
/// shares one allocation instead of deep-copying.
///
/// # Example
///
/// ```no_run
/// use ecdp::system::{CompilerArtifacts, SystemBuilder, SystemKind};
/// # fn demo(trace: &sim_core::Trace) -> Result<(), sim_core::SimError> {
/// let artifacts = CompilerArtifacts::empty();
/// let run = SystemBuilder::new(SystemKind::StreamOnly)
///     .artifacts(&artifacts)
///     .run(trace)?;
/// println!("IPC {:.3}", run.stats.ipc());
/// # Ok(()) }
/// ```
pub struct SystemBuilder<'a> {
    kind: SystemKind,
    artifacts: Option<&'a CompilerArtifacts>,
    config: Arc<MachineConfig>,
    observer: Option<Box<dyn PrefetchObserver>>,
    obs: ObsConfig,
    validate: Option<ValidateConfig>,
    cycle_budget: Option<u64>,
    wall_deadline: Option<std::time::Duration>,
    reference_stepping: bool,
    warm_checkpoint: Option<u64>,
    fork_from: Option<&'a Snapshot>,
}

impl<'a> SystemBuilder<'a> {
    /// Starts a builder for `kind` with the default configuration
    /// (Table 5), empty compiler artifacts and observability disabled.
    pub fn new(kind: SystemKind) -> Self {
        SystemBuilder {
            kind,
            artifacts: None,
            config: Arc::new(MachineConfig::default()),
            observer: None,
            obs: ObsConfig::default(),
            validate: None,
            cycle_budget: None,
            wall_deadline: None,
            reference_stepping: false,
            warm_checkpoint: None,
            fork_from: None,
        }
    }

    /// Uses `artifacts` (hint vectors and per-load gates) when assembling
    /// compiler-guided systems. Systems that ignore the compiler are
    /// unaffected.
    pub fn artifacts(mut self, artifacts: &'a CompilerArtifacts) -> Self {
        self.artifacts = Some(artifacts);
        self
    }

    /// Replaces the machine configuration. `oracle_lds` is still forced
    /// to match the system kind. Accepts a plain [`MachineConfig`] or an
    /// already-shared `Arc<MachineConfig>` (the latter avoids a deep copy
    /// when many builders reuse one config).
    pub fn config(mut self, config: impl Into<Arc<MachineConfig>>) -> Self {
        self.config = config.into();
        self
    }

    /// Disables event skip-ahead and steps the machine cycle by cycle, as
    /// a reference for differential tests. Results are bit-identical to
    /// the default skipping engine, only slower.
    pub fn reference_stepping(mut self, on: bool) -> Self {
        self.reference_stepping = on;
        self
    }

    /// Attaches a custom per-prefetch observer (e.g. the pointer-group
    /// profiler's `PgCollector`).
    pub fn observer(mut self, observer: Box<dyn PrefetchObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Enables the observability layer: interval time series, throttle
    /// decision traces and (optionally) prefetch lifecycle events, per
    /// `obs`. With the default (all-disabled) config this is a no-op and
    /// the run costs nothing extra.
    pub fn observe(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Opts the run into the paper-conformance runtime invariants
    /// (conservation, bus/MSHR bounds, Table 3 re-derivation), per `cfg`.
    /// Checks are read-only — statistics stay bit-identical — and a
    /// violation fails the run with `SimError::InvariantViolation`.
    /// Passing `ValidateConfig::disabled()` opts out even when the
    /// `validate` cargo feature arms the suite-wide default.
    pub fn validate(mut self, cfg: ValidateConfig) -> Self {
        self.validate = Some(cfg);
        self
    }

    /// Aborts runs exceeding `cycles` with `SimError::CycleBudget`.
    pub fn cycle_budget(mut self, cycles: u64) -> Self {
        self.cycle_budget = Some(cycles);
        self
    }

    /// Aborts runs whose *wall-clock* time exceeds `deadline` with
    /// [`sim_core::SimError::DeadlineExceeded`] (the engine watchdog
    /// captures a diagnostic snapshot at the kill point). Successful
    /// runs are bit-identical with or without a deadline — the check is
    /// a coarse, read-only poll. This is the per-cell deadline hook the
    /// sweep supervisor escalates through.
    pub fn wall_deadline(mut self, deadline: std::time::Duration) -> Self {
        self.wall_deadline = Some(deadline);
        self
    }

    /// Captures a warm-state [`Snapshot`] once the run reaches `cycles`
    /// simulated cycles. Capture is read-only — the run's results are
    /// bit-identical with or without it — and the snapshot comes back in
    /// [`SystemRun::snapshot`] (or `None` if the run finished first).
    pub fn warm_checkpoint(mut self, cycles: u64) -> Self {
        self.warm_checkpoint = Some(cycles);
        self
    }

    /// Starts the run from `snapshot` instead of a cold machine: state is
    /// restored and simulation resumes at the captured cycle. The same
    /// trace that produced the snapshot must be replayed, and the machine
    /// assembled by this builder must match the one that captured it
    /// (same config, prefetchers and throttle) — mismatches fail the run
    /// with [`SimError::SnapshotRejected`].
    pub fn fork_from(mut self, snapshot: &'a Snapshot) -> Self {
        self.fork_from = Some(snapshot);
        self
    }

    /// Assembles the machine without running it.
    pub fn build(self) -> Machine {
        let empty = CompilerArtifacts::empty();
        let mut config = self.config;
        let oracle = self.kind == SystemKind::OracleLds;
        // Only unshare the config when the flag actually differs, so
        // sweep harnesses sharing one Arc across cells keep sharing it.
        if config.oracle_lds != oracle {
            Arc::make_mut(&mut config).oracle_lds = oracle;
        }
        let setup = core_setup(self.kind, self.artifacts.unwrap_or(&empty));
        let mut machine = Machine::with_cores(config, vec![setup]);
        if let Some(observer) = self.observer {
            machine.set_observer(observer);
        }
        machine.set_obs(self.obs);
        if let Some(v) = self.validate {
            machine.set_validate(v);
        }
        machine.set_cycle_budget(self.cycle_budget);
        machine.set_wall_deadline(self.wall_deadline);
        machine.set_reference_stepping(self.reference_stepping);
        machine.set_warm_checkpoint(self.warm_checkpoint);
        machine
    }

    /// Builds the machine and runs `trace` through it.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from the run (deadlock watchdog, cycle
    /// budget, invariant violation) so sweep harnesses can record the
    /// cell as failed instead of aborting the process.
    pub fn run(self, trace: &Trace) -> Result<SystemRun, SimError> {
        let fork = self.fork_from;
        let mut machine = self.build();
        if let Some(snapshot) = fork {
            machine.fork_from(snapshot)?;
        }
        let stats = machine.run(trace)?;
        Ok(SystemRun {
            stats,
            trace: machine.take_run_trace(),
            snapshot: machine.take_snapshot(),
        })
    }

    /// Builds the machine and replays a streamed external trace through
    /// it in bounded windows (see [`sim_core::stream`]). Statistics are
    /// bit-identical to materializing the same ops and calling
    /// [`SystemBuilder::run`].
    ///
    /// External traces carry no train input, so profile-guided systems
    /// run with whatever artifacts were supplied — usually
    /// [`CompilerArtifacts::empty`], since there is nothing to profile
    /// from a foreign address trace.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from the run, as
    /// [`SystemBuilder::run`] does.
    pub fn run_streamed(
        self,
        trace: &mut sim_core::stream::ExternalTrace,
    ) -> Result<SystemRun, SimError> {
        let fork = self.fork_from;
        let mut machine = self.build();
        if let Some(snapshot) = fork {
            machine.fork_from(snapshot)?;
        }
        let stats = machine.run_streamed(trace)?;
        Ok(SystemRun {
            stats,
            trace: machine.take_run_trace(),
            snapshot: machine.take_snapshot(),
        })
    }

    /// Like [`SystemBuilder::run`], but also collects the pointer-group
    /// usefulness observed *during this run* (used by the Figure 10
    /// experiment to compare PG usefulness under original CDP versus
    /// ECDP). Replaces any observer set with [`SystemBuilder::observer`].
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from the run, as
    /// [`SystemBuilder::run`] does.
    pub fn run_profiled(mut self, trace: &Trace) -> Result<(SystemRun, PgProfile), SimError> {
        let (collector, handle) = crate::profile::PgCollector::new();
        self.observer = Some(Box::new(collector));
        let run = self.run(trace)?;
        let pgs = handle.borrow().clone();
        Ok((
            run,
            PgProfile {
                pgs,
                min_samples: 4,
            },
        ))
    }
}

// Thread-safety contract of the parallel experiment harness: the shared
// *inputs and outputs* of `SystemBuilder::run` must be `Send + Sync` so a
// cached trace/artifact can feed simulations on many worker threads at
// once. The machine internals themselves (e.g. the `Rc<RefCell<_>>`
// collector used by `SystemBuilder::run_profiled`) are deliberately
// single-threaded — each worker builds its own `Machine` — and are *not*
// part of this contract.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Trace>();
    assert_send_sync::<RunStats>();
    assert_send_sync::<SystemRun>();
    assert_send_sync::<CompilerArtifacts>();
    assert_send_sync::<crate::profile::PgProfile>();
    assert_send_sync::<SystemKind>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{InputSet, Workload};

    fn artifacts_for(trace: &Trace) -> CompilerArtifacts {
        CompilerArtifacts::from_profile(&crate::profile::profile_workload(trace))
    }

    fn run_system(
        kind: SystemKind,
        trace: &Trace,
        artifacts: &CompilerArtifacts,
    ) -> Result<RunStats, SimError> {
        SystemBuilder::new(kind)
            .artifacts(artifacts)
            .run(trace)
            .map(|run| run.stats)
    }

    #[test]
    fn all_kinds_build() {
        for kind in SystemKind::ALL {
            let _ = SystemBuilder::new(kind).build();
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn shared_config_arc_is_not_deep_copied() {
        let cfg = Arc::new(MachineConfig::default());
        let m = SystemBuilder::new(SystemKind::StreamOnly)
            .config(Arc::clone(&cfg))
            .build();
        // StreamOnly leaves oracle_lds at its default, so the builder must
        // keep sharing the caller's allocation.
        assert!(!m.config().oracle_lds);
        assert_eq!(Arc::strong_count(&cfg), 2);
        let m = SystemBuilder::new(SystemKind::OracleLds)
            .config(Arc::clone(&cfg))
            .build();
        assert!(m.config().oracle_lds);
        assert!(!cfg.oracle_lds, "caller's config must not be mutated");
    }

    #[test]
    fn observe_yields_an_interval_trace_without_perturbing_stats() {
        let t = workloads::streaming::Libquantum.generate(InputSet::Test);
        let a = CompilerArtifacts::empty();
        // Shrink the L2 and interval so the short test input spans
        // several sampling intervals.
        let mut cfg = MachineConfig::default();
        cfg.l2.bytes = 64 * 1024;
        cfg.interval_evictions = 128;
        let kind = SystemKind::StreamEcdpThrottled;
        let plain = SystemBuilder::new(kind)
            .artifacts(&a)
            .config(cfg.clone())
            .run(&t)
            .expect("run");
        let observed = SystemBuilder::new(kind)
            .artifacts(&a)
            .config(cfg)
            .observe(ObsConfig {
                timeseries: true,
                decisions: true,
                ..ObsConfig::default()
            })
            .run(&t)
            .expect("run");
        assert_eq!(plain.stats, observed.stats, "observer must not perturb");
        let trace = observed.trace.expect("trace requested");
        assert_eq!(trace.samples.len(), observed.stats.intervals as usize);
        assert!(
            observed.stats.intervals > 0,
            "workload too small to sample; shrink the interval further"
        );
    }

    #[test]
    fn warm_checkpoint_fork_reproduces_cold_run() {
        let t = workloads::olden::Mst.generate(InputSet::Test);
        let a = artifacts_for(&t);
        let mut cfg = MachineConfig::default();
        cfg.l2.bytes = 64 * 1024;
        cfg.interval_evictions = 128;
        let kind = SystemKind::StreamEcdpThrottled;
        let obs = ObsConfig {
            timeseries: true,
            decisions: true,
            ..ObsConfig::default()
        };
        let build = || {
            SystemBuilder::new(kind)
                .artifacts(&a)
                .config(cfg.clone())
                .observe(obs)
        };

        let cold = build().run(&t).expect("cold run");
        assert!(cold.snapshot.is_none(), "no checkpoint requested");

        // Checkpoint mid-run; capture must not perturb the results.
        let warm = build()
            .warm_checkpoint(cold.stats.cycles / 2)
            .run(&t)
            .expect("checkpointing run");
        assert_eq!(warm, cold, "capture must be read-only");
        let snapshot = warm.snapshot.expect("snapshot captured");
        assert!(snapshot.cycle() >= cold.stats.cycles / 2);

        // Fork from the snapshot; the forked run must be bit-identical.
        let forked = build().fork_from(&snapshot).run(&t).expect("forked run");
        assert_eq!(forked, cold, "fork must reproduce the cold run");

        // A mismatched system rejects the snapshot instead of panicking.
        let err = SystemBuilder::new(SystemKind::StreamOnly)
            .artifacts(&a)
            .config(cfg.clone())
            .fork_from(&snapshot)
            .run(&t)
            .expect_err("mismatched system");
        assert_eq!(err.kind(), "snapshot-rejected");
    }

    #[test]
    fn oracle_flag_is_forced_by_the_builder() {
        let m = SystemBuilder::new(SystemKind::OracleLds).build();
        assert!(m.config().oracle_lds);
        let m = SystemBuilder::new(SystemKind::StreamOnly).build();
        assert!(!m.config().oracle_lds);
    }

    #[test]
    fn labels_round_trip() {
        for kind in SystemKind::ALL {
            assert_eq!(SystemKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(SystemKind::from_label("no-such-system"), None);
    }

    #[test]
    fn stream_beats_no_prefetch_on_streaming_workload() {
        let t = workloads::streaming::Libquantum.generate(InputSet::Train);
        let a = CompilerArtifacts::empty();
        let none = run_system(SystemKind::NoPrefetch, &t, &a).expect("run");
        let stream = run_system(SystemKind::StreamOnly, &t, &a).expect("run");
        assert!(
            stream.ipc() > 1.2 * none.ipc(),
            "stream {} vs none {}",
            stream.ipc(),
            none.ipc()
        );
    }

    #[test]
    fn ecdp_filters_prefetches_versus_cdp() {
        let t = workloads::olden::Mst.generate(InputSet::Train);
        let a = artifacts_for(&t);
        assert!(!a.hints.is_empty(), "profiling must produce hints");
        let with_cdp = run_system(SystemKind::StreamCdp, &t, &a).expect("run");
        let with_ecdp = run_system(SystemKind::StreamEcdp, &t, &a).expect("run");
        let cdp_issued = with_cdp.prefetchers[1].issued;
        let ecdp_issued = with_ecdp.prefetchers[1].issued;
        assert!(
            ecdp_issued < cdp_issued,
            "ECDP must prune prefetches: {ecdp_issued} vs {cdp_issued}"
        );
        assert!(
            with_ecdp.prefetchers[1].accuracy() > with_cdp.prefetchers[1].accuracy(),
            "ECDP accuracy {} must beat CDP {}",
            with_ecdp.prefetchers[1].accuracy(),
            with_cdp.prefetchers[1].accuracy()
        );
    }

    #[test]
    fn oracle_is_an_upper_bound_on_pointer_chase() {
        let t = workloads::olden::Health.generate(InputSet::Train);
        let a = CompilerArtifacts::empty();
        let base = run_system(SystemKind::StreamOnly, &t, &a).expect("run");
        let oracle = run_system(SystemKind::OracleLds, &t, &a).expect("run");
        assert!(oracle.ipc() > base.ipc());
    }
}
