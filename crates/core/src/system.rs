//! Assembly of every machine configuration evaluated in the paper.
//!
//! [`SystemKind`] enumerates the systems; [`SystemBuilder`] wires the right
//! prefetchers, scan filters and throttling policy together and runs a
//! trace through the result, optionally attaching the observability layer
//! ([`sim_core::ObsConfig`]) or a [`sim_core::PrefetchObserver`].
//! [`SystemSpec`] is a kind plus the edits the variant studies make (a
//! machine configuration, a hint source, pinned aggressiveness levels,
//! CDP compare bits, an added GHB); it is the key every single-core run
//! is memoized under. Multi-core experiments build one [`core_setup`] per
//! core and hand them to [`sim_core::Machine::with_cores`].

use std::collections::HashSet;
use std::sync::Arc;

use prefetch::{
    AllowAll, AvdPrefetcher, CdpConfig, ContentDirectedPrefetcher, DependenceBasedPrefetcher,
    GhbPrefetcher, JumpPointerPrefetcher, MarkovPrefetcher, NextLinePrefetcher,
    PollutionFilteredPrefetcher, ScanFilter, StreamPrefetcher, StridePrefetcher,
};
use sim_core::{
    Aggressiveness, CoreSetup, Machine, MachineConfig, ObsConfig, PrefetchObserver, Prefetcher,
    PrefetcherId, RunStats, RunTrace, SimError, Snapshot, ThrottlePolicy, Trace, ValidateConfig,
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
    /// Every system with its label and whether its machine reads the
    /// [`CompilerArtifacts`], in presentation (declaration) order.
    const TABLE: [(Self, &'static str, bool); 22] = [
        (Self::NoPrefetch, "no-pf", false),
        (Self::StreamOnly, "stream", false),
        (Self::OracleLds, "stream+oracle", false),
        (Self::StreamCdp, "stream+cdp", false),
        (Self::StreamEcdp, "stream+ecdp", true),
        (Self::StreamCdpThrottled, "stream+cdp+throttle", false),
        (Self::StreamEcdpThrottled, "stream+ecdp+throttle", true),
        (Self::StreamDbp, "stream+dbp", false),
        (Self::StreamMarkov, "stream+markov", false),
        (Self::GhbAlone, "ghb", false),
        (Self::GhbEcdp, "ghb+ecdp", true),
        (Self::GhbEcdpThrottled, "ghb+ecdp+throttle", true),
        (Self::StreamCdpHwFilter, "stream+cdp+hwfilter", false),
        (
            Self::StreamCdpHwFilterThrottled,
            "stream+cdp+hwfilter+throttle",
            false,
        ),
        (Self::StreamEcdpFdp, "stream+ecdp+fdp", true),
        (Self::StreamEcdpPab, "stream+ecdp+pab", true),
        (Self::StreamGrpCdp, "stream+grp-cdp", true),
        (Self::StreamLoadFilterCdp, "stream+loadfilter-cdp", true),
        (Self::NextLineOnly, "next-line", false),
        (Self::StrideOnly, "stride", false),
        (Self::StreamJumpPointer, "stream+jump", false),
        (Self::StreamAvd, "stream+avd", false),
    ];

    /// Every system, in presentation order; each label round-trips
    /// through [`SystemKind::from_label`].
    pub fn all() -> impl Iterator<Item = SystemKind> {
        Self::TABLE.iter().map(|&(kind, ..)| kind)
    }

    /// Inverse of [`SystemKind::label`]; `None` for unknown labels.
    pub fn from_label(label: &str) -> Option<SystemKind> {
        SystemKind::all().find(|k| k.label() == label)
    }

    /// True for the systems whose machine reads the
    /// [`CompilerArtifacts`] (hint vectors or per-load gates); every other
    /// system assembles the same machine whatever artifacts it is given.
    pub fn is_profile_guided(self) -> bool {
        Self::TABLE[self as usize].2
    }

    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        Self::TABLE[self as usize].1
    }
}

/// Builds the per-core prefetcher/throttle setup for `kind`.
pub fn core_setup(kind: SystemKind, artifacts: &CompilerArtifacts) -> CoreSetup {
    assemble(kind, artifacts, CdpConfig::default())
}

/// [`core_setup`] with every content-directed prefetcher built from
/// `cdp_config`. Registration order is the [`PrefetcherId`] order.
fn assemble(kind: SystemKind, artifacts: &CompilerArtifacts, cdp_config: CdpConfig) -> CoreSetup {
    use SystemKind::*;
    type Pf = Box<dyn Prefetcher>;
    let (p0, p1) = (PrefetcherId(0), PrefetcherId(1));
    let stream = || -> Pf { Box::new(StreamPrefetcher::new(p0, Default::default())) };
    let ghb = || -> Pf { Box::new(GhbPrefetcher::new(p0, Default::default())) };
    let cdp = |filter: Box<dyn ScanFilter>| -> Pf {
        Box::new(ContentDirectedPrefetcher::new(p1, cdp_config, filter))
    };
    let ecdp = || cdp(Box::new(artifacts.hints.clone()));
    let gated = |loads: &HashSet<u32>| cdp(Box::new(PerLoadGate::new(loads.clone())));
    let with_stream = |second: Pf| vec![stream(), second];
    let prefetchers: Vec<Pf> = match kind {
        NoPrefetch => Vec::new(),
        StreamOnly | OracleLds => vec![stream()],
        StreamCdp | StreamCdpThrottled => with_stream(cdp(Box::new(AllowAll))),
        StreamEcdp | StreamEcdpThrottled | StreamEcdpFdp => with_stream(ecdp()),
        StreamDbp => with_stream(Box::new(DependenceBasedPrefetcher::new(
            p1,
            Default::default(),
        ))),
        StreamMarkov => with_stream(Box::new(MarkovPrefetcher::new(p1, Default::default()))),
        GhbAlone => vec![ghb()],
        GhbEcdp | GhbEcdpThrottled => vec![ghb(), ecdp()],
        StreamCdpHwFilter | StreamCdpHwFilterThrottled => {
            let raw = cdp(Box::new(AllowAll));
            with_stream(Box::new(PollutionFilteredPrefetcher::new(
                raw,
                Default::default(),
            )))
        }
        StreamEcdpPab => {
            let (s, sf) = Switchable::new(stream());
            let (c, cf) = Switchable::new(ecdp());
            return CoreSetup {
                prefetchers: vec![Box::new(s), Box::new(c)],
                throttle: Box::new(PabSelector::new(vec![sf, cf])),
            };
        }
        StreamGrpCdp => with_stream(gated(&artifacts.grp_loads)),
        StreamLoadFilterCdp => with_stream(gated(&artifacts.accurate_loads)),
        NextLineOnly => vec![Box::new(NextLinePrefetcher::new(p0))],
        StrideOnly => vec![Box::new(StridePrefetcher::new(p0, Default::default()))],
        StreamJumpPointer => {
            with_stream(Box::new(JumpPointerPrefetcher::new(p1, Default::default())))
        }
        StreamAvd => with_stream(Box::new(AvdPrefetcher::new(p1, Default::default()))),
    };
    let throttle: Box<dyn ThrottlePolicy> = match kind {
        StreamCdpThrottled
        | StreamEcdpThrottled
        | GhbEcdpThrottled
        | StreamCdpHwFilterThrottled => Box::new(CoordinatedThrottle::default()),
        StreamEcdpFdp => Box::new(FdpThrottle::default()),
        _ => CoreSetup::bare().throttle,
    };
    CoreSetup {
        prefetchers,
        throttle,
    }
}

/// Where a profile-guided system's hint vectors come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HintSource {
    /// The train-input profile at the paper's majority bar (footnote 4).
    Train,
    /// The train-input profile at another usefulness bar, in percent: a
    /// pointer group is beneficial when more than this share of its
    /// prefetches are useful.
    TrainAt(u8),
    /// The ref-input profile (§6.1.6's same-input experiment).
    Ref,
}

/// A [`SystemKind`] plus the edits the variant studies make: a machine
/// configuration, a hint source, per-slot aggressiveness pins, CDP
/// compare bits and an added GHB prefetcher.
///
/// Edits are normalized: one that restates the default (8 compare bits,
/// the default configuration, the 50% bar, a hint source on a system
/// that reads no hints) leaves the spec unchanged, so such a variant is
/// the same run as [`SystemSpec::of`] its kind. Every distinct spec has a
/// distinct [`SystemSpec::label`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemSpec {
    kind: SystemKind,
    /// A configuration edit and its fingerprint.
    config: Option<(u64, Arc<MachineConfig>)>,
    hints: HintSource,
    pins: [Option<Aggressiveness>; 3],
    compare_bits: Option<u32>,
    ghb: bool,
}

/// Hashes the configuration edit by its fingerprint alone, so a lookup
/// never hashes a `MachineConfig`.
impl std::hash::Hash for SystemSpec {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let key = (self.kind, self.config_hash(), self.hints, self.pins);
        (key, self.compare_bits, self.ghb).hash(state);
    }
}

impl SystemSpec {
    /// Exactly the machine of `kind`, with the default configuration and
    /// train-profile hints.
    pub const fn of(kind: SystemKind) -> Self {
        SystemSpec {
            kind,
            config: None,
            hints: HintSource::Train,
            pins: [None; 3],
            compare_bits: None,
            ghb: false,
        }
    }

    /// Runs on `config` instead of the default configuration.
    pub fn config(mut self, config: MachineConfig) -> Self {
        self.config = (config != MachineConfig::default())
            .then(|| (sim_core::config_fingerprint(&config), Arc::new(config)));
        self
    }

    /// Takes the hint vectors from `source`.
    pub fn hints(mut self, source: HintSource) -> Self {
        self.hints = match source {
            _ if !self.kind.is_profile_guided() => HintSource::Train,
            HintSource::TrainAt(50) => HintSource::Train,
            source => source,
        };
        self
    }

    /// Pins prefetcher `slot` (registration index, one of the first
    /// three) at `level`.
    pub fn pin(mut self, slot: usize, level: Aggressiveness) -> Self {
        self.pins[slot] = Some(level);
        self
    }

    /// Builds every content-directed prefetcher with `bits` compare bits
    /// (§5 fixes 8).
    pub fn compare_bits(mut self, bits: u32) -> Self {
        self.compare_bits = (bits != CdpConfig::default().compare_bits).then_some(bits);
        self
    }

    /// Adds a GHB G/DC prefetcher after the kind's own prefetchers.
    pub fn with_ghb(mut self) -> Self {
        self.ghb = true;
        self
    }

    /// Where the hint vectors come from; `None` for a system that reads
    /// no compiler artifacts.
    pub fn hint_source(&self) -> Option<HintSource> {
        self.kind.is_profile_guided().then_some(self.hints)
    }

    /// Fingerprint of the configuration edit; `None` when the spec runs
    /// on the default configuration.
    pub fn config_hash(&self) -> Option<u64> {
        self.config.as_ref().map(|c| c.0)
    }

    /// The kind's label plus one `+` suffix per edit: `cfg.<hash>`,
    /// `ref-profile` or `bar<percent>`, `bits<n>`, `ghb` and
    /// `pin<slot>.<level>`. Labels use only `[a-z0-9+._-]`, so each is a
    /// fault-plan selector and a single path component.
    pub fn label(&self) -> String {
        if *self == Self::of(self.kind) {
            return self.kind.label().to_string();
        }
        let mut parts = vec![self.kind.label().to_string()];
        parts.extend(self.config_hash().map(|hash| format!("cfg.{hash:016x}")));
        parts.extend(match self.hints {
            HintSource::Train => None,
            HintSource::TrainAt(bar) => Some(format!("bar{bar}")),
            HintSource::Ref => Some("ref-profile".to_string()),
        });
        parts.extend(self.compare_bits.map(|bits| format!("bits{bits}")));
        parts.extend(self.ghb.then(|| "ghb".to_string()));
        for (slot, level) in self.pins.iter().enumerate() {
            parts.extend(level.map(|l| format!("pin{slot}.{}", format!("{l:?}").to_lowercase())));
        }
        parts.join("+")
    }

    /// The per-core setup of this spec on `artifacts`.
    fn core_setup(&self, artifacts: &CompilerArtifacts) -> CoreSetup {
        let mut cdp = CdpConfig::default();
        cdp.compare_bits = self.compare_bits.unwrap_or(cdp.compare_bits);
        let mut setup = assemble(self.kind, artifacts, cdp);
        if self.ghb {
            let id = PrefetcherId(setup.prefetchers.len() as u8);
            let ghb = GhbPrefetcher::new(id, Default::default());
            setup.prefetchers.push(Box::new(ghb));
        }
        for (slot, level) in self.pins.iter().enumerate() {
            if let Some(level) = level {
                setup.prefetchers[slot].set_aggressiveness(*level);
            }
        }
        setup
    }
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
    spec: SystemSpec,
    artifacts: Option<&'a CompilerArtifacts>,
    /// Set by [`SystemBuilder::config`]; else the spec's configuration.
    config: Option<Arc<MachineConfig>>,
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
        Self::from_spec(SystemSpec::of(kind))
    }

    /// Starts a builder for `spec`: its kind, prefetcher edits and
    /// configuration (Table 5 unless the spec edits it). The spec's hint
    /// source is the caller's to resolve into [`SystemBuilder::artifacts`].
    pub fn from_spec(spec: SystemSpec) -> Self {
        SystemBuilder {
            config: None,
            spec,
            artifacts: None,
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
        self.config = Some(config.into());
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
        let spec_config = self.spec.config.as_ref().map(|c| Arc::clone(&c.1));
        let mut config = self.config.or(spec_config).unwrap_or_default();
        let oracle = self.spec.kind == SystemKind::OracleLds;
        // Only unshare the config when the flag actually differs, so
        // sweep harnesses sharing one Arc across cells keep sharing it.
        if config.oracle_lds != oracle {
            Arc::make_mut(&mut config).oracle_lds = oracle;
        }
        let setup = self.spec.core_setup(self.artifacts.unwrap_or(&empty));
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
        self.drive(|machine| machine.run(trace))
    }

    /// Builds the machine, forks it when asked to, and runs it with `run`.
    fn drive(
        self,
        run: impl FnOnce(&mut Machine) -> Result<RunStats, SimError>,
    ) -> Result<SystemRun, SimError> {
        let fork = self.fork_from;
        let mut machine = self.build();
        if let Some(snapshot) = fork {
            machine.fork_from(snapshot)?;
        }
        let stats = run(&mut machine)?;
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
        self.drive(|machine| machine.run_streamed(trace))
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
        for kind in SystemKind::all() {
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
        for kind in SystemKind::all() {
            assert_eq!(SystemKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(SystemKind::from_label("no-such-system"), None);
    }

    #[test]
    fn spec_labels_are_distinct_and_path_safe() {
        let cfg = MachineConfig {
            interval_evictions: 1024,
            ..MachineConfig::default()
        };
        let mut specs = Vec::new();
        for kind in SystemKind::all() {
            let of = SystemSpec::of(kind);
            assert_eq!(of.label(), kind.label());
            assert_eq!(of.config_hash(), None);
            specs.extend([
                of.clone(),
                of.clone().config(cfg.clone()),
                of.clone().hints(HintSource::TrainAt(25)),
                of.clone().hints(HintSource::Ref),
                of.clone().compare_bits(12),
                of.clone().with_ghb(),
                of.clone().pin(0, Aggressiveness::Moderate),
                of.clone().pin(1, Aggressiveness::Moderate),
                of.clone()
                    .pin(0, Aggressiveness::Aggressive)
                    .pin(1, Aggressiveness::VeryConservative),
                of.with_ghb().hints(HintSource::Ref).compare_bits(4),
            ]);
        }
        let distinct: HashSet<SystemSpec> = specs.iter().cloned().collect();
        let labels: HashSet<String> = distinct.iter().map(SystemSpec::label).collect();
        assert_eq!(labels.len(), distinct.len(), "one label per distinct spec");
        for label in &labels {
            assert!(
                label
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b"+._-".contains(&b)),
                "{label}"
            );
        }
    }

    #[test]
    fn edits_restating_the_default_leave_the_spec_unchanged() {
        let of = SystemSpec::of(SystemKind::StreamEcdpThrottled);
        assert_eq!(of.clone().compare_bits(8), of);
        assert_eq!(of.clone().config(MachineConfig::default()), of);
        assert_eq!(of.clone().hints(HintSource::TrainAt(50)), of);
        let cdp = SystemSpec::of(SystemKind::StreamCdp);
        assert_eq!(
            cdp.clone().hints(HintSource::Ref),
            cdp,
            "CDP reads no hints"
        );
        assert_ne!(of.clone().hints(HintSource::Ref), of);
    }

    #[test]
    fn systems_that_are_not_profile_guided_ignore_their_artifacts() {
        let a = artifacts_for(&workloads::olden::Mst.generate(InputSet::Train));
        assert!(!a.hints.is_empty() && !a.grp_loads.is_empty());
        let t = workloads::olden::Mst.generate(InputSet::Test);
        for kind in SystemKind::all().filter(|k| !k.is_profile_guided()) {
            let empty = run_system(kind, &t, &CompilerArtifacts::empty()).expect("run");
            assert_eq!(
                run_system(kind, &t, &a).expect("run"),
                empty,
                "{}",
                kind.label()
            );
        }
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
