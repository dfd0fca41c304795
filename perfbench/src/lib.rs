//! The repository benchmark: the paper's seven Figure 7 systems with real
//! train-profile ECDP hints, measured end to end and per layer.
//!
//! Four workloads (see `README.md` in this directory for the rationale):
//!
//! - [`grid`] — `pointer-grid` and `stream-grid`: a suite × the seven
//!   systems through `Lab` + `SweepPlan::run_fault_tolerant` with a fresh
//!   `ResultStore` and `ManifestWriter` per pass;
//! - [`service`] — `service-mixed`: two closed-loop HTTP clients against a
//!   restarted `sweepd` on a pre-seeded store;
//! - [`quad`] — `quad-core`: a Figure 15 mix through `MultiMachine::run`.
//!
//! Untraced runs report the end-to-end metrics of [`report::END_TO_END`].
//! A traced run (`--trace 1`) wraps calls into each crate's public
//! functions in [`spans::Tracer`] spans and reports the per-layer metrics
//! of [`report::per_layer_specs`].

pub mod gate;
pub mod grid;
pub mod http;
pub mod quad;
pub mod report;
pub mod rng;
pub mod service;
pub mod spans;
pub mod stats;

use std::path::PathBuf;

use ecdp::system::SystemKind;

/// Worker threads (and client connections) a workload may use.
pub const JOBS: usize = 2;

/// Passes every workload measures at least, so each reported figure is
/// a median of at least this many samples.
pub const MIN_PASSES: usize = 3;

/// Wall-clock ceiling for the measured passes of one run; keeps a run
/// well inside its time limit on a slow or loaded host.
pub const MAX_MEASURE_SECS: f64 = 100.0;

/// The paper's seven Figure 7 systems, in presentation order.
pub const FIG7_SYSTEMS: [SystemKind; 7] = [
    SystemKind::NoPrefetch,
    SystemKind::StreamOnly,
    SystemKind::OracleLds,
    SystemKind::StreamCdp,
    SystemKind::StreamEcdp,
    SystemKind::StreamCdpThrottled,
    SystemKind::StreamEcdpThrottled,
];

/// A system label usable inside a metric name (`+` becomes `_`).
pub fn metric_label(kind: SystemKind) -> String {
    kind.label().replace('+', "_")
}

/// What one workload run needs besides its own inputs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Input seed: permutes claim orders, job sequences and store seeding.
    pub seed: u64,
    /// Target measuring time; passes repeat until it is spent (and at
    /// least [`MIN_PASSES`] ran).
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub traced: bool,
    /// Private scratch directory for stores and manifests.
    pub work_dir: PathBuf,
    /// Where the traced run writes its spans (JSONL).
    pub spans_path: PathBuf,
    /// The `sweepd` binary (service workload only).
    pub sweepd: Option<PathBuf>,
}

/// Peak resident set size (`VmHWM`) of a process in MiB, from
/// `/proc/<pid>/status`.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
