//! Run-manifest observability layer.
//!
//! Every simulated cell — a (workload, input set, system) triple — yields
//! a [`RunOutcome`]: either a [`RunRecord`] with the machine-config hash,
//! the full [`sim_core::StatsSummary`] (IPC, BPKI,
//! per-prefetcher accuracy/coverage, ...) and the wall time of the fresh
//! simulation, or a [`FailureRecord`] carrying the structured error of a
//! cell that panicked or wedged. Figure and section binaries bundle their
//! outcomes into a [`Manifest`] written to `target/lab/<name>.json`,
//! which the regression tests (and any external tooling) consume instead
//! of re-parsing report text.
//!
//! Successful records are deterministic: two runs of the same build
//! produce byte-identical manifests except for the `wall_ms` fields.
//!
//! # Schema
//!
//! `schema_version` is 3. A success record has no `outcome` field (for
//! compatibility with version-1 readers and golden files); a failure
//! record carries `"outcome": "failed"` plus `error_kind` (the stable
//! [`SimError::kind`](sim_core::SimError::kind) tag, or `"panic"`) and a
//! human-readable `error` message, and has no `stats`.
//!
//! Version 3 adds two optional fields, both omitted when absent so v1/v2
//! documents (and fault-free single-attempt runs) stay byte-compatible:
//! `retry` (a [`RetryInfo`] object — the supervisor's attempt history)
//! on both record shapes, and `store` (the result-store disposition,
//! `"hit"` / `"appended"` / `"degraded:<reason>"`) on success records.
//! Success records for workloads loaded from a file (`--workload-file` /
//! `workload_files`) additionally carry `workload_hash` — the 16-hex
//! content hash of the source file (see [`workload_provenance`]) —
//! omitted for built-in workloads. [`Manifest::parse`] accepts all
//! three versions.
//!
//! # Crash safety
//!
//! [`Manifest::write`] is atomic (temp file + rename in the output
//! directory), and [`ManifestWriter`] re-writes the manifest after every
//! completed cell — a killed sweep leaves a valid manifest of everything
//! that finished. The manifest is a report, not a restart source: a
//! later run skips a cell only when the [`crate::store::ResultStore`]
//! has it committed.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use ecdp::system::{SystemKind, SystemSpec};
use sim_core::frame::atomic_write;
use sim_core::{Json, MachineConfig, RunStats, StatsSummary};
use workloads::InputSet;

/// Hash of the default machine configuration, recorded in every
/// [`RunRecord`] of a system without a configuration edit so stale
/// manifests are detectable after config changes.
///
/// The snapshot fingerprint ([`sim_core::config_fingerprint`]) of
/// [`MachineConfig::default`]: not cryptographic, but any field change
/// changes the hash. Computed once per process; every store lookup keys
/// on it.
pub fn config_hash() -> u64 {
    static HASH: OnceLock<u64> = OnceLock::new();
    *HASH.get_or_init(|| sim_core::config_fingerprint(&MachineConfig::default()))
}

/// The lower-cased input label (`"train"` / `"ref"` / `"test"`) that
/// manifests, store keys, checkpoint files and fault rules name a cell's
/// input set by.
pub fn input_label(input: InputSet) -> String {
    format!("{input:?}").to_lowercase()
}

/// The registry's provenance hash for `workload` as a 16-digit hex
/// string: the content hash of the `.wl` spec or external trace the
/// name was loaded from, or `None` for built-in workloads (whose
/// definition is pinned by the build itself).
///
/// Recorded in every [`RunRecord`] so a result computed from one
/// version of a user-supplied file is never mistaken for the same cell
/// after the file changed — a result-store hit requires the recorded
/// hash to match the current registry state.
pub fn workload_provenance(workload: &str) -> Option<String> {
    workloads::registry::lookup(workload)
        .and_then(|h| h.provenance_hash())
        .map(|h| format!("{h:016x}"))
}

/// The sweep supervisor's attempt history for one cell: how many times
/// the cell ran, what each failed attempt died of, and how long the
/// deterministic backoff between attempts added up to.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RetryInfo {
    /// Total attempts made (the successful one included), ≥ 1.
    pub attempts: u32,
    /// One `"<error_kind>:<class>"` entry per *failed* attempt, in
    /// order (e.g. `"deadline:transient"`), using the stable
    /// [`SimError::kind`](sim_core::SimError::kind) and
    /// [`ErrorClass::label`](sim_core::ErrorClass::label) tags.
    pub attempt_errors: Vec<String>,
    /// Milliseconds slept across all backoff intervals.
    pub total_backoff_ms: u64,
}

impl RetryInfo {
    /// JSON form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("attempts", Json::Num(f64::from(self.attempts))),
            (
                "attempt_errors",
                Json::Arr(
                    self.attempt_errors
                        .iter()
                        .map(|e| Json::Str(e.clone()))
                        .collect(),
                ),
            ),
            ("total_backoff_ms", Json::Num(self.total_backoff_ms as f64)),
        ])
    }

    /// Parses a value produced by [`RetryInfo::to_json`].
    pub fn from_json(j: &Json) -> Option<Self> {
        Some(RetryInfo {
            attempts: j.get("attempts")?.as_u64()? as u32,
            attempt_errors: j
                .get("attempt_errors")?
                .as_arr()?
                .iter()
                .map(|e| e.as_str().map(ToString::to_string))
                .collect::<Option<Vec<_>>>()?,
            total_backoff_ms: j.get("total_backoff_ms")?.as_u64()?,
        })
    }
}

/// The outcome of one successfully simulated cell.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Workload name (as resolved by `workloads::registry::lookup`).
    pub workload: String,
    /// Input set, lower-cased (`"train"` / `"ref"` / `"test"`).
    pub input: String,
    /// System label (see `SystemSpec::label`).
    pub system: String,
    /// Hash of the machine configuration the run used.
    pub config_hash: u64,
    /// Content hash of the workload file the workload was loaded from
    /// (16 hex digits), when the workload came from `--workload-file` /
    /// `workload_files`. `None` for built-in workloads; omitted from
    /// the JSON when absent so built-in manifests stay byte-identical
    /// to the version-3 format.
    pub workload_hash: Option<String>,
    /// Wall-clock milliseconds of the fresh simulation (the only
    /// non-deterministic field; compare with [`RunRecord::same_metrics`]).
    pub wall_ms: f64,
    /// Full deterministic statistics summary.
    pub stats: StatsSummary,
    /// Path of the per-interval `timeseries.json` artifact, when the cell
    /// ran with `--trace-dir`. Omitted from the JSON when absent.
    pub timeseries_path: Option<String>,
    /// Path of the `obs.jsonl` decision-trace artifact, when the cell ran
    /// with `--trace-dir`. Omitted from the JSON when absent.
    pub obs_path: Option<String>,
    /// Warm-checkpoint disposition of the cell, when the lab ran with a
    /// checkpoint store: `"created"`, `"forked"`, `"cold"` or
    /// `"fallback:<reason>"` for a corrupt/unreadable checkpoint that
    /// fell back to cold simulation. Omitted from the JSON when absent.
    pub checkpoint: Option<String>,
    /// The supervisor's attempt history, when the cell needed more than
    /// one attempt. Omitted from the JSON when absent.
    pub retry: Option<RetryInfo>,
    /// Result-store disposition (`"hit"`, `"appended"`,
    /// `"degraded:<reason>"`), when the sweep ran with a persistent
    /// result store. Omitted from the JSON when absent.
    pub store: Option<String>,
}

impl RunRecord {
    /// Builds a record from a finished run of `spec`: the system is the
    /// spec's label and the config hash its configuration's.
    pub fn new(
        workload: &str,
        input: InputSet,
        spec: &SystemSpec,
        stats: &RunStats,
        wall_ms: f64,
    ) -> Self {
        RunRecord {
            workload: workload.to_string(),
            input: input_label(input),
            system: spec.label(),
            config_hash: spec.config_hash().unwrap_or_else(config_hash),
            workload_hash: workload_provenance(workload),
            wall_ms,
            stats: stats.summary(),
            timeseries_path: None,
            obs_path: None,
            checkpoint: None,
            retry: None,
            store: None,
        }
    }

    /// Sort key giving manifests a stable record order.
    pub fn sort_key(&self) -> (String, String, String) {
        (
            self.workload.clone(),
            self.input.clone(),
            self.system.clone(),
        )
    }

    /// Deterministic equality: every field except `wall_ms`, the trace
    /// artifact paths (which embed the caller's output directory) and
    /// the checkpoint disposition (a forked rerun must count as equal
    /// to the cold run it reproduces).
    pub fn same_metrics(&self, other: &RunRecord) -> bool {
        self.workload == other.workload
            && self.input == other.input
            && self.system == other.system
            && self.config_hash == other.config_hash
            && self.workload_hash == other.workload_hash
            && self.stats == other.stats
    }

    /// JSON form (field order is part of the manifest format; the trace
    /// artifact paths are appended only when present, so untraced
    /// manifests are byte-identical to the version-2 format).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("workload", Json::Str(self.workload.clone())),
            ("input", Json::Str(self.input.clone())),
            ("system", Json::Str(self.system.clone())),
            // Hex string: a full 64-bit hash is not exactly representable
            // as a JSON number (f64 has 53 mantissa bits).
            (
                "config_hash",
                Json::Str(format!("{:016x}", self.config_hash)),
            ),
            ("wall_ms", Json::Num(self.wall_ms)),
            ("stats", self.stats.to_json()),
        ];
        if let Some(h) = &self.workload_hash {
            pairs.push(("workload_hash", Json::Str(h.clone())));
        }
        if let Some(p) = &self.timeseries_path {
            pairs.push(("timeseries_path", Json::Str(p.clone())));
        }
        if let Some(p) = &self.obs_path {
            pairs.push(("obs_path", Json::Str(p.clone())));
        }
        if let Some(c) = &self.checkpoint {
            pairs.push(("checkpoint", Json::Str(c.clone())));
        }
        if let Some(r) = &self.retry {
            pairs.push(("retry", r.to_json()));
        }
        if let Some(s) = &self.store {
            pairs.push(("store", Json::Str(s.clone())));
        }
        Json::obj(pairs)
    }

    /// Parses a record produced by [`RunRecord::to_json`].
    pub fn from_json(j: &Json) -> Option<Self> {
        Some(RunRecord {
            workload: j.get("workload")?.as_str()?.to_string(),
            input: j.get("input")?.as_str()?.to_string(),
            system: j.get("system")?.as_str()?.to_string(),
            config_hash: u64::from_str_radix(j.get("config_hash")?.as_str()?, 16).ok()?,
            workload_hash: j
                .get("workload_hash")
                .and_then(Json::as_str)
                .map(ToString::to_string),
            wall_ms: j.get("wall_ms")?.as_f64()?,
            stats: StatsSummary::from_json(j.get("stats")?).ok()?,
            timeseries_path: j
                .get("timeseries_path")
                .and_then(Json::as_str)
                .map(ToString::to_string),
            obs_path: j
                .get("obs_path")
                .and_then(Json::as_str)
                .map(ToString::to_string),
            checkpoint: j
                .get("checkpoint")
                .and_then(Json::as_str)
                .map(ToString::to_string),
            retry: j.get("retry").and_then(RetryInfo::from_json),
            store: j
                .get("store")
                .and_then(Json::as_str)
                .map(ToString::to_string),
        })
    }
}

/// The outcome of a cell whose simulation panicked or returned a
/// [`SimError`](sim_core::SimError).
#[derive(Debug, Clone, PartialEq)]
pub struct FailureRecord {
    /// Workload name.
    pub workload: String,
    /// Input set, lower-cased.
    pub input: String,
    /// System label.
    pub system: String,
    /// Hash of the machine configuration the run used.
    pub config_hash: u64,
    /// Stable error tag: a [`SimError::kind`](sim_core::SimError::kind)
    /// value (`"deadlock"`, `"cycle-budget"`, `"invariant"`) or
    /// `"panic"`.
    pub error_kind: String,
    /// Human-readable error message (includes the diagnostic snapshot
    /// for engine failures).
    pub error: String,
    /// Wall-clock milliseconds until the failure was detected.
    pub wall_ms: f64,
    /// The supervisor's attempt history (every attempt failed). Omitted
    /// from the JSON when absent.
    pub retry: Option<RetryInfo>,
}

impl FailureRecord {
    /// Builds a failure record for one cell.
    pub fn new(
        workload: &str,
        input: InputSet,
        kind: SystemKind,
        error_kind: &str,
        error: &str,
        wall_ms: f64,
    ) -> Self {
        FailureRecord {
            workload: workload.to_string(),
            input: input_label(input),
            system: kind.label().to_string(),
            config_hash: config_hash(),
            error_kind: error_kind.to_string(),
            error: error.to_string(),
            wall_ms,
            retry: None,
        }
    }

    /// JSON form; the `"outcome": "failed"` field is the discriminator.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("workload", Json::Str(self.workload.clone())),
            ("input", Json::Str(self.input.clone())),
            ("system", Json::Str(self.system.clone())),
            (
                "config_hash",
                Json::Str(format!("{:016x}", self.config_hash)),
            ),
            ("outcome", Json::Str("failed".to_string())),
            ("error_kind", Json::Str(self.error_kind.clone())),
            ("error", Json::Str(self.error.clone())),
            ("wall_ms", Json::Num(self.wall_ms)),
        ];
        if let Some(r) = &self.retry {
            pairs.push(("retry", r.to_json()));
        }
        Json::obj(pairs)
    }

    /// Parses a record produced by [`FailureRecord::to_json`].
    pub fn from_json(j: &Json) -> Option<Self> {
        if j.get("outcome")?.as_str()? != "failed" {
            return None;
        }
        Some(FailureRecord {
            workload: j.get("workload")?.as_str()?.to_string(),
            input: j.get("input")?.as_str()?.to_string(),
            system: j.get("system")?.as_str()?.to_string(),
            config_hash: u64::from_str_radix(j.get("config_hash")?.as_str()?, 16).ok()?,
            error_kind: j.get("error_kind")?.as_str()?.to_string(),
            error: j.get("error")?.as_str()?.to_string(),
            wall_ms: j.get("wall_ms")?.as_f64()?,
            retry: j.get("retry").and_then(RetryInfo::from_json),
        })
    }
}

/// One manifest entry: a completed cell, successful or failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// The cell simulated to completion.
    Success(RunRecord),
    /// The cell panicked or returned a simulation error.
    Failed(FailureRecord),
}

impl RunOutcome {
    /// Workload name of the cell.
    pub fn workload(&self) -> &str {
        match self {
            RunOutcome::Success(r) => &r.workload,
            RunOutcome::Failed(f) => &f.workload,
        }
    }

    /// Input-set label of the cell.
    pub fn input(&self) -> &str {
        match self {
            RunOutcome::Success(r) => &r.input,
            RunOutcome::Failed(f) => &f.input,
        }
    }

    /// System label of the cell.
    pub fn system(&self) -> &str {
        match self {
            RunOutcome::Success(r) => &r.system,
            RunOutcome::Failed(f) => &f.system,
        }
    }

    /// Machine-config hash the cell ran under.
    pub fn config_hash(&self) -> u64 {
        match self {
            RunOutcome::Success(r) => r.config_hash,
            RunOutcome::Failed(f) => f.config_hash,
        }
    }

    /// True for [`RunOutcome::Failed`].
    pub fn is_failed(&self) -> bool {
        matches!(self, RunOutcome::Failed(_))
    }

    /// The success record, if any.
    pub fn success(&self) -> Option<&RunRecord> {
        match self {
            RunOutcome::Success(r) => Some(r),
            RunOutcome::Failed(_) => None,
        }
    }

    /// The failure record, if any.
    pub fn failure(&self) -> Option<&FailureRecord> {
        match self {
            RunOutcome::Success(_) => None,
            RunOutcome::Failed(f) => Some(f),
        }
    }

    /// Stable (workload, input, system) sort key.
    pub fn sort_key(&self) -> (String, String, String) {
        (
            self.workload().to_string(),
            self.input().to_string(),
            self.system().to_string(),
        )
    }

    /// JSON form (success records carry no `outcome` field).
    pub fn to_json(&self) -> Json {
        match self {
            RunOutcome::Success(r) => r.to_json(),
            RunOutcome::Failed(f) => f.to_json(),
        }
    }

    /// Parses either record shape; records without an `outcome` field
    /// are successes (the version-1 format).
    pub fn from_json(j: &Json) -> Option<Self> {
        match j.get("outcome").and_then(Json::as_str) {
            Some("failed") => FailureRecord::from_json(j).map(RunOutcome::Failed),
            Some(_) => None,
            None => RunRecord::from_json(j).map(RunOutcome::Success),
        }
    }
}

/// A named collection of run outcomes, serialized to `target/lab/`.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Manifest name; also the output file stem.
    pub name: String,
    /// Outcomes in stable (workload, input, system) order.
    pub records: Vec<RunOutcome>,
}

impl Manifest {
    /// The success records, in manifest order.
    pub fn successes(&self) -> impl Iterator<Item = &RunRecord> {
        self.records.iter().filter_map(RunOutcome::success)
    }

    /// The failure records, in manifest order.
    pub fn failures(&self) -> impl Iterator<Item = &FailureRecord> {
        self.records.iter().filter_map(RunOutcome::failure)
    }

    /// JSON form of the whole manifest.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("schema_version", Json::Num(3.0)),
            (
                "records",
                Json::Arr(self.records.iter().map(RunOutcome::to_json).collect()),
            ),
        ])
    }

    /// Parses manifest text written by [`Manifest::write`] (any schema
    /// version, 1 through 3).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed JSON or a record
    /// missing required fields.
    pub fn parse(text: &str) -> Result<Self, String> {
        let j = Json::parse(text)?;
        let name = j
            .get("name")
            .and_then(Json::as_str)
            .ok_or("manifest missing name")?
            .to_string();
        let mut records = Vec::new();
        for (i, r) in j
            .get("records")
            .and_then(Json::as_arr)
            .ok_or("manifest missing records")?
            .iter()
            .enumerate()
        {
            records.push(RunOutcome::from_json(r).ok_or_else(|| format!("bad record {i}"))?);
        }
        Ok(Manifest { name, records })
    }

    /// The directory manifests go to unless a request sets `lab_dir`,
    /// relative to the current directory.
    pub const DEFAULT_DIR: &'static str = "target/lab";

    /// Atomically writes the manifest to `<dir>/<name>.json` through
    /// [`atomic_write`], so a crash mid-write never leaves a truncated
    /// manifest (the previous version, if any, survives), and returns
    /// the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let path = dir.join(format!("{}.json", self.name));
        atomic_write(&path, self.to_json().to_string_pretty())?;
        Ok(path)
    }
}

/// Incremental, crash-safe manifest output.
///
/// Sweep workers report each completed cell via [`ManifestWriter::append`]
/// together with its plan-order index; the writer keeps the outcomes
/// sorted by that index and atomically re-writes the manifest file after
/// every append. Killing the process at any point leaves a valid
/// manifest of every cell completed so far.
#[derive(Debug)]
pub struct ManifestWriter {
    dir: PathBuf,
    name: String,
    state: Mutex<Vec<(usize, RunOutcome)>>,
}

impl ManifestWriter {
    /// Creates a writer for `<Manifest::DEFAULT_DIR>/<name>.json`.
    pub fn new(name: impl Into<String>) -> Self {
        Self::in_dir(Manifest::DEFAULT_DIR, name)
    }

    /// Creates a writer for `<dir>/<name>.json`.
    pub fn in_dir(dir: impl Into<PathBuf>, name: impl Into<String>) -> Self {
        ManifestWriter {
            dir: dir.into(),
            name: name.into(),
            state: Mutex::new(Vec::new()),
        }
    }

    /// Records one completed cell (at plan index `order`) and re-writes
    /// the manifest file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; the in-memory state is updated
    /// regardless, so a later append retries the write.
    pub fn append(&self, order: usize, outcome: RunOutcome) -> std::io::Result<PathBuf> {
        // The write happens while the lock is held: concurrent appends
        // share one temp-file path (the pid), and an unserialized rename
        // could land a stale snapshot last.
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state.push((order, outcome));
        state.sort_by_key(|(i, _)| *i);
        let manifest = Manifest {
            name: self.name.clone(),
            records: state.iter().map(|(_, o)| o.clone()).collect(),
        };
        manifest.write(&self.dir)
    }

    /// The manifest assembled so far, in plan order.
    pub fn manifest(&self) -> Manifest {
        let state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Manifest {
            name: self.name.clone(),
            records: state.iter().map(|(_, o)| o.clone()).collect(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn sample_record(wall_ms: f64) -> RunRecord {
        let stats = RunStats::default();
        RunRecord::new(
            "mst",
            InputSet::Ref,
            &SystemSpec::of(SystemKind::StreamEcdpThrottled),
            &stats,
            wall_ms,
        )
    }

    fn sample_failure() -> FailureRecord {
        FailureRecord::new(
            "health",
            InputSet::Test,
            SystemKind::StreamCdp,
            "deadlock",
            "simulator deadlock: cycle 42 ...",
            3.5,
        )
    }

    #[test]
    fn record_roundtrips_through_json() {
        let r = sample_record(12.5);
        let parsed = RunRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(r, parsed);
        assert_eq!(parsed.input, "ref");
        assert_eq!(parsed.system, SystemKind::StreamEcdpThrottled.label());
    }

    #[test]
    fn failure_roundtrips_through_json() {
        let f = sample_failure();
        let j = f.to_json();
        assert_eq!(j.get("outcome").and_then(Json::as_str), Some("failed"));
        let parsed = FailureRecord::from_json(&j).unwrap();
        assert_eq!(f, parsed);
        // The generic outcome parser discriminates on the field.
        assert!(RunOutcome::from_json(&j).unwrap().is_failed());
        let s = RunOutcome::from_json(&sample_record(1.0).to_json()).unwrap();
        assert!(!s.is_failed());
    }

    #[test]
    fn same_metrics_ignores_wall_time_only() {
        let a = sample_record(1.0);
        let mut b = sample_record(99.0);
        assert!(a.same_metrics(&b));
        b.stats.cycles += 1;
        assert!(!a.same_metrics(&b));
    }

    #[test]
    fn manifest_roundtrips_and_is_deterministic() {
        let m = Manifest {
            name: "unit".to_string(),
            records: vec![
                RunOutcome::Success(sample_record(3.0)),
                RunOutcome::Failed(sample_failure()),
            ],
        };
        let text = m.to_json().to_string_pretty();
        assert_eq!(text, m.to_json().to_string_pretty());
        let parsed = Manifest::parse(&text).unwrap();
        assert_eq!(m, parsed);
        assert_eq!(parsed.successes().count(), 1);
        assert_eq!(parsed.failures().count(), 1);
    }

    #[test]
    fn trace_paths_are_optional_and_roundtrip() {
        let plain = sample_record(1.0);
        assert!(plain.to_json().get("timeseries_path").is_none());
        assert!(plain.to_json().get("obs_path").is_none());
        let mut traced = sample_record(2.0);
        traced.timeseries_path = Some("target/traces/cell/timeseries.json".to_string());
        traced.obs_path = Some("target/traces/cell/obs.jsonl".to_string());
        let parsed = RunRecord::from_json(&traced.to_json()).unwrap();
        assert_eq!(traced, parsed);
        assert!(
            plain.same_metrics(&traced),
            "artifact paths must not affect metric equality"
        );
    }

    #[test]
    fn config_hash_is_stable_within_process() {
        assert_eq!(config_hash(), config_hash());
    }

    #[test]
    fn workload_hash_is_omitted_for_builtins_and_roundtrips() {
        let builtin = sample_record(1.0);
        assert_eq!(builtin.workload_hash, None, "mst is a built-in");
        assert!(builtin.to_json().get("workload_hash").is_none());

        let mut loaded = sample_record(1.0);
        loaded.workload_hash = Some("00000000feedface".to_string());
        let parsed = RunRecord::from_json(&loaded.to_json()).unwrap();
        assert_eq!(parsed.workload_hash.as_deref(), Some("00000000feedface"));
        assert!(
            !builtin.same_metrics(&loaded),
            "a record from a different workload file must not compare equal"
        );
    }

    #[test]
    fn retry_info_roundtrips_on_both_record_shapes() {
        let info = RetryInfo {
            attempts: 3,
            attempt_errors: vec![
                "deadline:transient".to_string(),
                "deadline:transient".to_string(),
            ],
            total_backoff_ms: 150,
        };
        assert_eq!(RetryInfo::from_json(&info.to_json()).unwrap(), info);

        let mut r = sample_record(1.0);
        r.retry = Some(info.clone());
        r.store = Some("appended".to_string());
        let parsed = RunRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.retry.as_ref(), Some(&info));
        assert_eq!(parsed.store.as_deref(), Some("appended"));
        assert!(
            sample_record(1.0).same_metrics(&parsed),
            "retry/store fields must not affect metric equality"
        );

        let mut f = sample_failure();
        f.retry = Some(info.clone());
        let parsed = FailureRecord::from_json(&f.to_json()).unwrap();
        assert_eq!(parsed.retry, Some(info));
    }

    #[test]
    fn v3_fields_are_omitted_when_absent() {
        // A single-attempt, store-less run serializes exactly as the
        // version-2 format did — golden manifests stay byte-stable.
        let j = sample_record(1.0).to_json();
        assert!(j.get("retry").is_none());
        assert!(j.get("store").is_none());
        assert!(sample_failure().to_json().get("retry").is_none());
    }

    #[test]
    fn parses_v1_and_v2_manifest_documents() {
        // Version 1: success records only, no outcome/checkpoint/retry
        // fields, schema_version 1.
        let v1 = r#"{
          "name": "legacy",
          "schema_version": 1,
          "records": [
            {
              "workload": "mst", "input": "ref", "system": "stream",
              "config_hash": "00000000deadbeef", "wall_ms": 4.0,
              "stats": STATS
            }
          ]
        }"#
        .replace(
            "STATS",
            &RunStats::default().summary().to_json().to_string_compact(),
        );
        let m = Manifest::parse(&v1).unwrap();
        assert_eq!(m.successes().count(), 1);
        let r = m.successes().next().unwrap();
        assert_eq!(r.config_hash, 0xdead_beef);
        assert_eq!(r.retry, None);
        assert_eq!(r.store, None);

        // Version 2: adds failure records and checkpoint dispositions.
        let v2 = r#"{
          "name": "legacy2",
          "schema_version": 2,
          "records": [
            {
              "workload": "mst", "input": "ref", "system": "stream",
              "config_hash": "00000000deadbeef", "wall_ms": 4.0,
              "stats": STATS, "checkpoint": "forked"
            },
            {
              "workload": "health", "input": "test", "system": "stream+cdp",
              "config_hash": "00000000deadbeef", "outcome": "failed",
              "error_kind": "deadlock", "error": "wedged", "wall_ms": 1.0
            }
          ]
        }"#
        .replace(
            "STATS",
            &RunStats::default().summary().to_json().to_string_compact(),
        );
        let m = Manifest::parse(&v2).unwrap();
        assert_eq!(m.successes().count(), 1);
        assert_eq!(m.failures().count(), 1);
        assert_eq!(
            m.successes().next().unwrap().checkpoint.as_deref(),
            Some("forked")
        );
        assert_eq!(m.failures().next().unwrap().retry, None);
    }
}
