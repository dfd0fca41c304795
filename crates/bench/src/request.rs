//! Typed sweep-request configuration.
//!
//! One validated, schema-versioned [`SweepRequest`] configures a sweep:
//! the `run_all` CLI, the `sweepd` service and the library share it, and
//! the server's POST body and the CLI's `--config` file are **the same
//! document**. The resolved request is handed to the code that uses its
//! values — [`crate::Lab::for_request`] takes the fault plan, checkpoint
//! store and verbosity, `run_all` the manifest directory, jobs, retry
//! policy and thresholds — so nothing re-reads configuration from the
//! process environment.
//!
//! Serialization uses the in-tree [`Json`] layer (the workspace takes no
//! external dependencies, so there is no serde crate to derive from) with
//! an explicit `schema_version` field, exactly like the run manifest.
//!
//! # Layering
//!
//! A [`RequestOverlay`] is a *partial* request: every field optional.
//! [`SweepRequest::resolve`] merges two of them over the defaults in
//! strict precedence order — **flags over `--config` file over
//! defaults**:
//!
//! 1. command-line flags (`--jobs`, `--store`, `--workload-file`),
//! 2. a `--config file.json` document,
//! 3. the defaults of [`SweepRequest::default`].

use std::path::PathBuf;

use ecdp::system::SystemKind;
use sim_core::{Json, ThrottleThresholds};
use workloads::{registry, InputSet};

use crate::lab::CheckpointConfig;
use crate::sweep::{RetryPolicy, SweepPlan};

/// Version of the request document format (`--config` files and POSTed
/// sweep requests). Bumped on incompatible field changes. Version 2
/// added `workload_files`; version-1 documents are still accepted (the
/// new field simply could not appear in them).
pub const REQUEST_SCHEMA_VERSION: u32 = 2;

/// Request document versions this build reads.
pub const ACCEPTED_SCHEMA_VERSIONS: [u32; 2] = [1, REQUEST_SCHEMA_VERSION];

/// The headline systems swept by default: the paper's seven
/// configurations of Figure 7.
pub const DEFAULT_SYSTEMS: [SystemKind; 7] = [
    SystemKind::NoPrefetch,
    SystemKind::StreamOnly,
    SystemKind::OracleLds,
    SystemKind::StreamCdp,
    SystemKind::StreamEcdp,
    SystemKind::StreamCdpThrottled,
    SystemKind::StreamEcdpThrottled,
];

fn parse_input(s: &str) -> Result<InputSet, String> {
    match s {
        "test" => Ok(InputSet::Test),
        "train" => Ok(InputSet::Train),
        "ref" => Ok(InputSet::Ref),
        other => Err(format!("unknown input set {other:?} (want test/train/ref)")),
    }
}

fn parse_systems(labels: &[String]) -> Result<Vec<SystemKind>, String> {
    labels
        .iter()
        .map(|l| SystemKind::from_label(l).ok_or_else(|| format!("unknown system label {l:?}")))
        .collect()
}

/// Parses Table 3 re-derivation thresholds written `cov,alow,ahigh`.
fn parse_thresholds(raw: &str) -> Result<ThrottleThresholds, String> {
    let parts = raw
        .split(',')
        .map(|p| {
            p.trim()
                .parse::<f64>()
                .map_err(|_| format!("validate_thresholds: bad number {p:?} in {raw:?}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let [coverage, accuracy_low, accuracy_high] = parts[..] else {
        return Err(format!(
            "validate_thresholds wants cov,alow,ahigh; got {raw:?}"
        ));
    };
    Ok(ThrottleThresholds {
        coverage,
        accuracy_low,
        accuracy_high,
    })
}

/// Registers every listed workload file, returning the workload names
/// they define in file order. Idempotent for unchanged files (content
/// hashing in the registry), so re-resolving a request is safe.
fn register_workload_files(files: &[String]) -> Result<Vec<String>, String> {
    let mut loaded = Vec::new();
    for f in files {
        loaded.extend(registry::register_file(f).map_err(|e| format!("workload_files: {e}"))?);
    }
    Ok(loaded)
}

/// A partially-specified sweep request: every field optional, so flags
/// and a config file can be merged with explicit precedence. See the
/// module docs for the layering rules.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestOverlay {
    /// Workload names.
    pub workloads: Option<Vec<String>>,
    /// Workload files — `.wl` specs, `.trace` text traces or `.xtrc`
    /// binary traces — registered before the grid is built.
    pub workload_files: Option<Vec<String>>,
    /// Input set.
    pub input: Option<InputSet>,
    /// System configurations.
    pub systems: Option<Vec<SystemKind>>,
    /// Worker threads.
    pub jobs: Option<usize>,
    /// Supervisor attempt budget.
    pub retry_attempts: Option<u32>,
    /// Supervisor backoff base.
    pub retry_backoff_ms: Option<u64>,
    /// Per-attempt wall-clock deadline; 0 disables.
    pub cell_deadline_ms: Option<u64>,
    /// Warm-checkpoint directory.
    pub checkpoint_dir: Option<String>,
    /// Warm-checkpoint capture cycle.
    pub warm_cycles: Option<u64>,
    /// Persistent result-store path.
    pub store_path: Option<String>,
    /// Compact the store after the sweep.
    pub store_compact: Option<bool>,
    /// Fault-injection plan text.
    pub fault_plan: Option<String>,
    /// Manifest output directory.
    pub lab_dir: Option<String>,
    /// Per-simulation progress lines on stderr.
    pub verbose: Option<bool>,
    /// Table 3 re-derivation thresholds (written `cov,alow,ahigh`).
    pub validate_thresholds: Option<ThrottleThresholds>,
}

impl RequestOverlay {
    /// Parses a request document (a `--config` file or a POSTed body).
    /// Unknown fields are hard errors — a misspelled knob silently
    /// configuring nothing is worse than failing fast.
    ///
    /// # Errors
    ///
    /// Returns a one-line message on an unsupported `schema_version`, an
    /// unknown field, or a mistyped value.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        const KNOWN: &[&str] = &[
            "schema_version",
            "workloads",
            "workload_files",
            "input",
            "systems",
            "jobs",
            "retry",
            "checkpoint",
            "store",
            "fault_plan",
            "lab_dir",
            "verbose",
            "validate_thresholds",
        ];
        let Json::Obj(pairs) = j else {
            return Err("request document must be a JSON object".to_string());
        };
        for (k, _) in pairs {
            if !KNOWN.contains(&k.as_str()) {
                return Err(format!("unknown request field {k:?}"));
            }
        }
        if let Some(v) = j.get("schema_version") {
            let version = v.as_u64().ok_or("schema_version must be an integer")?;
            if !ACCEPTED_SCHEMA_VERSIONS
                .iter()
                .any(|&a| u64::from(a) == version)
            {
                return Err(format!(
                    "unsupported request schema_version {version} (this build reads {ACCEPTED_SCHEMA_VERSIONS:?})"
                ));
            }
        }
        fn str_list(j: &Json, key: &str) -> Result<Option<Vec<String>>, String> {
            match j.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_arr()
                    .ok_or(format!("{key} must be an array of strings"))?
                    .iter()
                    .map(|e| {
                        e.as_str()
                            .map(ToString::to_string)
                            .ok_or(format!("{key} must be an array of strings"))
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .map(Some),
            }
        }
        fn str_field(j: &Json, key: &str) -> Result<Option<String>, String> {
            match j.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_str()
                    .map(|s| Some(s.to_string()))
                    .ok_or(format!("{key} must be a string")),
            }
        }
        fn u64_field(j: &Json, key: &str) -> Result<Option<u64>, String> {
            match j.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_u64()
                    .map(Some)
                    .ok_or(format!("{key} must be a non-negative integer")),
            }
        }
        fn bool_field(j: &Json, key: &str) -> Result<Option<bool>, String> {
            match j.get(key) {
                None => Ok(None),
                Some(Json::Bool(b)) => Ok(Some(*b)),
                Some(_) => Err(format!("{key} must be a boolean")),
            }
        }

        let mut o = RequestOverlay {
            workloads: str_list(j, "workloads")?,
            workload_files: str_list(j, "workload_files")?,
            input: match str_field(j, "input")? {
                Some(s) => Some(parse_input(&s)?),
                None => None,
            },
            systems: match str_list(j, "systems")? {
                Some(labels) => Some(parse_systems(&labels)?),
                None => None,
            },
            jobs: u64_field(j, "jobs")?
                .map(|n| {
                    if n == 0 {
                        Err("jobs must be at least 1".to_string())
                    } else {
                        Ok(n as usize)
                    }
                })
                .transpose()?,
            fault_plan: str_field(j, "fault_plan")?,
            lab_dir: str_field(j, "lab_dir")?,
            verbose: bool_field(j, "verbose")?,
            validate_thresholds: str_field(j, "validate_thresholds")?
                .map(|t| parse_thresholds(&t))
                .transpose()?,
            ..RequestOverlay::default()
        };
        if let Some(r) = j.get("retry") {
            o.retry_attempts = u64_field(r, "attempts")?
                .map(|n| {
                    if n == 0 {
                        Err("retry.attempts must be at least 1".to_string())
                    } else {
                        Ok(n as u32)
                    }
                })
                .transpose()?;
            o.retry_backoff_ms = u64_field(r, "backoff_ms")?;
            o.cell_deadline_ms = u64_field(r, "cell_deadline_ms")?;
        }
        if let Some(c) = j.get("checkpoint") {
            o.checkpoint_dir = str_field(c, "dir")?;
            o.warm_cycles = u64_field(c, "warm_cycles")?;
        }
        if let Some(s) = j.get("store") {
            o.store_path = str_field(s, "path")?;
            o.store_compact = bool_field(s, "compact")?;
        }
        if let Some(text) = &o.fault_plan {
            crate::fault::FaultPlan::parse(text).map_err(|e| format!("fault_plan: {e}"))?;
        }
        Ok(o)
    }

    /// Sparse JSON form: only set fields are emitted, so an overlay
    /// round-trips exactly and a POST body stays minimal.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![(
            "schema_version",
            Json::Num(f64::from(REQUEST_SCHEMA_VERSION)),
        )];
        if let Some(w) = &self.workloads {
            pairs.push((
                "workloads",
                Json::Arr(w.iter().map(|s| Json::Str(s.clone())).collect()),
            ));
        }
        if let Some(f) = &self.workload_files {
            pairs.push((
                "workload_files",
                Json::Arr(f.iter().map(|s| Json::Str(s.clone())).collect()),
            ));
        }
        if let Some(i) = self.input {
            pairs.push(("input", Json::Str(format!("{i:?}").to_lowercase())));
        }
        if let Some(s) = &self.systems {
            pairs.push((
                "systems",
                Json::Arr(s.iter().map(|k| Json::Str(k.label().to_string())).collect()),
            ));
        }
        if let Some(n) = self.jobs {
            pairs.push(("jobs", Json::Num(n as f64)));
        }
        let mut retry = Vec::new();
        if let Some(n) = self.retry_attempts {
            retry.push(("attempts", Json::Num(f64::from(n))));
        }
        if let Some(ms) = self.retry_backoff_ms {
            retry.push(("backoff_ms", Json::Num(ms as f64)));
        }
        if let Some(ms) = self.cell_deadline_ms {
            retry.push(("cell_deadline_ms", Json::Num(ms as f64)));
        }
        if !retry.is_empty() {
            pairs.push(("retry", Json::obj(retry)));
        }
        let mut checkpoint = Vec::new();
        if let Some(d) = &self.checkpoint_dir {
            checkpoint.push(("dir", Json::Str(d.clone())));
        }
        if let Some(c) = self.warm_cycles {
            checkpoint.push(("warm_cycles", Json::Num(c as f64)));
        }
        if !checkpoint.is_empty() {
            pairs.push(("checkpoint", Json::obj(checkpoint)));
        }
        let mut store = Vec::new();
        if let Some(p) = &self.store_path {
            store.push(("path", Json::Str(p.clone())));
        }
        if let Some(c) = self.store_compact {
            store.push(("compact", Json::Bool(c)));
        }
        if !store.is_empty() {
            pairs.push(("store", Json::obj(store)));
        }
        if let Some(f) = &self.fault_plan {
            pairs.push(("fault_plan", Json::Str(f.clone())));
        }
        if let Some(l) = &self.lab_dir {
            pairs.push(("lab_dir", Json::Str(l.clone())));
        }
        if let Some(v) = self.verbose {
            pairs.push(("verbose", Json::Bool(v)));
        }
        if let Some(t) = &self.validate_thresholds {
            pairs.push((
                "validate_thresholds",
                Json::Str(format!(
                    "{},{},{}",
                    t.coverage, t.accuracy_low, t.accuracy_high
                )),
            ));
        }
        Json::obj(pairs)
    }

    /// Merges `self` over `base`: set fields of `self` win.
    #[must_use]
    pub fn merged_over(self, base: Self) -> Self {
        RequestOverlay {
            workloads: self.workloads.or(base.workloads),
            workload_files: self.workload_files.or(base.workload_files),
            input: self.input.or(base.input),
            systems: self.systems.or(base.systems),
            jobs: self.jobs.or(base.jobs),
            retry_attempts: self.retry_attempts.or(base.retry_attempts),
            retry_backoff_ms: self.retry_backoff_ms.or(base.retry_backoff_ms),
            cell_deadline_ms: self.cell_deadline_ms.or(base.cell_deadline_ms),
            checkpoint_dir: self.checkpoint_dir.or(base.checkpoint_dir),
            warm_cycles: self.warm_cycles.or(base.warm_cycles),
            store_path: self.store_path.or(base.store_path),
            store_compact: self.store_compact.or(base.store_compact),
            fault_plan: self.fault_plan.or(base.fault_plan),
            lab_dir: self.lab_dir.or(base.lab_dir),
            verbose: self.verbose.or(base.verbose),
            validate_thresholds: self.validate_thresholds.or(base.validate_thresholds),
        }
    }
}

/// A fully-resolved, validated sweep request: the one configuration
/// type `run_all`, `sweepd` and the library share.
///
/// Build one with the builder-style `with_*` methods, from a request
/// document ([`SweepRequest::from_json`]), or by layering flags over a
/// `--config` file ([`SweepRequest::resolve`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// Workload names (validated against the workload registry).
    pub workloads: Vec<String>,
    /// Workload files registered before the grid is built. When the
    /// request names no explicit `workloads`, the grid is exactly the
    /// workloads these files define.
    pub workload_files: Vec<String>,
    /// Input set the measured traces come from.
    pub input: InputSet,
    /// System configurations to sweep.
    pub systems: Vec<SystemKind>,
    /// Worker threads; `None` means [`crate::default_jobs`].
    pub jobs: Option<usize>,
    /// Cell supervisor retry/deadline policy.
    pub retry: RetryPolicy,
    /// Warm-checkpoint store, when configured.
    pub checkpoint: Option<CheckpointConfig>,
    /// Persistent result-store path, when configured.
    pub store_path: Option<String>,
    /// Compact the result store after the sweep.
    pub store_compact: bool,
    /// Fault-injection plan text (empty = no injected faults).
    pub fault_plan: String,
    /// Manifest output directory override, when configured.
    pub lab_dir: Option<String>,
    /// Per-simulation progress lines on stderr.
    pub verbose: bool,
    /// Table 3 re-derivation threshold override; `None` means the
    /// paper's Table 4 values.
    pub validate_thresholds: Option<ThrottleThresholds>,
}

impl Default for SweepRequest {
    fn default() -> Self {
        SweepRequest {
            workloads: crate::experiments::POINTER_BENCHES
                .iter()
                .map(ToString::to_string)
                .collect(),
            workload_files: Vec::new(),
            input: InputSet::Ref,
            systems: DEFAULT_SYSTEMS.to_vec(),
            jobs: None,
            retry: RetryPolicy::default(),
            checkpoint: None,
            store_path: None,
            store_compact: false,
            fault_plan: String::new(),
            lab_dir: None,
            verbose: false,
            validate_thresholds: None,
        }
    }
}

impl SweepRequest {
    /// Resolves the request a command line describes: the `--config`
    /// document at `config` (if any) over the defaults, with `flags`
    /// over both (see the module docs). `run_all` and `sweepd` share
    /// this resolver.
    ///
    /// # Errors
    ///
    /// Returns a one-line message when the config file cannot be read or
    /// parsed, or the merged request fails [`SweepRequest::validated`].
    pub fn resolve(config: Option<&str>, flags: RequestOverlay) -> Result<Self, String> {
        let file = match config {
            Some(path) => std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| Json::parse(&text))
                .and_then(|json| RequestOverlay::from_json(&json))
                .map_err(|e| format!("--config {path:?}: {e}"))?,
            None => RequestOverlay::default(),
        };
        Self::from_overlay(flags.merged_over(file))?.validated()
    }

    fn from_overlay(o: RequestOverlay) -> Result<Self, String> {
        let d = SweepRequest::default();
        let rd = RetryPolicy::default();
        let checkpoint = o.checkpoint_dir.map(|dir| {
            CheckpointConfig::new(
                PathBuf::from(dir),
                o.warm_cycles
                    .unwrap_or(CheckpointConfig::DEFAULT_WARM_CYCLES),
            )
        });
        let workload_files = o.workload_files.unwrap_or_default();
        // Register files before the grid forms so their names resolve.
        // With no explicit workload list, files *are* the grid: loading
        // a spec and then sweeping something else would be surprising.
        let loaded = register_workload_files(&workload_files)?;
        let workloads = match o.workloads {
            Some(w) => w,
            None if !loaded.is_empty() => loaded,
            None => d.workloads,
        };
        Ok(SweepRequest {
            workloads,
            workload_files,
            input: o.input.unwrap_or(d.input),
            systems: o.systems.unwrap_or(d.systems),
            jobs: o.jobs,
            retry: RetryPolicy {
                max_attempts: o.retry_attempts.unwrap_or(rd.max_attempts),
                backoff_base_ms: o.retry_backoff_ms.unwrap_or(rd.backoff_base_ms),
                deadline_ms: o.cell_deadline_ms.filter(|&ms| ms > 0),
            },
            checkpoint,
            store_path: o.store_path.filter(|s| !s.is_empty()),
            store_compact: o.store_compact.unwrap_or(false),
            fault_plan: o.fault_plan.unwrap_or_default(),
            lab_dir: o.lab_dir,
            verbose: o.verbose.unwrap_or(false),
            validate_thresholds: o.validate_thresholds,
        })
    }

    /// Validates the request: non-empty grid, loadable workload files,
    /// known workload names (with a did-you-mean suggestion from the
    /// registry), a parseable fault plan. Returns `self` unchanged on
    /// success.
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming the offending field.
    pub fn validated(self) -> Result<Self, String> {
        if self.workloads.is_empty() {
            return Err("workloads must not be empty".to_string());
        }
        if self.systems.is_empty() {
            return Err("systems must not be empty".to_string());
        }
        // Hand-built requests (`SweepRequest { workload_files, .. }`)
        // skip `from_overlay`; registration is idempotent, so repeating
        // it here keeps both paths sound.
        register_workload_files(&self.workload_files)?;
        for w in &self.workloads {
            if registry::lookup(w).is_none() {
                return Err(match registry::suggest(w) {
                    Some(s) => format!("unknown workload {w:?} (did you mean {s:?}?)"),
                    None => format!("unknown workload {w:?}"),
                });
            }
        }
        crate::fault::FaultPlan::parse(&self.fault_plan).map_err(|e| format!("fault_plan: {e}"))?;
        Ok(self)
    }

    /// Builder: replaces the workload list.
    #[must_use]
    pub fn with_workloads(mut self, workloads: &[&str]) -> Self {
        self.workloads = workloads.iter().map(ToString::to_string).collect();
        self
    }

    /// Builder: replaces the workload-file list.
    #[must_use]
    pub fn with_workload_files(mut self, files: &[&str]) -> Self {
        self.workload_files = files.iter().map(ToString::to_string).collect();
        self
    }

    /// Builder: replaces the input set.
    #[must_use]
    pub fn with_input(mut self, input: InputSet) -> Self {
        self.input = input;
        self
    }

    /// Builder: replaces the system list.
    #[must_use]
    pub fn with_systems(mut self, systems: &[SystemKind]) -> Self {
        self.systems = systems.to_vec();
        self
    }

    /// Builder: sets the worker-thread count.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs);
        self
    }

    /// Builder: sets the retry/deadline policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Builder: sets the persistent result-store path.
    #[must_use]
    pub fn with_store(mut self, path: impl Into<String>) -> Self {
        self.store_path = Some(path.into());
        self
    }

    /// The sweep plan of this request's grid: the full workloads ×
    /// systems cross product on the configured input.
    pub fn plan(&self, name: impl Into<String>) -> SweepPlan {
        let refs: Vec<&str> = self.workloads.iter().map(String::as_str).collect();
        SweepPlan::cross(name, &refs, self.input, &self.systems)
    }

    /// The parsed fault-injection plan.
    pub fn parsed_fault_plan(&self) -> crate::fault::FaultPlan {
        // Validated at construction; an empty plan parses to none().
        crate::fault::FaultPlan::parse(&self.fault_plan)
            .unwrap_or_else(|_| crate::fault::FaultPlan::none())
    }

    /// The number of grid cells (`workloads × systems`).
    pub fn cell_count(&self) -> usize {
        self.workloads.len() * self.systems.len()
    }

    /// Full JSON form: every field, resolved. Parses back through
    /// [`SweepRequest::from_json`].
    pub fn to_json(&self) -> Json {
        let o = RequestOverlay {
            workloads: Some(self.workloads.clone()),
            workload_files: (!self.workload_files.is_empty()).then(|| self.workload_files.clone()),
            input: Some(self.input),
            systems: Some(self.systems.clone()),
            jobs: self.jobs,
            retry_attempts: Some(self.retry.max_attempts),
            retry_backoff_ms: Some(self.retry.backoff_base_ms),
            cell_deadline_ms: Some(self.retry.deadline_ms.unwrap_or(0)),
            checkpoint_dir: self
                .checkpoint
                .as_ref()
                .map(|c| c.dir.to_string_lossy().into_owned()),
            warm_cycles: self.checkpoint.as_ref().map(|c| c.warm_cycles),
            store_path: self.store_path.clone(),
            store_compact: Some(self.store_compact),
            fault_plan: (!self.fault_plan.is_empty()).then(|| self.fault_plan.clone()),
            lab_dir: self.lab_dir.clone(),
            verbose: Some(self.verbose),
            validate_thresholds: self.validate_thresholds,
        };
        o.to_json()
    }

    /// Parses a full request document over the defaults (the service
    /// uses this for POST bodies).
    ///
    /// # Errors
    ///
    /// Propagates [`RequestOverlay::from_json`] and
    /// [`SweepRequest::validated`] errors.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        Self::from_overlay(RequestOverlay::from_json(j)?)?.validated()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_the_paper_grid() {
        let r = SweepRequest::default();
        assert_eq!(r.workloads.len(), 15);
        assert_eq!(r.systems.len(), 7);
        assert_eq!(r.input, InputSet::Ref);
        assert_eq!(r.cell_count(), 105);
        assert!(r.clone().validated().is_ok());
    }

    #[test]
    fn full_request_roundtrips_through_json() {
        let r = SweepRequest::default()
            .with_workloads(&["mst", "health"])
            .with_input(InputSet::Test)
            .with_systems(&[SystemKind::StreamOnly, SystemKind::StreamEcdpThrottled])
            .with_jobs(2)
            .with_retry(RetryPolicy {
                max_attempts: 5,
                backoff_base_ms: 10,
                deadline_ms: Some(4000),
            })
            .with_store("target/results.store");
        let r = SweepRequest {
            validate_thresholds: Some(ThrottleThresholds {
                coverage: 0.25,
                accuracy_low: 0.5,
                accuracy_high: 1.1,
            }),
            ..r
        };
        let text = r.to_json().to_string_pretty();
        let parsed = SweepRequest::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(r, parsed);
    }

    #[test]
    fn overlay_json_rejects_unknown_fields_and_bad_versions() {
        let bad = Json::parse(r#"{"jbos": 4}"#).unwrap();
        assert!(RequestOverlay::from_json(&bad)
            .unwrap_err()
            .contains("jbos"));
        let v9 = Json::parse(r#"{"schema_version": 9}"#).unwrap();
        assert!(RequestOverlay::from_json(&v9)
            .unwrap_err()
            .contains("schema_version 9"));
        // Version-1 documents (pre-`workload_files`) still parse.
        let v1 = Json::parse(r#"{"schema_version": 1, "jobs": 4}"#).unwrap();
        assert_eq!(RequestOverlay::from_json(&v1).unwrap().jobs, Some(4));
        let zero = Json::parse(r#"{"jobs": 0}"#).unwrap();
        assert!(RequestOverlay::from_json(&zero).is_err());
        let badsys = Json::parse(r#"{"systems": ["warp-drive"]}"#).unwrap();
        assert!(RequestOverlay::from_json(&badsys)
            .unwrap_err()
            .contains("warp-drive"));
        let badplan = Json::parse(r#"{"fault_plan": "meteor@*"}"#).unwrap();
        assert!(RequestOverlay::from_json(&badplan)
            .unwrap_err()
            .contains("fault_plan"));
        for bad in ["1.1,x", "0.2,0.4", "0.2,0.4,0.7,0.9"] {
            let doc = Json::obj([("validate_thresholds", Json::Str(bad.to_string()))]);
            let err = RequestOverlay::from_json(&doc).unwrap_err();
            assert!(err.contains("validate_thresholds"), "{bad}: {err}");
        }
        // The trace cache and the hot-path bench baseline are gone;
        // documents that still set them fail the unknown-field check.
        for (doc, field) in [
            (r#"{"trace_cache": "target/traces"}"#, "trace_cache"),
            (r#"{"baseline": "prior-report.json"}"#, "baseline"),
        ] {
            let err = RequestOverlay::from_json(&Json::parse(doc).unwrap()).unwrap_err();
            assert!(err.contains(field), "{doc}: {err}");
        }
    }

    #[test]
    fn precedence_is_flags_over_file_over_defaults() {
        let path = std::env::temp_dir().join(format!("request-prec-{}.json", std::process::id()));
        std::fs::write(&path, r#"{"input": "test", "jobs": 4}"#).unwrap();
        let flags = RequestOverlay {
            jobs: Some(2),
            ..RequestOverlay::default()
        };
        let r = SweepRequest::resolve(path.to_str(), flags).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(r.jobs, Some(2), "flag beats file");
        assert_eq!(r.input, InputSet::Test, "file beats default");
        assert_eq!(
            r.systems,
            DEFAULT_SYSTEMS.to_vec(),
            "default fills the rest"
        );
        let err = SweepRequest::resolve(Some("no/such/request.json"), RequestOverlay::default())
            .unwrap_err();
        assert!(
            err.starts_with("--config \"no/such/request.json\""),
            "{err}"
        );
    }

    #[test]
    fn validation_rejects_empty_and_unknown() {
        let r = SweepRequest {
            workloads: vec![],
            ..SweepRequest::default()
        };
        assert!(r.validated().is_err());
        let r = SweepRequest::default().with_workloads(&["no-such-workload"]);
        assert!(r.validated().unwrap_err().contains("no-such-workload"));
        // Near-misses get a registry suggestion.
        let r = SweepRequest::default().with_workloads(&["libquantm"]);
        let err = r.validated().unwrap_err();
        assert!(err.contains("did you mean \"libquantum\"?"), "{err}");
        let r = SweepRequest {
            systems: vec![],
            ..SweepRequest::default()
        };
        assert!(r.validated().is_err());
    }

    #[test]
    fn plan_builds_the_cross_product() {
        let r = SweepRequest::default()
            .with_workloads(&["mst", "health"])
            .with_input(InputSet::Test)
            .with_systems(&[SystemKind::StreamOnly, SystemKind::StreamCdp]);
        let plan = r.plan("unit");
        assert_eq!(plan.cells.len(), 4);
        assert_eq!(plan.cells[0].workload, "mst");
        assert_eq!(plan.cells[3].system, SystemKind::StreamCdp);
    }

    #[test]
    fn workload_files_define_the_grid_and_roundtrip() {
        // The same overlay a `sweepd` POST body or `--config` file
        // produces: a workload file and no explicit workload list.
        let dir = std::env::temp_dir();
        let path = dir.join(format!("request-unit-{}.wl", std::process::id()));
        std::fs::write(
            &path,
            "workload req_unit {\n  seed 3;\n  node N { size 8; ptr next @ 4; field v @ 0; }\n\
             \x20 chain c: N { count 5; }\n  traverse c { visit { load v; } }\n}\n",
        )
        .unwrap();
        let overlay = RequestOverlay {
            workload_files: Some(vec![path.to_string_lossy().into_owned()]),
            ..RequestOverlay::default()
        };
        let r = SweepRequest::resolve(None, overlay).unwrap();
        assert_eq!(
            r.workloads,
            vec!["req_unit".to_string()],
            "with no explicit list, the loaded workloads are the grid"
        );
        let parsed =
            SweepRequest::from_json(&Json::parse(&r.to_json().to_string_pretty()).unwrap())
                .unwrap();
        assert_eq!(r, parsed);

        // An explicit list wins over the loaded names.
        let overlay = RequestOverlay {
            workload_files: Some(vec![path.to_string_lossy().into_owned()]),
            workloads: Some(vec!["mst".to_string()]),
            ..RequestOverlay::default()
        };
        let r = SweepRequest::resolve(None, overlay).unwrap();
        assert_eq!(r.workloads, vec!["mst".to_string()]);
        std::fs::remove_file(&path).ok();

        // Unsupported extensions are rejected with the field name.
        let overlay = RequestOverlay {
            workload_files: Some(vec!["spec.yaml".to_string()]),
            ..RequestOverlay::default()
        };
        let err = SweepRequest::resolve(None, overlay).unwrap_err();
        assert!(err.contains("workload_files"), "{err}");
        assert!(err.contains("yaml"), "{err}");
    }
}
