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
//! [`SweepRequest::from_json`] is the one parser of a request document:
//! it reads a document over the defaults of [`SweepRequest::default`].
//! [`SweepRequest::resolve`] gives a command line the strict precedence
//! **flags over `--config` file over defaults** by editing one document:
//! it loads the `--config` file (or `{}`), writes the command-line flags
//! (`--jobs`, `--store`, `--workload-file`) into it, and parses the
//! result once.

use std::path::PathBuf;

use ecdp::system::SystemKind;
use sim_core::{Json, ThrottleThresholds};
use workloads::{registry, InputSet};

use crate::cli::RequestFlags;
use crate::lab::CheckpointConfig;
use crate::manifest::input_label;
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
/// hashing in the registry), so re-parsing a request is safe.
fn register_workload_files(files: &[String]) -> Result<Vec<String>, String> {
    let mut loaded = Vec::new();
    for f in files {
        loaded.extend(registry::register_file(f).map_err(|e| format!("workload_files: {e}"))?);
    }
    Ok(loaded)
}

/// Reads the optional field `key` of `j` through `conv`; a value of the
/// wrong type is an error naming the field and the expected type. A
/// dotted `key` (`retry.attempts`) reads its last segment from `j`, the
/// nested object, and the error names the whole path.
fn field<T>(
    j: &Json,
    key: &str,
    want: &str,
    conv: impl Fn(&Json) -> Option<T>,
) -> Result<Option<T>, String> {
    let name = key.rsplit_once('.').map_or(key, |(_, name)| name);
    j.get(name)
        .map(|v| conv(v).ok_or_else(|| format!("{key} must be {want}")))
        .transpose()
}

/// The optional object field `key` of `j`, whose own fields must all be
/// `known`: a non-object value or an unknown inner field is an error
/// naming the field path (e.g. `retry.atempts`), so a typo inside a
/// nested object fails as loudly as one at the top level.
fn object_field<'a>(j: &'a Json, key: &str, known: &[&str]) -> Result<Option<&'a Json>, String> {
    let Some(v) = j.get(key) else {
        return Ok(None);
    };
    let Json::Obj(pairs) = v else {
        return Err(format!("{key} must be an object"));
    };
    match pairs.iter().find(|(k, _)| !known.contains(&k.as_str())) {
        Some((k, _)) => Err(format!("unknown request field \"{key}.{k}\"")),
        None => Ok(Some(v)),
    }
}

fn str_field(j: &Json, key: &str) -> Result<Option<String>, String> {
    field(j, key, "a string", |v| v.as_str().map(ToString::to_string))
}

fn str_list(j: &Json, key: &str) -> Result<Option<Vec<String>>, String> {
    field(j, key, "an array of strings", |v| {
        v.as_arr()?
            .iter()
            .map(|e| e.as_str().map(ToString::to_string))
            .collect()
    })
}

fn u64_field(j: &Json, key: &str) -> Result<Option<u64>, String> {
    field(j, key, "a non-negative integer", Json::as_u64)
}

fn bool_field(j: &Json, key: &str) -> Result<Option<bool>, String> {
    field(j, key, "a boolean", |v| match v {
        Json::Bool(b) => Some(*b),
        _ => None,
    })
}

/// A positive count: `key` is named in the error when it is 0.
fn positive(key: &str, n: u64) -> Result<u64, String> {
    if n == 0 {
        Err(format!("{key} must be at least 1"))
    } else {
        Ok(n)
    }
}

fn str_array(items: &[String]) -> Json {
    Json::Arr(items.iter().cloned().map(Json::Str).collect())
}

/// Sets `key` of the object `doc` to `value`, replacing an existing
/// entry in place. A non-object `doc` is left for the parser to reject.
fn set(doc: &mut Json, key: &str, value: Json) {
    if let Json::Obj(pairs) = doc {
        match pairs.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => pairs.push((key.to_string(), value)),
        }
    }
}

/// A fully-resolved, validated sweep request: the one configuration
/// type `run_all`, `sweepd` and the library share.
///
/// Build one as a struct literal over [`SweepRequest::default`] (or with
/// the `with_*` builders), from a request document ([`SweepRequest::from_json`]), or from a command line's
/// flags and `--config` file ([`SweepRequest::resolve`]).
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
    /// document (or `{}`) with the command-line flags written into it,
    /// parsed once by [`SweepRequest::from_json`] (see the module docs).
    /// `run_all` and `sweepd` share this resolver.
    ///
    /// # Errors
    ///
    /// Returns a one-line message when the config file cannot be read or
    /// parsed, or the resulting document fails [`SweepRequest::from_json`].
    pub fn resolve(flags: &RequestFlags) -> Result<Self, String> {
        let mut doc = match &flags.config {
            Some(path) => std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| Json::parse(&text))
                .map_err(|e| format!("--config {path:?}: {e}"))?,
            None => Json::Obj(Vec::new()),
        };
        if let Some(n) = flags.jobs {
            set(&mut doc, "jobs", Json::Num(n as f64));
        }
        if let Some(path) = &flags.store {
            // The flag replaces the path only; the file's `compact` stays
            // (and a non-object `store` stays for the parser to reject).
            let mut store = doc.get("store").cloned().unwrap_or(Json::Obj(Vec::new()));
            set(&mut store, "path", Json::Str(path.clone()));
            set(&mut doc, "store", store);
        }
        if !flags.workload_files.is_empty() {
            set(&mut doc, "workload_files", str_array(&flags.workload_files));
        }
        Self::from_json(&doc)
    }

    /// Validates the request: non-empty grid, known workload names (with
    /// a did-you-mean suggestion from the registry), a parseable fault
    /// plan. Returns `self` unchanged on success. It reads no file:
    /// [`SweepRequest::from_json`] registers the `workload_files` once,
    /// so a request that parsed still runs after its files are gone.
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

    /// Full JSON form: every field, resolved. Parses back through
    /// [`SweepRequest::from_json`].
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            (
                "schema_version",
                Json::Num(f64::from(REQUEST_SCHEMA_VERSION)),
            ),
            ("workloads", str_array(&self.workloads)),
        ];
        if !self.workload_files.is_empty() {
            pairs.push(("workload_files", str_array(&self.workload_files)));
        }
        pairs.push(("input", Json::Str(input_label(self.input))));
        pairs.push((
            "systems",
            Json::Arr(
                self.systems
                    .iter()
                    .map(|k| Json::Str(k.label().to_string()))
                    .collect(),
            ),
        ));
        if let Some(n) = self.jobs {
            pairs.push(("jobs", Json::Num(n as f64)));
        }
        pairs.push((
            "retry",
            Json::obj([
                ("attempts", Json::Num(f64::from(self.retry.max_attempts))),
                ("backoff_ms", Json::Num(self.retry.backoff_base_ms as f64)),
                (
                    "cell_deadline_ms",
                    Json::Num(self.retry.deadline_ms.unwrap_or(0) as f64),
                ),
            ]),
        ));
        if let Some(c) = &self.checkpoint {
            pairs.push((
                "checkpoint",
                Json::obj([
                    ("dir", Json::Str(c.dir.to_string_lossy().into_owned())),
                    ("warm_cycles", Json::Num(c.warm_cycles as f64)),
                ]),
            ));
        }
        let mut store = Vec::new();
        if let Some(p) = &self.store_path {
            store.push(("path", Json::Str(p.clone())));
        }
        store.push(("compact", Json::Bool(self.store_compact)));
        pairs.push(("store", Json::obj(store)));
        if !self.fault_plan.is_empty() {
            pairs.push(("fault_plan", Json::Str(self.fault_plan.clone())));
        }
        if let Some(l) = &self.lab_dir {
            pairs.push(("lab_dir", Json::Str(l.clone())));
        }
        pairs.push(("verbose", Json::Bool(self.verbose)));
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

    /// Parses a request document — a `--config` file, a `POST /sweep`
    /// body, or the document [`SweepRequest::resolve`] assembles — over
    /// the defaults, then [`SweepRequest::validated`]. Unknown fields are
    /// hard errors: a misspelled knob silently configuring nothing is
    /// worse than failing fast. With no explicit `workloads`, the
    /// workloads the `workload_files` define are the grid.
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming the offending field: an
    /// unsupported `schema_version`, an unknown field, a mistyped or
    /// out-of-range value, or a failed [`SweepRequest::validated`].
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
        if let Some((k, _)) = pairs.iter().find(|(k, _)| !KNOWN.contains(&k.as_str())) {
            return Err(format!("unknown request field {k:?}"));
        }
        if let Some(version) = field(j, "schema_version", "an integer", Json::as_u64)? {
            if !ACCEPTED_SCHEMA_VERSIONS
                .iter()
                .any(|&a| u64::from(a) == version)
            {
                return Err(format!(
                    "unsupported request schema_version {version} (this build reads {ACCEPTED_SCHEMA_VERSIONS:?})"
                ));
            }
        }

        let mut r = SweepRequest::default();
        let workloads = str_list(j, "workloads")?;
        r.workload_files = str_list(j, "workload_files")?.unwrap_or_default();
        if let Some(s) = str_field(j, "input")? {
            r.input = parse_input(&s)?;
        }
        if let Some(labels) = str_list(j, "systems")? {
            r.systems = parse_systems(&labels)?;
        }
        r.jobs = u64_field(j, "jobs")?
            .map(|n| positive("jobs", n).map(|n| n as usize))
            .transpose()?;
        if let Some(retry) =
            object_field(j, "retry", &["attempts", "backoff_ms", "cell_deadline_ms"])?
        {
            if let Some(n) = u64_field(retry, "retry.attempts")? {
                r.retry.max_attempts = u32::try_from(positive("retry.attempts", n)?)
                    .map_err(|_| format!("retry.attempts {n} is out of range"))?;
            }
            if let Some(ms) = u64_field(retry, "retry.backoff_ms")? {
                r.retry.backoff_base_ms = ms;
            }
            if let Some(ms) = u64_field(retry, "retry.cell_deadline_ms")? {
                r.retry.deadline_ms = (ms > 0).then_some(ms);
            }
        }
        if let Some(c) = object_field(j, "checkpoint", &["dir", "warm_cycles"])? {
            let dir = str_field(c, "checkpoint.dir")?.ok_or("checkpoint.dir is required")?;
            let warm_cycles = u64_field(c, "checkpoint.warm_cycles")?;
            r.checkpoint = Some(CheckpointConfig::new(
                PathBuf::from(dir),
                warm_cycles.unwrap_or(CheckpointConfig::DEFAULT_WARM_CYCLES),
            ));
        }
        if let Some(s) = object_field(j, "store", &["path", "compact"])? {
            r.store_path = str_field(s, "store.path")?.filter(|p| !p.is_empty());
            r.store_compact = bool_field(s, "store.compact")?.unwrap_or(false);
        }
        r.fault_plan = str_field(j, "fault_plan")?.unwrap_or_default();
        r.lab_dir = str_field(j, "lab_dir")?;
        r.verbose = bool_field(j, "verbose")?.unwrap_or(false);
        r.validate_thresholds = str_field(j, "validate_thresholds")?
            .map(|t| parse_thresholds(&t))
            .transpose()?;
        // Register files before the grid forms so their names resolve.
        // With no explicit workload list, files *are* the grid: loading
        // a spec and then sweeping something else would be surprising.
        let loaded = register_workload_files(&r.workload_files)?;
        match workloads {
            Some(w) => r.workloads = w,
            None if !loaded.is_empty() => r.workloads = loaded,
            None => {}
        }
        r.validated()
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
        assert_eq!(r.plan("defaults").cells.len(), 105);
        assert!(r.clone().validated().is_ok());
    }

    #[test]
    fn full_request_roundtrips_through_json() {
        let r = SweepRequest::default()
            .with_workloads(&["mst", "health"])
            .with_input(InputSet::Test)
            .with_systems(&[SystemKind::StreamOnly, SystemKind::StreamEcdpThrottled]);
        let r = SweepRequest {
            jobs: Some(2),
            retry: RetryPolicy {
                max_attempts: 5,
                backoff_base_ms: 10,
                deadline_ms: Some(4000),
            },
            store_path: Some("target/results.store".to_string()),
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
    fn request_json_rejects_unknown_fields_and_bad_versions() {
        let parse = |doc: &str| SweepRequest::from_json(&Json::parse(doc).unwrap());
        assert!(parse(r#"{"jbos": 4}"#).unwrap_err().contains("jbos"));
        assert!(parse(r#"{"schema_version": 9}"#)
            .unwrap_err()
            .contains("schema_version 9"));
        // Version-1 documents (pre-`workload_files`) still parse.
        let v1 = parse(r#"{"schema_version": 1, "jobs": 4}"#).unwrap();
        assert_eq!(v1.jobs, Some(4));
        assert!(parse(r#"{"jobs": 0}"#).unwrap_err().contains("jobs"));
        assert!(parse(r#"{"systems": ["warp-drive"]}"#)
            .unwrap_err()
            .contains("warp-drive"));
        assert!(parse(r#"{"fault_plan": "meteor@*"}"#)
            .unwrap_err()
            .contains("fault_plan"));
        for bad in ["1.1,x", "0.2,0.4", "0.2,0.4,0.7,0.9"] {
            let doc = Json::obj([("validate_thresholds", Json::Str(bad.to_string()))]);
            let err = SweepRequest::from_json(&doc).unwrap_err();
            assert!(err.contains("validate_thresholds"), "{bad}: {err}");
        }
        // Nested objects reject typos and wrong shapes too, naming the
        // field path; a checkpoint store needs its directory.
        for (doc, field) in [
            (r#"{"retry": {"atempts": 0}}"#, "retry.atempts"),
            (r#"{"retry": 3}"#, "retry must be an object"),
            (r#"{"store": "x.store"}"#, "store must be an object"),
            (r#"{"store": {"paht": "x.store"}}"#, "store.paht"),
            (r#"{"checkpoint": {"warm_cycles": 100}}"#, "checkpoint.dir"),
            (r#"{"checkpoint": "dir"}"#, "checkpoint must be an object"),
            (r#"{"retry": {"attempts": "x"}}"#, "retry.attempts must be"),
            (r#"{"store": {"compact": 1}}"#, "store.compact must be"),
        ] {
            let err = parse(doc).unwrap_err();
            assert!(err.contains(field), "{doc}: {err}");
        }
        // The trace cache and the hot-path bench baseline are gone;
        // documents that still set them fail the unknown-field check.
        for (doc, field) in [
            (r#"{"trace_cache": "target/traces"}"#, "trace_cache"),
            (r#"{"baseline": "prior-report.json"}"#, "baseline"),
        ] {
            let err = parse(doc).unwrap_err();
            assert!(err.contains(field), "{doc}: {err}");
        }
    }

    fn write_config(tag: &str, text: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("request-{tag}-{}.json", std::process::id()));
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn precedence_is_flags_over_file_over_defaults() {
        let path = write_config("prec", r#"{"input": "test", "jobs": 4}"#);
        let flags = RequestFlags {
            config: Some(path.to_string_lossy().into_owned()),
            jobs: Some(2),
            ..RequestFlags::default()
        };
        let r = SweepRequest::resolve(&flags).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(r.jobs, Some(2), "flag beats file");
        assert_eq!(r.input, InputSet::Test, "file beats default");
        assert_eq!(
            r.systems,
            DEFAULT_SYSTEMS.to_vec(),
            "default fills the rest"
        );
        let flags = RequestFlags {
            config: Some("no/such/request.json".to_string()),
            ..RequestFlags::default()
        };
        let err = SweepRequest::resolve(&flags).unwrap_err();
        assert!(
            err.starts_with("--config \"no/such/request.json\""),
            "{err}"
        );
    }

    #[test]
    fn store_flag_keeps_the_file_compaction() {
        let path = write_config(
            "compact",
            r#"{"store": {"path": "file.store", "compact": true}}"#,
        );
        let flags = RequestFlags {
            config: Some(path.to_string_lossy().into_owned()),
            store: Some("flag.store".to_string()),
            ..RequestFlags::default()
        };
        let r = SweepRequest::resolve(&flags).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(
            r.store_path.as_deref(),
            Some("flag.store"),
            "flag path wins"
        );
        assert!(r.store_compact, "the file's compaction survives the flag");
        let path = write_config("store-string", r#"{"store": "file.store"}"#);
        let flags = RequestFlags {
            config: Some(path.to_string_lossy().into_owned()),
            store: Some("flag.store".to_string()),
            ..RequestFlags::default()
        };
        let err = SweepRequest::resolve(&flags).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("store must be an object"), "{err}");
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
        // The same flags a `run_all --workload-file` command line gives:
        // a workload file and no explicit workload list.
        let dir = std::env::temp_dir();
        let path = dir.join(format!("request-unit-{}.wl", std::process::id()));
        std::fs::write(
            &path,
            "workload req_unit {\n  seed 3;\n  node N { size 8; ptr next @ 4; field v @ 0; }\n\
             \x20 chain c: N { count 5; }\n  traverse c { visit { load v; } }\n}\n",
        )
        .unwrap();
        let file = path.to_string_lossy().into_owned();
        let flags = RequestFlags {
            workload_files: vec![file.clone()],
            ..RequestFlags::default()
        };
        let r = SweepRequest::resolve(&flags).unwrap();
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
        let doc = Json::obj([
            ("workload_files", str_array(&[file])),
            ("workloads", str_array(&["mst".to_string()])),
        ]);
        let r = SweepRequest::from_json(&doc).unwrap();
        assert_eq!(r.workloads, vec!["mst".to_string()]);
        std::fs::remove_file(&path).ok();

        // Unsupported extensions are rejected with the field name.
        let flags = RequestFlags {
            workload_files: vec!["spec.yaml".to_string()],
            ..RequestFlags::default()
        };
        let err = SweepRequest::resolve(&flags).unwrap_err();
        assert!(err.contains("workload_files"), "{err}");
        assert!(err.contains("yaml"), "{err}");
    }
}
