//! Open workload registry: one lookup/enumeration path for built-in
//! kernels and loader-produced specs.
//!
//! Built-ins register at first use under their paper suite tags
//! ([`SUITE_POINTER`], [`SUITE_STREAMING`]); files loaded at runtime via
//! [`register_file`] join under [`SUITE_LOADED`] with a provenance
//! content hash, so manifests, the result store and warm checkpoints can
//! prove two runs used the same bytes. Three file kinds are accepted,
//! dispatched by extension:
//!
//! * `.wl` — workload DSL (may declare several workloads per file);
//! * `.trace` — hand-written text trace (resident);
//! * `.xtrc` — binary external trace, replayed *streaming* — these
//!   entries carry a [`StreamSource`] instead of a generator and must be
//!   run through [`sim_core::Machine::run_streamed`].

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard};

use sim_core::{fnv1a_update, ExternalTrace, Trace, FNV1A_BASIS};

use crate::loader;
use crate::{bio, olden, olden_extra, spec_fp, spec_int, streaming};
use crate::{InputSet, Workload};

/// Suite tag of the paper's 15 pointer-intensive workloads (Table 1 order).
pub const SUITE_POINTER: &str = "pointer";
/// Suite tag of the 12 streaming/compute workloads (§6.7 and multi-core mixes).
pub const SUITE_STREAMING: &str = "streaming";
/// Suite tag of workloads registered from files at runtime.
pub const SUITE_LOADED: &str = "loaded";

/// An external binary trace registered as a workload: replayed by
/// streaming from the file, never generated or fully resident.
#[derive(Debug)]
pub struct StreamSource {
    /// Registry name (sanitized file stem).
    pub name: &'static str,
    /// File the trace streams from.
    pub path: PathBuf,
    /// FNV-1a hash of the file bytes at registration time.
    pub content_hash: u64,
    /// Number of op records.
    pub op_count: usize,
    /// Total instruction count.
    pub instructions: u64,
}

impl StreamSource {
    /// Re-opens the trace for a replay, re-validating the framing and
    /// checking the bytes still match the registered provenance hash.
    ///
    /// # Errors
    ///
    /// A description of the failure (missing/malformed/changed file).
    pub fn open(&self) -> Result<ExternalTrace, String> {
        let xt =
            ExternalTrace::open(&self.path).map_err(|e| format!("{}: {e}", self.path.display()))?;
        if xt.content_hash() != self.content_hash {
            return Err(format!(
                "{}: file changed since registration (content hash {:#018x} != {:#018x})",
                self.path.display(),
                xt.content_hash(),
                self.content_hash
            ));
        }
        Ok(xt)
    }
}

/// A registered workload: either a trace generator (built-in kernel, DSL
/// spec, text trace) or a streamed external trace.
#[derive(Clone)]
pub enum WorkloadHandle {
    /// Generates its trace by functional execution.
    Synthetic {
        /// The generator.
        workload: Arc<dyn Workload + Send + Sync>,
        /// Content hash of the source file, for loaded workloads.
        hash: Option<u64>,
    },
    /// Streams its ops from an external `.xtrc` file.
    Streamed(Arc<StreamSource>),
}

impl WorkloadHandle {
    /// Registry name.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadHandle::Synthetic { workload, .. } => workload.name(),
            WorkloadHandle::Streamed(s) => s.name,
        }
    }

    /// One-line description.
    pub fn describe(&self) -> &'static str {
        match self {
            WorkloadHandle::Synthetic { workload, .. } => workload.describe(),
            WorkloadHandle::Streamed(_) => "external memory-access trace (streamed)",
        }
    }

    /// Pointer-intensity classification (false for streamed traces, whose
    /// structure is unknown).
    pub fn pointer_intensive(&self) -> bool {
        match self {
            WorkloadHandle::Synthetic { workload, .. } => workload.pointer_intensive(),
            WorkloadHandle::Streamed(_) => false,
        }
    }

    /// Provenance content hash — `Some` only for workloads loaded from
    /// files.
    pub fn provenance_hash(&self) -> Option<u64> {
        match self {
            WorkloadHandle::Synthetic { hash, .. } => *hash,
            WorkloadHandle::Streamed(s) => Some(s.content_hash),
        }
    }

    /// True for streamed external traces (no generator; replay with
    /// [`sim_core::Machine::run_streamed`]).
    pub fn is_streamed(&self) -> bool {
        matches!(self, WorkloadHandle::Streamed(_))
    }

    /// The stream source of a streamed handle.
    pub fn stream_source(&self) -> Option<&StreamSource> {
        match self {
            WorkloadHandle::Synthetic { .. } => None,
            WorkloadHandle::Streamed(s) => Some(s),
        }
    }

    /// Generates the trace of a synthetic workload.
    ///
    /// # Panics
    ///
    /// Panics for streamed handles — check [`WorkloadHandle::is_streamed`]
    /// first and use the streaming replay path instead.
    pub fn generate(&self, input: InputSet) -> Trace {
        match self {
            WorkloadHandle::Synthetic { workload, .. } => workload.generate(input),
            WorkloadHandle::Streamed(s) => panic!(
                "workload `{}` is a streamed external trace and cannot be generated; \
                 replay it with Machine::run_streamed",
                s.name
            ),
        }
    }
}

impl std::fmt::Debug for WorkloadHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadHandle")
            .field("name", &self.name())
            .field("streamed", &self.is_streamed())
            .finish()
    }
}

struct Entry {
    suite: &'static str,
    handle: WorkloadHandle,
}

/// The workload registry. Most callers use the module-level functions,
/// which operate on the process-global instance.
pub struct Registry {
    entries: Vec<Entry>,
}

impl Registry {
    /// A registry pre-populated with the built-in suites, in paper order.
    pub fn with_builtins() -> Self {
        fn synth(w: impl Workload + Send + Sync + 'static) -> WorkloadHandle {
            WorkloadHandle::Synthetic {
                workload: Arc::new(w),
                hash: None,
            }
        }
        let pointer: Vec<WorkloadHandle> = vec![
            synth(spec_int::Perlbench),
            synth(spec_int::Gcc),
            synth(spec_int::Mcf),
            synth(spec_int::Astar),
            synth(spec_int::Xalancbmk),
            synth(spec_int::Omnetpp),
            synth(spec_int::Parser),
            synth(spec_fp::Art),
            synth(spec_fp::Ammp),
            synth(olden::Bisort),
            synth(olden::Health),
            synth(olden::Mst),
            synth(olden::Perimeter),
            synth(olden::Voronoi),
            synth(bio::Pfast),
        ];
        let streaming: Vec<WorkloadHandle> = vec![
            synth(streaming::Libquantum),
            synth(streaming::Bwaves),
            synth(streaming::GemsFdtd),
            synth(streaming::H264ref),
            synth(streaming::Hmmer),
            synth(streaming::Lbm),
            synth(streaming::Milc),
            synth(streaming::Sjeng),
            synth(olden_extra::Treeadd),
            synth(olden_extra::Em3d),
            synth(olden_extra::Tsp),
            synth(olden_extra::Power),
        ];
        let mut entries = Vec::new();
        for handle in pointer {
            entries.push(Entry {
                suite: SUITE_POINTER,
                handle,
            });
        }
        for handle in streaming {
            entries.push(Entry {
                suite: SUITE_STREAMING,
                handle,
            });
        }
        Registry { entries }
    }

    /// Looks a workload up by name.
    pub fn lookup(&self, name: &str) -> Option<WorkloadHandle> {
        self.entries
            .iter()
            .find(|e| e.handle.name() == name)
            .map(|e| e.handle.clone())
    }

    /// All registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.handle.name()).collect()
    }

    /// All workloads of a suite, in registration order.
    pub fn suite(&self, tag: &str) -> Vec<WorkloadHandle> {
        self.entries
            .iter()
            .filter(|e| e.suite == tag)
            .map(|e| e.handle.clone())
            .collect()
    }

    /// Registers a handle under a suite tag.
    ///
    /// Re-registering the same name with the same provenance hash is
    /// idempotent; a colliding name with different content is an error.
    ///
    /// # Errors
    ///
    /// A description of the name collision.
    pub fn register(&mut self, suite: &'static str, handle: WorkloadHandle) -> Result<(), String> {
        if let Some(existing) = self
            .entries
            .iter()
            .find(|e| e.handle.name() == handle.name())
        {
            let (old, new) = (existing.handle.provenance_hash(), handle.provenance_hash());
            if old.is_some() && old == new {
                return Ok(());
            }
            return Err(if old.is_none() {
                format!(
                    "workload name `{}` already names a built-in workload",
                    handle.name()
                )
            } else {
                format!(
                    "workload name `{}` is already registered with different content",
                    handle.name()
                )
            });
        }
        self.entries.push(Entry { suite, handle });
        Ok(())
    }

    /// The closest registered name to `name`, if any is close enough to
    /// be a plausible typo (edit distance ≤ 2, or ≤ 3 for names of 8+
    /// characters).
    pub fn suggest(&self, name: &str) -> Option<&'static str> {
        let budget = if name.len() >= 8 { 3 } else { 2 };
        self.entries
            .iter()
            .map(|e| e.handle.name())
            .map(|n| (edit_distance(name, n), n))
            .filter(|&(d, _)| d <= budget)
            .min_by_key(|&(d, _)| d)
            .map(|(_, n)| n)
    }
}

/// Optimal-string-alignment distance: Levenshtein plus adjacent
/// transpositions at cost 1, so `mts` is one step from `mst`.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut rows: Vec<Vec<usize>> = vec![(0..=b.len()).collect()];
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = rows[i][j] + usize::from(ca != cb);
            let mut d = sub.min(rows[i][j + 1] + 1).min(row[j] + 1);
            if i > 0 && j > 0 && ca == b[j - 1] && a[i - 1] == cb {
                d = d.min(rows[i - 1][j - 1] + 1);
            }
            row.push(d);
        }
        rows.push(row);
    }
    rows[a.len()][b.len()]
}

fn global() -> &'static RwLock<Registry> {
    static REGISTRY: OnceLock<RwLock<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(Registry::with_builtins()))
}

fn read() -> RwLockReadGuard<'static, Registry> {
    global().read().expect("workload registry poisoned")
}

/// Looks a workload up by name in the global registry.
pub fn lookup(name: &str) -> Option<WorkloadHandle> {
    read().lookup(name)
}

/// All names in the global registry, in registration order.
pub fn names() -> Vec<&'static str> {
    read().names()
}

/// All workloads of a suite in the global registry.
pub fn suite(tag: &str) -> Vec<WorkloadHandle> {
    read().suite(tag)
}

/// Did-you-mean suggestion from the global registry.
pub fn suggest(name: &str) -> Option<&'static str> {
    read().suggest(name)
}

/// A hand-written text trace registered as a workload: every input set
/// replays the same fixed trace.
struct TextTraceWorkload {
    name: &'static str,
    trace: Trace,
}

impl Workload for TextTraceWorkload {
    fn name(&self) -> &'static str {
        self.name
    }

    fn pointer_intensive(&self) -> bool {
        false
    }

    fn describe(&self) -> &'static str {
        "hand-written text trace"
    }

    fn generate(&self, _input: InputSet) -> Trace {
        Trace {
            initial_memory: self.trace.initial_memory.clone(),
            ops: self.trace.ops.clone(),
            instructions: self.trace.instructions,
        }
    }
}

fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// Registry name derived from a file stem: lowercased, with anything
/// outside `[a-z0-9_-]` replaced by `_`.
fn sanitized_stem(path: &Path) -> Result<String, String> {
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .ok_or_else(|| format!("{}: cannot derive a workload name", path.display()))?;
    let name: String = stem
        .to_lowercase()
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if name.is_empty() {
        return Err(format!("{}: cannot derive a workload name", path.display()));
    }
    Ok(name)
}

/// Loads a workload file into the global registry and returns the names
/// it registered. Dispatches on extension: `.wl` (DSL, possibly several
/// workloads), `.trace` (text trace) or `.xtrc` (streamed binary trace).
/// Re-registering identical content is idempotent.
///
/// # Errors
///
/// I/O failures, parse/validate errors (with line/column for the text
/// formats), unsupported extensions and name collisions — all as
/// ready-to-print strings prefixed with the file path.
pub fn register_file(path: impl AsRef<Path>) -> Result<Vec<String>, String> {
    let path = path.as_ref();
    let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
    let mut registered = Vec::new();
    match ext {
        "wl" => {
            let src = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let hash = fnv1a_update(FNV1A_BASIS, src.as_bytes());
            let specs = loader::load_specs(&src).map_err(|e| format!("{}: {e}", path.display()))?;
            let mut reg = global().write().expect("workload registry poisoned");
            for w in specs {
                let name = w.name().to_string();
                reg.register(
                    SUITE_LOADED,
                    WorkloadHandle::Synthetic {
                        workload: Arc::new(w),
                        hash: Some(hash),
                    },
                )
                .map_err(|e| format!("{}: {e}", path.display()))?;
                registered.push(name);
            }
        }
        "trace" => {
            let src = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let hash = fnv1a_update(FNV1A_BASIS, src.as_bytes());
            let trace =
                loader::parse_trace(&src).map_err(|e| format!("{}: {e}", path.display()))?;
            let name = leak(sanitized_stem(path)?);
            global()
                .write()
                .expect("workload registry poisoned")
                .register(
                    SUITE_LOADED,
                    WorkloadHandle::Synthetic {
                        workload: Arc::new(TextTraceWorkload { name, trace }),
                        hash: Some(hash),
                    },
                )
                .map_err(|e| format!("{}: {e}", path.display()))?;
            registered.push(name.to_string());
        }
        "xtrc" => {
            let xt = ExternalTrace::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
            let name = leak(sanitized_stem(path)?);
            let source = StreamSource {
                name,
                path: path.to_path_buf(),
                content_hash: xt.content_hash(),
                op_count: xt.op_count(),
                instructions: xt.instructions(),
            };
            global()
                .write()
                .expect("workload registry poisoned")
                .register(SUITE_LOADED, WorkloadHandle::Streamed(Arc::new(source)))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            registered.push(name.to_string());
        }
        other => {
            return Err(format!(
                "{}: unsupported workload file extension `{other}` \
                 (expected .wl, .trace or .xtrc)",
                path.display()
            ))
        }
    }
    Ok(registered)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn builtin_suites_keep_paper_counts_and_order() {
        let r = Registry::with_builtins();
        let pointer = r.suite(SUITE_POINTER);
        let streaming = r.suite(SUITE_STREAMING);
        assert_eq!(pointer.len(), 15);
        assert_eq!(streaming.len(), 12);
        assert_eq!(pointer[0].name(), "perlbench");
        assert_eq!(pointer[14].name(), "pfast");
        assert_eq!(streaming[0].name(), "libquantum");
        assert!(pointer.iter().all(|h| h.pointer_intensive()));
        assert!(streaming.iter().all(|h| !h.pointer_intensive()));
        assert!(pointer.iter().all(|h| h.provenance_hash().is_none()));
    }

    #[test]
    fn lookup_and_names_cover_both_suites() {
        let r = Registry::with_builtins();
        assert!(r.lookup("mst").is_some());
        assert!(r.lookup("libquantum").is_some());
        assert!(r.lookup("nonexistent").is_none());
        assert_eq!(r.names().len(), 27);
    }

    #[test]
    fn register_rejects_builtin_collision_but_is_idempotent_for_same_hash() {
        let mut r = Registry::with_builtins();
        let mk = |hash| {
            WorkloadHandle::Streamed(Arc::new(StreamSource {
                name: "custom",
                path: PathBuf::from("/tmp/custom.xtrc"),
                content_hash: hash,
                op_count: 1,
                instructions: 1,
            }))
        };
        let builtin_clash = WorkloadHandle::Streamed(Arc::new(StreamSource {
            name: "mst",
            path: PathBuf::from("/tmp/mst.xtrc"),
            content_hash: 1,
            op_count: 1,
            instructions: 1,
        }));
        assert!(r.register(SUITE_LOADED, builtin_clash).is_err());
        r.register(SUITE_LOADED, mk(7)).unwrap();
        r.register(SUITE_LOADED, mk(7)).unwrap();
        assert!(r.register(SUITE_LOADED, mk(8)).is_err());
        assert_eq!(r.suite(SUITE_LOADED).len(), 1);
    }

    #[test]
    fn suggest_finds_close_names() {
        let r = Registry::with_builtins();
        assert_eq!(r.suggest("mts"), Some("mst"));
        assert_eq!(r.suggest("libquantm"), Some("libquantum"));
        assert_eq!(r.suggest("zzzzzzzz"), None);
    }

    #[test]
    fn streamed_handles_panic_on_generate() {
        let h = WorkloadHandle::Streamed(Arc::new(StreamSource {
            name: "s",
            path: PathBuf::from("/nope"),
            content_hash: 0,
            op_count: 0,
            instructions: 0,
        }));
        assert!(h.is_streamed());
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.generate(InputSet::Test)));
        assert!(err.is_err());
    }
}
