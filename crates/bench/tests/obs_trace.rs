//! Observability-layer integration tests: the golden interval time
//! series for the smoke workload, byte-identical trace artifacts at any
//! worker-thread count, schema validation of the `obs.jsonl` the real
//! `run_all --trace-dir` binary emits, a deterministic Table 3 case
//! sequence across runs, and the `--filter`-matches-nothing usage error.
//!
//! To regenerate the golden time series after an *intentional*
//! behaviour change:
//!
//! ```sh
//! BENCH_UPDATE_GOLDEN=1 cargo test -p bench --test obs_trace
//! ```

#![allow(clippy::unwrap_used)]

use std::path::{Path, PathBuf};
use std::process::Command;

use bench::{Attempt, Lab, Manifest, SweepOptions, SweepPlan};
use ecdp::system::{CompilerArtifacts, SystemBuilder, SystemKind, SystemSpec};
use sim_core::{Json, MachineConfig, ObsConfig, ThrottleDecision};
use workloads::{registry, InputSet};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/smoke_timeseries.json")
}

/// Temp dir unique to this test process, cleaned by the caller.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Structural JSON comparison: integers exact, floats at 1e-9 relative
/// tolerance (they round-trip through the text format).
fn assert_json_close(golden: &Json, got: &Json, path: &str) {
    match (golden, got) {
        (Json::Num(a), Json::Num(b)) => {
            let tol = 1e-9 * a.abs().max(b.abs()).max(1.0);
            assert!(
                (a - b).abs() <= tol,
                "{path}: drifted from golden {a} to {b}"
            );
        }
        (Json::Arr(a), Json::Arr(b)) => {
            assert_eq!(a.len(), b.len(), "{path}: array length");
            for (i, (ga, gb)) in a.iter().zip(b).enumerate() {
                assert_json_close(ga, gb, &format!("{path}[{i}]"));
            }
        }
        (Json::Obj(a), Json::Obj(b)) => {
            assert_eq!(
                a.iter().map(|(k, _)| k).collect::<Vec<_>>(),
                b.iter().map(|(k, _)| k).collect::<Vec<_>>(),
                "{path}: object keys"
            );
            for ((k, ga), (_, gb)) in a.iter().zip(b) {
                assert_json_close(ga, gb, &format!("{path}.{k}"));
            }
        }
        _ => assert_eq!(golden, got, "{path}"),
    }
}

/// The interval time series of the smoke workload must reproduce the
/// checked-in snapshot: this pins the sampler itself (deltas, IPC, bus
/// occupancy, per-prefetcher slices) the way `tests/golden/smoke.json`
/// pins end-of-run aggregates. `mst` on the hybrid stream+CDP system is
/// the one smoke cell whose test input spans several default-size
/// intervals.
#[test]
fn smoke_timeseries_matches_golden_snapshot() {
    let lab = Lab::new();
    let traced = Attempt {
        traced: true,
        ..Attempt::FIRST
    };
    let spec = SystemSpec::of(SystemKind::StreamCdp);
    let (stats, trace) = lab
        .try_run("mst", InputSet::Test, &spec, traced)
        .expect("smoke cell runs");
    let trace = trace.expect("a traced attempt returns its trace");
    assert_eq!(
        trace.samples.len() as u64,
        stats.intervals,
        "one sample per completed interval"
    );
    assert!(
        !trace.samples.is_empty(),
        "the smoke cell must span at least one interval for the golden \
         comparison to mean anything"
    );
    let doc = trace.timeseries_json();

    let path = golden_path();
    if std::env::var_os("BENCH_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, doc.to_string_pretty()).unwrap();
        eprintln!("updated golden time series at {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden time series {} ({e}); run with BENCH_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    let golden = Json::parse(&text).expect("golden time series parses");
    assert_json_close(&golden, &doc, "timeseries");
}

/// Traced sweeps must emit byte-identical artifacts at any worker-thread
/// count: the 1-job and 4-job runs of the same plan produce the same
/// `timeseries.json` and `obs.jsonl` for every cell.
#[test]
fn traced_artifacts_are_identical_at_any_thread_count() {
    let plan = || {
        SweepPlan::cross(
            "obs-det",
            &["mst", "health", "libquantum"],
            InputSet::Test,
            &[SystemKind::StreamCdp, SystemKind::StreamEcdpThrottled],
        )
    };
    let run = |dir: &Path, jobs: usize| {
        // Fresh lab each time so nothing is shared between the two runs.
        let exec = plan().run_fault_tolerant(
            &Lab::new(),
            jobs,
            &SweepOptions {
                trace_dir: Some(dir),
                ..SweepOptions::default()
            },
        );
        assert_eq!(exec.failed(), 0);
    };
    let base = scratch("det");
    let (d1, d4) = (base.join("j1"), base.join("j4"));
    run(&d1, 1);
    run(&d4, 4);

    for cell in &plan().cells {
        let rel = format!(
            "{}-{}-{}",
            cell.workload,
            cell.input_label(),
            cell.system.label()
        );
        for file in ["timeseries.json", "obs.jsonl"] {
            let a = std::fs::read(d1.join(&rel).join(file)).unwrap();
            let b = std::fs::read(d4.join(&rel).join(file)).unwrap();
            assert_eq!(a, b, "{rel}/{file} differs between 1 and 4 jobs");
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// Validates one `obs.jsonl` document against schema v1: a leading
/// `meta` line, `throttle`/`lifecycle` event lines, and a trailing
/// `summary` whose counts match the document.
fn validate_obs_jsonl(text: &str) {
    let lines: Vec<Json> = text
        .lines()
        .enumerate()
        .map(|(i, l)| Json::parse(l).unwrap_or_else(|e| panic!("line {}: {e}: {l}", i + 1)))
        .collect();
    assert!(lines.len() >= 2, "at least meta + summary");

    let field = |j: &Json, k: &str| -> Json {
        j.get(k)
            .unwrap_or_else(|| panic!("missing field {k:?} in {}", j.to_string_compact()))
            .clone()
    };
    let num = |j: &Json, k: &str| -> f64 {
        field(j, k)
            .as_f64()
            .unwrap_or_else(|| panic!("{k} not a number"))
    };
    let int = |j: &Json, k: &str| -> u64 {
        field(j, k)
            .as_u64()
            .unwrap_or_else(|| panic!("{k} not an integer"))
    };
    let s = |j: &Json, k: &str| -> String {
        field(j, k)
            .as_str()
            .unwrap_or_else(|| panic!("{k} not a string"))
            .to_string()
    };

    let meta = &lines[0];
    assert_eq!(s(meta, "type"), "meta");
    assert_eq!(int(meta, "schema_version"), sim_core::OBS_SCHEMA_VERSION);
    for k in ["workload", "input", "system", "config_hash"] {
        assert!(!s(meta, k).is_empty(), "meta.{k} must be non-empty");
    }

    let mut throttles = 0u64;
    let mut lifecycles = 0u64;
    for line in &lines[1..lines.len() - 1] {
        match s(line, "type").as_str() {
            "throttle" => {
                throttles += 1;
                int(line, "interval");
                assert!(int(line, "prefetcher") < 8);
                assert!(int(line, "case") <= 5, "Table 3 has five cases");
                for k in ["accuracy", "coverage", "rival_coverage"] {
                    let v = num(line, k);
                    assert!((0.0..=1.0).contains(&v), "{k}={v} out of range");
                }
                assert!(
                    ["up", "down", "keep"].contains(&s(line, "decision").as_str()),
                    "bad decision"
                );
                for k in ["from_level", "to_level"] {
                    assert!((1..=4).contains(&int(line, k)), "{k} out of range");
                }
            }
            "lifecycle" => {
                lifecycles += 1;
                int(line, "cycle");
                assert!(
                    ["issued", "filled", "used", "evicted"].contains(&s(line, "stage").as_str()),
                    "bad stage"
                );
                int(line, "addr");
                assert!(matches!(field(line, "late"), Json::Bool(_)));
            }
            other => panic!("unexpected event type {other:?}"),
        }
    }

    let summary = lines.last().unwrap();
    assert_eq!(s(summary, "type"), "summary");
    assert_eq!(int(summary, "transitions"), throttles);
    assert_eq!(int(summary, "lifecycle_events"), lifecycles);
    int(summary, "intervals");
    int(summary, "transitions_dropped");
    int(summary, "lifecycle_dropped");
}

/// Drives the real `run_all` binary with `--trace-dir`: the smoke cell
/// must emit a schema-valid `obs.jsonl` plus a `timeseries.json` with no
/// temp file left beside them, and the manifest must record both
/// artifact paths. This is the check the CI trace job runs.
#[test]
fn run_all_trace_dir_emits_schema_valid_artifacts() {
    let base = scratch("cli");
    let trace_dir = base.join("traces");
    let config = base.join("request.json");
    std::fs::write(
        &config,
        format!(
            r#"{{"workloads":["mst"],"systems":["stream+cdp"],"input":"test","lab_dir":{:?}}}"#,
            base.display().to_string()
        ),
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["--sweep", "--jobs", "2", "--trace-dir"])
        .arg(&trace_dir)
        .arg("--config")
        .arg(&config)
        .output()
        .expect("run_all spawns");
    assert!(
        out.status.success(),
        "traced sweep must succeed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let cell = trace_dir.join("mst-test-stream+cdp");
    // Both artifacts are replaced atomically: no temp file stays beside them.
    let mut files: Vec<String> = std::fs::read_dir(&cell)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert_eq!(files, ["obs.jsonl", "timeseries.json"]);
    let jsonl = std::fs::read_to_string(cell.join("obs.jsonl")).expect("obs.jsonl written");
    validate_obs_jsonl(&jsonl);
    let ts = Json::parse(&std::fs::read_to_string(cell.join("timeseries.json")).unwrap())
        .expect("timeseries.json parses");
    assert_eq!(
        ts.get("schema_version").and_then(Json::as_u64),
        Some(sim_core::OBS_SCHEMA_VERSION)
    );
    assert!(
        !ts.get("intervals")
            .and_then(Json::as_arr)
            .unwrap()
            .is_empty(),
        "the smoke cell spans at least one interval"
    );

    // The manifest's success record carries the artifact paths.
    let manifest =
        Manifest::parse(&std::fs::read_to_string(base.join("run_all.json")).unwrap()).unwrap();
    let record = manifest.successes().next().expect("one success record");
    assert_eq!(
        record.timeseries_path.as_deref(),
        cell.join("timeseries.json").to_str()
    );
    assert_eq!(record.obs_path.as_deref(), cell.join("obs.jsonl").to_str());
    let _ = std::fs::remove_dir_all(&base);
}

/// The coordinated throttle's Table 3 case sequence must be identical
/// across independent runs, and every recorded transition must be
/// self-consistent: a valid case number, a decision matching that case's
/// column in Table 3, and a level step matching the decision.
#[test]
fn table3_case_sequence_is_deterministic_and_self_consistent() {
    let t = registry::lookup("mst").unwrap().generate(InputSet::Test);
    let artifacts = CompilerArtifacts::empty();
    // Shrink the L2 and interval so the short test input spans many
    // sampling intervals (same knobs as the sim-core obs tests).
    let mut cfg = MachineConfig::default();
    cfg.l2.bytes = 64 * 1024;
    cfg.interval_evictions = 128;
    let run = || {
        SystemBuilder::new(SystemKind::StreamEcdpThrottled)
            .artifacts(&artifacts)
            .config(cfg.clone())
            .observe(ObsConfig::enabled())
            .run(&t)
            .expect("run")
            .trace
            .expect("trace requested")
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "traces must be identical across runs");
    assert!(
        !a.transitions.is_empty(),
        "the throttled run must record transitions"
    );
    for tr in &a.transitions {
        assert!((1..=5).contains(&tr.case), "Table 3 case out of range");
        let expected = match tr.case {
            1 | 3 => ThrottleDecision::Up,
            2 | 4 => ThrottleDecision::Down,
            _ => ThrottleDecision::Keep,
        };
        assert_eq!(
            tr.decision, expected,
            "case {} decided {:?} at interval {}",
            tr.case, tr.decision, tr.interval
        );
        // The level steps by at most one in the decision's direction
        // (equal on saturation or Keep).
        let (from, to) = (tr.from_level.index(), tr.to_level.index());
        match tr.decision {
            ThrottleDecision::Up => assert!(to == from + 1 || (to == from && from == 3)),
            ThrottleDecision::Down => assert!(to + 1 == from || (to == from && from == 0)),
            ThrottleDecision::Keep => assert_eq!(to, from),
        }
    }
}

/// `--filter` matching no sweep cell is a usage error (exit 2), not a
/// silent empty-manifest success.
#[test]
fn run_all_filter_matching_no_cells_exits_2() {
    let base = scratch("nomatch");
    let config = base.join("request.json");
    std::fs::write(
        &config,
        r#"{"workloads":["mst"],"systems":["stream"],"input":"test"}"#,
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["--sweep", "--filter", "no-such-cell-zzz", "--config"])
        .arg(&config)
        .output()
        .expect("run_all spawns");
    let _ = std::fs::remove_dir_all(&base);
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no cells matched"),
        "must say why it refused: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
