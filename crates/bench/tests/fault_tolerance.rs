//! Fault-tolerance regression tests: panic isolation in the sweep
//! executor, restart from the result store, and the end-to-end behavior
//! of the real `run_all` binary under injected faults.
//!
//! The injected failures come from [`bench::FaultPlan`]: a panic in one
//! cell and a *genuine* engine livelock (circular address dependences
//! through the real watchdog) in another. The acceptance property is
//! that a sweep with both injected still completes every other cell,
//! records two `Failed` manifest entries, exits nonzero — and that a
//! rerun on the same `--store` re-simulates only the two failed cells.

#![allow(clippy::unwrap_used)]

use std::path::PathBuf;
use std::process::Command;

use bench::{
    CheckpointConfig, FaultAction, FaultPlan, Lab, Manifest, ResultStore, RunOutcome, SweepOptions,
    SweepPlan, SweepRequest,
};
use ecdp::system::SystemKind;
use workloads::InputSet;

const WORKLOADS: [&str; 3] = ["mst", "health", "libquantum"];
const SYSTEMS: [SystemKind; 3] = [
    SystemKind::StreamOnly,
    SystemKind::StreamCdp,
    SystemKind::StreamEcdpThrottled,
];

fn plan() -> SweepPlan {
    SweepPlan::cross("fault-smoke", &WORKLOADS, InputSet::Test, &SYSTEMS)
}

/// The two injected failures used throughout: a panic in
/// (mst, test, stream+cdp) and a livelock in (health, test, stream).
fn faults() -> FaultPlan {
    let mut f = FaultPlan::none();
    f.push(FaultAction::Panic, "mst", "test", "stream+cdp");
    f.push(FaultAction::Livelock, "health", "test", "stream");
    f
}

#[test]
fn sweep_isolates_injected_panic_and_livelock() {
    let lab = Lab::with_faults(faults());
    let exec = plan().run_fault_tolerant(&lab, 4, &SweepOptions::default());

    assert_eq!(exec.outcomes.len(), 9, "one outcome per cell");
    assert_eq!(exec.ran, 9);
    assert_eq!(exec.store_hits, 0);
    assert_eq!(exec.failed(), 2, "exactly the two injected cells fail");

    let failure = |workload: &str, system: &str| {
        exec.outcomes
            .iter()
            .filter_map(RunOutcome::failure)
            .find(|f| f.workload == workload && f.system == system)
            .unwrap_or_else(|| panic!("{workload}/{system} must have failed"))
    };
    let panicked = failure("mst", "stream+cdp");
    assert_eq!(panicked.error_kind, "panic");
    assert!(
        panicked.error.contains("injected fault"),
        "{}",
        panicked.error
    );
    let wedged = failure("health", "stream");
    assert_eq!(wedged.error_kind, "deadlock");
    assert!(
        wedged.error.contains("ops retired"),
        "deadlock message must carry the diagnostic snapshot: {}",
        wedged.error
    );

    // Every remaining cell completed normally, in plan order.
    let successes: Vec<_> = exec
        .outcomes
        .iter()
        .filter_map(RunOutcome::success)
        .collect();
    assert_eq!(successes.len(), 7);
    for s in &successes {
        assert!(s.stats.retired_instructions > 0);
    }

    // The mixed result set round-trips through the manifest format.
    let manifest = Manifest {
        name: "fault-smoke".to_string(),
        records: exec.outcomes.clone(),
    };
    let parsed = Manifest::parse(&manifest.to_json().to_string_pretty()).unwrap();
    assert_eq!(parsed, manifest);
}

/// Restart is a store hit: a rerun on the same result store serves the
/// prior successes and simulates only the cells that failed.
#[test]
fn resume_skips_previously_successful_cells() {
    let dir = std::env::temp_dir().join(format!("bench-fault-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store_path = dir.join("results.store");

    // First pass: two injected failures.
    let first = {
        let lab = Lab::with_faults(faults());
        let store = ResultStore::open(&store_path);
        plan().run_fault_tolerant(
            &lab,
            4,
            &SweepOptions {
                store: Some(&store),
                ..SweepOptions::default()
            },
        )
    };
    assert_eq!(first.failed(), 2);

    // Second pass: fresh lab and a reopened store, no faults.
    let lab = Lab::with_faults(FaultPlan::none());
    let store = ResultStore::open(&store_path);
    let exec = plan().run_fault_tolerant(
        &lab,
        4,
        &SweepOptions {
            store: Some(&store),
            ..SweepOptions::default()
        },
    );
    assert_eq!(exec.store_hits, 7, "all prior successes are served");
    assert_eq!(exec.ran, 2, "only the two failed cells re-run");
    assert_eq!(exec.failed(), 0);
    assert_eq!(exec.outcomes.len(), 9, "served cells keep their records");
    assert_eq!(
        lab.records().len(),
        2,
        "the lab only simulated the two previously failed cells"
    );
    // The re-run cells are exactly the previously failed ones.
    let rerun: Vec<_> = lab
        .records()
        .iter()
        .map(|r| (r.workload.clone(), r.system.clone()))
        .collect();
    assert!(rerun.contains(&("mst".to_string(), "stream+cdp".to_string())));
    assert!(rerun.contains(&("health".to_string(), "stream".to_string())));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drives the real `run_all` binary: a fault-injected sweep must
/// complete the healthy cells, write `Failed` records for the injected
/// ones, exit nonzero, and commit the healthy cells to the `--store`,
/// so a rerun on the same store (faults cleared) re-simulates only the
/// failed cells.
#[test]
fn run_all_binary_survives_faults_and_resumes() {
    let lab_dir = std::env::temp_dir().join(format!("bench-fault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&lab_dir);
    std::fs::create_dir_all(&lab_dir).unwrap();

    let config = lab_dir.join("request.json");
    let store_path = lab_dir.join("results.store");
    let run = |fault_plan: Option<&str>| {
        let request = SweepRequest {
            workloads: WORKLOADS.map(String::from).to_vec(),
            input: InputSet::Test,
            systems: SYSTEMS.to_vec(),
            lab_dir: Some(lab_dir.display().to_string()),
            fault_plan: fault_plan.unwrap_or_default().to_string(),
            ..SweepRequest::default()
        };
        std::fs::write(&config, request.to_json().to_string_pretty()).unwrap();
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_run_all"));
        cmd.arg("--sweep")
            .arg("--jobs")
            .arg("4")
            .arg("--config")
            .arg(&config)
            .arg("--store")
            .arg(&store_path);
        cmd.output().expect("run_all spawns")
    };
    let manifest_path = lab_dir.join("run_all.json");
    let load = |path: &PathBuf| {
        Manifest::parse(&std::fs::read_to_string(path).unwrap()).expect("manifest parses")
    };

    // Pass 1: injected panic + livelock → nonzero exit, mixed manifest.
    let out = run(Some(
        "panic@mst:test:stream+cdp;livelock@health:test:stream",
    ));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "injected faults must fail the run\n{stderr}"
    );
    assert!(
        stderr.contains("9 ran, 2 failed"),
        "unexpected sweep summary:\n{stderr}"
    );
    let manifest = load(&manifest_path);
    assert_eq!(manifest.records.len(), 9, "every cell has a record");
    assert_eq!(manifest.failures().count(), 2);
    assert_eq!(manifest.successes().count(), 7);
    let kinds: Vec<_> = manifest.failures().map(|f| f.error_kind.clone()).collect();
    assert!(kinds.contains(&"panic".to_string()), "{kinds:?}");
    assert!(kinds.contains(&"deadlock".to_string()), "{kinds:?}");

    // Pass 2: faults cleared, same store → only the two failed cells
    // re-run, exit zero, fully successful manifest.
    let out = run(None);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "restart pass must succeed\n{stderr}");
    assert!(
        stderr.contains("2 ran, 0 failed"),
        "restart must re-run only the failed cells:\n{stderr}"
    );
    assert!(
        stderr.contains("result store served 7 cell(s)"),
        "the prior successes come from the store:\n{stderr}"
    );
    let manifest = load(&manifest_path);
    assert_eq!(manifest.records.len(), 9);
    assert_eq!(manifest.failures().count(), 0);
    assert_eq!(manifest.successes().count(), 9);

    let _ = std::fs::remove_dir_all(&lab_dir);
}

/// A corrupted on-disk warm checkpoint is a *recoverable* per-cell
/// event, not a sweep failure: the injected `corrupt-checkpoint` fault
/// flips a byte of one cell's checkpoint before it is parsed, the real
/// CRC check rejects it, and the sweep still completes every cell with
/// zero failures — the corrupted cell falls back cold and records a
/// `fallback:` disposition in its manifest record.
#[test]
fn sweep_treats_corrupt_checkpoint_as_recoverable() {
    let dir = std::env::temp_dir().join(format!("bench-ckpt-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cp = CheckpointConfig::new(&dir, 50_000);

    // Pass 1: clean checkpoint-enabled lab populates the store.
    let seed_lab = Lab::with_checkpoints(FaultPlan::none(), Some(cp.clone()));
    let seeded = plan().run_fault_tolerant(&seed_lab, 4, &SweepOptions::default());
    assert_eq!(seeded.failed(), 0);
    for r in seed_lab.records() {
        assert_eq!(r.checkpoint.as_deref(), Some("created"), "{}", r.workload);
    }

    // Pass 2: fresh lab, same store, one cell's checkpoint corrupted.
    let mut faults = FaultPlan::none();
    faults.push(FaultAction::CorruptCheckpoint, "mst", "test", "stream+cdp");
    let lab = Lab::with_checkpoints(faults, Some(cp));
    let exec = plan().run_fault_tolerant(&lab, 4, &SweepOptions::default());
    assert_eq!(exec.ran, 9, "every cell still runs");
    assert_eq!(exec.failed(), 0, "checkpoint corruption never fails a cell");

    let records = lab.records();
    assert_eq!(records.len(), 9);
    for r in &records {
        let disposition = r.checkpoint.as_deref().unwrap();
        if r.workload == "mst" && r.system == "stream+cdp" {
            assert!(
                disposition.starts_with("fallback:") && disposition.contains("CRC"),
                "corrupted cell must fall back via the CRC check: {disposition:?}"
            );
        } else {
            assert_eq!(disposition, "forked", "{} {}", r.workload, r.system);
        }
    }

    // The fallback run is bit-identical to the clean pass, and the
    // manifest round-trips the dispositions.
    let clean = seed_lab.records();
    for (a, b) in clean.iter().zip(&records) {
        assert_eq!(a.sort_key(), b.sort_key());
        assert!(a.same_metrics(b), "{} {} diverged", a.workload, a.system);
    }
    let manifest = Manifest {
        name: "ckpt-sweep".to_string(),
        records: records.into_iter().map(RunOutcome::Success).collect(),
    };
    let parsed = Manifest::parse(&manifest.to_json().to_string_pretty()).unwrap();
    assert_eq!(parsed, manifest);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Malformed command lines must be rejected with a usage error (exit 2)
/// instead of being silently reinterpreted.
#[test]
fn run_all_binary_rejects_malformed_arguments() {
    for args in [
        vec!["--jobs"],
        vec!["--jobs", "many"],
        vec!["--jobs", "0"],
        vec!["--filter"],
        vec!["--no-such-flag"],
        vec!["a.md", "b.md"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
            .args(&args)
            .output()
            .expect("run_all spawns");
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?} must exit 2 (usage): {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "args {args:?} must print usage"
        );
    }
}
