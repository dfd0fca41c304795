//! Chaos fault campaign: I/O faults through the result store's write
//! layer, the cell supervisor's retry/deadline semantics, and a
//! kill-and-restart harness that SIGKILLs the real `run_all` binary
//! mid-sweep.
//!
//! Acceptance properties (mirroring the store's design contract):
//!
//! * an injected store-fault campaign loses **zero** results in memory —
//!   the sweep completes every cell with stats byte-identical to a
//!   fault-free run — and the follow-up sweep heals every damaged
//!   record back into the store with zero duplicated cells;
//! * a transient (deadline-overrun) cell retries with deterministic
//!   backoff and lands as a success carrying its attempt history;
//!   permanent failures fail fast without retries;
//! * a `run_all` process killed at randomized points mid-sweep and
//!   rerun on the same `--store` finishes with a manifest byte-identical
//!   (modulo wall-clock) to an uninterrupted run, with every cell
//!   committed to the store exactly once.

#![allow(clippy::unwrap_used)]

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

use bench::{
    FaultPlan, Lab, Manifest, ResultStore, RetryInfo, RetryPolicy, RunOutcome, RunRecord,
    SweepOptions, SweepPlan, SweepRequest,
};
use ecdp::system::SystemKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::InputSet;

const WORKLOADS: [&str; 3] = ["mst", "health", "libquantum"];
const SYSTEMS: [SystemKind; 3] = [
    SystemKind::StreamOnly,
    SystemKind::StreamCdp,
    SystemKind::StreamEcdpThrottled,
];

fn plan() -> SweepPlan {
    SweepPlan::cross("chaos-smoke", &WORKLOADS, InputSet::Test, &SYSTEMS)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ecdp-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Success records of an execution, sorted by cell identity.
fn sorted_records(outcomes: &[RunOutcome]) -> Vec<RunRecord> {
    let mut records: Vec<RunRecord> = outcomes
        .iter()
        .filter_map(RunOutcome::success)
        .cloned()
        .collect();
    records.sort_by_key(RunRecord::sort_key);
    records
}

/// Asserts two record sets cover the same cells with byte-identical
/// deterministic metrics.
fn assert_same_results(golden: &[RunRecord], other: &[RunRecord]) {
    assert_eq!(golden.len(), other.len(), "cell coverage differs");
    for (g, o) in golden.iter().zip(other) {
        assert_eq!(g.sort_key(), o.sort_key(), "cell order differs");
        assert!(
            g.same_metrics(o),
            "{} {} {} diverged from the fault-free run",
            o.workload,
            o.input,
            o.system
        );
    }
}

/// The full I/O fault campaign, in process: every store-fault action
/// fires on some cell, the sweep loses nothing, and the next sweep
/// heals the store back to full coverage.
#[test]
fn store_fault_campaign_loses_nothing_and_heals() {
    let dir = scratch("campaign");
    let path = dir.join("results.store");

    // Fault-free golden run.
    let golden_exec = plan().run_fault_tolerant(&Lab::new(), 4, &SweepOptions::default());
    assert_eq!(golden_exec.failed(), 0);
    let golden = sorted_records(&golden_exec.outcomes);
    assert_eq!(golden.len(), 9);

    // Campaign pass: jobs=1 keeps appends in plan order, so torn-write
    // on the *last* cell cannot degrade earlier appends. Every store
    // fault is exercised: silent short write, in-place corruption, a
    // store-side stall, and a torn write that degrades the store.
    let faults = FaultPlan::parse(
        "corrupt-record@mst:test:stream;\
         short-write@health:test:stream+cdp;\
         stall@health:test:stream=30;\
         torn-write@libquantum:test:stream+ecdp+throttle",
    )
    .unwrap();
    let store = ResultStore::open(&path);
    let exec = plan().run_fault_tolerant(
        &Lab::with_faults(faults),
        1,
        &SweepOptions {
            store: Some(&store),
            ..SweepOptions::default()
        },
    );
    assert_eq!(exec.failed(), 0, "store faults never fail a cell");
    assert_eq!(exec.ran, 9);
    assert_eq!(exec.store_hits, 0);
    let records = sorted_records(&exec.outcomes);
    assert_same_results(&golden, &records);
    // In-memory store kept everything despite the degradation.
    assert_eq!(store.len(), 9, "zero lost results in memory");
    assert!(store.degraded().is_some(), "the torn write degraded it");
    // Dispositions record what the write layer actually did.
    let disposition = |workload: &str, system: &str| {
        records
            .iter()
            .find(|r| r.workload == workload && r.system == system)
            .and_then(|r| r.store.clone())
            .unwrap()
    };
    assert_eq!(disposition("mst", "stream"), "appended");
    assert_eq!(disposition("health", "stream+cdp"), "appended", "silent");
    assert!(
        disposition("libquantum", "stream+ecdp+throttle").starts_with("degraded:"),
        "torn write must surface in the manifest"
    );
    drop(store);

    // Reopen: recovery quarantines the corrupt + short-written records
    // and truncates the torn tail; 6 of 9 cells survive on disk.
    let store = ResultStore::open(&path);
    let recovery = store.recovery();
    assert!(recovery.quarantined() >= 2, "{recovery:?}");
    assert!(recovery.healed);
    assert_eq!(store.len(), 6, "{recovery:?}");

    // Heal pass: a fault-free sweep serves the survivors from the store
    // and re-simulates exactly the damaged cells.
    let exec = plan().run_fault_tolerant(
        &Lab::new(),
        4,
        &SweepOptions {
            store: Some(&store),
            ..SweepOptions::default()
        },
    );
    assert_eq!(exec.failed(), 0);
    assert_eq!(exec.store_hits, 6, "survivors are served, not re-run");
    assert_eq!(exec.ran, 3, "only the damaged cells re-simulate");
    assert_same_results(&golden, &sorted_records(&exec.outcomes));
    assert_eq!(store.len(), 9, "healed back to full coverage");
    let hits = exec
        .outcomes
        .iter()
        .filter_map(RunOutcome::success)
        .filter(|r| r.store.as_deref() == Some("hit"))
        .count();
    assert_eq!(hits, 6);
    drop(store);

    // Third open: the heal left a clean, complete log behind.
    let store = ResultStore::open(&path);
    assert!(store.recovery().is_clean());
    assert_eq!(store.len(), 9, "zero duplicated cells");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A deadline-overrunning (transient) cell retries under the supervisor
/// with deterministic backoff and lands as a success carrying its
/// attempt history; the history round-trips through the manifest.
#[test]
fn transient_deadline_retry_lands_with_attempt_history() {
    let mut single = SweepPlan::new("chaos-retry");
    single.push("mst", InputSet::Test, SystemKind::StreamOnly);

    // Golden stats for the same cell, no faults.
    let golden_exec = single.run_fault_tolerant(&Lab::new(), 1, &SweepOptions::default());
    let golden = sorted_records(&golden_exec.outcomes);

    // Attempt 1 sleeps past the deadline and dies; the x1 cap clears the
    // fault so attempt 2 runs clean. The deadline is derived from the
    // clean cell's measured simulation time, so the clean retry fits on
    // any host, and the injected sleep always outlasts it. The deadline
    // covers the whole attempt including trace/profile warm-up, so warm
    // those caches through an unfaulted sibling system first — the
    // supervised attempts then measure only the injected sleep and the
    // simulation.
    let deadline_ms = ((golden[0].wall_ms * 4.0).ceil() as u64).max(120);
    let sleep_ms = deadline_ms * 2;
    let faults = FaultPlan::parse(&format!("slow@mst:test:stream={sleep_ms}x1")).unwrap();
    let lab = Lab::with_faults(faults);
    lab.run_on("mst", InputSet::Test, SystemKind::StreamCdp);
    let exec = single.run_fault_tolerant(
        &lab,
        1,
        &SweepOptions {
            retry: RetryPolicy {
                max_attempts: 3,
                backoff_base_ms: 10,
                deadline_ms: Some(deadline_ms),
            },
            ..SweepOptions::default()
        },
    );
    assert_eq!(exec.failed(), 0, "the retry must land");
    let records = sorted_records(&exec.outcomes);
    assert_same_results(&golden, &records);
    assert_eq!(
        records[0].retry,
        Some(RetryInfo {
            attempts: 2,
            attempt_errors: vec!["deadline:transient".to_string()],
            total_backoff_ms: 10,
        }),
        "the success carries its attempt history"
    );

    // The attempt history survives the manifest round trip.
    let manifest = Manifest {
        name: "chaos-retry".to_string(),
        records: exec.outcomes,
    };
    let parsed = Manifest::parse(&manifest.to_json().to_string_pretty()).unwrap();
    assert_eq!(parsed, manifest);
}

/// Exhausted transients fail with the full attempt history; permanent
/// failures never retry.
#[test]
fn exhausted_and_permanent_failures_record_their_attempts() {
    let mut single = SweepPlan::new("chaos-exhaust");
    single.push("mst", InputSet::Test, SystemKind::StreamOnly);

    // Uncapped slowdown: every attempt overruns the deadline.
    let faults = FaultPlan::parse("slow@mst:test:stream=400").unwrap();
    let exec = single.run_fault_tolerant(
        &Lab::with_faults(faults),
        1,
        &SweepOptions {
            retry: RetryPolicy {
                max_attempts: 2,
                backoff_base_ms: 5,
                deadline_ms: Some(100),
            },
            ..SweepOptions::default()
        },
    );
    assert_eq!(exec.failed(), 1);
    let failure = exec.outcomes[0].failure().unwrap();
    assert_eq!(failure.error_kind, "deadline");
    assert_eq!(
        failure.retry,
        Some(RetryInfo {
            attempts: 2,
            attempt_errors: vec![
                "deadline:transient".to_string(),
                "deadline:transient".to_string()
            ],
            total_backoff_ms: 5,
        }),
        "both attempts and the single backoff are recorded"
    );

    // A permanent failure (panic) burns exactly one attempt.
    let faults = FaultPlan::parse("panic@mst:test:stream").unwrap();
    let exec = single.run_fault_tolerant(
        &Lab::with_faults(faults),
        1,
        &SweepOptions {
            retry: RetryPolicy {
                max_attempts: 3,
                backoff_base_ms: 5,
                deadline_ms: None,
            },
            ..SweepOptions::default()
        },
    );
    assert_eq!(exec.failed(), 1);
    let failure = exec.outcomes[0].failure().unwrap();
    assert_eq!(failure.error_kind, "panic");
    assert_eq!(
        failure.retry,
        Some(RetryInfo {
            attempts: 1,
            attempt_errors: vec!["panic:permanent".to_string()],
            total_backoff_ms: 0,
        }),
        "permanent failures never retry"
    );

    // The backoff schedule itself is deterministic and jitter-free.
    let policy = RetryPolicy {
        max_attempts: 5,
        backoff_base_ms: 10,
        deadline_ms: None,
    };
    assert_eq!(
        (1..=4).map(|a| policy.backoff_ms(a)).collect::<Vec<_>>(),
        vec![10, 20, 40, 80]
    );
}

/// Kill-and-restart harness against the real binary: SIGKILL `run_all`
/// mid-sweep at seeded random points, then let a final run on the same
/// store heal. Its manifest must match an uninterrupted run
/// cell-for-cell with byte-identical stats, and the store must hold
/// each cell exactly once.
#[test]
fn run_all_binary_survives_sigkill_and_heals_to_identical_results() {
    let golden_dir = scratch("kill-golden");
    let chaos_dir = scratch("kill-chaos");
    let store_path = chaos_dir.join("results.store");

    // Each run writes its request into its lab dir; the runs of one dir
    // are sequential, so rewriting the file between them is safe.
    let base_cmd = |lab_dir: &PathBuf, fault_plan: Option<&str>, store_compact: bool| {
        let config = lab_dir.join("request.json");
        let request = SweepRequest {
            workloads: WORKLOADS.map(String::from).to_vec(),
            input: InputSet::Test,
            systems: SYSTEMS.to_vec(),
            lab_dir: Some(lab_dir.display().to_string()),
            fault_plan: fault_plan.unwrap_or_default().to_string(),
            store_compact,
            ..SweepRequest::default()
        };
        std::fs::write(&config, request.to_json().to_string_pretty()).unwrap();
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_run_all"));
        cmd.arg("--sweep")
            .arg("--jobs")
            .arg("2")
            .arg("--config")
            .arg(config);
        cmd
    };

    // Uninterrupted golden run (no store, no faults).
    let out = base_cmd(&golden_dir, None, false).output().unwrap();
    assert!(
        out.status.success(),
        "golden run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden =
        Manifest::parse(&std::fs::read_to_string(golden_dir.join("run_all.json")).unwrap())
            .unwrap();
    assert_eq!(golden.successes().count(), 9);
    let mut golden_records: Vec<RunRecord> = golden.successes().cloned().collect();
    golden_records.sort_by_key(RunRecord::sort_key);

    // Kill pass: a wildcard slowdown stretches every cell's wall time
    // (without touching its simulated stats) so seeded kill points land
    // mid-sweep. Each round restarts from whatever the previous kill
    // left behind in the store — committed cells and possibly a torn
    // tail.
    let mut rng = StdRng::seed_from_u64(0xC4A05);
    for round in 0..3 {
        let mut child = base_cmd(&chaos_dir, Some("slow@*=150"), false)
            .arg("--store")
            .arg(&store_path)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        let delay = rng.gen_range(80u64..600);
        std::thread::sleep(Duration::from_millis(delay));
        // SIGKILL: no destructors, no atexit — a genuine crash.
        let _ = child.kill();
        let _ = child.wait();
        eprintln!("[chaos] round {round}: killed after {delay} ms");
    }

    // Final run: no kill. It must recover the store, serve the
    // committed cells, and finish every remaining cell.
    let out = base_cmd(&chaos_dir, Some("slow@*=150"), false)
        .arg("--store")
        .arg(&store_path)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "healing run failed:\n{stderr}");
    assert!(stderr.contains("0 failed"), "{stderr}");

    let healed =
        Manifest::parse(&std::fs::read_to_string(chaos_dir.join("run_all.json")).unwrap()).unwrap();
    assert_eq!(healed.records.len(), 9, "one record per cell, no dups");
    assert_eq!(healed.failures().count(), 0);
    let mut healed_records: Vec<RunRecord> = healed.successes().cloned().collect();
    healed_records.sort_by_key(RunRecord::sort_key);
    assert_same_results(&golden_records, &healed_records);

    // The store holds each cell exactly once, and the kill damage has
    // been healed away.
    let store = ResultStore::open(&store_path);
    assert_eq!(store.len(), 9, "zero lost, zero duplicated cells");
    assert!(store.recovery().is_clean(), "{:?}", store.recovery());
    drop(store);

    // The heal-report artifact exists and reflects the final state.
    let report_path = format!("{}.report.json", store_path.display());
    let report = sim_core::Json::parse(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
    assert_eq!(
        report.get("entries").and_then(sim_core::Json::as_u64),
        Some(9),
        "report artifact must carry the committed-cell count"
    );

    // One more pass, store-served end to end with compaction: every
    // cell comes from the store without simulation.
    let out = base_cmd(&chaos_dir, None, true)
        .arg("--store")
        .arg(&store_path)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("result store served 9 cell(s)"), "{stderr}");
    assert!(stderr.contains("store compacted"), "{stderr}");
    assert!(stderr.contains("0 ran, 0 failed"), "{stderr}");

    let _ = std::fs::remove_dir_all(&golden_dir);
    let _ = std::fs::remove_dir_all(&chaos_dir);
}
