//! Golden-stats regression test: a small fixed sweep through the
//! parallel executor must reproduce the checked-in snapshot in
//! `tests/golden/smoke.json` (repo root) within tight tolerances.
//!
//! The simulator is fully deterministic, so integer counters must match
//! exactly; derived floats (IPC, BPKI, accuracy, coverage) are compared
//! at 1e-9 relative tolerance to allow for their round-trip through the
//! JSON text format.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```sh
//! BENCH_UPDATE_GOLDEN=1 cargo test -p bench --test golden_stats
//! ```

#![allow(clippy::unwrap_used)]

use std::path::PathBuf;

use bench::{
    CheckpointConfig, FailureRecord, FaultAction, FaultPlan, Lab, Manifest, ResultStore,
    RunOutcome, RunRecord, SweepOptions, SweepPlan,
};
use ecdp::system::{SystemKind, SystemSpec};
use workloads::InputSet;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/smoke.json")
}

/// The pinned sweep: three contrasting workloads (CDP-hostile `mst`,
/// CDP-friendly `health`, streaming `libquantum`) across the baseline,
/// unfiltered CDP and the full proposal.
fn golden_plan() -> SweepPlan {
    SweepPlan::cross(
        "golden-smoke",
        &["mst", "health", "libquantum"],
        InputSet::Test,
        &[
            SystemKind::StreamOnly,
            SystemKind::StreamCdp,
            SystemKind::StreamEcdpThrottled,
        ],
    )
}

/// Runs the golden plan on two workers; every cell must succeed.
fn run_golden(lab: &Lab) -> Vec<RunRecord> {
    let exec = golden_plan().run_fault_tolerant(lab, 2, &SweepOptions::default());
    assert_eq!(exec.failed(), 0, "golden sweep had failed cells");
    exec.records()
}

fn close(a: f64, b: f64, what: &str, ctx: &str) {
    let tol = 1e-9 * a.abs().max(b.abs()).max(1.0);
    assert!(
        (a - b).abs() <= tol,
        "{ctx}: {what} drifted from golden {a} to {b}"
    );
}

#[test]
fn sweep_matches_golden_snapshot() {
    let mut records = run_golden(&Lab::new());
    // Zero the only nondeterministic field so an update writes a clean,
    // reviewable diff.
    for r in &mut records {
        r.wall_ms = 0.0;
    }

    let path = golden_path();
    if std::env::var_os("BENCH_UPDATE_GOLDEN").is_some() {
        let manifest = Manifest {
            name: "golden-smoke".to_string(),
            records: records.into_iter().map(RunOutcome::Success).collect(),
        };
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, manifest.to_json().to_string_pretty()).unwrap();
        eprintln!("updated golden snapshot at {}", path.display());
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with BENCH_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    let golden = Manifest::parse(&text).expect("golden snapshot parses");
    let golden_records: Vec<&RunRecord> = golden.successes().collect();
    assert_eq!(
        golden.failures().count(),
        0,
        "golden snapshot must contain only successful cells"
    );
    assert_eq!(
        golden_records.len(),
        records.len(),
        "golden snapshot has a different cell count; regenerate it"
    );

    for (&g, r) in golden_records.iter().zip(&records) {
        let ctx = format!("{} {} {}", r.workload, r.input, r.system);
        assert_eq!(g.workload, r.workload);
        assert_eq!(g.input, r.input);
        assert_eq!(g.system, r.system);
        assert_eq!(
            g.config_hash, r.config_hash,
            "{ctx}: machine configuration changed since the snapshot; \
             verify the change is intentional and regenerate the golden file"
        );
        compare_stats(g, r, &ctx);
    }
}

/// Warm-fork variant of the golden test: the same pinned sweep run
/// through a checkpoint-enabled lab — one pass creating the on-disk
/// warm checkpoints, a second fresh lab forking from them — must
/// reproduce the *checked-in cold* golden snapshot. This pins the
/// end-to-end claim that the checkpoint store is purely a wall-clock
/// optimization: forked sweep cells are indistinguishable from cold
/// ones at golden-snapshot tolerances (integers exact).
#[test]
fn warm_forked_sweep_matches_golden_snapshot() {
    if std::env::var_os("BENCH_UPDATE_GOLDEN").is_some() {
        return; // regeneration is owned by the cold test above
    }
    let path = golden_path();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with BENCH_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    let golden = Manifest::parse(&text).expect("golden snapshot parses");

    let dir = std::env::temp_dir().join(format!("bench-golden-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cp = CheckpointConfig::new(&dir, 50_000);

    // Pass 1: populate the store.
    let create_lab = Lab::with_checkpoints(FaultPlan::none(), Some(cp.clone()));
    run_golden(&create_lab);
    for r in create_lab.records() {
        assert_eq!(
            r.checkpoint.as_deref(),
            Some("created"),
            "{} {}",
            r.workload,
            r.system
        );
    }

    // Pass 2: a fresh lab must fork every cell from disk.
    let fork_lab = Lab::with_checkpoints(FaultPlan::none(), Some(cp));
    let mut records = run_golden(&fork_lab);
    for r in &mut records {
        r.wall_ms = 0.0;
        assert_eq!(
            r.checkpoint.as_deref(),
            Some("forked"),
            "{} {}",
            r.workload,
            r.system
        );
    }

    let golden_records: Vec<&RunRecord> = golden.successes().collect();
    assert_eq!(golden_records.len(), records.len());
    for (&g, r) in golden_records.iter().zip(&records) {
        let ctx = format!("forked {} {} {}", r.workload, r.input, r.system);
        assert_eq!(g.config_hash, r.config_hash, "{ctx}: config hash");
        compare_stats(g, r, &ctx);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The manifest schema must round-trip `Failed` records through the same
/// write path `BENCH_UPDATE_GOLDEN` uses, so a golden update of a
/// manifest that contains failures (e.g. from a fault-injected sweep)
/// is lossless and the success records stay byte-compatible with the
/// version-1 golden format.
#[test]
fn mixed_manifest_roundtrips_through_golden_write_path() {
    let ok = RunRecord::new(
        "mst",
        InputSet::Test,
        &SystemSpec::of(SystemKind::StreamOnly),
        &sim_core::RunStats::default(),
        0.0,
    );
    let failed = FailureRecord::new(
        "health",
        InputSet::Test,
        SystemKind::StreamCdp,
        "deadlock",
        "simulator deadlock: cycle 7 core 0: 0/2 ops retired ...",
        0.0,
    );
    let manifest = Manifest {
        name: "mixed".to_string(),
        records: vec![
            RunOutcome::Success(ok.clone()),
            RunOutcome::Failed(failed.clone()),
        ],
    };
    // Same serialization path as the golden updater.
    let text = manifest.to_json().to_string_pretty();
    let parsed = Manifest::parse(&text).expect("mixed manifest parses");
    assert_eq!(parsed, manifest);
    assert_eq!(parsed.successes().cloned().collect::<Vec<_>>(), vec![ok]);
    assert_eq!(
        parsed.failures().cloned().collect::<Vec<_>>(),
        vec![failed.clone()]
    );
    // A success record's JSON has no `outcome` field (v1 compatibility);
    // a failure's is discriminated and carries the structured error.
    let j = manifest.to_json();
    let records = j.get("records").and_then(sim_core::Json::as_arr).unwrap();
    assert!(records[0].get("outcome").is_none());
    assert_eq!(
        records[1].get("outcome").and_then(sim_core::Json::as_str),
        Some("failed")
    );
    assert_eq!(
        records[1]
            .get("error_kind")
            .and_then(sim_core::Json::as_str),
        Some("deadlock")
    );
    assert!(records[1].get("stats").is_none(), "failures carry no stats");

    // A failed cell is never committed to the result store, so a rerun
    // on the same store simulates it again instead of serving it.
    let dir = std::env::temp_dir().join(format!("golden-failed-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(dir.join("results.store"));
    let mut faults = FaultPlan::none();
    faults.push(
        FaultAction::Panic,
        &failed.workload,
        &failed.input,
        &failed.system,
    );
    let mut plan = SweepPlan::new("failed-cell");
    plan.push(&failed.workload, InputSet::Test, SystemKind::StreamCdp);
    let exec = plan.run_fault_tolerant(
        &Lab::with_faults(faults),
        1,
        &SweepOptions {
            store: Some(&store),
            ..SweepOptions::default()
        },
    );
    assert_eq!(exec.failed(), 1);
    assert!(store.is_empty(), "a failed cell must not be committed");
    assert!(store.committed(&plan.cells[0]).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

fn compare_stats(g: &RunRecord, r: &RunRecord, ctx: &str) {
    // Integer counters: the simulator is deterministic, so exact.
    assert_eq!(g.stats.cycles, r.stats.cycles, "{ctx}: cycles");
    assert_eq!(
        g.stats.retired_instructions, r.stats.retired_instructions,
        "{ctx}: retired_instructions"
    );
    assert_eq!(
        g.stats.l2_demand_accesses, r.stats.l2_demand_accesses,
        "{ctx}: l2_demand_accesses"
    );
    assert_eq!(
        g.stats.l2_demand_misses, r.stats.l2_demand_misses,
        "{ctx}: l2_demand_misses"
    );
    assert_eq!(
        g.stats.l2_lds_misses, r.stats.l2_lds_misses,
        "{ctx}: l2_lds_misses"
    );
    assert_eq!(
        g.stats.bus_transfers, r.stats.bus_transfers,
        "{ctx}: bus_transfers"
    );
    assert_eq!(g.stats.writebacks, r.stats.writebacks, "{ctx}: writebacks");

    // Derived floats: tight relative tolerance.
    close(g.stats.ipc, r.stats.ipc, "ipc", ctx);
    close(g.stats.bpki, r.stats.bpki, "bpki", ctx);
    close(g.stats.mpki, r.stats.mpki, "mpki", ctx);

    assert_eq!(
        g.stats.prefetchers.len(),
        r.stats.prefetchers.len(),
        "{ctx}: prefetcher count"
    );
    for (gp, rp) in g.stats.prefetchers.iter().zip(&r.stats.prefetchers) {
        let pctx = format!("{ctx} / {}", rp.name);
        assert_eq!(gp.name, rp.name, "{pctx}: name");
        assert_eq!(gp.issued, rp.issued, "{pctx}: issued");
        assert_eq!(gp.used, rp.used, "{pctx}: used");
        assert_eq!(gp.late, rp.late, "{pctx}: late");
        assert_eq!(gp.pollution, rp.pollution, "{pctx}: pollution");
        assert_eq!(
            gp.unused_evicted, rp.unused_evicted,
            "{pctx}: unused_evicted"
        );
        close(gp.accuracy, rp.accuracy, "accuracy", &pctx);
        close(gp.coverage, rp.coverage, "coverage", &pctx);
    }
}
