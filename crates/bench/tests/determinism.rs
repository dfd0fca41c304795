//! Determinism regression tests for the parallel sweep executor: the
//! same [`SweepPlan`] must produce byte-identical [`RunRecord`]s (modulo
//! the `wall_ms` timing field) at any worker-thread count, and shared
//! inputs must be computed exactly once per process.

#![allow(clippy::unwrap_used)]

use std::sync::Arc;

use bench::{Lab, RunRecord, SweepOptions, SweepPlan};
use ecdp::system::SystemKind;
use workloads::InputSet;

/// Runs every cell of `plan` on `jobs` workers; every cell must succeed.
fn run(plan: &SweepPlan, lab: &Lab, jobs: usize) -> Vec<RunRecord> {
    let exec = plan.run_fault_tolerant(lab, jobs, &SweepOptions::default());
    assert_eq!(exec.failed(), 0, "{} had failed cells", plan.name);
    exec.records()
}

fn smoke_plan(name: &str) -> SweepPlan {
    SweepPlan::cross(
        name,
        &["mst", "health", "libquantum"],
        InputSet::Test,
        &[
            SystemKind::StreamOnly,
            SystemKind::StreamCdp,
            SystemKind::StreamEcdpThrottled,
        ],
    )
}

#[test]
fn parallel_sweep_matches_serial_sweep() {
    // Fresh labs so the second run cannot reuse the first run's cache.
    let serial = run(&smoke_plan("det-serial"), &Lab::new(), 1);
    let parallel = run(&smoke_plan("det-parallel"), &Lab::new(), 4);

    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert!(
            s.same_metrics(p),
            "{} {} {} diverged between 1 and 4 jobs",
            s.workload,
            s.input,
            s.system
        );
    }

    // Stronger: with wall time normalized, the serialized records are
    // byte-identical.
    let normalize = |records: &[RunRecord]| -> Vec<String> {
        records
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r.wall_ms = 0.0;
                r.to_json().to_string_pretty()
            })
            .collect()
    };
    assert_eq!(normalize(&serial), normalize(&parallel));
}

#[test]
fn sweep_results_come_back_in_plan_order() {
    let plan = smoke_plan("det-order");
    let records = run(&plan, &Lab::new(), 3);
    assert_eq!(records.len(), plan.cells.len());
    for (cell, record) in plan.cells.iter().zip(&records) {
        assert_eq!(record.workload, cell.workload);
        assert_eq!(record.input, format!("{:?}", cell.input).to_lowercase());
        assert_eq!(record.system, cell.system.label());
    }
}

#[test]
fn duplicate_cells_share_one_simulation() {
    let mut plan = SweepPlan::new("det-dup");
    for _ in 0..4 {
        plan.push("libquantum", InputSet::Test, SystemKind::StreamOnly);
    }
    let lab = Lab::new();
    let records = run(&plan, &lab, 4);
    assert_eq!(records.len(), 4);
    // All four cells are the same cached run: identical wall_ms proves a
    // single simulation was timed (same_metrics alone would also hold for
    // four separate deterministic runs).
    for r in &records[1..] {
        assert_eq!(r.wall_ms, records[0].wall_ms);
        assert!(r.same_metrics(&records[0]));
    }
}

#[test]
fn traces_and_profiles_are_computed_once_per_process() {
    let lab = Lab::new();
    let a = lab.trace("libquantum", InputSet::Test);
    let b = lab.trace("libquantum", InputSet::Test);
    assert!(Arc::ptr_eq(&a, &b), "trace must be generated once");
    let pa = lab.profile("libquantum");
    let pb = lab.clone().profile("libquantum");
    assert!(
        Arc::ptr_eq(&pa, &pb),
        "profile must be shared across lab clones"
    );
}
