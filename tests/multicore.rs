//! Multi-core integration tests: private caches, shared DRAM, weighted
//! speedup, and the proposal's behaviour under contention.

#![allow(clippy::unwrap_used)]

use ecdp::profile::profile_workload;
use ecdp::system::{core_setup, CompilerArtifacts, SystemBuilder, SystemKind};
use sim_core::{Machine, MachineConfig, Trace};
use workloads::{registry, InputSet};

/// Thin shim over [`SystemBuilder`] keeping the older call shape used
/// throughout these tests.
fn run_system(
    kind: SystemKind,
    trace: &Trace,
    artifacts: &CompilerArtifacts,
) -> Result<sim_core::RunStats, sim_core::SimError> {
    SystemBuilder::new(kind)
        .artifacts(artifacts)
        .run(trace)
        .map(|run| run.stats)
}

fn train_trace(name: &str) -> Trace {
    registry::lookup(name).unwrap().generate(InputSet::Train)
}

fn artifacts(trace: &Trace) -> CompilerArtifacts {
    CompilerArtifacts::from_profile(&profile_workload(trace))
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds")]
fn sharing_the_bus_slows_both_cores() {
    let t0 = train_trace("mst");
    let t1 = train_trace("omnetpp");
    let a0 = artifacts(&t0);
    let a1 = artifacts(&t1);
    let alone0 = run_system(SystemKind::StreamOnly, &t0, &a0)
        .expect("run")
        .ipc();
    let alone1 = run_system(SystemKind::StreamOnly, &t1, &a1)
        .expect("run")
        .ipc();

    let mut mm = Machine::with_cores(
        MachineConfig::default(),
        vec![
            core_setup(SystemKind::StreamOnly, &a0),
            core_setup(SystemKind::StreamOnly, &a1),
        ],
    );
    let shared = mm.run_cores(&[&t0, &t1]).expect("run");
    assert!(shared.per_core[0].ipc() <= alone0 * 1.01);
    assert!(shared.per_core[1].ipc() <= alone1 * 1.01);
    let ws = shared.weighted_speedup(&[alone0, alone1]);
    assert!(
        ws > 0.5 && ws <= 2.02,
        "weighted speedup out of range: {ws}"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds")]
fn proposal_helps_a_pointer_intensive_pair() {
    let t0 = train_trace("health");
    let t1 = train_trace("mst");
    let a0 = artifacts(&t0);
    let a1 = artifacts(&t1);
    let alone = [
        run_system(SystemKind::StreamOnly, &t0, &a0)
            .expect("run")
            .ipc(),
        run_system(SystemKind::StreamOnly, &t1, &a1)
            .expect("run")
            .ipc(),
    ];

    let run_pair = |kind: SystemKind| {
        let mut mm = Machine::with_cores(
            MachineConfig::default(),
            vec![core_setup(kind, &a0), core_setup(kind, &a1)],
        );
        mm.run_cores(&[&t0, &t1]).expect("run")
    };
    let base = run_pair(SystemKind::StreamOnly);
    let ours = run_pair(SystemKind::StreamEcdpThrottled);
    let ws_base = base.weighted_speedup(&alone);
    let ws_ours = ours.weighted_speedup(&alone);
    assert!(
        ws_ours > ws_base,
        "proposal must help a pointer-intensive mix: {ws_ours:.3} vs {ws_base:.3}"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds")]
fn four_cores_complete_and_account_bus_traffic() {
    let names = ["mst", "libquantum", "omnetpp", "sjeng"];
    let traces: Vec<Trace> = names.iter().map(|n| train_trace(n)).collect();
    let arts: Vec<CompilerArtifacts> = traces.iter().map(artifacts).collect();
    let mut mm = Machine::with_cores(
        MachineConfig::default(),
        arts.iter()
            .map(|a| core_setup(SystemKind::StreamEcdpThrottled, a))
            .collect(),
    );
    let r = mm
        .run_cores(&traces.iter().collect::<Vec<_>>())
        .expect("run");
    assert_eq!(r.per_core.len(), 4);
    let per_core_sum: u64 = r.per_core.iter().map(|s| s.bus_transfers).sum();
    assert!(
        r.total_bus_transfers >= per_core_sum,
        "total bus traffic includes post-snapshot restarts"
    );
    for (i, s) in r.per_core.iter().enumerate() {
        assert!(s.retired_instructions > 0, "core {i} retired nothing");
        assert!(s.cycles > 0);
    }
}
