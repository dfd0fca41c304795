//! Multi-core golden regression: a 4-core machine running the
//! quad-core smoke mix under the full proposal must reproduce the
//! checked-in snapshot in `tests/golden/multicore_smoke.json` (repo
//! root) within tight tolerances. This pins the shared-bus arbitration
//! and per-core snapshot semantics the single-core golden cannot see.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```sh
//! BENCH_UPDATE_GOLDEN=1 cargo test -p bench --test multicore_golden
//! ```

#![allow(clippy::unwrap_used)]

use std::path::PathBuf;

use bench::Lab;
use ecdp::system::{core_setup, SystemKind};
use std::sync::Arc;

use sim_core::{Json, Machine, MachineConfig, MultiRunStats, Trace};
use workloads::InputSet;

/// The pinned 4-core mix: two pointer-intensive workloads (`mst`,
/// `health`), one streaming (`libquantum`), one compute-bound
/// (`hmmer`) — the same shape as the paper's quad-core case studies,
/// but on the test inputs so the cell stays smoke-sized.
const MIX: [&str; 4] = ["mst", "health", "libquantum", "hmmer"];
const KIND: SystemKind = SystemKind::StreamEcdpThrottled;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/multicore_smoke.json")
}

fn smoke_traces(lab: &Lab) -> Vec<Arc<Trace>> {
    MIX.iter().map(|n| lab.trace(n, InputSet::Test)).collect()
}

fn borrowed(traces: &[Arc<Trace>]) -> Vec<&Trace> {
    traces.iter().map(|t| &**t).collect()
}

fn run_smoke_mix(lab: &Lab) -> MultiRunStats {
    let setups = MIX
        .iter()
        .map(|n| core_setup(KIND, &lab.artifacts(n)))
        .collect();
    Machine::with_cores(MachineConfig::default(), setups)
        .run_cores(&borrowed(&smoke_traces(lab)))
        .expect("multi-core smoke run failed")
}

fn stats_doc(stats: &MultiRunStats) -> Json {
    Json::obj(vec![
        ("schema_version", Json::Num(1.0)),
        (
            "mix",
            Json::Arr(MIX.iter().map(|n| Json::Str(n.to_string())).collect()),
        ),
        ("input", Json::Str("test".to_string())),
        ("system", Json::Str(KIND.label().to_string())),
        (
            "config_hash",
            Json::Str(format!("{:016x}", bench::manifest::config_hash())),
        ),
        (
            "total_bus_transfers",
            Json::Num(stats.total_bus_transfers as f64),
        ),
        (
            "per_core",
            Json::Arr(
                stats
                    .per_core
                    .iter()
                    .map(|s| s.summary().to_json())
                    .collect(),
            ),
        ),
    ])
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

#[test]
fn quad_core_smoke_matches_golden_snapshot() {
    let lab = Lab::new();
    let stats = run_smoke_mix(&lab);
    assert_eq!(stats.per_core.len(), MIX.len(), "one snapshot per core");
    assert!(
        stats.total_bus_transfers > 0,
        "4 cores sharing a bus must generate traffic"
    );
    let doc = stats_doc(&stats);

    let path = golden_path();
    if std::env::var_os("BENCH_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, doc.to_string_pretty()).unwrap();
        eprintln!("updated multicore golden at {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing multicore golden {} ({e}); run with BENCH_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    let golden = Json::parse(&text).expect("multicore golden parses");
    assert_json_close(&golden, &doc, "multicore");
}

/// Warm-fork variant of the multicore golden: capture a whole-chip
/// snapshot mid-run (every core plus the shared DRAM system), round it
/// through the wire format, fork a *fresh* 4-core machine from it, and
/// require the forked chip to reproduce the checked-in cold golden
/// byte-for-byte — capture must be a pure read and fork must restore
/// shared-bus arbitration state exactly.
#[test]
fn quad_core_warm_fork_matches_golden_snapshot() {
    if std::env::var_os("BENCH_UPDATE_GOLDEN").is_some() {
        return; // regeneration is owned by the cold test above
    }
    let lab = Lab::new();
    let setups = || {
        MIX.iter()
            .map(|n| core_setup(KIND, &lab.artifacts(n)))
            .collect()
    };
    let traces = smoke_traces(&lab);
    let traces = borrowed(&traces);

    let mut cold = Machine::with_cores(MachineConfig::default(), setups());
    cold.set_warm_checkpoint(Some(50_000));
    let cold_stats = cold.run_cores(&traces).expect("cold run");
    let snapshot = cold.take_snapshot().expect("run passed the capture point");

    // Round-trip the snapshot through the wire format before forking,
    // so the on-disk path is what this golden actually certifies.
    let restored = sim_core::Snapshot::from_bytes(&snapshot.to_bytes()).expect("wire round-trip");
    let mut forked = Machine::with_cores(MachineConfig::default(), setups());
    forked.fork_from(&restored).expect("fork accepted");
    let fork_stats = forked.run_cores(&traces).expect("forked run");

    // Forked chip == cold chip, bit for bit (identical serialized docs).
    assert_eq!(
        stats_doc(&cold_stats).to_string_pretty(),
        stats_doc(&fork_stats).to_string_pretty(),
        "warm-forked chip diverged from the capture-armed cold run"
    );

    // And both match the checked-in golden (capture was a pure read).
    let path = golden_path();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing multicore golden {} ({e}); run with BENCH_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    let golden = Json::parse(&text).expect("multicore golden parses");
    assert_json_close(&golden, &stats_doc(&fork_stats), "multicore-warm-fork");
}

/// Two back-to-back runs of the same mix must agree exactly — the
/// shared-bus arbiter has no hidden cross-run state.
#[test]
fn quad_core_smoke_is_deterministic() {
    let lab = Lab::new();
    let a = run_smoke_mix(&lab);
    let b = run_smoke_mix(&lab);
    assert_eq!(a.total_bus_transfers, b.total_bus_transfers);
    for (i, (x, y)) in a.per_core.iter().zip(&b.per_core).enumerate() {
        assert_eq!(x.cycles, y.cycles, "core {i} cycles");
        assert_eq!(
            x.retired_instructions, y.retired_instructions,
            "core {i} instructions"
        );
        assert_eq!(x.bus_transfers, y.bus_transfers, "core {i} bus");
    }
}
