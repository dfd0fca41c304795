//! Differential snapshot suite: warm-state fork must be bit-identical
//! to cold simulation, proven over randomized (workload, config,
//! system) triples by the reusable `bench::difftest` harness, and the
//! lab's on-disk checkpoint store must reproduce cold results exactly
//! while recording its dispositions in the manifest.

#![allow(clippy::unwrap_used)]

use std::path::PathBuf;

use bench::{difftest, CheckpointConfig, FaultPlan, Lab};
use ecdp::system::{SystemKind, SystemSpec};
use workloads::InputSet;

/// The tentpole property: for a randomized population of triples, the
/// full protocol (capture read-only → fork → wire round-trip fork)
/// yields byte-identical statistics, interval time series and Table 3
/// decision traces. The seed is fixed so a failure reproduces locally.
#[test]
fn randomized_triples_fork_bit_identically() {
    let lab = Lab::with_checkpoints(FaultPlan::none(), None);
    let cases = difftest::random_cases(0xECD9, 6);
    match difftest::run_suite(&lab, &cases) {
        Ok(outcomes) => {
            assert_eq!(outcomes.len(), cases.len());
            for o in &outcomes {
                assert!(
                    o.checkpoint_cycle < o.cold_cycles,
                    "[{}] checkpoint at {} of {} cycles",
                    o.case.label(),
                    o.checkpoint_cycle,
                    o.cold_cycles
                );
                assert!(o.snapshot_bytes > 0);
            }
        }
        Err(failures) => {
            let report: Vec<String> = failures.iter().map(ToString::to_string).collect();
            panic!(
                "{} of {} differential cases failed:\n{}",
                failures.len(),
                cases.len(),
                report.join("\n")
            );
        }
    }
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The lab's checkpoint store: the first run of a cell creates the
/// checkpoint, a fresh lab forks from it, and both produce identical
/// statistics with the disposition recorded per cell.
#[test]
fn checkpoint_store_forks_bit_identically_across_labs() {
    let dir = temp_store("store");
    let cp = CheckpointConfig::new(&dir, 50_000);
    let cells = [
        ("mst", SystemKind::StreamEcdpThrottled),
        ("libquantum", SystemKind::StreamOnly),
    ];

    // Reference: no store at all.
    let cold_lab = Lab::with_checkpoints(FaultPlan::none(), None);
    // First pass creates checkpoints, second pass forks from them.
    let create_lab = Lab::with_checkpoints(FaultPlan::none(), Some(cp.clone()));
    let fork_lab = Lab::with_checkpoints(FaultPlan::none(), Some(cp.clone()));

    for (name, kind) in cells {
        let cold = cold_lab.try_run_on(name, InputSet::Test, kind).unwrap();
        let created = create_lab.try_run_on(name, InputSet::Test, kind).unwrap();
        assert_eq!(cold, created, "{name}: creating pass must match cold");
        let record = create_lab.record_for(name, InputSet::Test, kind).unwrap();
        assert_eq!(record.checkpoint.as_deref(), Some("created"), "{name}");
        assert!(
            cp.cell_path(name, InputSet::Test, &SystemSpec::of(kind))
                .exists(),
            "{name}"
        );

        let forked = fork_lab.try_run_on(name, InputSet::Test, kind).unwrap();
        assert_eq!(cold, forked, "{name}: forked pass must match cold");
        let record = fork_lab.record_for(name, InputSet::Test, kind).unwrap();
        assert_eq!(record.checkpoint.as_deref(), Some("forked"), "{name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A truncated checkpoint is rejected by the framing layer (structured
/// error, no panic) and the cell falls back to a cold run that rewrites
/// the file — the per-cell recoverable-failure contract.
#[test]
fn truncated_checkpoint_falls_back_cold_and_heals() {
    let dir = temp_store("trunc");
    let cp = CheckpointConfig::new(&dir, 50_000);
    let (name, kind) = ("health", SystemKind::StreamCdp);

    let cold = Lab::with_checkpoints(FaultPlan::none(), None)
        .try_run_on(name, InputSet::Test, kind)
        .unwrap();
    Lab::with_checkpoints(FaultPlan::none(), Some(cp.clone()))
        .try_run_on(name, InputSet::Test, kind)
        .unwrap();
    let path = cp.cell_path(name, InputSet::Test, &SystemSpec::of(kind));
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();

    let lab = Lab::with_checkpoints(FaultPlan::none(), Some(cp.clone()));
    let stats = lab.try_run_on(name, InputSet::Test, kind).unwrap();
    assert_eq!(cold, stats, "fallback run must match cold");
    let record = lab.record_for(name, InputSet::Test, kind).unwrap();
    let disposition = record.checkpoint.unwrap();
    assert!(
        disposition.starts_with("fallback:"),
        "expected a fallback disposition, got {disposition:?}"
    );
    assert!(
        disposition.contains("truncated"),
        "the reason must name the framing error: {disposition:?}"
    );
    // The fallback rewrote the checkpoint: the next lab forks again.
    let healed = Lab::with_checkpoints(FaultPlan::none(), Some(cp));
    assert_eq!(cold, healed.try_run_on(name, InputSet::Test, kind).unwrap());
    let record = healed.record_for(name, InputSet::Test, kind).unwrap();
    assert_eq!(record.checkpoint.as_deref(), Some("forked"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint whose payload was bit-flipped fails the CRC check and
/// falls back cold with the CRC named in the disposition.
#[test]
fn bit_flipped_checkpoint_is_rejected_by_crc() {
    let dir = temp_store("crc");
    let cp = CheckpointConfig::new(&dir, 50_000);
    let (name, kind) = ("mst", SystemKind::StreamOnly);

    Lab::with_checkpoints(FaultPlan::none(), Some(cp.clone()))
        .try_run_on(name, InputSet::Test, kind)
        .unwrap();
    let path = cp.cell_path(name, InputSet::Test, &SystemSpec::of(kind));
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();

    let lab = Lab::with_checkpoints(FaultPlan::none(), Some(cp));
    lab.try_run_on(name, InputSet::Test, kind).unwrap();
    let disposition = lab
        .record_for(name, InputSet::Test, kind)
        .unwrap()
        .checkpoint
        .unwrap();
    assert!(
        disposition.starts_with("fallback:") && disposition.contains("CRC"),
        "expected a CRC fallback, got {disposition:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
