//! Byte-level pins for the two on-disk encodings that carry a memory
//! image: the ECDPSNAP warm-state checkpoint and the `.xtrc` external
//! trace. Both serialize the resident pages of a `SimMemory` in ascending
//! page order, so a change to how memory is stored must not move a single
//! byte. Checkpoint directories and exported traces written by earlier
//! builds stay loadable only while these digests hold.

#![allow(clippy::unwrap_used)]

use std::io::Cursor;

use ecdp::profile::profile_workload;
use ecdp::system::{CompilerArtifacts, SystemBuilder, SystemKind};
use sim_core::{write_external, ExternalTrace, Snapshot};
use workloads::{registry, InputSet};

/// Digest of a warm `stream+ecdp+throttle` checkpoint of mst (test input,
/// hints profiled on the same input) captured at [`CHECKPOINT_CYCLE`].
const SNAPSHOT_FNV: u64 = 0x5ba4_18ca_abba_b409;
/// Digest of the `.xtrc` export of the mst test trace.
const XTRC_FNV: u64 = 0xf019_b734_c45d_f59e;
const CHECKPOINT_CYCLE: u64 = 50_000;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn mst_test_trace() -> sim_core::Trace {
    registry::lookup("mst").unwrap().generate(InputSet::Test)
}

#[test]
fn warm_snapshot_bytes_are_pinned() {
    let trace = mst_test_trace();
    let artifacts = CompilerArtifacts::from_profile(&profile_workload(&trace));
    let run = SystemBuilder::new(SystemKind::StreamEcdpThrottled)
        .artifacts(&artifacts)
        .warm_checkpoint(CHECKPOINT_CYCLE)
        .run(&trace)
        .unwrap();
    let snapshot = run.snapshot.expect("mst runs past the checkpoint cycle");
    assert_eq!(snapshot.cycle(), CHECKPOINT_CYCLE);
    let bytes = snapshot.to_bytes();
    assert_eq!(
        fnv1a(&bytes),
        SNAPSHOT_FNV,
        "ECDPSNAP encoding moved ({} bytes)",
        bytes.len()
    );
    // A checkpoint written earlier decodes and re-encodes unchanged.
    let decoded = Snapshot::from_bytes(&bytes).unwrap();
    assert_eq!(decoded.to_bytes(), bytes);
}

#[test]
fn xtrc_export_bytes_are_pinned() {
    let trace = mst_test_trace();
    let mut out = Cursor::new(Vec::new());
    write_external(&trace, &mut out).unwrap();
    let bytes = out.into_inner();
    assert_eq!(
        fnv1a(&bytes),
        XTRC_FNV,
        ".xtrc encoding moved ({} bytes)",
        bytes.len()
    );
    // An exported trace reopens with the identical memory image.
    let path = std::env::temp_dir().join(format!("encoding-pin-{}.xtrc", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();
    let reopened = ExternalTrace::open(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let (a, b) = (&trace.initial_memory, reopened.initial_memory());
    assert_eq!(a.resident_page_indices(), b.resident_page_indices());
    for i in a.resident_page_indices() {
        assert_eq!(a.page_bytes(i), b.page_bytes(i), "page {i}");
    }
    assert_eq!(reopened.op_count(), trace.ops.len());
}
