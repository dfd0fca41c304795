//! Byte-level pin for the ECDPRSLT result-store log. Two fixed records
//! appended to a fresh store must produce exactly the same file, so a
//! store written by an earlier build keeps opening (and serving hits)
//! after any change to the framing code.

#![allow(clippy::unwrap_used)]

use bench::{ResultStore, RunRecord};
use ecdp::system::{SystemKind, SystemSpec};
use sim_core::{PrefetcherStats, RunStats};
use workloads::InputSet;

/// FNV-1a digest of the two-record log written by [`pinned_records`].
const STORE_FNV: u64 = 0xecd9_0cbd_c3d4_02ec;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn pinned_records() -> [RunRecord; 2] {
    let plain = RunStats {
        cycles: 123_456,
        retired_instructions: 100_000,
        l2_demand_accesses: 4_000,
        l2_demand_misses: 1_500,
        bus_transfers: 2_100,
        ..RunStats::default()
    };
    let prefetching = RunStats {
        cycles: 98_765,
        retired_instructions: 100_000,
        l2_demand_misses: 900,
        bus_transfers: 2_600,
        prefetchers: vec![PrefetcherStats {
            name: "stream".to_string(),
            issued: 800,
            used: 600,
            late: 40,
            pollution: 12,
            unused_evicted: 150,
        }],
        ..RunStats::default()
    };
    [
        RunRecord::new(
            "mst",
            InputSet::Test,
            &SystemSpec::of(SystemKind::NoPrefetch),
            &plain,
            12.5,
        ),
        RunRecord::new(
            "health",
            InputSet::Test,
            &SystemSpec::of(SystemKind::StreamOnly),
            &prefetching,
            7.25,
        ),
    ]
}

#[test]
fn result_store_log_bytes_are_pinned() {
    let dir = std::env::temp_dir().join(format!("ecdp-store-pin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("results.store");
    let records = pinned_records();
    let store = ResultStore::open(&path);
    for r in &records {
        store.append(r, None);
    }
    drop(store);

    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(
        fnv1a(&bytes),
        STORE_FNV,
        "ECDPRSLT encoding moved ({} bytes, digest {:#018x})",
        bytes.len(),
        fnv1a(&bytes)
    );
    // A log written earlier reopens clean with equal records.
    let store = ResultStore::open(&path);
    assert!(store.recovery().is_clean());
    assert_eq!(store.len(), records.len());
    for r in &records {
        let back = store
            .get(&r.workload, &r.input, &r.system, r.config_hash)
            .unwrap();
        assert_eq!(&back, r);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
