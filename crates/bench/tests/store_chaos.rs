//! Randomized crash/corruption campaign for the persistent result store.
//!
//! Difftest-style: a seeded [`StdRng`] drives rounds of appends followed
//! by byte-level damage — mid-payload corruption, torn tails, truncation
//! at arbitrary cut points — against a shadow model that knows exactly
//! which committed records must survive. Because appends are serial and
//! the test measures the file length around each one, every damage
//! operation maps to an exactly computable expected-survivor set: a
//! record is lost if and only if its own frame was hit. After every
//! round the store is reopened (running real startup recovery), checked
//! against the model, reopened again to prove the heal left a clean log,
//! and occasionally compacted.
//!
//! The acceptance property of the whole suite: recovery never loses a
//! committed-and-undamaged record, never resurrects a damaged one, and
//! compaction preserves the live set byte-for-byte.

#![allow(clippy::unwrap_used)]

use std::collections::HashMap;
use std::path::PathBuf;

use bench::{ResultStore, RunRecord};
use ecdp::system::{SystemKind, SystemSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_core::RunStats;
use workloads::InputSet;

/// Store file header: 8-byte magic + version u32 + schema u32.
const HEADER_LEN: u64 = 16;

/// Record framing before the payload: magic + length + crc, u32 each.
const FRAME_LEN: u64 = 12;

const WORKLOAD_POOL: [&str; 6] = ["mst", "health", "em3d", "bh", "tsp", "perimeter"];

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ecdp-store-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A record distinguished by its `wall_ms` tag (the stats are fixed, so
/// only the tag tells two generations of the same cell apart).
fn record(workload: &str, tag: u64) -> RunRecord {
    let stats = RunStats {
        cycles: 10_000,
        retired_instructions: 321,
        ..RunStats::default()
    };
    RunRecord::new(
        workload,
        InputSet::Test,
        &SystemSpec::of(SystemKind::StreamOnly),
        &stats,
        tag as f64,
    )
}

/// One append this round, with its on-disk frame range.
struct Appended {
    workload: &'static str,
    tag: u64,
    /// First byte of the record frame.
    start: u64,
    /// One past the last byte of the record frame.
    end: u64,
    /// Cleared when damage hits this frame.
    alive: bool,
}

fn file_len(path: &PathBuf) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Asserts the reopened store serves exactly the model's committed set.
fn assert_matches_model(store: &ResultStore, committed: &HashMap<&'static str, u64>) {
    assert_eq!(
        store.len(),
        committed.len(),
        "store entries vs model: {:?}",
        store.recovery()
    );
    for (&workload, &tag) in committed {
        let r = store
            .get(
                workload,
                "test",
                SystemKind::StreamOnly.label(),
                bench::config_hash(),
            )
            .unwrap_or_else(|| panic!("committed record {workload} (tag {tag}) was lost"));
        assert!(
            (r.wall_ms - tag as f64).abs() < 1e-9,
            "{workload}: served tag {} instead of {tag}",
            r.wall_ms
        );
    }
}

/// Runs one seeded campaign: `rounds` rounds of append + damage +
/// recover + verify against the shadow model.
fn run_campaign(seed: u64, rounds: usize) {
    let dir = scratch(&format!("seed{seed}"));
    let path = dir.join("results.store");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut committed: HashMap<&'static str, u64> = HashMap::new();
    let mut next_tag = 0u64;

    for round in 0..rounds {
        let store = ResultStore::open(&path);
        assert_matches_model(&store, &committed);

        // Serial appends with exact frame ranges.
        let n_appends = rng.gen_range(2usize..=5);
        let mut appends: Vec<Appended> = Vec::with_capacity(n_appends);
        for _ in 0..n_appends {
            let workload = WORKLOAD_POOL[rng.gen_range(0..WORKLOAD_POOL.len())];
            next_tag += 1;
            let before = file_len(&path);
            let start = if before == 0 { HEADER_LEN } else { before };
            store.append(&record(workload, next_tag), None);
            assert!(store.degraded().is_none(), "clean appends never degrade");
            appends.push(Appended {
                workload,
                tag: next_tag,
                start,
                end: file_len(&path),
                alive: true,
            });
        }
        drop(store);

        // Damage the log. Every operation targets a frame appended this
        // round, so the survivor set is exact: baseline frames from
        // earlier rounds are never touched.
        let mode = rng.gen_range(0u32..4);
        let mut damaged = false;
        if mode == 2 || mode == 3 {
            // Truncate inside (or exactly at the start of) one frame —
            // a crash mid-append, or mid-rewrite of everything after it.
            let i = rng.gen_range(0..appends.len());
            let cut = rng.gen_range(appends[i].start..appends[i].end);
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..cut as usize]).unwrap();
            for a in &mut appends[i..] {
                a.alive = false;
            }
            damaged = true;
        }
        if mode == 1 || mode == 3 {
            // Flip a mid-payload byte of one still-present frame; the
            // per-record CRC must quarantine exactly that record.
            let survivors: Vec<usize> = appends
                .iter()
                .enumerate()
                .filter(|(_, a)| a.alive)
                .map(|(i, _)| i)
                .collect();
            if let Some(&i) = survivors.get(rng.gen_range(0..survivors.len().max(1))) {
                let a = &mut appends[i];
                let payload_mid = a.start + FRAME_LEN + (a.end - a.start - FRAME_LEN) / 2;
                let mut bytes = std::fs::read(&path).unwrap();
                bytes[payload_mid as usize] ^= 0xFF;
                std::fs::write(&path, &bytes).unwrap();
                a.alive = false;
                damaged = true;
            }
        }

        // Fold the surviving appends into the model (later wins; a lost
        // re-append falls back to the previous committed generation,
        // whose frame is still in the log).
        for a in appends.iter().filter(|a| a.alive) {
            committed.insert(a.workload, a.tag);
        }

        // Reopen: recovery must land exactly on the model.
        let store = ResultStore::open(&path);
        let recovery = store.recovery();
        assert_matches_model(&store, &committed);
        if damaged {
            assert!(
                !recovery.is_clean(),
                "round {round}: damage must be reported: {recovery:?}"
            );
            assert!(recovery.healed, "round {round}: {recovery:?}");
        }
        assert!(store.degraded().is_none(), "recovery never degrades");
        drop(store);

        // The heal rewrote a clean log.
        let store = ResultStore::open(&path);
        assert!(
            store.recovery().is_clean(),
            "round {round}: heal left damage behind: {:?}",
            store.recovery()
        );

        // Occasionally compact and verify nothing is dropped.
        if rng.gen_bool(0.3) {
            let stats = store.compact().unwrap();
            assert_eq!(stats.live_records, committed.len());
            drop(store);
            let store = ResultStore::open(&path);
            assert!(store.recovery().is_clean());
            assert_matches_model(&store, &committed);
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seeded_damage_campaign_seed_1() {
    run_campaign(1, 8);
}

#[test]
fn seeded_damage_campaign_seed_2() {
    run_campaign(2, 8);
}

#[test]
fn seeded_damage_campaign_seed_3() {
    run_campaign(3, 8);
}

/// The worst-case compound round, pinned deterministically: a corrupt
/// record *and* a torn tail in the same log, with a re-append of a
/// damaged cell — recovery must serve the older generation.
#[test]
fn compound_damage_serves_the_previous_generation() {
    let dir = scratch("compound");
    let path = dir.join("results.store");

    let store = ResultStore::open(&path);
    let mut ranges = Vec::new();
    for (workload, tag) in [("mst", 1u64), ("health", 2), ("mst", 3), ("em3d", 4)] {
        let before = file_len(&path);
        let start = if before == 0 { HEADER_LEN } else { before };
        store.append(&record(workload, tag), None);
        ranges.push((start, file_len(&path)));
    }
    drop(store);

    // Corrupt the mst re-append (generation 3) and tear the em3d tail.
    let mut bytes = std::fs::read(&path).unwrap();
    let (start, end) = ranges[2];
    bytes[(start + FRAME_LEN + (end - start - FRAME_LEN) / 2) as usize] ^= 0xFF;
    let (tail_start, tail_end) = ranges[3];
    bytes.truncate((tail_start + (tail_end - tail_start) / 2) as usize);
    std::fs::write(&path, &bytes).unwrap();

    let store = ResultStore::open(&path);
    let recovery = store.recovery();
    assert_eq!(recovery.quarantined(), 1, "{recovery:?}");
    assert!(recovery.healed);
    assert_eq!(store.len(), 2, "mst (gen 1) + health survive");
    let mst = store
        .get("mst", "test", "stream", bench::config_hash())
        .expect("older mst generation survives the corrupt re-append");
    assert!((mst.wall_ms - 1.0).abs() < 1e-9, "generation 1 is served");
    assert!(store
        .get("em3d", "test", "stream", bench::config_hash())
        .is_none());

    let _ = std::fs::remove_dir_all(&dir);
}
