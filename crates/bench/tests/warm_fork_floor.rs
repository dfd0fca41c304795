//! The warm fork floor: forking a cell from a warm snapshot taken at 70%
//! of its cycles must reproduce the cold run exactly and, in release
//! builds, cost at most half as much wall time as the cold run.
//!
//! Cold runs and forked tails alternate on the same cells in one
//! process, so the host's speed drift hits both sides alike; the ratio
//! compares per-cell minima. This file holds a single test so no other
//! test shares its process while it times.
//!
//! ```text
//! cargo test --release -p bench --test warm_fork_floor -- --nocapture
//! ```

#![allow(clippy::unwrap_used)]

use std::time::{Duration, Instant};

use bench::DEFAULT_SYSTEMS;
use ecdp::system::{CompilerArtifacts, SystemBuilder};
use workloads::InputSet;

/// The grid: CDP-hostile `mst`, CDP-friendly `health`, streaming
/// `libquantum`, each under every headline system.
const WORKLOADS: [&str; 3] = ["mst", "health", "libquantum"];
/// Cold/forked alternations per cell.
const ROUNDS: usize = 3;
/// Required Σ(cold) / Σ(forked tail) wall-time ratio.
const FLOOR: f64 = 2.0;

#[test]
fn forked_tail_matches_cold_and_clears_the_floor() {
    let artifacts = CompilerArtifacts::empty();
    let (mut cold_total, mut tail_total) = (Duration::ZERO, Duration::ZERO);
    for name in WORKLOADS {
        let trace = workloads::registry::lookup(name)
            .unwrap()
            .generate(InputSet::Test);
        for system in DEFAULT_SYSTEMS {
            let cell = format!("{name}/{}", system.label());
            let build = || SystemBuilder::new(system).artifacts(&artifacts);
            // Untimed: learn the cell's length, then capture the warm
            // snapshot at 70% of it.
            let cycles = build().run(&trace).unwrap().stats.cycles;
            let checkpoint = (cycles * 7 / 10).max(1);
            let snapshot = build()
                .warm_checkpoint(checkpoint)
                .run(&trace)
                .unwrap()
                .snapshot
                .unwrap_or_else(|| panic!("{cell}: no snapshot at cycle {checkpoint}"));
            let (mut cold_min, mut tail_min) = (Duration::MAX, Duration::MAX);
            for round in 0..ROUNDS {
                let t = Instant::now();
                let cold = build().run(&trace).unwrap();
                cold_min = cold_min.min(t.elapsed());
                let t = Instant::now();
                let forked = build().fork_from(&snapshot).run(&trace).unwrap();
                tail_min = tail_min.min(t.elapsed());
                assert_eq!(
                    forked.stats, cold.stats,
                    "{cell} round {round}: forked run diverged from the cold run"
                );
            }
            cold_total += cold_min;
            tail_total += tail_min;
        }
    }
    let ratio = cold_total.as_secs_f64() / tail_total.as_secs_f64().max(1e-9);
    eprintln!(
        "warm fork floor: cold {:.1} ms / forked tail {:.1} ms = {ratio:.2}x \
         over {} cells (floor {FLOOR:.1}x)",
        cold_total.as_secs_f64() * 1e3,
        tail_total.as_secs_f64() * 1e3,
        WORKLOADS.len() * DEFAULT_SYSTEMS.len(),
    );
    if cfg!(debug_assertions) {
        eprintln!("debug build: the floor is checked in release builds only");
    } else {
        assert!(
            ratio >= FLOOR,
            "forked tails are only {ratio:.2}x faster than cold runs (floor {FLOOR:.1}x)"
        );
    }
}
