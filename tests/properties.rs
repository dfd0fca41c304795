//! Property-based tests (proptest) for the core data structures and
//! invariants of the simulator substrate.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;

use ecdp::hints::HintVector;
use sim_core::cache::{Cache, CacheConfig, LineState};
use sim_core::dram::{Dram, DramRequest};
use sim_core::{
    Aggressiveness, DramConfig, IntervalFeedback, Machine, MachineConfig, ThrottleDecision,
    ThrottlePolicy, TraceBuilder,
};
use sim_mem::{layout, Heap, SimMemory};
use throttle::CoordinatedThrottle;

// ---------------------------------------------------------------- sim-mem

proptest! {
    #[test]
    fn heap_allocations_never_overlap(sizes in proptest::collection::vec(1u32..256, 1..64)) {
        let mut heap = Heap::new(layout::HEAP_BASE, layout::HEAP_LIMIT);
        let mut spans: Vec<(u32, u32)> = Vec::new();
        for size in sizes {
            let addr = heap.alloc(size).unwrap();
            let rounded = size.div_ceil(8) * 8;
            prop_assert!(addr >= layout::HEAP_BASE);
            prop_assert!(addr + rounded <= layout::HEAP_LIMIT);
            prop_assert_eq!(addr % 8, 0);
            for &(a, s) in &spans {
                prop_assert!(addr + rounded <= a || a + s <= addr, "overlap");
            }
            spans.push((addr, rounded));
        }
    }

    #[test]
    fn memory_matches_hashmap_model(
        writes in proptest::collection::vec((0u32..0x2_0000, any::<u32>()), 1..200)
    ) {
        let mut mem = SimMemory::new();
        let mut model = std::collections::HashMap::new();
        for (addr, value) in &writes {
            let addr = addr * 4; // word aligned
            mem.write_u32(addr, *value);
            model.insert(addr, *value);
        }
        for (addr, value) in &model {
            prop_assert_eq!(mem.read_u32(*addr), *value);
        }
    }

    #[test]
    fn block_words_reflect_word_writes(
        base_block in 0u32..1000,
        words in proptest::collection::vec(any::<u32>(), 16)
    ) {
        let mut mem = SimMemory::new();
        let base = base_block * 64;
        for (i, w) in words.iter().enumerate() {
            mem.write_u32(base + (i as u32) * 4, *w);
        }
        let got = mem.read_block_words(base + 17); // any byte in the block
        prop_assert_eq!(got.to_vec(), words);
    }
}

// ---------------------------------------------------------------- cache

/// A slow but obviously correct set-associative LRU model.
struct ModelCache {
    sets: usize,
    ways: usize,
    lines: Vec<Vec<u32>>, // per set, MRU first
}

impl ModelCache {
    fn new(sets: usize, ways: usize) -> Self {
        ModelCache {
            sets,
            ways,
            lines: vec![Vec::new(); sets],
        }
    }

    fn set_of(&self, block: u32) -> usize {
        (block as usize) % self.sets
    }

    fn access(&mut self, block: u32) -> bool {
        let s = self.set_of(block);
        if let Some(pos) = self.lines[s].iter().position(|&b| b == block) {
            let b = self.lines[s].remove(pos);
            self.lines[s].insert(0, b);
            true
        } else {
            false
        }
    }

    fn fill(&mut self, block: u32) {
        let s = self.set_of(block);
        if let Some(pos) = self.lines[s].iter().position(|&b| b == block) {
            self.lines[s].remove(pos);
        }
        self.lines[s].insert(0, block);
        self.lines[s].truncate(self.ways);
    }
}

proptest! {
    #[test]
    fn cache_agrees_with_lru_model(blocks in proptest::collection::vec(0u32..64, 1..400)) {
        // 4 sets x 2 ways of 64-byte lines.
        let mut cache = Cache::new(CacheConfig { bytes: 512, ways: 2, hit_latency: 1 });
        let mut model = ModelCache::new(4, 2);
        for b in blocks {
            let addr = b * 64;
            let hit = cache.access(addr).is_some();
            let model_hit = model.access(b);
            prop_assert_eq!(hit, model_hit, "divergence at block {}", b);
            if !hit {
                cache.fill(addr, LineState::default());
                model.fill(b);
            }
        }
    }
}

// ---------------------------------------------------------------- hints

proptest! {
    #[test]
    fn hint_vector_roundtrip(offsets in proptest::collection::vec(-16i32..16, 0..12)) {
        let mut v = HintVector::default();
        let set: std::collections::HashSet<i32> =
            offsets.iter().map(|o| o * 4).collect();
        for &o in &set {
            v.set(o);
        }
        for slot in -16i32..16 {
            let off = slot * 4;
            prop_assert_eq!(v.allows(off), set.contains(&off), "offset {}", off);
        }
        prop_assert_eq!(v.count() as usize, set.len());
    }
}

// ---------------------------------------------------------------- throttle

/// An independent restatement of the paper's Table 3.
fn table3(own_cov: f64, own_acc: f64, rival_cov: f64) -> ThrottleDecision {
    let cov_high = own_cov >= 0.2;
    let rival_high = rival_cov >= 0.2;
    let acc = if own_acc >= 0.7 {
        2
    } else if own_acc >= 0.4 {
        1
    } else {
        0
    };
    match (cov_high, acc, rival_high) {
        (true, _, _) => ThrottleDecision::Up,       // case 1
        (false, 0, _) => ThrottleDecision::Down,    // case 2
        (false, _, false) => ThrottleDecision::Up,  // case 3
        (false, 1, true) => ThrottleDecision::Down, // case 4
        (false, 2, true) => ThrottleDecision::Keep, // case 5
        _ => unreachable!(),
    }
}

proptest! {
    #[test]
    fn coordinated_throttle_implements_table3(
        cov_a in 0.0f64..1.0, acc_a in 0.0f64..1.0,
        cov_b in 0.0f64..1.0, acc_b in 0.0f64..1.0,
    ) {
        let fb = |cov, acc| IntervalFeedback {
            accuracy: acc,
            coverage: cov,
            lateness: 0.0,
            pollution: 0.0,
            level: Aggressiveness::Moderate,
        };
        let mut p = CoordinatedThrottle::default();
        let d = p.adjust(&[fb(cov_a, acc_a), fb(cov_b, acc_b)]);
        prop_assert_eq!(d[0], table3(cov_a, acc_a, cov_b));
        prop_assert_eq!(d[1], table3(cov_b, acc_b, cov_a));
    }
}

// ---------------------------------------------------------------- dram

proptest! {
    #[test]
    fn every_dram_read_completes_after_min_latency(
        blocks in proptest::collection::vec(0u32..4096, 1..32)
    ) {
        let cfg = DramConfig::default();
        let min_access = cfg.controller_overhead + cfg.row_hit_cycles + cfg.bus_transfer_cycles;
        let mut dram = Dram::new(cfg, 1);
        let n = blocks.len();
        let mut accepted = 0usize;
        for (i, b) in blocks.iter().enumerate() {
            let ok = dram.try_enqueue(DramRequest {
                block_addr: b * 64,
                is_write: false,
                is_demand: true,
                core: 0,
                mshr_slot: i as u32,
                enqueue_cycle: 0,
            });
            if ok {
                accepted += 1;
            }
        }
        let mut done = 0usize;
        let mut now = 0u64;
        while done < accepted && now < 1_000_000 {
            now += 1;
            for c in dram.tick(now) {
                prop_assert!(c.finish_cycle >= min_access);
                done += 1;
            }
        }
        prop_assert_eq!(done, accepted, "all accepted reads must complete");
        prop_assert_eq!(dram.bus_transfers(), accepted as u64);
        let _ = n;
    }
}

// ---------------------------------------------------------------- engine

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn machine_retires_arbitrary_traces(
        ops in proptest::collection::vec((0u32..2000u32, 0u8..10u8, 1u32..20), 1..120)
    ) {
        // Random mixes of loads, stores and compute bursts, with random
        // (valid, backwards) address dependences.
        let mut tb = TraceBuilder::new(SimMemory::new());
        let mut load_ids = Vec::new();
        for (addr_word, kind, count) in ops {
            let addr = layout::HEAP_BASE + addr_word * 4;
            match kind {
                0..=4 => {
                    let dep = if kind % 2 == 0 { load_ids.last().copied() } else { None };
                    let (_, id) = tb.load(0x10 + u32::from(kind), addr, dep);
                    load_ids.push(id);
                }
                5..=6 => tb.store(0x20, addr, count, None),
                _ => tb.compute(count),
            }
        }
        let trace = tb.finish();
        let expected = trace.instructions;
        let mut machine = Machine::new(MachineConfig::default());
        let stats = machine.run(&trace).expect("run");
        prop_assert_eq!(stats.retired_instructions, expected);
        prop_assert!(stats.cycles > 0);
    }
}

// ------------------------------------------------- event skip-ahead engine
//
// The event-skipping clock must be an invisible optimisation: running the
// same trace on the cycle-by-cycle reference stepper has to reproduce the
// statistics (and the interval time series) byte for byte, across
// randomized machine shapes, workloads, system assemblies and core counts.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn skip_ahead_matches_reference_stepper_on_random_traces(
        ops in proptest::collection::vec((0u32..2000u32, 0u8..10u8, 1u32..20), 1..120),
        window_size in 8u32..64,
        lsq_size in 4u32..32,
        l2_mshrs in 2u32..16,
    ) {
        let mut tb = TraceBuilder::new(SimMemory::new());
        let mut load_ids = Vec::new();
        for (addr_word, kind, count) in ops {
            let addr = layout::HEAP_BASE + addr_word * 4;
            match kind {
                0..=4 => {
                    let dep = if kind % 2 == 0 { load_ids.last().copied() } else { None };
                    let (_, id) = tb.load(0x10 + u32::from(kind), addr, dep);
                    load_ids.push(id);
                }
                5..=6 => tb.store(0x20, addr, count, None),
                _ => tb.compute(count),
            }
        }
        let trace = tb.finish();
        let mut cfg = MachineConfig::default();
        cfg.core.window_size = window_size;
        cfg.core.lsq_size = lsq_size;
        cfg.l2_mshrs = l2_mshrs;
        let skipping = Machine::new(cfg.clone()).run(&trace).expect("run");
        let mut reference = Machine::new(cfg);
        reference.set_reference_stepping(true);
        let reference = reference.run(&trace).expect("run");
        prop_assert_eq!(skipping, reference);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn skip_ahead_matches_reference_on_assembled_systems(
        workload_idx in 0usize..3,
        system_idx in 0usize..3,
        interval_evictions in 64u64..512,
        chip_idx in 0usize..3,
    ) {
        use ecdp::system::{core_setup, CompilerArtifacts, SystemBuilder, SystemKind};
        use sim_core::ObsConfig;

        const WORKLOADS: [&str; 3] = ["mst", "health", "libquantum"];
        let system = [
            SystemKind::StreamOnly,
            SystemKind::StreamCdp,
            SystemKind::StreamEcdpThrottled,
        ][system_idx];
        let artifacts = CompilerArtifacts::empty();
        // Shrink the interval so the short test input crosses several
        // sampling boundaries — boundaries are skip targets, so this
        // exercises the interval-as-event path.
        let cfg = MachineConfig { interval_evictions, ..MachineConfig::default() };
        let obs = ObsConfig { timeseries: true, decisions: true, ..ObsConfig::default() };
        // Every case checks the one-core system on the first trace; most
        // also check a 2- or 4-core chip of it, where core c replays the
        // workload after core c-1's so the cores contend on the shared bus
        // with different access streams.
        let cores = [1usize, 2, 4][chip_idx];
        let traces: Vec<sim_core::Trace> = (0..cores)
            .map(|c| {
                workloads::registry::lookup(WORKLOADS[(workload_idx + c) % WORKLOADS.len()])
                    .expect("workload")
                    .generate(workloads::InputSet::Test)
            })
            .collect();
        let run = |no_skip: bool| {
            SystemBuilder::new(system)
                .artifacts(&artifacts)
                .config(cfg.clone())
                .observe(obs)
                .reference_stepping(no_skip)
                .run(&traces[0])
                .expect("run")
        };
        let skipping = run(false);
        let reference = run(true);
        prop_assert_eq!(&skipping.stats, &reference.stats);
        let skip_ts = skipping.trace.expect("trace").timeseries_json().to_string_pretty();
        let ref_ts = reference.trace.expect("trace").timeseries_json().to_string_pretty();
        prop_assert_eq!(skip_ts, ref_ts, "timeseries.json must be byte-identical");
        if cores > 1 {
            let run = |no_skip: bool| {
                let setups = (0..cores).map(|_| core_setup(system, &artifacts)).collect();
                let mut chip = Machine::with_cores(cfg.clone(), setups);
                chip.set_obs(obs).set_reference_stepping(no_skip);
                chip.run_cores(&traces.iter().collect::<Vec<_>>()).expect("run")
            };
            let skipping = run(false);
            let reference = run(true);
            prop_assert_eq!(skipping.traces.len(), cores);
            for (s, r) in skipping.traces.iter().zip(&reference.traces) {
                prop_assert_eq!(
                    s.timeseries_json().to_string_pretty(),
                    r.timeseries_json().to_string_pretty(),
                    "per-core timeseries.json must be byte-identical"
                );
            }
            prop_assert_eq!(skipping, reference);
        }
    }
}

// ------------------------------------------------- warm-state checkpoint/fork
//
// Forking a system from a warm snapshot — directly, or after a round
// trip through the wire format — must be invisible: the forked run's
// statistics and interval time series have to match the cold run byte
// for byte, across randomized workloads, systems, interval lengths and
// capture points. Mirrors the skip-vs-no-skip suite above; the
// `validate` feature arms the runtime invariants for all of them.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn warm_fork_matches_cold_run_on_assembled_systems(
        workload_idx in 0usize..3,
        system_idx in 0usize..3,
        interval_evictions in 64u64..512,
        checkpoint_tenths in 1u64..9,
    ) {
        use ecdp::system::{CompilerArtifacts, SystemBuilder, SystemKind};
        use sim_core::{ObsConfig, Snapshot};

        let workload = ["mst", "health", "libquantum"][workload_idx];
        let system = [
            SystemKind::StreamOnly,
            SystemKind::StreamCdp,
            SystemKind::StreamEcdpThrottled,
        ][system_idx];
        let trace = workloads::registry::lookup(workload)
            .expect("workload")
            .generate(workloads::InputSet::Test);
        let artifacts = CompilerArtifacts::empty();
        let cfg = MachineConfig { interval_evictions, ..MachineConfig::default() };
        let obs = ObsConfig { timeseries: true, decisions: true, ..ObsConfig::default() };
        let build = || {
            SystemBuilder::new(system)
                .artifacts(&artifacts)
                .config(cfg.clone())
                .observe(obs)
        };

        let cold = build().run(&trace).expect("cold run");
        // Capture somewhere strictly inside the run (10%..80%).
        let at = (cold.stats.cycles * checkpoint_tenths / 10).max(1);
        let captured = build().warm_checkpoint(at).run(&trace).expect("capture run");
        prop_assert_eq!(&captured.stats, &cold.stats, "capture must be a pure read");
        let snapshot = captured.snapshot.expect("run passed the capture point");

        let forked = build().fork_from(&snapshot).run(&trace).expect("forked run");
        let restored = Snapshot::from_bytes(&snapshot.to_bytes()).expect("wire round-trip");
        let rewired = build().fork_from(&restored).run(&trace).expect("restored run");

        let cold_ts = cold.trace.expect("trace").timeseries_json().to_string_pretty();
        for (tag, run) in [("forked", forked), ("wire-restored", rewired)] {
            prop_assert_eq!(&run.stats, &cold.stats, "{} stats diverged", tag);
            let ts = run.trace.expect("trace").timeseries_json().to_string_pretty();
            prop_assert_eq!(&ts, &cold_ts, "{} timeseries must be byte-identical", tag);
        }
    }
}
