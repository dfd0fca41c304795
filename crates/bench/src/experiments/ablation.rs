//! Ablation studies for the design choices the paper fixes by fiat:
//! the number of compare bits, the maximum recursion depth, the sampling
//! interval length, the hint-vector usefulness threshold — plus the paper's
//! stated "ongoing work": coordinated throttling across *three*
//! prefetchers.

use ecdp::hints::HintTable;
use ecdp::profile::profile_workload;
use ecdp::system::SystemKind;
use prefetch::{
    AllowAll, CdpConfig, ContentDirectedPrefetcher, GhbConfig, GhbPrefetcher, StreamConfig,
    StreamPrefetcher,
};
use sim_core::{
    Aggressiveness, DramScheduling, Machine, MachineConfig, PrefetcherId, RowPolicy, RunStats,
    Trace,
};
use throttle::CoordinatedThrottle;
use workloads::InputSet;

use crate::table::{f2, Table};
use crate::Lab;

/// A representative subset of the pointer suite for parameter sweeps
/// (covering the CDP-hostile, CDP-friendly and mixed regimes).
const SWEEP_BENCHES: [&str; 5] = ["mst", "health", "perlbench", "xalancbmk", "pfast"];

fn run_with(
    trace: &Trace,
    hints: Option<&HintTable>,
    compare_bits: u32,
    fixed_level: Option<Aggressiveness>,
    throttled: bool,
    interval: u64,
) -> RunStats {
    let cfg = MachineConfig {
        interval_evictions: interval,
        ..Default::default()
    };
    let mut m = Machine::new(cfg);
    m.add_prefetcher(Box::new(StreamPrefetcher::new(
        PrefetcherId(0),
        StreamConfig::default(),
    )));
    let filter: Box<dyn prefetch::ScanFilter> = match hints {
        Some(h) => Box::new(h.clone()),
        None => Box::new(AllowAll),
    };
    let mut cdp =
        ContentDirectedPrefetcher::new(PrefetcherId(1), CdpConfig { compare_bits }, filter);
    if let Some(level) = fixed_level {
        use sim_core::Prefetcher;
        cdp.set_aggressiveness(level);
    }
    m.add_prefetcher(Box::new(cdp));
    if throttled {
        m.set_throttle(Box::new(CoordinatedThrottle::default()));
    }
    m.run(trace).expect("ablation run failed")
}

/// The "Ablations and extensions" report section: every study of this
/// module plus the extended prefetcher comparison, under one heading.
pub fn ablations(lab: &Lab) -> String {
    let mut report = String::from("# Ablations and extensions\n\n");
    for study in [
        compare_bits_sweep as fn(&Lab) -> String,
        recursion_depth_sweep,
        interval_sweep,
        hint_threshold_sweep,
        profile_quality,
        dram_policy_sweep,
        three_prefetchers,
        crate::experiments::compare::extended_prefetchers,
    ] {
        report.push_str(&study(lab));
        report.push('\n');
    }
    report
}

/// Sweep the CDP compare-bits parameter (paper §5 fixes it at 8 of 32).
pub fn compare_bits_sweep(lab: &Lab) -> String {
    let bits = [4u32, 8, 12, 16];
    let mut headers = vec!["bench".to_string()];
    headers.extend(bits.iter().map(|b| format!("{b} bits")));
    let mut t = Table::new(headers);
    for name in SWEEP_BENCHES {
        let art = lab.artifacts(name);
        let base = lab.run(name, SystemKind::StreamOnly).ipc();
        let trace = lab.trace(name, InputSet::Ref);
        let mut cells = vec![name.to_string()];
        for b in bits {
            let s = run_with(&trace, Some(&art.hints), b, None, true, 8192);
            cells.push(f2(s.ipc() / base));
        }
        t.row(cells);
    }
    format!(
        "## Ablation — CDP compare bits (speedup of ECDP+throttle vs baseline)\n\n{}\n\
         The paper fixes 8 compare bits. Fewer bits admit more false pointers; more bits\n\
         reject cross-region pointers. In this address-space layout the heap shares its\n\
         top byte, so 4–8 behave alike and 16 starts rejecting distant heap pointers.\n",
        t.to_markdown()
    )
}

/// Sweep the maximum recursion depth with throttling disabled
/// (paper Table 2 ties depth 1–4 to the aggressiveness ladder).
pub fn recursion_depth_sweep(lab: &Lab) -> String {
    let levels = [
        (Aggressiveness::VeryConservative, "depth 1"),
        (Aggressiveness::Conservative, "depth 2"),
        (Aggressiveness::Moderate, "depth 3"),
        (Aggressiveness::Aggressive, "depth 4"),
    ];
    let mut headers = vec!["bench".to_string()];
    headers.extend(levels.iter().map(|(_, l)| l.to_string()));
    let mut t = Table::new(headers);
    for name in SWEEP_BENCHES {
        let art = lab.artifacts(name);
        let base = lab.run(name, SystemKind::StreamOnly).ipc();
        let trace = lab.trace(name, InputSet::Ref);
        let mut cells = vec![name.to_string()];
        for (level, _) in levels {
            let s = run_with(&trace, Some(&art.hints), 8, Some(level), false, 8192);
            cells.push(f2(s.ipc() / base));
        }
        t.row(cells);
    }
    format!(
        "## Ablation — fixed CDP recursion depth, unthrottled ECDP\n\n{}\n\
         Depth is the CDP aggressiveness knob: chains need depth to sprint ahead of the\n\
         demand stream (health), while junk-heavy expansions want depth 1 (mst) — which\n\
         is exactly why the paper throttles it dynamically.\n",
        t.to_markdown()
    )
}

/// Sweep the feedback-sampling interval (paper §4.1 fixes 8192 evictions).
pub fn interval_sweep(lab: &Lab) -> String {
    let intervals = [1024u64, 4096, 8192, 32768];
    let mut headers = vec!["bench".to_string()];
    headers.extend(intervals.iter().map(|i| format!("{i} ev")));
    let mut t = Table::new(headers);
    for name in SWEEP_BENCHES {
        let art = lab.artifacts(name);
        let base = lab.run(name, SystemKind::StreamOnly).ipc();
        let trace = lab.trace(name, InputSet::Ref);
        let mut cells = vec![name.to_string()];
        for i in intervals {
            let s = run_with(&trace, Some(&art.hints), 8, None, true, i);
            cells.push(f2(s.ipc() / base));
        }
        t.row(cells);
    }
    format!(
        "## Ablation — feedback sampling interval (ECDP+throttle speedup)\n\n{}\n\
         Shorter intervals react faster but on noisier counters; the paper's 8192-eviction\n\
         interval sits on the flat part of the curve.\n",
        t.to_markdown()
    )
}

/// Sweep the PG usefulness threshold used to classify beneficial groups
/// (the paper uses majority, i.e. 50%).
pub fn hint_threshold_sweep(lab: &Lab) -> String {
    let thresholds = [0.25f64, 0.5, 0.75];
    let mut headers = vec!["bench".to_string()];
    headers.extend(thresholds.iter().map(|t| format!(">{:.0}%", t * 100.0)));
    let mut t = Table::new(headers);
    for name in SWEEP_BENCHES {
        let base = lab.run(name, SystemKind::StreamOnly).ipc();
        let profile = lab.profile(name).clone();
        let trace = lab.trace(name, InputSet::Ref);
        let mut cells = vec![name.to_string()];
        for &th in &thresholds {
            // Rebuild the hint table at a different usefulness bar.
            let mut table = HintTable::new();
            let mut vectors: std::collections::HashMap<u32, ecdp::hints::HintVector> =
                std::collections::HashMap::new();
            for (pg, u) in &profile.pgs {
                let resolved = u.useful + u.useless;
                if resolved >= profile.min_samples && u.usefulness() > th {
                    let off = i32::from(pg.offset);
                    if off % 4 == 0 && (-64..=60).contains(&off) {
                        vectors.entry(pg.pc).or_default().set(off);
                    }
                }
            }
            for (pc, v) in vectors {
                table.insert(pc, v);
            }
            let s = run_with(&trace, Some(&table), 8, None, true, 8192);
            cells.push(f2(s.ipc() / base));
        }
        t.row(cells);
    }
    format!(
        "## Ablation — pointer-group usefulness threshold\n\n{}\n\
         The paper classifies a PG as beneficial when the majority (>50%) of its\n\
         prefetches are useful (footnote 4: lower bars lose performance).\n",
        t.to_markdown()
    )
}

/// Extension (paper §4.2 \"ongoing work\"): coordinated throttling across
/// *three* prefetchers — stream + ECDP + GHB — using the same
/// prefetcher-symmetric heuristics with max-rival coverage.
pub fn three_prefetchers(lab: &Lab) -> String {
    let mut t = Table::new(vec![
        "bench",
        "2pf (stream+ecdp, throttled)",
        "3pf unthrottled",
        "3pf throttled",
    ]);
    let mut two = Vec::new();
    let mut three_raw = Vec::new();
    let mut three_thr = Vec::new();
    for name in crate::experiments::POINTER_BENCHES {
        let art = lab.artifacts(name);
        let base = lab.run(name, SystemKind::StreamOnly).ipc();
        let two_r = lab.run(name, SystemKind::StreamEcdpThrottled).ipc() / base;
        let trace = lab.trace(name, InputSet::Ref);
        let run3 = |throttled: bool| {
            let mut m = Machine::new(MachineConfig::default());
            m.add_prefetcher(Box::new(StreamPrefetcher::new(
                PrefetcherId(0),
                StreamConfig::default(),
            )));
            m.add_prefetcher(Box::new(ContentDirectedPrefetcher::new(
                PrefetcherId(1),
                CdpConfig::default(),
                Box::new(art.hints.clone()),
            )));
            m.add_prefetcher(Box::new(GhbPrefetcher::new(
                PrefetcherId(2),
                GhbConfig::default(),
            )));
            if throttled {
                m.set_throttle(Box::new(CoordinatedThrottle::default()));
            }
            m.run(&trace).expect("ablation run failed").ipc() / base
        };
        let raw = run3(false);
        let thr = run3(true);
        two.push(two_r);
        three_raw.push(raw);
        three_thr.push(thr);
        t.row(vec![name.to_string(), f2(two_r), f2(raw), f2(thr)]);
    }
    format!(
        "## Extension — coordinated throttling of three prefetchers (§4.2 ongoing work)\n\n{}\n\
         gmeans: 2pf {:.3}, 3pf unthrottled {:.3}, 3pf throttled {:.3}\n\
         The Table 3 heuristics are prefetcher-symmetric: each prefetcher decides against\n\
         the *maximum* rival coverage, so adding a third (GHB) prefetcher needs no new\n\
         mechanism. Throttling keeps the three-way hybrid from degenerating into a\n\
         bandwidth fight.\n",
        t.to_markdown(),
        crate::gmean(&two),
        crate::gmean(&three_raw),
        crate::gmean(&three_thr)
    )
}

/// Sweep the memory controller's scheduling and row-buffer policies under
/// the full proposal (the simulator defaults to FR-FCFS + demand-first +
/// open page, the configuration the paper's §4 resource-contention
/// discussion assumes).
pub fn dram_policy_sweep(lab: &Lab) -> String {
    let configs: [(&str, DramScheduling, RowPolicy); 4] = [
        (
            "frfcfs+demand",
            DramScheduling::FrFcfsDemandFirst,
            RowPolicy::OpenPage,
        ),
        ("frfcfs", DramScheduling::FrFcfs, RowPolicy::OpenPage),
        ("fcfs", DramScheduling::Fcfs, RowPolicy::OpenPage),
        (
            "closed-page",
            DramScheduling::FrFcfsDemandFirst,
            RowPolicy::ClosedPage,
        ),
    ];
    let mut headers = vec!["bench".to_string()];
    headers.extend(configs.iter().map(|(l, _, _)| l.to_string()));
    let mut t = Table::new(headers);
    for name in SWEEP_BENCHES {
        let art = lab.artifacts(name);
        let base = lab.run(name, SystemKind::StreamOnly).ipc();
        let trace = lab.trace(name, InputSet::Ref);
        let mut cells = vec![name.to_string()];
        for (_, sched, row) in configs {
            let mut cfg = MachineConfig::default();
            cfg.dram.scheduling = sched;
            cfg.dram.row_policy = row;
            let mut m = Machine::new(cfg);
            m.add_prefetcher(Box::new(StreamPrefetcher::new(
                PrefetcherId(0),
                StreamConfig::default(),
            )));
            m.add_prefetcher(Box::new(ContentDirectedPrefetcher::new(
                PrefetcherId(1),
                CdpConfig::default(),
                Box::new(art.hints.clone()),
            )));
            m.set_throttle(Box::new(CoordinatedThrottle::default()));
            cells.push(f2(m.run(&trace).expect("ablation run failed").ipc() / base));
        }
        t.row(cells);
    }
    format!(
        "## Ablation — DRAM scheduling and row-buffer policy (ECDP+throttle speedup)

{}
         Demand-first prioritisation is what keeps useless prefetches from delaying
         demand misses at the banks; without it (plain FR-FCFS/FCFS) prefetch-heavy
         benchmarks lose ground, and closed-page forfeits the row locality the
         streaming sweeps rely on.
",
        t.to_markdown()
    )
}

/// Sensitivity of profiling to train-input size (a calibration hazard this
/// reproduction hit: cache-resident train inputs misclassify junk PGs).
pub fn profile_quality(lab: &Lab) -> String {
    let mut t = Table::new(vec![
        "bench",
        "hints (train)",
        "beneficial/harmful",
        "hints (ref)",
    ]);
    for name in SWEEP_BENCHES {
        let p_train = lab.profile(name).clone();
        let (b, h) = p_train.counts();
        let ref_trace = lab.trace(name, InputSet::Ref);
        let p_ref = profile_workload(&ref_trace);
        t.row(vec![
            name.to_string(),
            p_train.hint_table().len().to_string(),
            format!("{b}/{h}"),
            p_ref.hint_table().len().to_string(),
        ]);
    }
    format!(
        "## Ablation — profile stability across inputs\n\n{}\n\
         The hint tables derived from train and ref inputs select essentially the same\n\
         loads — the basis of the paper's §6.1.6 insensitivity claim.\n",
        t.to_markdown()
    )
}
