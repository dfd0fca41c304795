//! Ablation studies for the design choices the paper fixes by fiat:
//! the number of compare bits, the maximum recursion depth, the sampling
//! interval length, the hint-vector usefulness threshold — plus the paper's
//! stated "ongoing work": coordinated throttling across *three*
//! prefetchers. Each variant is a [`SystemSpec`] the `Lab` runs and
//! memoizes; a variant that restates the default is the Figure 7 run.

use ecdp::system::{HintSource, SystemKind, SystemSpec};
use sim_core::{Aggressiveness, DramScheduling, MachineConfig, RowPolicy};
use workloads::InputSet;

use crate::table::{f2, Table};
use crate::Lab;

/// A representative subset of the pointer suite for parameter sweeps
/// (covering the CDP-hostile, CDP-friendly and mixed regimes).
const SWEEP_BENCHES: [&str; 5] = ["mst", "health", "perlbench", "xalancbmk", "pfast"];

/// The full proposal: stream + ECDP + coordinated throttling.
const PROPOSAL: SystemSpec = SystemSpec::of(SystemKind::StreamEcdpThrottled);

/// The table of one parameter sweep: a row per [`SWEEP_BENCHES`] workload
/// and a column per labelled spec, each cell the spec's speedup.
fn sweep_table(lab: &Lab, columns: &[(String, SystemSpec)]) -> String {
    let mut headers = vec!["bench".to_string()];
    headers.extend(columns.iter().map(|(label, _)| label.clone()));
    let mut t = Table::new(headers);
    for name in SWEEP_BENCHES {
        let mut cells = vec![name.to_string()];
        cells.extend(columns.iter().map(|(_, spec)| f2(lab.speedup(name, spec))));
        t.row(cells);
    }
    t.to_markdown()
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
    let bits = [4u32, 8, 12, 16].map(|b| (format!("{b} bits"), PROPOSAL.compare_bits(b)));
    let table = sweep_table(lab, &bits);
    format!(
        "## Ablation — CDP compare bits (speedup of ECDP+throttle vs baseline)\n\n{table}\n\
         The paper fixes 8 compare bits. Fewer bits admit more false pointers; more bits\n\
         reject cross-region pointers. Here 12 bits is best on 4 of 5 benchmarks (mst 1.54\n\
         vs 1.29 at 8 bits, health 2.61 vs 2.10; xalancbmk is flat), 4 bits already loses\n\
         to 8 (mst 1.21 vs 1.29, pfast 1.06 vs 1.16), and 16 bits gives part of the gain\n\
         back (mst 1.31, perlbench 1.10).\n"
    )
}

/// Sweep the maximum recursion depth with throttling disabled
/// (paper Table 2 ties depth 1–4 to the aggressiveness ladder).
pub fn recursion_depth_sweep(lab: &Lab) -> String {
    let levels = [
        ("depth 1", Aggressiveness::VeryConservative),
        ("depth 2", Aggressiveness::Conservative),
        ("depth 3", Aggressiveness::Moderate),
        ("depth 4", Aggressiveness::Aggressive),
    ]
    .map(|(label, level)| {
        let spec = SystemSpec::of(SystemKind::StreamEcdp).pin(1, level);
        (label.to_string(), spec)
    });
    let table = sweep_table(lab, &levels);
    format!(
        "## Ablation — fixed CDP recursion depth, unthrottled ECDP\n\n{table}\n\
         Depth is the CDP aggressiveness knob: chains need depth to sprint ahead of the\n\
         demand stream (health, 1.17 at depth 1 to 2.10 at depth 4), mst peaks at depth 2\n\
         (1.38 vs 1.30 at depth 1), and junk-heavy expansions want depth 1 (pfast, 1.09\n\
         falling to 0.82). No one depth suits every benchmark, which is exactly why the\n\
         paper throttles it dynamically.\n"
    )
}

/// Sweep the feedback-sampling interval (paper §4.1 fixes 8192 evictions).
pub fn interval_sweep(lab: &Lab) -> String {
    let intervals = [1024u64, 4096, 8192, 32768].map(|interval_evictions| {
        let config = MachineConfig {
            interval_evictions,
            ..Default::default()
        };
        (format!("{interval_evictions} ev"), PROPOSAL.config(config))
    });
    let table = sweep_table(lab, &intervals);
    format!(
        "## Ablation — feedback sampling interval (ECDP+throttle speedup)\n\n{table}\n\
         Shorter intervals react faster but on noisier counters; the paper's 8192-eviction\n\
         interval sits on the flat part of the curve.\n"
    )
}

/// Sweep the PG usefulness threshold used to classify beneficial groups
/// (the paper uses majority, i.e. 50%).
pub fn hint_threshold_sweep(lab: &Lab) -> String {
    let thresholds =
        [25u8, 50, 75].map(|bar| (format!(">{bar}%"), PROPOSAL.hints(HintSource::TrainAt(bar))));
    let table = sweep_table(lab, &thresholds);
    format!(
        "## Ablation — pointer-group usefulness threshold\n\n{table}\n\
         The paper classifies a PG as beneficial when the majority (>50%) of its\n\
         prefetches are useful (footnote 4: lower bars lose performance).\n"
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
        let two_r = lab.speedup(name, &PROPOSAL);
        let raw = lab.speedup(name, &SystemSpec::of(SystemKind::StreamEcdp).with_ghb());
        let thr = lab.speedup(name, &PROPOSAL.with_ghb());
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
    let configs = configs.map(|(label, scheduling, row_policy)| {
        let mut config = MachineConfig::default();
        config.dram.scheduling = scheduling;
        config.dram.row_policy = row_policy;
        (label.to_string(), PROPOSAL.config(config))
    });
    let table = sweep_table(lab, &configs);
    format!(
        "## Ablation — DRAM scheduling and row-buffer policy (ECDP+throttle speedup)\n\n{table}\n\
         Demand-first prioritisation is what keeps useless prefetches from delaying\n\
         demand misses at the banks; without it (plain FR-FCFS/FCFS) prefetch-heavy\n\
         benchmarks lose ground, and closed-page forfeits the row locality the\n\
         streaming sweeps rely on.\n"
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
        let p_train = lab.profile(name);
        let (b, h) = p_train.counts();
        let p_ref = lab.profile_on(name, InputSet::Ref);
        t.row(vec![
            name.to_string(),
            p_train.hint_table().len().to_string(),
            format!("{b}/{h}"),
            p_ref.hint_table().len().to_string(),
        ]);
    }
    format!(
        "## Ablation — profile stability across inputs\n\n{}\n\
         The train and ref hint tables agree in size on health, perlbench and xalancbmk,\n\
         but not on mst and pfast: 2 hints on train and 0 on ref, so there the two inputs\n\
         do not select the same loads (§6.1.6 shows what the empty ref table costs mst).\n",
        t.to_markdown()
    )
}
