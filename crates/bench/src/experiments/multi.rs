//! Multi-core experiments: Figure 14 (dual-core) and Figure 15 (4-core).
//!
//! Methodology notes: multi-core runs use the train-sized inputs to keep
//! single-CPU simulation turnaround practical; each core restarts its trace
//! until the slowest completes (as in the paper). Weighted speedup for
//! every configuration normalises shared-mode IPCs against the *baseline*
//! alone runs, so reported gains are shared-mode throughput improvements.

use ecdp::system::SystemKind;
use sim_core::{Machine, MachineConfig, MultiRunStats};
use workloads::InputSet;

use crate::table::{f2, pct, Table};
use crate::Lab;

/// The 12 dual-core workload mixes (pointer+pointer, mixed, and
/// non-intensive pairs, mirroring the paper's random selection policy).
pub const DUAL_CORE_MIXES: [(&str, &str); 12] = [
    ("xalancbmk", "astar"),
    ("mcf", "omnetpp"),
    ("mst", "health"),
    ("perlbench", "pfast"),
    ("mcf", "libquantum"),
    ("astar", "milc"),
    ("omnetpp", "hmmer"),
    ("xalancbmk", "lbm"),
    ("health", "h264ref"),
    ("bisort", "bwaves"),
    ("GemsFDTD", "h264ref"),
    ("libquantum", "hmmer"),
];

/// The 4 quad-core case studies: all-pointer, two mixed, one
/// non-pointer-intensive.
pub const QUAD_CORE_MIXES: [[&str; 4]; 4] = [
    ["mcf", "xalancbmk", "astar", "omnetpp"],
    ["health", "mst", "libquantum", "hmmer"],
    ["perlbench", "voronoi", "lbm", "milc"],
    ["astar", "GemsFDTD", "h264ref", "sjeng"],
];

/// Runs one mix under one system kind; returns the multi-core stats.
pub fn run_mix(lab: &Lab, names: &[&str], kind: SystemKind) -> MultiRunStats {
    let setups = names
        .iter()
        .map(|n| {
            let art = lab.artifacts(n);
            ecdp::system::core_setup(kind, &art)
        })
        .collect();
    let cached: Vec<_> = names
        .iter()
        .map(|n| lab.trace(n, InputSet::Train))
        .collect();
    let traces: Vec<&sim_core::Trace> = cached.iter().map(|t| &**t).collect();
    Machine::with_cores(MachineConfig::default(), setups)
        .run_cores(&traces)
        .expect("multi-core run failed")
}

/// Alone-run IPCs (single-core, same config, train input); memoised by
/// the lab's process-wide run cache.
fn alone_ipcs(lab: &Lab, names: &[&str], kind: SystemKind) -> Vec<f64> {
    names
        .iter()
        .map(|n| lab.run_on(n, InputSet::Train, kind).ipc())
        .collect()
}

fn multicore_report<const N: usize>(
    lab: &Lab,
    title: &str,
    mixes: &[[&str; N]],
    paper_note: &str,
) -> String {
    let kinds = [
        (SystemKind::StreamOnly, "base"),
        (SystemKind::StreamEcdpThrottled, "ours"),
        (SystemKind::StreamMarkov, "markov"),
        (SystemKind::GhbAlone, "ghb"),
        (SystemKind::StreamDbp, "dbp"),
    ];
    let mut headers = vec!["mix".to_string()];
    for (_, l) in kinds.iter().skip(1) {
        headers.push(format!("{l} WS gain"));
    }
    headers.push("ours Δbus".to_string());
    let mut t = Table::new(headers);
    let mut ws_gains: Vec<Vec<f64>> = vec![Vec::new(); kinds.len() - 1];
    let mut hs_gains: Vec<f64> = Vec::new();
    let mut bus_ratio = Vec::new();
    for mix in mixes {
        let names: Vec<&str> = mix.to_vec();
        let base_alone = alone_ipcs(lab, &names, SystemKind::StreamOnly);
        let base = run_mix(lab, &names, SystemKind::StreamOnly);
        let base_ws = base.weighted_speedup(&base_alone);
        let base_hs = base.hmean_speedup(&base_alone);
        let mut cells = vec![names.join("+")];
        for (k, (kind, _)) in kinds.iter().enumerate().skip(1) {
            // All configurations are normalised against the *baseline*
            // alone runs, so weighted-speedup gains reflect shared-mode
            // throughput improvements rather than contention sensitivity.
            let r = run_mix(lab, &names, *kind);
            let ws = r.weighted_speedup(&base_alone);
            ws_gains[k - 1].push(ws / base_ws);
            cells.push(f2(ws / base_ws));
            if *kind == SystemKind::StreamEcdpThrottled {
                hs_gains.push(r.hmean_speedup(&base_alone) / base_hs);
                let ratio = r.total_bus_transfers as f64 / base.total_bus_transfers.max(1) as f64;
                bus_ratio.push(ratio);
            }
        }
        let ratio = bus_ratio.last().copied().unwrap_or(1.0);
        cells.push(format!("{:+.0}%", (ratio - 1.0) * 100.0));
        t.row(cells);
    }
    let mut out = format!("## {title}\n\n{}\n", t.to_markdown());
    for (k, (_, label)) in kinds.iter().enumerate().skip(1) {
        out.push_str(&format!(
            "{label}: weighted-speedup gain gmean {}\n",
            pct(crate::gmean(&ws_gains[k - 1]))
        ));
    }
    out.push_str(&format!(
        "ours: hmean-speedup gain {}; bus traffic ratio {:.2}x\n{paper_note}\n",
        pct(crate::gmean(&hs_gains)),
        crate::gmean(&bus_ratio)
    ));
    out
}

/// Figure 14: dual-core weighted speedup and bus traffic.
pub fn fig14(lab: &Lab) -> String {
    let mixes: Vec<[&str; 2]> = DUAL_CORE_MIXES.iter().map(|(a, b)| [*a, *b]).collect();
    multicore_report(
        lab,
        "Figure 14 — dual-core results",
        &mixes,
        "paper: ours improves weighted speedup 10.4% and hmean speedup 9.9% while cutting\n\
         bus traffic 14.9%; Markov gains 4.1% but adds 19.5% traffic; GHB gains 6.2%;\n\
         DBP is ineffective under multi-core miss latencies.",
    )
}

/// Figure 15: 4-core case studies.
pub fn fig15(lab: &Lab) -> String {
    multicore_report(
        lab,
        "Figure 15 — 4-core results",
        &QUAD_CORE_MIXES,
        "paper: ours improves weighted/hmean speedup by 9.5%/9.7% and cuts bus traffic\n\
         15.3%, exceeding the Markov and GHB prefetchers at far lower storage cost.",
    )
}
