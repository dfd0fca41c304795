//! Comparison experiments: Figures 11–13 and the §6.3/§7.x studies.

use ecdp::system::{SystemKind, SystemSpec};

use crate::experiments::{gmean_with_without_health, POINTER_BENCHES};
use crate::table::{f2, pct, Table};
use crate::Lab;

fn comparison_report(
    lab: &Lab,
    title: &str,
    kinds: &[(SystemKind, &str)],
    paper_note: &str,
) -> String {
    let mut headers = vec!["bench".to_string()];
    for (_, l) in kinds {
        headers.push(format!("{l} speedup"));
    }
    for (_, l) in kinds {
        headers.push(format!("{l} ΔBPKI"));
    }
    let mut t = Table::new(headers);
    let mut per_kind: Vec<Vec<(&str, f64)>> = vec![Vec::new(); kinds.len()];
    let mut bw: Vec<Vec<f64>> = vec![Vec::new(); kinds.len()];
    for name in POINTER_BENCHES {
        let base = lab.run(name, SystemKind::StreamOnly);
        let mut cells = vec![name.to_string()];
        for (k, (kind, _)) in kinds.iter().enumerate() {
            let s = lab.run(name, *kind);
            let r = s.ipc() / base.ipc();
            per_kind[k].push((name, r));
            cells.push(f2(r));
        }
        for (k, (kind, _)) in kinds.iter().enumerate() {
            let s = lab.run(name, *kind);
            let r = s.bpki() / base.bpki().max(1e-9);
            bw[k].push(r);
            cells.push(format!("{:+.0}%", (r - 1.0) * 100.0));
        }
        t.row(cells);
    }
    let mut out = format!("## {title}\n\n{}\n", t.to_markdown());
    for (k, (_, label)) in kinds.iter().enumerate() {
        let (w, wo) = gmean_with_without_health(&per_kind[k]);
        out.push_str(&format!(
            "{label}: gmean speedup {} ({} w/o health), bandwidth ratio {:.2}x\n",
            pct(w),
            pct(wo),
            crate::gmean(&bw[k])
        ));
    }
    out.push_str(paper_note);
    out.push('\n');
    out
}

/// Figure 11: comparison to DBP, Markov, and GHB prefetching.
pub fn fig11(lab: &Lab) -> String {
    comparison_report(
        lab,
        "Figure 11 — comparison to LDS/correlation prefetchers",
        &[
            (SystemKind::StreamDbp, "stream+DBP"),
            (SystemKind::StreamMarkov, "stream+Markov"),
            (SystemKind::GhbAlone, "GHB"),
            (SystemKind::StreamEcdpThrottled, "ours"),
        ],
        "paper: the proposal outperforms DBP by 19%, Markov by 7.2% and GHB by 8.9%\n\
         (12.7%/7.1%/5% w/o health) at 2.11 KB vs 3 KB / 1 MB / 12 KB of storage;\n\
         it uses 22.7%/29% less bandwidth than DBP/Markov and 22% more than GHB.",
    )
}

/// Figure 12: comparison to Zhuang–Lee hardware prefetch filtering.
pub fn fig12(lab: &Lab) -> String {
    comparison_report(
        lab,
        "Figure 12 — comparison to hardware prefetch filtering",
        &[
            (SystemKind::StreamCdp, "CDP"),
            (SystemKind::StreamCdpHwFilter, "CDP+HWfilter"),
            (SystemKind::StreamCdpHwFilterThrottled, "HWfilter+throttle"),
            (SystemKind::StreamEcdpThrottled, "ours"),
        ],
        "paper: the 8 KB hardware filter alone improves performance by only 4.4% (1.5% w/o\n\
         health) and throttling helps it, but ECDP+throttling performs 17% better (14.2% w/o\n\
         health) with 25.8% less bandwidth at a quarter of the storage.",
    )
}

/// Figure 13: coordinated throttling vs feedback-directed prefetching.
pub fn fig13(lab: &Lab) -> String {
    comparison_report(
        lab,
        "Figure 13 — coordinated throttling vs FDP",
        &[
            (SystemKind::StreamEcdpFdp, "ECDP+FDP"),
            (SystemKind::StreamEcdpThrottled, "ECDP+coordinated"),
        ],
        "paper: coordinated throttling outperforms FDP by 5% (consuming 11% more bandwidth)\n\
         because FDP throttles each prefetcher in isolation and cannot see inter-prefetcher\n\
         interference.\n\
         note (reproduction): here FDP comes out slightly ahead - our stand-ins include\n\
         junk expansions that stay above the coverage threshold, where Table 3's case 1\n\
         keeps CDP aggressive while FDP's accuracy-first rule throttles it; the paper's\n\
         footnote 8 assumes such high-coverage/low-accuracy phases are rare.",
    )
}

/// §6.3 (end): ECDP and coordinated throttling are partly orthogonal —
/// adding them to a GHB baseline.
pub fn sec63(lab: &Lab) -> String {
    let mut t = Table::new(vec!["bench", "GHB", "GHB+ECDP", "GHB+ECDP+throttle"]);
    let mut ghb = Vec::new();
    let mut ge = Vec::new();
    let mut get = Vec::new();
    for name in POINTER_BENCHES {
        let base = lab.run(name, SystemKind::GhbAlone).ipc();
        let e = lab.run(name, SystemKind::GhbEcdp).ipc();
        let et = lab.run(name, SystemKind::GhbEcdpThrottled).ipc();
        t.row(vec![
            name.to_string(),
            "1.00".to_string(),
            f2(e / base),
            f2(et / base),
        ]);
        ghb.push((name, 1.0));
        ge.push((name, e / base));
        get.push((name, et / base));
    }
    let (e_w, _) = gmean_with_without_health(&ge);
    let (et_w, _) = gmean_with_without_health(&get);
    format!(
        "## §6.3 — ECDP on top of a GHB baseline (orthogonality)\n\n{}\n\
         GHB+ECDP vs GHB: {}; +throttling: {}\n\
         paper: ECDP adds 4.6% over GHB alone; coordinated throttling adds a further 2%\n\
         with 6.5% bandwidth savings.\n",
        t.to_markdown(),
        pct(e_w),
        pct(et_w)
    )
}

/// §7.1: GRP-style coarse-grained (per-load, all-or-nothing) control.
pub fn sec71(lab: &Lab) -> String {
    per_load_gate_report(
        lab,
        "§7.1 — GRP-style coarse-grained per-load control",
        SystemKind::StreamGrpCdp,
        "paper: controlling CDP at per-load granularity (GRP) yields a negligible 0.4%\n\
         improvement — the fine-grained per-pointer hints are what matters.",
    )
}

/// §7.2: Srinivasan-style per-triggering-load filtering.
pub fn sec72(lab: &Lab) -> String {
    per_load_gate_report(
        lab,
        "§7.2 — per-triggering-load prefetch filtering",
        SystemKind::StreamLoadFilterCdp,
        "paper: disabling prefetches per triggering load eliminates too many useful\n\
         prefetches and yields only ~1%.",
    )
}

fn per_load_gate_report(lab: &Lab, title: &str, kind: SystemKind, paper_note: &str) -> String {
    let mut t = Table::new(vec!["bench", "gate speedup", "ECDP+throttle speedup"]);
    let mut gate = Vec::new();
    let mut ours = Vec::new();
    for name in POINTER_BENCHES {
        let g = lab.speedup(name, &SystemSpec::of(kind));
        let o = lab.speedup(name, &SystemSpec::of(SystemKind::StreamEcdpThrottled));
        gate.push((name, g));
        ours.push((name, o));
        t.row(vec![name.to_string(), f2(g), f2(o)]);
    }
    let (g_w, g_wo) = gmean_with_without_health(&gate);
    let (o_w, _) = gmean_with_without_health(&ours);
    format!(
        "## {title}\n\n{}\ngate: gmean {} ({} w/o health); ours: {}\n{paper_note}\n",
        t.to_markdown(),
        pct(g_w),
        pct(g_wo),
        pct(o_w)
    )
}

/// Extended comparison: the related prefetchers the paper discusses but
/// does not plot — next-line, per-PC stride, hardware jump pointers
/// (§7.3, 64 KB) and AVD prediction (§7.3).
pub fn extended_prefetchers(lab: &Lab) -> String {
    comparison_report(
        lab,
        "Extended comparison — next-line, stride, jump-pointer and AVD prefetching",
        &[
            (SystemKind::NextLineOnly, "next-line"),
            (SystemKind::StrideOnly, "stride"),
            (SystemKind::StreamJumpPointer, "stream+jump"),
            (SystemKind::StreamAvd, "stream+AVD"),
            (SystemKind::StreamEcdpThrottled, "ours"),
        ],
        "paper (qualitative, §1/§7.3): pointer-storage prefetchers such as jump pointers
         need >=64 KB of state and only help repeat traversals of stable structures; AVD
         prediction is less effective when used for prefetching; and sequential/stride
         prefetchers cannot cover pointer chases at all. ECDP achieves LDS coverage with
         2.11 KB and no pointer storage.",
    )
}

/// §7.4: the PAB most-accurate-prefetcher-only selector.
pub fn sec74(lab: &Lab) -> String {
    let mut t = Table::new(vec!["bench", "PAB speedup", "PAB ΔBPKI", "ours speedup"]);
    let mut pab = Vec::new();
    let mut bw = Vec::new();
    for name in POINTER_BENCHES {
        let base = lab.run(name, SystemKind::StreamOnly);
        let p = lab.run(name, SystemKind::StreamEcdpPab);
        let o = lab.speedup(name, &SystemSpec::of(SystemKind::StreamEcdpThrottled));
        pab.push((name, p.ipc() / base.ipc()));
        bw.push(p.bpki() / base.bpki().max(1e-9));
        t.row(vec![
            name.to_string(),
            f2(p.ipc() / base.ipc()),
            format!("{:+.0}%", (p.bpki() / base.bpki().max(1e-9) - 1.0) * 100.0),
            f2(o),
        ]);
    }
    let (w, wo) = gmean_with_without_health(&pab);
    format!(
        "## §7.4 — PAB best-prefetcher-only selection\n\n{}\n\
         PAB gmean: {} ({} w/o health), bandwidth ratio {:.2}x\n\
         paper: PAB *reduces* average performance by 11% (while cutting bandwidth 6.7%)\n\
         because it ignores coverage and cannot throttle — it turns off prefetchers that\n\
         were carrying the performance.\n",
        t.to_markdown(),
        pct(w),
        pct(wo),
        crate::gmean(&bw)
    )
}
