//! `quad-core`: the first Figure 15 mix (all four benchmarks
//! pointer-intensive) through `experiments::multi::run_mix`, i.e. the
//! separate `MultiMachine::run` loop with its shared-bus contention,
//! under `stream` and `stream+ecdp+throttle`.
//!
//! A pass builds a fresh `Lab`, generates the four train traces and
//! profiles them (set-up), then runs both systems on two threads in a
//! seeded order (the sweep). Only the first mix is measured: the other
//! three take 5–12 s per system on train inputs, too long for several
//! passes per run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use bench::experiments::multi::{run_mix, QUAD_CORE_MIXES};
use bench::{FaultPlan, Lab};
use ecdp::system::SystemKind;
use sim_core::MultiRunStats;
use workloads::InputSet;

use crate::report::{set_end_to_end, JobPool, PassSample, Report, QUAD_SYSTEMS};
use crate::rng::Rng;
use crate::spans::{self, Tracer};
use crate::stats::digest_lines;
use crate::{metric_label, peak_rss_mib, RunConfig, JOBS, MAX_MEASURE_SECS, MIN_PASSES};

/// The measured mix.
pub const MIX: [&str; 4] = QUAD_CORE_MIXES[0];

struct Pass {
    setup_s: f64,
    sweep_s: f64,
    /// (system, stats) per mix run, in system order.
    jobs: Vec<(SystemKind, MultiRunStats)>,
    lab: Lab,
}

fn pass(cfg: &RunConfig, idx: usize, tracer: Option<&Tracer>) -> Pass {
    let timed = |name: &'static str, label: String, parent, f: &mut dyn FnMut()| match tracer {
        Some(t) => t.time(name, label, parent, None, |_| f()),
        None => f(),
    };
    let t0 = Instant::now();
    let lab = Lab::with_checkpoints(FaultPlan::none(), None);
    let setup = |parent: Option<usize>| {
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..JOBS {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&n) = MIX.get(i) else { break };
                    timed(
                        "workloads.generate",
                        format!("{n}/train"),
                        parent,
                        &mut || {
                            lab.trace(n, InputSet::Train);
                        },
                    );
                    timed("profile.run", n.to_string(), parent, &mut || {
                        lab.profile(n);
                    });
                    timed("hints.derive", n.to_string(), parent, &mut || {
                        lab.artifacts(n);
                    });
                });
            }
        });
    };
    match tracer {
        Some(t) => t.time("setup", "quad-core", None, None, setup),
        None => setup(None),
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let order = Rng::new(cfg.seed, 0x7175_6164 + idx as u64).permutation(QUAD_SYSTEMS.len());
    let next = AtomicUsize::new(0);
    let mut slots: Vec<OnceLock<MultiRunStats>> = Vec::new();
    slots.resize_with(QUAD_SYSTEMS.len(), OnceLock::new);
    let t1 = Instant::now();
    let sweep = |parent: Option<usize>| {
        std::thread::scope(|s| {
            for _ in 0..JOBS {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&j) = order.get(i) else { break };
                    let kind = QUAD_SYSTEMS[j];
                    let stats = match tracer {
                        Some(tr) => tr.time("multicore.run", kind.label(), parent, Some(j), |_| {
                            run_mix(&lab, &MIX, kind)
                        }),
                        None => run_mix(&lab, &MIX, kind),
                    };
                    let _ = slots[j].set(stats);
                });
            }
        });
    };
    match tracer {
        Some(t) => t.time("sweep", "quad-core", None, None, sweep),
        None => sweep(None),
    }
    let sweep_s = t1.elapsed().as_secs_f64();
    let jobs = slots
        .into_iter()
        .zip(QUAD_SYSTEMS)
        .map(|(slot, kind)| (kind, slot.into_inner().expect("every mix run finished")))
        .collect();
    Pass {
        setup_s,
        sweep_s,
        jobs,
        lab,
    }
}

fn digest(p: &Pass) -> String {
    digest_lines(
        p.jobs
            .iter()
            .flat_map(|(kind, stats)| {
                stats.per_core.iter().enumerate().map(move |(core, s)| {
                    format!(
                        "{}/{}/core{core} {}",
                        MIX.join("+"),
                        kind.label(),
                        s.summary().to_json().to_string_compact()
                    )
                })
            })
            .collect(),
    )
}

fn retired(stats: &MultiRunStats) -> f64 {
    stats
        .per_core
        .iter()
        .map(|s| s.retired_instructions as f64)
        .sum()
}

fn check(p: &Pass, r: &mut Report) {
    let pgs: usize = MIX.iter().map(|n| p.lab.profile(n).pgs.len()).sum();
    r.check(pgs > 0, || {
        "real-hints gate: every train profile of the mix came back empty".to_string()
    });
    for (kind, stats) in &p.jobs {
        r.check(
            stats.per_core.len() == MIX.len() && stats.total_bus_transfers > 0,
            || format!("{}: malformed multi-core result", kind.label()),
        );
    }
}

/// Runs the quad-core workload.
pub fn run(cfg: &RunConfig) -> Report {
    let mut r = Report::default();
    if cfg.traced {
        run_traced(cfg, &mut r);
        return r;
    }
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut digests: Vec<String> = Vec::new();
    let mut last: Option<Pass> = None;
    let mut first_pass_rss = None;
    while samples.len() < MIN_PASSES
        || (start.elapsed().as_secs_f64() < cfg.seconds
            && start.elapsed().as_secs_f64() < MAX_MEASURE_SECS)
    {
        // Free the previous pass's lab first, so peak RSS is one pass's.
        drop(last.take());
        let p = pass(cfg, samples.len(), None);
        eprintln!(
            "[perfbench] quad-core pass {}: setup {:.3} s, sweep {:.3} s",
            samples.len(),
            p.setup_s,
            p.sweep_s
        );
        // The job is the whole study: the mix under both systems.
        samples.push(PassSample {
            setup_s: p.setup_s,
            sweep_s: p.sweep_s,
            retired: p.jobs.iter().map(|(_, s)| retired(s)).sum(),
            job_ms: vec![p.sweep_s * 1e3],
        });
        digests.push(digest(&p));
        r.attempted += p.jobs.len() as u64;
        // The memory one sweep needs: later passes only add allocator
        // retention, which varies with the pass count.
        first_pass_rss = first_pass_rss.or_else(|| peak_rss_mib(None));
        last = Some(p);
    }
    digests.dedup();
    r.check(digests.len() == 1, || {
        format!("passes disagree on simulated results: digests {digests:?}")
    });
    eprintln!("[perfbench] quad-core stats_digest {}", digests[0]);
    check(&last.expect("at least one pass"), &mut r);
    set_end_to_end(
        &mut r,
        &samples,
        first_pass_rss.unwrap_or(0.0),
        JobPool::Pooled,
    );
    r
}

fn run_traced(cfg: &RunConfig, r: &mut Report) {
    let baseline = pass(cfg, 0, None);
    let tracer = Tracer::new();
    let p = pass(cfg, 1, Some(&tracer));
    r.check(digest(&p) == digest(&baseline), || {
        "traced multi-core stats differ from untraced".to_string()
    });
    eprintln!("[perfbench] quad-core stats_digest {}", digest(&p));
    check(&p, r);
    // Alone-run IPCs under the baseline normalise the weighted speedup.
    let alone: Vec<f64> = tracer.time("alone", "stream", None, None, |id| {
        MIX.iter()
            .map(|n| {
                tracer.time("alone.run", *n, id, None, |_| {
                    p.lab
                        .run_on(n, InputSet::Train, SystemKind::StreamOnly)
                        .ipc()
                })
            })
            .collect()
    });
    r.attempted = (baseline.jobs.len() + p.jobs.len()) as u64;
    let spans = tracer.spans();
    if let Err(e) = std::fs::write(&cfg.spans_path, spans::to_jsonl(&spans)) {
        r.errors.push(format!("writing spans: {e}"));
    }
    r.set(
        "workloads.generate_s",
        spans::total_self_s(&spans, "workloads.generate"),
    );
    r.set("profile.run_s", spans::total_self_s(&spans, "profile.run"));
    let (mut beneficial, mut harmful) = (0, 0);
    for n in MIX {
        let (b, h) = p.lab.profile(n).counts();
        beneficial += b;
        harmful += h;
    }
    r.set("profile.beneficial_pgs", beneficial as f64);
    r.set("profile.harmful_pgs", harmful as f64);
    r.set(
        "hints.derive_ms",
        spans::total_self_s(&spans, "hints.derive") * 1e3,
    );
    let runs = spans::self_ms(&spans, "multicore.run");
    let mut ws = Vec::new();
    for (kind, stats) in &p.jobs {
        let ms: f64 = runs
            .iter()
            .filter(|(l, _)| l == kind.label())
            .map(|(_, ms)| ms)
            .sum();
        let l = metric_label(*kind);
        r.set(
            format!("multicore.ns_per_inst.{l}"),
            ms * 1e6 / retired(stats).max(1.0),
        );
        r.set(
            format!("multicore.bus_transfers.{l}"),
            stats.total_bus_transfers as f64,
        );
        ws.push(stats.weighted_speedup(&alone));
    }
    r.set("multicore.weighted_speedup", ws[1] / ws[0]);
    let traced_sweep = spans
        .iter()
        .find(|s| s.name == "sweep")
        .map_or(0.0, |s| s.dur_ns() as f64 / 1e9);
    r.set("trace.overhead_frac", traced_sweep / baseline.sweep_s - 1.0);
    eprintln!(
        "[perfbench] quad-core {}: weighted speedup of stream+ecdp+throttle over stream {:.3} \
         (simulated model, not validated against hardware)",
        MIX.join("+"),
        ws[1] / ws[0]
    );
}
