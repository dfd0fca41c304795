//! `pointer-grid` and `stream-grid`: a benchmark suite × the seven
//! Figure 7 systems.
//!
//! Each pass builds a fresh `Lab`, generates the measured (test-input)
//! and train-input traces, profiles the train input and derives the
//! hints (set-up), then runs every cell through
//! `SweepPlan::run_fault_tolerant` on two workers with a fresh
//! `ResultStore` and `ManifestWriter` (the sweep). The seed permutes the
//! order cells are claimed in.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use bench::experiments::{misc::STREAMING_BENCHES, POINTER_BENCHES};
use bench::{
    config_hash, AppendDisposition, FaultPlan, Lab, ManifestWriter, ResultStore, RunOutcome,
    RunRecord, SweepOptions, SweepPlan,
};
use ecdp::system::{SystemBuilder, SystemKind};
use sim_core::Trace;
use workloads::InputSet;

use crate::gate::{layer_costs, real_hints_gate, HintCheck};
use crate::report::{prefetcher_slots, set_end_to_end, JobPool, PassSample, Report};
use crate::rng::Rng;
use crate::spans::{self, Tracer};
use crate::stats::{gmean, max, median, stats_digest};
use crate::{
    metric_label, peak_rss_mib, RunConfig, FIG7_SYSTEMS, JOBS, MAX_MEASURE_SECS, MIN_PASSES,
};

/// A benchmark suite measured on one input set.
#[derive(Debug, Clone)]
pub struct Suite {
    /// Workload name, used for store and manifest file names.
    pub name: &'static str,
    /// Benchmarks of the suite.
    pub benches: Vec<&'static str>,
    /// Input set the measured cells run on (hints always come from the
    /// train input).
    pub input: InputSet,
}

/// The 15 pointer-intensive benchmarks on the test input.
pub fn pointer_suite() -> Suite {
    Suite {
        name: "pointer-grid",
        benches: POINTER_BENCHES.to_vec(),
        input: InputSet::Test,
    }
}

/// The 8 streaming SPEC stand-ins of §6.7 on the test input.
pub fn stream_suite() -> Suite {
    Suite {
        name: "stream-grid",
        benches: STREAMING_BENCHES[..8].to_vec(),
        input: InputSet::Test,
    }
}

/// The suite × Figure 7 grid, in a seeded claim order.
fn plan(suite: &Suite, seed: u64, pass: usize) -> SweepPlan {
    let full = SweepPlan::cross(suite.name, &suite.benches, suite.input, &FIG7_SYSTEMS);
    let mut plan = SweepPlan::new(suite.name);
    for i in Rng::new(seed, 0x6772_6964 + pass as u64).permutation(full.cells.len()) {
        plan.cells.push(full.cells[i].clone());
    }
    plan
}

fn timed<T>(
    tracer: Option<(&Tracer, Option<usize>)>,
    name: &'static str,
    label: impl Into<String>,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some((t, parent)) => t.time(name, label, parent, None, |_| f()),
        None => f(),
    }
}

/// Set-up: traces, train profiles and hints for every benchmark, on
/// [`JOBS`] threads.
fn prewarm(lab: &Lab, suite: &Suite, tracer: Option<(&Tracer, Option<usize>)>) {
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..JOBS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&n) = suite.benches.get(i) else {
                    break;
                };
                timed(tracer, "workloads.generate", n, || {
                    lab.trace(n, suite.input)
                });
                timed(tracer, "workloads.generate", format!("{n}/train"), || {
                    lab.trace(n, InputSet::Train)
                });
                timed(tracer, "profile.run", n, || lab.profile(n));
                timed(tracer, "hints.derive", n, || lab.artifacts(n));
            });
        }
    });
}

/// One measured pass.
struct Pass {
    setup_s: f64,
    sweep_s: f64,
    records: Vec<RunRecord>,
    failed: usize,
    lab: Lab,
    store: ResultStore,
    plan: SweepPlan,
}

fn fresh_lab() -> Lab {
    Lab::with_checkpoints(FaultPlan::none(), None)
}

fn untraced_pass(suite: &Suite, cfg: &RunConfig, idx: usize) -> Pass {
    let t0 = Instant::now();
    let lab = fresh_lab();
    prewarm(&lab, suite, None);
    let store = ResultStore::open(cfg.work_dir.join(format!("{}-{idx}.store", suite.name)));
    let setup_s = t0.elapsed().as_secs_f64();
    let plan = plan(suite, cfg.seed, idx);
    let writer = ManifestWriter::new(format!("{}-{idx}", suite.name));
    let t1 = Instant::now();
    let exec = plan.run_fault_tolerant(
        &lab,
        JOBS,
        &SweepOptions {
            writer: Some(&writer),
            store: Some(&store),
            ..SweepOptions::default()
        },
    );
    let sweep_s = t1.elapsed().as_secs_f64();
    Pass {
        setup_s,
        sweep_s,
        records: exec.records(),
        failed: exec.failed(),
        lab,
        store,
        plan,
    }
}

/// The traced twin of [`untraced_pass`]: the same work, with every call
/// into the lab, store and manifest wrapped in a span, followed by the
/// machine-assembly probes outside the sweep.
fn traced_pass(suite: &Suite, cfg: &RunConfig, tracer: &Tracer, r: &mut Report) -> Pass {
    let idx = 99;
    let t0 = Instant::now();
    let lab = fresh_lab();
    let store = tracer.time("setup", suite.name, None, None, |id| {
        prewarm(&lab, suite, Some((tracer, id)));
        tracer.time("store.open", suite.name, id, None, |_| {
            ResultStore::open(cfg.work_dir.join(format!("{}-{idx}.store", suite.name)))
        })
    });
    let setup_s = t0.elapsed().as_secs_f64();
    let plan = plan(suite, cfg.seed, idx);
    let writer = ManifestWriter::new(format!("{}-{idx}", suite.name));
    let cfg_hash = config_hash();
    let next = AtomicUsize::new(0);
    let mut slots: Vec<OnceLock<Result<RunRecord, String>>> = Vec::new();
    slots.resize_with(plan.cells.len(), OnceLock::new);
    let t1 = Instant::now();
    tracer.time("sweep", suite.name, None, None, |sweep| {
        std::thread::scope(|s| {
            for _ in 0..JOBS {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = plan.cells.get(i) else { break };
                    let label = cell.system.label();
                    let out = tracer.time("cell", label, sweep, Some(i), |c| {
                        let input = cell.input_label();
                        let hit = tracer.time("store.get", label, c, Some(i), |_| {
                            store.get(&cell.workload, &input, label, cfg_hash)
                        });
                        if hit.is_some() {
                            return Err(format!("{}/{label}: fresh store hit", cell.workload));
                        }
                        tracer
                            .time("engine.run", label, c, Some(i), |_| {
                                lab.try_run_on(&cell.workload, cell.input, cell.system)
                            })
                            .map_err(|e| format!("{}/{label}: {e}", cell.workload))?;
                        let mut record = lab
                            .record_for(&cell.workload, cell.input, cell.system)
                            .ok_or_else(|| format!("{}/{label}: no record", cell.workload))?;
                        let disposition = tracer.time("store.append", label, c, Some(i), |_| {
                            store.append(&record, None)
                        });
                        if let AppendDisposition::Degraded(why) = disposition {
                            return Err(format!(
                                "{}/{label}: store degraded: {why}",
                                cell.workload
                            ));
                        }
                        record.store = Some("appended".to_string());
                        tracer
                            .time("manifest.append", label, c, Some(i), |_| {
                                writer.append(i, RunOutcome::Success(record.clone()))
                            })
                            .map_err(|e| format!("manifest: {e}"))?;
                        Ok(record)
                    });
                    let _ = slots[i].set(out);
                });
            }
        });
    });
    let sweep_s = t1.elapsed().as_secs_f64();
    let mut records = Vec::new();
    let mut failed = 0;
    for slot in slots {
        match slot.into_inner() {
            Some(Ok(rec)) => records.push(rec),
            Some(Err(e)) => {
                failed += 1;
                r.errors.push(e);
            }
            None => failed += 1,
        }
    }
    // Machine assembly and the fixed per-cell floor, outside the sweep.
    tracer.time("probe", suite.name, None, None, |probe| {
        for (i, cell) in plan.cells.iter().enumerate() {
            let art = lab.artifacts(&cell.workload);
            let trace = lab.trace(&cell.workload, cell.input);
            let label = cell.system.label();
            let machine = tracer.time("cell.build", label, probe, Some(i), |_| {
                SystemBuilder::new(cell.system).artifacts(&art).build()
            });
            drop(machine);
            let empty = Trace {
                initial_memory: trace.initial_memory.clone(),
                ops: Vec::new(),
                instructions: 0,
            };
            let floor = tracer.time("cell.floor", label, probe, Some(i), |_| {
                SystemBuilder::new(cell.system).artifacts(&art).run(&empty)
            });
            if let Err(e) = floor {
                r.errors
                    .push(format!("{}/{label}: empty-trace run: {e}", cell.workload));
            }
        }
    });
    Pass {
        setup_s,
        sweep_s,
        records,
        failed,
        lab,
        store,
        plan,
    }
}

fn find<'a>(records: &'a [RunRecord], workload: &str, kind: SystemKind) -> Option<&'a RunRecord> {
    records
        .iter()
        .find(|r| r.workload == workload && r.system == kind.label())
}

/// Correctness checks shared by traced and untraced runs: the
/// real-hints gate, and store-served cells equal to fresh ones.
fn check_pass(suite: &Suite, pass: &Pass, r: &mut Report) {
    let mut checks = Vec::new();
    for &n in &suite.benches {
        let profile = pass.lab.profile(n);
        let (beneficial, _) = profile.counts();
        match (
            find(&pass.records, n, SystemKind::StreamOnly),
            find(&pass.records, n, SystemKind::StreamEcdp),
        ) {
            (Some(s), Some(e)) => checks.push(HintCheck::new(
                n,
                profile.pgs.len(),
                beneficial,
                &s.stats,
                &e.stats,
            )),
            _ => r
                .errors
                .push(format!("{n}: stream or stream+ecdp cell missing")),
        }
    }
    r.errors.extend(real_hints_gate(&checks));
    let hinted = checks.iter().filter(|c| c.ecdp_cdp_issued > 0).count();
    eprintln!(
        "[perfbench] {}: stream+ecdp issues hinted CDP prefetches on {hinted} of {} benchmarks",
        suite.name,
        checks.len()
    );

    // Re-run the plan against the pass's store: every cell must be a
    // store hit with the statistics of the fresh run.
    let again = pass.plan.run_fault_tolerant(
        &pass.lab,
        JOBS,
        &SweepOptions {
            store: Some(&pass.store),
            ..SweepOptions::default()
        },
    );
    r.check(again.store_hits == pass.plan.cells.len(), || {
        format!(
            "store identity: {} of {} cells served from the store",
            again.store_hits,
            pass.plan.cells.len()
        )
    });
    for served in again.records() {
        let fresh = pass
            .records
            .iter()
            .find(|f| f.workload == served.workload && f.system == served.system);
        r.check(fresh.is_some_and(|f| f.same_metrics(&served)), || {
            format!(
                "store identity: {}/{} served stats differ from the fresh run",
                served.workload, served.system
            )
        });
    }
}

/// Prints the simulated speedups and BPKI ratios beside the paper's.
fn print_paper_reference(suite: &Suite, records: &[RunRecord]) {
    let paper: [(SystemKind, &str); 5] = [
        (SystemKind::OracleLds, "+53.7% (ideal LDS prefetching)"),
        (SystemKind::StreamCdp, "-14% (CDP alone is below 1)"),
        (SystemKind::StreamEcdp, "+8.6%"),
        (SystemKind::StreamCdpThrottled, "+9.4%"),
        (SystemKind::StreamEcdpThrottled, "+22.5%, bandwidth -25%"),
    ];
    eprintln!(
        "[perfbench] {} on the {:?} input, gmean over {} benchmarks vs stream \
         (simulated model, not validated against hardware):",
        suite.name,
        suite.input,
        suite.benches.len()
    );
    for (kind, paper_note) in paper {
        let (speedups, bpki): (Vec<f64>, Vec<f64>) = suite
            .benches
            .iter()
            .filter_map(|&n| {
                let base = find(records, n, SystemKind::StreamOnly)?;
                let run = find(records, n, kind)?;
                Some((
                    run.stats.ipc / base.stats.ipc,
                    run.stats.bpki.max(1e-9) / base.stats.bpki.max(1e-9),
                ))
            })
            .unzip();
        let note = match (suite.name, kind) {
            ("pointer-grid", _) => paper_note,
            (_, SystemKind::StreamEcdpThrottled) => "+0.3%, bandwidth -0.1% (§6.7)",
            _ => "-",
        };
        eprintln!(
            "[perfbench]   {:22} speedup {:+6.1}%  BPKI ratio {:.3}   paper: {note}",
            kind.label(),
            (gmean(&speedups) - 1.0) * 100.0,
            gmean(&bpki)
        );
    }
}

/// Runs a grid workload.
pub fn run(suite: &Suite, cfg: &RunConfig) -> Report {
    let mut r = Report::default();
    if cfg.traced {
        run_traced(suite, cfg, &mut r);
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
        let p = untraced_pass(suite, cfg, samples.len());
        eprintln!(
            "[perfbench] {} pass {}: setup {:.3} s, sweep {:.3} s",
            suite.name,
            samples.len(),
            p.setup_s,
            p.sweep_s
        );
        samples.push(PassSample {
            setup_s: p.setup_s,
            sweep_s: p.sweep_s,
            retired: p
                .records
                .iter()
                .map(|rec| rec.stats.retired_instructions as f64)
                .sum(),
            job_ms: cell_ms_by_cell(&p.records),
        });
        digests.push(stats_digest(&p.records));
        r.attempted += p.plan.cells.len() as u64;
        r.failed += p.failed as u64;
        // The memory one sweep needs: later passes only add allocator
        // retention, which varies with the pass count.
        first_pass_rss = first_pass_rss.or_else(|| peak_rss_mib(None));
        last = Some(p);
    }
    digests.dedup();
    r.check(digests.len() == 1, || {
        format!("passes disagree on simulated results: digests {digests:?}")
    });
    eprintln!("[perfbench] {} stats_digest {}", suite.name, digests[0]);
    let last = last.expect("at least one pass");
    check_pass(suite, &last, &mut r);
    print_paper_reference(suite, &last.records);
    set_end_to_end(
        &mut r,
        &samples,
        first_pass_rss.unwrap_or(0.0),
        JobPool::PerJobMedian,
    );
    r
}

/// Every cell's wall time, in (workload, system) order, so index `i` is
/// the same cell in every pass whatever order the cells were claimed in.
fn cell_ms_by_cell(records: &[RunRecord]) -> Vec<f64> {
    let mut cells: Vec<(&str, &str, f64)> = records
        .iter()
        .map(|rec| (rec.workload.as_str(), rec.system.as_str(), rec.wall_ms))
        .collect();
    cells.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
    cells.into_iter().map(|(_, _, ms)| ms).collect()
}

fn run_traced(suite: &Suite, cfg: &RunConfig, r: &mut Report) {
    let baseline = untraced_pass(suite, cfg, 0);
    let tracer = Tracer::new();
    let pass = traced_pass(suite, cfg, &tracer, r);
    let digest = stats_digest(&pass.records);
    let base_digest = stats_digest(&baseline.records);
    r.check(digest == base_digest, || {
        format!("traced stats digest {digest} differs from untraced {base_digest}")
    });
    eprintln!("[perfbench] {} stats_digest {digest}", suite.name);
    check_pass(suite, &pass, r);
    print_paper_reference(suite, &pass.records);
    r.attempted = (baseline.plan.cells.len() + pass.plan.cells.len()) as u64;
    r.failed = (baseline.failed + pass.failed) as u64;

    let spans = tracer.spans();
    if let Err(e) = std::fs::write(&cfg.spans_path, spans::to_jsonl(&spans)) {
        r.errors.push(format!("writing spans: {e}"));
    }
    layer_metrics(suite, &spans, &pass, r);
    let traced_sweep = spans
        .iter()
        .find(|s| s.name == "sweep")
        .map_or(0.0, |s| s.dur_ns() as f64 / 1e9);
    r.set("trace.overhead_frac", traced_sweep / baseline.sweep_s - 1.0);
    sim_metrics(suite, &pass.records, r);
}

fn layer_metrics(suite: &Suite, spans: &[spans::Span], pass: &Pass, r: &mut Report) {
    let (mut beneficial, mut harmful) = (0, 0);
    for &n in &suite.benches {
        let (b, h) = pass.lab.profile(n).counts();
        beneficial += b;
        harmful += h;
    }
    r.set(
        "workloads.generate_s",
        spans::total_self_s(spans, "workloads.generate"),
    );
    r.set("profile.run_s", spans::total_self_s(spans, "profile.run"));
    r.set("profile.beneficial_pgs", beneficial as f64);
    r.set("profile.harmful_pgs", harmful as f64);
    r.set(
        "hints.derive_ms",
        spans::total_self_s(spans, "hints.derive") * 1e3,
    );
    r.set(
        "cell.build_ms_p50",
        median(&spans::self_ms_values(spans, "cell.build")),
    );
    r.set(
        "cell.floor_ms_p50",
        median(&spans::self_ms_values(spans, "cell.floor")),
    );

    // Engine: host time per simulated instruction, by system.
    let mut ms_by_system: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut inst_by_system: BTreeMap<&'static str, f64> = BTreeMap::new();
    let engine = spans::self_ms(spans, "engine.run");
    for (label, ms) in &engine {
        if let Some(k) = SystemKind::from_label(label) {
            *ms_by_system.entry(k.label()).or_default() += ms;
        }
    }
    for rec in &pass.records {
        if let Some(k) = SystemKind::from_label(&rec.system) {
            *inst_by_system.entry(k.label()).or_default() += rec.stats.retired_instructions as f64;
        }
    }
    let mut ns_per_inst: BTreeMap<&'static str, f64> = BTreeMap::new();
    for k in FIG7_SYSTEMS {
        let ms = ms_by_system.get(k.label()).copied().unwrap_or(0.0);
        let inst = inst_by_system
            .get(k.label())
            .copied()
            .unwrap_or(0.0)
            .max(1.0);
        let v = ms * 1e6 / inst;
        ns_per_inst.insert(k.label(), v);
        r.set(format!("engine.ns_per_inst.{}", metric_label(k)), v);
    }
    let engine_ms: Vec<f64> = engine.iter().map(|(_, ms)| *ms).collect();
    let cycles: f64 = pass.records.iter().map(|rec| rec.stats.cycles as f64).sum();
    let engine_s = engine_ms.iter().sum::<f64>() / 1e3;
    r.set("engine.mcycles_per_s", cycles / engine_s.max(1e-9) / 1e6);
    r.set("engine.cell_ms_p50", median(&engine_ms));
    r.set("engine.cell_ms_max", max(&engine_ms));
    let costs = layer_costs(&ns_per_inst);
    r.set("cdp.ns_per_inst", costs.cdp);
    r.set("ecdp.ns_per_inst", costs.ecdp);
    r.set("throttle.ns_per_inst", costs.throttle);

    r.set(
        "store.open_ms",
        spans::total_self_s(spans, "store.open") * 1e3,
    );
    r.set(
        "store.get_us_p50",
        median(&spans::self_ms_values(spans, "store.get")) * 1e3,
    );
    r.set(
        "store.append_ms_p50",
        median(&spans::self_ms_values(spans, "store.append")),
    );
    r.set(
        "store.bytes",
        std::fs::metadata(pass.store.path()).map_or(0.0, |m| m.len() as f64),
    );
    let manifest_ms = spans::self_ms_values(spans, "manifest.append");
    r.set("manifest.append_ms_p50", median(&manifest_ms));
    r.set("manifest.append_ms_max", max(&manifest_ms));
}

/// The simulated model's work counts: identical on every host, so a
/// host-speed change must leave them untouched.
fn sim_metrics(suite: &Suite, records: &[RunRecord], r: &mut Report) {
    for k in FIG7_SYSTEMS {
        let of_kind: Vec<&RunRecord> = records
            .iter()
            .filter(|rec| rec.system == k.label())
            .collect();
        let sum =
            |f: &dyn Fn(&RunRecord) -> u64| of_kind.iter().map(|rec| f(rec) as f64).sum::<f64>();
        let l = metric_label(k);
        r.set(format!("sim.cycles.{l}"), sum(&|rec| rec.stats.cycles));
        r.set(
            format!("sim.l2_demand_misses.{l}"),
            sum(&|rec| rec.stats.l2_demand_misses),
        );
        r.set(
            format!("sim.bus_transfers.{l}"),
            sum(&|rec| rec.stats.bus_transfers),
        );
        for slot in 0..prefetcher_slots(k) {
            let pf = |used: bool| {
                sum(&|rec| {
                    rec.stats
                        .prefetchers
                        .get(slot)
                        .map_or(0, |p| if used { p.used } else { p.issued })
                })
            };
            r.set(format!("sim.pf_issued.{l}.{slot}"), pf(false));
            r.set(format!("sim.pf_used.{l}.{slot}"), pf(true));
        }
    }
    let ratio = |kind: SystemKind, f: &dyn Fn(&RunRecord) -> f64| {
        gmean(
            &suite
                .benches
                .iter()
                .filter_map(|&n| {
                    let base = find(records, n, SystemKind::StreamOnly)?;
                    let run = find(records, n, kind)?;
                    Some(f(run).max(1e-9) / f(base).max(1e-9))
                })
                .collect::<Vec<f64>>(),
        )
    };
    r.set(
        "sim.ecdp_throttle_speedup_gmean",
        ratio(SystemKind::StreamEcdpThrottled, &|rec| rec.stats.ipc),
    );
    r.set(
        "sim.cdp_speedup_gmean",
        ratio(SystemKind::StreamCdp, &|rec| rec.stats.ipc),
    );
    r.set(
        "sim.ecdp_throttle_bpki_ratio",
        ratio(SystemKind::StreamEcdpThrottled, &|rec| rec.stats.bpki),
    );
}
