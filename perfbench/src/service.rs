//! `service-mixed`: `sweepd --jobs 2` restarted on a pre-seeded store,
//! driven by two closed-loop HTTP clients.
//!
//! The universe is 4 pointer + 4 streaming benchmarks × 4 systems on the
//! test input (32 cells). Before the passes (untimed) every cell is
//! simulated in-process once, as the reference, and a seeded 2 of the 4
//! systems of every benchmark are committed to a seed store. Each pass
//! copies the seed store, boots `sweepd` on it (set-up), and lets both
//! clients POST one sweep per benchmark — all four systems — in the same
//! seeded order, each waiting on `/jobs/<id>/events` for `done` before
//! the next POST. Every job therefore mixes store hits (the seeded
//! cells), fresh simulations (appends) and in-flight coalesces (the other
//! client's identical job).

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use bench::{
    FaultPlan, Lab, Manifest, ResultStore, RunOutcome, RunRecord, SweepOptions, SweepPlan,
};
use ecdp::system::SystemKind;
use sim_core::Json;
use workloads::InputSet;

use crate::http;
use crate::report::{set_end_to_end, JobPool, PassSample, Report};
use crate::rng::Rng;
use crate::spans::{self, Tracer};
use crate::stats::{median, stats_digest};
use crate::{peak_rss_mib, RunConfig, JOBS, MAX_MEASURE_SECS, MIN_PASSES};

/// Benchmarks of the service universe: both suites, with short cells.
pub const WORKLOADS: [&str; 8] = [
    "perlbench",
    "health",
    "omnetpp",
    "parser",
    "GemsFDTD",
    "milc",
    "lbm",
    "libquantum",
];

/// Systems of every service job.
pub const SYSTEMS: [SystemKind; 4] = [
    SystemKind::StreamOnly,
    SystemKind::StreamCdp,
    SystemKind::StreamEcdp,
    SystemKind::StreamEcdpThrottled,
];

/// Systems per benchmark committed to the seed store.
const SEEDED_PER_WORKLOAD: usize = 2;

type CellId = (String, String);

/// The reference results and the seed store.
struct Universe {
    reference: HashMap<CellId, RunRecord>,
    seed_store: PathBuf,
    /// Retired instructions of the cells a pass simulates fresh.
    fresh_retired: f64,
    fresh_cells: usize,
}

fn prepare(cfg: &RunConfig) -> Result<Universe, String> {
    let lab = Lab::with_checkpoints(FaultPlan::none(), None);
    let plan = SweepPlan::cross("service-universe", &WORKLOADS, InputSet::Test, &SYSTEMS);
    let exec = plan.run_fault_tolerant(&lab, JOBS, &SweepOptions::default());
    if exec.failed() > 0 {
        return Err(format!("{} reference cells failed", exec.failed()));
    }
    let reference: HashMap<CellId, RunRecord> = exec
        .records()
        .into_iter()
        .map(|r| ((r.workload.clone(), r.system.clone()), r))
        .collect();
    eprintln!(
        "[perfbench] service-mixed stats_digest {}",
        stats_digest(&exec.records())
    );
    let mut rng = Rng::new(cfg.seed, 0x7365_6564);
    let mut seeded: HashSet<CellId> = HashSet::new();
    for w in WORKLOADS {
        for &i in &rng.permutation(SYSTEMS.len())[..SEEDED_PER_WORKLOAD] {
            seeded.insert((w.to_string(), SYSTEMS[i].label().to_string()));
        }
    }
    let seed_store = cfg.work_dir.join("seed.store");
    let store = ResultStore::open(&seed_store);
    for id in &seeded {
        let rec = &reference[id];
        if let bench::AppendDisposition::Degraded(why) = store.append(rec, None) {
            return Err(format!("seeding the store: {why}"));
        }
    }
    let fresh: Vec<&RunRecord> = reference
        .iter()
        .filter(|(id, _)| !seeded.contains(*id))
        .map(|(_, r)| r)
        .collect();
    Ok(Universe {
        fresh_retired: fresh
            .iter()
            .map(|r| r.stats.retired_instructions as f64)
            .sum(),
        fresh_cells: fresh.len(),
        reference,
        seed_store,
    })
}

/// A running `sweepd`; killed and reaped on drop.
struct Sweepd {
    child: Child,
    addr: SocketAddr,
    _stdout: BufReader<ChildStdout>,
}

impl Drop for Sweepd {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn boot(binary: &Path, store: &Path, work: &Path) -> Result<Sweepd, String> {
    let mut cmd = Command::new(binary);
    cmd.args([
        "--addr",
        "127.0.0.1:0",
        "--jobs",
        &JOBS.to_string(),
        "--store",
    ])
    .arg(store)
    .current_dir(work)
    .stdin(Stdio::null())
    .stdout(Stdio::piped())
    .stderr(Stdio::null());
    // The service is configured by flags alone.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("BENCH_") {
            cmd.env_remove(k);
        }
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("starting {}: {e}", binary.display()))?;
    let stdout = child.stdout.take().ok_or("sweepd stdout")?;
    let mut sweepd = Sweepd {
        child,
        addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        _stdout: BufReader::new(stdout),
    };
    let mut banner = String::new();
    sweepd
        ._stdout
        .read_line(&mut banner)
        .map_err(|e| format!("reading the sweepd banner: {e}"))?;
    sweepd.addr = banner
        .trim()
        .rsplit("http://")
        .next()
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| format!("unexpected sweepd banner {banner:?}"))?;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match http::request(sweepd.addr, "GET", "/healthz", "") {
            Ok((200, _)) => return Ok(sweepd),
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            other => return Err(format!("sweepd never became healthy: {other:?}")),
        }
    }
}

/// One job as a client saw it.
struct JobSample {
    latency_ms: f64,
    dispositions: [usize; 3],
    manifest: Manifest,
}

fn body_for(workload: &str) -> String {
    let systems: Vec<String> = SYSTEMS
        .iter()
        .map(|k| format!("\"{}\"", k.label()))
        .collect();
    format!(
        "{{\"schema_version\":1,\"workloads\":[\"{workload}\"],\"input\":\"test\",\"systems\":[{}]}}",
        systems.join(",")
    )
}

fn num(j: &Json, key: &str) -> usize {
    j.get(key).and_then(Json::as_u64).unwrap_or(0) as usize
}

/// One closed-loop client: POST, wait for `done`, fetch the manifest.
fn client(
    addr: SocketAddr,
    order: &[usize],
    tracer: Option<&Tracer>,
) -> Result<Vec<JobSample>, String> {
    let mut out = Vec::new();
    for &w in order {
        let workload = WORKLOADS[w];
        let t0 = Instant::now();
        let (status, resp) = http::request(addr, "POST", "/sweep", &body_for(workload))
            .map_err(|e| format!("POST /sweep: {e}"))?;
        let accepted = Instant::now();
        if status != 202 {
            return Err(format!("POST /sweep: status {status}: {resp}"));
        }
        let doc = Json::parse(&resp).map_err(|e| format!("POST /sweep reply: {e}"))?;
        let id = num(&doc, "job");
        let mut first_cell: Option<Instant> = None;
        let mut done = false;
        http::stream_lines(addr, &format!("/jobs/{id}/events"), |line| {
            let event = Json::parse(line).ok();
            let kind = event
                .as_ref()
                .and_then(|e| e.get("event"))
                .and_then(Json::as_str)
                .unwrap_or("");
            if kind == "cell" && first_cell.is_none() {
                first_cell = Some(Instant::now());
            }
            done = kind == "done";
            done
        })
        .map_err(|e| format!("job {id} events: {e}"))?;
        let end = Instant::now();
        if !done {
            return Err(format!("job {id}: event stream closed before done"));
        }
        let (status, text) = http::request(addr, "GET", &format!("/jobs/{id}/manifest"), "")
            .map_err(|e| format!("job {id} manifest: {e}"))?;
        if status != 200 {
            return Err(format!("job {id} manifest: status {status}"));
        }
        let manifest = Manifest::parse(&text).map_err(|e| format!("job {id} manifest: {e}"))?;
        if let Some(t) = tracer {
            t.record("service.submit", workload, t0, accepted, None);
            t.record(
                "service.first_event",
                workload,
                accepted,
                first_cell.unwrap_or(end),
                None,
            );
            t.record("service.job", workload, t0, end, None);
            t.time("httpd.healthz", workload, None, None, |_| {
                http::request(addr, "GET", "/healthz", "")
            })
            .map_err(|e| format!("healthz: {e}"))?;
        }
        out.push(JobSample {
            latency_ms: (end - t0).as_secs_f64() * 1e3,
            dispositions: [
                num(&doc, "hit"),
                num(&doc, "coalesced"),
                num(&doc, "queued"),
            ],
            manifest,
        });
    }
    Ok(out)
}

struct Pass {
    setup_s: f64,
    pass_s: f64,
    rss_mib: f64,
    jobs: Vec<JobSample>,
    cells_simulated: usize,
    store_bytes: f64,
}

fn pass(
    cfg: &RunConfig,
    uni: &Universe,
    idx: usize,
    tracer: Option<&Tracer>,
) -> Result<Pass, String> {
    let binary = cfg
        .sweepd
        .as_deref()
        .ok_or("service-mixed needs --sweepd")?;
    let store = cfg.work_dir.join(format!("pass{idx}.store"));
    let _ = std::fs::remove_file(&store);
    std::fs::copy(&uni.seed_store, &store).map_err(|e| format!("copying the seed store: {e}"))?;
    let t0 = Instant::now();
    let sweepd = boot(binary, &store, &cfg.work_dir)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let order = Rng::new(cfg.seed, 0x6a6f_6273 + idx as u64).permutation(WORKLOADS.len());
    let t1 = Instant::now();
    let results: Vec<Result<Vec<JobSample>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..JOBS)
            .map(|_| s.spawn(|| client(sweepd.addr, &order, tracer)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client panicked".to_string()))
            })
            .collect()
    });
    let pass_s = t1.elapsed().as_secs_f64();
    let mut jobs = Vec::new();
    for r in results {
        jobs.extend(r?);
    }
    let (status, health) =
        http::request(sweepd.addr, "GET", "/healthz", "").map_err(|e| format!("healthz: {e}"))?;
    let health = Json::parse(&health).map_err(|e| format!("healthz {status}: {e}"))?;
    let rss_mib = peak_rss_mib(Some(sweepd.child.id())).unwrap_or(0.0);
    drop(sweepd);
    Ok(Pass {
        setup_s,
        pass_s,
        rss_mib,
        jobs,
        cells_simulated: num(&health, "cells_simulated"),
        store_bytes: std::fs::metadata(&store).map_or(0.0, |m| m.len() as f64),
    })
}

/// Service-side identities: every served cell equals its reference, and
/// the service simulated each unseeded cell exactly once.
fn check(uni: &Universe, p: &Pass, r: &mut Report) {
    r.check(p.cells_simulated == uni.fresh_cells, || {
        format!(
            "healthz cells_simulated {} != {} unique fresh cells",
            p.cells_simulated, uni.fresh_cells
        )
    });
    let queued: usize = p.jobs.iter().map(|j| j.dispositions[2]).sum();
    r.check(queued == uni.fresh_cells, || {
        format!("{queued} cells queued fresh, expected {}", uni.fresh_cells)
    });
    for job in &p.jobs {
        r.check(
            job.dispositions.iter().sum::<usize>() == SYSTEMS.len(),
            || {
                format!(
                    "job dispositions {:?} do not cover its cells",
                    job.dispositions
                )
            },
        );
        for outcome in &job.manifest.records {
            match outcome {
                RunOutcome::Success(rec) => {
                    let id = (rec.workload.clone(), rec.system.clone());
                    r.check(
                        uni.reference.get(&id).is_some_and(|f| f.same_metrics(rec)),
                        || format!("{}/{}: served stats differ from the reference", id.0, id.1),
                    );
                }
                RunOutcome::Failed(f) => {
                    r.failed += 1;
                    r.errors
                        .push(format!("{}/{}: {}", f.workload, f.system, f.error));
                }
            }
        }
    }
}

/// Runs the service workload.
pub fn run(cfg: &RunConfig) -> Report {
    let mut r = Report::default();
    if let Err(e) = run_inner(cfg, &mut r) {
        r.errors.push(e);
        r.attempted = r.attempted.max(1);
        r.failed = r.failed.max(1);
    }
    r
}

fn run_inner(cfg: &RunConfig, r: &mut Report) -> Result<(), String> {
    let uni = prepare(cfg)?;
    if cfg.traced {
        return run_traced(cfg, &uni, r);
    }
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut rss = Vec::new();
    while samples.len() < MIN_PASSES
        || (start.elapsed().as_secs_f64() < cfg.seconds
            && start.elapsed().as_secs_f64() < MAX_MEASURE_SECS)
    {
        let p = pass(cfg, &uni, samples.len(), None)?;
        eprintln!(
            "[perfbench] service-mixed pass {}: boot {:.3} s, {} jobs in {:.3} s",
            samples.len(),
            p.setup_s,
            p.jobs.len(),
            p.pass_s
        );
        check(&uni, &p, r);
        r.attempted += p.jobs.len() as u64;
        rss.push(p.rss_mib);
        samples.push(PassSample {
            setup_s: p.setup_s,
            sweep_s: p.pass_s,
            retired: uni.fresh_retired,
            job_ms: p.jobs.iter().map(|j| j.latency_ms).collect(),
        });
    }
    set_end_to_end(r, &samples, median(&rss), JobPool::Pooled);
    Ok(())
}

fn run_traced(cfg: &RunConfig, uni: &Universe, r: &mut Report) -> Result<(), String> {
    let baseline = pass(cfg, uni, 0, None)?;
    check(uni, &baseline, r);
    let tracer = Tracer::new();
    let p = pass(cfg, uni, 1, Some(&tracer))?;
    check(uni, &p, r);
    r.attempted = (baseline.jobs.len() + p.jobs.len()) as u64;

    // The store layer, timed in-process on a copy of the seed store.
    let copy = cfg.work_dir.join("probe.store");
    let _ = std::fs::remove_file(&copy);
    std::fs::copy(&uni.seed_store, &copy).map_err(|e| format!("copying the seed store: {e}"))?;
    let store = tracer.time("store.open", "seed", None, None, |_| {
        ResultStore::open(&copy)
    });
    let cfg_hash = bench::config_hash();
    let mut ids: Vec<&CellId> = uni.reference.keys().collect();
    ids.sort();
    for (w, s) in &ids {
        tracer.time("store.get", s.as_str(), None, None, |_| {
            store.get(w, "test", s, cfg_hash)
        });
    }
    for id in ids {
        if store.get(&id.0, "test", &id.1, cfg_hash).is_none() {
            tracer.time("store.append", id.1.as_str(), None, None, |_| {
                store.append(&uni.reference[id], None)
            });
        }
    }

    let spans = tracer.spans();
    if let Err(e) = std::fs::write(&cfg.spans_path, spans::to_jsonl(&spans)) {
        r.errors.push(format!("writing spans: {e}"));
    }
    let p50 = |name| median(&spans::self_ms_values(&spans, name));
    r.set("service.submit_ms_p50", p50("service.submit"));
    r.set("service.first_event_ms_p50", p50("service.first_event"));
    r.set("httpd.healthz_ms_p50", p50("httpd.healthz"));
    let sum = |i: usize| p.jobs.iter().map(|j| j.dispositions[i]).sum::<usize>() as f64;
    r.set("service.hit_cells", sum(0));
    r.set("service.coalesced_cells", sum(1));
    r.set("service.fresh_cells", sum(2));
    r.set("service.cells_simulated", p.cells_simulated as f64);
    r.set(
        "store.open_ms",
        spans::total_self_s(&spans, "store.open") * 1e3,
    );
    r.set("store.get_us_p50", p50("store.get") * 1e3);
    r.set("store.append_ms_p50", p50("store.append"));
    r.set("store.bytes", p.store_bytes);
    r.set("trace.overhead_frac", p.pass_s / baseline.pass_s - 1.0);
    Ok(())
}
