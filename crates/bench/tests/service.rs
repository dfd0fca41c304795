//! Sweep-service integration tests: concurrent clients coalescing on an
//! in-process [`bench::SweepService`], and end-to-end HTTP drives of the
//! real `sweepd` binary — golden-grid conformance, cross-POST
//! memoization through the persistent store, and kill + restart resume.
//!
//! Acceptance properties (mirroring ISSUE.md):
//!
//! * two clients POSTing overlapping grids concurrently simulate each
//!   unique config-hashed cell exactly once, and both receive results
//!   byte-identical to a solo run of the union grid;
//! * POSTing the golden smoke grid to `sweepd` streams one event per
//!   cell and yields a manifest bit-identical to `tests/golden/smoke.json`;
//! * a second identical POST is served entirely from the store (zero
//!   simulated cells);
//! * killing the server mid-job and restarting on the same store resumes
//!   without re-simulating the cells already committed.

#![allow(clippy::unwrap_used)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use bench::service::Job;
use bench::{
    Manifest, ResultStore, RunRecord, SweepOptions, SweepPlan, SweepRequest, SweepService,
};
use ecdp::system::SystemKind;
use sim_core::Json;
use workloads::InputSet;

const SYSTEMS: [SystemKind; 3] = [
    SystemKind::StreamOnly,
    SystemKind::StreamCdp,
    SystemKind::StreamEcdpThrottled,
];

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ecdp-service-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The checked-in golden smoke records, sorted by cell identity.
fn golden_records() -> Vec<RunRecord> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/smoke.json");
    let golden = Manifest::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let mut records: Vec<RunRecord> = golden.successes().cloned().collect();
    records.sort_by_key(RunRecord::sort_key);
    records
}

/// Asserts a manifest covers exactly the golden cells with byte-identical
/// deterministic metrics (wall-clock and dispositions excluded).
fn assert_matches_golden(manifest: &Manifest) {
    let golden = golden_records();
    let mut records: Vec<RunRecord> = manifest.successes().cloned().collect();
    records.sort_by_key(RunRecord::sort_key);
    assert_eq!(manifest.failures().count(), 0, "no failed cells");
    assert_eq!(golden.len(), records.len(), "cell coverage differs");
    for (g, r) in golden.iter().zip(&records) {
        assert_eq!(g.sort_key(), r.sort_key(), "cell order differs");
        assert!(
            g.same_metrics(r),
            "{} {} {} diverged from the golden snapshot",
            r.workload,
            r.input,
            r.system
        );
    }
}

fn wait_done(job: &Arc<Job>) {
    let mut from = 0;
    for _ in 0..1200 {
        let (lines, done) = job.wait_events(from, Duration::from_millis(100));
        from += lines.len();
        if done {
            return;
        }
    }
    panic!("job {} did not finish", job.id());
}

/// Two clients submitting overlapping grids concurrently: every unique
/// cell simulates exactly once, and both manifests match a solo run of
/// the union grid cell for cell.
#[test]
fn concurrent_clients_coalesce_overlap_and_match_solo_run() {
    let dir = scratch("concurrent");
    let store = Arc::new(ResultStore::open(dir.join("results.store")));
    let svc = Arc::new(SweepService::start(bench::Lab::new(), Some(store), 4));

    let grid = |workloads: &[&str]| {
        SweepRequest::default()
            .with_workloads(workloads)
            .with_input(InputSet::Test)
            .with_systems(&SYSTEMS)
    };
    // A and B overlap on health x 3 systems; the union is 9 unique cells.
    let (a, b) = {
        let (svc_a, req_a) = (Arc::clone(&svc), grid(&["mst", "health"]));
        let (svc_b, req_b) = (Arc::clone(&svc), grid(&["health", "libquantum"]));
        let ha = std::thread::spawn(move || svc_a.submit(req_a).unwrap());
        let hb = std::thread::spawn(move || svc_b.submit(req_b).unwrap());
        (ha.join().unwrap(), hb.join().unwrap())
    };
    wait_done(&a);
    wait_done(&b);

    let (sa, sb) = (a.status(), b.status());
    assert_eq!(sa.completed, 6);
    assert_eq!(sb.completed, 6);
    assert_eq!(sa.failed + sb.failed, 0);
    // Each unique cell was queued by exactly one job; the overlap rode
    // along as store hits or in-flight coalesces.
    assert_eq!(sa.queued + sb.queued, 9, "a={sa:?} b={sb:?}");
    assert_eq!(
        sa.hits + sa.coalesced + sb.hits + sb.coalesced,
        3,
        "a={sa:?} b={sb:?}"
    );
    assert_eq!(svc.cells_simulated(), 9, "every unique cell ran once");
    assert_eq!(svc.store().unwrap().len(), 9, "every unique cell committed");

    // Both manifests must be byte-identical (modulo wall-clock) to an
    // independent solo sweep of the union grid.
    let solo = SweepPlan::cross(
        "solo-union",
        &["mst", "health", "libquantum"],
        InputSet::Test,
        &SYSTEMS,
    )
    .run_fault_tolerant(&bench::Lab::new(), 2, &SweepOptions::default());
    assert_eq!(solo.failed(), 0, "solo sweep had failed cells");
    let solo = solo.records();
    let find = |r: &RunRecord| {
        solo.iter()
            .find(|s| s.workload == r.workload && s.system == r.system)
            .cloned()
            .unwrap()
    };
    for job in [&a, &b] {
        let manifest = job.manifest().unwrap();
        assert_eq!(manifest.successes().count(), 6);
        for r in manifest.successes() {
            let s = find(r);
            assert!(
                s.same_metrics(r),
                "{} {} {} diverged from the solo run",
                r.workload,
                r.input,
                r.system
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store record computed from an older version of a workload file is
/// a miss for the service, exactly as for `run_all --store`: the cell
/// re-simulates and the served record carries the registry's current
/// provenance hash.
#[test]
fn stale_provenance_store_record_is_not_served_as_a_hit() {
    let dir = scratch("stale-hit");
    let spec = dir.join("svcstale.wl");
    std::fs::write(
        &spec,
        "workload svcstale {
    seed 11;
    node Node { size 24; ptr next @ 16; field data @ 0; }
    chain items: Node { count 64; layout shuffled; }
    traverse items { order forward; repeat 1; visit { load data; compute 4; } }
}
",
    )
    .unwrap();
    workloads::registry::register_file(&spec).unwrap();
    let current = bench::manifest::workload_provenance("svcstale").unwrap();

    let store = Arc::new(ResultStore::open(dir.join("results.store")));
    let mut stale = RunRecord::new(
        "svcstale",
        InputSet::Test,
        SystemKind::StreamOnly,
        &sim_core::RunStats::default(),
        1.0,
    );
    stale.workload_hash = Some("00000000deadbeef".to_string());
    assert_ne!(stale.workload_hash.as_deref(), Some(current.as_str()));
    store.append(&stale, None);

    let svc = SweepService::start(bench::Lab::new(), Some(store), 1);
    let job = svc
        .submit(
            SweepRequest::default()
                .with_workloads(&["svcstale"])
                .with_input(InputSet::Test)
                .with_systems(&[SystemKind::StreamOnly]),
        )
        .unwrap();
    wait_done(&job);
    assert_eq!(job.status().hits, 0, "a stale record must not be a hit");
    assert_eq!(svc.cells_simulated(), 1, "the stale cell re-simulates");
    let records = job.manifest().unwrap().records;
    let record = records[0].success().expect("the cell succeeds");
    assert_eq!(record.workload_hash.as_deref(), Some(current.as_str()));
    assert_eq!(record.store.as_deref(), Some("appended"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A request's workload files register once, when the request is
/// parsed: submitting it reads no file, so a `.wl` file deleted between
/// parsing and submission still runs.
#[test]
fn parsed_request_runs_after_its_workload_file_is_gone() {
    let dir = scratch("register-once");
    let spec = dir.join("svconce.wl");
    std::fs::write(
        &spec,
        "workload svconce {
    seed 5;
    node Node { size 16; ptr next @ 8; field data @ 0; }
    chain items: Node { count 32; }
    traverse items { visit { load data; } }
}
",
    )
    .unwrap();
    let doc = Json::obj([
        (
            "workload_files",
            Json::Arr(vec![Json::Str(spec.to_string_lossy().into_owned())]),
        ),
        ("input", Json::Str("test".to_string())),
        ("systems", Json::Arr(vec![Json::Str("stream".to_string())])),
    ]);
    let request = SweepRequest::from_json(&doc).unwrap();
    std::fs::remove_file(&spec).unwrap();

    let svc = SweepService::start(bench::Lab::new(), None, 1);
    let job = svc.submit(request).unwrap();
    wait_done(&job);
    let status = job.status();
    assert_eq!((status.completed, status.failed), (1, 0), "{status:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// HTTP end-to-end against the real binary
// ---------------------------------------------------------------------

/// Spawns `sweepd` on an OS-picked port and returns the child plus the
/// bound address parsed from its stdout banner. `config` is an optional
/// `--config` request document.
fn spawn_sweepd(store: &Path, jobs: usize, config: Option<&Path>) -> (Child, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sweepd"));
    cmd.arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--jobs")
        .arg(jobs.to_string())
        .arg("--store")
        .arg(store)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if let Some(config) = config {
        cmd.arg("--config").arg(config);
    }
    let mut child = cmd.spawn().unwrap();
    let mut banner = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr = banner
        .trim()
        .strip_prefix("sweepd listening on http://")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();
    (child, addr)
}

/// One full HTTP exchange; returns (status, body).
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut text = String::new();
    BufReader::new(stream).read_to_string(&mut text).unwrap();
    let (head, body) = text.split_once("\r\n\r\n").unwrap();
    let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    (status, body.to_string())
}

fn get_json(addr: &str, path: &str) -> Json {
    let (status, body) = http(addr, "GET", path, "");
    assert_eq!(status, 200, "GET {path}: {body}");
    Json::parse(&body).unwrap()
}

/// POSTs a sweep request and returns the 202 body (job id + status).
fn post_sweep(addr: &str, body: &str) -> Json {
    let (status, body) = http(addr, "POST", "/sweep", body);
    assert_eq!(status, 202, "POST /sweep: {body}");
    Json::parse(&body).unwrap()
}

fn num(j: &Json, key: &str) -> u64 {
    j.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing {key} in {j:?}"))
}

/// The golden smoke grid as a POST body.
fn smoke_body() -> &'static str {
    r#"{"schema_version":1,"workloads":["mst","health","libquantum"],"input":"test","systems":["stream","stream+cdp","stream+ecdp+throttle"]}"#
}

/// A JSONL progress stream: headers consumed, events read line by line.
struct EventStream {
    reader: BufReader<TcpStream>,
}

impl EventStream {
    fn open(addr: &str, job: u64) -> EventStream {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        write!(
            stream,
            "GET /jobs/{job}/events HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\r\n"
        )
        .unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("HTTP/1.1 200"), "{line:?}");
        while !line.trim_end_matches(['\r', '\n']).is_empty() {
            line.clear();
            reader.read_line(&mut line).unwrap();
        }
        EventStream { reader }
    }

    /// The next event, or `None` once the server closes the stream (or
    /// dies — the kill test relies on that surfacing as end-of-stream).
    fn next(&mut self) -> Option<Json> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.reader.read_line(&mut line).ok()?;
            if n == 0 {
                return None;
            }
            let trimmed = line.trim();
            if !trimmed.is_empty() {
                return Some(Json::parse(trimmed).unwrap());
            }
        }
    }

    /// Drains the stream to its end, returning every event.
    fn collect(mut self) -> Vec<Json> {
        let mut events = Vec::new();
        while let Some(e) = self.next() {
            events.push(e);
        }
        events
    }
}

fn event_kind(e: &Json) -> &str {
    e.get("event").and_then(Json::as_str).unwrap_or("?")
}

/// The full service loop over HTTP: POST the golden smoke grid, stream
/// its events, fetch the manifest and diff it against the golden
/// snapshot, then POST again and watch the store answer everything.
#[test]
fn sweepd_serves_golden_grid_and_memoizes_across_posts() {
    let dir = scratch("e2e");
    let store = dir.join("results.store");
    let (mut child, addr) = spawn_sweepd(&store, 2, None);

    let (status, body) = http(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let health = Json::parse(&body).unwrap();
    assert_eq!(num(&health, "cells_simulated"), 0);

    // First POST: everything is fresh work.
    let resp = post_sweep(&addr, smoke_body());
    let job = num(&resp, "job");
    assert_eq!(num(&resp, "total"), 9);
    assert_eq!(num(&resp, "queued"), 9);
    assert_eq!(num(&resp, "hit"), 0);

    let events = EventStream::open(&addr, job).collect();
    assert_eq!(event_kind(&events[0]), "submitted");
    let cells: Vec<&Json> = events.iter().filter(|e| event_kind(e) == "cell").collect();
    assert_eq!(cells.len(), 9, "one event per cell: {events:?}");
    for e in &cells {
        assert_eq!(e.get("ok"), Some(&Json::Bool(true)), "{e:?}");
        assert_eq!(
            e.get("disposition").and_then(Json::as_str),
            Some("queued"),
            "{e:?}"
        );
    }
    assert_eq!(event_kind(events.last().unwrap()), "done");

    // The finished job's manifest is bit-identical to the golden stats.
    let (status, body) = http(&addr, "GET", &format!("/jobs/{job}/manifest"), "");
    assert_eq!(status, 200, "{body}");
    assert_matches_golden(&Manifest::parse(&body).unwrap());
    assert_eq!(num(&get_json(&addr, "/healthz"), "cells_simulated"), 9);

    // Second POST: served entirely from the store, nothing simulated.
    let resp = post_sweep(&addr, smoke_body());
    let job2 = num(&resp, "job");
    assert_eq!(num(&resp, "hit"), 9, "{resp:?}");
    assert_eq!(num(&resp, "queued"), 0);
    assert_eq!(resp.get("done"), Some(&Json::Bool(true)));
    let (status, body) = http(&addr, "GET", &format!("/jobs/{job2}/manifest"), "");
    assert_eq!(status, 200, "{body}");
    assert_matches_golden(&Manifest::parse(&body).unwrap());
    assert_eq!(
        num(&get_json(&addr, "/healthz"), "cells_simulated"),
        9,
        "the second POST simulated nothing"
    );

    // Single-cell fetch by config hash, straight from the store.
    let hash = get_json(&addr, "/healthz")
        .get("config_hash")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let record = get_json(&addr, &format!("/cells/mst/test/stream/{hash}"));
    assert_eq!(record.get("workload").and_then(Json::as_str), Some("mst"));
    let (status, _) = http(&addr, "GET", "/cells/mst/test/stream/0000000000000000", "");
    assert_eq!(status, 404, "a wrong config hash is a miss");
    let (status, _) = http(&addr, "GET", "/no/such/endpoint", "");
    assert_eq!(status, 404);

    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill the server mid-job, restart it on the same store, and resubmit:
/// the committed cells come back as store hits without re-simulation and
/// the final manifest still matches the golden snapshot.
#[test]
fn sweepd_restart_resumes_from_store_without_resimulating() {
    let dir = scratch("restart");
    let store = dir.join("results.store");

    // Single worker plus a wildcard slowdown (wall-clock only, stats
    // untouched) so the kill reliably lands mid-sweep.
    let config = dir.join("slow.json");
    std::fs::write(&config, r#"{"fault_plan":"slow@*=250"}"#).unwrap();
    let (mut child, addr) = spawn_sweepd(&store, 1, Some(&config));
    let resp = post_sweep(&addr, smoke_body());
    let job = num(&resp, "job");
    let mut stream = EventStream::open(&addr, job);
    let mut committed = 0;
    while committed < 2 {
        let e = stream.next().expect("stream ended before two cells");
        if event_kind(&e) == "cell" {
            assert_eq!(e.get("ok"), Some(&Json::Bool(true)), "{e:?}");
            committed += 1;
        }
    }
    // SIGKILL: no destructors, no atexit — a genuine crash. Progress
    // events are emitted only after the store append, so both observed
    // cells are on disk.
    let _ = child.kill();
    let _ = child.wait();
    drop(stream);

    // Restart on the same store, no faults: the committed cells are
    // answered at submit time and only the remainder simulates.
    let (mut child, addr) = spawn_sweepd(&store, 2, None);
    let resp = post_sweep(&addr, smoke_body());
    let job = num(&resp, "job");
    let hits = num(&resp, "hit");
    assert!(hits >= 2, "committed cells must resume as hits: {resp:?}");
    assert_eq!(num(&resp, "queued"), 9 - hits);

    let events = EventStream::open(&addr, job).collect();
    assert_eq!(event_kind(events.last().unwrap()), "done");
    let (status, body) = http(&addr, "GET", &format!("/jobs/{job}/manifest"), "");
    assert_eq!(status, 200, "{body}");
    assert_matches_golden(&Manifest::parse(&body).unwrap());
    assert_eq!(
        num(&get_json(&addr, "/healthz"), "cells_simulated"),
        9 - hits,
        "completed cells were not re-simulated"
    );

    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
