//! `sweepd` — the long-running sweep service over the persistent result
//! store.
//!
//! ```text
//! cargo run --release -p bench --bin sweepd -- [--addr HOST:PORT]
//!     [--config FILE] [--jobs N] [--store PATH]
//! ```
//!
//! Configuration resolves exactly like `run_all`: the same
//! [`RequestFlags`] parser reads `--config`, `--jobs` and `--store` (an
//! empty value or `--jobs 0` exits 2), and the same
//! [`SweepRequest::resolve`] writes the flags over the `--config` file,
//! which overrides the defaults; an unreadable or invalid file exits 2.
//! The resolved request supplies the worker-pool width (`jobs`), the
//! store path, and the shared `Lab`'s fault plan, checkpoint store and
//! verbosity.
//!
//! # Endpoints
//!
//! | Method/path | Behavior |
//! |---|---|
//! | `POST /sweep` | Submit a `SweepRequest` JSON body → `202` with the job id and submit-time dispositions |
//! | `GET /jobs/<id>` | Job status snapshot |
//! | `GET /jobs/<id>/events` | Progress stream: full history, then live events until the job completes (JSONL; SSE with `Accept: text/event-stream`). `?from=N` skips the first N events |
//! | `GET /jobs/<id>/manifest` | Completed job's manifest (`409` while cells are outstanding) |
//! | `GET /cells/<workload>/<input>/<system>/<config-hash>` | One committed record straight from the store (`404` on a miss) |
//! | `GET /healthz` | Service + store status (recovery report, quarantine, degradation, scheduler counters) |
//!
//! On startup the bound address is printed to stdout as
//! `sweepd listening on http://HOST:PORT` (use port 0 to let the OS
//! pick), and the store's quarantine/heal report is written next to the
//! log like `run_all` does.

use std::sync::Arc;
use std::time::Duration;

use bench::cli::{flag_value, RequestFlags};
use bench::httpd::{
    respond_error, respond_json, start_stream, write_event, HttpRequest, HttpServer,
};
use bench::{Lab, ResultStore, SweepRequest, SweepService};
use sim_core::Json;

const USAGE: &str = "usage: sweepd [--addr HOST:PORT] [--config FILE] [--jobs N] [--store PATH]

  --addr HOST:PORT  listen address (default 127.0.0.1:7071; port 0 picks a
                    free port — the bound address is printed on stdout)
  --config FILE     load a SweepRequest JSON document (same schema as the
                    POST /sweep body; flags override it, it overrides the
                    defaults)
  --jobs N          worker-pool threads (default: jobs from the resolved
                    request, else available parallelism)
  --store PATH      persistent result store backing dedup across restarts
                    (default: the file's store.path)";

fn fail_usage(msg: &str) -> ! {
    eprintln!("sweepd: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

struct Args {
    addr: String,
    request: RequestFlags,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        addr: "127.0.0.1:7071".to_string(),
        request: RequestFlags::default(),
    };
    while let Some(a) = args.next() {
        if parsed.request.take(&a, &mut args)? {
            continue;
        }
        match a.as_str() {
            "--addr" => parsed.addr = flag_value(&a, &mut args)?,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn parse_config_hash(hex: &str) -> Option<u64> {
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

fn handle(
    service: &SweepService,
    request: &HttpRequest,
    stream: &mut std::net::TcpStream,
) -> std::io::Result<()> {
    let segments = request.segments();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => respond_json(stream, 200, &service.status_json()),
        ("POST", ["sweep"]) => {
            let body = match std::str::from_utf8(&request.body) {
                Ok(s) => s,
                Err(_) => return respond_error(stream, 400, "body is not UTF-8"),
            };
            let parsed = Json::parse(body).and_then(|j| SweepRequest::from_json(&j));
            let sweep = match parsed {
                Ok(r) => r,
                Err(e) => return respond_error(stream, 400, &format!("bad sweep request: {e}")),
            };
            match service.submit(sweep) {
                Ok(job) => {
                    let mut doc = job.status().to_json();
                    if let Json::Obj(pairs) = &mut doc {
                        pairs.insert(0, ("job".to_string(), Json::Num(job.id() as f64)));
                    }
                    respond_json(stream, 202, &doc)
                }
                Err(e) => respond_error(stream, 400, &e),
            }
        }
        ("GET", ["jobs", id]) => match id.parse::<u64>().ok().and_then(|id| service.job(id)) {
            Some(job) => respond_json(stream, 200, &job.status().to_json()),
            None => respond_error(stream, 404, "no such job"),
        },
        ("GET", ["jobs", id, "events"]) => {
            let Some(job) = id.parse::<u64>().ok().and_then(|id| service.job(id)) else {
                return respond_error(stream, 404, "no such job");
            };
            let sse = request.wants_sse();
            let mut from: usize = request
                .query
                .split('&')
                .find_map(|kv| kv.strip_prefix("from="))
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            start_stream(stream, sse)?;
            loop {
                let (lines, done) = job.wait_events(from, Duration::from_millis(500));
                from += lines.len();
                for line in &lines {
                    write_event(stream, sse, line)?;
                }
                if done && lines.is_empty() {
                    return Ok(());
                }
                if done {
                    // Drain any events that raced in behind the final
                    // batch on the next iteration, then close.
                    let (rest, _) = job.wait_events(from, Duration::from_millis(0));
                    for line in &rest {
                        write_event(stream, sse, line)?;
                    }
                    return Ok(());
                }
            }
        }
        ("GET", ["jobs", id, "manifest"]) => {
            let Some(job) = id.parse::<u64>().ok().and_then(|id| service.job(id)) else {
                return respond_error(stream, 404, "no such job");
            };
            match job.manifest() {
                Some(manifest) => respond_json(stream, 200, &manifest.to_json()),
                None => respond_error(stream, 409, "job is still running"),
            }
        }
        ("GET", ["cells", workload, input, system, hash]) => {
            let Some(cfg) = parse_config_hash(hash) else {
                return respond_error(stream, 400, "config hash must be 16 hex digits");
            };
            match service
                .store()
                .and_then(|s| s.get(workload, input, system, cfg))
            {
                Some(record) => respond_json(stream, 200, &record.to_json()),
                None => respond_error(stream, 404, "cell not in store"),
            }
        }
        ("GET" | "POST", _) => respond_error(stream, 404, "unknown endpoint"),
        _ => respond_error(stream, 405, "method not allowed"),
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => fail_usage(&e),
    };
    let request = SweepRequest::resolve(&args.request).unwrap_or_else(|e| fail_usage(&e));
    let store = request.store_path.as_deref().map(|p| {
        let store = Arc::new(ResultStore::open(p));
        let rec = store.recovery();
        eprintln!(
            "[sweepd] result store {}: {} committed cells, {} quarantined{}",
            store.path().display(),
            store.len(),
            rec.quarantined(),
            if rec.healed { ", healed" } else { "" },
        );
        match store.write_report() {
            Ok(path) => eprintln!("[sweepd] store report: {}", path.display()),
            Err(e) => eprintln!("[sweepd] store report write failed: {e}"),
        }
        store
    });
    let workers = request.jobs.unwrap_or_else(bench::default_jobs);
    let service = Arc::new(SweepService::start(
        Lab::for_request(&request),
        store,
        workers,
    ));
    let server = match HttpServer::bind(&args.addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("[sweepd] cannot bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    let addr = server.local_addr().expect("bound listener has an address");
    eprintln!("[sweepd] {workers} workers, store {:?}", request.store_path);
    println!("sweepd listening on http://{addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let svc = Arc::clone(&service);
    server.serve(move |request, stream| handle(&svc, request, stream));
}
