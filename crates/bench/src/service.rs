//! The sweep service: multi-client job scheduling on the persistent
//! result store.
//!
//! A [`SweepService`] accepts typed [`SweepRequest`]s (the same
//! schema-versioned document `run_all --config` reads), splits each into
//! its grid cells, and schedules the cells across a bounded worker pool
//! that reuses [`SweepPlan::run_fault_tolerant`] — so the retry/deadline
//! supervisor, fault injection and store dispositions of the batch path
//! apply unchanged to served sweeps.
//!
//! # Dedup and coalescing
//!
//! Every cell resolves through three layers, cheapest first:
//!
//! 1. **Store hit** — a cell [`ResultStore::committed`] serves (same
//!    machine-config hash and workload provenance) is answered
//!    immediately (disposition `hit`), across server restarts. This is
//!    the same lookup `run_all --store` makes.
//! 2. **In-flight coalescing** — a cell another job is already running
//!    or has queued joins that cell's task as a subscriber
//!    (disposition `coalesced`); when the task completes, every
//!    subscribed job receives the same outcome. This extends the
//!    in-process `OnceMap` memoization of [`crate::lab::Lab`] to the
//!    job layer, where dispositions are observable per client.
//! 3. **Fresh work** — otherwise the cell becomes a new task on the
//!    queue (disposition `queued`).
//!
//! Duplicate work is therefore never simulated twice: concurrent clients
//! submitting overlapping grids share single simulations, and
//! [`SweepService::cells_simulated`] counts exactly the unique cells
//! that ran.
//!
//! # Job lifecycle and progress
//!
//! A submitted job immediately reports per-cell dispositions, then
//! streams one event per completed cell and a final `done` event.
//! Events are retained for the job's lifetime, so a late subscriber
//! (or a reconnecting client) replays the full history before tailing
//! live progress — see [`Job::wait_events`].
//!
//! The module is transport-agnostic: [`crate::httpd`] serves it over
//! HTTP, and the integration tests drive it in-process.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use sim_core::Json;

use crate::lab::Lab;
use crate::manifest::{config_hash, Manifest, RunOutcome};
use crate::request::SweepRequest;
use crate::store::{CellKey, ResultStore};
use crate::sweep::{RetryPolicy, SweepCell, SweepOptions, SweepPlan};

fn lock_recover<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// How a submitted cell was resolved at submit time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Served from the persistent result store without simulation.
    Hit,
    /// Joined another job's in-flight task for the same cell.
    Coalesced,
    /// Queued as fresh work.
    Queued,
}

impl Disposition {
    /// The label used in progress events and status JSON.
    pub fn label(self) -> &'static str {
        match self {
            Disposition::Hit => "hit",
            Disposition::Coalesced => "coalesced",
            Disposition::Queued => "queued",
        }
    }
}

/// Point-in-time summary of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// Job id (sequential, process-local).
    pub id: u64,
    /// Total cells in the job's grid.
    pub total: usize,
    /// Cells with an outcome (success or failure).
    pub completed: usize,
    /// Cells whose outcome is a failure record.
    pub failed: usize,
    /// Cells answered from the store at submit time.
    pub hits: usize,
    /// Cells that joined another job's in-flight task.
    pub coalesced: usize,
    /// Cells submitted as fresh work.
    pub queued: usize,
    /// True once every cell has an outcome.
    pub done: bool,
}

impl JobStatus {
    /// JSON form for the status endpoint.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::Num(self.id as f64)),
            ("total", Json::Num(self.total as f64)),
            ("completed", Json::Num(self.completed as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("hit", Json::Num(self.hits as f64)),
            ("coalesced", Json::Num(self.coalesced as f64)),
            ("queued", Json::Num(self.queued as f64)),
            ("done", Json::Bool(self.done)),
        ])
    }
}

struct JobState {
    /// One slot per plan cell, filled as outcomes arrive.
    outcomes: Vec<Option<RunOutcome>>,
    /// Submit-time disposition per cell.
    dispositions: Vec<Disposition>,
    /// Retained JSONL event lines (compact JSON, no newline).
    events: Vec<String>,
    completed: usize,
    failed: usize,
}

/// One submitted sweep: its grid, its progress events, and its
/// accumulating outcomes.
pub struct Job {
    id: u64,
    request: SweepRequest,
    cells: Vec<SweepCell>,
    state: Mutex<JobState>,
    cv: Condvar,
}

impl Job {
    fn new(id: u64, request: SweepRequest) -> Arc<Job> {
        let cells = request.plan(format!("job{id}")).cells;
        let n = cells.len();
        Arc::new(Job {
            id,
            request,
            cells,
            state: Mutex::new(JobState {
                outcomes: vec![None; n],
                dispositions: Vec::with_capacity(n),
                events: Vec::new(),
                completed: 0,
                failed: 0,
            }),
            cv: Condvar::new(),
        })
    }

    /// Job id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The request this job was submitted with.
    pub fn request(&self) -> &SweepRequest {
        &self.request
    }

    /// Current status snapshot.
    pub fn status(&self) -> JobStatus {
        let s = lock_recover(&self.state);
        let count = |d: Disposition| s.dispositions.iter().filter(|&&x| x == d).count();
        JobStatus {
            id: self.id,
            total: self.cells.len(),
            completed: s.completed,
            failed: s.failed,
            hits: count(Disposition::Hit),
            coalesced: count(Disposition::Coalesced),
            queued: count(Disposition::Queued),
            done: s.completed == self.cells.len(),
        }
    }

    /// True once every cell has an outcome.
    pub fn is_done(&self) -> bool {
        let s = lock_recover(&self.state);
        s.completed == self.cells.len()
    }

    /// Blocks until the job has events past `from` or is done (or the
    /// timeout elapses), then returns the new event lines (compact JSON,
    /// one per element) and whether the job is done. Start at `from = 0`
    /// to replay the full history.
    pub fn wait_events(&self, from: usize, timeout: Duration) -> (Vec<String>, bool) {
        let mut s = lock_recover(&self.state);
        if s.events.len() <= from && s.completed < self.cells.len() {
            let (guard, _) = self
                .cv
                .wait_timeout(s, timeout)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            s = guard;
        }
        let lines = s.events.get(from..).unwrap_or_default().to_vec();
        (lines, s.completed == self.cells.len())
    }

    /// The manifest of a completed job: every outcome in plan order.
    /// `None` while any cell is still outstanding.
    pub fn manifest(&self) -> Option<Manifest> {
        let s = lock_recover(&self.state);
        if s.completed < self.cells.len() {
            return None;
        }
        Some(Manifest {
            name: format!("job{}", self.id),
            records: s.outcomes.iter().flatten().cloned().collect(),
        })
    }

    fn push_event(s: &mut JobState, event: &Json) {
        s.events.push(event.to_string_compact());
    }

    fn record_disposition(&self, disposition: Disposition) {
        let mut s = lock_recover(&self.state);
        s.dispositions.push(disposition);
    }

    /// Stores one cell's outcome and emits its progress event.
    fn deliver(&self, index: usize, outcome: RunOutcome) {
        let cell = &self.cells[index];
        let mut s = lock_recover(&self.state);
        if s.outcomes[index].is_some() {
            return; // already delivered (defensive; tasks deliver once)
        }
        let ok = !outcome.is_failed();
        s.completed += 1;
        if !ok {
            s.failed += 1;
        }
        let disposition = s
            .dispositions
            .get(index)
            .copied()
            .unwrap_or(Disposition::Queued);
        s.outcomes[index] = Some(outcome);
        let event = Json::obj([
            ("event", Json::Str("cell".to_string())),
            ("job", Json::Num(self.id as f64)),
            ("index", Json::Num(index as f64)),
            ("workload", Json::Str(cell.workload.clone())),
            ("input", Json::Str(cell.input_label())),
            ("system", Json::Str(cell.system.label().to_string())),
            ("disposition", Json::Str(disposition.label().to_string())),
            ("ok", Json::Bool(ok)),
        ]);
        Self::push_event(&mut s, &event);
        if s.completed == self.cells.len() {
            let done = Json::obj([
                ("event", Json::Str("done".to_string())),
                ("job", Json::Num(self.id as f64)),
                ("completed", Json::Num(s.completed as f64)),
                ("failed", Json::Num(s.failed as f64)),
            ]);
            Self::push_event(&mut s, &done);
        }
        drop(s);
        self.cv.notify_all();
    }

    fn announce(&self, status: &JobStatus) {
        let mut s = lock_recover(&self.state);
        let event = Json::obj([
            ("event", Json::Str("submitted".to_string())),
            ("job", Json::Num(self.id as f64)),
            ("cells", Json::Num(status.total as f64)),
            ("hit", Json::Num(status.hits as f64)),
            ("coalesced", Json::Num(status.coalesced as f64)),
            ("queued", Json::Num(status.queued as f64)),
        ]);
        // The announcement goes first, before any hit-cell events that
        // were delivered during submission.
        s.events.insert(0, event.to_string_compact());
        drop(s);
        self.cv.notify_all();
    }
}

struct TaskState {
    result: Option<RunOutcome>,
    /// Jobs waiting on this cell, with the cell's index in each job.
    subscribers: Vec<(Arc<Job>, usize)>,
}

/// One unique in-flight cell, shared by every job that submitted it.
struct CellTask {
    cell: SweepCell,
    retry: RetryPolicy,
    state: Mutex<TaskState>,
}

impl CellTask {
    /// Adds a subscriber; delivers immediately if the result is already
    /// in (the subscribe/complete race resolves under the state lock).
    fn subscribe(&self, job: &Arc<Job>, index: usize) {
        let mut s = lock_recover(&self.state);
        if let Some(outcome) = &s.result {
            let outcome = outcome.clone();
            drop(s);
            job.deliver(index, outcome);
        } else {
            s.subscribers.push((Arc::clone(job), index));
        }
    }

    /// Publishes the outcome and drains the subscriber list.
    fn complete(&self, outcome: &RunOutcome) {
        let subscribers = {
            let mut s = lock_recover(&self.state);
            s.result = Some(outcome.clone());
            std::mem::take(&mut s.subscribers)
        };
        for (job, index) in subscribers {
            job.deliver(index, outcome.clone());
        }
    }
}

struct ServiceShared {
    lab: Lab,
    store: Option<Arc<ResultStore>>,
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
    inflight: Mutex<HashMap<CellKey, Arc<CellTask>>>,
    queue: Mutex<VecDeque<Arc<CellTask>>>,
    queue_cv: Condvar,
    next_job_id: AtomicU64,
    cells_simulated: AtomicUsize,
    shutdown: AtomicBool,
}

/// The sweep scheduler: a worker pool, a job table, and the job-level
/// in-flight map that coalesces overlapping submissions. See the module
/// docs for the dedup semantics.
pub struct SweepService {
    shared: Arc<ServiceShared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl SweepService {
    /// Starts a service with `workers` pool threads, sharing `lab` (so
    /// traces and profiles memoize across jobs, and its fault plan and
    /// checkpoint store apply to every cell) and optionally one
    /// persistent result store.
    pub fn start(lab: Lab, store: Option<Arc<ResultStore>>, workers: usize) -> SweepService {
        let shared = Arc::new(ServiceShared {
            lab,
            store,
            jobs: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            next_job_id: AtomicU64::new(1),
            cells_simulated: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sweep-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn sweep worker")
            })
            .collect();
        SweepService {
            shared,
            workers: Mutex::new(handles),
        }
    }

    /// Submits a sweep request: every grid cell resolves to a store hit,
    /// an in-flight coalesce, or fresh queued work (see the module
    /// docs), and the returned job streams progress as cells finish.
    ///
    /// # Errors
    ///
    /// Returns a one-line message for an invalid request or a service
    /// that is shutting down.
    pub fn submit(&self, request: SweepRequest) -> Result<Arc<Job>, String> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err("service is shutting down".to_string());
        }
        let request = request.validated()?;
        let id = self.shared.next_job_id.fetch_add(1, Ordering::SeqCst);
        let job = Job::new(id, request);
        self.shared
            .jobs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(id, Arc::clone(&job));

        let retry = job.request.retry;
        for (index, cell) in job.cells.clone().into_iter().enumerate() {
            // Layer 1: the persistent store answers immediately.
            if let Some(record) = self.shared.store.as_ref().and_then(|s| s.committed(&cell)) {
                job.record_disposition(Disposition::Hit);
                job.deliver(index, RunOutcome::Success(record));
                continue;
            }
            // Layers 2/3: join the in-flight task or queue fresh work.
            let key = CellKey::for_cell(&cell);
            let (task, fresh) = {
                let mut inflight = lock_recover(&self.shared.inflight);
                match inflight.get(&key) {
                    Some(task) => (Arc::clone(task), false),
                    None => {
                        let task = Arc::new(CellTask {
                            cell: cell.clone(),
                            retry,
                            state: Mutex::new(TaskState {
                                result: None,
                                subscribers: Vec::new(),
                            }),
                        });
                        inflight.insert(key, Arc::clone(&task));
                        (task, true)
                    }
                }
            };
            job.record_disposition(if fresh {
                Disposition::Queued
            } else {
                Disposition::Coalesced
            });
            task.subscribe(&job, index);
            if fresh {
                lock_recover(&self.shared.queue).push_back(task);
                self.shared.queue_cv.notify_one();
            }
        }
        job.announce(&job.status());
        Ok(job)
    }

    /// The job with this id, if it exists.
    pub fn job(&self, id: u64) -> Option<Arc<Job>> {
        lock_recover(&self.shared.jobs).get(&id).cloned()
    }

    /// Unique cells actually simulated by this service (store hits and
    /// coalesced submissions excluded) — the number the concurrent-client
    /// test pins to the union grid size.
    pub fn cells_simulated(&self) -> usize {
        self.shared.cells_simulated.load(Ordering::SeqCst)
    }

    /// Health/status document: store status (recovery, quarantine,
    /// degradation) plus scheduler counters.
    pub fn status_json(&self) -> Json {
        let jobs = lock_recover(&self.shared.jobs);
        let inflight = lock_recover(&self.shared.inflight);
        Json::obj([
            ("status", Json::Str("ok".to_string())),
            (
                "schema_version",
                Json::Num(f64::from(crate::request::REQUEST_SCHEMA_VERSION)),
            ),
            ("jobs", Json::Num(jobs.len() as f64)),
            ("inflight", Json::Num(inflight.len() as f64)),
            ("cells_simulated", Json::Num(self.cells_simulated() as f64)),
            ("config_hash", Json::Str(format!("{:016x}", config_hash()))),
            (
                "store",
                match &self.shared.store {
                    Some(store) => store.status_json(),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// The service's result store, if configured.
    pub fn store(&self) -> Option<&Arc<ResultStore>> {
        self.shared.store.as_ref()
    }

    /// Stops the worker pool after in-progress cells finish. Queued but
    /// unstarted tasks are abandoned (their subscribers never complete),
    /// so this is for tests and process teardown, not graceful draining.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
        let handles = std::mem::take(&mut *lock_recover(&self.workers));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for SweepService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One pool thread: pop a unique cell task, run it through the
/// fault-tolerant executor (store check, retry supervisor and store
/// append included), publish to all subscribed jobs, and retire the
/// in-flight entry.
fn worker_loop(shared: &Arc<ServiceShared>) {
    loop {
        let task = {
            let mut queue = lock_recover(&shared.queue);
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(task) = queue.pop_front() {
                    break task;
                }
                queue = shared
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(200))
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .0;
            }
        };
        let plan = SweepPlan {
            name: format!(
                "cell-{}-{}-{}",
                task.cell.workload,
                task.cell.input_label(),
                task.cell.system.label()
            ),
            cells: vec![task.cell.clone()],
        };
        let opts = SweepOptions {
            store: shared.store.as_deref(),
            retry: task.retry,
            ..SweepOptions::default()
        };
        let exec = plan.run_fault_tolerant(&shared.lab, 1, &opts);
        shared.cells_simulated.fetch_add(exec.ran, Ordering::SeqCst);
        let outcome = exec
            .outcomes
            .into_iter()
            .next()
            .expect("single-cell plan produced one outcome");
        // Retire the in-flight entry *before* publishing: a submitter
        // arriving between these two steps creates a fresh task and
        // takes a store hit inside run_fault_tolerant instead of
        // re-simulating; one arriving earlier holds this task and gets
        // the immediate-delivery path in subscribe().
        {
            let mut inflight = lock_recover(&shared.inflight);
            inflight.retain(|_, t| !Arc::ptr_eq(t, &task));
        }
        task.complete(&outcome);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ecdp::system::SystemKind;
    use workloads::InputSet;

    fn tiny_request() -> SweepRequest {
        SweepRequest::default()
            .with_workloads(&["mst"])
            .with_input(InputSet::Test)
            .with_systems(&[SystemKind::StreamOnly])
    }

    fn wait_done(job: &Arc<Job>) {
        let mut from = 0;
        for _ in 0..600 {
            let (lines, done) = job.wait_events(from, Duration::from_millis(100));
            from += lines.len();
            if done {
                return;
            }
        }
        panic!("job {} did not finish", job.id());
    }

    #[test]
    fn submit_runs_and_streams_events() {
        let svc = SweepService::start(Lab::new(), None, 2);
        let job = svc.submit(tiny_request()).unwrap();
        wait_done(&job);
        let (lines, done) = job.wait_events(0, Duration::from_millis(10));
        assert!(done);
        assert!(lines[0].contains("\"submitted\""), "{lines:?}");
        assert!(lines.iter().any(|l| l.contains("\"cell\"")), "{lines:?}");
        assert!(lines.last().unwrap().contains("\"done\""), "{lines:?}");
        let status = job.status();
        assert_eq!(status.completed, 1);
        assert_eq!(status.failed, 0);
        assert!(status.done);
        let manifest = job.manifest().unwrap();
        assert_eq!(manifest.records.len(), 1);
        assert_eq!(svc.cells_simulated(), 1);
    }

    #[test]
    fn identical_jobs_coalesce_or_memoize() {
        let svc = SweepService::start(Lab::new(), None, 2);
        let a = svc.submit(tiny_request()).unwrap();
        let b = svc.submit(tiny_request()).unwrap();
        wait_done(&a);
        wait_done(&b);
        // The lab memoizes within the process even when the second
        // submission missed the in-flight window, so exactly one
        // simulation ran end to end.
        let sb = b.status();
        assert_eq!(sb.completed, 1);
        assert!(sb.hits + sb.coalesced + sb.queued == 1);
        let ra = a.manifest().unwrap().records;
        let rb = b.manifest().unwrap().records;
        let (RunOutcome::Success(ra), RunOutcome::Success(rb)) = (&ra[0], &rb[0]) else {
            panic!("both jobs succeed");
        };
        assert!(ra.same_metrics(rb));
    }

    #[test]
    fn store_hits_answer_without_simulation() {
        let dir = std::env::temp_dir().join(format!("svc-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("results.store");
        let _ = std::fs::remove_file(&path);
        {
            let svc = SweepService::start(Lab::new(), Some(Arc::new(ResultStore::open(&path))), 2);
            let job = svc.submit(tiny_request()).unwrap();
            wait_done(&job);
            assert_eq!(svc.cells_simulated(), 1);
        }
        // Fresh service, same store: pure hit, zero simulations.
        let svc = SweepService::start(Lab::new(), Some(Arc::new(ResultStore::open(&path))), 2);
        let job = svc.submit(tiny_request()).unwrap();
        wait_done(&job);
        let status = job.status();
        assert_eq!(status.hits, 1);
        assert_eq!(svc.cells_simulated(), 0);
        let records = job.manifest().unwrap().records;
        let RunOutcome::Success(r) = &records[0] else {
            panic!("stored cell is a success");
        };
        assert_eq!(r.store.as_deref(), Some("hit"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_json_reports_scheduler_and_store() {
        let svc = SweepService::start(Lab::new(), None, 1);
        let j = svc.status_json();
        assert_eq!(j.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(j.get("store"), Some(&Json::Null));
        assert!(j.get("config_hash").is_some());
    }

    #[test]
    fn invalid_requests_are_rejected() {
        let svc = SweepService::start(Lab::new(), None, 1);
        let bad = SweepRequest::default().with_workloads(&["no-such-workload"]);
        assert!(svc.submit(bad).is_err());
    }
}
