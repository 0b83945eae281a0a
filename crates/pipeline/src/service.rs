//! The persistent analysis daemon (service plane).
//!
//! Turns the one-shot pipeline into a multi-tenant service: a
//! [`JobManager`] admits concurrent analysis requests into a bounded
//! queue, runs them on a fixed pool of worker threads, and keeps every
//! finished job's schema-versioned [`datacutter::RunReport`] retrievable
//! after completion. A hand-rolled HTTP/JSON management API
//! ([`AnalysisService`], `std::net` only — no new dependencies) exposes
//! submit / status / cancel / list / drain, and [`MgmtClient`] is the
//! typed client the tests and CI drive it with.
//!
//! **Isolation and sharing.** Each job runs its own filter graph with the
//! engine's per-run failure containment (a panicking or failing job is
//! reported on that job only), but the I/O plane is daemon-scoped: one
//! [`SliceCacheRegistry`] serves every job, so concurrent analyses of the
//! same dataset read each slice from disk **exactly once, total** — the
//! registry's shared [`mri::cache::IoStats`] on `GET /status` is the
//! observable proof.
//!
//! **Shutdown.** `POST /drain` stops admission and finishes every admitted
//! job; `POST /shutdown` drains and then stops the daemon. A hard kill
//! (SIGTERM/SIGKILL) is crash-clean without a signal handler: parameter
//! files are written as `.h4dp.tmp` and committed by atomic rename, so an
//! interrupted daemon never leaves a partial `.h4dp` behind — and the
//! manager sweeps `.h4dp.tmp` residue of failed or cancelled jobs itself.

use crate::config::{parse_engine, parse_repr, AppConfig};
use crate::graphs::standard_graph;
use crate::run::{io_report, run_threaded, IoRuntime, SliceCaching};
use crate::store::{ResultStore, StoreSession};
use datacutter::{EngineConfig, IoReport, RunReport, StoreReport};
use mri::cache::SliceCacheRegistry;
use mri::store::DistributedDataset;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Daemon sizing knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads — the number of jobs that run concurrently.
    pub workers: usize,
    /// Admission bound: submissions beyond this many *queued* jobs are
    /// refused (HTTP 429) instead of buffered without limit.
    pub queue_limit: usize,
    /// Daemon-wide slice-cache retention budget in bytes, shared by every
    /// dataset cache in the registry. `0` turns the cache off: every job
    /// reads with [`SliceCaching::Off`], one sub-rectangle read per piece.
    pub io_cache_bytes: usize,
    /// Root of the content-addressed result store shared by every job
    /// (see [`crate::store`]); `None` disables the store. Like the slice
    /// cache, the store is daemon-scoped: its hit/miss counters aggregate
    /// across jobs on `GET /status`, while each job runs its own session
    /// (own staging area, committed only if that job succeeds).
    pub result_store: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_limit: 8,
            io_cache_bytes: 256 << 20,
            result_store: None,
        }
    }
}

/// One analysis request, as submitted over `POST /jobs`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobSpec {
    /// Root of a distributed raw dataset (see `mri::store`).
    pub dataset: PathBuf,
    /// Directory receiving the USO parameter files (created on demand).
    pub out_dir: PathBuf,
    /// Graph variant: `"hmp"`, `"split"` or `"visual"`.
    #[serde(default = "default_variant")]
    pub variant: String,
    /// Matrix representation: `"full"`, `"naive"`, `"sparse"`,
    /// `"sparse-accum"`.
    #[serde(default = "default_repr")]
    pub repr: String,
    /// Texture worker copies.
    #[serde(default = "default_texture")]
    pub texture: usize,
    /// Canonical (arrival-order-independent) output files.
    #[serde(default)]
    pub canonical: bool,
    /// Scan-engine override (same names as `h4d --engine`); `None` keeps
    /// the configuration default.
    #[serde(default)]
    pub engine: Option<String>,
}

fn default_variant() -> String {
    "hmp".to_string()
}

fn default_repr() -> String {
    "full".to_string()
}

fn default_texture() -> usize {
    3
}

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// Executing on a worker thread.
    Running,
    /// Finished successfully; its run report is retrievable.
    Completed,
    /// Finished with an error (recorded in the status).
    Failed,
    /// Cancelled before or during execution; output was not committed.
    Cancelled,
}

impl JobState {
    /// Whether the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Failed | JobState::Cancelled
        )
    }
}

/// Snapshot of one job, as served by `GET /jobs/{id}`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobStatus {
    /// Manager-assigned id.
    pub id: u64,
    /// Current lifecycle state.
    pub state: JobState,
    /// Dataset the job reads.
    pub dataset: PathBuf,
    /// Output directory the job writes.
    pub out_dir: PathBuf,
    /// Root-cause description of a failed job.
    pub error: Option<String>,
    /// Whether `GET /jobs/{id}/report` will return a run report.
    pub has_report: bool,
}

/// Daemon-level counters, as served by `GET /status`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceStatus {
    /// Jobs waiting for a worker.
    pub queued: usize,
    /// Jobs currently executing.
    pub running: usize,
    /// Jobs finished successfully.
    pub completed: usize,
    /// Jobs finished with an error.
    pub failed: usize,
    /// Jobs cancelled.
    pub cancelled: usize,
    /// Whether admission is closed (drain in progress or done).
    pub draining: bool,
    /// Dataset caches currently open in the shared registry.
    pub open_caches: usize,
    /// The daemon-wide I/O counters (shared by all jobs): with concurrent
    /// jobs over one dataset, `disk_reads` stays at one read per distinct
    /// slice — the exactly-once property.
    pub io: IoReport,
    /// Daemon-wide result-store counters, aggregated across every job;
    /// absent when the daemon runs without a store.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub store: Option<StoreReport>,
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is at its bound.
    QueueFull {
        /// The configured bound that was hit.
        limit: usize,
    },
    /// The daemon is draining or shutting down.
    Draining,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { limit } => {
                write!(f, "admission queue is full ({limit} queued jobs)")
            }
            SubmitError::Draining => write!(f, "daemon is draining; not accepting jobs"),
        }
    }
}

struct Job {
    spec: JobSpec,
    state: JobState,
    error: Option<String>,
    report: Option<String>,
    cancel: Arc<AtomicBool>,
}

struct ManagerState {
    jobs: HashMap<u64, Job>,
    queue: VecDeque<u64>,
    next_id: u64,
    running: usize,
    draining: bool,
    shutdown: bool,
}

struct ManagerInner {
    cfg: ServiceConfig,
    slices: Arc<SliceCacheRegistry>,
    /// Daemon-scoped result store (shared counters); each job opens its own
    /// session against it. `None` when disabled or unopenable.
    store: Option<ResultStore>,
    state: Mutex<ManagerState>,
    cond: Condvar,
}

/// Recovers the manager lock from poisoning: job execution runs under
/// `catch_unwind` and never panics while holding this lock, but a poisoned
/// manager must keep serving status queries regardless.
fn lock_state(inner: &ManagerInner) -> MutexGuard<'_, ManagerState> {
    inner.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The daemon's job manager: bounded admission, a fixed worker pool, and
/// per-job state retained for the daemon's lifetime (reports stay
/// retrievable after completion).
#[derive(Clone)]
pub struct JobManager {
    inner: Arc<ManagerInner>,
    workers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl JobManager {
    /// Starts the worker pool.
    pub fn start(cfg: ServiceConfig) -> Self {
        let slices = Arc::new(SliceCacheRegistry::new(
            cfg.io_cache_bytes,
            Arc::new(mri::cache::IoStats::default()),
        ));
        // An unusable store degrades the daemon to recompute-everything
        // rather than refusing to start — the store is a cache.
        let store = cfg
            .result_store
            .as_deref()
            .and_then(ResultStore::open_fs_or_warn);
        let inner = Arc::new(ManagerInner {
            slices,
            store,
            state: Mutex::new(ManagerState {
                jobs: HashMap::new(),
                queue: VecDeque::new(),
                next_id: 0,
                running: 0,
                draining: false,
                shutdown: false,
            }),
            cond: Condvar::new(),
            cfg,
        });
        let mut workers = Vec::new();
        for i in 0..inner.cfg.workers.max(1) {
            let inner = Arc::clone(&inner);
            let handle = std::thread::Builder::new()
                .name(format!("h4d-worker-{i}"))
                .spawn(move || worker_loop(&inner))
                .expect("spawn service worker");
            workers.push(handle);
        }
        Self {
            inner,
            workers: Arc::new(Mutex::new(workers)),
        }
    }

    /// The shared slice-cache registry (tests assert on its counters).
    pub fn slices(&self) -> &Arc<SliceCacheRegistry> {
        &self.inner.slices
    }

    /// Admits a job, returning its id.
    ///
    /// # Errors
    /// The queue is at its bound, or the daemon is draining.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        let mut st = lock_state(&self.inner);
        if st.draining || st.shutdown {
            return Err(SubmitError::Draining);
        }
        if st.queue.len() >= self.inner.cfg.queue_limit {
            return Err(SubmitError::QueueFull {
                limit: self.inner.cfg.queue_limit,
            });
        }
        let id = st.next_id;
        st.next_id += 1;
        st.jobs.insert(
            id,
            Job {
                spec,
                state: JobState::Queued,
                error: None,
                report: None,
                cancel: Arc::new(AtomicBool::new(false)),
            },
        );
        st.queue.push_back(id);
        self.inner.cond.notify_all();
        Ok(id)
    }

    /// Snapshot of one job.
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        let st = lock_state(&self.inner);
        st.jobs.get(&id).map(|j| job_status(id, j))
    }

    /// Snapshot of every job, ordered by id.
    pub fn list(&self) -> Vec<JobStatus> {
        let st = lock_state(&self.inner);
        let mut out: Vec<JobStatus> = st.jobs.iter().map(|(&id, j)| job_status(id, j)).collect();
        out.sort_by_key(|j| j.id);
        out
    }

    /// A completed job's serialized run report.
    pub fn report(&self, id: u64) -> Option<String> {
        let st = lock_state(&self.inner);
        st.jobs.get(&id).and_then(|j| j.report.clone())
    }

    /// Cancels a job: a queued job is withdrawn immediately, a running job
    /// gets its cooperative cancel flag raised (its copies abort at the
    /// next callback boundary and its output is not committed). Terminal
    /// jobs are unaffected. Returns the state after the request, or `None`
    /// for an unknown id.
    pub fn cancel(&self, id: u64) -> Option<JobState> {
        let mut st = lock_state(&self.inner);
        let job = st.jobs.get_mut(&id)?;
        match job.state {
            JobState::Queued => {
                job.state = JobState::Cancelled;
                st.queue.retain(|&q| q != id);
            }
            JobState::Running => job.cancel.store(true, Ordering::SeqCst),
            _ => {}
        }
        let state = st.jobs[&id].state;
        self.inner.cond.notify_all();
        Some(state)
    }

    /// Daemon-level counters.
    pub fn service_status(&self) -> ServiceStatus {
        let st = lock_state(&self.inner);
        let mut counts = [0usize; 3];
        for j in st.jobs.values() {
            match j.state {
                JobState::Completed => counts[0] += 1,
                JobState::Failed => counts[1] += 1,
                JobState::Cancelled => counts[2] += 1,
                _ => {}
            }
        }
        ServiceStatus {
            queued: st.queue.len(),
            running: st.running,
            completed: counts[0],
            failed: counts[1],
            cancelled: counts[2],
            draining: st.draining,
            open_caches: self.inner.slices.open_caches(),
            io: io_report(self.inner.slices.stats()),
            store: self.inner.store.as_ref().map(|s| s.stats().report()),
        }
    }

    /// Closes admission and blocks until every admitted job (queued and
    /// running) has reached a terminal state. Idempotent.
    pub fn drain(&self) {
        let mut st = lock_state(&self.inner);
        st.draining = true;
        while st.running > 0 || !st.queue.is_empty() {
            st = self
                .inner
                .cond
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(st);
        self.inner.slices.release_idle();
    }

    /// Drains, stops the workers, and joins them. After this the manager
    /// only serves status queries.
    pub fn shutdown(&self) {
        self.drain();
        {
            let mut st = lock_state(&self.inner);
            st.shutdown = true;
            self.inner.cond.notify_all();
        }
        let handles: Vec<_> = {
            let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
            workers.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
        self.inner.slices.shutdown();
    }
}

fn job_status(id: u64, j: &Job) -> JobStatus {
    JobStatus {
        id,
        state: j.state,
        dataset: j.spec.dataset.clone(),
        out_dir: j.spec.out_dir.clone(),
        error: j.error.clone(),
        has_report: j.report.is_some(),
    }
}

fn worker_loop(inner: &ManagerInner) {
    loop {
        let (id, spec, cancel) = {
            let mut st = lock_state(inner);
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(id) = st.queue.pop_front() {
                    // Cancellation withdraws queued ids from the queue, but
                    // re-check under the same lock for safety.
                    let Some(job) = st.jobs.get_mut(&id) else {
                        continue;
                    };
                    if job.state != JobState::Queued {
                        continue;
                    }
                    job.state = JobState::Running;
                    let spec = job.spec.clone();
                    let cancel = Arc::clone(&job.cancel);
                    st.running += 1;
                    break (id, spec, cancel);
                }
                st = inner.cond.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // The engine contains filter panics; this backstop contains
        // everything else (graph building, dataset open) so one bad job can
        // never take a worker thread down.
        let result = catch_unwind(AssertUnwindSafe(|| execute_job(inner, id, &spec, &cancel)));
        let cancelled = cancel.load(Ordering::SeqCst);
        let mut st = lock_state(inner);
        st.running -= 1;
        if let Some(job) = st.jobs.get_mut(&id) {
            match result {
                Ok(Ok(report)) => {
                    job.state = JobState::Completed;
                    job.report = Some(report);
                }
                Ok(Err(message)) => {
                    if cancelled {
                        job.state = JobState::Cancelled;
                    } else {
                        job.state = JobState::Failed;
                        job.error = Some(message);
                    }
                    sweep_tmp_outputs(&spec.out_dir);
                }
                Err(_) => {
                    job.state = JobState::Failed;
                    job.error = Some("job runner panicked outside containment".to_string());
                    sweep_tmp_outputs(&spec.out_dir);
                }
            }
        }
        drop(st);
        // An idle dataset cache holds pixel data for nobody; release it so
        // a long-lived daemon's footprint follows its load.
        inner.slices.release_idle();
        inner.cond.notify_all();
    }
}

/// Removes `.h4dp.tmp` residue a failed or cancelled job's abandoned
/// writers left in its output directory (the atomic-rename discipline
/// guarantees committed `.h4dp` files are never partial; this removes the
/// harmless-but-confusing leftovers).
fn sweep_tmp_outputs(out_dir: &Path) {
    let Ok(entries) = std::fs::read_dir(out_dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(".h4dp.tmp"))
        {
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// Runs one job to completion, returning its serialized run report.
fn execute_job(
    inner: &ManagerInner,
    id: u64,
    spec: &JobSpec,
    cancel: &Arc<AtomicBool>,
) -> Result<String, String> {
    let ds = DistributedDataset::open(&spec.dataset)
        .map_err(|e| format!("could not open dataset {}: {e}", spec.dataset.display()))?;
    let desc = ds.descriptor();
    let engine = spec.engine.as_deref().map(parse_engine).transpose()?;
    let cfg = Arc::new(AppConfig::for_run(desc, parse_repr(&spec.repr)?, engine)?);
    let graph = standard_graph(&spec.variant, desc.num_nodes, spec.texture.max(1))
        .ok_or_else(|| format!("unknown variant {:?}", spec.variant))?;
    std::fs::create_dir_all(&spec.out_dir)
        .map_err(|e| format!("could not create {}: {e}", spec.out_dir.display()))?;
    // Daemon-scoped I/O plane: the shared registry (unless the daemon's
    // budget is 0 — a zero-budget registry would retain nothing and read a
    // whole slice per piece), with the registry's counters as this job's
    // `io` so report and /status agree.
    // The store session is per-job (own staging area, committed only on
    // this job's success) but shares the daemon store's counters, so the
    // per-job report's `store` section aggregates like `io` does.
    let rt = IoRuntime {
        io: Arc::clone(inner.slices.stats()),
        caching: match inner.cfg.io_cache_bytes {
            0 => SliceCaching::Off,
            _ => SliceCaching::Shared(Arc::clone(&inner.slices)),
        },
        canonical_output: spec.canonical,
        store: inner
            .store
            .as_ref()
            .map(|store| Arc::new(StoreSession::new(store, &cfg))),
    };
    let engine_cfg = EngineConfig {
        thread_name_prefix: format!("job{id}"),
        cancel: Some(Arc::clone(cancel)),
    };
    run_threaded(&graph, &cfg, &spec.dataset, &spec.out_dir, &rt, &engine_cfg)
        .map(|report| report.to_json_pretty())
        .map_err(|failure| failure.to_string())
}

// ---------------------------------------------------------------------------
// HTTP management plane
// ---------------------------------------------------------------------------

/// How long a management connection may dribble its request before the
/// daemon gives up on it.
const HTTP_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Largest accepted request body.
const HTTP_MAX_BODY: usize = 1 << 20;

/// The daemon: a [`JobManager`] plus the HTTP/JSON management listener.
pub struct AnalysisService {
    manager: JobManager,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl AnalysisService {
    /// Binds `bind` (port 0 picks a free port) and starts the worker pool
    /// and the accept loop.
    ///
    /// # Errors
    /// Binding or spawning fails.
    pub fn start(bind: SocketAddr, cfg: ServiceConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        // Nonblocking so the accept loop can poll the stop flag; accepted
        // connections are switched back to blocking individually.
        listener.set_nonblocking(true)?;
        let manager = JobManager::start(cfg);
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let manager = manager.clone();
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("h4d-mgmt".to_string())
                .spawn(move || accept_loop(&listener, &manager, &stop))?
        };
        Ok(Self {
            manager,
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound management address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The job manager (for in-process embedding and tests).
    pub fn manager(&self) -> &JobManager {
        &self.manager
    }

    /// Whether `POST /shutdown` (or [`AnalysisService::stop`]) has been
    /// requested.
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Requests shutdown from in-process (equivalent to `POST /shutdown`
    /// minus the drain; call [`JobManager::drain`] first for a graceful
    /// stop).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Blocks until shutdown is requested, then joins the accept loop and
    /// the worker pool.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.manager.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, manager: &JobManager, stop: &Arc<AtomicBool>) {
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let manager = manager.clone();
                let stop = Arc::clone(stop);
                let spawned = std::thread::Builder::new()
                    .name("h4d-mgmt-conn".to_string())
                    .spawn(move || handle_connection(stream, &manager, &stop));
                if let Ok(handle) = spawned {
                    conns.push(handle);
                }
            }
            // WouldBlock is the idle case; any other accept error is
            // transient backoff territory — the listener stays up.
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
        conns.retain(|h| !h.is_finished());
    }
    for h in conns {
        let _ = h.join();
    }
}

fn handle_connection(mut stream: TcpStream, manager: &JobManager, stop: &Arc<AtomicBool>) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(HTTP_READ_TIMEOUT));
    let response = match read_request(&mut stream) {
        Ok((method, path, body)) => route(manager, stop, &method, &path, &body),
        Err(e) => (400, format!("{{\"error\":\"bad request: {}\"}}", e.kind())),
    };
    let _ = write_response(&mut stream, response.0, &response.1);
}

/// Reads one HTTP/1.1 request: `(method, path, body)`. Remote input is
/// never trusted: a missing or oversized `Content-Length`, a truncated
/// body, or a garbled request line all return typed errors — no panics.
fn read_request(stream: &mut TcpStream) -> io::Result<(String, String, Vec<u8>)> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty request line"))?
        .to_ascii_uppercase();
    let path = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "request line has no path"))?
        .to_string();
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            break;
        }
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some(v) = header.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidData, "unparsable content-length")
            })?;
        }
    }
    if content_length > HTTP_MAX_BODY {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request body too large",
        ));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((method, path, body))
}

fn write_response(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

fn json_error(message: &str) -> String {
    serde_json::json!({ "error": message }).to_string()
}

/// Dispatches one request; returns `(status, json_body)`.
fn route(
    manager: &JobManager,
    stop: &Arc<AtomicBool>,
    method: &str,
    path: &str,
    body: &[u8],
) -> (u16, String) {
    let segments: Vec<&str> = path
        .split('?')
        .next()
        .unwrap_or("")
        .split('/')
        .filter(|s| !s.is_empty())
        .collect();
    match (method, segments.as_slice()) {
        ("POST", ["jobs"]) => match serde_json::from_slice::<JobSpec>(body) {
            Err(e) => (400, json_error(&format!("bad job spec: {e}"))),
            Ok(spec) => match manager.submit(spec) {
                Ok(id) => (202, serde_json::json!({ "id": id }).to_string()),
                Err(e @ SubmitError::QueueFull { .. }) => (429, json_error(&e.to_string())),
                Err(e @ SubmitError::Draining) => (503, json_error(&e.to_string())),
            },
        },
        ("GET", ["jobs"]) => match serde_json::to_string(&manager.list()) {
            Ok(json) => (200, json),
            Err(e) => (500, json_error(&e.to_string())),
        },
        ("GET", ["jobs", id]) => match parse_id(id) {
            None => (400, json_error("job id must be an integer")),
            Some(id) => match manager.status(id) {
                None => (404, json_error("no such job")),
                Some(status) => match serde_json::to_string(&status) {
                    Ok(json) => (200, json),
                    Err(e) => (500, json_error(&e.to_string())),
                },
            },
        },
        ("GET", ["jobs", id, "report"]) => match parse_id(id) {
            None => (400, json_error("job id must be an integer")),
            Some(id) => match manager.status(id) {
                None => (404, json_error("no such job")),
                Some(_) => match manager.report(id) {
                    None => (404, json_error("job has no report (not completed)")),
                    Some(report) => (200, report),
                },
            },
        },
        ("POST", ["jobs", id, "cancel"]) => match parse_id(id) {
            None => (400, json_error("job id must be an integer")),
            Some(id) => match manager.cancel(id) {
                None => (404, json_error("no such job")),
                Some(state) => (200, serde_json::json!({ "state": state }).to_string()),
            },
        },
        ("GET", ["status"]) => match serde_json::to_string(&manager.service_status()) {
            Ok(json) => (200, json),
            Err(e) => (500, json_error(&e.to_string())),
        },
        ("POST", ["drain"]) => {
            manager.drain();
            (200, serde_json::json!({ "drained": true }).to_string())
        }
        ("POST", ["shutdown"]) => {
            manager.drain();
            stop.store(true, Ordering::SeqCst);
            (200, serde_json::json!({ "stopping": true }).to_string())
        }
        (_, ["jobs", ..]) | (_, ["status"]) | (_, ["drain"]) | (_, ["shutdown"]) => {
            (405, json_error("method not allowed"))
        }
        _ => (404, json_error("no such endpoint")),
    }
}

fn parse_id(s: &str) -> Option<u64> {
    s.parse().ok()
}

// ---------------------------------------------------------------------------
// Typed client
// ---------------------------------------------------------------------------

/// A typed client for the management API, used by the tests and CI (and
/// usable from other tools).
pub struct MgmtClient {
    addr: SocketAddr,
    timeout: Duration,
}

impl MgmtClient {
    /// Client for a daemon at `addr`, with a 60 s per-request timeout
    /// (drain blocks until running jobs finish).
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            timeout: Duration::from_secs(60),
        }
    }

    fn request(&self, method: &str, path: &str, body: Option<&str>) -> io::Result<(u16, String)> {
        let mut stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        let body = body.unwrap_or("");
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nConnection: close\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            self.addr,
            body.len()
        )?;
        stream.flush()?;
        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        reader.read_line(&mut status_line)?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "garbled HTTP status line")
            })?;
        loop {
            let mut header = String::new();
            if reader.read_line(&mut header)? == 0 || header.trim().is_empty() {
                break;
            }
        }
        let mut response = String::new();
        reader.read_to_string(&mut response)?;
        Ok((status, response))
    }

    fn expect_ok(status: u16, body: &str) -> io::Result<()> {
        if (200..300).contains(&status) {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::Other,
                format!("daemon returned HTTP {status}: {body}"),
            ))
        }
    }

    /// Submits a job, returning its id.
    ///
    /// # Errors
    /// Transport failure or a non-2xx response (queue full, draining, bad
    /// spec).
    pub fn submit(&self, spec: &JobSpec) -> io::Result<u64> {
        let body = serde_json::to_string(spec)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let (status, response) = self.request("POST", "/jobs", Some(&body))?;
        Self::expect_ok(status, &response)?;
        let v: serde_json::Value = serde_json::from_str(&response)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        v["id"]
            .as_u64()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "response has no job id"))
    }

    /// One job's status.
    ///
    /// # Errors
    /// Transport failure, unknown id, or a garbled response.
    pub fn job(&self, id: u64) -> io::Result<JobStatus> {
        let (status, response) = self.request("GET", &format!("/jobs/{id}"), None)?;
        Self::expect_ok(status, &response)?;
        serde_json::from_str(&response).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// All jobs, ordered by id.
    ///
    /// # Errors
    /// Transport failure or a garbled response.
    pub fn jobs(&self) -> io::Result<Vec<JobStatus>> {
        let (status, response) = self.request("GET", "/jobs", None)?;
        Self::expect_ok(status, &response)?;
        serde_json::from_str(&response).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// A completed job's run report.
    ///
    /// # Errors
    /// Transport failure, unknown id, or the job has no report.
    pub fn report(&self, id: u64) -> io::Result<RunReport> {
        let (status, response) = self.request("GET", &format!("/jobs/{id}/report"), None)?;
        Self::expect_ok(status, &response)?;
        serde_json::from_str(&response).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Cancels a job, returning its state after the request.
    ///
    /// # Errors
    /// Transport failure or unknown id.
    pub fn cancel(&self, id: u64) -> io::Result<JobState> {
        let (status, response) = self.request("POST", &format!("/jobs/{id}/cancel"), None)?;
        Self::expect_ok(status, &response)?;
        let v: serde_json::Value = serde_json::from_str(&response)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        serde_json::from_value(v["state"].clone())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Daemon-level counters.
    ///
    /// # Errors
    /// Transport failure or a garbled response.
    pub fn status(&self) -> io::Result<ServiceStatus> {
        let (status, response) = self.request("GET", "/status", None)?;
        Self::expect_ok(status, &response)?;
        serde_json::from_str(&response).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Closes admission and blocks until every admitted job finished.
    ///
    /// # Errors
    /// Transport failure.
    pub fn drain(&self) -> io::Result<()> {
        let (status, response) = self.request("POST", "/drain", None)?;
        Self::expect_ok(status, &response)
    }

    /// Drains and stops the daemon.
    ///
    /// # Errors
    /// Transport failure.
    pub fn shutdown(&self) -> io::Result<()> {
        let (status, response) = self.request("POST", "/shutdown", None)?;
        Self::expect_ok(status, &response)
    }

    /// Polls until the job reaches a terminal state.
    ///
    /// # Errors
    /// Transport failure or `timeout` elapsing first.
    pub fn wait_terminal(&self, id: u64, timeout: Duration) -> io::Result<JobStatus> {
        let deadline = Instant::now() + timeout;
        loop {
            let status = self.job(id)?;
            if status.state.is_terminal() {
                return Ok(status);
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("job {id} still {:?} after {timeout:?}", status.state),
                ));
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_spec_defaults_apply() {
        let spec: JobSpec =
            serde_json::from_str(r#"{"dataset":"/d","out_dir":"/o"}"#).expect("minimal spec");
        assert_eq!(spec.variant, "hmp");
        assert_eq!(spec.repr, "full");
        assert_eq!(spec.texture, 3);
        assert!(!spec.canonical);
        assert!(spec.engine.is_none());
    }

    /// A job over a dataset that does not exist: it fails fast once a worker
    /// picks it up, which is all the admission tests need.
    fn doomed_spec(tag: &str) -> JobSpec {
        JobSpec {
            dataset: PathBuf::from("/nonexistent/dataset"),
            out_dir: std::env::temp_dir().join(format!("h4d_svc_{tag}_test")),
            variant: "hmp".into(),
            repr: "full".into(),
            texture: 1,
            canonical: false,
            engine: None,
        }
    }

    fn start_manager(workers: usize, queue_limit: usize) -> JobManager {
        JobManager::start(ServiceConfig {
            workers,
            queue_limit,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn submit_past_queue_limit_is_refused_not_buffered() {
        // One worker, queue bound 2: the first job may start executing, but
        // the bound still applies to what remains queued.
        let manager = start_manager(1, 2);
        let spec = doomed_spec("queue");
        let mut refused = false;
        for _ in 0..16 {
            if let Err(SubmitError::QueueFull { limit }) = manager.submit(spec.clone()) {
                assert_eq!(limit, 2);
                refused = true;
                break;
            }
        }
        assert!(refused, "16 rapid submissions never hit the queue bound");
        manager.shutdown();
    }

    #[test]
    fn drain_refuses_new_submissions() {
        let manager = JobManager::start(ServiceConfig::default());
        manager.drain();
        let refused = manager.submit(doomed_spec("drain"));
        assert_eq!(refused, Err(SubmitError::Draining));
        manager.shutdown();
    }

    #[test]
    fn cancel_queued_job_withdraws_it() {
        // A pool cannot be stalled without a dataset, so cancel right after
        // submit and accept either Queued->Cancelled or the (fast-failing)
        // Running path.
        let manager = start_manager(1, 8);
        let spec = doomed_spec("cancel");
        // Fill the worker with one job, then cancel a second while queued.
        let _first = manager.submit(spec.clone()).expect("first admitted");
        let second = manager.submit(spec).expect("second admitted");
        let state = manager.cancel(second).expect("job known");
        assert!(
            matches!(state, JobState::Cancelled | JobState::Running),
            "cancel of a queued job must withdraw it (got {state:?})"
        );
        assert!(manager.cancel(u64::MAX).is_none(), "unknown id is None");
        manager.shutdown();
    }

    #[test]
    fn http_request_parser_rejects_garbage() {
        // Parser-level checks via a loopback pair.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let t = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("timeout");
            read_request(&mut stream)
        });
        let mut c = TcpStream::connect(addr).expect("connect");
        c.write_all(b"\r\n\r\n").expect("write");
        drop(c);
        assert!(
            t.join().expect("no panic").is_err(),
            "empty request line must be a typed error, not a panic"
        );
    }

    #[test]
    fn route_rejects_unknown_paths_and_bad_ids() {
        let manager = start_manager(1, 1);
        let stop = Arc::new(AtomicBool::new(false));
        let (status, _) = route(&manager, &stop, "GET", "/nope", b"");
        assert_eq!(status, 404);
        let (status, _) = route(&manager, &stop, "GET", "/jobs/abc", b"");
        assert_eq!(status, 400);
        let (status, _) = route(&manager, &stop, "GET", "/jobs/999", b"");
        assert_eq!(status, 404);
        let (status, _) = route(&manager, &stop, "DELETE", "/jobs", b"");
        assert_eq!(status, 405);
        let (status, _) = route(&manager, &stop, "POST", "/jobs", b"{not json");
        assert_eq!(status, 400);
        assert!(!stop.load(Ordering::SeqCst));
        manager.shutdown();
    }
}
