//! `snoc serve`: sweep simulation as a long-running service.
//!
//! A [`Server`] listens on a Unix-domain socket and speaks the
//! newline-delimited JSON protocol of [`protocol`]: clients submit
//! [`RunSpec`] grids (checked-in experiments by name, or raw cell
//! lists), the server enqueues them in an async FIFO job queue, and an
//! executor thread runs one job at a time on the work-stealing
//! [`SweepRunner`] worker pool. The design goals, in order:
//!
//! * **Idempotent submission** — a job's identity is the
//!   [`jobs::job_key`] fingerprint of its resolved grid. Submitting
//!   the same grid twice (same client or not) returns the same job,
//!   running or already finished, without re-simulating anything.
//! * **Shared incremental state** — every job's runner is handed the
//!   same [`CellCache`] `Arc`, so a cell one client simulated is a
//!   memory hit for every later client, and an on-disk store (when
//!   configured) persists across server restarts.
//! * **Crash isolation** — a panicking cell is caught on its worker
//!   (the runner's per-cell `catch_unwind`); the job completes with
//!   that cell marked failed and the server keeps serving. A defensive
//!   second `catch_unwind` around the whole job protects the executor
//!   itself.
//! * **Fixed instrumentation** — [`ServeOptions::env`] names the NoC
//!   instrumentation (audit, telemetry, faults) every job runs with;
//!   it is folded into each accepted grid's explicit fields at
//!   submission. The library reads no environment variable, so nothing
//!   a client does to the process environment can alter a job.
//!
//! Progress streams to subscribed clients as it happens
//! ([`RunObserver`] events rendered to protocol lines); results are
//! served on demand in the exact [`cellcache`] text codec, so a client
//! round-trips bit-identical [`RunMetrics`](crate::metrics::RunMetrics).

pub mod jobs;
pub mod json;
pub mod protocol;

use crate::cellcache::{self, CellCache};
use crate::observer::RunObserver;
use crate::sweep::{CellResult, RunSpec, SweepRunner};
use protocol::{Request, WireState};
use snoc_common::fingerprint::{Fingerprint, StableHasher};
use snoc_noc::NocEnv;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Unix-domain socket path to listen on (a stale file from a dead
    /// server is removed at startup).
    pub socket: PathBuf,
    /// Worker threads per job sweep.
    pub threads: usize,
    /// Whether cell results are cached and served across jobs.
    pub cache: bool,
    /// Optional on-disk root for the shared cell cache.
    pub cache_dir: Option<PathBuf>,
    /// The NoC instrumentation folded into every accepted job (off by
    /// default; `snoc serve` fills it from `SNOC_AUDIT`,
    /// `SNOC_TELEMETRY` and `SNOC_FAULTS`).
    pub env: NocEnv,
    /// Log job lifecycle lines to stderr.
    pub verbose: bool,
}

impl ServeOptions {
    /// Defaults: single worker, caching on (in-process only), no
    /// instrumentation.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        Self {
            socket: socket.into(),
            threads: 1,
            cache: true,
            cache_dir: None,
            env: NocEnv::default(),
            verbose: false,
        }
    }
}

/// Everything a job carries through its lifecycle.
struct Job {
    key: Fingerprint,
    name: String,
    cells: usize,
    /// Taken (once) by the executor when the job starts.
    grid: Mutex<Option<Vec<RunSpec>>>,
    inner: Mutex<JobInner>,
    cv: Condvar,
}

struct JobInner {
    state: WireState,
    done: usize,
    failed: usize,
    cache_hits: usize,
    results: Option<Vec<CellResult>>,
    /// Every event line the job has emitted, in order. A subscriber
    /// that arrives mid-run — or after a fast job already finished —
    /// replays this backlog first, so `submit`+`wait` always observes
    /// one event per cell plus the terminator, never a truncated
    /// stream. (Bounded by the grid size; jobs are never evicted, so
    /// a long-lived server trades memory for replayability.)
    events: Vec<String>,
    /// Live progress subscribers; cleared when the job finishes (the
    /// drop disconnects each receiver, ending its stream).
    subscribers: Vec<mpsc::Sender<String>>,
}

/// Recovers a poisoned guard: the server must keep serving other
/// clients even if one observer callback panicked mid-update.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Job {
    fn new(key: Fingerprint, name: String, grid: Vec<RunSpec>) -> Self {
        Self {
            key,
            name,
            cells: grid.len(),
            grid: Mutex::new(Some(grid)),
            inner: Mutex::new(JobInner {
                state: WireState::Queued,
                done: 0,
                failed: 0,
                cache_hits: 0,
                results: None,
                events: Vec::new(),
                subscribers: Vec::new(),
            }),
            cv: Condvar::new(),
        }
    }

    fn status(&self) -> (WireState, usize, usize, usize) {
        let inner = relock(&self.inner);
        (inner.state, inner.done, inner.failed, inner.cache_hits)
    }

    fn broadcast(inner: &mut JobInner, line: &str) {
        inner.events.push(line.to_string());
        inner
            .subscribers
            .retain(|tx| tx.send(line.to_string()).is_ok());
    }

    fn on_cell(&self, r: &CellResult) {
        let mut inner = relock(&self.inner);
        inner.done += 1;
        if r.outcome.is_err() {
            inner.failed += 1;
        }
        if r.cached {
            inner.cache_hits += 1;
        }
        let line = protocol::cell_event(self.key, r);
        Self::broadcast(&mut inner, &line);
    }

    fn on_note(&self, label: &str, note: &str) {
        let mut inner = relock(&self.inner);
        let line = protocol::note_event(self.key, label, note);
        Self::broadcast(&mut inner, &line);
    }

    /// Transitions to a terminal state, broadcasts the `done` event to
    /// every subscriber and disconnects them, and wakes blocked
    /// `results` waiters — all under one lock, so a subscriber
    /// registered concurrently either receives the event or observes
    /// the terminal state up front.
    fn finish(&self, state: WireState, results: Option<Vec<CellResult>>) {
        let mut inner = relock(&self.inner);
        if let Some(results) = &results {
            inner.done = results.len();
            inner.failed = results.iter().filter(|r| r.outcome.is_err()).count();
            inner.cache_hits = results.iter().filter(|r| r.cached).count();
        }
        inner.state = state;
        inner.results = results;
        let line = self.done_line(&inner);
        Self::broadcast(&mut inner, &line);
        inner.subscribers.clear();
        drop(inner);
        self.cv.notify_all();
    }

    fn done_line(&self, inner: &JobInner) -> String {
        protocol::done_event(
            self.key,
            inner.state,
            self.cells,
            inner.failed,
            inner.cache_hits,
        )
    }

    /// Blocks until the job reaches a terminal state.
    fn await_done(&self) -> WireState {
        let mut inner = relock(&self.inner);
        while !matches!(inner.state, WireState::Done | WireState::Aborted) {
            inner = self.cv.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
        inner.state
    }
}

/// Routes runner progress into the job's subscriber streams.
struct JobObserver(Arc<Job>);

impl RunObserver for JobObserver {
    fn cell_finished(&self, result: &CellResult) {
        self.0.on_cell(result);
    }

    fn cache_note(&self, label: &str, note: &str) {
        self.0.on_note(label, note);
    }

    fn audit_violation(&self, label: &str, message: &str) {
        self.0
            .on_note(label, &format!("audit violation: {message}"));
    }
}

struct Shared {
    socket: PathBuf,
    threads: usize,
    cache_on: bool,
    env: NocEnv,
    verbose: bool,
    cache: Arc<CellCache>,
    jobs: Mutex<HashMap<Fingerprint, Arc<Job>>>,
    queue: Mutex<VecDeque<Arc<Job>>>,
    queue_cv: Condvar,
    stop: AtomicBool,
}

impl Shared {
    fn log(&self, line: &str) {
        if self.verbose {
            eprintln!("snoc serve: {line}");
        }
    }

    /// Registers a grid under its key, or returns the already-known
    /// job — the idempotency point. The jobs-map lock makes racing
    /// submissions of one grid intern exactly one job.
    fn intern(&self, key: Fingerprint, name: String, grid: Vec<RunSpec>) -> (Arc<Job>, bool) {
        let mut jobs = relock(&self.jobs);
        if let Some(existing) = jobs.get(&key) {
            return (Arc::clone(existing), true);
        }
        let job = Arc::new(Job::new(key, name, grid));
        jobs.insert(key, Arc::clone(&job));
        relock(&self.queue).push_back(Arc::clone(&job));
        self.queue_cv.notify_one();
        (job, false)
    }

    fn lookup(&self, key: Fingerprint) -> Option<Arc<Job>> {
        relock(&self.jobs).get(&key).cloned()
    }

    fn begin_shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.log("shutdown requested");
        self.queue_cv.notify_all();
        // Wake the accept loop with a throwaway connection.
        let _ = UnixStream::connect(&self.socket);
    }
}

/// A running sweep server. Dropping it (or calling
/// [`Server::shutdown`]) stops the listener, lets the executor finish
/// the job in flight, aborts anything still queued, and joins both
/// threads.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    exec: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds the socket and starts the accept and executor threads.
    ///
    /// # Errors
    ///
    /// Fails if the socket path cannot be bound (e.g. the directory
    /// does not exist and cannot be created, or another live server
    /// holds it — a *stale* socket file is removed and rebound).
    pub fn start(opts: ServeOptions) -> io::Result<Server> {
        if let Some(parent) = opts.socket.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        if opts.socket.exists() {
            // A live server would still answer; a stale file from a
            // crashed one just blocks the bind. Probe before removing.
            if UnixStream::connect(&opts.socket).is_ok() {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("another server is live on {}", opts.socket.display()),
                ));
            }
            std::fs::remove_file(&opts.socket)?;
        }
        let listener = UnixListener::bind(&opts.socket)?;
        let shared = Arc::new(Shared {
            socket: opts.socket,
            threads: opts.threads.max(1),
            cache_on: opts.cache,
            env: opts.env,
            verbose: opts.verbose,
            cache: Arc::new(CellCache::new(opts.cache_dir)),
            jobs: Mutex::new(HashMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        shared.log(&format!(
            "listening on {} ({} worker thread(s), cache {})",
            shared.socket.display(),
            shared.threads,
            if shared.cache_on { "on" } else { "off" }
        ));
        let accept = std::thread::spawn({
            let shared = Arc::clone(&shared);
            move || accept_loop(&shared, listener)
        });
        let exec = std::thread::spawn({
            let shared = Arc::clone(&shared);
            move || executor(&shared)
        });
        Ok(Server {
            shared,
            accept: Some(accept),
            exec: Some(exec),
        })
    }

    /// The socket clients should connect to.
    pub fn socket(&self) -> &Path {
        &self.shared.socket
    }

    /// Initiates shutdown and joins the server threads (equivalent to
    /// dropping, but explicit at call sites).
    pub fn shutdown(self) {}

    /// Blocks until the server stops (a client sent `shutdown`).
    pub fn wait(mut self) {
        for h in [self.accept.take(), self.exec.take()].into_iter().flatten() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.begin_shutdown();
        for h in [self.accept.take(), self.exec.take()].into_iter().flatten() {
            let _ = h.join();
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: UnixListener) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        std::thread::spawn(move || {
            let _ = client_loop(&shared, stream);
        });
    }
    let _ = std::fs::remove_file(&shared.socket);
    shared.log("listener stopped");
}

/// The executor: one job at a time, FIFO, on a fresh per-job
/// [`SweepRunner`] that shares the server-wide cell cache.
fn executor(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = relock(&shared.queue);
            loop {
                if shared.stop.load(Ordering::SeqCst) {
                    break None;
                }
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                queue = shared
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(job) = job else { break };
        relock(&job.inner).state = WireState::Running;
        shared.log(&format!("job {} running ({} cells)", job.key, job.cells));
        let grid = relock(&job.grid).take().expect("grid taken exactly once");
        let runner = SweepRunner::new()
            .threads(shared.threads)
            .cache(shared.cache_on)
            .shared_cache(Arc::clone(&shared.cache))
            .observer(JobObserver(Arc::clone(&job)));
        // Per-cell panics are already isolated inside `run_grid`; this
        // outer guard is the last line of defence for the executor
        // itself (a bug in an observer, an allocation failure): the
        // job is marked aborted and the server keeps serving.
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| runner.run_grid(&job.name, grid)));
        match outcome {
            Ok(results) => {
                shared.log(&format!("job {} done", job.key));
                job.finish(WireState::Done, Some(results));
            }
            Err(_) => {
                shared.log(&format!("job {} aborted (runner panicked)", job.key));
                job.finish(WireState::Aborted, None);
            }
        }
    }
    // Unblock clients waiting on jobs that will now never run.
    let rest: Vec<_> = relock(&shared.queue).drain(..).collect();
    for job in rest {
        job.finish(WireState::Aborted, None);
    }
    shared.log("executor stopped");
}

fn client_loop(shared: &Arc<Shared>, stream: UnixStream) -> io::Result<()> {
    let reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let keep_serving = match protocol::parse_request(&line) {
            Err(e) => {
                writeln!(writer, "{}", protocol::error_line(&e))?;
                true
            }
            Ok(req) => dispatch(shared, &mut writer, req)?,
        };
        writer.flush()?;
        if !keep_serving {
            break;
        }
    }
    Ok(())
}

/// Handles one request; returns `false` when the connection should
/// close (shutdown).
fn dispatch(shared: &Arc<Shared>, writer: &mut impl Write, req: Request) -> io::Result<bool> {
    match req {
        Request::Ping => writeln!(writer, "{}", protocol::pong_line())?,
        Request::Shutdown => {
            writeln!(writer, "{}", protocol::shutdown_line())?;
            writer.flush()?;
            shared.begin_shutdown();
            return Ok(false);
        }
        Request::Status(key) => match shared.lookup(key) {
            None => writeln!(writer, "{}", protocol::error_line("unknown job"))?,
            Some(job) => {
                let (state, done, failed, hits) = job.status();
                writeln!(
                    writer,
                    "{}",
                    protocol::status_line(key, state, job.cells, done, failed, hits)
                )?;
            }
        },
        Request::Wait(key) => match shared.lookup(key) {
            None => writeln!(writer, "{}", protocol::error_line("unknown job"))?,
            Some(job) => stream_job(writer, &job)?,
        },
        Request::Results(key) => match shared.lookup(key) {
            None => writeln!(writer, "{}", protocol::error_line("unknown job"))?,
            Some(job) => write_results(writer, &job)?,
        },
        Request::Submit { job: req, wait } => {
            if shared.stop.load(Ordering::SeqCst) {
                writeln!(
                    writer,
                    "{}",
                    protocol::error_line("server is shutting down")
                )?;
                return Ok(true);
            }
            match jobs::build_grid(&req) {
                Err(e) => writeln!(writer, "{}", protocol::error_line(&e))?,
                Ok((name, grid)) => {
                    // The server's instrumentation becomes explicit spec
                    // fields *now*: they are part of the job key.
                    let grid: Vec<RunSpec> = grid
                        .into_iter()
                        .map(|s| s.resolve_env(&shared.env))
                        .collect();
                    let key = jobs::job_key(&grid);
                    let cells = grid.len();
                    let (job, deduped) = shared.intern(key, name, grid);
                    let (state, ..) = job.status();
                    if !deduped {
                        shared.log(&format!("job {key} queued ({cells} cells)"));
                    }
                    writeln!(
                        writer,
                        "{}",
                        protocol::submit_line(key, state, deduped, job.cells)
                    )?;
                    if wait {
                        writer.flush()?;
                        stream_job(writer, &job)?;
                    }
                }
            }
        }
    }
    Ok(true)
}

/// Streams progress events until the job reaches a terminal state.
///
/// The backlog snapshot and the subscription happen under one lock, so
/// the client sees every event exactly once no matter how the stream
/// races the job: an already-finished job replays its whole history
/// (ending in the `done` terminator), a running one replays what it
/// missed and then follows live.
fn stream_job(writer: &mut impl Write, job: &Job) -> io::Result<()> {
    let (backlog, rx) = {
        let mut inner = relock(&job.inner);
        let backlog = inner.events.clone();
        if matches!(inner.state, WireState::Done | WireState::Aborted) {
            (backlog, None)
        } else {
            let (tx, rx) = mpsc::channel();
            inner.subscribers.push(tx);
            (backlog, Some(rx))
        }
    };
    for line in &backlog {
        writeln!(writer, "{line}")?;
    }
    writer.flush()?;
    // The sender side is dropped right after the `done` event is
    // broadcast, so this loop always terminates.
    for line in rx.into_iter().flatten() {
        writeln!(writer, "{line}")?;
        writer.flush()?;
    }
    Ok(())
}

/// Per-cell metrics payloads, in the cell-cache text codec, each
/// sealed under a key derived from the job key and cell index.
fn write_results(writer: &mut impl Write, job: &Job) -> io::Result<()> {
    let state = job.await_done();
    if state == WireState::Aborted {
        writeln!(
            writer,
            "{}",
            protocol::error_line("job aborted by server shutdown")
        )?;
        return Ok(());
    }
    let inner = relock(&job.inner);
    let results = inner.results.as_ref().expect("done jobs carry results");
    for r in results {
        let payload = match &r.outcome {
            Ok(m) => {
                let instrumented = m.audit.is_some() || m.telemetry.is_some() || m.faults.is_some();
                let mut plain = m.clone();
                plain.audit = None;
                plain.telemetry = None;
                plain.faults = None;
                let mkey = result_key(job.key, r.index);
                Ok((mkey, cellcache::encode_metrics(&plain, mkey), instrumented))
            }
            Err(e) => Err(e.to_string()),
        };
        writeln!(
            writer,
            "{}",
            protocol::result_event(job.key, r.index, &r.label, &payload)
        )?;
    }
    let line = job.done_line(&inner);
    drop(inner);
    writeln!(writer, "{line}")?;
    Ok(())
}

/// The fingerprint a result payload is sealed under (echoed on the
/// wire so clients can verify the document).
pub fn result_key(job: Fingerprint, index: usize) -> Fingerprint {
    let mut h = StableHasher::new();
    h.write_str("snoc-result/1");
    h.write_str(&job.to_hex());
    h.write_usize(index);
    h.finish()
}
