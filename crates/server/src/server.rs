//! The experiment daemon: bounded journaled job queue, worker pool,
//! deadlines, retries with exponential backoff, poison-job quarantine,
//! and crash-resume.
//!
//! ## Job state machine
//!
//! ```text
//!                 submit (WAL: SUBMIT)
//!                     │
//!                     ▼
//!   ┌────────────► queued ◄──────────────┐
//!   │                 │                   │ backoff elapsed
//!   │     worker picks up (WAL: START)    │
//!   │                 ▼                backoff
//!   │              running ────────────────┘
//!   │                 │ \  retryable failure / deadline / panic,
//!   │                 │  \ attempts left (WAL: FAIL terminal=0)
//!   │   result rename │
//!   │   (WAL: DONE)   │ terminal error or attempts exhausted
//!   │                 │    (WAL: FAIL terminal=1)
//!   │                 ▼         ▼
//!   │               done    failed / quarantined
//!   └── restart re-queues any job without a terminal record
//! ```
//!
//! ## Crash-resume
//!
//! Every transition is journaled through [`JobWal`] *before* it takes
//! effect, and result documents are committed with the temp-file +
//! rename discipline the trace store uses. On restart, jobs with a
//! `SUBMIT` but no terminal record are re-queued and re-run; because
//! every job body is a pure function of its spec, the resumed run
//! produces **byte-identical** result documents. The deterministic
//! abort hook ([`dcg_core::crash_point`], driven by `DCG_TEST_CRASH`)
//! makes this a CI invariant rather than a hope:
//! `server.before-journal:N` aborts before the Nth submit is journaled,
//! `server.before-commit:N` aborts with the Nth result computed but not
//! yet renamed into place, `server.after-commit:N` aborts between the
//! rename and its `DONE` record (restart detects the orphaned result
//! and completes the commit without re-running).
//!
//! ## Degradation
//!
//! A full queue answers `Busy` with a retry-after hint and does *not*
//! accept the job — the server never accepts work it may drop. A
//! panicking job body is caught, classified as a retryable failure and
//! counted; it cannot take the daemon down. A worker that exceeds the
//! job's per-class deadline abandons the attempt (the body thread is
//! detached and its result discarded) and schedules a retry.
//!
//! ## Events, not timers
//!
//! [`serve`](ExperimentServer::serve) blocks in `accept`; a `Shutdown`
//! request wakes it by connecting once to the listener's own path. A
//! `Result` request for an unfinished job waits on the `settled`
//! condition variable (signalled by commits, failed attempts and
//! shutdown) for up to one second before answering `NotReady`, so a
//! client needs no poll interval.
//!
//! ## One trace store
//!
//! The server owns a single [`TraceCache`] over `state_dir/traces`.
//! Every replay job runs against it, and the health document reports
//! its counters.

use std::collections::{HashMap, VecDeque};
use std::fs::{self, OpenOptions};
use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use dcg_core::{crash_point, TraceCache};
use dcg_testkit::json::Json;

use crate::jobs::{run_job_in, JobClass, JobError, JobSpec};
use crate::protocol::{err_code, read_frame, write_frame, ProtocolError, Reply, Request};
use crate::wal::{JobWal, WalRecord};

/// Environment variable bounding the job queue (`dcg-server` and
/// `repro serve` read it; the library takes [`ServerConfig`] directly).
pub const SERVER_QUEUE_ENV: &str = "DCG_SERVER_QUEUE";

/// Environment variable bounding execution attempts per job.
pub const SERVER_RETRIES_ENV: &str = "DCG_SERVER_RETRIES";

/// Subdirectory of the state directory holding committed result
/// documents (`job-<id>.json`).
pub const JOBS_DIR: &str = "jobs";

/// Longest a `Result` request for an unfinished job waits for the job to
/// settle before it is answered `NotReady`.
const RESULT_WAIT: Duration = Duration::from_secs(1);

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Server tuning. Env knobs are read by the binaries only; the library
/// is configured programmatically.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// State directory: job WAL, result documents, replay trace store
    /// (`traces/`).
    pub state_dir: PathBuf,
    /// Worker threads executing job bodies.
    pub workers: usize,
    /// Jobs admitted but not yet terminal before `submit` answers
    /// `Busy`.
    pub queue_capacity: usize,
    /// Execution attempts before a retryable job is quarantined.
    pub max_attempts: u32,
    /// First retry delay; doubles per attempt.
    pub backoff_base: Duration,
    /// Upper bound on the retry delay.
    pub backoff_cap: Duration,
    /// Deadline for single-benchmark jobs.
    pub deadline_single: Duration,
    /// Deadline for suite/campaign jobs.
    pub deadline_heavy: Duration,
}

impl ServerConfig {
    /// Defaults rooted at `state_dir`: workers = available parallelism
    /// (capped at 4 — job bodies shard internally via the sweep pool),
    /// a 64-job queue, 3 attempts, 50 ms base / 2 s cap backoff, 2 min
    /// single-job and 10 min heavy-job deadlines.
    #[must_use]
    pub fn new(state_dir: PathBuf) -> ServerConfig {
        let parallelism = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        ServerConfig {
            state_dir,
            workers: parallelism.min(4),
            queue_capacity: 64,
            max_attempts: 3,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            deadline_single: Duration::from_secs(120),
            deadline_heavy: Duration::from_secs(600),
        }
    }

    fn deadline_for(&self, class: JobClass) -> Duration {
        match class {
            JobClass::Single => self.deadline_single,
            JobClass::Heavy => self.deadline_heavy,
        }
    }
}

// ---------------------------------------------------------------------------
// Job table
// ---------------------------------------------------------------------------

/// Public view of a job's lifecycle state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a worker.
    Queued,
    /// A worker is executing an attempt.
    Running,
    /// A retryable failure; re-queued once the backoff elapses.
    Backoff,
    /// Result document committed.
    Done,
    /// Terminal (non-retryable) failure.
    Failed(String),
    /// Retryable failures exhausted the attempt budget.
    Quarantined(String),
}

impl JobState {
    /// The wire label (`queued`, `running`, ...).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Backoff => "backoff",
            JobState::Done => "done",
            JobState::Failed(_) => "failed",
            JobState::Quarantined(_) => "quarantined",
        }
    }

    /// Whether the job can make no further progress (done, failed or
    /// quarantined).
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed(_) | JobState::Quarantined(_)
        )
    }
}

#[derive(Debug)]
struct Job {
    spec: JobSpec,
    state: JobState,
    attempts: u32,
}

#[derive(Debug, Default)]
struct Inner {
    jobs: HashMap<u64, Job>,
    /// Ids ready to run, FIFO.
    ready: VecDeque<u64>,
    /// Ids waiting out a backoff, with their due time (kept sorted by
    /// due time on insert).
    delayed: Vec<(Instant, u64)>,
    /// Jobs admitted and not yet terminal (the bounded-queue measure).
    open: usize,
    running: usize,
}

/// Monotonic counters exposed through the health document.
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// Jobs accepted (deduped submits not included).
    pub accepted: AtomicU64,
    /// Submits answered with `Busy`.
    pub rejected_busy: AtomicU64,
    /// Submits deduplicated against a known job.
    pub deduped: AtomicU64,
    /// Attempts that failed retryably (including deadlines/panics).
    pub retries: AtomicU64,
    /// Attempts that blew their deadline.
    pub deadline_misses: AtomicU64,
    /// Job bodies that panicked (caught, classified, survived).
    pub panics: AtomicU64,
    /// Jobs quarantined after exhausting attempts.
    pub quarantined: AtomicU64,
    /// Jobs completed.
    pub completed: AtomicU64,
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// Outcome of a submit call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Accepted (or already known when `deduped`).
    Accepted {
        /// The job id.
        id: u64,
        /// Whether the spec deduplicated against an existing job.
        deduped: bool,
    },
    /// Bounded queue full; nothing was accepted.
    Busy {
        /// Suggested retry delay, milliseconds.
        retry_after_ms: u64,
    },
    /// The WAL could not journal the submit durably.
    JournalError(String),
}

/// The experiment daemon. Construct with [`ExperimentServer::open`]
/// (which replays the WAL), then either [`serve`](Self::serve) on a
/// Unix socket or [`drain`](Self::drain) to run the recovered backlog
/// to completion and return.
#[derive(Debug)]
pub struct ExperimentServer {
    cfg: ServerConfig,
    wal: JobWal,
    /// The one trace store over `state_dir/traces`, shared by every
    /// replay job and read by the health document.
    cache: TraceCache,
    inner: Mutex<Inner>,
    /// Wakes workers: a job became ready, or shutdown began.
    work: Condvar,
    /// Wakes `Result` waiters: a job settled or failed an attempt, or
    /// shutdown began. Kept apart from `work` so a waiter never takes the
    /// `notify_one` a submit meant for a worker.
    settled: Condvar,
    shutdown: AtomicBool,
    /// Counters for the health document.
    pub counters: ServerCounters,
}

impl ExperimentServer {
    /// Open the server state: create directories, replay the job WAL,
    /// rebuild the job table and re-queue every job without a terminal
    /// record. Jobs whose result document already exists but whose
    /// `DONE` record was lost (an `after-commit` crash) are completed
    /// idempotently — the `DONE` is journaled now, without re-running.
    ///
    /// # Errors
    ///
    /// Unrecoverable state-directory I/O only.
    pub fn open(cfg: ServerConfig) -> std::io::Result<Arc<ExperimentServer>> {
        fs::create_dir_all(cfg.state_dir.join(JOBS_DIR))?;
        let (wal, records) = JobWal::open(&cfg.state_dir)?;

        // Fold the record stream into final per-job states.
        let mut jobs: HashMap<u64, Job> = HashMap::new();
        let mut order: Vec<u64> = Vec::new();
        for rec in records {
            match rec {
                WalRecord::Submit { id, spec } => {
                    jobs.entry(id).or_insert_with(|| {
                        order.push(id);
                        Job {
                            spec,
                            state: JobState::Queued,
                            attempts: 0,
                        }
                    });
                }
                WalRecord::Start { id, attempt } => {
                    if let Some(j) = jobs.get_mut(&id) {
                        j.attempts = j.attempts.max(attempt);
                        j.state = JobState::Running;
                    }
                }
                WalRecord::Done { id } => {
                    if let Some(j) = jobs.get_mut(&id) {
                        j.state = JobState::Done;
                    }
                }
                WalRecord::Fail {
                    id,
                    attempt,
                    terminal,
                    message,
                } => {
                    if let Some(j) = jobs.get_mut(&id) {
                        j.attempts = j.attempts.max(attempt);
                        j.state = if terminal {
                            if attempt >= cfg.max_attempts {
                                JobState::Quarantined(message)
                            } else {
                                JobState::Failed(message)
                            }
                        } else {
                            JobState::Queued
                        };
                    }
                }
            }
        }

        let server = ExperimentServer {
            cache: TraceCache::new(cfg.state_dir.join("traces")),
            cfg,
            wal,
            inner: Mutex::new(Inner::default()),
            work: Condvar::new(),
            settled: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counters: ServerCounters::default(),
        };

        {
            let mut inner = server.inner.lock().expect("server lock");
            for id in order {
                let mut job = jobs.remove(&id).expect("folded job");
                match &job.state {
                    JobState::Done => {
                        if !server.result_path(id).is_file() {
                            // DONE journaled but the result vanished
                            // (manual deletion): re-run.
                            job.state = JobState::Queued;
                        }
                    }
                    JobState::Queued | JobState::Running | JobState::Backoff => {
                        if server.result_path(id).is_file() {
                            // after-commit crash: the rename happened
                            // but DONE was lost. Complete the commit.
                            server.wal.append(&WalRecord::Done { id })?;
                            job.state = JobState::Done;
                        } else {
                            job.state = JobState::Queued;
                        }
                    }
                    JobState::Failed(_) | JobState::Quarantined(_) => {}
                }
                if job.state == JobState::Queued {
                    inner.ready.push_back(id);
                    inner.open += 1;
                }
                inner.jobs.insert(id, job);
            }
        }
        Ok(Arc::new(server))
    }

    /// The committed result document path for a job id.
    #[must_use]
    pub fn result_path(&self, id: u64) -> PathBuf {
        self.cfg
            .state_dir
            .join(JOBS_DIR)
            .join(format!("job-{id:016x}.json"))
    }

    /// Submit a job: dedup by spec digest, enforce the queue bound,
    /// journal, enqueue.
    pub fn submit(&self, spec: JobSpec) -> SubmitOutcome {
        let id = spec.id();
        let mut inner = self.inner.lock().expect("server lock");
        if inner.jobs.contains_key(&id) {
            self.counters.deduped.fetch_add(1, Ordering::Relaxed);
            return SubmitOutcome::Accepted { id, deduped: true };
        }
        if inner.open >= self.cfg.queue_capacity {
            self.counters.rejected_busy.fetch_add(1, Ordering::Relaxed);
            // Scale the hint with how deep the backlog is relative to
            // the worker pool.
            let per_worker = inner.open / self.cfg.workers.max(1);
            return SubmitOutcome::Busy {
                retry_after_ms: 100 * (per_worker as u64 + 1),
            };
        }
        crash_point("server.before-journal");
        if let Err(e) = self.wal.append(&WalRecord::Submit {
            id,
            spec: spec.clone(),
        }) {
            // Never accept-then-drop: an unjournaled job is not a job.
            return SubmitOutcome::JournalError(format!("job WAL append failed: {e}"));
        }
        inner.jobs.insert(
            id,
            Job {
                spec,
                state: JobState::Queued,
                attempts: 0,
            },
        );
        inner.ready.push_back(id);
        inner.open += 1;
        self.counters.accepted.fetch_add(1, Ordering::Relaxed);
        drop(inner);
        self.work.notify_one();
        SubmitOutcome::Accepted { id, deduped: false }
    }

    /// State and attempt count of a job, if known.
    #[must_use]
    pub fn status(&self, id: u64) -> Option<(JobState, u32)> {
        let inner = self.inner.lock().expect("server lock");
        inner.jobs.get(&id).map(|j| (j.state.clone(), j.attempts))
    }

    /// [`status`](Self::status), except that a known job which is not yet
    /// terminal is waited on for up to [`RESULT_WAIT`]; shutdown ends the
    /// wait early.
    fn settled_status(&self, id: u64) -> Option<(JobState, u32)> {
        let deadline = Instant::now() + RESULT_WAIT;
        let mut inner = self.inner.lock().expect("server lock");
        loop {
            let job = inner.jobs.get(&id)?;
            let now = Instant::now();
            if job.state.is_terminal() || self.shutdown.load(Ordering::Relaxed) || now >= deadline {
                return Some((job.state.clone(), job.attempts));
            }
            inner = self
                .settled
                .wait_timeout(inner, deadline - now)
                .expect("server lock")
                .0;
        }
    }

    /// The committed result document of a `Done` job.
    #[must_use]
    pub fn result(&self, id: u64) -> Option<Vec<u8>> {
        match self.status(id)? {
            (JobState::Done, _) => fs::read(self.result_path(id)).ok(),
            _ => None,
        }
    }

    /// The health document: queue depth, per-state job counts, server
    /// counters and the trace cache health (including read-only skips).
    #[must_use]
    pub fn health_json(&self) -> String {
        let inner = self.inner.lock().expect("server lock");
        let mut by_state: Vec<(&'static str, u64)> = Vec::new();
        for label in [
            "queued",
            "running",
            "backoff",
            "done",
            "failed",
            "quarantined",
        ] {
            let n = inner
                .jobs
                .values()
                .filter(|j| j.state.label() == label)
                .count() as u64;
            by_state.push((label, n));
        }
        let open = inner.open as u64;
        drop(inner);
        let c = &self.counters;
        let ch = self.cache.health();
        let doc = Json::obj([
            ("open_jobs", Json::u64(open)),
            ("queue_capacity", Json::u64(self.cfg.queue_capacity as u64)),
            ("workers", Json::u64(self.cfg.workers as u64)),
            (
                "jobs",
                Json::obj(
                    by_state
                        .into_iter()
                        .map(|(k, v)| (k, Json::u64(v)))
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "counters",
                Json::obj([
                    ("accepted", Json::u64(c.accepted.load(Ordering::Relaxed))),
                    (
                        "rejected_busy",
                        Json::u64(c.rejected_busy.load(Ordering::Relaxed)),
                    ),
                    ("deduped", Json::u64(c.deduped.load(Ordering::Relaxed))),
                    ("retries", Json::u64(c.retries.load(Ordering::Relaxed))),
                    (
                        "deadline_misses",
                        Json::u64(c.deadline_misses.load(Ordering::Relaxed)),
                    ),
                    ("panics", Json::u64(c.panics.load(Ordering::Relaxed))),
                    (
                        "quarantined",
                        Json::u64(c.quarantined.load(Ordering::Relaxed)),
                    ),
                    ("completed", Json::u64(c.completed.load(Ordering::Relaxed))),
                ]),
            ),
            (
                "cache_health",
                Json::obj([
                    ("store_failures", Json::u64(ch.store_failures)),
                    ("evict_failures", Json::u64(ch.evict_failures)),
                    ("replay_failures", Json::u64(ch.replay_failures)),
                    ("key_collisions", Json::u64(ch.key_collisions)),
                    ("readonly_skips", Json::u64(ch.readonly_skips)),
                ]),
            ),
        ]);
        doc.to_string()
    }

    // -----------------------------------------------------------------
    // Worker pool
    // -----------------------------------------------------------------

    /// Spawn the worker pool. Threads exit once shutdown is requested
    /// (after finishing their current job) or, under `drain`, once no
    /// open jobs remain.
    fn spawn_workers(self: &Arc<Self>, drain: bool) -> Vec<std::thread::JoinHandle<()>> {
        (0..self.cfg.workers.max(1))
            .map(|_| {
                let server = Arc::clone(self);
                std::thread::spawn(move || server.worker_loop(drain))
            })
            .collect()
    }

    fn worker_loop(self: &Arc<Self>, drain: bool) {
        loop {
            let claimed = {
                let mut inner = self.inner.lock().expect("server lock");
                loop {
                    // Promote delayed jobs whose backoff elapsed.
                    let now = Instant::now();
                    while let Some(&(due, id)) = inner.delayed.first() {
                        if due > now {
                            break;
                        }
                        inner.delayed.remove(0);
                        if let Some(j) = inner.jobs.get_mut(&id) {
                            j.state = JobState::Queued;
                        }
                        inner.ready.push_back(id);
                    }
                    if let Some(id) = inner.ready.pop_front() {
                        inner.running += 1;
                        let job = inner.jobs.get_mut(&id).expect("queued job exists");
                        job.attempts += 1;
                        job.state = JobState::Running;
                        break Some((id, job.spec.clone(), job.attempts));
                    }
                    if self.shutdown.load(Ordering::Relaxed) {
                        break None;
                    }
                    if drain && inner.open == 0 {
                        break None;
                    }
                    let wait = inner
                        .delayed
                        .first()
                        .map(|&(due, _)| due.saturating_duration_since(Instant::now()))
                        .unwrap_or(Duration::from_millis(100))
                        .min(Duration::from_millis(100));
                    let (guard, _) = self
                        .work
                        .wait_timeout(inner, wait.max(Duration::from_millis(1)))
                        .expect("server lock");
                    inner = guard;
                }
            };
            let Some((id, spec, attempt)) = claimed else {
                self.work.notify_all();
                return;
            };
            // Journal the attempt. A WAL failure here is not fatal: the
            // attempt simply is not recorded, and a crash re-runs it.
            if let Err(e) = self.wal.append(&WalRecord::Start { id, attempt }) {
                eprintln!("warning: job WAL START append failed: {e}");
            }
            eprintln!("job {id:016x} attempt {attempt}: {}", spec.label());
            let outcome = self.execute_with_deadline(&spec);
            self.conclude(id, attempt, outcome);
        }
    }

    /// Run the body on a dedicated thread, bounded by the class
    /// deadline. On timeout the body thread is detached — its eventual
    /// result is discarded (the receiver is dropped) and the attempt is
    /// classified a retryable deadline miss.
    fn execute_with_deadline(&self, spec: &JobSpec) -> Result<String, JobError> {
        let deadline = self.cfg.deadline_for(spec.class());
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        let body_spec = spec.clone();
        let cache = self.cache.clone();
        std::thread::spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_job_in(&body_spec, &cache)
            }));
            // Release the store before reporting, so the server's handle
            // is the last one once the pool has joined.
            drop(cache);
            let _ = tx.send(result);
        });
        match rx.recv_timeout(deadline) {
            Ok(Ok(result)) => result,
            Ok(Err(panic)) => {
                self.counters.panics.fetch_add(1, Ordering::Relaxed);
                Err(JobError {
                    message: format!("job body panicked: {}", panic_message(&panic)),
                    retryable: true,
                })
            }
            Err(_) => {
                self.counters
                    .deadline_misses
                    .fetch_add(1, Ordering::Relaxed);
                Err(JobError {
                    message: format!("deadline of {deadline:?} exceeded"),
                    retryable: true,
                })
            }
        }
    }

    /// Commit or fail an attempt, journaling the transition.
    fn conclude(&self, id: u64, attempt: u32, outcome: Result<String, JobError>) {
        match outcome {
            Ok(json) => match self.commit_result(id, &json) {
                Ok(()) => {
                    let mut inner = self.inner.lock().expect("server lock");
                    if let Some(j) = inner.jobs.get_mut(&id) {
                        j.state = JobState::Done;
                    }
                    inner.open = inner.open.saturating_sub(1);
                    inner.running = inner.running.saturating_sub(1);
                    drop(inner);
                    self.counters.completed.fetch_add(1, Ordering::Relaxed);
                    self.work.notify_all();
                    self.settled.notify_all();
                }
                Err(e) => self.fail_attempt(
                    id,
                    attempt,
                    JobError {
                        message: format!("result commit failed: {e}"),
                        retryable: true,
                    },
                ),
            },
            Err(e) => self.fail_attempt(id, attempt, e),
        }
    }

    /// Write the result document durably: temp file + `sync_data` +
    /// rename, with the crash hook at the torn point and after the
    /// rename.
    fn commit_result(&self, id: u64, json: &str) -> std::io::Result<()> {
        let final_path = self.result_path(id);
        let tmp_path = final_path.with_extension(format!("tmp.{}", std::process::id()));
        {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp_path)?;
            f.write_all(json.as_bytes())?;
            f.sync_data()?;
        }
        crash_point("server.before-commit");
        fs::rename(&tmp_path, &final_path)?;
        crash_point("server.after-commit");
        self.wal.append(&WalRecord::Done { id })?;
        Ok(())
    }

    fn fail_attempt(&self, id: u64, attempt: u32, err: JobError) {
        let exhausted = attempt >= self.cfg.max_attempts;
        let terminal = !err.retryable || exhausted;
        if let Err(e) = self.wal.append(&WalRecord::Fail {
            id,
            attempt,
            terminal,
            message: err.message.clone(),
        }) {
            eprintln!("warning: job WAL FAIL append failed: {e}");
        }
        let mut inner = self.inner.lock().expect("server lock");
        inner.running = inner.running.saturating_sub(1);
        if terminal {
            inner.open = inner.open.saturating_sub(1);
            if let Some(j) = inner.jobs.get_mut(&id) {
                j.state = if err.retryable {
                    self.counters.quarantined.fetch_add(1, Ordering::Relaxed);
                    JobState::Quarantined(err.message.clone())
                } else {
                    JobState::Failed(err.message.clone())
                };
            }
            eprintln!(
                "job {id:016x} attempt {attempt} FAILED terminally: {}",
                err.message
            );
        } else {
            self.counters.retries.fetch_add(1, Ordering::Relaxed);
            let backoff = self
                .cfg
                .backoff_base
                .saturating_mul(1u32 << (attempt - 1).min(16))
                .min(self.cfg.backoff_cap);
            let due = Instant::now() + backoff;
            if let Some(j) = inner.jobs.get_mut(&id) {
                j.state = JobState::Backoff;
            }
            let pos = inner.delayed.partition_point(|&(d, _)| d <= due);
            inner.delayed.insert(pos, (due, id));
            eprintln!(
                "job {id:016x} attempt {attempt} failed ({}); retrying in {backoff:?}",
                err.message
            );
        }
        drop(inner);
        self.work.notify_all();
        self.settled.notify_all();
    }

    // -----------------------------------------------------------------
    // Entry points
    // -----------------------------------------------------------------

    /// Run the recovered backlog to completion with the worker pool,
    /// then return. Used by `--drain` (the CI restart step) and tests.
    pub fn drain(self: &Arc<Self>) {
        let workers = self.spawn_workers(true);
        for w in workers {
            let _ = w.join();
        }
    }

    /// Serve requests on `listener` until a `Shutdown` request arrives,
    /// running jobs on the worker pool. Consumes the accept loop.
    ///
    /// The accept blocks; the connection that carried `Shutdown` wakes it
    /// by connecting once more to the listener's own path.
    pub fn serve(self: &Arc<Self>, listener: UnixListener) {
        let workers = self.spawn_workers(false);
        for conn in listener.incoming() {
            if self.shutdown.load(Ordering::Relaxed) {
                break;
            }
            match conn {
                Ok(stream) => {
                    let server = Arc::clone(self);
                    std::thread::spawn(move || server.handle_connection(stream));
                }
                Err(e) => {
                    eprintln!("accept failed: {e}");
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }
        self.work.notify_all();
        for w in workers {
            let _ = w.join();
        }
    }

    /// Handle one client connection: frames in, frames out, until EOF
    /// or a protocol error. Read timeouts keep a stalled client from
    /// pinning the handler thread forever.
    fn handle_connection(self: &Arc<Self>, mut stream: UnixStream) {
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
        loop {
            let payload = match read_frame(&mut stream) {
                Ok(p) => p,
                Err(ProtocolError::Truncated { got: 0, .. }) => return, // clean EOF
                Err(ProtocolError::Io(_)) => return,
                Err(e) => {
                    // Malformed frame: answer with a structured error,
                    // then drop the connection (framing is lost).
                    let reply = Reply::Err {
                        code: err_code::BAD_REQUEST,
                        message: e.to_string(),
                    };
                    let _ = write_frame(&mut stream, &reply.encode());
                    return;
                }
            };
            let reply = match Request::decode(&payload) {
                Ok(req) => self.answer(req),
                Err(e) => Reply::Err {
                    code: err_code::BAD_REQUEST,
                    message: e.to_string(),
                },
            };
            let shutting_down = reply == Reply::ShuttingDown;
            if write_frame(&mut stream, &reply.encode()).is_err() {
                return;
            }
            if shutting_down {
                // Wake the accept loop so it sees the shutdown flag.
                if let Ok(addr) = stream.local_addr() {
                    if let Some(path) = addr.as_pathname() {
                        let _ = UnixStream::connect(path);
                    }
                }
                return;
            }
        }
    }

    /// Compute the reply for one request.
    #[must_use]
    pub fn answer(&self, req: Request) -> Reply {
        match req {
            Request::Ping => Reply::Pong,
            Request::Submit(spec) => match self.submit(spec) {
                SubmitOutcome::Accepted { id, deduped } => Reply::Submitted { id, deduped },
                SubmitOutcome::Busy { retry_after_ms } => Reply::Busy { retry_after_ms },
                SubmitOutcome::JournalError(message) => Reply::Err {
                    code: err_code::STORAGE,
                    message,
                },
            },
            Request::Status(id) => match self.status(id) {
                Some((state, attempts)) => Reply::Status {
                    id,
                    state: state.label().to_string(),
                    attempts,
                },
                None => Reply::Err {
                    code: err_code::UNKNOWN_JOB,
                    message: format!("no job {id:016x}"),
                },
            },
            Request::Result(id) => match self.settled_status(id) {
                Some((JobState::Done, _)) => match self.result(id) {
                    Some(json) => Reply::Result { id, json },
                    None => Reply::Err {
                        code: err_code::STORAGE,
                        message: format!("result document for job {id:016x} unreadable"),
                    },
                },
                Some((JobState::Failed(m) | JobState::Quarantined(m), _)) => Reply::Err {
                    code: err_code::JOB_FAILED,
                    message: m,
                },
                Some((state, _)) => Reply::NotReady {
                    id,
                    state: state.label().to_string(),
                },
                None => Reply::Err {
                    code: err_code::UNKNOWN_JOB,
                    message: format!("no job {id:016x}"),
                },
            },
            Request::Health => Reply::Health(self.health_json()),
            Request::Shutdown => {
                // Set the flag under the lock, so a `Result` waiter cannot
                // check it and then miss the wake-up.
                let inner = self.inner.lock().expect("server lock");
                self.shutdown.store(true, Ordering::Relaxed);
                drop(inner);
                self.work.notify_all();
                self.settled.notify_all();
                Reply::ShuttingDown
            }
        }
    }
}

/// Best-effort panic payload extraction (mirrors the suite's handling).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::DcgClient;
    use std::path::Path;
    use std::sync::mpsc;

    fn scratch(tag: &str) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp")
            .join(format!("server-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spec(bench: &str, seed: u64) -> JobSpec {
        JobSpec::Simulate {
            bench: bench.into(),
            seed,
            quick: true,
        }
    }

    /// Run `serve` for `server` on `<dir>/dcg.sock` in a background
    /// thread; the receiver fires once `serve` returns.
    fn serve_in_background(
        server: &Arc<ExperimentServer>,
        dir: &Path,
    ) -> (PathBuf, mpsc::Receiver<()>) {
        let sock = dir.join("dcg.sock");
        let listener = UnixListener::bind(&sock).unwrap();
        let (tx, rx) = mpsc::channel();
        let server = Arc::clone(server);
        std::thread::spawn(move || {
            server.serve(listener);
            let _ = tx.send(());
        });
        (sock, rx)
    }

    #[test]
    fn bounded_queue_answers_busy_and_never_accepts_then_drops() {
        let mut cfg = ServerConfig::new(scratch("busy"));
        cfg.queue_capacity = 2;
        let server = ExperimentServer::open(cfg).unwrap();
        // No workers running: admissions stay open.
        assert!(matches!(
            server.submit(spec("gzip", 1)),
            SubmitOutcome::Accepted { deduped: false, .. }
        ));
        assert!(matches!(
            server.submit(spec("gzip", 2)),
            SubmitOutcome::Accepted { deduped: false, .. }
        ));
        let busy = server.submit(spec("gzip", 3));
        let SubmitOutcome::Busy { retry_after_ms } = busy else {
            panic!("expected Busy, got {busy:?}");
        };
        assert!(retry_after_ms > 0);
        // The rejected job is unknown — it was never half-accepted.
        assert!(server.status(spec("gzip", 3).id()).is_none());
        // Dedup does not consume capacity and still answers.
        assert!(matches!(
            server.submit(spec("gzip", 1)),
            SubmitOutcome::Accepted { deduped: true, .. }
        ));
        assert_eq!(server.counters.rejected_busy.load(Ordering::Relaxed), 1);
        // Saturation never costs an accepted job: drain commits both.
        server.drain();
        for seed in [1, 2] {
            let id = spec("gzip", seed).id();
            assert_eq!(server.status(id).unwrap().0, JobState::Done);
            assert!(server.result(id).is_some());
        }
    }

    #[test]
    fn drain_runs_jobs_and_persists_results() {
        let dir = scratch("drain");
        let mut cfg = ServerConfig::new(dir.clone());
        cfg.workers = 2;
        let server = ExperimentServer::open(cfg.clone()).unwrap();
        let a = spec("gzip", 42);
        let b = spec("mcf", 42);
        server.submit(a.clone());
        server.submit(b.clone());
        server.drain();
        for s in [&a, &b] {
            let (state, attempts) = server.status(s.id()).unwrap();
            assert_eq!(state, JobState::Done);
            assert_eq!(attempts, 1);
            let json = server.result(s.id()).unwrap();
            assert!(std::str::from_utf8(&json).unwrap().contains("dcg_saving"));
        }
        drop(server);

        // Reopen: everything terminal, nothing re-queued, results
        // identical.
        let reopened = ExperimentServer::open(cfg).unwrap();
        let before = reopened.result(a.id()).unwrap();
        reopened.drain(); // no open jobs: returns immediately
        assert_eq!(reopened.result(a.id()).unwrap(), before);
        assert_eq!(reopened.status(a.id()).unwrap().0, JobState::Done);
    }

    #[test]
    fn terminal_failure_is_not_retried_and_panic_is_classified() {
        let dir = scratch("terminal");
        let mut cfg = ServerConfig::new(dir);
        cfg.workers = 1;
        cfg.backoff_base = Duration::from_millis(1);
        let server = ExperimentServer::open(cfg).unwrap();
        let bad = spec("no-such-benchmark", 1);
        server.submit(bad.clone());
        server.drain();
        let (state, attempts) = server.status(bad.id()).unwrap();
        assert!(matches!(state, JobState::Failed(_)), "got {state:?}");
        assert_eq!(attempts, 1, "terminal errors are not retried");
        assert!(server.result(bad.id()).is_none());
    }

    #[test]
    fn zero_count_fault_job_quarantine_path_counts_attempts() {
        // A fault campaign with count 0 is terminal on attempt 1; a
        // retryable failure would instead exhaust max_attempts. Use the
        // WAL to verify the FAIL record is terminal.
        let dir = scratch("quarantine");
        let mut cfg = ServerConfig::new(dir.clone());
        cfg.workers = 1;
        cfg.max_attempts = 2;
        let server = ExperimentServer::open(cfg.clone()).unwrap();
        let bad = JobSpec::Faults { seed: 1, count: 0 };
        server.submit(bad.clone());
        server.drain();
        assert!(matches!(
            server.status(bad.id()).unwrap().0,
            JobState::Failed(_)
        ));
        drop(server);
        // Restart must not resurrect the failed job.
        let reopened = ExperimentServer::open(cfg).unwrap();
        assert!(matches!(
            reopened.status(bad.id()).unwrap().0,
            JobState::Failed(_)
        ));
        let inner = reopened.inner.lock().unwrap();
        assert_eq!(inner.open, 0);
    }

    #[test]
    fn restart_requeues_incomplete_jobs_and_resumed_results_match() {
        // Simulate a crash by dropping the server after submit (no
        // workers ran): the WAL has SUBMITs without terminal records.
        let dir = scratch("resume");
        let cfg = ServerConfig::new(dir.clone());
        let server = ExperimentServer::open(cfg.clone()).unwrap();
        let a = spec("gzip", 7);
        server.submit(a.clone());
        drop(server); // "kill": no DONE journaled

        // Reference result from a pristine run elsewhere.
        let ref_dir = scratch("resume-ref");
        let ref_server = ExperimentServer::open(ServerConfig::new(ref_dir)).unwrap();
        ref_server.submit(a.clone());
        ref_server.drain();
        let want = ref_server.result(a.id()).unwrap();

        // Restart re-queues and re-runs to an identical document.
        let resumed = ExperimentServer::open(cfg).unwrap();
        assert_eq!(resumed.status(a.id()).unwrap().0, JobState::Queued);
        resumed.drain();
        assert_eq!(resumed.result(a.id()).unwrap(), want);
    }

    #[test]
    fn orphaned_result_completes_the_commit_without_rerunning() {
        // after-commit crash shape: result file present, DONE record
        // missing. open() must journal DONE and mark the job Done.
        let dir = scratch("orphan");
        let cfg = ServerConfig::new(dir.clone());
        let server = ExperimentServer::open(cfg.clone()).unwrap();
        let a = spec("gzip", 9);
        server.submit(a.clone());
        let path = server.result_path(a.id());
        drop(server);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, b"{\"sentinel\":true}\n").unwrap();

        let reopened = ExperimentServer::open(cfg.clone()).unwrap();
        assert_eq!(reopened.status(a.id()).unwrap().0, JobState::Done);
        // The sentinel bytes survive: the job was NOT re-run.
        assert_eq!(reopened.result(a.id()).unwrap(), b"{\"sentinel\":true}\n");
        drop(reopened);
        // And the completion is durable.
        let again = ExperimentServer::open(cfg).unwrap();
        assert_eq!(again.status(a.id()).unwrap().0, JobState::Done);
    }

    #[test]
    fn health_document_is_structured() {
        let server = ExperimentServer::open(ServerConfig::new(scratch("health"))).unwrap();
        let json = server.health_json();
        for key in [
            "open_jobs",
            "queue_capacity",
            "counters",
            "rejected_busy",
            "cache_health",
            "readonly_skips",
        ] {
            assert!(json.contains(key), "health JSON missing {key}: {json}");
        }
    }

    #[test]
    fn serve_returns_promptly_after_shutdown() {
        let dir = scratch("accept-wake");
        let mut cfg = ServerConfig::new(dir.clone());
        cfg.workers = 1;
        let server = ExperimentServer::open(cfg).unwrap();
        let (sock, served) = serve_in_background(&server, &dir);
        let client = DcgClient::new(&sock);
        assert_eq!(client.request(&Request::Ping).unwrap(), Reply::Pong);
        client.shutdown().unwrap();
        served
            .recv_timeout(Duration::from_secs(5))
            .expect("the blocked accept wakes up and serve returns");
    }

    #[test]
    fn result_sent_while_the_job_runs_is_answered_with_the_document() {
        let dir = scratch("result-wait");
        let mut cfg = ServerConfig::new(dir.clone());
        cfg.workers = 1;
        let server = ExperimentServer::open(cfg).unwrap();
        let (sock, served) = serve_in_background(&server, &dir);
        let client = DcgClient::new(&sock);
        let (id, deduped) = client
            .submit(&spec("gzip", 3), Duration::from_secs(10))
            .unwrap();
        assert!(!deduped);
        match client.request(&Request::Result(id)).unwrap() {
            Reply::Result { id: got, json } => {
                assert_eq!(got, id);
                assert!(std::str::from_utf8(&json).unwrap().contains("dcg_saving"));
            }
            other => panic!("one Result exchange should carry the document, got {other:?}"),
        }
        client.shutdown().unwrap();
        served.recv_timeout(Duration::from_secs(5)).unwrap();
    }

    #[test]
    fn result_wait_is_bounded_and_released_by_shutdown() {
        // No workers: the job stays queued for good.
        let server = ExperimentServer::open(ServerConfig::new(scratch("result-bound"))).unwrap();
        let job = spec("gzip", 4);
        server.submit(job.clone());
        let started = Instant::now();
        let reply = server.answer(Request::Result(job.id()));
        assert!(started.elapsed() >= RESULT_WAIT, "waited the whole bound");
        assert_eq!(
            reply,
            Reply::NotReady {
                id: job.id(),
                state: "queued".into()
            }
        );

        let waiter = {
            let server = Arc::clone(&server);
            let id = job.id();
            std::thread::spawn(move || {
                let started = Instant::now();
                (server.answer(Request::Result(id)), started.elapsed())
            })
        };
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(server.answer(Request::Shutdown), Reply::ShuttingDown);
        let (reply, waited) = waiter.join().unwrap();
        assert!(matches!(reply, Reply::NotReady { .. }), "got {reply:?}");
        assert!(
            waited < RESULT_WAIT,
            "shutdown releases the waiter early (waited {waited:?})"
        );
    }

    #[test]
    fn health_reports_the_servers_own_store_failures() {
        let dir = scratch("health-store");
        let mut cfg = ServerConfig::new(dir.clone());
        cfg.workers = 1;
        let job = JobSpec::Replay {
            bench: "gzip".into(),
            seed: 5,
            quick: true,
        };
        let server = ExperimentServer::open(cfg.clone()).unwrap();
        server.submit(job.clone());
        server.drain();
        let want = server.result(job.id()).unwrap();
        let entry = server.cache.entry_path_for(
            &dcg_sim::SimConfig::baseline_8wide(),
            "gzip",
            5,
            dcg_core::RunLength::quick(),
        );
        drop(server);

        // Forget the job, keep the store, and put a directory where the
        // recorded trace was: the re-run can neither read, evict nor
        // re-store that entry.
        fs::remove_file(dir.join(crate::wal::JOBS_WAL_FILE)).unwrap();
        fs::remove_dir_all(dir.join(JOBS_DIR)).unwrap();
        fs::remove_file(&entry).unwrap();
        fs::create_dir(&entry).unwrap();

        let server = ExperimentServer::open(cfg).unwrap();
        server.submit(job.clone());
        server.drain();
        assert_eq!(
            server.result(job.id()).unwrap(),
            want,
            "the live fallback reproduces the document"
        );
        let ch = server.cache.health();
        assert!(
            ch.store_failures + ch.evict_failures > 0,
            "the job hit store failures: {ch:?}"
        );
        let json = server.health_json();
        assert!(
            json.contains(&format!("\"store_failures\":{}", ch.store_failures))
                && json.contains(&format!("\"evict_failures\":{}", ch.evict_failures)),
            "health reports the server's store counters: {json}"
        );
    }
}
