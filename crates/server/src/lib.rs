//! # dcg-server — crash-resumable experiment daemon
//!
//! A single-process server accepting simulate/replay/metrics/fault-
//! campaign jobs over a length-prefixed, checksummed command protocol
//! on a Unix socket:
//!
//! * **Journaled queue** — every job transition (submitted → running →
//!   done/failed/retrying) is appended to a write-ahead log
//!   (`JOBS.dcgwal`), the same [`dcg_core::RecordLog`] the trace store
//!   journal uses, before it takes effect. `kill -9` at any
//!   point, then restart, resumes incomplete jobs and produces
//!   byte-identical result documents (a CI-enforced invariant via the
//!   deterministic [`dcg_core::crash_point`] abort hook).
//! * **Deadlines, retries, quarantine** — each job class has an
//!   execution deadline; retryable failures (deadline misses, caught
//!   panics, transient store errors) back off exponentially and retry
//!   up to a budget, after which the job is quarantined. Terminal
//!   errors (unknown benchmark) fail immediately.
//! * **Graceful degradation** — the queue is bounded: overload answers
//!   an explicit `Busy` with a retry-after hint, never
//!   accept-then-drop. A panicking job body is caught and classified;
//!   it cannot take the daemon down. Replay jobs ride the trace
//!   store's own degradation (read-only fallback, fail-open caching).
//! * **Dedup** — the job id is the digest of the canonical spec
//!   encoding, so identical submissions share one execution, and
//!   replay jobs dedup their simulation work against the one
//!   [`TraceStore`](dcg_core::TraceStore) the server owns, which also
//!   feeds the health document's store counters.
//! * **Event-driven** — the accept loop blocks (a `Shutdown` request
//!   wakes it), and a `Result` request for a running job waits, up to
//!   a second, for the job to settle instead of making the client poll.
//!
//! The `dcg-server` binary runs the daemon; the `repro` binary gains
//! `serve` and `submit` subcommands speaking the same protocol through
//! [`DcgClient`]. See `DESIGN.md` §16 for the architecture and the
//! crash matrix.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod client;
mod jobs;
mod protocol;
mod server;
mod wal;

pub use client::{ClientError, DcgClient};
pub use jobs::{run_job, JobClass, JobError, JobSpec};
pub use protocol::{
    err_code, err_str, read_frame, write_frame, ProtocolError, Reply, Request, FRAME_MAGIC,
    MAX_FRAME_LEN,
};
pub use server::{
    ExperimentServer, JobState, ServerConfig, ServerCounters, SubmitOutcome, JOBS_DIR,
    SERVER_QUEUE_ENV, SERVER_RETRIES_ENV,
};
pub use wal::{JobWal, WalRecord, JOBS_WAL_FILE};
