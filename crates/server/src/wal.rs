//! The server's write-ahead log of job transitions (`JOBS.dcgwal`).
//!
//! A [`RecordLog`] of [`WalRecord`]s under the magic `DCGJWL01`, the
//! same log the trace store journal uses: each transition is appended
//! with `sync_data` before it takes effect, and a torn tail is
//! discarded and truncated off on open, so a `kill -9` at any byte
//! loses at most the record being written.

use std::io;
use std::path::Path;
use std::sync::Mutex;

use dcg_core::durable::{put_bytes, put_str, put_u32, put_u64, Cursor};
use dcg_core::{LogRecord, RecordLog};

use crate::jobs::JobSpec;

/// File name of the job WAL inside the server state directory.
pub const JOBS_WAL_FILE: &str = "JOBS.dcgwal";

const REC_SUBMIT: u8 = 1;
const REC_START: u8 = 2;
const REC_DONE: u8 = 3;
const REC_FAIL: u8 = 4;

/// One journaled job transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A job was accepted into the queue.
    Submit {
        /// The job id.
        id: u64,
        /// The full spec, so restart can re-run the job.
        spec: JobSpec,
    },
    /// An execution attempt started.
    Start {
        /// The job id.
        id: u64,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// The job committed its result document (the result file rename
    /// happened strictly before this record).
    Done {
        /// The job id.
        id: u64,
    },
    /// An attempt failed.
    Fail {
        /// The job id.
        id: u64,
        /// The attempt that failed.
        attempt: u32,
        /// True when the failure is final (terminal error or attempt
        /// budget exhausted → quarantine); false schedules a retry.
        terminal: bool,
        /// Failure detail.
        message: String,
    },
}

impl LogRecord for WalRecord {
    const MAGIC: [u8; 8] = *b"DCGJWL01";

    fn encode_body(&self, b: &mut Vec<u8>) -> u8 {
        match self {
            WalRecord::Submit { id, spec } => {
                put_u64(b, *id);
                put_bytes(b, &spec.encode());
                REC_SUBMIT
            }
            WalRecord::Start { id, attempt } => {
                put_u64(b, *id);
                put_u32(b, *attempt);
                REC_START
            }
            WalRecord::Done { id } => {
                put_u64(b, *id);
                REC_DONE
            }
            WalRecord::Fail {
                id,
                attempt,
                terminal,
                message,
            } => {
                put_u64(b, *id);
                put_u32(b, *attempt);
                b.push(u8::from(*terminal));
                put_str(b, message);
                REC_FAIL
            }
        }
    }

    fn decode_body(kind: u8, body: &[u8]) -> Option<WalRecord> {
        let mut c = Cursor::new(body);
        let rec = match kind {
            REC_SUBMIT => WalRecord::Submit {
                id: c.u64()?,
                spec: JobSpec::decode(&c.bytes()?)?,
            },
            REC_START => WalRecord::Start {
                id: c.u64()?,
                attempt: c.u32()?,
            },
            REC_DONE => WalRecord::Done { id: c.u64()? },
            REC_FAIL => WalRecord::Fail {
                id: c.u64()?,
                attempt: c.u32()?,
                terminal: c.u8()? != 0,
                message: c.str()?,
            },
            _ => return None,
        };
        c.done().then_some(rec)
    }
}

/// The open, append-only job WAL, shared by the server's threads.
#[derive(Debug)]
pub struct JobWal(Mutex<RecordLog<WalRecord>>);

impl JobWal {
    /// Open (or create) the WAL in `state_dir`, replaying survivors. A
    /// torn tail is truncated off; an unrecognized file is reset to an
    /// empty log.
    ///
    /// # Errors
    ///
    /// Only on unrecoverable I/O (the state directory itself being
    /// unusable).
    pub fn open(state_dir: &Path) -> io::Result<(JobWal, Vec<WalRecord>)> {
        let (log, records) = RecordLog::open(&state_dir.join(JOBS_WAL_FILE))?;
        Ok((JobWal(Mutex::new(log)), records))
    }

    /// Durably append one record (`write` + `sync_data` before return).
    ///
    /// # Errors
    ///
    /// The underlying I/O error; the caller must treat the transition as
    /// not having happened.
    pub fn append(&self, record: &WalRecord) -> io::Result<()> {
        self.0.lock().expect("job WAL lock").append(record)
    }
}
