//! The client side: connect, frame requests, and a submit-and-wait
//! loop with its own timeout/backoff discipline.
//!
//! The client is deliberately stateless: every request opens a fresh
//! connection (connections are cheap on a Unix socket, and it makes the
//! retry loop trivially safe — no half-read stream to resynchronize).
//! `Busy` replies are honored by sleeping the server's retry-after hint
//! before resubmitting; transport errors back off exponentially. Waiting
//! for a result needs no client-side poll interval: the server holds a
//! `Result` request until the job settles (for up to a second), so the
//! client simply asks again on `NotReady`.

use std::fmt;
use std::io;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::jobs::JobSpec;
use crate::protocol::{err_str, read_frame, write_frame, ProtocolError, Reply, Request};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Could not reach or talk to the server (after retries).
    Io(io::Error),
    /// The server answered with a frame the client could not decode.
    Protocol(ProtocolError),
    /// The server answered with a structured error.
    Server {
        /// The [`crate::protocol::err_code`] value.
        code: u32,
        /// Server-provided detail.
        message: String,
    },
    /// The job reached a terminal failure state.
    JobFailed {
        /// The job id.
        id: u64,
        /// The failure message recorded by the server.
        message: String,
    },
    /// The overall wait deadline elapsed.
    TimedOut {
        /// What the client was waiting on.
        what: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "server unreachable: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({}): {message}", err_str(*code))
            }
            ClientError::JobFailed { id, message } => {
                write!(f, "job {id:016x} failed: {message}")
            }
            ClientError::TimedOut { what } => write!(f, "timed out waiting for {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        match e {
            ProtocolError::Io(e) => ClientError::Io(e),
            other => ClientError::Protocol(other),
        }
    }
}

/// A client for one server socket.
#[derive(Debug, Clone)]
pub struct DcgClient {
    socket: PathBuf,
    /// Per-request I/O timeout.
    pub io_timeout: Duration,
    /// Transport-level connect/send retries before giving up.
    pub retries: u32,
    /// First transport retry delay; doubles per attempt.
    pub backoff_base: Duration,
}

impl DcgClient {
    /// A client with default timeouts (10 s I/O, 5 transport retries
    /// starting at 50 ms).
    #[must_use]
    pub fn new(socket: &Path) -> DcgClient {
        DcgClient {
            socket: socket.to_path_buf(),
            io_timeout: Duration::from_secs(10),
            retries: 5,
            backoff_base: Duration::from_millis(50),
        }
    }

    /// One request/reply exchange over a fresh connection, with
    /// transport-level retry + exponential backoff.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] once retries are exhausted, or any decoded
    /// protocol failure (not retried — a malformed reply will not
    /// improve).
    pub fn request(&self, req: &Request) -> Result<Reply, ClientError> {
        let payload = req.encode();
        let mut last_err: Option<io::Error> = None;
        for attempt in 0..=self.retries {
            if attempt > 0 {
                let backoff = self
                    .backoff_base
                    .saturating_mul(1u32 << (attempt - 1).min(16));
                std::thread::sleep(backoff);
            }
            match self.exchange(&payload) {
                Ok(reply) => return Ok(reply),
                Err(ClientError::Io(e)) => last_err = Some(e),
                Err(other) => return Err(other),
            }
        }
        Err(ClientError::Io(
            last_err.unwrap_or_else(|| io::Error::other("no attempts made")),
        ))
    }

    fn exchange(&self, payload: &[u8]) -> Result<Reply, ClientError> {
        let stream = UnixStream::connect(&self.socket).map_err(ClientError::Io)?;
        stream
            .set_read_timeout(Some(self.io_timeout))
            .map_err(ClientError::Io)?;
        stream
            .set_write_timeout(Some(self.io_timeout))
            .map_err(ClientError::Io)?;
        let mut stream = stream;
        write_frame(&mut stream, payload)?;
        let reply = read_frame(&mut stream)?;
        Ok(Reply::decode(&reply)?)
    }

    /// Ask the server to shut down gracefully.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or an unexpected reply.
    pub fn shutdown(&self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Reply::ShuttingDown => Ok(()),
            Reply::Err { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(ProtocolError::Malformed(
                unexpected_reply(&other),
            ))),
        }
    }

    /// Submit a job, honoring `Busy` retry-after hints, and return the
    /// job id plus whether it deduplicated.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, a server-side error reply, or
    /// [`ClientError::TimedOut`] when the server stays busy past
    /// `deadline`.
    pub fn submit(&self, spec: &JobSpec, deadline: Duration) -> Result<(u64, bool), ClientError> {
        let start = Instant::now();
        loop {
            match self.request(&Request::Submit(spec.clone()))? {
                Reply::Submitted { id, deduped } => return Ok((id, deduped)),
                Reply::Busy { retry_after_ms } => {
                    if start.elapsed() > deadline {
                        return Err(ClientError::TimedOut {
                            what: format!("queue space for {}", spec.label()),
                        });
                    }
                    std::thread::sleep(Duration::from_millis(retry_after_ms.clamp(10, 5_000)));
                }
                Reply::Err { code, message } => return Err(ClientError::Server { code, message }),
                other => {
                    return Err(ClientError::Protocol(ProtocolError::Malformed(
                        unexpected_reply(&other),
                    )))
                }
            }
        }
    }

    /// Submit and wait until the job completes, returning its result
    /// document. Each `Result` request is held by the server until the job
    /// settles or its wait bound passes; a `NotReady` is re-requested at
    /// once.
    ///
    /// # Errors
    ///
    /// [`ClientError::JobFailed`] for terminal job failures,
    /// [`ClientError::TimedOut`] past `deadline`, or any transport
    /// failure.
    pub fn submit_and_wait(
        &self,
        spec: &JobSpec,
        deadline: Duration,
    ) -> Result<(u64, Vec<u8>), ClientError> {
        let start = Instant::now();
        let (id, _) = self.submit(spec, deadline)?;
        loop {
            match self.request(&Request::Result(id))? {
                Reply::Result { json, .. } => return Ok((id, json)),
                Reply::NotReady { .. } => {
                    if start.elapsed() > deadline {
                        return Err(ClientError::TimedOut {
                            what: format!("job {id:016x} ({})", spec.label()),
                        });
                    }
                }
                Reply::Err { code, message } => {
                    if code == crate::protocol::err_code::JOB_FAILED {
                        return Err(ClientError::JobFailed { id, message });
                    }
                    return Err(ClientError::Server { code, message });
                }
                other => {
                    return Err(ClientError::Protocol(ProtocolError::Malformed(
                        unexpected_reply(&other),
                    )))
                }
            }
        }
    }
}

fn unexpected_reply(reply: &Reply) -> &'static str {
    match reply {
        Reply::Pong => "unexpected Pong reply",
        Reply::Submitted { .. } => "unexpected Submitted reply",
        Reply::Busy { .. } => "unexpected Busy reply",
        Reply::Status { .. } => "unexpected Status reply",
        Reply::Result { .. } => "unexpected Result reply",
        Reply::NotReady { .. } => "unexpected NotReady reply",
        Reply::Health(_) => "unexpected Health reply",
        Reply::Err { .. } => "unexpected Err reply",
        Reply::ShuttingDown => "unexpected ShuttingDown reply",
    }
}
