//! `dcg-server` — run the crash-resumable experiment daemon.
//!
//! ```text
//! dcg-server [--state DIR] [--socket PATH] [--workers N] [--queue N]
//!            [--retries N] [--drain]
//! ```
//!
//! `--state` (default `results/server`) holds the job WAL, committed
//! result documents (`jobs/job-<id>.json`) and the replay trace store.
//! `--socket` defaults to `<state>/dcg.sock`. `--drain` runs the
//! journaled backlog to completion and exits without opening a socket —
//! the restart half of the crash-resume flow.
//!
//! Environment knobs (flags take precedence): `DCG_SERVER_QUEUE` bounds
//! the job queue, `DCG_SERVER_RETRIES` bounds execution attempts.
//! `DCG_TEST_CRASH=server.<point>:<n>` is the deterministic abort hook
//! used by crash-recovery CI (points: `before-journal`, `before-commit`,
//! `after-commit`).

use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::process::ExitCode;

use dcg_server::{ExperimentServer, ServerConfig, SERVER_QUEUE_ENV, SERVER_RETRIES_ENV};

const USAGE: &str =
    "usage: dcg-server [--state DIR] [--socket PATH] [--workers N] [--queue N] [--retries N] [--drain]";

fn env_usize(var: &str) -> Option<usize> {
    match std::env::var(var) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Some(n),
            _ => {
                eprintln!("warning: {var}={v:?} is not a positive integer; ignoring");
                None
            }
        },
        Err(_) => None,
    }
}

fn main() -> ExitCode {
    let mut state = PathBuf::from("results/server");
    let mut socket: Option<PathBuf> = None;
    let mut drain = false;
    let mut workers: Option<usize> = None;
    let mut queue = env_usize(SERVER_QUEUE_ENV);
    let mut retries = env_usize(SERVER_RETRIES_ENV);

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--state" => match args.next() {
                Some(d) => state = PathBuf::from(d),
                None => return usage_err("--state requires a directory"),
            },
            "--socket" => match args.next() {
                Some(p) => socket = Some(PathBuf::from(p)),
                None => return usage_err("--socket requires a path"),
            },
            "--workers" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => workers = Some(n),
                _ => return usage_err("--workers requires a positive integer"),
            },
            "--queue" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => queue = Some(n),
                _ => return usage_err("--queue requires a positive integer"),
            },
            "--retries" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => retries = Some(n),
                _ => return usage_err("--retries requires a positive integer"),
            },
            "--drain" => drain = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_err(&format!("unknown argument {other}")),
        }
    }

    let mut cfg = ServerConfig::new(state.clone());
    if let Some(n) = workers {
        cfg.workers = n;
    }
    if let Some(n) = queue {
        cfg.queue_capacity = n;
    }
    if let Some(n) = retries {
        cfg.max_attempts = n as u32;
    }

    let server = match ExperimentServer::open(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "dcg-server: could not open state at {}: {e}",
                state.display()
            );
            return ExitCode::FAILURE;
        }
    };

    if drain {
        eprintln!(
            "dcg-server: draining journaled backlog at {}",
            state.display()
        );
        server.drain();
        eprintln!("dcg-server: backlog drained");
        return ExitCode::SUCCESS;
    }

    let socket = socket.unwrap_or_else(|| state.join("dcg.sock"));
    // A previous unclean exit leaves a stale socket file; it is safe to
    // remove because only one daemon owns a state directory.
    let _ = std::fs::remove_file(&socket);
    let listener = match UnixListener::bind(&socket) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("dcg-server: could not bind {}: {e}", socket.display());
            return ExitCode::FAILURE;
        }
    };
    eprintln!("dcg-server: listening on {}", socket.display());
    server.serve(listener);
    let _ = std::fs::remove_file(&socket);
    eprintln!("dcg-server: shut down cleanly");
    ExitCode::SUCCESS
}

fn usage_err(msg: &str) -> ExitCode {
    eprintln!("{msg}\n{USAGE}");
    ExitCode::from(2)
}
