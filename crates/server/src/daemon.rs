//! The daemon's command line, shared by `dcg-server` and `repro serve`:
//! parse the flags, open the state directory, then either drain the
//! journaled backlog or serve on a Unix socket until `Shutdown`.

use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::process::ExitCode;

use crate::server::{ExperimentServer, ServerConfig};

/// The daemon's flags, as both entry points print them.
const DAEMON_FLAGS: &str =
    "[--state DIR] [--socket PATH] [--workers N] [--queue N] [--retries N] [--drain]";

/// Run the daemon from its command-line flags (`args` excludes the
/// program name); `name` prefixes every message.
///
/// `--state` (default `results/server`) holds the job WAL, committed
/// result documents (`jobs/job-<id>.json`) and the replay trace store.
/// `--socket` defaults to `<state>/dcg.sock`. `--workers`, `--queue` and
/// `--retries` override [`ServerConfig::new`]'s worker count, queue bound
/// and attempt budget. `--drain` runs the journaled backlog to completion
/// and exits without opening a socket: the restart half of the
/// crash-resume flow.
///
/// Exits 0 on a clean shutdown or drain, 1 when the state cannot be
/// opened or the socket cannot be bound, and 2 on a usage error.
pub fn run_daemon(name: &str, args: &[String]) -> ExitCode {
    let usage_err = |msg: &str| {
        eprintln!("{msg}\nusage: {name} {DAEMON_FLAGS}");
        ExitCode::from(2)
    };
    let mut cfg = ServerConfig::new(PathBuf::from("results/server"));
    let mut socket: Option<PathBuf> = None;
    let mut drain = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--state" => match it.next() {
                Some(d) => cfg.state_dir = PathBuf::from(d),
                None => return usage_err("--state requires a directory"),
            },
            "--socket" => match it.next() {
                Some(p) => socket = Some(PathBuf::from(p)),
                None => return usage_err("--socket requires a path"),
            },
            "--workers" | "--queue" | "--retries" => {
                let Some(n) = it
                    .next()
                    .and_then(|s| s.parse::<u32>().ok())
                    .filter(|&n| n >= 1)
                else {
                    return usage_err(&format!("{a} requires a positive integer"));
                };
                match a.as_str() {
                    "--workers" => cfg.workers = n as usize,
                    "--queue" => cfg.queue_capacity = n as usize,
                    _ => cfg.max_attempts = n,
                }
            }
            "--drain" => drain = true,
            "--help" | "-h" => {
                println!("usage: {name} {DAEMON_FLAGS}");
                return ExitCode::SUCCESS;
            }
            other => return usage_err(&format!("unknown argument {other}")),
        }
    }

    let state = cfg.state_dir.clone();
    let server = match ExperimentServer::open(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{name}: could not open state at {}: {e}", state.display());
            return ExitCode::FAILURE;
        }
    };

    if drain {
        eprintln!("{name}: draining journaled backlog at {}", state.display());
        server.drain();
        eprintln!("{name}: backlog drained");
        return ExitCode::SUCCESS;
    }

    let socket = socket.unwrap_or_else(|| state.join("dcg.sock"));
    // A previous unclean exit leaves a stale socket file; it is safe to
    // remove because only one daemon owns a state directory.
    let _ = std::fs::remove_file(&socket);
    let listener = match UnixListener::bind(&socket) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("{name}: could not bind {}: {e}", socket.display());
            return ExitCode::FAILURE;
        }
    };
    eprintln!("{name}: listening on {}", socket.display());
    server.serve(listener);
    let _ = std::fs::remove_file(&socket);
    eprintln!("{name}: shut down cleanly");
    ExitCode::SUCCESS
}
