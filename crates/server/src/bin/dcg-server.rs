//! `dcg-server` — run the crash-resumable experiment daemon.
//!
//! ```text
//! dcg-server [--state DIR] [--socket PATH] [--workers N] [--queue N]
//!            [--retries N] [--drain]
//! ```
//!
//! `repro serve` takes the same flags; [`dcg_server::run_daemon`]
//! documents them. `DCG_TEST_CRASH=server.<point>:<n>` is the
//! deterministic abort hook used by crash-recovery CI (points:
//! `before-journal`, `before-commit`, `after-commit`).

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dcg_server::run_daemon("dcg-server", &args)
}
