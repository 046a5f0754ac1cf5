//! End-to-end crash-resume integration: a server killed (deterministic
//! `abort()`) mid-campaign and restarted in drain mode must finish the
//! backlog and produce **byte-identical** result documents to a server
//! that never crashed.
//!
//! Three subprocess runs of the real `dcg-server` binary:
//!
//! 1. **Reference** — serve on a socket, submit a small campaign through
//!    [`DcgClient`], wait for every result, shut down cleanly.
//! 2. **Crashed** — same campaign submitted under
//!    `DCG_SERVER_CRASH=before-commit:2`: the process aborts right
//!    before committing its second result. The exit status must be
//!    abnormal.
//! 3. **Resumed** — reopen the crashed state dir with `--drain` (no
//!    crash plan): the WAL re-queues every incomplete job and the drain
//!    runs them to completion.
//!
//! Every `jobs/job-*.json` in the resumed dir is then compared
//! byte-for-byte against the reference dir.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dcg_server::{DcgClient, JobSpec, JOBS_DIR};

const SERVER_BIN: &str = env!("CARGO_BIN_EXE_dcg-server");

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("crash-resume-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The campaign: three deterministic quick jobs across two job kinds.
fn campaign() -> Vec<JobSpec> {
    vec![
        JobSpec::Simulate {
            bench: "gzip".into(),
            seed: 7,
            quick: true,
        },
        JobSpec::Simulate {
            bench: "mcf".into(),
            seed: 11,
            quick: true,
        },
        JobSpec::Faults { seed: 5, count: 9 },
    ]
}

fn wait_for_socket(sock: &Path, child: &mut Child) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !sock.exists() {
        if let Some(status) = child.try_wait().unwrap() {
            panic!("server exited before creating socket: {status}");
        }
        assert!(Instant::now() < deadline, "server never created its socket");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn read_results(state: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    let jobs = state.join(JOBS_DIR);
    for entry in std::fs::read_dir(&jobs).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("job-") && name.ends_with(".json") {
            out.insert(name, std::fs::read(entry.path()).unwrap());
        }
    }
    out
}

/// Run a serving instance, submit the campaign, wait for all results,
/// shut it down, and return the committed result documents.
fn reference_run(state: &Path) -> BTreeMap<String, Vec<u8>> {
    let sock = state.join("dcg.sock");
    let mut child = Command::new(SERVER_BIN)
        .args(["--state", state.to_str().unwrap()])
        .args(["--socket", sock.to_str().unwrap()])
        .args(["--workers", "2"])
        .env_remove("DCG_SERVER_CRASH")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dcg-server");
    wait_for_socket(&sock, &mut child);

    let client = DcgClient::new(&sock);
    for spec in campaign() {
        client
            .submit_and_wait(&spec, Duration::from_secs(300))
            .expect("job completes");
    }
    client.shutdown().expect("clean shutdown accepted");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            assert!(status.success(), "clean shutdown exits zero: {status}");
            break;
        }
        assert!(Instant::now() < deadline, "server ignored shutdown");
        std::thread::sleep(Duration::from_millis(20));
    }
    read_results(state)
}

#[test]
fn kill_mid_campaign_then_drain_reproduces_identical_results() {
    let reference = reference_run(&scratch("ref"));
    assert_eq!(reference.len(), 3, "reference run commits all three jobs");

    // Crashed run: abort deterministically before committing the second
    // result. A single worker keeps the commit order deterministic.
    let state = scratch("crash");
    let sock = state.join("dcg.sock");
    let mut child = Command::new(SERVER_BIN)
        .args(["--state", state.to_str().unwrap()])
        .args(["--socket", sock.to_str().unwrap()])
        .args(["--workers", "1"])
        .env("DCG_SERVER_CRASH", "before-commit:2")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dcg-server (crash run)");
    wait_for_socket(&sock, &mut child);

    let client = DcgClient::new(&sock);
    for spec in campaign() {
        // Submissions are journaled before acknowledgement; the crash
        // fires from a worker thread, so all three may or may not be
        // acknowledged before the abort — an Io error here is fine.
        let _ = client.submit(&spec, Duration::from_secs(60));
    }
    let status = child.wait().expect("crashed server reaps");
    assert!(
        !status.success(),
        "crash hook must abort the process: {status}"
    );
    assert!(
        read_results(&state).len() < 3,
        "the crash must land before the campaign finished"
    );

    // Resume: drain mode replays the WAL, re-queues incomplete jobs and
    // runs the backlog to completion with no crash plan installed.
    let status = Command::new(SERVER_BIN)
        .args(["--state", state.to_str().unwrap()])
        .args(["--workers", "2", "--drain"])
        .env_remove("DCG_SERVER_CRASH")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn dcg-server --drain");
    assert!(status.success(), "drain run exits cleanly: {status}");

    let resumed = read_results(&state);
    assert_eq!(
        resumed.keys().collect::<Vec<_>>(),
        reference.keys().collect::<Vec<_>>(),
        "resume commits exactly the reference job set"
    );
    for (name, bytes) in &reference {
        assert_eq!(
            &resumed[name], bytes,
            "{name}: resumed result must be byte-identical to the reference"
        );
    }
}
