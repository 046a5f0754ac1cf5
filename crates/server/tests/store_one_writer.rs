//! One writer per trace-store directory (DESIGN.md §14). A second
//! opener — another store in this process, or a `repro` process — serves
//! lookups read-only, writes nothing and reaps no live `.tmp`; and
//! concurrent `repro` runs killed at seeded store crash points leave a
//! directory the next open recovers in full.
//!
//! The crash-kill property spawns processes in every case, so it caps
//! its own case count at [`CRASH_CASES`].

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::atomic::Ordering;
use std::sync::OnceLock;

use dcg_core::{EntryIdentity, TraceStore, CRASH_ENV, SWEEP_THREADS_ENV, TRACE_CACHE_ENV};
use dcg_testkit::prop;

/// Case cap of the crash-kill property (each case runs up to four
/// `repro` processes).
const CRASH_CASES: u32 = 16;

/// The store crash points, killed at their `n`-th hit.
const POINTS: [&str; 3] = [
    "store.before-journal",
    "store.before-rename",
    "store.before-checkpoint-rename",
];

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("one-writer-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// `repro --quick --out <out> metrics` over the store at `store`, one
/// worker, no crash planned.
fn repro_metrics(store: &Path, out: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(["--quick", "--out"])
        .arg(out)
        .arg("metrics")
        .env(TRACE_CACHE_ENV, store)
        .env(SWEEP_THREADS_ENV, "1")
        .env_remove(CRASH_ENV);
    cmd
}

/// The metrics document of one run, which must succeed.
fn metrics_doc(store: &Path, out: &Path) -> String {
    let run = repro_metrics(store, out).output().expect("spawn repro");
    assert!(
        run.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    fs::read_to_string(out.join("suite-metrics.json")).expect("metrics document")
}

/// The document of a run over a fresh store of its own.
fn clean_doc() -> &'static str {
    static CLEAN: OnceLock<String> = OnceLock::new();
    CLEAN.get_or_init(|| metrics_doc(&scratch("clean"), &scratch("clean-out")))
}

/// Every file in `dir` with its bytes, sorted by name.
fn snapshot(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

fn count_suffix(dir: &Path, suffix: &str) -> usize {
    fs::read_dir(dir)
        .unwrap()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(suffix))
        .count()
}

#[test]
fn a_second_store_in_this_process_is_read_only() {
    let dir = scratch("in-process");
    fs::create_dir_all(&dir).unwrap();
    let a = TraceStore::new(dir.clone(), None);
    assert!(!a.is_read_only(), "the first opener writes");
    let id = EntryIdentity::current(1, "tiny", 1, 0, 1);
    a.insert(&id, 1, b"entry payload");

    // A write of A's still in flight.
    let planted = dir.join("tiny-0000000000000002.dcgact.9.tmp");
    fs::write(&planted, b"in flight").unwrap();

    let b = TraceStore::new(dir.clone(), None);
    assert!(b.is_read_only(), "the second opener degrades to read-only");
    assert_eq!(b.ensure_open().reaped_tmp, 0);
    assert_eq!(b.fetch(&id).as_deref(), Some(&b"entry payload"[..]));
    b.insert(&EntryIdentity::current(1, "tiny", 2, 0, 1), 2, b"skipped");
    assert_eq!(b.health.readonly_skips.load(Ordering::Relaxed), 1);
    assert_eq!(b.health.store_failures.load(Ordering::Relaxed), 0);
    drop(b);
    assert!(planted.exists(), "the second opener left the live .tmp");
    assert_eq!(a.len(), 1);
}

#[test]
fn a_repro_run_beside_a_held_store_writes_nothing() {
    let dir = scratch("across");
    let out = scratch("across-out");
    // Fill the store first, so the locked-out run hits every tuple.
    assert_eq!(metrics_doc(&dir, &out), clean_doc());
    let held = TraceStore::new(dir.clone(), None);
    assert!(!held.is_read_only());
    let before = snapshot(&dir);

    assert_eq!(metrics_doc(&dir, &out), clean_doc());
    assert_eq!(snapshot(&dir), before, "the read-only run wrote nothing");
    drop(held);
}

#[test]
fn concurrent_runs_killed_mid_store_leave_a_recoverable_store() {
    let root = scratch("crash-kill");
    let dir = root.join("store");
    prop::check_capped(
        "one_writer_crash_kill",
        CRASH_CASES,
        prop::vec(prop::tuple((0usize..POINTS.len(), 1u64..=3)), 2usize..=3),
        |kills: Vec<(usize, u64)>| {
            let _ = fs::remove_dir_all(&dir);
            let children: Vec<Child> = kills
                .iter()
                .enumerate()
                .map(|(i, &(point, n))| {
                    repro_metrics(&dir, &root.join(format!("out-{i}")))
                        .env(CRASH_ENV, format!("{}:{n}", POINTS[point]))
                        .stderr(std::process::Stdio::null())
                        .spawn()
                        .expect("spawn repro")
                })
                .collect();
            for mut child in children {
                // A killed writer exits abnormally; that is the point.
                child.wait().expect("wait for repro");
            }

            let store = TraceStore::new(dir.clone(), None);
            store.ensure_open();
            assert_eq!(count_suffix(&dir, ".tmp"), 0, "recovery left a .tmp");
            assert_eq!(store.verify_all().invalid, 0, "an invalid entry is indexed");
            assert_eq!(
                store.len(),
                count_suffix(&dir, ".dcgact"),
                "every entry file is indexed"
            );
            drop(store);
            assert_eq!(metrics_doc(&dir, &root.join("out-final")), clean_doc());
        },
    );
}
