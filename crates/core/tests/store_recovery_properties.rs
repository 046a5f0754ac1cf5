//! Property tests for the trace store's crash recovery (DESIGN.md §14):
//! however its log is truncated, corrupted or deleted, and whatever torn
//! checkpoint image lies beside it, `open()` must reach a **consistent**
//! state — every entry that survives the
//! recovery sweep replays bit-identically to a live simulation, every
//! entry that does not is evicted cleanly, no temp files are left
//! behind, and a second open finds nothing more to repair. Entries may
//! legitimately be *lost* to metadata damage (they re-simulate and
//! re-store); they may never be half-trusted.
//!
//! Runs at `DCG_PROPTEST_CASES=256` in CI's extended property step.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use dcg_core::{run_passive, Dcg, PolicyOutcome, RunLength, TraceCache, JOURNAL_FILE};
use dcg_power::Component;
use dcg_sim::{LatchGroups, SimConfig};
use dcg_testkit::prop;
use dcg_workloads::{Spec2000, SyntheticWorkload};

/// The two tuples the template store holds: one in the log's checkpoint
/// rows, one living only in the records appended after them — so every
/// corruption case exercises both trust paths.
const CHECKPOINT_SEED: u64 = 1;
const TAIL_SEED: u64 = 2;

fn short() -> RunLength {
    RunLength {
        warmup_insts: 100,
        measure_insts: 400,
    }
}

fn outcome_bits(o: &PolicyOutcome) -> Vec<u64> {
    let mut v = vec![o.report.cycles(), o.report.committed()];
    v.extend(
        Component::ALL
            .iter()
            .map(|c| o.report.component_pj(*c).to_bits()),
    );
    v
}

/// One live (uncached) DCG run for a tuple — the ground truth every
/// surviving cache entry must replay to.
fn live_bits(cfg: &SimConfig, seed: u64) -> Vec<u64> {
    let profile = Spec2000::by_name("gzip").unwrap();
    let groups = LatchGroups::new(&cfg.depth);
    let mut dcg = Dcg::new(cfg, &groups);
    let mut run = run_passive(
        cfg,
        SyntheticWorkload::new(profile, seed),
        short(),
        &mut [&mut dcg],
    );
    outcome_bits(&run.outcomes.remove(0))
}

struct Template {
    dir: PathBuf,
    cfg: SimConfig,
    /// Byte length of the log's checkpoint image (magic + rows); the
    /// appended tail follows it.
    checkpoint_len: usize,
    clean: [(u64, Vec<u64>); 2],
}

/// Build the template store once: entry for [`CHECKPOINT_SEED`] in the
/// log's checkpoint rows, entry for [`TAIL_SEED`] recorded after the
/// checkpoint so its only metadata is an appended record. The cache is
/// leaked to keep its drop-time checkpoint from folding the tail away.
/// A leaked store keeps its directory lock, so nothing may reopen the
/// template itself — every case works on a copy, which is unlocked.
fn template() -> &'static Template {
    static TEMPLATE: OnceLock<Template> = OnceLock::new();
    TEMPLATE.get_or_init(|| {
        let cfg = SimConfig::baseline_8wide();
        let profile = Spec2000::by_name("gzip").unwrap();
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join("store-recovery-properties")
            .join("template");
        let _ = fs::remove_dir_all(&dir);
        let cache = TraceCache::new(dir.clone());
        let groups = LatchGroups::new(&cfg.depth);
        let mut checkpoint_len = 0;
        for (seed, checkpoint) in [(CHECKPOINT_SEED, true), (TAIL_SEED, false)] {
            let mut dcg = Dcg::new(&cfg, &groups);
            cache
                .run_passive_cached(&cfg, profile, seed, short(), &mut [&mut dcg])
                .expect("cold template run");
            if checkpoint {
                cache.checkpoint().expect("template checkpoint");
                checkpoint_len = fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len() as usize;
            }
        }
        std::mem::forget(cache);
        let log_len = fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len() as usize;
        assert!(
            log_len > checkpoint_len,
            "the second entry must live in the log's tail"
        );
        Template {
            dir,
            cfg: cfg.clone(),
            checkpoint_len,
            clean: [
                (CHECKPOINT_SEED, live_bits(&cfg, CHECKPOINT_SEED)),
                (TAIL_SEED, live_bits(&cfg, TAIL_SEED)),
            ],
        }
    })
}

fn copy_template(case: &Path) {
    let t = template();
    let _ = fs::remove_dir_all(case);
    fs::create_dir_all(case).unwrap();
    for entry in fs::read_dir(&t.dir).unwrap().flatten() {
        fs::copy(entry.path(), case.join(entry.file_name())).unwrap();
    }
}

/// Apply one seeded mutation to `bytes`, at a position `offset` picks
/// inside `span`, and write the result to `out`: truncate there, or flip
/// bit `bit` of the byte there.
fn mutate(
    bytes: &[u8],
    span: std::ops::Range<usize>,
    out: &Path,
    truncate: bool,
    offset: u64,
    bit: u32,
) -> String {
    let name = out.file_name().unwrap().to_string_lossy().into_owned();
    let at = span.start + (offset % span.len() as u64) as usize;
    if truncate {
        fs::write(out, &bytes[..at]).unwrap();
        format!("{name} truncated to {at}/{} bytes", bytes.len())
    } else {
        let mut b = bytes.to_vec();
        b[at] ^= 1 << (bit % 8);
        fs::write(out, &b).unwrap();
        format!("{name} bit flipped at byte {at}")
    }
}

/// The consistency contract, checked after any metadata damage:
/// recovery leaves no temp files, tracks no invalid entries, serves
/// every tuple bit-identically to live (re-simulating where the entry
/// was lost), and a second open finds nothing more to repair.
fn assert_consistent(case: &Path, what: &str) {
    let t = template();
    let cache = TraceCache::new(case.to_path_buf());
    cache.ensure_open();

    let tmps = fs::read_dir(case)
        .unwrap()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
        .count();
    assert_eq!(tmps, 0, "{what}: recovery left {tmps} temp files");

    let scan = cache.verify_all();
    assert_eq!(
        scan.invalid, 0,
        "{what}: recovery tracked {} invalid entries",
        scan.invalid
    );

    let profile = Spec2000::by_name("gzip").unwrap();
    let groups = LatchGroups::new(&t.cfg.depth);
    for (seed, clean) in &t.clean {
        let mut dcg = Dcg::new(&t.cfg, &groups);
        let mut run = cache
            .run_passive_cached(&t.cfg, profile, *seed, short(), &mut [&mut dcg])
            .unwrap_or_else(|e| panic!("{what}: tuple seed {seed} failed: {e}"));
        assert_eq!(
            &outcome_bits(&run.outcomes.remove(0)),
            clean,
            "{what}: tuple seed {seed} diverged from the live reference"
        );
    }
    drop(cache);

    // Idempotence: reopening the recovered store repairs nothing more.
    let again = TraceCache::new(case.to_path_buf());
    let stats = again.ensure_open();
    assert_eq!(
        (
            stats.reaped_tmp,
            stats.dropped_corrupt,
            stats.rolled_forward
        ),
        (0, 0, 0),
        "{what}: a second open found more to repair"
    );
}

/// Exhaustive `kill -9` state space for the log: truncate it at
/// **every** byte boundary (not a sample) and demand the full
/// consistency contract at each cut — the torn tail is discarded, each
/// entry either survives (through its row or by adoption) or
/// re-simulates bit-identically, and recovery is idempotent.
#[test]
fn journal_truncated_at_every_byte_boundary_recovers() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("store-recovery-properties")
        .join("every-boundary");
    let t = template();
    let len = fs::metadata(t.dir.join(JOURNAL_FILE)).unwrap().len() as usize;
    for cut in 0..=len {
        let case = root.join(format!("cut-{cut}"));
        copy_template(&case);
        let bytes = fs::read(case.join(JOURNAL_FILE)).unwrap();
        fs::write(case.join(JOURNAL_FILE), &bytes[..cut]).unwrap();
        assert_consistent(&case, &format!("journal truncated at {cut}/{len}"));
        let _ = fs::remove_dir_all(&case);
    }
}

#[test]
fn open_reaches_a_consistent_state_after_seeded_metadata_damage() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("store-recovery-properties");
    template(); // build before the clock starts on per-case work
    prop::check(
        "store_recovery_consistency",
        prop::tuple((
            prop::range(0u64..4), // target: checkpoint rows, tail, torn temp, deleted log
            prop::range(0u64..2), // mutation: truncate / bit flip
            prop::any_u64(),      // offset seed
            prop::range(0u32..8), // bit index
        )),
        move |(target, kind, offset, bit)| {
            let case = root.join(format!("case-{target}-{kind}-{offset:016x}-{bit}"));
            copy_template(&case);
            let truncate = kind == 0;
            let log = case.join(JOURNAL_FILE);
            let bytes = fs::read(&log).unwrap();
            let rows = 0..template().checkpoint_len;
            let what = match target {
                0 => mutate(&bytes, rows, &log, truncate, offset, bit),
                1 => mutate(&bytes, rows.end..bytes.len(), &log, truncate, offset, bit),
                2 => {
                    let tmp = case.join(format!("{JOURNAL_FILE}.0.tmp"));
                    mutate(&bytes, 0..bytes.len(), &tmp, truncate, offset, bit)
                }
                _ => {
                    fs::remove_file(&log).unwrap();
                    "log deleted".to_string()
                }
            };
            assert_consistent(&case, &what);
            let _ = fs::remove_dir_all(&case);
        },
    );
}
