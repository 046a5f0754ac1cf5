//! Property tests for the trace store's crash recovery (DESIGN.md §14):
//! however the manifest or journal is truncated or corrupted, `open()`
//! must reach a **consistent** state — every entry that survives the
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

use dcg_core::{
    run_passive, Dcg, PolicyOutcome, RunLength, TraceCache, JOURNAL_FILE, LOG_HEADER_LEN,
    MANIFEST_FILE,
};
use dcg_power::Component;
use dcg_sim::{LatchGroups, SimConfig};
use dcg_testkit::prop;
use dcg_workloads::{Spec2000, SyntheticWorkload};

/// The two tuples the template store holds: one checkpointed into the
/// manifest, one living only in the journal tail — so every corruption
/// case exercises both metadata paths.
const MANIFEST_SEED: u64 = 1;
const JOURNAL_SEED: u64 = 2;

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
    clean: [(u64, Vec<u64>); 2],
}

/// Build the template store once: entry for [`MANIFEST_SEED`]
/// checkpointed into the manifest, entry for [`JOURNAL_SEED`] recorded
/// after the checkpoint so its only metadata is a journal record (the
/// cache is leaked to keep its drop-time checkpoint from folding the
/// journal away).
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
        for (seed, checkpoint) in [(MANIFEST_SEED, true), (JOURNAL_SEED, false)] {
            let mut dcg = Dcg::new(&cfg, &groups);
            cache
                .run_passive_cached(&cfg, profile, seed, short(), &mut [&mut dcg])
                .expect("cold template run");
            if checkpoint {
                cache.checkpoint().expect("template checkpoint");
            }
        }
        std::mem::forget(cache);
        assert!(dir.join(MANIFEST_FILE).is_file());
        let journal_len = fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len();
        assert!(
            journal_len > LOG_HEADER_LEN as u64,
            "the second entry must live in the journal tail"
        );
        Template {
            dir,
            cfg: cfg.clone(),
            clean: [
                (MANIFEST_SEED, live_bits(&cfg, MANIFEST_SEED)),
                (JOURNAL_SEED, live_bits(&cfg, JOURNAL_SEED)),
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

/// Apply one seeded mutation: truncate to `offset % len` bytes, or flip
/// a bit at `offset % len`. Deleting the file outright is the
/// `truncate-to-zero` case.
fn mutate(path: &Path, truncate: bool, offset: u64, bit: u32) -> String {
    let bytes = fs::read(path).unwrap();
    let name = path.file_name().unwrap().to_string_lossy().into_owned();
    if bytes.is_empty() {
        return format!("{name} already empty");
    }
    if truncate {
        let cut = (offset % bytes.len() as u64) as usize;
        fs::write(path, &bytes[..cut]).unwrap();
        format!("{name} truncated to {cut}/{} bytes", bytes.len())
    } else {
        let at = (offset % bytes.len() as u64) as usize;
        let mut b = bytes;
        b[at] ^= 1 << (bit % 8);
        fs::write(path, &b).unwrap();
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

/// Exhaustive `kill -9` state space for the journal: truncate it at
/// **every** byte boundary (not a sample) and demand the full
/// consistency contract at each cut — the torn tail is discarded, the
/// checkpointed entry survives, the journal-tail entry either survives
/// or re-simulates bit-identically, and recovery is idempotent.
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
            prop::range(0u64..4), // target: manifest, journal, both, delete manifest
            prop::range(0u64..2), // mutation: truncate / bit flip
            prop::any_u64(),      // offset seed
            prop::range(0u32..8), // bit index
        )),
        move |(target, kind, offset, bit)| {
            let case = root.join(format!("case-{target}-{kind}-{offset:016x}-{bit}"));
            copy_template(&case);
            let truncate = kind == 0;
            let what = match target {
                0 => mutate(&case.join(MANIFEST_FILE), truncate, offset, bit),
                1 => mutate(&case.join(JOURNAL_FILE), truncate, offset, bit),
                2 => {
                    let a = mutate(&case.join(MANIFEST_FILE), truncate, offset, bit);
                    let b = mutate(&case.join(JOURNAL_FILE), !truncate, offset ^ 0x9E37, bit);
                    format!("{a} + {b}")
                }
                _ => {
                    fs::remove_file(case.join(MANIFEST_FILE)).unwrap();
                    "manifest deleted".to_string()
                }
            };
            assert_consistent(&case, &what);
            let _ = fs::remove_dir_all(&case);
        },
    );
}
