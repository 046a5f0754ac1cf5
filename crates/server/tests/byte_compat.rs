//! Byte-compatibility pins for everything the durability kit routes:
//! the hash values that name trace files and jobs, the job WAL's on-disk
//! bytes (a committed `JOBS.dcgwal` holding one record of each kind),
//! and two older trace-store directories: one whose journal predates the
//! record-log framing (`DCGWAL02`), and one of the two-file format (a
//! `DCGMAN02` manifest beside a `DCGWAL03` journal) that the one-log
//! store upgrades by adoption.

use std::fs;
use std::path::PathBuf;

use dcg_core::{EntryIdentity, RecordLog, RunLength, TraceCache, TraceStore, JOURNAL_FILE};
use dcg_server::{JobSpec, JobWal, WalRecord, JOBS_WAL_FILE};
use dcg_sim::{fnv1a, SimConfig};

fn data(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("byte-compat-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn gzip_spec() -> JobSpec {
    JobSpec::Simulate {
        bench: "gzip".into(),
        seed: 42,
        quick: true,
    }
}

#[test]
fn hash_values_are_pinned() {
    assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
    assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    let cfg = SimConfig::baseline_8wide();
    assert_eq!(cfg.digest(), 0x18a2290033ebb677);
    assert_eq!(
        TraceCache::key(&cfg, "gzip", 42, RunLength::quick()),
        0xcac79baf1e339814
    );
    assert_eq!(gzip_spec().id(), 0x185fd325eea85cd5);
    assert_eq!(
        JobSpec::Faults { seed: 9, count: 5 }.id(),
        0x118ea3425be1d1cf
    );
}

#[test]
fn job_wal_golden_decodes_and_reencodes_byte_identically() {
    let golden = fs::read(data(JOBS_WAL_FILE)).unwrap();
    let id = gzip_spec().id();
    let expected = vec![
        WalRecord::Submit {
            id,
            spec: gzip_spec(),
        },
        WalRecord::Start { id, attempt: 1 },
        WalRecord::Fail {
            id,
            attempt: 1,
            terminal: false,
            message: "deadline exceeded".into(),
        },
        WalRecord::Done { id },
    ];
    let (records, valid_len) = RecordLog::<WalRecord>::decode(&golden);
    assert_eq!(records, expected);
    assert_eq!(valid_len, golden.len());

    let mut reencoded = b"DCGJWL01".to_vec();
    for r in &records {
        reencoded.extend(RecordLog::encode(r));
    }
    assert_eq!(reencoded, golden);

    // The append path writes the same bytes, and a reopen replays them.
    let dir = scratch("job-wal");
    let (wal, recovered) = JobWal::open(&dir).unwrap();
    assert!(recovered.is_empty());
    for r in &records {
        wal.append(r).unwrap();
    }
    drop(wal);
    assert_eq!(fs::read(dir.join(JOBS_WAL_FILE)).unwrap(), golden);
    let (_, recovered) = JobWal::open(&dir).unwrap();
    assert_eq!(recovered, expected);
}

#[test]
fn dcgwal02_store_journal_resets_and_its_entry_is_adopted() {
    // Written by the store before the journal moved onto the record-log
    // framing: `tiny` seed 1 is checkpointed into the manifest, seed 2
    // lives only in the old-format journal.
    let dir = scratch("store-dcgwal02");
    for entry in fs::read_dir(data("store-dcgwal02")).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    let store = TraceStore::new(dir.clone(), None);
    let stats = store.ensure_open();
    assert_eq!(
        stats.adopted, 2,
        "both entries come back by adoption: the one-log store reads \
         neither the old journal nor the manifest"
    );
    assert_eq!(store.len(), 2);
    for seed in [1, 2] {
        let id = EntryIdentity::current(0xABCD, "tiny", seed, 0, 40);
        let file = format!("store-dcgwal02/tiny-{seed:016x}.dcgact");
        assert_eq!(
            store.fetch(&id).expect("entry indexed"),
            fs::read(data(&file)).unwrap()
        );
    }
    let journal = fs::read(dir.join(JOURNAL_FILE)).unwrap();
    assert_eq!(&journal[..8], b"DCGWAL04");
}

#[test]
fn dcgman02_store_upgrades_with_both_entries_and_drops_its_manifest() {
    // Written by the two-file store: `tiny` seed 1 is checkpointed into
    // the `DCGMAN02` manifest, seed 2 lives only in the `DCGWAL03`
    // journal's tail. The one-log store reads neither: it adopts both
    // entries from the directory and deletes the manifest.
    let dir = scratch("store-dcgman02");
    for entry in fs::read_dir(data("store-dcgman02")).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    assert!(dir.join("MANIFEST.dcgstore").is_file());
    let store = TraceStore::new(dir.clone(), None);
    assert_eq!(store.ensure_open().adopted, 2);
    assert_eq!(store.len(), 2);
    for seed in [1, 2] {
        let id = EntryIdentity::current(0xABCD, "tiny", seed, 0, 40);
        let file = format!("store-dcgman02/tiny-{seed:016x}.dcgact");
        assert_eq!(
            store.fetch(&id).expect("entry indexed"),
            fs::read(data(&file)).unwrap()
        );
    }
    drop(store);
    assert!(
        !dir.join("MANIFEST.dcgstore").exists(),
        "the writable open deletes the old manifest"
    );
    let journal = fs::read(dir.join(JOURNAL_FILE)).unwrap();
    assert_eq!(&journal[..8], b"DCGWAL04");
}
