//! Property suite for the generic [`RecordLog`]: a log truncated at
//! **every byte boundary** (the `kill -9` state space) always recovers a
//! clean prefix of the appended records, recovery is idempotent, and a
//! reopened log accepts appends that a later open replays. Random
//! single-bit corruption gets the same guarantee, and a foreign or
//! older-format file resets to an empty log. The trace store journal
//! and the server's job WAL both sit on this log.

use std::path::{Path, PathBuf};

use dcg_core::durable::{put_str, put_u64, Cursor};
use dcg_core::{LogRecord, RecordLog, LOG_HEADER_LEN};
use dcg_testkit::prop;

/// A test record with a fixed-size and a variable-size kind.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Rec {
    Tick(u64),
    Note { id: u64, text: String },
}

impl LogRecord for Rec {
    const MAGIC: [u8; 8] = *b"TESTLG01";

    fn encode_body(&self, body: &mut Vec<u8>) -> u8 {
        match self {
            Rec::Tick(v) => {
                put_u64(body, *v);
                1
            }
            Rec::Note { id, text } => {
                put_u64(body, *id);
                put_str(body, text);
                2
            }
        }
    }

    fn decode_body(kind: u8, body: &[u8]) -> Option<Rec> {
        let mut c = Cursor::new(body);
        let rec = match kind {
            1 => Rec::Tick(c.u64()?),
            2 => Rec::Note {
                id: c.u64()?,
                text: c.str()?,
            },
            _ => return None,
        };
        c.done().then_some(rec)
    }
}

type Log = RecordLog<Rec>;

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("record-log-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("test.log")
}

/// 0..12 records mixing both kinds.
fn records() -> prop::Gen<Vec<Rec>> {
    let record = prop::tuple((prop::any_bool(), prop::any_u64())).map(|(note, v)| {
        if note {
            Rec::Note {
                id: v,
                text: format!("note {:x}", v % 4096),
            }
        } else {
            Rec::Tick(v)
        }
    });
    prop::vec(record, 0usize..12)
}

/// Append `records` to a fresh log at `path` and return its byte image.
fn log_bytes(path: &Path, records: &[Rec]) -> Vec<u8> {
    let (mut log, recovered) = Log::open(path).unwrap();
    assert!(recovered.is_empty());
    for r in records {
        log.append(r).unwrap();
    }
    drop(log);
    std::fs::read(path).unwrap()
}

#[test]
fn truncation_at_every_byte_boundary_recovers_a_clean_prefix() {
    prop::check("record_log_truncate_every_boundary", records(), |records| {
        let path = scratch("trunc");
        let bytes = log_bytes(&path, &records);

        // The pure decoder visits every boundary; the open path, which
        // syncs to disk, samples a stride of boundaries plus the end.
        let stride = (bytes.len() / 16).max(1);
        for cut in 0..=bytes.len() {
            let (decoded, valid_len) = Log::decode(&bytes[..cut]);
            assert!(valid_len <= cut);
            assert_eq!(
                decoded,
                records[..decoded.len()],
                "decoded records must be an exact prefix (cut at {cut})"
            );

            if cut % stride != 0 && cut != bytes.len() {
                continue;
            }
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let (log, first) = Log::open(&path).unwrap();
            assert_eq!(first, decoded, "open agrees with the pure decoder");
            drop(log);
            let expect_len = valid_len.max(LOG_HEADER_LEN) as u64;
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                expect_len,
                "open truncates the torn tail (cut at {cut})"
            );
            let (mut log, second) = Log::open(&path).unwrap();
            assert_eq!(second, first, "recovery is idempotent");
            // An append after a torn-tail reopen must be replayable.
            log.append(&Rec::Tick(0xfeed)).unwrap();
            drop(log);
            let (_, third) = Log::open(&path).unwrap();
            assert_eq!(third.len(), first.len() + 1);
            assert_eq!(*third.last().unwrap(), Rec::Tick(0xfeed));
        }
    });
}

#[test]
fn single_bit_corruption_still_yields_a_prefix() {
    let gen = prop::tuple((records(), prop::any_u64()));
    prop::check("record_log_bitflip_prefix", gen, |(records, pick)| {
        let path = scratch("flip");
        let mut bytes = log_bytes(&path, &records);
        if bytes.len() <= LOG_HEADER_LEN {
            return; // nothing past the magic to corrupt
        }
        let pos = LOG_HEADER_LEN + (pick % (bytes.len() - LOG_HEADER_LEN) as u64) as usize;
        bytes[pos] ^= 1 << (pick % 8);
        let (decoded, _) = Log::decode(&bytes);
        // A flipped record (or anything after it) is discarded; records
        // before the damage survive exactly.
        assert_eq!(decoded, records[..decoded.len()]);
    });
}

#[test]
fn foreign_or_older_format_resets_to_an_empty_log() {
    let path = scratch("foreign");
    // A different log's magic (an older format of this one included)
    // followed by bytes that would decode under the right magic.
    let mut older = b"TESTLG00".to_vec();
    older.extend_from_slice(&Log::encode(&Rec::Tick(7)));
    for image in [b"NOTALOGFILE".to_vec(), older, b"TEST".to_vec()] {
        std::fs::write(&path, &image).unwrap();
        let (mut log, recovered) = Log::open(&path).unwrap();
        assert!(recovered.is_empty());
        log.append(&Rec::Tick(1)).unwrap();
        drop(log);
        let (_, recovered) = Log::open(&path).unwrap();
        assert_eq!(recovered, vec![Rec::Tick(1)]);
    }
}
