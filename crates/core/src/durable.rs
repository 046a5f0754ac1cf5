//! The durability kit shared by the trace store and the experiment
//! server: one write-ahead record log, one crash hook and one
//! fixed-width little-endian field codec.
//!
//! [`RecordLog`] is an append-only file of checksummed records behind an
//! 8-byte magic header:
//!
//! ```text
//! magic  [u8; 8]   LogRecord::MAGIC (names the log and its format)
//! then per record:
//!   kind   u8      record kind
//!   len    u32     body length, <= 1 MiB
//!   body   [len]
//!   check  u64     FNV-1a over the preceding 5 + len bytes
//! ```
//!
//! Each append is `write` + `sync_data` before it returns. Decoding stops
//! at the first record that fails its length, checksum or body decode
//! (**torn-tail discard**), and [`RecordLog::open`] truncates the file
//! back to that valid prefix, so later appends extend a clean log. A
//! `kill -9` at any byte therefore loses at most the record being
//! written. A file with a foreign magic (another log, an older format)
//! is reset to an empty log. [`RecordLog::replace`] swaps in a fresh log
//! by temp file + rename, so a checkpoint is atomic too.
//!
//! [`crash_point`] is the deterministic abort hook crash-recovery tests
//! drive through [`CRASH_ENV`].

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use dcg_sim::fnv1a;

// ---------------------------------------------------------------------------
// Field codec (fixed-width little-endian; metadata records are tiny, so
// varint compactness buys nothing over parse simplicity)
// ---------------------------------------------------------------------------

/// Longest string field [`Cursor::str`] accepts (names, file names,
/// error messages).
const MAX_STR: usize = 4096;

/// Append `v` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32` length prefix and the UTF-8 bytes of `s`.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Append a `u32` length prefix and `b`.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Bounds-checked little-endian reader: every read returns `None` past
/// the end instead of panicking, because the bytes are untrusted.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    /// One byte.
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// A length-prefixed UTF-8 string of at most [`MAX_STR`] bytes.
    pub fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        if len > MAX_STR {
            return None;
        }
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }

    /// A length-prefixed byte field (bounded by the bytes left).
    pub fn bytes(&mut self) -> Option<Vec<u8>> {
        let len = self.u32()? as usize;
        Some(self.take(len)?.to_vec())
    }

    /// `true` once every byte has been read (decoders reject trailing
    /// bytes with it).
    #[must_use]
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------------
// Crash hook
// ---------------------------------------------------------------------------

/// Environment variable of the crash hook: `<layer>.<point>:<n>` aborts
/// the process the `n`-th time (1-based) it reaches that point. The
/// points are `store.before-journal`, `store.before-rename`,
/// `store.before-checkpoint-rename`, `server.before-journal`,
/// `server.before-commit` and `server.after-commit`. Tests and CI only.
pub const CRASH_ENV: &str = "DCG_TEST_CRASH";

/// Abort the process if [`CRASH_ENV`] targets `point` and this is the
/// planned hit. A point nothing targets costs one cached comparison.
pub fn crash_point(point: &str) {
    static PLAN: OnceLock<Option<(String, u64)>> = OnceLock::new();
    static HITS: AtomicU64 = AtomicU64::new(0);
    let plan = PLAN.get_or_init(|| {
        let v = std::env::var(CRASH_ENV).ok()?;
        let (target, n) = v.rsplit_once(':')?;
        Some((target.to_string(), n.parse().ok()?))
    });
    if let Some((target, n)) = plan {
        if target == point && HITS.fetch_add(1, Ordering::Relaxed) + 1 == *n {
            eprintln!("{CRASH_ENV}: aborting at hit {n} of {point}");
            std::process::abort();
        }
    }
}

// ---------------------------------------------------------------------------
// Record log
// ---------------------------------------------------------------------------

/// Length of a record log's header (the magic).
pub const LOG_HEADER_LEN: usize = 8;

/// Bound on one record body; a longer length field is read as a torn
/// record.
const MAX_RECORD_BODY: u32 = 1 << 20;

/// A record type a [`RecordLog`] can hold.
pub trait LogRecord: Sized {
    /// Magic header naming the log and its format.
    const MAGIC: [u8; LOG_HEADER_LEN];

    /// Append this record's body to `body` and return its kind byte.
    fn encode_body(&self, body: &mut Vec<u8>) -> u8;

    /// Inverse of [`encode_body`](LogRecord::encode_body); `None` marks
    /// the record (and so the rest of the log) as corrupt.
    fn decode_body(kind: u8, body: &[u8]) -> Option<Self>;
}

/// An open, append-only log of `R` records (see the module docs for the
/// format and recovery rules).
#[derive(Debug)]
pub struct RecordLog<R> {
    file: File,
    records: PhantomData<fn(&R)>,
}

impl<R: LogRecord> RecordLog<R> {
    /// Open (or create) the log at `path` and replay its records. A torn
    /// tail is truncated off the file; an empty or foreign file is reset
    /// to an empty log.
    ///
    /// # Errors
    ///
    /// I/O failures opening, reading or repairing the file.
    pub fn open(path: &Path) -> io::Result<(RecordLog<R>, Vec<R>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, valid_len) = Self::decode(&bytes);
        if valid_len == 0 {
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&R::MAGIC)?;
            file.sync_data()?;
        } else {
            if valid_len < bytes.len() {
                file.set_len(valid_len as u64)?;
                file.sync_data()?;
            }
            file.seek(SeekFrom::Start(valid_len as u64))?;
        }
        Ok((
            RecordLog {
                file,
                records: PhantomData,
            },
            records,
        ))
    }

    /// Atomically replace the log at `path` with a fresh one holding
    /// `records`: write them to `tmp` in one `write` + `sync_all`, hit the
    /// [`crash_point`] named `crash`, then rename over `path`. Returns the
    /// new log, open for appends.
    ///
    /// # Errors
    ///
    /// I/O failures writing, syncing or renaming; the log at `path` is
    /// then untouched and `tmp` may be left for the caller to remove.
    pub fn replace(
        path: &Path,
        tmp: &Path,
        records: &[R],
        crash: &str,
    ) -> io::Result<RecordLog<R>> {
        let mut image = R::MAGIC.to_vec();
        for r in records {
            image.extend(Self::encode(r));
        }
        let mut file = File::create(tmp)?;
        file.write_all(&image)?;
        file.sync_all()?;
        crash_point(crash);
        std::fs::rename(tmp, path)?;
        Ok(RecordLog {
            file,
            records: PhantomData,
        })
    }

    /// Durably append one record (`write` + `sync_data` before return).
    ///
    /// # Errors
    ///
    /// The underlying I/O error; the caller must treat the record as not
    /// written.
    pub fn append(&mut self, record: &R) -> io::Result<()> {
        self.file.write_all(&Self::encode(record))?;
        self.file.sync_data()
    }

    /// One framed record, exactly as [`append`](RecordLog::append)
    /// writes it.
    #[must_use]
    pub fn encode(record: &R) -> Vec<u8> {
        let mut rec = vec![0; 5];
        let kind = record.encode_body(&mut rec);
        rec[0] = kind;
        let len = (rec.len() - 5) as u32;
        rec[1..5].copy_from_slice(&len.to_le_bytes());
        let check = fnv1a(&rec);
        put_u64(&mut rec, check);
        rec
    }

    /// Decode a log's byte image, stopping at the first torn or corrupt
    /// record. Returns the records and the byte length of the valid
    /// prefix, magic included (0 when the magic itself is missing or
    /// foreign).
    #[must_use]
    pub fn decode(bytes: &[u8]) -> (Vec<R>, usize) {
        let mut records = Vec::new();
        if bytes.get(..LOG_HEADER_LEN) != Some(&R::MAGIC[..]) {
            return (records, 0);
        }
        let mut c = Cursor::new(bytes);
        c.pos = LOG_HEADER_LEN;
        let mut valid_len = LOG_HEADER_LEN;
        while let Some(kind) = c.u8() {
            let Some(len) = c.u32().filter(|&len| len <= MAX_RECORD_BODY) else {
                break;
            };
            let Some(body) = c.take(len as usize) else {
                break;
            };
            let framed = &bytes[valid_len..c.pos];
            if c.u64() != Some(fnv1a(framed)) {
                break;
            }
            let Some(record) = R::decode_body(kind, body) else {
                break;
            };
            records.push(record);
            valid_len = c.pos;
        }
        (records, valid_len)
    }
}
