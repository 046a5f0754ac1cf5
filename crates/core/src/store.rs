//! The crash-safe backing store behind [`crate::TraceCache`].
//!
//! The first-generation cache was a flat directory of `.dcgact` files
//! addressed by a 64-bit FNV filename key. That shape had real
//! correctness holes: two tuples colliding on the key overwrote each
//! other's file and thrashed forever, a writer dying between temp-file
//! creation and rename leaked `.tmp` files, and every lookup had to read
//! and re-validate a full file header before knowing whether the entry
//! even matched. This module replaces it with a small storage engine
//! (one record log + recovery sweep + bounded eviction):
//!
//! * **one writer:** the open takes an exclusive, non-blocking `flock(2)`
//!   on the store directory itself (no lock file, so a read-only mount
//!   locks too). A second opener — in this process or another — serves
//!   lookups read-only and counts every store and eviction it skips;
//! * **one index:** `JOURNAL.dcgstore` is a [`RecordLog`] that indexes
//!   entries by their **full identity** — `(config digest, name, seed,
//!   warm-up/measure lengths, activity schema, activity version)` — plus
//!   per-entry metadata: on-disk file name, byte length, whole-payload
//!   checksum and a last-access generation. A checkpoint writes one row
//!   per live entry to a fresh log (temp file + fsync + rename); every
//!   store and eviction after it appends a record *before* it takes
//!   effect, so an interrupted mutation is rolled forward (temp file
//!   renamed into place) or discarded on the next open, never
//!   half-trusted;
//! * an **open-time recovery sweep** decodes the log and reconciles the
//!   directory against it: checkpointed rows are trusted at the right
//!   length, appended rows must prove their payload checksum, untracked
//!   valid entries are adopted, corrupt files are dropped, and stale
//!   `.tmp` files are reaped;
//! * a **bounded-capacity eviction policy** (`DCG_TRACE_CACHE_BUDGET`
//!   bytes, oldest generation first, enforced at open and after each
//!   insert); the open also drops entries recorded under an activity
//!   schema/version the current binary no longer speaks.
//!
//! Lookups go through the in-memory index, so a hit knows the entry
//! matches before touching the file. Every row is born verified — insert
//! and adoption both compute the checksum from the bytes in hand — so a
//! fetch only length-checks the file; in-place corruption is caught by
//! the trace's own trailer and per-block checksums as it decodes, and
//! [`TraceStore::verify_all`] rescans every payload on demand.
//!
//! Crash-consistency test hook: `DCG_TEST_CRASH=store.before-journal:N`,
//! `store.before-rename:N` or `store.before-checkpoint-rename:N`
//! ([`crate::crash_point`]) aborts the process at the named point of the
//! `N`-th store (or checkpoint) in this process, letting CI kill a sweep
//! mid-store and prove the reopen recovers (DESIGN.md §14).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use dcg_trace::{payload_checksum, ActivityTraceReader, ACTIVITY_SCHEMA, ACTIVITY_VERSION};

use crate::durable::{crash_point, put_str, put_u32, put_u64, Cursor, LogRecord, RecordLog};

/// The store's index file: a [`RecordLog`] of checkpointed rows plus the
/// stores and evictions appended since.
pub const JOURNAL_FILE: &str = "JOURNAL.dcgstore";
/// Log magic. Bumped to `04` when the log became the store's only index
/// (checkpoint rows in the log, the per-row verified stamp gone). An
/// older directory's log reads as foreign: its entries come back through
/// directory adoption, and the writable open deletes its old index files.
pub const JOURNAL_MAGIC: [u8; 8] = *b"DCGWAL04";

/// Mutations between automatic checkpoints. The log holds at most this
/// many appended records (plus evictions) past its checkpoint rows, so
/// recovery replay stays short.
const CHECKPOINT_EVERY: u32 = 16;

/// Log record kinds.
const REC_STORE: u8 = 1;
const REC_EVICT: u8 = 2;
const REC_ENTRY: u8 = 3;

/// Counter naming temp files. The directory lock admits one writer, and
/// its open sweep clears every earlier `.tmp`, so the count alone is
/// unique.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

fn next_tmp() -> u64 {
    TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
}

/// The full identity a cache entry is indexed by — every field that can
/// change what a recorded activity stream replays to. The old flat
/// layout folded all of this into one 64-bit FNV filename key; the
/// index keeps the fields themselves, so two tuples that collide on the
/// key remain distinct entries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EntryIdentity {
    /// [`dcg_sim::SimConfig::digest`] of the producing configuration.
    pub config_digest: u64,
    /// Workload seed.
    pub seed: u64,
    /// Warm-up instructions of the producing run.
    pub warmup_insts: u64,
    /// Measured instructions of the producing run.
    pub measure_insts: u64,
    /// Activity schema fingerprint the entry was recorded under.
    pub schema: u32,
    /// Activity format version the entry was recorded under.
    pub version: u32,
    /// Workload name.
    pub name: String,
}

impl EntryIdentity {
    /// Identity for a tuple recorded under the *current* activity
    /// schema/version (the only kind this binary can produce).
    pub fn current(
        config_digest: u64,
        name: &str,
        seed: u64,
        warmup_insts: u64,
        measure_insts: u64,
    ) -> EntryIdentity {
        EntryIdentity {
            config_digest,
            seed,
            warmup_insts,
            measure_insts,
            schema: ACTIVITY_SCHEMA,
            version: ACTIVITY_VERSION,
            name: name.to_string(),
        }
    }

    /// `true` when the entry was recorded under the schema/version this
    /// binary speaks — the open-time sweep drops everything else.
    fn is_live_schema(&self) -> bool {
        self.schema == ACTIVITY_SCHEMA && self.version == ACTIVITY_VERSION
    }
}

/// Per-entry metadata carried by the log's rows and store records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryMeta {
    /// Full identity of the tuple this entry caches.
    pub identity: EntryIdentity,
    /// On-disk file name within the store directory.
    pub file: String,
    /// Payload length in bytes.
    pub bytes: u64,
    /// Whole-payload checksum ([`dcg_trace::payload_checksum`]).
    pub checksum: u64,
    /// Last-access generation (monotonic; oldest evicts first).
    pub generation: u64,
}

/// A failure in the store's own metadata I/O (checkpoint, log append).
/// Entry-payload failures never surface here — they degrade to counted
/// cache misses.
#[derive(Debug)]
pub struct StoreError {
    /// What the store was doing.
    pub what: &'static str,
    /// The underlying I/O failure.
    pub source: io::Error,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace store {}: {}", self.what, self.source)
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// What one open-time recovery sweep did —
/// surfaced through [`crate::CacheHealth`] and the store fault
/// campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Untracked valid entries adopted from the directory scan.
    pub adopted: u64,
    /// Interrupted stores completed from their log record (temp file
    /// renamed into place).
    pub rolled_forward: u64,
    /// Stale temp files deleted.
    pub reaped_tmp: u64,
    /// Corrupt entry files (or rows whose file is gone) dropped.
    pub dropped_corrupt: u64,
    /// Entries dropped because their recorded activity schema/version is
    /// no longer live.
    pub dropped_stale_schema: u64,
    /// Entries evicted to fit the byte budget.
    pub evicted_over_budget: u64,
}

/// Summary of a full-store verification pass ([`TraceStore::verify_all`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreScan {
    /// Entries whose payload checksum matched their row.
    pub valid: u64,
    /// Entries that failed verification (and were evicted).
    pub invalid: u64,
    /// Total payload bytes of the valid entries.
    pub bytes: u64,
}

/// Per-instance health counters (atomics: the store is shared across
/// the suite's worker threads). Mirrored into the process-wide
/// aggregate by the facade in `cache.rs`.
#[derive(Debug, Default)]
pub struct HealthCounters {
    /// Failed stores (directory creation, write, log append, or rename).
    pub store_failures: AtomicU64,
    /// Invalid entries that could not be deleted.
    pub evict_failures: AtomicU64,
    /// Replay drives that failed mid-run on a validated entry.
    pub replay_failures: AtomicU64,
    /// Distinct identities that collided on the 64-bit filename key and
    /// were stored under a disambiguated name.
    pub key_collisions: AtomicU64,
    /// Stores/evictions skipped because another writer holds the
    /// directory or it is not writable (read-only degradation: lookups
    /// still served).
    pub readonly_skips: AtomicU64,
    /// Untracked valid entries adopted by recovery sweeps.
    pub adopted_entries: AtomicU64,
    /// Stale temp files reaped by recovery sweeps.
    pub reaped_tmp: AtomicU64,
    /// Interrupted stores rolled forward from the log.
    pub rolled_forward: AtomicU64,
    /// Corrupt entry files or rows whose file is gone dropped.
    pub dropped_corrupt: AtomicU64,
}

fn encode_meta(out: &mut Vec<u8>, m: &EntryMeta) {
    put_u64(out, m.identity.config_digest);
    put_u64(out, m.identity.seed);
    put_u64(out, m.identity.warmup_insts);
    put_u64(out, m.identity.measure_insts);
    put_u32(out, m.identity.schema);
    put_u32(out, m.identity.version);
    put_str(out, &m.identity.name);
    put_str(out, &m.file);
    put_u64(out, m.bytes);
    put_u64(out, m.checksum);
    put_u64(out, m.generation);
}

fn decode_meta(c: &mut Cursor<'_>) -> Option<EntryMeta> {
    Some(EntryMeta {
        identity: EntryIdentity {
            config_digest: c.u64()?,
            seed: c.u64()?,
            warmup_insts: c.u64()?,
            measure_insts: c.u64()?,
            schema: c.u32()?,
            version: c.u32()?,
            name: c.str()?,
        },
        file: c.str()?,
        bytes: c.u64()?,
        checksum: c.u64()?,
        generation: c.u64()?,
    })
}

/// One decoded log record.
#[derive(Debug)]
enum JournalOp {
    /// A checkpointed row: the entry was durable when the log was written.
    Entry(EntryMeta),
    /// Intent to store `meta` (payload staged in temp file `tmp`).
    Store { meta: EntryMeta, tmp: String },
    /// Intent to delete entry file `file`.
    Evict { file: String },
}

impl LogRecord for JournalOp {
    const MAGIC: [u8; 8] = JOURNAL_MAGIC;

    fn encode_body(&self, body: &mut Vec<u8>) -> u8 {
        match self {
            JournalOp::Entry(meta) => {
                encode_meta(body, meta);
                REC_ENTRY
            }
            JournalOp::Store { meta, tmp } => {
                encode_meta(body, meta);
                put_str(body, tmp);
                REC_STORE
            }
            JournalOp::Evict { file } => {
                put_str(body, file);
                REC_EVICT
            }
        }
    }

    fn decode_body(kind: u8, body: &[u8]) -> Option<JournalOp> {
        let mut c = Cursor::new(body);
        let op = match kind {
            REC_ENTRY => JournalOp::Entry(decode_meta(&mut c)?),
            REC_STORE => JournalOp::Store {
                meta: decode_meta(&mut c)?,
                tmp: c.str()?,
            },
            REC_EVICT => JournalOp::Evict { file: c.str()? },
            _ => return None,
        };
        c.done().then_some(op)
    }
}

// ---------------------------------------------------------------------------
// The one-writer lock
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod sys {
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;
    use std::path::Path;

    const LOCK_EX: i32 = 2;
    const LOCK_NB: i32 = 4;

    extern "C" {
        fn flock(fd: i32, operation: i32) -> i32;
    }

    /// Open `dir` and take an exclusive, non-blocking `flock(2)` on its
    /// own fd; the lock lives as long as the returned handle. Locks are
    /// per open file description, so a second handle in this process
    /// conflicts exactly as another process's does.
    pub fn lock_dir(dir: &Path) -> io::Result<Option<File>> {
        let f = File::open(dir)?;
        // SAFETY: flock only reads the descriptor, which `f` owns and
        // keeps open for the duration of the call.
        if unsafe { flock(f.as_raw_fd(), LOCK_EX | LOCK_NB) } == 0 {
            Ok(Some(f))
        } else {
            Err(io::Error::last_os_error())
        }
    }
}

#[cfg(not(unix))]
mod sys {
    /// No `flock` here: every opener writes.
    pub fn lock_dir(_dir: &std::path::Path) -> std::io::Result<Option<std::fs::File>> {
        Ok(None)
    }
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// Mutable store state behind the instance mutex. `None` until the
/// first operation triggers the open-time recovery sweep.
#[derive(Debug)]
struct State {
    /// Full-identity index, as the log records it.
    index: HashMap<EntryIdentity, EntryMeta>,
    /// Monotonic last-access generation allocator.
    generation: u64,
    /// The open log (replaced by each checkpoint, else opened by the
    /// first append).
    journal: Option<RecordLog<JournalOp>>,
    /// Mutations since the last checkpoint.
    ops_since_checkpoint: u32,
    /// Anything (including generation bumps) changed since the last
    /// checkpoint — drives the best-effort checkpoint on drop.
    dirty: bool,
    /// Another writer holds the directory, or it is not writable
    /// (detected at open, or forced): lookups are served from the log
    /// and directory as found, every mutation degrades to a counted
    /// no-op ([`HealthCounters::readonly_skips`]), and nothing on disk
    /// is touched.
    readonly: bool,
    /// The directory did not exist at open: the first insert creates it
    /// and opens it again, taking the lock.
    unborn: bool,
    /// The one-writer lock, held for as long as this state lives.
    _lock: Option<File>,
    /// What the open-time sweep did (kept for tests/campaigns).
    recovery: RecoveryStats,
}

impl State {
    fn total_bytes(&self) -> u64 {
        self.index.values().map(|m| m.bytes).sum()
    }
}

/// The crash-safe trace store. Shared (via `Arc` inside
/// [`crate::TraceCache`]) across the suite's worker threads; all
/// metadata operations serialize on one mutex, payload reads happen
/// outside it.
#[derive(Debug)]
pub struct TraceStore {
    dir: PathBuf,
    /// Byte budget; `None` = unbounded.
    budget: Option<u64>,
    /// Open in read-only mode unconditionally (otherwise the lock and a
    /// write probe at open time decide).
    force_readonly: bool,
    /// Per-instance health counters.
    pub health: HealthCounters,
    state: Mutex<Option<State>>,
}

impl TraceStore {
    /// A store rooted at `dir`, opened lazily on first use.
    pub fn new(dir: PathBuf, budget: Option<u64>) -> TraceStore {
        TraceStore {
            dir,
            budget,
            force_readonly: false,
            health: HealthCounters::default(),
            state: Mutex::new(None),
        }
    }

    /// A store that never writes to `dir`: lookups are served, every
    /// store/eviction degrades to a counted no-op
    /// ([`HealthCounters::readonly_skips`]). The same degradation is
    /// chosen when a normal open finds the directory locked by another
    /// writer or unwritable (e.g. a CI artifact replayed from a
    /// read-only mount); this constructor forces it for callers that
    /// *know* the directory must not change.
    pub fn new_read_only(dir: PathBuf) -> TraceStore {
        TraceStore {
            dir,
            budget: None,
            force_readonly: true,
            health: HealthCounters::default(),
            state: Mutex::new(None),
        }
    }

    /// `true` when the store degraded to read-only mode (forces the
    /// lazy open).
    pub fn is_read_only(&self) -> bool {
        let mut guard = self.opened();
        guard.as_mut().expect("opened").readonly
    }

    /// `true` when writing into `dir` works: probed by creating (and
    /// removing) a uniquely-named temp file. Any creation failure on an
    /// *existing* directory — permissions, `EROFS`, quota — means
    /// mutations cannot land, which is exactly what read-only mode
    /// degrades around.
    fn probe_writable(dir: &Path) -> bool {
        let probe = dir.join(format!(".probe.{}.tmp", next_tmp()));
        match OpenOptions::new().write(true).create_new(true).open(&probe) {
            Ok(f) => {
                drop(f);
                let _ = fs::remove_file(&probe);
                true
            }
            Err(_) => false,
        }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured byte budget.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Lock the state, running the open-time recovery sweep on first
    /// touch.
    fn opened(&self) -> MutexGuard<'_, Option<State>> {
        let mut guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if guard.is_none() {
            *guard = Some(self.open_sweep());
        }
        guard
    }

    /// Force the lazy open (and its recovery sweep) now; returns what
    /// the sweep did.
    pub fn ensure_open(&self) -> RecoveryStats {
        self.opened().as_ref().expect("opened").recovery
    }

    // -- open-time recovery -------------------------------------------------

    /// Build the in-memory state: take the lock, decode the log, prove
    /// its rows, reconcile against the directory, drop stale schemas,
    /// enforce the budget, checkpoint.
    fn open_sweep(&self) -> State {
        let mut st = State {
            index: HashMap::new(),
            generation: 0,
            journal: None,
            ops_since_checkpoint: 0,
            dirty: false,
            readonly: self.force_readonly,
            unborn: false,
            _lock: None,
            recovery: RecoveryStats::default(),
        };
        if !self.dir.is_dir() {
            // A missing directory is created (and locked) by the first
            // insert, so it only counts as read-only when forced.
            st.unborn = true;
            return st;
        }
        if !st.readonly {
            // Lock first: a second opener must not so much as probe.
            match sys::lock_dir(&self.dir) {
                Ok(lock) => st._lock = lock,
                Err(e) => {
                    st.readonly = true;
                    let why = if e.kind() == io::ErrorKind::WouldBlock {
                        "is locked by another writer"
                    } else {
                        "cannot be locked"
                    };
                    crate::cache::note_readonly(&self.dir, why);
                }
            }
        }
        if !st.readonly && !Self::probe_writable(&self.dir) {
            st.readonly = true;
            crate::cache::note_readonly(&self.dir, "is not writable");
        }

        // 1. The log: checkpointed rows, then the stores and evictions
        //    appended since, folded in order (the last word on an
        //    identity wins). A torn tail ends the decode; a foreign or
        //    missing log leaves the index empty, and the directory scan
        //    below rebuilds it from the entries themselves.
        let log = fs::read(self.dir.join(JOURNAL_FILE)).unwrap_or_default();
        let (ops, valid_len) = RecordLog::<JournalOp>::decode(&log);
        st.dirty = valid_len == 0 || valid_len < log.len();
        let mut rows: HashMap<EntryIdentity, (EntryMeta, Option<String>)> = HashMap::new();
        let mut evicted: Vec<String> = Vec::new();
        for op in ops {
            match op {
                JournalOp::Entry(meta) => {
                    rows.insert(meta.identity.clone(), (meta, None));
                }
                JournalOp::Store { meta, tmp } => {
                    st.dirty = true;
                    evicted.retain(|f| *f != meta.file);
                    rows.insert(meta.identity.clone(), (meta, Some(tmp)));
                }
                JournalOp::Evict { file } => {
                    st.dirty = true;
                    rows.retain(|_, (m, _)| m.file != file);
                    evicted.push(file);
                }
            }
        }
        if !st.readonly {
            for file in &evicted {
                let _ = fs::remove_file(self.dir.join(file));
            }
        }

        // 2. Prove the rows. A checkpointed row is trusted the way the
        //    index is trusted on every fetch: the file exists at the
        //    right length (payload damage is caught as it decodes). An
        //    appended store must prove its payload checksum, on the
        //    final name (the rename landed) or on its temp file (rolled
        //    forward now; read-only mode cannot rename and leaves the
        //    intent to the writer). A row that fails drops; its files
        //    are left to the directory scan, which adopts a valid entry
        //    and deletes the rest.
        for (meta, tmp) in rows.into_values() {
            let path = self.dir.join(&meta.file);
            let kept = match tmp {
                None => fs::metadata(&path).is_ok_and(|m| m.len() == meta.bytes),
                Some(_) if file_matches(&path, meta.bytes, meta.checksum) => true,
                Some(tmp) => {
                    let tmp_path = self.dir.join(tmp);
                    let rolled = !st.readonly
                        && file_matches(&tmp_path, meta.bytes, meta.checksum)
                        && fs::rename(&tmp_path, &path).is_ok();
                    st.recovery.rolled_forward += u64::from(rolled);
                    rolled
                }
            };
            if kept {
                st.generation = st.generation.max(meta.generation);
                st.index.insert(meta.identity.clone(), meta);
            } else {
                st.recovery.dropped_corrupt += 1;
            }
        }

        // 3. Directory reconciliation: reap stale temp files, delete an
        //    older format's index files, adopt untracked valid entries
        //    and delete corrupt ones.
        let tracked: HashSet<String> = st.index.values().map(|m| m.file.clone()).collect();
        if let Ok(rd) = fs::read_dir(&self.dir) {
            for entry in rd.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if name == JOURNAL_FILE {
                    continue;
                }
                if name.ends_with(".tmp") {
                    if !st.readonly {
                        let _ = fs::remove_file(entry.path());
                        st.recovery.reaped_tmp += 1;
                    }
                    continue;
                }
                if name.ends_with(".dcgstore") {
                    // The manifest (`MANIFEST.dcgstore`) of the two-file
                    // format: its rows come back by adoption.
                    if !st.readonly {
                        let _ = fs::remove_file(entry.path());
                    }
                    continue;
                }
                if !name.ends_with(".dcgact") || tracked.contains(&name) {
                    continue;
                }
                match adopt_entry(&entry.path()) {
                    Some((identity, bytes, checksum)) => {
                        st.generation += 1;
                        st.recovery.adopted += 1;
                        st.index.insert(
                            identity.clone(),
                            EntryMeta {
                                identity,
                                file: name,
                                bytes,
                                checksum,
                                generation: st.generation,
                            },
                        );
                    }
                    None => {
                        if !st.readonly {
                            let _ = fs::remove_file(entry.path());
                            st.recovery.dropped_corrupt += 1;
                        }
                    }
                }
            }
        }

        // 4. Compaction duties that are always safe at open: drop
        //    entries from a schema this binary no longer speaks, and
        //    enforce the byte budget oldest-first. Read-only mode owns
        //    no disk space, so it compacts nothing (stale-schema rows
        //    are harmless there — current-schema lookups never match
        //    them).
        if !st.readonly {
            st.recovery.dropped_stale_schema += self.drop_stale_schema(&mut st);
            st.recovery.evicted_over_budget += self.evict_to_budget(&mut st);
        }

        self.health
            .adopted_entries
            .fetch_add(st.recovery.adopted, Ordering::Relaxed);
        self.health
            .reaped_tmp
            .fetch_add(st.recovery.reaped_tmp, Ordering::Relaxed);
        self.health
            .rolled_forward
            .fetch_add(st.recovery.rolled_forward, Ordering::Relaxed);
        self.health
            .dropped_corrupt
            .fetch_add(st.recovery.dropped_corrupt, Ordering::Relaxed);
        crate::cache::note_recovery(&st.recovery);

        // 5. Checkpoint whatever the sweep changed, so the next open
        //    starts from checkpoint rows alone. A log that already is
        //    exactly that is left as it is.
        if st.dirty || st.recovery != RecoveryStats::default() {
            let _ = self.checkpoint_locked(&mut st);
        }
        st
    }

    /// Delete entries whose recorded schema/version is not live.
    /// Returns how many were dropped.
    fn drop_stale_schema(&self, st: &mut State) -> u64 {
        let stale: Vec<EntryIdentity> = st
            .index
            .keys()
            .filter(|id| !id.is_live_schema())
            .cloned()
            .collect();
        let n = stale.len() as u64;
        for id in stale {
            if let Some(m) = st.index.remove(&id) {
                let _ = fs::remove_file(self.dir.join(&m.file));
                st.dirty = true;
            }
        }
        n
    }

    /// Evict oldest-generation entries until the byte budget holds.
    /// Returns how many were evicted.
    fn evict_to_budget(&self, st: &mut State) -> u64 {
        if st.readonly {
            return 0;
        }
        let Some(budget) = self.budget else { return 0 };
        let mut evicted = 0;
        while st.total_bytes() > budget && !st.index.is_empty() {
            let oldest = st
                .index
                .values()
                .min_by_key(|m| m.generation)
                .expect("non-empty index")
                .identity
                .clone();
            self.evict_locked(st, &oldest);
            evicted += 1;
        }
        evicted
    }

    // -- checkpoint ---------------------------------------------------------

    /// Replace the log with one row per live entry (temp file + fsync +
    /// rename). Soft-fails into the store-failure counter via the
    /// caller; returns the error for callers that care.
    fn checkpoint_locked(&self, st: &mut State) -> Result<(), StoreError> {
        if !st.readonly && !st.unborn {
            let mut metas: Vec<&EntryMeta> = st.index.values().collect();
            metas.sort_by(|a, b| a.file.cmp(&b.file));
            let rows: Vec<JournalOp> = metas.into_iter().cloned().map(JournalOp::Entry).collect();
            let tmp = self.dir.join(format!("{JOURNAL_FILE}.{}.tmp", next_tmp()));
            let log = RecordLog::replace(
                &self.dir.join(JOURNAL_FILE),
                &tmp,
                &rows,
                "store.before-checkpoint-rename",
            );
            match log {
                Ok(log) => st.journal = Some(log),
                Err(e) => {
                    let _ = fs::remove_file(&tmp);
                    return Err(StoreError {
                        what: "checkpoint",
                        source: e,
                    });
                }
            }
        }
        // Read-only and unborn stores have nothing to persist; clearing
        // the flags keeps drop-time checkpoints quiet.
        st.ops_since_checkpoint = 0;
        st.dirty = false;
        Ok(())
    }

    /// Public checkpoint: fold the log's appended records into fresh
    /// checkpoint rows now.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        let mut guard = self.opened();
        let st = guard.as_mut().expect("opened");
        self.checkpoint_locked(st)
    }

    /// Append one log record, opening the log lazily (which truncates
    /// any torn tail, so the record stays replayable). Soft-fails
    /// (counted by the caller): a lost record only costs recovery the
    /// roll-forward shortcut — the directory scan still adopts the
    /// entry.
    fn journal_append(&self, st: &mut State, op: &JournalOp) -> Result<(), StoreError> {
        if st.journal.is_none() {
            let (log, _) =
                RecordLog::open(&self.dir.join(JOURNAL_FILE)).map_err(|e| StoreError {
                    what: "journal open",
                    source: e,
                })?;
            st.journal = Some(log);
        }
        let log = st.journal.as_mut().expect("journal opened above");
        log.append(op).map_err(|e| StoreError {
            what: "journal append",
            source: e,
        })
    }

    // -- mutations ----------------------------------------------------------

    /// Store `bytes` for `identity` under filename key `key`
    /// (disambiguated if a different identity already owns the key's
    /// file name). Failures never abort the caller's run; they are
    /// counted into [`HealthCounters::store_failures`].
    pub fn insert(&self, identity: &EntryIdentity, key: u64, bytes: &[u8]) {
        let mut guard = self.opened();
        let st = guard.as_mut().expect("opened");
        if st.unborn && !st.readonly {
            if fs::create_dir_all(&self.dir).is_err() {
                self.health.store_failures.fetch_add(1, Ordering::Relaxed);
                crate::cache::note_store_failure(&self.dir, "cannot create store directory");
                return;
            }
            *st = self.open_sweep();
        }
        if st.readonly {
            // Read-only degradation: the run keeps its results, the
            // store keeps its bytes, and the skip is counted instead of
            // failing the run.
            self.health.readonly_skips.fetch_add(1, Ordering::Relaxed);
            crate::cache::note_readonly_skip();
            return;
        }
        if let Err(what) = self.insert_locked(st, identity, key, bytes) {
            self.health.store_failures.fetch_add(1, Ordering::Relaxed);
            crate::cache::note_store_failure(&self.dir, what);
        }
    }

    fn insert_locked(
        &self,
        st: &mut State,
        identity: &EntryIdentity,
        key: u64,
        bytes: &[u8],
    ) -> Result<(), &'static str> {
        let file = self.file_for(st, identity, key);
        let tmp = format!("{file}.{}.tmp", next_tmp());
        let tmp_path = self.dir.join(&tmp);
        let write = || -> io::Result<()> {
            let mut f = File::create(&tmp_path)?;
            f.write_all(bytes)?;
            f.sync_all()
        };
        if write().is_err() {
            let _ = fs::remove_file(&tmp_path);
            return Err("cannot write temp file");
        }

        crash_point("store.before-journal");

        st.generation += 1;
        // Born verified: the checksum is computed from the bytes being
        // written, and the roll-forward path re-proves the file against
        // it before trusting this record after a crash.
        let meta = EntryMeta {
            identity: identity.clone(),
            file: file.clone(),
            bytes: bytes.len() as u64,
            checksum: payload_checksum(bytes),
            generation: st.generation,
        };
        // Log the intent first: after this record is durable, a crash on
        // either side of the rename is recoverable.
        if let Err(e) = self.journal_append(
            st,
            &JournalOp::Store {
                meta: meta.clone(),
                tmp,
            },
        ) {
            // A store without a log record still recovers through the
            // directory scan; degrade, but count it.
            crate::cache::note_store_failure(&self.dir, e.what);
            self.health.store_failures.fetch_add(1, Ordering::Relaxed);
        }

        crash_point("store.before-rename");

        if fs::rename(&tmp_path, self.dir.join(&file)).is_err() {
            let _ = fs::remove_file(&tmp_path);
            return Err("cannot rename temp file into place");
        }
        st.index.insert(identity.clone(), meta);
        st.dirty = true;
        st.ops_since_checkpoint += 1;
        self.evict_to_budget(st);
        if st.ops_since_checkpoint >= CHECKPOINT_EVERY {
            if let Err(e) = self.checkpoint_locked(st) {
                crate::cache::note_store_failure(&self.dir, e.what);
                self.health.store_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// The on-disk file name for `identity`, reusing an existing
    /// entry's name on re-store and disambiguating (and counting) key
    /// collisions between distinct identities.
    fn file_for(&self, st: &mut State, identity: &EntryIdentity, key: u64) -> String {
        if let Some(m) = st.index.get(identity) {
            return m.file.clone();
        }
        let base = format!("{}-{key:016x}.dcgact", identity.name);
        let taken = |st: &State, f: &str| st.index.values().any(|m| m.file == f);
        if !taken(st, &base) {
            return base;
        }
        // A different identity owns the key's file name: a 64-bit key
        // collision. The index keeps both under distinct names — the
        // flat layout would have let them overwrite each other forever.
        self.health.key_collisions.fetch_add(1, Ordering::Relaxed);
        crate::cache::note_key_collision();
        let mut n = 1u32;
        loop {
            let cand = format!("{}-{key:016x}-{n}.dcgact", identity.name);
            if !taken(st, &cand) {
                return cand;
            }
            n += 1;
        }
    }

    /// Remove one entry: log the eviction, delete the file, drop the
    /// index row.
    fn evict_locked(&self, st: &mut State, identity: &EntryIdentity) {
        let Some(meta) = st.index.remove(identity) else {
            return;
        };
        if st.readonly {
            // Drop the row from the in-memory index (so a failed entry
            // is not retried forever) but leave the disk alone.
            self.health.readonly_skips.fetch_add(1, Ordering::Relaxed);
            crate::cache::note_readonly_skip();
            return;
        }
        if let Err(e) = self.journal_append(
            st,
            &JournalOp::Evict {
                file: meta.file.clone(),
            },
        ) {
            crate::cache::note_store_failure(&self.dir, e.what);
            self.health.store_failures.fetch_add(1, Ordering::Relaxed);
        }
        let path = self.dir.join(&meta.file);
        if path.exists() {
            if let Err(e) = fs::remove_file(&path) {
                self.health.evict_failures.fetch_add(1, Ordering::Relaxed);
                crate::cache::note_evict_failure(&path, &e);
            }
        }
        st.dirty = true;
        st.ops_since_checkpoint += 1;
    }

    /// Public eviction of one identity (used when a validated entry
    /// fails mid-replay).
    pub fn evict(&self, identity: &EntryIdentity) {
        let mut guard = self.opened();
        let st = guard.as_mut().expect("opened");
        self.evict_locked(st, identity);
    }

    // -- lookups ------------------------------------------------------------

    /// Fetch the payload for `identity` as an owned buffer. Same fast
    /// path as [`fetch_data`](TraceStore::fetch_data) (which file-backed
    /// readers should prefer — it maps instead of copying); kept for
    /// callers that need a `Vec`.
    pub fn fetch(&self, identity: &EntryIdentity) -> Option<Vec<u8>> {
        self.fetch_data(identity).map(|d| d.to_vec())
    }

    /// Fetch the payload for `identity` through the index, zero-copy
    /// (`mmap(2)` where available): a hit length-checks the file and
    /// bumps the entry's last-access generation. Every row was born
    /// verified, so the whole-payload checksum is not recomputed here;
    /// in-place corruption is caught by the trace's own trailer and
    /// per-block checksums as the payload is decoded (which replay pays
    /// exactly once anyway). A missing or resized file evicts the entry
    /// and misses cleanly.
    pub fn fetch_data(&self, identity: &EntryIdentity) -> Option<dcg_trace::TraceData> {
        let meta = {
            let mut guard = self.opened();
            let st = guard.as_mut().expect("opened");
            let gen = st.generation + 1;
            let m = st.index.get_mut(identity)?;
            st.generation = gen;
            m.generation = gen;
            st.dirty = true;
            m.clone()
        };
        match dcg_trace::TraceData::open(&self.dir.join(&meta.file)) {
            Ok(data) if data.len() as u64 == meta.bytes => Some(data),
            _ => {
                self.evict(identity);
                None
            }
        }
    }

    /// The path the entry for `identity` occupies (or would occupy).
    /// The fault campaign uses this to corrupt stored entries in place.
    pub fn entry_path(&self, identity: &EntryIdentity, key: u64) -> PathBuf {
        let mut guard = self.opened();
        let st = guard.as_mut().expect("opened");
        match st.index.get(identity) {
            Some(m) => self.dir.join(&m.file),
            None => self
                .dir
                .join(format!("{}-{key:016x}.dcgact", identity.name)),
        }
    }

    /// Deep integrity scan: verify every tracked entry's whole-payload
    /// checksum against its row, evicting failures. The fault
    /// campaign's recovery verdicts depend on it catching in-place
    /// corruption without decoding.
    pub fn verify_all(&self) -> StoreScan {
        let metas: Vec<EntryMeta> = {
            let mut guard = self.opened();
            let st = guard.as_mut().expect("opened");
            st.index.values().cloned().collect()
        };
        let mut scan = StoreScan::default();
        for meta in metas {
            if file_matches(&self.dir.join(&meta.file), meta.bytes, meta.checksum) {
                scan.valid += 1;
                scan.bytes += meta.bytes;
            } else {
                self.evict(&meta.identity);
                scan.invalid += 1;
            }
        }
        scan
    }

    /// Number of tracked entries.
    pub fn len(&self) -> usize {
        let mut guard = self.opened();
        guard.as_mut().expect("opened").index.len()
    }

    /// `true` when no entries are tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for TraceStore {
    fn drop(&mut self) {
        // Best-effort durability for short-lived processes: fold any
        // appended records and generation bumps into checkpoint rows.
        // Failure is fine — the log's records and the directory scan
        // recover everything the checkpoint would have persisted.
        let mut guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(st) = guard.as_mut() {
            if st.dirty {
                let _ = self.checkpoint_locked(st);
            }
        }
    }
}

/// `true` when `path` holds exactly `bytes` bytes with checksum `ck`.
fn file_matches(path: &Path, bytes: u64, ck: u64) -> bool {
    match fs::read(path) {
        Ok(b) => b.len() as u64 == bytes && payload_checksum(&b) == ck,
        Err(_) => false,
    }
}

/// Validate an untracked `.dcgact` file for adoption: parse the
/// activity header, verify the trace's own totals, and derive the full
/// identity from the header (adopted entries are by construction
/// current-schema — the reader rejects anything else).
fn adopt_entry(path: &Path) -> Option<(EntryIdentity, u64, u64)> {
    let bytes = fs::read(path).ok()?;
    let reader = ActivityTraceReader::new(&bytes[..]).ok()?;
    let (_cycles, committed) = reader.verified_totals()?;
    let h = reader.header();
    if committed < h.warmup_insts + h.measure_insts {
        return None;
    }
    let identity = EntryIdentity::current(
        h.config_digest,
        &h.name,
        h.seed,
        h.warmup_insts,
        h.measure_insts,
    );
    Some((identity, bytes.len() as u64, payload_checksum(&bytes)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap()
            .join("target")
            .join("tmp")
            .join(format!("trace-store-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn ident(name: &str, seed: u64) -> EntryIdentity {
        EntryIdentity::current(0xABCD, name, seed, 10, 20)
    }

    /// Opaque non-trace payloads exercise the metadata machinery alone;
    /// checksums do not care what the bytes mean.
    fn payload(tag: u8, len: usize) -> Vec<u8> {
        (0..len).map(|i| tag ^ (i as u8)).collect()
    }

    /// A row for `body` stored under `file`.
    fn meta_for(identity: EntryIdentity, file: &str, body: &[u8]) -> EntryMeta {
        EntryMeta {
            identity,
            file: file.into(),
            bytes: body.len() as u64,
            checksum: payload_checksum(body),
            generation: 1,
        }
    }

    /// Write a log holding `ops` by hand.
    fn write_log(dir: &Path, ops: &[JournalOp]) {
        fs::create_dir_all(dir).unwrap();
        let _ = fs::remove_file(dir.join(JOURNAL_FILE));
        let (mut log, _) = RecordLog::open(&dir.join(JOURNAL_FILE)).unwrap();
        for op in ops {
            log.append(op).unwrap();
        }
    }

    #[test]
    fn checkpoint_log_roundtrips_and_rejects_corruption() {
        let dir = scratch("checkpoint-roundtrip");
        let store = TraceStore::new(dir.clone(), None);
        store.insert(&ident("a", 1), 0x11, &payload(1, 100));
        store.insert(&ident("b", 2), 0x22, &payload(2, 200));
        store.checkpoint().expect("checkpoint");
        drop(store);

        // One checkpoint row per entry and nothing appended after them.
        let bytes = fs::read(dir.join(JOURNAL_FILE)).unwrap();
        let (ops, valid_len) = RecordLog::<JournalOp>::decode(&bytes);
        assert_eq!(valid_len, bytes.len());
        assert_eq!(ops.len(), 2);
        assert!(ops.iter().all(|op| matches!(op, JournalOp::Entry(_))));

        // Any flipped bit or cut byte ends the decode before the damaged
        // row: it is never half-trusted.
        for at in [9, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            let (ops, valid_len) = RecordLog::<JournalOp>::decode(&bad);
            assert!(ops.len() < 2, "bit flip at {at} must drop a row");
            assert!(valid_len < bad.len());
        }
        let (ops, _) = RecordLog::<JournalOp>::decode(&bytes[..bytes.len() - 3]);
        assert_eq!(ops.len(), 1);
    }

    #[test]
    fn fetch_length_checks_and_verify_all_catches_in_place_corruption() {
        let dir = scratch("fetch-fast");
        let store = TraceStore::new(dir.clone(), None);
        let id = ident("gz", 7);
        store.insert(&id, 0x77, &payload(7, 500));
        assert_eq!(store.fetch(&id).expect("hit"), payload(7, 500));

        // Same-length in-place corruption passes the fetch — every row is
        // born verified; the decode-time block checksums own that
        // detection. The deep scan still catches and evicts it.
        let path = store.entry_path(&id, 0x77);
        let mut b = fs::read(&path).unwrap();
        b[250] ^= 0x10;
        fs::write(&path, &b).unwrap();
        assert!(store.fetch(&id).is_some(), "fetch trusts the row");
        let scan = store.verify_all();
        assert_eq!((scan.valid, scan.invalid), (0, 1), "deep scan catches it");
        assert!(!path.exists(), "the corrupt entry is evicted");
        assert!(store.fetch(&id).is_none(), "and stays evicted");

        // A length change fails the fetch.
        let id2 = ident("gz", 8);
        store.insert(&id2, 0x78, &payload(8, 500));
        let path2 = store.entry_path(&id2, 0x78);
        let b2 = fs::read(&path2).unwrap();
        fs::write(&path2, &b2[..b2.len() - 1]).unwrap();
        assert!(store.fetch(&id2).is_none(), "short file misses cleanly");
        assert!(!path2.exists(), "and is evicted");
    }

    #[test]
    fn checkpointed_rows_are_trusted_at_length_and_appended_rows_are_proven() {
        // Both files hold the right length but not the promised bytes.
        let dir = scratch("row-trust");
        let body = payload(5, 300);
        let mut bad = body.clone();
        bad[7] ^= 0x20;
        let (a, b) = (ident("a", 1), ident("b", 2));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("a.dcgact"), &bad).unwrap();
        fs::write(dir.join("b.dcgact"), &bad).unwrap();
        write_log(
            &dir,
            &[
                JournalOp::Entry(meta_for(a.clone(), "a.dcgact", &body)),
                JournalOp::Store {
                    meta: meta_for(b.clone(), "b.dcgact", &body),
                    tmp: "b.dcgact.0.tmp".into(),
                },
            ],
        );

        let store = TraceStore::new(dir.clone(), None);
        let stats = store.ensure_open();
        assert_eq!(
            stats.dropped_corrupt, 2,
            "the appended row fails its proof, then its file fails adoption"
        );
        assert_eq!(store.fetch(&a).expect("checkpoint row trusted"), bad);
        assert!(store.fetch(&b).is_none());
        assert!(
            !dir.join("b.dcgact").exists(),
            "the unproven opaque file cannot be adopted and is deleted"
        );
    }

    #[test]
    fn older_format_store_self_heals_through_directory_scan() {
        // A foreign log magic and the two-file format's index file must
        // not brick the store: the log decodes empty, the directory scan
        // adopts what it can, the old index file is deleted and the
        // checkpoint rewrites the log under the current magic.
        let dir = scratch("format-upgrade");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(JOURNAL_FILE), b"DCGWAL03").unwrap();
        fs::write(dir.join("MANIFEST.dcgstore"), b"an older index").unwrap();
        let store = TraceStore::new(dir.clone(), None);
        assert_eq!(store.len(), 0);
        drop(store);
        assert!(!dir.join("MANIFEST.dcgstore").exists());
        let bytes = fs::read(dir.join(JOURNAL_FILE)).unwrap();
        assert_eq!(bytes, JOURNAL_MAGIC, "rewritten as an empty current log");
    }

    #[test]
    fn key_collision_keeps_both_identities() {
        let dir = scratch("key-collision");
        let store = TraceStore::new(dir, None);
        // Two distinct identities forced onto the same 64-bit filename
        // key: the store must disambiguate, count the collision, and
        // serve both — the flat layout overwrote one with the other and
        // thrashed forever.
        let a = ident("gzip", 1);
        let b = ident("gzip", 2);
        let key = 0xDEAD_BEEF_u64;
        store.insert(&a, key, &payload(1, 300));
        store.insert(&b, key, &payload(2, 300));
        assert_eq!(store.health.key_collisions.load(Ordering::Relaxed), 1);
        assert_eq!(store.fetch(&a).expect("a stays warm"), payload(1, 300));
        assert_eq!(store.fetch(&b).expect("b stays warm"), payload(2, 300));
        assert_ne!(
            store.entry_path(&a, key),
            store.entry_path(&b, key),
            "colliding identities occupy distinct files"
        );
        // Re-storing either identity reuses its file and is not another
        // collision.
        store.insert(&a, key, &payload(3, 300));
        assert_eq!(store.health.key_collisions.load(Ordering::Relaxed), 1);
        assert_eq!(store.fetch(&a).expect("a refreshed"), payload(3, 300));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn budget_evicts_oldest_generation_first() {
        let dir = scratch("budget");
        let store = TraceStore::new(dir, Some(1_000));
        let (a, b, c) = (ident("a", 1), ident("b", 2), ident("c", 3));
        store.insert(&a, 1, &payload(1, 400));
        store.insert(&b, 2, &payload(2, 400));
        // Touch `a` so `b` becomes the oldest generation.
        assert!(store.fetch(&a).is_some());
        store.insert(&c, 3, &payload(3, 400));
        assert!(store.fetch(&b).is_none(), "oldest-generation entry evicts");
        assert!(store.fetch(&a).is_some(), "recently used entry survives");
        assert!(store.fetch(&c).is_some(), "newest entry survives");
    }

    #[test]
    fn orphan_tmp_files_are_reaped_exactly_once() {
        let dir = scratch("orphan-tmp");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("gz-00ff.dcgact.0.tmp"), b"dead writer").unwrap();
        fs::write(dir.join("junk.tmp"), b"also dead").unwrap();

        let store = TraceStore::new(dir.clone(), None);
        let stats = store.ensure_open();
        assert_eq!(stats.reaped_tmp, 2, "both orphans reaped");
        assert!(!dir.join("gz-00ff.dcgact.0.tmp").exists());
        assert!(!dir.join("junk.tmp").exists());
        drop(store);

        let store2 = TraceStore::new(dir, None);
        assert_eq!(
            store2.ensure_open().reaped_tmp,
            0,
            "reaping happens exactly once"
        );
    }

    #[test]
    fn torn_checkpoint_temp_is_reaped_beside_an_intact_log() {
        let dir = scratch("torn-checkpoint");
        let store = TraceStore::new(dir.clone(), None);
        let id = ident("gz", 5);
        store.insert(&id, 0x5, &payload(5, 256));
        drop(store);
        // Leave a torn checkpoint image beside the log, as a crash
        // between the temp write and its rename would.
        let log = fs::read(dir.join(JOURNAL_FILE)).unwrap();
        let torn = dir.join(format!("{JOURNAL_FILE}.9.tmp"));
        fs::write(&torn, &log[..log.len() / 2]).unwrap();

        let store2 = TraceStore::new(dir, None);
        assert_eq!(store2.ensure_open().reaped_tmp, 1);
        assert!(!torn.exists());
        assert_eq!(
            store2.fetch(&id).expect("the intact log serves the entry"),
            payload(5, 256)
        );
    }

    #[test]
    fn crash_between_journal_and_rename_rolls_forward() {
        let dir = scratch("roll-forward");
        // Simulate the torn state by hand: temp file written, log record
        // appended, rename never happened.
        let body = payload(9, 128);
        let meta = meta_for(ident("gz", 9), "gz-0000000000000009.dcgact", &body);
        let tmp = "gz-0000000000000009.dcgact.0.tmp".to_string();
        write_log(
            &dir,
            &[JournalOp::Store {
                meta: meta.clone(),
                tmp: tmp.clone(),
            }],
        );
        fs::write(dir.join(&tmp), &body).unwrap();

        let store = TraceStore::new(dir.clone(), None);
        let stats = store.ensure_open();
        assert_eq!(stats.rolled_forward, 1, "the store completes the rename");
        assert_eq!(stats.reaped_tmp, 0, "the logged tmp is not an orphan");
        assert_eq!(store.fetch(&meta.identity).expect("rolled forward"), body);
        assert!(!dir.join(&tmp).exists());
    }

    /// Byte-for-byte snapshot of every file in a directory — proves
    /// read-only mode touched nothing.
    fn dir_snapshot(dir: &Path) -> Vec<(String, Vec<u8>)> {
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
        files.sort_by(|a, b| a.0.cmp(&b.0));
        files
    }

    #[test]
    fn read_only_store_serves_lookups_and_counts_skips() {
        let dir = scratch("readonly");
        // Seed the directory with a writable store, fold everything
        // into checkpoint rows, and leave an orphan tmp file the
        // read-only open must *not* reap.
        let writer = TraceStore::new(dir.clone(), None);
        let (a, b) = (ident("a", 1), ident("b", 2));
        writer.insert(&a, 0xA, &payload(1, 300));
        writer.insert(&b, 0xB, &payload(2, 300));
        drop(writer);
        fs::write(dir.join("orphan.tmp"), b"dead writer").unwrap();
        let before = dir_snapshot(&dir);

        let store = TraceStore::new_read_only(dir.clone());
        assert!(store.is_read_only());
        assert_eq!(store.ensure_open().reaped_tmp, 0, "no reaping");
        assert_eq!(store.fetch(&a).expect("lookup served"), payload(1, 300));
        assert_eq!(store.fetch(&b).expect("lookup served"), payload(2, 300));

        // Stores and evictions degrade to counted skips, not failures.
        store.insert(&ident("c", 3), 0xC, &payload(3, 300));
        store.evict(&b);
        assert_eq!(store.health.readonly_skips.load(Ordering::Relaxed), 2);
        assert_eq!(store.health.store_failures.load(Ordering::Relaxed), 0);
        assert_eq!(store.health.evict_failures.load(Ordering::Relaxed), 0);
        assert!(store.fetch(&ident("c", 3)).is_none(), "nothing was stored");
        assert!(
            store.fetch(&b).is_none(),
            "the evicted row leaves the in-memory index"
        );
        store.checkpoint().expect("checkpoint no-ops cleanly");
        drop(store);

        assert_eq!(dir_snapshot(&dir), before, "no byte on disk changed");

        // The file b's eviction skipped is still served by a fresh open.
        let again = TraceStore::new_read_only(dir);
        assert_eq!(again.fetch(&b).expect("disk row intact"), payload(2, 300));
    }

    #[test]
    fn unwritable_directory_auto_degrades_to_read_only() {
        let dir = scratch("readonly-auto");
        let writer = TraceStore::new(dir.clone(), None);
        let id = ident("a", 1);
        writer.insert(&id, 0xA, &payload(1, 200));
        drop(writer);

        let mut perms = fs::metadata(&dir).unwrap().permissions();
        perms.set_readonly(true);
        fs::set_permissions(&dir, perms.clone()).unwrap();
        // Root ignores permission bits; only assert degradation when
        // the bit actually bites.
        let bit_bites = File::create(dir.join("probe-as-caller")).is_err();

        let store = TraceStore::new(dir.clone(), None);
        if bit_bites {
            assert!(store.is_read_only(), "unwritable directory must degrade");
            store.insert(&ident("b", 2), 0xB, &payload(2, 200));
            assert_eq!(store.health.readonly_skips.load(Ordering::Relaxed), 1);
            assert_eq!(store.health.store_failures.load(Ordering::Relaxed), 0);
        } else {
            assert!(!store.is_read_only(), "writable directory stays writable");
            let _ = fs::remove_file(dir.join("probe-as-caller"));
        }
        assert_eq!(store.fetch(&id).expect("lookups served"), payload(1, 200));
        drop(store);

        #[cfg(unix)]
        {
            use std::os::unix::fs::PermissionsExt;
            perms.set_mode(0o755);
        }
        #[cfg(not(unix))]
        perms.set_readonly(false);
        fs::set_permissions(&dir, perms).unwrap();
    }

    #[test]
    fn dangling_checkpoint_rows_are_dropped() {
        let dir = scratch("dangling");
        let store = TraceStore::new(dir.clone(), None);
        let id = ident("gz", 3);
        store.insert(&id, 3, &payload(3, 64));
        store.checkpoint().expect("checkpoint");
        drop(store);
        fs::remove_file(dir.join("gz-0000000000000003.dcgact")).unwrap();

        let store2 = TraceStore::new(dir, None);
        let stats = store2.ensure_open();
        assert_eq!(stats.dropped_corrupt, 1, "the dangling row is dropped");
        assert!(store2.fetch(&id).is_none());
    }

    #[test]
    fn the_first_insert_creates_and_locks_an_unborn_directory() {
        let dir = scratch("unborn");
        let first = TraceStore::new(dir.clone(), None);
        assert!(
            !first.is_read_only(),
            "a missing directory is not read-only"
        );
        assert!(!dir.exists(), "opening does not create the directory");
        first.insert(&ident("a", 1), 0xA, &payload(1, 64));
        let second = TraceStore::new(dir.clone(), None);
        assert!(second.is_read_only(), "the first insert took the lock");
        drop(first);
        let third = TraceStore::new(dir, None);
        assert!(!third.is_read_only(), "dropping the store releases it");
    }
}
