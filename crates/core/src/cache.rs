//! Content-addressed cache of recorded activity traces.
//!
//! Passive-policy experiments dominated by repeated simulations of the
//! same `(configuration, workload, seed, run length)` tuple — parameter
//! sweeps, figure regeneration, calibration probes — need the timing
//! simulation only **once**: the first run records its activity stream,
//! and later runs replay it at a fraction of the cost.
//!
//! [`TraceCache::run`] is the one resolver: a hit hands the caller's
//! run a validated [`CachedSource::Replay`], a miss hands it a live
//! [`CachedSource::Live`] that records itself and is committed after the
//! run returns, and a replay that fails mid-run evicts the entry and
//! counts the failure. [`run_cached_or_live`] is the one fail-open on
//! top of it: it re-runs a failed replay live with fresh state.
//!
//! The persistence layer underneath is [`crate::TraceStore`] — a
//! one-writer, one-log storage engine (DESIGN.md §14) that indexes
//! entries by their **full** `(config digest, name, seed, run length,
//! schema)` identity, recovers from interrupted stores on open, and
//! enforces an optional byte budget ([`TRACE_CACHE_BUDGET_ENV`]) by
//! evicting oldest-generation entries first. A second cache over a
//! directory another store holds serves lookups read-only.
//!
//! The 64-bit FNV content key still names entry *files* (it keeps file
//! names short and stable), but it is no longer the identity: two tuples
//! colliding on the key are stored under disambiguated names and both
//! stay warm. Stale entries are caught by the index's identity match;
//! truncated ones by the length check on every hit, and corrupt ones by
//! the trace's own trailer and block checksums as they decode — and all
//! are evicted, falling back to a live simulation. A cache hit can never
//! change results, only skip work.

use std::env::VarError;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once};

use dcg_sim::{Fnv1a, LatchGroups, Processor, SimConfig};
use dcg_trace::{
    ActivityHeader, ActivityTraceReader, ActivityTraceWriter, ACTIVITY_SCHEMA, ACTIVITY_VERSION,
};
use dcg_workloads::{BenchmarkProfile, InstStream, SyntheticWorkload};

use crate::error::DcgError;
use crate::policy::GatingPolicy;
use crate::runner::{run_passive_with_sinks, PassiveRun, RunLength};
use crate::source::{CachedSource, ReplaySource};
use crate::store::{EntryIdentity, RecoveryStats, StoreScan, TraceStore};

/// Environment variable controlling [`TraceCache::from_env`]: unset for
/// the default location, a path to relocate the cache, or `0`/`off`/
/// `none` to disable caching.
pub const TRACE_CACHE_ENV: &str = "DCG_TRACE_CACHE";

/// Environment variable bounding the store's on-disk size in bytes
/// (`k`/`m`/`g` suffixes accepted, e.g. `512m`). Unset or `0` means
/// unbounded. When the budget is exceeded, oldest-generation entries are
/// evicted first.
pub const TRACE_CACHE_BUDGET_ENV: &str = "DCG_TRACE_CACHE_BUDGET";

/// Process-wide aggregate counters (see [`CacheHealth::snapshot`]).
/// Per-instance attribution lives in [`crate::TraceStore`]'s own
/// counters; these aggregates exist only so the metrics JSON can report
/// whole-process cache health without threading instances around.
static STORE_FAILURES: AtomicU64 = AtomicU64::new(0);
static EVICT_FAILURES: AtomicU64 = AtomicU64::new(0);
static REPLAY_FAILURES: AtomicU64 = AtomicU64::new(0);
static KEY_COLLISIONS: AtomicU64 = AtomicU64::new(0);
static READONLY_SKIPS: AtomicU64 = AtomicU64::new(0);
/// Gate for the once-per-process store-failure warning.
static STORE_WARNING: Once = Once::new();
/// Gate for the once-per-process read-only degradation note.
static READONLY_NOTE: Once = Once::new();
/// Gate for the once-per-process evict-failure warning.
static EVICT_WARNING: Once = Once::new();
/// Gate for the once-per-process replay-failure warning.
static REPLAY_WARNING: Once = Once::new();
/// Gate for the once-per-process recovery-dropped-entries warning.
static RECOVERY_WARNING: Once = Once::new();
/// Gate for the once-per-process relocated-default diagnostic.
static RELOCATED_NOTE: Once = Once::new();

/// Snapshot of trace-cache I/O health.
///
/// Caching is an optimization, never a correctness dependency, so I/O
/// failures do not abort runs — but they must not be *silent* either: a
/// read-only or full `results/traces/` directory would otherwise quietly
/// re-simulate everything. The first failure of each kind warns on
/// stderr; all failures are counted.
///
/// Counters come in two scopes: [`TraceCache::health`] reads the
/// *instance* counters (race-free attribution for tests and the fault
/// campaign, which compare before/after deltas on one cache), while
/// [`CacheHealth::snapshot`] reads the process-wide aggregate (what the
/// metrics JSON reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheHealth {
    /// Cache stores that failed (directory creation, write, journal
    /// append, or rename).
    pub store_failures: u64,
    /// Invalid cache entries that could not be deleted.
    pub evict_failures: u64,
    /// Replay drives that failed mid-run on a validated entry (the entry
    /// is evicted and the caller re-simulates live).
    pub replay_failures: u64,
    /// Distinct tuples that collided on the 64-bit filename key and were
    /// stored under disambiguated names (both stay warm).
    pub key_collisions: u64,
    /// Stores/evictions skipped because another writer holds the store
    /// directory or it is not writable (read-only degradation: lookups
    /// still served — e.g. a second process on one store, or a CI
    /// artifact replayed from a read-only mount).
    pub readonly_skips: u64,
}

impl CacheHealth {
    /// The current process-wide aggregate counters. For per-instance
    /// attribution use [`TraceCache::health`].
    pub fn snapshot() -> CacheHealth {
        CacheHealth {
            store_failures: STORE_FAILURES.load(Ordering::Relaxed),
            evict_failures: EVICT_FAILURES.load(Ordering::Relaxed),
            replay_failures: REPLAY_FAILURES.load(Ordering::Relaxed),
            key_collisions: KEY_COLLISIONS.load(Ordering::Relaxed),
            readonly_skips: READONLY_SKIPS.load(Ordering::Relaxed),
        }
    }
}

pub(crate) fn note_store_failure(path: &Path, what: &str) {
    STORE_FAILURES.fetch_add(1, Ordering::Relaxed);
    STORE_WARNING.call_once(|| {
        eprintln!(
            "warning: trace cache store failed ({what}: {}); caching is \
             disabled in effect and every run will re-simulate \
             (further store failures are counted, not repeated here)",
            path.display()
        );
    });
}

fn note_replay_failure(path: &Path, err: &DcgError) {
    REPLAY_FAILURES.fetch_add(1, Ordering::Relaxed);
    REPLAY_WARNING.call_once(|| {
        eprintln!(
            "warning: cached activity trace {} failed mid-replay ({err}); \
             the entry is evicted and the run falls back to a live \
             simulation (further replay failures are counted, not \
             repeated here)",
            path.display()
        );
    });
}

pub(crate) fn note_evict_failure(path: &Path, err: &std::io::Error) {
    EVICT_FAILURES.fetch_add(1, Ordering::Relaxed);
    EVICT_WARNING.call_once(|| {
        eprintln!(
            "warning: could not delete invalid trace-cache entry {}: {err}; \
             the entry will be re-validated (and re-rejected) on every run \
             (further evict failures are counted, not repeated here)",
            path.display()
        );
    });
}

pub(crate) fn note_key_collision() {
    KEY_COLLISIONS.fetch_add(1, Ordering::Relaxed);
}

/// Called once per store open that degrades to read-only mode; `why`
/// says whether the directory is locked by another writer or is not
/// writable.
pub(crate) fn note_readonly(path: &Path, why: &str) {
    READONLY_NOTE.call_once(|| {
        eprintln!(
            "note: trace store {} {why}; degrading to a read-only store \
             (lookups served; stores and evictions are counted skips)",
            path.display()
        );
    });
}

pub(crate) fn note_readonly_skip() {
    READONLY_SKIPS.fetch_add(1, Ordering::Relaxed);
}

/// Called by the store after every open-time recovery sweep. Recovery
/// itself is normal operation (and silent); dropped *corrupt* entries
/// are a disk-health signal worth one warning per process.
pub(crate) fn note_recovery(stats: &RecoveryStats) {
    if stats.dropped_corrupt > 0 {
        RECOVERY_WARNING.call_once(|| {
            eprintln!(
                "warning: trace-store recovery dropped {} corrupt or \
                 dangling cache entr{}; the affected tuples will \
                 re-simulate live (further recovery drops are counted, \
                 not repeated here)",
                stats.dropped_corrupt,
                if stats.dropped_corrupt == 1 {
                    "y"
                } else {
                    "ies"
                }
            );
        });
    }
}

/// The default cache location. A checkout builds and runs from the
/// workspace, so the compile-time `CARGO_MANIFEST_DIR` root is honored
/// **only when it still exists**; a relocated or installed binary falls
/// back to `results/traces/` under the current working directory, with a
/// named diagnostic (`trace-cache-default-relocated`) so the surprise
/// location is traceable.
fn default_cache_dir() -> PathBuf {
    // crates/core/ -> workspace root.
    if let Some(root) = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2) {
        if root.is_dir() {
            return root.join("results").join("traces");
        }
    }
    RELOCATED_NOTE.call_once(|| {
        eprintln!(
            "note: trace-cache-default-relocated: the build-time workspace \
             root no longer exists; defaulting the trace cache to \
             ./results/traces relative to the current directory (set \
             {TRACE_CACHE_ENV} to choose a location)"
        );
    });
    PathBuf::from("results").join("traces")
}

/// Parse a [`TRACE_CACHE_BUDGET_ENV`] value: a byte count with an
/// optional `k`/`m`/`g` (binary) suffix. `0` disables the bound.
/// `None` means unparseable.
fn parse_budget(v: &str) -> Option<Option<u64>> {
    let v = v.trim();
    if v.is_empty() {
        return Some(None);
    }
    let (digits, mult) = match v.as_bytes().last()? {
        b'k' | b'K' => (&v[..v.len() - 1], 1u64 << 10),
        b'm' | b'M' => (&v[..v.len() - 1], 1u64 << 20),
        b'g' | b'G' => (&v[..v.len() - 1], 1u64 << 30),
        _ => (v, 1),
    };
    let n: u64 = digits.trim().parse().ok()?;
    let bytes = n.checked_mul(mult)?;
    Some(if bytes == 0 { None } else { Some(bytes) })
}

/// The byte budget from [`TRACE_CACHE_BUDGET_ENV`]; malformed values are
/// diagnosed and treated as unbounded (caching stays on — a bad bound
/// must not silently discard the cache).
fn budget_from_env() -> Option<u64> {
    match std::env::var(TRACE_CACHE_BUDGET_ENV) {
        Ok(v) => match parse_budget(&v) {
            Some(b) => b,
            None => {
                eprintln!(
                    "warning: {TRACE_CACHE_BUDGET_ENV}={v:?} is not a byte \
                     count (digits with optional k/m/g suffix); the trace \
                     cache runs unbounded"
                );
                None
            }
        },
        Err(_) => None,
    }
}

/// A store of recorded activity traces, addressed by content identity.
///
/// Cheap to clone (the underlying [`crate::TraceStore`] is shared) and
/// safe to share across threads — the experiment suite drives one cache
/// from all of its workers.
#[derive(Debug, Clone)]
pub struct TraceCache {
    store: Arc<TraceStore>,
}

impl TraceCache {
    /// A cache rooted at `dir` (created lazily on first store; the
    /// recovery sweep runs on first use).
    pub fn new(dir: PathBuf) -> TraceCache {
        TraceCache {
            store: Arc::new(TraceStore::new(dir, None)),
        }
    }

    /// This cache with an on-disk byte budget (`None` = unbounded);
    /// oldest-generation entries evict first once the budget is
    /// exceeded.
    #[must_use]
    pub fn with_budget(self, budget: Option<u64>) -> TraceCache {
        TraceCache {
            store: Arc::new(TraceStore::new(self.store.dir().to_path_buf(), budget)),
        }
    }

    /// The cache honoring [`TRACE_CACHE_ENV`] (location) and
    /// [`TRACE_CACHE_BUDGET_ENV`] (size bound); defaults to
    /// `results/traces/` at the workspace root when it exists, else
    /// under the current directory. Returns `None` when caching is
    /// disabled — explicitly (`0`/`off`/`none`/empty) or because the
    /// variable is malformed, which is diagnosed on stderr rather than
    /// silently running uncached.
    pub fn from_env() -> Option<TraceCache> {
        Self::from_env_value(std::env::var(TRACE_CACHE_ENV))
            .map(|c| c.with_budget(budget_from_env()))
    }

    /// [`TraceCache::from_env`] with the variable lookup factored out so
    /// tests can exercise every branch without mutating process state.
    fn from_env_value(value: Result<String, VarError>) -> Option<TraceCache> {
        match value {
            Ok(v) if matches!(v.as_str(), "0" | "off" | "none" | "") => None,
            Ok(v) => Some(TraceCache::new(PathBuf::from(v))),
            Err(VarError::NotPresent) => Some(TraceCache::new(default_cache_dir())),
            Err(VarError::NotUnicode(raw)) => {
                eprintln!(
                    "warning: {TRACE_CACHE_ENV} is set but not valid \
                     unicode ({raw:?}); trace caching is disabled for this \
                     run — unset it or set a valid path"
                );
                None
            }
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// The underlying storage engine (recovery, verification,
    /// checkpoints).
    pub fn store(&self) -> &TraceStore {
        &self.store
    }

    /// This instance's health counters (race-free attribution even when
    /// other caches are active in the process). The process-wide
    /// aggregate is [`CacheHealth::snapshot`].
    pub fn health(&self) -> CacheHealth {
        let h = &self.store.health;
        CacheHealth {
            store_failures: h.store_failures.load(Ordering::Relaxed),
            evict_failures: h.evict_failures.load(Ordering::Relaxed),
            replay_failures: h.replay_failures.load(Ordering::Relaxed),
            key_collisions: h.key_collisions.load(Ordering::Relaxed),
            readonly_skips: h.readonly_skips.load(Ordering::Relaxed),
        }
    }

    /// Force the lazy open (and its recovery sweep) now; returns what
    /// the sweep did.
    pub fn ensure_open(&self) -> RecoveryStats {
        self.store.ensure_open()
    }

    /// Fold the log's appended records into fresh checkpoint rows now.
    ///
    /// # Errors
    ///
    /// Fails if the log rewrite fails; entries themselves are unaffected
    /// (the next open recovers them from the previous log or the
    /// directory scan).
    pub fn checkpoint(&self) -> Result<(), DcgError> {
        self.store.checkpoint().map_err(DcgError::from)
    }

    /// Deep scan: verify every tracked entry's payload checksum,
    /// evicting failures (see [`TraceStore::verify_all`]).
    ///
    /// [`TraceStore::verify_all`]: crate::store::TraceStore::verify_all
    pub fn verify_all(&self) -> StoreScan {
        self.store.verify_all()
    }

    /// Content key for one `(config, workload, seed, length)` tuple.
    ///
    /// The key names entry *files*; identity is the full tuple (the
    /// store disambiguates key collisions between distinct tuples).
    pub fn key(config: &SimConfig, name: &str, seed: u64, length: RunLength) -> u64 {
        let mut h = Fnv1a::new();
        h.write(&config.digest().to_le_bytes());
        h.write(name.as_bytes());
        h.write(&[0]); // name terminator
        h.write(&seed.to_le_bytes());
        h.write(&length.warmup_insts.to_le_bytes());
        h.write(&length.measure_insts.to_le_bytes());
        h.write(&ACTIVITY_SCHEMA.to_le_bytes());
        h.write(&ACTIVITY_VERSION.to_le_bytes());
        h.finish()
    }

    /// The store identity for one tuple.
    fn identity(config: &SimConfig, name: &str, seed: u64, length: RunLength) -> EntryIdentity {
        EntryIdentity::current(
            config.digest(),
            name,
            seed,
            length.warmup_insts,
            length.measure_insts,
        )
    }

    /// The on-disk path the entry for one `(config, workload, seed,
    /// length)` tuple occupies — whether or not it exists yet. The
    /// fault-injection campaign uses this to corrupt stored entries at
    /// seeded offsets and verify the validation layer rejects them.
    pub fn entry_path_for(
        &self,
        config: &SimConfig,
        name: &str,
        seed: u64,
        length: RunLength,
    ) -> PathBuf {
        self.store.entry_path(
            &Self::identity(config, name, seed, length),
            Self::key(config, name, seed, length),
        )
    }

    /// Open a validated replay source for the tuple, or `None` on a cache
    /// miss. The store's index answers the identity match before any
    /// file I/O; the hit is opened zero-copy (`mmap(2)` where available,
    /// no whole-payload scan — see [`TraceStore::fetch_data`]) and the
    /// header identity fields are re-checked as defense in depth.
    /// Invalid entries are evicted.
    ///
    /// [`TraceStore::fetch_data`]: crate::store::TraceStore::fetch_data
    pub fn replay_source(
        &self,
        config: &SimConfig,
        name: &str,
        seed: u64,
        length: RunLength,
    ) -> Option<ReplaySource> {
        let identity = Self::identity(config, name, seed, length);
        let data = self.store.fetch_data(&identity)?;
        match Self::validate_entry(config, name, seed, length, data) {
            Ok(reader) => Some(ReplaySource::new(reader)),
            Err(()) => {
                self.store.evict(&identity);
                None
            }
        }
    }

    fn validate_entry(
        config: &SimConfig,
        name: &str,
        seed: u64,
        length: RunLength,
        data: dcg_trace::TraceData,
    ) -> Result<ActivityTraceReader, ()> {
        let reader = ActivityTraceReader::from_data(data).map_err(|_| ())?;
        let h = reader.header();
        let groups = LatchGroups::new(&config.depth).len() as u32;
        let identity_ok = h.config_digest == config.digest()
            && h.seed == seed
            && h.name == name
            && h.warmup_insts == length.warmup_insts
            && h.measure_insts == length.measure_insts
            && h.groups == groups;
        if !identity_ok {
            return Err(());
        }
        let (_cycles, committed) = reader.verified_totals().ok_or(())?;
        if committed < length.warmup_insts + length.measure_insts {
            return Err(());
        }
        Ok(reader)
    }

    /// Resolve the tuple once and hand `f` the source to run on.
    ///
    /// * **Hit:** `f` gets a validated [`CachedSource::Replay`]. If `f`
    ///   fails (the entry still failed mid-replay), the entry is evicted,
    ///   the failure is counted in [`CacheHealth::replay_failures`] and
    ///   the error is returned.
    /// * **Miss:** `f` gets a [`CachedSource::Live`] simulation of
    ///   `make_stream()` that records itself; once `f` returns `Ok`, the
    ///   recording is committed to the store (store failures are
    ///   counted, never fatal).
    ///
    /// Results are bit-identical either way. Callers must keep `(name,
    /// seed)` → stream bijective: kernel names are distinct from every
    /// SPEC profile name, so the two workload families never collide.
    ///
    /// # Errors
    ///
    /// Whatever `f` returns — on a hit, a replay failure, after which the
    /// caller must retry with **fresh** policies and sinks (the failed run
    /// fed them part of a stream). [`run_cached_or_live`] does exactly that.
    pub fn run<S: InstStream, T>(
        &self,
        config: &SimConfig,
        name: &str,
        seed: u64,
        length: RunLength,
        make_stream: impl FnOnce() -> S,
        f: impl FnOnce(&mut CachedSource<S>) -> Result<T, DcgError>,
    ) -> Result<T, DcgError> {
        let identity = Self::identity(config, name, seed, length);
        let key = Self::key(config, name, seed, length);
        if let Some(replay) = self.replay_source(config, name, seed, length) {
            return f(&mut CachedSource::Replay(replay)).inspect_err(|e| {
                self.store
                    .health
                    .replay_failures
                    .fetch_add(1, Ordering::Relaxed);
                note_replay_failure(&self.store.entry_path(&identity, key), e);
                self.store.evict(&identity);
            });
        }

        let cpu = Box::new(Processor::new(config.clone(), make_stream()));
        let header = ActivityHeader::new(
            name,
            config.digest(),
            seed,
            length.warmup_insts,
            length.measure_insts,
            cpu.latch_groups().len(),
        )
        .expect("activity header for a valid workload name");
        let writer = ActivityTraceWriter::new(Vec::new(), &header).expect("in-memory header write");
        let mut source = CachedSource::Live(cpu, Some(writer));
        let out = f(&mut source)?;
        if let CachedSource::Live(_, Some(writer)) = source {
            if let Ok(bytes) = writer.finish() {
                self.store.insert(&identity, key, &bytes);
            }
        }
        Ok(out)
    }

    /// [`crate::run_passive`] with transparent caching: replay the
    /// recorded activity on a hit; simulate live and record on a miss.
    /// Results are bit-identical either way.
    ///
    /// # Errors
    ///
    /// As [`TraceCache::run`]: a validated entry that still fails
    /// mid-replay is evicted, counted and returned as the error.
    ///
    /// # Panics
    ///
    /// As [`crate::run_passive`].
    pub fn run_passive_cached(
        &self,
        config: &SimConfig,
        profile: BenchmarkProfile,
        seed: u64,
        length: RunLength,
        policies: &mut [&mut dyn GatingPolicy],
    ) -> Result<PassiveRun, DcgError> {
        self.run(
            config,
            profile.name,
            seed,
            length,
            || SyntheticWorkload::new(profile, seed),
            |source| run_passive_with_sinks(config, source, length, policies, &mut []),
        )
    }
}

/// Run `f` on the tuple's cached activity when `cache` is given (see
/// [`TraceCache::run`]), failing open to a live simulation.
///
/// When a cached replay fails mid-run, the cache has already evicted the
/// entry and counted the failure; this warns on stderr and calls `f`
/// again on a fresh, non-recording live source. `f` is `Fn`, so it
/// cannot mutate captured policies or sinks: it builds its own on every
/// call, and the retry never reuses state that saw part of a stream.
/// With `cache == None` the run is live and never touches the disk.
///
/// # Panics
///
/// Panics if `f` fails on a live source (live simulations are
/// infallible, so only `f` itself can fail there).
pub fn run_cached_or_live<S: InstStream, T>(
    cache: Option<&TraceCache>,
    config: &SimConfig,
    name: &str,
    seed: u64,
    length: RunLength,
    make_stream: impl Fn() -> S,
    f: impl Fn(&mut CachedSource<S>) -> Result<T, DcgError>,
) -> T {
    if let Some(cache) = cache {
        match cache.run(config, name, seed, length, &make_stream, &f) {
            Ok(out) => return out,
            Err(e) => eprintln!("warning: {name}: cached replay failed ({e}); re-simulating live"),
        }
    }
    let cpu = Processor::new(config.clone(), make_stream());
    f(&mut CachedSource::Live(Box::new(cpu), None)).expect("a live simulation source cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_passive_metered, ActivitySource, Dcg, MetricsReport, NoGating};
    use dcg_power::Component;
    use dcg_workloads::Spec2000;
    use std::fs;

    fn scratch(tag: &str) -> TraceCache {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap()
            .join("target")
            .join("tmp")
            .join(format!("trace-cache-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        TraceCache::new(dir)
    }

    fn short() -> RunLength {
        RunLength {
            warmup_insts: 500,
            measure_insts: 2_000,
        }
    }

    fn report_bits(run: &PassiveRun) -> Vec<(u64, u64, Vec<u64>)> {
        run.outcomes
            .iter()
            .map(|o| {
                (
                    o.report.cycles(),
                    o.report.committed(),
                    Component::ALL
                        .iter()
                        .map(|c| o.report.component_pj(*c).to_bits())
                        .collect(),
                )
            })
            .collect()
    }

    /// Baseline + DCG with DCG metered over `source`, built fresh per
    /// call, as the suite's passive pass does. The metrics report
    /// accumulates over every cycle it sees, so a fold that saw part of
    /// a failed replay would not match a clean run.
    fn passive(
        cfg: &SimConfig,
        source: &mut dyn ActivitySource,
    ) -> Result<(PassiveRun, MetricsReport), DcgError> {
        let groups = LatchGroups::new(&cfg.depth);
        let mut base = NoGating::new(cfg, &groups);
        let mut dcg = Dcg::new(cfg, &groups);
        let policies: &mut [&mut dyn GatingPolicy] = &mut [&mut base, &mut dcg];
        run_passive_metered(cfg, source, short(), policies, 1, &mut [])
    }

    /// Record gzip at `seed` through a miss, then flip one byte of the
    /// last block's payload. The row keeps its length and the subheader
    /// chain and trailer are intact, so the entry still validates; the
    /// block checksum fails only when a replay reaches that block.
    fn entry_failing_mid_replay(
        cache: &TraceCache,
        cfg: &SimConfig,
        seed: u64,
    ) -> (PassiveRun, MetricsReport) {
        let profile = Spec2000::by_name("gzip").unwrap();
        let stream = || SyntheticWorkload::new(profile, seed);
        let clean = cache
            .run(cfg, "gzip", seed, short(), stream, |src| passive(cfg, src))
            .expect("a miss simulates live");
        const TRAILER_LEN: usize = 40;
        let path = cache.entry_path_for(cfg, "gzip", seed, short());
        let mut bytes = fs::read(&path).expect("the miss committed an entry");
        let at = bytes.len() - TRAILER_LEN - 1;
        bytes[at] ^= 0x5a;
        fs::write(&path, &bytes).unwrap();
        assert!(
            cache.replay_source(cfg, "gzip", seed, short()).is_some(),
            "the rewritten entry must still pass validation"
        );
        clean
    }

    #[test]
    fn miss_records_then_hit_replays_identically() {
        let cache = scratch("roundtrip");
        let cfg = SimConfig::baseline_8wide();
        let profile = Spec2000::by_name("gzip").unwrap();
        let stream = || SyntheticWorkload::new(profile, 9);
        let resolve = |src: &mut CachedSource<SyntheticWorkload>| {
            let hit = matches!(src, CachedSource::Replay(_));
            passive(&cfg, src).map(|(run, _)| (hit, run))
        };

        let (hit, cold) = cache
            .run(&cfg, profile.name, 9, short(), stream, resolve)
            .expect("cold run");
        assert!(!hit, "an empty cache misses");
        assert!(
            cache
                .replay_source(&cfg, profile.name, 9, short())
                .is_some(),
            "the miss must commit its recording"
        );

        let (hit, warm) = cache
            .run(&cfg, profile.name, 9, short(), stream, resolve)
            .expect("warm run");
        assert!(hit, "the committed recording serves the next run");
        assert_eq!(report_bits(&cold), report_bits(&warm));
        assert_eq!(cold.stats.cycles, warm.stats.cycles);
        assert_eq!(cold.stats.mispredicts, warm.stats.mispredicts);
        assert_eq!(
            cold.outcomes[1].audit, warm.outcomes[1].audit,
            "audit must replay bit-identically"
        );
        assert_eq!(cache.health(), CacheHealth::default());
    }

    #[test]
    fn failed_replay_evicts_counts_and_returns_the_error() {
        let cache = scratch("replay-fails");
        let cfg = SimConfig::baseline_8wide();
        entry_failing_mid_replay(&cache, &cfg, 13);
        let path = cache.entry_path_for(&cfg, "gzip", 13, short());
        let before = cache.health();

        let profile = Spec2000::by_name("gzip").unwrap();
        let err = cache
            .run(
                &cfg,
                "gzip",
                13,
                short(),
                || SyntheticWorkload::new(profile, 13),
                |src| passive(&cfg, src),
            )
            .expect_err("a corrupt block must fail the replay");
        assert!(
            matches!(err, DcgError::ReplayCorrupt { .. }),
            "unexpected error: {err}"
        );
        assert_eq!(
            cache.health(),
            CacheHealth {
                replay_failures: before.replay_failures + 1,
                ..before
            },
            "exactly one replay failure is counted"
        );
        assert!(!path.exists(), "the failing entry is evicted");
        assert!(cache.replay_source(&cfg, "gzip", 13, short()).is_none());
    }

    #[test]
    fn run_cached_or_live_retries_live_with_fresh_policies() {
        let cache = scratch("fail-open");
        let cfg = SimConfig::baseline_8wide();
        let clean = entry_failing_mid_replay(&cache, &cfg, 17);
        let profile = Spec2000::by_name("gzip").unwrap();
        let stream = || SyntheticWorkload::new(profile, 17);
        // Which source each call of the closure saw: the failed replay,
        // then one live retry that records nothing.
        let seen = std::cell::RefCell::new(Vec::new());
        let resolve = |src: &mut CachedSource<SyntheticWorkload>| {
            seen.borrow_mut().push(match src {
                CachedSource::Replay(_) => "replay",
                CachedSource::Live(_, Some(_)) => "recording",
                CachedSource::Live(_, None) => "live",
            });
            passive(&cfg, src)
        };

        let retried = run_cached_or_live(Some(&cache), &cfg, "gzip", 17, short(), stream, resolve);
        assert_eq!(*seen.borrow(), ["replay", "live"]);
        assert_eq!(
            report_bits(&retried.0),
            report_bits(&clean.0),
            "the live retry must reproduce the clean run bit for bit"
        );
        assert_eq!(
            format!("{:?}", retried.0.stats),
            format!("{:?}", clean.0.stats)
        );
        assert_eq!(retried.1, clean.1, "the retry's sinks start fresh");
        assert_eq!(cache.health().replay_failures, 1);

        // Without a cache the run is live and records nothing: the
        // evicted tuple stays absent.
        seen.borrow_mut().clear();
        let live = run_cached_or_live(None, &cfg, "gzip", 17, short(), stream, resolve);
        assert_eq!(*seen.borrow(), ["live"]);
        assert_eq!(report_bits(&live.0), report_bits(&clean.0));
        assert_eq!(live.1, clean.1);
        assert!(cache.replay_source(&cfg, "gzip", 17, short()).is_none());
    }

    #[test]
    fn key_separates_config_seed_and_length() {
        let cfg = SimConfig::baseline_8wide();
        let deep = SimConfig::deep_pipeline_20();
        let k = TraceCache::key(&cfg, "gzip", 1, short());
        assert_ne!(k, TraceCache::key(&deep, "gzip", 1, short()));
        assert_ne!(k, TraceCache::key(&cfg, "mcf", 1, short()));
        assert_ne!(k, TraceCache::key(&cfg, "gzip", 2, short()));
        assert_ne!(k, TraceCache::key(&cfg, "gzip", 1, RunLength::quick()));
    }

    #[test]
    fn unwritable_cache_dir_counts_store_failures_and_still_runs() {
        // Root a cache *under a regular file* so `create_dir_all` fails
        // even when the tests run as root (permission bits would not).
        let scratch_dir = scratch("unwritable").dir().to_path_buf();
        fs::create_dir_all(&scratch_dir).unwrap();
        let blocker = scratch_dir.join("blocker");
        fs::write(&blocker, b"not a directory").unwrap();
        let cache = TraceCache::new(blocker.join("cache"));

        let cfg = SimConfig::baseline_8wide();
        let groups = LatchGroups::new(&cfg.depth);
        let profile = Spec2000::by_name("gzip").unwrap();
        let before = CacheHealth::snapshot().store_failures;
        assert_eq!(cache.health(), CacheHealth::default());

        let mut base = NoGating::new(&cfg, &groups);
        let run = cache
            .run_passive_cached(&cfg, profile, 3, short(), &mut [&mut base])
            .expect("uncached run");
        assert!(run.stats.cycles > 0, "the run itself must still succeed");
        assert!(
            CacheHealth::snapshot().store_failures > before,
            "a failed store must be counted, not swallowed"
        );
        assert!(
            cache.health().store_failures > 0,
            "the instance counters attribute the failure to this cache"
        );
        assert!(
            cache
                .replay_source(&cfg, profile.name, 3, short())
                .is_none(),
            "nothing can have been cached"
        );
    }

    #[test]
    fn from_env_value_covers_disable_path_and_malformed() {
        assert!(
            TraceCache::from_env_value(Err(VarError::NotPresent)).is_some(),
            "unset variable selects the default location"
        );
        for tok in ["0", "off", "none", ""] {
            assert!(
                TraceCache::from_env_value(Ok(tok.to_string())).is_none(),
                "{tok:?} disables caching"
            );
        }
        let custom = TraceCache::from_env_value(Ok("/tmp/custom-traces".to_string())).unwrap();
        assert_eq!(custom.dir(), Path::new("/tmp/custom-traces"));
        #[cfg(unix)]
        {
            use std::os::unix::ffi::OsStringExt;
            let raw = std::ffi::OsString::from_vec(vec![0x2f, 0x74, 0x6d, 0x70, 0x80]);
            assert!(
                TraceCache::from_env_value(Err(VarError::NotUnicode(raw))).is_none(),
                "a malformed value disables caching (with a diagnostic)"
            );
        }
    }

    #[test]
    fn budget_parsing_accepts_suffixes_and_rejects_garbage() {
        assert_eq!(parse_budget("1024"), Some(Some(1024)));
        assert_eq!(parse_budget("4k"), Some(Some(4 << 10)));
        assert_eq!(parse_budget("512M"), Some(Some(512 << 20)));
        assert_eq!(parse_budget("2g"), Some(Some(2 << 30)));
        assert_eq!(parse_budget("0"), Some(None), "0 means unbounded");
        assert_eq!(parse_budget(""), Some(None));
        assert_eq!(parse_budget("lots"), None);
        assert_eq!(parse_budget("-5"), None);
        assert_eq!(parse_budget("1t"), None, "unknown suffix is rejected");
        let bounded = scratch("budget-knob").with_budget(Some(4096));
        assert_eq!(bounded.store().budget(), Some(4096));
    }

    #[test]
    fn corrupt_entry_falls_back_to_live() {
        let cache = scratch("corrupt");
        let cfg = SimConfig::baseline_8wide();
        let groups = LatchGroups::new(&cfg.depth);
        let profile = Spec2000::by_name("gzip").unwrap();

        let mut base = NoGating::new(&cfg, &groups);
        let clean = cache
            .run_passive_cached(&cfg, profile, 5, short(), &mut [&mut base])
            .expect("clean run");

        // Truncate the entry: the checksum verification must reject and
        // evict it, and the next cached run must still produce the same
        // result.
        let path = cache.entry_path_for(&cfg, profile.name, 5, short());
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        assert!(cache
            .replay_source(&cfg, profile.name, 5, short())
            .is_none());
        assert!(!path.exists(), "invalid entries are deleted");

        let mut base2 = NoGating::new(&cfg, &groups);
        let relive = cache
            .run_passive_cached(&cfg, profile, 5, short(), &mut [&mut base2])
            .expect("fallback run");
        assert_eq!(report_bits(&clean), report_bits(&relive));
    }

    #[test]
    fn warm_entries_survive_a_reopen() {
        let cache = scratch("survive-reopen");
        let dir = cache.dir().to_path_buf();
        let cfg = SimConfig::baseline_8wide();
        let groups = LatchGroups::new(&cfg.depth);
        let profile = Spec2000::by_name("gzip").unwrap();

        let mut base = NoGating::new(&cfg, &groups);
        let cold = cache
            .run_passive_cached(&cfg, profile, 11, short(), &mut [&mut base])
            .expect("cold run");
        cache.checkpoint().expect("checkpoint");
        drop(cache);

        // A brand-new cache instance (fresh process, in effect) must
        // reopen without losses and serve the same tuple warm through
        // the log's checkpoint rows, bit-identical.
        let cache2 = TraceCache::new(dir);
        assert_eq!(
            cache2.ensure_open().dropped_corrupt,
            0,
            "a clean checkpointed store reopens without dropping rows"
        );
        assert!(
            cache2
                .replay_source(&cfg, profile.name, 11, short())
                .is_some(),
            "the checkpointed entry survives a reopen"
        );
        let mut base2 = NoGating::new(&cfg, &groups);
        let warm = cache2
            .run_passive_cached(&cfg, profile, 11, short(), &mut [&mut base2])
            .expect("warm run after reopen");
        assert_eq!(report_bits(&cold), report_bits(&warm));
        let scan = cache2.verify_all();
        assert_eq!(scan.invalid, 0);
        assert!(scan.valid >= 1);
    }
}
