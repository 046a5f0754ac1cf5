//! Deterministic fault-injection campaign for the gating-safety
//! subsystem (DESIGN.md §11).
//!
//! [`FaultCampaign::run`] expands one `u64` seed (`DCG_FAULT_SEED`) into
//! a [`FaultPlan`] covering every named [`FaultPoint`], injects each
//! fault into a short gzip run, and classifies what the system did about
//! it:
//!
//! * **detected** — the fault surfaced through a structured channel: a
//!   safety [`Hazard`](dcg_core::Hazard), a named
//!   [`DcgError`](dcg_core::DcgError), or a caught panic.
//! * **masked** — the fault changed behaviour but a fail-open path
//!   absorbed it (live re-simulation after an evicted cache entry, a
//!   counted store failure, conservative fail-open power) and the run
//!   completed without violating the gating invariant.
//! * **tolerated** — the fault had no observable effect at all: results
//!   are bit-identical to the clean reference.
//! * **undetected** — the fault changed results *silently*. This is the
//!   failure mode the campaign exists to rule out;
//!   [`FaultCampaign::all_classified`] is `false` if any fault lands
//!   here.
//!
//! The same seed always reproduces the same campaign, fault for fault.

use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use dcg_core::{
    panic_message, run_passive, run_passive_with_sinks, ActivitySink, Dcg, FaultPlan, FaultPoint,
    FaultSpec, FaultyPolicy, PanicSink, PolicyOutcome, ReplaySource, RunLength, TraceCache,
    JOURNAL_FILE, LOG_HEADER_LEN,
};
use dcg_power::Component;
use dcg_sim::{LatchGroups, Processor, SimConfig};
use dcg_testkit::env_u64;
use dcg_testkit::json::Json;
use dcg_testkit::rng::SmallRng;
use dcg_trace::ActivityTraceReader;
use dcg_workloads::{BenchmarkProfile, Spec2000, SyntheticWorkload};

/// Environment variable seeding the fault campaign (decimal or 0x-hex).
pub const FAULT_SEED_ENV: &str = "DCG_FAULT_SEED";

/// The campaign seed: `DCG_FAULT_SEED` when set, otherwise a fixed
/// default (campaigns are deterministic either way; the variable exists
/// to *replay* a reported campaign).
pub fn fault_seed_from_env() -> u64 {
    env_u64(FAULT_SEED_ENV).unwrap_or(0xDC60_5EED)
}

/// Workload seed for every campaign run (the suite default).
const WORKLOAD_SEED: u64 = 42;

/// Campaign run length: long enough that every seeded fault window (see
/// [`dcg_core::FaultWindow`]) lands inside the simulated cycles, short
/// enough that a 32-fault campaign stays a smoke test.
fn campaign_length() -> RunLength {
    RunLength {
        warmup_insts: 500,
        measure_insts: 2_000,
    }
}

/// How the system handled one injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Surfaced through a structured channel (hazard, error, panic).
    Detected,
    /// Absorbed by a fail-open path; the run completed correctly.
    Masked,
    /// No observable effect; results bit-identical to clean.
    Tolerated,
    /// Changed results silently — a campaign failure.
    Undetected,
}

impl FaultClass {
    /// Stable label (used in the campaign JSON).
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::Detected => "detected",
            FaultClass::Masked => "masked",
            FaultClass::Tolerated => "tolerated",
            FaultClass::Undetected => "undetected",
        }
    }
}

/// One injected fault and its classification.
#[derive(Debug, Clone)]
pub struct FaultOutcome {
    /// The planned fault (id, point, sub-seed).
    pub spec: FaultSpec,
    /// How the system handled it.
    pub class: FaultClass,
    /// Deterministic human-readable evidence for the classification.
    pub detail: String,
}

/// A completed fault campaign.
#[derive(Debug)]
pub struct FaultCampaign {
    /// The seed the campaign (and its [`FaultPlan`]) was expanded from.
    pub seed: u64,
    /// One outcome per planned fault, in plan order.
    pub outcomes: Vec<FaultOutcome>,
}

impl FaultCampaign {
    /// Run an `n`-fault campaign from `seed`. Deterministic: the same
    /// `(seed, n)` reproduces the same outcomes, detail strings included.
    pub fn run(seed: u64, n: u32) -> FaultCampaign {
        let plan = FaultPlan::generate(seed, n);
        let ctx = Context::new(seed);
        // Each injection is hermetic (its own scratch cache directory,
        // keyed by fault id), so the campaign shards across
        // DCG_SWEEP_THREADS workers; outcomes assemble in plan order,
        // keeping the campaign JSON byte-identical for any worker count.
        let outcomes = dcg_core::run_sharded(plan.faults.len(), |i| ctx.inject(plan.faults[i]));
        FaultCampaign { seed, outcomes }
    }

    /// `true` when no fault was classified [`FaultClass::Undetected`] —
    /// the campaign's pass criterion.
    pub fn all_classified(&self) -> bool {
        self.count(FaultClass::Undetected) == 0
    }

    /// Number of outcomes with the given classification.
    pub fn count(&self, class: FaultClass) -> usize {
        self.outcomes.iter().filter(|o| o.class == class).count()
    }
}

/// Shared campaign state: configuration, scratch space and the clean
/// (fault-free) reference every injected run is compared against.
struct Context {
    cfg: SimConfig,
    profile: BenchmarkProfile,
    length: RunLength,
    scratch: PathBuf,
    clean_bits: Vec<u64>,
}

/// Every number a [`PolicyOutcome`] accumulates, by bit pattern — the
/// campaign's notion of "the run produced the same results".
fn outcome_bits(o: &PolicyOutcome) -> Vec<u64> {
    let mut v = vec![o.report.cycles(), o.report.committed()];
    v.extend(
        Component::ALL
            .iter()
            .map(|c| o.report.component_pj(*c).to_bits()),
    );
    v.push(o.audit.idle_enabled_unit_cycles);
    v
}

impl Context {
    fn new(seed: u64) -> Context {
        let cfg = SimConfig::baseline_8wide();
        let profile = Spec2000::by_name("gzip").expect("known benchmark");
        let length = campaign_length();
        let scratch = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .join("target")
            .join("tmp")
            .join(format!("fault-campaign-{seed:016x}"));
        let _ = fs::remove_dir_all(&scratch);
        let clean = Self::dcg_run(&cfg, profile, length);
        Context {
            cfg,
            profile,
            length,
            scratch,
            clean_bits: outcome_bits(&clean),
        }
    }

    /// One live run of plain DCG at the campaign length.
    fn dcg_run(cfg: &SimConfig, profile: BenchmarkProfile, length: RunLength) -> PolicyOutcome {
        let groups = LatchGroups::new(&cfg.depth);
        let mut dcg = Dcg::new(cfg, &groups);
        let mut run = run_passive(
            cfg,
            SyntheticWorkload::new(profile, WORKLOAD_SEED),
            length,
            &mut [&mut dcg],
        );
        run.outcomes.remove(0)
    }

    /// A scratch trace cache private to one fault.
    fn fault_cache(&self, spec: FaultSpec) -> TraceCache {
        TraceCache::new(self.scratch.join(format!("fault-{}", spec.id)))
    }

    /// Record one cache entry at `length` and return its file path and
    /// bytes (cold cached run; the entry is the recording).
    fn recorded_entry(&self, cache: &TraceCache, length: RunLength) -> (PathBuf, Vec<u8>) {
        let groups = LatchGroups::new(&self.cfg.depth);
        let mut dcg = Dcg::new(&self.cfg, &groups);
        cache
            .run_passive_cached(
                &self.cfg,
                self.profile,
                WORKLOAD_SEED,
                length,
                &mut [&mut dcg],
            )
            .expect("a cold cached run simulates live and cannot fail");
        let path = cache.entry_path_for(&self.cfg, self.profile.name, WORKLOAD_SEED, length);
        let bytes = fs::read(&path).expect("the cold run stored an entry");
        (path, bytes)
    }

    /// Flip one seeded bit inside the record region of an entry (the
    /// region the trailer checksum covers — never the header, whose
    /// fields have their own identity checks).
    fn flip_record_bit(bytes: &mut [u8], seed: u64) -> String {
        const TRAILER_LEN: usize = 40;
        let mut rng = SmallRng::seed_from_u64(seed);
        let records_end = bytes.len() - TRAILER_LEN;
        let span = records_end.min(1_024) as u64;
        let at = records_end - 1 - rng.gen_range(0u64..span) as usize;
        let bit = rng.gen_range(0u32..8);
        bytes[at] ^= 1 << bit;
        format!("bit {bit} of byte {at}")
    }

    fn inject(&self, spec: FaultSpec) -> FaultOutcome {
        let (class, detail) = match spec.point {
            p if p.is_gate_level() => self.inject_gate(spec),
            FaultPoint::TraceCorrupt => self.inject_trace_corrupt(spec),
            FaultPoint::TraceTruncate => self.inject_trace_truncate(spec),
            FaultPoint::CacheStoreIo => self.inject_cache_store_io(spec),
            FaultPoint::CacheLoadCorrupt => self.inject_cache_load_corrupt(spec),
            FaultPoint::SinkPanic => self.inject_sink_panic(spec),
            FaultPoint::CheckpointTorn => self.inject_checkpoint_torn(spec),
            FaultPoint::JournalTruncate => self.inject_journal_truncate(spec),
            FaultPoint::StoreOrphanTmp => self.inject_store_orphan_tmp(spec),
            _ => unreachable!("every point is dispatched above"),
        };
        FaultOutcome {
            spec,
            class,
            detail,
        }
    }

    /// Gate-level faults: wrap DCG in a [`FaultyPolicy`] and let the
    /// safety checker catch (and fail open on) the perturbed decisions.
    fn inject_gate(&self, spec: FaultSpec) -> (FaultClass, String) {
        let groups = LatchGroups::new(&self.cfg.depth);
        let mut inner = Dcg::new(&self.cfg, &groups);
        let mut faulty = FaultyPolicy::new(&mut inner, spec, &self.cfg, &groups);
        let window = faulty.window();
        let mut run = run_passive(
            &self.cfg,
            SyntheticWorkload::new(self.profile, WORKLOAD_SEED),
            self.length,
            &mut [&mut faulty],
        );
        let altered = faulty.altered();
        let out = run.outcomes.remove(0);
        if out.audit.violations > 0 {
            return (
                FaultClass::Undetected,
                format!(
                    "safety net missed {} violating block-cycles \
                     (window {}..+{}, {} decisions perturbed)",
                    out.audit.violations, window.start, window.len, altered
                ),
            );
        }
        if out.safety.total_detected() > 0 {
            (
                FaultClass::Detected,
                format!(
                    "{} hazards detected, {} fail-open cycles \
                     (window {}..+{}, {} decisions perturbed); audit clean",
                    out.safety.total_detected(),
                    out.safety.total_failed_open(),
                    window.start,
                    window.len,
                    altered
                ),
            )
        } else if outcome_bits(&out) != self.clean_bits {
            (
                FaultClass::Masked,
                format!(
                    "no hazard; energy differs from clean reference \
                     (window {}..+{}, {} decisions perturbed harmlessly)",
                    window.start, window.len, altered
                ),
            )
        } else {
            (
                FaultClass::Tolerated,
                format!(
                    "bit-identical to clean reference \
                     (window {}..+{}, {} decisions perturbed)",
                    window.start, window.len, altered
                ),
            )
        }
    }

    /// Corrupt a recorded activity trace, then decode it directly: the
    /// trailer checksum must reject the bytes before a single record is
    /// served.
    fn inject_trace_corrupt(&self, spec: FaultSpec) -> (FaultClass, String) {
        let cache = self.fault_cache(spec);
        let (_path, mut bytes) = self.recorded_entry(&cache, self.length);
        let flipped = Self::flip_record_bit(&mut bytes, spec.seed);
        match ActivityTraceReader::new(&bytes[..]) {
            Err(e) => (
                FaultClass::Detected,
                format!("decode rejected the corrupted trace ({flipped}): {e}"),
            ),
            Ok(reader) => {
                // The checksum let a flipped record through — replay and
                // see whether the corruption surfaces or changes results.
                let groups = LatchGroups::new(&self.cfg.depth);
                let mut dcg = Dcg::new(&self.cfg, &groups);
                let mut source = ReplaySource::new(reader);
                match run_passive_with_sinks(
                    &self.cfg,
                    &mut source,
                    self.length,
                    &mut [&mut dcg],
                    &mut [],
                ) {
                    Err(e) => (
                        FaultClass::Detected,
                        format!("replay of the corrupted trace failed ({flipped}): {e}"),
                    ),
                    Ok(mut run) => {
                        if outcome_bits(&run.outcomes.remove(0)) == self.clean_bits {
                            (
                                FaultClass::Tolerated,
                                format!("corruption ({flipped}) beyond the replayed prefix"),
                            )
                        } else {
                            (
                                FaultClass::Undetected,
                                format!(
                                    "corrupted trace ({flipped}) replayed to different results"
                                ),
                            )
                        }
                    }
                }
            }
        }
    }

    /// Record a trace shorter than the run, then replay the full run from
    /// it: the drive must surface `ReplayExhausted`, never a panic or a
    /// silently short run.
    fn inject_trace_truncate(&self, spec: FaultSpec) -> (FaultClass, String) {
        let cache = self.fault_cache(spec);
        let short = RunLength {
            warmup_insts: self.length.warmup_insts,
            measure_insts: self.length.measure_insts / 2,
        };
        let (_path, bytes) = self.recorded_entry(&cache, short);
        let reader = ActivityTraceReader::new(&bytes[..])
            .expect("the truncation is in length, not in encoding");
        let groups = LatchGroups::new(&self.cfg.depth);
        let mut dcg = Dcg::new(&self.cfg, &groups);
        let mut source = ReplaySource::new(reader);
        match run_passive_with_sinks(
            &self.cfg,
            &mut source,
            self.length,
            &mut [&mut dcg],
            &mut [],
        ) {
            Err(e) => (
                FaultClass::Detected,
                format!("truncated replay surfaced a named error: {e}"),
            ),
            Ok(_) => (
                FaultClass::Undetected,
                "a trace recorded at half length satisfied the full run".to_string(),
            ),
        }
    }

    /// Root the cache under a regular file so store I/O fails: the run
    /// must complete on the live path and the failure must be counted in
    /// [`dcg_core::CacheHealth`].
    fn inject_cache_store_io(&self, spec: FaultSpec) -> (FaultClass, String) {
        let dir = self.scratch.join(format!("fault-{}", spec.id));
        fs::create_dir_all(&dir).expect("scratch dir");
        let blocker = dir.join("blocker");
        fs::write(&blocker, b"not a directory").expect("blocker file");
        let cache = TraceCache::new(blocker.join("cache"));

        // Per-instance counters attribute the failure to *this* cache
        // even while other campaign faults (or parallel tests) run —
        // the process-wide snapshot cannot make that distinction.
        let before = cache.health().store_failures;
        let groups = LatchGroups::new(&self.cfg.depth);
        let mut dcg = Dcg::new(&self.cfg, &groups);
        let mut run = cache
            .run_passive_cached(
                &self.cfg,
                self.profile,
                WORKLOAD_SEED,
                self.length,
                &mut [&mut dcg],
            )
            .expect("a failed store never fails the run");
        let counted = cache.health().store_failures - before;

        if outcome_bits(&run.outcomes.remove(0)) != self.clean_bits {
            (
                FaultClass::Undetected,
                "a failed cache store changed simulation results".to_string(),
            )
        } else if counted > 0 {
            (
                FaultClass::Masked,
                format!("store failed and was counted ({counted}); results bit-identical to clean"),
            )
        } else {
            (
                FaultClass::Undetected,
                "store failure was swallowed without being counted".to_string(),
            )
        }
    }

    /// Corrupt a *stored* entry, then run through the cache: validation
    /// must evict it and the live fallback must reproduce clean results.
    fn inject_cache_load_corrupt(&self, spec: FaultSpec) -> (FaultClass, String) {
        let cache = self.fault_cache(spec);
        let (path, mut bytes) = self.recorded_entry(&cache, self.length);
        let flipped = Self::flip_record_bit(&mut bytes, spec.seed);
        fs::write(&path, &bytes).expect("rewrite the corrupted entry");

        let groups = LatchGroups::new(&self.cfg.depth);
        let mut dcg = Dcg::new(&self.cfg, &groups);
        match cache.run_passive_cached(
            &self.cfg,
            self.profile,
            WORKLOAD_SEED,
            self.length,
            &mut [&mut dcg],
        ) {
            Err(e) => (
                FaultClass::Detected,
                format!("validated entry failed mid-replay ({flipped}): {e}"),
            ),
            Ok(mut run) => {
                if outcome_bits(&run.outcomes.remove(0)) == self.clean_bits {
                    (
                        FaultClass::Masked,
                        format!(
                            "corrupted entry ({flipped}) evicted; live fallback \
                             reproduced clean results bit-identically"
                        ),
                    )
                } else {
                    (
                        FaultClass::Undetected,
                        format!("corrupted entry ({flipped}) changed cached-run results"),
                    )
                }
            }
        }
    }

    /// Panic inside a sink mid-drive; the campaign catches the unwind and
    /// requires the injected marker in the payload.
    fn inject_sink_panic(&self, spec: FaultSpec) -> (FaultClass, String) {
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            let groups = LatchGroups::new(&self.cfg.depth);
            let mut dcg = Dcg::new(&self.cfg, &groups);
            let mut sink = PanicSink::new(spec);
            let mut cpu = Processor::new(
                self.cfg.clone(),
                SyntheticWorkload::new(self.profile, WORKLOAD_SEED),
            );
            let extra: &mut [&mut dyn ActivitySink] = &mut [&mut sink];
            run_passive_with_sinks(&self.cfg, &mut cpu, self.length, &mut [&mut dcg], extra)
                .expect("a live simulation source cannot fail")
        }));
        match result {
            Err(payload) => {
                let msg = panic_message(payload);
                if msg.contains("injected sink fault") {
                    (FaultClass::Detected, format!("panic caught: {msg}"))
                } else {
                    (
                        FaultClass::Undetected,
                        format!("an unrelated panic surfaced instead: {msg}"),
                    )
                }
            }
            Ok(_) => (
                FaultClass::Undetected,
                "the seeded sink never fired".to_string(),
            ),
        }
    }

    /// Warm run through a reopened cache, compared bit-for-bit against
    /// the clean reference — the common verdict step for the store-level
    /// faults: the injected damage must cost at most a re-simulation,
    /// never results.
    fn reopened_run_matches_clean(
        &self,
        cache: &TraceCache,
        context: &str,
    ) -> (FaultClass, String) {
        let groups = LatchGroups::new(&self.cfg.depth);
        let mut dcg = Dcg::new(&self.cfg, &groups);
        match cache.run_passive_cached(
            &self.cfg,
            self.profile,
            WORKLOAD_SEED,
            self.length,
            &mut [&mut dcg],
        ) {
            Err(e) => (
                FaultClass::Detected,
                format!("{context}; the cached run surfaced a named error: {e}"),
            ),
            Ok(mut run) => {
                let scan = cache.verify_all();
                if scan.invalid > 0 {
                    (
                        FaultClass::Undetected,
                        format!(
                            "{context}; recovery left {} invalid entr{} tracked",
                            scan.invalid,
                            if scan.invalid == 1 { "y" } else { "ies" }
                        ),
                    )
                } else if outcome_bits(&run.outcomes.remove(0)) == self.clean_bits {
                    (
                        FaultClass::Masked,
                        format!("{context}; results bit-identical to clean reference"),
                    )
                } else {
                    (
                        FaultClass::Undetected,
                        format!("{context}; results diverged from the clean reference"),
                    )
                }
            }
        }
    }

    /// Tear a checkpoint at a seeded offset (truncation or bit flip) and
    /// leave its temp image beside the intact log, as a crash between
    /// the temp write and its rename would: the reopen must reap the
    /// image, never read it, and the next run must reproduce clean
    /// results from the log.
    fn inject_checkpoint_torn(&self, spec: FaultSpec) -> (FaultClass, String) {
        let cache = self.fault_cache(spec);
        let (_path, _bytes) = self.recorded_entry(&cache, self.length);
        let dir = cache.dir().to_path_buf();
        drop(cache);

        let mut bytes = fs::read(dir.join(JOURNAL_FILE)).expect("the drop checkpointed the log");
        let mut rng = SmallRng::seed_from_u64(spec.seed);
        let detail = if rng.gen_range(0u64..2) == 0 {
            let cut = 1 + rng.gen_range(0u64..bytes.len() as u64 - 1) as usize;
            bytes.truncate(cut);
            format!("checkpoint image truncated to {cut} bytes")
        } else {
            let at = rng.gen_range(0u64..bytes.len() as u64) as usize;
            let bit = rng.gen_range(0u32..8);
            bytes[at] ^= 1 << bit;
            format!("checkpoint image bit {bit} of byte {at} flipped")
        };
        fs::write(dir.join(format!("{JOURNAL_FILE}.0.tmp")), &bytes)
            .expect("plant the torn checkpoint");

        let reopened = TraceCache::new(dir);
        let reaped = reopened.ensure_open().reaped_tmp;
        if reaped != 1 {
            return (
                FaultClass::Undetected,
                format!("{detail}; the reopen reaped {reaped} temp files, not the image"),
            );
        }
        self.reopened_run_matches_clean(&reopened, &detail)
    }

    /// Cut the store's log at a seeded offset inside its last record (a
    /// crashed writer), then reopen: decoding must discard the torn row
    /// and recover the entry from the directory scan.
    fn inject_journal_truncate(&self, spec: FaultSpec) -> (FaultClass, String) {
        let cache = self.fault_cache(spec);
        let (_path, _bytes) = self.recorded_entry(&cache, self.length);
        let dir = cache.dir().to_path_buf();
        // Dropping the cache checkpoints the log and releases the
        // directory lock the reopen below needs.
        drop(cache);

        let journal = dir.join(JOURNAL_FILE);
        let bytes = fs::read(&journal).expect("the checkpoint wrote the log");
        let header = LOG_HEADER_LEN;
        assert!(bytes.len() > header, "the log must hold the entry's row");
        let mut rng = SmallRng::seed_from_u64(spec.seed);
        let cut = header + rng.gen_range(0u64..(bytes.len() - header) as u64) as usize;
        fs::write(&journal, &bytes[..cut]).expect("truncate the log");

        self.reopened_run_matches_clean(
            &TraceCache::new(dir),
            &format!("journal truncated to {cut} of {} bytes", bytes.len()),
        )
    }

    /// Strand orphaned `.tmp` files (a writer that died before its
    /// journal record), then reopen: the sweep must reap them exactly
    /// once and leave the tracked entry warm.
    fn inject_store_orphan_tmp(&self, spec: FaultSpec) -> (FaultClass, String) {
        let cache = self.fault_cache(spec);
        let (_path, _bytes) = self.recorded_entry(&cache, self.length);
        let dir = cache.dir().to_path_buf();
        drop(cache);

        let mut rng = SmallRng::seed_from_u64(spec.seed);
        let orphans = 1 + rng.gen_range(0u64..3);
        for i in 0..orphans {
            let name = format!("orphan-{:08x}.{i}.tmp", rng.gen_range(0u64..u64::MAX));
            fs::write(dir.join(name), b"dead writer payload").expect("plant orphan tmp");
        }

        let reopened = TraceCache::new(dir.clone());
        let stats = reopened.ensure_open();
        if stats.reaped_tmp != orphans {
            return (
                FaultClass::Undetected,
                format!(
                    "planted {orphans} orphan tmp files, sweep reaped {}",
                    stats.reaped_tmp
                ),
            );
        }
        let leftovers = fs::read_dir(&dir)
            .expect("store dir")
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .count();
        if leftovers > 0 {
            return (
                FaultClass::Undetected,
                format!("{leftovers} orphan tmp files survived the sweep"),
            );
        }
        self.reopened_run_matches_clean(
            &reopened,
            &format!("{orphans} orphan tmp files reaped exactly once"),
        )
    }
}

/// Encode a campaign as a JSON document (deterministic for one seed:
/// the replay surface of `DCG_FAULT_SEED`).
pub fn fault_campaign_json(c: &FaultCampaign) -> Json {
    Json::obj([
        ("seed", Json::u64(c.seed)),
        ("seed_env", Json::str(FAULT_SEED_ENV)),
        ("faults", Json::u64(c.outcomes.len() as u64)),
        ("all_classified", Json::Bool(c.all_classified())),
        (
            "counts",
            Json::obj([
                ("detected", Json::u64(c.count(FaultClass::Detected) as u64)),
                ("masked", Json::u64(c.count(FaultClass::Masked) as u64)),
                (
                    "tolerated",
                    Json::u64(c.count(FaultClass::Tolerated) as u64),
                ),
                (
                    "undetected",
                    Json::u64(c.count(FaultClass::Undetected) as u64),
                ),
            ]),
        ),
        (
            "outcomes",
            Json::arr(
                c.outcomes
                    .iter()
                    .map(|o| {
                        Json::obj([
                            ("id", Json::u64(u64::from(o.spec.id))),
                            ("point", Json::str(o.spec.point.label())),
                            ("seed", Json::u64(o.spec.seed)),
                            ("class", Json::str(o.class.label())),
                            ("detail", Json::str(o.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_round_campaign_covers_and_classifies_every_point() {
        let c = FaultCampaign::run(11, FaultPoint::COUNT as u32);
        assert_eq!(c.outcomes.len(), FaultPoint::COUNT);
        for p in FaultPoint::ALL {
            assert!(
                c.outcomes.iter().any(|o| o.spec.point == p),
                "one round must cover {}",
                p.label()
            );
        }
        for o in &c.outcomes {
            assert_ne!(
                o.class,
                FaultClass::Undetected,
                "{} (fault {}): {}",
                o.spec.point.label(),
                o.spec.id,
                o.detail
            );
            assert!(!o.detail.is_empty(), "every outcome carries evidence");
        }
        assert!(c.all_classified());
        // The always-structured channels must actually detect.
        for p in [
            FaultPoint::TraceCorrupt,
            FaultPoint::TraceTruncate,
            FaultPoint::SinkPanic,
        ] {
            let o = c.outcomes.iter().find(|o| o.spec.point == p).unwrap();
            assert_eq!(
                o.class,
                FaultClass::Detected,
                "{} must be detected: {}",
                p.label(),
                o.detail
            );
        }
    }

    #[test]
    fn campaign_replays_bit_identically_from_its_seed() {
        let a = fault_campaign_json(&FaultCampaign::run(13, FaultPoint::COUNT as u32)).to_string();
        let b = fault_campaign_json(&FaultCampaign::run(13, FaultPoint::COUNT as u32)).to_string();
        assert_eq!(a, b, "same seed, same campaign, same document");
    }
}
