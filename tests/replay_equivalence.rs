//! Replay-vs-live equivalence: driving the passive sinks from a recorded
//! activity trace must reproduce the live simulation's power reports,
//! gating audits and statistics **bit-identically** — the contract that
//! makes the simulate-once trace cache safe to use anywhere.

use std::path::PathBuf;

use dcg_repro::core::{
    run_cached_or_live, run_oracle, run_oracle_source, run_passive, run_passive_metered,
    run_passive_with_sinks, Dcg, GatingPolicy, NoGating, PassiveRun, RunLength, TraceCache,
};
use dcg_repro::experiments::metrics_json;
use dcg_repro::power::{Component, PowerReport};
use dcg_repro::sim::{LatchGroups, SimConfig};
use dcg_repro::workloads::{Spec2000, SyntheticWorkload};

const SEED: u64 = 11;

fn fresh_cache(tag: &str) -> TraceCache {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("replay-equivalence")
        .join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    TraceCache::new(dir)
}

/// Every float a [`PowerReport`] accumulates, by bit pattern.
fn report_bits(r: &PowerReport) -> Vec<u64> {
    let mut v = vec![r.cycles(), r.committed()];
    v.extend(Component::ALL.iter().map(|c| r.component_pj(*c).to_bits()));
    v
}

fn run_bits(run: &PassiveRun) -> (Vec<(String, Vec<u64>, String)>, String) {
    (
        run.outcomes
            .iter()
            .map(|o| {
                (
                    o.name.clone(),
                    report_bits(&o.report),
                    // GatingAudit and SimStats are integer-only, so Debug
                    // is an exact encoding.
                    format!("{:?}", o.audit),
                )
            })
            .collect(),
        format!("{:?}", run.stats),
    )
}

fn passive(cfg: &SimConfig, name: &str) -> PassiveRun {
    let groups = LatchGroups::new(&cfg.depth);
    let mut baseline = NoGating::new(cfg, &groups);
    let mut dcg = Dcg::new(cfg, &groups);
    let profile = Spec2000::by_name(name).unwrap();
    run_passive(
        cfg,
        SyntheticWorkload::new(profile, SEED),
        RunLength::quick(),
        &mut [&mut baseline, &mut dcg],
    )
}

fn passive_cached(cache: &TraceCache, cfg: &SimConfig, name: &str) -> PassiveRun {
    let groups = LatchGroups::new(&cfg.depth);
    let mut baseline = NoGating::new(cfg, &groups);
    let mut dcg = Dcg::new(cfg, &groups);
    let profile = Spec2000::by_name(name).unwrap();
    cache
        .run_passive_cached(
            cfg,
            profile,
            SEED,
            RunLength::quick(),
            &mut [&mut baseline, &mut dcg],
        )
        .expect("cached run over an intact entry")
}

/// Live, record (cold cache) and replay (warm cache) must agree to the
/// last bit — across an integer and an FP benchmark, and across both
/// pipeline depths.
#[test]
fn replay_is_bit_identical_to_live_across_profiles_and_depths() {
    let configs = [SimConfig::baseline_8wide(), SimConfig::deep_pipeline_20()];
    for cfg in &configs {
        for name in ["gzip", "swim"] {
            let tag = format!("{}-{name}", cfg.depth.total());
            let cache = fresh_cache(&tag);

            let live = passive(cfg, name);
            let cold = passive_cached(&cache, cfg, name);
            assert!(
                cache
                    .replay_source(cfg, name, SEED, RunLength::quick())
                    .is_some(),
                "{tag}: cold run must leave a valid cache entry"
            );
            let warm = passive_cached(&cache, cfg, name);

            assert_eq!(
                run_bits(&live),
                run_bits(&cold),
                "{tag}: recording must not change results"
            );
            assert_eq!(
                run_bits(&live),
                run_bits(&warm),
                "{tag}: replay must be bit-identical to live"
            );
        }
    }
}

/// Run the passive policies with DCG metered — live without a cache,
/// else through it — and serialize the resulting
/// report: the integer-only JSON document is the byte-equivalence
/// surface.
fn metrics_doc(cache: Option<&TraceCache>, cfg: &SimConfig, name: &str) -> String {
    let profile = Spec2000::by_name(name).unwrap();
    let doc = run_cached_or_live(
        cache,
        cfg,
        name,
        SEED,
        RunLength::quick(),
        || SyntheticWorkload::new(profile, SEED),
        |source| {
            let groups = LatchGroups::new(&cfg.depth);
            let mut baseline = NoGating::new(cfg, &groups);
            let mut dcg = Dcg::new(cfg, &groups);
            let (_, metrics) = run_passive_metered(
                cfg,
                source,
                RunLength::quick(),
                &mut [&mut baseline, &mut dcg],
                1,
                &mut [],
            )?;
            Ok(metrics_json(&metrics).to_string())
        },
    );
    assert_no_replay_failure(cache);
    doc
}

/// A cached run over an intact entry must never have fallen back live.
fn assert_no_replay_failure(cache: Option<&TraceCache>) {
    if let Some(c) = cache {
        assert_eq!(
            c.health().replay_failures,
            0,
            "an intact entry failed to replay"
        );
    }
}

/// The cycle-level metrics document is part of the equivalence contract:
/// histograms, windowed time series and the gating audit trail must come
/// out byte-identical whether the activity stream is live, being recorded
/// (cold cache) or replayed (warm cache).
#[test]
fn metrics_json_is_byte_identical_across_live_and_replay() {
    let cfg = SimConfig::baseline_8wide();
    for name in ["gzip", "swim"] {
        let cache = fresh_cache(&format!("metrics-{name}"));

        let live = metrics_doc(None, &cfg, name);
        let cold = metrics_doc(Some(&cache), &cfg, name);
        assert!(
            cache
                .replay_source(&cfg, name, SEED, RunLength::quick())
                .is_some(),
            "{name}: cold run must leave a valid cache entry"
        );
        let warm = metrics_doc(Some(&cache), &cfg, name);

        assert!(
            live.contains("\"audit\""),
            "{name}: metrics document must carry the audit trail"
        );
        assert_eq!(live, cold, "{name}: recording must not change metrics");
        assert_eq!(live, warm, "{name}: replayed metrics must match live");
    }
}

/// The oracle runner accepts a replayed source too: clairvoyant gating is
/// a pure function of the activity stream.
#[test]
fn oracle_replays_bit_identically() {
    let cfg = SimConfig::baseline_8wide();
    let cache = fresh_cache("oracle");
    let profile = Spec2000::by_name("gzip").unwrap();

    let live = run_oracle(
        &cfg,
        SyntheticWorkload::new(profile, SEED),
        RunLength::quick(),
    );

    // Populate the cache, then replay through the oracle runner.
    let _ = passive_cached(&cache, &cfg, "gzip");
    let mut replay = cache
        .replay_source(&cfg, "gzip", SEED, RunLength::quick())
        .expect("cache entry");
    let replayed = run_oracle_source(&cfg, &mut replay, RunLength::quick())
        .expect("replaying an intact entry through the oracle cannot fail");

    assert_eq!(report_bits(&live.report), report_bits(&replayed.report));
}

/// Real-program kernel streams go through the same simulate-once cache as
/// the synthetic workloads: the cold (recording) run and the warm
/// (replayed) run must both be bit-identical to a live simulation.
#[test]
fn kernel_stream_replays_bit_identically() {
    use dcg_repro::workloads::Kernel;

    const KERNEL_SEED: u64 = 0;
    let cfg = SimConfig::baseline_8wide();
    let length = RunLength {
        warmup_insts: 2_000,
        measure_insts: 20_000,
    };
    let k = Kernel::by_name("rle").expect("rle kernel exists");
    let cache = fresh_cache("kernel-rle");

    let run = |cache: Option<&TraceCache>| -> PassiveRun {
        let run = run_cached_or_live(
            cache,
            &cfg,
            k.name,
            KERNEL_SEED,
            length,
            || k.stream(),
            |source| {
                let groups = LatchGroups::new(&cfg.depth);
                let mut baseline = NoGating::new(&cfg, &groups);
                let mut dcg = Dcg::new(&cfg, &groups);
                let policies: &mut [&mut dyn GatingPolicy] = &mut [&mut baseline, &mut dcg];
                run_passive_with_sinks(&cfg, source, length, policies, &mut [])
            },
        );
        assert_no_replay_failure(cache);
        run
    };

    let live = run(None);
    let cold = run(Some(&cache));
    assert!(
        cache
            .replay_source(&cfg, k.name, KERNEL_SEED, length)
            .is_some(),
        "cold kernel run must leave a valid cache entry"
    );
    let warm = run(Some(&cache));

    assert_eq!(
        run_bits(&live),
        run_bits(&cold),
        "recording a kernel stream must not change results"
    );
    assert_eq!(
        run_bits(&live),
        run_bits(&warm),
        "replaying a kernel stream must be bit-identical to live"
    );
}
