//! Reproducibility: identical inputs give identical simulations, a
//! recorded instruction stream replays identically, and passive gating
//! policies never perturb timing.

use dcg_repro::core::{run_passive, Dcg, NoGating, RunLength};
use dcg_repro::sim::{LatchGroups, Processor, SimConfig};
use dcg_repro::workloads::{InstStream, ReplayStream, Spec2000, SyntheticWorkload};

#[test]
fn identical_runs_produce_identical_statistics() {
    let cfg = SimConfig::baseline_8wide();
    let run = |seed: u64| {
        let mut cpu = Processor::new(
            cfg.clone(),
            SyntheticWorkload::new(Spec2000::by_name("parser").unwrap(), seed),
        );
        cpu.run_until_commits(30_000, |_| {});
        (
            cpu.cycle(),
            cpu.stats().issued,
            cpu.stats().dcache_misses,
            cpu.stats().mispredicts,
        )
    };
    assert_eq!(run(5), run(5), "same seed, same simulation");
    assert_ne!(run(5), run(6), "different seeds diverge");
}

#[test]
fn recorded_trace_replays_identically() {
    // Record a workload prefix, then replay it: the simulator must behave
    // identically on the replay.
    let profile = Spec2000::by_name("gzip").unwrap();
    let mut gen = SyntheticWorkload::new(profile, 9);
    let trace: Vec<_> = (0..60_000).map(|_| gen.next_inst()).collect();

    let cfg = SimConfig::baseline_8wide();
    let mut direct = Processor::new(cfg.clone(), SyntheticWorkload::new(profile, 9));
    direct.run_until_commits(40_000, |_| {});
    let mut replayed = Processor::new(cfg, ReplayStream::new("replay", trace));
    replayed.run_until_commits(40_000, |_| {});
    assert_eq!(direct.cycle(), replayed.cycle());
    assert_eq!(direct.stats().issued, replayed.stats().issued);
    assert_eq!(direct.stats().dcache_misses, replayed.stats().dcache_misses);
}

#[test]
fn passive_policies_do_not_perturb_timing() {
    // A bare simulation and a run_passive simulation with two observers
    // must agree cycle-for-cycle.
    let cfg = SimConfig::baseline_8wide();
    let profile = Spec2000::by_name("twolf").unwrap();

    let mut bare = Processor::new(cfg.clone(), SyntheticWorkload::new(profile, 4));
    bare.run_until_commits(25_000, |_| {});

    let groups = LatchGroups::new(&cfg.depth);
    let mut baseline = NoGating::new(&cfg, &groups);
    let mut dcg = Dcg::new(&cfg, &groups);
    let run = run_passive(
        &cfg,
        SyntheticWorkload::new(profile, 4),
        RunLength {
            warmup_insts: 0,
            measure_insts: 25_000,
        },
        &mut [&mut baseline, &mut dcg],
    );
    // run_passive may overshoot the commit target by at most one cycle's
    // worth of commits; compare cycle counts at equal committed counts.
    assert_eq!(bare.committed(), run.stats.committed);
    assert_eq!(bare.cycle(), run.stats.cycles);
}

/// Suite-level determinism: `Suite::run` fans benchmarks out across
/// threads, but two invocations with the same configuration must yield
/// byte-identical statistics and power reports (floats compared by bit
/// pattern, not approximate equality).
#[test]
fn suite_runs_are_byte_identical_across_invocations() {
    use dcg_repro::experiments::{ExperimentConfig, Suite};
    use dcg_repro::power::{Component, PowerReport};

    fn report_bits(r: &PowerReport) -> Vec<u64> {
        let mut v = vec![r.cycles(), r.committed(), r.total_pj().to_bits()];
        v.extend(Component::ALL.iter().map(|c| r.component_pj(*c).to_bits()));
        v
    }

    fn fingerprint(suite: &Suite) -> Vec<(String, String, Vec<u64>, Vec<u64>)> {
        suite
            .runs
            .iter()
            .map(|run| {
                (
                    run.profile.name.to_string(),
                    // SimStats is all integer counters, so its Debug
                    // rendering is an exact encoding.
                    format!("{:?}", run.stats),
                    report_bits(&run.baseline),
                    report_bits(&run.dcg.report),
                )
            })
            .collect()
    }

    let cfg = ExperimentConfig::quick();
    let a = Suite::run(&cfg, false);
    let b = Suite::run(&cfg, false);
    assert_eq!(fingerprint(&a), fingerprint(&b));
}
