//! Bit-identity of the block drive loop against a per-cycle reference,
//! across 2 workload profiles × 2 pipeline depths.
//!
//! The reference wraps every policy and extra sink so that only their
//! per-cycle methods show: policies decide through `gate_into` and
//! `observe` (the per-lane `gate_lanes` shim) and keep the default
//! horizon of 1; sinks see `warmup_cycle`/`measure_cycle` (the per-lane
//! span shims) and report a horizon of 1, so the live source steps one
//! cycle per block and constraints are polled before every cycle — the
//! per-cycle loop that the block loop replaced.
//!
//! The passive fan-out covers the baseline, DCG, a fault-injected DCG
//! (hazards, fail-open lanes, backoff across block boundaries), DCG with
//! issue-queue gating and a [`MetricsSink`]. It runs three ways: live
//! blocks, the live per-cycle reference and a replay of the trace the
//! live-block run recorded. The active runs cover PLB-orig, PLB-ext and
//! a fault-wrapped PLB, live blocks against the live reference, which
//! checks every constraint horizon.
//!
//! The runner's own policy sink is crate-private and cannot be wrapped:
//! in the reference it still screens, audits and folds each one-lane span
//! with the span code. Its two folds have independent references
//! elsewhere: the safety screen in
//! `safety::tests::screen_span_matches_the_per_cycle_screen` (dcg-core)
//! and the energy fold in
//! `model::tests::span_fold_equals_per_cycle_records_bit_for_bit`
//! (dcg-power).

use dcg_core::{
    drive, run_active, run_passive_with_sinks, run_stats_source, ActivitySink, CachedSource, Dcg,
    DcgOptions, FaultPoint, FaultSpec, FaultyPolicy, GatingPolicy, MetricsReport, MetricsSink,
    NoGating, PassiveRun, Plb, PlbConfig, PlbVariant, PolicyOutcome, ReplaySource, RunLength,
};
use dcg_power::GateState;
use dcg_sim::{
    CycleActivity, LatchGroups, PipelineDepth, Processor, ResourceConstraints, SimConfig,
};
use dcg_trace::{ActivityHeader, ActivityTraceReader, ActivityTraceWriter};
use dcg_workloads::{Spec2000, SyntheticWorkload};

const SEED: u64 = 11;

fn length() -> RunLength {
    RunLength {
        warmup_insts: 700,
        measure_insts: 2_300,
    }
}

/// Long enough for PLB to change mode several times.
fn plb_length() -> RunLength {
    RunLength {
        warmup_insts: 2_000,
        measure_insts: 30_000,
    }
}

fn configs() -> impl Iterator<Item = (SimConfig, &'static str)> {
    [PipelineDepth::stages8(), PipelineDepth::stages20()]
        .into_iter()
        .flat_map(|depth| {
            ["gzip", "swim"].into_iter().map(move |name| {
                let cfg = SimConfig {
                    depth,
                    ..SimConfig::baseline_8wide()
                };
                (cfg, name)
            })
        })
}

fn stream(name: &str) -> SyntheticWorkload {
    SyntheticWorkload::new(Spec2000::by_name(name).expect("known benchmark"), SEED)
}

/// A live source of `name` on `cfg` that records every cycle it steps.
fn recording(cfg: &SimConfig, name: &str) -> CachedSource<SyntheticWorkload> {
    let cpu = Processor::new(cfg.clone(), stream(name));
    let l = length();
    let header = ActivityHeader::new(
        name,
        cfg.digest(),
        SEED,
        l.warmup_insts,
        l.measure_insts,
        cpu.latch_groups().len(),
    )
    .expect("valid header");
    let writer = ActivityTraceWriter::new(Vec::new(), &header).expect("in-memory writer");
    CachedSource::Live(Box::new(cpu), Some(writer))
}

/// The finished recording of a [`recording`] source.
fn recorded(source: CachedSource<SyntheticWorkload>) -> Vec<u8> {
    match source {
        CachedSource::Live(_, Some(writer)) => writer.finish().expect("finish trace"),
        _ => panic!("the recording was dropped"),
    }
}

fn replay(bytes: &[u8]) -> ReplaySource {
    ReplaySource::new(ActivityTraceReader::new(bytes).expect("open trace"))
}

/// A policy seen only through its per-cycle methods.
struct PerCyclePolicy<'a>(&'a mut dyn GatingPolicy);

impl GatingPolicy for PerCyclePolicy<'_> {
    fn gate_for(&mut self, cycle: u64) -> GateState {
        self.0.gate_for(cycle)
    }
    fn gate_into(&mut self, cycle: u64, out: &mut GateState) {
        self.0.gate_into(cycle, out);
    }
    fn constraints(&self) -> ResourceConstraints {
        self.0.constraints()
    }
    fn observe(&mut self, activity: &CycleActivity) {
        self.0.observe(activity);
    }
    fn is_passive(&self) -> bool {
        self.0.is_passive()
    }
    fn name(&self) -> &str {
        self.0.name()
    }
}

/// A sink seen only through its per-cycle methods, stepping the run one
/// cycle per block.
struct PerCycleSink<'a>(&'a mut dyn ActivitySink);

impl ActivitySink for PerCycleSink<'_> {
    fn warmup_cycle(&mut self, act: &CycleActivity) {
        self.0.warmup_cycle(act);
    }
    fn begin_measure(&mut self) {
        self.0.begin_measure();
    }
    fn measure_cycle(&mut self, act: &CycleActivity) {
        self.0.measure_cycle(act);
    }
    fn constraints(&self) -> Option<ResourceConstraints> {
        self.0.constraints()
    }
    fn horizon(&self) -> usize {
        1
    }
}

/// Outcome index of the fault-injected DCG in [`passive_run`].
const FAULTY: usize = 2;

/// Gate-level fault for the faulty lane: gates a unit, port, bus or latch
/// group the policy powered inside a seeded window. On DCG the safety
/// checker records hazards and fails the class open for its 256-cycle
/// backoff, which spans several 64-cycle blocks.
fn fault() -> FaultSpec {
    FaultSpec {
        id: 0,
        point: FaultPoint::GateUsedUnit,
        seed: 0x5EED_0001,
    }
}

/// Run the passive fan-out (NoGating, DCG, a fault-injected DCG and DCG
/// with issue-queue gating, plus a MetricsSink on DCG) over `source`;
/// `per_cycle` wraps every policy and the sink for the reference.
fn passive_run(
    cfg: &SimConfig,
    source: &mut dyn dcg_core::ActivitySource,
    per_cycle: bool,
) -> (PassiveRun, MetricsReport) {
    let groups = LatchGroups::new(&cfg.depth);
    let mut base = NoGating::new(cfg, &groups);
    let mut dcg = Dcg::new(cfg, &groups);
    let mut faulty_inner = Dcg::new(cfg, &groups);
    let mut faulty = FaultyPolicy::new(&mut faulty_inner, fault(), cfg, &groups);
    let mut dcg_iq = Dcg::with_options(
        cfg,
        &groups,
        DcgOptions {
            gate_issue_queue: true,
        },
    );
    let mut observed = Dcg::new(cfg, &groups);
    let mut metrics = MetricsSink::new(&mut observed, cfg, &groups);
    let mut policies: [&mut dyn GatingPolicy; 4] = [&mut base, &mut dcg, &mut faulty, &mut dcg_iq];
    let run = if per_cycle {
        let [a, b, c, d] = policies;
        run_passive_with_sinks(
            cfg,
            source,
            length(),
            &mut [
                &mut PerCyclePolicy(a),
                &mut PerCyclePolicy(b),
                &mut PerCyclePolicy(c),
                &mut PerCyclePolicy(d),
            ],
            &mut [&mut PerCycleSink(&mut metrics)],
        )
    } else {
        run_passive_with_sinks(cfg, source, length(), &mut policies, &mut [&mut metrics])
    }
    .expect("the source covers the run");
    (run, metrics.into_report())
}

/// Exact-bit fingerprint of a run: Debug formatting covers every counter,
/// and the f64 energy totals are compared through `to_bits`.
fn fingerprint(run: &PassiveRun) -> String {
    let outcomes: Vec<String> = run.outcomes.iter().map(outcome_fingerprint).collect();
    format!("{:?}|{outcomes:?}", run.stats)
}

fn outcome_fingerprint(o: &PolicyOutcome) -> String {
    format!(
        "{o:?}|{}|{}",
        o.report.total_pj().to_bits(),
        o.report.energy_per_inst_pj().to_bits()
    )
}

#[test]
fn live_blocks_match_the_per_cycle_reference_and_replay() {
    for (cfg, name) in configs() {
        let mut live = recording(&cfg, name);
        let (block_run, block_metrics) = passive_run(&cfg, &mut live, false);
        let bytes = recorded(live);

        let mut reference = recording(&cfg, name);
        let (ref_run, ref_metrics) = passive_run(&cfg, &mut reference, true);
        assert_eq!(
            bytes,
            recorded(reference),
            "{name}/{:?}: whole-block and lane-by-lane recordings must be the same bytes",
            cfg.depth
        );

        let (replay_run, replay_metrics) = passive_run(&cfg, &mut replay(&bytes), false);

        // The fault lane must exercise the screen's fallback: hazards,
        // fail-open cycles, and a backoff window longer than a block.
        let safety = &ref_run.outcomes[FAULTY].safety;
        assert!(
            !safety.hazards.is_empty(),
            "{name}/{:?}: fault produced no hazard",
            cfg.depth
        );
        assert!(
            safety.failed_open_cycles.iter().any(|&n| n > 64),
            "{name}/{:?}: no backoff window crossed a block boundary",
            cfg.depth
        );
        for (run, metrics, how) in [
            (&block_run, &block_metrics, "live blocks"),
            (&replay_run, &replay_metrics, "replayed blocks"),
        ] {
            assert_eq!(
                fingerprint(&ref_run),
                fingerprint(run),
                "{name}/{:?}: {how} must equal the per-cycle reference",
                cfg.depth
            );
            assert_eq!(
                &ref_metrics, metrics,
                "{name}/{:?}: {how}: metrics must be identical",
                cfg.depth
            );
        }

        // Stats-only fold over blocks equals the full run's stats.
        let stats =
            run_stats_source(&mut replay(&bytes), length()).expect("replay covers the window");
        assert_eq!(
            format!("{:?}", ref_run.stats),
            format!("{stats:?}"),
            "{name}/{:?}: blockwise stats fold must equal the reference stats",
            cfg.depth
        );
    }
}

#[test]
fn plb_live_blocks_match_the_per_cycle_reference() {
    let l = plb_length();
    for (cfg, name) in configs() {
        let groups = LatchGroups::new(&cfg.depth);
        // The paper's 256-cycle window ends on a block boundary; a
        // 100-cycle one ends mid-block, where a horizon one cycle too
        // long would run a cycle under the old mode's constraints.
        for window in [256, 100] {
            let plb_cfg = PlbConfig {
                window,
                ..PlbConfig::default()
            };
            for variant in [PlbVariant::Orig, PlbVariant::Ext] {
                let what = format!("{name}/{:?}/{variant:?}/window {window}", cfg.depth);
                let mut blocks = Plb::with_config(variant, plb_cfg, &cfg, &groups);
                let block_run = run_active(&cfg, stream(name), l, &mut blocks);
                let mut per_cycle = Plb::with_config(variant, plb_cfg, &cfg, &groups);
                let ref_run =
                    run_active(&cfg, stream(name), l, &mut PerCyclePolicy(&mut per_cycle));
                assert!(
                    per_cycle.transitions() >= 2,
                    "{what}: PLB must change mode to test its horizon"
                );
                assert_eq!(blocks.transitions(), per_cycle.transitions(), "{what}");
                assert_eq!(
                    outcome_fingerprint(&ref_run),
                    outcome_fingerprint(&block_run),
                    "{what}: live blocks must equal the per-cycle reference"
                );
            }
        }

        let mut inner = Plb::new(PlbVariant::Ext, &cfg, &groups);
        let mut faulty = FaultyPolicy::new(&mut inner, fault(), &cfg, &groups);
        let block_run = run_active(&cfg, stream(name), l, &mut faulty);
        assert!(
            faulty.altered() > 0,
            "the fault window must fall in the run"
        );
        let mut inner = Plb::new(PlbVariant::Ext, &cfg, &groups);
        let mut faulty = FaultyPolicy::new(&mut inner, fault(), &cfg, &groups);
        let ref_run = run_active(&cfg, stream(name), l, &mut PerCyclePolicy(&mut faulty));
        assert_eq!(
            outcome_fingerprint(&ref_run),
            outcome_fingerprint(&block_run),
            "{name}/{:?}: fault-wrapped PLB: live blocks must equal the per-cycle reference",
            cfg.depth
        );
    }
}

#[test]
fn drive_batch_lanes_match_individual_drives() {
    let cfg = SimConfig::baseline_8wide();
    let groups = LatchGroups::new(&cfg.depth);
    let mut live = recording(&cfg, "gzip");
    let (_, solo_block) = passive_run(&cfg, &mut live, false);
    let bytes = recorded(live);

    // Two lanes sharing one decode: each lane re-evaluates DCG through a
    // MetricsSink (the public block-aware sink), and both sit in one
    // flat sink list.
    let mut p0 = Dcg::new(&cfg, &groups);
    let mut p1 = Dcg::new(&cfg, &groups);
    let mut lane0 = MetricsSink::new(&mut p0, &cfg, &groups);
    let mut lane1 = MetricsSink::new(&mut p1, &cfg, &groups);
    drive(
        &mut replay(&bytes),
        &mut [&mut lane0 as &mut dyn ActivitySink, &mut lane1],
        length(),
    )
    .expect("replay covers the recorded window");
    let batch0 = lane0.into_report();
    let batch1 = lane1.into_report();

    // Reference: each lane alone, live per cycle.
    let mut cpu = Processor::new(cfg.clone(), stream("gzip"));
    let (_, solo_per_cycle) = passive_run(&cfg, &mut cpu, true);

    assert_eq!(batch0, batch1, "lockstep lanes must agree with each other");
    assert_eq!(batch0, solo_block, "batched lane must equal solo block run");
    assert_eq!(
        batch0, solo_per_cycle,
        "batched lane must equal the per-cycle reference"
    );
}
