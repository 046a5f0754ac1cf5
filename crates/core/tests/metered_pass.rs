//! One decision per policy per passive pass.
//!
//! A suite-shaped pass — the ungated baseline and DCG, with DCG's
//! cycle-level metrics — must ask each policy for its gates once per
//! span: the metrics fold reads the lanes DCG's own sink decided. A
//! counting wrapper around each policy checks that against a sink that
//! counts the spans, and the metered report must equal that of a
//! [`MetricsSink`] over a second instance of the policy riding the same
//! pass, on the quick profiles at both pipeline depths.
//!
//! The same holds under a fault-injected DCG whose hazards the safety
//! screen catches and fails open: a [`MetricsSink`] never screens, so the
//! reports agree only if the fold reads the lanes before the screen
//! repairs them.

use dcg_core::{
    run_passive_metered, ActivitySink, ActivitySource, Dcg, FaultPoint, FaultSpec, FaultyPolicy,
    GatingPolicy, MetricsReport, MetricsSink, NoGating, PassiveRun, RunLength,
};
use dcg_power::{GateLanes, GateState};
use dcg_sim::{
    ActivityBlock, CycleActivity, LatchGroups, PipelineDepth, Processor, ResourceConstraints,
    SimConfig,
};
use dcg_workloads::{Spec2000, SyntheticWorkload};

const SEED: u64 = 42;

/// A policy that counts its [`GatingPolicy::gate_lanes`] calls.
struct Counting<'a> {
    inner: &'a mut dyn GatingPolicy,
    calls: usize,
}

impl<'a> Counting<'a> {
    fn new(inner: &'a mut dyn GatingPolicy) -> Counting<'a> {
        Counting { inner, calls: 0 }
    }
}

impl GatingPolicy for Counting<'_> {
    fn gate_for(&mut self, cycle: u64) -> GateState {
        self.inner.gate_for(cycle)
    }
    fn gate_into(&mut self, cycle: u64, out: &mut GateState) {
        self.inner.gate_into(cycle, out);
    }
    fn constraints(&self) -> ResourceConstraints {
        self.inner.constraints()
    }
    fn horizon(&self) -> usize {
        self.inner.horizon()
    }
    fn observe(&mut self, activity: &CycleActivity) {
        self.inner.observe(activity);
    }
    fn gate_lanes(&mut self, block: &ActivityBlock, from: usize, to: usize, out: &mut GateLanes) {
        self.calls += 1;
        self.inner.gate_lanes(block, from, to, out);
    }
    fn is_passive(&self) -> bool {
        self.inner.is_passive()
    }
    fn needs_screen(&self) -> bool {
        self.inner.needs_screen()
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A sink that counts the spans the drive loop hands out.
#[derive(Default)]
struct Spans(usize);

impl ActivitySink for Spans {
    fn measure_cycle(&mut self, _act: &CycleActivity) {
        unreachable!("the drive loop hands out spans");
    }
    fn warmup_span(&mut self, _block: &ActivityBlock, _from: usize, _to: usize) {
        self.0 += 1;
    }
    fn measure_span(&mut self, _block: &ActivityBlock, _from: usize, _to: usize) {
        self.0 += 1;
    }
}

fn configs() -> impl Iterator<Item = (SimConfig, &'static str)> {
    [PipelineDepth::stages8(), PipelineDepth::stages20()]
        .into_iter()
        .flat_map(|depth| {
            ["gzip", "mcf", "swim"].into_iter().map(move |name| {
                let cfg = SimConfig {
                    depth,
                    ..SimConfig::baseline_8wide()
                };
                (cfg, name)
            })
        })
}

fn live(cfg: &SimConfig, name: &str) -> Processor<SyntheticWorkload> {
    let profile = Spec2000::by_name(name).expect("known benchmark");
    Processor::new(cfg.clone(), SyntheticWorkload::new(profile, SEED))
}

/// What one metered pass did.
struct Pass {
    run: PassiveRun,
    metered: MetricsReport,
    reference: MetricsReport,
    baseline_calls: usize,
    metered_calls: usize,
    spans: usize,
}

/// Baseline plus `policy` (metered) over `source`, with a
/// [`MetricsSink`] over `probe` riding the same pass as the reference.
fn pass(
    cfg: &SimConfig,
    source: &mut dyn ActivitySource,
    length: RunLength,
    policy: &mut dyn GatingPolicy,
    probe: &mut dyn GatingPolicy,
) -> Pass {
    let groups = LatchGroups::new(&cfg.depth);
    let mut baseline_inner = NoGating::new(cfg, &groups);
    let mut baseline = Counting::new(&mut baseline_inner);
    let mut metered = Counting::new(policy);
    let mut reference = MetricsSink::new(probe, cfg, &groups);
    let mut spans = Spans::default();
    let (run, report) = run_passive_metered(
        cfg,
        source,
        length,
        &mut [&mut baseline, &mut metered],
        1,
        &mut [&mut spans, &mut reference],
    )
    .expect("a live source cannot fail");
    Pass {
        run,
        metered: report,
        reference: reference.into_report(),
        baseline_calls: baseline.calls,
        metered_calls: metered.calls,
        spans: spans.0,
    }
}

#[test]
fn a_metered_pass_decides_each_policy_once_per_span() {
    for (cfg, name) in configs() {
        let tag = format!("{name}/{}", cfg.depth.total());
        let groups = LatchGroups::new(&cfg.depth);
        let (mut dcg, mut probe) = (Dcg::new(&cfg, &groups), Dcg::new(&cfg, &groups));
        let p = pass(
            &cfg,
            &mut live(&cfg, name),
            RunLength::quick(),
            &mut dcg,
            &mut probe,
        );
        assert!(p.spans > 1, "{tag}: the run spans several blocks");
        assert_eq!(p.metered_calls, p.spans, "{tag}: DCG decided once per span");
        assert_eq!(p.baseline_calls, p.spans, "{tag}: baseline once per span");
        assert_eq!(p.metered.cycles, p.run.stats.cycles, "{tag}");
        assert_eq!(p.metered, p.reference, "{tag}");
    }
}

#[test]
fn the_metered_fold_reads_the_lanes_before_the_screen() {
    // The fault window lies in the first few hundred cycles, so measure
    // from the first cycle on.
    let length = RunLength {
        warmup_insts: 0,
        measure_insts: 6_000,
    };
    let fault = FaultSpec {
        id: 0,
        point: FaultPoint::GateUsedUnit,
        seed: 0x5EED_0001,
    };
    for (cfg, name) in configs() {
        let tag = format!("{name}/{}", cfg.depth.total());
        let groups = LatchGroups::new(&cfg.depth);
        let (mut inner, mut probe_inner) = (Dcg::new(&cfg, &groups), Dcg::new(&cfg, &groups));
        let mut faulty = FaultyPolicy::new(&mut inner, fault, &cfg, &groups);
        let mut probe = FaultyPolicy::new(&mut probe_inner, fault, &cfg, &groups);
        let p = pass(&cfg, &mut live(&cfg, name), length, &mut faulty, &mut probe);
        let safety = &p.run.outcomes[1].safety;
        assert!(
            safety.total_detected() > 0 && safety.total_failed_open() > 0,
            "{tag}: the screen caught the fault and failed open"
        );
        assert_eq!(p.run.outcomes[1].audit.violations, 0, "{tag}");
        assert_eq!(p.metered_calls, p.spans, "{tag}");
        assert_eq!(p.metered, p.reference, "{tag}");
    }
}
