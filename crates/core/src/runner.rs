//! Drives a simulation under one or more gating policies, with energy
//! accounting and the DCG safety audit.
//!
//! All run variants share **one** warm-up/measure driver loop, [`drive`]:
//! an [`ActivitySource`] produces [`dcg_sim::ActivityBlock`]s of
//! consecutive cycles (stepped live or decoded from a trace) and any
//! number of [`ActivitySink`]s consume each block by reference, span by
//! span. Active policies bound the block length by their constraint
//! horizon ([`ActivitySink::horizon`]). Passive-policy evaluation
//! therefore works identically from a live [`dcg_sim::Processor`] or
//! from a recorded activity trace replayed via [`crate::ReplaySource`] —
//! the simulate-once architecture. Driving several configurations over
//! one decode is the same call: put every configuration's sinks in the
//! one sink list.
//!
//! The `run_*` helpers are thin compositions of `drive` with the
//! crate's sinks: [`run_passive_with_sinks`] (and its live shorthand
//! [`run_passive`], and [`run_passive_metered`], which also folds one
//! policy's cycle-level metrics), [`run_stats_source`], [`run_oracle`]
//! and [`run_active`]. The clairvoyant oracle and Wattch's reference
//! styles are one sink, [`crate::WattchSink`], which rides any passive
//! pass as an extra sink; [`run_oracle`] is that sink alone on a live
//! simulation. Whether a run replays or simulates is decided once, by
//! [`crate::TraceCache::run`].

use dcg_isa::FuClass;
use dcg_power::{GateColumns, PowerModel, PowerReport};
use dcg_sim::{
    ActivityBlock, ActivityColumns, LatchGroups, Processor, SimConfig, SimStats, BLOCK_CYCLES,
};
use dcg_workloads::InstStream;

use crate::error::DcgError;
use crate::metrics::MetricsReport;
use crate::policy::GatingPolicy;
use crate::safety::SafetyReport;
use crate::sinks::{ActivitySink, PolicySink, StatsSink, WattchSink};
use crate::source::ActivitySource;

/// Run-length parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLength {
    /// Instructions committed before measurement starts (cache/predictor
    /// warm-up; the paper fast-forwards 2 B instructions).
    pub warmup_insts: u64,
    /// Instructions measured.
    pub measure_insts: u64,
}

impl RunLength {
    /// The default experiment length: 50 k warm-up + 300 k measured.
    pub fn standard() -> RunLength {
        RunLength {
            warmup_insts: 50_000,
            measure_insts: 300_000,
        }
    }

    /// A short run for tests.
    pub fn quick() -> RunLength {
        RunLength {
            warmup_insts: 5_000,
            measure_insts: 20_000,
        }
    }
}

/// Outcome of one policy over one run.
#[derive(Debug)]
pub struct PolicyOutcome {
    /// Policy display name.
    pub name: String,
    /// Accumulated energy over the measured window.
    pub report: PowerReport,
    /// Gating audit for the measured window.
    pub audit: GatingAudit,
    /// What the safety checker saw and did (all zeros on a fault-free
    /// run; only strictly audited policies carry a checker).
    pub safety: SafetyReport,
}

/// Safety/quality audit of a gating policy.
///
/// `violations` counts cycles where a gated block was actually used — for
/// DCG this must be **zero** (the paper's determinism guarantee). Strict
/// policies run behind a [`crate::GatingSafetyChecker`] that catches and
/// fail-opens any violation *before* it reaches this audit, so a non-zero
/// count here means the safety net itself is broken. `idle_enabled_*`
/// quantify lost opportunity (blocks powered but unused), which is how
/// PLB's imprecision shows up.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GatingAudit {
    /// Cycles × blocks where a gated block was used (must be 0 for DCG).
    pub violations: u64,
    /// Unit-cycles powered but idle.
    pub idle_enabled_unit_cycles: u64,
    /// Port-cycles powered but idle.
    pub idle_enabled_port_cycles: u64,
    /// Bus-cycles powered but idle.
    pub idle_enabled_bus_cycles: u64,
}

impl GatingAudit {
    /// Fold the audit over a column view, one popcount sum per column
    /// (integer sums, so any lane grouping gives the per-cycle totals).
    // Always inlined, here and in the other folds: a per-cycle caller's
    // one-lane view then folds away instead of being built in memory and
    // read back through a generic loop every live cycle.
    #[inline(always)]
    pub(crate) fn check(&mut self, act: &ActivityColumns, gate: &GateColumns) {
        for c in FuClass::ALL {
            if c == FuClass::MemPort {
                continue;
            }
            let (violations, idle) =
                mask_audit(act.fu_active[c.index()], gate.fu_powered[c.index()]);
            self.violations += violations;
            self.idle_enabled_unit_cycles += idle;
        }
        let (violations, idle) = mask_audit(act.dcache_port_mask, gate.dcache_ports_powered);
        self.violations += violations;
        self.idle_enabled_port_cycles += idle;

        for (&used, &powered) in act.result_bus_used.iter().zip(gate.result_buses_powered) {
            if used > powered {
                self.violations += u64::from(used - powered);
            } else {
                self.idle_enabled_bus_cycles += u64::from(powered - used);
            }
        }

        for (slots, &occ) in gate.latch_slots.iter().zip(act.latch_occupancy) {
            if let Some(n) = *slots {
                if occ > n {
                    self.violations += u64::from(occ - n);
                }
            }
        }
    }
}

/// `(used-but-gated, powered-but-idle)` instance-cycles of one mask column.
fn mask_audit(used: &[u32], powered: &[u32]) -> (u64, u64) {
    used.iter()
        .zip(powered)
        .fold((0, 0), |(violations, idle), (&u, &p)| {
            (
                violations + u64::from((u & !p).count_ones()),
                idle + u64::from((p & !u).count_ones()),
            )
        })
}

/// Result of [`run_passive`]: per-policy outcomes plus the simulator
/// statistics of the shared measured window.
#[derive(Debug)]
pub struct PassiveRun {
    /// One outcome per policy, in argument order.
    pub outcomes: Vec<PolicyOutcome>,
    /// Simulator statistics over the measured window (warm-up excluded).
    pub stats: SimStats,
}

/// The single warm-up/measure driver loop behind every run variant.
///
/// Pulls blocks of consecutive cycles from `source`
/// ([`ActivitySource::fill_block`]) until `length.warmup_insts +
/// length.measure_insts` instructions have committed, and fans each block
/// out to all `sinks` as a warm-up span and a measured span.
///
/// Cycle `i` of a block is observed iff the committed total *before* it
/// is below the target, and measured iff that same total is at or past
/// the warm-up boundary; every sink's [`ActivitySink::begin_measure`]
/// fires exactly once, between the two spans of the block that crosses
/// the boundary. A live source stops stepping at the target; a replayed
/// block's cycles past it are discarded unobserved, which is sound
/// because the source is dropped with the run.
///
/// Before each block, sinks that constrain resources (active policies)
/// are polled once and their constraints forwarded to the source, which
/// must be a live simulation. The block is at most as long as the
/// smallest [`ActivitySink::horizon`], the cycles over which every
/// sink's constraints are guaranteed to hold, so each cycle runs under
/// exactly the constraints a per-cycle poll would have applied.
///
/// # Errors
///
/// Propagates the first [`ActivitySource::fill_block`] failure (replayed
/// traces only; live simulations are infallible).
pub fn drive(
    source: &mut dyn ActivitySource,
    sinks: &mut [&mut dyn ActivitySink],
    length: RunLength,
) -> Result<(), DcgError> {
    let warm = length.warmup_insts;
    let target = warm + length.measure_insts;
    let mut buffer = Box::new(ActivityBlock::new(0));
    let mut measuring = false;
    while source.committed() < target {
        if !measuring && source.committed() >= warm {
            measuring = true;
            for s in sinks.iter_mut() {
                s.begin_measure();
            }
        }
        let mut lanes = BLOCK_CYCLES;
        for s in sinks.iter_mut() {
            if let Some(c) = s.constraints() {
                source.apply_constraints(c);
            }
            lanes = lanes.min(s.horizon());
        }
        let was_measuring = measuring;
        let mut committed = source.committed();
        let block = source.fill_block(&mut buffer, lanes.max(1), target)?;
        let len = block.len();
        // `begin` is the first measured cycle index; `stop` is one past
        // the last observed cycle.
        let mut begin = if was_measuring { 0 } else { len };
        let mut stop = len;
        for i in 0..len {
            if !measuring && committed >= warm {
                measuring = true;
                begin = i;
            }
            committed += u64::from(block.committed[i]);
            if committed >= target {
                stop = i + 1;
                break;
            }
        }
        let warm_end = begin.min(stop);
        if warm_end > 0 {
            for s in sinks.iter_mut() {
                s.warmup_span(block, 0, warm_end);
            }
        }
        if measuring && !was_measuring {
            for s in sinks.iter_mut() {
                s.begin_measure();
            }
        }
        if begin < stop {
            for s in sinks.iter_mut() {
                s.measure_span(block, begin, stop);
            }
        }
    }
    if !measuring {
        // Degenerate zero-length measure window: still open it so sinks
        // observe the boundary.
        for s in sinks.iter_mut() {
            s.begin_measure();
        }
    }
    Ok(())
}

/// Collect only the measured-window [`SimStats`] from `source` — the
/// cheapest possible consumer (no power model, no policy state).
///
/// This folds whole blocks into the counters without materializing
/// per-cycle records, which is what a stats-only sweep point (e.g. an
/// IPC table) should use.
///
/// # Errors
///
/// As [`drive`].
pub fn run_stats_source(
    source: &mut dyn ActivitySource,
    length: RunLength,
) -> Result<SimStats, DcgError> {
    let mut stats = StatsSink::new();
    drive(source, &mut [&mut stats], length)?;
    Ok(stats.into_stats())
}

/// Run `stream` on `config` evaluating several **passive** policies (and
/// implicitly sharing one timing simulation, since passive policies cannot
/// perturb it). Returns one outcome per policy, in order.
///
/// Every policy that [needs the screen](GatingPolicy::needs_screen) (all
/// but the ungated baseline) is audited strictly, behind a
/// [`crate::GatingSafetyChecker`]: a gated-but-used block is recorded as
/// a [`crate::Hazard`] and the class fails open to ungated (see each
/// outcome's [`PolicyOutcome::safety`]). The baseline's safety report is
/// the default, all zeros.
///
/// # Panics
///
/// Panics if any policy is active ([`GatingPolicy::is_passive`] is
/// `false`).
pub fn run_passive<S: InstStream>(
    config: &SimConfig,
    stream: S,
    length: RunLength,
    policies: &mut [&mut dyn GatingPolicy],
) -> PassiveRun {
    let mut cpu = Processor::new(config.clone(), stream);
    run_passive_with_sinks(config, &mut cpu, length, policies, &mut [])
        .expect("a live simulation source cannot fail")
}

/// [`run_passive`] over an arbitrary [`ActivitySource`] — e.g. a
/// [`crate::ReplaySource`] over a recorded activity trace, which skips
/// the timing simulation entirely — with additional [`ActivitySink`]s
/// riding on the same pass (pass `&mut []` for none).
///
/// Extra sinks see exactly the cycles the policy sinks see (warm-up and
/// measured), after the policy sinks in fan-out order. For cycle-level
/// metrics of one of the policies, use [`run_passive_metered`], which
/// does not decide that policy a second time.
///
/// # Errors
///
/// Propagates a replay failure (exhausted or corrupt trace); partial
/// sink state is discarded with the run.
///
/// # Panics
///
/// As [`run_passive`].
pub fn run_passive_with_sinks(
    config: &SimConfig,
    source: &mut dyn ActivitySource,
    length: RunLength,
    policies: &mut [&mut dyn GatingPolicy],
    extra: &mut [&mut dyn ActivitySink],
) -> Result<PassiveRun, DcgError> {
    passive_pass(config, source, length, policies, None, extra).map(|(run, _)| run)
}

/// [`run_passive_with_sinks`] that also folds the cycle-level
/// [`MetricsReport`] (default [`crate::MetricsConfig`]) of
/// `policies[metered]`.
///
/// The fold reads the lanes that policy's sink has just decided, before
/// the safety screen repairs any of them: the report equals that of a
/// [`crate::MetricsSink`] over a second instance of the policy, without
/// deciding the gates twice.
///
/// # Errors
///
/// As [`run_passive_with_sinks`].
///
/// # Panics
///
/// As [`run_passive`], and if `metered` is out of range.
pub fn run_passive_metered(
    config: &SimConfig,
    source: &mut dyn ActivitySource,
    length: RunLength,
    policies: &mut [&mut dyn GatingPolicy],
    metered: usize,
    extra: &mut [&mut dyn ActivitySink],
) -> Result<(PassiveRun, MetricsReport), DcgError> {
    assert!(
        metered < policies.len(),
        "metered policy {metered} out of range"
    );
    passive_pass(config, source, length, policies, Some(metered), extra)
        .map(|(run, metrics)| (run, metrics.expect("the metered sink folds metrics")))
}

/// The passive pass behind [`run_passive_with_sinks`] and
/// [`run_passive_metered`].
fn passive_pass(
    config: &SimConfig,
    source: &mut dyn ActivitySource,
    length: RunLength,
    policies: &mut [&mut dyn GatingPolicy],
    metered: Option<usize>,
    extra: &mut [&mut dyn ActivitySink],
) -> Result<(PassiveRun, Option<MetricsReport>), DcgError> {
    for p in policies.iter() {
        assert!(
            p.is_passive(),
            "policy {} is active and needs its own run",
            p.name()
        );
    }
    let groups = LatchGroups::new(&config.depth);
    let model = PowerModel::new(config, &groups);

    let mut policy_sinks: Vec<PolicySink<'_>> = policies
        .iter_mut()
        .enumerate()
        .map(|(i, p)| {
            let screen = p.needs_screen();
            let sink = PolicySink::new(&mut **p, &model, config, &groups, screen, false);
            if metered == Some(i) {
                sink.metered()
            } else {
                sink
            }
        })
        .collect();
    let mut stats = StatsSink::new();
    {
        let mut sinks: Vec<&mut dyn ActivitySink> =
            Vec::with_capacity(policy_sinks.len() + 1 + extra.len());
        for s in policy_sinks.iter_mut() {
            sinks.push(s);
        }
        sinks.push(&mut stats);
        for e in extra.iter_mut() {
            sinks.push(&mut **e);
        }
        drive(source, &mut sinks, length)?;
    }

    let metrics = policy_sinks.iter_mut().find_map(PolicySink::take_metrics);
    let run = PassiveRun {
        outcomes: policy_sinks
            .into_iter()
            .map(PolicySink::into_outcome)
            .collect(),
        stats: stats.into_stats(),
    };
    Ok((run, metrics))
}

/// Run `stream` on `config` under the **clairvoyant oracle**: every
/// gateable block is powered exactly in the cycles it is used, decided
/// with perfect same-cycle knowledge.
///
/// The oracle is not implementable in hardware (gate-enable signals need
/// set-up time) — it is the upper bound of Wattch's most aggressive
/// conditional-clocking style (`cc3`). Comparing DCG against it measures
/// how much of the theoretically available gating DCG's *realizable*
/// advance knowledge captures; `repro oracle-comparison` shows DCG is
/// within a fraction of a percent.
///
/// This is a live simulation with one [`WattchSink`], whose `cc2` it
/// returns as the `"oracle"` outcome. A run that simulates anyway should
/// put the sink on its own pass instead (see [`run_passive_with_sinks`]).
pub fn run_oracle<S: InstStream>(
    config: &SimConfig,
    stream: S,
    length: RunLength,
) -> PolicyOutcome {
    let mut cpu = Processor::new(config.clone(), stream);
    let groups = LatchGroups::new(&config.depth);
    let mut sink = WattchSink::new(config, &groups);
    drive(&mut cpu, &mut [&mut sink], length).expect("a live simulation source cannot fail");
    PolicyOutcome {
        name: "oracle".to_string(),
        report: sink.into_styles().cc2,
        audit: GatingAudit::default(),
        safety: SafetyReport::default(),
    }
}

/// Reports for Wattch's idealized conditional-clocking reference styles,
/// folded by one [`WattchSink`].
///
/// Wattch (the paper's power infrastructure) offers clock-gating styles of
/// increasing aggressiveness as *accounting modes* (not realizable
/// controllers):
///
/// * `cc0` — no gating (the paper's base case): the ungated
///   [`crate::NoGating`] outcome of the same pass, which every saving
///   below is taken against;
/// * `cc1` — a block is fully powered in any cycle with at least one
///   access, fully gated otherwise (all-or-nothing, same-cycle knowledge);
/// * `cc2` — power scales with the number of instances/ports used
///   (the clairvoyant gate of [`run_oracle`]);
/// * `cc3` — like `cc2` but idle blocks retain a fixed fraction
///   (conventionally 10 %) of full power; equivalently,
///   `saving_cc3 = (1 − floor) × saving_cc2`, so it needs no extra fold.
#[derive(Debug)]
pub struct WattchStyles {
    /// `cc1`: all-or-nothing per block class.
    pub cc1: PowerReport,
    /// `cc2`: per-instance clairvoyant gating.
    pub cc2: PowerReport,
}

impl WattchStyles {
    /// Total-power saving of `cc3` vs the ungated `base`, with the given
    /// idle-power floor.
    pub fn cc3_saving(&self, base: &PowerReport, idle_floor: f64) -> f64 {
        (1.0 - idle_floor) * self.cc2.power_saving_vs(base)
    }
}

/// Run `stream` on `config` under one **active** policy (PLB): the policy's
/// constraints shape the timing, so it gets a dedicated simulation.
///
/// Active policies are audited non-strictly (PLB may gate used latches in
/// principle; its predictive mistakes surface as performance loss and lost
/// opportunity, not panics).
pub fn run_active<S: InstStream>(
    config: &SimConfig,
    stream: S,
    length: RunLength,
    policy: &mut dyn GatingPolicy,
) -> PolicyOutcome {
    let mut cpu = Processor::new(config.clone(), stream);
    let groups = LatchGroups::new(&config.depth);
    let model = PowerModel::new(config, &groups);
    let mut sink = PolicySink::new(policy, &model, config, &groups, false, true);
    drive(&mut cpu, &mut [&mut sink], length).expect("a live simulation source cannot fail");
    sink.into_outcome()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dcg, NoGating, Plb, PlbVariant};
    use dcg_power::{Component, GateState};
    use dcg_sim::CycleActivity;
    use dcg_workloads::{Spec2000, SyntheticWorkload};

    fn stream(name: &str) -> SyntheticWorkload {
        SyntheticWorkload::new(Spec2000::by_name(name).unwrap(), 7)
    }

    #[test]
    fn dcg_saves_power_with_zero_violations() {
        let cfg = SimConfig::baseline_8wide();
        let groups = LatchGroups::new(&cfg.depth);
        let mut base = NoGating::new(&cfg, &groups);
        let mut dcg = Dcg::new(&cfg, &groups);
        let run = run_passive(
            &cfg,
            stream("gzip"),
            RunLength::quick(),
            &mut [&mut base, &mut dcg],
        );
        assert!(run.stats.ipc() > 0.0);
        let base_r = &run.outcomes[0];
        let dcg_r = &run.outcomes[1];
        assert_eq!(dcg_r.audit.violations, 0);
        let saving = dcg_r.report.power_saving_vs(&base_r.report);
        assert!(
            saving > 0.05 && saving < 0.5,
            "DCG saving out of band: {saving}"
        );
        // Same run, same cycles: DCG is performance-neutral by construction.
        assert_eq!(base_r.report.cycles(), dcg_r.report.cycles());
        assert_eq!(base_r.report.committed(), dcg_r.report.committed());
    }

    #[test]
    fn plb_needs_active_run_and_costs_performance() {
        let cfg = SimConfig::baseline_8wide();
        let groups = LatchGroups::new(&cfg.depth);

        let mut base = NoGating::new(&cfg, &groups);
        let base_out = run_passive(&cfg, stream("swim"), RunLength::quick(), &mut [&mut base])
            .outcomes
            .remove(0);

        let mut plb = Plb::new(PlbVariant::Orig, &cfg, &groups);
        let plb_out = run_active(&cfg, stream("swim"), RunLength::quick(), &mut plb);
        let rel = plb_out.report.relative_performance_vs(&base_out.report);
        assert!(
            rel <= 1.001,
            "PLB cannot be faster than the unconstrained machine: {rel}"
        );
        let saving = plb_out.report.power_saving_vs(&base_out.report);
        assert!(saving > -0.05, "PLB should not burn more power: {saving}");
    }

    /// A live baseline + DCG pass of `name` with a [`WattchSink`] riding
    /// it.
    fn pass_with_styles(cfg: &SimConfig, name: &str) -> (PassiveRun, WattchStyles) {
        let groups = LatchGroups::new(&cfg.depth);
        let mut base = NoGating::new(cfg, &groups);
        let mut dcg = Dcg::new(cfg, &groups);
        let mut wattch = WattchSink::new(cfg, &groups);
        let mut cpu = Processor::new(cfg.clone(), stream(name));
        let run = run_passive_with_sinks(
            cfg,
            &mut cpu,
            RunLength::quick(),
            &mut [&mut base, &mut dcg],
            &mut [&mut wattch],
        )
        .expect("a live simulation source cannot fail");
        (run, wattch.into_styles())
    }

    fn bits(r: &PowerReport) -> Vec<u64> {
        let mut v = vec![r.cycles(), r.committed()];
        v.extend(Component::ALL.iter().map(|c| r.component_pj(*c).to_bits()));
        v
    }

    #[test]
    fn wattch_styles_are_ordered() {
        let cfg = SimConfig::baseline_8wide();
        let (run, styles) = pass_with_styles(&cfg, "gzip");
        let base = &run.outcomes[0].report;
        let cc1 = styles.cc1.power_saving_vs(base);
        let cc2 = styles.cc2.power_saving_vs(base);
        let cc3 = styles.cc3_saving(base, 0.10);
        assert!(cc1 > 0.0, "cc1 must save something: {cc1}");
        assert!(
            cc2 >= cc1,
            "per-instance gating dominates all-or-nothing: {cc2} vs {cc1}"
        );
        assert!((cc3 - 0.9 * cc2).abs() < 1e-12, "cc3 is cc2 with a floor");
    }

    /// Per-cycle reference for the ungated `cc0` report: one
    /// `cycle_energy` + `record` per measured cycle.
    struct UngatedReference {
        model: PowerModel,
        ungated: GateState,
        full: PowerReport,
    }

    impl ActivitySink for UngatedReference {
        fn measure_cycle(&mut self, act: &CycleActivity) {
            self.full
                .record(&self.model.cycle_energy(act, &self.ungated), act.committed);
        }
    }

    #[test]
    fn riding_wattch_sink_matches_separate_simulations() {
        let cfg = SimConfig::baseline_8wide();
        let groups = LatchGroups::new(&cfg.depth);
        let (run, styles) = pass_with_styles(&cfg, "gzip");

        let mut solo = WattchSink::new(&cfg, &groups);
        let mut reference = UngatedReference {
            model: PowerModel::new(&cfg, &groups),
            ungated: GateState::ungated(&cfg, &groups),
            full: PowerReport::new(),
        };
        let mut cpu = Processor::new(cfg.clone(), stream("gzip"));
        drive(
            &mut cpu,
            &mut [&mut solo, &mut reference],
            RunLength::quick(),
        )
        .expect("a live simulation source cannot fail");
        let solo = solo.into_styles();
        let oracle = run_oracle(&cfg, stream("gzip"), RunLength::quick());

        assert_eq!(bits(&styles.cc1), bits(&solo.cc1));
        assert_eq!(bits(&styles.cc2), bits(&solo.cc2));
        assert_eq!(bits(&styles.cc2), bits(&oracle.report));
        assert_eq!(oracle.name, "oracle");
        // cc0 is the pass's own baseline.
        assert_eq!(bits(&run.outcomes[0].report), bits(&reference.full));
    }

    #[test]
    fn iq_gating_option_stacks_on_dcg() {
        let cfg = SimConfig::baseline_8wide();
        let groups = LatchGroups::new(&cfg.depth);
        let mut base = NoGating::new(&cfg, &groups);
        let mut plain = Dcg::new(&cfg, &groups);
        let mut with_iq = Dcg::with_options(
            &cfg,
            &groups,
            crate::DcgOptions {
                gate_issue_queue: true,
            },
        );
        let run = run_passive(
            &cfg,
            stream("gzip"),
            RunLength::quick(),
            &mut [&mut base, &mut plain, &mut with_iq],
        );
        let base_r = &run.outcomes[0].report;
        let s_plain = run.outcomes[1].report.power_saving_vs(base_r);
        let s_iq = run.outcomes[2].report.power_saving_vs(base_r);
        assert!(
            s_iq > s_plain,
            "IQ gating must add savings: {s_iq} vs {s_plain}"
        );
        assert_eq!(run.outcomes[2].audit.violations, 0);
    }

    #[test]
    #[should_panic(expected = "needs its own run")]
    fn active_policy_rejected_by_run_passive() {
        let cfg = SimConfig::baseline_8wide();
        let groups = LatchGroups::new(&cfg.depth);
        let mut plb = Plb::new(PlbVariant::Orig, &cfg, &groups);
        let _ = run_passive(&cfg, stream("gzip"), RunLength::quick(), &mut [&mut plb]);
    }

    #[test]
    fn zero_warmup_measures_from_first_cycle() {
        let cfg = SimConfig::baseline_8wide();
        let groups = LatchGroups::new(&cfg.depth);
        let mut base = NoGating::new(&cfg, &groups);
        let length = RunLength {
            warmup_insts: 0,
            measure_insts: 2_000,
        };
        let run = run_passive(&cfg, stream("gzip"), length, &mut [&mut base]);
        assert!(run.stats.committed >= 2_000);
        assert_eq!(run.stats.cycles, run.outcomes[0].report.cycles());
    }
}
