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
//! [`run_passive`]), [`run_stats_source`], [`run_oracle`] /
//! [`run_oracle_source`], [`run_wattch_styles`] and [`run_active`].
//! Whether a run replays or simulates is decided once, by
//! [`crate::TraceCache::run`].

use dcg_isa::FuClass;
use dcg_power::{GateColumns, PowerModel, PowerReport};
use dcg_sim::{
    ActivityBlock, ActivityColumns, LatchGroups, Processor, SimConfig, SimStats, BLOCK_CYCLES,
};
use dcg_workloads::InstStream;

use crate::error::DcgError;
use crate::policy::GatingPolicy;
use crate::safety::SafetyReport;
use crate::sinks::{ActivitySink, OracleSink, PolicySink, StatsSink, WattchSink};
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
/// DCG-family policies are audited strictly, behind a
/// [`crate::GatingSafetyChecker`]: a gated-but-used block is recorded as
/// a [`crate::Hazard`] and the class fails open to ungated (see each
/// outcome's [`PolicyOutcome::safety`]).
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
/// Callers attach a [`crate::MetricsSink`] here to collect cycle-level
/// observability without an extra simulation. Extra sinks see exactly
/// the cycles the policy sinks see (warm-up and measured), after the
/// policy sinks in fan-out order.
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
        .map(|p| PolicySink::new(&mut **p, &model, config, &groups, true, false))
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

    Ok(PassiveRun {
        outcomes: policy_sinks
            .into_iter()
            .map(PolicySink::into_outcome)
            .collect(),
        stats: stats.into_stats(),
    })
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
pub fn run_oracle<S: InstStream>(
    config: &SimConfig,
    stream: S,
    length: RunLength,
) -> PolicyOutcome {
    let mut cpu = Processor::new(config.clone(), stream);
    run_oracle_source(config, &mut cpu, length).expect("a live simulation source cannot fail")
}

/// [`run_oracle`] over an arbitrary [`ActivitySource`] (the oracle only
/// reads activity, so a replayed trace serves as well as a live run).
///
/// # Errors
///
/// As [`drive`].
pub fn run_oracle_source(
    config: &SimConfig,
    source: &mut dyn ActivitySource,
    length: RunLength,
) -> Result<PolicyOutcome, DcgError> {
    let groups = LatchGroups::new(&config.depth);
    let model = PowerModel::new(config, &groups);
    let mut sink = OracleSink::new(&model, config, &groups);
    drive(source, &mut [&mut sink], length)?;
    Ok(sink.into_outcome())
}

/// Reports for Wattch's idealized conditional-clocking reference styles,
/// computed from one simulation.
///
/// Wattch (the paper's power infrastructure) offers clock-gating styles of
/// increasing aggressiveness as *accounting modes* (not realizable
/// controllers):
///
/// * `cc0` / `full` — no gating (the paper's base case);
/// * `cc1` — a block is fully powered in any cycle with at least one
///   access, fully gated otherwise (all-or-nothing, same-cycle knowledge);
/// * `cc2` — power scales with the number of instances/ports used
///   (identical to [`run_oracle`]'s clairvoyant gate);
/// * `cc3` — like `cc2` but idle blocks retain a fixed fraction
///   (conventionally 10 %) of full power; equivalently,
///   `saving_cc3 = (1 − floor) × saving_cc2`, so it needs no extra run.
#[derive(Debug)]
pub struct WattchStyles {
    /// `cc0`: everything powered.
    pub full: PowerReport,
    /// `cc1`: all-or-nothing per block class.
    pub cc1: PowerReport,
    /// `cc2`: per-instance clairvoyant gating.
    pub cc2: PowerReport,
}

impl WattchStyles {
    /// Total-power saving of `cc1` vs the ungated base.
    pub fn cc1_saving(&self) -> f64 {
        self.cc1.power_saving_vs(&self.full)
    }

    /// Total-power saving of `cc2` vs the ungated base.
    pub fn cc2_saving(&self) -> f64 {
        self.cc2.power_saving_vs(&self.full)
    }

    /// Total-power saving of `cc3` with the given idle-power floor.
    pub fn cc3_saving(&self, idle_floor: f64) -> f64 {
        (1.0 - idle_floor) * self.cc2_saving()
    }
}

/// Evaluate Wattch's `cc1`/`cc2` reference accounting styles on one run
/// (see [`WattchStyles`]). These use *same-cycle* knowledge and are
/// therefore upper bounds no realizable controller can exceed.
pub fn run_wattch_styles<S: InstStream>(
    config: &SimConfig,
    stream: S,
    length: RunLength,
) -> WattchStyles {
    let mut cpu = Processor::new(config.clone(), stream);
    let groups = LatchGroups::new(&config.depth);
    let model = PowerModel::new(config, &groups);
    let mut sink = WattchSink::new(&model, config, &groups);
    drive(&mut cpu, &mut [&mut sink], length).expect("a live simulation source cannot fail");
    sink.into_styles()
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
    use dcg_sim::LatchGroups;
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

    #[test]
    fn wattch_styles_are_ordered() {
        let cfg = SimConfig::baseline_8wide();
        let styles = run_wattch_styles(&cfg, stream("gzip"), RunLength::quick());
        let cc1 = styles.cc1_saving();
        let cc2 = styles.cc2_saving();
        let cc3 = styles.cc3_saving(0.10);
        assert!(cc1 > 0.0, "cc1 must save something: {cc1}");
        assert!(
            cc2 >= cc1,
            "per-instance gating dominates all-or-nothing: {cc2} vs {cc1}"
        );
        assert!((cc3 - 0.9 * cc2).abs() < 1e-12, "cc3 is cc2 with a floor");
        // cc2 equals the clairvoyant oracle by construction.
        let oracle = run_oracle(&cfg, stream("gzip"), RunLength::quick());
        let oracle_saving = oracle.report.power_saving_vs(&styles.full);
        assert!((oracle_saving - cc2).abs() < 1e-9);
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
