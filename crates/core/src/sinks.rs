//! Consumers of the per-cycle activity stream.
//!
//! One [`drive`](crate::drive) pass fans each cycle's
//! [`CycleActivity`] out to any number of sinks: policy evaluation with
//! energy accounting and the gating audit, Wattch/oracle reference
//! accounting and statistics accumulation (a cache miss records at the
//! source instead, see [`crate::CachedSource`]). Because every sink takes the activity by reference, adding consumers never
//! adds simulation passes — the "simulate once" architecture.

use dcg_isa::FuClass;
use dcg_power::{GateColumns, GateLanes, GateState, PowerModel, PowerReport};
use dcg_sim::{
    ActivityBlock, ActivityColumns, CycleActivity, LatchGroups, ResourceConstraints, SimConfig,
    SimStats,
};

use crate::metrics::{
    fu_class_label, ComponentMetrics, GateDisagreement, Histogram, MetricsConfig, MetricsReport,
    WindowSample,
};
use crate::policy::GatingPolicy;
use crate::runner::{GatingAudit, PolicyOutcome, WattchStyles};
use crate::safety::{GatingSafetyChecker, SafetyReport};

/// A consumer of per-cycle activity.
///
/// [`drive`](crate::drive) calls [`ActivitySink::warmup_cycle`] for every
/// cycle before the measurement window opens,
/// [`ActivitySink::begin_measure`] exactly once at the window boundary,
/// and [`ActivitySink::measure_cycle`] for every measured cycle.
/// [`ActivitySink::constraints`] is polled before each cycle; a sink
/// wrapping an active policy returns its resource limits there (which
/// only a live simulation source can honor).
pub trait ActivitySink {
    /// Observe a warm-up cycle (nothing should be recorded).
    fn warmup_cycle(&mut self, _act: &CycleActivity) {}

    /// The measurement window opens; the next cycle is measured.
    fn begin_measure(&mut self) {}

    /// Observe and account one measured cycle.
    fn measure_cycle(&mut self, act: &CycleActivity);

    /// Resource constraints to apply to the upcoming cycle, if any.
    fn constraints(&self) -> Option<ResourceConstraints> {
        None
    }

    /// Observe warm-up cycles `from..to` of a decoded block.
    ///
    /// The default is the per-cycle compatibility shim: extract each
    /// column and forward it to
    /// [`warmup_cycle`](ActivitySink::warmup_cycle), preserving the exact
    /// scalar call sequence. Sinks with a vectorized fold (or nothing to
    /// do during warm-up) override this.
    fn warmup_span(&mut self, block: &ActivityBlock, from: usize, to: usize) {
        let mut act = CycleActivity::default();
        for i in from..to {
            block.extract(i, &mut act);
            self.warmup_cycle(&act);
        }
    }

    /// Observe and account measured cycles `from..to` of a decoded block.
    ///
    /// Same shim contract as [`warmup_span`](ActivitySink::warmup_span):
    /// the default forwards column-by-column to
    /// [`measure_cycle`](ActivitySink::measure_cycle), so any sink is
    /// automatically block-capable and bit-identical to the scalar path.
    fn measure_span(&mut self, block: &ActivityBlock, from: usize, to: usize) {
        let mut act = CycleActivity::default();
        for i in from..to {
            block.extract(i, &mut act);
            self.measure_cycle(&act);
        }
    }
}

/// Evaluates one gating policy: per-cycle gate state, safety audit and
/// energy accounting.
///
/// Per cycle the order is: gate, screen (fail open), audit, energy,
/// observe. A block span runs the same steps span by span:
/// [`GatingPolicy::gate_lanes`] decides and observes every lane, then
/// [`GatingSafetyChecker::screen_span`], [`GatingAudit::check`] and
/// [`PowerModel::fold_span`] fold the lanes in cycle order. The policy
/// never sees the screened gates, so deciding all lanes first changes
/// nothing, and the audit and energy folds run the per-cycle code on a
/// wider view.
pub(crate) struct PolicySink<'a> {
    policy: &'a mut dyn GatingPolicy,
    model: &'a PowerModel,
    config: &'a SimConfig,
    groups: &'a LatchGroups,
    /// Strict policies (DCG's determinism guarantee) run behind the
    /// safety checker: a gated-but-used block becomes a recorded hazard
    /// and the class fails open. Active policies (PLB) are predictive by
    /// design and carry no checker — their misses are lost opportunity,
    /// not safety violations.
    safety: Option<GatingSafetyChecker>,
    /// Forward the policy's resource constraints to the source (active
    /// runs only; passive policies never constrain).
    constrain: bool,
    report: PowerReport,
    audit: GatingAudit,
    /// Scratch gate state reused across cycles (see
    /// [`GatingPolicy::gate_into`]).
    gate: GateState,
    /// Scratch gate lanes reused across block spans.
    lanes: GateLanes,
}

impl<'a> PolicySink<'a> {
    pub(crate) fn new(
        policy: &'a mut dyn GatingPolicy,
        model: &'a PowerModel,
        config: &'a SimConfig,
        groups: &'a LatchGroups,
        strict: bool,
        constrain: bool,
    ) -> PolicySink<'a> {
        PolicySink {
            policy,
            model,
            config,
            groups,
            safety: strict.then(|| GatingSafetyChecker::new(config, groups)),
            constrain,
            report: PowerReport::new(),
            audit: GatingAudit::default(),
            gate: GateState::ungated(config, groups),
            lanes: GateLanes::new(groups.len()),
        }
    }

    pub(crate) fn into_outcome(self) -> PolicyOutcome {
        PolicyOutcome {
            name: self.policy.name().to_string(),
            report: self.report,
            audit: self.audit,
            safety: self
                .safety
                .map(GatingSafetyChecker::into_report)
                .unwrap_or_default(),
        }
    }

    /// Decide and screen lanes `from..to` of `block` into `self.lanes`.
    fn gate_span(&mut self, block: &ActivityBlock, from: usize, to: usize) {
        self.policy.gate_lanes(block, from, to, &mut self.lanes);
        debug_assert!((from..to).all(|i| self
            .lanes
            .gate(i)
            .validate(self.config, self.groups)
            .is_ok()));
        if let Some(chk) = &mut self.safety {
            chk.screen_span(&mut self.lanes, block, from, to);
        }
    }
}

impl ActivitySink for PolicySink<'_> {
    fn warmup_cycle(&mut self, act: &CycleActivity) {
        // Keep the policy's pipelined control state primed, but record
        // nothing. The safety checker still screens warm-up cycles: a
        // hazard is a hazard whenever it strikes, and backoff state must
        // be continuous across the measurement boundary.
        self.policy.gate_into(act.cycle, &mut self.gate);
        if let Some(chk) = &mut self.safety {
            chk.screen(&mut self.gate, act);
        }
        self.policy.observe(act);
    }

    fn measure_cycle(&mut self, act: &CycleActivity) {
        self.policy.gate_into(act.cycle, &mut self.gate);
        debug_assert!(self.gate.validate(self.config, self.groups).is_ok());
        if let Some(chk) = &mut self.safety {
            // Screen (and fail open) *before* the audit and the energy
            // accounting: downstream consumers see only safe gates.
            chk.screen(&mut self.gate, act);
        }
        self.audit.check(&act.columns(), &self.gate.columns());
        self.report
            .record(&self.model.cycle_energy(act, &self.gate), act.committed);
        self.policy.observe(act);
    }

    fn constraints(&self) -> Option<ResourceConstraints> {
        self.constrain.then(|| self.policy.constraints())
    }

    fn warmup_span(&mut self, block: &ActivityBlock, from: usize, to: usize) {
        self.gate_span(block, from, to);
    }

    fn measure_span(&mut self, block: &ActivityBlock, from: usize, to: usize) {
        self.gate_span(block, from, to);
        let (act_cols, gate_cols) = (block.columns(from, to), self.lanes.columns(from, to));
        self.audit.check(&act_cols, &gate_cols);
        self.model
            .fold_span(&act_cols, &gate_cols, &mut self.report);
    }
}

/// Write the clairvoyant oracle's gate for `act` into `out`: every
/// gateable block powered exactly as used. Fields the oracle does not
/// decide keep `out`'s values.
fn oracle_gate(act: &CycleActivity, groups: &LatchGroups, out: &mut GateState) {
    out.fu_powered = act.fu_active;
    out.dcache_ports_powered = act.dcache_port_mask;
    out.result_buses_powered = act.result_bus_used;
    for ((slot, spec), &occ) in out
        .latch_slots
        .iter_mut()
        .zip(groups.specs())
        .zip(&act.latch_occupancy)
    {
        *slot = spec.gated.then_some(occ);
    }
}

/// Clairvoyant-oracle accounting: every gateable block powered exactly in
/// the cycles it is used (see [`crate::run_oracle`]).
pub(crate) struct OracleSink<'a> {
    model: &'a PowerModel,
    groups: &'a LatchGroups,
    /// Scratch gate rewritten every cycle; starts ungated, and the fields
    /// the oracle does not decide keep that value.
    gate: GateState,
    report: PowerReport,
}

impl<'a> OracleSink<'a> {
    pub(crate) fn new(
        model: &'a PowerModel,
        config: &SimConfig,
        groups: &'a LatchGroups,
    ) -> OracleSink<'a> {
        OracleSink {
            model,
            groups,
            gate: GateState::ungated(config, groups),
            report: PowerReport::new(),
        }
    }

    pub(crate) fn into_outcome(self) -> PolicyOutcome {
        PolicyOutcome {
            name: "oracle".to_string(),
            report: self.report,
            audit: GatingAudit::default(),
            safety: SafetyReport::default(),
        }
    }
}

impl ActivitySink for OracleSink<'_> {
    fn measure_cycle(&mut self, act: &CycleActivity) {
        oracle_gate(act, self.groups, &mut self.gate);
        self.report
            .record(&self.model.cycle_energy(act, &self.gate), act.committed);
    }

    // Nothing accumulates during warm-up, so skip the shim's extraction.
    fn warmup_span(&mut self, _block: &ActivityBlock, _from: usize, _to: usize) {}
}

/// Wattch `cc0`/`cc1`/`cc2` reference accounting (see
/// [`crate::run_wattch_styles`]).
pub(crate) struct WattchSink<'a> {
    model: &'a PowerModel,
    groups: &'a LatchGroups,
    ungated: GateState,
    /// Scratch `cc1` and `cc2` gates, rewritten every cycle.
    cc1_gate: GateState,
    cc2_gate: GateState,
    full: PowerReport,
    cc1: PowerReport,
    cc2: PowerReport,
}

impl<'a> WattchSink<'a> {
    pub(crate) fn new(
        model: &'a PowerModel,
        config: &SimConfig,
        groups: &'a LatchGroups,
    ) -> WattchSink<'a> {
        let ungated = GateState::ungated(config, groups);
        WattchSink {
            model,
            groups,
            cc1_gate: ungated.clone(),
            cc2_gate: ungated.clone(),
            ungated,
            full: PowerReport::new(),
            cc1: PowerReport::new(),
            cc2: PowerReport::new(),
        }
    }

    pub(crate) fn into_styles(self) -> WattchStyles {
        WattchStyles {
            full: self.full,
            cc1: self.cc1,
            cc2: self.cc2,
        }
    }
}

impl ActivitySink for WattchSink<'_> {
    fn measure_cycle(&mut self, act: &CycleActivity) {
        // cc2: exact per-instance usage.
        oracle_gate(act, self.groups, &mut self.cc2_gate);

        // cc1: all instances of a class powered if any is used.
        let (g1, full) = (&mut self.cc1_gate, &self.ungated);
        for (powered, (&used, &all)) in g1
            .fu_powered
            .iter_mut()
            .zip(act.fu_active.iter().zip(&full.fu_powered))
        {
            *powered = if used == 0 { 0 } else { all };
        }
        g1.dcache_ports_powered = if act.dcache_port_mask == 0 {
            0
        } else {
            full.dcache_ports_powered
        };
        g1.result_buses_powered = if act.result_bus_used == 0 {
            0
        } else {
            full.result_buses_powered
        };
        for ((slot, spec), &occ) in g1
            .latch_slots
            .iter_mut()
            .zip(self.groups.specs())
            .zip(&act.latch_occupancy)
        {
            *slot = (spec.gated && occ == 0).then_some(0);
        }

        self.full
            .record(&self.model.cycle_energy(act, &self.ungated), act.committed);
        self.cc1
            .record(&self.model.cycle_energy(act, &self.cc1_gate), act.committed);
        self.cc2
            .record(&self.model.cycle_energy(act, &self.cc2_gate), act.committed);
    }

    // Nothing accumulates during warm-up, so skip the shim's extraction.
    fn warmup_span(&mut self, _block: &ActivityBlock, _from: usize, _to: usize) {}
}

/// FU classes whose power is accounted per instance (memory ports are
/// accounted as D-cache ports instead, mirroring [`GatingAudit::check`]).
const UNIT_CLASSES: [FuClass; 4] = [
    FuClass::IntAlu,
    FuClass::IntMulDiv,
    FuClass::FpAlu,
    FuClass::FpMulDiv,
];

/// Index of the `dcache-ports` entry in [`MetricsReport::components`].
const COMP_PORTS: usize = UNIT_CLASSES.len();
/// Index of the `result-buses` entry.
const COMP_BUSES: usize = COMP_PORTS + 1;
/// Index of the `pipeline-latches` entry.
const COMP_LATCHES: usize = COMP_BUSES + 1;

/// Cycle-level observability sink: per-component counters, occupancy
/// histograms, a windowed utilization time series, and the
/// gating-decision audit trail (see [`crate::metrics`]).
///
/// The sink evaluates its own (passive) policy instance per cycle —
/// passive policies are deterministic pure functions of the activity
/// stream, so a second instance reproduces exactly the gate decisions of
/// the [`PolicySink`] riding the same pass, live or replayed.
pub struct MetricsSink<'a> {
    policy: &'a mut dyn GatingPolicy,
    /// Scratch gate state reused across cycles.
    gate: GateState,
    /// Scratch gate lanes reused across block spans.
    lanes: GateLanes,
    fold: MetricsFold<'a>,
}

/// The accounting half of a [`MetricsSink`]: everything but the policy
/// and its gate scratch, so a fold can borrow the gates the sink owns.
struct MetricsFold<'a> {
    groups: &'a LatchGroups,
    metrics_config: MetricsConfig,
    /// Slots per latch group (an ungated or `None` entry powers this many).
    issue_width: u32,
    report: MetricsReport,
    /// The currently accumulating (not yet flushed) window.
    win: WindowSample,
}

impl<'a> MetricsSink<'a> {
    /// A sink observing `policy` with the default [`MetricsConfig`].
    pub fn new(
        policy: &'a mut dyn GatingPolicy,
        config: &SimConfig,
        groups: &'a LatchGroups,
    ) -> MetricsSink<'a> {
        MetricsSink::with_config(policy, config, groups, MetricsConfig::default())
    }

    /// A sink observing `policy` with explicit metrics tuning.
    ///
    /// # Panics
    ///
    /// Panics if `policy` is active or `metrics_config.window` is zero.
    pub fn with_config(
        policy: &'a mut dyn GatingPolicy,
        config: &SimConfig,
        groups: &'a LatchGroups,
        metrics_config: MetricsConfig,
    ) -> MetricsSink<'a> {
        assert!(
            policy.is_passive(),
            "MetricsSink re-evaluates its policy from the activity stream, \
             which only works for passive policies; {} is active",
            policy.name()
        );
        assert!(metrics_config.window > 0, "metrics window must be non-zero");
        let issue_width = config.issue_width as u32;
        let mut components: Vec<ComponentMetrics> = UNIT_CLASSES
            .iter()
            .map(|c| ComponentMetrics::new(fu_class_label(*c), config.fu_count(*c) as u32))
            .collect();
        components.push(ComponentMetrics::new(
            "dcache-ports",
            config.mem_ports as u32,
        ));
        components.push(ComponentMetrics::new(
            "result-buses",
            config.result_buses as u32,
        ));
        components.push(ComponentMetrics::new(
            "pipeline-latches",
            groups.gated_count() as u32 * issue_width,
        ));
        let report = MetricsReport {
            policy: policy.name().to_string(),
            window: metrics_config.window,
            cycles: 0,
            committed: 0,
            components,
            fu_occupancy: FuClass::ALL
                .iter()
                .map(|c| Histogram::new(config.fu_count(*c) as u32))
                .collect(),
            iq_fill: Histogram::new(config.iq_entries as u32),
            rob_fill: Histogram::new(config.rob_entries as u32),
            lsq_fill: Histogram::new(config.lsq_entries as u32),
            windows: Vec::new(),
            audit: Vec::new(),
            audit_dropped: 0,
        };
        MetricsSink {
            policy,
            gate: GateState::ungated(config, groups),
            lanes: GateLanes::new(groups.len()),
            fold: MetricsFold {
                groups,
                metrics_config,
                issue_width,
                report,
                win: WindowSample::empty(0),
            },
        }
    }

    /// Finish the report (flushes the partial final window).
    pub fn into_report(self) -> MetricsReport {
        let MetricsFold {
            mut report, win, ..
        } = self.fold;
        if win.cycles > 0 {
            report.windows.push(win);
        }
        report
    }
}

impl std::fmt::Debug for MetricsSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let report = &self.fold.report;
        f.debug_struct("MetricsSink")
            .field("policy", &report.policy)
            .field("cycles", &report.cycles)
            .field("windows", &report.windows.len())
            .finish_non_exhaustive()
    }
}

impl MetricsFold<'_> {
    /// Account every cycle of a column view, in cycle order.
    #[inline(always)]
    fn account(&mut self, act: &ActivityColumns, gate: &GateColumns) {
        for j in 0..act.len {
            self.account_cycle(act, gate, j);
        }
    }

    /// Account cycle `j` of a column view.
    #[inline(always)]
    fn account_cycle(&mut self, act: &ActivityColumns, gate: &GateColumns, j: usize) {
        let cycle = act.cycle(j);
        let committed = u64::from(act.committed[j]);
        self.report.cycles += 1;
        self.report.committed += committed;
        if self.win.cycles == 0 {
            self.win.start_cycle = cycle;
        }
        self.win.cycles += 1;
        self.win.committed += committed;
        self.win.issued += u64::from(act.issued[j]);

        for (hist, col) in self.report.fu_occupancy.iter_mut().zip(&act.fu_active) {
            hist.record(col[j].count_ones());
        }
        self.report.iq_fill.record(act.iq_occupancy[j]);
        self.report.rob_fill.record(act.rob_occupancy[j]);
        self.report.lsq_fill.record(act.lsq_occupancy[j]);

        for (i, c) in UNIT_CLASSES.iter().enumerate() {
            let used_mask = act.fu_active[c.index()][j];
            let powered_mask = gate.fu_powered[c.index()][j];
            let comp = &mut self.report.components[i];
            let cap = u64::from(comp.instances);
            let used = u64::from(used_mask.count_ones());
            let powered = u64::from(powered_mask.count_ones());
            comp.used_instance_cycles += used;
            comp.powered_instance_cycles += powered;
            comp.gated_instance_cycles += cap - powered;
            comp.idle_instance_cycles += cap - used;
            self.win.unit_used += used;
            self.win.unit_gated += cap - powered;
            if used_mask != powered_mask {
                comp.disagreement_cycles += 1;
                self.disagree(cycle, fu_class_label(*c), powered_mask, used_mask);
            }
        }

        {
            let used_mask = act.dcache_port_mask[j];
            let powered_mask = gate.dcache_ports_powered[j];
            let comp = &mut self.report.components[COMP_PORTS];
            let cap = u64::from(comp.instances);
            let used = u64::from(used_mask.count_ones());
            let powered = u64::from(powered_mask.count_ones());
            comp.used_instance_cycles += used;
            comp.powered_instance_cycles += powered;
            comp.gated_instance_cycles += cap - powered;
            comp.idle_instance_cycles += cap - used;
            self.win.port_used += used;
            self.win.port_gated += cap - powered;
            if used_mask != powered_mask {
                comp.disagreement_cycles += 1;
                self.disagree(cycle, "dcache-ports", powered_mask, used_mask);
            }
        }

        {
            let used = act.result_bus_used[j];
            let powered = gate.result_buses_powered[j];
            let comp = &mut self.report.components[COMP_BUSES];
            let cap = u64::from(comp.instances);
            comp.used_instance_cycles += u64::from(used);
            comp.powered_instance_cycles += u64::from(powered);
            comp.gated_instance_cycles += cap - u64::from(powered);
            comp.idle_instance_cycles += cap - u64::from(used);
            self.win.bus_used += u64::from(used);
            self.win.bus_gated += cap - u64::from(powered);
            if used != powered {
                comp.disagreement_cycles += 1;
                self.disagree(cycle, "result-buses", powered, used);
            }
        }

        {
            let mut used_total = 0u64;
            let mut powered_total = 0u64;
            let mut group_disagreed = false;
            let groups = self.groups;
            for ((spec, slots), &occ) in groups
                .specs()
                .iter()
                .zip(gate.latch_slots(j))
                .zip(act.latches(j))
            {
                if !spec.gated {
                    continue;
                }
                let powered = slots.unwrap_or(self.issue_width).min(self.issue_width);
                used_total += u64::from(occ);
                powered_total += u64::from(powered);
                if powered != occ {
                    group_disagreed = true;
                    self.disagree(cycle, &spec.name, powered, occ);
                }
            }
            let comp = &mut self.report.components[COMP_LATCHES];
            let cap = u64::from(comp.instances);
            comp.used_instance_cycles += used_total;
            comp.powered_instance_cycles += powered_total;
            comp.gated_instance_cycles += cap - powered_total;
            comp.idle_instance_cycles += cap - used_total;
            comp.disagreement_cycles += u64::from(group_disagreed);
            self.win.latch_used += used_total;
            self.win.latch_gated += cap - powered_total;
        }

        if self.win.cycles == self.metrics_config.window {
            let next = WindowSample::empty(0);
            self.report
                .windows
                .push(std::mem::replace(&mut self.win, next));
        }
    }

    fn disagree(&mut self, cycle: u64, component: &str, claimed: u32, actual: u32) {
        if self.report.audit.len() < self.metrics_config.audit_capacity {
            self.report.audit.push(GateDisagreement {
                cycle,
                component: component.to_string(),
                claimed_powered: claimed,
                actual_used: actual,
            });
        } else {
            self.report.audit_dropped += 1;
        }
    }
}

impl ActivitySink for MetricsSink<'_> {
    fn warmup_cycle(&mut self, act: &CycleActivity) {
        // Keep the policy's pipelined control state primed, but record
        // nothing.
        self.policy.gate_into(act.cycle, &mut self.gate);
        self.policy.observe(act);
    }

    fn measure_cycle(&mut self, act: &CycleActivity) {
        self.policy.gate_into(act.cycle, &mut self.gate);
        self.fold.account(&act.columns(), &self.gate.columns());
        self.policy.observe(act);
    }

    fn warmup_span(&mut self, block: &ActivityBlock, from: usize, to: usize) {
        self.policy.gate_lanes(block, from, to, &mut self.lanes);
    }

    fn measure_span(&mut self, block: &ActivityBlock, from: usize, to: usize) {
        self.policy.gate_lanes(block, from, to, &mut self.lanes);
        self.fold
            .account(&block.columns(from, to), &self.lanes.columns(from, to));
    }
}

/// Accumulates [`SimStats`] over the measured window.
///
/// Statistics are a pure fold over the activity stream
/// ([`SimStats::record`]), so a replayed trace reconstructs them
/// bit-identically to the live simulation's own counters.
#[derive(Debug, Default)]
pub(crate) struct StatsSink {
    stats: SimStats,
}

impl StatsSink {
    pub(crate) fn new() -> StatsSink {
        StatsSink::default()
    }

    pub(crate) fn into_stats(self) -> SimStats {
        self.stats
    }
}

impl ActivitySink for StatsSink {
    fn measure_cycle(&mut self, act: &CycleActivity) {
        self.stats.record(act);
    }

    // Statistics are integer folds, so the column-wise block fold is
    // exactly the scalar fold — no per-cycle extraction needed.
    fn warmup_span(&mut self, _block: &ActivityBlock, _from: usize, _to: usize) {}

    fn measure_span(&mut self, block: &ActivityBlock, from: usize, to: usize) {
        self.stats.record_block(block, from, to);
    }
}
