//! Consumers of the per-cycle activity stream.
//!
//! One [`drive`](crate::drive) pass fans each block of cycles out to any
//! number of sinks: policy evaluation with energy accounting and the
//! gating audit, cycle-level metrics ([`MetricsSink`]), Wattch's reference
//! styles ([`WattchSink`], whose `cc2` is the clairvoyant oracle) and
//! statistics accumulation. (A cache miss records at the source instead;
//! see [`crate::CachedSource`].) Every sink takes the activity by
//! reference, so adding consumers never adds simulation passes — the
//! "simulate once" architecture: a study that wants the oracle puts a
//! [`WattchSink`] on its passive pass as an extra sink.

use dcg_isa::FuClass;
use dcg_power::{GateColumns, GateLanes, GateState, PowerModel, PowerReport};
use dcg_sim::{
    ActivityBlock, ActivityColumns, CycleActivity, LatchGroups, ResourceConstraints, SimConfig,
    SimStats, BLOCK_CYCLES,
};

use crate::metrics::{
    fu_class_label, ComponentMetrics, GateDisagreement, Histogram, MetricsConfig, MetricsReport,
    WindowSample,
};
use crate::policy::GatingPolicy;
use crate::runner::{GatingAudit, PolicyOutcome, WattchStyles};
use crate::safety::GatingSafetyChecker;

/// A consumer of per-cycle activity.
///
/// [`drive`](crate::drive) hands every sink each block of cycles as up
/// to two spans: [`ActivitySink::warmup_span`] for the cycles before the
/// measurement window opens and [`ActivitySink::measure_span`] for the
/// measured ones, with [`ActivitySink::begin_measure`] exactly once at
/// the window boundary. The span defaults forward lane by lane to
/// [`ActivitySink::warmup_cycle`] and [`ActivitySink::measure_cycle`].
/// [`ActivitySink::constraints`] and [`ActivitySink::horizon`] are polled
/// before each block; a sink wrapping an active policy returns its
/// resource limits there (which only a live simulation source can
/// honor).
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

    /// Upcoming cycles (at least 1) over which
    /// [`constraints`](ActivitySink::constraints) is guaranteed not to
    /// change, however those cycles run; the drive loop steps no longer
    /// a block. The default is 1 for a sink that constrains, which
    /// re-polls it every cycle, and [`BLOCK_CYCLES`] otherwise.
    fn horizon(&self) -> usize {
        if self.constraints().is_some() {
            1
        } else {
            BLOCK_CYCLES
        }
    }

    /// Observe warm-up cycles `from..to` of a decoded block.
    ///
    /// The default is the per-cycle shim: extract each lane and forward
    /// it to [`warmup_cycle`](ActivitySink::warmup_cycle), in cycle
    /// order. Sinks with a vectorized fold (or nothing to do during
    /// warm-up) override this.
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
    /// the default forwards lane by lane to
    /// [`measure_cycle`](ActivitySink::measure_cycle), so a sink that
    /// implements only the per-cycle methods sees exactly the per-cycle
    /// call sequence.
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
/// observe. A block span runs these steps span by span:
/// [`GatingPolicy::gate_lanes`] decides and observes every lane, a
/// metered sink folds the decided lanes into its metrics, then
/// [`GatingSafetyChecker::screen_span`], [`GatingAudit::check`] and
/// [`PowerModel::fold_span`] fold the lanes in cycle order. The policy
/// never sees the screened gates, so deciding all lanes first changes
/// nothing, and the audit and energy folds run the per-cycle formulas on
/// a wider view. The safety checker screens warm-up spans too: a hazard
/// is a hazard whenever it strikes, and backoff state must be continuous
/// across the measurement boundary.
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
    /// Cycle-level metrics of the measured lanes as the policy decided
    /// them, before the screen (what a [`MetricsSink`] over a second
    /// instance of the policy would see).
    metrics: Option<MetricsFold<'a>>,
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
            metrics: None,
            lanes: GateLanes::new(groups.len()),
        }
    }

    /// Also fold the policy's measured lanes into cycle-level metrics
    /// (default [`MetricsConfig`]).
    pub(crate) fn metered(mut self) -> PolicySink<'a> {
        let name = self.policy.name();
        let fold = MetricsFold::new(name, self.config, self.groups, MetricsConfig::default());
        self.metrics = Some(fold);
        self
    }

    /// The metered sink's metrics report.
    pub(crate) fn take_metrics(&mut self) -> Option<MetricsReport> {
        self.metrics.take().map(MetricsFold::into_report)
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

    /// Decide and screen lanes `from..to` of `block` into `self.lanes`,
    /// metering the decided lanes of a measured span.
    fn gate_span(&mut self, block: &ActivityBlock, from: usize, to: usize, measured: bool) {
        self.policy.gate_lanes(block, from, to, &mut self.lanes);
        debug_assert!((from..to).all(|i| self
            .lanes
            .gate(i)
            .validate(self.config, self.groups)
            .is_ok()));
        if let (true, Some(metrics)) = (measured, &mut self.metrics) {
            metrics.account(&block.columns(from, to), &self.lanes.columns(from, to));
        }
        if let Some(chk) = &mut self.safety {
            chk.screen_span(&mut self.lanes, block, from, to);
        }
    }
}

// The drive loop hands this sink spans only (it is crate-private), so
// neither per-cycle method is ever called; the per-cycle path lives in the
// policy's own `gate_into`/`observe`, which the default `gate_lanes` shim
// calls.
impl ActivitySink for PolicySink<'_> {
    fn warmup_cycle(&mut self, _act: &CycleActivity) {
        unreachable!("drive hands a policy sink whole spans");
    }

    fn measure_cycle(&mut self, _act: &CycleActivity) {
        unreachable!("drive hands a policy sink whole spans");
    }

    fn constraints(&self) -> Option<ResourceConstraints> {
        self.constrain.then(|| self.policy.constraints())
    }

    fn horizon(&self) -> usize {
        if self.constrain {
            self.policy.horizon()
        } else {
            BLOCK_CYCLES
        }
    }

    fn warmup_span(&mut self, block: &ActivityBlock, from: usize, to: usize) {
        self.gate_span(block, from, to, false);
    }

    fn measure_span(&mut self, block: &ActivityBlock, from: usize, to: usize) {
        self.gate_span(block, from, to, true);
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

/// Wattch's `cc1`/`cc2` reference accounting (see [`WattchStyles`]) of
/// the measured cycles, riding any pass as one more sink.
///
/// `cc2` is the clairvoyant oracle ([`crate::run_oracle`]). `cc0`, the
/// ungated base, is not folded here: the pass's own [`crate::NoGating`]
/// outcome is that report, bit for bit.
#[derive(Debug)]
pub struct WattchSink<'a> {
    model: PowerModel,
    groups: &'a LatchGroups,
    ungated: GateState,
    /// Scratch `cc1` and `cc2` gates, rewritten every cycle.
    cc1_gate: GateState,
    cc2_gate: GateState,
    cc1: PowerReport,
    cc2: PowerReport,
}

impl<'a> WattchSink<'a> {
    /// A sink pricing `config`'s measured cycles with the default power
    /// model.
    pub fn new(config: &SimConfig, groups: &'a LatchGroups) -> WattchSink<'a> {
        let ungated = GateState::ungated(config, groups);
        WattchSink {
            model: PowerModel::new(config, groups),
            groups,
            cc1_gate: ungated.clone(),
            cc2_gate: ungated.clone(),
            ungated,
            cc1: PowerReport::new(),
            cc2: PowerReport::new(),
        }
    }

    /// The `cc1` and `cc2` reports of the measured window.
    pub fn into_styles(self) -> WattchStyles {
        WattchStyles {
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
        let any = |used: u32, all: u32| if used == 0 { 0 } else { all };
        let (g1, full) = (&mut self.cc1_gate, &self.ungated);
        for (powered, (&used, &all)) in g1
            .fu_powered
            .iter_mut()
            .zip(act.fu_active.iter().zip(&full.fu_powered))
        {
            *powered = any(used, all);
        }
        g1.dcache_ports_powered = any(act.dcache_port_mask, full.dcache_ports_powered);
        g1.result_buses_powered = any(act.result_bus_used, full.result_buses_powered);
        for ((slot, spec), &occ) in g1
            .latch_slots
            .iter_mut()
            .zip(self.groups.specs())
            .zip(&act.latch_occupancy)
        {
            *slot = (spec.gated && occ == 0).then_some(0);
        }

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
/// Entries in [`MetricsReport::components`].
const COMPONENTS: usize = COMP_LATCHES + 1;

/// Cycle-level observability sink: per-component counters, occupancy
/// histograms, a windowed utilization time series, and the
/// gating-decision audit trail (see [`crate::metrics`]) of one passive
/// policy.
///
/// A passive run builds these metrics without this sink:
/// [`crate::run_passive_metered`] folds them from the lanes the metered
/// policy's own sink decides, before the safety screen, so the pass
/// decides each policy once. This sink is that same fold over a policy
/// instance of its own, which it evaluates from the activity stream:
/// passive policies are deterministic functions of that stream, so a
/// second instance decides exactly the gates of the first, live or
/// replayed.
pub struct MetricsSink<'a> {
    policy: &'a mut dyn GatingPolicy,
    /// Scratch gate state reused across cycles.
    gate: GateState,
    /// Scratch gate lanes reused across block spans.
    lanes: GateLanes,
    fold: MetricsFold<'a>,
}

/// The accounting half of a [`MetricsSink`], which a [`PolicySink`] also
/// carries to meter the lanes its policy decides.
pub(crate) struct MetricsFold<'a> {
    groups: &'a LatchGroups,
    /// Indices of the gateable latch groups.
    gated: Vec<usize>,
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
        let fold = MetricsFold::new(policy.name(), config, groups, metrics_config);
        MetricsSink {
            policy,
            gate: GateState::ungated(config, groups),
            lanes: GateLanes::new(groups.len()),
            fold,
        }
    }

    /// Finish the report (flushes the partial final window).
    pub fn into_report(self) -> MetricsReport {
        self.fold.into_report()
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

/// Sum of set bits over a mask column.
fn popcounts(col: &[u32]) -> u64 {
    col.iter().map(|m| u64::from(m.count_ones())).sum()
}

/// Sum of a count column.
fn total(col: &[u32]) -> u64 {
    col.iter().map(|&v| u64::from(v)).sum()
}

/// Lanes where two columns differ.
fn differing(a: &[u32], b: &[u32]) -> u64 {
    a.iter().zip(b).map(|(x, y)| u64::from(x != y)).sum()
}

impl<'a> MetricsFold<'a> {
    /// An empty fold over `policy`'s gates.
    ///
    /// # Panics
    ///
    /// Panics if `metrics_config.window` is zero.
    pub(crate) fn new(
        policy: &str,
        config: &SimConfig,
        groups: &'a LatchGroups,
        metrics_config: MetricsConfig,
    ) -> MetricsFold<'a> {
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
            policy: policy.to_string(),
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
        MetricsFold {
            groups,
            gated: (0..groups.len())
                .filter(|&g| groups.specs()[g].gated)
                .collect(),
            metrics_config,
            issue_width,
            report,
            win: WindowSample::empty(0),
        }
    }

    /// Finish the report (flushes the partial final window).
    pub(crate) fn into_report(self) -> MetricsReport {
        let MetricsFold {
            mut report, win, ..
        } = self;
        if win.cycles > 0 {
            report.windows.push(win);
        }
        report
    }

    /// Account every cycle of a column view.
    ///
    /// Everything but the audit trail is an integer sum, so it is summed
    /// column by column, cut only where a window closes; the result is
    /// the per-cycle fold's. The trail keeps cycle order and so goes
    /// cycle by cycle, but only while it has room: past that, a
    /// disagreement is only counted.
    // Always inlined so a per-cycle caller's one-lane view folds away.
    #[inline(always)]
    fn account(&mut self, act: &ActivityColumns, gate: &GateColumns) {
        let n = act.len;
        self.report.cycles += n as u64;
        self.report.committed += total(act.committed);

        for (hist, col) in self.report.fu_occupancy.iter_mut().zip(&act.fu_active) {
            for mask in &col[..n] {
                hist.record(mask.count_ones());
            }
        }
        for (hist, col) in [
            (&mut self.report.iq_fill, act.iq_occupancy),
            (&mut self.report.rob_fill, act.rob_occupancy),
            (&mut self.report.lsq_fill, act.lsq_occupancy),
        ] {
            for &v in &col[..n] {
                hist.record(v);
            }
        }

        let mut audited = 0;
        let mut j = 0;
        while j < n && self.report.audit.len() < self.metrics_config.audit_capacity {
            audited += self.audit_cycle(act, gate, j);
            j += 1;
        }

        let mut disagreements = 0;
        let mut from = 0;
        while from < n {
            let room = (self.metrics_config.window - self.win.cycles) as usize;
            let to = n.min(from + room);
            disagreements += self.fold_window(act, gate, from, to);
            from = to;
        }
        self.report.audit_dropped += disagreements - audited;
    }

    /// Add lanes `from..to`, which all fall in the current window, to the
    /// component counters and the window; flush the window if they fill
    /// it. Returns the disagreements among them, as the audit trail
    /// counts them (one per latch group).
    fn fold_window(
        &mut self,
        act: &ActivityColumns,
        gate: &GateColumns,
        from: usize,
        to: usize,
    ) -> u64 {
        let len = to - from;
        let mut used = [0u64; COMPONENTS];
        let mut powered = [0u64; COMPONENTS];
        let mut differ = [0u64; COMPONENTS];
        for (k, c) in UNIT_CLASSES.iter().enumerate() {
            let (u, p) = (
                &act.fu_active[c.index()][from..to],
                &gate.fu_powered[c.index()][from..to],
            );
            (used[k], powered[k], differ[k]) = (popcounts(u), popcounts(p), differing(u, p));
        }
        let (u, p) = (
            &act.dcache_port_mask[from..to],
            &gate.dcache_ports_powered[from..to],
        );
        (used[COMP_PORTS], powered[COMP_PORTS], differ[COMP_PORTS]) =
            (popcounts(u), popcounts(p), differing(u, p));
        let (u, p) = (
            &act.result_bus_used[from..to],
            &gate.result_buses_powered[from..to],
        );
        (used[COMP_BUSES], powered[COMP_BUSES], differ[COMP_BUSES]) =
            (total(u), total(p), differing(u, p));
        let mut latch_disagreements = 0;
        for j in from..to {
            let (slots, occupancy) = (gate.latch_slots(j), act.latches(j));
            let mut groups_differing = 0;
            for &g in &self.gated {
                let slots = slots[g].unwrap_or(self.issue_width).min(self.issue_width);
                used[COMP_LATCHES] += u64::from(occupancy[g]);
                powered[COMP_LATCHES] += u64::from(slots);
                groups_differing += u64::from(slots != occupancy[g]);
            }
            differ[COMP_LATCHES] += u64::from(groups_differing > 0);
            latch_disagreements += groups_differing;
        }

        let mut gated = [0u64; COMPONENTS];
        for (k, comp) in self.report.components.iter_mut().enumerate() {
            let cap = u64::from(comp.instances) * len as u64;
            gated[k] = cap - powered[k];
            comp.used_instance_cycles += used[k];
            comp.powered_instance_cycles += powered[k];
            comp.gated_instance_cycles += gated[k];
            comp.idle_instance_cycles += cap - used[k];
            comp.disagreement_cycles += differ[k];
        }

        let win = &mut self.win;
        if win.cycles == 0 {
            win.start_cycle = act.cycle(from);
        }
        win.cycles += len as u32;
        win.committed += total(&act.committed[from..to]);
        win.issued += total(&act.issued[from..to]);
        win.unit_used += used[..COMP_PORTS].iter().sum::<u64>();
        win.unit_gated += gated[..COMP_PORTS].iter().sum::<u64>();
        win.port_used += used[COMP_PORTS];
        win.port_gated += gated[COMP_PORTS];
        win.bus_used += used[COMP_BUSES];
        win.bus_gated += gated[COMP_BUSES];
        win.latch_used += used[COMP_LATCHES];
        win.latch_gated += gated[COMP_LATCHES];
        if win.cycles == self.metrics_config.window {
            let next = WindowSample::empty(0);
            self.report
                .windows
                .push(std::mem::replace(&mut self.win, next));
        }

        differ[..COMP_LATCHES].iter().sum::<u64>() + latch_disagreements
    }

    /// Put cycle `j`'s disagreements on the audit trail, in component
    /// order, counting those past its capacity as dropped. Returns how
    /// many there were.
    fn audit_cycle(&mut self, act: &ActivityColumns, gate: &GateColumns, j: usize) -> u64 {
        let cycle = act.cycle(j);
        let mut seen = 0;
        for c in UNIT_CLASSES {
            let (used, powered) = (act.fu_active[c.index()][j], gate.fu_powered[c.index()][j]);
            if used != powered {
                seen += 1;
                self.disagree(cycle, fu_class_label(c), powered, used);
            }
        }
        let (used, powered) = (act.dcache_port_mask[j], gate.dcache_ports_powered[j]);
        if used != powered {
            seen += 1;
            self.disagree(cycle, "dcache-ports", powered, used);
        }
        let (used, powered) = (act.result_bus_used[j], gate.result_buses_powered[j]);
        if used != powered {
            seen += 1;
            self.disagree(cycle, "result-buses", powered, used);
        }
        let groups = self.groups;
        for ((spec, slots), &occupancy) in groups
            .specs()
            .iter()
            .zip(gate.latch_slots(j))
            .zip(act.latches(j))
        {
            let slots = slots.unwrap_or(self.issue_width).min(self.issue_width);
            if spec.gated && slots != occupancy {
                seen += 1;
                self.disagree(cycle, &spec.name, slots, occupancy);
            }
        }
        seen
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
