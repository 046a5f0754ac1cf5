//! Cycle-level observability: per-component utilization counters,
//! occupancy histograms, windowed time series, and the gating-decision
//! audit trail.
//!
//! The paper's argument rests on *activity accounting* — which FUs,
//! latches, D-cache ports and result buses are busy each cycle — but the
//! energy reports only expose end-of-run aggregates. The types here hold
//! the cycle-resolved view that one fold produces, riding a policy's own
//! sink ([`run_passive_metered`](crate::run_passive_metered)) or standing
//! alone as a [`MetricsSink`](crate::MetricsSink): how full each structure was
//! (histograms), how utilization evolved (windowed time series), and
//! *exactly where* a policy's deterministic claim diverged from the
//! clairvoyant oracle (the audit trail).
//!
//! Everything in a [`MetricsReport`] is an integer fold over the activity
//! stream: a replayed trace reconstructs the report bit-identically to the
//! live simulation, which the replay-equivalence tests assert byte-for-byte
//! on the JSON encoding. That holds on the block-replay hot path too
//! (DESIGN §13): the fold sums decoded [`dcg_sim::ActivityBlock`] spans
//! column by column, cut at window boundaries, and keeps the audit trail
//! in cycle order, so histograms, windows and the audit trail are
//! byte-identical to a cycle-by-cycle fold however the stream arrives
//! and however it is split into spans. Derived ratios
//! (utilization, gating efficiency) are computed on demand and never
//! stored.

use dcg_isa::FuClass;

/// Default time-series window, mirroring PLB's 256-cycle sampling window
/// (paper §4.3) so DCG's cycle-resolved behavior lines up with the
/// baseline it is compared against.
pub const DEFAULT_METRICS_WINDOW: u32 = 256;

/// Default bound on retained [`GateDisagreement`] records; overflow is
/// counted in [`MetricsReport::audit_dropped`] rather than silently lost.
pub const DEFAULT_AUDIT_CAPACITY: usize = 4096;

/// Tuning knobs for [`MetricsSink`](crate::MetricsSink) (a metered passive
/// run uses the defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Time-series window length in cycles (must be non-zero).
    pub window: u32,
    /// Maximum number of audit-trail records to retain.
    pub audit_capacity: usize,
}

impl Default for MetricsConfig {
    fn default() -> MetricsConfig {
        MetricsConfig {
            window: DEFAULT_METRICS_WINDOW,
            audit_capacity: DEFAULT_AUDIT_CAPACITY,
        }
    }
}

/// Display label for a functional-unit class (stable identifiers used in
/// component metrics, audit records and the JSON schema).
pub fn fu_class_label(class: FuClass) -> &'static str {
    match class {
        FuClass::IntAlu => "int-alu",
        FuClass::IntMulDiv => "int-muldiv",
        FuClass::FpAlu => "fp-alu",
        FuClass::FpMulDiv => "fp-muldiv",
        FuClass::MemPort => "mem-port",
    }
}

/// A fixed-domain occupancy histogram over `0..=max_value`.
///
/// Values above the domain are clamped into the top bucket and counted in
/// [`Histogram::clamped`] — a fill level can never vanish from the
/// distribution, and the clamp count flags a domain mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    clamped: u64,
}

impl Histogram {
    /// An empty histogram with buckets for every value in `0..=max_value`.
    pub fn new(max_value: u32) -> Histogram {
        Histogram {
            buckets: vec![0; max_value as usize + 1],
            clamped: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, value: u32) {
        let top = self.buckets.len() - 1;
        let idx = (value as usize).min(top);
        self.buckets[idx] += 1;
        if value as usize > top {
            self.clamped += 1;
        }
    }

    /// Per-value counts, index = observed value (last bucket includes
    /// clamped overflow).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Largest in-domain value (`buckets().len() - 1`).
    pub fn max_value(&self) -> u32 {
        (self.buckets.len() - 1) as u32
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Observations that exceeded the domain and were clamped.
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Mean of the recorded values (clamped observations contribute the
    /// top bucket's value); `None` if nothing was recorded.
    pub fn mean(&self) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let weighted: u64 = self
            .buckets
            .iter()
            .enumerate()
            .map(|(v, n)| v as u64 * n)
            .sum();
        Some(weighted as f64 / total as f64)
    }
}

/// Aggregate cycle counters for one gateable component (a FU class, the
/// D-cache ports, the result buses, or the post-issue latch slots).
///
/// All counters are *instance-cycles*: one instance busy for one cycle
/// contributes 1. `instances × measured cycles` is the shared denominator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentMetrics {
    /// Stable component identifier (see [`fu_class_label`] plus
    /// `"dcache-ports"`, `"result-buses"`, `"pipeline-latches"`).
    pub name: &'static str,
    /// Gateable instances of this component (per cycle).
    pub instances: u32,
    /// Instance-cycles actually used.
    pub used_instance_cycles: u64,
    /// Instance-cycles the policy kept powered.
    pub powered_instance_cycles: u64,
    /// Instance-cycles the policy gated.
    pub gated_instance_cycles: u64,
    /// Instance-cycles deterministically idle (the oracle would gate them).
    pub idle_instance_cycles: u64,
    /// Cycles where the policy's powered set differed from actual usage.
    pub disagreement_cycles: u64,
}

impl ComponentMetrics {
    pub(crate) fn new(name: &'static str, instances: u32) -> ComponentMetrics {
        ComponentMetrics {
            name,
            instances,
            used_instance_cycles: 0,
            powered_instance_cycles: 0,
            gated_instance_cycles: 0,
            idle_instance_cycles: 0,
            disagreement_cycles: 0,
        }
    }

    /// Fraction of instance-cycles actually used over `cycles` measured
    /// cycles; `None` if the denominator is zero.
    pub fn utilization(&self, cycles: u64) -> Option<f64> {
        let denom = u64::from(self.instances) * cycles;
        (denom > 0).then(|| self.used_instance_cycles as f64 / denom as f64)
    }

    /// Gating efficiency: gated instance-cycles over deterministically
    /// idle instance-cycles (the fraction of the oracle's opportunity the
    /// policy captured). `None` when the component was never idle.
    pub fn gating_efficiency(&self) -> Option<f64> {
        (self.idle_instance_cycles > 0)
            .then(|| self.gated_instance_cycles as f64 / self.idle_instance_cycles as f64)
    }
}

/// One window of the utilization time series: instance-cycle counts
/// aggregated over [`MetricsConfig::window`] consecutive measured cycles
/// (the final window may be shorter).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSample {
    /// First measured cycle covered by this window.
    pub start_cycle: u64,
    /// Cycles aggregated (equals the configured window except possibly in
    /// the last sample).
    pub cycles: u32,
    /// Instructions committed in the window.
    pub committed: u64,
    /// Instructions issued in the window.
    pub issued: u64,
    /// Execution-unit instance-cycles used (all classes except memory
    /// ports, which are counted as `port_used`).
    pub unit_used: u64,
    /// Execution-unit instance-cycles gated.
    pub unit_gated: u64,
    /// D-cache port-cycles used.
    pub port_used: u64,
    /// D-cache port-cycles gated.
    pub port_gated: u64,
    /// Result-bus-cycles used.
    pub bus_used: u64,
    /// Result-bus-cycles gated.
    pub bus_gated: u64,
    /// Gateable latch-slot-cycles written.
    pub latch_used: u64,
    /// Gateable latch-slot-cycles gated.
    pub latch_gated: u64,
}

impl WindowSample {
    pub(crate) fn empty(start_cycle: u64) -> WindowSample {
        WindowSample {
            start_cycle,
            cycles: 0,
            committed: 0,
            issued: 0,
            unit_used: 0,
            unit_gated: 0,
            port_used: 0,
            port_gated: 0,
            bus_used: 0,
            bus_gated: 0,
            latch_used: 0,
            latch_gated: 0,
        }
    }
}

/// One audit-trail record: a cycle where the policy's deterministic claim
/// (its powered set) differed from what the clairvoyant oracle would have
/// powered (exactly the used set).
///
/// For DCG the divergence is always *conservative* — blocks powered but
/// idle (`claimed_powered ⊃ actual_used`); the strict runner audit panics
/// on the unsafe direction. The trail pinpoints the cycles and components
/// where realizable advance knowledge fell short of clairvoyance, instead
/// of only counting them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateDisagreement {
    /// Measured cycle number (the simulation's cycle counter).
    pub cycle: u64,
    /// Component identifier: a [`fu_class_label`], `"dcache-ports"`,
    /// `"result-buses"`, or a latch-group name such as `"execute0"`.
    pub component: String,
    /// What the policy powered: an instance bitmask for FU classes and
    /// D-cache ports, a count for result buses and latch slots.
    pub claimed_powered: u32,
    /// What was actually used, in the same encoding.
    pub actual_used: u32,
}

/// The full observability report for one policy over one measured window.
///
/// Produced by [`run_passive_metered`](crate::run_passive_metered) or a
/// [`MetricsSink`](crate::MetricsSink); integer-only so that
/// replayed traces reproduce it bit-identically (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsReport {
    /// Name of the policy whose gate decisions were observed.
    pub policy: String,
    /// Configured time-series window length in cycles.
    pub window: u32,
    /// Measured cycles observed.
    pub cycles: u64,
    /// Instructions committed over the measured window.
    pub committed: u64,
    /// Per-component aggregate counters (fixed order: the four
    /// non-memory FU classes, then `dcache-ports`, `result-buses`,
    /// `pipeline-latches`).
    pub components: Vec<ComponentMetrics>,
    /// Per-class busy-instance histograms, indexed by [`FuClass::index`]
    /// (memory ports included here even though their power is accounted
    /// under `dcache-ports`).
    pub fu_occupancy: Vec<Histogram>,
    /// Issue-queue fill-level histogram (domain `0..=iq_entries`).
    pub iq_fill: Histogram,
    /// Reorder-buffer fill-level histogram (domain `0..=rob_entries`).
    pub rob_fill: Histogram,
    /// Load/store-queue fill-level histogram (domain `0..=lsq_entries`).
    pub lsq_fill: Histogram,
    /// Utilization time series, one sample per window.
    pub windows: Vec<WindowSample>,
    /// Gating-decision audit trail, oldest first, capped at
    /// [`MetricsConfig::audit_capacity`].
    pub audit: Vec<GateDisagreement>,
    /// Disagreements observed after the audit trail filled up.
    pub audit_dropped: u64,
}

impl MetricsReport {
    /// Look up a component's aggregate counters by name.
    pub fn component(&self, name: &str) -> Option<&ComponentMetrics> {
        self.components.iter().find(|c| c.name == name)
    }

    /// Total disagreements observed (retained plus dropped).
    pub fn total_disagreements(&self) -> u64 {
        self.audit.len() as u64 + self.audit_dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_clamps_and_averages() {
        let mut h = Histogram::new(4);
        assert_eq!(h.mean(), None);
        for v in [0, 1, 4, 9] {
            h.record(v);
        }
        assert_eq!(h.buckets(), &[1, 1, 0, 0, 2]);
        assert_eq!(h.total(), 4);
        assert_eq!(h.clamped(), 1);
        assert_eq!(h.max_value(), 4);
        // 9 clamps to 4: (0 + 1 + 4 + 4) / 4.
        assert_eq!(h.mean(), Some(2.25));
    }

    #[test]
    fn component_ratios_guard_zero_denominators() {
        let mut c = ComponentMetrics::new("int-alu", 6);
        assert_eq!(c.utilization(0), None);
        assert_eq!(c.gating_efficiency(), None);
        c.used_instance_cycles = 30;
        c.idle_instance_cycles = 70;
        c.gated_instance_cycles = 35;
        assert_eq!(c.utilization(10), Some(0.5));
        assert_eq!(c.gating_efficiency(), Some(0.5));
    }

    #[test]
    fn fu_labels_are_distinct() {
        let mut labels: Vec<&str> = FuClass::ALL.iter().map(|c| fu_class_label(*c)).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), FuClass::COUNT);
    }
}
