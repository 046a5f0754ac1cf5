//! The gating-safety invariant checker with fail-open degradation.
//!
//! DCG's premise (paper §3) is that idleness is *deterministically* known,
//! so gating is always safe. This module enforces that premise at run
//! time: every cycle, the powered set claimed by the policy must cover
//! the activity actually consumed that cycle — FU instances, D-cache
//! ports, result buses, pipeline-latch slots. A violation is recorded as
//! a structured [`Hazard`] (never a panic), and the checker *fails open*:
//! the offending component class is forced to its ungated (fully powered)
//! state for a backoff window, so the run completes with correct but
//! conservative power instead of wrong power.
//!
//! On a fault-free run the checker is a pure observer — it alters
//! nothing, reports all zeros, and every downstream number is
//! bit-identical to a run without it. On the block-replay path (DESIGN
//! §13) [`GatingSafetyChecker::screen_span`] first OR-reduces the span's
//! violations; only a span with a violating lane or a class in backoff
//! falls back to the per-cycle screen, lane by lane — same semantics,
//! same hazards, either path.

use dcg_isa::FuClass;
use dcg_power::{GateColumns, GateLanes, GateState};
use dcg_sim::{ActivityBlock, ActivityColumns, CycleActivity, LatchGroups, SimConfig};

/// Component classes the safety invariant is tracked over.
///
/// Mirrors the power model's gateable blocks: one class per per-instance
/// FU kind, plus the D-cache wordline decoders, the result-bus drivers
/// and the post-issue pipeline latches (checked as one class — latch
/// hazards share a root cause, the one-hot issue encoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HazardClass {
    /// Integer ALU instances.
    IntAlu,
    /// Integer multiply/divide instances.
    IntMulDiv,
    /// Floating-point ALU instances.
    FpAlu,
    /// Floating-point multiply/divide instances.
    FpMulDiv,
    /// D-cache wordline decoders (port mask).
    DcachePorts,
    /// Result-bus drivers.
    ResultBuses,
    /// Post-issue pipeline-latch groups.
    Latches,
}

impl HazardClass {
    /// Number of classes.
    pub const COUNT: usize = 7;

    /// Every class, in index order.
    pub const ALL: [HazardClass; HazardClass::COUNT] = [
        HazardClass::IntAlu,
        HazardClass::IntMulDiv,
        HazardClass::FpAlu,
        HazardClass::FpMulDiv,
        HazardClass::DcachePorts,
        HazardClass::ResultBuses,
        HazardClass::Latches,
    ];

    /// Dense index for per-class counters.
    pub fn index(self) -> usize {
        match self {
            HazardClass::IntAlu => 0,
            HazardClass::IntMulDiv => 1,
            HazardClass::FpAlu => 2,
            HazardClass::FpMulDiv => 3,
            HazardClass::DcachePorts => 4,
            HazardClass::ResultBuses => 5,
            HazardClass::Latches => 6,
        }
    }

    /// Stable label (used in the metrics JSON `safety` block).
    pub fn label(self) -> &'static str {
        match self {
            HazardClass::IntAlu => "int-alu",
            HazardClass::IntMulDiv => "int-muldiv",
            HazardClass::FpAlu => "fp-alu",
            HazardClass::FpMulDiv => "fp-muldiv",
            HazardClass::DcachePorts => "dcache-ports",
            HazardClass::ResultBuses => "result-buses",
            HazardClass::Latches => "pipeline-latches",
        }
    }

    /// The FU class a per-instance hazard class corresponds to.
    fn fu(self) -> Option<FuClass> {
        match self {
            HazardClass::IntAlu => Some(FuClass::IntAlu),
            HazardClass::IntMulDiv => Some(FuClass::IntMulDiv),
            HazardClass::FpAlu => Some(FuClass::FpAlu),
            HazardClass::FpMulDiv => Some(FuClass::FpMulDiv),
            _ => None,
        }
    }
}

/// One detected safety violation: a gated block was about to be used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hazard {
    /// Cycle the hazard was detected in.
    pub cycle: u64,
    /// Component class involved.
    pub class: HazardClass,
    /// What the policy claimed was powered (mask or count).
    pub claimed_powered: u32,
    /// What the cycle actually used (mask or count).
    pub actual_used: u32,
}

/// Tuning for the [`GatingSafetyChecker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SafetyConfig {
    /// Cycles a hazarding class stays forced-ungated after a detection.
    pub backoff_cycles: u64,
    /// Maximum [`Hazard`] records retained (further detections are
    /// counted in [`SafetyReport::hazards_dropped`]).
    pub hazard_capacity: usize,
}

impl Default for SafetyConfig {
    fn default() -> SafetyConfig {
        SafetyConfig {
            backoff_cycles: 256,
            hazard_capacity: 256,
        }
    }
}

/// What the safety checker saw and did over one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SafetyReport {
    /// Retained hazard records, in detection order (capped; see
    /// [`SafetyReport::hazards_dropped`]).
    pub hazards: Vec<Hazard>,
    /// Hazards detected per [`HazardClass::index`] (uncapped).
    pub detected: [u64; HazardClass::COUNT],
    /// Hazard records dropped once the retention cap was reached.
    pub hazards_dropped: u64,
    /// Cycles each class spent forced-ungated (fail-open), per
    /// [`HazardClass::index`].
    pub failed_open_cycles: [u64; HazardClass::COUNT],
    /// The backoff window the checker ran with.
    pub backoff_cycles: u64,
}

impl SafetyReport {
    /// Total hazards detected across all classes.
    pub fn total_detected(&self) -> u64 {
        self.detected.iter().sum()
    }

    /// Total fail-open cycles across all classes.
    pub fn total_failed_open(&self) -> u64 {
        self.failed_open_cycles.iter().sum()
    }
}

/// Per-cycle enforcement of the gating-safety invariant.
///
/// [`GatingSafetyChecker::screen`] runs between the policy's gate
/// decision and everything that consumes it (audit, energy accounting):
/// it compares the claimed powered set against the cycle's actual usage,
/// records a [`Hazard`] per violating class, and repairs the gate state
/// in place — the violating class (and any class still inside its
/// backoff window) is restored to the ungated template, modeling a
/// hardware safety net that forces the clock on.
#[derive(Debug)]
pub struct GatingSafetyChecker {
    config: SafetyConfig,
    /// The fully powered template classes are restored from.
    ungated: GateState,
    /// Per class: first cycle at which the backoff window has expired
    /// (0 = not in backoff).
    backoff_until: [u64; HazardClass::COUNT],
    report: SafetyReport,
}

impl GatingSafetyChecker {
    /// A checker for one machine configuration with default tuning.
    pub fn new(config: &SimConfig, groups: &LatchGroups) -> GatingSafetyChecker {
        GatingSafetyChecker::with_config(config, groups, SafetyConfig::default())
    }

    /// A checker with explicit tuning.
    pub fn with_config(
        config: &SimConfig,
        groups: &LatchGroups,
        safety: SafetyConfig,
    ) -> GatingSafetyChecker {
        GatingSafetyChecker {
            config: safety,
            ungated: GateState::ungated(config, groups),
            backoff_until: [0; HazardClass::COUNT],
            report: SafetyReport {
                backoff_cycles: safety.backoff_cycles,
                ..SafetyReport::default()
            },
        }
    }

    fn record(&mut self, cycle: u64, class: HazardClass, claimed: u32, actual: u32) {
        self.report.detected[class.index()] += 1;
        if self.report.hazards.len() < self.config.hazard_capacity {
            self.report.hazards.push(Hazard {
                cycle,
                class,
                claimed_powered: claimed,
                actual_used: actual,
            });
        } else {
            self.report.hazards_dropped += 1;
        }
        self.backoff_until[class.index()] = cycle + self.config.backoff_cycles;
    }

    /// Restore `class`'s portion of `gate` from the ungated template.
    fn fail_open(&mut self, gate: &mut GateState, class: HazardClass) {
        match class {
            HazardClass::DcachePorts => {
                gate.dcache_ports_powered = self.ungated.dcache_ports_powered;
            }
            HazardClass::ResultBuses => {
                gate.result_buses_powered = self.ungated.result_buses_powered;
            }
            HazardClass::Latches => {
                for slot in gate.latch_slots.iter_mut() {
                    *slot = None;
                }
            }
            c => {
                let fu = c.fu().expect("per-instance class");
                gate.fu_powered[fu.index()] = self.ungated.fu_powered[fu.index()];
            }
        }
        self.report.failed_open_cycles[class.index()] += 1;
    }

    /// Check `gate` against `act` for this cycle, recording hazards and
    /// repairing the gate in place (see the type docs). Returns the
    /// number of hazards detected this cycle.
    pub fn screen(&mut self, gate: &mut GateState, act: &CycleActivity) -> u32 {
        let mut detected = 0u32;
        for class in HazardClass::ALL {
            let violated = match class {
                HazardClass::DcachePorts => {
                    let used = act.dcache_port_mask;
                    let powered = gate.dcache_ports_powered;
                    mask_uncovered(used, powered)
                        .then(|| self.record(act.cycle, class, powered, used))
                        .is_some()
                }
                HazardClass::ResultBuses => {
                    let used = act.result_bus_used;
                    let powered = gate.result_buses_powered;
                    (used > powered)
                        .then(|| self.record(act.cycle, class, powered, used))
                        .is_some()
                }
                HazardClass::Latches => {
                    match latch_uncovered(&gate.latch_slots, &act.latch_occupancy) {
                        Some((claimed, actual)) => {
                            self.record(act.cycle, class, claimed, actual);
                            true
                        }
                        None => false,
                    }
                }
                c => {
                    let fu = c.fu().expect("per-instance class");
                    let used = act.fu_active[fu.index()];
                    let powered = gate.fu_powered[fu.index()];
                    mask_uncovered(used, powered)
                        .then(|| self.record(act.cycle, class, powered, used))
                        .is_some()
                }
            };
            detected += u32::from(violated);
            if violated || act.cycle < self.backoff_until[class.index()] {
                self.fail_open(gate, class);
            }
        }
        detected
    }

    /// [`screen`](GatingSafetyChecker::screen) lanes `from..to` of
    /// `gates` against the same lanes of `block`, in cycle order. Returns
    /// the number of hazards detected.
    ///
    /// A lane check runs first: when no lane of the span violates the
    /// invariant and no class is inside its backoff window, the per-cycle
    /// screen would alter and record nothing, so the span is accepted as
    /// is. Otherwise every lane goes through the per-cycle screen in
    /// order, so hazards, fail-open repairs and backoff windows are
    /// exactly those of the per-cycle path.
    pub fn screen_span(
        &mut self,
        gates: &mut GateLanes,
        block: &ActivityBlock,
        from: usize,
        to: usize,
    ) -> u32 {
        if from == to {
            return 0;
        }
        let first = block.cycle(from);
        let backoff = self.backoff_until.iter().any(|&until| first < until);
        if !backoff && !any_uncovered(&block.columns(from, to), &gates.columns(from, to)) {
            return 0;
        }
        let mut act = CycleActivity::default();
        let mut gate = gates.gate(from);
        let mut detected = 0;
        for i in from..to {
            block.extract(i, &mut act);
            gates.get(i, &mut gate);
            detected += self.screen(&mut gate, &act);
            gates.set(i, &gate);
        }
        detected
    }

    /// Consume the checker, yielding its report.
    pub fn into_report(self) -> SafetyReport {
        self.report
    }
}

/// `true` if a used instance mask is not covered by the powered mask.
fn mask_uncovered(used: u32, powered: u32) -> bool {
    used & !powered != 0
}

/// The first latch group written beyond its clocked slots, as
/// `(claimed, actual)`.
fn latch_uncovered(slots: &[Option<u32>], occupancy: &[u32]) -> Option<(u32, u32)> {
    slots
        .iter()
        .zip(occupancy)
        .find_map(|(slots, &occ)| slots.filter(|&n| occ > n).map(|n| (n, occ)))
}

/// `true` if any lane of the view violates the invariant for any class —
/// the per-class tests of [`GatingSafetyChecker::screen`], OR-reduced
/// over the lanes.
fn any_uncovered(act: &ActivityColumns, gate: &GateColumns) -> bool {
    let masks = |used: &[u32], powered: &[u32]| {
        used.iter()
            .zip(powered)
            .any(|(&u, &p)| mask_uncovered(u, p))
    };
    let units = HazardClass::ALL
        .iter()
        .filter_map(|c| c.fu())
        .any(|fu| masks(act.fu_active[fu.index()], gate.fu_powered[fu.index()]));
    units
        || masks(act.dcache_port_mask, gate.dcache_ports_powered)
        || act
            .result_bus_used
            .iter()
            .zip(gate.result_buses_powered)
            .any(|(used, powered)| used > powered)
        || (0..act.len).any(|j| latch_uncovered(gate.latch_slots(j), act.latches(j)).is_some())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SimConfig, LatchGroups) {
        let cfg = SimConfig::baseline_8wide();
        let groups = LatchGroups::new(&cfg.depth);
        (cfg, groups)
    }

    fn activity(groups: &LatchGroups, cycle: u64) -> CycleActivity {
        CycleActivity {
            cycle,
            latch_occupancy: vec![0; groups.len()],
            ..CycleActivity::default()
        }
    }

    #[test]
    fn covered_activity_is_untouched() {
        let (cfg, groups) = setup();
        let mut chk = GatingSafetyChecker::new(&cfg, &groups);
        let mut gate = GateState::ungated(&cfg, &groups);
        let mut act = activity(&groups, 10);
        act.fu_active[FuClass::IntAlu.index()] = 0b11;
        act.result_bus_used = 3;
        let before = gate.clone();
        assert_eq!(chk.screen(&mut gate, &act), 0);
        assert_eq!(gate, before, "a safe cycle must not alter the gate");
        let report = chk.into_report();
        assert_eq!(report.total_detected(), 0);
        assert_eq!(report.total_failed_open(), 0);
    }

    #[test]
    fn gated_but_used_unit_is_detected_and_failed_open() {
        let (cfg, groups) = setup();
        let mut chk = GatingSafetyChecker::new(&cfg, &groups);
        let mut gate = GateState::ungated(&cfg, &groups);
        gate.fu_powered[FuClass::IntAlu.index()] = 0; // gate every ALU
        let mut act = activity(&groups, 100);
        act.fu_active[FuClass::IntAlu.index()] = 0b1; // ...but one is used
        assert_eq!(chk.screen(&mut gate, &act), 1);
        assert_eq!(
            gate.fu_powered[FuClass::IntAlu.index()],
            GateState::ungated(&cfg, &groups).fu_powered[FuClass::IntAlu.index()],
            "fail-open restores the class to fully powered"
        );
        let report = chk.into_report();
        assert_eq!(report.detected[HazardClass::IntAlu.index()], 1);
        assert_eq!(report.hazards.len(), 1);
        assert_eq!(report.hazards[0].cycle, 100);
        assert_eq!(report.hazards[0].class, HazardClass::IntAlu);
    }

    #[test]
    fn backoff_window_keeps_class_ungated_then_expires() {
        let (cfg, groups) = setup();
        let mut chk = GatingSafetyChecker::with_config(
            &cfg,
            &groups,
            SafetyConfig {
                backoff_cycles: 4,
                hazard_capacity: 8,
            },
        );
        // Cycle 10: hazard on the result buses.
        let mut gate = GateState::ungated(&cfg, &groups);
        gate.result_buses_powered = 0;
        let mut act = activity(&groups, 10);
        act.result_bus_used = 2;
        assert_eq!(chk.screen(&mut gate, &act), 1);

        // Cycles 11..14: no hazard, but the class stays forced-ungated.
        for cycle in 11..14 {
            let mut g = GateState::ungated(&cfg, &groups);
            g.result_buses_powered = 0;
            let a = activity(&groups, cycle);
            assert_eq!(chk.screen(&mut g, &a), 0, "cycle {cycle}");
            assert_eq!(
                g.result_buses_powered,
                GateState::ungated(&cfg, &groups).result_buses_powered,
                "cycle {cycle} is inside the backoff window"
            );
        }

        // Cycle 14: window expired; a safe (unused) gated bus stands.
        let mut g = GateState::ungated(&cfg, &groups);
        g.result_buses_powered = 0;
        let a = activity(&groups, 14);
        assert_eq!(chk.screen(&mut g, &a), 0);
        assert_eq!(g.result_buses_powered, 0, "backoff expired");

        let report = chk.into_report();
        assert_eq!(report.detected[HazardClass::ResultBuses.index()], 1);
        assert_eq!(
            report.failed_open_cycles[HazardClass::ResultBuses.index()],
            4
        );
    }

    #[test]
    fn latch_hazard_restores_all_groups() {
        let (cfg, groups) = setup();
        let mut chk = GatingSafetyChecker::new(&cfg, &groups);
        let mut gate = GateState::ungated(&cfg, &groups);
        gate.latch_slots[4] = Some(1);
        let mut act = activity(&groups, 7);
        act.latch_occupancy[4] = 5;
        assert_eq!(chk.screen(&mut gate, &act), 1);
        assert!(gate.latch_slots.iter().all(|s| s.is_none()));
    }

    #[test]
    fn hazard_records_cap_but_counters_do_not() {
        let (cfg, groups) = setup();
        let mut chk = GatingSafetyChecker::with_config(
            &cfg,
            &groups,
            SafetyConfig {
                backoff_cycles: 0,
                hazard_capacity: 2,
            },
        );
        for cycle in 0..5 {
            let mut gate = GateState::ungated(&cfg, &groups);
            gate.dcache_ports_powered = 0;
            let mut act = activity(&groups, cycle);
            act.dcache_port_mask = 0b1;
            chk.screen(&mut gate, &act);
        }
        let report = chk.into_report();
        assert_eq!(report.detected[HazardClass::DcachePorts.index()], 5);
        assert_eq!(report.hazards.len(), 2);
        assert_eq!(report.hazards_dropped, 3);
    }
}
