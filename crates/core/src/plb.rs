//! Pipeline Balancing (PLB) — the paper's comparison baseline (§4.3),
//! adapted from the clustered design of Bahar & Manne to the non-clustered
//! 8-wide machine exactly as the paper describes.
//!
//! PLB is *predictive*: it samples issue IPC over 256-cycle windows and
//! drops the machine into 6-wide or 4-wide low-power modes when predicted
//! ILP is low. Mode changes disable execution units (and with them issue
//! slots); PLB-ext additionally clock-gates pipeline latches, one D-cache
//! port decoder (4-wide only) and result buses, matching the components DCG
//! gates so the methodologies can be compared head-to-head (§4.3).
//!
//! Triggers (per §4.3): issue IPC is the primary trigger; FP issue IPC and
//! mode history are secondary triggers that suppress spurious transitions.
//!
//! Because PLB's mode changes *constrain* resources (disabled FUs and
//! issue slots perturb timing), it can never replay a recorded trace:
//! `run_active` always simulates live. The mode changes only when a
//! window closes, so [`crate::drive`] steps PLB runs in blocks that end
//! at window boundaries (the policy's horizon, DESIGN §13) and applies
//! the constraints once per block.

use dcg_isa::FuClass;
use dcg_power::{GateLanes, GateState};
use dcg_sim::{
    ActivityBlock, CycleActivity, LatchGroups, ResourceConstraints, SimConfig, BLOCK_CYCLES,
};

use crate::policy::GatingPolicy;

/// Which PLB variant to run (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlbVariant {
    /// Gates execution units and the issue queue only (the original
    /// scheme).
    Orig,
    /// Additionally gates pipeline latches, the D-cache port decoder
    /// (4-wide mode) and result buses — the same components DCG gates.
    Ext,
}

/// PLB issue-width mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PlbMode {
    /// 4-wide low-power mode.
    Wide4,
    /// 6-wide low-power mode.
    Wide6,
    /// Full 8-wide operation.
    Full8,
}

impl PlbMode {
    /// Effective machine width in this mode.
    pub fn width(self) -> usize {
        match self {
            PlbMode::Wide4 => 4,
            PlbMode::Wide6 => 6,
            PlbMode::Full8 => 8,
        }
    }
}

/// PLB trigger parameters.
///
/// The FSM follows the *structure* of Bahar & Manne's triggers (issue-IPC
/// primary, FP-IPC secondary, mode history for hysteresis, 256-cycle
/// windows). Threshold values are calibrated for this machine; the paper
/// likewise states it uses "the same state machine and threshold values"
/// relative to its own simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlbConfig {
    /// Sampling window in cycles (256 in the paper).
    pub window: u64,
    /// Below this issue IPC the window votes for 4-wide mode.
    pub to4_ipc: f64,
    /// Below this issue IPC the window votes for 6-wide mode.
    pub to6_ipc: f64,
    /// FP issue IPC above which the machine refuses to leave 8-wide
    /// (FP-heavy phases need the full unit complement).
    pub fp_guard_ipc: f64,
    /// Consecutive agreeing windows required before switching *down*
    /// (mode history, reduces spurious transitions).
    pub history: u32,
}

impl Default for PlbConfig {
    fn default() -> Self {
        PlbConfig {
            window: 256,
            to4_ipc: 1.7,
            to6_ipc: 3.8,
            fp_guard_ipc: 0.9,
            history: 3,
        }
    }
}

/// The Pipeline Balancing policy.
///
/// # Example
///
/// ```
/// use dcg_core::{Plb, PlbMode, PlbVariant};
/// use dcg_sim::{LatchGroups, SimConfig};
///
/// let cfg = SimConfig::baseline_8wide();
/// let groups = LatchGroups::new(&cfg.depth);
/// let plb = Plb::new(PlbVariant::Ext, &cfg, &groups);
/// assert_eq!(plb.mode(), PlbMode::Full8, "starts at full width");
/// assert_eq!(plb.variant(), PlbVariant::Ext);
/// ```
#[derive(Debug)]
pub struct Plb {
    variant: PlbVariant,
    plb_cfg: PlbConfig,
    mode: PlbMode,
    votes: u32,
    voted_mode: PlbMode,
    window_cycles: u64,
    window_issued: u64,
    window_issued_fp: u64,
    transitions: u64,
    /// Gate state per mode, indexed by `PlbMode as usize`.
    gates: [GateState; 3],
    /// Resource constraints per mode, indexed like `gates`.
    limits: [ResourceConstraints; 3],
}

/// Every mode, in `PlbMode as usize` order.
const MODES: [PlbMode; 3] = [PlbMode::Wide4, PlbMode::Wide6, PlbMode::Full8];

impl Plb {
    /// Build a PLB policy with default triggers.
    pub fn new(variant: PlbVariant, config: &SimConfig, groups: &LatchGroups) -> Plb {
        Self::with_config(variant, PlbConfig::default(), config, groups)
    }

    /// Build a PLB policy with explicit trigger parameters.
    ///
    /// # Panics
    ///
    /// Panics if the window is zero or thresholds are not ordered
    /// (`to4_ipc < to6_ipc`).
    pub fn with_config(
        variant: PlbVariant,
        plb_cfg: PlbConfig,
        config: &SimConfig,
        groups: &LatchGroups,
    ) -> Plb {
        assert!(plb_cfg.window > 0, "window must be positive");
        assert!(
            plb_cfg.to4_ipc < plb_cfg.to6_ipc,
            "thresholds must satisfy to4 < to6"
        );
        Plb {
            variant,
            plb_cfg,
            mode: PlbMode::Full8,
            votes: 0,
            voted_mode: PlbMode::Full8,
            window_cycles: 0,
            window_issued: 0,
            window_issued_fp: 0,
            transitions: 0,
            gates: MODES.map(|m| mode_gate(variant, m, config, groups)),
            limits: MODES.map(|m| mode_constraints(variant, m, config)),
        }
    }

    /// Current mode.
    pub fn mode(&self) -> PlbMode {
        self.mode
    }

    /// Mode transitions taken so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// The variant this policy runs.
    pub fn variant(&self) -> PlbVariant {
        self.variant
    }

    fn decide_mode(&self, issue_ipc: f64, fp_ipc: f64) -> PlbMode {
        // Secondary trigger: heavy FP phases keep the machine wide.
        if fp_ipc >= self.plb_cfg.fp_guard_ipc {
            return PlbMode::Full8;
        }
        if issue_ipc < self.plb_cfg.to4_ipc {
            PlbMode::Wide4
        } else if issue_ipc < self.plb_cfg.to6_ipc {
            PlbMode::Wide6
        } else {
            PlbMode::Full8
        }
    }

    /// Count one cycle's issue into the window; at the window's end,
    /// decide the next mode.
    fn observe_issue(&mut self, issued: u32, issued_fp: u32) {
        self.window_cycles += 1;
        self.window_issued += u64::from(issued);
        self.window_issued_fp += u64::from(issued_fp);
        if self.window_cycles < self.plb_cfg.window {
            return;
        }
        let issue_ipc = self.window_issued as f64 / self.window_cycles as f64;
        let fp_ipc = self.window_issued_fp as f64 / self.window_cycles as f64;
        self.window_cycles = 0;
        self.window_issued = 0;
        self.window_issued_fp = 0;

        let wanted = self.decide_mode(issue_ipc, fp_ipc);
        // Mode history: upward transitions (performance-restoring) apply
        // immediately; downward transitions need `history` agreeing
        // windows.
        if wanted >= self.mode {
            if wanted != self.mode {
                self.mode = wanted;
                self.transitions += 1;
            }
            self.votes = 0;
            self.voted_mode = wanted;
        } else {
            if wanted == self.voted_mode {
                self.votes += 1;
            } else {
                self.voted_mode = wanted;
                self.votes = 1;
            }
            if self.votes >= self.plb_cfg.history {
                self.mode = wanted;
                self.transitions += 1;
                self.votes = 0;
            }
        }
    }
}

/// Enabled-unit counts for `mode` (§4.3's disable lists).
fn enabled_units(cfg: &SimConfig, mode: PlbMode) -> [usize; FuClass::COUNT] {
    let mut e = [0usize; FuClass::COUNT];
    for c in FuClass::ALL {
        e[c.index()] = cfg.fu_count(c);
    }
    match mode {
        PlbMode::Full8 => {}
        PlbMode::Wide6 => {
            // Disable 1 integer ALU, 1 FP ALU, 1 FP multiply/divide.
            e[FuClass::IntAlu.index()] = cfg.int_alus.saturating_sub(1).max(1);
            e[FuClass::FpAlu.index()] = cfg.fp_alus.saturating_sub(1).max(1);
            e[FuClass::FpMulDiv.index()] = cfg.fp_muldivs.saturating_sub(1).max(1);
        }
        PlbMode::Wide4 => {
            // Disable 3 integer ALUs, 1 integer mul/div, 2 FP ALUs,
            // 2 FP mul/div, 1 memory issue port.
            e[FuClass::IntAlu.index()] = cfg.int_alus.saturating_sub(3).max(1);
            e[FuClass::IntMulDiv.index()] = cfg.int_muldivs.saturating_sub(1).max(1);
            e[FuClass::FpAlu.index()] = cfg.fp_alus.saturating_sub(2).max(1);
            e[FuClass::FpMulDiv.index()] = cfg.fp_muldivs.saturating_sub(2).max(1);
            e[FuClass::MemPort.index()] = cfg.mem_ports.saturating_sub(1).max(1);
        }
    }
    e
}

/// The gate state `variant` holds throughout `mode`.
fn mode_gate(
    variant: PlbVariant,
    mode: PlbMode,
    cfg: &SimConfig,
    groups: &LatchGroups,
) -> GateState {
    let mut g = GateState::ungated(cfg, groups);
    let width = mode.width() as u32;
    let units = enabled_units(cfg, mode);

    // Both variants gate the disabled execution units and the unused
    // fraction of the issue queue.
    for c in [
        FuClass::IntAlu,
        FuClass::IntMulDiv,
        FuClass::FpAlu,
        FuClass::FpMulDiv,
    ] {
        g.fu_powered[c.index()] = crate::mask_of(units[c.index()]);
    }
    g.issue_queue_scale = mode.width() as f64 / cfg.issue_width as f64;

    if variant == PlbVariant::Ext && mode != PlbMode::Full8 {
        // PLB-ext: narrow every stage's latches to the mode width and
        // gate the matching result buses; in 4-wide mode also gate one
        // D-cache port decoder (§4.3).
        g.latch_slots = vec![Some(width); groups.len()];
        g.result_buses_powered = width.min(cfg.result_buses as u32);
        if mode == PlbMode::Wide4 {
            g.dcache_ports_powered = crate::mask_of(units[FuClass::MemPort.index()]);
        }
    }
    g
}

/// The resource constraints `variant` applies throughout `mode`.
fn mode_constraints(variant: PlbVariant, mode: PlbMode, cfg: &SimConfig) -> ResourceConstraints {
    let units = enabled_units(cfg, mode);
    let mut c = ResourceConstraints::unrestricted(cfg)
        .with_issue_width(mode.width())
        .with_fetch_width(mode.width());
    for class in FuClass::ALL {
        c = c.with_enabled(class, units[class.index()]);
    }
    // PLB-orig leaves cache ports intact for timing ("memory bandwidth
    // is important", §4.3); only PLB-ext reduces the physical port.
    if variant == PlbVariant::Orig {
        c = c.with_enabled(FuClass::MemPort, cfg.mem_ports);
    }
    c
}

impl GatingPolicy for Plb {
    fn gate_for(&mut self, _cycle: u64) -> GateState {
        self.gates[self.mode as usize].clone()
    }

    fn gate_into(&mut self, _cycle: u64, out: &mut GateState) {
        out.clone_from(&self.gates[self.mode as usize]);
    }

    fn constraints(&self) -> ResourceConstraints {
        self.limits[self.mode as usize]
    }

    /// The mode, and with it the constraints, changes only when a window
    /// closes: the cycles left in the current one.
    fn horizon(&self) -> usize {
        (self.plb_cfg.window - self.window_cycles).min(BLOCK_CYCLES as u64) as usize
    }

    fn observe(&mut self, act: &CycleActivity) {
        self.observe_issue(act.issued, act.issued_fp);
    }

    fn gate_lanes(&mut self, block: &ActivityBlock, from: usize, to: usize, out: &mut GateLanes) {
        for i in from..to {
            out.set(i, &self.gates[self.mode as usize]);
            self.observe_issue(block.issued[i], block.issued_fp[i]);
        }
    }

    fn is_passive(&self) -> bool {
        false
    }

    fn name(&self) -> &str {
        match self.variant {
            PlbVariant::Orig => "plb-orig",
            PlbVariant::Ext => "plb-ext",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcg_sim::PipelineDepth;

    fn setup(variant: PlbVariant) -> (SimConfig, LatchGroups, Plb) {
        let cfg = SimConfig::baseline_8wide();
        let groups = LatchGroups::new(&PipelineDepth::stages8());
        let plb = Plb::new(variant, &cfg, &groups);
        (cfg, groups, plb)
    }

    fn feed_windows(plb: &mut Plb, groups: &LatchGroups, windows: u32, issued: u32, fp: u32) {
        for _ in 0..windows * 256 {
            let a = CycleActivity {
                issued,
                issued_fp: fp,
                latch_occupancy: vec![0; groups.len()],
                ..CycleActivity::default()
            };
            plb.observe(&a);
        }
    }

    #[test]
    fn starts_full_width_and_is_active() {
        let (_cfg, _groups, plb) = setup(PlbVariant::Orig);
        assert_eq!(plb.mode(), PlbMode::Full8);
        assert!(!plb.is_passive());
        assert_eq!(plb.name(), "plb-orig");
    }

    #[test]
    fn low_ipc_drops_to_4wide_after_history() {
        let (_cfg, groups, mut plb) = setup(PlbVariant::Orig);
        feed_windows(&mut plb, &groups, 2, 1, 0);
        assert_eq!(plb.mode(), PlbMode::Full8, "two windows are not enough");
        feed_windows(&mut plb, &groups, 1, 1, 0);
        assert_eq!(
            plb.mode(),
            PlbMode::Wide4,
            "three agreeing windows (the history depth) switch"
        );
    }

    #[test]
    fn medium_ipc_settles_at_6wide_and_recovers_fast() {
        let (_cfg, groups, mut plb) = setup(PlbVariant::Ext);
        feed_windows(&mut plb, &groups, 3, 2, 0);
        assert_eq!(plb.mode(), PlbMode::Wide6);
        // Upward transition is immediate on one high-IPC window.
        feed_windows(&mut plb, &groups, 1, 6, 0);
        assert_eq!(plb.mode(), PlbMode::Full8);
    }

    #[test]
    fn fp_guard_keeps_machine_wide() {
        let (_cfg, groups, mut plb) = setup(PlbVariant::Orig);
        // Low total IPC but FP-heavy: secondary trigger holds 8-wide.
        feed_windows(&mut plb, &groups, 4, 2, 2);
        assert_eq!(plb.mode(), PlbMode::Full8);
    }

    #[test]
    fn wide4_constraints_match_the_papers_disable_list() {
        let (cfg, groups, mut plb) = setup(PlbVariant::Orig);
        feed_windows(&mut plb, &groups, 3, 1, 0);
        assert_eq!(plb.mode(), PlbMode::Wide4);
        let c = plb.constraints();
        c.validate(&cfg).expect("valid");
        assert_eq!(c.issue_width, 4);
        assert_eq!(c.fetch_width, 4);
        assert_eq!(c.enabled(FuClass::IntAlu), 3);
        assert_eq!(c.enabled(FuClass::IntMulDiv), 1);
        assert_eq!(c.enabled(FuClass::FpAlu), 2);
        assert_eq!(c.enabled(FuClass::FpMulDiv), 2);
        // Orig leaves the physical cache ports intact.
        assert_eq!(c.enabled(FuClass::MemPort), 2);
    }

    #[test]
    fn ext_gates_latches_buses_and_a_port_in_wide4() {
        let (cfg, groups, mut plb) = setup(PlbVariant::Ext);
        feed_windows(&mut plb, &groups, 3, 1, 0);
        let g = plb.gate_for(0);
        g.validate(&cfg, &groups).expect("valid");
        assert!(g.latch_slots.iter().all(|s| *s == Some(4)));
        assert_eq!(g.result_buses_powered, 4);
        assert_eq!(g.dcache_ports_powered.count_ones(), 1);
        assert!((g.issue_queue_scale - 0.5).abs() < 1e-12);
        // Ext also narrows the physical port for timing.
        assert_eq!(plb.constraints().enabled(FuClass::MemPort), 1);
    }

    #[test]
    fn orig_gates_units_but_not_latches() {
        let (cfg, groups, mut plb) = setup(PlbVariant::Orig);
        feed_windows(&mut plb, &groups, 3, 2, 0);
        assert_eq!(plb.mode(), PlbMode::Wide6);
        let g = plb.gate_for(0);
        g.validate(&cfg, &groups).expect("valid");
        assert!(g.latch_slots.iter().all(|s| s.is_none()));
        assert_eq!(g.result_buses_powered, 8);
        assert_eq!(g.fu_powered_count(FuClass::IntAlu), 5);
        assert_eq!(g.fu_powered_count(FuClass::FpAlu), 3);
        assert!((g.issue_queue_scale - 0.75).abs() < 1e-12);
    }

    #[test]
    fn transitions_are_counted() {
        let (_cfg, groups, mut plb) = setup(PlbVariant::Orig);
        feed_windows(&mut plb, &groups, 3, 1, 0);
        feed_windows(&mut plb, &groups, 1, 7, 0);
        assert_eq!(plb.transitions(), 2, "one down, one up");
    }

    #[test]
    #[should_panic(expected = "thresholds")]
    fn bad_thresholds_panic() {
        let cfg = SimConfig::baseline_8wide();
        let groups = LatchGroups::new(&PipelineDepth::stages8());
        let bad = PlbConfig {
            to4_ipc: 5.0,
            to6_ipc: 2.0,
            ..PlbConfig::default()
        };
        let _ = Plb::with_config(PlbVariant::Orig, bad, &cfg, &groups);
    }
}
