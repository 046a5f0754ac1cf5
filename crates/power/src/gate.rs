//! The gate-state interface between clock-gating policies and the power
//! model.
//!
//! A policy (DCG, PLB, or none) produces one [`GateState`] per cycle saying
//! which gateable blocks receive their clock. The power model charges
//! energy only to powered blocks, per the paper's accounting (§4.2):
//! *"the circuit's power is added if the circuit is not clock-gated; if the
//! circuit is clock-gated in a cycle, zero power is added"*.

use dcg_isa::FuClass;
use dcg_sim::{LatchGroups, SimConfig, BLOCK_CYCLES};

/// Which blocks receive their clock in one cycle.
///
/// # Example
///
/// ```
/// use dcg_isa::FuClass;
/// use dcg_power::GateState;
/// use dcg_sim::{LatchGroups, SimConfig};
///
/// let cfg = SimConfig::baseline_8wide();
/// let groups = LatchGroups::new(&cfg.depth);
/// let mut gate = GateState::ungated(&cfg, &groups);
/// // Gate five of the six integer ALUs.
/// gate.fu_powered[FuClass::IntAlu.index()] = 0b1;
/// assert_eq!(gate.fu_powered_count(FuClass::IntAlu), 1);
/// gate.validate(&cfg, &groups).expect("still well-formed");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GateState {
    /// Powered (non-gated) execution-unit instances per class, as
    /// bitmasks indexed by [`FuClass::index`].
    pub fu_powered: [u32; FuClass::COUNT],
    /// Per latch group: `None` = ungated (all slots clocked); `Some(n)` =
    /// only `n` slots clocked.
    pub latch_slots: Vec<Option<u32>>,
    /// Powered D-cache wordline decoders (bitmask over ports).
    pub dcache_ports_powered: u32,
    /// Powered result-bus drivers (count).
    pub result_buses_powered: u32,
    /// Issue-queue power scale (1.0 = full; PLB's low-power modes gate a
    /// fraction of the queue).
    pub issue_queue_scale: f64,
    /// Extra control-state bits the gating policy clocks every cycle
    /// (DCG's extended latches; 0 for the baseline).
    pub control_bits: u32,
}

impl GateState {
    /// Everything powered: the paper's base case (no clock gating at all).
    pub fn ungated(config: &SimConfig, groups: &LatchGroups) -> GateState {
        let mut fu_powered = [0u32; FuClass::COUNT];
        for c in FuClass::ALL {
            fu_powered[c.index()] = mask_of(config.fu_count(c));
        }
        GateState {
            fu_powered,
            latch_slots: vec![None; groups.len()],
            dcache_ports_powered: mask_of(config.mem_ports),
            result_buses_powered: config.result_buses as u32,
            issue_queue_scale: 1.0,
            control_bits: 0,
        }
    }

    /// Number of powered instances of `class`.
    pub fn fu_powered_count(&self, class: FuClass) -> u32 {
        self.fu_powered[class.index()].count_ones()
    }

    /// Validate against a configuration and latch geometry.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency (wrong group
    /// count, out-of-range masks or scales).
    pub fn validate(&self, config: &SimConfig, groups: &LatchGroups) -> Result<(), String> {
        if self.latch_slots.len() != groups.len() {
            return Err(format!(
                "latch_slots has {} entries, geometry has {}",
                self.latch_slots.len(),
                groups.len()
            ));
        }
        for c in FuClass::ALL {
            let mask = self.fu_powered[c.index()];
            if mask & !mask_of(config.fu_count(c)) != 0 {
                return Err(format!("fu_powered[{c}] addresses absent instances"));
            }
        }
        if self.dcache_ports_powered & !mask_of(config.mem_ports) != 0 {
            return Err("dcache_ports_powered addresses absent ports".into());
        }
        if self.result_buses_powered > config.result_buses as u32 {
            return Err("result_buses_powered exceeds bus count".into());
        }
        if !(0.0..=1.0).contains(&self.issue_queue_scale) {
            return Err(format!(
                "issue_queue_scale must be in [0,1], got {}",
                self.issue_queue_scale
            ));
        }
        // Note: `Some(n)` is allowed on any group, not only DCG-gateable
        // ones — PLB's window-granularity modes narrow every stage's
        // latches (paper §4.3). The `gated` flag on a group marks DCG's
        // *deterministic* gateability, which the DCG policy respects.
        for (i, slots) in self.latch_slots.iter().enumerate() {
            if let Some(n) = slots {
                if *n > config.issue_width as u32 {
                    return Err(format!("group {i} slots {n} exceed the machine width"));
                }
            }
        }
        Ok(())
    }

    /// This gate state as a one-lane [`GateColumns`] view.
    #[inline]
    pub fn columns(&self) -> GateColumns<'_> {
        use std::slice::from_ref;
        GateColumns {
            groups: self.latch_slots.len(),
            fu_powered: std::array::from_fn(|c| from_ref(&self.fu_powered[c])),
            latch_slots: &self.latch_slots,
            dcache_ports_powered: from_ref(&self.dcache_ports_powered),
            result_buses_powered: from_ref(&self.result_buses_powered),
            issue_queue_scale: from_ref(&self.issue_queue_scale),
            control_bits: from_ref(&self.control_bits),
        }
    }
}

/// The gate states of one [`ActivityBlock`](dcg_sim::ActivityBlock) as
/// columns: lane `i` holds the decision for block cycle `i`.
///
/// Each column mirrors a [`GateState`] field. Latch slots are stored
/// cycle-major (lane `i`, group `g` at `i * groups + g`) with `None` as
/// the explicit "ungated" marker, exactly as in
/// [`GateState::latch_slots`]; a fail-open repair may set it on any lane.
/// Policies fill a span of lanes
/// (`GatingPolicy::gate_lanes` in `dcg-core`); the accounting folds read
/// it through [`GateLanes::columns`].
#[derive(Debug, Clone, PartialEq)]
pub struct GateLanes {
    groups: usize,
    /// Powered instance masks per class ([`FuClass::index`]) per lane.
    pub fu_powered: [[u32; BLOCK_CYCLES]; FuClass::COUNT],
    /// Powered D-cache wordline decoders (bitmask) per lane.
    pub dcache_ports_powered: [u32; BLOCK_CYCLES],
    /// Powered result-bus drivers (count) per lane.
    pub result_buses_powered: [u32; BLOCK_CYCLES],
    /// Issue-queue power scale per lane.
    pub issue_queue_scale: [f64; BLOCK_CYCLES],
    /// Policy control-state bits clocked per lane.
    pub control_bits: [u32; BLOCK_CYCLES],
    latch_slots: Vec<Option<u32>>,
}

impl GateLanes {
    /// Lanes for a machine with `groups` latch groups (every lane ungated
    /// latches, everything else gated, until a policy writes it).
    pub fn new(groups: usize) -> GateLanes {
        GateLanes {
            groups,
            fu_powered: [[0; BLOCK_CYCLES]; FuClass::COUNT],
            dcache_ports_powered: [0; BLOCK_CYCLES],
            result_buses_powered: [0; BLOCK_CYCLES],
            issue_queue_scale: [1.0; BLOCK_CYCLES],
            control_bits: [0; BLOCK_CYCLES],
            latch_slots: vec![None; BLOCK_CYCLES * groups],
        }
    }

    /// Latch slots of lane `i`, one entry per group.
    pub fn latch_slots(&self, i: usize) -> &[Option<u32>] {
        &self.latch_slots[i * self.groups..(i + 1) * self.groups]
    }

    /// Mutable latch slots of lane `i`.
    pub fn latch_slots_mut(&mut self, i: usize) -> &mut [Option<u32>] {
        &mut self.latch_slots[i * self.groups..(i + 1) * self.groups]
    }

    /// Write `gate` into lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `gate` has a different latch group count.
    pub fn set(&mut self, i: usize, gate: &GateState) {
        for (col, &mask) in self.fu_powered.iter_mut().zip(&gate.fu_powered) {
            col[i] = mask;
        }
        self.dcache_ports_powered[i] = gate.dcache_ports_powered;
        self.result_buses_powered[i] = gate.result_buses_powered;
        self.issue_queue_scale[i] = gate.issue_queue_scale;
        self.control_bits[i] = gate.control_bits;
        self.latch_slots_mut(i).copy_from_slice(&gate.latch_slots);
    }

    /// Lane `i` as a [`GateState`], written into `out` (reusing its
    /// allocation).
    pub fn get(&self, i: usize, out: &mut GateState) {
        for (mask, col) in out.fu_powered.iter_mut().zip(&self.fu_powered) {
            *mask = col[i];
        }
        out.dcache_ports_powered = self.dcache_ports_powered[i];
        out.result_buses_powered = self.result_buses_powered[i];
        out.issue_queue_scale = self.issue_queue_scale[i];
        out.control_bits = self.control_bits[i];
        out.latch_slots.clear();
        out.latch_slots.extend_from_slice(self.latch_slots(i));
    }

    /// Lane `i` as a fresh [`GateState`].
    pub fn gate(&self, i: usize) -> GateState {
        let mut out = GateState {
            fu_powered: [0; FuClass::COUNT],
            latch_slots: Vec::with_capacity(self.groups),
            dcache_ports_powered: 0,
            result_buses_powered: 0,
            issue_queue_scale: 1.0,
            control_bits: 0,
        };
        self.get(i, &mut out);
        out
    }

    /// Lanes `from..to` as a [`GateColumns`] view (index `j` of the view
    /// is lane `from + j`).
    #[inline]
    pub fn columns(&self, from: usize, to: usize) -> GateColumns<'_> {
        GateColumns {
            groups: self.groups,
            fu_powered: std::array::from_fn(|c| &self.fu_powered[c][from..to]),
            latch_slots: &self.latch_slots[from * self.groups..to * self.groups],
            dcache_ports_powered: &self.dcache_ports_powered[from..to],
            result_buses_powered: &self.result_buses_powered[from..to],
            issue_queue_scale: &self.issue_queue_scale[from..to],
            control_bits: &self.control_bits[from..to],
        }
    }
}

/// Borrowed gate-state columns: a span of [`GateLanes`] or one
/// [`GateState`] as a single lane — the gate-side twin of
/// [`ActivityColumns`](dcg_sim::ActivityColumns), indexed the same way.
#[derive(Debug, Clone, Copy)]
pub struct GateColumns<'a> {
    /// Latch groups per lane (row width of `latch_slots`).
    pub groups: usize,
    /// Powered instance masks per class.
    pub fu_powered: [&'a [u32]; FuClass::COUNT],
    /// Cycle-major latch slots (`len * groups` entries; `None` = ungated).
    pub latch_slots: &'a [Option<u32>],
    /// Powered D-cache wordline decoders (bitmask).
    pub dcache_ports_powered: &'a [u32],
    /// Powered result-bus drivers (count).
    pub result_buses_powered: &'a [u32],
    /// Issue-queue power scale.
    pub issue_queue_scale: &'a [f64],
    /// Policy control-state bits.
    pub control_bits: &'a [u32],
}

impl<'a> GateColumns<'a> {
    /// Latch slots of index `j`, one entry per group.
    #[inline]
    pub fn latch_slots(&self, j: usize) -> &'a [Option<u32>] {
        &self.latch_slots[j * self.groups..(j + 1) * self.groups]
    }
}

/// Bitmask with the low `n` bits set.
pub(crate) fn mask_of(n: usize) -> u32 {
    if n >= 32 {
        u32::MAX
    } else {
        (1u32 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcg_sim::PipelineDepth;

    fn setup() -> (SimConfig, LatchGroups) {
        let cfg = SimConfig::baseline_8wide();
        let groups = LatchGroups::new(&PipelineDepth::stages8());
        (cfg, groups)
    }

    /// A gate state that differs in every field from cycle to cycle.
    fn varied(cfg: &SimConfig, groups: &LatchGroups, k: u32) -> GateState {
        let mut g = GateState::ungated(cfg, groups);
        g.fu_powered[FuClass::IntAlu.index()] = k & 0x3f;
        g.fu_powered[FuClass::MemPort.index()] = k & 0b11;
        g.dcache_ports_powered = (k >> 1) & 0b11;
        g.result_buses_powered = k % 9;
        g.issue_queue_scale = f64::from(k % 5) / 4.0;
        g.control_bits = k;
        for (i, slot) in g.latch_slots.iter_mut().enumerate() {
            *slot = (k as usize + i).is_multiple_of(3).then_some(k % 8);
        }
        g
    }

    #[test]
    fn lanes_hold_gate_states_and_view_them_as_columns() {
        let (cfg, groups) = setup();
        let mut lanes = GateLanes::new(groups.len());
        for i in 0..BLOCK_CYCLES {
            lanes.set(i, &varied(&cfg, &groups, i as u32 * 7));
        }
        let mut out = GateState::ungated(&cfg, &groups);
        for i in 0..BLOCK_CYCLES {
            let want = varied(&cfg, &groups, i as u32 * 7);
            lanes.get(i, &mut out);
            assert_eq!(out, want, "lane {i}");
            assert_eq!(lanes.gate(i), want, "lane {i}");
            // A one-lane span views the lane as the state itself does.
            assert_eq!(
                format!("{:?}", lanes.columns(i, i + 1)),
                format!("{:?}", want.columns())
            );
        }
        let span = lanes.columns(10, 20);
        assert_eq!(span.latch_slots(4), lanes.latch_slots(14));
        assert_eq!(span.control_bits[4], 14 * 7);
    }

    #[test]
    fn ungated_is_fully_powered_and_valid() {
        let (cfg, groups) = setup();
        let g = GateState::ungated(&cfg, &groups);
        g.validate(&cfg, &groups).expect("valid");
        assert_eq!(g.fu_powered_count(FuClass::IntAlu), 6);
        assert_eq!(g.fu_powered_count(FuClass::MemPort), 2);
        assert_eq!(g.result_buses_powered, 8);
        assert!(g.latch_slots.iter().all(|s| s.is_none()));
        assert_eq!(g.control_bits, 0);
    }

    #[test]
    fn validation_catches_foreign_instances() {
        let (cfg, groups) = setup();
        let mut g = GateState::ungated(&cfg, &groups);
        g.fu_powered[FuClass::IntAlu.index()] = 0x7f; // 7 ALUs, only 6 exist
        assert!(g.validate(&cfg, &groups).is_err());
    }

    #[test]
    fn any_group_may_be_narrowed_but_not_widened() {
        let (cfg, groups) = setup();
        let mut g = GateState::ungated(&cfg, &groups);
        // PLB narrows even the fetch latch (group 0) in low-power modes.
        g.latch_slots[0] = Some(6);
        g.validate(&cfg, &groups).expect("narrowing is legal");
        g.latch_slots[0] = Some(9);
        assert!(g.validate(&cfg, &groups).is_err(), "wider than the machine");
    }

    #[test]
    fn validation_catches_bad_scale_and_buses() {
        let (cfg, groups) = setup();
        let mut g = GateState::ungated(&cfg, &groups);
        g.issue_queue_scale = 1.5;
        assert!(g.validate(&cfg, &groups).is_err());

        let mut g = GateState::ungated(&cfg, &groups);
        g.result_buses_powered = 9;
        assert!(g.validate(&cfg, &groups).is_err());
    }

    #[test]
    fn mask_of_behaviour() {
        assert_eq!(mask_of(0), 0);
        assert_eq!(mask_of(2), 0b11);
        assert_eq!(mask_of(6), 0b11_1111);
        assert_eq!(mask_of(32), u32::MAX);
    }
}
