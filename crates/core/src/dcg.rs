//! Deterministic Clock Gating (the paper's contribution, §2-§3).
//!
//! The controller consumes only **advance-knowledge signals** from the
//! issue stage and scheduler — signals real hardware has:
//!
//! * **Execution units** (§3.1): the selection logic's GRANT outputs name
//!   the unit instance and, with the operation's fixed latency, fix the
//!   instance's activity from cycle `X+2` on. The grants are piped through
//!   (modelled) extended latches and AND the unit clocks.
//! * **Pipeline latches** (§3.2): a one-hot encoding of how many issue
//!   slots were filled is piped down the back end; latch slot `k` of stage
//!   `s` clocks only if slot `k` carries an instruction. The rename latch
//!   is gated from the decode stage's count one cycle ahead (§2.2.1).
//! * **D-cache wordline decoders** (§3.3): a load issued in `X` accesses
//!   the cache in `X+3`; committed stores are scheduled one cycle ahead
//!   (or delayed one cycle — [`dcg_sim::StoreTiming`]).
//! * **Result-bus drivers** (§3.4): writeback usage is known two cycles
//!   ahead (execution-unit control delayed by two cycles; variable-latency
//!   loads' completions are scheduled when the miss is resolved, still at
//!   least two cycles early).
//!
//! The controller's own state — the extended latch bits carrying grants and
//! one-hot counts — is charged to [`dcg_power::Component::GatingControl`]
//! every cycle (paper §4.2: ≈1 % of latch power; the AND gates are
//! negligible).
//!
//! DCG imposes no resource constraints, so it rides the block-replay hot
//! path (DESIGN §13): [`GatingPolicy::gate_lanes`] reads a decoded block's
//! columns directly (grants, scheduled stores, booked buses, flow counts)
//! and writes each lane's decision without allocating. The per-cycle
//! `gate_into`/`observe` pair and the lane path share the same helpers, so
//! both produce the same decisions, bit for bit.

use dcg_isa::FuClass;
use dcg_power::{GateLanes, GateState};
use dcg_sim::{
    ActivityBlock, CycleActivity, FlowSource, FuGrant, LatchGroupSpec, LatchGroups,
    ResourceConstraints, SimConfig,
};

use crate::policy::GatingPolicy;

/// Lookahead ring length; must exceed the longest grant horizon
/// (`exec_start + active_len` ≤ issue-to-execute + max op latency).
const RING: usize = 128;

/// History ring for observed flows (latch-gate control); must exceed the
/// deepest latch delay.
const HIST: usize = 64;

/// Optional DCG extensions beyond the paper's §3 block list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DcgOptions {
    /// Also gate the deterministically-empty part of the issue queue, in
    /// the style of the scheme the paper cites as \[6\] (§2.2.2: "\[6\]
    /// already presents a deterministic method to clock-gate the issue
    /// queue, \[so\] we do not explore applying DCG to the issue queue").
    /// Entries beyond `occupancy + dispatch width` cannot be written next
    /// cycle, so their clocks can be gated with zero risk.
    pub gate_issue_queue: bool,
}

/// The Deterministic Clock Gating policy.
///
/// # Example
///
/// ```
/// use dcg_core::{Dcg, GatingPolicy};
/// use dcg_sim::{LatchGroups, SimConfig};
///
/// let cfg = SimConfig::baseline_8wide();
/// let groups = LatchGroups::new(&cfg.depth);
/// let mut dcg = Dcg::new(&cfg, &groups);
/// // Before any activity is observed, everything gateable is gated.
/// let gate = dcg.gate_for(1);
/// assert_eq!(gate.result_buses_powered, 0);
/// assert_eq!(gate.dcache_ports_powered, 0);
/// assert!(gate.control_bits > 0, "the controller pays for its own latches");
/// ```
#[derive(Debug)]
pub struct Dcg {
    constraints: ResourceConstraints,
    specs: Vec<LatchGroupSpec>,
    issue_width: u32,
    control_bits: u32,
    options: DcgOptions,
    iq_capacity: u32,
    iq_scale_next: f64,
    /// Per future cycle: unit-instance enable masks per class.
    fu_ring: Vec<[u32; FuClass::COUNT]>,
    /// Per future cycle: D-cache port decoder enables.
    port_ring: Vec<u32>,
    /// Per future cycle: result buses that will be driven.
    bus_ring: Vec<u32>,
    /// Observed per-cycle issued counts (one-hot pipe), indexed by cycle.
    issued_hist: Vec<u32>,
    /// Observed per-cycle rename-traversal counts.
    renamed_hist: Vec<u32>,
    /// Decode-stage count observed last cycle (rename-latch control).
    decode_ready: u32,
}

impl Dcg {
    /// Build the DCG controller for `config` (the paper's §3 block list).
    pub fn new(config: &SimConfig, groups: &LatchGroups) -> Dcg {
        Self::with_options(config, groups, DcgOptions::default())
    }

    /// Build the DCG controller with optional extensions.
    pub fn with_options(config: &SimConfig, groups: &LatchGroups, options: DcgOptions) -> Dcg {
        Dcg {
            constraints: ResourceConstraints::unrestricted(config),
            specs: groups.specs().to_vec(),
            issue_width: config.issue_width as u32,
            control_bits: Self::control_bit_count(config, groups),
            options,
            iq_capacity: config.iq_entries as u32,
            iq_scale_next: 1.0,
            fu_ring: vec![[0; FuClass::COUNT]; RING],
            port_ring: vec![0; RING],
            bus_ring: vec![0; RING],
            issued_hist: vec![0; HIST],
            renamed_hist: vec![0; HIST],
            decode_ready: 0,
        }
    }

    /// Extended-latch bits the controller clocks every cycle (paper §3.1,
    /// §3.2): GRANT bits piped for two stages per unit instance, the
    /// one-hot issued encoding piped down every gated back-end stage,
    /// load/store count bits for the cache-port control, and the delayed
    /// writeback counts for the bus control.
    pub fn control_bit_count(config: &SimConfig, groups: &LatchGroups) -> u32 {
        let fu_instances: usize = FuClass::ALL.iter().map(|c| config.fu_count(*c)).sum();
        let backend_gated = groups
            .specs()
            .iter()
            .filter(|s| s.gated && s.source == FlowSource::Issued)
            .count();
        let grant_bits = fu_instances * 2;
        let one_hot_bits = config.issue_width * backend_gated.max(1);
        let port_bits = config.mem_ports * 3;
        let bus_bits = config.result_buses * 2;
        (grant_bits + one_hot_bits + port_bits + bus_bits) as u32
    }

    fn hist(&self, hist: &[u32], cycle_wanted: u64, now: u64) -> u32 {
        // Flows before the start of time are zero; flows of the current or
        // future cycles must never be consulted (determinism).
        debug_assert!(cycle_wanted < now, "DCG peeked at the future");
        if now - cycle_wanted >= HIST as u64 {
            return 0;
        }
        hist[(cycle_wanted % HIST as u64) as usize]
    }

    /// Read and retire `cycle`'s ring slots (nothing may book it any
    /// more): the unit masks with the MemPort entry set to the port
    /// decoder mask, the port mask, and the bus count.
    fn take_booked(&mut self, cycle: u64) -> ([u32; FuClass::COUNT], u32, u32) {
        let idx = (cycle % RING as u64) as usize;
        let mut fu_powered = std::mem::take(&mut self.fu_ring[idx]);
        let ports = std::mem::take(&mut self.port_ring[idx]);
        let buses = std::mem::take(&mut self.bus_ring[idx]);
        // The MemPort mask is the decoder-enable mask.
        fu_powered[FuClass::MemPort.index()] = ports;
        (fu_powered, ports, buses)
    }

    /// Clocked slots of latch group `spec` at `cycle` (`None` for a group
    /// DCG does not gate).
    fn latch_slots(&self, spec: &LatchGroupSpec, cycle: u64) -> Option<u32> {
        if !spec.gated {
            return None;
        }
        let slots = match (spec.source, spec.delay) {
            // Rename latch this cycle: decode count from last cycle
            // (paper §2.2.1). Capped by width for safety.
            (FlowSource::Renamed, 0) => self.decode_ready.min(self.issue_width),
            (FlowSource::Renamed, d) if cycle > u64::from(d) => {
                self.hist(&self.renamed_hist, cycle - u64::from(d), cycle)
            }
            (FlowSource::Issued, d) if cycle > u64::from(d) => {
                debug_assert!(d >= 1, "issued-sourced gated latch with no lead time");
                self.hist(&self.issued_hist, cycle - u64::from(d), cycle)
            }
            // Pre-history (start of time): the pipe is empty.
            (FlowSource::Renamed | FlowSource::Issued, _) => 0,
            (FlowSource::Fetched, _) => unreachable!("fetch latches are not gated"),
        };
        Some(slots)
    }

    fn issue_queue_scale(&self) -> f64 {
        if self.options.gate_issue_queue {
            self.iq_scale_next
        } else {
            1.0
        }
    }

    fn observe_signals(&mut self, sig: &Signals<'_>) {
        let now = sig.cycle;

        // Execution-unit grants fix future instance activity (§3.1); load
        // grants on memory ports fix decoder activity three cycles out
        // (§3.3).
        for g in sig.grants {
            for k in 0..g.active_len {
                let c = now + u64::from(g.exec_start) + u64::from(k);
                let idx = (c % RING as u64) as usize;
                if g.class == FuClass::MemPort {
                    self.port_ring[idx] |= 1 << g.instance;
                } else {
                    self.fu_ring[idx][g.class.index()] |= 1 << g.instance;
                }
            }
        }

        // Committed stores scheduled for next cycle (§3.3).
        let idx_next = ((now + 1) % RING as u64) as usize;
        self.port_ring[idx_next] |= sig.store_ports_next;

        // Result buses booked two cycles out (§3.4). This is the final
        // count for that cycle: bookings always happen at least two cycles
        // ahead of the drive cycle.
        let idx_2 = ((now + 2) % RING as u64) as usize;
        self.bus_ring[idx_2] = sig.result_bus_in_2;

        // One-hot issued pipe and rename control (§3.2, §2.2.1).
        self.issued_hist[(now % HIST as u64) as usize] = sig.issued;
        self.renamed_hist[(now % HIST as u64) as usize] = sig.renamed;
        self.decode_ready = sig.decode_ready_next;

        // Optional \[6\]-style issue-queue gating: entries beyond the current
        // occupancy plus one dispatch group are deterministically empty
        // next cycle.
        if self.options.gate_issue_queue && self.iq_capacity > 0 {
            let possibly_live = (sig.iq_occupancy + self.issue_width).min(self.iq_capacity);
            self.iq_scale_next = f64::from(possibly_live) / f64::from(self.iq_capacity);
        }
    }
}

/// The advance-knowledge signals one cycle hands the controller, read
/// from a [`CycleActivity`] ([`GatingPolicy::observe`]) or from one lane
/// of an [`ActivityBlock`] ([`GatingPolicy::gate_lanes`]).
struct Signals<'a> {
    cycle: u64,
    grants: &'a [FuGrant],
    store_ports_next: u32,
    result_bus_in_2: u32,
    issued: u32,
    renamed: u32,
    decode_ready_next: u32,
    iq_occupancy: u32,
}

impl GatingPolicy for Dcg {
    fn gate_for(&mut self, cycle: u64) -> GateState {
        let mut gate = GateState {
            fu_powered: [0; FuClass::COUNT],
            latch_slots: Vec::with_capacity(self.specs.len()),
            dcache_ports_powered: 0,
            result_buses_powered: 0,
            issue_queue_scale: 1.0,
            control_bits: 0,
        };
        self.gate_into(cycle, &mut gate);
        gate
    }

    fn gate_into(&mut self, cycle: u64, out: &mut GateState) {
        let (fu_powered, ports, buses) = self.take_booked(cycle);
        out.fu_powered = fu_powered;
        out.dcache_ports_powered = ports;
        out.result_buses_powered = buses;
        out.latch_slots.clear();
        out.latch_slots
            .extend(self.specs.iter().map(|s| self.latch_slots(s, cycle)));
        out.issue_queue_scale = self.issue_queue_scale();
        out.control_bits = self.control_bits;
    }

    fn constraints(&self) -> ResourceConstraints {
        self.constraints
    }

    fn observe(&mut self, act: &CycleActivity) {
        self.observe_signals(&Signals {
            cycle: act.cycle,
            grants: &act.grants,
            store_ports_next: act.store_ports_next,
            result_bus_in_2: act.result_bus_in_2,
            issued: act.issued,
            renamed: act.renamed,
            decode_ready_next: act.decode_ready_next,
            iq_occupancy: act.iq_occupancy,
        });
    }

    fn gate_lanes(&mut self, block: &ActivityBlock, from: usize, to: usize, out: &mut GateLanes) {
        for i in from..to {
            let cycle = block.cycle(i);
            let (fu_powered, ports, buses) = self.take_booked(cycle);
            for (col, mask) in out.fu_powered.iter_mut().zip(fu_powered) {
                col[i] = mask;
            }
            out.dcache_ports_powered[i] = ports;
            out.result_buses_powered[i] = buses;
            for (slot, spec) in out.latch_slots_mut(i).iter_mut().zip(&self.specs) {
                *slot = self.latch_slots(spec, cycle);
            }
            out.issue_queue_scale[i] = self.issue_queue_scale();
            out.control_bits[i] = self.control_bits;
            self.observe_signals(&Signals {
                cycle,
                grants: block.grants_at(i),
                store_ports_next: block.store_ports_next[i],
                result_bus_in_2: block.result_bus_in_2[i],
                issued: block.issued[i],
                renamed: block.renamed[i],
                decode_ready_next: block.decode_ready_next[i],
                iq_occupancy: block.iq_occupancy[i],
            });
        }
    }

    fn name(&self) -> &str {
        "dcg"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcg_sim::{FuGrant, PipelineDepth};

    fn controller() -> (SimConfig, LatchGroups, Dcg) {
        let cfg = SimConfig::baseline_8wide();
        let groups = LatchGroups::new(&PipelineDepth::stages8());
        let dcg = Dcg::new(&cfg, &groups);
        (cfg, groups, dcg)
    }

    fn empty_activity(cycle: u64, groups: &LatchGroups) -> CycleActivity {
        CycleActivity {
            cycle,
            latch_occupancy: vec![0; groups.len()],
            ..CycleActivity::default()
        }
    }

    #[test]
    fn idle_machine_gates_everything() {
        let (cfg, groups, mut dcg) = controller();
        let g = dcg.gate_for(1);
        g.validate(&cfg, &groups).expect("valid");
        assert_eq!(g.fu_powered_count(FuClass::IntAlu), 0);
        assert_eq!(g.fu_powered_count(FuClass::FpAlu), 0);
        assert_eq!(g.dcache_ports_powered, 0);
        assert_eq!(g.result_buses_powered, 0);
        for (spec, slots) in groups.specs().iter().zip(&g.latch_slots) {
            if spec.gated {
                assert_eq!(*slots, Some(0), "{} should be fully gated", spec.name);
            } else {
                assert_eq!(*slots, None, "{} is not gateable", spec.name);
            }
        }
        assert!(g.control_bits > 0, "control overhead is charged");
    }

    #[test]
    fn grant_enables_unit_exactly_in_its_active_window() {
        let (_cfg, groups, mut dcg) = controller();
        let mut act = empty_activity(10, &groups);
        act.grants.push(FuGrant {
            class: FuClass::FpMulDiv,
            instance: 2,
            exec_start: 2,
            active_len: 4,
        });
        dcg.observe(&act);
        // Cycle 11: not yet active.
        assert_eq!(dcg.gate_for(11).fu_powered[FuClass::FpMulDiv.index()], 0);
        // Cycles 12..16: instance 2 enabled.
        for c in 12..16 {
            assert_eq!(
                dcg.gate_for(c).fu_powered[FuClass::FpMulDiv.index()],
                0b100,
                "cycle {c}"
            );
        }
        // Cycle 16: gated again.
        assert_eq!(dcg.gate_for(16).fu_powered[FuClass::FpMulDiv.index()], 0);
    }

    #[test]
    fn load_grant_enables_decoder_three_cycles_out() {
        let (_cfg, groups, mut dcg) = controller();
        let mut act = empty_activity(5, &groups);
        act.grants.push(FuGrant {
            class: FuClass::MemPort,
            instance: 1,
            exec_start: 3,
            active_len: 1,
        });
        dcg.observe(&act);
        assert_eq!(dcg.gate_for(6).dcache_ports_powered, 0);
        assert_eq!(dcg.gate_for(7).dcache_ports_powered, 0);
        assert_eq!(dcg.gate_for(8).dcache_ports_powered, 0b10);
        assert_eq!(dcg.gate_for(9).dcache_ports_powered, 0);
    }

    #[test]
    fn store_signal_enables_decoder_next_cycle() {
        let (_cfg, groups, mut dcg) = controller();
        let mut act = empty_activity(5, &groups);
        act.store_ports_next = 0b01;
        dcg.observe(&act);
        assert_eq!(dcg.gate_for(6).dcache_ports_powered, 0b01);
        assert_eq!(dcg.gate_for(7).dcache_ports_powered, 0);
    }

    #[test]
    fn bus_signal_enables_buses_two_cycles_out() {
        let (_cfg, groups, mut dcg) = controller();
        let mut act = empty_activity(5, &groups);
        act.result_bus_in_2 = 5;
        dcg.observe(&act);
        assert_eq!(dcg.gate_for(6).result_buses_powered, 0);
        assert_eq!(dcg.gate_for(7).result_buses_powered, 5);
        assert_eq!(dcg.gate_for(8).result_buses_powered, 0);
    }

    #[test]
    fn one_hot_pipe_follows_issue_counts_down_the_backend() {
        let (_cfg, groups, mut dcg) = controller();
        // Cycle 10 issues 5 instructions, then nothing.
        let mut act = empty_activity(10, &groups);
        act.issued = 5;
        dcg.observe(&act);
        for c in 11..15 {
            dcg.observe(&empty_activity(c - 1 + 1, &groups));
        }
        // Backend gated groups have delays 1..=4: regread sees the group
        // at cycle 11, writeback at cycle 14.
        let backend: Vec<usize> = groups
            .specs()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.gated && s.source == FlowSource::Issued)
            .map(|(i, _)| i)
            .collect();
        for (k, gi) in backend.iter().enumerate() {
            let g = dcg.gate_for(11 + k as u64);
            assert_eq!(
                g.latch_slots[*gi],
                Some(5),
                "group {} at cycle {}",
                groups.specs()[*gi].name,
                11 + k as u64
            );
        }
    }

    #[test]
    fn rename_latch_follows_decode_count() {
        let (_cfg, groups, mut dcg) = controller();
        let mut act = empty_activity(3, &groups);
        act.decode_ready_next = 6;
        dcg.observe(&act);
        let rename_idx = groups
            .specs()
            .iter()
            .position(|s| s.name == "rename0")
            .unwrap();
        assert_eq!(dcg.gate_for(4).latch_slots[rename_idx], Some(6));
    }

    #[test]
    fn control_bits_scale_with_machine_size() {
        let cfg8 = SimConfig::baseline_8wide();
        let g8 = LatchGroups::new(&cfg8.depth);
        let cfg20 = SimConfig::deep_pipeline_20();
        let g20 = LatchGroups::new(&cfg20.depth);
        let b8 = Dcg::control_bit_count(&cfg8, &g8);
        let b20 = Dcg::control_bit_count(&cfg20, &g20);
        assert!(b20 > b8, "deeper pipeline needs more control state");
        // Paper §5.3: overhead is about 1 % of latch power. Latch bits:
        // groups × width × 128.
        let latch_bits = (g8.len() * 8) as f64 * 128.0;
        let ratio = f64::from(b8) / latch_bits;
        assert!(
            (0.005..0.03).contains(&ratio),
            "control overhead ratio {ratio:.4} should be near 1 %"
        );
    }

    #[test]
    fn dcg_is_passive() {
        let (cfg, _groups, dcg) = controller();
        assert!(dcg.is_passive());
        assert_eq!(dcg.constraints(), ResourceConstraints::unrestricted(&cfg));
        assert_eq!(dcg.name(), "dcg");
    }
}
