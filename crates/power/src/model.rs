//! The per-cycle processor power model.

use dcg_isa::FuClass;
use dcg_sim::{ActivityColumns, CycleActivity, LatchGroups, SimConfig};

use crate::calibrate::EnergyTable;
use crate::gate::{GateColumns, GateState};
use crate::report::PowerReport;

/// Power-dissipating processor components, at the granularity the paper's
/// figures report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// Global clock tree (never gated by DCG).
    ClockTree,
    /// Pipeline latches (local clocking) — Figure 14.
    PipelineLatch,
    /// Integer execution units (ALUs + multiply/divide) — Figure 12.
    IntUnits,
    /// FP execution units (ALUs + multiply/divide) — Figure 13.
    FpUnits,
    /// D-cache wordline decoders — Figure 15 (gated part).
    DcacheDecoder,
    /// D-cache array (wordlines, bitlines, sense amps).
    DcacheArray,
    /// Unified L2 cache.
    L2,
    /// Instruction cache.
    Icache,
    /// Branch predictor + BTB + RAS.
    Bpred,
    /// Instruction decoders.
    Decode,
    /// Rename logic.
    Rename,
    /// Issue queue (wakeup CAM + select).
    IssueQueue,
    /// Register files.
    RegFile,
    /// Load/store queue.
    Lsq,
    /// Reorder buffer.
    Rob,
    /// Result-bus drivers — Figure 16.
    ResultBus,
    /// Clock-gating control overhead (extended latches; §4.2).
    GatingControl,
}

impl Component {
    /// All components in display order.
    pub const ALL: [Component; 17] = [
        Component::ClockTree,
        Component::PipelineLatch,
        Component::IntUnits,
        Component::FpUnits,
        Component::DcacheDecoder,
        Component::DcacheArray,
        Component::L2,
        Component::Icache,
        Component::Bpred,
        Component::Decode,
        Component::Rename,
        Component::IssueQueue,
        Component::RegFile,
        Component::Lsq,
        Component::Rob,
        Component::ResultBus,
        Component::GatingControl,
    ];

    /// Number of components.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index for table lookups (position in [`Component::ALL`]).
    pub fn index(self) -> usize {
        // A constant match, not a scan of ALL: this sits on the per-cycle
        // accounting path (~17 calls per simulated cycle).
        match self {
            Component::ClockTree => 0,
            Component::PipelineLatch => 1,
            Component::IntUnits => 2,
            Component::FpUnits => 3,
            Component::DcacheDecoder => 4,
            Component::DcacheArray => 5,
            Component::L2 => 6,
            Component::Icache => 7,
            Component::Bpred => 8,
            Component::Decode => 9,
            Component::Rename => 10,
            Component::IssueQueue => 11,
            Component::RegFile => 12,
            Component::Lsq => 13,
            Component::Rob => 14,
            Component::ResultBus => 15,
            Component::GatingControl => 16,
        }
    }

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            Component::ClockTree => "clock-tree",
            Component::PipelineLatch => "pipeline-latches",
            Component::IntUnits => "int-units",
            Component::FpUnits => "fp-units",
            Component::DcacheDecoder => "dcache-decoders",
            Component::DcacheArray => "dcache-array",
            Component::L2 => "l2",
            Component::Icache => "icache",
            Component::Bpred => "bpred",
            Component::Decode => "decode",
            Component::Rename => "rename",
            Component::IssueQueue => "issue-queue",
            Component::RegFile => "regfile",
            Component::Lsq => "lsq",
            Component::Rob => "rob",
            Component::ResultBus => "result-bus",
            Component::GatingControl => "gating-control",
        }
    }
}

/// Energy spent in one cycle, per component (pJ).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyBreakdown {
    values: [f64; Component::COUNT],
}

impl EnergyBreakdown {
    /// All-zero breakdown.
    pub fn zero() -> EnergyBreakdown {
        EnergyBreakdown {
            values: [0.0; Component::COUNT],
        }
    }

    /// Energy of `component`, pJ.
    pub fn get(&self, component: Component) -> f64 {
        self.values[component.index()]
    }

    /// Add `pj` to `component`.
    pub fn add(&mut self, component: Component, pj: f64) {
        debug_assert!(pj.is_finite() && pj >= 0.0, "bad energy {pj}");
        self.values[component.index()] += pj;
    }

    /// Total energy across components, pJ.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Element-wise accumulate.
    pub fn accumulate(&mut self, other: &EnergyBreakdown) {
        for (a, b) in self.values.iter_mut().zip(&other.values) {
            *a += b;
        }
    }
}

impl Default for EnergyBreakdown {
    fn default() -> Self {
        Self::zero()
    }
}

/// The processor power model: configuration-specialised energy accounting.
#[derive(Debug)]
pub struct PowerModel {
    table: EnergyTable,
    issue_width: f64,
    int_alus: f64,
    int_muldivs: f64,
    fp_alus: f64,
    fp_muldivs: f64,
    mem_ports: f64,
    result_buses: f64,
    latch_groups: f64,
}

impl PowerModel {
    /// Build the model for `config` with the default calibrated table.
    ///
    /// # Panics
    ///
    /// Panics if the energy table fails validation.
    pub fn new(config: &SimConfig, groups: &LatchGroups) -> PowerModel {
        Self::with_table(config, groups, EnergyTable::micron180())
    }

    /// Build the model with an explicit energy table.
    ///
    /// # Panics
    ///
    /// Panics if `table` fails [`EnergyTable::validate`].
    pub fn with_table(config: &SimConfig, groups: &LatchGroups, table: EnergyTable) -> PowerModel {
        if let Err(e) = table.validate() {
            panic!("invalid energy table: {e}");
        }
        PowerModel {
            table,
            issue_width: config.issue_width as f64,
            int_alus: config.int_alus as f64,
            int_muldivs: config.int_muldivs as f64,
            fp_alus: config.fp_alus as f64,
            fp_muldivs: config.fp_muldivs as f64,
            mem_ports: config.mem_ports as f64,
            result_buses: config.result_buses as f64,
            latch_groups: groups.len() as f64,
        }
    }

    /// The calibrated energy table.
    pub fn table(&self) -> &EnergyTable {
        &self.table
    }

    /// Energy dissipated in one cycle given the activity and the gating
    /// decisions, per the paper's accounting (§4.2): gated blocks cost
    /// zero; non-gated blocks cost their full per-cycle energy whether or
    /// not they do useful work.
    // Always inlined so the one-lane views fold away (see `fold_lanes`).
    #[inline(always)]
    pub fn cycle_energy(&self, act: &CycleActivity, gate: &GateState) -> EnergyBreakdown {
        let mut e = EnergyBreakdown::zero();
        self.fold_lanes(&act.columns(), &gate.columns(), &mut e);
        e
    }

    /// Record every cycle of a column span into `report`.
    ///
    /// The formulas are those of [`PowerModel::cycle_energy`] (which is
    /// this fold over a one-lane view). Each component's per-cycle values
    /// are added to its total in cycle order, so every total sees the
    /// same addends in the same order as a loop of
    /// [`PowerReport::record`] calls: the fold is bit-identical to it.
    /// Only the interleaving across components differs.
    ///
    /// # Panics
    ///
    /// Panics if `gate` holds fewer lanes than `act`.
    #[inline]
    pub fn fold_span(&self, act: &ActivityColumns, gate: &GateColumns, report: &mut PowerReport) {
        report.record_columns(act.committed, |totals| self.fold_lanes(act, gate, totals));
    }

    /// Add every cycle of a column view to `e`, lane by lane: each lane's
    /// 17 component energies go to 17 independent running totals, and
    /// each total receives its per-cycle values in cycle order.
    // Always inlined: on a one-lane view the loop unrolls to the
    // straight-line per-cycle formula.
    #[inline(always)]
    fn fold_lanes(&self, act: &ActivityColumns, gate: &GateColumns, e: &mut EnergyBreakdown) {
        let t = &self.table;

        // Gateable blocks: the dynamic share switches only when powered;
        // the leakage share (0 in the paper's accounting) dissipates in
        // every block every cycle regardless of gating.
        let dynamic = 1.0 - t.leakage_fraction;
        let leak = t.leakage_fraction;

        // Pipeline latches: ungated groups clock every slot every cycle.
        let slot_pj = t.latch_bit_cycle * t.latch_bits_per_slot;
        let latch_leak = self.latch_groups * self.issue_width * slot_pj * leak;
        let int_leak =
            (self.int_alus * t.int_alu_cycle + self.int_muldivs * t.int_muldiv_cycle) * leak;
        let fp_leak = (self.fp_alus * t.fp_alu_cycle + self.fp_muldivs * t.fp_muldiv_cycle) * leak;
        let decoder_leak = self.mem_ports * t.dcache_decoder_cycle * leak;
        let bus_leak = self.result_buses * t.result_bus_cycle * leak;

        let mut totals = e.values;
        for j in 0..act.len {
            let mut latch_pj = 0.0;
            for gated_slots in gate.latch_slots(j) {
                let slots = match gated_slots {
                    Some(n) => f64::from(*n),
                    None => self.issue_width,
                };
                latch_pj += slots * slot_pj * dynamic;
            }
            let powered = |c: FuClass| f64::from(gate.fu_powered[c.index()][j].count_ones());
            // One entry per component, in `Component::ALL` order.
            let lane: [f64; Component::COUNT] = [
                t.clock_tree_cycle,
                latch_pj + latch_leak,
                // Execution units: dynamic logic precharges every
                // non-gated cycle.
                (powered(FuClass::IntAlu) * t.int_alu_cycle
                    + powered(FuClass::IntMulDiv) * t.int_muldiv_cycle)
                    * dynamic
                    + int_leak,
                (powered(FuClass::FpAlu) * t.fp_alu_cycle
                    + powered(FuClass::FpMulDiv) * t.fp_muldiv_cycle)
                    * dynamic
                    + fp_leak,
                // D-cache: decoders precharge every non-gated cycle; the
                // array proper is accessed on demand.
                f64::from(gate.dcache_ports_powered[j].count_ones())
                    * t.dcache_decoder_cycle
                    * dynamic
                    + decoder_leak,
                f64::from(act.dcache_load_accesses[j] + act.dcache_store_accesses[j])
                    * t.dcache_array_access,
                f64::from(act.l2_accesses[j]) * t.l2_access,
                // Front end.
                f64::from((act.icache_access_lanes >> j) & 1 == 1) * t.icache_access,
                f64::from(act.bpred_lookups[j]) * t.bpred_lookup,
                f64::from(act.fetched[j]) * t.decode_inst,
                f64::from(act.renamed[j]) * t.rename_inst,
                // Window. The gate scale applies to the parts proportional
                // to the number of *live* entries (CAM match-line
                // precharge and wakeup tag-line span); per-operation
                // writes and selects are demand energy and do not shrink.
                (t.iq_cycle + f64::from(act.regfile_writes[j]) * t.iq_wakeup)
                    * gate.issue_queue_scale[j]
                    + f64::from(act.dispatched[j]) * t.iq_write
                    + f64::from(act.issued[j]) * t.iq_select,
                f64::from(act.regfile_reads[j]) * t.regfile_read
                    + f64::from(act.regfile_writes[j]) * t.regfile_write,
                t.lsq_cycle + f64::from(act.issued_loads[j] + act.issued_stores[j]) * t.lsq_op,
                f64::from(act.dispatched[j]) * t.rob_write
                    + f64::from(act.committed[j]) * t.rob_read,
                // Result buses: drivers see spurious transitions every
                // non-gated cycle (§3.4).
                f64::from(gate.result_buses_powered[j]) * t.result_bus_cycle * dynamic + bus_leak,
                // Gating-control overhead (extended latches).
                f64::from(gate.control_bits[j]) * t.dcg_control_bit_cycle,
            ];
            for (total, pj) in totals.iter_mut().zip(lane) {
                debug_assert!(pj.is_finite() && pj >= 0.0, "bad energy {pj}");
                *total += pj;
            }
        }
        e.values = totals;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcg_sim::PipelineDepth;

    fn setup() -> (SimConfig, LatchGroups, PowerModel) {
        let cfg = SimConfig::baseline_8wide();
        let groups = LatchGroups::new(&PipelineDepth::stages8());
        let model = PowerModel::new(&cfg, &groups);
        (cfg, groups, model)
    }

    fn idle_activity(groups: &LatchGroups) -> CycleActivity {
        CycleActivity {
            latch_occupancy: vec![0; groups.len()],
            ..CycleActivity::default()
        }
    }

    #[test]
    fn span_fold_equals_per_cycle_records_bit_for_bit() {
        use crate::gate::GateLanes;
        use dcg_sim::{ActivityBlock, Processor, BLOCK_CYCLES};
        use dcg_workloads::{Spec2000, SyntheticWorkload};

        let (cfg, groups, model) = setup();
        let workload = SyntheticWorkload::new(Spec2000::by_name("gzip").expect("known"), 3);
        let mut cpu = Processor::new(cfg.clone(), workload);
        let mut block = ActivityBlock::new(groups.len());
        let mut lanes = GateLanes::new(groups.len());
        let mut per_cycle = PowerReport::new();
        let mut spans = PowerReport::new();
        for _ in 0..4 {
            block.clear(0);
            for i in 0..BLOCK_CYCLES {
                let act = cpu.step().clone();
                // Vary every gate field the energy formula reads.
                let mut gate = GateState::ungated(&cfg, &groups);
                gate.fu_powered[FuClass::IntAlu.index()] =
                    act.fu_active[FuClass::IntAlu.index()] | (i as u32 & 1);
                gate.dcache_ports_powered = act.dcache_port_mask;
                gate.result_buses_powered = act.result_bus_used;
                gate.issue_queue_scale = 0.5 + f64::from(i as u32 % 3) / 7.0;
                gate.control_bits = i as u32;
                for (slot, &occ) in gate.latch_slots.iter_mut().zip(&act.latch_occupancy) {
                    *slot = (i % 4 != 0).then_some(occ);
                }
                per_cycle.record(&model.cycle_energy(&act, &gate), act.committed);
                block.push(&act);
                lanes.set(i, &gate);
            }
            // Uneven spans, as the block drive cuts them at the warm-up
            // boundary.
            for (from, to) in [(0, 5), (5, 5), (5, 40), (40, BLOCK_CYCLES)] {
                model.fold_span(
                    &block.columns(from, to),
                    &lanes.columns(from, to),
                    &mut spans,
                );
            }
        }
        assert_eq!(spans.cycles(), per_cycle.cycles());
        assert_eq!(spans.committed(), per_cycle.committed());
        for c in Component::ALL {
            assert_eq!(
                spans.component_pj(c).to_bits(),
                per_cycle.component_pj(c).to_bits(),
                "{}",
                c.label()
            );
        }
    }

    #[test]
    fn component_indices_are_dense() {
        for (i, c) in Component::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(!c.label().is_empty());
        }
    }

    #[test]
    fn breakdown_arithmetic() {
        let mut e = EnergyBreakdown::zero();
        assert_eq!(e.total(), 0.0);
        e.add(Component::L2, 5.0);
        e.add(Component::L2, 5.0);
        assert_eq!(e.get(Component::L2), 10.0);
        let mut sum = EnergyBreakdown::zero();
        sum.accumulate(&e);
        sum.accumulate(&e);
        assert_eq!(sum.total(), 20.0);
    }

    #[test]
    fn baseline_idle_cycle_still_burns_clock_and_units() {
        // The paper's base case: no gating, so even a completely idle
        // cycle pays clock, latches, execution units, decoders and buses.
        let (cfg, groups, model) = setup();
        let gate = GateState::ungated(&cfg, &groups);
        let e = model.cycle_energy(&idle_activity(&groups), &gate);
        assert!(e.get(Component::ClockTree) > 0.0);
        assert!(e.get(Component::PipelineLatch) > 0.0);
        assert!(e.get(Component::IntUnits) > 0.0);
        assert!(e.get(Component::FpUnits) > 0.0);
        assert!(e.get(Component::DcacheDecoder) > 0.0);
        assert!(e.get(Component::ResultBus) > 0.0);
        // But demand-driven components are quiet.
        assert_eq!(e.get(Component::DcacheArray), 0.0);
        assert_eq!(e.get(Component::Icache), 0.0);
        assert_eq!(e.get(Component::GatingControl), 0.0);
    }

    #[test]
    fn gating_strictly_reduces_energy() {
        let (cfg, groups, model) = setup();
        let base = GateState::ungated(&cfg, &groups);
        let mut act = idle_activity(&groups);
        act.issued = 2;
        act.dispatched = 2;

        let mut gated = base.clone();
        gated.fu_powered[FuClass::IntAlu.index()] = 0b1; // 1 of 6
        gated.fu_powered[FuClass::FpAlu.index()] = 0;
        gated.fu_powered[FuClass::FpMulDiv.index()] = 0;
        gated.dcache_ports_powered = 0;
        gated.result_buses_powered = 2;
        for (i, s) in groups.specs().iter().enumerate() {
            if s.gated {
                gated.latch_slots[i] = Some(2);
            }
        }
        let e_base = model.cycle_energy(&act, &base);
        let e_gated = model.cycle_energy(&act, &gated);
        assert!(e_gated.total() < e_base.total());
        assert!(e_gated.get(Component::IntUnits) < e_base.get(Component::IntUnits));
        assert!(e_gated.get(Component::PipelineLatch) < e_base.get(Component::PipelineLatch));
        assert_eq!(e_gated.get(Component::FpUnits), 0.0);
        assert_eq!(e_gated.get(Component::DcacheDecoder), 0.0);
    }

    #[test]
    fn control_overhead_is_charged() {
        let (cfg, groups, model) = setup();
        let mut gate = GateState::ungated(&cfg, &groups);
        gate.control_bits = 100;
        let e = model.cycle_energy(&idle_activity(&groups), &gate);
        assert!(e.get(Component::GatingControl) > 0.0);
    }

    #[test]
    fn demand_components_scale_with_activity() {
        let (cfg, groups, model) = setup();
        let gate = GateState::ungated(&cfg, &groups);
        let mut a1 = idle_activity(&groups);
        a1.dcache_load_accesses = 1;
        a1.l2_accesses = 1;
        a1.regfile_reads = 2;
        let mut a2 = a1.clone();
        a2.dcache_load_accesses = 2;
        a2.l2_accesses = 2;
        a2.regfile_reads = 4;
        let e1 = model.cycle_energy(&a1, &gate);
        let e2 = model.cycle_energy(&a2, &gate);
        assert!(
            (e2.get(Component::DcacheArray) / e1.get(Component::DcacheArray) - 2.0).abs() < 1e-9
        );
        assert!((e2.get(Component::L2) / e1.get(Component::L2) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn clock_share_matches_papers_30_percent_claim() {
        // Paper §1: total clock power (global tree + latch clocking) is
        // 30-35 % of processor power. Check at a representative activity.
        let (cfg, groups, model) = setup();
        let gate = GateState::ungated(&cfg, &groups);
        let mut act = idle_activity(&groups);
        act.fetched = 4;
        act.renamed = 3;
        act.dispatched = 3;
        act.issued = 3;
        act.issued_loads = 1;
        act.committed = 3;
        act.regfile_reads = 5;
        act.regfile_writes = 3;
        act.dcache_load_accesses = 1;
        act.bpred_lookups = 1;
        act.icache_access = true;
        let e = model.cycle_energy(&act, &gate);
        let clock = e.get(Component::ClockTree) + e.get(Component::PipelineLatch);
        let share = clock / e.total();
        assert!(
            (0.2..0.45).contains(&share),
            "clock share {share:.2} out of band"
        );
    }
}
