//! Run-level energy accumulation and comparison reports.

use std::fmt;

use crate::model::{Component, EnergyBreakdown};

/// Accumulated energy over a simulation run.
///
/// # Example
///
/// ```
/// use dcg_power::{Component, EnergyBreakdown, PowerReport};
///
/// let mut cycle = EnergyBreakdown::zero();
/// cycle.add(Component::ClockTree, 70.0);
/// cycle.add(Component::IntUnits, 30.0);
/// let mut report = PowerReport::new();
/// for _ in 0..100 {
///     report.record(&cycle, 4);
/// }
/// assert_eq!(report.cycles(), 100);
/// assert!((report.share(Component::IntUnits) - 0.3).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReport {
    totals: EnergyBreakdown,
    cycles: u64,
    committed: u64,
}

impl PowerReport {
    /// An empty report.
    pub fn new() -> PowerReport {
        PowerReport {
            totals: EnergyBreakdown::zero(),
            cycles: 0,
            committed: 0,
        }
    }

    /// Accumulate one cycle's energy.
    pub fn record(&mut self, cycle_energy: &EnergyBreakdown, committed: u32) {
        self.totals.accumulate(cycle_energy);
        self.cycles += 1;
        self.committed += u64::from(committed);
    }

    /// Record `committed.len()` cycles whose energies `fold` adds to the
    /// running totals.
    #[inline]
    pub(crate) fn record_columns(
        &mut self,
        committed: &[u32],
        fold: impl FnOnce(&mut EnergyBreakdown),
    ) {
        fold(&mut self.totals);
        self.cycles += committed.len() as u64;
        self.committed += committed.iter().map(|&c| u64::from(c)).sum::<u64>();
    }

    /// Cycles recorded.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Instructions committed over the recorded window.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Total energy, pJ.
    pub fn total_pj(&self) -> f64 {
        self.totals.total()
    }

    /// Total energy of one component, pJ.
    pub fn component_pj(&self, c: Component) -> f64 {
        self.totals.get(c)
    }

    /// Component share of total energy.
    pub fn share(&self, c: Component) -> f64 {
        let t = self.total_pj();
        if t == 0.0 {
            0.0
        } else {
            self.component_pj(c) / t
        }
    }

    /// Energy per committed instruction, pJ.
    pub fn energy_per_inst_pj(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.total_pj() / self.committed as f64
        }
    }

    /// Average energy per cycle, pJ (proportional to average power).
    pub fn energy_per_cycle_pj(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_pj() / self.cycles as f64
        }
    }

    /// Total-**power** saving of `self` relative to `baseline`
    /// (`1 − P_self/P_base`, average watts). This is what the paper's
    /// Figure 10 plots; a scheme that also slows the machine down is
    /// *not* penalised here — that shows up in
    /// [`PowerReport::power_delay_saving_vs`] (Figure 11).
    ///
    /// # Panics
    ///
    /// Panics if `baseline` recorded no cycles.
    pub fn power_saving_vs(&self, baseline: &PowerReport) -> f64 {
        assert!(baseline.cycles > 0, "empty baseline report");
        1.0 - self.energy_per_cycle_pj() / baseline.energy_per_cycle_pj()
    }

    /// Component-level *power* saving versus a baseline (average watts in
    /// that component), e.g. Figure 12's integer-unit power saving.
    pub fn component_saving_vs(&self, baseline: &PowerReport, c: Component) -> f64 {
        let base = baseline.component_pj(c) / baseline.cycles.max(1) as f64;
        if base == 0.0 {
            return 0.0;
        }
        let own = self.component_pj(c) / self.cycles.max(1) as f64;
        1.0 - own / base
    }

    /// Power-delay saving versus a baseline (Figure 11). Power × delay for
    /// a fixed instruction count is energy per instruction, so a slower
    /// technique is penalised by its extra cycles while DCG's power-delay
    /// saving equals its power saving (no slowdown) — exactly the paper's
    /// relationship.
    pub fn power_delay_saving_vs(&self, baseline: &PowerReport) -> f64 {
        assert!(baseline.committed > 0 && self.committed > 0, "empty report");
        1.0 - self.energy_per_inst_pj() / baseline.energy_per_inst_pj()
    }

    /// Relative performance versus a baseline (IPC ratio).
    pub fn relative_performance_vs(&self, baseline: &PowerReport) -> f64 {
        let own = self.committed as f64 / self.cycles.max(1) as f64;
        let base = baseline.committed as f64 / baseline.cycles.max(1) as f64;
        if base == 0.0 {
            0.0
        } else {
            own / base
        }
    }
}

impl Default for PowerReport {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for PowerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<18} {:>12} {:>7}",
            "component", "energy (uJ)", "share"
        )?;
        for c in Component::ALL {
            writeln!(
                f,
                "{:<18} {:>12.2} {:>6.1}%",
                c.label(),
                self.component_pj(c) / 1e6,
                100.0 * self.share(c)
            )?;
        }
        writeln!(
            f,
            "{:<18} {:>12.2} ({} cycles, {} instructions)",
            "total",
            self.total_pj() / 1e6,
            self.cycles,
            self.committed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breakdown(int_units: f64, clock: f64) -> EnergyBreakdown {
        let mut e = EnergyBreakdown::zero();
        e.add(Component::IntUnits, int_units);
        e.add(Component::ClockTree, clock);
        e
    }

    fn report(cycles: u64, per_cycle: &EnergyBreakdown, ipc: u32) -> PowerReport {
        let mut r = PowerReport::new();
        for _ in 0..cycles {
            r.record(per_cycle, ipc);
        }
        r
    }

    #[test]
    fn shares_sum_to_one() {
        let r = report(10, &breakdown(30.0, 70.0), 4);
        assert!((r.share(Component::IntUnits) - 0.3).abs() < 1e-12);
        assert!((r.share(Component::ClockTree) - 0.7).abs() < 1e-12);
        let sum: f64 = Component::ALL.iter().map(|c| r.share(*c)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn power_saving_is_run_length_independent() {
        let base = report(100, &breakdown(50.0, 50.0), 4);
        let gated_short = report(50, &breakdown(25.0, 50.0), 4);
        let gated_long = report(200, &breakdown(25.0, 50.0), 4);
        let s1 = gated_short.power_saving_vs(&base);
        let s2 = gated_long.power_saving_vs(&base);
        assert!((s1 - 0.25).abs() < 1e-12);
        assert!((s1 - s2).abs() < 1e-12);
    }

    #[test]
    fn component_saving() {
        let base = report(100, &breakdown(40.0, 60.0), 4);
        let gated = report(100, &breakdown(10.0, 60.0), 4);
        let s = gated.component_saving_vs(&base, Component::IntUnits);
        assert!((s - 0.75).abs() < 1e-12);
        assert_eq!(gated.component_saving_vs(&base, Component::L2), 0.0);
    }

    #[test]
    fn power_delay_penalises_slowdown() {
        // Same per-cycle energy, but the "technique" run needs 25 % more
        // cycles for the same instructions: per-instruction energy is
        // higher AND delay is longer.
        let base = report(100, &breakdown(50.0, 50.0), 4);
        let slow = report(125, &breakdown(45.0, 50.0), 3); // ~5 % less power/cycle
        let power_saving = slow.power_saving_vs(&base);
        let pd_saving = slow.power_delay_saving_vs(&base);
        assert!(
            pd_saving < power_saving,
            "power-delay must punish the slowdown: {pd_saving} vs {power_saving}"
        );
        let rel = slow.relative_performance_vs(&base);
        assert!((rel - 0.75).abs() < 1e-12); // IPC 3 vs 4
    }

    #[test]
    fn display_is_nonempty() {
        let r = report(3, &breakdown(1.0, 2.0), 1);
        let s = r.to_string();
        assert!(s.contains("clock-tree"));
        assert!(s.contains("total"));
    }

    #[test]
    #[should_panic(expected = "empty baseline")]
    fn saving_vs_empty_baseline_panics() {
        let r = report(1, &breakdown(1.0, 1.0), 1);
        let _ = r.power_saving_vs(&PowerReport::new());
    }
}
