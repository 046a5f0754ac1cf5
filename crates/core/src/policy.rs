//! The clock-gating policy abstraction.

use dcg_power::{GateLanes, GateState};
use dcg_sim::{ActivityBlock, CycleActivity, LatchGroups, ResourceConstraints, SimConfig};

/// A per-cycle clock-gating policy.
///
/// Protocol, per simulated cycle `X` (driven by the runners in this
/// crate, e.g. [`crate::run_passive`]):
///
/// 1. [`GatingPolicy::gate_for`]`(X)` — produce the gate state for cycle
///    `X` *before it executes*, i.e. from information observed in cycles
///    `< X`. This is where DCG's determinism lives: its controller may use
///    only the advance-knowledge signals it has already seen.
/// 2. [`GatingPolicy::constraints`] — resource limits for cycle `X`
///    (identity for DCG; mode-dependent for PLB).
/// 3. the simulator executes cycle `X`;
/// 4. [`GatingPolicy::observe`] — the policy sees cycle `X`'s activity
///    (GRANT signals, one-hot issued count, scheduled stores, booked
///    buses) and updates its internal pipelined control state.
///
/// The drive loop (DESIGN §13) moves [`ActivityBlock`]s, and the policy
/// sinks call [`GatingPolicy::gate_lanes`] once per span: steps 1 and 4
/// for each lane in order. Step 2 happens once per block, which the
/// policy keeps exact by bounding the block with
/// [`GatingPolicy::horizon`]. The `gate_lanes` default replays the
/// per-cycle protocol lane by lane, so every policy is block-capable; the
/// hot policies override it to read the block's columns directly.
pub trait GatingPolicy {
    /// Gate state for cycle `cycle`, decided ahead of its execution.
    fn gate_for(&mut self, cycle: u64) -> GateState;

    /// [`GatingPolicy::gate_for`] writing into a caller-owned state.
    ///
    /// The driver loop calls this once per cycle with a reused scratch
    /// value; policies whose gate state is cheap to copy in place (the
    /// ungated baseline) override it to avoid a heap allocation per
    /// cycle. Must produce exactly the value `gate_for` would return.
    fn gate_into(&mut self, cycle: u64, out: &mut GateState) {
        *out = self.gate_for(cycle);
    }

    /// Resource constraints for the upcoming cycle.
    fn constraints(&self) -> ResourceConstraints;

    /// Upcoming cycles (at least 1) over which
    /// [`constraints`](GatingPolicy::constraints) is guaranteed not to
    /// change, whatever activity the policy observes meanwhile. An active
    /// run steps at most this many cycles before polling again. The
    /// default, 1, re-polls every cycle.
    fn horizon(&self) -> usize {
        1
    }

    /// Observe the activity of the cycle that just executed.
    fn observe(&mut self, activity: &CycleActivity);

    /// Decide lanes `from..to` of `block` into the same lanes of `out`,
    /// observing each lane right after deciding it: per lane, exactly
    /// [`gate_into`](GatingPolicy::gate_into) then
    /// [`observe`](GatingPolicy::observe).
    ///
    /// The default is that per-lane shim (extract, `gate_into`,
    /// `observe`). An override must write the same lanes and leave the
    /// policy in the same state.
    fn gate_lanes(&mut self, block: &ActivityBlock, from: usize, to: usize, out: &mut GateLanes) {
        if from == to {
            return;
        }
        let mut act = CycleActivity::default();
        let mut gate = out.gate(from);
        for i in from..to {
            block.extract(i, &mut act);
            self.gate_into(act.cycle, &mut gate);
            out.set(i, &gate);
            self.observe(&act);
        }
    }

    /// `true` if this policy never restricts resources (its presence does
    /// not perturb timing). Passive policies can share a simulation run
    /// with the ungated baseline; active ones (PLB) need their own run.
    fn is_passive(&self) -> bool {
        true
    }

    /// Display name.
    fn name(&self) -> &str;
}

/// The paper's base case: no clock gating at all.
///
/// Every gateable block receives its clock every cycle, so dynamic-logic
/// blocks precharge and latches clock regardless of use.
#[derive(Debug)]
pub struct NoGating {
    gate: GateState,
    constraints: ResourceConstraints,
}

impl NoGating {
    /// Build the baseline policy for `config`.
    pub fn new(config: &SimConfig, groups: &LatchGroups) -> NoGating {
        NoGating {
            gate: GateState::ungated(config, groups),
            constraints: ResourceConstraints::unrestricted(config),
        }
    }
}

impl GatingPolicy for NoGating {
    fn gate_for(&mut self, _cycle: u64) -> GateState {
        self.gate.clone()
    }

    fn gate_into(&mut self, _cycle: u64, out: &mut GateState) {
        out.clone_from(&self.gate);
    }

    fn constraints(&self) -> ResourceConstraints {
        self.constraints
    }

    fn observe(&mut self, _activity: &CycleActivity) {}

    fn gate_lanes(&mut self, _block: &ActivityBlock, from: usize, to: usize, out: &mut GateLanes) {
        for i in from..to {
            out.set(i, &self.gate);
        }
    }

    fn name(&self) -> &str {
        "baseline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcg_sim::PipelineDepth;

    #[test]
    fn baseline_is_passive_and_fully_powered() {
        let cfg = SimConfig::baseline_8wide();
        let groups = LatchGroups::new(&PipelineDepth::stages8());
        let mut p = NoGating::new(&cfg, &groups);
        assert!(p.is_passive());
        assert_eq!(p.name(), "baseline");
        let g = p.gate_for(1);
        assert_eq!(g, GateState::ungated(&cfg, &groups));
        assert_eq!(p.constraints(), ResourceConstraints::unrestricted(&cfg));
    }
}
