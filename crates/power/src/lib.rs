//! # dcg-power — Wattch-style analytical power model (0.18 µm)
//!
//! Stands in for the paper's Wattch infrastructure (§4.1): per-cycle,
//! per-component energy accounting for the simulated processor, with the
//! paper's clock-gating semantics (§4.2):
//!
//! * the **base case** implements *no* clock gating — dynamic-logic blocks
//!   (execution units, D-cache wordline decoders, result-bus drivers) and
//!   pipeline latches burn their clock/precharge energy every cycle whether
//!   used or not;
//! * a gated block contributes **zero** energy in a gated cycle (no leakage
//!   is modelled, matching the paper);
//! * the gating policy's own control state (DCG's extended latches) is
//!   charged every cycle.
//!
//! The split between *per-cycle* blocks (gateable) and *per-access* blocks
//! (demand-driven arrays) follows Wattch's conditional-clocking treatment.
//!
//! ```
//! use dcg_power::{GateState, PowerModel, PowerReport};
//! use dcg_sim::{Processor, SimConfig};
//! use dcg_workloads::{Spec2000, SyntheticWorkload};
//!
//! let cfg = SimConfig::baseline_8wide();
//! let workload = SyntheticWorkload::new(Spec2000::by_name("gzip").unwrap(), 1);
//! let mut cpu = Processor::new(cfg.clone(), workload);
//! let model = PowerModel::new(&cfg, cpu.latch_groups());
//! let gate = GateState::ungated(&cfg, cpu.latch_groups());
//! let mut report = PowerReport::new();
//! for _ in 0..1000 {
//!     let act = cpu.step().clone();
//!     report.record(&model.cycle_energy(&act, &gate), act.committed);
//! }
//! assert!(report.total_pj() > 0.0);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod arrays;
mod calibrate;
mod circuits;
mod gate;
mod model;
mod report;
mod tech;

pub use arrays::{array_access_energy, cam_cycle_energy, ArrayEnergies, ArrayGeometry};
pub use calibrate::EnergyTable;
pub use circuits::{DynamicLogicCell, LatchCell};
pub use gate::{GateColumns, GateLanes, GateState};
pub use model::{Component, EnergyBreakdown, PowerModel};
pub use report::PowerReport;
pub use tech::TechParams;
