//! # dcg-experiments — regeneration of every table and figure
//!
//! One function per evaluation artefact of the paper:
//!
//! | artefact | function | paper reference values |
//! |---|---|---|
//! | Figure 10 | [`fig10`] | DCG 20.9 / 18.8 %, PLB-orig 6.3 / 4.9 %, PLB-ext 11.0 / 8.7 % |
//! | Figure 11 | [`fig11`] | PLB-orig 3.5 / 2.0 %, PLB-ext 8.3 / 5.9 %, 2.9 % perf loss |
//! | Figure 12 | [`fig12`] | DCG 72.0 %, PLB-ext 29.6 % |
//! | Figure 13 | [`fig13`] | DCG 77.2 % (fp) / ~100 % (int), PLB-ext 23.0 % |
//! | Figure 14 | [`fig14`] | DCG 41.6 %, PLB-ext 17.6 % |
//! | Figure 15 | [`fig15`] | DCG 22.6 %, PLB-ext 8.1 % |
//! | Figure 16 | [`fig16`] | DCG 59.6 %, PLB-ext 32.2 % |
//! | Figure 17 | [`fig17`] | 19.9 % (8-stage) → 24.5 % (20-stage) |
//! | §4.4 sweep | [`alu_sweep`] | 98.8 % @ 6 ALUs, 92.7 % @ 4 (worst case) |
//! | §5.2-5.5 utilizations | [`utilization`] | int 35/25 %, fp 0/23 %, latches 60 %, ports 40 %, bus 40 % |
//!
//! Extension studies and ablations (oracle, Wattch styles, width, seeds,
//! PLB tuning, FU/store/IQ/leakage/prefetch/predictor ablations) are
//! listed in [`STUDIES`], keyed by table id.
//!
//! The `repro` binary drives these from the command line and writes CSVs
//! under `results/`.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod alu_sweep;
mod faults;
mod figures;
mod kernels;
mod metrics_json;
mod phases;
mod studies;
mod suite;
mod summary;
mod svg;
mod table;
mod utilization;
mod workload_stats;

pub use alu_sweep::{alu_sweep, alu_sweep_with, ALU_COUNTS};
pub use faults::{
    fault_campaign_json, fault_seed_from_env, FaultCampaign, FaultClass, FaultOutcome,
    FAULT_SEED_ENV,
};
pub use figures::{fig10, fig11, fig12, fig13, fig14, fig15, fig16, fig17};
pub use kernels::{
    differential_check, kernel_run_length, kernel_savings_json, run_kernels, Divergence, KernelRun,
    KERNEL_SEED,
};
pub use metrics_json::{metrics_json, suite_metrics_json};
pub use phases::{phase_analysis, PhaseSeries};
pub use studies::{
    ablation_fu_policy, ablation_iq_gating, ablation_leakage, ablation_predictor,
    ablation_prefetch, ablation_store_policy, oracle_comparison, plb_tuning_sensitivity,
    seed_sensitivity, wattch_styles, width_scaling, STUDIES,
};
pub use suite::{
    suite_workers, suite_workers_from_env_value, BenchmarkRun, ExperimentConfig, Suite,
    SuiteFailure, SUITE_WORKERS_ENV,
};
pub use summary::summary;
pub use svg::{render_svg, render_utilization_svg, write_svg, write_utilization_svg};
pub use table::FigureTable;
pub use utilization::utilization;
pub use workload_stats::workload_stats;
