//! # dcg-sim — cycle-accurate out-of-order superscalar simulator
//!
//! The execution substrate for the DCG reproduction: an 8-wide, 128-entry
//! window, out-of-order processor matching Table 1 of *"Deterministic Clock
//! Gating for Microprocessor Power Reduction"* (HPCA 2003), standing in for
//! the paper's Wattch/SimpleScalar `sim-outorder` baseline.
//!
//! The simulator's job in this reproduction is to produce faithful
//! **per-cycle activity** ([`CycleActivity`]): which execution units,
//! D-cache ports, pipeline-latch slots and result buses are used each
//! cycle, plus the *advance-knowledge* signals (issue GRANTs, one-hot
//! issued counts, scheduled stores, booked result buses) that the paper's
//! deterministic clock-gating controller taps.
//!
//! ## Quick start
//!
//! ```
//! use dcg_sim::{Processor, SimConfig};
//! use dcg_workloads::{Spec2000, SyntheticWorkload};
//!
//! let workload = SyntheticWorkload::new(Spec2000::by_name("bzip2").unwrap(), 7);
//! let mut cpu = Processor::new(SimConfig::baseline_8wide(), workload);
//! cpu.run_until_commits(10_000, |_activity| {});
//! println!("IPC = {:.2}", cpu.stats().ipc());
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod activity;
mod bpred;
mod builder;
mod cache;
mod config;
mod constraint;
mod fu;
mod hash;
mod iq;
mod lsq;
mod pipeline;
mod rob;
mod stats;

pub use activity::{
    ActivityBlock, ActivityColumns, CycleActivity, FlowHistory, FlowSource, FuGrant,
    LatchGroupSpec, LatchGroups, BLOCK_CYCLES,
};
pub use bpred::{BranchPredictor, Prediction};
pub use builder::SimConfigBuilder;
pub use cache::{AccessOutcome, CacheArray, CacheHierarchy, LookupResult};
pub use config::{
    BpredConfig, CacheConfig, FuSpec, PipelineDepth, PredictorKind, SimConfig, StoreTiming,
};
pub use constraint::ResourceConstraints;
pub use fu::{ActiveTracker, BusyWindow, FuPool, FuSelectPolicy};
pub use hash::{fnv1a, Fnv1a};
pub use iq::{Grant, IssueQueue};
pub use lsq::{LoadDisposition, Lsq};
pub use pipeline::Processor;
pub use rob::{InFlight, InstId, Rob};
pub use stats::SimStats;
