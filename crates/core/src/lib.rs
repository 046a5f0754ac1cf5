//! # dcg-core — Deterministic Clock Gating (HPCA 2003)
//!
//! The primary contribution of *"Deterministic Clock Gating for
//! Microprocessor Power Reduction"* (Li, Bhunia, Chen, Vijaykumar, Roy —
//! HPCA 2003): a clock-gating methodology that exploits the fact that, in
//! an out-of-order pipeline, the usage of many blocks in a near-future
//! cycle is **deterministically known** at the end of the issue stage.
//!
//! This crate provides:
//!
//! * [`Dcg`] — the deterministic controller, gating execution units,
//!   post-issue pipeline latches, D-cache wordline decoders and result-bus
//!   drivers from issue-stage GRANT signals, one-hot issued counts, the
//!   scheduled-store window and booked writebacks (paper §3);
//! * [`Plb`] — the Pipeline Balancing *predictive* baseline the paper
//!   compares against, in both `PLB-orig` and `PLB-ext` forms (§4.3);
//! * [`NoGating`] — the ungated base case all savings are measured
//!   against;
//! * [`run_passive`]/[`run_active`] — runners that drive a simulation
//!   under policies through the one [`drive`] loop, account energy via
//!   `dcg-power`, and enforce gating safety: a [`GatingSafetyChecker`]
//!   asserts every cycle that the powered set covers the actual activity
//!   (the paper's "no performance loss, no lost opportunity" determinism
//!   guarantee); a violation is a structured [`Hazard`] and the class
//!   *fails open* to ungated for a backoff window, never a panic;
//! * [`TraceCache::run`] — the one cached-or-live resolver: a hit
//!   replays recorded activity, a miss simulates live and records it,
//!   and [`run_cached_or_live`] re-runs a failed replay live;
//! * [`FaultPlan`]/[`FaultyPolicy`] — a deterministic, seeded
//!   fault-injection layer that proves the checker catches what it must
//!   (driven by the `dcg-experiments` fault campaign).
//! * [`durable`] — the durability kit under the trace store's log and
//!   the server's job WAL: one [`RecordLog`], one [`crash_point`] hook
//!   and one field codec.
//!
//! ```
//! use dcg_core::{run_passive, Dcg, NoGating, RunLength};
//! use dcg_sim::{LatchGroups, SimConfig};
//! use dcg_workloads::{Spec2000, SyntheticWorkload};
//!
//! let cfg = SimConfig::baseline_8wide();
//! let groups = LatchGroups::new(&cfg.depth);
//! let mut baseline = NoGating::new(&cfg, &groups);
//! let mut dcg = Dcg::new(&cfg, &groups);
//! let stream = SyntheticWorkload::new(Spec2000::by_name("gzip").unwrap(), 1);
//! let run = run_passive(
//!     &cfg,
//!     stream,
//!     RunLength::quick(),
//!     &mut [&mut baseline, &mut dcg],
//! );
//! let saving = run.outcomes[1].report.power_saving_vs(&run.outcomes[0].report);
//! assert!(saving > 0.0, "DCG saves power");
//! assert_eq!(run.outcomes[1].audit.violations, 0, "and never gates a used block");
//! assert_eq!(run.outcomes[1].safety.total_detected(), 0, "zero hazards detected");
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod cache;
mod dcg;
pub mod durable;
mod error;
mod faults;
pub mod metrics;
mod plb;
mod policy;
mod runner;
mod safety;
mod shard;
mod sinks;
mod source;
mod store;

pub use cache::{
    run_cached_or_live, CacheHealth, TraceCache, TRACE_CACHE_BUDGET_ENV, TRACE_CACHE_ENV,
};
pub use dcg::{Dcg, DcgOptions};
pub use durable::{crash_point, LogRecord, RecordLog, CRASH_ENV, LOG_HEADER_LEN};
pub use error::{panic_message, DcgError};
pub use faults::{FaultPlan, FaultPoint, FaultSpec, FaultWindow, FaultyPolicy, PanicSink};
pub use metrics::{
    fu_class_label, ComponentMetrics, GateDisagreement, Histogram, MetricsConfig, MetricsReport,
    WindowSample, DEFAULT_AUDIT_CAPACITY, DEFAULT_METRICS_WINDOW,
};
pub use plb::{Plb, PlbConfig, PlbMode, PlbVariant};
pub use policy::{GatingPolicy, NoGating};
pub use runner::{
    drive, run_active, run_oracle, run_passive, run_passive_metered, run_passive_with_sinks,
    run_stats_source, GatingAudit, PassiveRun, PolicyOutcome, RunLength, WattchStyles,
};
pub use safety::{GatingSafetyChecker, Hazard, HazardClass, SafetyConfig, SafetyReport};
pub use shard::{run_sharded, SWEEP_THREADS_ENV};
pub use sinks::{ActivitySink, MetricsSink, WattchSink};
pub use source::{ActivitySource, CachedSource, ReplaySource};
pub use store::{
    EntryIdentity, EntryMeta, RecoveryStats, StoreError, StoreScan, TraceStore, JOURNAL_FILE,
};

/// Bitmask with the low `n` bits set (shared by the policies).
pub(crate) fn mask_of(n: usize) -> u32 {
    if n >= 32 {
        u32::MAX
    } else {
        (1u32 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn mask_of_basics() {
        assert_eq!(super::mask_of(0), 0);
        assert_eq!(super::mask_of(3), 0b111);
        assert_eq!(super::mask_of(40), u32::MAX);
    }
}
