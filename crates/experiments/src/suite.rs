//! Suite orchestration: run every benchmark under the baseline, DCG and
//! (optionally) both PLB variants.

use std::panic::{self, AssertUnwindSafe};

use dcg_core::{
    run_active, run_cached_or_live, run_passive_with_sinks, run_sharded_with, Dcg, MetricsReport,
    MetricsSink, NoGating, Plb, PlbVariant, PolicyOutcome, RunLength, TraceCache,
};
use dcg_power::{Component, PowerReport};
use dcg_sim::{LatchGroups, SimConfig, SimStats};
use dcg_workloads::{BenchmarkProfile, Spec2000, SuiteKind, SyntheticWorkload};

/// Experiment-wide parameters.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Machine configuration (Table 1 by default).
    pub sim: SimConfig,
    /// Run length per benchmark.
    pub length: RunLength,
    /// Workload seed (fixed for reproducibility).
    pub seed: u64,
    /// Benchmarks to run.
    pub benchmarks: Vec<BenchmarkProfile>,
}

impl ExperimentConfig {
    /// The full-suite configuration used for the published-figure
    /// reproductions.
    pub fn standard() -> ExperimentConfig {
        ExperimentConfig {
            sim: SimConfig::baseline_8wide(),
            length: RunLength::standard(),
            seed: 42,
            benchmarks: Spec2000::all(),
        }
    }

    /// A fast configuration for tests: three representative benchmarks,
    /// short runs.
    pub fn quick() -> ExperimentConfig {
        ExperimentConfig {
            sim: SimConfig::baseline_8wide(),
            length: RunLength::quick(),
            seed: 42,
            benchmarks: ["gzip", "mcf", "swim"]
                .iter()
                .map(|n| Spec2000::by_name(n).expect("known benchmark"))
                .collect(),
        }
    }
}

/// Results for one benchmark across the compared schemes.
#[derive(Debug)]
pub struct BenchmarkRun {
    /// The benchmark profile.
    pub profile: BenchmarkProfile,
    /// Wall-clock time spent simulating this benchmark (all schemes),
    /// nanoseconds. No result document carries it: it varies run to run.
    pub elapsed_ns: u64,
    /// Ungated base-case energy.
    pub baseline: PowerReport,
    /// DCG outcome (same timing run as the baseline).
    pub dcg: PolicyOutcome,
    /// PLB-orig outcome (dedicated run), when requested.
    pub plb_orig: Option<PolicyOutcome>,
    /// PLB-ext outcome (dedicated run), when requested.
    pub plb_ext: Option<PolicyOutcome>,
    /// Simulator statistics of the baseline/DCG run's measured window.
    pub stats: SimStats,
    /// Cycle-level observability for the DCG run: utilization histograms,
    /// windowed time series and the gating-decision audit trail.
    pub metrics: MetricsReport,
}

impl BenchmarkRun {
    /// DCG total-power saving vs. the base case.
    pub fn dcg_total_saving(&self) -> f64 {
        self.dcg.report.power_saving_vs(&self.baseline)
    }

    /// DCG power-delay saving (equals the power saving: no slowdown).
    pub fn dcg_power_delay_saving(&self) -> f64 {
        self.dcg.report.power_delay_saving_vs(&self.baseline)
    }

    /// DCG saving on one component.
    pub fn dcg_component_saving(&self, c: Component) -> f64 {
        self.dcg.report.component_saving_vs(&self.baseline, c)
    }

    /// DCG saving on the whole D-cache (decoders + array), Figure 15's
    /// denominator.
    pub fn dcg_dcache_saving(&self) -> f64 {
        dcache_saving(&self.dcg.report, &self.baseline)
    }

    /// DCG pipeline-latch saving *including* its control-overhead charge
    /// (the paper's Figure 14 accounting: "the power saving achieved with
    /// DCG includes the power overhead due to DCG's extended latches").
    pub fn dcg_latch_saving_incl_overhead(&self) -> f64 {
        let n = self.dcg.report.cycles().max(1) as f64;
        let own = (self.dcg.report.component_pj(Component::PipelineLatch)
            + self.dcg.report.component_pj(Component::GatingControl))
            / n;
        let base = self.baseline.component_pj(Component::PipelineLatch)
            / self.baseline.cycles().max(1) as f64;
        if base == 0.0 {
            0.0
        } else {
            1.0 - own / base
        }
    }

    /// PLB total-power saving (`variant` must have been run).
    ///
    /// # Panics
    ///
    /// Panics if the requested PLB variant was not run.
    pub fn plb_total_saving(&self, variant: PlbVariant) -> f64 {
        self.plb(variant).report.power_saving_vs(&self.baseline)
    }

    /// PLB power-delay saving.
    pub fn plb_power_delay_saving(&self, variant: PlbVariant) -> f64 {
        self.plb(variant)
            .report
            .power_delay_saving_vs(&self.baseline)
    }

    /// PLB relative performance (1.0 = no loss).
    pub fn plb_relative_performance(&self, variant: PlbVariant) -> f64 {
        self.plb(variant)
            .report
            .relative_performance_vs(&self.baseline)
    }

    /// PLB component saving.
    pub fn plb_component_saving(&self, variant: PlbVariant, c: Component) -> f64 {
        self.plb(variant)
            .report
            .component_saving_vs(&self.baseline, c)
    }

    /// PLB whole-D-cache saving.
    pub fn plb_dcache_saving(&self, variant: PlbVariant) -> f64 {
        dcache_saving(&self.plb(variant).report, &self.baseline)
    }

    fn plb(&self, variant: PlbVariant) -> &PolicyOutcome {
        let o = match variant {
            PlbVariant::Orig => self.plb_orig.as_ref(),
            PlbVariant::Ext => self.plb_ext.as_ref(),
        };
        o.unwrap_or_else(|| panic!("PLB {variant:?} was not run for {}", self.profile.name))
    }
}

/// Power saving over the combined D-cache (decoder + array).
fn dcache_saving(own: &PowerReport, base: &PowerReport) -> f64 {
    let own_pj = (own.component_pj(Component::DcacheDecoder)
        + own.component_pj(Component::DcacheArray))
        / own.cycles().max(1) as f64;
    let base_pj = (base.component_pj(Component::DcacheDecoder)
        + base.component_pj(Component::DcacheArray))
        / base.cycles().max(1) as f64;
    if base_pj == 0.0 {
        0.0
    } else {
        1.0 - own_pj / base_pj
    }
}

/// A benchmark whose worker panicked mid-suite.
///
/// One bad benchmark no longer kills the whole run: the panic payload is
/// captured, the remaining benchmarks finish, and the failure is reported
/// here by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuiteFailure {
    /// Name of the benchmark whose run panicked.
    pub name: String,
    /// The panic payload (message), when it was a string.
    pub message: String,
}

/// Environment variable overriding [`Suite::run`]'s worker-pool size
/// (positive integer; unset, zero or invalid falls back to
/// [`std::thread::available_parallelism`], the latter two with one named
/// warning). Results are bit-identical for any value — the knob exists
/// so bench timings are reproducible on shared machines.
pub const SUITE_WORKERS_ENV: &str = "DCG_WORKERS";

/// Resolve a raw `DCG_WORKERS` value to a pool size plus an optional
/// diagnostic — [`dcg_core::worker_count_from_env_value`] bound to this
/// crate's variable so the fallback is unit-testable here without
/// touching process environment.
#[must_use]
pub fn suite_workers_from_env_value(
    value: Result<String, std::env::VarError>,
) -> (usize, Option<String>) {
    dcg_core::worker_count_from_env_value(SUITE_WORKERS_ENV, value)
}

/// The suite worker-pool size: `DCG_WORKERS` when set to a positive
/// integer, otherwise the machine's available parallelism (with one
/// process-wide warning when the variable is set but unusable).
#[must_use]
pub fn suite_workers() -> usize {
    static WARN: std::sync::Once = std::sync::Once::new();
    let (n, warning) = suite_workers_from_env_value(std::env::var(SUITE_WORKERS_ENV));
    if let Some(msg) = warning {
        WARN.call_once(|| eprintln!("{msg}"));
    }
    n
}

/// The full set of per-benchmark runs for one experiment configuration.
#[derive(Debug)]
pub struct Suite {
    /// One entry per *successful* benchmark, in configuration order.
    pub runs: Vec<BenchmarkRun>,
    /// Benchmarks whose worker panicked, in configuration order.
    pub failures: Vec<SuiteFailure>,
    /// Wall-clock time for the whole (parallel) suite run, nanoseconds.
    pub wall_ns: u64,
}

impl Suite {
    /// Run the suite. `with_plb` also runs both PLB variants (three
    /// simulations per benchmark instead of one). Benchmarks are
    /// dispatched to a worker pool sized by the `DCG_WORKERS`
    /// environment variable when set to a positive integer, otherwise by
    /// [`std::thread::available_parallelism`] (never one thread per
    /// benchmark); results are returned in configuration order and are
    /// bit-identical to a serial run (every simulation is deterministic),
    /// so pinning `DCG_WORKERS=1` on a shared machine changes timing
    /// only, never results.
    ///
    /// The passive baseline/DCG portion goes through the activity-trace
    /// cache when one is enabled (see [`TraceCache::from_env`]), so
    /// re-running a suite on a warm cache replays recorded activity
    /// instead of re-simulating the pipeline.
    pub fn run(cfg: &ExperimentConfig, with_plb: bool) -> Suite {
        let ((runs, failures), wall_ns) = dcg_testkit::bench::time(|| {
            let cache = TraceCache::from_env();
            let outcomes = run_sharded_with(suite_workers(), cfg.benchmarks.len(), |i| {
                // One panicking benchmark must not kill the suite: capture
                // the payload and let the pool keep draining the queue.
                let profile = cfg.benchmarks[i];
                panic::catch_unwind(AssertUnwindSafe(|| {
                    Self::run_one(cfg, profile, with_plb, cache.as_ref())
                }))
                .map_err(|payload| SuiteFailure {
                    name: profile.name.to_string(),
                    message: panic_message(payload),
                })
            });
            let mut runs = Vec::with_capacity(outcomes.len());
            let mut failures = Vec::new();
            for outcome in outcomes {
                match outcome {
                    Ok(run) => runs.push(run),
                    Err(failure) => failures.push(failure),
                }
            }
            (runs, failures)
        });
        Suite {
            runs,
            failures,
            wall_ns,
        }
    }

    /// Run one benchmark under all requested schemes.
    ///
    /// The shared passive pass (baseline + DCG + metrics sink) goes
    /// through `cache` when one is given, failing open to a live run
    /// (see [`run_cached_or_live`]).
    fn run_one(
        cfg: &ExperimentConfig,
        profile: BenchmarkProfile,
        with_plb: bool,
        cache: Option<&TraceCache>,
    ) -> BenchmarkRun {
        let started = std::time::Instant::now();
        let groups = LatchGroups::new(&cfg.sim.depth);
        let (mut run, metrics) = run_cached_or_live(
            cache,
            &cfg.sim,
            profile.name,
            cfg.seed,
            cfg.length,
            || SyntheticWorkload::new(profile, cfg.seed),
            |source| {
                let mut baseline = NoGating::new(&cfg.sim, &groups);
                let mut dcg = Dcg::new(&cfg.sim, &groups);
                // The metrics sink re-evaluates DCG's (deterministic,
                // passive) gate decisions from the shared activity
                // stream, so it rides the same pass — cached replay or
                // live — without extra simulations.
                let mut dcg_probe = Dcg::new(&cfg.sim, &groups);
                let mut metrics_sink = MetricsSink::new(&mut dcg_probe, &cfg.sim, &groups);
                let run = run_passive_with_sinks(
                    &cfg.sim,
                    source,
                    cfg.length,
                    &mut [&mut baseline, &mut dcg],
                    &mut [&mut metrics_sink],
                )?;
                Ok((run, metrics_sink.into_report()))
            },
        );
        let dcg_out = run.outcomes.remove(1);
        let base_out = run.outcomes.remove(0);

        let (plb_orig, plb_ext) = if with_plb {
            let mut orig = Plb::new(PlbVariant::Orig, &cfg.sim, &groups);
            let o = run_active(
                &cfg.sim,
                SyntheticWorkload::new(profile, cfg.seed),
                cfg.length,
                &mut orig,
            );
            let mut ext = Plb::new(PlbVariant::Ext, &cfg.sim, &groups);
            let e = run_active(
                &cfg.sim,
                SyntheticWorkload::new(profile, cfg.seed),
                cfg.length,
                &mut ext,
            );
            (Some(o), Some(e))
        } else {
            (None, None)
        };

        BenchmarkRun {
            profile,
            elapsed_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            baseline: base_out.report,
            dcg: dcg_out,
            plb_orig,
            plb_ext,
            stats: run.stats,
            metrics,
        }
    }

    /// Iterate runs belonging to one half of the suite.
    pub fn of_kind(&self, kind: SuiteKind) -> impl Iterator<Item = &BenchmarkRun> {
        self.runs.iter().filter(move |r| r.profile.suite == kind)
    }

    /// Arithmetic mean of `f` over runs of `kind`; `None` when no run
    /// matches (an empty mean is a report-shape bug, not a zero).
    pub fn mean_of(&self, kind: SuiteKind, f: impl Fn(&BenchmarkRun) -> f64) -> Option<f64> {
        let values: Vec<f64> = self.of_kind(kind).map(f).collect();
        if values.is_empty() {
            None
        } else {
            Some(values.iter().sum::<f64>() / values.len() as f64)
        }
    }

    /// Arithmetic mean of `f` over all runs; `None` when the suite is
    /// empty.
    pub fn mean(&self, f: impl Fn(&BenchmarkRun) -> f64) -> Option<f64> {
        if self.runs.is_empty() {
            return None;
        }
        Some(self.runs.iter().map(f).sum::<f64>() / self.runs.len() as f64)
    }
}

/// Extract a human-readable message from a captured panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_runs_and_dcg_wins() {
        let cfg = ExperimentConfig::quick();
        let suite = Suite::run(&cfg, false);
        assert_eq!(suite.runs.len(), 3);
        assert!(suite.failures.is_empty());
        for run in &suite.runs {
            assert_eq!(
                run.metrics.cycles, run.stats.cycles,
                "{}: metrics must cover the measured window",
                run.profile.name
            );
            assert!(
                run.metrics.total_disagreements() > 0,
                "{}: DCG powers some idle blocks, so the audit trail \
                 cannot be empty",
                run.profile.name
            );
        }
        for run in &suite.runs {
            assert_eq!(run.dcg.audit.violations, 0, "{}", run.profile.name);
            assert!(
                run.dcg_total_saving() > 0.05,
                "{}: saving {}",
                run.profile.name,
                run.dcg_total_saving()
            );
            // DCG costs no cycles, so power-delay saving == power saving.
            assert!(
                (run.dcg_power_delay_saving() - run.dcg_total_saving()).abs() < 1e-9,
                "{}",
                run.profile.name
            );
        }
    }

    #[test]
    fn parallel_runs_are_ordered_and_deterministic() {
        let cfg = ExperimentConfig::quick();
        let a = Suite::run(&cfg, false);
        let b = Suite::run(&cfg, false);
        let names: Vec<&str> = a.runs.iter().map(|r| r.profile.name).collect();
        let expect: Vec<&str> = cfg.benchmarks.iter().map(|p| p.name).collect();
        assert_eq!(names, expect, "results must stay in configuration order");
        for (x, y) in a.runs.iter().zip(&b.runs) {
            assert_eq!(
                x.dcg_total_saving().to_bits(),
                y.dcg_total_saving().to_bits(),
                "{}: repeated suite runs must be bit-identical",
                x.profile.name
            );
            assert_eq!(x.stats.cycles, y.stats.cycles);
        }
    }

    #[test]
    fn suite_means_partition_by_kind() {
        let cfg = ExperimentConfig::quick();
        let suite = Suite::run(&cfg, false);
        let int_n = suite.of_kind(SuiteKind::Int).count();
        let fp_n = suite.of_kind(SuiteKind::Fp).count();
        assert_eq!(int_n + fp_n, suite.runs.len());
        let mean_all = suite.mean(|r| r.dcg_total_saving()).expect("non-empty");
        assert!(mean_all > 0.0 && mean_all < 1.0);
    }

    #[test]
    fn empty_means_are_none_not_zero() {
        let empty = Suite {
            runs: Vec::new(),
            failures: Vec::new(),
            wall_ns: 0,
        };
        assert_eq!(empty.mean(|r| r.dcg_total_saving()), None);

        // A populated suite still has no mean for an absent kind.
        let mut cfg = ExperimentConfig::quick();
        cfg.benchmarks.retain(|p| p.suite == SuiteKind::Int);
        let suite = Suite::run(&cfg, false);
        assert!(suite.of_kind(SuiteKind::Int).count() > 0);
        assert_eq!(suite.mean_of(SuiteKind::Fp, |r| r.dcg_total_saving()), None);
        assert!(suite
            .mean_of(SuiteKind::Int, |r| r.dcg_total_saving())
            .is_some());
    }

    #[test]
    fn suite_workers_env_values_resolve_with_named_diagnostics() {
        let ap = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        assert_eq!(suite_workers_from_env_value(Ok("4".into())), (4, None));
        assert_eq!(
            suite_workers_from_env_value(Err(std::env::VarError::NotPresent)),
            (ap, None)
        );
        for bad in ["0", "all-of-them"] {
            let (n, warning) = suite_workers_from_env_value(Ok(bad.into()));
            assert_eq!(n, ap, "{bad:?} must fall back to available parallelism");
            let msg = warning.unwrap_or_else(|| panic!("{bad:?} must warn"));
            assert!(
                msg.contains(SUITE_WORKERS_ENV) && msg.contains(bad),
                "diagnostic must name the variable and value: {msg}"
            );
        }
    }

    #[test]
    fn panicking_benchmark_does_not_kill_the_suite() {
        let mut cfg = ExperimentConfig::quick();
        // An invalid profile makes the workload constructor panic inside
        // the worker; the other benchmarks must still complete. The fresh
        // name guarantees a trace-cache miss (a warm cache entry would
        // skip workload construction entirely).
        let mut broken = Spec2000::by_name("mcf").expect("known benchmark");
        broken.name = "broken-on-purpose";
        broken.code_blocks = 0;
        cfg.benchmarks[1] = broken;
        let suite = Suite::run(&cfg, false);
        assert_eq!(suite.runs.len(), 2, "the healthy benchmarks completed");
        let names: Vec<&str> = suite.runs.iter().map(|r| r.profile.name).collect();
        assert_eq!(names, ["gzip", "swim"]);
        assert_eq!(suite.failures.len(), 1);
        assert_eq!(suite.failures[0].name, "broken-on-purpose");
        assert!(
            !suite.failures[0].message.is_empty(),
            "the panic payload is reported"
        );
    }
}
