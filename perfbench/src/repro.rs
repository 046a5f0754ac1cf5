//! One `repro` pass: the passive suite (baseline + DCG + metrics sink),
//! optionally both PLB variants' active runs and the kernel differential
//! check, the §4.4 ALU sweep and the kernel suite.
//!
//! An untraced pass is what `repro all` runs: `Suite::run`, `alu_sweep`,
//! `differential_check` and `run_kernels`, with `DCG_TRACE_CACHE` pointed
//! at the pass's store so every cache they open from the environment is
//! that store. A traced pass cannot time layer boundaries inside those
//! calls, so it replays them one level down — store fetch, live record or
//! replay, store insert — split into operations on a worker pool, and its
//! documents must match the untraced pass byte for byte.

use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use dcg_core::{
    run_active, run_oracle, run_passive_with_sinks, run_stats_source, ActivitySink, CacheHealth,
    Dcg, DcgError, EntryIdentity, GatingPolicy, MetricsReport, MetricsSink, NoGating, PassiveRun,
    Plb, PlbVariant, PolicyOutcome, ReplaySource, RunLength, TraceCache, TRACE_CACHE_ENV,
};
use dcg_experiments::{
    alu_sweep, differential_check, fig10, fig11, kernel_run_length, kernel_savings_json,
    run_kernels, suite_metrics_json, BenchmarkRun, ExperimentConfig, FigureTable, KernelRun,
    Suite, SuiteFailure, ALU_COUNTS, KERNEL_SEED,
};
use dcg_sim::{LatchGroups, Processor, SimConfig, SimStats};
use dcg_trace::{ActivityHeader, ActivityTraceReader, ActivityTraceWriter};
use dcg_workloads::{BenchmarkProfile, InstStream, Kernel, SuiteKind, SyntheticWorkload};

use crate::ledger::{
    add, ns_since, timed, ChunkedStream, TimedPolicy, TimedRecorder, TimedSink, TimedSource, C,
};

/// What a pass runs and how.
#[derive(Debug, Clone, Copy)]
pub struct Pass<'a> {
    /// Suite configuration (machine, length, seed, benchmarks).
    pub cfg: &'a ExperimentConfig,
    /// The whole `repro all` work: also both PLB variants per benchmark
    /// and the kernel differential check.
    pub full: bool,
    /// Time every layer boundary through the adapters.
    pub traced: bool,
    /// Worker threads of a traced pass (an untraced pass takes its pool
    /// sizes from `DCG_WORKERS` and `DCG_SWEEP_THREADS`).
    pub threads: usize,
    /// Where the pass writes its CSV output.
    pub out_dir: &'a Path,
}

/// The documents a pass produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outputs {
    /// `suite_metrics_json`, as `repro metrics` writes it.
    pub suite_json: String,
    /// The §4.4 table as `repro alu-sweep` writes it.
    pub sweep_csv: String,
    /// `kernel_savings_json`, as `repro kernels` writes it.
    pub kernel_json: String,
    /// Figures 10 and 11 (DCG and both PLB variants) as `repro fig10
    /// fig11` writes them, one CSV after the other; `None` without PLB.
    pub figures: Option<String>,
}

/// What a pass did.
#[derive(Debug)]
pub struct PassResult {
    /// The documents produced.
    pub outputs: Outputs,
    /// Wall time of the whole pass, first store open to the last document.
    pub wall_ns: u64,
    /// Latency samples: the whole pass in an untraced pass (a job of
    /// `cold_repro` and `warm_replay` is one re-run), each operation in a
    /// traced one.
    pub job_ns: Vec<u64>,
    /// Operations attempted: suite benchmarks, sweep points, kernel runs
    /// and differential checks.
    pub attempted: u64,
    /// Operations that failed: panics, divergences, replay failures and
    /// store write failures.
    pub failed: u64,
    /// Measured-window cycles of the active (PLB, oracle) runs.
    pub active_cycles: u64,
}

/// Run `f(i)` for `i` in `0..n` on up to `threads` workers, catching
/// panics; returns each result (`None` if it panicked) with its duration.
fn pool<T: Send>(threads: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<(Option<T>, u64)> {
    let next = AtomicUsize::new(0);
    let mut slots: Vec<(Option<T>, u64)> = (0..n).map(|_| (None, 0)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.clamp(1, n.max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let t = Instant::now();
                        let r = panic::catch_unwind(AssertUnwindSafe(|| f(i))).ok();
                        done.push((i, r, ns_since(t)));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (i, r, ns) in h.join().expect("pool worker panicked outside an operation") {
                slots[i] = (r, ns);
            }
        }
    });
    slots
}

fn ints(cfg: &ExperimentConfig) -> Vec<BenchmarkProfile> {
    cfg.benchmarks
        .iter()
        .copied()
        .filter(|p| p.suite == SuiteKind::Int)
        .collect()
}

fn identity(cfg: &SimConfig, name: &str, seed: u64, length: RunLength) -> EntryIdentity {
    EntryIdentity::current(
        cfg.digest(),
        name,
        seed,
        length.warmup_insts,
        length.measure_insts,
    )
}

/// Cycles of a stored trace (warm-up included), from its verified index.
pub fn trace_cycles(
    cache: &TraceCache,
    cfg: &SimConfig,
    name: &str,
    seed: u64,
    length: RunLength,
) -> Option<u64> {
    let data = cache
        .store()
        .fetch_data(&identity(cfg, name, seed, length))?;
    let reader = ActivityTraceReader::from_data(data).ok()?;
    reader.verified_totals().map(|(cycles, _)| cycles)
}

/// Simulated cycles an untraced pass over `cfg` stepped or decoded in
/// full: every suite benchmark's and kernel's whole recorded trace
/// (warm-up included) plus the active runs' measured windows. Sweep
/// points answered from the trace index are not counted; on a store that
/// started empty (`sweep_live`), the points whose ALU count differs from
/// the suite machine's were simulated live and are.
pub fn work_cycles(
    store_dir: &Path,
    cfg: &ExperimentConfig,
    sweep_live: bool,
    pass: &PassResult,
) -> Option<u64> {
    let cache = TraceCache::new(store_dir.to_path_buf());
    let (seed, length) = (cfg.seed, cfg.length);
    let mut total = pass.active_cycles;
    for p in &cfg.benchmarks {
        total += trace_cycles(&cache, &cfg.sim, p.name, seed, length)?;
    }
    for k in Kernel::all() {
        total += trace_cycles(&cache, &cfg.sim, k.name, KERNEL_SEED, kernel_run_length())?;
    }
    if sweep_live {
        for p in ints(cfg) {
            for &alus in ALU_COUNTS.iter().filter(|&&a| a != cfg.sim.int_alus) {
                let sim = SimConfig {
                    int_alus: alus,
                    ..cfg.sim.clone()
                };
                total += trace_cycles(&cache, &sim, p.name, seed, length)?;
            }
        }
    }
    Some(total)
}

/// A table as `FigureTable::write_csv` writes it under `dir`.
fn csv(table: &FigureTable, dir: &Path) -> String {
    let path = dir.join(format!("{}.csv", table.id));
    table
        .write_csv(&path)
        .and_then(|()| std::fs::read_to_string(&path))
        .unwrap_or_else(|e| format!("unwritable: {e}"))
}

/// Look up a tuple in the store, timing the fetch and counting the hit
/// or miss.
fn traced_fetch(
    cache: &TraceCache,
    cfg: &SimConfig,
    name: &str,
    seed: u64,
    length: RunLength,
) -> Option<ReplaySource> {
    let source = timed(C::FetchNs, || cache.replay_source(cfg, name, seed, length));
    add(if source.is_some() { C::Hits } else { C::Misses }, 1);
    source
}

/// Wrap a hit for a full decode, counting the entry's bytes as decoded.
fn full_replay(
    cache: &TraceCache,
    replay: ReplaySource,
    cfg: &SimConfig,
    name: &str,
    seed: u64,
    length: RunLength,
) -> TimedSource<ReplaySource> {
    if let Ok(m) = std::fs::metadata(cache.entry_path_for(cfg, name, seed, length)) {
        add(C::DecodedBytes, m.len());
    }
    TimedSource::replay(replay)
}

/// Traced twin of `TraceCache::run_passive_cached_stream`: replay on a
/// hit; on a miss simulate live through the generator and pipeline
/// adapters, record with the benchmark's own recorder and insert.
#[allow(clippy::too_many_arguments)]
pub fn traced_passive<S: InstStream>(
    cache: &TraceCache,
    cfg: &SimConfig,
    name: &str,
    seed: u64,
    length: RunLength,
    make_stream: impl FnOnce() -> S,
    policies: &mut [&mut dyn GatingPolicy],
    extra: &mut [&mut dyn ActivitySink],
) -> Result<PassiveRun, DcgError> {
    if let Some(replay) = traced_fetch(cache, cfg, name, seed, length) {
        let mut source = full_replay(cache, replay, cfg, name, seed, length);
        return run_passive_with_sinks(cfg, &mut source, length, policies, extra).inspect_err(
            |_| {
                add(C::ReplayFailures, 1);
                cache.store().evict(&identity(cfg, name, seed, length));
            },
        );
    }
    traced_record(cache, cfg, name, seed, length, make_stream, policies, extra)
}

/// The miss half of [`traced_passive`].
#[allow(clippy::too_many_arguments)]
fn traced_record<S: InstStream>(
    cache: &TraceCache,
    cfg: &SimConfig,
    name: &str,
    seed: u64,
    length: RunLength,
    make_stream: impl FnOnce() -> S,
    policies: &mut [&mut dyn GatingPolicy],
    extra: &mut [&mut dyn ActivitySink],
) -> Result<PassiveRun, DcgError> {
    let header = ActivityHeader::new(
        name,
        cfg.digest(),
        seed,
        length.warmup_insts,
        length.measure_insts,
        LatchGroups::new(&cfg.depth).len(),
    )
    .expect("activity header for a valid workload name");
    let writer = ActivityTraceWriter::new(Vec::new(), &header).expect("in-memory header write");
    let mut recorder = TimedRecorder::new(writer);
    let run = {
        let mut source = TimedSource::live(Processor::new(
            cfg.clone(),
            ChunkedStream::new(make_stream()),
        ));
        let mut sinks: Vec<&mut dyn ActivitySink> = Vec::with_capacity(extra.len() + 1);
        for e in extra.iter_mut() {
            sinks.push(&mut **e);
        }
        sinks.push(&mut recorder);
        run_passive_with_sinks(cfg, &mut source, length, policies, &mut sinks)?
    };
    if let Ok(bytes) = recorder.finish() {
        timed(C::InsertNs, || {
            cache.store().insert(
                &identity(cfg, name, seed, length),
                TraceCache::key(cfg, name, seed, length),
                &bytes,
            );
        });
        add(C::Inserts, 1);
        add(C::InsertBytes, bytes.len() as u64);
    }
    Ok(run)
}

/// An operation of a traced pass.
enum Op {
    Passive(usize),
    Plb(usize, PlbVariant),
    Sweep(usize, usize),
    Diff(usize),
    KPassive(usize),
    KPlb(usize),
    KOracle(usize),
}

enum Out {
    Passive(Box<(PassiveRun, MetricsReport)>),
    Active(Box<PolicyOutcome>),
    Ipc(f64),
    Diff,
    KPassive(Box<PassiveRun>),
}

impl Pass<'_> {
    /// Run the whole pass against the store at `store_dir`.
    pub fn run(&self, store_dir: &Path) -> PassResult {
        if self.traced {
            self.run_traced(store_dir)
        } else {
            self.run_library(store_dir)
        }
    }

    /// The documents of a pass, as the `repro` subcommands write them.
    fn documents(&self, suite: &Suite, sweep: &FigureTable, kernels: &[KernelRun]) -> Outputs {
        let outputs = timed(C::JsonNs, || Outputs {
            suite_json: format!("{}\n", suite_metrics_json(suite)),
            sweep_csv: csv(sweep, self.out_dir),
            kernel_json: format!("{}\n", kernel_savings_json(kernels)),
            figures: self.full.then(|| {
                csv(&fig10(suite), self.out_dir) + &csv(&fig11(suite), self.out_dir)
            }),
        });
        let figures = outputs.figures.as_ref().map_or(0, String::len);
        add(
            C::JsonBytes,
            (outputs.suite_json.len() + outputs.sweep_csv.len() + outputs.kernel_json.len()
                + figures) as u64,
        );
        outputs
    }

    /// Measured-window cycles of the active runs in a suite and kernel
    /// suite.
    fn active_cycles(suite: &Suite, kernels: &[KernelRun]) -> u64 {
        let plb: u64 = suite
            .runs
            .iter()
            .flat_map(|r| [&r.plb_orig, &r.plb_ext])
            .flatten()
            .map(|o| o.report.cycles())
            .sum();
        plb + kernels
            .iter()
            .map(|k| k.plb_ext.report.cycles() + k.oracle.report.cycles())
            .sum::<u64>()
    }

    /// The untraced pass: the library's own entry points, in `repro all`
    /// order.
    fn run_library(&self, store_dir: &Path) -> PassResult {
        // Nothing else runs while the variable changes: every worker of
        // the previous pass has been joined.
        std::env::set_var(TRACE_CACHE_ENV, store_dir);
        let sim = &self.cfg.sim;
        let before = CacheHealth::snapshot();
        let started = Instant::now();
        let suite = Suite::run(self.cfg, self.full);
        let sweep = alu_sweep(self.cfg);
        let kernels = Kernel::all();
        let mut diverged = 0u64;
        if self.full {
            for k in &kernels {
                let program = k.assemble();
                if let Err(d) = differential_check(sim, &program, &program) {
                    eprintln!("{d}");
                    diverged += 1;
                }
            }
        }
        let kernel_runs = run_kernels(sim, TraceCache::from_env().as_ref());
        let outputs = self.documents(&suite, &sweep, &kernel_runs);
        let wall_ns = ns_since(started);

        let health = CacheHealth::snapshot();
        let points = (ints(self.cfg).len() * ALU_COUNTS.len()) as u64;
        let diffs = if self.full { kernels.len() as u64 } else { 0 };
        PassResult {
            wall_ns,
            job_ns: vec![wall_ns],
            attempted: self.cfg.benchmarks.len() as u64 + points + kernels.len() as u64 + diffs,
            failed: suite.failures.len() as u64
                + diverged
                + (kernels.len() - kernel_runs.len()) as u64
                + (health.replay_failures - before.replay_failures)
                + (health.store_failures - before.store_failures),
            active_cycles: Self::active_cycles(&suite, &kernel_runs),
            outputs,
        }
    }

    /// Baseline + DCG (+ metrics sink) over one tuple: through the traced
    /// twin of the cached path, or live without a cache. The metrics
    /// report is `None` unless `with_metrics`.
    #[allow(clippy::too_many_arguments)]
    fn passive<S: InstStream>(
        &self,
        cache: Option<&TraceCache>,
        sim: &SimConfig,
        name: &str,
        seed: u64,
        length: RunLength,
        make_stream: impl FnOnce() -> S,
        with_metrics: bool,
    ) -> Result<(PassiveRun, Option<MetricsReport>), DcgError> {
        fn sinks<T: ActivitySink>(sink: &mut Option<T>) -> Vec<&mut dyn ActivitySink> {
            sink.iter_mut()
                .map(|s| s as &mut dyn ActivitySink)
                .collect()
        }
        let groups = LatchGroups::new(&sim.depth);
        let mut baseline = NoGating::new(sim, &groups);
        let mut dcg = Dcg::new(sim, &groups);
        let mut probe = Dcg::new(sim, &groups);
        let mut metrics = with_metrics.then(|| MetricsSink::new(&mut probe, sim, &groups));
        let run = match cache {
            Some(c) => {
                let mut b = TimedPolicy::new(&mut baseline, C::BaselineNs);
                let mut d = TimedPolicy::new(&mut dcg, C::DcgNs);
                let mut m = metrics
                    .as_mut()
                    .map(|m| TimedSink::new(m, C::MetricsSinkNs));
                let policies: &mut [&mut dyn GatingPolicy] = &mut [&mut b, &mut d];
                traced_passive(
                    c,
                    sim,
                    name,
                    seed,
                    length,
                    make_stream,
                    policies,
                    &mut sinks(&mut m),
                )
            }
            None => run_passive_with_sinks(
                sim,
                &mut Processor::new(sim.clone(), make_stream()),
                length,
                &mut [&mut baseline, &mut dcg],
                &mut sinks(&mut metrics),
            ),
        }?;
        Ok((run, metrics.map(MetricsSink::into_report)))
    }

    /// [`Pass::passive`] with the suite's fail-open: a replay that fails
    /// mid-drive is counted and the tuple re-simulated live.
    #[allow(clippy::too_many_arguments)]
    fn passive_or_live<S: InstStream>(
        &self,
        cache: &TraceCache,
        sim: &SimConfig,
        name: &str,
        seed: u64,
        length: RunLength,
        make_stream: impl Fn() -> S,
        with_metrics: bool,
    ) -> (PassiveRun, Option<MetricsReport>) {
        self.passive(
            Some(cache),
            sim,
            name,
            seed,
            length,
            &make_stream,
            with_metrics,
        )
        .unwrap_or_else(|e| {
            eprintln!("warning: {name}: cached replay failed ({e}); re-simulating live");
            self.passive(None, sim, name, seed, length, &make_stream, with_metrics)
                .expect("a live simulation source cannot fail")
        })
    }

    /// IPC of the integer-ALU sweep point `(bench, alus)`: from the trace
    /// index on a hit, recorded live on a miss.
    fn sweep_point(&self, cache: &TraceCache, profile: BenchmarkProfile, alus: usize) -> f64 {
        let cfg = SimConfig {
            int_alus: alus,
            ..self.cfg.sim.clone()
        };
        let (seed, length) = (self.cfg.seed, self.cfg.length);
        let stream = || SyntheticWorkload::new(profile, seed);
        let ipc = match traced_fetch(cache, &cfg, profile.name, seed, length) {
            Some(replay) => {
                add(C::IndexQueries, 1);
                match timed(C::IndexNs, || replay.measured_window(length)) {
                    Ok(Some((cycles, committed))) => Ok(SimStats {
                        cycles,
                        committed,
                        ..SimStats::default()
                    }
                    .ipc()),
                    Ok(None) => {
                        let mut source =
                            full_replay(cache, replay, &cfg, profile.name, seed, length);
                        run_stats_source(&mut source, length).map(|s| s.ipc())
                    }
                    Err(e) => Err(e),
                }
            }
            None => traced_record(
                cache,
                &cfg,
                profile.name,
                seed,
                length,
                stream,
                &mut [],
                &mut [],
            )
            .map(|r| r.stats.ipc()),
        };
        ipc.unwrap_or_else(|e| {
            eprintln!(
                "warning: {}: cached replay failed ({e}); re-simulating live",
                profile.name
            );
            self.passive(None, &cfg, profile.name, seed, length, stream, false)
                .expect("a live simulation source cannot fail")
                .0
                .stats
                .ipc()
        })
    }

    fn run_op(&self, cache: &TraceCache, op: &Op) -> Out {
        let (sim, seed, length) = (&self.cfg.sim, self.cfg.seed, self.cfg.length);
        let groups = LatchGroups::new(&sim.depth);
        let kernels = Kernel::all();
        match *op {
            Op::Passive(i) => {
                let profile = self.cfg.benchmarks[i];
                let (run, metrics) = self.passive_or_live(
                    cache,
                    sim,
                    profile.name,
                    seed,
                    length,
                    || SyntheticWorkload::new(profile, seed),
                    true,
                );
                Out::Passive(Box::new((run, metrics.expect("metrics sink attached"))))
            }
            Op::Plb(i, variant) => {
                let profile = self.cfg.benchmarks[i];
                add(C::PlbRuns, 1);
                Out::Active(Box::new(timed(C::PlbNs, || {
                    let mut plb = Plb::new(variant, sim, &groups);
                    run_active(sim, SyntheticWorkload::new(profile, seed), length, &mut plb)
                })))
            }
            Op::Sweep(b, a) => Out::Ipc(self.sweep_point(cache, ints(self.cfg)[b], ALU_COUNTS[a])),
            Op::Diff(k) => {
                let kernel = &kernels[k];
                let program = timed(C::AssembleNs, || kernel.assemble());
                match timed(C::DiffNs, || differential_check(sim, &program, &program)) {
                    Ok(n) => {
                        add(C::EmuInsts, n);
                        Out::Diff
                    }
                    Err(d) => panic!("kernel differential check failed: {d}"),
                }
            }
            Op::KPassive(k) => {
                let kernel = kernels[k];
                let (run, _) = self.passive_or_live(
                    cache,
                    sim,
                    kernel.name,
                    KERNEL_SEED,
                    kernel_run_length(),
                    || kernel.stream(),
                    false,
                );
                Out::KPassive(Box::new(run))
            }
            Op::KPlb(k) => {
                let kernel = kernels[k];
                add(C::PlbRuns, 1);
                Out::Active(Box::new(timed(C::PlbNs, || {
                    let mut plb = Plb::new(PlbVariant::Ext, sim, &groups);
                    run_active(sim, kernel.stream(), kernel_run_length(), &mut plb)
                })))
            }
            Op::KOracle(k) => {
                let kernel = kernels[k];
                add(C::OracleRuns, 1);
                Out::Active(Box::new(timed(C::OracleNs, || {
                    run_oracle(sim, kernel.stream(), kernel_run_length())
                })))
            }
        }
    }

    /// Run a phase of operations on the pool.
    fn phase(&self, cache: &TraceCache, ops: &[Op], op_ns: &mut Vec<u64>) -> Vec<Option<Out>> {
        pool(self.threads, ops.len(), |i| self.run_op(cache, &ops[i]))
            .into_iter()
            .map(|(out, ns)| {
                op_ns.push(ns);
                add(C::OpsNs, ns);
                add(C::Ops, 1);
                out
            })
            .collect()
    }

    /// The traced pass: the untraced pass's work split into operations
    /// whose layer boundaries the adapters time, assembled into the same
    /// suite, table and kernel runs.
    fn run_traced(&self, store_dir: &Path) -> PassResult {
        let started = Instant::now();
        let cache = TraceCache::new(store_dir.to_path_buf());
        add(C::Opens, 1);
        timed(C::OpenNs, || cache.ensure_open());
        let mut op_ns = Vec::new();
        let mut failed = 0u64;

        // Suite: passive pass per benchmark, then PLB runs if asked.
        let n = self.cfg.benchmarks.len();
        let mut ops: Vec<Op> = (0..n).map(Op::Passive).collect();
        if self.full {
            for i in 0..n {
                ops.push(Op::Plb(i, PlbVariant::Orig));
                ops.push(Op::Plb(i, PlbVariant::Ext));
            }
        }
        let suite_started = Instant::now();
        let mut outs = self.phase(&cache, &ops, &mut op_ns).into_iter();
        let mut passives: Vec<Option<Out>> = outs.by_ref().take(n).collect();
        let mut plbs: Vec<Option<Out>> = outs.collect();
        let mut runs = Vec::new();
        let mut failures = Vec::new();
        for (i, slot) in passives.iter_mut().enumerate() {
            let profile = self.cfg.benchmarks[i];
            let mut take_plb = |k: usize| -> Option<Option<PolicyOutcome>> {
                if !self.full {
                    return Some(None);
                }
                match plbs[2 * i + k].take() {
                    Some(Out::Active(o)) => Some(Some(*o)),
                    _ => None,
                }
            };
            let (orig, ext) = (take_plb(0), take_plb(1));
            match (slot.take(), orig, ext) {
                (Some(Out::Passive(p)), Some(plb_orig), Some(plb_ext)) => {
                    let (mut run, metrics) = *p;
                    let dcg = run.outcomes.remove(1);
                    let base = run.outcomes.remove(0);
                    runs.push(BenchmarkRun {
                        profile,
                        elapsed_ns: 0,
                        baseline: base.report,
                        dcg,
                        plb_orig,
                        plb_ext,
                        stats: run.stats,
                        metrics,
                    });
                }
                _ => {
                    failed += 1;
                    failures.push(SuiteFailure {
                        name: profile.name.to_string(),
                        message: "an operation of this benchmark panicked".to_string(),
                    });
                }
            }
        }
        let suite = Suite {
            runs,
            failures,
            wall_ns: ns_since(suite_started),
        };

        // §4.4 sweep over the integer benchmarks.
        let ints = ints(self.cfg);
        let ops: Vec<Op> = (0..ints.len())
            .flat_map(|b| (0..ALU_COUNTS.len()).map(move |a| Op::Sweep(b, a)))
            .collect();
        let ipcs = self.phase(&cache, &ops, &mut op_ns);
        let mut sweep = FigureTable::new(
            "section-4.4",
            "Relative performance vs integer-ALU count (% of 8-ALU IPC)",
            ALU_COUNTS.iter().map(|n| format!("{n}-alus")).collect(),
        );
        let mut worst = vec![f64::INFINITY; ALU_COUNTS.len()];
        for (b, p) in ints.iter().enumerate() {
            let row: Vec<f64> = ipcs[b * ALU_COUNTS.len()..(b + 1) * ALU_COUNTS.len()]
                .iter()
                .map(|out| match out {
                    Some(Out::Ipc(ipc)) => *ipc,
                    _ => {
                        failed += 1;
                        f64::NAN
                    }
                })
                .collect();
            let rel: Vec<f64> = row.iter().map(|i| 100.0 * i / row[0]).collect();
            for (w, r) in worst.iter_mut().zip(&rel) {
                *w = w.min(*r);
            }
            sweep.push_row(p.name, rel);
        }
        sweep.push_row("worst-case", worst);

        // Kernel suite.
        let kernels = Kernel::all();
        let mut ops = Vec::new();
        for k in 0..kernels.len() {
            if self.full {
                ops.push(Op::Diff(k));
            }
            ops.extend([Op::KPassive(k), Op::KPlb(k), Op::KOracle(k)]);
        }
        let per = if self.full { 4 } else { 3 };
        let mut outs = self.phase(&cache, &ops, &mut op_ns);
        let mut kernel_runs = Vec::new();
        for (k, kernel) in kernels.iter().enumerate() {
            let slots = &mut outs[k * per..(k + 1) * per];
            if self.full && !matches!(slots[0], Some(Out::Diff)) {
                failed += 1;
                continue;
            }
            let [.., passive, plb, oracle] = slots else {
                unreachable!("three kernel operations per kernel");
            };
            match (passive.take(), plb.take(), oracle.take()) {
                (
                    Some(Out::KPassive(run)),
                    Some(Out::Active(plb_ext)),
                    Some(Out::Active(oracle)),
                ) => {
                    let mut run = *run;
                    let dcg = run.outcomes.remove(1);
                    let base = run.outcomes.remove(0);
                    kernel_runs.push(KernelRun {
                        name: kernel.name,
                        baseline: base.report,
                        dcg,
                        plb_ext: *plb_ext,
                        oracle: *oracle,
                        stats: run.stats,
                    });
                }
                _ => failed += 1,
            }
        }

        let outputs = self.documents(&suite, &sweep, &kernel_runs);
        let wall_ns = ns_since(started);

        let health = cache.health();
        failed += health.replay_failures + health.store_failures;
        add(C::ReplayFailures, health.replay_failures);
        add(C::ReadonlySkips, health.readonly_skips);
        PassResult {
            wall_ns,
            attempted: op_ns.len() as u64,
            job_ns: op_ns,
            failed,
            active_cycles: Self::active_cycles(&suite, &kernel_runs),
            outputs,
        }
    }
}
