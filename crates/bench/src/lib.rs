//! Shared plumbing for the figure-regeneration benches.
//!
//! Each `[[bench]]` target with `harness = false` regenerates one of the
//! paper's tables/figures: it runs the experiment at full scale, prints
//! the same rows/series the paper reports (with the paper's numbers as
//! notes), writes a CSV under the workspace `results/`, and a
//! machine-readable JSON document under `crates/bench/results/`
//! (micro-bench timings land in the same directory via
//! [`dcg_testkit::bench::Harness`]).
//!
//! Scale note: `cargo bench` runs the full 18-benchmark suite per figure;
//! set `DCG_BENCH_QUICK=1` to use the reduced smoke-test configuration.
//! The `bench_runner` binary (`cargo run -p dcg-bench --bin bench_runner
//! -- <name>`) runs the same harnesses outside the bench profile.

use std::path::PathBuf;

use dcg_experiments::{ExperimentConfig, FigureTable, Suite};
use dcg_testkit::bench::Harness;
use dcg_testkit::json::Json;

/// The experiment configuration for benches (`DCG_BENCH_QUICK=1` shrinks
/// it).
pub fn bench_config() -> ExperimentConfig {
    if std::env::var_os("DCG_BENCH_QUICK").is_some() {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::standard()
    }
}

/// Run the shared suite for figure benches.
pub fn bench_suite(with_plb: bool) -> Suite {
    let cfg = bench_config();
    eprintln!(
        "running {} benchmarks{}...",
        cfg.benchmarks.len(),
        if with_plb { " (with PLB runs)" } else { "" }
    );
    let suite = Suite::run(&cfg, with_plb);
    eprintln!("suite finished in {:.2} s wall", suite.wall_ns as f64 / 1e9);
    report_suite_failures(&suite);
    suite
}

/// Print every benchmark the suite lost to a panic and return how many
/// there were. Harness binaries turn a non-zero count into a non-zero
/// exit code — a partially-failed suite must never look green.
pub fn report_suite_failures(suite: &Suite) -> usize {
    for f in &suite.failures {
        eprintln!("benchmark {} FAILED: {}", f.name, f.message);
    }
    suite.failures.len()
}

/// Workspace root, anchored on this crate's manifest so destinations do
/// not depend on the invocation directory.
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .to_path_buf()
}

/// Directory receiving the machine-readable JSON bench results.
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// A [`FigureTable`] as a JSON document.
pub fn table_json(table: &FigureTable) -> Json {
    Json::obj([
        ("id", Json::str(&table.id)),
        ("title", Json::str(&table.title)),
        (
            "columns",
            Json::arr(table.columns.iter().map(Json::str).collect()),
        ),
        (
            "rows",
            Json::arr(
                table
                    .rows
                    .iter()
                    .map(|(label, values)| {
                        Json::obj([
                            ("label", Json::str(label)),
                            (
                                "values",
                                Json::arr(values.iter().copied().map(Json::f64).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "notes",
            Json::arr(table.notes.iter().map(Json::str).collect()),
        ),
    ])
}

/// Per-benchmark wall-time trajectory of a suite run.
pub fn suite_timing_json(suite: &Suite) -> Json {
    Json::obj([
        ("wall_ns", Json::u64(suite.wall_ns)),
        (
            "benchmarks",
            Json::arr(
                suite
                    .runs
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("name", Json::str(r.profile.name)),
                            ("elapsed_ns", Json::u64(r.elapsed_ns)),
                            ("cycles", Json::u64(r.stats.cycles)),
                            ("committed", Json::u64(r.stats.committed)),
                            ("ipc", Json::f64(r.stats.ipc())),
                            ("dcg_total_saving", Json::f64(r.dcg_total_saving())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn write_json_doc(id: &str, doc: &Json) {
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("could not create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{id}.json"));
    match std::fs::write(&path, format!("{doc}\n")) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn emit_with(table: &FigureTable, doc: Json) {
    println!("{table}");
    let path = workspace_root()
        .join("results")
        .join(format!("{}.csv", table.id));
    match table.write_csv(&path) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    write_json_doc(&table.id, &doc);
}

/// Print a figure table, persist its CSV under the workspace-root
/// `results/` directory, and its JSON under [`results_dir`].
pub fn emit(table: &FigureTable) {
    emit_with(table, table_json(table));
}

/// [`emit`], additionally embedding the suite's wall-time trajectory in
/// the JSON document (for figure benches that ran a full suite).
pub fn emit_timed(table: &FigureTable, suite: &Suite) {
    let doc = Json::obj([
        ("table", table_json(table)),
        ("suite_timing", suite_timing_json(suite)),
    ]);
    emit_with(table, doc);
}

/// The `sim_throughput` micro-bench: end-to-end simulator cycles/second
/// plus the hot component models, on the testkit harness. Writes (and
/// returns the path of) `crates/bench/results/sim_throughput.json`.
pub fn run_sim_throughput() -> std::io::Result<PathBuf> {
    use dcg_sim::{
        BpredConfig, BranchPredictor, CacheConfig, CacheHierarchy, PredictorKind, Processor,
        SimConfig,
    };
    use dcg_workloads::{InstStream, Spec2000, SyntheticWorkload};

    let mut h = Harness::new("sim_throughput");

    {
        let mut g = h.group("pipeline");
        g.throughput_elements(10_000);
        g.bench_function("commit_10k_insts_gzip", |b| {
            let cfg = SimConfig::baseline_8wide();
            let mut cpu = Processor::new(
                cfg,
                SyntheticWorkload::new(Spec2000::by_name("gzip").unwrap(), 1),
            );
            cpu.run_until_commits(20_000, |_| {}); // warm structures
            b.iter(|| {
                cpu.run_until_commits(10_000, |_| {});
            });
        });
    }

    {
        let mut g = h.group("workload");
        g.throughput_elements(10_000);
        g.bench_function("generate_10k_insts_gcc", |b| {
            let mut w = SyntheticWorkload::new(Spec2000::by_name("gcc").unwrap(), 1);
            b.iter(|| {
                for _ in 0..10_000 {
                    std::hint::black_box(w.next_inst());
                }
            });
        });
    }

    {
        let mut g = h.group("runner");
        g.throughput_elements(5_000);
        g.bench_function("run_passive_baseline_dcg_5k_gzip", |b| {
            use dcg_core::{run_passive, Dcg, NoGating, RunLength};
            use dcg_sim::LatchGroups;
            let cfg = SimConfig::baseline_8wide();
            let groups = LatchGroups::new(&cfg.depth);
            let length = RunLength {
                warmup_insts: 0,
                measure_insts: 5_000,
            };
            b.iter(|| {
                let mut base = NoGating::new(&cfg, &groups);
                let mut dcg = Dcg::new(&cfg, &groups);
                let run = run_passive(
                    &cfg,
                    SyntheticWorkload::new(Spec2000::by_name("gzip").unwrap(), 1),
                    length,
                    &mut [&mut base, &mut dcg],
                );
                std::hint::black_box(run.stats.cycles);
            });
        });
    }

    {
        let mut g = h.group("components");
        g.throughput_elements(10_000);
        g.bench_function("bpred_lookup_update_10k", |b| {
            let mut p = BranchPredictor::new(&BpredConfig {
                kind: PredictorKind::TwoLevel,
                pht_entries: 8192,
                history_bits: 13,
                btb_entries: 8192,
                btb_ways: 4,
                ras_entries: 32,
            });
            let mut pc = 0u64;
            b.iter(|| {
                for _ in 0..10_000 {
                    pc = pc.wrapping_add(4096);
                    std::hint::black_box(p.predict_and_update(
                        pc & 0xffff,
                        dcg_isa::BranchInfo::conditional(pc & 8 == 0, pc ^ 0x40),
                    ));
                }
            });
        });
        g.bench_function("cache_hierarchy_access_10k", |b| {
            let l1 = CacheConfig {
                size_bytes: 64 << 10,
                ways: 2,
                line_bytes: 32,
                latency: 2,
            };
            let l2 = CacheConfig {
                size_bytes: 2 << 20,
                ways: 8,
                line_bytes: 64,
                latency: 12,
            };
            let mut hier = CacheHierarchy::new(l1, l2, 100);
            let mut t = 0u64;
            b.iter(|| {
                for _ in 0..10_000 {
                    t += 1;
                    std::hint::black_box(hier.access((t * 40) & 0xf_ffff, t));
                }
            });
        });
    }

    h.write_json(&results_dir())
}

/// The `--metrics-json` harness: run the shared suite (baseline + DCG)
/// and write the cycle-level observability document —
/// `crates/bench/results/suite_metrics.json` with per-benchmark component
/// counters, occupancy histograms, windowed time series and the
/// gating-decision audit trail, plus one utilization-over-time SVG per
/// benchmark under the workspace `results/figures/`. Returns the JSON
/// path and the number of benchmarks the suite lost to panics.
///
/// # Panics
///
/// Panics if no benchmark produced audit records: DCG's conservative
/// gating always powers some idle blocks, so an empty trail means the
/// metrics layer is broken.
pub fn run_suite_metrics() -> std::io::Result<(PathBuf, usize)> {
    let suite = bench_suite(false);
    let with_audit = suite
        .runs
        .iter()
        .filter(|r| r.metrics.total_disagreements() > 0)
        .count();
    eprintln!(
        "{}/{} benchmarks produced gating-audit records",
        with_audit,
        suite.runs.len()
    );
    assert!(
        with_audit > 0,
        "no benchmark produced a gating audit trail; the metrics layer \
         cannot be wired correctly"
    );

    let fig_dir = workspace_root().join("results").join("figures");
    for run in &suite.runs {
        let path = fig_dir.join(format!("utilization-{}.svg", run.profile.name));
        match dcg_experiments::write_utilization_svg(run.profile.name, &run.metrics, &path) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }

    let doc = dcg_experiments::suite_metrics_json(&suite);
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("suite_metrics.json");
    std::fs::write(&path, format!("{doc}\n"))?;
    Ok((path, suite.failures.len()))
}

/// The `fig10_total_power` harness: run the shared suite and emit the
/// paper's Figure 10 with the timing trajectory embedded in the JSON.
/// Returns the number of benchmarks the suite lost to panics.
pub fn run_fig10_total_power() -> usize {
    let suite = bench_suite(true);
    emit_timed(&dcg_experiments::fig10(&suite), &suite);
    suite.failures.len()
}

/// The `--faults N` harness: run the seeded fault-injection campaign
/// (`DCG_FAULT_SEED` replays a reported one) and write its classification
/// document to `crates/bench/results/fault_campaign.json`. Returns the
/// path and whether every fault was classified (no silent divergence).
pub fn run_fault_campaign(faults: u32) -> std::io::Result<(PathBuf, bool)> {
    use dcg_experiments::{fault_campaign_json, fault_seed_from_env, FaultCampaign, FaultClass};

    let seed = fault_seed_from_env();
    eprintln!("fault campaign: {faults} faults, seed {seed:#x} (DCG_FAULT_SEED={seed} replays)");
    let campaign = FaultCampaign::run(seed, faults);
    for o in &campaign.outcomes {
        eprintln!(
            "fault {:>3}  {:<20} {:<10} {}",
            o.spec.id,
            o.spec.point.label(),
            o.class.label(),
            o.detail
        );
    }
    eprintln!(
        "campaign: {} detected, {} masked, {} tolerated, {} undetected",
        campaign.count(FaultClass::Detected),
        campaign.count(FaultClass::Masked),
        campaign.count(FaultClass::Tolerated),
        campaign.count(FaultClass::Undetected),
    );

    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("fault_campaign.json");
    std::fs::write(&path, format!("{}\n", fault_campaign_json(&campaign)))?;
    Ok((path, campaign.all_classified()))
}

/// Forces the scalar per-cycle replay path by hiding block support —
/// the full-decode baseline the warm index query is measured against.
struct ScalarReplay(dcg_core::ReplaySource);

impl dcg_core::ActivitySource for ScalarReplay {
    fn next_cycle(&mut self) -> Result<&dcg_sim::CycleActivity, dcg_core::DcgError> {
        self.0.next_cycle()
    }
    fn committed(&self) -> u64 {
        self.0.committed()
    }
    fn cycle(&self) -> u64 {
        self.0.cycle()
    }
    fn supports_constraints(&self) -> bool {
        false
    }
    fn apply_constraints(&mut self, _constraints: dcg_sim::ResourceConstraints) {
        panic!("replayed activity cannot honor resource constraints");
    }
}

/// Re-run the §4.4 sweep from a warm cache through the **scalar**
/// per-cycle replay path (policy fan-out, one record at a time) — what
/// every warm sweep point cost before the block refactor. Returns the
/// table rows as exact bits plus the decode totals (cycles, entry bytes).
fn alu_sweep_scalar_replay(
    cfg: &dcg_experiments::ExperimentConfig,
    cache: &dcg_core::TraceCache,
) -> (Vec<(String, Vec<u64>)>, u64, u64) {
    use dcg_core::{run_passive_with_sinks, ActivitySource, NoGating, RunLength};
    use dcg_sim::{LatchGroups, SimConfig};

    let mut rows: Vec<(String, Vec<u64>)> = Vec::new();
    let mut worst = vec![f64::INFINITY; dcg_experiments::ALU_COUNTS.len()];
    let (mut cycles, mut bytes) = (0u64, 0u64);
    for p in cfg
        .benchmarks
        .iter()
        .filter(|p| p.suite == dcg_workloads::SuiteKind::Int)
    {
        let ipcs: Vec<f64> = dcg_experiments::ALU_COUNTS
            .iter()
            .map(|n| {
                let alu_cfg = SimConfig {
                    int_alus: *n,
                    ..cfg.sim.clone()
                };
                let groups = LatchGroups::new(&alu_cfg.depth);
                let length: RunLength = cfg.length;
                let entry = cache.entry_path_for(&alu_cfg, p.name, cfg.seed, length);
                bytes += std::fs::metadata(&entry).map(|m| m.len()).unwrap_or(0);
                let replay = cache
                    .replay_source(&alu_cfg, p.name, cfg.seed, length)
                    .expect("warm cache entry for every sweep point");
                let mut source = ScalarReplay(replay);
                let mut policy = NoGating::new(&alu_cfg, &groups);
                let run = run_passive_with_sinks(
                    &alu_cfg,
                    &mut source,
                    length,
                    &mut [&mut policy],
                    &mut [],
                )
                .expect("validated entry replays");
                cycles += source.cycle();
                run.stats.ipc()
            })
            .collect();
        let rel: Vec<f64> = ipcs.iter().map(|i| 100.0 * i / ipcs[0]).collect();
        for (w, r) in worst.iter_mut().zip(&rel) {
            *w = w.min(*r);
        }
        rows.push((
            p.name.to_string(),
            rel.iter().map(|v| v.to_bits()).collect(),
        ));
    }
    rows.push((
        "worst-case".to_string(),
        worst.iter().map(|v| v.to_bits()).collect(),
    ));
    (rows, cycles, bytes)
}

/// The `alu_sweep_cache` harness: demonstrate the simulate-once
/// architecture on the §4.4 ALU sweep.
///
/// Runs the sweep four times — live (no cache), cold cache (simulate +
/// record), warm cache (IPC from each trace's block index) and warm
/// cache forced through a full scalar per-cycle replay — asserts all
/// four produce bit-identical tables, and writes the wall-clock
/// comparison to `crates/bench/results/alu_sweep_cache.json` **and** the
/// repo-root `BENCH_sweep.json` perf-trajectory file. The derived
/// cycles/sec and decoded-bytes/sec rates are those of the full scalar
/// replay, the only pass that decodes every cycle.
pub fn run_alu_sweep_cache() -> std::io::Result<PathBuf> {
    use dcg_core::TraceCache;
    use dcg_testkit::bench::time;

    let cfg = bench_config();
    let dir = workspace_root()
        .join("target")
        .join("tmp")
        .join("alu-sweep-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = TraceCache::new(dir);

    eprintln!("alu_sweep live (no cache)...");
    let (live_table, live_ns) = time(|| dcg_experiments::alu_sweep_with(&cfg, None));
    eprintln!("alu_sweep cold cache (simulate + record)...");
    let (cold_table, cold_ns) = time(|| dcg_experiments::alu_sweep_with(&cfg, Some(&cache)));
    eprintln!("alu_sweep warm cache (block-index IPC)...");
    let (warm_table, warm_ns) = time(|| dcg_experiments::alu_sweep_with(&cfg, Some(&cache)));
    eprintln!("alu_sweep warm cache (scalar per-cycle replay)...");
    let ((scalar_rows, replayed_cycles, replayed_bytes), warm_scalar_ns) =
        time(|| alu_sweep_scalar_replay(&cfg, &cache));

    let bits = |t: &FigureTable| -> Vec<(String, Vec<u64>)> {
        t.rows
            .iter()
            .map(|(label, values)| (label.clone(), values.iter().map(|v| v.to_bits()).collect()))
            .collect()
    };
    assert_eq!(
        bits(&live_table),
        bits(&cold_table),
        "recording must not change results"
    );
    assert_eq!(
        bits(&live_table),
        bits(&warm_table),
        "blockwise replay must reproduce the live sweep bit-identically"
    );
    assert_eq!(
        bits(&live_table),
        scalar_rows,
        "scalar replay must reproduce the live sweep bit-identically"
    );

    // Store-level timings: checkpoint the manifest, then time a fresh
    // open (the recovery sweep a new process pays once) and a
    // full-store lookup scan (the fast per-entry fetch path a warm hit
    // pays — verified rows skip the payload checksum, see
    // `lookup_all`). The deep payload verification still runs, untimed,
    // to assert the store is actually clean.
    eprintln!("trace store reopen (recovery sweep) + full lookup scan...");
    cache
        .checkpoint()
        .expect("checkpointing the bench store succeeds");
    let store_dir = cache.dir().to_path_buf();
    drop(cache);
    let reopened = TraceCache::new(store_dir);
    let (open_stats, store_open_ns) = time(|| reopened.ensure_open());
    let (scan, store_lookup_ns) = time(|| reopened.lookup_all());
    let deep = reopened.verify_all();
    assert_eq!(
        (open_stats.dropped_corrupt, scan.invalid, deep.invalid),
        (0, 0, 0),
        "a clean bench store must reopen, look up and deep-verify without losses"
    );

    let speedup = live_ns as f64 / warm_ns.max(1) as f64;
    let index_over_scalar = warm_scalar_ns as f64 / warm_ns.max(1) as f64;
    // The rates divide the scalar pass's own work by the scalar pass's
    // own time: the warm pass answers from the block index and decodes
    // only two boundary blocks per trace, so it did not do this work.
    let scalar_s = warm_scalar_ns.max(1) as f64 / 1e9;
    let cycles_per_sec = replayed_cycles as f64 / scalar_s;
    let bytes_per_sec = replayed_bytes as f64 / scalar_s;
    eprintln!(
        "live {:.3} s, cold {:.3} s, warm {:.3} s, warm-scalar {:.3} s",
        live_ns as f64 / 1e9,
        cold_ns as f64 / 1e9,
        warm_ns as f64 / 1e9,
        warm_scalar_ns as f64 / 1e9
    );
    eprintln!(
        "warm-cache speedup {speedup:.1}x over live, index query {index_over_scalar:.1}x \
         over full scalar replay (scalar replay {:.1} M cycles/s, {:.1} MB/s decoded)",
        cycles_per_sec / 1e6,
        bytes_per_sec / 1e6
    );
    eprintln!(
        "store reopen {:.2} ms (recovery sweep), full lookup scan {:.2} ms \
         over {} entries",
        store_open_ns as f64 / 1e6,
        store_lookup_ns as f64 / 1e6,
        scan.valid
    );
    let doc = Json::obj([
        ("id", Json::str("alu_sweep_cache")),
        ("live_ns", Json::u64(live_ns)),
        ("cold_ns", Json::u64(cold_ns)),
        ("warm_ns", Json::u64(warm_ns)),
        ("warm_scalar_ns", Json::u64(warm_scalar_ns)),
        ("speedup_live_over_warm", Json::f64(speedup)),
        ("speedup_index_over_scalar", Json::f64(index_over_scalar)),
        ("replayed_cycles", Json::u64(replayed_cycles)),
        ("replayed_bytes", Json::u64(replayed_bytes)),
        ("cycles_per_sec", Json::f64(cycles_per_sec)),
        ("decoded_bytes_per_sec", Json::f64(bytes_per_sec)),
        ("store_open_ns", Json::u64(store_open_ns)),
        ("store_lookup_ns", Json::u64(store_lookup_ns)),
        ("store_entries", Json::u64(scan.valid)),
        ("bit_identical", Json::Bool(true)),
    ]);
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("alu_sweep_cache.json");
    std::fs::write(&path, format!("{doc}\n"))?;
    let trajectory = workspace_root().join("BENCH_sweep.json");
    std::fs::write(&trajectory, format!("{doc}\n"))?;
    eprintln!("wrote {}", trajectory.display());
    Ok(path)
}

/// The `kernel_stream` harness: time the six checked-in `.asm` kernels
/// end-to-end through the cached activity-stream path (assemble +
/// emulate + simulate + record on the cold pass, blockwise replay on the
/// warm pass), with cycles/sec and decoded-bytes/sec derived fields so
/// kernel throughput is comparable across machines. Writes
/// `crates/bench/results/kernel_stream.json` **and** the repo-root
/// `BENCH_kernels.json` perf-trajectory file.
pub fn run_kernel_stream() -> std::io::Result<PathBuf> {
    use dcg_core::{run_passive_with_sinks, Dcg, NoGating, TraceCache};
    use dcg_experiments::{kernel_run_length, KERNEL_SEED};
    use dcg_sim::{LatchGroups, SimConfig};
    use dcg_testkit::bench::time;
    use dcg_workloads::Kernel;

    let sim = SimConfig::baseline_8wide();
    let groups = LatchGroups::new(&sim.depth);
    let length = kernel_run_length();
    let dir = workspace_root()
        .join("target")
        .join("tmp")
        .join("kernel-stream");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = TraceCache::new(dir);

    let run_cached = |k: &Kernel| {
        cache
            .run(
                &sim,
                k.name,
                KERNEL_SEED,
                length,
                || k.stream(),
                |source| {
                    let mut baseline = NoGating::new(&sim, &groups);
                    let mut dcg = Dcg::new(&sim, &groups);
                    run_passive_with_sinks(
                        &sim,
                        source,
                        length,
                        &mut [&mut baseline, &mut dcg],
                        &mut [],
                    )
                },
            )
            .expect("kernel stream replays")
    };

    let mut entries = Vec::new();
    for k in Kernel::all() {
        let (cold_run, cold_ns) = time(|| run_cached(&k));
        let (warm_run, warm_ns) = time(|| run_cached(&k));
        assert_eq!(
            format!("{:?}", cold_run.stats),
            format!("{:?}", warm_run.stats),
            "{}: warm replay must match the recording run",
            k.name
        );
        let entry = cache.entry_path_for(&sim, k.name, KERNEL_SEED, length);
        let entry_bytes = std::fs::metadata(&entry).map(|m| m.len()).unwrap_or(0);
        let trace_cycles = std::fs::read(&entry)
            .ok()
            .and_then(|b| dcg_trace::ActivityTraceReader::new(&b[..]).ok())
            .and_then(|r| r.verified_totals())
            .map_or(0, |(cycles, _)| cycles);
        let warm_s = warm_ns.max(1) as f64 / 1e9;
        eprintln!(
            "kernel {:<10} cold {:>8.3} ms, warm {:>8.3} ms ({:.1} M cycles/s, {:.1} MB/s)",
            k.name,
            cold_ns as f64 / 1e6,
            warm_ns as f64 / 1e6,
            trace_cycles as f64 / warm_s / 1e6,
            entry_bytes as f64 / warm_s / 1e6
        );
        entries.push(Json::obj([
            ("name", Json::str(k.name)),
            ("cold_ns", Json::u64(cold_ns)),
            ("warm_ns", Json::u64(warm_ns)),
            (
                "speedup_cold_over_warm",
                Json::f64(cold_ns as f64 / warm_ns.max(1) as f64),
            ),
            ("trace_bytes", Json::u64(entry_bytes)),
            ("trace_cycles", Json::u64(trace_cycles)),
            ("ipc", Json::f64(warm_run.stats.ipc())),
            ("cycles_per_sec", Json::f64(trace_cycles as f64 / warm_s)),
            (
                "decoded_bytes_per_sec",
                Json::f64(entry_bytes as f64 / warm_s),
            ),
        ]));
    }

    let doc = Json::obj([
        ("id", Json::str("kernel_stream")),
        ("kernels", Json::arr(entries)),
    ]);
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("kernel_stream.json");
    std::fs::write(&path, format!("{doc}\n"))?;
    let trajectory = workspace_root().join("BENCH_kernels.json");
    std::fs::write(&trajectory, format!("{doc}\n"))?;
    eprintln!("wrote {}", trajectory.display());
    Ok(path)
}
