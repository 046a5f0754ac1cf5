//! `perfbench` — the repository benchmark: three workloads timed end to
//! end, and a traced run that times each layer from outside.
//!
//! ```text
//! perfbench --workload <cold_repro|warm_replay|server_jobs> --seed N
//!           --seconds S --trace <0|1> --work DIR --golden DIR
//!           --server-bin PATH --threads N
//! ```
//!
//! Prints two lines on stdout: a report document (samples, checks,
//! per-pass figures) and, last, the result line
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}` carrying the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits non-zero when any output check fails. Normally
//! started through `run.py`, which builds it and pins the environment.

mod ledger;
mod repro;
mod serve;
mod stats;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use dcg_experiments::ExperimentConfig;
use dcg_testkit::json::Json;

use ledger::{get, ns_since, C};
use repro::{work_cycles, Outputs, Pass, PassResult};
use stats::{beyond, median, nearest_rank, samples_for, tail_percentile};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Fewest measured passes of `cold_repro` and `warm_replay`, whose
/// latency samples are whole passes.
const MIN_PASSES: usize = 2;

/// The latency percentile reported as the tail when the samples allow
/// it (`server_jobs` collects the 200 samples p95 needs).
const TAIL: f64 = 95.0;

const USAGE: &str = "usage: perfbench --workload <cold_repro|warm_replay|server_jobs> --seed N --seconds S --trace <0|1> --work DIR --golden DIR --server-bin PATH --threads N";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
    golden: PathBuf,
    server_bin: PathBuf,
    threads: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = std::collections::BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(k, v);
    }
    let mut take = |k: &str| kv.remove(k).ok_or_else(|| format!("missing {k}"));
    let num = |k: &str, v: String| {
        v.parse::<f64>()
            .map_err(|_| format!("{k}: not a number: {v}"))
    };
    let args = Args {
        workload: take("--workload")?,
        seed: take("--seed")?
            .parse()
            .map_err(|_| "--seed: not an integer")?,
        seconds: num("--seconds", take("--seconds")?)?,
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        work: take("--work")?.into(),
        golden: take("--golden")?.into(),
        server_bin: take("--server-bin")?.into(),
        threads: take("--threads")?
            .parse()
            .map_err(|_| "--threads: not an integer")?,
    };
    if let Some(k) = kv.keys().next() {
        return Err(format!("unknown argument {k}"));
    }
    if !["cold_repro", "warm_replay", "server_jobs"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {}", args.workload));
    }
    if args.threads == 0 || args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--threads and --seconds must be positive".into());
    }
    Ok(args)
}

/// Peak resident set (`VmHWM`) from a `/proc/<pid>/status` file, KiB.
pub fn hwm_kb(status: &str) -> Option<u64> {
    fs::read_to_string(status)
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Reset this process's peak resident set to its current size, so the
/// measured phase's peak excludes set-up.
fn reset_hwm() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn dir_bytes(p: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(p) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn fresh_dir(p: &Path) {
    let _ = fs::remove_dir_all(p);
    fs::create_dir_all(p).unwrap_or_else(|e| panic!("cannot create {}: {e}", p.display()));
}

/// The suite document without its trailing `cache_health` block, which
/// the committed copy predates.
fn without_health(doc: &str) -> &str {
    doc.find(",\"cache_health\":").map_or(doc, |i| &doc[..i])
}

/// The tail percentile reported over `n` samples: [`TAIL`], or the
/// highest percentile below it that leaves ten samples beyond it, or the
/// median when none does (as with `cold_repro`'s and `warm_replay`'s
/// passes).
fn tail(n: usize) -> f64 {
    tail_percentile(n).unwrap_or(50.0).min(TAIL)
}

/// What one latency sample times.
fn sample_unit(args: &Args) -> &'static str {
    if args.workload == "server_jobs" {
        "one submitted job, submit to result over the socket"
    } else if args.trace {
        "one operation of the traced pass"
    } else {
        "one pass: a whole re-run of the workload's library entry points"
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
struct Run {
    setup_ns: Vec<u64>,
    walls_ns: Vec<u64>,
    latency_ns: Vec<u64>,
    cycles: u64,
    attempted: u64,
    failed: u64,
    checks: std::collections::BTreeMap<String, u64>,
    problems: Vec<String>,
    hwm_reset: bool,
    peak_rss_kb: u64,
    server_rss_kb: u64,
    client_rss_kb: u64,
    store_bytes: u64,
    untraced_wall_ns: u64,
    traced_wall_ns: u64,
    /// Set by workloads whose remainder is not "operation time no layer
    /// covers".
    unattributed_ns: Option<i64>,
}

impl Run {
    /// Count one output check as an attempted operation.
    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        *self.checks.entry(what.to_string()).or_default() += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(format!("output mismatch: {what}"));
        }
    }

    fn check_outputs(&mut self, what: &str, got: &Outputs, want: &Outputs) {
        self.check(
            &format!("{what}: suite metrics"),
            got.suite_json == want.suite_json,
        );
        self.check(
            &format!("{what}: section-4.4.csv"),
            got.sweep_csv == want.sweep_csv,
        );
        self.check(
            &format!("{what}: kernel savings"),
            got.kernel_json == want.kernel_json,
        );
        if got.figures.is_some() || want.figures.is_some() {
            self.check(
                &format!("{what}: figure-10.csv and figure-11.csv"),
                got.figures == want.figures,
            );
        }
    }

    /// With seed 42, compare against the committed `results/`.
    fn check_golden(&mut self, args: &Args, got: &Outputs) {
        if args.seed != 42 {
            return;
        }
        let read = |f: &str| fs::read_to_string(args.golden.join(f)).unwrap_or_default();
        self.check(
            "seed 42 vs results/suite-metrics.json (without cache_health)",
            without_health(&got.suite_json) == without_health(&read("suite-metrics.json")),
        );
        self.check(
            "seed 42 vs results/section-4.4.csv",
            got.sweep_csv == read("section-4.4.csv"),
        );
        self.check(
            "seed 42 vs results/kernel-savings.json",
            got.kernel_json == read("kernel-savings.json"),
        );
        if let Some(figures) = &got.figures {
            self.check(
                "seed 42 vs results/figure-10.csv and figure-11.csv",
                *figures == read("figure-10.csv") + &read("figure-11.csv"),
            );
        }
    }

    fn add_pass(&mut self, pass: &PassResult, cycles: u64) {
        self.walls_ns.push(pass.wall_ns);
        self.latency_ns.extend(&pass.job_ns);
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        if pass.failed > 0 {
            self.problems
                .push(format!("{} operations failed", pass.failed));
        }
        self.cycles += cycles;
    }

    fn measured_ns(&self) -> u64 {
        self.walls_ns.iter().sum()
    }

    /// Keep measuring until the run has lasted `seconds` and holds at
    /// least `samples` latency samples.
    fn done(&self, seconds: f64, samples: usize) -> bool {
        self.measured_ns() as f64 >= seconds * 1e9 && self.latency_ns.len() >= samples
    }

    /// The cycles a pass stepped or decoded, checking that the store
    /// holds every trace the count needs.
    fn work_cycles(
        &mut self,
        store: &Path,
        cfg: &ExperimentConfig,
        cold: bool,
        pass: &PassResult,
    ) -> u64 {
        let cycles = work_cycles(store, cfg, cold, pass);
        self.check("store holds every trace the pass used", cycles.is_some());
        cycles.unwrap_or(0)
    }

    fn finish_rss(&mut self) {
        self.peak_rss_kb = hwm_kb("/proc/self/status").unwrap_or(0);
    }
}

/// The latency samples in ms, ascending.
fn latency_ms(run: &Run) -> Vec<f64> {
    let mut lat: Vec<f64> = run.latency_ns.iter().map(|&n| n as f64 / 1e6).collect();
    lat.sort_by(f64::total_cmp);
    lat
}

fn pass<'a>(
    cfg: &'a ExperimentConfig,
    args: &Args,
    out: &'a Path,
    full: bool,
    traced: bool,
) -> Pass<'a> {
    Pass {
        cfg,
        full,
        traced,
        threads: args.threads,
        out_dir: out,
    }
}

fn suite_config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        seed,
        ..ExperimentConfig::standard()
    }
}

/// `cold_repro`: `repro all` from an empty store — suite with PLB,
/// sweep, kernels with the differential check.
fn cold_repro(args: &Args) -> Run {
    let dir = args.work.join("cold_repro");
    let (store, out, smoke) = (dir.join("store"), dir.join("out"), dir.join("smoke"));
    let cfg = suite_config(args.seed);
    let quick = ExperimentConfig {
        seed: args.seed,
        ..ExperimentConfig::quick()
    };
    let mut run = Run::default();
    // Set-up: a quick-length smoke pass into a scratch store, which
    // proves the build runs and loads code and data before timing.
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        let t = Instant::now();
        fresh_dir(&dir);
        fresh_dir(&out);
        pass(&quick, args, &out, false, false).run(&smoke);
        run.setup_ns.push(ns_since(t));
    }
    let cold = pass(&cfg, args, &out, true, false);
    if args.trace {
        fresh_dir(&store);
        let plain = cold.run(&store);
        run.check_golden(args, &plain.outputs);
        run.untraced_wall_ns = plain.wall_ns;
        fresh_dir(&store);
        ledger::reset();
        let traced = pass(&cfg, args, &out, true, true).run(&store);
        run.traced_wall_ns = traced.wall_ns;
        run.check_outputs("traced vs untraced", &traced.outputs, &plain.outputs);
        run.add_pass(&traced, 0);
        return run;
    }
    run.hwm_reset = reset_hwm();
    let mut first: Option<(Outputs, u64)> = None;
    while !run.done(args.seconds, MIN_PASSES) {
        fresh_dir(&store);
        let p = cold.run(&store);
        let cycles = match &first {
            Some((want, cycles)) => {
                run.check_outputs("cold pass vs first cold pass", &p.outputs, want);
                *cycles
            }
            None => {
                run.check_golden(args, &p.outputs);
                let cycles = run.work_cycles(&store, &cfg, true, &p);
                first = Some((p.outputs.clone(), cycles));
                cycles
            }
        };
        run.add_pass(&p, cycles);
    }
    run.finish_rss();
    run.store_bytes = dir_bytes(&store);
    // The store this run recorded must replay to the same documents. A
    // warm pass runs no PLB, so figures 10 and 11 are not compared here.
    let warm = pass(&cfg, args, &out, false, false).run(&store);
    let want = first.expect("at least one pass").0;
    run.check_outputs(
        "warm replay of the cold store vs cold pass",
        &warm.outputs,
        &Outputs {
            figures: None,
            ..want
        },
    );
    let _ = fs::remove_dir_all(&dir);
    run
}

/// `warm_replay`: the passive suite, sweep and kernels against a store
/// filled during set-up, opened afresh by each entry point of each pass.
fn warm_replay(args: &Args) -> Run {
    let dir = args.work.join("warm_replay");
    let (store, out) = (dir.join("store"), dir.join("out"));
    let cfg = suite_config(args.seed);
    let warm = pass(&cfg, args, &out, false, false);
    let mut run = Run::default();
    let mut reference: Option<Outputs> = None;
    // Set-up: fill an empty store with a cold pass of the same work.
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        let t = Instant::now();
        fresh_dir(&dir);
        fresh_dir(&out);
        let fill = warm.run(&store);
        run.setup_ns.push(ns_since(t));
        match &reference {
            Some(want) => run.check_outputs("set-up fill vs first fill", &fill.outputs, want),
            None => {
                run.check_golden(args, &fill.outputs);
                reference = Some(fill.outputs);
            }
        }
    }
    let reference = reference.expect("at least one set-up");
    if args.trace {
        let plain = warm.run(&store);
        run.check_outputs(
            "untraced warm pass vs cold fill",
            &plain.outputs,
            &reference,
        );
        run.untraced_wall_ns = plain.wall_ns;
        ledger::reset();
        let traced = pass(&cfg, args, &out, false, true).run(&store);
        run.traced_wall_ns = traced.wall_ns;
        run.check_outputs("traced warm pass vs cold fill", &traced.outputs, &reference);
        run.add_pass(&traced, 0);
        return run;
    }
    // One unmeasured pass first, so timing starts with the store mapped
    // and the replay path's code and data warm.
    let p = warm.run(&store);
    run.check_outputs("warm-up pass vs cold fill", &p.outputs, &reference);
    run.hwm_reset = reset_hwm();
    let mut cycles = None;
    while !run.done(args.seconds, MIN_PASSES) {
        let p = warm.run(&store);
        run.check_outputs("warm pass vs cold fill", &p.outputs, &reference);
        let c = match cycles {
            Some(c) => c,
            None => *cycles.insert(run.work_cycles(&store, &cfg, false, &p)),
        };
        run.add_pass(&p, c);
    }
    run.finish_rss();
    run.store_bytes = dir_bytes(&store);
    let _ = fs::remove_dir_all(&dir);
    run
}

/// `server_jobs`: closed-loop clients submitting replay jobs to a
/// `dcg-server` process over its Unix socket.
fn server_jobs(args: &Args) -> Result<Run, String> {
    let dir = args.work.join("server_jobs");
    let specs = serve::specs(args.seed);
    let rig = serve::Rig {
        bin: args.server_bin.clone(),
        state: dir.join("state"),
        log: dir.join("server.log"),
        threads: args.threads,
    };
    fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut run = Run::default();
    // Set-up: record every job's trace into a fresh server state.
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        let t = Instant::now();
        rig.setup(&specs)
            .map_err(|e| format!("server set-up: {e}"))?;
        run.setup_ns.push(ns_since(t));
    }
    let expected = rig.expected(&specs);
    let round_cycles: u64 = expected.iter().map(|(_, c)| c).sum();
    let round = |run: &mut Run, probe: bool| -> Result<(), String> {
        let mut server = rig.start().map_err(|e| e.to_string())?;
        if probe {
            server.probe_rtt(20);
        }
        let r = server.round(&specs, &expected, args.threads, args.seed);
        run.server_rss_kb = run.server_rss_kb.max(server.stop());
        rig.wipe_jobs();
        run.walls_ns.push(r.wall_ns);
        run.latency_ns.extend(&r.latency_ns);
        run.attempted += r.attempted;
        run.failed += r.failed;
        run.problems.extend(r.mismatches);
        run.cycles += round_cycles;
        *run.checks
            .entry("server document vs direct run_job".into())
            .or_default() += specs.len() as u64;
        Ok(())
    };
    if args.trace {
        round(&mut run, false)?;
        run.untraced_wall_ns = run.walls_ns[0];
        let untraced_jobs = run.latency_ns.len();
        ledger::reset();
        round(&mut run, true)?;
        run.traced_wall_ns = run.walls_ns[1];
        // Time the job bodies again, now into the traced ledger.
        rig.expected(&specs);
        rig.probe_layers(&specs, &dir);
        // Waiting for a result that the job body does not explain:
        // queueing, poll round trips and the commit.
        let jobs = (run.latency_ns.len() - untraced_jobs) as i64;
        let body = (get(C::JobBodyNs) / get(C::JobBodies).max(1)) as i64;
        run.unattributed_ns = Some(get(C::ResultWaitNs) as i64 - body * jobs);
        ledger::add(C::Ops, jobs as u64);
        return Ok(run);
    }
    run.hwm_reset = reset_hwm();
    while !run.done(args.seconds, samples_for(TAIL)) {
        round(&mut run, false)?;
    }
    // The server process is the system under test; the client's own
    // peak stays in the report.
    run.client_rss_kb = hwm_kb("/proc/self/status").unwrap_or(0);
    run.peak_rss_kb = run.server_rss_kb;
    run.store_bytes = dir_bytes(&rig.state.join("traces"));
    let _ = fs::remove_dir_all(&rig.state);
    Ok(run)
}

/// A metric as `(name, value, unit)`.
type Metric = (String, f64, &'static str);

fn end_to_end(run: &Run) -> Vec<Metric> {
    let secs = |ns: u64| ns as f64 / 1e9;
    let measured = secs(run.measured_ns());
    let lat = latency_ms(run);
    let m = |v: &[u64]| median(&v.iter().map(|&n| secs(n)).collect::<Vec<_>>()).unwrap_or(0.0);
    vec![
        ("setup_s".into(), m(&run.setup_ns), "s"),
        ("wall_s".into(), m(&run.walls_ns), "s"),
        ("cycles_per_s".into(), run.cycles as f64 / measured, "1/s"),
        (
            "job_latency_p50_ms".into(),
            nearest_rank(&lat, 50.0).unwrap_or(0.0),
            "ms",
        ),
        (
            "job_latency_p95_ms".into(),
            nearest_rank(&lat, tail(lat.len())).unwrap_or(0.0),
            "ms",
        ),
        ("jobs_per_s".into(), lat.len() as f64 / measured, "1/s"),
        ("peak_rss_mb".into(), run.peak_rss_kb as f64 / 1024.0, "MiB"),
        ("trace_store_mb".into(), run.store_bytes as f64 / 1e6, "MB"),
    ]
}

fn per_layer(run: &Run) -> Vec<Metric> {
    let g = |c: C| get(c) as f64;
    let ns = "ns";
    let n = "count";
    let leaves = [
        C::LiveNs,
        C::EncodeNs,
        C::DecodeNs,
        C::IndexNs,
        C::InsertNs,
        C::FetchNs,
        C::BaselineNs,
        C::DcgNs,
        C::MetricsSinkNs,
        C::PlbNs,
        C::OracleNs,
        C::AssembleNs,
        C::DiffNs,
    ];
    let unattributed = run.unattributed_ns.unwrap_or_else(|| {
        get(C::OpsNs) as i64 - leaves.iter().map(|&c| get(c) as i64).sum::<i64>()
    });
    let hits = get(C::Hits);
    let lookups = hits + get(C::Misses);
    let jobs = get(C::JobBodies).max(1);
    let m = |name: &str, v: f64, unit: &'static str| (name.to_string(), v, unit);
    vec![
        m("workloads.gen_ns", g(C::GenNs), ns),
        m("workloads.insts", g(C::GenInsts), n),
        m("sim.step_ns", g(C::LiveNs) - g(C::GenNs), ns),
        m("sim.cycles", g(C::LiveCycles), n),
        m("trace.encode_ns", g(C::EncodeNs), ns),
        m("trace.encoded_bytes", g(C::EncodedBytes), "bytes"),
        m("trace.decode_ns", g(C::DecodeNs), ns),
        m("trace.decoded_bytes", g(C::DecodedBytes), "bytes"),
        m("trace.replayed_cycles", g(C::ReplayedCycles), n),
        m("trace.index_ns", g(C::IndexNs), ns),
        m("trace.index_queries", g(C::IndexQueries), n),
        m("store.insert_ns", g(C::InsertNs), ns),
        m("store.inserts", g(C::Inserts), n),
        m("store.insert_bytes", g(C::InsertBytes), "bytes"),
        m("store.open_ns", g(C::OpenNs), ns),
        m("store.opens", g(C::Opens), n),
        m("store.fetch_ns", g(C::FetchNs), ns),
        m("store.hits", g(C::Hits), n),
        m("store.misses", g(C::Misses), n),
        m(
            "store.hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
            "ratio",
        ),
        m("core.baseline_ns", g(C::BaselineNs), ns),
        m("core.dcg_ns", g(C::DcgNs), ns),
        m("core.metrics_sink_ns", g(C::MetricsSinkNs), ns),
        m("core.plb_ns", g(C::PlbNs), ns),
        m("core.plb_runs", g(C::PlbRuns), n),
        m("core.oracle_ns", g(C::OracleNs), ns),
        m("core.oracle_runs", g(C::OracleRuns), n),
        m("emu.assemble_ns", g(C::AssembleNs), ns),
        m("emu.diff_ns", g(C::DiffNs), ns),
        m("emu.insts", g(C::EmuInsts), n),
        m("experiments.json_ns", g(C::JsonNs), ns),
        m("experiments.json_bytes", g(C::JsonBytes), "bytes"),
        m("server.rtt_ns", g(C::RttNs) / g(C::Pings).max(1.0), ns),
        m("server.pings", g(C::Pings), n),
        m("server.frame_ns", g(C::FrameNs), ns),
        m("server.frames", g(C::Frames), n),
        m("server.submit_ns", g(C::SubmitNs), ns),
        m("server.submits", g(C::Submits), n),
        m("server.wal_append_ns", g(C::WalNs), ns),
        m("server.wal_appends", g(C::WalAppends), n),
        m("server.result_wait_ns", g(C::ResultWaitNs), ns),
        m(
            "server.polls_per_job",
            if get(C::JobBodies) == 0 {
                0.0
            } else {
                g(C::Polls) / jobs as f64
            },
            "count",
        ),
        m("server.job_body_ns", g(C::JobBodyNs), ns),
        m("server.job_bodies", g(C::JobBodies), n),
        m("server.busy", g(C::Busy), n),
        m("server.retries", g(C::Retries), n),
        m("server.failed", g(C::Failed), n),
        m("store.replay_failures", g(C::ReplayFailures), n),
        m("store.readonly_skips", g(C::ReadonlySkips), n),
        m("bench.ops", g(C::Ops), n),
        m("bench.untraced_wall_ns", run.untraced_wall_ns as f64, ns),
        m("bench.traced_wall_ns", run.traced_wall_ns as f64, ns),
        m(
            "bench.trace_overhead_ns",
            run.traced_wall_ns as f64 - run.untraced_wall_ns as f64,
            ns,
        ),
        m("bench.unattributed_ns", unattributed as f64, ns),
        m(
            "bench.op_failure_ratio",
            stats::failure_ratio(run.failed, run.attempted).unwrap_or(1.0),
            "ratio",
        ),
    ]
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|(name, v, unit)| {
        (
            name.clone(),
            Json::obj([("value", Json::f64(*v)), ("unit", Json::str(*unit))]),
        )
    }))
}

fn report(args: &Args, run: &Run, metrics: &[Metric]) -> Json {
    let secs = |v: &[u64]| Json::arr(v.iter().map(|&n| Json::f64(n as f64 / 1e9)).collect());
    let lat = latency_ms(run);
    let n = lat.len();
    Json::obj([
        ("workload", Json::str(&args.workload)),
        ("seed", Json::u64(args.seed)),
        ("seconds", Json::f64(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("threads", Json::u64(args.threads as u64)),
        ("setup_s", secs(&run.setup_ns)),
        ("pass_wall_s", secs(&run.walls_ns)),
        (
            "latency_samples",
            Json::obj([
                ("count", Json::u64(n as u64)),
                ("unit", Json::str(sample_unit(args))),
                (
                    "quantiles_ms",
                    Json::obj([10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0].map(|p| {
                        (format!("p{p}"), nearest_rank(&lat, p).map_or(Json::Null, Json::f64))
                    })),
                ),
                ("p50_beyond", Json::u64(beyond(n, 50.0) as u64)),
                ("tail_percentile", Json::f64(tail(n))),
                ("tail_beyond", Json::u64(beyond(n, tail(n)) as u64)),
            ]),
        ),
        (
            "op_failure_ratio",
            Json::obj([
                ("failed", Json::u64(run.failed)),
                ("attempted", Json::u64(run.attempted)),
                (
                    "base",
                    Json::str("every operation, refused submit and output check the run attempted"),
                ),
                (
                    "ratio",
                    stats::failure_ratio(run.failed, run.attempted).map_or(Json::Null, Json::f64),
                ),
            ]),
        ),
        (
            "peak_rss_kib",
            Json::obj([
                ("reported", Json::u64(run.peak_rss_kb)),
                ("server", Json::u64(run.server_rss_kb)),
                ("client", Json::u64(run.client_rss_kb)),
                ("reset_before_measuring", Json::Bool(run.hwm_reset)),
            ]),
        ),
        (
            "checks",
            Json::obj(run.checks.iter().map(|(k, n)| (k.clone(), Json::u64(*n)))),
        ),
        (
            "problems",
            Json::arr(run.problems.iter().map(Json::str).collect()),
        ),
        (
            "sample_every_per_cycle_call",
            Json::u64(ledger::SAMPLE_EVERY),
        ),
        ("metrics", metrics_json(metrics)),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "cold_repro" => Ok(cold_repro(&args)),
        "warm_replay" => Ok(warm_replay(&args)),
        _ => server_jobs(&args),
    };
    let run = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = if args.trace {
        per_layer(&run)
    } else {
        end_to_end(&run)
    };
    let correct = run.problems.is_empty();
    println!("{}", report(&args, &run, &metrics));
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::u64(run.attempted.max(1))),
            ("failed", Json::u64(run.failed)),
            ("metrics", metrics_json(&metrics)),
        ])
    );
    for p in &run.problems {
        eprintln!("perfbench: {p}");
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
