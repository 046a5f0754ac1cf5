//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--quick] [--seeds N] [--chart] [--svg] [--json] [--out DIR] <experiment>...
//!
//! experiments:
//!   fig10 fig11 fig12 fig13 fig14 fig15 fig16 fig17
//!   alu-sweep utilization workload-stats phase-analysis summary all
//!   metrics  (cycle-level metrics JSON + utilization-over-time SVGs)
//!   faults   (seeded fault-injection campaign; replay with DCG_FAULT_SEED)
//!   kernels  (real-program kernel suite: differential check + savings JSON)
//!   config   (print the Table-1 machine configuration)
//!
//! extension studies (one table each, not part of `all`):
//!   oracle-comparison wattch-styles width-scaling seed-sensitivity
//!   plb-tuning-sensitivity ablation-fu-policy ablation-store-policy
//!   ablation-iq-gating ablation-leakage ablation-prefetch ablation-predictor
//!
//! server mode (see DESIGN.md §16):
//!   repro serve  [--state DIR] [--socket PATH] [--workers N] [--queue N]
//!                [--retries N] [--drain]
//!   repro submit [--socket PATH] [--quick] [--no-wait] <job>...
//!     jobs: simulate:<bench>[:seed]  replay:<bench>[:seed]
//!           metrics[:seed]           faults[:count[:seed]]
//! ```
//!
//! `--quick` runs a reduced benchmark set with short windows (smoke test);
//! the default runs the full 18-benchmark suite at standard length.
//! Tables are printed and written as CSV under `--out` (default
//! `results/`).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use dcg_server::{run_daemon, DcgClient, JobSpec};

use dcg_experiments::{
    alu_sweep, fault_campaign_json, fault_seed_from_env, fig10, fig11, fig12, fig13, fig14, fig15,
    fig16, fig17, phase_analysis, suite_metrics_json, summary, utilization, workload_stats,
    write_svg, write_utilization_svg, ExperimentConfig, FaultCampaign, FigureTable, Suite,
    FAULT_SEED_ENV, STUDIES,
};

const USAGE: &str = "\
usage: repro [--quick] [--seeds N] [--chart] [--svg] [--json] [--out DIR] <fig10|...|fig17|alu-sweep|utilization|metrics|faults|kernels|workload-stats|phase-analysis|summary|config|all|STUDY>...
       studies: oracle-comparison wattch-styles width-scaling seed-sensitivity
                plb-tuning-sensitivity ablation-fu-policy ablation-store-policy
                ablation-iq-gating ablation-leakage ablation-prefetch ablation-predictor
       repro serve [--state DIR] [--socket PATH] [--workers N] [--queue N] [--retries N] [--drain]
       repro submit [--socket PATH] [--quick] [--no-wait] <job>...";

/// Faults injected by `repro faults` (one full round over every
/// injection point per 9, so 32 covers each point at least three times).
const CAMPAIGN_FAULTS: u32 = 32;

fn main() -> ExitCode {
    // Server-mode subcommands take over the whole argument list.
    {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match args.first().map(String::as_str) {
            Some("serve") => return run_daemon("repro serve", &args[1..]),
            Some("submit") => return cmd_submit(&args[1..]),
            _ => {}
        }
    }
    let mut quick = false;
    let mut chart = false;
    let mut svg = false;
    let mut json = false;
    let mut seeds: u64 = 1;
    let mut out_dir = PathBuf::from("results");
    let mut wanted: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--chart" => chart = true,
            "--svg" => svg = true,
            "--json" => json = true,
            "--seeds" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => seeds = n,
                _ => {
                    eprintln!("--seeds requires a positive integer\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match args.next() {
                Some(d) => out_dir = PathBuf::from(d),
                None => {
                    eprintln!("--out requires a directory\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}\n{USAGE}");
                return ExitCode::FAILURE;
            }
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    if wanted.iter().any(|w| w == "config") {
        print_config();
        wanted.retain(|w| w != "config");
        if wanted.is_empty() {
            return ExitCode::SUCCESS;
        }
    }
    if wanted.iter().any(|w| w == "all") {
        wanted = [
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "alu-sweep",
            "utilization",
            "metrics",
            "kernels",
            "workload-stats",
            "phase-analysis",
            "summary",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    let cfg = if quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::standard()
    };

    // Every experiment that reads a suite shares one run per depth:
    // figures 10-16, utilization and metrics read one 8-stage suite per
    // seed, figure 17 and the summary the base seed's, and those two also
    // the one 20-stage suite.
    let wants = |ids: &[&str]| wanted.iter().any(|w| ids.contains(&w.as_str()));
    let per_seed = wants(&[
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "fig16",
        "utilization",
        "metrics",
    ]);
    let needs_deep = wants(&["fig17", "summary"]);
    let needs_plb = wants(&[
        "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "summary",
    ]);
    let suite_count = if per_seed {
        seeds
    } else {
        u64::from(needs_deep)
    };
    let suites: Vec<Suite> = (0..suite_count)
        .map(|k| {
            let mut c = cfg.clone();
            c.seed = cfg.seed + k;
            eprintln!(
                "running suite (seed {}): {} benchmarks{}...",
                c.seed,
                c.benchmarks.len(),
                if needs_plb { " (with PLB runs)" } else { "" }
            );
            Suite::run(&c, needs_plb)
        })
        .collect();
    let suite20 = needs_deep.then(|| {
        eprintln!(
            "running 20-stage suite: {} benchmarks...",
            cfg.benchmarks.len()
        );
        Suite::run(&cfg.deep_pipeline(), false)
    });
    let deep = || {
        suite20
            .as_ref()
            .expect("fig17 and summary run the 20-stage suite")
    };
    let averaged = |f: &dyn Fn(&Suite) -> FigureTable| -> FigureTable {
        let tables: Vec<FigureTable> = suites.iter().map(f).collect();
        FigureTable::average(&tables)
    };

    let mut failures = 0;
    for w in &wanted {
        if w == "faults" {
            // Not a figure table either: run the seeded fault-injection
            // campaign and write its classification document.
            let seed = fault_seed_from_env();
            eprintln!(
                "running fault campaign: {CAMPAIGN_FAULTS} faults, seed {seed:#x} \
                 (replay with {FAULT_SEED_ENV}={seed})"
            );
            let campaign = FaultCampaign::run(seed, CAMPAIGN_FAULTS);
            let path = out_dir.join("fault-campaign.json");
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            match std::fs::write(&path, format!("{}\n", fault_campaign_json(&campaign))) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!("failed to write {}: {e}", path.display());
                    failures += 1;
                }
            }
            for o in &campaign.outcomes {
                println!(
                    "fault {:>3}  {:<20} {:<10} {}",
                    o.spec.id,
                    o.spec.point.label(),
                    o.class.label(),
                    o.detail
                );
            }
            if !campaign.all_classified() {
                eprintln!("fault campaign: undetected faults — safety net failed");
                failures += 1;
            }
            continue;
        }
        if w == "kernels" {
            // Not a figure table: assemble the checked-in kernels, prove
            // the pipeline retires exactly the emulator's committed
            // stream, then measure gating savings on real programs.
            let sim = &cfg.sim;
            let cache = dcg_core::TraceCache::from_env();
            eprintln!("running kernel suite: differential check + savings table...");
            let mut diverged = false;
            for k in dcg_workloads::Kernel::all() {
                let program = k.assemble();
                match dcg_experiments::differential_check(sim, &program, &program) {
                    Ok(n) => eprintln!("  {:<12} differential ok over {n} instructions", k.name),
                    Err(d) => {
                        eprintln!("  {d}");
                        diverged = true;
                    }
                }
            }
            if diverged {
                eprintln!("kernel differential check FAILED");
                failures += 1;
                continue;
            }
            let runs = dcg_experiments::run_kernels(sim, cache.as_ref());
            println!(
                "{:<12} {:>10} {:>10} {:>8} {:>12} {:>12} {:>12}",
                "kernel", "cycles", "committed", "ipc", "dcg", "plb-ext", "oracle"
            );
            for r in &runs {
                println!(
                    "{:<12} {:>10} {:>10} {:>8.3} {:>11.1}% {:>11.1}% {:>11.1}%",
                    r.name,
                    r.stats.cycles,
                    r.stats.committed,
                    r.stats.ipc(),
                    100.0 * r.dcg_saving(),
                    100.0 * r.plb_ext_saving(),
                    100.0 * r.oracle_saving(),
                );
            }
            let path = out_dir.join("kernel-savings.json");
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            match std::fs::write(
                &path,
                format!("{}\n", dcg_experiments::kernel_savings_json(&runs)),
            ) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!("failed to write {}: {e}", path.display());
                    failures += 1;
                }
            }
            continue;
        }
        if w == "metrics" {
            // Not a figure table: write the cycle-level metrics document
            // and one utilization-over-time SVG per benchmark.
            let s = suites.first().expect("metrics requires a suite run");
            let path = out_dir.join("suite-metrics.json");
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            match std::fs::write(&path, format!("{}\n", suite_metrics_json(s))) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!("failed to write {}: {e}", path.display());
                    failures += 1;
                }
            }
            for run in &s.runs {
                let path = out_dir.join(format!("utilization-{}.svg", run.profile.name));
                match write_utilization_svg(run.profile.name, &run.metrics, &path) {
                    Ok(()) => eprintln!("wrote {}", path.display()),
                    Err(e) => {
                        eprintln!("failed to write {}: {e}", path.display());
                        failures += 1;
                    }
                }
            }
            continue;
        }
        let table: FigureTable = match w.as_str() {
            "fig10" => averaged(&fig10),
            "fig11" => averaged(&fig11),
            "fig12" => averaged(&fig12),
            "fig13" => averaged(&fig13),
            "fig14" => averaged(&fig14),
            "fig15" => averaged(&fig15),
            "fig16" => averaged(&fig16),
            "fig17" => fig17(&suites[0], deep()),
            "alu-sweep" => alu_sweep(&cfg),
            "utilization" => averaged(&|s: &Suite| utilization(s, &cfg.sim)),
            "workload-stats" => workload_stats(&cfg, 200_000),
            "phase-analysis" => phase_analysis(&cfg),
            "summary" => summary(&suites[0], deep()),
            other => match STUDIES.iter().find(|(id, _)| *id == other) {
                Some((_, study)) => study(&cfg),
                None => {
                    eprintln!("unknown experiment {other}\n{USAGE}");
                    failures += 1;
                    continue;
                }
            },
        };
        println!("{table}");
        if chart {
            if let Some(bars) = table.columns.first().and_then(|c| table.render_bars(c, 40)) {
                println!("{bars}");
            }
        }
        let path = out_dir.join(format!("{}.csv", table.id));
        match table.write_csv(&path) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                failures += 1;
            }
        }
        if svg {
            let path = out_dir.join(format!("{}.svg", table.id));
            match write_svg(&table, &path) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!("failed to write {}: {e}", path.display());
                    failures += 1;
                }
            }
        }
        if json {
            let path = out_dir.join(format!("{}.json", table.id));
            match table.write_json(&path) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!("failed to write {}: {e}", path.display());
                    failures += 1;
                }
            }
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `repro submit`: submit jobs to a running daemon and (by default)
/// wait for and print each result document.
fn cmd_submit(args: &[String]) -> ExitCode {
    let mut socket = PathBuf::from("results/server/dcg.sock");
    let mut quick = false;
    let mut wait = true;
    let mut specs: Vec<JobSpec> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => match it.next() {
                Some(p) => socket = PathBuf::from(p),
                None => return submit_usage("--socket requires a path"),
            },
            "--quick" => quick = true,
            "--no-wait" => wait = false,
            other if other.starts_with('-') => {
                return submit_usage(&format!("unknown flag {other}"))
            }
            job => match parse_job(job, quick) {
                Some(spec) => specs.push(spec),
                None => return submit_usage(&format!("bad job spec '{job}'")),
            },
        }
    }
    if specs.is_empty() {
        return submit_usage("no jobs given");
    }
    let client = DcgClient::new(&socket);
    let deadline = Duration::from_secs(1800);
    let mut failures = 0;
    for spec in &specs {
        if wait {
            match client.submit_and_wait(spec, deadline) {
                Ok((id, json)) => {
                    eprintln!("job {id:016x} ({}) done", spec.label());
                    print!("{}", String::from_utf8_lossy(&json));
                }
                Err(e) => {
                    eprintln!("repro submit: {} failed: {e}", spec.label());
                    failures += 1;
                }
            }
        } else {
            match client.submit(spec, deadline) {
                Ok((id, deduped)) => eprintln!(
                    "job {id:016x} ({}) submitted{}",
                    spec.label(),
                    if deduped { " (deduped)" } else { "" }
                ),
                Err(e) => {
                    eprintln!("repro submit: {} failed: {e}", spec.label());
                    failures += 1;
                }
            }
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn submit_usage(msg: &str) -> ExitCode {
    eprintln!(
        "{msg}\nusage: repro submit [--socket PATH] [--quick] [--no-wait] <job>...\n\
         jobs: simulate:<bench>[:seed]  replay:<bench>[:seed]  metrics[:seed]  faults[:count[:seed]]"
    );
    ExitCode::from(2)
}

/// Parse a `kind[:arg[:arg]]` job spec.
fn parse_job(text: &str, quick: bool) -> Option<JobSpec> {
    let mut parts = text.split(':');
    let kind = parts.next()?;
    let rest: Vec<&str> = parts.collect();
    let seed_at = |i: usize| -> Option<u64> {
        match rest.get(i) {
            Some(s) => s.parse().ok(),
            None => Some(42),
        }
    };
    match kind {
        "simulate" | "replay" => {
            let bench = (*rest.first()?).to_string();
            let seed = seed_at(1)?;
            if rest.len() > 2 {
                return None;
            }
            Some(if kind == "simulate" {
                JobSpec::Simulate { bench, seed, quick }
            } else {
                JobSpec::Replay { bench, seed, quick }
            })
        }
        "metrics" => {
            if rest.len() > 1 {
                return None;
            }
            Some(JobSpec::Metrics {
                seed: seed_at(0)?,
                quick,
            })
        }
        "faults" => {
            if rest.len() > 2 {
                return None;
            }
            let count = match rest.first() {
                Some(s) => s.parse().ok()?,
                None => 32,
            };
            Some(JobSpec::Faults {
                seed: seed_at(1)?,
                count,
            })
        }
        _ => None,
    }
}

/// Print the Table-1 baseline machine (paper §4.1).
fn print_config() {
    let cfg = dcg_sim::SimConfig::baseline_8wide();
    println!("Table 1 — baseline processor configuration");
    println!(
        "  processor : {}-way issue, {}-entry window, {}-entry load/store queue",
        cfg.issue_width, cfg.rob_entries, cfg.lsq_entries
    );
    println!(
        "  exec units: {} int ALUs, {} int mul/div, {} FP ALUs, {} FP mul/div, {} cache ports",
        cfg.int_alus, cfg.int_muldivs, cfg.fp_alus, cfg.fp_muldivs, cfg.mem_ports
    );
    println!(
        "  bpred     : 2-level, {}-entry PHT, {}-bit history, {}-entry {}-way BTB, {}-entry RAS",
        cfg.bpred.pht_entries,
        cfg.bpred.history_bits,
        cfg.bpred.btb_entries,
        cfg.bpred.btb_ways,
        cfg.bpred.ras_entries
    );
    println!(
        "  caches    : {} KB {}-way {}-cycle I/D L1, {} MB {}-way {}-cycle L2, LRU",
        cfg.icache.size_bytes >> 10,
        cfg.icache.ways,
        cfg.icache.latency,
        cfg.l2.size_bytes >> 20,
        cfg.l2.ways,
        cfg.l2.latency
    );
    println!(
        "  memory    : infinite capacity, {}-cycle latency",
        cfg.mem_latency
    );
    println!(
        "  pipeline  : {} stages ({} gateable latch groups)",
        cfg.depth.total(),
        dcg_sim::LatchGroups::new(&cfg.depth).gated_count()
    );
}
