//! Run a named bench harness outside the `cargo bench` profile, emitting
//! its machine-readable JSON under `crates/bench/results/`.
//!
//! ```text
//! cargo run --release -p dcg-bench --bin bench_runner -- sim_throughput
//! cargo run --release -p dcg-bench --bin bench_runner -- fig10_total_power
//! cargo run --release -p dcg-bench --bin bench_runner -- alu_sweep_cache
//! cargo run --release -p dcg-bench --bin bench_runner -- --faults 32
//! ```
//!
//! `bench_runner --metrics-json` runs the suite once and writes the
//! cycle-level observability document (per-component utilization
//! histograms, windowed time series, gating audit trail) plus one
//! utilization-over-time SVG per benchmark.
//!
//! `bench_runner --faults N` runs the seeded fault-injection campaign
//! (replay a reported campaign with `DCG_FAULT_SEED`); it exits non-zero
//! if any fault goes undetected.
//!
//! Any benchmark lost to a panic inside a suite run is printed and turns
//! the exit code non-zero — a partially-failed suite never looks green.
//!
//! `DCG_BENCH_QUICK=1` shrinks the figure suites; `DCG_BENCH_SAMPLES` /
//! `DCG_BENCH_WARMUP` tune the micro-bench harness.

use std::process::ExitCode;

const KNOWN: &[&str] = &[
    "sim_throughput",
    "fig10_total_power",
    "alu_sweep_cache",
    "kernel_stream",
    "--metrics-json",
    "--faults N",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|n| n == "--help" || n == "-h") {
        eprintln!(
            "usage: bench_runner <name>...\nknown names: {}",
            KNOWN.join(", ")
        );
        return ExitCode::from(2);
    }
    let mut failures = 0usize;
    let mut args = args.into_iter();
    while let Some(name) = args.next() {
        match name.as_str() {
            "sim_throughput" => {
                let path = dcg_bench::run_sim_throughput().expect("write bench JSON");
                eprintln!("wrote {}", path.display());
            }
            "fig10_total_power" => failures += dcg_bench::run_fig10_total_power(),
            "alu_sweep_cache" => {
                let path = dcg_bench::run_alu_sweep_cache().expect("write bench JSON");
                eprintln!("wrote {}", path.display());
            }
            "kernel_stream" => {
                let path = dcg_bench::run_kernel_stream().expect("write bench JSON");
                eprintln!("wrote {}", path.display());
            }
            "--metrics-json" => {
                let (path, lost) = dcg_bench::run_suite_metrics().expect("write metrics JSON");
                eprintln!("wrote {}", path.display());
                failures += lost;
            }
            "--faults" => {
                let n = match args.next().and_then(|s| s.parse::<u32>().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => {
                        eprintln!("--faults requires a positive fault count");
                        return ExitCode::from(2);
                    }
                };
                let (path, all_classified) =
                    dcg_bench::run_fault_campaign(n).expect("write campaign JSON");
                eprintln!("wrote {}", path.display());
                if !all_classified {
                    eprintln!("fault campaign: undetected faults — safety net failed");
                    failures += 1;
                }
            }
            other => {
                eprintln!("unknown bench '{other}'; known names: {}", KNOWN.join(", "));
                return ExitCode::FAILURE;
            }
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("bench_runner: {failures} failure(s)");
        ExitCode::FAILURE
    }
}
