//! Reproductions of every figure in the paper's evaluation (§5).
//!
//! Each function regenerates the rows/series of one figure as a
//! [`FigureTable`], with the paper's reported values attached as notes so
//! EXPERIMENTS.md can record paper-vs-measured side by side.

use dcg_power::Component;
use dcg_workloads::SuiteKind;

use crate::suite::{BenchmarkRun, Suite};
use crate::table::FigureTable;
use dcg_core::PlbVariant;

fn pct(x: f64) -> f64 {
    100.0 * x
}

fn per_benchmark_table(
    id: &str,
    title: &str,
    columns: &[&str],
    suite: &Suite,
    f: impl Fn(&BenchmarkRun) -> Vec<f64>,
) -> FigureTable {
    let mut t = FigureTable::new(id, title, columns.iter().map(|c| c.to_string()).collect());
    for run in &suite.runs {
        t.push_row(run.profile.name, f(run));
    }
    for (label, kind) in [("int-avg", SuiteKind::Int), ("fp-avg", SuiteKind::Fp)] {
        let n = suite.of_kind(kind).count();
        if n == 0 {
            continue;
        }
        let width = columns.len();
        let mut avgs = vec![0.0; width];
        for run in suite.of_kind(kind) {
            for (a, v) in avgs.iter_mut().zip(f(run)) {
                *a += v / n as f64;
            }
        }
        t.push_row(label, avgs);
    }
    t
}

/// Figure 10: total power savings (percent of total processor power) for
/// DCG, PLB-orig and PLB-ext, per benchmark.
pub fn fig10(suite: &Suite) -> FigureTable {
    let mut t = per_benchmark_table(
        "figure-10",
        "Total power savings (% of base-case processor power)",
        &["dcg", "plb-orig", "plb-ext"],
        suite,
        |r| {
            vec![
                pct(r.dcg_total_saving()),
                pct(r.plb_total_saving(PlbVariant::Orig)),
                pct(r.plb_total_saving(PlbVariant::Ext)),
            ]
        },
    );
    t.note("paper: DCG avg 20.9 % (int) / 18.8 % (fp); PLB-orig 6.3 / 4.9; PLB-ext 11.0 / 8.7");
    t.note("paper: mcf and lucas show the highest DCG savings (stall-heavy)");
    t
}

/// Figure 11: power-delay savings. DCG's equals its power saving (no
/// performance loss); PLB's is reduced by its slowdown.
pub fn fig11(suite: &Suite) -> FigureTable {
    let mut t = per_benchmark_table(
        "figure-11",
        "Power-delay savings (% of base-case power-delay)",
        &["dcg", "plb-orig", "plb-ext", "plb-relperf"],
        suite,
        |r| {
            vec![
                pct(r.dcg_power_delay_saving()),
                pct(r.plb_power_delay_saving(PlbVariant::Orig)),
                pct(r.plb_power_delay_saving(PlbVariant::Ext)),
                pct(r.plb_relative_performance(PlbVariant::Orig)),
            ]
        },
    );
    t.note("paper: DCG power-delay = its power saving; PLB-orig 3.5 / 2.0 %, PLB-ext 8.3 / 5.9 %");
    t.note("paper: PLB suffers 2.9 % performance loss (relperf ~97.1 %)");
    t
}

/// Figure 12: integer execution-unit power savings, DCG vs PLB-ext.
pub fn fig12(suite: &Suite) -> FigureTable {
    let mut t = per_benchmark_table(
        "figure-12",
        "Integer-unit power savings (% of integer-unit power)",
        &["dcg", "plb-ext"],
        suite,
        |r| {
            vec![
                pct(r.dcg_component_saving(Component::IntUnits)),
                pct(r.plb_component_saving(PlbVariant::Ext, Component::IntUnits)),
            ]
        },
    );
    t.note("paper: DCG ~72.0 % average; PLB-ext 29.6 %");
    t
}

/// Figure 13: FP execution-unit power savings, DCG vs PLB-ext.
pub fn fig13(suite: &Suite) -> FigureTable {
    let mut t = per_benchmark_table(
        "figure-13",
        "FP-unit power savings (% of FP-unit power)",
        &["dcg", "plb-ext"],
        suite,
        |r| {
            vec![
                pct(r.dcg_component_saving(Component::FpUnits)),
                pct(r.plb_component_saving(PlbVariant::Ext, Component::FpUnits)),
            ]
        },
    );
    t.note("paper: DCG 77.2 % for FP programs, close to 100 % for most integer programs");
    t.note("paper: PLB-ext 23.0 % for FP programs (FP-IPC trigger keeps FPUs powered)");
    t
}

/// Figure 14: pipeline-latch power savings (DCG value includes its control
/// overhead), DCG vs PLB-ext.
pub fn fig14(suite: &Suite) -> FigureTable {
    let mut t = per_benchmark_table(
        "figure-14",
        "Pipeline-latch power savings (% of latch power, incl. DCG overhead)",
        &["dcg", "plb-ext"],
        suite,
        |r| {
            vec![
                pct(r.dcg_latch_saving_incl_overhead()),
                pct(r.plb_component_saving(PlbVariant::Ext, Component::PipelineLatch)),
            ]
        },
    );
    t.note("paper: DCG 41.6 % (overhead included, ~1 % of latch power); PLB-ext 17.6 %");
    t.note("paper: mcf and lucas stand out (frequent stalls leave latches idle)");
    t
}

/// Figure 15: D-cache power savings (decoders are the gated part; savings
/// are a percentage of total D-cache power), DCG vs PLB-ext.
pub fn fig15(suite: &Suite) -> FigureTable {
    let mut t = per_benchmark_table(
        "figure-15",
        "D-cache power savings (% of total D-cache power)",
        &["dcg", "plb-ext"],
        suite,
        |r| {
            vec![
                pct(r.dcg_dcache_saving()),
                pct(r.plb_dcache_saving(PlbVariant::Ext)),
            ]
        },
    );
    t.note(
        "paper: DCG 22.6 % (decoders ~40 % of D-cache power, ports ~40 % utilised); PLB-ext 8.1 %",
    );
    t
}

/// Figure 16: result-bus power savings, DCG vs PLB-ext.
pub fn fig16(suite: &Suite) -> FigureTable {
    let mut t = per_benchmark_table(
        "figure-16",
        "Result-bus power savings (% of result-bus power)",
        &["dcg", "plb-ext"],
        suite,
        |r| {
            vec![
                pct(r.dcg_component_saving(Component::ResultBus)),
                pct(r.plb_component_saving(PlbVariant::Ext, Component::ResultBus)),
            ]
        },
    );
    t.note("paper: DCG 59.6 % (bus ~40 % utilised); PLB-ext 32.2 %");
    t
}

/// Figure 17: DCG total power savings on the 8-stage vs the 20-stage
/// pipeline, from one suite of each (the second run on
/// [`ExperimentConfig::deep_pipeline`]; neither needs PLB runs).
///
/// [`ExperimentConfig::deep_pipeline`]: crate::ExperimentConfig::deep_pipeline
pub fn fig17(suite8: &Suite, suite20: &Suite) -> FigureTable {
    let mut t = FigureTable::new(
        "figure-17",
        "DCG total power savings: 8-stage vs 20-stage pipeline (%)",
        vec!["8-stage".into(), "20-stage".into()],
    );
    for (r8, r20) in suite8.runs.iter().zip(&suite20.runs) {
        assert_eq!(r8.profile.name, r20.profile.name);
        t.push_row(
            r8.profile.name,
            vec![pct(r8.dcg_total_saving()), pct(r20.dcg_total_saving())],
        );
    }
    let a8 = suite8.mean(|r| r.dcg_total_saving());
    let a20 = suite20.mean(|r| r.dcg_total_saving());
    if let (Some(a8), Some(a20)) = (a8, a20) {
        t.push_row("average", vec![pct(a8), pct(a20)]);
    }
    t.note("paper: 19.9 % (8-stage) grows to 24.5 % (20-stage): more gateable latches");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::ExperimentConfig;

    fn quick_suite() -> Suite {
        Suite::run(&ExperimentConfig::quick(), true)
    }

    #[test]
    fn figures_10_to_16_have_all_rows() {
        let suite = quick_suite();
        for t in [
            fig10(&suite),
            fig11(&suite),
            fig12(&suite),
            fig13(&suite),
            fig14(&suite),
            fig15(&suite),
            fig16(&suite),
        ] {
            // 3 benchmarks + int-avg + fp-avg.
            assert_eq!(t.rows.len(), 5, "{}", t.id);
            assert!(!t.notes.is_empty(), "{}", t.id);
            for (label, values) in &t.rows {
                for v in values {
                    assert!(v.is_finite(), "{}: {label} has non-finite value", t.id);
                }
            }
        }
    }

    #[test]
    fn dcg_beats_plb_on_totals() {
        let suite = quick_suite();
        let t = fig10(&suite);
        for (label, _) in &t.rows {
            let dcg = t.value(label, "dcg").unwrap();
            let ext = t.value(label, "plb-ext").unwrap();
            assert!(
                dcg > ext,
                "{label}: DCG ({dcg:.1}) must beat PLB-ext ({ext:.1})"
            );
        }
    }

    #[test]
    fn fig17_two_depths() {
        let cfg = ExperimentConfig::quick();
        let t = fig17(
            &Suite::run(&cfg, false),
            &Suite::run(&cfg.deep_pipeline(), false),
        );
        assert_eq!(t.columns, vec!["8-stage", "20-stage"]);
        let avg8 = t.value("average", "8-stage").unwrap();
        let avg20 = t.value("average", "20-stage").unwrap();
        assert!(
            avg20 > avg8,
            "deeper pipeline must save more: {avg8:.1} vs {avg20:.1}"
        );
    }
}
