//! The headline paper-vs-measured summary (the table README.md quotes).

use dcg_core::PlbVariant;
use dcg_workloads::SuiteKind;

use crate::suite::Suite;
use crate::table::FigureTable;

/// The headline summary rows, the paper's numbers alongside the measured
/// ones: `suite` is the 8-stage suite with PLB runs, `suite20` the same
/// benchmarks on [`ExperimentConfig::deep_pipeline`].
///
/// [`ExperimentConfig::deep_pipeline`]: crate::ExperimentConfig::deep_pipeline
pub fn summary(suite: &Suite, suite20: &Suite) -> FigureTable {
    // An empty mean (no runs of that kind) renders as NaN → JSON null:
    // explicit "no data" rather than a silent 0.0.
    let pct = |m: Option<f64>| m.map(|x| 100.0 * x).unwrap_or(f64::NAN);
    let mut t = FigureTable::new(
        "summary",
        "Headline results: paper vs this reproduction (%)",
        vec!["paper".into(), "measured".into()],
    );
    t.push_row(
        "dcg-int",
        vec![
            20.9,
            pct(suite.mean_of(SuiteKind::Int, |r| r.dcg_total_saving())),
        ],
    );
    t.push_row(
        "dcg-fp",
        vec![
            18.8,
            pct(suite.mean_of(SuiteKind::Fp, |r| r.dcg_total_saving())),
        ],
    );
    t.push_row(
        "plb-orig-int",
        vec![
            6.3,
            pct(suite.mean_of(SuiteKind::Int, |r| r.plb_total_saving(PlbVariant::Orig))),
        ],
    );
    t.push_row(
        "plb-ext-int",
        vec![
            11.0,
            pct(suite.mean_of(SuiteKind::Int, |r| r.plb_total_saving(PlbVariant::Ext))),
        ],
    );
    t.push_row(
        "plb-perf-loss",
        vec![
            2.9,
            pct(suite
                .mean(|r| r.plb_relative_performance(PlbVariant::Orig))
                .map(|m| 1.0 - m)),
        ],
    );
    t.push_row(
        "dcg-perf-loss",
        vec![0.0, pct(suite.mean(|_| 1.0).map(|m| 1.0 - m))],
    );
    t.push_row(
        "dcg-20stage",
        vec![24.5, pct(suite20.mean(|r| r.dcg_total_saving()))],
    );
    t.note("rows correspond to Figures 10, 11 and 17; full tables in EXPERIMENTS.md");
    t.note("shape target: orderings and rough factors, not absolute matches");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::ExperimentConfig;

    #[test]
    fn summary_has_expected_shape() {
        let mut cfg = ExperimentConfig::quick();
        cfg.benchmarks.truncate(2);
        let t = summary(
            &Suite::run(&cfg, true),
            &Suite::run(&cfg.deep_pipeline(), false),
        );
        assert_eq!(t.columns, vec!["paper", "measured"]);
        let dcg = t.value("dcg-int", "measured").unwrap();
        let plb = t.value("plb-orig-int", "measured").unwrap();
        assert!(dcg > plb, "DCG must beat PLB in the summary");
        assert_eq!(t.value("dcg-perf-loss", "measured"), Some(0.0));
    }
}
