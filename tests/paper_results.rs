//! End-to-end reproduction checks: the paper's qualitative results must
//! hold on a reduced (fast) configuration. The full-scale numbers are
//! recorded in EXPERIMENTS.md and regenerated by the `repro` binary.

use dcg_repro::core::PlbVariant;
use dcg_repro::experiments::{fig17, ExperimentConfig, Suite};
use dcg_repro::workloads::{Spec2000, SuiteKind};

fn reduced_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::standard();
    cfg.benchmarks = ["gzip", "mcf", "twolf", "mesa", "lucas", "swim"]
        .iter()
        .map(|n| Spec2000::by_name(n).expect("known"))
        .collect();
    cfg.length = dcg_repro::core::RunLength {
        warmup_insts: 20_000,
        measure_insts: 80_000,
    };
    cfg
}

#[test]
fn headline_comparison_dcg_beats_plb_without_slowdown() {
    let cfg = reduced_config();
    let suite = Suite::run(&cfg, true);

    let dcg_avg = suite
        .mean(|r| r.dcg_total_saving())
        .expect("non-empty suite");
    let plb_orig_avg = suite
        .mean(|r| r.plb_total_saving(PlbVariant::Orig))
        .expect("non-empty suite");
    let plb_ext_avg = suite
        .mean(|r| r.plb_total_saving(PlbVariant::Ext))
        .expect("non-empty suite");

    // Paper: DCG ~19.9 %, PLB-orig ~5.6 %, PLB-ext ~9.9 %.
    assert!(
        (0.12..0.35).contains(&dcg_avg),
        "DCG average saving out of band: {dcg_avg:.3}"
    );
    assert!(
        dcg_avg > plb_ext_avg && plb_ext_avg > plb_orig_avg,
        "ordering must be DCG > PLB-ext > PLB-orig: {dcg_avg:.3} / {plb_ext_avg:.3} / {plb_orig_avg:.3}"
    );

    // Paper: PLB loses ~2.9 % performance; DCG loses none.
    let plb_relperf = suite
        .mean(|r| r.plb_relative_performance(PlbVariant::Orig))
        .expect("non-empty suite");
    assert!(
        (0.85..=1.0001).contains(&plb_relperf),
        "PLB relative performance out of band: {plb_relperf:.3}"
    );
    for r in &suite.runs {
        assert!(
            (r.dcg_power_delay_saving() - r.dcg_total_saving()).abs() < 1e-9,
            "{}: DCG power-delay must equal its power saving",
            r.profile.name
        );
        let pd = r.plb_power_delay_saving(PlbVariant::Orig);
        let p = r.plb_total_saving(PlbVariant::Orig);
        assert!(
            pd <= p + 1e-9,
            "{}: PLB's slowdown must not help power-delay",
            r.profile.name
        );
    }
}

#[test]
fn stall_heavy_benchmarks_save_most() {
    // Paper §5.1: mcf and lucas achieve the highest DCG savings.
    let cfg = reduced_config();
    let suite = Suite::run(&cfg, false);
    let saving = |name: &str| {
        suite
            .runs
            .iter()
            .find(|r| r.profile.name == name)
            .map(|r| r.dcg_total_saving())
            .expect("benchmark ran")
    };
    assert!(saving("mcf") > saving("gzip"));
    assert!(saving("mcf") > saving("mesa"));
    assert!(saving("lucas") > saving("mesa"));
}

#[test]
fn fpu_savings_are_total_for_integer_programs() {
    // Paper Figure 13: integer programs never touch the FPUs, so DCG
    // recovers essentially all FP-unit power.
    use dcg_repro::power::Component;
    let cfg = reduced_config();
    let suite = Suite::run(&cfg, false);
    for r in suite.of_kind(SuiteKind::Int) {
        let s = r.dcg_component_saving(Component::FpUnits);
        assert!(
            s > 0.999,
            "{}: FP units should be fully gated, saving {s:.4}",
            r.profile.name
        );
    }
    for r in suite.of_kind(SuiteKind::Fp) {
        let s = r.dcg_component_saving(Component::FpUnits);
        assert!(
            (0.4..1.0).contains(&s),
            "{}: FP programs keep some FPU activity, saving {s:.4}",
            r.profile.name
        );
    }
}

#[test]
fn deeper_pipeline_saves_more() {
    // Paper Figure 17: 19.9 % (8-stage) grows to 24.5 % (20-stage).
    let mut cfg = reduced_config();
    cfg.benchmarks.truncate(3);
    let t = fig17(&cfg);
    let a8 = t.value("average", "8-stage").expect("row exists");
    let a20 = t.value("average", "20-stage").expect("row exists");
    assert!(
        a20 > a8 + 1.0,
        "deep pipeline gain too small: {a8} -> {a20}"
    );
    assert!(a20 - a8 < 15.0, "deep pipeline gain implausibly large");
}
