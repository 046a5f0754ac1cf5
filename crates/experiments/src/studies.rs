//! Extension studies and ablations beyond the paper's figures.
//!
//! Each function regenerates one table; `repro <table id>` runs it and
//! writes `results/<table id>.csv`. None of them is part of `repro all`.
//! They read the machine, run length and seed from the
//! [`ExperimentConfig`] (`ExperimentConfig::standard()` reproduces the
//! committed CSVs; `--quick` shortens every run) but each keeps its own
//! benchmark list, chosen for the effect it shows. References that only
//! read activity (the oracle, Wattch's styles, other energy tables) ride
//! the one pass that simulates a benchmark, as sinks; only active
//! policies (PLB) and changed machines simulate again.

use dcg_core::{
    drive, run_active, run_passive, run_passive_with_sinks, ActivitySink, Dcg, DcgOptions,
    GatingPolicy, NoGating, PassiveRun, Plb, PlbConfig, PlbVariant, RunLength, WattchSink,
    WattchStyles,
};
use dcg_isa::FuClass;
use dcg_power::{EnergyTable, GateLanes, PowerModel, PowerReport};
use dcg_sim::{
    ActivityBlock, CycleActivity, FuSelectPolicy, LatchGroups, PredictorKind, Processor, SimConfig,
    StoreTiming,
};
use dcg_workloads::{Spec2000, SyntheticWorkload};

use crate::suite::ExperimentConfig;
use crate::table::FigureTable;

/// A study: one configuration in, one table out.
type Study = fn(&ExperimentConfig) -> FigureTable;

/// Every study, keyed by its table id (which is also its `repro`
/// subcommand).
pub const STUDIES: [(&str, Study); 11] = [
    ("oracle-comparison", oracle_comparison),
    ("wattch-styles", wattch_styles),
    ("width-scaling", width_scaling),
    ("seed-sensitivity", seed_sensitivity),
    ("plb-tuning-sensitivity", plb_tuning_sensitivity),
    ("ablation-fu-policy", ablation_fu_policy),
    ("ablation-store-policy", ablation_store_policy),
    ("ablation-iq-gating", ablation_iq_gating),
    ("ablation-leakage", ablation_leakage),
    ("ablation-prefetch", ablation_prefetch),
    ("ablation-predictor", ablation_predictor),
];

fn workload(bench: &str, seed: u64) -> SyntheticWorkload {
    SyntheticWorkload::new(Spec2000::by_name(bench).expect("known benchmark"), seed)
}

/// One live pass of `bench` on `sim` under the ungated baseline
/// (outcome 0) and DCG (outcome 1), with `extra` sinks riding it.
fn dcg_pass_with(
    sim: &SimConfig,
    bench: &str,
    seed: u64,
    length: RunLength,
    extra: &mut [&mut dyn ActivitySink],
) -> PassiveRun {
    let groups = LatchGroups::new(&sim.depth);
    let mut baseline = NoGating::new(sim, &groups);
    let mut dcg = Dcg::new(sim, &groups);
    let mut cpu = Processor::new(sim.clone(), workload(bench, seed));
    run_passive_with_sinks(sim, &mut cpu, length, &mut [&mut baseline, &mut dcg], extra)
        .expect("a live simulation source cannot fail")
}

/// [`dcg_pass_with`] and no extra sink.
fn dcg_pass(sim: &SimConfig, bench: &str, seed: u64, length: RunLength) -> PassiveRun {
    dcg_pass_with(sim, bench, seed, length, &mut [])
}

/// A [`dcg_pass`] with a [`WattchSink`] riding it, so the oracle and
/// Wattch's styles cost no simulation of their own.
fn styled_pass(
    sim: &SimConfig,
    bench: &str,
    seed: u64,
    length: RunLength,
) -> (PassiveRun, WattchStyles) {
    let groups = LatchGroups::new(&sim.depth);
    let mut wattch = WattchSink::new(sim, &groups);
    let run = dcg_pass_with(sim, bench, seed, length, &mut [&mut wattch]);
    (run, wattch.into_styles())
}

/// DCG's total-power saving over the baseline of a [`dcg_pass`], in
/// percent.
fn dcg_saving(run: &PassiveRun) -> f64 {
    100.0
        * run.outcomes[1]
            .report
            .power_saving_vs(&run.outcomes[0].report)
}

/// DCG versus the clairvoyant gating oracle.
///
/// The oracle powers every gateable block exactly in the cycles it is
/// used — perfect same-cycle knowledge, physically unimplementable (gate
/// enables need set-up time; it is the limit of Wattch's `cc3` style).
/// The gap is the headroom DCG's realizable advance knowledge leaves.
pub fn oracle_comparison(cfg: &ExperimentConfig) -> FigureTable {
    let mut t = FigureTable::new(
        "oracle-comparison",
        "Total power saving (%): DCG vs the clairvoyant cc3-style oracle",
        vec!["dcg".into(), "oracle".into(), "gap".into()],
    );
    for bench in ["gzip", "bzip2", "mcf", "mesa", "lucas", "swim"] {
        let (run, styles) = styled_pass(&cfg.sim, bench, cfg.seed, cfg.length);
        let dcg = dcg_saving(&run);
        let oracle = 100.0 * styles.cc2.power_saving_vs(&run.outcomes[0].report);
        t.push_row(bench, vec![dcg, oracle, oracle - dcg]);
    }
    t.note("the oracle has no control overhead and perfect latch knowledge;");
    t.note("DCG's gap should be well under 2 points of total power");
    t
}

/// DCG versus Wattch's idealized conditional-clocking styles
/// (cc1/cc2/cc3). They use same-cycle knowledge, so they bound what any
/// realizable controller can reach.
pub fn wattch_styles(cfg: &ExperimentConfig) -> FigureTable {
    let mut t = FigureTable::new(
        "wattch-styles",
        "Total power saving (%): DCG vs Wattch cc1/cc2/cc3 accounting styles",
        vec!["dcg".into(), "cc1".into(), "cc2".into(), "cc3".into()],
    );
    for bench in ["gzip", "bzip2", "mcf", "mesa", "swim"] {
        let (run, styles) = styled_pass(&cfg.sim, bench, cfg.seed, cfg.length);
        let base = &run.outcomes[0].report;
        t.push_row(
            bench,
            vec![
                dcg_saving(&run),
                100.0 * styles.cc1.power_saving_vs(base),
                100.0 * styles.cc2.power_saving_vs(base),
                100.0 * styles.cc3_saving(base, 0.10),
            ],
        );
    }
    t.note("cc1/cc2/cc3 are Wattch's idealized accounting modes (same-cycle");
    t.note("knowledge); DCG is a realizable controller that nearly matches cc2");
    t
}

/// DCG savings versus machine width (paper §1, §5.6 show the depth
/// axis). Each machine scales its resources with its issue width, so
/// this study builds its own machines rather than reading `cfg.sim`.
pub fn width_scaling(cfg: &ExperimentConfig) -> FigureTable {
    let machine = |width: usize| {
        let scale = |n: usize| (n * width).div_ceil(8).max(1);
        SimConfig::builder()
            .width(width)
            .int_alus(scale(6))
            .fp_alus(scale(4))
            .mem_ports(scale(2))
            .rob_entries(16 * width)
            .iq_entries(16 * width)
            .lsq_entries(8 * width)
            .build()
            .expect("scaled machine is valid")
    };
    let widths = [4usize, 8, 16];
    let mut t = FigureTable::new(
        "width-scaling",
        "DCG total power saving (%) vs machine width (resources scaled)",
        widths.iter().map(|w| format!("{w}-wide")).collect(),
    );
    for bench in ["gzip", "twolf", "swim", "mcf"] {
        let row = widths
            .iter()
            .map(|w| dcg_saving(&dcg_pass(&machine(*w), bench, cfg.seed, cfg.length)))
            .collect();
        t.push_row(bench, row);
    }
    t.note("wider machines idle a larger fraction of their blocks, so DCG's");
    t.note("deterministic gating recovers a growing share of total power");
    t
}

/// DCG's total saving across workload seeds, with the spread: the
/// headline numbers must not hinge on one generator seed. The seeds
/// are the study's own; `cfg.seed` is not read.
pub fn seed_sensitivity(cfg: &ExperimentConfig) -> FigureTable {
    let seeds = [1u64, 7, 42, 123, 9999];
    let mut t = FigureTable::new(
        "seed-sensitivity",
        "DCG total power saving (%) across workload seeds",
        seeds
            .iter()
            .map(|s| format!("seed={s}"))
            .chain(["spread".to_string()])
            .collect(),
    );
    for bench in ["gzip", "mcf", "applu", "mesa"] {
        let mut row: Vec<f64> = seeds
            .iter()
            .map(|seed| dcg_saving(&dcg_pass(&cfg.sim, bench, *seed, cfg.length)))
            .collect();
        let max = row.iter().cloned().fold(f64::MIN, f64::max);
        let min = row.iter().cloned().fold(f64::MAX, f64::min);
        row.push(max - min);
        t.push_row(bench, row);
    }
    t.note("the spread column (max - min) should stay within ~2 points:");
    t.note("the conclusions never hinge on one generator seed");
    t
}

/// PLB-orig's saving and performance loss across its IPC trigger
/// thresholds — the paper's third advantage of DCG (§1): PLB's
/// heuristics must be tuned, DCG has no knobs.
pub fn plb_tuning_sensitivity(cfg: &ExperimentConfig) -> FigureTable {
    // (to4, to6) grid: timid -> default-ish -> aggressive.
    let grid = [(0.8, 2.0), (1.7, 3.8), (2.5, 5.0), (3.5, 6.5)];
    let groups = LatchGroups::new(&cfg.sim.depth);
    let mut t = FigureTable::new(
        "plb-tuning-sensitivity",
        "PLB-orig saving%/perf-loss% across trigger thresholds (DCG has no knobs)",
        grid.iter()
            .flat_map(|(a, b)| [format!("s({a},{b})"), format!("loss({a},{b})")])
            .chain(["dcg-saving".to_string()])
            .collect(),
    );
    for bench in ["gzip", "twolf", "swim"] {
        let run = dcg_pass(&cfg.sim, bench, cfg.seed, cfg.length);
        let base = &run.outcomes[0].report;
        let mut row = Vec::new();
        for (to4_ipc, to6_ipc) in grid {
            let plb_cfg = PlbConfig {
                to4_ipc,
                to6_ipc,
                ..PlbConfig::default()
            };
            let mut plb = Plb::with_config(PlbVariant::Orig, plb_cfg, &cfg.sim, &groups);
            let out = run_active(&cfg.sim, workload(bench, cfg.seed), cfg.length, &mut plb);
            row.push(100.0 * out.report.power_saving_vs(base));
            row.push(100.0 * (1.0 - out.report.relative_performance_vs(base)));
        }
        row.push(dcg_saving(&run));
        t.push_row(bench, row);
    }
    t.note("paper §1 point (3): PLB's thresholds trade power against performance");
    t.note("and must be tuned per deployment; DCG is parameter-free and dominates");
    t
}

/// Sequential-priority execution-unit selection (paper §3.1) versus
/// round-robin: gate-control toggles per kilocycle and IPC. Sequential
/// priority parks low-priority units gated, so their gates rarely
/// toggle; the paper says the policy "does not affect overall
/// performance".
pub fn ablation_fu_policy(cfg: &ExperimentConfig) -> FigureTable {
    // 40 % of the warm-up, then half the measured window: 20 k + 150 k
    // commits at standard length.
    let warmup = cfg.length.warmup_insts * 2 / 5;
    let measure = cfg.length.measure_insts / 2;
    let toggles_and_ipc = |bench: &str, policy: FuSelectPolicy| {
        let mut cpu = Processor::with_policy(cfg.sim.clone(), workload(bench, cfg.seed), policy);
        cpu.run_until_commits(warmup, |_| {});
        let mut prev = [0u32; FuClass::COUNT];
        let mut toggles = 0u64;
        let mut cycles = 0u64;
        cpu.run_until_commits(measure, |act| {
            cycles += 1;
            for c in FuClass::ALL {
                let cur = act.fu_active[c.index()];
                toggles += u64::from((cur ^ prev[c.index()]).count_ones());
                prev[c.index()] = cur;
            }
        });
        (1000.0 * toggles as f64 / cycles as f64, cpu.stats().ipc())
    };
    let mut t = FigureTable::new(
        "ablation-fu-policy",
        "Gate-control toggles per kilocycle: sequential priority vs round robin",
        vec![
            "seq-toggles".into(),
            "rr-toggles".into(),
            "seq-ipc".into(),
            "rr-ipc".into(),
        ],
    );
    for bench in ["gzip", "bzip2", "mesa", "swim"] {
        let (seq_t, seq_i) = toggles_and_ipc(bench, FuSelectPolicy::SequentialPriority);
        let (rr_t, rr_i) = toggles_and_ipc(bench, FuSelectPolicy::RoundRobin);
        t.push_row(bench, vec![seq_t, rr_t, seq_i, rr_i]);
    }
    t.note("paper §3.1: sequential priority keeps low-priority units parked gated,");
    t.note("minimising control toggling, and does not affect performance");
    t
}

/// The paper's §3.3 store-timing options: store cache access known one
/// cycle ahead versus stores delayed one cycle for gate set-up time.
pub fn ablation_store_policy(cfg: &ExperimentConfig) -> FigureTable {
    let run = |bench: &str, store_timing: StoreTiming| {
        let sim = SimConfig {
            store_timing,
            ..cfg.sim.clone()
        };
        let r = dcg_pass(&sim, bench, cfg.seed, cfg.length);
        (r.stats.ipc(), dcg_saving(&r))
    };
    let mut t = FigureTable::new(
        "ablation-store-policy",
        "Store gating setup: known one cycle ahead vs delayed one cycle",
        vec![
            "known-ipc".into(),
            "delayed-ipc".into(),
            "known-saving%".into(),
            "delayed-saving%".into(),
        ],
    );
    for bench in ["bzip2", "vortex", "swim", "lucas"] {
        let (ik, sk) = run(bench, StoreTiming::KnownOneCycleAhead);
        let (id, sd) = run(bench, StoreTiming::DelayOneCycle);
        t.push_row(bench, vec![ik, id, sk, sd]);
    }
    t.note("paper §3.3: delaying stores one cycle for gate setup causes");
    t.note("virtually no performance loss (stores produce no pipeline values)");
    t
}

/// DCG with the deterministic issue-queue gating the paper cites as \[6\]
/// (§2.2.2) layered on top of its own block list.
pub fn ablation_iq_gating(cfg: &ExperimentConfig) -> FigureTable {
    let groups = LatchGroups::new(&cfg.sim.depth);
    let mut t = FigureTable::new(
        "ablation-iq-gating",
        "Total power saving (%): DCG alone vs DCG + deterministic IQ gating",
        vec!["dcg".into(), "dcg+iq".into(), "delta".into()],
    );
    for bench in ["gzip", "mcf", "twolf", "mesa", "swim", "lucas"] {
        let mut baseline = NoGating::new(&cfg.sim, &groups);
        let mut dcg = Dcg::new(&cfg.sim, &groups);
        let mut dcg_iq = Dcg::with_options(
            &cfg.sim,
            &groups,
            DcgOptions {
                gate_issue_queue: true,
            },
        );
        let run = run_passive(
            &cfg.sim,
            workload(bench, cfg.seed),
            cfg.length,
            &mut [&mut baseline, &mut dcg, &mut dcg_iq],
        );
        let plain = dcg_saving(&run);
        let with_iq = 100.0
            * run.outcomes[2]
                .report
                .power_saving_vs(&run.outcomes[0].report);
        t.push_row(bench, vec![plain, with_iq, with_iq - plain]);
    }
    t.note("paper §2.2.2: the issue queue is left to [6]'s deterministic scheme;");
    t.note("the combined technique stacks because the signals are independent");
    t
}

/// The ungated baseline and DCG, each deciding every span once, with
/// both decisions priced by one power model per leakage fraction.
/// DCG's lanes are priced as decided, unscreened.
struct LeakageSink {
    baseline: NoGating,
    dcg: Dcg,
    /// Scratch lanes of the baseline and DCG, in that order.
    lanes: [GateLanes; 2],
    models: Vec<PowerModel>,
    /// The `[baseline, dcg]` reports of each model.
    reports: Vec<[PowerReport; 2]>,
}

impl ActivitySink for LeakageSink {
    fn measure_cycle(&mut self, _act: &CycleActivity) {
        unreachable!("drive hands the leakage sink whole spans");
    }

    // Deciding the lanes is all a warm-up span does.
    fn warmup_span(&mut self, block: &ActivityBlock, from: usize, to: usize) {
        let [base, dcg] = &mut self.lanes;
        self.baseline.gate_lanes(block, from, to, base);
        self.dcg.gate_lanes(block, from, to, dcg);
    }

    fn measure_span(&mut self, block: &ActivityBlock, from: usize, to: usize) {
        self.warmup_span(block, from, to);
        let act = block.columns(from, to);
        for (model, reports) in self.models.iter().zip(&mut self.reports) {
            for (lanes, report) in self.lanes.iter().zip(reports) {
                model.fold_span(&act, &lanes.columns(from, to), report);
            }
        }
    }
}

/// One live run of `bench` on `sim`, priced at each leakage fraction in
/// `leaks`: the `[baseline, dcg]` reports of each fraction, in order.
fn leakage_reports(
    sim: &SimConfig,
    bench: &str,
    seed: u64,
    length: RunLength,
    leaks: &[f64],
) -> Vec<[PowerReport; 2]> {
    let groups = LatchGroups::new(&sim.depth);
    let models: Vec<PowerModel> = leaks
        .iter()
        .map(|&leak| {
            let mut table = EnergyTable::micron180();
            table.leakage_fraction = leak;
            PowerModel::with_table(sim, &groups, table)
        })
        .collect();
    let mut sink = LeakageSink {
        baseline: NoGating::new(sim, &groups),
        dcg: Dcg::new(sim, &groups),
        lanes: [GateLanes::new(groups.len()), GateLanes::new(groups.len())],
        reports: models.iter().map(|_| Default::default()).collect(),
        models,
    };
    let mut cpu = Processor::new(sim.clone(), workload(bench, seed));
    drive(&mut cpu, &mut [&mut sink], length).expect("a live simulation source cannot fail");
    sink.reports
}

/// DCG's savings as leakage grows. The paper assumes zero leakage
/// (§4.2); clock gating stops only dynamic power, so a leakier
/// technology recovers a smaller share of total power. Leakage changes
/// only the energy table, so each benchmark simulates once and every
/// fraction prices the same gate decisions.
pub fn ablation_leakage(cfg: &ExperimentConfig) -> FigureTable {
    let leaks = [0.0, 0.1, 0.2, 0.3];
    let mut t = FigureTable::new(
        "ablation-leakage",
        "DCG total power saving (%) vs leakage fraction of gateable blocks",
        leaks.iter().map(|l| format!("leak={l}")).collect(),
    );
    for bench in ["gzip", "mcf", "swim"] {
        let row = leakage_reports(&cfg.sim, bench, cfg.seed, cfg.length, &leaks)
            .iter()
            .map(|[base, dcg]| 100.0 * dcg.power_saving_vs(base))
            .collect();
        t.push_row(bench, row);
    }
    t.note("paper §4.2 assumes zero leakage; gating stops only dynamic power,");
    t.note("so savings shrink roughly linearly with the leakage fraction");
    t
}

/// A next-line D-cache prefetcher versus the paper's prefetcher-less
/// Table-1 machine: it turns stall cycles into busy ones, raising IPC
/// and lowering DCG's idleness-driven savings.
pub fn ablation_prefetch(cfg: &ExperimentConfig) -> FigureTable {
    let run = |bench: &str, prefetch: bool| {
        let sim = SimConfig {
            dcache_next_line_prefetch: prefetch,
            ..cfg.sim.clone()
        };
        let r = dcg_pass(&sim, bench, cfg.seed, cfg.length);
        (
            r.stats.ipc(),
            dcg_saving(&r),
            100.0 * r.stats.dcache_miss_rate(),
        )
    };
    let mut t = FigureTable::new(
        "ablation-prefetch",
        "Next-line D-cache prefetch: IPC, DCG saving, miss rate",
        vec![
            "ipc-off".into(),
            "ipc-on".into(),
            "dcg-off%".into(),
            "dcg-on%".into(),
            "miss-off%".into(),
            "miss-on%".into(),
        ],
    );
    for bench in ["swim", "lucas", "mcf", "applu", "gzip"] {
        let (ipc_off, dcg_off, miss_off) = run(bench, false);
        let (ipc_on, dcg_on, miss_on) = run(bench, true);
        t.push_row(
            bench,
            vec![ipc_off, ipc_on, dcg_off, dcg_on, miss_off, miss_on],
        );
    }
    t.note("streaming benchmarks speed up and lose some gating opportunity;");
    t.note("pointer-chasing (mcf) barely moves: next-line prefetch cannot follow pointers");
    t
}

/// Table 1's 2-level branch predictor versus a history-less bimodal
/// table of the same size. More mispredicts mean more idle back-end
/// cycles, so a worse predictor slightly raises DCG's percentage
/// savings while costing IPC.
pub fn ablation_predictor(cfg: &ExperimentConfig) -> FigureTable {
    let run = |bench: &str, kind: PredictorKind| {
        let mut sim = cfg.sim.clone();
        sim.bpred.kind = kind;
        let r = dcg_pass(&sim, bench, cfg.seed, cfg.length);
        (
            r.stats.ipc(),
            100.0 * r.stats.mispredict_rate(),
            dcg_saving(&r),
        )
    };
    let mut t = FigureTable::new(
        "ablation-predictor",
        "2-level vs bimodal direction prediction: IPC, mispredict rate, DCG saving",
        vec![
            "2lev-ipc".into(),
            "bim-ipc".into(),
            "2lev-misp%".into(),
            "bim-misp%".into(),
            "2lev-dcg%".into(),
            "bim-dcg%".into(),
        ],
    );
    for bench in ["gcc", "gzip", "twolf", "parser", "mesa"] {
        let (i2, m2, d2) = run(bench, PredictorKind::TwoLevel);
        let (ib, mb, db) = run(bench, PredictorKind::Bimodal);
        t.push_row(bench, vec![i2, ib, m2, mb, d2, db]);
    }
    t.note("Table 1 uses the 2-level predictor; bimodal mispredicts more,");
    t.note("costing IPC and (slightly) raising DCG's idleness-driven savings");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcg_power::Component;

    fn bits(r: &PowerReport) -> Vec<u64> {
        let mut v = vec![r.cycles(), r.committed()];
        v.extend(Component::ALL.iter().map(|c| r.component_pj(*c).to_bits()));
        v
    }

    #[test]
    fn leakage_at_zero_equals_the_passive_pass() {
        let sim = SimConfig::baseline_8wide();
        let length = RunLength::quick();
        let [base, dcg] = &leakage_reports(&sim, "gzip", 7, length, &[0.0])[0];

        let groups = LatchGroups::new(&sim.depth);
        let mut baseline = NoGating::new(&sim, &groups);
        let mut gated = Dcg::new(&sim, &groups);
        let run = run_passive(
            &sim,
            workload("gzip", 7),
            length,
            &mut [&mut baseline, &mut gated],
        );
        assert_eq!(bits(base), bits(&run.outcomes[0].report));
        assert_eq!(bits(dcg), bits(&run.outcomes[1].report));
    }
}
