//! Property tests for the metrics layer: histogram bucketing must conserve
//! every observation, the windowed time series must roll over exactly
//! on the configured boundary for any window length and stream length,
//! and the column fold over any split of a block into spans must equal
//! the cycle-by-cycle fold.

use dcg_core::{ActivitySink, Dcg, Histogram, MetricsConfig, MetricsSink};
use dcg_sim::{ActivityBlock, CycleActivity, LatchGroups, Processor, SimConfig, BLOCK_CYCLES};
use dcg_testkit::prop;
use dcg_workloads::{Spec2000, SyntheticWorkload};

/// Bucketing conserves observations: every recorded value lands in exactly
/// one bucket (out-of-domain values in the top bucket), `total`/`clamped`
/// count exactly, and the mean is the mean of the clamped values.
#[test]
fn histogram_bucketing_conserves_observations() {
    prop::check(
        "histogram_bucketing",
        prop::tuple((0u32..16, prop::vec(0u32..64, 0..40usize))),
        |(max_value, values)| {
            let mut h = Histogram::new(max_value);
            for &v in &values {
                h.record(v);
            }

            assert_eq!(h.buckets().len(), max_value as usize + 1);
            assert_eq!(h.max_value(), max_value);
            assert_eq!(h.total(), values.len() as u64, "every record lands once");
            assert_eq!(
                h.clamped(),
                values.iter().filter(|&&v| v > max_value).count() as u64,
                "clamp count matches out-of-domain observations"
            );
            for (idx, &count) in h.buckets().iter().enumerate() {
                let expected = values
                    .iter()
                    .filter(|&&v| v.min(max_value) as usize == idx)
                    .count() as u64;
                assert_eq!(count, expected, "bucket {idx} holds exactly its values");
            }
            match h.mean() {
                None => assert!(values.is_empty(), "mean is None only when empty"),
                Some(mean) => {
                    let sum: u64 = values.iter().map(|&v| u64::from(v.min(max_value))).sum();
                    let expected = sum as f64 / values.len() as f64;
                    assert!(
                        (mean - expected).abs() < 1e-9,
                        "mean {mean} != expected {expected}"
                    );
                }
            }
        },
    );
}

/// A minimal measured cycle: all-zero activity except the counters the
/// window accounting folds over, with the latch-occupancy vector sized to
/// the pipeline geometry (as every real `CycleActivity` is).
fn synthetic_cycle(groups: &LatchGroups, cycle: u64, committed: u32, issued: u32) -> CycleActivity {
    CycleActivity {
        cycle,
        committed,
        issued,
        latch_occupancy: vec![0; groups.len()],
        ..CycleActivity::default()
    }
}

/// For any window length and stream length, the time series partitions the
/// measured cycles exactly: full windows except possibly the last, gapless
/// start cycles, and per-window `committed`/`issued` sums that add back up
/// to the stream totals.
#[test]
fn windows_roll_over_exactly_and_conserve_counts() {
    prop::check(
        "window_rollover",
        prop::tuple((
            1u32..=9,
            prop::vec(prop::tuple((0u32..8, 0u32..8)), 0..60usize),
        )),
        |(window, per_cycle)| {
            let cfg = SimConfig::baseline_8wide();
            let groups = LatchGroups::new(&cfg.depth);
            let mut policy = Dcg::new(&cfg, &groups);
            let mut sink = MetricsSink::with_config(
                &mut policy,
                &cfg,
                &groups,
                MetricsConfig {
                    window,
                    ..MetricsConfig::default()
                },
            );

            const BASE_CYCLE: u64 = 1_000;
            sink.begin_measure();
            for (i, &(committed, issued)) in per_cycle.iter().enumerate() {
                let act = synthetic_cycle(&groups, BASE_CYCLE + i as u64, committed, issued);
                sink.measure_cycle(&act);
            }
            let report = sink.into_report();

            let n = per_cycle.len() as u64;
            assert_eq!(report.window, window);
            assert_eq!(report.cycles, n);
            assert_eq!(report.windows.len(), n.div_ceil(u64::from(window)) as usize);

            let mut cycles_seen = 0u64;
            for (i, w) in report.windows.iter().enumerate() {
                assert_eq!(
                    w.start_cycle,
                    BASE_CYCLE + i as u64 * u64::from(window),
                    "window {i} starts exactly where the previous ended"
                );
                if i + 1 < report.windows.len() {
                    assert_eq!(w.cycles, window, "only the last window may be short");
                } else {
                    assert!(
                        w.cycles >= 1 && w.cycles <= window,
                        "last window is partial"
                    );
                }
                cycles_seen += u64::from(w.cycles);
            }
            assert_eq!(cycles_seen, n, "windows partition the measured cycles");

            let committed_total: u64 = per_cycle.iter().map(|&(c, _)| u64::from(c)).sum();
            let issued_total: u64 = per_cycle.iter().map(|&(_, i)| u64::from(i)).sum();
            assert_eq!(report.committed, committed_total);
            assert_eq!(
                report.windows.iter().map(|w| w.committed).sum::<u64>(),
                committed_total,
                "no committed instruction is lost at a window boundary"
            );
            assert_eq!(
                report.windows.iter().map(|w| w.issued).sum::<u64>(),
                issued_total,
                "no issued instruction is lost at a window boundary"
            );

            // The fill histograms observe exactly one value per cycle.
            assert_eq!(report.iq_fill.total(), n);
            assert_eq!(report.rob_fill.total(), n);
            assert_eq!(report.lsq_fill.total(), n);
        },
    );
}

/// `count` consecutive live blocks of gzip, past its cold start (which
/// idles until the caches fill).
fn live_blocks(cfg: &SimConfig, count: usize) -> Vec<ActivityBlock> {
    let workload = SyntheticWorkload::new(Spec2000::by_name("gzip").expect("known"), 5);
    let mut cpu = Processor::new(cfg.clone(), workload);
    while cpu.committed() < 5_000 {
        cpu.step();
    }
    (0..count)
        .map(|_| {
            let mut block = ActivityBlock::new(cpu.latch_groups().len());
            for _ in 0..BLOCK_CYCLES {
                block.push(cpu.step());
            }
            block
        })
        .collect()
}

/// The column fold meets every audit capacity and window length of
/// interest over random span splits: capacities that fill before the
/// first span, inside one and after several, windows that close on every
/// cycle, off the block grid and on it. The reference sees every measured cycle as its own one-lane span (the
/// per-cycle methods), as `batch_equivalence`'s reference does.
#[test]
fn column_fold_equals_the_per_cycle_fold_over_any_span_split() {
    const CAPACITIES: [usize; 3] = [0, 1, 7];
    const WINDOWS: [u32; 4] = [1, 63, 100, 256];
    let cfg = SimConfig::baseline_8wide();
    let groups = LatchGroups::new(&cfg.depth);
    let blocks = live_blocks(&cfg, 12);
    let (warm, measured) = blocks.split_at(2);
    prop::check(
        "metrics_span_splits",
        prop::tuple((
            0..CAPACITIES.len(),
            0..WINDOWS.len(),
            prop::vec(1usize..=BLOCK_CYCLES, 1..8usize),
        )),
        |(capacity, window, spans)| {
            let metrics_config = MetricsConfig {
                window: WINDOWS[window],
                audit_capacity: CAPACITIES[capacity],
            };
            let (mut p1, mut p2) = (Dcg::new(&cfg, &groups), Dcg::new(&cfg, &groups));
            let mut by_span = MetricsSink::with_config(&mut p1, &cfg, &groups, metrics_config);
            let mut by_cycle = MetricsSink::with_config(&mut p2, &cfg, &groups, metrics_config);

            let mut act = CycleActivity::default();
            for block in warm {
                by_span.warmup_span(block, 0, block.len());
                for i in 0..block.len() {
                    block.extract(i, &mut act);
                    by_cycle.warmup_cycle(&act);
                }
            }
            by_span.begin_measure();
            by_cycle.begin_measure();
            // Cut each block into the drawn span lengths, in turn.
            let mut next = spans.iter().cycle();
            for block in measured {
                let mut from = 0;
                while from < block.len() {
                    let to = block.len().min(from + next.next().expect("cycled"));
                    by_span.measure_span(block, from, to);
                    from = to;
                }
                for i in 0..block.len() {
                    block.extract(i, &mut act);
                    by_cycle.measure_cycle(&act);
                }
            }
            let (got, want) = (by_span.into_report(), by_cycle.into_report());
            assert!(want.total_disagreements() > 0, "DCG powers idle blocks");
            assert_eq!(got, want);
        },
    );
}
