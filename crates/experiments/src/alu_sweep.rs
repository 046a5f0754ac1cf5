//! §4.4: the optimal number of integer ALUs.
//!
//! The paper sweeps the integer-ALU count over {8, 6, 4} on the integer
//! benchmarks and reports worst-case relative performance of 98.8 % with 6
//! units and 92.7 % with 4 — concluding 6 units are power/performance
//! optimal, which Table 1 then uses. This module regenerates that sweep.

use dcg_core::{
    run_cached_or_live, run_sharded, run_stats_source, CachedSource, DcgError, RunLength,
    TraceCache,
};
use dcg_sim::{SimConfig, SimStats};
use dcg_workloads::{InstStream, Spec2000, SyntheticWorkload};

use crate::suite::ExperimentConfig;
use crate::table::FigureTable;

/// Integer-ALU counts swept (the paper's §4.4 set).
pub const ALU_COUNTS: [usize; 3] = [8, 6, 4];

fn ipc_with_alus(
    base: &SimConfig,
    alus: usize,
    seed: u64,
    length: RunLength,
    name: &str,
    cache: Option<&TraceCache>,
) -> f64 {
    let cfg = SimConfig {
        int_alus: alus,
        ..base.clone()
    };
    let profile = Spec2000::by_name(name).expect("known benchmark");
    run_cached_or_live(
        cache,
        &cfg,
        profile.name,
        seed,
        length,
        || SyntheticWorkload::new(profile, seed),
        |source| ipc_of(source, length),
    )
}

/// IPC of one resolved sweep point. Only the IPC is needed, so a hit
/// answers from the trace's verified block index — subheader totals plus
/// the two boundary blocks — without decoding the interior; a live run
/// (or an index that cannot answer) folds the stats over the full run.
/// Both reduce to the same two integer totals divided in the same order,
/// so they are bit-identical.
fn ipc_of<S: InstStream>(source: &mut CachedSource<S>, length: RunLength) -> Result<f64, DcgError> {
    if let CachedSource::Replay(replay) = source {
        if let Some((cycles, committed)) = replay.measured_window(length)? {
            let stats = SimStats {
                cycles,
                committed,
                ..SimStats::default()
            };
            return Ok(stats.ipc());
        }
    }
    run_stats_source(source, length).map(|s| s.ipc())
}

/// Run the §4.4 sweep over the integer benchmarks in `cfg`, using the
/// environment's activity-trace cache (see [`TraceCache::from_env`]): on
/// a warm cache every point replays recorded activity instead of
/// re-simulating.
///
/// Columns are relative performance (percent of the 8-ALU machine).
pub fn alu_sweep(cfg: &ExperimentConfig) -> FigureTable {
    alu_sweep_with(cfg, TraceCache::from_env().as_ref())
}

/// [`alu_sweep`] with an explicit cache choice (`None` = always simulate
/// live).
pub fn alu_sweep_with(cfg: &ExperimentConfig, cache: Option<&TraceCache>) -> FigureTable {
    let mut t = FigureTable::new(
        "section-4.4",
        "Relative performance vs integer-ALU count (% of 8-ALU IPC)",
        ALU_COUNTS.iter().map(|n| format!("{n}-alus")).collect(),
    );
    let mut worst = vec![f64::INFINITY; ALU_COUNTS.len()];
    let ints: Vec<_> = cfg
        .benchmarks
        .iter()
        .filter(|p| p.suite == dcg_workloads::SuiteKind::Int)
        .collect();
    // Every (benchmark, alu-count) point is a pure function of its
    // index, so the whole grid shards across DCG_SWEEP_THREADS workers
    // (each decoding its own view of the shared trace mapping) and
    // assembles in index order — the table is byte-identical to the
    // serial loop for any worker count.
    let points: Vec<(usize, usize)> = (0..ints.len())
        .flat_map(|b| (0..ALU_COUNTS.len()).map(move |a| (b, a)))
        .collect();
    let ipcs = run_sharded(points.len(), |i| {
        let (b, a) = points[i];
        ipc_with_alus(
            &cfg.sim,
            ALU_COUNTS[a],
            cfg.seed,
            cfg.length,
            ints[b].name,
            cache,
        )
    });
    for (b, p) in ints.iter().enumerate() {
        let row = &ipcs[b * ALU_COUNTS.len()..(b + 1) * ALU_COUNTS.len()];
        let rel: Vec<f64> = row.iter().map(|i| 100.0 * i / row[0]).collect();
        for (w, r) in worst.iter_mut().zip(&rel) {
            *w = w.min(*r);
        }
        t.push_row(p.name, rel);
    }
    t.push_row("worst-case", worst);
    t.note("paper: worst-case relative performance 98.8 % with 6 ALUs, 92.7 % with 4");
    t.note("paper concludes 6 integer ALUs are power/performance optimal (used in Table 1)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shows_monotone_degradation() {
        let mut cfg = ExperimentConfig::quick();
        cfg.benchmarks = vec![Spec2000::by_name("gzip").unwrap()];
        let t = alu_sweep(&cfg);
        let r8 = t.value("gzip", "8-alus").unwrap();
        let r6 = t.value("gzip", "6-alus").unwrap();
        let r4 = t.value("gzip", "4-alus").unwrap();
        assert!((r8 - 100.0).abs() < 1e-9);
        assert!(r6 <= r8 + 1e-9);
        assert!(r4 <= r6 + 1e-9);
        assert!(r4 > 50.0, "4 ALUs should not be catastrophic: {r4}");
    }

    #[test]
    fn ipc_index_path_matches_full_fold_bit_for_bit() {
        // The sweep's IPC query (miss → live record, hit → index walk)
        // must equal the full blockwise fold's ipc() exactly — same
        // integer totals, same division.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp/alu-sweep-ipc-index");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = TraceCache::new(dir);
        let cfg = SimConfig::baseline_8wide();
        let length = RunLength::quick();
        let profile = Spec2000::by_name("gzip").unwrap();
        let stream = || SyntheticWorkload::new(profile, 11);

        let cold = cache
            .run(&cfg, "gzip", 11, length, stream, |s| ipc_of(s, length))
            .expect("cold ipc");
        let folded = cache
            .run(&cfg, "gzip", 11, length, stream, |s| {
                run_stats_source(s, length)
            })
            .expect("warm fold");
        let warm = cache
            .run(&cfg, "gzip", 11, length, stream, |s| ipc_of(s, length))
            .expect("warm ipc");
        assert!(cold > 0.0, "a real run has nonzero IPC");
        assert_eq!(cold.to_bits(), folded.ipc().to_bits());
        assert_eq!(cold.to_bits(), warm.to_bits());

        // And the index agrees with the drive loop's own totals.
        let replay = cache.replay_source(&cfg, "gzip", 11, length).expect("hit");
        let (cycles, committed) = replay
            .measured_window(length)
            .expect("clean entry")
            .expect("verified entry answers from its index");
        assert_eq!((cycles, committed), (folded.cycles, folded.committed));
    }

    #[test]
    fn sweep_table_is_bit_identical_live_cold_and_warm() {
        // The whole table, not just one point: recording on a miss and
        // answering from the index on a hit must both reproduce the
        // uncached sweep exactly.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp/alu-sweep-table-bits");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = TraceCache::new(dir);
        let mut cfg = ExperimentConfig::quick();
        cfg.benchmarks = ["gzip", "mcf"]
            .iter()
            .map(|n| Spec2000::by_name(n).unwrap())
            .collect();
        let bits = |t: &FigureTable| -> Vec<(String, Vec<u64>)> {
            t.rows
                .iter()
                .map(|(label, values)| {
                    (label.clone(), values.iter().map(|v| v.to_bits()).collect())
                })
                .collect()
        };
        let live = bits(&alu_sweep_with(&cfg, None));
        let cold = bits(&alu_sweep_with(&cfg, Some(&cache)));
        assert_eq!(cache.verify_all().valid, 6, "every sweep point recorded");
        let warm = bits(&alu_sweep_with(&cfg, Some(&cache)));
        assert_eq!(live.len(), 3, "two benchmarks plus the worst case");
        assert_eq!(live, cold, "recording must not change the sweep");
        assert_eq!(
            live, warm,
            "the warm index path must reproduce the live sweep"
        );
    }
}
