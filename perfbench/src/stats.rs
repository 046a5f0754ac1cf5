//! Statistics helpers: nearest-rank percentiles, the choice of the
//! highest percentile a sample count supports, and the failure ratio.

/// Samples a reported tail percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `p` percent of the samples at or below it. `None` on an
/// empty slice or a `p` outside `(0, 100]`.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// One-based nearest rank of the `p`-th percentile among `n >= 1`
/// samples, computed in integer tenths of a percent so that e.g. p99.9
/// of 10 000 samples is exactly rank 9 990.
fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest of the candidate percentiles that leaves at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, or `None` when even the median
/// does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| n > 0 && beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// Sample count needed before the `p`-th percentile has
/// [`TAIL_MIN_BEYOND`] samples beyond it.
pub fn samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, p) >= TAIL_MIN_BEYOND)
        .expect("unbounded search")
}

/// Median (nearest rank) of unsorted values; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 50.0)
}

/// Failed or refused operations over attempted operations. The base is
/// every operation the run attempted, so `None` when nothing was
/// attempted (a ratio without a base is not zero).
pub fn failure_ratio(failed: u64, attempted: u64) -> Option<f64> {
    (attempted > 0).then(|| failed.min(attempted) as f64 / attempted as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&v, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 95.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&v, 0.0), None);
        assert_eq!(nearest_rank(&v, 100.5), None);
    }

    #[test]
    fn tail_choice_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(samples_for(95.0), 200);
        assert_eq!(samples_for(50.0), 20);
        for n in 0..2000 {
            if let Some(p) = tail_percentile(n) {
                assert!(beyond(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn median_of_unsorted_values() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn failure_ratio_uses_attempted_as_the_base() {
        assert_eq!(failure_ratio(0, 0), None);
        assert_eq!(failure_ratio(0, 120), Some(0.0));
        assert_eq!(failure_ratio(3, 120), Some(0.025));
        assert_eq!(failure_ratio(5, 5), Some(1.0));
        assert_eq!(failure_ratio(9, 5), Some(1.0), "never above one");
    }
}
