//! Wall-clock timing for experiment runs.
//!
//! [`time`] measures one closure; `Suite::run` uses it for the suite's
//! wall time and each benchmark's elapsed time. Repeated-sample
//! benchmarking (medians, spreads, per-layer splits) lives in
//! `perfbench/`.

use std::time::Instant;

/// Time one closure, returning its result and the elapsed nanoseconds.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let r = f();
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (r, ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_measures_and_returns() {
        let (v, ns) = time(|| 40 + 2);
        assert_eq!(v, 42);
        assert!(ns < 1_000_000_000, "closure cannot take a second");
    }
}
