//! Sharded sweep scheduling: run N independent jobs across a bounded
//! scoped-thread pool with work stealing and *deterministic assembly*.
//!
//! Every sweep in the workspace — ALU-width points, fault injections,
//! kernel runs, batched config lanes — is a list of jobs where job `i`
//! is a pure function of `i` (each worker decodes its own view of the
//! shared trace mapping; nothing is mutated across jobs). That makes
//! the determinism argument one line: `results[i] = f(i)` no matter
//! which worker computed it or in what order, so assembling results by
//! index yields byte-identical output for any `DCG_SWEEP_THREADS`
//! (DESIGN.md §15).

use std::env::VarError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once};

/// Environment variable overriding the sweep worker count. `1` forces
/// fully serial in-thread execution (no pool at all); unset, zero or
/// invalid falls back to [`std::thread::available_parallelism`] (zero
/// and garbage additionally warn once, naming the variable).
pub const SWEEP_THREADS_ENV: &str = "DCG_SWEEP_THREADS";

/// The machine's available parallelism, clamped to at least one.
fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolve `DCG_SWEEP_THREADS` from its raw value: a positive integer
/// is taken as-is; unset falls back silently to
/// [`std::thread::available_parallelism`]; anything else (zero, garbage,
/// non-unicode) falls back the same way but also returns a diagnostic
/// naming the variable, so misconfiguration degrades loudly instead of
/// silently serialising the run.
///
/// Factored over the raw `std::env::var` result (like
/// `TraceCache::from_env_value`) so both outcomes are unit-testable
/// without touching process environment.
fn worker_count_from_env_value(value: Result<String, VarError>) -> (usize, Option<String>) {
    match value {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => (n, None),
            _ => (
                default_parallelism(),
                Some(format!(
                    "warning: {SWEEP_THREADS_ENV}={v:?} is not a positive integer; \
                     falling back to available parallelism"
                )),
            ),
        },
        Err(VarError::NotPresent) => (default_parallelism(), None),
        Err(VarError::NotUnicode(_)) => (
            default_parallelism(),
            Some(format!(
                "warning: {SWEEP_THREADS_ENV} is not valid unicode; \
                 falling back to available parallelism"
            )),
        ),
    }
}

/// The sweep worker count: `DCG_SWEEP_THREADS` when set to a positive
/// integer, otherwise the machine's available parallelism (with one
/// process-wide warning when the variable is set but unusable).
fn sweep_threads() -> usize {
    static WARN: Once = Once::new();
    let (n, warning) = worker_count_from_env_value(std::env::var(SWEEP_THREADS_ENV));
    if let Some(msg) = warning {
        WARN.call_once(|| eprintln!("{msg}"));
    }
    n
}

/// Run `jobs` independent jobs — `f(i)` for `i in 0..jobs` — on up to
/// `DCG_SWEEP_THREADS` scoped workers (default: the available
/// parallelism) with atomic-counter work stealing,
/// returning the results **in index order** regardless of scheduling.
/// With one worker (or one job) everything runs inline on the caller's
/// thread, bit-for-bit the serial loop.
///
/// # Panics
///
/// A panicking job propagates to the caller once the scope joins, like
/// the serial loop would.
pub fn run_sharded<R, F>(jobs: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    run_sharded_with(sweep_threads(), jobs, f)
}

/// [`run_sharded`] with an explicit worker count (tests pin 1/2/4 to
/// prove byte identity without touching the environment).
fn run_sharded_with<R, F>(threads: usize, jobs: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.max(1).min(jobs);
    if threads <= 1 {
        return (0..jobs).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                let r = f(i);
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every job slot filled by the scope join")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_index_ordered_for_any_worker_count() {
        let f = |i: usize| i * i + 1;
        let serial: Vec<usize> = (0..37).map(f).collect();
        for threads in [1, 2, 3, 4, 8] {
            assert_eq!(
                run_sharded_with(threads, 37, f),
                serial,
                "{threads} workers"
            );
        }
        assert_eq!(run_sharded_with(4, 0, f), Vec::<usize>::new());
        assert_eq!(run_sharded_with(4, 1, f), vec![1]);
    }

    #[test]
    fn sweep_threads_env_values_resolve_with_named_diagnostics() {
        let ap = default_parallelism();
        // Positive integers are taken as-is, silently.
        assert_eq!(worker_count_from_env_value(Ok("3".into())), (3, None));
        assert_eq!(worker_count_from_env_value(Ok(" 1 ".into())), (1, None));
        // Unset falls back silently.
        assert_eq!(
            worker_count_from_env_value(Err(VarError::NotPresent)),
            (ap, None)
        );
        // Zero and garbage fall back to available parallelism (never a
        // silent serial run) and the diagnostic names the variable.
        for bad in ["0", "banana", "-2", ""] {
            let (n, warning) = worker_count_from_env_value(Ok(bad.into()));
            assert_eq!(n, ap, "{bad:?} must fall back to available parallelism");
            let msg = warning.unwrap_or_else(|| panic!("{bad:?} must warn"));
            assert!(
                msg.contains(SWEEP_THREADS_ENV) && msg.contains(bad),
                "diagnostic must name the variable and value: {msg}"
            );
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = std::panic::catch_unwind(|| {
            run_sharded_with(2, 8, |i| {
                assert!(i != 5, "boom");
                i
            })
        });
        std::panic::set_hook(hook);
        assert!(r.is_err(), "a job panic must not be swallowed");
    }
}
