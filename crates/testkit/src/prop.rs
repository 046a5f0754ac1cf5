//! A minimal, hermetic property-testing runner.
//!
//! Replaces `proptest` for this workspace. Design: *choice-stream*
//! generation (the Hypothesis model). Every generator draws raw `u64`
//! choices from a [`Source`]; a test case is fully described by the
//! recorded choice vector, so shrinking operates on that vector —
//! deleting chunks and pushing individual choices towards zero — and any
//! composed generator (`map`, `filter`, tuples, vectors) shrinks for
//! free. A choice of `0` always maps to the "smallest" value of a
//! generator (range start, `false`, `None`, empty vector), so shrinking
//! converges on minimal counterexamples.
//!
//! # Knobs
//!
//! - `DCG_PROPTEST_CASES` — number of cases per property (default
//!   [`DEFAULT_CASES`]).
//! - `DCG_PROPTEST_SEED` — replay a single failing case: set it to the
//!   seed printed in a failure report.
//!
//! # Example
//!
//! ```
//! use dcg_testkit::prop;
//!
//! // Every generated pair sums commutatively.
//! prop::check("add_commutes", prop::tuple((0u32..1000, 0u32..1000)), |(a, b)| {
//!     assert_eq!(a + b, b + a);
//! });
//! ```
//!
//! A failing property panics with the shrunk input and a replay line:
//!
//! ```text
//! property 'vec_sorted' failed.
//! minimal input: [1, 0]
//! replay with: DCG_PROPTEST_SEED=0x9a4f11c8d0e2b371 cargo test ...
//! ```

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

use crate::env::env_u64;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use crate::rng::{splitmix64, SampleRange, SmallRng};

/// Default number of cases per property (the workspace floor).
pub const DEFAULT_CASES: u32 = 64;

/// Maximum generation attempts per case before a `filter` is declared too
/// strict.
const MAX_REJECTS: u32 = 100;

/// Total property re-executions the shrinker may spend per failure.
const SHRINK_BUDGET: u32 = 800;

// ---------------------------------------------------------------------------
// Choice source
// ---------------------------------------------------------------------------

/// Where a [`Source`] gets choices once the forced prefix is exhausted.
enum Fallback {
    /// Fresh pseudo-random draws (initial generation).
    Rng(SmallRng),
    /// Zeros (shrink replays: missing tail collapses to minimal values).
    Zero,
}

/// A stream of raw `u64` choices driving generation.
pub struct Source {
    prefix: Vec<u64>,
    pos: usize,
    fallback: Fallback,
    recorded: Vec<u64>,
}

impl Source {
    fn from_seed(seed: u64) -> Source {
        Source {
            prefix: Vec::new(),
            pos: 0,
            fallback: Fallback::Rng(SmallRng::seed_from_u64(seed)),
            recorded: Vec::new(),
        }
    }

    fn from_choices(choices: Vec<u64>) -> Source {
        Source {
            prefix: choices,
            pos: 0,
            fallback: Fallback::Zero,
            recorded: Vec::new(),
        }
    }

    /// Draw the next raw choice.
    pub fn draw(&mut self) -> u64 {
        let v = if self.pos < self.prefix.len() {
            self.prefix[self.pos]
        } else {
            match &mut self.fallback {
                Fallback::Rng(rng) => rng.next_u64(),
                Fallback::Zero => 0,
            }
        };
        self.pos += 1;
        self.recorded.push(v);
        v
    }
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// The boxed drawing function inside a [`Gen`]: draws from a choice
/// stream, returning `None` to reject the current stream.
type DrawFn<T> = dyn Fn(&mut Source) -> Option<T>;

/// A composable value generator. Cheap to clone (reference-counted).
pub struct Gen<T> {
    f: Rc<DrawFn<T>>,
}

impl<T> Clone for Gen<T> {
    fn clone(&self) -> Self {
        Gen { f: self.f.clone() }
    }
}

impl<T: 'static> Gen<T> {
    /// Build a generator from a raw drawing function. Return `None` to
    /// reject the current choice stream (like a failed filter).
    pub fn new(f: impl Fn(&mut Source) -> Option<T> + 'static) -> Gen<T> {
        Gen { f: Rc::new(f) }
    }

    /// Generate one value (or a rejection) from `src`.
    pub fn generate(&self, src: &mut Source) -> Option<T> {
        (self.f)(src)
    }

    /// Transform generated values.
    pub fn map<U: 'static>(self, f: impl Fn(T) -> U + 'static) -> Gen<U> {
        Gen::new(move |src| self.generate(src).map(&f))
    }

    /// Keep only values satisfying `pred`; rejected draws are retried by
    /// the runner (bounded by an internal rejection limit).
    pub fn filter(self, pred: impl Fn(&T) -> bool + 'static) -> Gen<T> {
        Gen::new(move |src| self.generate(src).filter(|v| pred(v)))
    }

    /// Choose uniformly between several generators of the same type.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty.
    pub fn one_of(options: Vec<Gen<T>>) -> Gen<T> {
        assert!(!options.is_empty(), "one_of needs at least one option");
        Gen::new(move |src| {
            let idx = (0..options.len()).sample(src.draw());
            options[idx].generate(src)
        })
    }
}

/// Lift any [`IntoGen`] (typically a primitive range) into a [`Gen`], for
/// method chaining: `prop::range(0u8..64).map(...)`.
pub fn range<G: IntoGen>(g: G) -> Gen<G::Value> {
    g.into_gen()
}

/// A constant generator.
pub fn just<T: Clone + 'static>(value: T) -> Gen<T> {
    Gen::new(move |_| Some(value.clone()))
}

/// Any `u64` (uniform over the full domain).
pub fn any_u64() -> Gen<u64> {
    Gen::new(|src| Some(src.draw()))
}

/// Any `bool` (`0` shrinks to `false`).
pub fn any_bool() -> Gen<bool> {
    Gen::new(|src| Some(src.draw() & 1 == 1))
}

/// Any `[u64; N]`.
pub fn any_u64_array<const N: usize>() -> Gen<[u64; N]> {
    Gen::new(|src| {
        let mut a = [0u64; N];
        for slot in &mut a {
            *slot = src.draw();
        }
        Some(a)
    })
}

/// `None` or `Some` of the inner generator (`0` shrinks to `None`).
pub fn option<G: IntoGen>(inner: G) -> Gen<Option<G::Value>>
where
    G::Value: 'static,
{
    let inner = inner.into_gen();
    Gen::new(move |src| {
        if src.draw() & 1 == 0 {
            Some(None)
        } else {
            inner.generate(src).map(Some)
        }
    })
}

/// A vector whose length is drawn from `len` and whose elements come from
/// `elem`. A zero length-choice shrinks towards the shortest vector.
pub fn vec<G: IntoGen, L>(elem: G, len: L) -> Gen<Vec<G::Value>>
where
    G::Value: 'static,
    L: SampleRange<Out = usize> + Clone + 'static,
{
    let elem = elem.into_gen();
    Gen::new(move |src| {
        let n = len.clone().sample(src.draw());
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(elem.generate(src)?);
        }
        Some(v)
    })
}

/// Anything convertible into a [`Gen`]: a `Gen` itself, or a primitive
/// `Range`/`RangeInclusive` (mirroring proptest's range-as-strategy
/// ergonomics).
pub trait IntoGen {
    /// The generated value type.
    type Value;
    /// Convert into a generator.
    fn into_gen(self) -> Gen<Self::Value>;
}

impl<T> IntoGen for Gen<T> {
    type Value = T;
    fn into_gen(self) -> Gen<T> {
        self
    }
}

macro_rules! impl_into_gen_for_range {
    ($($t:ty),*) => {$(
        impl IntoGen for Range<$t> {
            type Value = $t;
            fn into_gen(self) -> Gen<$t> {
                Gen::new(move |src| Some(self.clone().sample(src.draw())))
            }
        }
        impl IntoGen for RangeInclusive<$t> {
            type Value = $t;
            fn into_gen(self) -> Gen<$t> {
                Gen::new(move |src| Some(self.clone().sample(src.draw())))
            }
        }
    )*};
}

impl_into_gen_for_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

/// Combine a tuple of generators into a generator of tuples.
pub fn tuple<T: TupleGen>(parts: T) -> Gen<T::Value> {
    parts.into_tuple_gen()
}

/// Implemented for tuples of [`IntoGen`] items (arities 2–12).
pub trait TupleGen {
    /// The generated tuple type.
    type Value;
    /// Convert the tuple of generators into a generator of tuples.
    fn into_tuple_gen(self) -> Gen<Self::Value>;
}

macro_rules! impl_tuple_gen {
    ($($g:ident : $idx:tt),+) => {
        impl<$($g: IntoGen),+> TupleGen for ($($g,)+)
        where
            $($g::Value: 'static),+
        {
            type Value = ($($g::Value,)+);
            fn into_tuple_gen(self) -> Gen<Self::Value> {
                $(
                    #[allow(non_snake_case)]
                    let $g = self.$idx.into_gen();
                )+
                Gen::new(move |src| Some(($($g.generate(src)?,)+)))
            }
        }
    };
}

impl_tuple_gen!(A: 0, B: 1);
impl_tuple_gen!(A: 0, B: 1, C: 2);
impl_tuple_gen!(A: 0, B: 1, C: 2, D: 3);
impl_tuple_gen!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_tuple_gen!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
impl_tuple_gen!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);
impl_tuple_gen!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7);
impl_tuple_gen!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8);
impl_tuple_gen!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8, J: 9);
impl_tuple_gen!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8, J: 9, K: 10);
impl_tuple_gen!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8, J: 9, K: 10, L: 11);

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// The configured case count: `DCG_PROPTEST_CASES`, floored at 1, default
/// [`DEFAULT_CASES`].
#[must_use]
pub fn configured_cases() -> u32 {
    env_u64("DCG_PROPTEST_CASES").map_or(DEFAULT_CASES, |v| (v as u32).max(1))
}

/// Run `property` against `cases` generated inputs (see
/// [`configured_cases`]); on failure, shrink the input and panic with a
/// replayable seed.
///
/// # Panics
///
/// Panics if the property fails (after shrinking), if generation rejects
/// too often, or if the replay env var is malformed.
pub fn check<G, F>(name: &str, gen: G, property: F)
where
    G: IntoGen,
    G::Value: Clone + Debug + 'static,
    F: Fn(G::Value),
{
    check_capped(name, u32::MAX, gen, property);
}

/// [`check`] with the case count capped at `max_cases`, for properties
/// whose every case is expensive (one that spawns processes, say).
///
/// # Panics
///
/// As [`check`].
pub fn check_capped<G, F>(name: &str, max_cases: u32, gen: G, property: F)
where
    G: IntoGen,
    G::Value: Clone + Debug + 'static,
    F: Fn(G::Value),
{
    let gen = gen.into_gen();
    if let Some(seed) = env_u64("DCG_PROPTEST_SEED") {
        eprintln!("{name}: replaying single case DCG_PROPTEST_SEED={seed:#x}");
        run_case(name, &gen, &property, seed);
        return;
    }
    // Base seed derives from the property name so distinct properties in
    // one binary explore independent streams, stably across runs.
    let base = name
        .bytes()
        .fold(0x5DC6_7E57_D00D_5EED, |h, b| splitmix64(h ^ u64::from(b)));
    for case in 0..configured_cases().min(max_cases) {
        run_case(name, &gen, &property, splitmix64(base ^ u64::from(case)));
    }
}

/// Generate (with rejection retries) the value for `case_seed`.
fn generate_for_seed<T: 'static>(gen: &Gen<T>, case_seed: u64) -> Option<(T, Vec<u64>)> {
    for attempt in 0..MAX_REJECTS {
        let mut src = Source::from_seed(splitmix64(case_seed ^ (u64::from(attempt) << 32)));
        if let Some(v) = gen.generate(&mut src) {
            return Some((v, src.recorded));
        }
    }
    None
}

fn run_case<T, F>(name: &str, gen: &Gen<T>, property: &F, case_seed: u64)
where
    T: Clone + Debug + 'static,
    F: Fn(T),
{
    let Some((value, choices)) = generate_for_seed(gen, case_seed) else {
        panic!(
            "property '{name}': generator rejected {MAX_REJECTS} attempts \
             (filter too strict) at seed {case_seed:#x}"
        );
    };
    if passes(property, value.clone()) {
        return;
    }
    let minimal = shrink(gen, property, choices);
    let mut src = Source::from_choices(minimal);
    let shrunk = gen
        .generate(&mut src)
        .expect("shrunk choices regenerate the counterexample");
    panic!(
        "property '{name}' failed.\n\
         minimal input: {shrunk:#?}\n\
         (original input: {value:#?})\n\
         replay with: DCG_PROPTEST_SEED={case_seed:#x} \
         (env DCG_PROPTEST_CASES adjusts the case count)"
    );
}

thread_local! {
    /// Set while a property executes under `catch_unwind`, so its panics
    /// are not printed (shrinking re-runs the property hundreds of times).
    static QUIET_PANICS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Install (once, process-wide) a panic hook that suppresses output from
/// threads currently probing a property. Other threads keep the previous
/// hook's behaviour, so this is safe under the parallel test runner.
fn install_quiet_hook() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(std::cell::Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Run the property, swallowing its panic output; `true` means pass.
fn passes<T, F: Fn(T)>(property: &F, value: T) -> bool {
    install_quiet_hook();
    QUIET_PANICS.with(|q| q.set(true));
    let result = catch_unwind(AssertUnwindSafe(|| property(value))).is_ok();
    QUIET_PANICS.with(|q| q.set(false));
    result
}

/// Is the candidate choice stream still a counterexample?
fn still_fails<T, F>(gen: &Gen<T>, property: &F, candidate: &[u64]) -> bool
where
    T: Clone + Debug + 'static,
    F: Fn(T),
{
    let mut src = Source::from_choices(candidate.to_vec());
    match gen.generate(&mut src) {
        Some(v) => !passes(property, v),
        None => false,
    }
}

/// Choice-stream shrinking: chunk deletion, then per-choice minimisation
/// (zero, then binary search), iterated to a fixpoint or budget.
fn shrink<T, F>(gen: &Gen<T>, property: &F, mut best: Vec<u64>) -> Vec<u64>
where
    T: Clone + Debug + 'static,
    F: Fn(T),
{
    let mut budget = SHRINK_BUDGET;
    let spend = |gen: &Gen<T>, property: &F, cand: &[u64], budget: &mut u32| -> bool {
        if *budget == 0 {
            return false;
        }
        *budget -= 1;
        still_fails(gen, property, cand)
    };

    loop {
        let mut improved = false;

        // Pass 1: delete chunks, largest first.
        let mut size = best.len().max(1) / 2;
        while size >= 1 {
            let mut start = 0;
            while start + size <= best.len() {
                let mut cand = best.clone();
                cand.drain(start..start + size);
                if spend(gen, property, &cand, &mut budget) {
                    best = cand;
                    improved = true;
                    // Re-try the same window (it now holds new content).
                } else {
                    start += size;
                }
            }
            size /= 2;
        }

        // Pass 2: minimise individual choices.
        for i in 0..best.len() {
            if best[i] == 0 {
                continue;
            }
            let mut cand = best.clone();
            cand[i] = 0;
            if spend(gen, property, &cand, &mut budget) {
                best = cand;
                improved = true;
                continue;
            }
            // Binary search the smallest failing value in (0, best[i]).
            let (mut lo, mut hi) = (0u64, best[i]);
            while lo + 1 < hi {
                let mid = lo + (hi - lo) / 2;
                let mut cand = best.clone();
                cand[i] = mid;
                if spend(gen, property, &cand, &mut budget) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            if hi < best[i] {
                best[i] = hi;
                improved = true;
            }
        }

        if !improved || budget == 0 {
            return best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let counted = std::cell::Cell::new(0u32);
        check("always_true", 0u32..100, |_| {
            counted.set(counted.get() + 1);
        });
        assert!(counted.get() >= DEFAULT_CASES);
    }

    #[test]
    fn failure_reports_replay_seed_and_shrinks() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            check("ints_below_50", 0u32..1000, |v| {
                assert!(v < 50, "too big: {v}");
            });
        }));
        let err = result.expect_err("property must fail");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("panic payload is a string");
        assert!(
            msg.contains("DCG_PROPTEST_SEED=0x"),
            "replay seed missing from: {msg}"
        );
        assert!(
            msg.contains("minimal input: 50"),
            "shrinker should find exactly 50: {msg}"
        );
    }

    #[test]
    fn vectors_shrink_to_minimal_counterexamples() {
        // Failing iff the vec contains an element >= 10; minimal
        // counterexample is the single-element vec [10].
        let result = catch_unwind(AssertUnwindSafe(|| {
            check("all_small", vec(0u32..1000, 0..20usize), |v| {
                assert!(v.iter().all(|&x| x < 10));
            });
        }));
        let msg = result
            .expect_err("must fail")
            .downcast_ref::<String>()
            .cloned()
            .expect("string payload");
        assert!(
            msg.contains("minimal input: [\n    10,\n]") || msg.contains("minimal input: [10]"),
            "expected [10], got: {msg}"
        );
    }

    #[test]
    fn tuples_and_maps_compose() {
        check(
            "mapped_tuple",
            tuple((0u8..10, 0u8..10)).map(|(a, b)| u16::from(a) * 10 + u16::from(b)),
            |v| assert!(v < 100),
        );
    }

    #[test]
    fn filter_restricts_domain() {
        check(
            "evens_only",
            (0u32..1000).into_gen().filter(|v| v % 2 == 0),
            |v| {
                assert_eq!(v % 2, 0);
            },
        );
    }

    #[test]
    fn option_and_one_of_generate_both_arms() {
        let (mut nones, mut somes) = (0, 0);
        let g = option(0u8..5);
        let mut src = Source::from_seed(99);
        for _ in 0..200 {
            match g.generate(&mut src).unwrap() {
                None => nones += 1,
                Some(v) => {
                    assert!(v < 5);
                    somes += 1;
                }
            }
        }
        assert!(nones > 20 && somes > 20, "nones={nones} somes={somes}");
    }

    #[test]
    fn too_strict_filter_reports_cleanly() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            check(
                "impossible",
                (0u32..10).into_gen().filter(|_| false),
                |_| {},
            );
        }));
        let msg = result
            .expect_err("must give up")
            .downcast_ref::<String>()
            .cloned()
            .expect("string payload");
        assert!(msg.contains("filter too strict"), "{msg}");
    }

    #[test]
    fn shrunk_choices_regenerate_deterministically() {
        let g = tuple((0u64..=u64::MAX, 0u64..=u64::MAX)).into_gen();
        let mut a = Source::from_choices(vec![3, 7]);
        let mut b = Source::from_choices(vec![3, 7]);
        assert_eq!(g.generate(&mut a), g.generate(&mut b));
    }
}
