//! `dcg-testkit` — hermetic test substrate for the DCG reproduction.
//!
//! The paper's headline claim (power savings with *zero* performance
//! loss, HPCA 2003) rests on deterministic, repeatable simulation. This
//! crate makes the whole workspace verifiable with **no external
//! dependencies**, so `cargo build --offline --locked` and
//! `cargo test --offline` work in a sealed environment:
//!
//! - [`rng`] — a seedable xoshiro256** PRNG ([`rng::SmallRng`]) behind the
//!   same API surface the workspace previously used from `rand`; every
//!   workload stream is a bit-reproducible function of a `u64` seed.
//! - [`prop`] — a property-testing runner (replaces `proptest`):
//!   choice-stream generation with automatic shrinking for integers,
//!   tuples, options and vectors; case count via `DCG_PROPTEST_CASES`;
//!   failing cases print a replayable `DCG_PROPTEST_SEED`.
//! - [`bench`](mod@bench) — [`bench::time`], the wall-clock timer behind the
//!   suite's elapsed times.
//! - [`json`] — the minimal JSON writer behind every result document.
//!
//! See `crates/testkit/README.md` for the user guide.

#![warn(missing_docs)]

pub mod bench;
pub mod env;
pub mod json;
pub mod prop;
pub mod rng;

pub use env::env_u64;
pub use prop::{check, Gen};
pub use rng::SmallRng;
