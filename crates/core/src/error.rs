//! The workspace error type for fallible simulate-once paths.
//!
//! Live simulations cannot fail — the generator is infallible and the
//! pipeline is pure computation — but replayed activity comes from bytes
//! on disk, which can be truncated, corrupted or simply shorter than the
//! run being driven. Those conditions surface as [`DcgError`] values from
//! the `_source` runner variants and the trace cache instead of panics,
//! so callers (the experiment suite, the fault-injection campaign) can
//! degrade gracefully: evict the bad entry and re-simulate live.

use std::error::Error;
use std::fmt;

use dcg_trace::TraceError;

use crate::store::StoreError;

/// An error surfaced while driving a simulate-once pass.
#[derive(Debug)]
pub enum DcgError {
    /// A trace-layer failure outside a replay drive (open, decode setup,
    /// recording I/O).
    Trace(TraceError),
    /// A trace-store metadata failure (log checkpoint or append).
    /// Entry payloads are never lost to these — the recovery sweep
    /// rebuilds the index from the surviving files.
    Store(StoreError),
    /// A replayed activity trace ended before the run reached its target
    /// instruction count.
    ReplayExhausted {
        /// Benchmark name from the trace header.
        name: String,
        /// Cycles successfully replayed before the end.
        cycles: u64,
        /// Instructions committed by the replayed cycles.
        committed: u64,
        /// Instructions the run wanted (warm-up + measure).
        wanted: u64,
    },
    /// A replayed activity trace failed to decode mid-stream.
    ReplayCorrupt {
        /// Benchmark name from the trace header.
        name: String,
        /// The (1-based) cycle whose record failed to decode.
        cycle: u64,
        /// The underlying decode failure.
        source: TraceError,
    },
}

impl fmt::Display for DcgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DcgError::Trace(e) => write!(f, "trace error: {e}"),
            DcgError::Store(e) => write!(f, "{e}"),
            DcgError::ReplayExhausted {
                name,
                cycles,
                committed,
                wanted,
            } => write!(
                f,
                "activity trace '{name}' ended early at cycle {cycles} \
                 ({committed} committed, {wanted} wanted)"
            ),
            DcgError::ReplayCorrupt {
                name,
                cycle,
                source,
            } => write!(
                f,
                "activity trace '{name}' is corrupt at cycle {cycle}: {source}"
            ),
        }
    }
}

impl Error for DcgError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DcgError::Trace(e) | DcgError::ReplayCorrupt { source: e, .. } => Some(e),
            DcgError::Store(e) => Some(e),
            DcgError::ReplayExhausted { .. } => None,
        }
    }
}

impl From<TraceError> for DcgError {
    fn from(e: TraceError) -> Self {
        DcgError::Trace(e)
    }
}

impl From<StoreError> for DcgError {
    fn from(e: StoreError) -> Self {
        DcgError::Store(e)
    }
}

/// The message of a caught panic payload: its text when the panic
/// carried a string, a fixed placeholder otherwise. It takes the box
/// itself: a `&Box` would coerce to a `&dyn Any` of the box, whose
/// downcasts all fail.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_every_variant_and_sources_are_wired() {
        let t = DcgError::from(TraceError::BadName);
        assert!(t.to_string().contains("trace error"));
        assert!(t.source().is_some());

        let e = DcgError::ReplayExhausted {
            name: "gzip".into(),
            cycles: 7,
            committed: 12,
            wanted: 99,
        };
        let msg = e.to_string();
        assert!(msg.contains("gzip") && msg.contains("ended early"));
        assert!(e.source().is_none());

        let c = DcgError::ReplayCorrupt {
            name: "swim".into(),
            cycle: 3,
            source: TraceError::BadActivity("flag"),
        };
        assert!(c.to_string().contains("corrupt at cycle 3"));
        assert!(c.source().is_some());
    }

    #[test]
    fn panic_message_reads_string_payloads() {
        let message = |f: fn()| panic_message(std::panic::catch_unwind(f).expect_err("panics"));
        assert_eq!(message(|| panic!("static text")), "static text");
        assert_eq!(message(|| panic!("formatted {}", 7)), "formatted 7");
        assert_eq!(
            message(|| std::panic::panic_any(7u8)),
            "non-string panic payload"
        );
    }
}
