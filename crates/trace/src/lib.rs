//! # dcg-trace — the activity-trace format
//!
//! Simulate once, replay forever: an activity trace stores the full
//! per-cycle [`dcg_sim::CycleActivity`] stream of one simulation in
//! checksummed columnar blocks, so gating policies, power accounting and
//! statistics replay bit-exactly without re-running the pipeline. The
//! trace store in `dcg-core` keeps these files (`.dcgact`).
//!
//! ```
//! use dcg_sim::CycleActivity;
//! use dcg_trace::{ActivityHeader, ActivityTraceReader, ActivityTraceWriter};
//!
//! # fn main() -> Result<(), dcg_trace::TraceError> {
//! // Record three cycles of one (config, workload, seed) tuple.
//! let header = ActivityHeader::new("gzip", 0x5eed, 1, 0, 6, 4)?;
//! let mut writer = ActivityTraceWriter::new(Vec::new(), &header)?;
//! for _ in 0..3 {
//!     let cycle = CycleActivity { committed: 2, latch_occupancy: vec![0; 4], ..Default::default() };
//!     writer.write_cycle(&cycle)?;
//! }
//! let bytes = writer.finish()?;
//!
//! // Replay: the trailer proves the file whole before any record decodes.
//! let mut reader = ActivityTraceReader::new(&bytes[..])?;
//! assert_eq!(reader.verified_totals(), Some((3, 6)));
//! let mut cycle = CycleActivity::default();
//! while reader.read_cycle(&mut cycle)? {}
//! assert_eq!(cycle.cycle, 3);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod activity;
mod error;
mod mmap;
mod varint;

pub use activity::{
    payload_checksum, ActivityHeader, ActivityTraceReader, ActivityTraceWriter,
    ACTIVITY_BLOCK_HEADER_LEN, ACTIVITY_MAGIC, ACTIVITY_SCHEMA, ACTIVITY_TRAILER_LEN,
    ACTIVITY_TRAILER_MAGIC, ACTIVITY_VERSION, MAX_GRANTS, MAX_GROUPS,
};
pub use error::TraceError;
pub use mmap::TraceData;
