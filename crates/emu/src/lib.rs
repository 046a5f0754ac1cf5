//! Real-program frontend for the DCG reproduction: a two-pass assembler
//! and a functional emulator over the `dcg-isa` vocabulary.
//!
//! The rest of the workspace consumes *dynamic* instructions — trace-like
//! [`dcg_isa::Inst`]s whose memory addresses and branch directions are
//! already resolved. This crate supplies the layer that produces such
//! traces from real programs:
//!
//! * [`assemble`] turns `.asm` text (labels, the register/op vocabulary of
//!   `dcg-isa`, immediates) into a [`Program`] of static [`AsmInst`]s;
//!   [`disassemble`] is its inverse and the pair is a fixed point.
//! * [`Emulator`] executes a [`Program`] in architectural order —
//!   registers plus a flat little-endian memory — emitting one
//!   [`CommitRecord`] per instruction. It is the *golden reference model*:
//!   the pipeline's retired stream must match it instruction-for-
//!   instruction (the differential harness lives in `dcg-experiments`).
//!
//! The emulator is intentionally timing-free: no caches, no speculation,
//! no stalls. Anything it disagrees with the pipeline about is by
//! construction a functional bug in one of the two.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod asm;
mod emulator;
mod program;

pub use asm::{assemble, disassemble, AsmError, DisasmError};
pub use emulator::{CommitRecord, EmuError, Emulator, Memory};
pub use program::{link_reg, AsmInst, Funct, Program, ShapeError, TEXT_BASE};
