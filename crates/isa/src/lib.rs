//! # dcg-isa — instruction-set model for the DCG reproduction
//!
//! An Alpha-like 64-bit RISC instruction-set abstraction used by the
//! out-of-order simulator (`dcg-sim`), the synthetic workload generators
//! (`dcg-workloads`) and the clock-gating policies (`dcg-core`).
//!
//! The paper ("Deterministic Clock Gating for Microprocessor Power
//! Reduction", HPCA 2003) evaluates pre-compiled Alpha SPEC2000 binaries.
//! This reproduction substitutes synthetic instruction streams, so the ISA
//! layer only needs to capture what the *microarchitecture* observes about
//! an instruction:
//!
//! * which **operation class** it is (and therefore which execution-unit
//!   class it occupies, and for how long),
//! * its **register operands** (for renaming and wakeup),
//! * its **memory behaviour** (effective address, load vs. store),
//! * its **control behaviour** (branch target and actual direction).
//!
//! Nothing records instructions: the simulator's per-cycle activity, not
//! the instruction stream, is what the trace store keeps and replays.
//!
//! # Example
//!
//! ```
//! use dcg_isa::{Inst, OpClass, ArchReg};
//!
//! let add = Inst::alu(0x1000, OpClass::IntAlu)
//!     .with_dest(ArchReg::int(3))
//!     .with_srcs([Some(ArchReg::int(1)), Some(ArchReg::int(2))]);
//! assert_eq!(add.op, OpClass::IntAlu);
//! assert!(add.mem.is_none());
//! assert!(add.branch.is_none());
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod inst;
mod op;
mod reg;

pub use inst::{BranchInfo, BranchKind, Inst, MemRef};
pub use op::{FuClass, OpClass};
pub use reg::{ArchReg, RegFileKind, NUM_ARCH_REGS, NUM_FP_REGS, NUM_INT_REGS};
