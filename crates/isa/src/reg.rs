//! Architectural registers.
//!
//! The Alpha architecture (which the paper's binaries target) has 32 integer
//! and 32 floating-point registers. Register 31 of each file reads as zero
//! and writes to it are discarded; the workload generators use that
//! convention to emit result-less operations where needed.

use std::fmt;

/// Number of integer architectural registers.
pub const NUM_INT_REGS: u8 = 32;
/// Number of floating-point architectural registers.
pub const NUM_FP_REGS: u8 = 32;
/// Total number of architectural registers (integer + floating point).
pub const NUM_ARCH_REGS: u8 = NUM_INT_REGS + NUM_FP_REGS;

/// Which register file an [`ArchReg`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RegFileKind {
    /// Integer register file (`r0..r31`).
    Int,
    /// Floating-point register file (`f0..f31`).
    Fp,
}

impl fmt::Display for RegFileKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegFileKind::Int => f.write_str("int"),
            RegFileKind::Fp => f.write_str("fp"),
        }
    }
}

/// An architectural register, encoded as a dense index `0..NUM_ARCH_REGS`.
///
/// Indices `0..32` are the integer file, `32..64` the FP file. The dense
/// encoding lets the rename stage keep a single flat map table.
///
/// # Example
///
/// ```
/// use dcg_isa::{ArchReg, RegFileKind};
///
/// let r5 = ArchReg::int(5);
/// let f5 = ArchReg::fp(5);
/// assert_ne!(r5, f5);
/// assert_eq!(r5.file(), RegFileKind::Int);
/// assert_eq!(f5.file(), RegFileKind::Fp);
/// assert_eq!(f5.number(), 5);
/// assert_eq!(r5.to_string(), "r5");
/// assert_eq!(f5.to_string(), "f5");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArchReg(u8);

impl ArchReg {
    /// The integer zero register (`r31`): reads as zero, writes discarded.
    pub const INT_ZERO: ArchReg = ArchReg(NUM_INT_REGS - 1);
    /// The FP zero register (`f31`): reads as zero, writes discarded.
    pub const FP_ZERO: ArchReg = ArchReg(NUM_ARCH_REGS - 1);

    /// Integer register `r<n>`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    #[inline]
    pub fn int(n: u8) -> ArchReg {
        assert!(n < NUM_INT_REGS, "integer register index {n} out of range");
        ArchReg(n)
    }

    /// Floating-point register `f<n>`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    #[inline]
    pub fn fp(n: u8) -> ArchReg {
        assert!(n < NUM_FP_REGS, "fp register index {n} out of range");
        ArchReg(NUM_INT_REGS + n)
    }

    /// Dense index in `0..NUM_ARCH_REGS`, suitable for flat map tables.
    #[inline]
    pub fn dense(self) -> usize {
        usize::from(self.0)
    }

    /// The register file this register belongs to.
    #[inline]
    pub fn file(self) -> RegFileKind {
        if self.0 < NUM_INT_REGS {
            RegFileKind::Int
        } else {
            RegFileKind::Fp
        }
    }

    /// Register number within its file (`0..32`).
    #[inline]
    pub fn number(self) -> u8 {
        if self.0 < NUM_INT_REGS {
            self.0
        } else {
            self.0 - NUM_INT_REGS
        }
    }

    /// `true` if this is a hard-wired zero register (writes are discarded and
    /// never allocate a rename mapping).
    #[inline]
    pub fn is_zero(self) -> bool {
        self == Self::INT_ZERO || self == Self::FP_ZERO
    }
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.file() {
            RegFileKind::Int => write!(f, "r{}", self.number()),
            RegFileKind::Fp => write!(f, "f{}", self.number()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_indices_cover_both_files_once() {
        for n in 0..32 {
            assert_eq!(ArchReg::int(n).dense(), usize::from(n));
            assert_eq!(ArchReg::fp(n).dense(), usize::from(NUM_INT_REGS + n));
        }
        assert_eq!(ArchReg::FP_ZERO.dense(), usize::from(NUM_ARCH_REGS) - 1);
    }

    #[test]
    fn int_and_fp_files_are_disjoint() {
        for n in 0..32 {
            assert_eq!(ArchReg::int(n).file(), RegFileKind::Int);
            assert_eq!(ArchReg::fp(n).file(), RegFileKind::Fp);
            assert_ne!(ArchReg::int(n), ArchReg::fp(n));
            assert_eq!(ArchReg::int(n).number(), n);
            assert_eq!(ArchReg::fp(n).number(), n);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn int_constructor_rejects_out_of_range() {
        let _ = ArchReg::int(32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fp_constructor_rejects_out_of_range() {
        let _ = ArchReg::fp(32);
    }

    #[test]
    fn zero_registers() {
        assert!(ArchReg::INT_ZERO.is_zero());
        assert!(ArchReg::FP_ZERO.is_zero());
        assert!(!ArchReg::int(0).is_zero());
        assert_eq!(ArchReg::INT_ZERO.number(), 31);
        assert_eq!(ArchReg::FP_ZERO.number(), 31);
    }

    #[test]
    fn display_format() {
        assert_eq!(ArchReg::int(0).to_string(), "r0");
        assert_eq!(ArchReg::fp(17).to_string(), "f17");
    }
}
