//! Instruction-mix distribution.

use dcg_isa::OpClass;

/// A probability distribution over [`OpClass`].
///
/// The mix drives static-code generation: each non-branch static instruction
/// slot samples its class from the (branch-excluded, renormalised) mix, and
/// the branch fraction sets the average basic-block length.
///
/// # Example
///
/// ```
/// use dcg_workloads::OpMix;
/// use dcg_isa::OpClass;
///
/// let mix = OpMix::typical_integer();
/// assert!((mix.total() - 1.0).abs() < 1e-9);
/// assert!(mix.fraction(OpClass::IntAlu) > mix.fraction(OpClass::FpMul));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    fractions: [f64; OpClass::COUNT],
}

impl OpMix {
    /// Build a mix from per-class fractions (indexed by [`OpClass::index`]).
    ///
    /// # Panics
    ///
    /// Panics if any fraction is negative, non-finite, or the total is not
    /// within `1e-6` of 1.0.
    pub fn new(fractions: [f64; OpClass::COUNT]) -> OpMix {
        for (i, f) in fractions.iter().enumerate() {
            assert!(
                f.is_finite() && *f >= 0.0,
                "fraction for {:?} must be finite and non-negative, got {f}",
                OpClass::from_index(i)
            );
        }
        let total: f64 = fractions.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "mix fractions must sum to 1.0, got {total}"
        );
        OpMix { fractions }
    }

    /// Convenience constructor from named fractions.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        int_alu: f64,
        int_mul: f64,
        int_div: f64,
        fp_alu: f64,
        fp_mul: f64,
        fp_div: f64,
        load: f64,
        store: f64,
        branch: f64,
    ) -> OpMix {
        OpMix::new([
            int_alu, int_mul, int_div, fp_alu, fp_mul, fp_div, load, store, branch,
        ])
    }

    /// A representative SPECint-like mix: ALU-heavy, no floating point,
    /// frequent branches.
    pub fn typical_integer() -> OpMix {
        OpMix::from_parts(0.46, 0.02, 0.005, 0.0, 0.0, 0.0, 0.24, 0.115, 0.16)
    }

    /// A representative SPECfp-like mix: substantial FP work, fewer
    /// branches, more loads.
    pub fn typical_fp() -> OpMix {
        OpMix::from_parts(0.26, 0.01, 0.005, 0.17, 0.12, 0.015, 0.27, 0.10, 0.05)
    }

    /// Fraction of instructions in class `op`.
    #[inline]
    pub fn fraction(&self, op: OpClass) -> f64 {
        self.fractions[op.index()]
    }

    /// Sum of all fractions (1.0 up to construction tolerance).
    pub fn total(&self) -> f64 {
        self.fractions.iter().sum()
    }

    /// Fraction of instructions that are branches.
    pub fn branch_fraction(&self) -> f64 {
        self.fraction(OpClass::Branch)
    }

    /// Fraction of instructions that are floating point.
    pub fn fp_fraction(&self) -> f64 {
        OpClass::ALL
            .iter()
            .filter(|c| c.is_fp())
            .map(|c| self.fraction(*c))
            .sum()
    }

    /// Sample a class from the mix *excluding branches* (renormalised),
    /// given a uniform random value `u` in `[0, 1)`.
    ///
    /// Branches are placed structurally (at basic-block boundaries) by the
    /// generator, so block bodies sample from the non-branch remainder.
    pub fn sample_non_branch(&self, u: f64) -> OpClass {
        debug_assert!((0.0..1.0).contains(&u), "u must be in [0,1)");
        let non_branch_total: f64 = OpClass::ALL
            .iter()
            .filter(|c| **c != OpClass::Branch)
            .map(|c| self.fraction(*c))
            .sum();
        let mut target = u * non_branch_total;
        for op in OpClass::ALL {
            if op == OpClass::Branch {
                continue;
            }
            let f = self.fraction(op);
            if target < f {
                return op;
            }
            target -= f;
        }
        // Floating-point slack: fall back to the most common class.
        OpClass::IntAlu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_mixes_are_valid() {
        for mix in [OpMix::typical_integer(), OpMix::typical_fp()] {
            assert!((mix.total() - 1.0).abs() < 1e-6);
        }
        assert_eq!(OpMix::typical_integer().fp_fraction(), 0.0);
        assert!(OpMix::typical_fp().fp_fraction() > 0.25);
    }

    #[test]
    #[should_panic(expected = "sum to 1.0")]
    fn rejects_bad_total() {
        let _ = OpMix::from_parts(0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative() {
        let _ = OpMix::from_parts(1.1, -0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    }

    #[test]
    fn sample_never_returns_branch() {
        let mix = OpMix::typical_integer();
        for i in 0..1000 {
            let u = f64::from(i) / 1000.0;
            assert_ne!(mix.sample_non_branch(u), OpClass::Branch);
        }
    }

    #[test]
    fn sample_tracks_fractions() {
        let mix = OpMix::typical_fp();
        let n = 200_000;
        let mut counts = [0usize; OpClass::COUNT];
        for i in 0..n {
            let u = (f64::from(i) + 0.5) / f64::from(n);
            counts[mix.sample_non_branch(u).index()] += 1;
        }
        let non_branch = 1.0 - mix.branch_fraction();
        for op in OpClass::ALL {
            if op == OpClass::Branch {
                continue;
            }
            let expected = mix.fraction(op) / non_branch;
            let got = counts[op.index()] as f64 / f64::from(n);
            assert!(
                (got - expected).abs() < 0.01,
                "{op}: expected {expected:.3}, got {got:.3}"
            );
        }
    }
}
