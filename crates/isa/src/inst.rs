//! Dynamic instruction representation.

use std::fmt;

use crate::{ArchReg, OpClass};

/// Kind of control transfer for [`BranchInfo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// Conditional branch; direction given by [`BranchInfo::taken`].
    Conditional,
    /// Unconditional direct jump (always taken).
    Jump,
    /// Subroutine call (pushes a return-address-stack entry).
    Call,
    /// Subroutine return (pops the return-address stack).
    Return,
}

impl BranchKind {
    /// `true` if the direction of this kind is always "taken".
    #[inline]
    pub fn is_unconditional(self) -> bool {
        !matches!(self, BranchKind::Conditional)
    }
}

/// Resolved control behaviour of a branch instruction.
///
/// Because the workload generators are trace-like, the *actual* outcome is
/// carried with the instruction; the simulator's branch predictor makes its
/// own prediction and is penalised when it disagrees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchInfo {
    /// Kind of control transfer.
    pub kind: BranchKind,
    /// Actual direction (always `true` for unconditional kinds).
    pub taken: bool,
    /// Actual target address when taken.
    pub target: u64,
}

impl BranchInfo {
    /// A conditional branch with the given actual direction and target.
    #[inline]
    pub fn conditional(taken: bool, target: u64) -> BranchInfo {
        BranchInfo {
            kind: BranchKind::Conditional,
            taken,
            target,
        }
    }
}

/// Resolved memory behaviour of a load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Effective virtual address.
    pub addr: u64,
    /// Access size in bytes (1, 2, 4 or 8).
    pub size: u8,
}

impl MemRef {
    /// A naturally-aligned access of `size` bytes at `addr`.
    #[inline]
    pub fn new(addr: u64, size: u8) -> MemRef {
        MemRef { addr, size }
    }
}

/// A dynamic (already-executed, trace-like) instruction.
///
/// Construction uses a small builder-style API: start from one of the class
/// constructors ([`Inst::alu`], [`Inst::load`], [`Inst::store`],
/// [`Inst::branch`]) and chain `with_*` methods.
///
/// # Example
///
/// ```
/// use dcg_isa::{ArchReg, Inst, MemRef, OpClass};
///
/// let ld = Inst::load(0x2000, MemRef::new(0x8000_0010, 8))
///     .with_dest(ArchReg::int(4))
///     .with_srcs([Some(ArchReg::int(29)), None]);
/// assert_eq!(ld.op, OpClass::Load);
/// assert_eq!(ld.mem.unwrap().addr, 0x8000_0010);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Inst {
    /// Program counter of this instruction.
    pub pc: u64,
    /// Operation class.
    pub op: OpClass,
    /// Destination register, if any.
    pub dest: Option<ArchReg>,
    /// Up to two source registers.
    pub srcs: [Option<ArchReg>; 2],
    /// Memory behaviour (loads and stores only).
    pub mem: Option<MemRef>,
    /// Control behaviour (branches only).
    pub branch: Option<BranchInfo>,
}

impl Inst {
    /// A non-memory, non-branch instruction of class `op`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is a memory or branch class; use [`Inst::load`],
    /// [`Inst::store`] or [`Inst::branch`] for those.
    #[inline]
    pub fn alu(pc: u64, op: OpClass) -> Inst {
        assert!(
            !op.is_mem() && op != OpClass::Branch,
            "use the load/store/branch constructors for {op}"
        );
        Inst {
            pc,
            op,
            dest: None,
            srcs: [None, None],
            mem: None,
            branch: None,
        }
    }

    /// A load instruction accessing `mem`.
    #[inline]
    pub fn load(pc: u64, mem: MemRef) -> Inst {
        Inst {
            pc,
            op: OpClass::Load,
            dest: None,
            srcs: [None, None],
            mem: Some(mem),
            branch: None,
        }
    }

    /// A store instruction accessing `mem`.
    #[inline]
    pub fn store(pc: u64, mem: MemRef) -> Inst {
        Inst {
            pc,
            op: OpClass::Store,
            dest: None,
            srcs: [None, None],
            mem: Some(mem),
            branch: None,
        }
    }

    /// A branch instruction with resolved behaviour `info`.
    #[inline]
    pub fn branch(pc: u64, info: BranchInfo) -> Inst {
        Inst {
            pc,
            op: OpClass::Branch,
            dest: None,
            srcs: [None, None],
            mem: None,
            branch: Some(info),
        }
    }

    /// Set the destination register.
    #[inline]
    pub fn with_dest(mut self, dest: ArchReg) -> Inst {
        self.dest = Some(dest);
        self
    }

    /// Set the source registers.
    #[inline]
    pub fn with_srcs(mut self, srcs: [Option<ArchReg>; 2]) -> Inst {
        self.srcs = srcs;
        self
    }

    /// Fall-through address (`pc + 4`); every instruction is 4 bytes.
    #[inline]
    pub fn next_pc(&self) -> u64 {
        self.pc.wrapping_add(4)
    }

    /// Address of the instruction that actually executes after this one.
    ///
    /// For taken branches this is the branch target, otherwise `pc + 4`.
    #[inline]
    pub fn successor_pc(&self) -> u64 {
        match self.branch {
            Some(b) if b.taken => b.target,
            _ => self.next_pc(),
        }
    }

    /// `true` if this instruction is a taken branch.
    #[inline]
    pub fn is_taken_branch(&self) -> bool {
        matches!(self.branch, Some(b) if b.taken)
    }

    /// Number of register source operands actually present.
    #[inline]
    pub fn src_count(&self) -> usize {
        self.srcs.iter().filter(|s| s.is_some()).count()
    }

    /// Check internal consistency; used by the workload generators' and
    /// the simulator front end's debug assertions.
    ///
    /// Consistency rules:
    /// * memory classes carry `mem`, non-memory classes do not;
    /// * the branch class carries `branch`, others do not;
    /// * unconditional branches are taken;
    /// * classes that write no result carry no destination.
    pub fn is_well_formed(&self) -> bool {
        let mem_ok = self.op.is_mem() == self.mem.is_some();
        let br_ok = (self.op == OpClass::Branch) == self.branch.is_some();
        let uncond_ok = match self.branch {
            Some(b) => !b.kind.is_unconditional() || b.taken,
            None => true,
        };
        let dest_ok = self.op.writes_result() || self.dest.is_none();
        mem_ok && br_ok && uncond_ok && dest_ok
    }
}

impl fmt::Display for Inst {
    /// Assembly-style rendering, e.g.
    /// `0x00001000: int-alu r1, r2 -> r3`,
    /// `0x00001004: load [0x20000000] -> r4`,
    /// `0x00001008: branch r5, taken -> 0x1000`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}: {}", self.pc, self.op)?;
        let mut first = true;
        for src in self.srcs.iter().flatten() {
            write!(f, "{} {src}", if first { "" } else { "," })?;
            first = false;
        }
        if let Some(m) = self.mem {
            write!(f, "{} [{:#x}]", if first { "" } else { "," }, m.addr)?;
        }
        if let Some(b) = self.branch {
            write!(
                f,
                "{} {} -> {:#x}",
                if first { "" } else { "," },
                if b.taken { "taken" } else { "not-taken" },
                b.target
            )?;
        } else if let Some(d) = self.dest {
            write!(f, " -> {d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArchReg;

    #[test]
    fn alu_constructor_builds_well_formed() {
        let i = Inst::alu(0x10, OpClass::FpMul)
            .with_dest(ArchReg::fp(1))
            .with_srcs([Some(ArchReg::fp(2)), Some(ArchReg::fp(3))]);
        assert!(i.is_well_formed());
        assert_eq!(i.src_count(), 2);
        assert_eq!(i.successor_pc(), 0x14);
    }

    #[test]
    #[should_panic(expected = "constructors")]
    fn alu_constructor_rejects_load() {
        let _ = Inst::alu(0, OpClass::Load);
    }

    #[test]
    fn taken_branch_successor_is_target() {
        let b = Inst::branch(0x100, BranchInfo::conditional(true, 0x40));
        assert!(b.is_taken_branch());
        assert_eq!(b.successor_pc(), 0x40);

        let nt = Inst::branch(0x100, BranchInfo::conditional(false, 0x40));
        assert!(!nt.is_taken_branch());
        assert_eq!(nt.successor_pc(), 0x104);
    }

    #[test]
    fn not_taken_unconditional_is_malformed() {
        let bad = Inst::branch(
            0,
            BranchInfo {
                kind: BranchKind::Jump,
                taken: false,
                target: 8,
            },
        );
        assert!(!bad.is_well_formed());
    }

    #[test]
    fn store_with_dest_is_malformed() {
        let bad = Inst::store(0, MemRef::new(64, 8)).with_dest(ArchReg::int(1));
        assert!(!bad.is_well_formed());
    }

    #[test]
    fn mem_presence_matches_class() {
        let ld = Inst::load(0, MemRef::new(0, 4));
        assert!(ld.is_well_formed());
        let mut not_ld = ld;
        not_ld.mem = None;
        assert!(!not_ld.is_well_formed());
    }

    #[test]
    fn pc_wraps_safely() {
        let i = Inst::alu(u64::MAX - 1, OpClass::IntAlu);
        assert_eq!(i.next_pc(), 2);
    }

    #[test]
    fn display_renders_assembly_style() {
        let add = Inst::alu(0x1000, OpClass::IntAlu)
            .with_dest(ArchReg::int(3))
            .with_srcs([Some(ArchReg::int(1)), Some(ArchReg::int(2))]);
        assert_eq!(add.to_string(), "0x00001000: int-alu r1, r2 -> r3");

        let ld = Inst::load(0x1004, MemRef::new(0x2000_0000, 8))
            .with_dest(ArchReg::int(4))
            .with_srcs([Some(ArchReg::int(29)), None]);
        assert_eq!(ld.to_string(), "0x00001004: load r29, [0x20000000] -> r4");

        let br = Inst::branch(0x1008, BranchInfo::conditional(true, 0x1000))
            .with_srcs([Some(ArchReg::int(5)), None]);
        assert_eq!(br.to_string(), "0x00001008: branch r5, taken -> 0x1000");

        let st = Inst::store(0x100c, MemRef::new(0x40, 8));
        assert_eq!(st.to_string(), "0x0000100c: store [0x40]");
    }
}
