//! Static program representation: operations and instructions.
//!
//! The trace-like [`Inst`] the simulator consumes carries *resolved*
//! behaviour (effective addresses, actual branch directions), so a static
//! program needs its own instruction type: [`AsmInst`] keeps the operation
//! ([`Funct`]), register operands and an immediate, and the emulator
//! resolves them into dynamic [`Inst`]s at execution time.

use std::error::Error;
use std::fmt;

use dcg_isa::{ArchReg, BranchInfo, BranchKind, Inst, MemRef, OpClass, RegFileKind};

/// Base address of the text segment: PCs are `TEXT_BASE + 4 * index`.
pub const TEXT_BASE: u64 = 0x1000;

/// The link register written by `call` and read by `ret` (`r30`).
pub fn link_reg() -> ArchReg {
    ArchReg::int(30)
}

/// The concrete operation of a static instruction — the "function code"
/// within an [`OpClass`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // the variants are the mnemonics; see `mnemonic()`
pub enum Funct {
    // IntAlu
    Add,
    Sub,
    And,
    Or,
    Xor,
    Sll,
    Srl,
    Sra,
    Slt,
    Sltu,
    // IntMul
    Mul,
    // IntDiv
    Div,
    Rem,
    // FpAlu
    FAdd,
    FSub,
    Itof,
    // FpMul
    FMul,
    // FpDiv
    FDiv,
    // Load / Store (the access size lives in `AsmInst::size`)
    Load,
    Store,
    // Branch
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
    Jmp,
    Call,
    Ret,
    Halt,
}

impl Funct {
    /// All operations in a fixed order.
    pub const ALL: [Funct; 30] = [
        Funct::Add,
        Funct::Sub,
        Funct::And,
        Funct::Or,
        Funct::Xor,
        Funct::Sll,
        Funct::Srl,
        Funct::Sra,
        Funct::Slt,
        Funct::Sltu,
        Funct::Mul,
        Funct::Div,
        Funct::Rem,
        Funct::FAdd,
        Funct::FSub,
        Funct::Itof,
        Funct::FMul,
        Funct::FDiv,
        Funct::Load,
        Funct::Store,
        Funct::Beq,
        Funct::Bne,
        Funct::Blt,
        Funct::Bge,
        Funct::Bltu,
        Funct::Bgeu,
        Funct::Jmp,
        Funct::Call,
        Funct::Ret,
        Funct::Halt,
    ];

    /// The operation class this operation executes on.
    pub fn op_class(self) -> OpClass {
        match self {
            Funct::Add
            | Funct::Sub
            | Funct::And
            | Funct::Or
            | Funct::Xor
            | Funct::Sll
            | Funct::Srl
            | Funct::Sra
            | Funct::Slt
            | Funct::Sltu => OpClass::IntAlu,
            Funct::Mul => OpClass::IntMul,
            Funct::Div | Funct::Rem => OpClass::IntDiv,
            Funct::FAdd | Funct::FSub | Funct::Itof => OpClass::FpAlu,
            Funct::FMul => OpClass::FpMul,
            Funct::FDiv => OpClass::FpDiv,
            Funct::Load => OpClass::Load,
            Funct::Store => OpClass::Store,
            Funct::Beq
            | Funct::Bne
            | Funct::Blt
            | Funct::Bge
            | Funct::Bltu
            | Funct::Bgeu
            | Funct::Jmp
            | Funct::Call
            | Funct::Ret
            | Funct::Halt => OpClass::Branch,
        }
    }

    /// The control-transfer kind (branches only).
    pub fn branch_kind(self) -> Option<BranchKind> {
        match self {
            Funct::Beq | Funct::Bne | Funct::Blt | Funct::Bge | Funct::Bltu | Funct::Bgeu => {
                Some(BranchKind::Conditional)
            }
            Funct::Jmp | Funct::Halt => Some(BranchKind::Jump),
            Funct::Call => Some(BranchKind::Call),
            Funct::Ret => Some(BranchKind::Return),
            _ => None,
        }
    }

    /// `true` for the two-source integer operations whose operand B may be
    /// an immediate.
    pub fn allows_imm_operand(self) -> bool {
        matches!(
            self.op_class(),
            OpClass::IntAlu | OpClass::IntMul | OpClass::IntDiv
        )
    }

    /// The assembly mnemonic (load/store mnemonics also depend on the
    /// access size; see the assembler).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Funct::Add => "add",
            Funct::Sub => "sub",
            Funct::And => "and",
            Funct::Or => "or",
            Funct::Xor => "xor",
            Funct::Sll => "sll",
            Funct::Srl => "srl",
            Funct::Sra => "sra",
            Funct::Slt => "slt",
            Funct::Sltu => "sltu",
            Funct::Mul => "mul",
            Funct::Div => "div",
            Funct::Rem => "rem",
            Funct::FAdd => "fadd",
            Funct::FSub => "fsub",
            Funct::Itof => "itof",
            Funct::FMul => "fmul",
            Funct::FDiv => "fdiv",
            Funct::Load => "ld",
            Funct::Store => "st",
            Funct::Beq => "beq",
            Funct::Bne => "bne",
            Funct::Blt => "blt",
            Funct::Bge => "bge",
            Funct::Bltu => "bltu",
            Funct::Bgeu => "bgeu",
            Funct::Jmp => "jmp",
            Funct::Call => "call",
            Funct::Ret => "ret",
            Funct::Halt => "halt",
        }
    }
}

impl fmt::Display for Funct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A static (not-yet-executed) instruction.
///
/// Invariants are enforced by [`AsmInst::validate`]; the assembler only
/// produces valid instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AsmInst {
    /// The operation.
    pub funct: Funct,
    /// Destination register, if the operation writes one.
    pub dest: Option<ArchReg>,
    /// Register sources. Loads/stores: `srcs[0]` is the base address
    /// register, `srcs[1]` the stored value (stores only). `ret` reads
    /// [`link_reg`] via `srcs[0]`.
    pub srcs: [Option<ArchReg>; 2],
    /// `true` when operand B is [`AsmInst::imm`] instead of `srcs[1]`.
    pub uses_imm: bool,
    /// Immediate: the ALU constant, the load/store displacement, or the
    /// branch target PC.
    pub imm: i64,
    /// Memory access size in bytes (1, 2, 4 or 8); 1 for non-memory
    /// operations.
    pub size: u8,
}

/// Why an [`AsmInst`] is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeError {
    /// A register operand belongs to the wrong register file.
    WrongRegFile {
        /// The offending register.
        reg: ArchReg,
        /// The file it should belong to.
        want: RegFileKind,
    },
    /// A required operand is missing or a forbidden one is present.
    Operands(&'static str),
    /// The memory access size is not 1, 2, 4 or 8.
    BadSize(u8),
    /// The immediate flag is set on an operation that cannot take one.
    ImmNotAllowed,
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeError::WrongRegFile { reg, want } => {
                write!(f, "register {reg} must be in the {want} file")
            }
            ShapeError::Operands(detail) => f.write_str(detail),
            ShapeError::BadSize(s) => write!(f, "memory access size {s} is not 1/2/4/8"),
            ShapeError::ImmNotAllowed => f.write_str("operation cannot take an immediate operand"),
        }
    }
}

impl Error for ShapeError {}

fn want_file(reg: Option<ArchReg>, want: RegFileKind) -> Result<(), ShapeError> {
    match reg {
        Some(r) if r.file() != want => Err(ShapeError::WrongRegFile { reg: r, want }),
        _ => Ok(()),
    }
}

impl AsmInst {
    /// Check the operand shape against the operation.
    ///
    /// # Errors
    ///
    /// Returns the first [`ShapeError`] found.
    pub fn validate(&self) -> Result<(), ShapeError> {
        use RegFileKind::{Fp, Int};
        let need = |cond: bool, detail: &'static str| {
            if cond {
                Ok(())
            } else {
                Err(ShapeError::Operands(detail))
            }
        };
        if self.uses_imm && !self.funct.allows_imm_operand() {
            return Err(ShapeError::ImmNotAllowed);
        }
        match self.funct.op_class() {
            OpClass::IntAlu | OpClass::IntMul | OpClass::IntDiv => {
                need(self.dest.is_some(), "integer op needs a destination")?;
                need(self.srcs[0].is_some(), "integer op needs operand A")?;
                need(
                    self.uses_imm == self.srcs[1].is_none(),
                    "integer op needs exactly one of: register operand B, immediate",
                )?;
                want_file(self.dest, Int)?;
                want_file(self.srcs[0], Int)?;
                want_file(self.srcs[1], Int)?;
            }
            OpClass::FpAlu | OpClass::FpMul | OpClass::FpDiv => {
                need(self.dest.is_some(), "fp op needs a destination")?;
                want_file(self.dest, Fp)?;
                if self.funct == Funct::Itof {
                    need(
                        self.srcs[0].is_some() && self.srcs[1].is_none(),
                        "itof takes one integer source",
                    )?;
                    want_file(self.srcs[0], Int)?;
                } else {
                    need(
                        self.srcs[0].is_some() && self.srcs[1].is_some(),
                        "fp op needs two register sources",
                    )?;
                    want_file(self.srcs[0], Fp)?;
                    want_file(self.srcs[1], Fp)?;
                }
            }
            OpClass::Load => {
                need(self.dest.is_some(), "load needs a destination")?;
                need(
                    self.srcs[0].is_some() && self.srcs[1].is_none(),
                    "load takes one base register",
                )?;
                want_file(self.srcs[0], Int)?;
                if !matches!(self.size, 1 | 2 | 4 | 8) {
                    return Err(ShapeError::BadSize(self.size));
                }
            }
            OpClass::Store => {
                need(self.dest.is_none(), "store writes no register")?;
                need(
                    self.srcs[0].is_some() && self.srcs[1].is_some(),
                    "store takes a base register and a value register",
                )?;
                // The value register (`srcs[1]`) may be in either file:
                // FP kernels store doubles with `stq fN, ...`.
                want_file(self.srcs[0], Int)?;
                if !matches!(self.size, 1 | 2 | 4 | 8) {
                    return Err(ShapeError::BadSize(self.size));
                }
            }
            OpClass::Branch => {
                need(self.dest.is_none(), "branches write no register")?;
                match self.funct {
                    Funct::Jmp | Funct::Call | Funct::Halt => need(
                        self.srcs == [None, None],
                        "unconditional transfer takes no register sources",
                    )?,
                    Funct::Ret => {
                        need(
                            self.srcs == [Some(link_reg()), None],
                            "ret reads exactly the link register",
                        )?;
                    }
                    _ => {
                        need(
                            self.srcs[0].is_some() && self.srcs[1].is_some(),
                            "conditional branch compares two registers",
                        )?;
                        want_file(self.srcs[0], Int)?;
                        want_file(self.srcs[1], Int)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// The *static template*: a well-formed dynamic [`Inst`] carrying this
    /// instruction's class, operands and static facts, with placeholder
    /// dynamic behaviour (conditional branches not taken, `ret` target 0,
    /// memory address = displacement). The emulator builds every dynamic
    /// instruction from it.
    pub fn to_static_inst(&self, pc: u64) -> Inst {
        let op = self.funct.op_class();
        match op {
            OpClass::Load => {
                let mut i = Inst::load(pc, MemRef::new(self.imm as u64, self.size));
                i.srcs = self.srcs;
                i.dest = self.dest;
                i
            }
            OpClass::Store => {
                let mut i = Inst::store(pc, MemRef::new(self.imm as u64, self.size));
                i.srcs = self.srcs;
                i
            }
            OpClass::Branch => {
                let kind = self.funct.branch_kind().expect("branch class");
                let (taken, target) = match self.funct {
                    Funct::Ret => (true, 0),
                    Funct::Halt => (true, pc),
                    Funct::Jmp | Funct::Call => (true, self.imm as u64),
                    _ => (false, self.imm as u64),
                };
                let mut i = Inst::branch(
                    pc,
                    BranchInfo {
                        kind,
                        taken,
                        target,
                    },
                );
                i.srcs = self.srcs;
                i
            }
            _ => {
                let mut i = Inst::alu(pc, op);
                i.dest = self.dest;
                i.srcs = self.srcs;
                i
            }
        }
    }
}

/// An assembled program: instructions at consecutive PCs from
/// [`TEXT_BASE`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    name: String,
    insts: Vec<AsmInst>,
}

impl Program {
    /// Build a program from validated instructions.
    ///
    /// # Panics
    ///
    /// Panics if `insts` is empty or any instruction fails
    /// [`AsmInst::validate`] (the assembler upholds both).
    pub fn new(name: impl Into<String>, insts: Vec<AsmInst>) -> Program {
        assert!(
            !insts.is_empty(),
            "a program needs at least one instruction"
        );
        for (k, i) in insts.iter().enumerate() {
            if let Err(e) = i.validate() {
                panic!("instruction {k} is invalid: {e}");
            }
        }
        Program {
            name: name.into(),
            insts,
        }
    }

    /// The program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instructions in PC order.
    pub fn insts(&self) -> &[AsmInst] {
        &self.insts
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// `false` always (constructors reject empty programs); present for
    /// clippy's `len`-without-`is_empty` convention.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// PC of the instruction at `index`.
    pub fn pc_of(&self, index: usize) -> u64 {
        TEXT_BASE + 4 * index as u64
    }

    /// Index of the instruction at `pc`, if `pc` is in the text segment
    /// and aligned.
    pub fn index_of_pc(&self, pc: u64) -> Option<usize> {
        if pc < TEXT_BASE || !(pc - TEXT_BASE).is_multiple_of(4) {
            return None;
        }
        let idx = ((pc - TEXT_BASE) / 4) as usize;
        (idx < self.insts.len()).then_some(idx)
    }

    /// Replace the instruction at `index` — the deliberate-fault hook the
    /// differential tests use to prove divergences are caught.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or `inst` fails
    /// [`AsmInst::validate`].
    pub fn replace(&mut self, index: usize, inst: AsmInst) {
        if let Err(e) = inst.validate() {
            panic!("replacement instruction is invalid: {e}");
        }
        self.insts[index] = inst;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add(dest: u8, a: u8, imm: i64) -> AsmInst {
        AsmInst {
            funct: Funct::Add,
            dest: Some(ArchReg::int(dest)),
            srcs: [Some(ArchReg::int(a)), None],
            uses_imm: true,
            imm,
            size: 1,
        }
    }

    #[test]
    fn only_branch_functs_have_a_branch_kind() {
        for f in Funct::ALL {
            assert_eq!(f.branch_kind().is_some(), f.op_class() == OpClass::Branch);
        }
    }

    #[test]
    fn validate_rejects_wrong_shapes() {
        let mut fp_dest = add(1, 2, 0);
        fp_dest.dest = Some(ArchReg::fp(1));
        assert!(matches!(
            fp_dest.validate(),
            Err(ShapeError::WrongRegFile { .. })
        ));

        let mut both = add(1, 2, 0);
        both.srcs[1] = Some(ArchReg::int(3));
        assert!(matches!(both.validate(), Err(ShapeError::Operands(_))));

        let imm_branch = AsmInst {
            funct: Funct::Beq,
            dest: None,
            srcs: [Some(ArchReg::int(1)), Some(ArchReg::int(2))],
            uses_imm: true,
            imm: 0,
            size: 1,
        };
        assert_eq!(imm_branch.validate(), Err(ShapeError::ImmNotAllowed));

        let bad_size = AsmInst {
            funct: Funct::Load,
            dest: Some(ArchReg::int(1)),
            srcs: [Some(ArchReg::int(2)), None],
            uses_imm: false,
            imm: 0,
            size: 3,
        };
        assert_eq!(bad_size.validate(), Err(ShapeError::BadSize(3)));
    }

    #[test]
    fn program_pc_mapping() {
        let p = Program::new("t", vec![add(1, 2, 0), add(3, 4, 1)]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.pc_of(1), TEXT_BASE + 4);
        assert_eq!(p.index_of_pc(TEXT_BASE + 4), Some(1));
        assert_eq!(p.index_of_pc(TEXT_BASE + 2), None);
        assert_eq!(p.index_of_pc(TEXT_BASE + 8), None);
        assert_eq!(p.index_of_pc(TEXT_BASE - 4), None);
    }
}
