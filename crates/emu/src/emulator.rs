//! Functional emulator: the golden reference model.
//!
//! Executes a [`Program`] one instruction at a time in architectural
//! order — no pipeline, no speculation, no timing. Each step yields a
//! [`CommitRecord`] carrying both the *resolved dynamic instruction* (the
//! same [`Inst`] shape the pipeline consumes, with actual memory address
//! and branch direction filled in) and the architectural effects
//! (register write, load value, store bytes). The differential harness
//! compares these records against the pipeline's retired stream.
//!
//! ## Semantics
//!
//! * Integer ops wrap; shifts use the low 6 bits of operand B; `slt` is a
//!   signed compare, `sltu` unsigned, both producing 0/1.
//! * `div`/`rem` follow the RISC-V convention: divide-by-zero yields
//!   all-ones quotient and the dividend as remainder; `i64::MIN / -1`
//!   yields `i64::MIN` with remainder 0.
//! * FP ops interpret register bits as IEEE-754 doubles; `itof` converts
//!   the signed integer value of its source.
//! * Loads zero-extend; stores truncate; all accesses must be naturally
//!   aligned. Memory is flat, little-endian and zero-initialised.
//! * `call` links `pc + 4` into `r30`; `ret` jumps to `r30` and requires
//!   the target to be an instruction of the program.
//! * The zero registers (`r31`, `f31`) read as zero and discard writes.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use dcg_isa::{ArchReg, Inst, NUM_ARCH_REGS};

use crate::program::{link_reg, Funct, Program, TEXT_BASE};

const PAGE_SIZE: u64 = 4096;

/// Flat little-endian byte-addressed memory, zero-initialised, backed by
/// 4 KiB pages allocated on first touch.
#[derive(Debug, Default)]
pub struct Memory {
    pages: BTreeMap<u64, Box<[u8; PAGE_SIZE as usize]>>,
}

impl Memory {
    /// Read one byte (unallocated memory reads as zero).
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr / PAGE_SIZE)) {
            Some(page) => page[(addr % PAGE_SIZE) as usize],
            None => 0,
        }
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let page = self
            .pages
            .entry(addr / PAGE_SIZE)
            .or_insert_with(|| Box::new([0; PAGE_SIZE as usize]));
        page[(addr % PAGE_SIZE) as usize] = value;
    }

    /// Read `size` bytes (1, 2, 4 or 8) little-endian, zero-extended.
    pub fn read(&self, addr: u64, size: u8) -> u64 {
        let mut v = 0u64;
        for k in (0..u64::from(size)).rev() {
            v = (v << 8) | u64::from(self.read_u8(addr.wrapping_add(k)));
        }
        v
    }

    /// Write the low `size` bytes (1, 2, 4 or 8) of `value` little-endian.
    pub fn write(&mut self, addr: u64, size: u8, value: u64) {
        for k in 0..u64::from(size) {
            self.write_u8(addr.wrapping_add(k), (value >> (8 * k)) as u8);
        }
    }
}

/// Why emulation stopped abnormally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmuError {
    /// Control flow left the text segment.
    PcOutOfRange {
        /// The bad program counter.
        pc: u64,
    },
    /// A load or store broke natural alignment.
    UnalignedAccess {
        /// PC of the access.
        pc: u64,
        /// Effective address.
        addr: u64,
        /// Access size in bytes.
        size: u8,
    },
    /// `ret` targeted an address that is not an instruction.
    BadReturnTarget {
        /// PC of the `ret`.
        pc: u64,
        /// The bad link-register value.
        target: u64,
    },
    /// [`Emulator::run`] hit its step limit before `halt`.
    StepLimit {
        /// The limit that was hit.
        limit: u64,
    },
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::PcOutOfRange { pc } => {
                write!(f, "pc {pc:#x} is outside the text segment")
            }
            EmuError::UnalignedAccess { pc, addr, size } => {
                write!(
                    f,
                    "pc {pc:#x}: {size}-byte access to {addr:#x} is unaligned"
                )
            }
            EmuError::BadReturnTarget { pc, target } => {
                write!(
                    f,
                    "pc {pc:#x}: ret to {target:#x} which is not an instruction"
                )
            }
            EmuError::StepLimit { limit } => {
                write!(f, "program did not halt within {limit} steps")
            }
        }
    }
}

impl Error for EmuError {}

/// The architectural effect of one committed instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommitRecord {
    /// Zero-based commit index (program order).
    pub index: u64,
    /// The resolved dynamic instruction, exactly as the pipeline should
    /// retire it: actual effective address, actual branch direction and
    /// target.
    pub inst: Inst,
    /// Architectural register write, if any (`None` when the destination
    /// is a zero register; `call`'s link write appears here even though
    /// the [`Inst`] shape carries no destination for branches).
    pub reg_write: Option<(ArchReg, u64)>,
    /// `(addr, size, value)` of a load's zero-extended result.
    pub load: Option<(u64, u8, u64)>,
    /// `(addr, size, value)` of a store's written bytes.
    pub store: Option<(u64, u8, u64)>,
}

/// Program-order functional emulator over a [`Program`].
#[derive(Debug)]
pub struct Emulator {
    program: Program,
    regs: [u64; NUM_ARCH_REGS as usize],
    mem: Memory,
    pc: u64,
    committed: u64,
    halted: bool,
}

impl Emulator {
    /// Start the program at [`TEXT_BASE`] with zeroed registers and
    /// memory.
    pub fn new(program: Program) -> Emulator {
        Emulator {
            program,
            regs: [0; NUM_ARCH_REGS as usize],
            mem: Memory::default(),
            pc: TEXT_BASE,
            committed: 0,
            halted: false,
        }
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Current architectural value of `reg` (zero registers read zero).
    pub fn reg(&self, reg: ArchReg) -> u64 {
        if reg.is_zero() {
            0
        } else {
            self.regs[reg.dense()]
        }
    }

    fn set_reg(&mut self, reg: ArchReg, value: u64) -> Option<(ArchReg, u64)> {
        if reg.is_zero() {
            None
        } else {
            self.regs[reg.dense()] = value;
            Some((reg, value))
        }
    }

    /// The data memory.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// `true` once `halt` has committed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Number of instructions committed so far.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Current program counter.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Execute one instruction.
    ///
    /// Returns `Ok(Some(record))` for each commit (including the `halt`
    /// itself) and `Ok(None)` once halted.
    ///
    /// # Errors
    ///
    /// Returns an [`EmuError`] if the program escapes its text segment,
    /// breaks alignment, or returns to a non-instruction.
    pub fn step(&mut self) -> Result<Option<CommitRecord>, EmuError> {
        if self.halted {
            return Ok(None);
        }
        let pc = self.pc;
        let index = self
            .program
            .index_of_pc(pc)
            .ok_or(EmuError::PcOutOfRange { pc })?;
        let inst = self.program.insts()[index];
        let mut record = CommitRecord {
            index: self.committed,
            inst: inst.to_static_inst(pc),
            reg_write: None,
            load: None,
            store: None,
        };
        let mut next_pc = pc + 4;

        let a = inst.srcs[0].map_or(0, |r| self.reg(r));
        let b = if inst.uses_imm {
            inst.imm as u64
        } else {
            inst.srcs[1].map_or(0, |r| self.reg(r))
        };

        match inst.funct {
            Funct::Add => {
                record.reg_write = self.set_reg(inst.dest.expect("alu dest"), a.wrapping_add(b))
            }
            Funct::Sub => {
                record.reg_write = self.set_reg(inst.dest.expect("alu dest"), a.wrapping_sub(b))
            }
            Funct::And => record.reg_write = self.set_reg(inst.dest.expect("alu dest"), a & b),
            Funct::Or => record.reg_write = self.set_reg(inst.dest.expect("alu dest"), a | b),
            Funct::Xor => record.reg_write = self.set_reg(inst.dest.expect("alu dest"), a ^ b),
            Funct::Sll => {
                record.reg_write = self.set_reg(inst.dest.expect("alu dest"), a << (b & 63))
            }
            Funct::Srl => {
                record.reg_write = self.set_reg(inst.dest.expect("alu dest"), a >> (b & 63))
            }
            Funct::Sra => {
                let v = ((a as i64) >> (b & 63)) as u64;
                record.reg_write = self.set_reg(inst.dest.expect("alu dest"), v);
            }
            Funct::Slt => {
                let v = u64::from((a as i64) < (b as i64));
                record.reg_write = self.set_reg(inst.dest.expect("alu dest"), v);
            }
            Funct::Sltu => {
                record.reg_write = self.set_reg(inst.dest.expect("alu dest"), u64::from(a < b))
            }
            Funct::Mul => {
                record.reg_write = self.set_reg(inst.dest.expect("alu dest"), a.wrapping_mul(b))
            }
            Funct::Div => {
                let v = if b == 0 {
                    u64::MAX
                } else {
                    (a as i64).wrapping_div(b as i64) as u64
                };
                record.reg_write = self.set_reg(inst.dest.expect("alu dest"), v);
            }
            Funct::Rem => {
                let v = if b == 0 {
                    a
                } else {
                    (a as i64).wrapping_rem(b as i64) as u64
                };
                record.reg_write = self.set_reg(inst.dest.expect("alu dest"), v);
            }
            Funct::FAdd | Funct::FSub | Funct::FMul | Funct::FDiv => {
                let x = f64::from_bits(a);
                let y = f64::from_bits(b);
                let v = match inst.funct {
                    Funct::FAdd => x + y,
                    Funct::FSub => x - y,
                    Funct::FMul => x * y,
                    _ => x / y,
                };
                record.reg_write = self.set_reg(inst.dest.expect("fp dest"), v.to_bits());
            }
            Funct::Itof => {
                let v = (a as i64) as f64;
                record.reg_write = self.set_reg(inst.dest.expect("fp dest"), v.to_bits());
            }
            Funct::Load => {
                let addr = a.wrapping_add(inst.imm as u64);
                if !addr.is_multiple_of(u64::from(inst.size)) {
                    return Err(EmuError::UnalignedAccess {
                        pc,
                        addr,
                        size: inst.size,
                    });
                }
                let v = self.mem.read(addr, inst.size);
                record.inst.mem = Some(dcg_isa::MemRef::new(addr, inst.size));
                record.load = Some((addr, inst.size, v));
                record.reg_write = self.set_reg(inst.dest.expect("load dest"), v);
            }
            Funct::Store => {
                let addr = a.wrapping_add(inst.imm as u64);
                if !addr.is_multiple_of(u64::from(inst.size)) {
                    return Err(EmuError::UnalignedAccess {
                        pc,
                        addr,
                        size: inst.size,
                    });
                }
                let v = inst.srcs[1].map_or(0, |r| self.reg(r));
                let v = if inst.size == 8 {
                    v
                } else {
                    v & ((1u64 << (8 * u32::from(inst.size))) - 1)
                };
                self.mem.write(addr, inst.size, v);
                record.inst.mem = Some(dcg_isa::MemRef::new(addr, inst.size));
                record.store = Some((addr, inst.size, v));
            }
            Funct::Beq | Funct::Bne | Funct::Blt | Funct::Bge | Funct::Bltu | Funct::Bgeu => {
                let taken = match inst.funct {
                    Funct::Beq => a == b,
                    Funct::Bne => a != b,
                    Funct::Blt => (a as i64) < (b as i64),
                    Funct::Bge => (a as i64) >= (b as i64),
                    Funct::Bltu => a < b,
                    _ => a >= b,
                };
                let branch = record.inst.branch.as_mut().expect("branch info");
                branch.taken = taken;
                if taken {
                    next_pc = inst.imm as u64;
                }
            }
            Funct::Jmp => next_pc = inst.imm as u64,
            Funct::Call => {
                record.reg_write = self.set_reg(link_reg(), pc + 4);
                next_pc = inst.imm as u64;
            }
            Funct::Ret => {
                let target = self.reg(link_reg());
                if self.program.index_of_pc(target).is_none() {
                    return Err(EmuError::BadReturnTarget { pc, target });
                }
                record.inst.branch.as_mut().expect("branch info").target = target;
                next_pc = target;
            }
            Funct::Halt => {
                self.halted = true;
                next_pc = pc; // self-loop, matching the static template
            }
        }

        self.pc = next_pc;
        self.committed += 1;
        Ok(Some(record))
    }

    /// Run to `halt`, collecting every commit record.
    ///
    /// # Errors
    ///
    /// Any [`EmuError`] from [`Emulator::step`], or
    /// [`EmuError::StepLimit`] if `halt` is not reached within
    /// `max_steps`.
    pub fn run(&mut self, max_steps: u64) -> Result<Vec<CommitRecord>, EmuError> {
        let mut records = Vec::new();
        while !self.halted {
            if self.committed >= max_steps {
                return Err(EmuError::StepLimit { limit: max_steps });
            }
            if let Some(r) = self.step()? {
                records.push(r);
            }
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run_src(src: &str) -> (Emulator, Vec<CommitRecord>) {
        let p = assemble("t", src).expect("assembles");
        let mut emu = Emulator::new(p);
        let records = emu.run(1_000_000).expect("runs to halt");
        (emu, records)
    }

    #[test]
    fn sums_one_to_ten() {
        let (emu, records) = run_src(
            "\
    li r1, 0
    li r2, 1
    li r3, 11
loop:
    add r1, r1, r2
    add r2, r2, 1
    bne r2, r3, loop
    halt
",
        );
        assert_eq!(emu.reg(ArchReg::int(1)), 55);
        assert!(emu.halted());
        // 3 setup + 10 iterations * 3 + halt
        assert_eq!(records.len(), 3 + 30 + 1);
        // Records carry resolved branch directions: the last bne falls
        // through, all earlier ones are taken.
        let bnes: Vec<bool> = records
            .iter()
            .filter_map(|r| {
                r.inst
                    .branch
                    .filter(|b| b.kind == dcg_isa::BranchKind::Conditional)
                    .map(|b| b.taken)
            })
            .collect();
        assert_eq!(bnes.len(), 10);
        assert!(bnes[..9].iter().all(|t| *t));
        assert!(!bnes[9]);
    }

    #[test]
    fn memory_and_zero_register() {
        let (emu, records) = run_src(
            "\
    li r1, 0x100
    li r2, -1
    stq r2, 0(r1)
    ldw r3, 4(r1)
    stb r3, 16(r1)
    li r31, 99     ; write to the zero register is discarded
    ldb r4, 16(r1)
    halt
",
        );
        assert_eq!(emu.reg(ArchReg::int(3)), 0xffff_ffff);
        assert_eq!(emu.reg(ArchReg::int(4)), 0xff);
        assert_eq!(emu.reg(ArchReg::INT_ZERO), 0);
        let zero_write = records.iter().find(|r| r.index == 5).unwrap();
        assert_eq!(
            zero_write.reg_write, None,
            "zero-reg write must be discarded"
        );
        let store = records.iter().find(|r| r.store.is_some()).unwrap();
        assert_eq!(store.store, Some((0x100, 8, u64::MAX)));
        assert_eq!(store.inst.mem.unwrap().addr, 0x100);
    }

    #[test]
    fn call_ret_and_link() {
        let (emu, records) = run_src(
            "\
    li r1, 5
    call double
    call double
    halt
double:
    add r1, r1, r1
    ret
",
        );
        assert_eq!(emu.reg(ArchReg::int(1)), 20);
        let call = records.iter().find(|r| r.index == 1).unwrap();
        // call's link write is in reg_write even though the Inst has no dest
        assert_eq!(call.reg_write, Some((link_reg(), TEXT_BASE + 8)));
        assert_eq!(call.inst.dest, None);
        let ret = records
            .iter()
            .find(|r| {
                r.inst
                    .branch
                    .is_some_and(|b| b.kind == dcg_isa::BranchKind::Return)
            })
            .unwrap();
        assert_eq!(ret.inst.branch.unwrap().target, TEXT_BASE + 8);
    }

    #[test]
    fn fp_and_division_edge_cases() {
        let (emu, _) = run_src(
            "\
    li r1, 3
    li r2, -4
    itof f1, r1
    itof f2, r2
    fmul f3, f1, f2
    fadd f4, f3, f1
    li r3, 0
    div r4, r1, r3   ; div by zero -> all ones
    rem r5, r1, r3   ; rem by zero -> dividend
    div r6, r2, r1
    halt
",
        );
        assert_eq!(f64::from_bits(emu.reg(ArchReg::fp(3))), -12.0);
        assert_eq!(f64::from_bits(emu.reg(ArchReg::fp(4))), -9.0);
        assert_eq!(emu.reg(ArchReg::int(4)), u64::MAX);
        assert_eq!(emu.reg(ArchReg::int(5)), 3);
        assert_eq!(emu.reg(ArchReg::int(6)) as i64, -1);
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let p = assemble("t", "li r1, 3\nldw r2, 2(r1)\nhalt\n").unwrap();
        let err = Emulator::new(p).run(100).unwrap_err();
        assert!(matches!(err, EmuError::UnalignedAccess { size: 4, .. }));

        let p = assemble("t", "ret\nhalt\n").unwrap();
        let err = Emulator::new(p).run(100).unwrap_err();
        assert!(matches!(err, EmuError::BadReturnTarget { .. }));

        let p = assemble("t", "spin: jmp spin\nhalt\n").unwrap();
        let err = Emulator::new(p).run(100).unwrap_err();
        assert_eq!(err, EmuError::StepLimit { limit: 100 });
    }

    #[test]
    fn halt_commits_itself_then_stops() {
        let (mut emu, records) = run_src("halt\n");
        assert_eq!(records.len(), 1);
        assert!(records[0].inst.branch.unwrap().taken);
        assert_eq!(records[0].inst.branch.unwrap().target, TEXT_BASE);
        assert_eq!(emu.step(), Ok(None));
    }
}
