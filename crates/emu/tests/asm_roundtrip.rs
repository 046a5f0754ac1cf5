//! Property tests: the assembler and disassembler are exact inverses for
//! every well-formed program the generators can produce, every valid
//! instruction's static template is a well-formed dynamic instruction, and
//! malformed source always fails with a named error — never a panic.

use dcg_emu::{assemble, disassemble, link_reg, AsmError, AsmInst, Funct, Program, TEXT_BASE};
use dcg_isa::ArchReg;
use dcg_testkit::prop::{self, Gen};

fn arb_int_reg() -> Gen<ArchReg> {
    prop::range(0u8..32).map(ArchReg::int)
}

fn arb_fp_reg() -> Gen<ArchReg> {
    prop::range(0u8..32).map(ArchReg::fp)
}

fn arb_size() -> Gen<u8> {
    prop::range(0u32..4).map(|log2| 1u8 << log2)
}

/// Immediates the assembler can print and re-parse (decimal i64 text).
fn arb_imm() -> Gen<i64> {
    prop::any_u64().map(|v| v as i64)
}

/// One well-formed instruction. Branch targets are chosen as instruction
/// *indices* in `0..len` and fixed up to PCs by [`arb_program`].
fn arb_inst(len: usize) -> Gen<AsmInst> {
    let target = prop::range(0u64..len as u64).map(|idx| (TEXT_BASE + 4 * idx) as i64);
    let int3 = prop::tuple((arb_int_reg(), arb_int_reg(), arb_int_reg(), arb_imm()));
    let int_funct = Gen::one_of(
        [
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
        ]
        .into_iter()
        .map(prop::just)
        .collect(),
    );
    let fp_funct = Gen::one_of(
        [Funct::FAdd, Funct::FSub, Funct::FMul, Funct::FDiv]
            .into_iter()
            .map(prop::just)
            .collect(),
    );
    let cond_funct = Gen::one_of(
        [
            Funct::Beq,
            Funct::Bne,
            Funct::Blt,
            Funct::Bge,
            Funct::Bltu,
            Funct::Bgeu,
        ]
        .into_iter()
        .map(prop::just)
        .collect(),
    );

    let int_op =
        prop::tuple((int_funct, int3, prop::any_bool())).map(|(funct, (d, a, b, imm), use_imm)| {
            AsmInst {
                funct,
                dest: Some(d),
                srcs: [Some(a), if use_imm { None } else { Some(b) }],
                uses_imm: use_imm,
                imm: if use_imm { imm } else { 0 },
                size: 1,
            }
        });
    let fp_op = prop::tuple((fp_funct, arb_fp_reg(), arb_fp_reg(), arb_fp_reg())).map(
        |(funct, d, a, b)| AsmInst {
            funct,
            dest: Some(d),
            srcs: [Some(a), Some(b)],
            uses_imm: false,
            imm: 0,
            size: 1,
        },
    );
    let itof = prop::tuple((arb_fp_reg(), arb_int_reg())).map(|(d, a)| AsmInst {
        funct: Funct::Itof,
        dest: Some(d),
        srcs: [Some(a), None],
        uses_imm: false,
        imm: 0,
        size: 1,
    });
    let load = prop::tuple((
        Gen::one_of(vec![arb_int_reg().map(Some), arb_fp_reg().map(Some)]),
        arb_int_reg(),
        arb_imm(),
        arb_size(),
    ))
    .map(|(d, base, disp, size)| AsmInst {
        funct: Funct::Load,
        dest: d,
        srcs: [Some(base), None],
        uses_imm: false,
        imm: disp,
        size,
    });
    let store = prop::tuple((
        Gen::one_of(vec![arb_int_reg(), arb_fp_reg()]),
        arb_int_reg(),
        arb_imm(),
        arb_size(),
    ))
    .map(|(v, base, disp, size)| AsmInst {
        funct: Funct::Store,
        dest: None,
        srcs: [Some(base), Some(v)],
        uses_imm: false,
        imm: disp,
        size,
    });
    let cond = prop::tuple((cond_funct, arb_int_reg(), arb_int_reg(), target.clone())).map(
        |(funct, a, b, t)| AsmInst {
            funct,
            dest: None,
            srcs: [Some(a), Some(b)],
            uses_imm: false,
            imm: t,
            size: 1,
        },
    );
    let transfer = prop::tuple((
        Gen::one_of(vec![prop::just(Funct::Jmp), prop::just(Funct::Call)]),
        target,
    ))
    .map(|(funct, t)| AsmInst {
        funct,
        dest: None,
        srcs: [None, None],
        uses_imm: false,
        imm: t,
        size: 1,
    });
    let fixed = Gen::one_of(
        [
            AsmInst {
                funct: Funct::Ret,
                dest: None,
                srcs: [Some(link_reg()), None],
                uses_imm: false,
                imm: 0,
                size: 1,
            },
            AsmInst {
                funct: Funct::Halt,
                dest: None,
                srcs: [None, None],
                uses_imm: false,
                imm: 0,
                size: 1,
            },
        ]
        .into_iter()
        .map(prop::just)
        .collect(),
    );

    Gen::one_of(vec![
        int_op, fp_op, itof, load, store, cond, transfer, fixed,
    ])
}

/// A random well-formed program of 1..=24 instructions. The length must
/// be drawn before the instructions (branch targets index into it), so
/// this composes the inner generator manually instead of via `map`.
fn arb_program() -> Gen<Program> {
    Gen::new(|src| {
        let len = (src.draw() % 24 + 1) as usize;
        let inst = arb_inst(len);
        let mut insts = Vec::with_capacity(len);
        for _ in 0..len {
            insts.push(inst.generate(src)?);
        }
        Some(Program::new("prop", insts))
    })
}

#[test]
fn static_templates_are_well_formed() {
    // The emulator builds every dynamic instruction from this template.
    prop::check("static_templates_are_well_formed", arb_program(), |p| {
        for (k, inst) in p.insts().iter().enumerate() {
            let template = inst.to_static_inst(p.pc_of(k));
            assert!(template.is_well_formed(), "{inst:?} -> {template:?}");
            assert_eq!(template.pc, p.pc_of(k));
            assert_eq!(template.op, inst.funct.op_class());
        }
    });
}

#[test]
fn disassemble_reassemble_is_fixed_point() {
    prop::check(
        "disassemble_reassemble_is_fixed_point",
        arb_program(),
        |p| {
            let text = disassemble(&p).expect("every generated target is in range");
            let p2 = assemble("prop", &text).expect("canonical text reassembles");
            assert_eq!(p, p2, "fixed point broken for:\n{text}");
            // And the canonical text itself is a fixed point of one more trip.
            let text2 = disassemble(&p2).expect("disassembles again");
            assert_eq!(text, text2);
        },
    );
}

#[test]
fn malformed_source_yields_named_errors() {
    // Mutate canonical source in ways that must each produce a specific
    // named error — and never a panic.
    prop::check(
        "malformed_source_yields_named_errors",
        prop::tuple((arb_program(), prop::range(0u32..5))),
        |(p, kind)| {
            let text = disassemble(&p).expect("in range");
            let broken = match kind {
                0 => format!("frobnicate r1, r2, r3\n{text}"),
                1 => format!("add r1, r77, r3\n{text}"),
                2 => format!("beq r1, r2, never_defined\n{text}"),
                3 => format!("add r1, r2\n{text}"),
                _ => "; nothing but comments\n".to_string(),
            };
            let err = assemble("broken", &broken).expect_err("must fail");
            match kind {
                0 => assert!(matches!(err, AsmError::UnknownMnemonic { line: 1, .. })),
                1 => assert!(matches!(err, AsmError::BadRegister { line: 1, .. })),
                2 => assert!(matches!(err, AsmError::UnknownLabel { line: 1, .. })),
                3 => assert!(matches!(err, AsmError::BadOperand { line: 1, .. })),
                _ => assert!(matches!(err, AsmError::EmptyProgram)),
            }
            // Errors render without panicking.
            let _ = err.to_string();
        },
    );
}
