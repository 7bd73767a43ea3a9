//! Property-based tests for the ISA substrate: instruction semantics
//! algebra, assembler label resolution, memory round-trips, and the
//! determinism the whole toolchain rests on.

use mmt_isa::asm::Builder;
use mmt_isa::interp::{Machine, Memory};
use mmt_isa::{AluOp, BrCond, FpuOp, Reg};

use proptest::prelude::*;

proptest! {
    #[test]
    fn alu_algebra(a in any::<u64>(), b in any::<u64>()) {
        // add/sub are inverses (wrapping).
        prop_assert_eq!(AluOp::Sub.apply(AluOp::Add.apply(a, b), b), a);
        // xor is self-inverse.
        prop_assert_eq!(AluOp::Xor.apply(AluOp::Xor.apply(a, b), b), a);
        // and/or identities.
        prop_assert_eq!(AluOp::And.apply(a, a), a);
        prop_assert_eq!(AluOp::Or.apply(a, 0), a);
        // slt is a strict order: not (a<b and b<a).
        prop_assert!(AluOp::Slt.apply(a, b) & AluOp::Slt.apply(b, a) == 0);
        // division never panics and respects |quotient| <= |dividend|.
        let q = AluOp::Div.apply(a, b) as i64;
        if b != 0 && (b as i64) != -1 {
            prop_assert!(q.unsigned_abs() <= (a as i64).unsigned_abs());
        }
    }

    #[test]
    fn branch_conditions_partition(a in any::<u64>(), b in any::<u64>()) {
        // eq/ne partition, lt/ge partition.
        prop_assert_ne!(BrCond::Eq.eval(a, b), BrCond::Ne.eval(a, b));
        prop_assert_ne!(BrCond::Lt.eval(a, b), BrCond::Ge.eval(a, b));
    }

    #[test]
    fn fpu_ops_are_pure(a in any::<u64>(), b in any::<u64>()) {
        for op in [FpuOp::Fadd, FpuOp::Fmul, FpuOp::Fdiv, FpuOp::Fsqrt] {
            prop_assert_eq!(op.apply(a, b), op.apply(a, b));
        }
    }

    #[test]
    fn memory_round_trip(writes in prop::collection::vec((0u64..4096, any::<u64>()), 1..64)) {
        let mut mem = Memory::new(0);
        let mut model = std::collections::HashMap::new();
        for &(addr, val) in &writes {
            mem.store(addr, val).unwrap();
            model.insert(addr, val);
        }
        for (&addr, &val) in &model {
            prop_assert_eq!(mem.load(addr).unwrap(), val);
        }
        // Untouched addresses read zero.
        prop_assert_eq!(mem.load(4097).unwrap(), 0);
    }

    #[test]
    fn li_materializes_any_constant(v in any::<i64>()) {
        let mut b = Builder::new();
        b.li(Reg::R1, v);
        b.halt();
        let p = b.build().unwrap();
        let mut mem = Memory::new(0);
        let mut m = Machine::new(0);
        m.run(&p, &mut mem, 100).unwrap();
        prop_assert!(m.halted());
        prop_assert_eq!(m.reg(Reg::R1) as i64, v);
    }

    #[test]
    fn straight_line_alu_programs_are_deterministic(
        ops in prop::collection::vec((0usize..8, 1usize..8, 1usize..8, 1usize..8), 1..48),
        seeds in prop::collection::vec(any::<i64>(), 4),
    ) {
        let alu = [AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Or,
                   AluOp::Xor, AluOp::Shl, AluOp::Shr, AluOp::Mul];
        let mut b = Builder::new();
        for (i, &s) in seeds.iter().enumerate() {
            b.li(Reg::from_index(i + 1).unwrap(), s);
        }
        for &(op, rd, rs1, rs2) in &ops {
            b.alu(
                alu[op],
                Reg::from_index(rd).unwrap(),
                Reg::from_index(rs1).unwrap(),
                Reg::from_index(rs2).unwrap(),
            );
        }
        b.halt();
        let p = b.build().unwrap();
        let run = || {
            let mut mem = Memory::new(0);
            let mut m = Machine::new(0);
            m.run(&p, &mut mem, 10_000).unwrap();
            *m.regs()
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn countdown_loops_terminate_with_exact_trip_counts(n in 1i64..200) {
        let mut b = Builder::new();
        let (top, out) = (b.label(), b.label());
        b.li(Reg::R1, n);
        b.addi(Reg::R2, Reg::R0, 0);
        b.bind(top);
        b.beq(Reg::R1, Reg::R0, out);
        b.addi(Reg::R2, Reg::R2, 1);
        b.addi(Reg::R1, Reg::R1, -1);
        b.jmp(top);
        b.bind(out);
        b.halt();
        let p = b.build().unwrap();
        let mut mem = Memory::new(0);
        let mut m = Machine::new(0);
        m.run(&p, &mut mem, 1_000_000).unwrap();
        prop_assert!(m.halted());
        prop_assert_eq!(m.reg(Reg::R2) as i64, n);
    }
}

// ---------------------------------------------------------------------
// Assembler round-trip: any program's disassembly re-parses to itself.
// ---------------------------------------------------------------------

use mmt_isa::inst::Inst;
use mmt_isa::parse::parse;

fn arb_inst(len: usize) -> impl Strategy<Value = Inst> {
    let reg = (0usize..32).prop_map(|i| Reg::from_index(i).unwrap());
    let target = 0u64..len as u64;
    prop_oneof![
        (reg.clone(), reg.clone(), reg.clone(), 0usize..10).prop_map(|(rd, rs1, rs2, op)| {
            let ops = [
                AluOp::Add,
                AluOp::Sub,
                AluOp::And,
                AluOp::Or,
                AluOp::Xor,
                AluOp::Shl,
                AluOp::Shr,
                AluOp::Slt,
                AluOp::Mul,
                AluOp::Div,
            ];
            Inst::Alu {
                op: ops[op],
                rd,
                rs1,
                rs2,
            }
        }),
        (reg.clone(), reg.clone(), any::<i32>(), 0usize..10).prop_map(|(rd, rs1, imm, op)| {
            let ops = [
                AluOp::Add,
                AluOp::Sub,
                AluOp::And,
                AluOp::Or,
                AluOp::Xor,
                AluOp::Shl,
                AluOp::Shr,
                AluOp::Slt,
                AluOp::Mul,
                AluOp::Div,
            ];
            Inst::AluI {
                op: ops[op],
                rd,
                rs1,
                imm: imm as i64,
            }
        }),
        (reg.clone(), reg.clone(), reg.clone(), 0usize..4).prop_map(|(rd, rs1, rs2, op)| {
            let ops = [FpuOp::Fadd, FpuOp::Fmul, FpuOp::Fdiv, FpuOp::Fsqrt];
            Inst::Fpu {
                op: ops[op],
                rd,
                rs1,
                rs2,
            }
        }),
        (reg.clone(), reg.clone(), any::<i16>()).prop_map(|(rd, base, off)| Inst::Ld {
            rd,
            base,
            off: off as i64
        }),
        (reg.clone(), reg.clone(), any::<i16>()).prop_map(|(src, base, off)| Inst::St {
            src,
            base,
            off: off as i64
        }),
        (reg.clone(), reg.clone(), target.clone(), 0usize..4).prop_map(|(rs1, rs2, t, c)| {
            let conds = [BrCond::Eq, BrCond::Ne, BrCond::Lt, BrCond::Ge];
            Inst::Br {
                cond: conds[c],
                rs1,
                rs2,
                target: t,
            }
        }),
        target.clone().prop_map(|t| Inst::Jmp { target: t }),
        (reg.clone(), target).prop_map(|(rd, t)| Inst::Jal { rd, target: t }),
        reg.clone().prop_map(|rs| Inst::Jr { rs }),
        reg.prop_map(|rd| Inst::Tid { rd }),
        Just(Inst::Halt),
        Just(Inst::Nop),
    ]
}

proptest! {
    #[test]
    fn disassembly_reparses_identically(
        insts in prop::collection::vec(arb_inst(64), 1..64)
    ) {
        let original = mmt_isa::Program::from_insts(insts);
        let text = original.to_string();
        let reparsed = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        prop_assert_eq!(reparsed, original);
    }
}

// ---------------------------------------------------------------------
// Garbage input: the assembler returns a program or a `ParseError`,
// never panics, and whatever it accepts round-trips.
// ---------------------------------------------------------------------

/// Parse `text`; a success must disassemble and reparse to itself.
fn parse_garbage(text: &str) -> Result<(), String> {
    if let Ok(program) = parse(text) {
        let again = program.to_string();
        let reparsed = parse(&again).map_err(|e| format!("{e}\n{again}"))?;
        prop_assert!(reparsed == program, "{text:?} does not round-trip");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bytes_parse_or_fail_cleanly(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        parse_garbage(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn truncated_disassembly_parses_or_fails_cleanly(
        insts in prop::collection::vec(arb_inst(64), 1..32),
        cut in any::<usize>(),
    ) {
        let text = mmt_isa::Program::from_insts(insts).to_string();
        let cut = cut % (text.len() + 1);
        prop_assert!(text.is_char_boundary(cut), "disassembly is ASCII");
        parse_garbage(&text[..cut])?;
    }

    #[test]
    fn corrupted_disassembly_parses_or_fails_cleanly(
        insts in prop::collection::vec(arb_inst(64), 1..32),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mut bytes = mmt_isa::Program::from_insts(insts).to_string().into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte;
        parse_garbage(&String::from_utf8_lossy(&bytes))?;
    }
}
