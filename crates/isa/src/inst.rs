//! The instruction set.
//!
//! A small load/store RISC: ALU register/immediate forms, long-latency
//! "FPU" operations, loads/stores, conditional branches, jumps, and a
//! `tid` instruction that reads the hardware thread id (how SPMD kernels
//! partition work). All operations are defined over 64-bit integers with
//! fully deterministic semantics so that two threads presented with
//! identical inputs always produce bit-identical results — the property
//! the paper's *execute-identical* classification relies on.
//!
//! The "FPU" ops are integer-valued stand-ins (wrapping add/mul, guarded
//! div, integer sqrt) that execute on the floating-point unit with
//! floating-point latencies. The MMT mechanisms never inspect arithmetic
//! meaning, only operand/result equality and functional-unit class, so
//! this keeps the interpreter exact without changing anything the paper
//! measures.

use crate::reg::Reg;
use std::fmt;

/// Two-source integer ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AluOp {
    Add,
    Sub,
    And,
    Or,
    Xor,
    /// Logical shift left by `rs2 & 63`.
    Shl,
    /// Logical shift right by `rs2 & 63`.
    Shr,
    /// Signed set-less-than: `rd = (rs1 as i64) < (rs2 as i64)`.
    Slt,
    /// 3-cycle integer multiply (wrapping).
    Mul,
    /// 12-cycle integer divide; division by zero yields 0.
    Div,
}

impl AluOp {
    /// Apply the operation to two operand values.
    #[inline]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl((b & 63) as u32),
            AluOp::Shr => a.wrapping_shr((b & 63) as u32),
            AluOp::Slt => ((a as i64) < (b as i64)) as u64,
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    0
                } else {
                    ((a as i64).wrapping_div(b as i64)) as u64
                }
            }
        }
    }

    fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::Slt => "slt",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
        }
    }
}

/// Long-latency operations executed on the floating-point unit.
///
/// Semantics are deterministic integer stand-ins (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FpuOp {
    Fadd,
    Fmul,
    Fdiv,
    Fsqrt,
}

impl FpuOp {
    /// Apply the operation. `Fsqrt` ignores its second operand.
    #[inline]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            FpuOp::Fadd => a.wrapping_add(b).rotate_left(1),
            FpuOp::Fmul => a.wrapping_mul(b ^ 0x9e37_79b9_7f4a_7c15),
            FpuOp::Fdiv => a.checked_div(b).unwrap_or(u64::MAX),
            FpuOp::Fsqrt => a.isqrt(),
        }
    }

    fn mnemonic(self) -> &'static str {
        match self {
            FpuOp::Fadd => "fadd",
            FpuOp::Fmul => "fmul",
            FpuOp::Fdiv => "fdiv",
            FpuOp::Fsqrt => "fsqrt",
        }
    }
}

/// Branch comparison conditions (signed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BrCond {
    Eq,
    Ne,
    Lt,
    Ge,
}

impl BrCond {
    /// Evaluate the condition over two register values.
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            BrCond::Eq => a == b,
            BrCond::Ne => a != b,
            BrCond::Lt => (a as i64) < (b as i64),
            BrCond::Ge => (a as i64) >= (b as i64),
        }
    }

    fn mnemonic(self) -> &'static str {
        match self {
            BrCond::Eq => "beq",
            BrCond::Ne => "bne",
            BrCond::Lt => "blt",
            BrCond::Ge => "bge",
        }
    }
}

/// A machine instruction.
///
/// Branch/jump targets are absolute instruction indices into the
/// containing [`crate::Program`] (the assembler resolves labels to these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// Register-register ALU operation: `rd = op(rs1, rs2)`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// Register-immediate ALU operation: `rd = op(rs1, imm)`.
    AluI {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
        /// Immediate operand.
        imm: i64,
    },
    /// Floating-point-unit operation: `rd = op(rs1, rs2)`.
    Fpu {
        /// Operation.
        op: FpuOp,
        /// Destination.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source (ignored by `fsqrt`).
        rs2: Reg,
    },
    /// Load: `rd = mem[rs(base) + off]` (word addressed).
    Ld {
        /// Destination.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Signed word offset.
        off: i64,
    },
    /// Store: `mem[rs(base) + off] = src`.
    St {
        /// Value source register.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Signed word offset.
        off: i64,
    },
    /// Conditional branch to absolute instruction index `target`.
    Br {
        /// Comparison condition.
        cond: BrCond,
        /// First compared register.
        rs1: Reg,
        /// Second compared register.
        rs2: Reg,
        /// Absolute target instruction index.
        target: u64,
    },
    /// Unconditional jump to absolute instruction index `target`.
    Jmp {
        /// Absolute target instruction index.
        target: u64,
    },
    /// Jump-and-link: `rd = pc + 1; pc = target`. Pushes a return-address
    /// stack entry in the front-end model.
    Jal {
        /// Link destination register.
        rd: Reg,
        /// Absolute target instruction index.
        target: u64,
    },
    /// Indirect jump through a register (function return).
    Jr {
        /// Register holding the target instruction index.
        rs: Reg,
    },
    /// Read the hardware thread/context id into `rd`.
    Tid {
        /// Destination.
        rd: Reg,
    },
    /// Stop this thread.
    Halt,
    /// No operation.
    Nop,
}

/// Functional-unit / scheduling class of an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Single-cycle integer ALU.
    IntAlu,
    /// Pipelined integer multiply.
    IntMul,
    /// Unpipelined integer divide.
    IntDiv,
    /// Floating-point add/compare class.
    FpAdd,
    /// Floating-point multiply.
    FpMul,
    /// Floating-point divide.
    FpDiv,
    /// Floating-point square root.
    FpSqrt,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    Branch,
    /// Unconditional control transfer (`jmp`/`jal`/`jr`).
    Jump,
    /// `nop`, `halt`, `tid` — no functional unit needed.
    Other,
}

impl OpClass {
    /// Execution latency in cycles (memory classes report the latency of
    /// address generation; cache latency is added by the memory model).
    pub const fn latency(self) -> u64 {
        match self {
            OpClass::IntAlu | OpClass::Branch | OpClass::Jump | OpClass::Other => 1,
            OpClass::IntMul => 3,
            OpClass::IntDiv => 12,
            OpClass::FpAdd => 4,
            OpClass::FpMul => 4,
            OpClass::FpDiv => 16,
            OpClass::FpSqrt => 20,
            OpClass::Load | OpClass::Store => 1,
        }
    }

    /// Whether the class executes on the FPU (vs an integer ALU).
    pub const fn is_fpu(self) -> bool {
        matches!(
            self,
            OpClass::FpAdd | OpClass::FpMul | OpClass::FpDiv | OpClass::FpSqrt
        )
    }

    /// Whether the class is a memory operation.
    pub const fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }
}

/// Source registers of an instruction, at most two.
///
/// Returned by [`Inst::sources`]; iterate or index it like a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Sources {
    regs: [Option<Reg>; 2],
}

impl Sources {
    fn none() -> Self {
        Sources { regs: [None, None] }
    }
    fn one(a: Reg) -> Self {
        Sources {
            regs: [Some(a), None],
        }
    }
    fn two(a: Reg, b: Reg) -> Self {
        Sources {
            regs: [Some(a), Some(b)],
        }
    }

    /// Iterate over the present source registers.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = Reg> + '_ {
        self.regs.iter().flatten().copied()
    }

    /// Number of source registers (0–2).
    #[inline]
    pub fn len(&self) -> usize {
        self.regs.iter().flatten().count()
    }

    /// True when the instruction reads no registers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Inst {
    /// The destination register written by this instruction, if any.
    /// Writes to `r0` are architecturally discarded but still reported
    /// here; renaming treats them as dropped.
    #[inline]
    pub fn dest(&self) -> Option<Reg> {
        match *self {
            Inst::Alu { rd, .. }
            | Inst::AluI { rd, .. }
            | Inst::Fpu { rd, .. }
            | Inst::Ld { rd, .. }
            | Inst::Jal { rd, .. }
            | Inst::Tid { rd } => Some(rd),
            _ => None,
        }
    }

    /// The source registers read by this instruction.
    #[inline]
    pub fn sources(&self) -> Sources {
        match *self {
            Inst::Alu { rs1, rs2, .. } | Inst::Fpu { rs1, rs2, .. } => Sources::two(rs1, rs2),
            Inst::AluI { rs1, .. } => Sources::one(rs1),
            Inst::Ld { base, .. } => Sources::one(base),
            Inst::St { src, base, .. } => Sources::two(base, src),
            Inst::Br { rs1, rs2, .. } => Sources::two(rs1, rs2),
            Inst::Jr { rs } => Sources::one(rs),
            Inst::Jmp { .. } | Inst::Jal { .. } | Inst::Tid { .. } | Inst::Halt | Inst::Nop => {
                Sources::none()
            }
        }
    }

    /// Scheduling class of this instruction.
    #[inline]
    pub fn class(&self) -> OpClass {
        match *self {
            Inst::Alu { op, .. } | Inst::AluI { op, .. } => match op {
                AluOp::Mul => OpClass::IntMul,
                AluOp::Div => OpClass::IntDiv,
                _ => OpClass::IntAlu,
            },
            Inst::Fpu { op, .. } => match op {
                FpuOp::Fadd => OpClass::FpAdd,
                FpuOp::Fmul => OpClass::FpMul,
                FpuOp::Fdiv => OpClass::FpDiv,
                FpuOp::Fsqrt => OpClass::FpSqrt,
            },
            Inst::Ld { .. } => OpClass::Load,
            Inst::St { .. } => OpClass::Store,
            Inst::Br { .. } => OpClass::Branch,
            Inst::Jmp { .. } | Inst::Jal { .. } | Inst::Jr { .. } => OpClass::Jump,
            Inst::Tid { .. } | Inst::Halt | Inst::Nop => OpClass::Other,
        }
    }

    /// Whether this is any control-flow instruction.
    #[inline]
    pub fn is_control(&self) -> bool {
        matches!(self.class(), OpClass::Branch | OpClass::Jump)
    }

    /// Whether the control-flow target is known statically (branch with
    /// immediate target, `jmp`, `jal` — everything except `jr`).
    pub fn static_target(&self) -> Option<u64> {
        match *self {
            Inst::Br { target, .. } | Inst::Jmp { target } | Inst::Jal { target, .. } => {
                Some(target)
            }
            _ => None,
        }
    }

    /// Whether execution can continue at `pc + 1` after this instruction:
    /// true for everything except unconditional transfers (`jmp`, `jal`,
    /// `jr`) and `halt`. Conditional branches fall through when not taken.
    pub fn falls_through(&self) -> bool {
        !matches!(
            *self,
            Inst::Jmp { .. } | Inst::Jal { .. } | Inst::Jr { .. } | Inst::Halt
        )
    }

    /// Whether this is a call (`jal`) — the only producer of code
    /// addresses in this ISA, and therefore the anchor of every call
    /// graph edge.
    pub fn is_call(&self) -> bool {
        matches!(*self, Inst::Jal { .. })
    }

    /// The callee entry PC when this is a call (`jal`).
    pub fn call_target(&self) -> Option<u64> {
        match *self {
            Inst::Jal { target, .. } => Some(target),
            _ => None,
        }
    }

    /// Whether this is an indirect (register) jump — `jr`, the ISA's
    /// return instruction. Its target is dynamic; a call graph resolves
    /// it to the return sites of the enclosing function's callers.
    pub fn is_indirect_jump(&self) -> bool {
        matches!(*self, Inst::Jr { .. })
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Alu { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Inst::AluI { op, rd, rs1, imm } => {
                write!(f, "{}i {rd}, {rs1}, {imm}", op.mnemonic())
            }
            Inst::Fpu { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Inst::Ld { rd, base, off } => write!(f, "ld {rd}, {off}({base})"),
            Inst::St { src, base, off } => write!(f, "st {src}, {off}({base})"),
            Inst::Br {
                cond,
                rs1,
                rs2,
                target,
            } => write!(f, "{} {rs1}, {rs2}, @{target}", cond.mnemonic()),
            Inst::Jmp { target } => write!(f, "jmp @{target}"),
            Inst::Jal { rd, target } => write!(f, "jal {rd}, @{target}"),
            Inst::Jr { rs } => write!(f, "jr {rs}"),
            Inst::Tid { rd } => write!(f, "tid {rd}"),
            Inst::Halt => write!(f, "halt"),
            Inst::Nop => write!(f, "nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(2, 3), 5);
        assert_eq!(AluOp::Add.apply(u64::MAX, 1), 0);
        assert_eq!(AluOp::Sub.apply(2, 3), u64::MAX);
        assert_eq!(AluOp::And.apply(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.apply(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.apply(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Shl.apply(1, 4), 16);
        assert_eq!(AluOp::Shl.apply(1, 64), 1); // shift amount masked
        assert_eq!(AluOp::Shr.apply(16, 4), 1);
        assert_eq!(AluOp::Slt.apply((-1i64) as u64, 0), 1);
        assert_eq!(AluOp::Slt.apply(0, (-1i64) as u64), 0);
        assert_eq!(AluOp::Mul.apply(7, 6), 42);
        assert_eq!(AluOp::Div.apply(42, 6), 7);
        assert_eq!(AluOp::Div.apply(42, 0), 0);
        assert_eq!(
            AluOp::Div.apply((-42i64) as u64, 6),
            (-7i64) as u64,
            "signed division"
        );
    }

    #[test]
    fn div_min_by_minus_one_does_not_panic() {
        // i64::MIN / -1 overflows a naive `/`; wrapping_div must be used.
        let r = AluOp::Div.apply(i64::MIN as u64, (-1i64) as u64);
        assert_eq!(r, i64::MIN as u64);
    }

    #[test]
    fn fpu_semantics_deterministic() {
        for op in [FpuOp::Fadd, FpuOp::Fmul, FpuOp::Fdiv, FpuOp::Fsqrt] {
            assert_eq!(op.apply(1234, 77), op.apply(1234, 77));
        }
        assert_eq!(FpuOp::Fdiv.apply(5, 0), u64::MAX);
        assert_eq!(FpuOp::Fsqrt.apply(144, 0), 12);
    }

    #[test]
    fn branch_conditions() {
        assert!(BrCond::Eq.eval(4, 4));
        assert!(!BrCond::Eq.eval(4, 5));
        assert!(BrCond::Ne.eval(4, 5));
        assert!(BrCond::Lt.eval((-3i64) as u64, 2));
        assert!(BrCond::Ge.eval(2, (-3i64) as u64));
    }

    #[test]
    fn sources_and_dest() {
        let i = Inst::Alu {
            op: AluOp::Add,
            rd: Reg::R1,
            rs1: Reg::R2,
            rs2: Reg::R3,
        };
        assert_eq!(i.dest(), Some(Reg::R1));
        let s: Vec<Reg> = i.sources().iter().collect();
        assert_eq!(s, vec![Reg::R2, Reg::R3]);

        let st = Inst::St {
            src: Reg::R4,
            base: Reg::R5,
            off: 1,
        };
        assert_eq!(st.dest(), None);
        assert_eq!(st.sources().len(), 2);

        assert!(Inst::Nop.sources().is_empty());
        assert_eq!(Inst::Halt.dest(), None);
        assert_eq!(Inst::Tid { rd: Reg::R9 }.dest(), Some(Reg::R9));
    }

    #[test]
    fn classes_and_latencies() {
        let mul = Inst::Alu {
            op: AluOp::Mul,
            rd: Reg::R1,
            rs1: Reg::R1,
            rs2: Reg::R1,
        };
        assert_eq!(mul.class(), OpClass::IntMul);
        assert_eq!(mul.class().latency(), 3);
        assert!(OpClass::FpDiv.is_fpu());
        assert!(!OpClass::IntDiv.is_fpu());
        assert!(OpClass::Load.is_mem());
        assert!(!OpClass::Branch.is_mem());
        let j = Inst::Jr { rs: Reg::Ra };
        assert!(j.is_control());
        assert_eq!(j.static_target(), None);
        assert_eq!(Inst::Jmp { target: 7 }.static_target(), Some(7));
    }

    #[test]
    fn fall_through_classification() {
        assert!(!Inst::Jmp { target: 0 }.falls_through());
        assert!(!Inst::Jal {
            rd: Reg::Ra,
            target: 0
        }
        .falls_through());
        assert!(!Inst::Jr { rs: Reg::Ra }.falls_through());
        assert!(!Inst::Halt.falls_through());
        // Conditional branches fall through when not taken.
        let br = Inst::Br {
            cond: BrCond::Eq,
            rs1: Reg::R1,
            rs2: Reg::R2,
            target: 3,
        };
        assert!(br.falls_through());
        assert!(Inst::Nop.falls_through());
        assert!(Inst::Tid { rd: Reg::R1 }.falls_through());
    }

    #[test]
    fn display_formats() {
        let i = Inst::Ld {
            rd: Reg::R1,
            base: Reg::Sp,
            off: -2,
        };
        assert_eq!(i.to_string(), "ld r1, -2(sp)");
        let b = Inst::Br {
            cond: BrCond::Ne,
            rs1: Reg::R1,
            rs2: Reg::R0,
            target: 12,
        };
        assert_eq!(b.to_string(), "bne r1, r0, @12");
    }

    #[test]
    fn call_and_return_helpers() {
        let call = Inst::Jal {
            rd: Reg::Ra,
            target: 7,
        };
        assert!(call.is_call());
        assert_eq!(call.call_target(), Some(7));
        assert!(!call.is_indirect_jump());

        let ret = Inst::Jr { rs: Reg::Ra };
        assert!(ret.is_indirect_jump());
        assert!(!ret.is_call());
        assert_eq!(ret.call_target(), None);

        let jmp = Inst::Jmp { target: 3 };
        assert!(!jmp.is_call());
        assert_eq!(jmp.call_target(), None);
        assert!(!jmp.is_indirect_jump());
    }
}
