//! Functional interpreter.
//!
//! [`Machine`] executes one thread context over a [`Program`] and a
//! [`Memory`], one instruction per [`Machine::step`]. Every step reports a
//! complete [`StepInfo`] — operand values, result, memory address, branch
//! resolution — which the cycle-level timing model in `mmt-sim` uses as a
//! value oracle ("execute-at-dispatch" style) and the profiler in
//! `mmt-profile` uses to classify fetch-/execute-identical instructions.
//!
//! Determinism: there is no randomness, no host floating point, and no
//! wall-clock anywhere in the interpreter. Identical `(program, memory,
//! machine)` states always evolve identically.

use crate::inst::{Inst, OpClass};
use crate::program::Program;
use crate::reg::{Reg, NUM_REGS};
use std::error::Error;
use std::fmt;

/// Default maximum memory size in 64-bit words (4 Mi words = 32 MiB).
pub const DEFAULT_MEM_LIMIT: u64 = 1 << 22;

/// Error raised by [`Machine::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// The PC left the program text.
    PcOutOfBounds {
        /// The faulting PC.
        pc: u64,
    },
    /// A load/store address exceeded the memory limit.
    MemOutOfBounds {
        /// The faulting word address.
        addr: u64,
        /// PC of the faulting instruction.
        pc: u64,
    },
    /// `step` was called on a halted machine.
    Halted,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::PcOutOfBounds { pc } => write!(f, "pc {pc} outside program text"),
            ExecError::MemOutOfBounds { addr, pc } => {
                write!(f, "memory address {addr} out of bounds at pc {pc}")
            }
            ExecError::Halted => write!(f, "machine already halted"),
        }
    }
}

impl Error for ExecError {}

/// A word-addressed data memory.
///
/// Grows on demand (zero-filled) up to a configurable word limit. Each
/// memory carries an `id`; multi-threaded workloads share a single memory
/// while multi-execution workloads give each process its own — the
/// distinction at the heart of the paper's load-handling rules (Table 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Memory {
    words: Vec<u64>,
    limit: u64,
    id: usize,
}

impl Memory {
    /// Create an empty memory with the default size limit.
    pub fn new(id: usize) -> Memory {
        Memory::with_limit(id, DEFAULT_MEM_LIMIT)
    }

    /// Create an empty memory limited to `limit` words.
    pub fn with_limit(id: usize, limit: u64) -> Memory {
        Memory {
            words: Vec::new(),
            limit,
            id,
        }
    }

    /// This memory's identity (process id for multi-execution workloads).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The configured word limit.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// The backed words (index = word address; everything past the end
    /// reads as zero). The raw image behind checkpointing and state
    /// digests.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuild a memory from a checkpointed image. `words` is the dense
    /// image starting at address 0; addresses past its end read as zero.
    pub fn from_words(id: usize, limit: u64, words: Vec<u64>) -> Memory {
        Memory { words, limit, id }
    }

    /// Read the word at `addr`; untouched memory reads as zero.
    ///
    /// # Errors
    ///
    /// [`MemError`] when `addr` exceeds the configured limit.
    #[inline]
    pub fn load(&self, addr: u64) -> Result<u64, MemError> {
        if addr >= self.limit {
            return Err(MemError { addr });
        }
        Ok(self.words.get(addr as usize).copied().unwrap_or(0))
    }

    /// Write the word at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError`] when `addr` exceeds the configured limit.
    #[inline]
    pub fn store(&mut self, addr: u64, value: u64) -> Result<(), MemError> {
        if addr >= self.limit {
            return Err(MemError { addr });
        }
        let i = addr as usize;
        if i >= self.words.len() {
            self.words.resize(i + 1, 0);
        }
        self.words[i] = value;
        Ok(())
    }

    /// Number of words currently backed (the high-water mark of stores).
    pub fn touched_len(&self) -> usize {
        self.words.len()
    }

    /// Words the image can back before a store past its end reallocates.
    pub fn capacity(&self) -> usize {
        self.words.capacity()
    }
}

/// Out-of-bounds memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemError {
    /// The faulting word address.
    pub addr: u64,
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "memory address {} out of bounds", self.addr)
    }
}

impl Error for MemError {}

/// Everything observable about one executed instruction.
///
/// This is the oracle record the timing model attaches to each dynamic
/// instruction: the values let it resolve branches, compute effective
/// addresses, and compare results across threads (for the paper's
/// register-merging and LVIP mechanisms) without re-implementing
/// semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepInfo {
    /// PC of the executed instruction.
    pub pc: u64,
    /// The instruction itself.
    pub inst: Inst,
    /// PC of the next instruction this thread will execute.
    pub next_pc: u64,
    /// Source operand values, in [`Inst::sources`] order.
    pub src_vals: [u64; 2],
    /// Number of valid entries in `src_vals`.
    pub num_srcs: u8,
    /// Value written to the destination register, if any.
    pub result: Option<u64>,
    /// Effective word address for loads/stores.
    pub mem_addr: Option<u64>,
    /// Value loaded (for loads) — this is also `result`.
    pub loaded: Option<u64>,
    /// Value stored (for stores).
    pub stored: Option<u64>,
    /// `Some(taken)` when the instruction is a conditional branch.
    pub taken: Option<bool>,
    /// Resolved control-flow target for taken branches and all jumps.
    pub control_target: Option<u64>,
    /// Whether the machine halted executing this instruction.
    pub halted: bool,
}

impl StepInfo {
    /// The valid source operand values.
    pub fn srcs(&self) -> &[u64] {
        &self.src_vals[..self.num_srcs as usize]
    }

    /// True when this instruction redirected control flow (taken branch or
    /// any jump).
    pub fn redirects(&self) -> bool {
        match self.taken {
            Some(taken) => taken,
            None => matches!(self.inst.class(), OpClass::Jump),
        }
    }
}

/// One thread context: 32 architected registers plus a PC.
///
/// # Examples
///
/// ```
/// use mmt_isa::{asm::Builder, interp::{Machine, Memory}, Reg};
/// let mut b = Builder::new();
/// b.tid(Reg::R1);
/// b.halt();
/// let prog = b.build()?;
/// let mut mem = Memory::new(0);
/// let mut m = Machine::new(3); // hardware thread 3
/// m.step(&prog, &mut mem)?;
/// assert_eq!(m.reg(Reg::R1), 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Machine {
    regs: [u64; NUM_REGS],
    pc: u64,
    tid: usize,
    halted: bool,
    retired: u64,
}

impl Machine {
    /// New machine for hardware thread `tid`, all registers zero, PC 0.
    pub fn new(tid: usize) -> Machine {
        Machine {
            regs: [0; NUM_REGS],
            pc: 0,
            tid,
            halted: false,
            retired: 0,
        }
    }

    /// Current program counter.
    #[inline]
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Set the program counter (used to start threads at an entry point).
    pub fn set_pc(&mut self, pc: u64) {
        self.pc = pc;
    }

    /// This context's hardware thread id.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Read an architected register (`r0` always reads 0).
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Write an architected register (writes to `r0` are discarded).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// All architected register values, indexed by [`Reg::index`].
    pub fn regs(&self) -> &[u64; NUM_REGS] {
        &self.regs
    }

    /// Whether this thread has executed `halt`.
    #[inline]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Dynamic instructions executed so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Rebuild a machine from checkpointed architectural state. The
    /// inverse of reading [`Machine::regs`] / [`Machine::pc`] /
    /// [`Machine::halted`] / [`Machine::retired`]: a machine built from
    /// a snapshot of another machine evolves identically from that point
    /// (the interpreter holds no other state).
    pub fn from_parts(
        tid: usize,
        regs: [u64; NUM_REGS],
        pc: u64,
        halted: bool,
        retired: u64,
    ) -> Machine {
        let mut m = Machine {
            regs,
            pc,
            tid,
            halted,
            retired,
        };
        m.regs[0] = 0; // r0 stays hardwired even if the snapshot lied
        m
    }

    /// Execute one instruction.
    ///
    /// # Errors
    ///
    /// * [`ExecError::Halted`] if the thread already halted.
    /// * [`ExecError::PcOutOfBounds`] if the PC left the program.
    /// * [`ExecError::MemOutOfBounds`] on an out-of-limit access.
    #[inline]
    pub fn step(&mut self, prog: &Program, mem: &mut Memory) -> Result<StepInfo, ExecError> {
        if self.halted {
            return Err(ExecError::Halted);
        }
        let pc = self.pc;
        let inst = prog.fetch(pc).ok_or(ExecError::PcOutOfBounds { pc })?;

        let mut info = StepInfo {
            pc,
            inst,
            next_pc: pc + 1,
            src_vals: [0; 2],
            num_srcs: 0,
            result: None,
            mem_addr: None,
            loaded: None,
            stored: None,
            taken: None,
            control_target: None,
            halted: false,
        };
        for (i, r) in inst.sources().iter().enumerate() {
            info.src_vals[i] = self.reg(r);
            info.num_srcs += 1;
        }

        match inst {
            Inst::Alu { op, rd, rs1, rs2 } => {
                let v = op.apply(self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v);
                info.result = Some(v);
            }
            Inst::AluI { op, rd, rs1, imm } => {
                let v = op.apply(self.reg(rs1), imm as u64);
                self.set_reg(rd, v);
                info.result = Some(v);
            }
            Inst::Fpu { op, rd, rs1, rs2 } => {
                let v = op.apply(self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v);
                info.result = Some(v);
            }
            Inst::Ld { rd, base, off } => {
                let addr = self.reg(base).wrapping_add_signed(off);
                let v = mem
                    .load(addr)
                    .map_err(|e| ExecError::MemOutOfBounds { addr: e.addr, pc })?;
                self.set_reg(rd, v);
                info.mem_addr = Some(addr);
                info.loaded = Some(v);
                info.result = Some(v);
            }
            Inst::St { src, base, off } => {
                let addr = self.reg(base).wrapping_add_signed(off);
                let v = self.reg(src);
                mem.store(addr, v)
                    .map_err(|e| ExecError::MemOutOfBounds { addr: e.addr, pc })?;
                info.mem_addr = Some(addr);
                info.stored = Some(v);
            }
            Inst::Br {
                cond,
                rs1,
                rs2,
                target,
            } => {
                let taken = cond.eval(self.reg(rs1), self.reg(rs2));
                info.taken = Some(taken);
                if taken {
                    info.next_pc = target;
                    info.control_target = Some(target);
                }
            }
            Inst::Jmp { target } => {
                info.next_pc = target;
                info.control_target = Some(target);
            }
            Inst::Jal { rd, target } => {
                let link = pc + 1;
                self.set_reg(rd, link);
                info.result = Some(link);
                info.next_pc = target;
                info.control_target = Some(target);
            }
            Inst::Jr { rs } => {
                let target = self.reg(rs);
                info.next_pc = target;
                info.control_target = Some(target);
            }
            Inst::Tid { rd } => {
                let v = self.tid as u64;
                self.set_reg(rd, v);
                info.result = Some(v);
            }
            Inst::Halt => {
                self.halted = true;
                info.halted = true;
                info.next_pc = pc; // frozen
            }
            Inst::Nop => {}
        }

        self.pc = info.next_pc;
        self.retired += 1;
        Ok(info)
    }

    /// Run until `halt` or `max_steps` instructions, returning the number
    /// executed.
    ///
    /// # Errors
    ///
    /// Propagates any [`ExecError`] from [`Machine::step`].
    pub fn run(
        &mut self,
        prog: &Program,
        mem: &mut Memory,
        max_steps: u64,
    ) -> Result<u64, ExecError> {
        let mut n = 0;
        while !self.halted && n < max_steps {
            self.step(prog, mem)?;
            n += 1;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Builder;
    use crate::inst::{AluOp, FpuOp};

    fn run_to_halt(b: Builder) -> (Machine, Memory) {
        let prog = b.build().unwrap();
        let mut mem = Memory::new(0);
        let mut m = Machine::new(0);
        m.run(&prog, &mut mem, 1_000_000).unwrap();
        assert!(m.halted());
        (m, mem)
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let mut b = Builder::new();
        b.addi(Reg::R0, Reg::R0, 42);
        b.alu_add(Reg::R1, Reg::R0, Reg::R0);
        b.halt();
        let (m, _) = run_to_halt(b);
        assert_eq!(m.reg(Reg::R0), 0);
        assert_eq!(m.reg(Reg::R1), 0);
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let mut b = Builder::new();
        b.addi(Reg::R1, Reg::R0, 100); // base
        b.addi(Reg::R2, Reg::R0, 7777);
        b.st(Reg::R2, Reg::R1, 5);
        b.ld(Reg::R3, Reg::R1, 5);
        b.ld(Reg::R4, Reg::R1, 6); // untouched => 0
        b.halt();
        let (m, mem) = run_to_halt(b);
        assert_eq!(m.reg(Reg::R3), 7777);
        assert_eq!(m.reg(Reg::R4), 0);
        assert_eq!(mem.load(105).unwrap(), 7777);
    }

    #[test]
    fn negative_offsets_work() {
        let mut b = Builder::new();
        b.addi(Reg::R1, Reg::R0, 100);
        b.addi(Reg::R2, Reg::R0, 9);
        b.st(Reg::R2, Reg::R1, -10);
        b.ld(Reg::R3, Reg::R1, -10);
        b.halt();
        let (m, _) = run_to_halt(b);
        assert_eq!(m.reg(Reg::R3), 9);
    }

    #[test]
    fn branch_taken_and_not_taken_reported() {
        let mut b = Builder::new();
        let l = b.label();
        b.addi(Reg::R1, Reg::R0, 1);
        b.beq(Reg::R1, Reg::R0, l); // not taken
        b.bne(Reg::R1, Reg::R0, l); // taken
        b.nop(); // skipped
        b.bind(l);
        b.halt();
        let prog = b.build().unwrap();
        let mut mem = Memory::new(0);
        let mut m = Machine::new(0);
        m.step(&prog, &mut mem).unwrap();
        let nt = m.step(&prog, &mut mem).unwrap();
        assert_eq!(nt.taken, Some(false));
        assert!(!nt.redirects());
        assert_eq!(nt.next_pc, 2);
        let t = m.step(&prog, &mut mem).unwrap();
        assert_eq!(t.taken, Some(true));
        assert!(t.redirects());
        assert_eq!(t.next_pc, 4);
        assert_eq!(t.control_target, Some(4));
    }

    #[test]
    fn jal_jr_call_return() {
        let mut b = Builder::new();
        let func = b.label();
        let after = b.label();
        b.jal(Reg::Ra, func); // pc 0
        b.bind(after);
        b.halt(); // pc 1
        b.bind(func);
        b.addi(Reg::R1, Reg::R0, 5); // pc 2
        b.jr(Reg::Ra); // pc 3 -> returns to 1
        let prog = b.build().unwrap();
        let mut mem = Memory::new(0);
        let mut m = Machine::new(0);
        let j = m.step(&prog, &mut mem).unwrap();
        assert_eq!(j.result, Some(1)); // link value
        m.run(&prog, &mut mem, 100).unwrap();
        assert!(m.halted());
        assert_eq!(m.reg(Reg::R1), 5);
        assert_eq!(m.retired(), 4);
    }

    #[test]
    fn tid_differs_per_context() {
        let mut b = Builder::new();
        b.tid(Reg::R1);
        b.halt();
        let prog = b.build().unwrap();
        for tid in 0..4 {
            let mut mem = Memory::new(0);
            let mut m = Machine::new(tid);
            m.run(&prog, &mut mem, 10).unwrap();
            assert_eq!(m.reg(Reg::R1), tid as u64);
        }
    }

    #[test]
    fn step_after_halt_is_error() {
        let mut b = Builder::new();
        b.halt();
        let prog = b.build().unwrap();
        let mut mem = Memory::new(0);
        let mut m = Machine::new(0);
        let info = m.step(&prog, &mut mem).unwrap();
        assert!(info.halted);
        assert_eq!(m.step(&prog, &mut mem), Err(ExecError::Halted));
    }

    #[test]
    fn pc_out_of_bounds_is_error() {
        let prog = Program::from_insts(vec![Inst::Nop]);
        let mut mem = Memory::new(0);
        let mut m = Machine::new(0);
        m.step(&prog, &mut mem).unwrap();
        assert_eq!(
            m.step(&prog, &mut mem),
            Err(ExecError::PcOutOfBounds { pc: 1 })
        );
    }

    #[test]
    fn memory_limit_enforced() {
        let mut mem = Memory::with_limit(0, 10);
        assert!(mem.store(9, 1).is_ok());
        assert_eq!(mem.store(10, 1), Err(MemError { addr: 10 }));
        assert_eq!(mem.load(10), Err(MemError { addr: 10 }));
        assert_eq!(mem.touched_len(), 10);
    }

    #[test]
    fn step_info_reports_operands() {
        let mut b = Builder::new();
        b.addi(Reg::R1, Reg::R0, 6);
        b.addi(Reg::R2, Reg::R0, 7);
        b.alu_mul(Reg::R3, Reg::R1, Reg::R2);
        b.halt();
        let prog = b.build().unwrap();
        let mut mem = Memory::new(0);
        let mut m = Machine::new(0);
        m.step(&prog, &mut mem).unwrap();
        m.step(&prog, &mut mem).unwrap();
        let i = m.step(&prog, &mut mem).unwrap();
        assert_eq!(i.srcs(), &[6, 7]);
        assert_eq!(i.result, Some(42));
        assert_eq!(i.inst.class(), OpClass::IntMul);
    }

    #[test]
    fn fpu_ops_execute() {
        let mut b = Builder::new();
        b.addi(Reg::R1, Reg::R0, 100);
        b.fpu(FpuOp::Fsqrt, Reg::R2, Reg::R1, Reg::R0);
        b.halt();
        let (m, _) = run_to_halt(b);
        assert_eq!(m.reg(Reg::R2), 10);
    }

    #[test]
    fn identical_inputs_identical_results_across_contexts() {
        // The execute-identical premise: same instruction + same operand
        // values => same result, regardless of which context runs it.
        let mut b = Builder::new();
        b.addi(Reg::R1, Reg::R0, 123);
        b.addi(Reg::R2, Reg::R0, 456);
        for op in [AluOp::Add, AluOp::Sub, AluOp::Mul, AluOp::Div, AluOp::Xor] {
            b.alu(op, Reg::R3, Reg::R1, Reg::R2);
        }
        b.halt();
        let prog = b.build().unwrap();
        let mut results = Vec::new();
        for tid in 0..2 {
            let mut mem = Memory::new(tid);
            let mut m = Machine::new(tid);
            let mut r = Vec::new();
            while !m.halted() {
                r.push(m.step(&prog, &mut mem).unwrap().result);
            }
            results.push(r);
        }
        assert_eq!(results[0], results[1]);
    }
}
