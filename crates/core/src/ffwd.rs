//! Block-dispatch fast-forward executor.
//!
//! The detailed model pays rename/issue/ROB bookkeeping on every cycle
//! even when nothing is being measured. This module is the fast half of
//! the two-speed simulator: a purely functional executor that predecodes
//! the program into straight-line runs ("basic blocks" ending at the
//! next control-flow instruction or `halt`) and dispatches a whole run
//! per thread turn, touching nothing but the architectural state in an
//! [`ArchState`]. No ROB, no rename, no issue queue, no cache timing —
//! just the ISA semantics of [`mmt_isa::interp::Machine::step`],
//! replicated exactly so the two modes produce bit-identical
//! architectural results.
//!
//! Scheduling is round-robin, one block per live thread per turn. For
//! the race-free SPMD workloads this repo admits (`mmtgate --check mem`
//! and `mmtlint` verify no cross-thread races), the final architectural
//! state is interleaving-independent, so the fast path's block-granular
//! schedule and the detailed model's cycle-granular one converge to the
//! same digest — the property `mmtgate --check ffwd` checks on every app.
//!
//! The per-program predecode cost is one backward pass computing
//! `run_len[pc]` — the inclusive distance from `pc` to its block
//! terminator — after which dispatch never re-classifies instructions.

use crate::snapshot::ArchState;
use mmt_isa::interp::ExecError;
use mmt_isa::{Inst, MemSharing, Program, Reg};
use mmt_mem::MemoryHierarchy;

/// A predecoded program ready for block-at-a-time dispatch.
///
/// # Examples
///
/// ```
/// use mmt_isa::{asm::Builder, MemSharing, Reg};
/// use mmt_sim::{ArchState, Ffwd};
/// let mut b = Builder::new();
/// b.addi(Reg::R1, Reg::R0, 7);
/// b.halt();
/// let prog = b.build()?;
/// let ffwd = Ffwd::new(&prog);
/// let mut state = ArchState::initial(1, MemSharing::Shared, &[0], 1 << 20);
/// let executed = ffwd.run_to_halt(&prog, &mut state, 1_000)?;
/// assert_eq!(executed, 2);
/// assert_eq!(state.threads[0].regs[1], 7);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Ffwd {
    /// `run_len[pc]` = number of instructions from `pc` through the end
    /// of its straight-line run, inclusive of the control/halt
    /// terminator (or the end of the program text).
    run_len: Vec<u32>,
}

impl Ffwd {
    /// Predecode `prog`. One backward pass, O(program length).
    pub fn new(prog: &Program) -> Ffwd {
        let insts = prog.as_slice();
        let mut run_len = vec![0u32; insts.len()];
        for (i, inst) in insts.iter().enumerate().rev() {
            run_len[i] = if inst.is_control() || matches!(inst, Inst::Halt) {
                1
            } else if i + 1 < insts.len() {
                run_len[i + 1] + 1
            } else {
                1
            };
        }
        Ffwd { run_len }
    }

    /// Execute at least `budget` instructions (summed over threads),
    /// round-robin one block per live thread per turn, stopping early if
    /// every thread halts. Returns the number actually executed — this
    /// can overshoot `budget`, both because blocks are dispatched whole
    /// and because trailing threads are then run up to the leading
    /// thread's block-start PC (bounded), so a detailed model resumed
    /// from the result starts with its threads mergeable instead of
    /// paying a long pseudo-divergence (DESIGN.md §14).
    ///
    /// # Errors
    ///
    /// The same faults [`Machine::step`] raises, at the same
    /// architectural point: a PC outside the program text or an
    /// out-of-limit memory access. `state` is left at the fault
    /// boundary (every instruction before the faulting one retired).
    ///
    /// [`Machine::step`]: mmt_isa::interp::Machine::step
    pub fn advance(
        &self,
        prog: &Program,
        state: &mut ArchState,
        budget: u64,
    ) -> Result<u64, ExecError> {
        self.advance_inner(prog, state, budget, None)
    }

    /// [`Ffwd::advance`] with *functional warming* (DESIGN.md §14): every
    /// executed instruction also touches `hierarchy` — residency and LRU
    /// state only, no timing — so a detailed window resumed after the
    /// fast-forward sees the cache contents a full-detail run would have
    /// had. Without this, every detailed window re-pays the whole
    /// working set as cold misses and sampled cycle estimates are
    /// biased by an order of magnitude.
    ///
    /// # Errors
    ///
    /// As [`Ffwd::advance`].
    pub fn advance_warming(
        &self,
        prog: &Program,
        state: &mut ArchState,
        budget: u64,
        hierarchy: &mut MemoryHierarchy,
    ) -> Result<u64, ExecError> {
        self.advance_inner(prog, state, budget, Some(hierarchy))
    }

    fn advance_inner(
        &self,
        prog: &Program,
        state: &mut ArchState,
        budget: u64,
        mut warm: Option<&mut MemoryHierarchy>,
    ) -> Result<u64, ExecError> {
        let mut executed = 0u64;
        let nthreads = state.threads.len();
        let sharing = state.sharing;
        while executed < budget {
            let mut any_live = false;
            for t in 0..nthreads {
                if state.threads[t].halted {
                    continue;
                }
                any_live = true;
                let mem_idx = state.mem_index(t);
                // The detailed model's address-space mapping: data in
                // space 0 when memory is shared, per-tid spaces for
                // multi-execution processes; instructions in space 0.
                let data_space = match sharing {
                    MemSharing::Shared => 0,
                    MemSharing::PerThread => t,
                };
                executed += self.run_block(
                    prog,
                    &mut state.threads[t],
                    &mut state.memories[mem_idx],
                    data_space,
                    warm.as_deref_mut(),
                )?;
                if executed >= budget {
                    break;
                }
            }
            if !any_live {
                break;
            }
        }
        executed += self.align_threads(prog, state, warm)?;
        if executed > 0 {
            // The RST snapshot pairs registers by *value*; functional
            // execution changed values behind its back, so a resumed
            // detailed model must re-derive sharing from the registers
            // themselves (Simulator::from_arch does exactly that when
            // the snapshot carries no RST).
            state.rst = None;
        }
        Ok(executed)
    }

    /// Run every trailing live thread forward until it sits at the same
    /// block-start PC as the most-advanced thread (capped per thread).
    /// Threads in these workloads execute near-identical instruction
    /// streams, so the trailing thread's block-start sequence revisits
    /// the leader's PC within a few blocks; genuinely divergent control
    /// flow hits the cap and hands off unaligned, which is still
    /// architecturally exact — alignment only moves the handoff point.
    fn align_threads(
        &self,
        prog: &Program,
        state: &mut ArchState,
        mut warm: Option<&mut MemoryHierarchy>,
    ) -> Result<u64, ExecError> {
        const ALIGN_CAP: u64 = 4_096;
        let Some((lead_pc, lead_retired)) = state
            .threads
            .iter()
            .filter(|t| !t.halted)
            .max_by_key(|t| t.retired)
            .map(|t| (t.pc, t.retired))
        else {
            return Ok(0);
        };
        let sharing = state.sharing;
        let mut executed = 0u64;
        for t in 0..state.threads.len() {
            let mut extra = 0u64;
            // Catch up in retired count *first*, then stop at the
            // leader's PC: stopping at the first PC match would leave
            // the thread a whole loop iteration behind — same PC,
            // different register values — which kills execution merging
            // for the entire resumed window.
            while !state.threads[t].halted
                && (state.threads[t].retired < lead_retired || state.threads[t].pc != lead_pc)
                && extra < ALIGN_CAP
            {
                let mem_idx = state.mem_index(t);
                let data_space = match sharing {
                    MemSharing::Shared => 0,
                    MemSharing::PerThread => t,
                };
                extra += self.run_block(
                    prog,
                    &mut state.threads[t],
                    &mut state.memories[mem_idx],
                    data_space,
                    warm.as_deref_mut(),
                )?;
            }
            executed += extra;
        }
        Ok(executed)
    }

    /// Run until every thread halts or `max_insts` instructions have
    /// executed, returning the number executed.
    ///
    /// # Errors
    ///
    /// As [`Ffwd::advance`].
    pub fn run_to_halt(
        &self,
        prog: &Program,
        state: &mut ArchState,
        max_insts: u64,
    ) -> Result<u64, ExecError> {
        let mut executed = 0u64;
        while !state.all_halted() && executed < max_insts {
            executed += self.advance(prog, state, (max_insts - executed).min(1 << 20))?;
        }
        Ok(executed)
    }

    /// Execute one basic block on one thread: the straight-line body in
    /// a tight loop, then the terminator. Replicates `Machine::step`
    /// semantics instruction-for-instruction (r0 hardwired to zero,
    /// wrapping address arithmetic, `halt` freezes the PC, every
    /// executed instruction — including `halt` — counts as retired).
    fn run_block(
        &self,
        prog: &Program,
        t: &mut crate::snapshot::ThreadArch,
        mem: &mut crate::snapshot::MemArch,
        data_space: usize,
        mut warm: Option<&mut MemoryHierarchy>,
    ) -> Result<u64, ExecError> {
        let insts = prog.as_slice();
        let start = t.pc;
        if start as usize >= insts.len() {
            return Err(ExecError::PcOutOfBounds { pc: start });
        }
        let len = self.run_len[start as usize] as u64;
        let body_end = start + len - 1; // terminator (or last straight-line inst)

        if let Some(h) = warm.as_deref_mut() {
            // Warm each instruction line the block covers: instructions
            // live in space 0 at one word per instruction, so a new line
            // starts every `line_bytes / 8` PCs.
            let stride = (h.config().l1i.line_bytes / 8).max(1);
            let mut pc = start;
            while pc <= body_end {
                h.warm_inst(0, pc);
                pc = (pc / stride + 1) * stride;
            }
        }

        // Straight-line body: no control flow, no halt, PC advances by 1.
        let mut pc = start;
        while pc < body_end {
            self.exec_straight(
                insts[pc as usize],
                pc,
                t,
                mem,
                data_space,
                warm.as_deref_mut(),
            )?;
            pc += 1;
        }

        // Terminator — or a straight-line instruction at the end of the
        // program text, after which the next dispatch faults.
        let inst = insts[pc as usize];
        match inst {
            Inst::Br {
                cond,
                rs1,
                rs2,
                target,
            } => {
                t.pc = if cond.eval(rd(t, rs1), rd(t, rs2)) {
                    target
                } else {
                    pc + 1
                };
            }
            Inst::Jmp { target } => t.pc = target,
            Inst::Jal { rd: link, target } => {
                wr(t, link, pc + 1);
                t.pc = target;
            }
            Inst::Jr { rs } => t.pc = rd(t, rs),
            Inst::Halt => {
                t.halted = true;
                t.pc = pc; // frozen
            }
            other => {
                self.exec_straight(other, pc, t, mem, data_space, warm)?;
                t.pc = pc + 1;
            }
        }
        t.retired += len;
        Ok(len)
    }

    /// One non-control, non-halt instruction at `pc`. The caller
    /// advances the PC and the retired count.
    #[inline]
    fn exec_straight(
        &self,
        inst: Inst,
        pc: u64,
        t: &mut crate::snapshot::ThreadArch,
        mem: &mut crate::snapshot::MemArch,
        data_space: usize,
        warm: Option<&mut MemoryHierarchy>,
    ) -> Result<(), ExecError> {
        match inst {
            Inst::Alu {
                op,
                rd: d,
                rs1,
                rs2,
            } => wr(t, d, op.apply(rd(t, rs1), rd(t, rs2))),
            Inst::AluI {
                op,
                rd: d,
                rs1,
                imm,
            } => wr(t, d, op.apply(rd(t, rs1), imm as u64)),
            Inst::Fpu {
                op,
                rd: d,
                rs1,
                rs2,
            } => wr(t, d, op.apply(rd(t, rs1), rd(t, rs2))),
            Inst::Ld { rd: d, base, off } => {
                let addr = rd(t, base).wrapping_add_signed(off);
                let v = mem
                    .load(addr)
                    .ok_or(ExecError::MemOutOfBounds { addr, pc })?;
                if let Some(h) = warm {
                    h.warm_data(data_space, addr);
                }
                wr(t, d, v);
            }
            Inst::St { src, base, off } => {
                let addr = rd(t, base).wrapping_add_signed(off);
                if !mem.store(addr, rd(t, src)) {
                    return Err(ExecError::MemOutOfBounds { addr, pc });
                }
                if let Some(h) = warm {
                    h.warm_data(data_space, addr);
                }
            }
            Inst::Tid { rd: d } => wr(t, d, t.tid as u64),
            Inst::Nop => {}
            // Control and halt are terminators; run_len guarantees they
            // never appear in a straight-line body.
            _ => unreachable!("control instruction in straight-line body"),
        }
        Ok(())
    }
}

/// Read a register (`r0` always reads zero).
#[inline]
fn rd(t: &crate::snapshot::ThreadArch, r: Reg) -> u64 {
    if r.is_zero() {
        0
    } else {
        t.regs[r.index()]
    }
}

/// Write a register (writes to `r0` are discarded).
#[inline]
fn wr(t: &mut crate::snapshot::ThreadArch, r: Reg, v: u64) {
    if !r.is_zero() {
        t.regs[r.index()] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::ThreadArch;
    use mmt_isa::asm::Builder;
    use mmt_isa::interp::{Machine, Memory};
    use mmt_isa::MemSharing;

    /// Sum-loop with a call, stores, and negative offsets: exercises
    /// every terminator kind plus straight-line memory traffic.
    fn mixed_program() -> Program {
        let mut b = Builder::new();
        let (func, loop_top, done) = (b.label(), b.label(), b.label());
        b.addi(Reg::R1, Reg::R0, 20); // counter
        b.addi(Reg::R2, Reg::R0, 0); // accumulator
        b.addi(Reg::R10, Reg::R0, 100); // buffer base
        b.bind(loop_top);
        b.beq(Reg::R1, Reg::R0, done);
        b.jal(Reg::Ra, func);
        b.addi(Reg::R1, Reg::R1, -1);
        b.jmp(loop_top);
        b.bind(func);
        b.alu_add(Reg::R2, Reg::R2, Reg::R1);
        b.st(Reg::R2, Reg::R10, -3);
        b.ld(Reg::R3, Reg::R10, -3);
        b.jr(Reg::Ra);
        b.bind(done);
        b.tid(Reg::R4);
        b.halt();
        b.build().unwrap()
    }

    /// Lockstep differential against the reference interpreter: a block
    /// at a time through `Ffwd` must land on the same architectural
    /// state as the same number of `Machine::step`s.
    #[test]
    fn matches_machine_lockstep() {
        let prog = mixed_program();
        let ffwd = Ffwd::new(&prog);

        let mut state = ArchState::initial(1, MemSharing::Shared, &[0], 1 << 20);
        let mut m = Machine::new(0);
        let mut mem = Memory::with_limit(0, 1 << 20);

        while !state.threads[0].halted {
            let n = ffwd.advance(&prog, &mut state, 1).unwrap();
            for _ in 0..n {
                m.step(&prog, &mut mem).unwrap();
            }
            assert_eq!(state.threads[0], ThreadArch::from_machine(&m));
            assert_eq!(Memory::from(state.memories[0].clone()), mem);
        }
        assert!(m.halted());
    }

    #[test]
    fn multi_thread_per_thread_memories() {
        let mut b = Builder::new();
        b.tid(Reg::R1);
        b.addi(Reg::R2, Reg::R1, 10);
        b.st(Reg::R2, Reg::R1, 0); // mem[tid] = tid + 10 (private mems)
        b.halt();
        let prog = b.build().unwrap();
        let ffwd = Ffwd::new(&prog);
        let mut state = ArchState::initial(2, MemSharing::PerThread, &[0, 1], 1 << 20);
        let executed = ffwd.run_to_halt(&prog, &mut state, 100).unwrap();
        assert_eq!(executed, 8);
        assert!(state.all_halted());
        assert_eq!(state.memories[0].load(0), Some(10));
        assert_eq!(state.memories[1].load(1), Some(11));
        assert_eq!(state.total_retired(), 8);
    }

    #[test]
    fn halt_freezes_pc_and_counts_retired() {
        let mut b = Builder::new();
        b.nop();
        b.halt();
        let prog = b.build().unwrap();
        let ffwd = Ffwd::new(&prog);
        let mut state = ArchState::initial(1, MemSharing::Shared, &[0], 1 << 20);
        ffwd.run_to_halt(&prog, &mut state, 100).unwrap();
        assert_eq!(state.threads[0].pc, 1); // frozen at the halt
        assert_eq!(state.threads[0].retired, 2); // halt itself retires
    }

    #[test]
    fn r0_writes_discarded() {
        let mut b = Builder::new();
        b.addi(Reg::R0, Reg::R0, 42);
        b.alu_add(Reg::R1, Reg::R0, Reg::R0);
        b.halt();
        let prog = b.build().unwrap();
        let ffwd = Ffwd::new(&prog);
        let mut state = ArchState::initial(1, MemSharing::Shared, &[0], 1 << 20);
        ffwd.run_to_halt(&prog, &mut state, 100).unwrap();
        assert_eq!(state.threads[0].regs[0], 0);
        assert_eq!(state.threads[0].regs[1], 0);
    }

    #[test]
    fn running_off_the_end_faults_like_machine() {
        let prog = Program::from_insts(vec![Inst::Nop]);
        let ffwd = Ffwd::new(&prog);
        let mut state = ArchState::initial(1, MemSharing::Shared, &[0], 1 << 20);
        // The nop executes; the next dispatch faults at pc 1, exactly
        // where Machine::step reports it.
        let err = ffwd.run_to_halt(&prog, &mut state, 100).unwrap_err();
        assert_eq!(err, ExecError::PcOutOfBounds { pc: 1 });
        assert_eq!(state.threads[0].retired, 1);
    }

    #[test]
    fn memory_fault_matches_machine() {
        let mut b = Builder::new();
        b.addi(Reg::R1, Reg::R0, 1 << 21); // past the 1 Mi-word limit
        b.st(Reg::R1, Reg::R1, 3);
        b.halt();
        let prog = b.build().unwrap();
        let ffwd = Ffwd::new(&prog);

        let mut state = ArchState::initial(1, MemSharing::Shared, &[0], 1 << 20);
        let r = ffwd.run_to_halt(&prog, &mut state, 100);
        let mut m = Machine::new(0);
        let mut mem = Memory::with_limit(0, 1 << 20);
        let mut ref_err = None;
        while !m.halted() {
            match m.step(&prog, &mut mem) {
                Ok(_) => {}
                Err(e) => {
                    ref_err = Some(e);
                    break;
                }
            }
        }
        match ref_err {
            Some(e) => assert_eq!(r.unwrap_err(), e),
            None => assert!(r.is_ok()),
        }
    }

    /// After `advance`, symmetric threads sit at the same block-start
    /// PC — the property the sampled runner's mode handoff relies on.
    #[test]
    fn advance_aligns_symmetric_threads() {
        let prog = mixed_program();
        let ffwd = Ffwd::new(&prog);
        let mut state = ArchState::initial(2, MemSharing::Shared, &[0], 1 << 20);
        for budget in [1u64, 7, 23] {
            if state.all_halted() {
                break;
            }
            ffwd.advance(&prog, &mut state, budget).unwrap();
            let live: Vec<u64> = state
                .threads
                .iter()
                .filter(|t| !t.halted)
                .map(|t| t.pc)
                .collect();
            assert!(
                live.windows(2).all(|w| w[0] == w[1]),
                "threads not aligned after budget {budget}: {live:?}"
            );
        }
    }

    #[test]
    fn budget_overshoot_bounded_by_one_block() {
        let prog = mixed_program();
        let ffwd = Ffwd::new(&prog);
        let mut state = ArchState::initial(1, MemSharing::Shared, &[0], 1 << 20);
        let n = ffwd.advance(&prog, &mut state, 4).unwrap();
        assert!((4..=4 + 3).contains(&n), "executed {n}"); // longest block is 4
    }
}
