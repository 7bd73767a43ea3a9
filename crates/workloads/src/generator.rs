//! The kernel-skeleton program generator.
//!
//! One loop-nest skeleton serves every synthetic application; the
//! [`KernelSpec`] knobs select how much of each iteration operates on
//! thread-identical values, how much on thread-varying values, how the
//! induction variable is partitioned, and how divergence is triggered.
//!
//! Register conventions (see the constants below): the generated code
//! never touches registers outside its convention, so tests can inspect
//! accumulators after a run.

use crate::spec::{layout, KernelSpec};
use mmt_isa::asm::Builder;
use mmt_isa::{AluOp, FpuOp, MemSharing, Program, Reg};

/// Loop index register (`i`).
pub const R_I: Reg = Reg::R1;
/// Loop bound register.
pub const R_BOUND: Reg = Reg::R2;
/// Common iteration counter (`k` — identical in every thread).
pub const R_K: Reg = Reg::R3;
/// Shared-region base register.
pub const R_SHARED: Reg = Reg::R4;
/// Private-region base register.
pub const R_PRIV: Reg = Reg::R5;
/// Flag-region base register.
pub const R_FLAG: Reg = Reg::R6;
/// Output-region base register.
pub const R_OUT: Reg = Reg::R7;
/// Inner-loop counter register.
pub const R_INNER: Reg = Reg::R8;
/// Global step counter (total inner iterations executed; common across
/// threads). The kernels have no call stack, so the register named `sp`
/// is free to serve as an ordinary counter.
pub const R_STEP: Reg = Reg::Sp;
/// Partitioned-kernel common accumulator (pure function of the common
/// counters; see `emit_body`).
pub const R_KACC: Reg = Reg::R29;
/// Common accumulator (identical across threads when inputs are).
pub const R_CACC: Reg = Reg::R9;
/// Private accumulator (thread-varying).
pub const R_PACC: Reg = Reg::R10;
/// Hardware thread id (multi-threaded kernels only).
pub const R_TID: Reg = Reg::R28;
/// Barrier: address of this thread's rendezvous slot (barrier kernels
/// only). `r11` is only used as a prologue scratch otherwise.
pub const R_BARRIER: Reg = Reg::R11;

const COMMON_SCRATCH: [Reg; 6] = [Reg::R13, Reg::R14, Reg::R15, Reg::R16, Reg::R17, Reg::R18];
const PRIVATE_SCRATCH: [Reg; 5] = [Reg::R21, Reg::R22, Reg::R23, Reg::R24, Reg::R19];

/// Generate the program for `spec` running `threads` hardware threads at
/// the given iteration count (already scaled).
///
/// # Panics
///
/// Panics if the spec fails [`KernelSpec::validate`] — app definitions
/// are static, so an invalid spec is a programming error.
pub fn generate(spec: &KernelSpec, threads: usize, iters: u64) -> Program {
    generate_with_hints(spec, threads, iters).0
}

/// Like [`generate`], also returning the program's static remerge-point
/// PCs (the control-flow joins after its divergent branches) — the
/// software hints a Thread Fusion-style system would get from the
/// compiler (`mmt_sim`'s `SyncPolicy::SoftwareHints`).
///
/// # Panics
///
/// Panics if the spec fails [`KernelSpec::validate`].
pub fn generate_with_hints(spec: &KernelSpec, threads: usize, iters: u64) -> (Program, Vec<u64>) {
    spec.validate().expect("app specs are statically valid");
    let mt = spec.sharing == MemSharing::Shared;
    let mut b = Builder::new();
    let top = b.label();
    let done = b.label();
    let rejoin = b.label();
    let detour = b.label();
    let body_func = b.label();

    // ---- Prologue: region bases and loop bounds.
    if mt {
        b.tid(R_TID);
    }
    b.li(R_SHARED, layout::SHARED_BASE);
    emit_base(&mut b, mt, R_PRIV, layout::PRIV_BASE, layout::PRIV_STRIDE);
    emit_base(&mut b, mt, R_FLAG, layout::FLAG_BASE, layout::FLAG_STRIDE);
    emit_base(&mut b, mt, R_OUT, layout::OUT_BASE, layout::OUT_STRIDE);

    if spec.barrier_every != 0 {
        // Own rendezvous slot: BARRIER_BASE + tid.
        b.li(R_BARRIER, layout::BARRIER_BASE);
        b.alu_add(R_BARRIER, R_BARRIER, R_TID);
    }

    if spec.index_partitioned && mt {
        // i in [tid*chunk, (tid+1)*chunk) — the SPLASH-2 block split.
        let chunk = (iters / threads.max(1) as u64).max(1) as i64;
        b.li(Reg::R12, chunk);
        b.alu_mul(R_I, R_TID, Reg::R12);
        b.alu_add(R_BOUND, R_I, Reg::R12);
    } else {
        b.addi(R_I, Reg::R0, 0);
        b.li(R_BOUND, iters as i64);
    }
    b.addi(R_K, Reg::R0, 0);
    b.addi(R_STEP, Reg::R0, 0);
    b.addi(R_CACC, Reg::R0, 0);
    b.addi(R_KACC, Reg::R0, 0);
    b.addi(R_PACC, Reg::R0, 0);

    // ---- Main loop. The unrolled compute groups run inside a counted
    // inner loop so one outer lap is thousands of instructions (see
    // `KernelSpec::inner_iters`).
    b.bind(top);
    b.bge(R_I, R_BOUND, done);
    b.addi(R_INNER, Reg::R0, spec.inner_iters);
    let inner_top = b.label();
    let inner_rejoin = b.label();
    b.bind(inner_top);
    if spec.calls {
        b.jal(Reg::Ra, body_func);
    } else {
        for u in 0..spec.unroll {
            emit_body(&mut b, spec, u);
        }
    }
    b.addi(R_STEP, R_STEP, 1);

    // Divergence check, once per inner iteration: per-thread flags
    // trigger a detour. The flag index wraps at the working set like the
    // data regions (divergence conditions in real code are computed from
    // resident data).
    if spec.divergence_inv > 0 {
        b.andi(
            Reg::R25,
            R_STEP,
            (layout::FLAG_SIZE - 1).min(spec.ws_words - 1),
        );
        b.alu_add(Reg::R25, R_FLAG, Reg::R25);
        b.ld(Reg::R26, Reg::R25, 0);
        b.bne(Reg::R26, Reg::R0, detour);
    }
    b.bind(inner_rejoin);
    let inner_rejoin_pc = b.here();
    b.addi(R_INNER, R_INNER, -1);
    b.bne(R_INNER, Reg::R0, inner_top);

    b.bind(rejoin);
    let rejoin_pc = b.here();
    b.addi(R_I, R_I, 1);
    b.addi(R_K, R_K, 1);
    // Barrier rendezvous every `barrier_every` laps: publish our lap
    // count, then spin until every thread has published at least it —
    // the classic sense-free counter barrier (each thread writes only
    // its own slot, so the kernel stays race-free).
    if spec.barrier_every != 0 {
        let skip = b.label();
        b.andi(Reg::R12, R_K, spec.barrier_every as i64 - 1);
        b.bne(Reg::R12, Reg::R0, skip);
        b.st(R_K, R_BARRIER, 0);
        for u in 0..threads {
            let spin = b.label();
            b.bind(spin);
            b.li(Reg::R12, layout::BARRIER_BASE + u as i64);
            b.ld(Reg::R25, Reg::R12, 0);
            b.blt(Reg::R25, R_K, spin);
        }
        b.bind(skip);
    }
    b.jmp(top);

    // Detour: a private loop whose trip count is the flag value; rejoins
    // the inner loop.
    if spec.divergence_inv > 0 {
        b.bind(detour);
        let dloop = b.label();
        b.bind(dloop);
        b.alu(AluOp::Xor, R_PACC, R_PACC, Reg::R26);
        b.alu(AluOp::Add, R_PACC, R_PACC, R_I);
        b.addi(Reg::R26, Reg::R26, -1);
        b.bne(Reg::R26, Reg::R0, dloop);
        b.jmp(inner_rejoin);
    } else {
        // Keep the label bound even when unreachable.
        b.bind(detour);
    }

    b.bind(done);
    b.halt();

    // Out-of-line body for call-heavy kernels.
    if spec.calls {
        b.bind(body_func);
        for u in 0..spec.unroll {
            emit_body(&mut b, spec, u);
        }
        b.jr(Reg::Ra);
    } else {
        b.bind(body_func);
    }

    let program = b.build().expect("generator binds every label exactly once");
    (program, vec![inner_rejoin_pc, rejoin_pc])
}

fn emit_base(b: &mut Builder, mt: bool, reg: Reg, base: i64, stride: i64) {
    b.li(reg, base);
    if mt {
        // reg += tid * stride.
        b.li(Reg::R11, stride);
        b.alu_mul(Reg::R11, R_TID, Reg::R11);
        b.alu_add(reg, reg, Reg::R11);
    }
}

/// One compute group of an iteration (`group` distinguishes unrolled
/// replicas so their memory offsets differ): common loads/ops, private
/// loads/ops, stores.
fn emit_body(b: &mut Builder, spec: &KernelSpec, group: usize) {
    let g = group as i64;
    let nc = COMMON_SCRATCH.len();
    let np = PRIVATE_SCRATCH.len();
    // Common-region loads. Partitioned kernels index the shared region by
    // the thread-varying `i` (each thread reads its own block → operands
    // differ); replicated kernels index by the common `k`.
    let common_idx = if spec.index_partitioned { R_I } else { R_K };
    for l in 0..spec.common_loads {
        let dst = COMMON_SCRATCH[(l + group) % nc];
        b.andi(Reg::R12, common_idx, spec.ws_words - 1);
        b.alu_add(Reg::R12, R_SHARED, Reg::R12);
        b.ld(dst, Reg::R12, (l as i64 * 7 + g * 13) % 64);
    }

    // Common ALU work. For replicated kernels this mixes the loaded
    // values, the common counter and the common accumulator — all
    // thread-identical. For partitioned kernels the loaded data is
    // thread-private (each thread owns a block), so the genuinely common
    // work is the index/bounds arithmetic: a chain over the common
    // counters only.
    for n in 0..spec.common_alu {
        let w = n + group;
        if spec.index_partitioned {
            // A k-pure chain would serialize; interleave independent ops.
            match n % 3 {
                0 => b.alu(AluOp::Add, R_KACC, R_KACC, R_K),
                1 => b.alu(AluOp::Xor, COMMON_SCRATCH[w % nc], R_K, R_STEP),
                _ => b.alu(AluOp::Mul, COMMON_SCRATCH[(w + 1) % nc], R_K, R_STEP),
            };
            continue;
        }
        let src = COMMON_SCRATCH[w % nc];
        match n % 6 {
            0 => b.alu(AluOp::Add, R_CACC, R_CACC, src),
            1 => b.alu(AluOp::Xor, COMMON_SCRATCH[(w + 1) % nc], src, R_K),
            2 => b.alu(AluOp::Mul, COMMON_SCRATCH[(w + 2) % nc], src, R_K),
            3 => b.alu(AluOp::Shr, COMMON_SCRATCH[(w + 3) % nc], src, R_K),
            4 => b.alu(AluOp::Add, COMMON_SCRATCH[(w + 2) % nc], src, R_K),
            _ => b.alu(AluOp::Xor, COMMON_SCRATCH[(w + 3) % nc], src, R_K),
        };
    }
    for n in 0..spec.common_fpu {
        let w = n + group;
        let op = match n % 3 {
            0 => FpuOp::Fadd,
            1 => FpuOp::Fmul,
            _ => FpuOp::Fsqrt,
        };
        if spec.index_partitioned {
            b.fpu(op, R_KACC, R_KACC, R_K);
            continue;
        }
        let src = COMMON_SCRATCH[w % nc];
        if n % 3 == 0 {
            b.fpu(op, R_CACC, R_CACC, src);
        } else {
            b.fpu(op, COMMON_SCRATCH[(w + 2) % nc], src, R_K);
        }
    }

    // Private-region loads (thread-varying bases for MT, per-process
    // contents for ME). Pointer-chasing kernels index every other load by
    // a previously loaded value, so the address computation diverges with
    // the data and the loads partially chain — *partially*, because a
    // fully chained stream would make the kernel memory-latency-bound and
    // indifferent to any amount of instruction merging.
    for l in 0..spec.private_loads {
        let dst = PRIVATE_SCRATCH[(l + group) % np];
        let index_src = if spec.pointer_chase && l % 2 == 0 {
            PRIVATE_SCRATCH[(l + group + 2) % np]
        } else {
            R_I
        };
        b.andi(Reg::R20, index_src, spec.ws_words - 1);
        b.alu_add(Reg::R20, R_PRIV, Reg::R20);
        b.ld(dst, Reg::R20, (l as i64 * 5 + g * 11) % 64);
    }

    // Private ALU work. Accumulation into R_PACC is deliberately sparse
    // (every sixth op): denser accumulator chains make the kernel
    // dependency-bound, and then even perfect instruction merging cannot
    // speed it up (a serial chain's latency is the same executed once or
    // twice) — real applications carry far more ILP than that.
    for n in 0..spec.private_alu {
        let w = n + group;
        let src = PRIVATE_SCRATCH[w % np];
        match n % 6 {
            0 => b.alu(AluOp::Add, R_PACC, R_PACC, src),
            // R_PACC appears as a *source* below (fan-out, not a chain):
            // it keeps the private data's thread-divergence flowing into
            // the scratch pool without serializing the ops.
            1 => b.alu(AluOp::Xor, PRIVATE_SCRATCH[(w + 1) % np], src, R_PACC),
            2 => b.alu(AluOp::Mul, PRIVATE_SCRATCH[(w + 2) % np], src, R_PACC),
            3 => b.alu(AluOp::Add, PRIVATE_SCRATCH[(w + 3) % np], src, R_I),
            4 => b.alu(AluOp::Shr, PRIVATE_SCRATCH[(w + 1) % np], src, R_PACC),
            _ => b.alu(AluOp::Xor, PRIVATE_SCRATCH[(w + 2) % np], src, R_PACC),
        };
    }

    // Stores to the private output region.
    for s in 0..spec.stores {
        b.andi(Reg::R27, R_I, spec.ws_words - 1);
        b.alu_add(Reg::R27, R_OUT, Reg::R27);
        b.st(R_PACC, Reg::R27, (s as i64 + g * 3) % layout::OUT_DISP);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DivergenceProfile;
    use mmt_isa::interp::{Machine, Memory};

    fn spec(sharing: MemSharing, partitioned: bool, calls: bool) -> KernelSpec {
        KernelSpec {
            sharing,
            iters: 64,
            common_alu: 4,
            common_fpu: 1,
            common_loads: 2,
            private_alu: 2,
            private_loads: 1,
            stores: 1,
            divergence_inv: 8,
            divergence: DivergenceProfile::Short,
            index_partitioned: partitioned,
            calls,
            me_ident_pct: if sharing == MemSharing::PerThread {
                50
            } else {
                0
            },
            pointer_chase: false,
            ws_words: 256,
            inner_iters: 2,
            unroll: 2,
            barrier_every: 0,
            seed: 7,
        }
    }

    fn run_thread(prog: &Program, tid: usize, mem: &mut Memory) -> Machine {
        let mut m = Machine::new(tid);
        m.run(prog, mem, 2_000_000).expect("no faults");
        assert!(m.halted(), "kernel must terminate");
        m
    }

    #[test]
    fn mt_kernel_runs_to_completion_all_threads() {
        let s = spec(MemSharing::Shared, false, false);
        let prog = generate(&s, 2, 64);
        let mut mem = crate::data::build_memories(&s, 2, false).remove(0);
        for t in 0..2 {
            let m = run_thread(&prog, t, &mut mem);
            assert!(m.retired() > 64 * 10, "does real work");
        }
    }

    #[test]
    fn partitioned_threads_cover_disjoint_ranges() {
        let s = spec(MemSharing::Shared, true, false);
        let prog = generate(&s, 2, 64);
        let mut mem = crate::data::build_memories(&s, 2, false).remove(0);
        let m0 = run_thread(&prog, 0, &mut mem);
        let m1 = run_thread(&prog, 1, &mut mem);
        // Each thread ended at its own bound: 32 and 64.
        assert_eq!(m0.reg(R_I), 32);
        assert_eq!(m1.reg(R_I), 64);
        assert_eq!(m1.reg(R_I) - 32, 32);
        // Both executed the same number of common iterations.
        assert_eq!(m0.reg(R_K), m1.reg(R_K));
    }

    #[test]
    fn me_kernel_is_tid_free() {
        // Multi-execution processes must not consult the hardware thread
        // id — their differences come from inputs alone.
        let s = spec(MemSharing::PerThread, false, false);
        let prog = generate(&s, 2, 64);
        assert!(
            !prog
                .as_slice()
                .iter()
                .any(|i| matches!(i, mmt_isa::Inst::Tid { .. })),
            "ME kernels derive divergence from data, not tid"
        );
    }

    #[test]
    fn call_heavy_kernel_balances_calls_and_returns() {
        let s = spec(MemSharing::Shared, false, true);
        let prog = generate(&s, 2, 64);
        let jals = prog
            .as_slice()
            .iter()
            .filter(|i| matches!(i, mmt_isa::Inst::Jal { .. }))
            .count();
        let jrs = prog
            .as_slice()
            .iter()
            .filter(|i| matches!(i, mmt_isa::Inst::Jr { .. }))
            .count();
        assert_eq!(jals, 1);
        assert_eq!(jrs, 1);
        let mut mem = crate::data::build_memories(&s, 2, false).remove(0);
        run_thread(&prog, 0, &mut mem);
    }

    #[test]
    fn identical_inputs_produce_identical_common_accumulators() {
        let s = spec(MemSharing::Shared, false, false);
        let prog = generate(&s, 2, 64);
        let mut mem = crate::data::build_memories(&s, 2, false).remove(0);
        let m0 = run_thread(&prog, 0, &mut mem);
        let m1 = run_thread(&prog, 1, &mut mem);
        assert_eq!(
            m0.reg(R_CACC),
            m1.reg(R_CACC),
            "common work must be execute-identical"
        );
        // Private accumulators differ (different flag/private regions).
        assert_ne!(m0.reg(R_PACC), m1.reg(R_PACC));
    }

    #[test]
    fn divergence_free_spec_emits_no_flag_check() {
        let mut s = spec(MemSharing::Shared, false, false);
        s.divergence_inv = 0;
        let with_div = generate(&spec(MemSharing::Shared, false, false), 2, 64).len();
        let without = generate(&s, 2, 64).len();
        assert!(without < with_div, "flag check and detour are omitted");
        let mut mem = crate::data::build_memories(&s, 2, false).remove(0);
        run_thread(&prog_of(&s), 0, &mut mem);
    }

    fn prog_of(s: &KernelSpec) -> Program {
        generate(s, 2, 64)
    }
}

#[cfg(test)]
mod barrier_tests {
    use super::*;
    use crate::spec::DivergenceProfile;
    use mmt_isa::interp::{Machine, Memory};

    fn barrier_spec() -> KernelSpec {
        KernelSpec {
            sharing: MemSharing::Shared,
            iters: 16,
            common_alu: 2,
            common_fpu: 0,
            common_loads: 1,
            private_alu: 2,
            private_loads: 1,
            stores: 1,
            divergence_inv: 8,
            divergence: DivergenceProfile::Short,
            index_partitioned: false,
            calls: false,
            me_ident_pct: 0,
            pointer_chase: false,
            ws_words: 256,
            inner_iters: 2,
            unroll: 2,
            barrier_every: 4,
            seed: 11,
        }
    }

    /// Interleaved execution (round-robin stepping) — barrier kernels
    /// cannot run one thread to completion alone.
    fn run_interleaved(prog: &Program, threads: usize, mem: &mut Memory) -> Vec<Machine> {
        let mut machines: Vec<Machine> = (0..threads).map(Machine::new).collect();
        for _ in 0..10_000_000u64 {
            let mut any = false;
            for m in &mut machines {
                if !m.halted() {
                    m.step(prog, mem).expect("no faults");
                    any = true;
                }
            }
            if !any {
                return machines;
            }
        }
        panic!("barrier kernel did not terminate (deadlocked spin?)");
    }

    #[test]
    fn barrier_kernel_terminates_with_all_threads() {
        let spec = barrier_spec();
        let prog = generate(&spec, 2, spec.iters);
        let mut mem = crate::data::build_memories(&spec, 2, false).remove(0);
        let machines = run_interleaved(&prog, 2, &mut mem);
        for m in &machines {
            assert!(m.halted());
        }
        // Both threads published their final lap counts.
        for t in 0..2u64 {
            let slot = mem.load(layout::BARRIER_BASE as u64 + t).unwrap();
            assert!(slot > 0, "thread {t} never reached a barrier");
        }
    }

    #[test]
    fn barrier_spin_blocks_a_lone_thread() {
        // The documented limitation: sequential tracing is impossible —
        // a single thread spins at the first barrier forever.
        let spec = barrier_spec();
        let prog = generate(&spec, 2, spec.iters);
        let mut mem = crate::data::build_memories(&spec, 2, false).remove(0);
        let mut m = Machine::new(0);
        let steps = m.run(&prog, &mut mem, 50_000).unwrap();
        assert_eq!(steps, 50_000, "lone thread must be stuck spinning");
        assert!(!m.halted());
    }

    #[test]
    fn barrier_free_spec_emits_no_barrier_code() {
        let mut spec = barrier_spec();
        spec.barrier_every = 0;
        let with = generate(&barrier_spec(), 2, 16).len();
        let without = generate(&spec, 2, 16).len();
        assert!(without < with);
    }
}
