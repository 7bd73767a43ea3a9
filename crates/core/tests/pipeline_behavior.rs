//! Behavioral tests of the full MMT pipeline: functional equivalence
//! across feature levels, speedups on merge-friendly code, divergence and
//! remerge, LVIP behavior on multi-execution loads, and determinism.

use mmt_isa::asm::Builder;
use mmt_isa::interp::Memory;
use mmt_isa::{MemSharing, Program, Reg};
use mmt_sim::{MmtLevel, RunSpec, SimConfig, SimResult, Simulator};

const N: i64 = 200;

/// A fully convergent MT kernel: every thread walks the same shared array
/// and accumulates it. All instructions are execute-identical.
fn convergent_program() -> Program {
    let mut b = Builder::new();
    let (top, done) = (b.label(), b.label());
    b.addi(Reg::R1, Reg::R0, 0); // i
    b.addi(Reg::R2, Reg::R0, N); // bound
    b.addi(Reg::R3, Reg::R0, 1000); // base of shared data
    b.addi(Reg::R4, Reg::R0, 0); // acc
    b.bind(top);
    b.bge(Reg::R1, Reg::R2, done);
    b.alu_add(Reg::R5, Reg::R3, Reg::R1);
    b.ld(Reg::R6, Reg::R5, 0);
    b.alu_add(Reg::R4, Reg::R4, Reg::R6);
    b.alu_mul(Reg::R7, Reg::R6, Reg::R6);
    b.alu_add(Reg::R4, Reg::R4, Reg::R7);
    b.addi(Reg::R1, Reg::R1, 1);
    b.jmp(top);
    b.bind(done);
    b.halt();
    b.build().unwrap()
}

/// A kernel with controlled divergence: threads read a per-thread flag
/// array; when the flag is set they take a short private detour before
/// rejoining the main loop.
fn divergent_program() -> Program {
    let mut b = Builder::new();
    let (top, done, detour, rejoin) = (b.label(), b.label(), b.label(), b.label());
    b.tid(Reg::R10); // thread id
    b.shli(Reg::R11, Reg::R10, 9); // private region base = tid * 512
    b.addi(Reg::R11, Reg::R11, 2000);
    b.addi(Reg::R1, Reg::R0, 0); // i
    b.addi(Reg::R2, Reg::R0, N);
    b.addi(Reg::R3, Reg::R0, 1000); // shared base
    b.addi(Reg::R4, Reg::R0, 0); // acc
    b.bind(top);
    b.bge(Reg::R1, Reg::R2, done);
    // Shared work (identical operands in MT workloads).
    b.alu_add(Reg::R5, Reg::R3, Reg::R1);
    b.ld(Reg::R6, Reg::R5, 0);
    b.alu_add(Reg::R4, Reg::R4, Reg::R6);
    // Per-thread flag decides a detour.
    b.andi(Reg::R7, Reg::R1, 255);
    b.alu_add(Reg::R8, Reg::R11, Reg::R7);
    b.ld(Reg::R9, Reg::R8, 0);
    b.bne(Reg::R9, Reg::R0, detour);
    b.bind(rejoin);
    b.addi(Reg::R1, Reg::R1, 1);
    b.jmp(top);
    b.bind(detour);
    // A short private computation.
    b.alu_mul(Reg::R12, Reg::R9, Reg::R6);
    b.alu_add(Reg::R4, Reg::R4, Reg::R12);
    b.alu_xor(Reg::R12, Reg::R12, Reg::R4);
    b.jmp(rejoin);
    b.bind(done);
    b.halt();
    b.build().unwrap()
}

/// Shared memory: data at 1000.., flags per thread at 2000 + tid*512.
/// `flag_rate_t` = make roughly 1-in-`rate` flags nonzero for thread t.
fn mt_memory(rates: &[u64]) -> Memory {
    let mut m = Memory::new(0);
    for i in 0..N as u64 {
        m.store(1000 + i, 3 * i + 7).unwrap();
    }
    for (t, &rate) in rates.iter().enumerate() {
        if rate == 0 {
            continue;
        }
        for i in 0..256u64 {
            if i % rate == rate - 1 {
                m.store(2000 + (t as u64) * 512 + i, i + 1).unwrap();
            }
        }
    }
    m
}

fn run(
    program: Program,
    sharing: MemSharing,
    memories: Vec<Memory>,
    threads: usize,
    level: MmtLevel,
) -> SimResult {
    let spec = RunSpec {
        program,
        sharing,
        memories,
        threads,
    };
    Simulator::new(SimConfig::paper_with(threads, level), spec)
        .unwrap()
        .run()
        .unwrap()
}

#[test]
fn all_levels_produce_identical_architectural_results() {
    let results: Vec<SimResult> = MmtLevel::ALL
        .iter()
        .map(|&level| {
            run(
                divergent_program(),
                MemSharing::Shared,
                vec![mt_memory(&[3, 5])],
                2,
                level,
            )
        })
        .collect();
    for r in &results[1..] {
        assert_eq!(
            r.final_regs, results[0].final_regs,
            "MMT must be architecturally invisible"
        );
        assert_eq!(
            r.stats.retired_per_thread,
            results[0].stats.retired_per_thread
        );
    }
}

#[test]
fn mmt_beats_base_on_convergent_code() {
    let base = run(
        convergent_program(),
        MemSharing::Shared,
        vec![mt_memory(&[])],
        2,
        MmtLevel::Base,
    );
    let f = run(
        convergent_program(),
        MemSharing::Shared,
        vec![mt_memory(&[])],
        2,
        MmtLevel::F,
    );
    let fx = run(
        convergent_program(),
        MemSharing::Shared,
        vec![mt_memory(&[])],
        2,
        MmtLevel::Fx,
    );
    assert!(
        fx.stats.cycles < base.stats.cycles,
        "shared execution must win: fx={} base={}",
        fx.stats.cycles,
        base.stats.cycles
    );
    // Shared fetch alone neither helps nor hurts much here (the kernel
    // is memory-bound, not fetch-bound); it must stay within 10% and use
    // strictly fewer I-cache accesses.
    assert!(
        f.stats.cycles <= base.stats.cycles * 11 / 10,
        "shared fetch must not lose badly: f={} base={}",
        f.stats.cycles,
        base.stats.cycles
    );
    assert!(
        f.stats.l1i.accesses < base.stats.l1i.accesses,
        "shared fetch must reduce I-cache accesses"
    );
    // On fully convergent code nearly everything is execute-identical.
    let id = &fx.stats.identity;
    assert!(
        id.execute_identical + id.execute_identical_regmerge > id.fetch_identical,
        "most instructions should merge fully: {id:?}"
    );
    // Executed uops should be well under the dispatched thread-count.
    assert!(fx.stats.uops_executed < base.stats.uops_executed);
}

#[test]
fn convergent_code_stays_in_merge_mode() {
    let fx = run(
        convergent_program(),
        MemSharing::Shared,
        vec![mt_memory(&[])],
        2,
        MmtLevel::Fx,
    );
    let (m, _, _) = fx.stats.fetch_modes.fractions();
    assert!(m > 0.95, "expected ~all MERGE-mode fetch, got {m}");
    assert_eq!(fx.stats.divergences, 0);
}

#[test]
fn divergent_threads_remerge() {
    // Divergence roughly every 16th/24th iteration, as in a mostly-
    // convergent SPMD kernel.
    let fxr = run(
        divergent_program(),
        MemSharing::Shared,
        vec![mt_memory(&[16, 24])],
        2,
        MmtLevel::Fxr,
    );
    assert!(fxr.stats.divergences > 0, "flags must cause divergence");
    assert!(
        fxr.stats.remerges > 0,
        "FHB synchronization must find remerge points"
    );
    let (m, _, _) = fxr.stats.fetch_modes.fractions();
    assert!(
        m > 0.4,
        "threads should spend much of their fetch in MERGE mode, got {m}"
    );
    // Remerge distances land in the near buckets (the Figure 2 shape).
    assert!(fxr.stats.remerges_within(32) > 0.5);
}

#[test]
fn register_merging_recovers_sharing() {
    // After divergence, both threads write identical values into the
    // same registers on their private paths; FXR should re-merge more
    // instructions than FX.
    let mem = mt_memory(&[4, 6]);
    let fx = run(
        divergent_program(),
        MemSharing::Shared,
        vec![mem.clone()],
        2,
        MmtLevel::Fx,
    );
    let fxr = run(
        divergent_program(),
        MemSharing::Shared,
        vec![mem],
        2,
        MmtLevel::Fxr,
    );
    assert!(
        fxr.stats.identity.execute_identical + fxr.stats.identity.execute_identical_regmerge
            >= fx.stats.identity.execute_identical,
        "register merging should not reduce merged execution"
    );
    assert!(fxr.stats.energy.merge_checks > 0, "merge hardware must run");
}

#[test]
fn me_identical_inputs_behave_like_limit() {
    // Multi-execution with байт-identical memories: the Limit config.
    let mems: Vec<Memory> = (0..2)
        .map(|t| {
            let mut m = mt_memory(&[]);
            let _ = t;
            m.store(0, 0).unwrap();
            m
        })
        .enumerate()
        .map(|(i, m)| {
            let mut c = Memory::new(i);
            for a in 0..m.touched_len() as u64 {
                c.store(a, m.load(a).unwrap()).unwrap();
            }
            c
        })
        .collect();
    let r = run(
        convergent_program(),
        MemSharing::PerThread,
        mems,
        2,
        MmtLevel::Fxr,
    );
    assert_eq!(
        r.stats.lvip_mispredicts, 0,
        "identical memories never roll back"
    );
    let id = &r.stats.identity;
    assert!(
        (id.execute_identical + id.execute_identical_regmerge) as f64 / id.total() as f64 > 0.8,
        "near-limit merging expected: {id:?}"
    );
}

#[test]
fn me_differing_loads_split_and_learn() {
    // Same program, but the two processes have different data: merged
    // loads verify, mispredict once per PC, then split via the LVIP.
    let mems: Vec<Memory> = (0..2)
        .map(|t| {
            let mut m = Memory::new(t);
            for i in 0..N as u64 {
                m.store(1000 + i, 3 * i + 7 + t as u64).unwrap(); // differs!
            }
            m
        })
        .collect();
    let r = run(
        convergent_program(),
        MemSharing::PerThread,
        mems,
        2,
        MmtLevel::Fxr,
    );
    assert!(
        r.stats.lvip_mispredicts > 0,
        "differing values must be caught"
    );
    assert!(
        r.stats.lvip_mispredicts < 10,
        "the LVIP must learn the bad PC quickly, got {}",
        r.stats.lvip_mispredicts
    );
    // Functional correctness: accumulators differ between processes.
    assert_ne!(
        r.final_regs[0][Reg::R4.index()],
        r.final_regs[1][Reg::R4.index()]
    );
}

#[test]
fn simulation_is_deterministic() {
    let a = run(
        divergent_program(),
        MemSharing::Shared,
        vec![mt_memory(&[3, 5])],
        2,
        MmtLevel::Fxr,
    );
    let b = run(
        divergent_program(),
        MemSharing::Shared,
        vec![mt_memory(&[3, 5])],
        2,
        MmtLevel::Fxr,
    );
    assert_eq!(a.stats.cycles, b.stats.cycles);
    assert_eq!(a.stats.uops_executed, b.stats.uops_executed);
    assert_eq!(a.stats.fetch_modes, b.stats.fetch_modes);
    assert_eq!(a.final_regs, b.final_regs);
}

#[test]
fn single_thread_runs_fine() {
    let r = run(
        convergent_program(),
        MemSharing::Shared,
        vec![mt_memory(&[])],
        1,
        MmtLevel::Fxr,
    );
    assert!(r.stats.cycles > 0);
    assert_eq!(r.stats.identity.private, r.stats.identity.total());
}

#[test]
fn four_threads_converge_and_merge() {
    let r = run(
        convergent_program(),
        MemSharing::Shared,
        vec![mt_memory(&[])],
        4,
        MmtLevel::Fxr,
    );
    let (m, _, _) = r.stats.fetch_modes.fractions();
    assert!(
        m > 0.9,
        "4-thread convergent code should stay merged, got {m}"
    );
    for t in 1..4 {
        assert_eq!(r.final_regs[t], r.final_regs[0]);
    }
}

#[test]
fn stats_balance() {
    let r = run(
        divergent_program(),
        MemSharing::Shared,
        vec![mt_memory(&[3, 5])],
        2,
        MmtLevel::Fxr,
    );
    // Every fetched thread-instruction is classified exactly once at
    // dispatch.
    assert_eq!(r.stats.identity.total(), r.stats.fetch_modes.total());
    // Retired == functional retirement, per thread.
    assert_eq!(r.stats.total_retired(), r.stats.identity.total() as u64);
    // Executed uops never exceed dispatched uops.
    assert!(r.stats.uops_executed <= r.stats.uops_dispatched);
    assert!(r.stats.ipc() > 0.0);
}

#[test]
fn base_level_never_merges() {
    let r = run(
        convergent_program(),
        MemSharing::Shared,
        vec![mt_memory(&[])],
        2,
        MmtLevel::Base,
    );
    assert_eq!(r.stats.identity.execute_identical, 0);
    assert_eq!(r.stats.identity.fetch_identical, 0);
    assert_eq!(r.stats.identity.private, r.stats.identity.total());
    assert_eq!(r.stats.remerges, 0);
}

#[test]
fn software_hint_synchronization_works() {
    // Thread Fusion-style baseline: static remerge points instead of the
    // FHB hardware. Same architectural results, and divergent threads
    // still re-synchronize.
    use mmt_sim::config::SyncPolicy;
    let program = divergent_program();
    // The divergent program's join points: `rejoin` (pc of addi i after
    // the detour merge) — compute by running the FHB config first and
    // reusing its program; for this synthetic kernel the rejoin label is
    // the instruction after the bne detour branch.
    let rejoin_pc = program
        .iter()
        .find_map(|(pc, inst)| match inst {
            mmt_isa::Inst::Br { target, .. } if target > pc => Some(pc + 1),
            _ => None,
        })
        .expect("kernel has a forward branch");

    let mut cfg = SimConfig::paper_with(2, MmtLevel::Fxr);
    cfg.sync_policy = SyncPolicy::SoftwareHints;
    cfg.remerge_hints = vec![rejoin_pc];
    let spec = RunSpec {
        program: program.clone(),
        sharing: MemSharing::Shared,
        memories: vec![mt_memory(&[16, 24])],
        threads: 2,
    };
    let hinted = Simulator::new(cfg, spec).unwrap().run().unwrap();

    let fhb = run(
        program,
        MemSharing::Shared,
        vec![mt_memory(&[16, 24])],
        2,
        MmtLevel::Fxr,
    );
    assert_eq!(hinted.final_regs, fhb.final_regs, "policy is timing-only");
    assert!(hinted.stats.divergences > 0);
    assert!(
        hinted.stats.remerges > 0,
        "hints must produce remerges: {:?}",
        hinted.stats.fetch_modes
    );
    let (m, _, _) = hinted.stats.fetch_modes.fractions();
    assert!(m > 0.3, "hinted merge residency too low: {m}");
}

#[test]
fn software_hints_without_hints_still_terminate() {
    // Degenerate configuration: hint policy with no hint PCs — threads
    // never re-synchronize but the run must still complete correctly.
    use mmt_sim::config::SyncPolicy;
    let mut cfg = SimConfig::paper_with(2, MmtLevel::Fxr);
    cfg.sync_policy = SyncPolicy::SoftwareHints;
    let spec = RunSpec {
        program: divergent_program(),
        sharing: MemSharing::Shared,
        memories: vec![mt_memory(&[16, 24])],
        threads: 2,
    };
    let r = Simulator::new(cfg, spec).unwrap().run().unwrap();
    assert!(r.stats.cycles > 0);
}

#[test]
fn barrier_workloads_simulate_correctly() {
    // Spin barriers exercise cross-thread memory communication through
    // the shared memory: the simulator's fetch-driven interleaving must
    // make progress (a parked spinner cannot starve the publisher).
    use mmt_workloads::{DivergenceProfile, KernelSpec};
    let spec = KernelSpec {
        sharing: MemSharing::Shared,
        iters: 24,
        common_alu: 3,
        common_fpu: 1,
        common_loads: 2,
        private_alu: 4,
        private_loads: 1,
        stores: 1,
        divergence_inv: 6,
        divergence: DivergenceProfile::Medium,
        index_partitioned: false,
        calls: false,
        me_ident_pct: 0,
        pointer_chase: false,
        ws_words: 256,
        inner_iters: 4,
        unroll: 6,
        barrier_every: 4,
        seed: 5,
    };
    let program = mmt_workloads::generator::generate(&spec, 2, spec.iters);
    let memories = mmt_workloads::data::build_memories(&spec, 2, false);
    for level in [MmtLevel::Base, MmtLevel::Fxr] {
        let spec_run = RunSpec {
            program: program.clone(),
            sharing: MemSharing::Shared,
            memories: memories.clone(),
            threads: 2,
        };
        let r = Simulator::new(SimConfig::paper_with(2, level), spec_run)
            .unwrap()
            .run()
            .unwrap();
        assert!(r.stats.cycles > 0, "{level}: barrier kernel completed");
    }
}

#[test]
fn construction_errors_are_reported() {
    use mmt_sim::SimError;
    let program = convergent_program();

    // Wrong memory count for the sharing mode.
    let bad = RunSpec {
        program: program.clone(),
        sharing: MemSharing::PerThread,
        memories: vec![Memory::new(0)], // needs 2
        threads: 2,
    };
    let e = Simulator::new(SimConfig::paper_with(2, MmtLevel::Fxr), bad).unwrap_err();
    assert!(matches!(e, SimError::BadSpec(_)), "{e}");
    assert!(e.to_string().contains("memories"));

    // Thread-count mismatch between config and spec.
    let bad = RunSpec {
        program: program.clone(),
        sharing: MemSharing::Shared,
        memories: vec![Memory::new(0)],
        threads: 2,
    };
    let e = Simulator::new(SimConfig::paper_with(4, MmtLevel::Fxr), bad).unwrap_err();
    assert!(matches!(e, SimError::BadSpec(_)));

    // Empty program.
    let bad = RunSpec {
        program: Program::from_insts(vec![]),
        sharing: MemSharing::Shared,
        memories: vec![Memory::new(0)],
        threads: 2,
    };
    let e = Simulator::new(SimConfig::paper_with(2, MmtLevel::Fxr), bad).unwrap_err();
    assert!(e.to_string().contains("empty"));

    // Invalid configuration.
    let mut cfg = SimConfig::paper_with(2, MmtLevel::Fxr);
    cfg.fetch_width = 0;
    let ok_spec = RunSpec {
        program,
        sharing: MemSharing::Shared,
        memories: vec![Memory::new(0)],
        threads: 2,
    };
    let e = Simulator::new(cfg, ok_spec).unwrap_err();
    assert!(matches!(e, SimError::BadConfig(_)));
}

#[test]
fn cycle_limit_is_enforced() {
    use mmt_isa::asm::Builder;
    use mmt_sim::SimError;
    // An intentionally non-terminating program.
    let mut b = Builder::new();
    let top = b.label();
    b.bind(top);
    b.addi(Reg::R1, Reg::R1, 1);
    b.jmp(top);
    let program = b.build().unwrap();
    let mut cfg = SimConfig::paper_with(1, MmtLevel::Base);
    cfg.max_cycles = 5_000;
    let spec = RunSpec {
        program,
        sharing: MemSharing::Shared,
        memories: vec![Memory::new(0)],
        threads: 1,
    };
    let e = Simulator::new(cfg, spec).unwrap().run().unwrap_err();
    assert_eq!(e, SimError::CycleLimit { limit: 5_000 });
}

#[test]
fn runaway_pc_faults_cleanly() {
    use mmt_sim::SimError;
    // A program that runs off the end of its text.
    let program = Program::from_insts(vec![mmt_isa::Inst::Nop, mmt_isa::Inst::Nop]);
    let spec = RunSpec {
        program,
        sharing: MemSharing::Shared,
        memories: vec![Memory::new(0)],
        threads: 1,
    };
    let e = Simulator::new(SimConfig::paper_with(1, MmtLevel::Base), spec)
        .unwrap()
        .run()
        .unwrap_err();
    assert!(matches!(e, SimError::Exec(_)), "{e}");
}

#[test]
fn pc_profile_is_off_by_default_and_consistent_when_on() {
    let program = divergent_program();
    let memories = vec![mt_memory(&[3, 5])];

    // Off by default: no allocation, no counters.
    let off = run(
        program.clone(),
        MemSharing::Shared,
        memories.clone(),
        2,
        MmtLevel::Fxr,
    );
    assert!(off.stats.pc_profile.is_empty());

    // On: one slot per static instruction, and the per-PC counters must
    // re-aggregate to the whole-run totals they shadow.
    let mut cfg = SimConfig::paper_with(2, MmtLevel::Fxr);
    cfg.record_pc_profile = true;
    let spec = RunSpec {
        program: program.clone(),
        sharing: MemSharing::Shared,
        memories,
        threads: 2,
    };
    let on = Simulator::new(cfg, spec).unwrap().run().unwrap();
    assert_eq!(on.stats.pc_profile.len(), program.len());
    assert_eq!(on.final_regs, off.final_regs, "profiling is invisible");

    let sum =
        |f: fn(&mmt_sim::PcCounters) -> u64| -> u64 { on.stats.pc_profile.iter().map(f).sum() };
    assert_eq!(sum(|c| c.fetch_merge), on.stats.fetch_modes.merge);
    assert_eq!(sum(|c| c.fetch_detect), on.stats.fetch_modes.detect);
    assert_eq!(sum(|c| c.fetch_catchup), on.stats.fetch_modes.catchup);
    assert_eq!(sum(|c| c.exec_total()), on.stats.uops_dispatched);
    assert!(sum(|c| c.exec_merged) > 0, "MT kernel must merge some work");
    // The tid instruction at PC 0 can never dispatch merged.
    assert_eq!(on.stats.pc_profile[0].exec_merged, 0);
}

/// Run `sim` to completion with every cycle stepped through all four
/// stages: `rst_mut` clears the quiet-cycle fast path, so calling it
/// before each cycle is the reference the fast path must match.
fn run_stepping_every_stage(mut sim: Simulator) -> SimResult {
    while !sim.finished() {
        sim.rst_mut();
        sim.step_cycle().unwrap();
    }
    sim.finish()
}

/// A 4-thread multi-execution kernel whose one merged load mispredicts
/// in the LVIP on every dispatch attempt while dispatch stalls: the RST
/// splits it into {0,1} and {2,3} (`r2` = tid < 2, merged by register
/// merging), the {0,1} part reads different values and learns the PC,
/// and the {2,3} part reads equal values and forgets it again. A cold
/// miss and its dependents fill a small ROB ahead of it.
fn lvip_retry_kernel() -> (Program, Vec<Memory>) {
    let mut b = Builder::new();
    b.tid(Reg::R1);
    b.slti(Reg::R2, Reg::R1, 2);
    b.ld(Reg::R4, Reg::R0, 64);
    for _ in 0..6 {
        b.addi(Reg::R5, Reg::R4, 1);
    }
    b.ld(Reg::R3, Reg::R2, 0);
    b.halt();
    let memories = (0..4)
        .map(|t| {
            let mut m = Memory::new(t);
            m.store(0, 5).unwrap();
            m.store(1, 10 + t as u64).unwrap();
            m
        })
        .collect();
    (b.build().unwrap(), memories)
}

/// `SimStats::lvip_mispredicts` counts every dispatch attempt that finds
/// a mismatch, so a merged load that mismatches while it waits at the
/// dispatch head is counted once per retry, while its rollback is charged
/// only on the attempt that dispatches. This pins that gap: the rollbacks
/// (trace events and the per-PC profile agree on them) stay below the
/// mismatch count.
#[test]
fn lvip_mismatches_count_stall_retries_but_rollbacks_do_not() {
    use mmt_obs::{LvipOutcome, TraceEvent};
    let (program, memories) = lvip_retry_kernel();
    let mut cfg = SimConfig::paper_with(4, MmtLevel::Fxr);
    cfg.rob_size = 8;
    cfg.record_pc_profile = true;
    cfg.trace = Some(mmt_sim::TraceConfig::default());
    let spec = RunSpec {
        program,
        sharing: MemSharing::PerThread,
        memories,
        threads: 4,
    };
    let r = Simulator::new(cfg, spec).unwrap().run().unwrap();
    let trace = r.trace.as_ref().expect("tracing was enabled");
    assert_eq!(trace.dropped, 0, "the event stream is complete");
    let rollbacks = trace
        .events
        .iter()
        .filter(|rec| {
            matches!(
                rec.event,
                TraceEvent::Lvip {
                    outcome: LvipOutcome::Rollback,
                    ..
                }
            )
        })
        .count() as u64;
    let misses: u64 = r.stats.pc_profile.iter().map(|c| c.lvip_misses).sum();
    assert_eq!(rollbacks, misses, "one rollback per dispatched mismatch");
    assert!(rollbacks >= 1, "the load mismatches when it dispatches");
    assert!(
        misses < r.stats.lvip_mispredicts,
        "stall retries count as mismatches: {misses} rollbacks vs {} mismatches",
        r.stats.lvip_mispredicts
    );
}

/// The quiet-cycle fast path is exact: every statistic and register
/// matches a run that steps all four stages every cycle. The inputs
/// cover the rules the fast path depends on beyond the golden grid: a
/// stalled dispatch retry that keeps changing the LVIP (never quiet),
/// and software-hint parks, whose expiry is an event. Two more hint
/// runs reach the fetch-side state changes a cycle can make while every
/// other stage idles: with a zero wait limit (and thread 0 detouring on
/// every other iteration) a park that starts in an otherwise quiet cycle
/// expires on the very next one, so a missed park start would hold it
/// until a later event; with 1 KiB L1s and an 8 KiB
/// L2, threads leaving a timed-out park clear their skip markers in
/// cycles where the decode queue is full and the back end waits on
/// memory (under `check-invariants`, `step_cycle` also checks that fetch
/// reports every such change).
#[test]
fn quiet_cycle_fast_path_matches_stepping_every_stage() {
    use mmt_sim::config::SyncPolicy;
    let (program, memories) = lvip_retry_kernel();
    let mut cfg = SimConfig::paper_with(4, MmtLevel::Fxr);
    cfg.rob_size = 8;
    let lvip = RunSpec {
        program,
        sharing: MemSharing::PerThread,
        memories,
        threads: 4,
    };

    let divergent = divergent_program();
    let rejoin_pc = divergent
        .iter()
        .find_map(|(pc, inst)| match inst {
            mmt_isa::Inst::Br { target, .. } if target > pc => Some(pc + 1),
            _ => None,
        })
        .expect("kernel has a forward branch");
    let mut hinted = SimConfig::paper_with(2, MmtLevel::Fxr);
    hinted.sync_policy = SyncPolicy::SoftwareHints;
    hinted.remerge_hints = vec![rejoin_pc];
    hinted.hint_wait_limit = 40;
    let hints = RunSpec {
        program: divergent,
        sharing: MemSharing::Shared,
        memories: vec![mt_memory(&[16, 24])],
        threads: 2,
    };
    let mut no_wait = hinted.clone();
    no_wait.hint_wait_limit = 0;
    let mut small_caches = hinted.clone();
    small_caches.hierarchy.l1i.size_bytes = 1024;
    small_caches.hierarchy.l1d.size_bytes = 1024;
    small_caches.hierarchy.l2.size_bytes = 8 * 1024;

    for (label, cfg, spec) in [
        ("lvip retry", cfg, lvip),
        ("hint parks", hinted, hints.clone()),
        (
            "hint parks, no wait",
            no_wait,
            RunSpec {
                memories: vec![mt_memory(&[2, 0])],
                ..hints.clone()
            },
        ),
        ("hint skips, small caches", small_caches, hints),
    ] {
        let fast = Simulator::new(cfg.clone(), spec.clone())
            .unwrap()
            .run()
            .unwrap();
        let stepped = run_stepping_every_stage(Simulator::new(cfg, spec).unwrap());
        assert_eq!(
            format!("{:?}", fast.stats),
            format!("{:?}", stepped.stats),
            "{label}: statistics differ from stepping every stage"
        );
        assert_eq!(fast.final_regs, stepped.final_regs, "{label}: registers");
        if label == "lvip retry" {
            assert!(
                fast.stats.lvip_mispredicts > 10,
                "the stalled load must re-mispredict while it waits, got {}",
                fast.stats.lvip_mispredicts
            );
        }
    }
}
