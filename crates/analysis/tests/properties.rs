//! Property-based tests for the static analyzer: CFG block boundaries
//! must partition every PC exactly once, edges must be reciprocal and in
//! range, the dataflow/linter must be total (no panics, states for
//! exactly the reachable PCs) over arbitrary instruction sequences, and
//! the facts must hold of concrete lockstep execution.

use mmt_analysis::{
    lint_program, lint_program_with_sharing, predict_lvip, AccessClass, Analysis, Cfg, Invariance,
    LintKind, MemDepAnalysis, ValueClass, ValueFlowAnalysis, ValueFlowOptions,
};
use mmt_isa::inst::Inst;
use mmt_isa::interp::{Machine, Memory};
use mmt_isa::{AluOp, BrCond, FpuOp, MemSharing, Program, Reg};
use proptest::prelude::*;

/// Arbitrary instructions with control-flow targets inside `0..len`
/// (out-of-range targets are a *lint*, exercised separately).
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
        (reg.clone(), reg.clone(), any::<i32>()).prop_map(|(rd, rs1, imm)| {
            Inst::AluI {
                op: AluOp::Add,
                rd,
                rs1,
                imm: imm as i64,
            }
        }),
        (reg.clone(), reg.clone(), reg.clone()).prop_map(|(rd, rs1, rs2)| {
            Inst::Fpu {
                op: FpuOp::Fmul,
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
    /// The tentpole structural property: blocks are sorted, contiguous,
    /// non-empty, and together cover `0..len` with no PC in two blocks.
    #[test]
    fn cfg_blocks_partition_every_pc_exactly_once(
        insts in prop::collection::vec(arb_inst(48), 1..48)
    ) {
        let prog = Program::from_insts(insts);
        let n = prog.len() as u64;
        let cfg = Cfg::build(&prog);

        let mut covered = vec![0u32; n as usize];
        let mut prev_end = 0;
        for (idx, blk) in cfg.blocks().iter().enumerate() {
            prop_assert!(blk.start < blk.end, "block {idx} is non-empty");
            prop_assert_eq!(blk.start, prev_end, "blocks are contiguous and sorted");
            prev_end = blk.end;
            for pc in blk.pcs() {
                covered[pc as usize] += 1;
                prop_assert_eq!(cfg.block_of(pc), Some(idx));
            }
        }
        prop_assert_eq!(prev_end, n, "blocks cover the whole program");
        prop_assert!(covered.iter().all(|&c| c == 1), "each PC in exactly one block");
    }

    #[test]
    fn cfg_edges_are_reciprocal_and_in_range(
        insts in prop::collection::vec(arb_inst(48), 1..48)
    ) {
        let prog = Program::from_insts(insts);
        let cfg = Cfg::build(&prog);
        let nb = cfg.blocks().len();
        for (idx, blk) in cfg.blocks().iter().enumerate() {
            for &s in &blk.succs {
                prop_assert!(s < nb);
                prop_assert!(cfg.blocks()[s].preds.contains(&idx));
            }
            for &p in &blk.preds {
                prop_assert!(p < nb);
                prop_assert!(cfg.blocks()[p].succs.contains(&idx));
            }
        }
        prop_assert!(cfg.is_reachable(cfg.entry()));
    }

    /// Dataflow assigns a state to exactly the reachable PCs and never
    /// panics, whatever the program shape or sharing model.
    #[test]
    fn dataflow_is_total_over_reachable_code(
        insts in prop::collection::vec(arb_inst(32), 1..32)
    ) {
        let prog = Program::from_insts(insts);
        let cfg = Cfg::build(&prog);
        for sharing in [MemSharing::Shared, MemSharing::PerThread] {
            let analysis = Analysis::run(&prog, &cfg, sharing);
            for blk in cfg.blocks() {
                let idx = cfg.block_of(blk.start).unwrap();
                for pc in blk.pcs() {
                    prop_assert_eq!(
                        analysis.before(pc).is_some(),
                        cfg.is_reachable(idx),
                        "state exists iff the block is reachable (pc {})", pc
                    );
                }
            }
        }
    }

    /// The linter is total: no panics, and every finding anchors to a PC
    /// inside the program.
    #[test]
    fn linter_is_total_and_findings_are_anchored(
        insts in prop::collection::vec(arb_inst(32), 1..32)
    ) {
        let prog = Program::from_insts(insts);
        for lint in lint_program(&prog) {
            if let Some(pc) = lint.pc {
                prop_assert!(pc < prog.len() as u64, "{lint}");
            }
        }
    }

    /// The memory analysis is total: every reachable load/store gets a
    /// classification, `access_at` agrees with `accesses`, and race
    /// endpoints are always store PCs paired with real access PCs.
    #[test]
    fn memdep_is_total_and_internally_consistent(
        insts in prop::collection::vec(arb_inst(32), 1..32)
    ) {
        let prog = Program::from_insts(insts);
        for sharing in [MemSharing::Shared, MemSharing::PerThread] {
            let mem = MemDepAnalysis::run(&prog, sharing);
            let (i, p, s) = mem.class_counts();
            prop_assert_eq!(i + p + s, mem.accesses().len());
            for a in mem.accesses() {
                prop_assert!(a.pc < prog.len() as u64);
                prop_assert_eq!(mem.access_at(a.pc).map(|x| x.pc), Some(a.pc));
                if let Some((lo, hi)) = a.thread_range(0) {
                    prop_assert!(lo <= hi, "ordered range at pc {}", a.pc);
                }
            }
            if sharing == MemSharing::PerThread {
                prop_assert!(mem.races().is_empty(), "separate memories cannot race");
            }
            for r in mem.races() {
                let store = mem.access_at(r.store_pc).expect("race anchors to an access");
                prop_assert!(store.is_store);
                let other = mem.access_at(r.other_pc).expect("race anchors to an access");
                prop_assert_eq!(other.is_store, r.other_is_store);
            }
        }
    }

    /// No stores ⇒ nothing can race: the sharing-aware lint adds no
    /// race findings to a store-free program under shared memory.
    #[test]
    fn store_free_programs_lint_race_clean(
        insts in prop::collection::vec(arb_inst(32), 1..32)
    ) {
        let insts: Vec<Inst> = insts
            .into_iter()
            .map(|i| match i {
                Inst::St { .. } => Inst::Nop,
                other => other,
            })
            .collect();
        let prog = Program::from_insts(insts);
        for lint in lint_program_with_sharing(&prog, MemSharing::Shared) {
            prop_assert!(
                !matches!(lint.kind, LintKind::SharedStoreRace | LintKind::CrossThreadReadWrite),
                "store-free program flagged a race: {lint}"
            );
        }
    }

    /// Divergence-free programs (no `tid`, no stores, shared memory):
    /// every value is thread-invariant, so every load must classify
    /// invariant and every LVIP bracket must allow a perfect hit rate.
    #[test]
    fn divergence_free_loads_classify_invariant(
        insts in prop::collection::vec(arb_inst(32), 1..32)
    ) {
        let insts: Vec<Inst> = insts
            .into_iter()
            .map(|i| match i {
                Inst::St { .. } | Inst::Tid { .. } => Inst::Nop,
                other => other,
            })
            .collect();
        let prog = Program::from_insts(insts);
        let mem = MemDepAnalysis::run(&prog, MemSharing::Shared);
        for a in mem.accesses() {
            prop_assert_eq!(
                a.class, AccessClass::Invariant,
                "tid-free store-free shared program: access at pc {} must be invariant", a.pc
            );
        }
        let lvip = predict_lvip(&prog, MemSharing::Shared);
        for b in lvip.loads.values() {
            prop_assert!(b.addr_invariant, "pc {}", b.pc);
            prop_assert_eq!(b.hit_upper, 1.0);
            prop_assert!(b.brackets(1.0), "a perfect hit rate is always allowed");
        }
    }

    /// The value-flow analysis is total: no panics on any program shape
    /// or sharing model, facts exist for exactly the reachable PCs, the
    /// per-PC claims are consistent (never-merge and guaranteed-merge
    /// are mutually exclusive, brackets are well-ordered), and the
    /// summary fractions are sane.
    #[test]
    fn valueflow_is_total_and_consistent(
        insts in prop::collection::vec(arb_inst(32), 1..32)
    ) {
        let prog = Program::from_insts(insts);
        let cfg = Cfg::build(&prog);
        for sharing in [MemSharing::Shared, MemSharing::PerThread] {
            let vf = ValueFlowAnalysis::run(&prog, sharing, ValueFlowOptions::default());
            let mut seen = 0usize;
            for blk in cfg.blocks() {
                let idx = cfg.block_of(blk.start).unwrap();
                for pc in blk.pcs() {
                    let info = vf.info_at(pc);
                    prop_assert_eq!(
                        info.is_some(),
                        cfg.is_reachable(idx),
                        "facts exist iff the block is reachable (pc {})", pc
                    );
                    let Some(info) = info else { continue };
                    seen += 1;
                    prop_assert!(
                        !(info.never_merge && info.guaranteed_merge),
                        "contradictory claims at pc {}", pc
                    );
                    prop_assert!(info.bracket.lower <= info.bracket.upper, "pc {}", pc);
                    prop_assert!(
                        info.bracket.contains(info.bracket.lower)
                            && info.bracket.contains(info.bracket.upper)
                    );
                }
            }
            let s = vf.summary();
            prop_assert_eq!(s.reachable_insts, seen);
            prop_assert!(s.guaranteed_merge_frac <= s.ideal_merge_frac + 1e-9);
            prop_assert!((0.0..=1.0).contains(&s.guaranteed_merge_frac));
            prop_assert!((0.0..=1.0).contains(&s.ideal_merge_frac));
            for v in 0..vf.ssa().values().len() {
                let _ = vf.class_of_value(v); // total over every SSA value
            }
        }
    }

    /// Statically divergence-free programs (no `tid`, shared memory)
    /// have no provably-unequal values, so no PC can be claimed
    /// never-merge: every exec-merge bracket must include 1.0.
    #[test]
    fn divergence_free_brackets_include_full_merging(
        insts in prop::collection::vec(arb_inst(32), 1..32)
    ) {
        let insts: Vec<Inst> = insts
            .into_iter()
            .map(|i| match i {
                Inst::Tid { .. } => Inst::Nop,
                other => other,
            })
            .collect();
        let prog = Program::from_insts(insts);
        let vf = ValueFlowAnalysis::run(&prog, MemSharing::Shared, ValueFlowOptions::default());
        for info in vf.infos() {
            prop_assert!(
                !info.never_merge && info.bracket.contains(1.0),
                "tid-free program claimed never-merge at pc {}", info.pc
            );
        }
        prop_assert!((vf.summary().ideal_merge_frac - 1.0).abs() < 1e-12);
    }

    /// In a store-free program, an ALU-only instruction whose sources
    /// all classify Identical must produce an Identical result: the
    /// operators are deterministic, so equal inputs give equal outputs.
    #[test]
    fn identical_inputs_to_alu_chains_stay_identical(
        insts in prop::collection::vec(arb_inst(32), 1..32)
    ) {
        let insts: Vec<Inst> = insts
            .into_iter()
            .map(|i| match i {
                Inst::St { .. } => Inst::Nop,
                other => other,
            })
            .collect();
        let prog = Program::from_insts(insts.clone());
        let vf = ValueFlowAnalysis::run(&prog, MemSharing::Shared, ValueFlowOptions::default());
        for info in vf.infos() {
            let alu = matches!(
                insts[info.pc as usize],
                Inst::Alu { .. } | Inst::AluI { .. } | Inst::Fpu { .. }
            );
            if alu
                && info.result.is_some()
                && info.sources.iter().all(|c| *c == ValueClass::Identical)
            {
                prop_assert_eq!(
                    info.result, Some(ValueClass::Identical),
                    "deterministic op on identical inputs at pc {}", info.pc
                );
            }
        }
    }
}

/// Threads the soundness property runs in lockstep.
const THREADS: usize = 4;

/// Stores at or above this word address end the run, so a wild address
/// never backs a large image. Loads read anywhere (zero when unbacked).
const MEM_WORDS: u64 = 1 << 16;

/// `inst` with every register but `r0` folded into `r1..r5`, so that
/// values meet often, and every control transfer and `halt` replaced by
/// a `nop`.
fn straight_line(inst: Inst) -> Inst {
    let n = |r: Reg| {
        if r.is_zero() {
            r
        } else {
            Reg::from_index(1 + r.index() % 5).unwrap()
        }
    };
    match inst {
        Inst::Alu { op, rd, rs1, rs2 } => Inst::Alu {
            op,
            rd: n(rd),
            rs1: n(rs1),
            rs2: n(rs2),
        },
        Inst::AluI { op, rd, rs1, imm } => Inst::AluI {
            op,
            rd: n(rd),
            rs1: n(rs1),
            imm,
        },
        Inst::Fpu { op, rd, rs1, rs2 } => Inst::Fpu {
            op,
            rd: n(rd),
            rs1: n(rs1),
            rs2: n(rs2),
        },
        Inst::Ld { rd, base, off } => Inst::Ld {
            rd: n(rd),
            base: n(base),
            off,
        },
        Inst::St { src, base, off } => Inst::St {
            src: n(src),
            base: n(base),
            off,
        },
        Inst::Tid { rd } => Inst::Tid { rd: n(rd) },
        Inst::Nop
        | Inst::Halt
        | Inst::Br { .. }
        | Inst::Jmp { .. }
        | Inst::Jal { .. }
        | Inst::Jr { .. } => Inst::Nop,
    }
}

/// Seeds `r1..r5` with one value of each kind the domain tells apart:
/// the thread id, a small mask, an address, a loaded word and an affine
/// value.
fn prologue() -> Vec<Inst> {
    let addi = |rd, rs1, imm| Inst::AluI {
        op: AluOp::Add,
        rd,
        rs1,
        imm,
    };
    vec![
        Inst::Tid { rd: Reg::R1 },
        addi(Reg::R2, Reg::R0, 7),
        addi(Reg::R3, Reg::R0, 40),
        Inst::Ld {
            rd: Reg::R4,
            base: Reg::R3,
            off: 0,
        },
        addi(Reg::R5, Reg::R1, 3),
    ]
}

/// `v` as thread `t` holds it under a claimed class, relative to thread 0:
/// `Identical` values are equal, `AffineTid{s}` values differ by `s·t`.
fn class_holds(class: ValueClass, vals: &[u64]) -> bool {
    match class {
        ValueClass::Identical => vals.iter().all(|&v| v == vals[0]),
        ValueClass::AffineTid { stride } => vals
            .iter()
            .enumerate()
            .all(|(t, &v)| v == vals[0].wrapping_add((stride as u64).wrapping_mul(t as u64))),
        ValueClass::ThreadDependent | ValueClass::Top => true,
    }
}

/// Run `prog` (straight-line) on [`THREADS`] lockstep machines and check
/// every fact the analyses claim at every executed PC against the
/// concrete values. Per-thread memories start with thread-specific data.
fn check_against_execution(prog: &Program, sharing: MemSharing) -> Result<(), String> {
    let cfg = Cfg::build(prog);
    let facts = Analysis::run(prog, &cfg, sharing);
    let vf = ValueFlowAnalysis::run(prog, sharing, ValueFlowOptions::default());
    let mem = MemDepAnalysis::run(prog, sharing);
    let mut memories: Vec<Memory> = (0..THREADS)
        .map(|t| {
            let mut m = Memory::with_limit(t, u64::MAX);
            for a in 0..64u64 {
                m.store(a, a.wrapping_mul(0x9e37_79b9) ^ (t as u64 + 1))
                    .expect("in range");
            }
            m
        })
        .collect();
    if sharing == MemSharing::Shared {
        memories.truncate(1);
    }
    let mut machines: Vec<Machine> = (0..THREADS).map(Machine::new).collect();
    let mut pc = 0u64;
    while let Some(inst) = prog.fetch(pc) {
        let state = facts
            .before(pc)
            .ok_or(format!("executed pc {pc} has no state"))?;
        for r in (0..32).map(|i| Reg::from_index(i).unwrap()) {
            let vals: Vec<u64> = machines.iter().map(|m| m.reg(r)).collect();
            let f = state.get(r);
            if f.invariance() == Invariance::Invariant && !class_holds(ValueClass::Identical, &vals)
            {
                return Err(format!("pc {pc}: {r} claimed invariant, holds {vals:?}"));
            }
            if let Some(k) = f.as_const() {
                if vals.iter().any(|&v| v != k) {
                    return Err(format!("pc {pc}: {r} claimed {k}, holds {vals:?}"));
                }
            }
            let class = f.value_class(ValueClass::Top);
            if !class_holds(class, &vals) {
                return Err(format!("pc {pc}: {r} claimed {class}, holds {vals:?}"));
            }
        }
        let info = vf
            .info_at(pc)
            .ok_or(format!("pc {pc}: no value-flow facts"))?;
        for (r, &class) in inst.sources().iter().zip(&info.sources) {
            let vals: Vec<u64> = machines.iter().map(|m| m.reg(r)).collect();
            if !class_holds(class, &vals) {
                return Err(format!(
                    "pc {pc}: source {r} claimed {class}, holds {vals:?}"
                ));
            }
        }
        if let Inst::Ld { base, off, .. } | Inst::St { base, off, .. } = inst {
            let access = mem
                .access_at(pc)
                .ok_or(format!("pc {pc}: access unclassified"))?;
            let addrs: Vec<u64> = machines
                .iter()
                .map(|m| m.reg(base).wrapping_add_signed(off))
                .collect();
            for (t, &a) in addrs.iter().enumerate() {
                if let Some((lo, hi)) = access.thread_range(t) {
                    if !(lo..=hi).contains(&a) {
                        return Err(format!(
                            "pc {pc}: thread {t} address {a} outside {lo}..={hi}"
                        ));
                    }
                }
            }
            match access.class {
                AccessClass::Invariant if addrs.iter().any(|&a| a != addrs[0]) => {
                    return Err(format!("pc {pc}: invariant access at {addrs:?}"));
                }
                AccessClass::TidPrivate { .. } => {
                    for t in 0..THREADS {
                        for u in t + 1..THREADS {
                            let disjoint = match (access.thread_range(t), access.thread_range(u)) {
                                (Some((tl, th)), Some((ul, uh))) => th < ul || uh < tl,
                                _ => addrs[t] != addrs[u],
                            };
                            if !disjoint || addrs[t] == addrs[u] {
                                return Err(format!(
                                    "pc {pc}: tid-private threads {t} and {u} overlap at {addrs:?}"
                                ));
                            }
                        }
                    }
                }
                _ => {}
            }
            if matches!(inst, Inst::St { .. }) && addrs.iter().any(|&a| a >= MEM_WORDS) {
                return Ok(());
            }
        }
        let last = memories.len() - 1;
        let mut results = Vec::with_capacity(THREADS);
        for (t, m) in machines.iter_mut().enumerate() {
            let memory = &mut memories[t.min(last)];
            let step = m.step(prog, memory).map_err(|e| format!("pc {pc}: {e}"))?;
            results.push(step.result);
        }
        if let Some(class) = info.result {
            let vals: Vec<u64> = results.iter().map(|r| r.expect("a write")).collect();
            if !class_holds(class, &vals) {
                return Err(format!("pc {pc}: result claimed {class}, holds {vals:?}"));
            }
        }
        pc += 1;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Soundness of the one abstract domain against the interpreter:
    /// branch-free programs over five registers ([`prologue`], then
    /// [`straight_line`]) run on four lockstep threads under both memory
    /// models with per-thread memories that differ, and every
    /// invariance, constant, value-class and address claim must hold of
    /// the concrete values at every executed PC.
    #[test]
    fn facts_hold_on_lockstep_execution(
        insts in prop::collection::vec(arb_inst(32), 1..32)
    ) {
        let prog = Program::from_insts(
            prologue().into_iter().chain(insts.into_iter().map(straight_line)).collect(),
        );
        for sharing in [MemSharing::Shared, MemSharing::PerThread] {
            check_against_execution(&prog, sharing)?;
        }
    }
}
