//! The static savings predictor: per-program MMT merge predictions from
//! structure alone — no simulation.
//!
//! ## What is guaranteed vs. modeled
//!
//! The *bounds* are guarantees derivable from the pipeline's invariants:
//!
//! * **Upper bound** on the merge-mode fetch fraction: trivially 1.0
//!   whenever any divergent branch is reachable (the FHB may remerge
//!   threads immediately, and a statically-divergent branch can be
//!   dynamically uniform), and *exactly* 1.0 for statically
//!   divergence-free programs — threads start merged at PC 0, every
//!   branch condition is thread-invariant so all threads take the same
//!   direction, and nothing else splits fetch.
//! * **Lower bound**: the loop-weighted fraction of reachable
//!   instructions in blocks *not tainted by divergence*, where tainted
//!   means reachable (transitively, along any CFG path) from a divergent
//!   branch's successors. An untainted block can only execute before the
//!   first divergence, hence always in MERGE mode; everything else may,
//!   in the worst case, be fetched split forever (the FHB search is
//!   finite and remerge alignment is bounded, so no remerge is
//!   guaranteed). For divergence-free programs nothing is tainted and
//!   the bounds pinch to exactly 1.0 — `mmtgate --check predict` checks
//!   the dynamic fraction falls inside `[lower, upper]` for every
//!   workload.
//!
//! The *point estimate* ([`Prediction::merge_frac_est`]) is a calibrated
//! model, not a guarantee: it assumes ideal reconvergence (threads
//! remerge exactly at each divergent branch's immediate post-dominator),
//! so only the divergence *regions* fetch split. It always lies inside
//! the guaranteed bounds (regions are a subset of the taint).
//!
//! Instruction weights are `LOOP_WEIGHT^depth` with depth from natural
//! loop nesting — a static stand-in for execution frequency that makes
//! a detour inside a doubly-nested loop count for more than prologue
//! code.

use crate::dataflow::Invariance;
use crate::oracle::{classify, MergeClass};
use crate::stack::Stack;
use crate::valueflow::{ValueClass, ValueFlowAnalysis, ValueFlowOptions};
use mmt_isa::{Inst, MemSharing, Program};
use std::collections::BTreeMap;

/// Weight multiplier per loop-nesting level (16 ≈ a short inner loop;
/// only ratios of weights matter, not the absolute value).
pub const LOOP_WEIGHT: f64 = 16.0;

/// Per-program static prediction of MMT merge behaviour for a given
/// thread count. See the module docs for bound semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Thread count the uop/savings numbers are scaled for.
    pub threads: usize,
    /// Statically reachable instructions.
    pub reachable_insts: usize,
    /// Reachable instructions classified [`MergeClass::MustMerge`].
    pub must_merge: usize,
    /// Reachable instructions classified [`MergeClass::MayMerge`].
    pub may_merge: usize,
    /// Reachable instructions classified [`MergeClass::MustSplit`].
    pub must_split: usize,
    /// Reachable control transfers classified divergent / uniform.
    pub divergent_branches: usize,
    /// Reachable control transfers every thread takes identically.
    pub uniform_branches: usize,
    /// Natural loops found.
    pub loops: usize,
    /// Deepest loop nesting level.
    pub max_loop_depth: usize,
    /// Functions in the call graph (including `main`).
    pub functions: usize,
    /// `jr` instructions the call graph could not resolve.
    pub unresolved_jumps: usize,
    /// Guaranteed lower bound on the dynamic merge-mode fetch fraction.
    pub merge_frac_lower: f64,
    /// Guaranteed upper bound on the dynamic merge-mode fetch fraction.
    pub merge_frac_upper: f64,
    /// Ideal-reconvergence point estimate (inside the bounds).
    pub merge_frac_est: f64,
    /// Loop-weighted fraction of fetched instructions that are
    /// must-merge (guaranteed executable once for all merged threads).
    pub must_merge_uop_frac: f64,
    /// Loop-weighted fraction that are may-merge (merge soundness
    /// decided dynamically by operand comparison).
    pub may_merge_uop_frac: f64,
    /// Expected uops dispatched per fetched instruction slot when
    /// threads are merged: 1 = fully merged, `threads` = fully split.
    pub expected_split_degree: f64,
    /// Guaranteed lower bound on the fraction of execution work saved
    /// versus `threads` independent cores (must-merge work in untainted
    /// blocks always merges).
    pub savings_lower: f64,
    /// Upper bound on the saved fraction: all must- and may-merge work
    /// merges fully, saving `(t-1)/t` of its uops.
    pub savings_upper: f64,
    /// Refined point estimate of the saved fraction, derived from the
    /// value-flow analysis' static RST model
    /// ([`ValueFlowAnalysis::savings_estimate`]) and clamped into the
    /// guaranteed `[savings_lower, savings_upper]`.
    pub savings_est: f64,
}

/// Run the full static stack (CFG + call graph + dominators +
/// post-dominators + loops + divergence-refined dataflow) and derive a
/// [`Prediction`] for `threads` hardware threads.
pub fn predict(prog: &Program, sharing: MemSharing, threads: usize) -> Prediction {
    predict_from_stack(&Stack::new(prog), sharing, threads)
}

/// [`predict()`] over an already-built [`Stack`].
pub fn predict_from_stack(stack: &Stack<'_>, sharing: MemSharing, threads: usize) -> Prediction {
    let (prog, cfg, loops) = (stack.program(), stack.cfg(), stack.loops());
    let div = stack.divergence(sharing);
    let analysis = div.analysis();
    let insts = prog.as_slice();
    let t = threads.max(1) as f64;

    // Taint: blocks reachable from any divergent branch's successors —
    // everything that can possibly execute after a divergence. Region
    // taint: only the blocks strictly inside a divergence region (between
    // the branch and its reconvergence point) — the ideal-reconvergence
    // model's split set.
    let tainted = div.tainted(cfg);
    let region_tainted = div.in_region(cfg);

    let mut reachable_insts = 0usize;
    let (mut must, mut may, mut split) = (0usize, 0usize, 0usize);
    let mut w_total = 0.0f64;
    let mut w_untainted = 0.0f64;
    let mut w_unregioned = 0.0f64;
    let mut w_must = 0.0f64;
    let mut w_may = 0.0f64;
    let mut w_must_untainted = 0.0f64;
    let mut w_degree = 0.0f64;

    for (b, blk) in cfg.blocks().iter().enumerate() {
        if !cfg.is_reachable(b) {
            continue;
        }
        let w = LOOP_WEIGHT.powi(loops.depth(b) as i32);
        for pc in blk.pcs() {
            let Some(state) = analysis.before(pc) else {
                continue;
            };
            let inst = &insts[pc as usize];
            let class = classify(inst, state, analysis.loads_invariant());
            reachable_insts += 1;
            w_total += w;
            if !tainted[b] {
                w_untainted += w;
            }
            if !region_tainted[b] {
                w_unregioned += w;
            }
            match class {
                MergeClass::MustMerge => {
                    must += 1;
                    w_must += w;
                    w_degree += w; // executes once for the whole group
                    if !tainted[b] {
                        w_must_untainted += w;
                    }
                }
                MergeClass::MayMerge => {
                    may += 1;
                    w_may += w;
                    // Thread-dependent operands are expected to differ
                    // (full split); unknown operands may or may not.
                    let expected_differs = inst
                        .sources()
                        .iter()
                        .any(|r| state.get(r).invariance() == Invariance::ThreadDependent);
                    w_degree += if expected_differs {
                        w * t
                    } else {
                        w * (1.0 + t) / 2.0
                    };
                }
                MergeClass::MustSplit => {
                    split += 1;
                    w_degree += w * t;
                }
            }
        }
    }

    let frac = |x: f64| if w_total > 0.0 { x / w_total } else { 1.0 };
    let merge_frac_lower = frac(w_untainted);
    let merge_frac_est = frac(w_unregioned);
    let merge_frac_upper = 1.0;
    let (uniform_branches, divergent_branches) = div.branch_counts();

    let savings_lower = (t - 1.0) / t
        * if w_total > 0.0 {
            w_must_untainted / w_total
        } else {
            0.0
        };
    let savings_upper = (t - 1.0) / t
        * if w_total > 0.0 {
            (w_must + w_may) / w_total
        } else {
            0.0
        };
    let vf = ValueFlowAnalysis::from_stack(stack, sharing, ValueFlowOptions::default());
    let savings_est = vf
        .savings_estimate(threads)
        .clamp(savings_lower, savings_upper);

    Prediction {
        threads,
        reachable_insts,
        must_merge: must,
        may_merge: may,
        must_split: split,
        divergent_branches,
        uniform_branches,
        loops: loops.loops.len(),
        max_loop_depth: loops.max_depth(),
        functions: cfg.call_graph().functions().len(),
        unresolved_jumps: cfg.unresolved_indirect_jumps().len(),
        merge_frac_lower,
        merge_frac_upper,
        merge_frac_est,
        must_merge_uop_frac: if w_total > 0.0 { w_must / w_total } else { 0.0 },
        may_merge_uop_frac: if w_total > 0.0 { w_may / w_total } else { 0.0 },
        expected_split_degree: if w_total > 0.0 {
            w_degree / w_total
        } else {
            1.0
        },
        savings_lower,
        savings_upper,
        savings_est,
    }
}

impl Prediction {
    /// Whether `measured` (a dynamic merge-mode fetch fraction) falls
    /// inside the guaranteed `[lower, upper]` bracket, with a small
    /// epsilon for float accumulation.
    pub fn brackets(&self, measured: f64) -> bool {
        measured >= self.merge_frac_lower - 1e-9 && measured <= self.merge_frac_upper + 1e-9
    }
}

/// Static per-PC bracket on the LVIP hit rate of one load.
///
/// LVIP (lookahead value-identical prediction) is only consulted by the
/// splitter for *merged* loads under per-thread memories whose base
/// registers compare equal in the RST — so the structural claim
/// (`predictable`) is sharp: at a non-predictable PC the predictor is
/// never consulted and the measured lookup count must be exactly zero.
/// Where it *is* consulted the hit rate is data-dependent, so the
/// default bracket is the sound `[0, 1]` — except where the value-flow
/// analysis proves the loaded *value* identical across threads
/// (`value_identical`): there every dispatch-time verification must
/// succeed, tightening the bracket to `[1, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LvipBracket {
    /// PC of the load.
    pub pc: u64,
    /// The splitter can consult LVIP here: per-thread memories, and the
    /// address is not statically tid-private. A tid-private address
    /// strictly differs across threads, so the RST can never show the
    /// base registers as shared and the LVIP path is unreachable.
    pub predictable: bool,
    /// All threads compute the same address
    /// ([`crate::memdep::AccessClass::Invariant`]).
    pub addr_invariant: bool,
    /// The loaded value is provably identical across threads
    /// ([`ValueClass::Identical`] result in the value-flow analysis).
    pub value_identical: bool,
    /// Guaranteed lower bound on the measured hit rate.
    pub hit_lower: f64,
    /// Guaranteed upper bound on the measured hit rate.
    pub hit_upper: f64,
}

impl LvipBracket {
    /// Whether a measured hit rate falls inside the bracket, with a small
    /// epsilon for float accumulation.
    pub fn brackets(&self, measured: f64) -> bool {
        measured >= self.hit_lower - 1e-9 && measured <= self.hit_upper + 1e-9
    }
}

/// Static LVIP prediction for a whole program: one bracket per reachable
/// load, keyed by PC. See [`LvipBracket`].
#[derive(Debug, Clone, PartialEq)]
pub struct LvipPrediction {
    /// Bracket per reachable load, keyed by PC.
    pub loads: BTreeMap<u64, LvipBracket>,
}

impl LvipPrediction {
    /// The bracket for the load at `pc`, if any.
    pub fn at(&self, pc: u64) -> Option<&LvipBracket> {
        self.loads.get(&pc)
    }

    /// How many loads are LVIP-predictable.
    pub fn predictable_count(&self) -> usize {
        self.loads.values().filter(|b| b.predictable).count()
    }
}

/// Derive a per-load LVIP bracket from the value-flow analysis (which
/// itself imports the memory divergence facts). Under
/// [`MemSharing::Shared`] no load is predictable (the splitter's LVIP
/// path is gated on per-thread memories), so a dynamic run must observe
/// zero per-PC LVIP lookups everywhere.
pub fn predict_lvip(prog: &Program, sharing: MemSharing) -> LvipPrediction {
    let vf = ValueFlowAnalysis::run(prog, sharing, ValueFlowOptions::default());
    predict_lvip_with(prog, sharing, &vf)
}

/// [`predict_lvip`] from an already-run value-flow analysis of `prog` —
/// run it with `identical_memories: true` when the per-thread memory
/// images are known equal to unlock `[1, 1]` brackets on identical-value
/// loads.
pub fn predict_lvip_with(
    prog: &Program,
    sharing: MemSharing,
    vf: &ValueFlowAnalysis,
) -> LvipPrediction {
    let loads = prog
        .as_slice()
        .iter()
        .enumerate()
        .filter(|(_, inst)| matches!(inst, Inst::Ld { .. }))
        .filter_map(|(pc, _)| vf.info_at(pc as u64))
        .map(|info| {
            let tid_private = info.addr.map(|c| c.provably_unequal()).unwrap_or(false);
            let value_identical = info.result == Some(ValueClass::Identical);
            let predictable = sharing == MemSharing::PerThread && !tid_private;
            let bracket = LvipBracket {
                pc: info.pc,
                predictable,
                addr_invariant: info.addr == Some(ValueClass::Identical),
                value_identical,
                hit_lower: if predictable && value_identical {
                    1.0
                } else {
                    0.0
                },
                hit_upper: 1.0,
            };
            (info.pc, bracket)
        })
        .collect();
    LvipPrediction { loads }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_isa::asm::Builder;
    use mmt_isa::Reg;

    #[test]
    fn divergence_free_program_pins_bounds_to_one() {
        let mut b = Builder::new();
        let top = b.label();
        b.addi(Reg::R1, Reg::R0, 4);
        b.bind(top);
        b.addi(Reg::R1, Reg::R1, -1);
        b.bne(Reg::R1, Reg::R0, top);
        b.halt();
        let p = predict(&b.build().unwrap(), MemSharing::Shared, 2);
        assert_eq!(p.divergent_branches, 0);
        assert_eq!(p.uniform_branches, 1);
        assert_eq!(p.merge_frac_lower, 1.0);
        assert_eq!(p.merge_frac_upper, 1.0);
        assert_eq!(p.merge_frac_est, 1.0);
        assert_eq!(p.loops, 1);
        assert!(p.brackets(1.0));
        assert!(!p.brackets(0.9));
        assert!(
            (p.expected_split_degree - 1.0).abs() < 1e-12,
            "all must-merge"
        );
        assert!(
            (p.savings_upper - 0.5).abs() < 1e-12,
            "2 threads: half saved"
        );
        assert!(
            p.savings_est >= p.savings_lower && p.savings_est <= p.savings_upper,
            "refined estimate clamped into the guaranteed bounds: {p:?}"
        );
    }

    #[test]
    fn divergent_branch_opens_the_bracket_and_orders_the_estimates() {
        let mut b = Builder::new();
        let (els, join) = (b.label(), b.label());
        b.tid(Reg::R1); // prologue (untainted)
        b.beq(Reg::R1, Reg::R0, els);
        b.addi(Reg::R2, Reg::R0, 1);
        b.jmp(join);
        b.bind(els);
        b.addi(Reg::R2, Reg::R0, 2);
        b.bind(join);
        b.addi(Reg::R3, Reg::R0, 7); // post-reconvergence
        b.halt();
        let p = predict(&b.build().unwrap(), MemSharing::Shared, 2);
        assert_eq!(p.divergent_branches, 1);
        assert!(p.merge_frac_lower < 1.0, "post-divergence code is tainted");
        assert!(
            p.merge_frac_lower > 0.0,
            "the prologue is guaranteed merged"
        );
        assert_eq!(p.merge_frac_upper, 1.0);
        assert!(
            p.merge_frac_est >= p.merge_frac_lower && p.merge_frac_est <= p.merge_frac_upper,
            "estimate inside bounds: {p:?}"
        );
        assert!(
            p.merge_frac_est > p.merge_frac_lower,
            "ideal reconvergence recovers the post-join code"
        );
        assert!(p.expected_split_degree > 1.0, "tid and tainted work split");
        assert!(p.expected_split_degree <= 2.0 + 1e-12);
        assert!(p.savings_lower <= p.savings_upper);
    }

    #[test]
    fn loop_weighting_dominates_the_fractions() {
        // A divergent detour inside the loop vs. a long merged prologue:
        // the loop weight must make the tainted fraction dominate.
        let mut b = Builder::new();
        let (top, els, join) = (b.label(), b.label(), b.label());
        for _ in 0..8 {
            b.addi(Reg::R2, Reg::R2, 1); // heavy prologue, straight-line
        }
        b.tid(Reg::R1);
        b.addi(Reg::R3, Reg::R0, 4);
        b.bind(top);
        b.beq(Reg::R1, Reg::R0, els); // divergent, inside the loop
        b.addi(Reg::R4, Reg::R4, 1);
        b.jmp(join);
        b.bind(els);
        b.addi(Reg::R4, Reg::R4, 2);
        b.bind(join);
        b.addi(Reg::R3, Reg::R3, -1);
        b.bne(Reg::R3, Reg::R0, top);
        b.halt();
        let p = predict(&b.build().unwrap(), MemSharing::Shared, 2);
        assert!(
            p.merge_frac_lower < 0.5,
            "loop-weighted taint outweighs the prologue: {p:?}"
        );
        assert!(p.max_loop_depth >= 1);
    }

    #[test]
    fn lvip_brackets_follow_sharing_and_classification() {
        use mmt_isa::AluOp;
        let mut b = Builder::new();
        b.li(Reg::R1, 4096);
        b.ld(Reg::R2, Reg::R1, 0); // pc 1: invariant address
        b.tid(Reg::R3);
        b.li(Reg::R4, 4480);
        b.alu(AluOp::Mul, Reg::R4, Reg::R3, Reg::R4);
        b.li(Reg::R5, 65536);
        b.alu_add(Reg::R5, Reg::R5, Reg::R4);
        b.ld(Reg::R6, Reg::R5, 0); // pc 7: tid-private address
        b.halt();
        let prog = b.build().unwrap();

        let p = predict_lvip(&prog, MemSharing::PerThread);
        assert_eq!(p.loads.len(), 2);
        let inv = p.at(1).unwrap();
        assert!(inv.predictable && inv.addr_invariant);
        assert!(inv.brackets(1.0) && inv.brackets(0.0) && !inv.brackets(1.5));
        let private = p.at(7).unwrap();
        assert!(
            !private.predictable,
            "tid-private base regs never compare equal in the RST"
        );
        assert_eq!(p.predictable_count(), 1);

        // Verified-identical per-thread memories tighten the invariant
        // load's bracket to [1, 1]: every LVIP verification must succeed.
        let opts = ValueFlowOptions {
            identical_memories: true,
        };
        let vf = ValueFlowAnalysis::run(&prog, MemSharing::PerThread, opts);
        let p = predict_lvip_with(&prog, MemSharing::PerThread, &vf);
        let inv = p.at(1).unwrap();
        assert!(inv.value_identical);
        assert_eq!(inv.hit_lower, 1.0);
        assert!(inv.brackets(1.0) && !inv.brackets(0.5));

        // Shared memories: the splitter's LVIP path is gated off.
        let p = predict_lvip(&prog, MemSharing::Shared);
        assert!(p.loads.values().all(|b| !b.predictable));
    }

    #[test]
    fn empty_program_degenerates_sanely() {
        let p = predict(&Program::from_insts(Vec::new()), MemSharing::Shared, 2);
        assert_eq!(p.reachable_insts, 0);
        assert_eq!(p.merge_frac_lower, 1.0);
        assert_eq!(p.merge_frac_upper, 1.0);
        assert!(p.brackets(1.0));
    }
}
