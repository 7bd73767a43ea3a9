//! Thread-parametric value-flow analysis (layer 6b): which registers
//! provably hold *identical* values across threads, which provably
//! differ, and what that means for execution merging.
//!
//! ## The classes
//!
//! Every register (and hence every SSA value) carries the crate's one
//! abstract fact ([`crate::dataflow`]), an affine polynomial in the
//! hardware thread id with a thread-invariance flag on its residue:
//!
//! ```text
//! value(t) = konst + coef · t + residue
//! ```
//!
//! [`Fact::value_class`] collapses it to the four-point classification
//! [`ValueClass`]:
//!
//! * **Identical** — `coef = 0` and the residue is invariant: every
//!   thread holds the same value at this point, on every execution.
//! * **AffineTid{stride}** — `coef = stride ≠ 0`, residue invariant:
//!   thread `t` holds `base + stride·t`, so any two threads *provably
//!   differ* (strides are magnitude-guarded against wrap-around).
//! * **ThreadDependent** — influenced by `tid` (or by a divergent path)
//!   in a way the affine form cannot pin down.
//! * **Top** — unknown (typically a load from unclassified memory).
//!
//! The facts are the divergence fixpoint's own
//! ([`crate::DivergenceAnalysis::analysis`]): registers written under a
//! divergent branch are demoted at the reconvergence joins unless the
//! fact is pinned. Loads at invariant addresses yield `Identical` values
//! when no store can intervene (store-free program over shared memory,
//! or per-thread memories verified identical — the one case that reruns
//! the fixpoint, with that load model and the same demotion masks), and
//! the address class of every load/store is the
//! [`Fact::access_class`] projection of the same facts.
//!
//! [`Fact::value_class`]: crate::dataflow::Fact::value_class
//! [`Fact::access_class`]: crate::dataflow::Fact::access_class
//!
//! ## The static RST model
//!
//! The pipeline's Register Sharing Table maintains the invariant
//! *"pair-shared ⇒ the threads hold equal values"*: sharing bits are set
//! only by a merged dispatch (one uop, one result, broadcast) or by the
//! register-merging hardware after comparing values, and LVIP-
//! speculative loads are value-verified before the destination update.
//! Two abstract transfers bracket every PC's exec-merge fraction
//! `exec_merged / (exec_merged + exec_split)`:
//!
//! * **Never-merge** (upper bound 0): `tid`, or any source classified
//!   `AffineTid` — provably-unequal sources can never be RST-shared, so
//!   a merged-fetched group always splits.
//! * **Guaranteed-merge** (lower bound 1): a must-analysis of the set of
//!   registers that are all-pairs RST-shared in *every* execution.
//!   Blocks *tainted* by divergence (reachable from a divergent branch's
//!   successors) may dispatch with partial groups, so every destination
//!   written there leaves the set; untainted blocks always dispatch the
//!   full merged group, so a destination whose sources are in the set
//!   re-enters it. `tid` destinations and per-thread-memory load
//!   destinations (LVIP-speculative) always leave. An instruction whose
//!   sources are all in the set *must* dispatch merged whenever it is
//!   fetched merged — the splitter is deterministic — so its measured
//!   split count must be zero.
//!
//! Everything else gets the trivial `[0, 1]` bracket. The weighted
//! guaranteed/ideal fractions give a static "identified redundancy"
//! figure in the spirit of the paper's Figure 5(b); `mmtgate --check
//! value` (crates/bench) gates all of the per-PC claims against the
//! simulator's dynamic profile.

use crate::dataflow::{has_stores, Analysis, Invariance};
use crate::memdep::AccessClass;
use crate::predict::LOOP_WEIGHT;
use crate::ssa::{DefSite, Ssa};
use crate::stack::Stack;
use mmt_isa::reg::NUM_REGS;
use mmt_isa::{Inst, MemSharing, Program};

/// Thread-parametric classification of one value. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueClass {
    /// Provably the same value in every thread, on every execution.
    Identical,
    /// Provably `base + stride·tid` with a thread-invariant base: any
    /// two threads differ.
    AffineTid {
        /// The per-thread stride (non-zero, magnitude-guarded).
        stride: i64,
    },
    /// Influenced by `tid` or a divergent path; expected to differ, not
    /// provably so.
    ThreadDependent,
    /// Unknown.
    Top,
}

impl ValueClass {
    /// Whether this class proves any two threads hold different values.
    pub fn provably_unequal(&self) -> bool {
        matches!(self, ValueClass::AffineTid { .. })
    }
}

impl std::fmt::Display for ValueClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValueClass::Identical => write!(f, "identical"),
            ValueClass::AffineTid { stride } => write!(f, "affine(tid*{stride})"),
            ValueClass::ThreadDependent => write!(f, "thread-dependent"),
            ValueClass::Top => write!(f, "top"),
        }
    }
}

/// Static bracket on one PC's exec-merge fraction
/// `exec_merged / (exec_merged + exec_split)`. Both endpoints are 0 or
/// 1: the lower is 1 only for guaranteed-merge PCs, the upper is 0 only
/// for never-merge PCs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeBracket {
    /// Guaranteed lower bound.
    pub lower: f64,
    /// Guaranteed upper bound.
    pub upper: f64,
}

impl MergeBracket {
    /// Whether a measured fraction falls inside the bracket (with a
    /// small epsilon for float accumulation).
    pub fn contains(&self, measured: f64) -> bool {
        measured >= self.lower - 1e-9 && measured <= self.upper + 1e-9
    }
}

/// Per-PC value-flow facts.
#[derive(Debug, Clone)]
pub struct PcValueFlow {
    /// The instruction's PC.
    pub pc: u64,
    /// Classes of the source registers, in [`Inst::sources`] order.
    pub sources: Vec<ValueClass>,
    /// Class of the destination value, if the instruction writes one
    /// (writes to `r0` are discarded and report `None`).
    pub result: Option<ValueClass>,
    /// Class of the effective address for loads/stores: its
    /// [`AccessClass`] as a value (`Invariant` → `Identical`,
    /// `TidPrivate` → `AffineTid`, `Shared` → `Top`).
    pub addr: Option<ValueClass>,
    /// A merged-fetched group provably always splits here.
    pub never_merge: bool,
    /// A merged-fetched group provably always dispatches merged here.
    pub guaranteed_merge: bool,
    /// The resulting exec-merge bracket.
    pub bracket: MergeBracket,
}

/// Aggregate statistics over all reachable PCs — the static counterpart
/// of the paper's Figure 5(b) "identified redundancy" breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueFlowSummary {
    /// Reachable instructions analysed.
    pub reachable_insts: usize,
    /// Destination writes classified [`ValueClass::Identical`].
    pub identical_results: usize,
    /// Destination writes classified [`ValueClass::AffineTid`].
    pub affine_results: usize,
    /// Destination writes classified [`ValueClass::ThreadDependent`].
    pub thread_dependent_results: usize,
    /// Destination writes classified [`ValueClass::Top`].
    pub top_results: usize,
    /// PCs with a never-merge (upper = 0) bracket.
    pub never_merge_pcs: usize,
    /// PCs with a guaranteed-merge (lower = 1) bracket.
    pub guaranteed_merge_pcs: usize,
    /// Loads whose *value* is provably identical across threads.
    pub identical_value_loads: usize,
    /// Loop-weighted fraction of reachable work guaranteed to dispatch
    /// merged when fetched merged (static identified redundancy, lower).
    pub guaranteed_merge_frac: f64,
    /// Loop-weighted fraction of reachable work that *could* dispatch
    /// merged — everything except never-merge PCs (upper).
    pub ideal_merge_frac: f64,
}

/// Options for [`ValueFlowAnalysis::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ValueFlowOptions {
    /// The per-thread memory images are known to start identical
    /// (verified by the caller, e.g. by comparing the workload's
    /// memories). Lets invariant-address loads over per-thread memories
    /// classify `Identical` in store-free programs.
    pub identical_memories: bool,
}

/// The thread-parametric value-flow analysis. See the module docs.
#[derive(Debug, Clone)]
pub struct ValueFlowAnalysis {
    pcs: Vec<Option<PcValueFlow>>,
    value_classes: Vec<ValueClass>,
    ssa: Ssa,
    summary: ValueFlowSummary,
}

impl ValueFlowAnalysis {
    /// Run the full stack (CFG, dominators, divergence fixpoint, SSA)
    /// and classify every reachable PC of `prog`.
    pub fn run(prog: &Program, sharing: MemSharing, opts: ValueFlowOptions) -> ValueFlowAnalysis {
        ValueFlowAnalysis::from_stack(&Stack::new(prog), sharing, opts)
    }

    /// [`ValueFlowAnalysis::run`] over an already-built [`Stack`].
    pub fn from_stack(
        stack: &Stack<'_>,
        sharing: MemSharing,
        opts: ValueFlowOptions,
    ) -> ValueFlowAnalysis {
        let (prog, cfg, dom, loops) = (stack.program(), stack.cfg(), stack.dom(), stack.loops());
        let div = stack.divergence(sharing);
        let ssa = Ssa::build(prog, cfg, dom);
        let insts = prog.as_slice();
        let nb = cfg.blocks().len();

        // The divergence fixpoint's facts: their invariance is the
        // fallback class, their addresses the address classes. Only
        // verified-identical per-thread memories change the load model
        // of the value facts.
        let facts = div.analysis();
        let loads_identical =
            !has_stores(prog) && (sharing == MemSharing::Shared || opts.identical_memories);
        let rerun;
        let values = if loads_identical == facts.loads_invariant() {
            facts
        } else {
            rerun = Analysis::run_with_demotions(prog, cfg, loads_identical, div.demotions());
            &rerun
        };

        // --- Taint: blocks that can execute after a divergence. -------
        let tainted = div.tainted(cfg);

        // --- Guaranteed RST shared-set (must-analysis, bitmask). ------
        let full: u32 = u32::MAX >> (32 - NUM_REGS as u32);
        let mut shared_in: Vec<Option<u32>> = vec![None; nb];
        if nb > 0 {
            shared_in[cfg.entry()] = Some(full);
            let mut work = vec![cfg.entry()];
            while let Some(b) = work.pop() {
                let mut s = shared_in[b].expect("worklist blocks have a state");
                for pc in cfg.blocks()[b].pcs() {
                    rst_transfer(&mut s, &insts[pc as usize], tainted[b], sharing);
                }
                for i in 0..cfg.blocks()[b].succs.len() {
                    let succ = cfg.blocks()[b].succs[i];
                    let next = match shared_in[succ] {
                        Some(cur) => cur & s,
                        None => s,
                    };
                    if shared_in[succ] != Some(next) {
                        shared_in[succ] = Some(next);
                        work.push(succ);
                    }
                }
            }
        }

        // --- Per-PC classification and brackets. ----------------------
        let mut pcs: Vec<Option<PcValueFlow>> = vec![None; insts.len()];
        let mut summary = ValueFlowSummary {
            reachable_insts: 0,
            identical_results: 0,
            affine_results: 0,
            thread_dependent_results: 0,
            top_results: 0,
            never_merge_pcs: 0,
            guaranteed_merge_pcs: 0,
            identical_value_loads: 0,
            guaranteed_merge_frac: 0.0,
            ideal_merge_frac: 0.0,
        };
        let (mut w_total, mut w_guaranteed, mut w_ideal) = (0.0f64, 0.0f64, 0.0f64);
        for (b, blk) in cfg.blocks().iter().enumerate() {
            if values.before(blk.start).is_none() {
                continue;
            }
            let mut shared = shared_in[b].unwrap_or(0);
            let w = LOOP_WEIGHT.powi(loops.depth(b) as i32);
            for pc in blk.pcs() {
                let inst = &insts[pc as usize];
                let state = values.before(pc).expect("reachable blocks have states");
                let dstate = facts.before(pc).expect("reachable blocks have states");
                let sources: Vec<ValueClass> = inst
                    .sources()
                    .iter()
                    .map(|r| {
                        let fallback = match dstate.get(r).invariance() {
                            Invariance::ThreadDependent => ValueClass::ThreadDependent,
                            _ => ValueClass::Top,
                        };
                        state.get(r).value_class(fallback)
                    })
                    .collect();
                let never_merge = matches!(inst, Inst::Tid { .. })
                    || sources.iter().any(|c| c.provably_unequal());
                let me_load = matches!(inst, Inst::Ld { .. }) && sharing == MemSharing::PerThread;
                let guaranteed_merge = !(never_merge || me_load)
                    && inst
                        .sources()
                        .iter()
                        .all(|r| r.is_zero() || shared & (1 << r.index()) != 0);
                rst_transfer(&mut shared, inst, tainted[b], sharing);

                let result_fallback = if matches!(inst, Inst::Tid { .. })
                    || sources
                        .iter()
                        .any(|c| !matches!(c, ValueClass::Identical | ValueClass::Top))
                {
                    ValueClass::ThreadDependent
                } else {
                    ValueClass::Top
                };
                let result = inst
                    .dest()
                    .filter(|rd| !rd.is_zero())
                    .and_then(|_| state.eval(pc, inst, loads_identical))
                    .map(|f| f.value_class(result_fallback));
                let addr = match *inst {
                    Inst::Ld { base, off, .. } | Inst::St { base, off, .. } => {
                        Some(match dstate.get(base).offset(off).access_class() {
                            AccessClass::Invariant => ValueClass::Identical,
                            AccessClass::TidPrivate { stride } => ValueClass::AffineTid { stride },
                            AccessClass::Shared { .. } => ValueClass::Top,
                        })
                    }
                    _ => None,
                };

                let bracket = MergeBracket {
                    lower: if guaranteed_merge { 1.0 } else { 0.0 },
                    upper: if never_merge { 0.0 } else { 1.0 },
                };
                summary.reachable_insts += 1;
                w_total += w;
                if guaranteed_merge {
                    summary.guaranteed_merge_pcs += 1;
                    w_guaranteed += w;
                }
                if never_merge {
                    summary.never_merge_pcs += 1;
                } else {
                    w_ideal += w;
                }
                match result {
                    Some(ValueClass::Identical) => {
                        summary.identical_results += 1;
                        if matches!(inst, Inst::Ld { .. }) {
                            summary.identical_value_loads += 1;
                        }
                    }
                    Some(ValueClass::AffineTid { .. }) => summary.affine_results += 1,
                    Some(ValueClass::ThreadDependent) => {
                        summary.thread_dependent_results += 1;
                    }
                    Some(ValueClass::Top) => summary.top_results += 1,
                    None => {}
                }
                pcs[pc as usize] = Some(PcValueFlow {
                    pc,
                    sources,
                    result,
                    addr,
                    never_merge,
                    guaranteed_merge,
                    bracket,
                });
            }
        }
        summary.guaranteed_merge_frac = if w_total > 0.0 {
            w_guaranteed / w_total
        } else {
            1.0
        };
        summary.ideal_merge_frac = if w_total > 0.0 {
            w_ideal / w_total
        } else {
            1.0
        };

        // --- SSA value annotation. ------------------------------------
        let value_classes: Vec<ValueClass> = ssa
            .values()
            .iter()
            .map(|v| match v.site {
                DefSite::Entry => ValueClass::Identical,
                DefSite::Inst(pc) => pcs[pc as usize]
                    .as_ref()
                    .and_then(|i| i.result)
                    .unwrap_or(ValueClass::Top),
                DefSite::Phi(block) => values
                    .before(cfg.blocks()[block].start)
                    .map_or(ValueClass::Top, |s| {
                        s.get(v.reg).value_class(ValueClass::Top)
                    }),
            })
            .collect();

        ValueFlowAnalysis {
            pcs,
            value_classes,
            ssa,
            summary,
        }
    }

    /// Facts for the instruction at `pc` (`None`: out of range or
    /// statically unreachable).
    pub fn info_at(&self, pc: u64) -> Option<&PcValueFlow> {
        self.pcs.get(pc as usize).and_then(|i| i.as_ref())
    }

    /// All reachable per-PC facts, ascending PC.
    pub fn infos(&self) -> impl Iterator<Item = &PcValueFlow> + '_ {
        self.pcs.iter().filter_map(|i| i.as_ref())
    }

    /// The SSA form the analysis annotated.
    pub fn ssa(&self) -> &Ssa {
        &self.ssa
    }

    /// The class of one SSA value.
    pub fn class_of_value(&self, value: crate::ssa::ValueId) -> ValueClass {
        self.value_classes
            .get(value)
            .copied()
            .unwrap_or(ValueClass::Top)
    }

    /// Aggregate statistics.
    pub fn summary(&self) -> &ValueFlowSummary {
        &self.summary
    }

    /// Refined point estimate of the fraction of execution energy saved
    /// versus `threads` independent cores: guaranteed-merge work always
    /// saves `(t-1)/t`, never-merge work saves nothing, and the
    /// remainder is split halfway. Callers clamp it into the coarse
    /// predictor's guaranteed `[savings_lower, savings_upper]`.
    pub fn savings_estimate(&self, threads: usize) -> f64 {
        let t = threads.max(1) as f64;
        let g = self.summary.guaranteed_merge_frac;
        let i = self.summary.ideal_merge_frac;
        (t - 1.0) / t * (g + (i - g) / 2.0)
    }
}

/// Abstract transfer of one instruction over the guaranteed RST
/// shared-set. `tainted` blocks may dispatch partial thread groups, so
/// destinations written there are never guaranteed all-pairs-shared.
fn rst_transfer(shared: &mut u32, inst: &Inst, tainted: bool, sharing: MemSharing) {
    let Some(rd) = inst.dest() else {
        return;
    };
    if rd.is_zero() {
        return;
    }
    let bit = 1u32 << rd.index();
    let unguaranteeable = tainted
        || matches!(inst, Inst::Tid { .. })
        || (matches!(inst, Inst::Ld { .. }) && sharing == MemSharing::PerThread);
    let guaranteed_merged = !unguaranteeable
        && inst
            .sources()
            .iter()
            .all(|r| r.is_zero() || *shared & (1 << r.index()) != 0);
    if guaranteed_merged {
        *shared |= bit;
    } else {
        *shared &= !bit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_isa::asm::Builder as Asm;
    use mmt_isa::{AluOp, Reg};

    fn run(prog: &Program, sharing: MemSharing) -> ValueFlowAnalysis {
        ValueFlowAnalysis::run(prog, sharing, ValueFlowOptions::default())
    }

    #[test]
    fn constants_are_identical_and_guaranteed() {
        let mut b = Asm::new();
        b.addi(Reg::R1, Reg::R0, 5);
        b.alu(AluOp::Add, Reg::R2, Reg::R1, Reg::R1);
        b.halt();
        let vf = run(&b.build().unwrap(), MemSharing::Shared);
        for pc in 0..2u64 {
            let i = vf.info_at(pc).unwrap();
            assert_eq!(i.result, Some(ValueClass::Identical));
            assert!(i.guaranteed_merge, "pc {pc} guaranteed");
            assert!(!i.never_merge);
            assert_eq!(
                i.bracket,
                MergeBracket {
                    lower: 1.0,
                    upper: 1.0
                }
            );
        }
        let s = vf.summary();
        assert_eq!(s.never_merge_pcs, 0);
        assert!((s.guaranteed_merge_frac - 1.0).abs() < 1e-12);
        assert!((s.ideal_merge_frac - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tid_chains_are_affine_and_never_merge() {
        let mut b = Asm::new();
        b.tid(Reg::R1); // pc 0: r1 = tid
        b.alu(AluOp::Add, Reg::R2, Reg::R1, Reg::R1); // pc 1: 2*tid
        b.addi(Reg::R3, Reg::R2, 10); // pc 2: 10 + 2*tid
        b.alu(AluOp::Sub, Reg::R4, Reg::R3, Reg::R2); // pc 3: 10, identical again
        b.alu(AluOp::Xor, Reg::R5, Reg::R1, Reg::R1); // pc 4: r ^ r = 0
        b.halt();
        let vf = run(&b.build().unwrap(), MemSharing::Shared);
        assert!(vf.info_at(0).unwrap().never_merge, "tid always splits");
        assert_eq!(
            vf.info_at(0).unwrap().result,
            Some(ValueClass::AffineTid { stride: 1 })
        );
        assert_eq!(
            vf.info_at(1).unwrap().result,
            Some(ValueClass::AffineTid { stride: 2 })
        );
        assert!(vf.info_at(1).unwrap().never_merge, "affine source");
        assert_eq!(
            vf.info_at(2).unwrap().result,
            Some(ValueClass::AffineTid { stride: 2 })
        );
        assert_eq!(
            vf.info_at(3).unwrap().result,
            Some(ValueClass::Identical),
            "affine cancellation"
        );
        assert_eq!(vf.info_at(4).unwrap().result, Some(ValueClass::Identical));
        // pc 3 sources are affine: never merged even though the result
        // is identical.
        assert!(vf.info_at(3).unwrap().never_merge);
        assert_eq!(vf.info_at(3).unwrap().bracket.upper, 0.0);
    }

    #[test]
    fn pinned_facts_survive_divergence_demotion() {
        let mut b = Asm::new();
        let (els, join) = (b.label(), b.label());
        b.tid(Reg::R1); // pc 0
        b.alu(AluOp::Add, Reg::R2, Reg::R1, Reg::R1); // pc 1: r2 = 2*tid
        b.beq(Reg::R1, Reg::R0, els); // pc 2: divergent
        b.addi(Reg::R3, Reg::R0, 1); // pc 3
        b.addi(Reg::R4, Reg::R0, 5); // pc 4
        b.jmp(join); // pc 5
        b.bind(els);
        b.addi(Reg::R3, Reg::R0, 2); // pc 6: differs from pc 3
        b.addi(Reg::R4, Reg::R0, 5); // pc 7: agrees with pc 4
        b.bind(join);
        b.alu(AluOp::Add, Reg::R5, Reg::R2, Reg::R0); // pc 8: reads r2
        b.alu(AluOp::Add, Reg::R6, Reg::R3, Reg::R0); // pc 9: reads r3
        b.alu(AluOp::Add, Reg::R7, Reg::R4, Reg::R0); // pc 10: reads r4
        b.halt();
        let vf = run(&b.build().unwrap(), MemSharing::Shared);
        assert_eq!(
            vf.info_at(8).unwrap().sources[0],
            ValueClass::AffineTid { stride: 2 },
            "facts from before the branch are untouched by demotion"
        );
        assert_ne!(
            vf.info_at(9).unwrap().sources[0],
            ValueClass::Identical,
            "r3 differs by path taken, so it is demoted"
        );
        assert_eq!(
            vf.info_at(10).unwrap().sources[0],
            ValueClass::Identical,
            "the same pinned constant on both paths is path-independent"
        );
    }

    #[test]
    fn uniform_join_keeps_agreeing_constants() {
        let mut b = Asm::new();
        let (els, join) = (b.label(), b.label());
        b.addi(Reg::R1, Reg::R0, 3); // uniform condition
        b.beq(Reg::R1, Reg::R0, els);
        b.addi(Reg::R2, Reg::R0, 7);
        b.jmp(join);
        b.bind(els);
        b.addi(Reg::R2, Reg::R0, 7); // same constant on both paths
        b.bind(join);
        b.alu(AluOp::Add, Reg::R3, Reg::R2, Reg::R0); // pc 5
        b.halt();
        let vf = run(&b.build().unwrap(), MemSharing::Shared);
        assert_eq!(vf.info_at(5).unwrap().sources[0], ValueClass::Identical);
    }

    #[test]
    fn loads_follow_sharing_and_store_freedom() {
        let mut b = Asm::new();
        b.li(Reg::R1, 4096);
        b.ld(Reg::R2, Reg::R1, 0); // pc 1
        b.halt();
        let prog = b.build().unwrap();

        let vf = run(&prog, MemSharing::Shared);
        assert_eq!(vf.info_at(1).unwrap().result, Some(ValueClass::Identical));
        assert_eq!(vf.summary().identical_value_loads, 1);
        assert_eq!(vf.info_at(1).unwrap().addr, Some(ValueClass::Identical));

        // Per-thread memories: only identical if the images are known
        // identical.
        let vf = run(&prog, MemSharing::PerThread);
        assert_eq!(vf.info_at(1).unwrap().result, Some(ValueClass::Top));
        let vf = ValueFlowAnalysis::run(
            &prog,
            MemSharing::PerThread,
            ValueFlowOptions {
                identical_memories: true,
            },
        );
        assert_eq!(vf.info_at(1).unwrap().result, Some(ValueClass::Identical));

        // A store anywhere kills the claim.
        let mut b = Asm::new();
        b.li(Reg::R1, 4096);
        b.st(Reg::R0, Reg::R1, 0);
        b.ld(Reg::R2, Reg::R1, 0); // pc 2
        b.halt();
        let vf = run(&b.build().unwrap(), MemSharing::Shared);
        assert_eq!(vf.info_at(2).unwrap().result, Some(ValueClass::Top));
    }

    #[test]
    fn divergent_region_writes_lose_the_guarantee() {
        let mut b = Asm::new();
        let (els, join) = (b.label(), b.label());
        b.tid(Reg::R1);
        b.beq(Reg::R1, Reg::R0, els);
        b.addi(Reg::R2, Reg::R0, 1);
        b.jmp(join);
        b.bind(els);
        b.addi(Reg::R2, Reg::R0, 1);
        b.bind(join);
        b.alu(AluOp::Add, Reg::R3, Reg::R2, Reg::R0); // pc 5: r2 written in region
        b.addi(Reg::R4, Reg::R0, 9); // pc 6: no sources beyond r0
        b.halt();
        let vf = run(&b.build().unwrap(), MemSharing::Shared);
        let i = vf.info_at(5).unwrap();
        assert!(
            !i.guaranteed_merge,
            "r2 was written under divergence: not RST-guaranteed"
        );
        assert!(!i.never_merge, "but it may still merge dynamically");
        // r0-only sources stay guaranteed even in tainted blocks.
        assert!(vf.info_at(6).unwrap().guaranteed_merge);
    }

    #[test]
    fn ssa_values_carry_classes() {
        let mut b = Asm::new();
        b.tid(Reg::R1);
        b.addi(Reg::R2, Reg::R1, 3);
        b.halt();
        let vf = run(&b.build().unwrap(), MemSharing::Shared);
        let v = vf.ssa().def_at(1).unwrap();
        assert_eq!(
            vf.class_of_value(v),
            ValueClass::AffineTid { stride: 1 },
            "ssa annotation matches the per-pc result"
        );
    }

    #[test]
    fn savings_estimate_is_ordered() {
        let mut b = Asm::new();
        b.tid(Reg::R1);
        b.addi(Reg::R2, Reg::R0, 1);
        b.halt();
        let vf = run(&b.build().unwrap(), MemSharing::Shared);
        let e2 = vf.savings_estimate(2);
        assert!((0.0..=0.5).contains(&e2), "2 threads cap at 1/2: {e2}");
        assert!(vf.savings_estimate(4) >= e2, "more threads, more to save");
    }

    #[test]
    fn empty_program_is_total() {
        let vf = run(&Program::from_insts(Vec::new()), MemSharing::Shared);
        assert_eq!(vf.summary().reachable_insts, 0);
        assert_eq!(vf.infos().count(), 0);
    }
}
