//! The differential redundancy oracle: static merge classification plus
//! a replay checker for the simulator's merge log.
//!
//! The MMT timing model is oracle-functional — architected results come
//! from the functional interpreter, so a Register Sharing Table bug that
//! merges instructions with *different* operand values would not corrupt
//! any final register. It would silently inflate the reported merging
//! benefit instead. This module closes that gap differentially: the
//! static side classifies every instruction's merge eligibility from
//! dataflow facts alone, and [`Oracle::check`] replays the dynamic merge
//! log recorded by `mmt_sim` (with `record_merge_log` set), asserting
//! that every merged dispatch really was between execute-identical
//! instructions — two independent derivations that must agree.

use crate::dataflow::State;
use crate::stack::Stack;
use mmt_isa::{Inst, MemSharing, Program, MAX_THREADS};
use mmt_sim::MergeEvent;
use std::fmt;

/// Static merge eligibility of one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeClass {
    /// Sources (and, for loads, memory) are provably thread-invariant:
    /// lockstep threads always produce an execute-identical pair, so the
    /// RST should merge it and the merge is guaranteed sound.
    MustMerge,
    /// Soundness depends on dynamic values; merging is permitted exactly
    /// when the dynamic operand (and loaded-value) comparison passes.
    MayMerge,
    /// Merging is never sound: the instruction's result differs across
    /// threads by definition (`tid`).
    MustSplit,
}

impl fmt::Display for MergeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeClass::MustMerge => write!(f, "must-merge"),
            MergeClass::MayMerge => write!(f, "may-merge"),
            MergeClass::MustSplit => write!(f, "must-split"),
        }
    }
}

/// Aggregate statistics from a successful [`Oracle::check`] replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleReport {
    /// Merge events replayed.
    pub events: usize,
    /// Events at statically must-merge PCs.
    pub must_merge: usize,
    /// Events at statically may-merge PCs (dynamically validated here).
    pub may_merge: usize,
    /// Events that were LVIP-gated multi-execution loads.
    pub lvip_speculative: usize,
}

/// Static per-PC merge classification for one program, plus the replay
/// checker over `mmt_sim` merge logs.
#[derive(Debug, Clone)]
pub struct Oracle {
    program: Program,
    classes: Vec<Option<MergeClass>>,
}

impl Oracle {
    /// Classify every instruction of `prog` under the given memory
    /// sharing model, using the divergence-refined invariance facts
    /// (see [`crate::divergence`]): a register written differently on
    /// the paths of a divergent region no longer counts as invariant at
    /// the reconvergence point, so `MustMerge` here really does mean
    /// "merged threads at this PC always hold equal operands".
    pub fn new(prog: &Program, sharing: MemSharing) -> Oracle {
        Oracle::from_stack(&Stack::new(prog), sharing)
    }

    /// [`Oracle::new`] over an already-built [`Stack`].
    pub fn from_stack(stack: &Stack<'_>, sharing: MemSharing) -> Oracle {
        let prog = stack.program();
        let analysis = stack.divergence(sharing).analysis();
        let classes = prog
            .iter()
            .map(|(pc, inst)| {
                analysis
                    .before(pc)
                    .map(|state| classify(&inst, state, analysis.loads_invariant()))
            })
            .collect();
        Oracle {
            program: prog.clone(),
            classes,
        }
    }

    /// The classification at `pc`; `None` when `pc` is statically
    /// unreachable or outside the program.
    pub fn class_of(&self, pc: u64) -> Option<MergeClass> {
        self.classes.get(pc as usize).copied().flatten()
    }

    /// Per-class counts over all reachable instructions — the static
    /// summary `mmtlint` prints.
    pub fn static_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for class in self.classes.iter().flatten() {
            match class {
                MergeClass::MustMerge => counts.0 += 1,
                MergeClass::MayMerge => counts.1 += 1,
                MergeClass::MustSplit => counts.2 += 1,
            }
        }
        counts
    }

    /// Replay `log` against the program and the static classification.
    ///
    /// Every event must (a) refer to a real, statically reachable PC with
    /// the matching static instruction, (b) not be classified
    /// [`MergeClass::MustSplit`], (c) carry functional records exactly
    /// for its member threads, and (d) have every member
    /// execute-identical to the lead — the paper's criterion for work
    /// that may legally execute once. The first violation aborts the
    /// replay with a description naming the PC.
    pub fn check(&self, log: &[MergeEvent]) -> Result<OracleReport, String> {
        let mut report = OracleReport::default();
        for ev in log {
            let inst = self
                .program
                .fetch(ev.pc)
                .ok_or_else(|| format!("merge event at pc {} outside the program", ev.pc))?;
            if inst != ev.inst {
                return Err(format!(
                    "merge event at pc {} records `{}` but the program holds `{}`",
                    ev.pc, ev.inst, inst
                ));
            }
            let class = self
                .class_of(ev.pc)
                .ok_or_else(|| format!("merged dispatch at statically unreachable pc {}", ev.pc))?;
            if class == MergeClass::MustSplit {
                return Err(format!(
                    "unsound merge at pc {}: `{}` is must-split (thread-dependent by \
                     definition) yet dispatched merged for threads {:?}",
                    ev.pc,
                    ev.inst,
                    ev.itid.threads().collect::<Vec<_>>()
                ));
            }
            if !ev.itid.is_merged() {
                return Err(format!(
                    "merge event at pc {} has fewer than two member threads",
                    ev.pc
                ));
            }
            for t in 0..MAX_THREADS {
                if ev.records[t].is_some() != ev.itid.contains(t) {
                    return Err(format!(
                        "merge event at pc {}: record presence for thread {t} disagrees \
                         with its itid mask {:#06b}",
                        ev.pc,
                        ev.itid.mask()
                    ));
                }
            }
            let lead = ev.itid.lead();
            let lead_rec = ev.records[lead]
                .as_ref()
                .expect("lead is a member, so its record is present");
            for (t, rec) in ev.members() {
                if rec.pc != ev.pc || rec.inst != ev.inst {
                    return Err(format!(
                        "merge event at pc {}: thread {t}'s functional record is for \
                         pc {} `{}`",
                        ev.pc, rec.pc, rec.inst
                    ));
                }
                if !rec.execute_identical(lead_rec) {
                    return Err(format!(
                        "unsound merge at pc {} (`{}`, {class}): thread {t} operands \
                         {:?} loaded {:?} differ from lead thread {lead} operands {:?} \
                         loaded {:?}",
                        ev.pc,
                        ev.inst,
                        rec.srcs(),
                        rec.loaded,
                        lead_rec.srcs(),
                        lead_rec.loaded
                    ));
                }
            }
            report.events += 1;
            match class {
                MergeClass::MustMerge => report.must_merge += 1,
                MergeClass::MayMerge => report.may_merge += 1,
                MergeClass::MustSplit => unreachable!("rejected above"),
            }
            if ev.lvip_speculative {
                report.lvip_speculative += 1;
            }
        }
        Ok(report)
    }
}

/// Classify one instruction given the dataflow state before it. Shared
/// with the static predictor so both always agree per PC.
pub(crate) fn classify(inst: &Inst, state: &State, loads_invariant: bool) -> MergeClass {
    if matches!(inst, Inst::Tid { .. }) {
        return MergeClass::MustSplit;
    }
    let sources_invariant = inst.sources().iter().all(|r| state.get(r).is_invariant());
    if !sources_invariant {
        return MergeClass::MayMerge;
    }
    match inst {
        // Identical addresses still load different values from
        // per-thread (or written-to) memories.
        Inst::Ld { .. } if !loads_invariant => MergeClass::MayMerge,
        _ => MergeClass::MustMerge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_isa::asm::Builder;
    use mmt_isa::Reg;

    fn small_program() -> Program {
        let mut b = Builder::new();
        b.tid(Reg::R1); // 0: must-split
        b.addi(Reg::R2, Reg::R0, 7); // 1: must-merge
        b.alu_add(Reg::R3, Reg::R1, Reg::R2); // 2: may-merge (tid-tainted)
        b.halt(); // 3: must-merge
        b.build().unwrap()
    }

    #[test]
    fn classification_follows_invariance() {
        let o = Oracle::new(&small_program(), MemSharing::Shared);
        assert_eq!(o.class_of(0), Some(MergeClass::MustSplit));
        assert_eq!(o.class_of(1), Some(MergeClass::MustMerge));
        assert_eq!(o.class_of(2), Some(MergeClass::MayMerge));
        assert_eq!(o.class_of(3), Some(MergeClass::MustMerge));
        assert_eq!(o.class_of(99), None);
        assert_eq!(o.static_counts(), (2, 1, 1));
    }

    #[test]
    fn loads_classify_by_sharing_model() {
        let mut b = Builder::new();
        b.addi(Reg::R1, Reg::R0, 5000);
        b.ld(Reg::R2, Reg::R1, 0);
        b.halt();
        let prog = b.build().unwrap();
        let shared = Oracle::new(&prog, MemSharing::Shared);
        assert_eq!(shared.class_of(1), Some(MergeClass::MustMerge));
        let per_thread = Oracle::new(&prog, MemSharing::PerThread);
        assert_eq!(per_thread.class_of(1), Some(MergeClass::MayMerge));
    }

    #[test]
    fn path_dependent_consumers_are_not_must_merge() {
        // R2 ends up 1 or 2 depending on which arm the thread took, so
        // its consumer after the join must not claim a guaranteed merge.
        let mut b = Builder::new();
        let (els, join) = (b.label(), b.label());
        b.tid(Reg::R1); // 0
        b.beq(Reg::R1, Reg::R0, els); // 1
        b.addi(Reg::R2, Reg::R0, 1); // 2
        b.jmp(join); // 3
        b.bind(els);
        b.addi(Reg::R2, Reg::R0, 2); // 4
        b.bind(join);
        b.alu_add(Reg::R4, Reg::R2, Reg::R2); // 5
        b.halt(); // 6
        let o = Oracle::new(&b.build().unwrap(), MemSharing::Shared);
        assert_eq!(
            o.class_of(5),
            Some(MergeClass::MayMerge),
            "divergence refinement drops the invariance claim"
        );
        assert_eq!(
            o.class_of(6),
            Some(MergeClass::MustMerge),
            "halt unaffected"
        );
    }

    #[test]
    fn empty_log_passes() {
        let o = Oracle::new(&small_program(), MemSharing::Shared);
        assert_eq!(o.check(&[]), Ok(OracleReport::default()));
    }
}
