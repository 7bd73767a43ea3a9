//! Divergence analysis: which control transfers can send lockstep
//! threads down different paths, where they must reconverge, and how
//! that feeds back into the abstract domain ([`crate::dataflow`]).
//!
//! ## Classification
//!
//! A conditional branch is [`BranchClass::Divergent`] when its condition
//! registers are not provably thread-invariant (so two merged threads
//! can evaluate it differently) *and* its block has at least two
//! distinct successors (otherwise there is nothing to diverge to). A
//! `jr` is divergent under the same rule applied to its target register.
//! `jmp`/`jal` are always [`BranchClass::Uniform`]: every thread takes
//! the one edge.
//!
//! ## Reconvergence and refinement
//!
//! The immediate post-dominator of a divergent branch's block is its
//! static reconvergence point: the first block every diverged thread
//! reaches again (the paper's remerge target for the FHB search). The
//! *divergence region* is everything reachable from the branch's
//! successors without passing through that point. Registers written
//! inside the region are path-dependent at any control-flow join where
//! diverged threads can meet again — the reconvergence block itself and
//! every multi-predecessor block inside the region (two distinct paths
//! first meet at a block with two predecessors) — so the plain
//! fixpoint's `Invariant` claim is unsound there. The analysis therefore
//! demotes those registers at those blocks (via
//! [`Analysis::run_with_demotions`]) unless their value is pinned (the
//! same exact `konst ⊞ coef·tid` on every path), and iterates: demotion
//! can make more branches divergent, which can add demotions. Demotion
//! masks only grow, so the outer fixpoint terminates.
//!
//! The result is the refined [`Analysis`] the merge oracle, the static
//! predictor, the memory analysis and value flow all build on:
//! `Invariant` now really means "equal across threads whenever they are
//! merged at this PC", including threads that remerged after taking
//! different paths.

use crate::cfg::Cfg;
use crate::dataflow::{loads_invariant, Analysis, State};
use crate::structure::PostDomTree;
use mmt_isa::{Inst, MemSharing, Program};

/// Static classification of one control transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchClass {
    /// All lockstep threads take the same direction.
    Uniform,
    /// Merged threads may take different directions.
    Divergent,
}

/// One divergent control transfer and its static reconvergence point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DivergencePoint {
    /// PC of the divergent branch (always its block's last instruction).
    pub pc: u64,
    /// Block containing the branch.
    pub block: usize,
    /// Immediate post-dominator of the branch's block — the earliest
    /// block every diverged thread must reach again. `None` when control
    /// reconverges only at program exit (the region is then everything
    /// reachable from the branch's successors).
    pub reconverge: Option<usize>,
}

/// Result of the divergence fixpoint. See the module docs.
#[derive(Debug, Clone)]
pub struct DivergenceAnalysis {
    analysis: Analysis,
    classes: Vec<Option<BranchClass>>,
    points: Vec<DivergencePoint>,
    demote: Vec<u32>,
    rounds: usize,
}

impl DivergenceAnalysis {
    /// Run the divergence-refined analysis to its outer fixpoint.
    pub fn run(
        prog: &Program,
        cfg: &Cfg,
        pdom: &PostDomTree,
        sharing: MemSharing,
    ) -> DivergenceAnalysis {
        let insts = prog.as_slice();
        let nb = cfg.blocks().len();
        let loads = loads_invariant(prog, sharing);
        let mut demote = vec![0u32; nb];
        let mut rounds = 0;
        loop {
            rounds += 1;
            let analysis = Analysis::run_with_demotions(prog, cfg, loads, &demote);
            let (classes, points) = classify_branches(insts, cfg, pdom, &analysis);

            let mut grew = false;
            for p in &points {
                let region = region_blocks(cfg, p.block, p.reconverge);
                let mask = written_mask(insts, cfg, &region);
                if mask == 0 {
                    continue;
                }
                for &b in &region {
                    if cfg.blocks()[b].preds.len() >= 2 && demote[b] | mask != demote[b] {
                        demote[b] |= mask;
                        grew = true;
                    }
                }
                if let Some(j) = p.reconverge {
                    if demote[j] | mask != demote[j] {
                        demote[j] |= mask;
                        grew = true;
                    }
                }
            }
            if !grew {
                return DivergenceAnalysis {
                    analysis,
                    classes,
                    points,
                    demote,
                    rounds,
                };
            }
        }
    }

    /// The refined dataflow result (demotions applied).
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// Classification of the control transfer at `pc`: `Some` for every
    /// reachable branch/jump instruction, `None` elsewhere.
    pub fn class_of(&self, pc: u64) -> Option<BranchClass> {
        self.classes.get(pc as usize).copied().flatten()
    }

    /// Every divergent control transfer, in ascending PC order, with its
    /// reconvergence block.
    pub fn divergence_points(&self) -> &[DivergencePoint] {
        &self.points
    }

    /// `(uniform, divergent)` counts over reachable control transfers.
    pub fn branch_counts(&self) -> (usize, usize) {
        let mut counts = (0, 0);
        for c in self.classes.iter().flatten() {
            match c {
                BranchClass::Uniform => counts.0 += 1,
                BranchClass::Divergent => counts.1 += 1,
            }
        }
        counts
    }

    /// The per-block entry demotion masks the fixpoint settled on
    /// (diagnostic; indexed by block).
    pub fn demotions(&self) -> &[u32] {
        &self.demote
    }

    /// Outer fixpoint iterations taken (≥ 1).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Per block: inside some divergence region (between a divergent
    /// branch and its reconvergence point), so threads may reach it at
    /// different times.
    pub fn in_region(&self, cfg: &Cfg) -> Vec<bool> {
        let mut inside = vec![false; cfg.blocks().len()];
        for p in &self.points {
            for b in region_blocks(cfg, p.block, p.reconverge) {
                inside[b] = true;
            }
        }
        inside
    }

    /// Per block: reachable from some divergent branch's successors, so
    /// it may execute after a divergence (with a partial thread group).
    pub fn tainted(&self, cfg: &Cfg) -> Vec<bool> {
        let mut tainted = vec![false; cfg.blocks().len()];
        let mut stack: Vec<usize> = Vec::new();
        for p in &self.points {
            stack.extend(cfg.blocks()[p.block].succs.iter().copied());
        }
        while let Some(b) = stack.pop() {
            if !std::mem::replace(&mut tainted[b], true) {
                stack.extend(cfg.blocks()[b].succs.iter().copied());
            }
        }
        tainted
    }
}

/// Classify every reachable control transfer and collect the divergent
/// ones with their reconvergence points.
fn classify_branches(
    insts: &[Inst],
    cfg: &Cfg,
    pdom: &PostDomTree,
    analysis: &Analysis,
) -> (Vec<Option<BranchClass>>, Vec<DivergencePoint>) {
    let mut classes: Vec<Option<BranchClass>> = vec![None; insts.len()];
    let mut points = Vec::new();
    for (pc, inst) in insts.iter().enumerate() {
        if !inst.is_control() {
            continue;
        }
        let Some(state) = analysis.before(pc as u64) else {
            continue; // unreachable
        };
        let block = cfg
            .block_of(pc as u64)
            .expect("analyzed PCs are in the program");
        let multi_way = cfg.blocks()[block].succs.len() >= 2;
        let class = match inst {
            Inst::Br { .. } | Inst::Jr { .. } if multi_way && !sources_invariant(inst, state) => {
                BranchClass::Divergent
            }
            _ => BranchClass::Uniform,
        };
        classes[pc] = Some(class);
        if class == BranchClass::Divergent {
            points.push(DivergencePoint {
                pc: pc as u64,
                block,
                reconverge: pdom.ipdom(block),
            });
        }
    }
    (classes, points)
}

fn sources_invariant(inst: &Inst, state: &State) -> bool {
    inst.sources().iter().all(|r| state.get(r).is_invariant())
}

/// Blocks reachable from `block`'s successors without passing through
/// `stop` (the divergence region). With `stop == None` the region is
/// everything reachable from the successors.
fn region_blocks(cfg: &Cfg, block: usize, stop: Option<usize>) -> Vec<usize> {
    let nb = cfg.blocks().len();
    let mut seen = vec![false; nb];
    let mut stack: Vec<usize> = cfg.blocks()[block].succs.clone();
    let mut region = Vec::new();
    while let Some(b) = stack.pop() {
        if Some(b) == stop || std::mem::replace(&mut seen[b], true) {
            continue;
        }
        region.push(b);
        stack.extend(cfg.blocks()[b].succs.iter().copied());
    }
    region.sort_unstable();
    region
}

/// Bitmask of registers written by any instruction in `blocks` (the
/// hardwired zero register never counts).
fn written_mask(insts: &[Inst], cfg: &Cfg, blocks: &[usize]) -> u32 {
    let mut mask = 0u32;
    for &b in blocks {
        for pc in cfg.blocks()[b].pcs() {
            if let Some(rd) = insts[pc as usize].dest() {
                if !rd.is_zero() {
                    mask |= 1u32 << rd.index();
                }
            }
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::Invariance;
    use crate::structure::PostDomTree;
    use mmt_isa::asm::Builder;
    use mmt_isa::Reg;

    fn run(b: Builder, sharing: MemSharing) -> (Program, Cfg, DivergenceAnalysis) {
        let prog = b.build().unwrap();
        let cfg = Cfg::build(&prog);
        let pdom = PostDomTree::build(&cfg);
        let div = DivergenceAnalysis::run(&prog, &cfg, &pdom, sharing);
        (prog, cfg, div)
    }

    #[test]
    fn invariant_branches_are_uniform() {
        let mut b = Builder::new();
        let (top, _out) = (b.label(), b.label());
        b.addi(Reg::R1, Reg::R0, 3); // 0
        b.bind(top);
        b.addi(Reg::R1, Reg::R1, -1); // 1
        b.bne(Reg::R1, Reg::R0, top); // 2
        b.halt(); // 3
        let (_, _, div) = run(b, MemSharing::Shared);
        assert_eq!(div.class_of(2), Some(BranchClass::Uniform));
        assert!(div.divergence_points().is_empty());
        assert_eq!(div.branch_counts(), (1, 0));
        assert_eq!(div.rounds(), 1, "no demotions: one round suffices");
    }

    #[test]
    fn tid_conditions_are_divergent_with_reconvergence_point() {
        let mut b = Builder::new();
        let (els, join) = (b.label(), b.label());
        b.tid(Reg::R1); // 0
        b.beq(Reg::R1, Reg::R0, els); // 1: divergent
        b.addi(Reg::R2, Reg::R0, 1); // 2
        b.jmp(join); // 3
        b.bind(els);
        b.addi(Reg::R2, Reg::R0, 2); // 4
        b.bind(join);
        b.halt(); // 5
        let (_, cfg, div) = run(b, MemSharing::Shared);
        assert_eq!(div.class_of(1), Some(BranchClass::Divergent));
        let p = div.divergence_points()[0];
        assert_eq!(p.pc, 1);
        assert_eq!(p.reconverge, cfg.block_of(5), "join block reconverges");
        assert!(div.rounds() >= 2, "demotion forced a re-run");
    }

    #[test]
    fn region_written_registers_lose_invariance_at_the_join() {
        let mut b = Builder::new();
        let (els, join) = (b.label(), b.label());
        b.tid(Reg::R1); // 0
        b.beq(Reg::R1, Reg::R0, els); // 1
        b.addi(Reg::R2, Reg::R0, 1); // 2: R2 := 1 on this path
        b.addi(Reg::R3, Reg::R0, 5); // 3: R3 := 5 on this path
        b.jmp(join); // 4
        b.bind(els);
        b.addi(Reg::R2, Reg::R0, 2); // 5: R2 := 2 on that path
        b.addi(Reg::R3, Reg::R0, 5); // 6: R3 := 5 on that path too
        b.bind(join);
        b.alu_add(Reg::R4, Reg::R2, Reg::R2); // 7: consumes path-dependent R2
        b.alu_add(Reg::R5, Reg::R3, Reg::R3); // 8: consumes agreed-constant R3
        b.halt(); // 9
        let (_, _, div) = run(b, MemSharing::Shared);
        let s = div.analysis().before(7).unwrap();
        assert_eq!(
            s.get(Reg::R2).invariance(),
            Invariance::ThreadDependent,
            "written differently per path of a divergent region"
        );
        assert_eq!(
            s.get(Reg::R3).invariance(),
            Invariance::Invariant,
            "same constant on every path stays invariant"
        );
        // The consumer of R2 is thread-dependent too.
        assert_eq!(
            div.analysis().before(9).unwrap().get(Reg::R4).invariance(),
            Invariance::ThreadDependent
        );
        assert_eq!(
            div.analysis().before(9).unwrap().get(Reg::R5).invariance(),
            Invariance::Invariant
        );
    }

    #[test]
    fn demotion_cascades_into_secondary_divergence() {
        // A branch on a register that is only path-dependent (both arms
        // write invariant constants): the base lattice calls it uniform;
        // the refinement must find it divergent on the second round.
        let mut b = Builder::new();
        let (els, join, out) = (b.label(), b.label(), b.label());
        b.tid(Reg::R1); // 0
        b.beq(Reg::R1, Reg::R0, els); // 1: primary divergence
        b.addi(Reg::R2, Reg::R0, 1); // 2
        b.jmp(join); // 3
        b.bind(els);
        b.addi(Reg::R2, Reg::R0, 2); // 4
        b.bind(join);
        b.beq(Reg::R2, Reg::R0, out); // 5: secondary — on path-dependent R2
        b.addi(Reg::R3, Reg::R0, 1); // 6
        b.bind(out);
        b.halt(); // 7
        let (_, _, div) = run(b, MemSharing::Shared);
        assert_eq!(div.class_of(1), Some(BranchClass::Divergent));
        assert_eq!(
            div.class_of(5),
            Some(BranchClass::Divergent),
            "branch on region-written register diverges too"
        );
        assert_eq!(div.divergence_points().len(), 2);
    }

    #[test]
    fn uniform_programs_have_untouched_analysis() {
        let mut b = Builder::new();
        b.tid(Reg::R1); // thread-dependent data, but no control on it
        b.addi(Reg::R2, Reg::R0, 7);
        b.halt();
        let (_, _, div) = run(b, MemSharing::Shared);
        assert!(div.divergence_points().is_empty());
        assert!(div.demotions().iter().all(|&m| m == 0));
        assert_eq!(
            div.analysis().before(2).unwrap().get(Reg::R2).as_const(),
            Some(7)
        );
    }
}
