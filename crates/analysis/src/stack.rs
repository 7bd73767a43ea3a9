//! One program's static stack, built once and read by every client:
//! `Oracle`, `predict`, `MemDepAnalysis`, `ValueFlowAnalysis` and the
//! linter all read its CFG, dominator trees, loop forest and divergence
//! fixpoint. The fixpoint depends on the program only through its load
//! model (whether loads are thread-invariant: a store-free program over
//! shared memory), so a [`Stack`] runs it at most once per load model,
//! on first use. Each client's `new`/`run` builds a fresh stack; a
//! caller that needs several clients builds one and hands it to their
//! `from_stack` constructors.

use crate::cfg::Cfg;
use crate::dataflow::loads_invariant;
use crate::divergence::DivergenceAnalysis;
use crate::structure::{DomTree, LoopForest, PostDomTree};
use mmt_isa::{MemSharing, Program};
use std::cell::OnceCell;

/// The shared static structures of one program. See the module docs.
#[derive(Debug)]
pub struct Stack<'p> {
    prog: &'p Program,
    cfg: Cfg,
    dom: DomTree,
    pdom: PostDomTree,
    loops: LoopForest,
    /// The divergence fixpoint, indexed by the load model.
    divergence: [OnceCell<DivergenceAnalysis>; 2],
}

impl<'p> Stack<'p> {
    /// Build the CFG, dominator trees and loop forest of `prog`; the
    /// divergence fixpoint waits for its first reader.
    pub fn new(prog: &'p Program) -> Stack<'p> {
        let cfg = Cfg::build(prog);
        let dom = DomTree::dominators(&cfg);
        let pdom = PostDomTree::build(&cfg);
        let loops = LoopForest::find(&cfg, &dom);
        Stack {
            prog,
            cfg,
            dom,
            pdom,
            loops,
            divergence: Default::default(),
        }
    }

    /// The analysed program.
    pub fn program(&self) -> &'p Program {
        self.prog
    }

    /// The control-flow graph.
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// The dominator tree.
    pub fn dom(&self) -> &DomTree {
        &self.dom
    }

    /// The natural-loop forest.
    pub fn loops(&self) -> &LoopForest {
        &self.loops
    }

    /// The divergence fixpoint under `sharing`'s load model, run on the
    /// first call for that model.
    pub fn divergence(&self, sharing: MemSharing) -> &DivergenceAnalysis {
        self.divergence[usize::from(loads_invariant(self.prog, sharing))]
            .get_or_init(|| DivergenceAnalysis::run(self.prog, &self.cfg, &self.pdom, sharing))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_isa::asm::Builder;
    use mmt_isa::Reg;

    #[test]
    fn one_fixpoint_per_load_model() {
        let mut b = Builder::new();
        b.ld(Reg::R1, Reg::R0, 4096);
        b.halt();
        let prog = b.build().unwrap();
        let stack = Stack::new(&prog);
        // Store-free over shared memory: invariant loads, a second model.
        let shared = stack.divergence(MemSharing::Shared);
        assert!(shared.analysis().loads_invariant());
        assert!(!stack
            .divergence(MemSharing::PerThread)
            .analysis()
            .loads_invariant());
        assert!(std::ptr::eq(shared, stack.divergence(MemSharing::Shared)));
    }
}
