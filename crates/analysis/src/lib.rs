//! # mmt-analysis — static analysis and differential checking for MMT
//!
//! Six layers over the shared [`mmt_isa::Program`] representation:
//!
//! 1. [`callgraph`] + [`mod@cfg`] + [`dataflow`] — interprocedural call
//!    graph (`jal`/`jr` return-site summaries), basic-block CFG
//!    construction, and the crate's one abstract domain: per register
//!    and program point, a [`Fact`] `konst ⊞ coef·tid ⊞ residue` (an
//!    interval-bounded residue with a thread-invariance flag) plus
//!    `written` and `loaded` bits, computed by one transfer, one join
//!    and one fixpoint driver. Every client below reads one of its three
//!    projections: [`Invariance`], [`ValueClass`] or [`AccessClass`].
//! 2. [`structure`] + [`divergence`] — dominator and post-dominator
//!    trees, natural-loop detection, and the divergence analysis:
//!    every branch is classified thread-invariant or divergent, and
//!    registers written inside a divergent region lose their invariance
//!    claim at the reconvergence point (the branch's immediate
//!    post-dominator). Its outer loop runs the [`dataflow`] driver.
//! 3. [`lint`] — a program linter built on those facts: out-of-range
//!    branch targets, falling off the end without `halt`, unreachable
//!    blocks, reads of never-written registers, stores into the reserved
//!    low-memory region, unresolvable indirect jumps.
//! 4. [`memdep`] — the [`AccessClass`] projection at every load/store:
//!    thread-**invariant**, **tid-private** (affine in the thread id
//!    with disjoint per-thread ranges), or **shared/unknown**, and
//!    shared-memory programs get a static data-race candidate list
//!    consumed by the lint layer ([`lint_program_with_sharing`]) and
//!    validated differentially by `mmtgate --check mem`.
//! 5. [`oracle`] + [`mod@predict`] — the differential redundancy oracle: a
//!    static must-merge / may-merge / must-split classification of every
//!    instruction, and [`Oracle::check`], which replays the simulator's
//!    merge log (`mmt_sim` with `record_merge_log`) and independently
//!    verifies that every dynamic merge was between execute-identical
//!    instructions. The timing model is oracle-functional, so an unsound
//!    merge cannot corrupt architected results — this replay is what
//!    makes such a bug loud instead of silent. [`predict()`] turns the
//!    same facts into per-program savings predictions with guaranteed
//!    bounds, validated dynamically by `mmtgate --check predict`.
//! 6. [`ssa`] + [`valueflow`] — SSA construction over the CFG/dominator
//!    infrastructure, and the thread-parametric value-flow analysis:
//!    every SSA value gets the [`ValueClass`] projection of its fact
//!    (Identical / AffineTid / ThreadDependent / Top), a static model of
//!    the Register Sharing Table brackets every PC's exec-merge fraction
//!    (guaranteed-merge and never-merge claims), and the result tightens
//!    the LVIP value-identity brackets ([`predict_lvip`]). Validated
//!    dynamically by `mmtgate --check value` against the simulator's
//!    per-PC profile.
//!
//! Every client reads one [`Stack`] per program: the CFG, the dominator
//! trees, the loop forest and one divergence fixpoint per load model,
//! built once and shared through the clients' `from_stack` constructors.
//!
//! ## Example
//!
//! ```
//! use mmt_analysis::{has_errors, lint_program, Cfg, Invariance, MergeClass, Oracle};
//! use mmt_isa::{asm::Builder, MemSharing, Reg};
//!
//! let mut b = Builder::new();
//! b.tid(Reg::R1);                      // thread-dependent by definition
//! b.addi(Reg::R2, Reg::R0, 7);         // invariant constant
//! b.alu_add(Reg::R3, Reg::R1, Reg::R2);
//! b.halt();
//! let prog = b.build()?;
//!
//! // r3 is never read, so the linter reports a dead-def warning — but
//! // nothing error-severity.
//! assert!(!has_errors(&lint_program(&prog)));
//! assert_eq!(Cfg::build(&prog).blocks().len(), 1);
//!
//! let oracle = Oracle::new(&prog, MemSharing::Shared);
//! assert_eq!(oracle.class_of(0), Some(MergeClass::MustSplit));
//! assert_eq!(oracle.class_of(1), Some(MergeClass::MustMerge));
//! assert_eq!(oracle.class_of(2), Some(MergeClass::MayMerge));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod divergence;
pub mod lint;
pub mod memdep;
pub mod oracle;
pub mod predict;
pub mod ssa;
pub mod stack;
pub mod structure;
pub mod valueflow;

pub use callgraph::{CallGraph, Function};
pub use cfg::{BasicBlock, Cfg};
pub use dataflow::{Analysis, Fact, Invariance, State};
pub use divergence::{BranchClass, DivergenceAnalysis, DivergencePoint};
pub use lint::{
    has_errors, lint_from_stack, lint_program, lint_program_with_sharing, Lint, LintKind, Severity,
};
pub use memdep::{AccessClass, MemAccess, MemDepAnalysis, RacePair};
pub use oracle::{MergeClass, Oracle, OracleReport};
pub use predict::{
    predict, predict_from_stack, predict_lvip, predict_lvip_with, LvipBracket, LvipPrediction,
    Prediction,
};
pub use ssa::{DefSite, Phi, Ssa, SsaValue, UseSite, ValueId};
pub use stack::Stack;
pub use structure::{DomTree, LoopForest, NaturalLoop, PostDomTree};
pub use valueflow::{
    MergeBracket, PcValueFlow, ValueClass, ValueFlowAnalysis, ValueFlowOptions, ValueFlowSummary,
};
