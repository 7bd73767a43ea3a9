//! The program linter: static checks over a [`Program`] built from the
//! CFG and dataflow facts.
//!
//! Severity semantics: an [`Severity::Error`] means the program can
//! misbehave at run time (fall off the end, jump outside the program,
//! clobber reserved memory); a [`Severity::Warning`] flags suspicious but
//! well-defined code (reads of never-written registers, unreachable
//! blocks). "Lint-clean" for the workload generator means *no errors* —
//! warnings are advisory.

use crate::dataflow::Analysis;
use crate::memdep::MemDepAnalysis;
use crate::oracle::{MergeClass, Oracle};
use crate::stack::Stack;
use crate::valueflow::{ValueClass, ValueFlowAnalysis, ValueFlowOptions};
use mmt_isa::reg::NUM_REGS;
use mmt_isa::{Inst, MemSharing, Program};
use std::fmt;

/// Word addresses below this bound are reserved: the workload memory
/// layout places no region there (its shared region starts at word 4096),
/// so a store with a statically-known address in `0..4096` clobbers
/// memory no kernel owns. The constant mirrors
/// `mmt_workloads::spec::layout::SHARED_BASE`; it is duplicated here
/// because the workloads crate dev-depends on this linter, so the linter
/// cannot depend back on it.
pub const RESERVED_WORDS: u64 = 4096;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but well-defined.
    Warning,
    /// Can misbehave at run time.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The kind of defect a [`Lint`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintKind {
    /// The program has no instructions at all.
    EmptyProgram,
    /// A static branch/jump target points outside the program.
    TargetOutOfRange,
    /// Execution can run past the last instruction without a `halt`.
    FallsOffEnd,
    /// A register is read on some path before any instruction writes it.
    ReadBeforeWrite,
    /// A basic block can never execute.
    UnreachableBlock,
    /// A store with a statically-known address hits the reserved
    /// low-memory region (see [`RESERVED_WORDS`]).
    StoreToReservedRegion,
    /// A `jr` with no recorded `jal` return site: the call graph cannot
    /// resolve its target, so the CFG gives it no successors instead of
    /// guessing. Code that is only reachable through such a jump looks
    /// unreachable to every static client.
    UnresolvedIndirectJump,
    /// Two threads can store to the same shared-memory word with no
    /// intervening synchronization (the ISA has none): the final value
    /// depends on thread timing. Only reported by
    /// [`lint_program_with_sharing`] under [`MemSharing::Shared`].
    SharedStoreRace,
    /// A shared-memory store can hit a word another thread reads at a
    /// different PC (or the same one): the loaded value depends on thread
    /// timing. This is how the workloads' spin barriers work, so it is a
    /// warning, not an error. Only reported by
    /// [`lint_program_with_sharing`] under [`MemSharing::Shared`].
    CrossThreadReadWrite,
    /// An SSA definition no instruction ever reads: the write is wasted
    /// work on every thread (writes to `r0` are architecturally
    /// discarded and not reported).
    DeadDef,
    /// The value-flow analysis proves this write thread-identical, but
    /// the structural merge classification is only may-merge: the
    /// pipeline must re-discover the sharing dynamically (operand
    /// comparison or register merging), so the guaranteed redundancy is
    /// lost. A perf lint, not a correctness issue.
    IdenticalValueDemoted,
}

/// One linter finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lint {
    /// The PC the finding anchors to, when it has one.
    pub pc: Option<u64>,
    /// What went wrong.
    pub kind: LintKind,
    /// How bad it is.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
}

impl Lint {
    /// Whether this finding is an [`Severity::Error`].
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pc {
            Some(pc) => write!(f, "{}: pc {pc}: {}", self.severity, self.message),
            None => write!(f, "{}: {}", self.severity, self.message),
        }
    }
}

/// Whether any finding in `lints` is an error.
pub fn has_errors(lints: &[Lint]) -> bool {
    lints.iter().any(Lint::is_error)
}

/// Lint `prog`, returning all findings in ascending PC order.
///
/// The dataflow pass runs with the conservative [`MemSharing::PerThread`]
/// load model: the lints below never depend on load *values*, only on
/// addresses and initialization, so the conservative model is exact for
/// them regardless of how the program is actually run.
pub fn lint_program(prog: &Program) -> Vec<Lint> {
    lint_from_stack(&Stack::new(prog), MemSharing::PerThread)
}

/// [`lint_program_with_sharing`] over an already-built [`Stack`] of the
/// program.
pub fn lint_from_stack(stack: &Stack<'_>, sharing: MemSharing) -> Vec<Lint> {
    let prog = stack.program();
    let insts = prog.as_slice();
    let n = insts.len();
    if n == 0 {
        return vec![Lint {
            pc: None,
            kind: LintKind::EmptyProgram,
            severity: Severity::Error,
            message: "empty program: nothing to execute, no halt".into(),
        }];
    }

    let mut lints = Vec::new();
    for (pc, inst) in insts.iter().enumerate() {
        if let Some(t) = inst.static_target() {
            if t as usize >= n {
                lints.push(Lint {
                    pc: Some(pc as u64),
                    kind: LintKind::TargetOutOfRange,
                    severity: Severity::Error,
                    message: format!(
                        "`{inst}` targets pc {t}, outside the {n}-instruction program"
                    ),
                });
            }
        }
    }

    let cfg = stack.cfg();
    let analysis = Analysis::run(prog, cfg, MemSharing::PerThread);

    for &pc in cfg.unresolved_indirect_jumps() {
        lints.push(Lint {
            pc: Some(pc),
            kind: LintKind::UnresolvedIndirectJump,
            severity: Severity::Warning,
            message: format!(
                "`{}` has no recorded `jal` return site: the call graph cannot \
                 resolve its target, so the CFG records no successors",
                insts[pc as usize]
            ),
        });
    }

    for (b, blk) in cfg.blocks().iter().enumerate() {
        if !cfg.is_reachable(b) {
            lints.push(Lint {
                pc: Some(blk.start),
                kind: LintKind::UnreachableBlock,
                severity: Severity::Warning,
                message: format!(
                    "block at pc {}..{} is unreachable from the entry",
                    blk.start, blk.end
                ),
            });
            continue;
        }
        // Only the final block can end at `n`; falling past it leaves
        // the program (the interpreter faults there).
        if blk.end as usize == n && insts[n - 1].falls_through() {
            lints.push(Lint {
                pc: Some(n as u64 - 1),
                kind: LintKind::FallsOffEnd,
                severity: Severity::Error,
                message: format!(
                    "`{}` can fall through past the end of the program (missing halt?)",
                    insts[n - 1]
                ),
            });
        }
    }

    let mut reported_read = [false; NUM_REGS];
    for (pc, inst) in insts.iter().enumerate() {
        let Some(state) = analysis.before(pc as u64) else {
            continue; // unreachable: already reported above
        };
        for r in inst.sources().iter() {
            if !r.is_zero() && !state.get(r).written() && !reported_read[r.index()] {
                reported_read[r.index()] = true;
                lints.push(Lint {
                    pc: Some(pc as u64),
                    kind: LintKind::ReadBeforeWrite,
                    severity: Severity::Warning,
                    message: format!(
                        "`{inst}` reads {r} which no instruction has written on some path \
                         (reads reset-zero)"
                    ),
                });
            }
        }
        if let Inst::St { base, off, .. } = *inst {
            if let Some(b) = state.get(base).as_const() {
                let addr = b.wrapping_add_signed(off);
                if addr < RESERVED_WORDS {
                    lints.push(Lint {
                        pc: Some(pc as u64),
                        kind: LintKind::StoreToReservedRegion,
                        severity: Severity::Error,
                        message: format!(
                            "`{inst}` stores to word {addr}, inside the reserved region \
                             0..{RESERVED_WORDS}"
                        ),
                    });
                }
            }
        }
    }

    // SSA-backed perf lints. The conservative PerThread model again:
    // neither lint depends on load values beyond what that model proves.
    let vf =
        ValueFlowAnalysis::from_stack(stack, MemSharing::PerThread, ValueFlowOptions::default());
    for (pc, v) in vf.ssa().dead_defs() {
        lints.push(Lint {
            pc: Some(pc),
            kind: LintKind::DeadDef,
            severity: Severity::Warning,
            message: format!(
                "`{}` defines {} but no instruction ever reads this definition",
                insts[pc as usize], v.reg
            ),
        });
    }
    let oracle = Oracle::from_stack(stack, MemSharing::PerThread);
    for info in vf.infos() {
        if info.result == Some(ValueClass::Identical)
            && oracle.class_of(info.pc) == Some(MergeClass::MayMerge)
        {
            lints.push(Lint {
                pc: Some(info.pc),
                kind: LintKind::IdenticalValueDemoted,
                severity: Severity::Warning,
                message: format!(
                    "`{}` writes a provably thread-identical value but is only \
                     may-merge: the pipeline must re-discover the sharing \
                     dynamically",
                    insts[info.pc as usize]
                ),
            });
        }
    }

    if sharing == MemSharing::Shared {
        race_lints(&MemDepAnalysis::from_stack(stack, sharing), &mut lints);
    }
    lints.sort_by_key(|l| l.pc);
    lints
}

/// [`lint_program`] plus the static data-race lint when `sharing` is
/// [`MemSharing::Shared`].
///
/// The race findings come from [`MemDepAnalysis`]: every store whose
/// per-thread address range can overlap another thread's access range is
/// reported — write-write conflicts as [`LintKind::SharedStoreRace`]
/// errors, write-read conflicts as [`LintKind::CrossThreadReadWrite`]
/// warnings (the workloads' spin barriers are exactly such a pair, and
/// they are correct). Under [`MemSharing::PerThread`] memories cannot
/// race by construction and the result equals [`lint_program`].
pub fn lint_program_with_sharing(prog: &Program, sharing: MemSharing) -> Vec<Lint> {
    lint_from_stack(&Stack::new(prog), sharing)
}

/// The data-race lints of `mem`'s race candidates.
fn race_lints(mem: &MemDepAnalysis, lints: &mut Vec<Lint>) {
    for race in mem.races() {
        let div = if race.divergent {
            " in a divergent region"
        } else {
            ""
        };
        if race.other_is_store {
            lints.push(Lint {
                pc: Some(race.store_pc),
                kind: LintKind::SharedStoreRace,
                severity: Severity::Error,
                message: format!(
                    "store can collide with another thread's store at pc {}{div}: \
                     the final value depends on thread timing",
                    race.other_pc
                ),
            });
        } else {
            lints.push(Lint {
                pc: Some(race.store_pc),
                kind: LintKind::CrossThreadReadWrite,
                severity: Severity::Warning,
                message: format!(
                    "store can hit a word another thread loads at pc {}{div}: \
                     the loaded value depends on thread timing",
                    race.other_pc
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_isa::asm::Builder;
    use mmt_isa::Reg;

    fn kinds(lints: &[Lint]) -> Vec<LintKind> {
        lints.iter().map(|l| l.kind).collect()
    }

    #[test]
    fn clean_program_has_no_findings() {
        let mut b = Builder::new();
        b.addi(Reg::R1, Reg::R0, 3);
        b.alu_add(Reg::R2, Reg::R1, Reg::R1);
        b.li(Reg::R3, RESERVED_WORDS as i64);
        b.st(Reg::R2, Reg::R3, 0); // every definition is used
        b.halt();
        assert!(lint_program(&b.build().unwrap()).is_empty());
    }

    #[test]
    fn dead_def_is_a_warning() {
        let mut b = Builder::new();
        b.addi(Reg::R1, Reg::R0, 3); // never read
        b.halt();
        let lints = lint_program(&b.build().unwrap());
        assert_eq!(kinds(&lints), vec![LintKind::DeadDef]);
        assert!(!has_errors(&lints));
    }

    #[test]
    fn identical_value_demoted_is_flagged() {
        let mut b = Builder::new();
        b.tid(Reg::R1);
        // r1 - r1 is 0 in every thread, but structurally the sources are
        // thread-dependent, so the static class is only may-merge.
        b.alu(mmt_isa::AluOp::Sub, Reg::R2, Reg::R1, Reg::R1);
        b.li(Reg::R3, RESERVED_WORDS as i64);
        b.st(Reg::R2, Reg::R3, 0);
        b.halt();
        let lints = lint_program(&b.build().unwrap());
        assert!(
            lints
                .iter()
                .any(|l| l.kind == LintKind::IdenticalValueDemoted && l.pc == Some(1)),
            "{lints:?}"
        );
        assert!(!has_errors(&lints));
    }

    #[test]
    fn empty_program_is_an_error() {
        let lints = lint_program(&Program::from_insts(Vec::new()));
        assert_eq!(kinds(&lints), vec![LintKind::EmptyProgram]);
        assert!(has_errors(&lints));
    }

    #[test]
    fn out_of_range_target_is_flagged() {
        let prog = Program::from_insts(vec![Inst::Jmp { target: 99 }, Inst::Halt]);
        let lints = lint_program(&prog);
        assert!(kinds(&lints).contains(&LintKind::TargetOutOfRange));
        assert!(has_errors(&lints));
    }

    #[test]
    fn missing_halt_is_flagged() {
        let mut b = Builder::new();
        b.addi(Reg::R1, Reg::R0, 1);
        let lints = lint_program(&b.build().unwrap());
        // The unread r1 is also a dead def.
        assert_eq!(
            kinds(&lints),
            vec![LintKind::FallsOffEnd, LintKind::DeadDef]
        );
    }

    #[test]
    fn branch_at_end_can_still_fall_off() {
        let mut b = Builder::new();
        let top = b.label();
        b.bind(top);
        b.addi(Reg::R1, Reg::R1, 1);
        b.bne(Reg::R1, Reg::R0, top); // not-taken path exits the program
        let lints = lint_program(&b.build().unwrap());
        assert!(kinds(&lints).contains(&LintKind::FallsOffEnd));
    }

    #[test]
    fn read_before_write_is_a_warning_not_an_error() {
        let mut b = Builder::new();
        b.alu_add(Reg::R2, Reg::R1, Reg::R1); // r1 never written
        b.halt();
        let lints = lint_program(&b.build().unwrap());
        // The unread r2 is also a dead def.
        assert_eq!(
            kinds(&lints),
            vec![LintKind::ReadBeforeWrite, LintKind::DeadDef]
        );
        assert!(!has_errors(&lints));
    }

    #[test]
    fn write_on_one_path_only_still_warns() {
        let mut b = Builder::new();
        let (els, join) = (b.label(), b.label());
        b.tid(Reg::R1);
        b.beq(Reg::R1, Reg::R0, els);
        b.addi(Reg::R2, Reg::R0, 1);
        b.bind(els);
        b.bind(join);
        b.alu_add(Reg::R3, Reg::R2, Reg::R2); // r2 unwritten when branch taken
        b.halt();
        let lints = lint_program(&b.build().unwrap());
        assert!(kinds(&lints).contains(&LintKind::ReadBeforeWrite));
    }

    #[test]
    fn store_to_reserved_region_is_an_error() {
        let mut b = Builder::new();
        b.addi(Reg::R1, Reg::R0, 100); // constant address, below 4096
        b.st(Reg::R0, Reg::R1, 8);
        b.halt();
        let lints = lint_program(&b.build().unwrap());
        assert!(kinds(&lints).contains(&LintKind::StoreToReservedRegion));
        assert!(has_errors(&lints));

        // Same store at a legal constant address is clean.
        let mut b = Builder::new();
        b.li(Reg::R1, RESERVED_WORDS as i64);
        b.st(Reg::R0, Reg::R1, 8);
        b.halt();
        assert!(!has_errors(&lint_program(&b.build().unwrap())));
    }

    #[test]
    fn unreachable_block_is_a_warning() {
        let mut b = Builder::new();
        let out = b.label();
        b.jmp(out);
        b.addi(Reg::R1, Reg::R0, 1);
        b.bind(out);
        b.halt();
        let lints = lint_program(&b.build().unwrap());
        assert_eq!(kinds(&lints), vec![LintKind::UnreachableBlock]);
        assert!(!has_errors(&lints));
    }

    #[test]
    fn unresolved_jr_is_a_warning_not_an_error() {
        let mut b = Builder::new();
        b.addi(Reg::Ra, Reg::R0, 0);
        b.jr(Reg::Ra); // no jal anywhere
        let lints = lint_program(&b.build().unwrap());
        assert!(kinds(&lints).contains(&LintKind::UnresolvedIndirectJump));
        assert!(!has_errors(&lints));

        // A call-disciplined jr is resolved and clean.
        let mut b = Builder::new();
        let func = b.label();
        b.jal(Reg::Ra, func);
        b.halt();
        b.bind(func);
        b.jr(Reg::Ra);
        let lints = lint_program(&b.build().unwrap());
        assert!(!kinds(&lints).contains(&LintKind::UnresolvedIndirectJump));
    }

    #[test]
    fn shared_store_race_is_an_error() {
        // Two threads store to the same constant shared word.
        let mut b = Builder::new();
        b.li(Reg::R1, RESERVED_WORDS as i64);
        b.st(Reg::R0, Reg::R1, 0);
        b.halt();
        let prog = b.build().unwrap();
        let lints = lint_program_with_sharing(&prog, MemSharing::Shared);
        assert!(kinds(&lints).contains(&LintKind::SharedStoreRace));
        assert!(has_errors(&lints));
        // Per-thread memories: same program, no race possible.
        let lints = lint_program_with_sharing(&prog, MemSharing::PerThread);
        assert_eq!(lints, lint_program(&prog));
    }

    #[test]
    fn tid_strided_stores_are_race_clean() {
        let mut b = Builder::new();
        b.tid(Reg::R1);
        b.li(Reg::R2, 4480);
        b.alu(mmt_isa::AluOp::Mul, Reg::R2, Reg::R1, Reg::R2);
        b.li(Reg::R3, 262144);
        b.alu_add(Reg::R3, Reg::R3, Reg::R2);
        b.st(Reg::R0, Reg::R3, 0);
        b.halt();
        let lints = lint_program_with_sharing(&b.build().unwrap(), MemSharing::Shared);
        assert!(!kinds(&lints).contains(&LintKind::SharedStoreRace));
        assert!(!kinds(&lints).contains(&LintKind::CrossThreadReadWrite));
    }

    #[test]
    fn cross_thread_read_write_is_a_warning() {
        // Store to my slot, load a fixed slot another thread owns.
        let mut b = Builder::new();
        b.tid(Reg::R1);
        b.li(Reg::R2, 524288);
        b.alu_add(Reg::R2, Reg::R2, Reg::R1);
        b.st(Reg::R0, Reg::R2, 0);
        b.li(Reg::R3, 524289);
        b.ld(Reg::R4, Reg::R3, 0);
        b.halt();
        let lints = lint_program_with_sharing(&b.build().unwrap(), MemSharing::Shared);
        assert!(kinds(&lints).contains(&LintKind::CrossThreadReadWrite));
        assert!(!has_errors(&lints));
    }

    #[test]
    fn display_includes_severity_and_pc() {
        let prog = Program::from_insts(vec![Inst::Jmp { target: 99 }, Inst::Halt]);
        let lints = lint_program(&prog);
        let text = lints[0].to_string();
        assert!(text.starts_with("error: pc 0:"), "{text}");
    }
}
