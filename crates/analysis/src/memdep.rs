//! Static memory divergence analysis: every load/store PC's effective
//! address, read off the one abstract domain ([`crate::dataflow`]).
//!
//! ## Classification
//!
//! Every reachable load/store PC gets an [`AccessClass`], the
//! [`Fact::access_class`] projection of its address fact
//! `konst ⊞ coef·t ⊞ r`:
//!
//! * [`AccessClass::Invariant`] — `coef = 0` and the residue is
//!   thread-invariant: all lockstep threads compute the *same* address.
//! * [`AccessClass::TidPrivate`] — `coef = c ≠ 0` and either the residue
//!   is thread-invariant or its span is smaller than `|c|`: distinct
//!   threads always touch *disjoint* addresses.
//! * [`AccessClass::Shared`] — anything else, with interval bounds over
//!   all threads when the analysis has them.
//!
//! ## Soundness
//!
//! The facts are the divergence-refined ones
//! ([`crate::DivergenceAnalysis::analysis`]): a register written
//! differently on the paths of a divergent region has lost its `inv`
//! claim unless its value is pinned. The tid-disjointness test carries
//! an explicit magnitude guard so `u64` address wrap-around cannot alias
//! two "disjoint" threads. The claims are validated differentially by
//! `mmtgate --check mem` (crates/bench): a per-PC address profile from
//! the pipeline plus an interleaved functional execution must never
//! contradict a static `Invariant`/`TidPrivate` classification.
//!
//! On top of the classification, [`MemDepAnalysis::races`] reports static
//! data-race candidates for shared-memory programs: a store whose
//! per-thread address range can overlap another thread's access range
//! with no intervening synchronization (the ISA has none — barriers are
//! spin loops the analysis sees as plain loads/stores).

use crate::dataflow::Fact;
use crate::stack::Stack;
use mmt_isa::{Inst, MemSharing, Program, MAX_THREADS};
use std::fmt;

/// Static classification of one memory-access PC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessClass {
    /// All lockstep threads compute the same effective address.
    Invariant,
    /// Distinct threads always touch disjoint addresses, `stride` words
    /// apart per thread id.
    TidPrivate {
        /// Words between consecutive thread ids' address ranges.
        stride: i64,
    },
    /// Possibly shared between threads (or simply unknown).
    Shared {
        /// Inclusive word-address bounds over all threads, when known.
        bounds: Option<(u64, u64)>,
    },
}

impl fmt::Display for AccessClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessClass::Invariant => write!(f, "invariant"),
            AccessClass::TidPrivate { stride } => write!(f, "tid-private(stride {stride})"),
            AccessClass::Shared {
                bounds: Some((l, h)),
            } => write!(f, "shared[{l}..={h}]"),
            AccessClass::Shared { bounds: None } => write!(f, "shared(unbounded)"),
        }
    }
}

/// One statically-classified memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// PC of the load/store.
    pub pc: u64,
    /// True for a store.
    pub is_store: bool,
    /// Address classification.
    pub class: AccessClass,
    /// The access sits inside some divergence region (between a divergent
    /// branch and its reconvergence point), so threads may reach it at
    /// different times.
    pub in_divergent_region: bool,
    fact: Fact,
}

impl MemAccess {
    /// Inclusive word-address range thread `t` may touch at this PC, or
    /// `None` when unbounded.
    pub fn thread_range(&self, t: usize) -> Option<(u64, u64)> {
        self.fact.thread_range(t)
    }
}

/// A static data-race candidate: `store_pc`'s store in one thread can
/// touch a word another thread accesses at `other_pc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RacePair {
    /// PC of the store.
    pub store_pc: u64,
    /// PC of the conflicting access (may equal `store_pc`: two threads
    /// executing the same store can collide).
    pub other_pc: u64,
    /// Whether the conflicting access is also a store (write-write).
    pub other_is_store: bool,
    /// Either endpoint sits inside a divergence region.
    pub divergent: bool,
}

/// Result of the memory divergence analysis. See the module docs.
#[derive(Debug, Clone)]
pub struct MemDepAnalysis {
    accesses: Vec<MemAccess>,
    index: Vec<Option<usize>>,
    races: Vec<RacePair>,
}

impl MemDepAnalysis {
    /// Run the analysis: CFG + divergence fixpoint, then classify every
    /// reachable load/store from the refined facts. Race candidates are
    /// computed only for [`MemSharing::Shared`] (per-thread memories
    /// cannot race by construction).
    pub fn run(prog: &Program, sharing: MemSharing) -> MemDepAnalysis {
        MemDepAnalysis::from_stack(&Stack::new(prog), sharing)
    }

    /// [`MemDepAnalysis::run`] over an already-built [`Stack`].
    pub fn from_stack(stack: &Stack<'_>, sharing: MemSharing) -> MemDepAnalysis {
        let (prog, cfg) = (stack.program(), stack.cfg());
        let div = stack.divergence(sharing);
        let in_region = div.in_region(cfg);
        let mut out = MemDepAnalysis {
            accesses: Vec::new(),
            index: vec![None; prog.len()],
            races: Vec::new(),
        };
        for (pc, inst) in prog.iter() {
            let (is_store, base, off) = match inst {
                Inst::Ld { base, off, .. } => (false, base, off),
                Inst::St { base, off, .. } => (true, base, off),
                _ => continue,
            };
            let Some(state) = div.analysis().before(pc) else {
                continue;
            };
            let fact = state.get(base).offset(off);
            let block = cfg.block_of(pc).expect("analyzed PCs are in the program");
            out.index[pc as usize] = Some(out.accesses.len());
            out.accesses.push(MemAccess {
                pc,
                is_store,
                class: fact.access_class(),
                in_divergent_region: in_region[block],
                fact,
            });
        }
        if sharing == MemSharing::Shared {
            out.find_races();
        }
        out
    }

    fn find_races(&mut self) {
        let mut pairs: Vec<RacePair> = Vec::new();
        for s in self.accesses.iter().filter(|a| a.is_store) {
            for a in &self.accesses {
                if a.is_store && a.pc < s.pc {
                    continue; // store-store pairs reported once, ordered
                }
                let conflict = (0..MAX_THREADS).any(|t| {
                    (0..MAX_THREADS)
                        .filter(|&u| u != t)
                        .any(|u| ranges_may_overlap(s.thread_range(t), a.thread_range(u)))
                });
                if conflict {
                    pairs.push(RacePair {
                        store_pc: s.pc,
                        other_pc: a.pc,
                        other_is_store: a.is_store,
                        divergent: s.in_divergent_region || a.in_divergent_region,
                    });
                }
            }
        }
        pairs.sort_by_key(|p| (p.store_pc, p.other_pc));
        pairs.dedup();
        self.races = pairs;
    }

    /// Every reachable memory access, in ascending PC order.
    pub fn accesses(&self) -> &[MemAccess] {
        &self.accesses
    }

    /// The access at `pc`, if `pc` is a reachable load/store.
    pub fn access_at(&self, pc: u64) -> Option<&MemAccess> {
        self.index
            .get(pc as usize)
            .copied()
            .flatten()
            .map(|i| &self.accesses[i])
    }

    /// Static race candidates (empty for per-thread memories).
    pub fn races(&self) -> &[RacePair] {
        &self.races
    }

    /// `(invariant, tid_private, shared)` access counts.
    pub fn class_counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for a in &self.accesses {
            match a.class {
                AccessClass::Invariant => c.0 += 1,
                AccessClass::TidPrivate { .. } => c.1 += 1,
                AccessClass::Shared { .. } => c.2 += 1,
            }
        }
        c
    }
}

fn ranges_may_overlap(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> bool {
    match (a, b) {
        (Some((al, ah)), Some((bl, bh))) => al <= bh && bl <= ah,
        _ => true, // unbounded overlaps everything
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_isa::asm::Builder;
    use mmt_isa::{AluOp, Reg};

    fn run(b: Builder, sharing: MemSharing) -> (Program, MemDepAnalysis) {
        let prog = b.build().unwrap();
        let mem = MemDepAnalysis::run(&prog, sharing);
        (prog, mem)
    }

    #[test]
    fn constant_address_is_invariant() {
        let mut b = Builder::new();
        b.li(Reg::R1, 4096);
        b.ld(Reg::R2, Reg::R1, 8);
        b.halt();
        let (_, mem) = run(b, MemSharing::Shared);
        let a = mem.access_at(1).unwrap();
        assert_eq!(a.class, AccessClass::Invariant);
        assert_eq!(a.thread_range(0), Some((4104, 4104)));
        assert_eq!(a.thread_range(3), Some((4104, 4104)));
    }

    #[test]
    fn tid_strided_store_is_private_and_race_free() {
        // base + tid*4480: the generator's per-thread output region.
        let mut b = Builder::new();
        b.tid(Reg::R1);
        b.li(Reg::R2, 4480);
        b.alu(AluOp::Mul, Reg::R2, Reg::R1, Reg::R2);
        b.li(Reg::R3, 262144);
        b.alu_add(Reg::R3, Reg::R3, Reg::R2);
        b.st(Reg::R0, Reg::R3, 4);
        b.halt();
        let (_, mem) = run(b, MemSharing::Shared);
        let a = mem.access_at(5).unwrap();
        assert_eq!(a.class, AccessClass::TidPrivate { stride: 4480 });
        assert_eq!(a.thread_range(0), Some((262148, 262148)));
        assert_eq!(a.thread_range(1), Some((266628, 266628)));
        assert!(mem.races().is_empty(), "disjoint per-thread stores");
    }

    #[test]
    fn masked_index_bounds_beat_the_stride() {
        // addr = base + tid*4480 + (loaded & 2047): the masked residue is
        // unknown and thread-dependent, but bounded below the stride.
        let mut b = Builder::new();
        b.tid(Reg::R1);
        b.li(Reg::R2, 4480);
        b.alu(AluOp::Mul, Reg::R2, Reg::R1, Reg::R2);
        b.li(Reg::R3, 262144);
        b.alu_add(Reg::R3, Reg::R3, Reg::R2);
        b.li(Reg::R4, 65536);
        b.ld(Reg::R5, Reg::R4, 0); // unknown value
        b.andi(Reg::R5, Reg::R5, 2047);
        b.alu_add(Reg::R6, Reg::R3, Reg::R5);
        b.st(Reg::R0, Reg::R6, 0);
        b.halt();
        let (_, mem) = run(b, MemSharing::Shared);
        let a = mem.access_at(9).unwrap();
        assert_eq!(a.class, AccessClass::TidPrivate { stride: 4480 });
        assert_eq!(a.thread_range(0), Some((262144, 264191)));
        assert_eq!(a.thread_range(1), Some((266624, 268671)));
        assert!(mem.races().is_empty());
    }

    #[test]
    fn small_stride_with_wide_residue_is_shared_and_races() {
        // stride 1 < mask span 2047: threads can collide.
        let mut b = Builder::new();
        b.tid(Reg::R1);
        b.li(Reg::R3, 262144);
        b.alu_add(Reg::R3, Reg::R3, Reg::R1); // base + tid
        b.li(Reg::R4, 65536);
        b.ld(Reg::R5, Reg::R4, 0);
        b.andi(Reg::R5, Reg::R5, 2047);
        b.alu_add(Reg::R6, Reg::R3, Reg::R5);
        b.st(Reg::R0, Reg::R6, 0);
        b.halt();
        let (_, mem) = run(b, MemSharing::Shared);
        let a = mem.access_at(7).unwrap();
        assert!(matches!(a.class, AccessClass::Shared { .. }), "{:?}", a);
        let races = mem.races();
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].store_pc, 7);
        assert_eq!(races[0].other_pc, 7);
        assert!(races[0].other_is_store);
    }

    #[test]
    fn barrier_spin_pattern_is_cross_thread_read_write() {
        // Thread writes its own slot (base + tid), spins on a fixed slot
        // another thread owns — classic barrier: store is private, the
        // spin load reads a word another thread stores.
        let mut b = Builder::new();
        let spin = b.label();
        b.tid(Reg::R1);
        b.li(Reg::R2, 524288);
        b.alu_add(Reg::R2, Reg::R2, Reg::R1);
        b.st(Reg::R0, Reg::R2, 0); // pc 3: my slot
        b.li(Reg::R3, 524289); // neighbour's slot (constant)
        b.bind(spin);
        b.ld(Reg::R4, Reg::R3, 0); // pc 5: their slot
        b.beq(Reg::R4, Reg::R0, spin);
        b.halt();
        let (_, mem) = run(b, MemSharing::Shared);
        assert_eq!(
            mem.access_at(3).unwrap().class,
            AccessClass::TidPrivate { stride: 1 }
        );
        assert_eq!(mem.access_at(5).unwrap().class, AccessClass::Invariant);
        let races = mem.races();
        assert_eq!(races.len(), 1, "{races:?}");
        assert_eq!(races[0].store_pc, 3);
        assert_eq!(races[0].other_pc, 5);
        assert!(!races[0].other_is_store, "store vs another thread's load");
    }

    #[test]
    fn divergent_paths_demote_address_invariance() {
        // Each path writes a different constant base: at the join the
        // address is path-dependent, and the path choice is on tid.
        let mut b = Builder::new();
        let (els, join) = (b.label(), b.label());
        b.tid(Reg::R1);
        b.beq(Reg::R1, Reg::R0, els);
        b.li(Reg::R2, 8192);
        b.jmp(join);
        b.bind(els);
        b.li(Reg::R2, 12288);
        b.bind(join);
        b.ld(Reg::R3, Reg::R2, 0); // pc 5
        b.halt();
        let (_, mem) = run(b, MemSharing::Shared);
        let a = mem.access_at(5).unwrap();
        assert!(
            matches!(a.class, AccessClass::Shared { .. }),
            "path-dependent address must not claim invariance: {a:?}"
        );
        // The bounds still cover both constants.
        if let AccessClass::Shared {
            bounds: Some((l, h)),
        } = a.class
        {
            assert!(l <= 8192 && h >= 12288, "{l}..{h}");
        }
    }

    #[test]
    fn same_constant_on_both_paths_stays_invariant() {
        let mut b = Builder::new();
        let (els, join) = (b.label(), b.label());
        b.tid(Reg::R1);
        b.beq(Reg::R1, Reg::R0, els);
        b.li(Reg::R2, 8192);
        b.jmp(join);
        b.bind(els);
        b.li(Reg::R2, 8192);
        b.bind(join);
        b.ld(Reg::R3, Reg::R2, 0); // pc 5
        b.halt();
        let (_, mem) = run(b, MemSharing::Shared);
        assert_eq!(mem.access_at(5).unwrap().class, AccessClass::Invariant);
    }

    #[test]
    fn loop_carried_index_widens_but_keeps_invariance() {
        // for k in 0..N: load base + (k & 63) — the residue interval
        // grows each iteration until widened; invariance must survive.
        let mut b = Builder::new();
        let (top, out) = (b.label(), b.label());
        b.li(Reg::R1, 100); // k counter
        b.li(Reg::R2, 4096); // base
        b.bind(top);
        b.andi(Reg::R3, Reg::R1, 63);
        b.alu_add(Reg::R4, Reg::R2, Reg::R3);
        b.ld(Reg::R5, Reg::R4, 0); // pc 4
        b.addi(Reg::R1, Reg::R1, -1);
        b.bne(Reg::R1, Reg::R0, top);
        b.bind(out);
        b.halt();
        let (_, mem) = run(b, MemSharing::PerThread);
        let a = mem.access_at(4).unwrap();
        assert_eq!(a.class, AccessClass::Invariant);
        assert_eq!(a.thread_range(0), Some((4096, 4159)));
    }

    #[test]
    fn unknown_base_store_races_with_everything() {
        let mut b = Builder::new();
        b.li(Reg::R1, 4096);
        b.ld(Reg::R2, Reg::R1, 0); // unknown address source
        b.st(Reg::R0, Reg::R2, 0); // pc 2: unbounded store
        b.halt();
        let (_, mem) = run(b, MemSharing::Shared);
        let a = mem.access_at(2).unwrap();
        assert_eq!(a.class, AccessClass::Shared { bounds: None });
        assert!(a.thread_range(0).is_none());
        // Races with the load and with itself.
        assert_eq!(mem.races().len(), 2);
    }

    #[test]
    fn per_thread_sharing_reports_no_races() {
        let mut b = Builder::new();
        b.li(Reg::R1, 4096);
        b.st(Reg::R0, Reg::R1, 0); // same constant address, every thread
        b.ld(Reg::R2, Reg::R1, 0);
        b.halt();
        let (_, mem) = run(b, MemSharing::PerThread);
        assert_eq!(mem.access_at(1).unwrap().class, AccessClass::Invariant);
        assert!(
            mem.races().is_empty(),
            "separate memories cannot race by construction"
        );
    }

    #[test]
    fn empty_and_unreachable_programs_are_total() {
        let mem = MemDepAnalysis::run(&Program::from_insts(Vec::new()), MemSharing::Shared);
        assert!(mem.accesses().is_empty());
        assert!(mem.races().is_empty());

        let mut b = Builder::new();
        let out = b.label();
        b.jmp(out);
        b.st(Reg::R0, Reg::R1, 0); // unreachable
        b.bind(out);
        b.halt();
        let (_, mem) = run(b, MemSharing::Shared);
        assert!(
            mem.access_at(1).is_none(),
            "unreachable access unclassified"
        );
        assert_eq!(mem.class_counts(), (0, 0, 0));
    }
}
