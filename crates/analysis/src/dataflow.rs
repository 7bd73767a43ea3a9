//! The one abstract domain of the crate, and its forward fixpoint over
//! the CFG.
//!
//! ## The domain
//!
//! Every register value at a program point is abstracted as
//!
//! ```text
//! v(t) = konst  ⊞  coef·t  ⊞  r        (⊞ = wrapping u64 add)
//! ```
//!
//! where `t` is the hardware thread id, `konst` is a known constant,
//! `coef` is the tid coefficient (`None` = unknown tid dependence, the
//! lattice top), and `r` is a *residue* with optional interval bounds and
//! an `inv` flag asserting the residue is thread-invariant (equal across
//! all lockstep threads). The bounded residue is the linchpin for the
//! workload generator's addressing idiom `base + tid·STRIDE + (index &
//! MASK)`: the masked index is not affine in anything, but it is bounded
//! by the mask, so a stride larger than the mask span proves per-thread
//! disjointness.
//!
//! Two bits ride along with each value:
//!
//! * `written` — the register is written on every path from the entry
//!   (registers reset to zero, so an unwritten read is suspicious, not
//!   undefined). Joins intersect it; the linter reads it.
//! * `loaded` — the value may depend on a load whose result is not
//!   thread-invariant. Every operation and join unions it. It is what
//!   separates `and(tid, 7)` (expected to differ across threads) from
//!   `and(load, 7)` (unknown) once both lose their affine form.
//!
//! The transfer functions mirror the functional interpreter exactly
//! (`AluOp::apply`, `FpuOp::apply`, `pc + 1` link values), so a constant
//! the analysis derives is the value every thread's
//! [`mmt_isa::interp::Machine`] computes. `r − r` and `r ^ r` cancel to
//! zero whatever `r` holds, and a multiply or shift by a constant scales
//! every term.
//!
//! ## Projections
//!
//! The crate's three clients read the same per-PC facts through three
//! projections:
//!
//! * [`Invariance`] ([`Fact::invariance`]) — `Invariant` when `coef = 0`
//!   and the residue is invariant, else `Top` when `loaded`, else
//!   `ThreadDependent`. The divergence analysis, the merge oracle and
//!   the savings predictor read it. This is the static half of the
//!   paper's *execute-identical* notion.
//! * [`ValueClass`] ([`Fact::value_class`]) — `Identical`,
//!   `AffineTid{stride}` or a caller-chosen fallback, for the value-flow
//!   analysis ([`crate::valueflow`]).
//! * [`AccessClass`] ([`Fact::access_class`]) — the class of a load's or
//!   store's effective address, for the memory analysis
//!   ([`crate::memdep`]).
//!
//! ## The fixpoint
//!
//! [`Analysis::run_with_demotions`] is the one driver: a block-entry
//! worklist with one join, interval widening after `WIDEN_AFTER` joins
//! into a block (so loop-carried residues terminate), per-block
//! *demotion masks* from the divergence analysis, and a load model.
//! Divergent control flow can make a register's value depend on which
//! path a thread took; a demoted register drops its `inv` claim unless
//! its value is pinned (an exact `konst ⊞ coef·t`, the same formula on
//! every path). Interval arithmetic uses checked operations that
//! degrade to "unbounded" rather than wrap.

use crate::cfg::Cfg;
use crate::memdep::AccessClass;
use crate::valueflow::ValueClass;
use mmt_isa::reg::NUM_REGS;
use mmt_isa::{AluOp, Inst, MemSharing, Program, Reg, MAX_THREADS};
use std::collections::VecDeque;

/// Joins into one block before loop-carried residue intervals are
/// widened to unbounded (a small constant: intervals only delay the
/// finite-lattice parts, they never refine them back).
const WIDEN_AFTER: u32 = 4;

/// Strides above this magnitude lose the provably-unequal claim: with at
/// most [`MAX_THREADS`] threads, `|stride| · (t - u) < 2^64` holds for
/// every thread pair, so the difference cannot wrap to zero.
const STRIDE_GUARD: u64 = 1 << 62;

/// Thread-invariance of one value, ordered by increasing uncertainty.
/// A projection of [`Fact`]; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Invariance {
    /// Provably equal across all lockstep threads.
    Invariant,
    /// Derived from the hardware thread id (or a divergent path) —
    /// expected to differ.
    ThreadDependent,
    /// Unknown (e.g. loaded from per-thread memory).
    Top,
}

/// Abstract value `konst ⊞ coef·tid ⊞ residue` of one register, plus its
/// `written` and `loaded` bits. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fact {
    /// Known constant component (wrapping u64).
    konst: u64,
    /// Tid coefficient; `None` is the lattice top (unknown dependence).
    coef: Option<i64>,
    /// Inclusive residue bounds; `None` = unbounded.
    resid: Option<(i64, i64)>,
    /// The residue is thread-invariant (equal across lockstep threads).
    inv: bool,
    /// May depend on a load whose result is not thread-invariant.
    loaded: bool,
    /// Written on every path from the entry.
    written: bool,
}

impl Fact {
    fn value(konst: u64, coef: Option<i64>, resid: Option<(i64, i64)>, inv: bool) -> Fact {
        Fact {
            konst,
            coef,
            resid,
            inv,
            loaded: false,
            written: true,
        }
    }

    /// The lattice top: nothing known.
    fn top() -> Fact {
        Fact::value(0, None, None, false)
    }

    /// An exact constant.
    fn constant(k: u64) -> Fact {
        Fact::value(k, Some(0), Some((0, 0)), true)
    }

    /// The hardware thread id itself.
    fn tid() -> Fact {
        Fact::value(0, Some(1), Some((0, 0)), true)
    }

    /// Thread-invariant but otherwise unknown (e.g. a load from shared
    /// never-written memory at an invariant address).
    fn invariant_unknown() -> Fact {
        Fact::value(0, Some(0), None, true)
    }

    fn with_loaded(self, loaded: bool) -> Fact {
        Fact { loaded, ..self }
    }

    /// The exact value, when fully pinned.
    pub fn as_const(&self) -> Option<u64> {
        (self.coef == Some(0) && self.resid == Some((0, 0))).then_some(self.konst)
    }

    /// Provably equal across all lockstep threads.
    pub(crate) fn is_invariant(&self) -> bool {
        self.coef == Some(0) && self.inv
    }

    /// Written on every path from the entry.
    pub(crate) fn written(&self) -> bool {
        self.written
    }

    /// `konst ⊞ coef·t ⊞ r` with `r` exactly pinned: the value is a pure
    /// function of the thread id, hence path-independent.
    fn is_pinned(&self) -> bool {
        self.resid == Some((0, 0))
    }

    /// The [`Invariance`] projection.
    pub fn invariance(&self) -> Invariance {
        if self.is_invariant() {
            Invariance::Invariant
        } else if self.loaded {
            Invariance::Top
        } else {
            Invariance::ThreadDependent
        }
    }

    /// The [`ValueClass`] projection: `Identical` or `AffineTid` when the
    /// residue is thread-invariant, `fallback` when it is not.
    pub fn value_class(&self, fallback: ValueClass) -> ValueClass {
        if !self.inv {
            return fallback;
        }
        match self.coef {
            Some(0) => ValueClass::Identical,
            Some(c) if c.unsigned_abs() < STRIDE_GUARD => ValueClass::AffineTid { stride: c },
            _ => ValueClass::ThreadDependent,
        }
    }

    /// The [`AccessClass`] projection of an effective address.
    pub fn access_class(&self) -> AccessClass {
        let Some(c) = self.coef else {
            return AccessClass::Shared { bounds: None };
        };
        if c == 0 {
            if self.inv {
                return AccessClass::Invariant;
            }
            return AccessClass::Shared {
                bounds: self.bounds_all_threads(),
            };
        }
        let span_ok = self.inv
            || self.resid.is_some_and(|(l, h)| {
                h.checked_sub(l)
                    .is_some_and(|s| (s as u64) < c.unsigned_abs())
            });
        // Magnitude guard: the cross-thread address difference
        // `c·Δt + Δresidue` must be nonzero mod 2^64, which `|c|·(T-1)` and
        // a span below `|c|` guarantee as long as everything stays far from
        // the wrap point.
        let guard = c
            .unsigned_abs()
            .checked_mul(MAX_THREADS as u64 - 1)
            .is_some_and(|x| x < 1 << 62);
        if span_ok && guard {
            AccessClass::TidPrivate { stride: c }
        } else {
            AccessClass::Shared {
                bounds: self.bounds_all_threads(),
            }
        }
    }

    /// Inclusive range thread `t` may hold, or `None` when unbounded.
    pub(crate) fn thread_range(&self, t: usize) -> Option<(u64, u64)> {
        let c = self.coef?;
        let (l, h) = self.resid?;
        let shift = c.checked_mul(t as i64)?;
        let base = self.konst.checked_add_signed(shift)?;
        Some((base.checked_add_signed(l)?, base.checked_add_signed(h)?))
    }

    /// Inclusive bounds over every thread id, when they exist without
    /// wrapping.
    fn bounds_all_threads(&self) -> Option<(u64, u64)> {
        let c = self.coef?;
        let (l, h) = self.resid?;
        let spread = c.checked_mul(MAX_THREADS as i64 - 1)?;
        let lo = l.checked_add(spread.min(0))?;
        let hi = h.checked_add(spread.max(0))?;
        Some((
            self.konst.checked_add_signed(lo)?,
            self.konst.checked_add_signed(hi)?,
        ))
    }

    /// Fold a load/store immediate offset into the constant base.
    pub(crate) fn offset(self, off: i64) -> Fact {
        Fact {
            konst: self.konst.wrapping_add_signed(off),
            ..self
        }
    }

    /// Canonical form: fold a pinned residue into `konst`, and a pinned
    /// residue is trivially thread-invariant.
    fn normalize(mut self) -> Fact {
        if self.coef.is_none() {
            return Fact::top();
        }
        if let Some((l, h)) = self.resid {
            debug_assert!(l <= h, "interval bounds ordered");
            if l == h && l != 0 {
                self.konst = self.konst.wrapping_add_signed(l);
                self.resid = Some((0, 0));
            }
            if self.resid == Some((0, 0)) {
                self.inv = true;
            }
        }
        self
    }

    /// Fold the tid term into the residue bounds (`t ∈ 0..MAX_THREADS`),
    /// giving a `coef = 0` over-approximation. Loses `inv` for a nonzero
    /// coefficient: the folded value genuinely differs per thread.
    fn drop_affine(self) -> Fact {
        let Some(c) = self.coef else {
            return Fact::top();
        };
        if c == 0 {
            return self;
        }
        let spread = c.checked_mul(MAX_THREADS as i64 - 1);
        let resid = match (self.resid, spread) {
            (Some((l, h)), Some(s)) => match (l.checked_add(s.min(0)), h.checked_add(s.max(0))) {
                (Some(lo), Some(hi)) => Some((lo, hi)),
                _ => None,
            },
            _ => None,
        };
        Fact::value(self.konst, Some(0), resid, false).normalize()
    }
}

/// The join at a control-flow merge: interval hull of the values, union
/// of `loaded`, intersection of `written`. `widen` drops a grown interval
/// to unbounded so loop-carried residues terminate.
fn join(old: Fact, incoming: Fact, widen: bool) -> Fact {
    let mut j = join_values(old, incoming);
    if widen && j.resid != old.resid {
        j.resid = None;
    }
    j.loaded = old.loaded || incoming.loaded;
    j.written = old.written && incoming.written;
    j
}

fn join_values(a: Fact, b: Fact) -> Fact {
    let (Some(ca), Some(cb)) = (a.coef, b.coef) else {
        return Fact::top();
    };
    if ca != cb {
        // Rebase both onto coef 0 and re-join (one level of recursion).
        return join_values(a.drop_affine(), b.drop_affine());
    }
    // Rebase b onto a's constant: the displacement is exact mod 2^64, so
    // folding it into b's residue preserves the concrete value set.
    let d = b.konst.wrapping_sub(a.konst) as i64;
    let b_res = b
        .resid
        .and_then(|(l, h)| Some((l.checked_add(d)?, h.checked_add(d)?)));
    let resid = match (a.resid, b_res) {
        (Some((al, ah)), Some((bl, bh))) => Some((al.min(bl), ah.max(bh))),
        _ => None,
    };
    Fact::value(a.konst, Some(ca), resid, a.inv && b.inv).normalize()
}

/// Fallback combine for operations with no linear model: invariance is
/// closed under every deterministic operation, nothing else survives.
fn opaque(a: Fact, b: Fact) -> Fact {
    if a.is_invariant() && b.is_invariant() {
        Fact::invariant_unknown()
    } else {
        Fact::top()
    }
}

/// `a ⊞ b` (`negate_b`: `a ⊟ b`), term by term.
fn linear(a: Fact, b: Fact, negate_b: bool) -> Fact {
    let (Some(ca), Some(cb)) = (a.coef, b.coef) else {
        return opaque(a, b);
    };
    let coef = if negate_b {
        ca.checked_sub(cb)
    } else {
        ca.checked_add(cb)
    };
    let Some(c) = coef else {
        return opaque(a, b);
    };
    let resid = match (a.resid, b.resid) {
        (Some((al, ah)), Some((bl, bh))) if negate_b => al.checked_sub(bh).zip(ah.checked_sub(bl)),
        (Some((al, ah)), Some((bl, bh))) => al.checked_add(bl).zip(ah.checked_add(bh)),
        _ => None,
    };
    let konst = if negate_b {
        a.konst.wrapping_sub(b.konst)
    } else {
        a.konst.wrapping_add(b.konst)
    };
    Fact::value(konst, Some(c), resid, a.inv && b.inv).normalize()
}

/// Multiply by a known constant (linear: every term scales). The cast of
/// `m` to `i64` is congruent mod 2^64, so the scaled terms stay exact;
/// checked arithmetic degrades to unbounded instead of wrapping.
fn scale(a: Fact, m: u64) -> Fact {
    let mi = m as i64;
    let Some(c) = a.coef.and_then(|ca| ca.checked_mul(mi)) else {
        return opaque(a, Fact::constant(m));
    };
    let resid = a.resid.and_then(|(l, h)| {
        let x = l.checked_mul(mi)?;
        let y = h.checked_mul(mi)?;
        Some((x.min(y), x.max(y)))
    });
    Fact::value(a.konst.wrapping_mul(m), Some(c), resid, a.inv).normalize()
}

/// AND with a known mask: the result lands in `[0, m]` whatever the
/// other operand is — the crucial transfer for `index & (WS - 1)`
/// addressing. Thread-invariance survives only if the masked operand was
/// wholly invariant.
fn and_mask(a: Fact, b: Fact) -> Fact {
    let (masked, m) = if let Some(m) = b.as_const() {
        (a, m)
    } else if let Some(m) = a.as_const() {
        (b, m)
    } else {
        return opaque(a, b);
    };
    if m > i64::MAX as u64 {
        return opaque(masked, Fact::constant(m));
    }
    Fact::value(0, Some(0), Some((0, m as i64)), masked.is_invariant()).normalize()
}

/// Transfer one ALU operation. `same_reg`: both operands are one
/// register, so `r − r` and `r ^ r` are 0 in every thread.
fn alu(op: AluOp, a: Fact, b: Fact, same_reg: bool) -> Fact {
    if same_reg && matches!(op, AluOp::Sub | AluOp::Xor) {
        return Fact::constant(0);
    }
    if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
        return Fact::constant(op.apply(x, y));
    }
    match op {
        AluOp::Add => linear(a, b, false),
        AluOp::Sub => linear(a, b, true),
        AluOp::Mul => {
            if let Some(m) = b.as_const() {
                scale(a, m)
            } else if let Some(m) = a.as_const() {
                scale(b, m)
            } else {
                opaque(a, b)
            }
        }
        // The interpreter shifts by the low six bits of the amount.
        AluOp::Shl => match b.as_const() {
            Some(k) => scale(a, 1 << (k & 63)),
            None => opaque(a, b),
        },
        AluOp::And => and_mask(a, b),
        AluOp::Slt => Fact::value(
            0,
            Some(0),
            Some((0, 1)),
            a.is_invariant() && b.is_invariant(),
        )
        .normalize(),
        _ => opaque(a, b),
    }
}

/// Per-register facts at a program point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct State {
    regs: [Fact; NUM_REGS],
}

impl State {
    /// State at the program entry: every register holds the reset value
    /// zero, and only the hardwired zero register counts as written.
    fn entry() -> State {
        let mut regs = [Fact {
            written: false,
            ..Fact::constant(0)
        }; NUM_REGS];
        regs[Reg::R0.index()].written = true;
        State { regs }
    }

    /// The fact for register `r`.
    pub fn get(&self, r: Reg) -> Fact {
        self.regs[r.index()]
    }

    /// The fact `inst` (at `pc`) writes to its destination register, or
    /// `None` when it writes none. `loads_invariant` is the load model:
    /// every thread loading one address reads one value.
    pub(crate) fn eval(&self, pc: u64, inst: &Inst, loads_invariant: bool) -> Option<Fact> {
        let fact = match *inst {
            Inst::Alu { op, rs1, rs2, .. } => {
                let (a, b) = (self.get(rs1), self.get(rs2));
                alu(op, a, b, rs1 == rs2).with_loaded(a.loaded || b.loaded)
            }
            Inst::AluI { op, rs1, imm, .. } => {
                let a = self.get(rs1);
                alu(op, a, Fact::constant(imm as u64), false).with_loaded(a.loaded)
            }
            Inst::Fpu { op, rs1, rs2, .. } => {
                let (a, b) = (self.get(rs1), self.get(rs2));
                let v = match (a.as_const(), b.as_const()) {
                    (Some(x), Some(y)) => Fact::constant(op.apply(x, y)),
                    _ => opaque(a, b),
                };
                v.with_loaded(a.loaded || b.loaded)
            }
            Inst::Ld { base, .. } => {
                let b = self.get(base);
                let v = if loads_invariant && b.is_invariant() {
                    Fact::invariant_unknown()
                } else {
                    Fact::top()
                };
                v.with_loaded(!loads_invariant || b.loaded)
            }
            Inst::Jal { .. } => Fact::constant(pc + 1),
            Inst::Tid { .. } => Fact::tid(),
            Inst::St { .. }
            | Inst::Br { .. }
            | Inst::Jmp { .. }
            | Inst::Jr { .. }
            | Inst::Halt
            | Inst::Nop => return None,
        };
        Some(fact)
    }

    /// Apply one instruction's effect. Writes to the hardwired zero
    /// register are discarded, exactly as the interpreter discards them.
    fn transfer(&mut self, pc: u64, inst: &Inst, loads_invariant: bool) {
        if let (Some(rd), Some(f)) = (inst.dest(), self.eval(pc, inst, loads_invariant)) {
            if !rd.is_zero() {
                self.regs[rd.index()] = f;
            }
        }
    }

    /// Divergence demotion: every register in `mask` drops its
    /// thread-invariance claim unless its value is pinned (the same
    /// formula on every path). Returns whether anything changed.
    fn demote(&mut self, mask: u32) -> bool {
        let mut changed = false;
        for (i, fact) in self.regs.iter_mut().enumerate() {
            if mask & (1u32 << i) != 0 && fact.inv && !fact.is_pinned() {
                fact.inv = false;
                changed = true;
            }
        }
        changed
    }

    /// Join `other` into `self`. Returns whether anything changed.
    fn join_from(&mut self, other: &State, widen: bool) -> bool {
        let mut changed = false;
        for (mine, theirs) in self.regs.iter_mut().zip(&other.regs) {
            let joined = join(*mine, *theirs, widen);
            if joined != *mine {
                *mine = joined;
                changed = true;
            }
        }
        changed
    }
}

/// The load model of `prog` under `sharing`: with [`MemSharing::Shared`]
/// and a store-free program, every thread loading one address reads one
/// value; any store — or per-thread memories — voids that.
pub(crate) fn loads_invariant(prog: &Program, sharing: MemSharing) -> bool {
    sharing == MemSharing::Shared && !has_stores(prog)
}

pub(crate) fn has_stores(prog: &Program) -> bool {
    prog.as_slice().iter().any(|i| matches!(i, Inst::St { .. }))
}

/// Fixpoint result: the state *before* each reachable PC.
#[derive(Debug, Clone)]
pub struct Analysis {
    before: Vec<Option<State>>,
    loads_invariant: bool,
}

impl Analysis {
    /// Run the analysis over `prog` with the given CFG, no demotions,
    /// and the load model of `sharing`: loads are thread-invariant only
    /// from [`MemSharing::Shared`] memory in a store-free program.
    pub fn run(prog: &Program, cfg: &Cfg, sharing: MemSharing) -> Analysis {
        Analysis::run_with_demotions(prog, cfg, loads_invariant(prog, sharing), &[])
    }

    /// The one fixpoint driver, with per-block *entry demotion masks*
    /// (the hook the divergence analysis, [`crate::divergence`], drives):
    /// bit `r` of `demote[b]` means "at the entry of block `b`, register
    /// `r` may have been written differently by threads that took
    /// different paths of a divergent region", so its invariance claim
    /// drops unless it is pinned. An empty slice (or a zero mask) demotes
    /// nothing. `loads_invariant` is the load model: every thread
    /// loading one address reads one value.
    pub fn run_with_demotions(
        prog: &Program,
        cfg: &Cfg,
        loads_invariant: bool,
        demote: &[u32],
    ) -> Analysis {
        let insts = prog.as_slice();
        let mut before: Vec<Option<State>> = vec![None; insts.len()];
        if insts.is_empty() {
            return Analysis {
                before,
                loads_invariant,
            };
        }

        let nb = cfg.blocks().len();
        let mask_of = |b: usize| demote.get(b).copied().unwrap_or(0);
        let mut inb: Vec<Option<State>> = vec![None; nb];
        let mut joins: Vec<u32> = vec![0; nb];
        let mut entry = State::entry();
        entry.demote(mask_of(cfg.entry()));
        inb[cfg.entry()] = Some(entry);
        let mut work: VecDeque<usize> = VecDeque::from([cfg.entry()]);
        while let Some(b) = work.pop_front() {
            let blk = &cfg.blocks()[b];
            let mut state = inb[b].clone().expect("worklist holds initialized blocks");
            for pc in blk.pcs() {
                state.transfer(pc, &insts[pc as usize], loads_invariant);
            }
            for &succ in &blk.succs {
                let widen = joins[succ] >= WIDEN_AFTER;
                let mask = mask_of(succ);
                let changed = match &mut inb[succ] {
                    Some(t) => {
                        let joined = t.join_from(&state, widen);
                        // Re-apply after every join: a join can unpin a
                        // register, re-exposing it to the demotion.
                        t.demote(mask) || joined
                    }
                    slot @ None => {
                        let mut s = state.clone();
                        s.demote(mask);
                        *slot = Some(s);
                        true
                    }
                };
                if changed {
                    joins[succ] = joins[succ].saturating_add(1);
                    if !work.contains(&succ) {
                        work.push_back(succ);
                    }
                }
            }
        }

        for (b, blk) in cfg.blocks().iter().enumerate() {
            let Some(mut state) = inb[b].take() else {
                continue;
            };
            for pc in blk.pcs() {
                before[pc as usize] = Some(state.clone());
                state.transfer(pc, &insts[pc as usize], loads_invariant);
            }
        }

        Analysis {
            before,
            loads_invariant,
        }
    }

    /// The register state just before `pc`, or `None` when `pc` is
    /// statically unreachable (or out of range).
    pub fn before(&self, pc: u64) -> Option<&State> {
        self.before.get(pc as usize).and_then(|s| s.as_ref())
    }

    /// The load model the fixpoint ran with.
    pub fn loads_invariant(&self) -> bool {
        self.loads_invariant
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_isa::asm::Builder;
    use mmt_isa::FpuOp;

    fn analyze(b: Builder, sharing: MemSharing) -> (Program, Analysis) {
        let prog = b.build().unwrap();
        let cfg = Cfg::build(&prog);
        let a = Analysis::run(&prog, &cfg, sharing);
        (prog, a)
    }

    #[test]
    fn constants_fold_through_alu_chains() {
        let mut b = Builder::new();
        b.addi(Reg::R1, Reg::R0, 7);
        b.alu(AluOp::Mul, Reg::R2, Reg::R1, Reg::R1);
        b.addi(Reg::R3, Reg::R2, 1);
        b.halt();
        let (_, a) = analyze(b, MemSharing::Shared);
        let at_halt = a.before(3).unwrap();
        assert_eq!(at_halt.get(Reg::R2).as_const(), Some(49));
        assert_eq!(at_halt.get(Reg::R3).as_const(), Some(50));
        assert_eq!(at_halt.get(Reg::R3).invariance(), Invariance::Invariant);
        assert!(at_halt.get(Reg::R3).written());
    }

    #[test]
    fn tid_taints_everything_it_reaches() {
        let mut b = Builder::new();
        b.tid(Reg::R1);
        b.addi(Reg::R2, Reg::R1, 5);
        b.alu_add(Reg::R3, Reg::R2, Reg::R2);
        b.addi(Reg::R4, Reg::R0, 5); // untouched by tid
        b.halt();
        let (_, a) = analyze(b, MemSharing::Shared);
        let s = a.before(4).unwrap();
        assert_eq!(s.get(Reg::R1).invariance(), Invariance::ThreadDependent);
        assert_eq!(s.get(Reg::R2).invariance(), Invariance::ThreadDependent);
        assert_eq!(s.get(Reg::R3).invariance(), Invariance::ThreadDependent);
        assert_eq!(s.get(Reg::R4).invariance(), Invariance::Invariant);
        assert_eq!(s.get(Reg::R2).as_const(), None, "tid has no static value");
    }

    #[test]
    fn writes_to_r0_are_discarded() {
        let mut b = Builder::new();
        b.addi(Reg::R0, Reg::R0, 9);
        b.addi(Reg::R1, Reg::R0, 1);
        b.halt();
        let (_, a) = analyze(b, MemSharing::Shared);
        let s = a.before(2).unwrap();
        assert_eq!(s.get(Reg::R0).as_const(), Some(0));
        assert_eq!(s.get(Reg::R1).as_const(), Some(1));
    }

    #[test]
    fn joins_drop_disagreeing_constants_but_keep_writes() {
        let mut b = Builder::new();
        let (els, join) = (b.label(), b.label());
        b.tid(Reg::R1);
        b.beq(Reg::R1, Reg::R0, els);
        b.addi(Reg::R2, Reg::R0, 1);
        b.jmp(join);
        b.bind(els);
        b.addi(Reg::R2, Reg::R0, 2);
        b.bind(join);
        b.halt();
        let (prog, a) = analyze(b, MemSharing::Shared);
        let join_pc = prog.len() as u64 - 1;
        let s = a.before(join_pc).unwrap();
        assert_eq!(s.get(Reg::R2).as_const(), None, "1 vs 2 at the join");
        assert!(s.get(Reg::R2).written(), "written on both paths");
        // Both arms wrote an invariant constant; the *choice* of arm is
        // thread-dependent, which this flow-insensitive-per-register
        // lattice deliberately does not model — it stays a lower bound
        // for the linter, while the oracle checks dynamic values.
        assert_eq!(s.get(Reg::R1).invariance(), Invariance::ThreadDependent);
    }

    #[test]
    fn demotion_masks_drop_invariance_except_agreed_constants() {
        let mut b = Builder::new();
        let (els, join) = (b.label(), b.label());
        b.tid(Reg::R1); // 0
        b.beq(Reg::R1, Reg::R0, els); // 1: divergent
        b.addi(Reg::R2, Reg::R0, 1); // 2
        b.addi(Reg::R3, Reg::R0, 5); // 3
        b.jmp(join); // 4
        b.bind(els);
        b.addi(Reg::R2, Reg::R0, 2); // 5
        b.addi(Reg::R3, Reg::R0, 5); // 6: same constant both paths
        b.bind(join);
        b.halt(); // 7
        let prog = b.build().unwrap();
        let cfg = Cfg::build(&prog);
        let join_blk = cfg.block_of(7).unwrap();
        let mut demote = vec![0u32; cfg.blocks().len()];
        demote[join_blk] = (1 << Reg::R2.index()) | (1 << Reg::R3.index());
        let a = Analysis::run_with_demotions(&prog, &cfg, true, &demote);
        let s = a.before(7).unwrap();
        assert_eq!(
            s.get(Reg::R2).invariance(),
            Invariance::ThreadDependent,
            "1 vs 2 depending on the thread's path"
        );
        assert_eq!(
            s.get(Reg::R3).invariance(),
            Invariance::Invariant,
            "5 on every path: equal regardless of path taken"
        );
        assert_eq!(s.get(Reg::R3).as_const(), Some(5));

        // Without the mask, the per-register lattice misses the
        // path-dependence (the hole the divergence analysis closes).
        let plain = Analysis::run(&prog, &cfg, MemSharing::Shared);
        assert_eq!(
            plain.before(7).unwrap().get(Reg::R2).invariance(),
            Invariance::Invariant
        );
    }

    #[test]
    fn loads_are_top_with_per_thread_memory_and_tracked_when_shared() {
        let mk = || {
            let mut b = Builder::new();
            b.addi(Reg::R1, Reg::R0, 64);
            b.ld(Reg::R2, Reg::R1, 0);
            b.halt();
            b
        };
        let (_, me) = analyze(mk(), MemSharing::PerThread);
        assert_eq!(
            me.before(2).unwrap().get(Reg::R2).invariance(),
            Invariance::Top
        );
        assert!(!me.loads_invariant());

        let (_, mt) = analyze(mk(), MemSharing::Shared);
        assert_eq!(
            mt.before(2).unwrap().get(Reg::R2).invariance(),
            Invariance::Invariant,
            "shared store-free memory: same address loads the same value"
        );

        // One store anywhere forfeits load invariance.
        let mut b = Builder::new();
        b.addi(Reg::R1, Reg::R0, 64);
        b.st(Reg::R0, Reg::R1, 0);
        b.ld(Reg::R2, Reg::R1, 0);
        b.halt();
        let (_, stored) = analyze(b, MemSharing::Shared);
        assert_eq!(
            stored.before(3).unwrap().get(Reg::R2).invariance(),
            Invariance::Top
        );
    }

    #[test]
    fn unreachable_code_has_no_state() {
        let mut b = Builder::new();
        let out = b.label();
        b.jmp(out);
        b.addi(Reg::R1, Reg::R0, 1);
        b.bind(out);
        b.halt();
        let (_, a) = analyze(b, MemSharing::Shared);
        assert!(a.before(1).is_none());
        assert!(a.before(2).is_some());
    }

    #[test]
    fn loop_fixpoint_converges_with_loop_carried_variable() {
        let mut b = Builder::new();
        let (top, out) = (b.label(), b.label());
        b.addi(Reg::R1, Reg::R0, 10);
        b.bind(top);
        b.addi(Reg::R1, Reg::R1, -1);
        b.bne(Reg::R1, Reg::R0, top);
        b.bind(out);
        b.halt();
        let (_, a) = analyze(b, MemSharing::Shared);
        let s = a.before(1).unwrap();
        // 10 on entry, 9.. on the back edge: no single constant.
        assert_eq!(s.get(Reg::R1).as_const(), None);
        assert_eq!(s.get(Reg::R1).invariance(), Invariance::Invariant);
    }

    #[test]
    fn fpu_operations_on_constants_fold() {
        let mut b = Builder::new();
        b.addi(Reg::R1, Reg::R0, 6);
        b.addi(Reg::R2, Reg::R0, 7);
        b.fpu(FpuOp::Fmul, Reg::R3, Reg::R1, Reg::R2);
        b.halt();
        let (_, a) = analyze(b, MemSharing::Shared);
        let r3 = a.before(3).unwrap().get(Reg::R3);
        assert_eq!(r3.as_const(), Some(FpuOp::Fmul.apply(6, 7)));
        assert_eq!(r3.invariance(), Invariance::Invariant);
    }

    #[test]
    fn self_cancellation_and_constant_shifts_stay_exact() {
        let mut b = Builder::new();
        b.tid(Reg::R1); // 0
        b.alu(AluOp::Sub, Reg::R2, Reg::R1, Reg::R1); // 1: 0 in every thread
        b.alu(AluOp::Xor, Reg::R3, Reg::R1, Reg::R1); // 2: 0 in every thread
        b.addi(Reg::R4, Reg::R0, 3); // 3
        b.alu(AluOp::Shl, Reg::R5, Reg::R1, Reg::R4); // 4: tid << 3 = 8·tid
        b.halt(); // 5
        let (_, a) = analyze(b, MemSharing::Shared);
        let s = a.before(5).unwrap();
        assert_eq!(s.get(Reg::R2).as_const(), Some(0));
        assert_eq!(s.get(Reg::R3).as_const(), Some(0));
        assert_eq!(
            s.get(Reg::R5).value_class(ValueClass::Top),
            ValueClass::AffineTid { stride: 8 }
        );
    }

    #[test]
    fn masked_tid_and_masked_load_project_apart() {
        let mut b = Builder::new();
        b.tid(Reg::R1); // 0
        b.andi(Reg::R2, Reg::R1, 7); // 1: bounded, expected to differ
        b.li(Reg::R3, 4096); // 2
        b.ld(Reg::R4, Reg::R3, 0); // 3: per-thread memory: unknown
        b.andi(Reg::R5, Reg::R4, 7); // 4: bounded, unknown
        b.halt(); // 5
        let (_, a) = analyze(b, MemSharing::PerThread);
        let s = a.before(5).unwrap();
        assert_eq!(s.get(Reg::R2).invariance(), Invariance::ThreadDependent);
        assert_eq!(s.get(Reg::R5).invariance(), Invariance::Top);
        assert_eq!(s.get(Reg::R2).access_class(), s.get(Reg::R5).access_class());
    }
}
