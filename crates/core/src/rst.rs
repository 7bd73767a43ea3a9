//! Register Sharing Table (paper Section 4.2.1).
//!
//! One entry per architected register; each entry holds one bit per
//! potential thread pair (6 pairs for 4 threads). Bit `(t,u)` set means
//! threads `t` and `u` currently map that architected register to the
//! same physical register (or the registers are known to hold identical
//! values, via register merging). The instruction splitter reads these
//! bits to decide how far a fetch-identical instruction can stay merged.
//!
//! Each pair bit also carries a provenance flag recording whether it was
//! last set by the commit-time register-merging hardware — that is how
//! the simulator attributes instructions to the paper's
//! "Exe-Identical+RegMerge" category in Figure 5(b).

use crate::itid::Itid;
use mmt_isa::reg::{Reg, NUM_REGS};

/// Number of unordered thread pairs for 4 hardware threads.
pub const NUM_PAIRS: usize = 6;

/// Dense index of the unordered pair `(t, u)`, `t != u`.
///
/// # Panics
///
/// Panics if `t == u` or either exceeds [`mmt_isa::MAX_THREADS`].
#[inline]
pub fn pair_index(t: usize, u: usize) -> usize {
    assert!(t != u, "a thread does not pair with itself");
    let (a, b) = if t < u { (t, u) } else { (u, t) };
    assert!(b < mmt_isa::MAX_THREADS);
    // Pairs in order: (0,1) (0,2) (0,3) (1,2) (1,3) (2,3).
    match (a, b) {
        (0, 1) => 0,
        (0, 2) => 1,
        (0, 3) => 2,
        (1, 2) => 3,
        (1, 3) => 4,
        (2, 3) => 5,
        _ => unreachable!(),
    }
}

/// `PAIRS_OF[mask]`: the pair bits with both threads in thread mask
/// `mask`, in [`pair_index`] order — the pairs a group must share to
/// execute as one instruction.
pub const PAIRS_OF: [u8; 16] = pair_table(true);

/// `TOUCHING[mask]`: the pair bits with at least one thread in `mask` —
/// the pairs a destination write by `mask` rewrites (Section 4.2.3).
pub const TOUCHING: [u8; 16] = pair_table(false);

/// Bit `pair_index(t, u)` of entry `mask` is set when `t` and `u` are
/// both (`both`) or either (`!both`) in `mask`.
const fn pair_table(both: bool) -> [u8; 16] {
    let mut table = [0; 16];
    let mut mask = 0;
    while mask < 16 {
        let mut bit = 0;
        let mut t = 0;
        while t < mmt_isa::MAX_THREADS {
            let mut u = t + 1;
            while u < mmt_isa::MAX_THREADS {
                let (in_t, in_u) = (mask & (1 << t) != 0, mask & (1 << u) != 0);
                if (in_t && in_u) || (!both && (in_t || in_u)) {
                    table[mask] |= 1 << bit;
                }
                bit += 1;
                u += 1;
            }
            t += 1;
        }
        mask += 1;
    }
    table
}

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    /// Pair-sharing bits.
    shared: u8,
    /// Which of those bits were last set by register-merging hardware.
    by_merge: u8,
}

/// The Register Sharing Table.
///
/// # Examples
///
/// ```
/// use mmt_sim::{Itid, rst::RegSharingTable};
/// use mmt_isa::Reg;
/// let mut rst = RegSharingTable::new_all_shared();
/// // Threads 0 and 1 produced different values in r5:
/// rst.update_dest(Reg::R5, Itid::from_mask(0b11), &[Itid::single(0), Itid::single(1)]);
/// assert!(!rst.pair_shared(Reg::R5, 0, 1));
/// assert!(rst.pair_shared(Reg::R1, 0, 1)); // untouched registers still shared
/// ```
#[derive(Debug, Clone)]
pub struct RegSharingTable {
    entries: [Entry; NUM_REGS],
    updates: u64,
    merge_sets: u64,
}

impl RegSharingTable {
    /// All registers shared between all threads — the start-of-program
    /// state for SPMD workloads (Section 4.2.6; register files start
    /// identical, divergence enters through `tid`, loads, and divergent
    /// paths).
    pub fn new_all_shared() -> RegSharingTable {
        RegSharingTable {
            entries: [Entry {
                shared: (1 << NUM_PAIRS) - 1,
                by_merge: 0,
            }; NUM_REGS],
            updates: 0,
            merge_sets: 0,
        }
    }

    /// Nothing shared (useful for tests and for the MMT-F configuration,
    /// which always splits).
    pub fn new_none_shared() -> RegSharingTable {
        RegSharingTable {
            entries: [Entry::default(); NUM_REGS],
            updates: 0,
            merge_sets: 0,
        }
    }

    /// Whether threads `t` and `u` share register `r`. The zero register
    /// is immutably shared (it reads 0 in every thread).
    #[inline]
    pub fn pair_shared(&self, r: Reg, t: usize, u: usize) -> bool {
        if r.is_zero() {
            return true;
        }
        self.entries[r.index()].shared & (1 << pair_index(t, u)) != 0
    }

    /// Whether the sharing of `r` between `t` and `u` was established by
    /// the register-merging hardware.
    #[cfg(test)]
    pub(crate) fn pair_by_merge(&self, r: Reg, t: usize, u: usize) -> bool {
        if r.is_zero() {
            return false;
        }
        let idx = 1 << pair_index(t, u);
        let e = &self.entries[r.index()];
        e.shared & idx != 0 && e.by_merge & idx != 0
    }

    /// All pair bits of register `r` at once: `(shared, shared pairs set
    /// by register merging)`. The zero register shares every pair, none
    /// of them by merging.
    #[inline]
    pub fn pair_bits(&self, r: Reg) -> (u8, u8) {
        if r.is_zero() {
            return ((1 << NUM_PAIRS) - 1, 0);
        }
        let e = &self.entries[r.index()];
        (e.shared, e.shared & e.by_merge)
    }

    /// Whether *all* pairs within `itid` share register `r`.
    #[cfg(test)]
    fn group_shared(&self, r: Reg, itid: Itid) -> bool {
        PAIRS_OF[itid.mask() as usize] & !self.pair_bits(r).0 == 0
    }

    /// Destination update (Section 4.2.3): for every pair with at least
    /// one member in the fetched `itid`, the bit becomes 1 iff some
    /// resulting split ITID contains both threads, else 0, and loses its
    /// merge provenance. Pairs entirely outside the fetched ITID are
    /// untouched.
    pub fn update_dest(&mut self, r: Reg, itid: Itid, resulting: &[Itid]) {
        if r.is_zero() {
            return;
        }
        self.updates += 1;
        let touched = TOUCHING[itid.mask() as usize];
        let together = resulting
            .iter()
            .fold(0, |bits, s| bits | PAIRS_OF[s.mask() as usize]);
        let e = &mut self.entries[r.index()];
        e.shared = (e.shared & !touched) | (together & touched);
        e.by_merge &= !touched;
    }

    /// Register-merging hardware found identical values in `r` for `t`
    /// and `u` (Section 4.2.7): set the pair bit with merge provenance.
    pub fn set_merged(&mut self, r: Reg, t: usize, u: usize) {
        if r.is_zero() {
            return;
        }
        let bit = 1 << pair_index(t, u);
        let e = &mut self.entries[r.index()];
        e.shared |= bit;
        e.by_merge |= bit;
        self.merge_sets += 1;
    }

    /// Audit structural invariants of the table (used by
    /// `Simulator::validate`): every provenance bit must annotate a set
    /// sharing bit (`by_merge ⊆ shared`), and no entry may carry bits
    /// beyond the [`NUM_PAIRS`] that exist. Both hold by construction —
    /// [`Self::set_merged`] sets `shared` alongside `by_merge`, and
    /// [`Self::update_dest`] clears provenance for every bit it touches —
    /// so a violation means state corruption.
    ///
    /// # Errors
    ///
    /// Returns a description of the first corrupt entry.
    pub fn audit(&self) -> Result<(), String> {
        let valid: u8 = (1 << NUM_PAIRS) - 1;
        for (i, e) in self.entries.iter().enumerate() {
            if e.shared & !valid != 0 || e.by_merge & !valid != 0 {
                return Err(format!(
                    "rst: register r{i} has pair bits beyond NUM_PAIRS (shared={:#04x}, by_merge={:#04x})",
                    e.shared, e.by_merge
                ));
            }
            if e.by_merge & !e.shared != 0 {
                return Err(format!(
                    "rst: register r{i} has merge provenance without sharing (shared={:#08b}, by_merge={:#08b})",
                    e.shared, e.by_merge
                ));
            }
        }
        Ok(())
    }

    /// Test hook: corrupt the entry for `r` by setting the pair's
    /// provenance bit *without* the sharing bit — a state normal
    /// operation can never produce, used to prove [`Self::audit`] and
    /// `Simulator::validate` actually detect corruption.
    #[doc(hidden)]
    pub fn debug_corrupt_provenance(&mut self, r: Reg, t: usize, u: usize) {
        let bit = 1 << pair_index(t, u);
        let e = &mut self.entries[r.index()];
        e.shared &= !bit;
        e.by_merge |= bit;
    }

    /// Fault-injection hook: XOR raw bit masks into the entry for
    /// register index `reg` — unlike [`Self::restore_raw`] this applies
    /// arbitrary corruption (including unreachable states) without any
    /// audit, exactly like a particle strike would. Not part of the
    /// stable API.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is out of range.
    #[doc(hidden)]
    pub fn debug_xor_entry(&mut self, reg: usize, shared_xor: u8, by_merge_xor: u8) {
        let e = &mut self.entries[reg];
        e.shared ^= shared_xor;
        e.by_merge ^= by_merge_xor;
    }

    /// Raw `(shared, by_merge)` pair-bit bytes per architected register,
    /// for checkpointing warm sharing state.
    pub fn entries_raw(&self) -> [(u8, u8); NUM_REGS] {
        let mut out = [(0u8, 0u8); NUM_REGS];
        for (o, e) in out.iter_mut().zip(&self.entries) {
            *o = (e.shared, e.by_merge);
        }
        out
    }

    /// Overwrite the table from checkpointed raw entries (the inverse of
    /// [`Self::entries_raw`]). Lifetime update/merge counters are *not*
    /// restored — a resumed run reports statistics for the resumed
    /// portion only.
    ///
    /// # Panics
    ///
    /// Panics (debug) if a restored entry would fail [`Self::audit`].
    pub fn restore_raw(&mut self, raw: &[(u8, u8); NUM_REGS]) {
        for (e, &(shared, by_merge)) in self.entries.iter_mut().zip(raw) {
            e.shared = shared;
            e.by_merge = by_merge;
        }
        debug_assert!(self.audit().is_ok(), "restored RST fails audit");
    }

    /// Number of destination updates performed (energy accounting: the
    /// RST update logic runs for every renamed instruction).
    pub fn update_count(&self) -> u64 {
        self.updates
    }

    /// Number of pair bits set by register merging.
    pub fn merge_set_count(&self) -> u64 {
        self.merge_sets
    }
}

impl Default for RegSharingTable {
    fn default() -> Self {
        RegSharingTable::new_all_shared()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_index_is_a_bijection() {
        let mut seen = [false; NUM_PAIRS];
        for t in 0..4 {
            for u in (t + 1)..4 {
                let i = pair_index(t, u);
                assert!(!seen[i], "pair ({t},{u}) collides");
                seen[i] = true;
                assert_eq!(pair_index(u, t), i, "order-insensitive");
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic]
    fn self_pair_panics() {
        let _ = pair_index(2, 2);
    }

    #[test]
    fn initial_state_all_shared() {
        let rst = RegSharingTable::new_all_shared();
        for r in Reg::all() {
            assert!(rst.group_shared(r, Itid::all(4)));
        }
        let none = RegSharingTable::new_none_shared();
        assert!(!none.pair_shared(Reg::R1, 0, 1));
        assert!(none.pair_shared(Reg::R0, 0, 1), "r0 always shared");
    }

    #[test]
    fn full_split_clears_all_pairs_in_itid() {
        let mut rst = RegSharingTable::new_all_shared();
        let itid = Itid::all(4);
        let split: Vec<Itid> = (0..4).map(Itid::single).collect();
        rst.update_dest(Reg::R3, itid, &split);
        for t in 0..4 {
            for u in (t + 1)..4 {
                assert!(!rst.pair_shared(Reg::R3, t, u));
            }
        }
        assert!(rst.pair_shared(Reg::R4, 0, 1), "other regs untouched");
    }

    #[test]
    fn partial_split_keeps_subgroup_bits() {
        let mut rst = RegSharingTable::new_none_shared();
        // 4-thread fetch splits into {0,1} and {2,3}.
        rst.update_dest(
            Reg::R7,
            Itid::all(4),
            &[Itid::from_mask(0b0011), Itid::from_mask(0b1100)],
        );
        assert!(rst.pair_shared(Reg::R7, 0, 1));
        assert!(rst.pair_shared(Reg::R7, 2, 3));
        assert!(!rst.pair_shared(Reg::R7, 0, 2));
        assert!(!rst.pair_shared(Reg::R7, 1, 3));
    }

    #[test]
    fn pairs_outside_itid_untouched() {
        let mut rst = RegSharingTable::new_all_shared();
        // Only threads 0,1 fetched; pair (2,3) must keep its bit.
        rst.update_dest(
            Reg::R2,
            Itid::from_mask(0b0011),
            &[Itid::single(0), Itid::single(1)],
        );
        assert!(!rst.pair_shared(Reg::R2, 0, 1));
        assert!(rst.pair_shared(Reg::R2, 2, 3), "(2,3) untouched");
        // Mixed pair (one in, one out) is cleared per Section 4.2.3.
        assert!(!rst.pair_shared(Reg::R2, 0, 2));
        assert!(!rst.pair_shared(Reg::R2, 1, 3));
    }

    #[test]
    fn singleton_write_clears_pairs_involving_writer() {
        let mut rst = RegSharingTable::new_all_shared();
        // A divergent-path instruction in thread 1 writes r9.
        let one = Itid::single(1);
        rst.update_dest(Reg::R9, one, &[one]);
        assert!(!rst.pair_shared(Reg::R9, 0, 1));
        assert!(!rst.pair_shared(Reg::R9, 1, 2));
        assert!(!rst.pair_shared(Reg::R9, 1, 3));
        assert!(
            rst.pair_shared(Reg::R9, 0, 2),
            "non-writer pairs keep state"
        );
    }

    #[test]
    fn zero_register_is_immutably_shared() {
        let mut rst = RegSharingTable::new_all_shared();
        rst.update_dest(Reg::R0, Itid::single(0), &[Itid::single(0)]);
        assert!(rst.pair_shared(Reg::R0, 0, 1));
        rst.set_merged(Reg::R0, 0, 1);
        assert!(!rst.pair_by_merge(Reg::R0, 0, 1));
    }

    #[test]
    fn merge_provenance_tracked_and_cleared() {
        let mut rst = RegSharingTable::new_none_shared();
        rst.set_merged(Reg::R5, 0, 1);
        assert!(rst.pair_shared(Reg::R5, 0, 1));
        assert!(rst.pair_by_merge(Reg::R5, 0, 1));
        assert_eq!(rst.merge_set_count(), 1);
        // A subsequent rename-time update resets provenance.
        let both = Itid::from_mask(0b0011);
        rst.update_dest(Reg::R5, both, &[both]);
        assert!(rst.pair_shared(Reg::R5, 0, 1));
        assert!(!rst.pair_by_merge(Reg::R5, 0, 1));
    }

    #[test]
    fn audit_passes_through_normal_operation() {
        let mut rst = RegSharingTable::new_all_shared();
        assert!(rst.audit().is_ok());
        rst.update_dest(
            Reg::R3,
            Itid::all(4),
            &[Itid::from_mask(0b0011), Itid::from_mask(0b1100)],
        );
        rst.set_merged(Reg::R3, 0, 2);
        rst.update_dest(
            Reg::R3,
            Itid::from_mask(0b0101),
            &[Itid::single(0), Itid::single(2)],
        );
        assert!(rst.audit().is_ok());
    }

    #[test]
    fn audit_catches_corrupted_provenance() {
        let mut rst = RegSharingTable::new_all_shared();
        rst.debug_corrupt_provenance(Reg::R7, 1, 3);
        let err = rst.audit().unwrap_err();
        assert!(err.contains("r7"), "error names the register: {err}");
    }

    #[test]
    fn pair_tables_match_pair_index() {
        for mask in 0u8..16 {
            let itid_has = |t: usize| mask & (1 << t) != 0;
            let (mut within, mut touching) = (0u8, 0u8);
            for t in 0..4 {
                for u in (t + 1)..4 {
                    let bit = 1 << pair_index(t, u);
                    if itid_has(t) && itid_has(u) {
                        within |= bit;
                    }
                    if itid_has(t) || itid_has(u) {
                        touching |= bit;
                    }
                }
            }
            assert_eq!(PAIRS_OF[mask as usize], within, "PAIRS_OF[{mask:04b}]");
            assert_eq!(TOUCHING[mask as usize], touching, "TOUCHING[{mask:04b}]");
        }
    }

    #[test]
    fn pair_bits_agree_with_per_pair_queries() {
        let mut rst = RegSharingTable::new_none_shared();
        rst.set_merged(Reg::R4, 0, 2);
        rst.update_dest(Reg::R4, Itid::from_mask(0b1010), &[Itid::from_mask(0b1010)]);
        for r in Reg::all() {
            let (shared, by_merge) = rst.pair_bits(r);
            for t in 0..4 {
                for u in (t + 1)..4 {
                    let bit = 1 << pair_index(t, u);
                    assert_eq!(
                        shared & bit != 0,
                        rst.pair_shared(r, t, u),
                        "{r:?} ({t},{u})"
                    );
                    assert_eq!(
                        by_merge & bit != 0,
                        rst.pair_by_merge(r, t, u),
                        "{r:?} ({t},{u})"
                    );
                }
            }
        }
        assert_eq!(rst.pair_bits(Reg::R0), (0x3f, 0));
        assert_eq!(rst.pair_bits(Reg::R4).1, 1 << pair_index(0, 2));
    }

    /// Reference destination update, pair by pair as Section 4.2.3 states
    /// it: the mask form must match it bit for bit.
    fn update_dest_by_pairs(entry: (u8, u8), itid: Itid, resulting: &[Itid]) -> (u8, u8) {
        let (mut shared, mut by_merge) = entry;
        for t in 0..mmt_isa::MAX_THREADS {
            for u in (t + 1)..mmt_isa::MAX_THREADS {
                if !itid.contains(t) && !itid.contains(u) {
                    continue;
                }
                let bit = 1 << pair_index(t, u);
                if resulting.iter().any(|s| s.contains(t) && s.contains(u)) {
                    shared |= bit;
                } else {
                    shared &= !bit;
                }
                by_merge &= !bit;
            }
        }
        (shared, by_merge)
    }

    /// Every set partition of `mask`, as lists of ITIDs.
    fn partitions(mask: u8) -> Vec<Vec<Itid>> {
        if mask == 0 {
            return vec![Vec::new()];
        }
        let lowest = mask & mask.wrapping_neg();
        let rest = mask & !lowest;
        let mut out = Vec::new();
        // The block holding the lowest thread, then a partition of the rest.
        let mut sub = rest;
        loop {
            let block = Itid::from_mask(lowest | sub);
            for mut tail in partitions(rest & !sub) {
                tail.insert(0, block);
                out.push(tail);
            }
            if sub == 0 {
                break;
            }
            sub = (sub - 1) & rest;
        }
        out
    }

    #[test]
    fn mask_update_dest_matches_pair_loop_exhaustively() {
        let mut cases = 0;
        for mask in 1u8..16 {
            let itid = Itid::from_mask(mask);
            for resulting in partitions(mask) {
                for shared in 0u8..64 {
                    for by_merge in 0u8..64 {
                        // `restore_raw` audits, and a prior entry may
                        // break `by_merge ⊆ shared`: XOR the bits in.
                        let mut rst = RegSharingTable::new_none_shared();
                        rst.debug_xor_entry(Reg::R9.index(), shared, by_merge);
                        rst.update_dest(Reg::R9, itid, &resulting);
                        let want = update_dest_by_pairs((shared, by_merge), itid, &resulting);
                        assert_eq!(
                            rst.entries_raw()[Reg::R9.index()],
                            want,
                            "itid {itid} -> {resulting:?}, prior ({shared:#08b}, {by_merge:#08b})"
                        );
                        cases += 1;
                    }
                }
            }
        }
        // 51 (ITID, partition) pairs: the Bell numbers 1, 2, 5, 15 summed
        // over the 4, 6, 4, 1 masks of each size.
        assert_eq!(cases, 51 * 64 * 64);
    }

    #[test]
    fn group_shared_requires_every_pair() {
        let mut rst = RegSharingTable::new_all_shared();
        rst.update_dest(
            Reg::R6,
            Itid::all(4),
            &[Itid::from_mask(0b0111), Itid::single(3)],
        );
        assert!(rst.group_shared(Reg::R6, Itid::from_mask(0b0111)));
        assert!(!rst.group_shared(Reg::R6, Itid::all(4)));
        assert!(
            rst.group_shared(Reg::R6, Itid::single(3)),
            "singleton trivially shared"
        );
    }
}
