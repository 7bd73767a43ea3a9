//! The instruction splitter — the paper's extra pipeline stage between
//! decode and register renaming (Section 4.2.2).
//!
//! Given a fetch-identical instruction with ITID `M`, the splitter
//! produces the **minimal** set of 1–4 instructions that execute
//! correctly:
//!
//! * The *filter* masks the Register Sharing Table's pair bits down to
//!   pairs inside `M`, AND-ing across every source register.
//! * The *chooser* repeatedly picks the largest thread subset whose pairs
//!   are all shared, guaranteeing a minimal partition.
//!
//! Both are combinational logic on 4 + 6 bits, so the simulator computes
//! the chooser once, at compile time, for every (ITID, shared pairs)
//! input (the `PARTITION` table); a split is then an AND/OR over the
//! sources' pair bits and one table lookup.
//!
//! Special cases implement Table 2's decision logic: multi-threaded loads
//! merge like ALU ops (shared memory returns one value); multi-execution
//! loads additionally consult the [`Lvip`]; multi-execution stores keep a
//! single instruction but the LSQ performs the accesses separately;
//! `tid` always splits (its result is different in every thread by
//! definition).

use crate::config::MmtLevel;
use crate::itid::Itid;
use crate::lvip::Lvip;
use crate::rst::{RegSharingTable, NUM_PAIRS, PAIRS_OF};
use mmt_isa::{Inst, MemSharing, MAX_THREADS};

/// One resulting instruction of a split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitPart {
    /// Threads this instruction executes for.
    pub itid: Itid,
    /// True for a merged multi-execution load kept whole on an LVIP
    /// "values identical" prediction — the LSQ must perform the loads
    /// separately and verify (Section 4.2.5).
    pub lvip_speculative: bool,
}

/// A split's resulting parts: an inline fixed-capacity list (a split
/// partitions an ITID, so there are never more than
/// [`MAX_THREADS`] parts). Lives entirely on the stack — the
/// splitter runs for every dispatched instruction, and the previous
/// `Vec<SplitPart>` representation made dispatch allocate per
/// instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartList {
    parts: [SplitPart; MAX_THREADS],
    len: u8,
}

impl PartList {
    /// An empty list.
    pub fn new() -> PartList {
        PartList {
            parts: [SplitPart {
                // Placeholder for unused slots; never read (len gates).
                itid: Itid::single(0),
                lvip_speculative: false,
            }; MAX_THREADS],
            len: 0,
        }
    }

    /// Append a part.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds [`MAX_THREADS`] parts —
    /// impossible for any partition of a valid ITID.
    pub fn push(&mut self, part: SplitPart) {
        self.parts[self.len as usize] = part;
        self.len += 1;
    }
}

impl Default for PartList {
    fn default() -> Self {
        PartList::new()
    }
}

impl std::ops::Deref for PartList {
    type Target = [SplitPart];
    fn deref(&self) -> &[SplitPart] {
        &self.parts[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a PartList {
    type Item = &'a SplitPart;
    type IntoIter = std::slice::Iter<'a, SplitPart>;
    fn into_iter(self) -> Self::IntoIter {
        self[..].iter()
    }
}

impl FromIterator<SplitPart> for PartList {
    fn from_iter<I: IntoIterator<Item = SplitPart>>(iter: I) -> PartList {
        let mut list = PartList::new();
        for p in iter {
            list.push(p);
        }
        list
    }
}

/// The splitter's decision for one fetched instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitOutcome {
    /// The minimal partition of the fetched ITID (1–4 parts).
    pub parts: PartList,
    /// True when some merged part relied on a sharing bit established by
    /// the register-merging hardware (feeds Figure 5(b)'s
    /// "Exe-Identical+RegMerge" category).
    pub regmerge_assisted: bool,
    /// How many times the LVIP was consulted for this decision (once per
    /// merged ME-load part, hit or miss).
    pub lvip_lookups: u8,
}

impl SplitOutcome {
    fn single(itid: Itid) -> SplitOutcome {
        let mut parts = PartList::new();
        parts.push(SplitPart {
            itid,
            lvip_speculative: false,
        });
        SplitOutcome {
            parts,
            regmerge_assisted: false,
            lvip_lookups: 0,
        }
    }

    fn full_split(itid: Itid) -> SplitOutcome {
        SplitOutcome {
            parts: itid
                .threads()
                .map(|t| SplitPart {
                    itid: Itid::single(t),
                    lvip_speculative: false,
                })
                .collect(),
            regmerge_assisted: false,
            lvip_lookups: 0,
        }
    }

    /// The resulting ITIDs.
    #[cfg(test)]
    fn itids(&self) -> Vec<Itid> {
        self.parts.iter().map(|p| p.itid).collect()
    }
}

/// Split a fetched instruction into its minimal execution set.
///
/// `pc` indexes the LVIP for multi-execution loads; `sharing` is the
/// workload's memory model; `level` gates shared execution (MMT-F always
/// splits merged instructions).
pub fn split_instruction_at(
    pc: u64,
    inst: Inst,
    itid: Itid,
    sharing: MemSharing,
    level: MmtLevel,
    rst: &RegSharingTable,
    lvip: &mut Lvip,
) -> SplitOutcome {
    if !itid.is_merged() {
        return SplitOutcome::single(itid);
    }
    if !level.shared_execute() {
        return SplitOutcome::full_split(itid);
    }
    if matches!(inst, Inst::Tid { .. }) {
        return SplitOutcome::full_split(itid);
    }

    // The filter: pairs sharing every source, and pairs some source
    // shares by register merging.
    let (mut shared, mut by_merge) = ((1 << NUM_PAIRS) - 1, 0);
    for r in inst.sources().iter() {
        let (s, m) = rst.pair_bits(r);
        shared &= s;
        by_merge |= m;
    }
    let (subsets, len) = PARTITION[itid.mask() as usize][shared as usize];
    let mut parts = PartList::new();
    let mut regmerge_assisted = false;
    for &subset in &subsets[..len as usize] {
        regmerge_assisted |= PAIRS_OF[subset as usize] & by_merge != 0;
        parts.push(SplitPart {
            itid: Itid::from_mask(subset),
            lvip_speculative: false,
        });
    }

    let mut lvip_lookups = 0u8;
    if matches!(inst, Inst::Ld { .. }) && sharing == MemSharing::PerThread {
        let mut adjusted = PartList::new();
        for part in &parts {
            if part.itid.is_merged() {
                lvip_lookups += 1;
                if lvip.predict_identical(pc) {
                    adjusted.push(SplitPart {
                        itid: part.itid,
                        lvip_speculative: true,
                    });
                } else {
                    for t in part.itid.threads() {
                        adjusted.push(SplitPart {
                            itid: Itid::single(t),
                            lvip_speculative: false,
                        });
                    }
                }
            } else {
                adjusted.push(*part);
            }
        }
        parts = adjusted;
    }

    SplitOutcome {
        parts,
        regmerge_assisted,
        lvip_lookups,
    }
}

/// `PARTITION[mask][shared]`: the chooser's parts, in choice order, for
/// an instruction fetched with ITID `mask` whose sources share exactly
/// the pairs in `shared`.
static PARTITION: [[([u8; MAX_THREADS], u8); 1 << NUM_PAIRS]; 1 << MAX_THREADS] = {
    let mut table = [[([0; MAX_THREADS], 0); 1 << NUM_PAIRS]; 1 << MAX_THREADS];
    let mut mask = 1;
    while mask < table.len() {
        let mut shared = 0;
        while shared < table[mask].len() {
            table[mask][shared] = choose_partition(mask as u8, shared as u8);
            shared += 1;
        }
        mask += 1;
    }
    table
};

/// The chooser: repeatedly take the largest subset of the remaining
/// threads (ties broken toward the lower mask, deterministically) in
/// which every thread pair is in `shared`. A single thread always
/// qualifies, so every pass makes progress.
const fn choose_partition(mask: u8, shared: u8) -> ([u8; MAX_THREADS], u8) {
    let mut parts = [0; MAX_THREADS];
    let mut len = 0;
    let mut remaining = mask;
    while remaining != 0 {
        let (mut best, mut best_count) = (0u8, 0);
        // Enumerate the non-empty subsets of `remaining`.
        let mut sub = remaining;
        while sub != 0 {
            let count = sub.count_ones();
            let better = count > best_count || (count == best_count && sub < best);
            if better && PAIRS_OF[sub as usize] & !shared == 0 {
                best = sub;
                best_count = count;
            }
            sub = (sub - 1) & remaining;
        }
        parts[len] = best;
        len += 1;
        remaining &= !best;
    }
    (parts, len as u8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_isa::{AluOp, Reg};

    fn alu() -> Inst {
        Inst::Alu {
            op: AluOp::Add,
            rd: Reg::R3,
            rs1: Reg::R1,
            rs2: Reg::R2,
        }
    }

    fn load() -> Inst {
        Inst::Ld {
            rd: Reg::R3,
            base: Reg::R1,
            off: 0,
        }
    }

    fn store() -> Inst {
        Inst::St {
            src: Reg::R2,
            base: Reg::R1,
            off: 0,
        }
    }

    fn split_at(
        inst: Inst,
        itid: Itid,
        sharing: MemSharing,
        level: MmtLevel,
        rst: &RegSharingTable,
        lvip: &mut Lvip,
    ) -> SplitOutcome {
        split_instruction_at(100, inst, itid, sharing, level, rst, lvip)
    }

    #[test]
    fn singleton_passes_through() {
        let rst = RegSharingTable::new_all_shared();
        let mut lvip = Lvip::new(16);
        let out = split_at(
            alu(),
            Itid::single(2),
            MemSharing::Shared,
            MmtLevel::Fxr,
            &rst,
            &mut lvip,
        );
        assert_eq!(out.parts.len(), 1);
        assert_eq!(out.parts[0].itid, Itid::single(2));
    }

    #[test]
    fn mmt_f_always_splits() {
        let rst = RegSharingTable::new_all_shared();
        let mut lvip = Lvip::new(16);
        let out = split_at(
            alu(),
            Itid::all(4),
            MemSharing::Shared,
            MmtLevel::F,
            &rst,
            &mut lvip,
        );
        assert_eq!(out.parts.len(), 4);
        assert!(out.parts.iter().all(|p| !p.itid.is_merged()));
    }

    #[test]
    fn fully_shared_alu_stays_merged() {
        let rst = RegSharingTable::new_all_shared();
        let mut lvip = Lvip::new(16);
        let out = split_at(
            alu(),
            Itid::all(4),
            MemSharing::Shared,
            MmtLevel::Fx,
            &rst,
            &mut lvip,
        );
        assert_eq!(out.parts.len(), 1);
        assert_eq!(out.parts[0].itid, Itid::all(4));
    }

    #[test]
    fn paper_example_itid_0110() {
        // Section 4.2.2's example: ITID 0110 either stays merged or
        // splits into 0100 and 0010.
        let mut rst = RegSharingTable::new_all_shared();
        let mut lvip = Lvip::new(16);
        let itid = Itid::from_mask(0b0110);
        let merged = split_at(
            alu(),
            itid,
            MemSharing::Shared,
            MmtLevel::Fx,
            &rst,
            &mut lvip,
        );
        assert_eq!(merged.itids(), vec![itid]);

        // Now make r1 differ between threads 1 and 2.
        rst.update_dest(Reg::R1, itid, &[Itid::single(1), Itid::single(2)]);
        let split = split_at(
            alu(),
            itid,
            MemSharing::Shared,
            MmtLevel::Fx,
            &rst,
            &mut lvip,
        );
        assert_eq!(
            split.itids(),
            vec![Itid::from_mask(0b0010), Itid::from_mask(0b0100)]
        );
    }

    #[test]
    fn four_way_worst_case_splits_to_four() {
        // "an incoming thread with ITID 1111 turns into four instructions
        // with ITIDs 1000, 0100, 0010, and 0001" (Section 4.2).
        let mut rst = RegSharingTable::new_all_shared();
        let all = Itid::all(4);
        rst.update_dest(
            Reg::R1,
            all,
            [0, 1, 2, 3].map(Itid::single).to_vec().as_slice(),
        );
        let mut lvip = Lvip::new(16);
        let out = split_at(
            alu(),
            all,
            MemSharing::Shared,
            MmtLevel::Fxr,
            &rst,
            &mut lvip,
        );
        assert_eq!(out.parts.len(), 4);
        let mut covered = 0u8;
        for p in &out.parts {
            assert_eq!(p.itid.count(), 1);
            covered |= p.itid.mask();
        }
        assert_eq!(covered, 0b1111, "parts partition the ITID");
    }

    #[test]
    fn chooser_picks_largest_subgroup() {
        // Threads {0,1,2} share everything; thread 3 differs in r2.
        let mut rst = RegSharingTable::new_all_shared();
        let all = Itid::all(4);
        rst.update_dest(Reg::R2, all, &[Itid::from_mask(0b0111), Itid::single(3)]);
        let mut lvip = Lvip::new(16);
        let out = split_at(
            alu(),
            all,
            MemSharing::Shared,
            MmtLevel::Fx,
            &rst,
            &mut lvip,
        );
        assert_eq!(
            out.itids(),
            vec![Itid::from_mask(0b0111), Itid::single(3)],
            "minimal set: one triple + one singleton"
        );
    }

    #[test]
    fn pairwise_but_not_transitive_sharing_still_partitions() {
        // Construct bits where (0,1) and (1,2) share r1 but (0,2) do not:
        // the chooser must not merge {0,1,2}; the minimal partition is
        // {{0,1},{2}} or {{1,2},{0}} — both size 2; determinism picks one.
        let mut rst = RegSharingTable::new_none_shared();
        rst.set_merged(Reg::R1, 0, 1);
        rst.set_merged(Reg::R1, 1, 2);
        rst.set_merged(Reg::R2, 0, 1);
        rst.set_merged(Reg::R2, 1, 2);
        let itid = Itid::from_mask(0b0111);
        let mut lvip = Lvip::new(16);
        let out = split_at(
            alu(),
            itid,
            MemSharing::Shared,
            MmtLevel::Fx,
            &rst,
            &mut lvip,
        );
        assert_eq!(out.parts.len(), 2);
        let covered: u8 = out
            .parts
            .iter()
            .map(|p| p.itid.mask())
            .fold(0, |a, b| a | b);
        assert_eq!(covered, 0b0111);
        // Deterministic tie-break: lowest mask among largest subsets.
        assert_eq!(out.parts[0].itid.mask(), 0b0011);
    }

    #[test]
    fn tid_always_splits_fully() {
        let rst = RegSharingTable::new_all_shared();
        let mut lvip = Lvip::new(16);
        let out = split_at(
            Inst::Tid { rd: Reg::R1 },
            Itid::all(4),
            MemSharing::Shared,
            MmtLevel::Fxr,
            &rst,
            &mut lvip,
        );
        assert_eq!(out.parts.len(), 4);
    }

    #[test]
    fn mt_load_merges_like_alu() {
        // Table 2: Load MT X-id => MERGE (no LVIP involved).
        let rst = RegSharingTable::new_all_shared();
        let mut lvip = Lvip::new(16);
        let out = split_at(
            load(),
            Itid::all(2),
            MemSharing::Shared,
            MmtLevel::Fx,
            &rst,
            &mut lvip,
        );
        assert_eq!(out.parts.len(), 1);
        assert!(!out.parts[0].lvip_speculative);
        assert_eq!(lvip.lookup_count(), 0);
    }

    #[test]
    fn me_load_checks_lvip_optimistic() {
        // Table 2: Load ME X-id => Check LVIP.
        let rst = RegSharingTable::new_all_shared();
        let mut lvip = Lvip::new(16);
        let out = split_at(
            load(),
            Itid::all(2),
            MemSharing::PerThread,
            MmtLevel::Fx,
            &rst,
            &mut lvip,
        );
        assert_eq!(out.parts.len(), 1);
        assert!(out.parts[0].lvip_speculative, "merged pending verification");
        assert_eq!(lvip.lookup_count(), 1);
    }

    #[test]
    fn me_load_splits_after_learned_mismatch() {
        let rst = RegSharingTable::new_all_shared();
        let mut lvip = Lvip::new(16);
        lvip.record_mismatch(100); // same PC used by split_at()
        let out = split_at(
            load(),
            Itid::all(2),
            MemSharing::PerThread,
            MmtLevel::Fx,
            &rst,
            &mut lvip,
        );
        assert_eq!(out.parts.len(), 2);
        assert!(out.parts.iter().all(|p| !p.lvip_speculative));
    }

    #[test]
    fn me_store_keeps_single_instruction() {
        // Table 2: Store ME => SPLIT in the LSQ; the instruction itself
        // remains one entry (the pipeline performs per-thread accesses).
        let rst = RegSharingTable::new_all_shared();
        let mut lvip = Lvip::new(16);
        let out = split_at(
            store(),
            Itid::all(2),
            MemSharing::PerThread,
            MmtLevel::Fx,
            &rst,
            &mut lvip,
        );
        assert_eq!(out.parts.len(), 1);
        assert!(out.parts[0].itid.is_merged());
    }

    #[test]
    fn regmerge_provenance_propagates() {
        let mut rst = RegSharingTable::new_none_shared();
        rst.set_merged(Reg::R1, 0, 1);
        rst.set_merged(Reg::R2, 0, 1);
        let mut lvip = Lvip::new(16);
        let out = split_at(
            alu(),
            Itid::all(2),
            MemSharing::Shared,
            MmtLevel::Fxr,
            &rst,
            &mut lvip,
        );
        assert_eq!(out.parts.len(), 1);
        assert!(out.regmerge_assisted);
    }

    /// Reference chooser, evaluated pair by pair: enumerate the subsets of
    /// the remaining threads, testing every pair of every source in the
    /// RST. [`PARTITION`] must reproduce its parts, in order.
    fn reference_parts(itid: Itid, inst: Inst, rst: &RegSharingTable) -> (Vec<Itid>, bool) {
        let sources = inst.sources();
        let fully_shared = |mask: u8| {
            if mask.count_ones() < 2 {
                return mask != 0;
            }
            Itid::from_mask(mask)
                .pairs()
                .all(|(t, u)| sources.iter().all(|r| rst.pair_shared(r, t, u)))
        };
        let mut remaining = itid.mask();
        let mut parts = Vec::new();
        let mut regmerge_assisted = false;
        while remaining != 0 {
            let (mut best, mut best_count) = (0u8, 0);
            let mut sub = remaining;
            loop {
                let count = sub.count_ones();
                let better = count > best_count || (count == best_count && sub < best);
                if better && fully_shared(sub) {
                    best = sub;
                    best_count = count;
                }
                if sub == 0 {
                    break;
                }
                sub = (sub - 1) & remaining;
            }
            if best == 0 {
                best = 1 << remaining.trailing_zeros();
            }
            let part = Itid::from_mask(best);
            if part.is_merged() {
                regmerge_assisted |= part
                    .pairs()
                    .any(|(t, u)| sources.iter().any(|r| rst.pair_by_merge(r, t, u)));
            }
            parts.push(part);
            remaining &= !best;
        }
        (parts, regmerge_assisted)
    }

    #[test]
    fn partition_table_matches_reference_chooser_exhaustively() {
        // Every ITID × every R1 and R2 pair pattern; merge provenance on
        // R1 from every pattern `p`, on R2 from its complement, each
        // masked to the pairs the register shares (`by_merge ⊆ shared`).
        let mut lvip = Lvip::new(16);
        let mut raw = [(0u8, 0u8); mmt_isa::reg::NUM_REGS];
        let mut rst = RegSharingTable::new_none_shared();
        let mut assisted = 0u64;
        for mask in 1u8..16 {
            let itid = Itid::from_mask(mask);
            for s1 in 0u8..64 {
                for s2 in 0u8..64 {
                    for p in 0u8..64 {
                        raw[Reg::R1.index()] = (s1, s1 & p);
                        raw[Reg::R2.index()] = (s2, s2 & !p & 0x3f);
                        rst.restore_raw(&raw);
                        let out = split_at(
                            alu(),
                            itid,
                            MemSharing::Shared,
                            MmtLevel::Fxr,
                            &rst,
                            &mut lvip,
                        );
                        let (parts, regmerge) = reference_parts(itid, alu(), &rst);
                        assert_eq!(
                            out.itids(),
                            parts,
                            "itid {itid}, r1 {s1:#08b}, r2 {s2:#08b}"
                        );
                        assert_eq!(
                            out.regmerge_assisted, regmerge,
                            "itid {itid}, r1 {s1:#08b}, r2 {s2:#08b}, provenance {p:#08b}"
                        );
                        assert!(out.parts.iter().all(|p| !p.lvip_speculative));
                        assisted += regmerge as u64;
                    }
                }
            }
        }
        assert!(
            assisted > 0,
            "the provenance patterns reach regmerge_assisted"
        );
    }

    #[test]
    fn parts_always_partition_itid() {
        // Exhaustive: every RST pattern on 2 sources, every ITID.
        for itid_mask in 1u8..16 {
            let itid = Itid::from_mask(itid_mask);
            for pattern in 0u8..64 {
                let mut rst = RegSharingTable::new_none_shared();
                for t in 0..4 {
                    for u in (t + 1)..4 {
                        if pattern & (1 << crate::rst::pair_index(t, u)) != 0 {
                            rst.set_merged(Reg::R1, t, u);
                            rst.set_merged(Reg::R2, t, u);
                        }
                    }
                }
                let mut lvip = Lvip::new(16);
                let out = split_at(
                    alu(),
                    itid,
                    MemSharing::Shared,
                    MmtLevel::Fx,
                    &rst,
                    &mut lvip,
                );
                let mut covered = 0u8;
                for p in &out.parts {
                    assert_eq!(covered & p.itid.mask(), 0, "no overlap");
                    covered |= p.itid.mask();
                    // Every merged part must be genuinely all-shared.
                    for (t, u) in p.itid.pairs() {
                        assert!(rst.pair_shared(Reg::R1, t, u));
                        assert!(rst.pair_shared(Reg::R2, t, u));
                    }
                }
                assert_eq!(covered, itid_mask, "partition covers the ITID");
            }
        }
    }
}
