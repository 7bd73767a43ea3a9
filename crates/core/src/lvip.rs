//! Load Values Identical Predictor (paper Section 4.2.5).
//!
//! In multi-execution workloads a merged load with identical inputs
//! computes one address, but each process's private memory may hold a
//! different value there. The LVIP predicts whether the values will be
//! identical: it is a PC-indexed table of loads that have *mispredicted
//! before*; absent PCs predict "identical" (the optimistic default the
//! paper chose based on \[34\]'s observation that such loads usually do
//! return the same value).

/// A direct-mapped, tagged table of load PCs that previously loaded
/// different values across processes.
///
/// # Examples
///
/// ```
/// use mmt_sim::Lvip;
/// let mut p = Lvip::new(4096);
/// assert!(p.predict_identical(0x40)); // optimistic default
/// p.record_mismatch(0x40);
/// assert!(!p.predict_identical(0x40)); // learned
/// ```
#[derive(Debug, Clone)]
pub struct Lvip {
    entries: Vec<Option<u64>>,
    mask: u64,
    lookups: u64,
    mispredicts: u64,
}

impl Lvip {
    /// Create a predictor with `entries` slots (Table 4: 4K).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or not a power of two.
    pub fn new(entries: usize) -> Lvip {
        assert!(entries.is_power_of_two() && entries > 0);
        Lvip {
            entries: vec![None; entries],
            mask: entries as u64 - 1,
            lookups: 0,
            mispredicts: 0,
        }
    }

    /// Predict whether the load at `pc` will read identical values in all
    /// processes. Counts a predictor access.
    pub fn predict_identical(&mut self, pc: u64) -> bool {
        self.lookups += 1;
        self.entries[(pc & self.mask) as usize] != Some(pc)
    }

    /// The load at `pc` read different values while predicted identical:
    /// remember it (and count the mismatch).
    pub fn record_mismatch(&mut self, pc: u64) {
        self.entries[(pc & self.mask) as usize] = Some(pc);
        self.mispredicts += 1;
    }

    /// The load at `pc` read identical values: clear a stale mismatch
    /// entry so intermittently-divergent loads can re-merge.
    pub fn record_match(&mut self, pc: u64) {
        let slot = (pc & self.mask) as usize;
        if self.entries[slot] == Some(pc) {
            self.entries[slot] = None;
        }
    }

    /// Count `n` predictions without making them: the quiet-cycle fast
    /// path's replay of a stalled dispatch's per-cycle lookups.
    pub(crate) fn charge_lookups(&mut self, n: u64) {
        self.lookups += n;
    }

    /// The learned table contents (slot -> remembered mismatching load
    /// PC), for checkpointing warm predictor state.
    pub fn entries(&self) -> &[Option<u64>] {
        &self.entries
    }

    /// Replace the table contents with a checkpoint's, moving them in.
    /// The lifetime lookup/mispredict counters are *not* restored — a
    /// resumed run reports statistics for the resumed portion only.
    ///
    /// # Panics
    ///
    /// Panics if `entries` does not match the configured table size.
    pub fn restore_entries(&mut self, entries: Vec<Option<u64>>) {
        assert_eq!(
            entries.len(),
            self.entries.len(),
            "LVIP snapshot size mismatch"
        );
        self.entries = entries;
    }

    /// Move the table contents out, leaving an empty table: the
    /// by-value counterpart of [`Lvip::entries`] for a simulator that
    /// is being consumed.
    pub(crate) fn take_entries(&mut self) -> Vec<Option<u64>> {
        std::mem::take(&mut self.entries)
    }

    /// Fault-injection hook: XOR `bits` into slot `slot`'s remembered
    /// tag (an empty slot becomes a bogus learned entry holding exactly
    /// `bits`). Not part of the stable API.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[doc(hidden)]
    pub fn debug_xor_slot(&mut self, slot: usize, bits: u64) {
        self.entries[slot] = Some(self.entries[slot].unwrap_or(0) ^ bits);
    }

    /// Total predictions made.
    pub fn lookup_count(&self) -> u64 {
        self.lookups
    }

    /// Total [`Self::record_mismatch`] calls. The pipeline verifies a
    /// merged load at every dispatch attempt, so a load stalled at the
    /// dispatch head counts once per retry: more than the rollbacks it
    /// charges, which happen once per dispatched load.
    pub fn mispredict_count(&self) -> u64 {
        self.mispredicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimistic_until_burned() {
        let mut p = Lvip::new(16);
        assert!(p.predict_identical(5));
        p.record_mismatch(5);
        assert!(!p.predict_identical(5));
        assert_eq!(p.mispredict_count(), 1);
        assert_eq!(p.lookup_count(), 2);
    }

    #[test]
    fn tag_disambiguates_aliases() {
        let mut p = Lvip::new(16);
        p.record_mismatch(5);
        // PC 21 maps to the same slot but has a different tag:
        assert!(p.predict_identical(21));
        // ...and learning 21 evicts 5.
        p.record_mismatch(21);
        assert!(p.predict_identical(5));
        assert!(!p.predict_identical(21));
    }

    #[test]
    fn record_match_forgives() {
        let mut p = Lvip::new(16);
        p.record_mismatch(8);
        assert!(!p.predict_identical(8));
        p.record_match(8);
        assert!(p.predict_identical(8));
        // record_match on an alias does not clobber an unrelated entry.
        p.record_mismatch(8);
        p.record_match(24);
        assert!(!p.predict_identical(8));
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_panics() {
        let _ = Lvip::new(1000);
    }
}
