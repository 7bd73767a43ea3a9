//! Run statistics — every counter needed to regenerate the paper's
//! figures (speedups, instruction-identity breakdowns, fetch-mode
//! occupancy, remerge distances, and the event counts the energy model
//! consumes).

use mmt_frontend::SyncMode;
use mmt_mem::CacheStats;

/// Histogram buckets for "taken branches until remerge" (Section 6.3
/// reports 90% of remerges within 512 branches; Figure 2 uses
/// power-of-two buckets from 16 up).
pub const REMERGE_BUCKETS: [u64; 7] = [16, 32, 64, 128, 256, 512, u64::MAX];

/// Counts of dynamic thread-instructions by the fetch mode they were
/// fetched in (Figure 5(d)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchModeCounts {
    /// Fetched while merged with at least one other thread.
    pub merge: u64,
    /// Fetched independently in DETECT mode.
    pub detect: u64,
    /// Fetched in CATCHUP mode (either side of the catch-up).
    pub catchup: u64,
}
mmt_obs::impl_json! { FetchModeCounts { merge, detect, catchup } }

impl FetchModeCounts {
    /// Total thread-instructions fetched.
    pub fn total(&self) -> u64 {
        self.merge + self.detect + self.catchup
    }

    /// Record one thread-instruction fetched in `mode`.
    pub fn record(&mut self, mode: SyncMode) {
        match mode {
            SyncMode::Merge => self.merge += 1,
            SyncMode::Detect => self.detect += 1,
            SyncMode::Catchup { .. } => self.catchup += 1,
        }
    }

    /// `(merge, detect, catchup)` fractions of the total.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let t = self.total().max(1) as f64;
        (
            self.merge as f64 / t,
            self.detect as f64 / t,
            self.catchup as f64 / t,
        )
    }
}

/// Instruction-identity classification of executed thread-instructions
/// (Figure 5(b)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdentityCounts {
    /// Thread-instructions fetched with a multi-thread ITID but executed
    /// as separate instructions (fetch-identical only).
    pub fetch_identical: u64,
    /// Thread-instructions executed as part of a merged instruction
    /// (execute-identical), excluding the register-merge-assisted ones.
    pub execute_identical: u64,
    /// Execute-identical thread-instructions whose merging relied on a
    /// Register Sharing Table bit set by the register-merging hardware.
    pub execute_identical_regmerge: u64,
    /// Thread-instructions fetched alone (not identical).
    pub private: u64,
}
mmt_obs::impl_json! {
    IdentityCounts {
        fetch_identical, execute_identical, execute_identical_regmerge, private
    }
}

impl IdentityCounts {
    /// Total thread-instructions classified.
    pub fn total(&self) -> u64 {
        self.fetch_identical
            + self.execute_identical
            + self.execute_identical_regmerge
            + self.private
    }
}

/// Per-static-PC dynamic behaviour counters, recorded only when
/// [`crate::SimConfig::record_pc_profile`] is set. Fetch counters are in
/// thread-instruction slots (a merged fetch of 3 threads adds 3 to
/// `fetch_merge`); execution counters are in dispatched uops (a merged
/// dispatch adds 1 to `exec_merged` however many threads it covers).
/// The static predictor compares these against its per-PC merge
/// classification in `mmtpredict`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcCounters {
    /// Thread-instruction slots fetched at this PC while merged.
    pub fetch_merge: u64,
    /// Thread-instruction slots fetched at this PC in DETECT mode.
    pub fetch_detect: u64,
    /// Thread-instruction slots fetched at this PC in CATCHUP mode.
    pub fetch_catchup: u64,
    /// Uops dispatched at this PC covering two or more threads.
    pub exec_merged: u64,
    /// Uops dispatched at this PC for a single thread after its fetch
    /// group split at dispatch (fetched merged, executed apart).
    pub exec_split: u64,
    /// Uops dispatched at this PC for a thread fetched alone.
    pub exec_private: u64,
    /// LVIP consultations for macro-ops dispatched at this PC. Counted
    /// once per *dispatched* macro-op — stall retries re-consult the
    /// global predictor but not this counter, so the per-PC sum can
    /// undercount [`SimStats::lvip_lookups`].
    pub lvip_lookups: u64,
    /// LVIP speculations at this PC verified value-identical at execute.
    pub lvip_hits: u64,
    /// LVIP speculations at this PC that mispredicted (threads loaded
    /// different values and the uop re-executed split).
    pub lvip_misses: u64,
    /// Merged memory macro-ops dispatched at this PC (two or more
    /// threads executing the access together).
    pub mem_merged: u64,
    /// Of [`PcCounters::mem_merged`], macro-ops whose per-thread
    /// effective addresses were not all equal. A statically
    /// address-invariant PC must keep this at zero — the `mmtmem`
    /// differential gate checks exactly that.
    pub mem_addr_diverged: u64,
}
mmt_obs::impl_json! {
    PcCounters {
        fetch_merge, fetch_detect, fetch_catchup, exec_merged, exec_split, exec_private,
        lvip_lookups, lvip_hits, lvip_misses, mem_merged, mem_addr_diverged
    }
}

impl PcCounters {
    /// Record one thread-instruction slot fetched in `mode` (`merged`
    /// forces the MERGE bucket: a member of a merged group is in MERGE
    /// occupancy regardless of its own FSM mode).
    pub fn record_fetch(&mut self, mode: SyncMode, merged: bool) {
        if merged {
            self.fetch_merge += 1;
        } else {
            match mode {
                SyncMode::Merge => self.fetch_merge += 1,
                SyncMode::Detect => self.fetch_detect += 1,
                SyncMode::Catchup { .. } => self.fetch_catchup += 1,
            }
        }
    }

    /// Total thread-instruction slots fetched at this PC.
    pub fn fetch_total(&self) -> u64 {
        self.fetch_merge + self.fetch_detect + self.fetch_catchup
    }

    /// Total uops dispatched at this PC.
    pub fn exec_total(&self) -> u64 {
        self.exec_merged + self.exec_split + self.exec_private
    }

    /// Whether any dynamic activity touched this PC.
    pub fn touched(&self) -> bool {
        self.fetch_total() > 0 || self.exec_total() > 0
    }
}

/// Event counters consumed by the energy model (`mmt-energy`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyEvents {
    /// Cycles simulated (clock tree + leakage).
    pub cycles: u64,
    /// Instruction-cache accesses (one per fetch group per cycle).
    pub icache_accesses: u64,
    /// Data-cache accesses (per-thread for split/ME accesses, once for
    /// merged MT accesses).
    pub dcache_accesses: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// DRAM accesses.
    pub dram_accesses: u64,
    /// Uops that occupied rename/dispatch slots.
    pub renames: u64,
    /// Uops issued to functional units.
    pub executions: u64,
    /// Register-file read ports exercised.
    pub regfile_reads: u64,
    /// Register-file write ports exercised.
    pub regfile_writes: u64,
    /// Instructions committed (ROB retirement slots).
    pub commits: u64,
    /// Branch-predictor accesses.
    pub bpred_accesses: u64,
    /// MMT overhead: Fetch History Buffer records + CAM searches.
    pub fhb_ops: u64,
    /// MMT overhead: Register Sharing Table destination updates.
    pub rst_updates: u64,
    /// MMT overhead: LVIP lookups.
    pub lvip_lookups: u64,
    /// MMT overhead: commit-time register-merge comparisons.
    pub merge_checks: u64,
    /// MMT overhead: splitter evaluations (merged instructions pushed
    /// through the filter/chooser).
    pub split_evals: u64,
}
mmt_obs::impl_json! {
    EnergyEvents {
        cycles, icache_accesses, dcache_accesses, l2_accesses, dram_accesses, renames, executions,
        regfile_reads, regfile_writes, commits, bpred_accesses, fhb_ops, rst_updates, lvip_lookups,
        merge_checks, split_evals
    }
}

/// Complete statistics from one simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Total cycles to finish every thread.
    pub cycles: u64,
    /// Architectural instructions retired, per thread.
    pub retired_per_thread: Vec<u64>,
    /// Macro-instructions fetched (merged groups count once).
    pub macro_ops_fetched: u64,
    /// Uops dispatched after splitting (merged uops count once).
    pub uops_dispatched: u64,
    /// Uops executed (merged uops count once — the execution saving).
    pub uops_executed: u64,
    /// Fetch-mode occupancy of thread-instructions (Figure 5(d)).
    pub fetch_modes: FetchModeCounts,
    /// Identity classification (Figure 5(b)).
    pub identity: IdentityCounts,
    /// Conditional branches executed / mispredicted.
    pub branches: u64,
    /// Mispredicted conditional branches (thread-level).
    pub branch_mispredicts: u64,
    /// LVIP lookups.
    pub lvip_lookups: u64,
    /// LVIP mismatches: dispatch attempts at which a merged
    /// multi-execution load predicted identical read different values.
    /// A load stalled at the dispatch head is re-verified, and counted,
    /// on every retry, so this over-counts rollbacks, which are charged
    /// once per dispatched load ([`PcCounters::lvip_misses`], the
    /// `LvipOutcome::Rollback` trace event).
    pub lvip_mispredicts: u64,
    /// Divergences (merge groups split).
    pub divergences: u64,
    /// Successful remerges.
    pub remerges: u64,
    /// CATCHUP entries that turned out to be false positives.
    pub catchup_false_positives: u64,
    /// Histogram over [`REMERGE_BUCKETS`] of taken branches between
    /// divergence and successful remerge (per remerging thread).
    pub remerge_branch_histogram: [u64; REMERGE_BUCKETS.len()],
    /// Peak number of simultaneously live (dispatched, not yet
    /// reclaimed) uops in the arena — bounded by ROB size once the
    /// free-list reclaims retired entries.
    pub peak_live_uops: u64,
    /// Peak uop-arena footprint in slots (live + free-listed). Stays
    /// flat for long runs instead of growing with instructions executed.
    pub peak_uop_arena: u64,
    /// Heap reallocations of the per-cycle scratch buffers after
    /// construction. Zero after warmup: the steady-state cycle loop is
    /// allocation-free.
    pub scratch_growth_events: u64,
    /// L1 instruction cache statistics.
    pub l1i: CacheStats,
    /// L1 data cache statistics.
    pub l1d: CacheStats,
    /// L2 statistics.
    pub l2: CacheStats,
    /// Energy event counters.
    pub energy: EnergyEvents,
    /// Per-static-PC fetch/execution profile, indexed by PC. Empty
    /// unless [`crate::SimConfig::record_pc_profile`] is set (it costs a
    /// program-sized allocation plus a counter bump per slot).
    pub pc_profile: Vec<PcCounters>,
}
mmt_obs::impl_json! {
    SimStats {
        cycles, retired_per_thread, macro_ops_fetched, uops_dispatched, uops_executed, fetch_modes,
        identity, branches, branch_mispredicts, lvip_lookups, lvip_mispredicts, divergences,
        remerges, catchup_false_positives, remerge_branch_histogram, peak_live_uops,
        peak_uop_arena, scratch_growth_events, l1i, l1d, l2, energy, pc_profile
    }
}

impl SimStats {
    /// Total architectural instructions retired across threads.
    pub fn total_retired(&self) -> u64 {
        self.retired_per_thread.iter().sum()
    }

    /// Committed thread-instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_retired() as f64 / self.cycles as f64
        }
    }

    /// Record a remerge that took `branches` taken branches since the
    /// divergence.
    pub fn record_remerge_distance(&mut self, branches: u64) {
        let idx = REMERGE_BUCKETS
            .iter()
            .position(|&b| branches <= b)
            .expect("last bucket is unbounded");
        self.remerge_branch_histogram[idx] += 1;
    }

    /// Fraction of remerges found within `bound` taken branches.
    pub fn remerges_within(&self, bound: u64) -> f64 {
        let total: u64 = self.remerge_branch_histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let within: u64 = REMERGE_BUCKETS
            .iter()
            .zip(&self.remerge_branch_histogram)
            .filter(|&(&b, _)| b <= bound)
            .map(|(_, &c)| c)
            .sum();
        within as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_mode_fractions_sum_to_one() {
        let mut f = FetchModeCounts::default();
        f.record(SyncMode::Merge);
        f.record(SyncMode::Merge);
        f.record(SyncMode::Detect);
        f.record(SyncMode::Catchup { ahead: 1 });
        let (m, d, c) = f.fractions();
        assert!((m + d + c - 1.0).abs() < 1e-12);
        assert_eq!(f.total(), 4);
        assert_eq!(f.merge, 2);
    }

    #[test]
    fn empty_fractions_do_not_divide_by_zero() {
        let f = FetchModeCounts::default();
        assert_eq!(f.fractions(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn remerge_histogram_buckets() {
        let mut s = SimStats::default();
        s.record_remerge_distance(3); // <=16
        s.record_remerge_distance(16); // <=16
        s.record_remerge_distance(17); // <=32
        s.record_remerge_distance(600); // unbounded bucket
        assert_eq!(s.remerge_branch_histogram[0], 2);
        assert_eq!(s.remerge_branch_histogram[1], 1);
        assert_eq!(s.remerge_branch_histogram[6], 1);
        assert!((s.remerges_within(16) - 0.5).abs() < 1e-12);
        assert!((s.remerges_within(512) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn stats_round_trip_through_json() {
        use mmt_obs::json::FromJson;
        let mut s = SimStats {
            cycles: 1 << 40,
            retired_per_thread: vec![3, 5],
            divergences: 7,
            ..SimStats::default()
        };
        s.identity.execute_identical_regmerge = 11;
        s.fetch_modes.catchup = 13;
        s.l2.misses = 17;
        s.energy.split_evals = 19;
        s.record_remerge_distance(600);
        s.pc_profile = vec![
            PcCounters::default(),
            PcCounters {
                mem_addr_diverged: 23,
                ..Default::default()
            },
        ];
        let text = mmt_obs::json::to_json(&s);
        let back = SimStats::from_json(&mmt_obs::json::parse(&text).unwrap()).expect("round trip");
        assert_eq!(mmt_obs::json::to_json(&back), text);
        assert!(SimStats::from_json(&mmt_obs::json::parse("{\"cycles\":1}").unwrap()).is_none());
    }

    #[test]
    fn ipc_handles_zero_cycles() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
    }

    #[test]
    fn pc_counters_bucket_by_mode_and_merge() {
        let mut c = PcCounters::default();
        c.record_fetch(SyncMode::Detect, true); // merged overrides mode
        c.record_fetch(SyncMode::Detect, false);
        c.record_fetch(SyncMode::Catchup { ahead: 2 }, false);
        assert_eq!((c.fetch_merge, c.fetch_detect, c.fetch_catchup), (1, 1, 1));
        assert_eq!(c.fetch_total(), 3);
        assert!(c.touched());
        assert_eq!(c.exec_total(), 0);
        assert!(!PcCounters::default().touched());
    }

    #[test]
    fn identity_total() {
        let id = IdentityCounts {
            fetch_identical: 10,
            execute_identical: 5,
            execute_identical_regmerge: 2,
            private: 3,
        };
        assert_eq!(id.total(), 20);
    }
}
