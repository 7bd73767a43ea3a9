//! Simulator configuration — the paper's Table 4 (machine parameters) and
//! Table 5 (MMT feature levels).

use mmt_frontend::PredictorConfig;
use mmt_mem::HierarchyConfig;

/// Which MMT mechanisms are enabled — the paper's Table 5 configurations.
///
/// `Limit` is not a distinct hardware level: the paper's Limit bars run
/// [`MmtLevel::Fxr`] hardware on two *identical* instances of a program,
/// which is a property of the workload, so it is expressed by feeding
/// identical inputs rather than by a variant here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MmtLevel {
    /// Traditional SMT: every thread fetches and executes privately.
    Base,
    /// MMT-F: shared fetch only; every fetched instruction is split into
    /// per-thread copies before renaming.
    F,
    /// MMT-FX: shared fetch and shared execution via the Register Sharing
    /// Table and instruction splitter.
    Fx,
    /// MMT-FXR: MMT-FX plus commit-time register merging.
    Fxr,
}

impl MmtLevel {
    /// All levels, in Table 5 order.
    pub const ALL: [MmtLevel; 4] = [MmtLevel::Base, MmtLevel::F, MmtLevel::Fx, MmtLevel::Fxr];

    /// Whether threads at equal PCs fetch together.
    pub fn shared_fetch(self) -> bool {
        self != MmtLevel::Base
    }

    /// Whether the RST/splitter may keep instructions merged past decode.
    pub fn shared_execute(self) -> bool {
        matches!(self, MmtLevel::Fx | MmtLevel::Fxr)
    }

    /// Whether commit-time register merging is enabled.
    pub fn register_merging(self) -> bool {
        self == MmtLevel::Fxr
    }

    /// The paper's name for the configuration.
    pub fn name(self) -> &'static str {
        match self {
            MmtLevel::Base => "Base",
            MmtLevel::F => "MMT-F",
            MmtLevel::Fx => "MMT-FX",
            MmtLevel::Fxr => "MMT-FXR",
        }
    }
}

impl std::fmt::Display for MmtLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How divergent threads find their remerge points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncPolicy {
    /// The paper's hardware mechanism: per-thread Fetch History Buffer
    /// CAMs drive DETECT→CATCHUP transitions (Section 4.1).
    FhbHardware,
    /// The Thread Fusion-style baseline the paper compares against
    /// (Section 2): software provides static remerge-point PCs
    /// ([`SimConfig::remerge_hints`]); a divergent thread reaching a hint
    /// parks until a partner arrives (bounded by
    /// [`SimConfig::hint_wait_limit`]).
    SoftwareHints,
}

/// SMT fetch-thread selection policy (Tullsen et al.'s "exploiting
/// choice" design space; the paper's baseline uses ICOUNT).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FetchPolicy {
    /// Prefer the thread/group with the fewest instructions in flight.
    ICount,
    /// Rotate priority round-robin by cycle.
    RoundRobin,
}

/// Front-end instruction delivery model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FetchStyle {
    /// Fetch stops at the first taken control transfer each cycle
    /// (conventional instruction cache).
    Conventional,
    /// Fetch may continue past taken control transfers up to the full
    /// fetch width — the paper's 1 MiB trace cache with perfect trace
    /// prediction. (The paper reports the two are nearly identical; both
    /// are provided so that claim can be checked.)
    TraceCache,
}

/// Forward-progress watchdog thresholds (DESIGN.md §15). The watchdogs
/// turn hangs into typed errors instead of infinite loops: they only
/// *observe* retirement counters and memory footprints, so enabling them
/// never perturbs timing or architectural results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Cycles without *any* thread retiring an instruction before the
    /// run fails with [`crate::SimError::LivelockDetected`]. Must dwarf
    /// every legitimate stall (DRAM round trips are ~200 cycles,
    /// software-hint parks are bounded by
    /// [`SimConfig::hint_wait_limit`]); the default leaves three orders
    /// of magnitude of headroom. `0` disables the check.
    pub livelock_window: u64,
    /// Total touched data-memory words (summed over all memories) before
    /// the run fails with [`crate::SimError::MemoryBudgetExceeded`].
    /// Checked periodically (every 4096 cycles), so a runaway
    /// memory-filling loop is caught deterministically but off the hot
    /// path. `0` disables the check.
    pub memory_budget_words: usize,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig {
            livelock_window: 1_000_000,
            memory_budget_words: 0,
        }
    }
}

/// Full machine configuration (Table 4 defaults via [`SimConfig::paper`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Hardware thread contexts (1–4).
    pub threads: usize,
    /// Instructions fetched per cycle (shared across threads).
    pub fetch_width: usize,
    /// Maximum distinct fetch entities (threads or merge groups) that may
    /// fetch in one cycle.
    pub max_fetch_threads: usize,
    /// Rename/dispatch width (uops per cycle).
    pub rename_width: usize,
    /// Issue width (uops per cycle).
    pub issue_width: usize,
    /// Commit width (instructions per cycle).
    pub commit_width: usize,
    /// Reorder buffer entries (shared).
    pub rob_size: usize,
    /// Load/store queue entries (shared).
    pub lsq_size: usize,
    /// Issue-queue entries.
    pub iq_size: usize,
    /// Integer ALUs (also execute branches).
    pub int_alus: usize,
    /// Floating-point units.
    pub fpus: usize,
    /// Load/store ports (D-cache accesses per cycle); the Figure 7(b)
    /// sweep variable.
    pub lsq_ports: usize,
    /// Fetch-to-dispatch pipeline depth in cycles (decode/split stages).
    pub decode_latency: u64,
    /// Front-end refill penalty after a mispredicted control transfer or
    /// an LVIP rollback, charged on top of resolution time.
    pub redirect_penalty: u64,
    /// Fetch History Buffer entries per thread (Figure 7(a)/(c) sweep).
    pub fhb_entries: usize,
    /// Load Values Identical Predictor entries.
    pub lvip_entries: usize,
    /// Maximum commit-time register-merge comparisons per cycle
    /// (register-file read-port availability, Section 4.2.7).
    pub merge_checks_per_cycle: usize,
    /// Maximum difference in per-thread retired-instruction counts for a
    /// PC match to be accepted as a remerge. PC equality alone cannot
    /// distinguish loop iterations: without this gate threads merge one
    /// lap out of phase after asymmetric stalls, permanently destroying
    /// execute-identical opportunities. Retirement counters are ordinary
    /// performance-counter hardware.
    pub merge_alignment_slack: u64,
    /// Branch predictor geometry.
    pub predictor: PredictorConfig,
    /// BTB entries.
    pub btb_entries: usize,
    /// Return address stack depth per thread.
    pub ras_depth: usize,
    /// Cache hierarchy.
    pub hierarchy: HierarchyConfig,
    /// Instruction delivery model.
    pub fetch_style: FetchStyle,
    /// Which MMT mechanisms are active.
    pub level: MmtLevel,
    /// Remerge-point discovery policy.
    pub sync_policy: SyncPolicy,
    /// SMT fetch-thread selection policy.
    pub fetch_policy: FetchPolicy,
    /// Static remerge-point PCs for [`SyncPolicy::SoftwareHints`]
    /// (supplied by the workload — compiler/programmer knowledge in the
    /// Thread Fusion model; ignored under [`SyncPolicy::FhbHardware`]).
    pub remerge_hints: Vec<u64>,
    /// Maximum cycles a thread parks at a software remerge hint before
    /// giving up and continuing alone.
    pub hint_wait_limit: u64,
    /// Hard cycle cap (guards against runaway simulations).
    pub max_cycles: u64,
    /// Forward-progress watchdogs: livelock and memory-budget guards
    /// that fail a hung run with a typed error (DESIGN.md §15).
    pub watchdog: WatchdogConfig,
    /// Record every merged dispatch as a [`crate::MergeEvent`] in
    /// [`crate::SimResult::merge_log`], for offline differential checking
    /// against a static redundancy oracle (`mmt-analysis`). When set, the
    /// in-pipeline debug assertion on unsound merges is suppressed so the
    /// oracle — not a panic — is the observer. Off by default: the log
    /// grows with dynamic merged-instruction count.
    pub record_merge_log: bool,
    /// Record per-static-PC fetch-mode occupancy and merged/split/private
    /// dispatch counts in [`crate::SimStats::pc_profile`], for
    /// differential comparison against the static predictor
    /// (`mmtpredict`). Off by default: costs a program-sized allocation
    /// plus a counter bump per fetched slot and dispatched uop.
    pub record_pc_profile: bool,
    /// Cycle-level pipeline tracing (`mmt-obs`): `Some` allocates an
    /// event ring and windowed-metrics recorder up front and populates
    /// [`crate::SimResult::trace`]. `None` (the default) compiles the
    /// emission sites down to a branch on an always-`None` option, so the
    /// steady-state loop stays allocation-free and the simulated behavior
    /// is bit-identical either way.
    pub trace: Option<mmt_obs::TraceConfig>,
    /// Simulator phase self-profiling (`mmt-obs` metrics registry):
    /// when set, the simulator times each pipeline stage
    /// (fetch/dispatch/issue/commit) per cycle into wall-clock
    /// histograms and folds the end-of-run `SimStats` counters into
    /// [`crate::SimResult::metrics`]. The registry only *reads* the
    /// host clock — it never touches simulated state — so enabling it
    /// cannot change any architectural or timing result (enforced by
    /// the golden-digest equivalence tests). Off by default: the
    /// steady-state loop then pays one branch on an always-`None`
    /// option.
    pub metrics: bool,
}

impl SimConfig {
    /// The paper's Table 4 machine: 4 threads, 8-wide fetch/issue/commit,
    /// 256-entry ROB, 64-entry LSQ, 6 ALUs + 3 FPUs, 32-entry FHB, 4K
    /// LVIP, trace-cache fetch, and the Table 4 memory system.
    pub fn paper() -> SimConfig {
        SimConfig {
            threads: 4,
            fetch_width: 8,
            max_fetch_threads: 2,
            rename_width: 8,
            issue_width: 8,
            commit_width: 8,
            rob_size: 256,
            lsq_size: 64,
            iq_size: 64,
            int_alus: 6,
            fpus: 3,
            lsq_ports: 4,
            decode_latency: 3,
            redirect_penalty: 8,
            fhb_entries: 32,
            lvip_entries: 4096,
            merge_checks_per_cycle: 8,
            merge_alignment_slack: 256,
            predictor: PredictorConfig::paper(),
            btb_entries: 2048,
            ras_depth: 16,
            hierarchy: HierarchyConfig::paper(),
            fetch_style: FetchStyle::TraceCache,
            level: MmtLevel::Fxr,
            sync_policy: SyncPolicy::FhbHardware,
            fetch_policy: FetchPolicy::ICount,
            remerge_hints: Vec::new(),
            hint_wait_limit: 400,
            max_cycles: 500_000_000,
            watchdog: WatchdogConfig::default(),
            record_merge_log: false,
            record_pc_profile: false,
            trace: None,
            metrics: false,
        }
    }

    /// Paper machine restricted to `threads` contexts and a given level.
    pub fn paper_with(threads: usize, level: MmtLevel) -> SimConfig {
        SimConfig {
            threads,
            level,
            ..SimConfig::paper()
        }
    }

    /// The configuration as the machine at this MMT level can tell it
    /// apart: fields the level never reads are reset to their paper
    /// values, so two configs with equal `effective()` simulate
    /// bit-identically. Base (traditional SMT) never fetches merged, so
    /// the Fetch History Buffer, the LVIP and the merge-alignment gate
    /// never act on it. Nothing else is normalized:
    /// `crates/core/tests/effective_config.rs` checks each reset field
    /// over every suite app.
    pub fn effective(&self) -> SimConfig {
        let mut cfg = self.clone();
        if self.level == MmtLevel::Base {
            let paper = SimConfig::paper();
            cfg.fhb_entries = paper.fhb_entries;
            cfg.lvip_entries = paper.lvip_entries;
            cfg.merge_alignment_slack = paper.merge_alignment_slack;
        }
        cfg
    }

    /// Validate internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=mmt_isa::MAX_THREADS).contains(&self.threads) {
            return Err(format!(
                "threads must be 1..={}, got {}",
                mmt_isa::MAX_THREADS,
                self.threads
            ));
        }
        for (name, v) in [
            ("fetch_width", self.fetch_width),
            ("max_fetch_threads", self.max_fetch_threads),
            ("rename_width", self.rename_width),
            ("issue_width", self.issue_width),
            ("commit_width", self.commit_width),
            ("rob_size", self.rob_size),
            ("lsq_size", self.lsq_size),
            ("iq_size", self.iq_size),
            ("int_alus", self.int_alus),
            ("lsq_ports", self.lsq_ports),
            ("fhb_entries", self.fhb_entries),
            ("lvip_entries", self.lvip_entries),
        ] {
            if v == 0 {
                return Err(format!("{name} must be non-zero"));
            }
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table4() {
        let c = SimConfig::paper();
        assert_eq!(c.threads, 4);
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.issue_width, 8);
        assert_eq!(c.commit_width, 8);
        assert_eq!(c.rob_size, 256);
        assert_eq!(c.lsq_size, 64);
        assert_eq!(c.int_alus, 6);
        assert_eq!(c.fpus, 3);
        assert_eq!(c.fhb_entries, 32);
        assert_eq!(c.lvip_entries, 4096);
        assert_eq!(c.predictor.entries, 1024);
        assert_eq!(c.predictor.history_bits, 10);
        assert_eq!(c.btb_entries, 2048);
        assert_eq!(c.ras_depth, 16);
        assert_eq!(c.hierarchy.dram_latency, 200);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn level_capabilities_are_monotone() {
        use MmtLevel::*;
        assert!(!Base.shared_fetch() && !Base.shared_execute() && !Base.register_merging());
        assert!(F.shared_fetch() && !F.shared_execute());
        assert!(Fx.shared_fetch() && Fx.shared_execute() && !Fx.register_merging());
        assert!(Fxr.shared_fetch() && Fxr.shared_execute() && Fxr.register_merging());
        assert_eq!(MmtLevel::ALL.len(), 4);
        assert_eq!(Fxr.name(), "MMT-FXR");
    }

    #[test]
    fn effective_resets_only_what_base_ignores() {
        let mut base = SimConfig::paper_with(2, MmtLevel::Base);
        base.fhb_entries = 8;
        base.lvip_entries = 64;
        base.merge_alignment_slack = 16;
        assert_eq!(base.effective(), SimConfig::paper_with(2, MmtLevel::Base));
        let fxr = SimConfig {
            level: MmtLevel::Fxr,
            ..base.clone()
        };
        assert_eq!(fxr.effective(), fxr);
        base.fetch_width = 16;
        assert_eq!(base.effective().fetch_width, 16);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = SimConfig::paper();
        c.threads = 0;
        assert!(c.validate().is_err());
        c.threads = 5;
        assert!(c.validate().is_err());
        let mut c = SimConfig::paper();
        c.fetch_width = 0;
        assert!(c.validate().unwrap_err().contains("fetch_width"));
    }
}
