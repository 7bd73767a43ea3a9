//! Simulator phase self-profiling on the `mmt-obs` metrics registry.
//!
//! [`SimMetrics`] owns a [`MetricsRegistry`] holding one wall-clock
//! histogram per pipeline stage (fetch/dispatch/issue/commit) plus the
//! headline `SimStats` counters, folded in at [`SimMetrics::finish`].
//! The profiler only *reads* the host clock; it never touches simulated
//! state, so enabling it cannot change any architectural or timing
//! result — the golden-digest equivalence tests enforce exactly that.
//!
//! The simulator keeps it behind `Option<Box<SimMetrics>>` (the same
//! discipline as the event ring), so a disabled run pays one branch per
//! cycle and never allocates.

use mmt_obs::metrics::{
    exponential_bounds, CounterId, HistogramId, MetricsRegistry, MetricsSnapshot,
};
use std::time::Duration;

/// The four timed pipeline phases, in `step_cycle` call order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimPhase {
    /// Commit stage (register merge checks, retirement).
    Commit,
    /// Issue stage (wakeup/select, execution).
    Issue,
    /// Dispatch stage (rename/split, RST updates).
    Dispatch,
    /// Fetch stage (sync state machine, prediction, I-cache).
    Fetch,
}

impl SimPhase {
    /// The `stage` label value.
    pub fn name(self) -> &'static str {
        match self {
            SimPhase::Commit => "commit",
            SimPhase::Issue => "issue",
            SimPhase::Dispatch => "dispatch",
            SimPhase::Fetch => "fetch",
        }
    }
}

/// Per-run self-profiling state: the registry plus the handles the hot
/// path updates. Registration happens once in [`SimMetrics::new`];
/// per-cycle observations are index arithmetic.
#[derive(Debug, Clone)]
pub struct SimMetrics {
    registry: MetricsRegistry,
    phases: [HistogramId; 4],
    quiet: CounterId,
}

impl SimMetrics {
    /// Build the registry and register the per-stage histograms.
    pub fn new() -> SimMetrics {
        let mut registry = MetricsRegistry::new();
        // 100ns .. ~100ms: per-cycle stage calls sit at the bottom,
        // pathological host stalls (page faults, preemption) at the top.
        let bounds = exponential_bounds(1e-7, 10.0, 7);
        let phase = |reg: &mut MetricsRegistry, name: &str| {
            reg.histogram(
                "mmt_stage_seconds",
                "Wall-clock time per pipeline-stage invocation",
                &[("stage", name)],
                &bounds,
            )
        };
        let phases = [
            phase(&mut registry, SimPhase::Commit.name()),
            phase(&mut registry, SimPhase::Issue.name()),
            phase(&mut registry, SimPhase::Dispatch.name()),
            phase(&mut registry, SimPhase::Fetch.name()),
        ];
        let quiet = registry.counter(
            "mmt_quiet_cycles_total",
            "Cycles taken by the quiet-cycle fast path, which runs no stage",
            &[],
        );
        SimMetrics {
            registry,
            phases,
            quiet,
        }
    }

    /// Record one stage invocation's wall-clock duration.
    #[inline]
    pub fn observe_phase(&mut self, phase: SimPhase, elapsed: Duration) {
        let id = self.phases[match phase {
            SimPhase::Commit => 0,
            SimPhase::Issue => 1,
            SimPhase::Dispatch => 2,
            SimPhase::Fetch => 3,
        }];
        self.registry.observe(id, elapsed.as_secs_f64());
    }

    /// Count one fast-path cycle (no stage ran, so no phase observed).
    #[inline]
    pub(crate) fn count_quiet_cycle(&mut self) {
        self.registry.inc(self.quiet);
    }

    /// Fold the end-of-run `SimStats` counters into the registry. Called
    /// once from `Simulator::finish`.
    pub fn finish(&mut self, stats: &crate::SimStats) {
        let reg = &mut self.registry;
        let mut c = |name: &str, help: &str, v: u64| {
            let id = reg.counter(name, help, &[]);
            reg.add(id, v);
        };
        c("mmt_cycles_total", "Simulated cycles", stats.cycles);
        c(
            "mmt_retired_total",
            "Architectural instructions retired (all threads)",
            stats.total_retired(),
        );
        c(
            "mmt_macro_ops_fetched_total",
            "Macro-instructions fetched (merged groups count once)",
            stats.macro_ops_fetched,
        );
        c(
            "mmt_uops_dispatched_total",
            "Uops dispatched after splitting",
            stats.uops_dispatched,
        );
        c(
            "mmt_uops_executed_total",
            "Uops executed (merged uops count once)",
            stats.uops_executed,
        );
        c("mmt_branches_total", "Conditional branches", stats.branches);
        c(
            "mmt_branch_mispredicts_total",
            "Mispredicted conditional branches",
            stats.branch_mispredicts,
        );
        c("mmt_lvip_lookups_total", "LVIP lookups", stats.lvip_lookups);
        c(
            "mmt_lvip_mispredicts_total",
            "LVIP mismatches, counted per dispatch attempt",
            stats.lvip_mispredicts,
        );
        c(
            "mmt_divergences_total",
            "Merge-group splits",
            stats.divergences,
        );
        c("mmt_remerges_total", "Successful remerges", stats.remerges);
    }

    /// Snapshot the registry (clones values; tool path only).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

impl Default for SimMetrics {
    fn default() -> Self {
        SimMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_obs::metrics::SeriesValue;

    #[test]
    fn phases_register_one_histogram_each() {
        let mut m = SimMetrics::new();
        m.observe_phase(SimPhase::Fetch, Duration::from_nanos(250));
        m.observe_phase(SimPhase::Fetch, Duration::from_micros(5));
        m.observe_phase(SimPhase::Commit, Duration::from_nanos(80));
        m.count_quiet_cycle();
        let snap = m.snapshot();
        // Four stage histograms plus the quiet-cycle counter.
        assert_eq!(snap.series.len(), 5);
        let fetch = snap
            .series
            .iter()
            .find(|s| s.labels.iter().any(|(_, v)| v == "fetch"))
            .unwrap();
        match &fetch.value {
            SeriesValue::Histogram { count, .. } => assert_eq!(*count, 2),
            v => panic!("{v:?}"),
        }
        let quiet = snap
            .series
            .iter()
            .find(|s| s.name == "mmt_quiet_cycles_total")
            .unwrap();
        assert_eq!(quiet.value, SeriesValue::Counter(1));
    }

    #[test]
    fn finish_folds_stats_counters() {
        let mut m = SimMetrics::new();
        let mut stats = crate::SimStats {
            retired_per_thread: vec![10, 20],
            ..Default::default()
        };
        stats.cycles = 123;
        stats.divergences = 4;
        m.finish(&stats);
        let snap = m.snapshot();
        let get = |name: &str| {
            snap.series
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        assert_eq!(get("mmt_cycles_total").value, SeriesValue::Counter(123));
        assert_eq!(get("mmt_retired_total").value, SeriesValue::Counter(30));
        assert_eq!(get("mmt_divergences_total").value, SeriesValue::Counter(4));
        let text = snap.to_prometheus();
        assert!(text.contains("mmt_stage_seconds_bucket{stage=\"fetch\",le=\"+Inf\"} 0"));
        assert!(text.contains("mmt_cycles_total 123"));
    }
}
