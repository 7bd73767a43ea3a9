//! SMARTS-style sampled simulation (DESIGN.md §14).
//!
//! A sampled run alternates two execution modes over one program:
//!
//! * **fast-forward** — the block-dispatch functional executor
//!   ([`mmt_sim::Ffwd`]) advances the architectural state over the
//!   *skip* interval at no timing cost, while *functionally warming*
//!   one [`MemoryHierarchy`] (residency/LRU state only) that travels
//!   across every mode switch;
//! * **detailed** — a full [`Simulator`] is rebuilt from the
//!   architectural state with the warmed hierarchy transplanted in
//!   ([`Simulator::from_arch_warmed`]; [`Simulator::into_arch_warmed`]
//!   hands both back by move, so no memory image is copied at either
//!   switch), run for a *warmup* interval to
//!   refill the pipeline and fetch groups (RST/LVIP warm state travels
//!   with the snapshot), then *measured* for a fixed instruction
//!   quantum.
//!
//! Functional cache warming is what makes the estimates honest: without
//! it each window re-pays the whole resident working set as cold DRAM
//! misses (or, with a long detailed warmup, the warmup silently absorbs
//! the compulsory misses the full-detail run *does* pay), biasing cycle
//! estimates by up to an order of magnitude in either direction.
//!
//! Every instruction of the program executes in exactly one of the two
//! modes, so instruction totals (and the final architectural state) are
//! exact; only *timing* is estimated. Because the schedule is
//! *systematic* (one window per skip interval), each window's CPI is
//! extrapolated over its own **stratum** — the instructions between the
//! previous window's end and its own — rather than pooled into one flat
//! ratio. This matters for phase behaviour: the first window measures
//! the compulsory-miss init phase at CPI an order of magnitude above
//! steady state, and a flat ratio estimator would scale that one-time
//! cost by the whole program. Any tail left after the last window
//! (window-cap fallback) is priced at the pooled ratio CPI. The error
//! bar is the normal-approximation CLT bar from the between-window CPI
//! variance — conservative under strong phase behaviour, since phase
//! differences the stratification already captures still widen it. The
//! merge fraction (the paper's headline redundancy metric) is estimated
//! the same stratified way from the windows' fetch-mode slot counts.

use mmt_obs::{HistogramId, MetricsRegistry, MetricsSnapshot};
use mmt_sim::{Ffwd, MemoryHierarchy, RunSpec, SimConfig, Simulator};
use std::time::Instant;

/// Sampling schedule, in *instructions* (summed over threads — the same
/// clock [`Simulator::instructions_fetched`] reports).
#[derive(Debug, Clone)]
pub struct SampleConfig {
    /// Instructions fast-forwarded between detailed windows.
    pub skip: u64,
    /// Detailed-but-unmeasured instructions at the head of each window
    /// (pipeline/predictor warmup after the mode switch).
    pub warmup: u64,
    /// Measured instructions per window.
    pub measure: u64,
    /// Safety cap on window count; the remainder of the program is
    /// fast-forwarded once the cap is hit, keeping totals exact.
    pub max_windows: usize,
}
mmt_obs::impl_to_json! { SampleConfig { skip, warmup, measure, max_windows } }

impl Default for SampleConfig {
    fn default() -> Self {
        SampleConfig {
            skip: 6_000,
            warmup: 500,
            measure: 1_500,
            max_windows: 4_096,
        }
    }
}

/// One measured detailed window.
#[derive(Debug, Clone, Copy)]
pub struct WindowStat {
    /// Global instruction index at which measurement started.
    pub start_inst: u64,
    /// Instructions this window's CPI is extrapolated over: everything
    /// since the previous window's end (skip + warmup + measured).
    pub stratum_insts: u64,
    /// Instructions measured (may undershoot the quantum at program end).
    pub insts: u64,
    /// Cycles the measured instructions took in the detailed model.
    pub cycles: u64,
    /// Thread-instruction slots fetched merged during the window.
    pub merge_slots: u64,
    /// All thread-instruction slots fetched during the window.
    pub total_slots: u64,
}
mmt_obs::impl_to_json! {
    WindowStat {
        start_inst, stratum_insts, insts, cycles, merge_slots, total_slots
    }
}

impl WindowStat {
    /// Cycles per instruction inside this window.
    pub fn cpi(&self) -> f64 {
        self.cycles as f64 / self.insts.max(1) as f64
    }
}

/// Aggregated result of one sampled run.
#[derive(Debug, Clone)]
pub struct SampledEstimate {
    /// Exact architectural instruction total (every instruction ran in
    /// one of the two modes).
    pub total_insts: u64,
    /// Instructions inside measured windows.
    pub measured_insts: u64,
    /// Cycles spent inside measured windows.
    pub measured_cycles: u64,
    /// Instructions run in the detailed model (warmup + measured).
    pub detailed_insts: u64,
    /// Effective CPI of the estimate: `est_cycles / total_insts`.
    pub est_cpi: f64,
    /// Standard error of the per-window CPI mean.
    pub cpi_stderr: f64,
    /// Stratified cycle estimate: `Σ window_cpi × stratum_insts`, plus
    /// any unmeasured tail at the pooled ratio CPI.
    pub est_cycles: f64,
    /// 95% half-width on [`SampledEstimate::est_cycles`]
    /// (`1.96 * cpi_stderr * total_insts`).
    pub cycles_err: f64,
    /// Estimated merged-fetch slot fraction (Figure 5(d)'s MERGE bar).
    pub merge_fraction: f64,
    /// Per-window detail, in schedule order.
    pub windows: Vec<WindowStat>,
}
mmt_obs::impl_to_json! {
    SampledEstimate {
        total_insts, measured_insts, measured_cycles, detailed_insts, est_cpi, cpi_stderr,
        est_cycles, cycles_err, merge_fraction, windows
    }
}

impl SampledEstimate {
    /// Fraction of the program that ran in the detailed model — the
    /// sampled run's cost relative to a full-detail run, roughly.
    pub fn detailed_fraction(&self) -> f64 {
        self.detailed_insts as f64 / self.total_insts.max(1) as f64
    }

    /// Relative error of the cycle estimate against a known golden.
    pub fn cycles_rel_err(&self, golden_cycles: u64) -> f64 {
        (self.est_cycles - golden_cycles as f64).abs() / golden_cycles.max(1) as f64
    }
}

/// Wall-clock self-profiling of a sampled run, per execution tier.
///
/// Registers `mmt_tier_wall_seconds{tier="detailed"|"ffwd"}` histograms
/// (one observation per detailed window / skip interval) and a
/// `mmt_tier_switches_total` counter, and absorbs the per-stage
/// `mmt_stage_seconds` snapshots of the inner window simulators when
/// `SimConfig::metrics` is enabled — so one snapshot answers "where did
/// the wall-clock of this two-speed run actually go".
///
/// A third series, `tier="handoff"`, holds one observation per detailed
/// window: the time spent in [`Simulator::from_arch_warmed`] and
/// [`Simulator::into_arch_warmed`]. It is a part of the `detailed` tier,
/// not an interval of its own, so it adds nothing to the switch count.
pub struct TierProfiler {
    registry: MetricsRegistry,
    detailed: HistogramId,
    handoff: HistogramId,
    ffwd: HistogramId,
    switches: mmt_obs::CounterId,
    inner: Option<MetricsSnapshot>,
}

impl TierProfiler {
    /// Register the tier series.
    pub fn new() -> TierProfiler {
        let mut registry = MetricsRegistry::new();
        let bounds = mmt_obs::metrics::exponential_bounds(1e-6, 10.0, 8);
        let help = "Wall-clock seconds per execution interval, by tier";
        let detailed = registry.histogram(
            "mmt_tier_wall_seconds",
            help,
            &[("tier", "detailed")],
            &bounds,
        );
        let handoff = registry.histogram(
            "mmt_tier_wall_seconds",
            help,
            &[("tier", "handoff")],
            &bounds,
        );
        let ffwd = registry.histogram("mmt_tier_wall_seconds", help, &[("tier", "ffwd")], &bounds);
        let switches = registry.counter(
            "mmt_tier_switches_total",
            "Execution-mode switches (detailed window entries + skip intervals)",
            &[],
        );
        TierProfiler {
            registry,
            detailed,
            handoff,
            ffwd,
            switches,
            inner: None,
        }
    }

    fn observe(&mut self, id: HistogramId, wall: std::time::Duration) {
        self.registry.observe(id, wall.as_secs_f64());
        self.registry.inc(self.switches);
    }

    fn absorb(&mut self, snap: Option<MetricsSnapshot>) {
        let Some(snap) = snap else { return };
        match &mut self.inner {
            Some(acc) => acc.merge(&snap),
            None => self.inner = Some(snap),
        }
    }

    /// Tier histograms plus the merged inner-simulator stage profile.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.registry.snapshot();
        if let Some(inner) = &self.inner {
            snap.merge(inner);
        }
        snap
    }
}

/// The `(observations, seconds)` of tier `tier` in a [`TierProfiler`]
/// snapshot, or `None` when the snapshot has no such tier.
pub fn tier_seconds(snap: &MetricsSnapshot, tier: &str) -> Option<(u64, f64)> {
    snap.series
        .iter()
        .filter(|s| {
            s.name == "mmt_tier_wall_seconds"
                && s.labels.iter().any(|(k, v)| k == "tier" && v == tier)
        })
        .find_map(|s| match s.value {
            mmt_obs::SeriesValue::Histogram { count, sum, .. } => Some((count, sum)),
            _ => None,
        })
}

impl Default for TierProfiler {
    fn default() -> Self {
        TierProfiler::new()
    }
}

/// Run `spec` under `cfg` with the SMARTS-style schedule in `sample`.
///
/// The program runs to completion (architecturally exact); timing is
/// estimated from the measured windows. See the module docs for the
/// estimator.
///
/// # Panics
///
/// Panics on simulator or executor errors — the harness runs
/// statically-known-good workloads (same policy as [`crate::run_app`]).
pub fn run_sampled(cfg: &SimConfig, spec: &RunSpec, sample: &SampleConfig) -> SampledEstimate {
    run_sampled_inner(cfg, spec, sample, None)
}

/// [`run_sampled`] with tier self-profiling: also returns a metrics
/// snapshot of where the run's wall-clock went (see [`TierProfiler`]).
///
/// # Panics
///
/// Panics on simulator or executor errors (see [`run_sampled`]).
pub fn run_sampled_profiled(
    cfg: &SimConfig,
    spec: &RunSpec,
    sample: &SampleConfig,
) -> (SampledEstimate, MetricsSnapshot) {
    let mut profiler = TierProfiler::new();
    let est = run_sampled_inner(cfg, spec, sample, Some(&mut profiler));
    (est, profiler.snapshot())
}

fn run_sampled_inner(
    cfg: &SimConfig,
    spec: &RunSpec,
    sample: &SampleConfig,
    mut profiler: Option<&mut TierProfiler>,
) -> SampledEstimate {
    assert!(sample.measure > 0, "measure quantum must be non-empty");
    let ffwd = Ffwd::new(&spec.program);
    let mut state = spec.initial_arch_state();
    let mut windows: Vec<WindowStat> = Vec::new();
    let mut detailed_insts = 0u64;
    let mut prev_end = 0u64;
    // One hierarchy threads through the whole run — functionally warmed
    // during fast-forward, transplanted into each detailed window — so
    // windows see the cache contents a full-detail run would have had.
    let mut hierarchy = MemoryHierarchy::new(cfg.hierarchy);

    while !state.all_halted() && windows.len() < sample.max_windows {
        // Detailed window: rebuild the pipeline from the architectural
        // state, warm it, then measure one quantum.
        let window_wall = Instant::now();
        let mut sim =
            Simulator::from_arch_warmed(cfg.clone(), spec.program.clone(), state, hierarchy)
                .expect("sampled handoff accepts the architectural state");
        let entry_wall = window_wall.elapsed();
        let window_start = sim.instructions_fetched();
        let warm_target = window_start + sample.warmup;
        while !sim.finished() && sim.instructions_fetched() < warm_target {
            sim.step_cycle().expect("workloads terminate");
        }
        let measure_start = sim.instructions_fetched();
        let cycle0 = sim.now();
        let modes0 = sim.stats().fetch_modes;
        let measure_target = measure_start + sample.measure;
        while !sim.finished() && sim.instructions_fetched() < measure_target {
            sim.step_cycle().expect("workloads terminate");
        }
        let insts = sim.instructions_fetched() - measure_start;
        if insts > 0 {
            let modes = sim.stats().fetch_modes;
            let end = measure_start + insts;
            windows.push(WindowStat {
                start_inst: measure_start,
                stratum_insts: end - prev_end,
                insts,
                cycles: sim.now() - cycle0,
                merge_slots: modes.merge - modes0.merge,
                total_slots: modes.total() - modes0.total(),
            });
            prev_end = end;
        }
        detailed_insts += sim.instructions_fetched() - window_start;
        // Inner window sims never reach finish(); their stage profile is
        // read out here (None unless `cfg.metrics` is on).
        if let Some(p) = profiler.as_mut() {
            let snap = sim.metrics_snapshot();
            p.absorb(snap);
        }
        let exit_wall = Instant::now();
        (state, hierarchy) = sim.into_arch_warmed();
        if let Some(p) = profiler.as_mut() {
            let handoff = entry_wall + exit_wall.elapsed();
            p.registry.observe(p.handoff, handoff.as_secs_f64());
            let detailed = p.detailed;
            p.observe(detailed, window_wall.elapsed());
        }
        if state.all_halted() {
            break;
        }
        if sample.skip > 0 {
            let skip_wall = Instant::now();
            ffwd.advance_warming(&spec.program, &mut state, sample.skip, &mut hierarchy)
                .expect("fast-forward executes the skip interval");
            if let Some(p) = profiler.as_mut() {
                let ffwd_id = p.ffwd;
                p.observe(ffwd_id, skip_wall.elapsed());
            }
        }
    }
    // Window cap hit before completion: drain the tail functionally so
    // the instruction total stays exact.
    if !state.all_halted() {
        let tail_wall = Instant::now();
        ffwd.run_to_halt(&spec.program, &mut state, u64::MAX)
            .expect("fast-forward drains the tail");
        if let Some(p) = profiler.as_mut() {
            let ffwd_id = p.ffwd;
            p.observe(ffwd_id, tail_wall.elapsed());
        }
    }

    let total_insts = state.total_retired();
    let measured_insts: u64 = windows.iter().map(|w| w.insts).sum();
    let measured_cycles: u64 = windows.iter().map(|w| w.cycles).sum();
    // Stratified extrapolation: each window prices its own stratum; the
    // pooled ratio prices whatever tail the window cap left unmeasured.
    let ratio_cpi = measured_cycles as f64 / measured_insts.max(1) as f64;
    let tail = total_insts.saturating_sub(prev_end) as f64;
    let est_cycles = windows
        .iter()
        .map(|w| w.cpi() * w.stratum_insts as f64)
        .sum::<f64>()
        + ratio_cpi * tail;
    let cpi_stderr = if windows.len() > 1 {
        let n = windows.len() as f64;
        let mean = windows.iter().map(WindowStat::cpi).sum::<f64>() / n;
        let var = windows
            .iter()
            .map(|w| (w.cpi() - mean).powi(2))
            .sum::<f64>()
            / (n - 1.0);
        (var / n).sqrt()
    } else {
        0.0
    };
    let ratio_merge = {
        let merge_slots: u64 = windows.iter().map(|w| w.merge_slots).sum();
        let total_slots: u64 = windows.iter().map(|w| w.total_slots).sum();
        merge_slots as f64 / total_slots.max(1) as f64
    };
    let merge_fraction = (windows
        .iter()
        .map(|w| {
            let mf = w.merge_slots as f64 / w.total_slots.max(1) as f64;
            mf * w.stratum_insts as f64
        })
        .sum::<f64>()
        + ratio_merge * tail)
        / total_insts.max(1) as f64;
    SampledEstimate {
        total_insts,
        measured_insts,
        measured_cycles,
        detailed_insts,
        est_cpi: est_cycles / total_insts.max(1) as f64,
        cpi_stderr,
        est_cycles,
        cycles_err: 1.96 * cpi_stderr * total_insts as f64,
        merge_fraction,
        windows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{to_run_spec, SMOKE_SCALE};
    use mmt_sim::{MmtLevel, SimConfig};
    use mmt_workloads::app_by_name;

    fn setup(name: &str, threads: usize) -> (SimConfig, RunSpec) {
        let app = app_by_name(name).expect("known app");
        let cfg = SimConfig::paper_with(threads, MmtLevel::Fxr);
        (cfg, to_run_spec(app.instance(threads, SMOKE_SCALE)))
    }

    #[test]
    fn instruction_totals_are_exact() {
        let (cfg, spec) = setup("swaptions", 2);
        let golden = Simulator::new(cfg.clone(), spec.clone())
            .expect("valid spec")
            .run()
            .expect("terminates");
        let sample = SampleConfig {
            skip: 800,
            warmup: 100,
            measure: 200,
            max_windows: 4_096,
        };
        let est = run_sampled(&cfg, &spec, &sample);
        assert_eq!(est.total_insts, golden.stats.total_retired());
        assert!(est.detailed_fraction() < 1.0, "skip intervals must skip");
        assert!(!est.windows.is_empty());
    }

    #[test]
    fn estimates_track_the_detailed_model() {
        let (cfg, spec) = setup("fft", 2);
        let golden = Simulator::new(cfg.clone(), spec.clone())
            .expect("valid spec")
            .run()
            .expect("terminates");
        let sample = SampleConfig {
            skip: 600,
            warmup: 200,
            measure: 400,
            max_windows: 4_096,
        };
        let est = run_sampled(&cfg, &spec, &sample);
        // Loose smoke bound; the release-speed `mmtffwd` gate enforces
        // the documented bound over the whole suite.
        let rel = est.cycles_rel_err(golden.stats.cycles);
        assert!(rel < 0.5, "cycle estimate off by {rel:.2}");
        let (golden_merge, _, _) = golden.stats.fetch_modes.fractions();
        assert!(
            (est.merge_fraction - golden_merge).abs() < 0.4,
            "merge fraction {} vs golden {golden_merge}",
            est.merge_fraction
        );
    }

    #[test]
    fn tier_profiler_accounts_for_the_run() {
        let (mut cfg, spec) = setup("swaptions", 2);
        cfg.metrics = true;
        let sample = SampleConfig {
            skip: 800,
            warmup: 100,
            measure: 200,
            max_windows: 4_096,
        };
        let (est, snap) = run_sampled_profiled(&cfg, &spec, &sample);
        let hist_count = |tier: &str| tier_seconds(&snap, tier).expect("tier series registered").0;
        // One observation per detailed window entry (the final window
        // can end the run) and at least one skip/tail interval.
        assert_eq!(hist_count("detailed"), est.windows.len() as u64);
        assert!(hist_count("ffwd") >= 1);
        // The handoff is timed once per window, inside the detailed
        // tier, and is not a mode switch of its own.
        assert_eq!(hist_count("handoff"), hist_count("detailed"));
        let wall = |tier: &str| tier_seconds(&snap, tier).unwrap().1;
        assert!(wall("handoff") <= wall("detailed"));
        let switches = snap
            .series
            .iter()
            .find(|s| s.name == "mmt_tier_switches_total")
            .map(|s| s.value.clone())
            .expect("switch counter registered");
        assert_eq!(
            switches,
            mmt_obs::SeriesValue::Counter(hist_count("detailed") + hist_count("ffwd"))
        );
        // The inner window sims' stage profile was absorbed.
        let stage_cycles: u64 = snap
            .series
            .iter()
            .filter(|s| s.name == "mmt_stage_seconds")
            .map(|s| match &s.value {
                mmt_obs::SeriesValue::Histogram { count, .. } => *count,
                v => panic!("stage series is not a histogram: {v:?}"),
            })
            .sum();
        assert!(stage_cycles > 0, "inner stage profile absorbed");
        // And the profiled run's estimate matches the unprofiled one —
        // profiling must not perturb the schedule.
        let plain = run_sampled(&cfg, &spec, &sample);
        assert_eq!(plain.total_insts, est.total_insts);
        assert_eq!(plain.measured_cycles, est.measured_cycles);
    }

    #[test]
    fn window_cap_falls_back_to_fast_forward() {
        let (cfg, spec) = setup("swaptions", 2);
        let golden = Simulator::new(cfg.clone(), spec.clone())
            .expect("valid spec")
            .run()
            .expect("terminates");
        let sample = SampleConfig {
            skip: 200,
            warmup: 50,
            measure: 100,
            max_windows: 2,
        };
        let est = run_sampled(&cfg, &spec, &sample);
        assert_eq!(est.windows.len(), 2);
        assert_eq!(est.total_insts, golden.stats.total_retired());
    }
}
