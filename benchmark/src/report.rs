//! Turning passes into named metrics, and printing them.

use crate::replay::Costs;
use crate::run::{Pass, Tally, SETUP, WALL};
use crate::stats::{median, quartiles};
use crate::workloads::{Job, Mode, Workload};
use mmt_obs::json::ObjectWriter;
use mmt_sim::{MmtLevel, SimStats};

/// The paper's MMT-FXR geomean speedups over SMT (Figure 5), by thread
/// count.
pub const PAPER_FXR_SPEEDUP: [(usize, f64); 2] = [(2, 1.15), (4, 1.25)];

/// Host-time spread of a metric over passes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Passes.
    pub n: usize,
}

/// One named value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
    /// For host times measured every pass: quartiles over the passes.
    pub spread: Option<Spread>,
}

fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        // A float sum over nothing is -0.0; report it as 0.
        value: value + 0.0,
        spread: None,
    }
}

/// Sum over jobs of each job's median seconds in `spans` across the
/// passes. Host noise on this kind of machine comes in bursts shorter
/// than a pass: a burst slows the jobs it overlaps in one pass, and
/// each job's median drops it unless it hit that job in most passes.
pub fn job_median_time(passes: &[Pass], spans: &[&str]) -> f64 {
    let jobs = passes.first().map_or(0, |p| p.job_secs.len());
    (0..jobs)
        .map(|j| {
            median(
                &passes
                    .iter()
                    .map(|p| p.job_time(j, spans))
                    .collect::<Vec<_>>(),
            )
        })
        .sum()
}

fn spread(per_pass: &[f64]) -> Option<Spread> {
    let (q1, q3) = quartiles(per_pass);
    Some(Spread {
        q1,
        q3,
        n: per_pass.len(),
    })
}

/// A metric derived by `f` from the time in `spans`: its value from
/// [`job_median_time`], its spread from the per-pass totals.
fn timed_metric(
    name: &'static str,
    unit: &'static str,
    passes: &[Pass],
    spans: &[&str],
    f: impl Fn(f64) -> f64,
) -> Metric {
    let per_pass: Vec<f64> = passes.iter().map(|p| f(p.time(spans))).collect();
    Metric {
        spread: spread(&per_pass),
        ..single(name, unit, f(job_median_time(passes, spans)))
    }
}

/// Median over passes of `f`.
fn per_pass(
    name: &'static str,
    unit: &'static str,
    passes: &[Pass],
    f: impl Fn(&Pass) -> f64,
) -> Metric {
    let xs: Vec<f64> = passes.iter().map(f).collect();
    Metric {
        spread: spread(&xs),
        ..single(name, unit, median(&xs))
    }
}

/// `a / b`, or zero when `b` is zero.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The end-to-end metrics, from the untraced timed passes. The work
/// (cycles, instructions) is the first pass's: it repeats exactly.
pub fn end_to_end(timed: &[Pass], peak_rss_mb: f64) -> Vec<Metric> {
    let first = &timed[0];
    let cycles = first.sum(|o| o.cycles);
    let insts = first.sum(|o| o.insts as f64);
    let ffwd_insts = first.sum(|o| o.reference.insts as f64);
    vec![
        timed_metric("wall_s", "s", timed, WALL, |t| t),
        timed_metric("sim_cycles_per_s", "cycles/s", timed, WALL, |t| {
            ratio(cycles, t)
        }),
        timed_metric("sim_minst_per_s", "Minst/s", timed, WALL, |t| {
            ratio(insts, t) / 1e6
        }),
        timed_metric("ffwd_minst_per_s", "Minst/s", timed, &["ffwd.run"], |t| {
            ratio(ffwd_insts, t) / 1e6
        }),
        timed_metric("setup_s", "s", timed, SETUP, |t| t),
        single("peak_rss_mb", "MiB", peak_rss_mb),
    ]
}

/// The per-layer metrics. Counts come from the first timed pass (they
/// repeat exactly); stage and tier times from the traced pass; other
/// host times are medians over the timed passes.
pub fn per_layer(timed: &[Pass], traced: &Pass, costs: &Costs) -> Vec<Metric> {
    let first = &timed[0];
    let stats: Vec<&SimStats> = first.passed().filter_map(|o| o.stats.as_ref()).collect();
    let sum = |f: fn(&SimStats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>() as f64;
    let stage_s = |mode: Option<Mode>| {
        let mut sums = [0.0; 4];
        for o in traced.passed().filter(|o| mode.is_none_or(|m| o.mode == m)) {
            for (sum, s) in sums.iter_mut().zip(o.stage_s) {
                *sum += s;
            }
        }
        sums
    };
    let stages = stage_s(None);
    let detailed_stages: f64 = stage_s(Some(Mode::Detailed)).iter().sum();
    let sampled_stages: f64 = stage_s(Some(Mode::Sampled)).iter().sum();
    let med =
        |name: &'static str, span: &'static str| timed_metric(name, "s", timed, &[span], |t| t);
    let wall = job_median_time(timed, WALL);
    let step = job_median_time(timed, &["core.step"]);

    let cycles = sum(|s| s.cycles);
    let retired = sum(SimStats::total_retired);
    let merge_checks = sum(|s| s.energy.merge_checks);
    let lookups = sum(|s| s.lvip_lookups);
    let fetched = sum(|s| s.fetch_modes.total());
    let remerges = sum(|s| s.remerges);
    let false_catchups = sum(|s| s.catchup_false_positives);
    let l1_accesses = sum(|s| s.l1i.accesses + s.l1d.accesses);

    let estimates: Vec<_> = first.passed().filter_map(|o| o.estimate.as_ref()).collect();
    let est_sum = |f: fn(&mmt_bench::sample::SampledEstimate) -> f64| {
        estimates.iter().map(|e| f(e)).sum::<f64>()
    };
    let tier = |i: usize| traced.passed().map(|o| o.tier_s[i]).sum::<f64>();

    vec![
        single("core.commit_s", "s", stages[0]),
        single("core.issue_s", "s", stages[1]),
        single("core.dispatch_s", "s", stages[2]),
        single("core.fetch_s", "s", stages[3]),
        single(
            "core.step_other_s",
            "s",
            traced.time(&["core.step"]) - detailed_stages,
        ),
        single("core.ns_per_cycle", "ns", ratio(step * 1e9, cycles)),
        med("core.new_s", "core.new"),
        single("core.cycles", "cycles", cycles),
        single("core.retired", "insts", retired),
        single("core.ipc", "insts/cycle", ratio(retired, cycles)),
        single(
            "core.uops_per_macro_op",
            "ratio",
            ratio(sum(|s| s.uops_dispatched), sum(|s| s.macro_ops_fetched)),
        ),
        single("core.split_evals", "count", sum(|s| s.energy.split_evals)),
        single("core.rst_updates", "count", sum(|s| s.energy.rst_updates)),
        single("core.merge_checks", "count", merge_checks),
        single(
            "core.regmerge_yield",
            "insts/check",
            ratio(sum(|s| s.identity.execute_identical_regmerge), merge_checks),
        ),
        single(
            "core.peak_live_uops",
            "count",
            stats.iter().map(|s| s.peak_live_uops).max().unwrap_or(0) as f64,
        ),
        single(
            "core.scratch_growth_events",
            "count",
            sum(|s| s.scratch_growth_events),
        ),
        single("lvip.lookups", "count", lookups),
        single(
            "lvip.hit_rate",
            "ratio",
            if lookups == 0.0 {
                0.0
            } else {
                1.0 - sum(|s| s.lvip_mispredicts) / lookups
            },
        ),
        single("lvip.ns_per_lookup", "ns", costs.lvip.ns_per_op()),
        single(
            "frontend.merge_frac",
            "ratio",
            ratio(sum(|s| s.fetch_modes.merge), fetched),
        ),
        single(
            "frontend.detect_frac",
            "ratio",
            ratio(sum(|s| s.fetch_modes.detect), fetched),
        ),
        single(
            "frontend.catchup_frac",
            "ratio",
            ratio(sum(|s| s.fetch_modes.catchup), fetched),
        ),
        single("frontend.divergences", "count", sum(|s| s.divergences)),
        single("frontend.remerges", "count", remerges),
        single(
            "frontend.catchup_fp_rate",
            "ratio",
            ratio(false_catchups, false_catchups + remerges),
        ),
        single("frontend.fhb_ops", "count", sum(|s| s.energy.fhb_ops)),
        single(
            "frontend.mispredict_rate",
            "ratio",
            ratio(sum(|s| s.branch_mispredicts), sum(|s| s.branches)),
        ),
        single("frontend.sync_ns_per_taken", "ns", costs.sync.ns_per_op()),
        single("frontend.bpred_ns_per_op", "ns", costs.bpred.ns_per_op()),
        single("mem.l1i_accesses", "count", sum(|s| s.l1i.accesses)),
        single("mem.l1d_accesses", "count", sum(|s| s.l1d.accesses)),
        single("mem.l2_accesses", "count", sum(|s| s.l2.accesses)),
        single(
            "mem.l1d_miss_rate",
            "ratio",
            ratio(sum(|s| s.l1d.misses), sum(|s| s.l1d.accesses)),
        ),
        single(
            "mem.l2_miss_rate",
            "ratio",
            ratio(sum(|s| s.l2.misses), sum(|s| s.l2.accesses)),
        ),
        single(
            "mem.dram_accesses",
            "count",
            sum(|s| s.energy.dram_accesses),
        ),
        single("mem.ns_per_access", "ns", costs.mem.ns_per_op()),
        single(
            "mem.est_share",
            "ratio",
            ratio(costs.mem.ns_per_op() * l1_accesses * 1e-9, wall),
        ),
        med("ffwd.s", "ffwd.run"),
        single(
            "ffwd.insts",
            "insts",
            first.sum(|o| o.reference.insts as f64),
        ),
        single(
            "sample.windows",
            "count",
            est_sum(|e| e.windows.len() as f64),
        ),
        single("sample.detailed_s", "s", tier(0)),
        single("sample.ffwd_s", "s", tier(1)),
        single("sample.handoff_s", "s", tier(0) - sampled_stages),
        single(
            "sample.detailed_frac",
            "ratio",
            ratio(
                est_sum(|e| e.detailed_insts as f64),
                est_sum(|e| e.total_insts as f64),
            ),
        ),
        single("sample.est_cycles", "cycles", est_sum(|e| e.est_cycles)),
        med("workloads.instance_s", "workloads.instance"),
        single(
            "obs.stage_profile_overhead",
            "ratio",
            ratio(traced.time(WALL), wall) - 1.0,
        ),
        per_pass("host.cpu_s", "s", timed, |p| {
            p.sched.map_or(0.0, |s| s.cpu_s)
        }),
        per_pass("host.runq_wait_s", "s", timed, |p| {
            p.sched.map_or(0.0, |s| s.wait_s)
        }),
    ]
}

/// MMT-FXR geomean speedup over Base per thread count, from the pass's
/// Base/FXR pairs of the same app (empty when the workload has none).
pub fn fxr_speedups(jobs: &[Job], pass: &Pass) -> Vec<(usize, f64)> {
    let cycles = |app: &str, threads: usize, level: MmtLevel| {
        jobs.iter()
            .zip(&pass.outcomes)
            .find(|(j, _)| j.app.name == app && j.cfg.threads == threads && j.cfg.level == level)
            .and_then(|(_, o)| o.as_ref())
            .map(|o| o.cycles)
    };
    let mut out = Vec::new();
    for (threads, _) in PAPER_FXR_SPEEDUP {
        let ratios: Vec<f64> = jobs
            .iter()
            .filter(|j| j.cfg.threads == threads && j.cfg.level == MmtLevel::Base)
            .filter_map(|j| {
                let base = cycles(j.app.name, threads, MmtLevel::Base)?;
                let fxr = cycles(j.app.name, threads, MmtLevel::Fxr)?;
                Some(base / fxr)
            })
            .collect();
        if !ratios.is_empty() {
            out.push((threads, mmt_bench::geomean(&ratios)));
        }
    }
    out
}

/// Mean relative error of the simulated speedups against the paper's.
pub fn speedup_err(speedups: &[(usize, f64)]) -> f64 {
    let errs: Vec<f64> = speedups
        .iter()
        .filter_map(|&(t, s)| {
            let (_, paper) = PAPER_FXR_SPEEDUP.iter().find(|(pt, _)| *pt == t)?;
            Some((s - paper).abs() / paper)
        })
        .collect();
    ratio(errs.iter().sum(), errs.len() as f64)
}

/// Everything one workload run produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload.
    pub workload: Workload,
    /// Its input seed.
    pub seed: u64,
    /// Jobs per pass.
    pub jobs: usize,
    /// Attempts and failures.
    pub tally: Tally,
    /// End-to-end metrics (untraced passes).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only; empty otherwise).
    pub per_layer: Vec<Metric>,
    /// Self seconds per span name in the traced pass, largest first.
    pub self_times: Vec<(&'static str, f64)>,
    /// MMT-FXR geomean speedups by thread count (`suite` only).
    pub fxr_speedups: Vec<(usize, f64)>,
    /// Host-noise and other warnings.
    pub warnings: Vec<String>,
    /// The traced run's spans as Chrome trace-event JSON.
    pub spans_json: Option<String>,
}

impl Report {
    /// True when every job run passed every check.
    pub fn correct(&self) -> bool {
        self.tally.failures.is_empty()
    }

    /// The result line: the end-to-end metrics, or with `traced` the
    /// per-layer ones.
    pub fn json_line(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut m = String::new();
        let mut mw = ObjectWriter::new(&mut m);
        for metric in metrics {
            let mut v = String::new();
            let mut vw = ObjectWriter::new(&mut v);
            vw.f64("value", metric.value).str("unit", metric.unit);
            vw.finish();
            mw.raw(metric.name, &v);
        }
        mw.finish();
        let mut out = String::new();
        let mut w = ObjectWriter::new(&mut out);
        w.bool("correct", self.correct())
            .u64("attempted", self.tally.attempted)
            .u64("failed", self.tally.failed())
            .raw("metrics", &m);
        w.finish();
        out
    }

    /// Human-readable report (everything but the result line).
    pub fn print(&self) {
        let name = self.workload.name();
        println!(
            "{name}: {} jobs per pass, seed {} ({})",
            self.jobs,
            self.seed,
            self.workload.why()
        );
        println!("{name}: end-to-end, untraced; median [q1, q3] over n passes");
        print_metrics(name, &self.end_to_end);
        println!(
            "{name}   error_rate                 {:.6} ({} of {} job runs failed)",
            self.tally.error_rate(),
            self.tally.failed(),
            self.tally.attempted
        );
        if !self.fxr_speedups.is_empty() {
            let shown: Vec<String> = self
                .fxr_speedups
                .iter()
                .map(|(t, s)| format!("{s:.4} at {t}T"))
                .collect();
            println!(
                "{name}   speedup_err                {:.6} (FXR geomean {} vs paper 1.15, 1.25)",
                speedup_err(&self.fxr_speedups),
                shown.join(", ")
            );
        }
        if !self.per_layer.is_empty() {
            println!("{name}: per-layer (stage and tier times from the traced pass)");
            print_metrics(name, &self.per_layer);
            println!("{name}: self time per span in the traced pass");
            for (span, s) in &self.self_times {
                println!("{name}   {span:<26} {s:>12.6} s");
            }
        }
        for w in &self.warnings {
            println!("{name}: warning: {w}");
        }
        for f in &self.tally.failures {
            println!("{name}: FAILED {f}");
        }
    }
}

fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        let spread = m.spread.map_or(String::new(), |s| {
            format!(" [{:.6}, {:.6}] n={}", s.q1, s.q3, s.n)
        });
        println!(
            "{workload}   {:<26} {:>16.6} {:<11}{spread}",
            m.name, m.value, m.unit
        );
    }
}
