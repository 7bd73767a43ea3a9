//! # mmtbench — end-to-end and per-layer benchmark of the MMT simulator
//!
//! One workload run is: an untimed warm-up pass, timed passes with the
//! stage profiler off until the time budget is spent (the end-to-end
//! numbers), and, when traced, one pass with the stage profiler on plus
//! a replay of each job's first functional steps through the substrate
//! layers (the per-layer numbers). Every job's output is checked against
//! the fast-forward executor, and every pass of a job must reproduce the
//! counters of its first. The benchmark measures each layer from outside,
//! through public functions only. See README.md for the workloads and
//! metrics.

#![warn(missing_docs)]

pub mod host;
pub mod replay;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;

use report::Report;
use run::{run_pass, PassKind, Tally};
use spans::Recorder;
use std::collections::BTreeSet;
use std::time::Instant;
use workloads::Workload;

/// Timed passes per run however short the time budget, so that every
/// run compares at least two passes of each job.
pub const MIN_PASSES: usize = 2;

/// Run-queue wait, as a share of `wall_s`, above which a pass is
/// reported as disturbed by other load on the host.
pub const RUNQ_WARN_SHARE: f64 = 0.02;

/// How to run a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Input seed; 0 is the apps' calibrated inputs.
    pub seed: u64,
    /// Keep starting timed passes until this many seconds have passed.
    pub seconds: f64,
    /// Add the traced pass and the layer replay.
    pub traced: bool,
    /// Extra iteration divisor on every job: 1 is the benchmark's size,
    /// larger values shrink it (tests use [`SMOKE_SIZE`]).
    pub size: u64,
}

/// The divisor tests run workloads at.
pub const SMOKE_SIZE: u64 = 16;

/// Run one workload in this process.
pub fn run_workload(workload: Workload, opts: &Options) -> Report {
    let jobs = workload.jobs();
    let mut rec = Recorder::new();
    let mut tally = Tally::default();
    let mut fingerprints = vec![None; jobs.len()];
    let pass = |kind, rec: &mut Recorder, tally: &mut Tally, fps: &mut [Option<u64>]| {
        run_pass(&jobs, kind, opts.seed, opts.size, rec, tally, fps)
    };

    pass(PassKind::Warmup, &mut rec, &mut tally, &mut fingerprints);
    // Start another pass only if it should end within the budget.
    let start = Instant::now();
    let mut timed = Vec::new();
    loop {
        let spent = start.elapsed().as_secs_f64();
        let per_pass = spent / timed.len().max(1) as f64;
        if timed.len() >= MIN_PASSES && spent + per_pass > opts.seconds {
            break;
        }
        timed.push(pass(
            PassKind::Timed,
            &mut rec,
            &mut tally,
            &mut fingerprints,
        ));
    }
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);

    let mut warnings = Vec::new();
    for (i, p) in timed.iter().enumerate() {
        let wall = p.time(run::WALL);
        if let Some(s) = p.sched {
            if s.wait_s > RUNQ_WARN_SHARE * wall {
                warnings.push(format!(
                    "pass {i}: run-queue wait {:.4} s is {:.1}% of wall_s {wall:.4} s",
                    s.wait_s,
                    100.0 * s.wait_s / wall,
                ));
            }
        }
    }

    let mut per_layer = Vec::new();
    let mut self_times = Vec::new();
    let mut spans_json = None;
    if opts.traced {
        let traced = pass(PassKind::Traced, &mut rec, &mut tally, &mut fingerprints);
        let mut costs = replay::Costs::default();
        // Layer costs do not depend on the MMT level: replay each
        // distinct instance once.
        let mut seen = BTreeSet::new();
        for job in &jobs {
            if !seen.insert((job.app.name, job.cfg.threads, job.input)) {
                continue;
            }
            let spec = job.instance(opts.seed, job.scale * opts.size);
            let r = replay::measure(&spec, &job.cfg);
            tally.attempted += 1;
            match r {
                Ok(c) => costs.add(&c),
                Err(e) => tally.failures.push(format!("{} replay: {e}", job.label())),
            }
        }
        per_layer = report::per_layer(&timed, &traced, &costs);
        let mut st: Vec<_> = spans::self_times(&traced.spans).into_iter().collect();
        st.sort_by(|a, b| b.1.total_cmp(&a.1));
        self_times = st;
        spans_json = Some(rec.chrome_json());
    }

    let fxr_speedups = match workload {
        Workload::Suite => report::fxr_speedups(&jobs, &timed[0]),
        _ => Vec::new(),
    };
    Report {
        workload,
        seed: opts.seed,
        jobs: jobs.len(),
        end_to_end: report::end_to_end(&timed, peak_rss_mb),
        tally,
        per_layer,
        self_times,
        fxr_speedups,
        warnings,
        spans_json,
    }
}
