//! Running jobs and passes, and checking what they produce.

use crate::host::Sched;
use crate::spans::{self, Recorder};
use crate::workloads::{Job, Mode};
use mmt_bench::sample::{run_sampled_profiled, SampleConfig, SampledEstimate};
use mmt_obs::{MetricsSnapshot, SeriesValue};
use mmt_sim::{Ffwd, SimPhase, SimStats, Simulator};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The pipeline stages of `mmt_stage_seconds`, in [`Outcome::stage_s`]
/// order.
pub const STAGES: [SimPhase; 4] = [
    SimPhase::Commit,
    SimPhase::Issue,
    SimPhase::Dispatch,
    SimPhase::Fetch,
];

/// What the fast-forward executor says a job must produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// `ArchState::digest` after `Ffwd::run_to_halt`.
    pub digest: u64,
    /// Instructions `Ffwd::run_to_halt` executed.
    pub insts: u64,
}

/// The result of one job, with the reference it is checked against.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Detailed or sampled.
    pub mode: Mode,
    /// Final architectural digest (detailed jobs; a sampled run does not
    /// return its final state).
    pub digest: Option<u64>,
    /// Instructions retired (sampled: every instruction covered).
    pub insts: u64,
    /// Simulated cycles (sampled: the estimate).
    pub cycles: f64,
    /// FNV-1a of every counter the run produced (`SimStats` or the
    /// sampled estimate), compared across passes and traced runs.
    pub fingerprint: u64,
    /// Detailed jobs' statistics.
    pub stats: Option<SimStats>,
    /// Sampled jobs' estimate.
    pub estimate: Option<SampledEstimate>,
    /// Seconds per pipeline stage, in [`STAGES`] order, from the
    /// exported `mmt_stage_seconds{stage}` series (zero unless the run
    /// had `SimConfig::metrics` on).
    pub stage_s: [f64; 4],
    /// Sampled jobs' `mmt_tier_wall_seconds` sums: detailed, ffwd.
    pub tier_s: [f64; 2],
    /// What the output must match.
    pub reference: Reference,
}

/// Check a job's output against its fast-forward reference.
///
/// # Errors
///
/// Describes the first mismatch.
pub fn check(out: &Outcome) -> Result<(), String> {
    if let Some(digest) = out.digest {
        if digest != out.reference.digest {
            return Err(format!(
                "final state digest {digest:#018x} != fast-forward {:#018x}",
                out.reference.digest
            ));
        }
    }
    if let Some(est) = &out.estimate {
        if est.total_insts != out.reference.insts {
            return Err(format!(
                "sampled run covered {} instructions, fast-forward ran {}",
                est.total_insts, out.reference.insts
            ));
        }
    }
    Ok(())
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Sum of the histogram series `name{label=value}`, zero if absent.
fn histogram_sum(snap: &MetricsSnapshot, name: &str, label: &str, value: &str) -> f64 {
    snap.series
        .iter()
        .filter(|s| s.name == name && s.labels.iter().any(|(k, v)| k == label && v == value))
        .map(|s| match s.value {
            SeriesValue::Histogram { sum, .. } => sum,
            _ => 0.0,
        })
        .sum()
}

fn stage_seconds(snap: Option<&MetricsSnapshot>) -> [f64; 4] {
    let Some(snap) = snap else {
        return [0.0; 4];
    };
    STAGES.map(|p| histogram_sum(snap, "mmt_stage_seconds", "stage", p.name()))
}

/// Run one job at `scale`, timing each layer call into `rec`. `traced`
/// turns on the simulator's stage profiler (`SimConfig::metrics`).
/// Panics inside the simulator come back as errors.
///
/// # Errors
///
/// Any `SimError`, executor fault or panic, as text.
pub fn run_job(
    job: &Job,
    seed: u64,
    scale: u64,
    traced: bool,
    rec: &mut Recorder,
) -> Result<Outcome, String> {
    let id = rec.open("job");
    let r = catch_unwind(AssertUnwindSafe(|| {
        run_job_inner(job, seed, scale, traced, rec)
    }));
    rec.close(id);
    r.unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    })
}

fn run_job_inner(
    job: &Job,
    seed: u64,
    scale: u64,
    traced: bool,
    rec: &mut Recorder,
) -> Result<Outcome, String> {
    let spec = rec.timed("workloads.instance", || job.instance(seed, scale));
    let initial = spec.initial_arch_state();
    let program = spec.program.clone();
    let mut cfg = job.cfg.clone();
    cfg.metrics = traced;
    let mut out = match job.mode {
        Mode::Detailed => {
            let mut sim = rec
                .timed("core.new", || Simulator::new(cfg, spec))
                .map_err(|e| e.to_string())?;
            rec.timed("core.step", || {
                while !sim.finished() {
                    sim.step_cycle()?;
                }
                Ok(())
            })
            .map_err(|e: mmt_sim::SimError| e.to_string())?;
            let digest = rec.timed("check.digest", || sim.arch_state().digest());
            let result = rec.timed("core.finish", || sim.finish());
            Outcome {
                mode: job.mode,
                digest: Some(digest),
                insts: result.stats.total_retired(),
                cycles: result.stats.cycles as f64,
                fingerprint: fnv1a(&format!("{:?}", result.stats)),
                stage_s: stage_seconds(result.metrics.as_ref()),
                tier_s: [0.0; 2],
                stats: Some(result.stats),
                estimate: None,
                reference: Reference {
                    digest: 0,
                    insts: 0,
                },
            }
        }
        Mode::Sampled => {
            let (est, snap) = rec.timed("sample.run", || {
                run_sampled_profiled(&cfg, &spec, &SampleConfig::default())
            });
            let tier = |t| histogram_sum(&snap, "mmt_tier_wall_seconds", "tier", t);
            Outcome {
                mode: job.mode,
                digest: None,
                insts: est.total_insts,
                cycles: est.est_cycles,
                fingerprint: fnv1a(&format!("{est:?}")),
                stage_s: stage_seconds(Some(&snap)),
                tier_s: [tier("detailed"), tier("ffwd")],
                stats: None,
                estimate: Some(est),
                reference: Reference {
                    digest: 0,
                    insts: 0,
                },
            }
        }
    };
    let check_id = rec.open("check.ffwd");
    let ffwd = rec.timed("ffwd.new", || Ffwd::new(&program));
    let mut state = initial;
    let insts = rec.timed("ffwd.run", || {
        ffwd.run_to_halt(&program, &mut state, u64::MAX)
    });
    let digest = state.digest();
    rec.close(check_id);
    out.reference = Reference {
        digest,
        insts: insts.map_err(|e| format!("fast-forward: {e}"))?,
    };
    Ok(out)
}

/// Attempts and failures of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Job runs attempted, warm-up included.
    pub attempted: u64,
    /// One line per failed job run.
    pub failures: Vec<String>,
}

impl Tally {
    /// Failed job runs.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Failed ÷ attempted.
    pub fn error_rate(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// Count one attempt; keep its outcome only if it passed.
    pub fn record(&mut self, what: &str, r: Result<Outcome, String>) -> Option<Outcome> {
        self.attempted += 1;
        match r.and_then(|o| check(&o).map(|()| o)) {
            Ok(o) => Some(o),
            Err(e) => {
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// Which kind of pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// Untimed, every job at [`WARMUP_SCALE`], before any timed pass.
    Warmup,
    /// Timed with the stage profiler off: the end-to-end numbers.
    Timed,
    /// One pass with the stage profiler on: the per-layer split.
    Traced,
}

/// Iteration divisor of the warm-up pass.
pub const WARMUP_SCALE: u64 = 16;

/// The spans `wall_s` counts: simulator build through finish. Input
/// generation and output checks are left out.
pub const WALL: &[&str] = &["core.new", "core.step", "core.finish", "sample.run"];

/// The spans `setup_s` counts: input generation plus simulator and
/// executor construction.
pub const SETUP: &[&str] = &["workloads.instance", "core.new", "ffwd.new"];

/// One pass over a workload's jobs.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Per job, inclusive seconds per span name.
    pub job_secs: Vec<BTreeMap<&'static str, f64>>,
    /// The pass's spans, in open order (parents re-indexed locally).
    pub spans: Vec<spans::Span>,
    /// Scheduler accounting across the pass.
    pub sched: Option<Sched>,
    /// Per job, its outcome if it passed every check.
    pub outcomes: Vec<Option<Outcome>>,
}

impl Pass {
    /// Job `j`'s seconds in spans named any of `names`.
    pub fn job_time(&self, j: usize, names: &[&str]) -> f64 {
        names.iter().filter_map(|n| self.job_secs[j].get(n)).sum()
    }

    /// Seconds in spans named any of `names`, summed over jobs.
    pub fn time(&self, names: &[&str]) -> f64 {
        (0..self.job_secs.len())
            .map(|j| self.job_time(j, names))
            .sum()
    }

    /// The outcomes that passed.
    pub fn passed(&self) -> impl Iterator<Item = &Outcome> {
        self.outcomes.iter().flatten()
    }

    /// `f` summed over the outcomes that passed.
    pub fn sum(&self, f: impl Fn(&Outcome) -> f64) -> f64 {
        self.passed().map(f).sum()
    }
}

/// Run every job once. Outside the warm-up, each job's counters must
/// equal those of its first pass (`fingerprints`, filled on first
/// sight), which also holds traced runs to the untraced ones.
pub fn run_pass(
    jobs: &[Job],
    kind: PassKind,
    seed: u64,
    size: u64,
    rec: &mut Recorder,
    tally: &mut Tally,
    fingerprints: &mut [Option<u64>],
) -> Pass {
    let first = rec.spans().len();
    let sched0 = Sched::now();
    let id = rec.open("pass");
    let mut outcomes = Vec::with_capacity(jobs.len());
    let mut job_secs = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        let scale = match kind {
            PassKind::Warmup => WARMUP_SCALE,
            _ => job.scale,
        } * size;
        let job_start = rec.spans().len();
        let mut r = run_job(job, seed, scale, kind == PassKind::Traced, rec);
        job_secs.push(spans::totals(&rec.spans()[job_start..]));
        if kind != PassKind::Warmup {
            if let Ok(o) = &r {
                match fingerprints[i] {
                    None => fingerprints[i] = Some(o.fingerprint),
                    Some(f) if f != o.fingerprint => {
                        r = Err("counters differ from the job's first pass".into());
                    }
                    Some(_) => {}
                }
            }
        }
        outcomes.push(tally.record(&job.label(), r));
    }
    rec.close(id);
    let sched = Sched::now().zip(sched0).map(|(b, a)| b.since(a));
    let spans: Vec<spans::Span> = rec.spans()[first..]
        .iter()
        .map(|s| spans::Span {
            parent: s.parent.and_then(|p| p.checked_sub(first)),
            ..s.clone()
        })
        .collect();
    Pass {
        job_secs,
        spans,
        sched,
        outcomes,
    }
}
