//! `ffwd` (DESIGN.md §14): three gates on the two-speed simulator.
//! **Digest**: the fast-forward executor ([`mmt_sim::Ffwd`]) reaches
//! exactly the golden's final architectural digest. **Throughput**: it
//! runs the `perfsmoke` workload at least [`SPEED_RATIO_FLOOR`]x faster
//! than the detailed model (best of [`REPS`]). **Sampling**: SMARTS-style
//! sampled runs ([`crate::sample::run_sampled`]) estimate the golden's
//! cycles, merged-fetch fraction and Base→MMT-FXR speedup within the
//! bounds below, per app at the first thread count.

use super::{Case, Golden, Options, Verdict};
use crate::cli::fail_run;
use crate::sample::{run_sampled, SampleConfig};
use crate::to_run_spec;
use mmt_sim::{Ffwd, MmtLevel, RunSpec, SimConfig, SimStats, Simulator};
use mmt_workloads::perfsmoke_app;
use std::time::Instant;

/// Throughput repetitions; the best one counts (rejects background-load
/// noise).
const REPS: usize = 3;
/// Minimum wall-clock speed ratio of fast-forward over the detailed
/// model on the same program (gate 2).
const SPEED_RATIO_FLOOR: f64 = 10.0;
/// Maximum relative error of the sampled cycle estimate vs. the
/// full-detail golden, per app (gate 3).
const CYCLES_REL_ERR_BOUND: f64 = 0.10;
/// Maximum absolute error of the sampled merged-fetch fraction vs. the
/// full-detail golden, per app (gate 3). Wider than the cycle bound:
/// fetch-mode state is microarchitectural and cannot be reconstructed
/// from an architectural snapshot, so a window whose skip interval
/// ended inside a divergence episode runs diverged where the golden
/// run had long since re-merged (DESIGN.md §14 discusses this limit).
/// Cycle estimates barely notice — divergence changes *which* slots
/// fetch, not how many — but per-app merge fractions swing by up to
/// ~0.2 on the high-divergence apps.
const MERGE_ABS_ERR_BOUND: f64 = 0.25;
/// Maximum relative error of the sampled Base→FXR speedup vs. the
/// full-detail golden, per app (gate 3).
const SPEEDUP_REL_ERR_BOUND: f64 = 0.15;

struct DigestRow {
    app: &'static str,
    threads: usize,
    insts: u64,
    matched: bool,
    ffwd_minsts_per_sec: f64,
}
mmt_obs::impl_to_json! { DigestRow { app, threads, insts, matched, ffwd_minsts_per_sec } }

struct SampleRow {
    app: &'static str,
    golden_cycles: u64,
    est_cycles: f64,
    cycles_rel_err: f64,
    golden_merge: f64,
    est_merge: f64,
    merge_abs_err: f64,
    golden_speedup: f64,
    est_speedup: f64,
    speedup_rel_err: f64,
    windows: usize,
    detailed_fraction: f64,
    pass: bool,
}
mmt_obs::impl_to_json! {
    SampleRow {
        app, golden_cycles, est_cycles, cycles_rel_err, golden_merge, est_merge, merge_abs_err,
        golden_speedup, est_speedup, speedup_rel_err, windows, detailed_fraction, pass
    }
}

struct ThroughputRep {
    detailed_wall_ms: f64,
    ffwd_wall_ms: f64,
    ratio: f64,
    ffwd_minsts_per_sec: f64,
}
mmt_obs::impl_to_json! {
    ThroughputRep {
        detailed_wall_ms, ffwd_wall_ms, ratio, ffwd_minsts_per_sec
    }
}

struct Report {
    figure: String,
    scale: u64,
    jobs: usize,
    speed_ratio: f64,
    speed_ratio_floor: f64,
    ffwd_minsts_per_sec: f64,
    cycles_rel_err_bound: f64,
    merge_abs_err_bound: f64,
    speedup_rel_err_bound: f64,
    worst_cycles_rel_err: f64,
    worst_merge_abs_err: f64,
    worst_speedup_rel_err: f64,
    pass: bool,
    throughput: Vec<ThroughputRep>,
    digest: Vec<DigestRow>,
    sampling: Vec<SampleRow>,
}
mmt_obs::impl_to_json! {
    Report {
        figure, scale, jobs, speed_ratio, speed_ratio_floor, ffwd_minsts_per_sec,
        cycles_rel_err_bound, merge_abs_err_bound, speedup_rel_err_bound, worst_cycles_rel_err,
        worst_merge_abs_err, worst_speedup_rel_err, pass, throughput, digest, sampling
    }
}

/// One case's digest gate and, at the sampled thread count, its
/// sampling gate.
pub(super) struct Row {
    digest: DigestRow,
    sample: Option<SampleRow>,
    /// Cycles of the golden plus, when sampled, of the Base golden.
    sim_cycles: u64,
    violations: Vec<String>,
}

/// Fast-forward `spec` to its halt: `(digest, insts, wall seconds)`.
fn fast_forward(spec: &RunSpec) -> (u64, u64, f64) {
    let ffwd = Ffwd::new(&spec.program);
    let mut state = spec.initial_arch_state();
    let start = Instant::now();
    let insts = ffwd
        .run_to_halt(&spec.program, &mut state, u64::MAX)
        .unwrap_or_else(|e| fail_run(false, format!("fast-forward failed: {e}")));
    (state.digest(), insts, start.elapsed().as_secs_f64())
}

/// Gate one case: its fast-forward digest against the golden's and,
/// when `sampled`, its sampled estimates against the golden and a Base
/// golden.
pub(super) fn check(case: &Case, golden: &Golden, sampled: bool) -> Row {
    let spec = case.spec();
    let (fast_digest, insts, wall) = fast_forward(&spec);
    let digest = DigestRow {
        app: case.app.name,
        threads: case.threads,
        insts,
        matched: fast_digest == golden.digest,
        ffwd_minsts_per_sec: insts as f64 / wall.max(1e-9) / 1e6,
    };
    let mut violations = Vec::new();
    if !digest.matched {
        violations.push(format!("fast-forward digest mismatch after {insts} insts"));
    }
    let mut sim_cycles = golden.result.stats.cycles;
    let sample = sampled.then(|| {
        let (row, base_cycles) = sample(case, &spec, &golden.result.stats);
        sim_cycles += base_cycles;
        if row.cycles_rel_err > CYCLES_REL_ERR_BOUND {
            violations.push(format!(
                "sampled cycle estimate off by {:.1}% (bound {:.0}%)",
                row.cycles_rel_err * 100.0,
                CYCLES_REL_ERR_BOUND * 100.0
            ));
        }
        if row.merge_abs_err > MERGE_ABS_ERR_BOUND {
            violations.push(format!(
                "sampled merge fraction off by {:.3} (bound {MERGE_ABS_ERR_BOUND})",
                row.merge_abs_err
            ));
        }
        if row.speedup_rel_err > SPEEDUP_REL_ERR_BOUND {
            violations.push(format!(
                "sampled speedup off by {:.1}% (bound {:.0}%)",
                row.speedup_rel_err * 100.0,
                SPEEDUP_REL_ERR_BOUND * 100.0
            ));
        }
        row
    });
    Row {
        digest,
        sample,
        sim_cycles,
        violations,
    }
}

/// Sampled MMT-FXR and Base estimates of `spec` against the FXR golden
/// `golden_fxr` and a full-detail Base run, including the paper's
/// headline Base→FXR speedup. Returns the row and the Base run's cycles.
fn sample(case: &Case, spec: &RunSpec, golden_fxr: &SimStats) -> (SampleRow, u64) {
    let app = case.app.name;
    let base_cfg = SimConfig::paper_with(case.threads, MmtLevel::Base);
    let golden_base = Simulator::new(base_cfg.clone(), spec.clone())
        .unwrap_or_else(|e| fail_run(false, format!("{app}: invalid config/spec: {e}")))
        .run()
        .unwrap_or_else(|e| fail_run(false, format!("{app}: {e}")))
        .stats;
    let sample = SampleConfig::default();
    let fxr_cfg = SimConfig::paper_with(case.threads, MmtLevel::Fxr);
    let est_fxr = run_sampled(&fxr_cfg, spec, &sample);
    let est_base = run_sampled(&base_cfg, spec, &sample);

    let golden_merge = golden_fxr.fetch_modes.fractions().0;
    let golden_speedup = golden_base.cycles as f64 / golden_fxr.cycles.max(1) as f64;
    let est_speedup = est_base.est_cycles / est_fxr.est_cycles.max(1.0);
    let cycles_rel_err = est_fxr.cycles_rel_err(golden_fxr.cycles);
    let merge_abs_err = (est_fxr.merge_fraction - golden_merge).abs();
    let speedup_rel_err = (est_speedup - golden_speedup).abs() / golden_speedup;
    let row = SampleRow {
        app,
        golden_cycles: golden_fxr.cycles,
        est_cycles: est_fxr.est_cycles,
        cycles_rel_err,
        golden_merge,
        est_merge: est_fxr.merge_fraction,
        merge_abs_err,
        golden_speedup,
        est_speedup,
        speedup_rel_err,
        windows: est_fxr.windows.len(),
        detailed_fraction: est_fxr.detailed_fraction(),
        pass: cycles_rel_err <= CYCLES_REL_ERR_BOUND
            && merge_abs_err <= MERGE_ABS_ERR_BOUND
            && speedup_rel_err <= SPEEDUP_REL_ERR_BOUND,
    };
    (row, golden_base.cycles)
}

/// Gate 2: the wall-clock speed ratio on the perfsmoke workload, both
/// thread counts per rep.
fn throughput() -> Vec<ThroughputRep> {
    let smoke = perfsmoke_app();
    (0..REPS)
        .map(|_| {
            let mut detailed_wall = 0.0f64;
            let mut ffwd_wall = 0.0f64;
            let mut ffwd_insts = 0u64;
            for threads in [2usize, 4] {
                let cfg = SimConfig::paper_with(threads, MmtLevel::Fxr);
                let spec = to_run_spec(smoke.instance(threads, 1));
                let sim = Simulator::new(cfg, spec.clone())
                    .unwrap_or_else(|e| fail_run(false, format!("invalid config/spec: {e}")));
                let start = Instant::now();
                sim.run()
                    .unwrap_or_else(|e| fail_run(false, format!("perfsmoke: {e}")));
                detailed_wall += start.elapsed().as_secs_f64() * 1e3;
                let (_, insts, wall) = fast_forward(&spec);
                ffwd_insts += insts;
                ffwd_wall += wall * 1e3;
            }
            ThroughputRep {
                detailed_wall_ms: detailed_wall,
                ffwd_wall_ms: ffwd_wall,
                ratio: detailed_wall / ffwd_wall.max(1e-9),
                ffwd_minsts_per_sec: ffwd_insts as f64 / (ffwd_wall / 1e3).max(1e-9) / 1e6,
            }
        })
        .collect()
}

fn status(ok: bool) -> &'static str {
    if ok {
        "PASS"
    } else {
        "**FAIL**"
    }
}

/// Run the throughput gate, print the summary and hand the rows to the
/// epilogue.
pub(super) fn finish(rows: impl Iterator<Item = Row>, scale: u64, opts: &Options) -> Verdict {
    let (mut digest, mut sampling, mut violations, mut sim_cycles) =
        (Vec::new(), Vec::new(), Vec::new(), 0);
    for row in rows {
        violations.extend(super::violations_of(
            row.digest.app,
            row.digest.threads,
            &row.violations,
        ));
        sim_cycles += row.sim_cycles;
        digest.push(row.digest);
        sampling.extend(row.sample);
    }
    let digest_pass = digest.iter().all(|r| r.matched);
    let sampling_pass = sampling.iter().all(|r| r.pass);

    let throughput = throughput();
    let best = throughput
        .iter()
        .max_by(|a, b| a.ratio.total_cmp(&b.ratio))
        .expect("at least one rep");
    let (speed_ratio, ffwd_minsts) = (best.ratio, best.ffwd_minsts_per_sec);
    let throughput_pass = speed_ratio >= SPEED_RATIO_FLOOR;
    // Throughput is a whole-suite property, not a per-case one: a
    // pseudo-case carries it (threads 0 = not app×thread shaped).
    if !throughput_pass {
        violations.push(format!(
            "perfsmoke-throughput t=0: fast-forward only {speed_ratio:.1}x faster than \
             detailed (floor {SPEED_RATIO_FLOOR:.0}x)"
        ));
    }

    let worst = |f: fn(&SampleRow) -> f64| sampling.iter().map(f).fold(0.0, f64::max);
    let worst_cycles = worst(|r| r.cycles_rel_err);
    let worst_merge = worst(|r| r.merge_abs_err);
    let worst_speedup = worst(|r| r.speedup_rel_err);

    println!("## Two-speed simulation gate (scale {scale})\n");
    println!("| gate | result | bound | status |");
    println!("|---|---|---|---|");
    println!(
        "| architectural digest | {}/{} runs match | all | {} |",
        digest.iter().filter(|r| r.matched).count(),
        digest.len(),
        status(digest_pass)
    );
    println!(
        "| ffwd speed ratio | {speed_ratio:.1}x ({ffwd_minsts:.1} Minst/s) | >= {SPEED_RATIO_FLOOR:.0}x | {} |",
        status(throughput_pass)
    );
    println!(
        "| sampled cycles rel err (worst) | {:.1}% | <= {:.0}% | {} |",
        worst_cycles * 100.0,
        CYCLES_REL_ERR_BOUND * 100.0,
        status(worst_cycles <= CYCLES_REL_ERR_BOUND)
    );
    println!(
        "| sampled merge abs err (worst) | {:.3} | <= {MERGE_ABS_ERR_BOUND} | {} |",
        worst_merge,
        status(worst_merge <= MERGE_ABS_ERR_BOUND)
    );
    println!(
        "| sampled speedup rel err (worst) | {:.1}% | <= {:.0}% | {} |",
        worst_speedup * 100.0,
        SPEEDUP_REL_ERR_BOUND * 100.0,
        status(worst_speedup <= SPEEDUP_REL_ERR_BOUND)
    );
    println!(
        "\n### Per-app sampling accuracy ({} threads, MMT-FXR)\n",
        opts.threads[0]
    );
    println!(
        "| app | golden cycles | est cycles | err | merge (g/est) | speedup (g/est) | windows |"
    );
    println!("|---|---|---|---|---|---|---|");
    for r in &sampling {
        println!(
            "| {} | {} | {:.0} | {:.1}% | {:.2}/{:.2} | {:.2}/{:.2} | {} |",
            r.app,
            r.golden_cycles,
            r.est_cycles,
            r.cycles_rel_err * 100.0,
            r.golden_merge,
            r.est_merge,
            r.golden_speedup,
            r.est_speedup,
            r.windows
        );
    }
    for r in digest.iter().filter(|r| !r.matched) {
        println!(
            "\n**digest mismatch**: {} @ {} threads ({} insts)",
            r.app, r.threads, r.insts
        );
    }

    let report = Report {
        figure: "ffwd".into(),
        scale,
        jobs: opts.jobs,
        speed_ratio,
        speed_ratio_floor: SPEED_RATIO_FLOOR,
        ffwd_minsts_per_sec: ffwd_minsts,
        cycles_rel_err_bound: CYCLES_REL_ERR_BOUND,
        merge_abs_err_bound: MERGE_ABS_ERR_BOUND,
        speedup_rel_err_bound: SPEEDUP_REL_ERR_BOUND,
        worst_cycles_rel_err: worst_cycles,
        worst_merge_abs_err: worst_merge,
        worst_speedup_rel_err: worst_speedup,
        pass: digest_pass && throughput_pass && sampling_pass,
        throughput,
        digest,
        sampling,
    };
    Verdict {
        violations,
        sim_cycles,
        report: Box::new(report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_workloads::app_by_name;

    #[test]
    fn a_digest_mismatch_is_a_violation() {
        let case = Case::new(&app_by_name("fft").unwrap(), 2, crate::SMOKE_SCALE);
        let mut golden = case.golden(false, false).unwrap();
        let row = check(&case, &golden, false);
        assert!(row.digest.matched && row.violations.is_empty());

        golden.digest ^= 1;
        let row = check(&case, &golden, false);
        assert!(!row.digest.matched);
        assert_eq!(
            row.violations,
            [format!(
                "fast-forward digest mismatch after {} insts",
                row.digest.insts
            )]
        );
    }
}
