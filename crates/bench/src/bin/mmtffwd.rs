//! `mmtffwd` — CI gate for the two-speed simulation stack
//! (DESIGN.md §14). Three gates, all over the real 16-app suite:
//!
//! 1. **Digest** — the block-dispatch fast-forward executor
//!    ([`mmt_sim::Ffwd`]) must reach *exactly* the detailed model's
//!    final architectural digest (registers, PCs, retired counts,
//!    memory images) on every app at 2 and 4 threads.
//! 2. **Throughput** — fast-forwarding the `perfsmoke` workload must be
//!    at least [`SPEED_RATIO_FLOOR`]x faster wall-clock than the
//!    detailed model on the same program (best of `--reps`).
//! 3. **Sampling** — SMARTS-style sampled runs
//!    ([`mmt_bench::sample::run_sampled`]) must estimate full-detail
//!    cycle counts, merged-fetch fractions, and Base→MMT-FXR speedups
//!    within the documented bounds on every app at 2 threads.
//!
//! Writes `results/BENCH_ffwd.json`, appends a `results/LEDGER.jsonl`
//! record, and prints a markdown summary table (piped into
//! `$GITHUB_STEP_SUMMARY` by the `ffwd` CI job). Exits nonzero if any
//! gate fails.
//!
//! Flags are the unified gate set ([`mmt_bench::gate`]):
//! `--all-workloads`, `--apps LIST` (alias `--app`), `--threads LIST`,
//! `--scale N` (default 1 here — the gate validates paper-sized runs),
//! `--jobs N`, `--format text|json`, `--progress PATH` — plus this
//! tool's own `--reps N` (throughput repetitions, default 3).
//!
//! ```text
//! cargo run --release -p mmt-bench --bin mmtffwd            # full gate
//! cargo run --release -p mmt-bench --bin mmtffwd -- --scale 16 --jobs 4
//! ```

use mmt_bench::cli::{fail_run, fail_usage};
use mmt_bench::gate::{finish_gate, GateRow, GateSpec};
use mmt_bench::sample::{run_sampled, SampleConfig};
use mmt_bench::sweep::run_parallel;
use mmt_bench::{arg_value, to_run_spec, FULL_SCALE};
use mmt_sim::{Ffwd, MmtLevel, RunSpec, SimConfig, SimStats, Simulator};
use mmt_workloads::perfsmoke_app;
use std::time::Instant;

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

/// One ledger/exit-policy row: a digest case, a sampling case, or the
/// throughput pseudo-case, with gate failures expressed as violations.
struct FfwdCase {
    app: String,
    threads: usize,
    sim_cycles: u64,
    violations: Vec<String>,
}

impl GateRow for FfwdCase {
    fn app(&self) -> &str {
        &self.app
    }
    fn threads(&self) -> usize {
        self.threads
    }
    fn violations(&self) -> &[String] {
        &self.violations
    }
    fn sim_cycles(&self) -> u64 {
        self.sim_cycles
    }
}

struct FfwdReport {
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
    FfwdReport {
        figure, scale, jobs, speed_ratio, speed_ratio_floor, ffwd_minsts_per_sec,
        cycles_rel_err_bound, merge_abs_err_bound, speedup_rel_err_bound, worst_cycles_rel_err,
        worst_merge_abs_err, worst_speedup_rel_err, pass, throughput, digest, sampling
    }
}

/// Detailed run driven cycle-by-cycle so the final architectural digest
/// can be read before the stats fold; returns `(stats, digest)`.
fn detailed_golden(cfg: SimConfig, spec: RunSpec) -> (SimStats, u64) {
    let mut sim = Simulator::new(cfg, spec)
        .unwrap_or_else(|e| fail_run(false, format!("invalid config/spec: {e}")));
    while !sim.finished() {
        sim.step_cycle()
            .unwrap_or_else(|e| fail_run(false, format!("simulation failed: {e}")));
    }
    let digest = sim.arch_state().digest();
    (sim.finish().stats, digest)
}

fn ffwd_digest(spec: &RunSpec) -> (u64, u64, f64) {
    let ffwd = Ffwd::new(&spec.program);
    let mut state = spec.initial_arch_state();
    let start = Instant::now();
    let insts = ffwd
        .run_to_halt(&spec.program, &mut state, u64::MAX)
        .unwrap_or_else(|e| fail_run(false, format!("fast-forward failed: {e}")));
    let wall = start.elapsed().as_secs_f64();
    (state.digest(), insts, insts as f64 / wall.max(1e-9) / 1e6)
}

fn merge_fraction(stats: &SimStats) -> f64 {
    let (m, _, _) = stats.fetch_modes.fractions();
    m
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // Only failures are emitted as JSON objects; the success output
    // stays the markdown table CI renders.
    let mut spec = GateSpec::from_args(&args);
    // This gate validates paper-sized runs by default, not the smoke
    // scale the differential gates use.
    if arg_value(&args, "--scale").is_none() {
        spec.scale = FULL_SCALE;
    }
    if spec.threads.is_empty() {
        fail_usage(spec.json, "--threads needs at least one thread count");
    }
    let started = Instant::now();
    let scale = spec.scale;
    let reps: usize = arg_value(&args, "--reps")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail_usage(spec.json, "--reps takes a number"))
        })
        .unwrap_or(3);
    let apps = spec.apps.clone();
    let sample = SampleConfig::default();

    // Gate 1 + goldens: every (app, threads) case runs the detailed
    // model once (stepped, for the digest) and the fast-forward executor
    // once. The first-thread-count FXR stats double as gate 3's goldens.
    let digest_runs = spec.run_cases(|app, threads| {
        let cfg = SimConfig::paper_with(threads, MmtLevel::Fxr);
        let spec = to_run_spec(app.instance(threads, scale));
        let (stats, golden_digest) = detailed_golden(cfg, spec.clone());
        let (fast_digest, insts, minsts) = ffwd_digest(&spec);
        (
            DigestRow {
                app: app.name,
                threads,
                insts,
                matched: fast_digest == golden_digest,
                ffwd_minsts_per_sec: minsts,
            },
            stats,
        )
    });
    let (digest, goldens): (Vec<DigestRow>, Vec<SimStats>) = digest_runs.into_iter().unzip();
    let digest_pass = digest.iter().all(|r| r.matched);

    // Gate 3: sampled estimates vs. the full-detail goldens at the
    // first selected thread count (default 2), including the paper's
    // headline Base→FXR speedup. The goldens sit at stride
    // `spec.threads.len()` in case (app-major) order.
    let sample_threads = spec.threads[0];
    let fxr_goldens: Vec<&SimStats> = goldens.iter().step_by(spec.threads.len()).collect();
    let sampling = run_parallel(&apps, spec.jobs, |app| {
        let progress_label = format!("sample:{}", app.name);
        if let Some(p) = &spec.progress {
            p.start(&progress_label);
        }
        let case_started = Instant::now();
        let idx = apps.iter().position(|a| a.name == app.name).unwrap();
        let golden_fxr = fxr_goldens[idx];
        let spec_run = to_run_spec(app.instance(sample_threads, scale));
        let base_cfg = SimConfig::paper_with(sample_threads, MmtLevel::Base);
        let golden_base = Simulator::new(base_cfg.clone(), spec_run.clone())
            .unwrap_or_else(|e| fail_run(false, format!("{}: invalid config/spec: {e}", app.name)))
            .run()
            .unwrap_or_else(|e| fail_run(false, format!("{}: {e}", app.name)))
            .stats;

        let fxr_cfg = SimConfig::paper_with(sample_threads, MmtLevel::Fxr);
        let est_fxr = run_sampled(&fxr_cfg, &spec_run, &sample);
        let est_base = run_sampled(&base_cfg, &spec_run, &sample);

        let golden_merge = merge_fraction(golden_fxr);
        let golden_speedup = golden_base.cycles as f64 / golden_fxr.cycles.max(1) as f64;
        let est_speedup = est_base.est_cycles / est_fxr.est_cycles.max(1.0);
        let cycles_rel_err = est_fxr.cycles_rel_err(golden_fxr.cycles);
        let merge_abs_err = (est_fxr.merge_fraction - golden_merge).abs();
        let speedup_rel_err = (est_speedup - golden_speedup).abs() / golden_speedup;
        let row = SampleRow {
            app: app.name,
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
        if let Some(p) = &spec.progress {
            p.finish(&progress_label, case_started.elapsed());
        }
        (row, golden_base.cycles)
    });
    let (sampling, sample_base_cycles): (Vec<SampleRow>, Vec<u64>) = sampling.into_iter().unzip();
    let sampling_pass = sampling.iter().all(|r| r.pass);

    // Gate 2: wall-clock speed ratio on the perfsmoke workload, both
    // thread counts per rep, best rep (rejects background-load noise).
    let smoke = perfsmoke_app();
    let mut throughput = Vec::new();
    for _ in 0..reps {
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

            let ffwd = Ffwd::new(&spec.program);
            let mut state = spec.initial_arch_state();
            let start = Instant::now();
            ffwd_insts += ffwd
                .run_to_halt(&spec.program, &mut state, u64::MAX)
                .unwrap_or_else(|e| fail_run(false, format!("fast-forward failed: {e}")));
            ffwd_wall += start.elapsed().as_secs_f64() * 1e3;
        }
        throughput.push(ThroughputRep {
            detailed_wall_ms: detailed_wall,
            ffwd_wall_ms: ffwd_wall,
            ratio: detailed_wall / ffwd_wall.max(1e-9),
            ffwd_minsts_per_sec: ffwd_insts as f64 / (ffwd_wall / 1e3).max(1e-9) / 1e6,
        });
    }
    let best = throughput
        .iter()
        .max_by(|a, b| a.ratio.total_cmp(&b.ratio))
        .expect("at least one rep");
    let (speed_ratio, ffwd_minsts) = (best.ratio, best.ffwd_minsts_per_sec);
    let throughput_pass = speed_ratio >= SPEED_RATIO_FLOOR;

    let worst_cycles = sampling
        .iter()
        .map(|r| r.cycles_rel_err)
        .fold(0.0, f64::max);
    let worst_merge = sampling.iter().map(|r| r.merge_abs_err).fold(0.0, f64::max);
    let worst_speedup = sampling
        .iter()
        .map(|r| r.speedup_rel_err)
        .fold(0.0, f64::max);
    let pass = digest_pass && throughput_pass && sampling_pass;

    let report = FfwdReport {
        figure: "ffwd".into(),
        scale,
        jobs: spec.jobs,
        speed_ratio,
        speed_ratio_floor: SPEED_RATIO_FLOOR,
        ffwd_minsts_per_sec: ffwd_minsts,
        cycles_rel_err_bound: CYCLES_REL_ERR_BOUND,
        merge_abs_err_bound: MERGE_ABS_ERR_BOUND,
        speedup_rel_err_bound: SPEEDUP_REL_ERR_BOUND,
        worst_cycles_rel_err: worst_cycles,
        worst_merge_abs_err: worst_merge,
        worst_speedup_rel_err: worst_speedup,
        pass,
        throughput,
        digest,
        sampling,
    };

    // Markdown job summary (CI pipes stdout into $GITHUB_STEP_SUMMARY).
    println!("## Two-speed simulation gate\n");
    println!("| gate | result | bound | status |");
    println!("|---|---|---|---|");
    println!(
        "| architectural digest | {}/{} runs match | all | {} |",
        report.digest.iter().filter(|r| r.matched).count(),
        report.digest.len(),
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
    println!("\n### Per-app sampling accuracy (2 threads, MMT-FXR)\n");
    println!(
        "| app | golden cycles | est cycles | err | merge (g/est) | speedup (g/est) | windows |"
    );
    println!("|---|---|---|---|---|---|---|");
    for r in &report.sampling {
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
    for r in report.digest.iter().filter(|r| !r.matched) {
        println!(
            "\n**digest mismatch**: {} @ {} threads ({} insts)",
            r.app, r.threads, r.insts
        );
    }

    // Express the three gates as violation-bearing cases so the shared
    // epilogue (SOUNDNESS lines, report write, ledger append, exit
    // policy) applies unchanged.
    let mut cases: Vec<FfwdCase> = report
        .digest
        .iter()
        .zip(&goldens)
        .map(|(r, stats)| FfwdCase {
            app: r.app.to_string(),
            threads: r.threads,
            sim_cycles: stats.cycles,
            violations: if r.matched {
                Vec::new()
            } else {
                vec![format!(
                    "fast-forward digest mismatch after {} insts",
                    r.insts
                )]
            },
        })
        .collect();
    for (r, &base_cycles) in report.sampling.iter().zip(&sample_base_cycles) {
        let mut violations = Vec::new();
        if r.cycles_rel_err > CYCLES_REL_ERR_BOUND {
            violations.push(format!(
                "sampled cycle estimate off by {:.1}% (bound {:.0}%)",
                r.cycles_rel_err * 100.0,
                CYCLES_REL_ERR_BOUND * 100.0
            ));
        }
        if r.merge_abs_err > MERGE_ABS_ERR_BOUND {
            violations.push(format!(
                "sampled merge fraction off by {:.3} (bound {MERGE_ABS_ERR_BOUND})",
                r.merge_abs_err
            ));
        }
        if r.speedup_rel_err > SPEEDUP_REL_ERR_BOUND {
            violations.push(format!(
                "sampled speedup off by {:.1}% (bound {:.0}%)",
                r.speedup_rel_err * 100.0,
                SPEEDUP_REL_ERR_BOUND * 100.0
            ));
        }
        cases.push(FfwdCase {
            app: r.app.to_string(),
            threads: sample_threads,
            sim_cycles: base_cycles,
            violations,
        });
    }
    // Throughput is a whole-suite property, not a per-case one: one
    // pseudo-case carries it (threads 0 = not app×thread shaped).
    cases.push(FfwdCase {
        app: "perfsmoke-throughput".to_string(),
        threads: 0,
        sim_cycles: 0,
        violations: if throughput_pass {
            Vec::new()
        } else {
            vec![format!(
                "fast-forward only {speed_ratio:.1}x faster than detailed \
                 (floor {SPEED_RATIO_FLOOR:.0}x)"
            )]
        },
    });
    finish_gate("mmtffwd", "ffwd", &spec, started, &report, &cases);
}

fn status(ok: bool) -> &'static str {
    if ok {
        "PASS"
    } else {
        "**FAIL**"
    }
}
