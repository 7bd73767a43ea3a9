//! `perfsmoke` — the simulator-throughput microbenchmark CI logs every
//! run.
//!
//! Times `--reps` fixed-seed runs of the cycle loop (the dedicated
//! [`mmt_workloads::perfsmoke_app`] workload at 2 and 4 threads,
//! MMT-FXR) and prints a single sim-cycles/sec throughput number — the
//! *best* rep pair, which rejects transient machine-load noise — then
//! writes `results/BENCH_perfsmoke.json` with the per-run telemetry and
//! the pre-overhaul baseline for PR-over-PR comparison, and appends the
//! gated throughput to `results/LEDGER.jsonl` so `mmtreport` can trend
//! it run-over-run.
//!
//! ```text
//! cargo run --release -p mmt-bench --bin perfsmoke -- --reps 3
//! cargo run --release -p mmt-bench --bin perfsmoke -- --check-baseline
//! ```
//!
//! `--check-baseline` reads the committed `results/BENCH_perfsmoke.json`
//! *before* overwriting it and exits nonzero if throughput (tracing
//! compiled in but disabled) fell more than 5% below the committed
//! `sim_cycles_per_sec` — the CI guard that keeps the observability
//! layer zero-cost when off. A measurement under the floor is retried
//! up to twice (noise clears on retry, regressions do not).
//!
//! Two informational (never gating) sections ride along:
//!
//! * **tracing overhead** — per rep, a traced and an untraced pair run
//!   back-to-back under the same machine load; the reported overhead is
//!   the *median* of the per-rep paired ratios, clamped at zero (a
//!   one-sided cost cannot be negative — earlier unpaired measurement
//!   let machine noise drive it below zero).
//! * **ffwdsmoke** — the block-dispatch fast-forward executor on the
//!   same workload: instructions/sec and its wall-clock speed ratio
//!   over the detailed model (best of reps; the enforced >= 10x floor
//!   lives in the `mmtffwd` gate).

use mmt_bench::ledger::LedgerRecord;
use mmt_bench::retry::RetryPolicy;
use mmt_bench::sweep::{write_report, RunTelemetry};
use mmt_bench::{arg_value, to_run_spec};
use mmt_sim::{MmtLevel, SimConfig, Simulator};
use mmt_workloads::perfsmoke_app;
use std::time::Instant;

/// Sim-cycles/sec measured on the pre-overhaul implementation (the
/// allocating cycle loop with the monotonic uop arena), same workload
/// and reps (median of repeated `--reps 2` runs: 133k/138k/141k/166k),
/// recorded before the Scratch/free-list rewrite landed. The acceptance
/// bar for the overhaul is >= 2x this number on the same machine class.
const PRE_OVERHAUL_BASELINE_CPS: f64 = 140_000.0;

/// Allowed fractional throughput drop vs. the committed baseline before
/// `--check-baseline` fails.
const REGRESSION_TOLERANCE: f64 = 0.05;

struct PerfsmokeReport {
    figure: String,
    reps: usize,
    total_cycles: u64,
    total_wall_ms: f64,
    sim_cycles_per_sec: f64,
    baseline_sim_cycles_per_sec: f64,
    speedup_vs_baseline: f64,
    traced_sim_cycles_per_sec: f64,
    trace_overhead_fraction: f64,
    ffwd_insts_per_sec: f64,
    ffwd_speed_ratio_vs_detailed: f64,
    runs: Vec<RunTelemetry>,
}
mmt_obs::impl_to_json! {
    PerfsmokeReport {
        figure, reps, total_cycles, total_wall_ms, sim_cycles_per_sec, baseline_sim_cycles_per_sec,
        speedup_vs_baseline, traced_sim_cycles_per_sec, trace_overhead_fraction,
        ffwd_insts_per_sec, ffwd_speed_ratio_vs_detailed, runs
    }
}

/// One 2-thread + 4-thread pair of the perfsmoke workload, optionally
/// traced; returns `(cycles, wall_ms)`.
fn run_pair(app: &mmt_workloads::App, trace: Option<mmt_sim::TraceConfig>) -> (u64, f64) {
    let mut cycles = 0u64;
    let mut wall_ms = 0.0f64;
    for threads in [2usize, 4] {
        let mut cfg = SimConfig::paper_with(threads, MmtLevel::Fxr);
        cfg.trace = trace.clone();
        let spec = to_run_spec(app.instance(threads, 1));
        let sim = Simulator::new(cfg, spec).expect("valid config and spec");
        let start = Instant::now();
        let result = sim.run().expect("perfsmoke workload terminates");
        cycles += result.stats.cycles;
        wall_ms += start.elapsed().as_secs_f64() * 1e3;
    }
    (cycles, wall_ms)
}

/// The committed throughput number, read from
/// `results/BENCH_perfsmoke.json` before this run overwrites it.
fn committed_cps(path: &str) -> Option<f64> {
    let v = mmt_obs::json::parse_file(path).ok()?;
    v.get("sim_cycles_per_sec")?.as_f64()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let started = Instant::now();
    let reps: usize = arg_value(&args, "--reps")
        .map(|v| v.parse().expect("--reps takes a number"))
        .unwrap_or(3);
    let check_baseline = args.iter().any(|a| a == "--check-baseline");
    // Read the committed number before write_report clobbers the file.
    let committed = committed_cps("results/BENCH_perfsmoke.json");

    let app = perfsmoke_app();
    let mut runs = Vec::new();
    let mut total_cycles = 0u64;
    let mut total_wall = 0.0f64;
    let mut best_cps = 0.0f64;
    // `--check-baseline` re-measures up to twice more if the first pass
    // lands under the floor: wall-clock noise clears on a retry, a real
    // regression fails all three attempts. Shared policy with the sweep
    // supervisor (bench::retry); no backoff — re-measuring immediately
    // is the point.
    let policy = if check_baseline {
        RetryPolicy {
            attempts: 3,
            base_backoff: std::time::Duration::ZERO,
            ..Default::default()
        }
    } else {
        RetryPolicy::once()
    };
    let _ = policy.run(|attempt| {
        for rep in 0..reps {
            let mut rep_cycles = 0u64;
            let mut rep_wall = 0.0f64;
            for threads in [2usize, 4] {
                let cfg = SimConfig::paper_with(threads, MmtLevel::Fxr);
                let spec = to_run_spec(app.instance(threads, 1));
                let sim = Simulator::new(cfg, spec).expect("valid config and spec");
                let start = Instant::now();
                let result = sim.run().expect("perfsmoke workload terminates");
                let wall = start.elapsed();
                let label = format!("rep{}-{threads}t", attempt as usize * reps + rep);
                let t = RunTelemetry::new(label, wall, &result.stats);
                rep_cycles += t.cycles;
                rep_wall += t.wall_ms;
                runs.push(t);
            }
            total_cycles += rep_cycles;
            total_wall += rep_wall;
            best_cps = best_cps.max(rep_cycles as f64 / (rep_wall / 1000.0).max(1e-9));
        }
        match committed {
            Some(c) if best_cps < c * (1.0 - REGRESSION_TOLERANCE) => Err("under floor"),
            // The measurement cleared the floor (or there is no
            // committed number to clear); the final verdict and exit
            // code happen below either way.
            _ => Ok(()),
        }
    });

    // Best rep pair, not the mean: a transient background-load stall in
    // one rep should not read as a simulator regression.
    let cps = best_cps;

    // Tracing overhead: each rep pairs an untraced and a traced pair
    // back-to-back, so both sides of the ratio see the same transient
    // machine load; the statistic is the median over reps, clamped at
    // zero. (Informational; never gates.)
    let mut overheads = Vec::with_capacity(reps);
    let mut traced_cycles = 0u64;
    let mut traced_wall = 0.0f64;
    for _ in 0..reps.max(1) {
        let (plain_c, plain_w) = run_pair(&app, None);
        let (tc, tw) = run_pair(&app, Some(mmt_sim::TraceConfig::default()));
        traced_cycles += tc;
        traced_wall += tw;
        let plain_cps = plain_c as f64 / (plain_w / 1e3).max(1e-9);
        let t_cps = tc as f64 / (tw / 1e3).max(1e-9);
        overheads.push(1.0 - t_cps / plain_cps.max(1e-9));
    }
    overheads.sort_by(f64::total_cmp);
    let overhead = overheads[overheads.len() / 2].max(0.0);
    let traced_cps = traced_cycles as f64 / (traced_wall / 1e3).max(1e-9);

    // ffwdsmoke: fast-forward throughput on the same workload and its
    // speed ratio over the detailed model, best of reps.
    // (Informational here; the >= 10x floor gates in `mmtffwd`.)
    let mut ffwd_ips = 0.0f64;
    let mut ffwd_ratio = 0.0f64;
    for _ in 0..reps.max(1) {
        let (_, detailed_wall) = run_pair(&app, None);
        let mut insts = 0u64;
        let mut wall_ms = 0.0f64;
        for threads in [2usize, 4] {
            let spec = to_run_spec(app.instance(threads, 1));
            let ffwd = mmt_sim::Ffwd::new(&spec.program);
            let mut state = spec.initial_arch_state();
            let start = Instant::now();
            insts += ffwd
                .run_to_halt(&spec.program, &mut state, u64::MAX)
                .expect("perfsmoke workload terminates");
            wall_ms += start.elapsed().as_secs_f64() * 1e3;
        }
        ffwd_ips = ffwd_ips.max(insts as f64 / (wall_ms / 1e3).max(1e-9));
        ffwd_ratio = ffwd_ratio.max(detailed_wall / wall_ms.max(1e-9));
    }

    let report = PerfsmokeReport {
        figure: "perfsmoke".into(),
        reps,
        total_cycles,
        total_wall_ms: total_wall,
        sim_cycles_per_sec: cps,
        baseline_sim_cycles_per_sec: PRE_OVERHAUL_BASELINE_CPS,
        speedup_vs_baseline: if PRE_OVERHAUL_BASELINE_CPS > 0.0 {
            cps / PRE_OVERHAUL_BASELINE_CPS
        } else {
            0.0
        },
        traced_sim_cycles_per_sec: traced_cps,
        trace_overhead_fraction: overhead,
        ffwd_insts_per_sec: ffwd_ips,
        ffwd_speed_ratio_vs_detailed: ffwd_ratio,
        runs,
    };
    println!(
        "perfsmoke: {:.0} sim-cycles/sec, best of {} reps ({} cycles in {:.1} ms, {} runs)",
        cps,
        reps,
        total_cycles,
        total_wall,
        reps * 2
    );
    if PRE_OVERHAUL_BASELINE_CPS > 0.0 {
        println!(
            "vs pre-overhaul baseline {:.0}: {:.2}x",
            PRE_OVERHAUL_BASELINE_CPS,
            cps / PRE_OVERHAUL_BASELINE_CPS
        );
    }
    println!(
        "tracing on: {traced_cps:.0} sim-cycles/sec ({:.1}% overhead, median of {} paired reps)",
        overhead * 100.0,
        reps.max(1)
    );
    println!("ffwdsmoke: {ffwd_ips:.0} insts/sec fast-forward, {ffwd_ratio:.1}x detailed model");
    let path = write_report("perfsmoke", &report).expect("write results/BENCH_perfsmoke.json");
    println!("wrote {}", path.display());

    let mut gate_violations = 0usize;
    if check_baseline {
        match committed {
            None => {
                eprintln!("--check-baseline: no committed results/BENCH_perfsmoke.json to compare");
                gate_violations += 1;
            }
            Some(committed) => {
                let floor = committed * (1.0 - REGRESSION_TOLERANCE);
                println!("baseline check: {cps:.0} vs committed {committed:.0} (floor {floor:.0})");
                if cps < floor {
                    eprintln!(
                        "perfsmoke regression: {cps:.0} sim-cycles/sec is more than {:.0}% below \
                         the committed {committed:.0}",
                        REGRESSION_TOLERANCE * 100.0
                    );
                    gate_violations += 1;
                }
            }
        }
    }
    // Fixed grid: the one perfsmoke workload at 2 and 4 threads. The
    // recorded throughput is the best rep pair — the same number the
    // baseline check gates on — so `mmtreport` trends the gated figure.
    LedgerRecord::new(
        "perfsmoke",
        1,
        &[2, 4],
        1,
        started.elapsed().as_secs_f64() * 1e3,
        cps,
        gate_violations,
    )
    .append_or_warn();
    if gate_violations > 0 {
        std::process::exit(1);
    }
}
