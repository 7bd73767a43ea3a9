//! Figure 5(d): breakdown of fetched instructions by fetch mode
//! (MERGE / DETECT / CATCHUP), plus the Section 6.3 remerge-distance
//! statistic ("in 90% of the cases, the remerge point was found within
//! 512 branches").
//!
//! Paper reading: CATCHUP is rare in most programs; vpr, twolf and
//! vortex spend the least time in MERGE mode.
//!
//! ```text
//! cargo run --release -p mmt-bench --bin fig5d_fetch_modes -- --threads 2 --jobs 8
//! ```
//!
//! Apps fan out across a `--jobs`-sized worker pool; telemetry lands in
//! `results/BENCH_fig5d_fetch_modes.json`.

use mmt_bench::cli::scale_arg;
use mmt_bench::sweep::{jobs_arg, run_parallel, timed_run, BenchReport};
use mmt_bench::{arg_value, run_app, FULL_SCALE};
use mmt_sim::MmtLevel;
use mmt_workloads::all_apps;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let threads: usize = arg_value(&args, "--threads")
        .map(|v| v.parse().expect("--threads takes a number"))
        .unwrap_or(2);
    let scale = scale_arg(&args, FULL_SCALE, false);
    let jobs = jobs_arg(&args);

    println!("Figure 5(d): fetch-mode breakdown, {threads} threads, MMT-FXR");
    println!(
        "{:<14} {:>8} {:>8} {:>9} {:>6} {:>8} {:>10}",
        "app", "merge%", "detect%", "catchup%", "divs", "remerges", "<=512 tb"
    );
    let apps = all_apps();
    let t0 = Instant::now();
    let rows = run_parallel(&apps, jobs, |app| {
        timed_run(format!("{}/fxr", app.name), || {
            run_app(app, threads, MmtLevel::Fxr, scale)
        })
    });
    let mut tel = Vec::new();
    for (app, (r, t)) in apps.iter().zip(rows) {
        let (m, d, c) = r.stats.fetch_modes.fractions();
        println!(
            "{:<14} {:>8.1} {:>8.1} {:>9.1} {:>6} {:>8} {:>9.0}%",
            app.name,
            m * 100.0,
            d * 100.0,
            c * 100.0,
            r.stats.divergences,
            r.stats.remerges,
            r.stats.remerges_within(512) * 100.0,
        );
        tel.push(t);
    }
    println!("\n(paper: ~90% of remerge points found within 512 taken branches)");
    match BenchReport::new("fig5d_fetch_modes", jobs, t0.elapsed(), tel).write() {
        Ok(p) => eprintln!("wrote {}", p.display()),
        Err(e) => eprintln!("warning: telemetry not written: {e}"),
    }
}
