//! Figure 5(b): percentage of instructions the MMT hardware *identified*
//! as fetch-identical / execute-identical / execute-identical-thanks-to-
//! register-merging, compared with the profiled potential (Figure 1).
//!
//! Paper reading: the hardware tracks ~60% of fetch-identical
//! instructions on average, almost half of which are execute-identical;
//! the Exe-Identical+RegMerge component is noticeable for equake, mcf,
//! fft and water-ns; libsvm/twolf/vortex/vpr show the largest gap between
//! found and existing identical instructions.
//!
//! ```text
//! cargo run --release -p mmt-bench --bin fig5b_identified -- --threads 2 --jobs 8
//! ```
//!
//! Apps fan out across a `--jobs`-sized worker pool; telemetry lands in
//! `results/BENCH_fig5b_identified.json`.

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

    println!("Figure 5(b): identified identical instructions, {threads} threads, MMT-FXR");
    println!(
        "{:<14} {:>9} {:>9} {:>11} {:>9}",
        "app", "exe-id%", "exe+rm%", "fetch-id%", "private%"
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
        let id = &r.stats.identity;
        let total = id.total().max(1) as f64;
        println!(
            "{:<14} {:>9.1} {:>9.1} {:>11.1} {:>9.1}",
            app.name,
            id.execute_identical as f64 / total * 100.0,
            id.execute_identical_regmerge as f64 / total * 100.0,
            id.fetch_identical as f64 / total * 100.0,
            id.private as f64 / total * 100.0,
        );
        tel.push(t);
    }
    match BenchReport::new("fig5b_identified", jobs, t0.elapsed(), tel).write() {
        Ok(p) => eprintln!("wrote {}", p.display()),
        Err(e) => eprintln!("warning: telemetry not written: {e}"),
    }
}
