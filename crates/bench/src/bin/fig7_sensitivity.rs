//! Figure 7: sensitivity sweeps.
//!
//! * `--sweep fhb`   — Figures 7(a)+(c): per-app MMT-FXR speedup and
//!   fetch-mode breakdown as the Fetch History Buffer grows from 8 to
//!   128 entries. Paper reading: small gains through 32–128 entries for
//!   most apps; twolf and water-sp dip slightly at large sizes.
//! * `--sweep ports` — Figure 7(b): geomean speedup as load/store ports
//!   (and MSHRs) grow from 2 to 12. Paper reading: more memory bandwidth
//!   → larger MMT advantage.
//! * `--sweep width` — Figure 7(d): geomean speedup as fetch width grows
//!   from 4 to 32. Paper reading: gains shrink with width but remain
//!   ~11% at 32.
//!
//! ```text
//! cargo run --release -p mmt-bench --bin fig7_sensitivity -- --sweep fhb --jobs 8
//! ```
//!
//! The (knob value × app) grid fans out across a `--jobs`-sized worker
//! pool; telemetry lands in `results/BENCH_fig7_<sweep>.json`.

use mmt_bench::cli::scale_arg;
use mmt_bench::sweep::{jobs_arg, run_parallel, timed_run, BenchReport, RunTelemetry};
use mmt_bench::{arg_value, geomean, run_app_with, speedup, FULL_SCALE};
use mmt_sim::MmtLevel;
use mmt_workloads::{all_apps, App};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let sweep = arg_value(&args, "--sweep").unwrap_or_else(|| "fhb".into());
    let threads: usize = arg_value(&args, "--threads")
        .map(|v| v.parse().expect("--threads takes a number"))
        .unwrap_or(2);
    let scale = scale_arg(&args, FULL_SCALE, false);
    let jobs = jobs_arg(&args);

    match sweep.as_str() {
        "fhb" => sweep_fhb(threads, scale, jobs),
        "ports" => sweep_geomean(
            threads,
            scale,
            jobs,
            "Figure 7(b): speedup vs load/store ports (MSHRs scaled along)",
            "fig7_ports",
            &[2, 4, 6, 8, 12],
            |cfg, v| {
                cfg.lsq_ports = v;
                cfg.hierarchy.mshrs = 2 * v;
            },
        ),
        "width" => sweep_geomean(
            threads,
            scale,
            jobs,
            "Figure 7(d): speedup vs fetch width",
            "fig7_width",
            &[4, 8, 16, 32],
            |cfg, v| cfg.fetch_width = v,
        ),
        other => {
            eprintln!("unknown sweep '{other}' (expected fhb|ports|width)");
            std::process::exit(2);
        }
    }
}

fn sweep_fhb(threads: usize, scale: u64, jobs: usize) {
    let sizes = [8usize, 16, 32, 64, 128];
    println!("Figure 7(a)/(c): FHB size sweep, {threads} threads, MMT-FXR");
    print!("{:<14}", "app");
    for s in sizes {
        print!("  {s:>5}e m/d/c");
    }
    println!();
    let apps = all_apps();
    let grid: Vec<(usize, &App)> = apps
        .iter()
        .flat_map(|app| sizes.iter().map(move |&s| (s, app)))
        .collect();
    let t0 = Instant::now();
    let cells = run_parallel(&grid, jobs, |&(s, app)| {
        let (base, t_base) = timed_run(format!("{}/fhb{s}/base", app.name), || {
            run_app_with(app, threads, MmtLevel::Base, scale, |c| {
                c.fhb_entries = s;
            })
        });
        let (fxr, t_fxr) = timed_run(format!("{}/fhb{s}/fxr", app.name), || {
            run_app_with(app, threads, MmtLevel::Fxr, scale, |c| {
                c.fhb_entries = s;
            })
        });
        let (m, d, c) = fxr.stats.fetch_modes.fractions();
        ((speedup(&base, &fxr), m, d, c), vec![t_base, t_fxr])
    });
    for (row, chunk) in apps.iter().zip(cells.chunks(sizes.len())) {
        print!("{:<14}", row.name);
        for ((s, m, d, c), _) in chunk {
            print!(
                " {:>5.2} {:>2.0}/{:>2.0}/{:>2.0}",
                s,
                m * 100.0,
                d * 100.0,
                c * 100.0
            );
        }
        println!();
    }
    println!("\n(speedup then %insts fetched in MERGE/DETECT/CATCHUP per FHB size)");
    let tel: Vec<RunTelemetry> = cells.into_iter().flat_map(|(_, t)| t).collect();
    match BenchReport::new("fig7_fhb", jobs, t0.elapsed(), tel).write() {
        Ok(p) => eprintln!("wrote {}", p.display()),
        Err(e) => eprintln!("warning: telemetry not written: {e}"),
    }
}

#[allow(clippy::too_many_arguments)]
fn sweep_geomean(
    threads: usize,
    scale: u64,
    jobs: usize,
    title: &str,
    figure: &str,
    values: &[usize],
    tweak: fn(&mut mmt_sim::SimConfig, usize),
) {
    println!("{title}, {threads} threads, MMT-FXR geomean over all apps");
    let apps = all_apps();
    let grid: Vec<(usize, &App)> = values
        .iter()
        .flat_map(|&v| apps.iter().map(move |app| (v, app)))
        .collect();
    let t0 = Instant::now();
    let cells = run_parallel(&grid, jobs, |&(v, app)| {
        let (base, t_base) = timed_run(format!("{}/{v}/base", app.name), || {
            run_app_with(app, threads, MmtLevel::Base, scale, |c| tweak(c, v))
        });
        let (fxr, t_fxr) = timed_run(format!("{}/{v}/fxr", app.name), || {
            run_app_with(app, threads, MmtLevel::Fxr, scale, |c| tweak(c, v))
        });
        (speedup(&base, &fxr), vec![t_base, t_fxr])
    });
    for (&v, chunk) in values.iter().zip(cells.chunks(apps.len())) {
        let speedups: Vec<f64> = chunk.iter().map(|(s, _)| *s).collect();
        println!("{v:>4}: {:.3}", geomean(&speedups));
    }
    let tel: Vec<RunTelemetry> = cells.into_iter().flat_map(|(_, t)| t).collect();
    match BenchReport::new(figure, jobs, t0.elapsed(), tel).write() {
        Ok(p) => eprintln!("wrote {}", p.display()),
        Err(e) => eprintln!("warning: telemetry not written: {e}"),
    }
}
