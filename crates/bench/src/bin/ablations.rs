//! Ablation studies for the design choices DESIGN.md calls out — knobs
//! the paper fixes (or leaves implicit) whose effect is worth measuring:
//!
//! * `--study sync`      — FHB hardware vs Thread Fusion-style software
//!   remerge hints (paper Section 2's closest related work).
//! * `--study align`     — the merge-alignment slack (DESIGN.md §2:
//!   "mechanisms the paper leaves implicit", item 2).
//! * `--study lvip`      — LVIP table size (Table 4 uses 4K entries).
//! * `--study fetchstyle`— trace-cache vs conventional fetch (paper §5:
//!   "the trace cache actually had a negligible effect").
//! * `--study prefetch`  — next-line L2 prefetch on/off.
//! * `--study barrier`   — barrier-phased multi-threaded kernels vs the
//!   default free-running ones (paper §4.4's synchronization
//!   discussion: barriers are natural re-alignment points).
//! * `--study fetchpolicy` — ICOUNT vs round-robin fetch-thread
//!   selection (the baseline's Tullsen-style policy choice).
//!
//! ```text
//! cargo run --release -p mmt-bench --bin ablations -- --study sync --jobs 8
//! ```
//!
//! Each study's grid fans out across a `--jobs`-sized worker pool;
//! telemetry lands in `results/BENCH_ablations_<study>.json`.

use mmt_bench::cli::scale_arg;
use mmt_bench::sweep::{jobs_arg, run_parallel, timed_run, BenchReport, RunTelemetry};
use mmt_bench::{arg_value, geomean, run_app_with, speedup, to_run_spec, FULL_SCALE};
use mmt_sim::config::SyncPolicy;
use mmt_sim::{FetchStyle, MmtLevel, SimConfig, Simulator};
use mmt_workloads::{all_apps, App};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let study = arg_value(&args, "--study").unwrap_or_else(|| "sync".into());
    let threads: usize = arg_value(&args, "--threads")
        .map(|v| v.parse().expect("--threads takes a number"))
        .unwrap_or(2);
    let scale = scale_arg(&args, FULL_SCALE, false);
    let jobs = jobs_arg(&args);

    match study.as_str() {
        "sync" => sync_policy_study(threads, scale, jobs),
        "align" => knob_study(
            threads,
            scale,
            jobs,
            "merge-alignment slack (instructions)",
            "ablations_align",
            &[16, 64, 256, 1024, 4096],
            |cfg, v| cfg.merge_alignment_slack = v as u64,
        ),
        "lvip" => knob_study(
            threads,
            scale,
            jobs,
            "LVIP entries",
            "ablations_lvip",
            &[64, 512, 4096],
            |cfg, v| cfg.lvip_entries = v,
        ),
        "fetchstyle" => fetch_style_study(threads, scale, jobs),
        "barrier" => barrier_study(threads, scale, jobs),
        "fetchpolicy" => knob_study(
            threads,
            scale,
            jobs,
            "fetch policy (0=ICOUNT, 1=round-robin)",
            "ablations_fetchpolicy",
            &[0, 1],
            |cfg, v| {
                cfg.fetch_policy = if v == 0 {
                    mmt_sim::config::FetchPolicy::ICount
                } else {
                    mmt_sim::config::FetchPolicy::RoundRobin
                };
            },
        ),
        "prefetch" => knob_study(
            threads,
            scale,
            jobs,
            "next-line prefetch (0=off, 1=on)",
            "ablations_prefetch",
            &[0, 1],
            |cfg, v| cfg.hierarchy.prefetch = v != 0,
        ),
        other => {
            eprintln!(
                "unknown study '{other}' (sync|align|lvip|fetchstyle|prefetch|barrier|fetchpolicy)"
            );
            std::process::exit(2);
        }
    }
}

fn write_telemetry(figure: &str, jobs: usize, t0: Instant, tel: Vec<RunTelemetry>) {
    match BenchReport::new(figure, jobs, t0.elapsed(), tel).write() {
        Ok(p) => eprintln!("wrote {}", p.display()),
        Err(e) => eprintln!("warning: telemetry not written: {e}"),
    }
}

/// Run an app under the software-hints policy (hints from the workload).
fn run_hinted(app: &App, threads: usize, scale: u64) -> mmt_sim::SimResult {
    let w = app.instance(threads, scale);
    let mut cfg = SimConfig::paper_with(threads, MmtLevel::Fxr);
    cfg.sync_policy = SyncPolicy::SoftwareHints;
    cfg.remerge_hints = w.remerge_hints.clone();
    Simulator::new(cfg, to_run_spec(w))
        .expect("valid spec")
        .run()
        .expect("terminates")
}

fn sync_policy_study(threads: usize, scale: u64, jobs: usize) {
    println!(
        "Ablation: FHB hardware vs software remerge hints ({threads} threads, MMT-FXR speedup \
         over Base)"
    );
    println!(
        "{:<14} {:>8} {:>8} {:>10} {:>10}",
        "app", "FHB", "hints", "FHB mrg%", "hint mrg%"
    );
    let apps = all_apps();
    let t0 = Instant::now();
    let rows = run_parallel(&apps, jobs, |app| {
        let (base, t_base) = timed_run(format!("{}/base", app.name), || {
            run_app_with(app, threads, MmtLevel::Base, scale, |_| {})
        });
        let (fhb, t_fhb) = timed_run(format!("{}/fhb", app.name), || {
            run_app_with(app, threads, MmtLevel::Fxr, scale, |_| {})
        });
        let (hinted, t_hint) = timed_run(format!("{}/hints", app.name), || {
            run_hinted(app, threads, scale)
        });
        (
            (
                speedup(&base, &fhb),
                speedup(&base, &hinted),
                fhb.stats.fetch_modes.fractions().0,
                hinted.stats.fetch_modes.fractions().0,
            ),
            vec![t_base, t_fhb, t_hint],
        )
    });
    let (mut fhbs, mut hints) = (Vec::new(), Vec::new());
    for (app, ((s_fhb, s_hint, m_fhb, m_hint), _)) in apps.iter().zip(&rows) {
        fhbs.push(*s_fhb);
        hints.push(*s_hint);
        println!(
            "{:<14} {:>8.3} {:>8.3} {:>9.1}% {:>9.1}%",
            app.name,
            s_fhb,
            s_hint,
            m_fhb * 100.0,
            m_hint * 100.0,
        );
    }
    println!(
        "{:<14} {:>8.3} {:>8.3}   (paper: the hardware FHB removes the need for hints;\n\
         {:>14} comparable results validate that claim)",
        "geomean",
        geomean(&fhbs),
        geomean(&hints),
        ""
    );
    let tel = rows.into_iter().flat_map(|(_, t)| t).collect();
    write_telemetry("ablations_sync", jobs, t0, tel);
}

fn fetch_style_study(threads: usize, scale: u64, jobs: usize) {
    println!(
        "Ablation: trace-cache vs conventional fetch ({threads} threads; paper §5 reports the \
         difference is negligible)"
    );
    println!("{:<14} {:>10} {:>13}", "app", "trace", "conventional");
    let styles = [FetchStyle::TraceCache, FetchStyle::Conventional];
    let apps = all_apps();
    let grid: Vec<(FetchStyle, &App)> = styles
        .iter()
        .flat_map(|&style| apps.iter().map(move |app| (style, app)))
        .collect();
    let t0 = Instant::now();
    let cells = run_parallel(&grid, jobs, |&(style, app)| {
        let (base, t_base) = timed_run(format!("{}/{style:?}/base", app.name), || {
            run_app_with(app, threads, MmtLevel::Base, scale, |c| {
                c.fetch_style = style;
            })
        });
        let (fxr, t_fxr) = timed_run(format!("{}/{style:?}/fxr", app.name), || {
            run_app_with(app, threads, MmtLevel::Fxr, scale, |c| {
                c.fetch_style = style;
            })
        });
        (speedup(&base, &fxr), vec![t_base, t_fxr])
    });
    for (style, chunk) in styles.iter().zip(cells.chunks(apps.len())) {
        let speedups: Vec<f64> = chunk.iter().map(|(s, _)| *s).collect();
        println!("geomean {:?}: {:.3}", style, geomean(&speedups));
    }
    let tel = cells.into_iter().flat_map(|(_, t)| t).collect();
    write_telemetry("ablations_fetchstyle", jobs, t0, tel);
}

fn barrier_study(threads: usize, scale: u64, jobs: usize) {
    use mmt_isa::MemSharing;
    use mmt_workloads::{data, generator};
    println!(
        "Ablation: barrier-phased kernels ({threads} threads, MMT-FXR speedup over Base, \
         MERGE residency)"
    );
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>10}",
        "app", "free", "barriered", "free mrg%", "barr mrg%"
    );
    let apps: Vec<App> = all_apps()
        .into_iter()
        .filter(|app| app.sharing() == MemSharing::Shared) // barriers need shared memory
        .collect();
    let t0 = Instant::now();
    let rows = run_parallel(&apps, jobs, |app| {
        let run_with_barrier = |every: u64, level: MmtLevel| {
            let mut spec = app.spec.clone();
            spec.barrier_every = every;
            let iters = (spec.iters / scale).max(8);
            let program = generator::generate(&spec, threads, iters);
            let memories = data::build_memories(&spec, threads, false);
            let cfg = SimConfig::paper_with(threads, level);
            Simulator::new(
                cfg,
                mmt_sim::RunSpec {
                    program,
                    sharing: MemSharing::Shared,
                    memories,
                    threads,
                },
            )
            .expect("valid spec")
            .run()
            .expect("terminates")
        };
        let mut tel = Vec::new();
        let mut timed = |tag: &str, every: u64, level: MmtLevel| {
            let (r, t) = timed_run(format!("{}/{tag}", app.name), || {
                run_with_barrier(every, level)
            });
            tel.push(t);
            r
        };
        let free_base = timed("free-base", 0, MmtLevel::Base);
        let free = timed("free-fxr", 0, MmtLevel::Fxr);
        let barr_base = timed("barrier-base", 8, MmtLevel::Base);
        let barr = timed("barrier-fxr", 8, MmtLevel::Fxr);
        (
            (
                speedup(&free_base, &free),
                speedup(&barr_base, &barr),
                free.stats.fetch_modes.fractions().0,
                barr.stats.fetch_modes.fractions().0,
            ),
            tel,
        )
    });
    for (app, ((s_free, s_barr, m_free, m_barr), _)) in apps.iter().zip(&rows) {
        println!(
            "{:<14} {:>10.3} {:>10.3} {:>9.1}% {:>9.1}%",
            app.name,
            s_free,
            s_barr,
            m_free * 100.0,
            m_barr * 100.0,
        );
    }
    let tel = rows.into_iter().flat_map(|(_, t)| t).collect();
    write_telemetry("ablations_barrier", jobs, t0, tel);
}

#[allow(clippy::too_many_arguments)]
fn knob_study(
    threads: usize,
    scale: u64,
    jobs: usize,
    title: &str,
    figure: &str,
    values: &[usize],
    tweak: fn(&mut SimConfig, usize),
) {
    println!("Ablation: {title} ({threads} threads, MMT-FXR geomean speedup over Base)");
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
        println!("{v:>6}: {:.3}", geomean(&speedups));
    }
    let tel = cells.into_iter().flat_map(|(_, t)| t).collect();
    write_telemetry(figure, jobs, t0, tel);
}
