//! Figure 5(a)/(c): speedup of MMT-F, MMT-FX, MMT-FXR and Limit over a
//! traditional SMT running the same number of threads, per application.
//!
//! ```text
//! cargo run --release -p mmt-bench --bin fig5_speedup -- --threads 2 --jobs 8
//! ```
//!
//! Apps fan out across a `--jobs`-sized worker pool (default: one per
//! core); the printed figure data is byte-identical at any pool size, and
//! per-run telemetry lands in `results/BENCH_fig5_speedup.json`.
//!
//! Every app runs under sweep supervision (DESIGN.md §15): a point that
//! panics, hangs past `--deadline-secs`, or hits a typed simulator error
//! (e.g. a watchdog) degrades to a `failures` record in the BENCH JSON
//! instead of killing the sweep.
//!
//! With `--resume-dir DIR`, each completed app row is cached under DIR
//! (atomic tmp + rename) and the base run additionally drops periodic
//! `ArchState` checkpoints there; rerunning after a kill skips the
//! cached apps and still produces byte-identical canonical BENCH JSON.
//!
//! With `--trace-dir DIR`, each app's MMT-FXR run additionally records a
//! pipeline trace and drops `<app>-fxr.{trace.json,events.jsonl,windows.jsonl}`
//! under DIR (tracing is timing-invisible, so the figure is unchanged).
//!
//! Paper headline: geometric-mean MMT-FXR speedups of ~1.15 (2 threads)
//! and ~1.25 (4 threads); Limit strictly above FXR, with the largest
//! FXR-to-Limit gaps for libsvm, twolf, vortex and vpr.

use mmt_bench::cli::scale_arg;
use mmt_bench::retry::RetryPolicy;
use mmt_bench::sweep::{
    jobs_arg, resume_dir_arg, run_supervised, trace_dir_arg, write_trace_files, BenchReport,
    ResumeDir, RunTelemetry, Supervision,
};
use mmt_bench::{arg_value, geomean, speedup, to_run_spec, try_run_app_with, FULL_SCALE};
use mmt_sim::{MmtLevel, SimConfig, SimResult, Simulator};
use mmt_workloads::{all_apps, App};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cycles between `ArchState` checkpoints of the base run when
/// `--resume-dir` is active.
const CHECKPOINT_EVERY: u64 = 50_000;

/// One finished app row: the four speedup columns plus run telemetry.
type Row = ([f64; 4], Vec<RunTelemetry>);

/// The `--resume-dir` cache entry for one app row.
struct CachedRow {
    f: f64,
    fx: f64,
    fxr: f64,
    limit: f64,
    runs: Vec<RunTelemetry>,
}
mmt_obs::impl_to_json! { CachedRow { f, fx, fxr, limit, runs } }

/// Rebuild a row from its cache entry.
fn row_from_cache(v: &mmt_obs::json::Value) -> Option<Row> {
    let spd = [
        v.get("f")?.as_f64()?,
        v.get("fx")?.as_f64()?,
        v.get("fxr")?.as_f64()?,
        v.get("limit")?.as_f64()?,
    ];
    let runs = v
        .get("runs")?
        .as_array()?
        .iter()
        .map(RunTelemetry::from_json)
        .collect::<Option<Vec<_>>>()?;
    Some((spd, runs))
}

/// Compute one app's row from scratch (no cache hit). Typed errors
/// bubble up as `Err(String)` for the supervisor to record.
fn compute_row(
    app: &App,
    threads: usize,
    scale: u64,
    trace_dir: Option<&std::path::Path>,
    resume: Option<&ResumeDir>,
) -> Result<Row, String> {
    let mut tel: Vec<RunTelemetry> = Vec::new();
    let run_level =
        |level: MmtLevel, tag: &str, tel: &mut Vec<RunTelemetry>| -> Result<SimResult, String> {
            let start = Instant::now();
            let r = try_run_app_with(app, threads, level, scale, |_| {})?;
            tel.push(RunTelemetry::new(
                format!("{}/{tag}", app.name),
                start.elapsed(),
                &r.stats,
            ));
            Ok(r)
        };

    // The base run is the longest; with a resume dir it periodically
    // drops digest-sealed ArchState checkpoints alongside the row cache.
    let base = match resume {
        Some(cache) => {
            let start = Instant::now();
            let cfg = SimConfig::paper_with(threads, MmtLevel::Base);
            let spec = to_run_spec(app.instance(threads, scale));
            let sim = Simulator::new(cfg, spec)
                .map_err(|e| format!("{}: invalid config/spec: {e}", app.name))?;
            let r = cache
                .run_checkpointed(&format!("{}-base", app.name), sim, CHECKPOINT_EVERY)
                .map_err(|e| format!("{}: {e}", app.name))?;
            tel.push(RunTelemetry::new(
                format!("{}/base", app.name),
                start.elapsed(),
                &r.stats,
            ));
            r
        }
        None => run_level(MmtLevel::Base, "base", &mut tel)?,
    };

    let f = speedup(&base, &run_level(MmtLevel::F, "f", &mut tel)?);
    let fx = speedup(&base, &run_level(MmtLevel::Fx, "fx", &mut tel)?);
    let fxr = if let Some(dir) = trace_dir {
        let start = Instant::now();
        let r = try_run_app_with(app, threads, MmtLevel::Fxr, scale, |cfg| {
            cfg.trace = Some(mmt_sim::TraceConfig {
                ring_capacity: 1 << 20,
                window: 4096,
            });
        })?;
        tel.push(RunTelemetry::new(
            format!("{}/fxr", app.name),
            start.elapsed(),
            &r.stats,
        ));
        let trace = r.trace.as_ref().expect("tracing was enabled");
        if let Err(e) = write_trace_files(dir, &format!("{}/fxr", app.name), trace) {
            eprintln!("warning: trace for {} not written: {e}", app.name);
        }
        speedup(&base, &r)
    } else {
        speedup(&base, &run_level(MmtLevel::Fxr, "fxr", &mut tel)?)
    };

    // Limit runs different (identical-input) work; normalize against
    // a Base run of that same workload.
    let limit_run = |level: MmtLevel, tag: &str, tel: &mut Vec<RunTelemetry>| {
        let start = Instant::now();
        let cfg = SimConfig::paper_with(threads, level);
        let spec = to_run_spec(app.limit_instance(threads, scale));
        let r = Simulator::new(cfg, spec)
            .map_err(|e| format!("{}: invalid config/spec: {e}", app.name))?
            .run()
            .map_err(|e| format!("{}: {e}", app.name))?;
        tel.push(RunTelemetry::new(
            format!("{}/{tag}", app.name),
            start.elapsed(),
            &r.stats,
        ));
        Ok::<SimResult, String>(r)
    };
    let limit_base = limit_run(MmtLevel::Base, "limit-base", &mut tel)?;
    let limit_res = limit_run(MmtLevel::Fxr, "limit", &mut tel)?;
    let limit = speedup(&limit_base, &limit_res);

    Ok(([f, fx, fxr, limit], tel))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let threads: usize = arg_value(&args, "--threads")
        .map(|v| v.parse().expect("--threads takes a number"))
        .unwrap_or(2);
    let scale = scale_arg(&args, FULL_SCALE, false);
    let jobs = jobs_arg(&args);
    let trace_dir = trace_dir_arg(&args);
    let resume = resume_dir_arg(&args).map(|dir| {
        ResumeDir::open(&dir).unwrap_or_else(|e| {
            eprintln!("error: cannot open --resume-dir {}: {e}", dir.display());
            std::process::exit(2);
        })
    });
    let sup = Supervision {
        deadline: arg_value(&args, "--deadline-secs")
            .map(|v| Duration::from_secs_f64(v.parse().expect("--deadline-secs takes seconds"))),
        retry: RetryPolicy::attempts(2),
    };

    println!(
        "Figure 5({}): speedup over Base SMT, {threads} threads",
        if threads == 2 { 'a' } else { 'c' }
    );
    println!(
        "{:<14} {:>7} {:>7} {:>8} {:>7}",
        "app", "MMT-F", "MMT-FX", "MMT-FXR", "Limit"
    );

    let apps = all_apps();
    let t0 = Instant::now();
    let cache_hits = Arc::new(AtomicUsize::new(0));
    let hits = Arc::clone(&cache_hits);
    let point_resume = resume.clone();
    let rows = run_supervised(
        &apps,
        jobs,
        &sup,
        |app| app.name.to_string(),
        move |app: App| {
            if let Some(cache) = &point_resume {
                if let Some(row) = cache.load(app.name).as_ref().and_then(row_from_cache) {
                    hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(row);
                }
            }
            let row = compute_row(
                &app,
                threads,
                scale,
                trace_dir.as_deref(),
                point_resume.as_ref(),
            )?;
            if let Some(cache) = &point_resume {
                let ([f, fx, fxr, limit], runs) = &row;
                let entry = CachedRow {
                    f: *f,
                    fx: *fx,
                    fxr: *fxr,
                    limit: *limit,
                    runs: runs.clone(),
                };
                if let Err(e) = cache.store(app.name, &entry) {
                    eprintln!("warning: resume cache for {} not written: {e}", app.name);
                }
            }
            Ok(row)
        },
    );

    let mut cols: [Vec<f64>; 4] = Default::default();
    let mut tel: Vec<RunTelemetry> = Vec::new();
    let mut failures = Vec::new();
    for (app, outcome) in apps.iter().zip(rows) {
        match outcome {
            Ok(([f, fx, fxr, limit], runs)) => {
                println!(
                    "{:<14} {f:>7.3} {fx:>7.3} {fxr:>8.3} {limit:>7.3}",
                    app.name
                );
                for (col, v) in cols.iter_mut().zip([f, fx, fxr, limit]) {
                    col.push(v);
                }
                tel.extend(runs);
            }
            Err(fail) => {
                println!(
                    "{:<14} {:>7} {:>7} {:>8} {:>7}   [{}: {}]",
                    app.name,
                    "-",
                    "-",
                    "-",
                    "-",
                    fail.kind.name(),
                    fail.message
                );
                failures.push(fail);
            }
        }
    }
    println!(
        "{:<14} {:>7.3} {:>7.3} {:>8.3} {:>7.3}",
        "geomean",
        geomean(&cols[0]),
        geomean(&cols[1]),
        geomean(&cols[2]),
        geomean(&cols[3]),
    );
    if resume.is_some() {
        eprintln!(
            "resume: {} of {} app rows loaded from cache",
            cache_hits.load(Ordering::Relaxed),
            apps.len()
        );
    }
    if !failures.is_empty() {
        eprintln!(
            "{} of {} apps failed supervision",
            failures.len(),
            apps.len()
        );
    }
    let failed = !failures.is_empty();

    let report = BenchReport::new("fig5_speedup", jobs, t0.elapsed(), tel).with_failures(failures);
    match report.write() {
        Ok(p) => eprintln!("wrote {}", p.display()),
        Err(e) => eprintln!("warning: telemetry not written: {e}"),
    }
    if failed {
        std::process::exit(1);
    }
}
