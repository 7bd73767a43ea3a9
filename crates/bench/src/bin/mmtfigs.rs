//! Regenerate the paper's tables, figures and ablations into
//! `results/<figure>.txt` (relative to the working directory), running
//! each distinct simulation once across all of them (see
//! `mmt_bench::figs`).
//!
//! ```text
//! cargo run --release -p mmt-bench --bin mmtfigs                          # all 18
//! cargo run --release -p mmt-bench --bin mmtfigs -- --figure fig5a_speedup_2t,fig6_energy
//! ```
//!
//! | flag | default | meaning |
//! |---|---|---|
//! | `--figure LIST`     | all   | comma-separated figure names |
//! | `--scale N`         | `1`   | iteration divisor for app instances |
//! | `--jobs N`          | cores | worker-pool size |
//! | `--resume-dir DIR`  | off   | cache every finished run under DIR; a rerun loads it instead of simulating |
//! | `--trace-dir DIR`   | off   | Figure 5(a)/(c)'s MMT-FXR runs drop `<app>-<N>t-fxr.*` pipeline traces in DIR |
//! | `--deadline-secs S` | none  | per-run wall-clock deadline; a run that misses it stops and is recorded as a `timeout` failure |
//!
//! Exit status: 0 when every figure was written, 1 when a run failed
//! (its figures are skipped; the failure lands in
//! `results/BENCH_figs.json`), 2 on a usage error.

use mmt_bench::cli::{check_flags, fail_usage, scale_arg};
use mmt_bench::figs::{figures, regenerate, select, Options};
use mmt_bench::sweep::{jobs_arg, trace_dir_arg, ResumeDir};
use mmt_bench::{arg_value, FULL_SCALE};
use std::time::Duration;

const FLAGS: [&str; 6] = [
    "--figure",
    "--scale",
    "--jobs",
    "--resume-dir",
    "--trace-dir",
    "--deadline-secs",
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    check_flags(&args, &FLAGS, &[]);
    let figures = match arg_value(&args, "--figure") {
        None => figures(),
        Some(names) => select(&names).unwrap_or_else(|e| fail_usage(false, e)),
    };
    let deadline = arg_value(&args, "--deadline-secs").map(|v| {
        let secs = v.parse::<f64>().ok().filter(|s| *s > 0.0);
        secs.and_then(|s| Duration::try_from_secs_f64(s).ok())
            .unwrap_or_else(|| {
                fail_usage(
                    false,
                    format!("--deadline-secs takes seconds > 0, got '{v}'"),
                )
            })
    });
    let opts = Options {
        figures,
        scale: scale_arg(&args, FULL_SCALE, false),
        jobs: jobs_arg(&args, false),
        resume: arg_value(&args, "--resume-dir").map(|dir| {
            ResumeDir::open(&dir).unwrap_or_else(|e| {
                fail_usage(false, format!("cannot open --resume-dir {dir}: {e}"))
            })
        }),
        trace_dir: trace_dir_arg(&args),
        deadline,
    };
    if !regenerate(&opts) {
        std::process::exit(mmt_bench::cli::EXIT_RUN);
    }
}
