//! `mmtgate` — the machine checks of the reproduction in one bin:
//! fetch-identical merging (`predict`), the RST and LVIP (`mem`,
//! `value`), the two-speed simulator (`ffwd`) and fault detection
//! (`fault`). Each distinct (app, threads, scale) case simulates its
//! MMT-FXR golden once and every selected check reads it (see
//! `mmt_bench::gate`).
//!
//! | flag | default | meaning |
//! |---|---|---|
//! | `--check LIST`    | all    | comma-separated checks: `predict`, `mem`, `value`, `ffwd`, `fault` |
//! | `--apps LIST`     | `all`  | comma-separated suite app names, or `all` |
//! | `--threads LIST`  | `2,4`  | comma-separated thread counts (`ffwd` samples at the first) |
//! | `--scale N`       | `16`   | iteration divisor; `ffwd` runs at `1` unless `--scale` is given |
//! | `--jobs N`        | cores  | worker-pool size |
//! | `--format F`      | `text` | `text`, or `json` failure objects |
//! | `--progress PATH` | off    | stream per-case `start`/`finish` JSONL to PATH |
//! | `--trace-dir DIR` | off    | `fault` drops trace files of its non-masked injections in DIR |
//!
//! Each check prints its markdown table, writes its
//! `results/BENCH_<report>.json` and appends a `results/LEDGER.jsonl`
//! record under its former bin name; violations go to stderr as
//! `SOUNDNESS` lines. Exit status: 0 when every check passed, 1 on any
//! violation, 2 on a usage error.

use mmt_bench::arg_value;
use mmt_bench::cli::{fail_run, fail_usage, format_json_arg, scale_arg, EXIT_RUN};
use mmt_bench::gate::{run, Check, Options, GATE_SCALE};
use mmt_bench::sweep::{jobs_arg, progress_arg, trace_dir_arg, ProgressSink};
use mmt_workloads::{all_apps, app_by_name};

const FLAGS: [&str; 8] = [
    "--check",
    "--apps",
    "--threads",
    "--scale",
    "--jobs",
    "--format",
    "--progress",
    "--trace-dir",
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    for pair in args[1..].chunks(2) {
        if !FLAGS.contains(&pair[0].as_str()) {
            fail_usage(
                false,
                format!("unknown flag '{}'; flags: {}", pair[0], FLAGS.join(", ")),
            );
        }
        if pair.len() < 2 {
            fail_usage(false, format!("{} takes a value", pair[0]));
        }
    }
    let json = format_json_arg(&args).unwrap_or_else(|e| fail_usage(false, e));
    let checks = match arg_value(&args, "--check") {
        None => Check::ALL.to_vec(),
        Some(names) => Check::parse_list(&names).unwrap_or_else(|e| fail_usage(json, e)),
    };
    let apps = match arg_value(&args, "--apps").as_deref() {
        None | Some("all") => all_apps(),
        Some(names) => names
            .split(',')
            .map(|name| {
                app_by_name(name.trim()).unwrap_or_else(|| {
                    let known: Vec<&str> = all_apps().iter().map(|a| a.name).collect();
                    let known = known.join(", ");
                    fail_usage(json, format!("unknown app '{name}'; known: {known}"))
                })
            })
            .collect(),
    };
    let threads: Vec<usize> = arg_value(&args, "--threads")
        .unwrap_or_else(|| "2,4".into())
        .split(',')
        .map(|s| {
            s.trim().parse().unwrap_or_else(|_| {
                fail_usage(json, "--threads takes a comma-separated list like 2,4")
            })
        })
        .collect();
    let scale = arg_value(&args, "--scale").map(|_| scale_arg(&args, GATE_SCALE, json));
    let progress = progress_arg(&args).map(|path| {
        ProgressSink::create(&path).unwrap_or_else(|e| {
            fail_run(
                json,
                format!("cannot open --progress {}: {e}", path.display()),
            )
        })
    });
    let opts = Options {
        checks,
        apps,
        threads,
        scale,
        jobs: jobs_arg(&args, json),
        json,
        progress,
        trace_dir: trace_dir_arg(&args),
    };
    if !run(&opts) {
        std::process::exit(EXIT_RUN);
    }
}
