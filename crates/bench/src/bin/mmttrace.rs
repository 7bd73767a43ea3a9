//! `mmttrace` — record, validate, and summarize a cycle-level pipeline
//! trace for one suite application.
//!
//! ```text
//! cargo run --release -p mmt-bench --bin mmttrace -- --app equake --threads 2
//! cargo run --release -p mmt-bench --bin mmttrace -- --app fft --out traces/
//! ```
//!
//! The tool runs the app with the mmt-obs recorder attached, then:
//!
//! 1. writes `<app>-<threads>t.trace.json` (Chrome trace-event JSON —
//!    open in <https://ui.perfetto.dev> or `chrome://tracing`),
//!    `.events.jsonl`, and `.windows.jsonl` under `--out`;
//! 2. validates the Chrome export (parseable JSON, non-decreasing
//!    timestamps, balanced begin/end pairs per track);
//! 3. replays the event stream and checks the folded counters against
//!    the simulator's own `SimStats` — exact equality, which requires a
//!    complete stream (raise `--ring` if events were dropped);
//! 4. prints the text timeline: top divergence sites by thread-cycles
//!    diverged and the remerge-latency histogram.
//!
//! Exit status is nonzero if any validation fails.
//!
//! | flag | default | meaning |
//! |---|---|---|
//! | `--app NAME`   | `equake`  | suite app name |
//! | `--threads N`  | `2`       | hardware threads (1–4) |
//! | `--level L`    | `fxr`     | `base`, `f`, `fx`, `fxr` |
//! | `--scale N`    | `1`       | iteration divisor |
//! | `--window N`   | `1024`    | metrics window, in cycles |
//! | `--ring N`     | `4194304` | event-ring capacity, in records |
//! | `--out DIR`    | `traces`  | output directory |

use mmt_bench::cli::{check_flags, fail_usage, parsed_arg, scale_arg};
use mmt_bench::{arg_value, run_app_with};
use mmt_isa::MAX_THREADS;
use mmt_obs::validate_chrome_trace;
use mmt_sim::{replay_mismatches, MmtLevel, TraceConfig};
use mmt_workloads::app_by_name;
use std::path::PathBuf;

const FLAGS: [&str; 7] = [
    "--app",
    "--threads",
    "--level",
    "--scale",
    "--window",
    "--ring",
    "--out",
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    check_flags(&args, &FLAGS, &[]);
    let app_name = arg_value(&args, "--app").unwrap_or_else(|| "equake".into());
    let threads: usize = parsed_arg(&args, "--threads", 2, "a number", false);
    if !(1..=MAX_THREADS).contains(&threads) {
        fail_usage(
            false,
            format!("--threads takes 1..={MAX_THREADS}, got {threads}"),
        );
    }
    let level = match arg_value(&args, "--level").as_deref() {
        Some("base") => MmtLevel::Base,
        Some("f") => MmtLevel::F,
        Some("fx") => MmtLevel::Fx,
        None | Some("fxr") => MmtLevel::Fxr,
        Some(other) => fail_usage(false, format!("unknown level '{other}' (base|f|fx|fxr)")),
    };
    let scale = scale_arg(&args, 1, false);
    let window: u64 = parsed_arg(&args, "--window", 1024, "a number of cycles", false);
    let ring: usize = parsed_arg(&args, "--ring", 1 << 22, "a number of records", false);
    let out = PathBuf::from(arg_value(&args, "--out").unwrap_or_else(|| "traces".into()));

    let app = app_by_name(&app_name)
        .unwrap_or_else(|| fail_usage(false, format!("unknown app '{app_name}'")));

    let result = run_app_with(&app, threads, level, scale, |cfg| {
        cfg.trace = Some(TraceConfig {
            ring_capacity: ring,
            window,
        });
    });
    let trace = result.trace.as_ref().expect("tracing was enabled");
    let s = &result.stats;

    let stem = format!("{app_name}-{threads}t");
    let chrome = trace.chrome_json();
    std::fs::create_dir_all(&out).expect("create --out directory");
    let chrome_path = out.join(format!("{stem}.trace.json"));
    std::fs::write(&chrome_path, &chrome).expect("write trace.json");
    std::fs::write(
        out.join(format!("{stem}.events.jsonl")),
        trace.events_jsonl(),
    )
    .expect("write events.jsonl");
    std::fs::write(
        out.join(format!("{stem}.windows.jsonl")),
        trace.windows_jsonl(),
    )
    .expect("write windows.jsonl");

    println!(
        "{app_name} [{}] on {threads} threads: {} cycles, {} events ({} windows, {} dropped)",
        level.name(),
        s.cycles,
        trace.events.len(),
        trace.windows.len(),
        trace.dropped
    );
    println!("wrote {}", chrome_path.display());
    println!("  load it in https://ui.perfetto.dev or chrome://tracing");

    let mut failed = false;

    match validate_chrome_trace(&chrome) {
        Ok(summary) => println!(
            "chrome trace OK: {} events, {} span pairs, {} counter samples, {} instants",
            summary.events, summary.span_pairs, summary.counters, summary.instants
        ),
        Err(e) => {
            eprintln!("chrome trace INVALID: {e}");
            failed = true;
        }
    }

    if trace.dropped != 0 {
        eprintln!(
            "replay check skipped: ring dropped {} events (raise --ring past {ring})",
            trace.dropped
        );
        failed = true;
    } else {
        let mismatches = replay_mismatches(s, &trace.replay_counters());
        for m in &mismatches {
            eprintln!("replay MISMATCH: {m}");
        }
        if mismatches.is_empty() {
            println!("replay OK: the event stream reproduces SimStats' counters exactly");
        } else {
            failed = true;
        }
    }

    println!("\n{}", trace.timeline());

    if failed {
        std::process::exit(1);
    }
}
