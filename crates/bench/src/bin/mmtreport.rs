//! `mmtreport` — join the run ledger with the committed bench reports
//! into one trend report with regression verdicts.
//!
//! Reads `results/LEDGER.jsonl` (appended by every `mmtgate` check and
//! `mmtfigs` run, see [`mmt_bench::ledger`]) and scans
//! `results/BENCH_*.json` for structural problems, then prints a
//! per-tool markdown table — run count, latest gate outcome, throughput,
//! delta vs. the previous comparable run, a sparkline — and writes the
//! same content as JSON to `results/REPORT.json`.
//!
//! ```text
//! mmtreport
//! mmtreport --check                  # exit 1 on any regression/failure
//! mmtreport --ledger L --results DIR # explicit inputs (tests, CI)
//! ```
//!
//! | flag | default | meaning |
//! |---|---|---|
//! | `--ledger PATH`  | `results/LEDGER.jsonl` | the ledger to read |
//! | `--results DIR`  | `results` | where `BENCH_*.json` live and `REPORT.json` is written |
//! | `--check`        | off | exit 1 when any verdict is not `ok` |
//! | `--format F`     | `text` | `text` markdown, or `json` report on stdout |
//!
//! Throughput verdicts are ledger-local (latest vs. previous record of
//! the same tool and config digest, >5% drop = regression), so trends
//! survive machine-speed changes; see [`mmt_bench::report`]. Exit
//! status: 0 clean, 1 regression/failure under `--check` (or unreadable
//! ledger), 2 usage errors.

use mmt_bench::arg_value;
use mmt_bench::cli::{fail_run, fail_usage, format_json_arg};
use mmt_bench::report::{build, ReportOptions};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = format_json_arg(&args).unwrap_or_else(|e| fail_usage(false, e));
    for a in args.iter().skip(1) {
        if a.starts_with("--")
            && !matches!(
                a.as_str(),
                "--ledger" | "--results" | "--check" | "--format"
            )
        {
            fail_usage(
                json,
                format!(
                    "unknown flag {a}; known: --ledger PATH, --results DIR, --check, --format F"
                ),
            );
        }
    }
    let check = args.iter().any(|a| a == "--check");
    let mut opts = ReportOptions::default();
    if let Some(p) = arg_value(&args, "--ledger") {
        opts.ledger = PathBuf::from(p);
    }
    if let Some(p) = arg_value(&args, "--results") {
        opts.results = PathBuf::from(p);
    }

    let report = build(&opts).unwrap_or_else(|e| fail_run(json, format!("mmtreport: {e}")));

    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.to_markdown());
    }

    // REPORT.json deliberately lacks the BENCH_ prefix so the next run's
    // structural scan does not pick up our own output.
    let out = opts.results.join("REPORT.json");
    match std::fs::create_dir_all(&opts.results)
        .and_then(|()| std::fs::write(&out, report.to_json()))
    {
        Ok(()) => {
            if !json {
                println!("\nwrote {}", out.display());
            }
        }
        Err(e) => eprintln!("warning: cannot write {}: {e}", out.display()),
    }

    if check && !report.ok() {
        let problems: Vec<String> = report
            .tools
            .iter()
            .filter(|t| !t.ok)
            .map(|t| format!("{}: {}", t.tool, t.verdict))
            .chain(report.bench_issues.iter().cloned())
            .collect();
        fail_run(json, format!("mmtreport: {}", problems.join("; ")));
    }
}
