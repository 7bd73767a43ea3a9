//! Shared scaffolding for the differential gate bins (`mmtpredict`,
//! `mmtmem`, `mmtvalue`, `mmtffwd`, `mmtfault`).
//!
//! Each gate bin compares a static analysis (or a fast-path executor,
//! or a fault campaign) against dynamic simulation per case and fails
//! loudly on any soundness violation. The shape is identical across
//! tools — parse the unified CLI flags, build the case cross-product,
//! run cases in parallel (streaming per-case progress JSONL when asked),
//! print a markdown table, dump `SOUNDNESS` lines to stderr, write
//! `results/BENCH_<name>.json`, append a run-ledger record, and exit 1
//! iff anything was violated — so it lives here once:
//!
//! * [`GateSpec::from_args`] — the unified flag set
//!   (`--apps/--app/--all-workloads`, `--threads`, `--scale`, `--jobs`,
//!   `--format`, `--progress`);
//! * [`GateSpec::cases`] — the (app × threads) cross-product;
//! * [`GateSpec::run_cases`] — parallel case execution with per-case
//!   `start`/`finish` progress records;
//! * [`GateRow`] + [`finish_gate`] — the failure table, report write,
//!   the `results/LEDGER.jsonl` append, and the exit policy;
//! * [`status_cell`] — the per-row `ok` / `FAIL (n)` table cell.
//!
//! | flag | default | meaning |
//! |---|---|---|
//! | `--all-workloads` | —     | shorthand for `--apps all` |
//! | `--apps LIST`     | `all` | comma-separated suite app names, or `all` |
//! | `--app NAME`      | `all` | alias for `--apps` |
//! | `--threads LIST`  | `2,4` | comma-separated thread counts |
//! | `--scale N`       | `16`  | iteration divisor for app instances |
//! | `--jobs N`        | cores | parallel cases |
//! | `--format F`      | `text`| `text`, or `json` failure objects |
//! | `--progress PATH` | off   | stream per-case progress JSONL to PATH |

use crate::arg_value;
use crate::cli::{fail_run, fail_usage, format_json_arg, scale_arg};
use crate::ledger::LedgerRecord;
use crate::sweep::{jobs_arg, progress_arg, run_parallel, write_report, ProgressSink};
use mmt_obs::json::ToJson;
use mmt_workloads::{all_apps, app_by_name, App};
use std::sync::Arc;
use std::time::Instant;

/// Parsed unified CLI for one gate-bin invocation.
#[derive(Debug, Clone)]
pub struct GateSpec {
    /// Emit failures as JSON objects (`--format json`).
    pub json: bool,
    /// The selected suite apps.
    pub apps: Vec<App>,
    /// Thread counts to validate per app.
    pub threads: Vec<usize>,
    /// Iteration divisor for app instances.
    pub scale: u64,
    /// Parallel cases.
    pub jobs: usize,
    /// Live progress stream (`--progress PATH`), shared across workers.
    pub progress: Option<Arc<ProgressSink>>,
}

impl GateSpec {
    /// Parse the unified gate flags, exiting with a usage error (status
    /// 2) on anything malformed.
    pub fn from_args(args: &[String]) -> GateSpec {
        let json = format_json_arg(args).unwrap_or_else(|e| fail_usage(false, e));
        let names = if args.iter().any(|a| a == "--all-workloads") {
            "all".to_string()
        } else {
            arg_value(args, "--apps")
                .or_else(|| arg_value(args, "--app"))
                .unwrap_or_else(|| "all".into())
        };
        let apps: Vec<App> = if names == "all" {
            all_apps()
        } else {
            names
                .split(',')
                .map(|name| {
                    let name = name.trim();
                    app_by_name(name).unwrap_or_else(|| {
                        fail_usage(
                            json,
                            format!(
                                "unknown app '{name}'; known: {}",
                                all_apps()
                                    .iter()
                                    .map(|a| a.name)
                                    .collect::<Vec<_>>()
                                    .join(", ")
                            ),
                        )
                    })
                })
                .collect()
        };
        let threads: Vec<usize> = arg_value(args, "--threads")
            .unwrap_or_else(|| "2,4".into())
            .split(',')
            .map(|s| {
                s.trim().parse().unwrap_or_else(|_| {
                    fail_usage(json, "--threads takes a comma-separated list like 2,4")
                })
            })
            .collect();
        let scale = scale_arg(args, 16, json);
        let jobs = jobs_arg(args, json);
        let progress = progress_arg(args).map(|path| {
            Arc::new(ProgressSink::create(&path).unwrap_or_else(|e| {
                fail_run(
                    json,
                    format!("cannot open --progress {}: {e}", path.display()),
                )
            }))
        });
        GateSpec {
            json,
            apps,
            threads,
            scale,
            jobs,
            progress,
        }
    }

    /// The (app × thread-count) cross-product, in app-major order.
    pub fn cases(&self) -> Vec<(App, usize)> {
        self.apps
            .iter()
            .flat_map(|a| self.threads.iter().map(move |&t| (a.clone(), t)))
            .collect()
    }

    /// Run every case in parallel (item order preserved), emitting one
    /// `start`/`finish` progress-record pair per case when `--progress`
    /// is live.
    pub fn run_cases<R: Send>(&self, f: impl Fn(&App, usize) -> R + Send + Sync) -> Vec<R> {
        run_parallel(&self.cases(), self.jobs, |(app, threads)| {
            let label = format!("{}@{threads}", app.name);
            if let Some(p) = &self.progress {
                p.start(&label);
            }
            let started = Instant::now();
            let row = f(app, *threads);
            if let Some(p) = &self.progress {
                p.finish(&label, started.elapsed());
            }
            row
        })
    }
}

/// What [`finish_gate`] needs from one result row.
pub trait GateRow {
    /// The app the row validates.
    fn app(&self) -> &str;
    /// The thread count the row validates.
    fn threads(&self) -> usize;
    /// Soundness violations found (empty = clean).
    fn violations(&self) -> &[String];
    /// Simulated cycles this row cost, for the ledger's throughput
    /// figure. Rows that do not track cycles report 0 (the ledger then
    /// records a throughput of 0 = "not measured").
    fn sim_cycles(&self) -> u64 {
        0
    }
}

/// The per-row status cell of the markdown table: `ok`, or `FAIL (n)`.
pub fn status_cell(violations: &[String]) -> String {
    if violations.is_empty() {
        "ok".to_string()
    } else {
        format!("FAIL ({})", violations.len())
    }
}

/// The common gate epilogue: `SOUNDNESS` lines on stderr, the JSON
/// report to `results/BENCH_<report_name>.json`, one appended
/// `results/LEDGER.jsonl` record (best-effort — a read-only checkout
/// warns instead of failing), and the exit policy — status 1 with a
/// `<tool>: N soundness violation(s)` failure when any row has
/// violations, else a `<tool>: all checks passed` success line and
/// status 0.
///
/// `started` is the instant the bin began, so the ledger's wall-clock
/// covers the whole invocation, not just the epilogue.
pub fn finish_gate<R: GateRow>(
    tool: &str,
    report_name: &str,
    spec: &GateSpec,
    started: Instant,
    report: &impl ToJson,
    rows: &[R],
) -> ! {
    let mut violations = 0usize;
    let mut sim_cycles = 0u64;
    for r in rows {
        for v in r.violations() {
            eprintln!("SOUNDNESS {} t={}: {v}", r.app(), r.threads());
        }
        violations += r.violations().len();
        sim_cycles = sim_cycles.saturating_add(r.sim_cycles());
    }
    match write_report(report_name, report) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => fail_run(spec.json, format!("cannot write report: {e}")),
    }
    let wall = started.elapsed();
    let cps = if wall.as_secs_f64() > 0.0 {
        sim_cycles as f64 / wall.as_secs_f64()
    } else {
        0.0
    };
    LedgerRecord::new(
        tool,
        spec.apps.len(),
        &spec.threads,
        spec.scale,
        wall.as_secs_f64() * 1e3,
        cps,
        violations,
    )
    .append_or_warn();
    if violations > 0 {
        fail_run(
            spec.json,
            format!("{tool}: {violations} soundness violation(s)"),
        );
    }
    println!("{tool}: all checks passed");
    std::process::exit(0);
}
