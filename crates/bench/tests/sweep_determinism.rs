//! The sweep harness's core contract: results come back in grid order and
//! figure data is byte-identical no matter the worker-pool size — only
//! wall-clock fields (excluded from the canonical form) may differ.

use mmt_bench::sweep::{run_parallel, BenchReport, RunTelemetry};
use mmt_bench::{run_app, speedup, SMOKE_SCALE};
use mmt_sim::MmtLevel;
use mmt_workloads::app_by_name;
use std::time::Instant;

/// A miniature fig5-style sweep: (app, level) grid producing speedups and
/// telemetry, exactly the shape every figure binary uses.
fn sweep(jobs: usize) -> (Vec<f64>, BenchReport) {
    let apps: Vec<_> = ["swaptions", "fft"]
        .iter()
        .map(|n| app_by_name(n).expect("known app"))
        .collect();
    let t0 = Instant::now();
    let rows = run_parallel(&apps, jobs, |app| {
        let timed = |level: MmtLevel| {
            let start = Instant::now();
            let stats = run_app(app, 2, level, SMOKE_SCALE).stats;
            let label = format!("{}/{level:?}", app.name).to_lowercase();
            let t = RunTelemetry::new(label, start.elapsed(), &stats);
            (stats, t)
        };
        let ((base, t_base), (fxr, t_fxr)) = (timed(MmtLevel::Base), timed(MmtLevel::Fxr));
        (speedup(&base, &fxr), vec![t_base, t_fxr])
    });
    let mut speedups = Vec::new();
    let mut tel: Vec<RunTelemetry> = Vec::new();
    for (s, t) in rows {
        speedups.push(s);
        tel.extend(t);
    }
    (
        speedups,
        BenchReport::new("determinism-unit", jobs, t0.elapsed(), tel),
    )
}

#[test]
fn figure_data_is_identical_at_any_pool_size() {
    let (speedups_1, report_1) = sweep(1);
    for jobs in [2usize, 8] {
        let (speedups_n, report_n) = sweep(jobs);
        // Figure values: bit-identical floats, not approximately equal.
        assert_eq!(speedups_1, speedups_n, "jobs={jobs}");
        // Full telemetry record: identical modulo wall-clock fields.
        assert_eq!(
            report_1.canonical_json(),
            report_n.canonical_json(),
            "jobs={jobs}"
        );
    }
    // The canonical JSON still carries the deterministic payload.
    let json = report_1.canonical_json();
    assert!(json.contains("swaptions/base"));
    assert!(json.contains("\"peak_uop_arena\""));
}
