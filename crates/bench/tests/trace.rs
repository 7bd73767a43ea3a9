//! Well-formedness of the trace exporters on a real divergent workload:
//! the Chrome export must be valid JSON with monotonically non-decreasing
//! timestamps and balanced begin/end pairs per track, and both JSONL
//! streams must parse line by line.

use mmt_bench::{run_app_with, SMOKE_SCALE};
use mmt_obs::{json, validate_chrome_trace};
use mmt_sim::{replay_mismatches, MmtLevel, SimResult, TraceConfig};
use mmt_workloads::app_by_name;

fn traced_run(app_name: &str, threads: usize) -> SimResult {
    let app = app_by_name(app_name).expect("known app");
    run_app_with(&app, threads, MmtLevel::Fxr, SMOKE_SCALE, |cfg| {
        cfg.trace = Some(TraceConfig {
            ring_capacity: 1 << 22,
            window: 2048,
        });
    })
}

#[test]
fn chrome_export_is_well_formed() {
    // equake is the suite's most divergent app: the trace exercises mode
    // spans, divergence/remerge instants, and counter tracks all at once.
    let r = traced_run("equake", 2);
    let trace = r.trace.as_ref().expect("tracing was enabled");
    assert_eq!(trace.dropped, 0, "ring too small for the smoke run");
    assert!(!trace.events.is_empty());
    assert!(!trace.windows.is_empty());

    let summary = validate_chrome_trace(&trace.chrome_json()).expect("valid chrome trace");
    assert!(summary.span_pairs > 0, "no mode spans in a divergent run");
    assert!(summary.counters > 0, "no counter samples");
    assert!(summary.instants > 0, "no divergence/remerge instants");
}

#[test]
fn jsonl_streams_parse_line_by_line() {
    let r = traced_run("equake", 2);
    let trace = r.trace.as_ref().expect("tracing was enabled");

    let events = trace.events_jsonl();
    let mut n = 0;
    let mut last_cycle = 0u64;
    for line in events.lines() {
        let v = json::parse(line).expect("event line parses");
        let c = v.get("c").and_then(|c| c.as_f64()).expect("cycle field") as u64;
        assert!(c >= last_cycle, "event cycles must be non-decreasing");
        last_cycle = c;
        assert!(v.get("k").and_then(|k| k.as_str()).is_some(), "kind field");
        n += 1;
    }
    assert_eq!(n, trace.events.len());

    let windows = trace.windows_jsonl();
    let mut m = 0;
    for line in windows.lines() {
        let v = json::parse(line).expect("window line parses");
        assert!(v.get("end").is_some() && v.get("ipc").is_some());
        m += 1;
    }
    assert_eq!(m, trace.windows.len());
}

#[test]
fn single_thread_trace_is_valid_too() {
    // No divergence machinery at 1 thread — the exporters must still
    // produce a valid (span-closed) trace.
    let r = traced_run("fft", 1);
    let trace = r.trace.as_ref().expect("tracing was enabled");
    validate_chrome_trace(&trace.chrome_json()).expect("valid chrome trace");
    let mismatches = replay_mismatches(&r.stats, &trace.replay_counters());
    assert!(mismatches.is_empty(), "{mismatches:?}");
}
