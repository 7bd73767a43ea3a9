//! Every workload end to end at smoke size, and the printed metric
//! names against `BENCHMARK.json`.

use mmt_obs::json::{self, Value};
use mmtbench::report::Report;
use mmtbench::workloads::Workload;
use mmtbench::{run_workload, Options, SMOKE_SIZE};
use std::collections::BTreeMap;

fn smoke(workload: Workload) -> Report {
    let report = run_workload(
        workload,
        &Options {
            seed: 7,
            seconds: 0.0,
            traced: true,
            size: SMOKE_SIZE,
        },
    );
    assert_eq!(
        report.tally.error_rate(),
        0.0,
        "{:?}",
        report.tally.failures
    );
    assert!(report.tally.attempted > 0);
    assert!(report.spans_json.is_some());
    report
}

/// `name -> unit` of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse_file(path).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

/// `name -> unit` of the metrics in a printed result line.
fn printed(line: &str) -> BTreeMap<String, String> {
    let Ok(Value::Object(top)) = json::parse(line) else {
        panic!("result line is a JSON object")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let Some(Value::Object(metrics)) = top.get("metrics") else {
        panic!("metrics is an object")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let report = smoke(Workload::Lockstep);
    for (traced, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let printed = printed(&report.json_line(traced));
        assert_eq!(printed, declared(list), "{list}");
        for name in printed.keys() {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse_file(path).expect("BENCHMARK.json parses");
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn suite_runs_clean() {
    let report = smoke(Workload::Suite);
    assert_eq!(report.fxr_speedups.len(), 2, "2T and 4T speedups");
}

#[test]
fn lockstep_runs_clean_and_never_diverges() {
    let report = smoke(Workload::Lockstep);
    let layer = |name| {
        report
            .per_layer
            .iter()
            .find(|m| m.name == name)
            .expect("metric")
            .value
    };
    assert_eq!(layer("frontend.divergences"), 0.0);
    assert_eq!(layer("frontend.fhb_ops"), 0.0);
}

#[test]
fn membound_runs_clean() {
    smoke(Workload::Membound);
}

#[test]
fn sampled_runs_clean() {
    let report = smoke(Workload::Sampled);
    let windows = report
        .per_layer
        .iter()
        .find(|m| m.name == "sample.windows")
        .expect("metric");
    assert!(windows.value > 0.0);
}
