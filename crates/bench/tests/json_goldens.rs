//! Byte-identity goldens for the JSON the harness emits.
//!
//! Each digest is the FNV-1a of one exact JSON document: the `SimStats`
//! object `mmtsim --format json` prints (and `mmtmem` consumes), a
//! sampled estimate, a canonical BENCH report carrying a failed point
//! with a hostile message, and the whole stdout of `mmtlint --format
//! json`. Field order is part of the byte format, so a serializer that
//! reordered, renamed, dropped or re-escaped anything would move a
//! digest. Re-capture with `MMT_PRINT_GOLDEN=1 cargo test -p mmt-bench
//! --test json_goldens -- --nocapture` only for an intended format
//! change.

use mmt_bench::sample::{run_sampled, SampleConfig};
use mmt_bench::sweep::{BenchReport, FailureKind, PointFailure, RunTelemetry};
use mmt_bench::{run_app_with, to_run_spec, SMOKE_SCALE};
use mmt_obs::json::to_json;
use mmt_sim::snapshot::Fnv;
use mmt_sim::{MmtLevel, SimConfig, SimStats};
use mmt_workloads::app_by_name;
use std::process::Command;
use std::time::Duration;

/// `(document, digest)`.
const GOLDENS: &[(&str, u64)] = &[
    ("stats fft 2T", 0x59e0b1f676042818),
    ("stats mcf 4T", 0xb0f6537effcd0519),
    ("sampled fft 2T", 0x813f4e68b4b9b67a),
    ("bench report", 0x74a89dbe0e092f6a),
    ("mmtlint all", 0x81e91b28ccde14e5),
];

fn stats(app: &str, threads: usize) -> SimStats {
    let app = app_by_name(app).expect("known app");
    run_app_with(&app, threads, MmtLevel::Fxr, SMOKE_SCALE, |cfg| {
        cfg.record_pc_profile = true;
    })
    .stats
}

fn sampled(app: &str, threads: usize) -> String {
    let app = app_by_name(app).expect("known app");
    let cfg = SimConfig::paper_with(threads, MmtLevel::Fxr);
    let spec = to_run_spec(app.instance(threads, SMOKE_SCALE));
    to_json(&run_sampled(&cfg, &spec, &SampleConfig::default()))
}

fn bench_report() -> String {
    let run = RunTelemetry::new("fft/fxr".into(), Duration::from_millis(3), &stats("fft", 2));
    let failure = PointFailure {
        label: "mcf/base".into(),
        kind: FailureKind::Timeout,
        message: "deadline \"30s\" passed\n\tat caf\u{e9} \u{1} \\ 日本".into(),
    };
    BenchReport::new("golden", 4, Duration::from_secs(1), vec![run])
        .with_failures(vec![failure])
        .canonical_json()
}

fn mmtlint_all() -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_mmtlint"))
        .args(["--app", "all", "--format", "json"])
        .output()
        .expect("mmtlint runs");
    assert!(out.status.success(), "mmtlint --app all failed");
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

fn document(name: &str) -> String {
    match name {
        "stats fft 2T" => to_json(&stats("fft", 2)),
        "stats mcf 4T" => to_json(&stats("mcf", 4)),
        "sampled fft 2T" => sampled("fft", 2),
        "bench report" => bench_report(),
        "mmtlint all" => mmtlint_all(),
        other => unreachable!("no document {other}"),
    }
}

#[test]
fn emitted_json_is_byte_identical_to_goldens() {
    let print = std::env::var_os("MMT_PRINT_GOLDEN").is_some();
    let mut failures = Vec::new();
    for &(name, want) in GOLDENS {
        let doc = document(name);
        let mut h = Fnv::new();
        h.put_bytes(doc.as_bytes());
        let got = h.finish();
        if print {
            println!("(\"{name}\", {got:#018x}),");
        } else if got != want {
            failures.push(format!("{name}: digest {got:#018x} != golden {want:#018x}"));
        }
    }
    assert!(
        failures.is_empty(),
        "emitted JSON drifted from the goldens:\n{}",
        failures.join("\n")
    );
}
