//! End-to-end tests for the observability layer (DESIGN.md §17): the
//! committed run ledger is schema-clean and covers every gate check, a
//! synthetic throughput regression makes `mmtreport --check` exit
//! nonzero, and an `mmtgate` run with `--progress` emits well-formed
//! per-case JSONL, appends a valid ledger record per check and
//! simulates each case's golden once.

use mmt_bench::ledger::{self, LedgerRecord};
use mmt_obs::json::{parse, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmt-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A ledger record with a controlled throughput; everything else (grid,
/// digest) held constant so runs are trend-comparable.
fn cps_record(cps: f64) -> LedgerRecord {
    LedgerRecord::new("mmtffwd", 1, &[2, 4], 1, 50.0, cps, 0)
}

#[test]
fn committed_ledger_is_schema_clean_and_covers_every_gate_bin() {
    // The repo commits its own run history; every line must validate
    // against the schema and all five gate checks must have at least
    // one record under their tool names (the acceptance criterion for
    // the ledger altitude).
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/LEDGER.jsonl");
    let records = ledger::read(&path)
        .unwrap_or_else(|e| panic!("committed ledger {} invalid: {e}", path.display()));
    assert!(!records.is_empty(), "committed ledger is empty");
    for tool in ["mmtpredict", "mmtmem", "mmtvalue", "mmtffwd", "mmtfault"] {
        assert!(
            records.iter().any(|r| r.tool == tool),
            "no committed ledger record for {tool}"
        );
    }
}

#[test]
fn mmtreport_check_passes_on_a_clean_ledger_and_fails_on_a_regression() {
    let dir = fresh_dir("report");
    let ledger_path = dir.join("LEDGER.jsonl");
    cps_record(1.00e6).append_to(&ledger_path).unwrap();
    cps_record(1.02e6).append_to(&ledger_path).unwrap();

    let run = |check: bool| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_mmtreport"));
        cmd.current_dir(&dir)
            .arg("--ledger")
            .arg(&ledger_path)
            .arg("--results")
            .arg(dir.join("results"));
        if check {
            cmd.arg("--check");
        }
        cmd.output().expect("mmtreport runs")
    };

    // Steady throughput: clean exit, markdown table on stdout,
    // REPORT.json written next to the (empty) results dir.
    let out = run(true);
    assert!(out.status.success(), "clean ledger failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("| mmtffwd |"), "{stdout}");
    assert!(stdout.contains("verdict: ok"), "{stdout}");
    let report = parse(&std::fs::read_to_string(dir.join("results/REPORT.json")).unwrap())
        .expect("REPORT.json is valid JSON");
    assert!(matches!(report.get("ok"), Some(Value::Bool(true))));

    // Synthetic regression: a third comparable record at half the
    // previous throughput must flip `--check` to exit 1 (the acceptance
    // criterion for the trend gate), while the plain report still
    // renders.
    cps_record(0.50e6).append_to(&ledger_path).unwrap();
    let out = run(false);
    assert!(out.status.success(), "report without --check must not gate");
    let out = run(true);
    assert!(
        !out.status.success(),
        "regressed ledger must fail --check: {out:?}"
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("REGRESSED"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn gate_bin_emits_progress_jsonl_and_a_valid_ledger_record() {
    // Run the cheapest real check (predict on one small app) in a
    // scratch working directory so its cwd-relative `results/` lands in
    // the sandbox, not the repo.
    let dir = fresh_dir("gate");
    let progress = dir.join("progress.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_mmtgate"))
        .current_dir(&dir)
        .args(["--check", "predict", "--apps", "fft", "--threads", "2"])
        .args(["--scale", "16"])
        .arg("--progress")
        .arg(&progress)
        .output()
        .expect("mmtgate runs");
    assert!(out.status.success(), "mmtgate failed: {out:?}");

    // Progress stream: valid JSONL, one start and one finish for the
    // single grid point, monotonically timestamped.
    let text = std::fs::read_to_string(&progress).unwrap();
    let mut events = Vec::new();
    let mut last_ms = 0.0f64;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = parse(line).expect("progress line is valid JSON");
        let ms = v.get("ms").and_then(Value::as_f64).expect("ms field");
        assert!(ms >= last_ms, "timestamps must be monotone: {text}");
        last_ms = ms;
        events.push((
            v.get("event").and_then(Value::as_str).unwrap().to_string(),
            v.get("label").and_then(Value::as_str).unwrap().to_string(),
        ));
    }
    assert!(
        events.contains(&("start".to_string(), "fft@2".to_string())),
        "{text}"
    );
    assert!(
        events.contains(&("finish".to_string(), "fft@2".to_string())),
        "{text}"
    );

    // Ledger: exactly one record, schema-valid, matching the run.
    let records = ledger::read(&dir.join("results/LEDGER.jsonl")).unwrap();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].tool, "mmtpredict");
    assert_eq!(records[0].threads, "2");
    assert_eq!(records[0].gate, "pass");
    assert!(records[0].sim_cycles_per_sec > 0.0, "{:?}", records[0]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mmtgate_checks_share_one_golden_per_case() {
    let dir = fresh_dir("shared-golden");
    let out = Command::new(env!("CARGO_BIN_EXE_mmtgate"))
        .current_dir(&dir)
        .args([
            "--check",
            "predict,mem,value,fault",
            "--apps",
            "fft",
            "--threads",
            "2",
        ])
        .output()
        .expect("mmtgate runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "mmtgate failed: {stdout}");
    assert!(stdout.contains("mmtgate: simulated 1 FXR golden(s) for predict,mem,value,fault"));
    // Each check keeps its ledger record under its former bin name.
    let records = ledger::read(&dir.join("results/LEDGER.jsonl")).unwrap();
    let tools: Vec<&str> = records.iter().map(|r| r.tool.as_str()).collect();
    assert_eq!(tools, ["mmtpredict", "mmtmem", "mmtvalue", "mmtfault"]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mmtsim_sampled_run_reports_the_handoff_tier() {
    let dir = fresh_dir("tiers");
    let metrics = dir.join("tiers.json");
    let out = Command::new(env!("CARGO_BIN_EXE_mmtsim"))
        .args(["--app", "fft", "--threads", "2", "--scale", "16"])
        .arg("--sample")
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .expect("mmtsim runs");
    assert!(out.status.success(), "mmtsim failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("(handoff ") && stdout.contains(" us/window)"),
        "{stdout}"
    );
    // The snapshot carries the handoff series next to the other tiers.
    let text = std::fs::read_to_string(&metrics).unwrap();
    for tier in ["detailed", "handoff", "ffwd"] {
        assert!(
            text.contains(&format!("\"{tier}\"")),
            "no {tier} tier: {text}"
        );
    }
}
