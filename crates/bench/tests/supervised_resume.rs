//! End-to-end fault-tolerance tests for the sweep harness (DESIGN.md
//! §15): a SIGKILLed `mmtfigs` resumes via `--resume-dir` and
//! produces byte-identical canonical BENCH JSON to an uninterrupted run,
//! and a deliberately livelocked grid point terminates via the livelock
//! watchdog and lands in the report as a `PointFailure` without
//! aborting its sibling points.

use mmt_bench::sweep::{run_supervised, BenchReport, FailureKind};
use mmt_bench::to_run_spec;
use mmt_obs::json::Value;
use mmt_sim::{MmtLevel, SimConfig, Simulator};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Canonicalize a parsed BENCH report: zero every wall-clock- or
/// noise-derived field, then re-serialize deterministically (object
/// keys are sorted by the parser's BTreeMap).
fn canonicalize(v: &Value) -> String {
    fn zero_noise(v: &mut Value) {
        const NOISY: [&str; 4] = ["jobs", "total_wall_ms", "wall_ms", "sim_cycles_per_sec"];
        match v {
            Value::Array(items) => items.iter_mut().for_each(zero_noise),
            Value::Object(map) => {
                for (k, item) in map.iter_mut() {
                    if NOISY.contains(&k.as_str()) {
                        *item = Value::Number(0.0);
                    } else {
                        zero_noise(item);
                    }
                }
            }
            _ => {}
        }
    }
    let mut v = v.clone();
    zero_noise(&mut v);
    v.to_json()
}

fn figs_cmd(dir: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mmtfigs"));
    // BENCH output lands in cwd-relative `results/`, so each scenario
    // gets its own working directory.
    cmd.current_dir(dir)
        .args([
            "--figure",
            "fig5a_speedup_2t",
            "--scale",
            "16",
            "--jobs",
            "4",
        ])
        .args(["--resume-dir", "rd"]);
    cmd
}

fn bench_path(dir: &Path) -> PathBuf {
    dir.join("results/BENCH_figs.json")
}

/// The `resume: <cached> of <distinct> runs loaded from cache;
/// <simulated> simulated` line: (cached, simulated).
fn resume_counts(stderr: &str) -> (usize, usize) {
    let line = stderr
        .lines()
        .find(|l| l.starts_with("resume:"))
        .unwrap_or_else(|| panic!("no resume line in stderr:\n{stderr}"));
    let words: Vec<&str> = line.split_whitespace().collect();
    let count = |i: usize| -> usize {
        words[i]
            .parse()
            .unwrap_or_else(|_| panic!("unexpected resume line: {line}"))
    };
    (count(1), count(words.len() - 2))
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmt-sigkill-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn completed_points(dir: &Path) -> usize {
    std::fs::read_dir(dir.join("rd"))
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().ends_with(".point.json"))
                .count()
        })
        .unwrap_or(0)
}

#[test]
fn sigkilled_sweep_resumes_to_identical_canonical_bench_json() {
    // Reference: one uninterrupted sweep.
    let clean = fresh_dir("clean");
    let status = figs_cmd(&clean).status().expect("mmtfigs runs");
    assert!(status.success(), "uninterrupted sweep failed: {status}");

    // Victim: start the same sweep, SIGKILL it once at least two runs
    // have committed their cache entries, then rerun to completion in
    // the same directory.
    let victim = fresh_dir("victim");
    let mut child = figs_cmd(&victim).spawn().expect("mmtfigs spawns");
    let deadline = Instant::now() + Duration::from_secs(120);
    while completed_points(&victim) < 2 {
        assert!(Instant::now() < deadline, "no runs completed in time");
        if let Some(status) = child.try_wait().expect("child pollable") {
            // The whole sweep finished before we could kill it (machine
            // much faster than expected): resume still gets exercised,
            // just with a full cache.
            assert!(status.success());
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill(); // SIGKILL: no cleanup, no final report
    let _ = child.wait();

    let resumed = figs_cmd(&victim).output().expect("resumed sweep runs");
    assert!(resumed.status.success(), "resumed sweep failed");
    let (cached, _) = resume_counts(&String::from_utf8_lossy(&resumed.stderr));
    assert!(cached >= 2, "expected >=2 cached runs, got {cached}");

    // The resumed report must match the uninterrupted one byte-for-byte
    // in canonical form (wall-clock and pool-size fields zeroed), and
    // so must the figure.
    let clean_report = mmt_obs::json::parse_file(bench_path(&clean)).expect("clean BENCH parses");
    let victim_report =
        mmt_obs::json::parse_file(bench_path(&victim)).expect("resumed BENCH parses");
    assert_eq!(canonicalize(&clean_report), canonicalize(&victim_report));
    let figure = |dir: &Path| std::fs::read_to_string(dir.join("results/fig5a_speedup_2t.txt"));
    assert_eq!(figure(&clean).unwrap(), figure(&victim).unwrap());

    // With every run cached, a second resume simulates nothing.
    let again = figs_cmd(&victim).output().expect("second resume runs");
    assert!(again.status.success(), "second resume failed");
    let (cached, simulated) = resume_counts(&String::from_utf8_lossy(&again.stderr));
    assert_eq!((cached, simulated), (completed_points(&victim), 0));

    std::fs::remove_dir_all(&clean).unwrap();
    std::fs::remove_dir_all(&victim).unwrap();
}

#[test]
fn livelocked_point_fails_supervision_without_aborting_siblings() {
    let apps = ["swaptions", "blackscholes", "fft"];
    let calls = AtomicUsize::new(0);
    let outcomes = run_supervised(
        &apps,
        3,
        |name| name.to_string(),
        |&name| {
            calls.fetch_add(1, Ordering::SeqCst);
            let error = |e: mmt_sim::SimError| (FailureKind::Error, e.to_string());
            let app = mmt_workloads::app_by_name(name).expect("known app");
            let mut cfg = SimConfig::paper_with(2, MmtLevel::Fxr);
            cfg.watchdog.livelock_window = 2_000;
            cfg.max_cycles = 10_000_000;
            let mut sim = Simulator::new(cfg, to_run_spec(app.instance(2, 16))).map_err(error)?;
            if name == "blackscholes" {
                // Park one thread's fetch forever: a true livelock the
                // watchdog must convert into a typed error.
                sim.debug_hang_thread(1);
            }
            let result = sim.run().map_err(error)?;
            Ok(result.stats.cycles)
        },
    );
    // One run per point: the failed one is not retried.
    assert_eq!(calls.load(Ordering::SeqCst), apps.len());

    assert!(outcomes[0].is_ok(), "sibling 0 aborted: {:?}", outcomes[0]);
    assert!(outcomes[2].is_ok(), "sibling 2 aborted: {:?}", outcomes[2]);
    let fail = outcomes[1].as_ref().expect_err("livelocked point fails");
    assert_eq!(fail.kind, FailureKind::Error);
    assert_eq!(fail.label, "blackscholes");
    assert!(
        fail.message.contains("livelock detected"),
        "unexpected message: {}",
        fail.message
    );

    // The failure degrades into the BENCH report rather than anywhere
    // fatal, and survives canonicalization.
    let failures = vec![fail.clone()];
    let report =
        BenchReport::new("unit", 3, Duration::from_secs(1), Vec::new()).with_failures(failures);
    let json = report.canonical_json();
    assert!(json.contains("\"label\":\"blackscholes\""), "{json}");
    assert!(json.contains("\"kind\":\"error\""), "{json}");
    assert!(json.contains("livelock detected"), "{json}");
}
