//! `mmtfigs --deadline-secs`, in process: under a deadline no run can
//! meet, every simulated run stops at its first deadline check and is
//! recorded once as a `timeout` failure, the figures that needed a run
//! are not written while the others are, and `regenerate` reports the
//! failure only after every run has stopped.
//!
//! `regenerate` writes cwd-relative `results/`, so this binary holds one
//! test, which moves the process into a scratch directory.

use mmt_bench::figs::{regenerate, select, Options};
use mmt_obs::json::Value;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Threads of this process, where the OS lists them.
fn live_threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

#[test]
fn a_missed_deadline_stops_every_run_once() {
    let dir = std::env::temp_dir().join(format!("mmt-figs-deadline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_current_dir(&dir).unwrap();

    let threads_before = live_threads();
    let opts = Options {
        // 5(b) is 6's 2-thread MMT-FXR runs again: 64 distinct runs.
        figures: select("table3_hw,fig5b_identified,fig6_energy").unwrap(),
        scale: 16,
        jobs: 4,
        resume: None,
        trace_dir: None,
        deadline: Some(Duration::from_nanos(1)),
    };
    assert!(
        !regenerate(&opts),
        "a sweep of timed-out runs reported success"
    );

    // Every worker has stopped: none outlives the call. Joined threads
    // may take a moment to leave the OS's list, not seconds.
    if let Some(before) = threads_before {
        let grace = Instant::now() + Duration::from_millis(200);
        while live_threads() != Some(before) && Instant::now() < grace {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(live_threads(), Some(before), "threads outlived regenerate");
    }

    let written = |name: &str| dir.join(format!("results/{name}.txt")).exists();
    assert!(written("table3_hw"));
    assert!(!written("fig5b_identified") && !written("fig6_energy"));

    let report = mmt_obs::json::parse_file(dir.join("results/BENCH_figs.json")).unwrap();
    let runs = report.get("runs").and_then(Value::as_array).unwrap();
    assert!(runs.is_empty(), "a run finished inside a 1 ns deadline");
    let failures = report.get("failures").and_then(Value::as_array).unwrap();
    let mut labels = HashSet::new();
    for f in failures {
        let field = |k: &str| f.get(k).and_then(Value::as_str).unwrap_or_default();
        assert_eq!(field("kind"), "timeout", "{f:?}");
        // The deadline is checked before the first cycle, and a run that
        // stops is recorded once, not retried.
        assert!(field("message").contains("stopped at cycle 0"), "{f:?}");
        assert!(f.get("attempts").is_none(), "{f:?}");
        assert!(labels.insert(field("label").to_string()), "{f:?} twice");
    }
    assert_eq!(labels.len(), 64);

    std::env::set_current_dir(std::env::temp_dir()).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
