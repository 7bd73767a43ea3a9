//! `mmtfigs` reproduces the figure text of the per-figure binaries it
//! replaced byte for byte. `tests/figs/` holds every figure at
//! `--scale 16`, captured from those binaries; this test regenerates
//! the 2-thread subset that shares Figure 5(a)'s runs (cheap in debug
//! builds) and compares each file. CI diffs all 18 in release.

use mmt_bench::ledger;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SUBSET: [&str; 7] = [
    "fig1_redundancy",
    "fig2_divergence",
    "table3_hw",
    "fig5a_speedup_2t",
    "fig5b_identified",
    "fig5d_fetch_modes",
    "ablation_sync",
];

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmt-figs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn mmtfigs(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mmtfigs"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("mmtfigs runs")
}

#[test]
fn two_thread_figures_match_their_goldens() {
    let dir = fresh_dir("golden");
    let figures = SUBSET.join(",");
    let args = [
        "--scale",
        "16",
        "--figure",
        &figures,
        "--trace-dir",
        "traces",
    ];
    let out = mmtfigs(&dir, &args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "mmtfigs failed:\n{stderr}");
    assert!(
        stderr.contains("mmtfigs: 112 distinct runs for 176 requested"),
        "5(b), 5(d) and the sync study reuse 5(a)'s runs:\n{stderr}"
    );

    let goldens = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/figs");
    for name in SUBSET {
        let file = format!("{name}.txt");
        let want = std::fs::read_to_string(goldens.join(&file)).unwrap();
        let got = std::fs::read_to_string(dir.join("results").join(&file))
            .unwrap_or_else(|e| panic!("{file} not written: {e}"));
        assert_eq!(got, want, "{file} differs from its golden");
    }

    // Traces carry the thread count, so 5(a) and 5(c) cannot collide.
    assert!(dir.join("traces/equake-2t-fxr.trace.json").exists());

    let records = ledger::read(&dir.join(ledger::LEDGER_PATH)).expect("ledger reads back");
    assert_eq!(records.len(), 1);
    assert_eq!(
        (records[0].tool.as_str(), records[0].threads.as_str()),
        ("mmtfigs", "2")
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Figures that simulate nothing still leave a ledger that `mmtreport`
/// can read: Table 3 has no grid and records nothing, Figure 2's
/// profiles record their 2 threads, and the two selections do not share
/// a trend digest.
#[test]
fn figures_without_runs_keep_the_ledger_readable() {
    let dir = fresh_dir("ledger");
    let ledger_path = dir.join(ledger::LEDGER_PATH);
    let out = mmtfigs(&dir, &["--figure", "table3_hw"]);
    assert!(out.status.success(), "{out:?}");
    assert!(dir.join("results/table3_hw.txt").exists());
    assert!(!ledger_path.exists(), "table3_hw has no grid to record");

    for figures in ["fig2_divergence", "table3_hw,fig2_divergence"] {
        let out = mmtfigs(&dir, &["--scale", "64", "--figure", figures]);
        assert!(out.status.success(), "{out:?}");
    }
    let records = ledger::read(&ledger_path).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(records.len(), 2);
    assert!(records.iter().all(|r| r.threads == "2"));
    assert_ne!(records[0].config_digest, records[1].config_digest);
    std::fs::remove_dir_all(&dir).unwrap();
}
