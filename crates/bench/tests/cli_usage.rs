//! Usage errors are typed, never panics: `--scale` is an iteration
//! divisor, so every bin that takes it rejects `--scale 0` with the usage
//! exit code before building a single app instance; a malformed
//! `--jobs`, an unknown `--figure` or `--check`, and an unknown flag are
//! rejected the same way.

use mmt_bench::cli::EXIT_USAGE;
use std::process::Command;

#[test]
fn scale_zero_is_a_usage_error_in_every_bin() {
    let bins = [
        env!("CARGO_BIN_EXE_mmtsim"),
        env!("CARGO_BIN_EXE_mmtlint"),
        env!("CARGO_BIN_EXE_mmttrace"),
        env!("CARGO_BIN_EXE_mmtfigs"),
        env!("CARGO_BIN_EXE_mmtgate"),
    ];
    for bin in bins {
        let out = Command::new(bin)
            .args(["--scale", "0"])
            .output()
            .expect("bin runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(EXIT_USAGE),
            "{bin} --scale 0: {stderr}"
        );
        assert!(
            stderr.contains("error: --scale"),
            "{bin} --scale 0 names the flag: {stderr}"
        );
    }
}

/// Run `bin` with `args`; assert a usage exit whose stderr carries
/// `want`, and return that stderr.
fn usage_error(bin: &str, args: &[&str], want: &str) -> String {
    let out = Command::new(bin).args(args).output().expect("bin runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(
        out.status.code(),
        Some(EXIT_USAGE),
        "{bin} {args:?}: {stderr}"
    );
    assert!(stderr.contains(want), "{bin} {args:?}: {stderr}");
    stderr
}

#[test]
fn malformed_jobs_is_a_usage_error() {
    for bin in [env!("CARGO_BIN_EXE_mmtfigs"), env!("CARGO_BIN_EXE_mmtgate")] {
        usage_error(bin, &["--jobs", "x"], "error: --jobs");
    }
}

#[test]
fn mmtfigs_rejects_unknown_figures_and_flags() {
    let figs = env!("CARGO_BIN_EXE_mmtfigs");
    let stderr = usage_error(figs, &["--figure", "nope"], "error: unknown figure 'nope'");
    for name in [
        "fig1_redundancy",
        "fig5c_speedup_4t",
        "ablation_fetchpolicy",
    ] {
        assert!(stderr.contains(name), "valid names listed: {stderr}");
    }
    usage_error(figs, &["--threads", "4"], "error: unknown flag '--threads'");
    for secs in ["x", "0", "1e300"] {
        usage_error(figs, &["--deadline-secs", secs], "error: --deadline-secs");
    }
}

#[test]
fn mmtgate_rejects_unknown_checks_and_flags() {
    let gate = env!("CARGO_BIN_EXE_mmtgate");
    let stderr = usage_error(
        gate,
        &["--check", "predict,nope"],
        "error: unknown check 'nope'",
    );
    for name in ["predict", "mem", "value", "ffwd", "fault"] {
        assert!(stderr.contains(name), "valid names listed: {stderr}");
    }
    // Misspelled flags are not ignored: each is a usage error, before
    // any case runs.
    usage_error(
        gate,
        &["--apps", "fft", "--thread", "2", "--scal", "4"],
        "error: unknown flag '--thread'",
    );
    usage_error(gate, &["--app", "fft"], "error: unknown flag '--app'");
    usage_error(gate, &["--apps", "nope"], "error: unknown app 'nope'");
}
