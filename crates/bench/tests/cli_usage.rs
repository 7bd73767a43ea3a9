//! Usage errors are typed, never panics: `--scale` is an iteration
//! divisor, so every bin that takes it rejects `--scale 0` with the usage
//! exit code before building a single app instance.

use mmt_bench::cli::EXIT_USAGE;
use std::process::Command;

#[test]
fn scale_zero_is_a_usage_error_in_every_bin() {
    let bins = [
        env!("CARGO_BIN_EXE_mmtsim"),
        env!("CARGO_BIN_EXE_mmtlint"),
        env!("CARGO_BIN_EXE_mmttrace"),
        env!("CARGO_BIN_EXE_fig1_redundancy"),
        env!("CARGO_BIN_EXE_fig2_divergence"),
        env!("CARGO_BIN_EXE_fig5_speedup"),
        env!("CARGO_BIN_EXE_fig5b_identified"),
        env!("CARGO_BIN_EXE_fig5d_fetch_modes"),
        env!("CARGO_BIN_EXE_fig6_energy"),
        env!("CARGO_BIN_EXE_fig7_sensitivity"),
        env!("CARGO_BIN_EXE_ablations"),
        // The differential gates parse it through `GateSpec`.
        env!("CARGO_BIN_EXE_mmtpredict"),
        env!("CARGO_BIN_EXE_mmtmem"),
        env!("CARGO_BIN_EXE_mmtvalue"),
        env!("CARGO_BIN_EXE_mmtffwd"),
        env!("CARGO_BIN_EXE_mmtfault"),
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
