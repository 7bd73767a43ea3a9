//! # mmt-bench — the experiment harness
//!
//! `mmtfigs` regenerates every table, figure and ablation of the
//! paper's evaluation (Section 6) from one deduplicated run grid; the
//! figure table lives in [`figs`]. EXPERIMENTS.md at the repository
//! root has the paper-vs-measured record. The shared plumbing lives
//! here: building [`RunSpec`]s from workloads, running configurations,
//! and computing speedups.
//!
//! | binary | does |
//! |---|---|
//! | `mmtfigs` | Figures 1, 2, 5(a)–(d), 6, 7(a)–(d), Table 3 and the design-choice ablations (`--figure NAME,…`) |
//! | `mmtsim` | general-purpose CLI driver (any app/config, JSON output, `--asm` files) |
//! | `mmtlint` | static linter + merge classification over suite apps (`--format json`) |
//! | `mmtpredict` | static savings predictor vs. per-PC dynamic profile (differential gate) |
//! | `mmtmem` | static memory divergence/race analysis + LVIP brackets vs. dynamic addresses (differential gate) |
//! | `mmtvalue` | thread-parametric value-flow analysis + static RST model vs. per-PC exec-merge profile (differential gate) |

#![warn(missing_docs)]

pub mod cli;
pub mod figs;
pub mod gate;
pub mod ledger;
pub mod report;
pub mod sample;
pub mod sweep;

use mmt_sim::{MmtLevel, RunSpec, SimConfig, SimResult, SimStats, Simulator};
use mmt_workloads::{App, WorkloadInstance};

/// Iteration divisor for full experiment runs (1 = paper-sized for this
/// repository's synthetic kernels).
pub const FULL_SCALE: u64 = 1;
/// Divisor used by smoke tests.
pub const SMOKE_SCALE: u64 = 16;

/// Convert a workload instance into the simulator's run spec.
pub fn to_run_spec(w: WorkloadInstance) -> RunSpec {
    RunSpec {
        program: w.program,
        sharing: w.sharing,
        memories: w.memories,
        threads: w.threads,
    }
}

/// Run one app at one configuration level.
///
/// # Panics
///
/// Panics on simulator errors: the harness runs statically-known-good
/// workloads, so any failure is a bug worth a loud stop.
pub fn run_app(app: &App, threads: usize, level: MmtLevel, scale: u64) -> SimResult {
    run_app_with(app, threads, level, scale, |_| {})
}

/// Run one app with a configuration tweak (sweeps).
///
/// # Panics
///
/// Panics on simulator errors (see [`run_app`]).
pub fn run_app_with(
    app: &App,
    threads: usize,
    level: MmtLevel,
    scale: u64,
    tweak: impl FnOnce(&mut SimConfig),
) -> SimResult {
    let mut cfg = SimConfig::paper_with(threads, level);
    tweak(&mut cfg);
    let spec = to_run_spec(app.instance(threads, scale));
    Simulator::new(cfg, spec)
        .expect("valid config and spec")
        .run()
        .expect("workloads terminate")
}

/// Speedup of `test` over `base` by cycle count (same work on both
/// sides).
pub fn speedup(base: &SimStats, test: &SimStats) -> f64 {
    base.cycles as f64 / test.cycles.max(1) as f64
}

/// Geometric mean of a non-empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|x| x.max(1e-12).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// Parse `--key value` style arguments (tiny, dependency-free).
pub fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_workloads::app_by_name;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--threads", "4", "--sweep", "fhb"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "--threads").as_deref(), Some("4"));
        assert_eq!(arg_value(&args, "--sweep").as_deref(), Some("fhb"));
        assert_eq!(arg_value(&args, "--missing"), None);
    }

    #[test]
    fn smoke_run_and_speedup() {
        let app = app_by_name("swaptions").expect("known app");
        let base = run_app(&app, 2, MmtLevel::Base, SMOKE_SCALE);
        let fxr = run_app(&app, 2, MmtLevel::Fxr, SMOKE_SCALE);
        let s = speedup(&base.stats, &fxr.stats);
        assert!(s > 0.5 && s < 5.0, "speedup {s} out of sanity range");
        // Same architectural work either way.
        assert_eq!(base.final_regs, fxr.final_regs);
    }

    #[test]
    fn limit_run_is_heavily_merged() {
        let app = app_by_name("twolf").expect("known app");
        // The paper's Limit: identical instances on MMT-FXR hardware.
        let spec = to_run_spec(app.limit_instance(2, SMOKE_SCALE));
        let cfg = SimConfig::paper_with(2, MmtLevel::Fxr);
        let lim = Simulator::new(cfg, spec).unwrap().run().unwrap();
        let id = &lim.stats.identity;
        assert!(
            (id.execute_identical + id.execute_identical_regmerge) as f64 / id.total() as f64 > 0.7,
            "limit should merge almost everything: {id:?}"
        );
    }
}
