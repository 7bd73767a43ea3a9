//! `mmtpredict` — differential validation of the static savings
//! predictor against the simulator's per-PC dynamic profile.
//!
//! For every selected workload and thread count the tool runs the static
//! stack (`mmt_analysis::predict` + the redundancy [`Oracle`]) and one
//! dynamic simulation with `record_merge_log` and `record_pc_profile`
//! enabled, then compares the two sides per static PC:
//!
//! * **Soundness** (gating, exit 1): a merge-log replay failure
//!   ([`Oracle::check`]), any merged dispatch at a must-split PC, any
//!   dynamic activity at a statically unreachable PC, or a measured
//!   merge-mode fetch fraction outside the predictor's guaranteed
//!   `[lower, upper]` bracket. Any of these means the static analysis
//!   or the pipeline is wrong.
//! * **Coverage** (reported, not gating): must-merge PCs the pipeline
//!   failed to merge — split dispatches of guaranteed-mergeable work, or
//!   must-merge PCs never fetched in MERGE mode. These are missed
//!   performance, not bugs; they show up in the summary as perf lints.
//!
//! ```text
//! mmtpredict --all-workloads
//! mmtpredict --apps swaptions --threads 2,4 --scale 16
//! ```
//!
//! Flags are the unified gate set ([`mmt_bench::gate`]):
//! `--all-workloads`, `--apps LIST` (alias `--app`), `--threads LIST`,
//! `--scale N`, `--jobs N`, `--format text|json`.
//!
//! Output is a GitHub-flavoured markdown table (suitable for a CI job
//! summary) and `results/BENCH_predict.json`. Exit status: 0 clean,
//! 1 soundness/bracket violations, 2 usage errors.

use mmt_analysis::{predict, MergeClass, Oracle, Prediction};
use mmt_bench::cli::fail_run;
use mmt_bench::gate::{finish_gate, status_cell, GateRow, GateSpec};
use mmt_bench::to_run_spec;
use mmt_sim::{MmtLevel, SimConfig, Simulator};
use mmt_workloads::App;

#[derive(Debug, Clone)]
struct PredictRow {
    app: String,
    threads: usize,
    reachable_insts: usize,
    must_merge: usize,
    may_merge: usize,
    must_split: usize,
    divergent_branches: usize,
    functions: usize,
    loops: usize,
    merge_frac_lower: f64,
    merge_frac_est: f64,
    merge_frac_upper: f64,
    merge_frac_measured: f64,
    bracket_ok: bool,
    expected_split_degree: f64,
    savings_lower: f64,
    savings_est: f64,
    savings_upper: f64,
    merge_events: usize,
    sim_cycles: u64,
    soundness_violations: Vec<String>,
    coverage_gap_split_pcs: usize,
    coverage_gap_unmerged_pcs: usize,
}
mmt_obs::impl_to_json! {
    PredictRow {
        app, threads, reachable_insts, must_merge, may_merge, must_split, divergent_branches,
        functions, loops, merge_frac_lower, merge_frac_est, merge_frac_upper, merge_frac_measured,
        bracket_ok, expected_split_degree, savings_lower, savings_est, savings_upper, merge_events,
        sim_cycles, soundness_violations, coverage_gap_split_pcs, coverage_gap_unmerged_pcs
    }
}

impl GateRow for PredictRow {
    fn app(&self) -> &str {
        &self.app
    }
    fn threads(&self) -> usize {
        self.threads
    }
    fn violations(&self) -> &[String] {
        &self.soundness_violations
    }
    fn sim_cycles(&self) -> u64 {
        self.sim_cycles
    }
}

#[derive(Debug, Clone)]
struct PredictReport {
    scale: u64,
    rows: Vec<PredictRow>,
}
mmt_obs::impl_to_json! { PredictReport { scale, rows } }

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // Only failures are emitted as JSON objects; the success output
    // stays the markdown table CI renders.
    let spec = GateSpec::from_args(&args);
    let started = std::time::Instant::now();
    let rows = spec.run_cases(|app, threads| validate_case(app, threads, spec.scale));

    println!(
        "## mmtpredict — static prediction vs. dynamic profile (scale {})\n",
        spec.scale
    );
    println!(
        "| app | t | classes (must/may/split) | div br | merge frac lower/est/upper | measured | \
         split deg | savings est | gaps (split/unmerged) | soundness |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut gap_pcs = 0usize;
    for r in &rows {
        gap_pcs += r.coverage_gap_split_pcs + r.coverage_gap_unmerged_pcs;
        println!(
            "| {} | {} | {}/{}/{} | {} | {:.3}/{:.3}/{:.3} | {:.3} | {:.2} | {:.3} | {}/{} | {} |",
            r.app,
            r.threads,
            r.must_merge,
            r.may_merge,
            r.must_split,
            r.divergent_branches,
            r.merge_frac_lower,
            r.merge_frac_est,
            r.merge_frac_upper,
            r.merge_frac_measured,
            r.expected_split_degree,
            r.savings_est,
            r.coverage_gap_split_pcs,
            r.coverage_gap_unmerged_pcs,
            status_cell(&r.soundness_violations),
        );
    }
    println!();
    if gap_pcs > 0 {
        println!(
            "perf lint: {gap_pcs} must-merge PC(s) the pipeline failed to merge \
             (missed redundancy, not a correctness issue)"
        );
    }

    let report = PredictReport {
        scale: spec.scale,
        rows,
    };
    finish_gate(
        "mmtpredict",
        "predict",
        &spec,
        started,
        &report,
        &report.rows,
    );
}

/// Static-vs-dynamic comparison for one (app, threads) case.
fn validate_case(app: &App, threads: usize, scale: u64) -> PredictRow {
    let w = app.instance(threads, scale);
    let program = w.program.clone();
    let sharing = w.sharing;
    let oracle = Oracle::new(&program, sharing);
    let pred: Prediction = predict(&program, sharing, threads);

    let mut cfg = SimConfig::paper_with(threads, MmtLevel::Fxr);
    cfg.record_merge_log = true;
    cfg.record_pc_profile = true;
    let result = Simulator::new(cfg, to_run_spec(w))
        .unwrap_or_else(|e| fail_run(false, format!("{}: invalid config/spec: {e}", app.name)))
        .run()
        .unwrap_or_else(|e| fail_run(false, format!("{}: {e}", app.name)));

    let mut violations = Vec::new();
    match oracle.check(&result.merge_log) {
        Ok(_) => {}
        Err(e) => violations.push(format!("merge-log replay: {e}")),
    }

    let mut gap_split = 0usize;
    let mut gap_unmerged = 0usize;
    for (pc, c) in result.stats.pc_profile.iter().enumerate() {
        if !c.touched() {
            continue;
        }
        match oracle.class_of(pc as u64) {
            None => violations.push(format!(
                "dynamic activity at statically unreachable pc {pc} \
                 ({} fetched, {} dispatched)",
                c.fetch_total(),
                c.exec_total()
            )),
            Some(MergeClass::MustSplit) if c.exec_merged > 0 => violations.push(format!(
                "{} merged dispatch(es) at must-split pc {pc}",
                c.exec_merged
            )),
            Some(MergeClass::MustMerge) => {
                // Coverage, not soundness: the pipeline is allowed to
                // split guaranteed-mergeable work (RST conservatism,
                // port-limited register merging) — it just loses the
                // redundancy the paper is after.
                if c.exec_split > 0 {
                    gap_split += 1;
                } else if c.exec_merged == 0 && c.exec_total() > 0 {
                    gap_unmerged += 1;
                }
            }
            Some(_) => {}
        }
    }

    let measured = result.stats.fetch_modes.fractions().0;
    let bracket_ok = pred.brackets(measured);
    if !bracket_ok {
        violations.push(format!(
            "measured merge fetch fraction {measured:.4} outside guaranteed bounds \
             [{:.4}, {:.4}]",
            pred.merge_frac_lower, pred.merge_frac_upper
        ));
    }

    PredictRow {
        app: app.name.to_string(),
        threads,
        reachable_insts: pred.reachable_insts,
        must_merge: pred.must_merge,
        may_merge: pred.may_merge,
        must_split: pred.must_split,
        divergent_branches: pred.divergent_branches,
        functions: pred.functions,
        loops: pred.loops,
        merge_frac_lower: pred.merge_frac_lower,
        merge_frac_est: pred.merge_frac_est,
        merge_frac_upper: pred.merge_frac_upper,
        merge_frac_measured: measured,
        bracket_ok,
        expected_split_degree: pred.expected_split_degree,
        savings_lower: pred.savings_lower,
        savings_est: pred.savings_est,
        savings_upper: pred.savings_upper,
        merge_events: result.merge_log.len(),
        sim_cycles: result.stats.cycles,
        soundness_violations: violations,
        coverage_gap_split_pcs: gap_split,
        coverage_gap_unmerged_pcs: gap_unmerged,
    }
}
