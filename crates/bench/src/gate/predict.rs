//! `predict` (DESIGN.md §9): the static savings predictor and the
//! redundancy oracle against the golden's per-PC profile and merge log.
//! Soundness violations gate: a merge-log replay failure, a merged
//! dispatch at a must-split PC, activity at a statically unreachable
//! PC, or a merge-mode fetch fraction outside the guaranteed bracket.
//! Must-merge PCs the pipeline failed to merge are coverage gaps: missed
//! redundancy, reported as perf lints, not gated.

use super::{status_cell, violations_of, Case, Golden, Verdict};
use mmt_analysis::{predict_from_stack, MergeClass, Oracle, Stack};

/// One case's comparison, as `results/BENCH_predict.json` records it.
#[derive(Debug, Clone)]
pub(super) struct Row {
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
    Row {
        app, threads, reachable_insts, must_merge, may_merge, must_split, divergent_branches,
        functions, loops, merge_frac_lower, merge_frac_est, merge_frac_upper, merge_frac_measured,
        bracket_ok, expected_split_degree, savings_lower, savings_est, savings_upper, merge_events,
        sim_cycles, soundness_violations, coverage_gap_split_pcs, coverage_gap_unmerged_pcs
    }
}

struct Report {
    scale: u64,
    rows: Vec<Row>,
}
mmt_obs::impl_to_json! { Report { scale, rows } }

/// Compare one case's static prediction and oracle with its golden.
pub(super) fn check(case: &Case, golden: &Golden, stack: &Stack<'_>, oracle: &Oracle) -> Row {
    let pred = predict_from_stack(stack, case.instance.sharing, case.threads);
    let result = &golden.result;
    let mut violations = Vec::new();
    if let Err(e) = oracle.check(&result.merge_log) {
        violations.push(format!("merge-log replay: {e}"));
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

    Row {
        app: case.app.name.to_string(),
        threads: case.threads,
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

/// Print the table and hand the rows to the epilogue.
pub(super) fn finish(rows: impl Iterator<Item = Row>, scale: u64) -> Verdict {
    let rows: Vec<Row> = rows.collect();
    println!("## mmtpredict — static prediction vs. dynamic profile (scale {scale})\n");
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
    Verdict {
        violations: rows
            .iter()
            .flat_map(|r| violations_of(&r.app, r.threads, &r.soundness_violations))
            .collect(),
        sim_cycles: rows.iter().map(|r| r.sim_cycles).sum(),
        report: Box::new(Report { scale, rows }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_workloads::app_by_name;

    #[test]
    fn merged_dispatch_at_a_must_split_pc_is_a_violation() {
        let case = Case::new(&app_by_name("fft").unwrap(), 2, crate::SMOKE_SCALE);
        let mut golden = case.golden(true, true).unwrap();
        let stack = Stack::new(&case.instance.program);
        let oracle = Oracle::from_stack(&stack, case.instance.sharing);
        assert_eq!(
            check(&case, &golden, &stack, &oracle).soundness_violations,
            Vec::<String>::new()
        );

        // `tid` is must-split; claim the pipeline merged it.
        let pc = (0..case.instance.program.len() as u64)
            .find(|&pc| oracle.class_of(pc) == Some(MergeClass::MustSplit))
            .expect("fft reads its thread id");
        golden.result.stats.pc_profile[pc as usize].exec_merged += 1;
        let row = check(&case, &golden, &stack, &oracle);
        assert!(
            row.soundness_violations
                .iter()
                .any(|v| v.contains(&format!("merged dispatch(es) at must-split pc {pc}"))),
            "{:?}",
            row.soundness_violations
        );
    }
}
