//! `value` (DESIGN.md §16): the thread-parametric value-flow analysis
//! and the static RST model against the golden's per-PC profile.
//! Violations: a merged dispatch at a never-merge PC, a split dispatch
//! at a guaranteed-merge PC, an exec-merge fraction outside its static
//! bracket, an LVIP miss on a provably value-identical load, a
//! divergent merged address at a provably address-identical access,
//! LVIP activity outside the prediction, and activity at an unreachable
//! PC. The aggregate guaranteed/ideal merge fractions are reported, not
//! gated: the static side weights PCs by loop depth, the dynamic side by
//! trip counts.

use super::{lvip_violations, sharing_label, status_cell, violations_of, Case, Golden, Verdict};
use mmt_analysis::{predict_lvip_with, Stack, ValueClass, ValueFlowAnalysis, ValueFlowOptions};

/// One case's comparison, as `results/BENCH_value.json` records it.
#[derive(Debug, Clone)]
pub(super) struct Row {
    app: String,
    threads: usize,
    sharing: String,
    identical_memories: bool,
    reachable_insts: usize,
    identical_results: usize,
    affine_results: usize,
    thread_dependent_results: usize,
    top_results: usize,
    never_merge_pcs: usize,
    guaranteed_merge_pcs: usize,
    identical_value_loads: usize,
    lvip_predictable: usize,
    lvip_value_identical: usize,
    guaranteed_merge_frac: f64,
    ideal_merge_frac: f64,
    merge_frac_measured: f64,
    savings_est: f64,
    checked_pcs: usize,
    exec_merged: u64,
    exec_split: u64,
    lvip_misses: u64,
    sim_cycles: u64,
    soundness_violations: Vec<String>,
}
mmt_obs::impl_to_json! {
    Row {
        app, threads, sharing, identical_memories, reachable_insts, identical_results,
        affine_results, thread_dependent_results, top_results, never_merge_pcs,
        guaranteed_merge_pcs, identical_value_loads, lvip_predictable, lvip_value_identical,
        guaranteed_merge_frac, ideal_merge_frac, merge_frac_measured, savings_est, checked_pcs,
        exec_merged, exec_split, lvip_misses, sim_cycles, soundness_violations
    }
}

struct Report {
    scale: u64,
    rows: Vec<Row>,
}
mmt_obs::impl_to_json! { Report { scale, rows } }

/// The value-flow options of `case`: identical memory images may only
/// be assumed when the workload really starts all threads from equal
/// memories.
fn options(case: &Case) -> ValueFlowOptions {
    let memories = &case.instance.memories;
    ValueFlowOptions {
        identical_memories: memories.windows(2).all(|p| p[0] == p[1]),
    }
}

/// Compare one case's value-flow claims with its golden's per-PC
/// profile.
pub(super) fn check(case: &Case, golden: &Golden, stack: &Stack<'_>) -> Row {
    let sharing = case.instance.sharing;
    let opts = options(case);
    let vf = ValueFlowAnalysis::from_stack(stack, sharing, opts);
    let lvip = predict_lvip_with(stack.program(), sharing, &vf);
    let result = &golden.result;

    let mut violations = Vec::new();
    let mut checked_pcs = 0usize;
    let (mut merged_total, mut split_total, mut misses_total) = (0u64, 0u64, 0u64);
    for (pc, c) in result.stats.pc_profile.iter().enumerate() {
        if !c.touched() {
            continue;
        }
        let pc = pc as u64;
        merged_total += c.exec_merged;
        split_total += c.exec_split;
        misses_total += c.lvip_misses;
        let Some(info) = vf.info_at(pc) else {
            violations.push(format!(
                "dynamic activity at statically unreachable pc {pc} \
                 ({} fetched, {} dispatched)",
                c.fetch_total(),
                c.exec_total()
            ));
            continue;
        };
        checked_pcs += 1;

        if info.never_merge && c.exec_merged > 0 {
            violations.push(format!(
                "{} merged dispatch(es) at never-merge pc {pc} (sources provably \
                 differ across threads)",
                c.exec_merged
            ));
        }
        if info.guaranteed_merge && c.exec_split > 0 {
            violations.push(format!(
                "{} split dispatch(es) at guaranteed-merge pc {pc} (sources all in \
                 the guaranteed RST shared-set)",
                c.exec_split
            ));
        }
        let parts = c.exec_merged + c.exec_split;
        if parts > 0 {
            let frac = c.exec_merged as f64 / parts as f64;
            if !info.bracket.contains(frac) {
                violations.push(format!(
                    "pc {pc}: measured exec-merge fraction {frac:.4} outside static \
                     bracket [{:.4}, {:.4}]",
                    info.bracket.lower, info.bracket.upper
                ));
            }
        }
        if info.result == Some(ValueClass::Identical) && c.lvip_misses > 0 {
            violations.push(format!(
                "pc {pc}: {} LVIP verification failure(s) on a provably \
                 value-identical load",
                c.lvip_misses
            ));
        }
        if info.addr == Some(ValueClass::Identical) && c.mem_addr_diverged > 0 {
            violations.push(format!(
                "pc {pc}: {} divergent-address merged macro-op(s) at a provably \
                 address-identical access",
                c.mem_addr_diverged
            ));
        }

        violations.extend(lvip_violations(pc, c, &lvip, "value-flow"));
    }

    let s = vf.summary();
    Row {
        app: case.app.name.to_string(),
        threads: case.threads,
        sharing: sharing_label(sharing),
        identical_memories: opts.identical_memories,
        reachable_insts: s.reachable_insts,
        identical_results: s.identical_results,
        affine_results: s.affine_results,
        thread_dependent_results: s.thread_dependent_results,
        top_results: s.top_results,
        never_merge_pcs: s.never_merge_pcs,
        guaranteed_merge_pcs: s.guaranteed_merge_pcs,
        identical_value_loads: s.identical_value_loads,
        lvip_predictable: lvip.loads.values().filter(|b| b.predictable).count(),
        lvip_value_identical: lvip.loads.values().filter(|b| b.value_identical).count(),
        guaranteed_merge_frac: s.guaranteed_merge_frac,
        ideal_merge_frac: s.ideal_merge_frac,
        merge_frac_measured: if merged_total + split_total > 0 {
            merged_total as f64 / (merged_total + split_total) as f64
        } else {
            0.0
        },
        savings_est: vf.savings_estimate(case.threads),
        checked_pcs,
        exec_merged: merged_total,
        exec_split: split_total,
        lvip_misses: misses_total,
        sim_cycles: result.stats.cycles,
        soundness_violations: violations,
    }
}

/// Print the table and hand the rows to the epilogue.
pub(super) fn finish(rows: impl Iterator<Item = Row>, scale: u64) -> Verdict {
    let rows: Vec<Row> = rows.collect();
    println!("## mmtvalue — static value flow / RST model vs. per-PC profile (scale {scale})\n");
    println!(
        "| app | t | mem | classes (id/aff/td/top) | never/guar | id loads | \
         guar..ideal frac | measured | savings est | soundness |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for r in &rows {
        println!(
            "| {} | {} | {} | {}/{}/{}/{} | {}/{} | {} | {:.3}..{:.3} | {:.3} | {:.3} | {} |",
            r.app,
            r.threads,
            r.sharing,
            r.identical_results,
            r.affine_results,
            r.thread_dependent_results,
            r.top_results,
            r.never_merge_pcs,
            r.guaranteed_merge_pcs,
            r.identical_value_loads,
            r.guaranteed_merge_frac,
            r.ideal_merge_frac,
            r.merge_frac_measured,
            r.savings_est,
            status_cell(&r.soundness_violations),
        );
    }
    println!();
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
    fn split_dispatch_at_a_guaranteed_merge_pc_is_a_violation() {
        let case = Case::new(&app_by_name("fft").unwrap(), 2, crate::SMOKE_SCALE);
        let mut golden = case.golden(true, false).unwrap();
        let stack = Stack::new(&case.instance.program);
        assert_eq!(
            check(&case, &golden, &stack).soundness_violations,
            Vec::<String>::new()
        );

        let vf = ValueFlowAnalysis::from_stack(&stack, case.instance.sharing, options(&case));
        let pc = vf
            .infos()
            .map(|i| i.pc)
            .find(|&pc| {
                vf.info_at(pc).unwrap().guaranteed_merge
                    && golden.result.stats.pc_profile[pc as usize].touched()
            })
            .expect("fft has an executed guaranteed-merge pc");
        golden.result.stats.pc_profile[pc as usize].exec_split += 1;
        let row = check(&case, &golden, &stack);
        assert!(
            row.soundness_violations
                .iter()
                .any(|v| v.contains(&format!("split dispatch(es) at guaranteed-merge pc {pc}"))),
            "{:?}",
            row.soundness_violations
        );
    }
}
