//! `mmtvalue` — differential validation of the thread-parametric
//! value-flow analysis and the static RST model against the simulator's
//! per-PC execution profile.
//!
//! For every selected workload and thread count the tool runs the static
//! value-flow stack ([`ValueFlowAnalysis`] + [`predict_lvip_with`]) and
//! one dynamic simulation with `record_pc_profile` enabled, then checks
//! the static claims per PC (any failure → exit 1):
//!
//! * **Never-merge**: a PC whose result is thread-dependent by
//!   definition (`tid`) or whose sources are provably unequal across
//!   threads (`AffineTid` with non-zero stride) must show zero merged
//!   dispatches — the RST can never legitimately mark its sources
//!   shared.
//! * **Guaranteed-merge**: a PC whose sources are all in the static
//!   guaranteed RST shared-set must show zero split dispatches — the
//!   splitter has no reason to break the group apart.
//! * **Bracket**: the measured per-PC exec-merge fraction
//!   `exec_merged / (exec_merged + exec_split)` must fall inside the
//!   static `[lower, upper]` bracket whenever the PC dispatched any
//!   multi-thread-fetched parts.
//! * **Value identity**: a load whose result is provably
//!   [`ValueClass::Identical`] must never fail LVIP value verification
//!   (`lvip_misses == 0`), and the measured per-PC LVIP hit rate must
//!   fall inside the value-flow-tightened bracket. Statically
//!   non-predictable loads must show zero LVIP lookups.
//! * **Address identity**: a PC whose address expression is
//!   [`ValueClass::Identical`] must never dispatch a merged memory
//!   macro-op with divergent addresses.
//! * **Reachability**: dynamic activity at a PC the static side
//!   considers unreachable is a contradiction worth failing on.
//!
//! The aggregate guaranteed/ideal merge fractions (the static
//! figure-5(b) "identified redundancy" model) are reported alongside the
//! measured aggregate for comparison but are *not* gated: the static
//! side weights PCs by loop depth, the dynamic side by actual trip
//! counts.
//!
//! ```text
//! mmtvalue --all-workloads
//! mmtvalue --apps swaptions --threads 2,4 --scale 16
//! ```
//!
//! Flags are the unified gate set ([`mmt_bench::gate`]):
//! `--all-workloads`, `--apps LIST` (alias `--app`), `--threads LIST`,
//! `--scale N`, `--jobs N`, `--format text|json`.
//!
//! Output is a GitHub-flavoured markdown table (suitable for a CI job
//! summary) and `results/BENCH_value.json`. Exit status: 0 clean,
//! 1 soundness violations, 2 usage errors.

use mmt_analysis::{predict_lvip_with, ValueClass, ValueFlowAnalysis, ValueFlowOptions};
use mmt_bench::cli::fail_run;
use mmt_bench::gate::{finish_gate, status_cell, GateRow, GateSpec};
use mmt_bench::to_run_spec;
use mmt_isa::MemSharing;
use mmt_sim::{MmtLevel, SimConfig, Simulator};
use mmt_workloads::App;

#[derive(Debug, Clone)]
struct ValueRow {
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
    ValueRow {
        app, threads, sharing, identical_memories, reachable_insts, identical_results,
        affine_results, thread_dependent_results, top_results, never_merge_pcs,
        guaranteed_merge_pcs, identical_value_loads, lvip_predictable, lvip_value_identical,
        guaranteed_merge_frac, ideal_merge_frac, merge_frac_measured, savings_est, checked_pcs,
        exec_merged, exec_split, lvip_misses, sim_cycles, soundness_violations
    }
}

impl GateRow for ValueRow {
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
struct ValueReport {
    scale: u64,
    rows: Vec<ValueRow>,
}
mmt_obs::impl_to_json! { ValueReport { scale, rows } }

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // Only failures are emitted as JSON objects; the success output
    // stays the markdown table CI renders.
    let spec = GateSpec::from_args(&args);
    let started = std::time::Instant::now();
    let rows = spec.run_cases(|app, threads| validate_case(app, threads, spec.scale));

    println!(
        "## mmtvalue — static value flow / RST model vs. per-PC profile (scale {})\n",
        spec.scale
    );
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

    let report = ValueReport {
        scale: spec.scale,
        rows,
    };
    finish_gate("mmtvalue", "value", &spec, started, &report, &report.rows);
}

/// Static-vs-dynamic value-flow comparison for one (app, threads) case.
fn validate_case(app: &App, threads: usize, scale: u64) -> ValueRow {
    let w = app.instance(threads, scale);
    let program = w.program.clone();
    let sharing = w.sharing;
    // The analysis may only assume identical memory images when the
    // workload actually starts all threads from equal memories.
    let identical_memories = w.memories.windows(2).all(|p| p[0] == p[1]);
    let opts = ValueFlowOptions { identical_memories };
    let vf = ValueFlowAnalysis::run(&program, sharing, opts);
    let lvip = predict_lvip_with(&program, sharing, opts);

    let mut cfg = SimConfig::paper_with(threads, MmtLevel::Fxr);
    cfg.record_pc_profile = true;
    let result = Simulator::new(cfg, to_run_spec(w))
        .unwrap_or_else(|e| fail_run(false, format!("{}: invalid config/spec: {e}", app.name)))
        .run()
        .unwrap_or_else(|e| fail_run(false, format!("{}: {e}", app.name)));

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
        let info = match vf.info_at(pc) {
            Some(info) => info,
            None => {
                violations.push(format!(
                    "dynamic activity at statically unreachable pc {pc} \
                     ({} fetched, {} dispatched)",
                    c.fetch_total(),
                    c.exec_total()
                ));
                continue;
            }
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

        if c.lvip_lookups > 0 || c.lvip_hits > 0 || c.lvip_misses > 0 {
            match lvip.at(pc) {
                None => violations.push(format!(
                    "pc {pc} consulted LVIP {} time(s) but the static side sees no \
                     load there",
                    c.lvip_lookups
                )),
                Some(b) if !b.predictable => violations.push(format!(
                    "pc {pc} consulted LVIP {} time(s) but is statically \
                     non-predictable",
                    c.lvip_lookups
                )),
                Some(b) => {
                    if c.lvip_hits + c.lvip_misses > c.lvip_lookups {
                        violations.push(format!(
                            "pc {pc}: {} hits + {} misses exceed {} lookups",
                            c.lvip_hits, c.lvip_misses, c.lvip_lookups
                        ));
                    }
                    let resolved = c.lvip_hits + c.lvip_misses;
                    if resolved > 0 {
                        let rate = c.lvip_hits as f64 / resolved as f64;
                        if !b.brackets(rate) {
                            violations.push(format!(
                                "pc {pc}: measured LVIP hit rate {rate:.4} outside \
                                 value-flow bracket [{:.4}, {:.4}]",
                                b.hit_lower, b.hit_upper
                            ));
                        }
                    }
                }
            }
        }
    }

    let s = vf.summary();
    ValueRow {
        app: app.name.to_string(),
        threads,
        sharing: match sharing {
            MemSharing::Shared => "mt".into(),
            MemSharing::PerThread => "me".into(),
        },
        identical_memories,
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
        savings_est: vf.savings_estimate(threads),
        checked_pcs,
        exec_merged: merged_total,
        exec_split: split_total,
        lvip_misses: misses_total,
        sim_cycles: result.stats.cycles,
        soundness_violations: violations,
    }
}
