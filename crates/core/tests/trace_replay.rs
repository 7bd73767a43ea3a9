//! Differential consistency for the mmt-obs event stream: replaying the
//! trace must reproduce the simulator's own aggregate counters exactly.
//!
//! `SimStats` counters and trace events are maintained by *different*
//! code at the same pipeline sites, so agreement is a real end-to-end
//! check: a missing, duplicated, or misclassified event anywhere in the
//! pipeline shows up as a counter mismatch on some workload. The grid is
//! every bundled app at 2 and 4 threads under MMT-FXR — divergent and
//! convergent control flow, shared and per-thread memory.

use mmt_obs::TraceConfig;
use mmt_sim::{MmtLevel, RunSpec, SimConfig, SimResult, Simulator};
use mmt_workloads::all_apps;

/// Test scale divisor (matches the bench crate's smoke scale).
const SCALE: u64 = 16;

/// Large enough that no smoke-scale run overflows the ring — replay
/// consistency requires the complete stream (`dropped == 0`).
const RING: usize = 1 << 22;

fn run_traced(app_name: &str, threads: usize) -> SimResult {
    let app = mmt_workloads::app_by_name(app_name).expect("known app");
    let w = app.instance(threads, SCALE);
    let mut cfg = SimConfig::paper_with(threads, MmtLevel::Fxr);
    cfg.record_pc_profile = true;
    cfg.trace = Some(TraceConfig {
        ring_capacity: RING,
        window: 4096,
    });
    let spec = RunSpec {
        program: w.program,
        sharing: w.sharing,
        memories: w.memories,
        threads: w.threads,
    };
    Simulator::new(cfg, spec)
        .expect("valid config and spec")
        .run()
        .expect("workload terminates")
}

#[test]
fn replayed_counters_match_simstats_on_every_app() {
    let mut failures = Vec::new();
    for app in all_apps() {
        for threads in [2usize, 4] {
            let r = run_traced(app.name, threads);
            let s = &r.stats;
            let trace = r.trace.as_ref().expect("tracing was enabled");
            if trace.dropped != 0 {
                failures.push(format!(
                    "{} @ {threads}: ring dropped {} events — grow RING",
                    app.name, trace.dropped
                ));
                continue;
            }
            let c = trace.replay_counters();
            let mut check = |what: &str, got: u64, want: u64| {
                if got != want {
                    failures.push(format!(
                        "{} @ {threads}: replayed {what} = {got}, SimStats says {want}",
                        app.name
                    ));
                }
            };
            check("fetch_merge", c.fetch_merge, s.fetch_modes.merge);
            check("fetch_detect", c.fetch_detect, s.fetch_modes.detect);
            check("fetch_catchup", c.fetch_catchup, s.fetch_modes.catchup);
            check("fetch_total", c.fetch_total(), s.fetch_modes.total());
            check("commits", c.commits, s.energy.commits);
            check("uops_dispatched", c.uops_dispatched, s.uops_dispatched);
            // The per-PC dispatch profile is a third, independent count
            // of the same uops.
            let profile = &s.pc_profile;
            check(
                "merged_uops vs pc_profile",
                c.merged_uops,
                profile.iter().map(|p| p.exec_merged).sum(),
            );
            check(
                "uops_dispatched vs pc_profile",
                c.uops_dispatched,
                profile.iter().map(|p| p.exec_total()).sum(),
            );
            check("remerges", c.remerges, s.remerges);
            check("divergences", c.divergences, s.divergences);
            for t in 0..threads {
                check(
                    &format!("retired[{t}]"),
                    c.retired[t],
                    s.retired_per_thread[t],
                );
            }
            // The live recorder folds with the same CounterSet::apply, so
            // the recorder's running totals must equal the offline replay.
            check("windowed cycles", trace.cycles, s.cycles);
        }
    }
    assert!(
        failures.is_empty(),
        "trace stream inconsistent with SimStats:\n{}",
        failures.join("\n")
    );
}

/// Tracing must not perturb timing or architected results: the same run
/// with and without the recorder attached produces identical stats and
/// registers.
#[test]
fn tracing_is_timing_invisible() {
    let app = mmt_workloads::app_by_name("equake").expect("known app");
    for threads in [2usize, 4] {
        let w = app.instance(threads, SCALE);
        let spec = RunSpec {
            program: w.program.clone(),
            sharing: w.sharing,
            memories: w.memories.clone(),
            threads: w.threads,
        };
        let plain = Simulator::new(
            SimConfig::paper_with(threads, MmtLevel::Fxr),
            RunSpec {
                program: w.program,
                sharing: w.sharing,
                memories: spec.memories.clone(),
                threads,
            },
        )
        .expect("valid config and spec")
        .run()
        .expect("terminates");
        let traced = run_traced("equake", threads);
        assert_eq!(plain.stats.cycles, traced.stats.cycles);
        assert_eq!(plain.stats.uops_dispatched, traced.stats.uops_dispatched);
        assert_eq!(plain.stats.remerges, traced.stats.remerges);
        assert_eq!(plain.final_regs, traced.final_regs);
        assert!(plain.trace.is_none());
    }
}
