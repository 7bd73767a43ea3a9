//! Cross-crate integration tests: the full stack from workload
//! generation through profiling and cycle-level simulation, at smoke
//! scale.

use mmt::isa::MemSharing;
use mmt::profile::{collect_trace, profile_pair};
use mmt::sim::{MmtLevel, RunSpec, SimConfig, Simulator};
use mmt::workloads::{all_apps, app_by_name, WorkloadInstance};

const SMOKE: u64 = 16;

fn to_spec(w: WorkloadInstance) -> RunSpec {
    RunSpec {
        program: w.program,
        sharing: w.sharing,
        memories: w.memories,
        threads: w.threads,
    }
}

fn run(app: &mmt::workloads::App, threads: usize, level: MmtLevel) -> mmt::sim::SimResult {
    Simulator::new(
        SimConfig::paper_with(threads, level),
        to_spec(app.instance(threads, SMOKE)),
    )
    .expect("valid spec")
    .run()
    .expect("terminates")
}

#[test]
fn every_app_runs_on_every_level_with_identical_results() {
    for app in all_apps() {
        let mut reference: Option<Vec<[u64; 32]>> = None;
        for level in MmtLevel::ALL {
            let r = run(&app, 2, level);
            assert!(r.stats.cycles > 0, "{} {}", app.name, level);
            match &reference {
                None => reference = Some(r.final_regs),
                Some(regs) => assert_eq!(
                    &r.final_regs, regs,
                    "{}: MMT must be architecturally invisible at {level}",
                    app.name
                ),
            }
        }
    }
}

#[test]
fn four_thread_runs_complete_and_merge() {
    for name in ["ammp", "water-ns", "lu"] {
        let app = app_by_name(name).expect("known app");
        let r = run(&app, 4, MmtLevel::Fxr);
        let (m, _, _) = r.stats.fetch_modes.fractions();
        assert!(m > 0.5, "{name}: expected mostly-merged fetch, got {m:.2}");
        assert_eq!(r.stats.retired_per_thread.len(), 4);
        for t in 0..4 {
            assert!(r.stats.retired_per_thread[t] > 1_000, "{name} thread {t}");
        }
    }
}

#[test]
fn profiler_and_simulator_agree_on_sharing_direction() {
    // Apps the profiler ranks higher in execute-identical content should
    // (weakly) see more merged execution in the simulator. Check the two
    // extremes rather than a full ranking.
    let high = app_by_name("ammp").expect("known app");
    let low = app_by_name("lu").expect("known app");

    let sim_merged_fraction = |app: &mmt::workloads::App| {
        let r = run(app, 2, MmtLevel::Fxr);
        let id = &r.stats.identity;
        (id.execute_identical + id.execute_identical_regmerge) as f64 / id.total().max(1) as f64
    };
    let profiled_exe = |app: &mmt::workloads::App| {
        let w = app.instance(2, SMOKE);
        let mut mems = w.memories.clone();
        let mut traces = Vec::new();
        for t in 0..2 {
            let mem = match w.sharing {
                MemSharing::Shared => &mut mems[0],
                MemSharing::PerThread => &mut mems[t],
            };
            traces.push(collect_trace(&w.program, mem, t, 5_000_000).expect("no faults"));
        }
        profile_pair(&traces[0], &traces[1]).fractions().0
    };

    assert!(profiled_exe(&high) > profiled_exe(&low) + 0.2);
    assert!(
        sim_merged_fraction(&high) > sim_merged_fraction(&low),
        "simulator should find more merging where the profiler does"
    );
}

#[test]
fn energy_model_tracks_work_reduction() {
    let model = mmt::energy::EnergyModel::default();
    let app = app_by_name("swaptions").expect("known app");
    let base = run(&app, 2, MmtLevel::Base);
    let fxr = run(&app, 2, MmtLevel::Fxr);
    let e_base = model.energy(&base.stats.energy);
    let e_fxr = model.energy(&fxr.stats.energy);
    assert!(
        e_fxr.total() < e_base.total(),
        "merged execution must save energy: {} vs {}",
        e_fxr.total(),
        e_base.total()
    );
    // The paper's <2% overhead claim.
    assert!(e_fxr.overhead_fraction() < 0.02);
    assert_eq!(e_base.overhead, 0.0, "Base has no MMT hardware active");
}

#[test]
fn limit_configuration_dominates() {
    // Limit (identical inputs on MMT-FXR) is the paper's upper bound; it
    // should merge more than the real workload does.
    let app = app_by_name("twolf").expect("known app");
    let real = run(&app, 2, MmtLevel::Fxr);
    let limit = Simulator::new(
        SimConfig::paper_with(2, MmtLevel::Fxr),
        to_spec(app.limit_instance(2, SMOKE)),
    )
    .expect("valid spec")
    .run()
    .expect("terminates");
    let merged = |r: &mmt::sim::SimResult| {
        let id = &r.stats.identity;
        (id.execute_identical + id.execute_identical_regmerge) as f64 / id.total().max(1) as f64
    };
    assert!(merged(&limit) > merged(&real));
    assert!(merged(&limit) > 0.7, "limit should merge almost everything");
}

#[test]
fn determinism_across_the_whole_stack() {
    let app = app_by_name("vortex").expect("known app");
    let a = run(&app, 2, MmtLevel::Fxr);
    let b = run(&app, 2, MmtLevel::Fxr);
    assert_eq!(a.stats.cycles, b.stats.cycles);
    assert_eq!(a.stats.identity, b.stats.identity);
    assert_eq!(a.final_regs, b.final_regs);
}

/// The optimized test profile must keep the checks on: the simulator's
/// `debug_assert!` invariants and integer overflow panics run under
/// `cargo test`.
#[test]
#[allow(clippy::assertions_on_constants)] // the build profile sets it
fn tests_build_with_debug_assertions_and_overflow_checks() {
    assert!(cfg!(debug_assertions), "debug assertions are off");
    let overflowed = std::panic::catch_unwind(|| std::hint::black_box(u8::MAX) + 1);
    assert!(overflowed.is_err(), "overflow checks are off");
}
