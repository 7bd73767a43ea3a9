//! The throughput overhaul's steady-state guarantees: the uop arena is
//! bounded by the ROB (free-list reclamation), live-uop accounting is
//! sane, and the cycle loop performs no heap growth after warmup.

use mmt_sim::{MmtLevel, RunSpec, SimConfig, Simulator};
use mmt_workloads::app_by_name;

const SCALE: u64 = 16;
/// Cycles after which every per-cycle buffer must have reached its
/// steady-state capacity (the run below lasts tens of thousands).
const WARMUP_CYCLES: u64 = 2_000;

fn spec(app_name: &str, threads: usize) -> RunSpec {
    let app = app_by_name(app_name).expect("known app");
    let w = app.instance(threads, SCALE);
    RunSpec {
        program: w.program,
        sharing: w.sharing,
        memories: w.memories,
        threads: w.threads,
    }
}

/// fft at Table 4's caches, and mcf with L1D cut to 4 KiB and L2 to
/// 32 KiB, where most cycles are stalled on memory and take the
/// quiet-cycle fast path.
#[test]
fn uop_arena_is_bounded_by_rob_and_scratch_stops_growing() {
    for (app, membound) in [("fft", false), ("mcf", true)] {
        for threads in [2usize, 4] {
            arena_bounded_and_growth_stops(app, threads, membound);
        }
    }
}

fn arena_bounded_and_growth_stops(app: &str, threads: usize, membound: bool) {
    let mut cfg = SimConfig::paper_with(threads, MmtLevel::Fxr);
    if membound {
        cfg.hierarchy.l1d.size_bytes = 4 * 1024;
        cfg.hierarchy.l2.size_bytes = 32 * 1024;
    }
    let rob_size = cfg.rob_size;
    let rename_width = cfg.rename_width;
    let mut sim = Simulator::new(cfg, spec(app, threads)).expect("valid spec");

    let mut cycles = 0u64;
    while !sim.finished() && cycles < WARMUP_CYCLES {
        sim.step_cycle().expect("no fault");
        cycles += 1;
    }
    assert!(!sim.finished(), "workload too small to exercise warmup");
    let growth_after_warmup = sim.stats().scratch_growth_events;

    while !sim.finished() {
        sim.step_cycle().expect("no fault");
    }
    let result = sim.finish();

    // No heap growth in the steady-state cycle loop.
    assert_eq!(
        result.stats.scratch_growth_events, growth_after_warmup,
        "{app} @ {threads} threads: scratch buffers grew after warmup"
    );
    // The free-list bounds the arena by the ROB occupancy (plus the
    // rename-width transient of the dispatch group being built).
    assert!(
        result.stats.peak_uop_arena <= (rob_size + rename_width) as u64,
        "{app} @ {threads} threads: peak arena {} exceeds ROB {} + rename width {}",
        result.stats.peak_uop_arena,
        rob_size,
        rename_width
    );
    assert!(
        result.stats.peak_live_uops <= rob_size as u64,
        "{app} @ {threads} threads: peak live uops {} exceeds ROB size {rob_size}",
        result.stats.peak_live_uops
    );
    // The run actually dispatched far more uops than the arena holds
    // — i.e. slots really were recycled.
    assert!(
        result.stats.uops_dispatched > 4 * result.stats.peak_uop_arena,
        "{app} @ {threads} threads: dispatched {} vs arena {} — free-list not exercised",
        result.stats.uops_dispatched,
        result.stats.peak_uop_arena
    );
    assert!(result.stats.peak_live_uops > 0);
}

#[test]
fn preallocated_buffers_make_growth_zero_from_cycle_one() {
    // Stronger than the warmup assertion: construction pre-sizes every
    // persistent buffer, so growth events are zero for the entire run.
    let cfg = SimConfig::paper_with(4, MmtLevel::Fxr);
    let mut sim = Simulator::new(cfg, spec("ammp", 4)).expect("valid spec");
    while !sim.finished() {
        sim.step_cycle().expect("no fault");
    }
    assert_eq!(sim.stats().scratch_growth_events, 0);
}
