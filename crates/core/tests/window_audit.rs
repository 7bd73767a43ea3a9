//! End-of-run audit of the windowed metrics series (DESIGN.md §17):
//! for a run whose length is not a multiple of the window width, every
//! interior window must end on an exact boundary and cover exactly one
//! width, the final partial window must end at `stats.cycles` and cover
//! the remainder, and the per-window deltas must sum back to the
//! full-run totals — no cycle or retired instruction double-counted or
//! dropped at the seam.

use mmt_sim::{MmtLevel, RunSpec, SimConfig, Simulator, TraceConfig};
use mmt_workloads::app_by_name;

/// A prime window width: guarantees `cycles % window != 0` for any
/// realistic run length, so the final window is genuinely partial.
const WINDOW: u64 = 997;

fn run_traced(app_name: &str, threads: usize) -> mmt_sim::SimResult {
    let app = app_by_name(app_name).expect("known app");
    let w = app.instance(threads, 16);
    let mut cfg = SimConfig::paper_with(threads, MmtLevel::Fxr);
    cfg.trace = Some(TraceConfig {
        window: WINDOW,
        ..TraceConfig::default()
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
fn window_series_tiles_the_run_exactly() {
    for (app, threads) in [("fft", 2), ("ammp", 4)] {
        let result = run_traced(app, threads);
        let trace = result.trace.as_ref().expect("tracing was enabled");
        let cycles = result.stats.cycles;
        assert_eq!(trace.cycles, cycles, "{app}: trace must record run length");
        assert!(
            !cycles.is_multiple_of(WINDOW),
            "{app}: pick a different prime, run length {cycles} hides the partial window"
        );

        let windows = &trace.windows;
        assert!(!windows.is_empty(), "{app}: no windows recorded");
        let mut prev_end = 0u64;
        for (i, w) in windows.iter().enumerate() {
            let last = i == windows.len() - 1;
            assert_eq!(
                w.cycles,
                w.end_cycle - prev_end,
                "{app}: window {i} delta disagrees with its boundaries"
            );
            if last {
                assert_eq!(
                    w.end_cycle, cycles,
                    "{app}: final window must end at run end"
                );
                assert_eq!(
                    w.cycles,
                    cycles % WINDOW,
                    "{app}: final partial window must cover the remainder"
                );
            } else {
                assert!(
                    w.end_cycle.is_multiple_of(WINDOW),
                    "{app}: interior window {i} ends off-boundary at {}",
                    w.end_cycle
                );
                assert_eq!(w.cycles, WINDOW, "{app}: interior window {i} wrong width");
            }
            prev_end = w.end_cycle;
        }

        // The deltas must sum back to the full-run totals.
        assert_eq!(
            windows.iter().map(|w| w.cycles).sum::<u64>(),
            cycles,
            "{app}: window cycles do not tile the run"
        );
        for t in 0..threads {
            assert_eq!(
                windows.iter().map(|w| w.delta.retired[t]).sum::<u64>(),
                result.stats.retired_per_thread[t],
                "{app}: thread {t} retired instructions lost at a window seam"
            );
        }
        assert_eq!(
            windows.iter().map(|w| w.delta.uops_dispatched).sum::<u64>(),
            result.stats.uops_dispatched,
            "{app}: dispatched uops lost at a window seam"
        );
    }
}
