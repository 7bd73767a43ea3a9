//! Golden smoke tests for the experiment pipelines (tiny-input versions
//! of the figure harnesses, DESIGN.md §8): the headline *shapes* of the
//! paper must hold even at smoke scale.

use mmt_bench::{geomean, run_app, run_app_with, speedup, SMOKE_SCALE};
use mmt_energy::EnergyModel;
use mmt_sim::MmtLevel;
use mmt_workloads::app_by_name;

/// A merge-friendly subset that keeps the smoke tests fast while still
/// spanning both workload kinds.
fn sample() -> Vec<mmt_workloads::App> {
    ["ammp", "water-ns", "swaptions", "twolf"]
        .iter()
        .map(|n| app_by_name(n).expect("known app"))
        .collect()
}

#[test]
fn figure5_shape_fxr_helps_where_sharing_is_high() {
    // The paper's strong apps must show FXR gains even at smoke scale;
    // the Limit configuration must dominate FXR everywhere.
    for app in sample() {
        let base = run_app(&app, 2, MmtLevel::Base, SMOKE_SCALE);
        let fxr = run_app(&app, 2, MmtLevel::Fxr, SMOKE_SCALE);
        let s = speedup(&base.stats, &fxr.stats);
        assert!(
            s > 0.85,
            "{}: FXR should not lose badly at smoke scale, got {s:.3}",
            app.name
        );
        let limit_at = |level| {
            let cfg = mmt_sim::SimConfig::paper_with(2, level);
            let spec = mmt_bench::to_run_spec(app.limit_instance(2, SMOKE_SCALE));
            mmt_sim::Simulator::new(cfg, spec).unwrap().run().unwrap()
        };
        let (limit_base, limit) = (limit_at(MmtLevel::Base), limit_at(MmtLevel::Fxr));
        assert!(
            speedup(&limit_base.stats, &limit.stats) >= s * 0.9,
            "{}: Limit should be at least comparable to FXR",
            app.name
        );
    }
}

#[test]
fn figure5_shape_four_threads_at_least_two() {
    // The paper's 4-thread gains exceed the 2-thread gains (geomean);
    // allow smoke-scale noise but require the direction over the sample.
    let mut s2 = Vec::new();
    let mut s4 = Vec::new();
    for app in sample() {
        let b2 = run_app(&app, 2, MmtLevel::Base, SMOKE_SCALE);
        let f2 = run_app(&app, 2, MmtLevel::Fxr, SMOKE_SCALE);
        s2.push(speedup(&b2.stats, &f2.stats));
        let b4 = run_app(&app, 4, MmtLevel::Base, SMOKE_SCALE);
        let f4 = run_app(&app, 4, MmtLevel::Fxr, SMOKE_SCALE);
        s4.push(speedup(&b4.stats, &f4.stats));
    }
    assert!(
        geomean(&s4) > geomean(&s2) * 0.92,
        "4T geomean {:.3} should not trail 2T geomean {:.3} badly",
        geomean(&s4),
        geomean(&s2)
    );
}

#[test]
fn figure6_shape_energy_and_overhead() {
    let model = EnergyModel::default();
    for app in sample() {
        let base = run_app(&app, 2, MmtLevel::Base, SMOKE_SCALE);
        let fxr = run_app(&app, 2, MmtLevel::Fxr, SMOKE_SCALE);
        let eb = model.energy(&base.stats.energy);
        let ef = model.energy(&fxr.stats.energy);
        assert!(
            ef.total() < eb.total() * 1.1,
            "{}: MMT energy should not balloon",
            app.name
        );
        assert!(
            ef.overhead_fraction() < 0.025,
            "{}: overhead {:.3}",
            app.name,
            ef.overhead_fraction()
        );
    }
}

#[test]
fn figure7d_shape_narrow_fetch_amplifies_mmt() {
    // At fetch width 4 the front end is the bottleneck and MMT's shared
    // fetch shines; the advantage shrinks by width 16.
    let app = app_by_name("water-ns").expect("known app");
    let at_width = |w: usize| {
        let base = run_app_with(&app, 2, MmtLevel::Base, SMOKE_SCALE, |c| c.fetch_width = w);
        let fxr = run_app_with(&app, 2, MmtLevel::Fxr, SMOKE_SCALE, |c| c.fetch_width = w);
        speedup(&base.stats, &fxr.stats)
    };
    let narrow = at_width(4);
    let wide = at_width(16);
    assert!(
        narrow > wide,
        "narrow-fetch advantage {narrow:.3} should exceed wide-fetch {wide:.3}"
    );
}

#[test]
fn input_variation_keeps_speedup_direction() {
    // Different multi-execution input sets (the paper's batch scenario)
    // should not flip the qualitative outcome.
    let app = app_by_name("ammp").expect("known app");
    for input in 0..3u64 {
        let w_base = app.instance_with_input(2, SMOKE_SCALE, input);
        let w_fxr = app.instance_with_input(2, SMOKE_SCALE, input);
        let base = mmt_sim::Simulator::new(
            mmt_sim::SimConfig::paper_with(2, MmtLevel::Base),
            mmt_bench::to_run_spec(w_base),
        )
        .unwrap()
        .run()
        .unwrap();
        let fxr = mmt_sim::Simulator::new(
            mmt_sim::SimConfig::paper_with(2, MmtLevel::Fxr),
            mmt_bench::to_run_spec(w_fxr),
        )
        .unwrap()
        .run()
        .unwrap();
        let s = speedup(&base.stats, &fxr.stats);
        assert!(s > 0.9, "input {input}: ammp FXR speedup {s:.3}");
    }
}

#[test]
fn profiler_pipeline_smoke() {
    // The Figure 1 pipeline end to end on one app.
    use mmt_isa::MemSharing;
    use mmt_profile::{collect_trace, profile_pair};
    let app = app_by_name("equake").expect("known app");
    let w = app.instance(2, SMOKE_SCALE);
    let mut mems = w.memories.clone();
    let mut traces = Vec::new();
    for t in 0..2 {
        let mem = match w.sharing {
            MemSharing::Shared => &mut mems[0],
            MemSharing::PerThread => &mut mems[t],
        };
        traces.push(collect_trace(&w.program, mem, t, 2_000_000).unwrap());
    }
    let p = profile_pair(&traces[0], &traces[1]);
    let (e, f, n) = p.fractions();
    assert!(e > 0.3, "equake is execute-identical-rich, got {e:.2}");
    assert!(((e + f + n) - 1.0).abs() < 1e-9);
}
