//! `SimConfig::effective()` is sound: every field it resets at Base
//! leaves the simulation bit-identical. `mmtfigs` runs one
//! simulation per distinct effective config, so a field reset here that
//! Base actually reads would silently hand one figure another's numbers.

use mmt_obs::json::to_json;
use mmt_sim::{MmtLevel, RunSpec, SimConfig, Simulator};
use mmt_workloads::all_apps;

/// The bench crate's smoke-test iteration divisor.
const SMOKE_SCALE: u64 = 16;

#[test]
fn base_stats_ignore_every_field_effective_resets() {
    type Tweak = (&'static str, fn(&mut SimConfig));
    let tweaks: [Tweak; 5] = [
        ("fhb_entries=8", |c| c.fhb_entries = 8),
        ("fhb_entries=128", |c| c.fhb_entries = 128),
        ("lvip_entries=64", |c| c.lvip_entries = 64),
        ("merge_alignment_slack=16", |c| c.merge_alignment_slack = 16),
        ("merge_alignment_slack=4096", |c| {
            c.merge_alignment_slack = 4096
        }),
    ];
    let paper = SimConfig::paper_with(2, MmtLevel::Base);
    let apps = all_apps();
    std::thread::scope(|scope| {
        for app in &apps {
            let paper = &paper;
            scope.spawn(move || {
                let run = |cfg: SimConfig| {
                    let w = app.instance(2, SMOKE_SCALE);
                    let spec = RunSpec {
                        program: w.program,
                        sharing: w.sharing,
                        memories: w.memories,
                        threads: w.threads,
                    };
                    to_json(&Simulator::new(cfg, spec).unwrap().run().unwrap().stats)
                };
                let reference = run(paper.clone());
                for (name, tweak) in tweaks {
                    let mut cfg = paper.clone();
                    tweak(&mut cfg);
                    assert_eq!(&cfg.effective(), paper, "{name} is normalized at Base");
                    assert_eq!(
                        run(cfg),
                        reference,
                        "{}: Base stats moved with {name}",
                        app.name
                    );
                }
            });
        }
    });
}
