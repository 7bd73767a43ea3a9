//! Bit-identity goldens for the sampled (two-speed) runner.
//!
//! Each digest is the FNV-1a of the `Debug` rendering of the whole
//! [`SampledEstimate`] — every window's instruction, cycle and merge-slot
//! counts plus the derived estimates — for `run_sampled` with the default
//! [`SampleConfig`] at the smoke scale. The grid mixes multi-threaded
//! (shared-memory) and multi-execution (per-thread-memory) apps, so a
//! handoff that mishandled either memory layout, the warmed hierarchy or
//! the RST/LVIP warm state would move a digest. Re-capture with
//! `MMT_PRINT_GOLDEN=1 cargo test -p mmt-bench --test sampled_goldens
//! -- --nocapture` only for an intended behavioral change.

use mmt_bench::sample::{run_sampled, SampleConfig};
use mmt_bench::{to_run_spec, SMOKE_SCALE};
use mmt_sim::snapshot::Fnv;
use mmt_sim::{MmtLevel, SimConfig};
use mmt_workloads::app_by_name;

/// `(app, threads, digest)`; ammp and mcf are multi-execution apps,
/// fft and canneal multi-threaded.
const GOLDENS: &[(&str, usize, u64)] = &[
    ("ammp", 2, 0x00747e80964c0fc8),
    ("ammp", 4, 0x539a4c677d651fdf),
    ("mcf", 2, 0x6ab519a9e20a4dda),
    ("mcf", 4, 0x050146eaf5207fdb),
    ("fft", 2, 0x380eaa68ae4931b4),
    ("fft", 4, 0x013f91a559ec3e82),
    ("canneal", 2, 0xe89fe81477f37c93),
    ("canneal", 4, 0x96eb4efd84319cf5),
];

fn digest(app: &str, threads: usize) -> u64 {
    let app = app_by_name(app).expect("known app");
    let cfg = SimConfig::paper_with(threads, MmtLevel::Fxr);
    let spec = to_run_spec(app.instance(threads, SMOKE_SCALE));
    let est = run_sampled(&cfg, &spec, &SampleConfig::default());
    let mut h = Fnv::new();
    h.put_bytes(format!("{est:?}").as_bytes());
    h.finish()
}

#[test]
fn sampled_estimates_bit_identical_to_goldens() {
    let print = std::env::var_os("MMT_PRINT_GOLDEN").is_some();
    let mut failures = Vec::new();
    for &(app, threads, want) in GOLDENS {
        let got = digest(app, threads);
        if print {
            println!("(\"{app}\", {threads}, {got:#018x}),");
        } else if got != want {
            failures.push(format!(
                "{app} @ {threads} threads: digest {got:#018x} != golden {want:#018x}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "sampled estimates drifted from the goldens:\n{}",
        failures.join("\n")
    );
}
