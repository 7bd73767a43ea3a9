//! Figure 6: energy consumption per job of SMT and MMT cores running two
//! and four threads, normalized to the SMT core with two threads, broken
//! into cache / MMT-overhead / other components.
//!
//! Paper reading: the MMT overhead is < 2% of total power even without
//! power gating; with four threads the MMT core consumes 50–90% of the
//! SMT core's energy (geometric mean ≈ 66%).
//!
//! ```text
//! cargo run --release -p mmt-bench --bin fig6_energy
//! ```

use mmt_bench::cli::scale_arg;
use mmt_bench::{geomean, run_app, FULL_SCALE};
use mmt_energy::EnergyModel;
use mmt_sim::MmtLevel;
use mmt_workloads::all_apps;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = scale_arg(&args, FULL_SCALE, false);
    let model = EnergyModel::default();

    println!("Figure 6: energy per job, normalized to SMT (2 threads)");
    println!(
        "{:<14} {:>7} {:>7} {:>7} {:>7}   {:>9} {:>9}",
        "app", "SMT-2", "MMT-2", "SMT-4", "MMT-4", "ovh-2 %", "ovh-4 %"
    );
    let mut ratios4 = Vec::new();
    for app in all_apps() {
        // Jobs per run: each process of a multi-execution workload is a
        // job, and each thread of a *replicated-sweep* multi-threaded
        // kernel performs the full sweep (more threads = more work), so
        // both normalize per thread; only block-partitioned kernels
        // split one problem across threads. This keeps 2- and 4-thread
        // runs comparable (the paper's Section 5 scaling rules).
        let jobs = |threads: usize| -> u64 {
            if app.spec.index_partitioned {
                1
            } else {
                threads as u64
            }
        };
        let energy = |threads: usize, level: MmtLevel| {
            let r = run_app(&app, threads, level, scale);
            let e = model.energy(&r.stats.energy);
            (e.total() / jobs(threads) as f64, e.overhead_fraction())
        };
        let (smt2, _) = energy(2, MmtLevel::Base);
        let (mmt2, ovh2) = energy(2, MmtLevel::Fxr);
        let (smt4, _) = energy(4, MmtLevel::Base);
        let (mmt4, ovh4) = energy(4, MmtLevel::Fxr);
        ratios4.push(mmt4 / smt4);
        println!(
            "{:<14} {:>7.3} {:>7.3} {:>7.3} {:>7.3}   {:>8.2}% {:>8.2}%",
            app.name,
            1.0,
            mmt2 / smt2,
            smt4 / smt2,
            mmt4 / smt2,
            ovh2 * 100.0,
            ovh4 * 100.0,
        );
    }
    println!(
        "\nMMT-4 / SMT-4 energy geomean: {:.3} (paper: ~0.66, range 0.50-0.90)",
        geomean(&ratios4)
    );
}
