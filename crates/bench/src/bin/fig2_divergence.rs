//! Figure 2: per-application histogram of the *difference* in length of
//! divergent execution paths, measured in taken branches.
//!
//! Paper reading: for all programs except equake and vortex, more than
//! 85% of diverged paths differ by at most 16 taken branches.
//!
//! ```text
//! cargo run --release -p mmt-bench --bin fig2_divergence
//! ```

use mmt_bench::cli::scale_arg;
use mmt_isa::MemSharing;
use mmt_profile::{collect_trace, profile_pair, DIVERGENCE_BUCKETS};
use mmt_workloads::all_apps;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = scale_arg(&args, 1, false);

    println!("Figure 2: divergent path length differences (taken branches, 2 threads)");
    print!("{:<14} {:>6}", "app", "divs");
    for b in DIVERGENCE_BUCKETS {
        if b == u64::MAX {
            print!(" {:>6}", ">512");
        } else {
            print!(" {:>5}{}", "<=", b);
        }
    }
    println!();
    for app in all_apps() {
        let w = app.instance(2, scale);
        let mut mems = w.memories.clone();
        let mut traces = Vec::new();
        for t in 0..2 {
            let mem = match w.sharing {
                MemSharing::Shared => &mut mems[0],
                MemSharing::PerThread => &mut mems[t],
            };
            traces.push(collect_trace(&w.program, mem, t, 10_000_000).expect("no faults"));
        }
        let p = profile_pair(&traces[0], &traces[1]);
        let total: u64 = p.divergence_diff_histogram.iter().sum::<u64>().max(1);
        print!("{:<14} {:>6}", app.name, p.divergences);
        let mut cum = 0;
        for c in p.divergence_diff_histogram {
            cum += c;
            print!(" {:>6.1}", cum as f64 / total as f64 * 100.0);
        }
        println!();
    }
    println!("\n(cumulative %; paper: >=85% within 16 for all but equake and vortex)");
}
