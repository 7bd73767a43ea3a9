//! Figure 1 (+ Table 1): per-application breakdown of instruction
//! sharing — execute-identical, fetch-identical, and not-identical
//! fractions measured by trace alignment of a two-thread run.
//!
//! Paper headline (Section 3.2): ~88% of instructions fetch-identical on
//! average, ~35% execute-identical.
//!
//! ```text
//! cargo run --release -p mmt-bench --bin fig1_redundancy
//! ```

use mmt_bench::cli::scale_arg;
use mmt_isa::MemSharing;
use mmt_profile::{collect_trace, profile_pair};
use mmt_workloads::all_apps;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = scale_arg(&args, 1, false);

    println!("Figure 1: instruction sharing breakdown (2 threads)");
    println!(
        "{:<14} {:>9} {:>8} {:>9} {:>8}",
        "app", "suite", "exe-id%", "fetch-id%", "not-id%"
    );
    let (mut exe_sum, mut fid_sum) = (0.0, 0.0);
    let apps = all_apps();
    for app in &apps {
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
        let (e, f, n) = p.fractions();
        exe_sum += e;
        fid_sum += e + f;
        println!(
            "{:<14} {:>9} {:>8.1} {:>9.1} {:>8.1}",
            app.name,
            app.suite.name(),
            e * 100.0,
            (e + f) * 100.0,
            n * 100.0
        );
    }
    let n = apps.len() as f64;
    println!(
        "{:<14} {:>9} {:>8.1} {:>9.1}",
        "average",
        "",
        exe_sum / n * 100.0,
        fid_sum / n * 100.0
    );
    println!("\n(paper: ~35% execute-identical, ~88% fetch-identical on average)");
}
