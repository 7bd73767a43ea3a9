//! Multi-execution scenario: run the `equake` stand-in as two processes
//! with slightly different inputs — the paper's "run the simulator
//! hundreds of times with different inputs" use case — and watch the
//! Load Values Identical Predictor sort the loads whose values match
//! across processes from those that differ.
//!
//! ```text
//! cargo run --release --example multi_execution
//! ```

// The bench harness is not a dependency of the facade crate; inline the
// tiny glue instead.
mod glue {
    use mmt::sim::RunSpec;
    use mmt::workloads::WorkloadInstance;

    pub fn to_run_spec(w: WorkloadInstance) -> RunSpec {
        RunSpec {
            program: w.program,
            sharing: w.sharing,
            memories: w.memories,
            threads: w.threads,
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = mmt::workloads::app_by_name("equake").expect("equake is in the suite");
    println!(
        "app {:12} ({}, multi-execution: each thread is a separate process)",
        app.name,
        app.suite.name()
    );

    for (label, threads, level) in [
        ("SMT baseline, 2 processes", 2, mmt::sim::MmtLevel::Base),
        ("MMT-FXR,      2 processes", 2, mmt::sim::MmtLevel::Fxr),
        ("SMT baseline, 4 processes", 4, mmt::sim::MmtLevel::Base),
        ("MMT-FXR,      4 processes", 4, mmt::sim::MmtLevel::Fxr),
    ] {
        let spec = glue::to_run_spec(app.instance(threads, 4));
        let cfg = mmt::sim::SimConfig::paper_with(threads, level);
        let r = mmt::sim::Simulator::new(cfg, spec)?.run()?;
        println!(
            "{label}: {:>8} cycles, LVIP {} lookups / {} mismatches, \
             {:>4.1}% executed merged",
            r.stats.cycles,
            r.stats.lvip_lookups,
            r.stats.lvip_mispredicts,
            (r.stats.identity.execute_identical + r.stats.identity.execute_identical_regmerge)
                as f64
                / r.stats.identity.total().max(1) as f64
                * 100.0,
        );
    }
    println!(
        "\nThe LVIP optimistically merges loads whose per-process values match\n\
         (the replicated input tables) and learns to split the ones that do not."
    );
    Ok(())
}
