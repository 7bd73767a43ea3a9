//! `mmtfault` — seeded single-event-upset campaigns over the whole suite
//! (DESIGN.md §15).
//!
//! For every app × thread-count configuration the tool first records a
//! clean golden run (final architectural digest + cycle count), then
//! replays the workload under seeded injections: single-bit upsets into
//! RST entries, LVIP values, and architectural registers at a random
//! live cycle, plus bit flips into the serialized `ArchState` checkpoint
//! document. Every outcome is classified:
//!
//! | outcome | meaning |
//! |---|---|
//! | `detected-error`     | the simulator returned a typed error (watchdog, budget, exec) or panicked |
//! | `detected-invariant` | a periodic/final `Simulator::validate` audit failed |
//! | `detected-oracle`    | the run completed but the offline merge oracle rejected the merge log |
//! | `detected-digest`    | the run completed but the final architectural digest differs from golden (checkpoint flips: the loader rejected the document) |
//! | `masked`             | the upset provably had no architectural effect (digest identical / checkpoint loads byte-identical) |
//! | `silent`             | corruption that escaped every detector — **the campaign gate: must be zero** |
//!
//! ```text
//! mmtfault --scale 16 --faults-per-config 7 --seed 999
//! ```
//!
//! Flags are the unified gate set ([`mmt_bench::gate`]):
//! `--all-workloads`, `--apps LIST` (alias `--app`), `--threads LIST`,
//! `--scale N`, `--jobs N`, `--format text|json`, `--progress PATH` —
//! plus this tool's own campaign knobs:
//!
//! | flag | default | meaning |
//! |---|---|---|
//! | `--faults-per-config N` | `7`       | live injections per app × thread-count |
//! | `--ckpt-faults N`       | `2`       | checkpoint-byte flips per app × thread-count |
//! | `--seed N`              | `0xF4017` | campaign seed (deterministic outcomes) |
//! | `--trace-dir DIR`       | —         | dump mmt-obs trace files for non-masked injections (`FaultInjected`/`Watchdog` events mark where the upset landed and when it was caught) |
//!
//! Output: a markdown summary table, `results/BENCH_fault.json`, and an
//! appended `results/LEDGER.jsonl` record. Exit status: 0 when every
//! injection is detected or provably masked, 1 on any silent
//! corruption, 2 on usage errors.

use mmt_analysis::Oracle;
use mmt_bench::cli::{fail_run, fail_usage};
use mmt_bench::gate::{finish_gate, GateRow, GateSpec};
use mmt_bench::sweep::{trace_dir_arg, write_trace_files};
use mmt_bench::{arg_value, to_run_spec};
use mmt_sim::{flip_byte, CampaignRng, FaultTarget, MmtLevel, SimConfig, Simulator};
use mmt_workloads::App;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// How often (in cycles) injected runs re-run the invariant audit.
const VALIDATE_EVERY: u64 = 4096;

#[derive(Debug, Clone)]
struct FaultRecord {
    app: String,
    threads: usize,
    /// Which state the upset hit (`rst`, `lvip`, `arch-reg`, `checkpoint`).
    unit: String,
    /// Human-readable description of the exact bits flipped.
    target: String,
    /// Cycle the upset was applied at (0 for checkpoint-document flips).
    cycle: u64,
    outcome: String,
    /// The detector's message (empty for masked outcomes).
    message: String,
}
mmt_obs::impl_to_json! { FaultRecord { app, threads, unit, target, cycle, outcome, message } }

#[derive(Debug, Clone)]
struct FaultReport {
    figure: String,
    seed: u64,
    scale: u64,
    injections: usize,
    detected_error: usize,
    detected_invariant: usize,
    detected_oracle: usize,
    detected_digest: usize,
    masked: usize,
    silent: usize,
    records: Vec<FaultRecord>,
}
mmt_obs::impl_to_json! {
    FaultReport {
        figure, seed, scale, injections, detected_error, detected_invariant, detected_oracle,
        detected_digest, masked, silent, records
    }
}

/// One configuration's ledger/exit-policy view: silent corruptions are
/// the violations, the golden run's length is the cycle cost.
struct FaultCase {
    app: String,
    threads: usize,
    sim_cycles: u64,
    violations: Vec<String>,
}

impl GateRow for FaultCase {
    fn app(&self) -> &str {
        &self.app
    }
    fn threads(&self) -> usize {
        self.threads
    }
    fn violations(&self) -> &[String] {
        &self.violations
    }
    fn sim_cycles(&self) -> u64 {
        self.sim_cycles
    }
}

/// Clean-run reference for one configuration.
struct Golden {
    cycles: u64,
    digest: u64,
    final_regs: Vec<[u64; mmt_isa::reg::NUM_REGS]>,
    checkpoint_doc: String,
}

fn golden_run(app: &App, threads: usize, scale: u64) -> Golden {
    let cfg = SimConfig::paper_with(threads, MmtLevel::Fxr);
    let mut sim = Simulator::new(cfg, to_run_spec(app.instance(threads, scale)))
        .unwrap_or_else(|e| fail_run(false, format!("{}: invalid config/spec: {e}", app.name)));
    while !sim.finished() {
        sim.step_cycle()
            .unwrap_or_else(|e| fail_run(false, format!("{} golden run: {e}", app.name)));
    }
    let state = sim.arch_state();
    let result = sim.finish();
    Golden {
        cycles: result.stats.cycles,
        digest: state.digest(),
        final_regs: result.final_regs,
        checkpoint_doc: state.to_json(),
    }
}

/// Outcome of one injected run, before classification bookkeeping.
enum Outcome {
    DetectedError(String),
    DetectedInvariant(String),
    DetectedOracle(String),
    DetectedDigest(String),
    Masked,
    Silent(String),
}

impl Outcome {
    fn name(&self) -> &'static str {
        match self {
            Outcome::DetectedError(_) => "detected-error",
            Outcome::DetectedInvariant(_) => "detected-invariant",
            Outcome::DetectedOracle(_) => "detected-oracle",
            Outcome::DetectedDigest(_) => "detected-digest",
            Outcome::Masked => "masked",
            Outcome::Silent(_) => "silent",
        }
    }

    fn message(&self) -> &str {
        match self {
            Outcome::DetectedError(m)
            | Outcome::DetectedInvariant(m)
            | Outcome::DetectedOracle(m)
            | Outcome::DetectedDigest(m)
            | Outcome::Silent(m) => m,
            Outcome::Masked => "",
        }
    }
}

/// Run one live injection to completion and classify the outcome.
/// Returns the trace (when tracing was requested) alongside, so callers
/// can dump non-masked timelines.
fn injected_run(
    app: &App,
    threads: usize,
    scale: u64,
    golden: &Golden,
    cycle: u64,
    target: &FaultTarget,
    trace: bool,
) -> (Outcome, Option<mmt_sim::Trace>) {
    let mut cfg = SimConfig::paper_with(threads, MmtLevel::Fxr);
    // Route merge soundness to the offline oracle instead of the
    // in-line debug assertion, so an injected corruption reaches the
    // checker rather than aborting the campaign (see DESIGN.md §15).
    cfg.record_merge_log = true;
    // A corrupted simulator may hang or run away; the watchdogs turn
    // both into typed detections within a budget derived from golden.
    cfg.max_cycles = golden.cycles * 4 + 100_000;
    cfg.watchdog.livelock_window = (golden.cycles * 2).clamp(10_000, 1_000_000);
    if trace {
        cfg.trace = Some(mmt_sim::TraceConfig::default());
    }
    let w = app.instance(threads, scale);
    let program = w.program.clone();
    let sharing = w.sharing;

    let run = catch_unwind(AssertUnwindSafe(|| {
        let mut sim =
            Simulator::new(cfg, to_run_spec(w)).map_err(|e| format!("invalid config/spec: {e}"))?;
        while sim.now() < cycle && !sim.finished() {
            sim.step_cycle().map_err(|e| e.to_string())?;
        }
        sim.inject(target).map_err(|e| e.to_string())?;
        let mut next_audit = sim.now() + VALIDATE_EVERY;
        while !sim.finished() {
            sim.step_cycle().map_err(|e| e.to_string())?;
            if sim.now() >= next_audit {
                next_audit = sim.now() + VALIDATE_EVERY;
                if let Err(v) = sim.validate() {
                    return Ok((Err(v), None, sim.finish()));
                }
            }
        }
        let audit = sim.validate();
        let digest = sim.arch_state().digest();
        Ok::<_, String>((audit, Some(digest), sim.finish()))
    }));

    let (audit, digest, result) = match run {
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic with non-string payload".into());
            return (Outcome::DetectedError(format!("panic: {msg}")), None);
        }
        Ok(Err(e)) => return (Outcome::DetectedError(e), None),
        Ok(Ok(triple)) => triple,
    };
    let trace_out = result.trace.clone();
    if let Err(v) = audit {
        return (Outcome::DetectedInvariant(v), trace_out);
    }
    let Some(digest) = digest else {
        unreachable!("mid-run audit failures return above");
    };
    if let Err(e) = Oracle::new(&program, sharing).check(&result.merge_log) {
        return (Outcome::DetectedOracle(e), trace_out);
    }
    if digest != golden.digest || result.final_regs != golden.final_regs {
        return (
            Outcome::DetectedDigest(format!(
                "architectural digest {digest:#018x} != golden {:#018x}",
                golden.digest
            )),
            trace_out,
        );
    }
    (Outcome::Masked, trace_out)
}

/// Flip one bit of the serialized checkpoint document and classify what
/// the loader does with it: reject (detected), load the identical state
/// (masked — e.g. a semantically-neutral whitespace flip), or load a
/// *different* state (silent — the integrity digest failed).
fn checkpoint_fault(golden: &Golden, offset: usize, bit: u8) -> Outcome {
    use mmt_sim::snapshot::ArchState;
    let mut bytes = golden.checkpoint_doc.clone().into_bytes();
    if !flip_byte(&mut bytes, offset, bit) {
        return Outcome::DetectedError("flip offset out of range".into());
    }
    let Ok(text) = String::from_utf8(bytes) else {
        // The flip broke UTF-8; a file of these bytes never reaches the
        // parser (read_to_string rejects it with an I/O error).
        return Outcome::DetectedDigest("flip produced non-UTF-8; rejected at read".into());
    };
    match ArchState::from_json(&text) {
        Err(e) => Outcome::DetectedDigest(e),
        Ok(state) => {
            let original = ArchState::from_json(&golden.checkpoint_doc)
                .expect("golden checkpoint round-trips");
            if state == original {
                Outcome::Masked
            } else {
                Outcome::Silent(format!(
                    "bit {bit} at byte {offset} loaded as a different state without rejection"
                ))
            }
        }
    }
}

/// The whole campaign for one (app, threads) configuration. Returns
/// the records plus the golden run's cycle count (for the ledger).
fn run_config(
    app: &App,
    threads: usize,
    scale: u64,
    seed: u64,
    faults: usize,
    ckpt_faults: usize,
    trace_dir: Option<&std::path::Path>,
) -> (Vec<FaultRecord>, u64) {
    let golden = golden_run(app, threads, scale);
    let lvip_entries = SimConfig::paper_with(threads, MmtLevel::Fxr).lvip_entries;
    // One deterministic stream per configuration: reordering configs or
    // changing the pool size cannot change any draw.
    let mut rng = CampaignRng::new(
        seed ^ (app.name.bytes().fold(0u64, |h, b| {
            h.wrapping_mul(0x100).wrapping_add(u64::from(b))
        })) ^ ((threads as u64) << 56),
    );
    let mut records = Vec::with_capacity(faults + ckpt_faults);

    for k in 0..faults {
        let cycle = 1 + rng.below(golden.cycles.max(1));
        let target = FaultTarget::random_live(&mut rng, threads, lvip_entries);
        let (outcome, trace) = injected_run(
            app,
            threads,
            scale,
            &golden,
            cycle,
            &target,
            trace_dir.is_some(),
        );
        if let (Some(dir), Some(trace), false) = (
            trace_dir,
            trace.as_ref(),
            matches!(outcome, Outcome::Masked),
        ) {
            let label = format!("{}-{threads}t-f{k}", app.name);
            if let Err(e) = write_trace_files(dir, &label, trace) {
                eprintln!("warning: trace for {label} not written: {e}");
            }
        }
        records.push(FaultRecord {
            app: app.name.to_string(),
            threads,
            unit: target.unit_name().to_string(),
            target: target.describe(),
            cycle,
            outcome: outcome.name().to_string(),
            message: outcome.message().to_string(),
        });
    }

    for _ in 0..ckpt_faults {
        let offset = rng.below(golden.checkpoint_doc.len() as u64) as usize;
        let bit = rng.below(8) as u8;
        let outcome = checkpoint_fault(&golden, offset, bit);
        records.push(FaultRecord {
            app: app.name.to_string(),
            threads,
            unit: "checkpoint".to_string(),
            target: format!("flip bit {bit} of byte {offset}"),
            cycle: 0,
            outcome: outcome.name().to_string(),
            message: outcome.message().to_string(),
        });
    }
    (records, golden.cycles)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let spec = GateSpec::from_args(&args);
    let started = Instant::now();
    let scale = spec.scale;
    let faults: usize = arg_value(&args, "--faults-per-config")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail_usage(spec.json, "--faults-per-config takes a number"))
        })
        .unwrap_or(7);
    let ckpt_faults: usize = arg_value(&args, "--ckpt-faults")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail_usage(spec.json, "--ckpt-faults takes a number"))
        })
        .unwrap_or(2);
    let seed: u64 = arg_value(&args, "--seed")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail_usage(spec.json, "--seed takes a number"))
        })
        .unwrap_or(0xF4017);
    let trace_dir: Option<PathBuf> = trace_dir_arg(&args);

    println!(
        "## mmtfault — seeded injection campaign (seed {seed:#x}, scale {scale}, \
         {} live + {} checkpoint faults per config, {} configs)\n",
        faults,
        ckpt_faults,
        spec.cases().len()
    );

    let per_config = spec.run_cases(|app, threads| {
        run_config(
            app,
            threads,
            scale,
            seed,
            faults,
            ckpt_faults,
            trace_dir.as_deref(),
        )
    });
    let cases: Vec<FaultCase> = per_config
        .iter()
        .map(|(records, cycles)| FaultCase {
            app: records
                .first()
                .map(|r| r.app.clone())
                .unwrap_or_else(|| "none".into()),
            threads: records.first().map(|r| r.threads).unwrap_or(0),
            sim_cycles: *cycles,
            violations: records
                .iter()
                .filter(|r| r.outcome == "silent")
                .map(|r| {
                    format!(
                        "silent corruption: {} ({}): {}",
                        r.target, r.unit, r.message
                    )
                })
                .collect(),
        })
        .collect();
    let records: Vec<FaultRecord> = per_config.into_iter().flat_map(|(r, _)| r).collect();

    let count = |name: &str| records.iter().filter(|r| r.outcome == name).count();
    let report = FaultReport {
        figure: "fault".to_string(),
        seed,
        scale,
        injections: records.len(),
        detected_error: count("detected-error"),
        detected_invariant: count("detected-invariant"),
        detected_oracle: count("detected-oracle"),
        detected_digest: count("detected-digest"),
        masked: count("masked"),
        silent: count("silent"),
        records,
    };

    println!("| unit | injections | detected | masked | silent |");
    println!("|---|---|---|---|---|");
    for unit in ["rst", "lvip", "arch-reg", "checkpoint"] {
        let of_unit: Vec<_> = report.records.iter().filter(|r| r.unit == unit).collect();
        let masked = of_unit.iter().filter(|r| r.outcome == "masked").count();
        let silent = of_unit.iter().filter(|r| r.outcome == "silent").count();
        println!(
            "| {unit} | {} | {} | {masked} | {silent} |",
            of_unit.len(),
            of_unit.len() - masked - silent,
        );
    }
    println!(
        "\n{} injections: {} detected-error, {} detected-invariant, {} detected-oracle, \
         {} detected-digest, {} masked, {} silent",
        report.injections,
        report.detected_error,
        report.detected_invariant,
        report.detected_oracle,
        report.detected_digest,
        report.masked,
        report.silent
    );
    finish_gate("mmtfault", "fault", &spec, started, &report, &cases);
}
