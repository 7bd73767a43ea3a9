//! `fault` (DESIGN.md §15): seeded single-event upsets into RST
//! entries, LVIP slots and architectural registers at a random live
//! cycle, plus bit flips in the golden's checkpoint document. Each
//! outcome is `detected-{error,invariant,oracle,digest}`, `masked`, or
//! `silent` — corruption that escaped every detector, the one
//! violation.

use super::{Case, Golden, Verdict};
use crate::sweep::write_trace_files;
use mmt_analysis::Oracle;
use mmt_sim::snapshot::ArchState;
use mmt_sim::{flip_byte, CampaignRng, FaultTarget, MmtLevel, SimConfig, Simulator};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// Live injections per case.
const FAULTS: usize = 7;
/// Checkpoint-byte flips per case.
const CKPT_FAULTS: usize = 2;
/// Campaign seed: outcomes are deterministic.
const SEED: u64 = 0xF4017;
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
struct Report {
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
    Report {
        figure, seed, scale, injections, detected_error, detected_invariant, detected_oracle,
        detected_digest, masked, silent, records
    }
}

/// One case's campaign.
pub(super) struct Row {
    records: Vec<FaultRecord>,
    /// The golden's cycles: the campaign's ledger cost.
    golden_cycles: u64,
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
    case: &Case,
    golden: &Golden,
    oracle: &Oracle,
    cycle: u64,
    target: &FaultTarget,
    trace: bool,
) -> (Outcome, Option<mmt_sim::Trace>) {
    let mut cfg = SimConfig::paper_with(case.threads, MmtLevel::Fxr);
    // Route merge soundness to the offline oracle instead of the
    // in-line debug assertion, so an injected corruption reaches the
    // checker rather than aborting the campaign (see DESIGN.md §15).
    cfg.record_merge_log = true;
    // A corrupted simulator may hang or run away; the watchdogs turn
    // both into typed detections within a budget derived from golden.
    let golden_cycles = golden.result.stats.cycles;
    cfg.max_cycles = golden_cycles * 4 + 100_000;
    cfg.watchdog.livelock_window = (golden_cycles * 2).clamp(10_000, 1_000_000);
    if trace {
        cfg.trace = Some(mmt_sim::TraceConfig::default());
    }

    let run = catch_unwind(AssertUnwindSafe(|| {
        let mut sim =
            Simulator::new(cfg, case.spec()).map_err(|e| format!("invalid config/spec: {e}"))?;
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
    if let Err(e) = oracle.check(&result.merge_log) {
        return (Outcome::DetectedOracle(e), trace_out);
    }
    if digest != golden.digest || result.final_regs != golden.result.final_regs {
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
fn checkpoint_fault(doc: &str, original: &ArchState, offset: usize, bit: u8) -> Outcome {
    let mut bytes = doc.as_bytes().to_vec();
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
        Ok(state) if state == *original => Outcome::Masked,
        Ok(_) => Outcome::Silent(format!(
            "bit {bit} at byte {offset} loaded as a different state without rejection"
        )),
    }
}

/// The whole campaign for one case. With `trace_dir`, non-masked live
/// injections drop mmt-obs trace files there (`FaultInjected`/`Watchdog`
/// events mark where the upset landed and when it was caught).
pub(super) fn check(
    case: &Case,
    golden: &Golden,
    oracle: &Oracle,
    trace_dir: Option<&Path>,
) -> Row {
    let (app, threads) = (case.app.name, case.threads);
    let golden_cycles = golden.result.stats.cycles;
    let lvip_entries = SimConfig::paper_with(threads, MmtLevel::Fxr).lvip_entries;
    // One deterministic stream per case: reordering cases or changing
    // the pool size cannot change any draw.
    let mut rng = CampaignRng::new(
        SEED ^ (app.bytes().fold(0u64, |h, b| {
            h.wrapping_mul(0x100).wrapping_add(u64::from(b))
        })) ^ ((threads as u64) << 56),
    );
    let record = |unit: &str, target: String, cycle: u64, outcome: &Outcome| FaultRecord {
        app: app.to_string(),
        threads,
        unit: unit.to_string(),
        target,
        cycle,
        outcome: outcome.name().to_string(),
        message: outcome.message().to_string(),
    };
    let mut records = Vec::with_capacity(FAULTS + CKPT_FAULTS);

    for k in 0..FAULTS {
        let cycle = 1 + rng.below(golden_cycles.max(1));
        let target = FaultTarget::random_live(&mut rng, threads, lvip_entries);
        let (outcome, trace) =
            injected_run(case, golden, oracle, cycle, &target, trace_dir.is_some());
        if let (Some(dir), Some(trace), false) = (
            trace_dir,
            trace.as_ref(),
            matches!(outcome, Outcome::Masked),
        ) {
            let label = format!("{app}-{threads}t-f{k}");
            if let Err(e) = write_trace_files(dir, &label, trace) {
                eprintln!("warning: trace for {label} not written: {e}");
            }
        }
        records.push(record(
            target.unit_name(),
            target.describe(),
            cycle,
            &outcome,
        ));
    }

    let doc = &golden.checkpoint;
    let original = ArchState::from_json(doc).expect("golden checkpoint round-trips");
    for _ in 0..CKPT_FAULTS {
        let offset = rng.below(doc.len() as u64) as usize;
        let bit = rng.below(8) as u8;
        let outcome = checkpoint_fault(doc, &original, offset, bit);
        let target = format!("flip bit {bit} of byte {offset}");
        records.push(record("checkpoint", target, 0, &outcome));
    }
    Row {
        records,
        golden_cycles,
    }
}

/// Print the summary and hand the campaign to the epilogue; silent
/// corruptions are its violations.
pub(super) fn finish(rows: impl Iterator<Item = Row>, scale: u64) -> Verdict {
    let (mut records, mut sim_cycles, mut configs) = (Vec::new(), 0, 0);
    for row in rows {
        records.extend(row.records);
        sim_cycles += row.golden_cycles;
        configs += 1;
    }
    let violations = records
        .iter()
        .filter(|r| r.outcome == "silent")
        .map(|r| {
            format!(
                "{} t={}: silent corruption: {} ({}): {}",
                r.app, r.threads, r.target, r.unit, r.message
            )
        })
        .collect();
    let count = |name: &str| records.iter().filter(|r| r.outcome == name).count();
    let report = Report {
        figure: "fault".to_string(),
        seed: SEED,
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

    println!(
        "## mmtfault — seeded injection campaign (seed {SEED:#x}, scale {scale}, \
         {FAULTS} live + {CKPT_FAULTS} checkpoint faults per config, {configs} configs)\n"
    );
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
    Verdict {
        violations,
        sim_cycles,
        report: Box::new(report),
    }
}
