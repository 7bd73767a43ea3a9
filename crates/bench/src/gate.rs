//! The machine checks behind `mmtgate` (DESIGN.md §9, §13–§16): each
//! compares a static analysis, the fast-forward executor or a fault
//! campaign with dynamic simulation and fails on any soundness
//! violation.
//!
//! A [`Case`] is one (suite app, thread count, scale). [`run`] builds
//! its workload instance once and simulates its MMT-FXR [`Golden`] once,
//! recording the union of what its checks read, and every selected check
//! of the case reads that one result (the dedup idea of
//! `figs::Run::key`). Each check is a function of (case, golden, static
//! [`Stack`]) that prints its markdown table; [`run`] then writes its
//! `results/BENCH_<report>.json`, prints its `SOUNDNESS` lines on stderr
//! and appends its `results/LEDGER.jsonl` record under its tool name.

mod fault;
mod ffwd;
mod mem;
mod predict;
mod value;

use crate::cli;
use crate::ledger::LedgerRecord;
use crate::sweep::{run_parallel, write_report, ProgressSink};
use crate::to_run_spec;
use mmt_analysis::{LvipPrediction, Oracle, Stack};
use mmt_isa::MemSharing;
use mmt_obs::json::ToJson;
use mmt_sim::{MmtLevel, PcCounters, RunSpec, SimConfig, SimResult, Simulator};
use mmt_workloads::{App, WorkloadInstance};
use std::cell::OnceCell;
use std::path::PathBuf;
use std::time::Instant;

/// Scale of every check but `ffwd` when `--scale` is not given.
pub const GATE_SCALE: u64 = crate::SMOKE_SCALE;

/// One machine check of `mmtgate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Check {
    /// Static savings predictor + redundancy oracle.
    Predict,
    /// Memory divergence, race and LVIP analysis.
    Mem,
    /// Value flow + static RST model.
    Value,
    /// The two-speed simulator.
    Ffwd,
    /// Seeded fault injection.
    Fault,
}

impl Check {
    /// Every check, in run and report order.
    pub const ALL: [Check; 5] = [
        Check::Predict,
        Check::Mem,
        Check::Value,
        Check::Ffwd,
        Check::Fault,
    ];

    /// `(--check name, ledger tool, report stem, records the per-PC
    /// profile, records the merge log)`. The tool is the bin the check
    /// once was, so its ledger trend carries on.
    fn meta(self) -> (&'static str, &'static str, &'static str, bool, bool) {
        match self {
            Check::Predict => ("predict", "mmtpredict", "predict", true, true),
            Check::Mem => ("mem", "mmtmem", "memdep", true, false),
            Check::Value => ("value", "mmtvalue", "value", true, false),
            Check::Ffwd => ("ffwd", "mmtffwd", "ffwd", false, false),
            Check::Fault => ("fault", "mmtfault", "fault", false, false),
        }
    }

    /// The `--check` name.
    pub fn name(self) -> &'static str {
        self.meta().0
    }

    /// The checks named in a comma-separated `--check` list, in
    /// [`Check::ALL`] order.
    ///
    /// # Errors
    ///
    /// The first unknown name, with the valid ones listed.
    pub fn parse_list(names: &str) -> Result<Vec<Check>, String> {
        let mut checks = names
            .split(',')
            .map(|name| {
                let name = name.trim();
                Check::ALL
                    .into_iter()
                    .find(|c| c.name() == name)
                    .ok_or_else(|| {
                        let valid: Vec<&str> = Check::ALL.iter().map(|c| c.name()).collect();
                        format!("unknown check '{name}'; valid: {}", valid.join(", "))
                    })
            })
            .collect::<Result<Vec<Check>, String>>()?;
        checks.sort_unstable();
        checks.dedup();
        Ok(checks)
    }
}

/// How to gate: the `mmtgate` flags, parsed.
pub struct Options {
    /// Checks to run, in [`Check::ALL`] order.
    pub checks: Vec<Check>,
    /// Suite apps of the grid.
    pub apps: Vec<App>,
    /// Thread counts of the grid; `ffwd` samples at the first.
    pub threads: Vec<usize>,
    /// `--scale`, when given: every check's iteration divisor. Without
    /// it `ffwd` runs at [`crate::FULL_SCALE`] and the rest at
    /// [`GATE_SCALE`].
    pub scale: Option<u64>,
    /// Worker-pool size.
    pub jobs: usize,
    /// Emit failures as JSON objects (`--format json`).
    pub json: bool,
    /// Per-case `start`/`finish` progress stream.
    pub progress: Option<ProgressSink>,
    /// Where `fault` drops traces of its non-masked injections.
    pub trace_dir: Option<PathBuf>,
}

impl Options {
    /// The iteration divisor `check` runs at.
    fn scale_of(&self, check: Check) -> u64 {
        match (self.scale, check) {
            (Some(scale), _) => scale,
            (None, Check::Ffwd) => crate::FULL_SCALE,
            (None, _) => GATE_SCALE,
        }
    }
}

/// One (suite app, thread count, scale) of the grid, with its workload
/// instance built once.
pub struct Case {
    /// The suite app.
    pub app: App,
    /// Hardware threads.
    pub threads: usize,
    /// The built workload, at the case's iteration divisor.
    pub instance: WorkloadInstance,
}

impl Case {
    /// Build `app`'s instance at `threads` and `scale`.
    pub fn new(app: &App, threads: usize, scale: u64) -> Case {
        Case {
            app: app.clone(),
            threads,
            instance: app.instance(threads, scale),
        }
    }

    /// The simulator's run spec of the instance.
    pub fn spec(&self) -> RunSpec {
        to_run_spec(self.instance.clone())
    }

    /// Simulate the MMT-FXR golden, stepped to the end, recording the
    /// per-PC profile and the merge log as asked. Recording is
    /// timing-invisible, so goldens that differ only in it are equal in
    /// every cycle.
    ///
    /// # Errors
    ///
    /// A simulator error, as text.
    pub fn golden(&self, pc_profile: bool, merge_log: bool) -> Result<Golden, String> {
        let mut cfg = SimConfig::paper_with(self.threads, MmtLevel::Fxr);
        cfg.record_pc_profile = pc_profile;
        cfg.record_merge_log = merge_log;
        let mut sim =
            Simulator::new(cfg, self.spec()).map_err(|e| format!("invalid config/spec: {e}"))?;
        while !sim.finished() {
            sim.step_cycle().map_err(|e| e.to_string())?;
        }
        let state = sim.arch_state();
        Ok(Golden {
            digest: state.digest(),
            checkpoint: state.to_json(),
            result: sim.finish(),
        })
    }
}

/// A case's MMT-FXR run: what every check of the case reads.
pub struct Golden {
    /// Statistics, final registers and (when recorded) merge log.
    pub result: SimResult,
    /// Digest of the final architectural state.
    pub digest: u64,
    /// The final architectural state's checkpoint document.
    pub checkpoint: String,
}

/// What one check hands its epilogue.
struct Verdict {
    report: Box<dyn ToJson>,
    /// `<app> t=<threads>: <what>` per violation.
    violations: Vec<String>,
    /// Cycles the check's runs simulated, for the ledger's throughput.
    sim_cycles: u64,
}

/// `<app> t=<threads>: <what>` for each of a row's violations.
fn violations_of(app: &str, threads: usize, violations: &[String]) -> Vec<String> {
    violations
        .iter()
        .map(|v| format!("{app} t={threads}: {v}"))
        .collect()
}

/// The per-row status cell of a markdown table: `ok`, or `FAIL (n)`.
fn status_cell(violations: &[String]) -> String {
    match violations.len() {
        0 => "ok".to_string(),
        n => format!("FAIL ({n})"),
    }
}

/// `mt` for shared memory, `me` for per-thread memories.
fn sharing_label(sharing: MemSharing) -> String {
    match sharing {
        MemSharing::Shared => "mt".to_string(),
        MemSharing::PerThread => "me".to_string(),
    }
}

/// The LVIP violations of the counters `c` at `pc` (`mem` and `value`):
/// no lookups at a load the static side cannot see or marks
/// non-predictable, no more hits plus misses than lookups, and a hit
/// rate inside the `kind` bracket.
fn lvip_violations(pc: u64, c: &PcCounters, lvip: &LvipPrediction, kind: &str) -> Vec<String> {
    let (lookups, resolved) = (c.lvip_lookups, c.lvip_hits + c.lvip_misses);
    let b = match lvip.at(pc) {
        _ if lookups == 0 && resolved == 0 => return Vec::new(),
        Some(b) if b.predictable => b,
        other => {
            let why = match other {
                None => "the static side sees no load there",
                Some(_) => "is statically non-predictable",
            };
            return vec![format!(
                "pc {pc} consulted LVIP {lookups} time(s) but {why}"
            )];
        }
    };
    let mut out = Vec::new();
    if resolved > lookups {
        let (h, m) = (c.lvip_hits, c.lvip_misses);
        out.push(format!(
            "pc {pc}: {h} hits + {m} misses exceed {lookups} lookups"
        ));
    }
    let rate = c.lvip_hits as f64 / resolved.max(1) as f64;
    if resolved > 0 && !b.brackets(rate) {
        let (lo, hi) = (b.hit_lower, b.hit_upper);
        out.push(format!(
            "pc {pc}: measured LVIP hit rate {rate:.4} outside {kind} bracket [{lo:.4}, {hi:.4}]"
        ));
    }
    out
}

/// Every check's row of one case.
#[derive(Default)]
struct CaseRows {
    predict: Option<predict::Row>,
    mem: Option<mem::Row>,
    value: Option<value::Row>,
    ffwd: Option<ffwd::Row>,
    fault: Option<fault::Row>,
}

/// Simulate `case`'s golden and run `checks` against it.
fn run_case(case: &Case, checks: &[Check], opts: &Options, label: &str) -> CaseRows {
    let (pc_profile, merge_log) = checks.iter().fold((false, false), |(p, m), c| {
        let (.., cp, cm) = c.meta();
        (p || cp, m || cm)
    });
    let golden = case
        .golden(pc_profile, merge_log)
        .unwrap_or_else(|e| cli::fail_run(opts.json, format!("{label}: {e}")));
    let stack = Stack::new(&case.instance.program);
    let oracle = OnceCell::new();
    let oracle = || oracle.get_or_init(|| Oracle::from_stack(&stack, case.instance.sharing));
    let mut rows = CaseRows::default();
    for check in checks {
        match check {
            Check::Predict => rows.predict = Some(predict::check(case, &golden, &stack, oracle())),
            Check::Mem => rows.mem = Some(mem::check(case, &golden, &stack)),
            Check::Value => rows.value = Some(value::check(case, &golden, &stack)),
            Check::Ffwd => {
                let sampled = case.threads == opts.threads[0];
                rows.ffwd = Some(ffwd::check(case, &golden, sampled));
            }
            Check::Fault => {
                let trace_dir = opts.trace_dir.as_deref();
                rows.fault = Some(fault::check(case, &golden, oracle(), trace_dir));
            }
        }
    }
    rows
}

/// Run `opts.checks` over the grid from the working directory: simulate
/// each distinct case's golden once on the worker pool and run its
/// checks, then per check print its table and `SOUNDNESS` lines, write
/// its report and append its ledger record. Returns whether every check
/// passed.
pub fn run(opts: &Options) -> bool {
    let started = Instant::now();
    // Checks at one scale share that scale's cases.
    let mut by_scale: Vec<(u64, Vec<Check>)> = Vec::new();
    for &check in &opts.checks {
        let scale = opts.scale_of(check);
        match by_scale.iter_mut().find(|(s, _)| *s == scale) {
            Some((_, checks)) => checks.push(check),
            None => by_scale.push((scale, vec![check])),
        }
    }
    let plan: Vec<(&App, usize, u64, &[Check])> = by_scale
        .iter()
        .flat_map(|(scale, checks)| {
            let cases = opts
                .apps
                .iter()
                .flat_map(|app| opts.threads.iter().map(move |&t| (app, t)));
            cases.map(move |(app, t)| (app, t, *scale, &checks[..]))
        })
        .collect();

    let common = opts.scale.unwrap_or(GATE_SCALE);
    let mut rows = run_parallel(&plan, opts.jobs, |&(app, threads, scale, checks)| {
        let label = match scale == common {
            true => format!("{}@{threads}", app.name),
            false => format!("{}@{threads}/scale{scale}", app.name),
        };
        if let Some(progress) = &opts.progress {
            progress.start(&label);
        }
        let case_started = Instant::now();
        let rows = run_case(&Case::new(app, threads, scale), checks, opts, &label);
        if let Some(progress) = &opts.progress {
            progress.finish(&label, case_started.elapsed());
        }
        rows
    });
    let names: Vec<&str> = opts.checks.iter().map(|c| c.name()).collect();
    let (goldens, names) = (plan.len(), names.join(","));
    println!("mmtgate: simulated {goldens} FXR golden(s) for {names}\n");

    let mut ok = true;
    for &check in &opts.checks {
        let scale = opts.scale_of(check);
        let verdict = match check {
            Check::Predict => {
                predict::finish(rows.iter_mut().filter_map(|r| r.predict.take()), scale)
            }
            Check::Mem => mem::finish(rows.iter_mut().filter_map(|r| r.mem.take()), scale),
            Check::Value => value::finish(rows.iter_mut().filter_map(|r| r.value.take()), scale),
            Check::Ffwd => ffwd::finish(rows.iter_mut().filter_map(|r| r.ffwd.take()), scale, opts),
            Check::Fault => fault::finish(rows.iter_mut().filter_map(|r| r.fault.take()), scale),
        };
        ok &= epilogue(check, &verdict, opts, started);
    }
    ok
}

/// One check's epilogue: `SOUNDNESS` lines on stderr, the report to
/// `results/BENCH_<report>.json`, a `results/LEDGER.jsonl` record
/// (best-effort: a read-only checkout warns) and a pass or failure
/// line. The ledger's wall-clock runs from the start of [`run`], since
/// checks share goldens. Returns whether the check passed.
fn epilogue(check: Check, v: &Verdict, opts: &Options, started: Instant) -> bool {
    let (_, tool, report, ..) = check.meta();
    for line in &v.violations {
        eprintln!("SOUNDNESS {line}");
    }
    match write_report(report, &*v.report) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => cli::fail_run(opts.json, format!("cannot write report: {e}")),
    }
    let wall = started.elapsed().as_secs_f64();
    let (apps, scale, n) = (opts.apps.len(), opts.scale_of(check), v.violations.len());
    let cps = v.sim_cycles as f64 / wall.max(1e-9);
    LedgerRecord::new(tool, apps, &opts.threads, scale, wall * 1e3, cps, n).append_or_warn();
    if n > 0 {
        cli::report_error(opts.json, &format!("{tool}: {n} soundness violation(s)"));
    } else {
        println!("{tool}: all checks passed\n");
    }
    n == 0
}
