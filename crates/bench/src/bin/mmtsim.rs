//! `mmtsim` — the general-purpose command-line driver: run any suite
//! application (or all of them) on any configuration and print — or emit
//! as JSON — the full statistics.
//!
//! ```text
//! mmtsim --app equake --level fxr --threads 2
//! mmtsim --app all --level base --threads 4 --scale 8
//! mmtsim --app twolf --level fxr --json        # machine-readable output
//! mmtsim --app water-ns --level fxr --fetch-style conventional --fhb 64
//! ```
//!
//! Flags (all optional):
//!
//! | flag | default | meaning |
//! |---|---|---|
//! | `--app NAME`      | `swaptions` | suite app name, or `all` |
//! | `--level L`       | `fxr`       | `base`, `f`, `fx`, `fxr`, `limit` |
//! | `--threads N`     | `2`         | hardware threads (1–4) |
//! | `--scale N`       | `1`         | iteration divisor |
//! | `--fhb N`         | `32`        | Fetch History Buffer entries |
//! | `--ports N`       | `4`         | load/store ports |
//! | `--width N`       | `8`         | fetch width |
//! | `--fetch-style S` | `trace`     | `trace` or `conventional` |
//! | `--sync S`        | `fhb`       | `fhb` or `hints` |
//! | `--format F`      | `text`      | `text` (human-readable) or `json` (one object per app) |
//! | `--json`          | off         | alias for `--format json` |
//! | `--pc-profile`    | off         | record the per-PC profile (fetch/exec/LVIP/address counters); with `--format json` it rides along in `stats.pc_profile` — the counters `mmtgate --check mem` reads |
//! | `--asm PATH`      | —           | simulate an assembly file instead of a suite app |
//! | `--sharing S`     | `mt`        | with `--asm`: `mt` (shared memory) or `me` (per process) |
//! | `--metrics PATH`  | off         | self-profile the simulator (per-stage wall-clock histograms; with `--sample`, per-tier too) and write the merged snapshot to PATH — `.json` for JSON, anything else for Prometheus text exposition |
//!
//! Two-speed simulation (see DESIGN.md §14):
//!
//! | flag | default | meaning |
//! |---|---|---|
//! | `--checkpoint FILE`   | —      | write the architectural state as JSON at `--checkpoint-at`, then keep running |
//! | `--checkpoint-at N`   | `1000` | cycle at which `--checkpoint` captures the state |
//! | `--resume FILE`       | —      | resume from a `--checkpoint` JSON instead of reset (stats cover the resumed portion) |
//! | `--sample`            | off    | SMARTS-style sampled run: fast-forward + detailed windows, estimates with error bars |
//! | `--sample-skip N`     | `6000` | instructions fast-forwarded between windows |
//! | `--sample-warmup N`   | `500`  | detailed-but-unmeasured instructions per window |
//! | `--sample-measure N`  | `1500` | measured instructions per window |

use mmt_bench::cli::{fail_run, fail_usage, format_json_arg, scale_arg};
use mmt_bench::sample::{run_sampled, run_sampled_profiled, tier_seconds, SampleConfig};
use mmt_bench::{arg_value, to_run_spec, FULL_SCALE};
use mmt_energy::EnergyModel;
use mmt_obs::json::{ObjectWriter, ToJson};
use mmt_obs::MetricsSnapshot;
use mmt_sim::config::SyncPolicy;
use mmt_sim::snapshot::{self, ArchState};
use mmt_sim::{FetchStyle, MmtLevel, SimConfig, SimResult, Simulator};
use mmt_workloads::{all_apps, app_by_name, App, WorkloadInstance};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // `--json` predates `--format` and stays as an alias.
    let json = format_json_arg(&args).unwrap_or_else(|e| fail_usage(false, e));
    if let Some(path) = arg_value(&args, "--asm") {
        run_asm(&path, &args, json);
        return;
    }
    let app_name = arg_value(&args, "--app").unwrap_or_else(|| "swaptions".into());
    let level_name = arg_value(&args, "--level").unwrap_or_else(|| "fxr".into());
    let threads: usize = arg_value(&args, "--threads")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail_usage(json, "--threads takes 1..=4"))
        })
        .unwrap_or(2);
    let scale = scale_arg(&args, FULL_SCALE, json);

    let apps: Vec<App> = if app_name == "all" {
        all_apps()
    } else {
        vec![app_by_name(&app_name).unwrap_or_else(|| {
            fail_usage(
                json,
                format!(
                    "unknown app '{app_name}'; known: {}",
                    all_apps()
                        .iter()
                        .map(|a| a.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            )
        })]
    };

    let metrics_path = arg_value(&args, "--metrics");
    let mut metrics: Option<MetricsSnapshot> = None;
    let mut absorb = |snap: Option<MetricsSnapshot>| {
        let Some(snap) = snap else { return };
        match &mut metrics {
            Some(acc) => acc.merge(&snap),
            None => metrics = Some(snap),
        }
    };

    if args.iter().any(|a| a == "--sample") {
        let sample = sample_config(&args, json);
        for app in &apps {
            let (cfg, w, level_label) = configure(app, &level_name, threads, scale, &args, json);
            let (est, snap) = if metrics_path.is_some() {
                let (est, snap) = run_sampled_profiled(&cfg, &to_run_spec(w), &sample);
                (est, Some(snap))
            } else {
                (run_sampled(&cfg, &to_run_spec(w), &sample), None)
            };
            if json {
                print_json_line(app.name, &level_label, threads, "sampled", &est);
            } else {
                print_sampled(app, &level_label, &est, snap.as_ref());
            }
            absorb(snap);
        }
        if let Some(path) = &metrics_path {
            write_metrics(path, metrics, json);
        }
        return;
    }

    for app in &apps {
        let (result, level_label) = run_one(app, &level_name, threads, scale, &args, json);
        if json {
            print_json_line(app.name, &level_label, threads, "stats", &result.stats);
        } else {
            print_human(app, &level_label, &result);
        }
        absorb(result.metrics);
    }
    if let Some(path) = &metrics_path {
        write_metrics(path, metrics, json);
    }
}

/// One machine-readable result line, via the escaping-correct writer
/// (Debug-formatted strings are *not* JSON: `é` renders as `\u{e9}`).
fn print_json_line(app: &str, level: &str, threads: usize, key: &str, payload: &impl ToJson) {
    let mut line = String::new();
    let mut w = ObjectWriter::new(&mut line);
    w.str("app", app)
        .str("level", level)
        .u64("threads", threads as u64)
        .field(key, payload);
    w.finish();
    println!("{line}");
}

/// Write the merged self-profiling snapshot: `.json` → JSON array,
/// anything else → Prometheus text exposition.
fn write_metrics(path: &str, snap: Option<MetricsSnapshot>, json: bool) {
    let Some(snap) = snap else {
        eprintln!("warning: --metrics requested but no run produced a snapshot");
        return;
    };
    let body = if path.ends_with(".json") {
        snap.to_json()
    } else {
        snap.to_prometheus()
    };
    if let Err(e) = std::fs::write(path, body) {
        fail_run(json, format!("cannot write metrics {path}: {e}"));
    }
    println!("metrics written to {path}");
}

fn sample_config(args: &[String], json: bool) -> SampleConfig {
    let mut sample = SampleConfig::default();
    if let Some(v) = arg_value(args, "--sample-skip") {
        sample.skip = v
            .parse()
            .unwrap_or_else(|_| fail_usage(json, "--sample-skip takes a number"));
    }
    if let Some(v) = arg_value(args, "--sample-warmup") {
        sample.warmup = v
            .parse()
            .unwrap_or_else(|_| fail_usage(json, "--sample-warmup takes a number"));
    }
    if let Some(v) = arg_value(args, "--sample-measure") {
        sample.measure = v
            .parse()
            .unwrap_or_else(|_| fail_usage(json, "--sample-measure takes a number"));
    }
    sample
}

/// Simulate a hand-written assembly file (empty initial memories).
fn run_asm(path: &str, args: &[String], json: bool) {
    use mmt_isa::interp::Memory;
    use mmt_isa::MemSharing;

    let source = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail_usage(json, format!("cannot read {path}: {e}")));
    let program =
        mmt_isa::parse::parse(&source).unwrap_or_else(|e| fail_usage(json, format!("{path}: {e}")));
    let threads: usize = arg_value(args, "--threads")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail_usage(json, "--threads takes 1..=4"))
        })
        .unwrap_or(2);
    let sharing = match arg_value(args, "--sharing").as_deref() {
        None | Some("mt") => MemSharing::Shared,
        Some("me") => MemSharing::PerThread,
        Some(other) => fail_usage(json, format!("unknown sharing '{other}' (mt|me)")),
    };
    let memories = match sharing {
        MemSharing::Shared => vec![Memory::new(0)],
        MemSharing::PerThread => (0..threads).map(Memory::new).collect(),
    };
    let level = match arg_value(args, "--level").as_deref() {
        Some("base") => MmtLevel::Base,
        Some("f") => MmtLevel::F,
        Some("fx") => MmtLevel::Fx,
        None | Some("fxr") => MmtLevel::Fxr,
        Some(other) => fail_usage(json, format!("unknown level '{other}' (base|f|fx|fxr)")),
    };
    let cfg = SimConfig::paper_with(threads, level);
    let result = Simulator::new(
        cfg,
        mmt_sim::RunSpec {
            program,
            sharing,
            memories,
            threads,
        },
    )
    .unwrap_or_else(|e| fail_usage(json, format!("invalid spec: {e}")))
    .run()
    .unwrap_or_else(|e| fail_run(json, format!("simulation failed: {e}")));
    let fake_app = App {
        name: "custom",
        suite: mmt_workloads::Suite::Spec2000,
        spec: all_apps()[0].spec.clone(),
    };
    print_human(&fake_app, level.name(), &result);
}

/// Build the configured `(SimConfig, workload, level label)` triple for
/// one app from the command line (shared by the detailed, sampled, and
/// checkpoint/resume paths).
fn configure(
    app: &App,
    level_name: &str,
    threads: usize,
    scale: u64,
    args: &[String],
    json: bool,
) -> (SimConfig, WorkloadInstance, String) {
    let (level, limit) = match level_name {
        "base" => (MmtLevel::Base, false),
        "f" => (MmtLevel::F, false),
        "fx" => (MmtLevel::Fx, false),
        "fxr" => (MmtLevel::Fxr, false),
        "limit" => (MmtLevel::Fxr, true),
        other => fail_usage(
            json,
            format!("unknown level '{other}' (base|f|fx|fxr|limit)"),
        ),
    };
    let mut cfg = SimConfig::paper_with(threads, level);
    if let Some(v) = arg_value(args, "--fhb") {
        cfg.fhb_entries = v
            .parse()
            .unwrap_or_else(|_| fail_usage(json, "--fhb takes a number"));
    }
    if let Some(v) = arg_value(args, "--ports") {
        cfg.lsq_ports = v
            .parse()
            .unwrap_or_else(|_| fail_usage(json, "--ports takes a number"));
    }
    if let Some(v) = arg_value(args, "--width") {
        cfg.fetch_width = v
            .parse()
            .unwrap_or_else(|_| fail_usage(json, "--width takes a number"));
    }
    match arg_value(args, "--fetch-style").as_deref() {
        None | Some("trace") => {}
        Some("conventional") => cfg.fetch_style = FetchStyle::Conventional,
        Some(other) => fail_usage(
            json,
            format!("unknown fetch style '{other}' (trace|conventional)"),
        ),
    }
    if args.iter().any(|a| a == "--pc-profile") {
        cfg.record_pc_profile = true;
    }
    if args.iter().any(|a| a == "--metrics") {
        cfg.metrics = true;
    }
    let w = if limit {
        app.limit_instance(threads, scale)
    } else {
        app.instance(threads, scale)
    };
    match arg_value(args, "--sync").as_deref() {
        None | Some("fhb") => {}
        Some("hints") => {
            cfg.sync_policy = SyncPolicy::SoftwareHints;
            cfg.remerge_hints = w.remerge_hints.clone();
        }
        Some(other) => fail_usage(json, format!("unknown sync policy '{other}' (fhb|hints)")),
    }
    let label = if limit {
        "limit".into()
    } else {
        level.name().to_string()
    };
    (cfg, w, label)
}

fn run_one(
    app: &App,
    level_name: &str,
    threads: usize,
    scale: u64,
    args: &[String],
    json: bool,
) -> (SimResult, String) {
    let (cfg, w, label) = configure(app, level_name, threads, scale, args, json);

    if let Some(path) = arg_value(args, "--resume") {
        return (resume_run(cfg, w, &path, json), label);
    }
    if let Some(path) = arg_value(args, "--checkpoint") {
        let at: u64 = arg_value(args, "--checkpoint-at")
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| fail_usage(json, "--checkpoint-at takes a cycle number"))
            })
            .unwrap_or(1000);
        return (checkpointing_run(cfg, w, &path, at, json), label);
    }

    let result = Simulator::new(cfg, to_run_spec(w))
        .unwrap_or_else(|e| fail_usage(json, format!("invalid config/spec: {e}")))
        .run()
        .unwrap_or_else(|e| fail_run(json, format!("{}: {e}", app.name)));
    (result, label)
}

/// Run normally but dump the architectural state as JSON once the clock
/// reaches `at` (or at the end, with a warning, if the run is shorter).
fn checkpointing_run(
    cfg: SimConfig,
    w: WorkloadInstance,
    path: &str,
    at: u64,
    json: bool,
) -> SimResult {
    let mut sim = Simulator::new(cfg, to_run_spec(w))
        .unwrap_or_else(|e| fail_usage(json, format!("invalid config/spec: {e}")));
    let mut written = false;
    while !sim.finished() {
        if sim.now() == at {
            write_checkpoint(&sim.arch_state(), path, json);
            written = true;
        }
        sim.step_cycle()
            .unwrap_or_else(|e| fail_run(json, format!("simulation failed: {e}")));
    }
    if !written {
        eprintln!(
            "warning: run finished at cycle {} before --checkpoint-at {at}; \
             writing the final state",
            sim.now()
        );
        write_checkpoint(&sim.arch_state(), path, json);
    }
    sim.finish()
}

fn write_checkpoint(state: &ArchState, path: &str, json: bool) {
    if let Err(e) = std::fs::write(path, state.to_json() + "\n") {
        fail_run(json, format!("cannot write checkpoint {path}: {e}"));
    }
    println!("checkpoint written to {path} at cycle {}", state.cycle);
}

/// Resume from a `--checkpoint` JSON file. The reported stats cover the
/// resumed portion only (the pipeline restarts empty — see DESIGN.md
/// §14 for the handoff contract).
fn resume_run(cfg: SimConfig, w: WorkloadInstance, path: &str, json: bool) -> SimResult {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail_usage(json, format!("cannot read checkpoint {path}: {e}")));
    let state =
        ArchState::from_json(&text).unwrap_or_else(|e| fail_usage(json, format!("{path}: {e}")));
    if state.config_digest != snapshot::config_digest(&cfg) {
        eprintln!(
            "warning: checkpoint was captured under a different configuration; \
             resuming is architecturally sound but timing is not comparable"
        );
    }
    Simulator::from_arch(cfg, w.program, state)
        .unwrap_or_else(|e| fail_usage(json, format!("cannot resume from {path}: {e}")))
        .run()
        .unwrap_or_else(|e| fail_run(json, format!("simulation failed: {e}")))
}

/// `snap`, when the run was profiled, adds its per-tier wall-clock.
fn print_sampled(
    app: &App,
    level: &str,
    est: &mmt_bench::sample::SampledEstimate,
    snap: Option<&MetricsSnapshot>,
) {
    println!(
        "{} [{}] sampled ({} windows, {:.1}% detailed):",
        app.name,
        level,
        est.windows.len(),
        est.detailed_fraction() * 100.0
    );
    println!(
        "  est cycles {:>10.0} ± {:<8.0} est ipc {:>5.2}   insts {} (exact)",
        est.est_cycles,
        est.cycles_err,
        est.total_insts as f64 / est.est_cycles.max(1.0),
        est.total_insts
    );
    println!(
        "  merge fraction {:>5.1}%   measured {} insts / {} cycles in windows",
        est.merge_fraction * 100.0,
        est.measured_insts,
        est.measured_cycles
    );
    if let Some(snap) = snap {
        let wall = |tier| tier_seconds(snap, tier).unwrap_or((0, 0.0));
        let (windows, handoff) = wall("handoff");
        println!(
            "  wall: detailed {:.4} s (handoff {:.4} s, {:.1} us/window)   ffwd {:.4} s",
            wall("detailed").1,
            handoff,
            handoff * 1e6 / windows.max(1) as f64,
            wall("ffwd").1
        );
    }
    println!();
}

fn print_human(app: &App, level: &str, r: &SimResult) {
    let s = &r.stats;
    let (m, d, c) = s.fetch_modes.fractions();
    let id = &s.identity;
    let energy = EnergyModel::default().energy(&s.energy);
    println!(
        "{} [{}] on {} threads:",
        app.name,
        level,
        s.retired_per_thread.len()
    );
    println!(
        "  cycles {:>10}   ipc {:>5.2}   retired {:?}",
        s.cycles,
        s.ipc(),
        s.retired_per_thread
    );
    println!(
        "  fetch modes {:>5.1}% MERGE / {:>4.1}% DETECT / {:>4.1}% CATCHUP   \
         div {} remerge {} (fp {})",
        m * 100.0,
        d * 100.0,
        c * 100.0,
        s.divergences,
        s.remerges,
        s.catchup_false_positives
    );
    println!(
        "  identity {:>5.1}% exe + {:>4.1}% exe-regmerge + {:>5.1}% fetch-id + {:>5.1}% private",
        id.execute_identical as f64 / id.total().max(1) as f64 * 100.0,
        id.execute_identical_regmerge as f64 / id.total().max(1) as f64 * 100.0,
        id.fetch_identical as f64 / id.total().max(1) as f64 * 100.0,
        id.private as f64 / id.total().max(1) as f64 * 100.0,
    );
    println!(
        "  caches   L1I {}/{}m   L1D {}/{}m   L2 {}m   branches {} ({} mispredicted)",
        s.l1i.accesses,
        s.l1i.misses,
        s.l1d.accesses,
        s.l1d.misses,
        s.l2.misses,
        s.branches,
        s.branch_mispredicts
    );
    println!(
        "  LVIP {} lookups / {} mismatches   energy {:.1} uJ ({:.2}% MMT overhead)\n",
        s.lvip_lookups,
        s.lvip_mispredicts,
        energy.total() / 1000.0,
        energy.overhead_fraction() * 100.0
    );
}
