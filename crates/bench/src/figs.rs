//! The figure table behind `mmtfigs`: every table, figure and ablation
//! of the evaluation (Section 6, plus the design-choice studies) as the
//! list of runs it needs and a renderer for its text.
//!
//! Most figures read the same Table-4 runs: 5(b), 5(d) and 6 re-read
//! 5(a)/5(c)'s Base and MMT-FXR runs, Figure 7's default-config points
//! are those runs again, and Base never consults the FHB. [`regenerate`]
//! therefore keys every requested run by the digests of its run spec and
//! of its [`SimConfig::effective`] config, and simulates
//! each distinct key once on a worker of [`run_supervised`], which
//! records a run that fails, panics or misses the `--deadline-secs`
//! deadline (checked in the run's own step loop) as a `PointFailure`;
//! `--resume-dir` caches every finished run. Each
//! figure is then rendered from the shared results into
//! `results/<figure>.txt`; telemetry for the distinct runs lands in
//! `results/BENCH_figs.json` and one `results/LEDGER.jsonl` record.
//!
//! Figures 1 and 2 do not simulate: they align the two threads'
//! functional traces, and share one profile per app.

use crate::ledger::LedgerRecord;
use crate::sweep::{
    run_parallel, run_supervised, write_trace_files, BenchReport, FailureKind, PointFailure,
    ResumeDir, RunTelemetry,
};
use crate::{geomean, speedup, to_run_spec};
use mmt_energy::EnergyModel;
use mmt_isa::MemSharing;
use mmt_obs::json::FromJson;
use mmt_profile::{collect_trace, profile_pair, RedundancyProfile, DIVERGENCE_BUCKETS};
use mmt_sim::config::{FetchPolicy, SyncPolicy};
use mmt_sim::hw_cost::{total_storage_bits, TABLE3};
use mmt_sim::snapshot::{Fnv, MODEL_DIGEST};
use mmt_sim::{FetchStyle, MmtLevel, SimConfig, SimStats, Simulator};
use mmt_workloads::{all_apps, App, WorkloadInstance};
use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Thread count of every figure but 5(c) (and 6's 4-thread columns).
const THREADS: usize = 2;

/// Cycles between a run's deadline checks under `--deadline-secs`: its
/// step loop reads the clock only on multiples of this power of two.
const DEADLINE_CHECK_EVERY: u64 = 1 << 14;

/// A built workload instance and its run-spec digest, shared by every
/// run of it.
#[derive(Debug)]
struct Workload {
    /// Label prefix of its runs: `<app>/<N>t[/<variant>]`.
    name: String,
    instance: WorkloadInstance,
    digest: u64,
}

/// Identity of a simulation: `(run-spec digest, effective-config
/// digest)`. Equal keys simulate bit-identically and record the same
/// things.
type RunKey = (u64, u64);

/// One simulation a figure asks for.
#[derive(Debug, Clone)]
struct Run {
    /// Telemetry label, `<app>/<N>t[/<variant>][/<knob>]/<level>`; with
    /// `--trace-dir` also the trace file stem, slashes as dashes.
    label: String,
    workload: Arc<Workload>,
    cfg: SimConfig,
    /// Record a pipeline trace under `--trace-dir`.
    traced: bool,
}

impl Run {
    /// The run's [`RunKey`]. The config part hashes every field:
    /// unlike a checkpoint's `config_digest`, it keeps the recording
    /// flags, because a cached result holds what they recorded.
    fn key(&self) -> RunKey {
        let mut config = Fnv::new();
        config.put_bytes(format!("{:?}", self.cfg.effective()).as_bytes());
        (self.workload.digest, config.finish())
    }

    /// The run's resume-cache entry under timing model `model`: the
    /// [`RunKey`] prefixed with the model fingerprint, so entries
    /// written by a simulator whose results differ are never read back.
    fn cache_key(&self, model: u64) -> String {
        let (spec, config) = self.key();
        format!("{model:016x}-{spec:016x}-{config:016x}")
    }
}

/// A run of `w` on the paper machine at `level` with `tweak` applied;
/// `knob` names the tweak in the label (empty for none).
fn run(w: &Arc<Workload>, knob: &str, level: MmtLevel, tweak: impl FnOnce(&mut SimConfig)) -> Run {
    let mut cfg = SimConfig::paper_with(w.instance.threads, level);
    tweak(&mut cfg);
    let label = match knob {
        "" => format!("{}/{level:?}", w.name),
        _ => format!("{}/{knob}/{level:?}", w.name),
    };
    Run {
        label: label.to_lowercase(),
        workload: Arc::clone(w),
        cfg,
        traced: false,
    }
}

/// Base then MMT-FXR of `w`, both with `tweak`: one speedup.
fn pair(w: &Arc<Workload>, knob: &str, tweak: impl Fn(&mut SimConfig)) -> [Run; 2] {
    [MmtLevel::Base, MmtLevel::Fxr].map(|level| run(w, knob, level, &tweak))
}

/// The speedups of consecutive [`pair`]s' stats.
fn speedups(stats: &[&SimStats]) -> Vec<f64> {
    stats.chunks(2).map(|p| speedup(p[0], p[1])).collect()
}

/// What the figures read besides their runs: the apps, the scale, the
/// workloads built so far and (for Figures 1 and 2) the profiles.
struct Ctx {
    apps: Vec<App>,
    scale: u64,
    jobs: usize,
    built: RefCell<HashMap<String, Arc<Workload>>>,
    profiles: OnceCell<Vec<RedundancyProfile>>,
}

impl Ctx {
    /// Every suite app at iteration divisor `scale`; profiles are
    /// collected on `jobs` workers.
    fn new(scale: u64, jobs: usize) -> Ctx {
        Ctx {
            apps: all_apps(),
            scale,
            jobs,
            built: RefCell::default(),
            profiles: OnceCell::new(),
        }
    }

    /// The workload called `name`, built (and digested) on first use.
    fn workload(&self, name: String, build: impl FnOnce() -> WorkloadInstance) -> Arc<Workload> {
        let mut built = self.built.borrow_mut();
        let w = built.entry(name).or_insert_with_key(|name| {
            let instance = build();
            // Everything the simulator reads of a spec: the program text
            // and the reset-state threads and memory images.
            let spec = to_run_spec(instance.clone());
            let mut h = Fnv::new();
            h.put_bytes(format!("{:?}", spec.program).as_bytes());
            h.put_u64(spec.initial_arch_state().integrity_digest());
            let digest = h.finish();
            Arc::new(Workload {
                name: name.clone(),
                instance,
                digest,
            })
        });
        Arc::clone(w)
    }

    /// `app`'s own workload at `threads`.
    fn native(&self, app: &App, threads: usize) -> Arc<Workload> {
        self.workload(format!("{}/{threads}t", app.name), || {
            app.instance(threads, self.scale)
        })
    }

    /// The paper's *Limit* workload: identical instances of `app`.
    fn limit(&self, app: &App, threads: usize) -> Arc<Workload> {
        self.workload(format!("{}/{threads}t/limit", app.name), || {
            app.limit_instance(threads, self.scale)
        })
    }

    /// `app` regenerated with a barrier every `every` outer iterations.
    fn barriered(&self, app: &App, every: u64) -> Arc<Workload> {
        self.workload(format!("{}/{THREADS}t/barrier{every}", app.name), || {
            let mut app = app.clone();
            app.spec.barrier_every = every;
            app.instance(THREADS, self.scale)
        })
    }

    /// Every app's 2-thread trace-alignment profile, collected once.
    fn profiles(&self) -> &[RedundancyProfile] {
        self.profiles.get_or_init(|| {
            let ws: Vec<_> = self.apps.iter().map(|a| self.native(a, THREADS)).collect();
            run_parallel(&ws, self.jobs, |w| {
                let w = &w.instance;
                let mut mems = w.memories.clone();
                let traces: Vec<_> = (0..2)
                    .map(|t| {
                        let mem = match w.sharing {
                            MemSharing::Shared => &mut mems[0],
                            MemSharing::PerThread => &mut mems[t],
                        };
                        collect_trace(&w.program, mem, t, 10_000_000).expect("no faults")
                    })
                    .collect();
                profile_pair(&traces[0], &traces[1])
            })
        })
    }
}

type RunsFn = Box<dyn Fn(&Ctx) -> Vec<Run>>;
type RenderFn = Box<dyn Fn(&Ctx, &[&SimStats], &mut String) -> fmt::Result>;

/// One entry of the figure table: the runs it needs and how to render
/// their stats (passed in the order the runs were listed).
pub struct Figure {
    /// `--figure` name and output file stem (`results/<name>.txt`).
    pub name: &'static str,
    runs: RunsFn,
    render: RenderFn,
}

fn figure(
    name: &'static str,
    runs: impl Fn(&Ctx) -> Vec<Run> + 'static,
    render: impl Fn(&Ctx, &[&SimStats], &mut String) -> fmt::Result + 'static,
) -> Figure {
    Figure {
        name,
        runs: Box::new(runs),
        render: Box::new(render),
    }
}

/// A figure that simulates nothing.
fn fixed(name: &'static str, render: fn(&Ctx, &mut String) -> fmt::Result) -> Figure {
    figure(name, |_| Vec::new(), move |cx, _, out| render(cx, out))
}

/// A sweep of one configuration knob: after `title`, one `value:
/// geomean` line per value (right-aligned to `width`), the geomean
/// Base→MMT-FXR speedup over every app. Runs are labelled by the last
/// word of `name` and the value (`ports2`).
fn knob(
    name: &'static str,
    title: &'static str,
    width: usize,
    values: &'static [usize],
    tweak: fn(&mut SimConfig, usize),
) -> Figure {
    let prefix = name.rsplit('_').next().expect("split yields one part");
    let runs = move |cx: &Ctx| -> Vec<Run> {
        let knob = |v: usize| format!("{prefix}{v}");
        values
            .iter()
            .flat_map(|&v| cx.apps.iter().map(move |app| (v, app)))
            .flat_map(|(v, app)| pair(&cx.native(app, THREADS), &knob(v), |c| tweak(c, v)))
            .collect()
    };
    figure(name, runs, move |cx, stats, out| {
        writeln!(out, "{title}")?;
        for (v, chunk) in values.iter().zip(stats.chunks(2 * cx.apps.len())) {
            writeln!(out, "{v:>width$}: {:.3}", geomean(&speedups(chunk)))?;
        }
        Ok(())
    })
}

/// Every figure, in the order `mmtfigs` regenerates them.
pub fn figures() -> Vec<Figure> {
    vec![
        fixed("fig1_redundancy", fig1),
        fixed("fig2_divergence", fig2),
        fixed("table3_hw", table3),
        figure(
            "fig5a_speedup_2t",
            |cx| fig5_runs(cx, 2),
            |cx, s, out| fig5(cx, 2, s, out),
        ),
        figure(
            "fig5c_speedup_4t",
            |cx| fig5_runs(cx, 4),
            |cx, s, out| fig5(cx, 4, s, out),
        ),
        figure("fig5b_identified", fxr_runs, fig5b),
        figure("fig5d_fetch_modes", fxr_runs, fig5d),
        figure("fig6_energy", fig6_runs, fig6),
        figure("fig7ac_fhb", fig7_fhb_runs, fig7_fhb),
        knob(
            "fig7b_ports",
            "Figure 7(b): speedup vs load/store ports (MSHRs scaled along), 2 threads, MMT-FXR \
             geomean over all apps",
            4,
            &[2, 4, 6, 8, 12],
            |c, v| {
                c.lsq_ports = v;
                c.hierarchy.mshrs = 2 * v;
            },
        ),
        knob(
            "fig7d_width",
            "Figure 7(d): speedup vs fetch width, 2 threads, MMT-FXR geomean over all apps",
            4,
            &[4, 8, 16, 32],
            |c, v| c.fetch_width = v,
        ),
        figure("ablation_sync", sync_runs, ablation_sync),
        knob(
            "ablation_align",
            "Ablation: merge-alignment slack (instructions) (2 threads, MMT-FXR geomean speedup \
             over Base)",
            6,
            &[16, 64, 256, 1024, 4096],
            |c, v| c.merge_alignment_slack = v as u64,
        ),
        knob(
            "ablation_lvip",
            "Ablation: LVIP entries (2 threads, MMT-FXR geomean speedup over Base)",
            6,
            &[64, 512, 4096],
            |c, v| c.lvip_entries = v,
        ),
        figure(
            "ablation_fetchstyle",
            fetch_style_runs,
            ablation_fetch_style,
        ),
        knob(
            "ablation_prefetch",
            "Ablation: next-line prefetch (0=off, 1=on) (2 threads, MMT-FXR geomean speedup over \
             Base)",
            6,
            &[0, 1],
            |c, v| c.hierarchy.prefetch = v != 0,
        ),
        figure("ablation_barrier", barrier_runs, ablation_barrier),
        knob(
            "ablation_fetchpolicy",
            "Ablation: fetch policy (0=ICOUNT, 1=round-robin) (2 threads, MMT-FXR geomean \
             speedup over Base)",
            6,
            &[0, 1],
            |c, v| c.fetch_policy = [FetchPolicy::ICount, FetchPolicy::RoundRobin][v],
        ),
    ]
}

/// The figures named in a comma-separated `--figure` list, in table
/// order whatever the list order (so run labels are deterministic).
///
/// # Errors
///
/// The first unknown name, with the valid ones listed.
pub fn select(names: &str) -> Result<Vec<Figure>, String> {
    let wanted: Vec<&str> = names.split(',').map(str::trim).collect();
    let all = figures();
    if let Some(bad) = wanted.iter().find(|n| !all.iter().any(|f| f.name == **n)) {
        let valid: Vec<&str> = all.iter().map(|f| f.name).collect();
        return Err(format!(
            "unknown figure '{bad}'; valid: {}",
            valid.join(", ")
        ));
    }
    Ok(all
        .into_iter()
        .filter(|f| wanted.contains(&f.name))
        .collect())
}

// ---------------------------------------------------------------------
// Figures 1 and 2, Table 3
// ---------------------------------------------------------------------

/// Figure 1 (+ Table 1): execute-/fetch-/not-identical fractions by
/// trace alignment. Paper: ~88% fetch-identical, ~35% execute-identical.
fn fig1(cx: &Ctx, out: &mut String) -> fmt::Result {
    writeln!(out, "Figure 1: instruction sharing breakdown (2 threads)")?;
    writeln!(out, "app                suite  exe-id% fetch-id%  not-id%")?;
    let (mut exe_sum, mut fid_sum) = (0.0, 0.0);
    for (app, p) in cx.apps.iter().zip(cx.profiles()) {
        let (e, f, n) = p.fractions();
        exe_sum += e;
        fid_sum += e + f;
        let (e, fid, n) = (e * 100.0, (e + f) * 100.0, n * 100.0);
        writeln!(
            out,
            "{:<14} {:>9} {e:>8.1} {fid:>9.1} {n:>8.1}",
            app.name,
            app.suite.name()
        )?;
    }
    let n = cx.apps.len() as f64;
    let (e, fid) = (exe_sum / n * 100.0, fid_sum / n * 100.0);
    writeln!(out, "{:<14} {:>9} {e:>8.1} {fid:>9.1}", "average", "")?;
    writeln!(
        out,
        "\n(paper: ~35% execute-identical, ~88% fetch-identical on average)"
    )
}

/// Figure 2: cumulative histogram of divergent-path length differences.
/// Paper: >85% within 16 taken branches for all but equake and vortex.
fn fig2(cx: &Ctx, out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "Figure 2: divergent path length differences (taken branches, 2 threads)"
    )?;
    write!(out, "{:<14} {:>6}", "app", "divs")?;
    for b in DIVERGENCE_BUCKETS {
        if b == u64::MAX {
            write!(out, " {:>6}", ">512")?;
        } else {
            write!(out, " {:>5}{}", "<=", b)?;
        }
    }
    writeln!(out)?;
    for (app, p) in cx.apps.iter().zip(cx.profiles()) {
        let total: u64 = p.divergence_diff_histogram.iter().sum::<u64>().max(1);
        write!(out, "{:<14} {:>6}", app.name, p.divergences)?;
        let mut cum = 0;
        for c in p.divergence_diff_histogram {
            cum += c;
            write!(out, " {:>6.1}", cum as f64 / total as f64 * 100.0)?;
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "\n(cumulative %; paper: >=85% within 16 for all but equake and vortex)"
    )
}

/// Table 3: conservative hardware-cost estimate of the MMT additions.
fn table3(_: &Ctx, out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "Table 3: Conservative Estimate of Hardware Requirements"
    )?;
    writeln!(
        out,
        "{:<11} {:<38} {:>14} {:>8}",
        "Component", "Description", "Area", "Delay"
    )?;
    for c in TABLE3 {
        writeln!(
            out,
            "{:<11} {:<38} {:>14} {:>8}",
            c.name, c.description, c.area, c.delay
        )?;
    }
    let bits = total_storage_bits();
    writeln!(
        out,
        "\nTotal storage: {bits} bits ({:.1} KiB)",
        bits as f64 / 8.0 / 1024.0
    )
}

// ---------------------------------------------------------------------
// Figures 5 and 6
// ---------------------------------------------------------------------

/// Per app: Base, MMT-F, MMT-FX, MMT-FXR (traced), then
/// Base and MMT-FXR on the Limit workload, which runs different work so has its own Base.
fn fig5_runs(cx: &Ctx, threads: usize) -> Vec<Run> {
    let mut runs = Vec::new();
    for app in &cx.apps {
        let w = cx.native(app, threads);
        runs.extend(MmtLevel::ALL.map(|level| Run {
            traced: level == MmtLevel::Fxr,
            ..run(&w, "", level, |_| {})
        }));
        runs.extend(pair(&cx.limit(app, threads), "", |_| {}));
    }
    runs
}

/// Figures 5(a)/(c): speedup of MMT-F, MMT-FX, MMT-FXR and Limit over
/// Base SMT. Paper: geomean MMT-FXR ~1.15 (2 threads) and ~1.25 (4);
/// Limit strictly above FXR.
fn fig5(cx: &Ctx, threads: usize, stats: &[&SimStats], out: &mut String) -> fmt::Result {
    let part = if threads == 2 { 'a' } else { 'c' };
    writeln!(
        out,
        "Figure 5({part}): speedup over Base SMT, {threads} threads"
    )?;
    writeln!(out, "app              MMT-F  MMT-FX  MMT-FXR   Limit")?;
    let mut cols: [Vec<f64>; 4] = Default::default();
    for (app, s) in cx.apps.iter().zip(stats.chunks(6)) {
        let row = [1, 2, 3].map(|i| speedup(s[0], s[i]));
        let [f, fx, fxr, limit] = [row[0], row[1], row[2], speedup(s[4], s[5])];
        writeln!(
            out,
            "{:<14} {f:>7.3} {fx:>7.3} {fxr:>8.3} {limit:>7.3}",
            app.name
        )?;
        for (col, v) in cols.iter_mut().zip([f, fx, fxr, limit]) {
            col.push(v);
        }
    }
    let [f, fx, fxr, limit] = cols.map(|c| geomean(&c));
    writeln!(
        out,
        "{:<14} {f:>7.3} {fx:>7.3} {fxr:>8.3} {limit:>7.3}",
        "geomean"
    )
}

/// Every app's 2-thread MMT-FXR run.
fn fxr_runs(cx: &Ctx) -> Vec<Run> {
    let fxr = |app| run(&cx.native(app, THREADS), "", MmtLevel::Fxr, |_| {});
    cx.apps.iter().map(fxr).collect()
}

/// Figure 5(b): instructions the hardware identified as fetch- /
/// execute-identical (+ register-merge-assisted). Paper: ~60% of
/// fetch-identical instructions tracked, almost half execute-identical.
fn fig5b(cx: &Ctx, stats: &[&SimStats], out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "Figure 5(b): identified identical instructions, {THREADS} threads, MMT-FXR"
    )?;
    writeln!(
        out,
        "app              exe-id%   exe+rm%   fetch-id%  private%"
    )?;
    for (app, s) in cx.apps.iter().zip(stats) {
        let id = &s.identity;
        let pct = |n: u64| n as f64 / id.total().max(1) as f64 * 100.0;
        let (e, rm) = (
            pct(id.execute_identical),
            pct(id.execute_identical_regmerge),
        );
        let (f, p) = (pct(id.fetch_identical), pct(id.private));
        writeln!(
            out,
            "{:<14} {e:>9.1} {rm:>9.1} {f:>11.1} {p:>9.1}",
            app.name
        )?;
    }
    Ok(())
}

/// Figure 5(d): fetched instructions by fetch mode, plus Section 6.3's
/// remerge distance ("90% within 512 branches").
fn fig5d(cx: &Ctx, stats: &[&SimStats], out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "Figure 5(d): fetch-mode breakdown, {THREADS} threads, MMT-FXR"
    )?;
    writeln!(
        out,
        "app              merge%  detect%  catchup%   divs remerges   <=512 tb"
    )?;
    for (app, s) in cx.apps.iter().zip(stats) {
        let (m, d, c) = s.fetch_modes.fractions();
        let (m, d, c) = (m * 100.0, d * 100.0, c * 100.0);
        let within = s.remerges_within(512) * 100.0;
        writeln!(
            out,
            "{:<14} {m:>8.1} {d:>8.1} {c:>9.1} {:>6} {:>8} {within:>9.0}%",
            app.name, s.divergences, s.remerges
        )?;
    }
    writeln!(
        out,
        "\n(paper: ~90% of remerge points found within 512 taken branches)"
    )
}

/// Per app: Base and MMT-FXR at 2 threads, then at 4.
fn fig6_runs(cx: &Ctx) -> Vec<Run> {
    let both = |app| [2, 4].map(|t| pair(&cx.native(app, t), "", |_| {}));
    cx.apps.iter().flat_map(both).flatten().collect()
}

/// Figure 6: energy per job, normalized to 2-thread SMT. Paper: MMT
/// overhead < 2%; 4-thread MMT at 50–90% of SMT's energy (geomean ~66%).
fn fig6(cx: &Ctx, stats: &[&SimStats], out: &mut String) -> fmt::Result {
    let model = EnergyModel::default();
    writeln!(
        out,
        "Figure 6: energy per job, normalized to SMT (2 threads)"
    )?;
    writeln!(
        out,
        "app              SMT-2   MMT-2   SMT-4   MMT-4     ovh-2 %   ovh-4 %"
    )?;
    let mut ratios4 = Vec::new();
    for (app, s) in cx.apps.iter().zip(stats.chunks(4)) {
        // Jobs per run: each process of a multi-execution workload is a
        // job, and each thread of a *replicated-sweep* multi-threaded
        // kernel performs the full sweep (more threads = more work), so
        // both normalize per thread; only block-partitioned kernels
        // split one problem across threads. This keeps 2- and 4-thread
        // runs comparable (the paper's Section 5 scaling rules).
        let energy = |s: &SimStats, threads: u64| {
            let e = model.energy(&s.energy);
            let jobs = if app.spec.index_partitioned {
                1
            } else {
                threads
            };
            (e.total() / jobs as f64, e.overhead_fraction() * 100.0)
        };
        let [(smt2, _), (mmt2, ovh2), (smt4, _), (mmt4, ovh4)] =
            [(0, 2), (1, 2), (2, 4), (3, 4)].map(|(i, t)| energy(s[i], t));
        ratios4.push(mmt4 / smt4);
        let (m2, s4, m4) = (mmt2 / smt2, smt4 / smt2, mmt4 / smt2);
        writeln!(
            out,
            "{:<14} {:>7.3} {m2:>7.3} {s4:>7.3} {m4:>7.3}   {ovh2:>8.2}% {ovh4:>8.2}%",
            app.name, 1.0
        )?;
    }
    let g = geomean(&ratios4);
    writeln!(
        out,
        "\nMMT-4 / SMT-4 energy geomean: {g:.3} (paper: ~0.66, range 0.50-0.90)"
    )
}

// ---------------------------------------------------------------------
// Figure 7(a)/(c) and the studies that are not a plain knob sweep
// ---------------------------------------------------------------------

const FHB_SIZES: [usize; 5] = [8, 16, 32, 64, 128];

/// Per app, per FHB size: Base and MMT-FXR.
fn fig7_fhb_runs(cx: &Ctx) -> Vec<Run> {
    let sizes = |app| {
        let w = cx.native(app, THREADS);
        FHB_SIZES.map(|s| pair(&w, &format!("fhb{s}"), |c| c.fhb_entries = s))
    };
    cx.apps.iter().flat_map(sizes).flatten().collect()
}

/// Figures 7(a)/(c): MMT-FXR speedup and fetch-mode mix per FHB size.
/// Paper: small gains through 32–128 entries; twolf and water-sp dip.
fn fig7_fhb(cx: &Ctx, stats: &[&SimStats], out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "Figure 7(a)/(c): FHB size sweep, {THREADS} threads, MMT-FXR"
    )?;
    write!(out, "{:<14}", "app")?;
    for s in FHB_SIZES {
        write!(out, "  {s:>5}e m/d/c")?;
    }
    writeln!(out)?;
    for (app, row) in cx.apps.iter().zip(stats.chunks(2 * FHB_SIZES.len())) {
        write!(out, "{:<14}", app.name)?;
        for p in row.chunks(2) {
            let (m, d, c) = p[1].fetch_modes.fractions();
            let (m, d, c) = (m * 100.0, d * 100.0, c * 100.0);
            write!(
                out,
                " {:>5.2} {m:>2.0}/{d:>2.0}/{c:>2.0}",
                speedup(p[0], p[1])
            )?;
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "\n(speedup then %insts fetched in MERGE/DETECT/CATCHUP per FHB size)"
    )
}

/// Per app: Base, MMT-FXR with the FHB, and MMT-FXR with the workload's
/// software remerge hints instead.
fn sync_runs(cx: &Ctx) -> Vec<Run> {
    let runs = |app| {
        let w = cx.native(app, THREADS);
        let [base, fhb] = pair(&w, "", |_| {});
        let hints = run(&w, "hints", MmtLevel::Fxr, |c| {
            c.sync_policy = SyncPolicy::SoftwareHints;
            c.remerge_hints = w.instance.remerge_hints.clone();
        });
        [base, fhb, hints]
    };
    cx.apps.iter().flat_map(runs).collect()
}

/// FHB hardware vs Thread Fusion-style software remerge hints (the
/// paper's closest related work, Section 2).
fn ablation_sync(cx: &Ctx, stats: &[&SimStats], out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "Ablation: FHB hardware vs software remerge hints ({THREADS} threads, MMT-FXR speedup \
         over Base)"
    )?;
    writeln!(
        out,
        "app                 FHB    hints   FHB mrg%  hint mrg%"
    )?;
    let (mut fhbs, mut hints) = (Vec::new(), Vec::new());
    for (app, s) in cx.apps.iter().zip(stats.chunks(3)) {
        let (fhb, hint) = (speedup(s[0], s[1]), speedup(s[0], s[2]));
        fhbs.push(fhb);
        hints.push(hint);
        let [m_fhb, m_hint] = [s[1], s[2]].map(|s| s.fetch_modes.fractions().0 * 100.0);
        writeln!(
            out,
            "{:<14} {fhb:>8.3} {hint:>8.3} {m_fhb:>9.1}% {m_hint:>9.1}%",
            app.name
        )?;
    }
    writeln!(
        out,
        "{:<14} {:>8.3} {:>8.3}   (paper: the hardware FHB removes the need for hints;\n\
         {:>14} comparable results validate that claim)",
        "geomean",
        geomean(&fhbs),
        geomean(&hints),
        ""
    )
}

const FETCH_STYLES: [FetchStyle; 2] = [FetchStyle::TraceCache, FetchStyle::Conventional];

/// Per fetch style, per app: Base and MMT-FXR.
fn fetch_style_runs(cx: &Ctx) -> Vec<Run> {
    let grid = FETCH_STYLES
        .iter()
        .flat_map(|&style| cx.apps.iter().map(move |app| (style, app)));
    let runs = |(style, app)| {
        pair(&cx.native(app, THREADS), &format!("{style:?}"), |c| {
            c.fetch_style = style
        })
    };
    grid.flat_map(runs).collect()
}

/// Trace-cache vs conventional fetch (paper §5: "negligible effect").
fn ablation_fetch_style(cx: &Ctx, stats: &[&SimStats], out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "Ablation: trace-cache vs conventional fetch ({THREADS} threads; paper §5 reports the \
         difference is negligible)"
    )?;
    writeln!(out, "app                 trace  conventional")?;
    for (style, chunk) in FETCH_STYLES.iter().zip(stats.chunks(2 * cx.apps.len())) {
        writeln!(out, "geomean {style:?}: {:.3}", geomean(&speedups(chunk)))?;
    }
    Ok(())
}

/// Multi-threaded apps: barriers need shared memory.
fn shared_apps(cx: &Ctx) -> impl Iterator<Item = &App> {
    cx.apps
        .iter()
        .filter(|app| app.sharing() == MemSharing::Shared)
}

/// Per multi-threaded app: Base and MMT-FXR free-running, then with a
/// barrier every 8 outer iterations.
fn barrier_runs(cx: &Ctx) -> Vec<Run> {
    let runs = |app| [cx.native(app, THREADS), cx.barriered(app, 8)].map(|w| pair(&w, "", |_| {}));
    shared_apps(cx).flat_map(runs).flatten().collect()
}

/// Barrier-phased kernels vs free-running ones (paper §4.4: barriers
/// are natural re-alignment points).
fn ablation_barrier(cx: &Ctx, stats: &[&SimStats], out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "Ablation: barrier-phased kernels ({THREADS} threads, MMT-FXR speedup over Base, \
         MERGE residency)"
    )?;
    writeln!(
        out,
        "app                  free  barriered  free mrg%  barr mrg%"
    )?;
    for (app, s) in shared_apps(cx).zip(stats.chunks(4)) {
        let (free, barr) = (speedup(s[0], s[1]), speedup(s[2], s[3]));
        let [m_free, m_barr] = [s[1], s[3]].map(|s| s.fetch_modes.fractions().0 * 100.0);
        writeln!(
            out,
            "{:<14} {free:>10.3} {barr:>10.3} {m_free:>9.1}% {m_barr:>9.1}%",
            app.name
        )?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Regeneration
// ---------------------------------------------------------------------

/// How to regenerate: the `mmtfigs` flags, parsed.
pub struct Options {
    /// Figures to regenerate, in table order.
    pub figures: Vec<Figure>,
    /// Iteration divisor for app instances.
    pub scale: u64,
    /// Worker-pool size.
    pub jobs: usize,
    /// Per-run result cache, keyed by timing-model, run-spec and
    /// effective-config digest.
    pub resume: Option<ResumeDir>,
    /// Where Figure 5(a)/(c)'s MMT-FXR runs drop pipeline traces.
    pub trace_dir: Option<PathBuf>,
    /// Per-run wall-clock deadline.
    pub deadline: Option<Duration>,
}

/// One finished run, as the resume cache stores it.
struct Finished {
    telemetry: RunTelemetry,
    stats: SimStats,
}
mmt_obs::impl_json! { Finished { telemetry, stats } }

/// Simulate one distinct run, or load it from the resume cache (then
/// the flag is set). A run that writes a trace under `trace_dir` always
/// simulates, since the cache holds no traces, and still stores its
/// result. The step loop is [`Simulator::run`]'s, plus a `deadline`
/// check every [`DEADLINE_CHECK_EVERY`] cycles.
fn execute(
    run: &Run,
    cache: Option<&ResumeDir>,
    trace_dir: Option<&Path>,
    deadline: Option<Duration>,
) -> Result<(Finished, bool), (FailureKind, String)> {
    let key = run.cache_key(MODEL_DIGEST);
    let trace_dir = trace_dir.filter(|_| run.traced);
    let cached = cache.filter(|_| trace_dir.is_none());
    if let Some(mut hit) = cached.and_then(|c| Finished::from_json(&c.load(&key)?)) {
        // The key names the simulation, not the figure that first asked.
        hit.telemetry.label = run.label.clone();
        return Ok((hit, true));
    }
    let mut cfg = run.cfg.clone();
    if trace_dir.is_some() {
        cfg.trace = Some(mmt_sim::TraceConfig {
            ring_capacity: 1 << 20,
            window: 4096,
        });
    }
    let failed = |e: String| (FailureKind::Error, format!("{}: {e}", run.label));
    let started = Instant::now();
    let mut sim = Simulator::new(cfg, to_run_spec(run.workload.instance.clone()))
        .map_err(|e| failed(format!("invalid config/spec: {e}")))?;
    while !sim.finished() {
        if let Some(limit) = deadline {
            if sim.now() % DEADLINE_CHECK_EVERY == 0 && started.elapsed() > limit {
                let message = format!(
                    "{}: stopped at cycle {} after missing the {limit:?} deadline",
                    run.label,
                    sim.now()
                );
                return Err((FailureKind::Timeout, message));
            }
        }
        sim.step_cycle().map_err(|e| failed(e.to_string()))?;
    }
    let result = sim.finish();
    if let (Some(dir), Some(trace)) = (trace_dir, &result.trace) {
        if let Err(e) = write_trace_files(dir, &run.label, trace) {
            eprintln!("warning: trace for {} not written: {e}", run.label);
        }
    }
    let telemetry = RunTelemetry::new(run.label.clone(), started.elapsed(), &result.stats);
    let done = Finished {
        telemetry,
        stats: result.stats,
    };
    if let Some(Err(e)) = cache.map(|c| c.store(&key, &done)) {
        eprintln!("warning: resume cache for {} not written: {e}", run.label);
    }
    Ok((done, false))
}

/// Regenerate `opts.figures` into cwd-relative `results/`: plan every
/// figure's runs, simulate each distinct run key once, render, and
/// write the BENCH report and a ledger record. Progress and failures go
/// to stderr. Returns whether every figure was written; a figure with a
/// failed run is skipped.
pub fn regenerate(opts: &Options) -> bool {
    let t0 = Instant::now();
    let cx = Ctx::new(opts.scale, opts.jobs);

    // Plan: each figure's runs, as indices into the distinct runs.
    let mut distinct: Vec<Run> = Vec::new();
    let mut index: HashMap<RunKey, usize> = HashMap::new();
    let mut requested = 0;
    let mut plans = Vec::new();
    for fig in &opts.figures {
        let runs = (fig.runs)(&cx);
        requested += runs.len();
        let plan: Vec<usize> = runs
            .into_iter()
            .map(|r| {
                let i = *index.entry(r.key()).or_insert(distinct.len());
                if i == distinct.len() {
                    distinct.push(r);
                } else {
                    distinct[i].traced |= r.traced;
                }
                i
            })
            .collect();
        plans.push(plan);
    }
    eprintln!(
        "mmtfigs: {} distinct runs for {requested} requested",
        distinct.len()
    );

    let (cache, trace_dir, deadline) = (
        opts.resume.as_ref(),
        opts.trace_dir.as_deref(),
        opts.deadline,
    );
    let results = run_supervised(
        &distinct,
        opts.jobs,
        |r| r.label.clone(),
        |r| execute(r, cache, trace_dir, deadline),
    );
    let hits = results
        .iter()
        .filter(|r| matches!(r, Ok((_, true))))
        .count();
    if opts.resume.is_some() {
        let all = distinct.len();
        eprintln!(
            "resume: {hits} of {all} runs loaded from cache; {} simulated",
            all - hits
        );
    }

    let mut ok = true;
    for (fig, plan) in opts.figures.iter().zip(&plans) {
        let stats: Result<Vec<&SimStats>, &PointFailure> = plan
            .iter()
            .map(|&i| results[i].as_ref().map(|(f, _)| &f.stats))
            .collect();
        let written = stats
            .map_err(|f| format!("run {} failed ({}): {}", f.label, f.kind.name(), f.message))
            .and_then(|stats| {
                let mut text = String::new();
                (fig.render)(&cx, &stats, &mut text).expect("writing to a String cannot fail");
                std::fs::create_dir_all("results")
                    .and_then(|()| std::fs::write(format!("results/{}.txt", fig.name), text))
                    .map_err(|e| e.to_string())
            });
        match written {
            Ok(()) => eprintln!("wrote results/{}.txt", fig.name),
            Err(e) => {
                eprintln!("error: {} not written: {e}", fig.name);
                ok = false;
            }
        }
    }

    // The grid's thread counts: its runs' and, when Figures 1 and 2 were
    // rendered, their 2-thread profiles'.
    let profiled = cx.profiles.get().map(|_| THREADS);
    let mut threads: Vec<usize> = distinct.iter().map(|r| r.cfg.threads).collect();
    threads.extend(profiled);
    threads.sort_unstable();
    threads.dedup();
    let (mut telemetry, mut failures, mut cycles) = (Vec::new(), Vec::new(), 0);
    for result in results {
        match result {
            Ok((done, _)) => {
                cycles += done.telemetry.cycles;
                telemetry.push(done.telemetry);
            }
            Err(fail) => failures.push(fail),
        }
    }
    let failed = failures.len();
    let report =
        BenchReport::new("figs", opts.jobs, t0.elapsed(), telemetry).with_failures(failures);
    match report.write() {
        Ok(p) => eprintln!("wrote {}", p.display()),
        Err(e) => eprintln!("warning: telemetry not written: {e}"),
    }
    // A selection that neither simulates nor profiles (`table3_hw`) has
    // no grid to record. Throughput over a partly cached grid is not
    // comparable with a cold one, so it counts as unmeasured (0).
    if !threads.is_empty() {
        let wall = t0.elapsed().as_secs_f64();
        let cps = if hits == 0 {
            cycles as f64 / wall.max(1e-9)
        } else {
            0.0
        };
        let names: Vec<&str> = opts.figures.iter().map(|f| f.name).collect();
        LedgerRecord::new(
            "mmtfigs",
            cx.apps.len(),
            &threads,
            opts.scale,
            wall * 1e3,
            cps,
            failed,
        )
        .keyed_by(&[&names.join(",")])
        .append_or_warn();
    }
    ok && failed == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SMOKE_SCALE;

    #[test]
    fn figure_names_are_unique_and_selectable() {
        let all: Vec<&str> = figures().iter().map(|f| f.name).collect();
        let picked = select(&all.join(",")).unwrap();
        assert_eq!(picked.len(), 18);
        let Err(err) = select("fig5a_speedup_2t,nope") else {
            panic!("unknown figure accepted")
        };
        assert!(
            err.contains("'nope'") && err.contains("ablation_barrier"),
            "{err}"
        );
        // Table order, not argument order.
        let two = select("fig6_energy,table3_hw").unwrap();
        assert_eq!(two[0].name, "table3_hw");
    }

    #[test]
    fn paper_figures_share_their_runs() {
        let cx = Ctx::new(SMOKE_SCALE, 1);
        let mut keys = std::collections::HashSet::new();
        let mut requested = 0;
        for fig in &figures()[..11] {
            for r in (fig.runs)(&cx) {
                requested += 1;
                keys.insert(r.key());
            }
        }
        assert_eq!((keys.len(), requested), (30 * 16, 46 * 16));
    }

    #[test]
    fn resume_entries_of_another_model_are_simulated_again() {
        let cx = Ctx::new(SMOKE_SCALE, 1);
        let r = run(&cx.native(&cx.apps[0], 2), "", MmtLevel::Base, |_| {});
        let dir = std::env::temp_dir().join(format!("mmt-figs-model-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResumeDir::open(&dir).unwrap();
        let (fresh, hit) = execute(&r, Some(&cache), None, None).unwrap();
        assert!(!hit);
        // What an older model would have left: other statistics, stored
        // under its own fingerprint only.
        std::fs::remove_file(dir.join(format!("{}.point.json", r.cache_key(MODEL_DIGEST))))
            .unwrap();
        let mut stale = fresh.stats.clone();
        stale.cycles += 1;
        let old = Finished {
            telemetry: RunTelemetry::new(r.label.clone(), Duration::ZERO, &stale),
            stats: stale,
        };
        cache.store(&r.cache_key(MODEL_DIGEST ^ 1), &old).unwrap();
        let (again, hit) = execute(&r, Some(&cache), None, None).unwrap();
        assert!(!hit, "an entry of another model was served");
        let same = |a: &SimStats| format!("{a:?}") == format!("{:?}", fresh.stats);
        assert!(same(&again.stats));
        // The run just stored under the current model is served.
        let (cached, hit) = execute(&r, Some(&cache), None, None).unwrap();
        assert!(hit);
        assert!(same(&cached.stats));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn traced_runs_skip_the_cache_but_fill_it() {
        let cx = Ctx::new(SMOKE_SCALE, 1);
        let r = Run {
            traced: true,
            ..run(&cx.native(&cx.apps[0], 2), "", MmtLevel::Fxr, |_| {})
        };
        let dir = std::env::temp_dir().join(format!("mmt-figs-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResumeDir::open(dir.join("rd")).unwrap();
        let files = |d: &Path| std::fs::read_dir(d).map_or(0, |d| d.count());
        let (t1, t2) = (dir.join("t1"), dir.join("t2"));
        let (fresh, hit) = execute(&r, Some(&cache), Some(&t1), None).unwrap();
        assert!(!hit);
        assert_eq!(files(&t1), 3);
        // A warm cache must not swallow the second directory's traces.
        let (again, hit) = execute(&r, Some(&cache), Some(&t2), None).unwrap();
        assert!(!hit, "a traced run was served from the cache");
        assert_eq!(files(&t2), 3);
        // Without a trace directory the stored result is served.
        let (cached, hit) = execute(&r, Some(&cache), None, None).unwrap();
        assert!(hit);
        let same = |a: &SimStats| format!("{a:?}") == format!("{:?}", fresh.stats);
        assert!(same(&again.stats) && same(&cached.stats));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deadline_miss_becomes_a_timeout_failure() {
        let cx = Ctx::new(SMOKE_SCALE, 1);
        let r = run(&cx.native(&cx.apps[0], 2), "", MmtLevel::Base, |_| {});
        let Err((kind, message)) = execute(&r, None, None, Some(Duration::from_nanos(1))) else {
            panic!("a run finished inside a 1 ns deadline")
        };
        assert_eq!(kind, FailureKind::Timeout);
        assert!(
            message.starts_with(&r.label) && message.contains("1ns deadline"),
            "{message}"
        );
        // A deadline the run meets changes nothing.
        let (done, _) = execute(&r, None, None, Some(Duration::from_secs(3600))).unwrap();
        let (plain, _) = execute(&r, None, None, None).unwrap();
        assert_eq!(format!("{:?}", done.stats), format!("{:?}", plain.stats));
    }

    #[test]
    fn run_keys_separate_everything_effective_keeps() {
        let cx = Ctx::new(SMOKE_SCALE, 1);
        let (ammp, mcf) = (&cx.apps[0], &cx.apps[2]);
        let w = cx.native(ammp, 2);
        let fxr = run(&w, "", MmtLevel::Fxr, |_| {});
        let key = fxr.key();
        let rekey = |tweak: fn(&mut SimConfig)| {
            let mut r = fxr.clone();
            tweak(&mut r.cfg);
            r.key()
        };

        // The level, the thread count and the program each split keys.
        assert_ne!(run(&w, "", MmtLevel::Base, |_| {}).key(), key);
        assert_ne!(
            run(&cx.native(ammp, 4), "", MmtLevel::Fxr, |_| {}).key(),
            key
        );
        assert_ne!(
            run(&cx.native(mcf, 2), "", MmtLevel::Fxr, |_| {}).key(),
            key
        );
        assert_ne!(
            run(&cx.limit(ammp, 2), "", MmtLevel::Fxr, |_| {}).key(),
            key
        );
        // Labels and tracing requests do not.
        assert_eq!(run(&w, "x", MmtLevel::Fxr, |_| {}).key(), key);

        // Every SimConfig field splits keys. The destructuring below
        // fails to compile when a field is added, so it gets a row too.
        let SimConfig {
            threads: _,
            fetch_width: _,
            max_fetch_threads: _,
            rename_width: _,
            issue_width: _,
            commit_width: _,
            rob_size: _,
            lsq_size: _,
            iq_size: _,
            int_alus: _,
            fpus: _,
            lsq_ports: _,
            decode_latency: _,
            redirect_penalty: _,
            fhb_entries: _,
            lvip_entries: _,
            merge_checks_per_cycle: _,
            merge_alignment_slack: _,
            predictor: _,
            btb_entries: _,
            ras_depth: _,
            hierarchy: _,
            fetch_style: _,
            level: _,
            sync_policy: _,
            fetch_policy: _,
            remerge_hints: _,
            hint_wait_limit: _,
            max_cycles: _,
            watchdog: _,
            record_merge_log: _,
            record_pc_profile: _,
            trace: _,
            metrics: _,
        } = SimConfig::paper();
        type Tweak = (&'static str, fn(&mut SimConfig));
        let tweaks: [Tweak; 34] = [
            ("threads", |c| c.threads = 3),
            ("fetch_width", |c| c.fetch_width = 16),
            ("max_fetch_threads", |c| c.max_fetch_threads = 1),
            ("rename_width", |c| c.rename_width = 4),
            ("issue_width", |c| c.issue_width = 4),
            ("commit_width", |c| c.commit_width = 4),
            ("rob_size", |c| c.rob_size = 128),
            ("lsq_size", |c| c.lsq_size = 32),
            ("iq_size", |c| c.iq_size = 32),
            ("int_alus", |c| c.int_alus = 4),
            ("fpus", |c| c.fpus = 2),
            ("lsq_ports", |c| c.lsq_ports = 2),
            ("decode_latency", |c| c.decode_latency = 2),
            ("redirect_penalty", |c| c.redirect_penalty = 4),
            ("fhb_entries", |c| c.fhb_entries = 8),
            ("lvip_entries", |c| c.lvip_entries = 64),
            ("merge_checks_per_cycle", |c| c.merge_checks_per_cycle = 4),
            ("merge_alignment_slack", |c| c.merge_alignment_slack = 16),
            ("predictor", |c| c.predictor.entries = 512),
            ("btb_entries", |c| c.btb_entries = 1024),
            ("ras_depth", |c| c.ras_depth = 8),
            ("hierarchy", |c| c.hierarchy.mshrs += 1),
            ("fetch_style", |c| c.fetch_style = FetchStyle::Conventional),
            ("level", |c| c.level = MmtLevel::Fx),
            ("sync_policy", |c| c.sync_policy = SyncPolicy::SoftwareHints),
            ("fetch_policy", |c| c.fetch_policy = FetchPolicy::RoundRobin),
            ("remerge_hints", |c| c.remerge_hints = vec![4]),
            ("hint_wait_limit", |c| c.hint_wait_limit = 100),
            ("max_cycles", |c| c.max_cycles = 1_000),
            ("watchdog", |c| c.watchdog.livelock_window = 10),
            ("record_merge_log", |c| c.record_merge_log = true),
            ("record_pc_profile", |c| c.record_pc_profile = true),
            ("trace", |c| c.trace = Some(mmt_sim::TraceConfig::default())),
            ("metrics", |c| c.metrics = true),
        ];
        for (name, tweak) in tweaks {
            assert_ne!(rekey(tweak), key, "{name} must split run keys");
        }

        // At Base, the fields `effective()` resets merge keys.
        let base = run(&w, "", MmtLevel::Base, |_| {});
        for tweak in [
            |c: &mut SimConfig| c.fhb_entries = 8,
            |c: &mut SimConfig| c.lvip_entries = 64,
            |c: &mut SimConfig| c.merge_alignment_slack = 16,
        ] {
            let mut r = base.clone();
            tweak(&mut r.cfg);
            assert_eq!(r.key(), base.key());
        }
    }
}
