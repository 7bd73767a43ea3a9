//! Parallel sweep harness + benchmark telemetry.
//!
//! `mmtfigs` and `mmtgate` sweep independent `(app, threads,
//! SimConfig)` grids; [`run_parallel`] fans those simulations out across
//! a scoped worker pool (std::thread only — no external dependencies) while
//! keeping result order deterministic: results come back in item order
//! no matter which worker finished first, so figure output is
//! byte-identical at any pool size.
//!
//! The telemetry half records one [`RunTelemetry`] per simulation
//! (wall-clock, cycles simulated, sim-cycles/sec, peak uop-arena
//! footprint) and writes a machine-readable `results/BENCH_<figure>.json`
//! per sweep so the perf trajectory is tracked PR-over-PR.
//!
//! The failure half (DESIGN.md §15): [`run_supervised`] runs each point
//! on its pool worker under `catch_unwind`, so a point that panics or
//! returns an error becomes a typed [`PointFailure`] record in the
//! figure's BENCH JSON instead of killing the sweep. The simulator is
//! deterministic, so a failed point is not retried. [`ResumeDir`]
//! caches each completed point on disk (atomic tmp + rename), so a
//! sweep killed mid-run resumes from the last completed point
//! (`--resume-dir`) and still produces byte-identical canonical output.

use mmt_obs::json::{to_json, ToJson, Value};
use mmt_sim::{SimStats, Trace};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Worker count when `--jobs` is not given: one per available core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parse `--jobs N` (defaulting to [`default_jobs`]); anything but a
/// whole number is a usage error (see [`crate::cli::fail_usage`]).
pub fn jobs_arg(args: &[String], json: bool) -> usize {
    match crate::arg_value(args, "--jobs") {
        None => default_jobs(),
        Some(v) => v.parse::<usize>().unwrap_or_else(|_| {
            crate::cli::fail_usage(json, format!("--jobs takes a number, got '{v}'"))
        }),
    }
    .max(1)
}

/// Run `f` over every item on `jobs` scoped worker threads, returning
/// results in item order (deterministic regardless of completion order
/// or pool size). Jobs must be independent; panics in `f` propagate.
pub fn run_parallel<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let jobs = jobs.clamp(1, items.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

/// Why a grid point was recorded as failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The point's closure panicked (caught by `catch_unwind`).
    Panic,
    /// The point missed its wall-clock deadline and stopped.
    Timeout,
    /// The point returned a typed error (e.g. a `SimError` such as a
    /// watchdog firing).
    Error,
}

impl FailureKind {
    /// Stable lower-case name used in BENCH JSON.
    pub fn name(&self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Timeout => "timeout",
            FailureKind::Error => "error",
        }
    }
}

impl ToJson for FailureKind {
    fn write_json(&self, out: &mut String) {
        self.name().write_json(out);
    }
}

/// A grid point that failed: recorded in the BENCH report instead of
/// aborting the sweep's sibling points.
#[derive(Debug, Clone)]
pub struct PointFailure {
    /// Which grid point failed (same namespace as [`RunTelemetry::label`]).
    pub label: String,
    /// Failure class (panic / timeout / typed error).
    pub kind: FailureKind,
    /// Human-readable cause: the panic message, deadline, or error text.
    pub message: String,
}
mmt_obs::impl_to_json! { PointFailure { label, kind, message } }

/// Parse `--progress PATH`: when present, `mmtgate` streams per-case
/// `start`/`finish` records to PATH as JSONL, so a multi-minute run is
/// observable while it executes (`tail -f`).
pub fn progress_arg(args: &[String]) -> Option<PathBuf> {
    crate::arg_value(args, "--progress").map(PathBuf::from)
}

/// Live progress stream for long gate runs: one JSON object per line,
/// flushed per event, safe to share across worker threads.
///
/// Line shape: `{"ms":…,"event":"start"|"finish","label":…}`, plus
/// `wall_ms` on `finish`. `ms` is milliseconds since the sink was
/// opened, so records order even when lines from parallel cases
/// interleave.
#[derive(Debug)]
pub struct ProgressSink {
    file: Mutex<std::fs::File>,
    opened: Instant,
}

impl ProgressSink {
    /// Create (truncating) the progress file.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<ProgressSink> {
        if let Some(parent) = path.as_ref().parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Ok(ProgressSink {
            file: Mutex::new(std::fs::File::create(path)?),
            opened: Instant::now(),
        })
    }

    fn write_line(&self, build: impl FnOnce(&mut mmt_obs::json::ObjectWriter<'_>)) {
        let mut line = String::with_capacity(96);
        let mut w = mmt_obs::json::ObjectWriter::new(&mut line);
        w.f64(
            "ms",
            (self.opened.elapsed().as_secs_f64() * 1000.0 * 10.0).round() / 10.0,
        );
        build(&mut w);
        w.finish();
        line.push('\n');
        use std::io::Write as _;
        let mut file = self.file.lock().expect("progress sink poisoned");
        // Progress is advisory: a full disk must not fail the run.
        let _ = file.write_all(line.as_bytes());
        let _ = file.flush();
    }

    /// A case began.
    pub fn start(&self, label: &str) {
        self.write_line(|w| {
            w.str("event", "start").str("label", label);
        });
    }

    /// A case completed.
    pub fn finish(&self, label: &str, wall: Duration) {
        self.write_line(|w| {
            w.str("event", "finish")
                .str("label", label)
                .f64("wall_ms", wall.as_secs_f64() * 1000.0);
        });
    }
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".into()
    }
}

/// [`run_parallel`] for points that can fail: each point runs on its
/// pool worker, and one whose `f` returns `Err((kind, message))` or
/// panics (caught by `catch_unwind`) comes back as `Err(PointFailure)`
/// in its slot, labelled by `label`. Sibling points are unaffected, and
/// results keep item order, like `run_parallel`.
pub fn run_supervised<T, R, F>(
    items: &[T],
    jobs: usize,
    label: impl Fn(&T) -> String + Sync,
    f: F,
) -> Vec<Result<R, PointFailure>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> Result<R, (FailureKind, String)> + Sync,
{
    run_parallel(items, jobs, |item| {
        catch_unwind(AssertUnwindSafe(|| f(item)))
            .unwrap_or_else(|payload| Err((FailureKind::Panic, panic_message(payload.as_ref()))))
            .map_err(|(kind, message)| PointFailure {
                label: label(item),
                kind,
                message,
            })
    })
}

/// Telemetry for one simulation inside a sweep.
#[derive(Debug, Clone)]
pub struct RunTelemetry {
    /// Which grid point this run was (app/level/knob value).
    pub label: String,
    /// Cycles simulated.
    pub cycles: u64,
    /// Wall-clock time for the run, in milliseconds.
    pub wall_ms: f64,
    /// Simulation throughput: cycles simulated per wall-clock second.
    pub sim_cycles_per_sec: f64,
    /// Peak uop-arena footprint in slots (see
    /// [`SimStats::peak_uop_arena`]).
    pub peak_uop_arena: u64,
    /// Peak simultaneously-live uops.
    pub peak_live_uops: u64,
    /// Scratch-buffer heap growth events (0 after warmup).
    pub scratch_growth_events: u64,
}
mmt_obs::impl_json! {
    RunTelemetry {
        label, cycles, wall_ms, sim_cycles_per_sec, peak_uop_arena, peak_live_uops,
        scratch_growth_events
    }
}

impl RunTelemetry {
    /// Capture telemetry for one finished run.
    pub fn new(label: String, wall: Duration, stats: &SimStats) -> RunTelemetry {
        let wall_ms = wall.as_secs_f64() * 1000.0;
        RunTelemetry {
            label,
            cycles: stats.cycles,
            wall_ms,
            sim_cycles_per_sec: stats.cycles as f64 / wall.as_secs_f64().max(1e-9),
            peak_uop_arena: stats.peak_uop_arena,
            peak_live_uops: stats.peak_live_uops,
            scratch_growth_events: stats.scratch_growth_events,
        }
    }

    /// Copy with every wall-clock-derived field zeroed (canonical form
    /// for determinism comparisons).
    pub fn without_wall_clock(&self) -> RunTelemetry {
        RunTelemetry {
            wall_ms: 0.0,
            sim_cycles_per_sec: 0.0,
            ..self.clone()
        }
    }
}

/// The machine-readable record one sweep emits.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Figure/sweep name (`BENCH_<figure>.json`).
    pub figure: String,
    /// Worker-pool size the sweep ran with.
    pub jobs: usize,
    /// End-to-end wall-clock for the whole sweep, in milliseconds.
    pub total_wall_ms: f64,
    /// Per-run telemetry, in deterministic grid order.
    pub runs: Vec<RunTelemetry>,
    /// Grid points that failed (empty on a clean sweep).
    pub failures: Vec<PointFailure>,
}
mmt_obs::impl_to_json! { BenchReport { figure, jobs, total_wall_ms, runs, failures } }

impl BenchReport {
    /// Assemble a report from a finished sweep.
    pub fn new(figure: &str, jobs: usize, total_wall: Duration, runs: Vec<RunTelemetry>) -> Self {
        BenchReport {
            figure: figure.to_string(),
            jobs,
            total_wall_ms: total_wall.as_secs_f64() * 1000.0,
            runs,
            failures: Vec::new(),
        }
    }

    /// Attach the failed points a sweep collected.
    pub fn with_failures(mut self, failures: Vec<PointFailure>) -> Self {
        self.failures = failures;
        self
    }

    /// JSON with wall-clock-derived fields (and the pool size) zeroed —
    /// byte-identical across pool sizes for the same grid, which is what
    /// the determinism suite asserts.
    pub fn canonical_json(&self) -> String {
        let canon = BenchReport {
            figure: self.figure.clone(),
            jobs: 0,
            total_wall_ms: 0.0,
            runs: self
                .runs
                .iter()
                .map(RunTelemetry::without_wall_clock)
                .collect(),
            failures: self.failures.clone(),
        };
        to_json(&canon)
    }

    /// Write `results/BENCH_<figure>.json`, creating `results/` if
    /// needed. Returns the path written.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        write_report(&self.figure, self)
    }
}

/// Parse `--trace-dir DIR`: when present, a sweep enables pipeline
/// tracing on its runs and dumps per-run trace artifacts there.
pub fn trace_dir_arg(args: &[String]) -> Option<PathBuf> {
    crate::arg_value(args, "--trace-dir").map(PathBuf::from)
}

/// Write the three artifacts for one traced run under `dir`:
/// `<label>.trace.json` (Chrome trace events, Perfetto-loadable),
/// `<label>.events.jsonl`, and `<label>.windows.jsonl`. Slashes in the
/// label become dashes so sweep labels like `equake/fxr` stay one file.
pub fn write_trace_files(dir: &Path, label: &str, trace: &Trace) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let stem = label.replace('/', "-");
    std::fs::write(dir.join(format!("{stem}.trace.json")), trace.chrome_json())?;
    std::fs::write(
        dir.join(format!("{stem}.events.jsonl")),
        trace.events_jsonl(),
    )?;
    std::fs::write(
        dir.join(format!("{stem}.windows.jsonl")),
        trace.windows_jsonl(),
    )?;
    Ok(dir.join(format!("{stem}.trace.json")))
}

/// On-disk cache of completed grid points for crash-resumable sweeps.
///
/// Each completed point is written to `<dir>/<label>.point.json` via a
/// temp file and an atomic rename, so a kill at any instant leaves
/// either no cache entry (the point re-runs) or a complete one (the
/// point is skipped) — never a torn file. Simulation results are
/// deterministic, so a resumed sweep's canonical BENCH JSON is
/// byte-identical to an uninterrupted run's.
#[derive(Debug, Clone)]
pub struct ResumeDir {
    dir: PathBuf,
}

impl ResumeDir {
    /// Open (creating if needed) a resume directory.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<ResumeDir> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ResumeDir { dir })
    }

    fn point_path(&self, label: &str) -> PathBuf {
        self.dir
            .join(format!("{}.point.json", label.replace('/', "-")))
    }

    /// Load a cached point, if a complete cache entry exists. Corrupt
    /// entries (torn writes cannot happen, but disks can lie) are
    /// treated as absent so the point simply re-runs.
    pub fn load(&self, label: &str) -> Option<Value> {
        mmt_obs::json::parse_file(self.point_path(label)).ok()
    }

    /// Atomically persist a completed point (temp file + rename).
    pub fn store(&self, label: &str, point: &impl ToJson) -> std::io::Result<()> {
        let path = self.point_path(label);
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, to_json(point) + "\n")?;
        std::fs::rename(&tmp, path)
    }
}

/// Serialize any report to `results/BENCH_<name>.json` (the sweep
/// reports and the `mmtgate` checks' own report shapes).
pub fn write_report(name: &str, report: &(impl ToJson + ?Sized)) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, to_json(report) + "\n")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_item_order_at_any_pool_size() {
        let items: Vec<usize> = (0..37).collect();
        let serial = run_parallel(&items, 1, |&i| i * 3);
        for jobs in [2, 4, 8, 64] {
            let parallel = run_parallel(&items, jobs, |&i| i * 3);
            assert_eq!(serial, parallel, "jobs={jobs}");
        }
        assert_eq!(serial, (0..37).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_grid_is_fine() {
        let out: Vec<u64> = run_parallel(&[] as &[u64], 8, |&v| v);
        assert!(out.is_empty());
    }

    #[test]
    fn supervised_points_fail_independently() {
        let items: Vec<u32> = (0..6).collect();
        let out = run_supervised(
            &items,
            3,
            |i| format!("point{i}"),
            |&i| {
                if i == 2 {
                    Err((
                        FailureKind::Error,
                        "livelock detected: no retirement for 1000 cycles".to_string(),
                    ))
                } else if i == 3 {
                    Err((FailureKind::Timeout, "missed the 1.0s deadline".to_string()))
                } else if i == 4 {
                    panic!("injected panic for point 4");
                } else {
                    Ok(i * 10)
                }
            },
        );
        assert_eq!(out.len(), 6);
        for (i, slot) in out.iter().enumerate() {
            match (i, slot) {
                (2, Err(f)) => {
                    assert_eq!(f.kind, FailureKind::Error);
                    assert_eq!(f.label, "point2");
                    assert!(f.message.contains("livelock detected"));
                }
                (3, Err(f)) => {
                    assert_eq!(f.kind, FailureKind::Timeout);
                    assert_eq!(f.label, "point3");
                }
                (4, Err(f)) => {
                    assert_eq!(f.kind, FailureKind::Panic);
                    assert!(f.message.contains("injected panic"));
                }
                (i, Ok(v)) => assert_eq!(*v, i as u32 * 10),
                (i, bad) => panic!("point {i}: unexpected {bad:?}"),
            }
        }
    }

    #[test]
    fn panicking_points_run_once() {
        let calls = AtomicUsize::new(0);
        let out = run_supervised(
            &[0u32],
            1,
            |_| "boom".to_string(),
            |_| -> Result<u32, (FailureKind, String)> {
                calls.fetch_add(1, Ordering::SeqCst);
                panic!("deterministic");
            },
        );
        let f = out[0].as_ref().unwrap_err();
        assert_eq!((f.kind, f.label.as_str()), (FailureKind::Panic, "boom"));
        assert_eq!(f.message, "deterministic");
        // The simulator is deterministic: a retry would panic again.
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn progress_stream_covers_the_point_lifecycle() {
        let path = std::env::temp_dir().join(format!("mmt-progress-{}.jsonl", std::process::id()));
        let sink = ProgressSink::create(&path).unwrap();
        run_parallel(&[0u32, 1, 2], 3, |i| {
            let label = format!("p{i}");
            sink.start(&label);
            sink.finish(&label, Duration::from_millis(5));
        });
        drop(sink);
        let text = std::fs::read_to_string(&path).unwrap();
        let events: Vec<Value> = text
            .lines()
            .map(|l| mmt_obs::json::parse(l).expect("every progress line is valid JSON"))
            .collect();
        assert_eq!(events.len(), 6);
        for i in 0..3 {
            let label = format!("p{i}");
            let of = |ev: &str| {
                events
                    .iter()
                    .position(|v| {
                        v.get("event").unwrap().as_str() == Some(ev)
                            && v.get("label").unwrap().as_str() == Some(label.as_str())
                    })
                    .unwrap_or_else(|| panic!("no {ev} for {label}:\n{text}"))
            };
            assert!(of("start") < of("finish"), "{text}");
            assert_eq!(
                events[of("finish")].get("wall_ms").unwrap().as_f64(),
                Some(5.0)
            );
        }
        // ms stamps are monotonically non-decreasing (single writer lock).
        let stamps: Vec<f64> = events
            .iter()
            .map(|v| v.get("ms").unwrap().as_f64().unwrap())
            .collect();
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_dir_round_trips_points_atomically() {
        use mmt_obs::json::FromJson;
        let dir = std::env::temp_dir().join(format!("mmt-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResumeDir::open(&dir).unwrap();
        assert!(cache.load("a/b").is_none());
        let t = RunTelemetry::new(
            "a/b".into(),
            Duration::from_millis(250),
            &SimStats::default(),
        );
        cache.store("a/b", &t).unwrap();
        let v = cache.load("a/b").expect("cached point loads");
        let back = RunTelemetry::from_json(&v).expect("telemetry round-trips");
        assert_eq!(back.label, "a/b");
        assert_eq!(back.wall_ms, t.wall_ms);
        // Slashes flatten to one file per label; no stray temp files.
        assert!(dir.join("a-b.point.json").exists());
        assert!(!dir.join("a-b.point.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn canonical_json_strips_wall_clock() {
        let mk = |jobs: usize, wall: f64| {
            let mut t = RunTelemetry::new(
                "x".into(),
                Duration::from_secs_f64(wall),
                &SimStats::default(),
            );
            t.cycles = 42;
            BenchReport::new("unit", jobs, Duration::from_secs_f64(wall * 2.0), vec![t])
        };
        assert_eq!(mk(1, 0.5).canonical_json(), mk(8, 0.125).canonical_json());
        assert!(mk(1, 0.5).canonical_json().contains("\"cycles\":42"));
    }
}
