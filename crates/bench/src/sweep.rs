//! Parallel sweep harness + benchmark telemetry.
//!
//! `mmtfigs` and the gate bins sweep independent `(app, threads,
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
//! The fault-tolerance half (DESIGN.md §15) wraps grid points in
//! supervision: [`run_supervised`] runs each point on its own attempt
//! thread under `catch_unwind` with an optional wall-clock deadline and
//! bounded retry-with-backoff ([`crate::retry::RetryPolicy`]); a point
//! that keeps failing degrades to a typed [`PointFailure`] record in the
//! figure's BENCH JSON instead of killing the sweep. [`ResumeDir`]
//! caches each completed point on disk (atomic tmp + rename), so a
//! sweep killed mid-run resumes from the last completed point
//! (`--resume-dir`) and still produces byte-identical canonical output.

use crate::retry::RetryPolicy;
use mmt_obs::json::{to_json, ToJson, Value};
use mmt_sim::{SimError, SimResult, SimStats, Simulator, Trace};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
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

/// Why a supervised grid point was recorded as failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The point's closure panicked (caught by `catch_unwind`).
    Panic,
    /// The point missed its wall-clock deadline; the attempt thread was
    /// abandoned.
    Timeout,
    /// The point returned a typed error (e.g. a `SimError` such as a
    /// watchdog firing). Deterministic, so never retried.
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

/// A grid point that failed supervision: recorded in the BENCH report
/// instead of aborting the sweep's sibling points.
#[derive(Debug, Clone)]
pub struct PointFailure {
    /// Which grid point failed (same namespace as [`RunTelemetry::label`]).
    pub label: String,
    /// Failure class (panic / timeout / typed error).
    pub kind: FailureKind,
    /// Human-readable cause: the panic message, deadline, or error text.
    pub message: String,
    /// How many attempts were made before giving up.
    pub attempts: u32,
}
mmt_obs::impl_to_json! { PointFailure { label, kind, message, attempts } }

impl PointFailure {
    /// Copy with the (wall-clock-noise-dependent) attempt count zeroed —
    /// canonical form for determinism comparisons.
    pub fn without_attempts(&self) -> PointFailure {
        PointFailure {
            attempts: 0,
            ..self.clone()
        }
    }
}

/// Supervision settings for [`run_supervised`].
#[derive(Debug, Clone)]
pub struct Supervision {
    /// Per-attempt wall-clock deadline; `None` waits indefinitely.
    pub deadline: Option<Duration>,
    /// Retry policy for transient failures (panics and timeouts only —
    /// typed errors are deterministic and fail fast).
    pub retry: RetryPolicy,
}

impl Default for Supervision {
    fn default() -> Self {
        Supervision {
            deadline: None,
            retry: RetryPolicy::attempts(2),
        }
    }
}

/// Parse `--progress PATH`: when present, a sweep streams per-point
/// progress records (start/heartbeat/retry/finish/fail) to PATH as
/// JSONL, so a multi-minute run is observable while it executes
/// (`tail -f`).
pub fn progress_arg(args: &[String]) -> Option<PathBuf> {
    crate::arg_value(args, "--progress").map(PathBuf::from)
}

/// Live progress stream for long sweeps: one JSON object per line,
/// flushed per event, safe to share across worker threads.
///
/// Line shape: `{"ms":…,"event":…,"label":…,"attempt":…}` plus
/// event-specific fields (`kind`/`message` on `retry`/`fail`,
/// `wall_ms` on `finish`, `waited_ms` on `heartbeat`). `ms` is
/// milliseconds since the sink was opened, so records order even when
/// lines from parallel points interleave.
#[derive(Debug)]
pub struct ProgressSink {
    file: Mutex<std::fs::File>,
    opened: Instant,
    heartbeat_every: Duration,
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
            heartbeat_every: Duration::from_secs(1),
        })
    }

    /// Override the heartbeat interval (default 1s).
    pub fn with_heartbeat_every(mut self, every: Duration) -> ProgressSink {
        self.heartbeat_every = every.max(Duration::from_millis(1));
        self
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
        // Progress is advisory: a full disk must not fail the sweep.
        let _ = file.write_all(line.as_bytes());
        let _ = file.flush();
    }

    fn event(&self, event: &str, label: &str, attempt: u32) {
        self.write_line(|w| {
            w.str("event", event)
                .str("label", label)
                .u64("attempt", attempt as u64);
        });
    }

    /// A point's attempt began.
    pub fn start(&self, label: &str, attempt: u32) {
        self.event("start", label, attempt);
    }

    /// A point is still running (emitted every heartbeat interval while
    /// the supervisor waits).
    pub fn heartbeat(&self, label: &str, attempt: u32, waited: Duration) {
        self.write_line(|w| {
            w.str("event", "heartbeat")
                .str("label", label)
                .u64("attempt", attempt as u64)
                .f64("waited_ms", waited.as_secs_f64() * 1000.0);
        });
    }

    /// A transient failure is about to be retried.
    pub fn retry(&self, label: &str, attempt: u32, kind: FailureKind, message: &str) {
        self.write_line(|w| {
            w.str("event", "retry")
                .str("label", label)
                .u64("attempt", attempt as u64)
                .str("kind", kind.name())
                .str("message", message);
        });
    }

    /// A point completed successfully.
    pub fn finish(&self, label: &str, attempt: u32, wall: Duration) {
        self.write_line(|w| {
            w.str("event", "finish")
                .str("label", label)
                .u64("attempt", attempt as u64)
                .f64("wall_ms", wall.as_secs_f64() * 1000.0);
        });
    }

    /// A point failed for good (after retries).
    pub fn fail(&self, label: &str, failure: &PointFailure) {
        self.write_line(|w| {
            w.str("event", "fail")
                .str("label", label)
                .u64("attempt", failure.attempts as u64)
                .str("kind", failure.kind.name())
                .str("message", &failure.message);
        });
    }
}

/// One attempt's transient failure, before retry accounting.
struct AttemptFailure {
    kind: FailureKind,
    message: String,
}

/// Run one attempt of a point on its own thread so a hang cannot wedge
/// the sweep: the supervisor waits on a channel with the deadline and
/// simply abandons a thread that blows it.
fn run_attempt<T, R, F>(
    item: T,
    deadline: Option<Duration>,
    f: Arc<F>,
    heartbeat: Option<(&ProgressSink, &str, u32)>,
) -> Result<Result<R, String>, AttemptFailure>
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(T) -> Result<R, String> + Send + Sync + 'static,
{
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| f(item)));
        let _ = tx.send(outcome);
    });
    let started = Instant::now();
    // Wait in slices so a live sweep can emit heartbeats; with no
    // progress sink and no deadline this is a plain blocking recv.
    let received = loop {
        let remaining = deadline.map(|limit| limit.saturating_sub(started.elapsed()));
        if remaining == Some(Duration::ZERO) {
            break Err(AttemptFailure {
                kind: FailureKind::Timeout,
                message: format!(
                    "no result within the {:.1}s deadline; attempt abandoned",
                    deadline.expect("remaining implies deadline").as_secs_f64()
                ),
            });
        }
        let slice = match (heartbeat, remaining) {
            (Some((sink, _, _)), Some(rem)) => Some(sink.heartbeat_every.min(rem)),
            (Some((sink, _, _)), None) => Some(sink.heartbeat_every),
            (None, rem) => rem,
        };
        let outcome = match slice {
            Some(slice) => rx.recv_timeout(slice),
            None => rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
        };
        match outcome {
            Ok(v) => break Ok(v),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                break Err(AttemptFailure {
                    kind: FailureKind::Panic,
                    message: "attempt thread died without reporting a result".into(),
                })
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if let Some((sink, label, attempt)) = heartbeat {
                    // Only a real heartbeat tick, not a deadline expiry
                    // (that is caught at the top of the next iteration).
                    let due = deadline.is_none_or(|limit| started.elapsed() < limit);
                    if due {
                        sink.heartbeat(label, attempt, started.elapsed());
                    }
                }
            }
        }
    };
    match received {
        Ok(Ok(result)) => {
            let _ = worker.join();
            Ok(result)
        }
        Ok(Err(payload)) => {
            let _ = worker.join();
            Err(AttemptFailure {
                kind: FailureKind::Panic,
                message: panic_message(payload.as_ref()),
            })
        }
        // Timed out: leave the worker thread detached rather than block
        // the whole sweep joining a hung simulation.
        Err(fail) => Err(fail),
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

/// Supervise one grid point: bounded retries for transient failures
/// (panic, deadline miss), fail-fast on typed errors.
fn supervise_point<T, R, F>(
    label: &str,
    item: &T,
    sup: &Supervision,
    progress: Option<&ProgressSink>,
    f: &Arc<F>,
) -> Result<R, PointFailure>
where
    T: Clone + Send + 'static,
    R: Send + 'static,
    F: Fn(T) -> Result<R, String> + Send + Sync + 'static,
{
    let attempts = sup.retry.attempts.max(1);
    let started = Instant::now();
    let mut transient: Option<AttemptFailure> = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            let fail = transient.as_ref().expect("retry follows a failure");
            if let Some(p) = progress {
                p.retry(label, attempt + 1, fail.kind, &fail.message);
            }
            std::thread::sleep(sup.retry.backoff_before(attempt));
        } else if let Some(p) = progress {
            p.start(label, 1);
        }
        let heartbeat = progress.map(|p| (p, label, attempt + 1));
        match run_attempt(item.clone(), sup.deadline, Arc::clone(f), heartbeat) {
            Ok(Ok(result)) => {
                if let Some(p) = progress {
                    p.finish(label, attempt + 1, started.elapsed());
                }
                return Ok(result);
            }
            Ok(Err(message)) => {
                // Typed simulator errors are deterministic: retrying
                // re-runs the identical computation, so fail fast.
                let failure = PointFailure {
                    label: label.to_string(),
                    kind: FailureKind::Error,
                    message,
                    attempts: attempt + 1,
                };
                if let Some(p) = progress {
                    p.fail(label, &failure);
                }
                return Err(failure);
            }
            Err(fail) => transient = Some(fail),
        }
    }
    let fail = transient.expect("at least one attempt ran");
    let failure = PointFailure {
        label: label.to_string(),
        kind: fail.kind,
        message: fail.message,
        attempts,
    };
    if let Some(p) = progress {
        p.fail(label, &failure);
    }
    Err(failure)
}

/// [`run_parallel`] with per-point supervision: each point runs under
/// `catch_unwind` on its own attempt thread with an optional wall-clock
/// deadline and bounded retry-with-backoff. A point that keeps failing
/// comes back as `Err(PointFailure)` in its grid slot — sibling points
/// are unaffected. Results keep item order, like `run_parallel`.
pub fn run_supervised<T, R, F>(
    items: &[T],
    jobs: usize,
    sup: &Supervision,
    label: impl Fn(&T) -> String + Sync,
    f: F,
) -> Vec<Result<R, PointFailure>>
where
    T: Clone + Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(T) -> Result<R, String> + Send + Sync + 'static,
{
    run_supervised_progress(items, jobs, sup, None, label, f)
}

/// [`run_supervised`] with an optional live [`ProgressSink`]: every
/// point streams `start` / `heartbeat` / `retry` / `finish` / `fail`
/// records as it moves through supervision, so a multi-minute sweep can
/// be watched with `tail -f`.
pub fn run_supervised_progress<T, R, F>(
    items: &[T],
    jobs: usize,
    sup: &Supervision,
    progress: Option<&ProgressSink>,
    label: impl Fn(&T) -> String + Sync,
    f: F,
) -> Vec<Result<R, PointFailure>>
where
    T: Clone + Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(T) -> Result<R, String> + Send + Sync + 'static,
{
    let f = Arc::new(f);
    run_parallel(items, jobs, |item| {
        supervise_point(&label(item), item, sup, progress, &f)
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
    /// Grid points that failed supervision (empty on a clean sweep).
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

    /// Attach the failed points a supervised sweep collected.
    pub fn with_failures(mut self, failures: Vec<PointFailure>) -> Self {
        self.failures = failures;
        self
    }

    /// JSON with wall-clock-derived fields (the pool size, and failure
    /// attempt counts, which depend on machine noise) zeroed —
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
            failures: self
                .failures
                .iter()
                .map(PointFailure::without_attempts)
                .collect(),
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
        self.write_atomic(&self.point_path(label), &(to_json(point) + "\n"))
    }

    /// Step a simulation to completion, atomically rewriting
    /// `<label>.ckpt.json` with the architectural state every `every`
    /// cycles — the digest-sealed `ArchState` document, so a long point
    /// killed mid-run leaves an inspectable, restartable snapshot. The
    /// file is removed once the run finishes: only in-flight runs keep
    /// one.
    pub fn run_checkpointed(
        &self,
        label: &str,
        mut sim: Simulator,
        every: u64,
    ) -> Result<SimResult, SimError> {
        let every = every.max(1);
        let path = self
            .dir
            .join(format!("{}.ckpt.json", label.replace('/', "-")));
        let mut next = every;
        while !sim.finished() {
            sim.step_cycle()?;
            if sim.now() >= next {
                next = sim.now() + every;
                if let Err(e) = self.write_atomic(&path, &sim.arch_state().to_json()) {
                    eprintln!("warning: checkpoint for {label} not written: {e}");
                }
            }
        }
        // Absent when the run finished before its first checkpoint.
        let _ = std::fs::remove_file(&path);
        Ok(sim.finish())
    }

    fn write_atomic(&self, path: &Path, contents: &str) -> std::io::Result<()> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, contents)?;
        std::fs::rename(&tmp, path)
    }
}

/// Serialize any report to `results/BENCH_<name>.json` (shared by the
/// sweep reports and `perfsmoke`'s custom shape).
pub fn write_report(name: &str, report: &impl ToJson) -> std::io::Result<PathBuf> {
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
        let sup = Supervision {
            deadline: None,
            retry: RetryPolicy::once(),
        };
        let out = run_supervised(
            &items,
            3,
            &sup,
            |i| format!("point{i}"),
            |i: u32| {
                if i == 2 {
                    Err("livelock detected: no retirement for 1000 cycles".to_string())
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
                    assert_eq!(f.attempts, 1);
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
    fn transient_panics_are_retried() {
        use std::sync::atomic::AtomicU32;
        let calls = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&calls);
        let sup = Supervision {
            deadline: None,
            retry: RetryPolicy {
                attempts: 3,
                base_backoff: Duration::ZERO,
                ..Default::default()
            },
        };
        let out = run_supervised(
            &[0u32],
            1,
            &sup,
            |_| "flaky".to_string(),
            move |_| {
                if seen.fetch_add(1, Ordering::SeqCst) < 2 {
                    panic!("transient");
                }
                Ok(7u32)
            },
        );
        assert_eq!(out[0].as_ref().unwrap(), &7);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn deadline_miss_becomes_a_timeout_failure() {
        let sup = Supervision {
            deadline: Some(Duration::from_millis(50)),
            retry: RetryPolicy::once(),
        };
        let out = run_supervised(
            &[0u32],
            1,
            &sup,
            |_| "hung".to_string(),
            |_| {
                std::thread::sleep(Duration::from_secs(2));
                Ok(0u32)
            },
        );
        let f = out[0].as_ref().unwrap_err();
        assert_eq!(f.kind, FailureKind::Timeout);
        assert!(f.message.contains("deadline"), "{}", f.message);
    }

    #[test]
    fn progress_stream_covers_the_point_lifecycle() {
        let path = std::env::temp_dir().join(format!("mmt-progress-{}.jsonl", std::process::id()));
        let sink = ProgressSink::create(&path)
            .unwrap()
            .with_heartbeat_every(Duration::from_millis(20));
        let sup = Supervision {
            deadline: None,
            retry: RetryPolicy {
                attempts: 2,
                base_backoff: Duration::ZERO,
                ..Default::default()
            },
        };
        use std::sync::atomic::AtomicU32;
        let calls = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&calls);
        let out = run_supervised_progress(
            &[0u32, 1],
            2,
            &sup,
            Some(&sink),
            |i| format!("p{i}"),
            move |i: u32| {
                if i == 0 && seen.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("transient");
                }
                // Long enough for at least one heartbeat tick.
                std::thread::sleep(Duration::from_millis(60));
                Ok(i)
            },
        );
        assert!(out.iter().all(|r| r.is_ok()));
        drop(sink);
        let text = std::fs::read_to_string(&path).unwrap();
        let events: Vec<mmt_obs::json::Value> = text
            .lines()
            .map(|l| mmt_obs::json::parse(l).expect("every progress line is valid JSON"))
            .collect();
        let of = |ev: &str, label: &str| {
            events
                .iter()
                .filter(|v| {
                    v.get("event").unwrap().as_str() == Some(ev)
                        && v.get("label").unwrap().as_str() == Some(label)
                })
                .count()
        };
        assert_eq!(of("start", "p0"), 1);
        assert_eq!(of("start", "p1"), 1);
        assert_eq!(of("retry", "p0"), 1, "transient panic surfaced as retry");
        assert_eq!(of("finish", "p0"), 1);
        assert_eq!(of("finish", "p1"), 1);
        assert!(of("heartbeat", "p1") >= 1, "long point heartbeats");
        assert_eq!(of("fail", "p0") + of("fail", "p1"), 0);
        // ms stamps are monotonically non-decreasing (single writer lock).
        let stamps: Vec<f64> = events
            .iter()
            .map(|v| v.get("ms").unwrap().as_f64().unwrap())
            .collect();
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_points_emit_fail_records() {
        let path = std::env::temp_dir().join(format!("mmt-progress-f{}.jsonl", std::process::id()));
        let sink = ProgressSink::create(&path).unwrap();
        let sup = Supervision {
            deadline: Some(Duration::from_millis(40)),
            retry: RetryPolicy::once(),
        };
        let out = run_supervised_progress(
            &[0u32],
            1,
            &sup,
            Some(&sink),
            |_| "hung".to_string(),
            |_| -> Result<u32, String> {
                std::thread::sleep(Duration::from_secs(5));
                Ok(0)
            },
        );
        assert!(out[0].is_err());
        let text = std::fs::read_to_string(&path).unwrap();
        let fail_line = text
            .lines()
            .map(|l| mmt_obs::json::parse(l).unwrap())
            .find(|v| v.get("event").unwrap().as_str() == Some("fail"))
            .expect("fail record emitted");
        assert_eq!(fail_line.get("kind").unwrap().as_str(), Some("timeout"));
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
