//! mmt-obs: cycle-level pipeline observability for the MMT simulator.
//!
//! The crate provides a zero-cost-when-disabled tracing layer:
//!
//! * a typed [event taxonomy](event) covering fetch, split, dispatch,
//!   issue, commit, sync-mode transitions, RST updates, LVIP outcomes,
//!   divergence, and remerge;
//! * a fixed-capacity, allocation-free [event ring](ring) with drop
//!   accounting, so steady-state tracing never perturbs the cycle loop;
//! * a [windowed metrics recorder](window) emitting per-N-cycle time
//!   series (per-thread IPC, fetch-mode fractions, occupancies);
//! * a typed, allocation-free [metrics registry](metrics) — counters,
//!   gauges, fixed-bucket histograms — snapshotable mid-run and
//!   exportable as JSON or Prometheus text exposition;
//! * exporters: [Chrome trace-event JSON](chrome) loadable in Perfetto,
//!   compact [JSONL](jsonl), and a text [timeline summary](timeline);
//! * an offline [replay](mod@replay) that folds an event stream back into
//!   aggregate counters for differential checking against `SimStats`.
//! * the workspace's one [JSON](json) reader and writer, through which
//!   every trace, metrics export and report (`BENCH_*.json`, the run
//!   ledger, `mmtsim --format json`) is written.
//!
//! The crate deliberately depends only on `mmt-isa` (for the thread-count
//! bound) so any layer of the stack can emit or consume traces.

#![warn(missing_docs)]

pub mod chrome;
pub mod event;
pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod replay;
pub mod ring;
pub mod timeline;
pub mod window;

pub use chrome::{chrome_trace_json, validate_chrome_trace, ChromeSummary};
pub use event::{
    FaultUnit, FetchKind, LvipOutcome, ModeTag, ModeTrigger, SplitCause, SplitKind, TraceEvent,
    TraceRecord, WatchdogKind,
};
pub use metrics::{
    CounterId, GaugeId, HistogramId, MetricKind, MetricSeries, MetricsRegistry, MetricsSnapshot,
    SeriesValue,
};
pub use replay::{replay, CounterSet};
pub use ring::EventRing;
pub use timeline::{summarize, DivergenceSite, TimelineSummary};
pub use window::{Occupancy, WindowSample, WindowedRecorder};

/// Tracing knobs carried by the simulator config. `None` at the config
/// level means tracing is fully disabled (the recorder is never built).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Event-ring capacity in records; the ring is allocated once and
    /// overwrites its oldest entries (with drop accounting) when full.
    pub ring_capacity: usize,
    /// Window width in cycles for the metrics time series.
    pub window: u64,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            ring_capacity: 1 << 16,
            window: 1024,
        }
    }
}

/// A completed trace: the (possibly truncated) event stream, the window
/// series, and enough run metadata to interpret both.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Hardware threads the run simulated.
    pub threads: usize,
    /// Window width used for the time series.
    pub window: u64,
    /// Total cycles the run took.
    pub cycles: u64,
    /// Events lost to ring overflow (0 means `events` is complete).
    pub dropped: u64,
    /// Whether the run started with all threads merged (seeds the mode
    /// spans in the Chrome export).
    pub initial_merged: bool,
    /// The event stream, oldest first.
    pub events: Vec<TraceRecord>,
    /// The windowed metrics series.
    pub windows: Vec<WindowSample>,
}

impl Trace {
    /// Fold the event stream back into aggregate counters.
    pub fn replay_counters(&self) -> CounterSet {
        replay(&self.events)
    }

    /// Compute the text timeline summary.
    pub fn timeline(&self) -> TimelineSummary {
        summarize(&self.events, self.cycles, self.dropped)
    }

    /// Render as Chrome trace-event JSON (Perfetto-loadable).
    pub fn chrome_json(&self) -> String {
        chrome_trace_json(self)
    }

    /// Render the event stream as compact JSONL.
    pub fn events_jsonl(&self) -> String {
        jsonl::events_jsonl(&self.events)
    }

    /// Render the window series as compact JSONL.
    pub fn windows_jsonl(&self) -> String {
        jsonl::windows_jsonl(&self.windows, self.threads)
    }
}

/// The live recorder the simulator owns while tracing is enabled: event
/// ring + running counters + window sampler. All per-cycle entry points
/// are `#[inline]` and allocation-free.
#[derive(Debug, Clone)]
pub struct ObsRecorder {
    ring: EventRing,
    windows: WindowedRecorder,
    counters: CounterSet,
    threads: usize,
    initial_merged: bool,
}

impl ObsRecorder {
    /// Build a recorder for a `threads`-thread run; `initial_merged`
    /// seeds the mode-span tracks in the Chrome export.
    pub fn new(cfg: &TraceConfig, threads: usize, initial_merged: bool) -> ObsRecorder {
        ObsRecorder {
            ring: EventRing::with_capacity(cfg.ring_capacity),
            windows: WindowedRecorder::new(cfg.window),
            counters: CounterSet::default(),
            threads,
            initial_merged,
        }
    }

    /// Record one event at `cycle`.
    #[inline]
    pub fn emit(&mut self, cycle: u64, event: TraceEvent) {
        self.counters.apply(&event);
        self.ring.push(TraceRecord { cycle, event });
    }

    /// Whether `now` closes a metrics window (gate for `sample_window`).
    #[inline]
    pub fn window_due(&self, now: u64) -> bool {
        self.windows.due(now)
    }

    /// Close the window ending at `now` with the given occupancies.
    pub fn sample_window(&mut self, now: u64, occupancy: Occupancy) {
        self.windows.sample(now, &self.counters, occupancy);
    }

    /// The running counters (live view, same semantics as replay).
    pub fn counters(&self) -> &CounterSet {
        &self.counters
    }

    /// Finish at `cycles`, flushing a final partial window with the
    /// end-of-run occupancies, and return the completed [`Trace`].
    pub fn into_trace(mut self, cycles: u64, occupancy: Occupancy) -> Trace {
        self.windows.sample(cycles, &self.counters, occupancy);
        let window = self.windows.window();
        let (events, dropped) = self.ring.into_ordered();
        Trace {
            threads: self.threads,
            window,
            cycles,
            dropped,
            initial_merged: self.initial_merged,
            events,
            windows: self.windows.into_samples(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_end_to_end() {
        let cfg = TraceConfig {
            ring_capacity: 64,
            window: 10,
        };
        let mut obs = ObsRecorder::new(&cfg, 2, true);
        obs.emit(
            0,
            TraceEvent::Fetch {
                pc: 0,
                mask: 0b11,
                kind: FetchKind::Merged,
            },
        );
        obs.emit(
            2,
            TraceEvent::Dispatch {
                pc: 0,
                mask: 0b11,
                merged: true,
            },
        );
        assert!(!obs.window_due(5));
        assert!(obs.window_due(10));
        obs.sample_window(
            10,
            Occupancy {
                rob: 1,
                lsq: 0,
                iq: 0,
                arena: 4,
            },
        );
        obs.emit(12, TraceEvent::Commit { pc: 0, mask: 0b11 });
        let trace = obs.into_trace(15, Occupancy::default());

        assert_eq!(trace.cycles, 15);
        assert_eq!(trace.dropped, 0);
        assert_eq!(trace.events.len(), 3);
        assert_eq!(trace.windows.len(), 2, "boundary window + final partial");
        assert_eq!(trace.windows[1].cycles, 5);
        assert_eq!(trace.windows[1].delta.retired[0], 1);

        let replayed = trace.replay_counters();
        assert_eq!(replayed.fetch_merge, 2);
        assert_eq!(replayed.commits, 1);
        assert_eq!(replayed.retired[1], 1);

        let chrome = trace.chrome_json();
        let summary = validate_chrome_trace(&chrome).expect("valid chrome trace");
        assert_eq!(summary.span_pairs, 2, "one MERGE span per thread");

        assert_eq!(trace.events_jsonl().lines().count(), 3);
        assert_eq!(trace.windows_jsonl().lines().count(), 2);
        assert_eq!(trace.timeline().events, 3);
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = TraceConfig::default();
        assert_eq!(cfg.ring_capacity, 65536);
        assert_eq!(cfg.window, 1024);
    }
}
