//! Windowed metrics: per-N-cycle time series derived from the running
//! [`CounterSet`] plus instantaneous
//! structure occupancies sampled at each window boundary.

use crate::replay::CounterSet;

/// Instantaneous pipeline-structure occupancies, supplied by the
/// simulator at each window boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Occupancy {
    /// Live uops in the reorder buffer.
    pub rob: u32,
    /// Live memory uops in the load/store queue.
    pub lsq: u32,
    /// Uops waiting in the issue queue.
    pub iq: u32,
    /// Total uop-arena slots allocated (live + free-listed).
    pub arena: u32,
}

/// One window of the time series: the counters' deltas over the window
/// and the occupancies sampled at `end_cycle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSample {
    /// Last cycle covered by this window (windows end at multiples of
    /// the configured width, plus one final partial window at run end).
    pub end_cycle: u64,
    /// Cycles actually covered (equal to the width except for the final
    /// partial window).
    pub cycles: u64,
    /// What the running counters gained during the window.
    pub delta: CounterSet,
    /// Occupancies at the window boundary.
    pub occupancy: Occupancy,
}

impl WindowSample {
    /// Committed thread-instructions per cycle over the window.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.delta.total_retired() as f64 / self.cycles as f64
    }

    /// Per-thread IPC over the window.
    pub fn thread_ipc(&self, t: usize) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.delta.retired[t] as f64 / self.cycles as f64
    }

    /// Fraction of fetched slots that were merged (0 when nothing was
    /// fetched).
    pub fn merge_fraction(&self) -> f64 {
        let total = self.delta.fetch_total();
        if total == 0 {
            0.0
        } else {
            self.delta.fetch_merge as f64 / total as f64
        }
    }

    /// Fraction of dispatched uops that were merged (0 when nothing
    /// dispatched).
    pub fn merged_dispatch_fraction(&self) -> f64 {
        if self.delta.uops_dispatched == 0 {
            0.0
        } else {
            self.delta.merged_uops as f64 / self.delta.uops_dispatched as f64
        }
    }
}

/// Accumulates [`WindowSample`]s by diffing the recorder's running
/// counters at each boundary.
#[derive(Debug, Clone)]
pub struct WindowedRecorder {
    window: u64,
    last: CounterSet,
    last_cycle: u64,
    samples: Vec<WindowSample>,
}

impl WindowedRecorder {
    /// Create a recorder sampling every `window` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: u64) -> WindowedRecorder {
        assert!(window > 0, "window width must be non-zero");
        WindowedRecorder {
            window,
            last: CounterSet::default(),
            last_cycle: 0,
            samples: Vec::new(),
        }
    }

    /// Configured window width in cycles.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Whether `now` is a window boundary (the simulator gates its
    /// sampling call on this to keep the common cycle cheap).
    #[inline]
    pub fn due(&self, now: u64) -> bool {
        now > 0 && now.is_multiple_of(self.window)
    }

    /// Close the window ending at `now` against the running `counters`.
    pub fn sample(&mut self, now: u64, counters: &CounterSet, occupancy: Occupancy) {
        if now <= self.last_cycle {
            return; // empty window (e.g. final flush right on a boundary)
        }
        self.samples.push(WindowSample {
            end_cycle: now,
            cycles: now - self.last_cycle,
            delta: counters.delta(&self.last),
            occupancy,
        });
        self.last = *counters;
        self.last_cycle = now;
    }

    /// Samples collected so far.
    pub fn samples(&self) -> &[WindowSample] {
        &self.samples
    }

    /// Consume the recorder, returning the series.
    pub fn into_samples(self) -> Vec<WindowSample> {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_deltas() {
        let mut w = WindowedRecorder::new(100);
        assert!(!w.due(0));
        assert!(w.due(100));
        assert!(!w.due(150));

        let mut c = CounterSet::default();
        c.retired[0] = 50;
        c.fetch_merge = 80;
        c.uops_dispatched = 60;
        c.merged_uops = 30;
        w.sample(
            100,
            &c,
            Occupancy {
                rob: 10,
                lsq: 2,
                iq: 5,
                arena: 64,
            },
        );

        c.retired[0] = 120;
        c.fetch_merge = 100;
        c.fetch_detect = 40;
        c.uops_dispatched = 130;
        c.merged_uops = 40;
        c.remerges = 1;
        w.sample(200, &c, Occupancy::default());

        let s = w.samples();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].delta.retired[0], 50);
        assert_eq!(s[0].occupancy.rob, 10);
        assert!((s[0].ipc() - 0.5).abs() < 1e-12);
        assert!((s[0].merge_fraction() - 1.0).abs() < 1e-12);
        assert!((s[0].merged_dispatch_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(s[1].delta.retired[0], 70);
        assert_eq!(s[1].delta.fetch_detect, 40);
        assert_eq!(s[1].delta.remerges, 1);
        assert!((s[1].thread_ipc(0) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn final_partial_window_and_empty_flush() {
        let mut w = WindowedRecorder::new(100);
        let mut c = CounterSet::default();
        c.retired[0] = 10;
        w.sample(100, &c, Occupancy::default());
        // Flush at the same cycle: no empty window recorded.
        w.sample(100, &c, Occupancy::default());
        c.retired[0] = 14;
        w.sample(130, &c, Occupancy::default());
        let s = w.into_samples();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].cycles, 30);
        assert_eq!(s[1].delta.retired[0], 4);
    }

    #[test]
    fn zero_cycle_sample_is_safe() {
        let s = WindowSample {
            end_cycle: 0,
            cycles: 0,
            delta: CounterSet::default(),
            occupancy: Occupancy::default(),
        };
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.merge_fraction(), 0.0);
        assert_eq!(s.merged_dispatch_fraction(), 0.0);
    }
}
