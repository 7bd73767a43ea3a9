//! Event-stream replay: fold a trace back into the aggregate counters
//! the simulator reports, for differential consistency checking.
//!
//! [`CounterSet::apply`] is the single definition of "what an event
//! means" in counter terms; the live recorder uses it to maintain running
//! totals for windowed sampling, and the offline replay uses the same
//! code, so any divergence between a trace and the run's `SimStats` is a
//! genuine instrumentation bug, not a bookkeeping skew.

use crate::event::{FetchKind, TraceEvent, TraceRecord};
use mmt_isa::MAX_THREADS;

/// Aggregate counters reconstructible from the event stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSet {
    /// Thread-instruction slots fetched while merged.
    pub fetch_merge: u64,
    /// Thread-instruction slots fetched in DETECT mode.
    pub fetch_detect: u64,
    /// Thread-instruction slots fetched in CATCHUP mode.
    pub fetch_catchup: u64,
    /// Instructions retired per thread (a merged commit counts once per
    /// owning thread).
    pub retired: [u64; MAX_THREADS],
    /// Commits (retirement slots — a merged commit counts once).
    pub commits: u64,
    /// Uops dispatched.
    pub uops_dispatched: u64,
    /// Dispatched uops covering two or more threads.
    pub merged_uops: u64,
    /// Successful remerges.
    pub remerges: u64,
    /// Divergences.
    pub divergences: u64,
}

impl CounterSet {
    /// Fold one event into the counters.
    #[inline]
    pub fn apply(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Fetch { mask, kind, .. } => {
                let slots = mask.count_ones() as u64;
                match kind {
                    FetchKind::Merged => self.fetch_merge += slots,
                    FetchKind::Detect => self.fetch_detect += slots,
                    FetchKind::Catchup => self.fetch_catchup += slots,
                }
            }
            TraceEvent::Dispatch { mask, merged, .. } => {
                self.uops_dispatched += 1;
                if merged {
                    self.merged_uops += 1;
                }
                debug_assert_eq!(merged, mask.count_ones() >= 2);
            }
            TraceEvent::Commit { mask, .. } => {
                self.commits += 1;
                for t in 0..MAX_THREADS {
                    if mask & (1 << t) != 0 {
                        self.retired[t] += 1;
                    }
                }
            }
            TraceEvent::Remerge { .. } => self.remerges += 1,
            TraceEvent::Divergence { .. } => self.divergences += 1,
            TraceEvent::Split { .. }
            | TraceEvent::Issue { .. }
            | TraceEvent::ModeTransition { .. }
            | TraceEvent::RstSet { .. }
            | TraceEvent::RstClear { .. }
            | TraceEvent::Lvip { .. }
            | TraceEvent::FaultInjected { .. }
            | TraceEvent::Watchdog { .. } => {}
        }
    }

    /// Total thread-instruction slots fetched.
    pub fn fetch_total(&self) -> u64 {
        self.fetch_merge + self.fetch_detect + self.fetch_catchup
    }

    /// Total retired across threads.
    pub fn total_retired(&self) -> u64 {
        self.retired.iter().sum()
    }

    /// What was counted since `earlier`, a snapshot of the same running
    /// counters.
    pub fn delta(&self, earlier: &CounterSet) -> CounterSet {
        let mut retired = self.retired;
        for (r, e) in retired.iter_mut().zip(&earlier.retired) {
            *r -= e;
        }
        CounterSet {
            fetch_merge: self.fetch_merge - earlier.fetch_merge,
            fetch_detect: self.fetch_detect - earlier.fetch_detect,
            fetch_catchup: self.fetch_catchup - earlier.fetch_catchup,
            retired,
            commits: self.commits - earlier.commits,
            uops_dispatched: self.uops_dispatched - earlier.uops_dispatched,
            merged_uops: self.merged_uops - earlier.merged_uops,
            remerges: self.remerges - earlier.remerges,
            divergences: self.divergences - earlier.divergences,
        }
    }
}

/// Replay a full event stream into a [`CounterSet`].
pub fn replay(events: &[TraceRecord]) -> CounterSet {
    let mut c = CounterSet::default();
    for rec in events {
        c.apply(&rec.event);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent as E;

    fn rec(cycle: u64, event: E) -> TraceRecord {
        TraceRecord { cycle, event }
    }

    #[test]
    fn replay_folds_every_counter() {
        let events = vec![
            rec(
                0,
                E::Fetch {
                    pc: 0,
                    mask: 0b11,
                    kind: FetchKind::Merged,
                },
            ),
            rec(
                1,
                E::Fetch {
                    pc: 4,
                    mask: 0b01,
                    kind: FetchKind::Detect,
                },
            ),
            rec(
                1,
                E::Fetch {
                    pc: 9,
                    mask: 0b10,
                    kind: FetchKind::Catchup,
                },
            ),
            rec(
                2,
                E::Dispatch {
                    pc: 0,
                    mask: 0b11,
                    merged: true,
                },
            ),
            rec(
                2,
                E::Dispatch {
                    pc: 4,
                    mask: 0b01,
                    merged: false,
                },
            ),
            rec(3, E::Commit { pc: 0, mask: 0b11 }),
            rec(4, E::Commit { pc: 4, mask: 0b01 }),
            rec(
                5,
                E::Divergence {
                    pc: 7,
                    mask: 0b11,
                    parts: 2,
                },
            ),
            rec(9, E::Remerge { mask: 0b11 }),
        ];
        let c = replay(&events);
        assert_eq!(c.fetch_merge, 2);
        assert_eq!(c.fetch_detect, 1);
        assert_eq!(c.fetch_catchup, 1);
        assert_eq!(c.fetch_total(), 4);
        assert_eq!(c.uops_dispatched, 2);
        assert_eq!(c.merged_uops, 1);
        assert_eq!(c.commits, 2);
        assert_eq!(c.retired[0], 2);
        assert_eq!(c.retired[1], 1);
        assert_eq!(c.total_retired(), 3);
        assert_eq!(c.remerges, 1);
        assert_eq!(c.divergences, 1);
    }

    #[test]
    fn delta_subtracts_every_counter() {
        let earlier = CounterSet {
            fetch_merge: 1,
            fetch_detect: 2,
            fetch_catchup: 3,
            retired: [4, 5, 6, 7],
            commits: 8,
            uops_dispatched: 9,
            merged_uops: 10,
            remerges: 11,
            divergences: 12,
        };
        let mut later = earlier;
        later.fetch_merge += 100;
        later.fetch_detect += 200;
        later.fetch_catchup += 300;
        later.retired = [404, 505, 606, 707];
        later.commits += 800;
        later.uops_dispatched += 900;
        later.merged_uops += 1000;
        later.remerges += 1100;
        later.divergences += 1200;
        let d = later.delta(&earlier);
        assert_eq!(
            d,
            CounterSet {
                fetch_merge: 100,
                fetch_detect: 200,
                fetch_catchup: 300,
                retired: [400, 500, 600, 700],
                commits: 800,
                uops_dispatched: 900,
                merged_uops: 1000,
                remerges: 1100,
                divergences: 1200,
            }
        );
        assert_eq!(later.delta(&later), CounterSet::default());
    }

    #[test]
    fn non_counter_events_are_inert() {
        let mut c = CounterSet::default();
        c.apply(&E::RstSet { reg: 3, a: 0, b: 1 });
        c.apply(&E::Issue {
            pc: 0,
            mask: 1,
            complete_at: 5,
        });
        assert_eq!(c, CounterSet::default());
    }
}
