//! Compact JSONL exporters: one JSON object per line, for events and
//! window samples. Field names are short (`c` cycle, `k` kind, `m`
//! mask) because divergent runs emit millions of lines; every line is a
//! complete, self-describing record so streams can be grepped or tailed.

use crate::event::{TraceEvent, TraceRecord};
use crate::window::WindowSample;
use std::fmt::Write as _;

/// Append one event as a JSONL line (including the trailing newline).
pub fn append_event_line(out: &mut String, rec: &TraceRecord) {
    let _ = write!(out, "{{\"c\":{},\"k\":\"{}\"", rec.cycle, rec.event.name());
    match rec.event {
        TraceEvent::Fetch { pc, mask, kind } => {
            let _ = write!(
                out,
                ",\"pc\":{pc},\"m\":{mask},\"mode\":\"{}\"",
                kind.name()
            );
        }
        TraceEvent::Split {
            pc,
            mask,
            kind,
            cause,
        } => {
            let _ = write!(
                out,
                ",\"pc\":{pc},\"m\":{mask},\"shape\":\"{}\",\"cause\":\"{}\"",
                kind.name(),
                cause.name()
            );
        }
        TraceEvent::Dispatch { pc, mask, merged } => {
            let _ = write!(out, ",\"pc\":{pc},\"m\":{mask},\"merged\":{merged}");
        }
        TraceEvent::Issue {
            pc,
            mask,
            complete_at,
        } => {
            let _ = write!(out, ",\"pc\":{pc},\"m\":{mask},\"done\":{complete_at}");
        }
        TraceEvent::Commit { pc, mask } => {
            let _ = write!(out, ",\"pc\":{pc},\"m\":{mask}");
        }
        TraceEvent::ModeTransition {
            thread,
            to,
            trigger,
        } => {
            let _ = write!(
                out,
                ",\"t\":{thread},\"to\":\"{}\",\"trigger\":\"{}\"",
                to.name(),
                trigger.name()
            );
        }
        TraceEvent::Divergence { pc, mask, parts } => {
            let _ = write!(out, ",\"pc\":{pc},\"m\":{mask},\"parts\":{parts}");
        }
        TraceEvent::Remerge { mask } => {
            let _ = write!(out, ",\"m\":{mask}");
        }
        TraceEvent::RstSet { reg, a, b } => {
            let _ = write!(out, ",\"reg\":{reg},\"a\":{a},\"b\":{b}");
        }
        TraceEvent::RstClear { reg, mask } => {
            let _ = write!(out, ",\"reg\":{reg},\"m\":{mask}");
        }
        TraceEvent::Lvip { pc, mask, outcome } => {
            let _ = write!(
                out,
                ",\"pc\":{pc},\"m\":{mask},\"outcome\":\"{}\"",
                outcome.name()
            );
        }
        TraceEvent::FaultInjected { unit, index } => {
            let _ = write!(out, ",\"unit\":\"{}\",\"idx\":{index}", unit.name());
        }
        TraceEvent::Watchdog { kind } => {
            let _ = write!(out, ",\"kind\":\"{}\"", kind.name());
        }
    }
    out.push_str("}\n");
}

/// Render a full event stream as JSONL.
pub fn events_jsonl(events: &[TraceRecord]) -> String {
    // ~64 bytes/line is a comfortable overestimate for the short keys.
    let mut out = String::with_capacity(events.len() * 64);
    for rec in events {
        append_event_line(&mut out, rec);
    }
    out
}

/// Append one window sample as a JSONL line (trailing newline included).
pub fn append_window_line(out: &mut String, s: &WindowSample, threads: usize) {
    let _ = write!(
        out,
        "{{\"end\":{},\"cycles\":{},\"retired\":[",
        s.end_cycle, s.cycles
    );
    let d = &s.delta;
    for (t, r) in d.retired.iter().take(threads).enumerate() {
        if t > 0 {
            out.push(',');
        }
        let _ = write!(out, "{r}");
    }
    let _ = writeln!(
        out,
        "],\"ipc\":{:.4},\"merge_frac\":{:.4},\"merged_dispatch_frac\":{:.4},\
         \"fetch\":{{\"merge\":{},\"detect\":{},\"catchup\":{}}},\
         \"uops\":{},\"merged_uops\":{},\"remerges\":{},\"divergences\":{},\
         \"occ\":{{\"rob\":{},\"lsq\":{},\"iq\":{},\"arena\":{}}}}}",
        s.ipc(),
        s.merge_fraction(),
        s.merged_dispatch_fraction(),
        d.fetch_merge,
        d.fetch_detect,
        d.fetch_catchup,
        d.uops_dispatched,
        d.merged_uops,
        d.remerges,
        d.divergences,
        s.occupancy.rob,
        s.occupancy.lsq,
        s.occupancy.iq,
        s.occupancy.arena,
    );
}

/// Render a window-sample series as JSONL.
pub fn windows_jsonl(samples: &[WindowSample], threads: usize) -> String {
    let mut out = String::with_capacity(samples.len() * 192);
    for s in samples {
        append_window_line(&mut out, s, threads);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{
        FaultUnit, FetchKind, LvipOutcome, ModeTag, ModeTrigger, SplitCause, SplitKind,
        WatchdogKind,
    };
    use crate::json;
    use crate::replay::CounterSet;
    use crate::window::Occupancy;

    #[test]
    fn every_event_variant_emits_valid_json() {
        let events = vec![
            TraceEvent::Fetch {
                pc: 3,
                mask: 3,
                kind: FetchKind::Merged,
            },
            TraceEvent::Split {
                pc: 3,
                mask: 3,
                kind: SplitKind::Partial,
                cause: SplitCause::RstSplit,
            },
            TraceEvent::Dispatch {
                pc: 3,
                mask: 1,
                merged: false,
            },
            TraceEvent::Issue {
                pc: 3,
                mask: 1,
                complete_at: 9,
            },
            TraceEvent::Commit { pc: 3, mask: 1 },
            TraceEvent::ModeTransition {
                thread: 1,
                to: ModeTag::Detect,
                trigger: ModeTrigger::Divergence,
            },
            TraceEvent::Divergence {
                pc: 5,
                mask: 3,
                parts: 2,
            },
            TraceEvent::Remerge { mask: 3 },
            TraceEvent::RstSet { reg: 4, a: 0, b: 1 },
            TraceEvent::RstClear { reg: 4, mask: 3 },
            TraceEvent::Lvip {
                pc: 8,
                mask: 3,
                outcome: LvipOutcome::Rollback,
            },
            TraceEvent::FaultInjected {
                unit: FaultUnit::Rst,
                index: 7,
            },
            TraceEvent::Watchdog {
                kind: WatchdogKind::Livelock,
            },
        ];
        let recs: Vec<TraceRecord> = events
            .into_iter()
            .enumerate()
            .map(|(i, event)| TraceRecord {
                cycle: i as u64,
                event,
            })
            .collect();
        let text = events_jsonl(&recs);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), recs.len());
        for (line, rec) in lines.iter().zip(&recs) {
            let v = json::parse(line).expect("line parses");
            assert_eq!(v.get("c").unwrap().as_f64(), Some(rec.cycle as f64));
            assert_eq!(v.get("k").unwrap().as_str(), Some(rec.event.name()));
        }
    }

    #[test]
    fn window_lines_parse_and_truncate_threads() {
        let s = WindowSample {
            end_cycle: 100,
            cycles: 100,
            delta: CounterSet {
                retired: [70, 50, 0, 0],
                fetch_merge: 80,
                fetch_detect: 20,
                uops_dispatched: 90,
                merged_uops: 40,
                remerges: 1,
                divergences: 1,
                ..CounterSet::default()
            },
            occupancy: Occupancy {
                rob: 12,
                lsq: 3,
                iq: 6,
                arena: 64,
            },
        };
        let text = windows_jsonl(&[s], 2);
        let v = json::parse(text.trim_end()).expect("window line parses");
        assert_eq!(v.get("retired").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("cycles").unwrap().as_f64(), Some(100.0));
        assert!((v.get("ipc").unwrap().as_f64().unwrap() - 1.2).abs() < 1e-9);
        assert_eq!(
            v.get("occ").unwrap().get("rob").unwrap().as_f64(),
            Some(12.0)
        );
    }
}
