//! Chrome trace-event exporter (the `chrome://tracing` / Perfetto JSON
//! format) and a structural validator for it.
//!
//! Layout: one process (`pid` 1), one track per hardware thread carrying
//! that thread's fetch-sync mode as balanced `B`/`E` span pairs
//! (synthesized from [`ModeTransition`](crate::TraceEvent::ModeTransition)
//! events plus the initial mode, closed at trace end), instant events for
//! divergences / remerges / LVIP rollbacks, and `C` counter tracks fed by
//! the window samples (per-thread IPC, fetch-merge fraction, structure
//! occupancies, merged-dispatch fraction). Cycle numbers are written as
//! microsecond timestamps so one Perfetto "µs" equals one simulated cycle.

use crate::event::{LvipOutcome, ModeTag, TraceEvent};
use crate::json::{self, Value};
use crate::Trace;
use std::fmt::Write as _;

const PID: u32 = 1;

/// One pending trace-event row; serialized after a stable sort by `ts`.
struct Row {
    ts: u64,
    ph: char,
    tid: u32,
    name: &'static str,
    /// Pre-rendered `"args":{...}` payload, or empty for none.
    args: String,
}

fn row(ts: u64, ph: char, tid: u32, name: &'static str, args: String) -> Row {
    Row {
        ts,
        ph,
        tid,
        name,
        args,
    }
}

/// Render a [`Trace`] as a Chrome trace-event JSON document.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut rows: Vec<Row> = Vec::new();

    // Per-thread mode spans: open with the initial mode, flip at each
    // transition, close everything at trace end. E-before-B ordering at a
    // shared cycle is preserved by the stable sort below.
    let initial = if trace.initial_merged {
        ModeTag::Merge
    } else {
        ModeTag::Detect
    };
    let mut open: Vec<ModeTag> = vec![initial; trace.threads];
    for (t, mode) in open.iter().enumerate() {
        rows.push(row(0, 'B', t as u32, mode.name(), String::new()));
    }
    for rec in &trace.events {
        match rec.event {
            TraceEvent::ModeTransition {
                thread,
                to,
                trigger,
            } => {
                let t = thread as usize;
                if t < trace.threads {
                    rows.push(row(
                        rec.cycle,
                        'E',
                        thread as u32,
                        open[t].name(),
                        String::new(),
                    ));
                    rows.push(row(
                        rec.cycle,
                        'B',
                        thread as u32,
                        to.name(),
                        format!(",\"args\":{{\"trigger\":\"{}\"}}", trigger.name()),
                    ));
                    open[t] = to;
                }
            }
            TraceEvent::Divergence { pc, mask, parts } => {
                rows.push(row(
                    rec.cycle,
                    'i',
                    mask.trailing_zeros(),
                    "divergence",
                    format!(
                        ",\"s\":\"p\",\"args\":{{\"pc\":{pc},\"mask\":{mask},\"parts\":{parts}}}"
                    ),
                ));
            }
            TraceEvent::Remerge { mask } => {
                rows.push(row(
                    rec.cycle,
                    'i',
                    mask.trailing_zeros(),
                    "remerge",
                    format!(",\"s\":\"p\",\"args\":{{\"mask\":{mask}}}"),
                ));
            }
            TraceEvent::Lvip {
                pc,
                mask,
                outcome: LvipOutcome::Rollback,
            } => {
                rows.push(row(
                    rec.cycle,
                    'i',
                    mask.trailing_zeros(),
                    "lvip-rollback",
                    format!(",\"s\":\"t\",\"args\":{{\"pc\":{pc},\"mask\":{mask}}}"),
                ));
            }
            TraceEvent::FaultInjected { unit, index } => {
                rows.push(row(
                    rec.cycle,
                    'i',
                    0,
                    "fault",
                    format!(
                        ",\"s\":\"g\",\"args\":{{\"unit\":\"{}\",\"idx\":{index}}}",
                        unit.name()
                    ),
                ));
            }
            TraceEvent::Watchdog { kind } => {
                rows.push(row(
                    rec.cycle,
                    'i',
                    0,
                    "watchdog",
                    format!(",\"s\":\"g\",\"args\":{{\"kind\":\"{}\"}}", kind.name()),
                ));
            }
            _ => {}
        }
    }
    for (t, mode) in open.iter().enumerate() {
        rows.push(row(trace.cycles, 'E', t as u32, mode.name(), String::new()));
    }

    // Counter tracks from the window series.
    for s in &trace.windows {
        let mut ipc = String::from(",\"args\":{");
        for t in 0..trace.threads {
            if t > 0 {
                ipc.push(',');
            }
            let _ = write!(ipc, "\"t{t}\":{:.4}", s.thread_ipc(t));
        }
        ipc.push('}');
        rows.push(row(s.end_cycle, 'C', 0, "ipc", ipc));
        rows.push(row(
            s.end_cycle,
            'C',
            0,
            "fetch merge fraction",
            format!(",\"args\":{{\"merged\":{:.4}}}", s.merge_fraction()),
        ));
        rows.push(row(
            s.end_cycle,
            'C',
            0,
            "merged dispatch fraction",
            format!(
                ",\"args\":{{\"merged\":{:.4}}}",
                s.merged_dispatch_fraction()
            ),
        ));
        rows.push(row(
            s.end_cycle,
            'C',
            0,
            "occupancy",
            format!(
                ",\"args\":{{\"rob\":{},\"lsq\":{},\"iq\":{},\"arena\":{}}}",
                s.occupancy.rob, s.occupancy.lsq, s.occupancy.iq, s.occupancy.arena
            ),
        ));
        rows.push(row(
            s.end_cycle,
            'C',
            0,
            "remerges",
            format!(",\"args\":{{\"count\":{}}}", s.delta.remerges),
        ));
    }

    // Stable sort: non-decreasing ts, insertion order preserved within a
    // cycle (keeps E-before-B pairs adjacent and validator-clean).
    rows.sort_by_key(|r| r.ts);

    let mut out = String::with_capacity(rows.len() * 96 + 1024);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":0,\
         \"args\":{{\"name\":\"mmt pipeline\"}}}}"
    );
    for t in 0..trace.threads {
        let _ = write!(
            out,
            ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":{t},\
             \"args\":{{\"name\":\"thread {t} fetch mode\"}}}}"
        );
    }
    for r in &rows {
        let _ = write!(
            out,
            ",{{\"name\":\"{}\",\"cat\":\"mmt\",\"ph\":\"{}\",\"ts\":{},\"pid\":{PID},\
             \"tid\":{}{}}}",
            r.name, r.ph, r.ts, r.tid, r.args
        );
    }
    let _ = write!(
        out,
        "],\"otherData\":{{\"cycles\":{},\"threads\":{},\"window\":{},\"dropped\":{}}}}}",
        trace.cycles, trace.threads, trace.window, trace.dropped
    );
    out
}

/// Structural facts about a validated Chrome trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChromeSummary {
    /// Total entries in `traceEvents`.
    pub events: usize,
    /// Matched `B`/`E` span pairs.
    pub span_pairs: usize,
    /// `C` counter samples.
    pub counters: usize,
    /// Instant (`i`) events.
    pub instants: usize,
}

/// Validate a Chrome trace-event document: well-formed JSON, a
/// `traceEvents` array, monotonically non-decreasing timestamps, and
/// balanced `B`/`E` pairs (matching names) on every `(pid, tid)` track.
///
/// # Errors
///
/// Returns a description of the first structural violation.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeSummary, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("missing traceEvents array")?;

    let mut summary = ChromeSummary {
        events: events.len(),
        ..Default::default()
    };
    let mut last_ts = f64::NEG_INFINITY;
    // (pid, tid) -> stack of open span names.
    let mut stacks: std::collections::BTreeMap<(u64, u64), Vec<String>> =
        std::collections::BTreeMap::new();

    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if ph == "M" {
            continue; // metadata carries no timestamp
        }
        let ts = ev
            .get("ts")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        if ts < last_ts {
            return Err(format!(
                "event {i}: ts {ts} < previous {last_ts} (not sorted)"
            ));
        }
        last_ts = ts;
        let pid = ev.get("pid").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let tid = ev.get("tid").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let name = ev.get("name").and_then(Value::as_str).unwrap_or("");
        match ph {
            "B" => stacks.entry((pid, tid)).or_default().push(name.to_string()),
            "E" => {
                let stack = stacks.entry((pid, tid)).or_default();
                match stack.pop() {
                    Some(open) if open == name => summary.span_pairs += 1,
                    Some(open) => {
                        return Err(format!(
                            "event {i}: E '{name}' closes B '{open}' on track ({pid},{tid})"
                        ));
                    }
                    None => {
                        return Err(format!(
                            "event {i}: E '{name}' with no open B on track ({pid},{tid})"
                        ));
                    }
                }
            }
            "C" => summary.counters += 1,
            "i" | "I" => summary.instants += 1,
            other => return Err(format!("event {i}: unsupported ph '{other}'")),
        }
    }
    for ((pid, tid), stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("unclosed B '{open}' on track ({pid},{tid})"));
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ModeTrigger, TraceRecord};
    use crate::replay::CounterSet;
    use crate::window::{Occupancy, WindowSample};

    fn sample_trace() -> Trace {
        let events = vec![
            TraceRecord {
                cycle: 40,
                event: TraceEvent::Divergence {
                    pc: 7,
                    mask: 0b11,
                    parts: 2,
                },
            },
            TraceRecord {
                cycle: 40,
                event: TraceEvent::ModeTransition {
                    thread: 0,
                    to: ModeTag::Detect,
                    trigger: ModeTrigger::Divergence,
                },
            },
            TraceRecord {
                cycle: 40,
                event: TraceEvent::ModeTransition {
                    thread: 1,
                    to: ModeTag::Detect,
                    trigger: ModeTrigger::Divergence,
                },
            },
            TraceRecord {
                cycle: 90,
                event: TraceEvent::ModeTransition {
                    thread: 1,
                    to: ModeTag::Merge,
                    trigger: ModeTrigger::PcMatch,
                },
            },
            TraceRecord {
                cycle: 90,
                event: TraceEvent::ModeTransition {
                    thread: 0,
                    to: ModeTag::Merge,
                    trigger: ModeTrigger::PcMatch,
                },
            },
            TraceRecord {
                cycle: 90,
                event: TraceEvent::Remerge { mask: 0b11 },
            },
        ];
        let windows = vec![WindowSample {
            end_cycle: 100,
            cycles: 100,
            delta: CounterSet {
                fetch_merge: 50,
                fetch_detect: 50,
                uops_dispatched: 60,
                merged_uops: 20,
                remerges: 1,
                divergences: 1,
                ..CounterSet::default()
            },
            occupancy: Occupancy {
                rob: 8,
                lsq: 2,
                iq: 4,
                arena: 32,
            },
        }];
        Trace {
            threads: 2,
            window: 100,
            cycles: 120,
            dropped: 0,
            initial_merged: true,
            events,
            windows,
        }
    }

    #[test]
    fn export_validates_round_trip() {
        let text = chrome_trace_json(&sample_trace());
        let summary = validate_chrome_trace(&text).expect("trace validates");
        // 2 initial spans + 4 transition spans, all closed.
        assert_eq!(summary.span_pairs, 6);
        assert_eq!(summary.counters, 5);
        assert_eq!(summary.instants, 2);
    }

    #[test]
    fn validator_rejects_broken_streams() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        let unbalanced = r#"{"traceEvents":[
            {"ph":"B","ts":0,"pid":1,"tid":0,"name":"MERGE"}]}"#;
        assert!(validate_chrome_trace(unbalanced)
            .unwrap_err()
            .contains("unclosed"));
        let misordered = r#"{"traceEvents":[
            {"ph":"i","ts":5,"pid":1,"tid":0,"name":"x"},
            {"ph":"i","ts":4,"pid":1,"tid":0,"name":"y"}]}"#;
        assert!(validate_chrome_trace(misordered)
            .unwrap_err()
            .contains("not sorted"));
        let crossed = r#"{"traceEvents":[
            {"ph":"B","ts":0,"pid":1,"tid":0,"name":"MERGE"},
            {"ph":"E","ts":1,"pid":1,"tid":0,"name":"DETECT"}]}"#;
        assert!(validate_chrome_trace(crossed)
            .unwrap_err()
            .contains("closes"));
    }
}
