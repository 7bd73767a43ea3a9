//! In-memory spans around the benchmark's calls into each layer.
//!
//! Every timed section of a pass is a span, so one mechanism both
//! times the end-to-end metrics and, in the traced run, gives the
//! per-layer self-time split. Spans nest (each records its parent) and
//! are written out only at exit, as Chrome trace-event JSON.

use mmt_obs::json::ObjectWriter;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) interval. Times are nanoseconds since the
/// recorder was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call this span wraps, e.g. `core.step`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns.
    pub start_ns: u64,
    /// End, in ns (equal to the start while the span is open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records spans in open order; children therefore follow their parent
/// and are ordered by start time.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Open a span nested in the innermost open one; returns its index.
    pub fn open(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Close span `id`, and any span opened inside it that a panic left
    /// open.
    pub fn close(&mut self, id: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                return;
            }
        }
        panic!("span {id} closed but not open");
    }

    /// Run `f` inside a span called `name`.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id);
        r
    }

    /// Every span recorded so far, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON (`B`/`E` pairs on one track, each `B`
    /// carrying its span id and parent id), loadable in Perfetto or
    /// `chrome://tracing`.
    pub fn chrome_json(&self) -> String {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        let mut roots = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            match s.parent {
                Some(p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        let mut events = Vec::with_capacity(self.spans.len() * 2);
        // Depth-first order emits a parent's B before its children's and
        // its E after theirs, so timestamps never decrease.
        let mut stack: Vec<(usize, bool)> = roots.iter().rev().map(|&r| (r, false)).collect();
        while let Some((i, done)) = stack.pop() {
            let s = &self.spans[i];
            let mut ev = String::new();
            let mut w = ObjectWriter::new(&mut ev);
            w.str("name", s.name).u64("pid", 1).u64("tid", 1);
            if done {
                w.str("ph", "E").f64("ts", s.end_ns as f64 / 1e3);
            } else {
                let mut args = String::new();
                let mut a = ObjectWriter::new(&mut args);
                a.u64("id", i as u64);
                match s.parent {
                    Some(p) => a.u64("parent", p as u64),
                    None => a.raw("parent", "null"),
                };
                a.finish();
                w.str("ph", "B")
                    .f64("ts", s.start_ns as f64 / 1e3)
                    .raw("args", &args);
                stack.push((i, true));
                stack.extend(children[i].iter().rev().map(|&c| (c, false)));
            }
            w.finish();
            events.push(ev);
        }
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}\n",
            events.join(",\n")
        )
    }
}

/// Self time per span name in seconds: each span's duration minus the
/// part its direct children cover, summed over spans of that name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(c);
        *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// Total (inclusive) seconds per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += s.secs();
    }
    out
}
