//! A typed, allocation-free-in-steady-state metrics registry: the
//! aggregate-counter sibling of the event [ring](crate::ring), and the
//! scrape surface a long-running `mmtd` will mount.
//!
//! Design rules, in the same spirit as the tracing layer:
//!
//! * **Registration allocates, updates never do.** A metric is
//!   registered once up front and addressed by a typed id
//!   ([`CounterId`], [`GaugeId`], [`HistogramId`]) — an index into a
//!   preallocated slab. `inc`/`add`/`set`/`observe` are `#[inline]`
//!   integer ops on that slab, safe to call from a hot loop.
//! * **Zero cost when disabled.** Holders keep the registry behind an
//!   `Option<Box<…>>` (exactly the `ObsRecorder` discipline), so a
//!   disabled run never constructs one and pays a single branch.
//! * **Snapshotable mid-run.** [`MetricsRegistry::snapshot`] clones the
//!   current values; [`MetricsSnapshot::delta`] subtracts an earlier
//!   snapshot so `mid + (end - mid) == end` holds exactly, and
//!   [`MetricsSnapshot::merge`] folds snapshots from several runs.
//! * **Two export formats.** [`MetricsSnapshot::to_json`] for tooling,
//!   [`MetricsSnapshot::to_prometheus`] emitting the text exposition
//!   format (`# HELP`/`# TYPE`, escaped label values, cumulative
//!   histogram buckets with `+Inf`, `_sum`, `_count`).

use crate::json::ObjectWriter;
use std::fmt::Write as _;

/// Handle to a registered monotonic counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered fixed-bucket histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// What a metric is; decides both update semantics and exposition type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing `u64`.
    Counter,
    /// Arbitrary set-to-value `f64`.
    Gauge,
    /// Fixed upper-bound buckets plus running sum and count.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` name.
    pub fn prometheus_type(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct MetricMeta {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    kind: MetricKind,
    /// Index into the kind-specific value slab.
    slot: usize,
}

#[derive(Debug, Clone, PartialEq)]
struct HistogramState {
    /// Upper bounds (inclusive, ascending); an implicit `+Inf` bucket
    /// follows the last bound.
    bounds: Vec<f64>,
    /// Per-bucket observation counts, `bounds.len() + 1` entries.
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

/// Sanitize `name` into the Prometheus metric-name alphabet
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`; every out-of-alphabet byte becomes `_`
/// and an empty or digit-led name gains a leading `_`.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() || out.as_bytes()[0].is_ascii_digit() {
        out.insert(0, '_');
    }
    out
}

/// Exponentially spaced histogram bounds: `count` values starting at
/// `start`, each `factor` times the last. The standard shape for
/// wall-clock latency histograms.
///
/// # Panics
///
/// Panics if `start` is not positive or `factor` is not greater than 1.
pub fn exponential_bounds(start: f64, factor: f64, count: usize) -> Vec<f64> {
    assert!(start > 0.0, "start must be positive");
    assert!(factor > 1.0, "factor must be > 1");
    let mut bounds = Vec::with_capacity(count);
    let mut b = start;
    for _ in 0..count {
        bounds.push(b);
        b *= factor;
    }
    bounds
}

/// The registry: metadata plus preallocated value slabs. Construction
/// and registration allocate; steady-state updates are index arithmetic.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    metas: Vec<MetricMeta>,
    counters: Vec<u64>,
    gauges: Vec<f64>,
    histograms: Vec<HistogramState>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn push_meta(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: MetricKind,
        slot: usize,
    ) {
        self.metas.push(MetricMeta {
            name: sanitize_name(name),
            help: help.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (sanitize_name(k), v.to_string()))
                .collect(),
            kind,
            slot,
        });
    }

    /// Register a monotonic counter; `labels` are `(key, value)` pairs.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> CounterId {
        let slot = self.counters.len();
        self.counters.push(0);
        self.push_meta(name, help, labels, MetricKind::Counter, slot);
        CounterId(slot)
    }

    /// Register a gauge.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> GaugeId {
        let slot = self.gauges.len();
        self.gauges.push(0.0);
        self.push_meta(name, help, labels, MetricKind::Gauge, slot);
        GaugeId(slot)
    }

    /// Register a histogram with the given ascending upper `bounds` (an
    /// implicit `+Inf` bucket is appended).
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> HistogramId {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let slot = self.histograms.len();
        self.histograms.push(HistogramState {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        });
        self.push_meta(name, help, labels, MetricKind::Histogram, slot);
        HistogramId(slot)
    }

    /// Increment a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0] += 1;
    }

    /// Increment a counter by `n`.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0] += n;
    }

    /// Set a gauge.
    #[inline]
    pub fn set(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0] = v;
    }

    /// Record one histogram observation.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, v: f64) {
        let h = &mut self.histograms[id.0];
        // partition_point is a branch-free binary search over the fixed
        // bounds; no allocation in steady state.
        let bucket = h.bounds.partition_point(|&b| b < v);
        h.counts[bucket] += 1;
        h.sum += v;
        h.count += 1;
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0]
    }

    /// Clone the current values into an immutable snapshot. Tool path:
    /// allocates, never called from the cycle loop.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let series = self
            .metas
            .iter()
            .map(|m| MetricSeries {
                name: m.name.clone(),
                help: m.help.clone(),
                labels: m.labels.clone(),
                value: match m.kind {
                    MetricKind::Counter => SeriesValue::Counter(self.counters[m.slot]),
                    MetricKind::Gauge => SeriesValue::Gauge(self.gauges[m.slot]),
                    MetricKind::Histogram => {
                        let h = &self.histograms[m.slot];
                        SeriesValue::Histogram {
                            bounds: h.bounds.clone(),
                            counts: h.counts.clone(),
                            sum: h.sum,
                            count: h.count,
                        }
                    }
                },
            })
            .collect();
        MetricsSnapshot { series }
    }
}

/// One exported time series: a metric name, its labels, and its value.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSeries {
    /// Sanitized metric name.
    pub name: String,
    /// Help text (`# HELP` line).
    pub help: String,
    /// Label `(key, value)` pairs.
    pub labels: Vec<(String, String)>,
    /// The value, by kind.
    pub value: SeriesValue,
}

impl MetricSeries {
    fn key(&self) -> (&str, &[(String, String)]) {
        (&self.name, &self.labels)
    }
}

/// A snapshot value, by metric kind.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesValue {
    /// Monotonic counter total.
    Counter(u64),
    /// Last-set gauge value.
    Gauge(f64),
    /// Histogram state.
    Histogram {
        /// Ascending bucket upper bounds (exclusive of the implicit
        /// `+Inf`).
        bounds: Vec<f64>,
        /// Per-bucket (non-cumulative) observation counts,
        /// `bounds.len() + 1` entries.
        counts: Vec<u64>,
        /// Sum of all observations.
        sum: f64,
        /// Number of observations.
        count: u64,
    },
}

/// An immutable copy of a registry's values, taken mid-run or at the
/// end; supports subtraction ([`delta`](MetricsSnapshot::delta)),
/// merging, and export as JSON or Prometheus text.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// The series, in registration order.
    pub series: Vec<MetricSeries>,
}

impl MetricsSnapshot {
    /// Subtract `earlier` from `self`, series by series (matched on
    /// name + labels): counters and histogram buckets subtract, gauges
    /// keep the later value. Series absent from `earlier` pass through
    /// unchanged, so `mid.merged_with(end.delta(&mid)) == end` for
    /// counter series.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let series = self
            .series
            .iter()
            .map(|s| {
                let prev = earlier.series.iter().find(|e| e.key() == s.key());
                let value = match (&s.value, prev.map(|p| &p.value)) {
                    (SeriesValue::Counter(now), Some(SeriesValue::Counter(before))) => {
                        SeriesValue::Counter(now.saturating_sub(*before))
                    }
                    (
                        SeriesValue::Histogram {
                            bounds,
                            counts,
                            sum,
                            count,
                        },
                        Some(SeriesValue::Histogram {
                            counts: before_counts,
                            sum: before_sum,
                            count: before_count,
                            ..
                        }),
                    ) => SeriesValue::Histogram {
                        bounds: bounds.clone(),
                        counts: counts
                            .iter()
                            .zip(before_counts)
                            .map(|(a, b)| a.saturating_sub(*b))
                            .collect(),
                        sum: sum - before_sum,
                        count: count.saturating_sub(*before_count),
                    },
                    (v, _) => v.clone(),
                };
                MetricSeries {
                    name: s.name.clone(),
                    help: s.help.clone(),
                    labels: s.labels.clone(),
                    value,
                }
            })
            .collect();
        MetricsSnapshot { series }
    }

    /// Fold `other` into `self`: counters and histograms add (matched
    /// on name + labels), gauges take `other`'s value, unmatched series
    /// append.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for o in &other.series {
            match self.series.iter_mut().find(|s| s.key() == o.key()) {
                None => self.series.push(o.clone()),
                Some(s) => match (&mut s.value, &o.value) {
                    (SeriesValue::Counter(a), SeriesValue::Counter(b)) => *a += b,
                    (SeriesValue::Gauge(a), SeriesValue::Gauge(b)) => *a = *b,
                    (
                        SeriesValue::Histogram {
                            counts: ac,
                            sum: asum,
                            count: an,
                            ..
                        },
                        SeriesValue::Histogram {
                            counts: bc,
                            sum: bsum,
                            count: bn,
                            ..
                        },
                    ) => {
                        for (a, b) in ac.iter_mut().zip(bc) {
                            *a += b;
                        }
                        *asum += bsum;
                        *an += bn;
                    }
                    // Mismatched kinds under one name: keep ours.
                    _ => {}
                },
            }
        }
    }

    /// Export as a JSON array of series objects.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push('[');
        for (i, s) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mut w = ObjectWriter::new(&mut out);
            w.str("name", &s.name).str("help", &s.help);
            let mut labels = String::new();
            {
                let mut lw = ObjectWriter::new(&mut labels);
                for (k, v) in &s.labels {
                    lw.str(k, v);
                }
                lw.finish();
            }
            w.raw("labels", &labels);
            match &s.value {
                SeriesValue::Counter(v) => {
                    w.str("kind", "counter").u64("value", *v);
                }
                SeriesValue::Gauge(v) => {
                    w.str("kind", "gauge").f64("value", *v);
                }
                SeriesValue::Histogram {
                    bounds,
                    counts,
                    sum,
                    count,
                } => {
                    w.str("kind", "histogram")
                        .field("bounds", bounds)
                        .field("counts", counts)
                        .f64("sum", *sum)
                        .u64("count", *count);
                }
            }
            w.finish();
        }
        out.push(']');
        out
    }

    /// Export in the Prometheus text exposition format: one
    /// `# HELP`/`# TYPE` pair per metric name (first occurrence wins),
    /// label values escaped per the spec (`\\`, `\"`, `\n`), histograms
    /// as cumulative `_bucket{le=…}` series ending in `+Inf`, plus
    /// `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut seen: Vec<&str> = Vec::new();
        for s in &self.series {
            if !seen.contains(&s.name.as_str()) {
                seen.push(&s.name);
                let _ = writeln!(out, "# HELP {} {}", s.name, escape_help(&s.help));
                let _ = writeln!(
                    out,
                    "# TYPE {} {}",
                    s.name,
                    match s.value {
                        SeriesValue::Counter(_) => MetricKind::Counter,
                        SeriesValue::Gauge(_) => MetricKind::Gauge,
                        SeriesValue::Histogram { .. } => MetricKind::Histogram,
                    }
                    .prometheus_type()
                );
            }
            match &s.value {
                SeriesValue::Counter(v) => {
                    let _ = writeln!(out, "{}{} {v}", s.name, label_set(&s.labels, None));
                }
                SeriesValue::Gauge(v) => {
                    let _ = writeln!(out, "{}{} {v}", s.name, label_set(&s.labels, None));
                }
                SeriesValue::Histogram {
                    bounds,
                    counts,
                    sum,
                    count,
                } => {
                    let mut cumulative = 0u64;
                    for (i, c) in counts.iter().enumerate() {
                        cumulative += c;
                        let le = match bounds.get(i) {
                            Some(b) => format!("{b}"),
                            None => "+Inf".to_string(),
                        };
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {cumulative}",
                            s.name,
                            label_set(&s.labels, Some(&le))
                        );
                    }
                    let _ = writeln!(out, "{}_sum{} {sum}", s.name, label_set(&s.labels, None));
                    let _ = writeln!(
                        out,
                        "{}_count{} {count}",
                        s.name,
                        label_set(&s.labels, None)
                    );
                }
            }
        }
        out
    }
}

/// Escape a Prometheus label value: `\` → `\\`, `"` → `\"`, newline →
/// `\n` (the three escapes the exposition format defines).
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn escape_help(help: &str) -> String {
    // HELP text escapes only backslash and newline.
    let mut out = String::with_capacity(help.len());
    for c in help.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn label_set(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_registry() -> (MetricsRegistry, CounterId, GaugeId, HistogramId) {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("mmt_cycles_total", "Simulated cycles", &[]);
        let g = reg.gauge(
            "mmt_rob_occupancy",
            "ROB occupancy",
            &[("tier", "detailed")],
        );
        let h = reg.histogram(
            "mmt_stage_seconds",
            "Stage wall-clock",
            &[("stage", "fetch")],
            &[0.001, 0.01, 0.1],
        );
        (reg, c, g, h)
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let (mut reg, c, g, h) = sample_registry();
        reg.inc(c);
        reg.add(c, 9);
        reg.set(g, 2.5);
        reg.observe(h, 0.0005);
        reg.observe(h, 0.05);
        reg.observe(h, 5.0);
        assert_eq!(reg.counter_value(c), 10);
        let snap = reg.snapshot();
        assert_eq!(snap.series[0].value, SeriesValue::Counter(10));
        assert_eq!(snap.series[1].value, SeriesValue::Gauge(2.5));
        match &snap.series[2].value {
            SeriesValue::Histogram {
                counts, sum, count, ..
            } => {
                assert_eq!(counts, &[1, 0, 1, 1]);
                assert!((sum - 5.0505).abs() < 1e-9);
                assert_eq!(*count, 3);
            }
            v => panic!("expected histogram, got {v:?}"),
        }
    }

    #[test]
    fn observation_on_boundary_goes_to_lower_bucket() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("h", "", &[], &[1.0, 2.0]);
        reg.observe(h, 1.0); // le="1" is inclusive
        reg.observe(h, 2.0);
        reg.observe(h, 2.0001);
        match &reg.snapshot().series[0].value {
            SeriesValue::Histogram { counts, .. } => assert_eq!(counts, &[1, 1, 1]),
            v => panic!("{v:?}"),
        }
    }

    #[test]
    fn snapshot_delta_plus_mid_equals_end() {
        let (mut reg, c, g, h) = sample_registry();
        reg.add(c, 3);
        reg.observe(h, 0.002);
        reg.set(g, 1.0);
        let mid = reg.snapshot();
        reg.add(c, 4);
        reg.observe(h, 0.02);
        reg.set(g, 7.0);
        let end = reg.snapshot();
        let delta = end.delta(&mid);
        let mut rebuilt = mid.clone();
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, end, "mid + (end - mid) == end");
    }

    #[test]
    fn merge_appends_unknown_series() {
        let mut a = MetricsRegistry::new();
        a.counter("only_a", "", &[]);
        let mut b = MetricsRegistry::new();
        let bc = b.counter("only_b", "", &[]);
        b.add(bc, 5);
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.series.len(), 2);
        assert_eq!(snap.series[1].value, SeriesValue::Counter(5));
    }

    #[test]
    fn json_export_parses() {
        let (mut reg, c, _, h) = sample_registry();
        reg.add(c, 2);
        reg.observe(h, 0.5);
        let parsed = json::parse(&reg.snapshot().to_json()).expect("metrics JSON parses");
        let arr = parsed.as_array().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].get("kind").unwrap().as_str(), Some("counter"));
        assert_eq!(arr[0].get("value").unwrap().as_f64(), Some(2.0));
        assert_eq!(
            arr[2].get("counts").unwrap().as_array().unwrap().len(),
            4,
            "3 bounds + +Inf"
        );
    }

    #[test]
    fn prometheus_exposition_shape() {
        let (mut reg, c, g, h) = sample_registry();
        reg.add(c, 7);
        reg.set(g, 1.5);
        reg.observe(h, 0.005);
        reg.observe(h, 50.0);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# HELP mmt_cycles_total Simulated cycles\n"));
        assert!(text.contains("# TYPE mmt_cycles_total counter\n"));
        assert!(text.contains("mmt_cycles_total 7\n"));
        assert!(text.contains("mmt_rob_occupancy{tier=\"detailed\"} 1.5\n"));
        assert!(text.contains("mmt_stage_seconds_bucket{stage=\"fetch\",le=\"0.01\"} 1\n"));
        assert!(text.contains("mmt_stage_seconds_bucket{stage=\"fetch\",le=\"+Inf\"} 2\n"));
        assert!(text.contains("mmt_stage_seconds_count{stage=\"fetch\"} 2\n"));
        // Buckets are cumulative and monotonic.
        let le01: u64 = text
            .lines()
            .find(|l| l.contains("le=\"0.1\""))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert_eq!(le01, 1);
    }

    #[test]
    fn names_and_labels_are_sanitized_and_escaped() {
        assert_eq!(sanitize_name("mmt.stage-秒"), "mmt_stage__");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name(""), "_");
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let mut reg = MetricsRegistry::new();
        reg.counter("bad name!", "", &[("bad key!", "quote\"val")]);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("bad_name_{bad_key_=\"quote\\\"val\"} 0"));
    }

    #[test]
    fn exponential_bounds_shape() {
        let b = exponential_bounds(1e-6, 10.0, 4);
        assert_eq!(b.len(), 4);
        assert!((b[3] - 1e-3).abs() < 1e-12);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
    }
}
