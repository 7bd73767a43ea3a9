//! Trend reporting over the run ledger and the committed bench reports
//! — the library behind the `mmtreport` bin.
//!
//! [`build`] joins `results/LEDGER.jsonl` (one record per gate/bench
//! invocation, see [`crate::ledger`]) with the structural content of
//! `results/BENCH_*.json` and produces a [`Report`]: per-tool trend rows
//! (run count, latest throughput, delta vs. the previous comparable run,
//! a unicode sparkline, gate outcome, verdict) plus any structural
//! issues found inside the bench reports themselves. The report renders
//! as GitHub-flavoured markdown (for CI job summaries) and as JSON (for
//! machines); `mmtreport --check` turns any regression verdict or
//! structural issue into exit 1.
//!
//! Throughput regressions are judged **ledger-local**: the latest record
//! for a tool is compared against the *previous ledger record with the
//! same config digest*, never against a committed absolute number —
//! records from a different machine class simply start a new trend line,
//! so CI speed changes cannot fake a regression. The trend covers the
//! committed run history; a change's own speed is checked against its
//! base commit on one runner by `mmtbench` pairs
//! (`.github/scripts/bench_pair.sh`).

use crate::ledger::{self, LedgerRecord};
use mmt_obs::json::{self, ObjectWriter, ToJson, Value};
use std::path::{Path, PathBuf};

/// Latest throughput below this fraction of the previous comparable
/// run's is a regression.
pub const CPS_REGRESSION_FLOOR: f64 = 0.95;

/// How many trailing runs the sparkline covers.
const SPARK_WIDTH: usize = 16;

/// Where the inputs live.
#[derive(Debug, Clone)]
pub struct ReportOptions {
    /// The ledger file (default `results/LEDGER.jsonl`).
    pub ledger: PathBuf,
    /// The directory scanned for `BENCH_*.json` (default `results`).
    pub results: PathBuf,
}

impl Default for ReportOptions {
    fn default() -> ReportOptions {
        ReportOptions {
            ledger: PathBuf::from(ledger::LEDGER_PATH),
            results: PathBuf::from("results"),
        }
    }
}

/// One tool's trend line through the ledger.
#[derive(Debug, Clone)]
pub struct ToolTrend {
    /// The tool name.
    pub tool: String,
    /// Total ledger records for the tool.
    pub runs: usize,
    /// The most recent record.
    pub latest: LedgerRecord,
    /// Throughput of the previous record with the same config digest.
    pub prev_cps: Option<f64>,
    /// Latest throughput relative to `prev_cps`, in percent
    /// (`+3.1` = 3.1% faster).
    pub delta_pct: Option<f64>,
    /// Unicode sparkline over the trailing comparable-run throughputs.
    pub sparkline: String,
    /// `ok`, `REGRESSED (…)`, or `GATE FAILED`.
    pub verdict: String,
    /// True when the verdict is clean.
    pub ok: bool,
}

/// The joined trend report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Per-tool trends, alphabetical.
    pub tools: Vec<ToolTrend>,
    /// Structural problems found inside `BENCH_*.json` files
    /// (`file: what`).
    pub bench_issues: Vec<String>,
}

impl Report {
    /// True iff every tool verdict is clean and no bench file has
    /// structural issues.
    pub fn ok(&self) -> bool {
        self.tools.iter().all(|t| t.ok) && self.bench_issues.is_empty()
    }

    /// The report as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("## mmtreport — run-ledger trends\n\n");
        if self.tools.is_empty() {
            out.push_str("no ledger records.\n");
        } else {
            out.push_str("| tool | runs | gate | cycles/sec | Δ vs prev | trend | verdict |\n");
            out.push_str("|---|---|---|---|---|---|---|\n");
            for t in &self.tools {
                let cps = if t.latest.sim_cycles_per_sec > 0.0 {
                    format_cps(t.latest.sim_cycles_per_sec)
                } else {
                    "–".to_string()
                };
                let delta = match t.delta_pct {
                    Some(d) => format!("{d:+.1}%"),
                    None => "–".to_string(),
                };
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {} | {} |\n",
                    t.tool, t.runs, t.latest.gate, cps, delta, t.sparkline, t.verdict
                ));
            }
        }
        if !self.bench_issues.is_empty() {
            out.push_str("\n### bench report issues\n\n");
            for issue in &self.bench_issues {
                out.push_str(&format!("* {issue}\n"));
            }
        }
        out.push_str(&format!(
            "\nverdict: {}\n",
            if self.ok() { "ok" } else { "REGRESSED" }
        ));
        out
    }

    /// The report as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut w = ObjectWriter::new(&mut out);
        w.field("tools", &self.tools)
            .field("bench_issues", &self.bench_issues)
            .bool("ok", self.ok());
        w.finish();
        out
    }
}

/// One tool's trend as a `tools[]` entry of [`Report::to_json`], with
/// the latest record's gate, revision and timing inlined.
impl ToJson for ToolTrend {
    fn write_json(&self, out: &mut String) {
        let mut w = ObjectWriter::new(out);
        w.str("tool", &self.tool)
            .field("runs", &self.runs)
            .str("gate", &self.latest.gate)
            .str("git_rev", &self.latest.git_rev)
            .f64("wall_ms", self.latest.wall_ms)
            .f64("sim_cycles_per_sec", self.latest.sim_cycles_per_sec)
            .field("prev_cps", &self.prev_cps)
            .field("delta_pct", &self.delta_pct)
            .str("sparkline", &self.sparkline)
            .str("verdict", &self.verdict)
            .bool("ok", self.ok);
        w.finish();
    }
}

/// Build the report from a ledger file and a results directory.
///
/// # Errors
///
/// An unreadable or schema-violating ledger (missing `BENCH_*.json`
/// files are not an error; an unparseable one is reported as an issue,
/// not an error).
pub fn build(opts: &ReportOptions) -> Result<Report, String> {
    let records = ledger::read(&opts.ledger)?;
    let mut tools: Vec<ToolTrend> = Vec::new();
    let mut names: Vec<&str> = records.iter().map(|r| r.tool.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    for tool in names {
        let history: Vec<&LedgerRecord> = records.iter().filter(|r| r.tool == tool).collect();
        let latest = (*history.last().expect("tool has records")).clone();
        // Only runs of the same configuration are comparable.
        let comparable: Vec<f64> = history
            .iter()
            .filter(|r| r.config_digest == latest.config_digest && r.sim_cycles_per_sec > 0.0)
            .map(|r| r.sim_cycles_per_sec)
            .collect();
        let prev_cps = (comparable.len() >= 2 && latest.sim_cycles_per_sec > 0.0)
            .then(|| comparable[comparable.len() - 2]);
        let delta_pct = prev_cps
            .filter(|&p| p > 0.0)
            .map(|p| (latest.sim_cycles_per_sec / p - 1.0) * 100.0);
        let regressed =
            prev_cps.is_some_and(|p| latest.sim_cycles_per_sec < CPS_REGRESSION_FLOOR * p);
        let (verdict, ok) = if latest.gate == "fail" {
            ("GATE FAILED".to_string(), false)
        } else if regressed {
            (
                format!(
                    "REGRESSED ({:.1}% of prev)",
                    100.0 * latest.sim_cycles_per_sec / prev_cps.expect("regressed implies prev")
                ),
                false,
            )
        } else {
            ("ok".to_string(), true)
        };
        tools.push(ToolTrend {
            tool: tool.to_string(),
            runs: history.len(),
            latest,
            prev_cps,
            delta_pct,
            sparkline: sparkline(&comparable),
            verdict,
            ok,
        });
    }
    Ok(Report {
        tools,
        bench_issues: scan_bench_reports(&opts.results),
    })
}

/// Render values as a `▁▂▃▄▅▆▇█` sparkline (trailing 16 values), or
/// `–` when there is nothing to plot.
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let tail = &values[values.len().saturating_sub(SPARK_WIDTH)..];
    if tail.is_empty() {
        return "–".to_string();
    }
    let (lo, hi) = tail
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    tail.iter()
        .map(|&v| {
            if hi <= lo {
                BARS[3]
            } else {
                let idx = ((v - lo) / (hi - lo) * (BARS.len() - 1) as f64).round() as usize;
                BARS[idx.min(BARS.len() - 1)]
            }
        })
        .collect()
}

/// Human-scale cycles/sec: `1.23M`, `456k`, `789`.
fn format_cps(cps: f64) -> String {
    if cps >= 1e6 {
        format!("{:.2}M", cps / 1e6)
    } else if cps >= 1e3 {
        format!("{:.0}k", cps / 1e3)
    } else {
        format!("{cps:.0}")
    }
}

/// Structural checks over every `BENCH_*.json` in the results
/// directory: recorded failures, failed gates, silent corruptions, and
/// surviving soundness violations make the committed evidence dirty
/// even if no gate is re-run.
fn scan_bench_reports(dir: &Path) -> Vec<String> {
    let mut issues = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return issues;
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    for path in paths {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("BENCH_?.json")
            .to_string();
        match json::parse_file(&path) {
            Ok(v) => scan_value(&name, "", &v, &mut issues),
            Err(e) => issues.push(format!("{name}: unparseable: {e:?}")),
        }
    }
    issues
}

/// Recursive structural walk of one bench report.
fn scan_value(file: &str, path: &str, v: &Value, issues: &mut Vec<String>) {
    match v {
        Value::Object(m) => {
            for (k, child) in m {
                let here = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                match (k.as_str(), child) {
                    ("pass", Value::Bool(false)) => {
                        issues.push(format!("{file}: {here} is false"));
                    }
                    ("gate", Value::String(s)) if s == "fail" => {
                        issues.push(format!("{file}: {here} = \"fail\""));
                    }
                    ("silent", Value::Number(n)) if *n > 0.0 => {
                        issues.push(format!("{file}: {here} = {n} silent corruption(s)"));
                    }
                    ("failures" | "soundness_violations", Value::Array(a)) if !a.is_empty() => {
                        issues.push(format!("{file}: {here} has {} entr(ies)", a.len()));
                    }
                    _ => {}
                }
                scan_value(file, &here, child, issues);
            }
        }
        Value::Array(a) => {
            for (i, child) in a.iter().enumerate() {
                scan_value(file, &format!("{path}[{i}]"), child, issues);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mmt-report-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn record(tool: &str, cps: f64, violations: usize) -> LedgerRecord {
        LedgerRecord::new(tool, 16, &[2, 4], 16, 100.0, cps, violations)
    }

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[]), "–");
        assert_eq!(sparkline(&[5.0]), "▄");
        assert_eq!(sparkline(&[1.0, 1.0]), "▄▄");
        let s = sparkline(&[1.0, 2.0, 3.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁') && s.ends_with('█'), "{s}");
        // Only the trailing window is plotted.
        let long: Vec<f64> = (0..40).map(|i| i as f64).collect();
        assert_eq!(sparkline(&long).chars().count(), 16);
    }

    #[test]
    fn steady_throughput_is_ok_and_regression_is_flagged() {
        let dir = temp_dir("trend");
        let path = dir.join("LEDGER.jsonl");
        record("mmtffwd", 1.0e6, 0).append_to(&path).unwrap();
        record("mmtffwd", 1.01e6, 0).append_to(&path).unwrap();
        let opts = ReportOptions {
            ledger: path.clone(),
            results: dir.join("none"),
        };
        let report = build(&opts).unwrap();
        assert!(report.ok(), "{:?}", report.tools);
        assert_eq!(report.tools[0].runs, 2);
        assert!(report.tools[0].delta_pct.unwrap() > 0.0);

        // A >5% drop against the previous comparable run regresses.
        record("mmtffwd", 0.5e6, 0).append_to(&path).unwrap();
        let report = build(&opts).unwrap();
        assert!(!report.ok());
        assert!(report.tools[0].verdict.starts_with("REGRESSED"));
        assert!(report.to_markdown().contains("REGRESSED"));
        assert!(report.to_json().contains("\"ok\":false"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn different_config_digests_do_not_compare() {
        let dir = temp_dir("digest");
        let path = dir.join("LEDGER.jsonl");
        record("mmtpredict", 1.0e6, 0).append_to(&path).unwrap();
        // Same tool, different grid → different digest → fresh trend.
        LedgerRecord::new("mmtpredict", 1, &[2], 16, 100.0, 0.1e6, 0)
            .append_to(&path)
            .unwrap();
        let report = build(&ReportOptions {
            ledger: path,
            results: dir.join("none"),
        })
        .unwrap();
        assert!(report.ok(), "{:?}", report.tools);
        assert_eq!(report.tools[0].prev_cps, None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gate_failures_and_dirty_bench_reports_fail_the_report() {
        let dir = temp_dir("dirty");
        let results = dir.join("results");
        std::fs::create_dir_all(&results).unwrap();
        let path = dir.join("LEDGER.jsonl");
        record("mmtmem", 0.0, 2).append_to(&path).unwrap();
        std::fs::write(
            results.join("BENCH_x.json"),
            r#"{"rows":[{"app":"fft","soundness_violations":["bad"]}],"pass":false}"#,
        )
        .unwrap();
        std::fs::write(results.join("not_a_bench.json"), "][").unwrap();
        let report = build(&ReportOptions {
            ledger: path,
            results,
        })
        .unwrap();
        assert_eq!(report.tools[0].verdict, "GATE FAILED");
        assert_eq!(report.bench_issues.len(), 2, "{:?}", report.bench_issues);
        assert!(!report.ok());
        let v = json::parse(&report.to_json()).expect("valid JSON with issues");
        let issues = v.get("bench_issues").unwrap().as_array().unwrap();
        assert_eq!(issues[0].as_str(), Some(report.bench_issues[0].as_str()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn json_output_parses_and_zero_cps_tools_report_no_throughput() {
        let dir = temp_dir("json");
        let path = dir.join("LEDGER.jsonl");
        record("mmtvalue", 0.0, 0).append_to(&path).unwrap();
        record("mmtvalue", 0.0, 0).append_to(&path).unwrap();
        let report = build(&ReportOptions {
            ledger: path,
            results: dir.join("none"),
        })
        .unwrap();
        assert!(report.ok());
        assert_eq!(report.tools[0].prev_cps, None, "cps 0 = not measured");
        let v = json::parse(&report.to_json()).expect("valid JSON");
        assert_eq!(
            v.get("tools").unwrap().as_array().unwrap()[0]
                .get("tool")
                .unwrap()
                .as_str(),
            Some("mmtvalue")
        );
        assert!(report.to_markdown().contains("| – |"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
