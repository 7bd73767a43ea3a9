//! The persistent run ledger: one JSONL record per gate/bench
//! invocation, appended to `results/LEDGER.jsonl`.
//!
//! Every bench bin appends a [`LedgerRecord`] — config digest, git
//! revision, app×thread grid, wall-clock, sim-cycles/sec, gate outcome
//! — so the repo accumulates a machine-readable trend history that
//! `mmtreport` turns into deltas, sparklines, and regression verdicts.
//! Appending is advisory: a read-only checkout must not fail a gate, so
//! write errors warn on stderr instead of exiting.
//!
//! The schema is validated two ways: [`LedgerRecord::validate`] checks
//! one parsed line (used by the schema test over the committed ledger),
//! and [`read`] parses a whole file line by line.

use mmt_obs::json::{self, FromJson, Value};
use std::path::{Path, PathBuf};

/// Where the ledger lives, relative to the repo root.
pub const LEDGER_PATH: &str = "results/LEDGER.jsonl";

/// One ledger line: the who/what/how-fast/did-it-pass of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRecord {
    /// The bin that ran (`mmtpredict`, `perfsmoke`, …).
    pub tool: String,
    /// Short git revision of the working tree, or `unknown`.
    pub git_rev: String,
    /// FNV-1a digest over the run configuration (tool, grid, scale), so
    /// trend comparisons only pair like with like.
    pub config_digest: String,
    /// Number of suite apps in the grid.
    pub apps: u64,
    /// Thread counts, comma-joined (`"2,4"`).
    pub threads: String,
    /// Iteration-divisor scale the grid ran at.
    pub scale: u64,
    /// End-to-end wall-clock, milliseconds.
    pub wall_ms: f64,
    /// Simulation throughput over the whole run (0 when the tool does
    /// not measure it).
    pub sim_cycles_per_sec: f64,
    /// Gate outcome: `pass` or `fail`.
    pub gate: String,
    /// Soundness violations / regressions the gate counted.
    pub violations: u64,
}
mmt_obs::impl_json! {
    LedgerRecord {
        tool, git_rev, config_digest, apps, threads, scale, wall_ms, sim_cycles_per_sec, gate,
        violations
    }
}

impl LedgerRecord {
    /// Assemble a record, stamping the git revision and config digest.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        tool: &str,
        apps: usize,
        threads: &[usize],
        scale: u64,
        wall_ms: f64,
        sim_cycles_per_sec: f64,
        violations: usize,
    ) -> LedgerRecord {
        let threads = threads
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(",");
        LedgerRecord {
            tool: tool.to_string(),
            git_rev: git_rev(),
            config_digest: String::new(),
            apps: apps as u64,
            threads,
            scale,
            wall_ms,
            sim_cycles_per_sec,
            gate: if violations == 0 { "pass" } else { "fail" }.to_string(),
            violations: violations as u64,
        }
        .keyed_by(&[])
    }

    /// Set the config digest to cover the tool, grid and scale plus
    /// `parts` (say, which figures a run regenerated), so trends pair
    /// only records that did the same work.
    pub fn keyed_by(mut self, parts: &[&str]) -> LedgerRecord {
        let (apps, scale) = (self.apps.to_string(), self.scale.to_string());
        let mut all = vec![self.tool.as_str(), &apps, &self.threads, &scale];
        all.extend_from_slice(parts);
        self.config_digest = config_digest(&all);
        self
    }

    /// The record as one JSONL line (trailing newline included).
    pub fn to_json_line(&self) -> String {
        json::to_json(self) + "\n"
    }

    /// Append to [`LEDGER_PATH`] (creating `results/` if needed).
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn append(&self) -> std::io::Result<PathBuf> {
        self.append_to(Path::new(LEDGER_PATH))
    }

    /// Append to an explicit ledger path.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn append_to(&self, path: &Path) -> std::io::Result<PathBuf> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(self.to_json_line().as_bytes())?;
        Ok(path.to_path_buf())
    }

    /// Append, degrading a filesystem error to a stderr warning — the
    /// ledger is observability, and observability must never fail a
    /// gate run.
    pub fn append_or_warn(&self) {
        match self.append() {
            Ok(path) => println!("ledger += {} ({})", path.display(), self.tool),
            Err(e) => eprintln!("warning: ledger record not appended: {e}"),
        }
    }

    /// Validate one parsed ledger line against the schema: every field
    /// present with the right type, `gate` ∈ {`pass`, `fail`}, and
    /// non-negative finite numerics.
    ///
    /// # Errors
    ///
    /// A description of the first schema violation.
    pub fn validate(v: &Value) -> Result<(), String> {
        for key in ["tool", "git_rev", "config_digest", "threads", "gate"] {
            match v.get(key) {
                Some(Value::String(s)) if !s.is_empty() => {}
                Some(Value::String(_)) => return Err(format!("field '{key}' is empty")),
                Some(other) => return Err(format!("field '{key}' is not a string: {other:?}")),
                None => return Err(format!("field '{key}' is missing")),
            }
        }
        for key in [
            "apps",
            "scale",
            "wall_ms",
            "sim_cycles_per_sec",
            "violations",
        ] {
            match v.get(key) {
                Some(Value::Number(n)) if n.is_finite() && *n >= 0.0 => {}
                Some(Value::Number(n)) => {
                    return Err(format!("field '{key}' is negative or non-finite: {n}"))
                }
                Some(other) => return Err(format!("field '{key}' is not a number: {other:?}")),
                None => return Err(format!("field '{key}' is missing")),
            }
        }
        let gate = v.get("gate").and_then(Value::as_str).expect("checked");
        if gate != "pass" && gate != "fail" {
            return Err(format!("field 'gate' must be pass|fail, got '{gate}'"));
        }
        let violations = v
            .get("violations")
            .and_then(Value::as_f64)
            .expect("checked");
        if (gate == "pass") != (violations == 0.0) {
            return Err(format!(
                "gate '{gate}' is inconsistent with {violations} violation(s)"
            ));
        }
        Ok(())
    }
}

/// Parse a ledger file into its records, in file order.
///
/// # Errors
///
/// The first unparseable or schema-violating line, with its number.
pub fn read(path: &Path) -> Result<Vec<LedgerRecord>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        LedgerRecord::validate(&v).map_err(|e| format!("line {}: {e}", i + 1))?;
        let record = LedgerRecord::from_json(&v)
            .ok_or_else(|| format!("line {}: counts must be whole numbers", i + 1))?;
        records.push(record);
    }
    Ok(records)
}

/// The working tree's short git revision, or `unknown` outside a repo.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a hex digest over the `\x1f`-joined parts — a stable, compact
/// fingerprint for "same grid, same scale" comparisons.
pub fn config_digest(parts: &[&str]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (i, part) in parts.iter().enumerate() {
        if i > 0 {
            h ^= 0x1f;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        for &b in part.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LedgerRecord {
        LedgerRecord::new("mmtpredict", 16, &[2, 4], 16, 1234.5, 0.0, 0)
    }

    #[test]
    fn record_round_trips_and_validates() {
        let rec = sample();
        let line = rec.to_json_line();
        assert!(line.ends_with('\n'));
        let v = json::parse(line.trim_end()).expect("ledger line is valid JSON");
        LedgerRecord::validate(&v).expect("schema-clean");
        assert_eq!(LedgerRecord::from_json(&v).unwrap(), rec);
        assert_eq!(rec.gate, "pass");
        assert_eq!(rec.threads, "2,4");
    }

    #[test]
    fn violations_flip_the_gate() {
        let rec = LedgerRecord::new("mmtmem", 16, &[2], 16, 10.0, 0.0, 3);
        assert_eq!(rec.gate, "fail");
        let v = json::parse(rec.to_json_line().trim_end()).unwrap();
        LedgerRecord::validate(&v).expect("fail records are schema-clean too");
    }

    #[test]
    fn validate_rejects_malformed_records() {
        let cases = [
            (r#"{}"#, "missing"),
            (
                r#"{"tool":1,"git_rev":"a","config_digest":"b","threads":"2","gate":"pass","apps":1,"scale":1,"wall_ms":1,"sim_cycles_per_sec":0,"violations":0}"#,
                "not a string",
            ),
            (
                r#"{"tool":"t","git_rev":"a","config_digest":"b","threads":"2","gate":"maybe","apps":1,"scale":1,"wall_ms":1,"sim_cycles_per_sec":0,"violations":0}"#,
                "pass|fail",
            ),
            (
                r#"{"tool":"t","git_rev":"a","config_digest":"b","threads":"2","gate":"pass","apps":1,"scale":1,"wall_ms":-4,"sim_cycles_per_sec":0,"violations":0}"#,
                "negative",
            ),
            (
                r#"{"tool":"t","git_rev":"a","config_digest":"b","threads":"2","gate":"pass","apps":1,"scale":1,"wall_ms":1,"sim_cycles_per_sec":0,"violations":2}"#,
                "inconsistent",
            ),
        ];
        for (line, want) in cases {
            let v = json::parse(line).unwrap();
            let err = LedgerRecord::validate(&v).unwrap_err();
            assert!(err.contains(want), "{line}: {err}");
        }
    }

    #[test]
    fn append_and_read_back() {
        let dir = std::env::temp_dir().join(format!("mmt-ledger-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("LEDGER.jsonl");
        sample().append_to(&path).unwrap();
        LedgerRecord::new("perfsmoke", 1, &[4], 1, 9.0, 5e5, 0)
            .append_to(&path)
            .unwrap();
        let records = read(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].tool, "mmtpredict");
        assert_eq!(records[1].sim_cycles_per_sec, 5e5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn config_digest_is_stable_and_separating() {
        assert_eq!(config_digest(&["a", "b"]), config_digest(&["a", "b"]));
        assert_ne!(config_digest(&["a", "b"]), config_digest(&["ab"]));
        assert_ne!(config_digest(&["a", "b"]), config_digest(&["b", "a"]));
        let rec = sample();
        assert_eq!(
            rec.config_digest,
            config_digest(&["mmtpredict", "16", "2,4", "16"])
        );
        let keyed = sample().keyed_by(&["fig5a_speedup_2t"]);
        assert_ne!(keyed.config_digest, rec.config_digest);
        assert_ne!(
            keyed.config_digest,
            sample().keyed_by(&["fig5b_identified"]).config_digest
        );
    }

    #[test]
    fn read_rejects_fractional_counts() {
        let dir = std::env::temp_dir().join(format!("mmt-ledger-frac-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("LEDGER.jsonl");
        sample().append_to(&path).unwrap();
        let line = sample()
            .to_json_line()
            .replace("\"apps\":16", "\"apps\":1.5");
        std::fs::write(&path, std::fs::read_to_string(&path).unwrap() + &line).unwrap();
        let err = read(&path).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
