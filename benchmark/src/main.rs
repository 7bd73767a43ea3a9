//! `mmtbench`: run one workload (or all four, each in its own child
//! process), print every metric by name with its unit, and end with one
//! JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <suite|lockstep|membound|sampled|all> \
//!     [--seed N] [--seconds S] [--traced | --trace 0|1]
//! ```
//!
//! Exit status: 0 when every job run passed its checks, 1 when any
//! failed, 2 on a usage error.

use mmt_obs::json::{self, ObjectWriter};
use mmtbench::workloads::Workload;
use mmtbench::{run_workload, Options};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};

const USAGE: &str = "usage: mmtbench --workload <suite|lockstep|membound|sampled|all> \
                     [--seed N] [--seconds S] [--traced | --trace 0|1]";

/// Time budget for timed passes when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 25.0;

/// `None` is `--workload all`.
fn parse(args: &[String]) -> Result<(Option<Workload>, Options), String> {
    let mut workload = None;
    let mut opts = Options {
        seed: 0,
        seconds: DEFAULT_SECONDS,
        traced: false,
        size: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            opts.traced = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workload = Some(None),
            "--workload" => {
                let w =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?;
                workload = Some(Some(w));
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                opts.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, opts))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("mmtbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let ok = match workload {
        Some(w) => run_one(w, &opts),
        None => run_all(&opts),
    };
    if !ok {
        std::process::exit(1);
    }
}

fn run_one(workload: Workload, opts: &Options) -> bool {
    let report = run_workload(workload, opts);
    report.print();
    if let Some(spans) = &report.spans_json {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}.spans.json", workload.name()));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => println!("{}: wrote {}", workload.name(), path.display()),
            Err(e) => eprintln!("{}: cannot write {}: {e}", workload.name(), path.display()),
        }
    }
    println!("{}", report.json_line(opts.traced));
    report.correct()
}

/// Run each workload in a child process of its own, one at a time, so
/// each has its own peak RSS and no warm state carries over. Forwards
/// their output and ends with one combined result line whose metrics
/// are named `<workload>.<metric>`.
fn run_all(opts: &Options) -> bool {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = String::new();
    let mut mw = ObjectWriter::new(&mut metrics);
    for w in Workload::ALL {
        let args = [
            "--workload".to_string(),
            w.name().to_string(),
            "--seed".to_string(),
            opts.seed.to_string(),
            "--seconds".to_string(),
            opts.seconds.to_string(),
            "--trace".to_string(),
            u8::from(opts.traced).to_string(),
        ];
        let last = match run_child(&exe, &args) {
            Ok((last, exited_ok)) => {
                correct &= exited_ok;
                last
            }
            Err(e) => {
                eprintln!("{}: {e}", w.name());
                correct = false;
                continue;
            }
        };
        let Some(result) = json::parse(&last)
            .ok()
            .filter(|v| v.get("metrics").is_some())
        else {
            eprintln!("{}: no result line", w.name());
            correct = false;
            continue;
        };
        let count = |key| result.get(key).and_then(json::Value::as_f64).unwrap_or(0.0) as u64;
        attempted += count("attempted");
        failed += count("failed");
        correct &= result.get("correct") == Some(&json::Value::Bool(true));
        if let Some(json::Value::Object(m)) = result.get("metrics") {
            for (name, value) in m {
                mw.raw(&format!("{}.{name}", w.name()), &value.to_json());
            }
        }
    }
    mw.finish();
    let mut out = String::new();
    let mut w = ObjectWriter::new(&mut out);
    w.bool("correct", correct)
        .u64("attempted", attempted)
        .u64("failed", failed)
        .raw("metrics", &metrics);
    w.finish();
    println!("{out}");
    correct
}

/// Run the child to completion, echoing its standard output; returns
/// its last line and whether it exited with status 0.
fn run_child(exe: &Path, args: &[String]) -> Result<(String, bool), String> {
    let mut child = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        match line {
            Ok(line) => {
                println!("{line}");
                last = line;
            }
            Err(e) => {
                eprintln!("reading child output: {e}");
                break;
            }
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for child: {e}"))?;
    Ok((last, status.success()))
}
