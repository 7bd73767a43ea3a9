//! `mmtlint` — static analysis front end: lint a suite application (or
//! all of them, or a hand-written assembly file) and print the linter
//! findings plus the redundancy oracle's static merge classification.
//!
//! ```text
//! mmtlint --app swaptions --threads 2
//! mmtlint --app all
//! mmtlint --asm kernel.s --sharing me
//! ```
//!
//! Flags (all optional):
//!
//! | flag | default | meaning |
//! |---|---|---|
//! | `--app NAME`  | `all`  | suite app name, or `all` |
//! | `--threads N` | `2`    | hardware threads (1–4) |
//! | `--scale N`   | `16`   | iteration divisor for app instances |
//! | `--asm PATH`  | —      | lint an assembly file instead of a suite app |
//! | `--sharing S` | `mt`   | with `--asm`: `mt` (shared memory) or `me` (per process) |
//! | `--format F`  | `text` | `text` (human-readable) or `json` (one object, machine-readable) |
//!
//! Exit status: `0` — no error-severity findings (warnings allowed);
//! `1` — at least one program has an error-severity finding; `2` —
//! usage error (unknown flag, app or flag value, unreadable/unparseable
//! `--asm` file). The 0-vs-1 split is what makes the tool usable as a CI gate
//! over the workload generator, in either output format.

use mmt_analysis::{lint_from_stack, Lint, Oracle, Stack};
use mmt_bench::arg_value;
use mmt_bench::cli::{check_flags, fail_usage, scale_arg};
use mmt_isa::{MemSharing, Program, MAX_THREADS};
use mmt_workloads::{all_apps, app_by_name, App};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

struct LintJson {
    pc: Option<u64>,
    kind: String,
    severity: String,
    message: String,
}
mmt_obs::impl_to_json! { LintJson { pc, kind, severity, message } }

struct ProgramJson {
    name: String,
    sharing: String,
    instructions: usize,
    must_merge: usize,
    may_merge: usize,
    must_split: usize,
    errors: usize,
    lints: Vec<LintJson>,
}
mmt_obs::impl_to_json! {
    ProgramJson {
        name, sharing, instructions, must_merge, may_merge, must_split, errors, lints
    }
}

const FLAGS: [&str; 6] = [
    "--app",
    "--threads",
    "--scale",
    "--asm",
    "--sharing",
    "--format",
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    check_flags(&args, &FLAGS, &[]);
    let format = match arg_value(&args, "--format").as_deref() {
        None | Some("text") => Format::Text,
        Some("json") => Format::Json,
        Some(other) => fail_usage(false, format!("unknown format '{other}' (text|json)")),
    };
    let json = format == Format::Json;
    let mut programs: Vec<ProgramJson> = Vec::new();
    let mut failed = false;

    if let Some(path) = arg_value(&args, "--asm") {
        let source = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail_usage(json, format!("cannot read {path}: {e}")));
        let program = mmt_isa::parse::parse(&source)
            .unwrap_or_else(|e| fail_usage(json, format!("{path}: {e}")));
        let sharing = match arg_value(&args, "--sharing").as_deref() {
            None | Some("mt") => MemSharing::Shared,
            Some("me") => MemSharing::PerThread,
            Some(other) => fail_usage(json, format!("unknown sharing '{other}' (mt|me)")),
        };
        let summary = report(&path, &program, sharing, format);
        failed |= summary.errors > 0;
        programs.push(summary);
        finish(format, &programs, failed);
    }

    let app_name = arg_value(&args, "--app").unwrap_or_else(|| "all".into());
    let threads = match arg_value(&args, "--threads") {
        None => 2,
        Some(v) => v
            .parse()
            .ok()
            .filter(|t| (1..=MAX_THREADS).contains(t))
            .unwrap_or_else(|| {
                fail_usage(
                    json,
                    format!("--threads takes a number in 1..={MAX_THREADS}, got '{v}'"),
                )
            }),
    };
    let scale = scale_arg(&args, 16, json);

    let apps: Vec<App> = if app_name == "all" {
        all_apps()
    } else {
        vec![app_by_name(&app_name).unwrap_or_else(|| {
            let known: Vec<&str> = all_apps().iter().map(|a| a.name).collect();
            fail_usage(
                json,
                format!("unknown app '{app_name}'; known: {}", known.join(", ")),
            )
        })]
    };

    for app in &apps {
        let w = app.instance(threads, scale);
        let summary = report(app.name, &w.program, w.sharing, format);
        failed |= summary.errors > 0;
        programs.push(summary);
    }
    finish(format, &programs, failed);
}

/// Emit the JSON document (when selected) and exit with the documented
/// status: 1 when any program had error-severity findings, else 0.
fn finish(format: Format, programs: &[ProgramJson], failed: bool) -> ! {
    if format == Format::Json {
        println!("{}", mmt_obs::json::to_json(programs));
    }
    std::process::exit(if failed { 1 } else { 0 });
}

/// Lint and classify one program; in text mode, print the findings as we
/// go. Returns the machine-readable summary either way.
fn report(name: &str, program: &Program, sharing: MemSharing, format: Format) -> ProgramJson {
    // Sharing-aware: under `mt` this adds the static data-race lint
    // (shared-store collisions are errors, cross-thread read/write pairs
    // are warnings). Lints and oracle read one stack, so the divergence
    // fixpoint runs once per load model.
    let stack = Stack::new(program);
    let lints = lint_from_stack(&stack, sharing);
    let oracle = Oracle::from_stack(&stack, sharing);
    let (must_merge, may_merge, must_split) = oracle.static_counts();
    let sharing_label = match sharing {
        MemSharing::Shared => "mt",
        MemSharing::PerThread => "me",
    };
    let errors = lints.iter().filter(|l| l.is_error()).count();
    if format == Format::Text {
        println!(
            "{name} [{sharing_label}]: {} instructions — static classes: \
             {must_merge} must-merge / {may_merge} may-merge / {must_split} must-split",
            program.len()
        );
        for lint in &lints {
            println!("  {lint}");
        }
        if lints.is_empty() {
            println!("  clean");
        } else {
            println!("  {} finding(s), {errors} error(s)", lints.len());
        }
    }
    ProgramJson {
        name: name.to_string(),
        sharing: sharing_label.to_string(),
        instructions: program.len(),
        must_merge,
        may_merge,
        must_split,
        errors,
        lints: lints.iter().map(lint_json).collect(),
    }
}

fn lint_json(l: &Lint) -> LintJson {
    LintJson {
        pc: l.pc,
        kind: format!("{:?}", l.kind),
        severity: l.severity.to_string(),
        message: l.message.clone(),
    }
}
