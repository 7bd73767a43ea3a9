//! Shared failure conventions for the harness bins (DESIGN.md §15).
//!
//! Every bin distinguishes two failure classes with fixed exit codes,
//! always reports on stderr with an `error:` prefix, and — when the
//! caller asked for `--format json` — also emits a `{"error": ...}`
//! object on stdout so machine consumers see the failure in-band
//! instead of an empty stream:
//!
//! * **usage errors** (unknown flag values, unknown apps, unreadable
//!   inputs): exit code 2 via [`fail_usage`];
//! * **runtime failures** (simulator errors, failed gates, unwritable
//!   outputs): exit code 1 via [`fail_run`].

/// Exit code for malformed invocations (bad flags, unknown names).
pub const EXIT_USAGE: i32 = 2;
/// Exit code for runtime failures (simulation errors, failed gates).
pub const EXIT_RUN: i32 = 1;

/// Parse `--format text|json` (and the older `--json` alias). `Err`
/// carries a usage message for an unknown format value.
pub fn format_json_arg(args: &[String]) -> Result<bool, String> {
    match crate::arg_value(args, "--format").as_deref() {
        Some("json") => Ok(true),
        Some("text") => Ok(false),
        Some(other) => Err(format!("unknown format '{other}' (text|json)")),
        None => Ok(args.iter().any(|a| a == "--json")),
    }
}

/// Parse `--scale N`, the iteration divisor for app instances, falling
/// back to `default`. Anything but a whole number of at least 1 is a
/// usage error.
pub fn scale_arg(args: &[String], default: u64, json: bool) -> u64 {
    match crate::arg_value(args, "--scale") {
        None => default,
        Some(v) => match v.parse() {
            Ok(scale) if scale >= 1 => scale,
            _ => fail_usage(json, format!("--scale takes a number >= 1, got '{v}'")),
        },
    }
}

/// Check that `args` (the program name first) are `flag value` pairs
/// with every flag in `flags`, or value-less `switches`: anything else
/// is a usage error, so a misspelled flag is reported instead of
/// silently ignored.
pub fn check_flags(args: &[String], flags: &[&str], switches: &[&str]) {
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        if switches.contains(&arg.as_str()) {
            continue;
        }
        if !flags.contains(&arg.as_str()) {
            let known: Vec<&str> = flags.iter().chain(switches).copied().collect();
            fail_usage(
                false,
                format!("unknown flag '{arg}'; flags: {}", known.join(", ")),
            );
        }
        if rest.next().is_none() {
            fail_usage(false, format!("{arg} takes a value"));
        }
    }
}

/// Parse the value of `flag` with [`str::parse`], falling back to
/// `default` when the flag is absent; a value that does not parse is a
/// usage error naming the flag and `what` it takes.
pub fn parsed_arg<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
    what: &str,
    json: bool,
) -> T {
    match crate::arg_value(args, flag) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| fail_usage(json, format!("{flag} takes {what}, got '{v}'"))),
    }
}

/// Report a usage error and exit 2.
pub fn fail_usage(json: bool, message: impl AsRef<str>) -> ! {
    report_error(json, message.as_ref());
    std::process::exit(EXIT_USAGE)
}

/// Report a runtime failure and exit 1.
pub fn fail_run(json: bool, message: impl AsRef<str>) -> ! {
    report_error(json, message.as_ref());
    std::process::exit(EXIT_RUN)
}

/// Report a failure without exiting: the `error:` line on stderr, and
/// the `{"error": ...}` object on stdout under `--format json`.
pub fn report_error(json: bool, message: &str) {
    if json {
        println!("{{\"error\":{}}}", mmt_obs::json::escaped(message));
    }
    eprintln!("error: {message}");
}
