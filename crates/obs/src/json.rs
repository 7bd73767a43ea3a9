//! The workspace's one JSON reader *and* writer.
//!
//! The read side parses the full JSON grammar into a [`Value`] tree; it
//! favors clear errors over speed and is used only on tool/test paths,
//! never in the cycle loop.
//!
//! The write side ([`push_escaped`], [`ObjectWriter`], [`ToJson`] and
//! the [`impl_to_json!`](crate::impl_to_json) macro) is the one
//! escaping-correct serializer every report, trace and hand-rolled JSON
//! line in the workspace routes through. Bins used to format strings
//! with `{:?}` — Rust's `Debug` escapes non-ASCII as `\u{e9}`, which is
//! *invalid* JSON — so string emission lives here once, with regression
//! tests, instead of per-binary.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (kept as f64; trace fields fit exactly).
    Number(f64),
    /// String (escapes decoded).
    String(String),
    /// Array.
    Array(Vec<Value>),
    /// Object (order-insensitive).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The value at `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Maximum container nesting depth accepted by [`parse`]. Deeper
/// documents get a typed [`ParseError`] instead of a recursion-stack
/// overflow — a hostile or corrupted input (e.g. a megabyte of `[`) must
/// degrade to an error, never abort the process.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// Returns the first syntax error with its byte offset. Documents nested
/// deeper than [`MAX_DEPTH`] containers are rejected.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

/// Error from [`parse_file`]: either the read or the parse failed.
#[derive(Debug)]
pub enum FileParseError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The contents were not valid JSON.
    Parse(ParseError),
}

impl fmt::Display for FileParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FileParseError::Io(e) => write!(f, "read failed: {e}"),
            FileParseError::Parse(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for FileParseError {}

/// Read `path` and parse it as one JSON document — the shared helper for
/// every tool that re-reads a committed report or trace (one reader, no
/// per-binary copies to drift).
///
/// # Errors
///
/// [`FileParseError::Io`] if the file cannot be read,
/// [`FileParseError::Parse`] on the first syntax error.
pub fn parse_file(path: impl AsRef<Path>) -> Result<Value, FileParseError> {
    let text = std::fs::read_to_string(path).map_err(FileParseError::Io)?;
    parse(&text).map_err(FileParseError::Parse)
}

/// Append `s` to `out` as a JSON string literal, surrounding quotes
/// included. Escapes `"` and `\`, the short-form control characters
/// (`\n`, `\r`, `\t`, `\u{8}`, `\u{c}`), and the remaining C0 control
/// characters as `\u00XX`; non-ASCII scalars pass through verbatim
/// (JSON documents are UTF-8).
pub fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = std::fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The JSON string literal for `s` (see [`push_escaped`]).
pub fn escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_escaped(&mut out, s);
    out
}

/// Append a finite `f64` in round-trippable form; JSON has no NaN or
/// infinity, so those serialize as `null`.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = std::fmt::Write::write_fmt(out, format_args!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// A type that serializes itself as compact JSON. Implemented for the
/// integers, `bool`, `f64`, strings, references, `Option`, sequences
/// and [`Value`]; report structs implement it with
/// [`impl_to_json!`](crate::impl_to_json).
pub trait ToJson {
    /// Append this value to `out` as compact JSON.
    fn write_json(&self, out: &mut String);
}

/// Serialize `value` as compact JSON text.
pub fn to_json<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

macro_rules! to_json_via_display {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = std::fmt::Write::write_fmt(out, format_args!("{self}"));
            }
        }
    )*};
}

to_json_via_display!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        push_f64(out, *self);
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        push_escaped(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        push_escaped(out, self);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl ToJson for Value {
    fn write_json(&self, out: &mut String) {
        Value::write_json(self, out);
    }
}

/// Implement [`ToJson`](crate::json::ToJson) for a named-field struct as
/// a JSON object with one member per listed field, in list order:
///
/// ```
/// struct Point {
///     x: u64,
///     label: String,
/// }
/// mmt_obs::impl_to_json! { Point { x, label } }
///
/// let p = Point { x: 1, label: "a".into() };
/// assert_eq!(mmt_obs::json::to_json(&p), r#"{"x":1,"label":"a"}"#);
/// ```
///
/// The impl destructures the struct without `..`, so a field the list
/// leaves out (or misspells) is a compile error:
///
/// ```compile_fail
/// struct Point {
///     x: u64,
///     y: u64,
/// }
/// mmt_obs::impl_to_json! { Point { x } }
/// ```
///
/// List the fields in declaration order: that order is the byte format
/// of every report.
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, out: &mut ::std::string::String) {
                let $ty { $($field),* } = self;
                let mut w = $crate::json::ObjectWriter::new(out);
                $(w.field(::core::stringify!($field), $field);)*
                w.finish();
            }
        }
    };
}

/// Incremental writer for one JSON object: handles comma placement and
/// string escaping so call sites only name keys and values. The shared
/// primitive behind every hand-rolled JSON line in the bench bins.
#[derive(Debug)]
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Open an object (`{`) on `out`.
    pub fn new(out: &'a mut String) -> ObjectWriter<'a> {
        out.push('{');
        ObjectWriter { out, first: true }
    }

    fn key(&mut self, key: &str) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        push_escaped(self.out, key);
        self.out.push(':');
        self.out
    }

    /// Write a field of any [`ToJson`] value.
    pub fn field<T: ToJson + ?Sized>(&mut self, key: &str, val: &T) -> &mut Self {
        let out = self.key(key);
        val.write_json(out);
        self
    }

    /// Write a string field (escaped).
    pub fn str(&mut self, key: &str, val: &str) -> &mut Self {
        self.field(key, val)
    }

    /// Write an unsigned integer field.
    pub fn u64(&mut self, key: &str, val: u64) -> &mut Self {
        self.field(key, &val)
    }

    /// Write a float field (`null` for non-finite values).
    pub fn f64(&mut self, key: &str, val: f64) -> &mut Self {
        self.field(key, &val)
    }

    /// Write a boolean field.
    pub fn bool(&mut self, key: &str, val: bool) -> &mut Self {
        self.field(key, &val)
    }

    /// Write a field whose value is already-serialized JSON.
    pub fn raw(&mut self, key: &str, val: &str) -> &mut Self {
        self.key(key).push_str(val);
        self
    }

    /// Close the object (`}`).
    pub fn finish(self) {
        self.out.push('}');
    }
}

impl Value {
    /// Serialize back to compact JSON text. Round-trips with [`parse`]
    /// up to number formatting (numbers are stored as `f64`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Append this value to `out` as compact JSON.
    pub fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => push_f64(out, *n),
            Value::String(s) => push_escaped(out, s),
            Value::Array(items) => items.write_json(out),
            Value::Object(map) => {
                let mut w = ObjectWriter::new(out);
                for (k, v) in map {
                    w.field(k, v);
                }
                w.finish();
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn keyword(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("containers nested deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our
                            // exporters; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // encoding is already valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("slicing on scalar boundaries"),
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err(format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\ny","d":null,"e":true}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Null));
        assert_eq!(v.get("b").unwrap().get("e"), Some(&Value::Bool(true)));
    }

    #[test]
    fn parses_unicode_and_escapes() {
        let v = parse(r#""café → ümlaut""#).unwrap();
        assert_eq!(v.as_str(), Some("café → ümlaut"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,)",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "{} trailing",
            "[1,]nope",
            "1.2.3",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parse_file_round_trips_and_reports_both_error_kinds() {
        let dir = std::env::temp_dir().join("mmt-json-parse-file-test");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.json");
        std::fs::write(&good, r#"{"sim_cycles_per_sec": 42.5}"#).unwrap();
        let v = parse_file(&good).unwrap();
        assert_eq!(v.get("sim_cycles_per_sec").unwrap().as_f64(), Some(42.5));

        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{nope").unwrap();
        assert!(matches!(parse_file(&bad), Err(FileParseError::Parse(_))));
        assert!(matches!(
            parse_file(dir.join("missing.json")),
            Err(FileParseError::Io(_))
        ));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap(), Value::Array(vec![]));
        assert_eq!(parse(" {} ").unwrap(), Value::Object(BTreeMap::new()));
    }

    #[test]
    fn escaping_round_trips_hostile_strings() {
        // The regression set: control characters, quotes, backslashes,
        // and non-ASCII — exactly the inputs Rust's `Debug` formatting
        // (the old bin-side "serializer") gets wrong.
        for s in [
            "plain",
            "with \"quotes\" and \\backslashes\\",
            "newline\nand\ttab and\rreturn",
            "control \u{1} \u{8} \u{c} \u{1f} chars",
            "café → ümlaut 日本語 🦀",
            "",
        ] {
            let lit = escaped(s);
            let v = parse(&lit).unwrap_or_else(|e| panic!("{lit} does not parse: {e}"));
            assert_eq!(v.as_str(), Some(s), "round-trip of {s:?}");
        }
    }

    #[test]
    fn debug_formatting_is_not_json() {
        // Documents why the writer exists: `{:?}` escapes non-ASCII as
        // `\u{e9}`, which the grammar rejects.
        let debug = format!("{:?}", "caf\u{e9}\u{1}");
        assert!(parse(&debug).is_err(), "Debug output parsed as JSON");
        assert!(parse(&escaped("caf\u{e9}\u{1}")).is_ok());
    }

    #[test]
    fn object_writer_builds_valid_documents() {
        let mut out = String::new();
        let mut w = ObjectWriter::new(&mut out);
        w.str("app", "caf\u{e9}\n")
            .u64("threads", 4)
            .f64("ipc", 1.25)
            .f64("nan", f64::NAN)
            .bool("ok", true)
            .raw("list", "[1,2]");
        w.finish();
        let v = parse(&out).expect("writer output parses");
        assert_eq!(v.get("app").unwrap().as_str(), Some("caf\u{e9}\n"));
        assert_eq!(v.get("threads").unwrap().as_f64(), Some(4.0));
        assert_eq!(v.get("ipc").unwrap().as_f64(), Some(1.25));
        assert_eq!(v.get("nan"), Some(&Value::Null));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(v.get("list").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn value_to_json_round_trips() {
        let src = r#"{"a":[1,2.5,-300],"b":{"c":"x\ny é","d":null,"e":true}}"#;
        let v = parse(src).unwrap();
        let re = parse(&v.to_json()).unwrap();
        assert_eq!(v, re);
    }

    #[test]
    fn nesting_is_bounded() {
        // At the limit: fine. One past it: a typed error, not a stack
        // overflow abort.
        let at = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse(&over).unwrap_err();
        assert!(err.message.contains("nested deeper"), "{err}");
        // Unclosed flood (the realistic corruption shape) also errors.
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn to_json_scalars_and_sequences() {
        assert_eq!(to_json(&5u64), "5");
        assert_eq!(to_json(&-7i32), "-7");
        assert_eq!(to_json(&usize::MAX), usize::MAX.to_string());
        assert_eq!(to_json(&true), "true");
        assert_eq!(to_json(&1.25f64), "1.25");
        assert_eq!(to_json(&3.0f64), "3");
        assert_eq!(to_json(&vec![1u32, 2, 3]), "[1,2,3]");
        assert_eq!(to_json(&Vec::<u8>::new()), "[]");
        assert_eq!(to_json(&[7u64; 2]), "[7,7]");
        assert_eq!(to_json(&[1u8, 2][..]), "[1,2]");
        assert_eq!(to_json(&Some(4u8)), "4");
        assert_eq!(to_json(&None::<u8>), "null");
        assert_eq!(to_json(&vec![Some(1u8), None]), "[1,null]");
        assert_eq!(to_json(&&9u16), "9");
        assert_eq!(to_json("a\"b"), "\"a\\\"b\"");
        assert_eq!(
            to_json(&String::from("x\u{8}\u{c}\u{1}")),
            "\"x\\b\\f\\u0001\""
        );
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(to_json(&v), "null");
        }
        assert_eq!(to_json(&vec![1.5, f64::NAN]), "[1.5,null]");
    }

    #[test]
    fn object_writer_places_commas_between_fields_only() {
        let mut out = String::new();
        ObjectWriter::new(&mut out).finish();
        assert_eq!(out, "{}");

        let mut out = String::new();
        let mut w = ObjectWriter::new(&mut out);
        w.field("a", &1u8);
        w.finish();
        assert_eq!(out, r#"{"a":1}"#);

        let mut out = String::new();
        let mut w = ObjectWriter::new(&mut out);
        w.field("a", &1u8).field("b", "two").field("c", &[3u8]);
        w.finish();
        assert_eq!(out, r#"{"a":1,"b":"two","c":[3]}"#);
    }

    struct Window {
        start: u64,
        label: String,
    }
    crate::impl_to_json! { Window { start, label } }

    struct Estimate {
        zeta: u64,
        windows: Vec<Window>,
        note: Option<String>,
        missing: Option<f64>,
        alpha: f64,
    }
    crate::impl_to_json! { Estimate { zeta, windows, note, missing, alpha } }

    #[test]
    fn macro_structs_emit_declaration_order_and_parse_back() {
        let est = Estimate {
            zeta: 3,
            windows: vec![
                Window {
                    start: 0,
                    label: "w\"0".into(),
                },
                Window {
                    start: 10,
                    label: "caf\u{e9}".into(),
                },
            ],
            note: Some("ok".into()),
            missing: None,
            alpha: 0.5,
        };
        let text = to_json(&est);
        assert_eq!(
            text,
            r#"{"zeta":3,"windows":[{"start":0,"label":"w\"0"},{"start":10,"label":"café"}],"note":"ok","missing":null,"alpha":0.5}"#
        );
        let window = |start: f64, label: &str| {
            Value::Object(BTreeMap::from([
                ("start".to_string(), Value::Number(start)),
                ("label".to_string(), Value::String(label.into())),
            ]))
        };
        let want = Value::Object(BTreeMap::from([
            ("zeta".to_string(), Value::Number(3.0)),
            (
                "windows".to_string(),
                Value::Array(vec![window(0.0, "w\"0"), window(10.0, "caf\u{e9}")]),
            ),
            ("note".to_string(), Value::String("ok".into())),
            ("missing".to_string(), Value::Null),
            ("alpha".to_string(), Value::Number(0.5)),
        ]));
        assert_eq!(parse(&text).unwrap(), want);
        // A `Value` re-serializes through the same trait.
        assert_eq!(parse(&to_json(&want)).unwrap(), want);
    }
}
