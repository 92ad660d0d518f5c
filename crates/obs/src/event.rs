//! Telemetry events and their NDJSON wire format.
//!
//! One event per line, one JSON object per event. The schema (documented in
//! EXPERIMENTS.md §Telemetry) is deliberately flat so any JSON tool can
//! consume the log; the tag field `t` discriminates:
//!
//! ```text
//! {"t":"meta","proc":"routelab","pid":4242,"version":"0.1.0"}
//! {"t":"sb","name":"survey.gadget","ns":1200}
//! {"t":"se","name":"survey.gadget","ns":91200,"dur_ns":90000,"fields":{"gadget":"FIG6"}}
//! {"t":"ctr","name":"engine.steps","ns":91300,"value":5400}
//! {"t":"gauge","name":"explore.states","ns":91400,"value":650000}
//! {"t":"hist","name":"run.steps","count":40,"sum":1000,"max":99,"buckets":{"4":12,"5":28}}
//! ```
//!
//! `ns` is monotonic nanoseconds since the process enabled telemetry;
//! histogram buckets are log₂-scale (`"4"` counts values in `[16, 32)`).
//! The module also contains a small recursive-descent JSON parser so the
//! summarizer (and round-trip tests) can read the log back without any
//! external dependency.

use std::fmt::Write as _;

use crate::hist::LogHistogram;

/// A span/event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldVal {
    /// An unsigned integer.
    U64(u64),
    /// A string.
    Str(String),
}

impl From<u64> for FieldVal {
    fn from(v: u64) -> Self {
        FieldVal::U64(v)
    }
}

impl From<usize> for FieldVal {
    fn from(v: usize) -> Self {
        FieldVal::U64(v as u64)
    }
}

impl From<String> for FieldVal {
    fn from(v: String) -> Self {
        FieldVal::Str(v)
    }
}

impl From<&str> for FieldVal {
    fn from(v: &str) -> Self {
        FieldVal::Str(v.to_string())
    }
}

/// One telemetry event (the write side: names are static strings so the hot
/// path never allocates for them).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Process identification, first line of every log file.
    Meta {
        /// The emitting process (the binary's name).
        proc: String,
        /// OS process id.
        pid: u32,
    },
    /// A span opened.
    SpanBegin {
        /// Span name.
        name: &'static str,
        /// Monotonic nanos since telemetry start.
        ns: u64,
    },
    /// A span closed.
    SpanEnd {
        /// Span name.
        name: &'static str,
        /// Monotonic nanos (at close).
        ns: u64,
        /// Span duration.
        dur_ns: u64,
        /// Attached fields.
        fields: Vec<(&'static str, FieldVal)>,
    },
    /// A monotonic counter increment (usually a flushed thread-local sum).
    Counter {
        /// Counter name.
        name: &'static str,
        /// Monotonic nanos (at flush).
        ns: u64,
        /// Increment.
        value: u64,
    },
    /// A point-in-time gauge sample.
    Gauge {
        /// Gauge name.
        name: &'static str,
        /// Monotonic nanos.
        ns: u64,
        /// Sampled value.
        value: u64,
    },
    /// A flushed log-scale histogram (partial; the summarizer merges).
    Hist {
        /// Histogram name.
        name: &'static str,
        /// The flushed buckets (boxed: 64 buckets would dominate the enum).
        hist: Box<LogHistogram>,
    },
}

/// Appends `s` to `out` as a quoted JSON string literal. Control characters
/// are `\u`-escaped and non-BMP characters are written as UTF-16 surrogate
/// pairs so the output is consumable by strict ASCII-oriented readers.
pub fn escape_json(out: &mut String, s: &str) {
    escape_into(out, s);
}

pub(crate) fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c if (c as u32) > 0xFFFF => {
                // Non-BMP: JSON \u escapes carry only 16 bits, so emit the
                // UTF-16 surrogate pair rather than the raw code point —
                // keeps the log consumable by readers that choke on astral
                // characters in any byte encoding.
                let mut units = [0u16; 2];
                for u in c.encode_utf16(&mut units) {
                    let _ = write!(out, "\\u{u:04x}");
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Event {
    /// Appends the event's NDJSON line (including the trailing newline).
    pub fn encode(&self, out: &mut String) {
        match self {
            Event::Meta { proc, pid } => {
                out.push_str("{\"t\":\"meta\",\"proc\":");
                escape_into(out, proc);
                let _ = write!(out, ",\"pid\":{pid},\"version\":{:?}}}", env!("CARGO_PKG_VERSION"));
            }
            Event::SpanBegin { name, ns } => {
                out.push_str("{\"t\":\"sb\",\"name\":");
                escape_into(out, name);
                let _ = write!(out, ",\"ns\":{ns}}}");
            }
            Event::SpanEnd { name, ns, dur_ns, fields } => {
                out.push_str("{\"t\":\"se\",\"name\":");
                escape_into(out, name);
                let _ = write!(out, ",\"ns\":{ns},\"dur_ns\":{dur_ns}");
                if !fields.is_empty() {
                    out.push_str(",\"fields\":{");
                    for (i, (k, v)) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        escape_into(out, k);
                        out.push(':');
                        match v {
                            FieldVal::U64(n) => {
                                let _ = write!(out, "{n}");
                            }
                            FieldVal::Str(s) => escape_into(out, s),
                        }
                    }
                    out.push('}');
                }
                out.push('}');
            }
            Event::Counter { name, ns, value } => {
                out.push_str("{\"t\":\"ctr\",\"name\":");
                escape_into(out, name);
                let _ = write!(out, ",\"ns\":{ns},\"value\":{value}}}");
            }
            Event::Gauge { name, ns, value } => {
                out.push_str("{\"t\":\"gauge\",\"name\":");
                escape_into(out, name);
                let _ = write!(out, ",\"ns\":{ns},\"value\":{value}}}");
            }
            Event::Hist { name, hist } => {
                out.push_str("{\"t\":\"hist\",\"name\":");
                escape_into(out, name);
                let _ = write!(
                    out,
                    ",\"count\":{},\"sum\":{},\"max\":{},\"buckets\":{{",
                    hist.count, hist.sum, hist.max
                );
                for (i, (bucket, n)) in hist.nonzero_buckets().into_iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{bucket}\":{n}");
                }
                out.push_str("}}");
            }
        }
        out.push('\n');
    }
}

/// A JSON value: what [`parse_json`] reads, and what [`JVal::render`]
/// writes as a report file.
#[derive(Debug, Clone, PartialEq)]
pub enum JVal {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (ints up to 2⁵³ round-trip exactly; non-finite values
    /// render as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JVal>),
    /// An object with keys in document order.
    Obj(Vec<(String, JVal)>),
}

impl JVal {
    /// A string value.
    pub fn str(s: impl Into<String>) -> JVal {
        JVal::Str(s.into())
    }

    /// An integer value (exact for |n| ≤ 2⁵³).
    pub fn int(n: usize) -> JVal {
        JVal::Num(n as f64)
    }

    /// An object from `(key, value)` pairs, keys in the given order.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, JVal)>) -> JVal {
        JVal::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Serializes with 2-space indentation and a trailing newline, keeping
    /// object keys in order so regenerated files diff cleanly.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let newline_indent = |out: &mut String, indent: usize| {
            out.push('\n');
            for _ in 0..indent {
                out.push_str("  ");
            }
        };
        match self {
            JVal::Null => out.push_str("null"),
            JVal::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JVal::Num(n) if !n.is_finite() => out.push_str("null"),
            JVal::Num(n) if n.fract() == 0.0 && n.abs() < 9e15 => {
                let _ = write!(out, "{}", *n as i64);
            }
            JVal::Num(n) => {
                let _ = write!(out, "{n}");
            }
            JVal::Str(s) => escape_into(out, s),
            JVal::Arr(items) if items.is_empty() => out.push_str("[]"),
            JVal::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push(']');
            }
            JVal::Obj(pairs) if pairs.is_empty() => out.push_str("{}"),
            JVal::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    escape_into(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&JVal> {
        match self {
            JVal::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JVal::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a u64 (floors; `None` for negatives and non-numbers).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JVal::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }
}

/// A JSON parse error with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub what: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &'static str) -> ParseError {
        ParseError { at: self.pos, what }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8, what: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn value(&mut self) -> Result<JVal, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JVal::Str(self.string()?)),
            Some(b't') => self.literal("true", JVal::Bool(true)),
            Some(b'f') => self.literal("false", JVal::Bool(false)),
            Some(b'n') => self.literal("null", JVal::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, text: &'static str, val: JVal) -> Result<JVal, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(val)
        } else {
            Err(self.err("malformed literal"))
        }
    }

    fn number(&mut self) -> Result<JVal, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(JVal::Num)
            .ok_or_else(|| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected '\"'")?;
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
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.expect(b'\\', "expected low surrogate")?;
                                self.expect(b'u', "expected low surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(c)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 encoded char.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().ok_or_else(|| self.err("unterminated string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<JVal, ParseError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JVal::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JVal::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JVal, ParseError> {
        self.expect(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JVal::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JVal::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("malformed \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("malformed \\u escape"))?;
        self.pos = end;
        Ok(v)
    }
}

/// Parses one complete JSON document (trailing whitespace allowed).
pub fn parse_json(s: &str) -> Result<JVal, ParseError> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scalars() {
        assert_eq!(parse_json("null").unwrap(), JVal::Null);
        assert_eq!(parse_json("true").unwrap(), JVal::Bool(true));
        assert_eq!(parse_json(" false ").unwrap(), JVal::Bool(false));
        assert_eq!(parse_json("42").unwrap(), JVal::Num(42.0));
        assert_eq!(parse_json("-1.5e2").unwrap(), JVal::Num(-150.0));
        assert_eq!(parse_json("\"hi\"").unwrap(), JVal::Str("hi".into()));
    }

    #[test]
    fn parse_structures() {
        let v = parse_json(r#"{"a":[1,2,{"b":null}],"c":"d"}"#).unwrap();
        assert_eq!(v.get("c").and_then(JVal::as_str), Some("d"));
        let JVal::Arr(items) = v.get("a").unwrap() else { panic!("{v:?}") };
        assert_eq!(items.len(), 3);
        assert_eq!(items[2].get("b"), Some(&JVal::Null));
        assert_eq!(parse_json("[]").unwrap(), JVal::Arr(vec![]));
        assert_eq!(parse_json("{}").unwrap(), JVal::Obj(vec![]));
    }

    #[test]
    fn parse_escapes_and_unicode() {
        let v = parse_json(r#""a\"b\\c\nd\u0041\u00e9é""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAéé"));
        // Surrogate pair for 😀 (U+1F600).
        let v = parse_json(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn json_rendering_covers_all_value_kinds() {
        let v = JVal::obj([
            ("null", JVal::Null),
            ("flag", JVal::Bool(true)),
            ("int", JVal::int(42)),
            ("frac", JVal::Num(0.25)),
            ("inf", JVal::Num(f64::INFINITY)),
            ("text", JVal::str("a \"b\"\nc\\d\u{1}")),
            ("arr", JVal::Arr(vec![JVal::int(1), JVal::int(2)])),
            ("empty_arr", JVal::Arr(vec![])),
            ("empty_obj", JVal::obj([])),
        ]);
        let s = v.render();
        assert!(s.contains("\"null\": null"), "{s}");
        assert!(s.contains("\"flag\": true"), "{s}");
        assert!(s.contains("\"int\": 42"), "{s}");
        assert!(s.contains("\"frac\": 0.25"), "{s}");
        assert!(s.contains("\"inf\": null"), "{s}");
        assert!(s.contains(r#"a \"b\"\nc\\d\u0001"#), "{s}");
        assert!(s.contains("\"empty_arr\": []"), "{s}");
        assert!(s.contains("\"empty_obj\": {}"), "{s}");
        assert!(s.ends_with("}\n"), "{s}");
        // What the writer renders, the parser reads back (∞ became null).
        let JVal::Obj(mut pairs) = v else { unreachable!() };
        pairs[4].1 = JVal::Null;
        assert_eq!(parse_json(&s).unwrap(), JVal::Obj(pairs));
    }

    #[test]
    fn large_integers_render_without_exponent() {
        assert_eq!(JVal::int(1_000_000_000).render(), "1000000000\n");
        assert_eq!(JVal::Num(1.5).render(), "1.5\n");
    }

    #[test]
    fn string_escaping_covers_json_special_cases() {
        let cases: &[(&str, &str)] = &[
            ("plain", r#""plain""#),
            ("with \"quotes\"", r#""with \"quotes\"""#),
            ("back\\slash", r#""back\\slash""#),
            ("line\nbreak", r#""line\nbreak""#),
            ("carriage\rreturn", r#""carriage\rreturn""#),
            ("tab\there", r#""tab\there""#),
            ("nul\u{0}byte", r#""nul\u0000byte""#),
            ("esc\u{1b}ape", r#""esc\u001bape""#),
            ("unit\u{1f}sep", r#""unit\u001fsep""#),
            // Non-ASCII in the BMP passes through unescaped (the files are
            // UTF-8); astral characters become surrogate pairs.
            ("π ≤ ∞ désolé", r#""π ≤ ∞ désolé""#),
            ("emoji \u{1f600}", r#""emoji \ud83d\ude00""#),
        ];
        for (input, want) in cases {
            let mut out = String::new();
            escape_json(&mut out, input);
            assert_eq!(&out, want, "escaping {input:?}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "{", "[1,", "\"abc", "{\"a\" 1}", "nulL", "1 2", "\"\\ud83d\""] {
            assert!(parse_json(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn events_encode_to_one_line_each() {
        let mut hist = LogHistogram::default();
        hist.record(3);
        hist.record(300);
        let events = vec![
            Event::Meta { proc: "unit \"test\"".into(), pid: 7 },
            Event::SpanBegin { name: "a", ns: 1 },
            Event::SpanEnd {
                name: "a",
                ns: 5,
                dur_ns: 4,
                fields: vec![("model", "RMS".into()), ("states", 12u64.into())],
            },
            Event::Counter { name: "c", ns: 6, value: 9 },
            Event::Gauge { name: "g", ns: 7, value: 10 },
            Event::Hist { name: "h", hist: Box::new(hist) },
        ];
        let mut out = String::new();
        for e in &events {
            e.encode(&mut out);
        }
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), events.len());
        for line in lines {
            parse_json(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        assert!(out.contains(r#""fields":{"model":"RMS","states":12}"#), "{out}");
        assert!(out.contains(r#""buckets":{"1":1,"8":1}"#), "{out}");
    }

    #[test]
    fn astral_plane_strings_round_trip_as_surrogate_pairs() {
        // Every non-BMP character must be written as a \uXXXX\uXXXX
        // surrogate pair (never raw), and parse back to the original
        // string. BMP characters stay raw.
        for s in ["😀", "a😀b", "𝔸𝕊ℂ", "🜁🜂🜃🜄", "paired \u{1F600}\u{1F680} twice", "é😀é"]
        {
            let mut out = String::new();
            Event::Meta { proc: s.into(), pid: 1 }.encode(&mut out);
            assert!(
                out.is_ascii() || s.chars().any(|c| (c as u32) <= 0xFFFF && !c.is_ascii()),
                "{s:?}: only BMP characters may appear unescaped, got {out:?}"
            );
            assert!(
                s.chars().all(|c| (c as u32) <= 0xFFFF)
                    || out.contains("\\ud8")
                    || out.contains("\\ud9")
                    || out.contains("\\uda")
                    || out.contains("\\udb"),
                "{s:?}: expected a high surrogate escape in {out:?}"
            );
            let line = out.lines().next().unwrap();
            let v = parse_json(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(v.get("proc").and_then(JVal::as_str), Some(s), "{out:?}");
        }
        // Spot-check the exact encoding of U+1F600.
        let mut out = String::new();
        Event::SpanEnd { name: "s", ns: 1, dur_ns: 1, fields: vec![("emoji", "😀".into())] }
            .encode(&mut out);
        assert!(out.contains(r#""emoji":"\ud83d\ude00""#), "{out:?}");
        assert!(!out.contains('😀'), "{out:?}");
    }

    #[test]
    fn ndjson_writer_parser_round_trip() {
        // Encode one of each event kind — with hostile strings — and read
        // every value back through the crate's own parser.
        let mut hist = LogHistogram::default();
        hist.record(1);
        hist.record(1024);
        let mut out = String::new();
        Event::Meta { proc: "exp \"q\"\n\\π\u{1}".into(), pid: 42 }.encode(&mut out);
        Event::SpanEnd {
            name: "survey.gadget",
            ns: 100,
            dur_ns: 25,
            fields: vec![("gadget", "BAD-GADGET \u{1f600}".into()), ("budget", 500u64.into())],
        }
        .encode(&mut out);
        Event::Counter { name: "engine.steps", ns: 101, value: 456 }.encode(&mut out);
        Event::Hist { name: "h", hist: Box::new(hist) }.encode(&mut out);

        let lines: Vec<JVal> =
            out.lines().map(|l| parse_json(l).expect("each line parses")).collect();
        assert_eq!(lines.len(), 4);

        assert_eq!(lines[0].get("t").and_then(JVal::as_str), Some("meta"));
        assert_eq!(lines[0].get("proc").and_then(JVal::as_str), Some("exp \"q\"\n\\π\u{1}"));
        assert_eq!(lines[0].get("pid").and_then(JVal::as_u64), Some(42));

        assert_eq!(lines[1].get("t").and_then(JVal::as_str), Some("se"));
        assert_eq!(lines[1].get("dur_ns").and_then(JVal::as_u64), Some(25));
        let fields = lines[1].get("fields").expect("fields object");
        assert_eq!(fields.get("gadget").and_then(JVal::as_str), Some("BAD-GADGET \u{1f600}"));
        assert_eq!(fields.get("budget").and_then(JVal::as_u64), Some(500));

        assert_eq!(lines[2].get("value").and_then(JVal::as_u64), Some(456));

        assert_eq!(lines[3].get("count").and_then(JVal::as_u64), Some(2));
        assert_eq!(lines[3].get("sum").and_then(JVal::as_u64), Some(1025));
        assert_eq!(lines[3].get("max").and_then(JVal::as_u64), Some(1024));
        let buckets = lines[3].get("buckets").expect("buckets object");
        assert_eq!(buckets.get("0").and_then(JVal::as_u64), Some(1));
        assert_eq!(buckets.get("10").and_then(JVal::as_u64), Some(1));
    }
}
