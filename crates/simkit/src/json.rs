//! A minimal hand-rolled JSON serializer *and parser* for
//! machine-readable results and scenario exchange.
//!
//! The `bench` figure binaries emit `BENCH_<name>.json` artifacts (via
//! `--json`) so CI can archive and diff the performance trajectory, and
//! the `scenario` crate serializes run configurations with it. The build
//! environment has no crates.io access, so this is the smallest JSON
//! writer/parser pair that covers the result schemas in `EXPERIMENTS.md`:
//! objects keep insertion order, floats print with Rust's shortest
//! round-trip formatting, and non-finite floats degrade to `null` (JSON
//! has no NaN).
//!
//! [`Json::parse`] is the recursive-descent reader that closes the
//! round trip (`to_json → parse → to_json` is a fixpoint): it is what
//! lets a serialized `Scenario` come back as a value — a sweep grid's
//! point, an `.e2e` workload document, or untrusted input.

use std::fmt::{self, Write as _};
use std::io;
use std::path::Path;

/// A JSON value tree, built by the figure binaries and written once.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (cycle counts, byte totals).
    U64(u64),
    /// A float; NaN and infinities serialize as `null`.
    F64(f64),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep their insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    #[must_use]
    pub fn obj<K: Into<String>>(pairs: Vec<(K, Json)>) -> Self {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds a string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// Serializes the tree to a compact JSON string (plus a trailing
    /// newline when written via [`write_file`](Self::write_file)).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.render(&mut out);
        out
    }

    /// Writes the tree to `path` as a single line of JSON.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`std::fs::write`] error.
    pub fn write_file(&self, path: &Path) -> io::Result<()> {
        let mut text = self.to_json();
        text.push('\n');
        std::fs::write(path, text)
    }

    /// Parses a JSON document into a value tree (recursive descent).
    ///
    /// Numbers without a sign, fraction or exponent that fit a `u64`
    /// become [`Json::U64`]; everything else numeric becomes
    /// [`Json::F64`]. That matches the writer, which prints `F64(19.0)`
    /// as `19`: the *textual* round trip `to_json → parse → to_json` is a
    /// fixpoint even where the in-memory variant flips from `F64` to
    /// `U64`.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] carrying the byte offset and a
    /// description for malformed input, trailing garbage, or nesting
    /// deeper than 128 levels.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the JSON value"));
        }
        Ok(value)
    }

    fn render(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.render(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

/// Why [`Json::parse`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the offending character.
    pub offset: usize,
    /// What the parser expected or found.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Maximum array/object nesting [`Json::parse`] accepts (guards the
/// recursion against stack exhaustion on adversarial input).
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
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

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", byte as char)))
        }
    }

    /// Consumes `word` when the input continues with it.
    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than 128 levels"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
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
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates (the writer never emits them) are
                            // rejected rather than silently replaced.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        other => {
                            return Err(self.err(format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so boundaries
                    // are valid; find the next char boundary).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("input was a valid &str"),
                    );
                }
            }
        }
    }

    /// Numbers follow the JSON grammar exactly — no leading zeros, a
    /// fraction/exponent must carry at least one digit — so every input
    /// accepted here is accepted by any conforming validator too (untrusted
    /// scenario documents come through here).
    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        let mut integral = true;
        if self.peek() == Some(b'-') {
            integral = false;
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    return Err(self.err("leading zeros are not allowed"));
                }
            }
            Some(c) if c.is_ascii_digit() => {
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !self.peek().is_some_and(|c| c.is_ascii_digit()) {
                return Err(self.err("expected a digit after the decimal point"));
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.peek().is_some_and(|c| c.is_ascii_digit()) {
                return Err(self.err("expected a digit in the exponent"));
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if integral {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| self.err(format!("invalid number `{text}`")))
    }
}

fn escape_into(s: &str, out: &mut String) {
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
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.to_json(), "null");
        assert_eq!(Json::Bool(true).to_json(), "true");
        assert_eq!(Json::U64(64_000).to_json(), "64000");
        assert_eq!(Json::F64(0.25).to_json(), "0.25");
        assert_eq!(Json::F64(19.0).to_json(), "19");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::F64(f64::NAN).to_json(), "null");
        assert_eq!(Json::F64(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn strings_escape_quotes_and_control_chars() {
        assert_eq!(
            Json::str("a\"b\\c\nd\u{1}").to_json(),
            r#""a\"b\\c\nd\u0001""#
        );
    }

    #[test]
    fn nested_structure_renders_in_order() {
        let v = Json::obj(vec![
            ("figure", Json::str("fig4")),
            ("points", Json::Arr(vec![Json::F64(0.001), Json::U64(2)])),
        ]);
        assert_eq!(v.to_json(), r#"{"figure":"fig4","points":[0.001,2]}"#);
    }

    #[test]
    fn floats_round_trip_via_display() {
        // Rust's f64 Display prints the shortest string that parses back
        // to the same bits — exactly what a results artifact needs.
        for v in [0.0001, 0.3, 1.0 / 3.0, 29.802322387695312] {
            let text = Json::F64(v).to_json();
            let back: f64 = text.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{text}");
        }
    }

    #[test]
    fn parse_round_trips_every_writer_shape() {
        let v = Json::obj(vec![
            ("figure", Json::str("fig4")),
            ("quick", Json::Bool(false)),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::obj::<&str>(vec![])),
            ("budget", Json::Null),
            (
                "points",
                Json::Arr(vec![Json::F64(0.001), Json::U64(2), Json::str("a\"b\n")]),
            ),
        ]);
        let text = v.to_json();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.to_json(), text, "textual fixpoint");
    }

    #[test]
    fn parse_accepts_whitespace_everywhere() {
        let v = Json::parse(" { \"a\" : [ 1 , 2.5 , null ] ,\n\t\"b\" : true } ").unwrap();
        assert_eq!(
            v,
            Json::obj(vec![
                (
                    "a",
                    Json::Arr(vec![Json::U64(1), Json::F64(2.5), Json::Null])
                ),
                ("b", Json::Bool(true)),
            ])
        );
    }

    #[test]
    fn parse_number_variants() {
        assert_eq!(Json::parse("19").unwrap(), Json::U64(19));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::U64(u64::MAX)
        );
        // A whole number printed by the F64 writer comes back as U64 —
        // the textual round trip is still a fixpoint.
        assert_eq!(Json::F64(19.0).to_json(), "19");
        assert_eq!(Json::parse("-3").unwrap(), Json::F64(-3.0));
        assert_eq!(Json::parse("1e3").unwrap(), Json::F64(1000.0));
        let Json::F64(v) = Json::parse("0.30000000000000004").unwrap() else {
            panic!("expected a float");
        };
        assert_eq!(v.to_bits(), (0.1f64 + 0.2).to_bits(), "shortest repr");
    }

    #[test]
    fn parse_unescapes_strings() {
        assert_eq!(
            Json::parse(r#""a\"b\\c\nd\u0001é""#).unwrap(),
            Json::str("a\"b\\c\nd\u{1}é")
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "nul",
            "truefalse",
            "1 2",
            "\"unterminated",
            "\"bad \\q escape\"",
            "01e",
            "+1",
            // Non-JSON number forms a conforming validator rejects.
            "01",
            "-01",
            "1.",
            "1.e3",
            "1e",
            "1e+",
            "-",
            r#""\u+0ff""#,
            r#""\u00g1""#,
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "test-only scratch path for the JSON round-trip test; no simulated value depends on it"
    )]
    fn write_file_appends_newline() {
        let path = std::env::temp_dir().join("bench_json_test.json");
        Json::obj(vec![("k", Json::U64(1))])
            .write_file(&path)
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"k\":1}\n");
        let _ = std::fs::remove_file(&path);
    }
}
