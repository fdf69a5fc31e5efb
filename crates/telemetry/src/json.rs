//! Minimal in-tree JSON support: the one reader and writer of the
//! workspace, for the [`MetricsSnapshot`](crate::MetricsSnapshot)
//! JSON-lines format, the Chrome-trace export, `explain()` reports and the
//! benchmark gate's inputs, without external dependencies.
//!
//! Numbers written without a fraction or an exponent parse as integers
//! ([`Json::UInt`] / [`Json::Int`]). Snapshot values are all integral
//! (nanoseconds, counts, capacities), so their round trip is exact. Numbers
//! with a fraction or an exponent parse as [`Json::Float`], and a finite
//! float is written in Rust's shortest round-trip form, which always has a
//! `.` or an `e`, so it parses back bit for bit. Object key order is
//! preserved (keys are stored as a vector of pairs, not a map), so a
//! parse/serialize cycle reproduces the original byte stream for the
//! subset this module emits.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// An object; key order is preserved.
    Object(Vec<(String, Json)>),
    /// An array.
    Array(Vec<Json>),
    /// A string.
    Str(String),
    /// A non-negative integer.
    UInt(u64),
    /// A negative integer (always < 0; non-negative values use `UInt`).
    Int(i64),
    /// A number written with a fraction or an exponent. Written as `null`
    /// when not finite.
    Float(f64),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl Json {
    /// Builds a number from a signed value, normalizing non-negatives into
    /// the `UInt` arm so equal values compare equal regardless of origin.
    pub(crate) fn int(value: i64) -> Json {
        if value >= 0 {
            Json::UInt(value as u64)
        } else {
            Json::Int(value)
        }
    }

    /// The value as an `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer that fits.
    pub(crate) fn as_i64(&self) -> Option<i64> {
        match self {
            Json::UInt(v) => i64::try_from(*v).ok(),
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number (integers are converted,
    /// rounding to nearest past 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(v) => Some(*v as f64),
            Json::Int(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Serializes the value into `out` (compact form, no whitespace).
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
            Json::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Str(s) => write_string(s, out),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) if v.is_finite() => {
                let _ = write!(out, "{v:?}");
            }
            Json::Float(_) | Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
        }
    }
}

/// Appends `s` to `out` as a JSON string literal: quotes, backslashes, and
/// control characters are escaped; all other characters (including
/// non-ASCII) pass through as UTF-8.
pub(crate) fn write_string(s: &str, out: &mut String) {
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

/// A parse error with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset at which parsing failed.
    pub offset: usize,
    /// Human-readable description of the failure.
    pub message: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.offset)
    }
}

/// Parses a complete JSON document (one value, surrounding whitespace
/// allowed, trailing garbage rejected).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text: input,
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(p.error("trailing characters after value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(message))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.error("expected a JSON value"));
        }
        self.pos += word.len();
        Ok(value)
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain (unescaped, non-terminator) bytes at
            // once; it starts and ends at ASCII bytes, so it is whole
            // characters.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // The writer only emits \u escapes for control
                            // characters; surrogate pairs are rejected to
                            // keep the parser honest about its subset.
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return Err(self.error("unsupported \\u escape")),
                            }
                            continue;
                        }
                        _ => return Err(self.error("unsupported escape sequence")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code: u32 = 0;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.error("expected four hex digits after \\u")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    /// A number: an integer ([`Json::UInt`] / [`Json::Int`]) unless it
    /// has a fraction or an exponent, then a finite [`Json::Float`].
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.pos += usize::from(self.peek() == Some(b'-'));
        self.digits()?;
        let mut float = false;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
            float = true;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            self.pos += usize::from(matches!(self.peek(), Some(b'+' | b'-')));
            self.digits()?;
            float = true;
        }
        let text = &self.text[start..self.pos];
        let value = if float {
            text.parse()
                .ok()
                .filter(|v: &f64| v.is_finite())
                .map(Json::Float)
        } else if text.starts_with('-') {
            text.parse().ok().map(Json::int)
        } else {
            text.parse().ok().map(Json::UInt)
        };
        value.ok_or(JsonError {
            offset: start,
            message: "number out of range",
        })
    }

    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected digits"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(value: &Json) -> Json {
        let mut s = String::new();
        value.write(&mut s);
        parse(&s).expect("serialized value parses back")
    }

    #[test]
    fn scalar_round_trips() {
        for v in [
            Json::UInt(0),
            Json::UInt(u64::MAX),
            Json::Int(-1),
            Json::Int(i64::MIN),
            Json::Str(String::new()),
            Json::Str("plain".into()),
            Json::Str("quote \" backslash \\ newline \n tab \t nul \u{0} é".into()),
            Json::Float(0.25),
            Json::Float(-1e-300),
            Json::Bool(true),
            Json::Bool(false),
            Json::Null,
        ] {
            assert_eq!(round_trip(&v), v);
        }
    }

    #[test]
    fn structures_round_trip() {
        let v = Json::Object(vec![
            ("type".into(), Json::Str("counter".into())),
            (
                "labels".into(),
                Json::Object(vec![("worker".into(), Json::Str("0".into()))]),
            ),
            (
                "buckets".into(),
                Json::Array(vec![Json::UInt(1), Json::UInt(2), Json::UInt(3)]),
            ),
            ("value".into(), Json::int(-5)),
        ]);
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn numbers_with_a_fraction_or_exponent_are_floats() {
        assert_eq!(parse("1.5"), Ok(Json::Float(1.5)));
        assert_eq!(parse("-3e-2"), Ok(Json::Float(-0.03)));
        assert_eq!(parse("1E+3"), Ok(Json::Float(1000.0)));
        assert_eq!(parse("1000"), Ok(Json::UInt(1000)));
        assert_eq!(parse("-0"), Ok(Json::UInt(0)));
        let mut out = String::new();
        Json::Array(vec![Json::Float(1.0), Json::Float(f64::NAN)]).write(&mut out);
        assert_eq!(out, "[1.0,null]");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{\"a\":1} junk").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("[1,]").is_err());
        for bad in ["1.", ".5", "1e", "-", "1e400", "nul", "tru", "True"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn write_string_escapes_quotes_and_control_characters() {
        let mut out = String::new();
        write_string("say \"hi\"\n", &mut out);
        assert_eq!(out, r#""say \"hi\"\n""#);
    }

    #[test]
    fn preserves_key_order() {
        let parsed = parse("{\"b\":1,\"a\":2}").unwrap();
        match parsed {
            Json::Object(fields) => {
                assert_eq!(fields[0].0, "b");
                assert_eq!(fields[1].0, "a");
            }
            _ => panic!("expected object"),
        }
    }
}
