//! Minimal in-tree JSON support: just enough to serialize and parse the
//! [`MetricsSnapshot`](crate::MetricsSnapshot) JSON-lines format without
//! external dependencies.
//!
//! Numbers are restricted to integers (optionally signed). Snapshot values
//! are all integral (nanoseconds, counts, capacities), so the round trip is
//! exact — no float formatting or parsing ambiguity can creep in. Object key
//! order is preserved (keys are stored as a vector of pairs, not a map), so
//! a parse/serialize cycle reproduces the original byte stream for the
//! subset this module emits.

use std::fmt::Write as _;

/// A JSON value over the integer-only subset this crate emits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Json {
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
    pub(crate) fn as_u64(&self) -> Option<u64> {
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

    /// The value as a string slice, if it is a string.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Looks up `key` in an object.
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Serializes the value into `out` (compact form, no whitespace).
    pub(crate) fn write(&self, out: &mut String) {
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
        }
    }
}

/// Appends `s` to `out` as a JSON string literal: quotes, backslashes, and
/// control characters are escaped; all other characters (including
/// non-ASCII) pass through as UTF-8.
///
/// ```
/// let mut out = String::new();
/// treelineage_telemetry::write_string("say \"hi\"\n", &mut out);
/// assert_eq!(out, r#""say \"hi\"\n""#);
/// ```
pub fn write_string(s: &str, out: &mut String) {
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
pub(crate) struct JsonError {
    /// Byte offset at which parsing failed.
    pub(crate) offset: usize,
    /// Human-readable description of the failure.
    pub(crate) message: &'static str,
}

/// Parses a complete JSON document (one value, surrounding whitespace
/// allowed, trailing garbage rejected).
pub(crate) fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
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
        self.bytes.get(self.pos).copied()
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
            _ => Err(self.error("expected a JSON value")),
        }
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
            // once; the input is valid UTF-8 so the run is too.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let run = &self.bytes[start..self.pos];
                out.push_str(std::str::from_utf8(run).expect("input slices stay UTF-8"));
            }
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

    fn number(&mut self) -> Result<Json, JsonError> {
        let negative = if self.peek() == Some(b'-') {
            self.pos += 1;
            true
        } else {
            false
        };
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected digits"));
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.error("non-integer numbers are not supported"));
        }
        let digits = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        if negative {
            let value: i64 = format!("-{digits}")
                .parse()
                .map_err(|_| self.error("integer out of range"))?;
            Ok(Json::Int(value))
        } else {
            let value: u64 = digits
                .parse()
                .map_err(|_| self.error("integer out of range"))?;
            Ok(Json::UInt(value))
        }
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
    fn rejects_floats_and_garbage() {
        assert!(parse("1.5").is_err());
        assert!(parse("1e3").is_err());
        assert!(parse("{\"a\":1} junk").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("[1,]").is_err());
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
