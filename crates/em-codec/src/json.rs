//! A minimal JSON layer: [`Value`] tree, parser, and writer.
//!
//! The build environment is offline (no `serde`), so the workspace carries
//! its own implementation of exactly the subset its emitters need (it
//! started life as `em-serve::json` and was hoisted here so `em-batch` can
//! emit the same bytes without depending on the server crate):
//!
//! * objects preserve **insertion order** (`Vec<(String, Value)>`), so
//!   encoding is deterministic — a prerequisite for the guarantees that a
//!   cached and a freshly computed response are bit-identical, and that a
//!   batch-written record matches a served response byte for byte;
//! * numbers are `f64`, written with Rust's shortest-round-trip `Display`,
//!   so `f64 → text → f64` is exact and clients can compare coefficients
//!   bit-for-bit against a direct explainer run;
//! * parsing is a recursive-descent pass with a depth limit; malformed
//!   input always yields [`JsonError`], never a panic.

use std::fmt::Write as _;

/// Maximum nesting depth the parser accepts.
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always an `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved on parse and write.
    Object(Vec<(String, Value)>),
}

/// A parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// Parses a complete JSON document (trailing non-whitespace is an
    /// error).
    pub fn parse(input: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_whitespace();
        let v = p.parse_value(0)?;
        p.skip_whitespace();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after document"));
        }
        Ok(v)
    }

    /// Serializes to a compact JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out);
        out
    }

    #[expect(clippy::expect_used, reason = "fmt::Write to a String is infallible")]
    fn write_to(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Number(n) => {
                // JSON has no NaN/Infinity literal; degrade to null.
                if n.is_finite() {
                    write!(out, "{n}").expect("write to String");
                } else {
                    out.push_str("null");
                }
            }
            Value::String(s) => write_json_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_to(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(key, out);
                    out.push(':');
                    value.write_to(out);
                }
                out.push('}');
            }
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number payload as a non-negative integer, if it is one exactly.
    /// `u64::MAX as f64` is 2^64 itself, one past the range, so the bound
    /// is strict.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Looks up a field of an object (first occurrence wins).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// Writes `s` as a JSON string literal with full escaping.
#[expect(clippy::expect_used, reason = "fmt::Write to a String is infallible")]
fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("write to String");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", byte as char)))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_whitespace();
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Value::Bool(true)),
            Some(b'f') => self.parse_literal("false", Value::Bool(false)),
            Some(b'n') => self.parse_literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "pos <= bytes.len() is a parser invariant"
    )]
    fn parse_literal(&mut self, text: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected {text:?}")))
        }
    }

    #[expect(
        clippy::expect_used,
        clippy::indexing_slicing,
        reason = "start <= pos <= bytes.len(), and the slice holds only ASCII digits/sign/exponent bytes"
    )]
    fn parse_number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Number(n)),
            Ok(_) => Err(self.error("number out of range")),
            Err(_) => Err(self.error("malformed number")),
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|_| self.error("invalid utf-8"));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.error("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push(b'"'),
                        b'\\' => out.push(b'\\'),
                        b'/' => out.push(b'/'),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0C),
                        b'u' => {
                            let c = self.parse_unicode_escape()?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.error("raw control character in string")),
                Some(c) => {
                    out.push(c);
                    self.pos += 1;
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u`, combining surrogate pairs.
    fn parse_unicode_escape(&mut self) -> Result<char, JsonError> {
        let unit = self.parse_hex4()?;
        if (0xD800..0xDC00).contains(&unit) {
            // High surrogate: require `\uXXXX` low surrogate next.
            if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let low = self.parse_hex4()?;
                if !(0xDC00..0xE000).contains(&low) {
                    return Err(self.error("invalid low surrogate"));
                }
                let c = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                return char::from_u32(c).ok_or_else(|| self.error("invalid surrogate pair"));
            }
            return Err(self.error("unpaired high surrogate"));
        }
        if (0xDC00..0xE000).contains(&unit) {
            return Err(self.error("unpaired low surrogate"));
        }
        char::from_u32(unit).ok_or_else(|| self.error("invalid \\u escape"))
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "end <= bytes.len() checked two lines above"
    )]
    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.error("non-ascii in \\u escape"))?;
        let unit = u32::from_str_radix(hex, 16).map_err(|_| self.error("bad \\u escape"))?;
        self.pos = end;
        Ok(unit)
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.parse_value(depth + 1)?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }
}

/// Convenience constructors used by the codec.
impl Value {
    /// An object from `(key, value)` pairs.
    pub fn object<K: Into<String>>(fields: Vec<(K, Value)>) -> Value {
        Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn string(s: impl Into<String>) -> Value {
        Value::String(s.into())
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Number(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Number(n as f64)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("false").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("-12.5e2").unwrap(), Value::Number(-1250.0));
        assert_eq!(
            Value::parse("\"hi\"").unwrap(),
            Value::String("hi".to_string())
        );
    }

    #[test]
    fn parses_nested_structures_preserving_order() {
        let v = Value::parse(r#"{"b": [1, {"x": null}], "a": "s"}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj[0].0, "b");
        assert_eq!(obj[1].0, "a");
        assert_eq!(v.get("a").unwrap().as_str(), Some("s"));
        let arr = v.get("b").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].get("x"), Some(&Value::Null));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "quote\" back\\slash /slash \n\r\t\u{08}\u{0C}\u{01} héllo 日本 🦀";
        let json = Value::String(s.to_string()).to_json();
        assert_eq!(Value::parse(&json).unwrap().as_str(), Some(s));
    }

    #[test]
    fn surrogate_pair_escapes_decode() {
        let escaped = "\"\\ud83e\\udd80\"";
        assert_eq!(Value::parse(escaped).unwrap().as_str(), Some("🦀"));
        assert_eq!(Value::parse(r#""🦀""#).unwrap().as_str(), Some("🦀"));
        assert!(Value::parse(r#""\ud83e""#).is_err());
        assert!(Value::parse(r#""\udd80""#).is_err());
    }

    #[test]
    fn numbers_write_shortest_roundtrip_form() {
        for n in [0.0, -0.5, 500.0, 0.1234567890123, 1e-300, 123456789.0] {
            let json = Value::Number(n).to_json();
            assert_eq!(Value::parse(&json).unwrap().as_f64(), Some(n), "{json}");
        }
        assert_eq!(Value::Number(f64::NAN).to_json(), "null");
        assert_eq!(Value::Number(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn as_u64_requires_exact_integers() {
        assert_eq!(Value::Number(500.0).as_u64(), Some(500));
        assert_eq!(Value::Number(0.5).as_u64(), None);
        assert_eq!(Value::Number(-1.0).as_u64(), None);
        assert_eq!(Value::Null.as_u64(), None);
        // 2^64 is outside u64; the f64 just below it is inside.
        assert_eq!(Value::Number(18_446_744_073_709_551_616.0).as_u64(), None);
        assert_eq!(
            Value::Number(18_446_744_073_709_549_568.0).as_u64(),
            Some(18_446_744_073_709_549_568)
        );
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "nul",
            "\"unterminated",
            "\"bad\\q\"",
            "1e999",
            "--5",
            "[1] extra",
            "{\"a\":1,}",
            "\u{01}",
            "\"\u{01}\"",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Value::parse(&deep).is_err());
        let ok = "[".repeat(30) + &"]".repeat(30);
        assert!(Value::parse(&ok).is_ok());
    }

    #[test]
    fn object_write_escapes_keys() {
        let v = Value::object(vec![("a\"b", Value::Null)]);
        assert_eq!(v.to_json(), r#"{"a\"b":null}"#);
        assert_eq!(Value::parse(&v.to_json()).unwrap(), v);
    }
}
