//! A minimal JSON value, writer and parser for the wire formats.
//!
//! The serialized [`Plan`](crate::plan::Plan) and
//! [`ResultSet`](crate::engine::ResultSet) formats, and the sweep
//! service's frame payloads, are JSON — but the build must work with no
//! external crates, so this module implements the (small) subset the
//! wire formats need on std alone:
//!
//! * values: `null`, booleans, **unsigned integers**, strings, arrays,
//!   objects. Every numeric field of a plan or a result is a count
//!   (`u64`) or a small geometry parameter, so signed numbers, fractions
//!   and exponents are rejected on parse rather than half-supported —
//!   keeping the format free of float round-trip hazards by
//!   construction.
//! * writer: compact (no whitespace), object keys in insertion order, so
//!   rendering is deterministic and renders of equal values are
//!   byte-identical — the property the service's memo cache and the CI
//!   bit-identity diffs rely on.
//! * parser: recursive descent over the full grammar of the writer plus
//!   arbitrary inter-token whitespace (hand-edited plan files), with
//!   byte-offset error positions, at most 64 arrays and objects deep
//!   (`MAX_DEPTH`).

use std::error::Error;
use std::fmt;

/// How many arrays and objects deep a parsed document may nest. The
/// wire's deepest documents nest 5 levels; the cap bounds the parser's
/// recursion, so a deeper document (a hostile frame, say) is an error
/// instead of a stack overflow.
const MAX_DEPTH: usize = 64;

/// A JSON value restricted to the wire formats' needs (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the only number form the formats use).
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; keys keep insertion order so rendering is
    /// deterministic.
    Object(Vec<(String, Json)>),
}

/// Error produced when JSON parsing or schema decoding fails.
///
/// One error type covers both layers: syntax errors carry the byte
/// offset they were detected at, schema errors (a well-formed value that
/// does not describe a plan or a result) carry only a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    message: String,
}

impl WireError {
    /// A schema- or syntax-level error with this message.
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        WireError { message: message.into() }
    }

    fn at(offset: usize, message: impl fmt::Display) -> Self {
        WireError { message: format!("{message} at byte {offset}") }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl Error for WireError {}

impl Json {
    /// An object from `(key, value)` pairs, preserving order.
    #[must_use]
    pub fn object(fields: Vec<(&str, Json)>) -> Json {
        Json::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Renders the value compactly (no whitespace, insertion-ordered
    /// keys). Deterministic: equal values render byte-identically.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => out.push_str(&n.to_string()),
            Json::Str(s) => write_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (one value, then end of input).
    pub fn parse(text: &str) -> Result<Json, WireError> {
        let mut parser = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(WireError::at(parser.pos, "trailing input after JSON value"));
        }
        Ok(value)
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer value, if this is an unsigned integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Whether this is `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Object field lookup (first occurrence).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Object field lookup that fails with a schema error naming the
    /// missing key — the decoder's workhorse.
    pub fn field(&self, key: &str) -> Result<&Json, WireError> {
        self.get(key).ok_or_else(|| WireError::new(format!("missing field {key:?}")))
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), WireError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(WireError::at(self.pos, format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, WireError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(WireError::at(self.pos, format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, WireError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') => self.nested(),
            Some(b'0'..=b'9') => self.number(),
            Some(b'-') => Err(WireError::at(
                self.pos,
                "negative numbers are not part of the wire format (counts are unsigned)",
            )),
            Some(other) => Err(WireError::at(self.pos, format!("unexpected byte {other:#04x}"))),
            None => Err(WireError::at(self.pos, "unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Json, WireError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(WireError::at(
                self.pos,
                "fractions and exponents are not part of the wire format",
            ));
        }
        let digits = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        if digits.len() > 1 && digits.starts_with('0') {
            return Err(WireError::at(start, "leading zeros are not allowed"));
        }
        digits
            .parse::<u64>()
            .map(Json::UInt)
            .map_err(|_| WireError::at(start, "integer does not fit in u64"))
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(WireError::at(self.pos, "unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| WireError::at(self.pos, "malformed \\u escape"))?;
                            let c = char::from_u32(hex).ok_or_else(|| {
                                WireError::at(self.pos, "surrogate \\u escapes are not supported")
                            })?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(WireError::at(self.pos, "unknown escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(WireError::at(self.pos, "raw control byte in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is &str, so
                    // boundaries are valid by construction).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| WireError::at(self.pos, "invalid UTF-8"))?;
                    let c = rest.chars().next().expect("peek saw a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// An array or an object, one level deeper than the value around it.
    fn nested(&mut self) -> Result<Json, WireError> {
        if self.depth == MAX_DEPTH {
            return Err(WireError::at(self.pos, format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = if self.peek() == Some(b'[') { self.array() } else { self.object() };
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, WireError> {
        self.expect(b'[')?;
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
                _ => return Err(WireError::at(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, WireError> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
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
                _ => return Err(WireError::at(self.pos, "expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(value: &Json) {
        let text = value.render();
        let back = Json::parse(&text).expect("render parses");
        assert_eq!(&back, value, "round trip through {text:?}");
        assert_eq!(back.render(), text, "second render is byte-identical");
    }

    #[test]
    fn scalars_round_trip() {
        for value in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::UInt(0),
            Json::UInt(7),
            Json::UInt(u64::MAX),
            Json::Str(String::new()),
            Json::Str("PAg(12)".into()),
            Json::Str("tab\tquote\"slash\\newline\n".into()),
            Json::Str("unicode: é λ".into()),
        ] {
            round_trip(&value);
        }
    }

    #[test]
    fn composites_round_trip() {
        let value = Json::object(vec![
            ("jobs", Json::Array(vec![Json::UInt(1), Json::Null, Json::Bool(false)])),
            ("name", Json::Str("needs a training trace".into())),
            ("empty_array", Json::Array(Vec::new())),
            ("empty_object", Json::Object(Vec::new())),
            ("nested", Json::object(vec![("entries", Json::UInt(512)), ("ways", Json::UInt(4))])),
        ]);
        round_trip(&value);
    }

    #[test]
    fn parser_accepts_whitespace_everywhere() {
        let text = " {\n  \"a\" : [ 1 , 2 ] ,\t\"b\" : { } }\r\n";
        let value = Json::parse(text).expect("whitespaced document parses");
        assert_eq!(value.get("a").and_then(Json::as_array).map(<[Json]>::len), Some(2));
    }

    #[test]
    fn parser_rejects_non_wire_numbers() {
        for bad in ["-1", "1.5", "1e3", "01", "18446744073709551616"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "\"unterminated",
            "nul",
            "truex",
            "1 2",
            "{\"a\":1,}",
            "[1,]",
            "\"bad \\q escape\"",
            "\"\\ud800\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        // `depth` levels: objects around one empty array.
        let objects = |depth: usize| "{\"a\":".repeat(depth - 1) + "[]" + &"}".repeat(depth - 1);
        for nested in [arrays, objects] {
            assert!(Json::parse(&nested(MAX_DEPTH)).is_ok(), "the cap itself parses");
            for depth in [MAX_DEPTH + 1, 200_000] {
                let err = Json::parse(&nested(depth)).expect_err("past the cap");
                assert!(err.to_string().contains("nesting deeper than 64"), "{depth}: {err}");
            }
        }
    }

    #[test]
    fn field_lookup_reports_missing_keys() {
        let value = Json::object(vec![("present", Json::UInt(1))]);
        assert_eq!(value.field("present").unwrap().as_u64(), Some(1));
        let err = value.field("absent").unwrap_err();
        assert!(err.to_string().contains("absent"));
    }
}
