//! A minimal JSON document builder, serializer, and parser.
//!
//! No serde is available offline, so reports are assembled as explicit
//! [`JsonValue`] trees and rendered with a deterministic writer: object
//! keys keep insertion order, floats render via Rust's shortest-roundtrip
//! formatting, and the output is stable byte-for-byte across runs — which
//! is what makes `BENCH_*.json` trajectories diffable.
//!
//! [`JsonValue::parse`] is the inverse: a strict recursive-descent reader
//! used by the sweep service (`oic-serve`) to accept request specs and by
//! the shard `merge` tool to re-read reports. Parsing a document this
//! writer produced and re-rendering it is byte-identical — numbers render
//! shortest-roundtrip in both directions, which is what makes the
//! shard/merge byte-identity contract (`docs/PROTOCOL.md`) hold.

use std::fmt::Write as _;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (rendered shortest-roundtrip; non-finite values render as
    /// `null` per JSON's lack of IEEE specials). There is deliberately no
    /// `From<u64>` — a 64-bit seed does not fit in an `f64`; serialize
    /// such values as strings.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An empty object.
    pub fn object() -> Self {
        JsonValue::Object(Vec::new())
    }

    /// Adds/replaces a key on an object (builder style).
    ///
    /// # Panics
    ///
    /// Panics when called on a non-object.
    pub fn with(mut self, key: &str, value: impl Into<JsonValue>) -> Self {
        match &mut self {
            JsonValue::Object(entries) => {
                let value = value.into();
                if let Some(entry) = entries.iter_mut().find(|(k, _)| k == key) {
                    entry.1 = value;
                } else {
                    entries.push((key.to_string(), value));
                }
            }
            other => panic!("JsonValue::with on non-object {other:?}"),
        }
        self
    }

    /// Fetches a key from an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Number(x) if x.fract() == 0.0 && *x >= 0.0 && *x <= 9.0e15 => {
                Some(*x as usize)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The entry list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// Checks that this is an object whose keys all come from `allowed`,
    /// none repeated. Wire documents call it before reading any key, so a
    /// misspelt or doubled key is an error instead of a silent default
    /// ([`get`](Self::get) reads only the first of repeated keys).
    ///
    /// # Errors
    ///
    /// Names the first unknown or repeated key, or says that this is not
    /// an object.
    pub fn check_keys(&self, allowed: &[&str]) -> Result<(), String> {
        let entries = self.as_object().ok_or("must be a JSON object")?;
        for (i, (key, _)) in entries.iter().enumerate() {
            if !allowed.contains(&key.as_str()) {
                let expected = allowed.join(", ");
                return Err(format!("unknown key {key:?} (expected {expected})"));
            }
            if entries[..i].iter().any(|(earlier, _)| earlier == key) {
                return Err(format!("key {key:?} appears twice"));
            }
        }
        Ok(())
    }

    /// Parses one JSON document (strict: no trailing garbage, no
    /// comments, no trailing commas; `\uXXXX` escapes incl. surrogate
    /// pairs are decoded).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonParseError`] naming the byte offset of the first
    /// violation.
    pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Renders compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders human-readable JSON with 2-space indentation.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (pad, nl, sp) = match indent {
            Some(width) => (" ".repeat(width * (depth + 1)), "\n", " "),
            None => (String::new(), "", ""),
        };
        let close_pad = match indent {
            Some(width) => " ".repeat(width * depth),
            None => String::new(),
        };
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(x) => {
                if x.is_finite() {
                    if x.fract() == 0.0 && x.abs() < 9.0e15 {
                        let _ = write!(out, "{}", *x as i64);
                    } else {
                        let _ = write!(out, "{x:?}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::String(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&close_pad);
                out.push(']');
            }
            JsonValue::Object(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    write_escaped(out, key);
                    out.push(':');
                    out.push_str(sp);
                    value.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&close_pad);
                out.push('}');
            }
        }
    }
}

/// A parse failure: the byte offset of the first violation plus a
/// human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

/// Maximum container nesting the parser accepts. Recursive descent puts
/// one stack frame per `[`/`{` level, so without a bound a crafted body
/// of a few hundred kilobytes of `[[[[…` could overflow the stack of
/// whatever thread parses it (the serve layer parses request bodies on
/// connection threads). 128 levels is far beyond any legitimate sweep
/// spec or report.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Current container nesting level, bounded by [`MAX_DEPTH`].
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected character {:?}", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn enter(&mut self) -> Result<(), JsonParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Array(items));
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
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Object(entries));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // A high surrogate must be followed by
                                // `\uXXXX` carrying the low half.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad surrogate pair"))?
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| self.err("unpaired low surrogate"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid by construction).
                    let rest = &self.bytes[self.pos..];
                    let len = match rest[0] {
                        b if b < 0x80 => 1,
                        b if b >= 0xF0 => 4,
                        b if b >= 0xE0 => 3,
                        _ => 2,
                    };
                    out.push_str(std::str::from_utf8(&rest[..len]).expect("input is valid UTF-8"));
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let text = std::str::from_utf8(chunk).map_err(|_| self.err("non-ASCII \\u escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| self.err("bad \\u escape digits"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_from = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_from {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_from {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_from {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number token");
        let x: f64 = text.parse().map_err(|_| JsonParseError {
            offset: start,
            message: format!("unparsable number {text:?}"),
        })?;
        Ok(JsonValue::Number(x))
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

impl From<f64> for JsonValue {
    fn from(x: f64) -> Self {
        JsonValue::Number(x)
    }
}

impl From<usize> for JsonValue {
    fn from(x: usize) -> Self {
        JsonValue::Number(x as f64)
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::String(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::String(s)
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(items: Vec<T>) -> Self {
        JsonValue::Array(items.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars_and_nesting() {
        let doc = JsonValue::object()
            .with("name", "batch")
            .with("count", 3usize)
            .with("rate", 0.25)
            .with("ok", true)
            .with("items", vec![1.0, 2.5]);
        assert_eq!(
            doc.to_json(),
            r#"{"name":"batch","count":3,"rate":0.25,"ok":true,"items":[1,2.5]}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let doc = JsonValue::from("a\"b\\c\nd\u{1}");
        assert_eq!(doc.to_json(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn pretty_output_is_indented_and_stable() {
        let doc = JsonValue::object()
            .with("a", 1.0)
            .with("b", JsonValue::Array(vec![]));
        let pretty = doc.to_json_pretty();
        assert_eq!(pretty, "{\n  \"a\": 1,\n  \"b\": []\n}\n");
        assert_eq!(
            pretty,
            doc.to_json_pretty(),
            "rendering must be deterministic"
        );
    }

    #[test]
    fn with_replaces_existing_keys() {
        let doc = JsonValue::object().with("k", 1.0).with("k", 2.0);
        assert_eq!(doc.get("k"), Some(&JsonValue::Number(2.0)));
        assert_eq!(doc.to_json(), r#"{"k":2}"#);
    }

    #[test]
    fn non_finite_numbers_render_null() {
        assert_eq!(JsonValue::Number(f64::INFINITY).to_json(), "null");
        assert_eq!(JsonValue::Number(f64::NAN).to_json(), "null");
    }

    #[test]
    fn parse_round_trips_writer_output_byte_identically() {
        let doc = JsonValue::object()
            .with("name", "batch")
            .with("count", 3usize)
            .with("rate", 0.1 + 0.2) // a value whose shortest form is long
            .with("neg", -17.25)
            .with("tiny", 5e-324)
            .with("ok", true)
            .with("none", JsonValue::Null)
            .with("items", vec![1.0, 2.5])
            .with("nested", JsonValue::object().with("k", "v\n\"x\""));
        for rendered in [doc.to_json(), doc.to_json_pretty()] {
            let parsed = JsonValue::parse(&rendered).unwrap();
            assert_eq!(parsed, doc);
            assert_eq!(parsed.to_json(), doc.to_json(), "re-render is stable");
        }
    }

    #[test]
    fn parse_decodes_escapes_and_unicode() {
        let parsed = JsonValue::parse(r#""a\u0041\n\t\\\"\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(parsed, JsonValue::from("aA\n\t\\\"é😀"));
        // Raw multi-byte UTF-8 passes through.
        let parsed = JsonValue::parse("\"héllo\"").unwrap();
        assert_eq!(parsed.as_str(), Some("héllo"));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "nul",
            "01x",
            "1 2",
            "\"unterminated",
            "{\"a\" 1}",
            "[1 2]",
            "\"\\u12\"",
            "\"\\ud800x\"",
            "--1",
            "1.",
            "1e",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn nesting_is_bounded_not_stack_overflowed() {
        // Exactly at the limit parses; one level past it is a parse
        // error — and a megabyte of open brackets (the stack-overflow
        // payload shape) fails fast instead of crashing the thread.
        let deep_ok = format!("{}1{}", "[".repeat(128), "]".repeat(128));
        assert!(JsonValue::parse(&deep_ok).is_ok());
        let too_deep = format!("{}1{}", "[".repeat(129), "]".repeat(129));
        let err = JsonValue::parse(&too_deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let bomb = "[".repeat(1 << 20);
        assert!(JsonValue::parse(&bomb).is_err());
        let object_bomb = "{\"k\":".repeat(10_000);
        assert!(JsonValue::parse(&object_bomb).is_err());
        // Siblings do not accumulate depth: a wide flat document is fine.
        let wide = format!("[{}]", vec!["[1]"; 50_000].join(","));
        assert!(JsonValue::parse(&wide).is_ok());
    }

    #[test]
    fn accessors_match_variants() {
        let doc =
            JsonValue::parse(r#"{"n": 42, "s": "x", "b": false, "a": [1], "f": 1.5}"#).unwrap();
        assert_eq!(doc.get("n").and_then(JsonValue::as_usize), Some(42));
        assert_eq!(doc.get("f").and_then(JsonValue::as_usize), None);
        assert_eq!(doc.get("f").and_then(JsonValue::as_f64), Some(1.5));
        assert_eq!(doc.get("s").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(doc.get("b").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(
            doc.get("a").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(1)
        );
        assert_eq!(doc.as_object().map(<[_]>::len), Some(5));
    }

    #[test]
    fn parsed_numbers_rerender_shortest_roundtrip() {
        // The byte-identity contract for shard merging: any number our
        // writer emits reparses to the same f64 and re-renders to the
        // same bytes.
        for (text, expected) in [
            ("3", "3"),
            ("0.25", "0.25"),
            ("-0.1", "-0.1"),
            ("1e3", "1000"),
        ] {
            let v = JsonValue::parse(text).unwrap();
            assert_eq!(v.to_json(), expected);
        }
    }
}
