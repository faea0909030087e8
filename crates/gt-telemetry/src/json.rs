//! Minimal JSON value, writer, and parser.
//!
//! The workspace builds in fully offline environments where external crates
//! cannot be vendored (DESIGN.md §6), so the telemetry exporters carry their
//! own JSON machinery: a [`Json`] value tree, an escaping writer, and a
//! strict recursive-descent parser (used by the Chrome-trace round-trip
//! tests and by anyone post-processing exported traces).
//!
//! The parser also reads files from outside the process (`repro
//! --chaos-replay`, `benchdiff`), so it runs in time linear in the input
//! and bounds its recursion: arrays and objects nested more than 128 deep
//! are a [`JsonError`], never a stack overflow.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All numbers are f64, like JavaScript. Non-finite values serialize as
    /// `null` (Chrome trace viewers reject bare `NaN`).
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered object (no dedup; last key wins on lookup).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object constructor from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on objects (`None` for other variants or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric accessor.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array accessor.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serialize without extraneous whitespace.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    // Rust's f64 Display is shortest-roundtrip, so values
                    // survive write→parse bit-exactly.
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Serialize to a fresh string.
    pub fn to_json_string(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

/// Free-function object constructor; reads better than [`Json::obj`] when
/// building literals inline.
pub fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Types with a canonical machine-readable JSON form. The workspace's
/// substitute for `serde::Serialize` (external crates cannot be vendored in
/// the offline build).
pub trait ToJson {
    /// The value's JSON representation.
    fn to_json(&self) -> Json;
}

fn write_escaped(s: &str, out: &mut String) {
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

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where parsing failed.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`parse`] accepts. Nothing the workspace
/// writes comes close; the cap keeps a hostile `[[[…` document from
/// recursing the parser off its stack.
const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document (trailing whitespace allowed).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text: input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Invariant: `pos` stays on a char boundary of `text` between tokens —
/// every step either consumes ASCII bytes or a whole run of `text`.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parse one array or object with `parse_one`, one level deeper.
    fn nested(
        &mut self,
        parse_one: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = parse_one(self);
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .ok()
            .map(Json::Num)
            .ok_or_else(|| self.err("invalid number"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.text.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = (self.text)
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not emitted by our writer;
                            // map unpaired surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash whole.
                    // Both are ASCII, so the run ends on a char boundary.
                    let rest = &self.text[self.pos..];
                    let run = rest.find(['"', '\\']).unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
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
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Num(0.0),
            Json::Num(-12.5),
            Json::Num(1e300),
            Json::Str("hi \"there\"\n\\ πß".to_string()),
        ] {
            let s = v.to_json_string();
            assert_eq!(parse(&s).unwrap(), v, "{s}");
        }
    }

    #[test]
    fn roundtrip_nested() {
        let v = Json::obj(vec![
            ("a", Json::Arr(vec![Json::Num(1.0), Json::Null])),
            ("b", Json::obj(vec![("c", Json::from("x"))])),
            ("empty", Json::Arr(vec![])),
        ]);
        assert_eq!(parse(&v.to_json_string()).unwrap(), v);
    }

    #[test]
    fn f64_roundtrips_bit_exactly() {
        for x in [
            1.0f64 / 3.0,
            123456.789012,
            f64::MIN_POSITIVE,
            -0.000123456789,
        ] {
            let s = Json::Num(x).to_json_string();
            let back = parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{s}");
        }
    }

    #[test]
    fn nonfinite_serializes_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_json_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_json_string(), "null");
    }

    #[test]
    fn get_and_accessors() {
        let v = parse(r#"{"x": 3, "y": "z", "l": [1,2]}"#).unwrap();
        assert_eq!(v.get("x").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("y").unwrap().as_str(), Some("z"));
        assert_eq!(v.get("l").unwrap().as_arr().unwrap().len(), 2);
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn rejects_garbage() {
        // A `\u` escape cut short by the end of input or by a multi-byte
        // scalar is an error, not a panic.
        let cut_escapes = ["\"\\u12", "\"\\u000é\""];
        let garbage = ["", "{", "[1,", "\"abc", "nul", "{\"a\" 1}", "1 2"];
        for bad in garbage.into_iter().chain(cut_escapes) {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn whitespace_tolerated() {
        let v = parse(" {\n\t\"a\" : [ 1 , 2 ] }\r\n").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (MAX_DEPTH, "nesting deeper than 128")
        );
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).is_err());
        assert!(parse(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn long_and_mixed_strings_round_trip() {
        let long = "gt".repeat(1 << 19);
        assert_eq!(
            parse(&Json::from(long.as_str()).to_json_string()).unwrap(),
            Json::from(long)
        );

        // 1-, 2-, 3- and 4-byte scalars between every escape the parser reads.
        let text = r#""a\"ß\\€\/😀\nπ\rx\tЖ\b中\f𝄞\u00e9\u0001z""#;
        let want = "a\"ß\\€/😀\nπ\rx\tЖ\u{8}中\u{c}𝄞é\u{1}z";
        assert_eq!(parse(text).unwrap(), Json::from(want));
        assert_eq!(
            parse(&Json::from(want).to_json_string()).unwrap(),
            Json::from(want)
        );
    }
}
