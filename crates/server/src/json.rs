//! Minimal JSON: a hand-rolled parser and writer (the vendored deps only
//! cover rand/proptest — no serde in this build environment).
//!
//! Integers and doubles are kept as distinct variants so `Value::Int`
//! round-trips at full `i64` precision (vertex ids and epoch timestamps
//! must not pass through `f64`).

use pgraph::value::Value;
use std::fmt::Write as _;

/// Nesting depth cap for untrusted request bodies.
const MAX_DEPTH: usize = 64;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Double(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered (we never need key lookup beyond linear scan).
    Obj(Vec<(String, Json)>),
    /// Pre-serialized JSON emitted verbatim by the writer. Write-only:
    /// the parser never produces it. Used to embed documents that
    /// already know how to serialize themselves (e.g. the core crate's
    /// `Plan`/`Profile` JSON) without re-parsing them.
    Raw(String),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Double(d) => Some(*d),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

}

impl std::fmt::Display for Json {
    /// Compact serialization (no whitespace).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        write_json(&mut out, self);
        f.write_str(&out)
    }
}

/// Serializes `j` onto `out` (compact, no whitespace).
pub fn write_json(out: &mut String, j: &Json) {
    match j {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Json::Double(d) => write_double(out, *d),
        Json::Str(s) => write_escaped(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(out, item);
            }
            out.push(']');
        }
        Json::Obj(entries) => {
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_json(out, v);
            }
            out.push('}');
        }
        Json::Raw(s) => out.push_str(s),
    }
}

/// f64 in shortest round-trip form; non-finite values (which JSON cannot
/// express) degrade to null.
fn write_double(out: &mut String, d: f64) {
    if d.is_finite() {
        // Rust's Display is shortest-roundtrip; ensure a `.0` so the
        // value re-parses as a double, keeping Int/Double distinct.
        let s = format!("{d}");
        out.push_str(&s);
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

/// Writes `s` as a JSON string literal with full escaping.
pub fn write_escaped(out: &mut String, s: &str) {
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

/// Parses a JSON document from text. Errors are human-readable strings
/// (they end up in 400 responses).
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected `{}` at offset {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_double = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_double = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-UTF-8 number".to_string())?;
        if is_double {
            text.parse::<f64>()
                .map(Json::Double)
                .map_err(|_| format!("bad number `{text}`"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .or_else(|_| text.parse::<f64>().map(Json::Double))
                .map_err(|_| format!("bad number `{text}`"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".to_string());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            // Surrogate pairs: accept and combine; lone
                            // surrogates degrade to U+FFFD.
                            let c = if (0xD800..0xDC00).contains(&hex) {
                                if self.bytes.get(self.pos) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    let lo = self
                                        .bytes
                                        .get(self.pos + 2..self.pos + 6)
                                        .and_then(|h| std::str::from_utf8(h).ok())
                                        .and_then(|h| u32::from_str_radix(h, 16).ok());
                                    match lo {
                                        Some(lo) if (0xDC00..0xE000).contains(&lo) => {
                                            self.pos += 6;
                                            let code = 0x10000
                                                + ((hex - 0xD800) << 10)
                                                + (lo - 0xDC00);
                                            char::from_u32(code).unwrap_or('\u{FFFD}')
                                        }
                                        _ => '\u{FFFD}',
                                    }
                                } else {
                                    '\u{FFFD}'
                                }
                            } else {
                                char::from_u32(hex).unwrap_or('\u{FFFD}')
                            };
                            s.push(c);
                        }
                        other => {
                            return Err(format!("bad escape `\\{}`", other as char));
                        }
                    }
                }
                _ => {
                    // Re-decode multi-byte UTF-8 from the raw bytes.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let end = start + width;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| "invalid UTF-8 in string".to_string())?;
                    s.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value(depth + 1)?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Converts an engine [`Value`] into wire JSON. Scalars map directly;
/// graph-specific and collection variants use one-key tag objects so the
/// client can reconstruct the exact variant.
pub fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => Json::Int(*i),
        Value::Double(d) => Json::Double(*d),
        Value::Str(s) => Json::Str(s.to_string()),
        Value::DateTime(secs) => Json::Obj(vec![("datetime".into(), Json::Int(*secs))]),
        Value::Vertex(id) => Json::Obj(vec![("vertex".into(), Json::Int(i64::from(id.0)))]),
        Value::Edge(id) => Json::Obj(vec![("edge".into(), Json::Int(i64::from(id.0)))]),
        Value::Tuple(items) => Json::Obj(vec![(
            "tuple".into(),
            Json::Arr(items.iter().map(value_to_json).collect()),
        )]),
        Value::List(items) => Json::Arr(items.iter().map(value_to_json).collect()),
        Value::Set(items) => Json::Obj(vec![(
            "set".into(),
            Json::Arr(items.iter().map(value_to_json).collect()),
        )]),
        Value::Map(entries) => Json::Obj(vec![(
            "map".into(),
            Json::Arr(
                entries
                    .iter()
                    .map(|(k, v)| Json::Arr(vec![value_to_json(k), value_to_json(v)]))
                    .collect(),
            ),
        )]),
    }
}

/// Converts a JSON argument into an engine [`Value`] for query binding.
///
/// Scalars map directly. Vertices and datetimes can be passed either as
/// tag objects (`{"vertex": 12}`, `{"datetime": 0}`) or — matching the
/// `gsql_shell --arg` convention — as prefixed strings (`"vertex:12"`,
/// `"datetime:0"`). Arrays become vertex sets when every element is a
/// vertex, otherwise lists.
pub fn json_to_arg(j: &Json) -> Result<Value, String> {
    match j {
        Json::Null => Ok(Value::Null),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Int(i) => Ok(Value::Int(*i)),
        Json::Double(d) => Ok(Value::Double(*d)),
        Json::Str(s) => {
            if let Some(id) = s.strip_prefix("vertex:") {
                let id = id
                    .parse::<u32>()
                    .map_err(|_| format!("bad vertex id `{id}`"))?;
                Ok(Value::Vertex(pgraph::graph::VertexId(id)))
            } else if let Some(secs) = s.strip_prefix("datetime:") {
                let secs = secs
                    .parse::<i64>()
                    .map_err(|_| format!("bad datetime `{secs}`"))?;
                Ok(Value::DateTime(secs))
            } else {
                Ok(Value::from(s.as_str()))
            }
        }
        Json::Obj(entries) => match entries.as_slice() {
            [(k, Json::Int(id))] if k == "vertex" => {
                let id = u32::try_from(*id).map_err(|_| format!("bad vertex id `{id}`"))?;
                Ok(Value::Vertex(pgraph::graph::VertexId(id)))
            }
            [(k, Json::Int(secs))] if k == "datetime" => Ok(Value::DateTime(*secs)),
            _ => Err("argument objects must be {\"vertex\": id} or {\"datetime\": secs}".into()),
        },
        Json::Arr(items) => {
            let values: Vec<Value> = items
                .iter()
                .map(json_to_arg)
                .collect::<Result<_, _>>()?;
            if !values.is_empty() && values.iter().all(|v| matches!(v, Value::Vertex(_))) {
                Ok(Value::new_set(values))
            } else {
                Ok(Value::List(values))
            }
        }
        // Write-only; the request parser never yields this variant.
        Json::Raw(_) => Err("raw JSON cannot be an argument".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let cases = [
            "null",
            "true",
            "-12",
            "3.5",
            "\"hi \\\"there\\\"\"",
            "[1,2,[3]]",
            "{\"a\":1,\"b\":[],\"c\":{\"d\":null}}",
        ];
        for src in cases {
            let v = parse(src).unwrap();
            assert_eq!(v.to_string(), src, "round trip of {src}");
        }
    }

    #[test]
    fn int_precision_is_preserved() {
        let v = parse("9007199254740993").unwrap(); // 2^53 + 1
        assert_eq!(v, Json::Int(9007199254740993));
        assert_eq!(v.to_string(), "9007199254740993");
    }

    #[test]
    fn doubles_keep_their_point() {
        assert_eq!(Json::Double(1.0).to_string(), "1.0");
        assert_eq!(parse("1.0").unwrap(), Json::Double(1.0));
    }

    #[test]
    fn rejects_malformed() {
        for bad in ["", "{", "[1,", "{\"a\"}", "tru", "1 2", "\"\\u12\""] {
            assert!(parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn unicode_strings_survive() {
        let v = parse("\"caf\u{e9} 🦀 \\u00e9\"").unwrap();
        assert_eq!(v, Json::Str("café 🦀 é".into()));
    }

    #[test]
    fn value_round_trip_through_args() {
        let vertex = json_to_arg(&parse("{\"vertex\": 7}").unwrap()).unwrap();
        assert_eq!(vertex, Value::Vertex(pgraph::graph::VertexId(7)));
        let vertex2 = json_to_arg(&Json::Str("vertex:7".into())).unwrap();
        assert_eq!(vertex, vertex2);
        let dt = json_to_arg(&parse("{\"datetime\": 0}").unwrap()).unwrap();
        assert_eq!(dt, Value::DateTime(0));
    }
}
