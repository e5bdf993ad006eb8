//! A minimal JSON value: enough to print the benchmark's reports, read
//! `BENCHMARK.json` and read two reports back for `perf compare`. The
//! build environment has no crates.io access, so no serde.

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order so reports read in the
/// order they were assembled.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    /// Whole numbers are kept apart from floats so counts print without
    /// a fraction and large counters do not lose digits.
    Int(i64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` (builder style; panics on a non-object,
    /// which would be a bug in the caller).
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.set(key, value);
        self
    }

    pub fn set(&mut self, key: &str, value: impl Into<Json>) {
        match self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("Json::set on a non-object"),
        }
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented rendering for files a person reads.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) if x.is_finite() => {
                // `{:?}` prints the shortest string that round-trips, so
                // every measured digit survives.
                let _ = write!(out, "{x:?}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn write_str(out: &mut String, s: &str) {
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

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        i64::try_from(x).map_or(Json::Num(x as f64), Json::Int)
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::from(x as u64)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected {lit:?} at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.expect("null").map(|()| Json::Null),
            Some(b't') => self.expect("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.expect("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b']') {
                        self.pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() {
                        self.expect(",")?;
                    }
                    items.push(self.value()?);
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b'}') {
                        self.pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    if !fields.is_empty() {
                        self.expect(",")?;
                        self.skip_ws();
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(":")?;
                    fields.push((key, self.value()?));
                }
            }
            Some(_) => self.number(),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Json::Int(i));
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let end = rest
                .iter()
                .position(|b| matches!(b, b'"' | b'\\'))
                .ok_or("unterminated string")?;
            out.push_str(std::str::from_utf8(&rest[..end]).map_err(|e| e.to_string())?);
            self.pos += end + 1;
            if rest[end] == b'"' {
                return Ok(out);
            }
            let esc = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
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
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .ok_or("short \\u escape")?;
                    let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    self.pos += 4;
                }
                other => return Err(format!("bad escape \\{}", other as char)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_report_shaped_document() {
        let doc = Json::obj()
            .with("correct", true)
            .with("attempted", 1000u64)
            .with(
                "metrics",
                Json::obj().with(
                    "events_per_s",
                    Json::obj()
                        .with("value", 68_123.456_789)
                        .with("unit", "1/s"),
                ),
            )
            .with("note", "a \"quoted\"\nline")
            .with("list", vec![Json::Int(-3), Json::Null, Json::Num(1e-9)]);
        for text in [doc.render(), doc.pretty()] {
            assert_eq!(Json::parse(&text).expect("parse"), doc);
        }
        assert!(!doc.render().contains('\n'));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("[1,").is_err());
    }
}
