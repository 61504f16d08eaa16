//! A small JSON value: enough to write the results document and read it
//! back (`--render`, merging runs into `results.json`, `golden.json`, the
//! selfcheck's child runs). `ixp_obs::json` is integer-only and the
//! vendored `serde_json` is an empty stand-in, so this lives here.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value. Objects keep sorted keys so documents render
/// deterministically.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// An empty object.
    pub fn obj() -> Value {
        Value::Obj(BTreeMap::new())
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Set member `key` (turning a non-object into an object first).
    pub fn set(&mut self, key: &str, value: Value) {
        if !matches!(self, Value::Obj(_)) {
            *self = Value::obj();
        }
        if let Value::Obj(m) = self {
            m.insert(key.to_string(), value);
        }
    }

    /// Member `key`, created as an empty object when absent.
    pub fn entry(&mut self, key: &str) -> &mut Value {
        if !matches!(self, Value::Obj(_)) {
            *self = Value::obj();
        }
        match self {
            Value::Obj(m) => m.entry(key.to_string()).or_insert_with(Value::obj),
            _ => unreachable!("just made an object"),
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> &[Value] {
        match self {
            Value::Arr(a) => a,
            _ => &[],
        }
    }

    /// Key/value pairs of an object (empty for anything else).
    pub fn members(&self) -> impl Iterator<Item = (&str, &Value)> {
        let m = match self {
            Value::Obj(m) => Some(m),
            _ => None,
        };
        m.into_iter().flatten().map(|(k, v)| (k.as_str(), v))
    }

    /// Render on one line.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Render indented, with a trailing newline.
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
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Rust prints the shortest digits that round-trip, never an
            // exponent; non-finite numbers have no JSON form.
            Value::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => write_str(out, s),
            Value::Arr(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    v.write(out, indent, depth + 1);
                }
                if !a.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Value::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent, depth + 1);
                }
                if !m.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse a whole document; `None` on any syntax error or trailing text.
pub fn parse(text: &str) -> Option<Value> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    (p.pos == p.bytes.len()).then_some(v)
}

/// Nesting bound: documents here are a handful of levels deep.
const MAX_DEPTH: usize = 32;

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

    fn eat(&mut self, token: &str) -> Option<()> {
        let end = self.pos.checked_add(token.len())?;
        (self.bytes.get(self.pos..end)? == token.as_bytes()).then(|| self.pos = end)
    }

    fn value(&mut self, depth: usize) -> Option<Value> {
        if depth > MAX_DEPTH {
            return None;
        }
        self.skip_ws();
        match *self.bytes.get(self.pos)? {
            b'n' => self.eat("null").map(|()| Value::Null),
            b't' => self.eat("true").map(|()| Value::Bool(true)),
            b'f' => self.eat("false").map(|()| Value::Bool(false)),
            b'"' => self.string().map(Value::Str),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.eat("]").is_some() {
                        return Some(Value::Arr(items));
                    }
                    if !items.is_empty() {
                        self.eat(",")?;
                    }
                    items.push(self.value(depth + 1)?);
                }
            }
            b'{' => {
                self.pos += 1;
                let mut members = BTreeMap::new();
                loop {
                    self.skip_ws();
                    if self.eat("}").is_some() {
                        return Some(Value::Obj(members));
                    }
                    if !members.is_empty() {
                        self.eat(",")?;
                        self.skip_ws();
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(":")?;
                    members.insert(key, self.value(depth + 1)?);
                }
            }
            _ => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(self.bytes.get(start..self.pos)?).ok()?;
                text.parse::<f64>()
                    .ok()
                    .filter(|n| n.is_finite())
                    .map(Value::Num)
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(*self.bytes.get(self.pos)?, b'"' | b'\\') {
                self.pos += 1;
            }
            out.push_str(std::str::from_utf8(self.bytes.get(start..self.pos)?).ok()?);
            if self.eat("\"").is_some() {
                return Some(out);
            }
            self.pos += 1; // the backslash
            let esc = *self.bytes.get(self.pos)?;
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b't' => '\t',
                b'r' => '\r',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => {
                    let hex = std::str::from_utf8(self.bytes.get(self.pos..self.pos + 4)?).ok()?;
                    self.pos += 4;
                    char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
                }
                _ => return None,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_both_renderings() {
        let mut doc = Value::obj();
        doc.set("name", Value::Str("direct-small \"quoted\"\n".into()));
        doc.set("value", Value::Num(244_812.375));
        doc.set("tiny", Value::Num(0.000_001_25));
        doc.set("ok", Value::Bool(true));
        doc.set(
            "list",
            Value::Arr(vec![Value::Num(1.0), Value::Null, Value::obj()]),
        );
        doc.entry("nested").set("k", Value::Num(-3.0));
        assert_eq!(parse(&doc.compact()), Some(doc.clone()));
        assert_eq!(parse(&doc.pretty()), Some(doc));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1,]x",
            "{\"a\": 1} trailing",
            "\"open",
            "nul",
            "1e999",
        ] {
            assert_eq!(parse(bad), None, "{bad:?}");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert_eq!(parse(&deep), None);
    }
}
