//! The one JSON reader, and the string escape every hand-rolled writer
//! shares.
//!
//! Every document the workspace emits (`ixp-obs/1` snapshots, `ixp-trace/1`
//! journals, `ixp-health/1`) holds unsigned integers and short strings only
//! — no floats — so equal inputs serialize to byte-identical documents. The
//! parser accepts exactly that subset:
//! objects, arrays, strings with the standard escapes, unsigned integers,
//! booleans and null. Anything else — a sign, a fraction, an exponent, a
//! trailing comma, trailing garbage — is a rejection, not a guess. It
//! exists so smoke tests and tooling can read the documents back without
//! external dependencies; the writers stay with the documents they write.

#![allow(
    clippy::arithmetic_side_effects,
    reason = "every `pos += 1` and `end += 1` follows a successful `bytes.get` at that index, so neither passes bytes.len(); `d - b'0'` follows `is_ascii_digit`; `s.len() + 2` sizes the copy of a str already in memory"
)]
/// Escape a string for a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A parsed JSON value (the subset the exporters emit).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Unsigned integer (the exporters never emit floats or negatives).
    Num(u64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object, in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse a JSON document. Returns `None` on any syntax error or trailing
/// garbage.
pub fn parse(input: &str) -> Option<Value> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos == p.bytes.len() {
        Some(v)
    } else {
        None
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Option<Value> {
        let end = self.pos.checked_add(word.len())?;
        if self.bytes.get(self.pos..end)? == word.as_bytes() {
            self.pos = end;
            Some(value)
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<Value> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string().map(Value::Str),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            b'0'..=b'9' => self.number(),
            _ => None,
        }
    }

    fn number(&mut self) -> Option<Value> {
        let mut n: u64 = 0;
        let mut any = false;
        while let Some(d) = self.peek().filter(u8::is_ascii_digit) {
            n = n.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
            self.pos += 1;
            any = true;
        }
        if any {
            Some(Value::Num(n))
        } else {
            None
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump()? {
                b'"' => return Some(out),
                b'\\' => match self.bump()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let end = self.pos.checked_add(4)?;
                        let hex = self.bytes.get(self.pos..end)?;
                        let hex = std::str::from_utf8(hex).ok()?;
                        let code = u32::from_str_radix(hex, 16).ok()?;
                        out.push(char::from_u32(code)?);
                        self.pos = end;
                    }
                    _ => return None,
                },
                b => {
                    // Re-assemble multi-byte UTF-8 sequences.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos.checked_sub(1)?;
                        let mut end = self.pos;
                        while self.bytes.get(end).is_some_and(|x| x & 0xC0 == 0x80) {
                            end += 1;
                        }
                        let chunk = self.bytes.get(start..end)?;
                        out.push_str(std::str::from_utf8(chunk).ok()?);
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn array(&mut self) -> Option<Value> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Some(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b']' => return Some(Value::Arr(items)),
                _ => return None,
            }
        }
    }

    fn object(&mut self) -> Option<Value> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Some(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b'}' => return Some(Value::Obj(members)),
                _ => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_quotes_and_control_chars() {
        assert_eq!(escape("a\"b\\c\n\u{1}"), "a\\\"b\\\\c\\n\\u0001");
        assert_eq!(escape("\r\t"), "\\r\\t");
    }

    #[test]
    fn escape_parse_round_trips() {
        for s in ["", "plain", "q\"uote\\slash", "ctl\u{1}\u{1f}\n\r\t", "ünï/çode"] {
            let doc = format!("{{\"k\": \"{}\"}}", escape(s));
            let v = parse(&doc).expect("escaped string parses");
            assert_eq!(v.get("k").and_then(Value::as_str), Some(s));
        }
    }

    #[test]
    fn parses_every_value_kind() {
        let v = parse(
            " {\"n\": 18446744073709551615, \"a\": [1, [], {}], \"t\": true, \
                       \"f\": false, \"z\": null, \"n\": 2} ",
        )
        .expect("parses");
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(u64::MAX), "first member wins");
        assert_eq!(v.get("a").and_then(Value::as_arr).map(<[Value]>::len), Some(3));
        assert_eq!(v.get("t"), Some(&Value::Bool(true)));
        assert_eq!(v.get("f"), Some(&Value::Bool(false)));
        assert_eq!(v.get("z"), Some(&Value::Null));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.get("t").and_then(Value::as_u64), None);
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let v = parse("{\"k\": \"a\\n\\\"b\\u0041ç\\/\\b\\f\"}").expect("parses");
        assert_eq!(v.get("k").and_then(Value::as_str), Some("a\n\"bAç/\u{8}\u{c}"));
    }

    #[test]
    fn parser_rejects_garbage() {
        // The reject cases of both parsers this one replaced, plus the
        // number forms an integer-only reader must not guess at.
        for bad in [
            "",
            "{",
            "{} trailing",
            "{} extra",
            "{\"a\": 01e5}",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "tru",
            "-1",
            "1.5",
            "18446744073709551616",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"short \\u12\"",
            "\"lone surrogate \\ud800\"",
        ] {
            assert_eq!(parse(bad), None, "{bad:?} parsed");
        }
    }
}
