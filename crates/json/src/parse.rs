//! Recursive-descent JSON parser.
//!
//! Strict RFC 8259 syntax (no trailing commas, no comments, no bare NaN),
//! full `\uXXXX` escape handling including surrogate pairs, and a recursion
//! depth limit so hostile documents cannot blow the stack of a data-service
//! thread.

use crate::value::{Number, Value};

/// Maximum nesting depth accepted (defensive; Couchbase caps document
/// nesting similarly). The N1QL parser holds statements to the same
/// budget.
pub const MAX_DEPTH: usize = 128;

/// A parse failure, with byte offset for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON text into a [`Value`].
///
/// Trailing whitespace is allowed; any other trailing content is an error.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    parse_bytes(input.as_bytes())
}

/// [`parse`] over raw bytes — a stored document's encoding — checking
/// UTF-8 as it goes instead of up front.
pub(crate) fn parse_bytes(input: &[u8]) -> Result<Value, ParseError> {
    let mut p = Parser { bytes: input, pos: 0 };
    p.skip_ws();
    let v = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError { offset: self.pos, message: msg.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("maximum nesting depth exceeded"));
        }
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(self.err(&format!("invalid literal, expected '{kw}'")))
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.parse_value(depth + 1)?;
            // RFC 8259 leaves duplicate-key behaviour implementation-defined;
            // like Couchbase (and serde_json) we keep the last occurrence.
            if let Some(slot) = pairs.iter_mut().find(|(k, _)| *k == key) {
                slot.1 = val;
            } else {
                pairs.push((key, val));
            }
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Object(pairs)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or '}' in object"));
                }
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(items)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or ']' in array"));
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes at once.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // A run stops only at ASCII bytes, so it holds whole
                // characters; raw-byte input is checked for UTF-8 here.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8 in string"))?,
                );
            }
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let cp = self.parse_hex4()?;
                        if (0xD800..0xDC00).contains(&cp) {
                            // High surrogate: require a following \uXXXX low
                            // surrogate.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("unpaired surrogate in \\u escape"));
                            }
                            let low = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                            out.push(
                                char::from_u32(c)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?,
                            );
                        } else if (0xDC00..0xE000).contains(&cp) {
                            return Err(self.err("unpaired low surrogate"));
                        } else {
                            out.push(
                                char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))?,
                            );
                        }
                    }
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(b) if b < 0x20 => return Err(self.err("unescaped control character")),
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, ParseError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let b = self.bump().ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a' + 10) as u32,
                b'A'..=b'F' => (b - b'A' + 10) as u32,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            v = (v << 4) | d;
        }
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("malformed number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::Int(i)));
            }
            // Integer overflowing i64: degrade to float like other parsers.
        }
        let f: f64 = text.parse().map_err(|_| self.err("number out of range"))?;
        if !f.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Value::Number(Number::Float(f)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Value {
        parse(s).unwrap()
    }

    #[test]
    fn scalars() {
        assert_eq!(p("null"), Value::Null);
        assert_eq!(p("true"), Value::Bool(true));
        assert_eq!(p("false"), Value::Bool(false));
        assert_eq!(p("42"), Value::int(42));
        assert_eq!(p("-7"), Value::int(-7));
        assert_eq!(p("3.5"), Value::float(3.5));
        assert_eq!(p("1e3"), Value::float(1000.0));
        assert_eq!(p("-1.5E-2"), Value::float(-0.015));
        assert_eq!(p("\"hi\""), Value::from("hi"));
    }

    #[test]
    fn containers() {
        assert_eq!(p("[]"), Value::Array(vec![]));
        assert_eq!(p("{}"), Value::empty_object());
        assert_eq!(p("[1, [2], {\"a\": 3}]").to_json_string(), "[1,[2],{\"a\":3}]");
        let doc = p(r#"{"name": "Dipti Borkar", "email": "Dipti@couchbase.com"}"#);
        assert_eq!(doc.get_field("name"), Some(&Value::from("Dipti Borkar")));
    }

    #[test]
    fn escapes() {
        assert_eq!(p(r#""a\nb\t\"c\\""#), Value::from("a\nb\t\"c\\"));
        assert_eq!(p(r#""é""#), Value::from("é"));
        assert_eq!(p(r#""😀""#), Value::from("😀"));
        assert_eq!(p(r#""\/""#), Value::from("/"));
        assert_eq!(p(r#""q\"\u0041\n""#), Value::from("q\"A\n"));
    }

    #[test]
    fn big_int_degrades_to_float() {
        let v = p("99999999999999999999999");
        assert!(matches!(v, Value::Number(Number::Float(_))));
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let v = p(r#"{"a": 1, "a": 2}"#);
        assert_eq!(v.get_field("a"), Some(&Value::int(2)));
        assert_eq!(v.as_object().unwrap().len(), 1);
    }

    #[test]
    fn errors_carry_offsets() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "\"abc",
            "01",
            "1.",
            "1e",
            "nul",
            "[1 2]",
            "\"\\q\"",
            "\"\u{0001}\"",
            "\"\\ud800\"",
            "{\"a\" 1}",
            "[]]",
        ] {
            let e = parse(bad).unwrap_err();
            assert!(e.offset <= bad.len(), "offset sane for {bad:?}");
        }
    }

    #[test]
    fn depth_limit_enforced() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn whitespace_tolerated() {
        assert_eq!(p(" \t\n{ \"a\" :\r1 } \n"), Value::object([("a", Value::int(1))]));
    }

    #[test]
    fn raw_bytes_are_checked_for_utf8() {
        let text = r#"{"a":"é"}"#;
        assert_eq!(parse_bytes(text.as_bytes()), parse(text));
        assert!(parse_bytes(b"\"\xff\"").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("1 2").is_err());
        assert!(parse("{} x").is_err());
    }
}
