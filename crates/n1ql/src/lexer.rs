//! N1QL lexer.
//!
//! Case-insensitive keywords, backtick-quoted identifiers (for names with
//! special characters, e.g. `` `travel-sample` ``), single- or
//! double-quoted strings, JSON-style numbers, positional (`$1`) and named
//! (`$name`) parameters, and `--` line comments.

use cbs_common::{Error, Result};

/// One lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or plain identifier (uppercased keywords are matched
    /// case-insensitively at parse time; the original text is preserved).
    Ident(String),
    /// Backtick-quoted identifier (never a keyword).
    QuotedIdent(String),
    /// String literal.
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Positional parameter `$1` (1-based).
    PosParam(usize),
    /// Named parameter `$name`.
    NamedParam(String),
    /// Punctuation / operator.
    Punct(&'static str),
}

impl Token {
    /// Is this token the given keyword (case-insensitive)?
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    /// Is this the given punctuation?
    pub fn is_punct(&self, p: &str) -> bool {
        matches!(self, Token::Punct(q) if *q == p)
    }
}

const PUNCTS: &[&str] = &[
    "<=", ">=", "!=", "<>", "||", "==", "=", "<", ">", "(", ")", "[", "]", "{", "}", ",", ".", "*",
    "+", "-", "/", "%", ":", ";",
];

/// Tokenize a statement.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    Ok(tokenize_with_offsets(input)?.0)
}

/// Tokenize a statement, with the byte offset each token starts at.
pub(crate) fn tokenize_with_offsets(input: &str) -> Result<(Vec<Token>, Vec<usize>)> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let mut out = Vec::new();
    let mut offsets = Vec::new();
    let mut start = 0;
    'outer: while pos < bytes.len() {
        // A pass makes at most one token; the last one's began at `start`.
        offsets.resize(out.len(), start);
        start = pos;
        let b = bytes[pos];
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => {
                pos += 1;
            }
            b'-' if bytes.get(pos + 1) == Some(&b'-') => {
                // Line comment.
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
            }
            b'`' => {
                pos += 1;
                let start = pos;
                while pos < bytes.len() && bytes[pos] != b'`' {
                    pos += 1;
                }
                if pos == bytes.len() {
                    return Err(Error::Parse("unterminated backtick identifier".to_string()));
                }
                out.push(Token::QuotedIdent(input[start..pos].to_string()));
                pos += 1;
            }
            b'\'' | b'"' => {
                let quote = b;
                pos += 1;
                let mut s = String::new();
                loop {
                    if pos >= bytes.len() {
                        return Err(Error::Parse("unterminated string literal".to_string()));
                    }
                    let c = bytes[pos];
                    if c == quote {
                        // Doubled quote = escaped quote (SQL style).
                        if bytes.get(pos + 1) == Some(&quote) {
                            s.push(quote as char);
                            pos += 2;
                            continue;
                        }
                        pos += 1;
                        break;
                    }
                    if c == b'\\' && pos + 1 < bytes.len() && bytes[pos + 1].is_ascii() {
                        let esc = bytes[pos + 1];
                        match esc {
                            b'n' => s.push('\n'),
                            b't' => s.push('\t'),
                            b'r' => s.push('\r'),
                            b'\\' => s.push('\\'),
                            b'\'' => s.push('\''),
                            b'"' => s.push('"'),
                            other => {
                                s.push('\\');
                                s.push(other as char);
                            }
                        }
                        pos += 2;
                        continue;
                    }
                    // A backslash before a multibyte char is kept literal;
                    // the char itself is copied by the general path below.
                    // Multi-byte UTF-8: copy the whole char.
                    let ch_len = utf8_len(c);
                    s.push_str(&input[pos..pos + ch_len]);
                    pos += ch_len;
                }
                out.push(Token::Str(s));
            }
            b'$' => {
                pos += 1;
                let start = pos;
                while pos < bytes.len()
                    && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'_')
                {
                    pos += 1;
                }
                let name = &input[start..pos];
                if name.is_empty() {
                    return Err(Error::Parse("bare '$' without parameter name".to_string()));
                }
                if let Ok(n) = name.parse::<usize>() {
                    out.push(Token::PosParam(n));
                } else {
                    out.push(Token::NamedParam(name.to_string()));
                }
            }
            b'0'..=b'9' => {
                let start = pos;
                let mut is_float = false;
                while pos < bytes.len() && bytes[pos].is_ascii_digit() {
                    pos += 1;
                }
                if pos < bytes.len()
                    && bytes[pos] == b'.'
                    && bytes.get(pos + 1).is_some_and(|c| c.is_ascii_digit())
                {
                    is_float = true;
                    pos += 1;
                    while pos < bytes.len() && bytes[pos].is_ascii_digit() {
                        pos += 1;
                    }
                }
                if pos < bytes.len() && (bytes[pos] == b'e' || bytes[pos] == b'E') {
                    is_float = true;
                    pos += 1;
                    if pos < bytes.len() && (bytes[pos] == b'+' || bytes[pos] == b'-') {
                        pos += 1;
                    }
                    while pos < bytes.len() && bytes[pos].is_ascii_digit() {
                        pos += 1;
                    }
                }
                let text = &input[start..pos];
                if is_float {
                    out.push(Token::Float(
                        text.parse()
                            .map_err(|_| Error::Parse(format!("bad number literal: {text}")))?,
                    ));
                } else {
                    match text.parse::<i64>() {
                        Ok(i) => out.push(Token::Int(i)),
                        Err(_) => out
                            .push(Token::Float(text.parse().map_err(|_| {
                                Error::Parse(format!("bad number literal: {text}"))
                            })?)),
                    }
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = pos;
                while pos < bytes.len()
                    && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'_')
                {
                    pos += 1;
                }
                out.push(Token::Ident(input[start..pos].to_string()));
            }
            _ => {
                for p in PUNCTS {
                    if input[pos..].starts_with(p) {
                        out.push(Token::Punct(p));
                        pos += p.len();
                        continue 'outer;
                    }
                }
                return Err(Error::Parse(format!(
                    "unexpected character '{}' at byte {pos}",
                    b as char
                )));
            }
        }
    }
    offsets.resize(out.len(), start);
    Ok((out, offsets))
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_select() {
        let toks = tokenize("SELECT name, age FROM profiles WHERE age >= 21").unwrap();
        assert!(toks[0].is_kw("select"));
        assert!(toks[1].is_kw("name"));
        assert!(toks[2].is_punct(","));
        assert!(toks.iter().any(|t| t.is_punct(">=")));
        assert_eq!(toks.last(), Some(&Token::Int(21)));
    }

    #[test]
    fn strings_and_escapes() {
        let toks = tokenize(r#"SELECT 'it''s', "dq", 'a\nb'"#).unwrap();
        assert_eq!(toks[1], Token::Str("it's".to_string()));
        assert_eq!(toks[3], Token::Str("dq".to_string()));
        assert_eq!(toks[5], Token::Str("a\nb".to_string()));
    }

    #[test]
    fn backtick_identifiers() {
        let toks = tokenize("SELECT * FROM `travel-sample`").unwrap();
        assert_eq!(toks[3], Token::QuotedIdent("travel-sample".to_string()));
    }

    #[test]
    fn parameters() {
        let toks = tokenize("WHERE meta().id >= $1 LIMIT $limit").unwrap();
        assert!(toks.contains(&Token::PosParam(1)));
        assert!(toks.contains(&Token::NamedParam("limit".to_string())));
    }

    #[test]
    fn numbers() {
        let toks = tokenize("1 2.5 1e3 9223372036854775807").unwrap();
        assert_eq!(
            toks,
            vec![Token::Int(1), Token::Float(2.5), Token::Float(1000.0), Token::Int(i64::MAX)]
        );
    }

    #[test]
    fn comments_skipped() {
        let toks = tokenize("SELECT 1 -- trailing comment\n, 2").unwrap();
        assert_eq!(toks.len(), 4);
    }

    #[test]
    fn operators() {
        let toks = tokenize("a != b <> c || d <= e").unwrap();
        assert!(toks[1].is_punct("!="));
        assert!(toks[3].is_punct("<>"));
        assert!(toks[5].is_punct("||"));
        assert!(toks[7].is_punct("<="));
    }

    #[test]
    fn errors() {
        assert!(tokenize("'unterminated").is_err());
        assert!(tokenize("`unterminated").is_err());
        assert!(tokenize("$").is_err());
        assert!(tokenize("a @ b").is_err());
    }
}
