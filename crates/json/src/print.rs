//! JSON serialization (compact and pretty).
//!
//! The compact form is canonical for storage and network transfer; pretty
//! printing is only for diagnostics (EXPLAIN output, examples).

use std::io::Write;

use crate::value::{Number, Value};

impl Value {
    /// Serialize to compact JSON. Guaranteed to re-parse to an equal value
    /// (property-tested in the crate root).
    pub fn to_json_string(&self) -> String {
        let mut out = Vec::with_capacity(self.approx_size());
        self.write_json(&mut out);
        into_string(out)
    }

    /// Append the compact JSON form to `out` — the one serializer; the
    /// flusher writes documents straight into its record buffer through it.
    pub fn write_json(&self, out: &mut Vec<u8>) {
        write_value(self, out);
    }
}

/// Serialize with `indent`-space indentation, for human consumption.
pub fn to_json_pretty(v: &Value, indent: usize) -> String {
    let mut out = Vec::new();
    write_pretty(v, indent, 0, &mut out);
    into_string(out)
}

/// The writer only ever emits ASCII punctuation and whole runs of `&str`,
/// so the bytes are UTF-8 by construction — the invariant is local to this
/// file, and a lossy or checked-and-propagated conversion would put an
/// error path on every serialization.
#[allow(clippy::expect_used)]
fn into_string(out: Vec<u8>) -> String {
    String::from_utf8(out).expect("serializer output is UTF-8 by construction")
}

fn write_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.extend_from_slice(b"null"),
        Value::Bool(true) => out.extend_from_slice(b"true"),
        Value::Bool(false) => out.extend_from_slice(b"false"),
        Value::Number(n) => write_number(*n, out),
        Value::String(s) => write_string(s, out),
        Value::Array(items) => {
            out.push(b'[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                write_value(item, out);
            }
            out.push(b']');
        }
        Value::Object(pairs) => {
            out.push(b'{');
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                write_string(k, out);
                out.push(b':');
                write_value(val, out);
            }
            out.push(b'}');
        }
    }
}

fn write_number(n: Number, out: &mut Vec<u8>) {
    // Writing into a `Vec<u8>` cannot fail.
    let _ = match n {
        Number::Int(i) => write!(out, "{i}"),
        // Rust's Display for f64 is shortest-roundtrip, which is exactly
        // what we want; integral floats keep a ".0" via this branch so
        // the int/float lexical class survives a round-trip.
        Number::Float(f) if f.fract() == 0.0 && f.abs() < 1e15 => write!(out, "{f:.1}"),
        Number::Float(f) => write!(out, "{f}"),
    };
}

/// Bytes that cannot appear verbatim inside a JSON string. Everything else
/// — multi-byte UTF-8 included, whose bytes are all ≥ 0x80 — is copied in
/// runs, the mirror image of what `parse_string` does on the way in.
fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

fn write_string(s: &str, out: &mut Vec<u8>) {
    out.push(b'"');
    let mut rest = s.as_bytes();
    while let Some(at) = rest.iter().position(|&b| needs_escape(b)) {
        out.extend_from_slice(&rest[..at]);
        match rest[at] {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            0x08 => out.extend_from_slice(b"\\b"),
            0x0C => out.extend_from_slice(b"\\f"),
            c => {
                let _ = write!(out, "\\u{c:04x}");
            }
        }
        rest = &rest[at + 1..];
    }
    out.extend_from_slice(rest);
    out.push(b'"');
}

fn indent_to(out: &mut Vec<u8>, spaces: usize) {
    out.resize(out.len() + spaces, b' ');
}

fn write_pretty(v: &Value, indent: usize, level: usize, out: &mut Vec<u8>) {
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.extend_from_slice(b"[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.extend_from_slice(b",\n");
                }
                indent_to(out, indent * (level + 1));
                write_pretty(item, indent, level + 1, out);
            }
            out.push(b'\n');
            indent_to(out, indent * level);
            out.push(b']');
        }
        Value::Object(pairs) if !pairs.is_empty() => {
            out.extend_from_slice(b"{\n");
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.extend_from_slice(b",\n");
                }
                indent_to(out, indent * (level + 1));
                write_string(k, out);
                out.extend_from_slice(b": ");
                write_pretty(val, indent, level + 1, out);
            }
            out.push(b'\n');
            indent_to(out, indent * level);
            out.push(b'}');
        }
        other => write_value(other, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    #[test]
    fn compact_output() {
        let v = Value::object([
            ("name", Value::from("Dipti")),
            ("age", Value::int(30)),
            ("tags", Value::from(vec!["a", "b"])),
        ]);
        assert_eq!(v.to_json_string(), r#"{"name":"Dipti","age":30,"tags":["a","b"]}"#);
    }

    #[test]
    fn control_chars_escaped() {
        let v = Value::from("a\u{0001}b\nc");
        let s = v.to_json_string();
        assert_eq!(s, "\"a\\u0001b\\nc\"");
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn escapes_next_to_multibyte_runs() {
        let v = Value::from("\u{00e9}\"\u{0001}\u{4e16}\\\u{1f600}\t");
        let s = v.to_json_string();
        assert_eq!(s, "\"\u{00e9}\\\"\\u0001\u{4e16}\\\\\u{1f600}\\t\"");
        assert_eq!(parse(&s).unwrap(), v);
        let mut bytes = Vec::new();
        v.write_json(&mut bytes);
        assert_eq!(bytes, s.as_bytes());
    }

    #[test]
    fn float_class_survives_roundtrip() {
        let v = Value::float(2.0);
        assert_eq!(v.to_json_string(), "2.0");
        assert!(matches!(parse("2.0").unwrap(), Value::Number(crate::value::Number::Float(_))));
        assert_eq!(Value::float(1.5e300).to_json_string().parse::<f64>().unwrap(), 1.5e300);
    }

    #[test]
    fn pretty_printing() {
        let v = Value::object([("a", Value::from(vec![1i64, 2]))]);
        let s = to_json_pretty(&v, 2);
        assert_eq!(s, "{\n  \"a\": [\n    1,\n    2\n  ]\n}");
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn empty_containers_stay_compact_in_pretty() {
        let v = Value::object([("a", Value::Array(vec![])), ("b", Value::empty_object())]);
        assert_eq!(to_json_pretty(&v, 2), "{\n  \"a\": [],\n  \"b\": {}\n}");
    }
}
