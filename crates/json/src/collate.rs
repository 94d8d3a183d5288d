//! N1QL / view collation: the total order used by every index in the system.
//!
//! Couchbase (following CouchDB's view collation and SQL++'s ordering)
//! orders JSON values first by type, then within a type:
//!
//! `missing < null < false < true < number < string < array < object`
//!
//! - numbers compare numerically, and exactly, across the int/float
//!   classes;
//! - strings compare by Unicode code point;
//! - arrays compare element-wise, shorter-is-less on a common prefix;
//! - objects compare by sorted key list first, then by values in sorted key
//!   order (a deterministic convention; object keys in an index are rare).
//!
//! This ordering is what makes a view/GSI B-tree range scan meaningful for
//! heterogeneous documents in one bucket.

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

use crate::value::Value;

/// Type rank in the collation order. MISSING is handled out-of-band by
/// [`cmp_missing`] since documents never contain it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum TypeRank {
    /// `null`
    Null = 1,
    /// `false` then `true`
    Boolean = 2,
    /// any number
    Number = 3,
    /// any string
    String = 4,
    /// any array
    Array = 5,
    /// any object
    Object = 6,
}

/// The collation rank of a value's type.
fn type_rank(v: &Value) -> TypeRank {
    match v {
        Value::Null => TypeRank::Null,
        Value::Bool(_) => TypeRank::Boolean,
        Value::Number(_) => TypeRank::Number,
        Value::String(_) => TypeRank::String,
        Value::Array(_) => TypeRank::Array,
        Value::Object(_) => TypeRank::Object,
    }
}

/// Total-order comparison of two JSON values under N1QL collation.
pub fn cmp_values(a: &Value, b: &Value) -> Ordering {
    let (ra, rb) = (type_rank(a), type_rank(b));
    if ra != rb {
        return ra.cmp(&rb);
    }
    match (a, b) {
        (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Number(x), Value::Number(y)) => {
            // Values never contain NaN (parser and constructors forbid it),
            // so partial_cmp is total here.
            x.partial_cmp(y).unwrap_or(Ordering::Equal)
        }
        (Value::String(x), Value::String(y)) => x.cmp(y),
        (Value::Array(x), Value::Array(y)) => {
            for (xa, ya) in x.iter().zip(y.iter()) {
                let c = cmp_values(xa, ya);
                if c != Ordering::Equal {
                    return c;
                }
            }
            x.len().cmp(&y.len())
        }
        (Value::Object(x), Value::Object(y)) => {
            let c = by_name(x).map(|(k, _)| k).cmp(by_name(y).map(|(k, _)| k));
            if c != Ordering::Equal {
                return c;
            }
            // Both objects have the same names, so their values pair up.
            by_name(x)
                .zip(by_name(y))
                .map(|((_, xv), (_, yv))| cmp_values(xv, yv))
                .find(|c| c.is_ne())
                .unwrap_or(Ordering::Equal)
        }
        _ => unreachable!("type ranks matched"),
    }
}

/// An object's fields in name order (a repeated name in field order),
/// without sorting a copy: each step picks the least field after the last
/// one, so a walk costs O(fields²) comparisons and no allocation.
fn by_name(fields: &[(String, Value)]) -> impl Iterator<Item = (&str, &Value)> {
    let mut last: Option<(&str, usize)> = None;
    std::iter::from_fn(move || {
        let next = fields
            .iter()
            .enumerate()
            .map(|(at, (name, _))| (name.as_str(), at))
            .filter(|field| last.is_none_or(|last| *field > last))
            .min()?;
        last = Some(next);
        Some((next.0, &fields[next.1].1))
    })
}

/// Comparison lifted to possibly-MISSING values: MISSING sorts before
/// everything, including `null`.
pub fn cmp_missing(a: Option<&Value>, b: Option<&Value>) -> Ordering {
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(x), Some(y)) => cmp_values(x, y),
    }
}

/// Hash a possibly-MISSING value consistently with [`cmp_missing`]: values
/// it calls equal hash alike. A number hashes by its `f64`, `-0.0` as `0.0`
/// (numbers equal under collation are one double; integers above 2⁵³ that
/// round to one double merely share a hash), and an object's fields in
/// name order — a repeated name's values in field order, as the comparison
/// pairs them — without sorting a copy.
pub fn hash_missing<H: Hasher>(v: Option<&Value>, state: &mut H) {
    let Some(v) = v else { return state.write_u8(0) };
    match v {
        Value::Null => state.write_u8(1),
        Value::Bool(b) => (2u8, b).hash(state),
        Value::Number(n) => (3u8, (n.as_f64() + 0.0).to_bits()).hash(state),
        Value::String(s) => (4u8, s).hash(state),
        Value::Array(items) => {
            (5u8, items.len()).hash(state);
            for item in items {
                hash_missing(Some(item), state);
            }
        }
        Value::Object(fields) => {
            (6u8, fields.len()).hash(state);
            for (name, value) in by_name(fields) {
                name.hash(state);
                hash_missing(Some(value), state);
            }
        }
    }
}

/// A string against a value under collation, without building a
/// `Value::String` for it: how an index over document ids compares an id
/// with a scan bound.
pub fn cmp_str(s: &str, v: &Value) -> Ordering {
    match v {
        Value::String(t) => s.cmp(t),
        other => TypeRank::String.cmp(&type_rank(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn v(s: &str) -> Value {
        parse(s).unwrap()
    }

    #[test]
    fn type_order_matches_paper_systems() {
        let ladder = [
            v("null"),
            v("false"),
            v("true"),
            v("-10"),
            v("0"),
            v("3.5"),
            v("\"\""),
            v("\"a\""),
            v("\"b\""),
            v("[]"),
            v("[1]"),
            v("[1,2]"),
            v("[2]"),
            v("{}"),
            v("{\"a\":1}"),
        ];
        for w in ladder.windows(2) {
            assert_eq!(
                cmp_values(&w[0], &w[1]),
                Ordering::Less,
                "{:?} should sort before {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn numbers_compare_across_classes() {
        assert_eq!(cmp_values(&v("1"), &v("1.0")), Ordering::Equal);
        assert_eq!(cmp_values(&v("1"), &v("1.5")), Ordering::Less);
        assert_eq!(cmp_values(&v("2"), &v("1.5")), Ordering::Greater);
    }

    #[test]
    fn missing_sorts_first() {
        assert_eq!(cmp_missing(None, Some(&Value::Null)), Ordering::Less);
        assert_eq!(cmp_missing(None, None), Ordering::Equal);
        assert_eq!(cmp_missing(Some(&Value::Null), None), Ordering::Greater);
    }

    #[test]
    fn object_comparison_is_key_order_independent() {
        let a = v(r#"{"x":1,"y":2}"#);
        let b = v(r#"{"y":2,"x":1}"#);
        assert_eq!(cmp_values(&a, &b), Ordering::Equal);
        let c = v(r#"{"x":1,"y":3}"#);
        assert_eq!(cmp_values(&a, &c), Ordering::Less);
        // Differing key sets compare by sorted key list.
        let d = v(r#"{"x":1,"z":0}"#);
        assert_eq!(cmp_values(&a, &d), Ordering::Less); // "y" < "z"
    }

    #[test]
    fn a_str_collates_as_its_string_value() {
        let ladder = ["null", "true", "7", "\"\"", "\"id\"", "\"idz\"", "[]", "{}"].map(v);
        for s in ["", "id", "id1", "\u{e9}"] {
            let as_value = Value::from(s);
            for bound in &ladder {
                assert_eq!(cmp_str(s, bound), cmp_values(&as_value, bound), "{s:?} vs {bound:?}");
            }
        }
    }
}
