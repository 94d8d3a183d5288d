//! The JSON value model.
//!
//! Objects preserve insertion order (a `Vec` of pairs plus linear probing —
//! documents in this system are small, typically tens of fields, where a
//! vector beats a hash map on both space and speed). Numbers keep the
//! integer/float distinction so that integer keys index and collate exactly.

use std::cmp::Ordering;
use std::fmt;

/// A JSON number: either an exact 64-bit integer or a double.
///
/// N1QL (like SQL++) treats `1` and `1.0` as equal in comparisons but we
/// preserve the lexical class for faithful round-tripping. Comparisons
/// are exact: `9007199254740993` is greater than `9007199254740992.0`,
/// which equals `9007199254740992`.
#[derive(Clone, Copy, Debug)]
pub enum Number {
    /// An integer that fits i64.
    Int(i64),
    /// Any other finite number.
    Float(f64),
}

impl Number {
    /// The value as f64 (lossy for |int| > 2^53, like every JSON system).
    #[inline]
    pub fn as_f64(self) -> f64 {
        match self {
            Number::Int(i) => i as f64,
            Number::Float(f) => f,
        }
    }

    /// The value as i64, when exactly representable.
    #[inline]
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Number::Int(i) => Some(i),
            Number::Float(f)
                if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 =>
            {
                Some(f as i64)
            }
            Number::Float(_) => None,
        }
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        self.partial_cmp(other) == Some(Ordering::Equal)
    }
}

impl PartialOrd for Number {
    /// Exact across the classes: an `Int` against a `Float` compares the
    /// integer with the double's own value, not with the integer rounded to
    /// a double, so the order stays transitive above 2⁵³.
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        match (*self, *other) {
            (Number::Int(a), Number::Int(b)) => Some(a.cmp(&b)),
            (Number::Float(a), Number::Float(b)) => a.partial_cmp(&b),
            (Number::Int(a), Number::Float(b)) => cmp_int_float(a, b),
            (Number::Float(a), Number::Int(b)) => cmp_int_float(b, a).map(Ordering::reverse),
        }
    }
}

/// `i` against `f`, exactly: the integer part of `f` fits an `i64` once
/// `f` is inside the `i64` range, and the fraction `f - trunc(f)` is
/// exact in floating point.
fn cmp_int_float(i: i64, f: f64) -> Option<Ordering> {
    /// 2⁶³, the first double above every `i64`.
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if f.is_nan() {
        None
    } else if f >= TWO_63 {
        Some(Ordering::Less)
    } else if f < -TWO_63 {
        Some(Ordering::Greater)
    } else {
        let whole = f.trunc();
        let by_fraction = 0.0.partial_cmp(&(f - whole)).unwrap_or(Ordering::Equal);
        Some(i.cmp(&(whole as i64)).then(by_fraction))
    }
}

/// A JSON value.
///
/// `MISSING` (a field that does not exist) is distinct from `null` in N1QL;
/// we model MISSING out-of-band (`Option<Value>` / [`crate::collate::cmp_missing`])
/// rather than as a variant, so documents can never contain it.
#[derive(Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number.
    Number(Number),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object, preserving field insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Integer constructor.
    #[inline]
    pub fn int(i: i64) -> Value {
        Value::Number(Number::Int(i))
    }

    /// Float constructor. Non-finite values are mapped to `null`, as JSON
    /// cannot represent them (mirrors what real JSON emitters do).
    #[inline]
    pub fn float(f: f64) -> Value {
        if f.is_finite() {
            Value::Number(Number::Float(f))
        } else {
            Value::Null
        }
    }

    /// An empty object.
    #[inline]
    pub fn empty_object() -> Value {
        Value::Object(Vec::new())
    }

    /// Build an object from pairs (last write wins on duplicate keys).
    pub fn object<I, K>(pairs: I) -> Value
    where
        I: IntoIterator<Item = (K, Value)>,
        K: Into<String>,
    {
        let mut v = Value::empty_object();
        for (k, val) in pairs {
            v.insert_field(&k.into(), val);
        }
        v
    }

    /// True JSON type name, as reported by N1QL's `TYPE()` function.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// Is this `null`?
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Borrow as f64 (any number).
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// Borrow as i64 (exactly-representable numbers only).
    #[inline]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// Borrow as string.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as array.
    #[inline]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrow as object pairs.
    #[inline]
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Look up a field of an object (MISSING ⇒ `None`).
    pub fn get_field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutably borrow as array.
    #[inline]
    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Mutably look up a field of an object (MISSING ⇒ `None`).
    pub fn get_field_mut(&mut self, name: &str) -> Option<&mut Value> {
        match self {
            Value::Object(pairs) => pairs.iter_mut().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Index into an array. Negative indexes count from the end (N1QL
    /// semantics: `a[-1]` is the last element).
    pub fn get_index(&self, idx: i64) -> Option<&Value> {
        match self {
            Value::Array(items) => {
                let len = items.len() as i64;
                let i = if idx < 0 { len + idx } else { idx };
                if i < 0 || i >= len {
                    None
                } else {
                    items.get(i as usize)
                }
            }
            _ => None,
        }
    }

    /// Insert or overwrite a field; returns the previous value if any.
    /// No-op (returning `None`) on non-objects.
    pub fn insert_field(&mut self, name: &str, value: Value) -> Option<Value> {
        if let Value::Object(pairs) = self {
            for (k, v) in pairs.iter_mut() {
                if k == name {
                    return Some(std::mem::replace(v, value));
                }
            }
            pairs.push((name.to_string(), value));
        }
        None
    }

    /// Remove a field; returns the removed value if present.
    pub fn remove_field(&mut self, name: &str) -> Option<Value> {
        if let Value::Object(pairs) = self {
            if let Some(pos) = pairs.iter().position(|(k, _)| k == name) {
                return Some(pairs.remove(pos).1);
            }
        }
        None
    }

    /// Rough in-memory footprint in bytes, used by the cache's memory
    /// accounting (`cbs-cache`). Deliberately simple and deterministic.
    pub fn approx_size(&self) -> usize {
        match self {
            Value::Null | Value::Bool(_) => 8,
            Value::Number(_) => 16,
            Value::String(s) => 24 + s.len(),
            Value::Array(a) => 24 + a.iter().map(Value::approx_size).sum::<usize>(),
            Value::Object(o) => {
                24 + o.iter().map(|(k, v)| 24 + k.len() + v.approx_size()).sum::<usize>()
            }
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_json_string())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_json_string())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::int(i as i64)
    }
}

impl From<u64> for Value {
    fn from(i: u64) -> Self {
        if i <= i64::MAX as u64 {
            Value::int(i as i64)
        } else {
            Value::float(i as f64)
        }
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::from(i as u64)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::float(f)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Above 2⁵³ not every `i64` is a double: an `Int` and a `Float`
    /// compare by their exact values, not through a rounded `f64`.
    #[test]
    fn int_and_float_compare_exactly_above_2_53() {
        let two_53 = 1i64 << 53;
        let (int, float) = (Number::Int(two_53 + 1), Number::Float(two_53 as f64));
        assert_eq!(int.partial_cmp(&float), Some(Ordering::Greater));
        assert_eq!(float.partial_cmp(&int), Some(Ordering::Less));
        assert_ne!(int, float);
        assert_eq!(Number::Float(two_53 as f64), Number::Int(two_53));
        assert!(Number::Int(two_53) < Number::Int(two_53 + 1));
        assert!(Number::Int(i64::MAX) < Number::Float(9_223_372_036_854_775_808.0));
        assert!(Number::Int(i64::MIN) == Number::Float(-9_223_372_036_854_775_808.0));
        assert!(Number::Int(-3) < Number::Float(-2.5) && Number::Int(-2) > Number::Float(-2.5));
        assert!(Number::Int(0) == Number::Float(-0.0) && Number::Int(2) > Number::Float(1.5));
    }

    #[test]
    fn object_field_ops() {
        let mut v = Value::empty_object();
        assert_eq!(v.insert_field("a", Value::int(1)), None);
        assert_eq!(v.insert_field("b", Value::from("x")), None);
        assert_eq!(v.insert_field("a", Value::int(2)), Some(Value::int(1)));
        assert_eq!(v.get_field("a"), Some(&Value::int(2)));
        assert_eq!(v.get_field("missing"), None);
        assert_eq!(v.remove_field("b"), Some(Value::from("x")));
        assert_eq!(v.remove_field("b"), None);
    }

    #[test]
    fn object_preserves_insertion_order() {
        let v = Value::object([("z", Value::int(1)), ("a", Value::int(2)), ("m", Value::int(3))]);
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn negative_array_index() {
        let v: Value = vec![1i64, 2, 3].into();
        assert_eq!(v.get_index(-1), Some(&Value::int(3)));
        assert_eq!(v.get_index(0), Some(&Value::int(1)));
        assert_eq!(v.get_index(3), None);
        assert_eq!(v.get_index(-4), None);
    }

    #[test]
    fn number_equality_crosses_classes() {
        assert_eq!(Value::int(1), Value::float(1.0));
        assert_ne!(Value::int(1), Value::float(1.5));
        assert_eq!(Value::Number(Number::Float(2.0)).as_i64(), Some(2));
        assert_eq!(Value::Number(Number::Float(2.5)).as_i64(), None);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert!(Value::float(f64::NAN).is_null());
        assert!(Value::float(f64::INFINITY).is_null());
    }

    #[test]
    fn type_names() {
        assert_eq!(Value::Null.type_name(), "null");
        assert_eq!(Value::int(1).type_name(), "number");
        assert_eq!(Value::empty_object().type_name(), "object");
    }

    #[test]
    fn approx_size_grows_with_content() {
        let small = Value::object([("a", Value::int(1))]);
        let big = Value::object([("a", Value::from("x".repeat(1000)))]);
        assert!(big.approx_size() > small.approx_size() + 900);
    }
}
