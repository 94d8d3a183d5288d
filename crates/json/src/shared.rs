//! Shared immutable document versions.
//!
//! A document version lives as its compact JSON encoding, held once in a
//! reference-counted [`Bytes`] buffer: the cache, DCP items, replica copies,
//! the flushers and disk reads all hand that one allocation around, and a
//! record read back from the log is wrapped as it is. A decoded [`Value`]
//! tree exists only where a body is read — in the handle of the reader that
//! dereferenced it, never in the shared allocation — so a clone shares the
//! bytes but no tree, and a reader that decodes never grows anyone else's
//! copy. An edit goes through [`SharedValue::make_mut`], which encodes the
//! edited tree into new bytes when it is done.

use std::cell::Cell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::OnceLock;

use bytes::Bytes;

use crate::parse::parse_bytes;
use crate::value::Value;

/// One immutable document version: its encoding, shared by every clone,
/// and — once something reads it — this handle's own decoded tree.
///
/// Cloning is a reference-count bump on the bytes.
pub struct SharedValue {
    /// Compact JSON, shared with every clone.
    json: Bytes,
    /// This handle's decoded tree, filled by its first read; never shared.
    tree: OnceLock<Value>,
}

/// A scratch buffer this large or smaller is kept for the thread's next
/// encode; a larger one (a rare huge document) is dropped.
const SCRATCH_KEEP: usize = 64 << 10;

thread_local! {
    static SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
    static DECODES: Cell<u64> = const { Cell::new(0) };
}

/// Encode into a right-sized shared buffer: one allocation per version.
fn encode(value: &Value) -> Bytes {
    SCRATCH.with(|scratch| {
        let mut buf = scratch.take();
        buf.clear();
        value.write_json(&mut buf);
        let json = Bytes::copy_from_slice(&buf);
        if buf.capacity() <= SCRATCH_KEEP {
            scratch.set(buf);
        }
        json
    })
}

/// Every encoding here was produced by [`encode`] — directly, or read back
/// from a CRC-checked log record — so it parses; bytes that do not (a
/// caller wrapping foreign input with [`SharedValue::from_json`]) read as
/// `null`.
fn decode(json: &[u8]) -> Value {
    DECODES.with(|n| n.set(n.get() + 1));
    parse_bytes(json).unwrap_or(Value::Null)
}

impl SharedValue {
    /// Encode a tree into a new version. The tree is not kept: its author
    /// frees it here, while it is still hot in cache, instead of leaving a
    /// cold tree for the write path to free (DESIGN.md decision 8).
    pub fn new(value: Value) -> SharedValue {
        SharedValue::from_json(encode(&value))
    }

    /// Wrap an encoding (a stored record's value, say) without copying or
    /// parsing it.
    pub fn from_json(json: Bytes) -> SharedValue {
        SharedValue { json, tree: OnceLock::new() }
    }

    /// The compact JSON encoding.
    pub fn json(&self) -> &Bytes {
        &self.json
    }

    /// The encoding, dropping this handle's tree.
    pub fn into_json(self) -> Bytes {
        self.json
    }

    /// Borrow the decoded value (equivalent to deref): decodes into this
    /// handle on first use.
    pub fn as_value(&self) -> &Value {
        self.tree.get_or_init(|| decode(&self.json))
    }

    /// Take the value out, decoding it unless this handle already has.
    pub fn into_value(self) -> Value {
        let SharedValue { json, tree } = self;
        tree.into_inner().unwrap_or_else(|| decode(&json))
    }

    /// Edit this handle's version: the tree (decoded if need be) is
    /// re-encoded into new bytes when the guard drops. Other handles keep
    /// the version they share.
    pub fn make_mut(&mut self) -> ValueMut<'_> {
        let value = self.tree.take().unwrap_or_else(|| decode(&self.json));
        ValueMut { shared: self, value }
    }

    /// Whether this handle holds a decoded tree (tests use it to prove a
    /// path reads no body).
    pub fn is_decoded(&self) -> bool {
        self.tree.get().is_some()
    }

    /// Decodes run on the calling thread so far (tests: a path that must
    /// not decode leaves it unchanged).
    pub fn decodes_on_this_thread() -> u64 {
        DECODES.with(Cell::get)
    }

    /// Whether two handles share one encoded allocation (tests use it to
    /// prove the zero-copy property: a cache hit aliases the stored
    /// version, not a copy of it).
    pub fn ptr_eq(a: &SharedValue, b: &SharedValue) -> bool {
        a.json.as_ptr() == b.json.as_ptr() && a.json.len() == b.json.len()
    }

    /// Whether no other handle shares this one's bytes (diagnostics/tests).
    pub fn is_unique(this: &SharedValue) -> bool {
        this.json.is_unique()
    }
}

/// A [`SharedValue::make_mut`] edit in progress.
pub struct ValueMut<'a> {
    shared: &'a mut SharedValue,
    value: Value,
}

impl Deref for ValueMut<'_> {
    type Target = Value;

    fn deref(&self) -> &Value {
        &self.value
    }
}

impl DerefMut for ValueMut<'_> {
    fn deref_mut(&mut self) -> &mut Value {
        &mut self.value
    }
}

impl Drop for ValueMut<'_> {
    /// The edit is done: the handle gets the new encoding, and keeps the
    /// edited tree for its reader.
    fn drop(&mut self) {
        let value = std::mem::replace(&mut self.value, Value::Null);
        self.shared.json = encode(&value);
        self.shared.tree = OnceLock::from(value);
    }
}

impl Clone for SharedValue {
    /// Shares the encoding; the clone starts undecoded.
    fn clone(&self) -> SharedValue {
        SharedValue::from_json(self.json.clone())
    }
}

impl Deref for SharedValue {
    type Target = Value;

    fn deref(&self) -> &Value {
        self.as_value()
    }
}

impl AsRef<Value> for SharedValue {
    fn as_ref(&self) -> &Value {
        self.as_value()
    }
}

impl From<Value> for SharedValue {
    fn from(v: Value) -> SharedValue {
        SharedValue::new(v)
    }
}

impl From<SharedValue> for Value {
    fn from(v: SharedValue) -> Value {
        v.into_value()
    }
}

impl PartialEq for SharedValue {
    /// Equal encodings are equal values; different ones may still be (`1`
    /// and `1.0`), so they are compared as trees.
    fn eq(&self, other: &SharedValue) -> bool {
        self.json == other.json || self.as_value() == other.as_value()
    }
}

impl PartialEq<Value> for SharedValue {
    fn eq(&self, other: &Value) -> bool {
        self.as_value() == other
    }
}

impl PartialEq<SharedValue> for Value {
    fn eq(&self, other: &SharedValue) -> bool {
        self == other.as_value()
    }
}

/// The compact JSON text — what `Value`'s own `Debug`/`Display` print —
/// straight from the bytes.
impl fmt::Display for SharedValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match std::str::from_utf8(&self.json) {
            Ok(text) => f.write_str(text),
            Err(_) => fmt::Display::fmt(self.as_value(), f),
        }
    }
}

impl fmt::Debug for SharedValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_version_is_its_bytes_and_clones_share_them() {
        let a = SharedValue::new(Value::object([("k", Value::int(1))]));
        assert_eq!(&a.json()[..], br#"{"k":1}"#);
        assert!(!a.is_decoded(), "the writer's tree is not kept");
        let b = a.clone();
        assert!(SharedValue::ptr_eq(&a, &b));
        assert!(!SharedValue::is_unique(&a));
        assert_eq!(a, b);
        drop(b);
        assert!(SharedValue::is_unique(&a));
    }

    #[test]
    fn reading_a_clone_leaves_the_original_undecoded() {
        let stored = SharedValue::from_json(Bytes::from_static(br#"{"x":7}"#));
        let read = stored.clone();
        let before = SharedValue::decodes_on_this_thread();
        assert_eq!(read.get_field("x").and_then(Value::as_i64), Some(7));
        assert_eq!(read.get_field("x").and_then(Value::as_i64), Some(7));
        assert_eq!(SharedValue::decodes_on_this_thread(), before + 1, "decoded once per handle");
        assert!(read.is_decoded());
        assert!(!stored.is_decoded(), "a reader's decode never reaches the shared copy");
        assert!(SharedValue::ptr_eq(&stored, &read));
    }

    #[test]
    fn from_json_neither_copies_nor_parses() {
        let json = Bytes::from_static(br#"[1,2]"#);
        let before = SharedValue::decodes_on_this_thread();
        let s = SharedValue::from_json(json.clone());
        assert_eq!(s.json().as_ptr(), json.as_ptr());
        assert_eq!(s.to_string(), "[1,2]", "printing needs no tree");
        assert_eq!(SharedValue::decodes_on_this_thread(), before);
        assert!(!s.is_decoded());
    }

    #[test]
    fn compares_against_plain_values() {
        let v = Value::int(42);
        let s = SharedValue::new(v.clone());
        assert_eq!(s, v);
        assert_eq!(v, s);
        assert_eq!(s, SharedValue::new(Value::int(42)));
        assert_ne!(s, Value::int(43));
    }

    #[test]
    fn equal_values_with_different_encodings_compare_equal() {
        let int = SharedValue::new(Value::object([("n", Value::int(1))]));
        let float = SharedValue::new(Value::object([("n", Value::float(1.0))]));
        assert_ne!(int.json(), float.json(), "1 and 1.0 encode differently");
        assert_eq!(int, float);
        assert_ne!(int, SharedValue::new(Value::object([("n", Value::float(1.5))])));
    }

    #[test]
    fn into_value_and_into_json_round_trip() {
        let s = SharedValue::new(Value::from("solo"));
        let json = s.clone().into_json();
        assert_eq!(&json[..], br#""solo""#);
        assert_eq!(s.into_value(), Value::from("solo"));
        assert_eq!(SharedValue::from_json(json).into_value(), Value::from("solo"));
    }

    #[test]
    fn make_mut_re_encodes_the_edited_version() {
        let mut a = SharedValue::from_json(Bytes::from_static(br#"{"n":1}"#));
        let b = a.clone();
        a.make_mut().insert_field("n", Value::int(2));
        assert_eq!(&a.json()[..], br#"{"n":2}"#, "re-encoded from the edited tree");
        assert!(a.is_decoded(), "the editor keeps its tree");
        assert_eq!(a.get_field("n"), Some(&Value::int(2)));
        assert_eq!(b.get_field("n"), Some(&Value::int(1)), "shared copy untouched");
        assert!(!SharedValue::ptr_eq(&a, &b));
    }

    #[test]
    fn foreign_bytes_that_do_not_parse_read_as_null() {
        let s = SharedValue::from_json(Bytes::from_static(b"{oops"));
        assert!(s.is_null());
    }

    #[test]
    fn deref_gives_value_api() {
        let s = SharedValue::new(Value::object([("x", Value::int(7))]));
        assert_eq!(s.get_field("x").and_then(Value::as_i64), Some(7));
        assert_eq!(s.to_json_string(), r#"{"x":7}"#);
        assert_eq!(format!("{s:?}"), format!("{:?}", s.as_value()));
    }
}
