//! Document keys as the KV data path holds them.
//!
//! Under value-only eviction "the key and the metadata for every key in the
//! bucket will be kept in memory" (§4.3.3) — once in the cache's table and
//! once in the storage index, per copy — so the key's representation is part
//! of the memory floor of a bucket larger than its quota. A [`DocKey`] is
//! the size of a `String` header and stores keys of up to [`INLINE_LEN`]
//! bytes in it; only longer keys take a heap allocation, one `Box<str>`.
//!
//! `Hash`, `Eq` and `Ord` are those of the key's `str`, and a `DocKey`
//! borrows as `str`: a [`KeyMap`](crate::KeyMap) or `BTreeMap<DocKey, _>`
//! is probed with a plain `&str`. Borrowing does no UTF-8 work — every
//! probe compares its candidates through [`DocKey::as_str`], so the inline
//! bytes, copied from a `str`, are not validated again.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

use crate::{Error, Result};

/// The longest key a document can have: a log record stores the key's
/// length as a `u16`.
pub const MAX_KEY_LEN: usize = u16::MAX as usize;

/// The largest value a document can have: 20 MiB, Couchbase's own limit,
/// refused by every engine entry point that admits a body. A log record
/// holds more (its payload bound is 64 MiB), so a document with the
/// longest key and value always fits one.
pub const MAX_VALUE_LEN: usize = 20 << 20;

/// Keys of up to this many bytes are stored inline, without an allocation.
pub const INLINE_LEN: usize = 22;

/// Refuse a key no record can hold. Every engine entry point that writes
/// calls this before it assigns a seqno.
pub fn check_key_len(key: &str) -> Result<()> {
    if key.len() > MAX_KEY_LEN {
        return Err(Error::KeyTooLong(key.len()));
    }
    Ok(())
}

/// Refuse a value no document may have ([`MAX_VALUE_LEN`]). Every engine
/// entry point that admits a body calls this before it assigns a seqno.
pub fn check_value_len(len: usize) -> Result<()> {
    if len > MAX_VALUE_LEN {
        return Err(Error::ValueTooLarge(len));
    }
    Ok(())
}

/// A document ID: inline up to [`INLINE_LEN`] bytes, one `Box<str>` beyond.
///
/// The `From` conversions take a key of any length as it is — they are for
/// keys an entry point has already checked. [`DocKey::new`] is the checked
/// constructor.
#[derive(Clone)]
pub struct DocKey(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; INLINE_LEN] },
    Heap(Box<str>),
}

impl DocKey {
    /// A key no longer than [`MAX_KEY_LEN`]; a longer one is refused with
    /// [`Error::KeyTooLong`].
    pub fn new(key: &str) -> Result<DocKey> {
        check_key_len(key)?;
        Ok(DocKey::from(key))
    }

    /// The key.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => inline_str(&bytes[..*len as usize]),
            Repr::Heap(key) => key,
        }
    }

    /// The key's bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Heap(key) => key.as_bytes(),
        }
    }

    /// True when the key is stored without a heap allocation.
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }
}

/// An inline key's bytes as the `str` they were copied from.
#[allow(unsafe_code)]
#[inline]
fn inline_str(bytes: &[u8]) -> &str {
    debug_assert!(std::str::from_utf8(bytes).is_ok());
    // SAFETY: `Repr::Inline` is built in one place, `From<&str>`, which
    // copies all of a `str`'s bytes and records their length; nothing
    // writes to them afterwards. A whole `str` is valid UTF-8.
    unsafe { std::str::from_utf8_unchecked(bytes) }
}

impl From<&str> for DocKey {
    fn from(key: &str) -> DocKey {
        if key.len() > INLINE_LEN {
            return DocKey(Repr::Heap(key.into()));
        }
        let mut bytes = [0; INLINE_LEN];
        bytes[..key.len()].copy_from_slice(key.as_bytes());
        DocKey(Repr::Inline { len: key.len() as u8, bytes })
    }
}

impl From<String> for DocKey {
    /// A long key keeps the `String`'s buffer.
    fn from(key: String) -> DocKey {
        if key.len() > INLINE_LEN {
            return DocKey(Repr::Heap(key.into_boxed_str()));
        }
        DocKey::from(key.as_str())
    }
}

impl From<DocKey> for String {
    fn from(key: DocKey) -> String {
        match key.0 {
            Repr::Heap(key) => key.into_string(),
            Repr::Inline { .. } => key.as_str().to_string(),
        }
    }
}

impl Deref for DocKey {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for DocKey {
    #[inline]
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl Hash for DocKey {
    /// The hash of the key's `str`, as `Borrow<str>` requires.
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl PartialEq for DocKey {
    #[inline]
    fn eq(&self, other: &DocKey) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for DocKey {}

impl PartialOrd for DocKey {
    fn partial_cmp(&self, other: &DocKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DocKey {
    /// Byte order, which is `str`'s order.
    fn cmp(&self, other: &DocKey) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl PartialEq<&str> for DocKey {
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<String> for DocKey {
    fn eq(&self, other: &String) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl fmt::Debug for DocKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for DocKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_key_is_a_string_header_wide_and_short_keys_are_inline() {
        assert_eq!(std::mem::size_of::<DocKey>(), std::mem::size_of::<String>());
        assert_eq!(std::mem::size_of::<Option<DocKey>>(), std::mem::size_of::<String>());
        assert!(DocKey::from("k".repeat(INLINE_LEN).as_str()).is_inline());
        assert!(!DocKey::from("k".repeat(INLINE_LEN + 1)).is_inline());
    }

    #[test]
    fn maps_are_probed_by_str() {
        let mut map = std::collections::HashMap::new();
        map.insert(DocKey::from("user::1"), 1);
        map.insert(DocKey::from("a-key-longer-than-the-inline-capacity"), 2);
        assert_eq!(map.get("user::1"), Some(&1));
        assert_eq!(map.get("a-key-longer-than-the-inline-capacity"), Some(&2));
        assert_eq!(map.get("user::2"), None);
    }

    #[test]
    fn the_checked_constructor_refuses_what_no_record_holds() {
        assert_eq!(DocKey::new(&"k".repeat(70_000)), Err(Error::KeyTooLong(70_000)));
        assert_eq!(DocKey::new(&"k".repeat(MAX_KEY_LEN)).map(|k| k.len()), Ok(MAX_KEY_LEN));
    }
}
