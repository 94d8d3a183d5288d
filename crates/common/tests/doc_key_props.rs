//! `DocKey` against the `String` it replaces: every length round-trips —
//! both sides of the inline boundary, multibyte UTF-8, the longest key a
//! record holds — and `Hash`, `Eq` and `Ord` agree with the borrowed `str`
//! that maps are probed with, under std's hasher and the key tables' own.

use std::collections::hash_map::{DefaultHasher, RandomState};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hash, Hasher};

use cbs_common::key::INLINE_LEN;
use cbs_common::{DocKey, Error, KeyHash, MAX_KEY_LEN};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// One to four UTF-8 bytes each.
const PALETTE: [char; 8] = ['a', 'Z', '0', ':', 'é', 'ß', '世', '😀'];

/// A string of exactly `len` bytes built from `PALETTE`, starting at
/// `seed`'s character; ASCII fills what a multibyte character cannot.
fn string_of(len: usize, seed: usize) -> String {
    let mut s = String::with_capacity(len);
    let mut i = seed;
    while s.len() < len {
        let c = PALETTE[i % PALETTE.len()];
        s.push(if s.len() + c.len_utf8() <= len { c } else { 'x' });
        i = i.wrapping_mul(31).wrapping_add(7);
    }
    s
}

/// Lengths around the inline boundary, short and medium keys, and the
/// record format's limit.
fn key_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        3 => (INLINE_LEN - 3)..(INLINE_LEN + 4),
        3 => 0usize..64,
        1 => 64usize..4_096,
        1 => (MAX_KEY_LEN - 2)..(MAX_KEY_LEN + 1),
    ]
}

fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Arbitrary UTF-8 of exactly 0..=64 bytes: code points of every encoded
/// width (1 to 4 bytes), so the inline boundary (22/23 bytes) is crossed
/// by keys that end in a multibyte character as often as by ASCII ones.
fn utf8_key() -> impl Strategy<Value = String> {
    let point = prop_oneof![0u32..0x80, 0x80u32..0x800, 0x800u32..0x1_0000, 0x1_0000u32..0x11_0000];
    (0usize..65, vec(point, 0..65)).prop_map(|(len, points)| {
        let mut s = String::with_capacity(len);
        for c in points.into_iter().filter_map(char::from_u32) {
            if s.len() + c.len_utf8() <= len {
                s.push(c);
            }
        }
        while s.len() < len {
            s.push('x');
        }
        s
    })
}

/// The hashing contract of a table keyed by `DocKey` and probed by `&str`,
/// under one `BuildHasher`.
fn probes_agree<S: BuildHasher + Default>(key: &str, other: &str) -> Result<(), TestCaseError> {
    let build = S::default();
    let doc_key = DocKey::from(key);
    prop_assert_eq!(build.hash_one(&doc_key), build.hash_one(key));
    prop_assert_eq!(doc_key.as_str(), key);
    let mut map: HashMap<DocKey, u8, S> = HashMap::default();
    map.insert(doc_key, 1);
    map.insert(DocKey::from(other), 2);
    prop_assert_eq!(map.get(key), Some(if key == other { &2 } else { &1 }));
    prop_assert_eq!(map.get(other), Some(&2));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn a_key_and_its_str_hash_and_probe_alike(key in utf8_key(), other in utf8_key()) {
        prop_assert!(key.len() <= 64);
        probes_agree::<KeyHash>(&key, &other)?;
        probes_agree::<RandomState>(&key, &other)?;
        prop_assert_eq!(DocKey::from(key.as_str()).is_inline(), key.len() <= INLINE_LEN);
    }

    #[test]
    fn every_length_round_trips(len in key_len(), seed in 0usize..64) {
        let s = string_of(len, seed);
        prop_assert_eq!(s.len(), len);
        let key = DocKey::new(&s).unwrap();
        prop_assert_eq!(key.as_str(), s.as_str());
        prop_assert_eq!(key.as_bytes(), s.as_bytes());
        prop_assert_eq!(key.is_inline(), len <= INLINE_LEN);
        prop_assert_eq!(&DocKey::from(s.clone()), &key);
        prop_assert_eq!(String::from(key.clone()), s.clone());
        prop_assert_eq!(key.to_string(), s.clone());
        prop_assert_eq!(format!("{key:?}"), format!("{s:?}"));
    }

    #[test]
    fn hash_eq_and_ord_agree_with_the_borrowed_str(
        a_len in key_len(), a_seed in 0usize..64, b_len in key_len(), b_seed in 0usize..64,
    ) {
        let (a, b) = (string_of(a_len, a_seed), string_of(b_len, b_seed));
        let (ka, kb) = (DocKey::from(a.as_str()), DocKey::from(b.as_str()));
        prop_assert_eq!(hash_of(&ka), hash_of(a.as_str()));
        prop_assert_eq!(ka == kb, a == b);
        prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
        prop_assert_eq!(ka.as_bytes().cmp(kb.as_bytes()), a.as_bytes().cmp(b.as_bytes()));
        prop_assert!(ka == a.as_str() && ka == a);

        let hashed = HashMap::from([(ka.clone(), 1), (kb.clone(), 2)]);
        prop_assert_eq!(hashed.get(a.as_str()), Some(if a == b { &2 } else { &1 }));
        prop_assert_eq!(hashed.get(b.as_str()), Some(&2));
        let ordered = BTreeMap::from([(ka, 1), (kb, 2)]);
        let by_str: Vec<&str> = ordered.keys().map(DocKey::as_str).collect();
        let mut sorted = vec![a.as_str(), b.as_str()];
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(by_str, sorted);
        prop_assert_eq!(ordered.get(b.as_str()), Some(&2));
    }
}

#[test]
fn a_key_no_record_can_hold_is_refused() {
    let long = "k".repeat(70_000);
    assert_eq!(DocKey::new(&long), Err(Error::KeyTooLong(70_000)));
    assert_eq!(DocKey::new(&long[..MAX_KEY_LEN]).map(|k| k.len()), Ok(MAX_KEY_LEN));
    assert_eq!(DocKey::new(&long[..MAX_KEY_LEN + 1]), Err(Error::KeyTooLong(MAX_KEY_LEN + 1)));
}
