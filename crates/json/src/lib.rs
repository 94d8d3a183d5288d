//! JSON document model for the Couchbase Server reproduction.
//!
//! Couchbase Server "stores data in JSON documents, where each document is a
//! JSON object consisting of a number of fields" (paper §3). This crate is
//! the workspace's single JSON implementation, used end-to-end by the data
//! service, the view engine, the GSI projector, and the N1QL
//! evaluator:
//!
//! - [`Value`] — the document value model (with object key order preserved,
//!   as JSON documents round-trip through the storage engine byte-exactly in
//!   spirit);
//! - [`parse`] — a recursive-descent parser with precise error positions;
//! - [`Value::to_json_string`] — the serializer;
//! - [`path`] — dotted-path / array-subscript navigation (`a.b[2].c`), the
//!   primitive under view map functions and index key extraction;
//! - [`collate`] — the N1QL/view collation total order
//!   (`missing < null < false < true < number < string < array < object`),
//!   which is the sort order of every index B-tree in the system.

pub mod collate;
pub mod parse;
pub mod path;
pub mod print;
pub mod shared;
pub mod value;

pub use collate::{cmp_missing, cmp_values, CollatedValue, TypeRank};
pub use parse::{parse, ParseError};
pub use path::{parse_path, JsonPath, PathStep};
pub use shared::{SharedValue, ValueMut};
pub use value::{Number, Value};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Strings built from fragments, so that every byte the serializer
    /// escapes (quote, backslash, every control character) lands next to
    /// clean runs, to other escapes and to multi-byte UTF-8.
    fn arb_escapy_string() -> impl Strategy<Value = String> {
        let fragment = prop_oneof![
            Just("\"".to_string()),
            Just("\\".to_string()),
            (0u8..0x20).prop_map(|c| char::from(c).to_string()),
            Just("\u{7f}".to_string()),
            Just("\u{00e9}".to_string()),
            Just("\u{4e16}".to_string()),
            Just("\u{1f600}".to_string()),
            "[a-z0-9 ]{0,12}".prop_map(String::from),
        ];
        prop::collection::vec(fragment, 0..12).prop_map(|parts| parts.concat())
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::int),
            // Finite floats only: JSON has no NaN/Inf.
            (-1e15f64..1e15f64).prop_map(Value::float),
            "[a-zA-Z0-9 _\\-\\.\\\\\"/\u{00e9}\u{4e16}]*".prop_map(Value::from),
            arb_escapy_string().prop_map(Value::from),
        ];
        leaf.prop_recursive(4, 64, 8, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..8).prop_map(Value::Array),
                prop::collection::vec(("[a-z]{1,6}", inner), 0..8).prop_map(|pairs| {
                    let mut obj = Value::empty_object();
                    for (k, v) in pairs {
                        obj.insert_field(&k, v);
                    }
                    obj
                }),
            ]
        })
    }

    proptest! {
        /// Serialize → parse must be the identity on every representable value.
        #[test]
        fn roundtrip(v in arb_value()) {
            let s = v.to_json_string();
            let back = parse(&s).expect("serializer output must re-parse");
            prop_assert_eq!(&v, &back);
            // The byte entry point appends exactly the same text.
            let mut bytes = b"prefix".to_vec();
            v.write_json(&mut bytes);
            prop_assert_eq!(&bytes[6..], s.as_bytes());
        }

        /// Collation is a total order: antisymmetric and transitive on triples.
        #[test]
        fn collation_total_order(a in arb_value(), b in arb_value(), c in arb_value()) {
            use std::cmp::Ordering;
            prop_assert_eq!(cmp_values(&a, &a), Ordering::Equal);
            prop_assert_eq!(cmp_values(&a, &b), cmp_values(&b, &a).reverse());
            if cmp_values(&a, &b) == Ordering::Less && cmp_values(&b, &c) == Ordering::Less {
                prop_assert_eq!(cmp_values(&a, &c), Ordering::Less);
            }
        }

        /// Pretty output parses to the same value as compact output.
        #[test]
        fn pretty_roundtrip(v in arb_value()) {
            let s = print::to_json_pretty(&v, 2);
            let back = parse(&s).expect("pretty output must re-parse");
            prop_assert_eq!(v, back);
        }
    }
}
