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

#![deny(unsafe_code)]

pub mod collate;
pub mod parse;
pub mod path;
pub mod print;
pub mod shared;
pub mod value;

pub use collate::{cmp_missing, cmp_str, cmp_values, hash_missing};
pub use parse::{parse, ParseError, MAX_DEPTH};
pub use path::{parse_path, JsonPath, PathStep};
pub use shared::{SharedValue, ValueMut};
pub use value::{Number, Value};

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::parse::parse_bytes;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

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

    /// JSON-shaped noise: the tokens the parser branches on, broken
    /// escapes, control and multi-byte characters, in any order.
    fn arb_json_noise() -> impl Strategy<Value = String> {
        let token = prop_oneof![
            Just("{"),
            Just("}"),
            Just("["),
            Just("]"),
            Just("\""),
            Just("\\"),
            Just("\\u00"),
            Just("\\ud800"),
            Just(":"),
            Just(","),
            Just("-"),
            Just("."),
            Just("e+"),
            Just("0"),
            Just("17"),
            Just("tru"),
            Just("null"),
            Just(" \n"),
            Just("\u{1}"),
            Just("\u{e9}"),
            Just("\u{1f600}"),
        ];
        prop::collection::vec(token, 0..48).prop_map(|tokens| tokens.concat())
    }

    /// What a hostile parse may return: an error, or a value that
    /// serialises to text that parses back to it.
    fn check_outcome(parsed: Result<Value, ParseError>) -> Result<(), TestCaseError> {
        if let Ok(v) = parsed {
            prop_assert_eq!(parse(&v.to_json_string()), Ok(v));
        }
        Ok(())
    }

    proptest! {
        /// Hostile input never panics the parser: noise, and serializer
        /// output cut short or with bits flipped (as raw bytes, so that a
        /// flip may break UTF-8 too).
        #[test]
        fn hostile_input_never_panics_the_parser(
            noise in arb_json_noise(),
            v in arb_value(),
            cut in 0.0f64..1.0,
            flips in prop::collection::vec((0.0f64..1.0, 0u8..8), 0..4),
        ) {
            check_outcome(parse(&noise))?;
            let mut bytes = v.to_json_string().into_bytes();
            check_outcome(parse_bytes(&bytes[..(bytes.len() as f64 * cut) as usize]))?;
            for (at, bit) in flips {
                let at = (bytes.len() as f64 * at) as usize;
                if let Some(b) = bytes.get_mut(at) {
                    *b ^= 1 << bit;
                }
            }
            check_outcome(parse_bytes(&bytes))?;
        }

        /// Nesting past `MAX_DEPTH` is an error, however deep — never a
        /// stack overflow — and nesting up to it parses.
        #[test]
        fn nesting_past_the_depth_limit_is_an_error(
            shallow in 0usize..MAX_DEPTH + 1,
            deep in MAX_DEPTH + 1..50_000,
            kinds in prop::collection::vec(any::<bool>(), 1..4),
        ) {
            let nested = |depth: usize| {
                let kind = |i: usize| kinds[i % kinds.len()];
                let mut text: String =
                    (0..depth).map(|i| if kind(i) { "{\"a\":" } else { "[" }).collect();
                text.push('1');
                text.extend((0..depth).rev().map(|i| if kind(i) { '}' } else { ']' }));
                text
            };
            prop_assert!(parse(&nested(shallow)).is_ok());
            prop_assert!(parse(&nested(deep)).is_err());
        }

        /// A shared value wrapped around foreign bytes decodes without
        /// panicking: to what the bytes say, or to `null`.
        #[test]
        fn foreign_bytes_decode_without_panicking(
            bytes in prop::collection::vec(any::<u8>(), 0..256),
            noise in arb_json_noise(),
        ) {
            for json in [bytes, noise.into_bytes()] {
                let shared = SharedValue::from_json(bytes::Bytes::from(json.clone()));
                prop_assert_eq!(shared.as_value(), &parse_bytes(&json).unwrap_or(Value::Null));
            }
        }
    }
}
