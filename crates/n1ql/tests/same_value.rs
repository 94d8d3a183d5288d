//! GROUP BY, DISTINCT and an aggregate's DISTINCT agree on when two values
//! are the same: N1QL collation (`cbs_json::cmp_missing`). `1` and `1.0`
//! are one value, as are two objects with the same fields in another
//! order; MISSING and NULL are two. Groups and rows keep first-seen order.

// Tests unwrap freely; the crate's unwrap_used deny targets lib code (the
// allow-unwrap-in-tests config covers #[test] fns but not file helpers).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use cbs_index::IndexDef;
use cbs_json::Value;
use cbs_n1ql::{query, Datastore, MemoryDatastore, QueryOptions};

/// Keyspace `p` holding one document `{"v": <value>}` per value, in id
/// order, and one `{}` per `None` (`v` MISSING).
fn keyspace(values: &[Option<&str>]) -> MemoryDatastore {
    let ds = MemoryDatastore::new();
    ds.create_keyspace("p");
    let doc = |v: &Option<&str>| match v {
        Some(v) => cbs_json::parse(&format!(r#"{{"v":{v}}}"#)).unwrap(),
        None => cbs_json::parse("{}").unwrap(),
    };
    ds.load("p", values.iter().enumerate().map(|(i, v)| (format!("k{i}"), doc(v))));
    ds.create_index(IndexDef::primary("#primary", "p")).unwrap();
    ds
}

fn rows(ds: &MemoryDatastore, statement: &str) -> String {
    let rows = query(ds, statement, &QueryOptions::default()).unwrap().rows;
    Value::Array(rows).to_json_string()
}

#[test]
fn equal_numbers_and_reordered_objects_are_one_value() {
    let ds =
        keyspace(&[Some("1"), Some(r#"{"y":2,"x":1}"#), Some("1.0"), Some(r#"{"x":1,"y":2}"#)]);
    assert_eq!(rows(&ds, "SELECT DISTINCT v FROM p"), r#"[{"v":1},{"v":{"y":2,"x":1}}]"#);
    assert_eq!(rows(&ds, "SELECT COUNT(DISTINCT v) AS n FROM p"), r#"[{"n":2}]"#);
    assert_eq!(
        rows(&ds, "SELECT v, COUNT(*) AS n FROM p GROUP BY v"),
        r#"[{"v":1,"n":2},{"v":{"y":2,"x":1},"n":2}]"#
    );
}

#[test]
fn missing_and_null_stay_apart() {
    let ds = keyspace(&[Some("null"), None, Some("null"), None, Some("2")]);
    assert_eq!(rows(&ds, "SELECT DISTINCT v FROM p"), r#"[{"v":null},{},{"v":2}]"#);
    assert_eq!(
        rows(&ds, "SELECT v, COUNT(*) AS n FROM p GROUP BY v"),
        r#"[{"v":null,"n":2},{"n":2},{"v":2,"n":1}]"#
    );
}
