//! Table-driven N1QL suite: each case is (query, expected JSON rows).
//!
//! Runs against a fixed fixture so results are golden. The fixture is the
//! same shape the paper's examples use: profiles with nested objects and
//! arrays, plus orders referenced by key.

// Tests unwrap freely; the crate's unwrap_used deny targets lib code (the
// allow-unwrap-in-tests config covers #[test] fns but not file helpers).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use cbs_index::IndexDef;
use cbs_json::Value;
use cbs_n1ql::{query, Datastore, MemoryDatastore, QueryOptions};

fn fixture() -> MemoryDatastore {
    let ds = MemoryDatastore::new();
    ds.create_keyspace("p");
    ds.create_keyspace("o");
    let people = [
        (
            "p1",
            r#"{"name":"Ada","age":36,"city":"London","langs":["asm","math"],
                   "address":{"zip":"E1"},"vip":true,"order_ids":["o1"]}"#,
        ),
        (
            "p2",
            r#"{"name":"Bob","age":25,"city":"Paris","langs":["go"],
                   "address":{"zip":"75"},"vip":false,"order_ids":["o2","o3"]}"#,
        ),
        (
            "p3",
            r#"{"name":"Cyd","age":25,"city":"London","langs":[],
                   "address":{"zip":"N1"},"vip":false,"order_ids":[]}"#,
        ),
        (
            "p4",
            r#"{"name":"Dee","age":52,"city":"Berlin","langs":["rust","go"],
                   "vip":true}"#,
        ),
        ("p5", r#"{"name":"Eli","city":"Paris","langs":["rust"],"vip":null}"#),
    ];
    ds.load("p", people.iter().map(|(k, v)| (k.to_string(), cbs_json::parse(v).unwrap())));
    let orders = [
        ("o1", r#"{"total":10,"status":"shipped"}"#),
        ("o2", r#"{"total":20,"status":"open"}"#),
        ("o3", r#"{"total":30,"status":"shipped"}"#),
    ];
    ds.load("o", orders.iter().map(|(k, v)| (k.to_string(), cbs_json::parse(v).unwrap())));
    ds.create_index(IndexDef::primary("#p", "p")).unwrap();
    ds.create_index(IndexDef::primary("#o", "o")).unwrap();
    ds.create_index(IndexDef::simple("age", "p", "age")).unwrap();
    ds
}

/// Each case: (name, N1QL, expected rows as a JSON array literal).
const CASES: &[(&str, &str, &str)] = &[
    (
        "projection_and_order",
        "SELECT name FROM p WHERE city = 'London' ORDER BY name",
        r#"[{"name":"Ada"},{"name":"Cyd"}]"#,
    ),
    (
        "order_desc_with_limit",
        "SELECT name, age FROM p WHERE age IS VALUED ORDER BY age DESC, name LIMIT 2",
        r#"[{"name":"Dee","age":52},{"name":"Ada","age":36}]"#,
    ),
    ("missing_vs_null", "SELECT name FROM p WHERE age IS MISSING", r#"[{"name":"Eli"}]"#),
    ("is_null_only", "SELECT name FROM p WHERE vip IS NULL", r#"[{"name":"Eli"}]"#),
    (
        "nested_field_access",
        "SELECT address.zip AS zip FROM p WHERE name = 'Bob'",
        r#"[{"zip":"75"}]"#,
    ),
    (
        "array_subscript",
        "SELECT langs[0] AS first FROM p WHERE name = 'Dee'",
        r#"[{"first":"rust"}]"#,
    ),
    (
        "between",
        "SELECT name FROM p WHERE age BETWEEN 25 AND 36 ORDER BY name",
        r#"[{"name":"Ada"},{"name":"Bob"},{"name":"Cyd"}]"#,
    ),
    (
        "in_list",
        "SELECT name FROM p WHERE city IN ['Paris','Berlin'] ORDER BY name",
        r#"[{"name":"Bob"},{"name":"Dee"},{"name":"Eli"}]"#,
    ),
    (
        "like_patterns",
        "SELECT name FROM p WHERE name LIKE '_e%' ORDER BY name",
        r#"[{"name":"Dee"}]"#,
    ),
    (
        "boolean_fields_and_not",
        "SELECT name FROM p WHERE vip = true ORDER BY name",
        r#"[{"name":"Ada"},{"name":"Dee"}]"#,
    ),
    (
        "any_satisfies",
        "SELECT name FROM p WHERE ANY l IN langs SATISFIES l = 'go' END ORDER BY name",
        r#"[{"name":"Bob"},{"name":"Dee"}]"#,
    ),
    (
        "every_satisfies_vacuous_truth",
        "SELECT name FROM p WHERE EVERY l IN langs SATISFIES l = 'rust' END ORDER BY name",
        r#"[{"name":"Cyd"},{"name":"Eli"}]"#,
    ),
    (
        "array_comprehension",
        "SELECT ARRAY UPPER(l) FOR l IN langs END AS up FROM p WHERE name = 'Dee'",
        r#"[{"up":["RUST","GO"]}]"#,
    ),
    (
        "group_count_order",
        "SELECT city, COUNT(*) AS n FROM p GROUP BY city ORDER BY city",
        r#"[{"city":"Berlin","n":1},{"city":"London","n":2},{"city":"Paris","n":2}]"#,
    ),
    (
        "group_avg_having",
        "SELECT city, AVG(age) AS a FROM p WHERE age IS VALUED GROUP BY city \
         HAVING COUNT(*) >= 2 ORDER BY city",
        r#"[{"city":"London","a":30.5}]"#,
    ),
    (
        "global_min_max_sum",
        "SELECT MIN(age) AS lo, MAX(age) AS hi, SUM(age) AS s FROM p",
        r#"[{"lo":25,"hi":52,"s":138}]"#,
    ),
    ("count_distinct_cities", "SELECT COUNT(DISTINCT city) AS c FROM p", r#"[{"c":3}]"#),
    (
        "array_agg_sorted_input",
        "SELECT ARRAY_AGG(name) AS names FROM p WHERE age = 25",
        r#"[{"names":["Bob","Cyd"]}]"#,
    ),
    (
        "unnest_with_filter",
        "SELECT name, l FROM p UNNEST p.langs AS l WHERE l = 'rust' ORDER BY name",
        r#"[{"name":"Dee","l":"rust"},{"name":"Eli","l":"rust"}]"#,
    ),
    (
        "distinct_unnest",
        "SELECT DISTINCT l FROM p UNNEST p.langs AS l ORDER BY l",
        r#"[{"l":"asm"},{"l":"go"},{"l":"math"},{"l":"rust"}]"#,
    ),
    (
        "left_outer_unnest_keeps_empty",
        "SELECT name FROM p LEFT UNNEST p.langs AS l WHERE l IS MISSING ORDER BY name",
        r#"[{"name":"Cyd"}]"#,
    ),
    (
        "join_on_keys_array",
        "SELECT p.name, o.total FROM p JOIN o ON KEYS p.order_ids ORDER BY o.total",
        r#"[{"name":"Ada","total":10},{"name":"Bob","total":20},{"name":"Bob","total":30}]"#,
    ),
    (
        "left_join_keeps_unmatched",
        "SELECT p.name, o.total FROM p LEFT JOIN o ON KEYS p.order_ids \
         WHERE o.total IS MISSING ORDER BY p.name",
        r#"[{"name":"Cyd"},{"name":"Dee"},{"name":"Eli"}]"#,
    ),
    (
        "nest_aggregates_orders",
        "SELECT p.name, ARRAY_LENGTH(os) AS n FROM p NEST o os ON KEYS p.order_ids \
         WHERE p.name = 'Bob'",
        r#"[{"name":"Bob","n":2}]"#,
    ),
    (
        "case_expression",
        "SELECT name, CASE WHEN age >= 50 THEN 'senior' WHEN age >= 30 THEN 'mid' \
         ELSE 'young' END AS band FROM p WHERE age IS VALUED ORDER BY name",
        r#"[{"name":"Ada","band":"mid"},{"name":"Bob","band":"young"},
            {"name":"Cyd","band":"young"},{"name":"Dee","band":"senior"}]"#,
    ),
    (
        "string_functions",
        "SELECT UPPER(name) AS u, LENGTH(city) AS l, SUBSTR(city, 0, 3) AS pre \
         FROM p WHERE name = 'Ada'",
        r#"[{"u":"ADA","l":6,"pre":"Lon"}]"#,
    ),
    (
        "concat_and_arithmetic",
        "SELECT name || '!' AS bang, age * 2 + 1 AS x FROM p WHERE name = 'Bob'",
        r#"[{"bang":"Bob!","x":51}]"#,
    ),
    (
        "meta_id_and_use_keys",
        "SELECT META(d).id AS id, d.name FROM p d USE KEYS ['p4','p1'] ORDER BY id",
        r#"[{"id":"p1","name":"Ada"},{"id":"p4","name":"Dee"}]"#,
    ),
    (
        "offset_pagination",
        "SELECT name FROM p ORDER BY name LIMIT 2 OFFSET 2",
        r#"[{"name":"Cyd"},{"name":"Dee"}]"#,
    ),
    (
        "expression_only",
        "SELECT GREATEST(3, 1 + 1, 2) AS g, ARRAY_CONTAINS([1,2], 2) AS has",
        r#"[{"g":3,"has":true}]"#,
    ),
    (
        "ifmissing_fallbacks",
        "SELECT name, IFMISSING(age, -1) AS age2 FROM p WHERE city = 'Paris' ORDER BY name",
        r#"[{"name":"Bob","age2":25},{"name":"Eli","age2":-1}]"#,
    ),
    (
        "type_function",
        "SELECT TYPE(age) AS t_age, TYPE(langs) AS t_langs, TYPE(vip) AS t_vip \
         FROM p WHERE name = 'Eli'",
        r#"[{"t_age":"missing","t_langs":"array","t_vip":"null"}]"#,
    ),
    (
        "order_by_projected_alias",
        "SELECT age * 10 AS score FROM p WHERE age IS VALUED ORDER BY score DESC LIMIT 1",
        r#"[{"score":520}]"#,
    ),
    (
        "mixed_type_collation_order",
        "SELECT vip FROM p WHERE name != 'Eli' ORDER BY vip, name",
        r#"[{"vip":false},{"vip":false},{"vip":true},{"vip":true}]"#,
    ),
    (
        "not_and_parens",
        "SELECT name FROM p WHERE NOT (city = 'Paris' OR city = 'Berlin') ORDER BY name",
        r#"[{"name":"Ada"},{"name":"Cyd"}]"#,
    ),
];

#[test]
fn sql_suite_golden_results() {
    let ds = fixture();
    let opts = QueryOptions::default();
    let mut failures = Vec::new();
    for (name, sql, expected) in CASES {
        let got = match query(&ds, sql, &opts) {
            Ok(r) => Value::Array(r.rows),
            Err(e) => {
                failures.push(format!("{name}: query failed: {e}\n  {sql}"));
                continue;
            }
        };
        let want = cbs_json::parse(expected).unwrap();
        if got != want {
            failures.push(format!("{name}:\n  {sql}\n  want {want}\n  got  {got}"));
        }
    }
    assert!(failures.is_empty(), "{} case(s) failed:\n{}", failures.len(), failures.join("\n"));
}

#[test]
fn sql_suite_index_paths_agree_with_primary() {
    // Re-run every age-referencing case on a datastore WITHOUT the
    // secondary index: results must be identical (the index is purely an
    // access-path optimization), and so must what UPDATE and DELETE leave.
    let with_index = fixture();
    let without_index = {
        let ds = fixture();
        ds.drop_index("p", "age").unwrap();
        ds
    };
    let opts = QueryOptions::default();
    for (name, sql, _) in CASES {
        let a = query(&with_index, sql, &opts).map(|r| r.rows);
        let b = query(&without_index, sql, &opts).map(|r| r.rows);
        match (a, b) {
            (Ok(x), Ok(y)) => assert_eq!(x, y, "{name} differs by access path"),
            (Err(_), Err(_)) => {}
            (x, y) => panic!("{name}: one path errored: {x:?} vs {y:?}"),
        }
    }

    // UPDATE and DELETE run the same pipeline as SELECT, so they find the
    // same documents on either access path.
    let delete = "DELETE FROM p WHERE age < 30";
    assert_eq!(explained(&with_index, delete), ["IndexScan(age)", "Fetch", "Filter", "SendDelete"]);
    assert_eq!(explained(&without_index, delete), ["PrimaryScan", "Fetch", "Filter", "SendDelete"]);
    assert_eq!(
        explained(&with_index, r#"DELETE FROM p USE KEYS ["p2"]"#),
        ["KeyScan", "Fetch", "SendDelete"]
    );
    let dml = [
        (r#"UPDATE p USE KEYS ["p1","p2"] SET senior = true WHERE age >= 30"#, 1),
        ("UPDATE p SET senior = true WHERE age >= 30", 2),
        (r#"DELETE FROM p USE KEYS ["p2","p5"] WHERE age < 30"#, 1),
        (delete, 1),
    ];
    for (sql, mutations) in dml {
        for ds in [&with_index, &without_index] {
            assert_eq!(query(ds, sql, &opts).unwrap().metrics.mutation_count, mutations, "{sql}");
        }
    }
    let all = "SELECT META().id, p FROM p ORDER BY META().id";
    let docs = query(&with_index, all, &opts).unwrap().rows;
    assert_eq!(docs, query(&without_index, all, &opts).unwrap().rows);
    let senior: Vec<(&str, bool)> = docs
        .iter()
        .map(|row| {
            let id = row.get_field("id").and_then(Value::as_str).unwrap();
            let doc = row.get_field("p").unwrap();
            (id, doc.get_field("senior") == Some(&Value::Bool(true)))
        })
        .collect();
    assert_eq!(senior, [("p1", true), ("p4", true), ("p5", false)]);
}

/// EXPLAIN's operator names, an index scan's with its index.
fn explained(ds: &MemoryDatastore, sql: &str) -> Vec<String> {
    let rows = query(ds, &format!("EXPLAIN {sql}"), &QueryOptions::default()).unwrap().rows;
    let ops = rows[0].get_field("plan").and_then(|p| p.get_field("operators"));
    let name = |op: &Value| {
        let name = op.get_field("operator").and_then(Value::as_str).unwrap_or("?");
        match op.get_field("index").and_then(Value::as_str) {
            Some(index) => format!("{name}({index})"),
            None => name.to_string(),
        }
    };
    ops.and_then(Value::as_array).unwrap().iter().map(name).collect()
}
