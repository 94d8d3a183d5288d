//! End-to-end N1QL tests: parse → plan → execute against a MemoryDatastore.

// Tests unwrap freely; the crate's unwrap_used deny targets lib code (the
// allow-unwrap-in-tests config covers #[test] fns but not file helpers).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use cbs_index::{IndexDef, KeyExpr};
use cbs_json::{JsonPath, PathStep, Value};
use cbs_n1ql::{query, Datastore, MemoryDatastore, QueryOptions};

fn ds() -> MemoryDatastore {
    let ds = MemoryDatastore::new();
    ds.create_keyspace("profiles");
    ds.create_keyspace("orders");
    let profiles = [
        (
            "u1",
            r#"{"name":"Alice","age":30,"city":"SF","tags":["admin","beta"],"order_ids":["o1","o2"]}"#,
        ),
        ("u2", r#"{"name":"Bob","age":25,"city":"NY","tags":["beta"],"order_ids":["o3"]}"#),
        ("u3", r#"{"name":"Carol","age":35,"city":"SF","tags":[],"order_ids":[]}"#),
        ("u4", r#"{"name":"Dan","age":19,"city":"LA","tags":["new"],"order_ids":["o4"]}"#),
        ("u5", r#"{"name":"Eve","age":42,"city":"SF"}"#),
    ];
    ds.load("profiles", profiles.iter().map(|(k, v)| (k.to_string(), cbs_json::parse(v).unwrap())));
    let orders = [
        ("o1", r#"{"total":100,"item":"keyboard"}"#),
        ("o2", r#"{"total":250,"item":"monitor"}"#),
        ("o3", r#"{"total":50,"item":"mouse"}"#),
        ("o4", r#"{"total":75,"item":"hub"}"#),
    ];
    ds.load("orders", orders.iter().map(|(k, v)| (k.to_string(), cbs_json::parse(v).unwrap())));
    ds.create_index(IndexDef::primary("#primary", "profiles")).unwrap();
    ds.create_index(IndexDef::primary("#primary_o", "orders")).unwrap();
    ds.create_index(IndexDef::simple("age_idx", "profiles", "age")).unwrap();
    ds
}

fn run(ds: &MemoryDatastore, q: &str) -> Vec<Value> {
    query(ds, q, &QueryOptions::default()).unwrap_or_else(|e| panic!("{q}: {e}")).rows
}

fn names(rows: &[Value]) -> Vec<String> {
    rows.iter()
        .map(|r| r.get_field("name").and_then(Value::as_str).unwrap_or("?").to_string())
        .collect()
}

#[test]
fn use_keys_single_and_multi() {
    let ds = ds();
    let rows = run(&ds, "SELECT name FROM profiles USE KEYS 'u1'");
    assert_eq!(names(&rows), ["Alice"]);
    let rows = run(&ds, r#"SELECT name FROM profiles USE KEYS ["u1","u3","missing"]"#);
    assert_eq!(names(&rows), ["Alice", "Carol"]);
}

#[test]
fn where_filter_and_order() {
    let ds = ds();
    let rows = run(&ds, "SELECT name, age FROM profiles WHERE age >= 30 ORDER BY age DESC");
    assert_eq!(names(&rows), ["Eve", "Carol", "Alice"]);
    assert_eq!(rows[0].get_field("age"), Some(&Value::int(42)));
}

#[test]
fn index_scan_used_and_correct() {
    let ds = ds();
    // EXPLAIN confirms the planner picks the age index.
    let plan = run(&ds, "EXPLAIN SELECT name FROM profiles WHERE age > 24 AND age < 31");
    let text = plan[0].to_json_string();
    assert!(text.contains("IndexScan"), "{text}");
    assert!(text.contains("age_idx"), "{text}");
    // Results match a primary-scan evaluation of the same predicate.
    let via_index = run(&ds, "SELECT name FROM profiles WHERE age > 24 AND age < 31 ORDER BY name");
    let via_scan =
        run(&ds, "SELECT name FROM profiles WHERE age+0 > 24 AND age+0 < 31 ORDER BY name");
    assert_eq!(via_index, via_scan);
    assert_eq!(names(&via_index), ["Alice", "Bob"]);
}

#[test]
fn covering_index_no_fetch() {
    let ds = ds();
    let plan = run(&ds, "EXPLAIN SELECT age FROM profiles WHERE age >= 30");
    let text = plan[0].to_json_string();
    assert!(text.contains("\"covering\":true"), "{text}");
    assert!(!text.contains("Fetch"), "covering scan needs no Fetch: {text}");
    // Nor does a `system:` catalog: the datastore hands over its rows whole.
    let text = run(&ds, "EXPLAIN SELECT * FROM system:indexes")[0].to_json_string();
    assert!(text.contains("PrimaryScan") && !text.contains("Fetch"), "{text}");
    let rows = run(&ds, "SELECT age FROM profiles WHERE age >= 30 ORDER BY age");
    let ages: Vec<i64> =
        rows.iter().map(|r| r.get_field("age").unwrap().as_i64().unwrap()).collect();
    assert_eq!(ages, [30, 35, 42]);
}

#[test]
fn select_star_shape() {
    let ds = ds();
    let rows = run(&ds, "SELECT * FROM profiles USE KEYS 'u1'");
    // N1QL wraps each document under its keyspace alias.
    let doc = rows[0].get_field("profiles").expect("alias-wrapped");
    assert_eq!(doc.get_field("name"), Some(&Value::from("Alice")));
    // alias.* unwraps.
    let rows = run(&ds, "SELECT p.* FROM profiles p USE KEYS 'u1'");
    assert_eq!(rows[0].get_field("name"), Some(&Value::from("Alice")));
}

#[test]
fn meta_id_projection() {
    let ds = ds();
    let rows = run(&ds, "SELECT META().id AS id FROM profiles WHERE age > 40");
    assert_eq!(rows[0].get_field("id"), Some(&Value::from("u5")));
}

#[test]
fn key_join_inner_and_left() {
    let ds = ds();
    // Each profile joins each of its order ids (ON KEYS array).
    let rows = run(
        &ds,
        "SELECT p.name, o.total FROM profiles p JOIN orders o ON KEYS p.order_ids \
         WHERE p.city = 'SF' ORDER BY o.total",
    );
    // Alice: o1(100), o2(250); Carol: none; Eve: no order_ids.
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].get_field("total"), Some(&Value::int(100)));
    // LEFT OUTER keeps unmatched profiles.
    let rows = run(
        &ds,
        "SELECT p.name, o.total FROM profiles p LEFT OUTER JOIN orders o ON KEYS p.order_ids \
         WHERE p.city = 'SF' ORDER BY p.name",
    );
    assert_eq!(rows.len(), 4, "Alice×2 + Carol + Eve");
    let carol = rows.iter().find(|r| r.get_field("name") == Some(&Value::from("Carol"))).unwrap();
    assert_eq!(carol.get_field("total"), None, "no order: total MISSING");
}

#[test]
fn nest_collects_inner_docs() {
    let ds = ds();
    let rows = run(
        &ds,
        "SELECT p.name, orders_nested FROM profiles p \
         NEST orders orders_nested ON KEYS p.order_ids \
         WHERE p.name = 'Alice'",
    );
    assert_eq!(rows.len(), 1);
    let nested = rows[0].get_field("orders_nested").unwrap().as_array().unwrap();
    assert_eq!(nested.len(), 2, "both of Alice's orders nested into one array");
}

#[test]
fn unnest_flattens() {
    let ds = ds();
    // The paper's §3.2.3 UNNEST example shape.
    let rows =
        run(&ds, "SELECT DISTINCT tag FROM profiles UNNEST profiles.tags AS tag ORDER BY tag");
    let tags: Vec<&str> =
        rows.iter().map(|r| r.get_field("tag").unwrap().as_str().unwrap()).collect();
    assert_eq!(tags, ["admin", "beta", "new"]);
}

#[test]
fn group_by_aggregates() {
    let ds = ds();
    let rows = run(
        &ds,
        "SELECT city, COUNT(*) AS n, AVG(age) AS avg_age, MIN(age) AS lo, MAX(age) AS hi \
         FROM profiles GROUP BY city ORDER BY city",
    );
    assert_eq!(rows.len(), 3); // LA, NY, SF
    let sf = &rows[2];
    assert_eq!(sf.get_field("city"), Some(&Value::from("SF")));
    assert_eq!(sf.get_field("n"), Some(&Value::int(3)));
    assert_eq!(sf.get_field("lo"), Some(&Value::int(30)));
    assert_eq!(sf.get_field("hi"), Some(&Value::int(42)));
}

#[test]
fn having_filters_groups() {
    let ds = ds();
    let rows =
        run(&ds, "SELECT city, COUNT(*) AS n FROM profiles GROUP BY city HAVING COUNT(*) > 1");
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get_field("city"), Some(&Value::from("SF")));
}

#[test]
fn global_aggregate_without_group_by() {
    let ds = ds();
    let rows = run(&ds, "SELECT COUNT(*) AS total, SUM(age) AS sum_age FROM profiles");
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get_field("total"), Some(&Value::int(5)));
    assert_eq!(rows[0].get_field("sum_age"), Some(&Value::int(151)));
    // Empty input still yields one row with COUNT 0.
    let rows = run(&ds, "SELECT COUNT(*) AS n FROM profiles WHERE age > 1000");
    assert_eq!(rows[0].get_field("n"), Some(&Value::int(0)));
}

#[test]
fn count_distinct() {
    let ds = ds();
    let rows = run(&ds, "SELECT COUNT(DISTINCT city) AS cities FROM profiles");
    assert_eq!(rows[0].get_field("cities"), Some(&Value::int(3)));
}

#[test]
fn limit_offset_pagination() {
    let ds = ds();
    let all = run(&ds, "SELECT name FROM profiles ORDER BY name");
    let page2 = run(&ds, "SELECT name FROM profiles ORDER BY name LIMIT 2 OFFSET 2");
    assert_eq!(names(&page2), names(&all)[2..4].to_vec());
}

#[test]
fn parameters_positional_and_named() {
    let ds = ds();
    let mut opts = QueryOptions::with_args(vec![Value::int(28)]);
    opts.named_params.insert("city".to_string(), Value::from("SF"));
    let rows = query(
        &ds,
        "SELECT name FROM profiles WHERE age > $1 AND city = $city ORDER BY name",
        &opts,
    )
    .unwrap()
    .rows;
    assert_eq!(names(&rows), ["Alice", "Carol", "Eve"]);
}

#[test]
fn ycsb_workload_e_query() {
    // The appendix's exact workload E query (§10.1.2).
    let ds = ds();
    let opts = QueryOptions::with_args(vec![Value::from("u2"), Value::int(3)]);
    let res =
        query(&ds, "SELECT meta().id AS id FROM profiles WHERE meta().id >= $1 LIMIT $2", &opts)
            .unwrap();
    let ids: Vec<&str> =
        res.rows.iter().map(|r| r.get_field("id").unwrap().as_str().unwrap()).collect();
    assert_eq!(ids, ["u2", "u3", "u4"]);
    // Covered by the primary index: zero document fetches.
    assert_eq!(res.metrics.fetches, 0);
    // Nothing between the scan and LIMIT can change the row count, so the
    // scan stops after $2 entries.
    assert_eq!(res.metrics.index_entries, 3);
}

/// Five documents whose first two fall out of an inner join / nest /
/// unnest and whose first has a NULL `n`, plus the join's inner keyspace.
fn limit_ds() -> MemoryDatastore {
    let ds = MemoryDatastore::new();
    ds.create_keyspace("b");
    ds.create_keyspace("c");
    let b = [
        ("k0", r#"{"ref":"gone","tags":[],"n":null}"#),
        ("k1", r#"{"ref":"gone","tags":[],"n":1}"#),
        ("k2", r#"{"ref":"c2","tags":["x"],"n":2}"#),
        ("k3", r#"{"ref":"c3","tags":["y"],"n":3}"#),
        ("k4", r#"{"ref":"c4","tags":["z"],"n":4}"#),
    ];
    ds.load("b", b.iter().map(|(k, v)| (k.to_string(), cbs_json::parse(v).unwrap())));
    let c = [("c2", r#"{"v":2}"#), ("c3", r#"{"v":3}"#), ("c4", r#"{"v":4}"#)];
    ds.load("c", c.iter().map(|(k, v)| (k.to_string(), cbs_json::parse(v).unwrap())));
    ds.create_index(IndexDef::primary("#b", "b")).unwrap();
    ds.create_index(IndexDef::primary("#c", "c")).unwrap();
    ds.create_index(IndexDef::simple("by_n", "b", "n")).unwrap();
    ds
}

fn ids(rows: &[Value]) -> Vec<&str> {
    rows.iter().map(|r| r.get_field("id").and_then(Value::as_str).unwrap_or("?")).collect()
}

#[test]
fn limit_counts_groups_not_scanned_entries() {
    let ds = limit_ds();
    let res = query(
        &ds,
        r#"SELECT COUNT(*) AS n FROM b WHERE meta().id >= "k0" LIMIT 2"#,
        &QueryOptions::default(),
    )
    .unwrap();
    assert_eq!(res.rows, [Value::object([("n", Value::int(5))])]);
    assert_eq!(res.metrics.index_entries, 5, "the aggregate sees the whole range");
}

#[test]
fn limit_applies_after_operators_that_drop_rows() {
    let ds = limit_ds();
    for from in ["JOIN c ON KEYS b.ref", "NEST c ON KEYS b.ref", "UNNEST b.tags t"] {
        let q =
            format!(r#"SELECT meta(b).id AS id FROM b {from} WHERE meta(b).id >= "k0" LIMIT 2"#);
        assert_eq!(ids(&run(&ds, &q)), ["k2", "k3"], "{q}");
    }
    let joined = run(
        &ds,
        r#"SELECT meta(b).id AS id, c.v FROM b JOIN c ON KEYS b.ref WHERE meta(b).id >= "k0" LIMIT 2"#,
    );
    assert_eq!(joined[0].get_field("v"), Some(&Value::int(2)));
    assert_eq!(joined[1].get_field("v"), Some(&Value::int(3)));
}

#[test]
fn limit_skips_null_keys_below_an_upper_bound() {
    // k0's NULL `n` sorts inside the range `n < 10` but fails the predicate.
    let ds = limit_ds();
    let rows = run(&ds, "SELECT meta().id AS id FROM b WHERE n < 10 LIMIT 2");
    assert_eq!(ids(&rows), ["k1", "k2"]);
}

#[test]
fn dml_roundtrip() {
    let ds = ds();
    // INSERT.
    let res = query(
        &ds,
        r#"INSERT INTO profiles (KEY, VALUE) VALUES ("u9", {"name":"Zoe","age":28,"city":"NY"})"#,
        &QueryOptions::default(),
    )
    .unwrap();
    assert_eq!(res.metrics.mutation_count, 1);
    // Duplicate INSERT fails; UPSERT succeeds.
    assert!(query(
        &ds,
        r#"INSERT INTO profiles (KEY, VALUE) VALUES ("u9", {})"#,
        &QueryOptions::default()
    )
    .is_err());
    query(
        &ds,
        r#"UPSERT INTO profiles (KEY, VALUE) VALUES ("u9", {"name":"Zoe","age":29,"city":"NY"})"#,
        &QueryOptions::default(),
    )
    .unwrap();
    // UPDATE with sub-document SET (§3.2.2).
    let res = query(
        &ds,
        "UPDATE profiles USE KEYS 'u9' SET age = 30, extra.verified = true UNSET city",
        &QueryOptions::default(),
    )
    .unwrap();
    assert_eq!(res.metrics.mutation_count, 1);
    let rows = run(&ds, "SELECT p.* FROM profiles p USE KEYS 'u9'");
    assert_eq!(rows[0].get_field("age"), Some(&Value::int(30)));
    assert_eq!(rows[0].get_field("extra").unwrap().get_field("verified"), Some(&Value::Bool(true)));
    assert_eq!(rows[0].get_field("city"), None);
    // UPDATE ... WHERE over a scan.
    let res =
        query(&ds, "UPDATE profiles SET senior = true WHERE age >= 35", &QueryOptions::default())
            .unwrap();
    assert_eq!(res.metrics.mutation_count, 2); // Carol, Eve
                                               // DELETE.
    let res = query(&ds, "DELETE FROM profiles WHERE age < 20", &QueryOptions::default()).unwrap();
    assert_eq!(res.metrics.mutation_count, 1); // Dan
    assert!(run(&ds, "SELECT name FROM profiles WHERE name = 'Dan'").is_empty());
    // SET clauses apply in order, each seeing what the ones before it left.
    let res =
        query(&ds, "UPDATE profiles USE KEYS 'u9' SET a = 1, b = a + 1", &QueryOptions::default())
            .unwrap();
    assert_eq!(res.metrics.mutation_count, 1);
    let rows = run(&ds, "SELECT a, b FROM profiles USE KEYS 'u9'");
    assert_eq!(rows, [cbs_json::parse(r#"{"a":1,"b":2}"#).unwrap()]);
    // `system:` catalogs are read-only.
    for q in ["DELETE FROM `system:keyspaces`", "UPDATE `system:prepareds` SET x = 1"] {
        let err = query(&ds, q, &QueryOptions::default()).unwrap_err();
        assert!(err.to_string().contains("read-only"), "{q}: {err}");
    }
}

/// A backtick-quoted name is one path step wherever a path is written: in
/// a predicate matched against an index key, in CREATE INDEX and in an
/// UPDATE's SET target. A field named `a.b` is not the path `a`→`b`.
#[test]
fn quoted_dotted_name_is_one_path_step() {
    let ds = MemoryDatastore::new();
    ds.create_keyspace("ks");
    let docs =
        [("flat", r#"{"a.b":5}"#), ("nested", r#"{"a":{"b":5}}"#), ("arr", r#"{"arr":[1,2,3]}"#)];
    ds.load("ks", docs.iter().map(|(k, v)| (k.to_string(), cbs_json::parse(v).unwrap())));
    ds.create_index(IndexDef::primary("#primary", "ks")).unwrap();
    let id = |k: &str| Value::object([("id", Value::from(k))]);
    let fetch = |k: &str| ds.fetch("ks", k).unwrap().unwrap();

    // The predicate reads the field `a.b`, with or without an index on the
    // nested path `a`→`b`, and the planner does not scan that index for it.
    let q = "SELECT meta().id AS id FROM ks WHERE `a.b` = 5";
    assert_eq!(run(&ds, q), [id("flat")]);
    ds.create_index(IndexDef::simple("ab", "ks", "a.b")).unwrap();
    assert_eq!(run(&ds, q), [id("flat")]);
    let plan = run(&ds, &format!("EXPLAIN {q}"))[0].to_json_string();
    assert!(plan.contains("PrimaryScan") && !plan.contains(r#""ab""#), "{plan}");
    // The nested path is still the index's.
    let nested = "SELECT meta().id AS id FROM ks WHERE a.b = 5";
    assert_eq!(run(&ds, nested), [id("nested")]);
    let plan = run(&ds, &format!("EXPLAIN {nested}"))[0].to_json_string();
    assert!(plan.contains(r#""index":"ab""#), "{plan}");

    // CREATE INDEX on a quoted name defines the one-step path.
    run(&ds, "CREATE INDEX q ON ks(`a.b`)");
    let def = ds.list_indexes("ks").into_iter().find(|d| d.name == "q").unwrap();
    let one_step = JsonPath { steps: vec![PathStep::Field("a.b".to_string())] };
    assert_eq!(def.keys, [KeyExpr::Path(one_step)]);
    assert_eq!(run(&ds, q), [id("flat")]);

    // SET on a quoted name writes that field and nothing else.
    run(&ds, "UPDATE ks USE KEYS 'flat' SET `a.b` = 6");
    assert_eq!(fetch("flat"), cbs_json::parse(r#"{"a.b":6}"#).unwrap());

    // A SET target takes a negative subscript, as an expression does.
    run(&ds, "UPDATE ks USE KEYS 'arr' SET arr[-1] = 9");
    assert_eq!(fetch("arr"), cbs_json::parse(r#"{"arr":[1,2,9]}"#).unwrap());
}

/// CREATE INDEX reads `ks.age` in a definition on `ks` as the field `age`,
/// in a key and in a partial index's WHERE, as a statement on `ks` does:
/// the index it builds holds the documents, and a query it serves returns
/// what the primary index returns.
#[test]
fn keyspace_qualified_paths_in_create_index() {
    for ddl in
        ["CREATE INDEX over21 ON ks(age) WHERE ks.age > 21", "CREATE INDEX byage ON ks(ks.age)"]
    {
        let ds = MemoryDatastore::new();
        ds.create_keyspace("ks");
        let docs =
            (15..25).map(|age| (format!("d{age}"), Value::object([("age", Value::int(age))])));
        ds.load("ks", docs);
        ds.create_index(IndexDef::primary("#primary", "ks")).unwrap();
        let q = "SELECT meta().id AS id FROM ks WHERE ks.age > 21 ORDER BY id";
        let by_primary = run(&ds, q);
        assert_eq!(by_primary.len(), 3, "{by_primary:?}");
        run(&ds, ddl);
        let plan = run(&ds, &format!("EXPLAIN {q}"))[0].to_json_string();
        assert!(plan.contains("IndexScan"), "{ddl}: {plan}");
        assert_eq!(run(&ds, q), by_primary, "{ddl}");
    }
}

#[test]
fn ddl_via_n1ql() {
    let ds = ds();
    // The paper's §3.3.4 selective index.
    query(
        &ds,
        "CREATE INDEX over21 ON profiles(age) WHERE age > 21 USING GSI",
        &QueryOptions::default(),
    )
    .unwrap();
    assert!(ds.list_indexes("profiles").iter().any(|d| d.name == "over21"));
    // Deferred build flow (§3.3.3).
    query(
        &ds,
        r#"CREATE INDEX by_city ON profiles(city) WITH {"defer_build": true}"#,
        &QueryOptions::default(),
    )
    .unwrap();
    assert!(
        !ds.list_indexes("profiles").iter().any(|d| d.name == "by_city"),
        "deferred: not online"
    );
    query(&ds, "BUILD INDEX ON profiles(by_city)", &QueryOptions::default()).unwrap();
    assert!(ds.list_indexes("profiles").iter().any(|d| d.name == "by_city"));
    query(&ds, "DROP INDEX profiles.by_city", &QueryOptions::default()).unwrap();
    assert!(!ds.list_indexes("profiles").iter().any(|d| d.name == "by_city"));
}

#[test]
fn array_predicates() {
    let ds = ds();
    let rows = run(
        &ds,
        "SELECT name FROM profiles WHERE ANY t IN tags SATISFIES t = 'beta' END ORDER BY name",
    );
    assert_eq!(names(&rows), ["Alice", "Bob"]);
}

#[test]
fn expression_only_select() {
    let ds = MemoryDatastore::new();
    let rows = run(&ds, "SELECT 1 + 2 * 3 AS x, 'hi' || ' there' AS s");
    assert_eq!(rows[0].get_field("x"), Some(&Value::int(7)));
    assert_eq!(rows[0].get_field("s"), Some(&Value::from("hi there")));
}

#[test]
fn missing_fields_omitted_from_projection() {
    let ds = ds();
    // u5 (Eve) has no tags field.
    let rows = run(&ds, "SELECT name, tags FROM profiles WHERE age > 40");
    assert_eq!(rows[0].get_field("name"), Some(&Value::from("Eve")));
    assert_eq!(rows[0].get_field("tags"), None);
}

#[test]
fn distinct_rows() {
    let ds = ds();
    let rows = run(&ds, "SELECT DISTINCT city FROM profiles ORDER BY city");
    assert_eq!(rows.len(), 3);
}

#[test]
fn explain_shows_pipeline() {
    let ds = ds();
    // A selective predicate (2 of 5 rows), so the cost model keeps the
    // index scan; `age > 20` would select ~everything and the optimizer
    // rightly prefers a PrimaryScan for that.
    let plan = run(
        &ds,
        "EXPLAIN SELECT city, COUNT(*) FROM profiles WHERE age > 34 GROUP BY city ORDER BY city LIMIT 5",
    );
    let text = plan[0].to_json_string();
    for op in
        ["IndexScan", "Filter", "Group", "Sort", "Limit", "FinalProject", "cost", "cardinality"]
    {
        assert!(text.contains(op), "missing {op} in {text}");
    }
}

#[test]
fn errors_are_informative() {
    let ds = ds();
    assert!(query(&ds, "SELECT * FROM nope", &QueryOptions::default()).is_err());
    assert!(query(&ds, "SELECT * FROM", &QueryOptions::default()).is_err());
    // No index: keyspace without primary index rejects scans.
    ds.create_keyspace("bare");
    let err = query(&ds, "SELECT * FROM bare", &QueryOptions::default()).unwrap_err();
    assert!(err.to_string().contains("no index available"));
    // But USE KEYS works without any index (§5.1.1).
    assert!(query(&ds, "SELECT * FROM bare USE KEYS 'x'", &QueryOptions::default()).is_ok());
}

#[test]
fn case_and_string_functions_in_queries() {
    let ds = ds();
    let rows = run(
        &ds,
        "SELECT name, CASE WHEN age >= 35 THEN 'senior' ELSE 'junior' END AS tier, \
         UPPER(city) AS loc FROM profiles WHERE name = 'Carol'",
    );
    assert_eq!(rows[0].get_field("tier"), Some(&Value::from("senior")));
    assert_eq!(rows[0].get_field("loc"), Some(&Value::from("SF")));
}

/// PREPARE and EXECUTE mean the same however they are spelled: the plain
/// `EXECUTE <name>` is resolved on its text, every other spelling by the
/// parser, and a re-plan parses the inner text that PREPARE kept.
#[test]
fn prepare_and_execute_in_any_spelling() {
    let ds = ds();
    run(&ds, "PREPARE p FROM SELECT name FROM profiles");
    let all = names(&run(&ds, "EXECUTE p"));
    assert_eq!(all.len(), 5);
    for q in ["EXECUTE `p`", "-- c\nEXECUTE p", "EXECUTE p -- c"] {
        assert_eq!(names(&run(&ds, q)), all, "{q:?}");
    }
    for q in [
        "PREPARE `q` FROM SELECT name FROM profiles",
        "-- c\nPREPARE q FROM SELECT name FROM profiles ;",
    ] {
        let row = run(&ds, q);
        assert_eq!(row[0].get_field("statement"), Some(&Value::from("SELECT name FROM profiles")));
        assert_eq!(names(&run(&ds, "EXECUTE q")), all, "{q:?}");
    }
    // DDL drops the plans; the next EXECUTE re-plans from the kept text.
    run(&ds, "CREATE INDEX by_city ON profiles(city)");
    assert_eq!(names(&run(&ds, "EXECUTE `q`")), all);
    assert_eq!(ds.plan_cache().misses(), 1);
    // Neither has a plan to explain or profile.
    for q in ["EXPLAIN EXECUTE p", "PROFILE PREPARE r FROM SELECT 1"] {
        let err = query(&ds, q, &QueryOptions::default()).unwrap_err();
        assert!(err.to_string().contains("cannot be explained"), "{q:?}: {err}");
    }
}
