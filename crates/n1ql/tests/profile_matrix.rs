//! PROFILE equivalence matrix: for a spread of plan shapes, the profiled
//! run must tell the same story as the plain run — the final operator's
//! `#itemsOut` equals the plain result count, the operators EXPLAIN lists,
//! the ones PROFILE annotates with `#stats` and the ones the executor ran
//! are one sequence, and the phase rollups never exceed the request's
//! elapsed time.

// Tests unwrap freely; the crate's unwrap_used deny targets lib code (the
// allow-unwrap-in-tests config covers #[test] fns but not file helpers).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use cbs_index::IndexDef;
use cbs_json::Value;
use cbs_n1ql::{
    build_plan, execute_with_profile, parse_statement, query, Datastore, MemoryDatastore, Prof,
    QueryOptions,
};

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

/// The operator nodes of an EXPLAIN or PROFILE row.
fn operators(row: &Value) -> &[Value] {
    row.get_field("plan")
        .and_then(|p| p.get_field("operators"))
        .and_then(Value::as_array)
        .expect("row has plan.operators")
}

fn names(ops: &[Value]) -> Vec<&str> {
    ops.iter().map(|op| op.get_field("operator").and_then(Value::as_str).unwrap_or("?")).collect()
}

/// Operators in the annotated tree that carry runtime `#stats`.
fn stats_ops(profile_row: &Value) -> Vec<(String, i64, i64)> {
    operators(profile_row)
        .iter()
        .filter_map(|op| {
            let stats = op.get_field("#stats")?;
            Some((
                op.get_field("operator").and_then(Value::as_str).unwrap_or("?").to_string(),
                stats.get_field("#itemsIn").and_then(Value::as_i64).unwrap_or(-1),
                stats.get_field("#itemsOut").and_then(Value::as_i64).unwrap_or(-1),
            ))
        })
        .collect()
}

#[test]
fn profile_matches_plain_execution_across_plan_shapes() {
    let ds = ds();
    let matrix: &[&str] = &[
        // DummyScan (expression-only).
        "SELECT 1 + 1 AS x",
        // KeyScan + Fetch.
        r#"SELECT name FROM profiles USE KEYS ["u1","u3","missing"]"#,
        // IndexScan (covering) on the age index.
        "SELECT age FROM profiles WHERE age >= 30",
        // IndexScan + Fetch + Filter + Sort.
        "SELECT name, age FROM profiles WHERE age >= 30 ORDER BY age DESC",
        // PrimaryScan + Group/Having.
        "SELECT city, COUNT(*) AS n FROM profiles GROUP BY city HAVING COUNT(*) > 1",
        // Distinct.
        "SELECT DISTINCT city FROM profiles",
        // Offset + Limit.
        "SELECT name FROM profiles WHERE age > 20 ORDER BY age LIMIT 2 OFFSET 1",
        // Join on keys.
        "SELECT p.name, o.item FROM profiles p JOIN orders o ON KEYS p.order_ids",
        // Unnest.
        "SELECT p.name, t FROM profiles p UNNEST p.tags t",
        // Nest.
        "SELECT p.name, o FROM profiles p NEST orders o ON KEYS p.order_ids",
        // Group whose only aggregate sits in HAVING / in ORDER BY.
        "SELECT 1 AS one FROM profiles HAVING COUNT(*) > 0",
        "SELECT 1 AS one FROM profiles ORDER BY COUNT(*)",
        // A system: catalog.
        "SELECT name FROM system:keyspaces",
    ];
    for stmt in matrix {
        let t0 = std::time::Instant::now();
        let plain = query(&ds, stmt, &QueryOptions::default())
            .unwrap_or_else(|e| panic!("plain {stmt}: {e}"));
        let plain_wall = t0.elapsed();
        let t1 = std::time::Instant::now();
        let profiled = query(&ds, &format!("PROFILE {stmt}"), &QueryOptions::default())
            .unwrap_or_else(|e| panic!("profile {stmt}: {e}"));
        let profiled_wall = t1.elapsed();

        // PROFILE returns exactly one row: the annotated plan. Its metrics
        // keep describing the inner execution.
        assert_eq!(profiled.rows.len(), 1, "{stmt}: PROFILE returns one row");
        assert_eq!(
            profiled.metrics.result_count, plain.metrics.result_count,
            "{stmt}: inner result count preserved"
        );

        let row = &profiled.rows[0];
        let ops = stats_ops(row);
        assert!(!ops.is_empty(), "{stmt}: at least one operator has #stats");

        // One operator list: what EXPLAIN shows is what PROFILE annotates —
        // every operator, none without `#stats` — and what the executor ran.
        let explained = query(&ds, &format!("EXPLAIN {stmt}"), &QueryOptions::default())
            .unwrap_or_else(|e| panic!("explain {stmt}: {e}"));
        let listed = names(operators(&explained.rows[0]));
        assert_eq!(names(operators(row)), listed, "{stmt}: PROFILE tree == EXPLAIN tree");
        let annotated: Vec<&str> = ops.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(annotated, listed, "{stmt}: every listed operator carries #stats");
        let plan = build_plan(&ds, &parse_statement(stmt).unwrap(), &QueryOptions::default())
            .unwrap_or_else(|e| panic!("plan {stmt}: {e}"));
        let mut prof = Prof::on();
        execute_with_profile(&ds, &plan, &QueryOptions::default(), &mut prof)
            .unwrap_or_else(|e| panic!("execute {stmt}: {e}"));
        let ran: Vec<&str> = prof.ops().iter().map(|s| s.operator).collect();
        assert_eq!(ran, listed, "{stmt}: the executor ran exactly the listed operators");
        let (last_op, _, items_out) = ops.last().unwrap();
        assert_eq!(last_op, "FinalProject", "{stmt}: pipeline ends in FinalProject");
        assert_eq!(
            *items_out as usize,
            plain.rows.len(),
            "{stmt}: final operator items_out == plain result count"
        );
        assert_eq!(
            row.get_field("resultCount").and_then(Value::as_i64),
            Some(plain.rows.len() as i64),
            "{stmt}: top-level resultCount"
        );
        assert!(row.get_field("phaseTimes").is_some(), "{stmt}: phaseTimes present");
        assert!(row.get_field("elapsedTime").is_some(), "{stmt}: elapsedTime present");

        // Phase rollups decompose the request: their sum can never exceed
        // the wall time the whole query() call took.
        assert!(
            plain.phases.total() <= plain_wall,
            "{stmt}: plain phase sum {:?} <= wall {plain_wall:?}",
            plain.phases.total()
        );
        assert!(
            profiled.phases.total() <= profiled_wall,
            "{stmt}: profiled phase sum {:?} <= wall {profiled_wall:?}",
            profiled.phases.total()
        );
    }
}

#[test]
fn profile_stats_reflect_operator_flow() {
    let ds = ds();
    let profiled = query(
        &ds,
        "PROFILE SELECT name, age FROM profiles WHERE age >= 30",
        &QueryOptions::default(),
    )
    .unwrap();
    let ops = stats_ops(&profiled.rows[0]);
    let index_scan = ops.iter().find(|(n, _, _)| n == "IndexScan").expect("IndexScan ran");
    assert_eq!(index_scan.2, 3, "3 entries >= 30 in age_idx");
    let fetch = ops.iter().find(|(n, _, _)| n == "Fetch").expect("Fetch ran");
    assert_eq!(fetch.1, 3, "fetch consumes the scan's keys");
    assert_eq!(fetch.2, 3);
    // kernTime renders as a Duration debug string.
    let tree = &profiled.rows[0];
    let rendered = format!("{tree:?}");
    assert!(rendered.contains("kernTime"), "stats carry kernel timings");
}

#[test]
fn profile_of_dml_and_failed_statements() {
    let ds = ds();
    let res = query(
        &ds,
        r#"PROFILE INSERT INTO profiles (KEY, VALUE) VALUES ("u9", {"name":"Zoe","age":50})"#,
        &QueryOptions::default(),
    )
    .unwrap();
    assert_eq!(res.rows.len(), 1);
    assert_eq!(res.metrics.mutation_count, 1);
    // The inserted doc is really there.
    assert_eq!(
        ds.fetch("profiles", "u9").unwrap().unwrap().get_field("name"),
        Some(&Value::from("Zoe"))
    );

    // UPDATE runs the SELECT pipeline of its target rows, ending in
    // SendUpdate; every operator carries its stats.
    let res = query(
        &ds,
        "PROFILE UPDATE profiles SET senior = true WHERE age >= 30",
        &QueryOptions::default(),
    )
    .unwrap();
    assert_eq!(res.metrics.mutation_count, 4, "Alice, Carol, Eve, Zoe");
    assert!(res.metrics.index_entries > 0, "the age index found the targets");
    let stats = stats_ops(&res.rows[0]);
    let ran: Vec<&str> = stats.iter().map(|(name, _, _)| name.as_str()).collect();
    assert_eq!(ran, ["IndexScan", "Fetch", "Filter", "SendUpdate"]);
    assert_eq!(names(operators(&res.rows[0])), ran);
    let send = &stats[3];
    assert_eq!(send.1, res.metrics.mutation_count as i64, "SendUpdate #itemsIn");
    assert_eq!(send.2, 0, "DML returns no rows");

    // A failing statement under PROFILE still fails.
    assert!(query(&ds, "PROFILE SELECT * FROM nowhere", &QueryOptions::default()).is_err());
}
