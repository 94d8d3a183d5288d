//! End-to-end query profiling over a real cluster: PROFILE phase coverage,
//! the `system:` introspection keyspaces, the completed-request ring, and
//! the per-phase query histograms on the cbstats surface.

use std::time::{Duration, Instant};

use cbs_core::{CouchbaseCluster, QueryOptions, Value};

fn seeded_cluster(docs: usize) -> std::sync::Arc<CouchbaseCluster> {
    let cluster = CouchbaseCluster::homogeneous(2, cbs_core::ClusterConfig::for_test(32, 0));
    let bucket = cluster.create_bucket("default").unwrap();
    for i in 0..docs {
        bucket
            .upsert(
                &format!("user::{i}"),
                Value::object([
                    ("name", Value::from(format!("user{i}"))),
                    ("age", Value::int((i % 60) as i64 + 18)),
                ]),
            )
            .unwrap();
    }
    cluster.query("CREATE INDEX by_age ON default(age)", &QueryOptions::default()).unwrap();
    cluster
}

#[test]
fn profile_phases_cover_most_of_an_index_scan_query() {
    let cluster = seeded_cluster(2000);
    let opts = QueryOptions::default().request_plus();
    let t0 = Instant::now();
    let res = cluster
        .query("PROFILE SELECT name, age FROM default WHERE age >= 20 ORDER BY age", &opts)
        .unwrap();
    let wall = t0.elapsed();

    assert_eq!(res.rows.len(), 1, "PROFILE returns the annotated plan");
    let row = &res.rows[0];
    assert!(row.get_field("phaseTimes").is_some());
    let ops = row
        .get_field("plan")
        .and_then(|p| p.get_field("operators"))
        .and_then(Value::as_array)
        .unwrap();
    assert!(
        ops.iter().any(|o| {
            o.get_field("operator").and_then(Value::as_str) == Some("IndexScan")
                && o.get_field("#stats").is_some()
        }),
        "index scan carries runtime stats"
    );

    // The rollups must explain at least 90% of the request's wall time —
    // the profiler attributes real time, it doesn't guess.
    let covered = res.phases.total();
    assert!(
        covered >= wall.mul_f64(0.9) - Duration::from_millis(1),
        "phases {covered:?} cover >=90% of wall {wall:?}"
    );
    // And they never exceed it.
    assert!(covered <= wall);
}

fn op_name(op: &Value) -> &str {
    op.get_field("operator").and_then(Value::as_str).unwrap()
}

/// `(operator, #itemsIn, #itemsOut)` for each operator of a PROFILE run.
fn profiled_operators(cluster: &CouchbaseCluster, stmt: &str) -> Vec<(String, i64, i64)> {
    let res =
        cluster.query(&format!("PROFILE {stmt}"), &QueryOptions::default().request_plus()).unwrap();
    let ops = res.rows[0].get_field("plan").and_then(|p| p.get_field("operators"));
    let count = |op: &Value, name: &str| {
        op.get_field("#stats").and_then(|s| s.get_field(name)).and_then(Value::as_i64).unwrap()
    };
    ops.and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|op| (op_name(op).to_string(), count(op, "#itemsIn"), count(op, "#itemsOut")))
        .collect()
}

/// §5.1's access-path hierarchy, KV < USE KEYS < covering < fetching <
/// PrimaryScan, as the work each path's operators count on a cluster (the
/// memory datastore's side: `n1ql/tests/queries.rs::covering_index_no_fetch`
/// and `profile_matrix.rs`). USE KEYS scans nothing and fetches exactly the
/// named keys; a covering scan fetches nothing; a non-covering scan
/// fetches each row it returns; a PrimaryScan scans the whole primary index
/// and fetches every id it returns, twice as many once the bucket doubles
/// (§4.5.3's linear growth). A PrimaryScan waits for the index to hold every
/// write acknowledged before it, whatever the request asks.
#[test]
fn profile_counts_pin_the_access_path_hierarchy() {
    const N: usize = 120;
    let cluster = seeded_cluster(N);
    cluster.query("CREATE PRIMARY INDEX ON default", &QueryOptions::default()).unwrap();
    let find = |ops: &[(String, i64, i64)], name: &str| ops.iter().find(|o| o.0 == name).cloned();

    let ops = profiled_operators(
        &cluster,
        r#"SELECT name FROM default USE KEYS ["user::1", "user::2", "missing"]"#,
    );
    assert!(find(&ops, "IndexScan").or(find(&ops, "PrimaryScan")).is_none(), "{ops:?}");
    let fetch = find(&ops, "Fetch").expect("USE KEYS fetches");
    assert_eq!((fetch.1, fetch.2), (3, 2), "the named keys, two of them present: {ops:?}");

    // Ages cycle over 60 values: age 20 is documents 2 and 62.
    let ops = profiled_operators(&cluster, "SELECT age FROM default WHERE age = 20");
    assert_eq!(find(&ops, "IndexScan").map(|o| o.2), Some(2), "{ops:?}");
    assert!(find(&ops, "Fetch").is_none(), "a covering scan fetches nothing: {ops:?}");

    let ops = profiled_operators(&cluster, "SELECT name FROM default WHERE age = 20");
    let fetch = find(&ops, "Fetch").expect("a non-covering scan fetches");
    assert_eq!((fetch.1, fetch.2), (2, 2), "one fetch per row: {ops:?}");

    let primary = "SELECT name FROM default WHERE name = 'user17'";
    let full_scan = |ops: &[(String, i64, i64)], n: usize| {
        let n = n as i64;
        assert_eq!(find(ops, "PrimaryScan").map(|o| o.2), Some(n), "{ops:?}");
        let fetch = find(ops, "Fetch").expect("a PrimaryScan fetches");
        assert_eq!((fetch.1, fetch.2), (n, n), "one fetch per scanned id: {ops:?}");
    };
    full_scan(&profiled_operators(&cluster, primary), N);
    let bucket = cluster.bucket("default").unwrap();
    for i in N..2 * N {
        bucket.upsert(&format!("user::{i}"), Value::object([("age", Value::int(1))])).unwrap();
    }
    let count = "SELECT COUNT(age) AS n FROM default";
    let plan = cluster.query(&format!("EXPLAIN {count}"), &QueryOptions::default()).unwrap();
    let listed = plan.rows[0].get_field("plan").and_then(|p| p.get_field("operators"));
    let listed: Vec<&str> = listed.and_then(Value::as_array).unwrap().iter().map(op_name).collect();
    assert_eq!(listed[..2], ["PrimaryScan", "Fetch"]);
    let counted = cluster.query(count, &QueryOptions::default()).unwrap().rows;
    assert_eq!(counted, [Value::object([("n", Value::from(2 * N))])], "not_bounded sees all");
    full_scan(&profiled_operators(&cluster, primary), 2 * N);
}

#[test]
fn slow_queries_land_in_completed_requests() {
    let cluster = seeded_cluster(50);
    // Everything is "slow" at a zero threshold.
    cluster.set_slow_threshold(Duration::ZERO);
    cluster
        .query(
            "SELECT name FROM default WHERE age >= 30",
            &QueryOptions::default().request_plus().client_context_id("probe-1"),
        )
        .unwrap();

    // The request log is queryable through N1QL itself.
    let res =
        cluster.query("SELECT * FROM system:completed_requests", &QueryOptions::default()).unwrap();
    let entry = res
        .rows
        .iter()
        .filter_map(|r| r.get_field("completed_requests"))
        .find(|r| r.get_field("clientContextID").and_then(Value::as_str) == Some("probe-1"))
        .expect("probed request retained in system:completed_requests");
    assert_eq!(entry.get_field("state").and_then(Value::as_str), Some("completed"));
    assert_eq!(
        entry.get_field("statement").and_then(Value::as_str),
        Some("SELECT name FROM default WHERE age >= 30")
    );
    let plan = entry.get_field("plan").and_then(Value::as_str).unwrap();
    assert!(plan.contains("IndexScan(by_age)"), "plan summary names the index: {plan}");
    assert!(entry.get_field("phaseTimes").is_some());

    // The catalogs' row source, the request log, holds the same rows.
    let log = cluster.inner().request_log();
    assert!(log.completed_rows().iter().any(|(_, v)| {
        v.get_field("clientContextID").and_then(Value::as_str) == Some("probe-1")
    }));
    assert!(log.active_rows().is_empty(), "nothing in flight between queries");
    // ...and the trace store keeps its span tree in the slow-op log.
    let slow_ops = cluster.inner().trace_store().slow_traces();
    assert!(
        slow_ops.iter().any(|t| t.root_name == "n1ql.query.request" && t.spans.len() > 1),
        "no slow-op span tree for the request: {:?}",
        slow_ops.iter().map(|t| t.root_name).collect::<Vec<_>>()
    );

    // WHERE works against the catalog like any keyspace.
    let failed = cluster
        .query(
            "SELECT * FROM system:completed_requests r WHERE r.state = 'failed'",
            &QueryOptions::default(),
        )
        .unwrap();
    assert!(failed.rows.is_empty(), "no failed requests yet");
}

#[test]
fn per_request_threshold_override_beats_cluster_setting() {
    let cluster = seeded_cluster(10);
    // Cluster-wide threshold stays at the default (100ms): a fast query is
    // not retained.
    cluster.query("SELECT 1 + 1 AS x", &QueryOptions::default().client_context_id("fast")).unwrap();
    // A zero per-request threshold retains this one regardless.
    cluster
        .query(
            "SELECT 2 + 2 AS x",
            &QueryOptions::default().client_context_id("kept").slow_threshold(Duration::ZERO),
        )
        .unwrap();
    let rows = cluster.inner().request_log().completed_rows();
    let ids: Vec<&str> = rows
        .iter()
        .filter_map(|(_, v)| v.get_field("clientContextID").and_then(Value::as_str))
        .collect();
    assert!(ids.contains(&"kept"), "per-request override admits the request");
    assert!(!ids.contains(&"fast"), "default threshold filters fast requests");
}

#[test]
fn completed_ring_stays_bounded_under_load() {
    let cluster = seeded_cluster(10);
    cluster.set_slow_threshold(Duration::ZERO);
    for i in 0..10_000 {
        cluster.query(&format!("SELECT {i} AS x"), &QueryOptions::default()).unwrap();
    }
    let rows = cluster
        .query("SELECT * FROM system:completed_requests", &QueryOptions::default())
        .unwrap()
        .rows;
    assert!(rows.len() <= 256, "completed ring bounded, got {}", rows.len());
    assert!(rows.len() >= 200, "ring retains a meaningful tail, got {}", rows.len());
}

#[test]
fn system_catalogs_reflect_cluster_state() {
    let cluster = seeded_cluster(25);

    let idx = cluster.query("SELECT * FROM system:indexes", &QueryOptions::default()).unwrap();
    let defs: Vec<&Value> = idx.rows.iter().filter_map(|r| r.get_field("indexes")).collect();
    assert!(defs.iter().any(|d| {
        d.get_field("name").and_then(Value::as_str) == Some("by_age")
            && d.get_field("state").and_then(Value::as_str) == Some("online")
            && d.get_field("keyspace").and_then(Value::as_str) == Some("default")
    }));

    let ks = cluster.query("SELECT * FROM system:keyspaces", &QueryOptions::default()).unwrap();
    let default_ks = ks
        .rows
        .iter()
        .filter_map(|r| r.get_field("keyspaces"))
        .find(|k| k.get_field("name").and_then(Value::as_str) == Some("default"))
        .expect("default bucket listed");
    assert_eq!(default_ks.get_field("count"), Some(&Value::int(25)));

    let nodes = cluster.query("SELECT * FROM system:nodes", &QueryOptions::default()).unwrap();
    assert_eq!(nodes.rows.len(), 2, "both nodes listed");
    for row in &nodes.rows {
        let n = row.get_field("nodes").unwrap();
        assert_eq!(n.get_field("alive"), Some(&Value::Bool(true)));
        let services = n.get_field("services").and_then(Value::as_array).unwrap();
        assert!(!services.is_empty());
    }

    // An unknown catalog is a plan-time error.
    assert!(cluster.query("SELECT * FROM system:bogus", &QueryOptions::default()).is_err());
}

#[test]
fn phase_histograms_and_help_reach_prometheus() {
    let cluster = seeded_cluster(200);
    cluster
        .query("SELECT name FROM default WHERE age >= 30", &QueryOptions::default().request_plus())
        .unwrap();
    let stats = cluster.stats();
    let merged = stats.merged();
    assert!(merged.histogram("n1ql.phase.index_scan").count() >= 1, "index-scan phase recorded");
    assert!(merged.histogram("n1ql.phase.run").count() >= 1, "run phase recorded");
    assert!(merged.histogram("n1ql.phase.plan").count() >= 1, "plan phase recorded");
    // The op counters merge across nodes too: every load write, and the
    // CREATE INDEX and SELECT requests.
    assert_eq!(merged.counter("kv.engine.sets"), 200);
    assert_eq!(merged.counter("n1ql.query.requests"), 2);

    let prom = stats.prometheus();
    assert!(prom.contains("# HELP cbs_n1ql_phase_index_scan "), "HELP line rendered:\n{prom}");
    assert!(prom.contains("# TYPE cbs_n1ql_phase_index_scan summary"));
    assert!(prom.contains("# HELP cbs_n1ql_query_latency "));
}

/// Every `system:` catalog name is answered by both datastores: live rows
/// where the datastore has the backing service, no rows (not "no such
/// keyspace") where it does not.
#[test]
fn every_system_catalog_answers_on_both_datastores() {
    let cluster = seeded_cluster(5);
    let mem = cbs_n1ql::MemoryDatastore::new();
    mem.create_keyspace("default");
    cbs_n1ql::query(&mem, "CREATE INDEX by_age ON default(age)", &QueryOptions::default()).unwrap();
    assert_eq!(cbs_n1ql::SYSTEM_CATALOGS.len(), 11);
    // `SELECT *` wraps each catalog row under the catalog's own name.
    let fields = |rows: &[Value], catalog: &str| -> Vec<String> {
        let row = rows[0].get_field(catalog.trim_start_matches("system:")).unwrap();
        row.as_object().unwrap().iter().map(|(k, _)| k.to_string()).collect()
    };
    for catalog in cbs_n1ql::SYSTEM_CATALOGS {
        let stmt = format!("SELECT * FROM {catalog}");
        let on_cluster = cluster.query(&stmt, &QueryOptions::default());
        let on_memory = cbs_n1ql::query(&mem, &stmt, &QueryOptions::default());
        assert!(on_cluster.is_ok(), "{catalog} on the cluster: {:?}", on_cluster.err());
        assert!(on_memory.is_ok(), "{catalog} on the memory datastore: {:?}", on_memory.err());
        let (on_cluster, on_memory) = (on_cluster.unwrap().rows, on_memory.unwrap().rows);
        // Catalogs both sides can fill are filled on both sides.
        let both_live =
            ["system:active_requests", "system:indexes", "system:keyspaces", "system:nodes"];
        if both_live.contains(&catalog) {
            assert!(!on_cluster.is_empty(), "{catalog}: cluster rows");
            assert!(!on_memory.is_empty(), "{catalog}: memory rows");
        }
        // ...and the three both shape have one set of fields.
        if ["system:indexes", "system:keyspaces", "system:nodes"].contains(&catalog) {
            assert_eq!(fields(&on_cluster, catalog), fields(&on_memory, catalog), "{catalog}");
        }
    }
    // `system:keyspaces` counts live documents: upserted minus deleted.
    cluster.bucket("default").unwrap().remove("user::0", cbs_core::Cas::WILDCARD).unwrap();
    let rows = cluster.query("SELECT * FROM system:keyspaces", &QueryOptions::default()).unwrap();
    let count = rows.rows[0].get_field("keyspaces").and_then(|r| r.get_field("count"));
    assert_eq!(count, Some(&Value::int(4)));
    let bogus = "SELECT * FROM system:bogus";
    assert!(cluster.query(bogus, &QueryOptions::default()).is_err());
    assert!(cbs_n1ql::query(&mem, bogus, &QueryOptions::default()).is_err());
}
