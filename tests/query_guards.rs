//! Two query-service guarantees, through the cluster's query entry point
//! (`ClusterDatastore::query`) on a one-node cluster:
//!
//! - no statement can abort the process: one that nests too deeply is a
//!   parse error, and the service answers the next query;
//! - a plan is priced from the keyspace as it is when the statement is
//!   planned, not as it was at the last index DDL, and an ad-hoc statement
//!   is planned on every run, however often its text repeats. The same
//!   cases run on the in-memory datastore.

use std::time::Duration;

use cbs_index::{ScanConsistency, ScanRange};
use cbs_n1ql::MemoryDatastore;
use couchbase_repro::{ClusterConfig, CouchbaseCluster, QueryOptions, Result, Value};

fn one_node() -> std::sync::Arc<CouchbaseCluster> {
    CouchbaseCluster::homogeneous(1, ClusterConfig::for_test(32, 0))
}

fn person(age: i64) -> Value {
    Value::object([("age", Value::int(age))])
}

#[test]
fn deep_nesting_is_refused_and_the_service_answers() {
    let cluster = one_node();
    let bucket = cluster.create_bucket("p").unwrap();
    bucket.upsert("k1", person(1)).unwrap();
    let opts = QueryOptions::default();
    cluster.query("CREATE PRIMARY INDEX ON p", &opts).unwrap();

    let parens = format!("SELECT {}1{} AS x FROM p", "(".repeat(1_000), ")".repeat(1_000));
    let nots = format!("SELECT age FROM p WHERE {}true", "NOT ".repeat(100_000));
    for statement in [parens, nots] {
        let err = cluster.query(&statement, &opts).unwrap_err();
        assert!(err.to_string().contains("nests deeper"), "{err}");
    }

    let rows = cluster.query("SELECT age FROM p", &opts.request_plus()).unwrap().rows;
    assert_eq!(rows, [person(1)]);
}

/// What a stale plan looks like: 10 documents, then 990 more with no DDL
/// in between. Priced from the first 10, `age >= 6` selects 3.33 entries
/// and keeps `age_idx`; priced from all 1 000 it selects 994 and a
/// primary scan (1 000 fetches at cost 5) is cheaper.
fn plans_from_current_statistics(
    query: &dyn Fn(&str) -> Result<Vec<Value>>,
    load: &dyn Fn(std::ops::Range<i64>),
) {
    load(0..10);
    query("CREATE INDEX age_idx ON p(age)").unwrap();
    query("CREATE PRIMARY INDEX ON p").unwrap();
    let explain = |statement: &str| query(statement).unwrap()[0].to_json_string();
    let plan = explain("EXPLAIN SELECT age FROM p WHERE age >= 5");
    assert!(
        plan.contains("\"index\":\"age_idx\"") && plan.contains("\"cardinality\":4.44"),
        "{plan}"
    );

    load(10..1_000);
    let plan = explain("EXPLAIN SELECT * FROM p WHERE age >= 6");
    assert!(plan.contains("PrimaryScan") && !plan.contains("IndexScan"), "{plan}");
    assert!(plan.contains("\"cardinality\":1000") && plan.contains("\"cost\":5000"), "{plan}");
}

#[test]
fn memory_datastore_plans_from_current_statistics() {
    let ds = MemoryDatastore::new();
    ds.create_keyspace("p");
    let query = |s: &str| cbs_n1ql::query(&ds, s, &QueryOptions::default()).map(|r| r.rows);
    let load =
        |ages: std::ops::Range<i64>| ds.load("p", ages.map(|a| (format!("k{a}"), person(a))));
    plans_from_current_statistics(&query, &load);
}

#[test]
fn cluster_plans_from_current_statistics() {
    let cluster = one_node();
    let bucket = cluster.create_bucket("p").unwrap();
    let query = |s: &str| cluster.query(s, &QueryOptions::default()).map(|r| r.rows);
    // Upsert through KV, then wait until every index has applied the
    // writes: the statistics are the index service's counters.
    let load = |ages: std::ops::Range<i64>| {
        for a in ages {
            bucket.upsert(&format!("k{a}"), person(a)).unwrap();
        }
        let inner = cluster.inner();
        let Ok(mgr) = inner.index_manager() else { return };
        let upto = ScanConsistency::AtPlus(inner.seqno_vector("p").unwrap());
        for def in mgr.list_online("p") {
            let timeout = Duration::from_secs(30);
            mgr.scan("p", &def.name, &ScanRange::all(), &upto, timeout, 1).unwrap();
        }
    };
    plans_from_current_statistics(&query, &load);
}

/// The stale-plan case through an ad-hoc statement: the same text, run
/// after 10 documents and again after 990 more with no DDL in between, is
/// planned afresh each time, so the second run is a primary scan. Each run
/// is kept in `system:completed_requests` (zero slow threshold) under its
/// client context id, and the plan summary is read from there.
fn adhoc_statement_plans_from_current_statistics(
    query: &dyn Fn(&str, QueryOptions) -> Result<Vec<Value>>,
    load: &dyn Fn(std::ops::Range<i64>),
) {
    let statement = "SELECT * FROM p WHERE age >= 6";
    let run = |id: &str| {
        let opts = QueryOptions::default().slow_threshold(Duration::ZERO).client_context_id(id);
        query(statement, opts).unwrap().len()
    };
    let plan_of = |id: &str| {
        let rows = query("SELECT * FROM system:completed_requests", QueryOptions::default());
        let row = rows
            .unwrap()
            .into_iter()
            .filter_map(|r| r.get_field("completed_requests").cloned())
            .find(|r| r.get_field("clientContextID").and_then(Value::as_str) == Some(id))
            .unwrap();
        row.get_field("plan").and_then(Value::as_str).unwrap().to_string()
    };

    load(0..10);
    query("CREATE INDEX age_idx ON p(age)", QueryOptions::default()).unwrap();
    query("CREATE PRIMARY INDEX ON p", QueryOptions::default()).unwrap();
    assert_eq!(run("first"), 4);
    let plan = plan_of("first");
    assert!(plan.starts_with("IndexScan(age_idx) -> Fetch"), "{plan}");

    load(10..1_000);
    assert_eq!(run("second"), 994);
    let plan = plan_of("second");
    assert!(plan.starts_with("PrimaryScan -> Fetch"), "{plan}");
}

#[test]
fn memory_datastore_plans_a_repeated_adhoc_statement_from_current_statistics() {
    let ds = MemoryDatastore::new();
    ds.create_keyspace("p");
    let query = |s: &str, opts: QueryOptions| cbs_n1ql::query(&ds, s, &opts).map(|r| r.rows);
    let load =
        |ages: std::ops::Range<i64>| ds.load("p", ages.map(|a| (format!("k{a}"), person(a))));
    adhoc_statement_plans_from_current_statistics(&query, &load);
}

#[test]
fn cluster_plans_a_repeated_adhoc_statement_from_current_statistics() {
    let cluster = one_node();
    let bucket = cluster.create_bucket("p").unwrap();
    let query = |s: &str, opts: QueryOptions| cluster.query(s, &opts).map(|r| r.rows);
    let load = |ages: std::ops::Range<i64>| {
        for a in ages {
            bucket.upsert(&format!("k{a}"), person(a)).unwrap();
        }
        let inner = cluster.inner();
        let Ok(mgr) = inner.index_manager() else { return };
        let upto = ScanConsistency::AtPlus(inner.seqno_vector("p").unwrap());
        for def in mgr.list_online("p") {
            let timeout = Duration::from_secs(30);
            mgr.scan("p", &def.name, &ScanRange::all(), &upto, timeout, 1).unwrap();
        }
    };
    adhoc_statement_plans_from_current_statistics(&query, &load);
}
