//! The `system:` catalog contract, on both datastores (a `MemoryDatastore`
//! and a two-node cluster): a catalog name is resolved when the statement
//! is planned, so an unlisted one fails EXPLAIN and PREPARE too; every
//! catalog is read-only, however its name is spelled and whatever the
//! statement; and both spellings of a listed name answer.

use cbs_n1ql::MemoryDatastore;
use couchbase_repro::{ClusterConfig, CouchbaseCluster, Error, QueryOptions, QueryResult, Result};

fn check_contract(datastore: &str, run: &dyn Fn(&str) -> Result<QueryResult>) {
    run("PREPARE listed FROM SELECT 1").unwrap();
    for q in ["EXPLAIN SELECT * FROM system:bogus", "PREPARE bogus FROM SELECT * FROM system:bogus"]
    {
        match run(q) {
            Err(Error::Plan(msg)) => assert!(msg.contains("no such keyspace"), "{datastore}: {q}"),
            other => panic!("{datastore}: {q}: want a plan error, got {other:?}"),
        }
    }
    for q in [
        "DELETE FROM system:prepareds",
        "UPDATE system:indexes SET a = 1",
        "INSERT INTO `system:nodes` (KEY, VALUE) VALUES ('k', 1)",
        "CREATE INDEX ix ON system:keyspaces(name)",
    ] {
        let err = run(q).unwrap_err();
        assert!(err.to_string().contains("is read-only"), "{datastore}: {q}: {err}");
    }
    // Both spellings answer, and the refused PREPARE registered nothing.
    for q in ["SELECT * FROM SYSTEM:Prepareds", "SELECT * FROM `system:prepareds`"] {
        let rows = run(q).unwrap().rows;
        let text: Vec<String> = rows.iter().map(|r| r.to_json_string()).collect();
        assert_eq!(rows.len(), 1, "{datastore}: {q}: {text:?}");
        assert!(text[0].contains("\"listed\""), "{datastore}: {q}: {text:?}");
    }
}

#[test]
fn catalogs_resolve_at_plan_time_and_are_read_only_on_both_datastores() {
    let mem = MemoryDatastore::new();
    mem.create_keyspace("default");
    check_contract("memory", &|q| cbs_n1ql::query(&mem, q, &QueryOptions::default()));

    let cluster = CouchbaseCluster::homogeneous(2, ClusterConfig::for_test(8, 0));
    cluster.create_bucket("default").unwrap();
    check_contract("cluster", &|q| cluster.query(q, &QueryOptions::default()));
}
