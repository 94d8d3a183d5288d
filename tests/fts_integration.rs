//! Full-text search (§6.1.3) over the cluster: DCP-fed inverted index,
//! consistent search, survival across failover.

use std::time::Duration;

use couchbase_repro::{ClusterConfig, CouchbaseCluster, FtsIndexDef, NodeId, SearchQuery, Value};

fn article(title: &str, body: &str) -> Value {
    Value::object([("title", Value::from(title)), ("body", Value::from(body))])
}

#[test]
fn fts_end_to_end_with_consistency() {
    let cluster = CouchbaseCluster::homogeneous(2, ClusterConfig::for_test(32, 0));
    let bucket = cluster.create_bucket("wiki").unwrap();
    cluster
        .create_fts_index(FtsIndexDef {
            name: "articles".to_string(),
            keyspace: "wiki".to_string(),
            fields: None,
        })
        .unwrap();

    bucket
        .upsert("a1", article("Distributed Systems", "Consensus and replication protocols"))
        .unwrap();
    bucket
        .upsert("a2", article("Database Internals", "B-tree indexes and replication logs"))
        .unwrap();
    bucket.upsert("a3", article("Cooking 101", "How to make pasta")).unwrap();

    // Consistent search sees every acknowledged write immediately.
    let hits = cluster
        .fts_search("wiki", "articles", &SearchQuery::Term("replication".to_string()), 0, true)
        .unwrap();
    assert_eq!(hits.len(), 2);

    // Phrase search.
    let hits = cluster
        .fts_search(
            "wiki",
            "articles",
            &SearchQuery::Phrase(vec!["make".to_string(), "pasta".to_string()]),
            0,
            true,
        )
        .unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].doc_id, "a3");

    // Prefix search.
    let hits = cluster
        .fts_search("wiki", "articles", &SearchQuery::Prefix("repli".to_string()), 0, true)
        .unwrap();
    assert_eq!(hits.len(), 2);

    // Update re-indexes; delete removes.
    bucket.upsert("a3", article("Baking", "Bread and butter")).unwrap();
    let hits = cluster
        .fts_search("wiki", "articles", &SearchQuery::Term("pasta".to_string()), 0, true)
        .unwrap();
    assert!(hits.is_empty(), "old terms gone after update");
    bucket.remove("a2", couchbase_repro::Cas::WILDCARD).unwrap();
    let hits = cluster
        .fts_search("wiki", "articles", &SearchQuery::Term("replication".to_string()), 0, true)
        .unwrap();
    assert_eq!(hits.len(), 1, "deleted doc removed from the index");
}

#[test]
fn fts_survives_failover() {
    let cluster = CouchbaseCluster::homogeneous(3, ClusterConfig::for_test(32, 1));
    let bucket = cluster.create_bucket("wiki").unwrap();
    cluster
        .create_fts_index(FtsIndexDef {
            name: "s".to_string(),
            keyspace: "wiki".to_string(),
            fields: None,
        })
        .unwrap();
    for i in 0..30 {
        bucket.upsert(&format!("doc{i}"), article("shared term", &format!("body {i}"))).unwrap();
    }
    let hits =
        cluster.fts_search("wiki", "s", &SearchQuery::Term("shared".to_string()), 0, true).unwrap();
    assert_eq!(hits.len(), 30);

    // Kill + fail over a node; the pump re-opens streams from the new
    // actives and searches keep working (including for new writes).
    cluster.kill_node(NodeId(1)).unwrap();
    cluster.failover(NodeId(1)).unwrap();
    // Let replication/sequence state settle before relying on seqno vector.
    std::thread::sleep(Duration::from_millis(100));
    bucket.upsert("post-failover", article("shared too", "fresh")).unwrap();
    let hits =
        cluster.fts_search("wiki", "s", &SearchQuery::Term("shared".to_string()), 0, true).unwrap();
    assert_eq!(hits.len(), 31, "index keeps up through failover");
}

#[test]
fn fts_errors() {
    let cluster = CouchbaseCluster::single_node();
    cluster.create_bucket("b").unwrap();
    assert!(
        cluster
            .create_fts_index(FtsIndexDef {
                name: "x".to_string(),
                keyspace: "missing".to_string(),
                fields: None
            })
            .is_err(),
        "bucket must exist"
    );
    assert!(cluster
        .fts_search("b", "nope", &SearchQuery::Term("t".to_string()), 0, false)
        .is_err());
}

/// An index created over a loaded bucket is built from it: a search finds
/// every document written before the index existed, and a consistent
/// search answers at once instead of waiting for writes the feed will
/// never deliver again.
#[test]
fn fts_index_created_after_the_load_finds_every_document() {
    let cluster = CouchbaseCluster::homogeneous(2, ClusterConfig::for_test(32, 1));
    let bucket = cluster.create_bucket("wiki").unwrap();
    for i in 0..20 {
        bucket.upsert(&format!("a{i}"), article(&format!("Entry {i}"), "loaded first")).unwrap();
    }
    cluster
        .create_fts_index(FtsIndexDef {
            name: "late".to_string(),
            keyspace: "wiki".to_string(),
            fields: None,
        })
        .unwrap();

    let loaded = SearchQuery::Term("loaded".to_string());
    assert_eq!(cluster.fts_search("wiki", "late", &loaded, 0, false).unwrap().len(), 20);
    let started = std::time::Instant::now();
    assert_eq!(cluster.fts_search("wiki", "late", &loaded, 0, true).unwrap().len(), 20);
    assert!(started.elapsed() < Duration::from_secs(5), "{:?}", started.elapsed());
}
