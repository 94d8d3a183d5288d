//! Property-based cross-component equivalence tests.
//!
//! The load-bearing invariant of the whole indexing architecture: for any
//! data set and any (sargable) predicate, a secondary-index plan must
//! return exactly the rows a PrimaryScan returns — the index is an
//! optimization, never a semantic change. Both sides of that comparison
//! read through the index service (a PrimaryScan scans the primary index,
//! then fetches), so the ground truth is the second property: the
//! cluster-backed datastore must agree with the in-memory reference
//! datastore on the same documents and queries.

use proptest::prelude::*;

use couchbase_repro::{ClusterConfig, CouchbaseCluster, QueryOptions, Value};

/// A document. Its field named `a.b` and its nested path `a`→`b` hold
/// integers from disjoint ranges, so reading one for the other never finds
/// the right value.
fn arb_doc() -> impl Strategy<Value = Value> {
    (0i64..100, "[a-c]{1,3}", prop::collection::vec(0i64..5, 0..4), any::<bool>(), 0i64..4, 4i64..8)
        .prop_map(|(age, city, nums, active, flat, nested)| {
            Value::object([
                ("age", Value::int(age)),
                ("city", Value::from(city)),
                ("nums", Value::Array(nums.into_iter().map(Value::int).collect())),
                ("active", Value::Bool(active)),
                ("a.b", Value::int(flat)),
                ("a", Value::object([("b", Value::int(nested))])),
            ])
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// IndexScan == PrimaryScan for random datasets and range predicates,
    /// and an index on the nested path `a`→`b` changes nothing for a
    /// predicate on the field named `a.b`.
    #[test]
    fn index_scan_equals_primary_scan(
        docs in prop::collection::vec(arb_doc(), 1..40),
        low in 0i64..100,
        width in 1i64..50,
        v in 0i64..4,
    ) {
        let cluster = CouchbaseCluster::homogeneous(2, ClusterConfig::for_test(16, 0));
        let bucket = cluster.create_bucket("b").unwrap();
        for (i, d) in docs.iter().enumerate() {
            bucket.upsert(&format!("d{i:03}"), d.clone()).unwrap();
        }
        let opts = QueryOptions::default().request_plus();
        // Primary-scan evaluation (no secondary index exists yet).
        cluster.query("CREATE PRIMARY INDEX ON b", &QueryOptions::default()).unwrap();
        let high = low + width;
        let q = format!(
            "SELECT META().id AS id, age FROM b WHERE age >= {low} AND age < {high} ORDER BY id"
        );
        let via_primary = cluster.query(&q, &opts).unwrap().rows;
        // Now add the index; the planner must switch to IndexScan.
        cluster.query("CREATE INDEX by_age ON b(age)", &QueryOptions::default()).unwrap();
        let explain = cluster.query(&format!("EXPLAIN {q}"), &opts).unwrap().rows;
        prop_assert!(
            explain[0].to_json_string().contains("IndexScan"),
            "planner must use the index: {}",
            explain[0]
        );
        let via_index = cluster.query(&q, &opts).unwrap().rows;
        prop_assert_eq!(via_primary, via_index);

        let q = format!("SELECT META().id AS id FROM b WHERE `a.b` = {v} ORDER BY id");
        let without = cluster.query(&q, &opts).unwrap().rows;
        cluster.query("CREATE INDEX by_ab ON b(a.b)", &QueryOptions::default()).unwrap();
        let with = cluster.query(&q, &opts).unwrap().rows;
        prop_assert_eq!(without, with);
    }

    /// The cluster datastore agrees with the single-process reference
    /// implementation on identical documents + queries.
    #[test]
    fn cluster_agrees_with_memory_reference(
        docs in prop::collection::vec(arb_doc(), 1..30),
        pivot in 0i64..100,
    ) {
        use cbs_n1ql::{Datastore, MemoryDatastore};
        let cluster = CouchbaseCluster::homogeneous(3, ClusterConfig::for_test(16, 0));
        let bucket = cluster.create_bucket("b").unwrap();
        let mem = MemoryDatastore::new();
        mem.create_keyspace("b");
        for (i, d) in docs.iter().enumerate() {
            let key = format!("d{i:03}");
            bucket.upsert(&key, d.clone()).unwrap();
            Datastore::upsert(&mem, "b", &key, d.clone()).unwrap();
        }
        cluster.query("CREATE PRIMARY INDEX ON b", &QueryOptions::default()).unwrap();
        Datastore::create_index(&mem, cbs_index::IndexDef::primary("#primary", "b")).unwrap();
        for q in [
            format!("SELECT META().id AS id FROM b WHERE age > {pivot} ORDER BY id"),
            "SELECT city, COUNT(*) AS n FROM b GROUP BY city ORDER BY city".to_string(),
            "SELECT DISTINCT active FROM b ORDER BY active".to_string(),
            "SELECT META().id AS id FROM b WHERE ANY x IN nums SATISFIES x = 3 END ORDER BY id"
                .to_string(),
            format!("SELECT SUM(age) AS s, MIN(age) AS lo, MAX(age) AS hi FROM b WHERE age != {pivot}"),
        ] {
            let a = cluster.query(&q, &QueryOptions::default().request_plus()).unwrap().rows;
            let b2 = cbs_n1ql::query(&mem, &q, &QueryOptions::default()).unwrap().rows;
            prop_assert_eq!(a, b2, "query: {}", q);
        }
        // LIMIT above an aggregate and above an inner join that drops the
        // inactive documents: agreeing is not enough, the answers are known.
        let count = Value::object([("n", Value::from(docs.len()))]);
        let first_two: Vec<Value> = docs
            .iter()
            .enumerate()
            .filter(|(_, d)| d.get_field("active") == Some(&Value::Bool(true)))
            .take(2)
            .map(|(i, _)| Value::object([("id", Value::from(format!("d{i:03}")))]))
            .collect();
        for (q, expected) in [
            (r#"SELECT COUNT(*) AS n FROM b WHERE META().id >= "d000" LIMIT 2"#, vec![count]),
            (
                r#"SELECT META(b).id AS id FROM b JOIN b c ON KEYS CASE WHEN b.active THEN META(b).id END
                   WHERE META(b).id >= "d000" LIMIT 2"#,
                first_two,
            ),
        ] {
            let a = cluster.query(q, &QueryOptions::default().request_plus()).unwrap().rows;
            let b2 = cbs_n1ql::query(&mem, q, &QueryOptions::default()).unwrap().rows;
            prop_assert_eq!(&a, &expected, "cluster: {}", q);
            prop_assert_eq!(&b2, &expected, "memory: {}", q);
        }
        // UPDATE and DELETE through a GSI index on the cluster (its only
        // index), through the primary on the reference. Neither request asks
        // for request_plus: DML waits for the index anyway, so the write
        // just before it is among its targets.
        cluster.query("CREATE INDEX by_age ON b(age)", &QueryOptions::default()).unwrap();
        cluster.query("DROP INDEX b.`#primary`", &QueryOptions::default()).unwrap();
        let late = Value::object([("age", Value::int(100))]);
        bucket.upsert("late", late.clone()).unwrap();
        Datastore::upsert(&mem, "b", "late", late).unwrap();
        for q in [
            format!("UPDATE b SET older = true, age = age + 1 WHERE age > {pivot}"),
            format!("DELETE FROM b WHERE age < {pivot}"),
        ] {
            let explain = cluster.query(&format!("EXPLAIN {q}"), &QueryOptions::default()).unwrap();
            prop_assert!(explain.rows[0].to_json_string().contains("by_age"), "{}", explain.rows[0]);
            let a = cluster.query(&q, &QueryOptions::default()).unwrap().metrics.mutation_count;
            let b2 = cbs_n1ql::query(&mem, &q, &QueryOptions::default()).unwrap().metrics.mutation_count;
            prop_assert_eq!(a, b2, "mutations: {}", q);
        }
        let q = "SELECT META().id AS id, b.* FROM b WHERE age >= 0 ORDER BY id";
        let a = cluster.query(q, &QueryOptions::default().request_plus()).unwrap().rows;
        let b2 = cbs_n1ql::query(&mem, q, &QueryOptions::default()).unwrap().rows;
        prop_assert!(a.iter().any(|r| r.get_field("id") == Some(&Value::from("late"))));
        prop_assert_eq!(a, b2, "documents left by UPDATE and DELETE");
    }
}

#[test]
fn view_reduce_equals_manual_aggregation() {
    use couchbase_repro::{DesignDoc, MapExpr, MapFn, Reducer, Stale, ViewDef, ViewQuery};
    let cluster = CouchbaseCluster::homogeneous(2, ClusterConfig::for_test(32, 0));
    let bucket = cluster.create_bucket("b").unwrap();
    let mut expected_sum = 0i64;
    for i in 0..200i64 {
        let amount = (i * 37) % 101;
        expected_sum += amount;
        bucket.upsert(&format!("d{i}"), Value::object([("amount", Value::int(amount))])).unwrap();
    }
    cluster
        .create_design_doc(
            "b",
            DesignDoc {
                name: "dd".to_string(),
                views: vec![(
                    "sum".to_string(),
                    ViewDef {
                        map: MapFn {
                            when: vec![],
                            key: MapExpr::DocId,
                            value: Some(MapExpr::field("amount")),
                        },
                        reduce: Some(Reducer::Sum),
                    },
                )],
            },
        )
        .unwrap();
    let res = cluster
        .view_query(
            "b",
            "dd",
            "sum",
            &ViewQuery { stale: Stale::False, reduce: true, ..Default::default() },
        )
        .unwrap();
    assert_eq!(res.rows[0].value, Value::int(expected_sum));
}
