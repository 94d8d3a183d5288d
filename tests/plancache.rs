//! Plan-cache and cost-based-optimizer integration tests: PREPARE/EXECUTE
//! through the cluster, epoch invalidation on DDL and flush, the
//! `system:prepareds` catalog, and the `n1ql.plancache.*` metrics that
//! make the cache's hit rate observable.

use couchbase_repro::{ClusterConfig, CouchbaseCluster, QueryOptions, Value};

fn seeded_cluster(nodes: usize, docs: i64) -> std::sync::Arc<CouchbaseCluster> {
    let cluster = CouchbaseCluster::homogeneous(nodes, ClusterConfig::for_test(32, 0));
    let bucket = cluster.create_bucket("default").unwrap();
    for i in 0..docs {
        bucket
            .upsert(
                &format!("user{i:05}"),
                Value::object([
                    ("name", Value::from(format!("user-{i}"))),
                    ("age", Value::int(i % 100)),
                ]),
            )
            .unwrap();
    }
    cluster.query("CREATE PRIMARY INDEX ON default", &QueryOptions::default()).unwrap();
    cluster
}

/// The check.sh `plancache-smoke` stage: prepare once, execute hot, and
/// require a ≥99% plan-cache hit rate plus a populated `system:prepareds`
/// row — the fig16 fast path end to end, in well under 10 seconds.
#[test]
fn plancache_smoke() {
    let cluster = seeded_cluster(2, 300);
    cluster
        .query(
            "PREPARE smoke FROM SELECT meta().id AS id FROM default \
             WHERE meta().id >= $start LIMIT $lim",
            &QueryOptions::default(),
        )
        .unwrap();
    for i in 0..100 {
        let opts = QueryOptions::with_named_args([
            ("start", Value::from(format!("user{:05}", i * 3))),
            ("lim", Value::int(10)),
        ]);
        let r = cluster.query("EXECUTE smoke", &opts).unwrap();
        assert!(!r.rows.is_empty(), "scan from user{:05} returned nothing", i * 3);
        assert_eq!(r.rows.len().min(10), r.rows.len(), "LIMIT respected");
    }

    // Hit rate ≥ 99% after warmup: PREPARE itself inserts the plan, so
    // every one of the 100 EXECUTEs is a cache hit.
    let stats = cluster.stats();
    let hits = stats.counter("n1ql.plancache.hits");
    let misses = stats.counter("n1ql.plancache.misses");
    assert!(hits >= 100, "expected >=100 plan-cache hits, got {hits}");
    let rate = hits as f64 / (hits + misses).max(1) as f64;
    assert!(rate >= 0.99, "plan-cache hit rate {rate:.3} below 0.99 (hits={hits} misses={misses})");

    // The prepared statement is visible in system:prepareds with its use
    // count and timing.
    let rows =
        cluster.query("SELECT * FROM system:prepareds", &QueryOptions::default()).unwrap().rows;
    let text = rows.iter().map(|r| r.to_json_string()).collect::<String>();
    assert!(text.contains("smoke"), "system:prepareds missing entry: {text}");
    assert!(text.contains("\"uses\":100"), "expected 100 uses in {text}");

    // And the catalog's row source, the plan cache, keys it by name.
    let prepareds = cluster.inner().plan_cache().prepared_rows();
    assert!(prepareds.iter().any(|(name, _)| name == "smoke"));
}

/// CREATE INDEX and DROP INDEX bump the keyspace epoch: cached plans that
/// depend on the keyspace are evicted, and the next EXECUTE re-plans
/// against the surviving indexes instead of scanning a dead one.
#[test]
fn ddl_invalidates_cached_plans() {
    let cluster = seeded_cluster(1, 200);
    cluster
        .query(
            "PREPARE by_age FROM SELECT name FROM default WHERE age > $min",
            &QueryOptions::default(),
        )
        .unwrap();
    let opts = QueryOptions::with_named_args([("min", Value::int(97))]);
    let before = cluster.query("EXECUTE by_age", &opts).unwrap().rows.len();
    assert_eq!(before, 4, "ages 98,99 across two hundred docs");

    let inv0 = cluster.stats().counter("n1ql.plancache.invalidations");
    cluster.query("CREATE INDEX age_idx ON default(age)", &QueryOptions::default()).unwrap();
    let inv1 = cluster.stats().counter("n1ql.plancache.invalidations");
    assert!(inv1 > inv0, "CREATE INDEX must evict cached plans for the keyspace");

    // Re-planned under the new index: same rows.
    assert_eq!(cluster.query("EXECUTE by_age", &opts).unwrap().rows.len(), before);
    let plan = cluster
        .query("EXPLAIN SELECT name FROM default WHERE age > 97", &QueryOptions::default())
        .unwrap()
        .rows[0]
        .to_json_string();
    assert!(plan.contains("age_idx"), "selective predicate should use age_idx: {plan}");

    // Drop the index out from under the cached plan: the next EXECUTE
    // must re-plan (primary scan), not scan the dead index.
    cluster.query("DROP INDEX default.age_idx", &QueryOptions::default()).unwrap();
    let inv2 = cluster.stats().counter("n1ql.plancache.invalidations");
    assert!(inv2 > inv1, "DROP INDEX must evict cached plans for the keyspace");
    assert_eq!(cluster.query("EXECUTE by_age", &opts).unwrap().rows.len(), before);
}

/// EXPLAIN prints the optimizer's estimates next to the chosen access
/// path, fed by live index-service statistics: a selective range keeps
/// the secondary index, an unselective one falls back to PrimaryScan.
#[test]
fn explain_costs_from_cluster_statistics() {
    let cluster = seeded_cluster(1, 200);
    cluster.query("CREATE INDEX age_idx ON default(age)", &QueryOptions::default()).unwrap();

    let selective = cluster
        .query("EXPLAIN SELECT name FROM default WHERE age > 97", &QueryOptions::default())
        .unwrap()
        .rows[0]
        .to_json_string();
    assert!(selective.contains("IndexScan"), "selective range should keep age_idx: {selective}");
    for field in ["\"cost\"", "\"cardinality\"", "\"statsUsed\":true"] {
        assert!(selective.contains(field), "missing {field} in {selective}");
    }

    let unselective = cluster
        .query("EXPLAIN SELECT name FROM default WHERE age >= 0", &QueryOptions::default())
        .unwrap()
        .rows[0]
        .to_json_string();
    assert!(
        unselective.contains("PrimaryScan"),
        "all-rows range should price out to a primary scan: {unselective}"
    );
}

/// Flushing a keyspace bumps its epoch: plans cached against the old
/// contents are evicted and statistics are recollected, exercised at the
/// embedded (MemoryDatastore) level where flush exists.
#[test]
fn flush_evicts_plans_and_stats() {
    use cbs_n1ql::{query, MemoryDatastore};
    let ds = MemoryDatastore::new();
    ds.create_keyspace("b");
    ds.load("b", (0..50).map(|i| (format!("k{i:03}"), Value::object([("n", Value::int(i))]))));
    query(&ds, "CREATE PRIMARY INDEX ON b", &QueryOptions::default()).unwrap();

    query(&ds, "PREPARE all_b FROM SELECT n FROM b", &QueryOptions::default()).unwrap();
    assert_eq!(query(&ds, "EXECUTE all_b", &QueryOptions::default()).unwrap().rows.len(), 50);

    let cache = cbs_n1ql::Datastore::plan_cache(&ds).unwrap();
    let inv0 = cache.invalidations();
    ds.flush_keyspace("b").unwrap();
    assert!(cache.invalidations() > inv0, "flush must evict plans depending on the keyspace");

    // Re-planned against the empty keyspace; statistics recollect lazily
    // (empty → unavailable → rule-based planning) and the query still runs.
    assert_eq!(query(&ds, "EXECUTE all_b", &QueryOptions::default()).unwrap().rows.len(), 0);
    ds.load("b", [("k1".to_string(), Value::object([("n", Value::int(1))]))]);
    assert_eq!(query(&ds, "EXECUTE all_b", &QueryOptions::default()).unwrap().rows.len(), 1);
}

/// EXECUTE of an unknown name and PREPARE name reuse behave sanely.
#[test]
fn prepared_lifecycle_edges() {
    let cluster = seeded_cluster(1, 50);
    let err = cluster.query("EXECUTE nope", &QueryOptions::default()).unwrap_err();
    assert!(err.to_string().contains("no such prepared statement"), "got: {err}");

    cluster
        .query(
            "PREPARE p FROM SELECT meta().id AS id FROM default LIMIT 1",
            &QueryOptions::default(),
        )
        .unwrap();
    cluster.query("EXECUTE p", &QueryOptions::default()).unwrap();
    // Re-preparing the same name replaces the entry and resets counters.
    cluster
        .query(
            "PREPARE p FROM SELECT meta().id AS id FROM default LIMIT 2",
            &QueryOptions::default(),
        )
        .unwrap();
    let r = cluster.query("EXECUTE p", &QueryOptions::default()).unwrap();
    assert_eq!(r.rows.len(), 2, "EXECUTE must run the re-prepared statement");
}

/// What the counters count: an EXECUTE served by its prepared plan is a
/// hit, one that re-planned after DDL is a miss, and an ad-hoc statement,
/// planned on every request, is neither.
#[test]
fn hits_and_misses_count_executes_only() {
    let cluster = seeded_cluster(1, 100);
    let counters = || {
        let stats = cluster.stats();
        (stats.counter("n1ql.plancache.hits"), stats.counter("n1ql.plancache.misses"))
    };
    let run = |statement: &str| cluster.query(statement, &QueryOptions::default()).unwrap();
    let (hits0, misses0) = counters();
    run("PREPARE old FROM SELECT name FROM default WHERE age > 97");
    for _ in 0..3 {
        assert_eq!(run("EXECUTE old").rows.len(), 2);
    }
    assert_eq!(counters(), (hits0 + 3, misses0), "PREPARE plans; every EXECUTE is a hit");

    run("CREATE INDEX age_idx ON default(age)");
    assert_eq!(run("EXECUTE old").rows.len(), 2);
    assert_eq!(counters(), (hits0 + 3, misses0 + 1), "the first EXECUTE after DDL re-plans");
    assert_eq!(run("EXECUTE old").rows.len(), 2);
    assert_eq!(counters(), (hits0 + 4, misses0 + 1), "and stores the new plan");

    for _ in 0..2 {
        assert_eq!(run("SELECT name FROM default WHERE age > 97").rows.len(), 2);
    }
    assert_eq!(counters(), (hits0 + 4, misses0 + 1), "ad-hoc statements touch no counter");
}

/// A prepared statement keeps a plan alone, and an EXPLAIN's or a
/// PROFILE's plan is its inner statement's, so EXECUTE would run that
/// statement instead of explaining it. PREPARE refuses both and registers
/// nothing; the ad-hoc EXPLAIN still answers with its plan row. Through
/// the cluster and on the in-memory datastore.
#[test]
fn prepare_refuses_explain_and_profile() {
    use cbs_n1ql::MemoryDatastore;
    let cluster = seeded_cluster(1, 3);
    let ds = MemoryDatastore::new();
    ds.create_keyspace("default");
    ds.load("default", (0..3).map(|i| (format!("k{i}"), Value::object([("n", Value::int(i))]))));
    let opts = QueryOptions::default();
    cbs_n1ql::query(&ds, "CREATE PRIMARY INDEX ON default", &opts).unwrap();
    let run = |on_cluster: bool, statement: &str| {
        if on_cluster {
            cluster.query(statement, &opts)
        } else {
            cbs_n1ql::query(&ds, statement, &opts)
        }
    };
    for on_cluster in [true, false] {
        for (name, wrapper) in [("x", "EXPLAIN"), ("y", "PROFILE")] {
            let prepare = format!("PREPARE {name} FROM {wrapper} SELECT n FROM default");
            let err = run(on_cluster, &prepare).unwrap_err();
            assert!(matches!(err, couchbase_repro::Error::Plan(_)), "{err:?}");
            assert!(err.to_string().contains("cannot PREPARE"), "{err}");
            let err = run(on_cluster, &format!("EXECUTE {name}")).unwrap_err();
            assert!(err.to_string().contains("no such prepared statement"), "{err}");
        }
        let rows = run(on_cluster, "EXPLAIN SELECT n FROM default").unwrap().rows;
        assert_eq!(rows.len(), 1, "one plan row: {rows:?}");
        let plan = rows[0].to_json_string();
        assert!(plan.contains("PrimaryScan"), "the ad-hoc EXPLAIN answers with its plan: {plan}");
    }
}
