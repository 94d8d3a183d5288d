//! Consistency observability end to end: the replication pumps' lag
//! tables feed `system:replication` / `system:staleness` N1QL catalogs,
//! the `ClusterStats` registry snapshot, and the Prometheus export — all
//! live, while a workload is running.

use std::time::Duration;

use couchbase_repro::{ClusterConfig, CouchbaseCluster, QueryOptions, Value};

/// `SELECT *` nests each catalog document under its keyspace alias
/// (`{"replication": {...}}`); peel that off to reach the fields.
fn doc<'a>(row: &'a Value, alias: &str) -> &'a Value {
    row.get_field(alias).unwrap_or(row)
}

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = std::time::Instant::now() + timeout;
    while std::time::Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

/// Acceptance: `SELECT * FROM system:replication` returns live
/// per-vBucket lag rows during an active workload.
#[test]
fn system_replication_returns_live_rows_during_workload() {
    const VBS: u16 = 16;
    let cluster = CouchbaseCluster::homogeneous(3, ClusterConfig::for_test(VBS, 1));
    let bucket = cluster.create_bucket("app").unwrap();

    // Keep mutations flowing while we poll the catalog, so the rows we
    // read describe an active system, not a quiesced one.
    let opts = QueryOptions::default();
    let mut i = 0u64;
    let ok = wait_until(Duration::from_secs(10), || {
        for _ in 0..20 {
            bucket.upsert(&format!("doc::{i}"), Value::object([("i", Value::from(i))])).unwrap();
            i += 1;
        }
        let rows = cluster.query("SELECT * FROM system:replication", &opts).unwrap().rows;
        // One replica per vBucket: the catalog is fully populated once the
        // pump has sampled every slot.
        rows.len() == VBS as usize
    });
    assert!(ok, "system:replication never reported all {VBS} replica slots");

    let rows = cluster.query("SELECT * FROM system:replication", &opts).unwrap().rows;
    assert_eq!(rows.len(), VBS as usize);
    for row in &rows {
        let row = doc(row, "replication");
        assert_eq!(row.get_field("bucket"), Some(&Value::from("app")));
        let vb = row.get_field("vb").and_then(Value::as_i64).expect("vb field");
        assert!((0..VBS as i64).contains(&vb), "vb out of range: {vb}");
        let replica = row.get_field("replica").unwrap().to_json_string();
        assert!(replica.starts_with("\"n"), "replica not a node name: {replica}");
        assert!(row.get_field("lag").is_some(), "lag missing: {}", row.to_json_string());
        assert!(row.get_field("ageCycles").is_some());
    }
}

/// `system:staleness` summarizes each bucket: the pump's logical clock
/// advances and the windowed lag-age distribution is exposed with
/// percentiles in pump cycles.
#[test]
fn system_staleness_summarizes_per_bucket() {
    let cluster = CouchbaseCluster::homogeneous(2, ClusterConfig::for_test(8, 1));
    let bucket = cluster.create_bucket("app").unwrap();
    for i in 0..100 {
        bucket.upsert(&format!("k{i}"), Value::from(i)).unwrap();
    }

    let opts = QueryOptions::default();
    let ok = wait_until(Duration::from_secs(10), || {
        let rows = cluster.query("SELECT * FROM system:staleness", &opts).unwrap().rows;
        rows.len() == 1
            && doc(&rows[0], "staleness")
                .get_field("cycles")
                .and_then(Value::as_i64)
                .is_some_and(|c| c > 0)
    });
    assert!(ok, "system:staleness never reported a cycling pump");

    let rows = cluster.query("SELECT * FROM system:staleness", &opts).unwrap().rows;
    let row = doc(&rows[0], "staleness");
    assert_eq!(row.get_field("bucket"), Some(&Value::from("app")));
    for field in [
        "laggingVbuckets",
        "lagMax",
        "lagTotal",
        "windowEpoch",
        "lagAgeEpisodes",
        "lagAgeP50Cycles",
        "lagAgeP95Cycles",
        "lagAgeP99Cycles",
    ] {
        assert!(row.get_field(field).is_some(), "{field} missing: {}", row.to_json_string());
    }
}

/// The per-vBucket lag rollup cbstats prints is N1QL over
/// `system:replication`, and the lag table's registry rides the
/// `ClusterStats` snapshot and the Prometheus exposition.
#[test]
fn cluster_stats_and_prometheus_carry_replication_lag() {
    let cluster = CouchbaseCluster::homogeneous(3, ClusterConfig::for_test(8, 1));
    let bucket = cluster.create_bucket("app").unwrap();
    for i in 0..50 {
        bucket.upsert(&format!("k{i}"), Value::from(i)).unwrap();
    }

    let opts = QueryOptions::default();
    let ok = wait_until(Duration::from_secs(10), || {
        !cluster.query("SELECT * FROM system:replication", &opts).unwrap().rows.is_empty()
    });
    assert!(ok, "system:replication never populated");

    let per_vb = cluster
        .query(
            "SELECT bucket, vb, MAX(lag) AS lag_max, AVG(lag) AS lag_avg \
             FROM system:replication GROUP BY bucket, vb",
            &opts,
        )
        .unwrap()
        .rows;
    assert!(!per_vb.is_empty(), "per-vBucket lag table empty");
    for row in &per_vb {
        let (text, field) = (row.to_json_string(), |f| row.get_field(f).and_then(Value::as_f64));
        assert_eq!(row.get_field("bucket"), Some(&Value::from("app")), "{text}");
        assert!(field("vb").is_some_and(|vb| vb < 8.0), "vb out of range: {text}");
        let (max, avg) = (field("lag_max"), field("lag_avg"));
        assert!(max.zip(avg).is_some_and(|(m, a)| a <= m), "avg above max: {text}");
    }

    let stats = cluster.stats();
    // The pump's logical clock is a counter, so the merged snapshot sees it.
    assert!(stats.counter("cluster.replication.cycles") > 0);

    let text = stats.prometheus();
    for needle in [
        "# TYPE cbs_cluster_replication_lag_max gauge",
        "# TYPE cbs_cluster_replication_cycles counter",
        "cbs_cluster_replication_lag_age_window",
        "cbs_cluster_replication_lag_age_window_epoch",
    ] {
        assert!(text.contains(needle), "prometheus export missing {needle}");
    }

    // The lag table is reachable directly for operator tooling.
    let lag = cluster.inner().replication_lag("app").expect("lag table for app");
    assert!(lag.cycle() > 0);
    assert_eq!(lag.bucket(), "app");
}
