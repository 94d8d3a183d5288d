//! Ablation A3 (§5.1 "Tuning for OLTP performance"): the access-path
//! hierarchy.
//!
//! "The fastest data access will be via key-value look-ups or N1QL's USE
//! KEYS clause" (§5.1.1); "covered queries, that is, queries that get all
//! their information from the index, deliver better performance" (§5.1.2);
//! and PrimaryScan "is quite expensive, and the average time to return
//! results increases linearly with number of documents in the bucket"
//! (§4.5.3).
//!
//! Shape checks: KV get < USE KEYS < covering IndexScan < non-covering
//! IndexScan < PrimaryScan; PrimaryScan time grows ~linearly with N.
//!
//! ```text
//! cargo run -q --release --example ablation_access_paths
//! CBS_RECORDS=2000 CBS_OPS=100 cargo run -q --release --example ablation_access_paths
//! ```

use std::time::Instant;

use cbs_obs::Histogram;
use couchbase_repro::{ClusterConfig, CouchbaseCluster, QueryOptions, Value};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() {
    let n = env_u64("CBS_RECORDS", 5_000);
    let reps = env_u64("CBS_OPS", 300);
    let cluster = CouchbaseCluster::homogeneous(2, ClusterConfig::for_test(128, 0));
    let bucket = cluster.create_bucket("default").expect("bucket");
    for i in 0..n {
        bucket
            .upsert(
                &format!("doc{i:08}"),
                Value::object([
                    ("age", Value::int((i % 80) as i64)),
                    ("name", Value::from(format!("u{i}"))),
                ]),
            )
            .expect("seed");
    }
    let opts = QueryOptions::default();
    cluster.query("CREATE PRIMARY INDEX ON default", &opts).expect("primary");
    cluster.query("CREATE INDEX age_idx ON default(age)", &opts).expect("gsi");

    println!("Ablation A3: access-path latency hierarchy ({n} docs, {reps} reps each)");
    println!("\n== access paths ==");
    println!("path\tmean\tp95");

    let mut rows: Vec<(&str, Histogram)> = Vec::new();

    // 1. Raw KV get.
    let h = Histogram::new();
    for i in 0..reps {
        let key = format!("doc{:08}", i % n);
        let t = Instant::now();
        bucket.get(&key).expect("get");
        h.record(t.elapsed());
    }
    rows.push(("kv get", h));

    // 2. N1QL USE KEYS.
    let h = Histogram::new();
    for i in 0..reps {
        let key = format!("doc{:08}", i % n);
        let t = Instant::now();
        cluster
            .query(&format!("SELECT d.* FROM default d USE KEYS '{key}'"), &opts)
            .expect("use keys");
        h.record(t.elapsed());
    }
    rows.push(("N1QL USE KEYS", h));

    // 3. Covering index scan (only `age` + meta().id needed).
    let h = Histogram::new();
    for i in 0..reps {
        let age = i % 80;
        let t = Instant::now();
        cluster
            .query(&format!("SELECT age FROM default WHERE age = {age}"), &opts)
            .expect("covering");
        h.record(t.elapsed());
    }
    rows.push(("IndexScan (covering)", h));

    // 4. Non-covering index scan (`name` forces a Fetch per row, §4.5.1).
    let h = Histogram::new();
    for i in 0..reps {
        let age = i % 80;
        let t = Instant::now();
        cluster
            .query(&format!("SELECT name FROM default WHERE age = {age}"), &opts)
            .expect("fetching");
        h.record(t.elapsed());
    }
    rows.push(("IndexScan + Fetch", h));

    // 5. PrimaryScan (predicate no index can serve).
    let h = Histogram::new();
    for _ in 0..reps.min(50) {
        let t = Instant::now();
        cluster.query("SELECT name FROM default WHERE name = 'u17'", &opts).expect("primary scan");
        h.record(t.elapsed());
    }
    rows.push(("PrimaryScan (full)", h));

    for (name, h) in &rows {
        let h = h.snapshot();
        println!(
            "{name}\t{:?}\t{:?}",
            h.mean().unwrap_or_default(),
            h.percentile(95.0).unwrap_or_default()
        );
    }

    // Linear-growth check for PrimaryScan (§4.5.3).
    println!("\nPrimaryScan growth with bucket size:");
    for size in [n, n * 2] {
        for i in n..size {
            bucket
                .upsert(&format!("doc{i:08}"), Value::object([("age", Value::int(1))]))
                .expect("grow");
        }
        let t = Instant::now();
        cluster.query("SELECT name FROM default WHERE name = 'u17'", &opts).expect("scan");
        println!("  {size} docs: {:?}", t.elapsed());
    }
    println!("\nshape: kv < USE KEYS < covering < +Fetch < PrimaryScan (§5.1, §4.5.3)");
}
