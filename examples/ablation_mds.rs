//! Ablation A6 (§4.4 "Multi-dimensional Scaling"): co-located vs separated
//! services under a mixed KV + query workload.
//!
//! "This allows Couchbase users to scale workloads independently based on
//! their needs." With everything co-located, an expensive query workload
//! steals cycles from the KV front-end; separating the query/index
//! services onto their own nodes protects KV tail latency — the "protect
//! the front-end" principle of §2.2.
//!
//! Shape check: KV p99 with separated services ≤ KV p99 co-located, under
//! the same concurrent query pressure.
//!
//! ```text
//! cargo run -q --release --example ablation_mds
//! CBS_OPS=2000 cargo run -q --release --example ablation_mds
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cbs_obs::{Histogram, HistogramSnapshot};
use couchbase_repro::{ClusterConfig, CouchbaseCluster, QueryOptions, ServiceSet, Value};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn run_topology(services: Vec<ServiceSet>, kv_ops: u64) -> HistogramSnapshot {
    let cluster = CouchbaseCluster::with_services(services, ClusterConfig::for_test(128, 0));
    let bucket = cluster.create_bucket("default").expect("bucket");
    for i in 0..5_000 {
        bucket.upsert(&format!("d{i}"), Value::object([("n", Value::int(i))])).expect("seed");
    }
    cluster.query("CREATE PRIMARY INDEX ON default", &QueryOptions::default()).expect("pk");

    // Query pressure: threads running expensive full scans.
    let stop = Arc::new(AtomicBool::new(false));
    let mut queriers = Vec::new();
    for _ in 0..4 {
        let cluster = Arc::clone(&cluster);
        let stop = Arc::clone(&stop);
        queriers.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let _ = cluster.query(
                    "SELECT COUNT(*) AS n FROM default WHERE n % 7 = 3",
                    &QueryOptions::default(),
                );
            }
        }));
    }

    // Foreground KV workload.
    let hist = Histogram::new();
    for i in 0..kv_ops {
        let key = format!("d{}", i % 5_000);
        let t = Instant::now();
        bucket.get(&key).expect("get");
        hist.record(t.elapsed());
    }
    stop.store(true, Ordering::Relaxed);
    for q in queriers {
        let _ = q.join();
    }
    hist.snapshot()
}

fn main() {
    let kv_ops = env_u64("CBS_OPS", 20_000);
    println!("Ablation A6: MDS — KV latency under concurrent heavy queries ({kv_ops} gets)");
    println!("\n== topologies ==");
    println!("topology\tkv mean\tkv p95\tkv p99");

    let results = [
        ("co-located (4x all services)", run_topology(vec![ServiceSet::all(); 4], kv_ops)),
        (
            "separated (2x data, 1x index, 1x query)",
            run_topology(
                vec![
                    ServiceSet::data_only(),
                    ServiceSet::data_only(),
                    ServiceSet::index_only(),
                    ServiceSet::query_only(),
                ],
                kv_ops,
            ),
        ),
    ];
    for (name, h) in &results {
        println!(
            "{name}\t{:?}\t{:?}\t{:?}",
            h.mean().unwrap_or_default(),
            h.percentile(95.0).unwrap_or_default(),
            h.percentile(99.0).unwrap_or_default()
        );
    }
    println!("\nshape: separating services isolates the KV front-end from query load (§4.4, §2.2)");
}
