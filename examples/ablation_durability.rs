//! Ablation A1 (§2.3.2 "Durability guarantees"): write latency by
//! durability requirement.
//!
//! "Most users choose to receive a response immediately once the data hits
//! memory or in some cases may choose to first replicate the data to one
//! other node for safety. Since replication is memory-to-memory, the
//! latency hit with the replication option is significantly less than
//! waiting for persistence."
//!
//! Shape check: latency(none) < latency(replicate_to=1) < latency(persist).
//!
//! ```text
//! cargo run -q --release --example ablation_durability
//! CBS_OPS=200 cargo run -q --release --example ablation_durability
//! ```

use std::time::{Duration, Instant};

use cbs_obs::Histogram;
use couchbase_repro::{ClusterConfig, CouchbaseCluster, Durability, Value};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() {
    let writes = env_u64("CBS_OPS", 2_000);
    let cluster = CouchbaseCluster::homogeneous(3, ClusterConfig::for_test(128, 1));
    let bucket = cluster.create_bucket("default").expect("bucket");

    let configs: Vec<(&str, Option<Durability>)> = vec![
        ("memory-only (default ack)", None),
        (
            "replicate_to=1 (memory-to-memory)",
            Some(Durability { replicate_to: 1, persist_to_master: false }),
        ),
        ("persist_to_master (disk)", Some(Durability { replicate_to: 0, persist_to_master: true })),
        ("replicate_to=1 + persist", Some(Durability { replicate_to: 1, persist_to_master: true })),
    ];

    println!("Ablation A1: per-write latency under the §2.3.2 durability options");
    println!("{writes} writes per configuration, 3-node cluster, 1 replica");
    println!("\n== durability ablation ==");
    println!("option\tmean\tp50\tp95\tp99");

    let mut means = Vec::new();
    for (name, durability) in configs {
        let hist = Histogram::new();
        for i in 0..writes {
            let key = format!("dur-{name}-{i}");
            let value = Value::object([("i", Value::from(i))]);
            let start = Instant::now();
            match durability {
                None => {
                    bucket.upsert(&key, value).expect("upsert");
                }
                Some(d) => {
                    bucket
                        .upsert_durable(&key, value, d, Duration::from_secs(10))
                        .expect("durable upsert");
                }
            }
            hist.record(start.elapsed());
        }
        let h = hist.snapshot();
        let mean = h.mean().unwrap_or_default();
        println!(
            "{name}\t{mean:?}\t{:?}\t{:?}\t{:?}",
            h.percentile(50.0).unwrap_or_default(),
            h.percentile(95.0).unwrap_or_default(),
            h.percentile(99.0).unwrap_or_default()
        );
        means.push(mean);
    }
    println!(
        "\nshape: memory ack ({:?}) < replicate ({:?}) < persist ({:?}) — matching §2.3.2",
        means[0], means[1], means[2]
    );
}
