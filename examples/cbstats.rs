//! cbstats: the operator surface of `cbs-obs` (DESIGN.md §10).
//!
//! Drives a short 50/50 get/upsert burst against a small cluster, then
//! prints what an operator would pull from `cbstats` on a real Couchbase
//! deployment: per-node topology, per-service op counters, latency
//! percentiles from the merged histogram snapshots, the slow-op log with
//! full span trees, a causally stitched end-to-end trace of one durable
//! replicated write (both from the one trace store), and a Prometheus text
//! sample.
//!
//! ```text
//! cargo run --release --example cbstats
//! CBS_NODES=2 CBS_RECORDS=500 CBS_OPS=100 cargo run --release --example cbstats
//! CBS_TRACE_EXPORT=target/trace.json cargo run --release --example cbstats
//! ```

use std::time::{Duration, Instant};

use couchbase_repro::{ClusterConfig, CouchbaseCluster, Durability, QueryOptions, Value};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn print_percentiles(stats: &cbs_cluster::ClusterStats, names: &[&str]) {
    println!("\n== latency percentiles (cluster-wide merged histograms) ==");
    println!(
        "{:<28} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "metric", "count", "p50", "p95", "p99", "max"
    );
    for name in names {
        let h = stats.histogram(name);
        if h.is_empty() {
            println!("{name:<28} {:>8} (no samples)", 0);
            continue;
        }
        let d = |p: f64| h.percentile(p).unwrap_or(Duration::ZERO);
        println!(
            "{:<28} {:>8} {:>10} {:>10} {:>10} {:>10}",
            name,
            h.count(),
            format!("{:.1?}", d(50.0)),
            format!("{:.1?}", d(95.0)),
            format!("{:.1?}", d(99.0)),
            format!("{:.1?}", h.max().unwrap_or(Duration::ZERO)),
        );
    }
}

fn main() {
    let nodes = env_u64("CBS_NODES", 3) as usize;
    let records = env_u64("CBS_RECORDS", 2_000);
    let ops_per_thread = env_u64("CBS_OPS", 250);

    println!("cbstats demo: {nodes}-node cluster, get/upsert burst ({records} docs)");
    let cluster = CouchbaseCluster::homogeneous(nodes, ClusterConfig::for_test(64, 1));
    let bucket = cluster.create_bucket("ycsb").expect("create bucket");

    // Generate load on the KV path: load the documents, then 4 client
    // threads alternate get and upsert over scattered keys.
    let doc =
        |i: u64| Value::object([("i", Value::from(i)), ("field0", Value::from("x".repeat(100)))]);
    for i in 0..records {
        bucket.upsert(&format!("user{i:04}"), doc(i)).expect("load");
    }
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let bucket = &bucket;
            s.spawn(move || {
                for n in 0..ops_per_thread {
                    let i = (t * ops_per_thread + n).wrapping_mul(0x9E37_79B9) % records;
                    let key = format!("user{i:04}");
                    if n % 2 == 0 {
                        bucket.get(&key).expect("get");
                    } else {
                        bucket.upsert(&key, doc(i)).expect("upsert");
                    }
                }
            });
        }
    });
    println!(
        "burst: 4 threads x {ops_per_thread} ops (50% get / 50% upsert) in {:.1?}",
        start.elapsed()
    );

    // Deliberately slow operation for the slow-op log: with the threshold
    // at zero, every operation counts as slow and is kept. A primary scan
    // over the whole bucket walks every vBucket on every node, so its
    // span tree has depth: request -> parse/plan/run -> scan/fetch.
    cluster.set_slow_threshold(Duration::ZERO);
    cluster.query("CREATE PRIMARY INDEX ON ycsb", &QueryOptions::default()).expect("primary index");
    cluster
        .query("SELECT COUNT(*) AS n FROM ycsb", &QueryOptions::default())
        .expect("slow primary scan");

    // Query profiling: PROFILE returns the EXPLAIN-shaped plan annotated
    // with each operator's items in/out and kernel time, plus the phase
    // rollups extracted from the request's span tree.
    let profiled = cluster
        .query("PROFILE SELECT COUNT(*) AS n FROM ycsb", &QueryOptions::default())
        .expect("profiled query");
    println!("\n== PROFILE SELECT COUNT(*) AS n FROM ycsb ==");
    println!("{}", cbs_json::print::to_json_pretty(&profiled.rows[0], 2));

    // Freeze everything, the slow-op log (the trace store's slow traces)
    // included.
    let stats = cluster.stats();

    println!("\n== topology ==");
    for node in &stats.nodes {
        let s = node.services;
        let services: Vec<&str> = [("kv", s.data), ("index", s.index), ("n1ql", s.query)]
            .iter()
            .filter(|(_, on)| *on)
            .map(|(name, _)| *name)
            .collect();
        let queued: u64 =
            node.buckets.iter().flat_map(|b| &b.vbuckets).map(|v| v.queued_items).sum();
        println!(
            "node n{}: alive={} services={} buckets={} active_vbuckets={} disk_queue={}",
            node.node.0,
            node.alive,
            services.join("+"),
            node.buckets.len(),
            node.buckets.iter().map(|b| b.vbuckets.len()).sum::<usize>(),
            queued,
        );
    }

    let merged = stats.merged();
    println!("\n== op counters (cluster-wide) ==");
    for (name, value) in &merged.counters {
        if *value > 0 {
            println!("{name:<32} {value}");
        }
    }

    print_percentiles(
        &stats,
        &[
            "kv.engine.get_latency",
            "kv.engine.set_latency",
            "kv.flusher.fsync_latency",
            "n1ql.query.latency",
            "n1ql.phase.plan",
            "n1ql.phase.index_scan",
            "n1ql.phase.fetch",
            "n1ql.phase.run",
            "fts.service.search_latency",
        ],
    );

    // Consistency observability: per-vBucket replica seqno lag from the
    // replication pumps, summarized from the same `ClusterStats` rows
    // that `system:replication` serves.
    let per_vb = stats.per_vb_replica_lag();
    println!("\n== replica lag (per vBucket, seqnos behind the active) ==");
    println!("{:<8} {:>4} {:>8} {:>8}", "bucket", "vb", "max", "mean");
    for (bucket, vb, max, mean) in per_vb.iter().take(8) {
        println!("{bucket:<8} {vb:>4} {max:>8} {mean:>8.2}");
    }
    if per_vb.len() > 8 {
        println!("... {} more vBuckets", per_vb.len() - 8);
    }
    let stale_rows = cluster
        .query("SELECT * FROM system:staleness", &QueryOptions::default())
        .expect("query the staleness catalog");
    println!("system:staleness per-bucket summary:");
    for row in &stale_rows.rows {
        println!("{}", row.to_json_string());
    }
    let repl_rows = cluster
        .query("SELECT * FROM system:replication", &QueryOptions::default())
        .expect("query the replication catalog");
    println!("system:replication via N1QL: {} rows", repl_rows.rows.len());

    // The request log: what `system:completed_requests` / `system:
    // active_requests` serve, straight off the snapshot.
    println!("\n== completed requests ({} retained) ==", stats.completed_requests.len());
    for (id, req) in stats.completed_requests.iter().rev().take(5) {
        let field = |name: &str| {
            req.get_field(name).and_then(cbs_json::Value::as_str).unwrap_or("?").to_string()
        };
        println!(
            "{id}: [{}] {} | {} | {}",
            field("state"),
            field("statement"),
            field("elapsedTime"),
            field("plan"),
        );
    }
    println!("active requests in flight: {}", stats.active_requests.len());

    // The same log is a keyspace: the query service can introspect itself.
    let log_rows = cluster
        .query("SELECT * FROM system:completed_requests", &QueryOptions::default())
        .expect("query the request log");
    println!("\nsystem:completed_requests via N1QL: {} rows", log_rows.rows.len());

    // Prepared statements: PREPARE caches the plan, EXECUTE skips the
    // front end entirely, and system:prepareds shows the registry — the
    // n1ql.plancache.* counters above account for every lookup.
    cluster
        .query(
            "PREPARE hot FROM SELECT meta().id AS id FROM ycsb \
             WHERE meta().id >= $start LIMIT $lim",
            &QueryOptions::default(),
        )
        .expect("prepare");
    for i in 0..20 {
        let opts = QueryOptions::with_named_args([
            ("start", Value::from(format!("user{i:04}"))),
            ("lim", Value::int(10)),
        ]);
        cluster.query("EXECUTE hot", &opts).expect("execute prepared");
    }
    let prepared_rows = cluster
        .query("SELECT * FROM system:prepareds", &QueryOptions::default())
        .expect("query the prepared registry");
    println!("\n== system:prepareds ==");
    for row in &prepared_rows.rows {
        println!("{}", row.to_json_string());
    }
    let post = cluster.stats();
    let (hits, misses) =
        (post.counter("n1ql.plancache.hits"), post.counter("n1ql.plancache.misses"));
    println!(
        "plan cache: hits={hits} misses={misses} hit_rate={:.1}%",
        100.0 * hits as f64 / (hits + misses).max(1) as f64
    );

    println!("\n== slow ops ({} captured, slowest first) ==", stats.slow_ops.len());
    let mut slowest: Vec<_> = stats.slow_ops.iter().collect();
    slowest.sort_by_key(|op| std::cmp::Reverse(op.total));
    for op in slowest.iter().take(3) {
        println!("[{}] {:.1?}", op.root_name, op.total);
        print!("{}", op.render());
    }

    // Causal end-to-end tracing (DESIGN.md §10): sample every operation,
    // run one durable replicated write, and render the stitched span tree
    // — client -> active engine -> replication deliver -> replica apply ->
    // flusher WAL commit, one trace id across every lane.
    let store = std::sync::Arc::clone(cluster.inner().trace_store());
    store.set_sample_every(1);
    let durability = Durability { replicate_to: 1, persist_to_master: true };
    bucket
        .upsert_durable("trace::demo", Value::int(1), durability, Duration::from_secs(5))
        .expect("durable traced write (needs >= 2 nodes and 1 replica)");
    // The replica-side spans are recorded by the replication pump threads;
    // wait for the durable trace to carry them before rendering.
    let mut durable_trace = None;
    for _ in 0..400 {
        durable_trace = store.completed_traces().into_iter().rev().find(|t| {
            t.root_name == "client.kv.durable"
                && t.span("kv.engine.replica_apply").is_some()
                && t.span("kv.flusher.wal_commit").is_some()
        });
        if durable_trace.is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    let traces = store.completed_traces();
    println!("\n== completed traces ({} retained, stitched across lanes) ==", traces.len());
    println!("{:<10} {:<22} {:>10} {:>6}  lanes", "trace", "root", "total", "spans");
    for t in traces.iter().rev().take(5) {
        let lanes: Vec<String> = t.lanes().iter().map(|l| l.to_string()).collect();
        println!(
            "t{:<9x} {:<22} {:>10} {:>6}  {}",
            t.trace_id,
            t.root_name,
            format!("{:.1?}", t.total),
            t.spans.len(),
            lanes.join("+"),
        );
    }
    match &durable_trace {
        Some(t) => {
            println!("\none durable replicated write, end to end:");
            print!("{}", t.render());
        }
        None => println!("\n(no stitched durable trace captured — is the cluster >= 2 nodes?)"),
    }

    // The same traces and the flight-recorder timeline as N1QL keyspaces.
    let trace_rows = cluster
        .query("SELECT * FROM system:completed_traces", &QueryOptions::default())
        .expect("query the trace catalog");
    println!("\nsystem:completed_traces via N1QL: {} rows", trace_rows.rows.len());
    let event_rows = cluster
        .query("SELECT * FROM system:events", &QueryOptions::default())
        .expect("query the flight recorder");
    println!("system:events via N1QL: {} rows", event_rows.rows.len());

    // CBS_TRACE_EXPORT=<path>: dump every retained trace in the Chrome
    // `trace_event` format (load it in chrome://tracing or Perfetto;
    // `cargo xtask validate-trace <path>` checks it structurally).
    if let Ok(path) = std::env::var("CBS_TRACE_EXPORT") {
        std::fs::write(&path, store.export_chrome()).expect("write trace export");
        println!("chrome trace export written to {path}");
    }

    let prom = stats.prometheus();
    println!("\n== prometheus sample (first 20 of {} lines) ==", prom.lines().count());
    for line in prom.lines().take(20) {
        println!("{line}");
    }

    // The operator-facing invariant the tracing exists to demonstrate: a
    // spread distribution reports non-degenerate percentiles.
    let kv = stats.histogram("kv.engine.get_latency");
    if let (Some(p50), Some(p99)) = (kv.percentile(50.0), kv.percentile(99.0)) {
        println!("\nkv get p50 {p50:.1?} < p99 {p99:.1?}: {}", p50 < p99);
    }
}
