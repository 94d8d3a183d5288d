//! Acceptance test for causal end-to-end tracing (DESIGN.md §10): one
//! durable write against a 2-node, 1-replica cluster must produce exactly
//! one trace that spans the client, the active node's engine, the
//! replication pump, the replica's apply, and both WAL group commits —
//! stitched by a single trace id with intact parent links, across thread
//! and node boundaries — and its Chrome `trace_event` export must show it
//! on both nodes' lanes.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use cbs_cluster::{Cluster, ClusterConfig, ClusterDatastore, Durability, SmartClient};
use cbs_common::{Cas, SeqNo};
use cbs_json::Value;
use cbs_kv::MutateMode;
use cbs_n1ql::QueryOptions;

/// Spans recorded by the replication pump and the replica's flusher land
/// asynchronously after the client call returns; poll until a completed
/// trace satisfies `cond`.
fn wait_for_stitched_trace(
    store: &Arc<cbs_obs::TraceStore>,
    cond: impl Fn(&cbs_obs::CompletedTrace) -> bool,
) -> cbs_obs::CompletedTrace {
    for _ in 0..1_000 {
        if let Some(t) = store.completed_traces().into_iter().find(&cond) {
            return t;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("no matching trace within 2s; traces: {:#?}", store.completed_traces());
}

/// Parse a Chrome `trace_event` export (`TraceStore::export_chrome`) with
/// the repo's own JSON parser and check what chrome://tracing and Perfetto
/// need to load it: a `traceEvents` array, at least one complete (`X`)
/// event, each in a lane a `process_name` metadata (`M`) event declares,
/// at a numeric, non-negative `ts` and `dur`. Returns the engine-node lanes
/// (`n<digits>`) that carry spans.
fn chrome_export_node_lanes(export: &str) -> Vec<String> {
    let doc = cbs_json::parse(export).expect("the export is JSON");
    let events =
        doc.get_field("traceEvents").and_then(Value::as_array).expect("a traceEvents array");
    fn field<'a>(ev: &'a Value, name: &str) -> Option<&'a str> {
        ev.get_field(name).and_then(Value::as_str)
    }
    let lanes: BTreeMap<i64, &str> = events
        .iter()
        .filter(|ev| field(ev, "ph") == Some("M") && field(ev, "name") == Some("process_name"))
        .map(|ev| {
            let pid = ev.get_field("pid").and_then(Value::as_i64);
            let name = ev.get_field("args").and_then(|a| field(a, "name"));
            (pid.expect("process_name pid"), name.expect("process_name args.name"))
        })
        .collect();
    let spans: Vec<&Value> = events.iter().filter(|ev| field(ev, "ph") == Some("X")).collect();
    assert!(!spans.is_empty(), "the export has no spans");
    let mut node_lanes = Vec::new();
    for ev in spans {
        assert!(field(ev, "name").is_some_and(|n| !n.is_empty()), "unnamed span: {ev:?}");
        for at in ["ts", "dur"] {
            let v = ev.get_field(at).and_then(Value::as_f64);
            assert!(v.is_some_and(|v| v >= 0.0), "{at} is not a number >= 0: {ev:?}");
        }
        let pid = ev.get_field("pid").and_then(Value::as_i64).expect("span pid");
        let lane = lanes.get(&pid).unwrap_or_else(|| panic!("pid {pid} has no process_name"));
        let node = lane
            .strip_prefix('n')
            .is_some_and(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()));
        if node && !node_lanes.iter().any(|l| l == lane) {
            node_lanes.push(lane.to_string());
        }
    }
    node_lanes
}

#[test]
fn durable_write_yields_one_stitched_trace() {
    let cluster = Cluster::homogeneous(2, ClusterConfig::for_test(8, 1));
    cluster.create_bucket("default").expect("create bucket");
    let store = Arc::clone(cluster.trace_store());
    store.set_sample_every(1);
    // Unsampled work (a flusher drain cycle) is kept when it runs past the
    // slow threshold; a disk hiccup must not add a second trace below.
    store.set_slow_threshold(Duration::from_secs(3600));

    let client = SmartClient::connect(Arc::clone(&cluster), "default").expect("connect");

    // Warm-up, deliberately untraced: drive one mutation through the
    // active engine directly — no client entry point, no ambient context,
    // so no trace is minted — and wait for the replica to apply it. A
    // replica ack proves the pump built its live DCP streams (all
    // vBuckets are built in the same pump iteration), so the traced write
    // below rides the live stream and carries its TraceContext; the
    // stream-open backfill rebuilds items from the cache, which cannot
    // carry one.
    let warm_vb = client.vb_for_key("stitch::warm");
    let map = cluster.map("default").expect("map");
    let engine_of = |id: cbs_common::NodeId| {
        cluster
            .nodes()
            .into_iter()
            .find(|n| n.id() == id)
            .expect("node")
            .engine("default")
            .expect("engine")
    };
    engine_of(map.active_node(warm_vb))
        .set("stitch::warm", Value::int(0), MutateMode::Upsert, Cas::WILDCARD, 0)
        .expect("warm-up set");
    let replica = engine_of(map.replica_nodes(warm_vb)[0]);
    for _ in 0..1_000 {
        if replica.high_seqno(warm_vb) >= SeqNo(1) {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(replica.high_seqno(warm_vb) >= SeqNo(1), "replica never applied the warm-up");

    let durability = Durability { replicate_to: 1, persist_to_master: true };
    client
        .upsert_durable("stitch::k", Value::int(7), durability, Duration::from_secs(5))
        .expect("durable write");

    let want = [
        "client.kv.durable",
        "client.kv.upsert",
        "kv.engine.set",
        "cluster.replication.deliver",
        "kv.engine.replica_apply",
        "kv.flusher.wal_commit",
        "client.kv.observe",
    ];
    // Both flushers (active + replica) must have attributed their WAL
    // group commit to this trace.
    let trace = wait_for_stitched_trace(&store, |t| {
        want.iter().all(|s| t.span(s).is_some())
            && t.spans.iter().filter(|s| s.name == "kv.flusher.wal_commit").count() == 2
    });

    // Exactly one trace: the single durable op is the only entry point
    // that minted a root, and everything downstream joined it.
    let traces = store.completed_traces();
    assert_eq!(traces.len(), 1, "expected exactly one trace: {traces:#?}");
    assert_eq!(trace.root_name, "client.kv.durable");
    assert!(!trace.failed);
    assert_eq!(trace.dropped_spans, 0);

    // Every span shares the root's trace id by construction (the store
    // files spans under the slot the id hashes to); parent links must
    // reconstruct the causal chain across client -> active -> replica.
    let apply = trace.span("kv.engine.replica_apply").expect("replica apply span");
    assert_eq!(
        trace.path_to_root(apply).expect("intact parent links"),
        vec![
            "client.kv.durable",
            "client.kv.upsert",
            "kv.engine.set",
            "cluster.replication.deliver",
            "kv.engine.replica_apply",
        ],
        "replica apply must chain through the pump and the active engine"
    );
    let set = trace.span("kv.engine.set").expect("engine set span");
    assert_eq!(
        trace.path_to_root(set).expect("intact parent links"),
        vec!["client.kv.durable", "client.kv.upsert", "kv.engine.set"],
    );
    let observe = trace.span("client.kv.observe").expect("observe span");
    assert_eq!(
        trace.path_to_root(observe).expect("intact parent links"),
        vec!["client.kv.durable", "client.kv.observe"],
    );

    // Both nodes flushed the mutation: the active's WAL commit and the
    // replica's carry the same trace on different lanes.
    let lanes = trace.lanes();
    let node_lanes: Vec<_> = lanes.iter().filter(|l| l.starts_with('n')).collect();
    assert!(node_lanes.len() >= 2, "trace must cross >= 2 node lanes: {lanes:?}");
    let wal_lanes: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.name == "kv.flusher.wal_commit")
        .map(|s| s.lane.to_string())
        .collect();
    assert_eq!(wal_lanes.len(), 2, "active + replica WAL commits: {wal_lanes:?}");
    assert_ne!(wal_lanes[0], wal_lanes[1], "WAL commits on distinct nodes");

    // The Chrome export of the same store shows the write on both nodes.
    let export_lanes = chrome_export_node_lanes(&store.export_chrome());
    assert!(export_lanes.len() >= 2, "export must cross >= 2 node lanes: {export_lanes:?}");

    // The render is operator-readable: one line per span, indented.
    let rendered = trace.render();
    for span in want {
        assert!(rendered.contains(span), "render lacks {span}:\n{rendered}");
    }
}

/// The same data is queryable: `system:completed_traces` serves the trace
/// store, `system:events` serves the flight recorder's merged timeline.
#[test]
fn trace_and_event_catalogs_are_queryable() {
    let cluster = Cluster::homogeneous(3, ClusterConfig::for_test(8, 1));
    cluster.create_bucket("default").expect("create bucket");
    cluster.trace_store().set_sample_every(1);
    let client = SmartClient::connect(Arc::clone(&cluster), "default").expect("connect");
    let durability = Durability { replicate_to: 1, persist_to_master: false };
    client
        .upsert_durable("cat::k", Value::int(1), durability, Duration::from_secs(5))
        .expect("durable write");

    // Land topology lifecycle events on the flight recorder.
    let victim = cluster.nodes().into_iter().find(|n| n.id().0 == 2).expect("node 2");
    cluster.kill_node(victim.id()).expect("kill");
    cluster.failover(victim.id()).expect("failover");

    // `SELECT *` nests each catalog document under its keyspace alias
    // (`{"completed_traces": {...}}`); peel that off to reach the fields.
    let doc =
        |row: &'_ Value, alias: &str| -> Value { row.get_field(alias).unwrap_or(row).clone() };
    let ds = ClusterDatastore::new(Arc::clone(&cluster));
    let traces =
        ds.query("SELECT * FROM system:completed_traces", &QueryOptions::default()).expect("query");
    assert!(!traces.rows.is_empty(), "trace catalog is empty");
    let roots: Vec<String> = traces
        .rows
        .iter()
        .filter_map(|r| {
            doc(r, "completed_traces").get_field("root").and_then(Value::as_str).map(String::from)
        })
        .collect();
    assert!(roots.iter().any(|r| r == "client.kv.durable"), "durable trace not served: {roots:?}");

    let events = ds.query("SELECT * FROM system:events", &QueryOptions::default()).expect("query");
    let names: Vec<String> = events
        .rows
        .iter()
        .filter_map(|r| {
            doc(r, "events").get_field("event").and_then(Value::as_str).map(String::from)
        })
        .collect();
    for expected in ["cluster.events.node_killed", "cluster.events.failover"] {
        assert!(
            names.iter().any(|n| n == expected),
            "{expected} missing from system:events: {names:?}"
        );
    }
}
