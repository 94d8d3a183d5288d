//! Cluster-level integration tests: placement, replication, failover,
//! rebalance, durability, cluster-wide queries and views.

use std::sync::Arc;
use std::time::Duration;

use cbs_cluster::{
    Cluster, ClusterConfig, ClusterDatastore, Durability, FaultAction, FaultInjector, ServiceSet,
    SmartClient,
};
use cbs_common::{Error, NodeId, SeqNo, VbId};
use cbs_json::Value;
use cbs_n1ql::QueryOptions;
use cbs_views::{MapExpr, MapFn, Stale, ViewDef, ViewQuery};

fn small_cluster(nodes: usize, replicas: u8) -> Arc<Cluster> {
    let cluster = Cluster::homogeneous(nodes, ClusterConfig::for_test(64, replicas));
    cluster.create_bucket("default").unwrap();
    cluster
}

fn doc(v: i64) -> Value {
    Value::object([("v", Value::int(v))])
}

fn load_docs(client: &SmartClient, n: usize) {
    for i in 0..n {
        client.upsert(&format!("doc-{i}"), doc(i as i64)).unwrap();
    }
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

#[test]
fn placement_spreads_data_across_nodes() {
    let cluster = small_cluster(4, 1);
    let client = SmartClient::connect(Arc::clone(&cluster), "default").unwrap();
    load_docs(&client, 200);
    // Every node should hold some active documents.
    for node in cluster.nodes() {
        let engine = node.engine("default").unwrap();
        let docs = engine.scan_active_docs().unwrap();
        assert!(!docs.is_empty(), "node {:?} owns no documents", node.id());
    }
    // And every doc reads back through the client.
    for i in 0..200 {
        assert_eq!(client.get(&format!("doc-{i}")).unwrap().value, doc(i));
    }
}

#[test]
fn replication_reaches_replicas() {
    let cluster = small_cluster(3, 1);
    let client = SmartClient::connect(Arc::clone(&cluster), "default").unwrap();
    let m = client.upsert("k1", doc(1)).unwrap();
    let map = cluster.map("default").unwrap();
    let replicas = map.replica_nodes(m.vb).to_vec();
    assert_eq!(replicas.len(), 1);
    let replica_engine = cluster.node(replicas[0]).unwrap().engine("default").unwrap();
    assert!(
        wait_until(Duration::from_secs(5), || replica_engine.high_seqno(m.vb) >= m.seqno),
        "replica must receive the mutation via DCP"
    );
}

#[test]
fn durability_replicate_and_persist() {
    let cluster = small_cluster(3, 1);
    let client = SmartClient::connect(Arc::clone(&cluster), "default").unwrap();
    client
        .upsert_durable(
            "important",
            doc(42),
            Durability { replicate_to: 1, persist_to_master: true },
            Duration::from_secs(10),
        )
        .unwrap();
    // Impossible requirement is rejected up front (§2.3.2).
    let err = client
        .upsert_durable(
            "x",
            doc(0),
            Durability { replicate_to: 3, persist_to_master: false },
            Duration::from_secs(1),
        )
        .unwrap_err();
    assert!(matches!(err, cbs_common::Error::DurabilityImpossible(_)));
}

/// Drops every replication delivery to the nodes whose bit is set.
#[derive(Debug, Default)]
struct CutOff(std::sync::atomic::AtomicU32);

impl CutOff {
    fn set(&self, nodes: &[NodeId]) {
        let bits = nodes.iter().fold(0, |bits, n| bits | 1 << n.0);
        self.0.store(bits, std::sync::atomic::Ordering::SeqCst);
    }
}

impl FaultInjector for CutOff {
    fn repl_delivery(&self, _: VbId, _: SeqNo, dst: NodeId, _: u32) -> FaultAction {
        if self.0.load(std::sync::atomic::Ordering::SeqCst) & (1 << dst.0) != 0 {
            FaultAction::Drop
        } else {
            FaultAction::Deliver
        }
    }
}

/// `replicate_to = 1` over two replicas is "any one of them": a replica that
/// gets nothing must not delay the ack the other gives. And when nobody can
/// ack, the wait ends in `Timeout` at its deadline — it neither hangs nor
/// overruns.
#[test]
fn observe_takes_any_replica_ack_and_times_out_at_its_deadline() {
    let cut = Arc::new(CutOff::default());
    let cfg = ClusterConfig::for_chaos(64, 2, Arc::clone(&cut) as Arc<dyn FaultInjector>);
    let cluster = Cluster::homogeneous(3, cfg);
    cluster.create_bucket("default").unwrap();
    let client = SmartClient::connect(Arc::clone(&cluster), "default").unwrap();
    let vb = client.vb_for_key("k");
    let replicas = cluster.map("default").unwrap().replica_nodes(vb).to_vec();
    assert_eq!(replicas.len(), 2);
    let high = |node: NodeId| cluster.node(node).unwrap().engine("default").unwrap().high_seqno(vb);
    let one = Durability { replicate_to: 1, persist_to_master: false };

    cut.set(&replicas[..1]);
    let started = std::time::Instant::now();
    let m = client.upsert_durable("k", doc(1), one, Duration::from_secs(20)).unwrap();
    assert!(started.elapsed() < Duration::from_secs(10), "waited for the cut-off replica");
    assert!(high(replicas[0]) < m.seqno, "the cut-off replica did not get it");
    assert!(high(replicas[1]) >= m.seqno);
    // Both copies are beyond what one replica alone can give.
    let both = Durability { replicate_to: 2, persist_to_master: false };
    let err = client.observe("k", m, both, Duration::from_millis(50)).unwrap_err();
    assert!(matches!(err, Error::Timeout(_)), "{err:?}");

    cut.set(&replicas);
    let started = std::time::Instant::now();
    let err = client.upsert_durable("k", doc(2), one, Duration::from_millis(150)).unwrap_err();
    let took = started.elapsed();
    assert!(matches!(err, Error::Timeout(_)), "{err:?}");
    assert!(took >= Duration::from_millis(150), "gave up before the deadline: {took:?}");
    assert!(took < Duration::from_secs(5), "overran the deadline: {took:?}");

    // Reconnected, the replicas catch up and the same requirement is met.
    cut.set(&[]);
    let m = client.upsert_durable("k", doc(3), both, Duration::from_secs(20)).unwrap();
    assert!(high(replicas[0]) >= m.seqno && high(replicas[1]) >= m.seqno);
}

#[test]
fn failover_promotes_replicas_and_client_recovers() {
    let cluster = small_cluster(3, 1);
    let client = SmartClient::connect(Arc::clone(&cluster), "default").unwrap();
    load_docs(&client, 120);
    // Let replication catch up (all vbs, all docs).
    std::thread::sleep(Duration::from_millis(200));

    let victim = NodeId(1);
    cluster.kill_node(victim).unwrap();
    // Failover refuses while... node is dead here, so it proceeds.
    let promoted = cluster.failover(victim).unwrap();
    assert!(promoted > 0, "the victim owned active vBuckets");
    assert_ne!(cluster.orchestrator(), Some(victim));

    // Every document is still readable (the client refreshes its stale map
    // and retries on VbucketNotActive/NodeDown).
    let mut missing = 0;
    for i in 0..120 {
        match client.get(&format!("doc-{i}")) {
            Ok(g) => assert_eq!(g.value, doc(i)),
            Err(_) => missing += 1,
        }
    }
    assert_eq!(missing, 0, "replica promotion must preserve all data");
    // Writes keep working too.
    client.upsert("after-failover", doc(1)).unwrap();
}

#[test]
fn failover_refuses_live_nodes() {
    let cluster = small_cluster(2, 1);
    assert!(cluster.failover(NodeId(0)).is_err(), "node is alive");
}

#[test]
fn rebalance_in_moves_data_to_new_node() {
    let cluster = small_cluster(2, 1);
    let client = SmartClient::connect(Arc::clone(&cluster), "default").unwrap();
    load_docs(&client, 150);

    let new_node = cluster.add_node(ServiceSet::all()).unwrap();
    cluster.rebalance(&[]).unwrap();

    // The new node owns roughly a third of the vBuckets.
    let map = cluster.map("default").unwrap();
    let owned = map.active_vbs(new_node).len();
    assert!(owned > 10, "new node owns {owned} vBuckets after rebalance");

    // All data is intact and reachable.
    for i in 0..150 {
        assert_eq!(client.get(&format!("doc-{i}")).unwrap().value, doc(i), "doc-{i}");
    }
    // And the new node actually serves some of it.
    let engine = cluster.node(new_node).unwrap().engine("default").unwrap();
    assert!(!engine.scan_active_docs().unwrap().is_empty());
}

#[test]
fn rebalance_out_empties_a_node() {
    let cluster = small_cluster(3, 1);
    let client = SmartClient::connect(Arc::clone(&cluster), "default").unwrap();
    load_docs(&client, 100);

    let leaving = NodeId(2);
    cluster.rebalance(&[leaving]).unwrap();
    let map = cluster.map("default").unwrap();
    assert!(map.active_vbs(leaving).is_empty());
    assert!(map.replica_vbs(leaving).is_empty());
    for i in 0..100 {
        assert_eq!(client.get(&format!("doc-{i}")).unwrap().value, doc(i));
    }
}

#[test]
fn writes_during_rebalance_survive() {
    let cluster = small_cluster(2, 0);
    let client = Arc::new(SmartClient::connect(Arc::clone(&cluster), "default").unwrap());
    load_docs(&client, 50);

    cluster.add_node(ServiceSet::all()).unwrap();
    let writer = {
        let client = Arc::clone(&client);
        std::thread::spawn(move || {
            for i in 50..250 {
                client.upsert(&format!("doc-{i}"), doc(i as i64)).unwrap();
            }
        })
    };
    cluster.rebalance(&[]).unwrap();
    writer.join().unwrap();
    for i in 0..250 {
        assert_eq!(client.get(&format!("doc-{i}")).unwrap().value, doc(i), "doc-{i}");
    }
}

#[test]
fn n1ql_over_cluster_with_gsi() {
    let cluster = small_cluster(3, 1);
    let client = SmartClient::connect(Arc::clone(&cluster), "default").unwrap();
    for i in 0..60 {
        client
            .upsert(
                &format!("user::{i}"),
                Value::object([
                    ("name", Value::from(format!("u{i:02}"))),
                    ("age", Value::int(18 + (i % 40))),
                ]),
            )
            .unwrap();
    }
    let ds = ClusterDatastore::new(Arc::clone(&cluster));
    ds.query("CREATE INDEX by_age ON default(age) USING GSI", &QueryOptions::default()).unwrap();

    // request_plus guarantees read-your-own-writes through the index.
    let opts = QueryOptions::default().request_plus();
    let res = ds.query("SELECT COUNT(*) AS n FROM default WHERE age >= 18", &opts).unwrap();
    assert_eq!(res.rows[0].get_field("n"), Some(&Value::int(60)));

    // A fresh write is visible immediately under request_plus.
    client.upsert("user::new", Value::object([("age", Value::int(99))])).unwrap();
    let res = ds.query("SELECT META().id AS id FROM default WHERE age = 99", &opts).unwrap();
    assert_eq!(res.rows.len(), 1);
    assert_eq!(res.rows[0].get_field("id"), Some(&Value::from("user::new")));
}

#[test]
fn n1ql_use_keys_without_any_index() {
    let cluster = small_cluster(2, 0);
    let client = SmartClient::connect(Arc::clone(&cluster), "default").unwrap();
    client.upsert("k", doc(7)).unwrap();
    let ds = ClusterDatastore::new(Arc::clone(&cluster));
    let res = ds.query("SELECT d.* FROM default d USE KEYS 'k'", &QueryOptions::default()).unwrap();
    assert_eq!(res.rows[0].get_field("v"), Some(&Value::int(7)));
}

#[test]
fn view_scatter_gather_across_nodes() {
    let cluster = small_cluster(3, 0);
    let client = SmartClient::connect(Arc::clone(&cluster), "default").unwrap();
    for i in 0..90 {
        client
            .upsert(
                &format!("p{i}"),
                Value::object([
                    ("name", Value::from(format!("name{i:02}"))),
                    ("age", Value::int(i % 9)),
                ]),
            )
            .unwrap();
    }
    cluster
        .create_design_doc(
            "default",
            cbs_views::DesignDoc {
                name: "dd".to_string(),
                views: vec![
                    ("by_name".to_string(), ViewDef { map: MapFn::on_field("name"), reduce: None }),
                    (
                        "age_sum".to_string(),
                        ViewDef {
                            map: MapFn {
                                when: vec![],
                                key: MapExpr::field("name"),
                                value: Some(MapExpr::field("age")),
                            },
                            reduce: Some(cbs_views::Reducer::Sum),
                        },
                    ),
                ],
            },
        )
        .unwrap();

    // stale=false row query merges results from all 3 nodes in key order.
    let q = ViewQuery { stale: Stale::False, ..Default::default() };
    let res = cluster.view_query("default", "dd", "by_name", &q).unwrap();
    assert_eq!(res.rows.len(), 90);
    let keys: Vec<&str> = res.rows.iter().map(|r| r.key.as_str().unwrap()).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "gathered rows are in global key order");

    // Reduced query re-reduces partial sums.
    let q = ViewQuery { stale: Stale::False, reduce: true, ..Default::default() };
    let res = cluster.view_query("default", "dd", "age_sum", &q).unwrap();
    let expected: i64 = (0..90).map(|i| i % 9).sum();
    assert_eq!(res.rows[0].value, Value::int(expected));
}

/// A replica copy promoted by failover took its documents as replica
/// applies, which its node's hub never published: the design document's
/// feed is rebuilt from its cursors, so `stale=false` returns every row
/// well inside its 30 s deadline.
#[test]
fn view_stale_false_covers_vbuckets_promoted_by_failover() {
    let cluster = small_cluster(2, 1);
    let ddoc = cbs_views::DesignDoc {
        name: "dd".to_string(),
        views: vec![("by_v".to_string(), ViewDef { map: MapFn::on_field("v"), reduce: None })],
    };
    cluster.create_design_doc("default", ddoc).unwrap();
    let client = SmartClient::connect(Arc::clone(&cluster), "default").unwrap();
    load_docs(&client, 80);
    assert!(wait_until(Duration::from_secs(10), || replicas_caught_up(&cluster)));

    let victim = NodeId(1);
    cluster.kill_node(victim).unwrap();
    assert!(cluster.failover(victim).unwrap() > 0, "the victim owned active vBuckets");

    let started = std::time::Instant::now();
    let q = ViewQuery { stale: Stale::False, ..Default::default() };
    let res = cluster.view_query("default", "dd", "by_v", &q).unwrap();
    assert_eq!(res.rows.len(), 80, "rows of the promoted vBuckets included");
    assert!(started.elapsed() < Duration::from_secs(10), "took {:?}", started.elapsed());
}

#[test]
fn mds_query_only_cluster_is_rejected_without_query_service() {
    // Data+index nodes but no query node: N1QL requests must be refused.
    let cluster = Cluster::with_services(
        vec![ServiceSet::data_only(), ServiceSet::index_only()],
        ClusterConfig::for_test(16, 0),
    );
    cluster.create_bucket("b").unwrap();
    let ds = ClusterDatastore::new(Arc::clone(&cluster));
    let err = ds.query("SELECT 1", &QueryOptions::default()).unwrap_err();
    assert!(err.to_string().contains("no query service"));
}

#[test]
fn mds_separated_services_work_together() {
    // The §4.4 topology: data nodes, an index node, a query node.
    let cluster = Cluster::with_services(
        vec![
            ServiceSet::data_only(),
            ServiceSet::data_only(),
            ServiceSet::index_only(),
            ServiceSet::query_only(),
        ],
        ClusterConfig::for_test(32, 0),
    );
    cluster.create_bucket("b").unwrap();
    let client = SmartClient::connect(Arc::clone(&cluster), "b").unwrap();
    for i in 0..30 {
        client.upsert(&format!("d{i}"), Value::object([("n", Value::int(i))])).unwrap();
    }
    let ds = ClusterDatastore::new(Arc::clone(&cluster));
    ds.query("CREATE INDEX n_idx ON b(n)", &QueryOptions::default()).unwrap();
    let res = ds
        .query("SELECT COUNT(*) AS c FROM b WHERE n >= 10", &QueryOptions::default().request_plus())
        .unwrap();
    assert_eq!(res.rows[0].get_field("c"), Some(&Value::int(20)));
    // The data map never references the index/query nodes.
    let map = cluster.map("b").unwrap();
    assert!(map.active_vbs(NodeId(2)).is_empty());
    assert!(map.active_vbs(NodeId(3)).is_empty());
}

#[test]
fn orchestrator_election() {
    let cluster = small_cluster(3, 1);
    assert_eq!(cluster.orchestrator(), Some(NodeId(0)));
    cluster.kill_node(NodeId(0)).unwrap();
    assert_eq!(cluster.orchestrator(), Some(NodeId(1)), "re-elected immediately");
    cluster.node(NodeId(0)).unwrap().revive();
    assert_eq!(cluster.orchestrator(), Some(NodeId(0)));
}

#[test]
fn view_results_consistent_during_vbucket_deactivation() {
    // §4.3.3: view queries must not double-count or leak moved partitions.
    let cluster = small_cluster(2, 0);
    let client = SmartClient::connect(Arc::clone(&cluster), "default").unwrap();
    for i in 0..80 {
        client
            .upsert(&format!("p{i}"), Value::object([("name", Value::from(format!("n{i}")))]))
            .unwrap();
    }
    cluster
        .create_design_doc(
            "default",
            cbs_views::DesignDoc {
                name: "dd".to_string(),
                views: vec![(
                    "v".to_string(),
                    ViewDef { map: MapFn::on_field("name"), reduce: None },
                )],
            },
        )
        .unwrap();
    let q = ViewQuery { stale: Stale::False, ..Default::default() };
    let before = cluster.view_query("default", "dd", "v", &q).unwrap().rows.len();
    assert_eq!(before, 80);
    // Simulate a partition hand-off mid-flight: deactivate one vBucket on
    // its owner; the row count drops by exactly that vBucket's rows and
    // nothing is double-counted.
    let map = cluster.map("default").unwrap();
    let vb = VbId(0);
    let owner = cluster.node(map.active_node(vb)).unwrap();
    let engine = owner.engine("default").unwrap();
    let owned_docs = engine
        .scan_active_docs()
        .unwrap()
        .into_iter()
        .filter(|d| engine.vb_for_key(&d.id) == vb)
        .count();
    engine.set_vb_state(vb, cbs_kv::VbState::Dead);
    let q2 = ViewQuery { stale: Stale::Ok, ..Default::default() };
    let after = cluster.view_query("default", "dd", "v", &q2).unwrap().rows.len();
    assert_eq!(after, before - owned_docs);
}

#[test]
fn cas_still_safe_through_client() {
    let cluster = small_cluster(2, 0);
    let client = SmartClient::connect(Arc::clone(&cluster), "default").unwrap();
    client.upsert("k", doc(1)).unwrap();
    let read = client.get("k").unwrap();
    client.upsert("k", doc(2)).unwrap(); // interloper
    let err = client.upsert_with_cas("k", doc(3), read.meta.cas).unwrap_err();
    assert!(matches!(err, cbs_common::Error::CasMismatch(_)));
    // GETL through the client.
    let locked = client.get_and_lock("k", Duration::from_secs(2)).unwrap();
    assert!(matches!(client.upsert("k", doc(9)), Err(cbs_common::Error::Locked(_))));
    client.unlock("k", locked.meta.cas).unwrap();
    client.upsert("k", doc(9)).unwrap();
    assert_eq!(client.get("k").unwrap().value, doc(9));
}

#[test]
fn client_map_refresh_on_topology_change() {
    let cluster = small_cluster(2, 1);
    let client = SmartClient::connect(Arc::clone(&cluster), "default").unwrap();
    load_docs(&client, 20);
    let epoch_before = client.cached_epoch();
    cluster.add_node(ServiceSet::all()).unwrap();
    cluster.rebalance(&[]).unwrap();
    // Client still works; its cached epoch catches up lazily via retries.
    for i in 0..20 {
        assert_eq!(client.get(&format!("doc-{i}")).unwrap().value, doc(i));
    }
    assert!(cluster.map("default").unwrap().epoch > epoch_before);
}

#[test]
fn auto_failover_detects_and_promotes() {
    let cluster = small_cluster(3, 1);
    let client = SmartClient::connect(Arc::clone(&cluster), "default").unwrap();
    load_docs(&client, 60);
    std::thread::sleep(Duration::from_millis(150)); // replication catch-up

    let _monitor = cluster.spawn_auto_failover(Duration::from_millis(10));
    cluster.kill_node(NodeId(2)).unwrap();
    // No manual failover call: the monitor must notice and promote.
    // (Generous timeout: CI hosts may be heavily oversubscribed.)
    assert!(
        wait_until(Duration::from_secs(60), || {
            cluster.map("default").unwrap().active_vbs(NodeId(2)).is_empty()
        }),
        "auto-failover must strip the dead node from the map"
    );
    for i in 0..60 {
        assert_eq!(client.get(&format!("doc-{i}")).unwrap().value, doc(i));
    }
    // Revived node can be failed over again later if it dies again.
    cluster.node(NodeId(2)).unwrap().revive();
    cluster.rebalance(&[]).unwrap();
    cluster.kill_node(NodeId(2)).unwrap();
    assert!(wait_until(Duration::from_secs(60), || {
        cluster.map("default").unwrap().active_vbs(NodeId(2)).is_empty()
    }));
}

/// TTL writes, GETL and unlock go through the same traced entry as every
/// other KV op: each mints one trace whose engine span links to the client
/// root.
#[test]
fn ttl_and_lock_ops_mint_traces_with_linked_engine_spans() {
    let cluster = small_cluster(1, 0);
    cluster.trace_store().set_sample_every(1);
    let client = SmartClient::connect(Arc::clone(&cluster), "default").unwrap();
    client.upsert_with_expiry("k", doc(1), u32::MAX).unwrap();
    let locked = client.get_and_lock("k", Duration::from_secs(5)).unwrap();
    client.unlock("k", locked.meta.cas).unwrap();

    let traces = cluster.trace_store().completed_traces();
    for (root, engine_span) in [
        ("client.kv.upsert_with_expiry", "kv.engine.set"),
        ("client.kv.get_and_lock", "kv.engine.get_and_lock"),
        ("client.kv.unlock", "kv.engine.unlock"),
    ] {
        let minted: Vec<_> = traces.iter().filter(|t| t.root_name == root).collect();
        assert_eq!(minted.len(), 1, "{root} mints exactly one trace: {traces:#?}");
        let span = minted[0].span(engine_span).expect("engine span recorded");
        assert_eq!(minted[0].path_to_root(span).unwrap(), vec![root, engine_span]);
        assert!(span.lane.starts_with('n'), "engine spans land on the node lane");
        assert!(!minted[0].failed);
    }
}

/// Expected outcomes (miss, exists, CAS mismatch, locked) are answers, not
/// failures: a get-miss stream must not fill the completed ring with
/// "failed" traces and evict a genuine failure.
#[test]
fn expected_outcomes_do_not_evict_a_genuinely_failed_trace() {
    let cluster = small_cluster(1, 0);
    let store = cluster.trace_store();
    store.set_sample_every(1);
    let client = SmartClient::connect(Arc::clone(&cluster), "default").unwrap();
    client.upsert("k", doc(1)).unwrap();

    // A genuine failure: unlocking a key nobody locked times out.
    let err = client.unlock("k", cbs_common::Cas(7)).unwrap_err();
    assert!(matches!(err, cbs_common::Error::Timeout(_)), "{err:?}");
    // One of each expected outcome, then a long stream of misses.
    assert!(matches!(client.insert("k", doc(2)), Err(cbs_common::Error::KeyExists(_))));
    assert!(matches!(
        client.replace("k", doc(2), cbs_common::Cas(7)),
        Err(cbs_common::Error::CasMismatch(_))
    ));
    client.get_and_lock("k", Duration::from_secs(5)).unwrap();
    assert!(matches!(client.upsert("k", doc(3)), Err(cbs_common::Error::Locked(_))));
    for i in 0..1_000 {
        assert!(matches!(
            client.get(&format!("absent-{i}")),
            Err(cbs_common::Error::KeyNotFound(_))
        ));
    }

    let traces = store.completed_traces();
    let failed: Vec<_> = traces.iter().filter(|t| t.failed).map(|t| t.root_name).collect();
    assert_eq!(failed, vec!["client.kv.unlock"], "only the timeout counts as a failure");
}

// ---------------------------------------------------------------------------
// Memory-first backfill: an index build reads only what the cache evicted
// ---------------------------------------------------------------------------

const BUILD_DOCS: usize = 400;

fn padded_doc(i: usize) -> Value {
    Value::object([("i", Value::from(i)), ("pad", Value::from("x".repeat(1000)))])
}

/// `BUILD_DOCS` padded documents minus every tenth, deleted again, all
/// persisted. A write refused under a tight quota (`TempOom`) is retried
/// once the flusher has made room.
fn load_for_build(cluster: &Arc<Cluster>) -> Vec<String> {
    let client = SmartClient::connect(Arc::clone(cluster), "default").unwrap();
    for i in 0..BUILD_DOCS {
        let key = format!("doc-{i:04}");
        let stored =
            wait_until(Duration::from_secs(20), || match client.upsert(&key, padded_doc(i)) {
                Ok(_) => true,
                Err(Error::TempOom) => false,
                Err(e) => panic!("upsert {key}: {e}"),
            });
        assert!(stored, "{key} never admitted");
        if i % 10 == 0 {
            client.remove(&key, cbs_common::Cas::WILDCARD).unwrap();
        }
    }
    wait_all_persisted(cluster);
    (0..BUILD_DOCS).filter(|i| i % 10 != 0).map(|i| format!("doc-{i:04}")).collect()
}

fn engines_of(cluster: &Cluster) -> Vec<Arc<cbs_kv::DataEngine>> {
    cluster.nodes().iter().map(|n| n.engine("default").unwrap()).collect()
}

fn wait_all_persisted(cluster: &Cluster) {
    let engines = engines_of(cluster);
    assert!(wait_until(Duration::from_secs(20), || {
        engines.iter().all(|e| e.disk_queue_len() == 0)
    }));
}

/// Documents the engines' backfills have read from their shard logs.
fn backfill_disk_reads(cluster: &Cluster) -> u64 {
    engines_of(cluster).iter().map(|e| e.stats().backfill_from_disk.get()).sum()
}

/// `CREATE PRIMARY INDEX`; returns how many documents the build read from
/// disk.
fn build_primary_index(cluster: &Arc<Cluster>) -> u64 {
    let before = backfill_disk_reads(cluster);
    ClusterDatastore::new(Arc::clone(cluster))
        .query("CREATE PRIMARY INDEX ON default", &QueryOptions::default())
        .unwrap();
    backfill_disk_reads(cluster) - before
}

/// The primary index's ids of the `doc-` keys, in index order.
fn primary_scan(cluster: &Arc<Cluster>) -> Vec<String> {
    let rows = ClusterDatastore::new(Arc::clone(cluster))
        .query(
            "SELECT META().id AS id FROM default ORDER BY META().id",
            &QueryOptions::default().request_plus(),
        )
        .unwrap()
        .rows;
    let ids = rows.iter().map(|r| r.get_field("id").and_then(Value::as_str).unwrap().to_string());
    ids.filter(|id| id.starts_with("doc-")).collect()
}

#[test]
fn primary_index_build_reads_only_what_the_cache_evicted() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
    // (a) Fully resident, with a writer running through the build and the
    // scans: nothing is read from disk, and request_plus sees every
    // acknowledged key.
    let cfg = ClusterConfig::for_test(64, 0);
    let resident = Cluster::homogeneous(2, cfg.clone());
    resident.create_bucket("default").unwrap();
    let live = load_for_build(&resident);
    let acked = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let scan_resident = std::thread::scope(|s| {
        s.spawn(|| {
            let client = SmartClient::connect(Arc::clone(&resident), "default").unwrap();
            for i in 0.. {
                if stop.load(SeqCst) {
                    break;
                }
                client.upsert(&format!("w-{i:06}"), doc(i)).unwrap();
                acked.store(i as usize + 1, SeqCst);
            }
        });
        while acked.load(SeqCst) == 0 {
            std::thread::yield_now();
        }
        assert_eq!(build_primary_index(&resident), 0, "a resident bucket is built from memory");
        let ds = ClusterDatastore::new(Arc::clone(&resident));
        for _ in 0..5 {
            let promised = acked.load(SeqCst);
            let rows = ds
                .query(
                    "SELECT META().id AS id FROM default WHERE META().id LIKE 'w-%'",
                    &QueryOptions::default().request_plus(),
                )
                .unwrap()
                .rows;
            let seen: std::collections::HashSet<&str> =
                rows.iter().filter_map(|r| r.get_field("id").and_then(Value::as_str)).collect();
            for i in 0..promised {
                assert!(seen.contains(format!("w-{i:06}").as_str()), "w-{i:06} acked, not scanned");
            }
        }
        stop.store(true, SeqCst);
        primary_scan(&resident)
    });
    assert_eq!(scan_resident, live);

    // (b) The same documents under a quota that keeps about a quarter of
    // the values: the build reads exactly the evicted ones, once each.
    let evicting = Cluster::homogeneous(
        2,
        ClusterConfig { cache_quota: 100_000, ..ClusterConfig::for_test(64, 0) },
    );
    evicting.create_bucket("default").unwrap();
    assert_eq!(load_for_build(&evicting), live);
    let evicted: u64 = engines_of(&evicting)
        .iter()
        .map(|e| e.cache_stats())
        .map(|c| c.items - c.resident_items)
        .sum();
    let share = evicted as f64 / live.len() as f64;
    assert!((0.5..0.95).contains(&share), "{evicted} of {} values evicted", live.len());
    assert_eq!(build_primary_index(&evicting), evicted);
    assert_eq!(primary_scan(&evicting), live);
    // Counting the keyspace needs no values either.
    let rows = ClusterDatastore::new(Arc::clone(&evicting))
        .query("SELECT * FROM system:keyspaces", &QueryOptions::default())
        .unwrap()
        .rows;
    let count = rows[0].get_field("keyspaces").and_then(|r| r.get_field("count"));
    assert_eq!(count, Some(&Value::from(live.len())));
    assert_eq!(backfill_disk_reads(&evicting), evicted, "the count read nothing more");

    // (c) The engines of (a) dropped and re-created from their shard logs,
    // warmed up as a restart does: served from memory again.
    wait_all_persisted(&resident);
    drop(resident);
    let restarted = Cluster::homogeneous(2, cfg);
    restarted.create_bucket("default").unwrap();
    for engine in engines_of(&restarted) {
        for vb in (0..64).map(VbId) {
            engine.recover_vb(vb).unwrap();
        }
    }
    assert_eq!(build_primary_index(&restarted), 0, "warm-up made the bucket resident again");
    assert_eq!(primary_scan(&restarted), live);
}

/// Every replica copy has caught up with its active copy.
fn replicas_caught_up(cluster: &Cluster) -> bool {
    let map = cluster.map("default").unwrap();
    (0..map.num_vbuckets()).map(VbId).all(|vb| {
        let high = cluster.active_engine("default", vb).unwrap().high_seqno(vb);
        let engine = |n: &NodeId| cluster.node(*n).unwrap().engine("default").unwrap();
        map.replica_nodes(vb).iter().all(|n| engine(n).high_seqno(vb) == high)
    })
}

/// The pump is one subscriber per vBucket — replicas, GSI and FTS share
/// it — and it cycles only when something was published: counted, not timed.
#[test]
fn pump_holds_one_subscription_per_vbucket_and_idles_without_cycling() {
    let cluster = small_cluster(4, 1);
    assert!(!cluster.index_managers().is_empty(), "index (and FTS) services are fed");
    let lag = cluster.replication_lag("default").unwrap();
    // Cycle 1 primes the lag table at bucket creation; 2 is the pump's
    // subscription pass.
    assert!(wait_until(Duration::from_secs(10), || lag.cycle() >= 2));
    for vb in (0..64).map(VbId) {
        let active = cluster.active_engine("default", vb).unwrap();
        assert_eq!(active.hub().subscriber_count(vb), 1, "{vb:?}");
    }

    let idle = lag.cycle();
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(lag.cycle(), idle, "an idle bucket's pump must stay parked");

    let client = SmartClient::connect(Arc::clone(&cluster), "default").unwrap();
    const WRITES: u64 = 25;
    load_docs(&client, WRITES as usize);
    assert!(wait_until(Duration::from_secs(10), || replicas_caught_up(&cluster)));
    let cycled = lag.cycle() - idle;
    assert!((1..=WRITES).contains(&cycled), "{cycled} cycles for {WRITES} writes");
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(lag.cycle() - idle, cycled, "parked again once the writes are delivered");
}

/// Drops the first delivery attempt of every fourth seqno.
#[derive(Debug, Default)]
struct DropFirstAttempt(std::sync::atomic::AtomicUsize);

impl FaultInjector for DropFirstAttempt {
    fn repl_delivery(&self, _: VbId, seqno: SeqNo, _: NodeId, attempt: u32) -> FaultAction {
        if attempt == 0 && seqno.0 % 4 == 2 {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            FaultAction::Drop
        } else {
            FaultAction::Deliver
        }
    }
}

/// A dropped delivery resets the pump's one feed: the cut replica is
/// redelivered the hole, and the GSI side — which shares the subscription —
/// neither misses a key nor is handed the replay at or below its cursor.
#[test]
fn dropped_delivery_is_redelivered_and_the_replay_is_filtered_from_gsi() {
    use cbs_dcp::BackfillSource;
    let drops = Arc::new(DropFirstAttempt::default());
    let cfg = ClusterConfig::for_chaos(8, 1, Arc::clone(&drops) as Arc<dyn FaultInjector>);
    let cluster = Cluster::homogeneous(3, cfg);
    cluster.create_bucket("default").unwrap();
    build_primary_index(&cluster);
    let applied = || cluster.stats().counter("index.manager.items_applied");
    let applied_before = applied();

    let client = SmartClient::connect(Arc::clone(&cluster), "default").unwrap();
    load_docs(&client, 200);
    assert!(wait_until(Duration::from_secs(20), || replicas_caught_up(&cluster)));
    assert!(drops.0.load(std::sync::atomic::Ordering::SeqCst) > 0, "nothing was dropped");

    // Each replica copy holds exactly what its active copy holds: no hole
    // was skipped over.
    let map = cluster.map("default").unwrap();
    let versions = |engine: &cbs_kv::DataEngine, vb| -> Vec<(String, SeqNo)> {
        let (items, _) = engine.backfill(vb, SeqNo::ZERO).unwrap();
        items.into_iter().map(|i| (i.key.into(), i.meta.seqno)).collect()
    };
    for vb in (0..8).map(VbId) {
        let active = versions(&cluster.active_engine("default", vb).unwrap(), vb);
        for replica in map.replica_nodes(vb) {
            let engine = cluster.node(*replica).unwrap().engine("default").unwrap();
            assert_eq!(versions(&engine, vb), active, "{vb:?} on {replica:?}");
        }
    }

    let mut acked: Vec<String> = (0..200).map(|i| format!("doc-{i}")).collect();
    acked.sort();
    assert_eq!(primary_scan(&cluster), acked);
    assert_eq!(applied() - applied_before, 200, "each write is handed to the index once");
}

/// Voluntary context switches, summed, of this process's threads whose name
/// starts with `prefix` (`None`: no such thread). Linux only: read from
/// `/proc/self/task/*/status`.
#[cfg(target_os = "linux")]
fn voluntary_switches(prefix: &str) -> Option<u64> {
    let mut total = None;
    for task in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
        let name = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        if !name.starts_with(prefix) {
            continue;
        }
        let status = std::fs::read_to_string(task.path().join("status")).unwrap_or_default();
        let switches = status.lines().find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"));
        *total.get_or_insert(0) += switches.and_then(|n| n.trim().parse::<u64>().ok())?;
    }
    total
}

/// An idle bucket's pump stays parked — nothing wakes it while nothing is
/// published and no map is installed — and dropping it wakes it to stop
/// rather than leaving it a flag to poll.
#[cfg(target_os = "linux")]
#[test]
fn idle_pump_stays_parked_and_stops_on_drop() {
    // A bucket name of its own: the thread is `dcp-pump-idle`, not shared
    // with the other tests' pumps in this process.
    let cluster = Cluster::homogeneous(4, ClusterConfig::for_test(64, 1));
    cluster.create_bucket("idle").unwrap();
    let lag = cluster.replication_lag("idle").unwrap();
    assert!(wait_until(Duration::from_secs(10), || lag.cycle() >= 2), "the pump subscribed");
    std::thread::sleep(Duration::from_millis(20));

    let before = voluntary_switches("dcp-pump-idle").expect("the pump thread runs");
    std::thread::sleep(Duration::from_millis(500));
    let woke = voluntary_switches("dcp-pump-idle").unwrap() - before;
    assert!(woke <= 5, "an idle pump woke {woke} times in 500 ms");

    let started = std::time::Instant::now();
    drop(cluster);
    assert!(started.elapsed() < Duration::from_secs(1), "drop took {:?}", started.elapsed());
    assert_eq!(voluntary_switches("dcp-pump-idle"), None, "the pump thread was joined");
}
