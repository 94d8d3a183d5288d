//! The cluster manager (§4.3.1): membership, orchestrator election,
//! failover, rebalance.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cbs_common::sync::{rank, OrderedMutex, OrderedRwLock};
use cbs_common::{Deadline, Error, NodeId, Result, SeqNo, VbId};
use cbs_dcp::FeedWaker;
use cbs_json::Value;
use cbs_kv::VbState;
use cbs_views::{ViewQuery, ViewResult, ViewRow};

use crate::config::{ClusterConfig, ServiceSet};
use crate::lag::ReplicationLagTable;
use crate::map::ClusterMap;
use crate::node::Node;
use crate::replication::{PumpTopology, ReplicationPump};

/// A bucket's running pump, its lock-free lag table and the feeds its map
/// installs wake. The table is shared out (`Arc`) to stats/catalog readers;
/// the pump thread is the table's single writer.
struct PumpEntry {
    /// Held for its `Drop`: removing the entry stops the pump thread.
    _pump: ReplicationPump,
    lag: Arc<ReplicationLagTable>,
    /// Woken by every map install: the pump's feed and each XDCR link's.
    watchers: Vec<FeedWaker>,
}

pub(crate) struct ClusterInner {
    pub cfg: ClusterConfig,
    pub nodes: OrderedRwLock<Vec<Arc<Node>>>,
    /// Per-bucket cluster maps.
    pub maps: OrderedRwLock<HashMap<String, ClusterMap>>,
    /// The cluster's full-text search service (§6.1.3), fed by the DCP
    /// pump like the GSI service.
    pub fts: Arc<cbs_fts::FtsService>,
    /// The query service's metrics registry ("any query node can receive a
    /// statement"; in-process the query nodes share one registry).
    pub query_registry: Arc<cbs_obs::Registry>,
    /// The query service's request log (active set + completed ring),
    /// feeding `system:active_requests` / `system:completed_requests`.
    /// Shared across query nodes the way the registry is.
    pub request_log: Arc<cbs_n1ql::RequestLog>,
    /// The query service's prepared-statement / plan cache, shared across
    /// query nodes like the registry ("a prepared statement is usable on
    /// any query node"). Its `n1ql.plancache.*` metrics live in
    /// `query_registry`.
    pub plan_cache: Arc<cbs_n1ql::PlanCache>,
    /// Finished-transaction ring (committed/aborted rows from the
    /// `cbs-txn` coordinator), feeding `system:transactions`.
    pub txn_log: Arc<crate::txnlog::TxnLog>,
    /// The cluster-wide trace store (DESIGN.md §10): every node's
    /// engine, the replication pumps, and the smart clients stitch their
    /// spans here, keyed by `trace_id`.
    pub trace_store: Arc<cbs_obs::TraceStore>,
    /// Cluster-lifecycle flight recorder (failover, rebalance, node
    /// membership) feeding `system:events` and chaos postmortem dumps.
    pub events: Arc<cbs_obs::Registry>,
}

impl ClusterInner {
    pub fn node(&self, id: NodeId) -> Result<Arc<Node>> {
        self.nodes
            .read()
            .iter()
            .find(|n| n.id() == id)
            .cloned()
            .ok_or_else(|| Error::Cluster(format!("unknown node {id:?}")))
    }

    pub fn alive_data_nodes(&self) -> Vec<Arc<Node>> {
        self.nodes.read().iter().filter(|n| n.is_alive() && n.services().data).cloned().collect()
    }

    pub fn map(&self, bucket: &str) -> Result<ClusterMap> {
        self.read_map(bucket, ClusterMap::clone)
    }

    /// Read what a caller needs off a bucket's map under the `maps` read
    /// guard — a path that wants one entry does not clone 1024 of them.
    pub fn read_map<T>(&self, bucket: &str, read: impl FnOnce(&ClusterMap) -> T) -> Result<T> {
        self.maps
            .read()
            .get(bucket)
            .map(read)
            .ok_or_else(|| Error::Cluster(format!("unknown bucket {bucket}")))
    }
}

/// A Couchbase cluster: nodes + buckets + the management plane.
pub struct Cluster {
    inner: Arc<ClusterInner>,
    pumps: OrderedMutex<HashMap<String, PumpEntry>>,
    next_node_id: AtomicU32,
    rebalancing: AtomicBool,
}

impl Cluster {
    /// Build a cluster of `n` nodes all running every service (the
    /// homogeneous Figure 4 topology).
    pub fn homogeneous(n: usize, cfg: ClusterConfig) -> Arc<Cluster> {
        Cluster::with_services(vec![ServiceSet::all(); n], cfg)
    }

    /// Build a cluster with explicit per-node service sets (MDS, §4.4).
    pub fn with_services(services: Vec<ServiceSet>, cfg: ClusterConfig) -> Arc<Cluster> {
        let trace_store = cbs_obs::TraceStore::new();
        let nodes: Vec<Arc<Node>> = services
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                Arc::new(Node::new(NodeId(i as u32), s, &cfg).with_trace_store(&trace_store))
            })
            .collect();
        let next = nodes.len() as u32;
        let query_registry = Arc::new(cbs_obs::Registry::new("n1ql"));
        let plan_cache = Arc::new(cbs_n1ql::PlanCache::with_registry(&query_registry));
        Arc::new(Cluster {
            inner: Arc::new(ClusterInner {
                fts: Arc::new(cbs_fts::FtsService::new(cfg.num_vbuckets)),
                cfg,
                nodes: OrderedRwLock::new(rank::CLUSTER_NODES, nodes),
                maps: OrderedRwLock::new(rank::CLUSTER_MAPS, HashMap::new()),
                query_registry,
                request_log: Arc::new(cbs_n1ql::RequestLog::new("n1ql")),
                plan_cache,
                txn_log: Arc::new(crate::txnlog::TxnLog::default()),
                trace_store,
                events: Arc::new(cbs_obs::Registry::new("cluster")),
            }),
            pumps: OrderedMutex::new(rank::CLUSTER_PUMPS, HashMap::new()),
            next_node_id: AtomicU32::new(next),
            rebalancing: AtomicBool::new(false),
        })
    }

    /// Cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.inner.cfg
    }

    /// All nodes.
    pub fn nodes(&self) -> Vec<Arc<Node>> {
        self.inner.nodes.read().clone()
    }

    /// Look up a node.
    pub fn node(&self, id: NodeId) -> Result<Arc<Node>> {
        self.inner.node(id)
    }

    /// The current orchestrator: "the nodes also elect a cluster-wide
    /// orchestrator node" — deterministic election of the lowest-id alive
    /// node, re-run implicitly whenever liveness changes ("they will elect
    /// a new orchestrator immediately").
    pub fn orchestrator(&self) -> Option<NodeId> {
        self.inner.nodes.read().iter().filter(|n| n.is_alive()).map(|n| n.id()).min()
    }

    /// The map for a bucket (what smart clients cache).
    pub fn map(&self, bucket: &str) -> Result<ClusterMap> {
        self.inner.map(bucket)
    }

    /// Number of vBuckets a bucket is partitioned into.
    pub fn num_vbuckets(&self, bucket: &str) -> Result<u16> {
        self.inner.read_map(bucket, ClusterMap::num_vbuckets)
    }

    /// Bucket names.
    pub fn buckets(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.maps.read().keys().cloned().collect();
        v.sort();
        v
    }

    // ------------------------------------------------------------------
    // Bucket management
    // ------------------------------------------------------------------

    /// Create a bucket across all data nodes, compute its initial balanced
    /// map, activate vBuckets, and start its replication/index pump.
    pub fn create_bucket(&self, bucket: &str) -> Result<()> {
        if self.inner.maps.read().contains_key(bucket) {
            return Err(Error::Cluster(format!("bucket {bucket} already exists")));
        }
        let data_nodes = self.inner.alive_data_nodes();
        if data_nodes.is_empty() {
            return Err(Error::Cluster("no data nodes available".to_string()));
        }
        // What the bucket's engines wake on a replica apply: shared, so that
        // a durable write waits once for whichever replica copy acks first.
        let seqno_signal = Arc::new(cbs_common::Signal::default());
        for node in self.inner.nodes.read().iter() {
            node.create_bucket(bucket, &seqno_signal)?;
        }
        let ids: Vec<NodeId> = data_nodes.iter().map(|n| n.id()).collect();
        let map =
            ClusterMap::balanced(0, self.inner.cfg.num_vbuckets, &ids, self.inner.cfg.num_replicas);
        // Activate placement on the engines.
        for node in &data_nodes {
            let engine = node.engine(bucket)?;
            for vb in map.active_vbs(node.id()) {
                engine.set_vb_state(vb, VbState::Active);
            }
            for vb in map.replica_vbs(node.id()) {
                engine.set_vb_state(vb, VbState::Replica);
            }
        }
        self.install_map(bucket, |installed| {
            *installed = map;
            (true, ())
        });
        // Start the DCP pump (replication + GSI feed) for this bucket.
        let lag = Arc::new(ReplicationLagTable::new(
            bucket,
            self.inner.cfg.num_vbuckets,
            self.inner.cfg.num_replicas as usize,
        ));
        // Prime the table with the creation topology before the pump thread
        // (its single writer from here on) starts: stats and the
        // `system:replication` catalog read rows the instant the bucket
        // exists instead of racing the pump's first cycle.
        lag.observe(&topology_snapshot(&self.inner, bucket));
        let pump = ReplicationPump::spawn(bucket, Arc::clone(&self.inner), Arc::clone(&lag));
        let waker = pump.waker.clone();
        let watchers = vec![waker.clone()];
        self.pumps.lock().insert(bucket.to_string(), PumpEntry { _pump: pump, lag, watchers });
        // In case the pump read its first map before it was a watcher.
        waker.wake();
        Ok(())
    }

    /// Wake `waker` after every change to `bucket`'s map, until its feed is
    /// gone (an XDCR link registers before it first reads the map).
    pub fn watch_map(&self, bucket: &str, waker: FeedWaker) -> Result<()> {
        let mut pumps = self.pumps.lock();
        let entry = pumps
            .get_mut(bucket)
            .ok_or_else(|| Error::Cluster(format!("unknown bucket {bucket}")))?;
        entry.watchers.push(waker);
        Ok(())
    }

    /// The one way a bucket's map changes: `change` edits it (an empty one
    /// for a new bucket) in place under the write guard and says whether it
    /// did; a change bumps the epoch and then wakes the bucket's watchers.
    fn install_map<T>(&self, bucket: &str, change: impl FnOnce(&mut ClusterMap) -> (bool, T)) -> T {
        let mut maps = self.inner.maps.write();
        let map = maps.entry(bucket.to_string()).or_default();
        let (changed, out) = change(map);
        if changed {
            map.epoch += 1;
        }
        drop(maps);
        if changed {
            if let Some(entry) = self.pumps.lock().get_mut(bucket) {
                entry.watchers.retain(FeedWaker::wake);
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Failure handling (§4.3.1)
    // ------------------------------------------------------------------

    /// Crash a node (failure injection).
    pub fn kill_node(&self, id: NodeId) -> Result<()> {
        self.inner.node(id)?.kill();
        self.inner.events.record_event_with_help(
            "cluster.events.node_killed",
            "a node was crashed (failure injection or hard down)",
            &[("node", format!("n{}", id.0))],
        );
        Ok(())
    }

    /// Fail over a (dead) node: "It promotes to active status replica
    /// partitions associated with the server that went down. The cluster
    /// map will also be updated on all of the cluster nodes and the
    /// clients."
    ///
    /// Returns the number of vBuckets promoted across all buckets. vBuckets
    /// with no surviving replica are lost until the node returns (as in the
    /// real system with replica count 0).
    pub fn failover(&self, dead: NodeId) -> Result<usize> {
        let node = self.inner.node(dead)?;
        if node.is_alive() {
            return Err(Error::Cluster(format!("{dead:?} is still alive; refuse to fail over")));
        }
        let mut promoted = 0usize;
        let buckets = self.buckets();
        for bucket in buckets {
            // In place, not clone-mutate-insert, which would clobber a
            // concurrent install (a rebalance mover's takeover, another
            // failover). The promotions are recorded once it is installed.
            let promotions = self.install_map(&bucket, |map| {
                let mut promotions: Vec<(VbId, NodeId)> = Vec::new();
                let mut changed = false;
                for v in 0..map.num_vbuckets() {
                    let vb = VbId(v);
                    if map.active_node(vb) == dead {
                        // Promote the most caught-up replica that is alive AND
                        // still serves the bucket right now (a candidate dying
                        // between the liveness check and the promotion is just
                        // skipped; the next failover pass will handle it).
                        // Choosing the highest seqno both minimises data loss
                        // and keeps every surviving sibling a strict prefix of
                        // the new active's lineage — promoting a lagging
                        // replica would strand the sibling's extra seqnos in a
                        // divergent branch the pump can never reconcile.
                        let candidate = map
                            .replica_nodes(vb)
                            .iter()
                            .copied()
                            .filter_map(|r| {
                                self.inner
                                    .node(r)
                                    .ok()
                                    .filter(|n| n.is_alive())
                                    .and_then(|n| n.engine(&bucket).ok())
                                    .map(|e| (r, e))
                            })
                            .max_by_key(|(_, e)| e.high_seqno(vb));
                        if let Some((new_active, engine)) = candidate {
                            engine.set_vb_state(vb, VbState::Active);
                            map.active[vb.index()] = new_active;
                            map.replicas[vb.index()].retain(|r| *r != new_active && *r != dead);
                            changed = true;
                            promotions.push((vb, new_active));
                        }
                    } else if map.replicas[vb.index()].contains(&dead) {
                        map.replicas[vb.index()].retain(|r| *r != dead);
                        changed = true;
                    }
                }
                (changed, promotions)
            });
            promoted += promotions.len();
            for (vb, new_active) in promotions {
                self.inner.events.record_event_with_help(
                    "cluster.events.replica_promotion",
                    "a replica vBucket was promoted to active during failover",
                    &[
                        ("bucket", bucket.clone()),
                        ("vb", vb.0.to_string()),
                        ("from", format!("n{}", dead.0)),
                        ("to", format!("n{}", new_active.0)),
                    ],
                );
            }
        }
        // Idempotent re-passes (auto-failover polling an already-removed
        // node) promote nothing and record nothing, keeping the flight
        // recorder free of timing-dependent noise.
        if promoted > 0 {
            self.inner.events.record_event_with_help(
                "cluster.events.failover",
                "a dead node was failed over; its vBuckets were promoted",
                &[("node", format!("n{}", dead.0)), ("promoted", promoted.to_string())],
            );
        }
        Ok(promoted)
    }

    /// Install a cluster map's placement verbatim (at the next epoch),
    /// bypassing promotion and backfill entirely. Test hook for chaos
    /// "teeth" tests that deliberately re-introduce known failover bugs
    /// (e.g. routing a vBucket to a node that skipped replica promotion) to
    /// prove the history checker catches them. Never called by production
    /// code.
    #[doc(hidden)]
    pub fn debug_install_map(&self, bucket: &str, map: ClusterMap) -> Result<()> {
        self.inner.read_map(bucket, |_| ())?;
        self.install_map(bucket, |installed| {
            *installed = ClusterMap { epoch: installed.epoch, ..map };
            (true, ())
        });
        Ok(())
    }

    /// Spawn the orchestrator's failure monitor: "If a node in the cluster
    /// crashes or otherwise becomes unavailable, the orchestrator notifies
    /// all other machines in the cluster. It promotes to active status
    /// replica partitions associated with the server that went down"
    /// (§4.3.1). The monitor heartbeats every node each `interval` and
    /// fails over any that stop responding. Returns a guard; drop it to
    /// stop monitoring.
    pub fn spawn_auto_failover(self: &Arc<Self>, interval: Duration) -> AutoFailover {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let cluster = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("cbs-auto-failover".to_string())
            .spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    for node in cluster.nodes() {
                        if !node.is_alive() {
                            // The orchestrator performs the promotion; in
                            // this simulation any caller thread can act for
                            // it (election is deterministic). failover() is
                            // idempotent — once the dead node is out of the
                            // map it promotes nothing and changes nothing —
                            // so no bookkeeping is needed across passes.
                            let _ = cluster.failover(node.id());
                        }
                    }
                    std::thread::sleep(interval);
                }
            })
            .expect("spawn auto-failover");
        AutoFailover { stop, handle: Some(handle) }
    }

    // ------------------------------------------------------------------
    // Topology changes + rebalance (§4.3.1)
    // ------------------------------------------------------------------

    /// Add a fresh node with the given services (it owns nothing until a
    /// rebalance).
    pub fn add_node(&self, services: ServiceSet) -> Result<NodeId> {
        let id = NodeId(self.next_node_id.fetch_add(1, Ordering::Relaxed));
        let node = Arc::new(
            Node::new(id, services, &self.inner.cfg).with_trace_store(&self.inner.trace_store),
        );
        for bucket in self.buckets() {
            // The signal the bucket's engines already share; a bucket with
            // no data node yet gets its first one here.
            let seqno_signal = self
                .inner
                .nodes
                .read()
                .iter()
                .find_map(|n| n.engine_unchecked(&bucket))
                .map(|e| Arc::clone(e.seqno_signal()))
                .unwrap_or_default();
            node.create_bucket(&bucket, &seqno_signal)?;
        }
        self.inner.nodes.write().push(node);
        self.inner.events.record_event_with_help(
            "cluster.events.node_added",
            "a fresh node joined the cluster (owns nothing until rebalance)",
            &[("node", format!("n{}", id.0))],
        );
        Ok(id)
    }

    /// Rebalance every bucket to the balanced layout over the current
    /// alive data nodes, excluding `exclude` (for rebalance-out). "Once
    /// the cluster moves each partition from one location to another, an
    /// atomic and consistent switchover takes place."
    pub fn rebalance(&self, exclude: &[NodeId]) -> Result<()> {
        if self.rebalancing.swap(true, Ordering::SeqCst) {
            return Err(Error::Cluster("rebalance already in progress".to_string()));
        }
        let result = self.rebalance_inner(exclude);
        self.rebalancing.store(false, Ordering::SeqCst);
        self.inner.events.record_event_with_help(
            "cluster.events.rebalance",
            "a rebalance to the balanced layout finished (ok or failed)",
            &[
                (
                    "excluded",
                    exclude.iter().map(|n| format!("n{}", n.0)).collect::<Vec<_>>().join("+"),
                ),
                ("outcome", if result.is_ok() { "ok".to_string() } else { "failed".to_string() }),
            ],
        );
        result
    }

    fn rebalance_inner(&self, exclude: &[NodeId]) -> Result<()> {
        let target_nodes: Vec<Arc<Node>> = self
            .inner
            .alive_data_nodes()
            .into_iter()
            .filter(|n| !exclude.contains(&n.id()))
            .collect();
        if target_nodes.is_empty() {
            return Err(Error::Cluster("rebalance needs at least one data node".to_string()));
        }
        let ids: Vec<NodeId> = target_nodes.iter().map(|n| n.id()).collect();

        for bucket in self.buckets() {
            let current = self.inner.map(&bucket)?;
            let target = ClusterMap::balanced(
                current.epoch + 1,
                current.num_vbuckets(),
                &ids,
                self.inner.cfg.num_replicas,
            );

            // Phase 1: move actives, one vBucket at a time.
            for v in 0..current.num_vbuckets() {
                let vb = VbId(v);
                let src_id = self.inner.map(&bucket)?.active_node(vb);
                let dst_id = target.active_node(vb);
                if src_id == dst_id {
                    continue;
                }
                self.move_active_vb(&bucket, vb, src_id, dst_id)?;
            }

            // Phase 2: (re)build replica chains. Rebalance is not done
            // until new replicas actually hold the data — a failover right
            // after rebalance must be safe. Map updates are per-vBucket and
            // in place under the write lock: holding a cloned map across
            // the (slow) backfills and installing it wholesale at the end
            // would clobber any concurrent failover's promotions.
            for v in 0..current.num_vbuckets() {
                let vb = VbId(v);
                let wanted = target.replica_nodes(vb).to_vec();
                let snapshot = self.inner.map(&bucket)?;
                let have = snapshot.replica_nodes(vb).to_vec();
                for r in &wanted {
                    if !have.contains(r) && *r != snapshot.active_node(vb) {
                        let engine = self.inner.node(*r)?.engine(&bucket)?;
                        if engine.vb_state(vb) != VbState::Replica {
                            engine.purge_vb(vb)?;
                            engine.set_vb_state(vb, VbState::Replica);
                        }
                        // Synchronous initial copy (backfill + catch-up);
                        // the steady-state pump takes over from here.
                        let src = self
                            .inner
                            .node(self.inner.map(&bucket)?.active_node(vb))?
                            .engine(&bucket)?;
                        let mut stream = src.open_dcp_stream(vb, engine.high_seqno(vb))?;
                        let goal = src.high_seqno(vb);
                        let until = Deadline::after(Duration::from_secs(30));
                        for item in stream.drain_until(goal, until) {
                            engine.apply_replica(&item)?;
                        }
                    }
                }
                // Install the chain for this vBucket against the *current*
                // map state, then decide removals from the same consistent
                // view: a replica that a concurrent failover just promoted
                // to active must be neither listed nor purged.
                let removals: Vec<NodeId> = self.install_map(&bucket, |map| {
                    let active = map.active_node(vb);
                    let new_chain: Vec<NodeId> =
                        wanted.iter().copied().filter(|r| *r != active).collect();
                    let changed = map.replicas[vb.index()] != new_chain;
                    map.replicas[vb.index()] = new_chain;
                    let removals = have.into_iter().filter(|r| !wanted.contains(r) && *r != active);
                    (changed, removals.collect())
                });
                for r in removals {
                    if let Ok(node) = self.inner.node(r) {
                        if let Ok(engine) = node.engine(&bucket) {
                            engine.purge_vb(vb)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Move one active vBucket from `src` to `dst` via DCP backfill + live
    /// tail, finishing with the atomic takeover.
    fn move_active_vb(&self, bucket: &str, vb: VbId, src_id: NodeId, dst_id: NodeId) -> Result<()> {
        let src = self.inner.node(src_id)?.engine(bucket)?;
        let dst = self.inner.node(dst_id)?.engine(bucket)?;
        // "Rebalance marks the destination partitions as being replicas
        // until they are ready to be switched to active" — our Pending
        // state.
        dst.set_vb_state(vb, VbState::Pending);
        let mut stream = src.open_dcp_stream(vb, dst.high_seqno(vb))?;
        // Backfill + catch up to the source's current high seqno.
        let deadline = Deadline::after(Duration::from_secs(60));
        loop {
            let goal = src.high_seqno(vb);
            for item in stream.drain_until(goal, deadline) {
                dst.apply_replica(&item)?;
            }
            if stream.cursor() >= goal {
                break;
            }
            if deadline.expired() {
                return Err(Error::Timeout(format!("rebalance mover for {vb:?}")));
            }
        }
        // Atomic takeover: block writes on the source, drain the last few
        // in-flight items, flip the destination to active.
        src.set_vb_state(vb, VbState::Dead);
        for item in stream.drain_available() {
            dst.apply_replica(&item)?;
        }
        dst.set_vb_state(vb, VbState::Active);
        // Install the map change so clients re-route (epoch bump per move:
        // "the cluster updates each connected client library with the new
        // cluster map").
        self.install_map(bucket, |map| {
            map.active[vb.index()] = dst_id;
            map.replicas[vb.index()].retain(|r| *r != dst_id);
            (true, ())
        });
        // The source no longer owns the partition at all ("Dead: this
        // server is not in any way responsible for this partition").
        src.purge_vb(vb)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Cluster-wide helpers for services
    // ------------------------------------------------------------------

    /// The engine currently active for a vBucket.
    pub fn active_engine(&self, bucket: &str, vb: VbId) -> Result<Arc<cbs_kv::DataEngine>> {
        let active = self.inner.read_map(bucket, |m| m.active_node(vb))?;
        self.inner.node(active)?.engine(bucket)
    }

    /// Cluster-wide high-seqno vector for a bucket (the `request_plus`
    /// consistency token, aggregated over active vBuckets).
    pub fn seqno_vector(&self, bucket: &str) -> Result<Vec<SeqNo>> {
        let map = self.inner.map(bucket)?;
        let mut out = vec![SeqNo::ZERO; map.num_vbuckets() as usize];
        for node in self.inner.alive_data_nodes() {
            if let Ok(engine) = node.engine(bucket) {
                for vb in map.active_vbs(node.id()) {
                    out[vb.index()] = engine.high_seqno(vb);
                }
            }
        }
        Ok(out)
    }

    /// All index managers in the cluster (index-service nodes).
    pub fn index_managers(&self) -> Vec<Arc<cbs_index::IndexManager>> {
        self.inner
            .nodes
            .read()
            .iter()
            .filter(|n| n.is_alive())
            .filter_map(|n| n.index_manager().ok())
            .collect()
    }

    /// The index manager DDL and scans are routed to (first alive
    /// index-service node).
    pub fn index_manager(&self) -> Result<Arc<cbs_index::IndexManager>> {
        self.index_managers()
            .into_iter()
            .next()
            .ok_or_else(|| Error::Cluster("no index service in the cluster".to_string()))
    }

    /// Register a design document on every data node (views are local
    /// indexes co-located with the data, §3.3.1).
    pub fn create_design_doc(&self, bucket: &str, ddoc: cbs_views::DesignDoc) -> Result<()> {
        for node in self.inner.alive_data_nodes() {
            node.view_engine(bucket)?.create_design_doc(ddoc.clone())?;
        }
        Ok(())
    }

    /// Cluster-wide view query: "a given view query will be broadcast to
    /// all servers in the cluster and the results will be merged" (§3.1.2,
    /// Figure 8).
    pub fn view_query(
        &self,
        bucket: &str,
        ddoc: &str,
        view: &str,
        q: &ViewQuery,
    ) -> Result<ViewResult> {
        let mut partials: Vec<ViewResult> = Vec::new();
        for node in self.inner.alive_data_nodes() {
            partials.push(node.view_engine(bucket)?.query(ddoc, view, q)?);
        }
        Ok(merge_view_results(partials, q))
    }

    /// The full-text search service (§6.1.3). Indexes created here are
    /// maintained from the same DCP pump that feeds the GSI service, so
    /// they survive failover and rebalance.
    pub fn fts(&self) -> &Arc<cbs_fts::FtsService> {
        &self.inner.fts
    }

    /// Create a full-text search index over a bucket and build it from the
    /// current data (catch-up happens through the pump's from-zero
    /// streams; this call just registers the definition).
    pub fn create_fts_index(&self, def: cbs_fts::FtsIndexDef) -> Result<()> {
        self.map(&def.keyspace)?; // bucket must exist
        self.inner.fts.create_index(def)
    }

    /// Search a full-text index. With `consistent`, the search waits until
    /// the index has processed every mutation acknowledged before this
    /// call (the FTS analogue of `request_plus`).
    pub fn fts_search(
        &self,
        bucket: &str,
        index: &str,
        query: &cbs_fts::SearchQuery,
        limit: usize,
        consistent: bool,
    ) -> Result<Vec<cbs_fts::SearchHit>> {
        let target = if consistent { Some(self.seqno_vector(bucket)?) } else { None };
        self.inner.fts.search(
            bucket,
            index,
            query,
            limit,
            target.as_deref(),
            Duration::from_secs(30),
        )
    }

    /// Per-node operation counters summed (throughput accounting for the
    /// benchmark harness).
    pub fn total_ops(&self, bucket: &str) -> u64 {
        self.inner
            .alive_data_nodes()
            .iter()
            .filter_map(|n| n.engine(bucket).ok())
            .map(|e| e.stats().total_ops())
            .sum()
    }

    // ------------------------------------------------------------------
    // Observability (the cbstats surface)
    // ------------------------------------------------------------------

    /// The query service's metrics registry.
    pub fn query_registry(&self) -> &Arc<cbs_obs::Registry> {
        &self.inner.query_registry
    }

    /// The query service's request log — the live backing store of the
    /// `system:active_requests` / `system:completed_requests` keyspaces.
    pub fn request_log(&self) -> &Arc<cbs_n1ql::RequestLog> {
        &self.inner.request_log
    }

    /// The query service's prepared-statement / plan cache — the live
    /// backing store of the `system:prepareds` keyspace.
    pub fn plan_cache(&self) -> &Arc<cbs_n1ql::PlanCache> {
        &self.inner.plan_cache
    }

    /// The cluster's finished-transaction log — the live backing store of
    /// the `system:transactions` keyspace, written by the `cbs-txn`
    /// coordinator.
    pub fn txn_log(&self) -> &Arc<crate::txnlog::TxnLog> {
        &self.inner.txn_log
    }

    /// A bucket's live replication-lag table (per-(vBucket, replica) seqno
    /// lag maintained by the DCP pump), `None` for unknown buckets. The
    /// pumps lock is held only to clone the `Arc` out.
    pub fn replication_lag(&self, bucket: &str) -> Option<Arc<ReplicationLagTable>> {
        self.pumps.lock().get(bucket).map(|e| Arc::clone(&e.lag))
    }

    /// Every bucket's lag table, for stats/catalog assembly. The pumps
    /// lock is held only to clone the `Arc`s out.
    pub(crate) fn lag_tables(&self) -> Vec<Arc<ReplicationLagTable>> {
        let mut tables: Vec<Arc<ReplicationLagTable>> =
            self.pumps.lock().values().map(|e| Arc::clone(&e.lag)).collect();
        tables.sort_by(|a, b| a.bucket().cmp(b.bucket()));
        tables
    }

    /// Freeze every registry in the cluster into one typed snapshot:
    /// per node, per service, per bucket, per vBucket — plus the slow-op
    /// log (the trace store's slow traces, span trees included).
    pub fn stats(&self) -> crate::stats::ClusterStats {
        let buckets = self.buckets();
        let mut nodes = Vec::new();
        for node in self.nodes() {
            let mut bucket_stats = Vec::new();
            let mut service_metrics = Vec::new();
            if node.is_alive() {
                for bucket in &buckets {
                    if let Ok(engine) = node.engine(bucket) {
                        bucket_stats.push(crate::stats::BucketStats {
                            bucket: bucket.clone(),
                            metrics: engine.registry().snapshot(),
                            vbuckets: engine.vbucket_stats(),
                        });
                    }
                }
                if let Ok(mgr) = node.index_manager() {
                    service_metrics.push(mgr.registry().snapshot());
                }
            }
            nodes.push(crate::stats::NodeStats {
                node: node.id(),
                services: node.services(),
                alive: node.is_alive(),
                buckets: bucket_stats,
                service_metrics,
            });
        }
        let mut cluster_services = Vec::new();
        for registry in [&self.inner.query_registry, self.inner.fts.registry()] {
            cluster_services.push(registry.snapshot());
        }
        // Replication-lag surfaces: each bucket's `cluster.replication.*`
        // registry joins the cluster services, and the live per-(vBucket,
        // replica) rows ride along for `system:replication`.
        let mut replication = Vec::new();
        for lag in self.lag_tables() {
            cluster_services.push(lag.registry().snapshot());
            replication.extend(lag.rows());
        }
        crate::stats::ClusterStats {
            nodes,
            cluster_services,
            slow_ops: self.inner.trace_store.slow_traces(),
            completed_requests: self.inner.request_log.completed_rows(),
            active_requests: self.inner.request_log.active_rows(),
            prepareds: self.inner.plan_cache.prepared_rows(),
            replication,
        }
    }

    /// The cluster-wide trace store: completed span trees stitched across
    /// client, nodes, replication and the flusher (DESIGN.md §10).
    pub fn trace_store(&self) -> &Arc<cbs_obs::TraceStore> {
        &self.inner.trace_store
    }

    /// The cluster-lifecycle flight recorder registry (`cluster.events.*`).
    pub fn events_registry(&self) -> &Arc<cbs_obs::Registry> {
        &self.inner.events
    }

    /// Every flight-recorder event in the cluster — lifecycle events from
    /// the cluster manager, the query service (plan-cache invalidations)
    /// and the txn coordinator, plus any recorded on node engines — sorted
    /// by (service, seq) for a deterministic postmortem timeline.
    pub fn flight_events(&self) -> Vec<cbs_obs::EventRec> {
        let mut evs = self.inner.events.events();
        evs.extend(self.inner.query_registry.events());
        evs.extend(self.inner.fts.registry().events());
        for node in self.nodes() {
            for bucket in self.buckets() {
                if let Some(engine) = node.engine_unchecked(&bucket) {
                    evs.extend(engine.registry().events());
                }
            }
        }
        evs.sort_by(|a, b| (a.service.as_str(), a.seq).cmp(&(b.service.as_str(), b.seq)));
        evs
    }

    /// Set the cluster's one "slow" threshold: operations at least this
    /// slow are kept by the trace store whether sampled or not, and survive
    /// its ring eviction (`Duration::ZERO` keeps every operation).
    pub fn set_slow_threshold(&self, threshold: Duration) {
        self.inner.trace_store.set_slow_threshold(threshold);
        // Keep the request log's admission threshold in step so "slow"
        // means the same thing for a trace and for a completed request.
        self.inner.request_log.set_threshold(threshold);
    }
}

/// Guard for the auto-failover monitor thread.
pub struct AutoFailover {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for AutoFailover {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

pub(crate) fn topology_snapshot(inner: &ClusterInner, bucket: &str) -> PumpTopology {
    let map = inner.map(bucket).expect("bucket exists while pump runs");
    let mut engines = HashMap::new();
    for node in inner.nodes.read().iter() {
        if node.is_alive() {
            if let Ok(e) = node.engine(bucket) {
                engines.insert(node.id(), e);
            }
        }
    }
    let index_managers = inner
        .nodes
        .read()
        .iter()
        .filter(|n| n.is_alive())
        .filter_map(|n| n.index_manager().ok())
        .collect();
    PumpTopology {
        map,
        engines,
        index_managers,
        fts_services: vec![Arc::clone(&inner.fts)],
        injector: inner.cfg.fault_injector.clone(),
    }
}

fn merge_view_results(partials: Vec<ViewResult>, q: &ViewQuery) -> ViewResult {
    let total_rows = partials.iter().map(|p| p.total_rows).sum();
    if q.reduce && !q.group {
        // Re-reduce the single-row partials. Counts/sums add; for stats we
        // merge the JSON objects field-wise.
        let mut rows: Vec<ViewRow> = Vec::new();
        for p in partials {
            for row in p.rows {
                match rows.first_mut() {
                    None => rows.push(row),
                    Some(acc) => acc.value = merge_reduced(&acc.value, &row.value),
                }
            }
        }
        return ViewResult { rows, total_rows };
    }
    // Row results (and grouped reductions) merge in key order.
    let mut rows: Vec<ViewRow> = partials.into_iter().flat_map(|p| p.rows).collect();
    rows.sort_by(|a, b| cbs_json::cmp_values(&a.key, &b.key));
    if q.reduce && q.group {
        // Merge adjacent groups with equal keys.
        let mut merged: Vec<ViewRow> = Vec::new();
        for row in rows {
            match merged.last_mut() {
                Some(last)
                    if cbs_json::cmp_values(&last.key, &row.key) == std::cmp::Ordering::Equal =>
                {
                    last.value = merge_reduced(&last.value, &row.value);
                }
                _ => merged.push(row),
            }
        }
        rows = merged;
    }
    if q.limit > 0 && rows.len() > q.limit {
        rows.truncate(q.limit);
    }
    ViewResult { rows, total_rows }
}

/// Combine two reduced values produced by the same reducer.
fn merge_reduced(a: &Value, b: &Value) -> Value {
    match (a, b) {
        (Value::Number(_), Value::Number(_)) => {
            // _count / _sum: addition.
            Value::float(a.as_f64().unwrap_or(0.0) + b.as_f64().unwrap_or(0.0)).into_int_if_whole()
        }
        (Value::Object(_), Value::Object(_)) => {
            // _stats objects.
            let f = |v: &Value, k: &str| v.get_field(k).and_then(Value::as_f64);
            let sum = f(a, "sum").unwrap_or(0.0) + f(b, "sum").unwrap_or(0.0);
            let count = f(a, "count").unwrap_or(0.0) + f(b, "count").unwrap_or(0.0);
            let sumsqr = f(a, "sumsqr").unwrap_or(0.0) + f(b, "sumsqr").unwrap_or(0.0);
            let min = match (f(a, "min"), f(b, "min")) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, None) => x,
                (None, y) => y,
            };
            let max = match (f(a, "max"), f(b, "max")) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, None) => x,
                (None, y) => y,
            };
            Value::object([
                ("sum", Value::float(sum).into_int_if_whole()),
                ("count", Value::float(count).into_int_if_whole()),
                ("min", min.map(|m| Value::float(m).into_int_if_whole()).unwrap_or(Value::Null)),
                ("max", max.map(|m| Value::float(m).into_int_if_whole()).unwrap_or(Value::Null)),
                ("sumsqr", Value::float(sumsqr).into_int_if_whole()),
            ])
        }
        _ => a.clone(),
    }
}

trait IntoIntIfWhole {
    fn into_int_if_whole(self) -> Value;
}

impl IntoIntIfWhole for Value {
    fn into_int_if_whole(self) -> Value {
        match self.as_f64() {
            Some(f) if f.fract() == 0.0 && f.abs() < 9e15 => Value::int(f as i64),
            _ => self,
        }
    }
}
