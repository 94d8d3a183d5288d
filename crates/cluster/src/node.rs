//! A cluster node: the per-server container of services (§4.3).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cbs_common::sync::{rank, OrderedRwLock};
use cbs_common::{Error, NodeId, Result, Signal};
use cbs_index::IndexManager;
use cbs_kv::{DataEngine, EngineConfig, FlusherPool};
use cbs_views::ViewEngine;

use crate::config::{ClusterConfig, ServiceSet};

/// The longest a bucket engine's flusher leaves queued writes undrained
/// ([`FlusherPool::spawn`]'s interval).
const FLUSH_INTERVAL: std::time::Duration = std::time::Duration::from_millis(10);

/// One bucket on this node: its data engine, the view engine over it
/// (co-located with data, §3.3.1) and the flusher thread, which stops when
/// the slice drops.
struct BucketSlice {
    engine: Arc<DataEngine>,
    views: Arc<ViewEngine>,
    _flusher: FlusherPool,
}

/// Bucket → slice map plus in-flight creation reservations. Both live
/// under one lock so "already exists" covers buckets still being built
/// without holding the lock across engine construction (file I/O).
#[derive(Default)]
struct BucketMap {
    ready: HashMap<String, BucketSlice>,
    creating: HashSet<String>,
}

/// One simulated server.
///
/// "The nodes in a Couchbase Server cluster can all look the same, or
/// various subsets of the cluster nodes can be configured to run a
/// particular (sub)set of services" (§4.3).
pub struct Node {
    id: NodeId,
    services: ServiceSet,
    alive: AtomicBool,
    /// Per-bucket slices (data service only). Rank `NODE_ENGINES`: top
    /// of the global order — engine calls under a read guard descend into
    /// every KV/storage rank.
    buckets: OrderedRwLock<BucketMap>,
    /// GSI manager (index service only).
    index_mgr: Option<Arc<IndexManager>>,
    /// Trace sink on this node's lane (`n<id>`), handed to every engine
    /// built here so spans stitch across nodes (DESIGN.md §10).
    trace: Option<cbs_obs::TraceSink>,
    cfg: ClusterConfig,
}

impl Node {
    /// Create a node with the given service set.
    pub fn new(id: NodeId, services: ServiceSet, cfg: &ClusterConfig) -> Node {
        let index_mgr = services.index.then(|| {
            Arc::new(IndexManager::new(
                cfg.num_vbuckets,
                cfg.data_root.join(format!("node{}", id.0)).join("gsi"),
            ))
        });
        Node {
            id,
            services,
            alive: AtomicBool::new(true),
            buckets: OrderedRwLock::new(rank::NODE_ENGINES, BucketMap::default()),
            index_mgr,
            trace: None,
            cfg: cfg.clone(),
        }
    }

    /// Attach a trace store; engines created afterwards record
    /// their spans on this node's `n<id>` lane.
    pub fn with_trace_store(mut self, store: &Arc<cbs_obs::TraceStore>) -> Node {
        self.trace = Some(cbs_obs::TraceSink::new(Arc::clone(store), &format!("n{}", self.id.0)));
        self
    }

    /// Node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Services this node runs.
    pub fn services(&self) -> ServiceSet {
        self.services
    }

    /// Liveness check (heartbeat target). A dead node fails every call.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Failure injection: crash the node.
    pub fn kill(&self) {
        self.alive.store(false, Ordering::SeqCst);
    }

    /// Bring a crashed node back (it rejoins with no active vBuckets; a
    /// rebalance re-integrates it).
    pub fn revive(&self) {
        self.alive.store(true, Ordering::SeqCst);
        // Liveness is part of a durability waiter's predicate
        // (`SmartClient::observe`): what changes it wakes them.
        for slice in self.buckets.read().ready.values() {
            slice.engine.seqno_signal().notify();
        }
    }

    fn check_alive(&self) -> Result<()> {
        if self.is_alive() {
            Ok(())
        } else {
            Err(Error::NodeDown(self.id))
        }
    }

    /// Create this node's slice of a bucket (data-service nodes only).
    /// `seqno_signal` is the one the bucket's engines on every node share
    /// ([`EngineConfig::seqno_signal`]).
    ///
    /// Engine construction opens data files and spawns the flusher thread;
    /// none of that happens under the engine-map lock. The map is write-
    /// locked twice — once to reserve the name (so a concurrent creator of
    /// the same bucket errors instead of racing on the data directory) and
    /// once to publish the finished engine.
    pub fn create_bucket(&self, bucket: &str, seqno_signal: &Arc<Signal>) -> Result<()> {
        if !self.services.data {
            return Ok(());
        }
        {
            let mut map = self.buckets.write();
            if map.ready.contains_key(bucket) || !map.creating.insert(bucket.to_string()) {
                return Err(Error::Cluster(format!(
                    "bucket {bucket} already exists on {:?}",
                    self.id
                )));
            }
        }
        let built = DataEngine::new(EngineConfig {
            num_vbuckets: self.cfg.num_vbuckets,
            cache_quota: self.cfg.cache_quota,
            eviction: self.cfg.eviction,
            data_dir: self.cfg.data_root.join(format!("node{}", self.id.0)).join(bucket),
            trace: self.trace.clone(),
            seqno_signal: Arc::clone(seqno_signal),
        })
        .and_then(|engine| {
            let flusher = FlusherPool::spawn(Arc::clone(&engine), FLUSH_INTERVAL)?;
            Ok((engine, flusher))
        });
        let (engine, flusher) = match built {
            Ok(v) => v,
            Err(e) => {
                self.buckets.write().creating.remove(bucket);
                return Err(e);
            }
        };
        let views = Arc::new(ViewEngine::new(Arc::clone(&engine)));
        let mut map = self.buckets.write();
        map.creating.remove(bucket);
        map.ready.insert(bucket.to_string(), BucketSlice { engine, views, _flusher: flusher });
        Ok(())
    }

    /// The data engine for a bucket; fails if the node is down or doesn't
    /// run the data service.
    pub fn engine(&self, bucket: &str) -> Result<Arc<DataEngine>> {
        self.check_alive()?;
        self.engine_unchecked(bucket)
            .ok_or_else(|| Error::Cluster(format!("no data service for {bucket} on {:?}", self.id)))
    }

    /// Like [`Node::engine`] but ignoring liveness — used only by recovery
    /// paths that inspect a dead node's durable state.
    pub fn engine_unchecked(&self, bucket: &str) -> Option<Arc<DataEngine>> {
        self.buckets.read().ready.get(bucket).map(|slice| Arc::clone(&slice.engine))
    }

    /// The view engine for a bucket.
    pub fn view_engine(&self, bucket: &str) -> Result<Arc<ViewEngine>> {
        self.check_alive()?;
        self.buckets
            .read()
            .ready
            .get(bucket)
            .map(|slice| Arc::clone(&slice.views))
            .ok_or_else(|| Error::Cluster(format!("no view engine for {bucket} on {:?}", self.id)))
    }

    /// The GSI manager (index-service nodes).
    pub fn index_manager(&self) -> Result<Arc<IndexManager>> {
        self.check_alive()?;
        self.index_mgr
            .clone()
            .ok_or_else(|| Error::Cluster(format!("{:?} does not run the index service", self.id)))
    }

    /// Buckets hosted here.
    pub fn buckets(&self) -> Vec<String> {
        let mut v: Vec<String> = self.buckets.read().ready.keys().cloned().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_lifecycle() {
        let cfg = ClusterConfig::for_test(16, 1);
        let node = Node::new(NodeId(0), ServiceSet::all(), &cfg);
        let signal = Arc::new(Signal::default());
        node.create_bucket("default", &signal).unwrap();
        assert!(node.create_bucket("default", &signal).is_err());
        assert!(node.engine("default").is_ok());
        assert!(node.view_engine("default").is_ok());
        assert!(node.index_manager().is_ok());
        assert_eq!(node.buckets(), vec!["default"]);

        node.kill();
        assert!(matches!(node.engine("default"), Err(Error::NodeDown(_))));
        assert!(node.engine_unchecked("default").is_some());
        node.revive();
        assert!(node.engine("default").is_ok());
    }

    #[test]
    fn service_gating() {
        let cfg = ClusterConfig::for_test(16, 1);
        let query_node = Node::new(NodeId(1), ServiceSet::query_only(), &cfg);
        query_node.create_bucket("b", &Default::default()).unwrap(); // no-op without data service
        assert!(query_node.engine("b").is_err());
        assert!(query_node.index_manager().is_err());

        let index_node = Node::new(NodeId(2), ServiceSet::index_only(), &cfg);
        assert!(index_node.index_manager().is_ok());
        assert!(index_node.engine("b").is_err());
    }
}
