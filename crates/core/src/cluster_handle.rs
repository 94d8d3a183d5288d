//! The cluster handle: connection, administration, query and view entry
//! points.

use std::sync::Arc;

use cbs_cluster::{Cluster, ClusterConfig, ClusterDatastore, ServiceSet, SmartClient};
use cbs_common::{NodeId, Result};
use cbs_n1ql::{QueryOptions, QueryResult};
use cbs_views::{DesignDoc, ViewQuery, ViewResult};
use cbs_xdcr::{KeyFilter, XdcrLink};

use crate::bucket::Bucket;

/// A handle to a (simulated) Couchbase Server cluster.
pub struct CouchbaseCluster {
    cluster: Arc<Cluster>,
    datastore: Arc<ClusterDatastore>,
}

impl CouchbaseCluster {
    /// A single node running all services — the smallest useful cluster.
    pub fn single_node() -> Arc<CouchbaseCluster> {
        Self::homogeneous(1, ClusterConfig::for_test(64, 0))
    }

    /// `n` identical nodes running all services (the Figure 4 topology;
    /// the paper's appendix benchmarks use `n = 4`).
    pub fn homogeneous(n: usize, cfg: ClusterConfig) -> Arc<CouchbaseCluster> {
        let cluster = Cluster::homogeneous(n, cfg);
        let datastore = Arc::new(ClusterDatastore::new(Arc::clone(&cluster)));
        Arc::new(CouchbaseCluster { cluster, datastore })
    }

    /// Explicit per-node service sets (multi-dimensional scaling, §4.4).
    pub fn with_services(services: Vec<ServiceSet>, cfg: ClusterConfig) -> Arc<CouchbaseCluster> {
        let cluster = Cluster::with_services(services, cfg);
        let datastore = Arc::new(ClusterDatastore::new(Arc::clone(&cluster)));
        Arc::new(CouchbaseCluster { cluster, datastore })
    }

    /// The underlying cluster (administration, diagnostics, benches).
    pub fn inner(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// The cbstats surface: freeze every metric in the cluster — per node,
    /// per service, per bucket, per vBucket.
    pub fn stats(&self) -> cbs_cluster::ClusterStats {
        self.cluster.stats()
    }

    /// Capture every traced operation at least this slow in the slow-op
    /// log (`Duration::ZERO` captures everything).
    pub fn set_slow_threshold(&self, threshold: std::time::Duration) {
        self.cluster.set_slow_threshold(threshold);
    }

    // ------------------------------------------------------------------
    // Buckets
    // ------------------------------------------------------------------

    /// Create a bucket and open a handle to it.
    pub fn create_bucket(&self, name: &str) -> Result<Bucket> {
        self.cluster.create_bucket(name)?;
        self.bucket(name)
    }

    /// Open an existing bucket.
    pub fn bucket(&self, name: &str) -> Result<Bucket> {
        let client = SmartClient::connect(Arc::clone(&self.cluster), name)?;
        Ok(Bucket::new(Arc::new(client), Arc::clone(&self.cluster)))
    }

    // ------------------------------------------------------------------
    // Access path 3: N1QL (§3.1.3)
    // ------------------------------------------------------------------

    /// Run a N1QL statement.
    pub fn query(&self, statement: &str, opts: &QueryOptions) -> Result<QueryResult> {
        self.datastore.query(statement, opts)
    }

    // ------------------------------------------------------------------
    // Access path 2: views (§3.1.2)
    // ------------------------------------------------------------------

    /// Register a design document on a bucket.
    pub fn create_design_doc(&self, bucket: &str, ddoc: DesignDoc) -> Result<()> {
        self.cluster.create_design_doc(bucket, ddoc)
    }

    /// Run a view query (scatter/gather across the cluster).
    pub fn view_query(
        &self,
        bucket: &str,
        ddoc: &str,
        view: &str,
        q: &ViewQuery,
    ) -> Result<ViewResult> {
        self.cluster.view_query(bucket, ddoc, view, q)
    }

    // ------------------------------------------------------------------
    // Administration (§4.3.1)
    // ------------------------------------------------------------------

    /// Add a node with the given services (takes effect at next rebalance).
    pub fn add_node(&self, services: ServiceSet) -> Result<NodeId> {
        self.cluster.add_node(services)
    }

    /// Rebalance all buckets over the alive data nodes, excluding the
    /// given nodes (rebalance-out).
    pub fn rebalance(&self, exclude: &[NodeId]) -> Result<()> {
        self.cluster.rebalance(exclude)
    }

    /// Failure injection: crash a node.
    pub fn kill_node(&self, id: NodeId) -> Result<()> {
        self.cluster.kill_node(id)
    }

    /// Promote replicas of a dead node.
    pub fn failover(&self, id: NodeId) -> Result<usize> {
        self.cluster.failover(id)
    }

    /// Current orchestrator node.
    pub fn orchestrator(&self) -> Option<NodeId> {
        self.cluster.orchestrator()
    }

    // ------------------------------------------------------------------
    // Full-text search (§6.1.3)
    // ------------------------------------------------------------------

    /// Create a full-text search index over a bucket.
    pub fn create_fts_index(&self, def: cbs_fts::FtsIndexDef) -> Result<()> {
        self.cluster.create_fts_index(def)
    }

    /// Search a full-text index (term / prefix / phrase / boolean, see
    /// [`cbs_fts::SearchQuery`]). With `consistent`, waits for the index
    /// to cover every previously acknowledged write.
    pub fn fts_search(
        &self,
        bucket: &str,
        index: &str,
        query: &cbs_fts::SearchQuery,
        limit: usize,
        consistent: bool,
    ) -> Result<Vec<cbs_fts::SearchHit>> {
        self.cluster.fts_search(bucket, index, query, limit, consistent)
    }

    // ------------------------------------------------------------------
    // XDCR (§4.6)
    // ------------------------------------------------------------------

    /// Start replicating a bucket to another cluster. Returns the running
    /// link; drop or `shutdown()` to stop. Start one in each direction for
    /// a bi-directional topology.
    pub fn replicate_to(
        &self,
        destination: &Arc<CouchbaseCluster>,
        bucket: &str,
        filter: Option<KeyFilter>,
    ) -> Result<XdcrLink> {
        XdcrLink::start(Arc::clone(&self.cluster), Arc::clone(&destination.cluster), bucket, filter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_json::Value;

    #[test]
    fn end_to_end_all_three_access_paths() {
        let cluster = CouchbaseCluster::homogeneous(2, ClusterConfig::for_test(32, 0));
        let bucket = cluster.create_bucket("default").unwrap();

        // 1: KV.
        for i in 0..25 {
            bucket
                .upsert(
                    &format!("user::{i}"),
                    Value::object([
                        ("name", Value::from(format!("user{i}"))),
                        ("age", Value::int(20 + i)),
                    ]),
                )
                .unwrap();
        }
        assert_eq!(bucket.get("user::3").unwrap().value.get_field("age"), Some(&Value::int(23)));

        // 2: views.
        cluster
            .create_design_doc(
                "default",
                DesignDoc {
                    name: "dd".to_string(),
                    views: vec![(
                        "by_age".to_string(),
                        cbs_views::ViewDef {
                            map: cbs_views::MapFn::on_field("age"),
                            reduce: Some(cbs_views::Reducer::Count),
                        },
                    )],
                },
            )
            .unwrap();
        let res = cluster
            .view_query(
                "default",
                "dd",
                "by_age",
                &ViewQuery { stale: cbs_views::Stale::False, ..Default::default() },
            )
            .unwrap();
        assert_eq!(res.rows.len(), 25);

        // 3: N1QL.
        cluster.query("CREATE INDEX by_age ON default(age)", &QueryOptions::default()).unwrap();
        let res = cluster
            .query(
                "SELECT COUNT(*) AS n FROM default WHERE age >= 30",
                &QueryOptions::default().request_plus(),
            )
            .unwrap();
        assert_eq!(res.rows[0].get_field("n"), Some(&Value::int(15)));
    }

    #[test]
    fn bucket_handles_share_cluster() {
        let cluster = CouchbaseCluster::single_node();
        cluster.create_bucket("a").unwrap();
        cluster.create_bucket("b").unwrap();
        let a = cluster.bucket("a").unwrap();
        let b = cluster.bucket("b").unwrap();
        a.upsert("k", Value::int(1)).unwrap();
        assert!(b.get("k").is_err(), "buckets are separate keyspaces");
        assert!(cluster.bucket("missing").is_err());
    }
}
