//! The cluster-wide [`cbs_n1ql::Datastore`] implementation — how the Query
//! Service reaches the Data and Index Services (§4.5.1, Figure 10).
//!
//! "The receiving node will analyze the query [...] During execution,
//! depending on the query and the available indexes, the query node works
//! with the index and data nodes to retrieve keys and data."

use std::sync::Arc;
use std::time::Duration;

use crate::client::SmartClient;
use crate::cluster::Cluster;
use cbs_common::sync::{rank, OrderedRwLock};
use cbs_common::{Error, Result, SeqNo};
use cbs_dcp::BackfillSource;
use cbs_index::{IndexDef, IndexEntry, ScanConsistency, ScanRange};
use cbs_json::Value;
use cbs_n1ql::datastore::{index_row, keyspace_row, node_row};
use cbs_n1ql::{Datastore, KeyspaceStats, QueryOptions, QueryResult};

/// Cluster-backed datastore for the query engine. One instance per bucket
/// per query node.
pub struct ClusterDatastore {
    cluster: Arc<Cluster>,
    /// One smart client per keyspace (bucket) the service has touched.
    clients: OrderedRwLock<Vec<Arc<SmartClient>>>,
    requests: Arc<cbs_obs::Counter>,
    errors: Arc<cbs_obs::Counter>,
    latency: Arc<cbs_obs::Histogram>,
    /// Per-phase latency breakdowns (only non-zero phases are recorded, so
    /// e.g. `n1ql.phase.index_scan` counts only queries that scanned GSI).
    phase_plan: Arc<cbs_obs::Histogram>,
    phase_index_scan: Arc<cbs_obs::Histogram>,
    phase_primary_scan: Arc<cbs_obs::Histogram>,
    phase_fetch: Arc<cbs_obs::Histogram>,
    phase_run: Arc<cbs_obs::Histogram>,
    /// Trace sink on the `query` lane (DESIGN.md §10).
    query_trace: cbs_obs::TraceSink,
}

impl ClusterDatastore {
    /// Create the datastore facade over a cluster.
    pub fn new(cluster: Arc<Cluster>) -> ClusterDatastore {
        let registry = Arc::clone(cluster.query_registry());
        let query_trace = cbs_obs::TraceSink::new(Arc::clone(cluster.trace_store()), "query");
        ClusterDatastore {
            cluster,
            query_trace,
            clients: OrderedRwLock::new(rank::QUERY_CLIENTS, Vec::new()),
            requests: registry.counter_with_help("n1ql.query.requests", "N1QL statements received"),
            errors: registry.counter_with_help("n1ql.query.errors", "N1QL statements that failed"),
            latency: registry
                .histogram_with_help("n1ql.query.latency", "End-to-end N1QL request service time"),
            phase_plan: registry
                .histogram_with_help("n1ql.phase.plan", "Per-request parse + plan time"),
            phase_index_scan: registry.histogram_with_help(
                "n1ql.phase.index_scan",
                "Per-request GSI scan time (index service included)",
            ),
            phase_primary_scan: registry.histogram_with_help(
                "n1ql.phase.primary_scan",
                "Per-request primary (full keyspace) scan time",
            ),
            phase_fetch: registry.histogram_with_help(
                "n1ql.phase.fetch",
                "Per-request KV fetch time (data service included)",
            ),
            phase_run: registry.histogram_with_help(
                "n1ql.phase.run",
                "Per-request executor time outside scans and fetches",
            ),
        }
    }

    fn client(&self, bucket: &str) -> Result<Arc<SmartClient>> {
        if let Some(c) = self.clients.read().iter().find(|c| c.bucket() == bucket) {
            return Ok(Arc::clone(c));
        }
        let c = Arc::new(SmartClient::connect(Arc::clone(&self.cluster), bucket)?);
        self.clients.write().push(Arc::clone(&c));
        Ok(c)
    }

    /// Run a N1QL statement through this cluster (the Query Service entry
    /// point: any query node can receive a statement).
    pub fn query(&self, statement: &str, opts: &QueryOptions) -> Result<QueryResult> {
        // MDS gate: a query must land on a node running the query service.
        if !self.cluster.nodes().iter().any(|n| n.is_alive() && n.services().query) {
            return Err(Error::Cluster("no query service in the cluster".to_string()));
        }
        self.requests.inc();
        let _timer = self.latency.timer();
        // `cbs_n1ql::query` opens the request's root span on the query
        // lane; KV fetches/mutations issued by the executor (through the
        // smart clients) join it as child spans.
        let result = cbs_n1ql::query(self, statement, opts);
        match &result {
            Ok(r) => self.record_phases(&r.phases),
            Err(_) => self.errors.inc(),
        }
        result
    }

    /// Feed a finished request's phase rollups into the per-phase
    /// histograms (zero phases skipped — a query that never scanned an
    /// index should not drag `n1ql.phase.index_scan` toward zero).
    fn record_phases(&self, phases: &cbs_n1ql::PhaseTimes) {
        for (histogram, d) in [
            (&self.phase_plan, phases.plan),
            (&self.phase_index_scan, phases.index_scan),
            (&self.phase_primary_scan, phases.primary_scan),
            (&self.phase_fetch, phases.fetch),
            (&self.phase_run, phases.run),
        ] {
            if !d.is_zero() {
                histogram.record(d);
            }
        }
    }
}

impl Datastore for ClusterDatastore {
    fn keyspace_exists(&self, keyspace: &str) -> bool {
        self.cluster.map(keyspace).is_ok()
    }

    fn fetch(&self, keyspace: &str, key: &str) -> Result<Option<Value>> {
        match self.client(keyspace)?.get(key) {
            // The Datastore trait wants an owned Value; `into_value` clones
            // only if the document is still shared.
            Ok(r) => Ok(Some(r.value.into_value())),
            Err(Error::KeyNotFound(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn insert(&self, keyspace: &str, key: &str, value: Value) -> Result<()> {
        self.client(keyspace)?.insert(key, value).map(|_| ())
    }

    fn upsert(&self, keyspace: &str, key: &str, value: Value) -> Result<()> {
        self.client(keyspace)?.upsert(key, value).map(|_| ())
    }

    fn replace(&self, keyspace: &str, key: &str, value: Value) -> Result<()> {
        self.client(keyspace)?.replace(key, value, cbs_common::Cas::WILDCARD).map(|_| ())
    }

    fn delete(&self, keyspace: &str, key: &str) -> Result<()> {
        self.client(keyspace)?.remove(key, cbs_common::Cas::WILDCARD).map(|_| ())
    }

    fn seqno_vector(&self, keyspace: &str) -> Vec<SeqNo> {
        self.cluster.seqno_vector(keyspace).unwrap_or_default()
    }

    fn list_indexes(&self, keyspace: &str) -> Vec<IndexDef> {
        self.cluster.index_manager().map(|m| m.list_online(keyspace)).unwrap_or_default()
    }

    fn index_scan(
        &self,
        keyspace: &str,
        index: &str,
        range: &ScanRange,
        consistency: &ScanConsistency,
        timeout: Duration,
        limit: usize,
    ) -> Result<Vec<IndexEntry>> {
        self.cluster.index_manager()?.scan(keyspace, index, range, consistency, timeout, limit)
    }

    fn create_index(&self, def: IndexDef) -> Result<()> {
        let mgr = self.cluster.index_manager()?;
        if def.deferred {
            return mgr.create_index(def);
        }
        // Initial build streams from every data node's active vBuckets.
        let keyspace = def.keyspace.clone();
        let name = def.name.clone();
        mgr.create_index(def)?;
        self.build_index(&keyspace, &name)
    }

    fn drop_index(&self, keyspace: &str, name: &str) -> Result<()> {
        self.cluster.index_manager()?.drop_index(keyspace, name)
    }

    fn build_index(&self, keyspace: &str, name: &str) -> Result<()> {
        let mgr = self.cluster.index_manager()?;
        // The initial-build path of Figure 9: each vBucket read from
        // whichever node is active for it.
        let active_copy = |vb, since| self.cluster.active_engine(keyspace, vb)?.backfill(vb, since);
        mgr.build(keyspace, name, &active_copy)
    }

    fn trace_sink(&self) -> &cbs_obs::TraceSink {
        &self.query_trace
    }

    fn request_log(&self) -> &cbs_n1ql::RequestLog {
        self.cluster.request_log()
    }

    fn plan_cache(&self) -> &cbs_n1ql::PlanCache {
        self.cluster.plan_cache()
    }

    /// Optimizer statistics, read from the index service's counters as
    /// the planner asks: each online index reports live entries, distinct
    /// keys and leading-key bounds, and the keyspace document count is the
    /// widest index's per-document counter (a primary index sees every
    /// document). Each read is O(partitions). No online index counts
    /// nothing: `doc_count` 0, which the planner prices as one document.
    fn keyspace_stats(&self, keyspace: &str) -> KeyspaceStats {
        let Ok(mgr) = self.cluster.index_manager() else { return KeyspaceStats::default() };
        let mut doc_count = 0u64;
        let mut indexes = Vec::new();
        for def in mgr.list_online(keyspace) {
            let Ok(stats) = mgr.index_stats(keyspace, &def.name) else { continue };
            doc_count = doc_count.max(stats.docs);
            let Ok(card) = mgr.index_cardinality(keyspace, &def.name) else { continue };
            indexes.push((def.name, card));
        }
        KeyspaceStats { doc_count, indexes }
    }

    /// The `system:` catalog keyspaces, backed live by cluster state — the
    /// Query Catalog of §4.3.5 exposed through N1QL itself.
    fn system_scan(&self, catalog: &str) -> Result<Vec<(String, Value)>> {
        match catalog {
            "system:transactions" => Ok(self.cluster.txn_log().catalog_rows()),
            "system:indexes" => {
                // Every definition on every index-service node, deduped by
                // keyspace/name (managers replicate definitions).
                let mut rows = std::collections::BTreeMap::new();
                for mgr in self.cluster.index_managers() {
                    for bucket in self.cluster.buckets() {
                        for def in mgr.list(&bucket) {
                            let state = match mgr.state(&bucket, &def.name) {
                                Ok(cbs_index::IndexState::Online) => "online",
                                Ok(cbs_index::IndexState::Building) => "building",
                                _ => "deferred",
                            };
                            let (key, row) = index_row(&bucket, &def, state);
                            rows.entry(key).or_insert(row);
                        }
                    }
                }
                Ok(rows.into_iter().collect())
            }
            "system:keyspaces" => {
                let mut rows = Vec::new();
                for bucket in self.cluster.buckets() {
                    let mut count = 0usize;
                    for node in self.cluster.nodes() {
                        if !node.is_alive() || !node.services().data {
                            continue;
                        }
                        if let Ok(engine) = node.engine(&bucket) {
                            count += engine.active_doc_count()?;
                        }
                    }
                    rows.push(keyspace_row(&bucket, count));
                }
                Ok(rows)
            }
            "system:nodes" => Ok(self
                .cluster
                .nodes()
                .iter()
                .map(|node| {
                    let s = node.services();
                    let services: Vec<&str> =
                        [(s.data, "kv"), (s.index, "index"), (s.query, "n1ql")]
                            .iter()
                            .filter(|(runs, _)| *runs)
                            .map(|(_, name)| *name)
                            .collect();
                    let name = format!("n{}", node.id().0);
                    node_row(&name, node.is_alive(), &services)
                })
                .collect()),
            // Live lag rows straight from each pump's lag table, which
            // shapes them; no locks held while reading.
            "system:replication" => {
                Ok(self.cluster.lag_tables().iter().flat_map(|t| t.replication_rows()).collect())
            }
            "system:staleness" => {
                Ok(self.cluster.lag_tables().iter().map(|t| t.staleness_row()).collect())
            }
            "system:completed_traces" => {
                // Completed traces (root-done slots + the completed
                // ring), one row per trace.
                let rows = self
                    .cluster
                    .trace_store()
                    .completed_traces()
                    .into_iter()
                    .map(|t| {
                        let lanes: Vec<Value> =
                            t.lanes().into_iter().map(|l| Value::from(l.as_ref())).collect();
                        (
                            format!("t{}", t.trace_id),
                            Value::object([
                                ("traceId", Value::from(t.trace_id)),
                                ("root", Value::from(t.root_name)),
                                ("totalUs", Value::from(t.total.as_micros() as u64)),
                                ("spans", Value::from(t.spans.len())),
                                ("lanes", Value::Array(lanes)),
                                ("failed", Value::Bool(t.failed)),
                                ("droppedSpans", Value::from(u64::from(t.dropped_spans))),
                            ]),
                        )
                    })
                    .collect();
                Ok(rows)
            }
            "system:events" => {
                // The flight recorder: cluster lifecycle + query/txn
                // events, ordered by (service, seq).
                let rows = self
                    .cluster
                    .flight_events()
                    .into_iter()
                    .map(|e| {
                        let attrs = Value::object(
                            e.attrs
                                .iter()
                                .map(|(k, v)| (*k, Value::from(v.as_str())))
                                .collect::<Vec<_>>(),
                        );
                        (
                            format!("{}#{}", e.service, e.seq),
                            Value::object([
                                ("service", Value::from(e.service.as_str())),
                                ("seq", Value::from(e.seq)),
                                ("event", Value::from(e.name)),
                                ("attrs", attrs),
                            ]),
                        )
                    })
                    .collect();
                Ok(rows)
            }
            _ => Ok(Vec::new()),
        }
    }
}
