//! The cbstats-style operator surface: one call that freezes every metric
//! in the cluster into a typed, navigable snapshot.
//!
//! Mirrors the shape an operator sees through `cbstats` against a real
//! cluster: stats are collected **per node** (each node's data service has
//! its own registry per bucket), broken out **per service** (kv, index,
//! query, fts, xdcr run their own registries) and **per vBucket** (state,
//! seqnos, outstanding disk queue). Cluster-wide totals are derived by
//! merging — counters add, gauges add (they are sizes here), histograms
//! merge bucket-wise — so the aggregate is exactly what one registry would
//! have recorded.

use cbs_common::NodeId;
use cbs_kv::VbucketStats;
use cbs_obs::{HistogramSnapshot, PrometheusText, RegistrySnapshot};

use crate::config::ServiceSet;

/// One bucket's data-service stats on one node.
#[derive(Debug, Clone)]
pub struct BucketStats {
    /// Bucket name.
    pub bucket: String,
    /// kv / cache / flusher / dcp / views metrics for this bucket here.
    pub metrics: RegistrySnapshot,
    /// Per-vBucket detail: state, high/persisted seqno, disk-queue depth.
    pub vbuckets: Vec<VbucketStats>,
}

/// Everything one node reports.
#[derive(Debug, Clone)]
pub struct NodeStats {
    /// The node.
    pub node: NodeId,
    /// Services configured on the node (MDS, §4.4).
    pub services: ServiceSet,
    /// Whether the node answered (dead nodes report no metrics).
    pub alive: bool,
    /// Data-service stats, one entry per bucket hosted here.
    pub buckets: Vec<BucketStats>,
    /// Node-local non-data services (the GSI index service).
    pub service_metrics: Vec<RegistrySnapshot>,
}

/// A full cluster statistics snapshot ([`crate::Cluster::stats`]):
/// registry snapshots and per-vBucket detail only. Rows — requests,
/// prepared statements, replication lag, traces — are the `system:`
/// catalogs' and the trace store's, read from there.
#[derive(Debug, Clone)]
pub struct ClusterStats {
    /// Per-node breakdown.
    pub nodes: Vec<NodeStats>,
    /// Cluster-singleton services (query, full-text search, each bucket's
    /// replication lag table).
    pub cluster_services: Vec<RegistrySnapshot>,
}

impl ClusterStats {
    /// Cluster-wide totals: every registry merged into one snapshot.
    pub fn merged(&self) -> RegistrySnapshot {
        let mut out = RegistrySnapshot::default();
        for node in &self.nodes {
            for bucket in &node.buckets {
                out.merge(&bucket.metrics);
            }
            for svc in &node.service_metrics {
                out.merge(svc);
            }
        }
        for svc in &self.cluster_services {
            out.merge(svc);
        }
        out
    }

    /// Cluster-wide counter total by metric name.
    pub fn counter(&self, name: &str) -> u64 {
        self.merged().counter(name)
    }

    /// Cluster-wide histogram (bucket-merged across nodes) by metric name.
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        self.merged().histogram(name)
    }

    /// Prometheus text exposition of the whole snapshot, labelled by
    /// node/bucket so per-node series stay distinguishable.
    pub fn prometheus(&self) -> String {
        let mut p = PrometheusText::new();
        for node in &self.nodes {
            let n = format!("n{}", node.node.0);
            for bucket in &node.buckets {
                p.section(&[("node", &n), ("bucket", &bucket.bucket)], &bucket.metrics);
            }
            for svc in &node.service_metrics {
                p.section(&[("node", &n)], svc);
            }
        }
        for svc in &self.cluster_services {
            p.section(&[], svc);
        }
        p.finish()
    }
}
