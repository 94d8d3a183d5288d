//! Cluster configuration and multi-dimensional scaling service sets.

use std::path::PathBuf;
use std::sync::Arc;

use crate::fault::FaultInjector;

/// Which services a node runs (§4.4): "an administrator can choose to run
/// the Data, Index and Query Services on all or different nodes. This
/// ability to have multiple 'dimensions' in which to scale the cluster is
/// called multi-dimensional scaling (MDS)."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceSet {
    /// KV data service (object cache + storage + DCP).
    pub data: bool,
    /// Global secondary index service.
    pub index: bool,
    /// N1QL query service.
    pub query: bool,
}

impl ServiceSet {
    /// All services on one node (the homogeneous topology of Figure 4 and
    /// the appendix's benchmark setup).
    pub fn all() -> ServiceSet {
        ServiceSet { data: true, index: true, query: true }
    }

    /// Data service only.
    pub fn data_only() -> ServiceSet {
        ServiceSet { data: true, index: false, query: false }
    }

    /// Index service only.
    pub fn index_only() -> ServiceSet {
        ServiceSet { data: false, index: true, query: false }
    }

    /// Query service only.
    pub fn query_only() -> ServiceSet {
        ServiceSet { data: false, index: false, query: true }
    }
}

/// Cluster-wide construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// vBuckets per bucket (1024 in production, §4.1; shrinkable in tests).
    pub num_vbuckets: u16,
    /// Replica copies per bucket (0..=3, §4.1.1).
    pub num_replicas: u8,
    /// Root directory for node storage (`<root>/node<N>/<bucket>/`).
    pub data_root: PathBuf,
    /// Per-bucket cache quota per node.
    pub cache_quota: usize,
    /// Cache eviction policy.
    pub eviction: cbs_cache::EvictionPolicy,
    /// Optional fault-injection hooks for the simulated transport (chaos
    /// testing). `None` in production configurations.
    pub fault_injector: Option<Arc<dyn FaultInjector>>,
}

impl ClusterConfig {
    /// Small-footprint test configuration rooted in a scratch directory.
    pub fn for_test(num_vbuckets: u16, num_replicas: u8) -> ClusterConfig {
        ClusterConfig {
            num_vbuckets,
            num_replicas,
            data_root: cbs_storage::scratch_dir("cluster"),
            cache_quota: 256 << 20,
            eviction: cbs_cache::EvictionPolicy::ValueOnly,
            fault_injector: None,
        }
    }

    /// The test configuration with a fault injector installed (chaos
    /// harness entry point).
    pub fn for_chaos(
        num_vbuckets: u16,
        num_replicas: u8,
        injector: Arc<dyn FaultInjector>,
    ) -> ClusterConfig {
        ClusterConfig {
            fault_injector: Some(injector),
            ..ClusterConfig::for_test(num_vbuckets, num_replicas)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_sets() {
        assert!(ServiceSet::all().data && ServiceSet::all().index && ServiceSet::all().query);
        assert!(ServiceSet::data_only().data && !ServiceSet::data_only().query);
        assert!(ServiceSet::index_only().index && !ServiceSet::index_only().data);
        assert!(ServiceSet::query_only().query && !ServiceSet::query_only().index);
    }
}
