//! The cluster map (§4.1): "vBuckets are mapped to physical servers across
//! the cluster, and the mapping is stored in a lookup structure called the
//! cluster map."

use cbs_common::{NodeId, VbId};

/// One bucket's vBucket→node placement at a given epoch (the default: none,
/// at epoch 0 — what a bucket's first install starts from).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterMap {
    /// Monotonically increasing version; bumped on failover / rebalance so
    /// clients can detect staleness ("the cluster updates each connected
    /// client library with the new cluster map").
    pub epoch: u64,
    /// Active owner per vBucket.
    pub active: Vec<NodeId>,
    /// Replica owners per vBucket (up to 3, §4.1.1).
    pub replicas: Vec<Vec<NodeId>>,
}

impl ClusterMap {
    /// Compute a balanced placement of `num_vbuckets` over `data_nodes`
    /// with `num_replicas` replica chains: vBucket `v` is active on node
    /// `v mod n` with replicas on the next nodes around the ring. This is
    /// the canonical layout a fresh rebalance converges to.
    pub fn balanced(
        epoch: u64,
        num_vbuckets: u16,
        data_nodes: &[NodeId],
        num_replicas: u8,
    ) -> ClusterMap {
        assert!(!data_nodes.is_empty(), "cluster map needs at least one data node");
        let n = data_nodes.len();
        let replicas_per_vb = (num_replicas as usize).min(n - 1);
        let mut active = Vec::with_capacity(num_vbuckets as usize);
        let mut replicas = Vec::with_capacity(num_vbuckets as usize);
        for v in 0..num_vbuckets as usize {
            active.push(data_nodes[v % n]);
            replicas.push((1..=replicas_per_vb).map(|r| data_nodes[(v + r) % n]).collect());
        }
        ClusterMap { epoch, active, replicas }
    }

    /// The active node for a vBucket.
    pub fn active_node(&self, vb: VbId) -> NodeId {
        self.active[vb.index()]
    }

    /// Replica nodes for a vBucket.
    pub fn replica_nodes(&self, vb: VbId) -> &[NodeId] {
        &self.replicas[vb.index()]
    }

    /// All vBuckets active on `node`.
    pub fn active_vbs(&self, node: NodeId) -> Vec<VbId> {
        self.active
            .iter()
            .enumerate()
            .filter(|(_, &n)| n == node)
            .map(|(v, _)| VbId(v as u16))
            .collect()
    }

    /// All vBuckets with a replica on `node`.
    pub fn replica_vbs(&self, node: NodeId) -> Vec<VbId> {
        self.replicas
            .iter()
            .enumerate()
            .filter(|(_, reps)| reps.contains(&node))
            .map(|(v, _)| VbId(v as u16))
            .collect()
    }

    /// Number of vBuckets.
    pub fn num_vbuckets(&self) -> u16 {
        self.active.len() as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn balanced_distribution_is_even() {
        let map = ClusterMap::balanced(1, 1024, &nodes(4), 1);
        for n in nodes(4) {
            assert_eq!(map.active_vbs(n).len(), 256, "1024/4 active each");
            assert_eq!(map.replica_vbs(n).len(), 256);
        }
        // Replica is never the active node.
        for v in 0..1024u16 {
            let vb = VbId(v);
            assert!(!map.replica_nodes(vb).contains(&map.active_node(vb)));
        }
    }

    #[test]
    fn replicas_capped_by_cluster_size() {
        let map = ClusterMap::balanced(1, 64, &nodes(2), 3);
        for v in 0..64u16 {
            assert_eq!(map.replica_nodes(VbId(v)).len(), 1, "only one other node exists");
        }
        let map = ClusterMap::balanced(1, 64, &nodes(1), 3);
        for v in 0..64u16 {
            assert!(map.replica_nodes(VbId(v)).is_empty());
        }
    }

    #[test]
    fn three_replica_chains_distinct() {
        let map = ClusterMap::balanced(1, 256, &nodes(4), 3);
        for v in 0..256u16 {
            let vb = VbId(v);
            let mut all = vec![map.active_node(vb)];
            all.extend_from_slice(map.replica_nodes(vb));
            all.sort();
            all.dedup();
            assert_eq!(all.len(), 4, "active + 3 replicas cover 4 distinct nodes");
        }
    }
}
