//! Data-service vocabulary types.

use cbs_common::{Cas, DocMeta, SeqNo, VbId};
use cbs_json::SharedValue;

/// Lifecycle state of a vBucket on a node (paper §4.3.1):
///
/// - *Active*: "the server hosting the partition is servicing all types of
///   requests for this partition."
/// - *Replica*: "cannot handle client requests, but it will receive
///   replication commands."
/// - *Pending*: transitional state while a rebalance mover builds the copy.
/// - *Dead*: "this server is not in any way responsible for this partition."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VbState {
    /// Serving reads and writes.
    Active,
    /// Receiving replication traffic only.
    Replica,
    /// Being built by a rebalance mover.
    Pending,
    /// Not hosted here.
    #[default]
    Dead,
}

/// How a write treats an existing document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutateMode {
    /// Insert-or-update (the memcached `set`).
    Upsert,
    /// Insert only; fails with `KeyExists` if present.
    Insert,
    /// Update only; fails with `KeyNotFound` if absent.
    Replace,
}

/// A read result. The body is a [`SharedValue`]: on a cache hit it aliases
/// the cached encoding (a reference-count bump, never a copy), and it is
/// decoded — into this handle only — when the caller first reads it.
#[derive(Debug, Clone, PartialEq)]
pub struct GetResult {
    /// Document body.
    pub value: SharedValue,
    /// Metadata (CAS for optimistic locking, etc.).
    pub meta: DocMeta,
}

/// An acknowledged mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationResult {
    /// The vBucket the document hashed to.
    pub vb: VbId,
    /// Seqno assigned within that vBucket.
    pub seqno: SeqNo,
    /// Fresh CAS of the new version.
    pub cas: Cas,
}

/// Per-vBucket operational snapshot (the `cbstats vbucket` surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VbucketStats {
    /// The vBucket.
    pub vb: VbId,
    /// Current lifecycle state.
    pub state: VbState,
    /// Highest assigned seqno.
    pub high_seqno: SeqNo,
    /// Highest persisted seqno.
    pub persisted_seqno: SeqNo,
    /// Keys waiting in this vBucket's disk-write queue.
    pub queued_items: u64,
}

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of vBuckets (1024 in production; tests may shrink).
    pub num_vbuckets: u16,
    /// Cache quota in bytes.
    pub cache_quota: usize,
    /// Cache eviction policy.
    pub eviction: cbs_cache::EvictionPolicy,
    /// Storage directory.
    pub data_dir: std::path::PathBuf,
    /// Trace sink for this engine's node lane (DESIGN.md §10). `None`
    /// disables tracing of direct engine calls and cross-boundary
    /// stitching; span recording then costs one TLS read.
    pub trace: Option<cbs_obs::TraceSink>,
    /// What this engine's replica applies wake. The engines of one bucket
    /// are handed the same one, so that a durable write parks once and is
    /// woken by whichever replica copy applies it first.
    pub seqno_signal: std::sync::Arc<cbs_common::Signal>,
}

impl EngineConfig {
    /// A small-footprint config for tests, rooted at a scratch directory.
    pub fn for_test(num_vbuckets: u16) -> EngineConfig {
        EngineConfig {
            num_vbuckets,
            cache_quota: 256 << 20,
            eviction: cbs_cache::EvictionPolicy::ValueOnly,
            data_dir: cbs_storage::scratch_dir("kv"),
            trace: None,
            seqno_signal: Default::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        assert_eq!(VbState::default(), VbState::Dead);
        let cfg = EngineConfig::for_test(16);
        assert_eq!(cfg.num_vbuckets, 16);
    }
}
