//! Shared primitives for the Couchbase Server reproduction.
//!
//! This crate holds the vocabulary types used by every other crate in the
//! workspace: identifier newtypes ([`VbId`], [`SeqNo`], [`Cas`], [`NodeId`]),
//! the document key the KV data path stores ([`DocKey`]) and the hasher of
//! the tables keyed by it ([`KeyHash`]), the CRC32
//! key-hashing routine that maps document IDs onto the 1024 logical
//! partitions (vBuckets) described in §4.1 of the paper, the shared error
//! type, a monotonic CAS clock, the rank-ordered locks, and the one seqno
//! watermark ([`Watermarks`] over a [`Signal`]) every "wait until seqno X is
//! persisted / replicated / indexed" blocks on.

#![deny(unsafe_code)]

pub mod crc32;
pub mod error;
pub mod hash;
pub mod ids;
pub mod key;
pub mod meta;
pub mod model;
pub mod sync;
pub mod time;

pub use crc32::{crc32, vbucket_for_key};
pub use error::{Error, Result};
pub use hash::{KeyHash, KeyMap};
pub use ids::{Cas, IndexId, NodeId, RevNo, SeqNo, VbId};
pub use key::{check_key_len, check_value_len, DocKey, MAX_KEY_LEN, MAX_VALUE_LEN};
pub use meta::DocMeta;
pub use sync::{LockRank, OrderedMutex, OrderedRwLock, Signal, Watermarks};
pub use time::{CasClock, Deadline};

/// The fixed number of logical partitions (vBuckets) per bucket.
///
/// The paper (§4.1): "Each bucket is split into 1024 logical partitions
/// called vBuckets (vB). This is not a configurable number." We keep the same
/// default; tests may construct smaller topologies through explicit
/// configuration, but production paths use this constant.
pub const NUM_VBUCKETS: u16 = 1024;

/// Maximum number of replica copies of a bucket (paper §4.1.1: "A bucket can
/// be replicated up to 3 times, giving the user up to 4 copies").
pub const MAX_REPLICAS: u8 = 3;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_paper() {
        assert_eq!(NUM_VBUCKETS, 1024);
        assert_eq!(MAX_REPLICAS, 3);
    }
}
