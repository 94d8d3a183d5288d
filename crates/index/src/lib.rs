//! The Index Service: Global Secondary Indexes (paper §3.3.2, §4.3.4).
//!
//! "A global secondary index (GSI) is a global index on all of the
//! documents stored within a specified Couchbase bucket, and it is stored
//! separately (hence 'global') from the data itself."
//!
//! The division of labour follows Figure 9 exactly:
//!
//! - the **[`Projector`]** lives on the *data* node: it consumes the DCP
//!   feed and "is responsible for mapping incoming mutations to a set of
//!   Global Secondary Key Versions needed for secondary index maintenance";
//! - the **[`Router`]** (also data-node side) "is responsible for sending
//!   Key Versions to the index service", using the index partitioning
//!   topology to pick the indexer — including the paper's subtle case where
//!   "an insert message may be sent to one indexer with a delete message
//!   being sent to another in the event that the value of the partition key
//!   itself has changed";
//! - the **[`IndexManager`]** and **[`Indexer`]** live on the *index*
//!   node(s): the manager handles DDL (create/drop/build/scan entry
//!   points), the indexer "processes the changes received from the router
//!   and manages the on-disk index tree data structure", and performs
//!   scatter/gather across range partitions at scan time.
//!
//! Features reproduced: composite keys, partial (`WHERE`) indexes (§3.3.4),
//! array indexes (§6.1.2), primary indexes over GSI (§3.3.3), deferred
//! builds, range-partitioned indexes, covering scans (§5.1.2), standard
//! (disk-synced) vs memory-optimized (§6.1.1) storage modes, and
//! `request_plus`/`not_bounded` scan consistency (§3.2.3): each partition
//! keeps a per-vBucket `cbs_common::Watermarks` vector beside its tree, a
//! `request_plus` scan blocks on it without touching the tree lock, and a
//! scan's timeout is one deadline over all partitions.

#![deny(unsafe_code)]

pub mod defs;
pub mod indexer;
pub mod projector;
pub mod service;

pub use defs::{
    FilterCond, FilterOp, IndexDef, IndexKey, IndexStorage, KeyExpr, Layout, ScanConsistency,
    ScanRange,
};
pub use indexer::{IndexCardinality, IndexEntry, IndexOp, Indexer, IndexerStats};
pub use projector::{Projector, Router};
pub use service::{IndexManager, IndexSink, IndexState};
