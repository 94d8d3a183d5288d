//! The Data Service (the paper's §4.3.3) — Couchbase's "ep-engine".
//!
//! "The Data Service provides the KV API that allows developers to create,
//! retrieve, update and delete records by primary key. The Data Service
//! forms the base data management layer of Couchbase and is leveraged by
//! the Indexing and Query services."
//!
//! [`DataEngine`] composes the substrates into the memory-first write path
//! of Figure 6:
//!
//! ```text
//!  client write ──► object cache (hash table, +seqno, +CAS) ──► ACK
//!                        │                    │
//!                        ▼ (async)            ▼ (sync, in-memory)
//!                  disk-write queue       DCP publish ──► replicas,
//!                        │                               views, GSI, XDCR
//!                        ▼
//!                  flusher thread ──► bucket log: 1 write + 1 fsync per cycle
//!                   (one per engine)    └─► index by offset ──► mark clean
//! ```
//!
//! - **CAS optimistic locking** and **GETL hard locks with timeout**
//!   (§3.1.1);
//! - **durability options** (§2.3.2 "Durability guarantees"): the engine
//!   keeps two per-vBucket [`cbs_common::Watermarks`] — the high seqno
//!   (assigned on an active copy, applied on a replica) and the persisted
//!   seqno. `wait_persisted` blocks on the second; the cluster layer's
//!   `replicate_to` blocks on the first across the replica engines, which
//!   share one `Signal` per bucket ([`EngineConfig::seqno_signal`]). Nothing
//!   polls and every wait ends at its deadline (DESIGN.md decision 10);
//! - **TTL expiry**: lazy, on access, and swept by the flusher thread's
//!   expiry pager once per [`flusher::EXPIRY_PAGER_PERIOD`];
//! - **vBucket states** (`Active`/`Replica`/`Pending`/`Dead`) driving
//!   failover and rebalance transitions (§4.3.1);
//! - **replica apply** and **set-with-meta** paths used by intra-cluster
//!   replication and XDCR;
//! - a memory-first [`cbs_dcp::BackfillSource`] implementation: a stream
//!   open is served from the vBucket's cache shard and reads from the log
//!   only the documents the cache has evicted, so DCP streams see every
//!   acknowledged write — flushed or not — without re-reading resident data.

#![deny(unsafe_code)]

pub mod engine;
pub mod flusher;
pub mod stats;
pub mod types;

pub use engine::DataEngine;
pub use flusher::FlusherPool;
pub use stats::EngineStats;
pub use types::{EngineConfig, GetResult, MutateMode, MutationResult, VbState, VbucketStats};

/// Current unix time in seconds (expiry granularity). Delegates to the
/// workspace's single wall-clock read point (`cbs_common::time`).
pub(crate) fn now_secs() -> u32 {
    cbs_common::time::now_unix_secs()
}
