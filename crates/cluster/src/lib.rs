//! The clustered architecture (paper §4.1, §4.3, §4.4).
//!
//! "Couchbase Server has a shared-nothing architecture. [...] A cluster of
//! Couchbase Servers consists of one or more nodes, with each containing a
//! configurable set of services."
//!
//! The cluster is simulated **in-process**: each [`Node`] owns real service
//! state (a `cbs-kv` data engine + `cbs-views` view engine per bucket when
//! it runs the data service, a `cbs-index` manager when it runs the index
//! service) and the "network" is direct method calls guarded by per-node
//! liveness flags — killing a node makes every call to it fail, which is
//! all the cluster manager can observe over a real network anyway.
//!
//! Reproduced mechanisms:
//!
//! - **cluster map** (§4.1): vBucket → active/replica node placement, with
//!   an epoch so smart clients detect staleness ([`map`]);
//! - **multi-dimensional scaling** (§4.4): per-node service sets — data,
//!   index, query — so workloads scale independently ([`ServiceSet`]);
//! - **orchestrator election, heartbeats, failover** (§4.3.1): the
//!   orchestrator promotes replica vBuckets of a failed node to active and
//!   bumps the map epoch ([`Cluster::failover`]);
//! - **rebalance** (§4.3.1): per-vBucket movers copy data via DCP
//!   (backfill + live tail), then perform "an atomic and consistent
//!   switchover" ([`Cluster::rebalance`]);
//! - **intra-cluster replication** (§4.1.1): memory-to-memory DCP pumps
//!   from active to replica copies ([`replication`]);
//! - **smart clients** (§4.1): CRC32 key hashing against a cached map copy
//!   with not-my-vbucket refresh/retry ([`client::SmartClient`]);
//! - **cluster-wide query/view access**: an `cbs-n1ql` [`Datastore`]
//!   implementation that routes fetches through the map, fans primary
//!   scans out to all data nodes, and scatter/gathers view queries
//!   ([`query::ClusterDatastore`], [`Cluster::view_query`]).
//!
//! [`Datastore`]: cbs_n1ql::Datastore

#![deny(unsafe_code)]

pub mod client;
pub mod cluster;
pub mod config;
pub mod fault;
pub mod lag;
pub mod map;
pub mod node;
pub mod query;
pub mod replication;
pub mod stats;
pub mod txnlog;

pub use client::{Durability, SmartClient};
pub use cluster::{AutoFailover, Cluster};
pub use config::{ClusterConfig, ServiceSet};
pub use fault::{FaultAction, FaultInjector};
pub use lag::{ReplicationLagTable, LAG_WINDOW_CYCLES};
pub use map::ClusterMap;
pub use node::Node;
pub use query::ClusterDatastore;
pub use stats::{BucketStats, ClusterStats, NodeStats};
pub use txnlog::{TxnLog, TxnLogRow, TxnState};
