//! Cross Datacenter Replication — XDCR (paper §4.6).
//!
//! "Cross datacenter replication (XDCR) provides a way to replicate active
//! data to multiple, geographically diverse datacenters. [...] XDCR is
//! also a consumer of the internal DCP stream, as it uses the DCP stream
//! to push in-memory document mutations to the destination cluster."
//!
//! Reproduced semantics:
//!
//! - **per-bucket setup** with optional **filtered replication** by a
//!   regular expression over document IDs ([`filter::KeyFilter`]);
//! - **cluster-topology awareness**: the link routes each mutation through
//!   the destination cluster's *own* map ("the source and destination
//!   clusters can have different numbers of servers and thus different
//!   data partitioning"), and keeps replicating through destination
//!   failovers;
//! - **eventual consistency with deterministic conflict resolution**
//!   (§4.6.1): the destination's `set_with_meta` applies the
//!   most-updates-wins rule (rev count, then CAS, then expiry/flags), "the
//!   same rule on both clusters", so bi-directional links converge;
//! - the link resumes per-vBucket from its own cursors and survives source
//!   topology changes (it re-opens streams from the new active copies).

#![deny(unsafe_code)]

pub mod filter;
pub mod link;

pub use filter::KeyFilter;
pub use link::{XdcrLink, XdcrStats};
