//! Database Change Protocol (DCP) — the paper's §4.3.2.
//!
//! "Any mutation that happens on an object in the data service must be
//! propagated to all other parts on the system that need to know, including
//! data replication, indexes, and so on. Couchbase has an internal Database
//! Change Protocol (DCP) that is utilized to keep all of the different
//! components in sync and to move data between the components at high speed.
//! DCP lies at the heart of Couchbase Server and supports its memory-first
//! architecture by decoupling potential I/O bottlenecks from many critical
//! functions."
//!
//! Every downstream component — intra-cluster replication, the view engine,
//! the GSI projector, XDCR — consumes the changes through the types defined
//! here.
//!
//! ## Two consumer kinds: a live feed, or a snapshot
//!
//! A consumer that follows live writes — a bucket's replication/GSI pump,
//! an XDCR link — owns a [`DcpFeed`] (one queue) and calls
//! [`DcpHub::subscribe`] once per vBucket it wants, on whichever hubs hold
//! them. It then parks in [`DcpFeed::drain`] and is woken by the publish
//! itself, not by a timer. Whatever else it follows — a bucket's cluster
//! map, its own shutdown — wakes it on the same queue through a
//! [`FeedWaker`].
//!
//! A subscription to a vBucket resuming after seqno `s` delivers, in seqno
//! order (events of different vBuckets interleave, each in its own order):
//!
//! 1. a **backfill snapshot** read through the producer's
//!    [`BackfillSource`] — the cache, plus storage for what the cache
//!    evicted, so memory-first writes are never missed and resident
//!    documents are never re-read;
//! 2. the **live tail**: every mutation above the newest seqno the
//!    snapshot queued, pushed by the data service at write time
//!    (memory-to-memory, before persistence — this is what makes
//!    replication and indexing "memory-first").
//!
//! The hand-off is race-free because registration happens inside the same
//! per-vBucket critical section that publishes.
//!
//! A consumer that needs "everything up to now" and nothing after — a view
//! update, a rebalance mover, a replica build, an index build, a
//! convergence check — holds no feed: it reads [`BackfillSource::backfill`]
//! from its resume point, and a sink ([`catch_up`]) applies the snapshot up
//! to its `high`: every version at or below `high` is
//! returned or superseded by a returned version, so the next call from there
//! misses nothing. Items above `high` may come back too; they come back
//! again next time, which seqno-guarded applies absorb. Every in-cluster
//! consumer — the pump's too — is a [`DcpSink`].

#![deny(unsafe_code)]

pub mod feed;
pub mod hub;
pub mod item;

pub use feed::{DcpEvent, DcpFeed, FeedWaker};
pub use hub::{catch_up, BackfillSource, DcpHub, DcpSink};
pub use item::{DcpItem, DcpKind};
