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
//! the GSI projector, XDCR — consumes the same feed type defined here.
//!
//! ## One subscription path, one queue per consumer
//!
//! A consumer owns a [`DcpFeed`] — one queue — and calls
//! [`DcpHub::subscribe`] once per vBucket it wants, on whichever hubs hold
//! them. It then parks in [`DcpFeed::drain`] and is woken by the publish
//! itself, not by a timer. Whatever else it follows — a bucket's cluster
//! map, its own shutdown — wakes it on the same queue through a
//! [`FeedWaker`]. A [`DcpStream`] is the single-vBucket case: a feed with
//! one subscription plus the cursor of what it delivered.
//!
//! A subscription to a vBucket resuming after seqno `s` delivers, in seqno
//! order (events of different vBuckets interleave, each in its own order):
//!
//! 1. a **backfill snapshot**: the latest version of every document whose
//!    seqno is in `(s, h]`, where `h` is the vBucket's high seqno at
//!    subscription time (read through the producer's [`BackfillSource`] —
//!    the cache, plus storage for what the cache evicted, so memory-first
//!    writes are never missed and resident documents are never re-read);
//! 2. the **live tail**: every mutation with seqno `> h`, pushed by the
//!    data service at write time (memory-to-memory, before persistence —
//!    this is what makes replication and indexing "memory-first").
//!
//! The hand-off is race-free because registration happens inside the same
//! per-vBucket critical section that assigns seqnos.

pub mod hub;
pub mod item;
pub mod stream;

pub use hub::{BackfillSource, DcpHub};
pub use item::{DcpItem, DcpKind};
pub use stream::{DcpEvent, DcpFeed, DcpStream, FeedWaker};
