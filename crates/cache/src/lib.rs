//! Object-managed cache (the paper's §4.3.3 "Object Managed Cache").
//!
//! "Key-value pairs are stored in the object-managed cache. Hash tables for
//! each virtual bucket reside in this cache [...] each entry for a document
//! stores the document's ID (i.e., its key), some document metadata, and the
//! document's value. By default the key and the metadata for every key in
//! the bucket will be kept in memory, while the associated values can be
//! evicted based on usage. Users also have the option to enable the eviction
//! of the key and metadata based on usage."
//!
//! This crate reproduces that component:
//!
//! - one hash table per vBucket ([`ObjectCache`] shards by [`cbs_common::VbId`]);
//! - **value eviction** (default): values of clean items are evicted under
//!   memory pressure, keys + metadata stay resident;
//! - **full eviction** (opt-in): whole entries may be dropped;
//! - an NRU (not-recently-used) second-chance clock chooses victims, its
//!   hand resuming where the last pass stopped;
//! - a value is its encoded JSON bytes (`cbs_json::SharedValue`), and an
//!   entry is charged its key plus their length;
//! - a memory **quota** with high/low watermarks; writes whose growth (net
//!   of the entry they replace) cannot be admitted even after an eviction
//!   pass fail with [`cbs_common::Error::TempOom`] (memcached `TMPFAIL`
//!   semantics — clients back off and retry);
//! - *dirty* (not-yet-persisted) items are pinned: the asynchronous flusher
//!   (`cbs-kv`) marks them clean once the storage engine has them, which is
//!   what makes them evictable.

#![deny(unsafe_code)]

pub mod cache;
pub mod stats;

pub use cache::{CacheEntry, CacheItem, CacheLookup, EvictionPolicy, ObjectCache};
pub use stats::CacheStats;
