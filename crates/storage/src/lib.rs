//! Append-only storage engine (the paper's §4.3.3 "Storage Engine").
//!
//! "With Couchbase's append-only storage engine design, document mutations
//! always go to the end of a file. [...] This improves disk write
//! performance, as all updates are written sequentially. Compaction is
//! periodically run, based on a fragmentation threshold, and while the
//! system is online, to clean up stale data from the append-only storage."
//!
//! This crate reproduces that design, couchstore-style:
//!
//! - one append-only log file per bucket per node ([`BucketStore`]),
//!   holding the records of all of the bucket's vBuckets, CRC32-checksummed
//!   ([`record`]) and written once: a drain cycle is appended in 64 KiB
//!   slices under one `sync_data` and indexed after it, and that log is
//!   the only on-disk copy of the documents;
//! - per vBucket, one in-memory **by-id** index (key → offset, length and
//!   seqno of its latest record) over the bucket's log ([`VBucketStore`]),
//!   rebuilt by scanning the log on open — crash recovery truncates at the
//!   first torn/corrupt record, recovering exactly the durable prefix;
//! - online **compaction** when a log's fragmentation ratio (stale bytes /
//!   file bytes) crosses a threshold: live records are streamed through a
//!   64 KiB buffer to a fresh file which atomically replaces the old one,
//!   readers undisturbed;
//! - seqno-ordered reads — the by-id entries sorted on demand — for
//!   warm-up after a restart and compaction, and no-I/O record
//!   listings ([`RecordList`]): how a DCP backfill reads exactly the
//!   documents the cache no longer holds.
//!
//! [`GroupCommitWal`] is the log file itself (framing, append, group
//! commit, truncate); [`CommitLog`] is its writer's protocol (sliced
//! commits, abandon, torn-tail recovery on open, the rewrite swap), which
//! the log of a [`BucketStore`] wraps. A Standard GSI partition's
//! change log is a bare [`CommitLog`]: the partition's tree is its only
//! index, a reopen replays every record, and a rewrite writes the tree's
//! state (`cbs-index`'s `Indexer`).

#![deny(unsafe_code)]

pub mod bucket;
pub mod log;
pub mod record;
pub mod vbstore;
pub mod wal;

pub use bucket::BucketStore;
pub use log::{CommitLog, Cycle, Rewrite, CYCLE_SLICE};
pub use record::{check_key_len, DocMeta, StoredDoc, MAX_KEY_LEN};
pub use vbstore::{RecordList, StoreStats, VBucketStore};
pub use wal::{replay_file, GroupCommitWal};

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Create a unique scratch directory for tests and benches. (We avoid the
/// `tempfile` crate to stay within the approved dependency set; callers are
/// responsible for cleanup, though the OS temp dir makes leaks harmless.)
pub fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "cbs-{}-{}-{}-{}",
        tag,
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0),
        n
    ));
    // Test/bench scaffolding — a scratch dir that cannot be created should
    // abort the run loudly, there is nothing to recover.
    #[allow(clippy::expect_used)]
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}
