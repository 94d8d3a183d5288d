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
pub use record::{check_key_len, DocMeta, StoredDoc, MAX_KEY_LEN, MAX_PAYLOAD_LEN};
pub use vbstore::{RecordList, StoreStats, VBucketStore};
pub use wal::{replay_file, GroupCommitWal};

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;

/// Create a unique scratch directory for tests and benches. (We avoid the
/// `tempfile` crate to stay within the approved dependency set.) Each
/// process's directories sit under one parent, `<temp dir>/cbs-<pid>`; the
/// first call in a process removes the scratch directories of every
/// process that has exited, so what a run leaves behind lasts until the
/// next run.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static SWEEP: Once = Once::new();
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let tmp = std::env::temp_dir();
    SWEEP.call_once(|| sweep_dead_scratch(&tmp));
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    // The time keeps a name unique against what an exited process with the
    // same pid left in `cbs-<pid>`, which no sweep removes while we live.
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let dir = tmp.join(format!("cbs-{}", std::process::id())).join(format!("{tag}-{nanos}-{n}"));
    // Test/bench scaffolding — a scratch dir that cannot be created should
    // abort the run loudly, there is nothing to recover.
    #[allow(clippy::expect_used)]
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Remove every scratch directory under `root` whose process has exited:
/// `cbs-<pid>`, and the flat `cbs-<tag>-<pid>-<nanos>-<n>` that earlier
/// builds made. Without `/proc` nothing is removed.
fn sweep_dead_scratch(root: &Path) {
    if !Path::new("/proc/self").exists() {
        return;
    }
    let Ok(entries) = std::fs::read_dir(root) else { return };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(scratch_pid) else { continue };
        if entry.file_type().is_ok_and(|t| t.is_dir()) && !process_is_live(pid) {
            // Another process may be sweeping the same directory.
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// A process is live while `/proc/<pid>/status` names it its own thread
/// group. `/proc/<tid>` exists for every thread id as well, and a thread's
/// status names the process it belongs to.
fn process_is_live(pid: &str) -> bool {
    let Ok(status) = std::fs::read_to_string(Path::new("/proc").join(pid).join("status")) else {
        return false;
    };
    status.lines().any(|line| line.strip_prefix("Tgid:").is_some_and(|tgid| tgid.trim() == pid))
}

/// The pid a scratch directory's name holds, in either layout.
fn scratch_pid(name: &str) -> Option<&str> {
    let number = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    let parts: Vec<&str> = name.strip_prefix("cbs-")?.split('-').collect();
    let pid = match parts[..] {
        [pid] => pid,
        [_, .., pid, nanos, n] if number(nanos) && number(n) => pid,
        _ => return None,
    };
    number(pid).then_some(pid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn sweep_removes_only_exited_processes_scratch() {
        let root = scratch_dir("sweep");
        let own = std::process::id();
        // Above any `pid_max` (at most 2^22): no live process has it.
        let dead = 99_999_999;
        let names = [
            format!("cbs-{dead}"),
            format!("cbs-kv-{dead}-1-0"),
            format!("cbs-gsi-svc-{dead}-1-0"),
            format!("cbs-{own}"),
            format!("cbs-kv-{own}-1-0"),
            format!("cbs-gsi-svc-{own}-1-0"),
            "cbs-notes".to_string(),
            format!("other-{dead}"),
        ];
        for name in &names {
            std::fs::create_dir_all(root.join(name).join("shard")).unwrap();
        }
        sweep_dead_scratch(&root);
        let left: BTreeSet<String> = std::fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        let swept = if Path::new("/proc/self").exists() { 3 } else { 0 };
        assert_eq!(left, names[swept..].iter().cloned().collect::<BTreeSet<_>>());
        std::fs::remove_dir_all(root).unwrap();
    }

    /// A thread id is not a live process: the leftovers named after a
    /// live thread of this process are swept, this process's own are kept.
    #[test]
    fn sweep_removes_scratch_named_after_a_live_thread() {
        if !Path::new("/proc/thread-self").exists() {
            return;
        }
        let root = scratch_dir("sweep-thread");
        let own = std::process::id().to_string();
        let (tid_tx, tid_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let thread = std::thread::spawn(move || {
            // `/proc/thread-self` links to `<pid>/task/<tid>`.
            let link = std::fs::read_link("/proc/thread-self").unwrap();
            tid_tx.send(link.file_name().unwrap().to_string_lossy().into_owned()).unwrap();
            let _ = done_rx.recv();
        });
        let tid = tid_rx.recv().unwrap();
        assert_ne!(tid, own);
        for name in [format!("cbs-{tid}"), format!("cbs-{own}")] {
            std::fs::create_dir_all(root.join(name).join("shard")).unwrap();
        }
        sweep_dead_scratch(&root);
        let left: BTreeSet<String> = std::fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        drop(done_tx);
        thread.join().unwrap();
        assert_eq!(left, BTreeSet::from([format!("cbs-{own}")]));
        std::fs::remove_dir_all(root).unwrap();
    }
}
