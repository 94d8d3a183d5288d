//! One flusher per engine: a drain cycle group-commits every dirty vBucket
//! of the engine with one sync, and a running pool is one thread.

// Tests unwrap freely; the crate's unwrap_used deny targets lib code.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;
use std::time::Duration;

use cbs_common::{Cas, SeqNo, VbId};
use cbs_json::Value;
use cbs_kv::{DataEngine, EngineConfig, FlusherPool, MutateMode};

const VBUCKETS: u16 = 16;

/// A dirty key in each of 16 vBuckets: one drain cycle persists all of
/// them with exactly one commit.
#[test]
fn one_drain_cycle_commits_every_dirty_vbucket_with_one_sync() {
    let engine = DataEngine::new(EngineConfig::for_test(VBUCKETS)).unwrap();
    engine.activate_all();
    let mut written = vec![SeqNo::ZERO; VBUCKETS as usize];
    for i in 0.. {
        let key = format!("k{i}");
        let vb = engine.vb_for_key(&key).index();
        if written[vb] == SeqNo::ZERO {
            let m = engine.set(&key, Value::int(i), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
            written[vb] = m.seqno;
        }
        if written.iter().all(|s| *s > SeqNo::ZERO) {
            break;
        }
    }
    let commits = engine.stats().fsync_latency.count();
    assert_eq!(engine.flush_once().unwrap(), u64::from(VBUCKETS));
    assert_eq!(engine.stats().fsync_latency.count(), commits + 1, "one sync for the cycle");
    assert_eq!(engine.disk_queue_len(), 0);
    for (vb, seqno) in written.into_iter().enumerate() {
        assert_eq!(engine.persisted_seqno(VbId(vb as u16)), seqno, "vb {vb}");
    }
}

/// The names of this process's threads that start with `prefix`.
#[cfg(target_os = "linux")]
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.unwrap().path().join("comm")).ok())
        .filter(|name| name.starts_with(prefix))
        .count()
}

/// A running pool is one `cbs-flusher` thread, gone after shutdown. (This
/// binary's only pool: the tests beside it spawn none.)
#[cfg(target_os = "linux")]
#[test]
fn a_running_pool_is_one_flusher_thread() {
    let engine = DataEngine::new(EngineConfig::for_test(VBUCKETS)).unwrap();
    engine.activate_all();
    assert_eq!(threads_named("cbs-flusher"), 0);
    let pool = FlusherPool::spawn(Arc::clone(&engine), Duration::from_millis(10)).unwrap();
    // A thread names itself once it runs: a persisted write says it has.
    let m = engine.set("k", Value::int(1), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
    engine.wait_persisted(m.vb, m.seqno, Duration::from_secs(10)).unwrap();
    assert_eq!(threads_named("cbs-flusher"), 1);
    pool.shutdown();
    assert_eq!(threads_named("cbs-flusher"), 0);
}
