//! The flusher pool: background threads draining the disk-write queue.
//!
//! Figure 6 of the paper: mutations are acknowledged from memory and "then
//! asynchronously written to disk via the disk write queue". The pool is
//! that path, sharded: each thread owns a static slice of vBuckets and
//! their log ([`DataEngine::flush_shard`]) and group-commits every drain
//! cycle with a single fsync instead of one fsync per vBucket. Threads
//! sleep on a condvar and are woken by `enqueue_dirty`, so a write starts
//! persisting immediately rather than after a polling interval. Every
//! thread also compacts its own log when its fragmentation crosses the
//! threshold and no other shard of the engine is compacting; shard 0's runs
//! the expiry pager as well (§4.3.3).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use cbs_common::{Error, Result};

use crate::engine::DataEngine;

/// Handle to a running flusher pool; stops (after a final drain) on drop.
pub struct FlusherPool {
    engine: Arc<DataEngine>,
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
}

impl FlusherPool {
    /// Spawn one thread per flusher shard of `engine`. Each thread drains
    /// its shard when the writes to it pause, at once when a durability
    /// waiter asks, and at least every `interval` while there is anything
    /// to drain ([`DataEngine::wait_for_cycle`]). Fails (with already-spawned shards stopped and
    /// joined) if the OS refuses a thread.
    pub fn spawn(engine: Arc<DataEngine>, interval: Duration) -> Result<FlusherPool> {
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles: Vec<JoinHandle<()>> = Vec::new();
        for shard in 0..engine.num_flusher_shards() {
            let thread_engine = Arc::clone(&engine);
            let thread_stop = Arc::clone(&stop);
            let spawned =
                std::thread::Builder::new().name(format!("cbs-flusher-{shard}")).spawn(move || {
                    let engine = thread_engine;
                    let stop = thread_stop;
                    let mut since_maintenance = 0u32;
                    while !stop.load(Ordering::Relaxed) {
                        if engine.flush_shard(shard).is_err() {
                            // The failed cycle re-queued its keys; back off
                            // instead of retrying in a hot loop.
                            std::thread::sleep(Duration::from_millis(50).min(interval));
                        }
                        // Periodic maintenance, roughly once per 64 drain
                        // cycles: every shard looks after its own log (one
                        // that finds another compacting waits for its next
                        // turn), one of them after expiry.
                        since_maintenance += 1;
                        if since_maintenance >= 64 {
                            since_maintenance = 0;
                            let _ = engine.compact_shard_if_needed(shard);
                            if shard == 0 {
                                let _ = engine.run_expiry_pager();
                            }
                        }
                        engine.wait_for_cycle(shard, interval, &stop);
                    }
                    // Final drain so a clean shutdown persists everything.
                    let _ = engine.flush_shard(shard);
                });
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    // Unwind the partial pool before reporting: stop and
                    // join the shards that did start.
                    stop.store(true, Ordering::Relaxed);
                    engine.wake_flushers();
                    for h in handles {
                        let _ = h.join();
                    }
                    return Err(Error::Io(format!("spawn flusher shard {shard}: {e}")));
                }
            }
        }
        Ok(FlusherPool { engine, stop, handles })
    }

    /// Number of shard threads in this pool.
    pub fn num_shards(&self) -> usize {
        self.handles.len()
    }

    /// Request stop and wait for every shard's final drain.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Kick sleeping shard threads out of their condvar waits.
        self.engine.wake_flushers();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for FlusherPool {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{EngineConfig, MutateMode};
    use cbs_common::Cas;
    use cbs_json::Value;

    #[test]
    fn flusher_persists_in_background() {
        let engine = DataEngine::new(EngineConfig::for_test(16)).unwrap();
        engine.activate_all();
        let flusher = FlusherPool::spawn(Arc::clone(&engine), Duration::from_millis(5)).unwrap();
        assert!(flusher.num_shards() >= 2, "pool must actually be sharded");
        let m = engine.set("k", Value::int(1), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        // Durability wait is now satisfied by the background flusher.
        engine.wait_persisted(m.vb, m.seqno, Duration::from_secs(5)).unwrap();
        flusher.shutdown();
        assert!(engine.persisted_seqno(m.vb) >= m.seqno);
    }

    #[test]
    fn shutdown_drains_pending_writes_across_all_shards() {
        let engine = DataEngine::new(EngineConfig::for_test(16)).unwrap();
        engine.activate_all();
        // A huge interval: threads only drain on wakeup or shutdown, so
        // this exercises both the condvar path and the final drain.
        let flusher = FlusherPool::spawn(Arc::clone(&engine), Duration::from_secs(3600)).unwrap();
        let mut vbs_hit = std::collections::HashSet::new();
        for i in 0..50 {
            let m = engine
                .set(&format!("k{i}"), Value::int(i), MutateMode::Upsert, Cas::WILDCARD, 0)
                .unwrap();
            vbs_hit.insert(m.vb);
        }
        // With 16 vBuckets and 50 keys, every shard's slice gets writes.
        assert!(vbs_hit.len() > 4, "keys must spread across vBuckets");
        flusher.shutdown();
        assert_eq!(engine.disk_queue_len(), 0, "shutdown flushes every shard's queue");
        // Every write is durably on disk: a fresh engine over the same
        // directory recovers all 50.
        let mut cfg2 = EngineConfig::for_test(16);
        cfg2.data_dir = engine.config().data_dir.clone();
        drop(engine);
        let e2 = DataEngine::new(cfg2).unwrap();
        for vbi in 0..16 {
            e2.recover_vb(cbs_common::VbId(vbi)).unwrap();
        }
        e2.activate_all();
        for i in 0..50 {
            assert_eq!(
                e2.get(&format!("k{i}")).unwrap().value,
                Value::int(i),
                "k{i} must survive restart"
            );
        }
    }

    /// Memory-acked writes are aggregated: a burst to one shard costs a
    /// couple of group commits, not one per write — and with nobody waiting
    /// and an interval of an hour, the pause after the burst is what drains
    /// it.
    #[test]
    fn a_burst_without_waiters_is_one_group_commit_not_one_per_write() {
        let mut cfg = EngineConfig::for_test(16);
        cfg.flusher_shards = 1;
        let engine = DataEngine::new(cfg).unwrap();
        engine.activate_all();
        let flusher = FlusherPool::spawn(Arc::clone(&engine), Duration::from_secs(3600)).unwrap();
        std::thread::sleep(Duration::from_millis(30)); // let the thread reach its wait
        let mut last = None;
        for i in 0..200 {
            let key = format!("k{i}");
            last = engine.set(&key, Value::int(i), MutateMode::Upsert, Cas::WILDCARD, 0).ok();
        }
        let last = last.unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while engine.disk_queue_len() > 0 {
            assert!(std::time::Instant::now() < deadline, "the quiet queue was never drained");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(engine.persisted_seqno(last.vb) >= last.seqno);
        let commits = engine.stats().fsync_latency.count();
        assert!(commits <= 20, "{commits} group commits for one burst of 200 writes");
        assert_eq!(engine.stats().flushed.get(), 200);
        flusher.shutdown();
    }

    #[test]
    fn condvar_wakeup_beats_the_polling_interval() {
        let engine = DataEngine::new(EngineConfig::for_test(16)).unwrap();
        engine.activate_all();
        // Interval is effectively "never": only the enqueue_dirty wakeup
        // can trigger a drain before shutdown.
        let flusher = FlusherPool::spawn(Arc::clone(&engine), Duration::from_secs(3600)).unwrap();
        std::thread::sleep(Duration::from_millis(30)); // let threads reach their waits
        let m = engine.set("wake", Value::int(7), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        engine
            .wait_persisted(m.vb, m.seqno, Duration::from_secs(5))
            .expect("write must persist via condvar wakeup, not the interval");
        flusher.shutdown();
    }
}
