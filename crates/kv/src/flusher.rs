//! The flusher: one background thread per bucket engine draining the
//! disk-write queue.
//!
//! Figure 6 of the paper: mutations are acknowledged from memory and "then
//! asynchronously written to disk via the disk write queue". One thread is
//! that path for an engine: it drains every dirty vBucket into the
//! bucket's one log ([`DataEngine::flush_once`]) and group-commits each
//! drain cycle with a single fsync. The thread sleeps on a condvar and is
//! woken by `queue_dirty`, so a write starts persisting immediately rather
//! than after a polling interval. Every 64 cycles it compacts the log if
//! its fragmentation has crossed the threshold, and every
//! [`EXPIRY_PAGER_PERIOD`] it runs the expiry pager (§4.3.3) — on the
//! clock, not on the cycle count, so that a node whose durable writes run
//! one cycle each does not sweep its cache in front of one write in 64.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use cbs_common::{Deadline, Error, Result};

use crate::engine::DataEngine;

/// How often the flusher thread runs the expiry pager.
pub const EXPIRY_PAGER_PERIOD: Duration = Duration::from_secs(1);

/// Drain cycles between two compaction checks.
const CYCLES_PER_COMPACTION_CHECK: u32 = 64;

/// Handle to a running flusher; stops (after a final drain) on drop.
pub struct FlusherPool {
    engine: Arc<DataEngine>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl FlusherPool {
    /// Spawn `engine`'s flusher thread, `cbs-flusher`. It drains when the
    /// writes pause, at once when a durability waiter asks, and at least
    /// every `interval` while there is anything to drain
    /// ([`DataEngine::wait_for_cycle`]). Fails if the OS refuses a thread.
    pub fn spawn(engine: Arc<DataEngine>, interval: Duration) -> Result<FlusherPool> {
        let stop = Arc::new(AtomicBool::new(false));
        let (thread_engine, thread_stop) = (Arc::clone(&engine), Arc::clone(&stop));
        let handle = std::thread::Builder::new()
            .name("cbs-flusher".to_string())
            .spawn(move || run(&thread_engine, interval, &thread_stop))
            .map_err(|e| Error::Io(format!("spawn flusher: {e}")))?;
        Ok(FlusherPool { engine, stop, handle: Some(handle) })
    }

    /// Request stop and wait for the final drain.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Kick the sleeping thread out of its condvar wait.
        self.engine.wake_flusher();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for FlusherPool {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// The flusher thread's loop: drain, maintain, wait for the next cycle.
fn run(engine: &DataEngine, interval: Duration, stop: &AtomicBool) {
    let mut since_compaction_check = 0u32;
    let mut pager_due = Deadline::after(EXPIRY_PAGER_PERIOD);
    while !stop.load(Ordering::Relaxed) {
        if engine.flush_once().is_err() {
            // The failed cycle re-queued its keys; back off instead of
            // retrying in a hot loop.
            std::thread::sleep(Duration::from_millis(50).min(interval));
        }
        since_compaction_check += 1;
        if since_compaction_check >= CYCLES_PER_COMPACTION_CHECK {
            since_compaction_check = 0;
            let _ = engine.compact_if_needed();
        }
        if pager_due.expired() {
            engine.run_expiry_pager();
            pager_due = Deadline::after(EXPIRY_PAGER_PERIOD);
        }
        engine.wait_for_cycle(interval.min(pager_due.remaining()), stop);
    }
    // Final drain so a clean shutdown persists everything.
    let _ = engine.flush_once();
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
        let m = engine.set("k", Value::int(1), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        // Durability wait is now satisfied by the background flusher.
        engine.wait_persisted(m.vb, m.seqno, Duration::from_secs(5)).unwrap();
        flusher.shutdown();
        assert!(engine.persisted_seqno(m.vb) >= m.seqno);
    }

    #[test]
    fn shutdown_drains_pending_writes_of_every_vbucket() {
        let engine = DataEngine::new(EngineConfig::for_test(16)).unwrap();
        engine.activate_all();
        // A huge interval: the thread only drains on wakeup or shutdown, so
        // this exercises both the condvar path and the final drain.
        let flusher = FlusherPool::spawn(Arc::clone(&engine), Duration::from_secs(3600)).unwrap();
        let mut vbs_hit = std::collections::HashSet::new();
        for i in 0..50 {
            let m = engine
                .set(&format!("k{i}"), Value::int(i), MutateMode::Upsert, Cas::WILDCARD, 0)
                .unwrap();
            vbs_hit.insert(m.vb);
        }
        assert!(vbs_hit.len() > 4, "keys must spread across vBuckets");
        flusher.shutdown();
        assert_eq!(engine.disk_queue_len(), 0, "shutdown flushes every vBucket's queue");
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

    /// Memory-acked writes are aggregated: a burst costs a
    /// couple of group commits, not one per write — and with nobody waiting
    /// and an interval of an hour, the pause after the burst is what drains
    /// it.
    #[test]
    fn a_burst_without_waiters_is_one_group_commit_not_one_per_write() {
        let engine = DataEngine::new(EngineConfig::for_test(16)).unwrap();
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
        std::thread::sleep(Duration::from_millis(30)); // let the thread reach its wait
        let m = engine.set("wake", Value::int(7), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        engine
            .wait_persisted(m.vb, m.seqno, Duration::from_secs(5))
            .expect("write must persist via condvar wakeup, not the interval");
        flusher.shutdown();
    }
}
