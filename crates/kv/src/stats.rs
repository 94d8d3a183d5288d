//! Engine operation counters and latency histograms.
//!
//! All handles are resolved from the engine's [`cbs_obs::Registry`] once at
//! construction (`service.component.metric` names under `kv.*`); recording
//! on the hot path is a single relaxed atomic op per metric.

use std::sync::Arc;

use cbs_obs::{Counter, Histogram, Registry};

/// Metric handles for one [`crate::DataEngine`].
#[derive(Debug)]
pub struct EngineStats {
    /// Successful + failed get attempts (`kv.engine.gets`).
    pub gets: Arc<Counter>,
    /// Acknowledged sets (`kv.engine.sets`).
    pub sets: Arc<Counter>,
    /// Acknowledged deletes (`kv.engine.deletes`).
    pub deletes: Arc<Counter>,
    /// Lazy TTL expirations performed (`kv.engine.expirations`).
    pub expirations: Arc<Counter>,
    /// Background fetches (value evicted, read from disk;
    /// `kv.engine.bg_fetches`).
    pub bg_fetches: Arc<Counter>,
    /// Items persisted by the flusher (`kv.flusher.items_flushed`).
    pub flushed: Arc<Counter>,
    /// Writes de-duplicated in the disk-write queue
    /// (`kv.flusher.dedup_writes`).
    pub dedup_writes: Arc<Counter>,
    /// Mutations applied on replica vBuckets (`kv.engine.replica_applies`).
    pub replica_applies: Arc<Counter>,
    /// XDCR set-with-meta applies (incoming won; `kv.engine.xdcr_applies`).
    pub xdcr_applies: Arc<Counter>,
    /// XDCR set-with-meta rejects (existing won; `kv.engine.xdcr_rejects`).
    pub xdcr_rejects: Arc<Counter>,
    /// Backfill items served from the cache (`kv.backfill.items_from_memory`).
    pub backfill_from_memory: Arc<Counter>,
    /// Backfill items read from the shard logs — documents whose value, or
    /// whole entry, the cache had evicted (`kv.backfill.items_from_disk`).
    pub backfill_from_disk: Arc<Counter>,
    /// Front-end get latency (`kv.engine.get_latency`).
    pub get_latency: Arc<Histogram>,
    /// Front-end set latency (`kv.engine.set_latency`).
    pub set_latency: Arc<Histogram>,
    /// Group-commit fsync latency of the shard logs, one sample per drain
    /// cycle that wrote anything (`kv.flusher.fsync_latency`).
    pub fsync_latency: Arc<Histogram>,
}

impl EngineStats {
    /// Resolve every handle in `registry`.
    pub fn new(registry: &Registry) -> EngineStats {
        EngineStats {
            gets: registry.counter("kv.engine.gets"),
            sets: registry.counter("kv.engine.sets"),
            deletes: registry.counter("kv.engine.deletes"),
            expirations: registry.counter("kv.engine.expirations"),
            bg_fetches: registry.counter("kv.engine.bg_fetches"),
            flushed: registry.counter("kv.flusher.items_flushed"),
            dedup_writes: registry.counter("kv.flusher.dedup_writes"),
            replica_applies: registry.counter("kv.engine.replica_applies"),
            xdcr_applies: registry.counter("kv.engine.xdcr_applies"),
            xdcr_rejects: registry.counter("kv.engine.xdcr_rejects"),
            backfill_from_memory: registry.counter("kv.backfill.items_from_memory"),
            backfill_from_disk: registry.counter("kv.backfill.items_from_disk"),
            get_latency: registry.histogram("kv.engine.get_latency"),
            set_latency: registry.histogram("kv.engine.set_latency"),
            fsync_latency: registry.histogram("kv.flusher.fsync_latency"),
        }
    }

    /// Total front-end ops (gets + sets + deletes).
    pub fn total_ops(&self) -> u64 {
        self.gets.get() + self.sets.get() + self.deletes.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let s = EngineStats::new(&Registry::new("kv"));
        s.gets.add(3);
        s.sets.add(2);
        s.deletes.add(1);
        assert_eq!(s.total_ops(), 6);
    }

    #[test]
    fn handles_feed_the_registry() {
        let r = Registry::new("kv");
        let s = EngineStats::new(&r);
        s.bg_fetches.inc();
        s.fsync_latency.record(std::time::Duration::from_micros(250));
        let snap = r.snapshot();
        assert_eq!(snap.counter("kv.engine.bg_fetches"), 1);
        assert_eq!(snap.histogram("kv.flusher.fsync_latency").count(), 1);
    }
}
