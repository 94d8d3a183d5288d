//! The data engine: memory-first write path, KV API, vBucket states.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cbs_cache::{CacheLookup, EvictionPolicy, ObjectCache};
use cbs_common::sync::{rank, OrderedMutex, Watermarks};
use cbs_common::{
    check_value_len, vbucket_for_key, Cas, CasClock, Deadline, DocKey, DocMeta, Error, KeyHash,
    KeyMap, Result, RevNo, SeqNo, VbId,
};
use cbs_dcp::{BackfillSource, DcpFeed, DcpHub, DcpItem, DcpKind, DcpSink};
use cbs_json::{SharedValue, Value};
use cbs_obs::{span, Gauge, Registry, SpanGuard, TraceContext};
use cbs_storage::{check_key_len, BucketStore, Cycle, StoredDoc, CYCLE_SLICE};
use parking_lot::Condvar;

use crate::now_secs;
use crate::stats::EngineStats;
use crate::types::{EngineConfig, GetResult, MutateMode, MutationResult, VbState};

/// What a drain cycle took from one vBucket: the keys whose versions it
/// writes and the trace contexts attached to them, kept so a failed commit
/// can queue both again; how many queue entries the engine's gauge counted
/// for them; and the seqno the vBucket is persisted to once the cycle has
/// committed.
struct DirtySnapshot {
    vb: VbId,
    keys: Vec<DocKey>,
    ctxs: KeyMap<TraceContext>,
    listed: u64,
    high: SeqNo,
}

/// Per-vBucket mutable state, guarded by one mutex per vBucket. The mutex
/// also serializes the write path (seqno assignment → cache → disk-write
/// queue → DCP publish), which is what guarantees seqno-ordered DCP
/// delivery.
struct VbMeta {
    state: VbState,
    /// GETL hard locks: key → (lock token, expiry instant). "This lock will
    /// be released after a certain timeout to avoid deadlocks" (§3.1.1).
    locks: KeyMap<(Cas, Instant)>,
    /// The disk-write queue, in the order keys were first queued. Its
    /// de-duplication — "asynchrony [...] provides an opportunity for
    /// repeated updates to an object to be aggregated at the level of
    /// persistence" (§2.3.2) — is the cache entry's queued bit: a key is
    /// appended only by the write that set it. A short key is copied
    /// inline, so queueing one allocates nothing once the buffer has grown.
    queue: Vec<DocKey>,
    /// Causal trace contexts of queued writes (DESIGN.md §10): the flusher
    /// records a `kv.flusher.wal_commit` span against each at the group
    /// commit that persists the key. Only traced writes pay the entry.
    ctxs: KeyMap<TraceContext>,
}

impl VbMeta {
    /// A write released any GETL lock on its key; most vBuckets hold none.
    fn clear_lock(&mut self, key: &str) {
        if !self.locks.is_empty() {
            self.locks.remove(key);
        }
    }
}

/// What the flusher thread sleeps on.
#[derive(Default)]
struct FlushSignal {
    /// Wakeup generation counter; bumped (under the lock) by
    /// `enqueue_dirty` so a sleeping flusher thread cannot miss a write.
    gen: u64,
    /// vBuckets whose dirty queue went from empty to non-empty since the
    /// flusher last swapped this list out — the only ones a cycle visits.
    /// A vBucket may be listed with an empty queue (harmless), never the
    /// other way round for longer than it takes its writer to get here.
    dirty_vbs: Vec<VbId>,
    /// The flusher thread sleeps with nothing queued, so the next write
    /// must wake it. While it is busy or letting a cycle fill, writes only
    /// bump `gen`: no wake-up per write.
    idle: bool,
}

/// A filling cycle is drained once no new key has been queued for this long.
const FLUSH_QUIET: Duration = Duration::from_millis(1);

/// GETL's lock timeout when the caller gives none ("this lock will be
/// released after a certain timeout to avoid deadlocks", §3.1.1).
const GETL_TIMEOUT: Duration = Duration::from_secs(15);

/// The engine's flush state: every vBucket is drained into the bucket's
/// one log, each drain cycle group-committed through a single fsync.
struct FlushState {
    /// Dirty keys not yet durable: queued, or in a cycle that has not
    /// committed — exported as the backpressure gauge
    /// `kv.flusher.queue_depth`.
    dirty_count: Arc<Gauge>,
    signal: OrderedMutex<FlushSignal>,
    signal_cv: Condvar,
    /// `wait_persisted` callers blocked on this engine: while there are
    /// any, the flusher drains at once instead of letting its cycle fill.
    persist_waiters: AtomicUsize,
    /// The log's single-writer seat: serializes whole drain cycles
    /// (snapshot → append → sync → index → mark clean), purges and
    /// compactions. Without it a purge marker could be overtaken by an
    /// in-flight cycle's records of the purged vBucket, a compaction could
    /// lose the records appended while it copies, and concurrent cycles
    /// (public `flush_once` vs. the pool) could commit a key's versions out
    /// of order.
    flush_lock: OrderedMutex<()>,
}

/// The data service engine for one bucket on one node.
pub struct DataEngine {
    cfg: EngineConfig,
    cache: ObjectCache,
    store: BucketStore,
    hub: DcpHub,
    clock: CasClock,
    vbs: Vec<OrderedMutex<VbMeta>>,
    /// Highest seqno per vBucket: assigned here on an active copy, applied
    /// on a replica, either only once the cache holds the version (the
    /// resume-point rule, DESIGN.md decision 3). On the signal
    /// `cfg.seqno_signal` hands in, so that one durability waiter can watch
    /// this vector on several engines.
    high: Watermarks,
    /// Highest persisted seqno per vBucket; `wait_persisted` parks on it.
    persisted: Watermarks,
    flush: FlushState,
    registry: Arc<Registry>,
    stats: EngineStats,
}

impl DataEngine {
    /// Create an engine. All vBuckets start `Dead`; the cluster manager (or
    /// a test) activates the ones this node owns. Opening the store scans
    /// the bucket's log in the data directory and rebuilds every vBucket's
    /// index — that scan is the whole of crash recovery;
    /// [`DataEngine::recover_vb`] then warms the cache from it.
    pub fn new(cfg: EngineConfig) -> Result<Arc<DataEngine>> {
        let n = cfg.num_vbuckets;
        let registry = Arc::new(Registry::new("kv"));
        let store = BucketStore::open_with_registry(cfg.data_dir.clone(), &registry)?;
        let flush = FlushState {
            dirty_count: registry.gauge("kv.flusher.queue_depth"),
            signal: OrderedMutex::new(rank::FLUSH_SIGNAL, FlushSignal::default()),
            signal_cv: Condvar::new(),
            persist_waiters: AtomicUsize::new(0),
            flush_lock: OrderedMutex::new(rank::FLUSH_CYCLE, ()),
        };
        Ok(Arc::new(DataEngine {
            cache: ObjectCache::new_with_registry(n, cfg.cache_quota, cfg.eviction, &registry),
            store,
            hub: DcpHub::new_with_registry(n, &registry),
            clock: CasClock::new(),
            vbs: (0..n)
                .map(|_| {
                    OrderedMutex::new(
                        rank::VB_META,
                        VbMeta {
                            state: VbState::Dead,
                            locks: KeyMap::default(),
                            queue: Vec::new(),
                            ctxs: KeyMap::default(),
                        },
                    )
                })
                .collect(),
            high: Watermarks::sharing("replication", n, Arc::clone(&cfg.seqno_signal)),
            persisted: Watermarks::new("persistence", n),
            flush,
            stats: EngineStats::new(&registry),
            registry,
            cfg,
        }))
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The DCP hub consumers subscribe through.
    pub fn hub(&self) -> &DcpHub {
        &self.hub
    }

    /// This engine's trace sink (`None` when tracing is disabled). The
    /// replication pump uses it to file its delivery spans on the
    /// destination node's lane (DESIGN.md §10).
    pub fn trace_sink(&self) -> Option<&cbs_obs::TraceSink> {
        self.cfg.trace.as_ref()
    }

    /// A service-boundary span on this engine's node lane: a child of the
    /// caller's span when the thread is inside an operation, else the root
    /// of an unsampled segment that is kept only if it turns out slow.
    fn trace(&self, name: &'static str) -> SpanGuard {
        match &self.cfg.trace {
            Some(sink) => sink.span(name),
            None => span(name),
        }
    }

    /// Subscribe `feed` to one vBucket, backfilled from this engine; returns
    /// the seqno above which live delivery starts.
    pub fn subscribe_dcp(&self, feed: &DcpFeed, vb: VbId, since: SeqNo) -> Result<SeqNo> {
        self.hub.subscribe(feed, vb, since, self)
    }

    /// Statistics handles.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The metrics/tracing registry for this engine (shared with its cache
    /// and DCP hub). The cluster layer aggregates these into `cbstats`
    /// snapshots.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Cache statistics.
    pub fn cache_stats(&self) -> cbs_cache::CacheStats {
        self.cache.stats()
    }

    // ------------------------------------------------------------------
    // vBucket state management (driven by the cluster manager)
    // ------------------------------------------------------------------

    /// Set a vBucket's state.
    pub fn set_vb_state(&self, vb: VbId, state: VbState) {
        let mut meta = self.vbs[vb.index()].lock();
        meta.state = state;
        if state == VbState::Dead {
            meta.locks.clear();
        }
    }

    /// Read a vBucket's state.
    pub fn vb_state(&self, vb: VbId) -> VbState {
        self.vbs[vb.index()].lock().state
    }

    /// Activate every vBucket (single-node setups and tests).
    pub fn activate_all(&self) {
        for vb in 0..self.cfg.num_vbuckets {
            self.set_vb_state(VbId(vb), VbState::Active);
        }
    }

    /// vBuckets currently in a given state.
    pub fn vbs_in_state(&self, state: VbState) -> Vec<VbId> {
        (0..self.cfg.num_vbuckets).map(VbId).filter(|&vb| self.vb_state(vb) == state).collect()
    }

    /// Recover a vBucket's persisted data after a restart: resume seqno
    /// counters from the log and *warm up* the cache with keys, metadata
    /// and values (ep-engine's warmup phase — required because under
    /// value-only eviction a cache miss is authoritative). Each record's
    /// bytes become the cached version as read: nothing is parsed. The
    /// seqno counters move only once the cache is loaded.
    ///
    /// A version the cache refuses (`TempOom`: the quota is full of
    /// metadata, with no value left to evict) fails the warm-up with the
    /// counters unmoved: a key the cache does not hold would read as absent,
    /// so carrying on would lose it without a word.
    pub fn recover_vb(&self, vb: VbId) -> Result<()> {
        let s = self.store.vb(vb)?;
        let high = s.high_seqno();
        for doc in s.changes_since(SeqNo::ZERO)? {
            if doc.deleted {
                self.cache.delete(vb, &doc.key, doc.meta, false)?;
            } else {
                let value = SharedValue::from_json(doc.value);
                self.cache.set(vb, &doc.key, doc.meta, value, false)?;
            }
        }
        self.high.advance(vb, high);
        self.persisted.advance(vb, high);
        Ok(())
    }

    /// Drop all state for a vBucket (rebalance hand-off / `Dead`).
    pub fn purge_vb(&self, vb: VbId) -> Result<()> {
        self.set_vb_state(vb, VbState::Dead);
        self.cache.clear_vb(vb);
        // Under the flush lock, so the purge marker lands behind whatever
        // an in-flight cycle appends for this vBucket and a replay after
        // restart cannot resurrect it. The marker is synced by the next
        // cycle (at the latest one flush interval from now), not here: a
        // rebalance purges vBuckets by the hundred.
        let _flush = self.flush.flush_lock.lock();
        let dropped = {
            let mut meta = self.vbs[vb.index()].lock();
            meta.ctxs.clear();
            std::mem::take(&mut meta.queue).len() as u64
        };
        self.flush.dirty_count.sub(dropped);
        self.store.drop_vb(vb)?;
        self.high.reset(vb);
        self.persisted.reset(vb);
        Ok(())
    }

    /// The vBucket a key hashes to (CRC32, §4.1 / Figure 5).
    pub fn vb_for_key(&self, key: &str) -> VbId {
        VbId(vbucket_for_key(key.as_bytes(), self.cfg.num_vbuckets))
    }

    /// Highest assigned seqno for a vBucket.
    pub fn high_seqno(&self, vb: VbId) -> SeqNo {
        self.high.get(vb)
    }

    /// What a replica apply on this engine — on any engine of the bucket —
    /// wakes: park here to wait for [`DataEngine::high_seqno`]s to move.
    pub fn seqno_signal(&self) -> &Arc<cbs_common::Signal> {
        &self.cfg.seqno_signal
    }

    /// Highest persisted seqno for a vBucket.
    pub fn persisted_seqno(&self, vb: VbId) -> SeqNo {
        self.persisted.get(vb)
    }

    /// The high-seqno vector across all vBuckets — the consistency token
    /// `request_plus` queries snapshot at admission (§4.2: "If a N1QL query
    /// chooses request_plus scan consistency, the query engine will wait
    /// until the index is updated up to the maximum sequence number for
    /// each vBucket").
    pub fn seqno_vector(&self) -> Vec<SeqNo> {
        self.high.snapshot()
    }

    // ------------------------------------------------------------------
    // KV API (§3.1.1)
    // ------------------------------------------------------------------

    /// Read a document by key.
    pub fn get(&self, key: &str) -> Result<GetResult> {
        // Gets issued inside a query nest under the request's span tree,
        // where the profiler attributes them to the fetch phase.
        let _trace = self.trace("kv.engine.get");
        let vb = self.vb_for_key(key);
        let start = Instant::now();
        let result = self.get_in_vb(vb, key);
        self.stats.get_latency.record(start.elapsed());
        result
    }

    fn get_in_vb(&self, vb: VbId, key: &str) -> Result<GetResult> {
        if self.vb_state(vb) != VbState::Active {
            return Err(Error::VbucketNotActive(vb));
        }
        self.stats.gets.inc();
        match self.cache.get(vb, key) {
            CacheLookup::Hit { meta, value } => {
                if meta.is_expired_at(now_secs()) {
                    self.lazy_expire(vb, key, meta);
                    return Err(Error::KeyNotFound(key.to_string()));
                }
                Ok(GetResult { value, meta })
            }
            CacheLookup::Tombstone { .. } => Err(Error::KeyNotFound(key.to_string())),
            CacheLookup::ValueGone { meta } => {
                // Background fetch: the value was evicted; metadata stayed
                // resident (§4.3.3 value-only eviction).
                self.stats.bg_fetches.inc();
                if meta.is_expired_at(now_secs()) {
                    self.lazy_expire(vb, key, meta);
                    return Err(Error::KeyNotFound(key.to_string()));
                }
                let _bg = span("kv.engine.bg_fetch");
                let stored = self.store.vb(vb)?.get(key)?.ok_or_else(|| {
                    Error::Storage(format!("meta resident but no disk copy: {key}"))
                })?;
                self.fetched(vb, stored)
            }
            CacheLookup::Miss if self.cache.policy() == EvictionPolicy::Full => {
                // Under full eviction the document may still be on disk.
                let _bg = span("kv.engine.bg_fetch");
                match self.store.vb(vb)?.get(key)? {
                    Some(stored) if !stored.deleted && !stored.meta.is_expired_at(now_secs()) => {
                        self.stats.bg_fetches.inc();
                        self.fetched(vb, stored)
                    }
                    _ => Err(Error::KeyNotFound(key.to_string())),
                }
            }
            CacheLookup::Miss => Err(Error::KeyNotFound(key.to_string())),
        }
    }

    /// Complete a background fetch with the record it read: answered with
    /// that record's own metadata (a write may have superseded the version
    /// the lookup saw), and installed only if the cache still wants that
    /// version ([`ObjectCache::repopulate`]). The bytes are wrapped as
    /// read — the body is decoded only if the caller reads it.
    fn fetched(&self, vb: VbId, stored: StoredDoc) -> Result<GetResult> {
        if stored.deleted || stored.meta.is_expired_at(now_secs()) {
            return Err(Error::KeyNotFound(stored.key));
        }
        let value = SharedValue::from_json(stored.value);
        self.cache.repopulate(vb, &stored.key, stored.meta, value.clone());
        Ok(GetResult { value, meta: stored.meta })
    }

    /// Write a document. `cas_check` of [`Cas::WILDCARD`] skips the
    /// optimistic-concurrency check; otherwise the write fails with
    /// [`Error::CasMismatch`] if the document changed since the client read
    /// it (§3.1.1).
    pub fn set(
        &self,
        key: &str,
        value: impl Into<SharedValue>,
        mode: MutateMode,
        cas_check: Cas,
        expiry: u32,
    ) -> Result<MutationResult> {
        // One encoded allocation serves the cache, the DCP item, every
        // subscriber, the replica copies and both flushers — the zero-copy
        // write path. It was encoded where it was built (`SharedValue::new`).
        let trace = self.trace("kv.engine.set");
        let start = Instant::now();
        let result = self.write(key, Some(value.into()), mode, cas_check, expiry, trace.ctx())?;
        self.stats.sets.inc();
        self.stats.set_latency.record(start.elapsed());
        Ok(result)
    }

    /// Delete a document (CAS-checked like [`DataEngine::set`]): a write of
    /// no value to a live document.
    pub fn delete(&self, key: &str, cas_check: Cas) -> Result<MutationResult> {
        let trace = self.trace("kv.engine.delete");
        let result = self.write(key, None, MutateMode::Replace, cas_check, 0, trace.ctx())?;
        self.stats.deletes.inc();
        Ok(result)
    }

    /// A client write, `None` a deletion: refused, in this order, for an
    /// over-long key or value, an inactive vBucket, a GETL lock it does not
    /// present, the mode's rule on a live predecessor or a CAS that does
    /// not match; else committed. `ctx` is `Some` only inside a sampled operation: the
    /// flusher and the replication pump then file their spans under it.
    fn write(
        &self,
        key: &str,
        value: Option<SharedValue>,
        mode: MutateMode,
        cas_check: Cas,
        expiry: u32,
        ctx: Option<TraceContext>,
    ) -> Result<MutationResult> {
        check_key_len(key)?;
        check_value_len(value.as_ref().map_or(0, |v| v.json().len()))?;
        let vb = self.vb_for_key(key);
        let mut meta = self.vbs[vb.index()].lock();
        if meta.state != VbState::Active {
            return Err(Error::VbucketNotActive(vb));
        }
        let via_lock_token = self.check_lock(&mut meta, key, cas_check)?;
        let existing = self.cache.peek_meta(vb, key);
        let (live, prev_rev) = match &existing {
            Some((m, deleted)) => (!*deleted && !m.is_expired_at(now_secs()), m.rev),
            None => (false, RevNo(0)),
        };
        match mode {
            MutateMode::Insert if live => return Err(Error::KeyExists(key.to_string())),
            MutateMode::Replace if !live => return Err(Error::KeyNotFound(key.to_string())),
            _ => {}
        }
        // The lock token *is* the CAS handed out by GETL; presenting it both
        // authorizes the write and satisfies the optimistic check.
        if !cas_check.is_wildcard() && !via_lock_token {
            let current = existing.map(|(m, _)| m.cas).unwrap_or(Cas::WILDCARD);
            if current != cas_check {
                return Err(Error::CasMismatch(key.to_string()));
            }
        }
        let version =
            DocMeta { cas: self.clock.next(), rev: prev_rev.next(), expiry, ..DocMeta::default() };
        let item = match value {
            Some(value) => DcpItem::mutation(vb, key, version, value),
            None => DcpItem::deletion(vb, key, version),
        };
        let committed = self.commit(&mut meta, DcpItem { trace: ctx, ..item })?;
        Ok(MutationResult { vb, seqno: committed.seqno, cas: committed.cas })
    }

    /// The one commit path of an active vBucket, under its lock. The item
    /// takes the vBucket's next seqno and is admitted to the cache; only
    /// then does the high seqno move, so a refused write takes none (the
    /// resume-point rule, DESIGN.md decision 3). Once the high seqno is
    /// [`SeqNo::MAX`] the cache refuses every next one
    /// ([`Error::SeqNoOutOfRange`]): the vBucket takes no more writes. Any GETL lock on the key
    /// goes with the version it guarded, and the item is published on DCP.
    fn commit(&self, meta: &mut VbMeta, mut item: DcpItem) -> Result<DocMeta> {
        let vb = item.vb;
        item.meta.seqno = self.high.get(vb).next();
        self.admit(meta, &item, item.trace)?;
        self.high.next(vb);
        meta.clear_lock(&item.key);
        self.hub.publish(&item);
        Ok(item.meta)
    }

    /// Admit a version to the cache as dirty and queue its key for the
    /// flusher, with the trace context `ctx`: an active copy's commit and a
    /// replica's apply alike. A version the cache refuses changes nothing.
    fn admit(&self, meta: &mut VbMeta, item: &DcpItem, ctx: Option<TraceContext>) -> Result<()> {
        let (vb, key) = (item.vb, item.key.as_str());
        let newly = if item.is_deletion() {
            self.cache.delete(vb, key, item.meta, true)?
        } else {
            // Reference-count bump: the cache holds the item's encoded
            // bytes, which the flusher persists as they are.
            let value = item.value.clone().unwrap_or_else(|| SharedValue::new(Value::Null));
            self.cache.set(vb, key, item.meta, value, true)?
        };
        self.queue_dirty(meta, vb, key, newly, ctx);
        Ok(())
    }

    /// Read and hard-lock a document ("an application can opt to request a
    /// hard lock at the document level", §3.1.1). The returned CAS is the
    /// lock token; a subsequent write presenting it releases the lock.
    pub fn get_and_lock(&self, key: &str, duration: Option<Duration>) -> Result<GetResult> {
        let _trace = self.trace("kv.engine.get_and_lock");
        let vb = self.vb_for_key(key);
        let result = self.get_in_vb(vb, key)?;
        let mut meta = self.vbs[vb.index()].lock();
        if let Some((_, deadline)) = meta.locks.get(key) {
            if *deadline > Instant::now() {
                return Err(Error::Locked(key.to_string()));
            }
        }
        let token = self.clock.next();
        let deadline = Instant::now() + duration.unwrap_or(GETL_TIMEOUT);
        meta.locks.insert(DocKey::from(key), (token, deadline));
        Ok(GetResult { value: result.value, meta: DocMeta { cas: token, ..result.meta } })
    }

    /// Explicitly release a GETL lock using its token.
    pub fn unlock(&self, key: &str, token: Cas) -> Result<()> {
        let _trace = self.trace("kv.engine.unlock");
        let vb = self.vb_for_key(key);
        let mut meta = self.vbs[vb.index()].lock();
        match meta.locks.get(key) {
            Some((t, deadline)) if *deadline > Instant::now() => {
                if *t == token {
                    meta.locks.remove(key);
                    Ok(())
                } else {
                    Err(Error::Locked(key.to_string()))
                }
            }
            _ => Err(Error::Timeout(format!("no active lock on {key}"))),
        }
    }

    /// Update only the expiry of a document (memcached `touch`).
    pub fn touch(&self, key: &str, expiry: u32) -> Result<MutationResult> {
        let current = self.get(key)?;
        self.set(key, current.value, MutateMode::Replace, current.meta.cas, expiry)
    }

    /// Enforce GETL locks. Returns true when `cas_check` is the active
    /// lock token (the caller then skips the normal CAS comparison).
    fn check_lock(&self, meta: &mut VbMeta, key: &str, cas_check: Cas) -> Result<bool> {
        if let Some((token, deadline)) = meta.locks.get(key) {
            if *deadline <= Instant::now() {
                meta.locks.remove(key);
            } else if cas_check != *token {
                return Err(Error::Locked(key.to_string()));
            } else {
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn lazy_expire(&self, vb: VbId, key: &str, prev: DocMeta) {
        // Expiry is observed lazily on access; issue the tombstone under
        // the vb lock like any write.
        let mut meta = self.vbs[vb.index()].lock();
        if meta.state != VbState::Active {
            return;
        }
        // Re-check: a concurrent write may have replaced the expired version.
        match self.cache.peek_meta(vb, key) {
            Some((m, false)) if m.seqno == prev.seqno => {}
            _ => return,
        }
        let tombstone =
            DocMeta { cas: self.clock.next(), rev: prev.rev.next(), ..DocMeta::default() };
        let item = DcpItem { kind: DcpKind::Expiration, ..DcpItem::deletion(vb, key, tombstone) };
        if self.commit(&mut meta, item).is_ok() {
            self.stats.expirations.inc();
        }
    }

    // ------------------------------------------------------------------
    // Replication / XDCR apply paths
    // ------------------------------------------------------------------

    /// One replicated version with the active copy's metadata, under its
    /// vBucket's lock; per-document seqnos decide which version is newest.
    fn replicate_one(&self, meta: &mut VbMeta, item: &DcpItem) -> Result<()> {
        // Stitch onto the originating client op's trace: a segment under
        // the context the item carries (the pump's deliver span).
        let trace = match (item.trace, &self.cfg.trace) {
            (Some(ctx), Some(sink)) => sink.child_of("kv.engine.replica_apply", ctx),
            _ => span("kv.engine.replica_apply"),
        };
        check_key_len(&item.key)?;
        let held = self.cache.peek_meta(item.vb, &item.key);
        if held.is_some_and(|(held, _)| held.seqno >= item.meta.seqno) {
            return Ok(());
        }
        // The active copy's metadata and encoded bytes, as they are.
        self.admit(meta, item, trace.ctx())?;
        self.stats.replica_applies.inc();
        Ok(())
    }

    /// XDCR apply with conflict resolution (§4.6.1): "the document with the
    /// most updates is considered the winner. If both clusters have the
    /// same number of updates [...] additional metadata fields are used."
    /// Returns `Ok(true)` if the incoming version won and was applied.
    pub fn set_with_meta(
        &self,
        key: &str,
        incoming: DocMeta,
        value: Option<SharedValue>,
        deleted: bool,
    ) -> Result<bool> {
        check_key_len(key)?;
        check_value_len(value.as_ref().map_or(0, |v| v.json().len()))?;
        let vb = self.vb_for_key(key);
        let mut vbmeta = self.vbs[vb.index()].lock();
        if vbmeta.state != VbState::Active {
            return Err(Error::VbucketNotActive(vb));
        }
        if let Some((existing, _)) = self.cache.peek_meta(vb, key) {
            if !incoming_wins(&incoming, &existing) {
                self.stats.xdcr_rejects.inc();
                return Ok(false);
            }
        }
        // Apply: new local seqno, but preserve the origin's rev/cas so both
        // clusters converge to identical metadata.
        let value = value.unwrap_or_else(|| SharedValue::new(Value::Null));
        let item = if deleted {
            DcpItem::deletion(vb, key, incoming)
        } else {
            DcpItem::mutation(vb, key, incoming, value)
        };
        self.commit(&mut vbmeta, item)?;
        drop(vbmeta);
        self.stats.xdcr_applies.inc();
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Durability (§2.3.2)
    // ------------------------------------------------------------------

    /// Block until `seqno` of `vb` is persisted, or `timeout` elapses.
    pub fn wait_persisted(&self, vb: VbId, seqno: SeqNo, timeout: Duration) -> Result<()> {
        self.wait_persisted_by(vb, seqno, Deadline::after(timeout))
    }

    /// [`DataEngine::wait_persisted`] against a deadline the caller shares
    /// with its other waits.
    pub fn wait_persisted_by(&self, vb: VbId, seqno: SeqNo, deadline: Deadline) -> Result<()> {
        let _s = span("kv.engine.wait_persisted");
        if self.persisted.get(vb) >= seqno {
            return Ok(());
        }
        // Tell the flusher that someone is waiting, so that it drains now
        // rather than when its cycle has filled.
        let sh = &self.flush;
        sh.persist_waiters.fetch_add(1, Ordering::SeqCst);
        sh.signal.lock().gen += 1;
        sh.signal_cv.notify_all();
        let reached = self.persisted.wait(vb, seqno, deadline);
        sh.persist_waiters.fetch_sub(1, Ordering::SeqCst);
        reached
    }

    // ------------------------------------------------------------------
    // Flusher internals (driven by `crate::flusher`)
    // ------------------------------------------------------------------

    /// After a dirty write to `key`, under its vBucket's lock: append the
    /// key to the disk-write queue if the write `newly` set the entry's
    /// queued bit, else count it as de-duplicated into the pending version.
    /// A traced write's context is attached either way (latest write wins,
    /// which matches de-duplication: the retained version is the newest).
    fn queue_dirty(
        &self,
        meta: &mut VbMeta,
        vb: VbId,
        key: &str,
        newly: bool,
        ctx: Option<TraceContext>,
    ) {
        if let Some(ctx) = ctx {
            meta.ctxs.insert(DocKey::from(key), ctx);
        }
        if !newly {
            self.stats.dedup_writes.inc();
            return;
        }
        let first = meta.queue.is_empty();
        meta.queue.push(DocKey::from(key));
        let sh = &self.flush;
        sh.dirty_count.add(1);
        // Bump the generation under the lock, so a flusher thread that
        // checked the counter and is about to sleep still sees the change —
        // no missed wakeups. The same acquisition tells the flusher which
        // vBucket to visit.
        let mut signal = sh.signal.lock();
        signal.gen += 1;
        if first {
            signal.dirty_vbs.push(vb);
        }
        if signal.idle {
            sh.signal_cv.notify_all();
        }
    }

    /// Block until the flusher should run its next drain cycle. With nothing
    /// queued the thread sleeps until the first write (or `interval`, so
    /// that maintenance still runs). With something queued it lets the
    /// cycle fill — "repeated updates to an object [are] aggregated at the
    /// level of persistence" (§2.3.2), and a group commit costs the same
    /// fsync for one item as for fifty — until no new key has been queued
    /// for [`FLUSH_QUIET`], `interval` has passed, or a `wait_persisted`
    /// caller is waiting, which ends the wait at once. `stop` is
    /// rechecked inside the wait loops: `shutdown` sets it and then bumps
    /// the generation under the signal lock, so a thread that passed its
    /// caller's stop check but has not yet recorded the generation cannot
    /// sleep through the shutdown wakeup.
    pub fn wait_for_cycle(&self, interval: Duration, stop: &AtomicBool) {
        let sh = &self.flush;
        let mut signal = sh.signal.lock();
        if sh.dirty_count.get() == 0 {
            let deadline = Instant::now() + interval;
            let start = signal.gen;
            signal.idle = true;
            while signal.gen == start && sh.dirty_count.get() == 0 && !stop.load(Ordering::Relaxed)
            {
                if sh.signal_cv.wait_until(signal.inner_mut(), deadline).timed_out() {
                    break;
                }
            }
            signal.idle = false;
        }
        let deadline = Instant::now() + interval;
        while sh.dirty_count.get() > 0
            && sh.persist_waiters.load(Ordering::SeqCst) == 0
            && !stop.load(Ordering::Relaxed)
        {
            let (seen, now) = (signal.gen, Instant::now());
            if now >= deadline {
                break;
            }
            sh.signal_cv.wait_until(signal.inner_mut(), deadline.min(now + FLUSH_QUIET));
            if signal.gen == seen {
                break; // quiet: nothing more is coming for now
            }
        }
    }

    /// Wake the flusher thread (shutdown path).
    pub fn wake_flusher(&self) {
        self.flush.signal.lock().gen += 1;
        self.flush.signal_cv.notify_all();
    }

    /// Current disk-write queue length: items not yet durable, whether
    /// still queued or in a drain cycle whose commit has not returned.
    pub fn disk_queue_len(&self) -> u64 {
        self.flush.dirty_count.get()
    }

    /// Run one drain cycle: every dirty vBucket of the engine goes to the
    /// storage engine under one group commit (the flusher's cycle, and
    /// synchronous persistence for tests and single-threaded callers).
    /// Each listed queue is snapshotted and its documents' bytes copied
    /// straight into the cycle's record buffer, which goes to the log every
    /// [`CYCLE_SLICE`] bytes, unsynced and unindexed; the commit appends
    /// the rest and issues the cycle's **single** `sync_data` — the
    /// durability point for the whole cycle, and the only copy written.
    /// Only then are the records indexed, the items marked clean and
    /// `persisted_seqno` advanced, in that order: `backfill` copies the
    /// cache first and lists the index second, and only clean items are
    /// evicted, so an item must never be clean-but-unindexed — that
    /// ordering pair is what keeps stream open race-free against a
    /// concurrent drain. Returns the number of items persisted.
    pub fn flush_once(&self) -> Result<u64> {
        let sh = &self.flush;
        // The root of the flusher thread's segment (a child span when a
        // traced caller flushes synchronously): a slow drain cycle is kept
        // with its log append, group-commit fsync and indexing as
        // children. Idle wake-ups have nothing to explain.
        let _trace = (sh.dirty_count.get() > 0).then(|| self.trace("kv.flusher.cycle"));
        let _flush = sh.flush_lock.lock();
        let mut dirty_vbs = std::mem::take(&mut sh.signal.lock().dirty_vbs).into_iter();
        let mut cycle = Cycle::new();
        let mut snapshots: Vec<DirtySnapshot> = Vec::new();
        // Trace contexts persisted by this cycle: each gets one
        // `kv.flusher.wal_commit` span covering the group commit.
        let mut traced: Vec<TraceContext> = Vec::new();
        let mut batch = Vec::new();
        let mut filled = Ok(());
        for vb in dirty_vbs.by_ref() {
            // Snapshot the queue and the high seqno atomically w.r.t.
            // writers (both sides take the vb mutex).
            let (mut keys, mut ctxs, mut high) = {
                let mut meta = self.vbs[vb.index()].lock();
                let ctxs = std::mem::take(&mut meta.ctxs);
                (std::mem::take(&mut meta.queue), ctxs, self.high_seqno(vb))
            };
            if keys.is_empty() {
                continue; // listed twice, or purged since
            }
            #[cfg(test)]
            tests::flusher_at("snapshot");
            let listed = keys.len() as u64;
            // Take each key from its entry, which clears its queued bit: the
            // version written is the one the entry holds now — a write since
            // the snapshot found the bit set and was de-duplicated into it.
            // Only the keys taken stay in the snapshot; gone ⇒ purged,
            // clean ⇒ persisted already, not queued ⇒ listed twice.
            let mut newest = SeqNo::ZERO;
            keys.retain(|key| match self.cache.take_item(vb, key) {
                Some((meta, value, deleted)) if deleted || value.is_some() => {
                    newest = newest.max(meta.seqno);
                    batch.push((meta, value.filter(|_| !deleted), batch.len()));
                    true
                }
                _ => false,
            });
            if newest > high {
                // A write de-duplicated into this cycle after its snapshot.
                // If nothing has been queued since, every seqno up to the
                // vBucket's high is in this cycle or an earlier one; if
                // something has, the vBucket is listed, and the next cycle's
                // snapshot covers the write.
                let mut meta = self.vbs[vb.index()].lock();
                if meta.queue.is_empty() {
                    high = self.high_seqno(vb);
                }
                // Such a write's trace context went to the queue's map; the
                // version is this cycle's, and so is the commit span. A key
                // queued again since its take keeps its context.
                if !meta.ctxs.is_empty() {
                    let VbMeta { queue, ctxs: queued_ctxs, .. } = &mut *meta;
                    queued_ctxs.retain(|key, ctx| {
                        if queue.contains(key) {
                            return true;
                        }
                        ctxs.insert(key.clone(), *ctx);
                        false
                    });
                }
            }
            // By seqno, so that whatever prefix of the cycle survives a
            // crash is a seqno prefix of each vBucket, even with
            // de-duplicated, map-ordered drains.
            batch.sort_by_key(|(meta, ..)| meta.seqno);
            for (meta, value, i) in batch.drain(..) {
                let key = &keys[i];
                if let Some(ctx) = ctxs.get(key.as_str()) {
                    traced.push(*ctx);
                }
                let json = value.as_ref().map_or(&[][..], |v| v.json());
                // A refused key is unreachable while every entry point
                // checks its key.
                filled = cycle.push(vb, key, &meta, value.is_none(), json);
                if filled.is_ok() && cycle.buffered_bytes() >= CYCLE_SLICE {
                    filled = self.store.append_slice(&mut cycle);
                }
                if filled.is_err() {
                    break;
                }
            }
            snapshots.push(DirtySnapshot { vb, keys, ctxs, listed, high });
            if filled.is_err() {
                break;
            }
        }
        if let Err(e) = filled {
            // Nothing of the cycle stays in the log; its keys go back, and
            // the vBuckets it did not reach stay listed.
            self.store.abandon(&mut cycle);
            sh.signal.lock().dirty_vbs.extend(dirty_vbs);
            self.requeue(snapshots);
            return Err(e);
        }

        if !cycle.is_empty() {
            let commit_start = (self.cfg.trace.is_some() && !traced.is_empty()).then(Instant::now);
            match self.store.commit(&mut cycle) {
                Ok(fsync) => self.stats.fsync_latency.record(fsync),
                Err(e) => {
                    self.requeue(snapshots);
                    return Err(e);
                }
            }
            if let (Some(sink), Some(start)) = (&self.cfg.trace, commit_start) {
                let end = Instant::now();
                for ctx in &traced {
                    sink.record_span("kv.flusher.wal_commit", *ctx, start, end);
                }
            }
            for (vb, key, seqno) in cycle.records() {
                self.cache.mark_clean(vb, key, seqno);
            }
            self.stats.flushed.add(cycle.len() as u64);
        } else if let Err(e) = self.store.sync_pending() {
            // Nothing to commit, but a purge marker awaited its sync.
            self.requeue(snapshots);
            return Err(e);
        }
        // Only now do the snapshotted keys leave the gauge: a reader of
        // `disk_queue_len() == 0` may conclude that everything is durable.
        self.persisted.advance_all(snapshots.iter().map(|s| (s.vb, s.high)));
        sh.dirty_count.sub(snapshots.iter().map(|s| s.listed).sum());
        Ok(cycle.len() as u64)
    }

    /// A cycle's commit failed: queue every key it took again — each
    /// exactly once, skipping any a newer write has queued — and list its
    /// vBuckets again, so the items are retried instead of stranded
    /// dirty-but-unqueued, which would hang `wait_persisted` callers
    /// forever. The gauge keeps counting the keys queued again; the rest
    /// (queued by a newer write, which counted them anew, or not taken)
    /// leave it.
    fn requeue(&self, snapshots: Vec<DirtySnapshot>) {
        #[cfg(test)]
        tests::flusher_at("requeue");
        let mut left = 0u64;
        let mut vbs = Vec::with_capacity(snapshots.len());
        for DirtySnapshot { vb, keys, ctxs, listed, .. } in snapshots {
            let mut meta = self.vbs[vb.index()].lock();
            let before = meta.queue.len();
            for key in keys {
                if self.cache.requeue(vb, &key) {
                    meta.queue.push(key);
                }
            }
            left += listed - (meta.queue.len() - before) as u64;
            for (key, ctx) in ctxs {
                if !meta.ctxs.contains_key(&key) {
                    meta.ctxs.insert(key, ctx);
                }
            }
            vbs.push(vb);
        }
        self.flush.dirty_count.sub(left);
        self.flush.signal.lock().dirty_vbs.extend(vbs);
    }

    /// The expiry pager: sweep resident metadata for expired documents and
    /// reap them (publishing DCP expirations so indexes and replicas drop
    /// them too). Complements lazy on-access expiry — without the pager an
    /// expired-but-never-read document would linger in views/GSIs. Each
    /// active vBucket's table is walked once and only what has expired is
    /// copied out, so a sweep that finds nothing allocates nothing. Returns
    /// the number of documents expired.
    pub fn run_expiry_pager(&self) -> usize {
        let now = now_secs();
        let mut reaped = 0;
        for vb in (0..self.cfg.num_vbuckets).map(VbId) {
            if self.vb_state(vb) != VbState::Active {
                continue;
            }
            for (key, meta) in self.cache.expired(vb, now) {
                self.lazy_expire(vb, &key, meta);
                reaped += 1;
            }
        }
        reaped
    }

    /// Compact the log if its stale fraction has reached the threshold
    /// (§4.3.3: "Compaction is periodically run, based on a fragmentation
    /// threshold"); returns whether it ran. Readers carry on throughout;
    /// drain cycles wait.
    pub fn compact_if_needed(&self) -> Result<bool> {
        let _flush = self.flush.flush_lock.lock();
        // lint:allow(guard-blocking): the compaction swap (new file renamed
        // over the log) must exclude appends — records written while the
        // live ones are copied would be lost with the old file.
        self.store.compact(BucketStore::FRAGMENTATION_THRESHOLD)
    }

    /// Per-vBucket operational snapshot (state, seqnos, queue depth) for
    /// the cbstats surface.
    pub fn vbucket_stats(&self) -> Vec<crate::types::VbucketStats> {
        (0..self.cfg.num_vbuckets)
            .map(VbId)
            .map(|vb| {
                let meta = self.vbs[vb.index()].lock();
                crate::types::VbucketStats {
                    vb,
                    state: meta.state,
                    high_seqno: self.high_seqno(vb),
                    persisted_seqno: self.persisted_seqno(vb),
                    queued_items: meta.queue.len() as u64,
                }
            })
            .collect()
    }

    /// Storage stats per vBucket with an index. Their `file_bytes`,
    /// `stale_bytes` and `compactions` sum to the bytes in the log, the
    /// stale bytes in it and the compactions run.
    pub fn storage_stats(&self) -> Vec<(VbId, cbs_storage::StoreStats)> {
        self.store
            .open_vbs()
            .into_iter()
            .filter_map(|vb| self.store.vb(vb).ok().map(|s| (vb, s.stats())))
            .collect()
    }

    // ------------------------------------------------------------------
    // Scans (PrimaryScan support for N1QL, initial index builds)
    // ------------------------------------------------------------------

    /// Number of live documents — no tombstones, nothing expired — in the
    /// `Active` vBuckets, from metadata alone: the cache's, and under full
    /// eviction the storage index's for entries evicted whole (whose TTL,
    /// not being indexed, counts as not yet passed).
    pub fn active_doc_count(&self) -> Result<usize> {
        let now = now_secs();
        let full = self.cache.policy() == EvictionPolicy::Full;
        let mut count = 0;
        for vb in self.vbs_in_state(VbState::Active) {
            let persisted = if full { self.store.vb(vb)?.live_keys() } else { Vec::new() };
            count += self.cache.live_count(vb, now, persisted.iter().map(DocKey::as_str));
        }
        Ok(count)
    }
}

/// Memory-first backfill (§4.3.2): the vBucket's cache shard, and from the
/// log only the records of what the cache no longer holds.
impl BackfillSource for DataEngine {
    fn backfill(&self, vb: VbId, since: SeqNo) -> Result<(Vec<DcpItem>, SeqNo)> {
        // The resume point is read before anything else: every seqno at or
        // below it names a version the cache had admitted by then, which
        // the snapshot below returns or supersedes. The newest seqno the
        // snapshot happens to return is no such point: a value-evicted key
        // rewritten and persisted between the cache copy and the log read
        // comes back newer than writes to other keys made in between.
        let high = self.high.get(vb).max(since);
        // Snapshot order matters: cache FIRST, storage index SECOND. The
        // flusher indexes a record before `mark_clean` and eviction drops
        // only clean values (clean entries, under full eviction), so what
        // the cache copy holds without its value, or no longer holds, is in
        // the index listed afterwards — never in neither. The reverse order
        // can miss a version persisted and evicted between the two: not yet
        // in the listing, no longer in the copy.
        let entries = self.cache.snapshot_vb(vb, since);
        let mut items = Vec::with_capacity(entries.len());
        let mut evicted: Vec<DocKey> = Vec::new();
        for entry in entries {
            match (entry.deleted, entry.value) {
                (true, _) => items.push(DcpItem::deletion(vb, entry.key, entry.meta)),
                (false, Some(value)) => {
                    items.push(DcpItem::mutation(vb, entry.key, entry.meta, value));
                }
                (false, None) => evicted.push(entry.key),
            }
        }
        let from_memory = items.len();
        #[cfg(test)]
        backfill_equivalence::between_copy_and_log_read();
        // A record may be newer than the entry it is read for (a write
        // persisted since the copy): it is then the key's latest version.
        let records = if self.cache.policy() == EvictionPolicy::Full {
            // Whole entries go too: every indexed key the copy did not supply.
            let held: HashSet<&str, KeyHash> = items.iter().map(|i| i.key.as_str()).collect();
            self.store.vb(vb)?.locate_since(since, |key| !held.contains(key)).read()?
        } else if evicted.is_empty() {
            Vec::new()
        } else {
            self.store.vb(vb)?.locate(evicted.iter().map(DocKey::as_str)).read()?
        };
        items.extend(records.into_iter().map(|doc| stored_to_item(vb, doc)));
        self.stats.backfill_from_memory.add(from_memory as u64);
        self.stats.backfill_from_disk.add((items.len() - from_memory) as u64);
        items.sort_unstable_by_key(|i| i.meta.seqno);
        Ok((items, high))
    }
}

/// A replica copy (§4.1.1) as a DCP sink: `Replica`/`Pending` vBuckets
/// only, one vBucket-lock pass per vBucket of a batch; the resume point is
/// the high seqno.
impl DcpSink for DataEngine {
    fn apply(&self, items: &[DcpItem], upto: &[(VbId, SeqNo)]) -> Result<()> {
        // The batch sorted by vBucket, each vBucket's run found by binary
        // search: the sort is stable, so a run keeps its order, and a
        // pump's batch, sorted already, costs one pass.
        let mut by_vb: Vec<&DcpItem> = items.iter().collect();
        by_vb.sort_by_key(|item| item.vb);
        let mut result = Ok(());
        for &(vb, mark) in upto {
            let from = by_vb.partition_point(|item| item.vb < vb);
            let run = &by_vb[from..][..by_vb[from..].partition_point(|item| item.vb == vb)];
            let mut meta = self.vbs[vb.index()].lock();
            let applied = match meta.state {
                VbState::Replica | VbState::Pending => {
                    run.iter().try_for_each(|item| self.replicate_one(&mut meta, item))
                }
                _ => Err(Error::VbucketNotActive(vb)),
            };
            match applied {
                Ok(()) => self.high.advance(vb, mark),
                Err(e) => result = Err(e),
            }
        }
        result
    }

    fn resume_point(&self, vb: VbId) -> Option<SeqNo> {
        Some(self.high.get(vb))
    }
}

#[cfg(test)]
impl DataEngine {
    /// The disk-first backfill this engine used to run — every persisted
    /// record read, decoded and parsed, merged with the dirty tail, latest
    /// version per key — kept as the oracle `backfill_equivalence` compares
    /// [`BackfillSource::backfill`] against. Quiescent callers only.
    fn backfill_disk_first(&self, vb: VbId, since: SeqNo) -> Result<(Vec<DcpItem>, SeqNo)> {
        let dirty: Vec<_> = self
            .cache
            .keys(vb)
            .into_iter()
            .filter_map(|key| match self.cache.peek_item(vb, &key)? {
                (meta, value, deleted, true) => Some((key, meta, deleted, value)),
                _ => None,
            })
            .collect();
        let stored = self.store.vb(vb)?.changes_since(since)?;
        let mut high = since;
        let mut latest: KeyMap<DcpItem> = KeyMap::default();
        let mut merge = |item: DcpItem| match latest.get(&item.key) {
            Some(existing) if existing.meta.seqno >= item.meta.seqno => {}
            _ => {
                latest.insert(item.key.clone(), item);
            }
        };
        for doc in stored {
            high = high.max(doc.meta.seqno);
            merge(stored_to_item(vb, doc));
        }
        for (key, meta, deleted, value) in dirty {
            high = high.max(meta.seqno);
            if meta.seqno <= since {
                continue;
            }
            merge(if deleted {
                DcpItem::deletion(vb, key, meta)
            } else {
                let value = value.unwrap_or_else(|| SharedValue::new(Value::Null));
                DcpItem::mutation(vb, key, meta, value)
            });
        }
        let mut items: Vec<DcpItem> = latest.into_values().collect();
        items.sort_by_key(|i| i.meta.seqno);
        Ok((items, high))
    }
}

/// A record read from the log as a DCP item, its bytes wrapped as read.
fn stored_to_item(vb: VbId, doc: StoredDoc) -> DcpItem {
    if doc.deleted {
        DcpItem::deletion(vb, doc.key, doc.meta)
    } else {
        DcpItem::mutation(vb, doc.key, doc.meta, SharedValue::from_json(doc.value))
    }
}

/// XDCR conflict resolution (§4.6.1): higher rev (update count) wins; ties
/// broken by CAS, then expiry, then flags — the identical deterministic
/// rule on both clusters.
fn incoming_wins(incoming: &DocMeta, existing: &DocMeta) -> bool {
    (incoming.rev, incoming.cas, incoming.expiry, incoming.flags)
        > (existing.rev, existing.cas, existing.expiry, existing.flags)
}

#[cfg(test)]
mod backfill_equivalence;

#[cfg(test)]
mod tests {
    use super::*;

    /// One replicated item, applied up to its own seqno.
    fn replicate(e: &DataEngine, item: &DcpItem) -> Result<()> {
        e.apply(std::slice::from_ref(item), &[(item.vb, item.meta.seqno)])
    }

    type Hook = Option<Box<dyn Fn(&str)>>;

    thread_local! {
        /// Run by `flush_once` on this thread, with no lock but the flush
        /// lock held, at two points: `"snapshot"`, between a vBucket's queue
        /// snapshot and its takes, and `"requeue"`, between a failed
        /// cycle's takes and its requeue.
        static FLUSHER_HOOK: std::cell::RefCell<Hook> = const { std::cell::RefCell::new(None) };
    }

    pub(super) fn flusher_at(point: &str) {
        FLUSHER_HOOK.with_borrow(|hook| hook.as_ref().map(|hook| hook(point)));
    }

    fn engine() -> Arc<DataEngine> {
        let e = DataEngine::new(EngineConfig::for_test(16)).unwrap();
        e.activate_all();
        e
    }

    fn doc(v: i64) -> Value {
        Value::object([("v", Value::int(v))])
    }

    /// A fresh feed subscribed to `vb` after `since`.
    fn feed_from(e: &DataEngine, vb: VbId, since: SeqNo) -> DcpFeed {
        let feed = DcpFeed::default();
        e.subscribe_dcp(&feed, vb, since).unwrap();
        feed
    }

    /// Every item queued on `feed` now.
    fn queued(feed: &DcpFeed) -> Vec<DcpItem> {
        let mut out = Vec::new();
        feed.drain(Some(Deadline::after(Duration::ZERO)), &mut out);
        out
    }

    #[test]
    fn upsert_get_roundtrip() {
        let e = engine();
        let m = e.set("user::1", doc(1), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        assert_eq!(m.seqno, SeqNo(1));
        let g = e.get("user::1").unwrap();
        assert_eq!(g.value, doc(1));
        assert_eq!(g.meta.cas, m.cas);
        assert_eq!(g.meta.rev, RevNo(1));
    }

    #[test]
    fn insert_and_replace_modes() {
        let e = engine();
        e.set("k", doc(1), MutateMode::Insert, Cas::WILDCARD, 0).unwrap();
        assert!(matches!(
            e.set("k", doc(2), MutateMode::Insert, Cas::WILDCARD, 0),
            Err(Error::KeyExists(_))
        ));
        assert!(matches!(
            e.set("absent", doc(1), MutateMode::Replace, Cas::WILDCARD, 0),
            Err(Error::KeyNotFound(_))
        ));
        e.set("k", doc(2), MutateMode::Replace, Cas::WILDCARD, 0).unwrap();
        assert_eq!(e.get("k").unwrap().value, doc(2));
        // Delete then insert succeeds (tombstone is not "live").
        e.delete("k", Cas::WILDCARD).unwrap();
        e.set("k", doc(3), MutateMode::Insert, Cas::WILDCARD, 0).unwrap();
    }

    #[test]
    fn cas_optimistic_locking_flow() {
        // The exact client flow from §3.1.1.
        let e = engine();
        e.set("k", doc(1), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        let read = e.get("k").unwrap();
        // Another client sneaks in a write.
        e.set("k", doc(99), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        // Original client's CAS-checked update fails.
        let err = e.set("k", doc(2), MutateMode::Upsert, read.meta.cas, 0).unwrap_err();
        assert!(matches!(err, Error::CasMismatch(_)));
        // Client re-reads and retries: succeeds.
        let read2 = e.get("k").unwrap();
        e.set("k", doc(2), MutateMode::Upsert, read2.meta.cas, 0).unwrap();
        assert_eq!(e.get("k").unwrap().value, doc(2));
    }

    #[test]
    fn cas_checked_delete() {
        let e = engine();
        let m = e.set("k", doc(1), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        assert!(matches!(e.delete("k", Cas(12345)), Err(Error::CasMismatch(_))));
        e.delete("k", m.cas).unwrap();
        assert!(matches!(e.get("k"), Err(Error::KeyNotFound(_))));
        assert!(matches!(e.delete("k", Cas::WILDCARD), Err(Error::KeyNotFound(_))));
    }

    #[test]
    fn getl_hard_lock() {
        let e = engine();
        e.set("k", doc(1), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        let locked = e.get_and_lock("k", Some(Duration::from_secs(5))).unwrap();
        // Second lock attempt fails.
        assert!(matches!(e.get_and_lock("k", None), Err(Error::Locked(_))));
        // Unchecked write fails while locked.
        assert!(matches!(
            e.set("k", doc(2), MutateMode::Upsert, Cas::WILDCARD, 0),
            Err(Error::Locked(_))
        ));
        // Write with the lock token succeeds and releases the lock.
        e.set("k", doc(2), MutateMode::Upsert, locked.meta.cas, 0).unwrap();
        e.set("k", doc(3), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
    }

    #[test]
    fn getl_lock_expires() {
        let e = engine();
        e.set("k", doc(1), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        e.get_and_lock("k", Some(Duration::from_millis(30))).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        // Lock timed out: plain write allowed again (§3.1.1 deadlock avoidance).
        e.set("k", doc(2), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
    }

    #[test]
    fn unlock_with_token() {
        let e = engine();
        e.set("k", doc(1), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        let locked = e.get_and_lock("k", Some(Duration::from_secs(5))).unwrap();
        assert!(matches!(e.unlock("k", Cas(1)), Err(Error::Locked(_))));
        e.unlock("k", locked.meta.cas).unwrap();
        e.set("k", doc(2), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        assert!(e.unlock("k", locked.meta.cas).is_err(), "lock already gone");
    }

    #[test]
    fn ttl_expiry_is_lazy() {
        let e = engine();
        // Expiry in the past: immediately expired.
        e.set("k", doc(1), MutateMode::Upsert, Cas::WILDCARD, now_secs() - 1).unwrap();
        assert!(matches!(e.get("k"), Err(Error::KeyNotFound(_))));
        assert_eq!(e.stats().expirations.get(), 1);
        // Future expiry: alive.
        e.set("k2", doc(2), MutateMode::Upsert, Cas::WILDCARD, now_secs() + 1000).unwrap();
        assert!(e.get("k2").is_ok());
        // touch() updates expiry.
        e.touch("k2", now_secs() - 1).unwrap();
        assert!(matches!(e.get("k2"), Err(Error::KeyNotFound(_))));
    }

    #[test]
    fn writes_to_non_active_vb_rejected() {
        let e = DataEngine::new(EngineConfig::for_test(16)).unwrap();
        // All vbs Dead by default.
        assert!(matches!(
            e.set("k", doc(1), MutateMode::Upsert, Cas::WILDCARD, 0),
            Err(Error::VbucketNotActive(_))
        ));
        assert!(matches!(e.get("k"), Err(Error::VbucketNotActive(_))));
        let vb = e.vb_for_key("k");
        e.set_vb_state(vb, VbState::Replica);
        assert!(matches!(
            e.set("k", doc(1), MutateMode::Upsert, Cas::WILDCARD, 0),
            Err(Error::VbucketNotActive(_))
        ));
    }

    #[test]
    fn flush_persists_and_marks_clean() {
        let e = engine();
        let m1 = e.set("a", doc(1), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        let m2 = e.set("b", doc(2), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        assert_eq!(e.disk_queue_len(), 2);
        let n = e.flush_once().unwrap();
        assert_eq!(n, 2);
        assert_eq!(e.disk_queue_len(), 0);
        assert!(e.persisted_seqno(m1.vb) >= m1.seqno);
        assert!(e.persisted_seqno(m2.vb) >= m2.seqno);
        // wait_persisted returns immediately now.
        e.wait_persisted(m1.vb, m1.seqno, Duration::from_millis(10)).unwrap();
    }

    #[test]
    fn repeated_updates_dedup_in_disk_queue() {
        let e = engine();
        for i in 0..10 {
            e.set("hot", doc(i), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        }
        assert_eq!(e.disk_queue_len(), 1, "same key queued once");
        assert_eq!(e.stats().dedup_writes.get(), 9);
        assert_eq!(e.flush_once().unwrap(), 1, "only the latest version hits disk");
        let vb = e.vb_for_key("hot");
        let stored = e.storage_stats().into_iter().find(|(v, _)| *v == vb).unwrap().1;
        assert_eq!(stored.live_docs, 1);
    }

    /// A write that lands between a drain cycle's snapshot of the queue and
    /// its take of the key finds the key still queued: it is de-duplicated
    /// into the cycle, which writes it. A key first written in that window
    /// is queued and counted for the next cycle, which persists the vBucket
    /// past both; alone in the window, the overwrite is persisted with the
    /// vBucket up to it by the cycle it joined — no second cycle is owed.
    #[test]
    fn a_write_between_snapshot_and_take_is_persisted_by_that_cycle() {
        let e = engine();
        let hot = e.set("hot", doc(1), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        let vb = hot.vb;
        let fresh = (0..).map(|i| format!("fresh{i}")).find(|k| e.vb_for_key(k) == vb).unwrap();
        let writes = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let (hook_engine, hook_writes) = (Arc::clone(&e), Arc::clone(&writes));
        FLUSHER_HOOK.set(Some(Box::new(move |_| {
            let mut writes = hook_writes.lock();
            if writes.is_empty() {
                let set = |key: &str, v| {
                    hook_engine.set(key, doc(v), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap()
                };
                writes.push(set("hot", 2));
                let stats = hook_engine.vbucket_stats();
                assert_eq!(stats[vb.index()].queued_items, 0, "the snapshot took the queue");
                writes.push(set(&fresh, 1));
                let stats = hook_engine.vbucket_stats();
                assert_eq!(stats[vb.index()].queued_items, 1, "a new key is queued anew");
            }
        })));
        assert_eq!(e.disk_queue_len(), 1);
        assert_eq!(e.flush_once().unwrap(), 1, "the cycle writes hot's newest version");
        let (overwrite, first) = {
            let writes = writes.lock();
            (writes[0], writes[1])
        };
        assert_eq!(e.stats().dedup_writes.get(), 1, "the overwrite was de-duplicated");
        assert!(hot.seqno < overwrite.seqno && overwrite.seqno < first.seqno);
        // The record is the overwrite, but with the new key queued between
        // them the vBucket counts as persisted only up to the snapshot.
        assert_eq!(e.persisted_seqno(vb), hot.seqno, "the new key waits for its own cycle");
        assert_eq!((e.disk_queue_len(), e.vbucket_stats()[vb.index()].queued_items), (1, 1));
        let stored = e.store.vb(vb).unwrap().get("hot").unwrap().unwrap();
        assert_eq!(stored.meta.seqno, overwrite.seqno);

        assert_eq!(e.flush_once().unwrap(), 1);
        FLUSHER_HOOK.set(None);
        assert_eq!((e.disk_queue_len(), e.vbucket_stats()[vb.index()].queued_items), (0, 0));
        assert_eq!(e.persisted_seqno(vb), e.high_seqno(vb));

        // Alone in the window, the overwrite leaves nothing queued: the
        // cycle persists the vBucket through its seqno, and a waiter on it
        // returns without another cycle.
        e.set("hot", doc(3), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        let late = Arc::new(parking_lot::Mutex::new(None));
        let (hook_engine, hook_late) = (Arc::clone(&e), Arc::clone(&late));
        FLUSHER_HOOK.set(Some(Box::new(move |_| {
            let mut late = hook_late.lock();
            if late.is_none() {
                let v = doc(4);
                *late =
                    Some(hook_engine.set("hot", v, MutateMode::Upsert, Cas::WILDCARD, 0).unwrap());
            }
        })));
        assert_eq!(e.flush_once().unwrap(), 1);
        FLUSHER_HOOK.set(None);
        let late = late.lock().unwrap();
        assert_eq!(e.stats().dedup_writes.get(), 2);
        assert_eq!(e.disk_queue_len(), 0);
        assert_eq!(e.persisted_seqno(vb), late.seqno);
        e.wait_persisted(vb, late.seqno, Duration::ZERO).unwrap();
    }

    /// A traced write de-duplicated into a cycle between its snapshot and
    /// its take is committed under its own trace: its context moves from
    /// the queue's map to the cycle, which files its `kv.flusher.wal_commit`
    /// span, and nothing is left for the next version of the key.
    #[test]
    fn a_traced_write_between_snapshot_and_take_is_committed_under_its_trace() {
        let store = cbs_obs::TraceStore::new();
        store.set_sample_every(1);
        let mut cfg = EngineConfig::for_test(1);
        cfg.trace = Some(cbs_obs::TraceSink::new(Arc::clone(&store), "n0"));
        let e = DataEngine::new(cfg).unwrap();
        e.activate_all();
        e.set("hot", doc(1), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        let traced = Arc::new(parking_lot::Mutex::new(None));
        let (hook_engine, hook_traced, hook_store) =
            (Arc::clone(&e), Arc::clone(&traced), Arc::clone(&store));
        FLUSHER_HOOK.set(Some(Box::new(move |_| {
            let mut traced = hook_traced.lock();
            if traced.is_none() {
                // Off the flusher thread, whose cycle segment is open.
                let (e, store) = (Arc::clone(&hook_engine), Arc::clone(&hook_store));
                *traced = std::thread::spawn(move || {
                    let root = cbs_obs::TraceSink::new(store, "client").mint("client.kv.upsert");
                    e.set("hot", doc(2), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
                    root.ctx()
                })
                .join()
                .unwrap();
            }
        })));
        assert_eq!(e.flush_once().unwrap(), 1);
        FLUSHER_HOOK.set(None);
        let traced = traced.lock().expect("the hook's write was sampled");
        assert_eq!(e.stats().dedup_writes.get(), 1, "the write joined the cycle");
        assert_eq!(e.disk_queue_len(), 0);
        assert!(e.vbs[0].lock().ctxs.is_empty(), "no context left for the next version");
        let commits: Vec<u64> = store
            .completed_traces()
            .iter()
            .filter(|t| t.span("kv.flusher.wal_commit").is_some())
            .map(|t| t.trace_id)
            .collect();
        assert_eq!(commits, [traced.trace_id]);
    }

    /// A failed cycle's requeue races a write to a key it took: the take
    /// cleared the bit, so the write queues the key anew, and the requeue
    /// leaves it listed once and counted once.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_write_between_a_failed_take_and_its_requeue_is_queued_once() {
        let cfg = EngineConfig::for_test(1);
        std::os::unix::fs::symlink("/dev/full", cfg.data_dir.join("shard_0.couch")).unwrap();
        let e = DataEngine::new(cfg).unwrap();
        e.activate_all();
        e.set("a", doc(1), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        let hook_engine = Arc::clone(&e);
        FLUSHER_HOOK.set(Some(Box::new(move |point| {
            if point == "requeue" && hook_engine.stats().sets.get() == 1 {
                hook_engine.set("a", doc(2), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
            }
        })));
        assert!(matches!(e.flush_once(), Err(Error::Io(_))));
        assert_eq!(e.stats().sets.get(), 2, "the hook wrote");
        assert_eq!(e.stats().dedup_writes.get(), 0, "the take had cleared the bit");
        assert_eq!((e.disk_queue_len(), e.vbucket_stats()[0].queued_items), (1, 1));
        assert!(matches!(e.flush_once(), Err(Error::Io(_))));
        FLUSHER_HOOK.set(None);
        assert_eq!((e.disk_queue_len(), e.vbucket_stats()[0].queued_items), (1, 1));
    }

    #[test]
    fn wait_persisted_times_out_without_flusher() {
        let e = engine();
        let m = e.set("a", doc(1), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        let err = e.wait_persisted(m.vb, m.seqno, Duration::from_millis(40)).unwrap_err();
        assert!(matches!(err, Error::Timeout(_)));
    }

    /// A purge resets the vBucket's watermarks: a waiter on the old lineage
    /// is not satisfied by what was persisted before, nor by the first
    /// seqnos of the new lineage — it times out at its deadline.
    #[test]
    fn a_waiter_on_a_purged_vbucket_times_out() {
        let e = engine();
        let m = e.set("k", doc(1), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        e.flush_once().unwrap();
        assert_eq!(e.persisted_seqno(m.vb), SeqNo(1));
        let e2 = Arc::clone(&e);
        let waiter = std::thread::spawn(move || {
            let started = Instant::now();
            let waited = e2.wait_persisted(m.vb, SeqNo(2), Duration::from_millis(300));
            (waited, started.elapsed())
        });
        while e.persisted.waiters() == 0 {
            std::thread::yield_now();
        }
        e.purge_vb(m.vb).unwrap();
        assert_eq!(e.persisted_seqno(m.vb), SeqNo::ZERO);
        // The vBucket starts over; its first write persists as seqno 1.
        e.set_vb_state(m.vb, VbState::Active);
        e.set("k", doc(2), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        e.flush_once().unwrap();
        assert_eq!(e.persisted_seqno(m.vb), SeqNo(1));
        let (waited, took) = waiter.join().unwrap();
        assert!(matches!(waited, Err(Error::Timeout(_))), "{waited:?}");
        assert!(took >= Duration::from_millis(300) && took < Duration::from_secs(5), "{took:?}");
        assert_eq!(e.persisted.waiters(), 0);
    }

    /// A key longer than a record's `u16` length field is refused at every
    /// entry point that could write one, before anything changes.
    #[test]
    fn over_long_key_is_rejected_before_anything_changes() {
        let e = engine();
        let key = "k".repeat(70_000);
        let vb = e.vb_for_key(&key);
        let too_long = Err(Error::KeyTooLong(70_000));
        let meta = DocMeta { seqno: SeqNo(5), cas: Cas(1), rev: RevNo(1), flags: 0, expiry: 0 };

        let set = e.set(&key, doc(1), MutateMode::Upsert, Cas::WILDCARD, 0);
        assert_eq!(set.map(|_| ()), too_long);
        assert_eq!(e.delete(&key, Cas::WILDCARD).map(|_| ()), too_long);
        assert_eq!(e.set_with_meta(&key, meta, Some(doc(1).into()), false).map(|_| ()), too_long);
        e.set_vb_state(vb, VbState::Replica);
        assert_eq!(replicate(&e, &DcpItem::mutation(vb, key.as_str(), meta, doc(1))), too_long);
        e.set_vb_state(vb, VbState::Active);

        assert!(e.cache.peek_meta(vb, &key).is_none(), "nothing cached");
        assert_eq!(e.disk_queue_len(), 0, "nothing queued");
        assert_eq!(e.high_seqno(vb), SeqNo::ZERO, "no seqno allocated or applied");
        assert_eq!(e.flush_once().unwrap(), 0);
        // The longest representable key is fine, end to end.
        let longest = "k".repeat(cbs_storage::MAX_KEY_LEN);
        e.set(&longest, doc(2), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        assert_eq!(e.flush_once().unwrap(), 1);
        assert_eq!(e.get(&longest).unwrap().value, doc(2));
    }

    /// A value past [`cbs_common::MAX_VALUE_LEN`] is refused at every
    /// entry point that admits a body, with nothing stored; the largest
    /// value commits, and after a restart reads back with the write that
    /// followed it.
    #[test]
    fn a_value_past_the_limit_is_refused_and_the_largest_survives_a_restart() {
        use cbs_common::MAX_VALUE_LEN;
        let cfg = EngineConfig::for_test(16);
        let dir = cfg.data_dir.clone();
        // A JSON string: its two quotes make the encoding 2 bytes longer.
        let sized = |len: usize| SharedValue::new(Value::from("x".repeat(len - 2)));
        let (largest, over) = (sized(MAX_VALUE_LEN), sized(MAX_VALUE_LEN + 1));
        let vb;
        {
            let e = DataEngine::new(cfg).unwrap();
            e.activate_all();
            vb = e.set("big", doc(1), MutateMode::Insert, Cas::WILDCARD, 0).unwrap().vb;
            let refused = Err(Error::ValueTooLarge(MAX_VALUE_LEN + 1));
            for (key, mode) in [
                ("big", MutateMode::Upsert),
                ("big", MutateMode::Replace),
                ("new", MutateMode::Insert),
                ("new", MutateMode::Upsert),
            ] {
                let set = e.set(key, over.clone(), mode, Cas::WILDCARD, 0);
                assert_eq!(set.map(|_| ()), refused, "{key} {mode:?}");
            }
            let remote = DocMeta { rev: RevNo(9), ..DocMeta::default() };
            assert_eq!(e.set_with_meta("big", remote, Some(over), false).map(|_| ()), refused);
            assert_eq!(e.high_seqno(vb), SeqNo(1), "no seqno allocated");
            assert!(e.cache.peek_meta(e.vb_for_key("new"), "new").is_none(), "nothing cached");
            assert_eq!(e.get("big").unwrap().value, doc(1));

            e.set("big", largest.clone(), MutateMode::Replace, Cas::WILDCARD, 0).unwrap();
            e.flush_once().unwrap();
            e.set("after", doc(2), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
            e.flush_once().unwrap();
        }
        let mut cfg = EngineConfig::for_test(16);
        cfg.data_dir = dir;
        let e = DataEngine::new(cfg).unwrap();
        for vb in [vb, e.vb_for_key("after")] {
            e.recover_vb(vb).unwrap();
            e.set_vb_state(vb, VbState::Active);
        }
        assert_eq!(e.get("big").unwrap().value.json(), largest.json());
        assert_eq!(e.get("after").unwrap().value, doc(2));
    }

    /// A vBucket's seqnos end at [`SeqNo::MAX`]: once its high seqno is
    /// there, every write is refused with nothing changed, and the version
    /// at the last seqno is still served.
    #[test]
    fn a_vbucket_at_the_last_seqno_refuses_writes() {
        let e = DataEngine::new(EngineConfig::for_test(16)).unwrap();
        let vb = e.vb_for_key("k");
        e.set_vb_state(vb, VbState::Replica);
        let last = DocMeta { seqno: SeqNo::MAX, cas: Cas(5), rev: RevNo(5), flags: 0, expiry: 0 };
        replicate(&e, &DcpItem::mutation(vb, "k", last, doc(1))).unwrap();
        e.set_vb_state(vb, VbState::Active);
        assert_eq!(e.high_seqno(vb), SeqNo::MAX);

        let refused = Err(Error::SeqNoOutOfRange(SeqNo::MAX.0 + 1));
        let set = e.set("k", doc(2), MutateMode::Upsert, Cas::WILDCARD, 0);
        assert_eq!(set.map(|_| ()), refused);
        assert_eq!(e.delete("k", Cas::WILDCARD).map(|_| ()), refused);
        let remote = DocMeta { rev: RevNo(9), ..DocMeta::default() };
        assert_eq!(e.set_with_meta("k", remote, Some(doc(3).into()), false).map(|_| ()), refused);
        assert_eq!(e.high_seqno(vb), SeqNo::MAX);
        assert_eq!(e.get("k").unwrap().meta, last);
        // The last version persists like any other.
        e.flush_once().unwrap();
        assert_eq!(e.persisted_seqno(vb), SeqNo::MAX);
    }

    #[test]
    fn dcp_feed_sees_memory_first_writes() {
        let e = engine();
        e.set("a", doc(1), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        let vb = e.vb_for_key("a");
        // No flush has run: the write exists only in memory.
        let feed = feed_from(&e, vb, SeqNo::ZERO);
        let items = queued(&feed);
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].key, "a");
        // Live tail after the subscription.
        if e.vb_for_key("c") == vb {
            e.set("c", doc(3), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
            assert_eq!(queued(&feed).len(), 1);
        }
    }

    #[test]
    fn dcp_backfill_merges_disk_and_memory() {
        let e = engine();
        e.set("a", doc(1), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        e.flush_once().unwrap();
        e.set("a", doc(2), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap(); // dirty overwrite
        let vb = e.vb_for_key("a");
        let (items, high) = e.backfill(vb, SeqNo::ZERO).unwrap();
        assert_eq!(items.len(), 1, "one latest version of 'a'");
        assert_eq!(items[0].value.as_ref().unwrap(), &doc(2));
        assert_eq!(high, SeqNo(2));
    }

    /// A write the cache refuses takes no seqno: with the quota full of
    /// dirty items and no flusher, a refused `set` and a refused
    /// `set_with_meta` leave the high seqno where it was, and the next
    /// accepted write takes the one after it.
    #[test]
    fn a_refused_write_takes_no_seqno() {
        let mut cfg = EngineConfig::for_test(1);
        cfg.cache_quota = 64 << 10;
        let e = DataEngine::new(cfg).unwrap();
        e.activate_all();
        let (vb, pad) = (VbId(0), || Value::from("x".repeat(1_000)));
        let mut written = 0;
        let refused = loop {
            match e.set(&format!("k{written}"), pad(), MutateMode::Upsert, Cas::WILDCARD, 0) {
                Ok(_) => written += 1,
                Err(err) => break err,
            }
            assert!(written < 10_000, "the quota never filled");
        };
        assert!(matches!(refused, Error::TempOom), "{refused:?}");
        let high = e.high_seqno(vb);
        assert_eq!(high, SeqNo(written));
        let incoming = DocMeta { rev: RevNo(3), ..DocMeta::default() };
        let xdcr = e.set_with_meta("remote", incoming, Some(SharedValue::new(pad())), false);
        assert!(matches!(xdcr, Err(Error::TempOom)), "{xdcr:?}");
        assert_eq!(e.high_seqno(vb), high);

        e.flush_once().unwrap();
        let next = e.set("k0", doc(1), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        assert_eq!((next.seqno, e.high_seqno(vb)), (high.next(), high.next()));
    }

    #[test]
    fn replica_apply_preserves_meta() {
        let e = DataEngine::new(EngineConfig::for_test(16)).unwrap();
        let vb = VbId(3);
        e.set_vb_state(vb, VbState::Replica);
        let meta = DocMeta { seqno: SeqNo(42), cas: Cas(777), rev: RevNo(5), flags: 1, expiry: 0 };
        replicate(&e, &DcpItem::mutation(vb, "k", meta, doc(1))).unwrap();
        assert_eq!(e.high_seqno(vb), SeqNo(42));
        // Promote and read: metadata identical to the active copy's.
        e.set_vb_state(vb, VbState::Active);
        let g = e.get_in_vb(vb, "k").unwrap();
        assert_eq!(g.meta, meta);
        // Replica apply to an Active vb is rejected.
        assert!(replicate(&e, &DcpItem::mutation(vb, "k2", meta, doc(2))).is_err());
    }

    /// One batch spanning all 1 024 vBuckets, its items interleaved across
    /// them and some vBuckets marked above their newest item: every item
    /// is applied and every resume point lands on its mark.
    #[test]
    fn a_batch_spanning_every_vbucket_moves_each_resume_point_to_its_mark() {
        const VBS: u16 = 1024;
        let e = DataEngine::new(EngineConfig::for_test(VBS)).unwrap();
        let item = |vb: u16, seqno: u64| {
            let meta = DocMeta { seqno: SeqNo(seqno), ..Default::default() };
            DcpItem::mutation(VbId(vb), format!("k{vb}").as_str(), meta, doc(seqno as i64))
        };
        // Seqno 1 of every vBucket from the last down, then seqno 2 of
        // every other one.
        let mut items: Vec<DcpItem> = (0..VBS).rev().map(|vb| item(vb, 1)).collect();
        items.extend((0..VBS).step_by(2).map(|vb| item(vb, 2)));
        let mark = |vb: u16| SeqNo(2 + u64::from(vb % 3));
        let upto: Vec<_> = (0..VBS).map(|vb| (VbId(vb), mark(vb))).collect();
        for vb in 0..VBS {
            e.set_vb_state(VbId(vb), VbState::Replica);
        }
        e.apply(&items, &upto).unwrap();
        for vb in 0..VBS {
            assert_eq!(e.resume_point(VbId(vb)), Some(mark(vb)), "vb {vb}");
            e.set_vb_state(VbId(vb), VbState::Active);
            let newest = if vb % 2 == 0 { 2 } else { 1 };
            assert_eq!(e.get_in_vb(VbId(vb), &format!("k{vb}")).unwrap().value, doc(newest));
        }
    }

    #[test]
    fn xdcr_conflict_resolution() {
        let e = engine();
        e.set("k", doc(1), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap(); // rev 1
        let local = e.get("k").unwrap().meta;

        // Incoming with higher rev wins.
        let winner = DocMeta { rev: RevNo(5), cas: Cas(1), ..local };
        assert!(e.set_with_meta("k", winner, Some(doc(100).into()), false).unwrap());
        assert_eq!(e.get("k").unwrap().value, doc(100));
        assert_eq!(e.get("k").unwrap().meta.rev, RevNo(5));

        // Incoming with lower rev loses.
        let loser = DocMeta { rev: RevNo(2), cas: Cas(u64::MAX), ..local };
        assert!(!e.set_with_meta("k", loser, Some(doc(0).into()), false).unwrap());
        assert_eq!(e.get("k").unwrap().value, doc(100));

        // Equal rev: higher CAS wins.
        let current = e.get("k").unwrap().meta;
        let tie_win = DocMeta { rev: current.rev, cas: Cas(current.cas.0 + 1), ..current };
        assert!(e.set_with_meta("k", tie_win, Some(doc(200).into()), false).unwrap());
        assert_eq!(e.get("k").unwrap().value, doc(200));

        // XDCR deletion.
        let newer = e.get("k").unwrap().meta;
        let del = DocMeta { rev: newer.rev.next(), ..newer };
        assert!(e.set_with_meta("k", del, None, true).unwrap());
        assert!(matches!(e.get("k"), Err(Error::KeyNotFound(_))));
    }

    #[test]
    fn purge_vb_clears_everything() {
        let e = engine();
        e.set("k", doc(1), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        let vb = e.vb_for_key("k");
        e.flush_once().unwrap();
        e.purge_vb(vb).unwrap();
        assert_eq!(e.vb_state(vb), VbState::Dead);
        assert_eq!(e.high_seqno(vb), SeqNo::ZERO);
        e.set_vb_state(vb, VbState::Active);
        assert!(matches!(e.get("k"), Err(Error::KeyNotFound(_))));
    }

    #[test]
    fn purged_vb_is_not_resurrected_by_a_restart() {
        let cfg = EngineConfig::for_test(16);
        let dir = cfg.data_dir.clone();
        let (gone, kept);
        {
            let e = DataEngine::new(cfg).unwrap();
            e.activate_all();
            gone = e.set("k", doc(1), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap().vb;
            // A neighbour in the same log, which must survive.
            let key = (0..).map(|i| format!("n{i}")).find(|k| e.vb_for_key(k) != gone);
            let key = key.unwrap();
            kept = (key.clone(), e.vb_for_key(&key));
            e.set(&key, doc(2), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
            e.flush_once().unwrap();
            // Dirty at the purge: dropped from the queue and the gauge.
            e.set("k", doc(3), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
            e.purge_vb(gone).unwrap();
            assert_eq!(e.disk_queue_len(), 0);
            assert_eq!(e.flush_once().unwrap(), 0);
        }
        let mut cfg2 = EngineConfig::for_test(16);
        cfg2.data_dir = dir;
        let e = DataEngine::new(cfg2).unwrap();
        for vb in [gone, kept.1] {
            e.recover_vb(vb).unwrap();
            e.set_vb_state(vb, VbState::Active);
        }
        assert!(matches!(e.get("k"), Err(Error::KeyNotFound(_))));
        assert_eq!(e.high_seqno(gone), SeqNo::ZERO, "a vBucket created again starts over");
        assert_eq!(e.get(&kept.0).unwrap().value, doc(2));
    }

    #[test]
    fn seqno_vector_tracks_highs() {
        let e = engine();
        let m = e.set("k", doc(1), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        let vec = e.seqno_vector();
        assert_eq!(vec[m.vb.index()], m.seqno);
        assert_eq!(vec.len(), 16);
    }

    #[test]
    fn concurrent_cas_writers_single_winner_per_round() {
        use std::sync::atomic::AtomicU32;
        let e = engine();
        e.set("ctr", doc(0), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        let successes = Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let e = Arc::clone(&e);
            let successes = Arc::clone(&successes);
            handles.push(std::thread::spawn(move || {
                // Each thread does 50 CAS-increment rounds with retries.
                for _ in 0..50 {
                    loop {
                        let cur = e.get("ctr").unwrap();
                        let n = cur.value.get_field("v").unwrap().as_i64().unwrap();
                        match e.set(
                            "ctr",
                            Value::object([("v", Value::int(n + 1))]),
                            MutateMode::Upsert,
                            cur.meta.cas,
                            0,
                        ) {
                            Ok(_) => {
                                successes.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            Err(Error::CasMismatch(_)) => continue,
                            Err(e) => panic!("unexpected {e}"),
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let final_v = e.get("ctr").unwrap().value.get_field("v").unwrap().as_i64().unwrap();
        assert_eq!(final_v, 400, "CAS must make increments atomic");
        assert_eq!(successes.load(Ordering::Relaxed), 400);
    }

    /// One encoding per version: the writer's bytes are what the DCP item
    /// carries, what the active's flusher copies into its cycle and what
    /// the replica copy stores — one allocation, never re-serialised.
    #[test]
    fn a_version_is_encoded_once_and_shared_by_cache_dcp_and_replica() {
        let active = engine();
        let replica = DataEngine::new(EngineConfig::for_test(16)).unwrap();
        let vb = active.vb_for_key("k");
        replica.set_vb_state(vb, VbState::Replica);
        let feed = feed_from(&active, vb, SeqNo::ZERO);
        let written = SharedValue::new(doc(1));
        active.set("k", written.clone(), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        let item = queued(&feed).remove(0);
        replicate(&replica, &item).unwrap();

        let carried = item.value.as_ref().unwrap();
        let cached = |e: &DataEngine| e.cache.peek_item(vb, "k").and_then(|(_, v, ..)| v).unwrap();
        assert!(SharedValue::ptr_eq(&written, carried), "the DCP item carries the writer's bytes");
        assert!(SharedValue::ptr_eq(&cached(&active), carried), "what the active flushes");
        assert!(SharedValue::ptr_eq(&cached(&replica), carried), "what the replica stores");
        for e in [&active, &replica] {
            assert_eq!(e.flush_once().unwrap(), 1);
            let record = e.store.vb(vb).unwrap().get("k").unwrap().unwrap();
            assert_eq!(record.value, *written.json(), "the cycle holds those bytes as they are");
        }
        assert!(!carried.is_decoded() && !cached(&replica).is_decoded());
    }

    /// An engine whose clean values were partly evicted: keys `p0..p39`,
    /// all persisted, about a quarter of them readable only from disk.
    fn partly_evicted() -> Arc<DataEngine> {
        let mut cfg = EngineConfig::for_test(16);
        cfg.cache_quota = 20_000;
        let e = DataEngine::new(cfg).unwrap();
        e.activate_all();
        for i in 0..40 {
            let body = Value::object([("i", Value::int(i)), ("pad", Value::from("x".repeat(400)))]);
            e.set(&format!("p{i}"), body, MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        }
        e.flush_once().unwrap();
        e.cache.evict_to_watermark();
        e
    }

    fn evicted_key(e: &DataEngine) -> String {
        (0..40)
            .map(|i| format!("p{i}"))
            .find(|k| matches!(e.cache.peek_item(e.vb_for_key(k), k), Some((_, None, ..))))
            .unwrap()
    }

    /// A path that only moves a document — a get nobody reads, a
    /// background fetch, a disk backfill, warm-up — decodes nothing.
    #[test]
    fn paths_that_do_not_read_the_body_decode_nothing() {
        let e = partly_evicted();
        let gone = evicted_key(&e);
        let before = SharedValue::decodes_on_this_thread();

        let resident = e.get("p39").unwrap();
        let fetched = e.get(&gone).unwrap();
        assert_eq!(e.stats().bg_fetches.get(), 1);
        assert!(!resident.value.is_decoded() && !fetched.value.is_decoded());
        let disk_before = e.stats().backfill_from_disk.get();
        for vb in 0..16 {
            e.backfill(VbId(vb), SeqNo::ZERO).unwrap();
        }
        assert!(e.stats().backfill_from_disk.get() > disk_before, "some items came from disk");
        let dir = e.config().data_dir.clone();
        drop(e);
        let mut cfg = EngineConfig::for_test(16);
        cfg.data_dir = dir;
        let warm = DataEngine::new(cfg).unwrap();
        for vb in 0..16 {
            warm.recover_vb(VbId(vb)).unwrap();
        }
        assert_eq!(warm.cache_stats().items, 40);
        assert_eq!(SharedValue::decodes_on_this_thread(), before);

        // Reading a body decodes it — in the reader's handle only.
        assert_eq!(
            fetched.value.get_field("i").and_then(Value::as_i64),
            Some(gone[1..].parse().unwrap())
        );
        assert_eq!(SharedValue::decodes_on_this_thread(), before + 1);
    }

    /// Reading a `get` result decodes into the reader's handle: the cached
    /// version stays bytes, and the cache is charged nothing for the tree.
    #[test]
    fn reading_a_get_result_leaves_the_cache_untouched() {
        let e = engine();
        e.set("k", doc(5), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        let used = e.registry().gauge("kv.cache.mem_used").get();
        let got = e.get("k").unwrap();
        assert_eq!(got.value.get_field("v"), Some(&Value::int(5)));
        assert!(got.value.is_decoded());
        let cached = e.cache.peek_item(e.vb_for_key("k"), "k").and_then(|(_, v, ..)| v).unwrap();
        assert!(SharedValue::ptr_eq(&cached, &got.value) && !cached.is_decoded());
        assert_eq!(e.registry().gauge("kv.cache.mem_used").get(), used);
    }

    /// At the default head-sampling rate (1 in 64 entry points) an
    /// unsampled upsert costs the write-behind path no trace work: its DCP
    /// item carries no context, its dirty-queue entry has none, and the
    /// group commit that persists it files no `kv.flusher.wal_commit` span.
    #[test]
    fn an_unsampled_upsert_carries_no_trace_downstream() {
        let store = cbs_obs::TraceStore::new();
        let mut cfg = EngineConfig::for_test(1);
        cfg.trace = Some(cbs_obs::TraceSink::new(Arc::clone(&store), "n0"));
        let e = DataEngine::new(cfg).unwrap();
        e.activate_all();
        let feed = feed_from(&e, VbId(0), SeqNo::ZERO);
        let client = cbs_obs::TraceSink::new(Arc::clone(&store), "client");
        let upsert = |key: &str| {
            let root = client.mint("client.kv.upsert");
            e.set(key, doc(1), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
            root.ctx()
        };
        let sampled = upsert("sampled").expect("the first entry point is sampled");
        assert_eq!(upsert("unsampled"), None, "the second of 64 is not");

        let items = queued(&feed);
        let trace_of = |key: &str| {
            items.iter().find(|i| i.key == key).map(|i| i.trace.map(|ctx| ctx.trace_id))
        };
        assert_eq!(trace_of("sampled"), Some(Some(sampled.trace_id)));
        assert_eq!(trace_of("unsampled"), Some(None));
        {
            let meta = e.vbs[0].lock();
            assert_eq!(
                meta.queue.iter().map(DocKey::as_str).collect::<Vec<_>>(),
                ["sampled", "unsampled"]
            );
            assert_eq!(meta.ctxs.keys().collect::<Vec<_>>(), [&DocKey::from("sampled")]);
        }

        assert_eq!(e.flush_once().unwrap(), 2);
        let commits: Vec<u64> = store
            .completed_traces()
            .iter()
            .filter(|t| t.span("kv.flusher.wal_commit").is_some())
            .map(|t| t.trace_id)
            .collect();
        assert_eq!(commits, [sampled.trace_id], "one commit span, under the sampled write");
    }

    /// A warm-up the quota cannot hold fails loudly: the first refused
    /// version is returned and the seqno counters stay where they were,
    /// instead of `Ok` with documents missing.
    #[test]
    fn warm_up_over_quota_is_refused_not_silently_partial() {
        let cfg = EngineConfig::for_test(1);
        let dir = cfg.data_dir.clone();
        {
            let e = DataEngine::new(cfg).unwrap();
            e.activate_all();
            for i in 0..200 {
                e.set(&format!("k{i}"), doc(i), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
            }
            e.delete("k0", Cas::WILDCARD).unwrap();
            e.flush_once().unwrap();
        }
        // Metadata alone is ~70 bytes a key: 200 keys do not fit in 4 KiB.
        let mut small = EngineConfig::for_test(1);
        small.data_dir = dir.clone();
        small.cache_quota = 4 << 10;
        let e = DataEngine::new(small).unwrap();
        assert_eq!(e.recover_vb(VbId(0)), Err(Error::TempOom));
        assert_eq!(e.high_seqno(VbId(0)), SeqNo::ZERO);
        assert_eq!(e.persisted_seqno(VbId(0)), SeqNo::ZERO);
        drop(e);

        let mut roomy = EngineConfig::for_test(1);
        roomy.data_dir = dir;
        let e = DataEngine::new(roomy).unwrap();
        e.recover_vb(VbId(0)).unwrap();
        e.set_vb_state(VbId(0), VbState::Active);
        assert_eq!(e.high_seqno(VbId(0)), SeqNo(201));
        assert!(matches!(e.get("k0"), Err(Error::KeyNotFound(_))));
        for i in 1..200 {
            assert_eq!(e.get(&format!("k{i}")).unwrap().value, doc(i));
        }
    }

    #[test]
    fn restart_recovery_via_recover_vb() {
        let cfg = EngineConfig::for_test(16);
        let dir = cfg.data_dir.clone();
        let vb;
        {
            let e = DataEngine::new(cfg).unwrap();
            e.activate_all();
            e.set("k", doc(7), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
            vb = e.vb_for_key("k");
            e.flush_once().unwrap();
        }
        // "Restart": new engine over the same directory.
        let mut cfg2 = EngineConfig::for_test(16);
        cfg2.data_dir = dir;
        let e = DataEngine::new(cfg2).unwrap();
        e.recover_vb(vb).unwrap();
        e.set_vb_state(vb, VbState::Active);
        assert_eq!(e.get_in_vb(vb, "k").unwrap().value, doc(7));
        // Seqno counter resumed past the recovered high.
        let m = e.set("k", doc(8), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        assert_eq!(m.seqno, SeqNo(2));
    }
}
