//! The cache proper: per-vBucket hash tables, NRU eviction, memory quota.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use cbs_common::sync::{rank, OrderedRwLock};
use cbs_common::{Cas, DocKey, DocMeta, Error, KeyMap, Result, RevNo, SeqNo, VbId};
use cbs_json::SharedValue;
use cbs_obs::{Counter, Gauge, Registry};

use crate::stats::CacheStats;

/// Which parts of an entry may be evicted under memory pressure (§4.3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// "By default the key and the metadata for every key in the bucket
    /// will be kept in memory, while the associated values can be evicted."
    #[default]
    ValueOnly,
    /// "Users also have the option to enable the eviction of the key and
    /// metadata based on usage."
    Full,
}

/// One cache entry: a document's metadata, its flags and its resident
/// value, packed to 48 bytes so that a `(DocKey, CacheItem)` table entry is
/// 72. The seqno and the four flags share one word ([`SeqFlags`]); the
/// rest of the [`DocMeta`] is kept as it is.
#[derive(Debug, Clone)]
pub struct CacheItem {
    /// The version's seqno and the entry's flags.
    word: SeqFlags,
    cas: Cas,
    rev: RevNo,
    flags: u32,
    expiry: u32,
    /// The version's encoded document (`SharedValue::json`), shared with
    /// every reader that hit this entry, the DCP item that carried it and
    /// the flusher that persists it; `None` when the value has been
    /// evicted.
    value: Option<Bytes>,
}

/// A seqno (at most [`SeqNo::MAX`], 48 bits) and, in the 16 bits above it,
/// an entry's flags.
#[derive(Debug, Clone, Copy)]
struct SeqFlags(u64);

impl SeqFlags {
    /// Tombstone marker: the document is deleted (entry retained until the
    /// deletion is persisted and replicated).
    const DELETED: u64 = 1 << 48;
    /// Not yet persisted by the flusher. Dirty items are never evicted.
    const DIRTY: u64 = 1 << 49;
    /// The key is in its vBucket's disk-write queue, or in a drain cycle's
    /// snapshot of it that has not taken the entry yet: the queue's
    /// de-duplication (§2.3.2). A dirty write sets it; the flusher's
    /// [`ObjectCache::take_item`] clears it.
    const QUEUED: u64 = 1 << 50;
    /// NRU reference bit: set on access, cleared by the eviction clock.
    const REFERENCED: u64 = 1 << 51;

    fn seqno(self) -> SeqNo {
        SeqNo(self.0 & SeqNo::MAX.0)
    }

    fn has(self, flag: u64) -> bool {
        self.0 & flag != 0
    }

    fn set(&mut self, flag: u64, on: bool) {
        if on {
            self.0 |= flag;
        } else {
            self.0 &= !flag;
        }
    }
}

impl CacheItem {
    /// A new version of the document, written as `dirty` or clean and
    /// referenced. A seqno past [`SeqNo::MAX`] has no place in the entry's
    /// word: it is refused, never truncated.
    fn version(
        meta: DocMeta,
        value: Option<Bytes>,
        deleted: bool,
        dirty: bool,
    ) -> Result<CacheItem> {
        if meta.seqno > SeqNo::MAX {
            return Err(Error::SeqNoOutOfRange(meta.seqno.0));
        }
        let mut word = SeqFlags(meta.seqno.0 | SeqFlags::REFERENCED);
        word.set(SeqFlags::DELETED, deleted);
        word.set(SeqFlags::DIRTY, dirty);
        let DocMeta { cas, rev, flags, expiry, .. } = meta;
        Ok(CacheItem { word, cas, rev, flags, expiry, value })
    }

    /// The version's metadata.
    fn meta(&self) -> DocMeta {
        let (cas, rev, flags, expiry) = (self.cas, self.rev, self.flags, self.expiry);
        DocMeta { seqno: self.word.seqno(), cas, rev, flags, expiry }
    }

    /// The entry is a deletion tombstone.
    fn deleted(&self) -> bool {
        self.word.has(SeqFlags::DELETED)
    }

    /// The version is not persisted yet.
    fn dirty(&self) -> bool {
        self.word.has(SeqFlags::DIRTY)
    }

    fn queued(&self) -> bool {
        self.word.has(SeqFlags::QUEUED)
    }

    fn mem_size(&self, key: &str) -> usize {
        // Entry overhead + key + optional resident encoding.
        64 + key.len() + self.value.as_ref().map_or(0, Bytes::len)
    }

    /// A handle on the resident version for a caller: a reference-count
    /// bump, never a decode.
    fn shared(&self) -> Option<SharedValue> {
        self.value.clone().map(SharedValue::from_json)
    }
}

/// One entry as [`ObjectCache::snapshot_vb`] copies it out.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// Document ID.
    pub key: DocKey,
    /// Metadata of the cached version.
    pub meta: DocMeta,
    /// Tombstone marker.
    pub deleted: bool,
    /// The body, aliasing the cached allocation; `None` for a tombstone or
    /// an evicted value.
    pub value: Option<SharedValue>,
}

/// Result of a cache lookup.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheLookup {
    /// Entry resident with its value. The value aliases the cached
    /// allocation — handing it out is a reference-count bump, not a copy.
    Hit { meta: DocMeta, value: SharedValue },
    /// Key and metadata are resident but the value was evicted; the caller
    /// (data service) must fetch the body from the storage engine (a
    /// "background fetch" in ep-engine terms).
    ValueGone { meta: DocMeta },
    /// The key is resident as a deletion tombstone.
    Tombstone { meta: DocMeta },
    /// Nothing resident. Under [`EvictionPolicy::Full`] the document may
    /// still exist on disk; under `ValueOnly` a miss is authoritative.
    Miss,
}

/// One vBucket's hash table.
type Shard = KeyMap<CacheItem>;

/// The object-managed cache for one bucket on one node.
///
/// All counters live in the owning service's [`cbs_obs::Registry`]
/// (`kv.cache.*` metrics); handles are resolved once at construction and
/// recorded lock-free on the hot path.
pub struct ObjectCache {
    shards: Vec<OrderedRwLock<Shard>>,
    policy: EvictionPolicy,
    quota: usize,
    /// The NRU clock's hand: the shard the next eviction sweep visits, so
    /// a pass resumes where the last one stopped instead of re-walking the
    /// shards it already emptied.
    hand: AtomicUsize,
    mem_used: Arc<Gauge>,
    /// `mem.cache_tables.bytes`: what the shards' tables hold on the heap,
    /// moved when a table grows or is cleared.
    table_bytes: Arc<Gauge>,
    items_gauge: Arc<Gauge>,
    resident_gauge: Arc<Gauge>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    tmp_ooms: Arc<Counter>,
}

/// Fraction of quota at which writes start triggering an eviction pass.
const HIGH_WATERMARK: f64 = 0.85;
/// Eviction pass target.
const LOW_WATERMARK: f64 = 0.75;

impl ObjectCache {
    /// Create a cache with one shard per vBucket, registering its metrics
    /// in a private throwaway registry (tests, standalone benches).
    pub fn new(num_vbuckets: u16, quota: usize, policy: EvictionPolicy) -> ObjectCache {
        ObjectCache::new_with_registry(num_vbuckets, quota, policy, &Registry::new("kv"))
    }

    /// Create a cache whose `kv.cache.*` metrics live in `registry` (the
    /// owning data engine's registry).
    pub fn new_with_registry(
        num_vbuckets: u16,
        quota: usize,
        policy: EvictionPolicy,
        registry: &Registry,
    ) -> ObjectCache {
        registry.gauge("kv.cache.quota").set(quota as u64);
        ObjectCache {
            shards: (0..num_vbuckets)
                .map(|_| OrderedRwLock::new(rank::CACHE_SHARD, Shard::default()))
                .collect(),
            policy,
            quota,
            hand: AtomicUsize::new(0),
            mem_used: registry.gauge("kv.cache.mem_used"),
            table_bytes: registry.gauge("mem.cache_tables.bytes"),
            items_gauge: registry.gauge("kv.cache.items"),
            resident_gauge: registry.gauge("kv.cache.resident_items"),
            hits: registry.counter("kv.cache.hits"),
            misses: registry.counter("kv.cache.misses"),
            evictions: registry.counter("kv.cache.evictions"),
            tmp_ooms: registry.counter("kv.cache.tmp_ooms"),
        }
    }

    fn shard(&self, vb: VbId) -> &OrderedRwLock<Shard> {
        &self.shards[vb.index() % self.shards.len()]
    }

    /// Insert or replace an entry (a front-end write: dirty until the
    /// flusher persists it). The entry keeps the version's encoding only —
    /// a handle's decoded tree is dropped here. Fails with `TempOom` when
    /// over quota and no clean items can be evicted to make room.
    ///
    /// `Ok(true)` when a dirty write newly queued the key: the caller then
    /// appends it to the vBucket's disk-write queue. `Ok(false)` when it was
    /// queued already — the write is de-duplicated into the pending one —
    /// or the version is clean.
    pub fn set(
        &self,
        vb: VbId,
        key: &str,
        meta: DocMeta,
        value: impl Into<SharedValue>,
        dirty: bool,
    ) -> Result<bool> {
        let _s = cbs_obs::span("kv.cache.set");
        let value = Some(value.into().into_json());
        self.admit(vb, key, CacheItem::version(meta, value, false, dirty)?)
    }

    /// Record a deletion tombstone (dirty until persisted); returns what
    /// [`ObjectCache::set`] does.
    pub fn delete(&self, vb: VbId, key: &str, meta: DocMeta, dirty: bool) -> Result<bool> {
        self.admit(vb, key, CacheItem::version(meta, None, true, dirty)?)
    }

    /// Admission charges the net growth: the entry being replaced is
    /// credited, so an overwrite that does not grow the cache goes in even
    /// when the quota is full of dirty items. An overwrite under the high
    /// watermark probes the table once.
    fn admit(&self, vb: VbId, key: &str, mut item: CacheItem) -> Result<bool> {
        let add = item.mem_size(key);
        let mut shard = self.shard(vb).write();
        let growth = match shard.get_mut(key) {
            Some(slot) => {
                let growth = add.saturating_sub(slot.mem_size(key));
                if !self.over_high_watermark(growth) {
                    return Ok(self.replace(slot, item, key));
                }
                growth
            }
            None => add,
        };
        if self.over_high_watermark(growth) {
            // An eviction pass takes every shard's lock: release ours first.
            drop(shard);
            self.make_room(growth)?;
            shard = self.shard(vb).write();
        }
        Ok(match shard.get_mut(key) {
            Some(slot) => self.replace(slot, item, key),
            None => {
                let newly = item.dirty();
                item.word.set(SeqFlags::QUEUED, newly);
                self.insert_new(&mut shard, key, item);
                self.mem_used.add(add as u64);
                newly
            }
        })
    }

    /// Add an entry for `key`, which `shard` does not hold, charging what
    /// the table grew by to the tables' gauge.
    fn insert_new(&self, shard: &mut Shard, key: &str, item: CacheItem) {
        let bytes = shard.heap_bytes();
        shard.insert(DocKey::from(key), item);
        let grown = shard.heap_bytes() - bytes;
        if grown > 0 {
            self.table_bytes.add(grown as u64);
        }
    }

    /// Put `item` in `slot`, which keeps its queued bit; returns whether the
    /// write newly queued the key.
    fn replace(&self, slot: &mut CacheItem, mut item: CacheItem, key: &str) -> bool {
        let newly = item.dirty() && !slot.queued();
        item.word.set(SeqFlags::QUEUED, item.dirty() || slot.queued());
        self.mem_used.add(item.mem_size(key) as u64);
        self.mem_used.sub(std::mem::replace(slot, item).mem_size(key) as u64);
        newly
    }

    fn over_high_watermark(&self, growth: usize) -> bool {
        self.mem_used.get() as usize + growth > self.high_watermark()
    }

    fn high_watermark(&self) -> usize {
        (self.quota as f64 * HIGH_WATERMARK) as usize
    }

    /// Look up a key.
    pub fn get(&self, vb: VbId, key: &str) -> CacheLookup {
        let mut shard = self.shard(vb).write();
        match shard.get_mut(key) {
            Some(item) => {
                item.word.set(SeqFlags::REFERENCED, true);
                let meta = item.meta();
                if item.deleted() {
                    self.hits.inc();
                    CacheLookup::Tombstone { meta }
                } else if let Some(value) = item.shared() {
                    self.hits.inc();
                    CacheLookup::Hit { meta, value }
                } else {
                    self.misses.inc();
                    CacheLookup::ValueGone { meta }
                }
            }
            None => {
                self.misses.inc();
                CacheLookup::Miss
            }
        }
    }

    /// Metadata-only peek that does not touch reference bits or counters.
    pub fn peek_meta(&self, vb: VbId, key: &str) -> Option<(DocMeta, bool)> {
        let shard = self.shard(vb).read();
        shard.get(key).map(|i| (i.meta(), i.deleted()))
    }

    /// Full-entry peek (meta, value, deleted, dirty) without side effects.
    pub fn peek_item(
        &self,
        vb: VbId,
        key: &str,
    ) -> Option<(DocMeta, Option<SharedValue>, bool, bool)> {
        let shard = self.shard(vb).read();
        shard.get(key).map(|i| (i.meta(), i.shared(), i.deleted(), i.dirty()))
    }

    /// The flusher takes a queued key from the entry: the queued bit is
    /// cleared, so the next dirty write queues the key again, and the
    /// version to persist is returned as (meta, value, deleted) — `None`
    /// when the entry is gone, clean or not queued (listed twice).
    pub fn take_item(&self, vb: VbId, key: &str) -> Option<(DocMeta, Option<SharedValue>, bool)> {
        let mut shard = self.shard(vb).write();
        let item = shard.get_mut(key).filter(|i| i.queued())?;
        item.word.set(SeqFlags::QUEUED, false);
        item.dirty().then(|| (item.meta(), item.shared(), item.deleted()))
    }

    /// Queue a key the flusher took again (its drain cycle failed): `true`
    /// when the bit was set here, so the caller lists the key; `false` when
    /// a newer write has queued — and listed — it already, or the entry is
    /// gone.
    pub fn requeue(&self, vb: VbId, key: &str) -> bool {
        let mut shard = self.shard(vb).write();
        match shard.get_mut(key) {
            Some(item) if !item.queued() => {
                item.word.set(SeqFlags::QUEUED, true);
                true
            }
            _ => false,
        }
    }

    /// Copy of every entry of a vBucket newer than `since`, taken under one
    /// hold of the shard's read lock: a key clone and a reference-count
    /// bump per document. This is what a DCP backfill is served from — an
    /// entry copied without its value (evicted, so clean) is in the storage
    /// index by then.
    pub fn snapshot_vb(&self, vb: VbId, since: SeqNo) -> Vec<CacheEntry> {
        let shard = self.shard(vb).read();
        shard
            .iter()
            .filter(|(_, i)| i.word.seqno() > since)
            .map(|(k, i)| CacheEntry {
                key: k.clone(),
                meta: i.meta(),
                deleted: i.deleted(),
                value: i.shared(),
            })
            .collect()
    }

    /// Live documents among a vBucket's entries — neither tombstones nor
    /// expired at `now` — plus those of `others` the shard does not hold
    /// (under [`EvictionPolicy::Full`]: keys the storage index lists that
    /// were evicted whole).
    pub fn live_count<'a>(
        &self,
        vb: VbId,
        now: u32,
        others: impl IntoIterator<Item = &'a str>,
    ) -> usize {
        let shard = self.shard(vb).read();
        let live = |i: &&CacheItem| !i.deleted() && !i.meta().is_expired_at(now);
        let held = shard.values().filter(live).count();
        held + others.into_iter().filter(|k| !shard.contains_key(*k)).count()
    }

    /// Install the version a background fetch read from disk, `meta` being
    /// that record's own — but only while it is still the version the
    /// cache should hold: over a value-evicted entry of that very seqno, or
    /// (full eviction) where the key is absent. A write that landed while
    /// the fetch read the log wins either way: its newer entry keeps its
    /// own body (no stale body under its metadata), and a dirty entry is
    /// never replaced by a clean copy of an older version — the flusher
    /// would skip it as clean and the write would be lost.
    pub fn repopulate(&self, vb: VbId, key: &str, meta: DocMeta, value: impl Into<SharedValue>) {
        let json = value.into().into_json();
        let len = json.len();
        // A record's seqno is never past the seqno space.
        let Ok(fill) = CacheItem::version(meta, Some(json), false, false) else { return };
        let full = self.policy == EvictionPolicy::Full;
        // Evicted whole, the entry comes back through admission like a write.
        if full && self.peek_meta(vb, key).is_none() && self.make_room(fill.mem_size(key)).is_err()
        {
            return;
        }
        let mut shard = self.shard(vb).write();
        let added = match shard.get_mut(key) {
            // Its value was evicted, so the entry was clean: `fill` is it
            // with the value back.
            Some(item)
                if item.word.seqno() == meta.seqno && item.value.is_none() && !item.deleted() =>
            {
                *item = fill;
                len
            }
            Some(_) => 0,
            None if full => {
                let size = fill.mem_size(key);
                self.insert_new(&mut shard, key, fill);
                size
            }
            None => 0,
        };
        drop(shard);
        self.mem_used.add(added as u64);
    }

    /// Admission for `growth` more bytes: past the high watermark an
    /// eviction pass runs first, and `TempOom` is the answer when even that
    /// leaves no room under the quota.
    fn make_room(&self, growth: usize) -> Result<()> {
        if self.mem_used.get() as usize + growth > self.high_watermark() {
            self.evict_to_watermark();
            if self.mem_used.get() as usize + growth > self.quota {
                self.tmp_ooms.inc();
                return Err(Error::TempOom);
            }
        }
        Ok(())
    }

    /// Flusher callback: the mutation with `seqno` has been persisted; if
    /// the entry still holds that exact version, clear its dirty bit.
    pub fn mark_clean(&self, vb: VbId, key: &str, seqno: SeqNo) {
        let mut shard = self.shard(vb).write();
        if let Some(item) = shard.get_mut(key) {
            if item.word.seqno() == seqno {
                item.word.set(SeqFlags::DIRTY, false);
            }
        }
    }

    /// Drop every entry of a vBucket (rebalance hand-off / failover).
    pub fn clear_vb(&self, vb: VbId) {
        let mut shard = self.shard(vb).write();
        let freed: usize = shard.iter().map(|(k, i)| i.mem_size(k)).sum();
        self.table_bytes.sub(shard.heap_bytes() as u64);
        shard.clear();
        self.mem_used.sub(freed as u64);
    }

    /// The live entries of a vBucket whose expiry has passed at `now`, as
    /// (key, metadata), found in one walk of its table under the read lock:
    /// what the expiry pager reaps. Allocates nothing when none has expired.
    pub fn expired(&self, vb: VbId, now: u32) -> Vec<(DocKey, DocMeta)> {
        let shard = self.shard(vb).read();
        shard
            .iter()
            .filter(|(_, i)| !i.deleted() && i.meta().is_expired_at(now))
            .map(|(k, i)| (k.clone(), i.meta()))
            .collect()
    }

    /// All resident keys of a vBucket (diagnostics / tests).
    pub fn keys(&self, vb: VbId) -> Vec<DocKey> {
        self.shard(vb).read().keys().cloned().collect()
    }

    /// Run the NRU second-chance clock until the low watermark is reached.
    ///
    /// The hand sweeps one shard at a time from where the last pass
    /// stopped. A first turn of the clock clears the reference bits of
    /// recently used items and evicts unreferenced clean ones; a second
    /// turn (if still over target) evicts any clean item. Dirty items are
    /// always pinned.
    pub fn evict_to_watermark(&self) {
        let target = (self.quota as f64 * LOW_WATERMARK) as usize;
        for second_chance in [true, false] {
            for _ in 0..self.shards.len() {
                if self.mem_used.get() as usize <= target {
                    return;
                }
                let at = self.hand.fetch_add(1, Ordering::Relaxed) % self.shards.len();
                let (freed, evicted) = self.sweep(&mut self.shards[at].write(), second_chance);
                self.mem_used.sub(freed as u64);
                self.evictions.add(evicted);
            }
        }
    }

    /// Evict one shard's clean victims; returns (bytes freed, evictions).
    fn sweep(&self, shard: &mut Shard, second_chance: bool) -> (usize, u64) {
        let (mut freed, mut evicted) = (0usize, 0u64);
        let full = self.policy == EvictionPolicy::Full;
        shard.retain(|key, item| {
            let resident = if full { !item.deleted() } else { item.value.is_some() };
            if item.dirty() || !resident {
                return true;
            }
            if item.word.has(SeqFlags::REFERENCED) && second_chance {
                item.word.set(SeqFlags::REFERENCED, false);
                return true;
            }
            evicted += 1;
            if full {
                freed += item.mem_size(key);
                return false;
            }
            freed += item.value.take().map_or(0, |v| v.len());
            true
        });
        (freed, evicted)
    }

    /// The configured eviction policy.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Point-in-time statistics. Also refreshes the `kv.cache.items` /
    /// `kv.cache.resident_items` gauges, which are counted by iteration
    /// rather than maintained per-op.
    pub fn stats(&self) -> CacheStats {
        let mut items = 0u64;
        let mut resident = 0u64;
        for shard in &self.shards {
            let s = shard.read();
            items += s.len() as u64;
            resident += s.values().filter(|i| i.value.is_some() || i.deleted()).count() as u64;
        }
        self.items_gauge.set(items);
        self.resident_gauge.set(resident);
        CacheStats {
            items,
            resident_items: resident,
            mem_used: self.mem_used.get() as usize,
            quota: self.quota,
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            tmp_ooms: self.tmp_ooms.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_json::Value;

    fn meta(seq: u64) -> DocMeta {
        DocMeta { seqno: SeqNo(seq), ..Default::default() }
    }

    fn big_doc(n: usize) -> Value {
        Value::object([("pad", Value::from("x".repeat(n)))])
    }

    /// A cache whose quota is mostly held by one dirty (so unevictable)
    /// entry: every eviction pass then stays over the low watermark and
    /// drops every clean value it may.
    fn pinned_cache(policy: EvictionPolicy) -> ObjectCache {
        let c = ObjectCache::new(4, 10_000, policy);
        c.set(VbId(3), "ballast", meta(1), Value::from("b".repeat(7_800)), true).unwrap();
        c
    }

    fn resident(c: &ObjectCache, vb: VbId, key: &str) -> bool {
        matches!(c.peek_item(vb, key), Some((_, Some(_), _, _)))
    }

    /// A table entry is a 24-byte key, the 32 bytes of a `DocMeta` with the
    /// flags in the seqno's top 16 bits, and the value's 16: 72 bytes.
    #[test]
    fn a_table_entry_is_72_bytes() {
        assert_eq!(std::mem::size_of::<(DocKey, CacheItem)>(), 72);
    }

    /// The flags live above the seqno and never leak into it: the last
    /// seqno reads back under every flag, and one past it is refused.
    #[test]
    fn the_seqno_space_is_48_bits_and_its_flags_sit_above_it() {
        let (vb, c) = (VbId(0), ObjectCache::new(4, 1 << 20, EvictionPolicy::ValueOnly));
        let last =
            DocMeta { seqno: SeqNo::MAX, cas: Cas(u64::MAX), rev: RevNo(7), flags: 3, expiry: 9 };
        assert_eq!(c.set(vb, "k", last, Value::int(1), true), Ok(true));
        assert_eq!(c.delete(vb, "k", last, true), Ok(false));
        assert_eq!(c.peek_item(vb, "k"), Some((last, None, true, true)));
        c.mark_clean(vb, "k", SeqNo::MAX);
        assert_eq!(c.get(vb, "k"), CacheLookup::Tombstone { meta: last });
        assert_eq!(c.take_item(vb, "k"), None, "clean, so nothing to persist");
        let past = DocMeta { seqno: SeqNo(SeqNo::MAX.0 + 1), ..last };
        assert_eq!(c.set(vb, "k", past, Value::int(2), true), Err(Error::SeqNoOutOfRange(1 << 48)));
        assert_eq!(c.delete(vb, "j", past, true), Err(Error::SeqNoOutOfRange(1 << 48)));
        assert_eq!(c.peek_meta(vb, "k"), Some((last, true)));
        assert_eq!(c.peek_meta(vb, "j"), None);
    }

    #[test]
    fn set_get_roundtrip() {
        let c = ObjectCache::new(16, 1 << 20, EvictionPolicy::ValueOnly);
        c.set(VbId(1), "a", meta(1), Value::int(42), true).unwrap();
        match c.get(VbId(1), "a") {
            CacheLookup::Hit { meta: m, value } => {
                assert_eq!(m.seqno, SeqNo(1));
                assert_eq!(value, Value::int(42));
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(c.get(VbId(1), "zzz"), CacheLookup::Miss);
        let st = c.stats();
        assert_eq!(st.hits, 1);
        assert_eq!(st.misses, 1);
    }

    #[test]
    fn an_entry_is_charged_its_key_and_encoded_length() {
        let c = ObjectCache::new(4, 1 << 20, EvictionPolicy::ValueOnly);
        let doc = SharedValue::new(big_doc(100));
        let encoded = doc.json().len();
        c.set(VbId(0), "key", meta(1), doc.clone(), true).unwrap();
        assert_eq!(c.stats().mem_used, 64 + "key".len() + encoded);
        // The entry holds the caller's encoding, not a copy, and no tree.
        let CacheLookup::Hit { value, .. } = c.get(VbId(0), "key") else { panic!("resident") };
        assert!(SharedValue::ptr_eq(&value, &doc));
        assert!(!value.is_decoded());
    }

    #[test]
    fn tombstones_are_visible() {
        let c = ObjectCache::new(16, 1 << 20, EvictionPolicy::ValueOnly);
        c.set(VbId(0), "a", meta(1), Value::int(1), true).unwrap();
        c.delete(VbId(0), "a", meta(2), true).unwrap();
        assert!(
            matches!(c.get(VbId(0), "a"), CacheLookup::Tombstone { meta } if meta.seqno == SeqNo(2))
        );
    }

    #[test]
    fn dirty_items_never_evicted() {
        let c = ObjectCache::new(4, 50_000, EvictionPolicy::ValueOnly);
        // Fill with dirty items beyond the high watermark.
        let mut oom = false;
        for i in 0..100 {
            match c.set(VbId(0), &format!("k{i}"), meta(i), big_doc(1000), true) {
                Ok(newly) => assert!(newly, "a new dirty key is queued"),
                Err(Error::TempOom) => {
                    oom = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(oom, "quota must eventually reject dirty-only load");
        assert_eq!(c.stats().evictions, 0, "no clean items existed to evict");
        // Every admitted item still has its value.
        let st = c.stats();
        assert_eq!(st.items, st.resident_items);
    }

    /// Admission charges net growth: in a cache full of dirty items an
    /// overwrite of the same size replaces what it frees, while a write
    /// that grows the cache is still refused.
    #[test]
    fn admission_credits_the_entry_being_replaced() {
        let c = ObjectCache::new(4, 50_000, EvictionPolicy::ValueOnly);
        let mut admitted = 0;
        while c.set(VbId(0), &format!("k{admitted}"), meta(admitted), big_doc(1000), true).is_ok() {
            admitted += 1;
        }
        let full = c.stats();
        assert_eq!(full.tmp_ooms, 1);
        assert!(full.mem_used + 1_100 > full.quota, "no room for another document: {full:?}");
        c.set(VbId(0), "k0", meta(admitted + 1), big_doc(1000), true)
            .expect("a same-size overwrite needs no room");
        assert_eq!(c.stats().mem_used, full.mem_used);
        assert_eq!(
            c.set(VbId(0), "k1", meta(admitted + 2), big_doc(3000), true),
            Err(Error::TempOom),
            "an overwrite that grows the cache past its quota is refused"
        );
        assert_eq!(
            c.set(VbId(0), "new", meta(admitted + 3), big_doc(1000), true),
            Err(Error::TempOom)
        );
    }

    #[test]
    fn value_eviction_keeps_metadata() {
        let c = ObjectCache::new(4, 100_000, EvictionPolicy::ValueOnly);
        let mut admitted = Vec::new();
        for i in 0..200 {
            let k = format!("k{i}");
            if c.set(VbId(0), &k, meta(i), big_doc(900), true).is_ok() {
                c.mark_clean(VbId(0), &k, SeqNo(i));
                admitted.push(k);
            }
        }
        c.evict_to_watermark();
        // Evicting twice is idempotent-ish and must leave us under the low
        // watermark given everything is clean.
        c.evict_to_watermark();
        let st = c.stats();
        assert!(st.mem_used <= (st.quota as f64 * 0.76) as usize, "{st:?}");
        assert!(st.evictions > 0);
        // Metadata must still be resident for every admitted key.
        for k in &admitted {
            assert!(c.peek_meta(VbId(0), k).is_some(), "meta for {k} must survive value eviction");
        }
        // And a value-gone lookup tells the caller to background-fetch.
        let gone =
            admitted.iter().any(|k| matches!(c.get(VbId(0), k), CacheLookup::ValueGone { .. }));
        assert!(gone);
    }

    #[test]
    fn full_eviction_drops_entries() {
        let c = ObjectCache::new(4, 100_000, EvictionPolicy::Full);
        for i in 0..200 {
            let k = format!("k{i}");
            if c.set(VbId(0), &k, meta(i), big_doc(900), true).is_ok() {
                c.mark_clean(VbId(0), &k, SeqNo(i));
            }
        }
        c.evict_to_watermark();
        c.evict_to_watermark();
        let st = c.stats();
        assert!(st.items < 200, "full eviction removes whole entries: {st:?}");
    }

    #[test]
    fn repopulate_after_value_eviction() {
        let c = pinned_cache(EvictionPolicy::ValueOnly);
        c.set(VbId(0), "a", meta(5), big_doc(50), false).unwrap();
        let used = c.stats().mem_used;
        c.evict_to_watermark();
        assert_eq!(c.get(VbId(0), "a"), CacheLookup::ValueGone { meta: meta(5) });
        c.repopulate(VbId(0), "a", meta(5), big_doc(50));
        assert_eq!(
            c.get(VbId(0), "a"),
            CacheLookup::Hit { meta: meta(5), value: big_doc(50).into() }
        );
        assert_eq!(c.stats().mem_used, used, "the value is charged again");
    }

    /// Value-only eviction, the engine's calls in the order a racing
    /// writer interleaves them: `get` sees the value gone at seqno 5 and
    /// reads v5 from the log; meanwhile v6 is written, persisted and its
    /// value evicted; then the fetch completes. v5 must not be installed
    /// under v6's metadata.
    #[test]
    fn a_background_fetch_does_not_install_a_superseded_version() {
        let (vb, c) = (VbId(0), pinned_cache(EvictionPolicy::ValueOnly));
        c.set(vb, "k", meta(5), Value::from("v5"), true).unwrap();
        c.mark_clean(vb, "k", SeqNo(5));
        c.evict_to_watermark();
        let CacheLookup::ValueGone { meta: seen } = c.get(vb, "k") else { panic!("evicted") };
        assert_eq!(seen.seqno, SeqNo(5)); // ...and the fetch reads v5 from disk.
        c.set(vb, "k", meta(6), Value::from("v6"), true).unwrap();
        c.mark_clean(vb, "k", SeqNo(6)); // the flusher persisted v6
        c.evict_to_watermark();
        c.repopulate(vb, "k", meta(5), Value::from("v5")); // the fetch completes
        assert_eq!(c.get(vb, "k"), CacheLookup::ValueGone { meta: meta(6) });
    }

    /// Full eviction, same race: `get` misses and reads v5 from the log
    /// while a writer creates a dirty v6. Installing v5 clean over it would
    /// make the flusher skip v6 — a lost write.
    #[test]
    fn a_background_fetch_does_not_overwrite_a_newer_dirty_write() {
        let (vb, c) = (VbId(0), pinned_cache(EvictionPolicy::Full));
        c.set(vb, "k", meta(5), Value::from("v5"), true).unwrap();
        c.mark_clean(vb, "k", SeqNo(5));
        c.evict_to_watermark();
        assert_eq!(c.get(vb, "k"), CacheLookup::Miss); // ...the fetch reads v5 from disk.
        c.set(vb, "k", meta(6), Value::from("v6"), true).unwrap();
        c.repopulate(vb, "k", meta(5), Value::from("v5")); // the fetch completes
        let (m, value, deleted, dirty) = c.peek_item(vb, "k").unwrap();
        assert_eq!(
            (m, value, deleted, dirty),
            (meta(6), Some(Value::from("v6").into()), false, true)
        );
        // Without the race, the fetched version comes back as a clean entry.
        c.mark_clean(vb, "k", SeqNo(6));
        c.evict_to_watermark();
        assert_eq!(c.get(vb, "k"), CacheLookup::Miss);
        c.repopulate(vb, "k", meta(6), Value::from("v6"));
        assert_eq!(c.peek_item(vb, "k").map(|i| (i.0, i.3)), Some((meta(6), false)));
    }

    /// The disk-write queue's de-duplication: the first dirty write of a
    /// key queues it, later ones join it until the flusher takes it, and a
    /// failed cycle's key is queued again only if no newer write has.
    #[test]
    fn the_queued_bit_de_duplicates_the_disk_write_queue() {
        let (vb, c) = (VbId(0), ObjectCache::new(4, 1 << 20, EvictionPolicy::Full));
        assert_eq!(c.set(vb, "k", meta(1), Value::int(1), true), Ok(true));
        assert_eq!(c.set(vb, "k", meta(2), Value::int(2), true), Ok(false));
        assert_eq!(c.delete(vb, "k", meta(3), true), Ok(false));
        assert!(!c.requeue(vb, "k"), "still queued");
        let (m, value, deleted) = c.take_item(vb, "k").unwrap();
        assert_eq!((m, value, deleted), (meta(3), None, true));
        assert_eq!(c.take_item(vb, "k"), None, "taken once");
        assert!(c.requeue(vb, "k"), "the failed cycle queues it again");
        assert!(c.take_item(vb, "k").is_some());
        assert_eq!(c.set(vb, "k", meta(4), Value::int(4), true), Ok(true), "queued anew");
        assert!(!c.requeue(vb, "k"), "a newer write queued it first");

        // A clean version keeps the bit (the key is still listed), and
        // gives the flusher nothing to write.
        assert_eq!(c.set(vb, "k", meta(5), Value::int(5), false), Ok(false));
        assert!(!c.requeue(vb, "k"));
        assert_eq!(c.take_item(vb, "k"), None);
        assert!(!c.requeue(vb, "gone"));
    }

    #[test]
    fn mark_clean_only_applies_to_matching_seqno() {
        let (vb, c) = (VbId(0), pinned_cache(EvictionPolicy::ValueOnly));
        c.set(vb, "a", meta(1), Value::int(1), true).unwrap();
        c.set(vb, "a", meta(2), Value::int(2), true).unwrap(); // newer dirty version
        c.mark_clean(vb, "a", SeqNo(1)); // stale persistence callback
        c.evict_to_watermark();
        assert!(resident(&c, vb, "a"), "v2 is still dirty, so pinned");
        c.mark_clean(vb, "a", SeqNo(2));
        c.evict_to_watermark();
        assert!(!resident(&c, vb, "a"), "persisted, v2 is evictable");
    }

    /// The clock's hand resumes where the last pass stopped. Every shard
    /// holds ~20 KB of clean values; a pass frees one shard's worth. After
    /// the hand has passed shards 0 and 1, the next victim is shard 2 —
    /// not shard 0 again, whose refilled values had their reference bit
    /// cleared by a restarting clock and would go first.
    #[test]
    fn eviction_hand_resumes_where_the_last_pass_stopped() {
        let c = ObjectCache::new(4, 100_000, EvictionPolicy::ValueOnly);
        let key = |vb: u16, i: u64| format!("k{vb}-{i}");
        let fill = |vb: u16| {
            for i in 0..10 {
                c.set(VbId(vb), &key(vb, i), meta(i), Value::from("x".repeat(1990)), false)
                    .unwrap();
            }
        };
        let shard_resident = |vb: u16| (0..10).all(|i| resident(&c, VbId(vb), &key(vb, i)));
        let shard_evicted = |vb: u16| (0..10).all(|i| !resident(&c, VbId(vb), &key(vb, i)));
        (0..4).for_each(fill);
        assert_eq!(c.stats().evictions, 0, "fits under the high watermark");
        c.evict_to_watermark();
        assert!(shard_evicted(0) && shard_resident(1) && shard_resident(2));
        fill(0);
        c.evict_to_watermark();
        assert!(shard_resident(0) && shard_evicted(1) && shard_resident(2));
        fill(1);
        c.evict_to_watermark();
        assert!(shard_resident(0) && shard_resident(1) && shard_evicted(2) && shard_resident(3));
    }

    #[test]
    fn clear_vb_frees_memory() {
        let c = ObjectCache::new(4, 1 << 20, EvictionPolicy::ValueOnly);
        c.set(VbId(2), "a", meta(1), big_doc(500), true).unwrap();
        c.set(VbId(2), "b", meta(2), big_doc(500), true).unwrap();
        let before = c.stats().mem_used;
        assert!(before > 1000);
        c.clear_vb(VbId(2));
        assert_eq!(c.stats().mem_used, 0);
        assert_eq!(c.get(VbId(2), "a"), CacheLookup::Miss);
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let c = Arc::new(ObjectCache::new(64, 64 << 20, EvictionPolicy::ValueOnly));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..2_000u64 {
                    let vb = VbId((i % 64) as u16);
                    let k = format!("t{t}-k{i}");
                    c.set(vb, &k, meta(i), Value::int(i as i64), true).unwrap();
                    assert!(matches!(c.get(vb, &k), CacheLookup::Hit { .. }));
                    c.mark_clean(vb, &k, SeqNo(i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.stats().items, 16_000);
    }
}
