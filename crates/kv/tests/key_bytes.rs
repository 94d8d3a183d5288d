//! What a key costs in memory on the KV data path. Under value-only
//! eviction every key of a bucket stays resident (§4.3.3), once in its
//! vBucket's cache table and once in its storage index, so the bytes those
//! two tables spend per key are the memory floor of a bucket larger than
//! its quota. The tables' own gauges, `mem.cache_tables.bytes` and
//! `mem.storage_index.bytes`, must say the same as the allocator.
//!
//! Runs under a global allocator that tracks the calling thread's live
//! bytes (allocated minus freed), so the tests (and any background thread)
//! do not see each other's.

// Tests unwrap freely; the crate's unwrap_used deny targets lib code.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cbs_cache::{EvictionPolicy, ObjectCache};
use cbs_common::{vbucket_for_key, DocMeta, SeqNo, VbId};
use cbs_json::{SharedValue, Value};
use cbs_obs::Registry;
use cbs_storage::{scratch_dir, BucketStore, Cycle};

struct LiveBytes;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn add(bytes: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

/// A cache and a storage index of `vbuckets` vBuckets, sharing one
/// registry as a data engine's do, and the one body every key is loaded
/// with (held here, so the cache never frees its last reference).
struct Tables {
    registry: Registry,
    cache: ObjectCache,
    store: BucketStore,
    vbuckets: u16,
    value: SharedValue,
}

impl Tables {
    fn new(name: &str, vbuckets: u16) -> Tables {
        let registry = Registry::new("kv");
        let cache =
            ObjectCache::new_with_registry(vbuckets, 1 << 30, EvictionPolicy::ValueOnly, &registry);
        let store =
            BucketStore::open_sharded_with_registry(scratch_dir(name), 1, vbuckets, &registry)
                .unwrap();
        // Every vBucket's (empty) index exists before anything is counted.
        for vb in 0..vbuckets {
            store.vb(VbId(vb)).unwrap();
        }
        let value = SharedValue::new(Value::object([("v", Value::int(1))]));
        Tables { registry, cache, store, vbuckets, value }
    }

    fn gauge(&self, name: &str) -> i64 {
        self.registry.gauge(name).get() as i64
    }

    /// Load `n` distinct 16-byte keys into both tables; returns the live bytes the cache and the index gained.
    fn load(&self, n: u64) -> (i64, i64) {
        let keys: Vec<String> = (0..n).map(|i| format!("user{i:012}")).collect();
        assert!(keys.iter().all(|k| k.len() == 16));
        let vb = |key: &str| VbId(vbucket_for_key(key.as_bytes(), self.vbuckets));
        let meta = |i: u64| DocMeta { seqno: SeqNo(i + 1), ..Default::default() };
        let value = &self.value;
        // A drain cycle holds one vBucket's records together, in seqno order.
        let mut by_vb: Vec<(VbId, u64)> = (0..n).map(|i| (vb(&keys[i as usize]), i)).collect();
        by_vb.sort();
        let mut cycle = Cycle::new();
        for &(vb, i) in &by_vb {
            cycle.push(vb, &keys[i as usize], &meta(i), false, value.json()).unwrap();
        }

        let before = live();
        for (i, key) in keys.iter().enumerate() {
            self.cache.set(vb(key), key, meta(i as u64), value.clone(), false).unwrap();
        }
        let cached = live();
        self.store.commit(0, &mut cycle).unwrap();
        let indexed = live();
        (cached - before, indexed - cached)
    }
}

/// Whatever a first set, commit or purge on this thread allocates once
/// (span recorders, thread-locals) is allocated before anything is counted.
fn warm_up() {
    let tables = Tables::new("key-bytes-warm", 4);
    tables.load(8);
    tables.cache.clear_vb(VbId(0));
    tables.store.drop_vb(VbId(0)).unwrap();
}

/// 80 000 and 60 000 keys over 1 024 vBuckets: `kv_hot_a`'s and
/// `kv_dgm_read`'s ~78 and ~59 keys per table. A key copy — its cache entry
/// and its index entry — costs at most 180 bytes of table. (std's
/// `HashMap`, an entry's size in every bucket and doubling, ~214 and
/// ~230–250; 8-byte slots would not fit either.)
#[test]
fn a_key_copy_costs_at_most_180_bytes_of_table() {
    warm_up();
    for (n, name) in [(80_000u64, "key-bytes-hot"), (60_000, "key-bytes-dgm")] {
        let tables = Tables::new(name, 1024);
        let (cache, index) = tables.load(n);
        let per_key = (cache + index) as f64 / n as f64;
        println!(
            "{n} keys: cache {:.1} B, index {:.1} B, {per_key:.1} B per key copy",
            cache as f64 / n as f64,
            index as f64 / n as f64
        );
        assert_eq!(tables.cache.stats().items, n);
        assert!(per_key <= 180.0, "{per_key:.1} B of table per key copy at {n} keys");
    }
}

/// The two gauges move only where a table grows or is emptied, and say
/// what the allocator says: after a load, and after the cache's vBuckets
/// are cleared and the store's purged.
#[test]
fn table_gauges_equal_the_live_bytes_of_the_tables() {
    warm_up();
    let tables = Tables::new("key-bytes-gauges", 64);
    let (cache, index) = tables.load(10_000);
    assert!(cache > 0 && index > 0);
    assert_eq!(tables.gauge("mem.cache_tables.bytes"), cache);
    assert_eq!(tables.gauge("mem.storage_index.bytes"), index);

    let before = live();
    for vb in 0..tables.vbuckets {
        tables.cache.clear_vb(VbId(vb));
    }
    assert_eq!(live() - before, -cache);
    assert_eq!(tables.gauge("mem.cache_tables.bytes"), 0);

    let before = live();
    for vb in 0..tables.vbuckets {
        tables.store.drop_vb(VbId(vb)).unwrap();
    }
    assert_eq!(live() - before, -index);
    assert_eq!(tables.gauge("mem.storage_index.bytes"), 0);
}
