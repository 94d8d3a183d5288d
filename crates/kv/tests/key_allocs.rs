//! What a key costs the allocator on the KV data path. A document key is a
//! `DocKey`, stored inline up to 22 bytes: loading keys into the cache's
//! tables and the storage index allocates for table growth only, and a
//! resident overwrite — cache entry, dirty queue, DCP item — allocates
//! nothing at all.
//!
//! Runs under a counting global allocator that counts the calling thread's
//! allocations only, so the two tests (and any background thread) do not
//! see each other's.

// Tests unwrap freely; the crate's unwrap_used deny targets lib code.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cbs_cache::{EvictionPolicy, ObjectCache};
use cbs_common::{vbucket_for_key, Cas, DocMeta, SeqNo, VbId};
use cbs_json::{SharedValue, Value};
use cbs_kv::{DataEngine, EngineConfig, MutateMode};
use cbs_storage::{scratch_dir, BucketStore, Cycle};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const VBUCKETS: u16 = 16;
const KEYS: u64 = 10_000;

/// 10k distinct 16-byte keys into a cache and a storage index: what the
/// tables allocate as they grow, not an allocation per key.
#[test]
fn loading_keys_allocates_for_table_growth_only() {
    let keys: Vec<String> = (0..KEYS).map(|i| format!("user{i:012}")).collect();
    assert!(keys.iter().all(|k| k.len() == 16));
    let vb = |key: &str| VbId(vbucket_for_key(key.as_bytes(), VBUCKETS));
    let meta = |i: u64| DocMeta { seqno: SeqNo(i + 1), ..Default::default() };
    let value = SharedValue::new(Value::object([("v", Value::int(1))]));
    let cache = ObjectCache::new(VBUCKETS, 1 << 30, EvictionPolicy::ValueOnly);
    let store = BucketStore::open(scratch_dir("key-allocs")).unwrap();
    // A drain cycle holds one vBucket's records together, in seqno order.
    let mut by_vb: Vec<(VbId, u64)> = (0..KEYS).map(|i| (vb(&keys[i as usize]), i)).collect();
    by_vb.sort();

    let before = allocs();
    for (i, key) in keys.iter().enumerate() {
        cache.set(vb(key), key, meta(i as u64), value.clone(), false).unwrap();
    }
    let mut cycle = Cycle::new();
    for &(vb, i) in &by_vb {
        cycle.push(vb, &keys[i as usize], &meta(i), false, value.json()).unwrap();
    }
    store.commit(&mut cycle).unwrap();
    let spent = allocs() - before;

    assert_eq!(cache.stats().items, KEYS);
    let indexed: u64 = (0..VBUCKETS).map(|v| store.vb(VbId(v)).unwrap().stats().live_docs).sum();
    assert_eq!(indexed, KEYS);
    assert!(spent < 2_500, "{spent} allocations to load {KEYS} keys into a cache and an index");
}

/// A resident overwrite with a pre-built body — cache entry replaced, key
/// already in the dirty queue, DCP item published — does not touch the
/// allocator.
#[test]
fn a_resident_overwrite_is_allocation_free() {
    let engine = DataEngine::new(EngineConfig::for_test(VBUCKETS)).unwrap();
    engine.activate_all();
    let value = SharedValue::new(Value::object([("v", Value::int(1))]));
    let set =
        || engine.set("user000000000001", value.clone(), MutateMode::Upsert, Cas::WILDCARD, 0);
    for _ in 0..64 {
        set().unwrap();
    }
    let mut last = u64::MAX;
    for _ in 0..5 {
        let before = allocs();
        for _ in 0..10_000 {
            set().unwrap();
        }
        last = allocs() - before;
        if last == 0 {
            return;
        }
    }
    panic!("a resident overwrite allocated {last} times over 10k writes in every window");
}
