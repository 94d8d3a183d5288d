//! The expiry pager: one walk of each active vBucket's cache table that
//! copies out only what has expired, run by the flusher thread on the
//! clock.
//!
//! Runs under a counting global allocator that counts the calling thread's
//! allocations only, so the flusher thread of one test does not show in the
//! other's count.

// Tests unwrap freely; the crate's unwrap_used deny targets lib code.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cbs_common::{Cas, VbId};
use cbs_json::Value;
use cbs_kv::flusher::EXPIRY_PAGER_PERIOD;
use cbs_kv::{DataEngine, EngineConfig, FlusherPool, MutateMode};

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

fn now() -> u32 {
    cbs_common::time::now_unix_secs()
}

/// A sweep over 16 active vBuckets of 1 000 live keys each, half of them
/// with a TTL that has not passed, finds nothing to reap and allocates
/// nothing: no key list per vBucket, no copy per key.
#[test]
fn a_sweep_that_finds_nothing_allocates_nothing() {
    const PER_VB: usize = 1_000;
    let engine = DataEngine::new(EngineConfig::for_test(VBUCKETS)).unwrap();
    engine.activate_all();
    let mut per_vb = [0usize; VBUCKETS as usize];
    let later = now() + 3_600;
    for i in 0.. {
        let key = format!("user{i:012}");
        let vb = engine.vb_for_key(&key).0 as usize;
        if per_vb[vb] == PER_VB {
            if per_vb.iter().all(|n| *n == PER_VB) {
                break;
            }
            continue;
        }
        let expiry = if i % 2 == 0 { later } else { 0 };
        engine.set(&key, Value::int(i), MutateMode::Upsert, Cas::WILDCARD, expiry).unwrap();
        per_vb[vb] += 1;
    }
    assert_eq!(engine.run_expiry_pager(), 0); // first use of each lock on this thread
    let before = allocs();
    let reaped = engine.run_expiry_pager();
    let spent = allocs() - before;
    assert_eq!(reaped, 0);
    assert_eq!(spent, 0, "a sweep of {} live keys allocated {spent} times", PER_VB * 16);
}

/// A running flusher reaps an expired document nobody reads within one
/// pager period (plus slack), with a drain interval of an hour: the pager
/// runs on the clock, not on the flusher's cycle count.
#[test]
fn a_running_flusher_reaps_an_unread_expired_document() {
    let engine = DataEngine::new(EngineConfig::for_test(VBUCKETS)).unwrap();
    engine.activate_all();
    let pool = FlusherPool::spawn(Arc::clone(&engine), Duration::from_secs(3600)).unwrap();
    let start = Instant::now();
    let expiry = now().saturating_sub(1);
    let m = engine.set("short-lived", Value::int(1), MutateMode::Upsert, Cas::WILDCARD, expiry);
    let vb: VbId = m.unwrap().vb;
    engine.set("immortal", Value::int(2), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
    let bound = EXPIRY_PAGER_PERIOD + Duration::from_secs(3);
    while engine.stats().expirations.get() == 0 {
        assert!(start.elapsed() < bound, "not reaped within {bound:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(engine.stats().expirations.get(), 1);
    assert_eq!(engine.active_doc_count().unwrap(), 1);
    // The expiration is a tombstone the flusher persists like any write.
    pool.shutdown();
    assert_eq!(engine.disk_queue_len(), 0);
    let tombstones: u64 = engine
        .storage_stats()
        .into_iter()
        .filter(|(v, _)| *v == vb)
        .map(|(_, s)| s.tombstones)
        .sum();
    assert_eq!(tombstones, 1);
}
