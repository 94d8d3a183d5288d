//! What the background storage path holds in memory at its peak: a drain
//! cycle buffers one slice of its records at a time, not the whole cycle,
//! and a compaction streams a log through one small buffer plus the new
//! place of each live record.
//!
//! Runs under a global allocator that keeps the calling thread's live heap
//! bytes and their high-water mark, so nothing another thread allocates
//! shows up. Both drains and compactions run synchronously here, on the
//! test's own thread.

// Tests unwrap freely; the crate's unwrap_used deny targets lib code.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use cbs_common::Cas;
use cbs_json::Value;
use cbs_kv::{DataEngine, EngineConfig, MutateMode};

struct PeakAlloc;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn track(delta: i64) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as a move: the old and the new block are both live while
        // the bytes are copied across.
        track(new_size as i64);
        track(-(layout.size() as i64));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// Run `f` and return its result with how far this thread's live heap
/// rose above where it stood at the start.
fn peak_above_start<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let out = f();
    (out, PEAK.with(Cell::get) - start)
}

const VBUCKETS: u16 = 16;

/// An engine with no flusher thread.
fn engine() -> Arc<DataEngine> {
    let engine = DataEngine::new(EngineConfig::for_test(VBUCKETS)).unwrap();
    engine.activate_all();
    engine
}

/// Upsert `docs` documents of about 1 KB each, version `round`.
fn write_docs(engine: &DataEngine, docs: usize, round: i64) {
    let pad = Value::from("p".repeat(1_000));
    for i in 0..docs {
        let body = Value::object([("round", Value::int(round)), ("pad", pad.clone())]);
        engine.set(&format!("doc{i:06}"), body, MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
    }
}

/// A drain cycle of ~2 000 dirty ~1 KB documents — some 2.3 MB of records
/// — buffers one 64 KiB slice at a time: its peak is the slice, the
/// records' places and keys, not the cycle.
#[test]
fn a_drain_cycle_buffers_a_slice_not_the_cycle() {
    const DOCS: usize = 2_000;
    let engine = engine();
    // A first drain grows the storage index to its size, so that the
    // measured one only overwrites entries.
    write_docs(&engine, DOCS, 0);
    assert_eq!(engine.flush_once().unwrap(), DOCS as u64);
    write_docs(&engine, DOCS, 1);

    let (flushed, peak) = peak_above_start(|| engine.flush_once().unwrap());
    assert_eq!(flushed, DOCS as u64);
    assert_eq!(engine.disk_queue_len(), 0);
    assert!(peak <= 512 << 10, "a drain of {DOCS} documents peaked {peak} B above its start");
}

/// Compacting a bucket log with more than 4 MB live streams it through one
/// small buffer: the peak is that buffer plus 24 B of new place per live
/// record, not a share of the log.
#[test]
fn a_compaction_streams_through_a_small_buffer() {
    const DOCS: usize = 4_200;
    let engine = engine();
    for round in 0..3 {
        write_docs(&engine, DOCS, round);
        engine.flush_once().unwrap();
    }
    let stats = || engine.storage_stats().into_iter().map(|(_, s)| s);
    let live: u64 = stats().map(|s| s.live_docs + s.tombstones).sum();
    let live_bytes: u64 = stats().map(|s| s.file_bytes - s.stale_bytes).sum();
    assert_eq!(live, DOCS as u64);
    assert!(live_bytes >= 4_000_000, "{live_bytes} B live");

    let (ran, peak) = peak_above_start(|| engine.compact_if_needed().unwrap());
    assert!(ran, "two thirds of the log are stale");
    assert_eq!(stats().map(|s| s.compactions).sum::<u64>(), 1);
    let bound = (256 << 10) + 24 * live as i64;
    assert!(peak <= bound, "compacting {live} records peaked {peak} B above its start (> {bound})");
}
