//! What an indexed document costs in memory. A memory-optimized GSI
//! partition lives entirely on the heap (§6.1.1), so its bytes per entry
//! set how large an index a node can hold. A secondary index keeps one
//! ordered set of (key, doc id) entries and one back index of keys; a
//! primary index keeps the ids alone and a back index of seqnos. Both hold
//! inline doc ids. A Standard partition holds the same on the heap: its
//! change log keeps no index of its own.
//!
//! Runs under a global allocator that tracks the calling thread's live
//! bytes (allocated minus freed), so the harness's other threads do not
//! disturb the count.

// Tests unwrap freely; the crate's unwrap_used deny targets lib code.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use cbs_common::{DocKey, SeqNo, VbId};
use cbs_index::{IndexDef, IndexOp, IndexStorage, Indexer, Projector, Router};
use cbs_json::Value;
use cbs_storage::scratch_dir;

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

const DOCS: u64 = 10_000;
const VBUCKETS: u16 = 16;

/// Live heap per document once `DOCS` documents with 16-byte ids are
/// routed into a partition of `def` kept in `storage`, a batch per vBucket
/// as an index build commits them; `doc(i)` is document `i`'s body.
fn bytes_per_document(def: IndexDef, storage: IndexStorage, doc: impl Fn(u64) -> Value) -> i64 {
    let def = IndexDef { storage, ..def };
    let log_dir = (storage == IndexStorage::Standard).then(|| scratch_dir("gsi-entry-bytes"));
    let partition =
        Arc::new(Indexer::new(VBUCKETS, def.layout(), def.storage, log_dir, "p0").unwrap());
    let router = Router::new(def.clone(), vec![Arc::clone(&partition)]);

    let before = live();
    for vb in 0..VBUCKETS {
        let ops: Vec<IndexOp> = (0..DOCS)
            .filter(|i| i % u64::from(VBUCKETS) == u64::from(vb))
            .map(|i| {
                let doc_id = DocKey::from(format!("user{i:012}"));
                assert_eq!(doc_id.len(), 16);
                let keys = Projector::keys_for(&def, &doc_id, &doc(i));
                IndexOp::Put { doc_id, keys, vb: VbId(vb), seqno: SeqNo(i + 1) }
            })
            .collect();
        router.route(ops).unwrap();
    }
    let per_doc = (live() - before) / DOCS as i64;

    let stats = partition.stats();
    assert_eq!((stats.docs, stats.entries), (DOCS, DOCS));
    per_doc
}

/// A primary index holds each id once in its ordered set and a seqno per
/// id in its back index: no key and no heap block per entry.
#[test]
fn a_primary_index_holds_at_most_128_bytes_per_document() {
    let per_doc =
        bytes_per_document(IndexDef::primary("#p", "b"), IndexStorage::MemoryOptimized, no_body);
    assert!(per_doc <= 128, "{per_doc} B of live heap per indexed document");
}

fn no_body(_: u64) -> Value {
    Value::Null
}

fn email(i: u64) -> Value {
    Value::object([("email", Value::from(format!("mail{i:012}")))])
}

/// A secondary index over one path keeps its `(key, id)` entries and its
/// back index of keys as before: 16-byte string values cost 279 B per
/// document, and this pins that within 5 %.
#[test]
fn a_secondary_index_over_16_byte_strings_holds_at_most_292_bytes_per_document() {
    let def = IndexDef::simple("email", "b", "email");
    let per_doc = bytes_per_document(def, IndexStorage::MemoryOptimized, email);
    assert!(per_doc <= 292, "{per_doc} B of live heap per indexed document");
}

/// Live heap per document of a Standard partition of `def` beyond a
/// memory-optimized one's.
fn standard_over_memory_optimized(def: IndexDef, doc: impl Fn(u64) -> Value) -> i64 {
    let memory = bytes_per_document(def.clone(), IndexStorage::MemoryOptimized, &doc);
    bytes_per_document(def, IndexStorage::Standard, &doc) - memory
}

/// A Standard partition's change log is indexed by the tree alone: it
/// holds no record index of its own, which cost ~90 B per id.
#[test]
fn a_standard_primary_partition_holds_at_most_8_bytes_per_document_more() {
    let extra = standard_over_memory_optimized(IndexDef::primary("#p", "b"), no_body);
    assert!(extra <= 8, "{extra} B of live heap per document beyond memory-optimized");
}

#[test]
fn a_standard_secondary_partition_holds_at_most_8_bytes_per_document_more() {
    let extra = standard_over_memory_optimized(IndexDef::simple("email", "b", "email"), email);
    assert!(extra <= 8, "{extra} B of live heap per document beyond memory-optimized");
}
