//! What an indexed document costs in memory. A memory-optimized GSI
//! partition lives entirely on the heap (§6.1.1), so its bytes per entry
//! set how large an index a node can hold. A secondary index keeps one
//! ordered set of (key, doc id) entries and one back index of keys; a
//! primary index keeps each id once, with its version, in one ordered map.
//! Both hold inline doc ids. A Standard partition holds the same on the
//! heap: its change log keeps no index of its own.
//!
//! Runs under a global allocator that tracks the calling thread's live
//! bytes (allocated minus freed) and their high-water mark, so the
//! harness's other threads do not disturb the count. A process's peak
//! RSS sees the high-water mark, not what is left at the end.

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
    /// The highest `LIVE` has been since the last `reset_peak`.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn add(bytes: i64) {
    let _ = LIVE.try_with(|n| {
        n.set(n.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(n.get())));
    });
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

fn peak() -> i64 {
    PEAK.with(Cell::get)
}

/// Start a new high-water mark at the live count.
fn reset_peak() {
    PEAK.with(|peak| peak.set(live()));
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
        // Counted as the allocation of the new block before the free of the
        // old, which is the most a moving realloc holds at once.
        add(new_size as i64);
        add(-(layout.size() as i64));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

const DOCS: u64 = 10_000;
const VBUCKETS: u16 = 16;

/// Live heap per document of a partition's build, once it is done and at
/// its highest.
struct PerDocument {
    end: i64,
    peak: i64,
}

/// Live heap per document once `docs` documents with 16-byte ids are
/// routed into a partition of `def` kept in `storage`, a batch per vBucket
/// as an index build commits them; `doc(i)` is document `i`'s body.
fn bytes_per_document(
    def: IndexDef,
    storage: IndexStorage,
    docs: u64,
    doc: impl Fn(u64) -> Value,
) -> PerDocument {
    let def = IndexDef { storage, ..def };
    let log_dir = (storage == IndexStorage::Standard).then(|| scratch_dir("gsi-entry-bytes"));
    let partition =
        Arc::new(Indexer::new(VBUCKETS, def.layout(), def.storage, log_dir, "p0").unwrap());
    let router = Router::new(def.clone(), vec![Arc::clone(&partition)]);

    let before = live();
    reset_peak();
    for vb in 0..VBUCKETS {
        let ops: Vec<IndexOp> = (0..docs)
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
    let per_doc = |bytes: i64| bytes / docs as i64;
    let measured = PerDocument { end: per_doc(live() - before), peak: per_doc(peak() - before) };

    let stats = partition.stats();
    assert_eq!((stats.docs, stats.entries), (docs, docs));
    measured
}

/// A primary index holds each id once, with its version, in one ordered
/// map: no key, no heap block per entry and no hash table, so its peak
/// holds no table, nor two while one doubles; it is the end plus the batch
/// being routed.
fn primary_index_bytes(docs: u64) -> PerDocument {
    let def = IndexDef::primary("#p", "b");
    bytes_per_document(def, IndexStorage::MemoryOptimized, docs, no_body)
}

/// 66 B per document at the end and 78 B at the peak, pinned within 10 %.
#[test]
fn a_primary_index_of_10_000_documents_holds_at_most_72_bytes_each_and_85_at_its_peak() {
    let PerDocument { end, peak } = primary_index_bytes(DOCS);
    assert!(end <= 72, "{end} B of live heap per indexed document");
    assert!(peak <= 85, "{peak} B of live heap per indexed document at the build's peak");
}

/// `n1ql_scan_e`'s primary index at the end of its run: 66 B per document
/// at the end and 79 B at the peak, pinned within 10 %.
#[test]
fn a_primary_index_of_18_300_documents_holds_at_most_72_bytes_each_and_86_at_its_peak() {
    let PerDocument { end, peak } = primary_index_bytes(18_300);
    assert!(end <= 72, "{end} B of live heap per indexed document");
    assert!(peak <= 86, "{peak} B of live heap per indexed document at the build's peak");
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
    let per_doc = bytes_per_document(def, IndexStorage::MemoryOptimized, DOCS, email).end;
    assert!(per_doc <= 292, "{per_doc} B of live heap per indexed document");
}

/// Live heap per document of a Standard partition of `def` beyond a
/// memory-optimized one's.
fn standard_over_memory_optimized(def: IndexDef, doc: impl Fn(u64) -> Value) -> i64 {
    let memory = bytes_per_document(def.clone(), IndexStorage::MemoryOptimized, DOCS, &doc);
    bytes_per_document(def, IndexStorage::Standard, DOCS, &doc).end - memory.end
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
