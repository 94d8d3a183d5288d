//! A vBucket's store: its in-memory index over its bucket's log.
//!
//! The documents of all of a bucket's vBuckets share one append-only log
//! ([`BucketStore`](crate::BucketStore)); what is per vBucket is the index:
//! one by-id map of each key's latest record (its offset, length and
//! seqno), the high seqno, the live/stale byte counts that feed the
//! compaction trigger, and the file handle those offsets refer to. Seqno
//! order — warm-up, compaction — is the by-id entries sorted on
//! demand. Reads take the index lock only to look an offset up, then
//! `read_at` the shared file — no lock on the file, no seeks. A compaction switches a vBucket's (file, offsets) pair in one
//! step under the index lock, so a reader can never apply an offset of one
//! generation to the file of another; the old file lives on until the last
//! reader drops its handle.

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::sync::Arc;

use cbs_common::sync::{rank, OrderedMutex};
use cbs_common::{DocKey, KeyMap, Result, SeqNo, VbId};
use cbs_obs::Gauge;

use crate::bucket::BucketLog;
use crate::log::Cycle;
use crate::record::{decode_record_strict, StoredDoc};
use crate::wal::FRAME_PREFIX;

/// Point-in-time statistics for one vBucket store.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StoreStats {
    /// Number of live (non-tombstone) documents.
    pub live_docs: u64,
    /// Number of tombstones currently indexed.
    pub tombstones: u64,
    /// Highest persisted seqno.
    pub high_seqno: SeqNo,
    /// Bytes this vBucket's records occupy in its bucket's log.
    pub file_bytes: u64,
    /// Of those, bytes owned by superseded (stale) or purged records.
    pub stale_bytes: u64,
    /// Compactions of the bucket's log counted against this vBucket: each
    /// run is counted on one vBucket of the log, so the sum over a
    /// store's vBuckets is the number of runs.
    pub compactions: u64,
}

/// A key's latest record, packed to couchstore's by-id width: 16 bytes,
/// so a `(DocKey, IndexEntry)` table entry is 40. The offset and the seqno
/// are 48-bit — the log refuses an append past
/// [`MAX_LOG_LEN`](crate::wal::MAX_LOG_LEN) and the
/// record encoder a seqno past [`SeqNo::MAX`] — and the record's length
/// (at most a header, a 64 KiB key and a 20 MiB value) shares a word with
/// the deleted bit.
struct IndexEntry {
    offset: U48,
    seqno: U48,
    /// The record's length in the low 31 bits, the deleted bit above.
    len_deleted: u32,
}

const DELETED_BIT: u32 = 1 << 31;

impl IndexEntry {
    fn new(offset: u64, len: u32, seqno: SeqNo, deleted: bool) -> IndexEntry {
        assert!(len < DELETED_BIT, "a record's length fits 31 bits");
        let deleted = if deleted { DELETED_BIT } else { 0 };
        IndexEntry {
            offset: U48::new(offset),
            seqno: U48::new(seqno.0),
            len_deleted: len | deleted,
        }
    }

    fn offset(&self) -> u64 {
        self.offset.get()
    }

    fn seqno(&self) -> SeqNo {
        SeqNo(self.seqno.get())
    }

    fn len(&self) -> u32 {
        self.len_deleted & !DELETED_BIT
    }

    fn deleted(&self) -> bool {
        self.len_deleted & DELETED_BIT != 0
    }
}

/// A 48-bit unsigned integer in three 16-bit words: 2-byte aligned, so two
/// of them and a `u32` pack into 16 bytes.
#[derive(Clone, Copy)]
struct U48([u16; 3]);

impl U48 {
    fn new(v: u64) -> U48 {
        assert!(v < 1 << 48, "{v} does not fit 48 bits");
        U48([v as u16, (v >> 16) as u16, (v >> 32) as u16])
    }

    fn get(self) -> u64 {
        let [lo, mid, hi] = self.0.map(u64::from);
        lo | mid << 16 | hi << 32
    }
}

/// A version's seqno and where its record is in a log generation.
#[derive(Clone, Copy)]
pub(crate) struct Place {
    pub seqno: SeqNo,
    /// Offset of the record (behind its vBucket prefix) and its length.
    pub offset: u64,
    pub len: u32,
}

/// One record's place in the log, as the index needs it.
pub(crate) struct Located<'a> {
    pub key: &'a str,
    pub seqno: SeqNo,
    pub deleted: bool,
    /// Offset of the record (behind its vBucket prefix) and its length.
    pub offset: u64,
    pub len: u32,
}

struct Inner {
    /// The log generation every offset below refers to.
    file: Arc<File>,
    /// key → latest record location.
    by_id: KeyMap<IndexEntry>,
    high_seqno: SeqNo,
    file_bytes: u64,
    stale_bytes: u64,
    compactions: u64,
}

/// The index itself; [`VBucketStore`] is the handle callers get.
pub(crate) struct VbIndex {
    inner: OrderedMutex<Inner>,
    /// The store's `mem.storage_index.bytes`: every index's by-id table.
    table_bytes: Arc<Gauge>,
}

impl VbIndex {
    pub(crate) fn new(file: Arc<File>, table_bytes: Arc<Gauge>) -> VbIndex {
        VbIndex {
            table_bytes,
            inner: OrderedMutex::new(
                rank::VB_STORE,
                Inner {
                    file,
                    by_id: KeyMap::default(),
                    high_seqno: SeqNo::ZERO,
                    file_bytes: 0,
                    stale_bytes: 0,
                    compactions: 0,
                },
            ),
        }
    }

    /// Index records that are in `file` at the given offsets.
    pub(crate) fn apply<'a>(&self, file: &Arc<File>, recs: impl Iterator<Item = Located<'a>>) {
        let mut inner = self.inner.lock();
        // Only an index created while a compaction was copying can be a
        // generation behind, and such an index is still empty.
        if !Arc::ptr_eq(&inner.file, file) {
            debug_assert!(inner.by_id.is_empty());
            inner.file = Arc::clone(file);
        }
        for rec in recs {
            let entry = IndexEntry::new(rec.offset, rec.len, rec.seqno, rec.deleted);
            inner.file_bytes += frame_bytes(rec.len);
            match inner.by_id.get_mut(rec.key) {
                Some(prev) => {
                    let stale = frame_bytes(std::mem::replace(prev, entry).len());
                    inner.stale_bytes += stale;
                }
                None => {
                    let bytes = inner.by_id.heap_bytes();
                    inner.by_id.insert(DocKey::from(rec.key), entry);
                    let grown = inner.by_id.heap_bytes() - bytes;
                    if grown > 0 {
                        self.table_bytes.add(grown as u64);
                    }
                }
            }
            inner.high_seqno = inner.high_seqno.max(rec.seqno);
        }
    }

    /// The vBucket was handed off: forget its documents. Their bytes, and
    /// the `marker_bytes` of the purge marker, stay in the log as stale
    /// until the next compaction.
    pub(crate) fn purge(&self, marker_bytes: u64) {
        let mut inner = self.inner.lock();
        self.table_bytes.sub(inner.by_id.heap_bytes() as u64);
        inner.by_id.clear();
        inner.high_seqno = SeqNo::ZERO;
        inner.file_bytes += marker_bytes;
        inner.stale_bytes = inner.file_bytes;
    }

    /// The file and every indexed record newer than `since`, in seqno
    /// order: what `changes_since` reads and a compaction copies. Sized
    /// once, at 24 bytes per indexed record, rather than grown by doubling.
    pub(crate) fn in_seqno_order(&self, since: SeqNo) -> (Arc<File>, Vec<Place>) {
        let inner = self.inner.lock();
        let mut places = Vec::with_capacity(inner.by_id.len());
        places.extend(inner.by_id.values().filter(|e| e.seqno() > since).map(|e| Place {
            seqno: e.seqno(),
            offset: e.offset(),
            len: e.len(),
        }));
        places.sort_unstable_by_key(|p| p.seqno);
        (Arc::clone(&inner.file), places)
    }

    /// The compaction switch: `file` holds exactly the records
    /// [`in_seqno_order`](VbIndex::in_seqno_order) listed, each moved from
    /// the old offset to the new one of its pair in `moved`. A record is
    /// found by its old offset, which no other record of the generation
    /// shares; a seqno can be shared, as the store takes whatever seqnos
    /// its caller gives.
    pub(crate) fn switch(&self, file: Arc<File>, mut moved: Vec<(u64, u64)>) {
        moved.sort_unstable();
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.file_bytes = 0;
        for entry in inner.by_id.values_mut() {
            if let Ok(i) = moved.binary_search_by_key(&entry.offset(), |m| m.0) {
                entry.offset = U48::new(moved[i].1);
                inner.file_bytes += frame_bytes(entry.len());
            }
        }
        inner.stale_bytes = 0;
        inner.file = file;
    }

    /// `(bytes, stale bytes)` of this vBucket's records in the log.
    pub(crate) fn bytes(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.file_bytes, inner.stale_bytes)
    }

    /// True when no document or tombstone is indexed.
    pub(crate) fn is_empty(&self) -> bool {
        self.inner.lock().by_id.is_empty()
    }

    pub(crate) fn count_compaction(&self) {
        self.inner.lock().compactions += 1;
    }

    pub(crate) fn stats(&self) -> StoreStats {
        let inner = self.inner.lock();
        let tombstones = inner.by_id.values().filter(|e| e.deleted()).count() as u64;
        StoreStats {
            live_docs: inner.by_id.len() as u64 - tombstones,
            tombstones,
            high_seqno: inner.high_seqno,
            file_bytes: inner.file_bytes,
            stale_bytes: inner.stale_bytes,
            compactions: inner.compactions,
        }
    }
}

impl Drop for VbIndex {
    fn drop(&mut self) {
        self.table_bytes.sub(self.inner.lock().by_id.heap_bytes() as u64);
    }
}

fn frame_bytes(record_len: u32) -> u64 {
    (FRAME_PREFIX + record_len as usize) as u64
}

fn read_record(file: &File, offset: u64, len: u32) -> Result<StoredDoc> {
    let mut buf = vec![0u8; len as usize];
    file.read_exact_at(&mut buf, offset)?;
    decode_record_strict(&buf)
}

/// Records of one vBucket, listed from its index without touching the log:
/// the file generation the listing was taken in and each record's place in
/// it. The handle keeps that generation readable across a compaction.
pub struct RecordList {
    file: Arc<File>,
    places: Vec<(u64, u32)>,
}

impl RecordList {
    /// Read and decode the listed records, in offset order.
    pub fn read(mut self) -> Result<Vec<StoredDoc>> {
        self.places.sort_unstable();
        self.places.iter().map(|&(offset, len)| read_record(&self.file, offset, len)).collect()
    }
}

/// Handle to one vBucket's store: its index plus the bucket log it lives in.
pub struct VBucketStore {
    pub(crate) vb: VbId,
    pub(crate) log: Arc<BucketLog>,
    pub(crate) index: Arc<VbIndex>,
}

impl VBucketStore {
    /// The vBucket this store belongs to.
    pub fn vb(&self) -> VbId {
        self.vb
    }

    /// Append one mutation (set or tombstone), unsynced. The caller assigns
    /// seqnos; appended in seqno order, a vBucket's versions leave a seqno
    /// prefix behind a torn tail. Like every write to the bucket's log, it
    /// must not race a compaction or purge of the log (see
    /// [`BucketStore`](crate::BucketStore)).
    pub fn persist(&self, doc: &StoredDoc) -> Result<()> {
        self.persist_batch(std::slice::from_ref(doc))
    }

    /// Append a batch of mutations with a single write, unsynced. The
    /// flusher's path is [`BucketStore::commit`](crate::BucketStore::commit),
    /// which also syncs.
    pub fn persist_batch(&self, docs: &[StoredDoc]) -> Result<()> {
        if docs.is_empty() {
            return Ok(());
        }
        let mut cycle = Cycle::new();
        for doc in docs {
            cycle.push_doc(self.vb, doc)?;
        }
        self.log.append(&mut cycle, false).map(drop)
    }

    /// Fetch the latest persisted version of a key (tombstones included:
    /// callers inspect `deleted`). `None` if never written.
    pub fn get(&self, key: &str) -> Result<Option<StoredDoc>> {
        let (file, offset, len) = {
            let inner = self.index.inner.lock();
            let Some(entry) = inner.by_id.get(key) else {
                return Ok(None);
            };
            (Arc::clone(&inner.file), entry.offset(), entry.len())
        };
        read_record(&file, offset, len).map(Some)
    }

    /// Read all persisted mutations with seqno strictly greater than
    /// `since`, in seqno order — the warm-up scan.
    pub fn changes_since(&self, since: SeqNo) -> Result<Vec<StoredDoc>> {
        let (file, places) = self.index.in_seqno_order(since);
        places.into_iter().map(|p| read_record(&file, p.offset, p.len)).collect()
    }

    /// List the latest persisted record of each of `keys` (a key never
    /// written is skipped). No I/O: [`RecordList::read`] does that.
    pub fn locate<'a>(&self, keys: impl IntoIterator<Item = &'a str>) -> RecordList {
        let inner = self.index.inner.lock();
        let places = keys
            .into_iter()
            .filter_map(|k| inner.by_id.get(k))
            .map(|e| (e.offset(), e.len()))
            .collect();
        RecordList { file: Arc::clone(&inner.file), places }
    }

    /// List the latest persisted record of every key `want` accepts whose
    /// seqno is greater than `since`. No I/O, like [`VBucketStore::locate`].
    pub fn locate_since(&self, since: SeqNo, mut want: impl FnMut(&str) -> bool) -> RecordList {
        let inner = self.index.inner.lock();
        let mut places = Vec::new();
        if inner.high_seqno > since {
            places.extend(
                inner
                    .by_id
                    .iter()
                    .filter(|(key, e)| e.seqno() > since && want(key))
                    .map(|(_, e)| (e.offset(), e.len())),
            );
        }
        RecordList { file: Arc::clone(&inner.file), places }
    }

    /// Keys of the persisted live documents (tombstones left out).
    pub fn live_keys(&self) -> Vec<DocKey> {
        let inner = self.index.inner.lock();
        inner.by_id.iter().filter(|(_, e)| !e.deleted()).map(|(k, _)| k.clone()).collect()
    }

    /// Current statistics.
    pub fn stats(&self) -> StoreStats {
        self.index.stats()
    }

    /// Highest persisted seqno (the durability watermark used by
    /// `persist_to` observe polling).
    pub fn high_seqno(&self) -> SeqNo {
        self.index.inner.lock().high_seqno
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::MAX_LOG_LEN;

    /// couchstore's by-id width: a table entry is a 24-byte key and a
    /// 16-byte record place, and every field reads back at its bound.
    #[test]
    fn an_index_entry_is_40_bytes_and_keeps_its_bounds() {
        assert_eq!(std::mem::size_of::<(DocKey, IndexEntry)>(), 40);
        let far = IndexEntry::new(MAX_LOG_LEN - 1, DELETED_BIT - 1, SeqNo::MAX, true);
        assert_eq!(
            (far.offset(), far.len(), far.seqno(), far.deleted()),
            (MAX_LOG_LEN - 1, DELETED_BIT - 1, SeqNo::MAX, true)
        );
        let near = IndexEntry::new(0x1234_5678_9abc, 77, SeqNo(0xfedc_ba98_7654), false);
        assert_eq!(
            (near.offset(), near.len(), near.seqno(), near.deleted()),
            (0x1234_5678_9abc, 77, SeqNo(0xfedc_ba98_7654), false)
        );
    }
}
