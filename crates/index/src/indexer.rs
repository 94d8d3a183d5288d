//! The indexer: the ordered key→doc-id structure behind one GSI partition.
//!
//! "The indexer component processes the changes received from the router
//! and manages the on-disk index tree data structure. It also provides the
//! interface for the query client to run index scans" (§4.3.4).
//!
//! The tree is an ordered set in row order, in one of two [`Layout`]s. A
//! secondary index keeps `(key, doc id)` entries, [`IndexKey`] under N1QL
//! collation first and the id second, and a back index (doc → its seqno
//! and current keys) that lets updates and deletes remove stale entries.
//! An index over the id alone (a primary index) keeps each id once: a live
//! one in one ordered map of versions, which is both its tree and its back
//! index, a removed one among the tombstones. No key and no heap block per
//! entry.
//! Doc ids are [`DocKey`]s, inline up to 22 bytes. A per-vBucket seqno
//! [`Watermarks`] vector beside the tree is what `request_plus` waits on —
//! without touching the tree lock.
//!
//! # Batches, the change log and recovery
//!
//! Changes arrive as batches of [`IndexOp`]s ([`Indexer::apply_batch`]);
//! a single mutation is a batch of one. The batch is the durability unit.
//! In [`IndexStorage::Standard`] mode the partition owns a change log: a
//! [`CommitLog`] at `<name>.gsi/shard_0.couch`, the file and writer
//! protocol of a KV data log (CRC-framed records, sliced commits, torn-tail
//! recovery, the rename swap), one record per logged op:
//!
//! ```text
//! | vb u16 LE | record: key = doc id, seqno,
//! |           |   value = keys as JSON `[[[c0],[],[c2]], ...]` (`[]` = MISSING),
//! |           |   empty for a doc indexed under its id alone ([`IndexKey::ID`]),
//! |           |   a tombstone when the doc has no keys here;
//! |           |   flags = 1 on the empty key: the vBucket's watermark record
//! ```
//!
//! `apply_batch` is write-ahead, under the partition's writer lock: it logs
//! what the batch changes as one cycle (one fsync) with the tree lock not
//! held, then mutates the tree under a single acquisition — each watermark
//! advancing right behind its op — and wakes waiters once. A scan never
//! queues behind an fsync, a watermark never runs ahead of the synced log,
//! and a failed commit leaves tree and watermarks untouched.
//! [`IndexStorage::MemoryOptimized`] is the same path with no log — the
//! disk dependence §6.1.1 removes.
//!
//! The tree is the log's only index. [`Indexer::recover`] replays every
//! record in file order through the same filter and apply as a live batch:
//! apply keeps the highest seqno per document and a watermark record raises
//! its vBucket's mark, so no order of the records is needed. The filter
//! logs only what an op changes, which keeps the log small. Once the log
//! holds 1 / (1 − [`BucketStore::FRAGMENTATION_THRESHOLD`]) times the
//! records its rewrite would, the writer rewrites it *from the tree*: each
//! held document's version under the vBucket it came from, then a
//! watermark record for each vBucket whose mark no document record carries
//! (DESIGN.md decision 9).

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::path::{Path, PathBuf};

use cbs_common::sync::{rank, OrderedMutex, Watermarks};
use cbs_common::{Deadline, DocKey, DocMeta, Error, KeyMap, Result, SeqNo, VbId};
use cbs_json::{cmp_str, cmp_values, Value};
use cbs_storage::{BucketStore, CommitLog, Cycle, StoredDoc, CYCLE_SLICE};

use crate::defs::{IndexKey, IndexStorage, Layout, ScanConsistency, ScanRange};

/// One scan result row.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexEntry {
    /// The composite index key (usable for covering scans, §5.1.2);
    /// [`IndexKey::ID`] in an index over the id alone, whose key is
    /// `doc_id`.
    pub key: IndexKey,
    /// The document ID ("An index simply returns the document ID for each
    /// attribute match", §4.5.1).
    pub doc_id: DocKey,
}

/// What the optimizer's statistics layer reads off one partition: entry
/// counts plus the leading-key value bounds for selectivity interpolation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IndexCardinality {
    /// Live (key, doc) entries.
    pub entries: u64,
    /// Distinct composite keys.
    pub distinct_keys: u64,
    /// Smallest leading-key value present.
    pub min_leading: Option<cbs_json::Value>,
    /// Largest leading-key value present.
    pub max_leading: Option<cbs_json::Value>,
}

/// Point-in-time indexer statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexerStats {
    /// Distinct (key, doc) entries.
    pub entries: u64,
    /// Distinct documents indexed.
    pub docs: u64,
    /// Mutations applied (inserts + updates + deletes).
    pub applied: u64,
    /// Scans served.
    pub scans: u64,
    /// Disk syncs performed: one per batch that logged anything.
    pub disk_syncs: u64,
}

/// One change to one partition — what the router hands over and what the
/// change log records.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexOp {
    /// As of `seqno`, `doc_id` is indexed under exactly `keys` (array
    /// indexes emit several; an index over the id alone, [`IndexKey::ID`]).
    /// Empty `keys` removes it: deleted, filtered out, leading key MISSING,
    /// or moved to another partition.
    Put {
        /// Document ID.
        doc_id: DocKey,
        /// The document's current keys in this partition.
        keys: Vec<IndexKey>,
        /// Originating vBucket.
        vb: VbId,
        /// Mutation seqno.
        seqno: SeqNo,
    },
    /// No entry changes, but the partition has now seen `vb` up to `seqno`
    /// (the high seqno of a backfill snapshot).
    Advance {
        /// vBucket.
        vb: VbId,
        /// Seqno reached.
        seqno: SeqNo,
    },
}

/// `meta.flags` of a log record that only advances a watermark.
const LOG_FLAG_ADVANCE: u32 = 1;

impl IndexOp {
    fn position(&self) -> (VbId, SeqNo) {
        match self {
            IndexOp::Put { vb, seqno, .. } | IndexOp::Advance { vb, seqno } => (*vb, *seqno),
        }
    }

    /// Encode the op's log record straight into `cycle`.
    fn push_record(&self, cycle: &mut Cycle) -> Result<()> {
        match self {
            IndexOp::Put { doc_id, keys, vb, seqno } => {
                push_version(cycle, *vb, doc_id, *seqno, keys)
            }
            IndexOp::Advance { vb, seqno } => push_mark(cycle, *vb, *seqno),
        }
    }

    /// Decode a record of a partition in `layout`; a live record that does
    /// not fit it, an id alone in a secondary index's log or a key list in
    /// a primary one's, is refused.
    fn from_record(vb: VbId, layout: Layout, doc: StoredDoc) -> Result<IndexOp> {
        let seqno = doc.meta.seqno;
        if doc.meta.flags == LOG_FLAG_ADVANCE {
            return Ok(IndexOp::Advance { vb, seqno });
        }
        let keys = match (doc.deleted, layout) {
            (true, _) => Vec::new(),
            (false, Layout::Keys) => keys_from_json(&doc.value)?,
            (false, Layout::Ids) if doc.value.is_empty() => vec![IndexKey::ID],
            (false, Layout::Ids) => {
                return Err(Error::Index("index log: a key list in a primary index".to_string()))
            }
        };
        Ok(IndexOp::Put { doc_id: DocKey::from(doc.key), keys, vb, seqno })
    }
}

/// Encode the record of `doc_id`, indexed under exactly `keys` as of
/// `seqno`, straight into `cycle`.
fn push_version(
    cycle: &mut Cycle,
    vb: VbId,
    doc_id: &str,
    seqno: SeqNo,
    keys: &[IndexKey],
) -> Result<()> {
    let meta = DocMeta { seqno, ..Default::default() };
    match keys {
        // A document with no keys here is a tombstone.
        [] => cycle.push(vb, doc_id, &meta, true, &[]),
        [key] if *key == IndexKey::ID => cycle.push(vb, doc_id, &meta, false, &[]),
        keys => cycle.push(vb, doc_id, &meta, false, keys_to_json(keys).as_bytes()),
    }
}

/// Encode a record that only raises `vb`'s watermark to `seqno`: the
/// vBucket's empty key, flagged.
fn push_mark(cycle: &mut Cycle, vb: VbId, seqno: SeqNo) -> Result<()> {
    let meta = DocMeta { seqno, flags: LOG_FLAG_ADVANCE, ..Default::default() };
    cycle.push(vb, "", &meta, false, &[])
}

/// `[[[c0],[],[c2]], ...]`: one array per key, one array per component,
/// empty for MISSING (which JSON itself cannot spell).
fn keys_to_json(keys: &[IndexKey]) -> String {
    let components = |k: &IndexKey| {
        Value::Array(k.0.iter().map(|c| Value::Array(c.iter().cloned().collect())).collect())
    };
    Value::Array(keys.iter().map(components).collect()).to_json_string()
}

fn keys_from_json(bytes: &[u8]) -> Result<Vec<IndexKey>> {
    let bad = || Error::Index("index log: malformed key list".to_string());
    let text = std::str::from_utf8(bytes).map_err(|_| bad())?;
    let parsed = cbs_json::parse(text).map_err(|_| bad())?;
    let Value::Array(keys) = parsed else { return Err(bad()) };
    keys.into_iter()
        .map(|key| {
            let Value::Array(components) = key else { return Err(bad()) };
            components
                .into_iter()
                .map(|c| match c {
                    Value::Array(mut one) if one.len() <= 1 => Ok(one.pop()),
                    _ => Err(bad()),
                })
                .collect::<Result<Vec<_>>>()
                .map(IndexKey)
        })
        .collect()
}

/// A partition's live entries in scan order, and its back index: the seqno
/// of the version of each document it holds, a tombstone's included, and
/// the vBucket that version came from. The seqno makes apply idempotent
/// and order-tolerant per document, so catch-up backfills can interleave
/// with the live DCP feed safely — and a replay of the change log needs no
/// ordering of its own. The vBucket is where a rewrite of the log puts the
/// document's record: a replayed record raises its vBucket's watermark.
trait Entries: Send {
    /// The seqno of the version of `doc_id` held, if any.
    fn version(&self, doc_id: &str) -> Option<SeqNo>;

    /// Index `doc_id` under exactly `keys` as of `vb`'s `seqno`, unless
    /// the version held is as new: then nothing changes and this is false.
    fn put(&mut self, doc_id: DocKey, keys: Vec<IndexKey>, vb: VbId, seqno: SeqNo) -> bool;

    /// Documents held, tombstones included.
    fn held(&self) -> u64;

    /// The version of `doc_id` held, if any, with its keys.
    fn held_version(&self, doc_id: &str) -> Option<Held<'_>>;

    /// Visit every document held, tombstones included.
    fn visit(&self, visit: &mut dyn FnMut(&DocKey, Held<'_>));

    /// Live entries, and documents that have one.
    fn counts(&self) -> (u64, u64);

    fn cardinality(&self) -> IndexCardinality;

    /// Range scan over the leading key, in row order; at most `limit` rows.
    fn scan(&self, range: &ScanRange, limit: usize) -> Vec<IndexEntry>;
}

#[cfg(test)]
thread_local! {
    /// Back-index entries this thread has visited or looked up.
    static BACK_INDEX_STEPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// One step through a back index: what a rewrite's cost is counted in.
fn count_back_index_step() {
    #[cfg(test)]
    BACK_INDEX_STEPS.with(|steps| steps.set(steps.get() + 1));
}

/// The version of one document the back index holds.
struct Held<'a> {
    seqno: SeqNo,
    vb: VbId,
    /// Its keys in this partition: none for a tombstone.
    keys: &'a [IndexKey],
}

/// One live entry: the composite key, then the document it came from.
/// Tuple order is scan order.
type Entry = (IndexKey, DocKey);

/// A secondary index's entries ([`Layout::Keys`]).
#[derive(Default)]
struct KeyEntries {
    /// Every live entry — one per (key, doc) pair, a document with several
    /// keys (an array index) having several.
    entries: BTreeSet<Entry>,
    /// The back index: doc → (seqno, vBucket, its keys). The keys live as
    /// long as the document is indexed, so they are held without spare
    /// capacity.
    docs: KeyMap<(SeqNo, VbId, Box<[IndexKey]>)>,
    /// Distinct composite keys in `entries`, and documents with an entry.
    /// Both are maintained on insert and remove, so stats and cardinality
    /// snapshots stay O(1) under the tree lock.
    distinct_keys: u64,
    indexed_docs: u64,
}

impl KeyEntries {
    fn remove_doc(&mut self, doc_id: &str) {
        let Some((mut id, (_, _, keys))) = self.docs.remove_entry(doc_id) else { return };
        self.indexed_docs -= u64::from(!keys.is_empty());
        for key in keys.into_vec() {
            // The id moves through each probe instead of being cloned: a
            // long one is a heap allocation.
            let entry = (key, id);
            if self.entries.remove(&entry) && !self.key_has_other_entries(&entry) {
                self.distinct_keys -= 1;
            }
            id = entry.1;
        }
    }

    fn insert(&mut self, entry: Entry) {
        let shared = self.key_has_other_entries(&entry);
        if self.entries.insert(entry) && !shared {
            self.distinct_keys += 1;
        }
    }

    /// Whether a document other than `entry`'s has an entry under its key:
    /// such an entry is `entry`'s neighbour in the set.
    fn key_has_other_entries(&self, entry: &Entry) -> bool {
        let same_key = |e: Option<&Entry>| e.is_some_and(|(k, _)| k.cmp(&entry.0).is_eq());
        same_key(self.entries.range(..entry).next_back())
            || same_key(self.entries.range((Bound::Excluded(entry), Bound::Unbounded)).next())
    }
}

impl Entries for KeyEntries {
    fn version(&self, doc_id: &str) -> Option<SeqNo> {
        self.docs.get(doc_id).map(|(seqno, ..)| *seqno)
    }

    fn put(&mut self, doc_id: DocKey, keys: Vec<IndexKey>, vb: VbId, seqno: SeqNo) -> bool {
        if self.version(&doc_id).is_some_and(|held| held >= seqno) {
            return false;
        }
        self.remove_doc(&doc_id);
        for key in &keys {
            self.insert((key.clone(), doc_id.clone()));
        }
        self.indexed_docs += u64::from(!keys.is_empty());
        // Kept even when `keys` is empty: the tombstone's seqno stops
        // late-arriving older versions resurrecting entries.
        self.docs.insert(doc_id, (seqno, vb, keys.into_boxed_slice()));
        true
    }

    fn held(&self) -> u64 {
        self.docs.len() as u64
    }

    fn held_version(&self, doc_id: &str) -> Option<Held<'_>> {
        count_back_index_step();
        let (seqno, vb, keys) = self.docs.get(doc_id)?;
        Some(Held { seqno: *seqno, vb: *vb, keys })
    }

    fn visit(&self, visit: &mut dyn FnMut(&DocKey, Held<'_>)) {
        for (id, (seqno, vb, keys)) in self.docs.iter() {
            count_back_index_step();
            visit(id, Held { seqno: *seqno, vb: *vb, keys });
        }
    }

    fn counts(&self) -> (u64, u64) {
        (self.entries.len() as u64, self.indexed_docs)
    }

    fn cardinality(&self) -> IndexCardinality {
        let leading = |e: Option<&Entry>| e.and_then(|(k, _)| k.leading().cloned());
        IndexCardinality {
            entries: self.entries.len() as u64,
            distinct_keys: self.distinct_keys,
            min_leading: leading(self.entries.first()),
            max_leading: leading(self.entries.last()),
        }
    }

    fn scan(&self, range: &ScanRange, limit: usize) -> Vec<IndexEntry> {
        let mut out = Vec::new();
        // Seek straight to the lower bound instead of walking from the
        // smallest entry: `(IndexKey([low]), "")` sorts at-or-before every
        // entry whose leading component is >= low (equal prefixes order by
        // length, and "" is the smallest id), so everything below the range
        // is skipped in O(log n). An exclusive low bound still filters
        // below; that only re-checks the boundary value's entries.
        let seek =
            range.low.as_ref().map(|low| (IndexKey(vec![Some(low.clone())]), DocKey::from("")));
        let lower = seek.as_ref().map_or(Bound::Unbounded, Bound::Included);
        for (key, doc_id) in self.entries.range((lower, Bound::Unbounded)) {
            let Some(leading) = key.leading() else { continue };
            // Early exit once past the upper bound (B-tree order).
            if !range.below_high(|high| cmp_values(leading, high)) {
                break;
            }
            if !range.above_low(|low| cmp_values(leading, low)) {
                continue;
            }
            out.push(IndexEntry { key: key.clone(), doc_id: doc_id.clone() });
            if out.len() == limit {
                break;
            }
        }
        out
    }
}

/// An index over the id alone ([`Layout::Ids`]): each held document's id
/// once, with the seqno and vBucket of its version. A live id is in the
/// ordered map, which is both the tree and the back index; a removed one
/// is in the tombstones only. The id is the key, so an entry's key is
/// [`IndexKey::ID`].
#[derive(Default)]
struct IdEntries {
    live: BTreeMap<DocKey, (SeqNo, VbId)>,
    /// Kept for a removal: the tombstone's seqno stops late-arriving older
    /// versions resurrecting the id.
    tombstones: KeyMap<(SeqNo, VbId)>,
}

/// The keys of a live document in an index over the id alone.
const ID_ALONE: &[IndexKey] = &[IndexKey::ID];

impl IdEntries {
    /// Where the ids inside `range` start, or `None` when no id can be
    /// inside it. Every id collates as a string, so a low bound of another
    /// type is below all of them or above all of them.
    fn seek(range: &ScanRange) -> Option<Bound<&str>> {
        match &range.low {
            None => Some(Bound::Unbounded),
            Some(Value::String(low)) if range.low_inclusive => Some(Bound::Included(low)),
            Some(Value::String(low)) => Some(Bound::Excluded(low)),
            Some(low) => cmp_str("", low).is_gt().then_some(Bound::Unbounded),
        }
    }
}

impl Entries for IdEntries {
    fn version(&self, doc_id: &str) -> Option<SeqNo> {
        self.live.get(doc_id).or_else(|| self.tombstones.get(doc_id)).map(|(seqno, _)| *seqno)
    }

    fn put(&mut self, doc_id: DocKey, keys: Vec<IndexKey>, vb: VbId, seqno: SeqNo) -> bool {
        if self.version(&doc_id).is_some_and(|held| held >= seqno) {
            return false;
        }
        // Each held id is in exactly one of the two maps.
        if keys.is_empty() {
            self.live.remove(&doc_id);
            self.tombstones.insert(doc_id, (seqno, vb));
        } else {
            self.tombstones.remove(&doc_id);
            self.live.insert(doc_id, (seqno, vb));
        }
        true
    }

    fn held(&self) -> u64 {
        (self.live.len() + self.tombstones.len()) as u64
    }

    fn held_version(&self, doc_id: &str) -> Option<Held<'_>> {
        count_back_index_step();
        if let Some(&(seqno, vb)) = self.live.get(doc_id) {
            return Some(Held { seqno, vb, keys: ID_ALONE });
        }
        let &(seqno, vb) = self.tombstones.get(doc_id)?;
        Some(Held { seqno, vb, keys: &[] })
    }

    fn visit(&self, visit: &mut dyn FnMut(&DocKey, Held<'_>)) {
        let live = self.live.iter().map(|(id, version)| (id, version, ID_ALONE));
        let removed = self.tombstones.iter().map(|(id, version)| (id, version, &[][..]));
        for (id, &(seqno, vb), keys) in live.chain(removed) {
            count_back_index_step();
            visit(id, Held { seqno, vb, keys });
        }
    }

    fn counts(&self) -> (u64, u64) {
        (self.live.len() as u64, self.live.len() as u64)
    }

    fn cardinality(&self) -> IndexCardinality {
        let leading = |id: Option<(&DocKey, _)>| id.map(|(id, _)| Value::from(id.as_str()));
        IndexCardinality {
            entries: self.live.len() as u64,
            distinct_keys: self.live.len() as u64,
            min_leading: leading(self.live.first_key_value()),
            max_leading: leading(self.live.last_key_value()),
        }
    }

    fn scan(&self, range: &ScanRange, limit: usize) -> Vec<IndexEntry> {
        let Some(start) = IdEntries::seek(range) else { return Vec::new() };
        let from = self.live.range::<str, _>((start, Bound::Unbounded)).map(|(id, _)| id);
        let inside = from.take_while(|id| range.below_high(|high| cmp_str(id, high)));
        let row = |id: &DocKey| IndexEntry { key: IndexKey::ID, doc_id: id.clone() };
        inside.take(if limit == 0 { usize::MAX } else { limit }).map(row).collect()
    }
}

struct Tree {
    entries: Box<dyn Entries>,
    stats: IndexerStats,
}

impl Tree {
    /// A stale or filtered-out mutation changes nothing here, and still
    /// counts for consistency: the caller advances the watermark to
    /// [`IndexOp::position`] either way.
    fn apply_op(&mut self, op: IndexOp) {
        if let IndexOp::Put { doc_id, keys, vb, seqno } = op {
            self.stats.applied += u64::from(self.entries.put(doc_id, keys, vb, seqno));
        }
    }
}

/// A Standard partition's change log, behind the partition's writer lock.
struct PartitionLog {
    file: CommitLog,
    /// Records in the file.
    records: u64,
    /// Watermark records the last rewrite wrote: with one record per
    /// document held, what the trigger takes a rewrite to write.
    marks: u64,
}

impl PartitionLog {
    /// Whether the records a rewrite would drop have reached the store's
    /// fragmentation threshold, with `held` documents in the tree.
    fn fragmented(&self, held: u64) -> bool {
        let live = held + self.marks;
        self.records > live
            && (self.records - live) as f64 / self.records as f64
                >= BucketStore::FRAGMENTATION_THRESHOLD
    }
}

/// The log file of a partition whose log directory is `dir`.
fn log_file(dir: &Path) -> PathBuf {
    dir.join("shard_0.couch")
}

/// A replay applies the log's records this many at a time.
const REPLAY_BATCH: usize = 4096;

/// One index partition's storage + watermark state.
pub struct Indexer {
    tree: OrderedMutex<Tree>,
    /// Per vBucket, the seqno up to which the tree has seen the source.
    /// Advanced only after the op is in the tree (and, in Standard mode, in
    /// the synced log).
    marks: Watermarks,
    /// The change log, behind the partition's writer lock; `None` in
    /// memory-optimized mode.
    log: Option<OrderedMutex<PartitionLog>>,
}

impl Indexer {
    /// Create an empty indexer for `num_vbuckets` partitions of the source
    /// bucket. `log_dir` is required for [`IndexStorage::Standard`]; a log
    /// left there under the same `name` belongs to some earlier index, and
    /// its directory is removed if it holds any record
    /// ([`Indexer::recover`] is the way to keep it).
    pub fn new(
        num_vbuckets: u16,
        layout: Layout,
        storage: IndexStorage,
        log_dir: Option<PathBuf>,
        name: &str,
    ) -> Result<Indexer> {
        let mut indexer = Indexer::empty(num_vbuckets, layout);
        if storage == IndexStorage::Standard {
            let dir = log_dir
                .ok_or_else(|| Error::Index("standard GSI requires a log dir".to_string()))?
                .join(format!("{name}.gsi"));
            let mut held = false;
            let mut file = CommitLog::open(log_file(&dir), |_, _| held = true)?;
            if held {
                drop(file);
                std::fs::remove_dir_all(&dir)?;
                file = CommitLog::open(log_file(&dir), |_, _| {})?;
            }
            indexer.hold_log(PartitionLog { file, records: 0, marks: 0 });
        }
        Ok(indexer)
    }

    /// Reopen a Standard-mode indexer on the log a previous instance left
    /// in `log_dir`: the log's torn tail is cut off, and every intact record
    /// goes, in file order, through the same filter and apply as a live
    /// batch, which refuses a vBucket the bucket lacks. Tree and watermarks
    /// come back exactly as of the last synced batch (plus whatever of an
    /// unsynced one reached the file whole); `applied` counts one version
    /// per document held.
    pub fn recover(
        num_vbuckets: u16,
        layout: Layout,
        log_dir: &Path,
        name: &str,
    ) -> Result<Indexer> {
        let mut indexer = Indexer::empty(num_vbuckets, layout);
        let (mut batch, mut records, mut replayed) = (Vec::new(), 0u64, Ok(()));
        let path = log_file(&log_dir.join(format!("{name}.gsi")));
        let file = CommitLog::open(path, |vb, doc| {
            records += 1;
            if replayed.is_ok() {
                replayed = IndexOp::from_record(vb, layout, doc).and_then(|op| {
                    batch.push(op);
                    if batch.len() < REPLAY_BATCH {
                        return Ok(());
                    }
                    indexer.replay(std::mem::take(&mut batch))
                });
            }
        })?;
        replayed.and_then(|()| indexer.replay(batch))?;
        let mut t = indexer.tree.lock();
        t.stats.applied = t.entries.held();
        drop(t);
        indexer.hold_log(PartitionLog { file, records, marks: 0 });
        Ok(indexer)
    }

    fn empty(num_vbuckets: u16, layout: Layout) -> Indexer {
        let entries: Box<dyn Entries> = match layout {
            Layout::Keys => Box::<KeyEntries>::default(),
            Layout::Ids => Box::<IdEntries>::default(),
        };
        Indexer {
            tree: OrderedMutex::new(
                rank::INDEX_TREE,
                Tree { entries, stats: IndexerStats::default() },
            ),
            marks: Watermarks::new("GSI partition", num_vbuckets),
            log: None,
        }
    }

    fn hold_log(&mut self, log: PartitionLog) {
        self.log = Some(OrderedMutex::new(rank::INDEX_LOG_WRITER, log));
    }

    /// Replayed records into the tree, as a batch that is already logged.
    fn replay(&self, ops: Vec<IndexOp>) -> Result<()> {
        let ops = self.durable_changes(ops)?;
        self.apply_ops(&mut self.tree.lock(), ops);
        Ok(())
    }

    /// Apply a batch of changes in order. In Standard mode, under the
    /// partition's writer lock: log what the batch changes (one cycle, one
    /// sync, tree lock not held), apply it to the tree under one lock
    /// acquisition, then rewrite the log if enough of it is superseded. On
    /// a failed commit nothing is applied and no watermark moves.
    pub fn apply_batch(&self, ops: Vec<IndexOp>) -> Result<()> {
        let Some(log) = &self.log else {
            self.apply_ops(&mut self.tree.lock(), ops);
            return Ok(());
        };
        let mut log = log.lock();
        let ops = self.durable_changes(ops)?;
        let mut cycle = Cycle::new();
        let filled = ops.iter().try_for_each(|op| {
            op.push_record(&mut cycle)?;
            if cycle.buffered_bytes() >= CYCLE_SLICE {
                log.file.append_slice(&mut cycle)?;
            }
            Ok(())
        });
        if let Err(e) = filled.and_then(|()| log.file.commit(&mut cycle).map(drop)) {
            log.file.abandon(&mut cycle);
            return Err(e);
        }
        log.records += ops.len() as u64;
        let mut t = self.tree.lock();
        t.stats.disk_syncs += u64::from(!ops.is_empty());
        self.apply_ops(&mut t, ops);
        let held = t.entries.held();
        drop(t);
        if log.fragmented(held) {
            // lint:allow(guard-blocking): as the KV shard's flush lock does,
            // the writer lock keeps commits out of the rewrite's swap, which
            // would lose them with the old file. A failed rewrite changes
            // nothing.
            let _ = self.rewrite(&mut log);
        }
        Ok(())
    }

    /// Rewrite the change log from the tree, after the batch it follows is
    /// applied and with the writer lock held, so the tree and watermarks
    /// stand still: each held document's version, tombstones included,
    /// under the vBucket it came from, then a watermark record for each
    /// vBucket whose mark no document record carries. A replay of the new
    /// file rebuilds the same tree and watermarks. The tree lock is taken
    /// once per slice and never held across a write. A hash table keeps no
    /// cursor across a release of its lock, so the held ids are copied
    /// once, in one walk of the back index, and each slice looks up the
    /// next of them: a rewrite costs two back-index steps per document,
    /// and the copy lives only as long as the rewrite. A failed rewrite
    /// leaves the log as it was.
    fn rewrite(&self, log: &mut PartitionLog) -> Result<()> {
        let _s = cbs_obs::span("index.log.rewrite");
        let fresh = log.file.rewrite()?;
        let marks = self.marks.snapshot();
        // Per vBucket, the highest seqno a document record carries.
        let mut carried = vec![SeqNo::ZERO; marks.len()];
        let (mut cycle, mut written) = (Cycle::new(), 0u64);
        let mut ids = Vec::new();
        self.tree.lock().entries.visit(&mut |id, _| ids.push(id.clone()));
        let mut ids = ids.iter();
        while ids.len() > 0 {
            let t = self.tree.lock();
            // The writer lock is held: every id is still there.
            for held_id in ids.by_ref() {
                let Some(held) = t.entries.held_version(held_id) else { continue };
                push_version(&mut cycle, held.vb, held_id, held.seqno, held.keys)?;
                if let Some(high) = carried.get_mut(held.vb.index()) {
                    *high = (*high).max(held.seqno);
                }
                written += 1;
                if cycle.buffered_bytes() >= CYCLE_SLICE {
                    break;
                }
            }
            drop(t);
            fresh.append(&mut cycle)?;
        }
        let mut mark_records = 0;
        for (vb, (mark, high)) in marks.into_iter().zip(carried).enumerate() {
            if mark > high {
                push_mark(&mut cycle, VbId(vb as u16), mark)?;
                mark_records += 1;
            }
            if cycle.buffered_bytes() >= CYCLE_SLICE {
                fresh.append(&mut cycle)?;
            }
        }
        fresh.append(&mut cycle)?;
        log.file.install(fresh, |_| ())?;
        log.records = written + mark_records;
        log.marks = mark_records;
        Ok(())
    }

    /// What of `ops` changes what a reopen rebuilds: a `Put` newer than the
    /// version the back index — or an earlier op of the batch — holds, else
    /// the watermark an op raises, as an `Advance`. Nothing else changes
    /// the tree or a watermark either, so what is logged is all there is
    /// to apply. Read under one tree-lock acquisition.
    fn durable_changes(&self, ops: Vec<IndexOp>) -> Result<Vec<IndexOp>> {
        let mut marks = self.marks.snapshot();
        let mut newest: KeyMap<SeqNo> = KeyMap::default();
        let mut changes = Vec::with_capacity(ops.len());
        let t = self.tree.lock();
        for op in ops {
            let (vb, seqno) = op.position();
            let num_vbuckets = marks.len();
            let mark = marks.get_mut(vb.index()).ok_or_else(|| {
                Error::Index(format!("vBucket {} but the bucket has {num_vbuckets}", vb.0))
            })?;
            let raises = seqno > *mark;
            *mark = (*mark).max(seqno);
            if let IndexOp::Put { doc_id, .. } = &op {
                let held = newest.get(doc_id).copied().or_else(|| t.entries.version(doc_id));
                if held.is_none_or(|held| seqno > held) {
                    newest.insert(doc_id.clone(), seqno);
                    changes.push(op);
                    continue;
                }
            }
            if raises {
                changes.push(IndexOp::Advance { vb, seqno });
            }
        }
        Ok(changes)
    }

    /// Ops into the tree, each watermark moving right behind its op — never
    /// ahead of it, so a scan that follows a satisfied wait sees the entries
    /// — and one wake-up after the last.
    fn apply_ops(&self, t: &mut Tree, ops: Vec<IndexOp>) {
        self.marks.advance_all(ops.into_iter().map(|op| {
            let reached = op.position();
            t.apply_op(op);
            reached
        }));
    }

    /// Wait until the index is caught up to the required consistency point
    /// (`request_plus` = the seqno vector snapshotted at query admission).
    pub fn wait_consistent(&self, consistency: &ScanConsistency, deadline: Deadline) -> Result<()> {
        match consistency {
            ScanConsistency::AtPlus(target) => self.marks.wait_all(target, deadline),
            ScanConsistency::NotBounded => Ok(()),
        }
    }

    /// Range scan over the leading key. Entries come back in full collation
    /// order, ties by doc id; `limit` of 0 means unlimited.
    pub fn scan(&self, range: &ScanRange, limit: usize) -> Vec<IndexEntry> {
        let mut t = self.tree.lock();
        t.stats.scans += 1;
        t.entries.scan(range, limit)
    }

    /// Current watermark vector.
    pub fn watermarks(&self) -> Vec<SeqNo> {
        self.marks.snapshot()
    }

    /// The seqno up to which the partition has seen `vb`.
    pub fn watermark(&self, vb: VbId) -> SeqNo {
        self.marks.get(vb)
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> IndexerStats {
        let t = self.tree.lock();
        let (entries, docs) = t.entries.counts();
        IndexerStats { entries, docs, ..t.stats }
    }

    /// O(1) cardinality snapshot for the cost-based optimizer: live entry
    /// count, distinct composite keys, and the min/max leading-key values
    /// (an id, as a string, in an index over the id alone).
    pub fn cardinality(&self) -> IndexCardinality {
        self.tree.lock().entries.cardinality()
    }

    /// Every document the partition has a version of — tombstones
    /// included — with that version's seqno and keys, sorted by id: the
    /// whole state behind the tree, for equivalence and recovery checks.
    pub fn doc_versions(&self) -> Vec<(DocKey, SeqNo, Vec<IndexKey>)> {
        let mut out = Vec::new();
        self.tree.lock().entries.visit(&mut |id, held| {
            out.push((id.clone(), held.seqno, held.keys.to_vec()));
        });
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Directory of the on-disk change log (Standard mode).
    pub fn log_path(&self) -> Option<PathBuf> {
        let dir = |log: &OrderedMutex<PartitionLog>| {
            log.lock().file.path().parent().map(Path::to_path_buf)
        };
        self.log.as_ref().and_then(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_json::Value;
    use std::time::Duration;

    fn key1(v: Value) -> IndexKey {
        IndexKey(vec![Some(v)])
    }

    fn after_ms(ms: u64) -> Deadline {
        Deadline::after(Duration::from_millis(ms))
    }

    fn memopt() -> Indexer {
        Indexer::new(8, Layout::Keys, IndexStorage::MemoryOptimized, None, "t").unwrap()
    }

    fn put(doc_id: &str, keys: Vec<IndexKey>, vb: VbId, seqno: SeqNo) -> IndexOp {
        IndexOp::Put { doc_id: doc_id.into(), keys, vb, seqno }
    }

    /// The per-item path: a batch of one.
    fn update(idx: &Indexer, doc_id: &str, keys: Vec<IndexKey>, vb: VbId, seqno: SeqNo) {
        idx.apply_batch(vec![put(doc_id, keys, vb, seqno)]).unwrap();
    }

    fn remove(idx: &Indexer, doc_id: &str, vb: VbId, seqno: SeqNo) {
        update(idx, doc_id, Vec::new(), vb, seqno);
    }

    fn advance(idx: &Indexer, vb: VbId, seqno: SeqNo) {
        idx.apply_batch(vec![IndexOp::Advance { vb, seqno }]).unwrap();
    }

    #[test]
    fn update_and_scan() {
        let idx = memopt();
        update(&idx, "d1", vec![key1(Value::int(10))], VbId(0), SeqNo(1));
        update(&idx, "d2", vec![key1(Value::int(20))], VbId(0), SeqNo(2));
        update(&idx, "d3", vec![key1(Value::int(30))], VbId(1), SeqNo(1));
        let all = idx.scan(&ScanRange::all(), 0);
        let ids: Vec<&str> = all.iter().map(|e| e.doc_id.as_str()).collect();
        assert_eq!(ids, ["d1", "d2", "d3"], "collation order");
        let some = idx.scan(
            &ScanRange {
                low: Some(Value::int(15)),
                low_inclusive: true,
                high: Some(Value::int(30)),
                high_inclusive: false,
            },
            0,
        );
        assert_eq!(some.len(), 1);
        assert_eq!(some[0].doc_id, "d2");
    }

    #[test]
    fn update_replaces_old_keys() {
        let idx = memopt();
        update(&idx, "d1", vec![key1(Value::int(10))], VbId(0), SeqNo(1));
        update(&idx, "d1", vec![key1(Value::int(99))], VbId(0), SeqNo(2));
        let all = idx.scan(&ScanRange::all(), 0);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].key, key1(Value::int(99)));
    }

    #[test]
    fn remove_doc_clears_entries() {
        let idx = memopt();
        update(&idx, "d1", vec![key1(Value::int(1)), key1(Value::int(2))], VbId(0), SeqNo(1));
        assert_eq!(idx.stats().entries, 2, "array index: two entries for one doc");
        remove(&idx, "d1", VbId(0), SeqNo(2));
        assert_eq!(idx.scan(&ScanRange::all(), 0).len(), 0);
        assert_eq!(idx.stats().docs, 0);
    }

    #[test]
    fn empty_keys_removes_from_index() {
        let idx = memopt();
        update(&idx, "d1", vec![key1(Value::int(1))], VbId(0), SeqNo(1));
        // Doc no longer matches a partial-index filter.
        update(&idx, "d1", vec![], VbId(0), SeqNo(2));
        assert!(idx.scan(&ScanRange::all(), 0).is_empty());
    }

    #[test]
    fn seeked_scan_matches_range_semantics() {
        let idx = memopt();
        for i in 0..100 {
            update(
                &idx,
                &format!("d{i:03}"),
                vec![IndexKey(vec![Some(Value::int(i)), Some(Value::from("x"))])],
                VbId(0),
                SeqNo(i as u64 + 1),
            );
        }
        // Inclusive low seeks past everything below it.
        let r = ScanRange::at_least(Value::int(90));
        assert_eq!(idx.scan(&r, 0).len(), 10);
        // Exclusive low excludes the boundary value.
        let r = ScanRange {
            low: Some(Value::int(90)),
            low_inclusive: false,
            high: None,
            high_inclusive: false,
        };
        assert_eq!(idx.scan(&r, 0).len(), 9);
        // Limit applies after the seek.
        let r = ScanRange::at_least(Value::int(50));
        let out = idx.scan(&r, 3);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].doc_id, "d050");
    }

    #[test]
    fn cardinality_tracks_entries_and_bounds() {
        let idx = memopt();
        assert_eq!(idx.cardinality(), IndexCardinality::default());
        update(&idx, "a", vec![key1(Value::int(5))], VbId(0), SeqNo(1));
        update(&idx, "b", vec![key1(Value::int(5))], VbId(0), SeqNo(2));
        update(&idx, "c", vec![key1(Value::int(40))], VbId(0), SeqNo(3));
        let c = idx.cardinality();
        assert_eq!(c.entries, 3);
        assert_eq!(c.distinct_keys, 2);
        assert_eq!(c.min_leading, Some(Value::int(5)));
        assert_eq!(c.max_leading, Some(Value::int(40)));
        remove(&idx, "c", VbId(0), SeqNo(4));
        let c = idx.cardinality();
        assert_eq!(c.entries, 2);
        assert_eq!(c.max_leading, Some(Value::int(5)));
        assert_eq!(idx.stats().entries, 2, "stats entries stay incremental");
    }

    #[test]
    fn limit_caps_results() {
        let idx = memopt();
        for i in 0..50 {
            update(&idx, &format!("d{i}"), vec![key1(Value::int(i))], VbId(0), SeqNo(i as u64 + 1));
        }
        assert_eq!(idx.scan(&ScanRange::all(), 7).len(), 7);
    }

    #[test]
    fn duplicate_keys_multiple_docs() {
        let idx = memopt();
        update(&idx, "a", vec![key1(Value::from("x"))], VbId(0), SeqNo(1));
        update(&idx, "b", vec![key1(Value::from("x"))], VbId(0), SeqNo(2));
        let hits = idx.scan(&ScanRange::exact(Value::from("x")), 0);
        let ids: Vec<&str> = hits.iter().map(|e| &*e.doc_id).collect();
        assert_eq!(ids, ["a", "b"]);
    }

    #[test]
    fn watermarks_and_consistency_wait() {
        let idx = memopt();
        update(&idx, "d", vec![key1(Value::int(1))], VbId(3), SeqNo(5));
        advance(&idx, VbId(1), SeqNo(7));
        let w = idx.watermarks();
        assert_eq!(w[3], SeqNo(5));
        assert_eq!(w[1], SeqNo(7));

        // Already satisfied: returns immediately.
        let mut target = vec![SeqNo::ZERO; 8];
        target[3] = SeqNo(5);
        idx.wait_consistent(&ScanConsistency::AtPlus(target), after_ms(10)).unwrap();

        // Unsatisfied: times out.
        let mut target = vec![SeqNo::ZERO; 8];
        target[0] = SeqNo(100);
        let err = idx.wait_consistent(&ScanConsistency::AtPlus(target), after_ms(30)).unwrap_err();
        assert!(matches!(err, Error::Timeout(_)));

        // NotBounded never waits.
        idx.wait_consistent(&ScanConsistency::NotBounded, after_ms(1)).unwrap();
    }

    #[test]
    fn consistency_wait_unblocks_on_catchup() {
        use std::sync::Arc;
        let idx = Arc::new(memopt());
        let idx2 = Arc::clone(&idx);
        let waiter = std::thread::spawn(move || {
            let mut target = vec![SeqNo::ZERO; 8];
            target[0] = SeqNo(3);
            idx2.wait_consistent(&ScanConsistency::AtPlus(target), after_ms(5000))
        });
        std::thread::sleep(Duration::from_millis(20));
        advance(&idx, VbId(0), SeqNo(3));
        waiter.join().unwrap().unwrap();
    }

    #[test]
    fn standard_mode_syncs_once_per_batch_and_recovers() {
        let dir = cbs_storage::scratch_dir("gsi");
        let idx =
            Indexer::new(4, Layout::Keys, IndexStorage::Standard, Some(dir.clone()), "email_idx")
                .unwrap();
        update(&idx, "d1", vec![key1(Value::from("a@x.com"))], VbId(0), SeqNo(1));
        update(&idx, "d2", vec![key1(Value::from("b@x.com"))], VbId(0), SeqNo(2));
        assert_eq!(idx.stats().disk_syncs, 2, "a batch of one is one commit");
        let mut batch: Vec<IndexOp> = (0..100)
            .map(|i| put(&format!("u{i}"), vec![key1(Value::int(i))], VbId(1), SeqNo(i as u64 + 1)))
            .collect();
        batch.push(put("d1", Vec::new(), VbId(0), SeqNo(3)));
        batch.push(IndexOp::Advance { vb: VbId(2), seqno: SeqNo(9) });
        idx.apply_batch(batch).unwrap();
        assert_eq!(idx.stats().disk_syncs, 3, "a batch of 102 is one commit too");
        // A redelivered version and a watermark already reached change
        // nothing: nothing is logged, nothing synced.
        update(&idx, "d2", vec![key1(Value::from("b@x.com"))], VbId(0), SeqNo(2));
        advance(&idx, VbId(2), SeqNo(9));
        assert_eq!(idx.stats().disk_syncs, 3);
        assert!(idx.log_path().unwrap().starts_with(&dir));

        let (docs, marks, rows) =
            (idx.doc_versions(), idx.watermarks(), idx.scan(&ScanRange::all(), 0));
        drop(idx);
        let back = Indexer::recover(4, Layout::Keys, &dir, "email_idx").unwrap();
        assert_eq!(back.doc_versions(), docs);
        assert_eq!(back.watermarks(), marks);
        assert_eq!(back.scan(&ScanRange::all(), 0), rows);
        assert_eq!(marks, [SeqNo(3), SeqNo(100), SeqNo(9), SeqNo::ZERO]);
        // `new` over the same name starts empty: the log was someone else's.
        drop(back);
        let fresh =
            Indexer::new(4, Layout::Keys, IndexStorage::Standard, Some(dir.clone()), "email_idx")
                .unwrap();
        assert!(fresh.doc_versions().is_empty());
        drop(fresh);
        assert!(Indexer::recover(4, Layout::Keys, &dir, "email_idx")
            .unwrap()
            .doc_versions()
            .is_empty());

        // Memory-optimized never syncs.
        let mo = memopt();
        update(&mo, "d1", vec![key1(Value::int(1))], VbId(0), SeqNo(1));
        assert_eq!(mo.stats().disk_syncs, 0);
    }

    /// Each op through a real log and back: what `push_record` encodes is
    /// what `from_record` decodes.
    fn roundtrip(op: &IndexOp, layout: Layout) -> (StoredDoc, IndexOp) {
        let path = log_file(&cbs_storage::scratch_dir("gsi-record"));
        let log = CommitLog::open(path.clone(), |_, _| {}).unwrap();
        let mut cycle = Cycle::new();
        op.push_record(&mut cycle).unwrap();
        log.commit(&mut cycle).unwrap();
        drop(log);
        let mut records = Vec::new();
        CommitLog::open(path, |vb, doc| records.push((vb, doc))).unwrap();
        let (vb, doc) = records.pop().unwrap();
        assert!(records.is_empty() && vb == op.position().0);
        (doc.clone(), IndexOp::from_record(vb, layout, doc).unwrap())
    }

    #[test]
    fn log_keys_roundtrip_including_missing_components() {
        let keys = vec![
            IndexKey(vec![Some(Value::int(1)), None, Some(Value::from("a\tb"))]),
            IndexKey(vec![Some(Value::Array(vec![])), Some(Value::Null)]),
            IndexKey(vec![None]),
        ];
        assert_eq!(keys_from_json(keys_to_json(&keys).as_bytes()).unwrap(), keys);
        for bad in ["", "7", "[7]", "[[7]]", "[[[1,2]]]"] {
            assert!(keys_from_json(bad.as_bytes()).is_err(), "{bad}");
        }
        let op = put("doc", keys, VbId(3), SeqNo(8));
        let (rec, back) = roundtrip(&op, Layout::Keys);
        assert_eq!(back, op);
        assert!(IndexOp::from_record(VbId(3), Layout::Ids, rec).is_err(), "keys in a primary log");
        let removed = put("doc", Vec::new(), VbId(3), SeqNo(9));
        let (rec, back) = roundtrip(&removed, Layout::Keys);
        assert!(rec.deleted && rec.value.is_empty(), "a document with no keys is a tombstone");
        assert_eq!(back, removed);
        let by_id = put("doc", vec![IndexKey::ID], VbId(3), SeqNo(10));
        let (rec, back) = roundtrip(&by_id, Layout::Ids);
        assert!(!rec.deleted && rec.value.is_empty(), "an id alone is the record's key");
        assert_eq!(back, by_id);
        assert!(IndexOp::from_record(VbId(3), Layout::Keys, rec).is_err(), "an id in a keyed log");
        let adv = IndexOp::Advance { vb: VbId(1), seqno: SeqNo(2) };
        let (rec, back) = roundtrip(&adv, Layout::Keys);
        assert!(rec.key.is_empty() && !rec.deleted);
        assert_eq!(back, adv);
    }

    /// A log that cannot take the batch: nothing is applied, no watermark
    /// moves (so `request_plus` times out rather than lying), and the next
    /// batch fails the same way instead of skipping ahead.
    #[cfg(target_os = "linux")]
    #[test]
    fn failed_commit_applies_nothing() {
        let dir = cbs_storage::scratch_dir("gsi-full");
        std::fs::create_dir(dir.join("ix.gsi")).unwrap();
        std::os::unix::fs::symlink("/dev/full", dir.join("ix.gsi/shard_0.couch")).unwrap();
        let idx = Indexer::recover(4, Layout::Keys, &dir, "ix").unwrap();
        for seq in 1..=2 {
            let err =
                idx.apply_batch(vec![put("d", vec![key1(Value::int(1))], VbId(0), SeqNo(seq))]);
            assert!(matches!(err, Err(Error::Io(_))), "{err:?}");
        }
        assert!(idx.scan(&ScanRange::all(), 0).is_empty());
        assert_eq!(idx.watermarks()[0], SeqNo::ZERO);
        assert_eq!(idx.stats().disk_syncs, 0);
        let mut target = vec![SeqNo::ZERO; 4];
        target[0] = SeqNo(1);
        let wait = idx.wait_consistent(&ScanConsistency::AtPlus(target), after_ms(20));
        assert!(matches!(wait, Err(Error::Timeout(_))));
    }

    /// A rewrite walks the back index once and then looks each document
    /// up once: not a walk from the start per 64 KiB slice, which for this
    /// partition's ~50 slices would be millions of steps.
    #[test]
    fn a_rewrite_takes_two_back_index_steps_per_document() {
        const DOCS: u64 = 100_000;
        let dir = cbs_storage::scratch_dir("gsi-rewrite-steps");
        let idx =
            Indexer::new(4, Layout::Ids, IndexStorage::Standard, Some(dir.clone()), "ix").unwrap();
        let vb = |i: u64| VbId((i % 4) as u16);
        let batch = (0..DOCS)
            .map(|i| put(&format!("d{i:06}"), vec![IndexKey::ID], vb(i), SeqNo(i / 4 + 1)));
        idx.apply_batch(batch.collect()).unwrap();
        remove(&idx, "d000000", VbId(0), SeqNo(DOCS));
        let (docs, marks) = (idx.doc_versions(), idx.watermarks());

        let steps = || BACK_INDEX_STEPS.with(std::cell::Cell::get);
        let before = steps();
        let log = idx.log.as_ref().unwrap();
        idx.rewrite(&mut log.lock()).unwrap();
        let taken = steps() - before;
        assert!(taken <= 2 * DOCS, "{taken} back-index steps to rewrite {DOCS} documents");
        assert_eq!(log.lock().records, DOCS, "one record per document, tombstone included");

        drop(idx);
        let back = Indexer::recover(4, Layout::Ids, &dir, "ix").unwrap();
        assert_eq!(back.doc_versions(), docs);
        assert_eq!(back.watermarks(), marks);
    }

    /// Scans never queue behind an fsync or a compaction: the log is
    /// committed and compacted with the tree lock released. The writer
    /// lock and every storage rank rank below `index.partition.tree`, so
    /// under the `lock-order` feature (on for every test build of this
    /// crate) taking one with the tree held panics at the acquisition —
    /// every Standard-mode batch in this suite is that assertion.
    #[test]
    fn no_storage_rank_is_taken_under_the_tree_lock() {
        let storage = [rank::INDEX_LOG_WRITER, rank::WAL, rank::BUCKET_MAP, rank::VB_STORE];
        assert!(storage.iter().all(|r| r.rank < rank::INDEX_TREE.rank));
        let dir = cbs_storage::scratch_dir("gsi-order");
        let idx = Indexer::new(4, Layout::Keys, IndexStorage::Standard, Some(dir), "ix").unwrap();
        for seqno in 1..=20 {
            update(&idx, "d", vec![key1(Value::int(1))], VbId(0), SeqNo(seqno));
        }
        assert_eq!(idx.scan(&ScanRange::all(), 0).len(), 1);
        let nested = cbs_common::sync::observed_edges().into_iter().find(|(from, to)| {
            from.contains(rank::INDEX_TREE.name) && storage.iter().any(|r| to.contains(r.name))
        });
        assert!(nested.is_none(), "a storage rank under the tree lock: {nested:?}");
    }
}
