//! Bucket-level storage: one append-only log per bucket per node, one
//! in-memory index per vBucket.
//!
//! A node's data service holds one [`BucketStore`] per Couchbase bucket:
//! the latest record of each (vBucket, key) is what it recovers and reads.
//! The store owns one log file, `shard_0.couch` — a [`CommitLog`] holding
//! the records of all of the bucket's vBuckets on this node, interleaved in
//! commit order — and that log is the *only* on-disk copy of their
//! documents. A drain cycle is encoded once into a [`Cycle`] and reaches
//! the log in slices of [`CYCLE_SLICE`](crate::CYCLE_SLICE) bytes
//! ([`BucketStore::append_slice`]), unsynced and unindexed; its one
//! `sync_data` ([`BucketStore::commit`]) makes all of it durable, and only
//! then are the records indexed by offset in their vBuckets'
//! [`VBucketStore`]s, which is all a read needs. A slice or a sync that
//! fails cuts the log back to the cycle's first byte. (A Standard GSI
//! partition holds a bare [`CommitLog`] instead: its tree indexes it.)
//!
//! **One log, one writer.** Appends, purges and compactions must not
//! overlap — a cycle's slices included; the data engine runs all three
//! under its flush lock. Reads need no such care: they go through the
//! per-vBucket index locks and positioned reads only.
//!
//! - **Recovery** is one scan of the log that rebuilds the indexes; a torn
//!   tail is cut off, mid-file corruption is reported and cut off (the
//!   [`replay_file`](crate::replay_file) contract).
//! - **Purge** ([`BucketStore::drop_vb`], the paper's *dead* state) appends
//!   a marker record: everything the vBucket wrote before it is dead to
//!   every replay that sees the marker, and counts as stale. The marker is
//!   synced with the log's next sync — before or with anything written
//!   behind it.
//! - **Compaction** ([`BucketStore::compact`]) runs when the stale fraction
//!   of the log crosses the threshold (§4.3.3): live records are streamed
//!   to a fresh file through one 64 KiB buffer, the file is renamed over
//!   the log ([`CommitLog::install`]), and each vBucket's (file, offsets)
//!   pair is switched under that vBucket's own lock.

use std::collections::HashMap;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use cbs_common::sync::{rank, OrderedRwLock};
use cbs_common::{DocMeta, Error, Result, SeqNo, VbId};
use cbs_obs::{Gauge, Registry};

use crate::log::{sync_dir, CommitLog, Cycle};
use crate::record::{encode_record_with, KIND_PURGE, KIND_TOMBSTONE};
use crate::vbstore::{Located, VBucketStore, VbIndex};
use crate::wal::FRAME_PREFIX;

/// Compaction copies this much at a time.
const COMPACT_CHUNK: usize = 64 << 10;

/// The store's log, in its directory (a GSI partition's log has the same
/// name in its own directory).
const LOG_FILE: &str = "shard_0.couch";

/// The bucket's log and the indexes of the vBuckets in it.
pub(crate) struct BucketLog {
    log: CommitLog,
    vbs: OrderedRwLock<HashMap<VbId, Arc<VbIndex>>>,
    /// What the indexes' by-id tables hold on the heap, store-wide.
    table_bytes: Arc<Gauge>,
}

impl BucketLog {
    /// Open the log at `path` and rebuild the indexes from its intact
    /// prefix, cutting a torn or corrupt tail off.
    fn recover(path: PathBuf, table_bytes: &Arc<Gauge>) -> Result<BucketLog> {
        let bucket = BucketLog {
            log: CommitLog::create(path)?,
            vbs: OrderedRwLock::new(rank::BUCKET_MAP, HashMap::new()),
            table_bytes: Arc::clone(table_bytes),
        };
        let file = bucket.log.file();
        bucket.log.scan(|vb, offset, rec, len| {
            let index = bucket.index(vb);
            if rec.kind == KIND_PURGE {
                index.purge((FRAME_PREFIX + len) as u64);
            } else {
                let place = Located {
                    key: rec.key,
                    seqno: rec.meta.seqno,
                    deleted: rec.kind == KIND_TOMBSTONE,
                    offset,
                    len: len as u32,
                };
                index.apply(&file, std::iter::once(place));
            }
        })?;
        Ok(bucket)
    }

    /// The index of `vb`, created empty on first use.
    fn index(&self, vb: VbId) -> Arc<VbIndex> {
        if let Some(index) = self.vbs.read().get(&vb) {
            return Arc::clone(index);
        }
        let file = self.log.file();
        let bytes = Arc::clone(&self.table_bytes);
        Arc::clone(
            self.vbs.write().entry(vb).or_insert_with(|| Arc::new(VbIndex::new(file, bytes))),
        )
    }

    fn indexes(&self) -> Vec<(VbId, Arc<VbIndex>)> {
        let mut all: Vec<_> =
            self.vbs.read().iter().map(|(vb, ix)| (*vb, Arc::clone(ix))).collect();
        all.sort_by_key(|(vb, _)| *vb);
        all
    }

    /// Append the rest of `cycle`, sync the whole of it if asked to, then
    /// index its records. On an error nothing is indexed, the log is as it
    /// was before the cycle's first slice and the cycle is empty. Returns
    /// the time the sync took.
    pub(crate) fn append(&self, cycle: &mut Cycle, sync: bool) -> Result<Duration> {
        let Some((base, synced_in)) = self.log.write(cycle, sync)? else {
            return Ok(Duration::ZERO); // nothing was pushed
        };
        let _s = cbs_obs::span("storage.store.index");
        let file = self.log.file();
        // A vBucket's records are pushed together: one index lock per run.
        for run in cycle.recs.chunk_by(|a, b| a.vb == b.vb) {
            let places = run.iter().map(|rec| Located {
                key: cycle.key(rec),
                seqno: rec.seqno,
                deleted: rec.deleted,
                offset: base + rec.at + FRAME_PREFIX as u64,
                len: rec.len,
            });
            self.index(run[0].vb).apply(&file, places);
        }
        Ok(synced_in)
    }

    /// Append a purge marker for `vb`, then forget its documents. The
    /// marker is not synced here — a purge per vBucket must not cost an
    /// fsync each during a rebalance: it becomes durable with the log's
    /// next sync, which is before or with anything written behind it, so a
    /// crash either keeps the purge or brings back the vBucket exactly as
    /// it was before it. A vBucket with nothing indexed needs no marker.
    fn purge(&self, vb: VbId) -> Result<()> {
        let Some(index) = self.vbs.read().get(&vb).map(Arc::clone) else {
            return Ok(());
        };
        if index.is_empty() {
            return Ok(());
        }
        let mut frame = vb.0.to_le_bytes().to_vec();
        encode_record_with(&mut frame, "", &DocMeta::default(), KIND_PURGE, &[])?;
        self.log.append_unsynced(&frame)?;
        index.purge(frame.len() as u64);
        Ok(())
    }

    /// `(bytes, stale bytes)` of the log, as its vBuckets account for them.
    fn usage(&self) -> (u64, u64) {
        self.vbs.read().values().fold((0, 0), |(bytes, stale), index| {
            let (b, s) = index.bytes();
            (bytes + b, stale + s)
        })
    }

    /// Rewrite the log without its stale records. Readers carry on
    /// throughout; the caller keeps writers away.
    fn compact(&self, chunk_limit: usize) -> Result<usize> {
        let _s = cbs_obs::span("storage.compaction.run");
        let fresh = self.log.rewrite()?;
        let indexes = self.indexes();
        let mut moved = Vec::with_capacity(indexes.len());
        // Sized once: only a record larger than the limit grows it.
        let (mut chunk, mut peak, mut at) = (Vec::with_capacity(chunk_limit), 0usize, 0u64);
        for (vb, index) in &indexes {
            let (file, places) = index.in_seqno_order(SeqNo::ZERO);
            let mut moves = Vec::with_capacity(places.len());
            for place in places {
                let len = place.len as usize;
                if !chunk.is_empty() && chunk.len() + FRAME_PREFIX + len > chunk_limit {
                    fresh.append_frames(&chunk)?;
                    chunk.clear();
                }
                chunk.extend_from_slice(&vb.0.to_le_bytes());
                let start = chunk.len();
                chunk.resize(start + len, 0);
                file.read_exact_at(&mut chunk[start..], place.offset)?;
                peak = peak.max(chunk.len());
                moves.push((place.offset, at + FRAME_PREFIX as u64));
                at += (FRAME_PREFIX + len) as u64;
            }
            moved.push(moves);
        }
        if !chunk.is_empty() {
            fresh.append_frames(&chunk)?;
        }
        drop(chunk);
        // Each vBucket's (file, offsets) pair switches before the directory
        // is synced, and before the caller lets the next commit in.
        self.log.install(fresh, |file| {
            for ((_, index), moves) in indexes.iter().zip(moved) {
                index.switch(Arc::clone(file), moves);
            }
            if let Some((_, first)) = indexes.first() {
                first.count_compaction();
            }
        })?;
        Ok(peak)
    }
}

/// Storage for all vBuckets of one bucket hosted on one node.
pub struct BucketStore {
    dir: PathBuf,
    log: Arc<BucketLog>,
}

impl BucketStore {
    /// Open a bucket store rooted at `dir` (created if absent), registering
    /// its gauge in a private throwaway registry (tests, standalone benches).
    pub fn open(dir: PathBuf) -> Result<BucketStore> {
        BucketStore::open_with_registry(dir, &Registry::new("kv"))
    }

    /// Open a bucket store rooted at `dir` (created if absent): its log is
    /// scanned and every vBucket's index rebuilt. The indexes' heap bytes
    /// are `registry`'s `mem.storage_index.bytes` gauge. A directory that
    /// holds another `shard_<n>.couch` — a log of a layout with one log
    /// per flusher shard — is refused: its vBuckets would open empty.
    pub fn open_with_registry(dir: PathBuf, registry: &Registry) -> Result<BucketStore> {
        let table_bytes = registry.gauge("mem.storage_index.bytes");
        std::fs::create_dir_all(&dir)?;
        for entry in std::fs::read_dir(&dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("shard_") && name.ends_with(".couch") && name != LOG_FILE {
                return Err(Error::Storage(format!(
                    "{}: {name} is a log of a sharded layout; only {LOG_FILE} is opened",
                    dir.display()
                )));
            }
        }
        let log = Arc::new(BucketLog::recover(dir.join(LOG_FILE), &table_bytes)?);
        // What is acknowledged as persisted lives in this file: its
        // directory entry must survive a crash as well.
        sync_dir(&dir)?;
        Ok(BucketStore { dir, log })
    }

    /// Directory backing this bucket.
    pub fn dir(&self) -> &PathBuf {
        &self.dir
    }

    /// The store of a vBucket (created empty on first use).
    pub fn vb(&self, vb: VbId) -> Result<VBucketStore> {
        let index = self.log.index(vb);
        Ok(VBucketStore { vb, log: Arc::clone(&self.log), index })
    }

    /// Append what `cycle` has buffered to the log — unsynced and
    /// unindexed: nothing reads it before [`commit`](BucketStore::commit).
    /// Between its slices and its commit a cycle must be the only writer of
    /// the log. On an error the log is cut back to the cycle's first byte
    /// and the cycle is emptied.
    pub fn append_slice(&self, cycle: &mut Cycle) -> Result<()> {
        self.log.log.append_slice(cycle)
    }

    /// The flusher's write: append the rest of `cycle` — records of any of
    /// the bucket's vBuckets — to the log, make all of it durable with one
    /// `sync_data`, then index the records. Returns the time the sync took.
    /// An error leaves the indexes as they were and the log as it was
    /// before the cycle's first slice, and empties the cycle.
    pub fn commit(&self, cycle: &mut Cycle) -> Result<Duration> {
        self.log.append(cycle, true)
    }

    /// Give up a cycle that will not be committed: the log is cut back to
    /// its first byte and the cycle is emptied.
    pub fn abandon(&self, cycle: &mut Cycle) {
        self.log.log.abandon(cycle);
    }

    /// Forget a vBucket's documents (rebalance hand-off: the paper's *dead*
    /// state — "this server is not in any way responsible for this
    /// partition"). A purge marker is appended to the log, so no replay
    /// that sees anything written later resurrects them; a vBucket created
    /// again starts from nothing. The marker is durable with the next
    /// [`commit`](BucketStore::commit) or
    /// [`sync_pending`](BucketStore::sync_pending).
    pub fn drop_vb(&self, vb: VbId) -> Result<()> {
        self.log.purge(vb)
    }

    /// Sync the log if it holds appends no sync has covered (a purge
    /// marker, stand-alone `persist`s): what the flusher calls on a cycle
    /// with nothing to commit.
    pub fn sync_pending(&self) -> Result<()> {
        self.log.log.sync_pending()
    }

    /// vBuckets with an index, in order.
    pub fn open_vbs(&self) -> Vec<VbId> {
        let mut v: Vec<VbId> = self.log.vbs.read().keys().copied().collect();
        v.sort();
        v
    }

    /// Bytes in the log.
    pub fn log_bytes(&self) -> u64 {
        self.log.log.len_bytes()
    }

    /// The fragmentation threshold every log compacts at (§4.3.3): the data
    /// engine's and every GSI partition's.
    pub const FRAGMENTATION_THRESHOLD: f64 = 0.6;

    /// Compact the log if the stale fraction of its bytes has reached
    /// `threshold`; returns whether it ran. The caller keeps writers away.
    pub fn compact(&self, threshold: f64) -> Result<bool> {
        let (bytes, stale) = self.log.usage();
        if bytes == 0 || (stale as f64 / bytes as f64) < threshold {
            return Ok(false);
        }
        self.log.compact(COMPACT_CHUNK).map(|_| true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::StoredDoc;
    use crate::{scratch_dir, StoreStats};
    use bytes::Bytes;

    fn doc(key: &str, seq: u64) -> StoredDoc {
        doc_with(key, "{}", seq)
    }

    fn doc_with(key: &str, val: &str, seq: u64) -> StoredDoc {
        StoredDoc {
            key: key.to_string(),
            meta: DocMeta { seqno: SeqNo(seq), ..Default::default() },
            deleted: false,
            value: Bytes::copy_from_slice(val.as_bytes()),
        }
    }

    fn tombstone(key: &str, seq: u64) -> StoredDoc {
        StoredDoc { deleted: true, ..doc_with(key, "", seq) }
    }

    fn disk_bytes(bs: &BucketStore) -> u64 {
        std::fs::metadata(bs.dir().join(LOG_FILE)).unwrap().len()
    }

    fn accounted_bytes(bs: &BucketStore) -> u64 {
        bs.open_vbs().into_iter().map(|vb| bs.vb(vb).unwrap().stats().file_bytes).sum()
    }

    #[test]
    fn set_get_delete() {
        let bs = BucketStore::open(scratch_dir("bucket")).unwrap();
        assert!(bs.open_vbs().is_empty());
        let s = bs.vb(VbId(3)).unwrap();
        s.persist(&doc_with("a", r#"{"v":1}"#, 1)).unwrap();
        s.persist(&doc_with("b", r#"{"v":2}"#, 2)).unwrap();
        assert_eq!(&s.get("a").unwrap().unwrap().value[..], br#"{"v":1}"#);
        assert!(s.get("zzz").unwrap().is_none());
        assert!(bs.vb(VbId(4)).unwrap().get("a").unwrap().is_none(), "indexes are per vBucket");

        s.persist(&tombstone("a", 3)).unwrap();
        assert!(bs.vb(VbId(3)).unwrap().get("a").unwrap().unwrap().deleted);
        let st = s.stats();
        assert_eq!((st.live_docs, st.tombstones, st.high_seqno), (1, 1, SeqNo(3)));
        assert_eq!(bs.open_vbs(), vec![VbId(3), VbId(4)]);
        assert!(!bs.dir().join("vb_3.couch").exists(), "the bucket log is the only file");
    }

    #[test]
    fn changes_since_returns_latest_versions_in_order() {
        let bs = BucketStore::open(scratch_dir("bucket")).unwrap();
        let s = bs.vb(VbId(0)).unwrap();
        s.persist(&doc_with("a", "1", 1)).unwrap();
        s.persist(&doc_with("b", "2", 2)).unwrap();
        s.persist(&doc_with("a", "3", 3)).unwrap(); // supersedes seq 1
        s.persist(&tombstone("b", 4)).unwrap(); // supersedes seq 2
        let all = s.changes_since(SeqNo::ZERO).unwrap();
        let seqs: Vec<u64> = all.iter().map(|d| d.meta.seqno.0).collect();
        assert_eq!(seqs, [3, 4], "only latest versions, in seqno order");
        let tail = s.changes_since(SeqNo(3)).unwrap();
        assert_eq!(tail.len(), 1);
        assert!(tail[0].deleted);
    }

    #[test]
    fn batch_persist_matches_individual() {
        let bs = BucketStore::open(scratch_dir("bucket")).unwrap();
        let s = bs.vb(VbId(0)).unwrap();
        s.persist_batch(&[]).unwrap();
        assert_eq!(s.stats().file_bytes, 0);
        let batch: Vec<StoredDoc> = (1..=10).map(|i| doc(&format!("k{i}"), i)).collect();
        s.persist_batch(&batch).unwrap();
        assert_eq!(s.stats().live_docs, 10);
        for i in 1..=10u64 {
            assert_eq!(s.get(&format!("k{i}")).unwrap().unwrap().meta.seqno, SeqNo(i));
        }
        // Batch with an overwrite inside the batch itself.
        s.persist_batch(&[doc("k1", 11), tombstone("k1", 12)]).unwrap();
        assert!(s.get("k1").unwrap().unwrap().deleted);
        assert_eq!(accounted_bytes(&bs), disk_bytes(&bs));
    }

    #[test]
    fn commit_reopen_recovers_every_vbucket_of_the_log() {
        let dir = scratch_dir("bucket");
        {
            let bs = BucketStore::open(dir.clone()).unwrap();
            let mut cycle = Cycle::new();
            cycle.push_doc(VbId(0), &doc_with("a", r#"{"v":1}"#, 1)).unwrap();
            cycle.push_doc(VbId(0), &doc_with("b", r#"{"v":3}"#, 2)).unwrap();
            cycle.push_doc(VbId(3), &doc("c", 1)).unwrap();
            assert_eq!(cycle.len(), 3);
            bs.commit(&mut cycle).unwrap();
            let mut cycle = Cycle::new();
            cycle
                .push(
                    VbId(0),
                    "a",
                    &DocMeta { seqno: SeqNo(3), ..Default::default() },
                    false,
                    br#"{"v":2}"#,
                )
                .unwrap();
            // Refused whole: neither the frame prefix nor a record is left.
            let long = "k".repeat(70_000);
            let refused = cycle.push(VbId(0), &long, &DocMeta::default(), false, &[]);
            assert_eq!(refused, Err(cbs_common::Error::KeyTooLong(70_000)));
            let recs: Vec<_> = cycle.records().collect();
            assert_eq!(recs, [(VbId(0), "a", SeqNo(3))]);
            bs.commit(&mut cycle).unwrap();
            let mut cycle = Cycle::new();
            cycle.push_doc(VbId(7), &doc("z", 1)).unwrap();
            bs.commit(&mut cycle).unwrap();
        }
        let bs = BucketStore::open(dir).unwrap();
        let s = bs.vb(VbId(0)).unwrap();
        assert_eq!(&s.get("a").unwrap().unwrap().value[..], br#"{"v":2}"#);
        assert_eq!(s.high_seqno(), SeqNo(3));
        let st = s.stats();
        assert_eq!(st.live_docs, 2);
        assert!(st.stale_bytes > 0, "superseded a@1 must count as stale");
        assert!(bs.vb(VbId(3)).unwrap().get("c").unwrap().is_some());
        assert!(bs.vb(VbId(7)).unwrap().get("z").unwrap().is_some());
        assert_eq!(accounted_bytes(&bs), disk_bytes(&bs));
    }

    /// A 30 MiB value — past the engine's 20 MiB limit, as a log written
    /// before the limit can hold — commits, survives a reopen and reads
    /// back, and so does a record committed after it: the decoder still
    /// reads every payload the format could hold. A payload past that is
    /// refused at the push, so no record the reopen would take for
    /// corruption — and cut off, with everything after it — is written.
    #[test]
    fn a_30_mib_value_survives_a_reopen_with_what_follows_it() {
        let dir = scratch_dir("bucket");
        let big = StoredDoc { value: bytes::Bytes::from(vec![b'x'; 30 << 20]), ..doc("big", 1) };
        {
            let bs = BucketStore::open(dir.clone()).unwrap();
            let mut cycle = Cycle::new();
            cycle.push_doc(VbId(0), &big).unwrap();
            let over = vec![b'x'; crate::MAX_PAYLOAD_LEN];
            let refused = cycle.push(VbId(0), "over", &DocMeta::default(), false, &over);
            assert!(matches!(refused, Err(cbs_common::Error::RecordTooLarge(_))), "{refused:?}");
            assert_eq!(cycle.len(), 1);
            bs.commit(&mut cycle).unwrap();
            cycle.push_doc(VbId(0), &doc("after", 2)).unwrap();
            bs.commit(&mut cycle).unwrap();
        }
        let bs = BucketStore::open(dir).unwrap();
        let s = bs.vb(VbId(0)).unwrap();
        assert_eq!(s.get("big").unwrap().unwrap(), big);
        assert_eq!(s.get("after").unwrap().unwrap().meta.seqno, SeqNo(2));
        assert_eq!(s.high_seqno(), SeqNo(2));
        assert_eq!(accounted_bytes(&bs), disk_bytes(&bs));
    }

    /// A log another layout left beside the store's own is not silently
    /// ignored: the open fails and names it.
    #[test]
    fn a_log_of_a_sharded_layout_is_refused() {
        let dir = scratch_dir("bucket");
        BucketStore::open(dir.clone()).unwrap().vb(VbId(1)).unwrap().persist(&doc("a", 1)).unwrap();
        std::fs::write(dir.join("shard_1.couch"), b"").unwrap();
        let err = BucketStore::open(dir.clone()).err().unwrap();
        assert!(err.to_string().contains("shard_1.couch"), "{err}");
        std::fs::remove_file(dir.join("shard_1.couch")).unwrap();
        assert!(BucketStore::open(dir).unwrap().vb(VbId(1)).unwrap().get("a").unwrap().is_some());
    }

    #[test]
    fn torn_tail_truncated_on_open() {
        let dir = scratch_dir("bucket");
        {
            let bs = BucketStore::open(dir.clone()).unwrap();
            let s = bs.vb(VbId(9)).unwrap();
            s.persist(&doc("a", 1)).unwrap();
            s.persist(&doc("b", 2)).unwrap();
        }
        // Simulate a torn append: chop 3 bytes off the tail.
        let path = dir.join(LOG_FILE);
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(len - 3).unwrap();

        let bs = BucketStore::open(dir.clone()).unwrap();
        let s = bs.vb(VbId(9)).unwrap();
        assert!(s.get("a").unwrap().is_some(), "first record survives");
        assert!(s.get("b").unwrap().is_none(), "torn record dropped");
        assert_eq!(s.high_seqno(), SeqNo(1));
        // The torn bytes are gone, so what is appended now is reachable by
        // the next recovery.
        s.persist(&doc("c", 2)).unwrap();
        drop((s, bs));
        let bs = BucketStore::open(dir).unwrap();
        assert!(bs.vb(VbId(9)).unwrap().get("c").unwrap().is_some());
    }

    #[test]
    fn purged_vbucket_stays_empty_across_reopen_and_restarts_at_zero() {
        let dir = scratch_dir("bucket");
        {
            let bs = BucketStore::open(dir.clone()).unwrap();
            bs.vb(VbId(7)).unwrap().persist_batch(&[doc("k", 1), doc("l", 2)]).unwrap();
            bs.vb(VbId(8)).unwrap().persist(&doc("neighbour", 1)).unwrap();
            bs.drop_vb(VbId(7)).unwrap();
            bs.drop_vb(VbId(99)).unwrap(); // never written: nothing to mark
            bs.sync_pending().unwrap(); // what the flusher's next cycle does
            let s = bs.vb(VbId(7)).unwrap();
            assert!(s.get("k").unwrap().is_none());
            assert_eq!(s.high_seqno(), SeqNo::ZERO);
            let st = s.stats();
            assert_eq!(st.stale_bytes, st.file_bytes, "purged bytes and the marker are stale");
            assert_eq!(accounted_bytes(&bs), disk_bytes(&bs));
        }
        {
            let bs = BucketStore::open(dir.clone()).unwrap();
            let s = bs.vb(VbId(7)).unwrap();
            assert!(s.changes_since(SeqNo::ZERO).unwrap().is_empty(), "never resurrected");
            assert_eq!(s.high_seqno(), SeqNo::ZERO);
            assert!(bs.vb(VbId(8)).unwrap().get("neighbour").unwrap().is_some());
            // Created again, it starts from nothing: seqno 1 is new data.
            s.persist(&doc("fresh", 1)).unwrap();
        }
        let bs = BucketStore::open(dir).unwrap();
        let s = bs.vb(VbId(7)).unwrap();
        let keys: Vec<String> =
            s.changes_since(SeqNo::ZERO).unwrap().into_iter().map(|d| d.key).collect();
        assert_eq!(keys, ["fresh"]);
        assert_eq!(s.high_seqno(), SeqNo(1));
        // Compaction drops the purged records and the marker for good.
        assert!(bs.compact(0.1).unwrap());
        assert_eq!(accounted_bytes(&bs), disk_bytes(&bs));
        assert_eq!(s.stats().stale_bytes, 0);
        assert!(bs.vb(VbId(8)).unwrap().get("neighbour").unwrap().is_some());
    }

    #[test]
    fn compaction_reclaims_space_streams_and_preserves_data() {
        let dir = scratch_dir("bucket");
        let bs = BucketStore::open(dir.clone()).unwrap();
        let hot = bs.vb(VbId(0)).unwrap();
        let filler = "x".repeat(900);
        for i in 0..100u64 {
            hot.persist(&doc_with("hot", &format!(r#"{{"v":{i}}}"#), i + 1)).unwrap();
        }
        let cold = bs.vb(VbId(1)).unwrap();
        for i in 0..40u64 {
            cold.persist(&doc_with(&format!("cold{i}"), &filler, i + 1)).unwrap();
        }
        cold.persist(&tombstone("cold0", 41)).unwrap();
        assert!(!bs.compact(0.9).unwrap(), "below the threshold: no-op");
        let before_hot = hot.changes_since(SeqNo::ZERO).unwrap();
        let before_cold = cold.changes_since(SeqNo::ZERO).unwrap();
        let before = disk_bytes(&bs);

        // A 4 KiB chunk limit against ~40 KiB of live records: the copy
        // buffer stays bounded by the limit, not by the log.
        let peak = bs.log.compact(4096).unwrap();
        assert!(peak <= 4096, "peak copy buffer {peak}");

        assert_eq!(hot.changes_since(SeqNo::ZERO).unwrap(), before_hot);
        assert_eq!(cold.changes_since(SeqNo::ZERO).unwrap(), before_cold);
        assert_eq!(&hot.get("hot").unwrap().unwrap().value[..], br#"{"v":99}"#);
        assert!(cold.get("cold0").unwrap().unwrap().deleted, "tombstones survive");
        assert_eq!(&cold.get("cold7").unwrap().unwrap().value[..], filler.as_bytes());
        let stats: Vec<StoreStats> = [&hot, &cold].iter().map(|s| s.stats()).collect();
        assert!(stats.iter().all(|s| s.stale_bytes == 0));
        assert_eq!(stats.iter().map(|s| s.compactions).sum::<u64>(), 1, "one run, counted once");
        assert!(disk_bytes(&bs) < before);
        assert_eq!(accounted_bytes(&bs), disk_bytes(&bs));
        assert!(!dir.join("shard_0.compact").exists());

        // The store still works after compaction (append + reopen).
        hot.persist(&doc("new", 101)).unwrap();
        drop((hot, cold, bs));
        let bs = BucketStore::open(dir).unwrap();
        assert_eq!(bs.vb(VbId(0)).unwrap().high_seqno(), SeqNo(101));
        assert_eq!(bs.vb(VbId(0)).unwrap().stats().live_docs, 2);
        assert_eq!(bs.vb(VbId(1)).unwrap().stats().live_docs, 39);
    }

    /// Two records of one vBucket may share a seqno (the store takes
    /// whatever seqnos its caller gives): compaction moves each to its own
    /// place, so each key still reads its own record.
    #[test]
    fn compaction_keeps_records_that_share_a_seqno_apart() {
        let dir = scratch_dir("bucket");
        {
            let bs = BucketStore::open(dir.clone()).unwrap();
            let s = bs.vb(VbId(2)).unwrap();
            s.persist(&doc_with("stale", "0", 1)).unwrap();
            s.persist(&doc_with("stale", "1", 2)).unwrap();
            s.persist_batch(&[doc_with("a", "first", 5), doc_with("b", "second", 5)]).unwrap();
            assert!(bs.compact(0.0).unwrap());
            assert_eq!(&s.get("a").unwrap().unwrap().value[..], b"first");
            assert_eq!(&s.get("b").unwrap().unwrap().value[..], b"second");
            assert_eq!(accounted_bytes(&bs), disk_bytes(&bs));
        }
        let bs = BucketStore::open(dir).unwrap();
        let s = bs.vb(VbId(2)).unwrap();
        assert_eq!(&s.get("a").unwrap().unwrap().value[..], b"first");
        assert_eq!(&s.get("b").unwrap().unwrap().value[..], b"second");
    }

    /// Readers never see the switch: a thread looping `get` and
    /// `changes_since` while the log is compacted again and again reads
    /// the right record every time.
    #[test]
    fn readers_run_through_compaction_swaps() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let bs = Arc::new(BucketStore::open(scratch_dir("bucket")).unwrap());
        for vb in 0..4u16 {
            let s = bs.vb(VbId(vb)).unwrap();
            for i in 0..30u64 {
                s.persist(&doc_with(
                    &format!("k{i}"),
                    &format!("vb{vb}-{i}-{}", "p".repeat(vb as usize * 7)),
                    i + 1,
                ))
                .unwrap();
            }
        }
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|r| {
                let (bs, stop) = (Arc::clone(&bs), Arc::clone(&stop));
                std::thread::spawn(move || {
                    let mut reads = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let vb = (reads % 4) as u16;
                        let s = bs.vb(VbId(vb)).unwrap();
                        let i = (reads * 7 + r) % 30;
                        let got = s.get(&format!("k{i}")).unwrap().expect("present");
                        let want = format!("vb{vb}-{i}-{}", "p".repeat(vb as usize * 7));
                        assert_eq!(&got.value[..], want.as_bytes(), "foreign record");
                        let all = s.changes_since(SeqNo::ZERO).unwrap();
                        assert_eq!(all.len(), 30);
                        assert!(all
                            .iter()
                            .all(|d| d.value.starts_with(format!("vb{vb}-").as_bytes())));
                        reads += 1;
                    }
                    reads
                })
            })
            .collect();
        // The writer: overwrite (making stale bytes), compact, repeat.
        for round in 0..40u64 {
            let vb = (round % 4) as u16;
            let s = bs.vb(VbId(vb)).unwrap();
            let i = round % 30;
            s.persist(&doc_with(
                &format!("k{i}"),
                &format!("vb{vb}-{i}-{}", "p".repeat(vb as usize * 7)),
                31 + round,
            ))
            .unwrap();
            assert!(bs.compact(0.0).unwrap());
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
    }
}
