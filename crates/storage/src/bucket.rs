//! Bucket-level storage: one append-only log per flusher shard, one
//! in-memory index per vBucket.
//!
//! A node's data service holds one [`BucketStore`] per Couchbase bucket:
//! the latest record of each (vBucket, key) is what it recovers and reads.
//! Each flusher shard owns one log file, `shard_<n>.couch` — a
//! [`CommitLog`] holding the records of all of the shard's vBuckets,
//! interleaved in commit order — and that log is the *only* on-disk copy
//! of their documents. A drain cycle is encoded once into a [`Cycle`] and
//! reaches the log in slices of [`CYCLE_SLICE`](crate::CYCLE_SLICE) bytes
//! ([`BucketStore::append_slice`]), unsynced and unindexed; its one
//! `sync_data` ([`BucketStore::commit`]) makes all of it durable, and only
//! then are the records indexed by offset in their vBuckets'
//! [`VBucketStore`]s, which is all a read needs. A slice or a sync that
//! fails cuts the log back to the cycle's first byte. (A Standard GSI
//! partition holds a bare [`CommitLog`] instead: its tree indexes it.)
//!
//! **One log, one writer.** Appends, purges and compactions of one shard
//! must not overlap — a cycle's slices included; the data engine runs all
//! three under the shard's flush lock. Reads need no such care: they go
//! through the per-vBucket index locks and positioned reads only.
//!
//! - **Recovery** is one scan of each log that rebuilds the indexes; a torn
//!   tail is cut off, mid-file corruption is reported and cut off (the
//!   [`replay_file`](crate::replay_file) contract). A log found under
//!   another shard layout is re-homed: its vBuckets' live records are
//!   appended to the logs they belong to now.
//! - **Purge** ([`BucketStore::drop_vb`], the paper's *dead* state) appends
//!   a marker record: everything the vBucket wrote before it is dead to
//!   every replay that sees the marker, and counts as stale. The marker is
//!   synced with the log's next sync — before or with anything written
//!   behind it.
//! - **Compaction** ([`BucketStore::compact_shard`]) runs when the stale
//!   fraction of a log crosses the threshold (§4.3.3): live records are
//!   streamed to a fresh file through one 64 KiB buffer, the file is
//!   renamed over the log ([`CommitLog::install`]), and each vBucket's
//!   (file, offsets) pair is switched under that vBucket's own lock. One
//!   log of a store compacts at a time: a shard that finds another one
//!   compacting skips its turn.

use std::collections::HashMap;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cbs_common::sync::{rank, OrderedRwLock};
use cbs_common::{DocMeta, Result, SeqNo, VbId};
use cbs_obs::{Gauge, Registry};

use crate::log::{sync_dir, CommitLog, Cycle};
use crate::record::{encode_record_with, KIND_PURGE, KIND_TOMBSTONE};
use crate::vbstore::{Located, VBucketStore, VbIndex};
use crate::wal::FRAME_PREFIX;

/// Compaction copies this much at a time.
const COMPACT_CHUNK: usize = 64 << 10;

/// One shard's log and the indexes of the vBuckets in it.
pub(crate) struct ShardLog {
    log: CommitLog,
    vbs: OrderedRwLock<HashMap<VbId, Arc<VbIndex>>>,
    /// What the indexes' by-id tables hold on the heap, store-wide.
    table_bytes: Arc<Gauge>,
}

impl ShardLog {
    /// Open the log at `path` and rebuild the indexes from its intact
    /// prefix, cutting a torn or corrupt tail off.
    fn recover(path: PathBuf, table_bytes: &Arc<Gauge>) -> Result<ShardLog> {
        let shard = ShardLog {
            log: CommitLog::create(path)?,
            vbs: OrderedRwLock::new(rank::BUCKET_MAP, HashMap::new()),
            table_bytes: Arc::clone(table_bytes),
        };
        let file = shard.log.file();
        shard.log.scan(|vb, offset, rec, len| {
            let index = shard.index(vb);
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
        Ok(shard)
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
    num_vbuckets: u16,
    shards: Vec<Arc<ShardLog>>,
    /// Taken while one of the logs compacts: the store's compactions run
    /// one at a time, so their copy buffers and I/O do not pile up.
    compacting: AtomicBool,
}

fn shard_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard_{shard}.couch"))
}

impl BucketStore {
    /// Open a stand-alone bucket store rooted at `dir` (created if absent):
    /// one log for every vBucket.
    pub fn open(dir: PathBuf) -> Result<BucketStore> {
        BucketStore::open_sharded(dir, 1, 0)
    }

    /// Open a bucket store with one log per flusher shard, registering its
    /// gauge in a private throwaway registry (tests, standalone benches).
    pub fn open_sharded(dir: PathBuf, shards: usize, num_vbuckets: u16) -> Result<BucketStore> {
        BucketStore::open_sharded_with_registry(dir, shards, num_vbuckets, &Registry::new("kv"))
    }

    /// Open a bucket store with one log per flusher shard; vBucket `vb` of
    /// `num_vbuckets` lives in log `vb * shards / num_vbuckets` (contiguous
    /// slices). Every log found in `dir` is scanned and its vBuckets'
    /// indexes rebuilt; records found in a log they do not belong to under
    /// this layout are moved to the one they do. The indexes' heap bytes
    /// are `registry`'s `mem.storage_index.bytes` gauge.
    pub fn open_sharded_with_registry(
        dir: PathBuf,
        shards: usize,
        num_vbuckets: u16,
        registry: &Registry,
    ) -> Result<BucketStore> {
        let table_bytes = registry.gauge("mem.storage_index.bytes");
        std::fs::create_dir_all(&dir)?;
        let mut surplus = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            let Some(stem) = name.strip_prefix("shard_") else { continue };
            // An unfinished compaction beside a log goes when the log opens.
            if let Some(Ok(n)) = stem.strip_suffix(".couch").map(str::parse::<usize>) {
                if n >= shards.max(1) {
                    surplus.push(path);
                }
            }
        }
        let mut store = BucketStore {
            dir,
            num_vbuckets,
            shards: Vec::new(),
            compacting: AtomicBool::new(false),
        };
        for shard in 0..shards.max(1) {
            let log = ShardLog::recover(shard_path(&store.dir, shard), &table_bytes)?;
            store.shards.push(Arc::new(log));
        }
        for path in surplus {
            store.rehome(&Arc::new(ShardLog::recover(path.clone(), &table_bytes)?))?;
            std::fs::remove_file(path)?;
        }
        for shard in 0..store.shards.len() {
            let log = Arc::clone(&store.shards[shard]);
            if store.rehome(&log)? {
                log.vbs.write().retain(|vb, _| store.shard_of(*vb) == shard);
                log.compact(COMPACT_CHUNK)?;
            }
        }
        // What is acknowledged as persisted lives in these files: their
        // directory entries must survive a crash as well.
        sync_dir(&store.dir)?;
        Ok(store)
    }

    /// Copy the vBuckets of `from` that live elsewhere under this layout
    /// to their own logs, and sync those. Returns whether there were any.
    /// A crash part-way leaves the copied records in both places; the next
    /// open then copies only what the home log still lacks.
    fn rehome(&self, from: &Arc<ShardLog>) -> Result<bool> {
        let mut homes = Vec::new();
        for (vb, index) in from.indexes() {
            let home = self.shard_of(vb);
            if Arc::ptr_eq(&self.shards[home], from) {
                continue;
            }
            let to = self.vb(vb)?;
            let theirs = VBucketStore { vb, log: Arc::clone(from), index };
            to.persist_batch(&theirs.changes_since(to.high_seqno())?)?;
            homes.push(home);
        }
        homes.dedup(); // vBuckets come in order, and so do their shards
        for home in &homes {
            self.shards[*home].log.sync_pending()?;
        }
        Ok(!homes.is_empty())
    }

    /// Directory backing this bucket.
    pub fn dir(&self) -> &PathBuf {
        &self.dir
    }

    /// The shard whose log holds `vb`.
    pub fn shard_of(&self, vb: VbId) -> usize {
        if self.num_vbuckets == 0 {
            return 0;
        }
        (vb.index() * self.shards.len() / self.num_vbuckets as usize).min(self.shards.len() - 1)
    }

    /// The store of a vBucket (created empty on first use).
    pub fn vb(&self, vb: VbId) -> Result<VBucketStore> {
        let log = Arc::clone(&self.shards[self.shard_of(vb)]);
        let index = log.index(vb);
        Ok(VBucketStore { vb, log, index })
    }

    /// Append what `cycle` has buffered to `shard`'s log — unsynced and
    /// unindexed: nothing reads it before [`commit`](BucketStore::commit).
    /// Between its slices and its commit a cycle must be the only writer of
    /// the log. On an error the log is cut back to the cycle's first byte
    /// and the cycle is emptied.
    pub fn append_slice(&self, shard: usize, cycle: &mut Cycle) -> Result<()> {
        self.shards[shard].log.append_slice(cycle)
    }

    /// The flusher's write: append the rest of `cycle` — records of
    /// `shard`'s vBuckets only — to the shard's log, make all of it durable
    /// with one `sync_data`, then index the records. Returns the time the
    /// sync took. An error leaves the indexes as they were and the log as
    /// it was before the cycle's first slice, and empties the cycle.
    pub fn commit(&self, shard: usize, cycle: &mut Cycle) -> Result<Duration> {
        debug_assert!(cycle.recs.iter().all(|rec| self.shard_of(rec.vb) == shard));
        self.shards[shard].append(cycle, true)
    }

    /// Give up a cycle that will not be committed: the log is cut back to
    /// its first byte and the cycle is emptied.
    pub fn abandon(&self, shard: usize, cycle: &mut Cycle) {
        self.shards[shard].log.abandon(cycle);
    }

    /// Forget a vBucket's documents (rebalance hand-off: the paper's *dead*
    /// state — "this server is not in any way responsible for this
    /// partition"). A purge marker is appended to its log, so no replay
    /// that sees anything written later resurrects them; a vBucket created
    /// again starts from nothing. The marker is durable with the shard's
    /// next [`commit`](BucketStore::commit) or
    /// [`sync_pending`](BucketStore::sync_pending).
    pub fn drop_vb(&self, vb: VbId) -> Result<()> {
        self.shards[self.shard_of(vb)].purge(vb)
    }

    /// Sync `shard`'s log if it holds appends no sync has covered (a purge
    /// marker, stand-alone `persist`s): what the flusher calls on a cycle
    /// with nothing to commit.
    pub fn sync_pending(&self, shard: usize) -> Result<()> {
        self.shards[shard].log.sync_pending()
    }

    /// vBuckets with an index, in order.
    pub fn open_vbs(&self) -> Vec<VbId> {
        let mut v: Vec<VbId> = self
            .shards
            .iter()
            .flat_map(|log| log.vbs.read().keys().copied().collect::<Vec<_>>())
            .collect();
        v.sort();
        v
    }

    /// Bytes in `shard`'s log.
    pub fn log_bytes(&self, shard: usize) -> u64 {
        self.shards[shard].log.len_bytes()
    }

    /// The fragmentation threshold every log compacts at (§4.3.3): the data
    /// engine's and every GSI partition's.
    pub const FRAGMENTATION_THRESHOLD: f64 = 0.6;

    /// Compact `shard`'s log if the stale fraction of its bytes has reached
    /// `threshold` and no other log of the store is compacting; returns
    /// whether it ran. A shard that finds another one compacting does not
    /// wait: it is asked again at its next turn.
    pub fn compact_shard(&self, shard: usize, threshold: f64) -> Result<bool> {
        let log = &self.shards[shard];
        let (bytes, stale) = log.usage();
        if bytes == 0 || (stale as f64 / bytes as f64) < threshold {
            return Ok(false);
        }
        if self.compacting.swap(true, Ordering::SeqCst) {
            return Ok(false);
        }
        let ran = log.compact(COMPACT_CHUNK);
        self.compacting.store(false, Ordering::SeqCst);
        ran.map(|_| true)
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
        (0..bs.shards.len())
            .map(|s| std::fs::metadata(shard_path(bs.dir(), s)).unwrap().len())
            .sum()
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
        assert!(!bs.dir().join("vb_3.couch").exists(), "the shard log is the only file");
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
            let bs = BucketStore::open_sharded(dir.clone(), 2, 8).unwrap();
            let mut cycle = Cycle::new();
            cycle.push_doc(VbId(0), &doc_with("a", r#"{"v":1}"#, 1)).unwrap();
            cycle.push_doc(VbId(0), &doc_with("b", r#"{"v":3}"#, 2)).unwrap();
            cycle.push_doc(VbId(3), &doc("c", 1)).unwrap();
            assert_eq!(cycle.len(), 3);
            bs.commit(0, &mut cycle).unwrap();
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
            bs.commit(0, &mut cycle).unwrap();
            let mut cycle = Cycle::new();
            cycle.push_doc(VbId(7), &doc("z", 1)).unwrap();
            bs.commit(1, &mut cycle).unwrap();
        }
        let bs = BucketStore::open_sharded(dir, 2, 8).unwrap();
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
        let path = shard_path(&dir, 0);
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
            bs.sync_pending(0).unwrap(); // what the flusher's next cycle does
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
        assert!(bs.compact_shard(0, 0.1).unwrap());
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
        assert!(!bs.compact_shard(0, 0.9).unwrap(), "below the threshold: no-op");
        let before_hot = hot.changes_since(SeqNo::ZERO).unwrap();
        let before_cold = cold.changes_since(SeqNo::ZERO).unwrap();
        let before = disk_bytes(&bs);

        // A 4 KiB chunk limit against ~40 KiB of live records: the copy
        // buffer stays bounded by the limit, not by the log.
        let peak = bs.shards[0].compact(4096).unwrap();
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

    #[test]
    fn only_logs_over_the_threshold_compact() {
        let bs = BucketStore::open_sharded(scratch_dir("bucket"), 2, 2).unwrap();
        let s = bs.vb(VbId(0)).unwrap();
        for i in 0..50 {
            s.persist(&doc("same-key", i + 1)).unwrap();
        }
        bs.vb(VbId(1)).unwrap().persist(&doc("only", 1)).unwrap();
        let ran: Vec<bool> = (0..2).map(|shard| bs.compact_shard(shard, 0.5).unwrap()).collect();
        assert_eq!(ran, [true, false], "only the fragmented log compacts");
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
            assert!(bs.compact_shard(0, 0.0).unwrap());
            assert_eq!(&s.get("a").unwrap().unwrap().value[..], b"first");
            assert_eq!(&s.get("b").unwrap().unwrap().value[..], b"second");
            assert_eq!(accounted_bytes(&bs), disk_bytes(&bs));
        }
        let bs = BucketStore::open(dir).unwrap();
        let s = bs.vb(VbId(2)).unwrap();
        assert_eq!(&s.get("a").unwrap().unwrap().value[..], b"first");
        assert_eq!(&s.get("b").unwrap().unwrap().value[..], b"second");
    }

    /// A store compacts one log at a time: while another log holds the
    /// flag, a fragmented log is left exactly as it is, and the same call
    /// compacts it once the flag is free again.
    #[test]
    fn one_log_compacts_at_a_time() {
        let bs = BucketStore::open_sharded(scratch_dir("bucket"), 2, 2).unwrap();
        let s = bs.vb(VbId(0)).unwrap();
        for i in 0..50 {
            s.persist(&doc_with("same-key", &format!(r#"{{"v":{i}}}"#), i + 1)).unwrap();
        }
        let (bytes, stats) = (bs.log_bytes(0), s.stats());
        let latest = s.get("same-key").unwrap();

        bs.compacting.store(true, Ordering::SeqCst); // another log is compacting
        assert!(!bs.compact_shard(0, 0.5).unwrap(), "the flag is taken: no run");
        assert_eq!(bs.log_bytes(0), bytes);
        assert_eq!(disk_bytes(&bs), bytes);
        assert_eq!(s.stats(), stats, "the index is untouched");
        assert_eq!(s.get("same-key").unwrap(), latest);

        bs.compacting.store(false, Ordering::SeqCst);
        assert!(bs.compact_shard(0, 0.5).unwrap());
        assert!(bs.log_bytes(0) < bytes);
        assert_eq!(s.stats().compactions, 1);
        assert_eq!(s.get("same-key").unwrap(), latest);
        assert!(!bs.compacting.load(Ordering::SeqCst), "a run gives the flag back");
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
            assert!(bs.compact_shard(0, 0.0).unwrap());
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
    }

    #[test]
    fn layout_change_rehomes_every_vbucket() {
        let dir = scratch_dir("bucket");
        {
            let bs = BucketStore::open_sharded(dir.clone(), 4, 16).unwrap();
            for vb in 0..16u16 {
                let s = bs.vb(VbId(vb)).unwrap();
                s.persist_batch(&[doc(&format!("a{vb}"), 1), doc(&format!("b{vb}"), 2)]).unwrap();
                s.persist(&doc_with(&format!("a{vb}"), "2", 3)).unwrap();
            }
            bs.drop_vb(VbId(5)).unwrap();
        }
        {
            let bs = BucketStore::open_sharded(dir.clone(), 2, 16).unwrap();
            assert!(!shard_path(&dir, 2).exists() && !shard_path(&dir, 3).exists());
            for vb in (0..16u16).filter(|vb| *vb != 5) {
                let s = bs.vb(VbId(vb)).unwrap();
                assert_eq!(&s.get(&format!("a{vb}")).unwrap().unwrap().value[..], b"2", "vb {vb}");
                assert!(s.get(&format!("b{vb}")).unwrap().is_some());
                assert_eq!(s.high_seqno(), SeqNo(3));
                s.persist(&doc(&format!("c{vb}"), 4)).unwrap();
            }
            assert!(bs.vb(VbId(5)).unwrap().changes_since(SeqNo::ZERO).unwrap().is_empty());
            assert_eq!(accounted_bytes(&bs), disk_bytes(&bs), "nothing foreign is left behind");
        }
        // And back out to more logs than before.
        let bs = BucketStore::open_sharded(dir, 8, 16).unwrap();
        for vb in (0..16u16).filter(|vb| *vb != 5) {
            let s = bs.vb(VbId(vb)).unwrap();
            let keys: Vec<String> =
                s.changes_since(SeqNo::ZERO).unwrap().into_iter().map(|d| d.key).collect();
            assert_eq!(keys, [format!("b{vb}"), format!("a{vb}"), format!("c{vb}")]);
        }
        assert_eq!(accounted_bytes(&bs), disk_bytes(&bs));
    }
}
