//! One append-only log and its single writer's protocol, whatever indexes
//! it.
//!
//! A [`CommitLog`] is a [`GroupCommitWal`] plus the rules every owner of a
//! log follows: a [`Cycle`] of records is appended in slices of
//! [`CYCLE_SLICE`] bytes and made durable by one `sync_data`
//! ([`CommitLog::commit`]), and a slice or sync that fails cuts the log back
//! to the cycle's first byte ([`CommitLog::abandon`]). Opening a log scans
//! it once, in append order, cuts a torn or corrupt tail off (the
//! [`replay_file`](crate::replay_file) contract) and deletes the leftover of
//! a rewrite a crash interrupted. A rewrite ([`CommitLog::rewrite`]) fills a
//! fresh file beside the log; [`CommitLog::install`] syncs it, renames it
//! over the log and syncs the directory.
//!
//! Two owners use it. A [`BucketStore`](crate::BucketStore)'s one log
//! (every vBucket of the bucket on its node) indexes the records by key, and its
//! compaction copies the live ones. A Standard GSI partition holds one
//! directly: its tree is the log's only index, a reopen replays every
//! record, and a rewrite writes the tree's state.
//!
//! **One log, one writer.** Appends, commits and rewrites of one log must
//! not overlap — a cycle's slices included. The owner keeps writers apart;
//! readers only `read_at` offsets of the file they were given.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cbs_common::{DocMeta, Result, SeqNo, VbId};

use crate::record::{encode_record_with, RecordView, StoredDoc, KIND_LIVE, KIND_TOMBSTONE};
use crate::wal::{scan_frames, GroupCommitWal};

/// A drain cycle goes to its log a slice of about this many bytes at a
/// time ([`CommitLog::append_slice`]): what a cycle buffers, however many
/// records it carries.
pub const CYCLE_SLICE: usize = 64 << 10;

/// One drain cycle: its records, encoded, and their keys. Frames leave the
/// buffer a slice at a time; the keys and places stay for the indexing that
/// follows the cycle's sync.
#[derive(Default)]
pub struct Cycle {
    /// Frames not appended yet.
    pub(crate) buf: Vec<u8>,
    /// Every record's key, back to back.
    keys: String,
    pub(crate) recs: Vec<CycleRec>,
    /// Where the cycle's first byte landed in the log, once a slice has.
    pub(crate) base: Option<u64>,
    /// Bytes of the cycle already in the log.
    pub(crate) appended: u64,
}

pub(crate) struct CycleRec {
    pub(crate) vb: VbId,
    pub(crate) seqno: SeqNo,
    pub(crate) deleted: bool,
    /// Where the record's frame starts, counted from the cycle's first
    /// byte, and the record's length.
    pub(crate) at: u64,
    pub(crate) len: u32,
    /// Where the key starts in `keys`, and its length.
    key_at: usize,
    key_len: u16,
}

impl Cycle {
    /// An empty cycle.
    pub fn new() -> Cycle {
        Cycle::default()
    }

    /// Add one document version; its encoded `value` (empty, for a
    /// tombstone) is copied straight into the cycle's buffer. Pushed in
    /// seqno order, a vBucket's records leave a seqno prefix behind a torn
    /// tail. A key or a payload no record can hold is refused
    /// ([`Error::KeyTooLong`](cbs_common::Error::KeyTooLong),
    /// [`Error::RecordTooLarge`](cbs_common::Error::RecordTooLarge)) and
    /// nothing is added.
    pub fn push(
        &mut self,
        vb: VbId,
        key: &str,
        meta: &DocMeta,
        deleted: bool,
        value: &[u8],
    ) -> Result<()> {
        let at = self.buf.len();
        self.buf.extend_from_slice(&vb.0.to_le_bytes());
        let kind = if deleted { KIND_TOMBSTONE } else { KIND_LIVE };
        let len = encode_record_with(&mut self.buf, key, meta, kind, value)
            .inspect_err(|_| self.buf.truncate(at))? as u32;
        self.recs.push(CycleRec {
            vb,
            seqno: meta.seqno,
            deleted,
            at: self.appended + at as u64,
            len,
            key_at: self.keys.len(),
            key_len: key.len() as u16, // `encode_record_with` checked it
        });
        self.keys.push_str(key);
        Ok(())
    }

    /// Add an already serialised document version.
    pub fn push_doc(&mut self, vb: VbId, doc: &StoredDoc) -> Result<()> {
        self.push(vb, &doc.key, &doc.meta, doc.deleted, &doc.value)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// True when nothing was pushed.
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Bytes pushed since the last slice went to the log: a caller appends
    /// a slice once this reaches [`CYCLE_SLICE`].
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len()
    }

    /// `(vBucket, key, seqno)` of every record, in push order.
    pub fn records(&self) -> impl Iterator<Item = (VbId, &str, SeqNo)> + '_ {
        self.recs.iter().map(|rec| (rec.vb, self.key(rec), rec.seqno))
    }

    pub(crate) fn key(&self, rec: &CycleRec) -> &str {
        &self.keys[rec.key_at..rec.key_at + rec.key_len as usize]
    }

    /// Empty the cycle, keeping its buffers' capacity.
    fn clear(&mut self) {
        self.buf.clear();
        self.keys.clear();
        self.recs.clear();
        self.base = None;
        self.appended = 0;
    }
}

/// Make the directory's entries — a log just created or renamed — durable.
pub(crate) fn sync_dir(dir: &Path) -> Result<()> {
    Ok(std::fs::File::open(dir)?.sync_all()?)
}

/// One append-only log file under the single-writer protocol.
pub struct CommitLog {
    wal: GroupCommitWal,
    /// Something was appended that no `sync_data` has covered yet.
    unsynced: AtomicBool,
}

impl CommitLog {
    /// Open (or create) the log at `path` and replay it: every intact
    /// record goes to `replay` in append order, a torn or corrupt tail is
    /// cut off, and a rewrite left unfinished beside the log is deleted.
    /// The directory entry is synced, so a log created here survives a
    /// crash once its first commit does.
    pub fn open(path: PathBuf, mut replay: impl FnMut(VbId, StoredDoc)) -> Result<CommitLog> {
        let log = CommitLog::create(path)?;
        log.scan(|vb, _, rec, _| replay(vb, rec.to_doc()))?;
        if let Some(dir) = log.path().parent() {
            sync_dir(dir)?;
        }
        Ok(log)
    }

    /// Open (or create) the log at `path` without reading it, deleting an
    /// unfinished rewrite beside it. [`CommitLog::scan`] must follow before
    /// anything is appended.
    pub(crate) fn create(path: PathBuf) -> Result<CommitLog> {
        match std::fs::remove_file(path.with_extension("compact")) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
            _ => {}
        }
        Ok(CommitLog { wal: GroupCommitWal::open_file(path)?, unsynced: AtomicBool::new(false) })
    }

    /// Walk the log's records in append order — `visit(vb, offset of the
    /// record behind its vBucket prefix, record, its length)` — and cut
    /// whatever follows the intact prefix off.
    pub(crate) fn scan(&self, visit: impl FnMut(VbId, u64, &RecordView<'_>, usize)) -> Result<()> {
        if self.wal.len_bytes() > 0 {
            let intact = scan_frames(self.wal.path(), visit)?;
            if intact < self.wal.len_bytes() {
                self.wal.truncate_to(intact)?;
            }
        }
        Ok(())
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        self.wal.path()
    }

    /// Bytes in the log.
    pub(crate) fn len_bytes(&self) -> u64 {
        self.wal.len_bytes()
    }

    /// The open file, for positioned reads of the log's records.
    pub(crate) fn file(&self) -> Arc<File> {
        self.wal.file()
    }

    /// Append what `cycle` has buffered, unsynced, right behind its earlier
    /// slices: a caller appends a slice once the cycle buffers
    /// [`CYCLE_SLICE`] bytes. On an error the cycle is abandoned.
    pub fn append_slice(&self, cycle: &mut Cycle) -> Result<()> {
        if cycle.buf.is_empty() {
            return Ok(());
        }
        match self.wal.append(&cycle.buf) {
            Ok(at) => {
                let base = *cycle.base.get_or_insert(at);
                // The offsets the cycle's records are indexed at assume its
                // slices are contiguous: the one-writer rule above.
                assert_eq!(at, base + cycle.appended, "a write landed inside the cycle");
                cycle.appended += cycle.buf.len() as u64;
                cycle.buf.clear();
                Ok(())
            }
            Err(e) => {
                self.abandon(cycle);
                Err(e)
            }
        }
    }

    /// Give `cycle` up: cut the log back to the cycle's first byte and
    /// empty the cycle.
    pub fn abandon(&self, cycle: &mut Cycle) {
        if let Some(base) = cycle.base {
            let _ = self.wal.truncate_to(base);
        }
        *cycle = Cycle::default();
    }

    /// Append the rest of `cycle` and make all of it durable with one
    /// `sync_data`; returns the time the sync took. On an error the log is
    /// as it was before the cycle's first slice and the cycle is empty.
    pub fn commit(&self, cycle: &mut Cycle) -> Result<Duration> {
        Ok(self.write(cycle, true)?.map_or(Duration::ZERO, |(_, synced_in)| synced_in))
    }

    /// Append the rest of `cycle`, and sync the whole of it if asked to.
    /// Returns where the cycle's first byte is in the log and the time the
    /// sync took, or `None` when nothing was pushed. On an error the log is
    /// as it was before the cycle's first slice and the cycle is empty.
    pub(crate) fn write(&self, cycle: &mut Cycle, sync: bool) -> Result<Option<(u64, Duration)>> {
        self.append_slice(cycle)?;
        let Some(base) = cycle.base else {
            return Ok(None);
        };
        let sync_start = Instant::now();
        if sync {
            if let Err(e) = self.wal.sync() {
                self.abandon(cycle);
                return Err(e);
            }
        }
        self.unsynced.store(!sync, Ordering::SeqCst);
        Ok(Some((base, sync_start.elapsed())))
    }

    /// Append already framed records that the log's next sync makes
    /// durable (a purge marker).
    pub(crate) fn append_unsynced(&self, frames: &[u8]) -> Result<()> {
        self.wal.append(frames)?;
        self.unsynced.store(true, Ordering::SeqCst);
        Ok(())
    }

    /// Sync the log if anything appended to it is not synced yet.
    pub(crate) fn sync_pending(&self) -> Result<()> {
        if self.unsynced.swap(false, Ordering::SeqCst) {
            if let Err(e) = self.wal.sync() {
                self.unsynced.store(true, Ordering::SeqCst);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Start a rewrite of the log: an empty file beside it (`.compact`),
    /// which a crash before [`CommitLog::install`] leaves for the next
    /// open to delete.
    pub fn rewrite(&self) -> Result<Rewrite> {
        let fresh = GroupCommitWal::open_file(self.path().with_extension("compact"))?;
        if fresh.len_bytes() > 0 {
            fresh.reset()?; // left behind by a run that failed
        }
        Ok(Rewrite { fresh })
    }

    /// The swap: sync the rewritten file, rename it over the log and carry
    /// on appending to it; `switched` runs on the new file before the
    /// directory is synced. Once the directory is synced, a crash cannot
    /// bring the old log back behind a record acknowledged in the new one.
    /// The caller keeps every other writer away throughout.
    pub fn install(&self, rewrite: Rewrite, switched: impl FnOnce(&Arc<File>)) -> Result<()> {
        rewrite.fresh.sync()?;
        switched(&self.wal.replace_with(rewrite.fresh)?);
        match self.path().parent() {
            Some(dir) => sync_dir(dir),
            None => Ok(()),
        }
    }
}

/// A log's replacement being written ([`CommitLog::rewrite`]).
pub struct Rewrite {
    fresh: GroupCommitWal,
}

impl Rewrite {
    /// Append what `cycle` has buffered and empty it: a rewrite streams
    /// through one cycle a slice at a time.
    pub fn append(&self, cycle: &mut Cycle) -> Result<()> {
        if !cycle.buf.is_empty() {
            self.fresh.append(&cycle.buf)?;
        }
        cycle.clear();
        Ok(())
    }

    /// Append already framed records.
    pub(crate) fn append_frames(&self, frames: &[u8]) -> Result<()> {
        self.fresh.append(frames).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch_dir;

    fn meta(seqno: u64) -> DocMeta {
        DocMeta { seqno: SeqNo(seqno), ..Default::default() }
    }

    fn reopen(path: &Path) -> Vec<(VbId, String, u64)> {
        let mut seen = Vec::new();
        CommitLog::open(path.to_path_buf(), |vb, doc| seen.push((vb, doc.key, doc.meta.seqno.0)))
            .unwrap();
        seen
    }

    /// What is committed replays in append order; a rewrite replaces it
    /// whole, and what is committed after the swap lands behind it.
    #[test]
    fn commit_rewrite_install_replay() {
        let path = scratch_dir("commit-log").join("shard_0.couch");
        let log = CommitLog::open(path.clone(), |_, _| panic!("a new log is empty")).unwrap();
        let mut cycle = Cycle::new();
        for (key, seqno) in [("a", 1), ("b", 2), ("a", 3)] {
            cycle.push(VbId(1), key, &meta(seqno), false, b"{}").unwrap();
        }
        log.commit(&mut cycle).unwrap();
        assert_eq!(reopen(&path).len(), 3);

        let fresh = log.rewrite().unwrap();
        let mut cycle = Cycle::new();
        cycle.push(VbId(1), "b", &meta(2), false, b"{}").unwrap();
        fresh.append(&mut cycle).unwrap();
        assert!(cycle.is_empty() && cycle.buffered_bytes() == 0);
        cycle.push(VbId(1), "a", &meta(3), true, &[]).unwrap();
        fresh.append(&mut cycle).unwrap();
        let mut switched = false;
        log.install(fresh, |_| switched = true).unwrap();
        assert!(switched);
        assert!(!path.with_extension("compact").exists());
        cycle.push(VbId(2), "c", &meta(1), false, b"{}").unwrap();
        log.commit(&mut cycle).unwrap();
        assert_eq!(log.len_bytes(), std::fs::metadata(&path).unwrap().len());
        drop(log);
        let replayed = reopen(&path);
        let want = [(VbId(1), "b", 2), (VbId(1), "a", 3), (VbId(2), "c", 1)];
        assert_eq!(replayed, want.map(|(vb, k, s)| (vb, k.to_string(), s)));
    }

    /// An unfinished rewrite is deleted on open, and the log is read as it
    /// was before it.
    #[test]
    fn open_deletes_an_unfinished_rewrite() {
        let path = scratch_dir("commit-log").join("shard_0.couch");
        let log = CommitLog::open(path.clone(), |_, _| {}).unwrap();
        let mut cycle = Cycle::new();
        cycle.push(VbId(0), "kept", &meta(1), false, b"{}").unwrap();
        log.commit(&mut cycle).unwrap();
        let fresh = log.rewrite().unwrap();
        cycle.push(VbId(0), "half", &meta(2), false, b"{}").unwrap();
        fresh.append(&mut cycle).unwrap();
        drop((fresh, log));
        assert!(path.with_extension("compact").exists());
        assert_eq!(reopen(&path), [(VbId(0), "kept".to_string(), 1)]);
        assert!(!path.with_extension("compact").exists());
    }
}
