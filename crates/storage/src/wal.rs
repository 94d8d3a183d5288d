//! The group-commit log file: CRC-framed records, one fsync per commit.
//!
//! A [`GroupCommitWal`] is an append-only file of framed records whose
//! owner appends a whole batch — in one write, or a slice at a time — and
//! then issues **one** `sync()`: that sync is the batch's durability point
//! (the paper's asynchronous disk-write queue amortised, §2.3.2). It is its
//! owner's only store, never checkpointed away: the owner scans it on open,
//! cuts a torn tail off, and keeps appending.
//!
//! Record framing reuses the storage [`record`](crate::record) encoding,
//! prefixed with the owning vBucket id:
//!
//! ```text
//! | vb u16 LE | record (magic, crc32, paylen, payload) | ...
//! ```
//!
//! One owner uses it, a [`CommitLog`](crate::CommitLog): a bucket's data
//! log (a [`BucketStore`](crate::BucketStore)'s one file,
//! `shard_0.couch`, every vBucket of the bucket on its node interleaved, indexed in
//! memory by offset) or a GSI partition's change log.
//! [`GroupCommitWal::open`] names a stand-alone log `wal_<n>.log`;
//! [`replay_file`] reads any log back in append order.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cbs_common::sync::{rank, OrderedMutex};
use cbs_common::{Error, Result, VbId};

use crate::record::{decode_view, encode_record, Decoded, RecordView, StoredDoc};

/// Bytes of the vBucket id in front of every record.
pub(crate) const FRAME_PREFIX: usize = 2;

/// How long a log can grow: a storage-index entry keeps a record's offset
/// in 48 bits, so an append that would end past 2⁴⁸ bytes is refused.
pub const MAX_LOG_LEN: u64 = 1 << 48;

struct WalInner {
    /// Shared with readers, who `read_at` record offsets without this lock.
    file: Arc<File>,
    len: u64,
}

/// One append-only, group-committed log file.
pub struct GroupCommitWal {
    path: PathBuf,
    inner: OrderedMutex<WalInner>,
}

impl GroupCommitWal {
    /// Open (or create) the log `wal_<shard>.log` inside `dir`, appending
    /// after any existing content.
    pub fn open(dir: &Path, shard: usize) -> Result<GroupCommitWal> {
        GroupCommitWal::open_file(dir.join(format!("wal_{shard}.log")))
    }

    /// Open (or create) a log at an explicit `path`, appending after any
    /// existing content.
    pub(crate) fn open_file(path: PathBuf) -> Result<GroupCommitWal> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = OpenOptions::new().read(true).append(true).create(true).open(&path)?;
        let len = file.seek(SeekFrom::End(0))?;
        Ok(GroupCommitWal {
            path,
            inner: OrderedMutex::new(rank::WAL, WalInner { file: Arc::new(file), len }),
        })
    }

    /// Path of the backing file.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// The open file, for positioned reads of offsets [`append`] returned.
    ///
    /// [`append`]: GroupCommitWal::append
    pub(crate) fn file(&self) -> Arc<File> {
        Arc::clone(&self.inner.lock().file)
    }

    /// Append one batch — every record of every vBucket in it — as a single
    /// buffered write. Returns the bytes appended. Durability requires a
    /// follow-up [`GroupCommitWal::sync`].
    pub fn append_cycle<'a, I>(&self, batches: I) -> Result<u64>
    where
        I: IntoIterator<Item = (VbId, &'a [StoredDoc])>,
    {
        let mut buf = Vec::new();
        for (vb, docs) in batches {
            for doc in docs {
                buf.extend_from_slice(&vb.0.to_le_bytes());
                encode_record(doc, &mut buf)?;
            }
        }
        if !buf.is_empty() {
            self.append(&buf)?;
        }
        Ok(buf.len() as u64)
    }

    /// Append already framed records with one write; returns the offset of
    /// their first byte. A write that fails part-way is cut off again, so
    /// the next append starts where this one did; one that would end past
    /// [`MAX_LOG_LEN`] is refused before anything is written.
    pub(crate) fn append(&self, frames: &[u8]) -> Result<u64> {
        let _s = cbs_obs::span("storage.wal.append");
        let mut inner = self.inner.lock();
        let base = inner.len;
        if base + frames.len() as u64 > MAX_LOG_LEN {
            return Err(Error::Storage(format!(
                "log {} full: {} more bytes would pass the 2^48-byte offset space",
                self.path.display(),
                frames.len()
            )));
        }
        if let Err(e) = (&*inner.file).write_all(frames) {
            let _ = inner.file.set_len(base);
            return Err(e.into());
        }
        inner.len += frames.len() as u64;
        Ok(base)
    }

    /// The group commit: one fsync covering every record appended since the
    /// previous sync, across all of the batch's vBuckets.
    pub fn sync(&self) -> Result<()> {
        let _s = cbs_obs::span("storage.wal.fsync");
        self.inner.lock().file.sync_data()?;
        Ok(())
    }

    /// Bytes currently in the log.
    pub(crate) fn len_bytes(&self) -> u64 {
        self.inner.lock().len
    }

    /// Truncate the log to empty.
    pub(crate) fn reset(&self) -> Result<()> {
        self.truncate_to(0)
    }

    /// Cut the log back to its first `len` bytes and sync. Recovery uses
    /// this to drop a torn tail before appending again — records written
    /// after garbage would be unreachable to the next replay.
    pub(crate) fn truncate_to(&self, len: u64) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.file.set_len(len)?;
        // The file is this long now, whether or not the sync below holds.
        inner.len = len;
        inner.file.sync_data()?;
        Ok(())
    }

    /// The compaction swap: rename `other`'s (fully written and synced)
    /// file over this log's path and continue on it. Returns the new file.
    /// The caller keeps appends away for the duration — one that landed
    /// between the rename and the switch would go to the unlinked file.
    pub(crate) fn replace_with(&self, other: GroupCommitWal) -> Result<Arc<File>> {
        std::fs::rename(&other.path, &self.path)?;
        let (file, len) = {
            let theirs = other.inner.lock();
            (Arc::clone(&theirs.file), theirs.len)
        };
        *self.inner.lock() = WalInner { file: Arc::clone(&file), len };
        Ok(file)
    }
}

/// How much of a log a scan reads at a time.
const SCAN_CHUNK: usize = 1 << 20;

/// Walk a log file's records in append order without holding the file in
/// memory: `visit(vb, offset of the record behind its vBucket prefix,
/// record, its encoded length)`. Returns the length of the intact prefix.
/// A torn tail — crash mid-append — ends the scan silently (the synced
/// prefix is all that was ever acknowledged durable); a *corrupt* record —
/// bytes fully present but failing validation — also ends it, but loudly:
/// the discarded suffix may hold synced, acknowledged-durable records, so
/// the loss is reported rather than silent.
pub(crate) fn scan_frames(
    path: &Path,
    mut visit: impl FnMut(VbId, u64, &RecordView<'_>, usize),
) -> Result<u64> {
    let mut file = File::open(path)?;
    // `window` holds the file's bytes from offset `base` on; `pos` is the
    // cursor inside it.
    let (mut window, mut base, mut pos, mut eof) = (Vec::new(), 0u64, 0usize, false);
    loop {
        while window.len() - pos >= FRAME_PREFIX {
            let vb = VbId(u16::from_le_bytes([window[pos], window[pos + 1]]));
            match decode_view(&window[pos + FRAME_PREFIX..]) {
                Decoded::Record { doc, consumed } => {
                    visit(vb, base + (pos + FRAME_PREFIX) as u64, &doc, consumed);
                    pos += FRAME_PREFIX + consumed;
                }
                Decoded::Incomplete => break,
                Decoded::Corrupt(msg) => {
                    let at = base + pos as u64;
                    eprintln!(
                        "cbs-storage: log {} corrupt at offset {at}: {msg}; discarding the \
                         remaining {} bytes — records after the corruption may have been \
                         acknowledged durable",
                        path.display(),
                        file.metadata()?.len().saturating_sub(at),
                    );
                    return Ok(at);
                }
            }
        }
        if eof {
            return Ok(base + pos as u64);
        }
        window.drain(..pos);
        base += pos as u64;
        pos = 0;
        let have = window.len();
        window.resize(have + SCAN_CHUNK, 0);
        let mut got = 0;
        while got < SCAN_CHUNK {
            match file.read(&mut window[have + got..])? {
                0 => break,
                n => got += n,
            }
        }
        window.truncate(have + got);
        eof = got < SCAN_CHUNK;
    }
}

/// Decode one log file's records in append order onto `out`, under the
/// torn-tail / corruption contract of the store's own recovery scan.
/// Returns the length of the intact prefix: what the store's recovery
/// keeps of the file.
pub fn replay_file(path: &Path, out: &mut Vec<(VbId, StoredDoc)>) -> Result<u64> {
    scan_frames(path, |vb, _, rec, _| out.push((vb, rec.to_doc())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::DocMeta;
    use crate::scratch_dir;
    use bytes::Bytes;
    use cbs_common::SeqNo;

    fn doc(key: &str, seq: u64) -> StoredDoc {
        StoredDoc {
            key: key.to_string(),
            meta: DocMeta { seqno: SeqNo(seq), ..Default::default() },
            deleted: false,
            value: Bytes::from_static(br#"{"v":1}"#),
        }
    }

    fn replay(wal: &GroupCommitWal) -> Vec<(u16, String, u64)> {
        let mut out = Vec::new();
        replay_file(wal.path(), &mut out).unwrap();
        out.into_iter().map(|(vb, d)| (vb.0, d.key, d.meta.seqno.0)).collect()
    }

    #[test]
    fn append_sync_replay_roundtrip() {
        let dir = scratch_dir("wal");
        let wal = GroupCommitWal::open(&dir, 0).unwrap();
        let b0 = vec![doc("a", 1), doc("b", 2)];
        let b1 = vec![doc("c", 1)];
        let n = wal.append_cycle([(VbId(0), b0.as_slice()), (VbId(7), b1.as_slice())]).unwrap();
        assert!(n > 0);
        assert_eq!(wal.len_bytes(), n);
        wal.sync().unwrap();
        assert_eq!(
            replay(&wal),
            [(0, "a".to_string(), 1), (0, "b".to_string(), 2), (7, "c".to_string(), 1)]
        );
    }

    #[test]
    fn append_returns_offsets_readable_through_the_shared_file() {
        use std::os::unix::fs::FileExt;
        let dir = scratch_dir("wal");
        let wal = GroupCommitWal::open(&dir, 0).unwrap();
        let mut first = Vec::new();
        encode_record(&doc("a", 1), &mut first).unwrap();
        let mut second = Vec::new();
        encode_record(&doc("b", 2), &mut second).unwrap();
        assert_eq!(wal.append(&first).unwrap(), 0);
        assert_eq!(wal.append(&second).unwrap(), first.len() as u64);
        let mut back = vec![0u8; second.len()];
        wal.file().read_exact_at(&mut back, first.len() as u64).unwrap();
        assert_eq!(back, second);
    }

    /// An append that would end past the 48-bit offset space is refused
    /// with the file untouched; one that ends on its last byte goes in.
    #[test]
    fn an_append_past_the_offset_space_is_refused() {
        let dir = scratch_dir("wal");
        let wal = GroupCommitWal::open(&dir, 0).unwrap();
        // The log's length as if it were 10 bytes short of the bound.
        wal.inner.lock().len = MAX_LOG_LEN - 10;
        let refused = wal.append(&[0u8; 11]);
        assert!(matches!(refused, Err(Error::Storage(ref m)) if m.contains("2^48")), "{refused:?}");
        assert_eq!(std::fs::metadata(wal.path()).unwrap().len(), 0, "nothing written");
        assert_eq!(wal.len_bytes(), MAX_LOG_LEN - 10);
        assert_eq!(wal.append(&[0u8; 10]).unwrap(), MAX_LOG_LEN - 10);
        assert_eq!(wal.len_bytes(), MAX_LOG_LEN);
    }

    #[test]
    fn reset_empties_the_log() {
        let dir = scratch_dir("wal");
        let wal = GroupCommitWal::open(&dir, 3).unwrap();
        let b = vec![doc("a", 1)];
        wal.append_cycle([(VbId(1), b.as_slice())]).unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.len_bytes(), 0);
        assert!(replay(&wal).is_empty());
        // Still appendable after reset.
        wal.append_cycle([(VbId(1), b.as_slice())]).unwrap();
        assert_eq!(replay(&wal).len(), 1);
    }

    #[test]
    fn replace_with_continues_on_the_other_file() {
        let dir = scratch_dir("wal");
        let wal = GroupCommitWal::open(&dir, 0).unwrap();
        let old = vec![doc("old", 1), doc("old2", 2)];
        wal.append_cycle([(VbId(1), old.as_slice())]).unwrap();
        let other = GroupCommitWal::open_file(dir.join("wal_0.compact")).unwrap();
        let kept = vec![doc("old2", 2)];
        other.append_cycle([(VbId(1), kept.as_slice())]).unwrap();
        other.sync().unwrap();
        wal.replace_with(other).unwrap();
        assert!(!dir.join("wal_0.compact").exists());
        let more = vec![doc("new", 3)];
        wal.append_cycle([(VbId(1), more.as_slice())]).unwrap();
        assert_eq!(replay(&wal), [(1, "old2".to_string(), 2), (1, "new".to_string(), 3)]);
        assert_eq!(wal.len_bytes(), std::fs::metadata(wal.path()).unwrap().len());
    }

    #[test]
    fn scan_crosses_chunk_boundaries() {
        let dir = scratch_dir("wal");
        let wal = GroupCommitWal::open(&dir, 0).unwrap();
        let big = StoredDoc { value: Bytes::from(vec![b'x'; 300_000]), ..doc("big", 0) };
        let docs: Vec<StoredDoc> = (1..=9)
            .map(|i| StoredDoc { meta: DocMeta { seqno: SeqNo(i), ..big.meta }, ..big.clone() })
            .collect();
        let n = wal.append_cycle([(VbId(2), docs.as_slice())]).unwrap();
        assert!(n as usize > 2 * SCAN_CHUNK);
        let mut out = Vec::new();
        assert_eq!(replay_file(wal.path(), &mut out).unwrap(), n);
        assert_eq!(
            out.iter().map(|(_, d)| d.meta.seqno.0).collect::<Vec<_>>(),
            (1..=9).collect::<Vec<_>>()
        );
        assert!(out.iter().all(|(_, d)| d.value.len() == 300_000));
    }

    #[test]
    fn mid_file_corruption_stops_replay_at_corrupt_record() {
        let dir = scratch_dir("wal");
        let wal = GroupCommitWal::open(&dir, 0).unwrap();
        let b = vec![doc("a", 1), doc("b", 2), doc("c", 3)];
        wal.append_cycle([(VbId(4), b.as_slice())]).unwrap();
        wal.sync().unwrap();
        // Flip a payload byte in the middle record: replay keeps the intact
        // prefix and stops (loudly) at the corruption.
        let mut bytes = std::fs::read(wal.path()).unwrap();
        let off = (2 + b[0].disk_size() as usize) + 2 + crate::record::HEADER_LEN;
        bytes[off] ^= 0xFF;
        std::fs::write(wal.path(), &bytes).unwrap();
        assert_eq!(replay(&wal), [(4, "a".to_string(), 1)]);
    }

    #[test]
    fn torn_tail_ends_replay() {
        let dir = scratch_dir("wal");
        let wal = GroupCommitWal::open(&dir, 0).unwrap();
        let b = vec![doc("a", 1), doc("b", 2)];
        wal.append_cycle([(VbId(4), b.as_slice())]).unwrap();
        wal.sync().unwrap();
        // Chop 3 bytes off the tail: the second record is torn.
        let len = std::fs::metadata(wal.path()).unwrap().len();
        let f = OpenOptions::new().write(true).open(wal.path()).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let mut out = Vec::new();
        let intact = replay_file(wal.path(), &mut out).unwrap();
        assert_eq!(intact, 2 + b[0].disk_size());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.key, "a");
    }
}
