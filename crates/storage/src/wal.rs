//! Group-commit write-ahead log for the flusher pool.
//!
//! The sharded flusher drains many vBuckets per cycle. Syncing each
//! per-vBucket append-only file individually would cost one fsync per
//! vBucket per cycle — exactly the bottleneck the paper's asynchronous
//! disk-write queue is meant to amortize (§2.3.2). Instead, each flusher
//! shard owns one [`GroupCommitWal`]: every drain cycle appends all of the
//! cycle's records (across all of the shard's vBuckets) to the WAL with a
//! single write, then issues **one** `sync()` — that sync is the durability
//! point. The per-vBucket stores are written afterwards *without* syncing;
//! the WAL covers them until a checkpoint syncs the touched stores and
//! truncates the log.
//!
//! Record framing reuses the storage [`record`](crate::record) encoding,
//! prefixed with the owning vBucket id:
//!
//! ```text
//! | vb u16 LE | record (magic, crc32, paylen, payload) | ...
//! ```
//!
//! On engine open, [`replay_wals`] scans every `wal_*.log` in the data
//! directory (shard count may have changed across restarts) and returns the
//! records so the engine can re-apply any that are newer than what the
//! per-vBucket stores recovered. A torn tail — crash mid-append — simply
//! ends the replay, mirroring the per-vBucket recovery contract.
//!
//! The index service's change logs are the same type under another file
//! name ([`GroupCommitWal::open_file`]): a log that is its owner's only
//! store is never checkpointed away, so its owner replays it with
//! [`replay_file`] and cuts a torn tail off ([`GroupCommitWal::truncate_to`])
//! before appending again.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use bytes::{BufMut, BytesMut};
use cbs_common::sync::{rank, OrderedMutex};
use cbs_common::{Result, VbId};

use crate::record::{decode_record, encode_record, DecodeOutcome, StoredDoc};

struct WalInner {
    file: File,
    len: u64,
}

/// One flusher shard's write-ahead log (`wal_<shard>.log`).
pub struct GroupCommitWal {
    path: PathBuf,
    inner: OrderedMutex<WalInner>,
}

impl GroupCommitWal {
    /// Open (or create) the WAL for `shard` inside `dir`, appending after
    /// any existing content.
    pub fn open(dir: &Path, shard: usize) -> Result<GroupCommitWal> {
        GroupCommitWal::open_file(dir.join(format!("wal_{shard}.log")))
    }

    /// Open (or create) a log at an explicit `path` — for owners other than
    /// the flusher shards (the GSI change log), whose files must not match
    /// the `wal_*.log` pattern [`replay_wals`] sweeps up.
    pub fn open_file(path: PathBuf) -> Result<GroupCommitWal> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = OpenOptions::new().read(true).append(true).create(true).open(&path)?;
        let len = file.seek(SeekFrom::End(0))?;
        Ok(GroupCommitWal { path, inner: OrderedMutex::new(rank::WAL, WalInner { file, len }) })
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one drain cycle — every batch of every vBucket the shard
    /// drained — as a single buffered write. Returns the bytes appended.
    /// Durability requires a follow-up [`GroupCommitWal::sync`].
    pub fn append_cycle<'a, I>(&self, batches: I) -> Result<u64>
    where
        I: IntoIterator<Item = (VbId, &'a [StoredDoc])>,
    {
        let _s = cbs_obs::span("storage.wal.append");
        let mut buf = BytesMut::new();
        for (vb, docs) in batches {
            for doc in docs {
                buf.put_u16_le(vb.0);
                encode_record(doc, &mut buf);
            }
        }
        if buf.is_empty() {
            return Ok(0);
        }
        let mut inner = self.inner.lock();
        inner.file.write_all(&buf)?;
        inner.len += buf.len() as u64;
        Ok(buf.len() as u64)
    }

    /// The group commit: one fsync covering every record appended since the
    /// previous sync, across all of the shard's vBuckets.
    pub fn sync(&self) -> Result<()> {
        let _s = cbs_obs::span("storage.wal.fsync");
        self.inner.lock().file.sync_data()?;
        Ok(())
    }

    /// Bytes currently in the log (checkpoint-policy input).
    pub fn len_bytes(&self) -> u64 {
        self.inner.lock().len
    }

    /// Truncate the log to empty. Call only after the covered per-vBucket
    /// stores have been synced (the checkpoint contract).
    pub fn reset(&self) -> Result<()> {
        self.truncate_to(0)
    }

    /// Cut the log back to its first `len` bytes and sync. Recovery uses
    /// this to drop a torn tail before appending again — records written
    /// after garbage would be unreachable to the next replay.
    pub fn truncate_to(&self, len: u64) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.file.set_len(len)?;
        inner.file.seek(SeekFrom::End(0))?;
        inner.file.sync_data()?;
        inner.len = len;
        Ok(())
    }
}

/// Read every `wal_*.log` under `dir` and decode its records in append
/// order. Torn tails end that file's replay silently (the synced prefix is
/// all that was ever acknowledged durable); a *corrupt* record — bytes
/// fully present but failing validation — also ends it, but loudly: the
/// discarded suffix may hold synced, acknowledged-durable records, so the
/// loss is reported rather than silent. Files from a previous shard layout
/// are replayed all the same (vBucket ownership is encoded per record, not
/// per file).
pub fn replay_wals(dir: &Path) -> Result<Vec<(VbId, StoredDoc)>> {
    let mut out = Vec::new();
    for path in wal_paths(dir)? {
        replay_file(&path, &mut out)?;
    }
    Ok(out)
}

/// Decode one log file's records in append order onto `out`, under the
/// torn-tail / corruption contract of [`replay_wals`]. Returns the length
/// of the intact prefix, which an owner that keeps appending to the same
/// file passes to [`GroupCommitWal::truncate`] first.
pub fn replay_file(path: &Path, out: &mut Vec<(VbId, StoredDoc)>) -> Result<u64> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let mut offset = 0usize;
    while bytes.len() - offset >= 2 {
        let vb = VbId(u16::from_le_bytes([bytes[offset], bytes[offset + 1]]));
        match decode_record(&bytes[offset + 2..]) {
            DecodeOutcome::Record { doc, consumed } => {
                out.push((vb, doc));
                offset += 2 + consumed;
            }
            // Torn tail (crash mid-append): expected, stop quietly.
            DecodeOutcome::Incomplete => break,
            DecodeOutcome::Corrupt(msg) => {
                eprintln!(
                    "cbs-storage: WAL {} corrupt at offset {offset}: {msg}; \
                     discarding the remaining {} bytes of replay — records \
                     after the corruption may have been acknowledged durable",
                    path.display(),
                    bytes.len() - offset,
                );
                break;
            }
        }
    }
    Ok(offset as u64)
}

/// Delete every `wal_*.log` under `dir` (end of replay, after the target
/// stores have been synced).
pub fn remove_wals(dir: &Path) -> Result<()> {
    for path in wal_paths(dir)? {
        std::fs::remove_file(path)?;
    }
    Ok(())
}

fn wal_paths(dir: &Path) -> Result<Vec<PathBuf>> {
    let mut paths = Vec::new();
    if !dir.exists() {
        return Ok(paths);
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("wal_") && name.ends_with(".log") {
            paths.push(path);
        }
    }
    paths.sort();
    Ok(paths)
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

        let replayed = replay_wals(&dir).unwrap();
        let got: Vec<(u16, &str, u64)> =
            replayed.iter().map(|(vb, d)| (vb.0, d.key.as_str(), d.meta.seqno.0)).collect();
        assert_eq!(got, [(0, "a", 1), (0, "b", 2), (7, "c", 1)]);
    }

    #[test]
    fn reset_empties_the_log() {
        let dir = scratch_dir("wal");
        let wal = GroupCommitWal::open(&dir, 3).unwrap();
        let b = vec![doc("a", 1)];
        wal.append_cycle([(VbId(1), b.as_slice())]).unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.len_bytes(), 0);
        assert!(replay_wals(&dir).unwrap().is_empty());
        // Still appendable after reset.
        wal.append_cycle([(VbId(1), b.as_slice())]).unwrap();
        assert_eq!(replay_wals(&dir).unwrap().len(), 1);
    }

    #[test]
    fn replay_merges_multiple_shards_and_survives_reopen() {
        let dir = scratch_dir("wal");
        {
            let w0 = GroupCommitWal::open(&dir, 0).unwrap();
            let w1 = GroupCommitWal::open(&dir, 1).unwrap();
            let b0 = vec![doc("a", 1)];
            let b1 = vec![doc("b", 1)];
            w0.append_cycle([(VbId(0), b0.as_slice())]).unwrap();
            w1.append_cycle([(VbId(9), b1.as_slice())]).unwrap();
            w0.sync().unwrap();
            w1.sync().unwrap();
        }
        let replayed = replay_wals(&dir).unwrap();
        assert_eq!(replayed.len(), 2);
        remove_wals(&dir).unwrap();
        assert!(replay_wals(&dir).unwrap().is_empty());
    }

    #[test]
    fn mid_file_corruption_stops_replay_at_corrupt_record() {
        let dir = scratch_dir("wal");
        let wal = GroupCommitWal::open(&dir, 0).unwrap();
        let b = vec![doc("a", 1), doc("b", 2), doc("c", 3)];
        wal.append_cycle([(VbId(4), b.as_slice())]).unwrap();
        wal.sync().unwrap();
        let path = wal.path().to_path_buf();
        drop(wal);
        // Flip a payload byte in the middle record: replay keeps the intact
        // prefix and stops (loudly) at the corruption.
        let mut bytes = std::fs::read(&path).unwrap();
        let off = (2 + b[0].disk_size() as usize) + 2 + crate::record::HEADER_LEN;
        bytes[off] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let replayed = replay_wals(&dir).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].1.key, "a");
    }

    #[test]
    fn torn_tail_ends_replay() {
        let dir = scratch_dir("wal");
        let wal = GroupCommitWal::open(&dir, 0).unwrap();
        let b = vec![doc("a", 1), doc("b", 2)];
        wal.append_cycle([(VbId(4), b.as_slice())]).unwrap();
        wal.sync().unwrap();
        let path = wal.path().to_path_buf();
        drop(wal);
        // Chop 3 bytes off the tail: the second record is torn.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let replayed = replay_wals(&dir).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].1.key, "a");
    }
}
