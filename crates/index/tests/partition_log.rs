//! A Standard partition's change log is a compacted, keyed store: what it
//! holds is bounded by the documents indexed, not by the changes made to
//! them, and it reopens to the live partition's state whatever order the
//! changes came in — a primary index's partition, whose records carry no
//! keys, included.

// Tests unwrap freely; the crate's unwrap_used deny targets lib code (the
// allow-unwrap-in-tests config covers #[test] fns but not file helpers).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};

use cbs_common::{SeqNo, VbId};
use cbs_index::{IndexKey, IndexOp, IndexStorage, Indexer, Layout, ScanRange};
use cbs_json::Value;
use cbs_storage::{scratch_dir, BucketStore};

const VBS: u16 = 4;

fn standard(dir: &Path) -> Indexer {
    Indexer::new(VBS, Layout::Keys, IndexStorage::Standard, Some(dir.to_path_buf()), "ix").unwrap()
}

fn log_file(idx: &Indexer) -> PathBuf {
    idx.log_path().unwrap().join("shard_0.couch")
}

fn log_bytes(idx: &Indexer) -> u64 {
    std::fs::metadata(log_file(idx)).unwrap().len()
}

/// Document `d` of 100, at `version`: every version's record is the same
/// size, so byte counts compare versions one for one.
fn put(d: u64, version: u64, seqno: u64) -> IndexOp {
    IndexOp::Put {
        doc_id: format!("d{d:03}").into(),
        keys: vec![IndexKey(vec![Some(Value::int(100_000 + version as i64))])],
        vb: VbId((d % u64::from(VBS)) as u16),
        seqno: SeqNo(seqno),
    }
}

/// 10 000 updates to 100 documents leave a log the size of the 100 final
/// versions, not of the 10 000 changes: within 1 / (1 − threshold) of it
/// after every commit, and within 2× after the last.
#[test]
fn updates_to_few_documents_leave_a_log_of_their_size() {
    let fresh = standard(&scratch_dir("gsi-footprint-fresh"));
    fresh.apply_batch((0..100).map(|d| put(d, 99, d + 1)).collect()).unwrap();
    let final_versions = log_bytes(&fresh) as f64;
    let bound = 1.0 / (1.0 - BucketStore::FRAGMENTATION_THRESHOLD);

    let idx = standard(&scratch_dir("gsi-footprint"));
    let (mut seqno, mut peak) = (0u64, 0.0f64);
    for round in 0..200u64 {
        let batch: Vec<IndexOp> = (0..50)
            .map(|i| {
                seqno += 1;
                put((round * 50 + i) % 100, (round * 50 + i) / 100, seqno)
            })
            .collect();
        idx.apply_batch(batch).unwrap();
        let ratio = log_bytes(&idx) as f64 / final_versions;
        assert!(ratio < bound, "round {round}: the log is {ratio:.2}x the final versions");
        peak = peak.max(ratio);
    }
    assert_eq!(seqno, 10_000);
    let keys = |idx: &Indexer| -> Vec<_> {
        idx.doc_versions().into_iter().map(|(doc, _, keys)| (doc, keys)).collect()
    };
    assert_eq!(keys(&idx), keys(&fresh), "every document at its final version");
    let ratio = log_bytes(&idx) as f64 / final_versions;
    assert!(ratio <= 2.0, "after the last commit the log is {ratio:.2}x the final versions");
    assert!(peak > 1.5, "the log never grew between compactions: peak {peak:.2}x");
}

/// A build's backfill delivers a document's old version after the live
/// feed delivered its new one; a backfill snapshot's watermark record and
/// a live document share a seqno. The log is compacted twice and reopened:
/// the reopened partition is the live one.
#[test]
fn a_reopened_log_is_the_live_partition_after_reordering_and_compaction() {
    let dir = scratch_dir("gsi-order");
    let idx = standard(&dir);
    let key = |k: i64| vec![IndexKey(vec![Some(Value::int(k))])];
    let put = |d: &str, k: i64, vb: u16, seqno: u64| IndexOp::Put {
        doc_id: d.into(),
        keys: key(k),
        vb: VbId(vb),
        seqno: SeqNo(seqno),
    };
    // The live feed: d at 9.
    idx.apply_batch(vec![put("d", 9, 0, 9)]).unwrap();
    // The build: its snapshot of vBucket 0 holds d at 5; vBucket 1's ends
    // at 7 with e at 3.
    idx.apply_batch(vec![
        put("d", 5, 0, 5),
        IndexOp::Advance { vb: VbId(0), seqno: SeqNo(5) },
        put("e", 3, 1, 3),
        IndexOp::Advance { vb: VbId(1), seqno: SeqNo(7) },
    ])
    .unwrap();
    // Live again: f at 7 in vBucket 1, the seqno of its watermark record.
    idx.apply_batch(vec![put("f", 7, 1, 7)]).unwrap();
    // Churn on g until the log has been rewritten twice.
    let (mut compactions, mut seqno, mut last) = (0, 0, log_bytes(&idx));
    while compactions < 2 {
        seqno += 1;
        assert!(seqno < 1000, "no compaction after {seqno} updates");
        idx.apply_batch(vec![put("g", seqno as i64, 2, seqno)]).unwrap();
        let now = log_bytes(&idx);
        compactions += usize::from(now < last);
        last = now;
    }
    let live = (idx.doc_versions(), idx.watermarks());
    assert_eq!(live.0[0], ("d".into(), SeqNo(9), key(9)), "the stale backfill version lost");
    assert_eq!(live.1[..3], [SeqNo(9), SeqNo(7), SeqNo(seqno)]);
    drop(idx);
    let back = Indexer::recover(VBS, Layout::Keys, &dir, "ix").unwrap();
    assert_eq!((back.doc_versions(), back.watermarks()), live);
}

/// A Standard primary partition's log holds the ids alone: applied,
/// dropped and reopened, it scans, counts and guards as the live one did,
/// and it does not reopen as a secondary index.
#[test]
fn a_primary_partition_reopens_to_its_scans_and_cardinality() {
    let dir = scratch_dir("gsi-primary");
    let open = || Indexer::new(VBS, Layout::Ids, IndexStorage::Standard, Some(dir.clone()), "ix");
    let idx = open().unwrap();
    let put = |d: u64, present: bool, seqno: u64| IndexOp::Put {
        doc_id: format!("user{d:012}").into(),
        keys: if present { vec![IndexKey::ID] } else { Vec::new() },
        vb: VbId((d % u64::from(VBS)) as u16),
        seqno: SeqNo(seqno),
    };
    idx.apply_batch((0..200).map(|d| put(d, true, d + 1)).collect()).unwrap();
    // Deletes, a re-insert and a redelivered older version.
    idx.apply_batch((0..200).step_by(3).map(|d| put(d, false, 1_000 + d)).collect()).unwrap();
    idx.apply_batch(vec![put(3, true, 2_000), put(6, true, 7), put(9, true, 8)]).unwrap();
    let range = ScanRange {
        low: Some(Value::from("user000000000050")),
        low_inclusive: false,
        high: Some(Value::from("user000000000090")),
        high_inclusive: true,
    };
    let observed = |idx: &Indexer| {
        let stats = idx.stats();
        (
            idx.scan(&ScanRange::all(), 0),
            idx.scan(&range, 0),
            idx.cardinality(),
            (stats.entries, stats.docs),
            idx.doc_versions(),
            idx.watermarks(),
        )
    };
    let live = observed(&idx);
    assert_eq!(live.0.len(), 134, "200 ids less 67 deleted, one back");
    assert_eq!(live.2.min_leading, Some(Value::from("user000000000001")));
    drop(idx);
    // Its id-only records do not fit a secondary index; refused, the log
    // stays as it was.
    assert!(Indexer::recover(VBS, Layout::Keys, &dir, "ix").is_err());
    let back = Indexer::recover(VBS, Layout::Ids, &dir, "ix").unwrap();
    assert_eq!(observed(&back), live);
    // The tombstones' seqnos came back too: an older version stays out.
    back.apply_batch(vec![put(6, true, 9)]).unwrap();
    assert_eq!(back.scan(&ScanRange::all(), 0).len(), 134);
}

/// Tree and watermarks: what a reopen must bring back.
type State = (Vec<(cbs_common::DocKey, SeqNo, Vec<IndexKey>)>, Vec<SeqNo>);

fn state(idx: &Indexer) -> State {
    (idx.doc_versions(), idx.watermarks())
}

/// The file behind the log's path: a rewrite renames a new one over it.
fn inode(path: &Path) -> u64 {
    std::fs::metadata(path).unwrap().ino()
}

/// Round `round` of updates to the 100 documents: 50 of them, each at its
/// next version.
fn round_of_updates(round: u64) -> Vec<IndexOp> {
    (0..50).map(|i| round * 50 + i).map(|n| put(n % 100, n / 100, n + 1)).collect()
}

/// A crash while the log was being rewritten leaves a half-written
/// `shard_0.compact` beside the log it was to replace: the partition
/// reopens to that log's state, the leftover is deleted, and the reopened
/// log keeps working.
#[test]
fn a_rewrite_cut_short_leaves_the_log_it_was_replacing() {
    let dir = scratch_dir("gsi-rewrite-crash");
    let idx = standard(&dir);
    let log = log_file(&idx);
    idx.apply_batch(round_of_updates(0)).unwrap();
    idx.apply_batch(round_of_updates(1)).unwrap();
    let (before, old_log, file) = (state(&idx), std::fs::read(&log).unwrap(), inode(&log));
    let mut round = 2;
    while inode(&log) == file {
        assert!(round < 20, "no rewrite after {round} rounds");
        idx.apply_batch(round_of_updates(round)).unwrap();
        round += 1;
    }
    let rewritten = std::fs::read(&log).unwrap();
    drop(idx);

    // The crash: the rename never happened.
    std::fs::write(&log, &old_log).unwrap();
    let leftover = log.with_extension("compact");
    std::fs::write(&leftover, &rewritten[..rewritten.len() / 2]).unwrap();
    let back = Indexer::recover(VBS, Layout::Keys, &dir, "ix").unwrap();
    assert_eq!(state(&back), before);
    assert!(!leftover.exists(), "the unfinished rewrite is deleted");
    assert_eq!(std::fs::read(&log).unwrap(), old_log, "the log is untouched");

    back.apply_batch(round_of_updates(2)).unwrap();
    let after = state(&back);
    drop(back);
    assert_eq!(state(&Indexer::recover(VBS, Layout::Keys, &dir, "ix").unwrap()), after);
}

/// The log is rewritten, then two more batches are committed and the
/// second is torn by a crash: the partition reopens to the state after the
/// first of them and a whole-record prefix of the second.
#[test]
fn a_torn_tail_after_a_rewrite_reopens_to_a_prefix_of_the_batches() {
    let dir = scratch_dir("gsi-rewrite-torn");
    let idx = standard(&dir);
    let log = log_file(&idx);
    let (file, mut ops, mut round) = (inode(&log), Vec::new(), 0);
    while inode(&log) == file {
        assert!(round < 20, "no rewrite after {round} rounds");
        let batch = round_of_updates(round);
        ops.extend(batch.iter().cloned());
        idx.apply_batch(batch).unwrap();
        round += 1;
    }
    let (file, mut ends) = (inode(&log), vec![(ops.len(), std::fs::metadata(&log).unwrap().len())]);
    for round in round..round + 2 {
        let batch = round_of_updates(round);
        ops.extend(batch.iter().cloned());
        idx.apply_batch(batch).unwrap();
        ends.push((ops.len(), std::fs::metadata(&log).unwrap().len()));
    }
    assert_eq!(inode(&log), file, "no second rewrite");
    assert_eq!(state(&idx), model(&ops));
    drop(idx);

    // The crash: half of the last batch's bytes never reached the disk.
    let [.., (committed, kept_whole), (_, len)] = ends[..] else { unreachable!() };
    let kept = kept_whole + (len - kept_whole) / 2;
    std::fs::OpenOptions::new().write(true).open(&log).unwrap().set_len(kept).unwrap();
    let recovered = state(&Indexer::recover(VBS, Layout::Keys, &dir, "ix").unwrap());
    let prefix = (committed..ops.len()).find(|&n| model(&ops[..n]) == recovered);
    assert!(prefix.is_some_and(|n| n > committed), "no op prefix of the torn batch matches");
}

/// The state item-by-item apply of `ops` reaches, on a log-less twin.
fn model(ops: &[IndexOp]) -> State {
    let twin =
        Indexer::new(VBS, Layout::Keys, IndexStorage::MemoryOptimized, None, "twin").unwrap();
    twin.apply_batch(ops.to_vec()).unwrap();
    state(&twin)
}

/// A rewrite of a log several slices long streams it a slice at a time:
/// the new file holds each document once, under its own vBucket, and one
/// watermark record, for the vBucket whose mark is past its documents;
/// the reopened partition is the live one.
#[test]
fn a_rewrite_of_many_slices_reopens_to_the_live_partition() {
    const DOCS: u64 = 3_000;
    let dir = scratch_dir("gsi-rewrite-slices");
    let idx = standard(&dir);
    let log = log_file(&idx);
    let put = |d: u64, version: u64, seqno: u64| IndexOp::Put {
        doc_id: format!("document-{d:08}").into(),
        keys: vec![IndexKey(vec![Some(Value::from(format!("key-{version:04}-{d:08}")))])],
        vb: VbId((d % u64::from(VBS)) as u16),
        seqno: SeqNo(seqno),
    };
    let mut seqno = 0;
    let mut version_of_all = |idx: &Indexer, version: u64| {
        let batch = (0..DOCS).map(|d| put(d, version, seqno + d + 1)).collect();
        seqno += DOCS;
        idx.apply_batch(batch).unwrap();
    };
    version_of_all(&idx, 0);
    idx.apply_batch(vec![IndexOp::Advance { vb: VbId(3), seqno: SeqNo(1_000_000) }]).unwrap();
    let (file, mut version) = (inode(&log), 0);
    while inode(&log) == file {
        version += 1;
        assert!(version < 5, "no rewrite after {version} versions of every document");
        version_of_all(&idx, version);
    }
    let len = std::fs::metadata(&log).unwrap().len();
    assert!(len > 3 * cbs_storage::CYCLE_SLICE as u64, "a {len}-byte log is not several slices");

    let mut records = Vec::new();
    cbs_storage::replay_file(&log, &mut records).unwrap();
    let (marks, docs): (Vec<_>, Vec<_>) = records.iter().partition(|(_, doc)| doc.key.is_empty());
    assert_eq!(docs.len() as u64, DOCS, "one record per document");
    for (vb, doc) in docs {
        let d: u64 = doc.key["document-".len()..].parse().unwrap();
        assert_eq!(vb.0, (d % u64::from(VBS)) as u16, "{} under a foreign vBucket", doc.key);
    }
    assert_eq!(marks.len(), 1);
    assert_eq!((marks[0].0, marks[0].1.meta.seqno), (VbId(3), SeqNo(1_000_000)));

    let live = state(&idx);
    assert_eq!(live.1[3], SeqNo(1_000_000));
    drop(idx);
    assert_eq!(state(&Indexer::recover(VBS, Layout::Keys, &dir, "ix").unwrap()), live);
}
