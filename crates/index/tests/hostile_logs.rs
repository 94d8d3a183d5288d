//! Hostile bytes never panic GSI recovery. `Indexer::recover` is fed
//! arbitrary bytes, and valid change logs (`<name>.gsi/shard_0.couch`) with
//! flipped bits or a cut tail. On a damaged valid log it rebuilds exactly
//! the tree and watermarks of the records the store's recovery accepts:
//! every record before the first damaged byte, nothing that fails its CRC,
//! and of those the last of each (vBucket, key).
//!
//! The one field no CRC covers is a frame's 2-byte vBucket prefix. A flip
//! there that still names a vBucket of the bucket moves one record to
//! another vBucket; one that names a vBucket the bucket lacks makes
//! recovery refuse the log with an error.

// Tests unwrap freely; the crate's unwrap_used deny targets lib code (the
// allow-unwrap-in-tests config covers #[test] fns but not file helpers).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use cbs_common::{DocKey, SeqNo, VbId};
use cbs_index::{
    IndexCardinality, IndexEntry, IndexKey, IndexOp, IndexStorage, Indexer, IndexerStats, Layout,
    ScanRange,
};
use cbs_json::Value;
use cbs_storage::{replay_file, scratch_dir, StoredDoc};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const VBS: u16 = 4;

fn arb_ops() -> impl Strategy<Value = Vec<IndexOp>> {
    let key = |k: i64| IndexKey(vec![Some(Value::int(k)), Some(Value::from("t"))]);
    prop::collection::vec(
        prop_oneof![
            4 => (0u8..12, prop::collection::vec(-4i64..4, 0..3), 1u64..100).prop_map(
                move |(d, ks, seq)| IndexOp::Put {
                    doc_id: format!("d{d}").into(),
                    keys: ks.into_iter().map(key).collect(),
                    vb: VbId(u16::from(d) % VBS),
                    seqno: SeqNo(seq),
                }
            ),
            1 => (0..VBS, 1u64..100)
                .prop_map(|(vb, seq)| IndexOp::Advance { vb: VbId(vb), seqno: SeqNo(seq) }),
        ],
        1..40,
    )
}

/// A valid change log: its bytes and, in order, each frame's end offset
/// and record.
struct Log {
    bytes: Vec<u8>,
    frames: Vec<(usize, VbId, StoredDoc)>,
}

/// `ops` through a Standard-mode indexer, a batch ending at each `cut`.
fn write_log(ops: &[IndexOp], cuts: &[bool]) -> Log {
    let dir = scratch_dir("gsi-hostile-src");
    let idx =
        Indexer::new(VBS, Layout::Keys, IndexStorage::Standard, Some(dir.clone()), "ix").unwrap();
    let mut batch = Vec::new();
    for (op, cut) in ops.iter().zip(cuts.iter().chain(std::iter::repeat(&false))) {
        batch.push(op.clone());
        if *cut {
            idx.apply_batch(std::mem::take(&mut batch)).unwrap();
        }
    }
    idx.apply_batch(batch).unwrap();
    assert_eq!(state(&idx), model(ops.to_vec()));
    drop(idx);
    let bytes = std::fs::read(log_path(&dir)).unwrap();
    let records = replay(&log_path(&dir));
    let mut end = 0;
    let frames = records
        .into_iter()
        .map(|(vb, doc)| {
            end += 2 + doc.disk_size() as usize;
            (end, vb, doc)
        })
        .collect();
    assert_eq!(end, bytes.len());
    std::fs::remove_dir_all(dir).unwrap();
    Log { bytes, frames }
}

fn log_path(dir: &Path) -> PathBuf {
    dir.join("ix.gsi/shard_0.couch")
}

/// A scratch directory holding `bytes` as the change log of index `ix`.
fn dir_with_log(bytes: &[u8]) -> PathBuf {
    let dir = scratch_dir("gsi-hostile");
    std::fs::create_dir(dir.join("ix.gsi")).unwrap();
    std::fs::write(log_path(&dir), bytes).unwrap();
    dir
}

fn replay(path: &Path) -> Vec<(VbId, StoredDoc)> {
    let mut records = Vec::new();
    replay_file(path, &mut records).unwrap();
    records
}

/// How a log is damaged.
#[derive(Debug, Clone)]
enum Damage {
    /// Cut at this fraction of its length.
    Truncate(f64),
    /// Flip `(position fraction, bit)` pairs.
    Flip(Vec<(f64, u8)>),
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        (0.0f64..1.0).prop_map(Damage::Truncate),
        prop::collection::vec((0.0f64..1.0, 0u8..8), 1..4).prop_map(Damage::Flip),
    ]
}

/// The damaged bytes and the offset of the first byte that differs from
/// the valid log.
fn damage(log: &[u8], how: &Damage) -> (Vec<u8>, usize) {
    let at = |f: f64| ((log.len() as f64 * f) as usize).min(log.len() - 1);
    match how {
        Damage::Truncate(f) => (log[..at(*f)].to_vec(), at(*f)),
        Damage::Flip(flips) => {
            let mut bytes = log.to_vec();
            for &(f, bit) in flips {
                bytes[at(f)] ^= 1 << bit;
            }
            let first = (0..log.len()).find(|&i| bytes[i] != log[i]).unwrap_or(log.len());
            (bytes, first)
        }
    }
}

/// Everything observable about an indexer's state.
type State = (
    Vec<(DocKey, SeqNo, Vec<IndexKey>)>,
    Vec<SeqNo>,
    Vec<IndexEntry>,
    IndexCardinality,
    IndexerStats,
);

fn state(idx: &Indexer) -> State {
    let scanned = idx.scan(&ScanRange::all(), 0);
    let stats = IndexerStats { scans: 0, disk_syncs: 0, ..idx.stats() };
    (idx.doc_versions(), idx.watermarks(), scanned, idx.cardinality(), stats)
}

/// The state item-by-item apply of `ops` reaches, on a log-less twin.
fn model(ops: Vec<IndexOp>) -> State {
    let twin =
        Indexer::new(VBS, Layout::Keys, IndexStorage::MemoryOptimized, None, "twin").unwrap();
    twin.apply_batch(ops).unwrap();
    state(&twin)
}

/// The op a log record of vBucket `vb` stands for: a watermark record
/// (flag 1), a tombstone (no keys), or a document's keys as
/// `[[[c0],[],[c2]], ...]`.
fn op_of(vb: VbId, doc: &StoredDoc) -> IndexOp {
    let seqno = doc.meta.seqno;
    if doc.meta.flags == 1 {
        return IndexOp::Advance { vb, seqno };
    }
    let mut keys = Vec::new();
    if !doc.deleted {
        let Value::Array(list) = cbs_json::parse(std::str::from_utf8(&doc.value).unwrap()).unwrap()
        else {
            panic!("a key list is an array")
        };
        for key in list {
            let Value::Array(components) = key else { panic!("a key is an array") };
            keys.push(IndexKey(
                components.into_iter().map(|c| c.as_array().unwrap().first().cloned()).collect(),
            ));
        }
    }
    IndexOp::Put { doc_id: doc.key.as_str().into(), keys, vb, seqno }
}

/// Recover from a damaged copy of `log` whose first damaged byte is at
/// `first_damage`: the replay covers every frame that ends before it and
/// holds only records that were written, and recovery rebuilds the model
/// of the last of those records per (vBucket, key) — or, if one names a
/// vBucket the bucket lacks, refuses the log.
fn recover_damaged(log: &Log, bytes: &[u8], first_damage: usize) -> Result<(), TestCaseError> {
    let dir = dir_with_log(bytes);
    let replayed = replay(&log_path(&dir));
    let whole = log.frames.iter().take_while(|(end, ..)| *end <= first_damage).count();
    prop_assert!(replayed.len() >= whole, "{} records of {whole} undamaged", replayed.len());
    for (i, (vb, doc)) in replayed.iter().enumerate() {
        let (end, want_vb, want) = &log.frames[i];
        prop_assert_eq!(doc, want, "record {} is not the one written", i);
        prop_assert!(vb == want_vb || *end > first_damage);
    }
    let intact = replayed.last().map_or(0, |_| log.frames[replayed.len() - 1].0);

    let recovered = Indexer::recover(VBS, Layout::Keys, &dir, "ix");
    if replayed.iter().any(|(vb, _)| vb.0 >= VBS) {
        prop_assert!(recovered.is_err(), "a record for a vBucket the bucket lacks was applied");
    } else {
        let idx = recovered.unwrap();
        let latest: BTreeMap<_, _> =
            replayed.iter().map(|(vb, doc)| ((*vb, doc.key.clone()), op_of(*vb, doc))).collect();
        prop_assert_eq!(state(&idx), model(latest.into_values().collect()));
        drop(idx);
        let len = std::fs::metadata(log_path(&dir)).unwrap().len();
        prop_assert_eq!(len, intact as u64, "the damaged tail is cut off");
    }
    std::fs::remove_dir_all(dir).unwrap();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// A truncated or bit-flipped log recovers the tree and watermarks of
    /// its intact prefix.
    #[test]
    fn a_damaged_log_recovers_its_intact_prefix(
        ops in arb_ops(),
        cuts in prop::collection::vec(any::<bool>(), 40),
        how in arb_damage(),
    ) {
        let log = write_log(&ops, &cuts);
        let (bytes, first) = damage(&log.bytes, &how);
        recover_damaged(&log, &bytes, first)?;
    }

    /// Bytes that were never a log return `Ok` or `Err`, never panic; with
    /// no record in them (short of a CRC collision) they recover to an
    /// empty index and an empty file.
    #[test]
    fn arbitrary_bytes_never_panic_recovery(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        let dir = dir_with_log(&bytes);
        let replayed = replay(&log_path(&dir));
        let recovered = Indexer::recover(VBS, Layout::Keys, &dir, "ix");
        if replayed.is_empty() {
            let idx = recovered.unwrap();
            prop_assert_eq!(state(&idx), model(Vec::new()));
            drop(idx);
            prop_assert_eq!(std::fs::metadata(log_path(&dir)).unwrap().len(), 0);
        }
        std::fs::remove_dir_all(dir).unwrap();
    }
}
