//! Property-based crash-recovery test for the GSI change log: whatever
//! tail of the log a crash loses, reopening the indexer yields the tree and
//! watermarks of a prefix of the change stream that includes every synced
//! batch the surviving bytes cover — never more, never a torn mix. The tail
//! is what was appended since the log was last written whole: by its first
//! batch, or by a compaction, whose new file is synced before it replaces
//! the log. A second run numbers the ops as a live feed does, so that the
//! log compacts between batches; a third runs a primary index's partition,
//! whose records are the ids alone.

// Tests unwrap freely; the crate's unwrap_used deny targets lib code (the
// allow-unwrap-in-tests config covers #[test] fns but not file helpers).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::os::unix::fs::MetadataExt;
use std::path::Path;

use cbs_common::{DocKey, SeqNo, VbId};
use cbs_index::{IndexKey, IndexOp, IndexStorage, Indexer, Layout, ScanRange};
use cbs_json::Value;
use cbs_storage::scratch_dir;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const VBS: u16 = 4;

fn arb_ops() -> impl Strategy<Value = Vec<IndexOp>> {
    let key =
        |k: i64, tag: bool| IndexKey(vec![Some(Value::int(k)), tag.then(|| Value::from("t"))]);
    prop::collection::vec(
        prop_oneof![
            4 => (0u8..12, -20i64..20, any::<bool>(), 1u64..100).prop_map(move |(d, k, tag, seq)| {
                IndexOp::Put {
                    doc_id: format!("d{d}").into(),
                    keys: vec![key(k, tag)],
                    vb: VbId(u16::from(d) % VBS),
                    seqno: SeqNo(seq),
                }
            }),
            2 => (0u8..12, 1u64..100).prop_map(|(d, seq)| IndexOp::Put {
                doc_id: format!("d{d}").into(),
                keys: Vec::new(),
                vb: VbId(u16::from(d) % VBS),
                seqno: SeqNo(seq),
            }),
            1 => (0..VBS, 1u64..100)
                .prop_map(|(vb, seq)| IndexOp::Advance { vb: VbId(vb), seqno: SeqNo(seq) }),
        ],
        1..60,
    )
}

/// Everything observable about an indexer's state: per-document versions,
/// watermarks, live entries.
type State = (Vec<(DocKey, SeqNo, Vec<IndexKey>)>, Vec<SeqNo>, usize);

fn state(idx: &Indexer) -> State {
    (idx.doc_versions(), idx.watermarks(), idx.scan(&ScanRange::all(), 0).len())
}

/// The file behind `path`: a compaction renames a new one over the log.
fn inode(path: &Path) -> u64 {
    std::fs::metadata(path).unwrap().ino()
}

/// The state item-by-item apply of `ops` reaches, on a log-less twin.
fn model(layout: Layout, ops: &[IndexOp]) -> State {
    let twin = Indexer::new(VBS, layout, IndexStorage::MemoryOptimized, None, "twin").unwrap();
    twin.apply_batch(ops.to_vec()).unwrap();
    state(&twin)
}

/// Commit `ops` in batches ending at each `cut`, lose the last `lost`
/// bytes appended since the log was last written whole, and reopen.
fn lose_a_tail_and_reopen(
    layout: Layout,
    ops: &[IndexOp],
    cuts: &[bool],
    lost: u64,
) -> Result<(), TestCaseError> {
    let model = |ops: &[IndexOp]| model(layout, ops);
    let dir = scratch_dir("gsi-crash");
    let idx = Indexer::new(VBS, layout, IndexStorage::Standard, Some(dir.clone()), "ix").unwrap();
    let log = idx.log_path().unwrap().join("shard_0.couch");
    // (ops committed, log length) after each batch, from the empty log
    // on — or from the last compaction, which wrote the state after its
    // batch to a new file.
    let mut synced = vec![(0usize, 0u64)];
    let mut file = inode(&log);
    let mut batch = Vec::new();
    for (i, (op, cut)) in ops.iter().zip(cuts).enumerate() {
        batch.push(op.clone());
        if *cut || i + 1 == ops.len() {
            idx.apply_batch(std::mem::take(&mut batch)).unwrap();
            if inode(&log) != file {
                file = inode(&log);
                synced.clear();
            }
            synced.push((i + 1, std::fs::metadata(&log).unwrap().len()));
        }
    }
    prop_assert_eq!(state(&idx), model(ops));
    drop(idx);

    // The crash: the last `lost` bytes never reached the disk.
    let len = std::fs::metadata(&log).unwrap().len();
    let kept = len.saturating_sub(lost).max(synced[0].1);
    std::fs::OpenOptions::new().write(true).open(&log).unwrap().set_len(kept).unwrap();

    let back = Indexer::recover(VBS, layout, &dir, "ix").unwrap();
    // Every batch the surviving bytes cover is there; of the batch the
    // cut fell in, only whole records — so the state is that of some
    // op prefix between the two batch boundaries.
    let covered = synced.iter().rposition(|&(_, at)| at <= kept).unwrap();
    let (lo, _) = synced[covered];
    let hi = synced.get(covered + 1).map_or(lo, |&(n, _)| n);
    let recovered = state(&back);
    let n = (lo..=hi).find(|&n| model(&ops[..n]) == recovered);
    prop_assert!(n.is_some(), "recovered state matches no prefix in {lo}..={hi}");
    let n = n.unwrap();
    if kept == len {
        prop_assert_eq!(&recovered, &model(ops), "nothing lost, nothing missing");
    }

    // The torn tail is gone from the file, so what is appended next is
    // reachable by the next recovery.
    let key = match layout {
        Layout::Keys => IndexKey(vec![Some(Value::int(7))]),
        Layout::Ids => IndexKey::ID,
    };
    let more =
        IndexOp::Put { doc_id: "after".into(), keys: vec![key], vb: VbId(0), seqno: SeqNo(1000) };
    back.apply_batch(vec![more.clone()]).unwrap();
    drop(back);
    let again = Indexer::recover(VBS, layout, &dir, "ix").unwrap();
    let mut expected = ops[..n].to_vec();
    expected.push(more);
    prop_assert_eq!(state(&again), model(&expected));
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

/// `ops` renumbered in delivery order, as a live feed numbers them: every
/// op supersedes its document's last record, so the log compacts often.
fn in_feed_order(mut ops: Vec<IndexOp>) -> Vec<IndexOp> {
    for (i, op) in ops.iter_mut().enumerate() {
        let (IndexOp::Put { seqno, .. } | IndexOp::Advance { seqno, .. }) = op;
        *seqno = SeqNo(i as u64 + 1);
    }
    ops
}

/// `ops` as a primary index's router hands them over: a document is there
/// under its id alone, or not at all.
fn by_id(mut ops: Vec<IndexOp>) -> Vec<IndexOp> {
    for op in &mut ops {
        if let IndexOp::Put { keys, .. } = op {
            if !keys.is_empty() {
                *keys = vec![IndexKey::ID];
            }
        }
    }
    ops
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn reopen_after_a_lost_tail_recovers_a_synced_prefix(
        ops in arb_ops(),
        cuts in prop::collection::vec(any::<bool>(), 60),
        lost in 0u64..400,
    ) {
        lose_a_tail_and_reopen(Layout::Keys, &ops, &cuts, lost)?;
    }

    #[test]
    fn reopen_after_compactions_and_a_lost_tail_recovers_a_synced_prefix(
        ops in arb_ops().prop_map(in_feed_order),
        cuts in prop::collection::vec(any::<bool>(), 60),
        lost in 0u64..400,
    ) {
        lose_a_tail_and_reopen(Layout::Keys, &ops, &cuts, lost)?;
    }

    #[test]
    fn a_primary_partition_reopens_to_a_synced_prefix(
        ops in arb_ops().prop_map(by_id),
        cuts in prop::collection::vec(any::<bool>(), 60),
        lost in 0u64..400,
    ) {
        lose_a_tail_and_reopen(Layout::Ids, &ops, &cuts, lost)?;
    }
}
