//! Property-based crash-recovery tests: any prefix of a bucket's append-only
//! log that survives a crash must recover to a consistent, correct state of
//! every vBucket in it.

// Tests unwrap freely; the crate's unwrap_used deny targets lib code (the
// allow-unwrap-in-tests config covers #[test] fns but not file helpers).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::path::Path;

use bytes::Bytes;
use cbs_common::{Cas, DocMeta, RevNo, SeqNo, VbId};
use cbs_storage::{scratch_dir, BucketStore, Cycle, StoredDoc};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const VBS: u16 = 4;

#[derive(Debug, Clone)]
enum Op {
    Set { vb: u16, key: u8, val: String },
    Del { vb: u16, key: u8 },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0..VBS, any::<u8>(), "[a-z0-9]{0,40}").prop_map(|(vb, key, val)| Op::Set {
                vb,
                key: key % 12,
                val
            }),
            (0..VBS, any::<u8>()).prop_map(|(vb, key)| Op::Del { vb, key: key % 12 }),
        ],
        1..60,
    )
}

/// Batch sizes to cut an op sequence into (cycled through).
fn arb_split() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..9, 1..8)
}

/// The ops as the records the flusher would write: seqnos count per vBucket.
fn to_docs(ops: &[Op]) -> Vec<(VbId, StoredDoc)> {
    let mut next = [0u64; VBS as usize];
    ops.iter()
        .enumerate()
        .map(|(i, op)| {
            let (vb, key, val) = match op {
                Op::Set { vb, key, val } => (*vb, key, Some(val)),
                Op::Del { vb, key } => (*vb, key, None),
            };
            next[vb as usize] += 1;
            let doc = StoredDoc {
                key: format!("k{key}"),
                meta: DocMeta {
                    seqno: SeqNo(next[vb as usize]),
                    cas: Cas(i as u64 + 1),
                    rev: RevNo(1),
                    flags: 0,
                    expiry: 0,
                },
                deleted: val.is_none(),
                value: val.map(|v| Bytes::from(v.clone())).unwrap_or_default(),
            };
            (VbId(vb), doc)
        })
        .collect()
}

/// Expected state after `docs`: per vBucket, key → latest version.
fn model(docs: &[(VbId, StoredDoc)]) -> BTreeMap<(VbId, String), StoredDoc> {
    docs.iter().map(|(vb, d)| ((*vb, d.key.clone()), d.clone())).collect()
}

/// Commit `docs` as group commits of the given sizes; returns the log's
/// length after each commit.
fn commit_in_batches(store: &BucketStore, docs: &[(VbId, StoredDoc)], split: &[usize]) -> Vec<u64> {
    let (mut rest, mut lens) = (docs, Vec::new());
    for size in split.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (batch, tail) = rest.split_at((*size).min(rest.len()));
        let mut cycle = Cycle::new();
        for (vb, doc) in batch {
            cycle.push_doc(*vb, doc).unwrap();
        }
        store.commit(&mut cycle).unwrap();
        lens.push(store.log_bytes());
        rest = tail;
    }
    lens
}

/// The store holds exactly `expected`: by id, by seqno and in its counters.
fn assert_state(
    store: &BucketStore,
    expected: &BTreeMap<(VbId, String), StoredDoc>,
) -> Result<(), TestCaseError> {
    for vb in (0..VBS).map(VbId) {
        let s = store.vb(vb).unwrap();
        let mut want: Vec<&StoredDoc> =
            expected.iter().filter(|((v, _), _)| *v == vb).map(|(_, d)| d).collect();
        for doc in &want {
            let got = s.get(&doc.key).unwrap();
            prop_assert_eq!(got.as_ref(), Some(*doc));
        }
        want.sort_by_key(|d| d.meta.seqno);
        // changes_since(0) yields the latest versions in seqno order.
        let changes = s.changes_since(SeqNo::ZERO).unwrap();
        prop_assert_eq!(changes.iter().collect::<Vec<_>>(), want.clone());
        let high = want.last().map(|d| d.meta.seqno).unwrap_or(SeqNo::ZERO);
        prop_assert_eq!(s.high_seqno(), high);
        let stats = s.stats();
        prop_assert_eq!(stats.live_docs + stats.tombstones, want.len() as u64);
    }
    Ok(())
}

fn log_path(dir: &Path) -> std::path::PathBuf {
    dir.join("shard_0.couch")
}

/// After which pushed records a cycle appends a slice (cycled through).
fn arb_slices() -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(any::<bool>(), 1..16)
}

/// Two stores read the same: every vBucket's statistics, its changes in
/// seqno order and every key a test op can write.
fn assert_same(a: &BucketStore, b: &BucketStore) -> Result<(), TestCaseError> {
    for vb in (0..VBS).map(VbId) {
        let (a, b) = (a.vb(vb).unwrap(), b.vb(vb).unwrap());
        prop_assert_eq!(a.stats(), b.stats());
        prop_assert_eq!(
            a.changes_since(SeqNo::ZERO).unwrap(),
            b.changes_since(SeqNo::ZERO).unwrap()
        );
        for key in (0..12).map(|k| format!("k{k}")) {
            prop_assert_eq!(a.get(&key).unwrap(), b.get(&key).unwrap());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Clean reopen recovers exactly the final state of every vBucket.
    #[test]
    fn reopen_recovers_exact_state(ops in arb_ops(), split in arb_split()) {
        let dir = scratch_dir("crash-prop");
        let docs = to_docs(&ops);
        commit_in_batches(&BucketStore::open(dir.clone()).unwrap(), &docs, &split);
        let store = BucketStore::open(dir).unwrap();
        assert_state(&store, &model(&docs))?;
        let accounted: u64 =
            store.open_vbs().into_iter().map(|vb| store.vb(vb).unwrap().stats().file_bytes).sum();
        prop_assert_eq!(accounted, store.log_bytes());
    }

    /// A crash keeps every synced batch and any part of what was appended
    /// after the last sync; cutting the file at ANY byte offset (a torn or
    /// lost tail) still recovers a valid prefix: the store opens, its state
    /// is that of a prefix of the op sequence which covers every batch
    /// synced before the cut, and what is appended after recovery is
    /// reachable by the next recovery.
    #[test]
    fn arbitrary_truncation_recovers_a_prefix(
        ops in arb_ops(),
        split in arb_split(),
        unsynced in 0usize..6,
        cut_fraction in 0.0f64..1.0,
    ) {
        let dir = scratch_dir("crash-prop");
        let docs = to_docs(&ops);
        let synced_docs = docs.len() - unsynced.min(docs.len() - 1);
        let synced_lens = {
            let store = BucketStore::open(dir.clone()).unwrap();
            let lens = commit_in_batches(&store, &docs[..synced_docs], &split);
            for (vb, doc) in &docs[synced_docs..] {
                store.vb(*vb).unwrap().persist(doc).unwrap(); // written, not synced
            }
            lens
        };
        let len = std::fs::metadata(log_path(&dir)).unwrap().len();
        let cut = (len as f64 * cut_fraction) as u64;
        std::fs::OpenOptions::new().write(true).open(log_path(&dir)).unwrap().set_len(cut).unwrap();

        // Which records lie wholly inside the cut.
        let mut end = 0u64;
        let survivors = docs.iter().take_while(|(_, d)| { end += 2 + d.disk_size(); end <= cut }).count();
        let batches_before_cut: usize = synced_lens.iter().filter(|l| **l <= cut).count();
        let covered: usize =
            split.iter().cycle().take(batches_before_cut).sum::<usize>().min(synced_docs);
        prop_assert!(survivors >= covered, "a synced batch was lost");

        let store = BucketStore::open(dir.clone()).unwrap();
        assert_state(&store, &model(&docs[..survivors]))?;

        // The store accepts new writes after recovery, behind the intact
        // prefix — the torn bytes are gone, not written over or after.
        let post = StoredDoc {
            key: "post-recovery".to_string(),
            meta: DocMeta { seqno: SeqNo(1_000), ..Default::default() },
            deleted: false,
            value: Bytes::from_static(b"ok"),
        };
        let mut cycle = Cycle::new();
        cycle.push_doc(VbId(1), &post).unwrap();
        store.commit(&mut cycle).unwrap();
        drop(store);
        let store = BucketStore::open(dir).unwrap();
        let mut expected = model(&docs[..survivors]);
        expected.insert((VbId(1), post.key.clone()), post);
        assert_state(&store, &expected)?;
    }

    /// Compaction never changes logical state, at any point in history —
    /// nor does reopening the compacted log.
    #[test]
    fn compaction_preserves_state(ops in arb_ops(), split in arb_split()) {
        let dir = scratch_dir("crash-prop");
        let store = BucketStore::open(dir.clone()).unwrap();
        let docs = to_docs(&ops);
        commit_in_batches(&store, &docs, &split);
        let before: Vec<_> =
            (0..VBS).map(|vb| store.vb(VbId(vb)).unwrap().changes_since(SeqNo::ZERO).unwrap()).collect();
        prop_assert!(store.compact(0.0).unwrap());
        let after: Vec<_> =
            (0..VBS).map(|vb| store.vb(VbId(vb)).unwrap().changes_since(SeqNo::ZERO).unwrap()).collect();
        prop_assert_eq!(before, after, "compaction is logically invisible");
        assert_state(&store, &model(&docs))?;
        let stale: u64 =
            store.open_vbs().into_iter().map(|vb| store.vb(vb).unwrap().stats().stale_bytes).sum();
        prop_assert_eq!(stale, 0);
        prop_assert_eq!(store.log_bytes(), std::fs::metadata(log_path(&dir)).unwrap().len());
        drop(store);
        assert_state(&BucketStore::open(dir).unwrap(), &model(&docs))?;
    }

    /// Slicing is invisible on disk: the same cycles committed whole and
    /// committed after slices at arbitrary points leave byte-identical
    /// logs and stores that read the same. Between slices nothing of the
    /// cycle is indexed — the sliced store reads as the other one, which
    /// has not seen the cycle yet.
    #[test]
    fn slicing_a_cycle_is_invisible(ops in arb_ops(), split in arb_split(), slices in arb_slices()) {
        let (whole_dir, sliced_dir) = (scratch_dir("slice-prop"), scratch_dir("slice-prop"));
        let whole = BucketStore::open(whole_dir.clone()).unwrap();
        let sliced = BucketStore::open(sliced_dir.clone()).unwrap();
        let docs = to_docs(&ops);
        let (mut slice_after, mut rest) = (slices.iter().cycle(), &docs[..]);
        for size in split.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (batch, tail) = rest.split_at((*size).min(rest.len()));
            let mut cycle = Cycle::new();
            for (vb, doc) in batch {
                cycle.push_doc(*vb, doc).unwrap();
                if *slice_after.next().unwrap() {
                    sliced.append_slice(&mut cycle).unwrap();
                    prop_assert_eq!(cycle.buffered_bytes(), 0);
                    assert_same(&whole, &sliced)?;
                    if rest.len() == docs.len() {
                        // The first cycle: nothing at all is indexed yet.
                        prop_assert_eq!(sliced.vb(*vb).unwrap().get(&doc.key).unwrap(), None);
                        prop_assert_eq!(sliced.vb(*vb).unwrap().stats().file_bytes, 0);
                    }
                }
            }
            sliced.commit(&mut cycle).unwrap();
            let mut cycle = Cycle::new();
            for (vb, doc) in batch {
                cycle.push_doc(*vb, doc).unwrap();
            }
            whole.commit(&mut cycle).unwrap();
            rest = tail;
        }
        assert_same(&whole, &sliced)?;
        assert_state(&sliced, &model(&docs))?;
        let on_disk = |dir: &Path| std::fs::read(log_path(dir)).unwrap();
        prop_assert_eq!(on_disk(&whole_dir), on_disk(&sliced_dir), "byte-identical logs");
    }

    /// A store dropped between two slices of a cycle — a crash before the
    /// cycle's sync — reopens to exactly the complete frames appended so
    /// far, as if one write of the whole cycle had been torn there.
    #[test]
    fn a_crash_between_slices_keeps_the_appended_frames(
        ops in arb_ops(),
        slices in arb_slices(),
        committed in 0usize..60,
    ) {
        let dir = scratch_dir("slice-prop");
        let docs = to_docs(&ops);
        let committed = committed.min(docs.len() - 1);
        let appended = {
            let store = BucketStore::open(dir.clone()).unwrap();
            let mut cycle = Cycle::new();
            for (vb, doc) in &docs[..committed] {
                cycle.push_doc(*vb, doc).unwrap();
            }
            store.commit(&mut cycle).unwrap();
            let (mut cycle, mut appended) = (Cycle::new(), 0);
            for ((vb, doc), slice) in docs[committed..].iter().zip(slices.iter().cycle()) {
                cycle.push_doc(*vb, doc).unwrap();
                if *slice {
                    store.append_slice(&mut cycle).unwrap();
                    appended = cycle.len();
                }
            }
            appended // the store and the cycle are dropped unsynced
        };
        let kept = &docs[..committed + appended];
        let store = BucketStore::open(dir.clone()).unwrap();
        assert_state(&store, &model(kept))?;
        let frames: u64 = kept.iter().map(|(_, d)| 2 + d.disk_size()).sum();
        prop_assert_eq!(store.log_bytes(), frames);
        prop_assert_eq!(std::fs::metadata(log_path(&dir)).unwrap().len(), frames);
    }
}
