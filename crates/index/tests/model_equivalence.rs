//! Property tests: the indexer agrees with a naive model under any
//! interleaving of updates, removals and scans — including out-of-order
//! (stale) deliveries, which the per-document seqno guard must suppress —
//! and any split of a change stream into batches ends in the state that
//! item-by-item apply reaches.

// Tests unwrap freely; the crate's unwrap_used deny targets lib code (the
// allow-unwrap-in-tests config covers #[test] fns but not file helpers).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::sync::Arc;

use cbs_common::{SeqNo, VbId};
use cbs_index::{
    IndexDef, IndexKey, IndexOp, IndexStorage, Indexer, ProjectedOp, Router, ScanRange,
};
use cbs_json::Value;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Update doc `d` with key value `k` at sequence `seq`.
    Update { d: u8, k: i64, seq: u64 },
    /// Remove doc `d` at sequence `seq`.
    Remove { d: u8, seq: u64 },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (any::<u8>(), -20i64..20, 1u64..100).prop_map(|(d, k, seq)| Op::Update {
                d: d % 12,
                k,
                seq
            }),
            (any::<u8>(), 1u64..100).prop_map(|(d, seq)| Op::Remove { d: d % 12, seq }),
        ],
        1..80,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn indexer_matches_model(ops in arb_ops()) {
        let idx = Indexer::new(4, IndexStorage::MemoryOptimized, None, "prop").unwrap();
        // Model: doc → (last applied seq, Some(key) | None).
        let mut model: HashMap<String, (u64, Option<i64>)> = HashMap::new();
        for op in &ops {
            match op {
                Op::Update { d, k, seq } => {
                    let doc = format!("d{d}");
                    idx.apply_batch(vec![IndexOp::Put {
                        doc_id: doc.clone(),
                        keys: vec![IndexKey(vec![Some(Value::int(*k))])],
                        vb: VbId(0),
                        seqno: SeqNo(*seq),
                    }])
                    .unwrap();
                    let e = model.entry(doc).or_insert((0, None));
                    if *seq > e.0 {
                        *e = (*seq, Some(*k));
                    }
                }
                Op::Remove { d, seq } => {
                    let doc = format!("d{d}");
                    idx.apply_batch(vec![IndexOp::Put {
                        doc_id: doc.clone(),
                        keys: Vec::new(),
                        vb: VbId(0),
                        seqno: SeqNo(*seq),
                    }])
                    .unwrap();
                    let e = model.entry(doc).or_insert((0, None));
                    if *seq > e.0 {
                        *e = (*seq, None);
                    }
                }
            }
        }
        // Full scan must equal the model's live set, sorted by (key, doc).
        let mut expected: Vec<(i64, String)> = model
            .iter()
            .filter_map(|(d, (_, k))| k.map(|k| (k, d.clone())))
            .collect();
        expected.sort();
        let scanned: Vec<(i64, String)> = idx
            .scan(&ScanRange::all(), 0)
            .into_iter()
            .map(|e| (e.key.0[0].as_ref().unwrap().as_i64().unwrap(), e.doc_id))
            .collect();
        prop_assert_eq!(scanned, expected);

        // Range scans agree too.
        let range = ScanRange {
            low: Some(Value::int(-5)),
            low_inclusive: true,
            high: Some(Value::int(5)),
            high_inclusive: false,
        };
        let in_range: Vec<(i64, String)> = model
            .iter()
            .filter_map(|(d, (_, k))| k.map(|k| (k, d.clone())))
            .filter(|(k, _)| (-5..5).contains(k))
            .collect();
        let mut in_range = in_range;
        in_range.sort();
        let scanned: Vec<(i64, String)> = idx
            .scan(&range, 0)
            .into_iter()
            .map(|e| (e.key.0[0].as_ref().unwrap().as_i64().unwrap(), e.doc_id))
            .collect();
        prop_assert_eq!(scanned, in_range);

        // Watermark equals the max seq delivered.
        let max_seq = ops
            .iter()
            .map(|o| match o {
                Op::Update { seq, .. } | Op::Remove { seq, .. } => *seq,
            })
            .max()
            .unwrap_or(0);
        prop_assert_eq!(idx.watermarks()[0], SeqNo(max_seq));
    }
}

/// A two-partition index on `k`, split at 0: negative keys live in
/// partition 0, the rest in partition 1, so an update that changes the
/// sign of `k` moves the document between partitions.
fn partitioned_router() -> Router {
    let mut def = IndexDef::simple("k", "b", "k");
    def.partition_splits = vec![Value::int(0)];
    let partitions = (0..2)
        .map(|p| {
            Arc::new(
                Indexer::new(4, IndexStorage::MemoryOptimized, None, &format!("p{p}")).unwrap(),
            )
        })
        .collect();
    Router::new(def, partitions)
}

fn projected(op: &Op) -> ProjectedOp {
    match op {
        Op::Update { d, k, seq } => ProjectedOp::Update {
            doc_id: format!("d{d}"),
            keys: vec![IndexKey(vec![Some(Value::int(*k))])],
            vb: VbId(u16::from(d % 4)),
            seqno: SeqNo(*seq),
        },
        Op::Remove { d, seq } => ProjectedOp::Remove {
            doc_id: format!("d{d}"),
            vb: VbId(u16::from(d % 4)),
            seqno: SeqNo(*seq),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Any split of an op sequence (updates, deletes, duplicates, stale
    /// seqnos, partition-key moves) into batches yields the entries,
    /// per-document versions, watermarks and `applied` count of
    /// item-by-item apply, on every partition.
    #[test]
    fn any_batch_split_matches_item_by_item(
        ops in arb_ops(),
        cuts in prop::collection::vec(any::<bool>(), 80),
    ) {
        let one_by_one = partitioned_router();
        for op in &ops {
            one_by_one.route(vec![projected(op)], &[]).unwrap();
        }
        let batched = partitioned_router();
        let mut batch = Vec::new();
        for (op, cut) in ops.iter().zip(&cuts) {
            batch.push(projected(op));
            if *cut {
                batched.route(std::mem::take(&mut batch), &[]).unwrap();
            }
        }
        batched.route(batch, &[]).unwrap();

        for (a, b) in one_by_one.partitions().iter().zip(batched.partitions()) {
            prop_assert_eq!(a.scan(&ScanRange::all(), 0), b.scan(&ScanRange::all(), 0));
            prop_assert_eq!(a.doc_versions(), b.doc_versions());
            prop_assert_eq!(a.watermarks(), b.watermarks());
            prop_assert_eq!(a.stats().applied, b.stats().applied);
        }
    }
}
