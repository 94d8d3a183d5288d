//! Property tests: the indexer agrees with a naive model — range scans,
//! exact-key scans and the counters kept beside the tree (`cardinality()`,
//! `stats()`) — under any interleaving of updates, removals and scans,
//! including out-of-order (stale) deliveries, which the per-document seqno
//! guard must suppress, keys shared by many documents, and a key one
//! document emits twice. A primary index, whose key is the id, agrees with
//! the same model under range bounds of every JSON type, and holds each
//! document's newest version, a removed one's as a tombstone. Any split of a
//! change stream into batches ends in the state that item-by-item apply
//! reaches.

// Tests unwrap freely; the crate's unwrap_used deny targets lib code (the
// allow-unwrap-in-tests config covers #[test] fns but not file helpers).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use cbs_common::{SeqNo, VbId};
use cbs_index::{
    IndexCardinality, IndexDef, IndexKey, IndexOp, IndexStorage, Indexer, Layout, Projector,
    Router, ScanRange,
};
use cbs_json::Value;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Index doc `d` under keys `ks` at sequence `seq`: none (filtered
    /// out), one, or several (an array index) — possibly one key twice.
    Update { d: u8, ks: Vec<i64>, seq: u64 },
    /// Remove doc `d` at sequence `seq`.
    Remove { d: u8, seq: u64 },
}

/// Twelve documents over thirteen key values, so many documents share a key.
fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            4 => (0u8..12, prop::collection::vec(-6i64..7, 1..2), 1u64..100)
                .prop_map(|(d, ks, seq)| Op::Update { d, ks, seq }),
            1 => (0u8..12, prop::collection::vec(-6i64..7, 0..4), 1u64..100)
                .prop_map(|(d, ks, seq)| Op::Update { d, ks, seq }),
            1 => (0u8..12, -6i64..7, 1u64..100)
                .prop_map(|(d, k, seq)| Op::Update { d, ks: vec![k, k], seq }),
            2 => (0u8..12, 1u64..100).prop_map(|(d, seq)| Op::Remove { d, seq }),
        ],
        1..80,
    )
}

fn key(k: i64) -> IndexKey {
    IndexKey(vec![Some(Value::int(k))])
}

fn keys(ks: &[i64]) -> Vec<IndexKey> {
    ks.iter().map(|&k| key(k)).collect()
}

/// The naive model: doc → (last applied seq, its keys).
#[derive(Default)]
struct Model(HashMap<String, (u64, Vec<i64>)>);

impl Model {
    fn apply(&mut self, op: &Op) {
        let (d, ks, seq) = match op {
            Op::Update { d, ks, seq } => (d, ks.clone(), seq),
            Op::Remove { d, seq } => (d, Vec::new(), seq),
        };
        let e = self.0.entry(format!("d{d}")).or_insert((0, Vec::new()));
        if *seq > e.0 {
            *e = (*seq, ks);
        }
    }

    /// Live (key, doc) entries in scan order; a key a document emits twice
    /// is one entry.
    fn entries(&self) -> BTreeSet<(i64, String)> {
        self.0.iter().flat_map(|(d, (_, ks))| ks.iter().map(move |&k| (k, d.clone()))).collect()
    }

    fn cardinality(&self) -> IndexCardinality {
        let entries = self.entries();
        let distinct: BTreeSet<i64> = entries.iter().map(|(k, _)| *k).collect();
        IndexCardinality {
            entries: entries.len() as u64,
            distinct_keys: distinct.len() as u64,
            min_leading: distinct.first().map(|&k| Value::int(k)),
            max_leading: distinct.last().map(|&k| Value::int(k)),
        }
    }

    fn docs(&self) -> u64 {
        self.0.values().filter(|(_, ks)| !ks.is_empty()).count() as u64
    }
}

fn rows(idx: &Indexer, range: &ScanRange) -> Vec<(i64, String)> {
    idx.scan(range, 0)
        .into_iter()
        .map(|e| (e.key.0[0].as_ref().unwrap().as_i64().unwrap(), e.doc_id.to_string()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn indexer_matches_model(ops in arb_ops()) {
        let idx = Indexer::new(4, Layout::Keys, IndexStorage::MemoryOptimized, None, "prop").unwrap();
        let mut model = Model::default();
        for op in &ops {
            let (d, ks, seq) = match op {
                Op::Update { d, ks, seq } => (d, keys(ks), seq),
                Op::Remove { d, seq } => (d, Vec::new(), seq),
            };
            let put = IndexOp::Put { doc_id: format!("d{d}").into(), keys: ks, vb: VbId(0), seqno: SeqNo(*seq) };
            idx.apply_batch(vec![put]).unwrap();
            model.apply(op);
        }
        // Full scan must equal the model's live set, sorted by (key, doc).
        let expected: Vec<(i64, String)> = model.entries().into_iter().collect();
        prop_assert_eq!(rows(&idx, &ScanRange::all()), expected.clone());

        // Range scans agree too.
        let range = ScanRange {
            low: Some(Value::int(-5)),
            low_inclusive: true,
            high: Some(Value::int(5)),
            high_inclusive: false,
        };
        let in_range: Vec<(i64, String)> =
            expected.iter().filter(|(k, _)| (-5..5).contains(k)).cloned().collect();
        prop_assert_eq!(rows(&idx, &range), in_range);

        // So do the counters, and every equality probe (an exact range).
        prop_assert_eq!(idx.cardinality(), model.cardinality());
        let stats = idx.stats();
        prop_assert_eq!(stats.entries, expected.len() as u64);
        prop_assert_eq!(stats.docs, model.docs());
        for k in -6..7 {
            let want: Vec<(i64, String)> =
                expected.iter().filter(|(kk, _)| *kk == k).cloned().collect();
            prop_assert_eq!(rows(&idx, &ScanRange::exact(Value::int(k))), want, "exact {}", k);
        }

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

/// A scan bound of any JSON type: numbers, `null` and booleans sort below
/// every id, arrays and objects above; strings land before, between, on
/// and after the ids `d0`..`d11`.
fn arb_bound() -> impl Strategy<Value = Option<Value>> {
    let strings = ["", "d", "d0", "d1", "d10", "d11", "d15", "d5", "d9", "e"];
    prop_oneof![
        1 => Just(None),
        1 => (-3i64..3).prop_map(|n| Some(Value::int(n))),
        1 => Just(Some(Value::Null)),
        1 => Just(Some(Value::Bool(false))),
        4 => (0..strings.len()).prop_map(move |i| Some(Value::from(strings[i]))),
        1 => Just(Some(Value::Array(vec![Value::from("d1")]))),
        1 => Just(Some(Value::empty_object())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// A primary index over the same op streams: a document with any keys
    /// is there under its id, one with none is not. Scans, exact-id scans
    /// and counters agree with the model, the id as a `Value::String` compared
    /// under collation.
    #[test]
    fn primary_indexer_matches_model(
        ops in arb_ops(),
        low in arb_bound(),
        low_inclusive in any::<bool>(),
        high in arb_bound(),
        high_inclusive in any::<bool>(),
    ) {
        let def = IndexDef { storage: IndexStorage::MemoryOptimized, ..IndexDef::primary("#p", "b") };
        let idx = Indexer::new(4, def.layout(), def.storage, None, "prop").unwrap();
        let mut model = Model::default();
        for op in &ops {
            let (d, seq, indexed) = match op {
                Op::Update { d, ks, seq } => (d, seq, !ks.is_empty()),
                Op::Remove { d, seq } => (d, seq, false),
            };
            let doc_id = format!("d{d}");
            let keys = if indexed { Projector::keys_for(&def, &doc_id, &Value::Null) } else { Vec::new() };
            let put = IndexOp::Put { doc_id: doc_id.into(), keys, vb: VbId(0), seqno: SeqNo(*seq) };
            idx.apply_batch(vec![put]).unwrap();
            model.apply(op);
        }
        let live: BTreeSet<String> =
            model.0.iter().filter(|(_, (_, ks))| !ks.is_empty()).map(|(d, _)| d.clone()).collect();
        let ids = |range: &ScanRange, limit| -> Vec<String> {
            let rows = idx.scan(range, limit);
            assert!(rows.iter().all(|e| e.key == IndexKey::ID), "an entry carries a key");
            rows.into_iter().map(|e| e.doc_id.to_string()).collect()
        };
        prop_assert_eq!(ids(&ScanRange::all(), 0), live.iter().cloned().collect::<Vec<_>>());

        let range = ScanRange { low, low_inclusive, high, high_inclusive };
        let in_range: Vec<String> =
            live.iter().filter(|d| range.contains(&Value::from(d.as_str()))).cloned().collect();
        prop_assert_eq!(ids(&range, 0), in_range.clone());
        for limit in [1, 3] {
            prop_assert_eq!(&ids(&range, limit)[..], &in_range[..in_range.len().min(limit)]);
        }

        let n = live.len() as u64;
        let leading = |d: Option<&String>| d.map(|d| Value::from(d.as_str()));
        let cardinality = IndexCardinality {
            entries: n,
            distinct_keys: n,
            min_leading: leading(live.first()),
            max_leading: leading(live.last()),
        };
        prop_assert_eq!(idx.cardinality(), cardinality);
        let stats = idx.stats();
        prop_assert_eq!((stats.entries, stats.docs), (n, n));
        for d in 0..13 {
            let id = format!("d{d}");
            let want: Vec<String> = live.get(&id).cloned().into_iter().collect();
            prop_assert_eq!(ids(&ScanRange::exact(Value::from(id.as_str())), 0), want, "exact {}", id);
        }

        // Every document seen is held at its highest seqno, a removed one
        // as a tombstone with no key.
        let mut versions: Vec<(String, SeqNo, Vec<IndexKey>)> = (model.0.iter())
            .map(|(d, (seq, ks))| {
                let keys = if ks.is_empty() { Vec::new() } else { vec![IndexKey::ID] };
                (d.clone(), SeqNo(*seq), keys)
            })
            .collect();
        versions.sort_by(|a, b| a.0.cmp(&b.0));
        let held: Vec<(String, SeqNo, Vec<IndexKey>)> = (idx.doc_versions().into_iter())
            .map(|(id, seqno, keys)| (id.to_string(), seqno, keys))
            .collect();
        prop_assert_eq!(held, versions);
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
                Indexer::new(
                    4,
                    Layout::Keys,
                    IndexStorage::MemoryOptimized,
                    None,
                    &format!("p{p}"),
                )
                .unwrap(),
            )
        })
        .collect();
    Router::new(def, partitions)
}

fn projected(op: &Op) -> IndexOp {
    let (d, ks, seq) = match op {
        Op::Update { d, ks, seq } => (d, keys(ks), seq),
        Op::Remove { d, seq } => (d, Vec::new(), seq),
    };
    IndexOp::Put {
        doc_id: format!("d{d}").into(),
        keys: ks,
        vb: VbId(u16::from(d % 4)),
        seqno: SeqNo(*seq),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Any split of an op sequence (updates, deletes, duplicates, stale
    /// seqnos, partition-key moves) into batches yields the entries,
    /// per-document versions, watermarks, counters and `applied` count of
    /// item-by-item apply, on every partition.
    #[test]
    fn any_batch_split_matches_item_by_item(
        ops in arb_ops(),
        cuts in prop::collection::vec(any::<bool>(), 80),
    ) {
        let one_by_one = partitioned_router();
        for op in &ops {
            one_by_one.route(vec![projected(op)]).unwrap();
        }
        let batched = partitioned_router();
        let mut batch = Vec::new();
        for (op, cut) in ops.iter().zip(&cuts) {
            batch.push(projected(op));
            if *cut {
                batched.route(std::mem::take(&mut batch)).unwrap();
            }
        }
        batched.route(batch).unwrap();

        for (a, b) in one_by_one.partitions().iter().zip(batched.partitions()) {
            prop_assert_eq!(a.scan(&ScanRange::all(), 0), b.scan(&ScanRange::all(), 0));
            prop_assert_eq!(a.doc_versions(), b.doc_versions());
            prop_assert_eq!(a.watermarks(), b.watermarks());
            prop_assert_eq!(a.stats(), b.stats());
            prop_assert_eq!(a.cardinality(), b.cardinality());
        }
    }
}
