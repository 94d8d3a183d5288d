//! Projector and Router — the data-node half of the index service (§4.3.4).
//!
//! "The projector extracts the secondary keys relevant to the indexes that
//! have been defined and sends them to the router. The router then decides
//! which indexer to send the message to. In case the index is partitioned,
//! the partition key tells the router which indexer and which node to send
//! the message to."

use std::sync::Arc;

use cbs_common::Result;
use cbs_dcp::DcpItem;
use cbs_json::Value;

use crate::defs::{IndexDef, IndexKey, KeyExpr, Layout};
use crate::indexer::{IndexOp, Indexer};

/// Stateless key-version extraction.
pub struct Projector;

impl Projector {
    /// Compute the key versions a mutation produces for one index
    /// definition.
    pub fn project(def: &IndexDef, item: &DcpItem) -> IndexOp {
        let (doc_id, vb, seqno) = (item.key.clone(), item.vb, item.meta.seqno);
        // A deletion — or a mutation with no body, which has nothing to index.
        let Some(doc) = item.value.as_ref().filter(|_| !item.is_deletion()) else {
            return IndexOp::Put { doc_id, keys: Vec::new(), vb, seqno };
        };
        // A definition over the document ID alone (a primary index) never
        // looks at the body, so the body is not decoded for it.
        let doc = if def.reads_body() { doc.as_value() } else { &Value::Null };
        IndexOp::Put { keys: Self::keys_for(def, &doc_id, doc), doc_id, vb, seqno }
    }

    /// The index keys a document produces under `def` (empty if filtered
    /// out or leading key MISSING). An index over the id alone yields
    /// [`IndexKey::ID`], no component: the entry's id is its key.
    pub fn keys_for(def: &IndexDef, doc_id: &str, doc: &Value) -> Vec<IndexKey> {
        // Partial-index filter (§3.3.4): all conjuncts must hold.
        if !def.filter.iter().all(|c| c.matches(doc)) {
            return Vec::new();
        }
        if def.layout() == Layout::Ids {
            return vec![IndexKey::ID];
        }
        // Array index (§6.1.2): if the leading expression is ArrayElements,
        // fan out one key per element.
        match &def.keys[0] {
            KeyExpr::ArrayElements(path) => {
                let Some(Value::Array(items)) = path.eval(doc) else { return Vec::new() };
                let mut out = Vec::new();
                let mut seen = Vec::new();
                for elem in items {
                    // DISTINCT ARRAY semantics: dedupe elements.
                    if seen.iter().any(|s: &Value| s == elem) {
                        continue;
                    }
                    seen.push(elem.clone());
                    let mut comps = vec![Some(elem.clone())];
                    comps.extend(def.keys[1..].iter().map(|k| k.eval(doc_id, doc)));
                    out.push(IndexKey(comps));
                }
                out
            }
            leading => {
                // GSI does not index documents whose leading key is MISSING.
                let Some(lead) = leading.eval(doc_id, doc) else { return Vec::new() };
                let mut comps = vec![Some(lead)];
                comps.extend(def.keys[1..].iter().map(|k| k.eval(doc_id, doc)));
                vec![IndexKey(comps)]
            }
        }
    }
}

/// Routes batches of projected operations to the right partitions'
/// indexers. Every partition sees every mutation — as a removal where the
/// document has no keys there — so consistency advances even for
/// filtered-out docs.
pub struct Router {
    partitions: Vec<Arc<Indexer>>,
    def: IndexDef,
}

impl Router {
    /// Build a router over one index's partitions (one indexer per range
    /// partition; a single partition for unpartitioned indexes).
    pub fn new(def: IndexDef, partitions: Vec<Arc<Indexer>>) -> Router {
        assert_eq!(partitions.len(), def.num_partitions());
        Router { partitions, def }
    }

    /// Index definition.
    pub fn def(&self) -> &IndexDef {
        &self.def
    }

    /// Partition handles.
    pub fn partitions(&self) -> &[Arc<Indexer>] {
        &self.partitions
    }

    /// Route one batch: each partition gets its share, in order, and
    /// commits it as one batch; a watermark-only op (a backfill snapshot's
    /// high seqno) goes to every partition. Handles the paper's
    /// partition-key-change case ("an insert message may be sent to one
    /// indexer with a delete message being sent to another") by clearing
    /// the doc from every partition that is not its new home.
    ///
    /// Every partition is attempted; the first error is returned. A
    /// partition whose commit failed has not advanced its watermarks.
    pub fn route(&self, ops: Vec<IndexOp>) -> Result<()> {
        let n = self.partitions.len();
        let mut per_partition: Vec<Vec<IndexOp>> =
            (0..n).map(|_| Vec::with_capacity(ops.len())).collect();
        for op in ops {
            let IndexOp::Put { doc_id, keys, vb, seqno } = op else {
                per_partition.iter_mut().for_each(|batch| batch.push(op.clone()));
                continue;
            };
            let homes = self.keys_by_partition(&doc_id, keys);
            for (batch, keys) in per_partition.iter_mut().zip(homes) {
                batch.push(IndexOp::Put { doc_id: doc_id.clone(), keys, vb, seqno });
            }
        }
        let mut result = Ok(());
        for (partition, batch) in self.partitions.iter().zip(per_partition) {
            result = result.and(partition.apply_batch(batch));
        }
        result
    }

    /// Group a document's keys by destination partition: by the leading
    /// component, so equal keys always share a partition. The key of an
    /// index over the id alone has no component: the id leads.
    fn keys_by_partition(&self, doc_id: &str, keys: Vec<IndexKey>) -> Vec<Vec<IndexKey>> {
        if self.partitions.len() == 1 {
            return vec![keys];
        }
        let mut homes: Vec<Vec<IndexKey>> = vec![Vec::new(); self.partitions.len()];
        for key in keys {
            let home = if key == IndexKey::ID {
                self.def.partition_for(Some(&Value::from(doc_id)))
            } else {
                self.def.partition_for(key.leading())
            };
            homes[home].push(key);
        }
        homes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defs::{FilterCond, FilterOp, IndexStorage, ScanRange};
    use cbs_common::{DocMeta, SeqNo, VbId};
    use cbs_json::parse_path;

    fn item(key: &str, json: &str, seq: u64) -> DcpItem {
        DcpItem::mutation(
            VbId(0),
            key,
            DocMeta { seqno: SeqNo(seq), ..Default::default() },
            cbs_json::parse(json).unwrap(),
        )
    }

    #[test]
    fn simple_projection() {
        let def = IndexDef::simple("email", "profiles", "email");
        let op = Projector::project(&def, &item("u1", r#"{"email":"a@x.com"}"#, 1));
        match op {
            IndexOp::Put { doc_id, keys, .. } => {
                assert_eq!(doc_id, "u1");
                assert_eq!(keys, vec![IndexKey(vec![Some(Value::from("a@x.com"))])]);
            }
            other => panic!("{other:?}"),
        }
        // MISSING leading key → empty keys.
        let op = Projector::project(&def, &item("u2", r#"{"name":"no email"}"#, 2));
        assert!(matches!(op, IndexOp::Put { keys, .. } if keys.is_empty()));
    }

    #[test]
    fn composite_keys_with_missing_trailing() {
        let mut def = IndexDef::simple("ix", "b", "a");
        def.keys.push(KeyExpr::Path(parse_path("b").unwrap()));
        let keys = Projector::keys_for(&def, "d", &cbs_json::parse(r#"{"a":1}"#).unwrap());
        assert_eq!(keys, vec![IndexKey(vec![Some(Value::int(1)), None])]);
    }

    #[test]
    fn partial_index_filtering() {
        // CREATE INDEX over21 ON Profile(age) WHERE age > 21 (§3.3.4).
        let mut def = IndexDef::simple("over21", "Profile", "age");
        def.filter = vec![FilterCond {
            path: parse_path("age").unwrap(),
            op: FilterOp::Gt,
            value: Value::int(21),
        }];
        let keys = Projector::keys_for(&def, "d", &cbs_json::parse(r#"{"age":30}"#).unwrap());
        assert_eq!(keys.len(), 1);
        let keys = Projector::keys_for(&def, "d", &cbs_json::parse(r#"{"age":18}"#).unwrap());
        assert!(keys.is_empty());
    }

    #[test]
    fn array_index_fans_out_distinct() {
        let def = IndexDef {
            keys: vec![KeyExpr::ArrayElements(parse_path("categories").unwrap())],
            ..IndexDef::simple("cats", "product", "categories")
        };
        let keys = Projector::keys_for(
            &def,
            "p1",
            &cbs_json::parse(r#"{"categories":["a","b","a"]}"#).unwrap(),
        );
        assert_eq!(keys.len(), 2, "DISTINCT dedupes");
        // Non-array value → nothing indexed.
        let keys =
            Projector::keys_for(&def, "p2", &cbs_json::parse(r#"{"categories":"x"}"#).unwrap());
        assert!(keys.is_empty());
    }

    #[test]
    fn primary_index_keys_a_document_by_its_id_alone() {
        let def = IndexDef::primary("#primary", "b");
        let keys = Projector::keys_for(&def, "the-doc", &Value::empty_object());
        assert_eq!(keys, vec![IndexKey::ID], "no component: the id is the key");
    }

    #[test]
    fn a_primary_index_projects_without_decoding_the_body() {
        let stored = DcpItem::mutation(
            VbId(0),
            "the-doc",
            DocMeta { seqno: SeqNo(1), ..Default::default() },
            cbs_json::SharedValue::from_json(bytes::Bytes::from_static(br#"{"a":1}"#)),
        );
        let op = Projector::project(&IndexDef::primary("#primary", "b"), &stored);
        assert!(matches!(op, IndexOp::Put { keys, .. } if keys == [IndexKey::ID]));
        assert!(!stored.value.as_ref().unwrap().is_decoded());
        // A secondary index does read it.
        let op = Projector::project(&IndexDef::simple("a", "b", "a"), &stored);
        assert!(matches!(op, IndexOp::Put { keys, .. } if keys.len() == 1));
        assert!(stored.value.as_ref().unwrap().is_decoded());
    }

    #[test]
    fn deletion_projects_to_no_keys() {
        let def = IndexDef::simple("i", "b", "x");
        let del =
            DcpItem::deletion(VbId(2), "gone", DocMeta { seqno: SeqNo(9), ..Default::default() });
        assert!(matches!(
            Projector::project(&def, &del),
            IndexOp::Put { doc_id, keys, vb, seqno }
                if doc_id == "gone" && keys.is_empty() && vb == VbId(2) && seqno == SeqNo(9)
        ));
    }

    #[test]
    fn router_moves_doc_between_partitions() {
        // Range-partitioned on age at split 50.
        let mut def = IndexDef::simple("age", "b", "age");
        def.partition_splits = vec![Value::int(50)];
        let partition = |name| {
            Indexer::new(4, Layout::Keys, IndexStorage::MemoryOptimized, None, name).unwrap()
        };
        let (p0, p1) = (Arc::new(partition("p0")), Arc::new(partition("p1")));
        let router = Router::new(def.clone(), vec![Arc::clone(&p0), Arc::clone(&p1)]);

        let update = |age: i64, seq: u64| IndexOp::Put {
            doc_id: "d".into(),
            keys: vec![IndexKey(vec![Some(Value::int(age))])],
            vb: VbId(0),
            seqno: SeqNo(seq),
        };
        router.route(vec![update(10, 1)]).unwrap();
        assert_eq!(p0.scan(&ScanRange::all(), 0).len(), 1);
        assert_eq!(p1.scan(&ScanRange::all(), 0).len(), 0);

        // Partition key changes: insert to p1, delete from p0 (§4.3.4).
        router.route(vec![update(99, 2)]).unwrap();
        assert_eq!(p0.scan(&ScanRange::all(), 0).len(), 0, "stale entry deleted");
        assert_eq!(p1.scan(&ScanRange::all(), 0).len(), 1);

        // Remove clears everywhere.
        let remove =
            IndexOp::Put { doc_id: "d".into(), keys: Vec::new(), vb: VbId(0), seqno: SeqNo(3) };
        router.route(vec![remove, IndexOp::Advance { vb: VbId(1), seqno: SeqNo(7) }]).unwrap();
        assert_eq!(p1.scan(&ScanRange::all(), 0).len(), 0);
        // Watermarks advanced on both partitions throughout.
        for p in [&p0, &p1] {
            assert_eq!(p.watermarks()[..2], [SeqNo(3), SeqNo(7)]);
        }

        // The same moves inside one batch end in the same place.
        router.route(vec![update(10, 4), update(99, 5), update(20, 6)]).unwrap();
        assert_eq!(p0.scan(&ScanRange::all(), 0).len(), 1);
        assert_eq!(p1.scan(&ScanRange::all(), 0).len(), 0);
    }

    #[test]
    fn router_homes_a_primary_key_by_its_id() {
        let def = IndexDef {
            partition_splits: vec![Value::from("m")],
            storage: IndexStorage::MemoryOptimized,
            ..IndexDef::primary("#p", "b")
        };
        let partition =
            |name| Arc::new(Indexer::new(4, def.layout(), def.storage, None, name).unwrap());
        let router = Router::new(def.clone(), vec![partition("p0"), partition("p1")]);
        let put = |id: &str, seq| {
            let keys = Projector::keys_for(&def, id, &Value::Null);
            IndexOp::Put { doc_id: id.into(), keys, vb: VbId(0), seqno: SeqNo(seq) }
        };
        router.route(vec![put("apple", 1), put("zebra", 2), put("m", 3)]).unwrap();
        let ids = |p: &Indexer| -> Vec<String> {
            p.scan(&ScanRange::all(), 0).iter().map(|e| e.doc_id.to_string()).collect()
        };
        assert_eq!(ids(&router.partitions()[0]), ["apple"]);
        assert_eq!(ids(&router.partitions()[1]), ["m", "zebra"], "a split point goes right");
    }
}
