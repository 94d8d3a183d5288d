//! The FTS service: DCP-fed search indexes with consistency watermarks.
//!
//! Mirrors the GSI service's shape (§4.3.4 / Figure 9): the service
//! "receive[s] data mutations via in-memory DCP" (§6.1.3) and keeps a
//! per-vBucket seqno [`Watermarks`] vector per index — the same type, hence
//! the same wait, as a GSI partition — so a search can require the
//! at-least-this-seqno consistency a `request_plus` N1QL query gets.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cbs_common::sync::{rank, OrderedMutex, OrderedRwLock, Watermarks};
use cbs_common::{Deadline, Error, Result, SeqNo};
use cbs_dcp::DcpItem;
use cbs_json::JsonPath;
use cbs_obs::{span, Counter, Histogram, Registry};

use crate::index::{InvertedIndex, SearchHit, SearchQuery};

/// Definition of one search index.
#[derive(Debug, Clone)]
pub struct FtsIndexDef {
    /// Index name.
    pub name: String,
    /// Source bucket.
    pub keyspace: String,
    /// Restrict indexing to these field paths (`None` = every string
    /// field in the document).
    pub fields: Option<Vec<JsonPath>>,
}

struct FtsInstance {
    def: FtsIndexDef,
    index: OrderedMutex<InvertedIndex>,
    /// Per vBucket, the seqno up to which the index has seen the source;
    /// what a consistent search waits on.
    marks: Watermarks,
}

impl FtsInstance {
    fn apply(&self, item: &DcpItem) {
        {
            let mut ix = self.index.lock();
            if item.is_deletion() {
                ix.remove_doc(&item.key);
            } else if let Some(doc) = &item.value {
                match &self.def.fields {
                    None => ix.index_doc(&item.key, doc),
                    Some(fields) => {
                        // Project just the chosen fields into a pseudo-doc.
                        let mut projected = cbs_json::Value::empty_object();
                        for f in fields {
                            if let Some(v) = f.eval_cloned(doc) {
                                f.set(&mut projected, v);
                            }
                        }
                        ix.index_doc(&item.key, &projected);
                    }
                }
            }
        }
        self.marks.advance(item.vb, item.meta.seqno);
    }
}

/// The search service for one node.
pub struct FtsService {
    num_vbuckets: u16,
    indexes: OrderedRwLock<HashMap<(String, String), Arc<FtsInstance>>>,
    registry: Arc<Registry>,
    searches: Arc<Counter>,
    items_applied: Arc<Counter>,
    search_latency: Arc<Histogram>,
}

impl FtsService {
    /// Create a service over a bucket with `num_vbuckets` partitions.
    pub fn new(num_vbuckets: u16) -> FtsService {
        let registry = Arc::new(Registry::new("fts"));
        FtsService {
            num_vbuckets,
            indexes: OrderedRwLock::new(rank::FTS_REGISTRY, HashMap::new()),
            searches: registry.counter("fts.service.searches"),
            items_applied: registry.counter("fts.service.items_applied"),
            search_latency: registry.histogram("fts.service.search_latency"),
            registry,
        }
    }

    /// The search service's metrics registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Create a search index (empty; populated by the feed / catch-up).
    pub fn create_index(&self, def: FtsIndexDef) -> Result<()> {
        let key = (def.keyspace.clone(), def.name.clone());
        let mut map = self.indexes.write();
        if map.contains_key(&key) {
            return Err(Error::Index(format!("fts index {} already exists", def.name)));
        }
        map.insert(
            key,
            Arc::new(FtsInstance {
                def,
                index: OrderedMutex::new(rank::FTS_INDEX, InvertedIndex::new()),
                marks: Watermarks::new("FTS index", self.num_vbuckets),
            }),
        );
        Ok(())
    }

    /// Drop a search index.
    pub fn drop_index(&self, keyspace: &str, name: &str) -> Result<()> {
        self.indexes
            .write()
            .remove(&(keyspace.to_string(), name.to_string()))
            .map(|_| ())
            .ok_or_else(|| Error::Index(format!("no such fts index: {name}")))
    }

    /// Index names for a keyspace.
    pub fn list(&self, keyspace: &str) -> Vec<String> {
        let mut v: Vec<String> = self
            .indexes
            .read()
            .keys()
            .filter(|(ks, _)| ks == keyspace)
            .map(|(_, n)| n.clone())
            .collect();
        v.sort();
        v
    }

    fn instance(&self, keyspace: &str, name: &str) -> Result<Arc<FtsInstance>> {
        self.indexes
            .read()
            .get(&(keyspace.to_string(), name.to_string()))
            .cloned()
            .ok_or_else(|| Error::Index(format!("no such fts index: {name}")))
    }

    /// Apply one DCP item to every index of its keyspace.
    pub fn apply_dcp(&self, keyspace: &str, item: &DcpItem) {
        self.items_applied.inc();
        let instances: Vec<Arc<FtsInstance>> = self
            .indexes
            .read()
            .iter()
            .filter(|((ks, _), _)| ks == keyspace)
            .map(|(_, inst)| Arc::clone(inst))
            .collect();
        for inst in instances {
            inst.apply(item);
        }
    }

    /// Search. `min_seqnos` (if given) demands the index has processed at
    /// least that per-vBucket seqno vector first (consistency parity with
    /// GSI's `request_plus`).
    pub fn search(
        &self,
        keyspace: &str,
        name: &str,
        query: &SearchQuery,
        limit: usize,
        min_seqnos: Option<&[SeqNo]>,
        timeout: Duration,
    ) -> Result<Vec<SearchHit>> {
        let _s = span("fts.service.search");
        self.searches.inc();
        let start = Instant::now();
        let inst = self.instance(keyspace, name)?;
        if let Some(target) = min_seqnos {
            inst.marks.wait_all(target, Deadline::after(timeout))?;
        }
        let hits = inst.index.lock().search(query, limit);
        self.search_latency.record(start.elapsed());
        Ok(hits)
    }

    /// (docs, terms) sizes of one index.
    pub fn index_stats(&self, keyspace: &str, name: &str) -> Result<(usize, usize)> {
        let inst = self.instance(keyspace, name)?;
        let ix = inst.index.lock();
        Ok((ix.doc_count(), ix.term_count()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_common::{Cas, DocMeta, VbId};
    use cbs_json::Value;
    use cbs_kv::{DataEngine, EngineConfig, MutateMode};

    fn item(vb: u16, key: &str, seq: u64, json: &str) -> DcpItem {
        DcpItem::mutation(
            VbId(vb),
            key,
            DocMeta { seqno: SeqNo(seq), ..Default::default() },
            cbs_json::parse(json).unwrap(),
        )
    }

    #[test]
    fn ddl_and_apply() {
        let svc = FtsService::new(4);
        svc.create_index(FtsIndexDef {
            name: "search".to_string(),
            keyspace: "b".to_string(),
            fields: None,
        })
        .unwrap();
        assert!(svc
            .create_index(FtsIndexDef {
                name: "search".to_string(),
                keyspace: "b".to_string(),
                fields: None
            })
            .is_err());
        svc.apply_dcp("b", &item(0, "d1", 1, r#"{"title":"hello search world"}"#));
        let hits = svc
            .search(
                "b",
                "search",
                &SearchQuery::Term("hello".to_string()),
                0,
                None,
                Duration::from_secs(1),
            )
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(svc.list("b"), ["search"]);
        svc.drop_index("b", "search").unwrap();
        assert!(svc.drop_index("b", "search").is_err());
    }

    #[test]
    fn field_restricted_index() {
        let svc = FtsService::new(4);
        svc.create_index(FtsIndexDef {
            name: "titles".to_string(),
            keyspace: "b".to_string(),
            fields: Some(vec!["title".parse().unwrap()]),
        })
        .unwrap();
        svc.apply_dcp("b", &item(0, "d1", 1, r#"{"title":"indexed words","body":"hidden text"}"#));
        let q = |s: &str| SearchQuery::Term(s.to_string());
        assert_eq!(
            svc.search("b", "titles", &q("indexed"), 0, None, Duration::from_secs(1))
                .unwrap()
                .len(),
            1
        );
        assert!(svc
            .search("b", "titles", &q("hidden"), 0, None, Duration::from_secs(1))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn deletions_remove_from_index() {
        let svc = FtsService::new(4);
        svc.create_index(FtsIndexDef {
            name: "s".to_string(),
            keyspace: "b".to_string(),
            fields: None,
        })
        .unwrap();
        svc.apply_dcp("b", &item(1, "gone", 1, r#"{"t":"ephemeral"}"#));
        let del =
            DcpItem::deletion(VbId(1), "gone", DocMeta { seqno: SeqNo(2), ..Default::default() });
        svc.apply_dcp("b", &del);
        assert!(svc
            .search(
                "b",
                "s",
                &SearchQuery::Term("ephemeral".to_string()),
                0,
                None,
                Duration::from_secs(1)
            )
            .unwrap()
            .is_empty());
    }

    #[test]
    fn consistency_wait_and_timeout() {
        let svc = FtsService::new(4);
        svc.create_index(FtsIndexDef {
            name: "s".to_string(),
            keyspace: "b".to_string(),
            fields: None,
        })
        .unwrap();
        svc.apply_dcp("b", &item(2, "d", 5, r#"{"t":"x"}"#));
        // Satisfied vector: instant.
        let mut target = vec![SeqNo::ZERO; 4];
        target[2] = SeqNo(5);
        svc.search(
            "b",
            "s",
            &SearchQuery::Term("x".to_string()),
            0,
            Some(&target),
            Duration::from_millis(50),
        )
        .unwrap();
        // Unsatisfied: timeout.
        target[0] = SeqNo(99);
        let err = svc
            .search(
                "b",
                "s",
                &SearchQuery::Term("x".to_string()),
                0,
                Some(&target),
                Duration::from_millis(30),
            )
            .unwrap_err();
        assert!(matches!(err, Error::Timeout(_)));
    }

    #[test]
    fn live_feed_from_data_engine() {
        let engine = DataEngine::new(EngineConfig::for_test(8)).unwrap();
        engine.activate_all();
        engine
            .set(
                "pre",
                cbs_json::parse(r#"{"msg":"before the feed"}"#).unwrap(),
                MutateMode::Upsert,
                Cas::WILDCARD,
                0,
            )
            .unwrap();
        let svc = Arc::new(FtsService::new(8));
        svc.create_index(FtsIndexDef {
            name: "s".to_string(),
            keyspace: "b".to_string(),
            fields: None,
        })
        .unwrap();
        // The pump's FTS leg in miniature: one feed over every vBucket from
        // seqno 0, parked on and drained into the service until woken.
        let feed = cbs_dcp::DcpFeed::default();
        for vb in 0..8 {
            engine.subscribe_dcp(&feed, VbId(vb), SeqNo::ZERO).unwrap();
        }
        let stop = feed.waker();
        let feed_svc = Arc::clone(&svc);
        let feed = std::thread::spawn(move || {
            let mut items = Vec::new();
            while !feed.drain(None, &mut items) {
                for item in items.drain(..) {
                    feed_svc.apply_dcp("b", &item);
                }
            }
        });
        // Live write after feed start.
        engine
            .set(
                "post",
                cbs_json::parse(r#"{"msg":"after the feed"}"#).unwrap(),
                MutateMode::Upsert,
                Cas::WILDCARD,
                0,
            )
            .unwrap();
        // Consistency-gated search sees both (backfill + tail).
        let target = engine.seqno_vector();
        let hits = svc
            .search(
                "b",
                "s",
                &SearchQuery::Term("feed".to_string()),
                0,
                Some(&target),
                Duration::from_secs(5),
            )
            .unwrap();
        assert_eq!(hits.len(), 2);
        stop.wake();
        feed.join().unwrap();
        let _ = Value::Null;
    }
}
