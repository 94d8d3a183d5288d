//! The FTS service: DCP-fed search indexes with consistency watermarks.
//!
//! Mirrors the GSI service's shape (§4.3.4 / Figure 9): the service
//! "receive[s] data mutations via in-memory DCP" (§6.1.3) and keeps a
//! per-vBucket seqno [`Watermarks`] vector per index — the same type, hence
//! the same wait, as a GSI partition — so a search can require the
//! at-least-this-seqno consistency a `request_plus` N1QL query gets.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cbs_common::sync::{rank, OrderedMutex, OrderedRwLock, Watermarks};
use cbs_common::{Deadline, Error, KeyMap, Result, SeqNo, VbId};
use cbs_dcp::{catch_up, BackfillSource, DcpItem, DcpSink};
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
    /// The text index, and per document the seqno of the version it holds
    /// (deletions included): an older version never replaces a newer.
    index: OrderedMutex<(InvertedIndex, KeyMap<SeqNo>)>,
    /// Per vBucket, the seqno up to which the index has seen the source;
    /// what a consistent search waits on.
    marks: Watermarks,
    /// Set once a build has applied a snapshot of every vBucket.
    built: AtomicBool,
}

impl FtsInstance {
    fn apply(&self, items: &[DcpItem], upto: &[(VbId, SeqNo)]) {
        let mut guard = self.index.lock();
        let (ix, versions) = &mut *guard;
        for item in items {
            if versions.get(&item.key).is_some_and(|held| *held >= item.meta.seqno) {
                continue;
            }
            versions.insert(item.key.clone(), item.meta.seqno);
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
        self.marks.advance_all(upto.iter().copied());
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
                index: OrderedMutex::new(rank::FTS_INDEX, Default::default()),
                marks: Watermarks::new("FTS index", self.num_vbuckets),
                built: AtomicBool::new(false),
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
        let mut v: Vec<String> =
            self.sink(keyspace).instances.iter().map(|i| i.def.name.clone()).collect();
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

    /// The search indexes of `keyspace`, as one sink.
    pub fn sink(&self, keyspace: &str) -> FtsSink<'_> {
        let indexes = self.indexes.read();
        let of_keyspace = indexes.iter().filter(|((ks, _), _)| ks == keyspace);
        FtsSink { svc: self, instances: of_keyspace.map(|(_, inst)| Arc::clone(inst)).collect() }
    }

    /// Build a search index over what `source` already holds, beside the
    /// live feed: [`catch_up`] of the index alone.
    pub fn build(&self, keyspace: &str, name: &str, source: &dyn BackfillSource) -> Result<()> {
        let inst = self.instance(keyspace, name)?;
        let sink = FtsSink { svc: self, instances: vec![Arc::clone(&inst)] };
        catch_up(source, &sink, (0..self.num_vbuckets).map(VbId), 0)?;
        inst.built.store(true, Ordering::SeqCst);
        Ok(())
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
        let hits = inst.index.lock().0.search(query, limit);
        self.search_latency.record(start.elapsed());
        Ok(hits)
    }

    /// (docs, terms) sizes of one index.
    pub fn index_stats(&self, keyspace: &str, name: &str) -> Result<(usize, usize)> {
        let inst = self.instance(keyspace, name)?;
        let ix = &inst.index.lock().0;
        Ok((ix.doc_count(), ix.term_count()))
    }
}

/// Search indexes of one keyspace as a DCP sink: one lock pass per batch.
pub struct FtsSink<'a> {
    svc: &'a FtsService,
    instances: Vec<Arc<FtsInstance>>,
}

impl DcpSink for FtsSink<'_> {
    fn apply(&self, items: &[DcpItem], upto: &[(VbId, SeqNo)]) -> Result<()> {
        if !self.instances.is_empty() {
            self.svc.items_applied.add(items.len() as u64);
        }
        self.instances.iter().for_each(|inst| inst.apply(items, upto));
        Ok(())
    }

    fn resume_point(&self, vb: VbId) -> Option<SeqNo> {
        let at = |i: &Arc<FtsInstance>| i.built.load(Ordering::SeqCst).then(|| i.marks.get(vb));
        self.instances.iter().map(|i| at(i).unwrap_or(SeqNo::ZERO)).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_common::{Cas, DocMeta, VbId};
    use cbs_json::Value;
    use cbs_kv::{DataEngine, EngineConfig, MutateMode};

    /// Each vBucket's newest seqno in `items`: the marks of a stream batch.
    fn stream_marks(items: &[DcpItem]) -> Vec<(VbId, SeqNo)> {
        let mut upto: Vec<(VbId, SeqNo)> = Vec::new();
        for item in items {
            match upto.iter_mut().find(|(vb, _)| *vb == item.vb) {
                Some((_, mark)) => *mark = (*mark).max(item.meta.seqno),
                None => upto.push((item.vb, item.meta.seqno)),
            }
        }
        upto
    }

    /// One item into every index of `b`, up to its own seqno.
    fn apply(svc: &FtsService, item: &DcpItem) {
        svc.sink("b").apply(std::slice::from_ref(item), &[(item.vb, item.meta.seqno)]).unwrap();
    }

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
        apply(&svc, &item(0, "d1", 1, r#"{"title":"hello search world"}"#));
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
        apply(&svc, &item(0, "d1", 1, r#"{"title":"indexed words","body":"hidden text"}"#));
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
        apply(&svc, &item(1, "gone", 1, r#"{"t":"ephemeral"}"#));
        let del =
            DcpItem::deletion(VbId(1), "gone", DocMeta { seqno: SeqNo(2), ..Default::default() });
        apply(&svc, &del);
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
        apply(&svc, &item(2, "d", 5, r#"{"t":"x"}"#));
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
                feed_svc.sink("b").apply(&items, &stream_marks(&items)).unwrap();
                items.clear();
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
