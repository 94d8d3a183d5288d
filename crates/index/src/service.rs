//! The Index Manager.
//!
//! "The Index Manager resides within the indexing service and is
//! responsible for receiving requests for indexing operations (e.g.,
//! creation, deletion, maintenance, scan, lookup)" (§4.3.4).

use std::cmp::Ordering;
use std::collections::HashMap;
use std::path::PathBuf;
use std::slice;
use std::sync::Arc;
use std::time::Duration;

use cbs_common::sync::{rank, OrderedMutex, OrderedRwLock};
use cbs_common::{Deadline, Error, Result, SeqNo, VbId};
use cbs_dcp::{catch_up, BackfillSource, DcpItem, DcpSink};
use cbs_json::Value;
use cbs_obs::{span, Counter, Registry};

use crate::defs::{IndexDef, ScanConsistency, ScanRange};
use crate::indexer::{IndexCardinality, IndexEntry, IndexOp, Indexer, IndexerStats};
use crate::projector::{Projector, Router};

/// An index build commits whenever the snapshots it is holding reach this
/// many items (and once more before the index goes `Online`), so its memory
/// is bounded by this and not by the size of the index.
const BUILD_BATCH_ITEMS: usize = 4096;

/// Lifecycle state of an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexState {
    /// Created with `defer_build`; not maintained, not scannable.
    Deferred,
    /// Catch-up build in progress; maintained but not yet scannable.
    Building,
    /// Fully built and maintained.
    Online,
}

struct IndexInstance {
    router: Arc<Router>,
    state: OrderedMutex<IndexState>,
}

/// Manages every GSI hosted by one index-service node.
pub struct IndexManager {
    num_vbuckets: u16,
    log_dir: PathBuf,
    /// (keyspace, name) → instance.
    indexes: OrderedRwLock<HashMap<(String, String), Arc<IndexInstance>>>,
    registry: Arc<Registry>,
    scans: Arc<Counter>,
    items_applied: Arc<Counter>,
    builds: Arc<Counter>,
    commit_errors: Arc<Counter>,
}

impl IndexManager {
    /// Create a manager; `log_dir` hosts Standard-mode index logs.
    pub fn new(num_vbuckets: u16, log_dir: PathBuf) -> IndexManager {
        let registry = Arc::new(Registry::new("index"));
        IndexManager {
            num_vbuckets,
            log_dir,
            indexes: OrderedRwLock::new(rank::INDEX_REGISTRY, HashMap::new()),
            scans: registry.counter("index.manager.scans"),
            items_applied: registry.counter("index.manager.items_applied"),
            builds: registry.counter("index.manager.builds"),
            commit_errors: registry.counter("index.log.commit_errors"),
            registry,
        }
    }

    /// The index service's metrics registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Number of source vBuckets.
    pub fn num_vbuckets(&self) -> u16 {
        self.num_vbuckets
    }

    /// CREATE INDEX: register the definition and its partition indexers.
    /// Returns an error on duplicate name. The index starts `Deferred` if
    /// `def.deferred`, else `Building` (scannable after
    /// [`IndexManager::build`] or a catch-up via feed).
    pub fn create_index(&self, def: IndexDef) -> Result<()> {
        let key = (def.keyspace.clone(), def.name.clone());
        let exists = || Error::Index(format!("index {} already exists on {}", key.1, key.0));
        // Partition indexers open log files; build them outside the
        // registry lock so DDL doesn't stall concurrent scans, then
        // re-check for a racing duplicate at insert time.
        if self.indexes.read().contains_key(&key) {
            return Err(exists());
        }
        let mut partitions = Vec::with_capacity(def.num_partitions());
        for p in 0..def.num_partitions() {
            partitions.push(Arc::new(Indexer::new(
                self.num_vbuckets,
                def.layout(),
                def.storage,
                Some(self.log_dir.clone()),
                &format!("{}-{}-p{}", def.keyspace, def.name, p),
            )?));
        }
        let state = if def.deferred { IndexState::Deferred } else { IndexState::Building };
        let mut map = self.indexes.write();
        if map.contains_key(&key) {
            return Err(exists());
        }
        map.insert(
            key,
            Arc::new(IndexInstance {
                router: Arc::new(Router::new(def, partitions)),
                state: OrderedMutex::new(rank::INDEX_STATE, state),
            }),
        );
        Ok(())
    }

    /// DROP INDEX. The partitions' change logs go with it.
    pub fn drop_index(&self, keyspace: &str, name: &str) -> Result<()> {
        let inst = self
            .indexes
            .write()
            .remove(&(keyspace.to_string(), name.to_string()))
            .ok_or_else(|| Error::Index(format!("no such index: {name} on {keyspace}")))?;
        for log in inst.router.partitions().iter().filter_map(|p| p.log_path()) {
            std::fs::remove_dir_all(log)?;
        }
        Ok(())
    }

    /// List definitions for a keyspace (the Query Catalog's view, §4.3.5).
    pub fn list(&self, keyspace: &str) -> Vec<IndexDef> {
        self.instances(keyspace, |_| true).iter().map(|i| i.router.def().clone()).collect()
    }

    /// List only scannable (Online) definitions — what the planner may use.
    pub fn list_online(&self, keyspace: &str) -> Vec<IndexDef> {
        let online = self.instances(keyspace, |state| state == IndexState::Online);
        online.iter().map(|i| i.router.def().clone()).collect()
    }

    /// The indexes of `keyspace` in a state `keep` accepts.
    fn instances(
        &self,
        keyspace: &str,
        keep: impl Fn(IndexState) -> bool,
    ) -> Vec<Arc<IndexInstance>> {
        let indexes = self.indexes.read();
        let kept = indexes.iter().filter(|((ks, _), i)| ks == keyspace && keep(*i.state.lock()));
        kept.map(|(_, inst)| Arc::clone(inst)).collect()
    }

    /// Current state of an index.
    pub fn state(&self, keyspace: &str, name: &str) -> Result<IndexState> {
        Ok(*self.instance(keyspace, name)?.state.lock())
    }

    fn online(&self, keyspace: &str, name: &str) -> Result<Arc<IndexInstance>> {
        let inst = self.instance(keyspace, name)?;
        let online = *inst.state.lock() == IndexState::Online;
        online.then_some(inst).ok_or_else(|| Error::Index(format!("index {name} is not online")))
    }

    fn instance(&self, keyspace: &str, name: &str) -> Result<Arc<IndexInstance>> {
        self.indexes
            .read()
            .get(&(keyspace.to_string(), name.to_string()))
            .cloned()
            .ok_or_else(|| Error::Index(format!("no such index: {name} on {keyspace}")))
    }

    /// Catch-up build from a backfill source (BUILD INDEX for deferred
    /// indexes; also the initial build when an index is created over
    /// existing data): [`catch_up`] of the index alone, from zero — a
    /// `Building` index vouches for no prefix — beside the live feed, in
    /// batches of [`BUILD_BATCH_ITEMS`] spanning vBuckets. The index goes
    /// `Online` after the last, and stays `Building` if a commit fails.
    pub fn build(&self, keyspace: &str, name: &str, source: &dyn BackfillSource) -> Result<()> {
        let _s = span("index.manager.build");
        self.builds.inc();
        let inst = self.instance(keyspace, name)?;
        {
            let mut st = inst.state.lock();
            if *st == IndexState::Online {
                return Ok(());
            }
            *st = IndexState::Building;
        }
        let sink = IndexSink { mgr: self, instances: vec![Arc::clone(&inst)] };
        catch_up(source, &sink, (0..self.num_vbuckets).map(VbId), BUILD_BATCH_ITEMS)?;
        *inst.state.lock() = IndexState::Online;
        Ok(())
    }

    fn route(&self, inst: &IndexInstance, ops: Vec<IndexOp>) -> Result<()> {
        inst.router.route(ops).inspect_err(|_| self.commit_errors.inc())
    }

    /// Convenience: CREATE INDEX + immediate build (the common
    /// non-deferred path).
    pub fn create_and_build(&self, def: IndexDef, source: &dyn BackfillSource) -> Result<()> {
        let (ks, name, deferred) = (def.keyspace.clone(), def.name.clone(), def.deferred);
        self.create_index(def)?;
        if deferred {
            return Ok(());
        }
        self.build(&ks, &name, source)
    }

    /// Apply one DCP item up to its own seqno. A failed commit is counted
    /// (`index.log.commit_errors`) and leaves the watermark where it was.
    pub fn apply_dcp(&self, keyspace: &str, item: &DcpItem) {
        let _counted =
            self.sink(keyspace).apply(slice::from_ref(item), &[(item.vb, item.meta.seqno)]);
    }

    /// The non-deferred indexes of `keyspace` hosted here, as one sink.
    pub fn sink(&self, keyspace: &str) -> IndexSink<'_> {
        IndexSink { mgr: self, instances: self.instances(keyspace, |s| s != IndexState::Deferred) }
    }

    /// Scan an index: wait for the requested consistency on every
    /// partition — `timeout` bounds the whole wait, not each partition's —
    /// then scatter/gather ("it does scatter/gather for queries
    /// in case of a partitioned GSI index", §4.3.4) and merge in collation
    /// order.
    pub fn scan(
        &self,
        keyspace: &str,
        name: &str,
        range: &ScanRange,
        consistency: &ScanConsistency,
        timeout: Duration,
        limit: usize,
    ) -> Result<Vec<IndexEntry>> {
        let _s = span("index.manager.scan");
        self.scans.inc();
        let inst = self.online(keyspace, name)?;
        let partitions = inst.router.partitions();
        // One deadline over all partitions; `not_bounded` reads no clock.
        if let ScanConsistency::AtPlus(_) = consistency {
            let deadline = Deadline::after(timeout);
            partitions.iter().try_for_each(|p| p.wait_consistent(consistency, deadline))?;
        }
        // Scatter...
        let partials: Vec<Vec<IndexEntry>> =
            partitions.iter().map(|p| p.scan(range, limit)).collect();
        // ...gather: k-way merge by collation order.
        let mut merged = merge_sorted(partials);
        if limit > 0 && merged.len() > limit {
            merged.truncate(limit);
        }
        Ok(merged)
    }

    /// Aggregate cardinality across an index's partitions: entry counts
    /// sum; leading-key bounds take the min/max across partitions. Feeds
    /// the query service's statistics layer (selectivity estimation).
    ///
    /// `distinct_keys` is exact: the router sends every key to the
    /// partition of its leading component, so equal composite keys always
    /// share a partition and the per-partition counts add up (DESIGN.md
    /// §13).
    pub fn index_cardinality(&self, keyspace: &str, name: &str) -> Result<IndexCardinality> {
        let inst = self.instance(keyspace, name)?;
        let mut total = IndexCardinality::default();
        for p in inst.router.partitions() {
            let c = p.cardinality();
            total.entries += c.entries;
            total.distinct_keys += c.distinct_keys;
            total.min_leading = extreme(total.min_leading.take(), c.min_leading, Ordering::Less);
            total.max_leading = extreme(total.max_leading.take(), c.max_leading, Ordering::Greater);
        }
        Ok(total)
    }

    /// Aggregate stats across an index's partitions.
    pub fn index_stats(&self, keyspace: &str, name: &str) -> Result<IndexerStats> {
        let inst = self.instance(keyspace, name)?;
        let mut total = IndexerStats::default();
        for p in inst.router.partitions() {
            let s = p.stats();
            total.entries += s.entries;
            total.docs += s.docs;
            total.applied += s.applied;
            total.scans += s.scans;
            total.disk_syncs += s.disk_syncs;
            total.skipped += s.skipped;
        }
        Ok(total)
    }
}

/// Indexes of one keyspace as a DCP sink (projector → router, Figure 9):
/// one log commit per index partition per batch.
pub struct IndexSink<'a> {
    mgr: &'a IndexManager,
    instances: Vec<Arc<IndexInstance>>,
}

impl DcpSink for IndexSink<'_> {
    /// What is at or below the resume point is a re-delivery: neither
    /// projected nor counted. A version above its vBucket's mark is indexed
    /// *as of* the mark: it guards the document, and no watermark passes
    /// the mark before the writes below it are delivered. Every index is
    /// attempted; the first commit error is returned.
    fn apply(&self, items: &[DcpItem], upto: &[(VbId, SeqNo)]) -> Result<()> {
        if self.instances.is_empty() {
            return Ok(());
        }
        // Found by binary search (a vBucket listed twice: its first mark).
        let mut bounds: Vec<_> =
            upto.iter().map(|&(vb, mark)| (vb, self.resume_point(vb), mark)).collect();
        bounds.sort_by_key(|&(vb, ..)| vb);
        let items: Vec<(&DcpItem, SeqNo)> = (items.iter())
            .filter_map(|item| {
                let &(vb, at, mark) = bounds.get(bounds.partition_point(|b| b.0 < item.vb))?;
                (vb == item.vb && Some(item.meta.seqno) > at).then_some((item, mark))
            })
            .collect();
        self.mgr.items_applied.add(items.len() as u64);
        let advances = upto.iter().map(|&(vb, seqno)| IndexOp::Advance { vb, seqno });
        let mut result = Ok(());
        for inst in &self.instances {
            let puts = items.iter().map(|&(item, mark)| {
                match Projector::project(inst.router.def(), item) {
                    IndexOp::Put { doc_id, keys, vb, seqno } => {
                        IndexOp::Put { doc_id, keys, vb, seqno: seqno.min(mark) }
                    }
                    advance => advance,
                }
            });
            result = result.and(self.mgr.route(inst, puts.chain(advances.clone()).collect()));
        }
        result
    }

    fn resume_point(&self, vb: VbId) -> Option<SeqNo> {
        let resume = |inst: &Arc<IndexInstance>| match *inst.state.lock() {
            IndexState::Online => inst.router.partitions().iter().map(|p| p.watermark(vb)).min(),
            _ => Some(SeqNo::ZERO),
        };
        self.instances.iter().filter_map(resume).min()
    }
}

/// Of two optional key bounds, `b` if it compares `wins` to `a`, else `a`.
fn extreme(a: Option<Value>, b: Option<Value>, wins: Ordering) -> Option<Value> {
    match (a, b) {
        (Some(a), Some(b)) => Some(if cbs_json::cmp_values(&b, &a) == wins { b } else { a }),
        (a, b) => a.or(b),
    }
}

fn merge_sorted(mut partials: Vec<Vec<IndexEntry>>) -> Vec<IndexEntry> {
    match partials.len() {
        0 | 1 => partials.pop().unwrap_or_default(),
        _ => {
            let mut all: Vec<IndexEntry> = partials.into_iter().flatten().collect();
            all.sort_by(|a, b| a.key.cmp(&b.key).then_with(|| a.doc_id.cmp(&b.doc_id)));
            all
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defs::IndexStorage;
    use cbs_common::Cas;
    use cbs_dcp::DcpFeed;
    use cbs_kv::{DataEngine, EngineConfig, MutateMode};

    fn manager(n: u16) -> IndexManager {
        IndexManager::new(n, cbs_storage::scratch_dir("gsi-svc"))
    }

    fn engine() -> Arc<DataEngine> {
        let e = DataEngine::new(EngineConfig::for_test(16)).unwrap();
        e.activate_all();
        e
    }

    fn profile(name: &str, age: i64) -> Value {
        Value::object([("name", Value::from(name)), ("age", Value::int(age))])
    }

    #[test]
    fn create_build_scan_over_existing_data() {
        let e = engine();
        for i in 0..20 {
            e.set(
                &format!("u{i}"),
                profile(&format!("user{i}"), 20 + i),
                MutateMode::Upsert,
                Cas::WILDCARD,
                0,
            )
            .unwrap();
        }
        let m = manager(16);
        m.create_and_build(IndexDef::simple("age", "b", "age"), e.as_ref()).unwrap();
        assert_eq!(m.state("b", "age").unwrap(), IndexState::Online);
        let rows = m
            .scan(
                "b",
                "age",
                &ScanRange::at_least(Value::int(35)),
                &ScanConsistency::NotBounded,
                Duration::from_secs(1),
                0,
            )
            .unwrap();
        assert_eq!(rows.len(), 5, "ages 35..39");
        // Keys come back sorted.
        let ages: Vec<i64> =
            rows.iter().map(|r| r.key.0[0].as_ref().unwrap().as_i64().unwrap()).collect();
        assert_eq!(ages, [35, 36, 37, 38, 39]);
    }

    #[test]
    fn duplicate_create_rejected() {
        let m = manager(4);
        m.create_index(IndexDef::simple("i", "b", "x")).unwrap();
        assert!(m.create_index(IndexDef::simple("i", "b", "x")).is_err());
        // Same name on another keyspace is fine.
        m.create_index(IndexDef::simple("i", "other", "x")).unwrap();
        assert_eq!(m.list("b").len(), 1);
    }

    #[test]
    fn deferred_build_flow() {
        let e = engine();
        e.set("d1", profile("a", 30), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        let m = manager(16);
        let def = IndexDef { deferred: true, ..IndexDef::simple("age", "b", "age") };
        m.create_and_build(def, e.as_ref()).unwrap();
        assert_eq!(m.state("b", "age").unwrap(), IndexState::Deferred);
        // Scanning a deferred index fails.
        assert!(m
            .scan(
                "b",
                "age",
                &ScanRange::all(),
                &ScanConsistency::NotBounded,
                Duration::from_secs(1),
                0
            )
            .is_err());
        // BUILD INDEX.
        m.build("b", "age", e.as_ref()).unwrap();
        assert_eq!(m.state("b", "age").unwrap(), IndexState::Online);
        assert_eq!(
            m.scan(
                "b",
                "age",
                &ScanRange::all(),
                &ScanConsistency::NotBounded,
                Duration::from_secs(1),
                0
            )
            .unwrap()
            .len(),
            1
        );
    }

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

    /// A feed over every vBucket of `e`, from its current high seqnos.
    fn live_feed(e: &DataEngine) -> DcpFeed {
        let feed = DcpFeed::default();
        for vb in (0..16).map(VbId) {
            e.subscribe_dcp(&feed, vb, e.high_seqno(vb)).unwrap();
        }
        feed
    }

    /// The pump's GSI leg in miniature: whatever the feed holds goes to the
    /// manager's sink as one batch. Returns the batch's size.
    fn pump(m: &IndexManager, feed: &DcpFeed) -> usize {
        let mut items = Vec::new();
        feed.drain(Some(Deadline::after(Duration::ZERO)), &mut items);
        m.sink("b").apply(&items, &stream_marks(&items)).unwrap();
        items.len()
    }

    #[test]
    fn live_feed_maintains_index_and_request_plus_waits() {
        let e = engine();
        let m = manager(16);
        m.create_and_build(IndexDef::simple("age", "b", "age"), e.as_ref()).unwrap();
        let feed = live_feed(&e);
        let scan_99_at = |consistency: ScanConsistency, timeout| {
            m.scan("b", "age", &ScanRange::exact(Value::int(99)), &consistency, timeout, 0)
        };
        // `request_plus`: everything written before the scan.
        let scan_99 = |timeout| scan_99_at(ScanConsistency::AtPlus(e.seqno_vector()), timeout);

        // Written after the index went online: `request_plus` waits for the
        // feed, and times out while the feed has not delivered.
        let before_write = e.seqno_vector();
        e.set("new", profile("n", 99), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        assert!(matches!(scan_99(Duration::from_millis(20)), Err(Error::Timeout(_))));
        // `not_bounded` pays no catch-up wait: given no time at all, it
        // answers from the undrained index, without the write. So does an
        // `at_plus` token taken before the write.
        assert!(scan_99_at(ScanConsistency::NotBounded, Duration::ZERO).unwrap().is_empty());
        assert!(scan_99_at(ScanConsistency::AtPlus(before_write), Duration::ZERO)
            .unwrap()
            .is_empty());
        assert_eq!(pump(&m, &feed), 1);
        let rows = scan_99(Duration::from_secs(5)).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].doc_id, "new");

        // Delete flows through too; a burst is one batch, hence one commit.
        let syncs = m.index_stats("b", "age").unwrap().disk_syncs;
        e.delete("new", Cas::WILDCARD).unwrap();
        e.set("new", profile("n", 98), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        e.delete("new", Cas::WILDCARD).unwrap();
        assert_eq!(pump(&m, &feed), 3);
        assert!(scan_99(Duration::from_secs(5)).unwrap().is_empty());
        assert_eq!(m.index_stats("b", "age").unwrap().disk_syncs, syncs + 1);
    }

    /// A write the cache refuses takes no seqno, so a `request_plus` vector
    /// read right after one names only versions the feed delivered: the
    /// scan is answered at once, without waiting.
    #[test]
    fn a_request_plus_scan_right_after_a_refused_write_returns_at_once() {
        let mut cfg = EngineConfig::for_test(16);
        cfg.cache_quota = 64 << 10;
        let e = DataEngine::new(cfg).unwrap();
        e.activate_all();
        let m = manager(16);
        m.create_and_build(IndexDef::simple("age", "b", "age"), e.as_ref()).unwrap();
        let feed = live_feed(&e);
        let padded =
            |i| Value::object([("age", Value::int(i)), ("pad", Value::from("x".repeat(1_000)))]);
        let mut written = 0;
        let refused = loop {
            match e.set(
                &format!("u{written}"),
                padded(written),
                MutateMode::Upsert,
                Cas::WILDCARD,
                0,
            ) {
                Ok(_) => written += 1,
                Err(err) => break err,
            }
            assert!(written < 10_000, "the quota never filled");
        };
        assert!(matches!(refused, Error::TempOom), "{refused:?}");
        assert_eq!(pump(&m, &feed), written as usize);
        let request_plus = ScanConsistency::AtPlus(e.seqno_vector());
        let rows = m.scan("b", "age", &ScanRange::all(), &request_plus, Duration::ZERO, 0).unwrap();
        assert_eq!(rows.len(), written as usize);
    }

    /// A build's snapshot may return a version above its resume point — a
    /// value-evicted key rewritten and persisted between the engine's cache
    /// copy and its log read — while a write to another key made in that
    /// window is not delivered yet. The source below is the engine's
    /// backfill with that window forced open, as `BETWEEN_COPY_AND_LOG_READ`
    /// does in `cbs-kv`: after the copy, a writer writes `c` and rewrites
    /// `a`, a drain cycle persists both, and the read returns `a` as
    /// persisted. That version must guard `a` without moving the watermark
    /// past `c`: a `request_plus` scan sees every write at or below its
    /// target.
    #[test]
    fn a_build_racing_a_writer_moves_no_watermark_past_its_snapshot() {
        let e = engine();
        let upsert =
            |key: &str, age| e.set(key, profile(key, age), MutateMode::Upsert, Cas::WILDCARD, 0);
        upsert("a", 1).unwrap();
        let vb = e.vb_for_key("a");
        let c = (0..).map(|i| format!("c{i}")).find(|k| e.vb_for_key(k) == vb).unwrap();
        let feed = live_feed(&e);
        let before = e.seqno_vector();
        let raced = std::sync::atomic::AtomicBool::new(false);
        let racing = |v: VbId, since: SeqNo| -> Result<(Vec<DcpItem>, SeqNo)> {
            let (mut items, high) = e.backfill(v, since)?;
            if v == vb && !raced.swap(true, std::sync::atomic::Ordering::SeqCst) {
                upsert(&c, 2)?;
                upsert("a", 3)?;
                e.flush_once()?;
                let (persisted, _) = e.backfill(v, high)?;
                for item in &mut items {
                    if let Some(newer) = persisted.iter().find(|p| p.key == item.key) {
                        *item = newer.clone();
                    }
                }
            }
            Ok((items, high))
        };
        let m = manager(16);
        m.create_and_build(IndexDef::simple("age", "b", "age"), &racing).unwrap();
        let scan = |target, timeout| {
            let rows =
                m.scan("b", "age", &ScanRange::all(), &ScanConsistency::AtPlus(target), timeout, 0);
            let age = |r: &IndexEntry| r.key.0[0].as_ref().and_then(Value::as_i64);
            rows.map(|rows| rows.iter().map(|r| (r.doc_id.to_string(), age(r))).collect::<Vec<_>>())
        };
        // At the snapshot's resume point: `a`, at the version that came back.
        assert_eq!(scan(before, Duration::ZERO).unwrap(), [("a".to_string(), Some(3))]);
        // At the writer's: not answered without `c`.
        let target = e.seqno_vector();
        if let Ok(rows) = scan(target.clone(), Duration::ZERO) {
            assert!(rows.iter().any(|(id, _)| *id == c), "answered without {c}: {rows:?}");
        }
        // The drain cycle delivers both writes.
        assert_eq!(pump(&m, &feed), 2);
        let both = [(c.clone(), Some(2)), ("a".to_string(), Some(3))];
        assert_eq!(scan(target, Duration::from_secs(5)).unwrap(), both);
    }

    #[test]
    fn build_commits_in_batches_not_per_item() {
        let e = engine();
        for i in 0..5000 {
            e.set(&format!("u{i:05}"), profile("x", i), MutateMode::Upsert, Cas::WILDCARD, 0)
                .unwrap();
        }
        let m = manager(16);
        m.create_and_build(IndexDef::primary("#primary", "b"), e.as_ref()).unwrap();
        let stats = m.index_stats("b", "#primary").unwrap();
        assert_eq!(stats.docs, 5000);
        assert!((1..=16).contains(&stats.disk_syncs), "{} syncs", stats.disk_syncs);
        assert_eq!(stats.applied, 5000);
    }

    /// A primary index is over document IDs alone: building it decodes no
    /// body, resident or read from disk. A secondary index decodes each.
    #[test]
    fn a_primary_index_build_decodes_nothing() {
        let e = engine();
        for i in 0..100 {
            e.set(&format!("u{i:03}"), profile("x", i), MutateMode::Upsert, Cas::WILDCARD, 0)
                .unwrap();
        }
        let m = manager(16);
        let before = cbs_json::SharedValue::decodes_on_this_thread();
        m.create_and_build(IndexDef::primary("#primary", "b"), e.as_ref()).unwrap();
        assert_eq!(m.index_stats("b", "#primary").unwrap().docs, 100);
        assert_eq!(cbs_json::SharedValue::decodes_on_this_thread(), before);
        m.create_and_build(IndexDef::simple("age", "b", "age"), e.as_ref()).unwrap();
        assert_eq!(cbs_json::SharedValue::decodes_on_this_thread(), before + 100);
    }

    /// Items are counted where they are projected: a manager with no
    /// maintained index on the keyspace is not a destination.
    #[test]
    fn items_are_counted_only_where_an_index_is_maintained() {
        let e = engine();
        let m = manager(16);
        let applied = || m.registry().snapshot().counter("index.manager.items_applied");
        let meta = cbs_common::DocMeta { seqno: SeqNo(1), ..Default::default() };
        let item = DcpItem::mutation(VbId(0), "k", meta, profile("a", 1));
        m.apply_dcp("b", &item);
        let deferred = IndexDef { deferred: true, ..IndexDef::simple("later", "b", "age") };
        m.create_and_build(deferred, e.as_ref()).unwrap();
        m.create_and_build(IndexDef::simple("age", "other", "age"), e.as_ref()).unwrap();
        m.apply_dcp("b", &item);
        assert_eq!(applied(), 0);
        m.create_and_build(IndexDef::simple("age", "b", "age"), e.as_ref()).unwrap();
        m.create_and_build(IndexDef::simple("name", "b", "name"), e.as_ref()).unwrap();
        m.sink("b").apply(&[item.clone(), item], &[(VbId(0), SeqNo(1))]).unwrap();
        assert_eq!(applied(), 2, "per item, not per index");
    }

    /// One batch spanning all 1 024 vBuckets, its items interleaved across
    /// them, each vBucket with a mark of its own: every resume point lands
    /// on its mark. Redelivered with one newer version per vBucket, only
    /// those are applied, which holds only if each item meets its own
    /// vBucket's resume point.
    #[test]
    fn a_batch_spanning_every_vbucket_moves_each_resume_point_to_its_mark() {
        const VBS: u16 = 1024;
        let m = manager(VBS);
        m.create_and_build(IndexDef::primary("#p", "b"), &cbs_dcp::hub::EmptyBackfill).unwrap();
        let item = |vb: u16, seqno: u64| {
            let meta = cbs_common::DocMeta { seqno: SeqNo(seqno), ..Default::default() };
            DcpItem::mutation(VbId(vb), format!("k{vb}-{seqno}").as_str(), meta, profile("a", 1))
        };
        let applied = || m.registry().snapshot().counter("index.manager.items_applied");
        let mark = |vb: u16| 2 + u64::from(vb);
        // Seqno 1 of every vBucket from the last down, then seqno 2 of
        // every other one.
        let mut items: Vec<DcpItem> = (0..VBS).rev().map(|vb| item(vb, 1)).collect();
        items.extend((0..VBS).step_by(2).map(|vb| item(vb, 2)));
        for round in 0..2 {
            let upto: Vec<_> = (0..VBS).map(|vb| (VbId(vb), SeqNo(mark(vb) + round))).collect();
            m.sink("b").apply(&items, &upto).unwrap();
            for &(vb, at) in &upto {
                assert_eq!(m.sink("b").resume_point(vb), Some(at), "round {round}, {vb:?}");
            }
            assert_eq!(applied(), items.len() as u64, "round {round}");
            assert_eq!(m.index_stats("b", "#p").unwrap().docs, items.len() as u64);
            items.extend((0..VBS).rev().map(|vb| item(vb, mark(vb) + 1)));
        }
    }

    /// A log that cannot be written: CREATE fails when the log dir is
    /// unusable; with a log that accepts no data the build fails, the index
    /// does not go `Online`, the error is counted, and live batches report
    /// it and leave the watermarks alone.
    #[cfg(target_os = "linux")]
    #[test]
    fn unwritable_log_fails_the_build_and_is_counted() {
        let e = engine();
        e.set("d1", profile("a", 30), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();

        let not_a_dir = cbs_storage::scratch_dir("gsi-svc").join("file");
        std::fs::write(&not_a_dir, b"").unwrap();
        let m = IndexManager::new(16, not_a_dir);
        assert!(m.create_index(IndexDef::simple("age", "b", "age")).is_err());
        assert!(m.list("b").is_empty());

        let dir = cbs_storage::scratch_dir("gsi-svc");
        std::fs::create_dir(dir.join("b-age-p0.gsi")).unwrap();
        std::os::unix::fs::symlink("/dev/full", dir.join("b-age-p0.gsi/shard_0.couch")).unwrap();
        let m = IndexManager::new(16, dir);
        let errors = || m.registry().snapshot().counter("index.log.commit_errors");
        let built = m.create_and_build(IndexDef::simple("age", "b", "age"), e.as_ref());
        assert!(matches!(built, Err(Error::Io(_))), "{built:?}");
        assert_eq!(m.state("b", "age").unwrap(), IndexState::Building);
        assert!(m.list_online("b").is_empty());
        assert_eq!(errors(), 1);

        let item = DcpItem::mutation(
            VbId(0),
            "k",
            cbs_common::DocMeta { seqno: SeqNo(9), ..Default::default() },
            profile("a", 1),
        );
        assert!(m.sink("b").apply(slice::from_ref(&item), &[(VbId(0), SeqNo(9))]).is_err());
        m.apply_dcp("b", &item);
        assert_eq!(errors(), 3);
        assert_eq!(m.index_stats("b", "age").unwrap().entries, 0);
    }

    #[test]
    fn partitioned_scan_scatter_gather() {
        let e = engine();
        for i in 0..30 {
            e.set(&format!("u{i}"), profile("x", i), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        }
        let m = manager(16);
        let def = IndexDef {
            partition_splits: vec![Value::int(10), Value::int(20)],
            ..IndexDef::simple("age", "b", "age")
        };
        m.create_and_build(def, e.as_ref()).unwrap();
        let rows = m
            .scan(
                "b",
                "age",
                &ScanRange::all(),
                &ScanConsistency::NotBounded,
                Duration::from_secs(1),
                0,
            )
            .unwrap();
        assert_eq!(rows.len(), 30);
        let ages: Vec<i64> =
            rows.iter().map(|r| r.key.0[0].as_ref().unwrap().as_i64().unwrap()).collect();
        let expected: Vec<i64> = (0..30).collect();
        assert_eq!(ages, expected, "gather must merge partitions in key order");
        // Range crossing a partition boundary.
        let rows = m
            .scan(
                "b",
                "age",
                &ScanRange {
                    low: Some(Value::int(8)),
                    low_inclusive: true,
                    high: Some(Value::int(12)),
                    high_inclusive: true,
                },
                &ScanConsistency::NotBounded,
                Duration::from_secs(1),
                0,
            )
            .unwrap();
        assert_eq!(rows.len(), 5);
    }

    /// Keys go to partitions by their leading component, so a key shared
    /// by many documents lives in one partition and the summed
    /// `distinct_keys` is the true count.
    #[test]
    fn partitioned_distinct_keys_are_exact() {
        let e = engine();
        for i in 0..60 {
            e.set(&format!("u{i}"), profile("x", i % 7), MutateMode::Upsert, Cas::WILDCARD, 0)
                .unwrap();
        }
        let m = manager(16);
        let def = IndexDef {
            partition_splits: vec![Value::int(2), Value::int(5)],
            ..IndexDef::simple("age", "b", "age")
        };
        m.create_and_build(def, e.as_ref()).unwrap();
        let inst = m.instance("b", "age").unwrap();
        let per_partition: Vec<u64> =
            inst.router.partitions().iter().map(|p| p.cardinality().distinct_keys).collect();
        assert_eq!(per_partition, [2, 3, 2], "ages 0-1, 2-4, 5-6");
        let c = m.index_cardinality("b", "age").unwrap();
        assert_eq!((c.entries, c.distinct_keys), (60, 7));
        assert_eq!((c.min_leading, c.max_leading), (Some(Value::int(0)), Some(Value::int(6))));
        assert_eq!(m.index_stats("b", "age").unwrap().docs, 60);
    }

    /// `timeout` bounds the whole consistency wait. Three partitions catch
    /// up one after the other, each 60 ms after the one before; the fourth
    /// never does. With the timeout handed to every partition afresh the
    /// scan would sit through all of them and fail after 3 × 60 + 100 ms;
    /// against one deadline it fails at 100 ms, waiting on the second.
    #[test]
    fn request_plus_timeout_is_not_multiplied_by_the_partition_count() {
        let e = engine();
        let m = manager(16);
        let def = IndexDef {
            partition_splits: vec![Value::int(10), Value::int(20), Value::int(30)],
            ..IndexDef::simple("age", "b", "age")
        };
        m.create_and_build(def, e.as_ref()).unwrap();
        let inst = m.instance("b", "age").unwrap();
        assert_eq!(inst.router.partitions().len(), 4);
        let mut target = vec![SeqNo::ZERO; 16];
        target[0] = SeqNo(1);

        let started = std::time::Instant::now();
        let (scanned, took) = std::thread::scope(|scope| {
            scope.spawn(|| {
                for p in &inst.router.partitions()[..3] {
                    std::thread::sleep(Duration::from_millis(60));
                    let caught_up =
                        crate::indexer::IndexOp::Advance { vb: VbId(0), seqno: SeqNo(1) };
                    p.apply_batch(vec![caught_up]).unwrap();
                }
            });
            let scanned = m.scan(
                "b",
                "age",
                &ScanRange::all(),
                &ScanConsistency::AtPlus(target),
                Duration::from_millis(100),
                0,
            );
            (scanned, started.elapsed())
        });
        assert!(matches!(scanned, Err(Error::Timeout(_))), "{scanned:?}");
        assert!(took >= Duration::from_millis(100), "returned before its deadline: {took:?}");
        assert!(took < Duration::from_millis(200), "timeout multiplied: {took:?}");
    }

    #[test]
    fn exact_scan_over_partitioned_index() {
        let e = engine();
        e.set("u1", profile("x", 5), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        e.set("u2", profile("y", 50), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        let m = manager(16);
        let def = IndexDef {
            partition_splits: vec![Value::int(10)],
            ..IndexDef::simple("age", "b", "age")
        };
        m.create_and_build(def, e.as_ref()).unwrap();
        let hits = m
            .scan(
                "b",
                "age",
                &ScanRange::exact(Value::int(50)),
                &ScanConsistency::NotBounded,
                Duration::from_secs(1),
                0,
            )
            .unwrap();
        let ids: Vec<&str> = hits.iter().map(|e| &*e.doc_id).collect();
        assert_eq!(ids, ["u2"]);
    }

    #[test]
    fn drop_index_works() {
        let dir = cbs_storage::scratch_dir("gsi-svc");
        let m = IndexManager::new(4, dir.clone());
        m.create_index(IndexDef::simple("i", "b", "x")).unwrap();
        assert!(dir.join("b-i-p0.gsi").exists());
        m.drop_index("b", "i").unwrap();
        assert!(!dir.join("b-i-p0.gsi").exists(), "the change log goes with the index");
        assert!(m.drop_index("b", "i").is_err());
        assert!(m.list("b").is_empty());
    }

    #[test]
    fn memory_optimized_index_skips_disk() {
        let e = engine();
        e.set("d", profile("a", 1), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        let m = manager(16);
        let def = IndexDef {
            storage: IndexStorage::MemoryOptimized,
            ..IndexDef::simple("age", "b", "age")
        };
        m.create_and_build(def, e.as_ref()).unwrap();
        assert_eq!(m.index_stats("b", "age").unwrap().disk_syncs, 0);
        // Standard mode, by contrast, syncs.
        m.create_and_build(IndexDef::simple("age_std", "b", "age"), e.as_ref()).unwrap();
        assert!(m.index_stats("b", "age_std").unwrap().disk_syncs > 0);
    }
}
