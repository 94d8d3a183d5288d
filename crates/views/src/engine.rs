//! The per-node view engine: design documents, on-demand index updates via
//! DCP, and `stale`-parameterised queries.
//!
//! "Views are eventually consistent with respect to the underlying stored
//! documents; they are kept up-to-date asynchronously, on demand, based on
//! document writes/updates" (§3.1.2). The engine holds one DCP feed per
//! design document and drains it when an update is demanded:
//!
//! - `stale=false` — "wait for the view indexer to finish processing
//!   changes that correspond to the current key-value document set and then
//!   return the latest entries";
//! - `stale=ok` — "just return the current entries from the index file";
//! - `stale=update_after` — "return the current entries from the index,
//!   but then initiate a view index update. (This is the default.)"
//!
//! Since the view index is a *local* index (§3.3.1) the engine is co-located
//! with the data service; cluster-wide scatter/gather lives in
//! `cbs-cluster`.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use cbs_common::sync::{rank, OrderedMutex, OrderedRwLock};
use cbs_common::{Deadline, Error, Result, SeqNo, VbId};
use cbs_dcp::{DcpFeed, DcpItem};
use cbs_json::Value;
use cbs_kv::{DataEngine, VbState};
use cbs_obs::{span, Counter};

use crate::btree::{KeyRange, ViewBTree, ViewEntry};
use crate::mapfn::MapFn;
use crate::reduce::{Reducer, Reduction};

/// One view: a map function and an optional reduce.
#[derive(Debug, Clone)]
pub struct ViewDef {
    /// The map function.
    pub map: MapFn,
    /// Optional built-in reducer.
    pub reduce: Option<Reducer>,
}

/// A named group of views maintained together (CouchDB heritage: all views
/// of a design doc are updated in one pass over the changed documents).
#[derive(Debug, Clone)]
pub struct DesignDoc {
    /// Design document name.
    pub name: String,
    /// Views by name.
    pub views: Vec<(String, ViewDef)>,
}

/// The `stale` query parameter (§3.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Stale {
    /// Process pending changes first.
    False,
    /// Serve whatever is indexed.
    Ok,
    /// Serve, then refresh.
    #[default]
    UpdateAfter,
}

/// A view query.
#[derive(Debug, Clone, Default)]
pub struct ViewQuery {
    /// Exact-match keys ("matching any of the supplied keys"); if
    /// non-empty, `range` is ignored.
    pub keys: Vec<Value>,
    /// Key range ("starting with the provided key A and stopping on the
    /// last instance of a key B").
    pub range: KeyRange,
    /// Staleness tolerance.
    pub stale: Stale,
    /// Run the reduce function instead of returning rows.
    pub reduce: bool,
    /// With `reduce`: group results by distinct key.
    pub group: bool,
    /// Row limit (0 = unlimited).
    pub limit: usize,
}

impl ViewQuery {
    /// The paper's REST example: `?key="Dipti"&stale=false`.
    pub fn by_key(key: Value) -> ViewQuery {
        ViewQuery { range: KeyRange::exact(key), ..Default::default() }
    }
}

/// One result row.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewRow {
    /// Source document ID (absent for reduced rows).
    pub id: Option<String>,
    /// Key (the group key for grouped reductions).
    pub key: Value,
    /// Value (the reduction for reduced rows).
    pub value: Value,
}

/// A query result.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewResult {
    /// Result rows in key order.
    pub rows: Vec<ViewRow>,
    /// Total rows in the view (pre-limit, pre-filter).
    pub total_rows: usize,
}

struct ViewState {
    def: ViewDef,
    tree: ViewBTree,
    /// doc → the key it currently emits (to remove stale rows on update).
    emitted: HashMap<String, Value>,
}

/// A design document's change feed over the vBuckets the local engine holds
/// `Active`, and the last seqno of each vBucket its views have indexed.
struct DdocFeed {
    feed: DcpFeed,
    cursors: Vec<SeqNo>,
    /// The vBuckets `feed` is subscribed to: the ones that were `Active`
    /// when it was built.
    active: Vec<bool>,
}

impl DdocFeed {
    /// Rebuild the feed from the cursors if the vBuckets `engine` holds
    /// `Active` are no longer the ones it is subscribed to. Only the active
    /// copy publishes on its node's hub — what a copy took as a replica
    /// never reaches a live subscription — so a vBucket promoted by
    /// failover (or moved in by rebalance) is backfilled from where the
    /// views stand. A fresh feed rather than one more subscription on the
    /// old one, which would deliver the overlap twice. The comparison is
    /// made when the views are updated or queried: a copy demoted *and*
    /// promoted again between two such calls goes unnoticed.
    fn follow(&mut self, engine: &DataEngine) -> Result<()> {
        let active: Vec<bool> = (0..self.cursors.len())
            .map(|v| engine.vb_state(VbId(v as u16)) == VbState::Active)
            .collect();
        if active == self.active {
            return Ok(());
        }
        self.feed = DcpFeed::default();
        // Nothing is subscribed until every subscription below has succeeded.
        self.active.fill(false);
        for (v, _) in active.iter().enumerate().filter(|(_, a)| **a) {
            engine.subscribe_dcp(&self.feed, VbId(v as u16), self.cursors[v])?;
        }
        self.active = active;
        Ok(())
    }
}

struct DdocState {
    views: OrderedMutex<HashMap<String, ViewState>>,
    streams: OrderedMutex<DdocFeed>,
}

impl DdocState {
    /// Wait up to `wait` for changes, then index everything queued (the
    /// incremental view update pass). The caller's `streams` guard is held
    /// across the apply, so a cursor never runs ahead of the views.
    fn pull(&self, streams: &mut DdocFeed, wait: Duration) -> usize {
        let mut items = Vec::new();
        streams.feed.drain(wait, &mut items);
        let mut views = self.views.lock();
        for item in &items {
            let cursor = &mut streams.cursors[item.vb.index()];
            *cursor = (*cursor).max(item.meta.seqno);
            apply_item(&mut views, item);
        }
        items.len()
    }
}

/// The view engine for one bucket on one node.
pub struct ViewEngine {
    engine: Arc<DataEngine>,
    ddocs: OrderedRwLock<HashMap<String, Arc<DdocState>>>,
    queries: Arc<Counter>,
    items_indexed: Arc<Counter>,
}

impl ViewEngine {
    /// Attach a view engine to a data engine. View metrics live in the
    /// node's shared registry (the view engine is co-located with the data
    /// service, §3.3.1).
    pub fn new(engine: Arc<DataEngine>) -> ViewEngine {
        let registry = engine.registry();
        let queries = registry.counter("views.engine.queries");
        let items_indexed = registry.counter("views.engine.items_indexed");
        ViewEngine {
            engine,
            ddocs: OrderedRwLock::new(rank::VIEWS_DDOCS, HashMap::new()),
            queries,
            items_indexed,
        }
    }

    /// Register a design document. Its views start empty; they materialise
    /// on the first update (triggered by `stale=false`/`update_after`
    /// queries or an explicit [`ViewEngine::update`]).
    pub fn create_design_doc(&self, ddoc: DesignDoc) -> Result<()> {
        let mut map = self.ddocs.write();
        if map.contains_key(&ddoc.name) {
            return Err(Error::View(format!("design doc {} already exists", ddoc.name)));
        }
        let n = self.engine.config().num_vbuckets as usize;
        let mut streams = DdocFeed {
            feed: DcpFeed::default(),
            cursors: vec![SeqNo::ZERO; n],
            active: vec![false; n],
        };
        streams.follow(&self.engine)?;
        let views = ddoc
            .views
            .into_iter()
            .map(|(name, def)| {
                let reducer = def.reduce.unwrap_or(Reducer::Count);
                (name, ViewState { def, tree: ViewBTree::new(reducer), emitted: HashMap::new() })
            })
            .collect();
        map.insert(
            ddoc.name,
            Arc::new(DdocState {
                views: OrderedMutex::new(rank::VIEWS_DDOC_VIEWS, views),
                streams: OrderedMutex::new(rank::VIEWS_DDOC_STREAMS, streams),
            }),
        );
        Ok(())
    }

    /// Drop a design document and its indexes.
    pub fn drop_design_doc(&self, name: &str) -> Result<()> {
        self.ddocs
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| Error::View(format!("no such design doc: {name}")))
    }

    /// Design document names.
    pub fn design_docs(&self) -> Vec<String> {
        let mut v: Vec<String> = self.ddocs.read().keys().cloned().collect();
        v.sort();
        v
    }

    fn ddoc(&self, name: &str) -> Result<Arc<DdocState>> {
        self.ddocs
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::View(format!("no such design doc: {name}")))
    }

    /// Drain available DCP changes into every view of a design doc (the
    /// incremental view update pass).
    pub fn update(&self, ddoc_name: &str) -> Result<usize> {
        let _s = span("views.engine.update");
        let state = self.ddoc(ddoc_name)?;
        let mut streams = state.streams.lock();
        streams.follow(&self.engine)?;
        let n = state.pull(&mut streams, Duration::ZERO);
        self.items_indexed.add(n as u64);
        Ok(n)
    }

    /// Update and wait until every view has processed at least the current
    /// key-value document set (the `stale=false` contract) of the vBuckets
    /// this node holds `Active` — the only ones its hub publishes, its feed
    /// follows and its queries serve.
    /// `timeout` bounds the whole update, not each vBucket's share of it.
    pub fn update_to_current(&self, ddoc_name: &str, timeout: Duration) -> Result<()> {
        let _s = span("views.engine.update");
        let deadline = Deadline::after(timeout);
        let state = self.ddoc(ddoc_name)?;
        let mut streams = state.streams.lock();
        streams.follow(&self.engine)?;
        let goals: Vec<(usize, SeqNo)> = (self.engine.seqno_vector().into_iter().enumerate())
            .filter(|(v, _)| streams.active[*v])
            .collect();
        loop {
            let behind = goals.iter().find(|(v, goal)| streams.cursors[*v] < *goal);
            let Some((vbi, goal)) = behind else { return Ok(()) };
            if deadline.expired() {
                return Err(Error::Timeout(format!(
                    "view update for vb {vbi}: cursor {:?} < goal {goal:?}",
                    streams.cursors[*vbi]
                )));
            }
            self.items_indexed.add(state.pull(&mut streams, deadline.remaining()) as u64);
        }
    }

    /// Query a view (§3.1.2 semantics, including the `stale` parameter).
    pub fn query(&self, ddoc_name: &str, view_name: &str, q: &ViewQuery) -> Result<ViewResult> {
        let _s = span("views.engine.query");
        self.queries.inc();
        match q.stale {
            Stale::False => self.update_to_current(ddoc_name, Duration::from_secs(30))?,
            Stale::Ok => {}
            Stale::UpdateAfter => {}
        }
        let result = self.query_current(ddoc_name, view_name, q)?;
        if q.stale == Stale::UpdateAfter {
            // "Return the current entries from the index, but then initiate
            // a view index update" — initiated in the background so the
            // query's latency stays at stale=ok levels.
            let state = self.ddoc(ddoc_name)?;
            let engine = Arc::clone(&self.engine);
            let items_indexed = self.items_indexed.clone();
            std::thread::spawn(move || {
                let mut streams = state.streams.lock();
                if streams.follow(&engine).is_ok() {
                    items_indexed.add(state.pull(&mut streams, Duration::ZERO) as u64);
                }
            });
        }
        Ok(result)
    }

    fn query_current(&self, ddoc_name: &str, view_name: &str, q: &ViewQuery) -> Result<ViewResult> {
        let state = self.ddoc(ddoc_name)?;
        let views = state.views.lock();
        let view = views
            .get(view_name)
            .ok_or_else(|| Error::View(format!("no such view: {view_name} in {ddoc_name}")))?;

        // Only serve entries from vBuckets active on this node: "parts of a
        // B-tree can be deactivated as needed [to] maintain consistency when
        // querying a view index during rebalancing or failover" (§4.3.3).
        let n = self.engine.config().num_vbuckets as usize;
        let mut all_active = true;
        let active: Vec<bool> = (0..n)
            .map(|vb| {
                let is_active = self.engine.vb_state(VbId(vb as u16)) == VbState::Active;
                all_active &= is_active;
                is_active
            })
            .collect();
        let filter: Option<&[bool]> = if all_active { None } else { Some(&active) };

        let entries: Vec<ViewEntry> = if q.keys.is_empty() {
            view.tree.scan(&q.range, filter)
        } else {
            let mut out = Vec::new();
            for k in &q.keys {
                out.extend(view.tree.scan(&KeyRange::exact(k.clone()), filter));
            }
            out
        };
        let total_rows = view.tree.len();

        if q.reduce {
            let reducer = view
                .def
                .reduce
                .ok_or_else(|| Error::View(format!("view {view_name} has no reduce function")))?;
            if q.group {
                // Group by distinct key, in key order.
                let mut rows: Vec<ViewRow> = Vec::new();
                let mut i = 0;
                while i < entries.len() {
                    let key = entries[i].key.clone();
                    let mut acc = reducer.empty();
                    while i < entries.len()
                        && cbs_json::cmp_values(&entries[i].key, &key) == std::cmp::Ordering::Equal
                    {
                        acc = acc.combine(reducer.of_value(&entries[i].value));
                        i += 1;
                    }
                    rows.push(ViewRow { id: None, key, value: acc.to_value() });
                }
                return Ok(ViewResult { rows, total_rows });
            }
            // Un-grouped reduce: one row. Use the pre-computed tree
            // aggregates when the query is an unfiltered pure range.
            let red: Reduction = if q.keys.is_empty() {
                view.tree.reduce(&q.range, filter)
            } else {
                entries
                    .iter()
                    .map(|e| reducer.of_value(&e.value))
                    .fold(reducer.empty(), Reduction::combine)
            };
            return Ok(ViewResult {
                rows: vec![ViewRow { id: None, key: Value::Null, value: red.to_value() }],
                total_rows,
            });
        }

        let mut rows: Vec<ViewRow> = entries
            .into_iter()
            .map(|e| ViewRow { id: Some(e.doc_id), key: e.key, value: e.value })
            .collect();
        if q.limit > 0 && rows.len() > q.limit {
            rows.truncate(q.limit);
        }
        Ok(ViewResult { rows, total_rows })
    }
}

fn apply_item(views: &mut HashMap<String, ViewState>, item: &DcpItem) {
    for view in views.values_mut() {
        // Remove the row this doc previously emitted (if any).
        if let Some(old_key) = view.emitted.remove(item.key.as_str()) {
            view.tree.remove(&old_key, &item.key);
        }
        // A deletion — or a mutation with no body — emits nothing.
        let Some(doc) = item.value.as_ref().filter(|_| !item.is_deletion()) else { continue };
        if let Some((k, v)) = view.def.map.map(&item.key, doc) {
            view.tree.insert(ViewEntry {
                key: k.clone(),
                doc_id: item.key.to_string(),
                value: v,
                vb: item.vb,
            });
            view.emitted.insert(item.key.to_string(), k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapfn::{MapCond, MapExpr};
    use cbs_common::Cas;
    use cbs_kv::{EngineConfig, MutateMode};

    fn setup() -> (Arc<DataEngine>, ViewEngine) {
        let e = DataEngine::new(EngineConfig::for_test(16)).unwrap();
        e.activate_all();
        let ve = ViewEngine::new(Arc::clone(&e));
        ve.create_design_doc(DesignDoc {
            name: "profiles".to_string(),
            views: vec![
                (
                    "by_name".to_string(),
                    ViewDef {
                        map: MapFn {
                            when: vec![MapCond::Exists(cbs_json::parse_path("name").unwrap())],
                            key: MapExpr::field("name"),
                            value: Some(MapExpr::field("email")),
                        },
                        reduce: None,
                    },
                ),
                (
                    "age_stats".to_string(),
                    ViewDef {
                        map: MapFn {
                            when: vec![],
                            key: MapExpr::field("name"),
                            value: Some(MapExpr::field("age")),
                        },
                        reduce: Some(Reducer::Stats),
                    },
                ),
            ],
        })
        .unwrap();
        (e, ve)
    }

    fn put(e: &DataEngine, id: &str, name: &str, age: i64) {
        e.set(
            id,
            Value::object([
                ("name", Value::from(name)),
                ("email", Value::from(format!("{name}@cb.com"))),
                ("age", Value::int(age)),
            ]),
            MutateMode::Upsert,
            Cas::WILDCARD,
            0,
        )
        .unwrap();
    }

    #[test]
    fn paper_rest_example_stale_false() {
        let (e, ve) = setup();
        put(&e, "borkar123", "Dipti", 30);
        // ?key="Dipti"&stale=false
        let q = ViewQuery { stale: Stale::False, ..ViewQuery::by_key(Value::from("Dipti")) };
        let res = ve.query("profiles", "by_name", &q).unwrap();
        assert_eq!(res.rows.len(), 1);
        assert_eq!(res.rows[0].value, Value::from("Dipti@cb.com"));
        assert_eq!(res.rows[0].id.as_deref(), Some("borkar123"));
    }

    /// Give every vBucket but `keep` a replica copy that has applied seqno 3
    /// — applies the local hub never publishes, so no live subscription ever
    /// sees them.
    fn replica_applies_elsewhere(e: &DataEngine, keep: VbId) {
        for vb in (0..16).map(VbId).filter(|&vb| vb != keep) {
            e.set_vb_state(vb, VbState::Replica);
            let meta = cbs_common::DocMeta { seqno: SeqNo(3), ..Default::default() };
            let doc = Value::object([("name", Value::from("replicated"))]);
            e.apply_replica(&DcpItem::mutation(vb, format!("r{}", vb.0), meta, doc)).unwrap();
        }
    }

    /// `stale=false` against *active* vBuckets whose feed will never deliver
    /// (copies demoted, fed replica applies and promoted again with no view
    /// update or query in between — the one change `follow` cannot see): the
    /// update fails with `Timeout` at its one deadline, however many
    /// vBuckets are stuck — not after a timeout per vBucket, and not never.
    #[test]
    fn update_to_current_gives_up_at_one_deadline_over_many_stuck_vbuckets() {
        let (e, ve) = setup();
        put(&e, "u1", "Alice", 30);
        replica_applies_elsewhere(&e, e.vb_for_key("u1"));
        e.activate_all();
        let started = std::time::Instant::now();
        let updated = ve.update_to_current("profiles", Duration::from_millis(50));
        let took = started.elapsed();
        assert!(matches!(updated, Err(Error::Timeout(_))), "{updated:?}");
        assert!(took >= Duration::from_millis(50), "gave up early: {took:?}");
        assert!(took < Duration::from_millis(50 * 15), "one timeout per vBucket: {took:?}");
    }

    /// Copies promoted after taking replica applies: the feed is rebuilt from
    /// the cursors, so `stale=false` indexes what they took as replicas.
    #[test]
    fn promoted_vbuckets_are_indexed_from_their_replica_applies() {
        let (e, ve) = setup();
        put(&e, "u1", "Alice", 30);
        replica_applies_elsewhere(&e, e.vb_for_key("u1"));
        assert_eq!(ve.update("profiles").unwrap(), 1, "follows the one active vBucket");
        e.activate_all();
        ve.update_to_current("profiles", Duration::from_secs(5)).unwrap();
        let res = ve.query("profiles", "by_name", &ViewQuery::default()).unwrap();
        assert_eq!(res.rows.len(), 16, "one document per vBucket, promoted ones included");
        // A live write arrives once: the rebuilt feed replaced the first one,
        // it is not a second subscription beside it.
        put(&e, "u2", "Bob", 40);
        assert_eq!(ve.update("profiles").unwrap(), 1);
    }

    /// Replica copies that advance after the design document was created do
    /// not delay `stale=false`: the update waits only on the vBuckets this
    /// node holds active — the ones its queries serve.
    #[test]
    fn replica_applies_do_not_delay_stale_false() {
        let (e, ve) = setup();
        put(&e, "u1", "Alice", 30);
        replica_applies_elsewhere(&e, e.vb_for_key("u1"));
        ve.update_to_current("profiles", Duration::from_secs(5)).unwrap();
        let res = ve.query("profiles", "by_name", &ViewQuery::default()).unwrap();
        assert_eq!(res.rows.len(), 1, "the active vBucket's document is indexed");
    }

    #[test]
    fn stale_ok_serves_stale_then_update_catches_up() {
        let (e, ve) = setup();
        put(&e, "u1", "Alice", 30);
        ve.update("profiles").unwrap();
        put(&e, "u2", "Bob", 40); // not yet indexed
        let q = ViewQuery { stale: Stale::Ok, ..Default::default() };
        let res = ve.query("profiles", "by_name", &q).unwrap();
        assert_eq!(res.rows.len(), 1, "stale=ok sees only what's indexed");
        // stale=false sees everything.
        let q = ViewQuery { stale: Stale::False, ..Default::default() };
        let res = ve.query("profiles", "by_name", &q).unwrap();
        assert_eq!(res.rows.len(), 2);
    }

    #[test]
    fn stale_update_after_refreshes_in_background() {
        let (e, ve) = setup();
        put(&e, "u1", "Alice", 30);
        let q = ViewQuery { stale: Stale::UpdateAfter, ..Default::default() };
        let first = ve.query("profiles", "by_name", &q).unwrap();
        assert_eq!(first.rows.len(), 0, "first query sees the unbuilt index");
        // The update_after side effect runs in the background; poll until
        // it has indexed u1.
        let q2 = ViewQuery { stale: Stale::Ok, ..Default::default() };
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let second = ve.query("profiles", "by_name", &q2).unwrap();
            if second.rows.len() == 1 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "background update never ran");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn updates_and_deletes_maintain_rows() {
        let (e, ve) = setup();
        put(&e, "u1", "Alice", 30);
        put(&e, "u1", "Alicia", 31); // rename: old key must go
        let q = ViewQuery { stale: Stale::False, ..Default::default() };
        let res = ve.query("profiles", "by_name", &q).unwrap();
        assert_eq!(res.rows.len(), 1);
        assert_eq!(res.rows[0].key, Value::from("Alicia"));

        e.delete("u1", Cas::WILDCARD).unwrap();
        let res = ve.query("profiles", "by_name", &q).unwrap();
        assert!(res.rows.is_empty());
    }

    #[test]
    fn range_query_in_key_order() {
        let (e, ve) = setup();
        for (i, name) in ["Carol", "Alice", "Eve", "Bob", "Dan"].iter().enumerate() {
            put(&e, &format!("u{i}"), name, 20 + i as i64);
        }
        let q = ViewQuery {
            stale: Stale::False,
            range: KeyRange::between(Value::from("Alice"), Value::from("Dan")),
            ..Default::default()
        };
        let res = ve.query("profiles", "by_name", &q).unwrap();
        let names: Vec<&Value> = res.rows.iter().map(|r| &r.key).collect();
        assert_eq!(
            names,
            [
                &Value::from("Alice"),
                &Value::from("Bob"),
                &Value::from("Carol"),
                &Value::from("Dan")
            ]
        );
    }

    #[test]
    fn multi_key_query() {
        let (e, ve) = setup();
        for (i, name) in ["A", "B", "C"].iter().enumerate() {
            put(&e, &format!("u{i}"), name, 20);
        }
        let q = ViewQuery {
            stale: Stale::False,
            keys: vec![Value::from("A"), Value::from("C"), Value::from("ZZZ")],
            ..Default::default()
        };
        let res = ve.query("profiles", "by_name", &q).unwrap();
        assert_eq!(res.rows.len(), 2);
    }

    #[test]
    fn reduce_and_group() {
        let (e, ve) = setup();
        put(&e, "u1", "A", 10);
        put(&e, "u2", "A", 20);
        put(&e, "u3", "B", 30);
        // Ungrouped stats over everything.
        let q = ViewQuery { stale: Stale::False, reduce: true, ..Default::default() };
        let res = ve.query("profiles", "age_stats", &q).unwrap();
        assert_eq!(res.rows.len(), 1);
        let stats = &res.rows[0].value;
        assert_eq!(stats.get_field("sum"), Some(&Value::int(60)));
        assert_eq!(stats.get_field("count"), Some(&Value::int(3)));
        // Grouped by name.
        let q = ViewQuery { stale: Stale::False, reduce: true, group: true, ..Default::default() };
        let res = ve.query("profiles", "age_stats", &q).unwrap();
        assert_eq!(res.rows.len(), 2);
        assert_eq!(res.rows[0].key, Value::from("A"));
        assert_eq!(res.rows[0].value.get_field("sum"), Some(&Value::int(30)));
        assert_eq!(res.rows[1].value.get_field("sum"), Some(&Value::int(30)));
        // Reduce on a view without a reducer fails.
        let q = ViewQuery { stale: Stale::False, reduce: true, ..Default::default() };
        assert!(ve.query("profiles", "by_name", &q).is_err());
    }

    #[test]
    fn inactive_vbuckets_filtered_from_results() {
        let (e, ve) = setup();
        for i in 0..40 {
            put(&e, &format!("u{i}"), &format!("name{i:02}"), 20);
        }
        let q = ViewQuery { stale: Stale::False, ..Default::default() };
        let before = ve.query("profiles", "by_name", &q).unwrap().rows.len();
        assert_eq!(before, 40);
        // Deactivate half the vBuckets (mid-rebalance).
        for vb in 0..8u16 {
            e.set_vb_state(VbId(vb), VbState::Dead);
        }
        let q = ViewQuery { stale: Stale::Ok, ..Default::default() };
        let after = ve.query("profiles", "by_name", &q).unwrap().rows.len();
        assert!(after < before, "rows from deactivated vBuckets must disappear");
        // Reactivate: rows come back (index entries were never dropped).
        for vb in 0..8u16 {
            e.set_vb_state(VbId(vb), VbState::Active);
        }
        let back = ve.query("profiles", "by_name", &q).unwrap().rows.len();
        assert_eq!(back, 40);
    }

    #[test]
    fn limit_and_unknown_names() {
        let (e, ve) = setup();
        for i in 0..10 {
            put(&e, &format!("u{i}"), &format!("n{i}"), 20);
        }
        let q = ViewQuery { stale: Stale::False, limit: 3, ..Default::default() };
        assert_eq!(ve.query("profiles", "by_name", &q).unwrap().rows.len(), 3);
        assert!(ve.query("nope", "by_name", &q).is_err());
        assert!(ve.query("profiles", "nope", &q).is_err());
        assert!(ve.drop_design_doc("nope").is_err());
        ve.drop_design_doc("profiles").unwrap();
        assert!(ve.design_docs().is_empty());
    }

    #[test]
    fn mixed_doc_types_with_guard() {
        let (e, ve) = setup();
        put(&e, "u1", "Alice", 30);
        // A doc without `name` in the same bucket: guarded out.
        e.set(
            "order1",
            Value::object([("total", Value::int(99))]),
            MutateMode::Upsert,
            Cas::WILDCARD,
            0,
        )
        .unwrap();
        let q = ViewQuery { stale: Stale::False, ..Default::default() };
        let res = ve.query("profiles", "by_name", &q).unwrap();
        assert_eq!(res.rows.len(), 1);
    }
}
