//! The per-node view engine: design documents, on-demand index updates from
//! backfill snapshots, and `stale`-parameterised queries.
//!
//! "Views are eventually consistent with respect to the underlying stored
//! documents; they are kept up-to-date asynchronously, on demand, based on
//! document writes/updates" (§3.1.2). A design document is a DCP sink
//! (`cbs_dcp::DcpSink`) that holds a resume point per vBucket and nothing
//! else between updates — no feed, no queue. An update pass is one
//! `cbs_dcp::catch_up` of the vBuckets this node holds `Active` whose high
//! seqno has moved past their resume point. An update is demanded by the
//! query's `stale` parameter:
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

use cbs_common::sync::{rank, OrderedMutex, OrderedRwLock};
use cbs_common::{Error, Result, SeqNo, VbId};
use cbs_dcp::{catch_up, BackfillSource, DcpItem, DcpSink};
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

/// A design document, a DCP sink of its node's active vBuckets: every view
/// sees each item above its vBucket's resume point, in order; what is at or
/// below it is a re-delivery.
pub struct DesignDocIndex {
    /// Held across a whole update pass, so two passes do not interleave.
    pass: OrderedMutex<()>,
    /// The views, and per vBucket the resume point they are applied up to.
    indexed: OrderedMutex<(HashMap<String, ViewState>, Vec<SeqNo>)>,
}

impl DcpSink for DesignDocIndex {
    fn apply(&self, items: &[DcpItem], upto: &[(VbId, SeqNo)]) -> Result<()> {
        let (views, cursors) = &mut *self.indexed.lock();
        let news = |i: &&DcpItem| cursors.get(i.vb.index()).is_some_and(|at| i.meta.seqno > *at);
        items.iter().filter(news).for_each(|item| apply_item(views, item));
        for &(vb, mark) in upto {
            if let Some(at) = cursors.get_mut(vb.index()) {
                *at = (*at).max(mark);
            }
        }
        Ok(())
    }

    fn resume_point(&self, vb: VbId) -> Option<SeqNo> {
        self.indexed.lock().1.get(vb.index()).copied()
    }
}

/// The view engine for one bucket on one node.
pub struct ViewEngine {
    engine: Arc<DataEngine>,
    ddocs: OrderedRwLock<HashMap<String, Arc<DesignDocIndex>>>,
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
        let views = ddoc
            .views
            .into_iter()
            .map(|(name, def)| {
                let reducer = def.reduce.unwrap_or(Reducer::Count);
                (name, ViewState { def, tree: ViewBTree::new(reducer), emitted: HashMap::new() })
            })
            .collect();
        let indexed = (views, vec![SeqNo::ZERO; n]);
        map.insert(
            ddoc.name,
            Arc::new(DesignDocIndex {
                pass: OrderedMutex::new(rank::VIEWS_DDOC_PASS, ()),
                indexed: OrderedMutex::new(rank::VIEWS_DDOC_VIEWS, indexed),
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

    /// A design document, as a DCP sink.
    pub fn ddoc(&self, name: &str) -> Result<Arc<DesignDocIndex>> {
        self.ddocs
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::View(format!("no such design doc: {name}")))
    }

    /// Bring every view of a design doc up to the current key-value
    /// document set of the vBuckets this node holds `Active` — the ones its
    /// queries serve (the incremental view update pass): a [`catch_up`] of
    /// those whose high seqno has moved past the resume point. Returns the
    /// number of items applied.
    pub fn update(&self, ddoc_name: &str) -> Result<usize> {
        let _s = span("views.engine.update");
        let state = self.ddoc(ddoc_name)?;
        let _pass = state.pass.lock();
        let behind = |vb: &VbId| {
            self.engine.vb_state(*vb) == VbState::Active
                && state.resume_point(*vb).is_some_and(|at| self.engine.high_seqno(*vb) > at)
        };
        let vbs: Vec<VbId> =
            (0..self.engine.config().num_vbuckets).map(VbId).filter(behind).collect();
        // Spelled out rather than `&*self.engine`, so the static lock-order
        // gate sees the backfill under the pass lock.
        let snapshot = |vb: VbId, since: SeqNo| self.engine.backfill(vb, since);
        let applied =
            catch_up(&snapshot, state.as_ref(), vbs, 0)?.iter().map(|&(.., items)| items).sum();
        self.items_indexed.add(applied as u64);
        Ok(applied)
    }

    /// Query a view (§3.1.2 semantics, including the `stale` parameter).
    /// `stale=false` updates first; `update_after` answers first, then
    /// updates on the caller's thread.
    pub fn query(&self, ddoc_name: &str, view_name: &str, q: &ViewQuery) -> Result<ViewResult> {
        let _s = span("views.engine.query");
        self.queries.inc();
        if q.stale == Stale::False {
            self.update(ddoc_name)?;
        }
        let result = self.query_current(ddoc_name, view_name, q)?;
        if q.stale == Stale::UpdateAfter {
            self.update(ddoc_name)?;
        }
        Ok(result)
    }

    fn query_current(&self, ddoc_name: &str, view_name: &str, q: &ViewQuery) -> Result<ViewResult> {
        let state = self.ddoc(ddoc_name)?;
        let indexed = state.indexed.lock();
        let view = indexed
            .0
            .get(view_name)
            .ok_or_else(|| Error::View(format!("no such view: {view_name} in {ddoc_name}")))?;

        // Only serve entries from vBuckets active on this node: "parts of a
        // B-tree can be deactivated as needed [to] maintain consistency when
        // querying a view index during rebalancing or failover" (§4.3.3).
        let vbs = 0..self.engine.config().num_vbuckets;
        let active: Vec<bool> =
            vbs.map(|vb| self.engine.vb_state(VbId(vb)) == VbState::Active).collect();
        let filter = (!active.iter().all(|a| *a)).then_some(&active[..]);

        let entries: Vec<ViewEntry> = if q.keys.is_empty() {
            view.tree.scan(&q.range, filter)
        } else {
            let exact = |k: &Value| view.tree.scan(&KeyRange::exact(k.clone()), filter);
            q.keys.iter().flat_map(exact).collect()
        };
        let total_rows = view.tree.len();

        if q.reduce {
            let reducer = view
                .def
                .reduce
                .ok_or_else(|| Error::View(format!("view {view_name} has no reduce function")))?;
            if q.group {
                // Group by distinct key, in key order.
                let same_key =
                    |a: &ViewEntry, b: &ViewEntry| cbs_json::cmp_values(&a.key, &b.key).is_eq();
                let group = |g: &[ViewEntry]| {
                    let acc = g.iter().map(|e| reducer.of_value(&e.value));
                    let value = acc.fold(reducer.empty(), Reduction::combine).to_value();
                    ViewRow { id: None, key: g[0].key.clone(), value }
                };
                let rows = entries.chunk_by(same_key).map(group).collect();
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
        let ve = profiles(&e);
        (e, ve)
    }

    /// A view engine on `e` with the `profiles` design document.
    fn profiles(e: &Arc<DataEngine>) -> ViewEngine {
        let ve = ViewEngine::new(Arc::clone(e));
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
        ve
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
            let item = DcpItem::mutation(vb, format!("r{}", vb.0), meta, doc);
            e.apply(&[item], &[(vb, meta.seqno)]).unwrap();
        }
    }

    /// Documents a warm-up loads are published on no hub, and no vBucket
    /// state changes after it: `stale=false` indexes them anyway, because
    /// an update reads each vBucket's high seqno, not a feed.
    #[test]
    fn stale_false_after_a_warm_up_indexes_every_warmed_up_document() {
        let cfg = EngineConfig::for_test(16);
        let before_restart = DataEngine::new(cfg.clone()).unwrap();
        before_restart.activate_all();
        for i in 0..40 {
            put(&before_restart, &format!("u{i}"), "Alice", 30);
        }
        before_restart.flush_once().unwrap();
        drop(before_restart);
        let e = DataEngine::new(cfg).unwrap();
        e.activate_all();
        let ve = profiles(&e);
        for vb in (0..16).map(VbId) {
            e.recover_vb(vb).unwrap();
        }
        let warmed = e.seqno_vector().iter().filter(|high| **high > SeqNo::ZERO).count();
        assert!(warmed > 8, "only {warmed} vBuckets warmed up");
        let q = ViewQuery { stale: Stale::False, ..Default::default() };
        assert_eq!(ve.query("profiles", "by_name", &q).unwrap().rows.len(), 40);
    }

    /// A design document holds cursors, not a subscription: nothing is
    /// queued for it between queries, and one `stale=false` query indexes
    /// exactly what a view engine created afterwards builds from zero.
    #[test]
    fn a_design_doc_nobody_queries_holds_nothing() {
        let (e, ve) = setup();
        for vb in (0..16).map(VbId) {
            assert_eq!(e.hub().subscriber_count(vb), 0, "{vb:?}");
        }
        for i in 0..10_000 {
            put(&e, &format!("u{}", i % 3_000), &format!("n{}", i % 700), i);
        }
        for i in (0..3_000).step_by(7) {
            e.delete(&format!("u{i}"), Cas::WILDCARD).unwrap();
        }
        let q = ViewQuery { stale: Stale::False, ..Default::default() };
        let rows = ve.query("profiles", "by_name", &q).unwrap().rows;
        assert_eq!(rows, profiles(&e).query("profiles", "by_name", &q).unwrap().rows);
        assert_eq!(rows.len(), 3_000 - 3_000usize.div_ceil(7));
    }

    /// Copies demoted, fed replica applies and promoted again with no view
    /// update or query in between: their high seqnos moved past the
    /// cursors, so the update indexes what they took as replicas.
    #[test]
    fn vbuckets_demoted_and_promoted_between_two_updates_are_followed() {
        let (e, ve) = setup();
        put(&e, "u1", "Alice", 30);
        replica_applies_elsewhere(&e, e.vb_for_key("u1"));
        e.activate_all();
        ve.update("profiles").unwrap();
        let q = ViewQuery { stale: Stale::Ok, ..Default::default() };
        let res = ve.query("profiles", "by_name", &q).unwrap();
        assert_eq!(res.rows.len(), 16, "one document per vBucket, promoted ones included");
    }

    /// Copies promoted after taking replica applies are backfilled from the
    /// cursors, so the update indexes what they took as replicas.
    #[test]
    fn promoted_vbuckets_are_indexed_from_their_replica_applies() {
        let (e, ve) = setup();
        put(&e, "u1", "Alice", 30);
        replica_applies_elsewhere(&e, e.vb_for_key("u1"));
        assert_eq!(ve.update("profiles").unwrap(), 1, "follows the one active vBucket");
        e.activate_all();
        ve.update("profiles").unwrap();
        let res = ve.query("profiles", "by_name", &ViewQuery::default()).unwrap();
        assert_eq!(res.rows.len(), 16, "one document per vBucket, promoted ones included");
        // A later write is applied once: the other vBuckets are unchanged
        // and skipped.
        put(&e, "u2", "Bob", 40);
        assert_eq!(ve.update("profiles").unwrap(), 1);
    }

    /// Replica copies that advance after the design document was created are
    /// not indexed: the update reads only the vBuckets this node holds
    /// active — the ones its queries serve.
    #[test]
    fn replica_applies_are_not_indexed() {
        let (e, ve) = setup();
        put(&e, "u1", "Alice", 30);
        replica_applies_elsewhere(&e, e.vb_for_key("u1"));
        assert_eq!(ve.update("profiles").unwrap(), 1);
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
    fn stale_update_after_answers_then_updates() {
        let (e, ve) = setup();
        put(&e, "u1", "Alice", 30);
        let q = ViewQuery { stale: Stale::UpdateAfter, ..Default::default() };
        let first = ve.query("profiles", "by_name", &q).unwrap();
        assert_eq!(first.rows.len(), 0, "first query sees the unbuilt index");
        let q = ViewQuery { stale: Stale::Ok, ..Default::default() };
        assert_eq!(ve.query("profiles", "by_name", &q).unwrap().rows.len(), 1);
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
