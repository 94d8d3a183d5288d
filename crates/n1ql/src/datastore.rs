//! The executor's view of the rest of the system.
//!
//! §4.5.1: "the query service issues all key-value access requests (unless
//! a covering index can fully answer the query). An index simply returns
//! the document ID for each attribute match found during index scans. This
//! ID is then used by the query service to fetch the document itself."
//!
//! [`Datastore`] is that boundary: document fetch and DML on the data
//! service side, index DDL and scans on the index service side, and the
//! query service's own request log and plan cache. Every keyspace read is
//! an index scan followed by fetches; only the `system:` catalogs are
//! handed over whole. [`SYSTEM_CATALOGS`] is the one list of their names:
//! the parser folds `system:<name>` into one keyspace name, the planner
//! resolves it against this list (an unlisted name is no keyspace, and
//! every catalog is read-only), and the executor serves
//! `completed_requests`, `active_requests` and `prepareds` from the
//! request log and plan cache and hands every other catalog to
//! [`Datastore::system_scan`]. The cluster facade (`cbs-cluster`'s
//! `ClusterDatastore`) implements the trait over real services;
//! [`MemoryDatastore`] is a faithful single-process implementation for
//! tests.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use cbs_common::sync::{rank, OrderedRwLock};
use cbs_common::{Error, Result, SeqNo};
use cbs_index::{
    IndexCardinality, IndexDef, IndexEntry, IndexKey, Projector, ScanConsistency, ScanRange,
};
use cbs_json::Value;

use crate::cache::PlanCache;
use crate::profile::RequestLog;

/// What the cost-based planner prices access paths with: a keyspace's
/// live document count and the cardinality of each online index. It is
/// read from the datastore each time a statement is planned.
#[derive(Debug, Clone, Default)]
pub struct KeyspaceStats {
    /// Live document count.
    pub doc_count: u64,
    /// One entry per online index: its name and cardinality.
    pub indexes: Vec<(String, IndexCardinality)>,
}

impl KeyspaceStats {
    /// The cardinality of a named index, when known.
    pub fn index(&self, name: &str) -> Option<&IndexCardinality> {
        self.indexes.iter().find(|(n, _)| n == name).map(|(_, card)| card)
    }
}

/// Abstract data + index access for the query engine.
pub trait Datastore: Send + Sync {
    /// Does a keyspace (bucket) exist?
    fn keyspace_exists(&self, keyspace: &str) -> bool;

    /// Fetch one document by primary key (the Fetch operator).
    fn fetch(&self, keyspace: &str, key: &str) -> Result<Option<Value>>;

    /// INSERT semantics (error on existing key).
    fn insert(&self, keyspace: &str, key: &str, value: Value) -> Result<()>;

    /// UPSERT semantics.
    fn upsert(&self, keyspace: &str, key: &str, value: Value) -> Result<()>;

    /// Replace an existing document (UPDATE write-back).
    fn replace(&self, keyspace: &str, key: &str, value: Value) -> Result<()>;

    /// DELETE by key.
    fn delete(&self, keyspace: &str, key: &str) -> Result<()>;

    /// The per-vBucket high-seqno vector, snapshotted at query admission
    /// for `request_plus` (§3.2.3/§4.2).
    fn seqno_vector(&self, keyspace: &str) -> Vec<SeqNo>;

    /// All online (scannable) index definitions for a keyspace.
    fn list_indexes(&self, keyspace: &str) -> Vec<IndexDef>;

    /// Range scan over an online index.
    fn index_scan(
        &self,
        keyspace: &str,
        index: &str,
        range: &ScanRange,
        consistency: &ScanConsistency,
        timeout: Duration,
        limit: usize,
    ) -> Result<Vec<IndexEntry>>;

    /// CREATE INDEX (built immediately unless deferred).
    fn create_index(&self, def: IndexDef) -> Result<()>;

    /// DROP INDEX.
    fn drop_index(&self, keyspace: &str, name: &str) -> Result<()>;

    /// BUILD INDEX for deferred definitions.
    fn build_index(&self, keyspace: &str, name: &str) -> Result<()>;

    /// The `(key, document)` rows of a `system:` catalog — an entry of
    /// [`SYSTEM_CATALOGS`] other than the three the executor serves from
    /// [`Datastore::request_log`] and [`Datastore::plan_cache`] — backed
    /// live by service state. A catalog the datastore has no service for
    /// has no rows.
    fn system_scan(&self, catalog: &str) -> Result<Vec<(String, Value)>>;

    /// The trace sink requests are recorded on: [`crate::query`] opens
    /// each request's root span (`n1ql.query.request`) here and rolls the
    /// spans recorded under it up into [`crate::PhaseTimes`].
    fn trace_sink(&self) -> &cbs_obs::TraceSink;

    /// The query service's request log. The query pipeline admits/retires
    /// every request through it, feeding `system:completed_requests` and
    /// `system:active_requests`.
    fn request_log(&self) -> &RequestLog;

    /// The prepared-statement registry (PREPARE/EXECUTE, DDL's plan
    /// invalidation, `system:prepareds`).
    fn plan_cache(&self) -> &PlanCache;

    /// Keyspace statistics for the cost-based planner (doc count, per-
    /// index cardinality), as of now. A `doc_count` of 0 means nothing has
    /// counted the keyspace: the planner prices it as one document with
    /// its default selectivities.
    fn keyspace_stats(&self, keyspace: &str) -> KeyspaceStats;
}

/// Every `system:` catalog keyspace: the one list of their names.
pub const SYSTEM_CATALOGS: [&str; 11] = [
    "system:completed_requests",
    "system:active_requests",
    "system:prepareds",
    "system:transactions",
    "system:indexes",
    "system:keyspaces",
    "system:nodes",
    "system:replication",
    "system:staleness",
    "system:completed_traces",
    "system:events",
];

/// One `system:indexes` row; `state` is `online`, `building` or `deferred`.
/// Every datastore shapes its catalog rows through this and the two
/// functions below, so a catalog has one set of fields.
pub fn index_row(keyspace: &str, def: &IndexDef, state: &str) -> (String, Value) {
    (
        format!("{keyspace}/{}", def.name),
        Value::object([
            ("name", Value::from(def.name.as_str())),
            ("keyspace", Value::from(keyspace)),
            ("isPrimary", Value::Bool(def.primary)),
            ("state", Value::from(state)),
            ("using", Value::from("gsi")),
        ]),
    )
}

/// One `system:keyspaces` row; `count` is the number of live documents.
pub fn keyspace_row(name: &str, count: usize) -> (String, Value) {
    (name.to_string(), Value::object([("name", Value::from(name)), ("count", Value::from(count))]))
}

/// One `system:nodes` row; `services` are the service names the node runs.
pub fn node_row(name: &str, alive: bool, services: &[&str]) -> (String, Value) {
    (
        name.to_string(),
        Value::object([
            ("name", Value::from(name)),
            ("alive", Value::Bool(alive)),
            ("services", Value::Array(services.iter().map(|s| Value::from(*s)).collect())),
        ]),
    )
}

#[derive(Default)]
struct MemKeyspace {
    docs: BTreeMap<String, Value>,
    indexes: Vec<(IndexDef, bool /* online */)>,
}

/// An in-memory [`Datastore`] for tests and examples: documents in
/// B-trees, index scans computed on the fly from the same [`IndexDef`]
/// projection logic the real index service uses. Carries its own
/// [`RequestLog`], [`PlanCache`] and trace store, so profiling,
/// `system:completed_requests` and friends work without a cluster.
pub struct MemoryDatastore {
    keyspaces: OrderedRwLock<BTreeMap<String, MemKeyspace>>,
    request_log: RequestLog,
    plan_cache: PlanCache,
    trace: cbs_obs::TraceSink,
}

impl Default for MemoryDatastore {
    fn default() -> Self {
        MemoryDatastore {
            keyspaces: OrderedRwLock::new(rank::N1QL_KEYSPACES, BTreeMap::new()),
            request_log: RequestLog::new("mem"),
            plan_cache: PlanCache::new(),
            trace: cbs_obs::TraceSink::new(cbs_obs::TraceStore::new(), "mem"),
        }
    }
}

impl MemoryDatastore {
    /// Empty datastore.
    pub fn new() -> MemoryDatastore {
        MemoryDatastore::default()
    }

    /// Create a keyspace (bucket).
    pub fn create_keyspace(&self, name: &str) {
        self.keyspaces.write().entry(name.to_string()).or_default();
    }

    /// Bulk-load documents.
    pub fn load(&self, keyspace: &str, docs: impl IntoIterator<Item = (String, Value)>) {
        let mut map = self.keyspaces.write();
        let ks = map.entry(keyspace.to_string()).or_default();
        for (k, v) in docs {
            ks.docs.insert(k, v);
        }
    }

    /// Number of documents.
    pub fn len(&self, keyspace: &str) -> usize {
        self.keyspaces.read().get(keyspace).map(|k| k.docs.len()).unwrap_or(0)
    }

    /// True if keyspace holds no documents.
    pub fn is_empty(&self, keyspace: &str) -> bool {
        self.len(keyspace) == 0
    }

    /// Drop every document in a keyspace (a bucket flush). Indexes stay
    /// defined; the keyspace epoch is bumped so prepared plans are
    /// invalidated.
    pub fn flush_keyspace(&self, keyspace: &str) -> Result<()> {
        let mut map = self.keyspaces.write();
        let ks = map
            .get_mut(keyspace)
            .ok_or_else(|| Error::Plan(format!("no such keyspace: {keyspace}")))?;
        ks.docs.clear();
        drop(map);
        self.plan_cache.bump_epoch(keyspace);
        Ok(())
    }
}

impl Datastore for MemoryDatastore {
    fn keyspace_exists(&self, keyspace: &str) -> bool {
        self.keyspaces.read().contains_key(keyspace)
    }

    fn fetch(&self, keyspace: &str, key: &str) -> Result<Option<Value>> {
        Ok(self
            .keyspaces
            .read()
            .get(keyspace)
            .ok_or_else(|| Error::Plan(format!("no such keyspace: {keyspace}")))?
            .docs
            .get(key)
            .cloned())
    }

    fn insert(&self, keyspace: &str, key: &str, value: Value) -> Result<()> {
        let mut map = self.keyspaces.write();
        let ks = map
            .get_mut(keyspace)
            .ok_or_else(|| Error::Plan(format!("no such keyspace: {keyspace}")))?;
        if ks.docs.contains_key(key) {
            return Err(Error::KeyExists(key.to_string()));
        }
        ks.docs.insert(key.to_string(), value);
        Ok(())
    }

    fn upsert(&self, keyspace: &str, key: &str, value: Value) -> Result<()> {
        let mut map = self.keyspaces.write();
        let ks = map
            .get_mut(keyspace)
            .ok_or_else(|| Error::Plan(format!("no such keyspace: {keyspace}")))?;
        ks.docs.insert(key.to_string(), value);
        Ok(())
    }

    fn replace(&self, keyspace: &str, key: &str, value: Value) -> Result<()> {
        let mut map = self.keyspaces.write();
        let ks = map
            .get_mut(keyspace)
            .ok_or_else(|| Error::Plan(format!("no such keyspace: {keyspace}")))?;
        if !ks.docs.contains_key(key) {
            return Err(Error::KeyNotFound(key.to_string()));
        }
        ks.docs.insert(key.to_string(), value);
        Ok(())
    }

    fn delete(&self, keyspace: &str, key: &str) -> Result<()> {
        let mut map = self.keyspaces.write();
        let ks = map
            .get_mut(keyspace)
            .ok_or_else(|| Error::Plan(format!("no such keyspace: {keyspace}")))?;
        ks.docs.remove(key).map(|_| ()).ok_or_else(|| Error::KeyNotFound(key.to_string()))
    }

    fn seqno_vector(&self, _keyspace: &str) -> Vec<SeqNo> {
        Vec::new()
    }

    fn list_indexes(&self, keyspace: &str) -> Vec<IndexDef> {
        self.keyspaces
            .read()
            .get(keyspace)
            .map(|ks| {
                ks.indexes.iter().filter(|(_, online)| *online).map(|(d, _)| d.clone()).collect()
            })
            .unwrap_or_default()
    }

    fn index_scan(
        &self,
        keyspace: &str,
        index: &str,
        range: &ScanRange,
        _consistency: &ScanConsistency,
        _timeout: Duration,
        limit: usize,
    ) -> Result<Vec<IndexEntry>> {
        let map = self.keyspaces.read();
        let ks = map
            .get(keyspace)
            .ok_or_else(|| Error::Plan(format!("no such keyspace: {keyspace}")))?;
        let (def, online) = ks
            .indexes
            .iter()
            .find(|(d, _)| d.name == index)
            .ok_or_else(|| Error::Index(format!("no such index: {index}")))?;
        if !online {
            return Err(Error::Index(format!("index {index} is not online")));
        }
        let mut entries = Vec::new();
        for (doc_id, doc) in &ks.docs {
            for key in Projector::keys_for(def, doc_id, doc) {
                // An index over the id alone returns its entries without a
                // key, as the GSI does: the id is the key.
                let inside = if key == IndexKey::ID {
                    range.contains_id(doc_id)
                } else {
                    key.leading().is_some_and(|lead| range.contains(lead))
                };
                if inside {
                    entries.push(IndexEntry { key, doc_id: doc_id.as_str().into() });
                }
            }
        }
        entries.sort_by(|a, b| a.key.cmp(&b.key).then_with(|| a.doc_id.cmp(&b.doc_id)));
        if limit > 0 && entries.len() > limit {
            entries.truncate(limit);
        }
        Ok(entries)
    }

    fn create_index(&self, def: IndexDef) -> Result<()> {
        let mut map = self.keyspaces.write();
        let ks = map
            .get_mut(&def.keyspace)
            .ok_or_else(|| Error::Plan(format!("no such keyspace: {}", def.keyspace)))?;
        if ks.indexes.iter().any(|(d, _)| d.name == def.name) {
            return Err(Error::Index(format!("index {} already exists", def.name)));
        }
        let online = !def.deferred;
        ks.indexes.push((def, online));
        Ok(())
    }

    fn drop_index(&self, keyspace: &str, name: &str) -> Result<()> {
        let mut map = self.keyspaces.write();
        let ks = map
            .get_mut(keyspace)
            .ok_or_else(|| Error::Plan(format!("no such keyspace: {keyspace}")))?;
        let before = ks.indexes.len();
        ks.indexes.retain(|(d, _)| d.name != name);
        if ks.indexes.len() == before {
            return Err(Error::Index(format!("no such index: {name}")));
        }
        Ok(())
    }

    fn build_index(&self, keyspace: &str, name: &str) -> Result<()> {
        let mut map = self.keyspaces.write();
        let ks = map
            .get_mut(keyspace)
            .ok_or_else(|| Error::Plan(format!("no such keyspace: {keyspace}")))?;
        for (d, online) in ks.indexes.iter_mut() {
            if d.name == name {
                *online = true;
                return Ok(());
            }
        }
        Err(Error::Index(format!("no such index: {name}")))
    }

    fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// Projects every online index over the live documents. An unknown
    /// keyspace counts nothing.
    fn keyspace_stats(&self, keyspace: &str) -> KeyspaceStats {
        let map = self.keyspaces.read();
        let Some(ks) = map.get(keyspace) else { return KeyspaceStats::default() };
        let mut indexes = Vec::new();
        for (def, online) in &ks.indexes {
            if !*online {
                continue;
            }
            let mut entries = 0u64;
            let mut distinct = BTreeSet::new();
            for (doc_id, doc) in &ks.docs {
                for key in Projector::keys_for(def, doc_id, doc) {
                    // An index over the id alone counts and bounds ids.
                    let key = if key == IndexKey::ID {
                        IndexKey(vec![Some(Value::from(doc_id.as_str()))])
                    } else {
                        key
                    };
                    entries += 1;
                    distinct.insert(key);
                }
            }
            // Keys sort by collation, so the first and last hold the
            // leading-key bounds.
            let leading = |key: Option<&IndexKey>| key.and_then(|k| k.leading().cloned());
            let card = IndexCardinality {
                entries,
                distinct_keys: distinct.len() as u64,
                min_leading: leading(distinct.first()),
                max_leading: leading(distinct.last()),
            };
            indexes.push((def.name.clone(), card));
        }
        KeyspaceStats { doc_count: ks.docs.len() as u64, indexes }
    }

    /// No cluster behind a memory datastore — no transactions,
    /// replication pumps, stitched traces or lifecycle events: those
    /// catalogs have no rows.
    fn system_scan(&self, catalog: &str) -> Result<Vec<(String, Value)>> {
        match catalog {
            "system:indexes" => {
                let map = self.keyspaces.read();
                let mut rows = Vec::new();
                for (ks_name, ks) in map.iter() {
                    for (def, online) in &ks.indexes {
                        rows.push(index_row(
                            ks_name,
                            def,
                            if *online { "online" } else { "deferred" },
                        ));
                    }
                }
                Ok(rows)
            }
            "system:keyspaces" => {
                let map = self.keyspaces.read();
                Ok(map.iter().map(|(name, ks)| keyspace_row(name, ks.docs.len())).collect())
            }
            "system:nodes" => Ok(vec![node_row("mem", true, &["n1ql"])]),
            _ => Ok(Vec::new()),
        }
    }

    fn trace_sink(&self) -> &cbs_obs::TraceSink {
        &self.trace
    }

    fn request_log(&self) -> &RequestLog {
        &self.request_log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crud() {
        let ds = MemoryDatastore::new();
        ds.create_keyspace("b");
        ds.insert("b", "k1", Value::int(1)).unwrap();
        assert!(ds.insert("b", "k1", Value::int(2)).is_err());
        ds.upsert("b", "k1", Value::int(2)).unwrap();
        assert_eq!(ds.fetch("b", "k1").unwrap(), Some(Value::int(2)));
        ds.replace("b", "k1", Value::int(3)).unwrap();
        assert!(ds.replace("b", "nope", Value::int(0)).is_err());
        ds.delete("b", "k1").unwrap();
        assert!(ds.delete("b", "k1").is_err());
        assert!(ds.fetch("nope", "k").is_err());
    }

    #[test]
    fn index_scan_projects_like_real_gsi() {
        let ds = MemoryDatastore::new();
        ds.create_keyspace("b");
        for i in 0..10i64 {
            ds.upsert("b", &format!("d{i}"), Value::object([("age", Value::int(20 + i))])).unwrap();
        }
        ds.create_index(IndexDef::simple("age", "b", "age")).unwrap();
        let rows = ds
            .index_scan(
                "b",
                "age",
                &ScanRange::at_least(Value::int(27)),
                &ScanConsistency::NotBounded,
                Duration::from_secs(1),
                0,
            )
            .unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].doc_id, "d7");
        // A primary index's entries are ids without a key, as in the GSI.
        ds.create_index(IndexDef::primary("#primary", "b")).unwrap();
        let range = ScanRange { low_inclusive: false, ..ScanRange::at_least(Value::from("d7")) };
        let consistency = ScanConsistency::NotBounded;
        let rows = ds.index_scan("b", "#primary", &range, &consistency, Duration::ZERO, 0).unwrap();
        let ids: Vec<&str> = rows.iter().map(|e| e.doc_id.as_str()).collect();
        assert_eq!(ids, ["d8", "d9"]);
        assert!(rows.iter().all(|e| e.key == IndexKey::ID));
    }

    #[test]
    fn deferred_index_needs_build() {
        let ds = MemoryDatastore::new();
        ds.create_keyspace("b");
        let def = IndexDef { deferred: true, ..IndexDef::simple("i", "b", "x") };
        ds.create_index(def).unwrap();
        assert!(ds.list_indexes("b").is_empty(), "deferred index not online");
        assert!(ds
            .index_scan(
                "b",
                "i",
                &ScanRange::all(),
                &ScanConsistency::NotBounded,
                Duration::from_secs(1),
                0
            )
            .is_err());
        ds.build_index("b", "i").unwrap();
        assert_eq!(ds.list_indexes("b").len(), 1);
    }
}
