//! The prepared-statement registry and the invalidation-aware plan cache.
//!
//! Hot queries skip the lexer, parser and planner entirely: the cache maps
//! statement text → [`QueryPlan`], sharded to keep contention off the
//! multi-threaded query path. Correctness comes from *epochs*: every
//! keyspace has a monotonically increasing version stamp, bumped on
//! CREATE/DROP/BUILD INDEX and keyspace lifecycle changes. A cached plan
//! records the epochs of every keyspace it depends on; `bump_epoch`
//! eagerly evicts dependents, and lookup re-checks the stamps as
//! belt-and-braces, so a plan scanning a dropped index can never be served.
//!
//! `PREPARE <name> FROM <stmt>` registers the statement text under a name;
//! `EXECUTE <name>` resolves the name and rides the same text-keyed cache,
//! which means DDL invalidation covers prepared plans for free — an
//! EXECUTE after DROP INDEX re-plans instead of scanning a dead index.
//! Prepared entries also carry usage counters for `system:prepareds`.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cbs_common::sync::{rank, OrderedMutex, OrderedRwLock};
use cbs_json::Value;
use cbs_obs::{Counter, Gauge, Registry};

use crate::plan::QueryPlan;

/// Shards: enough to spread 8–32 query threads, small enough to sweep.
const SHARDS: usize = 8;
/// Per-shard entry cap; the whole cache holds at most `SHARDS *
/// SHARD_CAP` plans.
const SHARD_CAP: usize = 256;

struct CacheEntry {
    plan: Arc<QueryPlan>,
    /// (keyspace, epoch at insert) — stale stamps mean the entry is dead.
    deps: Vec<(String, u64)>,
}

/// One prepared statement: the text it expands to plus usage accounting
/// for `system:prepareds`.
#[derive(Debug)]
pub struct PreparedEntry {
    /// Prepared-statement name.
    pub name: String,
    /// The statement text it was prepared from.
    pub statement: String,
    uses: AtomicU64,
    total_nanos: AtomicU64,
    last_use_unix: AtomicU64,
}

impl PreparedEntry {
    /// Times this prepared statement has been executed.
    pub fn uses(&self) -> u64 {
        self.uses.load(Ordering::Relaxed)
    }

    /// Mean execution time across all uses.
    pub fn avg_elapsed(&self) -> Duration {
        self.total_nanos
            .load(Ordering::Relaxed)
            .checked_div(self.uses())
            .map(Duration::from_nanos)
            .unwrap_or(Duration::ZERO)
    }

    /// Unix timestamp (seconds) of the last EXECUTE, 0 when never used.
    pub fn last_use_unix(&self) -> u64 {
        self.last_use_unix.load(Ordering::Relaxed)
    }

    /// Record one execution.
    pub fn record_use(&self, elapsed: Duration) {
        self.uses.fetch_add(1, Ordering::Relaxed);
        self.total_nanos
            .fetch_add(elapsed.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
        self.last_use_unix.store(cbs_common::time::now_unix_secs() as u64, Ordering::Relaxed);
    }

    /// The row this entry contributes to `system:prepareds`.
    pub fn to_value(&self) -> Value {
        Value::object([
            ("name", Value::from(self.name.as_str())),
            ("statement", Value::from(self.statement.as_str())),
            ("uses", Value::from(self.uses() as usize)),
            ("avgElapsedTime", Value::from(format!("{:?}", self.avg_elapsed()))),
            ("lastUse", Value::from(self.last_use_unix() as usize)),
        ])
    }
}

/// The per-query-service plan cache (shared by every query node in a
/// cluster, like the query registry).
pub struct PlanCache {
    shards: Vec<OrderedMutex<HashMap<String, CacheEntry>>>,
    epochs: OrderedRwLock<HashMap<String, u64>>,
    prepared: OrderedRwLock<HashMap<String, Arc<PreparedEntry>>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    invalidations: Arc<Counter>,
    entries_gauge: Arc<Gauge>,
    /// The registry hosting this cache's metrics — also its flight
    /// recorder: epoch bumps land as `n1ql.events.plancache_invalidation`
    /// rows (DESIGN.md §17).
    registry: Arc<Registry>,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache").field("entries", &self.entries()).finish()
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl PlanCache {
    /// A cache owning its own metrics registry (tests, MemoryDatastore).
    pub fn new() -> PlanCache {
        PlanCache::with_registry(&Arc::new(Registry::new("n1ql")))
    }

    /// A cache registering its `n1ql.plancache.*` metrics on an existing
    /// registry (the cluster's query registry, so they surface in
    /// `ClusterStats` and cbstats).
    pub fn with_registry(registry: &Arc<Registry>) -> PlanCache {
        PlanCache {
            shards: (0..SHARDS)
                .map(|_| OrderedMutex::new(rank::N1QL_PLAN_SHARD, HashMap::new()))
                .collect(),
            epochs: OrderedRwLock::new(rank::N1QL_PLAN_EPOCHS, HashMap::new()),
            prepared: OrderedRwLock::new(rank::N1QL_PREPARED, HashMap::new()),
            hits: registry
                .counter_with_help("n1ql.plancache.hits", "plan-cache lookups served cached"),
            misses: registry
                .counter_with_help("n1ql.plancache.misses", "plan-cache lookups that re-planned"),
            invalidations: registry.counter_with_help(
                "n1ql.plancache.invalidations",
                "cached plans evicted by DDL/keyspace epoch bumps",
            ),
            entries_gauge: registry
                .gauge_with_help("n1ql.plancache.entries", "plans currently cached"),
            registry: Arc::clone(registry),
        }
    }

    fn shard(&self, text: &str) -> &OrderedMutex<HashMap<String, CacheEntry>> {
        let mut h = DefaultHasher::new();
        text.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Current epoch of a keyspace (0 until first bumped).
    fn epoch(&self, keyspace: &str) -> u64 {
        self.epochs.read().get(keyspace).copied().unwrap_or(0)
    }

    /// Snapshot of every keyspace epoch. Take this *before* planning
    /// starts and pass it to [`insert`](Self::insert): a DDL landing
    /// between plan construction and insert then leaves the entry with a
    /// pre-DDL stamp, so it is rejected (at insert or by lookup's
    /// re-check) instead of being laundered into the cache with a
    /// post-DDL stamp while referencing dropped topology. Keyspaces
    /// absent from the snapshot were at epoch 0.
    pub fn epoch_snapshot(&self) -> HashMap<String, u64> {
        self.epochs.read().clone()
    }

    /// Advance a keyspace's epoch and eagerly evict every cached plan that
    /// depends on it. Call after CREATE/DROP/BUILD INDEX or any keyspace
    /// lifecycle change (creation, flush).
    pub fn bump_epoch(&self, keyspace: &str) {
        *self.epochs.write().entry(keyspace.to_string()).or_insert(0) += 1;
        let mut evicted = 0u64;
        for shard in &self.shards {
            let mut map = shard.lock();
            let before = map.len();
            map.retain(|_, e| e.deps.iter().all(|(ks, _)| ks != keyspace));
            evicted += (before - map.len()) as u64;
        }
        if evicted > 0 {
            self.invalidations.add(evicted);
        }
        // Flight-recorder row: epoch bumps are rare lifecycle events (DDL,
        // bucket create/flush) an operator wants on the postmortem timeline.
        self.registry.record_event(
            "n1ql.events.plancache_invalidation",
            &[("keyspace", keyspace.to_string()), ("evicted", evicted.to_string())],
        );
        self.update_entries_gauge();
    }

    /// Look up a cached plan by statement text. A stale entry (any dep
    /// epoch moved since insert) is evicted and reported as a miss.
    pub fn lookup(&self, text: &str) -> Option<Arc<QueryPlan>> {
        let mut map = self.shard(text).lock();
        let stale = match map.get(text) {
            None => {
                self.misses.inc();
                return None;
            }
            Some(e) => e.deps.iter().any(|(ks, epoch)| self.epoch(ks) != *epoch),
        };
        if stale {
            map.remove(text);
            drop(map);
            self.invalidations.inc();
            self.misses.inc();
            self.update_entries_gauge();
            return None;
        }
        self.hits.inc();
        map.get(text).map(|e| Arc::clone(&e.plan))
    }

    /// Cache a plan under its statement text, stamping every keyspace in
    /// `deps` with its epoch from `at_plan` — the [`epoch_snapshot`]
    /// taken before planning began (see there for the race this closes).
    /// A plan whose dependencies have already moved past their snapshot
    /// was built against superseded topology and is dropped rather than
    /// cached; the same condition racing this check is caught by
    /// lookup's stamp re-check. Full shards evict an arbitrary entry.
    ///
    /// [`epoch_snapshot`]: Self::epoch_snapshot
    pub fn insert(
        &self,
        text: &str,
        plan: Arc<QueryPlan>,
        deps: Vec<String>,
        at_plan: &HashMap<String, u64>,
    ) {
        let stamped: Vec<(String, u64)> = deps
            .into_iter()
            .map(|ks| {
                let epoch = at_plan.get(&ks).copied().unwrap_or(0);
                (ks, epoch)
            })
            .collect();
        if stamped.iter().any(|(ks, epoch)| self.epoch(ks) != *epoch) {
            return;
        }
        let mut map = self.shard(text).lock();
        if map.len() >= SHARD_CAP && !map.contains_key(text) {
            if let Some(victim) = map.keys().next().cloned() {
                map.remove(&victim);
            }
        }
        map.insert(text.to_string(), CacheEntry { plan, deps: stamped });
        drop(map);
        self.update_entries_gauge();
    }

    /// Register (or replace) a prepared statement.
    pub fn prepare(&self, name: &str, statement: &str) -> Arc<PreparedEntry> {
        let entry = Arc::new(PreparedEntry {
            name: name.to_string(),
            statement: statement.to_string(),
            uses: AtomicU64::new(0),
            total_nanos: AtomicU64::new(0),
            last_use_unix: AtomicU64::new(0),
        });
        self.prepared.write().insert(name.to_string(), Arc::clone(&entry));
        entry
    }

    /// Resolve a prepared statement by name.
    pub fn get_prepared(&self, name: &str) -> Option<Arc<PreparedEntry>> {
        self.prepared.read().get(name).cloned()
    }

    /// `system:prepareds` rows, keyed by prepared-statement name.
    pub fn prepared_rows(&self) -> Vec<(String, Value)> {
        let map = self.prepared.read();
        let mut rows: Vec<(String, Value)> =
            map.iter().map(|(k, e)| (k.clone(), e.to_value())).collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// Plans currently cached.
    pub fn entries(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Cache hits served so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Plans evicted by epoch bumps / stale detection.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.get()
    }

    fn update_entries_gauge(&self) {
        self.entries_gauge.set(self.entries() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;

    fn direct_plan() -> Arc<QueryPlan> {
        Arc::new(QueryPlan::Direct(Statement::DropIndex {
            keyspace: "b".to_string(),
            name: "i".to_string(),
        }))
    }

    #[test]
    fn hit_miss_and_metrics() {
        let c = PlanCache::new();
        assert!(c.lookup("SELECT 1").is_none());
        assert_eq!(c.misses(), 1);
        c.insert("SELECT 1", direct_plan(), vec!["b".to_string()], &c.epoch_snapshot());
        assert!(c.lookup("SELECT 1").is_some());
        assert_eq!(c.hits(), 1);
        assert_eq!(c.entries(), 1);
    }

    #[test]
    fn bump_epoch_evicts_dependents() {
        let c = PlanCache::new();
        c.insert("q1", direct_plan(), vec!["b".to_string()], &c.epoch_snapshot());
        c.insert("q2", direct_plan(), vec!["other".to_string()], &c.epoch_snapshot());
        c.bump_epoch("b");
        assert!(c.lookup("q1").is_none(), "dependent plan evicted");
        assert!(c.lookup("q2").is_some(), "unrelated plan survives");
        assert_eq!(c.invalidations(), 1);
    }

    #[test]
    fn stale_epoch_detected_at_lookup() {
        let c = PlanCache::new();
        c.insert("q", direct_plan(), vec!["b".to_string()], &c.epoch_snapshot());
        c.bump_epoch("unrelated");
        assert!(c.lookup("q").is_some(), "unrelated epoch bump leaves the plan alone");
        c.bump_epoch("b");
        c.insert("q3", direct_plan(), vec!["b".to_string()], &c.epoch_snapshot());
        assert!(c.lookup("q3").is_some(), "fresh stamp at new epoch is valid");
    }

    #[test]
    fn ddl_racing_the_planner_is_not_cached() {
        let c = PlanCache::new();
        // The planner snapshots epochs, then a DROP INDEX lands while the
        // plan is being built. The plan references dropped topology; the
        // pre-plan stamp makes insert refuse it rather than caching it
        // as valid under the post-DDL epoch.
        let at_plan = c.epoch_snapshot();
        c.bump_epoch("b");
        c.insert("q", direct_plan(), vec!["b".to_string()], &at_plan);
        assert!(c.lookup("q").is_none(), "plan built against superseded topology must not serve");
        assert_eq!(c.entries(), 0);
    }

    #[test]
    fn shard_cap_bounds_entries() {
        let c = PlanCache::new();
        let snap = c.epoch_snapshot();
        for i in 0..(SHARDS * SHARD_CAP * 2) {
            c.insert(&format!("q{i}"), direct_plan(), Vec::new(), &snap);
        }
        assert!(c.entries() <= SHARDS * SHARD_CAP);
    }

    #[test]
    fn prepared_registry_and_rows() {
        let c = PlanCache::new();
        c.prepare("scan", "SELECT meta().id FROM b");
        let e = c.get_prepared("scan").unwrap();
        assert_eq!(e.uses(), 0);
        e.record_use(Duration::from_millis(2));
        e.record_use(Duration::from_millis(4));
        assert_eq!(e.uses(), 2);
        assert_eq!(e.avg_elapsed(), Duration::from_millis(3));
        assert!(e.last_use_unix() > 0);
        let rows = c.prepared_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1.get_field("uses").and_then(|v| v.as_i64()), Some(2));
        // Re-preparing replaces (fresh counters).
        c.prepare("scan", "SELECT meta().id FROM b");
        assert_eq!(c.get_prepared("scan").unwrap().uses(), 0);
        assert!(c.get_prepared("nope").is_none());
    }
}
