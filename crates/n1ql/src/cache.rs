//! The prepared-statement registry: the one place a plan is kept.
//!
//! `PREPARE <name> FROM <stmt>` plans the statement once and stores the
//! plan on its [`PreparedEntry`]; `EXECUTE <name>` finds the entry by name
//! and runs that plan, skipping the lexer, parser and planner. Correctness
//! comes from *epochs*: every keyspace has a monotonically increasing
//! version stamp, bumped on CREATE/DROP/BUILD INDEX and keyspace lifecycle
//! changes. An entry records the epochs of every keyspace its plan depends
//! on; `bump_epoch` eagerly drops dependent plans, and EXECUTE re-checks
//! the stamps as belt-and-braces, so a plan scanning a dropped index can
//! never be served. An EXECUTE that finds no current plan re-plans from
//! the prepared text and stores the new plan on the entry.
//!
//! Ad-hoc statements are planned on every request and kept nowhere, so
//! they are always priced from current statistics. Entries also carry
//! usage counters for `system:prepareds`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cbs_common::sync::{rank, OrderedRwLock};
use cbs_common::Result;
use cbs_json::Value;
use cbs_obs::{Counter, Gauge, Registry};

use crate::plan::QueryPlan;

/// One prepared statement: the text it expands to, its plan, and usage
/// accounting for `system:prepareds`.
#[derive(Debug)]
pub struct PreparedEntry {
    /// Prepared-statement name.
    pub name: String,
    /// The statement text it was prepared from.
    pub statement: String,
    /// The plan EXECUTE runs; `None` once an epoch bump dropped it.
    plan: Option<Arc<QueryPlan>>,
    /// (keyspace, epoch before planning) for every keyspace the plan
    /// depends on — a stamp behind its epoch means the plan is dead.
    deps: Vec<(String, u64)>,
    /// Shared by every plan a re-plan stores under this name; only a
    /// re-PREPARE starts from zero.
    usage: Arc<Usage>,
}

#[derive(Debug, Default)]
struct Usage {
    uses: AtomicU64,
    total_nanos: AtomicU64,
    last_use_unix: AtomicU64,
}

impl PreparedEntry {
    /// An entry for `plan`, stamping every keyspace it depends on with
    /// its epoch from `at_plan`, the snapshot taken before planning began.
    fn planned(
        name: String,
        statement: String,
        plan: Arc<QueryPlan>,
        at_plan: &HashMap<String, u64>,
        usage: Arc<Usage>,
    ) -> PreparedEntry {
        let deps = plan
            .dependencies()
            .into_iter()
            .map(|ks| {
                let epoch = at_plan.get(&ks).copied().unwrap_or(0);
                (ks, epoch)
            })
            .collect();
        PreparedEntry { name, statement, plan: Some(plan), deps, usage }
    }

    /// Times this prepared statement has been executed.
    pub fn uses(&self) -> u64 {
        self.usage.uses.load(Ordering::Relaxed)
    }

    /// Mean execution time across all uses.
    pub fn avg_elapsed(&self) -> Duration {
        self.usage
            .total_nanos
            .load(Ordering::Relaxed)
            .checked_div(self.uses())
            .map(Duration::from_nanos)
            .unwrap_or(Duration::ZERO)
    }

    /// Unix timestamp (seconds) of the last EXECUTE, 0 when never used.
    pub fn last_use_unix(&self) -> u64 {
        self.usage.last_use_unix.load(Ordering::Relaxed)
    }

    /// Record one execution.
    pub fn record_use(&self, elapsed: Duration) {
        let usage = &self.usage;
        usage.uses.fetch_add(1, Ordering::Relaxed);
        usage
            .total_nanos
            .fetch_add(elapsed.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
        usage.last_use_unix.store(cbs_common::time::now_unix_secs() as u64, Ordering::Relaxed);
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

/// The per-query-service prepared-statement registry (shared by every
/// query node in a cluster, like the query registry).
pub struct PlanCache {
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
            epochs: OrderedRwLock::new(rank::N1QL_PLAN_EPOCHS, HashMap::new()),
            prepared: OrderedRwLock::new(rank::N1QL_PREPARED, HashMap::new()),
            hits: registry
                .counter_with_help("n1ql.plancache.hits", "EXECUTEs served by their prepared plan"),
            misses: registry.counter_with_help("n1ql.plancache.misses", "EXECUTEs that re-planned"),
            invalidations: registry.counter_with_help(
                "n1ql.plancache.invalidations",
                "prepared plans dropped by DDL/keyspace epoch bumps",
            ),
            entries_gauge: registry
                .gauge_with_help("n1ql.plancache.entries", "prepared statements holding a plan"),
            registry: Arc::clone(registry),
        }
    }

    /// Snapshot of every keyspace epoch, taken *before* planning starts:
    /// a DDL landing while the plan is built then leaves the entry with a
    /// pre-DDL stamp, which EXECUTE's re-check rejects, instead of a
    /// post-DDL stamp on a plan over dropped topology. Keyspaces absent
    /// from the snapshot were at epoch 0.
    fn epoch_snapshot(&self) -> HashMap<String, u64> {
        self.epochs.read().clone()
    }

    /// Advance a keyspace's epoch and eagerly drop every prepared plan
    /// that depends on it. Call after CREATE/DROP/BUILD INDEX or any
    /// keyspace lifecycle change (creation, flush).
    pub fn bump_epoch(&self, keyspace: &str) {
        let epoch = {
            let mut epochs = self.epochs.write();
            let epoch = epochs.entry(keyspace.to_string()).or_insert(0);
            *epoch += 1;
            *epoch
        };
        let mut evicted = 0u64;
        let mut map = self.prepared.write();
        for entry in map.values_mut() {
            // A stamp at `epoch` was planned after this bump: keep it.
            if entry.plan.is_some()
                && entry.deps.iter().any(|(ks, at)| ks == keyspace && *at < epoch)
            {
                *entry = Arc::new(PreparedEntry {
                    name: entry.name.clone(),
                    statement: entry.statement.clone(),
                    plan: None,
                    deps: Vec::new(),
                    usage: Arc::clone(&entry.usage),
                });
                evicted += 1;
            }
        }
        self.update_entries_gauge(&map);
        drop(map);
        if evicted > 0 {
            self.invalidations.add(evicted);
        }
        // Flight-recorder row: epoch bumps are rare lifecycle events (DDL,
        // bucket create/flush) an operator wants on the postmortem timeline.
        self.registry.record_event(
            "n1ql.events.plancache_invalidation",
            &[("keyspace", keyspace.to_string()), ("evicted", evicted.to_string())],
        );
    }

    /// Register (or replace, with fresh counters) a prepared statement.
    /// `plan` builds its plan after the epochs are snapshotted; an error
    /// registers nothing.
    pub(crate) fn prepare(
        &self,
        name: &str,
        statement: &str,
        plan: impl FnOnce() -> Result<Arc<QueryPlan>>,
    ) -> Result<Arc<QueryPlan>> {
        let at_plan = self.epoch_snapshot();
        let plan = plan()?;
        let entry = PreparedEntry::planned(
            name.to_string(),
            statement.to_string(),
            Arc::clone(&plan),
            &at_plan,
            Arc::default(),
        );
        let mut map = self.prepared.write();
        map.insert(name.to_string(), Arc::new(entry));
        self.update_entries_gauge(&map);
        Ok(plan)
    }

    /// Resolve a prepared statement by name.
    pub fn get_prepared(&self, name: &str) -> Option<Arc<PreparedEntry>> {
        self.prepared.read().get(name).cloned()
    }

    /// The plan EXECUTE runs for `entry`: its own while every stamp is
    /// current (a hit); otherwise one `replan` builds against the current
    /// topology after the epochs are snapshotted (a miss), stored on the
    /// entry unless a re-PREPARE or another re-plan replaced it meanwhile.
    pub(crate) fn plan_for(
        &self,
        entry: &Arc<PreparedEntry>,
        replan: impl FnOnce() -> Result<Arc<QueryPlan>>,
    ) -> Result<Arc<QueryPlan>> {
        if let Some(plan) = &entry.plan {
            let epochs = self.epochs.read();
            if entry.deps.iter().all(|(ks, at)| epochs.get(ks).copied().unwrap_or(0) == *at) {
                self.hits.inc();
                return Ok(Arc::clone(plan));
            }
        }
        self.misses.inc();
        let at_plan = self.epoch_snapshot();
        let plan = replan()?;
        let mut map = self.prepared.write();
        if let Some(slot) = map.get_mut(&entry.name).filter(|slot| Arc::ptr_eq(slot, entry)) {
            if entry.plan.is_some() {
                // Stale stamps that no bump dropped yet: this replaces them.
                self.invalidations.inc();
            }
            *slot = Arc::new(PreparedEntry::planned(
                entry.name.clone(),
                entry.statement.clone(),
                Arc::clone(&plan),
                &at_plan,
                Arc::clone(&entry.usage),
            ));
            self.update_entries_gauge(&map);
        }
        Ok(plan)
    }

    /// `system:prepareds` rows, keyed by prepared-statement name.
    pub fn prepared_rows(&self) -> Vec<(String, Value)> {
        let map = self.prepared.read();
        let mut rows: Vec<(String, Value)> =
            map.iter().map(|(k, e)| (k.clone(), e.to_value())).collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// Prepared statements holding a plan.
    pub fn entries(&self) -> usize {
        self.entries_gauge.get() as usize
    }

    /// EXECUTEs served by their prepared plan so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// EXECUTEs that re-planned so far.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Prepared plans dropped by epoch bumps or stale stamps.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.get()
    }

    fn update_entries_gauge(&self, map: &HashMap<String, Arc<PreparedEntry>>) {
        self.entries_gauge.set(map.values().filter(|e| e.plan.is_some()).count() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_plan, parse_statement, MemoryDatastore, QueryOptions};

    /// A SELECT plan that depends on keyspace `ks`.
    fn plan_over(ks: &str) -> Result<Arc<QueryPlan>> {
        let ds = MemoryDatastore::new();
        ds.create_keyspace(ks);
        let stmt = parse_statement(&format!("SELECT * FROM {ks} USE KEYS 'k'"))?;
        Ok(Arc::new(build_plan(&ds, &stmt, &QueryOptions::default())?))
    }

    fn no_replan() -> Result<Arc<QueryPlan>> {
        panic!("a current plan must not be rebuilt")
    }

    #[test]
    fn bump_epoch_drops_dependents_and_execute_replans() {
        let c = PlanCache::new();
        c.prepare("q1", "SELECT * FROM b", || plan_over("b")).unwrap();
        c.prepare("q2", "SELECT * FROM other", || plan_over("other")).unwrap();
        assert_eq!(c.entries(), 2);
        c.bump_epoch("b");
        assert_eq!((c.invalidations(), c.entries()), (1, 1), "only the unrelated plan survives");
        c.plan_for(&c.get_prepared("q2").unwrap(), no_replan).unwrap();

        c.plan_for(&c.get_prepared("q1").unwrap(), || plan_over("b")).unwrap();
        assert_eq!(c.entries(), 2, "the re-plan is stored on the entry");
        c.plan_for(&c.get_prepared("q1").unwrap(), no_replan).unwrap();
        assert_eq!((c.hits(), c.misses(), c.invalidations()), (2, 1, 1));
    }

    #[test]
    fn ddl_racing_the_planner_is_not_served() {
        let c = PlanCache::new();
        // A DROP INDEX lands while the plan is being built. The plan
        // references dropped topology; its pre-plan stamp makes the next
        // EXECUTE re-plan rather than serve it under the post-DDL epoch.
        c.prepare("q", "SELECT * FROM b", || {
            c.bump_epoch("b");
            plan_over("b")
        })
        .unwrap();
        let e = c.get_prepared("q").unwrap();
        let mut replanned = false;
        c.plan_for(&e, || {
            replanned = true;
            plan_over("b")
        })
        .unwrap();
        assert!(replanned, "plan built against superseded topology must not serve");
        assert_eq!(c.invalidations(), 1);
        c.plan_for(&c.get_prepared("q").unwrap(), no_replan).unwrap();
    }

    #[test]
    fn prepared_registry_and_rows() {
        let c = PlanCache::new();
        c.prepare("scan", "SELECT meta().id FROM b", || plan_over("b")).unwrap();
        let e = c.get_prepared("scan").unwrap();
        assert_eq!(e.uses(), 0);
        e.record_use(Duration::from_millis(2));
        e.record_use(Duration::from_millis(4));
        assert_eq!(e.uses(), 2);
        assert_eq!(e.avg_elapsed(), Duration::from_millis(3));
        assert!(e.last_use_unix() > 0);
        // A re-plan keeps the counters.
        c.bump_epoch("b");
        c.plan_for(&e, || plan_over("b")).unwrap();
        assert_eq!(c.get_prepared("scan").unwrap().uses(), 2);
        let rows = c.prepared_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1.get_field("uses").and_then(|v| v.as_i64()), Some(2));
        // Re-preparing replaces (fresh counters).
        c.prepare("scan", "SELECT meta().id FROM b", || plan_over("b")).unwrap();
        assert_eq!(c.get_prepared("scan").unwrap().uses(), 0);
        assert!(c.get_prepared("nope").is_none());
    }
}
