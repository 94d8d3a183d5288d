//! Per-(vBucket, replica) replication-lag tracking for the DCP pump.
//!
//! The paper's intra-cluster replication (§4.1.1) is asynchronous: an
//! active vBucket's mutations reach its replicas through the memory-to-
//! memory DCP pump, so at any instant a replica may be *behind* — and a
//! failover promoting it loses the tail. The chaos checker can prove a
//! history legal; this table is the complementary *measuring* instrument:
//! every pump cycle it samples, per (vBucket, replica), the seqno distance
//! between the active copy and the replica, and how many cycles the
//! replica has been continuously behind. A **cycle** is a drain of the
//! pump's feed that moved something (or a resubscription): the pump parks
//! while its bucket is idle, so the clock counts bursts of replication
//! work, not time — it stands still on an idle bucket.
//!
//! Everything here is atomics — the table lives inside the pump entry
//! (rank `CLUSTER_PUMPS` map) but is read lock-free by `Cluster::stats()`,
//! the `system:replication` / `system:staleness` catalogs (whose rows the
//! table shapes itself), and the Prometheus export. The logical clock is
//! the `cluster.replication.cycles` counter: lag-age is measured in
//! cycles, and the windowed lag-age histogram rotates every
//! [`LAG_WINDOW_CYCLES`] cycles so snapshots answer "how far behind were
//! replicas over the last few hundred drains", not "since boot".

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use cbs_common::{NodeId, VbId};
use cbs_json::Value;
use cbs_kv::DataEngine;
use cbs_obs::{Counter, Gauge, Registry, WindowedHistogram};

use crate::replication::PumpTopology;

/// Pump cycles per lag-age window. A cycle is a drain that moved
/// something, so a window is 64 such drains — under a steady writer about
/// 64 deliveries, on an idle bucket no time at all — and the 8-window ring
/// covers the last ~512 of them.
pub const LAG_WINDOW_CYCLES: u64 = 64;

/// Sentinel for "this replica slot is unused / unmeasurable".
const EMPTY_NODE: u32 = u32::MAX;

/// Sentinel for "this replica is fully caught up" in `behind_since`.
const CAUGHT_UP: u64 = u64::MAX;

/// One (vBucket, replica-position) measurement slot.
#[derive(Debug)]
struct ReplicaSlot {
    /// Replica node id (`EMPTY_NODE` when the slot is unused).
    node: AtomicU32,
    /// Seqno distance active − replica at the last pump cycle.
    lag: AtomicU64,
    /// Pump cycle at which the replica fell behind (`CAUGHT_UP` when not
    /// behind); age in cycles is `cycle − behind_since`.
    behind_since: AtomicU64,
}

impl ReplicaSlot {
    fn new() -> ReplicaSlot {
        ReplicaSlot {
            node: AtomicU32::new(EMPTY_NODE),
            lag: AtomicU64::new(0),
            behind_since: AtomicU64::new(CAUGHT_UP),
        }
    }

    fn clear(&self) {
        self.node.store(EMPTY_NODE, Ordering::Relaxed);
        self.lag.store(0, Ordering::Relaxed);
        self.behind_since.store(CAUGHT_UP, Ordering::Relaxed);
    }
}

/// Lock-free per-bucket lag table, updated by the pump on every cycle (a
/// drain that moved something).
#[derive(Debug)]
pub struct ReplicationLagTable {
    bucket: String,
    registry: Arc<Registry>,
    /// `slots[vb][replica_position]`, capacity fixed at construction.
    slots: Vec<Vec<ReplicaSlot>>,
    lag_max: Arc<Gauge>,
    lag_total: Arc<Gauge>,
    lagging_vbuckets: Arc<Gauge>,
    cycles: Arc<Counter>,
    lag_age: Arc<WindowedHistogram>,
}

impl ReplicationLagTable {
    /// A fresh table for `bucket` with `num_vbuckets × num_replicas`
    /// measurement slots.
    pub fn new(bucket: &str, num_vbuckets: u16, num_replicas: usize) -> ReplicationLagTable {
        let registry = Arc::new(Registry::new("cluster"));
        let lag_max = registry.gauge_with_help(
            "cluster.replication.lag_max",
            "Largest active-to-replica seqno lag across all vBuckets at the last pump cycle",
        );
        let lag_total = registry.gauge_with_help(
            "cluster.replication.lag_total",
            "Sum of active-to-replica seqno lags across all vBuckets at the last pump cycle",
        );
        let lagging_vbuckets = registry.gauge_with_help(
            "cluster.replication.lagging_vbuckets",
            "vBuckets with at least one replica behind the active copy at the last pump cycle",
        );
        let cycles = registry.counter_with_help(
            "cluster.replication.cycles",
            "Replication pump cycles completed (the lag table's logical clock)",
        );
        let lag_age = registry.windowed_histogram_with_help(
            "cluster.replication.lag_age",
            "Pump cycles a replica stayed continuously behind, one sample per resolved lag \
             episode, over the live windows",
        );
        ReplicationLagTable {
            bucket: bucket.to_string(),
            registry,
            slots: (0..num_vbuckets)
                .map(|_| (0..num_replicas.max(1)).map(|_| ReplicaSlot::new()).collect())
                .collect(),
            lag_max,
            lag_total,
            lagging_vbuckets,
            cycles,
            lag_age,
        }
    }

    /// Bucket this table measures.
    pub fn bucket(&self) -> &str {
        &self.bucket
    }

    /// The registry holding the `cluster.replication.*` metrics.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Pump cycles observed so far (`cluster.replication.cycles`).
    pub fn cycle(&self) -> u64 {
        self.cycles.get()
    }

    /// Called by the pump once per cycle — after a drain that moved
    /// something, or a resubscription: sample every (vBucket, replica)
    /// seqno distance from the topology it just pumped with, maintain the
    /// lag-age episodes, and refresh the aggregate gauges. Single-writer
    /// (the pump thread); readers are lock-free.
    pub fn observe(&self, topo: &PumpTopology) {
        self.cycles.inc();
        let cycle = self.cycle();
        // Rotate the lag-age window on the logical clock, never wall time,
        // so seeded chaos runs stay deterministic.
        self.lag_age.advance_to(cycle / LAG_WINDOW_CYCLES);

        // The topology's engines by node id (ids are dense), resolved once
        // per sample: the loop below looks two of them up per vBucket.
        let mut by_node: Vec<Option<&DataEngine>> = Vec::new();
        for (node, engine) in &topo.engines {
            let i = node.0 as usize;
            if i >= by_node.len() {
                by_node.resize(i + 1, None);
            }
            by_node[i] = Some(engine);
        }
        let engine = |node: NodeId| by_node.get(node.0 as usize).copied().flatten();

        let mut max = 0u64;
        let mut total = 0u64;
        let mut lagging_vbs = 0u64;
        for (v, vb_slots) in self.slots.iter().enumerate() {
            let vb = VbId(v as u16);
            if v >= topo.map.num_vbuckets() as usize {
                for slot in vb_slots {
                    slot.clear();
                }
                continue;
            }
            let active = topo.map.active_node(vb);
            let src_high = engine(active).map(|e| e.high_seqno(vb));
            let replicas = topo.map.replica_nodes(vb);
            let mut vb_lagging = false;
            for (i, slot) in vb_slots.iter().enumerate() {
                let (replica, src) = match (replicas.get(i), src_high) {
                    (Some(r), Some(s)) => (*r, s),
                    // No replica in this position, or the active copy is
                    // unreachable: lag is undefined here.
                    _ => {
                        self.finish_episode(slot, cycle);
                        slot.clear();
                        continue;
                    }
                };
                let Some(dst) = engine(replica) else {
                    self.finish_episode(slot, cycle);
                    slot.clear();
                    continue;
                };
                let lag = src.0.saturating_sub(dst.high_seqno(vb).0);
                slot.node.store(replica.0, Ordering::Relaxed);
                slot.lag.store(lag, Ordering::Relaxed);
                if lag == 0 {
                    self.finish_episode(slot, cycle);
                } else {
                    if slot.behind_since.load(Ordering::Relaxed) == CAUGHT_UP {
                        slot.behind_since.store(cycle, Ordering::Relaxed);
                    }
                    vb_lagging = true;
                    max = max.max(lag);
                    total += lag;
                }
            }
            if vb_lagging {
                lagging_vbs += 1;
            }
        }
        self.lag_max.set(max);
        self.lag_total.set(total);
        self.lagging_vbuckets.set(lagging_vbs);
    }

    /// Close a lag episode if one is open: record its age (in cycles) into
    /// the windowed histogram and mark the slot caught up.
    fn finish_episode(&self, slot: &ReplicaSlot, cycle: u64) {
        let since = slot.behind_since.load(Ordering::Relaxed);
        if since != CAUGHT_UP {
            self.lag_age.record_nanos(cycle.saturating_sub(since));
            slot.behind_since.store(CAUGHT_UP, Ordering::Relaxed);
        }
    }

    /// `system:replication` rows, one per occupied (vBucket, replica)
    /// slot, keyed `<bucket>/vb<vb>/r<node>`.
    pub fn replication_rows(&self) -> Vec<(String, Value)> {
        let cycle = self.cycle();
        let mut out = Vec::new();
        for (vb, vb_slots) in self.slots.iter().enumerate() {
            for slot in vb_slots {
                let node = slot.node.load(Ordering::Relaxed);
                if node == EMPTY_NODE {
                    continue;
                }
                let since = slot.behind_since.load(Ordering::Relaxed);
                let age_cycles = if since == CAUGHT_UP { 0 } else { cycle.saturating_sub(since) };
                out.push((
                    format!("{}/vb{vb}/r{node}", self.bucket),
                    Value::object([
                        ("bucket", Value::from(self.bucket.as_str())),
                        ("vb", Value::from(vb as u64)),
                        ("replica", Value::from(format!("n{node}"))),
                        ("lag", Value::from(slot.lag.load(Ordering::Relaxed))),
                        ("ageCycles", Value::from(age_cycles)),
                    ]),
                ));
            }
        }
        out
    }

    /// The bucket's `system:staleness` row, keyed by bucket: the aggregate
    /// lag gauges plus the windowed lag-age distribution (values are pump
    /// cycles).
    pub fn staleness_row(&self) -> (String, Value) {
        let lag_age = self.lag_age.windowed_snapshot();
        let cycles = |p: f64| lag_age.merged.percentile(p).map_or(0, |d| d.as_nanos() as u64);
        let row = Value::object([
            ("bucket", Value::from(self.bucket.as_str())),
            ("cycles", Value::from(self.cycle())),
            ("laggingVbuckets", Value::from(self.lagging_vbuckets.get())),
            ("lagMax", Value::from(self.lag_max.get())),
            ("lagTotal", Value::from(self.lag_total.get())),
            ("windowEpoch", Value::from(lag_age.epoch)),
            ("lagAgeEpisodes", Value::from(lag_age.merged.count())),
            ("lagAgeP50Cycles", Value::from(cycles(50.0))),
            ("lagAgeP95Cycles", Value::from(cycles(95.0))),
            ("lagAgeP99Cycles", Value::from(cycles(99.0))),
        ]);
        (self.bucket.clone(), row)
    }
}
