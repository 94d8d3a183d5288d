//! Transactional chaos: seeded batches of multi-document transactions
//! through the real `cbs-txn` coordinator, with read-only snapshot
//! transactions riding inside each batch and deliberate aborts mixed in,
//! checked by the `txn-atomicity` and `fractured-read` history rules.
//!
//! The workload is **clean by construction**: one coordinator issues
//! sequential batches (parallelism comes from the scheduler's workers, not
//! from concurrent coordinators), commit events are recorded only after a
//! batch's drain fully acknowledged, and snapshots are transactions
//! themselves — so a violation means the scheduler or the drain is broken,
//! not the harness. The teeth suite (`tests/txn_teeth.rs`) plants a torn
//! commit and an aborted-write leak to prove the rules bite.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;

use cbs_cluster::{Cluster, ClusterConfig, Durability};
use cbs_common::error::Error;
use cbs_json::Value;
use cbs_txn::{Incarnation, TxnClient, TxnCtx, TxnFn, TxnOutcome};
use parking_lot::Mutex;

use crate::checker::{check_cluster, check_history, Violation};
use crate::history::{History, HistoryRecorder, TxnEventKind};
use crate::mix_all;
use crate::plan::FaultPlan;
use crate::workload::{Profile, BUCKET};

const TXN_SALT: u64 = 0x7478_6e63; // "txnc"

/// Document key for transactional-chaos key-index `k` (a key space
/// disjoint from the plain chaos workload's).
pub fn txn_key(k: usize) -> String {
    format!("txnc{k:03}")
}

/// The value transaction `id` writes to key-index `k`: unique per
/// transaction, so any observed value identifies its writer.
pub fn txn_value(id: u64, k: usize) -> i64 {
    (((id + 1) << 16) | k as u64) as i64
}

/// Full description of one transactional chaos run; round-trips through
/// `TXN_CHAOS_*` environment variables for replay.
#[derive(Debug, Clone)]
pub struct TxnChaosConfig {
    /// Seed for workload shape and fault decisions.
    pub seed: u64,
    /// Node count.
    pub nodes: usize,
    /// Replica copies per vBucket.
    pub replicas: u8,
    /// vBuckets per bucket.
    pub vbuckets: u16,
    /// Sequential batches the coordinator runs.
    pub batches: usize,
    /// Writer transactions per batch (plus one snapshot reader).
    pub txns_per_batch: usize,
    /// Size of the shared key space (small = high conflict rate).
    pub keys: usize,
    /// Scheduler worker threads.
    pub workers: usize,
    /// Transport fault intensity. Topology events are deliberately absent:
    /// a mid-drain node failure genuinely tears a commit, which is the
    /// teeth test's job to plant, not the clean run's job to suffer.
    pub profile: Profile,
    /// Drain with replicate-to-all durability.
    pub durable: bool,
}

impl TxnChaosConfig {
    /// Baseline 3-node config for a seed.
    pub fn new(seed: u64) -> TxnChaosConfig {
        TxnChaosConfig {
            seed,
            nodes: 3,
            replicas: 1,
            vbuckets: 16,
            batches: 6,
            txns_per_batch: 12,
            keys: 10,
            workers: 4,
            profile: Profile::Jittery,
            durable: false,
        }
    }

    /// Apply `TXN_CHAOS_*` environment overrides: `TXN_CHAOS_SEED`,
    /// `TXN_CHAOS_NODES`, `TXN_CHAOS_BATCHES`, `TXN_CHAOS_TXNS`,
    /// `TXN_CHAOS_KEYS`, `TXN_CHAOS_WORKERS`, `TXN_CHAOS_PROFILE`,
    /// `TXN_CHAOS_DURABLE`.
    pub fn from_env(mut self) -> TxnChaosConfig {
        fn num<T: std::str::FromStr>(var: &str) -> Option<T> {
            std::env::var(var).ok().and_then(|v| v.parse().ok())
        }
        if let Some(seed) = num("TXN_CHAOS_SEED") {
            self.seed = seed;
        }
        if let Some(nodes) = num("TXN_CHAOS_NODES") {
            self.nodes = nodes;
        }
        if let Some(batches) = num("TXN_CHAOS_BATCHES") {
            self.batches = batches;
        }
        if let Some(txns) = num("TXN_CHAOS_TXNS") {
            self.txns_per_batch = txns;
        }
        if let Some(keys) = num("TXN_CHAOS_KEYS") {
            self.keys = keys;
        }
        if let Some(workers) = num("TXN_CHAOS_WORKERS") {
            self.workers = workers;
        }
        if let Some(profile) =
            std::env::var("TXN_CHAOS_PROFILE").ok().and_then(|p| Profile::by_name(&p))
        {
            self.profile = profile;
        }
        if let Some(durable) = num::<u8>("TXN_CHAOS_DURABLE") {
            self.durable = durable != 0;
        }
        self
    }

    /// One-line replay recipe for this exact run.
    pub fn replay_command(&self) -> String {
        format!(
            "TXN_CHAOS_SEED={} TXN_CHAOS_NODES={} TXN_CHAOS_BATCHES={} TXN_CHAOS_TXNS={} \
             TXN_CHAOS_KEYS={} TXN_CHAOS_WORKERS={} TXN_CHAOS_PROFILE={} TXN_CHAOS_DURABLE={} \
             cargo test --test chaos_txn txn_chaos_smoke -- --nocapture",
            self.seed,
            self.nodes,
            self.batches,
            self.txns_per_batch,
            self.keys,
            self.workers,
            self.profile.name(),
            u8::from(self.durable),
        )
    }
}

/// What one transactional chaos run produced.
#[derive(Debug)]
pub struct TxnChaosOutcome {
    /// The config the run executed.
    pub config: TxnChaosConfig,
    /// The frozen history.
    pub history: History,
    /// Every violation (history rules + live cluster checks); empty = pass.
    pub violations: Vec<Violation>,
    /// Committed transactions (`txn.batch.commits` on the query registry).
    pub commits: u64,
    /// Aborted transactions.
    pub aborts: u64,
    /// Conflict-driven re-executions.
    pub re_executions: u64,
}

impl TxnChaosOutcome {
    /// Human-readable summary plus replay command on failure.
    pub fn report(&self) -> String {
        let mut s = format!(
            "txn chaos: {} commits, {} aborts, {} re-executions, {} snapshots, {} violations",
            self.commits,
            self.aborts,
            self.re_executions,
            self.history.snapshots.len(),
            self.violations.len(),
        );
        for v in &self.violations {
            s.push_str(&format!("\n  {v}"));
        }
        if !self.violations.is_empty() {
            s.push_str(&format!("\n  replay: {}", self.config.replay_command()));
        }
        s
    }
}

/// Per-incarnation observation capture for a snapshot transaction: the
/// committed incarnation (known only after the batch finishes) selects
/// which observation set is the validated one.
type SnapSlot = Arc<Mutex<HashMap<Incarnation, Vec<(String, Option<i64>)>>>>;

fn writer_txn(id: u64, keys: Vec<usize>, bail: bool) -> TxnFn {
    Arc::new(move |ctx: &mut TxnCtx<'_>| {
        for &k in &keys {
            let key = txn_key(k);
            // Read-modify-write shape: the read joins the validated read
            // set, so overlapping writers genuinely conflict.
            ctx.get(&key)?;
            ctx.upsert(&key, Value::from(txn_value(id, k)));
        }
        if bail {
            return Err(Error::Eval(format!("txn {id} bails by design")));
        }
        Ok(())
    })
}

fn snapshot_txn(keys: usize, slot: SnapSlot) -> TxnFn {
    Arc::new(move |ctx: &mut TxnCtx<'_>| {
        let mut observed = Vec::with_capacity(keys);
        for k in 0..keys {
            let key = txn_key(k);
            let value = ctx.get(&key)?.and_then(|v| v.as_value().as_i64());
            observed.push((key, value));
        }
        slot.lock().insert(ctx.incarnation(), observed);
        Ok(())
    })
}

/// What each slot of a batch is, so outcomes map back to history events.
enum Meta {
    Writer { id: u64, writes: Vec<(String, i64)> },
    Snapshot { invoked: u64, slot: SnapSlot },
}

/// Run one seeded transactional chaos workload end to end and check it.
pub fn run_txn_chaos(cfg: &TxnChaosConfig) -> TxnChaosOutcome {
    let plan = FaultPlan::new(cfg.profile.spec(cfg.seed));
    let ccfg = ClusterConfig::for_chaos(cfg.vbuckets, cfg.replicas, plan);
    let cluster = Cluster::homogeneous(cfg.nodes, ccfg);
    cluster.create_bucket(BUCKET).expect("create chaos bucket");

    let rec = HistoryRecorder::new();
    let mut coordinator = TxnClient::connect(&cluster, BUCKET)
        .expect("connect txn coordinator")
        .with_workers(cfg.workers);
    if cfg.durable {
        coordinator = coordinator.with_durability(
            Durability { replicate_to: cfg.replicas, persist_to_master: false },
            Duration::from_secs(5),
        );
    }

    let keys = cfg.keys.max(4);
    let mut next_id = 0u64;
    for b in 0..cfg.batches as u64 {
        let snap_pos =
            (mix_all(&[cfg.seed, TXN_SALT, b, 0x51]) as usize) % (cfg.txns_per_batch + 1);
        let mut txns: Vec<TxnFn> = Vec::new();
        let mut metas: Vec<Meta> = Vec::new();
        for i in 0..=cfg.txns_per_batch {
            if i == snap_pos {
                let slot: SnapSlot = Arc::default();
                metas.push(Meta::Snapshot { invoked: rec.tick(), slot: Arc::clone(&slot) });
                txns.push(snapshot_txn(keys, slot));
                continue;
            }
            let id = next_id;
            next_id += 1;
            let n_keys = 2 + (mix_all(&[cfg.seed, TXN_SALT, id, 0x4b]) as usize) % 2;
            let mut picked = BTreeSet::new();
            for j in 0..16u64 {
                if picked.len() == n_keys {
                    break;
                }
                picked.insert((mix_all(&[cfg.seed, TXN_SALT, id, 0x6b, j]) as usize) % keys);
            }
            let picked: Vec<usize> = picked.into_iter().collect();
            let bail = mix_all(&[cfg.seed, TXN_SALT, id, 0xba]).is_multiple_of(10);
            let writes = picked.iter().map(|&k| (txn_key(k), txn_value(id, k))).collect();
            rec.txn_event(id, TxnEventKind::Begin);
            metas.push(Meta::Writer { id, writes });
            txns.push(writer_txn(id, picked, bail));
        }

        let report = coordinator.run_batch(&txns).unwrap_or_else(|e| {
            panic!("batch {b} drain failed: {e}\nreplay: {}", cfg.replay_command())
        });

        for (i, meta) in metas.into_iter().enumerate() {
            match meta {
                Meta::Writer { id, writes } => {
                    let kind = match &report.outcomes[i] {
                        TxnOutcome::Committed => TxnEventKind::Commit { writes },
                        TxnOutcome::Aborted(_) => TxnEventKind::Abort { writes },
                    };
                    rec.txn_event(id, kind);
                }
                Meta::Snapshot { invoked, slot } => {
                    if report.outcomes[i].is_committed() {
                        let observed = slot
                            .lock()
                            .remove(&report.incarnations[i])
                            .expect("committed snapshot has its incarnation's observations");
                        rec.snapshot(invoked, observed);
                    }
                }
            }
        }
    }

    let history = rec.finish();
    let mut violations = check_history(&history);
    violations.extend(check_cluster(&cluster, BUCKET, Duration::from_secs(10)));
    let counts = cluster.query_registry().snapshot();
    TxnChaosOutcome {
        config: cfg.clone(),
        history,
        violations,
        commits: counts.counter("txn.batch.commits"),
        aborts: counts.counter("txn.batch.aborts"),
        re_executions: counts.counter("txn.batch.re_executions"),
    }
}
