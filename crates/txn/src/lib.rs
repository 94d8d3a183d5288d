//! Parallel multi-document ACID transactions over the cluster's KV path
//! (Block-STM style optimistic concurrency).
//!
//! The paper's engine exposes single-document atomicity (CAS, §2.3.1) and
//! per-mutation durability (§2.3.2); this crate layers multi-document
//! transactions on top **without touching the engine**: a batch of
//! transaction closures executes optimistically in parallel against a
//! multi-version staging area ([`mvmemory::MvMemory`]), a serial commit
//! frontier validates read sets and re-executes conflicting transactions
//! with bumped incarnations ([`scheduler`]), and only the committed merged
//! write set drains to the engine through the ordinary smart-client path —
//! so WAL group commit, DCP streams, replication and XDCR all observe
//! plain mutations.
//!
//! The committed result of a batch is *defined* as the serial execution of
//! its transactions in index order; `crates/txn/tests/serializability.rs`
//! checks that definition against a pure serial witness over seeded random
//! workloads, and `tests/txn_models.rs` model-checks the
//! validate/re-execute/commit race with the mini-loom explorer.
//!
//! Scope and caveats (documented, tested limits — not TODOs):
//!
//! - **isolation is batch-level**: two [`TxnClient`]s draining overlapping
//!   key sets concurrently can interleave their drains; run one
//!   coordinator per key space (the chaos harness does);
//! - **the drain window is not atomic to non-transactional readers**: a
//!   plain KV `get` racing a drain can observe a prefix of a commit. The
//!   chaos checker's fractured-read rule therefore observes through
//!   read-only transactions, which are serialized into batches.

#![deny(unsafe_code)]

pub mod mvmemory;
pub mod scheduler;
pub mod spec;

use std::sync::Arc;
use std::time::Duration;

use cbs_cluster::{Cluster, Durability, SmartClient, TxnLogRow, TxnState};
use cbs_common::error::{Error, Result};
use cbs_common::ids::Cas;

pub use mvmemory::{Incarnation, MvMemory, MvRead, TxnIndex};
pub use scheduler::{
    run_batch, run_deterministic, BatchReport, ReadOrigin, TxnCtx, TxnFn, TxnOutcome,
};

/// Transaction coordinator for one bucket: executes batches through the
/// parallel scheduler and drains committed write sets through a
/// [`SmartClient`], recording `txn.batch.*` metrics and
/// `system:transactions` rows.
pub struct TxnClient {
    cluster: Arc<Cluster>,
    client: SmartClient,
    bucket: String,
    workers: usize,
    durability: Option<(Durability, Duration)>,
    commits: Arc<cbs_obs::Counter>,
    aborts: Arc<cbs_obs::Counter>,
    re_executions: Arc<cbs_obs::Counter>,
    latency: Arc<cbs_obs::Histogram>,
}

impl TxnClient {
    /// Connect a coordinator to `bucket` with 4 workers and no durability
    /// requirement on the drain.
    pub fn connect(cluster: &Arc<Cluster>, bucket: &str) -> Result<TxnClient> {
        let client = SmartClient::connect(Arc::clone(cluster), bucket)?;
        let registry = cluster.query_registry();
        Ok(TxnClient {
            commits: registry.counter_with_help("txn.batch.commits", "Committed transactions"),
            aborts: registry.counter_with_help("txn.batch.aborts", "Aborted transactions"),
            re_executions: registry.counter_with_help(
                "txn.batch.re_executions",
                "Conflict-driven transaction re-executions",
            ),
            latency: registry.histogram_with_help(
                "txn.batch.latency",
                "End-to-end batch latency (execute + validate + drain)",
            ),
            cluster: Arc::clone(cluster),
            client,
            bucket: bucket.to_string(),
            workers: 4,
            durability: None,
        })
    }

    /// Set the scheduler's worker thread count.
    pub fn with_workers(mut self, workers: usize) -> TxnClient {
        self.workers = workers.max(1);
        self
    }

    /// Require a durability level (with timeout) on every drained upsert.
    pub fn with_durability(mut self, durability: Durability, timeout: Duration) -> TxnClient {
        self.durability = Some((durability, timeout));
        self
    }

    /// Execute a batch: run the scheduler, drain the committed merged
    /// write set to the engine, record metrics and log rows. Returns the
    /// per-transaction report; individual aborts are recorded in it, an
    /// `Err` means the drain itself failed (a torn commit — the chaos
    /// battery's teeth test demonstrates the checker catches one).
    pub fn run_batch(&self, txns: &[TxnFn]) -> Result<BatchReport> {
        let _timer = self.latency.timer();
        // Root span on the txn lane: the drain's client upserts (and
        // everything downstream — engine, replication, WAL) join this
        // trace as child spans.
        let txn_trace = cbs_obs::TraceSink::new(Arc::clone(self.cluster.trace_store()), "txn");
        let mut causal = txn_trace.mint("txn.batch.run");
        let client = &self.client;
        let reader = |key: &str| match client.get(key) {
            Ok(r) => Ok(Some(r.value)),
            Err(Error::KeyNotFound(_)) => Ok(None),
            Err(e) => Err(e),
        };
        let report = scheduler::run_batch(txns, &reader, self.workers);
        for (key, value) in report.final_state() {
            match value {
                Some(v) => {
                    if let Some((durability, timeout)) = self.durability {
                        self.client.upsert_durable(key, v.clone(), durability, timeout)?;
                    } else {
                        self.client.upsert(key, v.clone())?;
                    }
                }
                // Idempotent delete: the key may have been created and
                // removed inside the batch without ever reaching the
                // engine.
                None => match self.client.remove(key, Cas::WILDCARD) {
                    Ok(_) | Err(Error::KeyNotFound(_)) => {}
                    Err(e) => return Err(e),
                },
            }
        }
        self.commits.add(report.committed() as u64);
        self.aborts.add(report.aborted() as u64);
        self.re_executions.add(report.re_executions);
        // Flight-recorder rows: aborts and conflict-driven re-executions
        // are the lifecycle events a postmortem timeline wants.
        let registry = self.cluster.query_registry();
        for (index, outcome) in report.outcomes.iter().enumerate() {
            if let TxnOutcome::Aborted(reason) = outcome {
                causal.fail();
                registry.record_event(
                    "txn.events.abort",
                    &[("txn", index.to_string()), ("reason", format!("{reason:?}"))],
                );
            }
        }
        if report.re_executions > 0 {
            registry.record_event(
                "txn.events.re_execution",
                &[("count", report.re_executions.to_string())],
            );
        }
        let log = self.cluster.txn_log();
        let batch = log.next_batch_id();
        for (index, outcome) in report.outcomes.iter().enumerate() {
            log.push(TxnLogRow {
                id: 0,
                batch,
                index,
                bucket: self.bucket.clone(),
                state: match outcome {
                    TxnOutcome::Committed => TxnState::Committed,
                    TxnOutcome::Aborted(_) => TxnState::Aborted,
                },
                reads: report.reads[index],
                writes: report.writes[index],
                incarnations: report.incarnations[index],
            });
        }
        Ok(report)
    }
}

/// `Cluster::transact(...)`: run one closure as a single-transaction
/// batch. Defined as an extension trait because `cbs-txn` sits above
/// `cbs-cluster` in the crate graph.
pub trait Transact {
    /// Execute `body` transactionally against `bucket`; returns the
    /// closure's error verbatim if it aborted.
    fn transact<F>(&self, bucket: &str, body: F) -> Result<()>
    where
        F: Fn(&mut TxnCtx<'_>) -> Result<()> + Send + Sync + 'static;
}

impl Transact for Arc<Cluster> {
    fn transact<F>(&self, bucket: &str, body: F) -> Result<()>
    where
        F: Fn(&mut TxnCtx<'_>) -> Result<()> + Send + Sync + 'static,
    {
        let coordinator = TxnClient::connect(self, bucket)?.with_workers(1);
        let report = coordinator.run_batch(&[Arc::new(body) as TxnFn])?;
        match report.outcomes.into_iter().next() {
            Some(TxnOutcome::Aborted(e)) => Err(e),
            _ => Ok(()),
        }
    }
}
