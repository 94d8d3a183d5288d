//! Deterministic chaos harness for the simulated cluster.
//!
//! Couchbase's correctness story under failures (§4.3.1 failover, §4.3.1
//! rebalance, §4.1.1 replication) is exactly the part a reproduction is
//! most likely to get subtly wrong, so this crate stress-tests it the way
//! Jepsen tests real clusters — but fully deterministically:
//!
//! - [`FaultPlan`] implements the cluster's [`cbs_cluster::FaultInjector`]
//!   seam. Every fault decision (drop / delay / duplicate a replication
//!   delivery, stall a client dispatch) is a **pure hash** of the plan
//!   seed and the site identity — never wall-clock, never a shared PRNG
//!   whose sequence depends on thread interleaving. A printed seed is a
//!   full replay recipe.
//! - [`HistoryRecorder`] logs every client-visible KV operation (put /
//!   get / delete / CAS, with seqnos and observed values) against a
//!   logical clock, plus the topology events (kill, failover, rebalance)
//!   that may legitimately lose un-replicated acked writes.
//! - [`check_history`] validates per-key consistency of the recorded
//!   history (phantom reads, read-your-writes for durable writes, stale
//!   reads outside failover windows, per-vBucket seqno monotonicity), and
//!   [`check_cluster`] validates topology sanity (no ownerless vBucket)
//!   and active/replica convergence after quiescence.
//! - [`run_chaos`] wires it all together: an N-node cluster, seeded
//!   workload workers, and a coordinator that fires a seeded schedule of
//!   topology events at operation-count thresholds. [`shrink`] bisects a
//!   failing run down to a minimal op count and prints a one-line replay
//!   command.
//!
//! See DESIGN.md §11.

#![deny(unsafe_code)]

pub mod checker;
pub mod history;
pub mod measure;
pub mod plan;
pub mod txnchaos;
pub mod workload;

pub use checker::{check_cluster, check_history, Violation};
pub use history::{
    Ack, EventRecord, History, HistoryRecorder, OpKind, OpRecord, SnapshotRecord, TxnEventKind,
    TxnRecord,
};
pub use measure::{
    measure_staleness, measure_staleness_sweep, PhaseStaleness, StalenessOutcome, StalenessSweep,
    TICKS_PER_WINDOW,
};
pub use plan::{FaultPlan, FaultSpec};
pub use txnchaos::{run_txn_chaos, txn_key, txn_value, TxnChaosConfig, TxnChaosOutcome};
pub use workload::{
    expect_clean, flight_dump, revive_clean, run_chaos, shrink, write_flight_dump, ChaosConfig,
    ChaosOutcome, Profile, Schedule, TopoEvent, TopoKind, BUCKET,
};

/// The stateless seeded mixer behind every decision in this crate.
pub(crate) use cbs_txn::spec::mix_all;
