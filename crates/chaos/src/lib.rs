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

/// SplitMix64 finalizer: the one-way mixer behind every seeded decision in
/// this crate. Stateless, so decisions are immune to thread interleaving.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hash a list of words into one decision value.
pub(crate) fn mix_all(words: &[u64]) -> u64 {
    let mut h = 0x243f_6a88_85a3_08d3; // pi digits, nothing up the sleeve
    for &w in words {
        h = mix64(h ^ w);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(42), mix64(43));
        assert_eq!(mix_all(&[1, 2, 3]), mix_all(&[1, 2, 3]));
        assert_ne!(mix_all(&[1, 2, 3]), mix_all(&[3, 2, 1]));
        // Rough avalanche sanity: flipping one input bit flips ~half the
        // output bits.
        let d = (mix64(7) ^ mix64(7 | 1 << 63)).count_ones();
        assert!((16..=48).contains(&d), "poor avalanche: {d}");
    }
}
