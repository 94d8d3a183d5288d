//! Operation history recording against a logical clock.
//!
//! Every client-visible KV operation is logged with an *invoked* and a
//! *completed* timestamp drawn from one atomic counter. The counter gives
//! a total order consistent with real time: if op A completed before op B
//! was invoked, then `A.completed < B.invoked` — which is exactly the
//! happens-before relation the checker's monotonicity and freshness rules
//! key off. Concurrent ops (overlapping windows) are never ordered against
//! each other.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// What an operation tried to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Write `value`; `durable` means the ack additionally waited for
    /// replication to every configured replica (observe-style, §2.3.2).
    Put {
        /// The written value (unique per op across the whole run).
        value: i64,
        /// Whether the ack covers replication to all replicas.
        durable: bool,
    },
    /// Read the key.
    Get,
    /// Delete the key.
    Delete,
}

/// How an operation ended, as seen by the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ack {
    /// Acknowledged success. For mutations, `seqno`/`vb` come from the
    /// `MutationResult` and `observed` echoes the written value (`None`
    /// for deletes). For gets, `observed` is the value read (`None` =
    /// key not found) and `seqno` is 0.
    Ok {
        /// vBucket the op executed in.
        vb: u16,
        /// Assigned seqno (mutations) or 0 (gets).
        seqno: u64,
        /// Written/observed value.
        observed: Option<i64>,
    },
    /// Definitely did not take effect (CAS mismatch, key-exists,
    /// not-found delete, routing gave up before reaching an engine).
    Failed(String),
    /// Unknown outcome: the mutation may or may not be visible later
    /// (e.g. applied on the active but the durability observe timed out).
    Maybe(String),
}

/// One recorded operation.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Target key.
    pub key: String,
    /// Operation kind.
    pub kind: OpKind,
    /// Logical time the client issued the op.
    pub invoked: u64,
    /// Logical time the client got the response.
    pub completed: u64,
    /// Outcome.
    pub ack: Ack,
}

impl OpRecord {
    /// The post-state this op installs on its key if it took effect:
    /// `Some(value)` for puts, `None` for deletes. Gets return `None`
    /// (they install nothing).
    pub fn effect(&self) -> Option<Option<i64>> {
        match self.kind {
            OpKind::Put { value, .. } => Some(Some(value)),
            OpKind::Delete => Some(None),
            OpKind::Get => None,
        }
    }

    /// Whether the op is a mutation whose effect may be visible (acked or
    /// unknown-outcome).
    pub fn may_have_applied(&self) -> bool {
        self.effect().is_some() && !matches!(self.ack, Ack::Failed(_))
    }
}

/// Lifecycle event of one multi-document transaction, as recorded by the
/// transaction coordinator. Values are unique per transaction across a
/// run, so an observed value identifies the transaction that wrote it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnEventKind {
    /// The transaction entered the scheduler.
    Begin,
    /// The transaction validated **and its write set fully drained to the
    /// engine**: `writes` is the complete `(key, value)` set the commit
    /// made visible. Recorded only after the last drained mutation was
    /// acknowledged, so any later-invoked read must see every write (or a
    /// newer committed one).
    Commit {
        /// The full committed write set.
        writes: Vec<(String, i64)>,
    },
    /// The transaction aborted: `writes` are the values it staged, which
    /// must never be observed anywhere.
    Abort {
        /// The discarded staged write set.
        writes: Vec<(String, i64)>,
    },
}

/// One recorded transaction lifecycle event.
#[derive(Debug, Clone)]
pub struct TxnRecord {
    /// Run-unique transaction id.
    pub txn: u64,
    /// Logical time the event was recorded.
    pub at: u64,
    /// What happened.
    pub kind: TxnEventKind,
}

/// A multi-key atomic observation: the read set of one committed
/// read-only transaction. The fractured-read rule checks these against
/// committed transactions' write sets.
#[derive(Debug, Clone)]
pub struct SnapshotRecord {
    /// Logical time the snapshot transaction was issued.
    pub invoked: u64,
    /// Logical time its result was recorded.
    pub completed: u64,
    /// `(key, observed value)` pairs; `None` = key absent.
    pub observed: Vec<(String, Option<i64>)>,
}

/// A topology event that happened during the run.
#[derive(Debug, Clone)]
pub struct EventRecord {
    /// Logical time the event took effect.
    pub at: u64,
    /// Human-readable description (also used in replay output).
    pub what: String,
    /// Whether the event may legitimately roll back acked-but-not-durable
    /// writes (failover promotes a replica that can be missing the
    /// un-replicated tail, §4.3.1). The checker relaxes its freshness and
    /// monotonicity rules across lossy windows — but never the durable
    /// floor.
    pub lossy: bool,
}

/// Thread-safe recorder handed to every workload worker.
#[derive(Debug, Default)]
pub struct HistoryRecorder {
    clock: AtomicU64,
    ops: Mutex<Vec<OpRecord>>,
    events: Mutex<Vec<EventRecord>>,
    txns: Mutex<Vec<TxnRecord>>,
    snapshots: Mutex<Vec<SnapshotRecord>>,
}

impl HistoryRecorder {
    /// Fresh recorder with the clock at zero.
    pub fn new() -> HistoryRecorder {
        HistoryRecorder::default()
    }

    /// Advance the logical clock and return the new timestamp.
    pub fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Record a completed operation; `invoked` must come from an earlier
    /// [`tick`](HistoryRecorder::tick).
    pub fn record(&self, key: &str, kind: OpKind, invoked: u64, ack: Ack) {
        let completed = self.tick();
        self.ops.lock().push(OpRecord { key: key.to_string(), kind, invoked, completed, ack });
    }

    /// Record a topology event.
    pub fn event(&self, what: impl Into<String>, lossy: bool) {
        let at = self.tick();
        self.events.lock().push(EventRecord { at, what: what.into(), lossy });
    }

    /// Record a transaction lifecycle event; returns its logical time.
    pub fn txn_event(&self, txn: u64, kind: TxnEventKind) -> u64 {
        let at = self.tick();
        self.txns.lock().push(TxnRecord { txn, at, kind });
        at
    }

    /// Record a committed read-only snapshot transaction's observations;
    /// `invoked` must come from an earlier
    /// [`tick`](HistoryRecorder::tick).
    pub fn snapshot(&self, invoked: u64, observed: Vec<(String, Option<i64>)>) {
        let completed = self.tick();
        self.snapshots.lock().push(SnapshotRecord { invoked, completed, observed });
    }

    /// Freeze into an immutable [`History`].
    pub fn finish(&self) -> History {
        History {
            ops: self.ops.lock().clone(),
            events: self.events.lock().clone(),
            txns: self.txns.lock().clone(),
            snapshots: self.snapshots.lock().clone(),
        }
    }
}

/// An immutable, completed run history.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// All recorded operations (push order; per key this is program order
    /// because each key is owned by one sequential worker).
    pub ops: Vec<OpRecord>,
    /// All topology events.
    pub events: Vec<EventRecord>,
    /// All transaction lifecycle events (push order).
    pub txns: Vec<TxnRecord>,
    /// All committed read-only snapshot observations.
    pub snapshots: Vec<SnapshotRecord>,
}

impl History {
    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Whether any lossy event falls strictly inside `(after, before)`.
    pub fn lossy_within(&self, after: u64, before: u64) -> bool {
        self.events.iter().any(|e| e.lossy && e.at > after && e.at < before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_orders_ops() {
        let rec = HistoryRecorder::new();
        let t1 = rec.tick();
        rec.record(
            "k",
            OpKind::Put { value: 1, durable: false },
            t1,
            Ack::Ok { vb: 0, seqno: 1, observed: Some(1) },
        );
        let t2 = rec.tick();
        rec.record("k", OpKind::Get, t2, Ack::Ok { vb: 0, seqno: 0, observed: Some(1) });
        let h = rec.finish();
        assert_eq!(h.len(), 2);
        assert!(h.ops[0].completed < h.ops[1].invoked);
    }

    #[test]
    fn lossy_window_query() {
        let rec = HistoryRecorder::new();
        rec.event("warmup", false);
        rec.event("failover node 2", true);
        let h = rec.finish();
        let at = h.events[1].at;
        assert!(h.lossy_within(at - 1, at + 1));
        assert!(!h.lossy_within(at, at + 1), "window is exclusive");
    }

    #[test]
    fn effect_and_may_have_applied() {
        let put = OpRecord {
            key: "k".into(),
            kind: OpKind::Put { value: 9, durable: true },
            invoked: 1,
            completed: 2,
            ack: Ack::Maybe("observe timeout".into()),
        };
        assert_eq!(put.effect(), Some(Some(9)));
        assert!(put.may_have_applied());
        let failed = OpRecord { ack: Ack::Failed("cas".into()), ..put.clone() };
        assert!(!failed.may_have_applied());
        let get = OpRecord { kind: OpKind::Get, ..put };
        assert_eq!(get.effect(), None);
    }
}
