//! Cluster-wide transaction log: the row source behind the
//! `system:transactions` catalog.
//!
//! The transaction coordinator (`cbs-txn`) records one row per finished
//! transaction — committed or aborted — into this bounded ring. Like the
//! query-service request log it is shared across nodes (in-process the
//! coordinator is a client-side library, so "cluster-wide" means one ring
//! per [`crate::Cluster`]), and it is read lock-free of everything else:
//! the ring's own leaf lock is the only one taken. Running totals are not
//! kept here: the coordinator counts them once, as `txn.batch.*` on the
//! cluster's query registry.

use std::sync::atomic::{AtomicU64, Ordering};

use cbs_common::sync::{rank, OrderedMutex};
use cbs_json::Value;
use cbs_obs::Ring;

/// Terminal state of a logged transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// Validated and drained to the engine through the CAS path.
    Committed,
    /// The user closure returned an error; no writes became visible.
    Aborted,
}

impl TxnState {
    fn name(self) -> &'static str {
        match self {
            TxnState::Committed => "committed",
            TxnState::Aborted => "aborted",
        }
    }
}

/// One finished transaction.
#[derive(Debug, Clone)]
pub struct TxnLogRow {
    /// Cluster-wide monotonic transaction id.
    pub id: u64,
    /// Batch the transaction executed in.
    pub batch: u64,
    /// Index of the transaction inside its batch (= serial commit order).
    pub index: usize,
    /// Bucket the transaction ran against.
    pub bucket: String,
    /// Terminal state.
    pub state: TxnState,
    /// Keys read (validated read-set size).
    pub reads: usize,
    /// Keys written (upserts + removes that drained to the engine; 0 for
    /// aborts).
    pub writes: usize,
    /// Incarnations executed (1 = no conflict; each re-execution adds 1).
    pub incarnations: u32,
}

impl TxnLogRow {
    /// The catalog document for this row.
    pub fn to_value(&self) -> Value {
        Value::object([
            ("id", Value::from(self.id)),
            ("batch", Value::from(self.batch)),
            ("index", Value::from(self.index)),
            ("bucket", Value::from(self.bucket.as_str())),
            ("state", Value::from(self.state.name())),
            ("reads", Value::from(self.reads)),
            ("writes", Value::from(self.writes)),
            ("incarnations", Value::from(u64::from(self.incarnations))),
        ])
    }
}

/// Most recent finished transactions the log retains.
const TXN_RING_CAP: usize = 256;

/// Bounded ring of finished transactions and the id counters.
#[derive(Debug)]
pub struct TxnLog {
    rows: OrderedMutex<Ring<TxnLogRow>>,
    next_id: AtomicU64,
    next_batch: AtomicU64,
}

impl Default for TxnLog {
    /// An empty log retaining the most recent `TXN_RING_CAP` rows.
    fn default() -> TxnLog {
        TxnLog {
            rows: OrderedMutex::new(rank::TXN_LOG, Ring::new(TXN_RING_CAP)),
            next_id: AtomicU64::new(1),
            next_batch: AtomicU64::new(1),
        }
    }
}

impl TxnLog {
    /// Reserve a batch id for a new batch run.
    pub fn next_batch_id(&self) -> u64 {
        self.next_batch.fetch_add(1, Ordering::Relaxed)
    }

    /// Append one finished transaction (the log assigns its id).
    pub fn push(&self, mut row: TxnLogRow) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        row.id = id;
        self.rows.lock().push(row);
        id
    }

    /// `system:transactions` rows: `(key, document)` pairs, oldest first.
    pub fn catalog_rows(&self) -> Vec<(String, Value)> {
        self.rows.lock().iter().map(|r| (format!("txn{}", r.id), r.to_value())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(state: TxnState, incarnations: u32) -> TxnLogRow {
        TxnLogRow {
            id: 0,
            batch: 1,
            index: 0,
            bucket: "b".into(),
            state,
            reads: 2,
            writes: 1,
            incarnations,
        }
    }

    #[test]
    fn ring_caps_and_ids_climb() {
        let log = TxnLog::default();
        for _ in 0..TXN_RING_CAP {
            log.push(row(TxnState::Committed, 1));
        }
        log.push(row(TxnState::Committed, 3));
        log.push(row(TxnState::Aborted, 1));
        let ids: Vec<u64> = log.rows.lock().iter().map(|r| r.id).collect();
        assert_eq!(ids.len(), TXN_RING_CAP, "ring dropped the two oldest rows");
        assert_eq!(ids[0], 3);
        assert_eq!(ids[TXN_RING_CAP - 1], TXN_RING_CAP as u64 + 2);
    }

    #[test]
    fn catalog_rows_render() {
        let log = TxnLog::default();
        log.push(row(TxnState::Committed, 2));
        let rows = log.catalog_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, "txn1");
        let doc = &rows[0].1;
        assert_eq!(doc.get_field("state"), Some(&Value::from("committed")));
        assert_eq!(doc.get_field("incarnations"), Some(&Value::from(2u64)));
    }
}
