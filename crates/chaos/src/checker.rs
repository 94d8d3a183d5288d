//! History and cluster-state consistency checking.
//!
//! Rules over a recorded [`History`]:
//!
//! - **phantom-read** — a get observed a value no put ever attempted to
//!   write to that key.
//! - **stale-read** — outside any lossy (failover) window, a get must
//!   observe the effect of the key's last acked mutation, or of one of the
//!   unknown-outcome mutations issued after it. Per-key ops are issued by
//!   one sequential worker, so "last" is program order.
//! - **durable-floor** — even across failover windows, a get must never
//!   observe state older than the key's last durably-acked put
//!   (replicate-to-all observe succeeded, §2.3.2). This subsumes
//!   read-your-writes for durable writes; acked-but-not-durable writes
//!   *are* allowed to roll back across a failover (the paper's
//!   asynchronous-replication caveat).
//! - **seqno-regression** — per vBucket, an acked mutation that started
//!   after another acked mutation completed must carry a larger seqno,
//!   unless a failover window separates them (promotion legitimately
//!   rewinds the vBucket's seqno lineage to the replica's high seqno).
//! - **txn-atomicity** — a value staged by an aborted multi-document
//!   transaction must never be observed by any read or snapshot.
//! - **fractured-read** — a snapshot that observes one write of a
//!   committed transaction must observe the rest of its write set too
//!   (or newer committed values); see [`check_txns`].
//!
//! Rules over live cluster state ([`check_cluster`]):
//!
//! - **ownerless-vbucket** — every vBucket's active node exists, is
//!   alive, and its engine holds the vBucket in `Active` state.
//! - **replica-divergence** — after quiescence every replica's document
//!   set (replayed DCP-from-zero) matches its active's.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::Duration;

use cbs_cluster::Cluster;
use cbs_common::{SeqNo, VbId};
use cbs_dcp::BackfillSource;
use cbs_kv::DataEngine;

use crate::history::{Ack, History, OpKind, OpRecord, TxnEventKind};

/// One consistency violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which rule fired.
    pub rule: &'static str,
    /// Key involved, when per-key.
    pub key: Option<String>,
    /// Human-readable evidence.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.key {
            Some(k) => write!(f, "[{}] key={k}: {}", self.rule, self.detail),
            None => write!(f, "[{}] {}", self.rule, self.detail),
        }
    }
}

/// Check a recorded history. Returns every violation found (empty = pass).
pub fn check_history(history: &History) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut by_key: HashMap<&str, Vec<&OpRecord>> = HashMap::new();
    for op in &history.ops {
        by_key.entry(op.key.as_str()).or_default().push(op);
    }
    for (key, ops) in &by_key {
        check_key(history, key, ops, &mut violations);
    }
    check_seqnos(history, &mut violations);
    check_txns(history, &mut violations);
    violations
}

/// The state set `{Some(v), None}` a read may legally observe.
type Allowed = HashSet<Option<i64>>;

fn check_key(history: &History, key: &str, ops: &[&OpRecord], out: &mut Vec<Violation>) {
    let mut attempted: HashSet<i64> = HashSet::new();
    // Indices (into `ops`) of the last acked mutation and the last
    // durably-acked put.
    let mut last_acked: Option<usize> = None;
    let mut durable_floor: Option<usize> = None;

    for (i, op) in ops.iter().enumerate() {
        if let OpKind::Put { value, .. } = op.kind {
            attempted.insert(value);
        }
        match op.kind {
            OpKind::Put { .. } | OpKind::Delete => {
                if matches!(op.ack, Ack::Ok { .. }) {
                    last_acked = Some(i);
                    if matches!(op.kind, OpKind::Put { durable: true, .. }) {
                        durable_floor = Some(i);
                    }
                }
            }
            OpKind::Get => {
                let Ack::Ok { observed, .. } = &op.ack else { continue };
                if let Some(v) = observed {
                    if !attempted.contains(v) {
                        out.push(Violation {
                            rule: "phantom-read",
                            key: Some(key.to_string()),
                            detail: format!(
                                "observed value {v} was never written to this key (t={})",
                                op.invoked
                            ),
                        });
                        continue;
                    }
                }
                // An op executes at some unknown point inside its
                // [invoked, completed] window, so a failover "maybe
                // separates" anchor and read iff it falls anywhere in
                // (anchor.invoked, read.completed) — conservative in both
                // directions to never flag a read that raced a promotion.
                let anchor_invoked = last_acked.map(|j| ops[j].invoked).unwrap_or(0);
                let strict = !history.lossy_within(anchor_invoked, op.completed);
                let allowed = if strict {
                    allowed_strict(ops, last_acked, i)
                } else {
                    allowed_after_failover(ops, durable_floor, i)
                };
                if !allowed.contains(observed) {
                    let (rule, context) = if strict {
                        ("stale-read", "no failover window since last acked mutation")
                    } else {
                        ("durable-floor", "failover window open, durable floor still binds")
                    };
                    out.push(Violation {
                        rule,
                        key: Some(key.to_string()),
                        detail: format!(
                            "observed {observed:?} at t={} but allowed states are {:?} ({context})",
                            op.invoked,
                            sorted(&allowed),
                        ),
                    });
                }
            }
        }
    }
}

/// No failover since the last acked mutation: the read must see that
/// mutation's effect, or the effect of a later unknown-outcome mutation.
fn allowed_strict(ops: &[&OpRecord], last_acked: Option<usize>, read_idx: usize) -> Allowed {
    let mut allowed: Allowed = HashSet::new();
    let start = match last_acked {
        Some(j) => {
            allowed.insert(ops[j].effect().unwrap_or(None));
            j + 1
        }
        None => {
            allowed.insert(None); // initial state: key absent
            0
        }
    };
    for op in &ops[start..read_idx] {
        if matches!(op.ack, Ack::Maybe(_)) {
            if let Some(effect) = op.effect() {
                allowed.insert(effect);
            }
        }
    }
    allowed
}

/// A failover window is open: any prefix of the acked tail may have been
/// rolled back, but never past the durable floor.
fn allowed_after_failover(
    ops: &[&OpRecord],
    durable_floor: Option<usize>,
    read_idx: usize,
) -> Allowed {
    let mut allowed: Allowed = HashSet::new();
    let start = match durable_floor {
        Some(j) => {
            allowed.insert(ops[j].effect().unwrap_or(None));
            j + 1
        }
        None => {
            allowed.insert(None);
            0
        }
    };
    for op in &ops[start..read_idx] {
        if op.may_have_applied() {
            if let Some(effect) = op.effect() {
                allowed.insert(effect);
            }
        }
    }
    allowed
}

fn sorted(allowed: &Allowed) -> Vec<Option<i64>> {
    let mut v: Vec<Option<i64>> = allowed.iter().copied().collect();
    v.sort_unstable();
    v
}

/// Per-vBucket seqno monotonicity under happens-before, with failover
/// windows allowed to rewind the lineage.
fn check_seqnos(history: &History, out: &mut Vec<Violation>) {
    let mut by_vb: HashMap<u16, Vec<&OpRecord>> = HashMap::new();
    for op in &history.ops {
        if matches!(op.kind, OpKind::Put { .. } | OpKind::Delete) {
            if let Ack::Ok { vb, .. } = op.ack {
                by_vb.entry(vb).or_default().push(op);
            }
        }
    }
    for (vb, mut ops) in by_vb {
        ops.sort_by_key(|o| o.invoked);
        // Completed acked mutations whose seqnos are currently part of the
        // vBucket's lineage: (invoked, completed, seqno, key).
        let mut lineage: Vec<(u64, u64, u64, &str)> = Vec::new();
        for op in ops {
            let Ack::Ok { seqno, .. } = op.ack else { unreachable!() };
            let floor = lineage
                .iter()
                .filter(|(_, completed, ..)| *completed < op.invoked)
                .max_by_key(|(.., s, _)| *s)
                .copied();
            if let Some((floor_invoked, floor_completed, floor_seqno, floor_key)) = floor {
                if seqno <= floor_seqno {
                    // Same execution-uncertainty reasoning as the
                    // freshness rule: the promotion may have landed any
                    // time after the floor op started executing and
                    // before this op finished.
                    if history.lossy_within(floor_invoked, op.completed) {
                        // Failover rewound the lineage: the rolled-back
                        // tail's seqnos may be re-assigned.
                        lineage.retain(|(.., s, _)| *s < seqno);
                    } else {
                        out.push(Violation {
                            rule: "seqno-regression",
                            key: Some(op.key.clone()),
                            detail: format!(
                                "vb {vb}: acked mutation got seqno {seqno} at t={} but {floor_key} \
                                 already completed seqno {floor_seqno} at t={floor_completed} with \
                                 no failover in between",
                                op.invoked
                            ),
                        });
                        continue;
                    }
                }
            }
            lineage.push((op.invoked, op.completed, seqno, op.key.as_str()));
        }
    }
}

/// Transactional invariants over recorded [`TxnEventKind`] events and
/// snapshot observations (no-ops for histories without transactions):
///
/// - **txn-atomicity** — a value staged by an *aborted* transaction must
///   never be observed, by any get or any snapshot, anywhere, ever.
/// - **fractured-read** — if a snapshot observes committed transaction
///   T's write on one key, then for every other key in T's write set the
///   snapshot also observed, it must see T's value or a value committed
///   *after* T. Enforced only when T's commit event (recorded after its
///   drain finished) precedes the snapshot's invocation and no lossy
///   topology event falls inside `(commit, snapshot.completed)` — a
///   failover may legitimately roll back a non-durable commit's tail.
fn check_txns(history: &History, out: &mut Vec<Violation>) {
    let mut commit_at: HashMap<u64, u64> = HashMap::new();
    let mut writes_of: HashMap<u64, &[(String, i64)]> = HashMap::new();
    // Values are unique per transaction, so a value identifies its writer.
    let mut committed_value: HashMap<i64, u64> = HashMap::new();
    let mut aborted_value: HashMap<i64, u64> = HashMap::new();
    for t in &history.txns {
        match &t.kind {
            TxnEventKind::Begin => {}
            TxnEventKind::Commit { writes } => {
                commit_at.insert(t.txn, t.at);
                writes_of.insert(t.txn, writes.as_slice());
                for (_, v) in writes {
                    committed_value.insert(*v, t.txn);
                }
            }
            TxnEventKind::Abort { writes } => {
                for (_, v) in writes {
                    aborted_value.insert(*v, t.txn);
                }
            }
        }
    }
    if history.txns.is_empty() {
        return;
    }

    for op in &history.ops {
        if !matches!(op.kind, OpKind::Get) {
            continue;
        }
        let Ack::Ok { observed: Some(v), .. } = op.ack else { continue };
        if let Some(txn) = aborted_value.get(&v) {
            out.push(Violation {
                rule: "txn-atomicity",
                key: Some(op.key.clone()),
                detail: format!(
                    "get at t={} observed value {v}, which aborted txn {txn} staged and \
                     discarded",
                    op.invoked
                ),
            });
        }
    }

    for (si, snap) in history.snapshots.iter().enumerate() {
        let observed: HashMap<&str, Option<i64>> =
            snap.observed.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        for (key, value) in &snap.observed {
            let Some(value) = value else { continue };
            if let Some(txn) = aborted_value.get(value) {
                out.push(Violation {
                    rule: "txn-atomicity",
                    key: Some(key.clone()),
                    detail: format!(
                        "snapshot {si} (t={}..{}) observed value {value}, which aborted txn \
                         {txn} staged and discarded",
                        snap.invoked, snap.completed
                    ),
                });
            }
            let Some(&txn) = committed_value.get(value) else { continue };
            let commit = commit_at[&txn];
            if commit >= snap.invoked || history.lossy_within(commit, snap.completed) {
                continue;
            }
            for (other, want) in writes_of[&txn] {
                if other == key {
                    continue;
                }
                let Some(&got) = observed.get(other.as_str()) else { continue };
                let fresh_enough = match got {
                    Some(g) if g == *want => true,
                    // A different value is fine iff a transaction that
                    // committed after T wrote it.
                    Some(g) => committed_value.get(&g).is_some_and(|u| commit_at[u] > commit),
                    // Absent is always older than T's committed write.
                    None => false,
                };
                if !fresh_enough {
                    out.push(Violation {
                        rule: "fractured-read",
                        key: Some(other.clone()),
                        detail: format!(
                            "snapshot {si} (t={}..{}) observed txn {txn}'s write {value} on \
                             {key} but {got:?} on {other}; txn {txn} committed atomically at \
                             t={commit} writing {want} there",
                            snap.invoked, snap.completed
                        ),
                    });
                }
            }
        }
    }
}

/// Live document state of one vBucket on one engine, read from one
/// backfill snapshot: key → latest value (tombstoned keys excluded).
fn vb_doc_state(engine: &DataEngine, vb: VbId) -> HashMap<String, i64> {
    let Ok((items, _)) = engine.backfill(vb, SeqNo::ZERO) else {
        return HashMap::new();
    };
    let live = items.into_iter().filter(|item| !item.is_deletion());
    live.map(|item| {
        let value = item.value.as_ref().and_then(|v| v.as_i64()).unwrap_or(i64::MIN);
        (item.key.to_string(), value)
    })
    .collect()
}

/// Check live cluster state: topology sanity immediately, then replica
/// convergence within `settle` (the replication pump needs a beat to drain
/// after the workload stops).
pub fn check_cluster(cluster: &Cluster, bucket: &str, settle: Duration) -> Vec<Violation> {
    let mut out = Vec::new();
    let map = match cluster.map(bucket) {
        Ok(m) => m,
        Err(e) => {
            out.push(Violation {
                rule: "ownerless-vbucket",
                key: None,
                detail: format!("no cluster map for bucket {bucket}: {e}"),
            });
            return out;
        }
    };

    // Topology sanity: every vBucket has a live, Active owner.
    for v in 0..map.num_vbuckets() {
        let vb = VbId(v);
        let owner = map.active_node(vb);
        match cluster.node(owner) {
            Ok(node) if node.is_alive() => match node.engine(bucket) {
                Ok(engine) if engine.vb_state(vb) == cbs_kv::VbState::Active => {}
                Ok(engine) => out.push(Violation {
                    rule: "ownerless-vbucket",
                    key: None,
                    detail: format!(
                        "vb {v}: map says active on {owner:?} but engine state is {:?}",
                        engine.vb_state(vb)
                    ),
                }),
                Err(e) => out.push(Violation {
                    rule: "ownerless-vbucket",
                    key: None,
                    detail: format!("vb {v}: active node {owner:?} has no engine: {e}"),
                }),
            },
            Ok(_) => out.push(Violation {
                rule: "ownerless-vbucket",
                key: None,
                detail: format!("vb {v}: active node {owner:?} is dead"),
            }),
            Err(e) => out.push(Violation {
                rule: "ownerless-vbucket",
                key: None,
                detail: format!("vb {v}: active node {owner:?} unknown: {e}"),
            }),
        }
    }
    if !out.is_empty() {
        // Convergence is meaningless against a broken topology.
        return out;
    }

    // Replica convergence: retry until every replica's doc state matches
    // its active's, or the settle deadline expires.
    let deadline = cbs_common::time::Deadline::after(settle);
    loop {
        let mut diverged: Vec<String> = Vec::new();
        for v in 0..map.num_vbuckets() {
            let vb = VbId(v);
            let Ok(active_node) = cluster.node(map.active_node(vb)) else { continue };
            let Ok(active) = active_node.engine(bucket) else { continue };
            let active_state = vb_doc_state(&active, vb);
            for r in map.replica_nodes(vb) {
                let Ok(replica_node) = cluster.node(*r) else {
                    diverged.push(format!("vb {v}: replica {r:?} unreachable"));
                    continue;
                };
                let Ok(replica) = replica_node.engine(bucket) else {
                    diverged.push(format!("vb {v}: replica {r:?} has no engine"));
                    continue;
                };
                let replica_state = vb_doc_state(&replica, vb);
                if replica_state != active_state {
                    diverged.push(format!(
                        "vb {v}: replica {r:?} has {} docs vs active {} (first diff: {})",
                        replica_state.len(),
                        active_state.len(),
                        first_diff(&active_state, &replica_state),
                    ));
                }
            }
        }
        if diverged.is_empty() {
            break;
        }
        if deadline.expired() {
            for d in diverged {
                out.push(Violation { rule: "replica-divergence", key: None, detail: d });
            }
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    out
}

fn first_diff(active: &HashMap<String, i64>, replica: &HashMap<String, i64>) -> String {
    for (k, v) in active {
        match replica.get(k) {
            Some(rv) if rv == v => {}
            Some(rv) => return format!("{k}: active={v} replica={rv}"),
            None => return format!("{k}: active={v} replica=missing"),
        }
    }
    for (k, v) in replica {
        if !active.contains_key(k) {
            return format!("{k}: active=missing replica={v}");
        }
    }
    "(none)".to_string()
}
