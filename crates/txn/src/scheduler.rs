//! The Block-STM style batch scheduler (optimistic parallel execution with
//! a serial commit frontier).
//!
//! A batch of `n` transactions is assigned indices `0..n`; the committed
//! result is **defined** to equal executing them serially in index order —
//! that is the serializability witness the test battery checks against.
//! Execution, however, is optimistic and parallel:
//!
//! 1. workers claim transactions and execute them speculatively, reading
//!    through [`MvMemory`] (staged writes of lower-indexed transactions)
//!    with fall-through to a cached base snapshot of the engine, recording
//!    a read set of `(key, version-origin)` pairs and buffering writes;
//! 2. a **commit frontier** advances serially: the frontier transaction's
//!    read set is re-resolved against the multi-version map, and
//! 3. on mismatch the transaction's staged writes are flagged as
//!    *estimates* (poisoning later readers), its incarnation is bumped and
//!    it re-executes — at the frontier the committed prefix is final, so
//!    the second execution always validates and the batch always makes
//!    progress (no livelock).
//!
//! Two drivers share this core: [`run_batch`] executes on real threads,
//! and [`run_deterministic`] replays the same validation logic in virtual
//! "waves" of `workers` transactions so conflict counts and logical step
//! counts are a pure function of `(batch, workers)` — that is what the
//! bench harness emits.
//!
//! Lock discipline: scheduler state is [`rank::TXN_SCHED`], multi-version
//! shards are [`rank::TXN_MV`] (acquired under the scheduler lock during
//! validation), and the base-snapshot cache is the leaf
//! [`rank::TXN_BASE`]. No transaction lock is ever held across a user
//! closure or an engine call.

use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cbs_common::error::{Error, Result};
use cbs_common::sync::{rank, OrderedMutex};
use cbs_json::SharedValue;

use crate::mvmemory::{Incarnation, MvMemory, MvRead, TxnIndex};

/// A transaction body: runs any number of times (incarnations), must be
/// deterministic given its reads, and reports failure by returning an
/// error (which aborts the transaction without side effects).
pub type TxnFn = Arc<dyn Fn(&mut TxnCtx<'_>) -> Result<()> + Send + Sync>;

/// A function resolving a key against the committed engine state the batch
/// started from.
pub type BaseReader<'a> = &'a (dyn Fn(&str) -> Result<Option<SharedValue>> + Sync);

/// Where a transactional read resolved, recorded for commit validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOrigin {
    /// Staged write of `(txn index, incarnation)` inside this batch.
    Version(TxnIndex, Incarnation),
    /// Fell through to the base snapshot of the engine.
    Storage,
}

/// Batch-start snapshot of the engine: reads through `reader` once per key
/// and memoizes, so every incarnation of every transaction sees one stable
/// base state regardless of when it executes.
struct BaseView<'a> {
    reader: BaseReader<'a>,
    cache: OrderedMutex<HashMap<String, Option<SharedValue>>>,
}

impl<'a> BaseView<'a> {
    fn new(reader: BaseReader<'a>) -> BaseView<'a> {
        BaseView { reader, cache: OrderedMutex::new(rank::TXN_BASE, HashMap::new()) }
    }

    fn read(&self, key: &str) -> Result<Option<SharedValue>> {
        if let Some(v) = self.cache.lock().get(key) {
            return Ok(v.clone());
        }
        // Fetch outside the cache lock: the reader dispatches through the
        // smart client, whose locks rank far below TXN_BASE.
        let fetched = (self.reader)(key)?;
        let mut cache = self.cache.lock();
        Ok(cache.entry(key.to_string()).or_insert(fetched).clone())
    }
}

/// The handle a transaction body uses to read and write documents.
///
/// All mutations are buffered in a private write set until the scheduler
/// commits the transaction; nothing here touches the engine.
pub struct TxnCtx<'a> {
    idx: TxnIndex,
    incarnation: Incarnation,
    /// Visibility horizon: reads resolve to staged writes of transactions
    /// with index `< vis`. The parallel driver uses `vis == idx`; the
    /// deterministic wave driver uses the wave's start index.
    vis: TxnIndex,
    mv: &'a MvMemory,
    base: &'a BaseView<'a>,
    reads: Vec<(String, ReadOrigin)>,
    writes: BTreeMap<String, Option<SharedValue>>,
}

impl TxnCtx<'_> {
    /// This transaction's index inside the batch (= serial commit slot).
    pub fn index(&self) -> TxnIndex {
        self.idx
    }

    /// Execution attempt number, starting at 1.
    pub fn incarnation(&self) -> Incarnation {
        self.incarnation
    }

    /// Read a document; `None` when absent. Reads observe this
    /// transaction's own buffered writes first, then staged writes of
    /// lower-indexed transactions, then the base snapshot.
    pub fn get(&mut self, key: &str) -> Result<Option<SharedValue>> {
        if let Some(v) = self.writes.get(key) {
            return Ok(v.clone());
        }
        match self.mv.read(key, self.vis) {
            MvRead::Version { idx, incarnation, value } => {
                self.reads.push((key.to_string(), ReadOrigin::Version(idx, incarnation)));
                Ok(value)
            }
            MvRead::Estimate { idx } => Err(Error::TxnConflict(format!(
                "txn {} read {key:?} staged by txn {idx} pending re-execution",
                self.idx
            ))),
            MvRead::Storage => {
                let v = self.base.read(key)?;
                self.reads.push((key.to_string(), ReadOrigin::Storage));
                Ok(v)
            }
        }
    }

    /// Write a document unconditionally.
    pub fn upsert(&mut self, key: &str, value: impl Into<SharedValue>) {
        self.writes.insert(key.to_string(), Some(value.into()));
    }

    /// Create a document; fails with [`Error::KeyExists`] if it exists.
    pub fn insert(&mut self, key: &str, value: impl Into<SharedValue>) -> Result<()> {
        if self.get(key)?.is_some() {
            return Err(Error::KeyExists(key.to_string()));
        }
        self.upsert(key, value);
        Ok(())
    }

    /// Overwrite a document; fails with [`Error::KeyNotFound`] if absent.
    pub fn replace(&mut self, key: &str, value: impl Into<SharedValue>) -> Result<()> {
        if self.get(key)?.is_none() {
            return Err(Error::KeyNotFound(key.to_string()));
        }
        self.upsert(key, value);
        Ok(())
    }

    /// Delete a document; fails with [`Error::KeyNotFound`] if absent.
    pub fn remove(&mut self, key: &str) -> Result<()> {
        if self.get(key)?.is_none() {
            return Err(Error::KeyNotFound(key.to_string()));
        }
        self.writes.insert(key.to_string(), None);
        Ok(())
    }
}

/// Why an execution attempt ended.
#[derive(Debug, Clone)]
enum ExecOutcome {
    /// Closure returned `Ok`; writes are staged in the multi-version map.
    Ok,
    /// Closure hit an estimate marker mid-read; must re-execute.
    Conflict,
    /// Closure returned a user error or panicked; the transaction aborts
    /// (unless its reads turn out to be stale, in which case it
    /// re-executes).
    Abort(Error),
}

/// What a transaction body that panicked is reported as having failed with.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    let msg = (payload.downcast_ref::<&str>().copied())
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("a non-string payload");
    format!("transaction body panicked: {msg}")
}

/// Everything one execution attempt produced.
#[derive(Debug)]
struct ExecRecord {
    incarnation: Incarnation,
    reads: Vec<(String, ReadOrigin)>,
    writes: BTreeMap<String, Option<SharedValue>>,
    /// Keys currently staged in the multi-version map for this txn (the
    /// previous incarnation's keys when the attempt conflicted/aborted).
    published: Vec<String>,
    outcome: ExecOutcome,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Pending,
    Executing,
    Executed,
    Committed,
    Aborted,
}

struct SchedState {
    status: Vec<Status>,
    incarnations: Vec<Incarnation>,
    records: Vec<Option<ExecRecord>>,
    /// Index of the next transaction to commit; everything below is final.
    frontier: usize,
    /// Scan cursor for speculative claims (monotonic; Pending txns are
    /// exactly the never-claimed ones).
    next_claim: usize,
}

/// What a worker should do after one look at the frontier.
enum FrontierAction {
    /// Batch fully committed.
    Done,
    /// The frontier advanced; look again.
    Advanced,
    /// Execute this incarnation (the frontier transaction), then look again.
    NeedsExec { idx: TxnIndex, incarnation: Incarnation, prev: Vec<String> },
    /// Another worker owns the frontier transaction; do speculative work.
    Wait,
}

/// Terminal outcome of one transaction in a finished batch.
#[derive(Debug, Clone)]
pub enum TxnOutcome {
    /// Validated; writes drain to the engine.
    Committed,
    /// The closure's error, surfaced verbatim; no writes became visible.
    Aborted(Error),
}

impl TxnOutcome {
    /// Whether the transaction committed.
    pub fn is_committed(&self) -> bool {
        matches!(self, TxnOutcome::Committed)
    }
}

/// Result of running one batch.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-transaction terminal outcome, in batch (= serial) order.
    pub outcomes: Vec<TxnOutcome>,
    /// Validated read-set size per transaction.
    pub reads: Vec<usize>,
    /// Committed write-set size per transaction (0 for aborts).
    pub writes: Vec<usize>,
    /// Incarnations executed per transaction (1 = conflict-free).
    pub incarnations: Vec<Incarnation>,
    /// Total conflict-driven re-executions across the batch.
    pub re_executions: u64,
    /// Virtual step count from the deterministic driver (`None` for the
    /// parallel driver): waves + serialized re-executions.
    pub logical_steps: Option<u64>,
    final_writes: BTreeMap<String, Option<SharedValue>>,
}

impl BatchReport {
    /// Committed transaction count.
    pub fn committed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_committed()).count()
    }

    /// Aborted transaction count.
    pub fn aborted(&self) -> usize {
        self.outcomes.len() - self.committed()
    }

    /// Merged write set of all committed transactions in commit order:
    /// the state delta the coordinator drains to the engine. `None`
    /// values are deletes.
    pub fn final_state(&self) -> &BTreeMap<String, Option<SharedValue>> {
        &self.final_writes
    }
}

struct BatchCore<'b> {
    txns: &'b [TxnFn],
    mv: MvMemory,
    base: BaseView<'b>,
    sched: OrderedMutex<SchedState>,
    re_execs: AtomicU64,
}

impl<'b> BatchCore<'b> {
    fn new(txns: &'b [TxnFn], reader: BaseReader<'b>, shards: usize) -> BatchCore<'b> {
        let n = txns.len();
        BatchCore {
            txns,
            mv: MvMemory::new(shards),
            base: BaseView::new(reader),
            sched: OrderedMutex::new(
                rank::TXN_SCHED,
                SchedState {
                    status: vec![Status::Pending; n],
                    incarnations: vec![1; n],
                    records: (0..n).map(|_| None).collect(),
                    frontier: 0,
                    next_claim: 0,
                },
            ),
            re_execs: AtomicU64::new(0),
        }
    }

    /// Execute one incarnation. Holds **no** scheduler or multi-version
    /// locks while the user closure (and through it the base reader /
    /// smart client) runs.
    fn execute(
        &self,
        idx: TxnIndex,
        incarnation: Incarnation,
        vis: TxnIndex,
        prev: Vec<String>,
    ) -> ExecRecord {
        let mut ctx = TxnCtx {
            idx,
            incarnation,
            vis,
            mv: &self.mv,
            base: &self.base,
            reads: Vec::new(),
            writes: BTreeMap::new(),
        };
        // A body may see an inconsistent snapshot and panic on it: the
        // panic is the incarnation's failure, recorded with the reads that
        // led to it, and validation decides whether it stands (never a
        // conflict, which would re-execute a deterministic panic forever).
        let result = panic::catch_unwind(AssertUnwindSafe(|| (self.txns[idx])(&mut ctx)))
            .unwrap_or_else(|payload| Err(Error::Eval(panic_message(&*payload))));
        let TxnCtx { reads, writes, .. } = ctx;
        match result {
            Ok(()) => {
                self.mv.apply(idx, incarnation, &writes, &prev);
                let published = writes.keys().cloned().collect();
                ExecRecord { incarnation, reads, writes, published, outcome: ExecOutcome::Ok }
            }
            Err(Error::TxnConflict(_)) => ExecRecord {
                incarnation,
                reads,
                writes: BTreeMap::new(),
                published: prev,
                outcome: ExecOutcome::Conflict,
            },
            Err(e) => ExecRecord {
                incarnation,
                reads,
                writes: BTreeMap::new(),
                published: prev,
                outcome: ExecOutcome::Abort(e),
            },
        }
    }

    fn store(&self, idx: TxnIndex, rec: ExecRecord) {
        let mut s = self.sched.lock();
        debug_assert_eq!(s.status[idx], Status::Executing);
        s.records[idx] = Some(rec);
        s.status[idx] = Status::Executed;
    }

    /// Re-resolve a read set against the multi-version map; a transaction
    /// is valid iff every read resolves to the same version origin it
    /// consumed (Block-STM version validation — values are never compared).
    fn validate(&self, idx: TxnIndex, rec: &ExecRecord) -> bool {
        if matches!(rec.outcome, ExecOutcome::Conflict) {
            return false;
        }
        rec.reads.iter().all(|(key, origin)| match self.mv.read(key, idx) {
            MvRead::Version { idx: i, incarnation, .. } => {
                *origin == ReadOrigin::Version(i, incarnation)
            }
            MvRead::Estimate { .. } => false,
            MvRead::Storage => *origin == ReadOrigin::Storage,
        })
    }

    /// One look at the commit frontier. Validation and the estimate /
    /// cleanup bookkeeping happen under the scheduler lock (TXN_SCHED →
    /// TXN_MV nesting), so exactly one worker resolves each frontier slot.
    fn frontier_step(&self) -> FrontierAction {
        let mut s = self.sched.lock();
        let i = s.frontier;
        if i == self.txns.len() {
            return FrontierAction::Done;
        }
        match s.status[i] {
            Status::Pending => {
                s.status[i] = Status::Executing;
                let incarnation = s.incarnations[i];
                FrontierAction::NeedsExec { idx: i, incarnation, prev: Vec::new() }
            }
            Status::Executing => FrontierAction::Wait,
            Status::Executed => {
                let rec = s.records[i].as_ref().expect("executed txn has a record");
                if self.validate(i, rec) {
                    match &rec.outcome {
                        ExecOutcome::Ok => s.status[i] = Status::Committed,
                        ExecOutcome::Abort(_) => {
                            self.mv.remove_all(i, &rec.published);
                            s.status[i] = Status::Aborted;
                        }
                        ExecOutcome::Conflict => unreachable!("conflicts never validate"),
                    }
                    s.frontier += 1;
                    FrontierAction::Advanced
                } else {
                    let prev = rec.published.clone();
                    self.mv.mark_estimates(i, &prev);
                    s.incarnations[i] += 1;
                    let incarnation = s.incarnations[i];
                    s.status[i] = Status::Executing;
                    self.re_execs.fetch_add(1, Ordering::Relaxed);
                    FrontierAction::NeedsExec { idx: i, incarnation, prev }
                }
            }
            // The frontier never points at a finished transaction: it
            // advances in the same critical section that finishes one.
            Status::Committed | Status::Aborted => {
                unreachable!("frontier at a finished txn")
            }
        }
    }

    /// Claim the lowest never-executed transaction above the frontier for
    /// speculative execution.
    fn claim_speculative(&self) -> Option<(TxnIndex, Incarnation)> {
        let mut s = self.sched.lock();
        while s.next_claim < self.txns.len() {
            let j = s.next_claim;
            s.next_claim += 1;
            if s.status[j] == Status::Pending {
                s.status[j] = Status::Executing;
                return Some((j, s.incarnations[j]));
            }
        }
        None
    }

    fn worker(&self) {
        loop {
            match self.frontier_step() {
                FrontierAction::Done => return,
                FrontierAction::Advanced => {}
                FrontierAction::NeedsExec { idx, incarnation, prev } => {
                    let rec = self.execute(idx, incarnation, idx, prev);
                    self.store(idx, rec);
                }
                FrontierAction::Wait => {
                    if let Some((idx, incarnation)) = self.claim_speculative() {
                        let rec = self.execute(idx, incarnation, idx, Vec::new());
                        self.store(idx, rec);
                    } else {
                        std::thread::yield_now();
                    }
                }
            }
        }
    }

    fn frontier(&self) -> usize {
        self.sched.lock().frontier
    }

    fn into_report(self, logical_steps: Option<u64>) -> BatchReport {
        let n = self.txns.len();
        let mut s = self.sched.lock();
        debug_assert_eq!(s.frontier, n);
        let mut outcomes = Vec::with_capacity(n);
        let mut reads = Vec::with_capacity(n);
        let mut writes = Vec::with_capacity(n);
        let mut incarnations = Vec::with_capacity(n);
        let mut final_writes = BTreeMap::new();
        for i in 0..n {
            let rec = s.records[i].take().expect("finished txn has a record");
            reads.push(rec.reads.len());
            incarnations.push(rec.incarnation);
            match s.status[i] {
                Status::Committed => {
                    writes.push(rec.writes.len());
                    for (k, v) in rec.writes {
                        final_writes.insert(k, v);
                    }
                    outcomes.push(TxnOutcome::Committed);
                }
                Status::Aborted => {
                    writes.push(0);
                    let err = match rec.outcome {
                        ExecOutcome::Abort(e) => e,
                        _ => Error::TxnConflict("aborted without cause".into()),
                    };
                    outcomes.push(TxnOutcome::Aborted(err));
                }
                other => unreachable!("unfinished txn {i} in finished batch: {other:?}"),
            }
        }
        drop(s);
        BatchReport {
            outcomes,
            reads,
            writes,
            incarnations,
            re_executions: self.re_execs.load(Ordering::Relaxed),
            logical_steps,
            final_writes,
        }
    }
}

/// Execute a batch on `workers` real threads. The committed result equals
/// the serial execution of `txns` in index order; only scheduling (and
/// hence the re-execution count) is nondeterministic.
pub fn run_batch(txns: &[TxnFn], reader: BaseReader<'_>, workers: usize) -> BatchReport {
    let n = txns.len();
    if n == 0 {
        return BatchCore::new(txns, reader, 1).into_report(None);
    }
    let workers = workers.clamp(1, n);
    let core = BatchCore::new(txns, reader, workers * 4);
    if workers == 1 {
        core.worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| core.worker());
            }
        });
    }
    core.into_report(None)
}

/// Execute a batch in virtual waves of `workers` transactions: every wave
/// executes against the state as of the wave start (modelling simultaneous
/// optimistic execution), then the frontier drains with the same
/// validation logic as the parallel driver. Single-threaded and fully
/// deterministic — outcomes, re-execution counts and
/// [`BatchReport::logical_steps`] (`waves + re-executions`, modelling
/// serialized conflict retries) are pure functions of `(txns, workers)`.
pub fn run_deterministic(txns: &[TxnFn], reader: BaseReader<'_>, workers: usize) -> BatchReport {
    let n = txns.len();
    if n == 0 {
        return BatchCore::new(txns, reader, 1).into_report(Some(0));
    }
    let workers = workers.clamp(1, n);
    let core = BatchCore::new(txns, reader, workers * 4);
    let mut steps = 0u64;
    let mut wave_start = 0usize;
    while wave_start < n {
        let wave_end = (wave_start + workers).min(n);
        steps += 1;
        for j in wave_start..wave_end {
            {
                let mut s = core.sched.lock();
                debug_assert_eq!(s.status[j], Status::Pending);
                s.status[j] = Status::Executing;
                s.next_claim = s.next_claim.max(j + 1);
            }
            let rec = core.execute(j, 1, wave_start, Vec::new());
            core.store(j, rec);
        }
        while core.frontier() < wave_end {
            match core.frontier_step() {
                FrontierAction::Advanced => {}
                FrontierAction::NeedsExec { idx, incarnation, prev } => {
                    steps += 1;
                    let rec = core.execute(idx, incarnation, idx, prev);
                    core.store(idx, rec);
                }
                FrontierAction::Done | FrontierAction::Wait => {
                    unreachable!("single-threaded drain cannot wait")
                }
            }
        }
        wave_start = wave_end;
    }
    core.into_report(Some(steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_json::Value;

    fn int(v: Option<SharedValue>) -> i64 {
        v.and_then(|s| s.as_value().as_i64()).unwrap_or(0)
    }

    fn no_base(_: &str) -> Result<Option<SharedValue>> {
        Ok(None)
    }

    /// `n` transactions all incrementing one counter: maximal conflict.
    fn counter_batch(n: usize) -> Vec<TxnFn> {
        (0..n)
            .map(|_| {
                Arc::new(|ctx: &mut TxnCtx<'_>| {
                    let v = int(ctx.get("counter")?);
                    ctx.upsert("counter", Value::from(v + 1));
                    Ok(())
                }) as TxnFn
            })
            .collect()
    }

    #[test]
    fn parallel_counter_equals_serial() {
        let txns = counter_batch(24);
        let report = run_batch(&txns, &no_base, 4);
        assert_eq!(report.committed(), 24);
        let fin = report.final_state().get("counter").cloned().flatten();
        assert_eq!(int(fin), 24, "lost update under parallel execution");
    }

    #[test]
    fn deterministic_driver_is_reproducible_and_counts_conflicts() {
        let txns = counter_batch(16);
        let a = run_deterministic(&txns, &no_base, 4);
        let b = run_deterministic(&txns, &no_base, 4);
        assert_eq!(int(a.final_state().get("counter").cloned().flatten()), 16);
        assert_eq!(a.re_executions, b.re_executions);
        assert_eq!(a.logical_steps, b.logical_steps);
        // Waves of 4 over one hot key: all but the first txn of each wave
        // re-execute, so conflicts are guaranteed.
        assert!(a.re_executions > 0, "wave model must observe conflicts");
        // With one worker there are no concurrent waves and no conflicts.
        let serial = run_deterministic(&txns, &no_base, 1);
        assert_eq!(serial.re_executions, 0);
        assert_eq!(serial.logical_steps, Some(16));
    }

    #[test]
    fn aborted_txn_leaves_no_writes() {
        let txns: Vec<TxnFn> = vec![
            Arc::new(|ctx: &mut TxnCtx<'_>| {
                ctx.upsert("a", Value::from(1i64));
                Ok(())
            }),
            Arc::new(|ctx: &mut TxnCtx<'_>| {
                ctx.upsert("a", Value::from(99i64));
                ctx.upsert("b", Value::from(99i64));
                Err(Error::Eval("deliberate".into()))
            }),
            Arc::new(|ctx: &mut TxnCtx<'_>| {
                let a = int(ctx.get("a")?);
                ctx.upsert("c", Value::from(a));
                Ok(())
            }),
        ];
        let report = run_batch(&txns, &no_base, 3);
        assert_eq!(report.committed(), 2);
        assert!(matches!(report.outcomes[1], TxnOutcome::Aborted(Error::Eval(_))));
        assert!(!report.final_state().contains_key("b"), "aborted write leaked");
        // Txn 2 must have observed txn 0's value, not the aborted txn 1's.
        assert_eq!(int(report.final_state().get("c").cloned().flatten()), 1);
    }

    #[test]
    fn reads_fall_through_to_base_snapshot() {
        let base = |key: &str| -> Result<Option<SharedValue>> {
            Ok((key == "seeded").then(|| SharedValue::from(Value::from(7i64))))
        };
        let txns: Vec<TxnFn> = vec![Arc::new(|ctx: &mut TxnCtx<'_>| {
            let v = int(ctx.get("seeded")?);
            ctx.upsert("out", Value::from(v * 2));
            ctx.replace("missing", Value::from(0i64)).expect_err("missing key");
            Ok(())
        })];
        let report = run_batch(&txns, &base, 1);
        assert_eq!(report.committed(), 1);
        assert_eq!(int(report.final_state().get("out").cloned().flatten()), 14);
    }

    #[test]
    fn insert_remove_semantics() {
        let txns: Vec<TxnFn> = vec![
            Arc::new(|ctx: &mut TxnCtx<'_>| ctx.insert("k", Value::from(1i64))),
            Arc::new(|ctx: &mut TxnCtx<'_>| {
                ctx.insert("k", Value::from(2i64)).expect_err("duplicate insert");
                ctx.remove("k")
            }),
            Arc::new(|ctx: &mut TxnCtx<'_>| {
                // After txn 1's remove the key is gone again.
                ctx.remove("k").expect_err("already removed");
                ctx.insert("k", Value::from(3i64))
            }),
        ];
        let report = run_batch(&txns, &no_base, 2);
        assert_eq!(report.committed(), 3);
        assert_eq!(int(report.final_state().get("k").cloned().flatten()), 3);
    }

    type Driver = fn(&[TxnFn], BaseReader<'_>, usize) -> BatchReport;
    const DRIVERS: [Driver; 2] = [run_batch, run_deterministic];

    /// Txn 1 panics unless it sees txn 0's write: a speculative execution
    /// that runs before txn 0's does (always, in a deterministic wave of
    /// two) panics on a read that validation then finds stale, so it
    /// re-executes and commits.
    #[test]
    fn a_body_that_panics_only_on_a_stale_read_commits() {
        for (run, at_least) in DRIVERS.into_iter().zip([0, 1]) {
            let panics = Arc::new(AtomicU64::new(0));
            let seen = Arc::clone(&panics);
            let txns: Vec<TxnFn> = vec![
                Arc::new(|ctx: &mut TxnCtx<'_>| ctx.insert("k", Value::from(1i64))),
                Arc::new(move |ctx: &mut TxnCtx<'_>| {
                    let Some(k) = ctx.get("k")? else {
                        seen.fetch_add(1, Ordering::Relaxed);
                        panic!("txn 0's write is missing");
                    };
                    ctx.upsert("copy", k);
                    Ok(())
                }),
            ];
            let report = run(&txns, &no_base, 2);
            assert_eq!(report.committed(), 2, "{:?}", report.outcomes);
            assert_eq!(int(report.final_state().get("copy").cloned().flatten()), 1);
            let panicked = panics.load(Ordering::Relaxed);
            assert!(panicked >= at_least, "the deterministic wave always panics");
            assert_eq!(report.re_executions, panicked, "each panic was a stale read re-run");
        }
    }

    /// A body that panics on what it validly read fails for real: the
    /// transaction is reported `Aborted` with the panic's message, the
    /// others commit and the batch returns.
    #[test]
    fn a_body_that_panics_on_a_valid_read_is_aborted() {
        for run in DRIVERS {
            let txns: Vec<TxnFn> = vec![
                Arc::new(|ctx: &mut TxnCtx<'_>| ctx.insert("a", Value::from(1i64))),
                Arc::new(|ctx: &mut TxnCtx<'_>| {
                    ctx.upsert("b", Value::from(2i64));
                    ctx.get("missing")?.expect("a key nobody writes");
                    Ok(())
                }),
                Arc::new(|ctx: &mut TxnCtx<'_>| ctx.insert("c", Value::from(3i64))),
            ];
            let report = run(&txns, &no_base, 3);
            assert_eq!(report.committed(), 2);
            match &report.outcomes[1] {
                TxnOutcome::Aborted(Error::Eval(msg)) => {
                    assert!(msg.contains("panicked: a key nobody writes"), "{msg}");
                }
                other => panic!("expected a panic abort, got {other:?}"),
            }
            assert!(!report.final_state().contains_key("b"), "the panicked write leaked");
        }
    }
}
