//! The memory-first backfill against the disk-first one it replaced.
//!
//! `DataEngine::backfill_disk_first` is the old algorithm, kept verbatim as
//! the oracle: read every persisted record above `since`, merge the dirty
//! tail over it, latest version per key. The property suite drives random
//! histories — upserts, deletes, expiries, reads (lazy expiry, background
//! fetch), drain cycles, eviction passes under a tight quota, purge and
//! re-create, restart — under both eviction policies, and after every step
//! requires the two to agree item for item and on `high`, for `since` at 0,
//! mid-history, the high seqno and one past it. A second test runs the
//! lock-free caller case: a writer, flusher and evictor busy during
//! `backfill`, which must still return every acknowledged key once, in
//! seqno order — and a consumer that chains its snapshots, each resuming
//! from the last one's `high`, must miss no write.
//!
//! (A unit-test module rather than a file under `tests/`: the oracle is
//! `#[cfg(test)]` and reads the engine's private cache and store.)

#![cfg(test)]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use super::*;
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const VBS: u16 = 4;
const KEYS: u8 = 24;
/// Small enough that a few documents' values cross the high watermark.
const QUOTA: usize = 12_000;

#[derive(Debug, Clone)]
enum Op {
    Upsert {
        k: u8,
        pad: u16,
    },
    /// Written with a TTL already passed: the next read or pager run turns
    /// it into a tombstone.
    UpsertExpired {
        k: u8,
    },
    Get {
        k: u8,
    },
    Delete {
        k: u8,
    },
    Flush,
    Evict,
    Pager,
    PurgeRecreate {
        vb: u16,
    },
    Restart,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let key = || (0..KEYS).boxed();
    prop::collection::vec(
        prop_oneof![
            6 => (key(), 0u16..1500).prop_map(|(k, pad)| Op::Upsert { k, pad }),
            1 => key().prop_map(|k| Op::UpsertExpired { k }),
            2 => key().prop_map(|k| Op::Get { k }),
            2 => key().prop_map(|k| Op::Delete { k }),
            3 => Just(Op::Flush),
            3 => Just(Op::Evict),
            1 => Just(Op::Pager),
            1 => (0..VBS).prop_map(|vb| Op::PurgeRecreate { vb }),
            1 => Just(Op::Restart),
        ],
        1..60,
    )
}

fn open(dir: &std::path::Path, policy: EvictionPolicy) -> Arc<DataEngine> {
    let mut cfg = EngineConfig::for_test(VBS);
    cfg.data_dir = dir.to_path_buf();
    cfg.eviction = policy;
    cfg.cache_quota = QUOTA;
    let e = DataEngine::new(cfg).unwrap();
    for vb in (0..VBS).map(VbId) {
        e.recover_vb(vb).unwrap();
    }
    e.activate_all();
    e
}

fn doc(pad: u16) -> Value {
    Value::object([("pad", Value::from("x".repeat(pad as usize)))])
}

/// A refused write (`TempOom` under the tight quota, delete of an absent
/// key) is part of the history like any other step.
fn apply(e: &mut Arc<DataEngine>, dir: &std::path::Path, policy: EvictionPolicy, op: &Op) {
    let key = |k: &u8| format!("k{k}");
    match op {
        Op::Upsert { k, pad } => {
            let _ = e.set(&key(k), doc(*pad), MutateMode::Upsert, Cas::WILDCARD, 0);
        }
        Op::UpsertExpired { k } => {
            let _ = e.set(&key(k), doc(8), MutateMode::Upsert, Cas::WILDCARD, now_secs() - 1);
        }
        Op::Get { k } => {
            let _ = e.get(&key(k));
        }
        Op::Delete { k } => {
            let _ = e.delete(&key(k), Cas::WILDCARD);
        }
        Op::Flush => {
            e.flush_once().unwrap();
        }
        Op::Evict => e.cache.evict_to_watermark(),
        Op::Pager => {
            e.run_expiry_pager();
        }
        Op::PurgeRecreate { vb } => {
            e.purge_vb(VbId(*vb)).unwrap();
            e.set_vb_state(VbId(*vb), VbState::Active);
        }
        Op::Restart => {
            // Whatever was dirty is lost, as in a crash.
            *e = open(dir, policy);
        }
    }
}

fn check_against_oracle(e: &DataEngine) -> std::result::Result<(), TestCaseError> {
    for vb in (0..VBS).map(VbId) {
        let top = e.high_seqno(vb);
        for since in [SeqNo::ZERO, SeqNo(top.0 / 2), top, top.next()] {
            let (items, high) = e.backfill(vb, since).unwrap();
            let (want, want_high) = e.backfill_disk_first(vb, since).unwrap();
            prop_assert_eq!(&items, &want, "vb {:?} since {:?}", vb, since);
            prop_assert_eq!(high, want_high, "vb {:?} since {:?}", vb, since);
        }
    }
    Ok(())
}

fn run_history(policy: EvictionPolicy, ops: &[Op]) -> std::result::Result<(), TestCaseError> {
    let dir = cbs_storage::scratch_dir("backfill-eq");
    let mut e = open(&dir, policy);
    for op in ops {
        apply(&mut e, &dir, policy, op);
        check_against_oracle(&e)?;
    }
    drop(e);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn matches_the_disk_first_oracle_under_value_eviction(ops in arb_ops()) {
        run_history(EvictionPolicy::ValueOnly, &ops)?;
    }

    #[test]
    fn matches_the_disk_first_oracle_under_full_eviction(ops in arb_ops()) {
        run_history(EvictionPolicy::Full, &ops)?;
    }
}

/// The histories above must actually reach the states the new path treats
/// differently, or the equivalence says nothing about them.
#[test]
fn histories_reach_evicted_and_dirty_states() {
    for (policy, wholly_evicted) in
        [(EvictionPolicy::ValueOnly, false), (EvictionPolicy::Full, true)]
    {
        let dir = cbs_storage::scratch_dir("backfill-eq");
        let e = open(&dir, policy);
        for k in 0..KEYS {
            e.set(&format!("k{k}"), doc(900), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
            e.flush_once().unwrap();
        }
        e.cache.evict_to_watermark();
        e.set("k0", doc(1), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        let stats = e.cache_stats();
        assert!(stats.evictions > 0, "{stats:?}");
        assert_eq!(stats.items < u64::from(KEYS), wholly_evicted, "{stats:?}");
        check_against_oracle(&e).unwrap();
        let (memory, disk) = (e.stats.backfill_from_memory.get(), e.stats.backfill_from_disk.get());
        assert!(memory > 0 && disk > 0, "from memory {memory}, from disk {disk}");
        let _ = std::fs::remove_dir_all(dir);
    }
}

thread_local! {
    /// Run by `backfill` on this thread between its cache copy and its log
    /// read, with no lock held.
    static BETWEEN_COPY_AND_LOG_READ: std::cell::RefCell<Option<Box<dyn Fn()>>> =
        const { std::cell::RefCell::new(None) };
}

pub(super) fn between_copy_and_log_read() {
    BETWEEN_COPY_AND_LOG_READ.with_borrow(|hook| hook.as_ref().map(|hook| hook()));
}

/// What the writer and the flusher have done so far, and whether the
/// writer still runs.
#[derive(Default)]
struct Progress {
    writes: AtomicU64,
    flushes: AtomicU64,
    writing: AtomicBool,
}

impl Progress {
    /// Yield until `done` holds or the writer has stopped.
    fn until(&self, done: impl Fn(&Progress) -> bool) {
        while self.writing.load(Ordering::SeqCst) && !done(self) {
            std::thread::yield_now();
        }
    }
}

/// What a chaining consumer has applied: key → (seqno, value) of the newest
/// version its passes returned (`None` for a tombstone).
type Applied = HashMap<DocKey, (SeqNo, Option<SharedValue>)>;

/// key → vBucket, seqno and value (`None`: deleted) of its last
/// acknowledged write.
type Acked = HashMap<String, (VbId, SeqNo, Option<Value>)>;

/// One pass of a consumer that catches up by snapshots alone (a view
/// update, a rebalance mover): resume from `cursor`, apply, move the cursor
/// to the snapshot's `high`.
fn chained_pass(e: &DataEngine, vb: VbId, cursor: &mut SeqNo, applied: &mut Applied) {
    let (items, high) = e.backfill(vb, *cursor).unwrap();
    for item in items {
        if applied.get(&item.key).is_none_or(|(seqno, _)| *seqno < item.meta.seqno) {
            applied.insert(item.key, (item.meta.seqno, item.value));
        }
    }
    *cursor = high;
}

/// Callers that hold no lock (an index build, a primary scan, a view
/// update) run `backfill` against live writers, drain cycles and eviction
/// passes. The reader runs for as long as the writer does, so every round
/// races it — and the writer keeps going (past `WRITES`, up to one
/// deadline) until the reader has raced it for more than `ROUNDS` rounds
/// and been served from disk, and a second reader has chained more than
/// `CHAINED` passes, so what the test reaches does not depend on how fast
/// the writer is. The chain resumes each vBucket's snapshot from the last
/// one's `high`, and inside each of its backfills, between the cache copy
/// and the log read, waits for every key to be rewritten and for two drain
/// cycles to finish — so the log read returns evicted keys newer than
/// writes the copy missed. After each pass, every write acknowledged at or
/// below the chain's cursor is applied (or superseded), and once the
/// writer stops one last pass leaves the chain holding exactly the
/// acknowledged state.
#[test]
fn backfill_beside_a_writer_returns_every_acknowledged_key_once() {
    use parking_lot::Mutex;
    const WRITES: u64 = 3_000;
    const ROUNDS: u64 = 10;
    const CHAINED: u64 = 40;
    for policy in [EvictionPolicy::ValueOnly, EvictionPolicy::Full] {
        let dir = cbs_storage::scratch_dir("backfill-eq");
        let e = open(&dir, policy);
        let acked: Mutex<Acked> = Mutex::new(HashMap::new());
        let mut cursors = [SeqNo::ZERO; VBS as usize];
        let mut applied = Applied::new();
        let chained = AtomicU64::new(0);
        let progress = Arc::new(Progress { writing: AtomicBool::new(true), ..Progress::default() });
        let raced = AtomicBool::new(false);
        let deadline = cbs_common::Deadline::after(std::time::Duration::from_secs(60));
        let mut rounds = 0u64;
        let missed = std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0.. {
                    let raced =
                        raced.load(Ordering::SeqCst) && chained.load(Ordering::SeqCst) > CHAINED;
                    let failed = !progress.writing.load(Ordering::SeqCst);
                    if (i >= WRITES && raced) || failed || deadline.expired() {
                        break;
                    }
                    progress.writes.fetch_add(1, Ordering::SeqCst);
                    let key = format!("k{}", i % u64::from(KEYS));
                    let value = (i % 7 != 3).then(|| doc((i % 5 * 300) as u16));
                    let done = match &value {
                        None => e.delete(&key, Cas::WILDCARD),
                        Some(v) => e.set(&key, v.clone(), MutateMode::Upsert, Cas::WILDCARD, 0),
                    };
                    if let Ok(m) = done {
                        acked.lock().insert(key, (m.vb, m.seqno, value));
                    }
                }
                progress.writing.store(false, Ordering::SeqCst);
            });
            s.spawn(|| {
                while progress.writing.load(Ordering::SeqCst) {
                    e.flush_once().unwrap();
                    e.cache.evict_to_watermark();
                    progress.flushes.fetch_add(1, Ordering::SeqCst);
                }
            });
            // Stops everything at the first write it missed.
            let chain = s.spawn(|| {
                let hook = Arc::clone(&progress);
                BETWEEN_COPY_AND_LOG_READ.set(Some(Box::new(move || {
                    let writes = hook.writes.load(Ordering::SeqCst) + u64::from(KEYS);
                    hook.until(|p| p.writes.load(Ordering::SeqCst) >= writes);
                    let flushes = hook.flushes.load(Ordering::SeqCst) + 2;
                    hook.until(|p| p.flushes.load(Ordering::SeqCst) >= flushes);
                })));
                while progress.writing.load(Ordering::SeqCst) {
                    let vb = VbId((chained.fetch_add(1, Ordering::SeqCst) % u64::from(VBS)) as u16);
                    let cursor = &mut cursors[vb.index()];
                    chained_pass(&e, vb, cursor, &mut applied);
                    let acked = acked.lock();
                    let mut at_or_below = acked.iter().filter(|(_, a)| a.0 == vb && a.1 <= *cursor);
                    let missed = at_or_below.find_map(|(key, (_, seqno, _))| {
                        let got = applied.get(key.as_str()).map(|(s, _)| *s);
                        (got < Some(*seqno))
                            .then(|| format!("{key}@{seqno:?}: chain at {cursor:?} has {got:?}"))
                    });
                    if missed.is_some() {
                        progress.writing.store(false, Ordering::SeqCst);
                        return missed;
                    }
                }
                None
            });
            while progress.writing.load(Ordering::SeqCst) {
                let vb = VbId((rounds % u64::from(VBS)) as u16);
                let since = if rounds.is_multiple_of(3) {
                    SeqNo(e.high_seqno(vb).0 / 2)
                } else {
                    SeqNo::ZERO
                };
                let before = acked.lock().clone();
                let (items, high) = e.backfill(vb, since).unwrap();
                assert!(high >= since);
                let mut seen = HashSet::new();
                for pair in items.windows(2) {
                    assert!(pair[0].meta.seqno < pair[1].meta.seqno, "seqno order: {items:?}");
                }
                for item in &items {
                    assert!(item.meta.seqno > since, "{item:?}");
                    assert!(seen.insert(item.key.as_str()), "{} twice", item.key);
                    assert_eq!(item.value.is_some(), !item.is_deletion());
                }
                for (key, (_, seqno, _)) in before.iter().filter(|(_, a)| a.0 == vb && a.1 > since)
                {
                    let got = items.iter().find(|i| &i.key == key).map(|i| i.meta.seqno);
                    assert!(got >= Some(*seqno), "{key}@{seqno:?} acked, backfill has {got:?}");
                }
                rounds += 1;
                if rounds > ROUNDS && e.stats.backfill_from_disk.get() > 0 {
                    raced.store(true, Ordering::SeqCst);
                }
            }
            chain.join().unwrap()
        });
        assert_eq!(missed, None, "{policy:?}: a chained pass missed a write");
        assert!(rounds > ROUNDS, "only {rounds} backfills raced the writer");
        let chained = chained.into_inner();
        assert!(chained > CHAINED, "only {chained} chained passes raced the writer");
        assert!(e.stats.backfill_from_disk.get() > 0, "nothing was evicted under the reader");
        check_against_oracle(&e).unwrap();
        for vb in (0..VBS).map(VbId) {
            chained_pass(&e, vb, &mut cursors[vb.index()], &mut applied);
        }
        let live = |(key, (seqno, value)): (&DocKey, &(SeqNo, Option<SharedValue>))| {
            Some((key.to_string(), (*seqno, Value::clone(value.as_ref()?))))
        };
        let chain: HashMap<String, (SeqNo, Value)> = applied.iter().filter_map(live).collect();
        let acked: HashMap<String, (SeqNo, Value)> = (acked.into_inner().into_iter())
            .filter_map(|(key, (_, seqno, value))| Some((key, (seqno, value?))))
            .collect();
        assert_eq!(chain, acked, "{policy:?}: the chain's state is the acknowledged one");
        let _ = std::fs::remove_dir_all(dir);
    }
}
