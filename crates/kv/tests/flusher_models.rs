//! Exhaustive interleaving models of the flusher shard protocol.
//!
//! Each model reproduces one concurrency bug of the sharded flusher as a
//! small explicit state machine run through `cbs_common::model::Explorer`
//! (the workspace's loom substitute — see DESIGN.md §9). Every model comes
//! in two variants:
//!
//! - **buggy** — the broken protocol shape. The explorer must find a
//!   counterexample (the bad interleaving is reachable). These variants are
//!   *revert detection*: if someone re-introduces the shape, the matching
//!   `fixed` model stops verifying, and the buggy model here documents
//!   exactly which schedule kills it.
//! - **fixed** — the shipped protocol. The explorer must verify every
//!   interleaving clean.
//!
//! The five models:
//!
//! 1. A compaction that swaps the shard's log without holding the shard's
//!    flush lock loses the records a drain cycle appends while the live
//!    ones are being copied: they are acknowledged durable, and the file
//!    they are in has just been replaced. Fixed by running the compaction
//!    under the per-shard `flush_lock`, like every other writer of the log.
//! 2. `wait_for_cycle` could miss a shutdown wakeup: `stop` was set and the
//!    condvar notified between the flusher's stop check and its wait
//!    registration → thread slept a full interval (forever, with a long
//!    one). Fixed by the generation counter bumped under the signal lock
//!    plus a stop recheck inside the wait loop.
//! 3. A failed drain dropped its snapshotted keys → items stranded
//!    dirty-but-unqueued and `wait_persisted` callers hung. Fixed by
//!    queueing every key the cycle took again, exactly once — the cache
//!    entry's queued bit, which a take clears, says whether a newer write
//!    has queued it already — and listing its vBuckets as dirty again; the
//!    queue-depth gauge counts a key until a commit that carried it has
//!    succeeded. That the taken keys are all of them rests on the cycle
//!    taking every snapshotted key before its first append: a cycle that
//!    takes each key as it appends it strands the ones it had not reached
//!    when an append fails (their bits are still set, so every later write
//!    is de-duplicated into a queue entry that no longer exists), and one
//!    that queues a taken key again without consulting its bit queues it
//!    twice.
//! 4. The memory-first DCP backfill reads two things that a writer, the
//!    flusher and the evictor all change under it: the cache shard and the
//!    storage index. It is sound because of an ordering *pair* — backfill
//!    copies the cache before it lists the index; the flusher indexes a
//!    record before it marks the item clean (and only clean items are
//!    evicted). Break either half and an acknowledged version can be in
//!    neither snapshot: value-less or absent in the cache copy, not yet in
//!    the index listing.
//! 5. A drain cycle reaches its log in slices under one sync. Indexing a
//!    slice as soon as it is appended lets a reader look up an offset that
//!    a failed sync then cuts off the log: it reads past the end. Fixed by
//!    indexing the whole cycle only after its one sync has succeeded.

// Tests unwrap freely; the crate's unwrap_used deny targets lib code (the
// allow-unwrap-in-tests config covers #[test] fns but not file helpers).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use cbs_common::model::{Explorer, Step, Violation};

// ---------------------------------------------------------------------------
// Model 1: drain cycle vs. compaction swap
// ---------------------------------------------------------------------------

/// One record moving through a drain cycle while the shard's log is
/// compacted. Lock regions are single atomic steps, matching the real
/// code's granularity.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct SwapState {
    /// Which thread holds the shard flush lock (0 = flusher, 1 = compactor).
    flush_lock: Option<u8>,
    /// The compaction has renamed the new file over the log: appends and
    /// recovery now see the new file.
    swapped: bool,
    /// The record is in the old file / in the new file.
    in_old: bool,
    in_new: bool,
    /// Drain cycle completed: the write is acknowledged as durable
    /// (`persisted_seqnos` bumped, `wait_persisted` released).
    acked: bool,
    f_pc: u8,
    c_pc: u8,
}

/// `buggy = true` models a compaction that does not take the shard flush
/// lock.
fn drain_vs_compaction_swap(buggy: bool) -> Result<(), String> {
    let init = SwapState {
        flush_lock: None,
        swapped: false,
        in_old: false,
        in_new: false,
        acked: false,
        f_pc: 0,
        c_pc: 0,
    };
    let result = Explorer::new(init)
        // Flusher: lock → append+sync to the current file → index, ack, unlock.
        .thread(|s: &mut SwapState| match s.f_pc {
            0 => {
                if s.flush_lock.is_some() {
                    return Step::Blocked;
                }
                s.flush_lock = Some(0);
                s.f_pc = 1;
                Step::Progressed
            }
            1 => {
                // `commit`: one write, one sync_data — to whichever file is
                // the log right now.
                if s.swapped {
                    s.in_new = true;
                } else {
                    s.in_old = true;
                }
                s.f_pc = 2;
                Step::Progressed
            }
            _ => {
                s.acked = true; // index + mark_clean + persisted_seqnos bump
                s.flush_lock = None;
                Step::Finished
            }
        })
        // Compactor: [lock →] copy the live records → rename + switch [→ unlock].
        .thread(move |s: &mut SwapState| match s.c_pc {
            0 => {
                if !buggy {
                    if s.flush_lock.is_some() {
                        return Step::Blocked;
                    }
                    s.flush_lock = Some(1);
                }
                s.c_pc = 1;
                Step::Progressed
            }
            1 => {
                // Stream what the indexes list into the new file.
                s.in_new = s.in_old;
                s.c_pc = 2;
                Step::Progressed
            }
            _ => {
                s.swapped = true; // replace_with + per-vBucket switch
                if !buggy {
                    s.flush_lock = None;
                }
                Step::Finished
            }
        })
        // Crash safety: an acknowledged write must be in the file that is
        // the log — the only copy there is.
        .invariant(|s: &SwapState| {
            let in_log = if s.swapped { s.in_new } else { s.in_old };
            if s.acked && !in_log {
                Err("acked write is not in the shard's log".into())
            } else {
                Ok(())
            }
        })
        .run();
    match result {
        Ok(_) => Ok(()),
        Err(cex) => Err(cex.to_string()),
    }
}

#[test]
fn compaction_swap_cannot_lose_a_drain_cycle() {
    drain_vs_compaction_swap(false).expect("fixed protocol must verify clean");
}

#[test]
fn lockless_compaction_swap_loses_acked_writes() {
    let err = drain_vs_compaction_swap(true)
        .expect_err("explorer must find the append-during-copy interleaving");
    assert!(err.contains("not in the shard's log"), "unexpected violation: {err}");
}

// ---------------------------------------------------------------------------
// Model 2: wait_for_cycle vs. shutdown (lost wakeup)
// ---------------------------------------------------------------------------

/// A flusher thread going to sleep while shutdown fires. The condvar is
/// modelled honestly as *lossy*: a notify only wakes a thread already
/// waiting. The generation counter is what makes the handshake lossless.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct WakeState {
    stop: bool,
    /// Signal generation, bumped under the signal lock by writers/shutdown.
    gen: u8,
    /// Generation recorded by the flusher when it began waiting.
    f_start: u8,
    /// Buggy variant only: is the flusher parked on the (lossy) condvar?
    f_waiting: bool,
    /// Buggy variant only: did a notify land while it was parked?
    wake: bool,
    f_pc: u8,
    s_pc: u8,
}

/// `buggy = true` models the pre-fix shape: no generation handshake, stop
/// not rechecked under the signal lock — just a raw condvar wait.
fn wait_vs_shutdown(buggy: bool) -> Result<(), String> {
    let init = WakeState {
        stop: false,
        gen: 0,
        f_start: 0,
        f_waiting: false,
        wake: false,
        f_pc: 0,
        s_pc: 0,
    };
    let result = Explorer::new(init)
        // Flusher: outer stop check, then wait for a signal.
        .thread(move |s: &mut WakeState| match s.f_pc {
            0 => {
                // `while !stop.load()` in the pool thread's loop head.
                if s.stop {
                    return Step::Finished;
                }
                s.f_pc = 1;
                Step::Progressed
            }
            1 => {
                if buggy {
                    // Raw wait: park on the condvar; only a notify that
                    // arrives *while parked* can wake us.
                    s.f_waiting = true;
                } else {
                    // Fixed: record the generation under the signal lock.
                    s.f_start = s.gen;
                }
                s.f_pc = 2;
                Step::Progressed
            }
            _ => {
                if buggy {
                    if s.wake {
                        Step::Finished
                    } else {
                        Step::Blocked // parked; nothing rechecks stop
                    }
                } else {
                    // Fixed wait loop: `while *gen == start && !stop`.
                    if s.gen != s.f_start || s.stop {
                        Step::Finished
                    } else {
                        Step::Blocked
                    }
                }
            }
        })
        // Shutdown: set stop, then wake the shard.
        .thread(move |s: &mut WakeState| match s.s_pc {
            0 => {
                s.stop = true;
                s.s_pc = 1;
                Step::Progressed
            }
            _ => {
                if buggy {
                    // Plain notify: lost unless the flusher is already parked.
                    if s.f_waiting {
                        s.wake = true;
                    }
                } else {
                    // wake_flushers(): bump the generation under the signal
                    // lock (and notify, which the gen check subsumes).
                    s.gen = s.gen.wrapping_add(1);
                    if s.f_waiting {
                        s.wake = true;
                    }
                }
                Step::Finished
            }
        })
        .run();
    match result {
        Ok(_) => Ok(()),
        Err(cex) => match cex.violation {
            Violation::Deadlock => Err(format!("lost wakeup: {cex}")),
            _ => Err(cex.to_string()),
        },
    }
}

#[test]
fn shutdown_wakeup_cannot_be_lost() {
    wait_vs_shutdown(false).expect("fixed handshake must verify clean");
}

#[test]
fn raw_condvar_wait_sleeps_through_shutdown() {
    let err = wait_vs_shutdown(true).expect_err("explorer must find the lost-wakeup interleaving");
    assert!(err.contains("lost wakeup"), "unexpected violation: {err}");
}

// ---------------------------------------------------------------------------
// Model 3: failed drain vs. concurrent writer (stranded dirty items)
// ---------------------------------------------------------------------------

/// Two keys of one vBucket, both written and queued; one flusher whose
/// first cycle fails (injected I/O error on its append); one writer that
/// re-writes both keys. The disk-write queue's de-duplication is the cache
/// entry's queued bit: a write appends its key to the vBucket's queue only
/// when it sets the bit. The flusher runs `flush_shard`'s order: snapshot
/// the queue, take every snapshotted key (which clears its bit), append —
/// which fails — then, under the vBucket lock, queue again each key it took
/// that no newer write has queued, and list the vBucket again. Tracks, per
/// key, the bit, the queue, the cycle's snapshot and take, and the cache
/// item's dirty flag; per shard, the list of dirty vBuckets (the only
/// queues a cycle visits) and the queue-depth gauge.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct RetryState {
    /// The cache entry's queued bit.
    bit: [bool; 2],
    /// Entries of the key in the vBucket's queue.
    queue: [u8; 2],
    /// In the failed or the retrying cycle's snapshot, not yet taken.
    snapped: [bool; 2],
    /// Taken by a cycle whose commit has not returned.
    taken: [bool; 2],
    /// The cache item carries unpersisted data.
    item_dirty: [bool; 2],
    /// The vBucket is in the shard's dirty-vBucket list.
    listed: bool,
    /// The flusher swapped the list out and found the vBucket in it.
    visiting: bool,
    /// Shard dirty_count: queue entries plus the snapshot's, until a commit
    /// that carried them has succeeded.
    dirty_count: u8,
    /// The writer's last write made the queue non-empty; it still has to
    /// list the vBucket (a second lock, so a second step).
    w_must_list: bool,
    f_pc: u8,
    w_pc: u8,
    f_done: bool,
    w_done: bool,
}

#[derive(Clone, Copy, PartialEq)]
enum RetryBug {
    None,
    /// The failed cycle's snapshot is dropped instead of queued again.
    DropSnapshot,
    /// The snapshot is queued again but its vBucket is not listed again.
    ForgetList,
    /// Each key is taken as it is appended, and a failure queues again only
    /// the keys taken: a snapshotted key the cycle had not reached keeps
    /// its bit but is in no queue, so every later write to it is
    /// de-duplicated into nothing.
    TakenOnly,
    /// A taken key is queued again without consulting its bit: a newer
    /// write that queued it already leaves it queued twice.
    Unconditional,
}

fn failed_drain_vs_writer(bug: RetryBug) -> Result<(), String> {
    let init = RetryState {
        bit: [true; 2], // two acknowledged writes already queued
        queue: [1; 2],
        snapped: [false; 2],
        taken: [false; 2],
        item_dirty: [true; 2],
        listed: true,
        visiting: false,
        dirty_count: 2,
        w_must_list: false,
        f_pc: 0,
        w_pc: 0,
        f_done: false,
        w_done: false,
    };
    let swap_list = |s: &mut RetryState| {
        s.visiting = s.listed;
        s.listed = false;
    };
    // Snapshot, under the vBucket lock: the queue moves to the cycle. The
    // bits stay set until each key is taken; the gauge keeps counting.
    let snapshot = |s: &mut RetryState| {
        if s.visiting {
            for k in 0..2 {
                s.snapped[k] = s.queue[k] > 0;
                s.queue[k] = 0;
            }
        }
    };
    // `take_item`, under the cache shard lock: clear the bit, keep the key.
    let take = |s: &mut RetryState, k: usize| {
        if s.snapped[k] {
            s.snapped[k] = false;
            s.taken[k] = s.bit[k];
            s.bit[k] = false;
        }
    };
    // A dirty write to key `k`, under the vBucket lock: the cache set tests
    // and sets the bit; only the write that set it appends the key.
    let write = |s: &mut RetryState, k: usize| {
        s.item_dirty[k] = true;
        if !s.bit[k] {
            s.bit[k] = true;
            s.w_must_list = s.queue == [0, 0];
            s.queue[k] += 1;
            s.dirty_count += 1;
        }
    };
    let result = Explorer::new(init)
        // Flusher: list → snapshot → take key 0 → take key 1 → the append
        // fails → requeue → list again; then list → snapshot → take → take →
        // commit ok.
        .thread(move |s: &mut RetryState| {
            match s.f_pc {
                0 | 6 => swap_list(s),
                1 | 7 => snapshot(s),
                2 | 8 => take(s, 0),
                // Taking as it appends, the cycle fails on key 0's append
                // before it reaches key 1.
                3 if bug == RetryBug::TakenOnly => {}
                3 | 9 => take(s, 1),
                4 => {
                    // `requeue`, under the vBucket lock. A key still in the
                    // snapshot was never taken: it leaves the cycle and the
                    // gauge with the rest of what is not queued again.
                    for k in 0..2 {
                        let (taken, snapped) = (s.taken[k], s.snapped[k]);
                        s.taken[k] = false;
                        s.snapped[k] = false;
                        let requeue = match bug {
                            RetryBug::DropSnapshot => false,
                            RetryBug::Unconditional => taken,
                            _ => taken && !s.bit[k], // `ObjectCache::requeue`
                        };
                        if requeue {
                            s.bit[k] = true;
                            s.queue[k] += 1;
                        } else if taken || snapped {
                            // A newer write queued — and counted — it anew,
                            // or the variant lets it go.
                            s.dirty_count -= 1;
                        }
                    }
                }
                5 => s.listed |= bug != RetryBug::ForgetList,
                _ => {
                    // The commit succeeds. `mark_clean` is seqno-guarded: a
                    // write since the take has set the bit again, and its
                    // item stays dirty (and queued) for the next cycle.
                    for k in 0..2 {
                        if s.taken[k] {
                            s.taken[k] = false;
                            s.dirty_count -= 1;
                            if !s.bit[k] {
                                s.item_dirty[k] = false;
                            }
                        }
                    }
                    s.f_done = true;
                    return Step::Finished;
                }
            }
            s.f_pc += 1;
            Step::Progressed
        })
        // Writer: write key 0, list the vBucket if that made its queue
        // non-empty; the same for key 1.
        .thread(move |s: &mut RetryState| {
            match s.w_pc {
                0 => write(s, 0),
                2 => write(s, 1),
                _ => {
                    s.listed |= s.w_must_list;
                    s.w_must_list = false;
                    if s.w_pc == 3 {
                        s.w_done = true;
                        return Step::Finished;
                    }
                }
            }
            s.w_pc += 1;
            Step::Progressed
        })
        .invariant(|s: &RetryState| {
            // The gauge is exact: queued keys plus keys of the cycle in
            // flight — it cannot read 0 while a commit is outstanding.
            let in_queue = s.queue.iter().sum::<u8>();
            let in_flight = (0..2).filter(|&k| s.snapped[k] || s.taken[k]).count() as u8;
            if s.dirty_count != in_queue + in_flight {
                return Err(format!(
                    "dirty_count {} != queued {in_queue} + in flight {in_flight}",
                    s.dirty_count
                ));
            }
            for k in 0..2 {
                if s.queue[k] > 1 {
                    return Err(format!("key {k} queued twice"));
                }
                // The bit is the queue's de-dup set: set exactly while the
                // key is queued or snapshotted and not yet taken.
                if s.bit[k] != (s.queue[k] > 0 || s.snapped[k]) {
                    return Err(format!(
                        "key {k} stranded: queued bit {} but queue {} snapshot {}",
                        s.bit[k], s.queue[k], s.snapped[k]
                    ));
                }
                if s.item_dirty[k] && !s.bit[k] && !s.taken[k] {
                    return Err(format!("dirty key {k} stranded: neither queued nor in flight"));
                }
                // Once both threads are done, a dirty item must be queued in
                // a listed vBucket (a later cycle retries it) — otherwise
                // wait_persisted callers hang forever.
                if s.f_done && s.w_done && s.item_dirty[k] && !(s.queue[k] > 0 && s.listed) {
                    return Err(format!("dirty key {k} stranded out of the flusher's reach"));
                }
            }
            Ok(())
        })
        .run();
    match result {
        Ok(_) => Ok(()),
        Err(cex) => Err(cex.to_string()),
    }
}

#[test]
fn failed_drain_requeues_its_snapshot() {
    failed_drain_vs_writer(RetryBug::None).expect("fixed error path must verify clean");
}

#[test]
fn dropped_snapshot_strands_dirty_items() {
    let err = failed_drain_vs_writer(RetryBug::DropSnapshot)
        .expect_err("explorer must find the stranded-item interleaving");
    assert!(err.contains("stranded"), "unexpected violation: {err}");
}

#[test]
fn requeue_without_relisting_strands_the_vbucket() {
    let err = failed_drain_vs_writer(RetryBug::ForgetList)
        .expect_err("explorer must find the queued-but-unlisted interleaving");
    assert!(err.contains("out of the flusher's reach"), "unexpected violation: {err}");
}

#[test]
fn requeueing_only_the_taken_keys_strands_the_rest() {
    let err = failed_drain_vs_writer(RetryBug::TakenOnly)
        .expect_err("explorer must find the bit-set-but-unqueued key");
    assert!(err.contains("key 1 stranded: queued bit true"), "unexpected violation: {err}");
}

#[test]
fn requeueing_without_the_bit_queues_a_key_twice() {
    let err = failed_drain_vs_writer(RetryBug::Unconditional)
        .expect_err("explorer must find the doubly queued key");
    assert!(err.contains("queued twice"), "unexpected violation: {err}");
}

// ---------------------------------------------------------------------------
// Model 4: memory-first backfill vs. writer, flusher and evictor
// ---------------------------------------------------------------------------

/// One key of one vBucket. Version 1 is acknowledged and dirty at the
/// start; the writer adds version 2. Each lock region of the real code is
/// one step: a cache-shard hold, an index-lock hold.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct BackfillState {
    /// The cache entry: resident at all (full eviction drops whole
    /// entries), its version, whether its value is resident, its dirty bit.
    c_present: bool,
    c_seq: u8,
    c_value: bool,
    c_dirty: bool,
    /// Seqno of the key's record in the storage index (0 = none).
    indexed: u8,
    /// Highest acknowledged seqno.
    acked: u8,
    /// Flusher: the version its current cycle snapshotted (0 = nothing).
    f_seq: u8,
    f_pc: u8,
    e_pc: u8,
    /// Backfill: what was acknowledged when it began — the least it may
    /// return; its cache copy (seqno, 0 = no entry; value resident); the
    /// seqno the index listed; the seqno it returned.
    b_must: u8,
    b_copy: (u8, bool),
    b_listed: u8,
    b_got: u8,
    b_pc: u8,
    b_done: bool,
}

#[derive(Clone, Copy, PartialEq)]
enum BackfillBug {
    None,
    /// Backfill lists the storage index before it copies the cache.
    IndexBeforeCache,
    /// The flusher marks the item clean before its record is indexed.
    CleanBeforeIndex,
}

/// `full` selects full eviction (the evictor drops the whole entry) over
/// value-only eviction (it drops the value, metadata stays).
fn backfill_vs_writer_flusher_evictor(bug: BackfillBug, full: bool) -> Result<(), String> {
    let init = BackfillState {
        c_present: true,
        c_seq: 1,
        c_value: true,
        c_dirty: true,
        indexed: 0,
        acked: 1,
        f_seq: 0,
        f_pc: 0,
        e_pc: 0,
        b_must: 0,
        b_copy: (0, false),
        b_listed: 0,
        b_got: 0,
        b_pc: 0,
        b_done: false,
    };
    let copy_cache = |s: &mut BackfillState| {
        s.b_copy = if s.c_present { (s.c_seq, s.c_value) } else { (0, false) };
    };
    let list_index = |s: &mut BackfillState| s.b_listed = s.indexed;
    let index_record = |s: &mut BackfillState| s.indexed = s.indexed.max(s.f_seq);
    // Seqno-guarded, like `ObjectCache::mark_clean`.
    let mark_clean = |s: &mut BackfillState| {
        if s.f_seq != 0 && s.c_present && s.c_seq == s.f_seq {
            s.c_dirty = false;
        }
    };
    let result = Explorer::new(init)
        // Writer: cache set (dirty, value resident) under the vb lock, ack.
        .thread(|s: &mut BackfillState| {
            (s.c_present, s.c_seq, s.c_value, s.c_dirty) = (true, 2, true, true);
            s.acked = 2;
            Step::Finished
        })
        // Flusher, two drain cycles: snapshot the dirty version → commit and
        // index its record → mark it clean.
        .thread(move |s: &mut BackfillState| {
            match s.f_pc % 3 {
                0 => s.f_seq = if s.c_present && s.c_dirty { s.c_seq } else { 0 },
                1 if bug == BackfillBug::CleanBeforeIndex => mark_clean(s),
                1 => index_record(s),
                _ if bug == BackfillBug::CleanBeforeIndex => index_record(s),
                _ => mark_clean(s),
            }
            s.f_pc += 1;
            if s.f_pc == 6 {
                Step::Finished
            } else {
                Step::Progressed
            }
        })
        // Evictor, two passes: only a clean resident value is a victim.
        .thread(move |s: &mut BackfillState| {
            if s.c_present && s.c_value && !s.c_dirty {
                if full {
                    s.c_present = false;
                } else {
                    s.c_value = false;
                }
            }
            s.e_pc += 1;
            if s.e_pc == 2 {
                Step::Finished
            } else {
                Step::Progressed
            }
        })
        // Backfill: cache copy → index listing → read the listed record
        // for what the copy could not supply.
        .thread(move |s: &mut BackfillState| {
            let index_first = bug == BackfillBug::IndexBeforeCache;
            match s.b_pc {
                0 => {
                    s.b_must = s.acked;
                    if index_first {
                        list_index(s)
                    } else {
                        copy_cache(s)
                    }
                }
                1 if index_first => copy_cache(s),
                1 => list_index(s),
                _ => {
                    // Records are immutable once appended: reading the one
                    // listed needs nothing from the shared state.
                    s.b_got = if s.b_copy.1 { s.b_copy.0 } else { s.b_listed };
                    s.b_done = true;
                    return Step::Finished;
                }
            }
            s.b_pc += 1;
            Step::Progressed
        })
        .invariant(|s: &BackfillState| {
            if s.b_done && s.b_got < s.b_must {
                return Err(format!(
                    "backfill returned seqno {} of a key acknowledged at {} before it began",
                    s.b_got, s.b_must
                ));
            }
            Ok(())
        })
        .run();
    match result {
        Ok(_) => Ok(()),
        Err(cex) => Err(cex.to_string()),
    }
}

#[test]
fn memory_first_backfill_never_loses_an_acknowledged_version() {
    for full in [false, true] {
        backfill_vs_writer_flusher_evictor(BackfillBug::None, full)
            .expect("shipped ordering pair must verify clean");
    }
}

#[test]
fn listing_the_index_before_copying_the_cache_loses_an_evicted_version() {
    for full in [false, true] {
        let err = backfill_vs_writer_flusher_evictor(BackfillBug::IndexBeforeCache, full)
            .expect_err("explorer must find flush + evict between listing and copy");
        assert!(err.contains("acknowledged at"), "unexpected violation: {err}");
    }
}

#[test]
fn marking_clean_before_indexing_loses_an_evicted_version() {
    for full in [false, true] {
        let err = backfill_vs_writer_flusher_evictor(BackfillBug::CleanBeforeIndex, full)
            .expect_err("explorer must find the clean-but-unindexed eviction");
        assert!(err.contains("acknowledged at"), "unexpected violation: {err}");
    }
}

// ---------------------------------------------------------------------------
// Model 5: sliced commit vs. a reader, with a sync that may fail
// ---------------------------------------------------------------------------

/// A cycle of two slices on its way to the log, a reader looking an offset
/// up in the index and reading the log there, and a disk that may fail the
/// cycle's sync. Offsets count slices: slice 1 ends at 1, slice 2 at 2.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct SliceState {
    /// How far the log reaches.
    log: u8,
    /// The furthest offset the index points at (0 = nothing indexed).
    indexed: u8,
    /// The disk has failed: the cycle's sync returns an error.
    sync_fails: bool,
    f_pc: u8,
    /// The offset the reader looked up, and whether it read past the log.
    r_offset: u8,
    r_past_end: bool,
    r_pc: u8,
}

/// `buggy = true` indexes each slice as it is appended instead of the
/// whole cycle after its sync.
fn sliced_commit_vs_reader(buggy: bool) -> Result<(), String> {
    let init = SliceState {
        log: 0,
        indexed: 0,
        sync_fails: false,
        f_pc: 0,
        r_offset: 0,
        r_past_end: false,
        r_pc: 0,
    };
    let result = Explorer::new(init)
        // Flusher: append slice 1 → append slice 2 → sync, then index — or,
        // on a failed sync, cut the log back to the cycle's first byte.
        .thread(move |s: &mut SliceState| {
            if s.f_pc < 2 {
                s.log += 1; // `append_slice`
                if buggy {
                    s.indexed = s.log;
                }
                s.f_pc += 1;
                return Step::Progressed;
            }
            if s.sync_fails {
                s.log = 0;
            } else if !buggy {
                s.indexed = s.log;
            }
            Step::Finished
        })
        // The disk fails at some point, before or after the sync.
        .thread(|s: &mut SliceState| {
            s.sync_fails = true;
            Step::Finished
        })
        // Reader: look the offset up under the index lock → read there.
        .thread(|s: &mut SliceState| {
            if s.r_pc == 0 {
                s.r_offset = s.indexed;
                s.r_pc = 1;
                return Step::Progressed;
            }
            s.r_past_end = s.r_offset > s.log;
            Step::Finished
        })
        .invariant(|s: &SliceState| {
            if s.r_past_end {
                Err("a reader followed an index entry past the end of the log".into())
            } else {
                Ok(())
            }
        })
        .run();
    match result {
        Ok(_) => Ok(()),
        Err(cex) => Err(cex.to_string()),
    }
}

#[test]
fn indexing_after_the_one_sync_never_points_past_the_log() {
    sliced_commit_vs_reader(false).expect("index-after-sync must verify clean");
}

#[test]
fn indexing_each_slice_points_past_a_cut_back_log() {
    let err = sliced_commit_vs_reader(true)
        .expect_err("explorer must find the read after a failed sync cut the log back");
    assert!(err.contains("past the end of the log"), "unexpected violation: {err}");
}

// ---------------------------------------------------------------------------
// Meta: the models are small enough to stay exhaustive
// ---------------------------------------------------------------------------

/// Guard against the models silently outgrowing exhaustive exploration: all
/// five verify within a tight state bound, so `cargo test` stays fast.
#[test]
fn models_are_exhaustively_explorable() {
    let stats = Explorer::new(0u8)
        .thread(|n: &mut u8| {
            *n += 1;
            Step::Finished
        })
        .check();
    assert!(stats.states >= 1);
    // The real bound check: re-run the five fixed models and assert they
    // explore completely (Ok), which run() only returns after visiting
    // every reachable interleaving.
    drain_vs_compaction_swap(false).unwrap();
    wait_vs_shutdown(false).unwrap();
    failed_drain_vs_writer(RetryBug::None).unwrap();
    backfill_vs_writer_flusher_evictor(BackfillBug::None, false).unwrap();
    backfill_vs_writer_flusher_evictor(BackfillBug::None, true).unwrap();
    sliced_commit_vs_reader(false).unwrap();
}
