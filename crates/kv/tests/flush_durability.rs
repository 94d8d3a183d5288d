//! The flusher's durability contract, driven through the engine's public
//! API with real threads and real (or really failing) log files: what the
//! queue-depth gauge promises, what a failed commit leaves behind, and what
//! a restart finds in the bucket's log.

// Tests unwrap freely; the crate's unwrap_used deny targets lib code (the
// allow-unwrap-in-tests config covers #[test] fns but not file helpers).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cbs_common::{Cas, Error, SeqNo, VbId};
use cbs_json::Value;
use cbs_kv::{DataEngine, EngineConfig, FlusherPool, MutateMode, MutationResult};
use cbs_storage::CYCLE_SLICE;

const VBS: u16 = 16;

fn upsert(e: &DataEngine, key: &str, v: i64) -> MutationResult {
    e.set(key, Value::object([("v", Value::int(v))]), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap()
}

/// An engine whose log cannot take a byte: the file is a symlink to
/// `/dev/full`, so every write to it fails with ENOSPC.
#[cfg(target_os = "linux")]
fn engine_with_full_disk() -> Arc<DataEngine> {
    let cfg = EngineConfig::for_test(VBS);
    std::os::unix::fs::symlink("/dev/full", cfg.data_dir.join("shard_0.couch")).unwrap();
    let e = DataEngine::new(cfg).unwrap();
    e.activate_all();
    e
}

fn queued(e: &DataEngine) -> u64 {
    e.vbucket_stats().iter().map(|s| s.queued_items).sum()
}

/// A failed commit changes nothing but the order of the queue: its keys
/// are queued again, the gauge still counts each dirty key exactly once,
/// nothing is persisted, and the next cycle tries them again.
#[cfg(target_os = "linux")]
#[test]
fn failed_commit_keeps_every_key_queued_and_counted_once() {
    let e = engine_with_full_disk();
    let a = upsert(&e, "a", 1);
    upsert(&e, "b", 1);
    assert_eq!(e.disk_queue_len(), 2);
    for round in 0..3 {
        assert!(matches!(e.flush_once(), Err(Error::Io(_))), "round {round}");
        assert_eq!(e.disk_queue_len(), 2, "round {round}");
        assert_eq!(queued(&e), 2, "round {round}");
    }
    // A newer version of a queued key is de-duplicated, a new key counts.
    upsert(&e, "a", 2);
    upsert(&e, "c", 1);
    assert!(e.flush_once().is_err());
    assert_eq!((e.disk_queue_len(), queued(&e)), (3, 3));
    assert_eq!(e.persisted_seqno(a.vb), SeqNo::ZERO);
    assert_eq!(e.stats().flushed.get(), 0);
    assert!(e.storage_stats().iter().all(|(_, s)| s.file_bytes == 0), "nothing was indexed");
    let err = e.wait_persisted(a.vb, a.seqno, Duration::from_millis(20)).unwrap_err();
    assert!(matches!(err, Error::Timeout(_)));

    // A cycle larger than one slice: the failure lands in the append of its
    // first slice, mid-cycle, and changes no more than a failed commit.
    let pad = Value::from("p".repeat(1_000));
    for i in 0..100 {
        let body = Value::object([("pad", pad.clone())]);
        e.set(&format!("big{i}"), body, MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
    }
    const { assert!(100 * 1_000 > CYCLE_SLICE, "the cycle spans more than one slice") };
    for round in 0..2 {
        assert!(matches!(e.flush_once(), Err(Error::Io(_))), "round {round}");
        assert_eq!((e.disk_queue_len(), queued(&e)), (103, 103), "round {round}");
    }
    assert_eq!(e.stats().flushed.get(), 0);
    assert!(e.storage_stats().iter().all(|(_, s)| s.file_bytes == 0), "nothing was indexed");
}

/// `disk_queue_len() == 0` means durable: a key leaves the gauge only
/// after the commit that carried it has synced. (The gauge used to drop at
/// the snapshot, reading 0 with a whole cycle still in flight.)
#[test]
fn an_empty_disk_queue_means_everything_is_persisted() {
    let e = DataEngine::new(EngineConfig::for_test(VBS)).unwrap();
    e.activate_all();
    let pool = FlusherPool::spawn(Arc::clone(&e), Duration::from_millis(2)).unwrap();
    for round in 0..150 {
        let written: Vec<MutationResult> =
            (0..6).map(|i| upsert(&e, &format!("k{}", (round * 7 + i) % 40), round)).collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while e.disk_queue_len() > 0 {
            assert!(Instant::now() < deadline, "queue never drained");
            std::hint::spin_loop();
        }
        for m in written {
            assert!(
                e.persisted_seqno(m.vb) >= m.seqno,
                "round {round}: gauge read 0 with {:?} {:?} not yet persisted",
                m.vb,
                m.seqno
            );
        }
    }
    pool.shutdown();
}

/// Writers × the flusher × a log whose every commit fails: no key is ever
/// dirty-but-unreachable — every dirty key stays queued in a vBucket the
/// next cycle visits, counted once — and `wait_persisted` times out instead
/// of hanging.
#[cfg(target_os = "linux")]
#[test]
fn writers_flusher_and_failing_commits_never_strand_a_key() {
    let e = engine_with_full_disk();
    let pool = FlusherPool::spawn(Arc::clone(&e), Duration::from_millis(1)).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..3)
        .map(|w| {
            let (e, stop) = (Arc::clone(&e), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut stranded_keys = HashSet::new();
                let mut i = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    let key = format!("w{w}-{}", i % 97);
                    upsert(&e, &key, i);
                    stranded_keys.insert(key);
                    i += 1;
                }
                stranded_keys
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(400));
    stop.store(true, Ordering::Relaxed);
    let mut failing_keys = HashSet::new();
    for w in writers {
        failing_keys.extend(w.join().unwrap());
    }
    assert!(!failing_keys.is_empty(), "the workload must write");
    let expected = failing_keys.len() as u64;

    // Every key stays counted, through any number of failed cycles.
    let deadline = Instant::now() + Duration::from_secs(10);
    while e.disk_queue_len() != expected {
        assert!(Instant::now() < deadline, "gauge {} != {expected}", e.disk_queue_len());
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(120)); // two more failed cycles and back-offs
    assert_eq!(e.disk_queue_len(), expected, "failed cycles must not move the gauge");
    pool.shutdown(); // its final drain fails too

    assert_eq!(e.disk_queue_len(), expected);
    assert_eq!(queued(&e), expected, "every dirty key is in a queue");
    // ... and the queues are reachable: the next cycle visits them (and
    // fails again) rather than finding nothing to do.
    assert!(matches!(e.flush_once(), Err(Error::Io(_))));
    assert_eq!((e.disk_queue_len(), queued(&e)), (expected, expected));
    let vb = (0..VBS).map(VbId).find(|vb| e.high_seqno(*vb) > SeqNo::ZERO);
    let vb = vb.expect("a written vBucket");
    let err = e.wait_persisted(vb, e.high_seqno(vb), Duration::from_millis(20)).unwrap_err();
    assert!(matches!(err, Error::Timeout(_)));
}

/// Writes acknowledged by `wait_persisted` are in the bucket's log, and the
/// log alone brings them back: a second engine opened on the directory
/// while the first one's pool is still alive — no shutdown, no final drain
/// — recovers every one of them.
#[test]
fn acked_writes_survive_a_restart_from_the_logs_alone() {
    let cfg = EngineConfig::for_test(VBS);
    let dir = cfg.data_dir.clone();
    let e = DataEngine::new(cfg).unwrap();
    e.activate_all();
    let pool = FlusherPool::spawn(Arc::clone(&e), Duration::from_secs(3600)).unwrap();
    let mut acked = Vec::new();
    for i in 0..120 {
        let key = format!("doc{i}");
        let m = upsert(&e, &key, i);
        if i % 3 == 0 {
            e.delete(&format!("doc{}", i / 2), Cas::WILDCARD).ok();
        }
        acked.push((key, m));
    }
    for (_, m) in &acked {
        e.wait_persisted(m.vb, e.high_seqno(m.vb), Duration::from_secs(10)).unwrap();
    }
    assert!(std::fs::read_dir(&dir).unwrap().all(|f| {
        let name = f.unwrap().file_name().into_string().unwrap();
        name.starts_with("shard_") && name.ends_with(".couch")
    }));

    let mut cfg2 = EngineConfig::for_test(VBS);
    cfg2.data_dir = dir;
    let restarted = DataEngine::new(cfg2).unwrap();
    for vb in (0..VBS).map(VbId) {
        restarted.recover_vb(vb).unwrap();
        assert_eq!(restarted.high_seqno(vb), e.high_seqno(vb), "{vb:?}");
        assert_eq!(restarted.persisted_seqno(vb), e.high_seqno(vb), "{vb:?}");
    }
    restarted.activate_all();
    for (key, _) in &acked {
        match e.get(key) {
            Ok(live) => assert_eq!(restarted.get(key).unwrap().value, live.value, "{key}"),
            Err(_) => assert!(matches!(restarted.get(key), Err(Error::KeyNotFound(_))), "{key}"),
        }
    }
    pool.shutdown();
}
