//! Integration tests for the cache/storage interplay under memory
//! pressure: value-only vs full eviction (§4.3.3), background fetches,
//! and JSON parser robustness on hostile inputs.

// Tests unwrap freely; the crate's unwrap_used deny targets lib code (the
// allow-unwrap-in-tests config covers #[test] fns but not file helpers).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;
use std::time::Duration;

use cbs_cache::EvictionPolicy;
use cbs_common::{Cas, Deadline};
use cbs_dcp::{DcpFeed, DcpItem};
use cbs_json::Value;
use cbs_kv::{DataEngine, EngineConfig, FlusherPool, MutateMode};

fn engine_with(policy: EvictionPolicy, quota: usize) -> Arc<DataEngine> {
    let mut cfg = EngineConfig::for_test(16);
    cfg.eviction = policy;
    cfg.cache_quota = quota;
    let e = DataEngine::new(cfg).unwrap();
    e.activate_all();
    e
}

/// Every item queued on `feed` now.
fn queued(feed: &DcpFeed) -> Vec<DcpItem> {
    let mut out = Vec::new();
    feed.drain(Some(Deadline::after(Duration::ZERO)), &mut out);
    out
}

fn big_doc(i: i64) -> Value {
    Value::object([("i", Value::int(i)), ("pad", Value::from("x".repeat(2000)))])
}

#[test]
fn value_eviction_background_fetches_from_disk() {
    // Quota small enough that values must be evicted once clean.
    let engine = engine_with(EvictionPolicy::ValueOnly, 300_000);
    let flusher = FlusherPool::spawn(Arc::clone(&engine), Duration::from_millis(2)).unwrap();
    let n = 300i64;
    let mut written = 0;
    for i in 0..n {
        // Writes may hit TempOom while the flusher catches up; retry.
        let mut attempts = 0;
        loop {
            match engine.set(&format!("k{i}"), big_doc(i), MutateMode::Upsert, Cas::WILDCARD, 0) {
                Ok(_) => {
                    written += 1;
                    break;
                }
                Err(cbs_common::Error::TempOom) if attempts < 200 => {
                    attempts += 1;
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => panic!("unexpected: {e}"),
            }
        }
    }
    assert_eq!(written, n);
    // Wait for everything to persist, then force eviction pressure off.
    for vb in 0..16u16 {
        let vb = cbs_common::VbId(vb);
        let high = engine.high_seqno(vb);
        if high.0 > 0 {
            engine.wait_persisted(vb, high, Duration::from_secs(10)).unwrap();
        }
    }
    // Every document must still be readable — evicted values come back via
    // background fetch (§4.3.3), proven by the bg_fetch counter.
    for i in 0..n {
        let got = engine.get(&format!("k{i}")).unwrap();
        assert_eq!(got.value.get_field("i"), Some(&Value::int(i)));
    }
    let stats = engine.stats();
    assert!(stats.bg_fetches.get() > 0, "under a tight quota some reads must have gone to disk");
    flusher.shutdown();
}

#[test]
fn full_eviction_still_serves_all_documents() {
    let engine = engine_with(EvictionPolicy::Full, 300_000);
    let flusher = FlusherPool::spawn(Arc::clone(&engine), Duration::from_millis(2)).unwrap();
    let n = 200i64;
    for i in 0..n {
        loop {
            match engine.set(&format!("k{i}"), big_doc(i), MutateMode::Upsert, Cas::WILDCARD, 0) {
                Ok(_) => break,
                Err(cbs_common::Error::TempOom) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => panic!("unexpected: {e}"),
            }
        }
    }
    for vb in 0..16u16 {
        let vb = cbs_common::VbId(vb);
        let high = engine.high_seqno(vb);
        if high.0 > 0 {
            engine.wait_persisted(vb, high, Duration::from_secs(10)).unwrap();
        }
    }
    engine.cache_stats(); // warm the accounting paths
    for i in 0..n {
        let got = engine.get(&format!("k{i}")).unwrap();
        assert_eq!(got.value.get_field("i"), Some(&Value::int(i)), "k{i}");
    }
    flusher.shutdown();
}

#[test]
fn json_parser_never_panics_on_garbage() {
    use proptest::prelude::*;
    use proptest::test_runner::TestRunner;
    let mut runner = TestRunner::default();
    runner
        .run(&any::<Vec<u8>>(), |bytes| {
            if let Ok(s) = std::str::from_utf8(&bytes) {
                let _ = cbs_json::parse(s); // must not panic
            }
            Ok(())
        })
        .unwrap();
    // And some targeted nasties.
    for s in [
        "{\"a\":",
        "[[[[[[",
        "\"\\ud800\\ud800\"",
        "1e99999",
        "-",
        "{\"\":{\"\":{\"\":null}}}",
        "[1,2,3,]",
        "\u{0000}",
    ] {
        let _ = cbs_json::parse(s);
    }
}

#[test]
fn expiry_pager_reaps_without_access() {
    use cbs_dcp::DcpKind;
    let engine = engine_with(EvictionPolicy::ValueOnly, 64 << 20);
    let now = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_secs()
        as u32;
    engine
        .set("short-lived", Value::int(1), MutateMode::Upsert, Cas::WILDCARD, now.saturating_sub(1))
        .unwrap();
    engine.set("immortal", Value::int(2), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
    // Watch DCP: the pager must publish an Expiration without any read.
    let vb = engine.vb_for_key("short-lived");
    let feed = DcpFeed::default();
    engine.subscribe_dcp(&feed, vb, engine.high_seqno(vb)).unwrap();
    let reaped = engine.run_expiry_pager();
    assert_eq!(reaped, 1, "exactly the expired doc");
    let items = queued(&feed);
    assert!(items.iter().any(|i| i.kind == DcpKind::Expiration && i.key == "short-lived"));
    assert!(engine.get("immortal").is_ok());
    assert!(engine.get("short-lived").is_err());
    // Second sweep is a no-op.
    assert_eq!(engine.run_expiry_pager(), 0);
}

/// A subscription holds the vBucket's DCP channel across `backfill`, and a
/// writer of that vBucket waits in `publish` for as long. Over resident
/// documents — persisted and clean, so a disk-first backfill would read
/// every one back — that wait includes no log read.
#[test]
fn stream_open_over_a_resident_vbucket_reads_no_log() {
    use std::sync::atomic::{AtomicBool, Ordering};
    const DOCS: i64 = 500;
    const OPENS: u64 = 20;
    let engine = DataEngine::new(EngineConfig::for_test(1)).unwrap();
    engine.activate_all();
    let vb = cbs_common::VbId(0);
    for i in 0..DOCS {
        engine.set(&format!("k{i}"), big_doc(i), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
    }
    engine.flush_once().unwrap();
    assert_eq!(engine.disk_queue_len(), 0);

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut i = 0;
            while !stop.load(Ordering::SeqCst) {
                let key = format!("k{}", i % DOCS);
                engine.set(&key, big_doc(i), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
                i += 1;
            }
        });
        for _ in 0..OPENS {
            let feed = DcpFeed::default();
            engine.subscribe_dcp(&feed, vb, cbs_common::SeqNo::ZERO).unwrap();
            let items = queued(&feed);
            assert!(items.windows(2).all(|p| p[0].meta.seqno < p[1].meta.seqno), "no gap, no dup");
            let keys: std::collections::HashSet<&str> =
                items.iter().map(|i| i.key.as_str()).collect();
            assert_eq!(keys.len() as i64, DOCS, "every document, beside the writer");
        }
        stop.store(true, Ordering::SeqCst);
    });
    let stats = engine.stats();
    assert_eq!(stats.backfill_from_disk.get(), 0);
    assert_eq!(stats.backfill_from_memory.get(), OPENS * DOCS as u64);
}
