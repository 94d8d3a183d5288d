//! Concurrency properties of shared encoded document versions (the
//! zero-copy read path).
//!
//! A writer cycles a hot key through set / evict / repopulate while
//! readers hammer `get`. Readers must never observe:
//!
//! - a **torn** document (fields from two different versions mixed);
//! - a **stale** version after a newer one was visible;
//! - a **deep copy**: every hit must alias the writer's own allocation
//!   for that version (`SharedValue::ptr_eq`), proving a cache hit is a
//!   reference-count bump on the encoded bytes and never a copy of them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cbs_cache::{CacheLookup, EvictionPolicy, ObjectCache};
use cbs_common::{DocMeta, SeqNo, VbId};
use cbs_json::{SharedValue, Value};
use proptest::prelude::*;

/// Self-validating document: `double` and `tag` are derived from `v`, so
/// any mix of two versions is detectable.
fn doc(version: u64) -> Value {
    Value::object([
        ("v", Value::int(version as i64)),
        ("double", Value::int((version * 2) as i64)),
        ("tag", Value::from(format!("v{version}"))),
    ])
}

/// Extract the version iff the document is internally consistent.
fn consistent_version(value: &Value) -> Option<u64> {
    let v = value.get_field("v")?.as_i64()? as u64;
    let double = value.get_field("double")?.as_i64()? as u64;
    let tag = value.get_field("tag")?.as_str()?;
    (double == v * 2 && tag == format!("v{v}")).then_some(v)
}

fn meta(seq: u64) -> DocMeta {
    DocMeta { seqno: SeqNo(seq), ..Default::default() }
}

#[derive(Debug, Clone, Copy)]
enum WriterOp {
    /// Install the next version of the hot key.
    Set,
    /// NRU pass: with the quota kept over the low watermark by metadata
    /// ballast, two passes always drop every clean resident value.
    Evict,
    /// Re-install the current version (the background-fetch completion
    /// path) using the *same* allocation the version was published with.
    Repopulate,
}

fn arb_writer_ops() -> impl Strategy<Value = Vec<WriterOp>> {
    prop::collection::vec(
        prop_oneof![
            3 => Just(WriterOp::Set),
            1 => Just(WriterOp::Evict),
            2 => Just(WriterOp::Repopulate),
        ],
        32..160,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn concurrent_readers_never_observe_torn_stale_or_copied_values(
        ops in arb_writer_ops(),
        num_readers in 2usize..5,
    ) {
        let vb = VbId(0);
        // Quota tuned so ~140 metadata-only filler entries (64 + key bytes
        // each) keep mem_used above the low watermark: every Evict then
        // drops ALL clean resident values (including the hot key's), while
        // the high watermark still admits the small hot document.
        let cache = Arc::new(ObjectCache::new(4, 12_000, EvictionPolicy::ValueOnly));
        for i in 0..140 {
            cache.set(vb, &format!("f{i:02}"), meta(1), Value::int(0), false).unwrap();
        }

        // Every version's body, created once: a reader hit must alias one
        // of these allocations exactly.
        let num_sets = ops.iter().filter(|o| matches!(o, WriterOp::Set)).count();
        let docs: Arc<Vec<SharedValue>> =
            Arc::new((0..=num_sets as u64).map(|n| SharedValue::new(doc(n))).collect());

        cache.set(vb, "hot", meta(0), docs[0].clone(), false).unwrap();
        let stop = Arc::new(AtomicBool::new(false));

        let readers: Vec<_> = (0..num_readers)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let docs = Arc::clone(&docs);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || -> Result<u64, String> {
                    let mut last_seen = 0u64;
                    let mut hits = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        match cache.get(vb, "hot") {
                            CacheLookup::Hit { meta, value } => {
                                hits += 1;
                                let v = consistent_version(&value)
                                    .ok_or_else(|| format!("torn document: {value:?}"))?;
                                if v < last_seen {
                                    return Err(format!("stale read: v{v} after v{last_seen}"));
                                }
                                if meta.seqno.0 != v {
                                    return Err(format!(
                                        "meta/value mismatch: seqno {} vs v{v}", meta.seqno.0
                                    ));
                                }
                                if !SharedValue::ptr_eq(&value, &docs[v as usize]) {
                                    return Err(format!("v{v} was deep-copied, not shared"));
                                }
                                last_seen = v;
                            }
                            CacheLookup::ValueGone { meta } => {
                                // Metadata survives value eviction and must
                                // never roll back either.
                                if meta.seqno.0 < last_seen {
                                    return Err(format!(
                                        "stale meta: seqno {} after v{last_seen}", meta.seqno.0
                                    ));
                                }
                            }
                            CacheLookup::Tombstone { .. } | CacheLookup::Miss => {
                                return Err("hot key vanished entirely".to_string());
                            }
                        }
                    }
                    Ok(hits)
                })
            })
            .collect();

        let mut version = 0u64;
        for op in &ops {
            match op {
                WriterOp::Set => {
                    version += 1;
                    cache
                        .set(vb, "hot", meta(version), docs[version as usize].clone(), false)
                        .unwrap();
                }
                WriterOp::Evict => cache.evict_to_watermark(),
                WriterOp::Repopulate => {
                    cache.repopulate(vb, "hot", meta(version), docs[version as usize].clone());
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            let outcome = r.join().expect("reader thread must not panic");
            prop_assert!(outcome.is_ok(), "reader saw an invalid state: {:?}", outcome);
        }

        // The writer's allocations were shared, never duplicated: the
        // current version is still alive in the cache (or only in `docs`
        // if evicted), and older versions have exactly one owner again.
        for (n, d) in docs.iter().enumerate() {
            if (n as u64) < version {
                prop_assert!(
                    SharedValue::is_unique(d),
                    "superseded v{} must have been released by the cache", n
                );
            }
        }
    }
}
