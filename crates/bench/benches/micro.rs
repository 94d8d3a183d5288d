//! Criterion microbenchmarks (experiment A7): per-component costs.
//!
//! One group per substrate: JSON parsing, storage appends, cache ops, DCP
//! publish, the view B-tree, GSI maintenance + scans, and the N1QL
//! front-end (parse + plan) and full pipeline.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use cbs_cache::{EvictionPolicy, ObjectCache};
use cbs_common::{Cas, DocMeta, SeqNo, VbId};
use cbs_dcp::{DcpHub, DcpItem};
use cbs_index::{IndexDef, IndexStorage, Projector, ScanConsistency, ScanRange};
use cbs_json::Value;
use cbs_kv::{DataEngine, EngineConfig, MutateMode};
use cbs_n1ql::{MemoryDatastore, QueryOptions};
use cbs_storage::{BucketStore, StoredDoc};
use cbs_views::{KeyRange, Reducer, ViewBTree, ViewEntry};
use cbs_ycsb::{Generator, ScrambledZipfianGen};
use rand::{rngs::StdRng, SeedableRng};

fn sample_json() -> String {
    r#"{"name":"Dipti Borkar","email":"dipti@couchbase.com","age":34,
        "address":{"city":"San Francisco","zip":"94105"},
        "orders":[{"sku":"a1","qty":2},{"sku":"b2","qty":1},{"sku":"c3","qty":7}],
        "tags":["nosql","json","distributed"],"active":true,"score":98.6}"#
        .to_string()
}

fn bench_json(c: &mut Criterion) {
    let mut g = c.benchmark_group("json");
    let text = sample_json();
    g.throughput(Throughput::Bytes(text.len() as u64));
    g.bench_function("parse", |b| b.iter(|| cbs_json::parse(&text).unwrap()));
    let value = cbs_json::parse(&text).unwrap();
    g.bench_function("serialize", |b| b.iter(|| value.to_json_string()));
    let other = cbs_json::parse(&text).unwrap();
    g.bench_function("collate_cmp", |b| b.iter(|| cbs_json::cmp_values(&value, &other)));
    g.finish();
}

fn bench_storage(c: &mut Criterion) {
    let mut g = c.benchmark_group("storage");
    let bucket = BucketStore::open(cbs_storage::scratch_dir("bench")).unwrap();
    let store = bucket.vb(VbId(0)).unwrap();
    let mut seq = 0u64;
    g.bench_function("append", |b| {
        b.iter(|| {
            seq += 1;
            store
                .persist(&StoredDoc {
                    key: format!("k{}", seq % 10_000),
                    meta: DocMeta { seqno: SeqNo(seq), ..Default::default() },
                    deleted: false,
                    value: bytes::Bytes::from_static(b"{\"v\":1}"),
                })
                .unwrap()
        })
    });
    g.bench_function("point_get", |b| b.iter(|| store.get("k42").unwrap()));
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    let cache = ObjectCache::new(64, 1 << 30, EvictionPolicy::ValueOnly);
    let doc = cbs_json::parse(&sample_json()).unwrap();
    for i in 0..10_000u64 {
        cache
            .set(VbId((i % 64) as u16), &format!("k{i}"), DocMeta::default(), doc.clone(), false)
            .unwrap();
    }
    let mut i = 0u64;
    g.bench_function("set", |b| {
        b.iter(|| {
            i += 1;
            cache.set(
                VbId((i % 64) as u16),
                &format!("k{}", i % 10_000),
                DocMeta::default(),
                doc.clone(),
                false,
            )
        })
    });
    g.bench_function("get_hit", |b| {
        b.iter(|| {
            i += 1;
            cache.get(VbId((i % 64) as u16), &format!("k{}", i % 10_000))
        })
    });
    g.finish();
}

fn bench_dcp(c: &mut Criterion) {
    let mut g = c.benchmark_group("dcp");
    let hub = DcpHub::new(4);
    let mut stream = hub.open_stream(VbId(0), SeqNo::ZERO, &cbs_dcp::hub::EmptyBackfill).unwrap();
    let mut seq = 0u64;
    g.bench_function("publish_and_drain", |b| {
        b.iter(|| {
            seq += 1;
            hub.publish(&DcpItem::mutation(
                VbId(0),
                "k",
                DocMeta { seqno: SeqNo(seq), ..Default::default() },
                Value::int(seq as i64),
            ));
            stream.drain_available()
        })
    });
    g.finish();
}

fn bench_kv_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("kv_engine");
    let engine = DataEngine::new(EngineConfig::for_test(64)).unwrap();
    engine.activate_all();
    let doc = cbs_json::parse(&sample_json()).unwrap();
    let mut i = 0u64;
    g.bench_function("memory_first_set", |b| {
        b.iter(|| {
            i += 1;
            engine
                .set(&format!("k{}", i % 10_000), doc.clone(), MutateMode::Upsert, Cas::WILDCARD, 0)
                .unwrap()
        })
    });
    g.bench_function("get", |b| {
        b.iter(|| {
            i += 1;
            engine.get(&format!("k{}", i % 10_000))
        })
    });
    g.finish();
}

fn bench_zero_copy_hot_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("zero_copy");
    // Zipfian hot-key reads: the YCSB-A access pattern where a handful of
    // keys dominate. With Arc-shared documents a cache hit returns a
    // pointer bump, so the hottest key costs the same as the coldest —
    // this benchmark regresses if a deep clone sneaks back onto the read
    // path.
    let engine = DataEngine::new(EngineConfig::for_test(64)).unwrap();
    engine.activate_all();
    let doc = cbs_json::parse(&sample_json()).unwrap();
    const ITEMS: u64 = 10_000;
    for i in 0..ITEMS {
        engine.set(&format!("k{i}"), doc.clone(), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
    }
    let mut zipf = ScrambledZipfianGen::new(ITEMS);
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    g.bench_function("zipfian_hot_get", |b| {
        b.iter(|| {
            let k = zipf.next(&mut rng) % ITEMS;
            engine.get(&format!("k{k}")).unwrap()
        })
    });
    g.finish();
}

fn bench_flusher_pool(c: &mut Criterion) {
    let mut g = c.benchmark_group("flusher");
    // Multi-vBucket drain throughput: BATCH dirty writes spread across 64
    // vBuckets, drained by the sharded pool's group-commit path (one WAL
    // fsync per shard per drain cycle instead of one per vBucket).
    const BATCH: u64 = 1024;
    let engine = DataEngine::new(EngineConfig::for_test(64)).unwrap();
    engine.activate_all();
    let doc = cbs_json::parse(&sample_json()).unwrap();
    let mut round = 0u64;
    g.throughput(Throughput::Elements(BATCH));
    g.bench_function("multi_vb_flush_1024", |b| {
        b.iter_batched(
            || {
                round += 1;
                for i in 0..BATCH {
                    engine
                        .set(
                            &format!("k{}-{}", round, i),
                            doc.clone(),
                            MutateMode::Upsert,
                            Cas::WILDCARD,
                            0,
                        )
                        .unwrap();
                }
            },
            |()| engine.flush_once().unwrap(),
            BatchSize::PerIteration,
        )
    });
    g.finish();
}

fn bench_view_btree(c: &mut Criterion) {
    let mut g = c.benchmark_group("view_btree");
    let mut tree = ViewBTree::new(Reducer::Sum);
    for k in 0..50_000i64 {
        tree.insert(ViewEntry {
            key: Value::int(k),
            doc_id: format!("d{k}"),
            value: Value::int(k),
            vb: VbId((k % 64) as u16),
        });
    }
    let range = KeyRange::between(Value::int(10_000), Value::int(20_000));
    g.bench_function("range_reduce_precomputed", |b| b.iter(|| tree.reduce(&range, None)));
    g.bench_function("range_scan_10k", |b| b.iter(|| tree.scan(&range, None).len()));
    let mut k = 50_000i64;
    g.bench_function("insert", |b| {
        b.iter(|| {
            k += 1;
            tree.insert(ViewEntry {
                key: Value::int(k % 100_000),
                doc_id: format!("d{k}"),
                value: Value::int(k),
                vb: VbId(0),
            })
        })
    });
    g.finish();
}

fn bench_gsi(c: &mut Criterion) {
    let mut g = c.benchmark_group("gsi");
    let def =
        IndexDef { storage: IndexStorage::MemoryOptimized, ..IndexDef::simple("age", "b", "age") };
    let mgr = cbs_index::IndexManager::new(64, cbs_storage::scratch_dir("gsi-bench"));
    mgr.create_index(def.clone()).unwrap();
    mgr.build("b", "age", &cbs_dcp::hub::EmptyBackfill).unwrap();
    let doc = cbs_json::parse(r#"{"age":42,"name":"x"}"#).unwrap();
    g.bench_function("projector", |b| b.iter(|| Projector::keys_for(&def, "d1", &doc)));
    let mut seq = 0u64;
    g.bench_function("apply_mutation", |b| {
        b.iter(|| {
            seq += 1;
            mgr.apply_dcp(
                "b",
                &DcpItem::mutation(
                    VbId((seq % 64) as u16),
                    format!("d{}", seq % 10_000),
                    DocMeta { seqno: SeqNo(seq), ..Default::default() },
                    cbs_json::parse(r#"{"age":7}"#).unwrap(),
                ),
            )
        })
    });
    g.bench_function("exact_scan", |b| {
        b.iter(|| {
            mgr.scan(
                "b",
                "age",
                &ScanRange::exact(Value::int(7)),
                &ScanConsistency::NotBounded,
                Duration::from_secs(1),
                100,
            )
        })
    });
    g.finish();
}

fn bench_n1ql(c: &mut Criterion) {
    let mut g = c.benchmark_group("n1ql");
    let stmt =
        "SELECT name, age FROM profiles WHERE age > 21 AND city = 'SF' ORDER BY name LIMIT 10";
    g.bench_function("parse", |b| b.iter(|| cbs_n1ql::parse_statement(stmt).unwrap()));

    let ds = MemoryDatastore::new();
    ds.create_keyspace("profiles");
    for i in 0..5_000i64 {
        cbs_n1ql::Datastore::upsert(
            &ds,
            "profiles",
            &format!("u{i}"),
            Value::object([
                ("name", Value::from(format!("user{i}"))),
                ("age", Value::int(i % 80)),
                ("city", Value::from(if i % 3 == 0 { "SF" } else { "NY" })),
            ]),
        )
        .unwrap();
    }
    cbs_n1ql::Datastore::create_index(&ds, IndexDef::simple("age", "profiles", "age")).unwrap();
    cbs_n1ql::Datastore::create_index(&ds, IndexDef::primary("#primary", "profiles")).unwrap();
    let opts = QueryOptions::default();
    g.bench_function("plan", |b| {
        b.iter_batched(
            || cbs_n1ql::parse_statement(stmt).unwrap(),
            |parsed| cbs_n1ql::build_plan(&ds, &parsed, &opts).unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("end_to_end_indexed", |b| {
        b.iter(|| cbs_n1ql::query(&ds, "SELECT age FROM profiles WHERE age = 42", &opts).unwrap())
    });
    g.finish();
}

fn bench_obs(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs");
    let registry = cbs_obs::Registry::new("bench");
    let counter = registry.counter("bench.obs.ops");
    let hist = registry.histogram("bench.obs.latency");
    // The hot path the rest of the system pays on every instrumented op:
    // handles resolved once, then a handful of Relaxed atomic RMWs.
    g.bench_function("counter_inc", |b| b.iter(|| counter.inc()));
    g.bench_function("histogram_record", |b| b.iter(|| hist.record(Duration::from_nanos(1234))));
    // span() with no active trace: the no-op fast path every untraced
    // request takes.
    g.bench_function("span_untraced", |b| b.iter(|| cbs_obs::span("bench.obs.span")));
    g.bench_function("snapshot", |b| b.iter(|| hist.snapshot()));
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(500)).sample_size(30);
    targets = bench_json, bench_storage, bench_cache, bench_dcp, bench_kv_engine, bench_zero_copy_hot_path, bench_flusher_pool, bench_view_btree, bench_gsi, bench_n1ql, bench_obs
);
criterion_main!(benches);
