//! The traced run: where an operation's time goes, layer by layer,
//! measured from outside the product.
//!
//! The same slice of the operation stream is replayed through the whole
//! stack — once untraced, once with the span recorder and the allocation
//! counter on — and then directly against a stand-alone instance of each
//! lower layer loaded with the same documents (the *ladder*). A layer's
//! self time is its rung minus the rung below. Counts are deltas of the
//! product's public counters over the untraced pass.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cbs_cache::{EvictionPolicy, ObjectCache};
use cbs_common::{vbucket_for_key, Cas, DocMeta, SeqNo, VbId};
use cbs_core::Value;
use cbs_dcp::{DcpHub, DcpItem};
use cbs_index::{IndexDef, IndexManager, ScanConsistency, ScanRange};
use cbs_json::SharedValue;
use cbs_kv::{DataEngine, EngineConfig, FlusherPool, MutateMode};
use cbs_storage::{BucketStore, GroupCommitWal, StoredDoc};

use crate::gen::{self, Op, OpKind};
use crate::host::{self, poll_until};
use crate::stats;
use crate::trace::{Lane, Recorder};
use crate::workload::{self, Client, Env, Spec, BUCKET, NODES, REPLICAS, VBUCKETS};
use crate::{m, Args};

/// Documents per stand-alone WAL group commit, about what one flusher
/// shard drains per cycle under `kv_hot_a`.
const WAL_BATCH: usize = 32;
const WAL_COMMITS: usize = 200;
const JSON_DOCS: u32 = 2_000;
const PARSE_ROUNDS: usize = 2_000;
const DRAIN_TIMEOUT: Duration = Duration::from_secs(120);

/// The product's public counters at one instant.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    replica_applies: f64,
    bg_fetches: f64,
    dedup_writes: f64,
    items_flushed: f64,
    flush_cycles: f64,
    cache_hits: f64,
    cache_misses: f64,
    evictions: f64,
    tmp_ooms: f64,
    dcp_published: f64,
    index_applied: f64,
    plancache_hits: f64,
    plancache_misses: f64,
    phase_plan_ns: f64,
    phase_index_scan_ns: f64,
    phase_fetch_ns: f64,
    phase_run_ns: f64,
    queries: f64,
    file_bytes: f64,
    stale_bytes: f64,
    compactions: f64,
    written_bytes: f64,
    process_cpu_s: f64,
    client_cpu_s: f64,
}

impl Counters {
    fn read(env: &Env) -> Counters {
        let stats = env.cluster.stats();
        let all = stats.merged();
        let c = |name: &str| all.counter(name) as f64;
        // Histograms keep an exact sum; `mean * count` recovers it.
        let sum_ns = |name: &str| {
            let h = all.histogram(name);
            h.mean().map_or(0.0, |mean| mean.as_nanos() as f64 * h.count() as f64)
        };
        let (mut file_bytes, mut stale_bytes, mut compactions) = (0.0, 0.0, 0.0);
        for node in env.cluster.inner().nodes() {
            let Ok(engine) = node.engine(BUCKET) else { continue };
            for (_, s) in engine.storage_stats() {
                file_bytes += s.file_bytes as f64;
                stale_bytes += s.stale_bytes as f64;
                compactions += s.compactions as f64;
            }
        }
        Counters {
            replica_applies: c("kv.engine.replica_applies"),
            bg_fetches: c("kv.engine.bg_fetches"),
            dedup_writes: c("kv.flusher.dedup_writes"),
            items_flushed: c("kv.flusher.items_flushed"),
            flush_cycles: all.histogram("kv.flusher.fsync_latency").count() as f64,
            cache_hits: c("kv.cache.hits"),
            cache_misses: c("kv.cache.misses"),
            evictions: c("kv.cache.evictions"),
            tmp_ooms: c("kv.cache.tmp_ooms"),
            dcp_published: c("kv.dcp.items_published"),
            index_applied: c("index.manager.items_applied"),
            plancache_hits: c("n1ql.plancache.hits"),
            plancache_misses: c("n1ql.plancache.misses"),
            phase_plan_ns: sum_ns("n1ql.phase.plan"),
            phase_index_scan_ns: sum_ns("n1ql.phase.index_scan"),
            phase_fetch_ns: sum_ns("n1ql.phase.fetch"),
            phase_run_ns: sum_ns("n1ql.phase.run"),
            queries: all.histogram("n1ql.phase.run").count() as f64,
            file_bytes,
            stale_bytes,
            compactions,
            written_bytes: host::written_bytes(),
            process_cpu_s: host::process_cpu_s(),
            client_cpu_s: host::thread_cpu_s(),
        }
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Every recorded series' sorted durations, grouped once, and the cost of
/// the two clock reads around a span, which the medians are net of.
struct Medians {
    series: std::collections::BTreeMap<(Lane, &'static str), Vec<u64>>,
    clock_ns: f64,
}

impl Medians {
    fn of(rec: &Recorder) -> Medians {
        Medians { series: rec.series(), clock_ns: clock_overhead_ns() }
    }

    /// Median in microseconds; 0 when nothing was recorded under the name.
    fn us(&self, lane: Lane, name: &'static str) -> f64 {
        let sorted = self.series.get(&(lane, name)).map_or(&[][..], Vec::as_slice);
        stats::percentile(sorted, 50.0).map_or(0.0, |ns| (ns as f64 - self.clock_ns).max(0.0) / 1e3)
    }

    fn calls(&self, lane: Lane, name: &'static str) -> usize {
        self.series.get(&(lane, name)).map_or(0, Vec::len)
    }
}

/// What two back-to-back clock reads cost, in nanoseconds.
fn clock_overhead_ns() -> f64 {
    let mut d: Vec<u64> = (0..10_001)
        .map(|_| {
            let t0 = Instant::now();
            (Instant::now() - t0).as_nanos() as u64
        })
        .collect();
    d.sort_unstable();
    d[d.len() / 2] as f64
}

fn span_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Get => "get",
        OpKind::Upsert | OpKind::Insert => "upsert",
        OpKind::UpsertDurable => "upsert_durable",
        OpKind::Scan => "execute",
    }
}

/// The traced run of one workload; returns the result line.
pub fn run(spec: &Spec, args: &Args, trace_path: &std::path::Path) -> Result<String, String> {
    let n = spec.trace_ops;
    let warm_ops = n / 4;
    let ops = gen::op_stream(args.seed, &spec.mix, warm_ops + 2 * n);
    let keys = workload::keys_for(&spec.mix, &ops);
    let pool = gen::update_pool(args.seed);
    let (warm_slice, rest) = ops.split_at(warm_ops);
    let (untraced_ops, traced_ops) = rest.split_at(n);

    let (env, _) = Env::setup(spec, args.seed, &keys)?;
    let mut client = Client::new(&env, spec, &keys, &pool);
    let warm = client.replay(warm_slice, None, |_, _, _| {});

    // Pass 1, untraced: the end-to-end reference and every count.
    let calib_ms = host::calib_ms();
    let before = Counters::read(&env);
    let untraced = client.replay(untraced_ops, None, |_, _, _| {});
    let after = Counters::read(&env);
    let mem_used_mb = env.cache_stats().mem_used as f64 / (1 << 20) as f64;

    // Pass 2, traced: spans around every call, allocations counted, and
    // the two queues sampled at every window boundary.
    let mut rec = Recorder::new();
    let (mut queue_depth_max, mut lag_max) = (0u64, 0u64);
    let lag_table = env.cluster.inner().replication_lag(BUCKET);
    let mut spans = 0usize;
    let (traced, allocs) = crate::alloc::counted(|| {
        client.replay(traced_ops, None, |kind, t0, t1| {
            rec.record(Lane::Cluster, span_name(kind), t0, t1);
            spans += 1;
            if spans.is_multiple_of(workload::window_ops(n)) {
                queue_depth_max = queue_depth_max.max(env.disk_queue_len());
                if let Some(t) = &lag_table {
                    let lag = t.registry().snapshot().gauge("cluster.replication.lag_max");
                    lag_max = lag_max.max(lag);
                }
            }
        })
    });

    // On the durable workload, the same writes without the wait.
    if spec.mix.write == OpKind::UpsertDurable {
        for op in traced_ops.iter().filter(|o| o.kind == OpKind::UpsertDurable).take(n / 4) {
            let value = pool[op.arg as usize].clone();
            let key = &keys[op.key as usize];
            rec.time(Lane::Cluster, "upsert", || env.bucket.upsert(key, value)).map_err(err)?;
        }
    }
    for op in traced_ops.iter().take(20_000) {
        let key = &keys[op.key as usize];
        rec.time(Lane::Cluster, "route", || env.bucket.client().vb_for_key(key));
    }
    if spec.has_scans() {
        n1ql_rung(&env, &mut rec)?;
    }
    let failed = warm.failed + untraced.failed + traced.failed;
    let attempted = (warm.done() + untraced.done() + traced.done()) as u64;
    drop(client);
    env.teardown();

    // The rungs below the cluster, each on a stand-alone instance.
    let scratch = std::env::temp_dir().join("ladder");
    let vbs: Vec<VbId> =
        keys.iter().map(|k| VbId(vbucket_for_key(k.as_bytes(), VBUCKETS))).collect();
    let rung = Rung { spec, seed: args.seed, keys: &keys, vbs: &vbs, pool: &pool, ops: traced_ops };
    let (engine, flushers) = rung.kv_load(&scratch.join("kv"))?;
    if spec.has_scans() {
        rung.index(&scratch.join("index"), &engine, &mut rec)?;
    }
    rung.kv_replay(&engine, &mut rec)?;
    drop(flushers);
    drop(engine);
    rung.cache(&mut rec)?;
    rung.storage(&scratch.join("storage"), &mut rec)?;
    rung.dcp(&mut rec)?;
    let doc_bytes = json_rung(args.seed, &mut rec)?;
    let _ = std::fs::remove_dir_all(&scratch);

    if let Some(dir) = trace_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(trace_path, rec.chrome_json())
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    // ---- Derive the metrics. ----
    let d = |f: fn(&Counters) -> f64| f(&after) - f(&before);
    let done = untraced.done() as f64;
    let is_write = |o: &&Op| !o.kind.is_read();
    let writes = untraced_ops.iter().filter(is_write).count() as f64;
    let inserts = untraced_ops.iter().filter(|o| o.kind == OpKind::Insert).count() as f64;
    let traced_writes = traced_ops.iter().filter(is_write).count() as f64;
    let traced_reads = traced_ops.len() as f64 - traced_writes;
    let user_bytes = writes * doc_bytes;
    let med = Medians::of(&rec);

    let (reads, writes_lat) = untraced.latencies_by_class(untraced_ops);
    let rate = |p: &workload::Pass| p.done() as f64 / p.elapsed.as_secs_f64();
    let (ops_per_s, window_iqr) =
        stats::median_and_iqr(untraced.window_rates(n)).unwrap_or((0.0, 0.0));

    let read_name = span_name(spec.mix.read);
    let write_name = span_name(spec.mix.write);
    let traced_read = med.us(Lane::Cluster, read_name);
    let traced_write = med.us(Lane::Cluster, write_name);
    let route = med.us(Lane::Cluster, "route");
    let (kv_get, kv_set) = (med.us(Lane::Kv, "get"), med.us(Lane::Kv, "set"));
    let (cache_get, cache_set) = (med.us(Lane::Cache, "get"), med.us(Lane::Cache, "set"));
    let wal_commit = med.us(Lane::Storage, "wal_commit");
    let index_scan = med.us(Lane::Index, "scan");
    let (parse, plan) = (med.us(Lane::N1ql, "parse"), med.us(Lane::N1ql, "plan"));
    let plancache_hit_ratio =
        ratio(d(|c| c.plancache_hits), d(|c| c.plancache_hits) + d(|c| c.plancache_misses));
    let plain_upsert = med.us(Lane::Cluster, "upsert");
    let durable = spec.mix.write == OpKind::UpsertDurable;

    // What a direct measurement explains of the untraced medians; the rest
    // is unattributed.
    let read_explained = if spec.has_scans() {
        index_scan + (1.0 - plancache_hit_ratio) * (parse + plan)
    } else {
        route + kv_get
    };
    let write_explained = route + kv_set + if durable { wal_commit } else { 0.0 };
    let unattributed_read = reads.p50_us() - read_explained;
    let unattributed_write = writes_lat.p50_us() - write_explained;

    let per_query = |ns: f64| ratio(ns, d(|c| c.queries)) / 1e3;
    let metrics = vec![
        m("cluster.client_get_us", if spec.has_scans() { 0.0 } else { traced_read - kv_get }, "us"),
        m(
            "cluster.client_upsert_us",
            (if durable { plain_upsert } else { traced_write }) - kv_set,
            "us",
        ),
        m("cluster.route_us", route, "us"),
        m("cluster.durable_wait_us", if durable { traced_write - plain_upsert } else { 0.0 }, "us"),
        m("cluster.replication_items_per_write", ratio(d(|c| c.replica_applies), writes), "count"),
        m("cluster.replication_lag_max", lag_max as f64, "count"),
        m(
            "cluster.background_cpu_us_per_op",
            (d(|c| c.process_cpu_s) - d(|c| c.client_cpu_s)) * 1e6 / done,
            "us",
        ),
        m("kv.get_us", kv_get, "us"),
        m("kv.set_us", kv_set, "us"),
        m("kv.bg_fetches_per_kop", d(|c| c.bg_fetches) * 1e3 / done, "count"),
        m("kv.flusher_queue_depth_max", queue_depth_max as f64, "count"),
        m(
            "kv.flusher_dedup_ratio",
            ratio(d(|c| c.dedup_writes), d(|c| c.dedup_writes) + d(|c| c.items_flushed)),
            "ratio",
        ),
        m(
            "kv.flusher_items_per_cycle",
            ratio(d(|c| c.items_flushed), d(|c| c.flush_cycles)),
            "count",
        ),
        m("cache.get_us", cache_get, "us"),
        m("cache.set_us", cache_set, "us"),
        m(
            "cache.hit_ratio",
            ratio(d(|c| c.cache_hits), d(|c| c.cache_hits) + d(|c| c.cache_misses)),
            "ratio",
        ),
        m("cache.evictions_per_kop", d(|c| c.evictions) * 1e3 / done, "count"),
        m("cache.tmp_ooms", d(|c| c.tmp_ooms), "count"),
        m("cache.mem_used_mb", mem_used_mb, "MiB"),
        m("storage.get_us", med.us(Lane::Storage, "get"), "us"),
        m("storage.persist_us_per_doc", med.us(Lane::Storage, "persist_doc"), "us"),
        m("storage.wal_commit_us", wal_commit, "us"),
        m("storage.fsyncs_per_kop", d(|c| c.flush_cycles) * 1e3 / done, "count"),
        m(
            "storage.bytes_written_per_user_byte",
            ratio(d(|c| c.written_bytes), user_bytes),
            "ratio",
        ),
        m(
            "storage.disk_bytes_per_live_byte",
            ratio(after.file_bytes, after.file_bytes - after.stale_bytes),
            "ratio",
        ),
        m("storage.compactions", d(|c| c.compactions), "count"),
        m("dcp.publish_us", med.us(Lane::Dcp, "publish"), "us"),
        m("dcp.items_published_per_write", ratio(d(|c| c.dcp_published), writes), "count"),
        m("index.scan_us_per_row", med.us(Lane::Index, "scan_row"), "us"),
        m("index.apply_us", med.us(Lane::Index, "apply"), "us"),
        m(
            "index.rows_examined_per_row_returned",
            ratio(traced.index_entries as f64, traced.rows_returned as f64),
            "ratio",
        ),
        m("index.items_applied_per_insert", ratio(d(|c| c.index_applied), inserts), "count"),
        m("n1ql.execute_us", if spec.has_scans() { traced_read } else { 0.0 }, "us"),
        m("n1ql.phase_plan_us", per_query(d(|c| c.phase_plan_ns)), "us"),
        m("n1ql.phase_index_scan_us", per_query(d(|c| c.phase_index_scan_ns)), "us"),
        m("n1ql.phase_fetch_us", per_query(d(|c| c.phase_fetch_ns)), "us"),
        m("n1ql.phase_run_us", per_query(d(|c| c.phase_run_ns)), "us"),
        m("n1ql.plancache_hit_ratio", plancache_hit_ratio, "ratio"),
        m("n1ql.parse_us", parse, "us"),
        m("n1ql.plan_us", plan, "us"),
        m("json.parse_us_per_kb", med.us(Lane::Json, "parse") * 1024.0 / doc_bytes, "us"),
        m("json.serialize_us_per_kb", med.us(Lane::Json, "serialize") * 1024.0 / doc_bytes, "us"),
        m("client.allocs_per_read", ratio(traced.read_allocs as f64, traced_reads), "count"),
        m("client.allocs_per_write", ratio(traced.write_allocs as f64, traced_writes), "count"),
        m("client.alloc_bytes_per_op", allocs.client_bytes as f64 / traced.done() as f64, "B"),
        m("process.allocs_per_op", allocs.process_allocs as f64 / traced.done() as f64, "count"),
        m("obs.trace_overhead_frac", 1.0 - rate(&traced) / rate(&untraced), "ratio"),
        m("e2e.ops_per_s", ops_per_s, "1/s"),
        m("e2e.cpu_us_per_op", d(|c| c.process_cpu_s) * 1e6 / done, "us"),
        m("e2e.read_p50_us", reads.p50_us(), "us"),
        m("e2e.write_p50_us", writes_lat.p50_us(), "us"),
        m("e2e.read_p99_us", reads.percentile_us(99.0), "us"),
        m("e2e.write_p99_us", writes_lat.percentile_us(99.0), "us"),
        m("unattributed_read_us", unattributed_read, "us"),
        m("unattributed_write_us", unattributed_write, "us"),
        m("host.calib_ms", calib_ms, "ms"),
        m("host.window_iqr_frac", window_iqr, "ratio"),
    ];

    // ---- The layer table. ----
    println!(
        "workload {} seed {}: traced run, {} operations per pass; trace written to {}",
        spec.name,
        args.seed,
        n,
        trace_path.display()
    );
    println!(
        "end to end (untraced pass): read p50 {:.3} us ({} samples), write p50 {:.3} us ({} samples), {:.0} ops/s",
        reads.p50_us(),
        reads.len(),
        writes_lat.p50_us(),
        writes_lat.len(),
        rate(&untraced)
    );
    // The rungs on the blocking path, with what each adds to the rung below
    // and its share of the untraced median; then what was measured directly
    // but runs in the background or only on a miss.
    println!(
        "  {:<8} {:<16} {:>8} {:>11} {:>11} {:>8}",
        "rung", "call", "calls", "median us", "self us", "share"
    );
    let row = |lane: Lane, name: &'static str, on_path: Option<(f64, f64)>| {
        let (median, calls) = (med.us(lane, name), med.calls(lane, name));
        match on_path {
            _ if calls == 0 => {}
            Some((below, e2e)) => println!(
                "  {:<8} {:<16} {calls:>8} {median:>11.3} {:>11.3} {:>7.1}%",
                lane.name(),
                name,
                median - below,
                100.0 * ratio(median - below, e2e)
            ),
            None => println!("  {:<8} {:<16} {calls:>8} {median:>11.3}", lane.name(), name),
        }
    };
    let (r50, w50) = (reads.p50_us(), writes_lat.p50_us());
    if spec.has_scans() {
        row(Lane::Cluster, "execute", Some((index_scan, r50)));
        row(Lane::Index, "scan", Some((0.0, r50)));
    } else {
        row(Lane::Cluster, "get", Some((kv_get, r50)));
        row(Lane::Kv, "get", Some((cache_get, r50)));
        row(Lane::Cache, "get", Some((0.0, r50)));
    }
    row(Lane::Cluster, "upsert_durable", Some((plain_upsert, w50)));
    row(Lane::Cluster, "upsert", Some((kv_set, w50)));
    row(Lane::Kv, "set", Some((cache_set + med.us(Lane::Dcp, "publish"), w50)));
    row(Lane::Cache, "set", Some((0.0, w50)));
    row(Lane::Dcp, "publish", Some((0.0, w50)));
    println!("  measured directly, off the median's path:");
    for (lane, name) in [
        (Lane::Cluster, "route"),
        (Lane::Index, "scan_row"),
        (Lane::Index, "apply"),
        (Lane::N1ql, "parse"),
        (Lane::N1ql, "plan"),
        (Lane::Storage, "get"),
        (Lane::Storage, "persist_doc"),
        (Lane::Storage, "wal_commit"),
        (Lane::Json, "serialize"),
        (Lane::Json, "parse"),
    ] {
        row(lane, name, None);
    }
    println!("  unattributed_read_us {unattributed_read:.3}, unattributed_write_us {unattributed_write:.3}");
    for x in &metrics {
        println!("  {:<40} {:>14.4} {}", x.name, x.value, x.unit);
    }
    crate::result_line(attempted, failed, &metrics)
}

fn err(e: cbs_core::Error) -> String {
    format!("traced run: {e}")
}

/// Parse and plan the scan statement directly (what a plan-cache miss
/// would pay).
fn n1ql_rung(env: &Env, rec: &mut Recorder) -> Result<(), String> {
    let ds = cbs_cluster::ClusterDatastore::new(Arc::clone(env.cluster.inner()));
    let opts = cbs_core::QueryOptions::with_named_args([
        ("start", Value::from(gen::key_for(0))),
        ("lim", Value::int(50)),
    ]);
    for _ in 0..PARSE_ROUNDS {
        let stmt = rec
            .time(Lane::N1ql, "parse", || cbs_n1ql::parse_statement(workload::SCAN_STATEMENT))
            .map_err(err)?;
        rec.time(Lane::N1ql, "plan", || cbs_n1ql::build_plan(&ds, &stmt, &opts)).map_err(err)?;
    }
    Ok(())
}

/// Hands out each vBucket's next seqno as the metadata of a new version.
struct NextMeta(Vec<u64>);

impl NextMeta {
    fn new() -> NextMeta {
        NextMeta(vec![0; VBUCKETS as usize])
    }

    fn next(&mut self, vb: VbId) -> DocMeta {
        self.0[vb.index()] += 1;
        let seqno = self.0[vb.index()];
        DocMeta { seqno: SeqNo(seqno), cas: Cas(seqno), ..DocMeta::default() }
    }
}

fn drain(engine: &DataEngine) -> Result<(), String> {
    poll_until("the stand-alone engine to flush", DRAIN_TIMEOUT, || engine.disk_queue_len() == 0)
}

/// What the rungs share: the workload's documents, keys and the traced
/// slice of its stream.
struct Rung<'a> {
    spec: &'a Spec,
    seed: u64,
    keys: &'a [String],
    vbs: &'a [VbId],
    pool: &'a [SharedValue],
    ops: &'a [Op],
}

impl Rung<'_> {
    /// Quota of a stand-alone engine or cache that holds every record once
    /// and should keep the share of them resident that a node of the
    /// cluster keeps of its active and replica copies.
    fn quota(&self) -> usize {
        self.spec.quota_per_node().saturating_mul(NODES) / (1 + REPLICAS as usize)
    }

    fn load_batches(&self) -> impl Iterator<Item = (u32, Vec<SharedValue>)> + '_ {
        let records = self.spec.mix.records;
        let batch = (records / 20).max(1);
        (0..records)
            .step_by(batch as usize)
            .map(move |from| (from, gen::load_docs(self.seed, from..(from + batch).min(records))))
    }

    /// `DataEngine` with its flusher pool, as a node runs it, loaded.
    fn kv_load(&self, dir: &std::path::Path) -> Result<(Arc<DataEngine>, FlusherPool), String> {
        let mut cfg = EngineConfig::for_test(VBUCKETS);
        cfg.cache_quota = self.quota();
        cfg.data_dir = dir.to_path_buf();
        let engine = DataEngine::new(cfg).map_err(err)?;
        engine.activate_all();
        let flushers =
            FlusherPool::spawn(Arc::clone(&engine), Duration::from_millis(10)).map_err(err)?;
        for (from, docs) in self.load_batches() {
            for (i, doc) in docs.into_iter().enumerate() {
                let key = &self.keys[from as usize + i];
                engine.set(key, doc, MutateMode::Upsert, Cas::WILDCARD, 0).map_err(err)?;
            }
            drain(&engine)?;
        }
        Ok((engine, flushers))
    }

    /// The stream's gets and writes against the stand-alone engine.
    fn kv_replay(&self, engine: &DataEngine, rec: &mut Recorder) -> Result<(), String> {
        for op in self.ops {
            let key = &self.keys[op.key as usize];
            match op.kind {
                OpKind::Get => {
                    rec.time(Lane::Kv, "get", || engine.get(key)).map_err(err)?;
                }
                OpKind::Scan => {}
                _ => {
                    let value = self.pool[op.arg as usize].clone();
                    rec.time(Lane::Kv, "set", || {
                        engine.set(key, value, MutateMode::Upsert, Cas::WILDCARD, 0)
                    })
                    .map_err(err)?;
                }
            }
        }
        drain(engine)
    }

    /// `ObjectCache` alone: lookups and clean inserts.
    fn cache(&self, rec: &mut Recorder) -> Result<(), String> {
        let cache = ObjectCache::new(VBUCKETS, self.quota(), EvictionPolicy::ValueOnly);
        let mut metas = NextMeta::new();
        for (from, docs) in self.load_batches() {
            for (i, doc) in docs.into_iter().enumerate() {
                let k = from as usize + i;
                cache
                    .set(self.vbs[k], &self.keys[k], metas.next(self.vbs[k]), doc, false)
                    .map_err(err)?;
            }
        }
        for op in self.ops {
            let (vb, key) = (self.vbs[op.key as usize], &self.keys[op.key as usize]);
            match op.kind {
                OpKind::Get => {
                    rec.time(Lane::Cache, "get", || cache.get(vb, key));
                }
                OpKind::Scan => {}
                _ => {
                    let (value, meta) = (self.pool[op.arg as usize].clone(), metas.next(vb));
                    rec.time(Lane::Cache, "set", || cache.set(vb, key, meta, value, false))
                        .map_err(err)?;
                }
            }
        }
        Ok(())
    }

    /// `VBucketStore` reads and batch appends, and `GroupCommitWal` commits.
    fn storage(&self, dir: &std::path::Path, rec: &mut Recorder) -> Result<(), String> {
        let store = BucketStore::open(dir.to_path_buf()).map_err(err)?;
        let mut metas = NextMeta::new();
        let mut wal_docs: Vec<StoredDoc> = Vec::new();
        for (from, docs) in self.load_batches() {
            let mut by_vb: std::collections::BTreeMap<VbId, Vec<StoredDoc>> = Default::default();
            for (i, doc) in docs.into_iter().enumerate() {
                let k = from as usize + i;
                let vb = self.vbs[k];
                by_vb.entry(vb).or_default().push(StoredDoc {
                    key: self.keys[k].clone(),
                    meta: metas.next(vb),
                    deleted: false,
                    value: bytes::Bytes::from(doc.as_value().to_json_string()),
                });
            }
            for (vb, docs) in by_vb {
                let vbstore = store.vb(vb).map_err(err)?;
                let start = Instant::now();
                vbstore.persist_batch(&docs).map_err(err)?;
                let end = Instant::now();
                // A document's share of its batch.
                rec.record(
                    Lane::Storage,
                    "persist_doc",
                    start,
                    start + (end - start) / docs.len() as u32,
                );
                if wal_docs.len() < WAL_BATCH * WAL_COMMITS {
                    wal_docs.extend(docs);
                }
            }
        }
        for op in self.ops.iter().filter(|o| o.kind == OpKind::Get).take(50_000) {
            let vbstore = store.vb(self.vbs[op.key as usize]).map_err(err)?;
            rec.time(Lane::Storage, "get", || vbstore.get(&self.keys[op.key as usize]))
                .map_err(err)?;
        }
        let wal = GroupCommitWal::open(dir, 0).map_err(err)?;
        for batch in wal_docs.chunks(WAL_BATCH) {
            rec.time(Lane::Storage, "wal_commit", || {
                wal.append_cycle([(VbId(0), batch)]).and_then(|_| wal.sync())
            })
            .map_err(err)?;
        }
        Ok(())
    }

    /// `DcpHub::publish` with the two subscribers per vBucket a cluster
    /// with one replica and the index feed has.
    fn dcp(&self, rec: &mut Recorder) -> Result<(), String> {
        let hub = DcpHub::new(VBUCKETS);
        let mut streams = Vec::new();
        for vb in (0..VBUCKETS).map(VbId) {
            for _ in 0..2 {
                let stream = hub.open_stream(vb, SeqNo::ZERO, &cbs_dcp::hub::EmptyBackfill);
                streams.push(stream.map_err(err)?);
            }
        }
        let mut metas = NextMeta::new();
        for op in self.ops.iter().filter(|o| !o.kind.is_read()) {
            let vb = self.vbs[op.key as usize];
            let value = self.pool[op.arg as usize].clone();
            let item =
                DcpItem::mutation(vb, self.keys[op.key as usize].clone(), metas.next(vb), value);
            rec.time(Lane::Dcp, "publish", || hub.publish(&item));
        }
        drop(streams);
        Ok(())
    }

    /// `IndexManager` alone: a primary index built from the stand-alone
    /// engine, the stream's scans, and its inserts applied as DCP items.
    fn index(
        &self,
        dir: &std::path::Path,
        engine: &DataEngine,
        rec: &mut Recorder,
    ) -> Result<(), String> {
        let mgr = IndexManager::new(VBUCKETS, dir.to_path_buf());
        mgr.create_and_build(IndexDef::primary("#primary", BUCKET), engine).map_err(err)?;
        let mut metas = NextMeta((0..VBUCKETS).map(|v| engine.high_seqno(VbId(v)).get()).collect());
        for op in self.ops {
            let key = &self.keys[op.key as usize];
            match op.kind {
                OpKind::Scan => {
                    let range = ScanRange::at_least(Value::from(key.clone()));
                    let start = Instant::now();
                    let rows = mgr
                        .scan(
                            BUCKET,
                            "#primary",
                            &range,
                            &ScanConsistency::NotBounded,
                            Duration::from_secs(30),
                            op.arg as usize,
                        )
                        .map_err(err)?;
                    let end = Instant::now();
                    rec.record(Lane::Index, "scan", start, end);
                    let per_row = (end - start) / rows.len().max(1) as u32;
                    rec.record(Lane::Index, "scan_row", start, start + per_row);
                }
                OpKind::Insert => {
                    let vb = self.vbs[op.key as usize];
                    let value = self.pool[op.arg as usize].clone();
                    let item = DcpItem::mutation(vb, key.clone(), metas.next(vb), value);
                    rec.time(Lane::Index, "apply", || mgr.apply_dcp(BUCKET, &item));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// `cbs_json` alone: serialise and parse the workload's documents. Returns
/// their mean size in bytes.
fn json_rung(seed: u64, rec: &mut Recorder) -> Result<f64, String> {
    let docs = gen::load_docs(seed, 0..JSON_DOCS);
    let mut bytes = 0usize;
    for doc in &docs {
        let text = rec.time(Lane::Json, "serialize", || doc.as_value().to_json_string());
        bytes += text.len();
        rec.time(Lane::Json, "parse", || cbs_json::parse(&text))
            .map_err(|e| format!("json rung: {e}"))?;
    }
    Ok(bytes as f64 / docs.len() as f64)
}
