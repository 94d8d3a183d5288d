//! The four workloads: their sizes, their set-up, and the closed-loop
//! client that replays an operation stream against the product and checks
//! every answer it can.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cbs_core::{Bucket, ClusterConfig, CouchbaseCluster, Durability, QueryOptions, Value};
use cbs_json::SharedValue;
use cbs_kv::DataEngine;

use crate::gen::{self, KeyDist, Mix, Op, OpKind};
use crate::host::poll_until;
use crate::stats::Samples;

/// The paper's Figure 14 topology: four nodes running every service,
/// 1024 vBuckets, one replica. Smoke runs keep it, so per-vBucket and
/// replication costs are always in the picture.
pub const NODES: usize = 4;
pub const VBUCKETS: u16 = 1024;
pub const REPLICAS: u8 = 1;
pub const BUCKET: &str = "bench";

/// Throughput windows of a measured pass: equal operation counts.
pub const WINDOWS: usize = 32;

pub const SCAN_STATEMENT: &str =
    "SELECT meta().id AS id FROM bench WHERE meta().id >= $start LIMIT $lim";

/// Every get this often is compared with the model.
const GET_CHECK_EVERY: u64 = 64;
/// Cache quota per node and loaded record that keeps about 30% of the
/// values resident (16 MiB per node at 100k records of ~1.1 KB, two copies
/// over four nodes).
const DGM_QUOTA_PER_RECORD: usize = 168;
const RESIDENT_QUOTA: usize = 2 << 30;
const SETUP_TIMEOUT: Duration = Duration::from_secs(120);
const DURABLE_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub mix: Mix,
    /// Data larger than memory: tight quota, and the run asserts that it
    /// really was (resident ratio, hit ratio).
    pub dgm: bool,
    /// Measured operations per second of `--seconds`. Frozen: the measured
    /// phase is this fixed work, which took about `--seconds` on the host
    /// the benchmark was sized on.
    pub ops_per_second: usize,
    /// Operations of each pass of the traced run.
    pub trace_ops: usize,
}

impl Spec {
    pub fn quota_per_node(&self) -> usize {
        if self.dgm {
            self.mix.records as usize * DGM_QUOTA_PER_RECORD
        } else {
            RESIDENT_QUOTA
        }
    }

    pub fn has_scans(&self) -> bool {
        self.mix.read == OpKind::Scan
    }
}

/// The workloads at full size, or at smoke size (seconds in total, for
/// tests and CI: same code paths, every metric name, meaningless numbers).
pub fn specs(smoke: bool) -> [Spec; 4] {
    let size = |full: u32| if smoke { 2_000 } else { full };
    let ops = |full: usize| if smoke { 2_000 } else { full };
    [
        Spec {
            name: "kv_hot_a",
            mix: Mix {
                records: size(80_000),
                dist: KeyDist::Zipfian,
                read_permille: 500,
                read: OpKind::Get,
                write: OpKind::Upsert,
            },
            dgm: false,
            ops_per_second: ops(62_000),
            trace_ops: ops(160_000),
        },
        Spec {
            name: "kv_dgm_read",
            mix: Mix {
                records: size(60_000),
                dist: KeyDist::Uniform,
                read_permille: 950,
                read: OpKind::Get,
                write: OpKind::Upsert,
            },
            dgm: true,
            ops_per_second: ops(34_000),
            trace_ops: ops(125_000),
        },
        Spec {
            name: "kv_durable_w",
            mix: Mix {
                records: size(70_000),
                dist: KeyDist::Zipfian,
                read_permille: 500,
                read: OpKind::Get,
                write: OpKind::UpsertDurable,
            },
            dgm: false,
            ops_per_second: if smoke { 200 } else { 1_560 },
            trace_ops: if smoke { 200 } else { 10_000 },
        },
        Spec {
            name: "n1ql_scan_e",
            mix: Mix {
                records: size(12_000),
                dist: KeyDist::Zipfian,
                read_permille: 950,
                read: OpKind::Scan,
                write: OpKind::Insert,
            },
            dgm: false,
            ops_per_second: ops(10_500),
            trace_ops: ops(40_000),
        },
    ]
}

/// Keys for every index the stream touches: the loaded records plus the
/// keys its inserts create.
pub fn keys_for(mix: &Mix, ops: &[Op]) -> Vec<String> {
    let inserts = ops.iter().filter(|o| o.kind == OpKind::Insert).count() as u32;
    (0..mix.records + inserts).map(gen::key_for).collect()
}

/// A loaded cluster.
pub struct Env {
    pub cluster: Arc<CouchbaseCluster>,
    pub bucket: Bucket,
    pub data_root: PathBuf,
    /// Engines by node, and each vBucket's active and replica node: what a
    /// durable ack is checked against.
    engines: Vec<Arc<DataEngine>>,
    active: Vec<u8>,
    replica: Vec<u8>,
}

impl Env {
    /// Build the cluster, load `spec.mix.records` documents, build the
    /// index and prepare the statement if the workload scans, and wait
    /// until nothing is left in flight. Deterministic work: one loader
    /// thread, no sleeps other than the drain poll, no retry back-off — a
    /// rejected write (`kv.cache.tmp_ooms`) fails the set-up instead.
    /// Returns the wall-clock seconds spent inside the product; building
    /// the documents to load is not counted.
    pub fn setup(spec: &Spec, seed: u64, keys: &[String]) -> Result<(Env, f64), String> {
        let e = |what: &str, err: cbs_core::Error| format!("set-up: {what}: {err}");
        let mut spent = Duration::ZERO;

        let t = Instant::now();
        let mut cfg = ClusterConfig::for_test(VBUCKETS, REPLICAS);
        cfg.cache_quota = spec.quota_per_node();
        let data_root = cfg.data_root.clone();
        let cluster = CouchbaseCluster::homogeneous(NODES, cfg);
        let bucket = cluster.create_bucket(BUCKET).map_err(|x| e("create bucket", x))?;
        let map = cluster.inner().map(BUCKET).map_err(|x| e("cluster map", x))?;
        let mut engines = Vec::new();
        for node in cluster.inner().nodes() {
            engines.push(node.engine(BUCKET).map_err(|x| e("engine", x))?);
        }
        let node_of = |id: cbs_core::NodeId| id.0 as u8;
        let vbs = || (0..VBUCKETS).map(cbs_core::VbId);
        let env = Env {
            active: vbs().map(|vb| node_of(map.active_node(vb))).collect(),
            replica: vbs().map(|vb| node_of(map.replica_nodes(vb)[0])).collect(),
            engines,
            cluster,
            bucket,
            data_root,
        };
        spent += t.elapsed();

        let records = spec.mix.records;
        let batch = (records / 20).max(1);
        let mut from = 0;
        while from < records {
            let to = (from + batch).min(records);
            let docs = gen::load_docs(seed, from..to);
            let t = Instant::now();
            for (i, doc) in (from..to).zip(docs) {
                env.bucket.upsert(&keys[i as usize], doc).map_err(|x| e("load", x))?;
            }
            env.drain()?;
            spent += t.elapsed();
            from = to;
        }

        let t = Instant::now();
        if spec.has_scans() {
            let q = |s: &str| env.cluster.query(s, &QueryOptions::default());
            q(&format!("CREATE PRIMARY INDEX ON {BUCKET}")).map_err(|x| e("create index", x))?;
            q(&format!("PREPARE ycsb_scan FROM {SCAN_STATEMENT}")).map_err(|x| e("prepare", x))?;
        }
        env.drain()?;
        spent += t.elapsed();

        let ooms: u64 = env.engines.iter().map(|en| en.cache_stats().tmp_ooms).sum();
        if ooms != 0 {
            return Err(format!("set-up: kv.cache.tmp_ooms = {ooms}, expected 0"));
        }
        Ok((env, spent.as_secs_f64()))
    }

    /// Wait until every disk-write queue is empty and every replica holds
    /// what its active copy holds.
    pub fn drain(&self) -> Result<(), String> {
        poll_until("flushers and replication to drain", SETUP_TIMEOUT, || {
            self.engines.iter().all(|en| en.disk_queue_len() == 0)
                && (0..VBUCKETS as usize).all(|v| {
                    let vb = cbs_core::VbId(v as u16);
                    self.engines[self.replica[v] as usize].high_seqno(vb)
                        >= self.engines[self.active[v] as usize].high_seqno(vb)
                })
        })
    }

    /// Items waiting in the disk-write queues of all nodes.
    pub fn disk_queue_len(&self) -> u64 {
        self.engines.iter().map(|en| en.disk_queue_len()).sum()
    }

    /// Cache statistics summed over the nodes.
    pub fn cache_stats(&self) -> cbs_cache::CacheStats {
        let mut sum = cbs_cache::CacheStats::default();
        for s in self.engines.iter().map(|en| en.cache_stats()) {
            sum.items += s.items;
            sum.resident_items += s.resident_items;
            sum.mem_used += s.mem_used;
            sum.hits += s.hits;
            sum.misses += s.misses;
            sum.evictions += s.evictions;
            sum.tmp_ooms += s.tmp_ooms;
        }
        sum
    }

    /// Plan-cache (hits, misses) so far.
    pub fn plan_cache_lookups(&self) -> (u64, u64) {
        let stats = self.cluster.stats();
        (stats.counter("n1ql.plancache.hits"), stats.counter("n1ql.plancache.misses"))
    }

    /// Stop the cluster's threads and delete its files.
    pub fn teardown(self) {
        let Env { cluster, bucket, data_root, engines, .. } = self;
        drop((bucket, engines));
        drop(cluster);
        let _ = std::fs::remove_dir_all(data_root);
    }
}

/// Operations per throughput window of a slice of `ops` operations.
pub fn window_ops(ops: usize) -> usize {
    (ops / WINDOWS).max(1)
}

/// What one replay of a slice of the stream produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Latency of each executed operation in nanoseconds, in stream order.
    pub latency_ns: Vec<u32>,
    pub failed: u64,
    pub elapsed: Duration,
    /// Wall-clock nanoseconds of each complete window: `WINDOWS` windows of
    /// equal operation count when the whole slice was replayed.
    pub windows_ns: Vec<u64>,
    /// Index entries the product says its scans examined, and the rows they
    /// returned.
    pub index_entries: u64,
    pub rows_returned: u64,
    /// Heap allocations the client thread made inside product calls, reads
    /// and writes apart; 0 unless the pass runs under `alloc::counted`.
    pub read_allocs: u64,
    pub write_allocs: u64,
}

impl Pass {
    pub fn done(&self) -> usize {
        self.latency_ns.len()
    }

    /// Throughput of each window in operations per second; `ops` is the
    /// length of the slice that was to be replayed.
    pub fn window_rates(&self, ops: usize) -> Vec<f64> {
        let per_window = window_ops(ops) as f64;
        self.windows_ns.iter().map(|&ns| per_window * 1e9 / ns.max(1) as f64).collect()
    }

    /// The latencies of the pass's reads and of its writes; `ops` is the
    /// slice that was replayed.
    pub fn latencies_by_class(&self, ops: &[Op]) -> (Samples, Samples) {
        let (reads, writes): (Vec<_>, Vec<_>) =
            ops.iter().zip(&self.latency_ns).partition(|(op, _)| op.kind.is_read());
        let ns =
            |class: Vec<(&Op, &u32)>| Samples::new(class.into_iter().map(|(_, &ns)| ns).collect());
        (ns(reads), ns(writes))
    }
}

/// The single closed-loop client, with the model its answers are checked
/// against: the last version written per key and the number of inserts.
pub struct Client<'a> {
    env: &'a Env,
    records: u32,
    keys: &'a [String],
    pool: &'a [SharedValue],
    /// Expected `ver` of each key: 0 as loaded, pool index + 1 once written.
    model: Vec<u32>,
    inserted: u32,
    gets: u64,
}

impl<'a> Client<'a> {
    pub fn new(env: &'a Env, spec: &Spec, keys: &'a [String], pool: &'a [SharedValue]) -> Self {
        Client {
            env,
            records: spec.mix.records,
            keys,
            pool,
            model: vec![0; keys.len()],
            inserted: 0,
            gets: 0,
        }
    }

    /// Replay `ops` one at a time until they are used up or `deadline`
    /// passes. Only the product call is inside an operation's latency; the
    /// check of its answer runs between operations, and then `after_op`,
    /// which sees the operation's start and end (spans, samplers). A window
    /// is everything between two window boundaries, checks included.
    pub fn replay(
        &mut self,
        ops: &[Op],
        deadline: Option<Instant>,
        mut after_op: impl FnMut(OpKind, Instant, Instant),
    ) -> Pass {
        let mut pass = Pass { latency_ns: Vec::with_capacity(ops.len()), ..Pass::default() };
        let per_window = window_ops(ops.len());
        let start = Instant::now();
        let mut window_start = start;
        for &op in ops {
            let allocs_before = crate::alloc::client_so_far().0;
            let (t0, t1, ok) = self.execute(op, &mut pass);
            let allocs = crate::alloc::client_so_far().0 - allocs_before;
            if op.kind.is_read() {
                pass.read_allocs += allocs;
            } else {
                pass.write_allocs += allocs;
            }
            pass.latency_ns.push((t1 - t0).as_nanos().min(u32::MAX as u128) as u32);
            pass.failed += !ok as u64;
            if pass.latency_ns.len().is_multiple_of(per_window) && pass.windows_ns.len() < WINDOWS {
                pass.windows_ns.push((t1 - window_start).as_nanos() as u64);
                window_start = t1;
            }
            after_op(op.kind, t0, t1);
            if deadline.is_some_and(|d| t1 >= d) {
                break;
            }
        }
        pass.elapsed = start.elapsed();
        pass
    }

    fn execute(&mut self, op: Op, pass: &mut Pass) -> (Instant, Instant, bool) {
        let key = &self.keys[op.key as usize];
        match op.kind {
            OpKind::Get => {
                let t0 = Instant::now();
                let got = self.env.bucket.get(key);
                let t1 = Instant::now();
                self.gets += 1;
                let ok = match got {
                    Ok(g) if self.gets.is_multiple_of(GET_CHECK_EVERY) => {
                        version_of(g.value.as_value()) == Some(self.model[op.key as usize] as i64)
                    }
                    Ok(_) => true,
                    Err(_) => false,
                };
                (t0, t1, ok)
            }
            OpKind::Upsert | OpKind::Insert => {
                let value = self.pool[op.arg as usize].clone();
                let t0 = Instant::now();
                let acked = self.env.bucket.upsert(key, value);
                let t1 = Instant::now();
                self.model[op.key as usize] = op.arg as u32 + 1;
                self.inserted += (op.kind == OpKind::Insert) as u32;
                (t0, t1, acked.is_ok())
            }
            OpKind::UpsertDurable => {
                let value = self.pool[op.arg as usize].clone();
                let durability = Durability { replicate_to: 1, persist_to_master: true };
                let t0 = Instant::now();
                let acked = self.env.bucket.upsert_durable(key, value, durability, DURABLE_TIMEOUT);
                let t1 = Instant::now();
                self.model[op.key as usize] = op.arg as u32 + 1;
                // The ack promised: persisted on the active copy, present
                // on one replica.
                let ok = acked.is_ok_and(|m| {
                    let env = self.env;
                    let v = m.vb.index();
                    env.engines[env.active[v] as usize].persisted_seqno(m.vb) >= m.seqno
                        && env.engines[env.replica[v] as usize].high_seqno(m.vb) >= m.seqno
                });
                (t0, t1, ok)
            }
            OpKind::Scan => {
                let opts = QueryOptions::with_named_args([
                    ("start", Value::from(key.clone())),
                    ("lim", Value::int(op.arg as i64)),
                ]);
                let t0 = Instant::now();
                let result = self.env.cluster.query("EXECUTE ycsb_scan", &opts);
                let t1 = Instant::now();
                let ok = result.is_ok_and(|r| {
                    pass.index_entries += r.metrics.index_entries as u64;
                    pass.rows_returned += r.metrics.result_count as u64;
                    self.scan_is_right(op, &r.rows)
                });
                (t0, t1, ok)
            }
        }
    }

    /// A scan from loaded key `s` with limit `l` returns, in order, the
    /// loaded keys `s, s+1, ...`: nothing is deleted, so there are no gaps.
    /// Inserted keys sort after every loaded key and reach the index
    /// asynchronously (default scan consistency), so past the loaded keys
    /// any ascending subset of the keys inserted so far is right.
    fn scan_is_right(&self, op: Op, rows: &[Value]) -> bool {
        let loaded_left = (self.records - op.key) as usize;
        let at_least = loaded_left.min(op.arg as usize);
        let at_most = (loaded_left + self.inserted as usize).min(op.arg as usize);
        if rows.len() < at_least || rows.len() > at_most {
            return false;
        }
        let last_inserted = &self.keys[(self.records + self.inserted) as usize - 1];
        let mut prev: &str = "";
        rows.iter().enumerate().all(|(j, row)| {
            let Some(id) = row.get_field("id").and_then(Value::as_str) else { return false };
            let ok = if j < loaded_left {
                id == self.keys[op.key as usize + j]
            } else {
                id > prev && id <= last_inserted.as_str()
            };
            prev = id;
            ok
        })
    }
}

fn version_of(doc: &Value) -> Option<i64> {
    doc.get_field("ver").and_then(Value::as_i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_is_cut_into_windows_of_equal_operation_count() {
        assert_eq!(window_ops(900_000), 28_125);
        assert_eq!(window_ops(21_750), 679, "the remainder belongs to no window");
        assert_eq!(window_ops(5), 1);
        // Two windows of a 64-operation slice: 2 operations in 1 ms, in 4 ms.
        let pass = Pass { windows_ns: vec![1_000_000, 4_000_000], ..Pass::default() };
        assert_eq!(pass.window_rates(64), vec![2000.0, 500.0]);
    }
}
