//! The multi-threaded YCSB harness over the `cbs-core` SDK.
//!
//! Mirrors the paper's setup (§10.1): client threads drive load against
//! the cluster; "the thread counts for each of the four YCSB clients were
//! varied from 12 to 32 threads" and maximum throughput was measured.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cbs_core::{CouchbaseCluster, QueryOptions, Result, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::generators::key_for;
use crate::stats::{HistogramSnapshot, LatencyHistogram};
use crate::workload::{OpKind, Workload, WorkloadSpec};

/// Load-phase handle (kept for symmetry/explicitness in benches).
pub struct LoadPhase;

impl LoadPhase {
    /// Insert `spec.record_count` records using `threads` loader threads.
    pub fn run(
        cluster: &Arc<CouchbaseCluster>,
        bucket_name: &str,
        spec: &WorkloadSpec,
        threads: usize,
    ) -> Result<()> {
        let next = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| -> Result<()> {
            let mut handles = Vec::new();
            for t in 0..threads {
                let next = Arc::clone(&next);
                let cluster = Arc::clone(cluster);
                let spec = spec.clone();
                handles.push(s.spawn(move || -> Result<()> {
                    let bucket = cluster.bucket(bucket_name)?;
                    let workload = Workload::new(&spec);
                    let mut rng = StdRng::seed_from_u64(0xC0FFEE + t as u64);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= spec.record_count {
                            return Ok(());
                        }
                        let record = workload.build_record(&mut rng);
                        bucket.upsert(&key_for(i), record)?;
                    }
                }));
            }
            for h in handles {
                h.join().expect("loader thread panicked")?;
            }
            Ok(())
        })
    }
}

/// One worker thread's raw results: (overall snapshot, per-op snapshots,
/// error count). Threads record into private histograms; snapshots merge
/// bucket-wise at the end of the run.
type ThreadResult = (HistogramSnapshot, Vec<(OpKind, HistogramSnapshot)>, u64);

/// Results of one run.
#[derive(Debug)]
pub struct RunSummary {
    /// Workload name.
    pub workload: String,
    /// Total client threads.
    pub threads: usize,
    /// Operations completed.
    pub ops: u64,
    /// Operations that returned errors.
    pub errors: u64,
    /// Wall-clock duration of the run phase.
    pub elapsed: Duration,
    /// Combined latency distribution (all threads merged).
    pub latency: HistogramSnapshot,
    /// Per-kind distributions: (kind, snapshot).
    pub per_op: Vec<(OpKind, HistogramSnapshot)>,
}

impl RunSummary {
    /// Operations per second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.ops as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// Latency percentile of the merged distribution, zero when empty.
    pub fn latency_percentile(&self, p: f64) -> Duration {
        self.latency.percentile(p).unwrap_or(Duration::ZERO)
    }

    /// One-line report row (the bench harness prints these).
    pub fn report_row(&self) -> String {
        format!(
            "workload={} threads={} ops={} errors={} elapsed={:.2}s throughput={:.0} ops/sec p50={:?} p95={:?} p99={:?}",
            self.workload,
            self.threads,
            self.ops,
            self.errors,
            self.elapsed.as_secs_f64(),
            self.throughput(),
            self.latency_percentile(50.0),
            self.latency_percentile(95.0),
            self.latency_percentile(99.0),
        )
    }
}

/// Run `ops_per_thread` operations on each of `threads` client threads.
///
/// Workload E's scans go through N1QL exactly as in the paper's appendix:
/// `SELECT meta().id AS id FROM bucket WHERE meta().id >= $start LIMIT
/// $lim`, prepared once at setup and EXECUTEd with named parameters per
/// operation so the hot loop rides the plan cache instead of re-parsing.
/// A primary index is created automatically if scans are in the mix.
pub fn run_workload(
    cluster: &Arc<CouchbaseCluster>,
    bucket_name: &str,
    spec: &WorkloadSpec,
    threads: usize,
    ops_per_thread: u64,
) -> Result<RunSummary> {
    if spec.scan_proportion > 0.0 {
        // Scans need the primary index (§3.3.3); tolerate "already exists".
        let _ = cluster
            .query(&format!("CREATE PRIMARY INDEX ON {bucket_name}"), &QueryOptions::default());
        // Prepare the scan statement once; every scan op then EXECUTEs the
        // cached plan instead of re-lexing/parsing/planning per operation.
        cluster.query(
            &format!(
                "PREPARE ycsb_scan FROM SELECT meta().id AS id FROM {bucket_name} \
                 WHERE meta().id >= $start LIMIT $lim"
            ),
            &QueryOptions::default(),
        )?;
    }
    let record_count = Arc::new(AtomicU64::new(spec.record_count));
    let start = Instant::now();
    let mut thread_results: Vec<ThreadResult> = Vec::new();

    std::thread::scope(|s| -> Result<()> {
        let mut handles = Vec::new();
        for t in 0..threads {
            let cluster = Arc::clone(cluster);
            let spec = spec.clone();
            let record_count = Arc::clone(&record_count);
            handles.push(s.spawn(move || -> Result<ThreadResult> {
                let bucket = cluster.bucket(bucket_name)?;
                let mut workload = Workload::new(&spec);
                let mut rng = StdRng::seed_from_u64(0xBEEF + t as u64);
                let mut hist = LatencyHistogram::new();
                let mut per_op: Vec<(OpKind, LatencyHistogram)> = Vec::new();
                let mut errors = 0u64;
                for _ in 0..ops_per_thread {
                    let kind = workload.next_op(&mut rng);
                    let op_start = Instant::now();
                    let ok = match kind {
                        OpKind::Read => {
                            let n = record_count.load(Ordering::Relaxed);
                            let key = key_for(workload.next_key_index(&mut rng, n));
                            bucket.get(&key).is_ok()
                        }
                        OpKind::Update => {
                            let n = record_count.load(Ordering::Relaxed);
                            let key = key_for(workload.next_key_index(&mut rng, n));
                            let record = workload.build_record(&mut rng);
                            bucket.upsert(&key, record).is_ok()
                        }
                        OpKind::Insert => {
                            let i = record_count.fetch_add(1, Ordering::Relaxed);
                            let record = workload.build_record(&mut rng);
                            bucket.upsert(&key_for(i), record).is_ok()
                        }
                        OpKind::Scan => {
                            let n = record_count.load(Ordering::Relaxed);
                            let start_key = key_for(workload.next_key_index(&mut rng, n));
                            let len = workload.next_scan_length(&mut rng) as i64;
                            let opts = QueryOptions::with_named_args([
                                ("start", Value::from(start_key)),
                                ("lim", Value::int(len)),
                            ]);
                            cluster.query("EXECUTE ycsb_scan", &opts).is_ok()
                        }
                        OpKind::ReadModifyWrite => {
                            let n = record_count.load(Ordering::Relaxed);
                            let key = key_for(workload.next_key_index(&mut rng, n));
                            match bucket.get(&key) {
                                Ok(g) => {
                                    // The edit decodes this handle's copy and
                                    // re-encodes it; the cached bytes stay.
                                    let mut v = g.value;
                                    v.make_mut().insert_field("field0", Value::from("modified"));
                                    bucket.upsert(&key, v).is_ok()
                                }
                                Err(_) => false,
                            }
                        }
                    };
                    let elapsed = op_start.elapsed();
                    hist.record(elapsed);
                    match per_op.iter_mut().find(|(k, _)| *k == kind) {
                        Some((_, h)) => h.record(elapsed),
                        None => {
                            let mut h = LatencyHistogram::new();
                            h.record(elapsed);
                            per_op.push((kind, h));
                        }
                    }
                    if !ok {
                        errors += 1;
                    }
                }
                let per_op = per_op.into_iter().map(|(k, h)| (k, h.snapshot())).collect();
                Ok((hist.snapshot(), per_op, errors))
            }));
        }
        for h in handles {
            thread_results.push(h.join().expect("worker thread panicked")?);
        }
        Ok(())
    })?;

    let elapsed = start.elapsed();
    let mut latency = HistogramSnapshot::empty();
    let mut per_op: Vec<(OpKind, HistogramSnapshot)> = Vec::new();
    let mut errors = 0u64;
    for (h, per, e) in &thread_results {
        latency.merge(h);
        errors += e;
        for (kind, kh) in per {
            match per_op.iter_mut().find(|(k, _)| k == kind) {
                Some((_, agg)) => agg.merge(kh),
                None => per_op.push((*kind, kh.clone())),
            }
        }
    }
    Ok(RunSummary {
        workload: spec.name.clone(),
        threads,
        ops: latency.count(),
        errors,
        elapsed,
        latency,
        per_op,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_core::ClusterConfig;

    #[test]
    fn workload_a_smoke() {
        let cluster = CouchbaseCluster::homogeneous(2, ClusterConfig::for_test(32, 0));
        cluster.create_bucket("ycsb").unwrap();
        let spec = WorkloadSpec::a(200);
        LoadPhase::run(&cluster, "ycsb", &spec, 4).unwrap();
        let summary = run_workload(&cluster, "ycsb", &spec, 4, 100).unwrap();
        assert_eq!(summary.ops, 400);
        assert_eq!(summary.errors, 0, "all keys exist after load");
        assert!(summary.throughput() > 0.0);
        assert_eq!(summary.per_op.len(), 2, "reads and updates");
        assert!(!summary.report_row().is_empty());
    }

    #[test]
    fn workload_e_smoke_runs_n1ql_scans() {
        let cluster = CouchbaseCluster::homogeneous(2, ClusterConfig::for_test(32, 0));
        cluster.create_bucket("ycsb").unwrap();
        let spec = WorkloadSpec::e(100);
        LoadPhase::run(&cluster, "ycsb", &spec, 2).unwrap();
        let summary = run_workload(&cluster, "ycsb", &spec, 2, 50).unwrap();
        assert_eq!(summary.ops, 100);
        assert_eq!(summary.errors, 0);
        assert!(
            summary.per_op.iter().any(|(k, h)| *k == OpKind::Scan && h.count() > 0),
            "scans executed"
        );
    }

    #[test]
    fn workload_f_rmw() {
        let cluster = CouchbaseCluster::single_node();
        cluster.create_bucket("ycsb").unwrap();
        let spec = WorkloadSpec::f(50);
        LoadPhase::run(&cluster, "ycsb", &spec, 2).unwrap();
        let summary = run_workload(&cluster, "ycsb", &spec, 2, 50).unwrap();
        assert_eq!(summary.errors, 0);
        assert!(summary.per_op.iter().any(|(k, _)| *k == OpKind::ReadModifyWrite));
    }
}
