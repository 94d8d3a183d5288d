//! Ablation A4 (§6.1.1 "Memory-optimized indexes"): standard (disk-synced)
//! vs memory-optimized GSI under a write-heavy load.
//!
//! "These new indexes will reside completely in memory, dramatically
//! reducing dependence on disk. [...] This functionality will allow users
//! with very high write-heavy workloads to continue to utilize N1QL and
//! indexing [...] as indexes can keep up with higher mutation rates."
//!
//! Shape check: at batch size 1 the standard indexer pays one log commit
//! (write + fsync) per mutation and memory-optimized ingest is far ahead;
//! the batch is the durability unit, so the gap narrows as the change
//! stream arrives in larger batches, and scans cost the same in both modes
//! (they never wait for the log).

use std::time::{Duration, Instant};

use cbs_bench::{env_u64, print_header};
use cbs_common::{DocMeta, SeqNo, VbId};
use cbs_dcp::DcpItem;
use cbs_index::{IndexDef, IndexManager, IndexStorage, ScanConsistency, ScanRange};
use cbs_json::Value;

const SCAN_SAMPLES: usize = 101;

fn main() {
    let mutations = env_u64("CBS_OPS", 20_000);
    println!("Ablation A4: GSI storage mode ingest rate ({mutations} mutations per row)");
    print_header(
        "index storage modes x change-stream batch size",
        &["mode", "batch", "ingest(mutations/sec)", "fsyncs", "scan p50 (rows)"],
    );
    let items: Vec<DcpItem> = (0..mutations)
        .map(|i| {
            DcpItem::mutation(
                VbId((i % 64) as u16),
                format!("doc{i}"),
                DocMeta { seqno: SeqNo(i / 64 + 1), ..Default::default() },
                Value::object([("age", Value::int((i % 100) as i64))]),
            )
        })
        .collect();

    for batch in [1, 16, 256] {
        for (name, storage) in [
            ("standard (disk-synced)", IndexStorage::Standard),
            ("memory-optimized", IndexStorage::MemoryOptimized),
        ] {
            let mgr = IndexManager::new(64, cbs_storage::scratch_dir("memopt-bench"));
            let def = IndexDef { storage, ..IndexDef::simple("age", "b", "age") };
            mgr.create_and_build(def, &cbs_dcp::hub::EmptyBackfill).expect("create + build");
            let built = mgr.index_stats("b", "age").expect("stats").disk_syncs;

            let start = Instant::now();
            for chunk in items.chunks(batch) {
                mgr.apply_batch("b", chunk).expect("apply");
            }
            let ingest = mutations as f64 / start.elapsed().as_secs_f64();

            let mut scans: Vec<Duration> = Vec::with_capacity(SCAN_SAMPLES);
            let mut rows = 0;
            for _ in 0..SCAN_SAMPLES {
                let t = Instant::now();
                rows = mgr
                    .scan(
                        "b",
                        "age",
                        &ScanRange::exact(Value::int(42)),
                        &ScanConsistency::NotBounded,
                        Duration::from_secs(1),
                        0,
                    )
                    .expect("scan")
                    .len();
                scans.push(t.elapsed());
            }
            scans.sort();
            let fsyncs = mgr.index_stats("b", "age").expect("stats").disk_syncs - built;
            println!(
                "{name}\t{batch}\t{ingest:.0}\t{fsyncs}\t{:?} ({rows})",
                scans[SCAN_SAMPLES / 2]
            );
        }
    }
    println!(
        "\nshape: memory-optimized ingest ≫ standard ingest at batch 1 (one fsync per mutation), \
         the gap narrows with the batch size, §6.1.1"
    );
}
