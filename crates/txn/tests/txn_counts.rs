//! The coordinator counts finished transactions once, as
//! `txn.batch.{commits,aborts,re_executions}` on the cluster's query
//! registry, and logs one `system:transactions` row per transaction. The
//! two must tell the same story: commits and aborts equal the rows in each
//! state, and re-executions equal Σ(`incarnations` − 1) over the rows.

use cbs_cluster::{Cluster, ClusterConfig};
use cbs_json::Value;
use cbs_txn::spec::{batch_from_seed, txn_fns, TxnOpSpec};
use cbs_txn::TxnClient;

/// Hot keys: 24 read-modify-writes over 3 keys conflict under 4 workers.
const KEYS: usize = 3;
const TXNS: usize = 24;
const MAX_OPS: usize = 4;
/// The one transaction per batch that aborts.
const BAILING_TXN: usize = 5;

/// `(commits, aborts, re-executions)` as the `system:transactions` rows
/// tell it.
fn catalog_counts(cluster: &Cluster) -> (u64, u64, u64) {
    let (mut commits, mut aborts, mut re_executions) = (0, 0, 0);
    for (_, row) in cluster.txn_log().catalog_rows() {
        match row.get_field("state").and_then(Value::as_str) {
            Some("committed") => commits += 1,
            Some("aborted") => aborts += 1,
            other => panic!("unexpected state {other:?} in {}", row.to_json_string()),
        }
        let incarnations = row.get_field("incarnations").and_then(Value::as_i64).unwrap_or(0);
        assert!(incarnations >= 1, "a logged transaction ran: {}", row.to_json_string());
        re_executions += incarnations as u64 - 1;
    }
    (commits, aborts, re_executions)
}

#[test]
fn batch_counters_agree_with_the_transaction_catalog() {
    let cluster = Cluster::homogeneous(2, ClusterConfig::for_test(8, 1));
    cluster.create_bucket("app").unwrap();
    let coordinator = TxnClient::connect(&cluster, "app").unwrap().with_workers(4);

    for seed in 1..=8u64 {
        // A seeded conflict-heavy batch whose only abort is `BAILING_TXN`.
        let mut batch = batch_from_seed(seed, KEYS, TXNS, MAX_OPS);
        for ops in &mut batch.txns {
            ops.retain(|op| *op != TxnOpSpec::Bail);
            ops.push(TxnOpSpec::Add(0, 1));
        }
        batch.txns[BAILING_TXN].push(TxnOpSpec::Bail);
        let report = coordinator.run_batch(&txn_fns(&batch)).unwrap();
        assert_eq!(report.aborted(), 1, "seed {seed}: exactly the bailing transaction aborts");

        let counts = cluster.query_registry().snapshot();
        let registry = (
            counts.counter("txn.batch.commits"),
            counts.counter("txn.batch.aborts"),
            counts.counter("txn.batch.re_executions"),
        );
        assert_eq!(
            registry,
            catalog_counts(&cluster),
            "seed {seed}: txn.batch.{{commits,aborts,re_executions}} disagree with \
             system:transactions"
        );
        assert_eq!(registry.1, seed, "one abort per batch");
    }
    let re_executions = cluster.query_registry().snapshot().counter("txn.batch.re_executions");
    assert!(re_executions > 0, "eight hot batches on four workers never conflicted");
}
