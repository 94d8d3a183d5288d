//! Shared plumbing for the ablation and companion binaries.
//!
//! The paper's two figures (Fig. 15 YCSB-A, Fig. 16 YCSB-E) are the
//! `kv_hot_a` and `n1ql_scan_e` workloads of `perfbench/` (the repo's
//! benchmark, `BENCHMARK.json`); what is left here are the design-choice
//! ablations and the staleness / transaction companions. Every binary
//! prints a self-describing table. Scale knobs come from the environment
//! so CI can run small and a workstation can run big:
//!
//! - `CBS_RECORDS` — dataset size (default varies per experiment);
//! - `CBS_OPS` — operations per client thread;
//! - `CBS_NODES` — cluster size (default 4, like the paper).

use std::sync::Arc;

use cbs_core::{ClusterConfig, CouchbaseCluster};

/// Read a scale knob from the environment.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Smaller topology for ablations that don't need 1024 vBuckets.
pub fn small_cluster(nodes: usize, replicas: u8) -> Arc<CouchbaseCluster> {
    CouchbaseCluster::homogeneous(nodes, ClusterConfig::for_test(128, replicas))
}

/// Print a table header.
pub fn print_header(title: &str, columns: &[&str]) {
    println!("\n== {title} ==");
    println!("{}", columns.join("\t"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing() {
        std::env::set_var("CBS_TEST_KNOB", "42");
        assert_eq!(env_u64("CBS_TEST_KNOB", 7), 42);
        assert_eq!(env_u64("CBS_TEST_KNOB_MISSING", 7), 7);
    }
}
