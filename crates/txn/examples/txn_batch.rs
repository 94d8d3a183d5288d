//! Transaction batch scaling: the Block-STM scheduler's conflict cost as
//! a function of worker count, on seeded random multi-document
//! workloads — the transactional companion to perfbench's workloads.
//!
//! Uses the *deterministic wave driver* ([`cbs_txn::run_deterministic`]):
//! conflicts, re-executions and logical step counts are a pure function
//! of `(seed, workers)`, never of thread interleaving, so the emitted
//! JSON is byte-identical across replays. Throughput is reported as a
//! proxy — committed transactions per logical scheduler step — rather
//! than wall-clock, for the same reason.
//!
//! ```text
//! cargo run -q --release -p cbs-txn --example txn_batch
//! ```
//!
//! Writes `BENCH_txn_batch.json` at the repo root; the run reproduces the
//! committed file exactly.

use cbs_txn::run_deterministic;
use cbs_txn::spec::{batch_from_seed, initial_state, serial_witness, state_reader, txn_fns};

/// The workload the committed artifact was made with.
const SEED: u64 = 0xB10C;
const BATCHES: u64 = 8;
const TXNS: usize = 48;
const KEYS: usize = 12;
const MAX_OPS: usize = 5;

struct Point {
    workers: usize,
    committed: u64,
    aborted: u64,
    re_executions: u64,
    logical_steps: u64,
}

impl Point {
    /// Committed transactions per logical scheduler step: the
    /// deterministic throughput proxy (higher is better; 1 worker sets
    /// the conflict-free ceiling of one transaction per step).
    fn txns_per_step(&self) -> f64 {
        self.committed as f64 / self.logical_steps.max(1) as f64
    }
}

fn main() {
    println!("Transaction batch scaling: deterministic wave model, seeded workloads");
    println!(
        "config: seed {SEED:#x}, {BATCHES} batches x {TXNS} txns, {KEYS} hot keys, \
         <= {MAX_OPS} ops/txn"
    );

    let mut points = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let mut point =
            Point { workers, committed: 0, aborted: 0, re_executions: 0, logical_steps: 0 };
        for b in 0..BATCHES {
            let batch =
                batch_from_seed(SEED.wrapping_add(b.wrapping_mul(7919)), KEYS, TXNS, MAX_OPS);
            let initial = initial_state(batch.seed, KEYS);
            let fns = txn_fns(&batch);
            let reader = state_reader(&initial);
            let report = run_deterministic(&fns, &reader, workers);

            // The wave model is still the serial definition: cross-check
            // every batch against the pure witness before counting it.
            let (_, want) = serial_witness(&batch, initial.clone());
            let got: Vec<bool> = report.outcomes.iter().map(|o| o.is_committed()).collect();
            assert_eq!(got, want, "wave driver diverged from serial witness (batch {b})");

            point.committed += report.committed() as u64;
            point.aborted += report.aborted() as u64;
            point.re_executions += report.re_executions;
            point.logical_steps += report.logical_steps.unwrap_or(0);
        }
        points.push(point);
    }

    println!("\n== txn batch scaling (wave model) ==");
    println!("workers\tcommitted\taborted\tre_exec\tsteps\ttxns/step");
    for p in &points {
        println!(
            "{}\t{}\t{}\t{}\t{}\t{:.4}",
            p.workers,
            p.committed,
            p.aborted,
            p.re_executions,
            p.logical_steps,
            p.txns_per_step(),
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"txn_batch\",\n");
    json.push_str(&format!("  \"seed\": {SEED},\n"));
    json.push_str(&format!("  \"batches\": {BATCHES},\n"));
    json.push_str(&format!("  \"txns_per_batch\": {TXNS},\n"));
    json.push_str(&format!("  \"keys\": {KEYS},\n"));
    json.push_str(&format!("  \"max_ops\": {MAX_OPS},\n"));
    json.push_str("  \"series\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workers\": {}, \"committed\": {}, \"aborted\": {}, \
             \"re_executions\": {}, \"logical_steps\": {}, \"txns_per_step\": {:.6}}}{}\n",
            p.workers,
            p.committed,
            p.aborted,
            p.re_executions,
            p.logical_steps,
            p.txns_per_step(),
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");

    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join("BENCH_txn_batch.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
