//! Staleness measurement: probability-of-stale-read and staleness age
//! under seeded fault plans — the consistency companion to perfbench's
//! throughput workloads.
//!
//! Replays the chaos harness's deterministic fault plans in *measure
//! mode* ([`cbs_chaos::measure_staleness_sweep`]): instead of asserting
//! that no stale read happens, it counts them and measures how stale
//! they are, in logical ticks (time) and in seqno distance (data), split
//! per workload phase (baseline, post-kill, post-failover, ...). Each
//! profile pools a sweep of [`RUNS`] consecutive seeds so the per-phase
//! `p_stale` is a probability, not a coin flip — one run holds one
//! failover window.
//!
//! ```text
//! cargo run -q --release -p cbs-chaos --example staleness
//! CHAOS_SEED=7 CHAOS_OPS=2000 CHAOS_PROFILE=jittery \
//!     cargo run -q --release -p cbs-chaos --example staleness
//! ```
//!
//! Writes `BENCH_staleness_<profile>.json` at the repo root for each
//! profile run. Same config ⇒ byte-identical JSON: the measurement is a
//! pure function of the config, never of wall-clock or interleaving, so
//! the default run reproduces the committed files exactly.

use cbs_chaos::{measure_staleness_sweep, ChaosConfig, Profile, StalenessSweep};

/// Seeds pooled per profile (the committed artifacts' sweep width).
const RUNS: u64 = 64;

fn run_profile(base: &ChaosConfig, profile: Profile) -> StalenessSweep {
    let cfg = ChaosConfig { profile, ..base.clone() };
    let sweep = measure_staleness_sweep(&cfg, RUNS);
    println!(
        "\nprofile {:<8} seeds {}..{} schedule {} ops/run {}: {} reads, {} stale (p_stale {:.4})",
        sweep.profile,
        sweep.seed,
        sweep.seed + sweep.runs,
        sweep.schedule,
        sweep.ops,
        sweep.reads(),
        sweep.stale_reads(),
        sweep.p_stale(),
    );
    println!("\n== staleness by workload phase ==");
    println!("phase\treads\tstale\tp_stale\tage_ticks p50/p95/p99/max\tage_seqnos p50/p95/p99/max");
    for ph in &sweep.phases {
        let [tp50, tp95, tp99, tmax] = ph.age_ticks;
        let [sp50, sp95, sp99, smax] = ph.age_seqnos;
        println!(
            "{}\t{}\t{}\t{:.4}\t{tp50}/{tp95}/{tp99}/{tmax}\t{sp50}/{sp95}/{sp99}/{smax}",
            ph.phase,
            ph.reads,
            ph.stale_reads,
            ph.p_stale(),
        );
    }
    sweep
}

fn main() {
    // The no-revive schedule keeps the post-failover state observable to
    // the end of the run; the revive schedules mostly measure zeros.
    let mut base = ChaosConfig::new(0);
    base.schedule = "failover-no-revive".to_string();
    let base = base.from_env();

    println!("Staleness measurement: seeded fault replay, logical clock, deterministic output");
    println!(
        "config: {} nodes, {} replicas, {} vbuckets, {} workers x {} keys, {} ops/run, \
         {RUNS} runs/profile, schedule {}",
        base.nodes,
        base.replicas,
        base.vbuckets,
        base.workers,
        base.keys_per_worker,
        base.ops,
        base.schedule,
    );

    // CHAOS_PROFILE pins a single profile; default sweeps all three so the
    // JSON set is comparable across fault intensities.
    let profiles: Vec<Profile> = if std::env::var("CHAOS_PROFILE").is_ok() {
        vec![base.profile]
    } else {
        vec![Profile::Quiet, Profile::Lossy, Profile::Jittery]
    };

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for profile in profiles {
        let sweep = run_profile(&base, profile);
        let path = root.join(format!("BENCH_staleness_{}.json", sweep.profile));
        match std::fs::write(&path, sweep.to_json()) {
            Ok(()) => println!("written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}
