//! The untraced run of one workload: the end-to-end metrics, and the times
//! a user would see, all as measured.

use std::time::{Duration, Instant};

use crate::stats;
use crate::workload::{self, Client, Env, Spec};
use crate::{gen, host, m, metrics_json, result_line, Args};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The stream's first operations, per measured operation, are an untimed
/// warm-up.
const WARMUP_SHARE: usize = 16;
/// A measured phase this many times longer than `--seconds` is cut short,
/// so a run on a stalled host still ends.
const DEADLINE_FACTOR: u32 = 4;

/// Set up, warm up, replay the measured operations, then set up twice more
/// so `setup_s` is a median. Peak memory is read before the extra set-ups,
/// so it is the peak of one set-up and one measured phase.
pub fn run(spec: &Spec, args: &Args) -> Result<String, String> {
    let measured_ops = spec.ops_per_second * args.seconds as usize;
    let warm_ops = measured_ops / WARMUP_SHARE;
    let ops = gen::op_stream(args.seed, &spec.mix, warm_ops + measured_ops);
    let (warm_slice, measured) = ops.split_at(warm_ops);
    let keys = workload::keys_for(&spec.mix, &ops);
    let pool = gen::update_pool(args.seed);
    let (env, first_setup) = Env::setup(spec, args.seed, &keys)?;
    let mut setups = vec![first_setup];
    let mut client = Client::new(&env, spec, &keys, &pool);
    let warm = client.replay(warm_slice, None, |_, _, _| {});

    let calib_before = host::calib_ms();
    let cache_before = env.cache_stats();
    let plans_before = env.plan_cache_lookups();
    let cpu_before = host::process_user_and_system_s();
    let deadline = Instant::now() + Duration::from_secs(args.seconds) * DEADLINE_FACTOR;
    let pass = client.replay(measured, Some(deadline), |_, _, _| {});
    let cpu_after = host::process_user_and_system_s();
    let (user_s, system_s) = (cpu_after.0 - cpu_before.0, cpu_after.1 - cpu_before.1);
    let cpu_s = user_s + system_s;
    let cache_after = env.cache_stats();
    let plans_after = env.plan_cache_lookups();
    let peak_rss_mb = host::peak_rss_mb();
    let calib_after = host::calib_ms();

    let done = pass.done();
    if done < measured_ops {
        println!("note: cut short after {done} of {measured_ops} operations: time was up");
    }
    let failed = pass.failed + warm.failed;
    if spec.dgm {
        let lookups =
            (cache_after.hits + cache_after.misses) - (cache_before.hits + cache_before.misses);
        let hit_ratio = (cache_after.hits - cache_before.hits) as f64 / lookups.max(1) as f64;
        let resident = cache_after.residency_ratio().unwrap_or(1.0);
        if resident > 0.35 || hit_ratio > 0.5 {
            return Err(format!(
                "not larger than memory: resident ratio {resident:.3} (limit 0.35), \
                 cache hit ratio {hit_ratio:.3} (limit 0.5)"
            ));
        }
    }
    if spec.has_scans() {
        let hits = (plans_after.0 - plans_before.0) as f64;
        let lookups = hits + (plans_after.1 - plans_before.1) as f64;
        if hits < 0.99 * lookups {
            return Err(format!(
                "plan cache hit ratio {:.4}, expected at least 0.99",
                hits / lookups
            ));
        }
    }
    drop(client);
    env.teardown();

    for _ in 1..SETUPS {
        let (env, seconds) = Env::setup(spec, args.seed, &keys)?;
        setups.push(seconds);
        env.teardown();
    }

    let (reads, writes) = pass.latencies_by_class(&measured[..done]);
    let window_rates = pass.window_rates(measured_ops);
    let windows = window_rates.len();
    let (ops_per_s, window_iqr) = stats::median_and_iqr(window_rates)
        .ok_or("the measured phase completed no throughput window")?;
    let setups_as_run = setups.clone();
    let gated = [
        m("setup_s", stats::median(&mut setups).unwrap_or(0.0), "s"),
        m("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    // Times on this host do not repeat well enough to carry a bound
    // (README, "Noise"): reported, not gated.
    let ungated = [
        m("ops_per_s", ops_per_s, "1/s"),
        m("cpu_us_per_op", cpu_s * 1e6 / done as f64, "us"),
        m("read_p50_us", reads.p50_us(), "us"),
        m("write_p50_us", writes.p50_us(), "us"),
        m("read_p99_us", reads.percentile_us(99.0), "us"),
        m("write_p99_us", writes.percentile_us(99.0), "us"),
        m("host.calib_ms", (calib_before + calib_after) / 2.0, "ms"),
        m("host.window_iqr_frac", window_iqr, "ratio"),
    ];
    println!(
        "workload {} seed {}: {done} operations measured in {:.2} s",
        spec.name,
        args.seed,
        pass.elapsed.as_secs_f64()
    );
    println!("host: {}", host::describe(&std::env::temp_dir()));
    println!("gated (end_to_end in BENCHMARK.json):");
    for x in &gated {
        println!("  {:<22} {:>14.4} {}", x.name, x.value, x.unit);
    }
    println!("as measured, not gated:");
    for x in &ungated {
        println!("  {:<22} {:>14.4} {}", x.name, x.value, x.unit);
    }
    println!(
        "  samples: {} reads, {} writes, {windows} windows of {} operations; set-ups {:?} s",
        reads.len(),
        writes.len(),
        workload::window_ops(measured_ops),
        setups_as_run
    );
    println!(
        "  host.calib_ms {calib_before:.1} before, {calib_after:.1} after; \
         CPU {user_s:.2} s user, {system_s:.2} s system"
    );
    // The same numbers for programs (calibrate.py), on a line of their own.
    println!("ungated {{{}}}", metrics_json(&ungated));
    result_line((done + warm.done()) as u64, failed, &gated)
}
