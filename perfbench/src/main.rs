//! `perfbench`: the repo's benchmark. See README.md beside this package
//! and BENCHMARK.json at the root of the repo.

mod alloc;
mod e2e;
mod gen;
mod host;
mod ladder;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// A run fails when more than this share of its operations fail.
const MAX_FAILED_SHARE: f64 = 0.001;

pub(crate) struct Args {
    workload: Option<String>,
    pub(crate) seed: u64,
    pub(crate) seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args { workload: None, seed: 1, seconds: 12, trace: false, smoke: false };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".to_string());
                }
            }
            "--trace" => args.trace = value()? != "0",
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One metric of the result line.
pub(crate) struct Metric {
    pub(crate) name: &'static str,
    pub(crate) value: f64,
    pub(crate) unit: &'static str,
}

pub(crate) fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// `"name": {"value": v, "unit": "u"}, ...`
pub(crate) fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", x.name, x.value, x.unit))
        .collect();
    body.join(", ")
}

/// The contract's result line: one JSON object, last on standard output.
/// An error instead when too many operations failed.
pub(crate) fn result_line(
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    if failed as f64 > MAX_FAILED_SHARE * attempted as f64 {
        return Err(format!("{failed} of {attempted} operations failed or answered wrongly"));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics_json(metrics)
    ))
}

/// The build directory this executable runs from (`<target>/release/perfbench`):
/// the one place the benchmark writes to.
fn target_dir() -> Result<std::path::PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target = exe.ancestors().nth(2).ok_or("executable is not inside a target directory")?;
    Ok(target.to_path_buf())
}

/// Scratch space for the product's files, which it roots under
/// `std::env::temp_dir()`.
fn claim_scratch_dir(target: &std::path::Path) -> Result<std::path::PathBuf, String> {
    let dir = target.join("perfbench-data").join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    std::env::set_var("TMPDIR", &dir);
    Ok(dir)
}

/// One workload, in this process; returns the result line.
fn run_one(spec: &workload::Spec, args: &Args) -> Result<String, String> {
    let target = target_dir()?;
    let scratch = claim_scratch_dir(&target)?;
    let outcome = if args.trace {
        let trace_path = target.join("bench").join(format!("{}.trace.json", spec.name));
        ladder::run(spec, args, &trace_path)
    } else {
        e2e::run(spec, args)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    outcome
}

/// Every workload, each in a child process of its own: fresh threads, and
/// a peak memory that is that workload's alone.
fn run_each_in_a_child(specs: &[workload::Spec]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut failed = Vec::new();
    for spec in specs {
        let status = std::process::Command::new(&exe)
            .args(std::env::args().skip(1))
            .args(["--workload", spec.name])
            .status()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        if !status.success() {
            failed.push(spec.name);
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("failed: {}", failed.join(", ")))
    }
}

fn run() -> Result<(), String> {
    let args = parse_args(std::env::args().skip(1))?;
    let specs = workload::specs(args.smoke);
    match args.workload.as_deref() {
        None => run_each_in_a_child(&specs),
        Some(name) => {
            let spec = specs.iter().find(|s| s.name == name);
            let line = run_one(spec.ok_or_else(|| format!("unknown workload {name}"))?, &args)?;
            println!("{line}");
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_json::Value;

    /// (name, unit) of every metric in a section of BENCHMARK.json.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the root of the repo");
        let doc = cbs_json::parse(&text).expect("BENCHMARK.json parses");
        let str_of =
            |v: &Value, f: &str| v.get_field(f).and_then(Value::as_str).unwrap().to_string();
        let metrics = doc.get_field(section).and_then(Value::as_array).expect(section);
        metrics.iter().map(|x| (str_of(x, "name"), str_of(x, "unit"))).collect()
    }

    /// (name, unit, value) of every metric in a result line.
    fn reported(line: &str) -> Vec<(String, String, f64)> {
        let doc = cbs_json::parse(line).expect("the result line parses");
        assert_eq!(doc.get_field("correct"), Some(&Value::Bool(true)));
        assert!(doc.get_field("attempted").and_then(Value::as_i64).unwrap() >= 1);
        assert_eq!(doc.get_field("failed").and_then(Value::as_i64), Some(0));
        let metrics = doc.get_field("metrics").and_then(Value::as_object).expect("metrics");
        metrics
            .iter()
            .map(|(name, x)| {
                let unit = x.get_field("unit").and_then(Value::as_str).unwrap().to_string();
                (name.clone(), unit, x.get_field("value").and_then(Value::as_f64).unwrap())
            })
            .collect()
    }

    fn smoke(trace: bool) -> Args {
        Args { workload: None, seed: 42, seconds: 1, trace, smoke: true }
    }

    /// One test, not several: the product roots its files under the
    /// process-wide `TMPDIR`, which each run points at its own scratch
    /// directory, so runs must not overlap.
    #[test]
    fn smoke_runs_report_every_metric_of_benchmark_json_and_allocations_repeat() {
        let names = |section| declared(section).into_iter().collect::<Vec<_>>();
        for spec in workload::specs(true) {
            let line = run_one(&spec, &smoke(false)).unwrap();
            let got = reported(&line);
            let got_names: Vec<_> = got.iter().map(|(n, u, _)| (n.clone(), u.clone())).collect();
            assert_eq!(got_names, names("end_to_end"), "{}", spec.name);
            assert!(got.iter().all(|(_, _, v)| *v > 0.0), "{}: {got:?}", spec.name);

            let line = run_one(&spec, &smoke(true)).unwrap();
            let got: Vec<_> = reported(&line).into_iter().map(|(n, u, _)| (n, u)).collect();
            assert_eq!(got, names("per_layer"), "{}", spec.name);
            let trace =
                target_dir().unwrap().join("bench").join(format!("{}.trace.json", spec.name));
            let text = std::fs::read_to_string(trace).expect("the traced run writes its trace");
            assert!(cbs_json::parse(&text).is_ok(), "{}: trace is JSON", spec.name);
        }

        // What the client thread allocates in its reads is a function of the
        // seed; in its writes it also depends on when the flushers ran.
        let hot = workload::specs(true)[0];
        let allocs = |line: &str| {
            let wanted = ["client.allocs_per_read"];
            let got = reported(line).into_iter().filter(|(n, _, _)| wanted.contains(&n.as_str()));
            got.map(|(_, _, v)| v).collect::<Vec<f64>>()
        };
        let first = allocs(&run_one(&hot, &smoke(true)).unwrap());
        let second = allocs(&run_one(&hot, &smoke(true)).unwrap());
        assert_eq!(first.len(), 1);
        assert_eq!(first, second, "client.allocs_per_read repeats exactly for a seed");
    }

    #[test]
    fn arguments() {
        let parse = |line: &str| parse_args(line.split_whitespace().map(String::from));
        let a = parse("--workload kv_hot_a --seed 9 --seconds 30 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace, a.smoke),
            (Some("kv_hot_a"), 9, 30, true, false)
        );
        let a = parse("--smoke --trace 0").unwrap();
        assert_eq!((a.workload, a.seed, a.trace, a.smoke), (None, 1, false, true));
        for bad in ["--seconds 0", "--seconds 61", "--seed x", "--seed", "--frobnicate"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
