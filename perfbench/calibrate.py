#!/usr/bin/env python3
"""Measure the benchmark's own noise and check BENCHMARK.json's bounds.

Runs the benchmark as two interleaved sets (A B A B ...) of the same build,
each invocation with another seed, and writes per workload and metric the
two set medians, their gap, the quartiles and the spread (interquartile
range over median, as the driver computes it) to NOISE.json beside this
file, with a description of the host: for the end-to-end metrics and for
the times every run prints but does not gate. A bound passes when it is at
least 1.5 times the largest gap seen for its metric on any workload, and the
spread of every metric but setup_s is below the bound.

    cargo build --release --manifest-path perfbench/Cargo.toml
    python3 perfbench/calibrate.py --bin perfbench/target/release/perfbench
    python3 perfbench/calibrate.py --summarize <dir of earlier outputs>
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_all(binary, out_dir, bench, per_set):
    os.makedirs(out_dir, exist_ok=True)
    for i in range(2 * per_set):
        for w in bench["workloads"]:
            path = os.path.join(out_dir, f"{w['name']}.{i + 1}.out")
            cmd = [binary, "--workload", w["name"], "--seed", str(i + 1),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            start = time.time()
            with open(path, "w") as out:
                rc = subprocess.run(cmd, stdout=out, cwd=ROOT).returncode
            print(f"{w['name']} seed {i + 1}: rc {rc}, {time.time() - start:.1f} s", flush=True)
            if rc != 0:
                sys.exit(f"{' '.join(cmd)} failed")


def read_results(out_dir, bench):
    """{workload: [(seed, {metric: value})]} ordered by seed; the metrics are
    the result line's and those of the "ungated" line before it."""
    results = {w["name"]: [] for w in bench["workloads"]}
    for name in sorted(os.listdir(out_dir)):
        if not name.endswith(".out"):
            continue
        workload, seed, _ = name.rsplit(".", 2)
        with open(os.path.join(out_dir, name)) as f:
            lines = f.read().strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            continue
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0, name
        metrics = result["metrics"]
        for line in lines:
            if line.startswith("ungated {"):
                metrics.update(json.loads(line[len("ungated "):]))
        results[workload].append((int(seed), {k: v["value"] for k, v in metrics.items()}))
    for runs in results.values():
        runs.sort()
    return results


def host():
    def first(path, key):
        try:
            with open(path) as f:
                return next((l.split(":", 1)[1].strip() for l in f if l.startswith(key)), "unknown")
        except OSError:
            return "unknown"
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return {
        "nproc": os.cpu_count(),
        "cpu": first("/proc/cpuinfo", "model name"),
        "kernel": platform.release(),
        "data_fs": subprocess.run(["stat", "-f", "-c", "%T", HERE], capture_output=True, text=True).stdout.strip(),
        "git_rev": rev.stdout.strip() or "unknown",
        "flush_policy": "ClusterConfig::for_test: 10 ms interval, 4 flusher shards, fsync per group commit",
    }


def summarize(results, bench):
    noise = {}
    worst_gap, worst_spread = {}, {}
    for workload, runs in results.items():
        noise[workload] = {}
        for name in runs[0][1]:
            values = [m[name] for _, m in runs]
            sets = [[m[name] for seed, m in runs if seed % 2 == parity] for parity in (1, 0)]
            med = [statistics.median(s) for s in sets]
            gap = abs(med[1] - med[0]) / med[0]
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / statistics.median(values)
            noise[workload][name] = {
                "set_medians": med,
                "gap": round(gap, 4),
                "set_quartiles": [statistics.quantiles(s, n=4) for s in sets],
                "spread": round(spread, 4),
                "runs": len(values),
            }
            worst_gap[name] = max(worst_gap.get(name, 0), gap)
            worst_spread[name] = max(worst_spread.get(name, 0), spread)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    verdicts = {}
    ok = True
    for name in worst_gap:
        verdicts[name] = {
            "largest_gap": round(worst_gap[name], 4),
            "largest_spread": round(worst_spread[name], 4),
        }
        if name in bounds:
            bound = bounds[name]
            gap_ok = bound >= 1.5 * worst_gap[name] and bound >= 0.05
            spread_ok = name == "setup_s" or worst_spread[name] <= bound
            verdicts[name].update({
                "bound": bound,
                "bound_covers_1.5x_gap": gap_ok,
                "spread_within_bound": spread_ok,
                "spread_below_third_of_bound": worst_spread[name] <= bound / 3,
            })
            ok = ok and gap_ok and spread_ok
    return {"host": host(), "run_seconds": bench["run_seconds"], "metrics": verdicts, "noise": noise}, ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--bin", help="the built perfbench executable")
    ap.add_argument("--out", default=os.path.join(HERE, "target", "calibrate"), help="where run outputs go")
    ap.add_argument("--per-set", type=int, default=5, help="invocations per set and workload")
    ap.add_argument("--summarize", help="summarise the outputs in this directory and run nothing")
    args = ap.parse_args()
    bench = load_benchmark()
    out_dir = args.summarize or args.out
    if not args.summarize:
        if not args.bin:
            ap.error("--bin or --summarize is required")
        run_all(os.path.abspath(args.bin), out_dir, bench, args.per_set)
    report, ok = summarize(read_results(out_dir, bench), bench)
    with open(os.path.join(HERE, "NOISE.json"), "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    for name, v in report["metrics"].items():
        verdict = "not gated"
        if "bound" in v:
            passed = v["bound_covers_1.5x_gap"] and v["spread_within_bound"]
            verdict = f"bound {v['bound']:.2f} {'ok' if passed else 'TOO NOISY'}"
        print(f"{name:<22} largest gap {v['largest_gap']:.4f}  "
              f"largest spread {v['largest_spread']:.4f}  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
