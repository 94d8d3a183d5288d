#!/usr/bin/env bash
# Pre-PR verification gate (DESIGN.md §9, §14). Run from anywhere in the repo.
#
#   scripts/check.sh                 # full gate: static analysis + models + tests
#   scripts/check.sh --quick         # static analysis + concurrency models only
#   scripts/check.sh chaos-smoke     # fixed-seed chaos smoke run only (<10s)
#   scripts/check.sh plancache-smoke # prepared statements: all of tests/plancache.rs (<10s)
#   scripts/check.sh staleness-smoke # staleness artifacts regenerate unchanged (<30s)
#   scripts/check.sh txn-smoke       # serializability replay + txn chaos + the
#                                    # txn-batch artifact regenerates unchanged (<30s)
#   scripts/check.sh perfbench-smoke # the benchmark's unit tests + --smoke run
#
# Stages:
#   1. cargo fmt --check          formatting (rustfmt.toml)
#   2. cargo clippy -D warnings   what a compiler-backed tool can check: the
#                                 no-panic wall ([lints.clippy] unwrap_used /
#                                 expect_used), std::sync locks banned
#                                 (clippy.toml), dbg!/todo!
#   3. cargo xtask analyze        the one hand-written checker: interprocedural
#                                 lock-order / guard-across-blocking / raw-lock
#                                 analysis, plus the clock-read and metric-
#                                 naming conventions (DESIGN.md §14)
#   4. model suite                lock-order detector + seqno-signal, feed
#                                 wake, flusher (incl. backfill ordering), GSI
#                                 writer and txn protocol models (exhaustive
#                                 interleaving search), the memory-first
#                                 backfill against its disk-first oracle
#                                 (property suite) and, beside a live writer,
#                                 a consumer chaining snapshots from each
#                                 one's `high` that must miss no write (both
#                                 debug and --release), and
#                                 50 standalone runs of the Block-STM test
#                                 that panics on a stale read
#   5. chaos + txn smoke          fixed-seed fault-injection run (<10s)
#                                 against a 3-node cluster, plus the
#                                 serializability replay, transactional
#                                 chaos run and BENCH_txn_batch.json
#                                 regeneration; seed sweeps honor CHAOS_SEEDS=n
#   6. full test suite            (skipped with --quick) — the one place a
#                                 claim is checked; then the cbstats demo
#                                 and the product_catalog and quickstart
#                                 examples run to completion (exit status
#                                 only), the N1QL nesting-budget test runs
#                                 again in release (its fixed depths and
#                                 the seeded 0…50 000 nesting proptest
#                                 on a small stack), the GSI model
#                                 properties, the key-table model
#                                 (KeyMap against std's HashMap), the KV
#                                 write paths (every writer's commits on
#                                 the DCP feed, against a model) and the
#                                 bucket log's crash-recovery properties
#                                 (reopen, torn tail, compaction, slicing)
#                                 run once per seed 1..=256 (PROPTEST_SEED,
#                                 release) and the staleness artifacts
#                                 regenerate
#   7. perfbench smoke            the benchmark package (its own workspace):
#                                 unit tests, then every workload at --smoke
#                                 sizes with its in-run correctness checks,
#                                 then the n1ql_scan_e counts that repeat
#                                 exactly (allocations per scan, pushdown,
#                                 plan-cache hits) and kv_hot_a's
#                                 allocations per get and per write against
#                                 their ceilings
#   8. TSan / Miri subset         best-effort: requires nightly toolchain
#                                 with rust-src / miri; skipped gracefully
#                                 when the components are not installed.
#
# Every mode ends by checking that no stage changed a tracked file: the
# gate may regenerate an artifact only to compare it, never to rewrite it.
set -u

cd "$(dirname "$0")/.." || exit 2

QUICK=0
[ "${1:-}" = "--quick" ] && QUICK=1

tracked_fingerprint() { git diff HEAD --binary | cksum; }
TRACKED_AT_START="$(tracked_fingerprint)"

FAILED=0
run() {
    local label="$1"
    shift
    echo "==> $label"
    if "$@"; then
        echo "    ok"
    else
        echo "    FAILED: $*"
        FAILED=1
    fi
}

# Deterministic fault-injection smoke: one fixed-seed chaos run (seeded
# message drop/delay/dup + failover) through the full history checker.
# Finishes in well under 10s; failures print a one-line replay command.
# The full suite's seed sweep widens with CHAOS_SEEDS=n (default 2).
chaos_smoke() {
    cargo test --quiet --test chaos_kv chaos_smoke -- --exact
}

# Prepared-statement smoke: all of tests/plancache.rs. PREPARE once, EXECUTE
# hot against a live cluster, and require a ≥99% plan-cache hit rate plus a
# populated `system:prepareds` catalog — the YCSB-E (`n1ql_scan_e`) fast path
# end to end — then the cases the prepared plan's validity rests on: DDL and
# flush drop it and the next EXECUTE re-plans, re-PREPARE replaces it, and
# the hit/miss counters count EXECUTEs only. Well under 10 s.
plancache_smoke() {
    cargo test --quiet --test plancache
}

# Transaction smoke: the serializability battery at a pinned seed (the
# parallel scheduler and the deterministic wave driver must both match
# the serial witness, bit-stably), then the transactional chaos run —
# snapshot transactions under a jittery transport through the
# fractured-read / txn-atomicity checker. Failures print `TXN_SEED=…` /
# `TXN_CHAOS_SEED=…` one-line replay commands. Last, the txn-batch
# companion reruns at its committed config and must reproduce
# BENCH_txn_batch.json byte for byte.
txn_smoke() {
    TXN_SEED=48879 cargo test --quiet -p cbs-txn --test serializability \
        txn_seed_replay -- --exact || return 1
    cargo test --quiet --test chaos_txn txn_chaos_smoke -- --exact || return 1
    artifact_regenerates cbs-txn txn_batch BENCH_txn_batch.json
}

# Staleness smoke: replay the seeded fault plans in chaos measure mode at
# the committed config; the BENCH_staleness_*.json it writes must equal
# the committed ones — one check for determinism and for drift.
staleness_smoke() {
    artifact_regenerates cbs-chaos staleness 'BENCH_staleness_*.json'
}

# Run example $2 of package $1 and require that the tracked files matching
# $3, which it rewrites, came out byte-identical.
artifact_regenerates() {
    cargo run --quiet --release -p "$1" --example "$2" >/dev/null || return 1
    git diff --exit-code --stat -- "$3" && return 0
    echo "    $2 no longer reproduces $3 (determinism or drift); restore with git checkout -- '$3'"
    return 1
}

# Benchmark smoke: perfbench is a package of its own (BENCHMARK.json runs
# it), so the workspace's test stage does not build it. Its unit tests pin
# the metric names against BENCHMARK.json; `--smoke` drives all four
# workloads end to end at tiny sizes and exits non-zero on a wrong answer.
# The yardstick itself must be the committed one: a change that claims a
# gain cannot quietly edit what measures it.
perfbench_smoke() {
    if ! git diff --quiet HEAD -- perfbench BENCHMARK.json; then
        echo "    perfbench/ or BENCHMARK.json differs from HEAD"
        return 1
    fi
    cargo test --quiet --release --manifest-path perfbench/Cargo.toml || return 1
    cargo run --quiet --release --manifest-path perfbench/Cargo.toml -- --smoke >/dev/null \
        || return 1
    # Counts that repeat exactly per seed are gated here (ROADMAP "yardstick"
    # (i)): a traced smoke scan's client-thread allocations (576.85, so the
    # ceiling is 582, 576.85 plus 1 %; 680.47 under a ceiling of 685 while
    # each primary-index row carried a clone of its key, 806.07 before the
    # one-pipeline executor), LIMIT still bounding the scan, every EXECUTE
    # served from the plan cache, and every insert applied to the index
    # exactly once (no double or lost apply on the projector's path).
    local line allocs examined hits applied
    line="$(cargo run --quiet --release --manifest-path perfbench/Cargo.toml -- \
        --workload n1ql_scan_e --smoke --trace 1 2>/dev/null | tail -n 1)" || return 1
    allocs="$(result_metric "$line" client.allocs_per_read)"
    examined="$(result_metric "$line" index.rows_examined_per_row_returned)"
    hits="$(result_metric "$line" n1ql.plancache_hit_ratio)"
    applied="$(result_metric "$line" index.items_applied_per_insert)"
    awk -v a="$allocs" -v e="$examined" -v h="$hits" -v p="$applied" \
        'BEGIN { exit !(a != "" && a <= 582 && e == 1 && h >= 1 && p != "" && p == 1) }' || {
        echo "    n1ql_scan_e: allocs_per_read=$allocs (ceiling 582)," \
            "rows_examined_per_row_returned=$examined (want 1), plancache_hit_ratio=$hits (want 1)," \
            "items_applied_per_insert=$applied (want 1)"
        return 1
    }
    # A routed KV get allocates nothing: the cached bytes go out undecoded
    # and the client builds its routing error only once retries are spent.
    # What is left is the bodies the benchmark reads to check its model —
    # every 64th get, ~24 allocations to decode one: 0.3746 (1.3746 while
    # the routing error was built up front). One allocation per get would
    # read ≥ 1.37.
    # A write's key allocates nowhere either; what is left comes per flush
    # cycle or per queue block, not per write (a dirty queue's buffer after
    # the flusher took it, the DCP feeds' channel blocks): 0.32–0.71 in ten
    # runs (3.95–4.01 when the DCP item's key, the dirty queue's key and the
    # routing error each allocated), so the ceiling is 0.71 + 0.5.
    local writes
    line="$(cargo run --quiet --release --manifest-path perfbench/Cargo.toml -- \
        --workload kv_hot_a --smoke --trace 1 2>/dev/null | tail -n 1)" || return 1
    allocs="$(result_metric "$line" client.allocs_per_read)"
    writes="$(result_metric "$line" client.allocs_per_write)"
    awk -v a="$allocs" -v w="$writes" \
        'BEGIN { exit !(a != "" && a <= 0.4 && w != "" && w <= 1.22) }' && return 0
    echo "    kv_hot_a: allocs_per_read=$allocs (ceiling 0.4), allocs_per_write=$writes (ceiling 1.22)"
    return 1
}

# The value of one metric on a perfbench result line (its last stdout line).
result_metric() {
    echo "$1" | grep -o "\"$2\": {\"value\": [0-9.e+-]*" | grep -o '[0-9.e+-]*$'
}

# Model properties over many seeds: with PROPTEST_SEED set, the vendored
# proptest replays one case per property from that seed, so the release
# binary of test $2 of package $1, built once, runs once per seed 1..=256
# and stops at the first failure, printing its seed (output in
# target/$2_seeds.log).
model_seeds() {
    local bin seed log="target/$2_seeds.log"
    bin="$(cargo test --quiet --release -p "$1" --test "$2" --no-run \
        --message-format=json 2>/dev/null \
        | grep -o '"executable":"[^"]*"' | tail -n 1 | cut -d'"' -f4)"
    [ -x "$bin" ] || { echo "    $2 test binary not found"; return 1; }
    for seed in $(seq 1 256); do
        PROPTEST_SEED="$seed" "$bin" >"$log" 2>&1 \
            || { echo "    PROPTEST_SEED=$seed failed (output: $log)"; return 1; }
    done
}

# Block-STM survives a body that fails on a speculative read: run alone
# (its own process, output to a file), `insert_remove_semantics` panics on
# a stale read in most runs, and the scheduler must absorb that every time.
# Fifty runs, no retry; a hang counts as a failure.
txn_standalone() {
    local bin log=target/txn_standalone.log
    bin="$(cargo test --quiet -p cbs-txn --lib --no-run --message-format=json 2>/dev/null \
        | grep -o '"executable":"[^"]*"' | tail -n 1 | cut -d'"' -f4)"
    [ -x "$bin" ] || { echo "    cbs-txn unit-test binary not found"; return 1; }
    for i in $(seq 1 50); do
        timeout 60 "$bin" scheduler::tests::insert_remove_semantics --exact >"$log" 2>&1 \
            || { echo "    run $i of 50 failed (output: $log)"; return 1; }
    done
}

# Single-stage entry points: `check.sh <name>-smoke` runs just that stage.
stage_label() {
    case "$1" in
        chaos-smoke) echo "chaos smoke (fixed seed)" ;;
        plancache-smoke) echo "plancache smoke (PREPARE/EXECUTE hit rate, invalidation, lifecycle)" ;;
        txn-smoke) echo "txn smoke (serializability replay + txn chaos + txn_batch artifact)" ;;
        staleness-smoke) echo "staleness smoke (artifacts regenerate unchanged)" ;;
        perfbench-smoke) echo "perfbench smoke (benchmark tests + --smoke)" ;;
        *) return 1 ;;
    esac
}
run_stage() { run "$(stage_label "$1")" "${1//-/_}"; }

# Exit with the gate's verdict ($1 names the mode), after the last check:
# the tracked files are what they were when the gate started.
finish() {
    if [ "$(tracked_fingerprint)" != "$TRACKED_AT_START" ]; then
        echo "==> tracked files changed while the gate ran"
        git diff HEAD --stat
        FAILED=1
    fi
    if [ "$FAILED" -ne 0 ]; then
        echo "$1: FAILED"
        exit 1
    fi
    echo "$1: all stages passed"
    exit 0
}

if stage_label "${1:-}" >/dev/null; then
    run_stage "$1"
    finish "check.sh $1"
fi

run "fmt" cargo fmt --all --check
run "clippy (deny warnings)" cargo clippy --workspace --all-targets --quiet -- -D warnings
run "xtask analyze" cargo xtask analyze

# Concurrency model suite: the lock-order detector's own tests, the
# mini-loom explorer, the model of the one seqno waiter (`Signal`: no
# missed wake-up; both ways of breaking it are caught), the model of a map
# install waking a DCP consumer (reset the feed, then read the epoch;
# the other order parks on a stale topology), and the exhaustive
# flusher-protocol models that pin the PR-1 race fixes (checkpoint/drain,
# shutdown wakeup, failed-drain), the sliced commit (a cycle is indexed only
# after its one sync) and the backfill ordering pair (cache copy
# before index listing, index before mark_clean) — whose other half, that
# the memory-first backfill returns what the disk-first one did, is the
# property suite beside it, and whose resume point — a consumer chaining
# snapshots from each one's `high` beside a writer, flusher and evictor
# misses no write — is the racing test with it — and the model of two
# writers on one GSI partition (a reopen replays every record and keeps the
# highest seqno; a rewrite of the log from the tree taken before the batch
# it follows is applied loses an acknowledged op).
run "lock-order + explorer (cbs-common)" cargo test --quiet -p cbs-common --features lock-order
run "seqno signal protocol model" cargo test --quiet -p cbs-common --test signal_models
run "feed wake protocol model" cargo test --quiet -p cbs-common --test wake_models
run "flusher protocol models" cargo test --quiet -p cbs-kv --test flusher_models
run "GSI writer protocol model" cargo test --quiet -p cbs-index --test writer_models
run "backfill equivalence (oracle)" cargo test --quiet -p cbs-kv --lib backfill_equivalence
# Once more under the profile perfbench and tier-1's build use: its racing
# test (the chained-resume property) must not depend on how fast the
# writer is.
run "backfill equivalence (release)" cargo test --quiet --release -p cbs-kv --lib backfill_equivalence
run "txn protocol models" cargo test --quiet -p cbs-txn --test txn_models
run "txn scheduler standalone (50 runs)" txn_standalone
run_stage chaos-smoke
run_stage plancache-smoke
run_stage txn-smoke

[ "$QUICK" -eq 1 ] && finish "check.sh --quick"

run "full test suite" cargo test --quiet --workspace

# The operator demo and the N1QL examples keep running end to end; what
# they print is pinned by the tests above, not read here. `product_catalog`
# is the one cluster run of JOIN, NEST, UNNEST and UPDATE outside the tests;
# both examples `.expect` every query, so a failed one fails the stage.
run "cbstats demo (runs to completion)" bash -c 'cargo run --quiet --release --example cbstats >/dev/null'
run "N1QL examples (run to completion)" bash -c \
    'cargo run --quiet --release --example product_catalog >/dev/null &&
     cargo run --quiet --release --example quickstart >/dev/null'
# Stack frames differ between profiles: the parser's nesting budget must
# keep the deepest accepted statement inside a test thread's stack, and
# refuse deeper ones, in the optimised build too.
run "N1QL nesting budget (release)" cargo test --quiet --release -p cbs-n1ql --test nesting
run "GSI model properties (release, PROPTEST_SEED=1..=256)" \
    model_seeds cbs-index model_equivalence
run "key-table model (release, PROPTEST_SEED=1..=256)" model_seeds cbs-common key_map_model
run "KV write paths (release, PROPTEST_SEED=1..=256)" model_seeds cbs-kv write_paths
run "bucket-log crash recovery (release, PROPTEST_SEED=1..=256)" \
    model_seeds cbs-storage crash_recovery
run "hostile bucket logs (release, PROPTEST_SEED=1..=256)" \
    model_seeds cbs-storage hostile_logs
run_stage staleness-smoke
run_stage perfbench-smoke

# --- best-effort dynamic analysis -----------------------------------------
# ThreadSanitizer needs nightly + rust-src (to build an instrumented std);
# Miri needs the miri component. Both are optional: absence is a skip, not
# a failure, so the gate stays runnable on minimal toolchains.
has_component() {
    rustup component list --toolchain nightly 2>/dev/null \
        | grep -q "^$1.*(installed)"
}

if rustup run nightly rustc --version >/dev/null 2>&1 && has_component rust-src; then
    run "TSan (flusher tests)" env RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu \
        --quiet -p cbs-kv --test flusher_models
else
    echo "==> TSan: skipped (needs nightly toolchain with rust-src)"
fi

if has_component miri; then
    run "Miri (cbs-common)" cargo +nightly miri test --quiet -p cbs-common
else
    echo "==> Miri: skipped (miri component not installed)"
fi

finish "check.sh"
