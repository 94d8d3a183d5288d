//! The repo-invariant rules.
//!
//! Eight rules (`KNOWN_RULES`), each encoding a convention this codebase
//! relies on for correctness but which `rustc`/`clippy` cannot express:
//!
//! | rule                | scope                          | invariant                                                |
//! |---------------------|--------------------------------|----------------------------------------------------------|
//! | `unwrap`            | storage, kv, cache, dcp (lib)  | no `.unwrap()` / `.expect()` on the hot path             |
//! | `std-sync`          | every crate (lib)              | `parking_lot` locks only, no `std::sync::{Mutex,RwLock}` |
//! | `guard-io`          | storage (lib)                  | no filesystem *namespace* op while a lock guard is held  |
//! | `wall-clock`        | cluster (lib)                  | no `Instant::now`/`SystemTime::now` in the simulated     |
//! |                     |                                | transport — use `cbs_common::time`                       |
//! | `obs-naming`        | every crate (lib)              | metric/span name literals follow the cbs-obs convention: |
//! |                     |                                | `service.component.metric`, segments `[a-z][a-z0-9_]*`;  |
//! |                     |                                | consistency-observability families (`cluster.replication.*`, |
//! |                     |                                | `chaos.staleness.*`) must register with `_with_help`     |
//! | `chaos-determinism` | chaos (lib + tests) and the    | no ambient randomness or wall-clock reads                |
//! |                     | root `tests/chaos*.rs` suite   | (`thread_rng`, `Instant::now`, `SystemTime`) — every     |
//! |                     |                                | chaos decision must derive from the printed seed so a    |
//! |                     |                                | failure replays exactly                                  |
//! | `txn-determinism`   | txn (lib + tests) and the      | the same contract for the transaction scheduler and its  |
//! |                     | bench crate's txn benches      | battery (`TXN_SEED` replay, byte-stable bench JSON)      |
//! | `ycsb-hot-parse`    | ycsb (lib)                     | no ad-hoc N1QL construction or parser/planner calls in   |
//! |                     |                                | the benchmark hot loop — PREPARE once at setup, EXECUTE  |
//! |                     |                                | per operation (the fig16 fast path)                      |
//!
//! Suppression: `// lint:allow(<rule>): <reason>` on the offending line or
//! the comment block immediately above it. Reasons are mandatory, unknown
//! rule names and allows that suppress nothing are themselves findings —
//! stale suppressions rot fast.
//!
//! "Lib" scope means `crates/<name>/src/**`; `#[cfg(test)]` blocks inside
//! lib files are exempt, as are `tests/` and `benches/` trees (the walker
//! never feeds them in).

use crate::scan::{mask, Masked};

/// Crates whose lib code is the KV hot path (`unwrap` rule scope).
pub const HOT_PATH_CRATES: &[&str] = &["storage", "kv", "cache", "dcp"];
/// Crate holding the storage engine (`guard-io` rule scope).
pub const STORAGE_CRATE: &str = "storage";
/// Crate holding the simulated-cluster transport (`wall-clock` scope).
pub const CLUSTER_CRATE: &str = "cluster";
/// Crate holding the chaos harness (`chaos-determinism` scope).
pub const CHAOS_CRATE: &str = "chaos";
/// Crate holding the transaction scheduler (`txn-determinism` scope).
pub const TXN_CRATE: &str = "txn";
/// Crate holding the YCSB benchmark harness (`ycsb-hot-parse` scope).
pub const YCSB_CRATE: &str = "ycsb";

/// Filesystem namespace operations: calls that create, destroy, rename or
/// enumerate directory entries (as opposed to reading/writing an already
/// owned file handle, which the log and the vBucket indexes do under their
/// own locks by design). `GroupCommitWal::open{,_file}` and
/// `ShardLog::recover` are on the list because they open (and the latter
/// scans) a log file.
pub const FS_NAMESPACE_OPS: &[&str] = &[
    "File::open",
    "File::create",
    "OpenOptions::new",
    "fs::rename",
    "fs::remove_file",
    "fs::remove_dir_all",
    "fs::remove_dir",
    "fs::create_dir_all",
    "fs::create_dir",
    "fs::read_dir",
    "fs::copy",
    "fs::hard_link",
    "GroupCommitWal::open",
    "ShardLog::recover",
];

const KNOWN_RULES: &[&str] = &[
    "unwrap",
    "std-sync",
    "guard-io",
    "wall-clock",
    "obs-naming",
    "chaos-determinism",
    "txn-determinism",
    "ycsb-hot-parse",
];

/// Rules owned by `cargo xtask analyze` rather than the line linter.
/// `lint:allow` directives naming them are legal in any scanned file, but
/// their suppression/staleness hygiene is checked by the analyzer (which
/// knows where its findings land), not by `apply_allows` here.
pub const ANALYZE_RULES: &[&str] = &["lock-order", "guard-blocking", "raw-lock"];

/// Registration call sites whose first argument, when it is a string
/// literal, must be a well-formed cbs-obs metric/event name. Dynamic names
/// (`format!`, variables) pass through — `cbs_obs::Registry` still
/// validates them at runtime; this rule catches the static ones at lint
/// time.
const OBS_NAME_CALLS: &[&str] =
    &[".counter(", ".gauge(", ".histogram(", ".windowed_histogram(", ".record_event("];

/// The span recorder's entry points (`cbs_obs::span` and the `TraceSink`
/// methods; the name is always the first argument). Span names follow the
/// same convention but are not metrics: the described-family rule below
/// does not apply to them. The bare `span(` marker covers both the free
/// function and `TraceSink::span`.
const OBS_SPAN_CALLS: &[&str] = &["span(", ".mint(", ".child_of(", ".record_span("];

/// Metric/event families that must be registered through the `_with_help`
/// variants: these names surface in the `system:replication` /
/// `system:staleness` / `system:events` catalogs and the Prometheus
/// export, where a series without a description is unusable to an
/// operator. The markers above only match the plain (help-less)
/// registration calls — `_with_help` call sites contain `_with_help(`,
/// not `.counter(` or `.record_event(` — so a match with one of these
/// prefixes is by construction an undescribed registration. The
/// `obs.trace.` and `cluster.events.` families cover the trace store's
/// accounting counters and the cluster flight recorder's topology
/// lifecycle events (DESIGN.md §17).
const OBS_DESCRIBED_PREFIXES: &[&str] =
    &["cluster.replication.", "chaos.staleness.", "obs.trace.", "cluster.events."];

/// One lint diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Path relative to the repo root.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl Finding {
    pub fn render(&self) -> String {
        format!("{}:{}: [{}] {}", self.file, self.line, self.rule, self.msg)
    }
}

/// Lint one file. `crate_name` is the directory name under `crates/`,
/// `rel_path` is repo-relative (for diagnostics only).
pub fn lint_file(crate_name: &str, rel_path: &str, src: &str) -> Vec<Finding> {
    let m = mask(src);
    let mut findings = Vec::new();

    if HOT_PATH_CRATES.contains(&crate_name) {
        rule_unwrap(&m, rel_path, crate_name, &mut findings);
    }
    rule_std_sync(&m, rel_path, &mut findings);
    if crate_name == STORAGE_CRATE {
        rule_guard_io(&m, rel_path, &mut findings);
    }
    if crate_name == CLUSTER_CRATE {
        rule_wall_clock(&m, rel_path, &mut findings);
    }
    if crate_name == CHAOS_CRATE {
        rule_chaos_determinism(&m, rel_path, &mut findings);
    }
    if crate_name == TXN_CRATE {
        rule_txn_determinism(&m, rel_path, &mut findings);
    }
    let orig_lines: Vec<&str> = src.lines().collect();
    if crate_name == YCSB_CRATE {
        rule_ycsb_hot_parse(&m, &orig_lines, rel_path, &mut findings);
    }
    rule_obs_naming(&m, &orig_lines, rel_path, &mut findings);

    apply_allows(&m, rel_path, findings)
}

/// Lint a non-lib tree file (`tests/`, `benches/`, `examples/`). These
/// trees carry the repo-wide invariants only: `std-sync` (parking_lot is
/// the lock standard everywhere cargo builds code, not just in libs),
/// `chaos-determinism` when the file is a chaos test artifact
/// (`crates/chaos/tests/**` or the root `tests/chaos*.rs` suite — a
/// wall-clock read or ambient RNG there silently breaks seed replay), and
/// `txn-determinism` for the transaction battery's artifacts
/// (`crates/txn/tests/**`, `crates/bench` txn benches) under the same
/// seed-replay contract. The remaining rules are lib-code invariants and
/// stay out of scope.
pub fn lint_aux_file(
    rel_path: &str,
    src: &str,
    chaos_artifact: bool,
    txn_artifact: bool,
) -> Vec<Finding> {
    let m = mask(src);
    let mut findings = Vec::new();
    rule_std_sync(&m, rel_path, &mut findings);
    if chaos_artifact {
        rule_chaos_determinism(&m, rel_path, &mut findings);
    }
    if txn_artifact {
        rule_txn_determinism(&m, rel_path, &mut findings);
    }
    apply_allows(&m, rel_path, findings)
}

/// Suppress findings covered by a well-formed allow; then flag allow-hygiene
/// problems (missing reason, unknown rule, allow that suppressed nothing).
fn apply_allows(m: &Masked, rel: &str, findings: Vec<Finding>) -> Vec<Finding> {
    let mut used = vec![false; m.allows.len()];
    let mut out: Vec<Finding> = Vec::new();

    'finding: for f in findings {
        for (i, a) in m.allows.iter().enumerate() {
            if a.rule == f.rule && a.has_reason && a.target_line == f.line {
                used[i] = true;
                continue 'finding;
            }
        }
        out.push(f);
    }

    for (i, a) in m.allows.iter().enumerate() {
        if ANALYZE_RULES.contains(&a.rule.as_str()) {
            // Owned by `cargo xtask analyze`: it applies these allows to its
            // own findings and reports their staleness/reason hygiene.
            continue;
        }
        if !KNOWN_RULES.contains(&a.rule.as_str()) {
            out.push(Finding {
                file: rel.to_string(),
                line: a.line,
                rule: "lint-allow",
                msg: format!(
                    "unknown rule `{}` in lint:allow (known: {})",
                    a.rule,
                    KNOWN_RULES.join(", ")
                ),
            });
        } else if !a.has_reason {
            out.push(Finding {
                file: rel.to_string(),
                line: a.line,
                rule: "lint-allow",
                msg: format!(
                    "lint:allow({}) without a reason — write `// lint:allow({}): <why this is sound>`",
                    a.rule, a.rule
                ),
            });
        } else if !used[i] {
            out.push(Finding {
                file: rel.to_string(),
                line: a.line,
                rule: "lint-allow",
                msg: format!(
                    "lint:allow({}) suppresses nothing on line {} — stale, remove it",
                    a.rule, a.target_line
                ),
            });
        }
    }

    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// `unwrap`: no `.unwrap()` / `.expect(` in hot-path lib code.
fn rule_unwrap(m: &Masked, rel: &str, crate_name: &str, out: &mut Vec<Finding>) {
    for (idx, l) in m.lines.iter().enumerate() {
        if m.test_lines[idx] {
            continue;
        }
        for needle in [".unwrap()", ".expect("] {
            if l.contains(needle) {
                out.push(Finding {
                    file: rel.to_string(),
                    line: idx + 1,
                    rule: "unwrap",
                    msg: format!(
                        "`{}` on the cbs-{} hot path — return `cbs_common::Error` instead, \
                         or justify with `// lint:allow(unwrap): <reason>`",
                        needle.trim_end_matches('('),
                        crate_name
                    ),
                });
            }
        }
    }
}

/// `std-sync`: parking_lot is the repo standard; `std::sync` blocking
/// primitives are poisoning, slower under contention, and bypass the
/// lock-order detector.
fn rule_std_sync(m: &Masked, rel: &str, out: &mut Vec<Finding>) {
    for (idx, l) in m.lines.iter().enumerate() {
        if m.test_lines[idx] {
            continue;
        }
        let via_use = if l.contains("use std::sync::") {
            ["Mutex", "RwLock", "Condvar"].iter().find(|w| contains_word(l, w))
        } else {
            None
        };
        let hit = ["std::sync::Mutex", "std::sync::RwLock", "std::sync::Condvar"]
            .iter()
            .find(|n| l.contains(*n))
            .map(|n| n.to_string())
            .or_else(|| via_use.map(|w| format!("std::sync::{w}")));
        if let Some(name) = hit {
            out.push(Finding {
                file: rel.to_string(),
                line: idx + 1,
                rule: "std-sync",
                msg: format!(
                    "`{name}` — use `parking_lot` (or `cbs_common::sync::Ordered*` for ranked \
                     locks); std locks poison and skip the lock-order detector"
                ),
            });
        }
    }
}

/// `guard-io`: in cbs-storage, no filesystem namespace operation while a
/// lock guard is live. Guards are `let g = x.lock()/.read()/.write()`
/// bindings; they die when their block closes or on `drop(g)`.
fn rule_guard_io(m: &Masked, rel: &str, out: &mut Vec<Finding>) {
    struct Guard {
        name: String,
        line: usize,
        depth: i32,
    }
    let mut depth = 0i32;
    let mut guards: Vec<Guard> = Vec::new();

    for (idx, l) in m.lines.iter().enumerate() {
        if m.test_lines[idx] {
            // Reset tracking on test boundaries; test code may hold guards
            // across I/O freely.
            guards.clear();
            for ch in l.chars() {
                match ch {
                    '{' => depth += 1,
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            continue;
        }

        // 1. Flag namespace ops while any guard from a previous line lives.
        if let Some(op) = FS_NAMESPACE_OPS.iter().find(|op| l.contains(*op)) {
            if let Some(g) = guards.last() {
                out.push(Finding {
                    file: rel.to_string(),
                    line: idx + 1,
                    rule: "guard-io",
                    msg: format!(
                        "filesystem namespace op `{op}` while lock guard `{}` (line {}) is \
                         held — drop the guard first, or justify with \
                         `// lint:allow(guard-io): <reason>`",
                        g.name, g.line
                    ),
                });
            }
        }

        // 2. Register new guard bindings declared on this line.
        let t = l.trim_start();
        if t.starts_with("let ") && [".lock()", ".read()", ".write()"].iter().any(|n| l.contains(n))
        {
            let after_let = t["let ".len()..].trim_start();
            let after_mut = after_let.strip_prefix("mut ").unwrap_or(after_let).trim_start();
            let name: String =
                after_mut.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            if !name.is_empty() && name != "_" {
                guards.push(Guard { name, line: idx + 1, depth });
            }
        }

        // 3. Explicit early drops.
        guards.retain(|g| !l.contains(&format!("drop({})", g.name)));

        // 4. Track block depth; guards die when their block closes.
        for ch in l.chars() {
            match ch {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    guards.retain(|g| depth >= g.depth);
                }
                _ => {}
            }
        }
    }
}

/// `wall-clock`: the simulated-cluster transport must take time from
/// `cbs_common::time` (one choke point, swappable for virtual time).
fn rule_wall_clock(m: &Masked, rel: &str, out: &mut Vec<Finding>) {
    for (idx, l) in m.lines.iter().enumerate() {
        if m.test_lines[idx] {
            continue;
        }
        for needle in ["Instant::now", "SystemTime::now"] {
            if l.contains(needle) {
                out.push(Finding {
                    file: rel.to_string(),
                    line: idx + 1,
                    rule: "wall-clock",
                    msg: format!(
                        "`{needle}` in the cluster transport — use \
                         `cbs_common::time::Deadline` / `now_unix_secs` so simulated runs \
                         can virtualise time"
                    ),
                });
            }
        }
    }
}

/// `chaos-determinism`: the chaos harness and its tests must be replayable
/// from a printed seed. Any ambient entropy (`rand::thread_rng`) or
/// wall-clock read (`Instant::now`, `SystemTime`) breaks that contract —
/// fault decisions come from seeded hashes, time comes from
/// `cbs_common::time::Deadline` / plain `Duration`s. Unlike the hot-path
/// rules this one does NOT exempt `#[cfg(test)]` lines: chaos tests are
/// exactly the code that must stay deterministic.
fn rule_chaos_determinism(m: &Masked, rel: &str, out: &mut Vec<Finding>) {
    rule_seed_determinism(
        m,
        rel,
        "chaos-determinism",
        "chaos code — fault decisions must be pure functions of the printed seed (seeded \
         hashes + `cbs_common::time::Deadline`), or replay breaks",
        out,
    );
}

/// `txn-determinism`: same contract for the transaction scheduler and its
/// test battery. The serializability suite replays any failure from one
/// `TXN_SEED=<n>` variable, the wave-model bench must emit byte-identical
/// JSON per seed, and the mini-loom models enumerate schedules — ambient
/// entropy or wall-clock reads anywhere in `crates/txn` (lib *or* tests)
/// silently break all three.
fn rule_txn_determinism(m: &Masked, rel: &str, out: &mut Vec<Finding>) {
    rule_seed_determinism(
        m,
        rel,
        "txn-determinism",
        "transaction-scheduler code — conflict workloads and scheduling decisions must be \
         pure functions of the printed seed (`TXN_SEED` replay, byte-stable bench JSON), \
         or replay breaks",
        out,
    );
}

/// Shared body of the seed-replay determinism rules: flags ambient entropy
/// (`rand::thread_rng`) and wall-clock reads (`Instant::now`,
/// `SystemTime`), with **no** `#[cfg(test)]` exemption — the tests are
/// exactly the code that must stay replayable.
fn rule_seed_determinism(
    m: &Masked,
    rel: &str,
    rule: &'static str,
    domain: &str,
    out: &mut Vec<Finding>,
) {
    for (idx, l) in m.lines.iter().enumerate() {
        let hits = ["thread_rng", "Instant::now"]
            .iter()
            .filter(|n| l.contains(*n))
            .copied()
            .chain(contains_word(l, "SystemTime").then_some("SystemTime"));
        for needle in hits {
            out.push(Finding {
                file: rel.to_string(),
                line: idx + 1,
                rule,
                msg: format!(
                    "`{needle}` in {domain}; justify with `// lint:allow({rule}): <reason>`"
                ),
            });
        }
    }
}

/// `ycsb-hot-parse`: the YCSB harness must not build ad-hoc query text or
/// call into the N1QL front end per operation. Every statement issued from
/// the per-op loop pays lexer + parser + planner unless it went through
/// PREPARE — exactly the overhead that flattened the fig16 YCSB-E curve.
/// Flagged: `format!("SELECT`-style ad-hoc statement construction (DDL and
/// `PREPARE` text is setup-time and passes) and direct front-end calls
/// (`tokenize(`, `parse_statement(`, `build_plan(`). The mask blanks string
/// contents, so statement prefixes are read from the original line at the
/// `format!(` site.
fn rule_ycsb_hot_parse(m: &Masked, orig_lines: &[&str], rel: &str, out: &mut Vec<Finding>) {
    const FRONT_END_CALLS: &[&str] = &["tokenize(", "parse_statement(", "build_plan("];
    const AD_HOC_PREFIXES: &[&str] = &["format!(\"SELECT", "format!(\"select"];
    for (idx, l) in m.lines.iter().enumerate() {
        if m.test_lines[idx] {
            continue;
        }
        let Some(orig) = orig_lines.get(idx) else { continue };
        if let Some(call) = FRONT_END_CALLS.iter().find(|n| l.contains(*n)) {
            out.push(Finding {
                file: rel.to_string(),
                line: idx + 1,
                rule: "ycsb-hot-parse",
                msg: format!(
                    "`{}` in the YCSB harness — the benchmark loop must not run the N1QL \
                     front end per operation; PREPARE at setup and EXECUTE in the loop",
                    call.trim_end_matches('(')
                ),
            });
        }
        if l.contains("format!(") && AD_HOC_PREFIXES.iter().any(|p| orig.contains(p)) {
            out.push(Finding {
                file: rel.to_string(),
                line: idx + 1,
                rule: "ycsb-hot-parse",
                msg: "ad-hoc SELECT text built in the YCSB harness — each issue re-lexes, \
                      re-parses and re-plans; PREPARE the statement once at setup and \
                      EXECUTE it with named parameters per operation"
                    .to_string(),
            });
        }
    }
}

/// `obs-naming`: metric and span name literals passed to the cbs-obs
/// resolution/tracing calls must follow the `service.component.metric`
/// convention — exactly three dot-separated segments, each starting with a
/// lowercase letter and continuing with `[a-z0-9_]`. Well-formed names in
/// the [`OBS_DESCRIBED_PREFIXES`] families must additionally be registered
/// through the `_with_help` variants. The mask blanks string contents, so
/// the name is read back out of the original line at the same column (the
/// mask is position-preserving per character).
fn rule_obs_naming(m: &Masked, orig_lines: &[&str], rel: &str, out: &mut Vec<Finding>) {
    for (idx, l) in m.lines.iter().enumerate() {
        if m.test_lines[idx] {
            continue;
        }
        let Some(orig) = orig_lines.get(idx) else { continue };
        let orig: Vec<char> = orig.chars().collect();
        let metrics = OBS_NAME_CALLS.iter().map(|m| (*m, true));
        for (marker, is_metric) in metrics.chain(OBS_SPAN_CALLS.iter().map(|m| (*m, false))) {
            let mut search = 0usize;
            while let Some(pos) = l[search..].find(marker) {
                let abs = search + pos;
                search = abs + marker.len();
                // The bare `span(` marker needs a word boundary so it does
                // not match idents ending in "span" (`record_span(` has a
                // marker of its own); the dotted markers carry theirs.
                if marker == "span(" {
                    let before = l[..abs].chars().next_back();
                    if before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                        continue;
                    }
                }
                // Only same-line string-literal arguments are checked.
                let arg_at = l[..abs + marker.len()].chars().count();
                if orig.get(arg_at) != Some(&'"') {
                    continue;
                }
                let name: String = orig[arg_at + 1..].iter().take_while(|c| **c != '"').collect();
                if !is_valid_obs_name(&name) {
                    out.push(Finding {
                        file: rel.to_string(),
                        line: idx + 1,
                        rule: "obs-naming",
                        msg: format!(
                            "metric/span name \"{name}\" breaks the cbs-obs convention \
                             `service.component.metric` (exactly three dot-separated \
                             segments, each `[a-z][a-z0-9_]*`)"
                        ),
                    });
                } else if is_metric && OBS_DESCRIBED_PREFIXES.iter().any(|p| name.starts_with(p)) {
                    out.push(Finding {
                        file: rel.to_string(),
                        line: idx + 1,
                        rule: "obs-naming",
                        msg: format!(
                            "metric \"{name}\" belongs to a described family \
                             ({}) — register it through the matching `_with_help` \
                             call so the catalogs and the Prometheus `# HELP` line \
                             carry a description",
                            OBS_DESCRIBED_PREFIXES.join(", ")
                        ),
                    });
                }
            }
        }
    }
}

/// The cbs-obs naming convention, re-stated here because xtask deliberately
/// has no dependencies (mirror of `cbs_obs::is_valid_metric_name`).
fn is_valid_obs_name(name: &str) -> bool {
    let mut segments = 0usize;
    for seg in name.split('.') {
        segments += 1;
        let mut chars = seg.chars();
        match chars.next() {
            Some(c) if c.is_ascii_lowercase() => {}
            _ => return false,
        }
        if !chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_') {
            return false;
        }
    }
    segments == 3
}

/// Word-boundary containment (so `Mutex` doesn't match `OrderedMutex`).
fn contains_word(haystack: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(word) {
        let abs = start + pos;
        let before_ok = abs == 0
            || !haystack[..abs]
                .chars()
                .next_back()
                .map(|c| c.is_alphanumeric() || c == '_')
                .unwrap_or(false);
        let after = abs + word.len();
        let after_ok = after >= haystack.len()
            || !haystack[after..]
                .chars()
                .next()
                .map(|c| c.is_alphanumeric() || c == '_')
                .unwrap_or(false);
        if before_ok && after_ok {
            return true;
        }
        start = abs + word.len();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(crate_name: &str, src: &str) -> Vec<Finding> {
        lint_file(crate_name, "crates/x/src/lib.rs", src)
    }

    #[test]
    fn unwrap_flagged_on_hot_path_only() {
        let src = "fn f() { x.unwrap(); y.expect(\"boom\"); }\n";
        let hot = lint("kv", src);
        assert_eq!(hot.iter().filter(|f| f.rule == "unwrap").count(), 2);
        let cold = lint("n1ql", src);
        assert!(cold.iter().all(|f| f.rule != "unwrap"));
    }

    #[test]
    fn unwrap_or_variants_not_flagged() {
        let src = "fn f() { x.unwrap_or(0); y.unwrap_or_else(z); w.unwrap_or_default(); }\n";
        assert!(lint("storage", src).is_empty());
    }

    #[test]
    fn unwrap_in_cfg_test_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert!(lint("kv", src).is_empty());
    }

    #[test]
    fn unwrap_allow_with_reason_suppresses() {
        let src = "fn f() {\n    // lint:allow(unwrap): checked two lines up\n    x.unwrap();\n}\n";
        assert!(lint("cache", src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_a_finding() {
        let src = "fn f() {\n    // lint:allow(unwrap)\n    x.unwrap();\n}\n";
        let f = lint("cache", src);
        // the unwrap still fires AND the bare allow is flagged
        assert!(f.iter().any(|f| f.rule == "unwrap"));
        assert!(f.iter().any(|f| f.rule == "lint-allow" && f.msg.contains("without a reason")));
    }

    #[test]
    fn stale_allow_is_a_finding() {
        let src =
            "fn f() {\n    // lint:allow(unwrap): nothing here anymore\n    x.unwrap_or(0);\n}\n";
        let f = lint("cache", src);
        assert!(f.iter().any(|f| f.rule == "lint-allow" && f.msg.contains("suppresses nothing")));
    }

    #[test]
    fn unknown_allow_rule_is_a_finding() {
        let src = "// lint:allow(unrwap): typo\nfn f() {}\n";
        let f = lint("views", src);
        assert!(f.iter().any(|f| f.rule == "lint-allow" && f.msg.contains("unknown rule")));
    }

    #[test]
    fn std_sync_flagged_everywhere() {
        let src = "use std::sync::Mutex;\nfn f() { let m: std::sync::RwLock<u8>; }\n";
        let f = lint("views", src);
        assert_eq!(f.iter().filter(|f| f.rule == "std-sync").count(), 2);
    }

    #[test]
    fn std_sync_use_list_flagged_but_arc_ok() {
        let hit = lint("kv", "use std::sync::{Arc, Mutex};\n");
        assert!(hit.iter().any(|f| f.rule == "std-sync"));
        let ok = lint("kv", "use std::sync::{atomic::AtomicU64, Arc};\n");
        assert!(ok.iter().all(|f| f.rule != "std-sync"));
        // OrderedMutex must not word-match Mutex
        let ok2 = lint("kv", "use cbs_common::sync::OrderedMutex;\n");
        assert!(ok2.is_empty());
    }

    #[test]
    fn guard_io_flags_fs_op_under_guard() {
        let src = "\
fn compact(&self) {
    let inner = self.inner.lock();
    std::fs::rename(&tmp, &path);
}
";
        let f = lint("storage", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "guard-io");
        assert_eq!(f[0].line, 3);
        assert!(f[0].msg.contains("`inner`"));
    }

    #[test]
    fn guard_io_scope_end_releases() {
        let src = "\
fn f(&self) {
    {
        let g = self.m.lock();
    }
    std::fs::remove_file(&p);
}
";
        assert!(lint("storage", src).is_empty());
    }

    #[test]
    fn guard_io_drop_releases() {
        let src = "\
fn f(&self) {
    let g = self.m.lock();
    drop(g);
    std::fs::remove_file(&p);
}
";
        assert!(lint("storage", src).is_empty());
    }

    #[test]
    fn guard_io_only_in_storage() {
        let src = "fn f(&self) {\n    let g = self.m.lock();\n    std::fs::remove_file(&p);\n}\n";
        assert!(lint("kv", src).iter().all(|f| f.rule != "guard-io"));
    }

    #[test]
    fn guard_io_statement_temporary_not_a_guard() {
        // `map.read().get(..)` — the temporary guard dies at the semicolon;
        // only `let`-bound guards persist.
        let src = "\
fn f(&self) {
    let id = self.map.read().len();
    std::fs::remove_file(&p);
}
";
        // `let id = ...read()...` DOES look like a guard binding to the
        // scanner — this is the documented over-approximation; the finding
        // is expected and callers annotate. Verify it fires so the
        // behaviour is pinned.
        let f = lint("storage", src);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn wall_clock_flagged_in_cluster_only() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert!(lint("cluster", src).iter().any(|f| f.rule == "wall-clock"));
        assert!(lint("kv", src).is_empty());
    }

    #[test]
    fn wall_clock_allow_works() {
        let src = "fn f() {\n    // lint:allow(wall-clock): bench harness timing\n    let t = std::time::Instant::now();\n}\n";
        assert!(lint("cluster", src).is_empty());
    }

    #[test]
    fn chaos_determinism_flags_entropy_and_clocks_in_chaos_only() {
        let src = "fn f() { let mut r = rand::thread_rng(); \
                   let t = std::time::Instant::now(); \
                   let s = std::time::SystemTime::now(); }\n";
        let hits = lint("chaos", src);
        assert_eq!(hits.iter().filter(|f| f.rule == "chaos-determinism").count(), 3, "{hits:?}");
        // Out of scope: kv is covered by other rules, not this one.
        assert!(lint("kv", src).iter().all(|f| f.rule != "chaos-determinism"));
    }

    #[test]
    fn chaos_determinism_covers_cfg_test_blocks_too() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let t = Instant::now(); }\n}\n";
        assert!(lint("chaos", src).iter().any(|f| f.rule == "chaos-determinism"));
    }

    #[test]
    fn chaos_determinism_word_boundary_and_allow() {
        // `MySystemTimer` must not word-match `SystemTime`.
        assert!(lint("chaos", "fn f(x: MySystemTimer) {}\n").is_empty());
        let allowed = "fn f() {\n    // lint:allow(chaos-determinism): wall-clock only logged, never branched on\n    let t = std::time::Instant::now();\n}\n";
        assert!(lint("chaos", allowed).is_empty());
    }

    #[test]
    fn aux_file_linter_applies_repo_wide_rules_only() {
        let src = "fn t() {\n    x.unwrap();\n    let g: std::sync::Mutex<u8>;\n    \
                   let t = Instant::now();\n}\n";
        // A chaos artifact: std-sync (repo-wide) + chaos-determinism.
        let f = lint_aux_file("tests/chaos_kv.rs", src, true, false);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|f| f.rule == "std-sync" && f.line == 3));
        assert!(f.iter().any(|f| f.rule == "chaos-determinism" && f.line == 4));
        // A txn artifact: same shape under the txn-determinism rule.
        let f = lint_aux_file("crates/txn/tests/serializability.rs", src, false, true);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|f| f.rule == "std-sync" && f.line == 3));
        assert!(f.iter().any(|f| f.rule == "txn-determinism" && f.line == 4));
        // A plain aux file: no determinism rule applies, and neither do
        // hot-path rules like unwrap.
        let f = lint_aux_file("crates/bench/benches/micro.rs", src, false, false);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "std-sync");
    }

    #[test]
    fn obs_naming_flags_bad_literals_everywhere() {
        let bad = lint("views", "fn f(r: &Registry) { let c = r.counter(\"badName\"); }\n");
        assert!(bad.iter().any(|f| f.rule == "obs-naming" && f.msg.contains("badName")));
        let two = lint("kv", "fn f(r: &Registry) { r.histogram(\"kv.engine\"); }\n");
        assert!(two.iter().any(|f| f.rule == "obs-naming"), "two segments rejected");
        let four = lint("kv", "fn f(r: &Registry) { r.gauge(\"a.b.c.d\"); }\n");
        assert!(four.iter().any(|f| f.rule == "obs-naming"), "four segments rejected");
        let upper = lint("kv", "fn f() { let _s = cbs_obs::span(\"kv.Engine.set\"); }\n");
        assert!(upper.iter().any(|f| f.rule == "obs-naming"), "uppercase rejected");
        // Every way of opening or recording a span is covered, once each.
        for call in [
            "sink.mint(\"client.get\")",
            "sink.span(\"kv.engine\")",
            "sink.child_of(\"deliver\", ctx)",
            "sink.record_span(\"wal_commit\", ctx, t0, t1)",
        ] {
            let f = lint("kv", &format!("fn f(sink: &TraceSink) {{ let _g = {call}; }}\n"));
            assert_eq!(f.iter().filter(|f| f.rule == "obs-naming").count(), 1, "{call}: {f:?}");
        }
    }

    #[test]
    fn obs_naming_accepts_convention_and_dynamic_names() {
        let ok = lint(
            "kv",
            "fn f(r: &Registry) {\n    r.counter(\"kv.engine.gets\");\n    \
             r.histogram(\"kv.flusher.fsync_latency\");\n    \
             let _t = sink.mint(\"client.kv.get\");\n    \
             let _e = sink.span(\"kv.engine.set\");\n    \
             sink.record_span(\"kv.flusher.wal_commit\", ctx, t0, t1);\n    \
             let _s = span(\"storage.wal.fsync2\");\n}\n",
        );
        assert!(ok.iter().all(|f| f.rule != "obs-naming"), "{ok:?}");
        // Dynamic names are the registry's problem, not the linter's.
        let dynamic = lint(
            "kv",
            "fn f(r: &Registry, s: usize) { r.gauge(&format!(\"kv.flusher.queue_depth_s{s}\")); }\n",
        );
        assert!(dynamic.iter().all(|f| f.rule != "obs-naming"));
        // Unrelated `.counter(` calls with non-literal args don't fire.
        let unrelated = lint("cluster", "fn f(&self) -> u64 { self.merged().counter(name) }\n");
        assert!(unrelated.iter().all(|f| f.rule != "obs-naming"));
    }

    #[test]
    fn obs_naming_requires_help_for_described_families() {
        // Plain registration of a consistency-observability metric: flagged.
        let plain =
            lint("cluster", "fn f(r: &Registry) { r.gauge(\"cluster.replication.lag_max\"); }\n");
        assert!(
            plain.iter().any(|f| f.rule == "obs-naming" && f.msg.contains("_with_help")),
            "{plain:?}"
        );
        let windowed = lint(
            "chaos",
            "fn f(r: &Registry) { r.windowed_histogram(\"chaos.staleness.age_ticks\"); }\n",
        );
        assert!(windowed.iter().any(|f| f.msg.contains("_with_help")), "{windowed:?}");
        // The `_with_help` variants never match the plain-call markers.
        let described = lint(
            "cluster",
            "fn f(r: &Registry) { r.counter_with_help(\"cluster.replication.cycles\", \"x\"); }\n",
        );
        assert!(described.iter().all(|f| f.rule != "obs-naming"), "{described:?}");
        // Other families may register without help; spans are not metrics.
        let other = lint("kv", "fn f(r: &Registry) { r.counter(\"kv.engine.gets\"); }\n");
        assert!(other.iter().all(|f| f.rule != "obs-naming"));
        let traced = lint(
            "cluster",
            "fn f(s: &TraceSink) { s.child_of(\"cluster.replication.deliver\", ctx); }\n",
        );
        assert!(traced.iter().all(|f| f.rule != "obs-naming"), "{traced:?}");
        // Malformed windowed-histogram names ride the same marker list.
        let bad = lint("chaos", "fn f(r: &Registry) { r.windowed_histogram(\"BadName\"); }\n");
        assert!(bad.iter().any(|f| f.rule == "obs-naming"), "{bad:?}");
    }

    #[test]
    fn obs_naming_covers_flight_recorder_events() {
        // Malformed event names ride the same marker list as metrics.
        let bad = lint("txn", "fn f(r: &Registry) { r.record_event(\"badname\", &[]); }\n");
        assert!(bad.iter().any(|f| f.rule == "obs-naming" && f.msg.contains("badname")), "{bad:?}");
        // Topology lifecycle events are a described family: a plain
        // `record_event` registration is flagged...
        let plain = lint(
            "cluster",
            "fn f(r: &Registry) { r.record_event(\"cluster.events.failover\", &[]); }\n",
        );
        assert!(
            plain.iter().any(|f| f.rule == "obs-naming" && f.msg.contains("_with_help")),
            "{plain:?}"
        );
        // ...while `record_event_with_help` never matches the plain marker.
        let described = lint(
            "cluster",
            "fn f(r: &Registry) { r.record_event_with_help(\"cluster.events.failover\", \"x\", &[]); }\n",
        );
        assert!(described.iter().all(|f| f.rule != "obs-naming"), "{described:?}");
        // Other event families may record without help.
        let other =
            lint("txn", "fn f(r: &Registry) { r.record_event(\"txn.events.abort\", &[]); }\n");
        assert!(other.iter().all(|f| f.rule != "obs-naming"), "{other:?}");
        // Trace-store accounting counters are also a described family.
        let trace_ctr = lint("obs", "fn f(r: &Registry) { r.counter(\"obs.trace.minted\"); }\n");
        assert!(trace_ctr.iter().any(|f| f.msg.contains("_with_help")), "{trace_ctr:?}");
    }

    #[test]
    fn obs_naming_exempts_tests_and_respects_allows() {
        let test_src =
            "#[cfg(test)]\nmod tests {\n    fn t(r: &Registry) { r.counter(\"not a name\"); }\n}\n";
        assert!(lint("kv", test_src).is_empty());
        let allowed = "fn f(r: &Registry) {\n    // lint:allow(obs-naming): exercising the validator\n    r.counter(\"bad\");\n}\n";
        assert!(lint("kv", allowed).is_empty());
    }

    #[test]
    fn findings_render_with_position() {
        let f = lint("kv", "fn f() { x.unwrap(); }\n");
        assert!(f[0].render().starts_with("crates/x/src/lib.rs:1: [unwrap]"));
    }

    #[test]
    fn ycsb_hot_parse_flags_adhoc_select_and_front_end_calls() {
        let src = "fn scan(c: &C) {\n    c.query(&format!(\"SELECT * FROM {b} WHERE x >= $1\"), &o);\n    let s = parse_statement(text);\n}\n";
        let f = lint("ycsb", src);
        assert_eq!(f.iter().filter(|f| f.rule == "ycsb-hot-parse").count(), 2, "{f:?}");
        // Out of scope in every other crate — n1ql itself parses freely.
        assert!(lint("n1ql", src).iter().all(|f| f.rule != "ycsb-hot-parse"));
    }

    #[test]
    fn ycsb_hot_parse_passes_prepare_ddl_and_tests() {
        let ok = "fn setup(c: &C) {\n    c.query(&format!(\"CREATE PRIMARY INDEX ON {b}\"), &o);\n    c.query(&format!(\"PREPARE s FROM SELECT meta().id FROM {b}\"), &o);\n    c.query(\"EXECUTE s\", &o);\n}\n";
        assert!(lint("ycsb", ok).iter().all(|f| f.rule != "ycsb-hot-parse"), "{ok}");
        let test_src = "#[cfg(test)]\nmod tests {\n    fn t(c: &C) { c.query(&format!(\"SELECT 1 FROM {b}\"), &o); }\n}\n";
        assert!(lint("ycsb", test_src).is_empty());
        let allowed = "fn f(c: &C) {\n    // lint:allow(ycsb-hot-parse): one-shot verification query after the run\n    c.query(&format!(\"SELECT COUNT(*) FROM {b}\"), &o);\n}\n";
        assert!(lint("ycsb", allowed).is_empty());
    }
}
