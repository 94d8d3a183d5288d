//! The line-level passes: conventions a single masked line can violate.
//!
//! | rule                | scope (repo-relative path prefix)     | invariant                                             |
//! |---------------------|---------------------------------------|-------------------------------------------------------|
//! | `wall-clock`        | `crates/cluster/src/`                 | the simulated transport takes time from               |
//! |                     |                                       | `cbs_common::time`, never `Instant::now`/`SystemTime` |
//! | `chaos-determinism` | `crates/chaos/`, `tests/chaos*`       | every chaos decision derives from the printed seed    |
//! | `txn-determinism`   | `crates/txn/`                         | the same contract for the transaction battery         |
//! | `obs-naming`        | every crate's `src/`                  | metric/span name literals are `service.component.metric` |
//!
//! The first three are rows of one table ([`FORBIDDEN_CALLS`]). What a
//! compiler-backed tool can check is not here: `unwrap`/`expect` and
//! `std::sync` locks are clippy's (`[lints.clippy]`, `clippy.toml`).

use super::Finding;
use crate::census::{SourceFile, Tree};
use crate::scan::Masked;

/// Reads of ambient time. `Instant::now` is the monotonic clock;
/// `SystemTime` is flagged by name because every use of it is a wall-clock
/// read or a value derived from one.
const CLOCK_READS: &[&str] = &["Instant::now", "SystemTime"];

/// One "no [`CLOCK_READS`] in this scope" rule.
struct ForbiddenCalls {
    rule: &'static str,
    /// Repo-relative path prefixes the rule covers.
    scope: &'static [&'static str],
    /// Whether `#[cfg(test)]` regions are exempt. The determinism rules
    /// exempt nothing: the tests are exactly the code that must replay.
    tests_exempt: bool,
    /// Completes "`<call>` in …".
    why: &'static str,
}

const FORBIDDEN_CALLS: &[ForbiddenCalls] = &[
    ForbiddenCalls {
        rule: "wall-clock",
        scope: &["crates/cluster/src/"],
        tests_exempt: true,
        why: "the cluster transport — use `cbs_common::time::Deadline` / `now_unix_secs` so \
              simulated runs can virtualise time",
    },
    ForbiddenCalls {
        rule: "chaos-determinism",
        scope: &["crates/chaos/", "tests/chaos"],
        tests_exempt: false,
        why: "chaos code — fault decisions must be pure functions of the printed seed (seeded \
              hashes + `cbs_common::time::Deadline`), or replay breaks",
    },
    ForbiddenCalls {
        rule: "txn-determinism",
        scope: &["crates/txn/"],
        tests_exempt: false,
        why: "transaction-scheduler code — conflict workloads and scheduling decisions must be \
              pure functions of the printed seed (`TXN_SEED` replay), or replay breaks",
    },
];

/// Registration call sites whose first argument, when it is a string
/// literal, must be a well-formed cbs-obs metric/event name. Dynamic names
/// (`format!`, variables) pass through — `cbs_obs::Registry` still
/// validates them at runtime; this rule catches the static ones.
const OBS_NAME_CALLS: &[&str] =
    &[".counter(", ".gauge(", ".histogram(", ".windowed_histogram(", ".record_event("];

/// The span recorder's entry points (`cbs_obs::span` and the `TraceSink`
/// methods; the name is always the first argument). Span names follow the
/// same convention but are not metrics — nothing validates them at run
/// time — and the described-family rule below does not apply to them. The
/// bare `span(` marker covers both the free function and `TraceSink::span`.
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

/// Run every line-level pass that covers `file`.
pub(super) fn check(file: &SourceFile, src: &str, m: &Masked, out: &mut Vec<Finding>) {
    for row in FORBIDDEN_CALLS {
        if row.scope.iter().any(|prefix| file.rel.starts_with(prefix)) {
            forbidden_calls(row, m, &file.rel, out);
        }
    }
    if file.tree == Tree::Lib {
        obs_naming(m, src, &file.rel, out);
    }
}

fn finding(rule: &'static str, rel: &str, idx: usize, msg: String) -> Finding {
    Finding { rule, file: rel.to_string(), line: idx + 1, msg, witness: Vec::new() }
}

fn forbidden_calls(row: &ForbiddenCalls, m: &Masked, rel: &str, out: &mut Vec<Finding>) {
    for (idx, l) in m.lines.iter().enumerate() {
        if row.tests_exempt && m.test_lines[idx] {
            continue;
        }
        for call in CLOCK_READS.iter().filter(|c| contains_word(l, c)) {
            let msg = format!(
                "`{call}` in {}; justify with `// lint:allow({}): <reason>`",
                row.why, row.rule
            );
            out.push(finding(row.rule, rel, idx, msg));
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
/// mask is position-preserving per character). `#[cfg(test)]` regions are
/// exempt.
fn obs_naming(m: &Masked, src: &str, rel: &str, out: &mut Vec<Finding>) {
    for (idx, (l, orig)) in m.lines.iter().zip(src.lines()).enumerate() {
        if m.test_lines[idx] {
            continue;
        }
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
                    let msg = format!(
                        "metric/span name \"{name}\" breaks the cbs-obs convention \
                         `service.component.metric` (exactly three dot-separated \
                         segments, each `[a-z][a-z0-9_]*`)"
                    );
                    out.push(finding("obs-naming", rel, idx, msg));
                } else if is_metric && OBS_DESCRIBED_PREFIXES.iter().any(|p| name.starts_with(p)) {
                    let msg = format!(
                        "metric \"{name}\" belongs to a described family ({}) — register it \
                         through the matching `_with_help` call so the catalogs and the \
                         Prometheus `# HELP` line carry a description",
                        OBS_DESCRIBED_PREFIXES.join(", ")
                    );
                    out.push(finding("obs-naming", rel, idx, msg));
                }
            }
        }
    }
}

/// The cbs-obs naming convention, re-stated here because xtask does not
/// depend on the crates it checks (mirror of `cbs_obs::is_valid_metric_name`).
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

/// Word-boundary containment (so `SystemTime` doesn't match `MySystemTimer`).
fn contains_word(haystack: &str, word: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    haystack.match_indices(word).any(|(at, _)| {
        !haystack[..at].chars().next_back().is_some_and(is_ident)
            && !haystack[at + word.len()..].chars().next().is_some_and(is_ident)
    })
}

#[cfg(test)]
mod tests {
    use super::super::run;
    use super::super::tests::{fixture, write};
    use super::*;

    /// What `analyze::run` reports over a scratch workspace holding `files`.
    fn analyze(files: &[(&str, &str)]) -> Vec<Finding> {
        let root = fixture("an_lines");
        for (rel, body) in files {
            write(&root, rel, body);
        }
        let findings = run(&root).unwrap().findings;
        let _ = std::fs::remove_dir_all(&root);
        findings
    }

    /// `src` as the lib of crate `krate`.
    fn lint(krate: &str, src: &str) -> Vec<Finding> {
        analyze(&[(&format!("crates/{krate}/src/lib.rs"), src)])
    }

    fn hits(findings: &[Finding]) -> Vec<(&str, usize, &str)> {
        findings.iter().map(|f| (f.file.as_str(), f.line, f.rule)).collect()
    }

    const READS_CLOCK: &str = "fn f() {\n    let t = std::time::Instant::now();\n}\n";
    const READS_CLOCK_IN_TESTS: &str =
        "#[cfg(test)]\nmod tests {\n    fn t() { let t = Instant::now(); }\n}\n";

    #[test]
    fn wall_clock_covers_the_cluster_lib_outside_its_tests() {
        let f = analyze(&[
            ("crates/cluster/src/transport.rs", READS_CLOCK),
            // Same text, out of scope: another crate, and the cluster
            // crate's own integration tests.
            ("crates/kv/src/lib.rs", READS_CLOCK),
            ("crates/cluster/tests/t.rs", READS_CLOCK),
        ]);
        assert_eq!(hits(&f), [("crates/cluster/src/transport.rs", 2, "wall-clock")], "{f:?}");
        let f = lint("cluster", "fn f() { let s = SystemTime::now(); }\n");
        assert_eq!(hits(&f), [("crates/cluster/src/lib.rs", 1, "wall-clock")], "{f:?}");
        // Unit tests may time themselves; the fix goes clean.
        assert!(lint("cluster", READS_CLOCK_IN_TESTS).is_empty());
        assert!(lint("cluster", "fn f() { let t = Deadline::after(d); }\n").is_empty());
    }

    #[test]
    fn chaos_determinism_covers_lib_tests_and_the_root_chaos_suite() {
        let f = analyze(&[
            ("crates/chaos/src/lib.rs", READS_CLOCK),
            ("crates/chaos/tests/replay.rs", "fn t() { let s = std::time::SystemTime::now(); }\n"),
            ("tests/chaos_kv.rs", READS_CLOCK),
            // Out of scope: the other root suites.
            ("tests/end_to_end.rs", READS_CLOCK),
        ]);
        assert_eq!(
            hits(&f),
            [
                ("crates/chaos/src/lib.rs", 2, "chaos-determinism"),
                ("crates/chaos/tests/replay.rs", 1, "chaos-determinism"),
                ("tests/chaos_kv.rs", 2, "chaos-determinism"),
            ],
            "{f:?}"
        );
        // No `#[cfg(test)]` exemption: chaos tests are what must replay.
        let f = lint("chaos", READS_CLOCK_IN_TESTS);
        assert_eq!(hits(&f), [("crates/chaos/src/lib.rs", 3, "chaos-determinism")], "{f:?}");
        // `MySystemTimer` must not word-match `SystemTime`; the fix is clean.
        assert!(lint("chaos", "fn f(x: MySystemTimer) { Deadline::after(d); }\n").is_empty());
    }

    #[test]
    fn txn_determinism_covers_lib_and_tests() {
        let f = analyze(&[
            ("crates/txn/src/scheduler.rs", READS_CLOCK),
            ("crates/txn/tests/serializability.rs", READS_CLOCK),
            // Out of scope: unrelated test trees time themselves freely.
            ("crates/kv/tests/t.rs", READS_CLOCK),
        ]);
        assert_eq!(
            hits(&f),
            [
                ("crates/txn/src/scheduler.rs", 2, "txn-determinism"),
                ("crates/txn/tests/serializability.rs", 2, "txn-determinism"),
            ],
            "{f:?}"
        );
        let f = lint("txn", READS_CLOCK_IN_TESTS);
        assert_eq!(hits(&f), [("crates/txn/src/lib.rs", 3, "txn-determinism")], "{f:?}");
        assert!(lint("txn", "fn f(seed: u64) -> u64 { mix(seed) }\n").is_empty());
    }

    #[test]
    fn obs_naming_planted_violation_fires_with_position_then_goes_clean() {
        let bad = "fn ok() {}\nfn f(r: &Registry) { r.counter(\"queryCount\"); }\n";
        let f = analyze(&[
            ("crates/n1ql/src/lib.rs", bad),
            // Out of scope: test trees register scratch names freely.
            ("crates/n1ql/tests/t.rs", bad),
        ]);
        assert_eq!(hits(&f), [("crates/n1ql/src/lib.rs", 2, "obs-naming")], "{f:?}");
        assert!(f[0].render().starts_with("crates/n1ql/src/lib.rs:2: [obs-naming]"));
        assert!(
            lint("n1ql", "fn f(r: &Registry) { r.counter(\"n1ql.query.count\"); }\n").is_empty()
        );
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
        // Dynamic names are the registry's problem, not the analyzer's.
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
}
