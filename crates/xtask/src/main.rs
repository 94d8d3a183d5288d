//! `cargo xtask` — repo automation: the invariant lint pass and the
//! interprocedural concurrency analyzer.
//!
//! ```text
//! cargo xtask lint               # line-level invariant lint, exit 1 on findings
//! cargo xtask lint --json        # machine-readable findings on stdout
//! cargo xtask analyze            # lock-order / guard-blocking / raw-lock analysis
//! cargo xtask analyze --json     # findings as JSON
//! cargo xtask analyze --sarif P  # also write a SARIF 2.1.0 report to P
//! cargo xtask validate-trace F   # structurally validate a Chrome trace export
//! cargo xtask <cmd> --root P     # run against a tree other than the enclosing repo
//! ```
//!
//! The `xtask` alias lives in `.cargo/config.toml`. See `rules.rs` for the
//! line rules, `analyze/` for the semantic passes, and DESIGN.md §9/§14.

mod analyze;
mod census;
mod rules;
mod scan;
mod tracecheck;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use census::Tree;
use rules::Finding;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(&args[1..]),
        Some("analyze") => analyze::cmd_analyze(&args[1..]),
        Some("validate-trace") => tracecheck::cmd_validate_trace(&args[1..]),
        Some(other) => {
            eprintln!("xtask: unknown command `{other}`");
            usage();
            ExitCode::from(2)
        }
        None => {
            usage();
            ExitCode::from(2)
        }
    }
}

fn usage() {
    eprintln!("usage: cargo xtask lint [--json] [--root <path>]");
    eprintln!("       cargo xtask analyze [--json] [--sarif <path>] [--root <path>]");
    eprintln!("       cargo xtask validate-trace <trace.json>");
}

fn cmd_lint(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("xtask lint: --root needs a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("xtask lint: unknown flag `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root.or_else(find_workspace_root) {
        Some(r) => r,
        None => {
            eprintln!(
                "xtask lint: no workspace root found (run from inside the repo or pass --root)"
            );
            return ExitCode::from(2);
        }
    };

    let (findings, files_scanned) = match lint_tree(&root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        println!("{}", render_json(&findings));
    } else {
        for f in &findings {
            eprintln!("{}", f.render());
        }
        if findings.is_empty() {
            eprintln!("xtask lint: clean ({files_scanned} files)");
        } else {
            eprintln!(
                "xtask lint: {} finding{} in {files_scanned} files",
                findings.len(),
                if findings.len() == 1 { "" } else { "s" },
            );
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Whether a census entry is a chaos replay artifact (chaos integration
/// tests and the root `tests/chaos*.rs` suite get `chaos-determinism`).
fn is_chaos_artifact(f: &census::SourceFile) -> bool {
    match f.tree {
        Tree::Tests => {
            f.crate_name == "chaos"
                || (f.crate_name == census::ROOT_CRATE
                    && Path::new(&f.rel)
                        .file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("chaos")))
        }
        _ => false,
    }
}

/// Whether a census entry belongs to the transaction battery's seed-replay
/// surface: `crates/txn/tests/**` (the serializability suite and the
/// interleaving models) and `crates/bench` txn artifacts (the byte-stable
/// `txn_batch` bench). These get `txn-determinism`.
fn is_txn_artifact(f: &census::SourceFile) -> bool {
    match f.tree {
        Tree::Tests => f.crate_name == "txn",
        Tree::Benches => f.crate_name == "txn" || f.crate_name == "bench",
        _ => false,
    }
}

/// Lint every tree the census discovers. Lib trees carry the full rule
/// set; `tests/`, `benches/` and `examples/` carry the repo-wide
/// invariants (`std-sync`, plus `chaos-determinism` for chaos artifacts
/// and `txn-determinism` for transaction-battery artifacts). Returns the
/// findings (sorted by path then line) and the number of files scanned.
fn lint_tree(root: &Path) -> Result<(Vec<Finding>, usize), String> {
    let files = census::collect(root)?;
    let mut findings = Vec::new();
    for f in &files {
        let text = std::fs::read_to_string(&f.path)
            .map_err(|e| format!("reading {}: {e}", f.path.display()))?;
        match f.tree {
            Tree::Lib => findings.extend(rules::lint_file(&f.crate_name, &f.rel, &text)),
            Tree::Tests | Tree::Benches | Tree::Examples => {
                findings.extend(rules::lint_aux_file(
                    &f.rel,
                    &text,
                    is_chaos_artifact(f),
                    is_txn_artifact(f),
                ));
            }
        }
    }
    findings.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    Ok((findings, files.len()))
}

/// Walk up from the current directory to the first `Cargo.toml` declaring a
/// `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Hand-rolled JSON (no serde in this crate): an array of finding objects.
fn render_json(findings: &[Finding]) -> String {
    let mut s = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n  {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&f.file),
            f.line,
            json_escape(f.rule),
            json_escape(&f.msg)
        ));
    }
    if !findings.is_empty() {
        s.push('\n');
    }
    s.push(']');
    s
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end: seed a scratch tree with one violation of each rule,
    /// assert the linter finds them all and exits dirty, then fix them and
    /// assert it goes clean. This is the "demonstrably fails on seeded
    /// violations" acceptance check in miniature.
    #[test]
    fn seeded_violations_all_fire_then_clean() {
        let root = scratch("xtask-seeded");
        let w = |rel: &str, body: &str| {
            let p = root.join(rel);
            std::fs::create_dir_all(p.parent().unwrap()).unwrap();
            std::fs::write(p, body).unwrap();
        };
        w("Cargo.toml", "[workspace]\n");
        w("crates/kv/src/lib.rs", "fn f() { x.unwrap(); }\n");
        w("crates/views/src/lib.rs", "use std::sync::Mutex;\n");
        w(
            "crates/storage/src/lib.rs",
            "fn c(&self) {\n    let g = self.m.lock();\n    std::fs::rename(a, b);\n}\n",
        );
        w("crates/cluster/src/lib.rs", "fn f() { let t = std::time::Instant::now(); }\n");
        w("crates/n1ql/src/lib.rs", "fn f(r: &Registry) { r.counter(\"queryCount\"); }\n");
        // Benchmark harness that re-plans per operation.
        w(
            "crates/ycsb/src/lib.rs",
            "fn scan(c: &C) { c.query(&format!(\"SELECT * FROM {b}\"), &o); }\n",
        );

        let (findings, files) = lint_tree(&root).unwrap();
        assert_eq!(files, 6);
        let rules_hit: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        for rule in ["unwrap", "std-sync", "guard-io", "wall-clock", "obs-naming", "ycsb-hot-parse"]
        {
            assert!(rules_hit.contains(&rule), "expected {rule} in {rules_hit:?}");
        }

        // Fix every site; the tree must go clean.
        w("crates/kv/src/lib.rs", "fn f() -> Result<(), E> { x? }\n");
        w("crates/views/src/lib.rs", "use parking_lot::Mutex;\n");
        w(
            "crates/storage/src/lib.rs",
            "fn c(&self) {\n    {\n        let g = self.m.lock();\n    }\n    std::fs::rename(a, b);\n}\n",
        );
        w(
            "crates/cluster/src/lib.rs",
            "fn f() { let t = cbs_common::time::Deadline::after(d); }\n",
        );
        w("crates/n1ql/src/lib.rs", "fn f(r: &Registry) { r.counter(\"n1ql.query.count\"); }\n");
        w("crates/ycsb/src/lib.rs", "fn scan(c: &C) { c.query(\"EXECUTE scan\", &o); }\n");
        let (findings, _) = lint_tree(&root).unwrap();
        assert!(findings.is_empty(), "expected clean, got {findings:?}");

        let _ = std::fs::remove_dir_all(&root);
    }

    /// Tests and benches trees are in the census and carry the repo-wide
    /// `std-sync` invariant, but lib-only rules (unwrap) stay out of them.
    #[test]
    fn aux_trees_scanned_with_repo_wide_rules_only() {
        let root = scratch("xtask-aux");
        std::fs::create_dir_all(root.join("crates/kv/src")).unwrap();
        std::fs::create_dir_all(root.join("crates/kv/tests")).unwrap();
        std::fs::create_dir_all(root.join("crates/kv/benches")).unwrap();
        std::fs::write(root.join("crates/kv/src/lib.rs"), "fn ok() {}\n").unwrap();
        std::fs::write(root.join("crates/kv/tests/t.rs"), "fn t() { x.unwrap(); }\n").unwrap();
        std::fs::write(
            root.join("crates/kv/benches/b.rs"),
            "use std::sync::Mutex;\nfn b() { x.unwrap(); }\n",
        )
        .unwrap();
        let (findings, files) = lint_tree(&root).unwrap();
        assert_eq!(files, 3, "all three trees are scanned: {findings:?}");
        assert_eq!(findings.len(), 1, "only the bench std-sync hit fires: {findings:?}");
        assert_eq!(findings[0].rule, "std-sync");
        assert_eq!(findings[0].file, "crates/kv/benches/b.rs");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn chaos_tests_get_the_determinism_rule() {
        let root = scratch("xtask-chaos");
        let w = |rel: &str, body: &str| {
            let p = root.join(rel);
            std::fs::create_dir_all(p.parent().unwrap()).unwrap();
            std::fs::write(p, body).unwrap();
        };
        w("Cargo.toml", "[workspace]\n");
        // Lib code: both the chaos rule and the crate-wide rules apply.
        w("crates/chaos/src/lib.rs", "fn f() { let t = std::time::Instant::now(); }\n");
        // Chaos test trees: chaos-determinism plus the repo-wide std-sync
        // rule — but not lib-only rules like unwrap.
        w(
            "crates/chaos/tests/determinism.rs",
            "fn t() { x.unwrap(); let r = rand::thread_rng(); }\n",
        );
        w(
            "tests/chaos_kv.rs",
            "use std::sync::Mutex;\nfn t() { let s = std::time::SystemTime::now(); }\n",
        );
        // Non-chaos root tests carry std-sync only; wall-clock reads there
        // are fine.
        w("tests/integration.rs", "fn t() { let t = std::time::Instant::now(); }\n");

        let (findings, files) = lint_tree(&root).unwrap();
        assert_eq!(files, 4, "{findings:?}");
        let hits: Vec<(&str, &str)> = findings.iter().map(|f| (f.file.as_str(), f.rule)).collect();
        assert_eq!(
            hits,
            vec![
                ("crates/chaos/src/lib.rs", "chaos-determinism"),
                ("crates/chaos/tests/determinism.rs", "chaos-determinism"),
                ("tests/chaos_kv.rs", "std-sync"),
                ("tests/chaos_kv.rs", "chaos-determinism"),
            ],
            "{findings:?}"
        );

        // An allow with a reason silences the test-file finding.
        w(
            "tests/chaos_kv.rs",
            "fn t() {\n    // lint:allow(chaos-determinism): logged only, never branched on\n    let s = std::time::SystemTime::now();\n}\n",
        );
        w("crates/chaos/src/lib.rs", "fn f() {}\n");
        w("crates/chaos/tests/determinism.rs", "fn t() {}\n");
        let (findings, _) = lint_tree(&root).unwrap();
        assert!(findings.is_empty(), "{findings:?}");

        let _ = std::fs::remove_dir_all(&root);
    }

    /// The txn analogue of the chaos test above: `txn-determinism` covers
    /// the txn lib, `crates/txn/tests/**`, and bench-crate benches — but
    /// not unrelated test trees.
    #[test]
    fn txn_trees_get_the_determinism_rule() {
        let root = scratch("xtask-txn");
        let w = |rel: &str, body: &str| {
            let p = root.join(rel);
            std::fs::create_dir_all(p.parent().unwrap()).unwrap();
            std::fs::write(p, body).unwrap();
        };
        w("Cargo.toml", "[workspace]\n");
        // Txn lib code: the rule applies alongside the crate-wide rules.
        w("crates/txn/src/lib.rs", "fn f() { let t = std::time::Instant::now(); }\n");
        // Txn test tree: txn-determinism, but not lib-only rules (unwrap).
        w(
            "crates/txn/tests/serializability.rs",
            "fn t() { x.unwrap(); let r = rand::thread_rng(); }\n",
        );
        // Bench-crate benches feed byte-stable JSON: covered too.
        w(
            "crates/bench/benches/txn_batch.rs",
            "fn b() { let s = std::time::SystemTime::now(); }\n",
        );
        // Unrelated test trees stay out of scope for wall-clock reads.
        w("crates/kv/tests/t.rs", "fn t() { let t = std::time::Instant::now(); }\n");

        let (findings, files) = lint_tree(&root).unwrap();
        assert_eq!(files, 4, "{findings:?}");
        let hits: Vec<(&str, &str)> = findings.iter().map(|f| (f.file.as_str(), f.rule)).collect();
        assert_eq!(
            hits,
            vec![
                ("crates/bench/benches/txn_batch.rs", "txn-determinism"),
                ("crates/txn/src/lib.rs", "txn-determinism"),
                ("crates/txn/tests/serializability.rs", "txn-determinism"),
            ],
            "{findings:?}"
        );

        // An allow with a reason silences the finding.
        w(
            "crates/txn/tests/serializability.rs",
            "fn t() {\n    // lint:allow(txn-determinism): measured for stdout only, never in JSON\n    let t = std::time::Instant::now();\n}\n",
        );
        w("crates/txn/src/lib.rs", "fn f() {}\n");
        w("crates/bench/benches/txn_batch.rs", "fn b() {}\n");
        let (findings, _) = lint_tree(&root).unwrap();
        assert!(findings.is_empty(), "{findings:?}");

        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn json_output_is_escaped() {
        let f = vec![Finding {
            file: "a\"b.rs".into(),
            line: 3,
            rule: "unwrap",
            msg: "say \"no\"".into(),
        }];
        let j = render_json(&f);
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.contains("say \\\"no\\\""));
        assert!(render_json(&[]).contains("[]"));
    }

    pub(crate) fn scratch(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }
}
