//! `cargo xtask analyze` — whole-workspace interprocedural concurrency
//! analysis: lock-order, guard-across-blocking, and raw-lock escapes.
//!
//! Where `cargo xtask lint` is line-local, this command builds a semantic
//! model of every crate (functions, ranked-lock acquisition sites, guard
//! lifetimes, a name-resolved call graph — see [`parse`]), assembles it
//! into a workspace ([`model`]) anchored on the canonical rank table in
//! `cbs_common::sync::rank`, and runs three interprocedural passes
//! ([`passes`]). Every finding carries a witness chain a human can walk.
//!
//! Findings honor the same `// lint:allow(<rule>): <reason>` directives as
//! the lint; `guard-io` allows additionally suppress `guard-blocking`
//! findings anchored on the same line (the interprocedural rule subsumes
//! the line rule at direct sites). Exit codes: 0 clean, 1 findings,
//! 2 usage/internal error.

pub mod model;
pub mod parse;
pub mod passes;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::census::{self, Tree};
use crate::json_escape;
use crate::rules::ANALYZE_RULES;
use crate::scan::Allow;
use passes::{Finding, Graph};

/// Library files allowed to construct raw (unranked) locks, with the
/// reason. Prefix-matched against repo-relative paths. Everything else in
/// a `src/` tree must use `OrderedMutex`/`OrderedRwLock` with a `rank::*`
/// constant.
const RAW_LOCK_ALLOWLIST: &[(&str, &str)] = &[
    (
        "crates/common/src/sync.rs",
        "the ranked primitives themselves wrap raw parking_lot locks; the detector's own \
         edge/held-stack state cannot be ranked without infinite regress",
    ),
    (
        "crates/obs/",
        "metrics registry: leaf locks behind a fixed API that never calls back into ranked \
         code; ranking them would force a rank on every metric call site",
    ),
    (
        "crates/chaos/",
        "fault-injection harness: wraps arbitrary subsystems, so any rank choice would be \
         wrong for some interposition point; chaos code never runs in production builds",
    ),
];

struct Options {
    json: bool,
    sarif: Option<PathBuf>,
    root: PathBuf,
}

pub fn cmd_analyze(args: &[String]) -> ExitCode {
    let mut opts = Options { json: false, sarif: None, root: default_root() };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            "--sarif" => match it.next() {
                Some(p) => opts.sarif = Some(PathBuf::from(p)),
                None => {
                    eprintln!("xtask analyze: --sarif needs a path");
                    return ExitCode::from(2);
                }
            },
            "--root" => match it.next() {
                Some(p) => opts.root = PathBuf::from(p),
                None => {
                    eprintln!("xtask analyze: --root needs a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("xtask analyze: unknown flag `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let analysis = match run(&opts.root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xtask analyze: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(sarif_path) = &opts.sarif {
        let sarif = render_sarif(&analysis.findings);
        if let Some(dir) = sarif_path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(sarif_path, sarif) {
            eprintln!("xtask analyze: writing {}: {e}", sarif_path.display());
            return ExitCode::from(2);
        }
    }

    if opts.json {
        println!("{}", render_json(&analysis.findings));
    } else {
        for f in &analysis.findings {
            println!("{}", render_text(f));
        }
        println!(
            "analyze: {} files, {} fns, {} ranks, {} rank edges: {}",
            analysis.files,
            analysis.fns,
            analysis.ranks,
            analysis.rank_edges,
            if analysis.findings.is_empty() {
                "clean".to_string()
            } else {
                format!("{} finding(s)", analysis.findings.len())
            }
        );
    }
    if analysis.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn default_root() -> PathBuf {
    std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| PathBuf::from(d).join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."))
}

/// The full analysis result.
pub struct Analysis {
    pub findings: Vec<Finding>,
    pub files: usize,
    pub fns: usize,
    pub ranks: usize,
    pub rank_edges: usize,
}

/// Run the analyzer against a workspace root.
pub fn run(root: &Path) -> Result<Analysis, String> {
    // 1. Census + per-crate two-phase parse (field discovery first, so
    //    guard tracking sees lock fields declared in sibling files).
    let census_files = census::collect(root)?;
    let mut crate_ranked: HashMap<String, Vec<String>> = HashMap::new();
    let mut crate_raw: HashMap<String, Vec<String>> = HashMap::new();
    let mut sources: Vec<(usize, String)> = Vec::new();
    for (i, f) in census_files.iter().enumerate() {
        let src = model::read(&f.path)?;
        if f.tree == Tree::Lib {
            let (ranked, raw) = parse::scan_fields(&src);
            let e = crate_ranked.entry(f.crate_name.clone()).or_default();
            for r in ranked {
                if !e.contains(&r.field) {
                    e.push(r.field);
                }
            }
            let e = crate_raw.entry(f.crate_name.clone()).or_default();
            for r in raw {
                if !e.contains(&r) {
                    e.push(r);
                }
            }
        }
        sources.push((i, src));
    }
    let empty: Vec<String> = Vec::new();
    let mut files = Vec::with_capacity(sources.len());
    for (i, src) in &sources {
        let f = &census_files[*i];
        files.push(parse::parse_file(
            &f.rel,
            &f.crate_name,
            f.tree,
            src,
            crate_ranked.get(&f.crate_name).unwrap_or(&empty),
            crate_raw.get(&f.crate_name).unwrap_or(&empty),
        ));
    }

    // 2. The canonical rank table.
    let sync_path = root.join("crates/common/src/sync.rs");
    let rank_defs = model::load_rank_table(&model::read(&sync_path)?)?;
    let n_ranks = rank_defs.len();
    let ws = model::Workspace::assemble(files, rank_defs);

    // 3. Passes.
    let g = Graph::build(&ws);
    let (mut findings, edges) = passes::lock_order(&g);
    findings.extend(passes::unknown_rank_consts(&ws));
    findings.extend(passes::guard_blocking(&g));
    findings.extend(passes::raw_locks(&ws, RAW_LOCK_ALLOWLIST));

    // 4. DESIGN.md §9 cross-check: the documented rank table must be
    //    byte-identical in (number, name) to the code's constants.
    let design_path = root.join("DESIGN.md");
    if design_path.is_file() {
        for problem in model::check_design_table(&model::read(&design_path)?, &ws.rank_order) {
            findings.push(Finding {
                rule: "rank-table",
                file: "DESIGN.md".into(),
                line: 0,
                msg: problem,
                witness: Vec::new(),
            });
        }
    }

    // 5. Allows: suppression + hygiene for analyzer-owned rules.
    let findings = apply_allows(findings, &ws);

    let fns = ws.files.iter().map(|f| f.fns.len()).sum();
    Ok(Analysis { findings, files: ws.files.len(), fns, ranks: n_ranks, rank_edges: edges.len() })
}

/// Does `allow` suppress rule `rule`? `guard-io` (the line lint's rule) is
/// accepted as a synonym for `guard-blocking`: at a direct blocking site
/// both tools anchor on the same line, and one directive should silence
/// both.
fn allow_covers(allow: &Allow, rule: &str) -> bool {
    allow.rule == rule || (rule == "guard-blocking" && allow.rule == "guard-io")
}

fn apply_allows(findings: Vec<Finding>, ws: &model::Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    // (file, target_line, allow index) of allows that suppressed something.
    let mut used: Vec<(String, usize)> = Vec::new();
    for f in findings {
        let allow = ws.files.iter().find(|m| m.rel == f.file).and_then(|m| {
            m.allows
                .iter()
                .find(|a| a.target_line == f.line && allow_covers(a, f.rule) && a.has_reason)
        });
        match allow {
            Some(a) => used.push((f.file.clone(), a.target_line)),
            None => out.push(f),
        }
    }
    // Hygiene for analyzer-owned allows only — `guard-io` and the other
    // lint rules get their hygiene from `cargo xtask lint`.
    for m in &ws.files {
        for a in &m.allows {
            if !ANALYZE_RULES.contains(&a.rule.as_str()) {
                continue;
            }
            if !a.has_reason {
                out.push(Finding {
                    rule: "lint-allow",
                    file: m.rel.clone(),
                    line: a.line,
                    msg: format!(
                        "lint:allow({}) without a reason — write `lint:allow({}): <why>`",
                        a.rule, a.rule
                    ),
                    witness: Vec::new(),
                });
            } else if !used.iter().any(|(f, l)| *f == m.rel && *l == a.target_line)
                && !out.iter().any(|f| f.file == m.rel && f.line == a.target_line)
            {
                out.push(Finding {
                    rule: "lint-allow",
                    file: m.rel.clone(),
                    line: a.line,
                    msg: format!(
                        "lint:allow({}) suppresses nothing (no {} finding on line {}) — stale?",
                        a.rule, a.rule, a.target_line
                    ),
                    witness: Vec::new(),
                });
            }
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

fn render_text(f: &Finding) -> String {
    let mut s = format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.msg);
    if !f.witness.is_empty() {
        s.push_str("\n    witness:");
        for (i, w) in f.witness.iter().enumerate() {
            s.push_str(&format!("\n      {}. {w}", i + 1));
        }
    }
    s
}

fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let witness = f
            .witness
            .iter()
            .map(|w| format!("\"{}\"", json_escape(w)))
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"msg\":\"{}\",\"witness\":[{}]}}",
            json_escape(&f.file),
            f.line,
            json_escape(f.rule),
            json_escape(&f.msg),
            witness
        ));
    }
    out.push(']');
    out
}

/// Minimal SARIF 2.1.0 (hand-rolled — xtask takes no registry dependency).
fn render_sarif(findings: &[Finding]) -> String {
    let mut results = String::new();
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            results.push(',');
        }
        let mut text = f.msg.clone();
        for w in &f.witness {
            text.push_str("\n  ");
            text.push_str(w);
        }
        results.push_str(&format!(
            "{{\"ruleId\":\"{}\",\"level\":\"error\",\"message\":{{\"text\":\"{}\"}},\
             \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\"}},\
             \"region\":{{\"startLine\":{}}}}}}}]}}",
            json_escape(f.rule),
            json_escape(&text),
            json_escape(&f.file),
            f.line.max(1)
        ));
    }
    let rules = ["lock-order", "guard-blocking", "raw-lock", "rank-table", "lint-allow"]
        .iter()
        .map(|r| format!("{{\"id\":\"{r}\"}}"))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"version\":\"2.1.0\",\"$schema\":\
         \"https://json.schemastore.org/sarif-2.1.0.json\",\"runs\":[{{\"tool\":{{\"driver\":\
         {{\"name\":\"xtask-analyze\",\"rules\":[{rules}]}}}},\"results\":[{results}]}}]}}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::scratch;

    /// A minimal rank module every fixture workspace shares.
    const FIXTURE_SYNC: &str = r#"
pub struct LockRank { pub rank: u32, pub name: &'static str }
pub mod rank {
    use super::LockRank;
    pub const LOW: LockRank = LockRank::new(10, "fix.low");
    pub const DCP_CHANNEL: LockRank = LockRank::new(25, "kv.dcp.channel");
    pub const HIGH: LockRank = LockRank::new(90, "fix.high");
}
"#;

    fn write(root: &Path, rel: &str, content: &str) {
        let p = root.join(rel);
        std::fs::create_dir_all(p.parent().unwrap()).unwrap();
        std::fs::write(p, content).unwrap();
    }

    fn fixture(tag: &str) -> PathBuf {
        let root = scratch(tag);
        write(&root, "crates/common/src/sync.rs", FIXTURE_SYNC);
        root
    }

    #[test]
    fn cross_crate_rank_inversion_reported_with_witness_chain() {
        let root = fixture("an_inversion");
        // crate a holds HIGH (90) and calls into crate b, which takes
        // LOW (10) — an inversion only visible interprocedurally.
        write(
            &root,
            "crates/a/src/lib.rs",
            r#"
use cbs_common::sync::{rank, OrderedMutex};
pub struct S { hi: OrderedMutex<u32> }
impl S {
    pub fn new() -> S { S { hi: OrderedMutex::new(rank::HIGH, 0) } }
    pub fn f(&self, t: &cbs_b::T) {
        let g = self.hi.lock();
        cbs_b::helper(t);
    }
}
"#,
        );
        write(
            &root,
            "crates/b/src/lib.rs",
            r#"
use cbs_common::sync::{rank, OrderedMutex};
pub struct T { lo: OrderedMutex<u32> }
impl T {
    pub fn new() -> T { T { lo: OrderedMutex::new(rank::LOW, 0) } }
}
pub fn helper(t: &T) {
    let g = t.lo.lock();
}
"#,
        );
        let a = run(&root).unwrap();
        let f = a
            .findings
            .iter()
            .find(|f| f.rule == "lock-order")
            .unwrap_or_else(|| panic!("no lock-order finding: {:?}", a.findings));
        assert_eq!(f.file, "crates/b/src/lib.rs");
        assert!(f.msg.contains("rank::LOW") && f.msg.contains("rank::HIGH"), "{}", f.msg);
        let w = f.witness.join("\n");
        assert!(w.contains("crates/a/src/lib.rs"), "witness lacks caller site:\n{w}");
        assert!(w.contains("calls"), "witness lacks the call edge:\n{w}");
        assert!(w.contains("guard on `hi`"), "witness lacks the acquire site:\n{w}");
    }

    #[test]
    fn guard_across_transitive_file_io_reported() {
        let root = fixture("an_blocking");
        // outer holds a ranked guard across a call whose callee's callee
        // renames a file: outer -> mid -> deep -> fs::rename.
        write(
            &root,
            "crates/a/src/lib.rs",
            r#"
use cbs_common::sync::{rank, OrderedMutex};
pub struct S { state: OrderedMutex<u32> }
impl S {
    pub fn new() -> S { S { state: OrderedMutex::new(rank::LOW, 0) } }
    pub fn outer(&self) {
        let g = self.state.lock();
        mid(1);
    }
}
fn mid(x: u32) {
    deep(x);
}
fn deep(x: u32) {
    std::fs::rename("a", "b").ok();
}
"#,
        );
        let a = run(&root).unwrap();
        let f = a
            .findings
            .iter()
            .find(|f| f.rule == "guard-blocking")
            .unwrap_or_else(|| panic!("no guard-blocking finding: {:?}", a.findings));
        assert!(f.msg.contains("`state`"), "{}", f.msg);
        let w = f.witness.join("\n");
        assert!(w.contains("calls a::mid"), "witness lacks hop 1:\n{w}");
        assert!(w.contains("calls a::deep"), "witness lacks hop 2:\n{w}");
        assert!(w.contains("fs::rename"), "witness lacks the blocking op:\n{w}");
        // The same chain suppressed by an allow with a reason → clean.
        write(
            &root,
            "crates/a/src/lib.rs",
            r#"
use cbs_common::sync::{rank, OrderedMutex};
pub struct S { state: OrderedMutex<u32> }
impl S {
    pub fn new() -> S { S { state: OrderedMutex::new(rank::LOW, 0) } }
    pub fn outer(&self) {
        let g = self.state.lock();
        // lint:allow(guard-blocking): fixture says this rename is rare and bounded
        mid(1);
    }
}
fn mid(x: u32) {
    deep(x);
}
fn deep(x: u32) {
    std::fs::rename("a", "b").ok();
}
"#,
        );
        let a = run(&root).unwrap();
        assert!(a.findings.is_empty(), "allow did not suppress: {:?}", a.findings);
    }

    #[test]
    fn unranked_lock_reported_and_hub_shaped_revert_detected() {
        let root = fixture("an_rawlock");
        // The pre-conversion DcpHub shape: per-vbucket channels behind raw
        // parking_lot mutexes. This is the revert the pass must catch.
        write(
            &root,
            "crates/d/src/hub.rs",
            r#"
use parking_lot::Mutex;
pub struct DcpHub { vbs: Vec<Mutex<u32>> }
impl DcpHub {
    pub fn new(n: u16) -> DcpHub {
        DcpHub { vbs: (0..n).map(|_| Mutex::new(0)).collect() }
    }
}
"#,
        );
        let a = run(&root).unwrap();
        let f = a
            .findings
            .iter()
            .find(|f| f.rule == "raw-lock")
            .unwrap_or_else(|| panic!("no raw-lock finding: {:?}", a.findings));
        assert_eq!(f.file, "crates/d/src/hub.rs");
        assert!(f.msg.contains("unranked"), "{}", f.msg);
        // The converted shape (what crates/dcp/src/hub.rs actually does
        // now) is clean.
        write(
            &root,
            "crates/d/src/hub.rs",
            r#"
use cbs_common::sync::{rank, OrderedMutex};
pub struct DcpHub { vbs: Vec<OrderedMutex<u32>> }
impl DcpHub {
    pub fn new(n: u16) -> DcpHub {
        DcpHub { vbs: (0..n).map(|_| OrderedMutex::new(rank::DCP_CHANNEL, 0)).collect() }
    }
}
"#,
        );
        let a = run(&root).unwrap();
        assert!(a.findings.is_empty(), "converted hub still flagged: {:?}", a.findings);
    }

    #[test]
    fn unknown_rank_const_reported() {
        let root = fixture("an_unkrank");
        write(
            &root,
            "crates/a/src/lib.rs",
            r#"
use cbs_common::sync::{rank, OrderedMutex};
pub struct S { x: OrderedMutex<u32> }
impl S {
    pub fn new() -> S { S { x: OrderedMutex::new(rank::NO_SUCH_RANK, 0) } }
}
"#,
        );
        let a = run(&root).unwrap();
        assert!(
            a.findings.iter().any(|f| f.rule == "rank-table" && f.msg.contains("NO_SUCH_RANK")),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn analyze_allow_hygiene_bare_and_stale() {
        let root = fixture("an_hygiene");
        write(
            &root,
            "crates/a/src/lib.rs",
            r#"
// lint:allow(lock-order)
fn a() {}
// lint:allow(guard-blocking): nothing here blocks anymore
fn b() {}
"#,
        );
        let a = run(&root).unwrap();
        assert!(
            a.findings.iter().any(|f| f.rule == "lint-allow" && f.msg.contains("without a reason")),
            "{:?}",
            a.findings
        );
        assert!(
            a.findings
                .iter()
                .any(|f| f.rule == "lint-allow" && f.msg.contains("suppresses nothing")),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn design_table_drift_reported() {
        let root = fixture("an_design");
        std::fs::write(
            root.join("DESIGN.md"),
            "| 10 | `fix.low` | x |\n| 25 | `kv.dcp.channel` | y |\n| 90 | `fix.WRONG` | z |\n",
        )
        .unwrap();
        let a = run(&root).unwrap();
        assert!(
            a.findings.iter().any(|f| f.rule == "rank-table" && f.file == "DESIGN.md"),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn sarif_and_json_render() {
        let f = Finding {
            rule: "lock-order",
            file: "crates/a/src/lib.rs".into(),
            line: 7,
            msg: "rank \"inversion\"".into(),
            witness: vec!["a.rs:1: step".into()],
        };
        let json = render_json(std::slice::from_ref(&f));
        assert!(json.contains("\\\"inversion\\\""), "{json}");
        assert!(json.contains("\"witness\":[\"a.rs:1: step\"]"), "{json}");
        let sarif = render_sarif(&[f]);
        assert!(sarif.contains("\"version\":\"2.1.0\""));
        assert!(sarif.contains("xtask-analyze"));
        assert!(sarif.contains("\"startLine\":7"));
    }

    /// The teeth requirement in reverse: the real workspace must analyze
    /// clean — the pass lands enabled, with genuine findings either fixed
    /// or allowlisted-with-reason in the product source.
    #[test]
    fn workspace_is_clean() {
        let a = run(&crate::census::repo_root()).unwrap();
        let rendered: Vec<String> = a.findings.iter().map(render_text).collect();
        assert!(
            a.findings.is_empty(),
            "cargo xtask analyze is not clean:\n{}",
            rendered.join("\n")
        );
        assert!(a.fns > 100, "suspiciously few functions modeled: {}", a.fns);
        assert!(a.rank_edges >= 5, "suspiciously few rank edges: {}", a.rank_edges);
    }
}
