//! `cargo xtask analyze` — the one hand-written static check: what
//! neither `rustc` nor clippy can express about this workspace.
//!
//! One census walk, one [`crate::scan::mask`] per file. The line-level
//! passes ([`lines`]: forbidden clock reads per scope, metric/span naming)
//! run on each masked file as it goes by; the same mask then feeds the
//! semantic model of every crate (functions, ranked-lock acquisition
//! sites, guard lifetimes, a name-resolved call graph — see [`parse`]),
//! assembled into a workspace ([`model`]) anchored on the canonical rank
//! table in `cbs_common::sync::rank`, over which the interprocedural passes
//! run ([`passes`]: lock-order, guard-across-blocking, raw-lock). Every
//! interprocedural finding carries a witness chain a human can walk.
//!
//! Suppression: `// lint:allow(<rule>): <reason>` on the offending line or
//! the comment block immediately above it, for any rule in
//! [`ALLOWABLE_RULES`]. Reasons are mandatory; unknown rule names and
//! allows that suppress nothing are themselves findings — stale
//! suppressions rot fast. Exit codes: 0 clean, 1 findings, 2 usage/internal
//! error.

mod lines;
pub mod model;
pub mod parse;
pub mod passes;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::census::{self, Tree};
use crate::scan::{mask, Allow};
use passes::Graph;

/// Every rule a `lint:allow` directive may name. (`rank-table` drift and
/// `lint-allow` hygiene findings cannot be suppressed.)
const ALLOWABLE_RULES: &[&str] = &[
    "wall-clock",
    "chaos-determinism",
    "txn-determinism",
    "obs-naming",
    "lock-order",
    "guard-blocking",
    "raw-lock",
];

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

/// One diagnostic. `witness` is the chain of acquire sites and call edges
/// that makes an interprocedural report checkable by a human (empty for
/// the line-level rules).
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    /// Path relative to the repo root.
    pub file: String,
    /// 1-based line (0: the whole file).
    pub line: usize,
    pub msg: String,
    pub witness: Vec<String>,
}

impl Finding {
    pub fn render(&self) -> String {
        let mut s = format!("{}:{}: [{}] {}", self.file, self.line, self.rule, self.msg);
        if !self.witness.is_empty() {
            s.push_str("\n    witness:");
            for (i, w) in self.witness.iter().enumerate() {
                s.push_str(&format!("\n      {}. {w}", i + 1));
            }
        }
        s
    }
}

pub fn cmd_analyze(args: &[String]) -> ExitCode {
    if let Some(arg) = args.first() {
        eprintln!("xtask analyze: unexpected argument `{arg}`");
        return ExitCode::from(2);
    }
    let analysis = match run(&default_root()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xtask analyze: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &analysis.findings {
        println!("{}", f.render());
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

/// Where the canonical rank table lives.
const SYNC_RS: &str = "crates/common/src/sync.rs";

/// Run the analyzer against a workspace root.
pub fn run(root: &Path) -> Result<Analysis, String> {
    // 1. Census; each file read and masked once. The line passes run here,
    //    and lock-field discovery comes first per crate so guard tracking
    //    sees lock fields declared in sibling files.
    let census_files = census::collect(root)?;
    let mut findings = Vec::new();
    let mut crate_ranked: HashMap<&str, Vec<String>> = HashMap::new();
    let mut crate_raw: HashMap<&str, Vec<String>> = HashMap::new();
    let mut masks = Vec::with_capacity(census_files.len());
    let mut rank_defs = None;
    for f in &census_files {
        let src = model::read(&f.path)?;
        let m = mask(&src);
        lines::check(f, &src, &m, &mut findings);
        if f.tree == Tree::Lib {
            let (ranked, raw) = parse::scan_fields(&m);
            let ranked = ranked.into_iter().map(|r| r.field);
            merge_unique(crate_ranked.entry(&f.crate_name).or_default(), ranked);
            merge_unique(crate_raw.entry(&f.crate_name).or_default(), raw);
        }
        if f.rel == SYNC_RS {
            rank_defs = Some(model::load_rank_table(&m, &src)?);
        }
        masks.push(m);
    }
    let rank_defs = rank_defs.ok_or_else(|| format!("{SYNC_RS} (the rank table) not found"))?;
    let n_ranks = rank_defs.len();
    let empty: Vec<String> = Vec::new();
    let files = (census_files.iter().zip(masks))
        .map(|(f, m)| {
            let ranked = crate_ranked.get(f.crate_name.as_str()).unwrap_or(&empty);
            let raw = crate_raw.get(f.crate_name.as_str()).unwrap_or(&empty);
            parse::parse_file(&f.rel, &f.crate_name, f.tree, m, ranked, raw)
        })
        .collect();
    let ws = model::Workspace::assemble(files, rank_defs);

    // 2. Interprocedural passes.
    let g = Graph::build(&ws);
    let (order, edges) = passes::lock_order(&g);
    findings.extend(order);
    findings.extend(passes::unknown_rank_consts(&ws));
    findings.extend(passes::guard_blocking(&g));
    findings.extend(passes::raw_locks(&ws, RAW_LOCK_ALLOWLIST));

    // 3. DESIGN.md cross-check: the documented rank table must be
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

    // 4. Allows: suppression + hygiene, for every rule.
    let findings = apply_allows(findings, &ws);

    let fns = ws.files.iter().map(|f| f.fns.len()).sum();
    Ok(Analysis { findings, files: ws.files.len(), fns, ranks: n_ranks, rank_edges: edges.len() })
}

fn merge_unique(into: &mut Vec<String>, names: impl IntoIterator<Item = String>) {
    for name in names {
        if !into.contains(&name) {
            into.push(name);
        }
    }
}

/// Suppress findings covered by a well-formed allow; then flag allow-hygiene
/// problems (unknown rule, missing reason, allow that suppressed nothing).
fn apply_allows(findings: Vec<Finding>, ws: &model::Workspace) -> Vec<Finding> {
    let mut used: Vec<Vec<bool>> = ws.files.iter().map(|m| vec![false; m.allows.len()]).collect();
    let mut out = Vec::new();
    for f in findings {
        let allow = ws.files.iter().position(|m| m.rel == f.file).and_then(|fi| {
            let covers = |a: &Allow| a.rule == f.rule && a.has_reason && a.target_line == f.line;
            ws.files[fi].allows.iter().position(covers).map(|ai| (fi, ai))
        });
        match allow {
            Some((fi, ai)) => used[fi][ai] = true,
            None => out.push(f),
        }
    }
    for (m, used) in ws.files.iter().zip(&used) {
        for (a, used) in m.allows.iter().zip(used) {
            let msg = if !ALLOWABLE_RULES.contains(&a.rule.as_str()) {
                format!(
                    "unknown rule `{}` in lint:allow (known: {})",
                    a.rule,
                    ALLOWABLE_RULES.join(", ")
                )
            } else if !a.has_reason {
                format!(
                    "lint:allow({}) without a reason — write `// lint:allow({}): <why this is \
                     sound>`",
                    a.rule, a.rule
                )
            } else if !used {
                format!(
                    "lint:allow({}) suppresses nothing on line {} — stale, remove it",
                    a.rule, a.target_line
                )
            } else {
                continue;
            };
            out.push(Finding {
                rule: "lint-allow",
                file: m.rel.clone(),
                line: a.line,
                msg,
                witness: Vec::new(),
            });
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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

    pub(super) fn write(root: &Path, rel: &str, content: &str) {
        let p = root.join(rel);
        std::fs::create_dir_all(p.parent().unwrap()).unwrap();
        std::fs::write(p, content).unwrap();
    }

    /// A fresh scratch workspace holding only the rank module.
    pub(super) fn fixture(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let root = std::env::temp_dir().join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
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
        // Drop the guard before descending and the chain is clean.
        let src = std::fs::read_to_string(root.join("crates/a/src/lib.rs")).unwrap();
        write(
            &root,
            "crates/a/src/lib.rs",
            &src.replace("cbs_b::helper(t);", "drop(g);\n        cbs_b::helper(t);"),
        );
        let a = run(&root).unwrap();
        assert!(a.findings.is_empty(), "released guard still flagged: {:?}", a.findings);
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

    /// Allow hygiene is one pass over every rule: shown once for a line
    /// rule and once for an interprocedural one.
    #[test]
    fn allow_hygiene_no_reason_unknown_rule_and_stale() {
        let root = fixture("an_hygiene");
        write(
            &root,
            "crates/cluster/src/lib.rs",
            r#"
fn a() {
    // lint:allow(wall-clock)
    let t = std::time::Instant::now();
}
// lint:allow(wall-clock): nothing reads the clock here anymore
fn b() {}
// lint:allow(lock-order)
fn c() {}
// lint:allow(guard-blocking): nothing here blocks anymore
fn d() {}
// lint:allow(unwrap): clippy owns this one now
fn e() {}
"#,
        );
        let a = run(&root).unwrap();
        let got: Vec<(usize, &str, &str)> = a
            .findings
            .iter()
            .map(|f| {
                let what =
                    ["without a reason", "suppresses nothing", "unknown rule", "Instant::now"]
                        .into_iter()
                        .find(|w| f.msg.contains(w))
                        .unwrap_or("?");
                (f.line, f.rule, what)
            })
            .collect();
        assert_eq!(
            got,
            [
                (3, "lint-allow", "without a reason"),
                // ...and a reason-less allow suppresses nothing.
                (4, "wall-clock", "Instant::now"),
                (6, "lint-allow", "suppresses nothing"),
                (8, "lint-allow", "without a reason"),
                (10, "lint-allow", "suppresses nothing"),
                (12, "lint-allow", "unknown rule"),
            ],
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

    /// The teeth requirement in reverse: the real workspace must analyze
    /// clean — the pass lands enabled, with genuine findings either fixed
    /// or allowlisted-with-reason in the product source.
    #[test]
    fn workspace_is_clean() {
        let a = run(&crate::census::repo_root()).unwrap();
        let rendered: Vec<String> = a.findings.iter().map(Finding::render).collect();
        assert!(
            a.findings.is_empty(),
            "cargo xtask analyze is not clean:\n{}",
            rendered.join("\n")
        );
        assert!(a.fns > 100, "suspiciously few functions modeled: {}", a.fns);
        assert!(a.rank_edges >= 5, "suspiciously few rank edges: {}", a.rank_edges);
    }
}
