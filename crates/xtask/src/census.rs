//! The workspace file census: every `.rs` tree cargo actually builds.
//!
//! `cargo xtask analyze` walks this census, so a new source tree (a crate
//! gaining `benches/`, a new root example) is covered the moment it
//! exists. The census test below pins the
//! discovered (crate, tree) set against an expected list — adding a tree
//! is a one-line diff there, but it can never *silently* escape coverage.

use std::path::{Path, PathBuf};

/// Which cargo target tree a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tree {
    /// `src/` of a crate (lib + bins).
    Lib,
    /// `tests/` integration tests.
    Tests,
    /// `benches/` bench targets.
    Benches,
    /// `examples/` targets.
    Examples,
}

/// One source file cargo builds, tagged with its owning crate and tree.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Absolute path.
    pub path: PathBuf,
    /// Repo-relative path with `/` separators (diagnostics).
    pub rel: String,
    /// Directory name under `crates/`, or `"root"` for the workspace-root
    /// package (`couchbase-repro`).
    pub crate_name: String,
    pub tree: Tree,
}

/// The crate name used for the workspace-root package's own trees.
pub const ROOT_CRATE: &str = "root";

/// The workspace root, resolved from xtask's own manifest directory
/// (xtask lives at `crates/xtask`; the root is two levels up).
#[cfg(test)]
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap().to_path_buf()
}

/// Collect every `.rs` file cargo builds under `root`: `crates/*/{src,
/// tests,benches,examples}` plus the root package's `src/`, `tests/`,
/// `benches/` and `examples/`. The `xtask` crate itself is excluded (its
/// own docs spell out directive syntax the scanner would read as
/// malformed directives). Sorted by path.
pub fn collect(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("reading {}: {e}", crates_dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let crate_name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("").to_string();
        if crate_name == "xtask" {
            continue;
        }
        collect_package_trees(root, &dir, &crate_name, &mut out)?;
    }
    collect_package_trees(root, root, ROOT_CRATE, &mut out)?;
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

fn collect_package_trees(
    root: &Path,
    pkg: &Path,
    crate_name: &str,
    out: &mut Vec<SourceFile>,
) -> Result<(), String> {
    for (sub, tree) in [
        ("src", Tree::Lib),
        ("tests", Tree::Tests),
        ("benches", Tree::Benches),
        ("examples", Tree::Examples),
    ] {
        let dir = pkg.join(sub);
        if !dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&dir, &mut files)?;
        files.sort();
        for path in files {
            // The root package's walk must not descend into `crates/` —
            // it only owns its own four trees, which this loop visits
            // directly, so no extra exclusion is needed here.
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
            out.push(SourceFile {
                path: path.clone(),
                rel,
                crate_name: crate_name.to_string(),
                tree,
            });
        }
    }
    Ok(())
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    for entry in std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        let p = entry.path();
        if p.is_dir() {
            collect_rs_files(&p, out)?;
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(p);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The (crate, tree) pairs the census is expected to find in *this*
    /// repository. When a crate gains a `tests/`, `benches/` or
    /// `examples/` tree (or a new crate appears), add it here — the point
    /// is that a new tree shows up as a test failure, not as silently
    /// unanalyzed code.
    const EXPECTED_TREES: &[(&str, Tree)] = &[
        ("cache", Tree::Lib),
        ("cache", Tree::Tests),
        ("chaos", Tree::Lib),
        ("chaos", Tree::Tests),
        ("chaos", Tree::Examples),
        ("cluster", Tree::Lib),
        ("cluster", Tree::Tests),
        ("common", Tree::Lib),
        ("common", Tree::Tests),
        ("core", Tree::Lib),
        ("core", Tree::Tests),
        ("dcp", Tree::Lib),
        ("fts", Tree::Lib),
        ("index", Tree::Lib),
        ("index", Tree::Tests),
        ("json", Tree::Lib),
        ("json", Tree::Tests),
        ("kv", Tree::Lib),
        ("kv", Tree::Tests),
        ("n1ql", Tree::Lib),
        ("n1ql", Tree::Tests),
        ("obs", Tree::Lib),
        ("obs", Tree::Tests),
        ("storage", Tree::Lib),
        ("storage", Tree::Tests),
        ("txn", Tree::Lib),
        ("txn", Tree::Tests),
        ("txn", Tree::Examples),
        ("views", Tree::Lib),
        ("views", Tree::Tests),
        ("xdcr", Tree::Lib),
        (ROOT_CRATE, Tree::Lib),
        (ROOT_CRATE, Tree::Tests),
        (ROOT_CRATE, Tree::Examples),
    ];

    #[test]
    fn census_matches_the_pinned_tree_list() {
        let files = collect(&repo_root()).unwrap();
        let mut trees: Vec<(String, Tree)> =
            files.iter().map(|f| (f.crate_name.clone(), f.tree)).collect();
        trees.sort();
        trees.dedup();
        let mut expected: Vec<(String, Tree)> =
            EXPECTED_TREES.iter().map(|(c, t)| (c.to_string(), *t)).collect();
        expected.sort();
        let missing: Vec<_> = expected.iter().filter(|t| !trees.contains(t)).collect();
        let extra: Vec<_> = trees.iter().filter(|t| !expected.contains(t)).collect();
        assert!(
            missing.is_empty() && extra.is_empty(),
            "source-tree census drifted.\n  missing (expected but not found): {missing:?}\n  \
             unpinned (found but not in EXPECTED_TREES — new trees must be added there so \
             analyze coverage is acknowledged): {extra:?}"
        );
    }

    #[test]
    fn census_excludes_xtask_and_tags_trees() {
        let files = collect(&repo_root()).unwrap();
        assert!(files.iter().all(|f| !f.rel.starts_with("crates/xtask/")));
        assert!(files.iter().any(|f| f.rel == "crates/kv/src/engine.rs" && f.tree == Tree::Lib));
        assert!(files.iter().any(|f| f.rel == "examples/quickstart.rs"
            && f.tree == Tree::Examples
            && f.crate_name == ROOT_CRATE));
        assert!(files.iter().any(|f| f.rel == "tests/chaos_kv.rs" && f.tree == Tree::Tests));
    }
}
