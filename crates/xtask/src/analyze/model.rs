//! The whole-workspace semantic model the passes run on: the canonical
//! rank table (parsed from `cbs_common::sync::rank` — the single source
//! of truth), per-crate lock-field maps, and the DESIGN.md rank-table
//! cross-check.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;

use super::parse::FileModel;
use crate::scan::Masked;

/// One `pub const NAME: LockRank = LockRank::new(N, "str");` definition.
#[derive(Debug, Clone)]
pub struct RankDef {
    pub const_name: String,
    pub num: u32,
    pub name: String,
}

/// Parse the canonical rank table out of `crates/common/src/sync.rs`
/// (`m` is the mask of `sync_rs`). Only definitions inside the
/// `pub mod rank { ... }` block count.
pub fn load_rank_table(m: &Masked, sync_rs: &str) -> Result<Vec<RankDef>, String> {
    let mut defs = Vec::new();
    let mut depth = 0i32;
    let mut in_rank_mod: Option<i32> = None;
    for (idx, masked) in m.lines.iter().enumerate() {
        let lineno = idx + 1;
        if in_rank_mod.is_none() && masked.contains("mod rank") && masked.contains('{') {
            in_rank_mod = Some(depth + 1);
        }
        if let Some(mod_depth) = in_rank_mod {
            if (depth >= mod_depth || masked.contains("mod rank"))
                && masked.contains("pub const")
                && masked.contains("LockRank::new(")
            {
                let def = parse_rank_def(masked, sync_rs.lines().nth(idx).unwrap_or(""))
                    .ok_or_else(|| format!("sync.rs:{lineno}: unparseable LockRank definition"))?;
                defs.push(def);
            }
        }
        for c in masked.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if in_rank_mod.is_some_and(|d| depth < d) && !defs.is_empty() {
                        in_rank_mod = None;
                    }
                }
                _ => {}
            }
        }
    }
    if defs.is_empty() {
        return Err("no LockRank definitions found in cbs_common::sync::rank".into());
    }
    Ok(defs)
}

fn parse_rank_def(masked: &str, original: &str) -> Option<RankDef> {
    // `pub const NAME: LockRank = LockRank::new(10, "kv.shard.flush_cycle");`
    let after = masked.split("pub const").nth(1)?.trim_start();
    let const_name: String =
        after.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    let args = masked.split("LockRank::new(").nth(1)?;
    let num: u32 = args
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '_')
        .filter(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .ok()?;
    // The string literal is blanked in the mask; read it from the original.
    let lit = original.split("LockRank::new(").nth(1)?;
    let q1 = lit.find('"')?;
    let q2 = lit[q1 + 1..].find('"')?;
    let name = lit[q1 + 1..q1 + 1 + q2].to_string();
    if const_name.is_empty() {
        return None;
    }
    Some(RankDef { const_name, num, name })
}

/// Cross-check DESIGN.md §9's rank table against the canonical constants.
/// Returns human-readable discrepancy strings (empty = verified).
pub fn check_design_table(design_md: &str, ranks: &[RankDef]) -> Vec<String> {
    // §9 rows look like: `| 10 | `kv.shard.flush_cycle` | what it covers |`
    let mut doc_rows: BTreeMap<u32, String> = BTreeMap::new();
    for line in design_md.lines() {
        let t = line.trim();
        if !t.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = t.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() < 2 {
            continue;
        }
        let Ok(num) = cells[0].parse::<u32>() else { continue };
        let name = cells[1].trim_matches('`').to_string();
        if name.contains('.') {
            doc_rows.insert(num, name);
        }
    }
    let mut problems = Vec::new();
    if doc_rows.is_empty() {
        problems.push("DESIGN.md: no §9 rank table rows found (| <num> | `<name>` | ...)".into());
        return problems;
    }
    let code: BTreeMap<u32, &str> = ranks.iter().map(|r| (r.num, r.name.as_str())).collect();
    for (num, name) in &doc_rows {
        match code.get(num) {
            None => problems.push(format!(
                "DESIGN.md §9 lists rank {num} `{name}` but cbs_common::sync::rank has no \
                 rank {num}"
            )),
            Some(code_name) if *code_name != name => problems.push(format!(
                "DESIGN.md §9 rank {num} is `{name}` but cbs_common::sync::rank says `{code_name}`"
            )),
            Some(_) => {}
        }
    }
    for r in ranks {
        if !doc_rows.contains_key(&r.num) {
            problems.push(format!(
                "cbs_common::sync::rank::{} (rank {}, `{}`) is missing from the DESIGN.md §9 table",
                r.const_name, r.num, r.name
            ));
        }
    }
    problems
}

/// The assembled workspace model.
pub struct Workspace {
    pub files: Vec<FileModel>,
    /// Canonical rank table, by const name.
    pub ranks: HashMap<String, RankDef>,
    /// Rank definitions in declaration order (reporting).
    pub rank_order: Vec<RankDef>,
    /// (crate, field) → rank const names the field was constructed with.
    /// A Vec because distinct locks can reuse a field name across types;
    /// the passes treat the acquisition as "one of these ranks".
    pub field_ranks: HashMap<(String, String), Vec<String>>,
    /// (crate, field) → declared type idents, for `self.field.method(...)`
    /// call resolution.
    pub field_types: HashMap<(String, String), Vec<String>>,
}

impl Workspace {
    pub fn assemble(files: Vec<FileModel>, rank_defs: Vec<RankDef>) -> Workspace {
        let mut field_ranks: HashMap<(String, String), Vec<String>> = HashMap::new();
        let mut field_types: HashMap<(String, String), Vec<String>> = HashMap::new();
        for f in &files {
            for rf in &f.ranked_fields {
                if let Some(rc) = &rf.rank_const {
                    let e =
                        field_ranks.entry((f.crate_name.clone(), rf.field.clone())).or_default();
                    if !e.contains(rc) {
                        e.push(rc.clone());
                    }
                }
            }
            for (field, ty) in &f.field_types {
                let e = field_types.entry((f.crate_name.clone(), field.clone())).or_default();
                if !e.contains(ty) {
                    e.push(ty.clone());
                }
            }
        }
        let ranks = rank_defs.iter().map(|r| (r.const_name.clone(), r.clone())).collect();
        Workspace { files, ranks, rank_order: rank_defs, field_ranks, field_types }
    }

    pub fn rank_num(&self, const_name: &str) -> Option<u32> {
        self.ranks.get(const_name).map(|r| r.num)
    }
}

/// Read a file as UTF-8, with a path-tagged error.
pub fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::mask;

    const SYNC_SNIPPET: &str = r#"
pub mod rank {
    use super::LockRank;
    /// one flusher drain cycle per shard
    pub const FLUSH_CYCLE: LockRank = LockRank::new(10, "kv.shard.flush_cycle");
    pub const VB_META: LockRank = LockRank::new(20, "kv.vbucket.meta");
}
"#;

    #[test]
    fn rank_table_parses_consts() {
        let defs = load_rank_table(&mask(SYNC_SNIPPET), SYNC_SNIPPET).unwrap();
        assert_eq!(defs.len(), 2);
        assert_eq!(defs[0].const_name, "FLUSH_CYCLE");
        assert_eq!(defs[0].num, 10);
        assert_eq!(defs[0].name, "kv.shard.flush_cycle");
        assert_eq!(defs[1].const_name, "VB_META");
        assert_eq!(defs[1].num, 20);
    }

    #[test]
    fn design_cross_check_catches_drift() {
        let defs = load_rank_table(&mask(SYNC_SNIPPET), SYNC_SNIPPET).unwrap();
        let good = "| 10 | `kv.shard.flush_cycle` | x |\n| 20 | `kv.vbucket.meta` | y |\n";
        assert!(check_design_table(good, &defs).is_empty());

        let stale_name = "| 10 | `kv.shard.flush` | x |\n| 20 | `kv.vbucket.meta` | y |\n";
        let p = check_design_table(stale_name, &defs);
        assert_eq!(p.len(), 1);
        assert!(p[0].contains("rank 10"), "{p:?}");

        let missing_row = "| 20 | `kv.vbucket.meta` | y |\n";
        let p = check_design_table(missing_row, &defs);
        assert_eq!(p.len(), 1);
        assert!(p[0].contains("FLUSH_CYCLE"), "{p:?}");

        let ghost_row =
            "| 10 | `kv.shard.flush_cycle` | x |\n| 20 | `kv.vbucket.meta` | y |\n| 99 | `no.such.lock` | z |\n";
        let p = check_design_table(ghost_row, &defs);
        assert_eq!(p.len(), 1);
        assert!(p[0].contains("no rank 99"), "{p:?}");
    }

    #[test]
    fn real_sync_rs_rank_table_loads() {
        let root = crate::census::repo_root();
        let src = read(&root.join("crates/common/src/sync.rs")).unwrap();
        let defs = load_rank_table(&mask(&src), &src).unwrap();
        assert!(defs.len() >= 16, "expected the full rank table, got {}", defs.len());
        // Strictly increasing rank numbers in declaration order — the
        // table reads top-to-bottom as the acquisition order.
        for w in defs.windows(2) {
            assert!(
                w[0].num < w[1].num,
                "rank table not declared in increasing order: {} then {}",
                w[0].const_name,
                w[1].const_name
            );
        }
    }
}
