//! The interprocedural passes over the workspace model.
//!
//! 1. **lock-order** — propagate possibly-held rank sets over the call
//!    graph to a fixpoint; every acquisition whose rank is ≤ a possibly
//!    held rank is reported with the full witness chain (acquire site +
//!    call path). The pass also builds the global rank graph and reports
//!    cycles, plus any `rank::CONST` reference the canonical table does
//!    not define.
//! 2. **guard-blocking** — a ranked/raw guard held across a filesystem
//!    namespace op, sleep or condvar wait, directly or through a call
//!    whose *transitive* callees perform one.
//! 3. **raw-lock** — raw (unranked) lock constructions in library code
//!    outside the explicit allowlist.
//!
//! Soundness posture (see DESIGN.md §14): the call graph is name-resolved,
//! not type-resolved, so the passes over-approximate call targets
//! (possible false positives, suppressed via `lint:allow` with a reason)
//! and miss dynamic dispatch through trait objects (a documented hole).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

use super::model::Workspace;
use super::parse::{Callee, FnModel, HeldGuard, Step};
use super::Finding;
use crate::census::Tree;

/// A function, identified by (file index, fn index) into the workspace.
pub type FnId = (usize, usize);

/// Name-resolved call graph plus per-function lock facts.
pub struct Graph<'w> {
    ws: &'w Workspace,
    /// Lib-tree files only (the passes' domain).
    lib_files: Vec<usize>,
    /// (crate, bare fn name) → definitions.
    by_name: HashMap<(String, String), Vec<FnId>>,
    /// `Type::name` → definitions (with crate).
    by_qual: HashMap<String, Vec<FnId>>,
    /// bare name → crates defining it (cross-crate method fallback).
    name_crates: HashMap<String, BTreeSet<String>>,
    /// Resolved call edges: caller → (callee, call line, held guards).
    calls: HashMap<FnId, Vec<(FnId, usize, Vec<HeldGuard>)>>,
    /// Reverse edges for the blocking fixpoint.
    callers: HashMap<FnId, Vec<FnId>>,
}

impl<'w> Graph<'w> {
    pub fn build(ws: &'w Workspace) -> Graph<'w> {
        let mut g = Graph {
            ws,
            lib_files: Vec::new(),
            by_name: HashMap::new(),
            by_qual: HashMap::new(),
            name_crates: HashMap::new(),
            calls: HashMap::new(),
            callers: HashMap::new(),
        };
        for (fi, f) in ws.files.iter().enumerate() {
            if f.tree != Tree::Lib {
                continue;
            }
            g.lib_files.push(fi);
            for (ni, func) in f.fns.iter().enumerate() {
                let id: FnId = (fi, ni);
                g.by_name.entry((f.crate_name.clone(), func.name.clone())).or_default().push(id);
                if let Some(q) = &func.qual {
                    g.by_qual.entry(q.clone()).or_default().push(id);
                }
                g.name_crates.entry(func.name.clone()).or_default().insert(f.crate_name.clone());
            }
        }
        // Resolve call edges.
        for &fi in &g.lib_files {
            let f = &ws.files[fi];
            for (ni, func) in f.fns.iter().enumerate() {
                let id: FnId = (fi, ni);
                for step in &func.steps {
                    let Step::Call { callee, line, held } = step else { continue };
                    for target in g.resolve(callee, &f.crate_name) {
                        if target == id {
                            continue; // self-recursion adds nothing
                        }
                        g.calls.entry(id).or_default().push((target, *line, held.clone()));
                        g.callers.entry(target).or_default().push(id);
                    }
                }
            }
        }
        g
    }

    fn fnm(&self, id: FnId) -> &FnModel {
        &self.ws.files[id.0].fns[id.1]
    }

    fn file_rel(&self, id: FnId) -> &str {
        &self.ws.files[id.0].rel
    }

    fn crate_of(&self, id: FnId) -> &str {
        &self.ws.files[id.0].crate_name
    }

    /// Resolve a callee to its possible definitions.
    ///
    /// - `Bare` resolves within the calling crate by name.
    /// - `Method` on `self.field` resolves through the field's declared
    ///   type first (`self.store.vb(..)` → `BucketStore::vb`); a plain
    ///   local/self receiver resolves same-crate by name; anything left
    ///   falls back to a unique defining crate and is dropped when
    ///   ambiguous.
    /// - `Qual` resolves through impl blocks workspace-wide, preferring
    ///   the calling crate.
    /// - `CratePath` resolves by name inside the named crate.
    fn resolve(&self, callee: &Callee, from_crate: &str) -> Vec<FnId> {
        match callee {
            Callee::Bare(name) => self
                .by_name
                .get(&(from_crate.to_string(), name.clone()))
                .cloned()
                .unwrap_or_default(),
            Callee::Method { name, via_field, chained } => {
                if let Some(field) = via_field {
                    if let Some(types) =
                        self.ws.field_types.get(&(from_crate.to_string(), field.clone()))
                    {
                        let mut out: Vec<FnId> = Vec::new();
                        for ty in types {
                            if let Some(ids) = self.by_qual.get(&format!("{ty}::{name}")) {
                                out.extend(ids.iter().copied());
                            }
                        }
                        if !out.is_empty() {
                            out.sort_unstable();
                            out.dedup();
                            return out;
                        }
                    }
                }
                if !*chained {
                    if let Some(ids) = self.by_name.get(&(from_crate.to_string(), name.clone())) {
                        return ids.clone();
                    }
                }
                match self.name_crates.get(name) {
                    Some(crates) if crates.len() == 1 => {
                        let krate = crates.iter().next().unwrap();
                        self.by_name
                            .get(&(krate.clone(), name.clone()))
                            .cloned()
                            .unwrap_or_default()
                    }
                    _ => Vec::new(),
                }
            }
            Callee::Qual { ty, func } => {
                let ids = self.by_qual.get(&format!("{ty}::{func}")).cloned().unwrap_or_default();
                let same: Vec<FnId> =
                    ids.iter().copied().filter(|id| self.crate_of(*id) == from_crate).collect();
                if same.is_empty() {
                    ids
                } else {
                    same
                }
            }
            Callee::CratePath { krate, func } => self
                .by_name
                .get(&(krate.replace('-', "_"), func.clone()))
                .cloned()
                .unwrap_or_default(),
        }
    }

    /// Rank constants a held guard can carry (via the crate's field map).
    fn guard_ranks(&self, id: FnId, g: &HeldGuard) -> Vec<String> {
        self.ws
            .field_ranks
            .get(&(self.crate_of(id).to_string(), g.field.clone()))
            .cloned()
            .unwrap_or_default()
    }

    fn fn_display(&self, id: FnId) -> String {
        let f = self.fnm(id);
        match &f.qual {
            Some(q) => format!("{}::{}", self.crate_of(id), q),
            None => format!("{}::{}", self.crate_of(id), f.name),
        }
    }
}

/// How a rank came to be possibly-held at a function's entry.
type Witness = Vec<String>;

/// Pass 1: interprocedural lock-order. Returns findings plus the global
/// rank graph edges (held-rank → acquired-rank with a sample site).
pub fn lock_order(g: &Graph<'_>) -> (Vec<Finding>, BTreeMap<(String, String), String>) {
    let ws = g.ws;
    // Entry states: fn → (rank const possibly held at entry → witness).
    let mut entry: HashMap<FnId, BTreeMap<String, Witness>> = HashMap::new();
    let mut queue: VecDeque<FnId> = VecDeque::new();
    for &fi in &g.lib_files {
        for ni in 0..ws.files[fi].fns.len() {
            queue.push_back((fi, ni));
        }
    }
    let mut queued: HashSet<FnId> = queue.iter().copied().collect();

    let mut findings = Vec::new();
    let mut seen: HashSet<(String, String, String, usize)> = HashSet::new();
    let mut edges: BTreeMap<(String, String), String> = BTreeMap::new();

    while let Some(id) = queue.pop_front() {
        queued.remove(&id);
        let f = g.fnm(id);
        let rel = g.file_rel(id).to_string();
        let entry_state = entry.get(&id).cloned().unwrap_or_default();

        for step in &f.steps {
            match step {
                Step::Acquire { field, line, held } => {
                    let acq_consts =
                        g.ws.field_ranks
                            .get(&(g.crate_of(id).to_string(), field.clone()))
                            .cloned()
                            .unwrap_or_default();
                    // Possibly-held ranks here: local guards + entry set.
                    let mut held_ranks: BTreeMap<String, Witness> = BTreeMap::new();
                    for hg in held {
                        for rc in g.guard_ranks(id, hg) {
                            held_ranks.entry(rc).or_insert_with(|| {
                                vec![format!(
                                    "{rel}:{}: guard on `{}` taken in {}",
                                    hg.line,
                                    hg.field,
                                    g.fn_display(id)
                                )]
                            });
                        }
                    }
                    for (rc, w) in &entry_state {
                        held_ranks.entry(rc.clone()).or_insert_with(|| w.clone());
                    }
                    for a in &acq_consts {
                        let Some(an) = ws.rank_num(a) else { continue };
                        for (h, w) in &held_ranks {
                            let Some(hn) = ws.rank_num(h) else { continue };
                            edges
                                .entry((h.clone(), a.clone()))
                                .or_insert_with(|| format!("{rel}:{line}"));
                            if an <= hn && seen.insert((h.clone(), a.clone(), rel.clone(), *line)) {
                                let mut witness = w.clone();
                                witness.push(format!(
                                    "{rel}:{line}: `{field}` (rank::{a} = {an}) acquired while \
                                     rank::{h} ({hn}) is possibly held"
                                ));
                                findings.push(Finding {
                                    rule: "lock-order",
                                    file: rel.clone(),
                                    line: *line,
                                    msg: format!(
                                        "rank inversion: acquiring rank::{a} ({an}) with \
                                         rank::{h} ({hn}) possibly held in {}",
                                        g.fn_display(id)
                                    ),
                                    witness,
                                });
                            }
                        }
                    }
                }
                Step::Call { line, held, .. } => {
                    // Propagate entry ∪ local guard ranks to each callee.
                    // (The call edge is appended to each witness per callee.)
                    let mut out: BTreeMap<String, Witness> = entry_state.clone();
                    for hg in held {
                        for rc in g.guard_ranks(id, hg) {
                            out.entry(rc).or_insert_with(|| {
                                vec![format!(
                                    "{rel}:{}: guard on `{}` taken in {}",
                                    hg.line,
                                    hg.field,
                                    g.fn_display(id)
                                )]
                            });
                        }
                    }
                    if out.is_empty() {
                        continue;
                    }
                    let targets: Vec<FnId> = g
                        .calls
                        .get(&id)
                        .map(|cs| {
                            cs.iter().filter(|(_, l, _)| l == line).map(|(t, _, _)| *t).collect()
                        })
                        .unwrap_or_default();
                    for t in targets {
                        let tstate = entry.entry(t).or_default();
                        let mut grew = false;
                        for (rc, w) in &out {
                            if !tstate.contains_key(rc) {
                                let mut w2 = w.clone();
                                w2.push(format!(
                                    "{rel}:{line}: {} calls {}",
                                    g.fn_display(id),
                                    g.fn_display(t)
                                ));
                                if w2.len() <= 12 {
                                    tstate.insert(rc.clone(), w2);
                                    grew = true;
                                }
                            }
                        }
                        if grew && queued.insert(t) {
                            queue.push_back(t);
                        }
                    }
                }
                Step::Blocking { .. } => {}
            }
        }
    }

    // Rank-graph cycle check (a safety net: if every recorded edge went
    // strictly upward the graph is acyclic by construction).
    findings.extend(rank_graph_cycles(g.ws, &edges));
    (findings, edges)
}

fn rank_graph_cycles(ws: &Workspace, edges: &BTreeMap<(String, String), String>) -> Vec<Finding> {
    // Index the rank constants that appear in any edge.
    let mut names: Vec<String> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    let intern = |n: &str, names: &mut Vec<String>, index: &mut HashMap<String, usize>| {
        *index.entry(n.to_string()).or_insert_with(|| {
            names.push(n.to_string());
            names.len() - 1
        })
    };
    let mut adj: Vec<Vec<usize>> = Vec::new();
    for (h, a) in edges.keys() {
        let hi = intern(h, &mut names, &mut index);
        let ai = intern(a, &mut names, &mut index);
        adj.resize(adj.len().max(hi + 1).max(ai + 1), Vec::new());
        adj[hi].push(ai);
    }
    adj.resize(names.len(), Vec::new());

    let mut findings = Vec::new();
    // Iterative DFS with white/grey/black coloring; report the first
    // cycle discovered from each root.
    const WHITE: u8 = 0;
    const GREY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; names.len()];
    for start in 0..names.len() {
        if color[start] != WHITE {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        let mut path: Vec<usize> = vec![start];
        color[start] = GREY;
        while let Some((node, idx)) = stack.pop() {
            match adj[node].get(idx).copied() {
                Some(n) => {
                    stack.push((node, idx + 1));
                    if color[n] == GREY {
                        let pos = path.iter().position(|&p| p == n).unwrap();
                        let mut cycle_nodes: Vec<usize> = path[pos..].to_vec();
                        cycle_nodes.push(n);
                        let cycle: Vec<String> = cycle_nodes
                            .iter()
                            .map(|&c| {
                                let name = &names[c];
                                let num =
                                    ws.rank_num(name).map_or("?".to_string(), |v| v.to_string());
                                format!("rank::{name} ({num})")
                            })
                            .collect();
                        let witness: Vec<String> = cycle_nodes
                            .windows(2)
                            .map(|w| {
                                let (x, y) = (&names[w[0]], &names[w[1]]);
                                format!(
                                    "edge rank::{x} -> rank::{y} first seen at {}",
                                    edges[&(x.clone(), y.clone())]
                                )
                            })
                            .collect();
                        findings.push(Finding {
                            rule: "lock-order",
                            file: "crates/common/src/sync.rs".into(),
                            line: 1,
                            msg: format!("rank graph cycle: {}", cycle.join(" -> ")),
                            witness,
                        });
                    } else if color[n] == WHITE {
                        color[n] = GREY;
                        stack.push((n, 0));
                        path.push(n);
                    }
                }
                None => {
                    color[node] = BLACK;
                    if path.last() == Some(&node) {
                        path.pop();
                    }
                }
            }
        }
    }
    findings
}

/// Pass 1b: every `rank::CONST` referenced at a construction site must be
/// one of the canonical constants.
pub fn unknown_rank_consts(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in &ws.files {
        if f.tree != Tree::Lib {
            continue;
        }
        for rf in &f.ranked_fields {
            match &rf.rank_const {
                Some(rc) if !ws.ranks.contains_key(rc) => findings.push(Finding {
                    rule: "rank-table",
                    file: f.rel.clone(),
                    line: rf.line,
                    msg: format!(
                        "`{}` constructed with rank::{rc}, which is not a constant in \
                         cbs_common::sync::rank",
                        rf.field
                    ),
                    witness: Vec::new(),
                }),
                Some(_) => {}
                None if f.crate_name != "common" => findings.push(Finding {
                    rule: "rank-table",
                    file: f.rel.clone(),
                    line: rf.line,
                    msg: format!(
                        "ranked lock `{}` constructed without a literal rank:: constant \
                         (rank forwarded through a variable defeats the static table check)",
                        rf.field
                    ),
                    witness: Vec::new(),
                }),
                None => {}
            }
        }
    }
    findings
}

/// Pass 2: guard held across (transitively) blocking calls.
pub fn guard_blocking(g: &Graph<'_>) -> Vec<Finding> {
    // Blk[fn] = witness chain down to a direct blocking op, if any.
    let mut blk: HashMap<FnId, Witness> = HashMap::new();
    let mut queue: VecDeque<FnId> = VecDeque::new();
    for &fi in &g.lib_files {
        for (ni, f) in g.ws.files[fi].fns.iter().enumerate() {
            for step in &f.steps {
                if let Step::Blocking { what, line, .. } = step {
                    let id: FnId = (fi, ni);
                    blk.entry(id).or_insert_with(|| {
                        vec![format!(
                            "{}:{line}: {} performs `{what}`",
                            g.ws.files[fi].rel,
                            g.fn_display(id)
                        )]
                    });
                    queue.push_back(id);
                    break;
                }
            }
        }
    }
    // Propagate blocking-ness up the call graph.
    while let Some(id) = queue.pop_front() {
        let w = blk[&id].clone();
        let Some(callers) = g.callers.get(&id) else { continue };
        for &c in callers {
            if blk.contains_key(&c) {
                continue;
            }
            if w.len() >= 12 {
                continue;
            }
            let line = g
                .calls
                .get(&c)
                .and_then(|cs| cs.iter().find(|(t, _, _)| *t == id).map(|(_, l, _)| *l))
                .unwrap_or(0);
            let mut w2 = vec![format!(
                "{}:{line}: {} calls {}",
                g.file_rel(c),
                g.fn_display(c),
                g.fn_display(id)
            )];
            w2.extend(w.iter().cloned());
            blk.insert(c, w2);
            queue.push_back(c);
        }
    }

    let mut findings = Vec::new();
    let mut seen: HashSet<(String, usize, String)> = HashSet::new();
    for &fi in &g.lib_files {
        let file = &g.ws.files[fi];
        for (ni, f) in file.fns.iter().enumerate() {
            let id: FnId = (fi, ni);
            for step in &f.steps {
                match step {
                    Step::Blocking { what, line, held } if !held.is_empty() => {
                        let names: Vec<String> =
                            held.iter().map(|h| format!("`{}`", h.field)).collect();
                        if seen.insert((file.rel.clone(), *line, names.join(","))) {
                            findings.push(Finding {
                                rule: "guard-blocking",
                                file: file.rel.clone(),
                                line: *line,
                                msg: format!(
                                    "guard{} on {} held across blocking `{what}` in {}",
                                    if names.len() > 1 { "s" } else { "" },
                                    names.join(", "),
                                    g.fn_display(id)
                                ),
                                witness: held
                                    .iter()
                                    .map(|h| {
                                        format!(
                                            "{}:{}: guard on `{}` taken here",
                                            file.rel, h.line, h.field
                                        )
                                    })
                                    .collect(),
                            });
                        }
                    }
                    Step::Call { line, held, .. } if !held.is_empty() => {
                        let targets: Vec<FnId> = g
                            .calls
                            .get(&id)
                            .map(|cs| {
                                cs.iter()
                                    .filter(|(_, l, _)| l == line)
                                    .map(|(t, _, _)| *t)
                                    .collect()
                            })
                            .unwrap_or_default();
                        for t in targets {
                            let Some(w) = blk.get(&t) else { continue };
                            let names: Vec<String> =
                                held.iter().map(|h| format!("`{}`", h.field)).collect();
                            let key =
                                (file.rel.clone(), *line, format!("{}>{:?}", names.join(","), t));
                            if !seen.insert(key) {
                                continue;
                            }
                            let mut witness: Vec<String> = held
                                .iter()
                                .map(|h| {
                                    format!(
                                        "{}:{}: guard on `{}` taken here",
                                        file.rel, h.line, h.field
                                    )
                                })
                                .collect();
                            witness.push(format!(
                                "{}:{line}: {} calls {}",
                                file.rel,
                                g.fn_display(id),
                                g.fn_display(t)
                            ));
                            witness.extend(w.iter().cloned());
                            findings.push(Finding {
                                rule: "guard-blocking",
                                file: file.rel.clone(),
                                line: *line,
                                msg: format!(
                                    "guard{} on {} held across call to {}, which transitively \
                                     blocks",
                                    if names.len() > 1 { "s" } else { "" },
                                    names.join(", "),
                                    g.fn_display(t)
                                ),
                                witness,
                            });
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    findings
}

/// Pass 3: raw (unranked) lock constructions outside the allowlist.
/// `allowlist` maps a repo-relative path prefix to the reason it is
/// permitted to hold raw locks.
pub fn raw_locks(ws: &Workspace, allowlist: &[(&str, &str)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in &ws.files {
        if f.tree != Tree::Lib {
            continue;
        }
        if allowlist.iter().any(|(prefix, _)| f.rel.starts_with(prefix)) {
            continue;
        }
        for rc in &f.raw_ctors {
            findings.push(Finding {
                rule: "raw-lock",
                file: f.rel.clone(),
                line: rc.line,
                msg: format!(
                    "raw (unranked) {}::new outside the analyze allowlist — use \
                     cbs_common::sync::Ordered{} with a rank::* constant, or add the file \
                     to the allowlist in crates/xtask/src/analyze/mod.rs with a reason",
                    rc.what, rc.what
                ),
                witness: Vec::new(),
            });
        }
    }
    findings
}
