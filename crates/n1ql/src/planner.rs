//! The query planner (§4.5.3), cost-based.
//!
//! "To optimize a query, the N1QL query planner analyzes the query and
//! available access path options for each keyspace in the query to pick an
//! appropriate plan [...] The planner needs to first select the access
//! path for each bucket, determine the join order, and then determine the
//! type of the join operation."
//!
//! Access-path selection:
//!
//! 1. `USE KEYS` → **KeyScan** (the fastest path, §5.1.1);
//! 2. sargable candidates over the leading key of online GSIs →
//!    **IndexScan** candidates, with covering detection (§5.1.2) and
//!    partial-index applicability checks (§3.3.4). Every candidate is
//!    *priced* (range selectivity × entry cost, plus a fetch cost unless
//!    covering) and compared against the full **PrimaryScan**; a keyspace
//!    no online index has counted yet is priced as one document with the
//!    default selectivities.
//! 3. an online primary index → **PrimaryScan** (full scan of that index,
//!    then a Fetch per document — allowed but "quite expensive");
//! 4. otherwise the query is rejected, exactly like real N1QL's "no index
//!    available" error.
//!
//! A `system:` catalog has one path of its own, **SystemScan**: its rows
//! are handed over whole. `system_catalog` resolves its name against
//! [`SYSTEM_CATALOGS`]; writes and index DDL on a catalog are refused.
//!
//! A path in the statement is the parser's [`JsonPath`], the type index
//! keys hold: a predicate, a partial-index condition or a covered
//! expression matches a key when its steps equal the key's, with or
//! without the FROM alias as the first step (a quoted `` `a.b` `` is one
//! step, never `a`→`b`).
//!
//! Join order is the textual order (N1QL 4.x key-join semantics), and a
//! join is the key-based nested loop of KV fetches (§3.2.4).
//!
//! UPDATE and DELETE plan as the SELECT of their target rows (`FROM ks
//! [USE KEYS] [WHERE] [LIMIT]`), through the same access-path choice, with
//! the mutation as the pipeline's last operator. No index covers them:
//! they write whole documents back.
//!
//! Scan ranges stay *symbolic* in the plan ([`RangeSpec`]): bounds are
//! literal/parameter expressions resolved per request, so a prepared plan
//! serves every parameter binding of its statement. Cost formulas
//! and constants are documented in DESIGN.md §13.

use std::cmp::Ordering;

use cbs_common::{Error, Result};
use cbs_index::{FilterCond, FilterOp, IndexCardinality, IndexDef, KeyExpr, ScanRange};
use cbs_json::{JsonPath, PathStep, Value};

use crate::ast::*;
use crate::datastore::{Datastore, KeyspaceStats, SYSTEM_CATALOGS};
use crate::exec::{eval_const, QueryOptions};
use crate::plan::{AccessPath, Mutation, PlanEstimate, QueryPlan, RangeSpec, SelectPlan};

/// Cost of fetching one full document from the data service (a network
/// round trip plus deserialization — the dominant term, §5.1.2).
const C_FETCH: f64 = 5.0;
/// Cost of reading one index entry during a range scan.
const C_INDEX_ENTRY: f64 = 1.0;
/// Default equality selectivity when the index has no distinct-key count.
const DEFAULT_EQ_SELECTIVITY: f64 = 0.02;
/// Default selectivity of a half-bounded range (one of low/high).
const HALF_BOUNDED_SELECTIVITY: f64 = 1.0 / 3.0;
/// Default selectivity of a fully bounded range.
const BOUNDED_SELECTIVITY: f64 = 0.1;

/// Plan a statement.
pub fn build_plan(ds: &dyn Datastore, stmt: &Statement, opts: &QueryOptions) -> Result<QueryPlan> {
    // EXPLAIN and PROFILE plan the statement they wrap, however deep: a
    // loop, not a recursion through this large frame.
    let mut stmt = stmt;
    while let Statement::Explain(inner) | Statement::Profile(inner) = stmt {
        stmt = inner;
    }
    match stmt {
        // Every catalog is read-only.
        Statement::Insert { keyspace, .. }
        | Statement::Upsert { keyspace, .. }
        | Statement::Update { keyspace, .. }
        | Statement::Delete { keyspace, .. }
        | Statement::CreateIndex { keyspace, .. }
        | Statement::CreatePrimaryIndex { keyspace, .. }
        | Statement::DropIndex { keyspace, .. }
        | Statement::BuildIndex { keyspace, .. }
            if system_catalog(keyspace)?.is_some() =>
        {
            Err(Error::Plan(format!("{keyspace} is read-only")))
        }
        Statement::Select(sel) => Ok(QueryPlan::Select(plan_select(ds, sel.clone(), None, opts)?)),
        // The pipeline of a DML statement is the SELECT of its target rows,
        // ending in the mutation.
        Statement::Update { keyspace, use_keys, where_, limit, .. }
        | Statement::Delete { keyspace, use_keys, where_, limit } => {
            let mutation = match stmt {
                Statement::Update { set, unset, .. } => {
                    Mutation::Update { set: set.clone(), unset: unset.clone() }
                }
                _ => Mutation::Delete,
            };
            let targets = Select {
                from: Some(FromClause {
                    keyspace: keyspace.clone(),
                    alias: keyspace.clone(),
                    use_keys: use_keys.clone(),
                    ops: Vec::new(),
                }),
                where_: where_.clone(),
                limit: limit.clone(),
                ..Select::default()
            };
            Ok(QueryPlan::Select(plan_select(ds, targets, Some(mutation), opts)?))
        }
        // The request runs these itself (`crate::query`); they have no plan
        // to explain or profile.
        Statement::Prepare { .. } | Statement::Execute { .. } => {
            Err(Error::Plan("PREPARE and EXECUTE cannot be explained or profiled".to_string()))
        }
        other => Ok(QueryPlan::Direct(other.clone())),
    }
}

/// The [`SYSTEM_CATALOGS`] entry a keyspace name resolves to: `None` for
/// a keyspace that is not a `system:` name, an error for an unlisted one.
fn system_catalog(keyspace: &str) -> Result<Option<&'static str>> {
    if !keyspace.starts_with("system:") {
        return Ok(None);
    }
    let catalog = SYSTEM_CATALOGS.iter().find(|c| **c == keyspace);
    catalog.map(|c| Some(*c)).ok_or_else(|| Error::Plan(format!("no such keyspace: {keyspace}")))
}

impl RangeSpec {
    /// Resolve the symbolic bounds against this request's parameters,
    /// producing the concrete [`ScanRange`] pushed into the index.
    pub fn resolve(&self, opts: &QueryOptions) -> Result<ScanRange> {
        let mut range = ScanRange::all();
        for (e, inclusive) in &self.lows {
            let v = const_value(e, opts).ok_or_else(|| unresolved_bound(e))?;
            tighten_low(&mut range, v, *inclusive);
        }
        for (e, inclusive) in &self.highs {
            let v = const_value(e, opts).ok_or_else(|| unresolved_bound(e))?;
            tighten_high(&mut range, v, *inclusive);
        }
        Ok(range)
    }
}

fn unresolved_bound(e: &Expr) -> Error {
    Error::Plan(match e {
        Expr::PosParam(n) => format!("missing positional parameter ${n} for scan range"),
        Expr::NamedParam(n) => format!("missing named parameter ${n} for scan range"),
        other => format!("unresolvable scan-range bound: {other:?}"),
    })
}

fn plan_select(
    ds: &dyn Datastore,
    sel: Select,
    mutation: Option<Mutation>,
    opts: &QueryOptions,
) -> Result<SelectPlan> {
    let chosen = choose_access(ds, &sel, mutation.is_none(), opts)?;
    Ok(SelectPlan::new(sel, chosen.access, chosen.estimate, chosen.range_serves_where, mutation))
}

/// The access path for a SELECT's primary keyspace, as priced.
struct ChosenAccess {
    access: AccessPath,
    estimate: PlanEstimate,
    /// The index range alone enforces the whole WHERE clause.
    range_serves_where: bool,
}

impl ChosenAccess {
    /// An access path the planner did not price.
    fn unpriced(access: AccessPath) -> ChosenAccess {
        ChosenAccess { access, estimate: PlanEstimate::default(), range_serves_where: false }
    }
}

/// A sargable index with the range it would scan.
struct Candidate {
    index: IndexDef,
    range: RangeSpec,
    range_serves_where: bool,
    covering: bool,
}

impl Candidate {
    fn chosen(self, estimate: PlanEstimate) -> ChosenAccess {
        ChosenAccess {
            access: AccessPath::IndexScan {
                index: self.index,
                range: self.range,
                covering: self.covering,
            },
            estimate,
            range_serves_where: self.range_serves_where,
        }
    }
}

/// `may_cover`: whether an index holding every path the statement reads
/// may stand in for the documents (false for DML, which writes them).
fn choose_access(
    ds: &dyn Datastore,
    sel: &Select,
    may_cover: bool,
    opts: &QueryOptions,
) -> Result<ChosenAccess> {
    let Some(from) = &sel.from else {
        return Ok(ChosenAccess::unpriced(AccessPath::ExpressionOnly));
    };
    // `system:` catalogs are served whole (no indexes, no primary-index
    // requirement); the rest of the pipeline — Filter, Group, Sort, Limit —
    // applies unchanged on top of the scan.
    if let Some(catalog) = system_catalog(&from.keyspace)? {
        return Ok(ChosenAccess::unpriced(AccessPath::SystemScan { catalog }));
    }
    if !ds.keyspace_exists(&from.keyspace) {
        return Err(Error::Plan(format!("no such keyspace: {}", from.keyspace)));
    }
    for op in &from.ops {
        let ks = match op {
            FromOp::Join { keyspace, .. } | FromOp::Nest { keyspace, .. } => Some(keyspace),
            FromOp::Unnest { .. } => None,
        };
        if let Some(ks) = ks {
            if !ds.keyspace_exists(ks) {
                return Err(Error::Plan(format!("no such keyspace: {ks}")));
            }
        }
    }

    // 1. USE KEYS → KeyScan.
    if let Some(keys) = &from.use_keys {
        return Ok(ChosenAccess::unpriced(AccessPath::KeyScan { keys: keys.clone() }));
    }

    // 2. Collect sargable index candidates.
    let conjuncts = sel.where_.as_ref().map(split_conjuncts).unwrap_or_default();
    let indexes = ds.list_indexes(&from.keyspace);
    let mut candidates: Vec<Candidate> = Vec::new();
    for def in &indexes {
        let Some((range, range_serves_where)) = sargable_spec(def, &from.alias, &conjuncts) else {
            continue;
        };
        if !partial_index_applicable(def, &from.alias, &conjuncts) {
            continue;
        }
        let covering = may_cover && covering_ok(def, &from.alias, sel);
        // An unbounded scan that must fetch every document is a
        // PrimaryScan in disguise.
        if range.has_low() || range.has_high() || covering {
            candidates.push(Candidate { index: def.clone(), range, range_serves_where, covering });
        }
    }
    let primary = indexes
        .iter()
        .find(|d| d.primary)
        .map(|index| AccessPath::PrimaryScan { index: index.clone() });

    // 3. Price every candidate against a PrimaryScan, which requires a
    // primary index to exist (§3.3.3 / §5.1.1). doc_count == 0 means the
    // keyspace is empty or no online index has counted it yet: price it
    // as one document with the default selectivities.
    let mut stats = ds.keyspace_stats(&from.keyspace);
    let counted = stats.doc_count > 0;
    if !counted {
        stats = KeyspaceStats { doc_count: 1, indexes: Vec::new() };
    }
    let mut best: Option<(Candidate, PlanEstimate)> = None;
    for cand in candidates {
        let est = estimate_index_scan(&cand.range, &cand.index, &stats, cand.covering, opts);
        if best.as_ref().is_none_or(|(_, b)| est.cost < b.cost) {
            best = Some((cand, est));
        }
    }
    let primary_est = PlanEstimate {
        cost: stats.doc_count as f64 * C_FETCH,
        cardinality: stats.doc_count as f64,
        ..PlanEstimate::default()
    };
    let mut chosen = match (best, primary) {
        (Some((cand, est)), None) => cand.chosen(est),
        (Some((cand, est)), Some(_)) if est.cost < primary_est.cost => cand.chosen(est),
        (_, Some(access)) => {
            ChosenAccess { estimate: primary_est, ..ChosenAccess::unpriced(access) }
        }
        (None, None) => return Err(no_index_error(&from.keyspace)),
    };
    chosen.estimate.based_on_stats = counted;
    Ok(chosen)
}

fn no_index_error(keyspace: &str) -> Error {
    Error::Plan(format!(
        "no index available on keyspace {keyspace} — create a primary or secondary index, or use \
         USE KEYS"
    ))
}

/// Price one IndexScan candidate: estimated entries read × entry cost,
/// plus a per-document fetch cost unless the index covers the query.
fn estimate_index_scan(
    spec: &RangeSpec,
    def: &IndexDef,
    stats: &KeyspaceStats,
    covering: bool,
    opts: &QueryOptions,
) -> PlanEstimate {
    let istat = stats.index(&def.name);
    let entries = istat.map(|s| s.entries).unwrap_or(stats.doc_count) as f64;
    let selectivity = range_selectivity(spec, istat, opts);
    let cardinality = entries * selectivity;
    let cost = cardinality * C_INDEX_ENTRY + if covering { 0.0 } else { cardinality * C_FETCH };
    PlanEstimate { cost, cardinality, ..PlanEstimate::default() }
}

/// Fraction of index entries a range is expected to select. Uses the
/// current request's parameters when they resolve (advisory only — the
/// plan itself stays parameter-independent).
///
/// This is deliberate *bind peeking*: for a prepared plan the access path
/// priced from the binding present at PREPARE (or at the EXECUTE that
/// re-plans it) is frozen in and reused for every later binding, until
/// an epoch bump re-plans.
/// An unrepresentative first binding can therefore lock in a worse plan
/// than the parameter-free defaults would pick — the tradeoff, and why
/// we accept it, is documented in DESIGN.md §13.
fn range_selectivity(
    spec: &RangeSpec,
    istat: Option<&IndexCardinality>,
    opts: &QueryOptions,
) -> f64 {
    if spec.is_unbounded() {
        return 1.0;
    }
    if let Ok(range) = spec.resolve(opts) {
        // Equality: one distinct key's worth of entries.
        if let (Some(lo), Some(hi)) = (&range.low, &range.high) {
            if cbs_json::cmp_values(lo, hi) == Ordering::Equal {
                return match istat {
                    Some(s) if s.distinct_keys > 0 => 1.0 / s.distinct_keys as f64,
                    _ => DEFAULT_EQ_SELECTIVITY,
                };
            }
        }
        // Numeric interpolation against the index's leading-key bounds.
        if let Some(s) = istat {
            if let (Some(min), Some(max)) = (
                s.min_leading.as_ref().and_then(Value::as_f64),
                s.max_leading.as_ref().and_then(Value::as_f64),
            ) {
                let width = max - min;
                let lo_ok =
                    range.low.is_none() || range.low.as_ref().and_then(Value::as_f64).is_some();
                let hi_ok =
                    range.high.is_none() || range.high.as_ref().and_then(Value::as_f64).is_some();
                if width > 0.0 && lo_ok && hi_ok {
                    let lo = range.low.as_ref().and_then(Value::as_f64).unwrap_or(min).max(min);
                    let hi = range.high.as_ref().and_then(Value::as_f64).unwrap_or(max).min(max);
                    return ((hi - lo) / width).clamp(0.0, 1.0);
                }
            }
        }
    }
    match (spec.has_low(), spec.has_high()) {
        (true, true) => BOUNDED_SELECTIVITY,
        (true, false) | (false, true) => HALF_BOUNDED_SELECTIVITY,
        (false, false) => 1.0,
    }
}

/// Split a WHERE tree on AND.
pub fn split_conjuncts(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::Binary(BinOp::And, a, b) => {
            let mut out = split_conjuncts(a);
            out.extend(split_conjuncts(b));
            out
        }
        other => vec![other.clone()],
    }
}

/// Does `expr` reference exactly the indexed leading key (modulo the
/// keyspace alias prefix)?
fn matches_key_expr(expr: &Expr, key: &KeyExpr, alias: &str) -> bool {
    match (expr, key) {
        (Expr::MetaId(a), KeyExpr::DocId) => a.as_deref().is_none_or(|x| x == alias),
        (Expr::Path(path), KeyExpr::Path(key)) => path_matches(path, key, alias),
        // ANY ... IN <path> predicates pair with ArrayElements keys; handled
        // separately in `sargable_spec`.
        _ => false,
    }
}

/// Does a path in the statement name `key`'s steps, with or without the
/// keyspace alias as its first step?
fn path_matches(path: &JsonPath, key: &JsonPath, alias: &str) -> bool {
    path.steps == key.steps
        || matches!(path.steps.split_first(),
            Some((PathStep::Field(first), rest)) if first == alias && rest == key.steps)
}

/// Shape-only check: can this expression be resolved to a constant at
/// execution time (literal or parameter)? Plans must not depend on
/// parameter *values*, only on parameter *positions*, so sargability is
/// decided on shape alone and [`RangeSpec::resolve`] evaluates later.
fn is_const_expr(e: &Expr) -> bool {
    match e {
        Expr::Literal(_) | Expr::PosParam(_) | Expr::NamedParam(_) => true,
        Expr::Unary(UnaryOp::Neg, inner) => is_const_expr(inner),
        _ => false,
    }
}

/// Evaluate a bound expression against a request's parameters.
pub(crate) fn const_value(e: &Expr, opts: &QueryOptions) -> Option<Value> {
    if is_const_expr(e) {
        eval_const(e, opts).ok().flatten()
    } else {
        None
    }
}

/// Derive the symbolic leading-key range an index can serve for these
/// conjuncts (`None` if the index is not sargable for this query), and
/// whether that range alone enforces the whole WHERE clause — what has to
/// hold before a LIMIT may stop the scan early.
fn sargable_spec(def: &IndexDef, alias: &str, conjuncts: &[Expr]) -> Option<(RangeSpec, bool)> {
    let leading = &def.keys[0];
    let mut spec = RangeSpec::default();
    let mut matched = 0usize;

    for c in conjuncts {
        // ANY x IN <arr> SATISFIES x = $v END ↔ array index on <arr>.
        if let (Expr::AnyEvery { any: true, var, source, cond }, KeyExpr::ArrayElements(path)) =
            (c, leading)
        {
            if let Expr::Path(src) = source.as_ref() {
                if path_matches(src, path, alias) {
                    if let Expr::Binary(BinOp::Eq, l, r) = cond.as_ref() {
                        let var_matches = matches!(l.as_ref(), Expr::Path(p)
                            if matches!(p.steps.as_slice(), [PathStep::Field(f)] if f == var));
                        if var_matches && is_const_expr(r) {
                            // One entry per array element: the same
                            // document can appear twice in the range.
                            return Some((RangeSpec::exact((**r).clone()), false));
                        }
                    }
                }
            }
            continue;
        }
        let (op, lhs, rhs) = match c {
            Expr::Binary(
                op @ (BinOp::Eq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge),
                l,
                r,
            ) => (*op, l.as_ref(), r.as_ref()),
            Expr::Between { expr, low, high, negated: false } => {
                if matches_key_expr(expr, leading, alias)
                    && is_const_expr(low)
                    && is_const_expr(high)
                {
                    spec.lows.push(((**low).clone(), true));
                    spec.highs.push(((**high).clone(), true));
                    matched += 1;
                }
                continue;
            }
            _ => continue,
        };
        // Normalize to key <op> constant.
        let (op, const_side) = if matches_key_expr(lhs, leading, alias) {
            (op, rhs)
        } else if matches_key_expr(rhs, leading, alias) {
            (flip(op), lhs)
        } else {
            continue;
        };
        if !is_const_expr(const_side) {
            continue;
        }
        match op {
            BinOp::Eq => {
                spec.lows.push((const_side.clone(), true));
                spec.highs.push((const_side.clone(), true));
            }
            BinOp::Gt => spec.lows.push((const_side.clone(), false)),
            BinOp::Ge => spec.lows.push((const_side.clone(), true)),
            BinOp::Lt => spec.highs.push((const_side.clone(), false)),
            BinOp::Le => spec.highs.push((const_side.clone(), true)),
            _ => continue,
        }
        matched += 1;
    }
    // A primary index can always serve an unbounded scan.
    if matched == 0 && !def.primary {
        return None;
    }
    // Every conjunct became a bound, and no entry inside the bounds fails
    // the predicate: a NULL leading key sorts below every upper bound yet
    // compares as NULL, so an upper-bound-only range over a document path
    // can hold rows the Filter still drops.
    let null_free = spec.has_low() || matches!(leading, KeyExpr::DocId);
    Some((spec, matched == conjuncts.len() && null_free))
}

pub(crate) fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

fn tighten_low(range: &mut ScanRange, v: Value, inclusive: bool) {
    let replace = match &range.low {
        None => true,
        Some(cur) => match cbs_json::cmp_values(&v, cur) {
            Ordering::Greater => true,
            Ordering::Equal => !inclusive && range.low_inclusive,
            Ordering::Less => false,
        },
    };
    if replace {
        range.low = Some(v);
        range.low_inclusive = inclusive;
    }
}

fn tighten_high(range: &mut ScanRange, v: Value, inclusive: bool) {
    let replace = match &range.high {
        None => true,
        Some(cur) => match cbs_json::cmp_values(&v, cur) {
            Ordering::Less => true,
            Ordering::Equal => !inclusive && range.high_inclusive,
            Ordering::Greater => false,
        },
    };
    if replace {
        range.high = Some(v);
        range.high_inclusive = inclusive;
    }
}

/// §3.3.4: a partial index is usable only when the query provably
/// restricts itself to the indexed subset. We accept the simple (and
/// common) case: every index filter condition appears verbatim as a WHERE
/// conjunct.
fn partial_index_applicable(def: &IndexDef, alias: &str, conjuncts: &[Expr]) -> bool {
    def.filter.iter().all(|f| conjuncts.iter().any(|c| conjunct_implies(c, f, alias)))
}

fn conjunct_implies(c: &Expr, f: &FilterCond, alias: &str) -> bool {
    let Expr::Binary(op, l, r) = c else { return false };
    let (op, path_expr, lit) = if matches!(l.as_ref(), Expr::Path(_)) {
        (*op, l.as_ref(), r.as_ref())
    } else if matches!(r.as_ref(), Expr::Path(_)) {
        (flip(*op), r.as_ref(), l.as_ref())
    } else {
        return false;
    };
    let Expr::Path(path) = path_expr else { return false };
    if !path_matches(path, &f.path, alias) {
        return false;
    }
    let Expr::Literal(v) = lit else { return false };
    let want = match f.op {
        FilterOp::Eq => BinOp::Eq,
        FilterOp::Ne => BinOp::Ne,
        FilterOp::Lt => BinOp::Lt,
        FilterOp::Le => BinOp::Le,
        FilterOp::Gt => BinOp::Gt,
        FilterOp::Ge => BinOp::Ge,
    };
    op == want && cbs_json::cmp_values(v, &f.value) == Ordering::Equal
}

/// §5.1.2 covering detection: every expression the query needs must be
/// answerable from the index key components (or META().id).
fn covering_ok(def: &IndexDef, alias: &str, sel: &Select) -> bool {
    // Joins/nests/unnests and star projections need full documents (and a
    // SELECT without FROM scans no index to be covered by).
    if sel.from.as_ref().is_none_or(|from| !from.ops.is_empty()) {
        return false;
    }
    if sel.items.iter().any(|i| matches!(i, SelectItem::Star | SelectItem::AliasStar(_))) {
        return false;
    }
    // Array indexes don't cover (entries are per-element).
    if matches!(def.keys[0], KeyExpr::ArrayElements(_)) {
        return false;
    }
    let mut exprs: Vec<&Expr> = Vec::new();
    for item in &sel.items {
        if let SelectItem::Expr { expr, .. } = item {
            exprs.push(expr);
        }
    }
    if let Some(w) = &sel.where_ {
        exprs.push(w);
    }
    for o in &sel.order_by {
        exprs.push(&o.expr);
    }
    for g in &sel.group_by {
        exprs.push(g);
    }
    if let Some(h) = &sel.having {
        exprs.push(h);
    }
    exprs.iter().all(|e| expr_covered(e, def, alias))
}

fn expr_covered(e: &Expr, def: &IndexDef, alias: &str) -> bool {
    match e {
        Expr::MetaId(a) => a.as_deref().is_none_or(|x| x == alias),
        Expr::Path(_) => def.keys.iter().any(|k| matches_key_expr(e, k, alias)),
        // Conservative: collection predicates need the document.
        Expr::AnyEvery { .. } | Expr::ArrayComp { .. } => false,
        _ => e.operands().into_iter().all(|o| expr_covered(o, def, alias)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datastore::MemoryDatastore;
    use crate::parser::parse_statement;

    fn ds_with_index(defs: Vec<IndexDef>) -> MemoryDatastore {
        let ds = MemoryDatastore::new();
        ds.create_keyspace("b");
        for d in defs {
            ds.create_index(d).unwrap();
        }
        ds
    }

    fn plan(ds: &MemoryDatastore, q: &str) -> SelectPlan {
        plan_opts(ds, q, &QueryOptions::default())
    }

    fn plan_opts(ds: &MemoryDatastore, q: &str, opts: &QueryOptions) -> SelectPlan {
        let stmt = parse_statement(q).unwrap();
        match build_plan(ds, &stmt, opts).unwrap() {
            QueryPlan::Select(p) => p,
            other => panic!("{other:?}"),
        }
    }

    fn resolved(spec: &RangeSpec) -> ScanRange {
        spec.resolve(&QueryOptions::default()).unwrap()
    }

    #[test]
    fn use_keys_wins() {
        let ds = ds_with_index(vec![IndexDef::simple("age", "b", "age")]);
        let p = plan(&ds, "SELECT * FROM b USE KEYS 'k1' WHERE age > 5");
        assert!(matches!(p.access, AccessPath::KeyScan { .. }));
    }

    #[test]
    fn index_scan_with_range_pushdown() {
        let ds = ds_with_index(vec![IndexDef::simple("age", "b", "age")]);
        let p = plan(&ds, "SELECT name FROM b WHERE age > 21 AND age <= 40");
        match &p.access {
            AccessPath::IndexScan { index, range, covering } => {
                assert_eq!(index.name, "age");
                let r = resolved(range);
                assert_eq!(r.low, Some(Value::int(21)));
                assert!(!r.low_inclusive);
                assert_eq!(r.high, Some(Value::int(40)));
                assert!(r.high_inclusive);
                assert!(!covering, "name is not in the index");
            }
            other => panic!("{other:?}"),
        }
        assert!(p.fetch());
    }

    #[test]
    fn reversed_comparison_normalized() {
        let ds = ds_with_index(vec![IndexDef::simple("age", "b", "age")]);
        let p = plan(&ds, "SELECT * FROM b WHERE 21 < age");
        match p.access {
            AccessPath::IndexScan { range, .. } => {
                let r = resolved(&range);
                assert_eq!(r.low, Some(Value::int(21)));
                assert!(!r.low_inclusive);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn covering_index_skips_fetch() {
        let ds = ds_with_index(vec![IndexDef::simple("age", "b", "age")]);
        let p = plan(&ds, "SELECT age, META().id FROM b WHERE age >= 30");
        match p.access {
            AccessPath::IndexScan { covering, .. } => assert!(covering),
            other => panic!("{other:?}"),
        }
        assert!(!p.fetch(), "covering index avoids the Fetch operator (§5.1.2)");
    }

    #[test]
    fn primary_index_serves_meta_id_range() {
        // The YCSB-E query shape (§10.1.2).
        let ds = ds_with_index(vec![IndexDef::primary("#primary", "b")]);
        let opts = QueryOptions {
            pos_params: vec![Value::from("user100"), Value::int(50)],
            ..QueryOptions::default()
        };
        let stmt = parse_statement("SELECT meta().id AS id FROM b WHERE meta().id >= $1 LIMIT $2")
            .unwrap();
        let QueryPlan::Select(p) = build_plan(&ds, &stmt, &opts).unwrap() else { panic!() };
        match p.access {
            AccessPath::IndexScan { index, range, covering } => {
                assert!(index.primary);
                // The plan keeps the bound symbolic ($1) — resolving with
                // this request's parameters yields the concrete range.
                let r = range.resolve(&opts).unwrap();
                assert_eq!(r.low, Some(Value::from("user100")));
                assert!(covering, "meta().id is covered by the primary index");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn plan_is_parameter_independent() {
        // The same plan resolves differently under different bindings —
        // that is what makes it cacheable across EXECUTEs.
        let ds = ds_with_index(vec![IndexDef::simple("age", "b", "age")]);
        let opts1 = QueryOptions { pos_params: vec![Value::int(10)], ..QueryOptions::default() };
        let p = plan_opts(&ds, "SELECT age FROM b WHERE age > $1", &opts1);
        let AccessPath::IndexScan { range, .. } = &p.access else { panic!("{:?}", p.access) };
        assert_eq!(range.resolve(&opts1).unwrap().low, Some(Value::int(10)));
        let opts2 = QueryOptions { pos_params: vec![Value::int(77)], ..QueryOptions::default() };
        assert_eq!(range.resolve(&opts2).unwrap().low, Some(Value::int(77)));
        // Missing parameter: resolution (not planning) fails.
        let err = range.resolve(&QueryOptions::default()).unwrap_err();
        assert!(matches!(err, Error::Plan(m) if m.contains("positional parameter")));
    }

    #[test]
    fn no_index_is_an_error() {
        let ds = ds_with_index(vec![]);
        let stmt = parse_statement("SELECT * FROM b WHERE age > 1").unwrap();
        let err = build_plan(&ds, &stmt, &QueryOptions::default()).unwrap_err();
        assert!(matches!(err, Error::Plan(m) if m.contains("no index available")));
    }

    #[test]
    fn primary_scan_fallback() {
        let ds = ds_with_index(vec![IndexDef::primary("#primary", "b")]);
        let p = plan(&ds, "SELECT * FROM b WHERE name = 'x'");
        // name has no index: full scan through the primary index.
        assert!(matches!(p.access, AccessPath::PrimaryScan { .. }));
    }

    #[test]
    fn partial_index_requires_matching_predicate() {
        let mut over21 = IndexDef::simple("over21", "b", "age");
        over21.filter = vec![FilterCond {
            path: cbs_json::parse_path("age").unwrap(),
            op: FilterOp::Gt,
            value: Value::int(21),
        }];
        let ds = ds_with_index(vec![over21, IndexDef::primary("#primary", "b")]);
        // Query repeats the filter: index usable.
        let p = plan(&ds, "SELECT age FROM b WHERE age > 21");
        assert!(matches!(p.access, AccessPath::IndexScan { index, .. } if index.name == "over21"));
        // Query that does NOT imply the filter: falls back to primary scan.
        let p = plan(&ds, "SELECT age FROM b WHERE age > 10");
        assert!(matches!(p.access, AccessPath::PrimaryScan { .. }));
    }

    #[test]
    fn array_index_matches_any_predicate() {
        let def = IndexDef {
            keys: vec![KeyExpr::ArrayElements(cbs_json::parse_path("tags").unwrap())],
            ..IndexDef::simple("tags", "b", "tags")
        };
        let ds = ds_with_index(vec![def]);
        let p = plan(&ds, "SELECT * FROM b WHERE ANY t IN tags SATISFIES t = 'sale' END");
        match p.access {
            AccessPath::IndexScan { index, range, covering } => {
                assert_eq!(index.name, "tags");
                assert_eq!(resolved(&range).low, Some(Value::from("sale")));
                assert!(!covering);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn alias_qualified_paths_sargable() {
        let ds = ds_with_index(vec![IndexDef::simple("age", "b", "age")]);
        let p = plan(&ds, "SELECT p.age FROM b p WHERE p.age = 30");
        match p.access {
            AccessPath::IndexScan { range, covering, .. } => {
                let r = resolved(&range);
                assert_eq!(r.low, Some(Value::int(30)));
                assert_eq!(r.high, Some(Value::int(30)));
                assert!(covering);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn expression_only_select() {
        let ds = MemoryDatastore::new();
        let p = plan(&ds, "SELECT 1+1 AS two");
        assert!(matches!(p.access, AccessPath::ExpressionOnly));
    }

    #[test]
    fn limit_pushdown_decision_table() {
        let ds = ds_with_index(vec![
            IndexDef::primary("#primary", "b"),
            IndexDef::simple("age", "b", "age"),
        ]);
        ds.create_keyspace("c");
        let table: &[(&str, bool)] = &[
            // perfbench's `ycsb_scan` and a secondary-index range: the
            // range is the whole WHERE, nothing else touches the row count.
            ("SELECT meta().id AS id FROM b WHERE meta().id >= $start LIMIT $lim", true),
            ("SELECT name FROM b WHERE age >= $1 LIMIT 3", true),
            ("SELECT name FROM b WHERE age > $1 AND age <= 40 LIMIT 3", true),
            ("SELECT meta().id AS id FROM b LIMIT 3", true),
            // No LIMIT to push.
            ("SELECT name FROM b WHERE age >= $1", false),
            // The Filter still drops rows: a residual conjunct, or NULL keys
            // under an upper bound.
            ("SELECT name FROM b WHERE age >= $1 AND name = 'x' LIMIT 3", false),
            ("SELECT name FROM b WHERE age < $1 LIMIT 3", false),
            // Operators that reorder, merge, drop or multiply rows.
            ("SELECT name FROM b WHERE age >= $1 ORDER BY age LIMIT 3", false),
            ("SELECT age FROM b WHERE age >= $1 GROUP BY age LIMIT 3", false),
            ("SELECT COUNT(*) AS n FROM b WHERE age >= $1 LIMIT 3", false),
            ("SELECT 1 AS one FROM b WHERE age >= $1 HAVING COUNT(*) > 0 LIMIT 3", false),
            ("SELECT DISTINCT age FROM b WHERE age >= $1 LIMIT 3", false),
            ("SELECT name FROM b WHERE age >= $1 LIMIT 3 OFFSET 1", false),
            ("SELECT b.name FROM b JOIN c ON KEYS b.ref WHERE b.age >= $1 LIMIT 3", false),
            ("SELECT b.name FROM b NEST c ON KEYS b.ref WHERE b.age >= $1 LIMIT 3", false),
            ("SELECT b.name, t FROM b UNNEST b.tags t WHERE b.age >= $1 LIMIT 3", false),
        ];
        for (q, expected) in table {
            let p = plan(&ds, q);
            assert!(matches!(p.access, AccessPath::IndexScan { .. }), "{q}: {:?}", p.access);
            assert_eq!(p.limit_pushdown(), *expected, "{q}: {:?}", p.operators());
        }
    }

    // ----- cost model -----

    /// 100 docs with age 0..100 and a secondary index on age plus a
    /// primary index, so both access paths are available and priced.
    fn costed_ds() -> MemoryDatastore {
        let ds = ds_with_index(vec![
            IndexDef::simple("age", "b", "age"),
            IndexDef::primary("#primary", "b"),
        ]);
        for i in 0..100 {
            ds.upsert(
                "b",
                &format!("k{i:03}"),
                Value::object([("age", Value::int(i)), ("name", Value::from("x"))]),
            )
            .unwrap();
        }
        ds
    }

    #[test]
    fn selective_range_beats_primary_scan() {
        let ds = costed_ds();
        let p = plan(&ds, "SELECT name FROM b WHERE age > 95");
        match &p.access {
            AccessPath::IndexScan { index, .. } => assert_eq!(index.name, "age"),
            other => panic!("{other:?}"),
        }
        assert!(p.estimate.based_on_stats);
        assert!(p.estimate.cardinality < 10.0, "≈5 of 100 rows: {}", p.estimate.cardinality);
        assert!(p.estimate.cost > 0.0);
    }

    #[test]
    fn unselective_range_loses_to_primary_scan() {
        let ds = costed_ds();
        // age >= 0 selects everything: 100 entries + 100 fetches (cost
        // 600) is worse than a straight primary scan (cost 500).
        let p = plan(&ds, "SELECT name FROM b WHERE age >= 0");
        assert!(matches!(p.access, AccessPath::PrimaryScan { .. }), "{:?}", p.access);
        assert!(p.estimate.based_on_stats);
        assert_eq!(p.estimate.cardinality, 100.0);
    }

    #[test]
    fn covering_discount_keeps_unselective_index() {
        let ds = costed_ds();
        // Covering: no fetch cost, so even the full range (cost 100) beats
        // the primary scan (cost 500).
        let p = plan(&ds, "SELECT age FROM b WHERE age >= 0");
        match &p.access {
            AccessPath::IndexScan { index, covering, .. } => {
                assert_eq!(index.name, "age");
                assert!(covering);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn equality_uses_distinct_keys() {
        let ds = costed_ds();
        let p = plan(&ds, "SELECT name FROM b WHERE age = 42");
        assert!(p.estimate.based_on_stats);
        // 100 entries / 100 distinct keys = 1 row.
        assert!((p.estimate.cardinality - 1.0).abs() < 0.01, "{}", p.estimate.cardinality);
    }

    #[test]
    fn uncounted_keyspace_is_priced_as_one_document() {
        // No documents: doc_count == 0, so the model prices one document
        // with its default selectivities (and says no statistics informed
        // the price).
        let ds = ds_with_index(vec![
            IndexDef::simple("age", "b", "age"),
            IndexDef::primary("#primary", "b"),
        ]);
        let p = plan(&ds, "SELECT name FROM b WHERE age > 95");
        assert!(matches!(p.access, AccessPath::IndexScan { .. }));
        assert!(!p.estimate.based_on_stats);
        // A half-bounded range: 1/3 of one entry, plus its fetch.
        assert!((p.estimate.cost - 2.0).abs() < 1e-9, "{}", p.estimate.cost);
    }
}
