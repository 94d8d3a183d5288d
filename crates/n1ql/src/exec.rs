//! The pipelined query executor (§4.5.3, Figure 11).
//!
//! A SELECT runs as one loop over the plan's operator list
//! ([`SelectPlan::operators`]: Scan → Fetch → Join/Nest/Unnest → Filter →
//! Group → InitialProject → Distinct → Sort → Offset → Limit →
//! FinalProject; "not all queries will have every operator in their
//! plan"). The loop is the only place an operator is timed and its stats
//! recorded, under the name the plan gives it, so PROFILE cannot show an
//! operator that did not run or miss one that did. Which operators exist,
//! and whether LIMIT bounds the index scan, were decided at plan time.
//! UPDATE and DELETE run the same loop: their pipeline ends in
//! `SendUpdate` or `SendDelete` instead of the projection.

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use cbs_common::{Error, Result};
use cbs_index::{
    FilterCond, FilterOp, IndexDef, IndexKey, IndexStorage, KeyExpr, ScanConsistency, ScanRange,
};
use cbs_json::{cmp_missing, hash_missing, JsonPath, PathStep, Value};
use cbs_obs::span;

use crate::ast::*;
use crate::datastore::Datastore;
use crate::eval::{eval, truth, EvalCtx, Truth};
use crate::plan::{AccessPath, Mutation, Operator, QueryPlan, SelectPlan};
use crate::planner::flip;
use crate::profile::{PhaseTimes, Prof};

/// Request-level options (parameters + consistency, §3.2.3).
#[derive(Debug, Clone)]
pub struct QueryOptions {
    /// Positional parameters (`$1`...).
    pub pos_params: Vec<Value>,
    /// Named parameters (`$name`).
    pub named_params: HashMap<String, Value>,
    /// `scan_consistency=not_bounded` (false) or `request_plus` (true).
    pub request_plus: bool,
    /// Index catch-up / scan timeout.
    pub timeout: Duration,
    /// Client-supplied context id, echoed into the request log and the
    /// `system:completed_requests` / `system:active_requests` rows.
    pub client_context_id: Option<String>,
    /// Per-request override of the completed-requests threshold (`None`
    /// uses the slow threshold of the datastore's trace store;
    /// `Some(Duration::ZERO)` always logs).
    pub slow_threshold: Option<Duration>,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            pos_params: Vec::new(),
            named_params: HashMap::new(),
            request_plus: false,
            timeout: Duration::from_secs(30),
            client_context_id: None,
            slow_threshold: None,
        }
    }
}

impl QueryOptions {
    /// Shorthand for positional parameters.
    pub fn with_args(args: Vec<Value>) -> QueryOptions {
        QueryOptions { pos_params: args, ..Default::default() }
    }

    /// Shorthand for named parameters (`$name` placeholders).
    pub fn with_named_args<I, K>(args: I) -> QueryOptions
    where
        I: IntoIterator<Item = (K, Value)>,
        K: Into<String>,
    {
        QueryOptions {
            named_params: args.into_iter().map(|(k, v)| (k.into(), v)).collect(),
            ..Default::default()
        }
    }

    /// Enable `request_plus` scan consistency.
    pub fn request_plus(mut self) -> QueryOptions {
        self.request_plus = true;
        self
    }

    /// Set the per-request completed-requests threshold.
    pub fn slow_threshold(mut self, d: Duration) -> QueryOptions {
        self.slow_threshold = Some(d);
        self
    }

    /// Set the client context id.
    pub fn client_context_id(mut self, id: impl Into<String>) -> QueryOptions {
        self.client_context_id = Some(id.into());
        self
    }
}

/// Execution metrics (a subset of what real N1QL reports).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryMetrics {
    /// Rows returned.
    pub result_count: usize,
    /// Documents mutated (DML).
    pub mutation_count: usize,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Documents fetched from the data service.
    pub fetches: usize,
    /// Index entries scanned.
    pub index_entries: usize,
}

/// A query result: rows as JSON values plus metrics.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    /// Result rows.
    pub rows: Vec<Value>,
    /// Metrics.
    pub metrics: QueryMetrics,
    /// Phase rollups extracted from the request's span tree (populated by
    /// [`crate::query`]; zero when the plan was executed directly).
    pub phases: PhaseTimes,
}

/// One pipeline row, the same type from scan to FinalProject: alias
/// bindings plus per-alias document IDs, then what later operators add.
#[derive(Debug, Clone)]
struct Row {
    obj: Value,
    metas: HashMap<String, String>,
    /// The row's group's aggregate values, in the order of
    /// [`SelectPlan::aggregates`] (set by Group).
    aggs: Option<Vec<Value>>,
    /// The projection (set by InitialProject).
    out: Value,
}

impl Row {
    fn empty() -> Row {
        Row { obj: Value::empty_object(), metas: HashMap::new(), aggs: None, out: Value::Null }
    }

    /// A row that so far is only a document ID (Fetch binds the document).
    fn keyed(alias: &str, key: String) -> Row {
        let mut row = Row::empty();
        row.metas.insert(alias.to_string(), key);
        row
    }

    fn of_doc(alias: &str, key: String, doc: Value) -> Row {
        let mut row = Row::keyed(alias, key);
        row.obj.insert_field(alias, doc);
        row
    }
}

/// Execute a planned statement.
pub fn execute(ds: &dyn Datastore, plan: &QueryPlan, opts: &QueryOptions) -> Result<QueryResult> {
    execute_with_profile(ds, plan, opts, &mut Prof::off())
}

/// Execute a planned statement, recording per-operator stats into `prof`
/// (the `PROFILE` path; [`execute`] passes a disabled collector).
pub fn execute_with_profile(
    ds: &dyn Datastore,
    plan: &QueryPlan,
    opts: &QueryOptions,
    prof: &mut Prof,
) -> Result<QueryResult> {
    let start = Instant::now();
    let _run = span("n1ql.exec.run");
    let mut result = match plan {
        QueryPlan::Select(p) => exec_select(ds, p, opts, prof)?,
        QueryPlan::Direct(stmt) => exec_direct(ds, stmt, opts, prof)?,
    };
    result.metrics.elapsed = start.elapsed();
    result.metrics.result_count = result.rows.len();
    Ok(result)
}

// ----------------------------------------------------------------------
// The operator pipeline (SELECT, UPDATE, DELETE)
// ----------------------------------------------------------------------

fn exec_select(
    ds: &dyn Datastore,
    plan: &SelectPlan,
    opts: &QueryOptions,
    prof: &mut Prof,
) -> Result<QueryResult> {
    let (alias, keyspace) = match &plan.select.from {
        Some(f) => (f.alias.as_str(), f.keyspace.as_str()),
        None => ("", ""),
    };
    let mut run = SelectRun {
        ds,
        plan,
        opts,
        alias,
        keyspace,
        metrics: QueryMetrics::default(),
        rows: Vec::new(),
        result: Vec::new(),
    };
    for &op in plan.operators() {
        let t0 = prof.start();
        let items_in = run.rows.len() as u64;
        let items_out = run.step(op)?;
        prof.record(op.name(), items_in, items_out as u64, t0);
    }
    Ok(QueryResult { rows: run.result, metrics: run.metrics, ..Default::default() })
}

/// One execution of a [`SelectPlan`]: the rows in flight between operators.
struct SelectRun<'a> {
    ds: &'a dyn Datastore,
    plan: &'a SelectPlan,
    opts: &'a QueryOptions,
    /// Alias and keyspace of the FROM clause's primary term ("" without).
    alias: &'a str,
    keyspace: &'a str,
    metrics: QueryMetrics,
    rows: Vec<Row>,
    /// What FinalProject leaves: the projections alone.
    result: Vec<Value>,
}

impl SelectRun<'_> {
    /// Run one operator over `self.rows`; returns how many rows it hands on.
    fn step(&mut self, op: Operator) -> Result<usize> {
        let (ds, sel, opts, alias) = (self.ds, &self.plan.select, self.opts, self.alias);
        // Reachable only if `SelectPlan::new` listed an operator for a
        // clause the statement does not have.
        let unplanned = || Error::Plan(format!("{} has no clause to run", op.name()));
        let rows = std::mem::take(&mut self.rows);
        self.rows = match op {
            Operator::KeyScan
            | Operator::IndexScan
            | Operator::PrimaryScan
            | Operator::DummyScan => self.scan()?,
            Operator::Fetch => {
                let _fetch = span("n1ql.exec.fetch");
                let mut out = Vec::with_capacity(rows.len());
                for mut row in rows {
                    // A scan's row carries its document ID.
                    let Some(key) = row.metas.get(alias) else { continue };
                    self.metrics.fetches += 1;
                    if let Some(doc) = ds.fetch(self.keyspace, key)? {
                        row.obj.insert_field(alias, doc);
                        out.push(row);
                    }
                }
                out
            }
            // Left to right, the textual order (§4.5.3 join order).
            Operator::Join(i) | Operator::Nest(i) | Operator::Unnest(i) => {
                let from_op = sel.from.as_ref().and_then(|f| f.ops.get(i)).ok_or_else(unplanned)?;
                apply_from_op(ds, from_op, rows, opts, alias, &mut self.metrics)?
            }
            Operator::Filter => {
                let where_ = sel.where_.as_ref().ok_or_else(unplanned)?;
                let mut kept = Vec::with_capacity(rows.len());
                for row in rows {
                    if truth(&eval(where_, &self.ctx(&row))?) == Truth::True {
                        kept.push(row);
                    }
                }
                kept
            }
            Operator::Group => {
                // Groups in first-seen order, each found through one map
                // hashed under collation (see `Collated`): O(rows).
                let mut groups: Vec<Vec<Row>> = Vec::new();
                let mut slots = HashMap::new();
                for row in rows {
                    let ctx = self.ctx(&row);
                    let mut key = Vec::with_capacity(sel.group_by.len());
                    for g in &sel.group_by {
                        key.push(eval(g, &ctx)?);
                    }
                    let slot = *slots.entry(Collated(IndexKey(key))).or_insert(groups.len());
                    if slot == groups.len() {
                        groups.push(Vec::new());
                    }
                    groups[slot].push(row);
                }
                // Global aggregation with zero rows still yields one (empty) group.
                if groups.is_empty() && sel.group_by.is_empty() {
                    groups.push(Vec::new());
                }
                let mut out = Vec::with_capacity(groups.len());
                for members in groups {
                    let aggs = compute_aggregates(self.plan.aggregates(), &members, alias, opts)?;
                    // The group's first member stands for it from here on.
                    let mut rep = members.into_iter().next().unwrap_or_else(Row::empty);
                    rep.aggs = Some(aggs);
                    let keep = match &sel.having {
                        Some(having) => truth(&eval(having, &self.ctx(&rep))?) == Truth::True,
                        None => true,
                    };
                    if keep {
                        out.push(rep);
                    }
                }
                out
            }
            Operator::InitialProject => {
                let _proj = span("n1ql.exec.project");
                let mut rows = rows;
                for row in &mut rows {
                    row.out = project(sel, &self.ctx(row))?;
                }
                rows
            }
            Operator::Distinct => {
                let mut rows = rows;
                let mut seen = HashSet::new();
                rows.retain(|row| seen.insert(collated(&row.out)));
                rows
            }
            Operator::Sort => {
                let mut keyed: Vec<(Vec<Option<Value>>, Row)> = Vec::with_capacity(rows.len());
                for mut row in rows {
                    // ORDER BY may reference projected aliases too: merge
                    // them in (only `out` is read after the sort).
                    if let Some(pairs) = row.out.as_object() {
                        for (k, v) in pairs {
                            if row.obj.get_field(k).is_none() {
                                row.obj.insert_field(k, v.clone());
                            }
                        }
                    }
                    let ctx = self.ctx(&row);
                    let mut keys = Vec::with_capacity(sel.order_by.len());
                    for o in &sel.order_by {
                        keys.push(eval(&o.expr, &ctx)?);
                    }
                    keyed.push((keys, row));
                }
                keyed.sort_by(|(a, _), (b, _)| {
                    for ((ka, kb), o) in a.iter().zip(b).zip(&sel.order_by) {
                        let ord = cmp_missing(ka.as_ref(), kb.as_ref());
                        if ord != std::cmp::Ordering::Equal {
                            return if o.desc { ord.reverse() } else { ord };
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                keyed.into_iter().map(|(_, row)| row).collect()
            }
            Operator::Offset => {
                let mut rows = rows;
                let offset = eval_limit(sel.offset.as_ref(), opts)?.unwrap_or(0);
                rows.drain(..offset.min(rows.len()));
                rows
            }
            Operator::Limit => {
                let mut rows = rows;
                if let Some(limit) = eval_limit(sel.limit.as_ref(), opts)? {
                    rows.truncate(limit);
                }
                rows
            }
            Operator::FinalProject => {
                self.result = rows.into_iter().map(|row| row.out).collect();
                return Ok(self.result.len());
            }
            Operator::SendUpdate => {
                let Some(Mutation::Update { set, unset }) = &self.plan.mutation else {
                    return Err(unplanned());
                };
                for mut row in rows {
                    // In order, on the row's own document: each SET sees
                    // what the clauses before it left.
                    for (path, expr) in set {
                        let v = eval(expr, &self.ctx(&row))?.unwrap_or(Value::Null);
                        if let Some(doc) = row.obj.get_field_mut(alias) {
                            path.set(doc, v);
                        }
                    }
                    let (Some(key), Some(mut doc)) =
                        (row.metas.get(alias), row.obj.remove_field(alias))
                    else {
                        continue;
                    };
                    for path in unset {
                        path.remove(&mut doc);
                    }
                    ds.replace(self.keyspace, key, doc)?;
                    self.metrics.mutation_count += 1;
                }
                Vec::new()
            }
            Operator::SendDelete => {
                for key in rows.iter().filter_map(|row| row.metas.get(alias)) {
                    ds.delete(self.keyspace, key)?;
                    self.metrics.mutation_count += 1;
                }
                Vec::new()
            }
        };
        Ok(self.rows.len())
    }

    /// How an expression sees `row`: its bindings, this request's
    /// parameters and, once Group has run, its group's aggregate values.
    fn ctx<'b>(&'b self, row: &'b Row) -> EvalCtx<'b> {
        let aggs = row.aggs.as_deref().map(|values| (self.plan.aggregates(), values));
        EvalCtx { aggs, ..ctx_for(row, self.alias, self.opts) }
    }

    /// The plan's access path: the rows the pipeline starts from.
    fn scan(&mut self) -> Result<Vec<Row>> {
        let (ds, opts, alias, keyspace) = (self.ds, self.opts, self.alias, self.keyspace);
        let (index, range, covering, span_name) = match &self.plan.access {
            AccessPath::ExpressionOnly => return Ok(vec![Row::empty()]),
            AccessPath::KeyScan { keys } => {
                return Ok(doc_ids(eval_const(keys, opts)?)
                    .ok_or_else(|| Error::Eval("USE KEYS requires a string or array".to_string()))?
                    .into_iter()
                    .map(|id| Row::keyed(alias, id))
                    .collect())
            }
            AccessPath::SystemScan { catalog } => {
                let rows = {
                    let _scan = span("n1ql.exec.primary_scan");
                    // The query service's own catalogs first, then the datastore's.
                    match *catalog {
                        "system:completed_requests" => ds.request_log().completed_rows(),
                        "system:active_requests" => ds.request_log().active_rows(),
                        "system:prepareds" => ds.plan_cache().prepared_rows(),
                        other => ds.system_scan(other)?,
                    }
                };
                return Ok(rows.into_iter().map(|(k, v)| Row::of_doc(alias, k, v)).collect());
            }
            // Plans keep scan bounds symbolic so a prepared plan can serve
            // every parameter binding; bind this request's values now.
            AccessPath::IndexScan { index, range, covering } => {
                (index, range.resolve(opts)?, *covering, "n1ql.exec.index_scan")
            }
            AccessPath::PrimaryScan { index } => {
                (index, ScanRange::all(), false, "n1ql.exec.primary_scan")
            }
        };
        // `request_plus` snapshots the seqno vector at admission (§4.2): the
        // index catches up to it before the scan runs. DML and a full scan
        // always wait, so they see every write acknowledged before them, as
        // a read of the data service would.
        let wait = opts.request_plus
            || self.plan.mutation.is_some()
            || matches!(self.plan.access, AccessPath::PrimaryScan { .. });
        let cons = if wait {
            ScanConsistency::AtPlus(ds.seqno_vector(keyspace))
        } else {
            ScanConsistency::NotBounded
        };
        let limit = if self.plan.limit_pushdown() {
            eval_limit(self.plan.select.limit.as_ref(), opts)?.unwrap_or(0)
        } else {
            0
        };
        // The scan span covers only the GSI call so the scan phase does not
        // absorb fetch time; nested `index.manager.scan` spans land inside
        // it (cross-service attribution).
        let entries = {
            let _scan = span(span_name);
            ds.index_scan(keyspace, &index.name, &range, &cons, opts.timeout, limit)?
        };
        self.metrics.index_entries += entries.len();
        Ok(entries
            .into_iter()
            .map(|e| {
                if covering {
                    make_covered_row(alias, e.doc_id.into(), index, &e.key.0)
                } else {
                    Row::keyed(alias, e.doc_id.into())
                }
            })
            .collect())
    }
}

/// Evaluate `e` with no row in scope: literals and this request's
/// parameters only.
pub(crate) fn eval_const(e: &Expr, opts: &QueryOptions) -> Result<Option<Value>> {
    eval(e, &ctx_for(&Row::empty(), "", opts))
}

fn eval_limit(e: Option<&Expr>, opts: &QueryOptions) -> Result<Option<usize>> {
    let Some(e) = e else { return Ok(None) };
    match eval_const(e, opts)? {
        Some(v) => {
            v.as_i64().filter(|n| *n >= 0).map(|n| Some(n as usize)).ok_or_else(|| {
                Error::Eval("LIMIT/OFFSET must be a non-negative integer".to_string())
            })
        }
        None => Err(Error::Eval("LIMIT/OFFSET evaluated to MISSING".to_string())),
    }
}

/// Build a pseudo-document from index key components (covering scans):
/// each indexed path is materialized at its position in an empty object.
fn make_covered_row(alias: &str, doc_id: String, index: &IndexDef, comps: &[Option<Value>]) -> Row {
    let mut doc = Value::empty_object();
    for (key_expr, comp) in index.keys.iter().zip(comps) {
        if let (KeyExpr::Path(path), Some(v)) = (key_expr, comp) {
            path.set(&mut doc, v.clone());
        }
    }
    Row::of_doc(alias, doc_id, doc)
}

fn ctx_for<'a>(row: &'a Row, alias: &'a str, opts: &'a QueryOptions) -> EvalCtx<'a> {
    EvalCtx {
        row: &row.obj,
        metas: &row.metas,
        default_alias: if alias.is_empty() { None } else { Some(alias) },
        pos_params: &opts.pos_params,
        named_params: &opts.named_params,
        aggs: None,
    }
}

fn apply_from_op(
    ds: &dyn Datastore,
    op: &FromOp,
    rows: Vec<Row>,
    opts: &QueryOptions,
    primary_alias: &str,
    metrics: &mut QueryMetrics,
) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    for row in rows {
        let ctx = ctx_for(&row, primary_alias, opts);
        match op {
            FromOp::Join { keyspace, alias, on_keys, left_outer } => {
                let keys = doc_ids(eval(on_keys, &ctx)?).unwrap_or_default();
                let mut matched = false;
                for key in &keys {
                    metrics.fetches += 1;
                    if let Some(doc) = ds.fetch(keyspace, key)? {
                        let mut new = row.clone();
                        new.obj.insert_field(alias, doc);
                        new.metas.insert(alias.clone(), key.clone());
                        out.push(new);
                        matched = true;
                    }
                }
                if !matched && *left_outer {
                    out.push(row);
                }
            }
            FromOp::Nest { keyspace, alias, on_keys, left_outer } => {
                let keys = doc_ids(eval(on_keys, &ctx)?).unwrap_or_default();
                let mut nested = Vec::new();
                for key in &keys {
                    metrics.fetches += 1;
                    if let Some(doc) = ds.fetch(keyspace, key)? {
                        nested.push(doc);
                    }
                }
                if nested.is_empty() {
                    if *left_outer {
                        out.push(row);
                    }
                } else {
                    let mut new = row;
                    new.obj.insert_field(alias, Value::Array(nested));
                    out.push(new);
                }
            }
            FromOp::Unnest { path, alias, left_outer } => match eval(path, &ctx)? {
                Some(Value::Array(items)) if !items.is_empty() => {
                    for item in items {
                        let mut new = row.clone();
                        new.obj.insert_field(alias, item);
                        out.push(new);
                    }
                }
                _ => {
                    if *left_outer {
                        out.push(row);
                    }
                }
            },
        }
    }
    Ok(out)
}

/// The document IDs a USE KEYS or ON KEYS value names: a string, or an
/// array's strings (`None` for any other value).
fn doc_ids(v: Option<Value>) -> Option<Vec<String>> {
    match v? {
        Value::String(s) => Some(vec![s]),
        Value::Array(items) => Some(
            items
                .into_iter()
                .filter_map(|i| if let Value::String(s) = i { Some(s) } else { None })
                .collect(),
        ),
        _ => None,
    }
}

/// A key of a hashed set or map: equal when `IndexKey`'s order, N1QL
/// collation (`cmp_missing`), says so, the one "same value" of GROUP BY,
/// DISTINCT and an aggregate's DISTINCT. `1` and `1.0` are the same, as
/// are two objects with the same fields in another order; MISSING is not
/// NULL. Values that are the same hash alike.
struct Collated(IndexKey);

impl Hash for Collated {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0 .0.len().hash(state);
        for component in &self.0 .0 {
            hash_missing(component.as_ref(), state);
        }
    }
}

impl PartialEq for Collated {
    fn eq(&self, other: &Self) -> bool {
        #[cfg(test)]
        tests::COMPARISONS.with(|n| n.set(n.get() + 1));
        self.0.cmp(&other.0).is_eq()
    }
}

impl Eq for Collated {}

/// A value as a [`Collated`] key.
fn collated(v: &Value) -> Collated {
    Collated(IndexKey(vec![Some(v.clone())]))
}

fn compute_aggregates(
    aggregates: &[Expr],
    members: &[Row],
    alias: &str,
    opts: &QueryOptions,
) -> Result<Vec<Value>> {
    let mut out = Vec::with_capacity(aggregates.len());
    for agg in aggregates {
        let value = match agg {
            Expr::CountStar => Value::from(members.len()),
            Expr::Func { name, args, distinct } => {
                let arg = args
                    .first()
                    .ok_or_else(|| Error::Eval(format!("{name} requires an argument")))?;
                let mut vals: Vec<Value> = Vec::new();
                for row in members {
                    let ctx = ctx_for(row, alias, opts);
                    if let Some(v) = eval(arg, &ctx)? {
                        if !v.is_null() {
                            vals.push(v);
                        }
                    }
                }
                if *distinct {
                    let mut seen = HashSet::new();
                    vals.retain(|v| seen.insert(collated(v)));
                }
                match name.as_str() {
                    "COUNT" => Value::from(vals.len()),
                    "SUM" => {
                        let s: f64 = vals.iter().filter_map(|v| v.as_f64()).sum();
                        int_if_possible(s)
                    }
                    "AVG" => {
                        let nums: Vec<f64> = vals.iter().filter_map(|v| v.as_f64()).collect();
                        if nums.is_empty() {
                            Value::Null
                        } else {
                            Value::float(nums.iter().sum::<f64>() / nums.len() as f64)
                        }
                    }
                    "MIN" => vals.into_iter().min_by(cbs_json::cmp_values).unwrap_or(Value::Null),
                    "MAX" => vals.into_iter().max_by(cbs_json::cmp_values).unwrap_or(Value::Null),
                    "ARRAY_AGG" => Value::Array(vals),
                    other => return Err(Error::Eval(format!("unknown aggregate {other}"))),
                }
            }
            other => return Err(Error::Eval(format!("not an aggregate: {other:?}"))),
        };
        out.push(value);
    }
    Ok(out)
}

fn int_if_possible(f: f64) -> Value {
    if f.fract() == 0.0 && f.abs() < 9e15 {
        Value::int(f as i64)
    } else {
        Value::float(f)
    }
}

fn project(sel: &Select, ctx: &EvalCtx<'_>) -> Result<Value> {
    let mut out = Value::empty_object();
    let mut anon = 0usize;
    for item in &sel.items {
        match item {
            SelectItem::Star => {
                // N1QL: SELECT * returns the row object (alias → doc).
                if let Some(pairs) = ctx.row.as_object() {
                    for (k, v) in pairs {
                        out.insert_field(k, v.clone());
                    }
                }
            }
            SelectItem::AliasStar(a) => {
                let doc = ctx
                    .row
                    .get_field(a)
                    .ok_or_else(|| Error::Eval(format!("unknown alias in projection: {a}")))?;
                if let Some(pairs) = doc.as_object() {
                    for (k, v) in pairs {
                        out.insert_field(k, v.clone());
                    }
                }
            }
            SelectItem::Expr { expr, alias: out_name } => {
                let name = match out_name {
                    Some(n) => n.clone(),
                    None => default_name(expr, &mut anon),
                };
                if let Some(v) = eval(expr, ctx)? {
                    out.insert_field(&name, v);
                }
                // MISSING projections are omitted (N1QL behaviour).
            }
        }
    }
    Ok(out)
}

/// Unaliased projections are named by their last path component; anything
/// else gets `$1`, `$2`, ... (matching N1QL).
fn default_name(e: &Expr, anon: &mut usize) -> String {
    match e {
        Expr::Path(path) => {
            for step in path.steps.iter().rev() {
                if let PathStep::Field(f) = step {
                    return f.clone();
                }
            }
            *anon += 1;
            format!("${anon}")
        }
        Expr::MetaId(_) => "id".to_string(),
        _ => {
            *anon += 1;
            format!("${anon}")
        }
    }
}

// ----------------------------------------------------------------------
// INSERT / UPSERT / DDL
// ----------------------------------------------------------------------

fn exec_direct(
    ds: &dyn Datastore,
    stmt: &Statement,
    opts: &QueryOptions,
    prof: &mut Prof,
) -> Result<QueryResult> {
    let t0 = prof.start();
    let result = exec_direct_inner(ds, stmt, opts)?;
    let n = result.metrics.mutation_count as u64;
    prof.record(crate::explain::direct_name(stmt), n, n, t0);
    Ok(result)
}

fn exec_direct_inner(
    ds: &dyn Datastore,
    stmt: &Statement,
    opts: &QueryOptions,
) -> Result<QueryResult> {
    let mut metrics = QueryMetrics::default();
    match stmt {
        Statement::Insert { keyspace, values } | Statement::Upsert { keyspace, values } => {
            let upsert = matches!(stmt, Statement::Upsert { .. });
            for (k, v) in values {
                let key = eval_const(k, opts)?
                    .and_then(|v| v.as_str().map(str::to_string))
                    .ok_or_else(|| Error::Eval("KEY must evaluate to a string".to_string()))?;
                let value = eval_const(v, opts)?.unwrap_or(Value::Null);
                if upsert {
                    ds.upsert(keyspace, &key, value)?;
                } else {
                    ds.insert(keyspace, &key, value)?;
                }
                metrics.mutation_count += 1;
            }
            Ok(QueryResult { rows: Vec::new(), metrics, ..Default::default() })
        }
        Statement::CreateIndex { name, keyspace, keys, where_, defer_build, .. } => {
            let def = index_def_from_ast(name, keyspace, keys, where_, *defer_build)?;
            ds.create_index(def)?;
            bump_plan_epoch(ds, keyspace);
            Ok(QueryResult::default())
        }
        Statement::CreatePrimaryIndex { name, keyspace, defer_build, .. } => {
            let mut def = IndexDef::primary(name, keyspace);
            def.deferred = *defer_build;
            ds.create_index(def)?;
            bump_plan_epoch(ds, keyspace);
            Ok(QueryResult::default())
        }
        Statement::DropIndex { keyspace, name } => {
            ds.drop_index(keyspace, name)?;
            bump_plan_epoch(ds, keyspace);
            Ok(QueryResult::default())
        }
        Statement::BuildIndex { keyspace, names } => {
            for n in names {
                ds.build_index(keyspace, n)?;
            }
            bump_plan_epoch(ds, keyspace);
            Ok(QueryResult::default())
        }
        Statement::Select(_)
        | Statement::Prepare { .. }
        | Statement::Execute { .. }
        | Statement::Update { .. }
        | Statement::Delete { .. }
        | Statement::Explain(_)
        | Statement::Profile(_) => unreachable!("never planned as a direct statement"),
    }
}

/// DDL changed the index topology: invalidate every prepared plan that
/// depends on this keyspace.
fn bump_plan_epoch(ds: &dyn Datastore, keyspace: &str) {
    ds.plan_cache().bump_epoch(keyspace);
}

/// Translate CREATE INDEX AST into an [`IndexDef`]. The WHERE clause must
/// be a conjunction of `path op literal` conditions (§3.3.4's selective
/// indexes).
fn index_def_from_ast(
    name: &str,
    keyspace: &str,
    keys: &[IndexKeySpec],
    where_: &Option<Expr>,
    defer_build: bool,
) -> Result<IndexDef> {
    let key_exprs = keys
        .iter()
        .map(|k| {
            let path = unqualified(&k.path, keyspace);
            if k.array {
                KeyExpr::ArrayElements(path)
            } else {
                KeyExpr::Path(path)
            }
        })
        .collect();
    let mut filter = Vec::new();
    if let Some(w) = where_ {
        for c in crate::planner::split_conjuncts(w) {
            let cond = filter_cond_from_expr(&c)?;
            filter.push(FilterCond { path: unqualified(&cond.path, keyspace), ..cond });
        }
    }
    Ok(IndexDef {
        name: name.to_string(),
        keyspace: keyspace.to_string(),
        keys: key_exprs,
        filter,
        // `USING GSI` and `USING VIEW` build the same index: a Standard GSI
        // (DESIGN.md substitutions).
        storage: IndexStorage::Standard,
        primary: false,
        deferred: defer_build,
        partition_splits: Vec::new(),
    })
}

/// A document path as an index stores it: `ks.age` in a definition on `ks`
/// names the field `age`, as it does in a statement's FROM `ks`.
fn unqualified(path: &JsonPath, keyspace: &str) -> JsonPath {
    match path.steps.split_first() {
        Some((PathStep::Field(first), rest)) if first == keyspace => {
            JsonPath { steps: rest.to_vec() }
        }
        _ => path.clone(),
    }
}

fn filter_cond_from_expr(e: &Expr) -> Result<FilterCond> {
    let Expr::Binary(op, l, r) = e else {
        return Err(Error::Plan(
            "partial-index WHERE must be comparisons of a path and a literal".to_string(),
        ));
    };
    let (path, lit, op) = match (l.as_ref(), r.as_ref()) {
        (Expr::Path(path), Expr::Literal(v)) => (path.clone(), v.clone(), *op),
        (Expr::Literal(v), Expr::Path(path)) => (path.clone(), v.clone(), flip(*op)),
        _ => {
            return Err(Error::Plan(
                "partial-index WHERE must compare a path with a literal".to_string(),
            ))
        }
    };
    let fop = match op {
        BinOp::Eq => FilterOp::Eq,
        BinOp::Ne => FilterOp::Ne,
        BinOp::Lt => FilterOp::Lt,
        BinOp::Le => FilterOp::Le,
        BinOp::Gt => FilterOp::Gt,
        BinOp::Ge => FilterOp::Ge,
        other => return Err(Error::Plan(format!("unsupported partial-index operator: {other:?}"))),
    };
    Ok(FilterCond { path, op: fop, value: lit })
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use crate::{query, MemoryDatastore, QueryOptions};
    use cbs_json::{parse, Value};

    thread_local! {
        /// Comparisons of two `Collated` keys on this thread.
        pub(super) static COMPARISONS: Cell<u64> = const { Cell::new(0) };
    }

    /// GROUP BY and DISTINCT find a row's group in a map: at most
    /// ⌈log₂ groups⌉ + 2 key comparisons per row, where a search of a list
    /// of groups makes ~groups / 2. The std B-tree, which searches each
    /// node in order, makes ~13.5 here: hence a hashed map.
    #[test]
    fn grouping_compares_o_log_groups_keys_per_row() {
        const ROWS: u64 = 10_000;
        const GROUPS: u64 = 1_000;
        let ds = MemoryDatastore::new();
        ds.create_keyspace("t");
        // Groups in a scattered order, each with ROWS / GROUPS rows.
        let doc = |i: u64| Value::object([("g", Value::int((i * 7_919 % GROUPS) as i64))]);
        ds.load("t", (0..ROWS).map(|i| (format!("k{i:05}"), doc(i))));
        let opts = QueryOptions::default();
        query(&ds, "CREATE PRIMARY INDEX ON t", &opts).unwrap();
        let bound = ROWS * (u64::from(GROUPS.ilog2()) + 1 + 2);
        for statement in ["SELECT g, COUNT(*) AS n FROM t GROUP BY g", "SELECT DISTINCT g FROM t"] {
            let before = COMPARISONS.with(Cell::get);
            let rows = query(&ds, statement, &opts).unwrap().rows;
            let compared = COMPARISONS.with(Cell::get) - before;
            assert_eq!(rows.len() as u64, GROUPS, "{statement}");
            assert!(compared <= bound, "{compared} key comparisons for {ROWS} rows: {statement}");
        }
    }

    /// Values the same under collation fall in one group, however they
    /// are spelled: what the hash of a `Collated` key must keep.
    #[test]
    fn values_the_same_under_collation_group_together() {
        let ds = MemoryDatastore::new();
        ds.create_keyspace("t");
        let docs = [
            r#"{"g": 1}"#,
            r#"{"g": 1.0}"#,
            r#"{"g": 0}"#,
            r#"{"g": -0.0}"#,
            r#"{"g": {"a": 1, "b": [2]}}"#,
            r#"{"g": {"b": [2.0], "a": 1}}"#,
            r#"{"g": "1"}"#,
            r#"{"g": null}"#,
            "{}",
        ];
        ds.load("t", docs.iter().enumerate().map(|(i, d)| (format!("k{i}"), parse(d).unwrap())));
        let opts = QueryOptions::default();
        query(&ds, "CREATE PRIMARY INDEX ON t", &opts).unwrap();
        let run = |statement: &str| query(&ds, statement, &opts).unwrap().rows;
        let mut sizes: Vec<i64> = run("SELECT COUNT(*) AS n FROM t GROUP BY g")
            .iter()
            .map(|row| row.get_field("n").and_then(Value::as_i64).unwrap())
            .collect();
        sizes.sort_unstable();
        assert_eq!(sizes, [1, 1, 1, 2, 2, 2]);
        assert_eq!(run("SELECT DISTINCT g FROM t").len(), 6);
        let distinct = run("SELECT COUNT(DISTINCT g) AS n FROM t");
        assert_eq!(
            distinct[0].get_field("n"),
            Some(&Value::int(4)),
            "null and MISSING not counted"
        );
    }

    /// 2⁵³ + 1 sorts after 2⁵³ and 2⁵³.0, which are the same value, from
    /// every arrangement of the three: the order is transitive above 2⁵³.
    #[test]
    fn order_by_is_the_same_for_every_arrangement_above_2_53() {
        let values = ["9007199254740993", "9007199254740992.0", "9007199254740992"];
        let opts = QueryOptions::default();
        for arrangement in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let ds = MemoryDatastore::new();
            ds.create_keyspace("t");
            let doc = |i: usize| parse(&format!(r#"{{"g": {}}}"#, values[arrangement[i]])).unwrap();
            ds.load("t", (0..3).map(|i| (format!("k{i}"), doc(i))));
            query(&ds, "CREATE PRIMARY INDEX ON t", &opts).unwrap();
            let rows = query(&ds, "SELECT g FROM t ORDER BY g", &opts).unwrap().rows;
            let sorted: Vec<&Value> = rows.iter().map(|r| r.get_field("g").unwrap()).collect();
            let two_53 = Value::int(1 << 53);
            assert!(sorted[..2].iter().all(|g| **g == two_53), "{arrangement:?}: {sorted:?}");
            assert_eq!(sorted[2], &Value::int((1 << 53) + 1), "{arrangement:?}");
        }
    }

    /// 9007199254740993 and 9007199254740992.0 round to the same double,
    /// yet are different values: two groups.
    #[test]
    fn group_by_keeps_2_53_plus_1_apart_from_2_53() {
        let ds = MemoryDatastore::new();
        ds.create_keyspace("t");
        let docs = [r#"{"g": 9007199254740993}"#, r#"{"g": 9007199254740992.0}"#];
        ds.load("t", docs.iter().enumerate().map(|(i, d)| (format!("k{i}"), parse(d).unwrap())));
        let opts = QueryOptions::default();
        query(&ds, "CREATE PRIMARY INDEX ON t", &opts).unwrap();
        let rows = query(&ds, "SELECT g, COUNT(*) AS n FROM t GROUP BY g", &opts).unwrap().rows;
        assert_eq!(rows.len(), 2, "{rows:?}");
    }
}
