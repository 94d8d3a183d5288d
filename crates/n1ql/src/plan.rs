//! Query plan representation (the output of §4.5.3's planner).
//!
//! A [`SelectPlan`] carries its pipeline as a list of [`Operator`]s, built
//! in one constructor together with what else follows from the statement's
//! shape (the aggregate calls, whether LIMIT may move into the index scan,
//! the one-line summary). The executor, EXPLAIN, PROFILE and the request
//! log all read that list; nothing else decides which operators exist.
//! UPDATE and DELETE are the same pipeline over their target rows, ending
//! in a [`Mutation`] instead of the projection.

use cbs_index::IndexDef;
use cbs_json::JsonPath;

use crate::ast::{Expr, FromOp, Select, SelectItem, Statement};
use crate::eval::collect_aggregates;

/// A scan-range *specification*: bound expressions (literals or
/// parameters) captured at plan time and resolved against the request's
/// parameters at execution time ([`RangeSpec::resolve`], in `planner`).
///
/// Keeping bounds symbolic makes a plan parameter-independent: the plan
/// cache can serve every binding of a prepared statement with one entry
/// instead of baking `$start`'s first value into the plan.
#[derive(Debug, Clone, Default)]
pub struct RangeSpec {
    /// Lower-bound candidates as `(expression, inclusive)`; the tightest
    /// resolved value wins.
    pub lows: Vec<(Expr, bool)>,
    /// Upper-bound candidates as `(expression, inclusive)`.
    pub highs: Vec<(Expr, bool)>,
}

impl RangeSpec {
    /// Exactly one leading-key value (equality predicate).
    pub fn exact(e: Expr) -> RangeSpec {
        RangeSpec { lows: vec![(e.clone(), true)], highs: vec![(e, true)] }
    }

    /// Is any lower bound present?
    pub fn has_low(&self) -> bool {
        !self.lows.is_empty()
    }

    /// Is any upper bound present?
    pub fn has_high(&self) -> bool {
        !self.highs.is_empty()
    }

    /// No bounds on either side.
    pub fn is_unbounded(&self) -> bool {
        self.lows.is_empty() && self.highs.is_empty()
    }
}

/// The optimizer's estimate for the chosen access path, shown by EXPLAIN
/// and PROFILE next to the scan operator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlanEstimate {
    /// Unitless cost (index entries read × entry cost + documents fetched
    /// × fetch cost; see DESIGN.md §13 for the formulas).
    pub cost: f64,
    /// Estimated rows out of the scan.
    pub cardinality: f64,
    /// True when counted keyspace statistics informed the estimate; false
    /// means the keyspace was priced as one document with the default
    /// selectivities (or the path was not priced at all).
    pub based_on_stats: bool,
}

/// How the primary keyspace of a SELECT is accessed (§4.5.3 "Keyspace
/// (bucket) scan — There are three types of scans").
#[derive(Debug, Clone)]
pub enum AccessPath {
    /// *Keyscan access*: "when specific document IDs (primary keys) are
    /// available" — `USE KEYS`.
    KeyScan {
        /// Expression yielding a key or array of keys.
        keys: Expr,
    },
    /// *IndexScan access*: "a qualifying secondary index scan is used to
    /// first filter the keyspace and determine the qualifying document
    /// IDs."
    IndexScan {
        /// Chosen index.
        index: IndexDef,
        /// Leading-key range pushed into the index (symbolic bounds,
        /// resolved per request).
        range: RangeSpec,
        /// §5.1.2: a covering index "includes all of the information needed
        /// to satisfy the query and can thus avoid the need for an
        /// additional step to access the indexed data" — no Fetch operator.
        covering: bool,
    },
    /// *PrimaryScan access*: "the equivalent of a full table scan [...]
    /// quite expensive." An unbounded scan of the keyspace's primary index;
    /// Fetch then reads each document it names.
    PrimaryScan {
        /// The primary index scanned.
        index: IndexDef,
    },
    /// A `system:` catalog: rows materialized from service state, whole,
    /// so nothing is fetched. Its operator is `PrimaryScan`.
    SystemScan {
        /// The catalog's entry in [`crate::SYSTEM_CATALOGS`].
        catalog: &'static str,
    },
    /// No FROM clause at all (`SELECT 1+1`).
    ExpressionOnly,
}

/// One operator of a SELECT, UPDATE or DELETE pipeline (§4.5.3, Figure 11).
/// A plan lists its operators once ([`SelectPlan::operators`]); the
/// executor runs that list, EXPLAIN renders it and PROFILE hangs runtime
/// stats on it by position, so none of them can name or run an operator
/// the plan does not have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operator {
    /// `USE KEYS`: the document IDs are given.
    KeyScan,
    /// Range scan over a secondary or primary index.
    IndexScan,
    /// Full scan of the primary index (or of a `system:` catalog).
    PrimaryScan,
    /// No FROM clause: one empty row.
    DummyScan,
    /// Document IDs → documents, through the data service.
    Fetch,
    /// Key-based nested-loop join: one KV fetch per outer-row key (§3.2.4).
    /// The payload of this and the next two is the position in
    /// `select.from.ops`.
    Join(usize),
    /// `NEST`: matching inner documents collected into one array.
    Nest(usize),
    /// `UNNEST`: one row per element of an array-valued path.
    Unnest(usize),
    /// WHERE.
    Filter,
    /// GROUP BY, the aggregates and HAVING.
    Group,
    /// Evaluates the projection list.
    InitialProject,
    /// DISTINCT over the projected rows.
    Distinct,
    /// ORDER BY.
    Sort,
    /// OFFSET.
    Offset,
    /// LIMIT.
    Limit,
    /// Strips each row down to its projection.
    FinalProject,
    /// Writes each row's document back with the SET and UNSET applied.
    SendUpdate,
    /// Deletes each row's document.
    SendDelete,
}

impl Operator {
    /// The operator's name (Couchbase's spelling) — the only place a
    /// pipeline's operator names are written.
    pub fn name(self) -> &'static str {
        match self {
            Operator::KeyScan => "KeyScan",
            Operator::IndexScan => "IndexScan",
            Operator::PrimaryScan => "PrimaryScan",
            Operator::DummyScan => "DummyScan",
            Operator::Fetch => "Fetch",
            Operator::Join(_) => "Join",
            Operator::Nest(_) => "Nest",
            Operator::Unnest(_) => "Unnest",
            Operator::Filter => "Filter",
            Operator::Group => "Group",
            Operator::InitialProject => "InitialProject",
            Operator::Distinct => "Distinct",
            Operator::Sort => "Sort",
            Operator::Offset => "Offset",
            Operator::Limit => "Limit",
            Operator::FinalProject => "FinalProject",
            Operator::SendUpdate => "SendUpdate",
            Operator::SendDelete => "SendDelete",
        }
    }
}

/// What an UPDATE or DELETE does to each of its target rows. Its paths
/// are the statement's, parsed with it, so a bad one fails before any
/// write.
#[derive(Debug, Clone)]
pub enum Mutation {
    /// The SET `path = expr` clauses, applied in order to the document in
    /// place, then the UNSET paths removed.
    Update { set: Vec<(JsonPath, Expr)>, unset: Vec<JsonPath> },
    /// Remove the document.
    Delete,
}

/// A planned SELECT: the statement, the access path chosen for its primary
/// keyspace, and everything that follows from the statement's *shape* —
/// fixed here once so a prepared plan costs a request nothing to interpret.
/// None of it depends on parameter values (DESIGN.md §13). An UPDATE or
/// DELETE plans as the SELECT of its target rows plus its [`Mutation`].
#[derive(Debug, Clone)]
pub struct SelectPlan {
    /// The statement (operators evaluate its clauses); for DML, the
    /// `FROM ks [USE KEYS] [WHERE] [LIMIT]` of its target rows.
    pub select: Select,
    /// Chosen access path for the primary keyspace.
    pub access: AccessPath,
    /// Cost/cardinality estimate for the chosen access path.
    pub estimate: PlanEstimate,
    /// The UPDATE or DELETE that ends the pipeline (`None` for a SELECT).
    pub mutation: Option<Mutation>,
    operators: Vec<Operator>,
    aggregates: Vec<Expr>,
    limit_pushdown: bool,
    summary: String,
}

impl SelectPlan {
    /// The one place a pipeline is written down. `range_serves_where` says
    /// the index range alone enforces the whole WHERE clause; a `mutation`
    /// ends the pipeline in place of the projection.
    pub(crate) fn new(
        select: Select,
        access: AccessPath,
        estimate: PlanEstimate,
        range_serves_where: bool,
        mutation: Option<Mutation>,
    ) -> SelectPlan {
        // Wherever an aggregate call sits, the Group operator computes it.
        let mut aggregates = Vec::new();
        for item in &select.items {
            if let SelectItem::Expr { expr, .. } = item {
                collect_aggregates(expr, &mut aggregates);
            }
        }
        if let Some(h) = &select.having {
            collect_aggregates(h, &mut aggregates);
        }
        for o in &select.order_by {
            collect_aggregates(&o.expr, &mut aggregates);
        }

        let (scan, fetch) = match &access {
            AccessPath::KeyScan { .. } => (Operator::KeyScan, true),
            AccessPath::IndexScan { covering, .. } => (Operator::IndexScan, !covering),
            AccessPath::PrimaryScan { .. } => (Operator::PrimaryScan, true),
            AccessPath::SystemScan { .. } => (Operator::PrimaryScan, false),
            AccessPath::ExpressionOnly => (Operator::DummyScan, false),
        };
        let mut operators = vec![scan];
        if fetch {
            operators.push(Operator::Fetch);
        }
        let from_ops = select.from.iter().flat_map(|f| &f.ops);
        operators.extend(from_ops.enumerate().map(|(i, op)| match op {
            FromOp::Join { .. } => Operator::Join(i),
            FromOp::Nest { .. } => Operator::Nest(i),
            FromOp::Unnest { .. } => Operator::Unnest(i),
        }));
        let project = mutation.is_none();
        let clauses = [
            (select.where_.is_some(), Operator::Filter),
            (!select.group_by.is_empty() || !aggregates.is_empty(), Operator::Group),
            (project, Operator::InitialProject),
            (select.distinct, Operator::Distinct),
            (!select.order_by.is_empty(), Operator::Sort),
            (select.offset.is_some(), Operator::Offset),
            (select.limit.is_some(), Operator::Limit),
            (project, Operator::FinalProject),
            (matches!(mutation, Some(Mutation::Update { .. })), Operator::SendUpdate),
            (matches!(mutation, Some(Mutation::Delete)), Operator::SendDelete),
        ];
        operators.extend(clauses.iter().filter(|(present, _)| *present).map(|(_, op)| *op));

        // LIMIT may move into the index scan only if every operator between
        // the two hands on exactly the rows it was given: anything that can
        // drop (an inner join, a residual filter, OFFSET), merge (Group,
        // Distinct), multiply (Join, Unnest) or reorder (Sort) rows must
        // see the whole range first.
        let limit_pushdown = scan == Operator::IndexScan
            && operators.iter().position(|op| *op == Operator::Limit).is_some_and(|limit| {
                operators[1..limit].iter().all(|op| match op {
                    Operator::Fetch | Operator::InitialProject => true,
                    Operator::Filter => range_serves_where,
                    _ => false,
                })
            });

        let summary = operators
            .iter()
            .map(|op| match (&access, op) {
                (AccessPath::IndexScan { index, .. }, Operator::IndexScan) => {
                    format!("{}({})", op.name(), index.name)
                }
                _ => op.name().to_string(),
            })
            .collect::<Vec<_>>()
            .join(" -> ");

        SelectPlan {
            select,
            access,
            estimate,
            mutation,
            operators,
            aggregates,
            limit_pushdown,
            summary,
        }
    }

    /// The pipeline, in execution order.
    pub fn operators(&self) -> &[Operator] {
        &self.operators
    }

    /// Whether documents are fetched from the data service (false for a
    /// covering index scan, §5.1.2).
    pub fn fetch(&self) -> bool {
        self.operators.contains(&Operator::Fetch)
    }

    /// The distinct aggregate calls of the projection, HAVING and ORDER BY.
    pub(crate) fn aggregates(&self) -> &[Expr] {
        &self.aggregates
    }

    /// Whether the index scan may stop after LIMIT entries.
    pub fn limit_pushdown(&self) -> bool {
        self.limit_pushdown
    }
}

/// A fully planned statement.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // plans are built once per query, never stored in bulk
pub enum QueryPlan {
    /// An operator pipeline: a SELECT, or an UPDATE or DELETE.
    Select(SelectPlan),
    /// INSERT, UPSERT and DDL execute directly from their AST.
    Direct(Statement),
}

impl QueryPlan {
    /// One-line summary for the request log:
    /// `IndexScan(age) -> Fetch -> Filter -> InitialProject -> FinalProject`.
    pub fn summary(&self) -> &str {
        match self {
            QueryPlan::Select(p) => &p.summary,
            QueryPlan::Direct(stmt) => crate::explain::direct_name(stmt),
        }
    }

    /// Keyspaces whose DDL/data changes invalidate this plan — the plan
    /// cache records these with their epochs at insert time.
    pub fn dependencies(&self) -> Vec<String> {
        let mut deps = Vec::new();
        if let QueryPlan::Select(p) = self {
            if let Some(from) = &p.select.from {
                deps.push(from.keyspace.clone());
                for op in &from.ops {
                    match op {
                        FromOp::Join { keyspace, .. } | FromOp::Nest { keyspace, .. } => {
                            if !deps.contains(keyspace) {
                                deps.push(keyspace.clone());
                            }
                        }
                        FromOp::Unnest { .. } => {}
                    }
                }
            }
        }
        deps
    }
}
