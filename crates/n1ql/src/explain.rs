//! EXPLAIN rendering (§4.5.3: "an EXPLAIN statement can be used before any
//! N1QL statement to request information about the execution plan").
//!
//! EXPLAIN shows the plan's own operator list — the one the executor runs
//! — and PROFILE is that rendering with the executor's stats attached; no
//! clause of the statement is consulted to decide what ran.

use cbs_json::Value;

use crate::ast::{Expr, FromOp, Statement, UnaryOp};
use crate::plan::{AccessPath, Operator, QueryPlan, RangeSpec, SelectPlan};

/// Render a symbolic scan-range bound for EXPLAIN: literals print their
/// value, parameters print their placeholder (`"$1"`, `"$name"`).
fn bound_to_value(e: &Expr) -> Value {
    match e {
        Expr::Literal(v) => v.clone(),
        Expr::PosParam(n) => Value::from(format!("${n}")),
        Expr::NamedParam(n) => Value::from(format!("${n}")),
        Expr::Unary(UnaryOp::Neg, inner) => match bound_to_value(inner) {
            Value::String(s) => Value::from(format!("-{s}")),
            v => v.as_f64().map(|f| Value::float(-f)).unwrap_or(Value::Null),
        },
        _ => Value::Null,
    }
}

fn range_to_value(spec: &RangeSpec) -> Value {
    let low = spec.lows.first();
    let high = spec.highs.first();
    Value::object([
        ("low", low.map(|(e, _)| bound_to_value(e)).unwrap_or(Value::Null)),
        ("low_inclusive", Value::Bool(low.is_none_or(|(_, i)| *i))),
        ("high", high.map(|(e, _)| bound_to_value(e)).unwrap_or(Value::Null)),
        ("high_inclusive", Value::Bool(high.is_none_or(|(_, i)| *i))),
    ])
}

/// Render a plan as the JSON object EXPLAIN returns: the plan's operator
/// list in pipeline order, mirroring Figure 11. The scan operator carries
/// the optimizer's `cost`/`cardinality` estimate and whether statistics
/// backed it (`statsUsed`).
pub fn explain_to_value(plan: &QueryPlan) -> Value {
    let ops = match plan {
        QueryPlan::Select(p) => p.operators().iter().map(|op| operator_to_value(p, *op)).collect(),
        QueryPlan::Direct(stmt) => {
            vec![Value::object([("operator", Value::from(direct_name(stmt)))])]
        }
    };
    Value::object([("plan", Value::object([("operators", Value::Array(ops))]))])
}

/// One node of the EXPLAIN tree: the operator's name plus what the plan
/// knows about it.
fn operator_to_value(p: &SelectPlan, op: Operator) -> Value {
    let mut node = Value::object([("operator", Value::from(op.name()))]);
    match op {
        Operator::IndexScan | Operator::PrimaryScan => {
            if let AccessPath::IndexScan { index, range, covering } = &p.access {
                node.insert_field("index", Value::from(index.name.as_str()));
                node.insert_field("using", Value::from("gsi"));
                node.insert_field("covering", Value::Bool(*covering));
                node.insert_field("range", range_to_value(range));
            }
            node.insert_field("cost", Value::float(p.estimate.cost));
            node.insert_field("cardinality", Value::float(p.estimate.cardinality));
            node.insert_field("statsUsed", Value::Bool(p.estimate.based_on_stats));
        }
        Operator::Join(i) | Operator::Nest(i) => {
            let from_op = p.select.from.as_ref().and_then(|f| f.ops.get(i));
            if let Some(FromOp::Join { keyspace, .. } | FromOp::Nest { keyspace, .. }) = from_op {
                node.insert_field("keyspace", Value::from(keyspace.as_str()));
            }
        }
        _ => {}
    }
    node
}

pub(crate) fn direct_name(stmt: &Statement) -> &'static str {
    match stmt {
        Statement::Insert { .. } => "SendInsert",
        Statement::Upsert { .. } => "SendUpsert",
        Statement::CreateIndex { .. } => "CreateIndex",
        Statement::CreatePrimaryIndex { .. } => "CreatePrimaryIndex",
        Statement::DropIndex { .. } => "DropIndex",
        Statement::BuildIndex { .. } => "BuildIndexes",
        // Never planned as a direct statement.
        Statement::Select(_)
        | Statement::Prepare { .. }
        | Statement::Execute { .. }
        | Statement::Update { .. }
        | Statement::Delete { .. }
        | Statement::Explain(_)
        | Statement::Profile(_) => "Sequence",
    }
}

/// Render the PROFILE result row: the EXPLAIN tree with each operator
/// annotated by its runtime `#stats`, plus `phaseTimes` rollups and
/// request-level metrics.
///
/// The executor records one stat per operator it runs, in the order of the
/// list EXPLAIN renders, so stats meet operators by position. An operator
/// a failed run never reached keeps its plan-only shape.
pub fn profile_to_value(
    plan: &QueryPlan,
    prof: &crate::profile::Prof,
    phases: &crate::profile::PhaseTimes,
    metrics: &crate::exec::QueryMetrics,
) -> Value {
    let mut tree = explain_to_value(plan);
    if let Some(ops) = tree
        .get_field_mut("plan")
        .and_then(|p| p.get_field_mut("operators"))
        .and_then(|o| o.as_array_mut())
    {
        for (op, stat) in ops.iter_mut().zip(prof.ops()) {
            op.insert_field("#stats", stat.to_value());
        }
    }
    tree.insert_field("phaseTimes", phases.to_value());
    tree.insert_field("elapsedTime", Value::from(format!("{:?}", metrics.elapsed)));
    tree.insert_field("resultCount", Value::from(metrics.result_count));
    tree.insert_field("fetches", Value::from(metrics.fetches));
    tree.insert_field("indexEntries", Value::from(metrics.index_entries));
    tree
}
