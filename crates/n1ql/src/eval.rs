//! N1QL expression evaluation.
//!
//! Values are `Option<cbs_json::Value>` where `None` is MISSING — N1QL
//! distinguishes a missing field from an explicit `null`. Logic follows
//! N1QL's four-valued convention in simplified form: comparisons with
//! MISSING are MISSING, comparisons with NULL are NULL, and only `true`
//! satisfies a WHERE/HAVING clause.

use std::cmp::Ordering;
use std::collections::HashMap;

use cbs_common::{Error, Result};
use cbs_json::{cmp_values, JsonPath, PathStep, Value};

use crate::ast::{BinOp, Expr, IsCheck, UnaryOp};

/// What evaluating an expression gives: `Ok(None)` is MISSING.
type Eval = Result<Option<Value>>;

/// Evaluation context: one pipeline row plus query parameters.
pub struct EvalCtx<'a> {
    /// The row object: alias → bound value (keyspace documents, unnest
    /// variables, nest arrays...).
    pub row: &'a Value,
    /// Document IDs per keyspace alias (for `META(alias).id`).
    pub metas: &'a HashMap<String, String>,
    /// The sole FROM alias, letting bare `field` resolve through it.
    pub default_alias: Option<&'a str>,
    /// Positional query parameters (`$1` is `pos_params[0]`).
    pub pos_params: &'a [Value],
    /// Named query parameters.
    pub named_params: &'a HashMap<String, Value>,
    /// The plan's aggregate calls and one group's values for them, in the
    /// same order (set once the Group operator has run; `None` outside
    /// aggregation).
    pub aggs: Option<(&'a [Expr], &'a [Value])>,
}

/// Is this an aggregate function call?
pub fn is_aggregate(e: &Expr) -> bool {
    match e {
        Expr::CountStar => true,
        Expr::Func { name, .. } => {
            matches!(name.as_str(), "COUNT" | "SUM" | "AVG" | "MIN" | "MAX" | "ARRAY_AGG")
        }
        _ => false,
    }
}

/// Collect every aggregate sub-expression of `e` into `out`.
pub fn collect_aggregates(e: &Expr, out: &mut Vec<Expr>) {
    if is_aggregate(e) {
        if !out.contains(e) {
            out.push(e.clone());
        }
        return; // aggregates never nest in N1QL
    }
    for operand in e.operands() {
        collect_aggregates(operand, out);
    }
}

/// Evaluate an expression; `Ok(None)` is MISSING.
///
/// Nested expressions recurse through here once per level, so every arm
/// is one call: the work of an operator happens in a function of its own,
/// and only the functions that evaluate operands (`eval_binary`,
/// `eval_operands`, ...) stay on the recursion path, with small frames.
pub fn eval(e: &Expr, ctx: &EvalCtx<'_>) -> Eval {
    match e {
        Expr::Literal(v) => Ok(Some(v.clone())),
        Expr::Path(path) => Ok(resolve_path(path, ctx)),
        Expr::MetaId(alias) => Ok(meta_id(alias.as_deref(), ctx)),
        Expr::PosParam(n) => pos_param(*n, ctx),
        Expr::NamedParam(n) => (ctx.named_params.get(n).cloned().map(Some))
            .ok_or_else(|| Error::Eval(format!("missing named parameter ${n}"))),
        Expr::Unary(op, inner) => eval(inner, ctx).map(|v| unary(*op, v)),
        Expr::Binary(op, a, b) => eval_binary(*op, a, b, ctx),
        Expr::IsCheck(check, inner) => eval(inner, ctx).map(|v| is_check(*check, v)),
        Expr::Between { expr, low, high, negated } => {
            eval_operands([expr, low, high], ctx).map(|[v, lo, hi]| between(v, lo, hi, *negated))
        }
        Expr::In { expr, list, negated } => {
            eval_operands([expr, list], ctx).map(|[v, l]| in_list(v, l, *negated))
        }
        Expr::Like { expr, pattern, negated } => {
            eval_operands([expr, pattern], ctx).map(|[v, p]| like(v, p, *negated))
        }
        Expr::CountStar | Expr::Func { .. } if is_aggregate(e) => aggregate(e, ctx),
        Expr::Func { name, args, .. } => eval_args(args, ctx).and_then(|v| eval_scalar_fn(name, v)),
        Expr::CountStar => unreachable!("handled by aggregate arm"),
        Expr::ArrayLit(items) => eval_args(items, ctx).map(array_of),
        Expr::ObjectLit(pairs) => eval_object(pairs, ctx),
        Expr::Case { arms, else_ } => eval_case(arms, else_.as_deref(), ctx),
        Expr::AnyEvery { any, var, source, cond } => eval_any_every(*any, var, source, cond, ctx),
        Expr::ArrayComp { expr, var, source, when } => {
            eval_array_comp(expr, var, source, when.as_deref(), ctx)
        }
    }
}

fn meta_id(alias: Option<&str>, ctx: &EvalCtx<'_>) -> Option<Value> {
    let key = match alias.or(ctx.default_alias) {
        Some(a) => ctx.metas.get(a),
        // Single meta: unambiguous.
        None if ctx.metas.len() == 1 => ctx.metas.values().next(),
        None => None,
    };
    key.map(|k| Value::from(k.as_str()))
}

fn pos_param(n: usize, ctx: &EvalCtx<'_>) -> Eval {
    let i = n.checked_sub(1).ok_or_else(|| Error::Eval("$0 is invalid".to_string()))?;
    let missing = || Error::Eval(format!("missing positional parameter ${n}"));
    ctx.pos_params.get(i).cloned().map(Some).ok_or_else(missing)
}

fn unary(op: UnaryOp, v: Option<Value>) -> Option<Value> {
    match op {
        UnaryOp::Neg => match v {
            Some(Value::Number(n)) => Some(norm_num(Value::float(-n.as_f64()))),
            Some(_) => Some(Value::Null),
            None => None,
        },
        UnaryOp::Not => match truth(&v) {
            Truth::True => Some(Value::Bool(false)),
            Truth::False => Some(Value::Bool(true)),
            Truth::Null => Some(Value::Null),
            Truth::Missing => None,
        },
    }
}

fn is_check(check: IsCheck, v: Option<Value>) -> Option<Value> {
    Some(Value::Bool(match check {
        IsCheck::Null => matches!(v, Some(Value::Null)),
        IsCheck::NotNull => !matches!(v, Some(Value::Null)) && v.is_some(),
        IsCheck::Missing => v.is_none(),
        IsCheck::NotMissing => v.is_some(),
        IsCheck::Valued => v.is_some() && !matches!(v, Some(Value::Null)),
    }))
}

/// The operands of a BETWEEN, IN or LIKE, evaluated in order.
fn eval_operands<const N: usize>(
    exprs: [&Expr; N],
    ctx: &EvalCtx<'_>,
) -> Result<[Option<Value>; N]> {
    let mut vals = [const { None }; N];
    for (slot, e) in vals.iter_mut().zip(exprs) {
        *slot = eval(e, ctx)?;
    }
    Ok(vals)
}

fn between(v: Option<Value>, lo: Option<Value>, hi: Option<Value>, negated: bool) -> Option<Value> {
    let (Some(v), Some(lo), Some(hi)) = (v, lo, hi) else { return None };
    if v.is_null() || lo.is_null() || hi.is_null() {
        return Some(Value::Null);
    }
    let inside = cmp_values(&v, &lo) != Ordering::Less && cmp_values(&v, &hi) != Ordering::Greater;
    Some(Value::Bool(inside != negated))
}

fn in_list(v: Option<Value>, list: Option<Value>, negated: bool) -> Option<Value> {
    match (v, list) {
        (Some(v), Some(Value::Array(items))) => {
            let found = items.iter().any(|i| cmp_values(i, &v) == Ordering::Equal);
            Some(Value::Bool(found != negated))
        }
        (Some(_), Some(_)) => Some(Value::Null),
        _ => None,
    }
}

fn like(v: Option<Value>, pattern: Option<Value>, negated: bool) -> Option<Value> {
    match (v, pattern) {
        (Some(Value::String(s)), Some(Value::String(pat))) => {
            Some(Value::Bool(like_match(&s, &pat) != negated))
        }
        (Some(_), Some(_)) => Some(Value::Null),
        _ => None,
    }
}

fn aggregate(e: &Expr, ctx: &EvalCtx<'_>) -> Eval {
    let (calls, values) = ctx
        .aggs
        .ok_or_else(|| Error::Eval("aggregate function outside GROUP BY context".to_string()))?;
    let found = calls.iter().zip(values).find(|(call, _)| *call == e);
    found.map(|(_, v)| Some(v.clone())).ok_or_else(|| {
        Error::Eval("aggregate expression not computed by Group operator".to_string())
    })
}

fn array_of(items: Vec<Option<Value>>) -> Option<Value> {
    Some(Value::Array(items.into_iter().map(|v| v.unwrap_or(Value::Null)).collect()))
}

fn eval_object(pairs: &[(String, Expr)], ctx: &EvalCtx<'_>) -> Eval {
    let mut obj = Value::empty_object();
    for (k, v) in pairs {
        if let Some(val) = eval(v, ctx)? {
            obj.insert_field(k, val);
        }
    }
    Ok(Some(obj))
}

fn eval_case(arms: &[(Expr, Expr)], else_: Option<&Expr>, ctx: &EvalCtx<'_>) -> Eval {
    for (cond, val) in arms {
        if truth(&eval(cond, ctx)?) == Truth::True {
            return eval(val, ctx);
        }
    }
    match else_ {
        Some(e) => eval(e, ctx),
        None => Ok(Some(Value::Null)),
    }
}

fn eval_any_every(any: bool, var: &str, source: &Expr, cond: &Expr, ctx: &EvalCtx<'_>) -> Eval {
    let Some(Value::Array(items)) = eval(source, ctx)? else {
        return Ok(Some(Value::Bool(!any)));
    };
    // ANY is true at the first item that satisfies, EVERY false at the
    // first that does not.
    for item in items {
        let row = bind(ctx.row, var, item);
        if (truth(&eval(cond, &EvalCtx { row: &row, ..*ctx })?) == Truth::True) == any {
            return Ok(Some(Value::Bool(any)));
        }
    }
    Ok(Some(Value::Bool(!any)))
}

fn eval_array_comp(
    expr: &Expr,
    var: &str,
    source: &Expr,
    when: Option<&Expr>,
    ctx: &EvalCtx<'_>,
) -> Eval {
    let Some(Value::Array(items)) = eval(source, ctx)? else {
        return Ok(Some(Value::Array(vec![])));
    };
    let mut out = Vec::new();
    for item in items {
        let row = bind(ctx.row, var, item);
        let sub = EvalCtx { row: &row, ..*ctx };
        if let Some(w) = when {
            if truth(&eval(w, &sub)?) != Truth::True {
                continue;
            }
        }
        out.push(eval(expr, &sub)?.unwrap_or(Value::Null));
    }
    Ok(Some(Value::Array(out)))
}

/// `row` with `var` bound to `item` (an ANY/EVERY or ARRAY … FOR variable).
fn bind(row: &Value, var: &str, item: Value) -> Value {
    let mut row = row.clone();
    row.insert_field(var, item);
    row
}

fn resolve_path(path: &JsonPath, ctx: &EvalCtx<'_>) -> Option<Value> {
    let (PathStep::Field(first), rest) = path.steps.split_first()? else { return None };
    // Try the row's own bindings (aliases, unnest vars) first, else fall
    // back to fields of the default keyspace's document.
    let (mut cur, rest) = match ctx.row.get_field(first) {
        Some(v) => (v, rest),
        None => (ctx.row.get_field(ctx.default_alias?)?, path.steps.as_slice()),
    };
    for step in rest {
        cur = match step {
            PathStep::Field(f) => cur.get_field(f)?,
            PathStep::Index(i) => cur.get_index(*i)?,
        };
    }
    Some(cur.clone())
}

/// Three(ish)-valued truth of an evaluated expression.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Truth {
    /// Boolean true.
    True,
    /// Boolean false (or any non-boolean value — strict N1QL WHERE).
    False,
    /// NULL.
    Null,
    /// MISSING.
    Missing,
}

/// Truthiness of an evaluation result.
pub fn truth(v: &Option<Value>) -> Truth {
    match v {
        None => Truth::Missing,
        Some(Value::Null) => Truth::Null,
        Some(Value::Bool(true)) => Truth::True,
        _ => Truth::False,
    }
}

fn eval_binary(op: BinOp, a: &Expr, b: &Expr, ctx: &EvalCtx<'_>) -> Eval {
    // Logical operators use Kleene truth tables.
    if matches!(op, BinOp::And | BinOp::Or) {
        let ta = truth(&eval(a, ctx)?);
        return Ok(logical(op, ta, truth(&eval(b, ctx)?)));
    }
    eval_operands([a, b], ctx).map(|[va, vb]| binary(op, va, vb))
}

fn logical(op: BinOp, ta: Truth, tb: Truth) -> Option<Value> {
    match (op, ta, tb) {
        (BinOp::And, Truth::False, _) | (BinOp::And, _, Truth::False) => Some(Value::Bool(false)),
        (BinOp::And, Truth::True, Truth::True) => Some(Value::Bool(true)),
        (BinOp::Or, Truth::True, _) | (BinOp::Or, _, Truth::True) => Some(Value::Bool(true)),
        (BinOp::Or, Truth::False, Truth::False) => Some(Value::Bool(false)),
        (_, Truth::Missing, _) | (_, _, Truth::Missing) => None,
        _ => Some(Value::Null),
    }
}

/// A comparison, concatenation or arithmetic operator applied to its
/// evaluated operands.
fn binary(op: BinOp, va: Option<Value>, vb: Option<Value>) -> Option<Value> {
    let (Some(va), Some(vb)) = (va, vb) else { return None };
    // Comparisons.
    if matches!(op, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge) {
        if va.is_null() || vb.is_null() {
            return Some(Value::Null);
        }
        let ord = cmp_values(&va, &vb);
        let result = match op {
            BinOp::Eq => ord == Ordering::Equal,
            BinOp::Ne => ord != Ordering::Equal,
            BinOp::Lt => ord == Ordering::Less,
            BinOp::Le => ord != Ordering::Greater,
            BinOp::Gt => ord == Ordering::Greater,
            BinOp::Ge => ord != Ordering::Less,
            _ => unreachable!(),
        };
        return Some(Value::Bool(result));
    }
    if op == BinOp::Concat {
        return Some(match (va.as_str(), vb.as_str()) {
            (Some(x), Some(y)) => Value::from(format!("{x}{y}")),
            _ => Value::Null,
        });
    }
    // Arithmetic.
    let (Some(x), Some(y)) = (va.as_f64(), vb.as_f64()) else {
        return Some(Value::Null);
    };
    let result = match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div | BinOp::Mod if y == 0.0 => return Some(Value::Null),
        BinOp::Div => x / y,
        BinOp::Mod => x % y,
        _ => unreachable!(),
    };
    Some(norm_num(Value::float(result)))
}

/// Collapse integral floats back to ints so arithmetic on ints stays int.
fn norm_num(v: Value) -> Value {
    match v {
        Value::Number(n) => {
            let f = n.as_f64();
            if f.fract() == 0.0 && f.abs() < 9e15 {
                Value::int(f as i64)
            } else {
                Value::Number(n)
            }
        }
        other => other,
    }
}

/// SQL LIKE with `%` and `_`, escape-free (N1QL default).
pub fn like_match(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    // Iterative two-pointer with backtracking on the last '%'.
    let (mut si, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_s) = (usize::MAX, 0usize);
    while si < s.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star_p = pi;
            star_s = si;
            pi += 1;
        } else if star_p != usize::MAX {
            star_s += 1;
            si = star_s;
            pi = star_p + 1;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

/// A function's arguments, evaluated. Kept apart from the function bodies
/// so that nested calls recurse through small frames.
fn eval_args(args: &[Expr], ctx: &EvalCtx<'_>) -> Result<Vec<Option<Value>>> {
    let mut vals = Vec::with_capacity(args.len());
    for a in args {
        vals.push(eval(a, ctx)?);
    }
    Ok(vals)
}

fn eval_scalar_fn(name: &str, vals: Vec<Option<Value>>) -> Eval {
    let arity_err =
        || Error::Eval(format!("wrong number of arguments to {name} ({} given)", vals.len()));
    match name {
        "MISSING" => Ok(None),
        "LOWER" | "UPPER" => {
            let v = vals.first().ok_or_else(arity_err)?;
            Ok(match v {
                Some(Value::String(s)) => Some(Value::from(if name == "LOWER" {
                    s.to_lowercase()
                } else {
                    s.to_uppercase()
                })),
                Some(_) => Some(Value::Null),
                None => None,
            })
        }
        "LENGTH" => {
            let v = vals.first().ok_or_else(arity_err)?;
            Ok(match v {
                Some(Value::String(s)) => Some(Value::from(s.chars().count())),
                Some(_) => Some(Value::Null),
                None => None,
            })
        }
        "SUBSTR" => {
            if vals.len() < 2 || vals.len() > 3 {
                return Err(arity_err());
            }
            let (Some(Value::String(s)), Some(start)) = (&vals[0], &vals[1]) else {
                return Ok(Some(Value::Null));
            };
            let Some(start) = start.as_i64() else { return Ok(Some(Value::Null)) };
            let chars: Vec<char> = s.chars().collect();
            let len = chars.len() as i64;
            let begin = if start < 0 { (len + start).max(0) } else { start.min(len) };
            let take = match vals.get(2) {
                Some(Some(n)) => n.as_i64().unwrap_or(0).max(0),
                _ => len - begin,
            };
            let out: String = chars.iter().skip(begin as usize).take(take as usize).collect();
            Ok(Some(Value::from(out)))
        }
        "CONTAINS" => {
            if vals.len() != 2 {
                return Err(arity_err());
            }
            match (&vals[0], &vals[1]) {
                (Some(Value::String(s)), Some(Value::String(sub))) => {
                    Ok(Some(Value::Bool(s.contains(sub.as_str()))))
                }
                _ => Ok(Some(Value::Null)),
            }
        }
        "ARRAY_LENGTH" => {
            let v = vals.first().ok_or_else(arity_err)?;
            Ok(match v {
                Some(Value::Array(a)) => Some(Value::from(a.len())),
                Some(_) => Some(Value::Null),
                None => None,
            })
        }
        "ARRAY_CONTAINS" => {
            if vals.len() != 2 {
                return Err(arity_err());
            }
            match (&vals[0], &vals[1]) {
                (Some(Value::Array(a)), Some(v)) => {
                    Ok(Some(Value::Bool(a.iter().any(|i| cmp_values(i, v) == Ordering::Equal))))
                }
                _ => Ok(Some(Value::Null)),
            }
        }
        "TYPE" => {
            let v = vals.first().ok_or_else(arity_err)?;
            Ok(Some(Value::from(match v {
                None => "missing",
                Some(val) => val.type_name(),
            })))
        }
        "TO_STRING" => {
            let v = vals.first().ok_or_else(arity_err)?;
            Ok(match v {
                Some(Value::String(s)) => Some(Value::from(s.as_str())),
                Some(other) => Some(Value::from(other.to_json_string())),
                None => None,
            })
        }
        "TO_NUMBER" => {
            let v = vals.first().ok_or_else(arity_err)?;
            Ok(match v {
                Some(Value::Number(n)) => Some(Value::Number(*n)),
                Some(Value::String(s)) => match s.trim().parse::<f64>() {
                    Ok(f) => Some(norm_num(Value::float(f))),
                    Err(_) => Some(Value::Null),
                },
                Some(Value::Bool(b)) => Some(Value::int(*b as i64)),
                Some(_) => Some(Value::Null),
                None => None,
            })
        }
        "ABS" | "FLOOR" | "CEIL" | "ROUND" => {
            let v = vals.first().ok_or_else(arity_err)?;
            Ok(match v.as_ref().and_then(|x| x.as_f64()) {
                Some(f) => {
                    let r = match name {
                        "ABS" => f.abs(),
                        "FLOOR" => f.floor(),
                        "CEIL" => f.ceil(),
                        _ => f.round(),
                    };
                    Some(norm_num(Value::float(r)))
                }
                None => Some(Value::Null),
            })
        }
        "GREATEST" | "LEAST" => {
            let mut best: Option<Value> = None;
            for v in vals.iter().flatten() {
                best = Some(match best {
                    None => v.clone(),
                    Some(b) => {
                        let keep_new = if name == "GREATEST" {
                            cmp_values(v, &b) == Ordering::Greater
                        } else {
                            cmp_values(v, &b) == Ordering::Less
                        };
                        if keep_new {
                            v.clone()
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.or(Some(Value::Null)))
        }
        "IFMISSING" => Ok(vals.into_iter().find(|v| v.is_some()).flatten().or(Some(Value::Null))),
        "IFNULL" => Ok(vals
            .into_iter()
            .find(|v| !matches!(v, Some(Value::Null)))
            .flatten()
            .or(Some(Value::Null))),
        "IFMISSINGORNULL" => Ok(vals
            .into_iter()
            .find(|v| matches!(v, Some(x) if !x.is_null()))
            .flatten()
            .or(Some(Value::Null))),
        other => Err(Error::Eval(format!("unknown function: {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expression;

    fn run(expr: &str, doc: &str) -> Eval {
        let row = Value::object([("d", cbs_json::parse(doc).unwrap())]);
        let metas: HashMap<String, String> =
            [("d".to_string(), "doc-1".to_string())].into_iter().collect();
        let named = HashMap::new();
        let ctx = EvalCtx {
            row: &row,
            metas: &metas,
            default_alias: Some("d"),
            pos_params: &[],
            named_params: &named,
            aggs: None,
        };
        let e = parse_expression(expr)?;
        eval(&e, &ctx)
    }

    fn v(expr: &str, doc: &str) -> Value {
        run(expr, doc).unwrap().expect("not missing")
    }

    #[test]
    fn paths_resolve_through_default_alias() {
        let doc = r#"{"a":1,"nested":{"x":[10,20]}}"#;
        assert_eq!(v("a", doc), Value::int(1));
        assert_eq!(v("d.a", doc), Value::int(1));
        assert_eq!(v("nested.x[1]", doc), Value::int(20));
        assert_eq!(v("nested.x[-1]", doc), Value::int(20));
        assert_eq!(run("nope", doc).unwrap(), None, "MISSING");
    }

    #[test]
    fn meta_id() {
        assert_eq!(v("META().id", "{}"), Value::from("doc-1"));
        assert_eq!(v("META(d).id", "{}"), Value::from("doc-1"));
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(v("1 + 2 * 3", "{}"), Value::int(7));
        assert_eq!(v("(1 + 2) * 3", "{}"), Value::int(9));
        assert_eq!(v("7 / 2", "{}"), Value::float(3.5));
        assert_eq!(v("7 % 3", "{}"), Value::int(1));
        assert_eq!(v("-a", r#"{"a":5}"#), Value::int(-5));
        assert_eq!(v("1 / 0", "{}"), Value::Null);
        assert_eq!(v("'x' + 1", "{}"), Value::Null, "non-numeric arithmetic is NULL");
    }

    #[test]
    fn comparisons_and_null_missing_propagation() {
        assert_eq!(v("1 < 2", "{}"), Value::Bool(true));
        assert_eq!(v("'a' < 'b'", "{}"), Value::Bool(true));
        assert_eq!(v("1 = 1.0", "{}"), Value::Bool(true));
        assert_eq!(v("null = 1", "{}"), Value::Null);
        assert_eq!(run("nope = 1", "{}").unwrap(), None);
        // Cross-type comparison: by collation, numbers < strings.
        assert_eq!(v("1 < 'a'", "{}"), Value::Bool(true));
    }

    #[test]
    fn logic_kleene() {
        assert_eq!(v("true AND false", "{}"), Value::Bool(false));
        assert_eq!(v("false AND null", "{}"), Value::Bool(false), "false dominates");
        assert_eq!(v("true OR null", "{}"), Value::Bool(true), "true dominates");
        assert_eq!(v("true AND null", "{}"), Value::Null);
        assert_eq!(run("true AND nope", "{}").unwrap(), None);
        assert_eq!(v("NOT true", "{}"), Value::Bool(false));
        assert_eq!(v("NOT 5", "{}"), Value::Bool(true), "NOT of non-boolean false-y");
    }

    #[test]
    fn is_checks() {
        let doc = r#"{"n":null,"x":1}"#;
        assert_eq!(v("n IS NULL", doc), Value::Bool(true));
        assert_eq!(v("x IS NULL", doc), Value::Bool(false));
        assert_eq!(v("gone IS MISSING", doc), Value::Bool(true));
        assert_eq!(v("n IS MISSING", doc), Value::Bool(false));
        assert_eq!(v("x IS VALUED", doc), Value::Bool(true));
        assert_eq!(v("n IS VALUED", doc), Value::Bool(false));
        assert_eq!(v("gone IS NOT MISSING", doc), Value::Bool(false));
    }

    #[test]
    fn between_in_like() {
        assert_eq!(v("5 BETWEEN 1 AND 10", "{}"), Value::Bool(true));
        assert_eq!(v("5 NOT BETWEEN 6 AND 10", "{}"), Value::Bool(true));
        assert_eq!(v("2 IN [1,2,3]", "{}"), Value::Bool(true));
        assert_eq!(v("9 NOT IN [1,2,3]", "{}"), Value::Bool(true));
        assert_eq!(v("'Dipti' LIKE 'D%'", "{}"), Value::Bool(true));
        assert_eq!(v("'Dipti' LIKE '_ipti'", "{}"), Value::Bool(true));
        assert_eq!(v("'Dipti' NOT LIKE 'x%'", "{}"), Value::Bool(true));
        assert_eq!(v("'abc' LIKE 'a%c'", "{}"), Value::Bool(true));
        assert_eq!(v("'abc' LIKE 'a%d'", "{}"), Value::Bool(false));
    }

    #[test]
    fn like_edge_cases() {
        assert!(like_match("", ""));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "%%c"));
        assert!(like_match("aXbXc", "a%b%c"));
        assert!(!like_match("ab", "a_b"));
    }

    #[test]
    fn scalar_functions() {
        assert_eq!(v("LOWER('AbC')", "{}"), Value::from("abc"));
        assert_eq!(v("UPPER('x')", "{}"), Value::from("X"));
        assert_eq!(v("LENGTH('héllo')", "{}"), Value::int(5));
        assert_eq!(v("SUBSTR('hello', 1, 3)", "{}"), Value::from("ell"));
        assert_eq!(v("SUBSTR('hello', -2)", "{}"), Value::from("lo"));
        assert_eq!(v("CONTAINS('hello', 'ell')", "{}"), Value::Bool(true));
        assert_eq!(v("ARRAY_LENGTH([1,2,3])", "{}"), Value::int(3));
        assert_eq!(v("ARRAY_CONTAINS([1,2], 2)", "{}"), Value::Bool(true));
        assert_eq!(v("TYPE(1)", "{}"), Value::from("number"));
        assert_eq!(v("TYPE(gone)", "{}"), Value::from("missing"));
        assert_eq!(v("TO_NUMBER('42')", "{}"), Value::int(42));
        assert_eq!(v("TO_STRING(1.5)", "{}"), Value::from("1.5"));
        assert_eq!(v("ABS(-3)", "{}"), Value::int(3));
        assert_eq!(v("ROUND(2.6)", "{}"), Value::int(3));
        assert_eq!(v("GREATEST(1, 9, 4)", "{}"), Value::int(9));
        assert_eq!(v("LEAST(1, 9, 4)", "{}"), Value::int(1));
        assert_eq!(v("IFMISSING(gone, 'fallback')", "{}"), Value::from("fallback"));
        assert_eq!(v("IFNULL(null, 7)", "{}"), Value::int(7));
        assert_eq!(v("IFMISSINGORNULL(gone, null, 3)", "{}"), Value::int(3));
        assert!(run("NO_SUCH_FN(1)", "{}").is_err());
    }

    #[test]
    fn constructors_and_case() {
        assert_eq!(v("[1, 'a', null]", "{}").as_array().unwrap().len(), 3);
        let o = v("{\"k\": 1, \"m\": gone}", "{}");
        assert_eq!(o.get_field("k"), Some(&Value::int(1)));
        assert_eq!(o.get_field("m"), None, "missing fields omitted from objects");
        assert_eq!(
            v("CASE WHEN a > 5 THEN 'big' ELSE 'small' END", r#"{"a":9}"#),
            Value::from("big")
        );
        assert_eq!(v("CASE WHEN a > 5 THEN 'big' END", r#"{"a":1}"#), Value::Null);
    }

    #[test]
    fn any_every_and_comprehension() {
        let doc = r#"{"tags":["new","sale"],"nums":[1,2,3]}"#;
        assert_eq!(v("ANY t IN tags SATISFIES t = 'new' END", doc), Value::Bool(true));
        assert_eq!(v("ANY t IN tags SATISFIES t = 'x' END", doc), Value::Bool(false));
        assert_eq!(v("EVERY n IN nums SATISFIES n > 0 END", doc), Value::Bool(true));
        assert_eq!(v("EVERY n IN nums SATISFIES n > 1 END", doc), Value::Bool(false));
        assert_eq!(
            v("ARRAY n * 10 FOR n IN nums WHEN n > 1 END", doc),
            Value::Array(vec![Value::int(20), Value::int(30)])
        );
    }

    #[test]
    fn aggregates_require_group_context() {
        assert!(matches!(run("COUNT(*)", "{}"), Err(Error::Eval(_))));
    }

    #[test]
    fn parameters() {
        let row = Value::object([("d", Value::empty_object())]);
        let metas = HashMap::new();
        let named: HashMap<String, Value> =
            [("lim".to_string(), Value::int(9))].into_iter().collect();
        let pos = vec![Value::from("p1")];
        let ctx = EvalCtx {
            row: &row,
            metas: &metas,
            default_alias: Some("d"),
            pos_params: &pos,
            named_params: &named,
            aggs: None,
        };
        assert_eq!(eval(&parse_expression("$1").unwrap(), &ctx).unwrap(), Some(Value::from("p1")));
        assert_eq!(eval(&parse_expression("$lim").unwrap(), &ctx).unwrap(), Some(Value::int(9)));
        assert!(eval(&parse_expression("$2").unwrap(), &ctx).is_err());
        assert!(eval(&parse_expression("$nope").unwrap(), &ctx).is_err());
    }
}
