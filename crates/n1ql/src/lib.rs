//! N1QL — the Non-first Normal Form Query Language (paper §3.2, §4.5).
//!
//! "N1QL is the first NoSQL query language to leverage the flexibility of
//! JSON with nearly the full expressive power of SQL and an SQL-friendly
//! syntax."
//!
//! This crate is the Query Service: lexer → parser → planner → pipelined
//! executor, with EXPLAIN support, exactly the shape of §4.5:
//!
//! - **SELECT** with `USE KEYS`, `NEST`/`UNNEST`, key-based `JOIN ... ON
//!   KEYS` (general theta-joins are linguistically rejected, §3.2.4),
//!   `WHERE`, `GROUP BY`/`HAVING` with aggregates, `DISTINCT`,
//!   `ORDER BY`, `LIMIT`/`OFFSET`;
//! - **DML**: `INSERT`, `UPSERT`, `UPDATE`, `DELETE` (§3.2.2); UPDATE and
//!   DELETE run the SELECT pipeline of their target rows, ending in
//!   `SendUpdate` / `SendDelete`;
//! - **DDL**: `CREATE [PRIMARY] INDEX ... USING GSI/VIEW`, partial-index
//!   `WHERE`, `WITH {"defer_build": true}`, `DROP INDEX`, `BUILD INDEX`;
//! - the **planner** (§4.5.3) picks per-keyspace access paths — `KeyScan`
//!   (USE KEYS), `IndexScan` (a qualifying, sargable online GSI; covering
//!   detection per §5.1.2), or `PrimaryScan` (a full scan of the primary
//!   index, "quite expensive") — costing candidates against keyspace
//!   statistics when available ([`KeyspaceStats`]) and building the operator
//!   pipeline of Figure 11: Scan → Fetch → Join/Nest/Unnest → Filter →
//!   Group/Aggregate → Project → Distinct → Sort → Offset/Limit;
//! - **PREPARE / EXECUTE**: a prepared statement holds its own plan
//!   ([`cache`]), so `EXECUTE <name>` skips the lexer, parser and planner
//!   entirely, and DDL bumps keyspace epochs so stale plans re-plan
//!   instead of scanning dead indexes; an ad-hoc statement is planned on
//!   every request;
//! - **scan consistency** per request: `not_bounded` or `request_plus`
//!   (§3.2.3), the latter snapshotting the data service's seqno vector at
//!   admission and waiting for the index to catch up.
//!
//! The executor reaches storage through the [`Datastore`] trait; the
//! cluster facade (`cbs-core`) implements it over the data/index services,
//! and [`datastore::MemoryDatastore`] provides a self-contained
//! implementation for tests.

#![deny(unsafe_code)]

pub mod ast;
pub mod cache;
pub mod datastore;
pub mod eval;
pub mod exec;
pub mod explain;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod planner;
pub mod profile;

pub use ast::Statement;
pub use cache::{PlanCache, PreparedEntry};
pub use datastore::{Datastore, KeyspaceStats, MemoryDatastore, SYSTEM_CATALOGS};
pub use exec::{execute, execute_with_profile, QueryOptions, QueryResult};
pub use lexer::tokenize;
pub use parser::parse_statement;
pub use plan::{AccessPath, Operator, PlanEstimate, QueryPlan, RangeSpec};
pub use planner::build_plan;
pub use profile::{OpStat, PhaseTimes, Prof, RequestLog};

use std::sync::Arc;
use std::time::Instant;

use cbs_common::{Error, Result};
use cbs_json::Value;
use profile::PhaseTimes as Phases;

/// Parse, plan and execute one N1QL statement against a datastore.
///
/// This is the whole Query Service pipeline of Figure 10: analyze the
/// query, "use metadata on its referenced objects to choose the best
/// execution plan, and execute the chosen plan." Around that pipeline the
/// request is admitted into the datastore's [`RequestLog`] (feeding
/// `system:active_requests` / `system:completed_requests`) and runs under
/// one root span, `n1ql.query.request`, on the datastore's trace sink; the
/// spans recorded under it — the same ones a kept trace shows — are rolled
/// up into [`PhaseTimes`] on the result, sampled or not. A `PROFILE` prefix
/// additionally returns the EXPLAIN-shaped plan annotated with
/// per-operator runtime stats.
///
/// `PREPARE <name> FROM <stmt>` / `EXECUTE <name>` ride the datastore's
/// [`PlanCache`]; hot prepared statements skip lexing, parsing and
/// planning entirely. Any other statement is parsed and planned here.
pub fn query(ds: &dyn Datastore, statement: &str, opts: &QueryOptions) -> Result<QueryResult> {
    let log = ds.request_log();
    let req_id = log.map(|l| l.admit(statement, opts.client_context_id.as_deref().unwrap_or("")));
    let mut request = ds.trace_sink().mint("n1ql.query.request");
    let outcome = run_request(ds, statement, opts);
    let phases = request.subtree(Phases::from_spans);
    // "Slow" means the same for a completed request as for a kept trace.
    let slow = opts.slow_threshold.unwrap_or_else(|| ds.trace_sink().store().slow_threshold());
    match outcome {
        Ok(Executed { mut result, plan, prof }) => {
            result.phases = phases;
            if let (Some(log), Some(id)) = (log, req_id) {
                log.complete(
                    id,
                    plan.summary(),
                    result.metrics.result_count as u64,
                    0,
                    result.metrics.mutation_count as u64,
                    phases,
                    false,
                    slow,
                );
            }
            if let Some(prof) = prof {
                // PROFILE returns one row: the annotated plan. The metrics
                // keep describing the *inner* execution (result_count is
                // what the pipeline produced, not 1).
                result.rows =
                    vec![explain::profile_to_value(&plan, &prof, &phases, &result.metrics)];
            }
            Ok(result)
        }
        Err(e) => {
            request.fail();
            if let (Some(log), Some(id)) = (log, req_id) {
                log.complete(id, "", 0, 1, 0, phases, true, slow);
            }
            Err(e)
        }
    }
}

/// If `s` starts (case-insensitively) with keyword `kw` followed by
/// whitespace, return the rest (left-trimmed).
fn strip_keyword<'a>(s: &'a str, kw: &str) -> Option<&'a str> {
    let t = s.trim_start();
    // `t` is raw user input: byte offset kw.len() may fall inside a
    // multi-byte char, so a str slice there would panic. Compare bytes
    // instead; kw is pure ASCII, so a match means the prefix is too and
    // slicing at kw.len() afterwards is boundary-safe.
    let head = t.as_bytes().get(..kw.len())?;
    if !head.eq_ignore_ascii_case(kw.as_bytes()) {
        return None;
    }
    let rest = &t[kw.len()..];
    if rest.starts_with(|c: char| c.is_whitespace()) {
        Some(rest.trim_start())
    } else {
        None
    }
}

/// `s` as a whole must be one plain identifier (optionally `;`-terminated).
fn simple_ident(s: &str) -> Option<&str> {
    let s = s.trim().trim_end_matches(';').trim_end();
    let mut chars = s.chars();
    let first = chars.next()?;
    if (first.is_ascii_alphabetic() || first == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
    {
        Some(s)
    } else {
        None
    }
}

/// Split one leading identifier off `s`.
fn take_ident(s: &str) -> Option<(&str, &str)> {
    let s = s.trim_start();
    let end = s.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).unwrap_or(s.len());
    if end == 0 || s[..1].chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some((&s[..end], &s[end..]))
    }
}

/// Parse and plan `text`, each step under its span.
fn parse_and_plan(
    ds: &dyn Datastore,
    text: &str,
    opts: &QueryOptions,
) -> Result<(Statement, Arc<QueryPlan>)> {
    let stmt = {
        let _s = cbs_obs::span("n1ql.query.parse");
        parse_statement(text)?
    };
    let plan = {
        let _s = cbs_obs::span("n1ql.query.plan");
        build_plan(ds, &stmt, opts)?
    };
    Ok((stmt, Arc::new(plan)))
}

/// What a request ran: its result, the plan it ran (the request log keeps
/// the plan's summary for slow or failed requests) and, for `PROFILE`, the
/// collected operator stats.
struct Executed {
    result: QueryResult,
    plan: Arc<QueryPlan>,
    prof: Option<Prof>,
}

/// Parse/plan/execute.
fn run_request(ds: &dyn Datastore, statement: &str, opts: &QueryOptions) -> Result<Executed> {
    // Hot path: `EXECUTE <name>` resolves the prepared statement and its
    // plan on text alone — no lexer, no parser, no planner.
    if let Some(rest) = strip_keyword(statement, "execute") {
        if let Some(name) = simple_ident(rest) {
            return run_execute(ds, name, opts);
        }
    }
    // `PREPARE <name> FROM <stmt>`: the inner statement *text* is what a
    // re-plan parses again, so peel it off here rather than losing it to
    // the AST.
    if let Some(rest) = strip_keyword(statement, "prepare") {
        if let Some((name, after)) = take_ident(rest) {
            if let Some(inner_text) = strip_keyword(after, "from") {
                let inner_text = inner_text.trim().trim_end_matches(';').trim_end();
                return run_prepare(ds, name, inner_text, opts);
            }
        }
    }
    // An ad-hoc statement is planned from current statistics every time.
    // `build_plan` plans the inner statement of EXPLAIN / PROFILE.
    let (stmt, plan) = parse_and_plan(ds, statement, opts)?;
    match stmt {
        Statement::Explain(_) => {
            let rows = vec![explain::explain_to_value(&plan)];
            Ok(Executed { result: QueryResult { rows, ..Default::default() }, plan, prof: None })
        }
        Statement::Profile(_) => {
            let mut prof = Prof::on();
            let result = execute_with_profile(ds, &plan, opts, &mut prof)?;
            Ok(Executed { result, plan, prof: Some(prof) })
        }
        _ => Ok(Executed { result: execute(ds, &plan, opts)?, plan, prof: None }),
    }
}

fn run_execute(ds: &dyn Datastore, name: &str, opts: &QueryOptions) -> Result<Executed> {
    let cache = ds
        .plan_cache()
        .ok_or_else(|| Error::Plan("no prepared-statement cache available".to_string()))?;
    let prepared = cache
        .get_prepared(name)
        .ok_or_else(|| Error::Plan(format!("no such prepared statement: {name}")))?;
    // Dropped or stale after DDL: re-plan from the prepared text against
    // the *current* index topology.
    let plan =
        cache.plan_for(&prepared, || Ok(parse_and_plan(ds, &prepared.statement, opts)?.1))?;
    let start = Instant::now();
    let result = execute(ds, &plan, opts)?;
    prepared.record_use(start.elapsed());
    Ok(Executed { result, plan, prof: None })
}

fn run_prepare(
    ds: &dyn Datastore,
    name: &str,
    inner_text: &str,
    opts: &QueryOptions,
) -> Result<Executed> {
    let cache = ds
        .plan_cache()
        .ok_or_else(|| Error::Plan("no prepared-statement cache available".to_string()))?;
    let plan = cache.prepare(name, inner_text, || {
        let (stmt, plan) = parse_and_plan(ds, inner_text, opts)?;
        // An entry keeps a plan alone, and an EXPLAIN's or a PROFILE's is
        // its inner statement's: EXECUTE would run that statement.
        if matches!(
            stmt,
            Statement::Prepare { .. }
                | Statement::Execute { .. }
                | Statement::Explain(_)
                | Statement::Profile(_)
        ) {
            return Err(Error::Plan(
                "cannot PREPARE a PREPARE, EXECUTE, EXPLAIN or PROFILE statement".to_string(),
            ));
        }
        Ok(plan)
    })?;
    let row = Value::object([("name", Value::from(name)), ("statement", Value::from(inner_text))]);
    Ok(Executed { result: QueryResult { rows: vec![row], ..Default::default() }, plan, prof: None })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_keyword_survives_multibyte_input() {
        // Regression: byte-slicing at kw.len() panicked when it split a
        // multi-byte UTF-8 char ("end byte index 7 is not a char
        // boundary" on this input for "execute").
        assert_eq!(strip_keyword("日本語のクエリ", "execute"), None);
        assert_eq!(strip_keyword("日本語のクエリ", "prepare"), None);
        assert_eq!(strip_keyword("日本語のクエリ", "select"), None);
        assert_eq!(strip_keyword("séléct 1", "select"), None);
        assert_eq!(strip_keyword("  SELECT 日本語", "select"), Some("日本語"));
        assert_eq!(strip_keyword("ExEcUtE q1;", "execute"), Some("q1;"));
        assert_eq!(strip_keyword("select", "select"), None, "keyword alone");
        assert_eq!(strip_keyword("selectx 1", "select"), None, "no word boundary");
    }

    #[test]
    fn multibyte_statement_is_a_parse_error_not_a_panic() {
        let ds = MemoryDatastore::new();
        assert!(query(&ds, "日本語のクエリ", &QueryOptions::default()).is_err());
    }
}
