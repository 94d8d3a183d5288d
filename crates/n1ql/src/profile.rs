//! Per-request query profiling and the query-service request log.
//!
//! Couchbase answers "why was *this* query slow?" with `profile=timings`
//! and the `system:completed_requests` / `system:active_requests` catalogs;
//! this module is the repro's equivalent. Three pieces:
//!
//! - [`Prof`] — the operator-stat collector threaded through the executor.
//!   The executor's loop over the plan's operator list records, for each
//!   operator it runs, items_in / items_out and its exclusive kernel time
//!   (the stages run sequentially, so per-stage wall time *is* exclusive
//!   time); the n-th stat therefore belongs to the n-th operator EXPLAIN
//!   shows. Disabled collectors are a no-op: a `PROFILE`-less query pays
//!   one branch per operator and allocates nothing extra.
//! - [`PhaseTimes`] — plan / indexScan / primaryScan / fetch / run rollups
//!   extracted from the request's cbs-obs spans (the ones a kept trace
//!   shows), so cross-service time (GSI scans, KV fetches) is attributed
//!   from real spans, not guessed.
//! - [`RequestLog`] — a bounded ring of completed requests (slow or failed,
//!   threshold-gated) plus the in-flight set, feeding the
//!   `system:completed_requests` and `system:active_requests` keyspaces.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cbs_common::sync::{rank, OrderedMutex};
use cbs_json::Value;
use cbs_obs::{Ring, SpanRec};

/// Runtime stats for one executed operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpStat {
    /// Operator name ([`crate::Operator::name`], or the DML/DDL name).
    pub operator: &'static str,
    /// Rows entering the operator.
    pub items_in: u64,
    /// Rows leaving the operator.
    pub items_out: u64,
    /// Exclusive time spent inside the operator's kernel (including the
    /// data/index service calls it issues, excluding other operators).
    pub kernel: Duration,
}

impl OpStat {
    /// The `#stats` annotation PROFILE attaches to the operator's EXPLAIN
    /// node (field names follow Couchbase's `profile=timings` output).
    pub fn to_value(&self) -> Value {
        Value::object([
            ("#itemsIn", Value::from(self.items_in as usize)),
            ("#itemsOut", Value::from(self.items_out as usize)),
            ("kernTime", duration_value(self.kernel)),
        ])
    }
}

/// Operator-stat collector. Construct with [`Prof::on`] for `PROFILE`
/// requests, [`Prof::off`] otherwise; the executor records through it
/// unconditionally and disabled collectors discard everything.
#[derive(Debug, Default)]
pub struct Prof {
    enabled: bool,
    ops: Vec<OpStat>,
}

impl Prof {
    /// A collector that records.
    pub fn on() -> Prof {
        Prof { enabled: true, ops: Vec::new() }
    }

    /// A collector that discards (the non-PROFILE fast path).
    pub fn off() -> Prof {
        Prof::default()
    }

    /// Start timing an operator kernel. `None` (no clock read) when
    /// disabled.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Record one operator execution. `t0` is the matching [`Prof::start`];
    /// a `None` start (disabled collector) records nothing.
    #[inline]
    pub fn record(
        &mut self,
        operator: &'static str,
        items_in: u64,
        items_out: u64,
        t0: Option<Instant>,
    ) {
        if let Some(t0) = t0 {
            self.ops.push(OpStat { operator, items_in, items_out, kernel: t0.elapsed() });
        }
    }

    /// The recorded operator stats, in execution order.
    pub fn ops(&self) -> &[OpStat] {
        &self.ops
    }
}

/// Phase rollups decomposing a request's wall time, extracted from the
/// request's spans (see [`PhaseTimes::from_spans`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Parse + plan time (`n1ql.query.parse`, `n1ql.query.plan`).
    pub plan: Duration,
    /// GSI scan time (`n1ql.exec.index_scan`), cross-service: nested
    /// `index.manager.scan` spans are attributed here.
    pub index_scan: Duration,
    /// Primary-scan time (`n1ql.exec.primary_scan`).
    pub primary_scan: Duration,
    /// KV fetch time (`n1ql.exec.fetch`), cross-service: nested
    /// `kv.engine.get` spans are attributed here.
    pub fetch: Duration,
    /// Executor time outside scans and fetches (`n1ql.exec.run` minus the
    /// scan/fetch spans nested within it).
    pub run: Duration,
}

impl PhaseTimes {
    /// Roll the spans one thread recorded under a request
    /// ([`cbs_obs::SpanGuard::subtree`]: pre-order, one segment) up into
    /// phases. Once a span is attributed to a phase its descendants are
    /// skipped, so nested cross-service spans (`index.manager.scan` under
    /// `n1ql.exec.index_scan`, `kv.engine.get` under `n1ql.exec.fetch`)
    /// count once, inside the phase that issued them.
    pub fn from_spans(spans: &[SpanRec]) -> PhaseTimes {
        let mut t = PhaseTimes::default();
        let mut run_gross = Duration::ZERO;
        let mut i = 0usize;
        while i < spans.len() {
            let s = &spans[i];
            let duration = Duration::from_nanos(s.dur_ns);
            match s.name {
                "n1ql.query.parse" | "n1ql.query.plan" => {
                    t.plan += duration;
                    i = skip_subtree(spans, i);
                }
                "n1ql.exec.index_scan" => {
                    t.index_scan += duration;
                    i = skip_subtree(spans, i);
                }
                "n1ql.exec.primary_scan" => {
                    t.primary_scan += duration;
                    i = skip_subtree(spans, i);
                }
                "n1ql.exec.fetch" => {
                    t.fetch += duration;
                    i = skip_subtree(spans, i);
                }
                // Gross run time; scan/fetch phases nest inside it and are
                // subtracted below, leaving exclusive executor time. Do NOT
                // skip the subtree — the nested phases still need counting.
                "n1ql.exec.run" => {
                    run_gross += duration;
                    i += 1;
                }
                _ => i += 1,
            }
        }
        t.run = run_gross
            .saturating_sub(t.index_scan)
            .saturating_sub(t.primary_scan)
            .saturating_sub(t.fetch);
        t
    }

    /// Sum of all phases (≤ the request's total elapsed time).
    pub fn total(&self) -> Duration {
        self.plan + self.index_scan + self.primary_scan + self.fetch + self.run
    }

    /// The `phaseTimes` JSON object (zero phases omitted, like Couchbase).
    pub fn to_value(&self) -> Value {
        let mut out = Value::empty_object();
        for (name, d) in [
            ("plan", self.plan),
            ("indexScan", self.index_scan),
            ("primaryScan", self.primary_scan),
            ("fetch", self.fetch),
            ("run", self.run),
        ] {
            if !d.is_zero() {
                out.insert_field(name, duration_value(d));
            }
        }
        out
    }
}

fn duration_value(d: Duration) -> Value {
    Value::from(format!("{d:?}"))
}

/// One finished request as retained by the completed ring.
#[derive(Debug, Clone)]
pub struct RequestEntry {
    /// Monotonic per-service request id.
    pub id: u64,
    /// The statement text as submitted.
    pub statement: String,
    /// Prepared-plan summary (`IndexScan(age) -> Fetch -> ...`).
    pub plan_summary: String,
    /// `"completed"` or `"failed"`.
    pub state: &'static str,
    /// Rows returned.
    pub result_count: u64,
    /// Errors raised (0 or 1 in this engine).
    pub error_count: u64,
    /// Documents mutated.
    pub mutation_count: u64,
    /// End-to-end service time.
    pub elapsed: Duration,
    /// Phase rollups.
    pub phases: PhaseTimes,
    /// Client-supplied context id ("" when absent).
    pub client_context_id: String,
}

impl RequestEntry {
    /// The row this entry contributes to `system:completed_requests`.
    pub fn to_value(&self, node: &str) -> Value {
        Value::object([
            ("requestId", Value::from(format!("{node}-{}", self.id))),
            ("statement", Value::from(self.statement.as_str())),
            ("plan", Value::from(self.plan_summary.as_str())),
            ("state", Value::from(self.state)),
            ("node", Value::from(node)),
            ("resultCount", Value::from(self.result_count as usize)),
            ("errorCount", Value::from(self.error_count as usize)),
            ("mutationCount", Value::from(self.mutation_count as usize)),
            ("elapsedTime", duration_value(self.elapsed)),
            ("phaseTimes", self.phases.to_value()),
            ("clientContextID", Value::from(self.client_context_id.as_str())),
        ])
    }
}

/// An admitted, still-running request.
#[derive(Debug)]
struct ActiveRequest {
    statement: String,
    client_context_id: String,
    started: Instant,
}

/// Completed requests retained per query service (oldest evicted first).
const COMPLETED_RING_CAP: usize = 256;

/// The per-query-service request log: the in-flight request set plus a
/// bounded ring of completed requests that ran at least the slow threshold
/// their caller passes (or failed). Shared by every query node in a
/// cluster, the way the query registry already is.
#[derive(Debug)]
pub struct RequestLog {
    node: String,
    next_id: AtomicU64,
    /// Ranks `REQLOG_ACTIVE` / `REQLOG_COMPLETED`: leaf locks, held only
    /// for statement-scoped map edits — never across a phase of execution.
    active: OrderedMutex<BTreeMap<u64, ActiveRequest>>,
    completed: OrderedMutex<Ring<RequestEntry>>,
}

impl RequestLog {
    /// A fresh log for the query service labelled `node`.
    pub fn new(node: impl Into<String>) -> RequestLog {
        RequestLog {
            node: node.into(),
            next_id: AtomicU64::new(1),
            active: OrderedMutex::new(rank::REQLOG_ACTIVE, BTreeMap::new()),
            completed: OrderedMutex::new(rank::REQLOG_COMPLETED, Ring::new(COMPLETED_RING_CAP)),
        }
    }

    /// Admit a request: assign an id and track it as in-flight.
    pub fn admit(&self, statement: &str, client_context_id: &str) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.active.lock().insert(
            id,
            ActiveRequest {
                statement: statement.to_string(),
                client_context_id: client_context_id.to_string(),
                started: Instant::now(),
            },
        );
        id
    }

    /// Retire a request. It enters the completed ring when it failed or ran
    /// at least `threshold` (`Duration::ZERO` retains everything).
    #[allow(clippy::too_many_arguments)] // the request's full epitaph
    pub fn complete(
        &self,
        id: u64,
        plan_summary: &str,
        result_count: u64,
        error_count: u64,
        mutation_count: u64,
        phases: PhaseTimes,
        failed: bool,
        threshold: Duration,
    ) {
        let Some(req) = self.active.lock().remove(&id) else { return };
        let elapsed = req.started.elapsed();
        if !failed && elapsed < threshold {
            return;
        }
        let entry = RequestEntry {
            id,
            statement: req.statement,
            plan_summary: plan_summary.to_string(),
            state: if failed { "failed" } else { "completed" },
            result_count,
            error_count,
            mutation_count,
            elapsed,
            phases,
            client_context_id: req.client_context_id,
        };
        self.completed.lock().push(entry);
    }

    /// Retained completed requests, oldest first.
    pub fn completed(&self) -> Vec<RequestEntry> {
        self.completed.lock().iter().cloned().collect()
    }

    /// `system:completed_requests` rows, keyed by request id.
    pub fn completed_rows(&self) -> Vec<(String, Value)> {
        self.completed
            .lock()
            .iter()
            .map(|e| (format!("{}-{}", self.node, e.id), e.to_value(&self.node)))
            .collect()
    }

    /// `system:active_requests` rows for the in-flight set.
    pub fn active_rows(&self) -> Vec<(String, Value)> {
        self.active
            .lock()
            .iter()
            .map(|(id, req)| {
                (
                    format!("{}-{id}", self.node),
                    Value::object([
                        ("requestId", Value::from(format!("{}-{id}", self.node))),
                        ("statement", Value::from(req.statement.as_str())),
                        ("state", Value::from("running")),
                        ("node", Value::from(self.node.as_str())),
                        ("elapsedTime", duration_value(req.started.elapsed())),
                        ("clientContextID", Value::from(req.client_context_id.as_str())),
                    ]),
                )
            })
            .collect()
    }
}

/// First index past the subtree rooted at `i`: within a segment ids grow
/// in pre-order, so the descendants of `i` are exactly the following spans
/// parented at or after it.
fn skip_subtree(spans: &[SpanRec], i: usize) -> usize {
    let id = spans[i].id;
    let mut j = i + 1;
    while j < spans.len() && spans[j].parent >= id {
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pre-order spans from `(name, depth, micros)`, ids and parent links
    /// assigned the way a segment assigns them.
    fn segment(shape: &[(&'static str, usize, u64)]) -> Vec<SpanRec> {
        let mut open: Vec<u64> = Vec::new();
        let mut spans = Vec::new();
        for (i, &(name, depth, micros)) in shape.iter().enumerate() {
            open.truncate(depth);
            let id = i as u64 + 1;
            spans.push(SpanRec {
                id,
                parent: open.last().copied().unwrap_or(0),
                name,
                lane: cbs_obs::Lane::intern("query"),
                start_ns: 0,
                dur_ns: micros * 1000,
            });
            open.push(id);
        }
        spans
    }

    #[test]
    fn phases_attribute_nested_service_time_once() {
        let spans = segment(&[
            ("n1ql.query.request", 0, 1000),
            ("n1ql.query.parse", 1, 50),
            ("n1ql.query.plan", 1, 70),
            ("n1ql.exec.run", 1, 800),
            ("n1ql.exec.index_scan", 2, 300),
            ("index.manager.scan", 3, 280),
            ("n1ql.exec.fetch", 2, 400),
            ("kv.engine.get", 3, 120),
            ("kv.engine.get", 3, 110),
        ]);
        let t = PhaseTimes::from_spans(&spans);
        assert_eq!(t.plan, Duration::from_micros(120));
        assert_eq!(
            t.index_scan,
            Duration::from_micros(300),
            "index.manager.scan not double-counted"
        );
        assert_eq!(t.fetch, Duration::from_micros(400), "kv.engine.get not double-counted");
        assert_eq!(t.run, Duration::from_micros(100), "run is exclusive of nested phases");
        assert_eq!(t.total(), Duration::from_micros(920));
        let v = t.to_value();
        assert!(v.get_field("indexScan").is_some());
        assert!(v.get_field("primaryScan").is_none(), "zero phases omitted");
    }

    #[test]
    fn prof_disabled_records_nothing() {
        let mut p = Prof::off();
        let t0 = p.start();
        assert!(t0.is_none());
        p.record("Filter", 10, 5, t0);
        assert!(p.ops().is_empty());
    }

    #[test]
    fn prof_enabled_keeps_order_and_counts() {
        let mut p = Prof::on();
        let t0 = p.start();
        p.record("IndexScan", 0, 7, t0);
        let t1 = p.start();
        p.record("Fetch", 7, 6, t1);
        assert_eq!(p.ops().len(), 2);
        assert_eq!(p.ops()[0].operator, "IndexScan");
        assert_eq!(p.ops()[1].items_out, 6);
        let v = p.ops()[1].to_value();
        assert_eq!(v.get_field("#itemsIn").and_then(|v| v.as_i64()), Some(7));
    }

    #[test]
    fn request_log_thresholds_and_bounds() {
        let log = RequestLog::new("q0");
        for i in 0..(COMPLETED_RING_CAP + 50) {
            let id = log.admit(&format!("SELECT {i}"), "");
            log.complete(id, "DummyScan", 1, 0, 0, PhaseTimes::default(), false, Duration::ZERO);
        }
        assert_eq!(log.completed().len(), COMPLETED_RING_CAP, "ring bounded");
        assert_eq!(log.active_rows().len(), 0);

        // Fast requests below the threshold are not retained...
        let hour = Duration::from_secs(3600);
        let id = log.admit("SELECT fast", "ctx-1");
        log.complete(id, "DummyScan", 1, 0, 0, PhaseTimes::default(), false, hour);
        assert!(!log.completed().iter().any(|e| e.statement == "SELECT fast"));
        // ...but failed ones always are.
        let id = log.admit("SELECT broken", "ctx-2");
        log.complete(id, "", 0, 1, 0, PhaseTimes::default(), true, hour);
        let completed = log.completed();
        let last = completed.last().unwrap();
        assert_eq!(last.state, "failed");
        assert_eq!(last.client_context_id, "ctx-2");
    }

    #[test]
    fn active_rows_reflect_in_flight() {
        let log = RequestLog::new("q0");
        let id = log.admit("SELECT 1", "cid");
        let rows = log.active_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1.get_field("state").and_then(|v| v.as_str()), Some("running"));
        log.complete(id, "", 1, 0, 0, PhaseTimes::default(), false, Duration::ZERO);
        assert!(log.active_rows().is_empty());
    }
}
