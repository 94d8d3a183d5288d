//! The span recorder's thread-local half: one span record, one RAII
//! guard, one per-thread **segment** buffer (DESIGN.md §10).
//!
//! A *segment* is the run of spans one thread records between the moment
//! its outermost guard opens and the moment that guard closes. Every
//! [`span`] (and every [`TraceSink`] entry taken while a segment is open)
//! pushes a [`SpanRec`] into the thread's buffer — no lock, no allocation,
//! two clock reads. The shared [`TraceStore`] is touched once per segment,
//! when the outermost guard drops and the store decides what the
//! segment was worth:
//!
//! - it belongs to a **sampled trace** (head-sampled at [`TraceSink::mint`],
//!   or opened from a carried [`TraceContext`] with
//!   [`TraceSink::child_of`]) → its spans are appended to the trace's slot;
//! - it was **unsampled** but ran at least the store's slow threshold, or
//!   failed → it is promoted to a completed trace of its own;
//! - otherwise the buffer is recycled.
//!
//! With no segment open [`span`] is a no-op, so instrumented internals
//! cost one TLS read off-trace. Wall-clock reads (`Instant::now`) happen
//! only here and in [`TraceStore::record_span`], so instrumented crates
//! (notably `cbs-cluster`, which bans ad-hoc clock reads) never touch the
//! clock themselves.

use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::Arc;
use std::time::Instant;

use crate::store::TraceStore;

/// Hard cap on spans per segment and per trace: spans past it are counted
/// in `obs.trace.dropped_spans` (and on the trace), never stored.
pub const MAX_SPANS_PER_TRACE: usize = 192;

/// The causal context one operation carries across thread and service
/// boundaries: which trace it belongs to and which span is its parent.
/// `Copy` on purpose — attaching it to a `DcpItem` or a dirty-queue entry
/// is two `u64` stores, no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace this operation belongs to (nonzero).
    pub trace_id: u64,
    /// The span to parent new child spans under (nonzero).
    pub span_id: u64,
}

/// Where a span ran: `client`, `query`, `txn`, or a node lane (`n0`, `n1`,
/// …). A lane label is interned once per process, when a [`TraceSink`] is
/// bound to it, so recording a span copies a pointer: the loader, the
/// replication pump and the flushers that record on one node's lane share
/// no reference count. It reads as its `str`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lane(&'static str);

impl Lane {
    /// The lane labelled `name`: one allocation per distinct label for the
    /// life of the process (a handful — the client, query and transaction
    /// lanes and one per node).
    pub fn intern(name: &str) -> Lane {
        static LABELS: parking_lot::Mutex<Vec<&'static str>> = parking_lot::Mutex::new(Vec::new());
        let mut labels = LABELS.lock();
        if let Some(label) = labels.iter().find(|label| **label == name) {
            return Lane(label);
        }
        let label: &'static str = Box::leak(name.into());
        labels.push(label);
        Lane(label)
    }
}

impl Deref for Lane {
    type Target = str;
    fn deref(&self) -> &str {
        self.0
    }
}

impl AsRef<str> for Lane {
    fn as_ref(&self) -> &str {
        self.0
    }
}

impl fmt::Debug for Lane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0, f)
    }
}

impl fmt::Display for Lane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// One recorded span. Offsets are nanoseconds since the owning trace's
/// start; `parent == 0` marks the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Span id, unique within its trace. Within one segment ids grow in
    /// recording (pre-order) order, so a span's descendants are exactly
    /// the following spans whose `parent >= id`.
    pub id: u64,
    /// Parent span id, `0` for the root span.
    pub parent: u64,
    /// Span name (`service.component.op`).
    pub name: &'static str,
    /// Where the span ran.
    pub lane: Lane,
    /// Start offset from the trace start, in nanoseconds.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

/// The spans one thread has recorded since its outermost guard opened.
pub(crate) struct Segment {
    pub(crate) store: Arc<TraceStore>,
    /// The sampled trace this segment belongs to; `0` for an unsampled
    /// segment (kept only if it turns out slow or failed).
    pub(crate) trace_id: u64,
    /// When `spans[0]` started; span offsets are relative to it until the
    /// store rebases them onto the trace start.
    pub(crate) origin: Instant,
    /// Pre-order; `spans[0]` is the span whose guard closes the segment.
    pub(crate) spans: Vec<SpanRec>,
    pub(crate) failed: bool,
    /// Spans refused at [`MAX_SPANS_PER_TRACE`].
    pub(crate) dropped: u32,
    /// Span ids are `id_base + index + 1`.
    id_base: u64,
    /// Index of the innermost open span: the parent of the next child.
    cur: usize,
    /// Distinguishes this segment from earlier ones on the thread, so a
    /// guard that outlived its segment cannot patch a later one.
    seq: u32,
}

struct Local {
    open: Option<Segment>,
    /// Recycled span buffer, so steady-state recording allocates nothing.
    scratch: Vec<SpanRec>,
    next_seq: u32,
}

thread_local! {
    static LOCAL: RefCell<Local> =
        const { RefCell::new(Local { open: None, scratch: Vec::new(), next_seq: 0 }) };
}

impl Segment {
    /// Record a child of the innermost open span, on `lane` or (for the
    /// free [`span`]) on the parent's lane.
    fn push(&mut self, name: &'static str, lane: Option<Lane>) -> SpanGuard {
        if self.spans.len() >= MAX_SPANS_PER_TRACE {
            self.dropped += 1;
            return SpanGuard::NOOP;
        }
        let parent = &self.spans[self.cur];
        let (parent, lane) = (parent.id, lane.unwrap_or(parent.lane));
        let start = Instant::now();
        let index = self.spans.len();
        let id = self.id_base + index as u64 + 1;
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(SpanRec { id, parent, name, lane, start_ns, dur_ns: 0 });
        let prev = std::mem::replace(&mut self.cur, index);
        self.guard(OpenSpan { index, prev, seq: self.seq, start })
    }

    fn guard(&self, open: OpenSpan) -> SpanGuard {
        let span_id = self.spans[open.index].id;
        let ctx = (self.trace_id != 0).then_some(TraceContext { trace_id: self.trace_id, span_id });
        SpanGuard { open: Some(open), ctx, not_send: PhantomData }
    }
}

/// Open a child span of the innermost open span on this thread, on its
/// lane. No-op (and allocation-free) when the thread has no segment open.
/// Close it by dropping the guard.
pub fn span(name: &'static str) -> SpanGuard {
    LOCAL.with(|l| match l.borrow_mut().open.as_mut() {
        Some(seg) => seg.push(name, None),
        None => SpanGuard::NOOP,
    })
}

/// A [`TraceStore`] handle bound to one lane — what a client, a service or
/// a node's engine keeps so instrumentation sites never repeat the lane
/// plumbing. Every way of opening a segment goes through one.
#[derive(Clone)]
pub struct TraceSink {
    store: Arc<TraceStore>,
    lane: Lane,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink").field("lane", &self.lane).finish()
    }
}

impl TraceSink {
    /// Bind `store` to a lane label (`client`, `n0`, …).
    pub fn new(store: Arc<TraceStore>, lane: &str) -> TraceSink {
        TraceSink { store, lane: Lane::intern(lane) }
    }

    /// The store this sink records into.
    pub fn store(&self) -> &TraceStore {
        &self.store
    }

    /// An **entry point** (`client.kv.*`, `n1ql.query.request`,
    /// `txn.batch.run`): a child span inside an open segment (`upsert`
    /// inside `upsert_durable`, a N1QL mutation inside a request), else a
    /// new segment and the head-sampling decision. Sampled operations claim
    /// a trace slot and hand out a [`TraceContext`]; unsampled ones (1-in-N
    /// skipped, or the slot busy with a live trace) record locally and are
    /// kept only if slow or failed.
    pub fn mint(&self, name: &'static str) -> SpanGuard {
        self.enter(name, |start| (self.store.try_mint(name, start), 0))
    }

    /// A **service boundary** (`kv.engine.*`, `kv.flusher.cycle`): a child
    /// span on this lane inside an open segment, else the root of an
    /// unsampled segment — so a direct engine call or a flusher cycle
    /// still yields a span tree when it turns out slow.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.enter(name, |_| (0, 0))
    }

    /// The **cross-thread stitch** (replication pump, replica apply): a
    /// span parented under a carried context. The thread's own open
    /// segment wins when there is one — the apply nests under the pump's
    /// deliver span that carried it.
    pub fn child_of(&self, name: &'static str, ctx: TraceContext) -> SpanGuard {
        self.enter(name, |_| (ctx.trace_id, ctx.span_id))
    }

    /// [`TraceStore::record_span`] on this lane.
    pub fn record_span(&self, name: &'static str, ctx: TraceContext, start: Instant, end: Instant) {
        self.store.record_span(name, self.lane, ctx, start, end);
    }

    /// A child span inside an open segment; else open one, in the trace
    /// (`0` = unsampled) and under the parent span `trace_of(start)` names.
    fn enter(&self, name: &'static str, trace_of: impl FnOnce(Instant) -> (u64, u64)) -> SpanGuard {
        LOCAL.with(|l| {
            let l = &mut *l.borrow_mut();
            if let Some(seg) = l.open.as_mut() {
                return seg.push(name, Some(self.lane));
            }
            let start = Instant::now();
            let (trace_id, parent) = trace_of(start);
            let id_base = if trace_id == 0 { 0 } else { self.store.reserve_span_ids() };
            let mut spans = std::mem::take(&mut l.scratch);
            let lane = self.lane;
            spans.push(SpanRec { id: id_base + 1, parent, name, lane, start_ns: 0, dur_ns: 0 });
            l.next_seq = l.next_seq.wrapping_add(1);
            let seg = l.open.insert(Segment {
                store: Arc::clone(&self.store),
                trace_id,
                origin: start,
                spans,
                failed: false,
                dropped: 0,
                id_base,
                cur: 0,
                seq: l.next_seq,
            });
            seg.guard(OpenSpan { index: 0, prev: 0, seq: seg.seq, start })
        })
    }
}

struct OpenSpan {
    index: usize,
    /// The segment's `cur` to restore on close.
    prev: usize,
    seq: u32,
    start: Instant,
}

/// RAII guard for one span: records the duration on drop, and the guard
/// that opened the thread's segment hands the segment to the store.
/// Guards drop in LIFO order per thread (the natural scope order) and
/// cannot leave their thread.
#[must_use = "a span measures the scope it is alive for"]
pub struct SpanGuard {
    /// `None` for a no-op guard (no segment open, or the span cap hit).
    open: Option<OpenSpan>,
    ctx: Option<TraceContext>,
    not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    const NOOP: SpanGuard = SpanGuard { open: None, ctx: None, not_send: PhantomData };

    /// The context downstream work should carry to join this trace as a
    /// child of this span; `None` when the operation is not sampled.
    pub fn ctx(&self) -> Option<TraceContext> {
        self.ctx
    }

    /// Mark the operation failed: its trace is kept (promoted if it was
    /// unsampled) and survives completed-ring eviction.
    pub fn fail(&mut self) {
        let Some(open) = &self.open else { return };
        LOCAL.with(|l| {
            if let Some(seg) = l.borrow_mut().open.as_mut().filter(|seg| seg.seq == open.seq) {
                seg.failed = true;
            }
        });
    }

    /// Read the spans recorded under this still-open span so far (its
    /// descendants, pre-order) — how `PROFILE` rolls a request's phases up
    /// without waiting for the trace to complete. Works whether this
    /// guard opened the segment or joined one. `f` must not open spans.
    pub fn subtree<R>(&self, f: impl FnOnce(&[SpanRec]) -> R) -> R {
        let Some(open) = &self.open else { return f(&[]) };
        LOCAL.with(|l| match l.borrow().open.as_ref().filter(|seg| seg.seq == open.seq) {
            Some(seg) => f(&seg.spans[open.index + 1..]),
            None => f(&[]),
        })
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else { return };
        let dur_ns = open.start.elapsed().as_nanos() as u64;
        let closed = LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let seg = l.open.as_mut().filter(|seg| seg.seq == open.seq)?;
            seg.spans[open.index].dur_ns = dur_ns;
            seg.cur = open.prev;
            if open.index == 0 {
                l.open.take()
            } else {
                None
            }
        });
        // The store is touched here and only here, outside the TLS borrow.
        if let Some(seg) = closed {
            let spans = TraceStore::file(seg);
            LOCAL.with(|l| l.borrow_mut().scratch = spans);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn a_lane_label_is_interned_once_and_reads_as_its_str() {
        let owned = String::from("n7");
        let (a, b) = (Lane::intern("n7"), Lane::intern(&owned));
        assert!(std::ptr::eq(&*a, &*b), "one allocation per label");
        assert_eq!((a.to_string(), format!("{a:?}")), ("n7".to_string(), "\"n7\"".to_string()));
        assert!(a.starts_with('n') && Lane::intern("n8") != a && Lane::intern("client") < a);
    }

    fn sink(lane: &str) -> (Arc<TraceStore>, TraceSink) {
        let store = TraceStore::new();
        store.set_sample_every(1);
        (Arc::clone(&store), TraceSink::new(store, lane))
    }

    fn names(t: &crate::CompletedTrace) -> Vec<&'static str> {
        t.spans.iter().map(|s| s.name).collect()
    }

    #[test]
    fn untraced_spans_are_noops_and_leave_tls_clean() {
        let g = span("kv.engine.set");
        assert!(g.ctx().is_none());
        drop(g);
        let (store, client) = sink("client");
        drop(client.mint("client.kv.get"));
        let traces = store.completed_traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(names(&traces[0]), vec!["client.kv.get"], "TLS was clean for the real trace");
    }

    #[test]
    fn nested_entry_points_and_service_roots_join_the_outer_trace() {
        let (store, client) = sink("client");
        let node = TraceSink::new(Arc::clone(&store), "n0");
        {
            let root = client.mint("client.kv.durable");
            let inner = client.mint("client.kv.upsert");
            let engine = node.span("kv.engine.set");
            let cache = span("kv.cache.set");
            assert_eq!(engine.ctx().map(|c| c.trace_id), root.ctx().map(|c| c.trace_id));
            drop((cache, engine, inner));
        }
        let traces = store.completed_traces();
        assert_eq!(traces.len(), 1, "inner roots joined the outer trace");
        let t = &traces[0];
        assert_eq!(t.root_name, "client.kv.durable");
        let cache = t.span("kv.cache.set").unwrap();
        assert_eq!(
            t.path_to_root(cache).unwrap(),
            vec!["client.kv.durable", "client.kv.upsert", "kv.engine.set", "kv.cache.set"],
        );
        assert_eq!(&*cache.lane, "n0", "free spans inherit the enclosing lane");
        assert_eq!(&*t.span("client.kv.upsert").unwrap().lane, "client");
    }

    #[test]
    fn unsampled_segments_are_kept_only_when_slow_or_failed() {
        let (store, node) = sink("n0");
        store.set_slow_threshold(Duration::from_secs(3600));
        drop(node.span("kv.engine.get"));
        assert!(store.completed_traces().is_empty(), "fast and fine: recycled");

        // A slow flusher-style cycle yields a multi-level tree.
        store.set_slow_threshold(Duration::from_micros(100));
        {
            let cycle = node.span("kv.flusher.cycle");
            assert!(cycle.ctx().is_none(), "unsampled: nothing downstream records");
            {
                let _a = span("storage.wal.append");
                spin(Duration::from_micros(60));
            }
            let _c = span("kv.flusher.commit");
            let _f = span("storage.wal.fsync");
            spin(Duration::from_micros(60));
        }
        let slow = store.slow_traces();
        assert_eq!(slow.len(), 1);
        let t = &slow[0];
        assert_eq!(
            names(t),
            vec![
                "kv.flusher.cycle",
                "storage.wal.append",
                "kv.flusher.commit",
                "storage.wal.fsync"
            ]
        );
        let fsync = t.span("storage.wal.fsync").unwrap();
        assert_eq!(
            t.path_to_root(fsync).unwrap(),
            vec!["kv.flusher.cycle", "kv.flusher.commit", "storage.wal.fsync"]
        );
        assert!(t.total >= Duration::from_micros(120));
        assert!(fsync.dur_ns >= 60_000 && fsync.start_ns >= t.spans[1].dur_ns);
        assert!(t.render().contains("storage.wal.fsync"));

        // Failed operations are kept however fast they were.
        store.set_slow_threshold(Duration::from_secs(3600));
        node.span("kv.engine.set").fail();
        let traces = store.completed_traces();
        assert_eq!(traces.len(), 2);
        assert!(traces[1].failed && traces[1].root_name == "kv.engine.set");
        assert_eq!(store.slow_traces().len(), 0, "the one threshold moved; failed is not slow");
    }

    #[test]
    fn subtree_reads_the_open_segment_inside_and_outside_a_trace() {
        let (store, query) = sink("query");
        store.set_sample_every(2); // first mint sampled, second not
        for sampled in [true, false] {
            let req = query.mint("n1ql.query.request");
            assert_eq!(req.ctx().is_some(), sampled);
            {
                let _p = span("n1ql.query.parse");
                spin(Duration::from_micros(20));
            }
            {
                let _s = span("n1ql.exec.index_scan");
                let _m = span("index.manager.scan");
            }
            let (seen, parse_ns) =
                req.subtree(|s| (s.iter().map(|s| s.name).collect::<Vec<_>>(), s[0].dur_ns));
            assert_eq!(
                seen,
                vec!["n1ql.query.parse", "n1ql.exec.index_scan", "index.manager.scan"]
            );
            assert!(parse_ns >= 20_000, "closed children carry their durations");
        }
        // Joined to an outer segment, a guard sees only its own subtree.
        let _outer = query.mint("txn.batch.run");
        let _before = span("txn.batch.schedule");
        drop(_before);
        let req = query.mint("n1ql.query.request");
        drop(span("n1ql.exec.fetch"));
        assert_eq!(
            req.subtree(|s| s.iter().map(|s| s.name).collect::<Vec<_>>()),
            ["n1ql.exec.fetch"]
        );
        assert_eq!(span("n1ql.exec.run").subtree(<[SpanRec]>::len), 0);
    }

    #[test]
    fn span_cap_truncates_and_the_cut_is_counted_and_marked() {
        let (store, node) = sink("n0");
        {
            let _root = node.mint("kv.engine.scan");
            for _ in 0..2 * MAX_SPANS_PER_TRACE {
                drop(span("kv.engine.step"));
            }
        }
        let t = &store.completed_traces()[0];
        assert_eq!(t.spans.len(), MAX_SPANS_PER_TRACE);
        assert_eq!(t.dropped_spans as usize, MAX_SPANS_PER_TRACE + 1);
        assert_eq!(
            store.registry().snapshot().counter("obs.trace.dropped_spans"),
            u64::from(t.dropped_spans)
        );
        assert!(t.render().contains("dropped at the cap"), "render flags the cut:\n{}", t.render());
    }
}
