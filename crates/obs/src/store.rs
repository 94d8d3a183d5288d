//! The span recorder's shared half: a bounded, cluster-wide store that
//! stitches the segments threads record ([`crate::trace`]) into one span
//! tree per operation (DESIGN.md §10).
//!
//! - **Touched once per segment.** The slot/ring locks here are taken only
//!   when an entry point is minted, when a segment closes, and when
//!   [`TraceStore::record_span`] attributes a flusher commit — never per
//!   span.
//! - **Head sampling, always on.** Decided once, at mint time, by a
//!   deterministic 1-in-N counter (default [`DEFAULT_SAMPLE_EVERY`] = 64,
//!   [`TraceStore::set_sample_every`] changes it). Only sampled operations
//!   hand out a [`TraceContext`], so nothing downstream records for the
//!   others: no replication delivery segment, no dirty-queue context, no
//!   flusher commit span. Sampling every operation cost +22 % CPU per operation
//!   on a 50/50 read/update load, most of it on the write-behind threads;
//!   at 1 in 64 the cost is inside a 3 % budget (DESIGN.md §10).
//!   Unsampled operations still record their own segments, so a slow or
//!   failed one is still kept and a request's own phase roll-up
//!   (`SpanGuard::subtree`) still works.
//! - **Bounded everywhere.** Sampled traces collect segments in a fixed
//!   slot array (slot = `trace_id % slots`) up to [`MAX_SPANS_PER_TRACE`]
//!   spans (extras are counted, not stored); finished traces retire into
//!   a fixed-capacity ring. Span buffers circulate between slots, ring and
//!   threads, so the steady state allocates nothing.
//! - **One threshold.** An unsampled segment that ran at least
//!   [`TraceStore::slow_threshold`] (or failed) is promoted to a completed
//!   trace; ring eviction drops the oldest trace that is neither slow nor
//!   failed first. "The slow-op log" is [`TraceStore::slow_traces`].
//! - **Late spans are welcome.** A trace's root can finish before the
//!   replication pump files its delivery segment, so finished traces stay
//!   in their slot, still accepting segments, until a new trace needs it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::metrics::Counter;
use crate::registry::Registry;
use crate::ring::Ring;
use crate::trace::{Lane, Segment, SpanRec, TraceContext, MAX_SPANS_PER_TRACE};

/// Trace slots collecting in-flight (and recently finished) traces.
const TRACE_SLOTS: usize = 64;

/// Completed traces retained for `system:completed_traces` / export.
const COMPLETED_RING_CAP: usize = 128;

/// Head-sampling rate a store starts with: 1 in 64 entry points mint a
/// trace.
pub(crate) const DEFAULT_SAMPLE_EVERY: u64 = 64;

/// The slow threshold a store starts with.
const DEFAULT_SLOW_THRESHOLD: Duration = Duration::from_millis(100);

/// A finished trace: the stitched span tree of one end-to-end operation.
#[derive(Debug, Clone)]
pub struct CompletedTrace {
    /// The trace id every span shares.
    pub trace_id: u64,
    /// The root span's name (the entry point).
    pub root_name: &'static str,
    /// Root span duration.
    pub total: Duration,
    /// All spans, segment by segment in filing order; within a segment
    /// pre-order. A cross-thread child may precede its parent.
    pub spans: Vec<SpanRec>,
    /// True if any segment of the trace reported failure.
    pub failed: bool,
    /// Spans discarded past [`MAX_SPANS_PER_TRACE`].
    pub dropped_spans: u32,
}

impl CompletedTrace {
    /// Distinct lanes the trace touched, sorted.
    pub fn lanes(&self) -> Vec<Lane> {
        let mut lanes: Vec<Lane> = self.spans.iter().map(|s| s.lane).collect();
        lanes.sort();
        lanes.dedup();
        lanes
    }

    /// Find a span by name (first match).
    pub fn span(&self, name: &str) -> Option<&SpanRec> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Walk parent links from `span` up to the root; returns the chain of
    /// span names root-first, or `None` if a link is broken or cyclic.
    pub fn path_to_root(&self, span: &SpanRec) -> Option<Vec<&'static str>> {
        let mut chain = vec![span.name];
        let mut cur = span;
        for _ in 0..self.spans.len() {
            if cur.parent == 0 {
                chain.reverse();
                return Some(chain);
            }
            cur = self.spans.iter().find(|s| s.id == cur.parent)?;
            chain.push(cur.name);
        }
        None
    }

    /// Render the span tree, indented by causal depth:
    ///
    /// ```text
    /// client.kv.durable                [client]  total 1.2ms
    ///   kv.engine.set                  [n0]      +3µs 12µs
    ///     cluster.replication.deliver  [n1]      +80µs 15µs
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            match self.spans.iter().position(|p| p.id == s.parent) {
                Some(p) if s.parent != 0 => children[p].push(i),
                _ => roots.push(i),
            }
        }
        for c in &mut children {
            c.sort_by_key(|&i| self.spans[i].start_ns);
        }
        roots.sort_by_key(|&i| self.spans[i].start_ns);
        let mut stack: Vec<(usize, usize)> = roots.into_iter().rev().map(|i| (i, 0)).collect();
        // The children lists partition the span set, so each span is
        // visited exactly once even if parent links form a cycle.
        while let Some((i, depth)) = stack.pop() {
            let s = &self.spans[i];
            out.push_str(&format!(
                "{:indent$}{:<width$} [{}] +{:.1?} {:.1?}\n",
                "",
                s.name,
                s.lane,
                Duration::from_nanos(s.start_ns),
                Duration::from_nanos(s.dur_ns),
                indent = depth * 2,
                width = 36usize.saturating_sub(depth * 2),
            ));
            for &c in children[i].iter().rev() {
                stack.push((c, depth + 1));
            }
        }
        if self.dropped_spans > 0 {
            out.push_str(&format!("  … {} span(s) dropped at the cap\n", self.dropped_spans));
        }
        out
    }
}

/// A sampled trace collecting segments in its slot.
struct Slot {
    trace: CompletedTrace,
    start: Instant,
    /// The root's segment has been filed; the trace is complete (late
    /// segments still land) and the slot may be reclaimed.
    root_done: bool,
}

/// The cluster-wide trace store: bounded slots for in-flight traces, a
/// bounded ring of completed ones, and `obs.trace.*` accounting on its own
/// registry.
pub struct TraceStore {
    slots: Vec<Mutex<Option<Slot>>>,
    ring: Mutex<Ring<CompletedTrace>>,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    sample_tick: AtomicU64,
    sample_every: AtomicU64,
    slow_nanos: AtomicU64,
    registry: Arc<Registry>,
    minted: Arc<Counter>,
    completed: Arc<Counter>,
    unsampled: Arc<Counter>,
    evicted: Arc<Counter>,
    dropped: Arc<Counter>,
}

impl TraceStore {
    /// A fresh store, sampling 1 in [`DEFAULT_SAMPLE_EVERY`] mints with a
    /// 100 ms slow threshold; `set_sample_every` and `set_slow_threshold`
    /// change either.
    pub fn new() -> Arc<TraceStore> {
        let registry = Arc::new(Registry::new("obs"));
        Arc::new(TraceStore {
            slots: (0..TRACE_SLOTS).map(|_| Mutex::new(None)).collect(),
            ring: Mutex::new(Ring::new(COMPLETED_RING_CAP)),
            next_trace: AtomicU64::new(0),
            next_span: AtomicU64::new(0),
            sample_tick: AtomicU64::new(0),
            sample_every: AtomicU64::new(DEFAULT_SAMPLE_EVERY),
            slow_nanos: AtomicU64::new(nanos(DEFAULT_SLOW_THRESHOLD)),
            minted: registry
                .counter_with_help("obs.trace.minted", "Entry points that claimed a trace slot"),
            completed: registry.counter_with_help(
                "obs.trace.completed",
                "Traces completed: sampled roots finished plus slow/failed segments promoted",
            ),
            unsampled: registry.counter_with_help(
                "obs.trace.unsampled",
                "Entry points not sampled (head sampling or slot pressure)",
            ),
            evicted: registry.counter_with_help(
                "obs.trace.evicted",
                "Completed traces dropped from the bounded ring",
            ),
            dropped: registry.counter_with_help(
                "obs.trace.dropped_spans",
                "Spans discarded past the per-trace cap or after their trace's slot was reused",
            ),
            registry,
        })
    }

    /// The store's `obs.trace.*` accounting registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Sample 1 in `n` minted entry points (1 = trace everything).
    pub fn set_sample_every(&self, n: u64) {
        self.sample_every.store(n.max(1), Ordering::Relaxed);
    }

    /// The one "slow" threshold: unsampled operations at least this slow
    /// are kept, and traces at least this slow survive ring eviction.
    pub fn slow_threshold(&self) -> Duration {
        Duration::from_nanos(self.slow_nanos.load(Ordering::Relaxed))
    }

    /// Set the slow threshold (`Duration::ZERO` keeps every operation).
    pub fn set_slow_threshold(&self, d: Duration) {
        self.slow_nanos.store(nanos(d), Ordering::Relaxed);
    }

    /// The head-sampling decision for an entry point that starts at
    /// `start`: the new trace's id, or `0` when this operation goes
    /// unsampled (skipped by the 1-in-N counter, or its slot still belongs
    /// to a live trace — spilling that one would lose its late spans).
    pub(crate) fn try_mint(&self, root_name: &'static str, start: Instant) -> u64 {
        let every = self.sample_every.load(Ordering::Relaxed);
        if !self.sample_tick.fetch_add(1, Ordering::Relaxed).is_multiple_of(every) {
            self.unsampled.inc();
            return 0;
        }
        let trace_id = self.next_trace.fetch_add(1, Ordering::Relaxed) + 1;
        let mut slot = self.slots[trace_id as usize % TRACE_SLOTS].lock();
        if slot.as_ref().is_some_and(|s| !s.root_done) {
            self.unsampled.inc();
            return 0;
        }
        // The finished occupant retires into the ring; the buffer the ring
        // evicts in exchange becomes this trace's.
        let spans = slot.take().map(|done| self.retire(done.trace)).unwrap_or_default();
        let trace = CompletedTrace {
            trace_id,
            root_name,
            total: Duration::ZERO,
            spans,
            failed: false,
            dropped_spans: 0,
        };
        *slot = Some(Slot { trace, start, root_done: false });
        self.minted.inc();
        trace_id
    }

    /// Reserve a segment's worth of span ids; returns the id before the
    /// first reserved one.
    pub(crate) fn reserve_span_ids(&self) -> u64 {
        self.next_span.fetch_add(MAX_SPANS_PER_TRACE as u64, Ordering::Relaxed)
    }

    /// File a closed segment — the one place a thread's spans meet the
    /// store. Returns the (emptied) span buffer for the thread to reuse.
    pub(crate) fn file(seg: Segment) -> Vec<SpanRec> {
        let Segment { store, trace_id, origin, mut spans, failed, dropped, .. } = seg;
        let (root_name, is_root) = (spans[0].name, spans[0].parent == 0);
        let total = Duration::from_nanos(spans[0].dur_ns);
        if trace_id != 0 {
            let mut slot = store.slots[trace_id as usize % TRACE_SLOTS].lock();
            match slot.as_mut().filter(|s| s.trace.trace_id == trace_id) {
                Some(Slot { trace, start, root_done }) => {
                    let rebase = origin.saturating_duration_since(*start).as_nanos() as u64;
                    let room = MAX_SPANS_PER_TRACE.saturating_sub(trace.spans.len());
                    let cut = spans.len().saturating_sub(room) as u32 + dropped;
                    trace.spans.extend(spans.drain(..).take(room).map(|mut s| {
                        s.start_ns += rebase;
                        s
                    }));
                    if cut > 0 {
                        trace.dropped_spans += cut;
                        store.dropped.add(u64::from(cut));
                    }
                    trace.failed |= failed;
                    if is_root {
                        trace.total = total;
                        *root_done = true;
                        store.completed.inc();
                    }
                }
                // The slot was reused: the spans are counted, never filed
                // under the slot's new owner.
                None => store.dropped.add(spans.len() as u64 + u64::from(dropped)),
            }
        } else if failed || total >= store.slow_threshold() {
            store.dropped.add(u64::from(dropped));
            store.completed.inc();
            let trace = CompletedTrace {
                trace_id: store.next_trace.fetch_add(1, Ordering::Relaxed) + 1,
                root_name,
                total,
                spans,
                failed,
                dropped_spans: dropped,
            };
            return store.retire(trace);
        }
        spans.clear();
        spans
    }

    /// Record one already-timed span into a sampled trace — the flusher's
    /// shape: one fsync interval is attributed to every traced mutation in
    /// the commit cycle without holding guards across the batch.
    pub fn record_span(
        &self,
        name: &'static str,
        lane: Lane,
        ctx: TraceContext,
        start: Instant,
        end: Instant,
    ) {
        let mut slot = self.slots[ctx.trace_id as usize % TRACE_SLOTS].lock();
        match slot.as_mut().filter(|s| s.trace.trace_id == ctx.trace_id) {
            Some(s) if s.trace.spans.len() < MAX_SPANS_PER_TRACE => s.trace.spans.push(SpanRec {
                id: self.next_span.fetch_add(1, Ordering::Relaxed) + 1,
                parent: ctx.span_id,
                name,
                lane,
                start_ns: start.saturating_duration_since(s.start).as_nanos() as u64,
                dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
            }),
            full_or_gone => {
                if let Some(s) = full_or_gone {
                    s.trace.dropped_spans += 1;
                }
                self.dropped.inc();
            }
        }
    }

    /// Push a finished trace into the completed ring; when that overflows
    /// it, evict the oldest unremarkable (not slow, not failed) trace.
    /// Returns an empty span buffer for reuse — the evicted trace's.
    fn retire(&self, trace: CompletedTrace) -> Vec<SpanRec> {
        let slow = self.slow_threshold();
        let unremarkable = |t: &CompletedTrace| !t.failed && t.total < slow;
        let Some(victim) = self.ring.lock().push_evicting(trace, unremarkable) else {
            return Vec::new();
        };
        self.evicted.inc();
        let mut spans = victim.spans;
        spans.clear();
        spans
    }

    /// Every finished trace: the completed ring plus root-finished traces
    /// still sitting in their slots, sorted by trace id. Non-destructive —
    /// slot traces keep accepting late segments after this snapshot.
    pub fn completed_traces(&self) -> Vec<CompletedTrace> {
        let mut out: Vec<CompletedTrace> = self.ring.lock().iter().cloned().collect();
        for slot in &self.slots {
            if let Some(s) = slot.lock().as_ref().filter(|s| s.root_done) {
                out.push(s.trace.clone());
            }
        }
        out.sort_by_key(|t| t.trace_id);
        out
    }

    /// The slow-op log: completed traces at or above the slow threshold.
    pub fn slow_traces(&self) -> Vec<CompletedTrace> {
        let slow = self.slow_threshold();
        self.completed_traces().into_iter().filter(|t| t.total >= slow).collect()
    }

    /// Export every completed trace as Chrome `trace_event` JSON (load it
    /// in `chrome://tracing` / Perfetto). Lanes become processes, traces
    /// become tracks.
    pub fn export_chrome(&self) -> String {
        chrome_trace_json(&self.completed_traces())
    }
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Serialize traces in the Chrome `trace_event` format: one `M`
/// (`process_name`) metadata event per lane, one complete (`X`) event per
/// span. `pid` is the lane (alphabetical), `tid` the trace id, `ts`/`dur`
/// are microseconds. Hand-built — this crate takes no JSON dependency.
pub fn chrome_trace_json(traces: &[CompletedTrace]) -> String {
    let mut lanes: Vec<Lane> = traces.iter().flat_map(CompletedTrace::lanes).collect();
    lanes.sort();
    lanes.dedup();
    let pid_of = |lane: &Lane| lanes.iter().position(|l| l == lane).unwrap_or(0) + 1;
    let mut events = Vec::new();
    for lane in &lanes {
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            pid_of(lane),
            escape_json(lane),
        ));
    }
    for t in traces {
        for s in &t.spans {
            events.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"cat\":\"{}\",\
                 \"args\":{{\"trace\":{},\"span\":{},\"parent\":{}}}}}",
                escape_json(s.name),
                pid_of(&s.lane),
                t.trace_id,
                s.start_ns as f64 / 1000.0,
                s.dur_ns as f64 / 1000.0,
                escape_json(t.root_name),
                t.trace_id,
                s.id,
                s.parent,
            ));
        }
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceSink;

    fn sinks<const N: usize>(lanes: [&str; N]) -> (Arc<TraceStore>, [TraceSink; N]) {
        let store = TraceStore::new();
        store.set_sample_every(1);
        let sinks = lanes.map(|l| TraceSink::new(Arc::clone(&store), l));
        (store, sinks)
    }

    #[test]
    fn mint_child_and_cross_thread_stitch_one_trace() {
        let (store, [client, node, remote]) = sinks(["client", "n0", "n1"]);
        {
            let _root = client.mint("client.kv.durable");
            let carried = node.span("kv.engine.set").ctx().expect("sampled");
            // Cross-thread hand-off: another thread records under the
            // carried context and files its own segment.
            std::thread::spawn(move || {
                let _d = remote.child_of("cluster.replication.deliver", carried);
                let _a = remote.child_of("kv.engine.replica_apply", carried);
            })
            .join()
            .unwrap();
        }
        let traces = store.completed_traces();
        assert_eq!(traces.len(), 1, "one entry point, one trace");
        let t = &traces[0];
        assert_eq!(t.root_name, "client.kv.durable");
        assert_eq!(t.spans.len(), 4);
        let apply = t.span("kv.engine.replica_apply").unwrap();
        assert_eq!(
            t.path_to_root(apply).unwrap(),
            vec![
                "client.kv.durable",
                "kv.engine.set",
                "cluster.replication.deliver",
                "kv.engine.replica_apply"
            ],
            "the thread's open segment wins over the carried context"
        );
        assert_eq!(&*apply.lane, "n1");
        assert_eq!(t.lanes().len(), 3);
        let mut ids: Vec<u64> = t.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "span ids are unique across segments");
    }

    #[test]
    fn late_spans_land_after_root_finishes() {
        let (store, [client, node]) = sinks(["client", "n0"]);
        let ctx = client.mint("client.kv.upsert").ctx().expect("sampled");
        assert_eq!(store.completed_traces()[0].spans.len(), 1);
        // The replica ack races the root: its spans must still stitch in.
        let t0 = Instant::now();
        node.record_span("kv.flusher.wal_commit", ctx, t0, Instant::now());
        drop(node.child_of("cluster.replication.deliver", ctx));
        let t = &store.completed_traces()[0];
        assert_eq!(t.spans.len(), 3);
        let late = t.span("cluster.replication.deliver").unwrap();
        assert_eq!(late.parent, ctx.span_id);
        assert!(late.start_ns > 0, "late segments are rebased onto the trace start");
    }

    #[test]
    fn head_sampling_skips_deterministically() {
        let (store, [client]) = sinks(["client"]);
        store.set_sample_every(4);
        let minted = (0..16).filter(|_| client.mint("client.kv.get").ctx().is_some()).count();
        assert_eq!(minted, 4);
        assert_eq!(store.registry().snapshot().counters["obs.trace.unsampled"], 12);
        assert_eq!(store.completed_traces().len(), 4, "fast unsampled ops are not kept");
    }

    /// A new store traces 1 in 64 entry points: sequential mints 0, 64,
    /// 128, … — ⌈n/64⌉ of n.
    #[test]
    fn default_store_samples_one_in_sixty_four() {
        let store = TraceStore::new();
        let client = TraceSink::new(Arc::clone(&store), "client");
        for n in [1u64, 63, 64, 65, 1000] {
            store.sample_tick.store(0, Ordering::Relaxed);
            let minted = (0..n).filter(|_| client.mint("client.kv.get").ctx().is_some()).count();
            assert_eq!(minted as u64, n.div_ceil(DEFAULT_SAMPLE_EVERY), "of {n}");
        }
    }

    /// Sampling decides what is traced, not what is kept: an unsampled
    /// operation over the slow threshold still reaches the slow-op log.
    #[test]
    fn an_unsampled_slow_op_still_reaches_the_slow_log() {
        let store = TraceStore::new();
        store.set_sample_every(DEFAULT_SAMPLE_EVERY);
        store.set_slow_threshold(Duration::from_millis(2));
        let client = TraceSink::new(Arc::clone(&store), "client");
        drop(client.mint("client.kv.get")); // the sampled one
        let slow = client.mint("client.kv.upsert");
        assert!(slow.ctx().is_none(), "unsampled");
        std::thread::sleep(Duration::from_millis(3));
        drop(slow);
        let kept = store.slow_traces();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].root_name, "client.kv.upsert");
        assert!(kept[0].total >= Duration::from_millis(2));
    }

    #[test]
    fn record_span_past_the_cap_counts_drops_instead_of_growing() {
        let (store, [client]) = sinks(["client"]);
        let root = client.mint("client.kv.get");
        let ctx = root.ctx().expect("sampled");
        let t0 = Instant::now();
        for _ in 0..(MAX_SPANS_PER_TRACE + 10) {
            client.record_span("kv.flusher.wal_commit", ctx, t0, t0);
        }
        drop(root);
        let t = &store.completed_traces()[0];
        assert_eq!(t.spans.len(), MAX_SPANS_PER_TRACE);
        // +1: the root's own segment arrived after the cap filled.
        assert_eq!(t.dropped_spans as usize, 11);
        assert_eq!(t.root_name, "client.kv.get");
        assert!(!t.total.is_zero(), "the root's duration survives the cut");
    }

    #[test]
    fn failed_and_slow_traces_survive_ring_eviction() {
        let (store, [client]) = sinks(["client"]);
        store.set_slow_threshold(Duration::from_secs(3600));
        client.mint("client.kv.remove").fail();
        let failed_id = store.completed_traces()[0].trace_id;
        // Push enough traces through to wrap every slot and overflow the
        // ring many times over.
        for _ in 0..(TRACE_SLOTS * 3 + COMPLETED_RING_CAP * 2) {
            drop(client.mint("client.kv.get"));
        }
        let traces = store.completed_traces();
        assert!(traces.len() <= COMPLETED_RING_CAP + TRACE_SLOTS, "ring is bounded");
        assert!(
            traces.iter().any(|t| t.trace_id == failed_id && t.failed),
            "failed trace was evicted"
        );
        assert!(store.registry().snapshot().counter("obs.trace.evicted") > 0);
        // Promoted (unsampled but kept) traces go through the same ring.
        store.set_slow_threshold(Duration::ZERO);
        for _ in 0..3 * COMPLETED_RING_CAP {
            drop(client.span("kv.engine.get"));
        }
        assert!(store.completed_traces().len() <= COMPLETED_RING_CAP + TRACE_SLOTS);
    }

    #[test]
    fn busy_slot_leaves_the_new_op_unsampled_not_the_live_trace() {
        let (store, [client]) = sinks(["client"]);
        // One thread per trace: a thread has one open segment, so
        // same-thread mints would nest.
        let barrier = std::sync::Barrier::new(TRACE_SLOTS + 1);
        std::thread::scope(|s| {
            for _ in 0..TRACE_SLOTS {
                s.spawn(|| {
                    let g = client.mint("client.kv.get");
                    assert!(g.ctx().is_some());
                    barrier.wait(); // every slot now holds a live trace
                    barrier.wait(); // hold the slot until the spill is checked
                    drop(g);
                });
            }
            barrier.wait();
            // Every slot is live: the next mint goes unsampled rather than
            // evicting an in-flight trace.
            assert!(client.mint("client.kv.get").ctx().is_none());
            barrier.wait();
        });
        assert_eq!(store.completed_traces().len(), TRACE_SLOTS);
    }

    #[test]
    fn segment_closing_after_its_slot_was_reused_is_dropped_not_misfiled() {
        let (store, [client, node]) = sinks(["client", "n0"]);
        let stale = client.mint("client.kv.upsert").ctx().expect("sampled");
        for _ in 0..TRACE_SLOTS {
            drop(client.mint("client.kv.get"));
        }
        let dropped = || store.registry().snapshot().counter("obs.trace.dropped_spans");
        assert_eq!(dropped(), 0);
        {
            let _late = node.child_of("cluster.replication.deliver", stale);
            let _apply = node.span("kv.engine.replica_apply");
        }
        node.record_span("kv.flusher.wal_commit", stale, Instant::now(), Instant::now());
        assert_eq!(dropped(), 3, "the late segment's spans and the late commit are counted");
        let traces = store.completed_traces();
        let owner = traces.iter().find(|t| t.trace_id == stale.trace_id + TRACE_SLOTS as u64);
        assert_eq!(owner.expect("slot's new owner").spans.len(), 1, "nothing filed under it");
        let original = traces.iter().find(|t| t.trace_id == stale.trace_id).expect("in the ring");
        assert_eq!(original.spans.len(), 1);
    }

    #[test]
    fn chrome_export_is_valid_and_lane_mapped() {
        let (store, [client, n0, n1]) = sinks(["client", "n0", "n1"]);
        {
            let _root = client.mint("client.kv.durable");
            let _a = n0.span("kv.engine.set");
            let _b = n1.span("cluster.replication.deliver");
        }
        let json = store.export_chrome();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"args\":{\"name\":\"n0\"}"));
        assert!(json.contains("\"args\":{\"name\":\"n1\"}"));
        assert!(json.contains("\"name\":\"kv.engine.set\""));
        assert!(json.trim_end().ends_with("]}"));
    }
}
