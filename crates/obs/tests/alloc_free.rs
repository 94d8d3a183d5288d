//! Hot-path allocation check: once handles are resolved, recording into
//! counters, gauges, and histograms must not touch the allocator, and
//! neither must span recording — off-trace, on the default path that
//! samples every operation, or on an unsampled root.
//!
//! Runs under a counting global allocator; integration tests get their own
//! binary, so the allocator swap is invisible to the rest of the suite.
//! Allocations are counted per thread, so the libtest harness and the
//! other test in this binary cannot land in a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Run `body` 10 000 times on this thread and require that it never
/// reached the allocator.
fn assert_allocation_free(what: &str, mut body: impl FnMut(u64)) {
    let before = ALLOCS.with(Cell::get);
    for i in 0..10_000u64 {
        body(i);
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(allocs, 0, "{what} allocated {allocs} times in 10 000 iterations");
}

#[test]
fn recording_is_allocation_free() {
    let registry = cbs_obs::Registry::new("kv");
    // Resolve handles up front — that's the documented usage: resolve at
    // component construction, record on the hot path.
    let counter = registry.counter("kv.test.ops");
    let gauge = registry.gauge("kv.test.depth");
    let histogram = registry.histogram("kv.test.latency");

    // Warm every code path once (first TLS access may allocate).
    counter.inc();
    gauge.set(1);
    histogram.record(Duration::from_micros(3));
    drop(cbs_obs::span("kv.test.span"));

    assert_allocation_free("hot-path recording", |i| {
        counter.inc();
        counter.add(2);
        gauge.add(1);
        gauge.sub(1);
        histogram.record(Duration::from_nanos(i * 17 + 1));
        histogram.record_nanos(i);
        // No segment is open on this thread: span() must be a no-op.
        let _s = cbs_obs::span("kv.test.span");
    });
}

/// The path every operation actually takes: a root at an entry point,
/// nested spans across lanes, and a segment filed later under the carried
/// context (the replication pump's shape).
fn traced_op(client: &cbs_obs::TraceSink, node: &cbs_obs::TraceSink) {
    let carried = {
        let _root = client.mint("client.kv.upsert");
        let engine = node.span("kv.engine.set");
        let _cache = cbs_obs::span("kv.cache.set");
        let _dcp = cbs_obs::span("kv.dcp.publish");
        engine.ctx()
    };
    if let Some(ctx) = carried {
        drop(node.child_of("cluster.replication.deliver", ctx));
    }
}

#[test]
fn sampled_and_unsampled_tracing_is_allocation_free_in_steady_state() {
    let store = cbs_obs::TraceStore::new();
    let client = cbs_obs::TraceSink::new(std::sync::Arc::clone(&store), "client");
    let node = cbs_obs::TraceSink::new(std::sync::Arc::clone(&store), "n0");

    // Default configuration: every operation is sampled. Warm up until
    // every slot and ring buffer has circulated once.
    store.set_sample_every(1);
    for _ in 0..1_000 {
        traced_op(&client, &node);
    }
    assert_allocation_free("sampled tracing", |_| traced_op(&client, &node));
    let snap = store.registry().snapshot();
    assert!(snap.counter("obs.trace.completed") >= 11_000, "the ops really were traced");
    assert_eq!(snap.counter("obs.trace.dropped_spans"), 0);

    // Head sampling off for (practically) every operation: roots record
    // into the thread's buffer and are recycled.
    store.set_sample_every(u64::MAX);
    traced_op(&client, &node);
    assert_allocation_free("unsampled tracing", |_| traced_op(&client, &node));
    assert!(store.registry().snapshot().counter("obs.trace.unsampled") >= 10_000);
}
