//! Rank-ordered lock wrappers: a lock-order deadlock detector.
//!
//! Every lock participating in the KV/storage concurrency protocol is wrapped
//! in an [`OrderedMutex`] / [`OrderedRwLock`] carrying a [`LockRank`]. The
//! global rank order (documented in DESIGN.md §9) is the machine-checked
//! invariant: on any one thread, locks may only be acquired in strictly
//! increasing rank order. Acquiring a lock whose rank is less than or equal
//! to the highest rank already held is a potential deadlock (two threads
//! taking the same pair of locks in opposite orders), and panics immediately
//! with both hold sites when the `lock-order` feature is enabled.
//!
//! With the feature disabled (the default for release builds and benches) the
//! wrappers compile down to a bare `parking_lot` lock: the rank field is not
//! even stored, every method is `#[inline]` pass-through, and there is no
//! thread-local bookkeeping. Tier-1 tests enable the feature through
//! dev-dependencies, so every existing integration test doubles as a
//! lock-order check.
//!
//! The detector is deliberately stricter than "no cycle in the observed
//! acquisition graph": it enforces a single total order up front, so an
//! inversion is caught the first time it executes on any one thread, without
//! needing the two conflicting threads to actually interleave.
//!
//! Beside the locks lives the workspace's one way to block on progress:
//! [`Watermarks`] (a per-vBucket vector of monotone seqnos) over a
//! [`Signal`] (waiter count + leaf-ranked mutex + condvar). Every "wait until
//! seqno X is persisted / replicated / indexed" is a wait on one of these.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::ids::{SeqNo, VbId};
use crate::time::Deadline;

/// A position in the global lock order, plus a stable name for diagnostics.
///
/// Ranks are compared numerically; gaps are left between the well-known ranks
/// so future locks can slot in without renumbering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LockRank {
    pub rank: u32,
    pub name: &'static str,
}

impl LockRank {
    pub const fn new(rank: u32, name: &'static str) -> LockRank {
        LockRank { rank, name }
    }
}

/// The global lock order for the engine → flusher → storage stack.
///
/// Derived from every nesting site in `cbs-kv` and `cbs-storage` (see
/// DESIGN.md §9 for the per-edge justification). On one thread, ranks must
/// strictly increase; independent locks of the same rank (e.g. two vBucket
/// metadata locks) must never be held together.
pub mod rank {
    use super::LockRank;

    /// Smart client's cached cluster map. Leaf in practice (refresh
    /// fetches the fresh map *before* taking the write lock), but ranked
    /// outermost because it is client-side: nothing server-side may ever
    /// be held when a client routes.
    pub const CLIENT_MAP: LockRank = LockRank::new(1, "cluster.client.map");
    /// Orchestrator's bucket → cluster-map table. Failover mutates a map
    /// in place under this lock while consulting node liveness and engine
    /// seqnos, so it precedes the node list and every node/KV rank.
    pub const CLUSTER_MAPS: LockRank = LockRank::new(2, "cluster.topology.maps");
    /// Orchestrator's node list. Held (as a read guard) while iterating
    /// nodes for bucket creation and topology snapshots, which descend
    /// into the per-node maps below.
    pub const CLUSTER_NODES: LockRank = LockRank::new(3, "cluster.topology.nodes");
    /// Orchestrator's bucket → DCP-pump registry (pump, lag table, map
    /// watchers). A map install wakes the watchers under it (rank
    /// `DCP_FEED_WAKER`) after dropping the maps guard; pumps are spawned
    /// before and joined after the guarded window.
    pub const CLUSTER_PUMPS: LockRank = LockRank::new(4, "cluster.topology.pumps");
    /// Node-wide bucket → data-engine map. Above every KV/storage rank:
    /// bucket create/delete may open engines (and therefore files) while
    /// the map is consulted, so the map must sit at the very top of the
    /// order. Engine construction itself happens *outside* the lock (see
    /// `Node::create_bucket`); the rank guards the residual insert window.
    pub const NODE_ENGINES: LockRank = LockRank::new(5, "cluster.node.engines");
    /// Node-wide list of flusher handles (spawned per bucket, drained on
    /// shutdown). Taken after the engine map during bucket creation.
    pub const NODE_FLUSHERS: LockRank = LockRank::new(6, "cluster.node.flushers");
    /// Node-wide bucket → view-engine map (taken last during bucket
    /// creation, before any KV rank).
    pub const NODE_VIEW_ENGINES: LockRank = LockRank::new(7, "cluster.node.view_engines");
    /// Query datastore's pool of per-bucket smart clients. Taken with
    /// nothing held; connecting a new client (which fetches maps) happens
    /// between the read probe and the write insert.
    pub const QUERY_CLIENTS: LockRank = LockRank::new(8, "n1ql.datastore.clients");
    /// Per-shard flush lock, the shard log's single-writer seat — outermost:
    /// held for a whole drain cycle, purge or compaction while vB metadata,
    /// queues, the log and the vBucket indexes are touched.
    pub const FLUSH_CYCLE: LockRank = LockRank::new(10, "kv.shard.flush_cycle");
    /// View engine's ddoc registry. Held across design-doc creation,
    /// which opens DCP streams per vBucket (rank `DCP_CHANNEL`).
    pub const VIEWS_DDOCS: LockRank = LockRank::new(12, "views.engine.ddocs");
    /// Per-ddoc DCP stream set. Held while draining streams for
    /// `stale=false` updates, which waits on the DCP channel.
    pub const VIEWS_DDOC_STREAMS: LockRank = LockRank::new(14, "views.ddoc.streams");
    /// Per-ddoc materialized view B-trees. Queries hold it while checking
    /// vBucket states on the engine (rank `VB_META`).
    pub const VIEWS_DDOC_VIEWS: LockRank = LockRank::new(16, "views.ddoc.views");
    /// Per-vBucket metadata (state, GETL locks).
    pub const VB_META: LockRank = LockRank::new(20, "kv.vb.meta");
    /// Per-vBucket DCP channel (stream registry + retained tail). Taken
    /// under the vB metadata lock when a mutation publishes; a stream open
    /// holds it across `backfill`, which descends into the storage ranks.
    pub const DCP_CHANNEL: LockRank = LockRank::new(25, "kv.dcp.channel");
    /// The queue a DCP feed's wakers send to, re-pointed when the feed is
    /// reset. Taken under the cluster's pump registry (a map install wakes
    /// the bucket's watchers) and a design document's feed lock; a channel
    /// send is all that happens under it.
    pub const DCP_FEED_WAKER: LockRank = LockRank::new(26, "kv.dcp.feed_waker");
    /// Managed-cache shard (vBucket-sharded object table). Taken under the
    /// vB metadata lock (lazy expiry) and under the DCP channel (a stream
    /// open copies the shard during backfill); acquires nothing itself.
    pub const CACHE_SHARD: LockRank = LockRank::new(27, "kv.cache.shard");
    /// Per-vBucket dirty-key queue (taken under the vB metadata lock when a
    /// mutation enqueues).
    pub const DIRTY_QUEUE: LockRank = LockRank::new(30, "kv.vb.dirty_queue");
    /// Per-shard flusher wakeup generation counter and list of dirty
    /// vBuckets (condvar seat).
    pub const FLUSH_SIGNAL: LockRank = LockRank::new(40, "kv.shard.signal");
    /// Group-commit log interior (file handle + length): a flusher shard's
    /// data log or a GSI partition's change log.
    pub const WAL: LockRank = LockRank::new(60, "storage.wal");
    /// Per-shard-log vBucket → index map (lookup/create).
    pub const BUCKET_MAP: LockRank = LockRank::new(70, "storage.bucket_map");
    /// Per-vBucket index interior (file handle, by-id record places,
    /// seqnos, byte counts).
    pub const VB_STORE: LockRank = LockRank::new(80, "storage.vbstore");
    /// GSI index-manager registry ((keyspace, name) → instance). Held (as
    /// a read guard) while probing per-instance state on list paths.
    pub const INDEX_REGISTRY: LockRank = LockRank::new(100, "index.manager.registry");
    /// Per-index lifecycle state (deferred/building/online). Held across
    /// partition catch-up, which locks the partition trees.
    pub const INDEX_STATE: LockRank = LockRank::new(102, "index.instance.state");
    /// Per-partition index B-tree. Innermost of the index ranks.
    pub const INDEX_TREE: LockRank = LockRank::new(104, "index.partition.tree");
    /// FTS service registry ((keyspace, name) → instance).
    pub const FTS_REGISTRY: LockRank = LockRank::new(106, "fts.service.registry");
    /// Per-FTS-index inverted index.
    pub const FTS_INDEX: LockRank = LockRank::new(107, "fts.index.inverted");
    /// Query-service request log, in-flight table. Leaf: statement-scoped
    /// insert/remove only, nothing acquired under it.
    pub const REQLOG_ACTIVE: LockRank = LockRank::new(110, "n1ql.reqlog.active");
    /// Query-service request log, completed ring. Leaf.
    pub const REQLOG_COMPLETED: LockRank = LockRank::new(120, "n1ql.reqlog.completed");
    /// In-memory test datastore's keyspace table. Leaf: document
    /// mutations and scans only.
    pub const N1QL_KEYSPACES: LockRank = LockRank::new(125, "n1ql.memds.keyspaces");
    /// Optimizer statistics memo (epoch-stamped per-keyspace snapshots).
    /// Leaf: collection closures run between, never under, the lock.
    pub const N1QL_STATS: LockRank = LockRank::new(130, "n1ql.stats");
    /// Plan-cache shard (statement → plan). Lookup consults the epoch
    /// table while holding a shard, so shards precede epochs.
    pub const N1QL_PLAN_SHARD: LockRank = LockRank::new(132, "n1ql.plancache.shard");
    /// Plan-cache keyspace epoch table. Taken under a plan-cache shard on
    /// the lookup staleness re-check.
    pub const N1QL_PLAN_EPOCHS: LockRank = LockRank::new(134, "n1ql.plancache.epochs");
    /// Prepared-statement registry. Leaf.
    pub const N1QL_PREPARED: LockRank = LockRank::new(136, "n1ql.plancache.prepared");
    /// Transaction scheduler's per-batch state (statuses, commit
    /// frontier, execution records). Held while resolving multi-version
    /// reads during validation, so it precedes the MV shards; never held
    /// across closure execution or engine/client calls.
    pub const TXN_SCHED: LockRank = LockRank::new(138, "txn.scheduler.state");
    /// One multi-version memory shard (doc key → versioned write
    /// entries). Taken under the scheduler state during validation;
    /// released before any storage fall-through.
    pub const TXN_MV: LockRank = LockRank::new(140, "txn.mv.shard");
    /// Per-batch base snapshot cache (first storage read per key).
    /// Leaf: the engine/client read happens between, never under, the
    /// lock.
    pub const TXN_BASE: LockRank = LockRank::new(142, "txn.base.snapshot");
    /// Cluster-wide committed/aborted transaction ring feeding the
    /// `system:transactions` catalog. Leaf.
    pub const TXN_LOG: LockRank = LockRank::new(144, "cluster.txn.log");
    /// A [`super::Signal`]'s condvar seat — where every seqno waiter parks
    /// (persisted, replicated, GSI- and FTS-indexed). The leaf of the whole
    /// order: a notifier may hold anything (a replica apply holds its vB
    /// metadata lock), and nothing is acquired under it — wait predicates
    /// read atomics only.
    pub const SEQNO_WAITERS: LockRank = LockRank::new(150, "common.seqno.waiters");
}

#[cfg(feature = "lock-order")]
mod tracking {
    use super::LockRank;
    use std::cell::RefCell;
    use std::panic::Location;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Held {
        rank: u32,
        name: &'static str,
        location: &'static Location<'static>,
        id: u64,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    }

    static NEXT_ID: AtomicU64 = AtomicU64::new(1);

    /// An observed "acquired `to` while holding `from`" edge, with the first
    /// site that exhibited it. Kept for diagnostics ([`super::observed_edges`]).
    #[derive(Clone, Copy)]
    pub(super) struct Edge {
        pub from: LockRank,
        pub to: LockRank,
        pub from_site: &'static Location<'static>,
        pub to_site: &'static Location<'static>,
    }

    static EDGES: parking_lot::Mutex<Vec<Edge>> = parking_lot::Mutex::new(Vec::new());

    pub(super) fn edges() -> Vec<Edge> {
        EDGES.lock().clone()
    }

    fn record_edge(from: &Held, to: LockRank, to_site: &'static Location<'static>) {
        let mut edges = EDGES.lock();
        if edges.iter().any(|e| e.from.rank == from.rank && e.to.rank == to.rank) {
            return;
        }
        edges.push(Edge {
            from: LockRank { rank: from.rank, name: from.name },
            to,
            from_site: from.location,
            to_site,
        });
    }

    /// A path `from → … → to` through the recorded acquisition edges, if one
    /// exists. On a violation this is the other half of the deadlock cycle:
    /// the thread(s) that acquired the same locks in the sanctioned order.
    fn witness_path(from: u32, to: u32) -> Option<Vec<Edge>> {
        let edges = EDGES.lock().clone();
        // Iterative DFS carrying the edge path; the graph is tiny (one node
        // per distinct rank, at most one edge per ordered pair).
        let mut stack: Vec<(u32, Vec<Edge>)> = vec![(from, Vec::new())];
        let mut visited = vec![from];
        while let Some((at, path)) = stack.pop() {
            for e in edges.iter().filter(|e| e.from.rank == at) {
                let mut path = path.clone();
                path.push(*e);
                if e.to.rank == to {
                    return Some(path);
                }
                if !visited.contains(&e.to.rank) {
                    visited.push(e.to.rank);
                    stack.push((e.to.rank, path));
                }
            }
        }
        None
    }

    pub(super) fn on_acquire(rank: LockRank, loc: &'static Location<'static>) -> u64 {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(top) = held.last() {
                if rank.rank <= top.rank {
                    // The offending edge plus any previously recorded path
                    // running the other way is the full deadlock cycle; print
                    // every contributing edge with its acquire sites, not
                    // just the pair that tripped the check.
                    let mut cycle = format!(
                        "  `{}` (rank {}) -> `{}` (rank {}): this acquisition \
                         (held at {}, acquiring at {})",
                        top.name, top.rank, rank.name, rank.rank, top.location, loc
                    );
                    match witness_path(rank.rank, top.rank) {
                        Some(path) => {
                            for e in path {
                                cycle.push_str(&format!(
                                    "\n  `{}` (rank {}) -> `{}` (rank {}): recorded earlier \
                                     (held at {}, acquired at {})",
                                    e.from.name,
                                    e.from.rank,
                                    e.to.name,
                                    e.to.rank,
                                    e.from_site,
                                    e.to_site
                                ));
                            }
                        }
                        None => cycle.push_str(
                            "\n  (no opposite-order path recorded yet: this is a rank-policy \
                             violation caught before both halves of the cycle ever ran)",
                        ),
                    }
                    panic!(
                        "lock-order violation: acquiring `{}` (rank {}) at {} while holding \
                         `{}` (rank {}) acquired at {}; witness cycle through the recorded \
                         acquisition graph:\n{}\nthe global lock order (DESIGN.md §9) requires \
                         strictly increasing ranks on each thread",
                        rank.name, rank.rank, loc, top.name, top.rank, top.location, cycle
                    );
                }
                record_edge(top, rank, loc);
            }
            held.push(Held { rank: rank.rank, name: rank.name, location: loc, id });
        });
        id
    }

    pub(super) fn on_release(id: u64) {
        // `try_with`: guards dropped during thread teardown (after the
        // thread-local is destroyed) must not double-panic.
        let _ = HELD.try_with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|h| h.id == id) {
                held.remove(pos);
            }
        });
    }

    /// RAII tracking token embedded in guards. Declared before the real guard
    /// in each wrapper struct so it is released first on drop (order between
    /// the two releases is immaterial: tracking is thread-local).
    pub(super) struct Token {
        id: u64,
    }

    impl Token {
        #[inline]
        pub(super) fn acquire(rank: LockRank, loc: &'static Location<'static>) -> Token {
            Token { id: on_acquire(rank, loc) }
        }
    }

    impl Drop for Token {
        fn drop(&mut self) {
            on_release(self.id);
        }
    }
}

/// The acquisition-order edges observed so far in this process, as
/// `((from_rank, from_name, from_site), (to_rank, to_name, to_site))`
/// strings. Empty when the `lock-order` feature is disabled. Useful for
/// dumping the live lock-rank graph from a test.
pub fn observed_edges() -> Vec<(String, String)> {
    #[cfg(feature = "lock-order")]
    {
        tracking::edges()
            .into_iter()
            .map(|e| {
                (
                    format!("{} (rank {}) at {}", e.from.name, e.from.rank, e.from_site),
                    format!("{} (rank {}) at {}", e.to.name, e.to.rank, e.to_site),
                )
            })
            .collect()
    }
    #[cfg(not(feature = "lock-order"))]
    {
        Vec::new()
    }
}

/// A `parking_lot::Mutex` that participates in the global lock order.
pub struct OrderedMutex<T: ?Sized> {
    #[cfg(feature = "lock-order")]
    rank: LockRank,
    inner: parking_lot::Mutex<T>,
}

pub struct OrderedMutexGuard<'a, T: ?Sized> {
    #[cfg(feature = "lock-order")]
    _token: tracking::Token,
    guard: parking_lot::MutexGuard<'a, T>,
}

impl<T> OrderedMutex<T> {
    #[cfg(feature = "lock-order")]
    pub const fn new(rank: LockRank, value: T) -> Self {
        OrderedMutex { rank, inner: parking_lot::Mutex::new(value) }
    }

    #[cfg(not(feature = "lock-order"))]
    #[inline]
    pub const fn new(_rank: LockRank, value: T) -> Self {
        OrderedMutex { inner: parking_lot::Mutex::new(value) }
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Non-blocking, like parking_lot's own impl: never rank-checked
        // (a Debug format must not panic the lock-order detector).
        match self.inner.try_lock() {
            Some(guard) => f.debug_struct("OrderedMutex").field("data", &&*guard).finish(),
            None => f.debug_struct("OrderedMutex").field("data", &"<locked>").finish(),
        }
    }
}

impl<T: ?Sized> OrderedMutex<T> {
    /// Acquire, checking the rank against this thread's held stack first so a
    /// violation panics before it can actually deadlock.
    #[track_caller]
    #[inline]
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        #[cfg(feature = "lock-order")]
        let token = tracking::Token::acquire(self.rank, std::panic::Location::caller());
        OrderedMutexGuard {
            #[cfg(feature = "lock-order")]
            _token: token,
            guard: self.inner.lock(),
        }
    }
}

impl<'a, T: ?Sized> OrderedMutexGuard<'a, T> {
    /// The underlying `parking_lot` guard, for `Condvar::wait*` interop.
    ///
    /// While a wait has the mutex released the tracker still counts it as
    /// held; that is sound because the thread is blocked for the whole gap
    /// and re-acquires before continuing.
    #[inline]
    pub fn inner_mut(&mut self) -> &mut parking_lot::MutexGuard<'a, T> {
        &mut self.guard
    }
}

impl<T: ?Sized> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for OrderedMutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// A `parking_lot::RwLock` that participates in the global lock order.
///
/// Read and write acquisitions are both rank-checked; recursive read locking
/// of the same lock therefore also panics (it would deadlock against a queued
/// writer under `parking_lot`'s fairness policy anyway).
pub struct OrderedRwLock<T: ?Sized> {
    #[cfg(feature = "lock-order")]
    rank: LockRank,
    inner: parking_lot::RwLock<T>,
}

pub struct OrderedRwLockReadGuard<'a, T: ?Sized> {
    #[cfg(feature = "lock-order")]
    _token: tracking::Token,
    guard: parking_lot::RwLockReadGuard<'a, T>,
}

pub struct OrderedRwLockWriteGuard<'a, T: ?Sized> {
    #[cfg(feature = "lock-order")]
    _token: tracking::Token,
    guard: parking_lot::RwLockWriteGuard<'a, T>,
}

impl<T> OrderedRwLock<T> {
    #[cfg(feature = "lock-order")]
    pub const fn new(rank: LockRank, value: T) -> Self {
        OrderedRwLock { rank, inner: parking_lot::RwLock::new(value) }
    }

    #[cfg(not(feature = "lock-order"))]
    #[inline]
    pub const fn new(_rank: LockRank, value: T) -> Self {
        OrderedRwLock { inner: parking_lot::RwLock::new(value) }
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.inner.try_read() {
            Some(guard) => f.debug_struct("OrderedRwLock").field("data", &&*guard).finish(),
            None => f.debug_struct("OrderedRwLock").field("data", &"<locked>").finish(),
        }
    }
}

impl<T: ?Sized> OrderedRwLock<T> {
    #[track_caller]
    #[inline]
    pub fn read(&self) -> OrderedRwLockReadGuard<'_, T> {
        #[cfg(feature = "lock-order")]
        let token = tracking::Token::acquire(self.rank, std::panic::Location::caller());
        OrderedRwLockReadGuard {
            #[cfg(feature = "lock-order")]
            _token: token,
            guard: self.inner.read(),
        }
    }

    #[track_caller]
    #[inline]
    pub fn write(&self) -> OrderedRwLockWriteGuard<'_, T> {
        #[cfg(feature = "lock-order")]
        let token = tracking::Token::acquire(self.rank, std::panic::Location::caller());
        OrderedRwLockWriteGuard {
            #[cfg(feature = "lock-order")]
            _token: token,
            guard: self.inner.write(),
        }
    }
}

impl<T: ?Sized> Deref for OrderedRwLockReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> Deref for OrderedRwLockWriteGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for OrderedRwLockWriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// What seqno waiters park on (DESIGN.md "one seqno watermark"). Progress
/// lives in `SeqCst` atomics the caller owns — a [`Watermarks`] vector, or
/// several engines' at once. A notifier publishes its progress and *then*
/// loads the waiter count, locking and broadcasting only if it is non-zero;
/// a waiter registers and *then* tests its predicate, under the lock, before
/// every park. One of the two sees the other, so no wake-up is missed
/// (`tests/signal_models.rs` checks it and both ways of breaking it) and a
/// notify nobody waits for is one load.
#[derive(Debug)]
pub struct Signal {
    waiters: AtomicUsize,
    seat: OrderedMutex<()>,
    cv: parking_lot::Condvar,
}

impl Default for Signal {
    fn default() -> Signal {
        Signal {
            waiters: AtomicUsize::new(0),
            seat: OrderedMutex::new(rank::SEQNO_WAITERS, ()),
            cv: parking_lot::Condvar::new(),
        }
    }
}

impl Signal {
    /// Threads inside [`Signal::wait_until`], past its fast path.
    pub fn waiters(&self) -> usize {
        self.waiters.load(Ordering::SeqCst)
    }

    /// Wake every waiter to re-test its predicate. Call *after* publishing
    /// the progress.
    #[inline]
    pub fn notify(&self) {
        if self.waiters() != 0 {
            let _seat = self.seat.lock();
            self.cv.notify_all();
        }
    }

    /// Block until `reached()` holds or `deadline` passes, never longer;
    /// returns whether it held. `reached` runs under the leaf lock: it may
    /// read atomics, nothing else.
    pub fn wait_until(&self, deadline: Deadline, reached: impl Fn() -> bool) -> bool {
        if reached() {
            return true;
        }
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let mut seat = self.seat.lock();
        let mut held = reached();
        while !held && !self.cv.wait_until(seat.inner_mut(), deadline.instant()).timed_out() {
            held = reached();
        }
        drop(seat);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        held || reached()
    }
}

/// One stage's progress per vBucket — highest assigned, persisted, GSI- or
/// FTS-indexed seqno — and the one way to wait for it. Monotone except for
/// [`Watermarks::reset`].
pub struct Watermarks {
    /// Which stage this is, for timeout messages.
    stage: &'static str,
    seqnos: Box<[AtomicU64]>,
    signal: Arc<Signal>,
}

impl Watermarks {
    /// `num_vbuckets` zeroes on a signal of their own.
    pub fn new(stage: &'static str, num_vbuckets: u16) -> Watermarks {
        Watermarks::sharing(stage, num_vbuckets, Arc::default())
    }

    /// The same on a signal shared with other vectors, so that one waiter
    /// can watch several (a durable write: any *k* of *n* replica copies).
    pub fn sharing(stage: &'static str, num_vbuckets: u16, signal: Arc<Signal>) -> Watermarks {
        let seqnos = (0..num_vbuckets).map(|_| AtomicU64::new(0)).collect();
        Watermarks { stage, seqnos, signal }
    }

    /// Threads blocked in a wait on this vector's signal.
    pub fn waiters(&self) -> usize {
        self.signal.waiters()
    }

    #[inline]
    pub fn get(&self, vb: VbId) -> SeqNo {
        SeqNo(self.seqnos[vb.index()].load(Ordering::SeqCst))
    }

    pub fn snapshot(&self) -> Vec<SeqNo> {
        self.seqnos.iter().map(|s| SeqNo(s.load(Ordering::SeqCst))).collect()
    }

    /// Allocate the next seqno of `vb`. Wakes nobody: waiters wait for a
    /// later stage to reach a seqno, not for its assignment.
    #[inline]
    pub fn next(&self, vb: VbId) -> SeqNo {
        SeqNo(self.seqnos[vb.index()].fetch_add(1, Ordering::SeqCst) + 1)
    }

    /// `vb` has reached `seqno` (no-op if it was already further).
    #[inline]
    pub fn advance(&self, vb: VbId, seqno: SeqNo) {
        self.advance_all([(vb, seqno)]);
    }

    /// A batch of advances and one wake-up. A vBucket beyond the vector is
    /// ignored.
    #[inline]
    pub fn advance_all(&self, reached: impl IntoIterator<Item = (VbId, SeqNo)>) {
        for (vb, seqno) in reached {
            if let Some(slot) = self.seqnos.get(vb.index()) {
                slot.fetch_max(seqno.0, Ordering::SeqCst);
            }
        }
        self.signal.notify();
    }

    /// `vb` was purged: back to zero. Nobody is woken — a waiter on the old
    /// lineage is not to be satisfied by the new one, and times out.
    pub fn reset(&self, vb: VbId) {
        self.seqnos[vb.index()].store(0, Ordering::SeqCst);
    }

    /// Block until `vb` has reached `seqno`; [`Error::Timeout`] at `deadline`.
    pub fn wait(&self, vb: VbId, seqno: SeqNo, deadline: Deadline) -> Result<()> {
        self.wait_for(deadline, || self.get(vb) >= seqno)
    }

    /// Block until every vBucket has reached its entry of `target` (the
    /// `request_plus` vector); [`Error::Timeout`] at `deadline`. A non-zero
    /// entry beyond the vector is never reached.
    pub fn wait_all(&self, target: &[SeqNo], deadline: Deadline) -> Result<()> {
        let at = |vb| self.seqnos.get(vb).map_or(0, |s: &AtomicU64| s.load(Ordering::SeqCst));
        self.wait_for(deadline, || target.iter().enumerate().all(|(vb, want)| at(vb) >= want.0))
    }

    fn wait_for(&self, deadline: Deadline, reached: impl Fn() -> bool) -> Result<()> {
        if self.signal.wait_until(deadline, reached) {
            return Ok(());
        }
        Err(Error::Timeout(format!("{} did not reach the awaited seqno in time", self.stage)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOW: LockRank = LockRank::new(1, "test.low");
    const HIGH: LockRank = LockRank::new(2, "test.high");

    /// Spin until a thread is parked (or about to park): forces "waiter
    /// first, then progress" without sleeping.
    fn until_waiting(waiters: impl Fn() -> usize) {
        while waiters() == 0 {
            std::thread::yield_now();
        }
    }

    fn soon() -> Deadline {
        Deadline::after(std::time::Duration::from_secs(10))
    }

    fn at_once() -> Deadline {
        Deadline::after(std::time::Duration::from_millis(20))
    }

    #[test]
    fn watermarks_allocate_advance_and_reset() {
        let w = Watermarks::new("test", 4);
        assert_eq!(w.next(VbId(1)), SeqNo(1));
        assert_eq!(w.next(VbId(1)), SeqNo(2));
        w.advance(VbId(2), SeqNo(9));
        w.advance(VbId(2), SeqNo(4)); // monotone: a lower seqno is a no-op
        w.advance(VbId(77), SeqNo(1)); // beyond the vector: ignored
        assert_eq!(w.snapshot(), [SeqNo(0), SeqNo(2), SeqNo(9), SeqNo(0)]);
        w.reset(VbId(2));
        assert_eq!(w.get(VbId(2)), SeqNo::ZERO);
        assert_eq!(w.waiters(), 0);
    }

    #[test]
    fn wait_returns_when_reached_and_times_out_when_not() {
        let w = Arc::new(Watermarks::new("test", 2));
        w.advance(VbId(0), SeqNo(3));
        w.wait(VbId(0), SeqNo(3), at_once()).expect("already there: no park");
        let started = std::time::Instant::now();
        let err = w.wait(VbId(0), SeqNo(4), at_once()).expect_err("nobody advances");
        assert!(matches!(err, Error::Timeout(_)), "{err:?}");
        assert!(started.elapsed() < std::time::Duration::from_secs(5), "returned by the deadline");
        assert_eq!(w.waiters(), 0, "a timed-out waiter deregisters");

        let w2 = Arc::clone(&w);
        let waiter = std::thread::spawn(move || w2.wait(VbId(1), SeqNo(2), soon()));
        until_waiting(|| w.waiters());
        w.advance(VbId(1), SeqNo(1)); // a wake-up that is not enough
        w.advance(VbId(1), SeqNo(2));
        waiter.join().expect("waiter thread").expect("woken by the advance");
    }

    #[test]
    fn wait_all_needs_every_entry_and_never_reaches_beyond_the_vector() {
        let w = Arc::new(Watermarks::new("test", 3));
        w.wait_all(&[SeqNo::ZERO; 5], at_once()).expect("zeros beyond the vector are fine");
        let w2 = Arc::clone(&w);
        let waiter =
            std::thread::spawn(move || w2.wait_all(&[SeqNo(1), SeqNo(0), SeqNo(2)], soon()));
        until_waiting(|| w.waiters());
        w.advance_all([(VbId(0), SeqNo(1)), (VbId(2), SeqNo(5))]);
        waiter.join().expect("waiter thread").expect("both entries reached");
        let beyond = [SeqNo(0), SeqNo(0), SeqNo(0), SeqNo(1)];
        assert!(matches!(w.wait_all(&beyond, at_once()), Err(Error::Timeout(_))));
    }

    #[test]
    fn reset_leaves_a_waiter_on_the_old_lineage_to_time_out() {
        let w = Arc::new(Watermarks::new("test", 1));
        w.advance(VbId(0), SeqNo(5));
        let w2 = Arc::clone(&w);
        let waiter = std::thread::spawn(move || w2.wait(VbId(0), SeqNo(6), at_once()));
        until_waiting(|| w.waiters());
        w.reset(VbId(0));
        w.advance(VbId(0), SeqNo(1)); // the new lineage, far from 6
        assert!(matches!(waiter.join().expect("waiter thread"), Err(Error::Timeout(_))));
    }

    #[test]
    fn one_waiter_watches_several_vectors_through_a_shared_signal() {
        let signal = Arc::new(Signal::default());
        let copies: Vec<Arc<Watermarks>> =
            (0..3).map(|_| Arc::new(Watermarks::sharing("test", 1, Arc::clone(&signal)))).collect();
        let watched = copies.clone();
        let sig = Arc::clone(&signal);
        // Any two of the three copies at seqno 1.
        let waiter = std::thread::spawn(move || {
            sig.wait_until(soon(), || {
                watched.iter().filter(|c| c.get(VbId(0)) >= SeqNo(1)).count() >= 2
            })
        });
        until_waiting(|| signal.waiters());
        copies[2].advance(VbId(0), SeqNo(1));
        copies[0].advance(VbId(0), SeqNo(1)); // copy 1 never acks
        assert!(waiter.join().expect("waiter thread"));
    }

    #[test]
    fn increasing_rank_order_is_fine() {
        let a = OrderedMutex::new(LOW, 1u32);
        let b = OrderedMutex::new(HIGH, 2u32);
        let ga = a.lock();
        let gb = b.lock();
        assert_eq!(*ga + *gb, 3);
    }

    #[test]
    fn sequential_reacquire_is_fine() {
        let a = OrderedMutex::new(LOW, 0u32);
        *a.lock() += 1;
        *a.lock() += 1;
        assert_eq!(*a.lock(), 2);
    }

    #[test]
    fn rwlock_read_then_higher_write_is_fine() {
        let a = OrderedRwLock::new(LOW, 1u32);
        let b = OrderedRwLock::new(HIGH, 0u32);
        let ga = a.read();
        *b.write() = *ga;
        drop(ga);
        assert_eq!(*b.read(), 1);
    }

    #[cfg(feature = "lock-order")]
    #[test]
    fn inverted_acquisition_panics() {
        // Run the inversion on a scratch thread so the panic (and its
        // poisoned thread-local state) cannot leak into other tests.
        let result = std::thread::spawn(|| {
            let a = OrderedMutex::new(LOW, ());
            let b = OrderedMutex::new(HIGH, ());
            let _gb = b.lock();
            let _ga = a.lock(); // rank 1 while holding rank 2: inversion
        })
        .join();
        let err = result.expect_err("inversion must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("lock-order violation"), "got: {msg}");
        assert!(msg.contains("test.low"), "panic names the acquired lock: {msg}");
        assert!(msg.contains("test.high"), "panic names the held lock: {msg}");
    }

    #[cfg(feature = "lock-order")]
    #[test]
    fn same_rank_nesting_panics() {
        let result = std::thread::spawn(|| {
            let a = OrderedMutex::new(LOW, ());
            let b = OrderedMutex::new(LOW, ());
            let _ga = a.lock();
            let _gb = b.lock(); // same rank held twice: order between them undefined
        })
        .join();
        assert!(result.is_err(), "same-rank nesting must panic");
    }

    #[cfg(feature = "lock-order")]
    #[test]
    fn rwlock_inversion_panics() {
        let result = std::thread::spawn(|| {
            let a = OrderedRwLock::new(LOW, ());
            let b = OrderedRwLock::new(HIGH, ());
            let _gb = b.read();
            let _ga = a.read(); // reads are rank-checked too
        })
        .join();
        assert!(result.is_err(), "read-lock inversion must panic");
    }

    #[cfg(feature = "lock-order")]
    #[test]
    fn release_unwinds_the_held_stack() {
        // After dropping the high-rank guard the thread may acquire lower
        // ranks again: the stack really pops.
        let a = OrderedMutex::new(LOW, ());
        let b = OrderedMutex::new(HIGH, ());
        {
            let _gb = b.lock();
        }
        let _ga = a.lock();
        let _gb = b.lock();
    }

    #[cfg(feature = "lock-order")]
    #[test]
    fn violation_panic_reports_the_full_witness_cycle() {
        const WLOW: LockRank = LockRank::new(101, "test.wit_low");
        const WHIGH: LockRank = LockRank::new(102, "test.wit_high");
        static A: OrderedMutex<()> = OrderedMutex::new(WLOW, ());
        static B: OrderedMutex<()> = OrderedMutex::new(WHIGH, ());
        // Thread 1 takes the sanctioned order, recording the low -> high edge.
        std::thread::spawn(|| {
            let _ga = A.lock();
            let _gb = B.lock();
        })
        .join()
        .unwrap();
        // Thread 2 inverts it; the panic must print *both* halves of the
        // cycle — the offending high -> low acquisition and the recorded
        // low -> high edge with its acquire sites — not just the pair.
        let err = std::thread::spawn(|| {
            let _gb = B.lock();
            let _ga = A.lock();
        })
        .join()
        .expect_err("inversion must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("witness cycle"), "got: {msg}");
        assert!(
            msg.contains("`test.wit_high` (rank 102) -> `test.wit_low` (rank 101)"),
            "offending edge printed: {msg}"
        );
        assert!(
            msg.contains("`test.wit_low` (rank 101) -> `test.wit_high` (rank 102)"),
            "recorded opposite-order edge printed: {msg}"
        );
        assert!(msg.contains("recorded earlier"), "edge provenance printed: {msg}");
    }

    #[cfg(feature = "lock-order")]
    #[test]
    fn edges_are_recorded() {
        let a = OrderedMutex::new(LockRank::new(3, "test.edge_from"), ());
        let b = OrderedMutex::new(LockRank::new(4, "test.edge_to"), ());
        let _ga = a.lock();
        let _gb = b.lock();
        let edges = observed_edges();
        assert!(
            edges.iter().any(|(f, t)| f.contains("test.edge_from") && t.contains("test.edge_to")),
            "edge recorded: {edges:?}"
        );
    }
}
