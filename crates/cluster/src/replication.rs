//! The per-bucket DCP pump: intra-cluster replication (§4.1.1) and the
//! data→index feed (Figure 9), driven off the same change streams.
//!
//! "This mutation [...] is also pushed into the in-memory replication
//! queue to be replicated to other nodes within the cluster" (§4.2, Figure
//! 6). The pump owns one DCP feed, subscribed once per vBucket on the
//! current active copy, and blocks on it. Each drain is one batch per sink
//! (`cbs_dcp::DcpSink`): per replica engine, the items of the vBuckets it
//! replicates (memory-to-memory), then per index-service manager and search
//! service, the whole drain. A map install (failover, rebalance) wakes the
//! same feed; when the map epoch has moved, the pump resubscribes each
//! vBucket from its sinks' lowest resume point.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use cbs_common::{NodeId, SeqNo, VbId};
use cbs_dcp::{DcpFeed, DcpItem, DcpSink, FeedWaker};
use cbs_fts::FtsService;
use cbs_index::IndexManager;
use cbs_kv::DataEngine;

use crate::cluster::{topology_snapshot, ClusterInner};
use crate::fault::{FaultAction, FaultInjector};
use crate::lag::ReplicationLagTable;
use crate::map::ClusterMap;

/// A snapshot of everything the pump needs to (re)subscribe its feed.
pub struct PumpTopology {
    /// Current map.
    pub map: ClusterMap,
    /// Data engines by node.
    pub engines: HashMap<NodeId, Arc<DataEngine>>,
    /// Index managers to feed.
    pub index_managers: Vec<Arc<IndexManager>>,
    /// The full-text search service to feed (§6.1.3).
    pub fts: Arc<FtsService>,
    /// Fault hooks for replica deliveries (chaos testing; `None` in
    /// production).
    pub injector: Option<Arc<dyn FaultInjector>>,
}

/// Background pump for one bucket.
pub struct ReplicationPump {
    stop: Arc<AtomicBool>,
    /// Wakes the pump's feed: a watcher of the bucket's map.
    pub(crate) waker: FeedWaker,
    handle: Option<JoinHandle<()>>,
}

impl ReplicationPump {
    /// Spawn the pump; the caller makes its `waker` a watcher of the
    /// bucket's map (and wakes it once, for whatever was installed before).
    /// `lag` is the bucket's replication-lag table; the pump samples it
    /// after every drain that moved something.
    pub(crate) fn spawn(
        bucket: &str,
        inner: Arc<ClusterInner>,
        lag: Arc<ReplicationLagTable>,
    ) -> ReplicationPump {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let feed = DcpFeed::default();
        let waker = feed.waker();
        let bucket = bucket.to_string();
        let handle = std::thread::Builder::new()
            .name(format!("dcp-pump-{bucket}"))
            .spawn(move || pump_loop(&bucket, &inner, feed, &stop2, &lag))
            .expect("spawn replication pump");
        ReplicationPump { stop, waker, handle: Some(handle) }
    }
}

/// Dropping the pump wakes it to stop and joins its thread.
impl Drop for ReplicationPump {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.waker.wake();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn pump_loop(
    bucket: &str,
    inner: &ClusterInner,
    mut feed: DcpFeed,
    stop: &AtomicBool,
    lag: &ReplicationLagTable,
) {
    let mut topo = topology_snapshot(inner, bucket);
    // Redelivery counts per (vb, seqno, dst) site, consulted by the fault
    // injector so it can drop attempt 0 and let the retry through. Entries
    // are removed once the site is past its fault window.
    let mut attempts: HashMap<(u16, u64, u32), u32> = HashMap::new();
    let mut batch: Vec<DcpItem> = Vec::new();
    let mut subscribe = true;
    // Why the next subscription happens: `None` for the first one, which
    // the flight recorder does not log.
    let mut resubscribe: Option<&'static str> = None;

    // `stop` is read once per cycle, after any reset, so the wake that
    // came with it is either drained below or queued after the read.
    while !stop.load(Ordering::Relaxed) {
        // Subscribe each vBucket from its sinks' lowest resume point (from
        // its high seqno if none keeps anything of it): below a sink's own
        // resume point, a re-delivery is a no-op.
        if subscribe {
            let (mut vbs, mut lowest) = (0u32, None::<(SeqNo, VbId)>);
            let indexes: Vec<_> = topo.index_managers.iter().map(|m| m.sink(bucket)).collect();
            let search = topo.fts.sink(bucket);
            for v in 0..topo.map.num_vbuckets() {
                let vb = VbId(v);
                let Some(src) = topo.engines.get(&topo.map.active_node(vb)) else { continue };
                let replicas =
                    topo.map.replica_nodes(vb).iter().filter_map(|n| topo.engines.get(n));
                let since = (replicas.map(|dst| dst.resume_point(vb)))
                    .chain(indexes.iter().map(|sink| sink.resume_point(vb)))
                    .chain([search.resume_point(vb)])
                    .flatten()
                    .fold(src.high_seqno(vb), SeqNo::min);
                let _ = src.subscribe_dcp(&feed, vb, since);
                vbs += 1;
                if lowest.is_none_or(|(low, _)| since < low) {
                    lowest = Some((since, vb));
                }
            }
            if let Some(reason) = resubscribe {
                let (since, vb) = lowest.unwrap_or((SeqNo::ZERO, VbId(0)));
                inner.events.record_event_with_help(
                    "cluster.events.pump_resubscribe",
                    "the replication pump resubscribed its feed: a new map or a dropped delivery",
                    &[
                        ("bucket", bucket.to_string()),
                        ("reason", reason.to_string()),
                        ("epoch", topo.map.epoch.to_string()),
                        ("vbuckets", vbs.to_string()),
                        ("lowest_since", since.0.to_string()),
                        ("lowest_vb", vb.0.to_string()),
                    ],
                );
            }
            lag.observe(&topo);
        }

        // Park until something is published or the feed is woken; then one
        // run per vBucket, each in seqno order (the sort is stable).
        let woken = feed.drain(None, &mut batch);
        let moved = !batch.is_empty();
        batch.sort_by_key(|item| item.vb);
        let mut dropped = false;
        for (dst_node, dst) in &topo.engines {
            let (mut items, mut upto) = (Vec::new(), Vec::new());
            for run in batch.chunk_by(|a, b| a.vb == b.vb) {
                let vb = run[0].vb;
                if !topo.map.replica_nodes(vb).contains(dst_node) {
                    continue;
                }
                // A drop models a connection reset: everything after the
                // dropped item is lost for this destination too, so its
                // applied set stays a contiguous seqno prefix and the
                // resubscription redelivers the hole. Delivering *past* a
                // drop would advance the replica's resume point over the
                // gap and the missing item could never be recovered.
                let mut mark = None;
                for item in run {
                    let action = match &topo.injector {
                        Some(inj) => {
                            let site = (vb.0, item.meta.seqno.0, dst_node.0);
                            let attempt = *attempts.entry(site).or_insert(0);
                            let a = inj.repl_delivery(vb, item.meta.seqno, *dst_node, attempt);
                            if a == FaultAction::Drop {
                                attempts.insert(site, attempt + 1);
                            } else {
                                attempts.remove(&site);
                            }
                            a
                        }
                        None => FaultAction::Deliver,
                    };
                    // Stitch the originating op's trace across the pump: the
                    // deliver span covers injected faults under the carried
                    // context, and the replica apply is its child.
                    let deliver = match (item.trace, dst.trace_sink()) {
                        (Some(ctx), Some(sink)) => {
                            Some(sink.child_of("cluster.replication.deliver", ctx))
                        }
                        _ => None,
                    };
                    let copies = match action {
                        FaultAction::Deliver => 1,
                        FaultAction::Duplicate => 2,
                        FaultAction::Delay(d) => {
                            std::thread::sleep(d);
                            1
                        }
                        FaultAction::Drop => {
                            dropped = true;
                            break;
                        }
                    };
                    let trace = deliver.and_then(|span| span.ctx()).or(item.trace);
                    items.extend(std::iter::repeat_n(DcpItem { trace, ..item.clone() }, copies));
                    mark = Some(item.meta.seqno);
                }
                upto.extend(mark.map(|mark| (vb, mark)));
            }
            // A replica that refused its batch (a cache full of dirty
            // versions) keeps its resume point; the resubscription redelivers.
            if !upto.is_empty() {
                dropped |= dst.apply(&items, &upto).is_err();
            }
        }

        // Then, after every replica, the bucket's indexes and search indexes:
        // one batch each (one log commit per index), redelivered if refused.
        if moved {
            let runs = batch.chunk_by(|a, b| a.vb == b.vb);
            let upto: Vec<_> = runs.map(|run| (run[0].vb, run[run.len() - 1].meta.seqno)).collect();
            for mgr in &topo.index_managers {
                dropped |= mgr.sink(bucket).apply(&batch, &upto).is_err();
            }
            dropped |= topo.fts.sink(bucket).apply(&batch, &upto).is_err();
            batch.clear();
        }

        // Sample per-(vBucket, replica) seqno lag against the topology this
        // cycle pumped with. The cycle counter is the lag table's logical
        // clock (window rotation included) — no wall-clock reads.
        if moved {
            lag.observe(&topo);
        }
        // A connection reset resubscribes at once; a wake does only if the
        // map has moved past the topology the feed was built from.
        let map_moved = || inner.read_map(bucket, |m| m.epoch).is_ok_and(|e| e != topo.map.epoch);
        subscribe = dropped || (woken && map_moved());
        resubscribe = Some(if dropped { "reset" } else { "map" });
        if subscribe {
            // A fresh queue (what the old one still held goes with it), its
            // waker re-pointed *before* the topology is read.
            feed.reset();
            topo = topology_snapshot(inner, bucket);
        }
    }
}
