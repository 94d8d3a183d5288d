//! The per-bucket DCP pump: intra-cluster replication (§4.1.1) and the
//! data→index feed (Figure 9), driven off the same change streams.
//!
//! "This mutation [...] is also pushed into the in-memory replication
//! queue to be replicated to other nodes within the cluster" (§4.2, Figure
//! 6). The pump owns one DCP feed, subscribed once per vBucket on the
//! current active copy, and blocks on it; each drained item fans out to every
//! replica engine (memory-to-memory) and, a drained batch at a time, to the
//! index-service managers that maintain an index on the bucket. A map
//! install (failover, rebalance) wakes the same feed; when the map epoch has
//! moved, the pump resubscribes, resuming from the lowest of the
//! destinations' high seqnos and its own index cursor.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use cbs_common::{NodeId, SeqNo, VbId};
use cbs_dcp::{DcpFeed, DcpItem, FeedWaker};
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
    /// Full-text search services to feed (§6.1.3).
    pub fts_services: Vec<Arc<FtsService>>,
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
    // Per-vb GSI delivery cursor (seqnos survive failover, so resuming by
    // cursor on the new active is correct).
    let mut gsi_cursors: Vec<SeqNo> = vec![SeqNo::ZERO; topo.map.num_vbuckets() as usize];
    // Redelivery counts per (vb, seqno, dst) site, consulted by the fault
    // injector so it can drop attempt 0 and let the retry through. Entries
    // are removed once the site is past its fault window.
    let mut attempts: HashMap<(u16, u64, u32), u32> = HashMap::new();
    let mut batch: Vec<DcpItem> = Vec::new();
    let mut gsi_batch: Vec<DcpItem> = Vec::new();
    let mut subscribe = true;
    // Why the next subscription happens: `None` for the first one, which
    // the flight recorder does not log.
    let mut resubscribe: Option<&'static str> = None;

    // `stop` is read once per cycle, after any reset, so the wake that
    // came with it is either drained below or queued after the read.
    while !stop.load(Ordering::Relaxed) {
        // Subscribe each vBucket from the lowest seqno a destination still
        // needs. Replaying below the others' resume points is harmless:
        // replica applies are seqno-guarded and the GSI side is filtered by
        // its cursor below.
        if subscribe {
            let (mut vbs, mut lowest) = (0u32, None::<(SeqNo, VbId)>);
            for (v, cursor) in gsi_cursors.iter().enumerate() {
                let vb = VbId(v as u16);
                let Some(src) = topo.engines.get(&topo.map.active_node(vb)) else { continue };
                let since = topo
                    .map
                    .replica_nodes(vb)
                    .iter()
                    .filter_map(|n| topo.engines.get(n))
                    .map(|dst| dst.high_seqno(vb))
                    .fold(*cursor, SeqNo::min);
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

        // Park until something is published or the feed is woken.
        let woken = feed.drain(None, &mut batch);
        let moved = !batch.is_empty();
        let mut dropped = false;
        // (vBucket, destination) pairs cut off by a dropped delivery this
        // cycle. A drop models a connection reset: everything after the
        // dropped item is lost for that destination too, so its applied set
        // stays a contiguous seqno prefix and the resubscription (from the
        // replicas' minimum high seqno) redelivers the hole. Delivering
        // *past* a drop would advance the replica's high seqno over the gap
        // and the missing item could never be recovered.
        let mut cut: Vec<(VbId, NodeId)> = Vec::new();
        for item in batch.drain(..) {
            let vb = item.vb;
            for dst_node in topo.map.replica_nodes(vb) {
                if cut.contains(&(vb, *dst_node)) {
                    continue;
                }
                let Some(dst) = topo.engines.get(dst_node) else { continue };
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
                // Stitch the originating op's trace across the pump
                // thread: the deliver span opens a segment under the
                // carried context and covers injected faults plus the
                // replica apply, which nests under it.
                let _deliver = match (item.trace, dst.trace_sink()) {
                    (Some(ctx), Some(sink)) => {
                        Some(sink.child_of("cluster.replication.deliver", ctx))
                    }
                    _ => None,
                };
                match action {
                    FaultAction::Deliver => {
                        let _ = dst.apply_replica(&item);
                    }
                    FaultAction::Duplicate => {
                        let _ = dst.apply_replica(&item);
                        let _ = dst.apply_replica(&item);
                    }
                    FaultAction::Delay(d) => {
                        std::thread::sleep(d);
                        let _ = dst.apply_replica(&item);
                    }
                    FaultAction::Drop => {
                        dropped = true;
                        cut.push((vb, *dst_node));
                    }
                }
            }
            if item.meta.seqno > gsi_cursors[vb.index()] {
                gsi_batch.push(item);
            }
        }

        // What this drain held above the GSI cursors is one batch — one
        // index-log commit per index, after every replica has been served —
        // and goes only to managers that maintain an index on this bucket
        // (the others return at once, uncounted).
        if !gsi_batch.is_empty() {
            let mut committed = true;
            for mgr in &topo.index_managers {
                committed &= mgr.apply_batch(bucket, &gsi_batch).is_ok();
            }
            for item in &gsi_batch {
                for fts in &topo.fts_services {
                    fts.apply_dcp(bucket, item);
                }
            }
            if committed {
                for item in &gsi_batch {
                    let cursor = &mut gsi_cursors[item.vb.index()];
                    *cursor = (*cursor).max(item.meta.seqno);
                }
            } else {
                // An index log refused the batch (its manager counted it):
                // keep the cursors, so the resubscription redelivers —
                // applies are idempotent.
                dropped = true;
            }
            gsi_batch.clear();
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
