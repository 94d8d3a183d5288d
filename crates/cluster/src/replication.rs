//! The per-bucket DCP pump: intra-cluster replication (§4.1.1) and the
//! data→index feed (Figure 9), driven off the same change streams.
//!
//! "This mutation [...] is also pushed into the in-memory replication
//! queue to be replicated to other nodes within the cluster" (§4.2, Figure
//! 6). The pump owns one DCP feed, subscribed once per vBucket on the
//! current active copy, and blocks on it; each drained item fans out to every
//! replica engine (memory-to-memory) and, a drained batch at a time, to the
//! index-service managers that maintain an index on the bucket. When the
//! cluster map epoch changes (failover, rebalance) the pump resubscribes a
//! fresh feed, resuming from the lowest of the destinations' high seqnos
//! and its own index cursor.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use cbs_common::{NodeId, SeqNo, VbId};
use cbs_dcp::{DcpFeed, DcpItem};
use cbs_fts::FtsService;
use cbs_index::IndexManager;
use cbs_kv::DataEngine;

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

/// Callback the pump polls with the map epoch its feed was subscribed at:
/// `None` while the bucket's map is still at that epoch — the only thing the
/// pump acts on — else a fresh topology to rebuild against.
pub type TopologyFn = Box<dyn Fn(u64) -> Option<PumpTopology> + Send>;

/// Background pump for one bucket.
pub struct ReplicationPump {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ReplicationPump {
    /// Spawn the pump on the topology the bucket was created with; `refresh`
    /// tells it when the map has moved on. `lag` is the bucket's
    /// replication-lag table; the pump samples it after every drain that
    /// moved something.
    pub fn spawn(
        bucket: String,
        topo: PumpTopology,
        refresh: TopologyFn,
        lag: Arc<ReplicationLagTable>,
    ) -> ReplicationPump {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(format!("dcp-pump-{bucket}"))
            .spawn(move || pump_loop(&bucket, topo, refresh, stop2, &lag))
            .expect("spawn replication pump");
        ReplicationPump { stop, handle: Some(handle) }
    }
}

/// Dropping the pump stops it and joins its thread.
impl Drop for ReplicationPump {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn pump_loop(
    bucket: &str,
    mut topo: PumpTopology,
    refresh: TopologyFn,
    stop: Arc<AtomicBool>,
    lag: &ReplicationLagTable,
) {
    let mut built_epoch: u64 = u64::MAX;
    let nvb = topo.map.num_vbuckets() as usize;
    let mut feed = DcpFeed::default();
    // Per-vb GSI delivery cursor (seqnos survive failover, so resuming by
    // cursor on the new active is correct).
    let mut gsi_cursors: Vec<SeqNo> = vec![SeqNo::ZERO; nvb];
    // Redelivery counts per (vb, seqno, dst) site, consulted by the fault
    // injector so it can drop attempt 0 and let the retry through. Entries
    // are removed once the site is past its fault window.
    let mut attempts: HashMap<(u16, u64, u32), u32> = HashMap::new();
    let mut batch: Vec<DcpItem> = Vec::new();
    let mut gsi_batch: Vec<DcpItem> = Vec::new();

    while !stop.load(Ordering::Relaxed) {
        // Resubscribe on epoch change or connection reset: a fresh feed
        // (what the old one still queued goes with it), each vBucket from
        // the lowest seqno a destination still needs. Replaying below the
        // others' resume points is harmless: replica applies are
        // seqno-guarded and the GSI side is filtered by its cursor below.
        let rebuilt = topo.map.epoch != built_epoch;
        if rebuilt {
            feed = DcpFeed::default();
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
            }
            built_epoch = topo.map.epoch;
        }

        // Park until something is published; the bound is only how often
        // `stop` and the map epoch are re-read.
        feed.drain(Duration::from_millis(1), &mut batch);
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

        if dropped {
            // Connection reset: resubscribe, redelivering what was lost.
            built_epoch = u64::MAX;
        }

        // Sample per-(vBucket, replica) seqno lag against the topology this
        // cycle pumped with, unless it was idle (lag cannot have changed).
        // The cycle counter is the lag table's logical clock (window
        // rotation included) — no wall-clock reads.
        if moved || rebuilt {
            lag.observe(&topo);
        }
        // One epoch comparison per cycle; a topology is assembled only when
        // the map has moved (or a drop asked for a resubscription).
        if let Some(fresh) = refresh(built_epoch) {
            topo = fresh;
        }
    }
}
