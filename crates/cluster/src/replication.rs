//! The per-bucket DCP pump: intra-cluster replication (§4.1.1) and the
//! data→index feed (Figure 9), driven off the same change streams.
//!
//! "This mutation [...] is also pushed into the in-memory replication
//! queue to be replicated to other nodes within the cluster" (§4.2, Figure
//! 6). The pump owns, per vBucket, a DCP stream from the current active
//! copy; items fan out to every replica engine (memory-to-memory) and, a
//! drained batch at a time, to the index-service managers that maintain an
//! index on the bucket. When the cluster map epoch changes
//! (failover, rebalance) the pump rebuilds its streams, resuming from the
//! destinations' high seqnos / its own index cursor.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use cbs_common::{NodeId, SeqNo, VbId};
use cbs_dcp::DcpStream;
use cbs_fts::FtsService;
use cbs_index::IndexManager;
use cbs_kv::DataEngine;

use crate::fault::{FaultAction, FaultInjector};
use crate::lag::ReplicationLagTable;
use crate::map::ClusterMap;

/// A snapshot of everything the pump needs to (re)build streams.
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

/// Callback the pump polls with the map epoch its streams were built at:
/// `None` while the bucket's map is still at that epoch — the only thing the
/// pump acts on — else a fresh topology to rebuild against.
pub type TopologyFn = Box<dyn Fn(u64) -> Option<PumpTopology> + Send>;

struct VbStreams {
    repl: Option<(NodeId, DcpStream)>,
    gsi: Option<(NodeId, DcpStream)>,
}

/// Background pump for one bucket.
pub struct ReplicationPump {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ReplicationPump {
    /// Spawn the pump on the topology the bucket was created with; `refresh`
    /// tells it when the map has moved on. `lag` is the bucket's
    /// replication-lag table; the pump samples it once per cycle after
    /// draining the streams.
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
    let mut streams: Vec<VbStreams> =
        (0..nvb).map(|_| VbStreams { repl: None, gsi: None }).collect();
    // Per-vb GSI delivery cursor (seqnos survive failover, so resuming by
    // cursor on the new active is correct).
    let mut gsi_cursors: Vec<SeqNo> = vec![SeqNo::ZERO; nvb];
    // Redelivery counts per (vb, seqno, dst) site, consulted by the fault
    // injector so it can drop attempt 0 and let the retry through. Entries
    // are removed once the site is past its fault window.
    let mut attempts: HashMap<(u16, u64, u32), u32> = HashMap::new();
    let mut gsi_batch: Vec<cbs_dcp::DcpItem> = Vec::new();

    while !stop.load(Ordering::Relaxed) {
        // Rebuild on epoch change (or when a stream's source died).
        if topo.map.epoch != built_epoch {
            for (v, slot) in streams.iter_mut().enumerate() {
                let vb = VbId(v as u16);
                let active = topo.map.active_node(vb);
                // Replication stream: resume from the lowest replica high
                // seqno so no destination misses anything.
                slot.repl = None;
                let dsts: Vec<Arc<DataEngine>> = topo
                    .map
                    .replica_nodes(vb)
                    .iter()
                    .filter_map(|n| topo.engines.get(n).cloned())
                    .collect();
                if !dsts.is_empty() {
                    if let Some(src) = topo.engines.get(&active) {
                        let since =
                            dsts.iter().map(|d| d.high_seqno(vb)).min().unwrap_or(SeqNo::ZERO);
                        if let Ok(s) = src.open_dcp_stream(vb, since) {
                            slot.repl = Some((active, s));
                        }
                    }
                }
                // GSI/FTS stream: resume from the pump's own cursor.
                slot.gsi = None;
                if !topo.index_managers.is_empty() || !topo.fts_services.is_empty() {
                    if let Some(src) = topo.engines.get(&active) {
                        if let Ok(s) = src.open_dcp_stream(vb, gsi_cursors[v]) {
                            slot.gsi = Some((active, s));
                        }
                    }
                }
            }
            built_epoch = topo.map.epoch;
        }

        let mut moved = 0usize;
        let mut dropped = false;
        for (v, slot) in streams.iter_mut().enumerate() {
            let vb = VbId(v as u16);
            if let Some((_, stream)) = &mut slot.repl {
                // Destinations cut off by a dropped delivery this cycle.
                // A drop models a connection reset: everything after the
                // dropped item is lost for that destination too, so its
                // applied set stays a contiguous seqno prefix and the
                // rebuild (which resumes from the replicas' minimum high
                // seqno) redelivers the hole. Delivering *past* a drop
                // would advance the replica's high seqno over the gap and
                // the missing item could never be recovered.
                let mut cut: Vec<NodeId> = Vec::new();
                for item in stream.drain_available() {
                    for dst_node in topo.map.replica_nodes(vb) {
                        if cut.contains(dst_node) {
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
                        // carried context and covers injected faults plus
                        // the replica apply, which nests under it.
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
                                cut.push(*dst_node);
                            }
                        }
                    }
                    moved += 1;
                }
            }
            if let Some((_, stream)) = &mut slot.gsi {
                gsi_batch.extend(stream.drain_available());
            }
        }

        // What this cycle's GSI streams held is one batch — one index-log
        // commit per index, after every replica has been served — and goes
        // only to managers that maintain an index on this bucket (the
        // others return at once, uncounted).
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
                moved += gsi_batch.len();
            } else {
                // An index log refused the batch (its manager counted it):
                // keep the cursors, so the rebuild below redelivers —
                // applies are idempotent.
                dropped = true;
            }
            gsi_batch.clear();
        }

        if dropped {
            // Connection-reset semantics for drops: tear the streams down;
            // the rebuild reopens each replication stream from the
            // replicas' minimum high seqno and each GSI stream from its
            // cursor, redelivering what was lost.
            built_epoch = u64::MAX;
        }

        // Sample per-(vBucket, replica) seqno lag against the topology this
        // cycle pumped with. The cycle counter is the lag table's logical
        // clock (window rotation included) — no wall-clock reads.
        lag.observe(&topo);

        if moved == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // One epoch comparison per cycle; a topology is assembled only when
        // the map has moved (or a drop asked for a rebuild).
        if let Some(fresh) = refresh(built_epoch) {
            topo = fresh;
        }
    }
}
