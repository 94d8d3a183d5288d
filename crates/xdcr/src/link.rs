//! An XDCR link: one direction of replication between two clusters.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use cbs_cluster::Cluster;
use cbs_common::{Error, Result, SeqNo, VbId};
use cbs_dcp::{DcpFeed, DcpItem, FeedWaker};
use cbs_kv::DataEngine;
use cbs_obs::{Counter, Gauge, Registry};

use crate::filter::KeyFilter;

/// Counters for one link, registered in the link's [`Registry`] so they
/// surface through cluster-wide stats aggregation.
#[derive(Debug)]
pub struct XdcrStats {
    /// Mutations shipped to the destination.
    pub shipped: Arc<Counter>,
    /// Mutations skipped by the key filter.
    pub filtered: Arc<Counter>,
    /// Mutations the destination refused: conflict resolution kept its own
    /// version, or the value is past its 20 MiB limit.
    pub rejected: Arc<Counter>,
    /// Largest per-vBucket distance between the source active high seqno
    /// and the link's consumed cursor — how far behind the link is on its
    /// worst vBucket.
    pub cursor_lag_max: Arc<Gauge>,
    /// Sum of the per-vBucket cursor lags — the link's total unshipped
    /// backlog in seqnos.
    pub cursor_lag_total: Arc<Gauge>,
}

impl XdcrStats {
    fn new(registry: &Registry) -> XdcrStats {
        XdcrStats {
            shipped: registry
                .counter_with_help("xdcr.link.shipped", "Mutations shipped to the destination"),
            filtered: registry
                .counter_with_help("xdcr.link.filtered", "Mutations skipped by the key filter"),
            rejected: registry.counter_with_help(
                "xdcr.link.rejected",
                "Mutations the destination refused: conflict resolution, or a value past its limit",
            ),
            cursor_lag_max: registry.gauge_with_help(
                "xdcr.link.cursor_lag_max",
                "Largest per-vBucket seqno distance between the source active and this link's \
                 consumed cursor",
            ),
            cursor_lag_total: registry.gauge_with_help(
                "xdcr.link.cursor_lag_total",
                "Total unshipped seqno backlog across vBuckets (source active high seqno minus \
                 consumed cursor)",
            ),
        }
    }
}

/// A running one-directional replication link (spawn two for
/// bi-directional topologies, as in Figure 12).
pub struct XdcrLink {
    stop: Arc<AtomicBool>,
    waker: FeedWaker,
    stats: Arc<XdcrStats>,
    registry: Arc<Registry>,
    handle: Option<JoinHandle<()>>,
}

impl XdcrLink {
    /// Start replicating `bucket` from `source` to `destination`,
    /// optionally restricted to keys matching `filter`.
    pub fn start(
        source: Arc<Cluster>,
        destination: Arc<Cluster>,
        bucket: &str,
        filter: Option<KeyFilter>,
    ) -> Result<XdcrLink> {
        // Validate both ends up front.
        source.num_vbuckets(bucket)?;
        destination.num_vbuckets(bucket)?;
        // The feed follows the source's map from before the link first
        // reads it.
        let feed = DcpFeed::default();
        let waker = feed.waker();
        source.watch_map(bucket, waker.clone())?;
        let stop = Arc::new(AtomicBool::new(false));
        let registry = Arc::new(Registry::new("xdcr"));
        let stats = Arc::new(XdcrStats::new(&registry));
        let stop2 = Arc::clone(&stop);
        let stats2 = Arc::clone(&stats);
        let bucket = bucket.to_string();
        let handle = std::thread::Builder::new()
            .name(format!("xdcr-{bucket}"))
            .spawn(move || link_loop(&source, &destination, &bucket, filter, feed, &stop2, &stats2))
            .expect("spawn xdcr link");
        Ok(XdcrLink { stop, waker, stats, registry, handle: Some(handle) })
    }

    /// Link counters.
    pub fn stats(&self) -> &XdcrStats {
        &self.stats
    }

    /// The link's metrics registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Stop the link (what dropping it does).
    pub fn shutdown(self) {}
}

/// Dropping the link wakes it to stop and joins its thread.
impl Drop for XdcrLink {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.waker.wake();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn link_loop(
    source: &Cluster,
    destination: &Cluster,
    bucket: &str,
    filter: Option<KeyFilter>,
    mut feed: DcpFeed,
    stop: &AtomicBool,
    stats: &XdcrStats,
) {
    let Ok(nvb) = source.num_vbuckets(bucket) else { return };
    let nvb = nvb as usize;
    // One feed over the source actives, resubscribed when a wake finds the
    // map epoch moved; the engines are kept for the lag gauges, which read
    // their high seqnos.
    let mut engines: Vec<Option<Arc<DataEngine>>> = vec![None; nvb];
    let mut cursors: Vec<SeqNo> = vec![SeqNo::ZERO; nvb];
    let mut built_epoch = None;
    let mut subscribe = true;
    let mut batch: Vec<DcpItem> = Vec::new();

    // `stop` is read once per cycle, after any reset, so the wake that
    // came with it is either drained below or queued after the read.
    while !stop.load(Ordering::Relaxed) {
        if subscribe {
            let Ok(map) = source.map(bucket) else { return };
            // Restart from zero after a map change: a promoted replica may
            // be *behind* the consumed cursor (async replication), and its
            // new writes would reuse already-consumed seqnos and be skipped
            // forever. Re-shipping is idempotent — destination conflict
            // resolution rejects items it already has.
            if built_epoch.is_some_and(|built| built != map.epoch) {
                cursors.fill(SeqNo::ZERO);
            }
            for (v, engine) in engines.iter_mut().enumerate() {
                let vb = VbId(v as u16);
                *engine = source.node(map.active_node(vb)).and_then(|n| n.engine(bucket)).ok();
                if let Some(e) = engine {
                    let _ = e.subscribe_dcp(&feed, vb, cursors[v]);
                }
            }
            built_epoch = Some(map.epoch);
        }

        // Park until the source publishes or the feed is woken.
        let woken = feed.drain(None, &mut batch);
        let mut reset = false;
        for item in batch.drain(..) {
            let v = item.vb.index();
            if filter.as_ref().is_some_and(|f| !f.matches(&item.key)) {
                stats.filtered.inc();
            } else {
                // Topology-aware routing: hash the key against the
                // *destination's* partitioning (it may differ from ours).
                let dest_vb = VbId(cbs_common::vbucket_for_key(
                    item.key.as_bytes(),
                    destination.num_vbuckets(bucket).unwrap_or(1024),
                ));
                match destination.active_engine(bucket, dest_vb).and_then(|e| {
                    e.set_with_meta(&item.key, item.meta, item.value.clone(), item.is_deletion())
                }) {
                    Ok(true) => stats.shipped.inc(),
                    // A value past the destination's limit — one a log
                    // written before the limit can hold — is refused on
                    // every redelivery: it is not a reason to reset.
                    Ok(false) | Err(Error::ValueTooLarge(_)) => stats.rejected.inc(),
                    Err(_) => {
                        // Destination temporarily unavailable (failover in
                        // progress): a connection reset. The rest of this
                        // batch goes with the feed; the resubscription
                        // redelivers from the cursors, this item included.
                        reset = true;
                        break;
                    }
                }
            }
            cursors[v] = cursors[v].max(item.meta.seqno);
        }
        // A connection reset resubscribes at once; a wake does only if the
        // source map has moved past the epoch the feed was built at.
        subscribe = reset || (woken && source.map(bucket).ok().map(|m| m.epoch) != built_epoch);
        if subscribe {
            // A fresh queue, its waker re-pointed *before* the map is read.
            feed.reset();
        }
        // Cursor lag: how far each vBucket's consumed cursor trails the
        // source active's high seqno — the link's unshipped backlog.
        let mut lag_max = 0u64;
        let mut lag_total = 0u64;
        for (v, (src, cursor)) in engines.iter().zip(&cursors).enumerate() {
            if let Some(src) = src {
                let lag = src.high_seqno(VbId(v as u16)).0.saturating_sub(cursor.0);
                lag_max = lag_max.max(lag);
                lag_total += lag;
            }
        }
        stats.cursor_lag_max.set(lag_max);
        stats.cursor_lag_total.set(lag_total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_cluster::{ClusterConfig, SmartClient};
    use cbs_common::DocMeta;
    use cbs_json::Value;
    use std::time::Duration;

    fn two_clusters() -> (Arc<Cluster>, Arc<Cluster>) {
        // Different sizes: topology-aware routing must handle different
        // partition counts per §4.6.
        let a = Cluster::homogeneous(2, ClusterConfig::for_test(32, 0));
        let b = Cluster::homogeneous(3, ClusterConfig::for_test(64, 0));
        a.create_bucket("default").unwrap();
        b.create_bucket("default").unwrap();
        (a, b)
    }

    fn wait_for(timeout: Duration, mut f: impl FnMut() -> bool) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while std::time::Instant::now() < deadline {
            if f() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        f()
    }

    fn doc(v: i64) -> Value {
        Value::object([("v", Value::int(v))])
    }

    #[test]
    fn unidirectional_replication() {
        let (src, dst) = two_clusters();
        let link = XdcrLink::start(Arc::clone(&src), Arc::clone(&dst), "default", None).unwrap();
        let src_client = SmartClient::connect(Arc::clone(&src), "default").unwrap();
        let dst_client = SmartClient::connect(Arc::clone(&dst), "default").unwrap();
        for i in 0..50 {
            src_client.upsert(&format!("k{i}"), doc(i)).unwrap();
        }
        assert!(
            wait_for(Duration::from_secs(10), || (0..50)
                .all(|i| dst_client.get(&format!("k{i}")).is_ok())),
            "all documents replicate to the destination"
        );
        assert_eq!(dst_client.get("k7").unwrap().value, doc(7));
        // Deletions replicate too.
        src_client.remove("k7", cbs_common::Cas::WILDCARD).unwrap();
        // The destination shows the deletion inside `set_with_meta`; the
        // link counts it as shipped only after that call returns.
        assert!(
            wait_for(Duration::from_secs(10), || dst_client.get("k7").is_err()
                && link.stats().shipped.get() >= 51),
            "the deletion replicates and is counted as shipped"
        );
        link.shutdown();
    }

    /// A document past the destination's 20 MiB value limit, which the
    /// source can hold from a log written before the limit, is refused by
    /// `set_with_meta` on every delivery: the link counts it as rejected
    /// and goes on, rather than resetting and meeting it again for ever.
    #[test]
    fn a_value_past_the_limit_is_rejected_and_the_link_goes_on() {
        use cbs_common::{vbucket_for_key, Cas, RevNo, MAX_VALUE_LEN};
        use cbs_dcp::DcpSink;
        use cbs_kv::VbState;
        let (src, dst) = two_clusters();
        let vb = VbId(vbucket_for_key(b"big", 32));
        // The source takes the document as a replica would, past its own
        // entry points' check, then serves it as active again.
        let engine = src.active_engine("default", vb).unwrap();
        let big = Value::from("x".repeat(MAX_VALUE_LEN).as_str());
        let meta = DocMeta { seqno: SeqNo(1), cas: Cas(1), rev: RevNo(1), flags: 0, expiry: 0 };
        engine.set_vb_state(vb, VbState::Replica);
        let item = DcpItem::mutation(vb, "big", meta, big);
        DcpSink::apply(&*engine, &[item], &[(vb, SeqNo(1))]).unwrap();
        engine.set_vb_state(vb, VbState::Active);
        let after = (0..)
            .map(|i| format!("after{i}"))
            .find(|k| vbucket_for_key(k.as_bytes(), 32) == vb.0)
            .unwrap();
        let link = XdcrLink::start(Arc::clone(&src), Arc::clone(&dst), "default", None).unwrap();
        let src_client = SmartClient::connect(Arc::clone(&src), "default").unwrap();
        let dst_client = SmartClient::connect(Arc::clone(&dst), "default").unwrap();
        src_client.upsert(&after, doc(1)).unwrap();
        assert!(
            wait_for(Duration::from_secs(10), || dst_client.get(&after).is_ok()),
            "the write behind the refused document replicates"
        );
        assert_eq!(link.stats().rejected.get(), 1);
        assert!(dst_client.get("big").is_err());
        link.shutdown();
    }

    #[test]
    fn filtered_replication() {
        let (src, dst) = two_clusters();
        let filter = KeyFilter::compile("^eu::").unwrap();
        let link =
            XdcrLink::start(Arc::clone(&src), Arc::clone(&dst), "default", Some(filter)).unwrap();
        let src_client = SmartClient::connect(Arc::clone(&src), "default").unwrap();
        let dst_client = SmartClient::connect(Arc::clone(&dst), "default").unwrap();
        for i in 0..20 {
            src_client.upsert(&format!("eu::{i}"), doc(i)).unwrap();
            src_client.upsert(&format!("us::{i}"), doc(i)).unwrap();
        }
        assert!(wait_for(Duration::from_secs(10), || (0..20)
            .all(|i| dst_client.get(&format!("eu::{i}")).is_ok())));
        // Give the link a beat, then confirm non-matching keys never came.
        std::thread::sleep(Duration::from_millis(100));
        for i in 0..20 {
            assert!(dst_client.get(&format!("us::{i}")).is_err(), "us:: keys filtered out");
        }
        assert_eq!(link.stats().filtered.get(), 20);
        link.shutdown();
    }

    #[test]
    fn bidirectional_convergence_same_winner() {
        let (a, b) = two_clusters();
        let a_client = SmartClient::connect(Arc::clone(&a), "default").unwrap();
        let b_client = SmartClient::connect(Arc::clone(&b), "default").unwrap();

        // Conflict: both clusters mutate the same key before any
        // replication. Cluster A updates it 3 times, cluster B once —
        // "the document with the most updates is considered the winner."
        for i in 0..3 {
            a_client.upsert("conflict", doc(100 + i)).unwrap();
        }
        b_client.upsert("conflict", doc(999)).unwrap();

        let ab = XdcrLink::start(Arc::clone(&a), Arc::clone(&b), "default", None).unwrap();
        let ba = XdcrLink::start(Arc::clone(&b), Arc::clone(&a), "default", None).unwrap();

        assert!(
            wait_for(Duration::from_secs(10), || {
                let va = a_client.get("conflict").map(|g| g.value).ok();
                let vb = b_client.get("conflict").map(|g| g.value).ok();
                va.is_some() && va == vb
            }),
            "both clusters converge to one winner"
        );
        // The winner is A's version (rev 3 beats rev 1).
        assert_eq!(a_client.get("conflict").unwrap().value, doc(102));
        assert_eq!(b_client.get("conflict").unwrap().value, doc(102));
        // And the metadata converged identically (rev preserved on apply).
        let ma: DocMeta = a_client.get("conflict").unwrap().meta;
        let mb: DocMeta = b_client.get("conflict").unwrap().meta;
        assert_eq!(ma.rev, mb.rev);
        ab.shutdown();
        ba.shutdown();
    }

    #[test]
    fn equal_rev_ties_break_on_cas_deterministically() {
        let (a, b) = two_clusters();
        let a_client = SmartClient::connect(Arc::clone(&a), "default").unwrap();
        let b_client = SmartClient::connect(Arc::clone(&b), "default").unwrap();
        // One update on each side: equal rev counts, CAS breaks the tie.
        a_client.upsert("tie", doc(1)).unwrap();
        b_client.upsert("tie", doc(2)).unwrap();
        let ab = XdcrLink::start(Arc::clone(&a), Arc::clone(&b), "default", None).unwrap();
        let ba = XdcrLink::start(Arc::clone(&b), Arc::clone(&a), "default", None).unwrap();
        assert!(wait_for(Duration::from_secs(10), || {
            let va = a_client.get("tie").map(|g| g.value).ok();
            let vb = b_client.get("tie").map(|g| g.value).ok();
            va.is_some() && va == vb
        }));
        ab.shutdown();
        ba.shutdown();
    }

    #[test]
    fn replication_continues_after_source_failover() {
        let src = Cluster::homogeneous(3, ClusterConfig::for_test(32, 1));
        src.create_bucket("default").unwrap();
        let dst = Cluster::homogeneous(2, ClusterConfig::for_test(32, 0));
        dst.create_bucket("default").unwrap();
        let link = XdcrLink::start(Arc::clone(&src), Arc::clone(&dst), "default", None).unwrap();
        let src_client = SmartClient::connect(Arc::clone(&src), "default").unwrap();
        let dst_client = SmartClient::connect(Arc::clone(&dst), "default").unwrap();
        for i in 0..30 {
            src_client.upsert(&format!("k{i}"), doc(i)).unwrap();
        }
        assert!(wait_for(Duration::from_secs(10), || (0..30)
            .all(|i| dst_client.get(&format!("k{i}")).is_ok())));
        // Kill + fail over a source node, keep writing.
        src.kill_node(cbs_common::NodeId(1)).unwrap();
        src.failover(cbs_common::NodeId(1)).unwrap();
        for i in 30..60 {
            src_client.upsert(&format!("k{i}"), doc(i)).unwrap();
        }
        assert!(
            wait_for(Duration::from_secs(10), || (30..60)
                .all(|i| dst_client.get(&format!("k{i}")).is_ok())),
            "XDCR re-opens streams from the promoted actives"
        );
        link.shutdown();
    }

    /// Voluntary context switches, summed, of this process's threads whose
    /// name starts with `prefix` (`None`: no such thread). Linux only.
    #[cfg(target_os = "linux")]
    fn voluntary_switches(prefix: &str) -> Option<u64> {
        let mut total = None;
        for task in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
            let name = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
            if !name.starts_with(prefix) {
                continue;
            }
            let status = std::fs::read_to_string(task.path().join("status")).unwrap_or_default();
            let switches = status.lines().find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"));
            *total.get_or_insert(0) += switches.and_then(|n| n.trim().parse::<u64>().ok())?;
        }
        total
    }

    /// An idle link stays parked — nothing wakes it while the source
    /// publishes nothing and installs no map — and dropping it wakes it to
    /// stop rather than leaving it a flag to poll.
    #[cfg(target_os = "linux")]
    #[test]
    fn idle_link_stays_parked_and_stops_on_drop() {
        // A bucket name of its own: the thread is `xdcr-parked`, not shared
        // with the other tests' links in this process.
        let src = Cluster::homogeneous(2, ClusterConfig::for_test(32, 0));
        let dst = Cluster::homogeneous(2, ClusterConfig::for_test(32, 0));
        src.create_bucket("parked").unwrap();
        dst.create_bucket("parked").unwrap();
        let link = XdcrLink::start(Arc::clone(&src), Arc::clone(&dst), "parked", None).unwrap();
        SmartClient::connect(Arc::clone(&src), "parked").unwrap().upsert("k", doc(1)).unwrap();
        let dst_client = SmartClient::connect(Arc::clone(&dst), "parked").unwrap();
        assert!(wait_for(Duration::from_secs(10), || dst_client.get("k").is_ok()));
        std::thread::sleep(Duration::from_millis(20));

        let before = voluntary_switches("xdcr-parked").expect("the link thread runs");
        std::thread::sleep(Duration::from_millis(500));
        let woke = voluntary_switches("xdcr-parked").unwrap() - before;
        assert!(woke <= 5, "an idle link woke {woke} times in 500 ms");

        let started = std::time::Instant::now();
        drop(link);
        assert!(started.elapsed() < Duration::from_secs(1), "drop took {:?}", started.elapsed());
        assert_eq!(voluntary_switches("xdcr-parked"), None, "the link thread was joined");
    }
}
