//! The DCP hub: per-vBucket publish/subscribe with race-free backfill
//! hand-off; the producer and consumer contracts beside it.

use std::sync::Arc;

use cbs_common::sync::{rank, OrderedMutex};
use cbs_common::{Result, SeqNo, VbId};
use cbs_obs::{span, Counter, Registry};
use crossbeam::channel::Sender;

use crate::feed::{DcpEvent, DcpFeed};
use crate::item::DcpItem;

/// Source of historical changes: a subscription's backfill and every
/// catch-up snapshot. Implemented by the data service, memory first:
/// resident documents come from the cache and only evicted ones from the
/// storage engine, so a snapshot from seqno 0 sees every acknowledged write
/// even before the flusher has run.
pub trait BackfillSource: Send + Sync {
    /// The latest version of documents in `vb` with seqno > `since`, in
    /// seqno order, and a resume point `high` (at least `since`): every
    /// version with a seqno in `(since, high]` is returned, or superseded
    /// by a returned version. Versions above `high` may be returned too, so
    /// a caller resuming from `high` can be handed one again; one resuming
    /// from the newest *returned* seqno could skip a write.
    fn backfill(&self, vb: VbId, since: SeqNo) -> Result<(Vec<DcpItem>, SeqNo)>;
}

/// A closure is a source: one that picks its engine per vBucket, say.
impl<F> BackfillSource for F
where
    F: Fn(VbId, SeqNo) -> Result<(Vec<DcpItem>, SeqNo)> + Send + Sync,
{
    fn backfill(&self, vb: VbId, since: SeqNo) -> Result<(Vec<DcpItem>, SeqNo)> {
        self(vb, since)
    }
}

/// A consumer that resumes each vBucket by seqno (§4.3.2). Per vBucket, a
/// batch holds or supersedes every version between the sink's resume point
/// and its mark; `apply` moves the resume point to the mark, never to an
/// item above it (a snapshot may return versions newer than its `high`:
/// they are applied, and come back next time); re-delivering what is at or
/// below the resume point changes nothing.
pub trait DcpSink {
    /// Apply `items` — of any vBuckets, each vBucket's in seqno order — and
    /// move each vBucket of `upto` to its mark; every vBucket with items
    /// has one. On an error a vBucket's resume point is where it was or at
    /// its mark.
    fn apply(&self, items: &[DcpItem], upto: &[(VbId, SeqNo)]) -> Result<()>;

    /// Where a stream or snapshot of `vb` resumes; `None` if the sink keeps
    /// nothing of it. A sink still being built reports zero.
    fn resume_point(&self, vb: VbId) -> Option<SeqNo>;
}

/// Catch `sink` up on `vbs`: per vBucket, a snapshot from the sink's resume
/// point, applied up to its `high`. Snapshots are gathered into one `apply`
/// until they hold `batch` items (0: one per vBucket). Returns each
/// snapshot's vBucket, `since`, `high` and number of items.
pub fn catch_up<S: DcpSink + ?Sized>(
    source: &(impl BackfillSource + ?Sized),
    sink: &S,
    vbs: impl IntoIterator<Item = VbId>,
    batch: usize,
) -> Result<Vec<(VbId, SeqNo, SeqNo, usize)>> {
    let (mut items, mut upto, mut caught) = (Vec::new(), Vec::new(), Vec::new());
    for vb in vbs {
        let Some(since) = sink.resume_point(vb) else { continue };
        let (snapshot, high) = source.backfill(vb, since)?;
        caught.push((vb, since, high, snapshot.len()));
        items.extend(snapshot);
        upto.push((vb, high));
        if items.len() >= batch {
            sink.apply(&items, &upto)?;
            (items, upto) = (Vec::new(), Vec::new());
        }
    }
    if !upto.is_empty() {
        sink.apply(&items, &upto)?;
    }
    Ok(caught)
}

struct Subscriber {
    sender: Sender<DcpEvent>,
    /// Deliver only items with seqno strictly greater than this.
    start_after: SeqNo,
}

struct VbChannel {
    subscribers: Vec<Subscriber>,
}

/// Per-bucket DCP fan-out. The data service owns one hub per bucket and
/// calls [`DcpHub::publish`] inside the vBucket critical section that
/// assigned the mutation's seqno; consumers call [`DcpHub::subscribe`].
pub struct DcpHub {
    /// Rank `DCP_CHANNEL`: publishes take this under the vB metadata lock;
    /// subscriptions hold it across `backfill`, which descends into the
    /// storage ranks — both orders are increasing.
    vbs: Vec<OrderedMutex<VbChannel>>,
    items_published: Arc<Counter>,
    streams_opened: Arc<Counter>,
}

impl DcpHub {
    /// Create a hub for `num_vbuckets` partitions with free-standing
    /// counters (tests, ad-hoc consumers).
    pub fn new(num_vbuckets: u16) -> DcpHub {
        Self::new_with_registry(num_vbuckets, &Registry::new("kv"))
    }

    /// Create a hub whose counters (`kv.dcp.items_published`,
    /// `kv.dcp.streams_opened`) live in the owning engine's `registry`.
    pub fn new_with_registry(num_vbuckets: u16, registry: &Registry) -> DcpHub {
        DcpHub {
            vbs: (0..num_vbuckets)
                .map(|_| {
                    OrderedMutex::new(rank::DCP_CHANNEL, VbChannel { subscribers: Vec::new() })
                })
                .collect(),
            items_published: registry.counter("kv.dcp.items_published"),
            streams_opened: registry.counter("kv.dcp.streams_opened"),
        }
    }

    /// Fan a freshly acknowledged mutation out to every feed subscribed to
    /// its vBucket. MUST be called in seqno order per
    /// vBucket (the data service guarantees this by publishing inside the
    /// vBucket write lock).
    pub fn publish(&self, item: &DcpItem) {
        let _s = span("kv.dcp.publish");
        self.items_published.inc();
        let seq = item.meta.seqno;
        // A failed send means the feed is gone: prune its subscription.
        self.vbs[item.vb.index()].lock().subscribers.retain(|sub| {
            seq <= sub.start_after || sub.sender.send(DcpEvent::Item(item.clone())).is_ok()
        });
    }

    /// Subscribe `feed` to one vBucket resuming after `since`; returns the
    /// newest seqno the snapshot queued, `h` (at least its resume point).
    ///
    /// The feed is queued the backfilled items in `(since, h]`, then
    /// receives live items `> h` — no gap, no duplicate:
    /// backfill, registration and queueing happen under the vb lock, so
    /// publishers on *this* vBucket (only) wait until the snapshot is
    /// queued, and what the snapshot returned above its resume point is
    /// already published or waiting on this lock.
    pub fn subscribe(
        &self,
        feed: &DcpFeed,
        vb: VbId,
        since: SeqNo,
        source: &dyn BackfillSource,
    ) -> Result<SeqNo> {
        self.streams_opened.inc();
        let tx = feed.tx.lock().clone();
        let mut chan = self.vbs[vb.index()].lock();
        let (items, high) = source.backfill(vb, since)?;
        let high = items.last().map_or(high, |newest| newest.meta.seqno.max(high));
        chan.subscribers.push(Subscriber { sender: tx.clone(), start_after: high });
        for item in items {
            debug_assert!(item.meta.seqno > since);
            let _ = tx.send(DcpEvent::Item(item));
        }
        Ok(high)
    }

    /// A fresh feed subscribed to one vBucket resuming after `since`.
    pub fn open_stream(
        &self,
        vb: VbId,
        since: SeqNo,
        source: &dyn BackfillSource,
    ) -> Result<DcpFeed> {
        let feed = DcpFeed::default();
        self.subscribe(&feed, vb, since, source)?;
        Ok(feed)
    }

    /// Number of live subscribers on a vBucket (diagnostics).
    pub fn subscriber_count(&self, vb: VbId) -> usize {
        self.vbs[vb.index()].lock().subscribers.len()
    }
}

/// A trivially empty backfill source (for brand-new vBuckets and tests).
pub struct EmptyBackfill;

impl BackfillSource for EmptyBackfill {
    fn backfill(&self, _vb: VbId, _since: SeqNo) -> Result<(Vec<DcpItem>, SeqNo)> {
        Ok((Vec::new(), SeqNo::ZERO))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::DcpKind;
    use cbs_common::DocMeta;
    use cbs_json::Value;

    /// A static, in-memory backfill source.
    struct VecBackfill {
        /// Items per vBucket, each list in seqno order.
        items: Vec<Vec<DcpItem>>,
    }

    impl BackfillSource for VecBackfill {
        fn backfill(&self, vb: VbId, since: SeqNo) -> Result<(Vec<DcpItem>, SeqNo)> {
            let all = &self.items[vb.index()];
            let high = all.last().map(|i| i.meta.seqno).unwrap_or(SeqNo::ZERO);
            Ok((all.iter().filter(|i| i.meta.seqno > since).cloned().collect(), high))
        }
    }

    /// Every item queued on `feed` now, as seqnos.
    fn queued(feed: &DcpFeed) -> Vec<u64> {
        use cbs_common::Deadline;
        let mut out = Vec::new();
        feed.drain(Some(Deadline::after(std::time::Duration::ZERO)), &mut out);
        out.iter().map(|i| i.meta.seqno.0).collect()
    }

    fn item(vb: u16, key: &str, seq: u64) -> DcpItem {
        DcpItem::mutation(
            VbId(vb),
            key,
            DocMeta { seqno: SeqNo(seq), ..Default::default() },
            Value::int(seq as i64),
        )
    }

    #[test]
    fn live_stream_receives_published_items() {
        use cbs_common::Deadline;
        use std::time::Duration;
        let hub = DcpHub::new(4);
        let feed = DcpFeed::default();
        hub.subscribe(&feed, VbId(1), SeqNo::ZERO, &EmptyBackfill).unwrap();
        hub.publish(&item(1, "a", 1));
        hub.publish(&item(1, "b", 2));
        hub.publish(&item(2, "other-vb", 1)); // different vb: not delivered
        let mut out = Vec::new();
        feed.drain(Some(Deadline::after(Duration::ZERO)), &mut out);
        let got: Vec<u64> = out.iter().map(|i| i.meta.seqno.0).collect();
        assert_eq!(got, [1, 2]);
    }

    #[test]
    fn backfill_then_live_no_gap_no_dup() {
        let hub = DcpHub::new(1);
        let backfill = VecBackfill { items: vec![vec![item(0, "a", 1), item(0, "b", 2)]] };
        let feed = hub.open_stream(VbId(0), SeqNo::ZERO, &backfill).unwrap();
        // Live mutations after open.
        hub.publish(&item(0, "c", 3));
        hub.publish(&item(0, "d", 4));
        assert_eq!(queued(&feed), [1, 2, 3, 4]);
    }

    /// A snapshot may return versions above its resume point (a write that
    /// landed while it was read, already published or waiting on the
    /// channel lock): live delivery starts above the newest one queued.
    #[test]
    fn items_above_the_resume_point_are_not_delivered_twice() {
        struct Behind(Vec<DcpItem>);
        impl BackfillSource for Behind {
            fn backfill(&self, _vb: VbId, _since: SeqNo) -> Result<(Vec<DcpItem>, SeqNo)> {
                Ok((self.0.clone(), SeqNo(1)))
            }
        }
        let hub = DcpHub::new(1);
        let feed = DcpFeed::default();
        let source = Behind(vec![item(0, "a", 1), item(0, "b", 3)]);
        assert_eq!(hub.subscribe(&feed, VbId(0), SeqNo::ZERO, &source).unwrap(), SeqNo(3));
        for seq in 2..=4 {
            hub.publish(&item(0, "c", seq));
        }
        assert_eq!(queued(&feed), [1, 3, 4]);
    }

    #[test]
    fn resume_from_cursor_skips_delivered() {
        let hub = DcpHub::new(1);
        let backfill =
            VecBackfill { items: vec![vec![item(0, "a", 1), item(0, "b", 2), item(0, "c", 3)]] };
        let feed = hub.open_stream(VbId(0), SeqNo(2), &backfill).unwrap();
        assert_eq!(queued(&feed), [3], "resume after seqno 2 yields only newer items");
    }

    #[test]
    fn dropped_stream_is_pruned() {
        let hub = DcpHub::new(1);
        let feed = hub.open_stream(VbId(0), SeqNo::ZERO, &EmptyBackfill).unwrap();
        assert_eq!(hub.subscriber_count(VbId(0)), 1);
        drop(feed);
        hub.publish(&item(0, "a", 1));
        assert_eq!(hub.subscriber_count(VbId(0)), 0, "publish prunes dead subscribers");
    }

    #[test]
    fn deletion_items_flow() {
        let hub = DcpHub::new(1);
        let feed = hub.open_stream(VbId(0), SeqNo::ZERO, &EmptyBackfill).unwrap();
        let meta = DocMeta { seqno: SeqNo(1), ..Default::default() };
        hub.publish(&DcpItem::deletion(VbId(0), "gone", meta));
        let mut items = Vec::new();
        feed.drain(None, &mut items);
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].kind, DcpKind::Deletion);
    }

    #[test]
    fn concurrent_publishers_and_streams() {
        use std::sync::Arc;
        let hub = Arc::new(DcpHub::new(8));
        let feeds: Vec<DcpFeed> = (0..8)
            .map(|vb| hub.open_stream(VbId(vb), SeqNo::ZERO, &EmptyBackfill).unwrap())
            .collect();
        let mut handles = Vec::new();
        for vb in 0..8u16 {
            let hub = Arc::clone(&hub);
            handles.push(std::thread::spawn(move || {
                for seq in 1..=500u64 {
                    hub.publish(&item(vb, &format!("k{seq}"), seq));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let expect: Vec<u64> = (1..=500).collect();
        for (vb, feed) in feeds.iter().enumerate() {
            assert_eq!(queued(feed), expect, "vb {vb} must deliver in order without loss");
        }
    }

    #[test]
    fn one_feed_over_two_hubs_is_ordered_and_gapless_across_the_hand_off() {
        use cbs_common::Deadline;
        use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
        use std::time::{Duration, Instant};
        const BACKFILLED: u64 = 100;
        const LAST: u64 = 400;
        // Hub 0 publishes vBuckets 0..4, hub 1 vBuckets 4..8; a backfill
        // source holds the first `BACKFILLED` seqnos of each.
        let hubs = [DcpHub::new(8), DcpHub::new(8)];
        let history = |vb| (1..=BACKFILLED).map(|seq| item(vb, &format!("k{seq}"), seq)).collect();
        let backfill = VecBackfill { items: (0..8).map(history).collect() };
        let subscribed = AtomicBool::new(false);
        let feed = DcpFeed::default();
        let mut got: Vec<Vec<u64>> = vec![Vec::new(); 8];
        std::thread::scope(|s| {
            for (h, hub) in hubs.iter().enumerate() {
                let subscribed = &subscribed;
                s.spawn(move || {
                    for seq in 1..=LAST {
                        // The publishers are mid-stream while the feed
                        // subscribes; they only hold at the end of what the
                        // static backfill covers.
                        while seq > BACKFILLED && !subscribed.load(SeqCst) {
                            std::thread::yield_now();
                        }
                        for vb in (h as u16 * 4)..(h as u16 * 4 + 4) {
                            hub.publish(&item(vb, &format!("k{seq}"), seq));
                        }
                    }
                });
            }
            for vb in 0..8u16 {
                let high = hubs[vb as usize / 4].subscribe(&feed, VbId(vb), SeqNo::ZERO, &backfill);
                assert_eq!(high.unwrap(), SeqNo(BACKFILLED));
            }
            subscribed.store(true, SeqCst);
            let deadline = Instant::now() + Duration::from_secs(20);
            let mut batch = Vec::new();
            while got.iter().any(|seqs| seqs.len() < LAST as usize) && Instant::now() < deadline {
                feed.drain(Some(Deadline::after(Duration::from_millis(50))), &mut batch);
                for i in batch.drain(..) {
                    got[i.vb.index()].push(i.meta.seqno.0);
                }
            }
        });
        let expect: Vec<u64> = (1..=LAST).collect();
        for (vb, seqs) in got.iter().enumerate() {
            assert_eq!(seqs, &expect, "vb {vb}: in order, no gap, no duplicate");
        }
    }

    #[test]
    fn dropping_a_feed_prunes_every_subscription_on_its_next_publish() {
        let hubs = [DcpHub::new(4), DcpHub::new(4)];
        let feed = DcpFeed::default();
        for hub in &hubs {
            for vb in 0..3 {
                hub.subscribe(&feed, VbId(vb), SeqNo::ZERO, &EmptyBackfill).unwrap();
            }
        }
        drop(feed);
        for hub in &hubs {
            for vb in 0..2 {
                assert_eq!(hub.subscriber_count(VbId(vb)), 1);
                hub.publish(&item(vb, "a", 1));
                assert_eq!(hub.subscriber_count(VbId(vb)), 0, "pruned by the publish");
            }
            assert_eq!(hub.subscriber_count(VbId(2)), 1, "not published to yet");
        }
    }

    #[test]
    fn blocked_drain_wakes_on_any_subscribed_vbucket_and_at_its_bound_otherwise() {
        use cbs_common::Deadline;
        use std::time::{Duration, Instant};
        let hub = DcpHub::new(4);
        let feed = DcpFeed::default();
        for vb in 0..4 {
            hub.subscribe(&feed, VbId(vb), SeqNo::ZERO, &EmptyBackfill).unwrap();
        }
        let mut out = Vec::new();
        feed.drain(Some(Deadline::after(Duration::ZERO)), &mut out);
        assert!(out.is_empty());

        let started = Instant::now();
        feed.drain(Some(Deadline::after(Duration::from_millis(40))), &mut out);
        assert!(out.is_empty() && started.elapsed() >= Duration::from_millis(40));

        let about_to_park = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                about_to_park.wait();
                hub.publish(&item(3, "a", 1));
            });
            let started = Instant::now();
            about_to_park.wait();
            assert!(!feed.drain(None, &mut out), "an item is not a wake");
            assert!(started.elapsed() < Duration::from_secs(10), "woken by the publish");
        });
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].vb, out[0].meta.seqno), (VbId(3), SeqNo(1)));
    }
}
