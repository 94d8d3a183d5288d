//! The DCP hub: per-vBucket publish/subscribe with race-free backfill
//! hand-off.

use std::sync::Arc;

use cbs_common::sync::{rank, OrderedMutex};
use cbs_common::{Result, SeqNo, VbId};
use cbs_obs::{span, Counter, Registry};
use crossbeam::channel::{unbounded, Sender};

use crate::item::DcpItem;
use crate::stream::{DcpEvent, DcpStream};

/// Source of historical changes for stream backfill. Implemented by the data
/// service, memory first: resident documents come from the cache and only
/// evicted ones from the storage engine, so a stream opened at seqno 0 sees
/// every acknowledged write even before the flusher has run.
pub trait BackfillSource: Send + Sync {
    /// Latest versions of all documents in `vb` with seqno > `since`, in
    /// seqno order, and the snapshot's high seqno — at least `since` and
    /// every returned seqno; live delivery resumes above it.
    fn backfill(&self, vb: VbId, since: SeqNo) -> Result<(Vec<DcpItem>, SeqNo)>;
}

struct Subscriber {
    sender: Sender<DcpEvent>,
    /// Deliver only items with seqno strictly greater than this.
    start_after: SeqNo,
    /// Lazily removed once the receiving side is gone.
    dead: bool,
}

struct VbChannel {
    subscribers: Vec<Subscriber>,
}

/// Per-bucket DCP fan-out. The data service owns one hub per bucket and
/// calls [`DcpHub::publish`] inside the vBucket critical section that
/// assigned the mutation's seqno; consumers call [`DcpHub::open_stream`].
pub struct DcpHub {
    /// Rank `DCP_CHANNEL`: publishes take this under the vB metadata lock;
    /// stream opens hold it across `backfill`, which descends into the
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

    /// Fan a freshly acknowledged mutation out to the live tails of every
    /// open stream on its vBucket. MUST be called in seqno order per
    /// vBucket (the data service guarantees this by publishing inside the
    /// vBucket write lock).
    pub fn publish(&self, item: &DcpItem) {
        let _s = span("kv.dcp.publish");
        self.items_published.inc();
        let mut chan = self.vbs[item.vb.index()].lock();
        let seq = item.meta.seqno;
        for sub in chan.subscribers.iter_mut() {
            if seq > sub.start_after
                && !sub.dead
                && sub.sender.send(DcpEvent::Item(item.clone())).is_err()
            {
                sub.dead = true;
            }
        }
        chan.subscribers.retain(|s| !s.dead);
    }

    /// Open a stream over one vBucket resuming after `since`.
    ///
    /// The returned stream yields a snapshot-marker event, then backfilled
    /// items in `(since, h]`, then live items `> h` — with no gaps and no
    /// duplicates (registration and the `h` snapshot happen atomically with
    /// respect to publishes on this vBucket).
    pub fn open_stream(
        &self,
        vb: VbId,
        since: SeqNo,
        source: &dyn BackfillSource,
    ) -> Result<DcpStream> {
        self.streams_opened.inc();
        let (tx, rx) = unbounded();
        // Register first, under the vb lock, against a consistent high
        // seqno. `backfill` takes no locks that conflict with publishers
        // on *other* vbuckets; publishers on *this* vb block until
        // registration completes, which is exactly the race-freedom we need.
        let high = {
            let mut chan = self.vbs[vb.index()].lock();
            let (items, high) = source.backfill(vb, since)?;
            chan.subscribers.push(Subscriber {
                sender: tx.clone(),
                start_after: high,
                dead: false,
            });
            // Queue the snapshot into the same channel ahead of any live
            // item (we still hold the vb lock, so nothing can be published
            // before these sends complete).
            let _ = tx.send(DcpEvent::SnapshotMarker { vb, start: since.next(), end: high });
            for item in items {
                debug_assert!(item.meta.seqno > since && item.meta.seqno <= high);
                let _ = tx.send(DcpEvent::Item(item));
            }
            high
        };
        Ok(DcpStream::new(vb, since, high, rx))
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

/// A static, in-memory backfill source (tests and rebalance movers).
pub struct VecBackfill {
    /// Items per vBucket, each list in seqno order.
    pub items: Vec<Vec<DcpItem>>,
}

impl BackfillSource for VecBackfill {
    fn backfill(&self, vb: VbId, since: SeqNo) -> Result<(Vec<DcpItem>, SeqNo)> {
        let all = &self.items[vb.index()];
        let high = all.last().map(|i| i.meta.seqno).unwrap_or(SeqNo::ZERO);
        Ok((all.iter().filter(|i| i.meta.seqno > since).cloned().collect(), high))
    }
}

/// Shared handle type used throughout the workspace.
pub type SharedHub = Arc<DcpHub>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::DcpKind;
    use cbs_common::DocMeta;
    use cbs_json::Value;

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
        let hub = DcpHub::new(4);
        let mut stream = hub.open_stream(VbId(1), SeqNo::ZERO, &EmptyBackfill).unwrap();
        // Snapshot marker for the empty backfill.
        match stream.try_next() {
            Some(DcpEvent::SnapshotMarker { start, end, .. }) => {
                assert_eq!(start, SeqNo(1));
                assert_eq!(end, SeqNo::ZERO);
            }
            other => panic!("expected snapshot marker, got {other:?}"),
        }
        hub.publish(&item(1, "a", 1));
        hub.publish(&item(1, "b", 2));
        hub.publish(&item(2, "other-vb", 1)); // different vb: not delivered
        let got: Vec<u64> = std::iter::from_fn(|| stream.try_next())
            .filter_map(|e| match e {
                DcpEvent::Item(i) => Some(i.meta.seqno.0),
                _ => None,
            })
            .collect();
        assert_eq!(got, [1, 2]);
    }

    #[test]
    fn backfill_then_live_no_gap_no_dup() {
        let hub = DcpHub::new(1);
        let backfill = VecBackfill { items: vec![vec![item(0, "a", 1), item(0, "b", 2)]] };
        let mut stream = hub.open_stream(VbId(0), SeqNo::ZERO, &backfill).unwrap();
        // Live mutations after open.
        hub.publish(&item(0, "c", 3));
        hub.publish(&item(0, "d", 4));
        let seqs: Vec<u64> = stream.drain_available().iter().map(|i| i.meta.seqno.0).collect();
        assert_eq!(seqs, [1, 2, 3, 4]);
    }

    #[test]
    fn resume_from_cursor_skips_delivered() {
        let hub = DcpHub::new(1);
        let backfill =
            VecBackfill { items: vec![vec![item(0, "a", 1), item(0, "b", 2), item(0, "c", 3)]] };
        let mut stream = hub.open_stream(VbId(0), SeqNo(2), &backfill).unwrap();
        let seqs: Vec<u64> = stream.drain_available().iter().map(|i| i.meta.seqno.0).collect();
        assert_eq!(seqs, [3], "resume after seqno 2 yields only newer items");
    }

    #[test]
    fn dropped_stream_is_pruned() {
        let hub = DcpHub::new(1);
        let stream = hub.open_stream(VbId(0), SeqNo::ZERO, &EmptyBackfill).unwrap();
        assert_eq!(hub.subscriber_count(VbId(0)), 1);
        drop(stream);
        hub.publish(&item(0, "a", 1));
        assert_eq!(hub.subscriber_count(VbId(0)), 0, "publish prunes dead subscribers");
    }

    #[test]
    fn deletion_items_flow() {
        let hub = DcpHub::new(1);
        let mut stream = hub.open_stream(VbId(0), SeqNo::ZERO, &EmptyBackfill).unwrap();
        let meta = DocMeta { seqno: SeqNo(1), ..Default::default() };
        hub.publish(&DcpItem::deletion(VbId(0), "gone", meta));
        let items = stream.drain_available();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].kind, DcpKind::Deletion);
    }

    #[test]
    fn concurrent_publishers_and_streams() {
        use std::sync::Arc;
        let hub = Arc::new(DcpHub::new(8));
        let mut streams: Vec<DcpStream> = (0..8)
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
        for (vb, stream) in streams.iter_mut().enumerate() {
            let seqs: Vec<u64> = stream.drain_available().iter().map(|i| i.meta.seqno.0).collect();
            let expect: Vec<u64> = (1..=500).collect();
            assert_eq!(seqs, expect, "vb {vb} must deliver in order without loss");
        }
    }
}
