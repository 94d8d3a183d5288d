//! Consumer-side handles: the multi-vBucket [`DcpFeed`] (and the
//! [`FeedWaker`] that wakes it) and the single-vBucket [`DcpStream`].

use std::sync::Arc;
use std::time::Duration;

use cbs_common::sync::{rank, OrderedMutex};
use cbs_common::{Deadline, SeqNo, VbId};
use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::item::DcpItem;

/// Events delivered over a feed.
#[derive(Debug, Clone, PartialEq)]
pub enum DcpEvent {
    /// Marks the start of a consistent snapshot covering `[start, end]`
    /// (backfill range at subscription time).
    SnapshotMarker {
        /// vBucket.
        vb: VbId,
        /// First seqno that may follow.
        start: SeqNo,
        /// High seqno at subscription time.
        end: SeqNo,
    },
    /// A document change.
    Item(DcpItem),
    /// A control event queued by a [`FeedWaker`]: something the consumer
    /// follows besides the items (a map install, its own shutdown) changed.
    Wake,
}

/// One consumer's queue: [`DcpHub::subscribe`](crate::DcpHub::subscribe)
/// adds a vBucket to it, on any number of hubs. Dropping the feed ends every
/// subscription (pruned on the vBucket's next publish); a consumer that must
/// resume elsewhere [`reset`](DcpFeed::reset)s it and subscribes again from
/// its own resume points.
pub struct DcpFeed {
    /// The queue's sending half, shared with every [`FeedWaker`].
    pub(crate) tx: Arc<OrderedMutex<Sender<DcpEvent>>>,
    pub(crate) rx: Receiver<DcpEvent>,
}

impl Default for DcpFeed {
    fn default() -> DcpFeed {
        let (tx, rx) = unbounded();
        DcpFeed { tx: Arc::new(OrderedMutex::new(rank::DCP_FEED_WAKER, tx)), rx }
    }
}

impl DcpFeed {
    /// Park until the first event arrives — or `until` passes (`None`: no
    /// bound) — then append every queued item to `out`. Returns whether a
    /// wake was among the events (any number count once).
    pub fn drain(&self, until: Option<Deadline>, out: &mut Vec<DcpItem>) -> bool {
        let mut next = match until {
            None => self.rx.recv().ok(),
            Some(deadline) => self.rx.recv_timeout(deadline.remaining()).ok(),
        };
        let mut woken = false;
        while let Some(ev) = next {
            match ev {
                DcpEvent::Item(item) => out.push(item),
                DcpEvent::Wake => woken = true,
                DcpEvent::SnapshotMarker { .. } => {}
            }
            next = self.rx.try_recv().ok();
        }
        woken
    }

    /// What wakes this feed from any thread, across resets.
    pub fn waker(&self) -> FeedWaker {
        FeedWaker(Arc::clone(&self.tx))
    }

    /// Drop every subscription and what they queued, as a fresh feed would,
    /// and point the wakers at the new queue. Reset *before* reading what
    /// the resubscription is built from: a change after the read then wakes
    /// the queue the consumer parks on, one before it is in the read.
    pub fn reset(&mut self) {
        let (tx, rx) = unbounded();
        *self.tx.lock() = tx;
        self.rx = rx;
    }
}

/// Queues a [`DcpEvent::Wake`] on a [`DcpFeed`]'s current queue.
#[derive(Clone)]
pub struct FeedWaker(Arc<OrderedMutex<Sender<DcpEvent>>>);

impl FeedWaker {
    /// Wake the feed; `false` once it is gone.
    pub fn wake(&self) -> bool {
        self.0.lock().send(DcpEvent::Wake).is_ok()
    }
}

/// A feed subscribed to one vBucket, plus its **cursor** (last seqno
/// delivered), so consumers can checkpoint and later resume with
/// `open_stream(vb, cursor, ...)`.
pub struct DcpStream {
    feed: DcpFeed,
    cursor: SeqNo,
}

impl DcpStream {
    pub(crate) fn new(feed: DcpFeed, since: SeqNo) -> Self {
        DcpStream { feed, cursor: since }
    }

    /// Last seqno delivered (resume point for checkpointing consumers).
    pub fn cursor(&self) -> SeqNo {
        self.cursor
    }

    /// Every item queued now.
    pub fn drain_available(&mut self) -> Vec<DcpItem> {
        let mut out = Vec::new();
        self.drain(Deadline::after(Duration::ZERO), &mut out);
        out
    }

    /// Block until the cursor reaches `target` or `until` passes,
    /// returning every item received by then.
    pub fn drain_until(&mut self, target: SeqNo, until: Deadline) -> Vec<DcpItem> {
        let mut out = Vec::new();
        while self.cursor < target && !until.expired() {
            self.drain(until, &mut out);
        }
        out
    }

    fn drain(&mut self, until: Deadline, out: &mut Vec<DcpItem>) {
        let from = out.len();
        self.feed.drain(Some(until), out);
        self.cursor = out[from..].iter().map(|i| i.meta.seqno).fold(self.cursor, SeqNo::max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_common::DocMeta;
    use cbs_json::Value;
    use std::time::Instant;

    /// A stream over a feed holding `seqs`.
    fn stream_of(seqs: impl IntoIterator<Item = u64>) -> DcpStream {
        let feed = DcpFeed::default();
        for seq in seqs {
            feed.tx.lock().send(DcpEvent::Item(item(seq))).unwrap();
        }
        DcpStream::new(feed, SeqNo::ZERO)
    }

    fn item(seq: u64) -> DcpItem {
        DcpItem::mutation(
            VbId(0),
            format!("k{seq}"),
            DocMeta { seqno: SeqNo(seq), ..Default::default() },
            Value::int(seq as i64),
        )
    }

    #[test]
    fn cursor_advances_with_items() {
        let mut s = stream_of([1, 2]);
        assert_eq!(s.cursor(), SeqNo::ZERO);
        assert_eq!(s.drain_available().len(), 2);
        assert_eq!(s.cursor(), SeqNo(2));
    }

    #[test]
    fn drain_until_returns_what_is_queued_once_the_target_is_reached() {
        let mut s = stream_of(1..=5);
        let got = s.drain_until(SeqNo(3), Deadline::after(Duration::from_secs(30)));
        assert_eq!(got.len(), 5);
        assert_eq!(s.cursor(), SeqNo(5));
    }

    #[test]
    fn wakes_coalesce_survive_a_reset_and_fail_once_the_feed_is_gone() {
        let mut feed = DcpFeed::default();
        let waker = feed.waker();
        let mut out = Vec::new();
        assert!(!feed.drain(Some(Deadline::after(Duration::ZERO)), &mut out));
        assert!(waker.wake() && waker.clone().wake());
        assert!(feed.drain(None, &mut out), "two wakes, one return");
        assert!(!feed.drain(Some(Deadline::after(Duration::ZERO)), &mut out));

        // A wake queued before the reset goes with the old queue; one after
        // it reaches the new one.
        waker.wake();
        feed.reset();
        assert!(!feed.drain(Some(Deadline::after(Duration::ZERO)), &mut out));
        std::thread::scope(|s| {
            s.spawn(|| waker.wake());
            assert!(feed.drain(None, &mut out), "woken on the reset queue");
        });
        assert!(out.is_empty());
        drop(feed);
        assert!(!waker.wake());
    }

    #[test]
    fn drain_until_times_out_when_target_unreachable() {
        let mut s = stream_of([]);
        let start = Instant::now();
        let got = s.drain_until(SeqNo(1), Deadline::after(Duration::from_millis(50)));
        assert!(got.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(40));
    }
}
