//! The consumer-side handle: a [`DcpFeed`] and the [`FeedWaker`] that
//! wakes it.

use std::sync::Arc;

use cbs_common::sync::{rank, OrderedMutex};
use cbs_common::Deadline;
use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::item::DcpItem;

/// Events delivered over a feed.
#[derive(Debug, Clone, PartialEq)]
pub enum DcpEvent {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

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
}
