//! Consumer-side handles: the multi-vBucket [`DcpFeed`] and the
//! single-vBucket [`DcpStream`].

use std::time::{Duration, Instant};

use cbs_common::{SeqNo, VbId};
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
}

/// One consumer's queue: [`DcpHub::subscribe`](crate::DcpHub::subscribe)
/// adds a vBucket to it, on any number of hubs. Dropping the feed ends every
/// subscription (pruned on the vBucket's next publish); a consumer that must
/// resume elsewhere subscribes a fresh feed from its own resume points.
pub struct DcpFeed {
    pub(crate) tx: Sender<DcpEvent>,
    pub(crate) rx: Receiver<DcpEvent>,
}

impl Default for DcpFeed {
    fn default() -> DcpFeed {
        let (tx, rx) = unbounded();
        DcpFeed { tx, rx }
    }
}

impl DcpFeed {
    /// Wait up to `wait` (`ZERO`: not at all) for the first event, then
    /// append every queued item to `out`, skipping snapshot markers.
    pub fn drain(&self, wait: Duration, out: &mut Vec<DcpItem>) {
        let mut next = self.rx.recv_timeout(wait).ok();
        while let Some(ev) = next {
            if let DcpEvent::Item(item) = ev {
                out.push(item);
            }
            next = self.rx.try_recv().ok();
        }
    }
}

/// The receiving half of a feed subscribed to one vBucket, plus its
/// **cursor** (last seqno observed), so consumers can checkpoint and later
/// resume with `open_stream(vb, cursor, ...)`.
pub struct DcpStream {
    vb: VbId,
    cursor: SeqNo,
    snapshot_end: SeqNo,
    rx: Receiver<DcpEvent>,
}

impl DcpStream {
    pub(crate) fn new(vb: VbId, since: SeqNo, snapshot_end: SeqNo, rx: Receiver<DcpEvent>) -> Self {
        DcpStream { vb, cursor: since, snapshot_end, rx }
    }

    /// The vBucket this stream covers.
    pub fn vb(&self) -> VbId {
        self.vb
    }

    /// Last seqno delivered (resume point for checkpointing consumers).
    pub fn cursor(&self) -> SeqNo {
        self.cursor
    }

    /// End of the backfill snapshot; items at or below this were historical
    /// at open time, items above it are live-tail.
    pub fn snapshot_end(&self) -> SeqNo {
        self.snapshot_end
    }

    fn advance(&mut self, ev: Option<DcpEvent>) -> Option<DcpEvent> {
        if let Some(DcpEvent::Item(i)) = &ev {
            self.cursor = self.cursor.max(i.meta.seqno);
        }
        ev
    }

    /// Non-blocking poll for the next event.
    pub fn try_next(&mut self) -> Option<DcpEvent> {
        let ev = self.rx.try_recv().ok();
        self.advance(ev)
    }

    /// Blocking receive with timeout.
    pub fn next_timeout(&mut self, timeout: Duration) -> Option<DcpEvent> {
        let ev = self.rx.recv_timeout(timeout).ok();
        self.advance(ev)
    }

    /// Drain every item currently queued (snapshot markers are skipped).
    pub fn drain_available(&mut self) -> Vec<DcpItem> {
        let mut out = Vec::new();
        while let Some(ev) = self.try_next() {
            if let DcpEvent::Item(i) = ev {
                out.push(i);
            }
        }
        out
    }

    /// Block until the cursor reaches `target` or `timeout` elapses,
    /// returning the items received. This is the primitive behind
    /// `request_plus` index catch-up waits.
    pub fn drain_until(&mut self, target: SeqNo, timeout: Duration) -> Vec<DcpItem> {
        let deadline = Instant::now() + timeout;
        let mut out = Vec::new();
        while self.cursor < target {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match self.next_timeout(deadline - now) {
                Some(DcpEvent::Item(i)) => out.push(i),
                Some(DcpEvent::SnapshotMarker { .. }) => {}
                None => break,
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_common::DocMeta;
    use cbs_json::Value;
    use crossbeam::channel::unbounded;

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
        let (tx, rx) = unbounded();
        let mut s = DcpStream::new(VbId(0), SeqNo::ZERO, SeqNo::ZERO, rx);
        tx.send(DcpEvent::Item(item(1))).unwrap();
        tx.send(DcpEvent::Item(item(2))).unwrap();
        assert_eq!(s.cursor(), SeqNo::ZERO);
        s.drain_available();
        assert_eq!(s.cursor(), SeqNo(2));
    }

    #[test]
    fn drain_until_stops_at_target() {
        let (tx, rx) = unbounded();
        let mut s = DcpStream::new(VbId(0), SeqNo::ZERO, SeqNo::ZERO, rx);
        for i in 1..=5 {
            tx.send(DcpEvent::Item(item(i))).unwrap();
        }
        let got = s.drain_until(SeqNo(3), Duration::from_millis(100));
        assert_eq!(got.len(), 3);
        assert_eq!(s.cursor(), SeqNo(3));
    }

    #[test]
    fn drain_until_times_out_when_target_unreachable() {
        let (_tx, rx) = unbounded::<DcpEvent>();
        let mut s = DcpStream::new(VbId(0), SeqNo::ZERO, SeqNo::ZERO, rx);
        let start = Instant::now();
        let got = s.drain_until(SeqNo(1), Duration::from_millis(50));
        assert!(got.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(40));
    }
}
