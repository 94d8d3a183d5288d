//! Fault-injection seam for the simulated transport.
//!
//! The cluster is in-process, so there is no real network to cut; instead
//! the two message paths — replication deliveries inside the DCP pump and
//! client dispatches inside [`SmartClient`] — consult an optional
//! [`FaultInjector`] installed in [`ClusterConfig`]. The production default
//! is `None`, which compiles down to a branch on an `Option`; the chaos
//! harness (`cbs-chaos`) installs a seeded plan that makes every decision a
//! pure function of the seed and the delivery site, so failures replay.
//!
//! [`SmartClient`]: crate::client::SmartClient
//! [`ClusterConfig`]: crate::config::ClusterConfig

use std::time::Duration;

use cbs_common::{NodeId, SeqNo, VbId};

/// What the transport should do with one replication-stream delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver normally.
    Deliver,
    /// Drop the message. The pump treats a drop as a connection reset: the
    /// affected vBucket stream is torn down and rebuilt from its sinks'
    /// resume points, so the item is redelivered later (messages are lost,
    /// the replication protocol recovers — same contract as TCP reconnect
    /// in the real system).
    Drop,
    /// Deliver after sleeping this long (network delay / slow receiver).
    Delay(Duration),
    /// Deliver the message twice: the item is in the destination's batch
    /// twice (at-least-once duplication; exercises the replica sink's
    /// per-document seqno guard).
    Duplicate,
}

/// Decision hooks consulted by the in-memory transport. Implementations
/// must be deterministic given their construction parameters — decisions
/// are made per *site* (vBucket, seqno, destination, attempt), never from
/// wall-clock or ambient randomness, so a failing run replays from its
/// seed.
pub trait FaultInjector: Send + Sync + std::fmt::Debug {
    /// Replication delivery of `(vb, seqno)` to replica `dst`. `attempt`
    /// counts redeliveries of the same site, so injectors can drop the
    /// first attempt and let the retry through.
    fn repl_delivery(&self, vb: VbId, seqno: SeqNo, dst: NodeId, attempt: u32) -> FaultAction {
        let _ = (vb, seqno, dst, attempt);
        FaultAction::Deliver
    }

    /// Client dispatch of an operation for `vb` to `node`: an optional
    /// stall before the call (slow-node simulation). The client still
    /// performs the operation after the stall.
    fn client_dispatch(&self, node: NodeId, vb: VbId) -> Option<Duration> {
        let _ = (node, vb);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Nop;
    impl FaultInjector for Nop {}

    #[test]
    fn default_hooks_are_transparent() {
        let inj = Nop;
        assert_eq!(inj.repl_delivery(VbId(0), SeqNo(1), NodeId(0), 0), FaultAction::Deliver);
        assert_eq!(inj.client_dispatch(NodeId(0), VbId(0)), None);
    }
}
