//! Identifier newtypes shared across services.
//!
//! Using newtypes (rather than bare integers) prevents the classic bug class
//! of passing a sequence number where a CAS value was expected; the compiler
//! enforces the distinction at zero runtime cost.

use std::fmt;

/// A vBucket (virtual bucket / logical partition) identifier in `0..1024`.
///
/// Every document ID hashes (CRC32) to exactly one vBucket; vBuckets are the
/// unit of placement, replication, rebalance and DCP streaming (paper §4.1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VbId(pub u16);

impl VbId {
    /// The numeric id as a `usize`, for indexing per-vBucket tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VbId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vb:{}", self.0)
    }
}

impl fmt::Display for VbId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A per-vBucket, monotonically increasing mutation sequence number.
///
/// "When a document is written, a sequence number is generated and associated
/// with the mutation. The maximum sequence number per vBucket is also
/// tracked." (paper §4.2). Seqnos order mutations inside one vBucket and are
/// the currency of DCP stream resumption and `request_plus` consistency
/// waits.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SeqNo(pub u64);

impl SeqNo {
    /// The zero seqno: "nothing has happened in this vBucket yet".
    pub const ZERO: SeqNo = SeqNo(0);

    /// The last seqno a version can carry: 2⁴⁸ − 1, Couchbase's own seqno
    /// space, so a seqno fits the 48 bits a cache or storage-index entry
    /// keeps it in. A larger `SeqNo` is only ever a range bound.
    pub const MAX: SeqNo = SeqNo((1 << 48) - 1);

    /// The next sequence number.
    #[inline]
    pub fn next(self) -> SeqNo {
        SeqNo(self.0 + 1)
    }

    /// Raw value.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for SeqNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seq:{}", self.0)
    }
}

impl fmt::Display for SeqNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A compare-and-swap token ("much like a revision number", paper §3.1.1).
///
/// A fresh CAS is assigned on every successful mutation of a document. A
/// client may pass the CAS it observed back with an update; the server
/// rejects the update if the document has been mutated in between. `Cas(0)`
/// conventionally means "no CAS check" on writes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cas(pub u64);

impl Cas {
    /// The "don't check" CAS wildcard accepted by write operations.
    pub const WILDCARD: Cas = Cas(0);

    /// True if this CAS means "skip the optimistic-concurrency check".
    #[inline]
    pub fn is_wildcard(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for Cas {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cas:{:#x}", self.0)
    }
}

/// A per-document revision counter, incremented on every mutation.
///
/// Distinct from [`Cas`]: CAS values are cluster-unique tokens, while the
/// rev number literally counts updates and is the primary comparison key of
/// XDCR conflict resolution ("the document with the most updates is
/// considered the winner", paper §4.6.1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RevNo(pub u64);

impl RevNo {
    /// Next revision.
    #[inline]
    pub fn next(self) -> RevNo {
        RevNo(self.0 + 1)
    }
}

impl fmt::Debug for RevNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rev:{}", self.0)
    }
}

/// Identifier of a node (server) in a cluster.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node:{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node:{}", self.0)
    }
}

/// Identifier of a (secondary) index instance within the index service.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct IndexId(pub u64);

impl fmt::Debug for IndexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "idx:{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seqno_ordering_and_next() {
        let s = SeqNo::ZERO;
        assert_eq!(s.next(), SeqNo(1));
        assert!(SeqNo(5) > SeqNo(4));
        assert_eq!(SeqNo(7).get(), 7);
    }

    #[test]
    fn cas_wildcard() {
        assert!(Cas::WILDCARD.is_wildcard());
        assert!(!Cas(42).is_wildcard());
    }

    #[test]
    fn rev_next() {
        assert_eq!(RevNo(3).next(), RevNo(4));
    }

    #[test]
    fn vbid_index() {
        assert_eq!(VbId(1023).index(), 1023);
    }

    #[test]
    fn debug_formats_are_tagged() {
        assert_eq!(format!("{:?}", VbId(9)), "vb:9");
        assert_eq!(format!("{:?}", SeqNo(9)), "seq:9");
        assert_eq!(format!("{:?}", NodeId(2)), "node:2");
        assert_eq!(format!("{:?}", Cas(255)), "cas:0xff");
    }
}
