//! The shared error type.
//!
//! One workspace-wide error enum keeps cross-crate plumbing simple (every
//! service can surface every other service's failures) while still being
//! precise enough for callers to branch on — e.g. the smart client retries
//! on [`Error::NotMyVbucket`], and CAS loops retry on [`Error::CasMismatch`].

use std::fmt;

use crate::ids::{NodeId, VbId};

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// All error conditions surfaced by the reproduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The requested document does not exist.
    KeyNotFound(String),
    /// An insert found the key already present.
    KeyExists(String),
    /// An update carried a stale CAS token (optimistic-locking conflict,
    /// paper §3.1.1).
    CasMismatch(String),
    /// The document is hard-locked (GETL) by another client.
    Locked(String),
    /// The key is this many bytes long, more than a stored record can hold
    /// (65 535; memcached's `E2BIG`).
    KeyTooLong(usize),
    /// The value is this many bytes long, more than a document may hold
    /// (20 MiB, `MAX_VALUE_LEN`; memcached's `E2BIG`).
    ValueTooLarge(usize),
    /// A log record's payload would be this many bytes, more than the
    /// record format holds (64 MiB): nothing is written.
    RecordTooLarge(usize),
    /// This seqno is past the 48-bit seqno space (`SeqNo::MAX`): a vBucket
    /// that has used it up takes no more writes.
    SeqNoOutOfRange(u64),
    /// The contacted node does not currently own the vBucket — the client's
    /// cluster map is stale and must be refreshed (the memcached
    /// `NOT_MY_VBUCKET` response).
    NotMyVbucket(VbId),
    /// The vBucket exists on this node but is not active (replica or dead).
    VbucketNotActive(VbId),
    /// A node is down / unreachable (failure injection in the simulated
    /// transport, or a real crash in the cluster manager's view).
    NodeDown(NodeId),
    /// Durability requirement could not be met (e.g. replicate-to > replica
    /// count, or timeout waiting for persistence).
    DurabilityImpossible(String),
    /// Timed out waiting for a condition (durability observe, index
    /// catch-up for `request_plus`, `stale=false` view build, ...).
    Timeout(String),
    /// The cache is above quota and cannot admit the value (temporary OOM —
    /// clients are expected to back off and retry, as with memcached
    /// `TMPFAIL`).
    TempOom,
    /// Malformed JSON document or JSON path.
    Json(String),
    /// Storage-engine failure (I/O error, checksum mismatch, corrupt
    /// header...).
    Storage(String),
    /// N1QL lexical / syntax error.
    Parse(String),
    /// N1QL semantic error (unknown keyspace, unsupported join shape,
    /// paper §3.2.4 restrictions...).
    Plan(String),
    /// Runtime query-evaluation error.
    Eval(String),
    /// Index service error (no such index, duplicate name, building...).
    Index(String),
    /// View engine error (no such design doc / view, bad reduce...).
    View(String),
    /// Cluster-management error (rebalance in progress, unknown bucket,
    /// no quorum...).
    Cluster(String),
    /// XDCR configuration / runtime error.
    Xdcr(String),
    /// A transaction read conflicted with a concurrent transaction's
    /// in-flight write (it resolved to an aborted incarnation's marker).
    /// The scheduler re-executes the reader with a bumped incarnation;
    /// user closures must propagate this with `?`, never swallow it.
    TxnConflict(String),
    /// Catch-all for I/O with context.
    Io(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::KeyNotFound(k) => write!(f, "key not found: {k}"),
            Error::KeyExists(k) => write!(f, "key already exists: {k}"),
            Error::KeyTooLong(n) => write!(f, "key too long: {n} bytes (at most 65535)"),
            Error::ValueTooLarge(n) => write!(f, "value too large: {n} bytes (at most 20 MiB)"),
            Error::RecordTooLarge(n) => {
                write!(f, "log record too large: {n} bytes (at most 64 MiB)")
            }
            Error::SeqNoOutOfRange(n) => write!(f, "seqno {n} past the 48-bit seqno space"),
            Error::CasMismatch(k) => write!(f, "CAS mismatch on key: {k}"),
            Error::Locked(k) => write!(f, "key is locked: {k}"),
            Error::NotMyVbucket(vb) => write!(f, "not my vbucket: {vb:?}"),
            Error::VbucketNotActive(vb) => write!(f, "vbucket not active: {vb:?}"),
            Error::NodeDown(n) => write!(f, "node down: {n:?}"),
            Error::DurabilityImpossible(m) => write!(f, "durability impossible: {m}"),
            Error::Timeout(m) => write!(f, "timed out: {m}"),
            Error::TempOom => write!(f, "temporary OOM: cache over quota"),
            Error::Json(m) => write!(f, "json error: {m}"),
            Error::Storage(m) => write!(f, "storage error: {m}"),
            Error::Parse(m) => write!(f, "N1QL parse error: {m}"),
            Error::Plan(m) => write!(f, "N1QL plan error: {m}"),
            Error::Eval(m) => write!(f, "N1QL evaluation error: {m}"),
            Error::Index(m) => write!(f, "index error: {m}"),
            Error::View(m) => write!(f, "view error: {m}"),
            Error::Cluster(m) => write!(f, "cluster error: {m}"),
            Error::Xdcr(m) => write!(f, "xdcr error: {m}"),
            Error::TxnConflict(m) => write!(f, "transaction conflict: {m}"),
            Error::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::KeyNotFound("user::1".into());
        assert!(e.to_string().contains("user::1"));
        let e = Error::NotMyVbucket(VbId(7));
        assert!(e.to_string().contains("vb:7"));
    }

    #[test]
    fn io_conversion() {
        let io = std::io::Error::other("boom");
        let e: Error = io.into();
        assert!(matches!(e, Error::Io(m) if m.contains("boom")));
    }
}
