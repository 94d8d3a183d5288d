//! DCP stream items.

use cbs_common::{DocKey, DocMeta, VbId};
use cbs_json::SharedValue;
use cbs_obs::TraceContext;

/// What kind of change an item carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DcpKind {
    /// An insert or update.
    Mutation,
    /// A deletion (tombstone).
    Deletion,
    /// A TTL-driven removal (distinct on the wire in real DCP; consumers
    /// mostly treat it as a deletion).
    Expiration,
}

/// One change flowing over DCP.
///
/// The body is a [`SharedValue`], the version's encoded bytes, and the key
/// a [`DocKey`]: cloning an item (per-subscriber fan-out in the hub) copies
/// a short key inline and bumps a reference count — no allocation — and a
/// consumer that reads the body decodes it into its own handle.
#[derive(Debug, Clone, PartialEq)]
pub struct DcpItem {
    /// Originating vBucket.
    pub vb: VbId,
    /// Document ID.
    pub key: DocKey,
    /// Full metadata of this version (seqno, cas, rev, flags, expiry).
    pub meta: DocMeta,
    /// Change kind.
    pub kind: DcpKind,
    /// Document body; `None` for deletions/expirations.
    pub value: Option<SharedValue>,
    /// Causal trace context of the originating client operation, carried
    /// across the stream so consumers (replication, indexing) can attach
    /// their spans to the same trace (DESIGN.md §10). `None` when the
    /// originating op was unsampled or untraced.
    pub trace: Option<TraceContext>,
}

impl DcpItem {
    /// Convenience: construct a mutation item.
    pub fn mutation(
        vb: VbId,
        key: impl Into<DocKey>,
        meta: DocMeta,
        value: impl Into<SharedValue>,
    ) -> DcpItem {
        DcpItem {
            vb,
            key: key.into(),
            meta,
            kind: DcpKind::Mutation,
            value: Some(value.into()),
            trace: None,
        }
    }

    /// Convenience: construct a deletion item.
    pub fn deletion(vb: VbId, key: impl Into<DocKey>, meta: DocMeta) -> DcpItem {
        DcpItem { vb, key: key.into(), meta, kind: DcpKind::Deletion, value: None, trace: None }
    }

    /// True for deletion-like kinds.
    pub fn is_deletion(&self) -> bool {
        matches!(self.kind, DcpKind::Deletion | DcpKind::Expiration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_common::SeqNo;
    use cbs_json::Value;

    #[test]
    fn constructors() {
        let meta = DocMeta { seqno: SeqNo(4), ..Default::default() };
        let m = DcpItem::mutation(VbId(1), "k", meta, Value::int(1));
        assert!(!m.is_deletion());
        assert_eq!(m.value.as_deref(), Some(&Value::int(1)));
        let d = DcpItem::deletion(VbId(1), "k", meta);
        assert!(d.is_deletion());
        assert!(d.value.is_none());
    }

    #[test]
    fn clone_aliases_the_body() {
        let meta = DocMeta { seqno: SeqNo(9), ..Default::default() };
        let m = DcpItem::mutation(VbId(0), "k", meta, Value::object([("a", Value::int(1))]));
        let fanned = m.clone();
        let (a, b) = (m.value.as_ref().unwrap(), fanned.value.as_ref().unwrap());
        assert!(SharedValue::ptr_eq(a, b), "fan-out must not deep-copy the body");
    }
}
