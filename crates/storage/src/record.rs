//! On-disk record format.
//!
//! Every mutation (set or delete) appends one record:
//!
//! ```text
//! +--------+--------+---------+---------------------------+
//! | magic  | crc32  | paylen  |  payload (paylen bytes)   |
//! | u8     | u32 LE | u32 LE  |                           |
//! +--------+--------+---------+---------------------------+
//!
//! payload:
//!   seqno u64 | cas u64 | rev u64 | flags u32 | expiry u32 |
//!   deleted u8 | key_len u16 | key bytes | value bytes
//!
//! deleted: 0 = document, 1 = tombstone, 2 = vBucket purge marker
//! ```
//!
//! The CRC covers the payload, so a torn write (power loss mid-append) is
//! detected on open and the log is truncated back to the last intact
//! record — the recovery contract the paper's asynchronous-persistence
//! design depends on: everything acknowledged as *persisted* survives.
//!
//! The encoder refuses what the decoder would take for corruption — a key
//! past [`MAX_KEY_LEN`], a payload past [`MAX_PAYLOAD_LEN`], a seqno past
//! [`SeqNo::MAX`] — so no record it writes ends a log's intact prefix.
//! The payload bound is the one every log of this format has been read
//! with; a document's value is bounded tighter, by the engine
//! ([`MAX_VALUE_LEN`]), and a GSI key list only by the record.

use bytes::{Buf, Bytes};
use cbs_common::{crc32, Cas, Error, Result, RevNo, SeqNo, MAX_VALUE_LEN};

pub use cbs_common::{check_key_len, DocMeta, MAX_KEY_LEN};

/// Record magic byte — cheap misalignment detection during recovery scans.
pub const RECORD_MAGIC: u8 = 0xC5;

/// Fixed header length: magic + crc + payload length.
pub const HEADER_LEN: usize = 1 + 4 + 4;

/// Payload bytes before the key: seqno, cas, rev, flags, expiry, the
/// `deleted` byte and the key length.
const FIXED_LEN: usize = 8 + 8 + 8 + 4 + 4 + 1 + 2;

/// The longest payload a record can have, in every log written in this
/// format: the encoder refuses a longer one and the decoder takes a longer
/// length field for corruption.
pub const MAX_PAYLOAD_LEN: usize = 64 << 20;

// Every document the engine admits fits one record.
const _: () = assert!(FIXED_LEN + MAX_KEY_LEN + MAX_VALUE_LEN <= MAX_PAYLOAD_LEN);

/// Values of the payload's `deleted` byte. A purge marker is not a document
/// version: it ends everything its vBucket wrote to the same log before it
/// (the vBucket was handed off), so a replay never resurrects that data.
pub(crate) const KIND_LIVE: u8 = 0;
pub(crate) const KIND_TOMBSTONE: u8 = 1;
pub(crate) const KIND_PURGE: u8 = 2;

/// A fully decoded record: a document version (or tombstone).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredDoc {
    /// Document ID.
    pub key: String,
    /// Metadata.
    pub meta: DocMeta,
    /// True for deletion tombstones (value is empty).
    pub deleted: bool,
    /// Compact JSON bytes of the document body.
    pub value: Bytes,
}

impl StoredDoc {
    /// Total on-disk footprint of this record, including header.
    pub fn disk_size(&self) -> u64 {
        (HEADER_LEN + FIXED_LEN + self.key.len() + self.value.len()) as u64
    }
}

/// Encode a record onto the end of `out`. Returns the number of bytes
/// written; an over-long key or payload, or a seqno past [`SeqNo::MAX`], is
/// refused with `out` untouched.
pub(crate) fn encode_record(doc: &StoredDoc, out: &mut Vec<u8>) -> Result<usize> {
    let kind = if doc.deleted { KIND_TOMBSTONE } else { KIND_LIVE };
    encode_record_with(out, &doc.key, &doc.meta, kind, &doc.value)
}

/// Encode a record in place, in one pass: header placeholder, fixed fields,
/// key and value (a document's encoded bytes, copied as they are), then the
/// header is patched with the length and the CRC of the payload where it
/// lies. No temporary buffer, one CRC.
pub(crate) fn encode_record_with(
    out: &mut Vec<u8>,
    key: &str,
    meta: &DocMeta,
    kind: u8,
    value: &[u8],
) -> Result<usize> {
    check_key_len(key)?;
    let plen = FIXED_LEN + key.len() + value.len();
    if plen > MAX_PAYLOAD_LEN {
        return Err(Error::RecordTooLarge(plen));
    }
    if meta.seqno > SeqNo::MAX {
        return Err(Error::SeqNoOutOfRange(meta.seqno.0));
    }
    let start = out.len();
    out.reserve(HEADER_LEN + plen);
    out.push(RECORD_MAGIC);
    out.extend_from_slice(&[0u8; HEADER_LEN - 1]);
    out.extend_from_slice(&meta.seqno.0.to_le_bytes());
    out.extend_from_slice(&meta.cas.0.to_le_bytes());
    out.extend_from_slice(&meta.rev.0.to_le_bytes());
    out.extend_from_slice(&meta.flags.to_le_bytes());
    out.extend_from_slice(&meta.expiry.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&(key.len() as u16).to_le_bytes());
    out.extend_from_slice(key.as_bytes());
    out.extend_from_slice(value);
    let payload = start + HEADER_LEN;
    let crc = crc32(&out[payload..]);
    out[start + 1..start + 5].copy_from_slice(&crc.to_le_bytes());
    out[start + 5..payload].copy_from_slice(&(plen as u32).to_le_bytes());
    Ok(out.len() - start)
}

/// A record decoded in place: key and value borrow the input.
pub(crate) struct RecordView<'a> {
    pub key: &'a str,
    pub meta: DocMeta,
    pub kind: u8,
    pub value: &'a [u8],
}

impl RecordView<'_> {
    pub(crate) fn to_doc(&self) -> StoredDoc {
        StoredDoc {
            key: self.key.to_string(),
            meta: self.meta,
            deleted: self.kind != KIND_LIVE,
            value: Bytes::copy_from_slice(self.value),
        }
    }
}

/// Outcome of attempting to decode one record from a buffer.
pub(crate) enum Decoded<'a> {
    /// A record was decoded, consuming `consumed` bytes.
    Record { doc: RecordView<'a>, consumed: usize },
    /// The buffer ends mid-record (torn tail): recovery stops here.
    Incomplete,
    /// The bytes at the cursor are not a valid record (corruption).
    Corrupt(String),
}

/// Try to decode one record from the front of `buf` without copying it.
pub(crate) fn decode_view(buf: &[u8]) -> Decoded<'_> {
    if buf.is_empty() {
        return Decoded::Incomplete;
    }
    if buf[0] != RECORD_MAGIC {
        return Decoded::Corrupt(format!("bad magic byte {:#x}", buf[0]));
    }
    if buf.len() < HEADER_LEN {
        return Decoded::Incomplete;
    }
    let mut hdr = &buf[1..HEADER_LEN];
    let crc = hdr.get_u32_le();
    let plen = hdr.get_u32_le() as usize;
    if !(FIXED_LEN..=MAX_PAYLOAD_LEN).contains(&plen) {
        return Decoded::Corrupt(format!("implausible payload length {plen}"));
    }
    if buf.len() < HEADER_LEN + plen {
        return Decoded::Incomplete;
    }
    let mut p = &buf[HEADER_LEN..HEADER_LEN + plen];
    if crc32(p) != crc {
        return Decoded::Corrupt("payload checksum mismatch".to_string());
    }
    let meta = DocMeta {
        seqno: SeqNo(p.get_u64_le()),
        cas: Cas(p.get_u64_le()),
        rev: RevNo(p.get_u64_le()),
        flags: p.get_u32_le(),
        expiry: p.get_u32_le(),
    };
    if meta.seqno > SeqNo::MAX {
        return Decoded::Corrupt(format!("seqno {} past the seqno space", meta.seqno.0));
    }
    let kind = p.get_u8();
    let key_len = p.get_u16_le() as usize;
    if p.len() < key_len {
        return Decoded::Corrupt("key length exceeds payload".to_string());
    }
    let (key, value) = p.split_at(key_len);
    let Ok(key) = std::str::from_utf8(key) else {
        return Decoded::Corrupt("key is not utf-8".to_string());
    };
    Decoded::Record { doc: RecordView { key, meta, kind, value }, consumed: HEADER_LEN + plen }
}

/// Decode exactly one record or fail (used for random-access point reads at
/// known offsets, where torn records are impossible).
pub fn decode_record_strict(buf: &[u8]) -> Result<StoredDoc> {
    match decode_view(buf) {
        Decoded::Record { doc, .. } => Ok(doc.to_doc()),
        Decoded::Incomplete => Err(Error::Storage("truncated record".to_string())),
        Decoded::Corrupt(m) => Err(Error::Storage(m)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(key: &str, value: &str, seq: u64) -> StoredDoc {
        StoredDoc {
            key: key.to_string(),
            meta: DocMeta {
                seqno: SeqNo(seq),
                cas: Cas(seq * 1000 + 1),
                rev: RevNo(seq),
                flags: 0xDEAD,
                expiry: 0,
            },
            deleted: false,
            value: Bytes::copy_from_slice(value.as_bytes()),
        }
    }

    #[test]
    fn roundtrip() {
        let doc = sample("user::1", r#"{"name":"d"}"#, 7);
        let mut buf = Vec::new();
        let n = encode_record(&doc, &mut buf).unwrap();
        assert_eq!(n, buf.len());
        assert_eq!(n as u64, doc.disk_size());
        match decode_view(&buf) {
            Decoded::Record { doc: got, consumed } => {
                assert_eq!(got.to_doc(), doc);
                assert_eq!(consumed, n);
            }
            _ => panic!("expected a record"),
        }
    }

    #[test]
    fn value_is_encoded_where_it_lies() {
        // The record lands on the shared buffer behind earlier records; the
        // header is patched afterwards with the length and CRC of exactly
        // that payload.
        let doc = sample("k", r#"{"v":[1,2,3]}"#, 3);
        let mut whole = vec![0xAA; 5];
        let n = encode_record_with(&mut whole, &doc.key, &doc.meta, KIND_LIVE, &doc.value).unwrap();
        let mut direct = Vec::new();
        assert_eq!(encode_record(&doc, &mut direct).unwrap(), n);
        assert_eq!(&whole[5..], &direct[..]);
        assert_eq!(decode_record_strict(&whole[5..]).unwrap(), doc);
    }

    /// Records of every size around the CRC kernel's 64-byte threshold and
    /// up to a few KB: the checksum the write path stores is the one the
    /// portable table path computes, and the record decodes and re-encodes
    /// byte for byte. Logs written on a CPU without the kernel, or before
    /// it existed, read back unchanged.
    #[test]
    fn kernel_checksums_verify_through_the_table_path() {
        for value_len in (0..=160).chain([1200, 4096]) {
            let doc = sample("user::1", &"x".repeat(value_len), 5);
            let mut buf = Vec::new();
            encode_record(&doc, &mut buf).unwrap();
            let stored = u32::from_le_bytes([buf[1], buf[2], buf[3], buf[4]]);
            assert_eq!(stored, cbs_common::crc32::crc32_table(&buf[HEADER_LEN..]), "{value_len}");
            let Decoded::Record { doc: view, consumed } = decode_view(&buf) else {
                panic!("value length {value_len}: expected a record");
            };
            assert_eq!(consumed, buf.len());
            let mut again = Vec::new();
            encode_record_with(&mut again, view.key, &view.meta, view.kind, view.value).unwrap();
            assert_eq!(again, buf, "value length {value_len}");
        }
    }

    #[test]
    fn tombstone_roundtrip() {
        let mut doc = sample("gone", "", 9);
        doc.deleted = true;
        let mut buf = Vec::new();
        encode_record(&doc, &mut buf).unwrap();
        let got = decode_record_strict(&buf).unwrap();
        assert!(got.deleted);
        assert!(got.value.is_empty());
    }

    #[test]
    fn torn_tail_is_incomplete_not_corrupt() {
        let doc = sample("k", r#"{"v":1}"#, 1);
        let mut buf = Vec::new();
        let n = encode_record(&doc, &mut buf).unwrap();
        for cut in [1usize, HEADER_LEN - 1, HEADER_LEN, n - 1] {
            assert!(
                matches!(decode_view(&buf[..cut]), Decoded::Incomplete),
                "cut at {cut}: expected Incomplete"
            );
        }
    }

    #[test]
    fn bitflip_detected() {
        let doc = sample("k", r#"{"v":1}"#, 1);
        let mut buf = Vec::new();
        encode_record(&doc, &mut buf).unwrap();
        let mut bytes = buf.clone();
        // Flip a payload byte.
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(matches!(decode_view(&bytes), Decoded::Corrupt(_)));
        // Bad magic.
        let mut bytes2 = buf.clone();
        bytes2[0] = 0x00;
        assert!(matches!(decode_view(&bytes2), Decoded::Corrupt(_)));
    }

    /// The key length is a `u16` on disk: a longer key is refused with the
    /// buffer untouched, never truncated into a record that decodes as
    /// something else.
    #[test]
    fn over_long_key_is_refused_not_truncated() {
        let longest = sample(&"k".repeat(MAX_KEY_LEN), "{}", 1);
        let mut buf = Vec::new();
        encode_record(&longest, &mut buf).unwrap();
        assert_eq!(decode_record_strict(&buf).unwrap(), longest);

        let too_long = sample(&"k".repeat(70_000), "{}", 1);
        let mut buf = vec![7u8; 3];
        assert_eq!(encode_record(&too_long, &mut buf), Err(Error::KeyTooLong(70_000)));
        assert_eq!(buf, [7u8; 3]);
        assert_eq!(check_key_len(&too_long.key), Err(Error::KeyTooLong(70_000)));
        assert_eq!(check_key_len(&longest.key), Ok(()));
    }

    /// The payload and seqno bounds are the decoder's own: the largest
    /// payload and the last seqno round-trip; one byte or one seqno more is
    /// refused with the buffer untouched, never written as a record that a
    /// reopen would take for corruption.
    #[test]
    fn payload_and_seqno_past_their_bounds_are_refused() {
        let mut largest = sample("big", "", SeqNo::MAX.0);
        largest.value = Bytes::from(vec![b'x'; MAX_PAYLOAD_LEN - FIXED_LEN - 3]);
        let mut buf = Vec::new();
        encode_record(&largest, &mut buf).unwrap();
        assert_eq!(decode_record_strict(&buf).unwrap(), largest);

        let mut buf = vec![7u8; 3];
        largest.value = Bytes::from(vec![b'x'; MAX_PAYLOAD_LEN - FIXED_LEN - 2]);
        let refused = encode_record(&largest, &mut buf);
        assert_eq!(refused, Err(Error::RecordTooLarge(MAX_PAYLOAD_LEN + 1)));
        let past = sample("k", "{}", SeqNo::MAX.0 + 1);
        assert_eq!(encode_record(&past, &mut buf), Err(Error::SeqNoOutOfRange(1 << 48)));
        assert_eq!(buf, [7u8; 3]);
    }

    #[test]
    fn strict_decode_errors() {
        assert!(decode_record_strict(&[]).is_err());
        assert!(decode_record_strict(&[0x42]).is_err());
    }
}
