//! Hostile bytes never panic storage recovery. Arbitrary bytes, and valid
//! bucket logs with flipped bits, a cut tail or garbage behind them, go
//! through the record decoder, `replay_file` and `BucketStore::open`.
//! Recovery keeps the intact prefix — every record before the first damaged
//! byte — and indexes nothing that fails its CRC: each indexed record reads
//! back through the checked decoder as exactly the version replay saw. A
//! record whose CRC holds but whose seqno is past the 48-bit seqno space is
//! corruption too: no encoder writes one.

// Tests unwrap freely; the crate's unwrap_used deny targets lib code (the
// allow-unwrap-in-tests config covers #[test] fns but not file helpers).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use cbs_common::{crc32, Cas, DocMeta, SeqNo, VbId};
use cbs_storage::record::{decode_record_strict, HEADER_LEN, RECORD_MAGIC};
use cbs_storage::{replay_file, scratch_dir, BucketStore, Cycle, StoredDoc};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const VBUCKETS: u16 = 16;

/// A valid bucket log: its bytes and, in order, each frame's end offset and
/// record.
#[derive(Default)]
struct Log {
    bytes: Vec<u8>,
    frames: Vec<(usize, VbId, StoredDoc)>,
}

/// Records `(vb, key, value length or a tombstone)` committed a few per
/// cycle, seqnos counting per vBucket.
fn write_log(spec: &[(u16, u8, Option<u16>)]) -> Log {
    let dir = scratch_dir("hostile-src");
    {
        let store = BucketStore::open(dir.clone()).unwrap();
        let mut seqnos = [0u64; VBUCKETS as usize];
        for (i, chunk) in spec.chunks(4).enumerate() {
            let mut cycle = Cycle::new();
            for (j, &(vb, key, len)) in chunk.iter().enumerate() {
                seqnos[vb as usize] += 1;
                let meta = DocMeta {
                    seqno: SeqNo(seqnos[vb as usize]),
                    cas: Cas((i * 4 + j) as u64 + 1),
                    ..Default::default()
                };
                let value = len.map(|n| format!(r#"{{"p":"{}"}}"#, "x".repeat(n as usize)));
                let body = value.as_deref().unwrap_or_default().as_bytes();
                cycle.push(VbId(vb), &format!("k{key}"), &meta, len.is_none(), body).unwrap();
            }
            store.commit(&mut cycle).unwrap();
        }
    }
    let path = log_path(&dir);
    let bytes = std::fs::read(&path).unwrap();
    let mut recs = Vec::new();
    assert_eq!(replay_file(&path, &mut recs).unwrap(), bytes.len() as u64);
    let mut end = 0;
    let frames = recs
        .into_iter()
        .map(|(vb, doc)| {
            end += 2 + doc.disk_size() as usize;
            (end, vb, doc)
        })
        .collect();
    std::fs::remove_dir_all(dir).unwrap();
    Log { bytes, frames }
}

fn log_path(dir: &Path) -> PathBuf {
    dir.join("shard_0.couch")
}

fn arb_spec() -> impl Strategy<Value = Vec<(u16, u8, Option<u16>)>> {
    let rec = (0..VBUCKETS, 0u8..8, prop::option::of(0u16..300));
    prop::collection::vec(rec, 1..40)
}

/// How a log is damaged.
#[derive(Debug, Clone)]
enum Damage {
    /// Cut at this fraction of its length.
    Truncate(f64),
    /// Flip `(position fraction, bit)` pairs.
    Flip(Vec<(f64, u8)>),
    /// Keep this fraction of it and append the bytes.
    Garbage(f64, Vec<u8>),
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        (0.0f64..1.0).prop_map(Damage::Truncate),
        prop::collection::vec((0.0f64..1.0, 0u8..8), 1..4).prop_map(Damage::Flip),
        (0.0f64..1.0, prop::collection::vec(any::<u8>(), 1..600))
            .prop_map(|(keep, tail)| Damage::Garbage(keep, tail)),
    ]
}

/// The damaged bytes and the offset of the first byte that differs from
/// the valid log.
fn damage(log: &[u8], how: &Damage) -> (Vec<u8>, usize) {
    let at = |f: f64| ((log.len() as f64 * f) as usize).min(log.len() - 1);
    match how {
        Damage::Truncate(f) => (log[..at(*f)].to_vec(), at(*f)),
        Damage::Flip(flips) => {
            let mut bytes = log.to_vec();
            for &(f, bit) in flips {
                bytes[at(f)] ^= 1 << bit;
            }
            let first = (0..log.len()).find(|&i| bytes[i] != log[i]).unwrap_or(log.len());
            (bytes, first)
        }
        Damage::Garbage(f, tail) => {
            let mut bytes = log[..at(*f)].to_vec();
            bytes.extend_from_slice(tail);
            (bytes, at(*f))
        }
    }
}

/// Replay `bytes` as a bucket log and open a store over them; check that
/// the replay is a prefix of `log` covering every frame that ends by
/// `first_damage`, and that the store indexes exactly the latest replayed
/// version of each key.
fn recover(log: &Log, bytes: &[u8], first_damage: usize) -> Result<(), TestCaseError> {
    let dir = scratch_dir("hostile");
    std::fs::write(log_path(&dir), bytes).unwrap();
    let mut replayed = Vec::new();
    let intact = replay_file(&log_path(&dir), &mut replayed).unwrap() as usize;
    prop_assert!(intact <= bytes.len());
    let whole = log.frames.iter().take_while(|(end, ..)| *end <= first_damage).count();
    prop_assert!(
        replayed.len() >= whole,
        "{} records replayed of {whole} undamaged",
        replayed.len()
    );
    for (i, (vb, doc)) in replayed.iter().enumerate() {
        let (end, want_vb, want) = &log.frames[i];
        // A flip in a frame's vBucket prefix, which no CRC covers, moves a
        // record; its contents are checked.
        prop_assert_eq!(doc, want, "record {} is not the one written", i);
        prop_assert!(vb == want_vb || *end > first_damage);
    }
    prop_assert_eq!(intact, replayed.last().map_or(0, |_| log.frames[replayed.len() - 1].0));

    let store = BucketStore::open(dir.clone()).unwrap();
    prop_assert_eq!(store.log_bytes(), intact as u64, "the damaged tail is cut off");
    let latest: BTreeMap<(VbId, &str), &StoredDoc> =
        replayed.iter().map(|(vb, doc)| ((*vb, doc.key.as_str()), doc)).collect();
    for (&(vb, key), &doc) in &latest {
        let indexed = store.vb(vb).unwrap().get(key).unwrap();
        prop_assert_eq!(indexed.as_ref(), Some(doc));
    }
    for vb in store.open_vbs() {
        let s = store.vb(vb).unwrap();
        let held = latest.keys().filter(|(v, _)| *v == vb).count() as u64;
        let stats = s.stats();
        prop_assert_eq!(stats.live_docs + stats.tombstones, held, "{:?} indexes extra keys", vb);
        prop_assert_eq!(s.changes_since(SeqNo::ZERO).unwrap().len() as u64, held);
    }
    drop(store);
    std::fs::remove_dir_all(dir).unwrap();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// A damaged valid log recovers its intact prefix.
    #[test]
    fn a_damaged_log_recovers_its_intact_prefix(spec in arb_spec(), how in arb_damage()) {
        let log = write_log(&spec);
        let (bytes, first) = damage(&log.bytes, &how);
        recover(&log, &bytes, first)?;
    }

    /// A CRC-valid record with seqno 2⁴⁸, spliced in at a frame boundary,
    /// ends the intact prefix there: the records before it are kept, it and
    /// everything behind it are cut off, and nothing panics.
    #[test]
    fn a_seqno_past_the_seqno_space_ends_the_intact_prefix(spec in arb_spec(), at in 0.0f64..1.0) {
        let log = write_log(&spec);
        let whole = (log.frames.len() as f64 * at) as usize;
        let cut = whole.checked_sub(1).map_or(0, |i| log.frames[i].0);
        let mut bytes = log.bytes[..cut].to_vec();
        bytes.extend_from_slice(&forged_frame(SeqNo::MAX.0 + 1));
        bytes.extend_from_slice(&log.bytes[cut..]);
        let dir = scratch_dir("hostile-seqno");
        std::fs::write(log_path(&dir), &bytes).unwrap();
        let mut replayed = Vec::new();
        prop_assert_eq!(replay_file(&log_path(&dir), &mut replayed).unwrap(), cut as u64);
        prop_assert_eq!(replayed.len(), whole);
        std::fs::remove_dir_all(dir).unwrap();
        recover(&log, &bytes, cut)?;
    }

    /// Bytes that were never a log recover to nothing — they hold a record
    /// only by a CRC collision — and never panic.
    #[test]
    fn arbitrary_bytes_never_panic_recovery(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        recover(&Log::default(), &bytes, 0)?;
    }

    /// The checked decoder never panics, and accepts a buffer only if it
    /// starts with a record whose payload passes its CRC.
    #[test]
    fn the_record_decoder_accepts_only_checksummed_payloads(
        spec in arb_spec(),
        how in arb_damage(),
        garbage in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let log = write_log(&spec);
        let (damaged, _) = damage(&log.bytes, &how);
        let mut start = 0;
        for (end, _, doc) in &log.frames {
            // Behind its 2-byte vBucket prefix, a frame is one record.
            let valid = &log.bytes[start + 2..*end];
            prop_assert_eq!(&decode_record_strict(valid).unwrap(), doc);
            let tail = damaged.get(start + 2..).unwrap_or_default();
            prop_assert!(decode_record_strict(tail).is_err() || checksummed(tail));
            start = *end;
        }
        prop_assert!(decode_record_strict(&garbage).is_err() || checksummed(&garbage));
    }
}

/// A vBucket-0 frame holding a live record of key `forged` at `seqno`, its
/// CRC valid: written by hand, since the encoder refuses a seqno past
/// `SeqNo::MAX`.
fn forged_frame(seqno: u64) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&seqno.to_le_bytes());
    payload.extend_from_slice(&[0u8; 8 + 8 + 4 + 4 + 1]); // cas, rev, flags, expiry, live
    payload.extend_from_slice(&6u16.to_le_bytes());
    payload.extend_from_slice(b"forged{}");
    let mut frame = vec![0u8, 0u8, RECORD_MAGIC];
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// `buf` starts with a record header whose payload is all there and
/// matches its CRC.
fn checksummed(buf: &[u8]) -> bool {
    let field = |at: usize| u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]]);
    buf.len() >= HEADER_LEN
        && buf[0] == RECORD_MAGIC
        && buf.get(HEADER_LEN..HEADER_LEN + field(5) as usize).is_some_and(|p| crc32(p) == field(1))
}
