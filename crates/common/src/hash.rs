//! The hasher of the key tables.
//!
//! Every copy of every document passes through per-vBucket hash tables keyed
//! by [`DocKey`](crate::DocKey): the cache shard, the storage index, the GETL
//! locks, the dirty queue's trace contexts and the GSI indexer's document
//! map. std's default SipHash-1-3 costs more than the probe it serves on a
//! ~20-byte key, so those tables hash with [`KeyHasher`]: one folded
//! multiply per 16 bytes of key (the 128-bit product's halves XORed
//! together, as foldhash and aHash do), keyed by a seed drawn once per
//! process from std's `RandomState`.
//!
//! Threat model: document IDs come from clients, so a table must not be
//! floodable with keys chosen to collide. The seed is random per process and
//! never leaves it, so colliding keys cannot be precomputed offline. The
//! folded multiply is not a PRF, though: unlike SipHash it promises nothing
//! against an attacker who can measure a table's probe times over many
//! requests and search for collisions adaptively. The tables are per
//! vBucket (1 024 per bucket), which also caps what one flood degrades.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A table keyed by document ID.
pub type KeyMap<V> = HashMap<crate::DocKey, V, KeyHash>;

/// The low and high halves of the 128-bit product, XORed.
#[inline(always)]
fn fold_mul(x: u64, y: u64) -> u64 {
    let full = u128::from(x) * u128::from(y);
    (full as u64) ^ ((full >> 64) as u64)
}

/// Fractional digits of π: fixed odd constants that keep a zero seed (or a
/// zero word of input) from zeroing a product.
const PI: [u64; 3] = [0x243F_6A88_85A3_08D3, 0x1319_8A2E_0370_7344, 0xA409_3822_299F_31D0];

/// The process's seed, drawn from `RandomState` on first use.
fn process_seed() -> [u64; 2] {
    static SEED: OnceLock<[u64; 2]> = OnceLock::new();
    *SEED.get_or_init(|| {
        let random = RandomState::new();
        [random.hash_one(PI[0]) | 1, random.hash_one(PI[1])]
    })
}

/// Builds [`KeyHasher`]s with the process's seed; what [`KeyMap`] (and any
/// other table keyed by a document ID) is parameterised by.
#[derive(Clone, Copy, Debug)]
pub struct KeyHash {
    seed: [u64; 2],
}

impl Default for KeyHash {
    fn default() -> KeyHash {
        KeyHash { seed: process_seed() }
    }
}

impl BuildHasher for KeyHash {
    type Hasher = KeyHasher;

    #[inline]
    fn build_hasher(&self) -> KeyHasher {
        KeyHasher { acc: self.seed[1], seed: self.seed[0] }
    }
}

/// A folded-multiply hasher (see the module documentation).
#[derive(Clone, Copy, Debug)]
pub struct KeyHasher {
    acc: u64,
    seed: u64,
}

#[inline(always)]
fn read8(b: &[u8]) -> u64 {
    let mut w = [0; 8];
    w.copy_from_slice(&b[..8]);
    u64::from_le_bytes(w)
}

#[inline(always)]
fn read4(b: &[u8]) -> u64 {
    let mut w = [0; 4];
    w.copy_from_slice(&b[..4]);
    u64::from(u32::from_le_bytes(w))
}

impl Hasher for KeyHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let len = bytes.len();
        let mut acc = self.acc.wrapping_add(len as u64);
        // Up to 16 bytes are read as two (possibly overlapping) words; a
        // longer input folds 16 bytes at a time and ends on its last 16.
        let (lo, hi) = if len > 16 {
            let mut rest = bytes;
            while rest.len() > 16 {
                acc = fold_mul(read8(rest) ^ acc, read8(&rest[8..]) ^ self.seed);
                rest = &rest[16..];
            }
            let tail = &bytes[len - 16..];
            (read8(tail), read8(&tail[8..]))
        } else if len >= 8 {
            (read8(bytes), read8(&bytes[len - 8..]))
        } else if len >= 4 {
            (read4(bytes), read4(&bytes[len - 4..]))
        } else if len > 0 {
            let three = u64::from(bytes[0]) | u64::from(bytes[len / 2]) << 8;
            (three | u64::from(bytes[len - 1]) << 16, 0)
        } else {
            (0, 0)
        };
        self.acc = fold_mul(lo ^ acc ^ PI[2], hi ^ self.seed);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.acc = fold_mul(self.acc ^ i, self.seed ^ PI[0]);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // hashbrown takes the bucket from the low bits and the control tag
        // from the top seven: one more fold spreads every input bit to both.
        fold_mul(self.acc, self.seed ^ PI[1]).rotate_left(23)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DocKey;

    #[test]
    fn one_seed_per_process() {
        assert_eq!(KeyHash::default().hash_one("k"), KeyHash::default().hash_one("k"));
        assert_ne!(KeyHash::default().hash_one("k1"), KeyHash::default().hash_one("k2"));
    }

    /// Keys that differ in one byte anywhere, or only in length, spread
    /// over both ends of the hash: the low bits pick the bucket and the top
    /// seven are the probe tag. Chance alone shares a 16-bit bucket with
    /// p = 2⁻¹⁶ and a tag with p = 2⁻⁷: over ~190 pairs, ~0.003 and ~1.5.
    #[test]
    fn similar_keys_spread_over_buckets_and_tags() {
        let build = KeyHash::default();
        let (mut pairs, mut same_bucket, mut same_tag) = (0, 0, 0);
        for len in [0usize, 1, 2, 3, 4, 7, 8, 15, 16, 17, 22, 23, 40, 64] {
            let base = "k".repeat(len);
            let mut variants: Vec<String> = (0..len)
                .map(|i| {
                    let mut b = base.clone().into_bytes();
                    b[i] = b'j';
                    String::from_utf8(b).unwrap()
                })
                .collect();
            variants.push(format!("{base}k"));
            let h0 = build.hash_one(base.as_str());
            for v in &variants {
                let h = build.hash_one(v.as_str());
                pairs += 1;
                same_bucket += usize::from(h & 0xFFFF == h0 & 0xFFFF);
                same_tag += usize::from(h >> 57 == h0 >> 57);
            }
        }
        assert!(pairs > 180);
        assert!(same_bucket <= 1 && same_tag <= 12, "{same_bucket} buckets, {same_tag} tags");
    }

    #[test]
    fn ids_of_a_load_fill_a_table_evenly() {
        let build = KeyHash::default();
        let mut buckets = [0u32; 256];
        for i in 0..25_600 {
            buckets[(build.hash_one(format!("user{i:012}").as_str()) & 255) as usize] += 1;
        }
        let (min, max) = (buckets.iter().min().unwrap(), buckets.iter().max().unwrap());
        assert!(*min > 50 && *max < 160, "uneven: {min}..{max}");
    }

    #[test]
    fn a_key_map_is_probed_by_str() {
        let mut map = KeyMap::default();
        map.insert(DocKey::from("a"), 1);
        map.insert(DocKey::from("a-key-longer-than-the-inline-capacity"), 2);
        assert_eq!(map.get("a"), Some(&1));
        assert_eq!(map.get("a-key-longer-than-the-inline-capacity"), Some(&2));
    }
}
