//! The key tables and their hasher.
//!
//! Every copy of every document passes through tables keyed by
//! [`DocKey`](crate::DocKey): per vBucket the cache shard, the storage
//! index, the GETL locks and the dirty queue's trace contexts; per index
//! partition the GSI indexer's document map and FTS's. Under value-only eviction the cache's and the storage index's
//! tables hold every key of the bucket (§4.3.3), so their bytes per key are
//! part of its memory floor. A [`KeyMap`] keeps its `(DocKey, V)` entries
//! densely in one vector, grown by half again when full and compacted by
//! moving the last entry into a removed one's place, behind an
//! open-addressing array of 4-byte slots: a power of two of them, at most
//! three quarters full, probed linearly, with backward-shift deletion (so
//! no tombstones). A slot holds an entry's index in its low bits and a tag
//! of the key's hash in the bits the index does not need — 25 bits in a
//! table of 128 slots, 8 at 2²⁴ — so a probe reads an entry only when its
//! tag matches. An empty slot costs 4 bytes, not a whole entry, and the
//! vector's capacity tracks the entry count instead of doubling past it.
//!
//! The tables hash with [`KeyHasher`]: std's default SipHash-1-3 costs more
//! than the probe it serves on a ~20-byte key, so it is one folded multiply
//! per 16 bytes of key (the 128-bit product's halves XORed together, as
//! foldhash and aHash do), keyed by a seed drawn once per process from
//! std's `RandomState`. The slot is taken from the hash's low bits and the
//! tag from its high ones.
//!
//! Threat model: document IDs come from clients, so a table must not be
//! floodable with keys chosen to collide. Linear probing makes a collision
//! cost more than a chained table does: keys whose hashes land in one run
//! of slots lengthen the probe of every key homed in that run, not only of
//! their own. The seed is random per process and never leaves it, so
//! colliding keys cannot be precomputed offline. The folded multiply is not
//! a PRF, though: unlike SipHash it promises nothing against an attacker
//! who can measure a table's probe times over many requests and search for
//! collisions adaptively. The KV tables are per vBucket (1 024 per bucket),
//! which also caps what one flood degrades, and a key compare is paid only
//! where a tag of up to 25 hash bits matches too.
//!
//! Memory runs out before a table's entry count does: its slots hold a
//! `u32`, so it indexes up to 3·2³⁰ entries (three quarters of 2³² slots),
//! more than 70 GiB of keys alone in one vBucket's or partition's table.

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};
use std::mem;
use std::sync::OnceLock;

use crate::DocKey;

/// A table keyed by document ID (see the module documentation).
pub struct KeyMap<V> {
    /// The entries, densely, in no particular order.
    entries: Vec<(DocKey, V)>,
    /// `0` for an empty slot; otherwise the entry's index plus one in the
    /// bits of `slots.len() - 1` and the hash's tag in the rest.
    slots: Box<[u32]>,
    hasher: KeyHash,
}

/// The most slots a table has: a slot's index bits must fit a `u32`.
const MAX_SLOTS: usize = 1 << 32;

impl<V> Default for KeyMap<V> {
    fn default() -> KeyMap<V> {
        KeyMap { entries: Vec::new(), slots: Box::new([]), hasher: KeyHash::default() }
    }
}

impl<V> KeyMap<V> {
    /// Entries held.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry is held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Heap bytes held, from the two capacities: what the allocator has
    /// handed the table, whether or not entries fill it.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.entries.capacity() * mem::size_of::<(DocKey, V)>()
            + self.slots.len() * mem::size_of::<u32>()
    }

    /// The value of `key`.
    #[inline]
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        DocKey: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let (_, i) = self.find(key)?;
        Some(&self.entries[i].1)
    }

    /// The value of `key`, to change in place.
    #[inline]
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        DocKey: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let (_, i) = self.find(key)?;
        Some(&mut self.entries[i].1)
    }

    /// True when `key` is held.
    #[inline]
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        DocKey: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.find(key).is_some()
    }

    /// Set `key`'s value; returns the one it replaces.
    pub fn insert(&mut self, key: DocKey, value: V) -> Option<V> {
        let hash = self.hasher.hash_one(&key);
        if let Some((_, i)) = self.probe(hash, key.as_str()) {
            return Some(mem::replace(&mut self.entries[i].1, value));
        }
        let capacity = self.entries.capacity();
        if self.entries.len() == capacity {
            // Half again, not double: at most a third of a table's entry
            // capacity is spare.
            self.entries.reserve_exact(if capacity == 0 { 4 } else { capacity / 2 });
        }
        if (self.entries.len() + 1) * 4 > self.slots.len() * 3 {
            self.resize_slots((self.slots.len() * 2).max(8));
        }
        self.entries.push((key, value));
        self.place(hash, self.entries.len() - 1);
        None
    }

    /// Remove `key`; returns its value.
    #[inline]
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        DocKey: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.remove_entry(key).map(|(_, value)| value)
    }

    /// Remove `key`; returns the entry, key included.
    pub fn remove_entry<Q>(&mut self, key: &Q) -> Option<(DocKey, V)>
    where
        DocKey: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let (slot, i) = self.find(key)?;
        self.erase(slot);
        let last = self.entries.len() - 1;
        if i != last {
            // The last entry moves into the removed one's place.
            let hash = self.hasher.hash_one(&self.entries[last].0);
            let mask = self.mask();
            let mut pos = hash as usize & mask;
            while self.index_at(pos) != Some(last) {
                pos = (pos + 1) & mask;
            }
            self.slots[pos] = (self.slots[pos] & !(mask as u32)) | (i as u32 + 1);
        }
        Some(self.entries.swap_remove(i))
    }

    /// Keep only the entries `keep` returns true for; it may change each
    /// value it sees. Memory stays as it is.
    pub fn retain(&mut self, mut keep: impl FnMut(&DocKey, &mut V) -> bool) {
        let held = self.entries.len();
        self.entries.retain_mut(|(key, value)| keep(key, value));
        if self.entries.len() != held {
            self.slots.fill(0);
            for i in 0..self.entries.len() {
                self.place(self.hasher.hash_one(&self.entries[i].0), i);
            }
        }
    }

    /// Remove every entry and free the table's memory.
    pub fn clear(&mut self) {
        self.entries = Vec::new();
        self.slots = Box::new([]);
    }

    /// Every entry, in no particular order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&DocKey, &V)> {
        self.entries.iter().map(|(key, value)| (key, value))
    }

    /// Every key, in no particular order.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = &DocKey> {
        self.entries.iter().map(|(key, _)| key)
    }

    /// Every value, in no particular order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &V> {
        self.entries.iter().map(|(_, value)| value)
    }

    /// Every value, to change in place.
    pub fn values_mut(&mut self) -> impl ExactSizeIterator<Item = &mut V> {
        self.entries.iter_mut().map(|(_, value)| value)
    }

    /// The values, consuming the table.
    pub fn into_values(self) -> impl ExactSizeIterator<Item = V> {
        self.entries.into_iter().map(|(_, value)| value)
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len().wrapping_sub(1)
    }

    /// The index of the entry in slot `pos`; `None` when it is empty.
    #[inline]
    fn index_at(&self, pos: usize) -> Option<usize> {
        let index = (self.slots[pos] & self.mask() as u32) as usize;
        index.checked_sub(1)
    }

    /// The slot and the entry index of `key`. An empty table — most
    /// vBuckets' GETL locks and trace contexts — is not hashed for.
    #[inline]
    fn find<Q>(&self, key: &Q) -> Option<(usize, usize)>
    where
        DocKey: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if self.entries.is_empty() {
            return None;
        }
        self.probe(self.hasher.hash_one(key), key)
    }

    /// The slot and the entry index of `key`, whose hash is `hash`.
    #[inline]
    fn probe<Q>(&self, hash: u64, key: &Q) -> Option<(usize, usize)>
    where
        DocKey: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.mask();
        let tag = tag(hash, mask);
        let mut pos = hash as usize & mask;
        loop {
            let slot = self.slots[pos];
            if slot == 0 {
                return None;
            }
            if slot & !(mask as u32) == tag {
                let i = (slot & mask as u32) as usize - 1;
                if self.entries[i].0.borrow() == key {
                    return Some((pos, i));
                }
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Point the first free slot of `hash`'s probe sequence at entry `i`.
    #[inline]
    fn place(&mut self, hash: u64, i: usize) {
        let mask = self.mask();
        let mut pos = hash as usize & mask;
        while self.slots[pos] != 0 {
            pos = (pos + 1) & mask;
        }
        self.slots[pos] = tag(hash, mask) | (i as u32 + 1);
    }

    /// Empty slot `pos`, shifting back each later slot of its run that may
    /// move closer to its home: a probe never meets a hole inside its run.
    fn erase(&mut self, pos: usize) {
        let mask = self.mask();
        let (mut hole, mut at) = (pos, (pos + 1) & mask);
        while let Some(i) = self.index_at(at) {
            let home = self.hasher.hash_one(&self.entries[i].0) as usize & mask;
            if at.wrapping_sub(home) & mask >= at.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[at];
                hole = at;
            }
            at = (at + 1) & mask;
        }
        self.slots[hole] = 0;
    }

    /// Rebuild the slots as `len` of them (a power of two).
    fn resize_slots(&mut self, len: usize) {
        if len > MAX_SLOTS {
            // Past 3·2³⁰ entries: what a failed allocation does.
            std::alloc::handle_alloc_error(std::alloc::Layout::new::<[u32; 2]>());
        }
        self.slots = vec![0; len].into_boxed_slice();
        for i in 0..self.entries.len() {
            self.place(self.hasher.hash_one(&self.entries[i].0), i);
        }
    }
}

/// A hash's tag in a table of `mask + 1` slots: its high 32 bits without
/// those the entry index takes.
#[inline]
fn tag(hash: u64, mask: usize) -> u32 {
    (hash >> 32) as u32 & !(mask as u32)
}

impl<V> IntoIterator for KeyMap<V> {
    type Item = (DocKey, V);
    type IntoIter = std::vec::IntoIter<(DocKey, V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

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

/// Builds [`KeyHasher`]s with the process's seed: what [`KeyMap`] hashes
/// with, and what any other table keyed by a document ID is parameterised
/// by.
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
        // A KeyMap takes the slot from the low bits and the tag from the
        // high ones: one more fold spreads every input bit to both.
        fold_mul(self.acc, self.seed ^ PI[1]).rotate_left(23)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_per_process() {
        assert_eq!(KeyHash::default().hash_one("k"), KeyHash::default().hash_one("k"));
        assert_ne!(KeyHash::default().hash_one("k1"), KeyHash::default().hash_one("k2"));
    }

    /// Keys that differ in one byte anywhere, or only in length, spread
    /// over both ends of the hash: the low bits pick the slot and the high
    /// ones are the tag, of which a table of 2²⁴ slots keeps the top eight.
    /// Chance alone shares a 16-bit slot with p = 2⁻¹⁶ and an 8-bit tag with
    /// p = 2⁻⁸: over ~190 pairs, ~0.003 and ~0.75.
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
                same_tag += usize::from(h >> 56 == h0 >> 56);
            }
        }
        assert!(pairs > 180);
        assert!(same_bucket <= 1 && same_tag <= 8, "{same_bucket} slots, {same_tag} tags");
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

    /// The entry vector grows by half again, and the slots double once
    /// three quarters are taken; `heap_bytes` is the two capacities.
    #[test]
    fn a_table_grows_by_half_and_keeps_a_quarter_of_its_slots_free() {
        let mut map = KeyMap::default();
        assert_eq!(map.heap_bytes(), 0);
        let mut caps = Vec::new();
        for i in 0..100u64 {
            map.insert(DocKey::from(format!("k{i}").as_str()), i);
            if caps.last() != Some(&map.entries.capacity()) {
                caps.push(map.entries.capacity());
            }
            assert!(map.len() * 4 <= map.slots.len() * 3);
        }
        assert_eq!(caps, [4, 6, 9, 13, 19, 28, 42, 63, 94, 141]);
        assert_eq!(map.slots.len(), 256);
        assert_eq!(map.heap_bytes(), 141 * mem::size_of::<(DocKey, u64)>() + 256 * 4);
        map.retain(|_, v| *v % 2 == 0);
        assert_eq!((map.len(), map.heap_bytes()), (50, 141 * 32 + 256 * 4));
        assert!(
            (0..100u64).all(|i| map.get(format!("k{i}").as_str()) == (i % 2 == 0).then_some(&i))
        );
        map.clear();
        assert_eq!((map.len(), map.heap_bytes(), map.get("k0")), (0, 0, None));
    }

    /// Removal in every order keeps every other key findable: the moved
    /// last entry is re-pointed and the run behind a hole shifts back.
    #[test]
    fn removals_keep_the_rest_findable() {
        for step in [1u64, 7, 13, 31] {
            let mut map = KeyMap::default();
            for i in 0..64u64 {
                map.insert(DocKey::from(format!("key-{i}").as_str()), i);
            }
            let mut gone = Vec::new();
            for n in 0..64u64 {
                let i = n * step % 64;
                assert_eq!(map.remove_entry(format!("key-{i}").as_str()).map(|e| e.1), Some(i));
                gone.push(i);
                for j in 0..64u64 {
                    let want = (!gone.contains(&j)).then_some(&j);
                    assert_eq!(map.get(format!("key-{j}").as_str()), want, "step {step}");
                }
            }
            assert!(map.is_empty());
        }
    }
}
