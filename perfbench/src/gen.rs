//! The benchmark's own input generator: splitmix64, YCSB's scrambled
//! zipfian, keys, documents and the operation stream.
//!
//! Nothing here touches `cbs-ycsb` or `vendor/rand`, so editing those can
//! never change what the benchmark feeds the product. Everything is a pure
//! function of the seed.

use cbs_json::{SharedValue, Value};

/// Zipfian skew, YCSB's default.
pub const THETA: f64 = 0.99;
/// Pre-built update documents shared by every write of a run.
pub const POOL_DOCS: usize = 1024;
/// YCSB record shape: ten fields of a hundred bytes (~1.1 KB as JSON).
const FIELDS: usize = 10;
const FIELD_BYTES: usize = 100;
const FIELD_NAMES: [&str; FIELDS] = [
    "field0", "field1", "field2", "field3", "field4", "field5", "field6", "field7", "field8",
    "field9",
];

/// splitmix64 (Steele, Lea, Flood): one add, two xor-shift-multiplies.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for the
    /// sizes used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Gray et al.'s zipfian generator as YCSB uses it, over ranks `0..n`,
/// with the ranks scattered over the key space by a hash so the hot keys
/// are not neighbours.
#[derive(Debug, Clone)]
pub struct ScrambledZipfian {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    half_pow_theta: f64,
}

impl ScrambledZipfian {
    pub fn new(n: u64) -> ScrambledZipfian {
        let zeta = |k: u64| (1..=k).map(|i| 1.0 / (i as f64).powf(THETA)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - THETA)) / (1.0 - zeta(2) / zetan);
        ScrambledZipfian {
            n,
            alpha: 1.0 / (1.0 - THETA),
            zetan,
            eta,
            half_pow_theta: 0.5f64.powf(THETA),
        }
    }

    /// The popularity rank: 0 is the hottest.
    pub fn next_rank(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            0
        } else if uz < 1.0 + self.half_pow_theta {
            1
        } else {
            ((self.n as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64 % self.n
        }
    }

    /// A key index in `0..n`.
    pub fn next(&self, rng: &mut SplitMix64) -> u64 {
        mix(self.next_rank(rng)) % self.n
    }
}

/// How the keys of a workload are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyDist {
    Zipfian,
    Uniform,
}

/// Document id of key index `i`. Fixed width, so ids sort like indexes
/// and a range scan's expected rows can be computed from the index alone.
pub fn key_for(i: u32) -> String {
    format!("user{i:012}")
}

fn build_doc(rng: &mut SplitMix64, ver: i64) -> Value {
    let mut pairs: Vec<(&str, Value)> = Vec::with_capacity(FIELDS + 1);
    // `ver` is what the correctness check reads back: 0 for a loaded
    // document, pool index + 1 for an update.
    pairs.push(("ver", Value::int(ver)));
    for name in FIELD_NAMES {
        let mut s = String::with_capacity(FIELD_BYTES);
        while s.len() < FIELD_BYTES {
            let mut word = rng.next_u64();
            for _ in 0..10 {
                s.push((b'a' + (word % 26) as u8) as char);
                word /= 26;
            }
        }
        pairs.push((name, Value::from(s)));
    }
    Value::object(pairs)
}

/// The documents the loader inserts for key indexes `range`. Built one
/// batch at a time so the benchmark does not keep a second copy of the
/// data set alive beside the product's cache.
pub fn load_docs(seed: u64, range: std::ops::Range<u32>) -> Vec<SharedValue> {
    range
        .map(|i| {
            let mut rng = SplitMix64::new(mix(seed ^ 0x10AD) ^ i as u64);
            SharedValue::new(build_doc(&mut rng, 0))
        })
        .collect()
}

/// The update pool: document `p` carries `ver = p + 1`.
pub fn update_pool(seed: u64) -> Vec<SharedValue> {
    let mut rng = SplitMix64::new(mix(seed ^ 0x9001));
    (0..POOL_DOCS).map(|p| SharedValue::new(build_doc(&mut rng, p as i64 + 1))).collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `get` of key `key`.
    Get,
    /// Memory-acked `upsert` of key `key` with pool document `arg`.
    Upsert,
    /// `upsert_durable` of key `key` with pool document `arg`.
    UpsertDurable,
    /// `upsert` of the new key `key` (≥ the loaded count, ascending) with
    /// pool document `arg`.
    Insert,
    /// `EXECUTE ycsb_scan` from key `key` with `LIMIT arg`.
    Scan,
}

impl OpKind {
    pub fn is_read(self) -> bool {
        matches!(self, OpKind::Get | OpKind::Scan)
    }
}

/// Eight bytes, so a stream of millions stays a small part of the
/// process's memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub key: u32,
    /// Pool index of a write's document, or a scan's `LIMIT`.
    pub arg: u16,
    pub kind: OpKind,
}

/// The traffic mix of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub records: u32,
    pub dist: KeyDist,
    /// Reads per 1000 operations.
    pub read_permille: u32,
    pub read: OpKind,
    pub write: OpKind,
}

/// `len` operations, a pure function of `(seed, mix)`; a longer stream
/// extends a shorter one.
pub fn op_stream(seed: u64, mix: &Mix, len: usize) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed);
    let zipf = (mix.dist == KeyDist::Zipfian).then(|| ScrambledZipfian::new(mix.records as u64));
    let mut next_insert = mix.records;
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let is_read = rng.below(1000) < mix.read_permille as u64;
        let kind = if is_read { mix.read } else { mix.write };
        let key = if kind == OpKind::Insert {
            next_insert += 1;
            next_insert - 1
        } else {
            match &zipf {
                Some(z) => z.next(&mut rng) as u32,
                None => rng.below(mix.records as u64) as u32,
            }
        };
        let arg = match kind {
            OpKind::Get => 0,
            OpKind::Scan => 1 + rng.below(100) as u16,
            _ => rng.below(POOL_DOCS as u64) as u16,
        };
        ops.push(Op { key, arg, kind });
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Mix = Mix {
        records: 10_000,
        dist: KeyDist::Zipfian,
        read_permille: 500,
        read: OpKind::Get,
        write: OpKind::Upsert,
    };
    const E: Mix = Mix {
        records: 10_000,
        dist: KeyDist::Zipfian,
        read_permille: 950,
        read: OpKind::Scan,
        write: OpKind::Insert,
    };

    #[test]
    fn splitmix_matches_reference_vector() {
        // First outputs of the reference implementation for seed 1234567.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn stream_is_a_pure_function_of_the_seed() {
        let a = op_stream(7, &A, 50_000);
        assert_eq!(std::mem::size_of::<Op>(), 8);
        assert_eq!(a, op_stream(7, &A, 50_000), "same seed, same stream");
        assert_eq!(a[..20_000], op_stream(7, &A, 20_000)[..], "a longer stream extends a shorter");
        assert_ne!(a, op_stream(8, &A, 50_000), "another seed, another stream");
        let docs = |s| {
            load_docs(s, 0..4).iter().map(|d| d.as_value().to_json_string()).collect::<Vec<_>>()
        };
        assert_eq!(docs(7), docs(7));
        assert_ne!(docs(7), docs(8));
        assert_eq!(
            update_pool(7)[3].as_value().to_json_string(),
            update_pool(7)[3].as_value().to_json_string()
        );
    }

    #[test]
    fn documents_have_the_ycsb_shape() {
        let doc = &load_docs(1, 0..1)[0];
        let json = doc.as_value().to_json_string();
        assert!((1050..1250).contains(&json.len()), "~1.1 KB, got {}", json.len());
        assert_eq!(doc.as_value().get_field("ver").and_then(Value::as_i64), Some(0));
        assert_eq!(update_pool(1)[9].as_value().get_field("ver").and_then(Value::as_i64), Some(10));
        assert!(key_for(9) < key_for(10) && key_for(99_999) < key_for(100_000));
    }

    #[test]
    fn mix_ratios_hold() {
        let ops = op_stream(3, &A, 100_000);
        let reads = ops.iter().filter(|o| o.kind == OpKind::Get).count();
        assert!((49_000..51_000).contains(&reads), "50% reads, got {reads}");
        assert!(ops.iter().all(|o| o.key < A.records && (o.arg as usize) < POOL_DOCS));

        let ops = op_stream(3, &E, 100_000);
        let scans: Vec<&Op> = ops.iter().filter(|o| o.kind == OpKind::Scan).collect();
        assert!((94_000..96_000).contains(&scans.len()), "95% scans, got {}", scans.len());
        assert!(scans.iter().all(|o| (1..=100).contains(&o.arg)));
        let mean = scans.iter().map(|o| o.arg as f64).sum::<f64>() / scans.len() as f64;
        assert!((49.0..52.0).contains(&mean), "uniform 1..100, mean {mean}");
        let inserts: Vec<u32> =
            ops.iter().filter(|o| o.kind == OpKind::Insert).map(|o| o.key).collect();
        let expected: Vec<u32> = (E.records..E.records + inserts.len() as u32).collect();
        assert_eq!(inserts, expected, "inserts append new keys in order");
    }

    #[test]
    fn zipfian_is_skewed_and_uniform_is_not() {
        let n = 10_000u64;
        let z = ScrambledZipfian::new(n);
        let mut rng = SplitMix64::new(11);
        let mut rank_hits = vec![0u32; n as usize];
        let mut key_hits = vec![0u32; n as usize];
        for _ in 0..200_000 {
            rank_hits[z.next_rank(&mut rng) as usize] += 1;
            key_hits[z.next(&mut rng) as usize] += 1;
        }
        // theta = 0.99 over 10k items: rank 0 draws ~1/zeta(n) ≈ 10%.
        assert!((16_000..24_000).contains(&rank_hits[0]), "rank 0: {}", rank_hits[0]);
        assert!(rank_hits[0] > rank_hits[1] && rank_hits[1] > rank_hits[10]);
        let top100: u32 = rank_hits[..100].iter().sum();
        assert!(top100 > 100_000, "hottest 1% of ranks draw over half: {top100}");
        // Scrambling moves the hottest key away from index 0 but keeps it hot.
        let hottest = key_hits.iter().copied().max().unwrap_or(0);
        assert!(hottest > 16_000);

        let mix = Mix { dist: KeyDist::Uniform, ..A };
        let mut hits = vec![0u32; A.records as usize];
        for op in op_stream(5, &mix, 200_000) {
            hits[op.key as usize] += 1;
        }
        let max = hits.iter().copied().max().unwrap_or(0);
        assert!(max < 60, "uniform: 20 expected per key, max {max}");
    }
}
