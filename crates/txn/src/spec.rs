//! Deterministic transaction workload specs: a seed expands to a batch of
//! small read-modify-write transactions plus a **serial witness** — a pure
//! model that executes the same specs one at a time in index order. The
//! serializability battery compares the parallel scheduler's final state
//! against the witness; the bench harness replays the same specs through
//! the deterministic wave driver.
//!
//! Everything here is a pure function of the seed (splitmix64 hashing, no
//! RNG state, no clocks), so one `TXN_SEED=<n>` environment variable
//! replays any failure exactly.

use std::collections::BTreeMap;
use std::sync::Arc;

use cbs_common::error::Error;
use cbs_json::{SharedValue, Value};

use crate::scheduler::{TxnCtx, TxnFn};

/// splitmix64 finalizer: the workload's only source of randomness, and
/// the chaos harness's.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hash a list of words into one decision value.
pub fn mix_all(words: &[u64]) -> u64 {
    let mut h = 0x243f_6a88_85a3_08d3; // pi digits, nothing up the sleeve
    for &w in words {
        h = mix64(h ^ w);
    }
    h
}

/// One operation inside a spec transaction; keys are small indices mapped
/// to document keys by [`key_name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOpSpec {
    /// Read the key (recorded in the read set, result unused).
    Get(usize),
    /// Read-modify-write: add the delta to the key's integer (absent = 0).
    Add(usize, i64),
    /// Blind write of the given integer.
    Put(usize, i64),
    /// Delete if present (a no-op spec when absent, so specs never abort
    /// by accident).
    Remove(usize),
    /// Unconditionally abort the transaction; prior staged writes must
    /// never become visible.
    Bail,
}

/// A generated batch: `txns[i]` is the op list of the transaction at
/// batch index `i`.
#[derive(Debug, Clone)]
pub struct SpecBatch {
    /// Seed the batch was expanded from (for replay messages).
    pub seed: u64,
    /// Size of the key space the ops draw from.
    pub keys: usize,
    /// Per-transaction op lists.
    pub txns: Vec<Vec<TxnOpSpec>>,
}

/// Document key for spec key-index `k`.
pub fn key_name(k: usize) -> String {
    format!("txnk{k:04}")
}

/// Expand a seed into a batch of `txns` transactions over `keys` keys,
/// each with 1..=`max_ops` operations. Op mix: 30% reads, 40% RMW adds
/// (the conflict workhorse), 15% blind puts, 11% removes, 4% deliberate
/// aborts.
pub fn batch_from_seed(seed: u64, keys: usize, txns: usize, max_ops: usize) -> SpecBatch {
    let keys = keys.max(1);
    let max_ops = max_ops.max(1);
    let mut out = Vec::with_capacity(txns);
    for t in 0..txns as u64 {
        let n_ops = 1 + (mix_all(&[seed, 0xA11, t]) as usize) % max_ops;
        let mut ops = Vec::with_capacity(n_ops);
        for o in 0..n_ops as u64 {
            let roll = mix_all(&[seed, 0x0B5, t, o]);
            let k = ((roll >> 32) as usize) % keys;
            ops.push(match roll % 100 {
                0..=29 => TxnOpSpec::Get(k),
                30..=69 => TxnOpSpec::Add(k, (roll % 9) as i64 + 1),
                // Put values are unique per (txn, op) so a final value
                // identifies its writer.
                70..=84 => TxnOpSpec::Put(k, ((t + 1) * 1_000 + o) as i64),
                85..=95 => TxnOpSpec::Remove(k),
                _ => TxnOpSpec::Bail,
            });
        }
        out.push(ops);
    }
    SpecBatch { seed, keys, txns: out }
}

/// Seed-derived initial contents of the key space: roughly half the keys
/// start present with a small integer.
pub fn initial_state(seed: u64, keys: usize) -> BTreeMap<usize, i64> {
    (0..keys)
        .filter_map(|k| {
            let roll = mix_all(&[seed, 0x5EED, k as u64]);
            roll.is_multiple_of(2).then_some((k, (roll >> 8) as i64 % 100))
        })
        .collect()
}

fn as_int(v: Option<SharedValue>) -> i64 {
    v.and_then(|s| s.as_value().as_i64()).unwrap_or(0)
}

/// Compile one spec into an executable transaction body.
pub fn spec_txn(ops: Vec<TxnOpSpec>) -> TxnFn {
    Arc::new(move |ctx: &mut TxnCtx<'_>| {
        for op in &ops {
            match *op {
                TxnOpSpec::Get(k) => {
                    ctx.get(&key_name(k))?;
                }
                TxnOpSpec::Add(k, d) => {
                    let key = key_name(k);
                    let v = as_int(ctx.get(&key)?);
                    ctx.upsert(&key, Value::from(v + d));
                }
                TxnOpSpec::Put(k, v) => {
                    ctx.upsert(&key_name(k), Value::from(v));
                }
                TxnOpSpec::Remove(k) => {
                    let key = key_name(k);
                    if ctx.get(&key)?.is_some() {
                        ctx.remove(&key)?;
                    }
                }
                TxnOpSpec::Bail => {
                    return Err(Error::Eval(format!("spec bail (txn {})", ctx.index())));
                }
            }
        }
        Ok(())
    })
}

/// Compile a whole batch into transaction bodies.
pub fn txn_fns(batch: &SpecBatch) -> Vec<TxnFn> {
    batch.txns.iter().cloned().map(spec_txn).collect()
}

/// Execute the batch serially in index order against a pure model of the
/// key space. Returns the final state and the per-transaction commit
/// flags — the ground truth any scheduler execution must reproduce.
pub fn serial_witness(
    batch: &SpecBatch,
    mut state: BTreeMap<usize, i64>,
) -> (BTreeMap<usize, i64>, Vec<bool>) {
    let mut committed = Vec::with_capacity(batch.txns.len());
    for ops in &batch.txns {
        let mut scratch = state.clone();
        let mut ok = true;
        for op in ops {
            match *op {
                TxnOpSpec::Get(_) => {}
                TxnOpSpec::Add(k, d) => {
                    let v = scratch.get(&k).copied().unwrap_or(0);
                    scratch.insert(k, v + d);
                }
                TxnOpSpec::Put(k, v) => {
                    scratch.insert(k, v);
                }
                TxnOpSpec::Remove(k) => {
                    scratch.remove(&k);
                }
                TxnOpSpec::Bail => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            state = scratch;
        }
        committed.push(ok);
    }
    (state, committed)
}

/// A base reader serving the witness's initial state (for engine-free
/// scheduler runs in tests and benches).
pub fn state_reader(
    state: &BTreeMap<usize, i64>,
) -> impl Fn(&str) -> cbs_common::error::Result<Option<SharedValue>> + Sync + '_ {
    move |key: &str| {
        let idx = key
            .strip_prefix("txnk")
            .and_then(|s| s.parse::<usize>().ok())
            .ok_or_else(|| Error::Eval(format!("non-spec key {key:?}")))?;
        Ok(state.get(&idx).map(|&v| SharedValue::from(Value::from(v))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(42), mix64(43));
        assert_eq!(mix_all(&[1, 2, 3]), mix_all(&[1, 2, 3]));
        assert_ne!(mix_all(&[1, 2, 3]), mix_all(&[3, 2, 1]));
        // Rough avalanche sanity: flipping one input bit flips ~half the
        // output bits.
        let d = (mix64(7) ^ mix64(7 | 1 << 63)).count_ones();
        assert!((16..=48).contains(&d), "poor avalanche: {d}");
    }

    #[test]
    fn batch_generation_is_pure() {
        let a = batch_from_seed(42, 8, 16, 5);
        let b = batch_from_seed(42, 8, 16, 5);
        assert_eq!(a.txns, b.txns);
        let c = batch_from_seed(43, 8, 16, 5);
        assert_ne!(a.txns, c.txns, "different seeds should differ");
        assert!(a.txns.iter().all(|ops| !ops.is_empty()));
    }

    #[test]
    fn witness_bail_discards_staged_writes() {
        let batch = SpecBatch {
            seed: 0,
            keys: 2,
            txns: vec![
                vec![TxnOpSpec::Put(0, 5)],
                vec![TxnOpSpec::Put(0, 99), TxnOpSpec::Put(1, 99), TxnOpSpec::Bail],
                vec![TxnOpSpec::Add(0, 1)],
            ],
        };
        let (state, committed) = serial_witness(&batch, BTreeMap::new());
        assert_eq!(committed, vec![true, false, true]);
        assert_eq!(state.get(&0), Some(&6));
        assert_eq!(state.get(&1), None, "aborted write leaked into witness");
    }

    #[test]
    fn state_reader_round_trips() {
        let state: BTreeMap<usize, i64> = [(3, 7)].into_iter().collect();
        let reader = state_reader(&state);
        let v = reader(&key_name(3)).unwrap();
        assert_eq!(v.unwrap().as_value().as_i64(), Some(7));
        assert!(reader(&key_name(4)).unwrap().is_none());
    }
}
