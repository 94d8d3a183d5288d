//! Property test: a `KeyMap` agrees with std's `HashMap` under any sequence
//! of inserts, removals, retains, lookups and clears. The keys come from an
//! alphabet of 24, so a table of 32 or 64 slots holds runs of colliding
//! homes, and a removal in one shifts the rest of the run back — the paths
//! a table of distinct, well-spread keys seldom takes. Under
//! `PROPTEST_SEED=n` one case runs per seed (`scripts/check.sh` sweeps
//! 1..=256).

// Tests unwrap freely; the workspace's unwrap_used deny targets lib code.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;

use cbs_common::{DocKey, KeyMap};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(u8, u32),
    Remove(u8),
    Get(u8),
    /// Keep the entries whose value is divisible by this, and add one to
    /// each kept value.
    Retain(u32),
    Clear,
}

/// Keys of both inline and heap-held `DocKey` lengths.
fn key(k: u8) -> String {
    if k.is_multiple_of(3) {
        format!("a-key-longer-than-the-inline-capacity-{k}")
    } else {
        format!("k{k}")
    }
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            8 => (0u8..24, 0u32..1000).prop_map(|(k, v)| Op::Insert(k, v)),
            5 => (0u8..24).prop_map(Op::Remove),
            3 => (0u8..24).prop_map(Op::Get),
            1 => (1u32..4).prop_map(Op::Retain),
            1 => Just(Op::Clear),
        ],
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn key_map_agrees_with_hash_map(ops in arb_ops()) {
        let mut map: KeyMap<u32> = KeyMap::default();
        let mut model: HashMap<String, u32> = HashMap::new();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(map.insert(DocKey::from(key(k).as_str()), v), model.insert(key(k), v));
                }
                Op::Remove(k) if k.is_multiple_of(2) => {
                    prop_assert_eq!(map.remove(key(k).as_str()), model.remove(&key(k)));
                }
                Op::Remove(k) => {
                    let got = map.remove_entry(key(k).as_str());
                    let want = model.remove_entry(&key(k));
                    prop_assert_eq!(got.map(|(k, v)| (k.to_string(), v)), want);
                }
                Op::Get(k) => {
                    prop_assert_eq!(map.get(key(k).as_str()), model.get(&key(k)));
                    prop_assert_eq!(map.contains_key(key(k).as_str()), model.contains_key(&key(k)));
                }
                Op::Retain(d) => {
                    let keep = |v: &mut u32| {
                        let kept = v.is_multiple_of(d);
                        *v += 1;
                        kept
                    };
                    map.retain(|_, v| keep(v));
                    model.retain(|_, v| keep(v));
                }
                Op::Clear => {
                    map.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(map.len(), model.len());
        }
        prop_assert_eq!(map.is_empty(), model.is_empty());
        for k in 0u8..24 {
            prop_assert_eq!(map.get(key(k).as_str()), model.get(&key(k)));
        }
        let mut held: Vec<(String, u32)> = map.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        let mut want: Vec<(String, u32)> = model.into_iter().collect();
        held.sort();
        want.sort();
        prop_assert_eq!(held, want);
    }
}
