//! Every writer of an active vBucket sequences through one commit path: a
//! seeded property runs random sequences of upserts, inserts, replaces,
//! deletes, lazily and pager-reaped expirations, XDCR applies, GETL locks
//! and drain cycles against a 4-vBucket engine with a DCP feed open from
//! seqno 0 on every vBucket, and a model of what each operation must do.
//!
//! After every operation: each vBucket's feed delivered its seqnos once
//! each and in order, with the writer's `DcpKind`, up to the vBucket's
//! high seqno, and a refused operation delivered nothing and moved no high
//! seqno. At the end: a drain cycle persists every vBucket to its high
//! seqno, and a backfill from 0 returns, per key, the last version the
//! feed delivered. `PROPTEST_SEED=<n>` replays one case.

// Tests unwrap freely; the crate's unwrap_used deny targets lib code (the
// allow-unwrap-in-tests config covers #[test] fns but not file helpers).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::time::Duration;

use cbs_common::{Cas, Deadline, DocMeta, Error, RevNo, SeqNo, VbId};
use cbs_dcp::{BackfillSource, DcpFeed, DcpItem, DcpKind};
use cbs_json::{SharedValue, Value};
use cbs_kv::{DataEngine, EngineConfig, MutateMode};
use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRunner};

const VBUCKETS: u16 = 4;
const KEYS: usize = 6;
/// Outlives any case: no lock times out under the model.
const LOCK: Duration = Duration::from_secs(600);
/// A CAS no write is ever given.
const WRONG: Cas = Cas(1);

/// Which CAS a write presents.
#[derive(Debug, Clone, Copy)]
enum CasPick {
    Wildcard,
    /// The key's current CAS (a tombstone's too); the wildcard if the
    /// key has never been written.
    Right,
    Wrong,
    /// The key's GETL token if it is locked, else its current CAS.
    Token,
}

#[derive(Debug, Clone)]
enum Op {
    Set {
        key: usize,
        mode: MutateMode,
        cas: CasPick,
    },
    Delete {
        key: usize,
        cas: CasPick,
    },
    /// An upsert whose expiry has passed, then (optionally) a get of it.
    SetExpired {
        key: usize,
        cas: CasPick,
        get: bool,
    },
    Pager,
    /// An XDCR apply that outranks the held version, or one that does not.
    SetWithMeta {
        key: usize,
        wins: bool,
        deleted: bool,
    },
    GetAndLock {
        key: usize,
    },
    Unlock {
        key: usize,
        right: bool,
    },
    Flush,
}

fn op() -> impl Strategy<Value = Op> {
    let cas = || {
        prop_oneof![
            Just(CasPick::Wildcard),
            Just(CasPick::Right),
            Just(CasPick::Wrong),
            Just(CasPick::Token)
        ]
    };
    let mode =
        prop_oneof![Just(MutateMode::Upsert), Just(MutateMode::Insert), Just(MutateMode::Replace)];
    prop_oneof![
        8 => (0..KEYS, mode, cas()).prop_map(|(key, mode, cas)| Op::Set { key, mode, cas }),
        2 => (0..KEYS, cas()).prop_map(|(key, cas)| Op::Delete { key, cas }),
        2 => (0..KEYS, cas(), any::<bool>())
            .prop_map(|(key, cas, get)| Op::SetExpired { key, cas, get }),
        1 => Just(Op::Pager),
        2 => (0..KEYS, any::<bool>(), any::<bool>())
            .prop_map(|(key, wins, deleted)| Op::SetWithMeta { key, wins, deleted }),
        3 => (0..KEYS).prop_map(|key| Op::GetAndLock { key }),
        2 => (0..KEYS, any::<bool>()).prop_map(|(key, right)| Op::Unlock { key, right }),
        1 => Just(Op::Flush),
    ]
}

/// What the model knows of a key: its newest version as the feed
/// delivered it, and its GETL token.
#[derive(Default)]
struct Model {
    versions: HashMap<String, DcpItem>,
    locks: HashMap<String, Cas>,
}

impl Model {
    fn live(&self, key: &str, now: u32) -> bool {
        self.versions.get(key).is_some_and(|v| !v.is_deletion() && !v.meta.is_expired_at(now))
    }

    /// Does the key hold a version whose expiry has passed, not yet reaped?
    fn expired(&self, key: &str, now: u32) -> bool {
        self.versions.get(key).is_some_and(|v| !v.is_deletion() && v.meta.is_expired_at(now))
    }

    fn cas(&self, key: &str, pick: CasPick) -> Cas {
        let current = || self.versions.get(key).map_or(Cas::WILDCARD, |v| v.meta.cas);
        match pick {
            CasPick::Wildcard => Cas::WILDCARD,
            CasPick::Right => current(),
            CasPick::Wrong => WRONG,
            CasPick::Token => self.locks.get(key).copied().unwrap_or_else(current),
        }
    }

    /// The outcome a client write must have, and the kind it commits.
    fn write(&self, key: &str, mode: MutateMode, cas: Cas, now: u32) -> Result<(), &'static str> {
        let via_token = match self.locks.get(key) {
            Some(token) if *token != cas => return Err("Locked"),
            Some(_) => true,
            None => false,
        };
        let live = self.live(key, now);
        match mode {
            MutateMode::Insert if live => return Err("KeyExists"),
            MutateMode::Replace if !live => return Err("KeyNotFound"),
            _ => {}
        }
        let current = self.versions.get(key).map_or(Cas::WILDCARD, |v| v.meta.cas);
        if !cas.is_wildcard() && !via_token && current != cas {
            return Err("CasMismatch");
        }
        Ok(())
    }
}

fn outcome<T>(r: &cbs_common::Result<T>) -> Result<(), &'static str> {
    match r {
        Ok(_) => Ok(()),
        Err(Error::Locked(_)) => Err("Locked"),
        Err(Error::KeyExists(_)) => Err("KeyExists"),
        Err(Error::KeyNotFound(_)) => Err("KeyNotFound"),
        Err(Error::CasMismatch(_)) => Err("CasMismatch"),
        Err(Error::Timeout(_)) => Err("Timeout"),
        Err(_) => Err("other"),
    }
}

fn now() -> u32 {
    cbs_common::time::now_unix_secs()
}

fn doc(step: usize) -> SharedValue {
    SharedValue::new(Value::object([("step", Value::int(step as i64))]))
}

/// One case: run `ops`, checking the feed and the high seqnos after each.
fn run_case(ops: Vec<Op>) -> Result<(), TestCaseError> {
    let e = DataEngine::new(EngineConfig::for_test(VBUCKETS)).unwrap();
    e.activate_all();
    let feed = DcpFeed::default();
    for vb in 0..VBUCKETS {
        e.subscribe_dcp(&feed, VbId(vb), SeqNo::ZERO).unwrap();
    }
    let keys: Vec<String> = (0..KEYS).map(|k| format!("key::{k}")).collect();
    let mut model = Model::default();
    let mut delivered = vec![SeqNo::ZERO; VBUCKETS as usize];
    for (step, op) in ops.iter().enumerate() {
        let t = now();
        // What the op must commit, in order, and how it must end.
        let mut expect: Vec<(String, DcpKind)> = Vec::new();
        let (want, got) = match *op {
            Op::Set { key, mode, cas } => {
                let key = &keys[key];
                let cas = model.cas(key, cas);
                let want = model.write(key, mode, cas, t);
                let got = outcome(&e.set(key, doc(step), mode, cas, 0));
                expect.extend(want.ok().map(|_| (key.clone(), DcpKind::Mutation)));
                (want, got)
            }
            Op::Delete { key, cas } => {
                let key = &keys[key];
                let cas = model.cas(key, cas);
                let want = model.write(key, MutateMode::Replace, cas, t);
                let got = outcome(&e.delete(key, cas));
                expect.extend(want.ok().map(|_| (key.clone(), DcpKind::Deletion)));
                (want, got)
            }
            Op::SetExpired { key, cas, get } => {
                let key = &keys[key];
                let cas = model.cas(key, cas);
                let want = model.write(key, MutateMode::Upsert, cas, t);
                let got = outcome(&e.set(key, doc(step), MutateMode::Upsert, cas, t - 1));
                if want.is_ok() {
                    expect.push((key.clone(), DcpKind::Mutation));
                }
                if get {
                    // A get of an expired document reaps it; one of
                    // anything else that is not live commits nothing.
                    let reaps = want.is_ok() || model.expired(key, t);
                    let read = outcome(&e.get(key));
                    let live = want.is_err() && model.live(key, t);
                    prop_assert_eq!(read, if live { Ok(()) } else { Err("KeyNotFound") });
                    if reaps {
                        expect.push((key.clone(), DcpKind::Expiration));
                    }
                }
                (want, got)
            }
            Op::Pager => {
                // `keys` is sorted, as `seen` is below for the pager.
                expect = keys
                    .iter()
                    .filter(|k| model.expired(k, t))
                    .map(|k| (k.clone(), DcpKind::Expiration))
                    .collect();
                prop_assert_eq!(e.run_expiry_pager(), expect.len(), "step {}: reaped", step);
                (Ok(()), Ok(()))
            }
            Op::SetWithMeta { key, wins, deleted } => {
                let key = &keys[key];
                let held = model.versions.get(key).map(|v| v.meta);
                let incoming = match (wins, held) {
                    (true, Some(held)) => DocMeta { rev: held.rev.next(), expiry: 0, ..held },
                    (true, None) => DocMeta { rev: RevNo(1), cas: Cas(7), ..DocMeta::default() },
                    // Outranks nothing: rev 0, CAS 0.
                    (false, _) => DocMeta::default(),
                };
                let applies = wins || held.is_none();
                let value = (!deleted).then(|| doc(step));
                let got = match e.set_with_meta(key, incoming, value, deleted) {
                    Ok(false) => Err("Rejected"),
                    r => outcome(&r),
                };
                let kind = if deleted { DcpKind::Deletion } else { DcpKind::Mutation };
                expect.extend(applies.then(|| (key.clone(), kind)));
                (if applies { Ok(()) } else { Err("Rejected") }, got)
            }
            Op::GetAndLock { key } => {
                let key = &keys[key];
                let expired = model.expired(key, t);
                let want = if !model.live(key, t) {
                    Err("KeyNotFound")
                } else if model.locks.contains_key(key) {
                    Err("Locked")
                } else {
                    Ok(())
                };
                let got = e.get_and_lock(key, Some(LOCK));
                if let Ok(locked) = &got {
                    model.locks.insert(key.clone(), locked.meta.cas);
                }
                expect.extend(expired.then(|| (key.clone(), DcpKind::Expiration)));
                (want, outcome(&got))
            }
            Op::Unlock { key, right } => {
                let key = &keys[key];
                let token =
                    if right { model.locks.get(key).copied().unwrap_or(WRONG) } else { WRONG };
                let want = match model.locks.get(key) {
                    None => Err("Timeout"),
                    Some(held) if *held == token => Ok(()),
                    Some(_) => Err("Locked"),
                };
                let got = outcome(&e.unlock(key, token));
                if got.is_ok() {
                    model.locks.remove(key);
                }
                (want, got)
            }
            Op::Flush => {
                e.flush_once().unwrap();
                (Ok(()), Ok(()))
            }
        };
        prop_assert_eq!(got, want, "step {step}: {op:?}: {got:?}, want {want:?}");

        let mut items = Vec::new();
        feed.drain(Some(Deadline::after(Duration::ZERO)), &mut items);
        let mut seen: Vec<(String, DcpKind)> = Vec::new();
        for item in items {
            let vb = item.vb.index();
            let want = delivered[vb].next();
            prop_assert_eq!(item.meta.seqno, want, "step {step}: {op:?}: {item:?}, want {want:?}");
            delivered[vb] = item.meta.seqno;
            // Every commit releases the key's lock.
            model.locks.remove(item.key.as_str());
            seen.push((item.key.to_string(), item.kind));
            model.versions.insert(item.key.to_string(), item);
        }
        if matches!(op, Op::Pager) {
            seen.sort_by(|a, b| a.0.cmp(&b.0));
        }
        prop_assert_eq!(&seen, &expect, "step {step}: {op:?}: {seen:?}, want {expect:?}");
        for vb in 0..VBUCKETS {
            let high = e.high_seqno(VbId(vb));
            let want = delivered[vb as usize];
            prop_assert_eq!(high, want, "step {step}: vb {vb} high {high:?}, delivered {want:?}");
        }
    }

    e.flush_once().unwrap();
    for vb in (0..VBUCKETS).map(VbId) {
        prop_assert_eq!(e.persisted_seqno(vb), e.high_seqno(vb), "vb {:?} persisted", vb);
        let (items, _) = e.backfill(vb, SeqNo::ZERO).unwrap();
        let mut want: Vec<&DcpItem> = model.versions.values().filter(|v| v.vb == vb).collect();
        want.sort_by_key(|v| v.meta.seqno);
        let got: Vec<_> =
            items.iter().map(|i| (&i.key, i.meta, i.is_deletion(), &i.value)).collect();
        let want: Vec<_> =
            want.iter().map(|i| (&i.key, i.meta, i.is_deletion(), &i.value)).collect();
        prop_assert!(got == want, "vb {vb:?}: backfill {got:?}, delivered {want:?}");
    }
    let dir = e.config().data_dir.clone();
    drop(e);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

#[test]
fn every_writer_commits_through_one_sequence() {
    let config = ProptestConfig { cases: 32, ..ProptestConfig::default() };
    let ops = prop::collection::vec(op(), 1..48);
    let outcome = TestRunner::new_named(config, "every_writer_commits_through_one_sequence")
        .run(&ops, run_case);
    if let Err(e) = outcome {
        panic!("{e}");
    }
}
