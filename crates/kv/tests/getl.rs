//! A GETL hard lock (§3.1.1) lives no longer than the document it guards:
//! once the document has expired and been reaped — lazily by a read, or by
//! the expiry pager — an insert of its key is not refused as locked.

// Tests unwrap freely; the crate's unwrap_used deny targets lib code.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::time::Duration;

use cbs_common::{Cas, Error};
use cbs_json::Value;
use cbs_kv::{DataEngine, EngineConfig, MutateMode};

fn now() -> u32 {
    cbs_common::time::now_unix_secs()
}

#[test]
fn a_reaped_documents_lock_goes_with_it() {
    let e = DataEngine::new(EngineConfig::for_test(16)).unwrap();
    e.activate_all();
    let doc = || Value::object([("v", Value::int(1))]);
    // Live while it is locked (two seconds: the clock may tick over between
    // the write and the lock), expired once the clock reaches it.
    let expiry = now() + 2;
    for key in ["reaped-by-get", "reaped-by-pager"] {
        e.set(key, doc(), MutateMode::Upsert, Cas::WILDCARD, expiry).unwrap();
        e.get_and_lock(key, Some(Duration::from_secs(60))).unwrap();
    }
    while now() < expiry {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(matches!(e.get("reaped-by-get"), Err(Error::KeyNotFound(_))));
    assert_eq!(e.run_expiry_pager(), 1);
    for key in ["reaped-by-get", "reaped-by-pager"] {
        let insert = e.set(key, doc(), MutateMode::Insert, Cas::WILDCARD, 0);
        assert!(insert.is_ok(), "{key}: {insert:?}");
    }
}
