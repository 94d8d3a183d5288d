//! Teeth test: deliberately re-introduce a known failover bug — promoting
//! a node that *skipped replica promotion* (it never held the data) — and
//! prove the history checker catches the resulting loss of durably-acked
//! writes. A checker that passes buggy failovers is worse than no checker.

use std::sync::Arc;
use std::time::Duration;

use cbs_chaos::{check_history, Ack, HistoryRecorder, OpKind, BUCKET};
use cbs_cluster::{Cluster, ClusterConfig, Durability, SmartClient};
use cbs_common::VbId;
use cbs_json::Value;
use cbs_kv::VbState;

#[test]
fn chaos_checker_catches_skipped_replica_promotion() {
    let cluster = Cluster::homogeneous(3, ClusterConfig::for_test(8, 1));
    cluster.create_bucket(BUCKET).expect("create bucket");
    let client = SmartClient::connect(Arc::clone(&cluster), BUCKET).expect("connect");
    let rec = HistoryRecorder::new();

    // Durably-acked writes across every vBucket.
    let durability = Durability { replicate_to: 1, persist_to_master: false };
    for i in 0..24 {
        let key = format!("teeth-k{i}");
        let value = 1_000 + i;
        let invoked = rec.tick();
        let m = client
            .upsert_durable(&key, Value::int(value), durability, Duration::from_secs(5))
            .expect("durable write in a healthy cluster");
        rec.record(
            &key,
            OpKind::Put { value, durable: true },
            invoked,
            Ack::Ok { vb: m.vb.0, seqno: m.seqno.0, observed: Some(value) },
        );
    }

    // Crash a node, then perform the BUGGY failover by hand: instead of
    // promoting the replica (which holds the data), route every vBucket
    // the victim owned to some *other* alive node that never replicated
    // it. This is exactly the "skipped replica promotion" defect.
    let victim = cluster.nodes().into_iter().find(|n| n.id().0 == 1).expect("node 1");
    victim.kill();
    rec.event("kill node 1", false);

    let mut map = cluster.map(BUCKET).expect("map");
    rec.event("BUGGY failover node 1 begin", true);
    let mut moved = 0;
    for v in 0..map.num_vbuckets() {
        let vb = VbId(v);
        if map.active_node(vb) != victim.id() {
            continue;
        }
        let wrong = cluster
            .nodes()
            .into_iter()
            .find(|n| {
                n.is_alive() && n.id() != victim.id() && !map.replica_nodes(vb).contains(&n.id())
            })
            .expect("an alive non-replica node exists in a 3-node cluster");
        wrong.engine(BUCKET).expect("engine").set_vb_state(vb, VbState::Active);
        map.active[vb.index()] = wrong.id();
        moved += 1;
    }
    assert!(moved > 0, "victim owned no vBuckets; test setup is wrong");
    map.epoch += 1;
    cluster.debug_install_map(BUCKET, map).expect("install corrupted map");
    rec.event("BUGGY failover node 1 done (skipped replica promotion)", true);

    // Read everything back through a fresh client (new map).
    let client = SmartClient::connect(Arc::clone(&cluster), BUCKET).expect("reconnect");
    for i in 0..24 {
        let key = format!("teeth-k{i}");
        let vb = client.vb_for_key(&key).0;
        let invoked = rec.tick();
        let ack = match client.get(&key) {
            Ok(r) => Ack::Ok { vb, seqno: 0, observed: r.value.as_i64() },
            Err(cbs_common::Error::KeyNotFound(_)) => Ack::Ok { vb, seqno: 0, observed: None },
            Err(e) => Ack::Failed(format!("{e}")),
        };
        rec.record(&key, OpKind::Get, invoked, ack);
    }

    let violations = check_history(&rec.finish());
    assert!(
        violations.iter().any(|v| v.rule == "durable-floor"),
        "checker failed to catch durably-acked writes lost by a skipped replica promotion; \
         violations: {violations:?}"
    );
}

/// One deterministic buggy-failover run: plant a marker event, write
/// durably, crash node 1 through the cluster API (so the kill lands in the
/// flight recorder), install the skipped-replica-promotion map, and return
/// the checker's violations plus the flight-recorder dump.
fn buggy_failover_with_flight_recorder(seed: u64) -> (Vec<cbs_chaos::Violation>, String) {
    let cluster = Cluster::homogeneous(3, ClusterConfig::for_test(8, 1));
    cluster.create_bucket(BUCKET).expect("create bucket");
    // The planted event the postmortem dump must surface.
    cluster.events_registry().record_event_with_help(
        "cluster.events.planted_marker",
        "teeth-test marker proving the dump covers pre-failure events",
        &[("seed", seed.to_string())],
    );
    let client = SmartClient::connect(Arc::clone(&cluster), BUCKET).expect("connect");
    let rec = HistoryRecorder::new();

    let durability = Durability { replicate_to: 1, persist_to_master: false };
    for i in 0..24 {
        let key = format!("teeth-k{i}");
        let value = 1_000 + i;
        let invoked = rec.tick();
        let m = client
            .upsert_durable(&key, Value::int(value), durability, Duration::from_secs(5))
            .expect("durable write in a healthy cluster");
        rec.record(
            &key,
            OpKind::Put { value, durable: true },
            invoked,
            Ack::Ok { vb: m.vb.0, seqno: m.seqno.0, observed: Some(value) },
        );
    }

    let victim = cluster.nodes().into_iter().find(|n| n.id().0 == 1).expect("node 1");
    cluster.kill_node(victim.id()).expect("kill node 1");
    rec.event("kill node 1", false);

    let mut map = cluster.map(BUCKET).expect("map");
    rec.event("BUGGY failover node 1 begin", true);
    let mut moved = 0;
    for v in 0..map.num_vbuckets() {
        let vb = VbId(v);
        if map.active_node(vb) != victim.id() {
            continue;
        }
        let wrong = cluster
            .nodes()
            .into_iter()
            .find(|n| {
                n.is_alive() && n.id() != victim.id() && !map.replica_nodes(vb).contains(&n.id())
            })
            .expect("an alive non-replica node exists in a 3-node cluster");
        wrong.engine(BUCKET).expect("engine").set_vb_state(vb, VbState::Active);
        map.active[vb.index()] = wrong.id();
        moved += 1;
    }
    assert!(moved > 0, "victim owned no vBuckets; test setup is wrong");
    map.epoch += 1;
    cluster.debug_install_map(BUCKET, map).expect("install corrupted map");
    rec.event("BUGGY failover node 1 done (skipped replica promotion)", true);
    // The pump logs its resubscription to the new map from its own thread:
    // wait for it, so that both runs dump the same events.
    let epoch = cluster.map(BUCKET).expect("map").epoch.to_string();
    let resubscribed = || {
        cluster.flight_events().iter().any(|e| {
            e.name == "cluster.events.pump_resubscribe"
                && e.attrs.iter().any(|(k, v)| *k == "epoch" && *v == epoch)
        })
    };
    let deadline = cbs_common::Deadline::after(Duration::from_secs(30));
    while !resubscribed() {
        assert!(!deadline.expired(), "the pump never resubscribed");
        std::thread::sleep(Duration::from_millis(1));
    }

    let client = SmartClient::connect(Arc::clone(&cluster), BUCKET).expect("reconnect");
    for i in 0..24 {
        let key = format!("teeth-k{i}");
        let vb = client.vb_for_key(&key).0;
        let invoked = rec.tick();
        let ack = match client.get(&key) {
            Ok(r) => Ack::Ok { vb, seqno: 0, observed: r.value.as_i64() },
            Err(cbs_common::Error::KeyNotFound(_)) => Ack::Ok { vb, seqno: 0, observed: None },
            Err(e) => Ack::Failed(format!("{e}")),
        };
        rec.record(&key, OpKind::Get, invoked, ack);
    }

    let violations = check_history(&rec.finish());
    // The checker failed the run: dump the flight recorder the way
    // `run_chaos` does, and verify the on-disk bytes match the render.
    let dump = cbs_chaos::flight_dump(&cluster, seed);
    let path = cbs_chaos::write_flight_dump(&cluster, seed).expect("dump written");
    let on_disk = std::fs::read_to_string(&path).expect("read dump back");
    assert_eq!(on_disk, dump, "on-disk dump differs from the render");
    (violations, dump)
}

#[test]
fn teeth_failure_dumps_byte_identical_flight_recorder_per_seed() {
    let seed = 42;
    let (v1, d1) = buggy_failover_with_flight_recorder(seed);
    let (v2, d2) = buggy_failover_with_flight_recorder(seed);
    for v in [&v1, &v2] {
        assert!(
            v.iter().any(|v| v.rule == "durable-floor"),
            "checker failed to catch the planted failover bug; violations: {v:?}"
        );
    }
    assert_eq!(d1, d2, "flight-recorder dump must be byte-identical per seed");
    assert!(d1.contains("seed=42"), "dump names its seed:\n{d1}");
    assert!(
        d1.contains("cluster.events.planted_marker"),
        "dump must contain the planted event:\n{d1}"
    );
    assert!(
        d1.contains("cluster.events.node_killed"),
        "the kill that preceded the failure is on the timeline:\n{d1}"
    );
}

#[test]
fn chaos_checker_passes_correct_failover() {
    // Control group: the same scenario with the *real* failover must be
    // violation-free (replica promotion preserves the durable writes).
    let cluster = Cluster::homogeneous(3, ClusterConfig::for_test(8, 1));
    cluster.create_bucket(BUCKET).expect("create bucket");
    let client = SmartClient::connect(Arc::clone(&cluster), BUCKET).expect("connect");
    let rec = HistoryRecorder::new();

    let durability = Durability { replicate_to: 1, persist_to_master: false };
    for i in 0..24 {
        let key = format!("teeth-k{i}");
        let value = 1_000 + i;
        let invoked = rec.tick();
        let m = client
            .upsert_durable(&key, Value::int(value), durability, Duration::from_secs(5))
            .expect("durable write in a healthy cluster");
        rec.record(
            &key,
            OpKind::Put { value, durable: true },
            invoked,
            Ack::Ok { vb: m.vb.0, seqno: m.seqno.0, observed: Some(value) },
        );
    }

    let victim = cluster.nodes().into_iter().find(|n| n.id().0 == 1).expect("node 1");
    victim.kill();
    rec.event("kill node 1", false);
    rec.event("failover node 1 begin", true);
    cluster.failover(victim.id()).expect("failover");
    rec.event("failover node 1 done", true);

    let client = SmartClient::connect(Arc::clone(&cluster), BUCKET).expect("reconnect");
    for i in 0..24 {
        let key = format!("teeth-k{i}");
        let vb = client.vb_for_key(&key).0;
        let invoked = rec.tick();
        let ack = match client.get(&key) {
            Ok(r) => Ack::Ok { vb, seqno: 0, observed: r.value.as_i64() },
            Err(cbs_common::Error::KeyNotFound(_)) => Ack::Ok { vb, seqno: 0, observed: None },
            Err(e) => Ack::Failed(format!("{e}")),
        };
        rec.record(&key, OpKind::Get, invoked, ack);
    }

    let violations = check_history(&rec.finish());
    assert!(violations.is_empty(), "correct failover flagged: {violations:?}");
}
