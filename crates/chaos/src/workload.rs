//! The chaos harness driver: seeded workloads against a faulted cluster,
//! with a topology-event coordinator, a heal phase, and shrinking.
//!
//! Everything a run does derives from `ChaosConfig` — and everything in
//! `ChaosConfig` round-trips through environment variables — so any
//! failure reduces to one replay command (printed by [`expect_clean`]).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cbs_cluster::{Cluster, ClusterConfig, Durability, ServiceSet, SmartClient};
use cbs_common::{Cas, Error, NodeId, VbId};
use cbs_json::Value;
use cbs_kv::VbState;

use crate::checker::{check_cluster, check_history, Violation};
use crate::history::{Ack, HistoryRecorder, OpKind};
use crate::mix_all;
use crate::plan::{FaultPlan, FaultSpec};

/// Bucket every chaos run uses.
pub const BUCKET: &str = "chaos";

pub(crate) const WORKLOAD_SALT: u64 = 0x776f_726b; // "work"
pub(crate) const KILL_SALT: u64 = 0x6b69_6c6c; // "kill"

/// Named fault-intensity profile (replayable by name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// No transport faults.
    Quiet,
    /// Drops + delays + duplicates + client stalls.
    Lossy,
    /// Delays + duplicates only (reordering without stream resets).
    Jittery,
}

impl Profile {
    /// Build the concrete spec for a seed.
    pub fn spec(self, seed: u64) -> FaultSpec {
        match self {
            Profile::Quiet => FaultSpec::quiet(seed),
            Profile::Lossy => FaultSpec::lossy(seed),
            Profile::Jittery => FaultSpec::jittery(seed),
        }
    }

    /// Stable name for replay commands.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Quiet => "quiet",
            Profile::Lossy => "lossy",
            Profile::Jittery => "jittery",
        }
    }

    /// Parse a replay name.
    pub fn by_name(name: &str) -> Option<Profile> {
        match name {
            "quiet" => Some(Profile::Quiet),
            "lossy" => Some(Profile::Lossy),
            "jittery" => Some(Profile::Jittery),
            _ => None,
        }
    }
}

/// A topology fault the coordinator fires mid-workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoKind {
    /// Crash one deterministically-chosen node (skipped if a node is
    /// already down or fewer than three data nodes remain).
    Kill,
    /// Fail over every currently-dead node (lossy: may roll back acked
    /// non-durable writes).
    FailoverDead,
    /// Revive every dead node through the rejoin protocol (a failed-over
    /// node comes back empty for vBuckets it no longer owns, §4.3.1).
    ReviveAll,
    /// Add a fresh node running all services.
    AddNode,
    /// Rebalance to the balanced layout; `background` runs it on its own
    /// thread so later events (e.g. a kill) land mid-rebalance.
    Rebalance {
        /// Run concurrently with the workload instead of blocking the
        /// coordinator.
        background: bool,
    },
}

/// One scheduled event: fires once the workload has issued `at` ops.
#[derive(Debug, Clone, Copy)]
pub struct TopoEvent {
    /// Operation-count threshold.
    pub at: usize,
    /// What to do.
    pub kind: TopoKind,
}

/// A named, replayable sequence of topology events.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Stable name (used in replay commands).
    pub name: String,
    /// Events in firing order.
    pub events: Vec<TopoEvent>,
}

impl Schedule {
    fn from_percents(name: &str, ops: usize, spec: &[(usize, TopoKind)]) -> Schedule {
        Schedule {
            name: name.to_string(),
            events: spec
                .iter()
                .map(|&(pct, kind)| TopoEvent { at: ops * pct / 100, kind })
                .collect(),
        }
    }

    /// Resolve a schedule by name. `seed` only matters for `"seeded"`,
    /// which derives a jittered template choice from it.
    pub fn by_name(name: &str, seed: u64, ops: usize) -> Schedule {
        use TopoKind::*;
        match name {
            "baseline" => Schedule { name: name.to_string(), events: Vec::new() },
            "drop-delay-failover" => Schedule::from_percents(
                name,
                ops,
                &[
                    (25, Kill),
                    (35, FailoverDead),
                    (55, ReviveAll),
                    (70, Rebalance { background: false }),
                ],
            ),
            "crash-during-rebalance" => Schedule::from_percents(
                name,
                ops,
                &[
                    (10, AddNode),
                    (20, Rebalance { background: true }),
                    (25, Kill),
                    (40, FailoverDead),
                    (60, ReviveAll),
                    (75, Rebalance { background: false }),
                ],
            ),
            "kill-revive-storm" => Schedule::from_percents(
                name,
                ops,
                &[
                    (15, Kill),
                    (25, FailoverDead),
                    (35, ReviveAll),
                    (45, Rebalance { background: false }),
                    (55, Kill),
                    (65, FailoverDead),
                    (75, ReviveAll),
                    (85, Rebalance { background: false }),
                ],
            ),
            "rebalance-churn" => Schedule::from_percents(
                name,
                ops,
                &[
                    (15, AddNode),
                    (25, Rebalance { background: false }),
                    (45, AddNode),
                    (55, Rebalance { background: false }),
                    (75, Rebalance { background: true }),
                ],
            ),
            "failover-no-revive" => {
                Schedule::from_percents(name, ops, &[(30, Kill), (40, FailoverDead)])
            }
            // Seeded: pick a non-trivial template and jitter every
            // threshold by ±8% — distinct seeds explore distinct timings.
            "seeded" => {
                let templates = [
                    "drop-delay-failover",
                    "crash-during-rebalance",
                    "kill-revive-storm",
                    "rebalance-churn",
                ];
                let pick = templates[(mix_all(&[seed, 0x7363]) % templates.len() as u64) as usize];
                let mut base = Schedule::by_name(pick, seed, ops);
                base.name = "seeded".to_string();
                for (i, ev) in base.events.iter_mut().enumerate() {
                    let jitter = (mix_all(&[seed, 0x6a74, i as u64]) % (ops as u64 * 16 / 100))
                        as i64
                        - (ops as i64 * 8 / 100);
                    ev.at = (ev.at as i64 + jitter).clamp(1, ops as i64 - 1) as usize;
                }
                base.events.sort_by_key(|e| e.at);
                base
            }
            other => panic!("unknown chaos schedule {other:?}"),
        }
    }
}

/// Full description of one chaos run. Every field round-trips through the
/// `CHAOS_*` environment (see [`ChaosConfig::from_env`]) so a printed
/// replay command reconstructs the run exactly.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for fault decisions, workload mix and victim selection.
    pub seed: u64,
    /// Initial node count (3–4 in the integration suites).
    pub nodes: usize,
    /// Replica copies per vBucket.
    pub replicas: u8,
    /// vBuckets per bucket.
    pub vbuckets: u16,
    /// Concurrent workload workers (each owns a disjoint key set).
    pub workers: usize,
    /// Keys per worker.
    pub keys_per_worker: usize,
    /// Total operations across all workers.
    pub ops: usize,
    /// Transport fault intensity.
    pub profile: Profile,
    /// Topology event schedule name (resolved via [`Schedule::by_name`]).
    pub schedule: String,
    /// Override the per-node cache quota (tiny values force eviction) and
    /// switch to full eviction.
    pub cache_quota: Option<usize>,
    /// Run a flush/compaction loop on every engine during the workload.
    pub compact_during: bool,
    /// How long the convergence checker may wait after the heal phase.
    pub settle: Duration,
}

impl ChaosConfig {
    /// Baseline 3-node config for a seed.
    pub fn new(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            nodes: 3,
            replicas: 1,
            vbuckets: 16,
            workers: 4,
            keys_per_worker: 6,
            ops: 400,
            profile: Profile::Lossy,
            schedule: "drop-delay-failover".to_string(),
            cache_quota: None,
            compact_during: false,
            settle: Duration::from_secs(10),
        }
    }

    /// Apply `CHAOS_*` environment overrides (replay + CI knobs):
    /// `CHAOS_SEED`, `CHAOS_OPS`, `CHAOS_NODES`, `CHAOS_REPLICAS`,
    /// `CHAOS_VBS`, `CHAOS_WORKERS`, `CHAOS_KEYS`, `CHAOS_PROFILE`,
    /// `CHAOS_SCHEDULE`, `CHAOS_QUOTA`, `CHAOS_COMPACT`.
    pub fn from_env(mut self) -> ChaosConfig {
        fn num<T: std::str::FromStr>(var: &str) -> Option<T> {
            std::env::var(var).ok().and_then(|v| v.parse().ok())
        }
        if let Some(v) = num("CHAOS_SEED") {
            self.seed = v;
        }
        if let Some(v) = num("CHAOS_OPS") {
            self.ops = v;
        }
        if let Some(v) = num("CHAOS_NODES") {
            self.nodes = v;
        }
        if let Some(v) = num("CHAOS_REPLICAS") {
            self.replicas = v;
        }
        if let Some(v) = num("CHAOS_VBS") {
            self.vbuckets = v;
        }
        if let Some(v) = num("CHAOS_WORKERS") {
            self.workers = v;
        }
        if let Some(v) = num("CHAOS_KEYS") {
            self.keys_per_worker = v;
        }
        if let Some(p) = std::env::var("CHAOS_PROFILE").ok().and_then(|v| Profile::by_name(&v)) {
            self.profile = p;
        }
        if let Ok(s) = std::env::var("CHAOS_SCHEDULE") {
            self.schedule = s;
        }
        if let Some(q) = num("CHAOS_QUOTA") {
            self.cache_quota = Some(q);
        }
        if std::env::var("CHAOS_COMPACT").is_ok() {
            self.compact_during = true;
        }
        self
    }

    /// The one-line command that replays this exact run.
    pub fn replay_command(&self) -> String {
        let mut cmd = format!(
            "CHAOS_SEED={} CHAOS_OPS={} CHAOS_NODES={} CHAOS_REPLICAS={} CHAOS_VBS={} \
             CHAOS_WORKERS={} CHAOS_KEYS={} CHAOS_PROFILE={} CHAOS_SCHEDULE={}",
            self.seed,
            self.ops,
            self.nodes,
            self.replicas,
            self.vbuckets,
            self.workers,
            self.keys_per_worker,
            self.profile.name(),
            self.schedule,
        );
        if let Some(q) = self.cache_quota {
            cmd.push_str(&format!(" CHAOS_QUOTA={q}"));
        }
        if self.compact_during {
            cmd.push_str(" CHAOS_COMPACT=1");
        }
        cmd.push_str(" cargo test -p cbs-chaos --test replay -- --ignored --nocapture");
        cmd
    }
}

/// Result of one chaos run.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// The seed that drove the run.
    pub seed: u64,
    /// Operations recorded in the history.
    pub ops_recorded: usize,
    /// Topology events that fired, in order.
    pub events: Vec<String>,
    /// Consistency violations (empty = the run passed).
    pub violations: Vec<Violation>,
    /// One-line replay command.
    pub replay: String,
}

impl ChaosOutcome {
    /// Pretty multi-line report (used in failure panics).
    pub fn report(&self) -> String {
        let mut s = format!(
            "chaos run seed={} recorded {} ops, {} topology events, {} violation(s)\n",
            self.seed,
            self.ops_recorded,
            self.events.len(),
            self.violations.len()
        );
        for e in &self.events {
            s.push_str(&format!("  event: {e}\n"));
        }
        for v in &self.violations {
            s.push_str(&format!("  VIOLATION {v}\n"));
        }
        s.push_str(&format!("replay: {}\n", self.replay));
        s
    }
}

fn classify_mutation_err(e: &Error) -> Ack {
    match e {
        // A timeout fires *after* the engine may have applied the
        // mutation (e.g. waiting on persistence) — outcome unknown.
        Error::Timeout(m) => Ack::Maybe(format!("timeout: {m}")),
        other => Ack::Failed(format!("{other}")),
    }
}

fn connect(cluster: &Arc<Cluster>) -> Option<SmartClient> {
    SmartClient::connect(Arc::clone(cluster), BUCKET).ok()
}

/// Run one seeded chaos workload end to end: build the cluster, run the
/// workers + coordinator, heal, then check history and live state.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosOutcome {
    let plan = FaultPlan::new(cfg.profile.spec(cfg.seed));
    let mut ccfg = ClusterConfig::for_chaos(cfg.vbuckets, cfg.replicas, plan.clone());
    if let Some(quota) = cfg.cache_quota {
        ccfg.cache_quota = quota;
        ccfg.eviction = cbs_cache::EvictionPolicy::Full;
    }
    let cluster = Cluster::homogeneous(cfg.nodes, ccfg);
    cluster.create_bucket(BUCKET).expect("create chaos bucket");

    let rec = Arc::new(HistoryRecorder::new());
    let ops_done = Arc::new(AtomicUsize::new(0));
    // Topology generation counter: bumped at the start AND end of every
    // topology event. Workers re-fetch their cluster map when it moves;
    // durable acks are only *trusted* by the checker when the whole
    // put+observe window saw a stable topology (see the worker loop).
    let gen = Arc::new(AtomicU64::new(0));
    let busy = Arc::new(AtomicU64::new(0));
    let stop_aux = Arc::new(AtomicBool::new(false));
    let compactions = Arc::new(AtomicU64::new(0));
    let schedule = Schedule::by_name(&cfg.schedule, cfg.seed, cfg.ops);

    std::thread::scope(|s| {
        let workers: Vec<_> = (0..cfg.workers)
            .map(|w| {
                let cluster = Arc::clone(&cluster);
                let rec = Arc::clone(&rec);
                let ops_done = Arc::clone(&ops_done);
                let gen = Arc::clone(&gen);
                let busy = Arc::clone(&busy);
                let cfg = cfg.clone();
                s.spawn(move || worker_loop(w, &cfg, &cluster, &rec, &ops_done, &gen, &busy))
            })
            .collect();

        let coordinator = {
            let cluster = Arc::clone(&cluster);
            let rec = Arc::clone(&rec);
            let ops_done = Arc::clone(&ops_done);
            let gen = Arc::clone(&gen);
            let busy = Arc::clone(&busy);
            let events = schedule.events.clone();
            let seed = cfg.seed;
            let total = cfg.ops;
            s.spawn(move || {
                coordinator_loop(&cluster, &rec, &ops_done, &gen, &busy, &events, seed, total)
            })
        };

        if cfg.compact_during {
            let cluster = Arc::clone(&cluster);
            let stop = Arc::clone(&stop_aux);
            let compactions = Arc::clone(&compactions);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for node in cluster.nodes() {
                        if let Some(engine) = node.engine_unchecked(BUCKET) {
                            let _ = engine.flush_once();
                            if let Ok(true) = engine.compact_if_needed() {
                                compactions.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
        }

        for h in workers {
            let _ = h.join();
        }
        // Heal: no more faults, background rebalances finish quickly.
        plan.disarm();
        stop_aux.store(true, Ordering::Relaxed);
        let _ = coordinator.join();
    });

    heal(&cluster, &rec);

    // Storage-pressure summary (the eviction/compaction chaos test asserts
    // its faults actually exercised these paths).
    let mut evictions = 0u64;
    for node in cluster.nodes() {
        if let Some(engine) = node.engine_unchecked(BUCKET) {
            evictions += engine.cache_stats().evictions;
        }
    }
    rec.event(
        format!(
            "storage: evictions={evictions} compactions={}",
            compactions.load(Ordering::Relaxed)
        ),
        false,
    );

    let history = rec.finish();
    let mut violations = check_history(&history);
    violations.extend(check_cluster(&cluster, BUCKET, cfg.settle));
    let mut events: Vec<String> =
        history.events.iter().map(|e| format!("t={} {}", e.at, e.what)).collect();
    if !violations.is_empty() {
        // The checker found a bug: dump the black-box flight recorder so
        // every chaos repro doubles as a postmortem with a timeline.
        if let Some(path) = write_flight_dump(&cluster, cfg.seed) {
            events.push(format!("flight recorder dumped to {}", path.display()));
        }
    }
    ChaosOutcome {
        seed: cfg.seed,
        ops_recorded: history.len(),
        events,
        violations,
        replay: cfg.replay_command(),
    }
}

/// Render the cluster's flight recorder as a deterministic postmortem
/// dump. Events carry dense per-service sequence numbers and **no wall
/// clock**, so two runs that produce the same event sequence (e.g. the
/// same seed through a deterministic scenario) produce byte-identical
/// dumps — diffable across repro attempts.
pub fn flight_dump(cluster: &Arc<Cluster>, seed: u64) -> String {
    let mut out = format!("# chaos flight recorder · seed={seed}\n");
    for event in cluster.flight_events() {
        out.push_str(&event.render());
        out.push('\n');
    }
    out
}

/// Write [`flight_dump`] to `target/chaos_flight_<seed>.log`, returning
/// the path (or `None` if the filesystem refused).
pub fn write_flight_dump(cluster: &Arc<Cluster>, seed: u64) -> Option<std::path::PathBuf> {
    let dir = std::path::Path::new("target");
    std::fs::create_dir_all(dir).ok()?;
    let path = dir.join(format!("chaos_flight_{seed}.log"));
    std::fs::write(&path, flight_dump(cluster, seed)).ok()?;
    Some(path)
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    w: usize,
    cfg: &ChaosConfig,
    cluster: &Arc<Cluster>,
    rec: &HistoryRecorder,
    ops_done: &AtomicUsize,
    gen: &AtomicU64,
    busy: &AtomicU64,
) {
    let keys: Vec<String> = (0..cfg.keys_per_worker).map(|i| format!("w{w}k{i}")).collect();
    let mut client = connect(cluster);
    let mut last_gen = gen.load(Ordering::SeqCst);
    let observe_timeout = Duration::from_secs(3);
    let mut op_i: u64 = 0;
    loop {
        if ops_done.fetch_add(1, Ordering::SeqCst) >= cfg.ops {
            break;
        }
        // Re-fetch the cluster map after topology events (models the
        // map-update push real clients subscribe to).
        let g = gen.load(Ordering::SeqCst);
        if g != last_gen || client.is_none() {
            if let Some(fresh) = connect(cluster) {
                client = Some(fresh);
            }
            last_gen = g;
        }
        let Some(client) = client.as_ref() else { continue };

        let h = mix_all(&[cfg.seed, WORKLOAD_SALT, w as u64, op_i]);
        op_i += 1;
        let key = &keys[((h >> 32) as usize) % keys.len()];
        let value = ((w as i64 + 1) << 40) | (op_i as i64);
        let vb = client.vb_for_key(key).0;
        let roll = h % 100;
        // Stable-topology window for durability claims: if any topology
        // event overlaps this op, the observe may have judged replication
        // against a mid-transition replica set, so the ack is recorded
        // non-durable (the checker then won't hold the durable floor to
        // it).
        let gen0 = gen.load(Ordering::SeqCst);
        let busy0 = busy.load(Ordering::SeqCst);
        let invoked = rec.tick();

        if roll < 40 {
            // Plain upsert.
            match client.upsert(key, Value::int(value)) {
                Ok(m) => rec.record(
                    key,
                    OpKind::Put { value, durable: false },
                    invoked,
                    Ack::Ok { vb: m.vb.0, seqno: m.seqno.0, observed: Some(value) },
                ),
                Err(e) => rec.record(
                    key,
                    OpKind::Put { value, durable: false },
                    invoked,
                    classify_mutation_err(&e),
                ),
            }
        } else if roll < 50 {
            // CAS round-trip: read, then conditional write.
            match client.get(key) {
                Ok(r) => {
                    rec.record(
                        key,
                        OpKind::Get,
                        invoked,
                        Ack::Ok { vb, seqno: 0, observed: r.value.as_i64() },
                    );
                    let invoked2 = rec.tick();
                    match client.replace(key, Value::int(value), r.meta.cas) {
                        Ok(m) => rec.record(
                            key,
                            OpKind::Put { value, durable: false },
                            invoked2,
                            Ack::Ok { vb: m.vb.0, seqno: m.seqno.0, observed: Some(value) },
                        ),
                        Err(e) => rec.record(
                            key,
                            OpKind::Put { value, durable: false },
                            invoked2,
                            classify_mutation_err(&e),
                        ),
                    }
                }
                Err(Error::KeyNotFound(_)) => {
                    rec.record(key, OpKind::Get, invoked, Ack::Ok { vb, seqno: 0, observed: None });
                    let invoked2 = rec.tick();
                    match client.insert(key, Value::int(value)) {
                        Ok(m) => rec.record(
                            key,
                            OpKind::Put { value, durable: false },
                            invoked2,
                            Ack::Ok { vb: m.vb.0, seqno: m.seqno.0, observed: Some(value) },
                        ),
                        Err(e) => rec.record(
                            key,
                            OpKind::Put { value, durable: false },
                            invoked2,
                            classify_mutation_err(&e),
                        ),
                    }
                }
                Err(e) => {
                    rec.record(key, OpKind::Get, invoked, Ack::Failed(format!("{e}")));
                }
            }
        } else if roll < 65 {
            // Durable put: ack waits for replication to every replica
            // (and sometimes persistence on the active).
            let durability =
                Durability { replicate_to: cfg.replicas, persist_to_master: h & (1 << 7) != 0 };
            match client.upsert(key, Value::int(value)) {
                Ok(m) => {
                    let observed_ok = client.observe(key, m, durability, observe_timeout).is_ok();
                    let stable = busy0 == 0
                        && busy.load(Ordering::SeqCst) == 0
                        && gen.load(Ordering::SeqCst) == gen0;
                    rec.record(
                        key,
                        OpKind::Put { value, durable: observed_ok && stable },
                        invoked,
                        Ack::Ok { vb: m.vb.0, seqno: m.seqno.0, observed: Some(value) },
                    );
                }
                Err(e) => rec.record(
                    key,
                    OpKind::Put { value, durable: false },
                    invoked,
                    classify_mutation_err(&e),
                ),
            }
        } else if roll < 85 {
            // Read.
            match client.get(key) {
                Ok(r) => rec.record(
                    key,
                    OpKind::Get,
                    invoked,
                    Ack::Ok { vb, seqno: 0, observed: r.value.as_i64() },
                ),
                Err(Error::KeyNotFound(_)) => {
                    rec.record(key, OpKind::Get, invoked, Ack::Ok { vb, seqno: 0, observed: None })
                }
                Err(e) => rec.record(key, OpKind::Get, invoked, Ack::Failed(format!("{e}"))),
            }
        } else {
            // Delete.
            match client.remove(key, Cas::WILDCARD) {
                Ok(m) => rec.record(
                    key,
                    OpKind::Delete,
                    invoked,
                    Ack::Ok { vb: m.vb.0, seqno: m.seqno.0, observed: None },
                ),
                Err(e) => rec.record(key, OpKind::Delete, invoked, classify_mutation_err(&e)),
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn coordinator_loop(
    cluster: &Arc<Cluster>,
    rec: &Arc<HistoryRecorder>,
    ops_done: &AtomicUsize,
    gen: &Arc<AtomicU64>,
    busy: &Arc<AtomicU64>,
    events: &[TopoEvent],
    seed: u64,
    total: usize,
) {
    let mut bg: Vec<std::thread::JoinHandle<()>> = Vec::new();
    'events: for (i, ev) in events.iter().enumerate() {
        while ops_done.load(Ordering::SeqCst) < ev.at {
            if ops_done.load(Ordering::SeqCst) >= total {
                rec.event(format!("{:?} skipped (workload finished)", ev.kind), false);
                continue 'events;
            }
            std::thread::sleep(Duration::from_micros(300));
        }
        gen.fetch_add(1, Ordering::SeqCst);
        busy.fetch_add(1, Ordering::SeqCst);
        match ev.kind {
            TopoKind::Kill => {
                let alive: Vec<NodeId> = cluster
                    .nodes()
                    .iter()
                    .filter(|n| n.is_alive() && n.services().data)
                    .map(|n| n.id())
                    .collect();
                let any_dead = cluster.nodes().iter().any(|n| !n.is_alive());
                if any_dead || alive.len() < 3 {
                    rec.event("kill skipped (cluster already degraded)", false);
                } else {
                    let victim = alive
                        [(mix_all(&[seed, KILL_SALT, i as u64]) % alive.len() as u64) as usize];
                    if let Ok(node) = cluster.node(victim) {
                        node.kill();
                        rec.event(format!("kill node {}", victim.0), false);
                    }
                }
            }
            TopoKind::FailoverDead => {
                failover_dead(cluster, rec);
            }
            TopoKind::ReviveAll => {
                for node in cluster.nodes() {
                    if !node.is_alive() {
                        revive_clean(cluster, &node);
                        rec.event(format!("revive node {} (rejoin protocol)", node.id().0), false);
                    }
                }
            }
            TopoKind::AddNode => match cluster.add_node(ServiceSet::all()) {
                Ok(id) => rec.event(format!("add node {}", id.0), false),
                Err(e) => rec.event(format!("add node failed: {e}"), false),
            },
            TopoKind::Rebalance { background: false } => {
                let r = cluster.rebalance(&[]);
                rec.event(format!("rebalance: {}", outcome_str(&r)), false);
            }
            TopoKind::Rebalance { background: true } => {
                rec.event("rebalance (background) begin", false);
                let cluster = Arc::clone(cluster);
                let rec2 = Arc::clone(rec);
                let gen2 = Arc::clone(gen);
                let busy2 = Arc::clone(busy);
                busy2.fetch_add(1, Ordering::SeqCst);
                bg.push(std::thread::spawn(move || {
                    let r = cluster.rebalance(&[]);
                    rec2.event(format!("rebalance (background): {}", outcome_str(&r)), false);
                    busy2.fetch_sub(1, Ordering::SeqCst);
                    gen2.fetch_add(1, Ordering::SeqCst);
                }));
            }
        }
        busy.fetch_sub(1, Ordering::SeqCst);
        gen.fetch_add(1, Ordering::SeqCst);
    }
    for h in bg {
        let _ = h.join();
    }
}

fn outcome_str<T>(r: &Result<T, Error>) -> String {
    match r {
        Ok(_) => "ok".to_string(),
        Err(e) => format!("failed: {e}"),
    }
}

/// Fail over every dead node, bracketing each promotion with lossy event
/// marks (the rollback becomes visible at some point *during* the call,
/// and the checker's windows are conservative about exactly when).
fn failover_dead(cluster: &Arc<Cluster>, rec: &HistoryRecorder) {
    for node in cluster.nodes() {
        if !node.is_alive() {
            let id = node.id().0;
            rec.event(format!("failover node {id} begin"), true);
            let r = cluster.failover(node.id());
            rec.event(format!("failover node {id}: {}", outcome_str(&r)), true);
        }
    }
}

/// The rejoin protocol: a revived node keeps only the vBuckets the current
/// map still assigns to it. Stale `Active` copies from before the crash
/// would otherwise accept writes from stale-mapped clients (split-brain);
/// real Couchbase re-integrates failed-over nodes empty, via rebalance
/// (§4.3.1).
pub fn revive_clean(cluster: &Arc<Cluster>, node: &cbs_cluster::Node) {
    node.revive();
    let Ok(map) = cluster.map(BUCKET) else { return };
    let Ok(engine) = node.engine(BUCKET) else { return };
    let id = node.id();
    for v in 0..map.num_vbuckets() {
        let vb = VbId(v);
        let owned_active = map.active_node(vb) == id;
        let owned_replica = map.replica_nodes(vb).contains(&id);
        let state = engine.vb_state(vb);
        if owned_active {
            continue; // never failed over: its copy is still authoritative
        }
        if state == VbState::Active {
            // Failed over while down: this copy is no longer authoritative.
            let _ = engine.purge_vb(vb);
            if owned_replica {
                engine.set_vb_state(vb, VbState::Replica);
            }
        } else if !owned_replica && state != VbState::Dead {
            let _ = engine.purge_vb(vb);
        }
    }
}

/// Post-workload heal: fail over and cleanly revive every dead node, then
/// rebalance until the cluster accepts it (a rebalance can legitimately
/// fail if it raced the tail of the workload's topology events).
fn heal(cluster: &Arc<Cluster>, rec: &HistoryRecorder) {
    for _ in 0..5 {
        failover_dead(cluster, rec);
        for node in cluster.nodes() {
            if !node.is_alive() {
                revive_clean(cluster, &node);
                rec.event(format!("heal: revive node {}", node.id().0), false);
            }
        }
        match cluster.rebalance(&[]) {
            Ok(()) => {
                rec.event("heal: rebalance ok", false);
                return;
            }
            Err(e) => {
                rec.event(format!("heal: rebalance failed: {e}"), false);
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Shrink a failing config by halving the op count while the failure
/// reproduces; returns the smallest failing outcome found.
pub fn shrink(cfg: &ChaosConfig) -> (ChaosConfig, ChaosOutcome) {
    let mut best_cfg = cfg.clone();
    let mut best = run_chaos(cfg);
    if best.violations.is_empty() {
        return (best_cfg, best);
    }
    let mut ops = cfg.ops / 2;
    while ops >= 25 {
        let mut candidate = best_cfg.clone();
        candidate.ops = ops;
        let outcome = run_chaos(&candidate);
        if outcome.violations.is_empty() {
            break; // smaller run passes: keep the current minimum
        }
        best_cfg = candidate;
        best = outcome;
        ops /= 2;
    }
    (best_cfg, best)
}

/// Run a config and panic with a full report — seed, events, violations,
/// shrunk minimal case and a one-line replay command — if any consistency
/// rule fires.
pub fn expect_clean(cfg: &ChaosConfig) {
    let outcome = run_chaos(cfg);
    if outcome.violations.is_empty() {
        return;
    }
    let (shrunk_cfg, shrunk) = shrink(cfg);
    panic!(
        "chaos consistency failure (seed {}):\n{}\nshrunk to {} ops:\n{}\nREPLAY: {}",
        cfg.seed,
        outcome.report(),
        shrunk_cfg.ops,
        shrunk.report(),
        shrunk.replay,
    );
}
