//! Chaos **measure mode**: how stale do reads actually get under faults?
//!
//! The checker ([`crate::check_history`]) answers a boolean question — is
//! the history *legal*? This module answers the quantitative one the
//! paper's asynchronous replication design (§4.1.1) raises: with a given
//! fault profile and topology schedule, what is the **probability of a
//! stale read**, and how stale are they — in logical time and in seqno
//! distance?
//!
//! The measurement runs the same seeded op mix as the live chaos workload
//! ([`crate::run_chaos`]'s worker loop) and replays the same seeded
//! [`FaultPlan`] delivery decisions and [`Schedule`] topology events, but
//! against a **single-threaded logical simulation** of the cluster. A live
//! multi-threaded run can never produce byte-identical numbers across
//! machines — thread interleaving moves the pump relative to the workload.
//! Here every delivery, failover and read happens at a deterministic
//! logical tick, so the same seed always yields the same
//! `BENCH_staleness_<profile>.json`, making staleness regressions
//! diffable exactly like fig15/fig16 throughput regressions.
//!
//! What the simulation keeps from the real cluster: per-vBucket seqno
//! assignment, per-replica in-order delivery with connection-reset drop
//! semantics (a dropped item blocks the tail of its queue, retried next
//! cycle with an incremented attempt — the same site identity the live
//! pump feeds the plan), failover promoting the most-caught-up live
//! replica and truncating the lost tail, and the rejoin/rebalance
//! protocols resetting copies. Wall-clock timing maps onto the logical
//! clock: a `Delay` decision holds the item (and, in-order, the tail
//! behind it) for extra ticks derived from the seeded delay span, so
//! jittery profiles measurably deepen replica lag. What it drops:
//! cross-worker thread interleaving (workers are round-robined).
//!
//! Every read is judged against the key's **most recently acked
//! mutation**: observing an older seqno is a stale read, aged both in
//! ticks since that ack and in seqno distance. Lost-but-acked writes that
//! a later ack supersedes stop counting — that is the checker's
//! (lost-write) territory, not staleness.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use cbs_cluster::{FaultAction, FaultInjector};
use cbs_common::{NodeId, SeqNo, VbId};
use cbs_obs::{Counter, Registry, WindowedHistogram};

use crate::history::{Ack, History, HistoryRecorder, OpKind};
use crate::mix_all;
use crate::plan::FaultPlan;
use crate::workload::{ChaosConfig, Schedule, TopoEvent, TopoKind, KILL_SALT, WORKLOAD_SALT};

/// Logical ticks (= workload ops) per staleness-age window. The windowed
/// `chaos.staleness.age_*` histograms rotate on this logical clock, so a
/// snapshot mid-run answers "how stale are reads *now*".
pub const TICKS_PER_WINDOW: u64 = 128;

/// In-flight replication latency in ticks: an item enqueued at tick `t`
/// is deliverable from `t + REPL_LATENCY_TICKS`. The live pump acks the
/// client from the active copy immediately while replica delivery rides a
/// separate ~1 ms cadence; without a modeled latency the sim's replicas
/// would be fresh at every instant and failover would never truncate
/// anything. A durability observe ([`Sim::observe`]) waits this latency
/// out, exactly like the blocking observe call in the live client.
const REPL_LATENCY_TICKS: u64 = 3;

/// One copy of a vBucket's data: `key → (value, seqno)`, `None` value =
/// tombstone (the seqno still orders it), plus the applied high seqno.
#[derive(Debug, Clone, Default)]
struct CopyState {
    docs: HashMap<String, (Option<i64>, u64)>,
    high: u64,
}

impl CopyState {
    fn apply(&mut self, key: &str, value: Option<i64>, seqno: u64) {
        if seqno > self.high {
            self.high = seqno;
            self.docs.insert(key.to_string(), (value, seqno));
        }
    }
}

/// An undelivered replication item for one replica (the site identity —
/// vb, seqno, node, attempt — is exactly what the live pump hashes).
#[derive(Debug)]
struct Delivery {
    key: String,
    value: Option<i64>,
    seqno: u64,
    attempt: u32,
    /// First tick the item can land on the replica (in-flight latency).
    ready_at: u64,
    /// A `Delay` fault already pushed `ready_at` once (the seeded decision
    /// is a pure hash of the site, so it must not re-fire every cycle).
    delayed: bool,
}

#[derive(Debug)]
struct ReplicaSim {
    node: u32,
    copy: CopyState,
    queue: VecDeque<Delivery>,
}

#[derive(Debug)]
struct VbSim {
    active_node: u32,
    active: CopyState,
    replicas: Vec<ReplicaSim>,
}

/// The key's most recently *acked* mutation (ack order, not seqno order:
/// a later ack supersedes an earlier one even if the earlier one's seqno
/// was lost to failover).
#[derive(Debug, Clone, Copy)]
struct AckedWrite {
    tick: u64,
    seqno: u64,
}

/// Staleness numbers for one workload phase (the span between two
/// topology events).
#[derive(Debug, Clone)]
pub struct PhaseStaleness {
    /// Phase label: `"baseline"` before the first event, then the event
    /// that started the phase, suffixed with its op threshold.
    pub phase: String,
    /// Reads that returned a value judgement (failed reads excluded).
    pub reads: u64,
    /// Reads that observed an older seqno than the key's last acked
    /// mutation.
    pub stale_reads: u64,
    /// Staleness age percentiles in logical ticks: `[p50, p95, p99, max]`
    /// over the phase's stale reads (all zero when none).
    pub age_ticks: [u64; 4],
    /// The same percentiles in seqno distance.
    pub age_seqnos: [u64; 4],
}

impl PhaseStaleness {
    /// Probability a read in this phase was stale.
    pub fn p_stale(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.stale_reads as f64 / self.reads as f64
        }
    }
}

/// Result of one measure-mode run: its staleness numbers (a sweep of one
/// run), history and metrics.
#[derive(Debug)]
pub struct StalenessOutcome {
    /// The run's staleness numbers.
    pub summary: StalenessSweep,
    /// The recorded op/event history (same recorder the live harness
    /// uses, so the checker can audit a measured run too).
    pub history: History,
    /// Registry carrying the `chaos.staleness.*` metrics of this run.
    pub registry: Arc<Registry>,
}

/// Per-phase accumulator (exact nearest-rank percentiles from the full
/// sample set — no bucket interpolation in the benchmark artifact).
struct PhaseAcc {
    phase: String,
    reads: u64,
    stale_reads: u64,
    ticks: Vec<u64>,
    seqnos: Vec<u64>,
}

impl PhaseAcc {
    fn new(phase: String) -> PhaseAcc {
        PhaseAcc { phase, reads: 0, stale_reads: 0, ticks: Vec::new(), seqnos: Vec::new() }
    }

    /// Fold another run's accumulator for the same structural phase in.
    fn merge(&mut self, other: PhaseAcc) {
        debug_assert_eq!(self.phase, other.phase);
        self.reads += other.reads;
        self.stale_reads += other.stale_reads;
        self.ticks.extend(other.ticks);
        self.seqnos.extend(other.seqnos);
    }

    fn finish(mut self) -> PhaseStaleness {
        PhaseStaleness {
            phase: self.phase,
            reads: self.reads,
            stale_reads: self.stale_reads,
            age_ticks: percentiles(&mut self.ticks),
            age_seqnos: percentiles(&mut self.seqnos),
        }
    }
}

/// Nearest-rank `[p50, p95, p99, max]` of a sample set.
fn percentiles(samples: &mut [u64]) -> [u64; 4] {
    if samples.is_empty() {
        return [0; 4];
    }
    samples.sort_unstable();
    let rank = |p: f64| {
        let idx = (p / 100.0 * samples.len() as f64).ceil() as usize;
        samples[idx.clamp(1, samples.len()) - 1]
    };
    [rank(50.0), rank(95.0), rank(99.0), samples[samples.len() - 1]]
}

fn label(kind: TopoKind, at: usize) -> String {
    let name = match kind {
        TopoKind::Kill => "kill",
        TopoKind::FailoverDead => "failover",
        TopoKind::ReviveAll => "revive",
        TopoKind::AddNode => "add-node",
        TopoKind::Rebalance { .. } => "rebalance",
    };
    format!("{name}@{at}")
}

struct Sim {
    plan: Arc<FaultPlan>,
    alive: Vec<bool>,
    vbs: Vec<VbSim>,
}

impl Sim {
    fn new(cfg: &ChaosConfig, plan: Arc<FaultPlan>) -> Sim {
        let nodes = cfg.nodes as u32;
        let vbs = (0..cfg.vbuckets)
            .map(|v| {
                let active_node = u32::from(v) % nodes;
                let replicas = (0..cfg.replicas)
                    .map(|r| ReplicaSim {
                        node: (u32::from(v) + 1 + u32::from(r)) % nodes,
                        copy: CopyState::default(),
                        queue: VecDeque::new(),
                    })
                    .collect();
                VbSim { active_node, active: CopyState::default(), replicas }
            })
            .collect();
        Sim { plan, alive: vec![true; cfg.nodes], vbs }
    }

    fn vb_for_key(&self, key: &str) -> usize {
        (mix_all(&[0x7662_6d61 /* "vbma" */, key.len() as u64, hash_key(key)])
            % self.vbs.len() as u64) as usize
    }

    /// Apply a mutation on the active copy; `None` when the active node is
    /// down (the op fails). Queues the delivery to every replica.
    fn mutate(&mut self, key: &str, value: Option<i64>, tick: u64) -> Option<(u16, u64)> {
        let v = self.vb_for_key(key);
        let vb = &mut self.vbs[v];
        if !self.alive[vb.active_node as usize] {
            return None;
        }
        let seqno = vb.active.high + 1;
        vb.active.apply(key, value, seqno);
        for r in &mut vb.replicas {
            r.queue.push_back(Delivery {
                key: key.to_string(),
                value,
                seqno,
                attempt: 0,
                ready_at: tick + REPL_LATENCY_TICKS,
                delayed: false,
            });
        }
        Some((v as u16, seqno))
    }

    /// Read through the active copy; `None` when the active node is down.
    /// Returns the observed `(value, seqno)` (`(None, 0)` = key absent).
    fn read(&self, key: &str) -> Option<(Option<i64>, u64)> {
        let v = self.vb_for_key(key);
        let vb = &self.vbs[v];
        if !self.alive[vb.active_node as usize] {
            return None;
        }
        Some(vb.active.docs.get(key).copied().unwrap_or((None, 0)))
    }

    /// One pump cycle at logical time `now`: in-order delivery of every
    /// in-flight-complete item to every live replica of every vBucket with
    /// a live active, consulting the fault plan per item. A `Drop` blocks
    /// the rest of that replica's queue for the cycle (connection-reset
    /// semantics) and bumps the site's attempt.
    fn pump(&mut self, now: u64) {
        for v in 0..self.vbs.len() {
            self.pump_vb(v, now);
        }
    }

    fn pump_vb(&mut self, v: usize, now: u64) {
        let vb = &mut self.vbs[v];
        if !self.alive[vb.active_node as usize] {
            return;
        }
        for r in &mut vb.replicas {
            if !self.alive[r.node as usize] {
                continue;
            }
            while let Some(d) = r.queue.front_mut() {
                if d.ready_at > now {
                    break;
                }
                let action = self.plan.repl_delivery(
                    VbId(v as u16),
                    SeqNo(d.seqno),
                    NodeId(r.node),
                    d.attempt,
                );
                match action {
                    FaultAction::Drop => {
                        d.attempt += 1;
                        break;
                    }
                    FaultAction::Delay(dur) if !d.delayed => {
                        // Network delay: the item keeps its place in the
                        // in-order stream but lands late, holding the tail
                        // behind it. Extra ticks come from the seeded delay
                        // duration, so the decision stays replayable.
                        d.delayed = true;
                        d.ready_at = now + 1 + (dur.as_micros() as u64 % REPL_LATENCY_TICKS);
                        break;
                    }
                    FaultAction::Deliver | FaultAction::Delay(_) => {
                        r.copy.apply(&d.key, d.value, d.seqno);
                        r.queue.pop_front();
                    }
                    FaultAction::Duplicate => {
                        r.copy.apply(&d.key, d.value, d.seqno);
                        r.copy.apply(&d.key, d.value, d.seqno);
                        r.queue.pop_front();
                    }
                }
            }
        }
    }

    /// Durability observe for `(vb, seqno)` at `tick`: block (= advance
    /// logical time for this vBucket only) until every live replica has
    /// applied it, bounded — the plan's per-site drop cap guarantees
    /// progress. `false` when a replica is down or the bound is hit.
    fn observe(&mut self, v: usize, seqno: u64, tick: u64) -> bool {
        for wait in 0..(REPL_LATENCY_TICKS + 8) {
            let vb = &self.vbs[v];
            if vb.replicas.iter().any(|r| !self.alive[r.node as usize]) {
                return false;
            }
            if vb.replicas.iter().all(|r| r.copy.high >= seqno) {
                return true;
            }
            self.pump_vb(v, tick + wait);
        }
        self.vbs[v].replicas.iter().all(|r| r.copy.high >= seqno)
    }

    /// Mirror of the coordinator's kill policy: skip when already degraded
    /// or below three live nodes, otherwise the seeded victim dies.
    fn kill(&mut self, seed: u64, event_idx: usize) -> Option<u32> {
        let live: Vec<u32> =
            (0..self.alive.len() as u32).filter(|&n| self.alive[n as usize]).collect();
        if live.len() < self.alive.len() || live.len() < 3 {
            return None;
        }
        let victim =
            live[(mix_all(&[seed, KILL_SALT, event_idx as u64]) % live.len() as u64) as usize];
        self.alive[victim as usize] = false;
        Some(victim)
    }

    /// Promote the most-caught-up live replica of every vBucket whose
    /// active node is dead. The promoted copy's missing tail is lost —
    /// this is where staleness comes from.
    fn failover_dead(&mut self) -> usize {
        let mut promoted = 0;
        for vb in &mut self.vbs {
            if self.alive[vb.active_node as usize] {
                continue;
            }
            let Some(best) = vb
                .replicas
                .iter()
                .enumerate()
                .filter(|(_, r)| self.alive[r.node as usize])
                .max_by_key(|(i, r)| (r.copy.high, usize::MAX - i))
                .map(|(i, _)| i)
            else {
                continue; // no live replica: the vBucket stays down
            };
            vb.active = vb.replicas[best].copy.clone();
            vb.active_node = vb.replicas[best].node;
            vb.replicas[best].queue.clear();
            promoted += 1;
        }
        promoted
    }

    /// Rejoin protocol: revived nodes come back with their replica copies
    /// rebuilt from the current actives (the live pump's backfill,
    /// compressed to one logical step).
    fn revive_all(&mut self) -> Vec<u32> {
        let revived: Vec<u32> =
            (0..self.alive.len() as u32).filter(|&n| !self.alive[n as usize]).collect();
        for &n in &revived {
            self.alive[n as usize] = true;
        }
        for vb in &mut self.vbs {
            if !self.alive[vb.active_node as usize] {
                continue;
            }
            for r in &mut vb.replicas {
                if revived.contains(&r.node) {
                    r.copy = vb.active.clone();
                    r.queue.clear();
                }
            }
        }
        revived
    }

    fn add_node(&mut self) -> u32 {
        self.alive.push(true);
        self.alive.len() as u32 - 1
    }

    /// Rebalance to the balanced layout over live nodes: copies move
    /// without loss, every replica finishes backfilled and in sync.
    fn rebalance(&mut self) {
        let live: Vec<u32> =
            (0..self.alive.len() as u32).filter(|&n| self.alive[n as usize]).collect();
        if live.is_empty() {
            return;
        }
        for (v, vb) in self.vbs.iter_mut().enumerate() {
            if !self.alive[vb.active_node as usize] {
                continue; // nothing authoritative to move
            }
            vb.active_node = live[v % live.len()];
            for (r, replica) in vb.replicas.iter_mut().enumerate() {
                replica.node = live[(v + 1 + r) % live.len()];
                replica.copy = vb.active.clone();
                replica.queue.clear();
            }
        }
    }
}

/// Stable key hash for vBucket assignment (the sim's stand-in for the
/// smart client's CRC32 mapping).
fn hash_key(key: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
    for b in key.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One full simulated run: per-phase accumulators (raw samples kept so
/// callers can pool runs), the op/event history, and the metrics registry.
fn simulate(cfg: &ChaosConfig) -> (Vec<PhaseAcc>, History, Arc<Registry>) {
    let plan = FaultPlan::new(cfg.profile.spec(cfg.seed));
    let mut sim = Sim::new(cfg, plan);
    let rec = HistoryRecorder::new();
    let schedule = Schedule::by_name(&cfg.schedule, cfg.seed, cfg.ops);

    let registry = Arc::new(Registry::new("chaos"));
    let reads_ctr: Arc<Counter> = registry
        .counter_with_help("chaos.staleness.reads", "Reads judged for staleness in measure mode");
    let stale_ctr: Arc<Counter> = registry.counter_with_help(
        "chaos.staleness.stale_reads",
        "Reads that observed an older seqno than the key's last acked mutation",
    );
    let age_ticks_h: Arc<WindowedHistogram> = registry.windowed_histogram_with_help(
        "chaos.staleness.age_ticks",
        "Stale-read age in logical ticks since the superseding ack, over the live windows",
    );
    let age_seqnos_h: Arc<WindowedHistogram> = registry.windowed_histogram_with_help(
        "chaos.staleness.age_seqnos",
        "Stale-read age in seqno distance behind the key's last acked mutation, over the live \
         windows",
    );

    let mut acked: HashMap<String, AckedWrite> = HashMap::new();
    let mut phases: Vec<PhaseAcc> = Vec::new();
    let mut acc = PhaseAcc::new("baseline".to_string());
    let mut events: &[TopoEvent] = &schedule.events;
    let mut event_idx = 0usize;
    let mut worker_op: Vec<u64> = vec![0; cfg.workers.max(1)];
    let keys: Vec<Vec<String>> = (0..cfg.workers.max(1))
        .map(|w| (0..cfg.keys_per_worker).map(|i| format!("w{w}k{i}")).collect())
        .collect();

    for op in 0..cfg.ops {
        // Fire due topology events; each one closes the current phase.
        while let Some(ev) = events.first() {
            if ev.at > op {
                break;
            }
            phases.push(std::mem::replace(&mut acc, PhaseAcc::new(label(ev.kind, ev.at))));
            match ev.kind {
                TopoKind::Kill => match sim.kill(cfg.seed, event_idx) {
                    Some(n) => rec.event(format!("kill node {n}"), false),
                    None => rec.event("kill skipped (cluster already degraded)", false),
                },
                TopoKind::FailoverDead => {
                    let n = sim.failover_dead();
                    rec.event(format!("failover promoted {n} vbuckets"), true);
                }
                TopoKind::ReviveAll => {
                    for n in sim.revive_all() {
                        rec.event(format!("revive node {n} (rejoin protocol)"), false);
                    }
                }
                TopoKind::AddNode => {
                    let n = sim.add_node();
                    rec.event(format!("add node {n}"), false);
                }
                TopoKind::Rebalance { .. } => {
                    sim.rebalance();
                    rec.event("rebalance: ok", false);
                }
            }
            event_idx += 1;
            events = &events[1..];
        }

        let tick = op as u64 + 1;
        age_ticks_h.advance_to(tick / TICKS_PER_WINDOW);
        age_seqnos_h.advance_to(tick / TICKS_PER_WINDOW);

        // Same seeded op mix as the live worker loop.
        let w = op % cfg.workers.max(1);
        let h = mix_all(&[cfg.seed, WORKLOAD_SALT, w as u64, worker_op[w]]);
        worker_op[w] += 1;
        let key = &keys[w][((h >> 32) as usize) % keys[w].len()];
        let value = ((w as i64 + 1) << 40) | (worker_op[w] as i64);
        let roll = h % 100;

        let judge_read = |observed: Option<(Option<i64>, u64)>,
                          acked: &HashMap<String, AckedWrite>,
                          acc: &mut PhaseAcc| {
            let Some((_, seq)) = observed else { return };
            acc.reads += 1;
            reads_ctr.inc();
            let Some(last) = acked.get(key) else { return };
            if seq < last.seqno {
                acc.stale_reads += 1;
                stale_ctr.inc();
                let age_t = tick.saturating_sub(last.tick);
                let age_s = last.seqno - seq;
                acc.ticks.push(age_t);
                acc.seqnos.push(age_s);
                age_ticks_h.record_nanos(age_t);
                age_seqnos_h.record_nanos(age_s);
            }
        };

        if roll < 40 {
            // Plain upsert.
            let invoked = rec.tick();
            match sim.mutate(key, Some(value), tick) {
                Some((vb, seqno)) => {
                    acked.insert(key.clone(), AckedWrite { tick, seqno });
                    rec.record(
                        key,
                        OpKind::Put { value, durable: false },
                        invoked,
                        Ack::Ok { vb, seqno, observed: Some(value) },
                    );
                }
                None => rec.record(
                    key,
                    OpKind::Put { value, durable: false },
                    invoked,
                    Ack::Failed("active node down".to_string()),
                ),
            }
        } else if roll < 50 {
            // CAS round-trip: read, then conditional write (single-writer
            // keys, so the CAS itself always succeeds when the node is up).
            let invoked = rec.tick();
            let observed = sim.read(key);
            match observed {
                Some((val, _)) => {
                    judge_read(observed, &acked, &mut acc);
                    rec.record(
                        key,
                        OpKind::Get,
                        invoked,
                        Ack::Ok { vb: sim.vb_for_key(key) as u16, seqno: 0, observed: val },
                    );
                    let invoked2 = rec.tick();
                    match sim.mutate(key, Some(value), tick) {
                        Some((vb, seqno)) => {
                            acked.insert(key.clone(), AckedWrite { tick, seqno });
                            rec.record(
                                key,
                                OpKind::Put { value, durable: false },
                                invoked2,
                                Ack::Ok { vb, seqno, observed: Some(value) },
                            );
                        }
                        None => rec.record(
                            key,
                            OpKind::Put { value, durable: false },
                            invoked2,
                            Ack::Failed("active node down".to_string()),
                        ),
                    }
                }
                None => rec.record(
                    key,
                    OpKind::Get,
                    invoked,
                    Ack::Failed("active node down".to_string()),
                ),
            }
        } else if roll < 65 {
            // Durable put: the ack waits for replication to every replica.
            let invoked = rec.tick();
            match sim.mutate(key, Some(value), tick) {
                Some((vb, seqno)) => {
                    let durable = sim.observe(vb as usize, seqno, tick);
                    acked.insert(key.clone(), AckedWrite { tick, seqno });
                    rec.record(
                        key,
                        OpKind::Put { value, durable },
                        invoked,
                        Ack::Ok { vb, seqno, observed: Some(value) },
                    );
                }
                None => rec.record(
                    key,
                    OpKind::Put { value, durable: false },
                    invoked,
                    Ack::Failed("active node down".to_string()),
                ),
            }
        } else if roll < 85 {
            // Read.
            let invoked = rec.tick();
            let observed = sim.read(key);
            judge_read(observed, &acked, &mut acc);
            match observed {
                Some((val, _)) => rec.record(
                    key,
                    OpKind::Get,
                    invoked,
                    Ack::Ok { vb: sim.vb_for_key(key) as u16, seqno: 0, observed: val },
                ),
                None => rec.record(
                    key,
                    OpKind::Get,
                    invoked,
                    Ack::Failed("active node down".to_string()),
                ),
            }
        } else {
            // Delete.
            let invoked = rec.tick();
            match sim.mutate(key, None, tick) {
                Some((vb, seqno)) => {
                    acked.insert(key.clone(), AckedWrite { tick, seqno });
                    rec.record(key, OpKind::Delete, invoked, Ack::Ok { vb, seqno, observed: None });
                }
                None => rec.record(
                    key,
                    OpKind::Delete,
                    invoked,
                    Ack::Failed("active node down".to_string()),
                ),
            }
        }

        // Replication pump cycle: in-flight items past their latency land.
        sim.pump(tick);
    }
    phases.push(acc);

    (phases, rec.finish(), registry)
}

/// Run measure mode: simulate `cfg` deterministically and return the
/// per-phase staleness numbers, history, and `chaos.staleness.*` metrics.
pub fn measure_staleness(cfg: &ChaosConfig) -> StalenessOutcome {
    let (accs, history, registry) = simulate(cfg);
    StalenessOutcome { summary: StalenessSweep::new(cfg, 1, accs), history, registry }
}

/// Phase-aligned staleness of `runs` consecutive seeds (`cfg.seed`,
/// `cfg.seed + 1`, ...); a single run ([`measure_staleness`]) is a sweep
/// of one.
///
/// A single run holds at most one failover window, so its stale-read
/// count is a coin flip, not a probability. The named schedules fire at
/// fixed op thresholds — phases are structural, identical across seeds —
/// so the sweep pools every run's samples phase-wise, making per-phase
/// `p_stale` statistically meaningful while staying a pure function of
/// `(cfg, runs)`.
#[derive(Debug)]
pub struct StalenessSweep {
    /// First seed of the sweep.
    pub seed: u64,
    /// Number of consecutive seeds pooled.
    pub runs: u64,
    /// Fault profile name.
    pub profile: String,
    /// Topology schedule name.
    pub schedule: String,
    /// Workload operations **per run**.
    pub ops: usize,
    /// Phase-wise pooled staleness (percentiles over all runs' samples),
    /// in schedule order.
    pub phases: Vec<PhaseStaleness>,
}

impl StalenessSweep {
    fn new(cfg: &ChaosConfig, runs: u64, phases: Vec<PhaseAcc>) -> StalenessSweep {
        StalenessSweep {
            seed: cfg.seed,
            runs,
            profile: cfg.profile.name().to_string(),
            schedule: Schedule::by_name(&cfg.schedule, cfg.seed, cfg.ops).name,
            ops: cfg.ops,
            phases: phases.into_iter().map(PhaseAcc::finish).collect(),
        }
    }

    /// Total judged reads across runs and phases.
    pub fn reads(&self) -> u64 {
        self.phases.iter().map(|p| p.reads).sum()
    }

    /// Total stale reads across runs and phases.
    pub fn stale_reads(&self) -> u64 {
        self.phases.iter().map(|p| p.stale_reads).sum()
    }

    /// Sweep-wide probability of a stale read.
    pub fn p_stale(&self) -> f64 {
        let reads = self.reads();
        if reads == 0 {
            0.0
        } else {
            self.stale_reads() as f64 / reads as f64
        }
    }

    /// The sweep as a `BENCH_staleness_<profile>.json` document. Built by
    /// hand with fully determined field order and formatting: the same
    /// `(cfg, runs)` must produce a byte-identical file.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"bench\": \"staleness\",\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"runs\": {},\n", self.runs));
        s.push_str(&format!("  \"profile\": \"{}\",\n", self.profile));
        s.push_str(&format!("  \"schedule\": \"{}\",\n", self.schedule));
        s.push_str(&format!("  \"ops\": {},\n", self.ops));
        s.push_str(&format!("  \"reads\": {},\n", self.reads()));
        s.push_str(&format!("  \"stale_reads\": {},\n", self.stale_reads()));
        s.push_str(&format!("  \"p_stale\": {:.4},\n", self.p_stale()));
        s.push_str("  \"phases\": [\n");
        for (i, p) in self.phases.iter().enumerate() {
            let sep = if i + 1 < self.phases.len() { "," } else { "" };
            s.push_str(&format!(
                "    {{\"phase\": \"{}\", \"reads\": {}, \"stale_reads\": {}, \
                 \"p_stale\": {:.4}, \
                 \"age_ticks\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}, \
                 \"age_seqnos\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}}}{sep}\n",
                p.phase,
                p.reads,
                p.stale_reads,
                p.p_stale(),
                p.age_ticks[0],
                p.age_ticks[1],
                p.age_ticks[2],
                p.age_ticks[3],
                p.age_seqnos[0],
                p.age_seqnos[1],
                p.age_seqnos[2],
                p.age_seqnos[3],
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Pool `runs` measure-mode runs under consecutive seeds, phase-wise.
///
/// Requires a schedule whose event thresholds do not depend on the seed
/// (every named schedule except `"seeded"`) so phases line up.
pub fn measure_staleness_sweep(cfg: &ChaosConfig, runs: u64) -> StalenessSweep {
    assert!(runs > 0, "a sweep needs at least one run");
    assert!(cfg.schedule != "seeded", "the seeded schedule varies per seed; phases cannot pool");
    let mut agg: Option<Vec<PhaseAcc>> = None;
    for i in 0..runs {
        let mut c = cfg.clone();
        c.seed = cfg.seed.wrapping_add(i);
        let (accs, _, _) = simulate(&c);
        match &mut agg {
            None => agg = Some(accs),
            Some(agg) => {
                for (a, b) in agg.iter_mut().zip(accs) {
                    a.merge(b);
                }
            }
        }
    }
    StalenessSweep::new(cfg, runs, agg.unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Profile;

    fn cfg(seed: u64) -> ChaosConfig {
        let mut c = ChaosConfig::new(seed);
        c.profile = Profile::Lossy;
        c.schedule = "failover-no-revive".to_string();
        c
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let a = measure_staleness(&cfg(42));
        let b = measure_staleness(&cfg(42));
        assert_eq!(a.summary.to_json(), b.summary.to_json());
    }

    #[test]
    fn different_seeds_differ() {
        let a = measure_staleness(&cfg(1));
        let b = measure_staleness(&cfg(2));
        assert_ne!(
            a.summary.to_json(),
            b.summary.to_json(),
            "distinct seeds produced identical staleness JSON"
        );
    }

    #[test]
    fn fault_profile_changes_the_measurement() {
        // Jittery delays deepen replica lag, so some seed must separate
        // the profiles on more than the label in the JSON.
        let differs = (0..8u64).any(|s| {
            let mut quiet = cfg(s);
            quiet.profile = Profile::Quiet;
            let mut jittery = cfg(s);
            jittery.profile = Profile::Jittery;
            let (a, b) = (measure_staleness(&quiet).summary, measure_staleness(&jittery).summary);
            a.stale_reads() != b.stale_reads()
                || a.phases.iter().zip(&b.phases).any(|(x, y)| x.age_ticks != y.age_ticks)
        });
        assert!(differs, "fault profile had no effect on staleness in seeds 0..8");
    }

    #[test]
    fn failover_without_revive_produces_stale_reads() {
        // Across a handful of seeds, losing an unreplicated tail to
        // failover must surface at least one stale read.
        let any_stale = (0..8u64).any(|s| measure_staleness(&cfg(s)).summary.stale_reads() > 0);
        assert!(any_stale, "no seed in 0..8 produced a stale read under failover-no-revive");
    }

    #[test]
    fn quiet_baseline_reads_are_never_stale() {
        let mut c = ChaosConfig::new(7);
        c.profile = Profile::Quiet;
        c.schedule = "baseline".to_string();
        let out = measure_staleness(&c).summary;
        assert!(out.reads() > 0);
        assert_eq!(out.stale_reads(), 0, "quiet baseline produced stale reads");
        assert_eq!(out.phases.len(), 1);
        assert_eq!(out.phases[0].phase, "baseline");
    }

    #[test]
    fn phases_split_on_schedule_events() {
        let out = measure_staleness(&cfg(5)).summary;
        // failover-no-revive = Kill@30% + FailoverDead@40% → 3 phases.
        let names: Vec<&str> = out.phases.iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(out.phases.len(), 3, "phases: {names:?}");
        assert_eq!(names[0], "baseline");
        assert!(names[1].starts_with("kill@"), "phases: {names:?}");
        assert!(names[2].starts_with("failover@"), "phases: {names:?}");
        let total: u64 = out.phases.iter().map(|p| p.reads).sum();
        assert_eq!(total, out.reads());
    }

    #[test]
    fn metrics_ride_the_registry() {
        let out = measure_staleness(&cfg(9));
        let snap = out.registry.snapshot();
        assert_eq!(snap.counter("chaos.staleness.reads"), out.summary.reads());
        assert_eq!(snap.counter("chaos.staleness.stale_reads"), out.summary.stale_reads());
        // The windowed age histograms rotated on the logical clock right
        // up to the final tick.
        let final_epoch = out.summary.ops as u64 / TICKS_PER_WINDOW;
        assert_eq!(snap.windowed("chaos.staleness.age_ticks").epoch, final_epoch);
        assert_eq!(snap.windowed("chaos.staleness.age_seqnos").epoch, final_epoch);
        assert!(
            snap.windowed("chaos.staleness.age_ticks").merged.count() <= out.summary.stale_reads()
        );
    }

    #[test]
    fn history_is_recorded_for_the_checker() {
        let out = measure_staleness(&cfg(3));
        assert!(!out.history.is_empty());
        assert!(out.history.events.iter().any(|e| e.lossy), "failover events must be marked lossy");
    }

    #[test]
    fn sweep_pools_runs_phasewise() {
        let sweep = measure_staleness_sweep(&cfg(0), 8);
        let reads: u64 = (0..8).map(|s| measure_staleness(&cfg(s)).summary.reads()).sum();
        let stale: u64 = (0..8).map(|s| measure_staleness(&cfg(s)).summary.stale_reads()).sum();
        assert_eq!(sweep.reads(), reads, "sweep must pool every run's reads");
        assert_eq!(sweep.stale_reads(), stale, "sweep must pool every run's stale reads");
        assert!(sweep.stale_reads() > 0, "8 failover runs pooled should show staleness");
        assert_eq!(sweep.phases.len(), 3, "phases are structural across seeds");
        // Replay contract: same (cfg, runs) ⇒ byte-identical JSON.
        assert_eq!(sweep.to_json(), measure_staleness_sweep(&cfg(0), 8).to_json());
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut one = vec![7];
        assert_eq!(percentiles(&mut one), [7, 7, 7, 7]);
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentiles(&mut v), [50, 95, 99, 100]);
        let mut empty: Vec<u64> = Vec::new();
        assert_eq!(percentiles(&mut empty), [0, 0, 0, 0]);
    }
}
