//! The metrics registry: named handles, snapshots, and the flight recorder.
//!
//! One [`Registry`] per service instance (a KV engine on a node, the
//! cluster's query service, an XDCR link). Components resolve their
//! `Arc<Counter>` / `Arc<Gauge>` / `Arc<Histogram>` handles **once at
//! construction** and store them; the registry's lock is never touched on
//! the hot path. `snapshot()` freezes every metric into plain values that
//! merge across nodes for cluster-wide aggregation.
//!
//! Metric names follow the `service.component.metric` convention — exactly
//! three dot-separated segments of `[a-z][a-z0-9_]*` (see DESIGN.md §10).
//! Registration asserts the convention; the `obs-naming` rule in
//! `cargo xtask analyze` catches violations statically.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use crate::ring::Ring;
use crate::window::{WindowedHistogram, WindowedSnapshot};

/// Flight-recorder events retained per registry (oldest evicted first); the
/// ring grows only as events arrive. Every promotion, rebalance mover pass,
/// replica build and pump resubscription is a cluster event: two
/// back-to-back kill, failover, revive and rebalance cycles of a four-node
/// cluster with one replica and 1 024 vBuckets record ~2 800 (512
/// promotions, 1 024 mover passes, 1 024 replica builds, ~210
/// resubscriptions), so this keeps them whole at the product's vBucket
/// count — some 3 MB once full.
const EVENT_RING_CAP: usize = 4_096;

/// True if `name` follows the `service.component.metric` convention:
/// exactly three dot-separated segments, each `[a-z][a-z0-9_]*`.
pub fn is_valid_metric_name(name: &str) -> bool {
    let mut segments = 0usize;
    for seg in name.split('.') {
        segments += 1;
        let mut chars = seg.chars();
        match chars.next() {
            Some(c) if c.is_ascii_lowercase() => {}
            _ => return false,
        }
        if !chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_') {
            return false;
        }
    }
    segments == 3
}

fn assert_valid_name(name: &str) {
    assert!(
        is_valid_metric_name(name),
        "metric name `{name}` violates the `service.component.metric` naming convention \
         (three dot-separated segments of [a-z][a-z0-9_]*)"
    );
}

/// A service instance's metrics and flight-recorder events.
pub struct Registry {
    service: String,
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    windowed: RwLock<BTreeMap<String, Arc<WindowedHistogram>>>,
    help: RwLock<BTreeMap<String, String>>,
    event_seq: AtomicU64,
    events: Mutex<Ring<EventRec>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").field("service", &self.service).finish_non_exhaustive()
    }
}

impl Registry {
    /// A fresh registry for one service instance. `service` is a free-form
    /// label ("kv", "n1ql", "index@n2") used in snapshots and event
    /// records; metric names inside the registry are what the naming
    /// convention governs.
    pub fn new(service: impl Into<String>) -> Registry {
        Registry {
            service: service.into(),
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
            windowed: RwLock::new(BTreeMap::new()),
            help: RwLock::new(BTreeMap::new()),
            event_seq: AtomicU64::new(0),
            events: Mutex::new(Ring::new(EVENT_RING_CAP)),
        }
    }

    /// The service label this registry was created with.
    pub fn service(&self) -> &str {
        &self.service
    }

    /// Get or create the named counter. Resolve once, store the handle.
    ///
    /// # Panics
    /// If `name` violates the naming convention.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        assert_valid_name(name);
        if let Some(c) = self.counters.read().get(name) {
            return Arc::clone(c);
        }
        Arc::clone(self.counters.write().entry(name.to_string()).or_default())
    }

    /// Get or create the named gauge.
    ///
    /// # Panics
    /// If `name` violates the naming convention.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        assert_valid_name(name);
        if let Some(g) = self.gauges.read().get(name) {
            return Arc::clone(g);
        }
        Arc::clone(self.gauges.write().entry(name.to_string()).or_default())
    }

    /// Get or create the named histogram.
    ///
    /// # Panics
    /// If `name` violates the naming convention.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        assert_valid_name(name);
        if let Some(h) = self.histograms.read().get(name) {
            return Arc::clone(h);
        }
        Arc::clone(self.histograms.write().entry(name.to_string()).or_default())
    }

    /// Get or create the named windowed histogram (ring of
    /// [`crate::window::WINDOW_SLOTS`] sub-windows rotated by a logical
    /// clock — see [`WindowedHistogram`]).
    ///
    /// # Panics
    /// If `name` violates the naming convention.
    pub fn windowed_histogram(&self, name: &str) -> Arc<WindowedHistogram> {
        assert_valid_name(name);
        if let Some(w) = self.windowed.read().get(name) {
            return Arc::clone(w);
        }
        Arc::clone(self.windowed.write().entry(name.to_string()).or_default())
    }

    /// Attach a human-readable description to a metric name. Descriptions
    /// surface as `# HELP` lines in the Prometheus exposition; registering
    /// one for the same name twice keeps the latest text.
    pub fn describe(&self, name: &str, help: &str) {
        assert_valid_name(name);
        self.help.write().insert(name.to_string(), help.to_string());
    }

    /// [`Registry::counter`] plus a `# HELP` description in one call.
    pub fn counter_with_help(&self, name: &str, help: &str) -> Arc<Counter> {
        self.describe(name, help);
        self.counter(name)
    }

    /// [`Registry::gauge`] plus a `# HELP` description in one call.
    pub fn gauge_with_help(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.describe(name, help);
        self.gauge(name)
    }

    /// [`Registry::histogram`] plus a `# HELP` description in one call.
    pub fn histogram_with_help(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.describe(name, help);
        self.histogram(name)
    }

    /// [`Registry::windowed_histogram`] plus a `# HELP` description in one
    /// call.
    pub fn windowed_histogram_with_help(&self, name: &str, help: &str) -> Arc<WindowedHistogram> {
        self.describe(name, help);
        self.windowed_histogram(name)
    }

    /// Freeze every metric into a mergeable snapshot.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            service: self.service.clone(),
            counters: self.counters.read().iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            gauges: self.gauges.read().iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: self
                .histograms
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            windows: self
                .windowed
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.windowed_snapshot()))
                .collect(),
            help: self.help.read().clone(),
        }
    }

    // ------------------------------------------------------------------
    // Flight recorder (DESIGN.md §17)
    // ------------------------------------------------------------------

    /// Record a structured lifecycle event (failover, rebalance,
    /// plan-cache invalidation, txn abort, …) into this registry's bounded
    /// flight-recorder ring. Events carry a per-registry sequence number
    /// and **no wall-clock timestamp** — a seeded run records the same
    /// event stream every time, so a chaos failure dump is byte-identical
    /// per seed.
    ///
    /// # Panics
    /// If `name` violates the `service.component.event` naming convention.
    pub fn record_event(&self, name: &'static str, attrs: &[(&'static str, String)]) {
        assert_valid_name(name);
        let rec = EventRec {
            service: self.service.clone(),
            seq: self.event_seq.fetch_add(1, Ordering::Relaxed),
            name,
            attrs: attrs.to_vec(),
        };
        self.events.lock().push(rec);
    }

    /// [`Registry::record_event`] plus a `# HELP` description in one call
    /// (required for the `cluster.events.*` / `obs.trace.*` families —
    /// the `obs-naming` lint enforces it).
    pub fn record_event_with_help(
        &self,
        name: &'static str,
        help: &str,
        attrs: &[(&'static str, String)],
    ) {
        self.describe(name, help);
        self.record_event(name, attrs);
    }

    /// The retained flight-recorder events, oldest first.
    pub fn events(&self) -> Vec<EventRec> {
        self.events.lock().iter().cloned().collect()
    }
}

/// One flight-recorder event: what happened, in which service, in what
/// order. Deliberately timestamp-free — ordering within a service is the
/// sequence number, and deterministic runs must produce deterministic
/// event streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRec {
    /// Service label of the recording registry.
    pub service: String,
    /// Per-registry sequence number (dense from 0, survives ring
    /// eviction — a gap means events were evicted).
    pub seq: u64,
    /// Event name (`service.component.event`).
    pub name: &'static str,
    /// Structured attributes, in recording order.
    pub attrs: Vec<(&'static str, String)>,
}

impl EventRec {
    /// One-line render: `service #seq name key=value …` (the dump format
    /// the chaos flight recorder writes).
    pub fn render(&self) -> String {
        let mut s = format!("{:<10} #{:<4} {}", self.service, self.seq, self.name);
        for (k, v) in &self.attrs {
            s.push_str(&format!(" {k}={v}"));
        }
        s
    }
}

/// Frozen values of every metric in a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// Service label of the registry this came from (first contributor wins
    /// on merge).
    pub service: String,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram distributions by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Windowed-histogram snapshots by name (live windows only).
    pub windows: BTreeMap<String, WindowedSnapshot>,
    /// `# HELP` descriptions by metric name (first contributor wins on
    /// merge).
    pub help: BTreeMap<String, String>,
}

impl RegistrySnapshot {
    /// Fold another snapshot into this one: counters and gauges add
    /// (gauges in this system are sizes, so cluster-wide sums are
    /// meaningful), histograms merge bucket-wise.
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        if self.service.is_empty() {
            self.service.clone_from(&other.service);
        }
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
        for (k, v) in &other.windows {
            self.windows.entry(k.clone()).or_default().merge(v);
        }
        for (k, v) in &other.help {
            self.help.entry(k.clone()).or_insert_with(|| v.clone());
        }
    }

    /// True when no metric was ever registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.windows.is_empty()
    }

    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge level by name (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram by name (empty when absent).
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        self.histograms.get(name).cloned().unwrap_or_default()
    }

    /// Windowed-histogram snapshot by name (empty when absent).
    pub fn windowed(&self, name: &str) -> WindowedSnapshot {
        self.windows.get(name).cloned().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn naming_convention() {
        for ok in ["kv.engine.gets", "storage.wal.fsync_latency", "n1ql.query.p99_2"] {
            assert!(is_valid_metric_name(ok), "{ok} should be valid");
        }
        for bad in [
            "kv.gets",
            "kv.engine.gets.total",
            "Kv.engine.gets",
            "kv.engine.9ets",
            "kv..gets",
            "",
            "kv.engine.ge-ts",
            "kv.engine.",
        ] {
            assert!(!is_valid_metric_name(bad), "{bad} should be invalid");
        }
    }

    #[test]
    #[should_panic(expected = "naming convention")]
    fn bad_name_panics() {
        Registry::new("t").counter("notdotted");
    }

    #[test]
    fn handles_are_shared() {
        let r = Registry::new("kv");
        let a = r.counter("kv.engine.gets");
        let b = r.counter("kv.engine.gets");
        a.inc();
        b.add(2);
        assert_eq!(r.snapshot().counter("kv.engine.gets"), 3);
    }

    #[test]
    fn snapshot_covers_all_kinds() {
        let r = Registry::new("kv");
        r.counter("kv.engine.sets").add(7);
        r.gauge("kv.flusher.queue_depth").set(3);
        r.histogram("kv.engine.get_latency").record(Duration::from_micros(5));
        let s = r.snapshot();
        assert_eq!(s.counter("kv.engine.sets"), 7);
        assert_eq!(s.gauge("kv.flusher.queue_depth"), 3);
        assert_eq!(s.histogram("kv.engine.get_latency").count(), 1);
        assert!(!s.is_empty());
        assert_eq!(s.service, "kv");
    }

    #[test]
    fn help_registered_and_merged_first_wins() {
        let a = Registry::new("kv");
        let b = Registry::new("kv");
        a.counter_with_help("kv.engine.gets", "point reads").inc();
        b.counter_with_help("kv.engine.gets", "other text").inc();
        b.describe("kv.engine.sets", "point writes");
        b.counter("kv.engine.sets").inc();

        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.help.get("kv.engine.gets").map(String::as_str), Some("point reads"));
        assert_eq!(m.help.get("kv.engine.sets").map(String::as_str), Some("point writes"));
    }

    #[test]
    fn flight_recorder_ring_orders_caps_and_renders() {
        let r = Registry::new("cluster");
        r.record_event_with_help(
            "cluster.events.failover",
            "a node was failed over",
            &[("node", "n1".to_string())],
        );
        r.record_event("cluster.events.rebalance", &[]);
        let evs = r.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].seq, 0);
        assert_eq!(evs[1].seq, 1);
        assert_eq!(evs[0].name, "cluster.events.failover");
        assert!(evs[0].render().contains("node=n1"));
        assert_eq!(
            r.snapshot().help.get("cluster.events.failover").map(String::as_str),
            Some("a node was failed over")
        );
        // The ring is bounded: old events evict, seq numbers keep climbing.
        for _ in 0..EVENT_RING_CAP + 600 {
            r.record_event("cluster.events.rebalance", &[]);
        }
        let evs = r.events();
        assert_eq!(evs.len(), EVENT_RING_CAP);
        assert_eq!(evs.last().unwrap().seq, EVENT_RING_CAP as u64 + 601);
    }

    #[test]
    #[should_panic(expected = "naming convention")]
    fn bad_event_name_panics() {
        Registry::new("t").record_event("notdotted", &[]);
    }

    #[test]
    fn snapshots_merge() {
        let a = Registry::new("kv");
        let b = Registry::new("kv");
        a.counter("kv.engine.gets").add(5);
        b.counter("kv.engine.gets").add(6);
        b.counter("kv.engine.sets").inc();
        a.gauge("kv.cache.mem_used").set(100);
        b.gauge("kv.cache.mem_used").set(50);
        a.histogram("kv.engine.get_latency").record(Duration::from_micros(1));
        b.histogram("kv.engine.get_latency").record(Duration::from_millis(1));

        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.counter("kv.engine.gets"), 11);
        assert_eq!(m.counter("kv.engine.sets"), 1);
        assert_eq!(m.gauge("kv.cache.mem_used"), 150);
        assert_eq!(m.histogram("kv.engine.get_latency").count(), 2);
    }
}
