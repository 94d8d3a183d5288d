//! The smart client (§4.1): "Applications can use Couchbase's smart
//! clients, which contain a copy of the cluster map [...] A client applies
//! a hash function (CRC32) to every document that needs to be stored in
//! Couchbase, and the document can then be sent directly from the client
//! to the server where it should reside" (Figure 5).
//!
//! Durability (§2.3.2) is a wait, not a poll: [`SmartClient::observe`] turns
//! its timeout into one `Deadline`, blocks on the active copy's persisted
//! watermark for `persist_to_master`, and for `replicate_to = k` parks on the
//! `Signal` the bucket's engines share until any *k* replica copies have
//! applied the seqno (DESIGN.md decision 10).

use std::sync::Arc;
use std::time::Duration;

use crate::cluster::Cluster;
use crate::map::ClusterMap;
use crate::node::Node;
use cbs_common::sync::{rank, OrderedRwLock};
use cbs_common::{vbucket_for_key, Cas, Deadline, Error, Result, VbId};
use cbs_json::SharedValue;
use cbs_kv::{DataEngine, GetResult, MutateMode, MutationResult};

/// How many times the client refreshes its map and retries after routing
/// errors before giving up.
const MAX_RETRIES: usize = 8;

/// Durability requirement per mutation (§2.3.2 "Durability guarantees":
/// "Couchbase provides client applications with the option to wait for
/// replication and/or for persistence on a per mutation basis").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Durability {
    /// Wait until the mutation is replicated to this many replica copies.
    pub replicate_to: u8,
    /// Wait until the mutation is persisted on the active copy.
    pub persist_to_master: bool,
}

/// A cluster-map-caching client handle.
pub struct SmartClient {
    cluster: Arc<Cluster>,
    bucket: String,
    map: OrderedRwLock<ClusterMap>,
    /// Trace sink on the `client` lane: every KV op mints (or, when an
    /// outer entry point such as a transaction already holds one, joins) a
    /// trace here (DESIGN.md §10).
    trace: cbs_obs::TraceSink,
}

impl SmartClient {
    /// Connect to a bucket (fetches the initial map).
    pub fn connect(cluster: Arc<Cluster>, bucket: &str) -> Result<SmartClient> {
        let map = cluster.map(bucket)?;
        let trace = cbs_obs::TraceSink::new(Arc::clone(cluster.trace_store()), "client");
        Ok(SmartClient {
            cluster,
            bucket: bucket.to_string(),
            map: OrderedRwLock::new(rank::CLIENT_MAP, map),
            trace,
        })
    }

    /// Run `f` under a root span (or a child span inside an outer entry
    /// point), marking the trace failed on error. A miss, an existing key,
    /// a lost CAS race and a held lock are answers, not failures: failed
    /// traces are exempt from ring eviction, and a get-miss stream or a
    /// CAS retry loop must not crowd the genuine failures out.
    fn traced<T>(&self, name: &'static str, f: impl FnOnce() -> Result<T>) -> Result<T> {
        let mut guard = self.trace.mint(name);
        let result = f();
        match &result {
            Ok(_)
            | Err(
                Error::KeyNotFound(_)
                | Error::KeyExists(_)
                | Error::CasMismatch(_)
                | Error::Locked(_),
            ) => {}
            Err(_) => guard.fail(),
        }
        result
    }

    /// The bucket this client talks to.
    pub fn bucket(&self) -> &str {
        &self.bucket
    }

    /// The vBucket a key routes to.
    pub fn vb_for_key(&self, key: &str) -> VbId {
        VbId(vbucket_for_key(key.as_bytes(), self.map.read().num_vbuckets()))
    }

    /// Epoch of the cached map (tests / diagnostics).
    pub fn cached_epoch(&self) -> u64 {
        self.map.read().epoch
    }

    fn refresh_map(&self) -> Result<()> {
        let fresh = self.cluster.map(&self.bucket)?;
        let mut cached = self.map.write();
        if fresh.epoch > cached.epoch {
            *cached = fresh;
        }
        Ok(())
    }

    /// Route an operation to the active node of the key's vBucket,
    /// refreshing the map and retrying on routing errors (the
    /// NOT_MY_VBUCKET dance).
    fn with_engine<T>(&self, key: &str, op: impl Fn(&DataEngine) -> Result<T>) -> Result<T> {
        let mut last_err = None;
        for attempt in 0..MAX_RETRIES {
            let vb = self.vb_for_key(key);
            let node_id = self.map.read().active_node(vb);
            // Slow-node stalls from the fault-injection seam (chaos
            // testing): sleep, then perform the operation normally.
            if let Some(inj) = self.cluster.config().fault_injector.as_ref() {
                if let Some(stall) = inj.client_dispatch(node_id, vb) {
                    std::thread::sleep(stall);
                }
            }
            let result = self
                .cluster
                .node(node_id)
                .and_then(|n| n.engine(&self.bucket))
                .and_then(|e| op(&e));
            match result {
                Ok(v) => return Ok(v),
                Err(
                    e @ (Error::VbucketNotActive(_) | Error::NotMyVbucket(_) | Error::NodeDown(_)),
                ) => {
                    last_err = Some(e);
                    self.refresh_map()?;
                    // Brief backoff: the topology change may still be
                    // propagating (mid-failover).
                    std::thread::sleep(Duration::from_millis(2 << attempt.min(5)));
                }
                Err(other) => return Err(other),
            }
        }
        // Built only once the retries are spent: routing is on every op.
        Err(last_err.unwrap_or_else(|| Error::Cluster("unreachable".to_string())))
    }

    /// KV get (§3.1.1: "only the cluster node hosting the data with that
    /// key will be contacted").
    pub fn get(&self, key: &str) -> Result<GetResult> {
        self.traced("client.kv.get", || self.with_engine(key, |e| e.get(key)))
    }

    /// One KV write, `None` a remove: traced as `name`, routed to the
    /// key's active copy and retried on routing errors. The value is a
    /// [`SharedValue`], encoded once when it was built: retries and the
    /// engine's cache/DCP/flusher hand-offs share those bytes.
    fn write(
        &self,
        name: &'static str,
        key: &str,
        value: Option<SharedValue>,
        mode: MutateMode,
        cas: Cas,
        expiry: u32,
    ) -> Result<MutationResult> {
        self.traced(name, || {
            self.with_engine(key, |e| match &value {
                Some(value) => e.set(key, value.clone(), mode, cas, expiry),
                None => e.delete(key, cas),
            })
        })
    }

    /// KV upsert.
    pub fn upsert(&self, key: &str, value: impl Into<SharedValue>) -> Result<MutationResult> {
        let value = Some(value.into());
        self.write("client.kv.upsert", key, value, MutateMode::Upsert, Cas::WILDCARD, 0)
    }

    /// KV insert (fails on existing key).
    pub fn insert(&self, key: &str, value: impl Into<SharedValue>) -> Result<MutationResult> {
        let value = Some(value.into());
        self.write("client.kv.insert", key, value, MutateMode::Insert, Cas::WILDCARD, 0)
    }

    /// KV replace with optional CAS check.
    pub fn replace(
        &self,
        key: &str,
        value: impl Into<SharedValue>,
        cas: Cas,
    ) -> Result<MutationResult> {
        self.write("client.kv.replace", key, Some(value.into()), MutateMode::Replace, cas, 0)
    }

    /// CAS-checked upsert.
    pub fn upsert_with_cas(
        &self,
        key: &str,
        value: impl Into<SharedValue>,
        cas: Cas,
    ) -> Result<MutationResult> {
        self.write("client.kv.upsert", key, Some(value.into()), MutateMode::Upsert, cas, 0)
    }

    /// KV delete.
    pub fn remove(&self, key: &str, cas: Cas) -> Result<MutationResult> {
        self.write("client.kv.remove", key, None, MutateMode::Replace, cas, 0)
    }

    /// Upsert with expiry (TTL).
    pub fn upsert_with_expiry(
        &self,
        key: &str,
        value: impl Into<SharedValue>,
        expiry: u32,
    ) -> Result<MutationResult> {
        let value = Some(value.into());
        let name = "client.kv.upsert_with_expiry";
        self.write(name, key, value, MutateMode::Upsert, Cas::WILDCARD, expiry)
    }

    /// Get-and-lock (GETL, §3.1.1).
    pub fn get_and_lock(&self, key: &str, duration: Duration) -> Result<GetResult> {
        self.traced("client.kv.get_and_lock", || {
            self.with_engine(key, |e| e.get_and_lock(key, Some(duration)))
        })
    }

    /// Release a GETL lock.
    pub fn unlock(&self, key: &str, token: Cas) -> Result<()> {
        self.traced("client.kv.unlock", || self.with_engine(key, |e| e.unlock(key, token)))
    }

    /// Mutation with durability requirements: ack only once the mutation
    /// is replicated to `replicate_to` replicas and/or persisted on the
    /// active copy (§2.3.2).
    pub fn upsert_durable(
        &self,
        key: &str,
        value: impl Into<SharedValue>,
        durability: Durability,
        timeout: Duration,
    ) -> Result<MutationResult> {
        // The durable root: the inner upsert and observe join it as child
        // spans (their mints find this thread's segment open), so one
        // durable write reads as a single stitched tree — client set →
        // engine → replication deliver → replica apply → WAL commit →
        // durability ack.
        self.traced("client.kv.durable", || {
            let result = self.upsert(key, value)?;
            self.observe(key, result, durability, timeout)?;
            Ok(result)
        })
    }

    /// Block until a mutation satisfies the given durability requirement:
    /// persisted on the active copy and/or applied on `replicate_to` of its
    /// replica copies — any of them, so that one cut-off replica does not
    /// hold up an ack another can give. `timeout` bounds the whole wait.
    pub fn observe(
        &self,
        key: &str,
        mutation: MutationResult,
        durability: Durability,
        timeout: Duration,
    ) -> Result<()> {
        // Child when called under upsert_durable's root; an app calling
        // observe directly gets its own root.
        let _span = self.trace.mint("client.kv.observe");
        let deadline = Deadline::after(timeout);
        let vb = mutation.vb;
        let wanted = durability.replicate_to as usize;
        // Copy out the two entries this needs, not the whole map.
        let (active, replicas) = {
            let map = self.map.read();
            (map.active_node(vb), map.replica_nodes(vb).to_vec())
        };
        if wanted > replicas.len() {
            return Err(Error::DurabilityImpossible(format!(
                "replicate_to={wanted} but only {} replicas configured",
                replicas.len()
            )));
        }
        if durability.persist_to_master {
            let engine = self.cluster.node(active)?.engine(&self.bucket)?;
            engine.wait_persisted_by(vb, mutation.seqno, deadline)?;
        }
        if wanted > 0 {
            // Resolved once, up front: the predicate runs under the signal's
            // leaf lock and may read atomics only (liveness, high seqnos).
            let copies: Vec<(Arc<Node>, Arc<DataEngine>)> = replicas
                .iter()
                .filter_map(|id| {
                    let node = self.cluster.node(*id).ok()?;
                    let engine = node.engine_unchecked(&self.bucket)?;
                    Some((node, engine))
                })
                .collect();
            let acked = || {
                let applied = copies.iter().filter(|(node, engine)| {
                    node.is_alive() && engine.high_seqno(vb) >= mutation.seqno
                });
                applied.count() >= wanted
            };
            // Every engine of the bucket advances its high seqnos on the
            // same signal, so any replica apply re-tests `acked`.
            let replicated = copies
                .first()
                .is_some_and(|(_, any)| any.seqno_signal().wait_until(deadline, acked));
            if !replicated {
                return Err(Error::Timeout(format!("replication of {key} to {wanted} replicas")));
            }
        }
        Ok(())
    }
}
