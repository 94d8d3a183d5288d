//! Bucket handle: the key-value access path (§3.1.1).

use std::sync::Arc;
use std::time::Duration;

use cbs_cluster::{Cluster, Durability, SmartClient};
use cbs_common::{Cas, Error, Result};
use cbs_json::{SharedValue, Value};
use cbs_kv::{GetResult, MutationResult};

/// A handle to one bucket (key space).
///
/// "Documents are stored within a key space called a Couchbase bucket, and
/// they can be directly accessed using a (user-provided) document ID much
/// as one would use a primary key for lookups in an RDBMS" (§3).
pub struct Bucket {
    client: Arc<SmartClient>,
    cluster: Arc<Cluster>,
}

impl Bucket {
    pub(crate) fn new(client: Arc<SmartClient>, cluster: Arc<Cluster>) -> Bucket {
        Bucket { client, cluster }
    }

    /// Bucket name.
    pub fn name(&self) -> &str {
        self.client.bucket()
    }

    /// The smart client (advanced use: custom routing/durability flows).
    pub fn client(&self) -> &Arc<SmartClient> {
        &self.client
    }

    /// Key-based read: "only the cluster node hosting the data with that
    /// key will be contacted."
    pub fn get(&self, key: &str) -> Result<GetResult> {
        self.client.get(key)
    }

    /// Insert-or-update.
    pub fn upsert(&self, key: &str, value: impl Into<SharedValue>) -> Result<MutationResult> {
        self.client.upsert(key, value)
    }

    /// Insert only (fails with [`Error::KeyExists`] on existing keys).
    pub fn insert(&self, key: &str, value: impl Into<SharedValue>) -> Result<MutationResult> {
        self.client.insert(key, value)
    }

    /// Update only, with optional optimistic-locking CAS check (§3.1.1).
    pub fn replace(
        &self,
        key: &str,
        value: impl Into<SharedValue>,
        cas: Cas,
    ) -> Result<MutationResult> {
        self.client.replace(key, value, cas)
    }

    /// Delete with optional CAS check.
    pub fn remove(&self, key: &str, cas: Cas) -> Result<MutationResult> {
        self.client.remove(key, cas)
    }

    /// Upsert with a TTL (unix-seconds absolute expiry).
    pub fn upsert_with_expiry(
        &self,
        key: &str,
        value: impl Into<SharedValue>,
        expiry: u32,
    ) -> Result<MutationResult> {
        self.client.upsert_with_expiry(key, value, expiry)
    }

    /// Mutation that waits for replication/persistence per §2.3.2.
    pub fn upsert_durable(
        &self,
        key: &str,
        value: impl Into<SharedValue>,
        durability: Durability,
        timeout: Duration,
    ) -> Result<MutationResult> {
        self.client.upsert_durable(key, value, durability, timeout)
    }

    /// Read and hard-lock a document (GETL). The returned CAS is the lock
    /// token.
    pub fn get_and_lock(&self, key: &str, duration: Duration) -> Result<GetResult> {
        self.client.get_and_lock(key, duration)
    }

    /// Release a GETL lock.
    pub fn unlock(&self, key: &str, token: Cas) -> Result<()> {
        self.client.unlock(key, token)
    }

    /// The classic CAS retry loop (§3.1.1's four-step client flow),
    /// packaged: read, transform, CAS-write, retry on conflict.
    pub fn mutate_in_loop(
        &self,
        key: &str,
        mut transform: impl FnMut(&mut Value),
        max_retries: usize,
    ) -> Result<MutationResult> {
        for _ in 0..max_retries {
            let current = self.get(key)?;
            let mut value = current.value;
            // The edit decodes this handle's copy; the cache's bytes are
            // untouched, and the edited tree is re-encoded when it is done.
            transform(&mut value.make_mut());
            match self.client.upsert_with_cas(key, value, current.meta.cas) {
                Ok(m) => return Ok(m),
                Err(Error::CasMismatch(_)) => continue,
                Err(e) => return Err(e),
            }
        }
        Err(Error::CasMismatch(format!("{key}: retries exhausted")))
    }

    /// Atomic counter built on the CAS loop.
    pub fn counter(&self, key: &str, delta: i64) -> Result<i64> {
        // Initialize if absent.
        if self.get(key).is_err() {
            match self.insert(key, Value::object([("count", Value::int(0))])) {
                Ok(_) | Err(Error::KeyExists(_)) => {}
                Err(e) => return Err(e),
            }
        }
        let mut result = 0;
        self.mutate_in_loop(
            key,
            |v| {
                let cur = v.get_field("count").and_then(Value::as_i64).unwrap_or(0);
                result = cur + delta;
                v.insert_field("count", Value::int(result));
            },
            64,
        )?;
        Ok(result)
    }

    /// Total front-end ops served by this bucket across the cluster.
    pub fn total_ops(&self) -> u64 {
        self.cluster.total_ops(self.client.bucket())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CouchbaseCluster;

    fn bucket() -> Bucket {
        let cluster = CouchbaseCluster::single_node();
        cluster.create_bucket("b").unwrap()
    }

    #[test]
    fn kv_roundtrip_and_modes() {
        let b = bucket();
        b.insert("k", Value::int(1)).unwrap();
        assert!(matches!(b.insert("k", Value::int(2)), Err(Error::KeyExists(_))));
        b.replace("k", Value::int(2), Cas::WILDCARD).unwrap();
        assert_eq!(b.get("k").unwrap().value, Value::int(2));
        b.remove("k", Cas::WILDCARD).unwrap();
        assert!(b.get("k").is_err());
    }

    #[test]
    fn cas_loop_is_safe_under_contention() {
        use std::sync::Arc as StdArc;
        let cluster = CouchbaseCluster::single_node();
        let b = StdArc::new(cluster.create_bucket("b").unwrap());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let b = StdArc::clone(&b);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    b.counter("ctr", 1).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.get("ctr").unwrap().value.get_field("count"), Some(&Value::int(400)));
    }

    #[test]
    fn getl_through_bucket() {
        let b = bucket();
        b.upsert("k", Value::int(1)).unwrap();
        let locked = b.get_and_lock("k", Duration::from_secs(2)).unwrap();
        assert!(matches!(b.upsert("k", Value::int(2)), Err(Error::Locked(_))));
        b.unlock("k", locked.meta.cas).unwrap();
        b.upsert("k", Value::int(2)).unwrap();
    }

    #[test]
    fn expiry_through_bucket() {
        let b = bucket();
        let past =
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_secs()
                as u32
                - 1;
        b.upsert_with_expiry("ttl", Value::int(1), past).unwrap();
        assert!(b.get("ttl").is_err(), "already expired");
    }
}
