//! The public SDK facade — what a Couchbase client application sees (§3.1).
//!
//! "There are three main access paths by which a client application can
//! talk to Couchbase Server: (1) read/write JSON documents using key-value
//! access via the primary key, (2) read/query JSON documents using the
//! View API, (3) read/query JSON documents using N1QL queries."
//!
//! All three are exposed here, over a simulated in-process cluster:
//!
//! ```
//! use cbs_core::{CouchbaseCluster, QueryOptions};
//! use cbs_json::Value;
//!
//! // A 1-node cluster with every service (the quickstart topology).
//! let cluster = CouchbaseCluster::single_node();
//! let bucket = cluster.create_bucket("default").unwrap();
//!
//! // Access path 1: key-value.
//! bucket.upsert("user::1", cbs_json::parse(r#"{"name":"Dipti"}"#).unwrap()).unwrap();
//! assert_eq!(
//!     bucket.get("user::1").unwrap().value.get_field("name"),
//!     Some(&Value::from("Dipti"))
//! );
//!
//! // Access path 3: N1QL.
//! cluster.query("CREATE PRIMARY INDEX ON default", &QueryOptions::default()).unwrap();
//! let res = cluster
//!     .query("SELECT d.name FROM default d", &QueryOptions::default().request_plus())
//!     .unwrap();
//! assert_eq!(res.rows.len(), 1);
//! ```

#![deny(unsafe_code)]

pub mod bucket;
pub mod cluster_handle;

pub use bucket::Bucket;
pub use cluster_handle::CouchbaseCluster;

// Re-export the vocabulary applications need, so most users depend on this
// crate alone.
pub use cbs_cluster::{ClusterConfig, Durability, ServiceSet};
pub use cbs_common::{Cas, DocMeta, Error, NodeId, Result, SeqNo, VbId};
pub use cbs_fts::{FtsIndexDef, SearchHit, SearchQuery};
pub use cbs_json::{parse as parse_json, Value};
pub use cbs_kv::{GetResult, MutationResult};
pub use cbs_n1ql::{QueryOptions, QueryResult};
pub use cbs_views::{
    DesignDoc, MapCond, MapExpr, MapFn, Reducer, Stale, ViewDef, ViewQuery, ViewResult,
};
pub use cbs_xdcr::{KeyFilter, XdcrLink};
