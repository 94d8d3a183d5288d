//! The View Engine (paper §3.1.2, §4.3.3 "View Engine").
//!
//! "Similar to the materialized view concept in the RDBMS world, Couchbase
//! Server provides a MapReduce-style index called a *view*. [...] A view is
//! defined using a Map function that extracts data from the documents in a
//! key space (bucket) and optionally a Reduce function that aggregates the
//! data objects emitted by the map function."
//!
//! Reproduced here:
//!
//! - a **map-function DSL** ([`MapFn`]) standing in for the paper's
//!   JavaScript map functions (see DESIGN.md's substitution table): guard
//!   conditions plus key/value emit expressions cover the paper's own
//!   examples (`if (doc.name) emit(doc.name, doc.email)`) exactly;
//! - built-in **reducers** `_count`, `_sum`, `_stats` ([`Reducer`]);
//! - a **B+-tree with pre-computed reductions in interior nodes**
//!   ([`ViewBTree`]): "a key characteristic of a view index is that it
//!   stores the pre-computed aggregates defined in the Reduce function as a
//!   part of the index tree. This allows for very fast aggregation at query
//!   time" — range reductions combine subtree aggregates in O(log n);
//! - **per-vBucket tagging inside the tree**: "information about vBuckets
//!   is stored in the view B-tree itself. Using this information, parts of
//!   a B-tree can be deactivated" — queries pass an active-vBucket set so
//!   mid-rebalance queries never double-count a moved partition;
//! - **`stale` query semantics** (`false` / `ok` / `update_after`): views
//!   are "kept up-to-date asynchronously, on demand" — an update applies a
//!   backfill snapshot of each changed vBucket from the design document's
//!   cursor; between updates a design document holds nothing else.

#![deny(unsafe_code)]

pub mod btree;
pub mod engine;
pub mod mapfn;
pub mod reduce;

pub use btree::{KeyRange, ViewBTree, ViewEntry};
pub use engine::{
    DesignDoc, DesignDocIndex, Stale, ViewDef, ViewEngine, ViewQuery, ViewResult, ViewRow,
};
pub use mapfn::{MapCond, MapExpr, MapFn};
pub use reduce::{Reducer, Reduction};
