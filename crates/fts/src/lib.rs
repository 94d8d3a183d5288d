//! Full-Text Search service (the paper's §6.1.3 near-term plan).
//!
//! "Another workload dimension that is required for some operational
//! applications is full-text search. This is typically based on a reverse
//! index, where all the *words* within the data are indexed to be able to
//! do term-based, phrase-based, and/or prefix-based searches. Full-text
//! search is another type of service currently being added that will
//! receive data mutations via in-memory DCP and will be able to be scaled
//! up or out independently as well."
//!
//! This crate implements that service:
//!
//! - [`analyzer`]: lower-casing word tokenizer with position tracking;
//! - [`index`]: the reverse (inverted) index — term → postings with
//!   per-document, per-field positions — supporting **term**, **prefix**
//!   and **phrase** search with TF-IDF ranking;
//! - [`service`]: a DCP consumer (fed by the cluster's replication pump)
//!   maintaining one or more search indexes over a bucket, each with a
//!   per-vBucket `cbs_common::Watermarks` vector so searches can demand the
//!   same `request_plus`-style consistency the GSI service offers.

#![deny(unsafe_code)]

pub mod analyzer;
pub mod index;
pub mod service;

pub use analyzer::tokenize;
pub use index::{InvertedIndex, SearchHit, SearchQuery};
pub use service::{FtsIndexDef, FtsService, FtsSink};
