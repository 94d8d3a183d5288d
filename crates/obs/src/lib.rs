//! `cbs-obs` — the unified observability layer (DESIGN.md §10).
//!
//! Couchbase ships `cbstats`, per-vBucket stats and per-command latency
//! introspection as first-class operator features; this crate is the repro's
//! equivalent substrate, shared by every service so there is exactly one way
//! to count things:
//!
//! - [`Counter`] / [`Gauge`] / [`Histogram`] — lock-free atomic primitives
//!   with zero-allocation hot-path recording ([`metrics`]).
//! - [`Registry`] — named get-or-create handles, mergeable
//!   [`RegistrySnapshot`]s, and the `service.component.metric` naming
//!   convention ([`registry`]).
//! - [`WindowedHistogram`] — ring of mergeable sub-window histograms
//!   rotated by a logical/injected clock, answering "what is the
//!   distribution *right now*" ([`window`]).
//! - [`TraceSink`] / [`span`] / [`SpanGuard`] — the one span recorder:
//!   entry points mint (head-sampled) traces, every span lands in a
//!   lock-free thread-local segment, and a [`TraceContext`] carried across
//!   thread and service boundaries stitches the segments back into one
//!   span tree per operation ([`trace`]).
//! - [`TraceStore`] — the bounded store behind it: completed traces, the
//!   one slow threshold that decides what is kept, `system:completed_traces`
//!   and the Chrome export ([`store`]).
//! - [`Registry::record_event`] — the black-box flight recorder: bounded
//!   per-service rings of structured, timestamp-free lifecycle events
//!   ([`registry`]).
//! - [`Ring`] — the one bounded log every retained history above (and the
//!   query and transaction logs) is kept in ([`ring`]).
//! - [`PrometheusText`] — text exposition over any set of snapshots
//!   ([`fmt`]).

#![deny(unsafe_code)]

pub mod fmt;
pub mod metrics;
pub mod registry;
pub mod ring;
pub mod store;
pub mod trace;
pub mod window;

pub use fmt::PrometheusText;
pub use metrics::{
    bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, HistogramTimer, NUM_BUCKETS,
};
pub use registry::{is_valid_metric_name, EventRec, Registry, RegistrySnapshot};
pub use ring::Ring;
pub use store::{chrome_trace_json, CompletedTrace, TraceStore};
pub use trace::{span, Lane, SpanGuard, SpanRec, TraceContext, TraceSink, MAX_SPANS_PER_TRACE};
pub use window::{WindowedHistogram, WindowedSnapshot, WINDOW_SLOTS};
