//! Zero-overhead telemetry for the COMPAQT serving stack.
//!
//! Production control hardware treats per-request latency distributions
//! and structured event logs as first-class — an operator must be able
//! to answer "what is p99 fetch latency", "how far has lazy-CRC
//! validation progressed", "why did this request take 2 ms" without
//! attaching a debugger. This crate supplies that layer under the
//! repo's standing constraints: the hot paths it instruments are
//! **lock-free and zero-allocation**, so every hot-path primitive here
//! is a relaxed atomic operation on preallocated storage.
//!
//! Three pieces:
//!
//! - [`metrics`] — named atomic [`Counter`]s, [`Gauge`]s and
//!   log2-bucketed latency [`Histogram`]s (`[AtomicU64; 64]` fixed
//!   buckets; `record()` is a single relaxed `fetch_add`; p50/p90/p99
//!   and max are estimated from bucket midpoints on snapshots, which
//!   are plain arrays and merge bucket-wise).
//! - [`ring`] — a bounded lock-free [`TraceRing`] of typed
//!   [`TraceEvent`]s (connection open/close, slow request, Busy
//!   rejection, protocol error, lazy-CRC first-touch failure, hot-set
//!   eviction, recalibration publish) with monotonic timestamps,
//!   seqlock-style slot stamping and drop-oldest semantics.
//! - [`snapshot`] — a plain-data [`Snapshot`] of named samples and
//!   trace events, filled by each instrumented component's
//!   `collect_obs` method, plus Prometheus-style text exposition
//!   ([`render_text`], cold path, allocation allowed).
//!
//! A hot-path `record()`/`incr()` never allocates and never takes a
//! lock: the primitives live inline in the component they instrument.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod metrics;
pub mod ring;
pub mod snapshot;

pub use metrics::{bucket_bounds, Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS};
pub use ring::{now_ns, TraceEvent, TraceKind, TraceRing};
pub use snapshot::{render_text, Sample, Snapshot, Value};
