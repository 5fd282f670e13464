//! Telemetry for the nonfifo reproduction: metrics + structured tracing.
//!
//! The paper's theorems are statements about measured quantities — headers
//! used, packets in transit, packets-sent-per-message. This crate gives
//! every simulation and exploration run a first-class way to record those
//! quantities and export them as stable artifacts:
//!
//! * [`Registry`] — named counters, gauges (with high-water marks), and
//!   power-of-two histograms. Registration takes a lock once per metric;
//!   recording through a handle is relaxed atomics. Hot loops do not
//!   record per event, though: they tally plain integers and publish
//!   once. The parallel explorer's workers each keep a `Tally` flushed
//!   per level, and a simulation tallies every packet event in plain
//!   integers and publishes once per driving call through
//!   [`Registry::absorb`] (or hands the tally over whole as a
//!   [`MetricsSnapshot`], which is how campaign runs record).
//! * [`MetricsSnapshot`] — a frozen registry with a pinned, versioned JSON
//!   schema ([`SCHEMA_VERSION`]) and a human summary table. What
//!   `--metrics-out` writes and the CI bench-smoke guard reads.
//! * [`TraceSink`] — spans (rounds, deliveries, explorer levels) and
//!   instants, exported as a Chrome `trace_events` document for
//!   `chrome://tracing` / Perfetto. What `--trace-out` writes.
//! * [`Json`] — the zero-dependency JSON value/parser both artifacts are
//!   built on (the workspace has no serde by policy), and the [`json`]
//!   module's scalar writers that streaming encoders share with it.
//!
//! Telemetry is always optional at the call site and never feeds back into
//! simulation state: fingerprints, explorer reports, and experiment tables
//! are byte-identical with telemetry on or off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
mod metrics;
mod snapshot;
mod trace;

pub use json::{Json, JsonError};
pub use metrics::{
    bucket_of, bucket_upper, Counter, Gauge, Histogram, Registry, HISTOGRAM_BUCKETS,
};
pub use snapshot::{
    GaugeSnapshot, HistogramSnapshot, MetricsSnapshot, SnapshotError, SCHEMA_VERSION,
};
pub use trace::{SpanGuard, TraceEvent, TraceSink};
