//! Observability subsystem for ringsim (`ringsim::obs`).
//!
//! Everything the simulators measure beyond end-of-run means lives here:
//!
//! - [`LatencyHistogram`] — log2-bucketed latency distributions per
//!   transaction class, with p50/p95/p99 and an exactly order-independent
//!   [`LatencyHistogram::merge`] so parallel sweep shards combine
//!   deterministically.
//! - [`Timeline`] — windowed gauges (ring slot utilization, probe- vs
//!   data-slot occupancy, home queue depth, bus arbitration wait) sampled
//!   on a fixed simulated-time period with bounded, deterministic
//!   decimation.
//! - [`Obs`] / [`Recorder`] — the per-simulator telemetry handle: a
//!   bounded per-transaction event buffer exportable as Chrome
//!   `trace_event` JSON ([`TraceBuffer::to_chrome_json`]), viewable in
//!   Perfetto.
//! - [`MetricsSummary`] / [`MetricsFile`] — JSON/CSV exporters, plus the
//!   owned [`MetricsSink`] a caller (the `experiments --metrics` CLI, the
//!   HTTP service) hands down to the runs it wants folded.
//!
//! # Overhead contract
//!
//! Telemetry is strictly observational: enabling it must not change any
//! simulation result, and a disabled [`Obs`] handle costs one predictable
//! branch per hook. CI enforces the stronger artifact form of this
//! contract — release experiment artifacts are byte-identical with
//! telemetry off and with telemetry on-but-unexported.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod hist;
pub mod recorder;
pub mod timeline;
pub mod trace;

pub use export::{hist_from_json, MetricsFile, MetricsSink, MetricsSummary};
pub use hist::{LatencyHistogram, BUCKETS};
pub use recorder::{Obs, ObsConfig, Recorder};
/// The workspace's JSON reader and tree, re-exported because
/// [`hist_from_json`] takes the tree: `ringsim stats` reads every
/// observability document through them.
pub use serde::Value as JsonValue;
pub use serde_json::parse_value as parse_json;
pub use timeline::{Timeline, TimelineRow};
pub use trace::{TraceBuffer, TraceEvent, DEFAULT_TRACE_CAPACITY};
