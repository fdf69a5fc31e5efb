//! Std-only telemetry substrate for the treelineage workspace: atomic
//! counters/gauges/histograms, hierarchical monotonic-clock spans, and
//! structured export — with a handle that is strictly zero-cost when
//! disabled.
//!
//! The paper's tractability results (linear-time lineage, Theorem 6.11 of
//! Amarilli–Bourhis–Senellart 2016) are constant-factor claims; this crate
//! is how the system *shows* those constants instead of asserting them.
//! Every pipeline stage (encode → automaton compile → d-SDNNF
//! compile/merge → eval), every pool worker, and every serving-tier
//! decision records into one [`Registry`], and the whole state exports as a
//! stable [`MetricsSnapshot`] in JSON-lines or Prometheus text format —
//! all with in-tree formatting, no dependencies.
//!
//! # Design
//!
//! * [`Telemetry`] is the handle threaded through configs. It wraps
//!   `Option<Arc<Registry>>`; the disabled handle (the default) makes every
//!   recording call a branch on `None` — no clock read, no allocation, no
//!   lock. The compiled artifacts are byte-identical with telemetry on or
//!   off (pinned by a differential test in the umbrella crate), because
//!   instrumentation only ever *observes*.
//! * [`Span`] is an RAII guard: created via [`Telemetry::span`], it times
//!   its scope on the monotonic clock and links to the innermost span open
//!   on the same thread — or, across threads, to the [`SpanContext`]
//!   (trace id + parent span id) captured at task-spawn time and installed
//!   on the worker via [`Telemetry::install_context`]. Finished spans land
//!   in a bounded event ring (drained via [`Telemetry::drain_events`],
//!   queried per trace via [`Telemetry::events_for_trace`]) and in
//!   per-name aggregates; [`to_chrome_trace`] renders drained events as
//!   Chrome-trace/Perfetto `trace_events` JSON.
//! * [`MetricsSnapshot`] is plain data with integer-only values, so the
//!   JSON round trip ([`MetricsSnapshot::to_json_lines`] /
//!   [`MetricsSnapshot::from_json_lines`]) is exact.
//!
//! ```
//! use treelineage_telemetry::Telemetry;
//!
//! let telemetry = Telemetry::enabled();
//! {
//!     let mut span = telemetry.span("encode");
//!     span.label("nodes", 42);
//!     // ... the work being timed ...
//! }
//! telemetry.counter_add("requests_total", &[("tier", "float")], 1);
//! let snapshot = telemetry.snapshot();
//! assert_eq!(snapshot.span("encode").unwrap().count, 1);
//! let json = snapshot.to_json_lines();
//! let parsed = treelineage_telemetry::MetricsSnapshot::from_json_lines(&json).unwrap();
//! assert_eq!(parsed, snapshot);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
mod perfetto;
mod registry;
mod snapshot;

pub use perfetto::to_chrome_trace;
pub use registry::{
    ContextGuard, Histogram, Registry, Span, SpanContext, SpanEvent, Telemetry,
    DEFAULT_LATENCY_BOUNDS_NS,
};
pub use snapshot::{
    CounterSample, GaugeSample, HistogramSample, MetricsSnapshot, SnapshotParseError, SpanAggregate,
};
