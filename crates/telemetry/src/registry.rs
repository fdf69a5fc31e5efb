//! The metric registry and the zero-cost-when-disabled [`Telemetry`] handle.
//!
//! A [`Registry`] interns counters, gauges, and fixed-bucket histograms by
//! `(name, labels)` key and records hierarchical [`Span`]s. The [`Telemetry`]
//! handle wraps `Option<Arc<Registry>>`: every recording method first checks
//! the option, so the disabled handle performs no clock reads, no allocation,
//! and no synchronization on the hot path — the overhead-guard test in
//! `tests/overhead.rs` pins this to literally zero allocations.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Display;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::snapshot::{
    CounterSample, GaugeSample, HistogramSample, MetricsSnapshot, SpanAggregate,
};

/// Default histogram bucket upper bounds for latencies, in nanoseconds:
/// powers of four from 1 µs to ~4.2 s. Twelve bounds plus the implicit
/// overflow bucket cover everything from a cache hit to a Karp–Luby run.
pub const DEFAULT_LATENCY_BOUNDS_NS: [u64; 12] = [
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_024_000,
    4_096_000,
    16_384_000,
    65_536_000,
    262_144_000,
    1_048_576_000,
    4_194_304_000,
];

/// How many span events the bounded ring keeps before dropping the oldest.
const EVENT_CAPACITY: usize = 4096;

/// Locks a mutex, recovering from poison: telemetry state is a monotonic
/// bag of counters, valid after any partial update, so a panic elsewhere
/// must not wedge the registry.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Owned `(name, labels)` identity of a metric series.
type MetricKey = (String, Vec<(String, String)>);

fn key_of(name: &str, labels: &[(&str, &str)]) -> MetricKey {
    (
        name.to_string(),
        labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    )
}

/// A fixed-bucket histogram over `u64` observations (typically nanoseconds).
///
/// Buckets are cumulative only at export time; internally each slot counts
/// the observations that landed in `(prev_bound, bound]`, with one final
/// overflow slot above the last bound. All updates are relaxed atomics —
/// the histogram is a statistic, not a synchronization point.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    fn sample(&self, name: &str, labels: &[(String, String)]) -> HistogramSample {
        HistogramSample {
            name: name.to_string(),
            labels: labels.to_vec(),
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// Per-name aggregate over finished spans.
#[derive(Debug)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

/// One finished span, as drained from the bounded event ring.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Unique id of the span within its registry.
    pub id: u64,
    /// Id of the enclosing span (same-thread stack, ambient
    /// [`SpanContext`], or explicit parent), if any.
    pub parent: Option<u64>,
    /// Trace id shared by every span descending from the same root span.
    pub trace: u64,
    /// Process-wide index of the thread the span ran on (dense small
    /// integers, suitable as a `tid` in trace viewers).
    pub thread: u64,
    /// Static stage name (e.g. `"encode"`, `"dsdnnf_merge"`).
    pub name: &'static str,
    /// Start time in nanoseconds since the registry was created.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds (monotonic clock).
    pub duration_ns: u64,
    /// Labels attached via [`Span::label`].
    pub labels: Vec<(String, String)>,
}

/// The position of a span in its trace: the trace id plus the span's own
/// id, exactly what a child opened elsewhere needs to parent correctly.
///
/// Capture one with [`Telemetry::current_context`] (or [`Span::context`])
/// at task-spawn time, move it into the worker, and install it there with
/// [`Telemetry::install_context`]; spans the worker opens then join the
/// originating trace instead of becoming orphan roots. `Copy` so it
/// crosses `std::thread::scope` closures without ceremony.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanContext {
    /// Trace id of the root request/operation this context belongs to.
    pub trace: u64,
    /// Id of the span that is the parent for work opened under this
    /// context.
    pub span: u64,
}

/// A registry of metric series and span records. Usually reached through a
/// [`Telemetry`] handle; create one directly to share a registry between
/// several handles or to export outside an engine session.
#[derive(Debug)]
pub struct Registry {
    epoch: Instant,
    next_span_id: AtomicU64,
    next_trace_id: AtomicU64,
    counters: Mutex<BTreeMap<MetricKey, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<MetricKey, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<MetricKey, Arc<Histogram>>>,
    span_aggregates: Mutex<BTreeMap<&'static str, SpanAgg>>,
    events: Mutex<VecDeque<SpanEvent>>,
    dropped_events: AtomicU64,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// Creates an empty registry; its creation instant is the epoch all
    /// span start times are measured from.
    pub fn new() -> Self {
        Registry {
            epoch: Instant::now(),
            next_span_id: AtomicU64::new(1),
            next_trace_id: AtomicU64::new(1),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            span_aggregates: Mutex::new(BTreeMap::new()),
            events: Mutex::new(VecDeque::new()),
            dropped_events: AtomicU64::new(0),
        }
    }

    /// Nanoseconds elapsed since the registry was created.
    fn uptime_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Interns (or finds) the counter `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<AtomicU64> {
        let mut map = lock(&self.counters);
        Arc::clone(
            map.entry(key_of(name, labels))
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )
    }

    /// Adds `delta` to the counter `name{labels}`.
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        self.counter(name, labels)
            .fetch_add(delta, Ordering::Relaxed);
    }

    /// Interns (or finds) the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<AtomicI64> {
        let mut map = lock(&self.gauges);
        Arc::clone(
            map.entry(key_of(name, labels))
                .or_insert_with(|| Arc::new(AtomicI64::new(0))),
        )
    }

    /// Sets the gauge `name{labels}` to `value`.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], value: i64) {
        self.gauge(name, labels).store(value, Ordering::Relaxed);
    }

    /// Interns (or finds) the histogram `name{labels}` with the given bucket
    /// bounds. Bounds are fixed at first interning; later calls with
    /// different bounds reuse the existing series.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[u64]) -> Arc<Histogram> {
        let mut map = lock(&self.histograms);
        Arc::clone(
            map.entry(key_of(name, labels))
                .or_insert_with(|| Arc::new(Histogram::new(bounds))),
        )
    }

    /// Records a nanosecond observation into `name{labels}` using the
    /// default latency bounds.
    pub fn observe_ns(&self, name: &str, labels: &[(&str, &str)], ns: u64) {
        self.histogram(name, labels, &DEFAULT_LATENCY_BOUNDS_NS)
            .observe(ns);
    }

    /// Number of span events dropped because the bounded ring was full.
    fn dropped_events(&self) -> u64 {
        self.dropped_events.load(Ordering::Relaxed)
    }

    fn record_span(&self, event: SpanEvent) {
        {
            let mut aggs = lock(&self.span_aggregates);
            let agg = aggs.entry(event.name).or_insert(SpanAgg {
                count: 0,
                total_ns: 0,
                min_ns: u64::MAX,
                max_ns: 0,
            });
            agg.count += 1;
            agg.total_ns += event.duration_ns;
            agg.min_ns = agg.min_ns.min(event.duration_ns);
            agg.max_ns = agg.max_ns.max(event.duration_ns);
        }
        let mut events = lock(&self.events);
        if events.len() >= EVENT_CAPACITY {
            events.pop_front();
            self.dropped_events.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(event);
    }

    /// Removes and returns every buffered span event, oldest first.
    pub fn drain_events(&self) -> Vec<SpanEvent> {
        lock(&self.events).drain(..).collect()
    }

    /// Copies (without draining) every buffered span event belonging to
    /// the given trace, oldest first. Spans evicted from the bounded ring
    /// or already drained are gone — callers wanting a complete subtree
    /// must read promptly after the root span closes (the flight recorder
    /// in `treelineage-engine` does exactly that).
    pub fn events_for_trace(&self, trace: u64) -> Vec<SpanEvent> {
        lock(&self.events)
            .iter()
            .filter(|e| e.trace == trace)
            .cloned()
            .collect()
    }

    /// A point-in-time copy of every series and span aggregate, ordered by
    /// `(name, labels)` so repeated snapshots of an idle registry are equal.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for ((name, labels), value) in lock(&self.counters).iter() {
            snap.counters.push(CounterSample {
                name: name.clone(),
                labels: labels.clone(),
                value: value.load(Ordering::Relaxed),
            });
        }
        // Ring overflow is an observability loss; surface it as a counter
        // so both exporters (and anything scraping them) can alarm on it.
        snap.counters.push(CounterSample {
            name: "telemetry_dropped_span_events_total".to_string(),
            labels: Vec::new(),
            value: self.dropped_events(),
        });
        snap.counters
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        for ((name, labels), value) in lock(&self.gauges).iter() {
            snap.gauges.push(GaugeSample {
                name: name.clone(),
                labels: labels.clone(),
                value: value.load(Ordering::Relaxed),
            });
        }
        for ((name, labels), histogram) in lock(&self.histograms).iter() {
            snap.histograms.push(histogram.sample(name, labels));
        }
        for (name, agg) in lock(&self.span_aggregates).iter() {
            snap.spans.push(SpanAggregate {
                name: name.to_string(),
                count: agg.count,
                total_ns: agg.total_ns,
                min_ns: agg.min_ns,
                max_ns: agg.max_ns,
            });
        }
        snap
    }
}

thread_local! {
    /// Per-thread stack of open `(span id, trace id)` pairs; the top is
    /// the parent of the next span opened on this thread.
    static SPAN_STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };

    /// Ambient [`SpanContext`] installed on this thread (typically by a
    /// pool worker via [`Telemetry::install_context`]). Consulted when the
    /// span stack is empty, so cross-thread work parents to the span that
    /// spawned it instead of starting an orphan trace.
    static AMBIENT_CONTEXT: Cell<Option<SpanContext>> = const { Cell::new(None) };

    /// Lazily assigned process-wide index of this thread (see
    /// [`SpanEvent::thread`]).
    static THREAD_INDEX: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Source of the dense per-thread indices stamped on [`SpanEvent`]s.
static NEXT_THREAD_INDEX: AtomicU64 = AtomicU64::new(0);

fn thread_index() -> u64 {
    THREAD_INDEX.with(|slot| match slot.get() {
        Some(index) => index,
        None => {
            let index = NEXT_THREAD_INDEX.fetch_add(1, Ordering::Relaxed);
            slot.set(Some(index));
            index
        }
    })
}

/// RAII guard returned by [`Telemetry::install_context`]; restores the
/// thread's previous ambient [`SpanContext`] when dropped. Must be dropped
/// on the thread it was created on (the ambient slot is thread-local) —
/// in practice the guard lives for the body of a pool worker's closure.
#[derive(Debug)]
#[must_use = "dropping the guard immediately uninstalls the context"]
pub struct ContextGuard {
    previous: Option<SpanContext>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        AMBIENT_CONTEXT.with(|slot| slot.set(self.previous));
    }
}

/// A handle to an optional [`Registry`].
///
/// Cloning is cheap (an `Arc` clone or a `None` copy). The disabled handle —
/// [`Telemetry::disabled`], also the `Default` — turns every recording call
/// into a branch on `None`: no clock read, no allocation, no locking.
/// Equality is identity: two handles are equal iff they are both disabled or
/// share the same registry allocation (which lets containing configs keep a
/// derived `PartialEq`).
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Arc<Registry>>,
}

impl PartialEq for Telemetry {
    fn eq(&self, other: &Self) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Telemetry {
    /// The no-op handle: records nothing, costs nothing.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A handle over a fresh private registry.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(Registry::new())),
        }
    }

    /// A handle sharing an existing registry.
    #[cfg(test)]
    fn from_registry(registry: Arc<Registry>) -> Self {
        Telemetry {
            inner: Some(registry),
        }
    }

    /// Whether recording calls will actually record.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The underlying registry, when enabled.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.inner.as_ref()
    }

    /// Adds `delta` to a counter (no-op when disabled).
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        if let Some(registry) = &self.inner {
            registry.counter_add(name, labels, delta);
        }
    }

    /// Sets a gauge (no-op when disabled).
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], value: i64) {
        if let Some(registry) = &self.inner {
            registry.gauge_set(name, labels, value);
        }
    }

    /// Records a nanosecond latency observation (no-op when disabled).
    pub fn observe_ns(&self, name: &str, labels: &[(&str, &str)], ns: u64) {
        if let Some(registry) = &self.inner {
            registry.observe_ns(name, labels, ns);
        }
    }

    /// Opens a span named `name`, parented to the innermost span already
    /// open on this thread — or, when none is open, to the ambient
    /// [`SpanContext`] installed via [`Telemetry::install_context`] (so
    /// pool-worker spans join the trace that spawned them). With neither,
    /// the span starts a fresh trace as a root. The span records itself
    /// when dropped. On a disabled handle this returns an inert guard
    /// without reading the clock.
    pub fn span(&self, name: &'static str) -> Span {
        let Some(registry) = &self.inner else {
            return Span(None);
        };
        let context = SPAN_STACK
            .with(|s| s.borrow().last().copied())
            .map(|(span, trace)| SpanContext { trace, span })
            .or_else(|| AMBIENT_CONTEXT.with(|slot| slot.get()));
        match context {
            Some(ctx) => self.open_span(registry, name, Some(ctx.span), ctx.trace),
            None => {
                let trace = registry.next_trace_id.fetch_add(1, Ordering::Relaxed);
                self.open_span(registry, name, None, trace)
            }
        }
    }

    /// Opens a root span in a fresh trace, ignoring both the thread's span
    /// stack and any installed ambient context. This is how a serving loop
    /// starts the one-trace-per-request spans that the flight recorder and
    /// `explain` reports key on.
    pub fn span_root(&self, name: &'static str) -> Span {
        let Some(registry) = &self.inner else {
            return Span(None);
        };
        let trace = registry.next_trace_id.fetch_add(1, Ordering::Relaxed);
        self.open_span(registry, name, None, trace)
    }

    /// Opens a span with an explicit parent id (e.g. to link work handed to
    /// a pool worker back to the span that enqueued it). `None` makes it a
    /// root span regardless of what is open on this thread. The trace id is
    /// adopted from the thread's current context when one exists and is
    /// fresh otherwise; prefer capturing a full [`SpanContext`] and
    /// [`Telemetry::install_context`] when crossing threads, which keeps
    /// parent *and* trace.
    pub fn span_with_parent(&self, name: &'static str, parent: Option<u64>) -> Span {
        let Some(registry) = &self.inner else {
            return Span(None);
        };
        let trace = SPAN_STACK
            .with(|s| s.borrow().last().copied())
            .map(|(_, trace)| trace)
            .or_else(|| AMBIENT_CONTEXT.with(|slot| slot.get()).map(|c| c.trace))
            .unwrap_or_else(|| registry.next_trace_id.fetch_add(1, Ordering::Relaxed));
        self.open_span(registry, name, parent, trace)
    }

    fn open_span(
        &self,
        registry: &Arc<Registry>,
        name: &'static str,
        parent: Option<u64>,
        trace: u64,
    ) -> Span {
        let id = registry.next_span_id.fetch_add(1, Ordering::Relaxed);
        SPAN_STACK.with(|s| s.borrow_mut().push((id, trace)));
        Span(Some(Box::new(ActiveSpan {
            registry: Arc::clone(registry),
            name,
            id,
            parent,
            trace,
            thread: thread_index(),
            start_ns: registry.uptime_ns(),
            start: Instant::now(),
            labels: Vec::new(),
        })))
    }

    /// The [`SpanContext`] a child span opened *right now on this thread*
    /// would adopt: the innermost open span if any, else the installed
    /// ambient context. `None` on a disabled handle (nothing records, so
    /// there is nothing to propagate) or when no span is open. Capture this
    /// immediately before handing work to another thread.
    pub fn current_context(&self) -> Option<SpanContext> {
        self.inner.as_ref()?;
        SPAN_STACK
            .with(|s| s.borrow().last().copied())
            .map(|(span, trace)| SpanContext { trace, span })
            .or_else(|| AMBIENT_CONTEXT.with(|slot| slot.get()))
    }

    /// Installs `context` as this thread's ambient [`SpanContext`] until
    /// the returned guard drops (which restores whatever was installed
    /// before). Installing `None` is a no-op shim so spawn sites can write
    /// `install_context(telemetry.current_context())` unconditionally.
    pub fn install_context(&self, context: Option<SpanContext>) -> ContextGuard {
        let previous = AMBIENT_CONTEXT.with(|slot| {
            let previous = slot.get();
            if context.is_some() {
                slot.set(context);
            }
            previous
        });
        ContextGuard { previous }
    }

    /// Copies (without draining) buffered span events belonging to `trace`;
    /// empty when disabled. See [`Registry::events_for_trace`].
    pub fn events_for_trace(&self, trace: u64) -> Vec<SpanEvent> {
        match &self.inner {
            None => Vec::new(),
            Some(registry) => registry.events_for_trace(trace),
        }
    }

    /// A point-in-time snapshot; empty when disabled.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            None => MetricsSnapshot::default(),
            Some(registry) => registry.snapshot(),
        }
    }

    /// Drains buffered span events; empty when disabled.
    pub fn drain_events(&self) -> Vec<SpanEvent> {
        match &self.inner {
            None => Vec::new(),
            Some(registry) => registry.drain_events(),
        }
    }
}

struct ActiveSpan {
    registry: Arc<Registry>,
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    trace: u64,
    thread: u64,
    start_ns: u64,
    start: Instant,
    labels: Vec<(String, String)>,
}

impl std::fmt::Debug for ActiveSpan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveSpan")
            .field("name", &self.name)
            .field("id", &self.id)
            .field("parent", &self.parent)
            .finish_non_exhaustive()
    }
}

/// An RAII guard for one timed pipeline stage; records a [`SpanEvent`] into
/// its registry on drop. Obtained from [`Telemetry::span`]; inert (a bare
/// `None`) when the handle is disabled.
#[derive(Debug)]
#[must_use = "a span measures the scope it lives in; dropping it immediately records nothing useful"]
pub struct Span(Option<Box<ActiveSpan>>);

impl Span {
    /// The span's registry-unique id, for explicit parent links across
    /// threads. `None` on an inert span.
    pub fn id(&self) -> Option<u64> {
        self.0.as_ref().map(|s| s.id)
    }

    /// The span's [`SpanContext`] (its trace id plus its own id) — what a
    /// child opened on another thread should install to parent here.
    /// `None` on an inert span.
    pub fn context(&self) -> Option<SpanContext> {
        self.0.as_ref().map(|s| SpanContext {
            trace: s.trace,
            span: s.id,
        })
    }

    /// Attaches a label. The value is only formatted when the span is live,
    /// so callers may pass `Display` values without allocating on the
    /// disabled path.
    pub fn label(&mut self, key: &'static str, value: impl Display) {
        if let Some(active) = &mut self.0 {
            active.labels.push((key.to_string(), value.to_string()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(active) = self.0.take() {
            let duration_ns = active.start.elapsed().as_nanos() as u64;
            SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                // Usually the top of the stack; a linear scan keeps the
                // invariant even if guards are dropped out of order.
                if let Some(pos) = stack.iter().rposition(|&(id, _)| id == active.id) {
                    stack.remove(pos);
                }
            });
            active.registry.record_span(SpanEvent {
                id: active.id,
                parent: active.parent,
                trace: active.trace,
                thread: active.thread,
                name: active.name,
                start_ns: active.start_ns,
                duration_ns,
                labels: active.labels,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.counter_add("c", &[], 1);
        t.gauge_set("g", &[], 5);
        t.observe_ns("h", &[], 100);
        let mut span = t.span("stage");
        span.label("k", 1);
        assert_eq!(span.id(), None);
        drop(span);
        assert_eq!(t.snapshot(), MetricsSnapshot::default());
        assert!(t.drain_events().is_empty());
    }

    #[test]
    fn counters_gauges_histograms_record() {
        let t = Telemetry::enabled();
        t.counter_add("requests_total", &[("kind", "probability")], 2);
        t.counter_add("requests_total", &[("kind", "probability")], 3);
        t.gauge_set("occupancy", &[], -7);
        t.observe_ns("latency_ns", &[], 2_000);
        t.observe_ns("latency_ns", &[], 5_000_000_000);
        let snap = t.snapshot();
        assert_eq!(
            snap.counter("requests_total", &[("kind", "probability")]),
            Some(5)
        );
        assert_eq!(snap.gauge("occupancy", &[]), Some(-7));
        let h = &snap.histograms[0];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 5_000_002_000);
        // 2 µs lands in the (1 µs, 4 µs] bucket; 5 s lands in overflow.
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[h.buckets.len() - 1], 1);
        assert_eq!(h.buckets.len(), h.bounds.len() + 1);
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let t = Telemetry::enabled();
        {
            let outer = t.span("outer");
            let outer_id = outer.id();
            {
                let mut inner = t.span("inner");
                inner.label("shard", 3);
                assert_ne!(inner.id(), outer_id);
            }
            let sibling = t.span("inner");
            drop(sibling);
        }
        let events = t.drain_events();
        assert_eq!(events.len(), 3);
        let outer = events.iter().find(|e| e.name == "outer").unwrap();
        for inner in events.iter().filter(|e| e.name == "inner") {
            assert_eq!(inner.parent, Some(outer.id));
        }
        assert_eq!(
            events.iter().find(|e| !e.labels.is_empty()).unwrap().labels,
            vec![("shard".to_string(), "3".to_string())]
        );
        let snap = t.snapshot();
        let agg = snap.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(agg.count, 2);
        assert!(agg.min_ns <= agg.max_ns);
        assert!(agg.total_ns >= agg.max_ns);
        // Drained events do not clear aggregates.
        assert!(t.drain_events().is_empty());
        assert_eq!(t.snapshot().spans.len(), 2);
    }

    #[test]
    fn explicit_parent_crosses_threads() {
        let t = Telemetry::enabled();
        let root = t.span("root");
        let root_id = root.id();
        let t2 = t.clone();
        std::thread::spawn(move || {
            let child = t2.span_with_parent("worker", root_id);
            assert_eq!(child.0.as_ref().unwrap().parent, root_id);
        })
        .join()
        .unwrap();
        drop(root);
        let events = t.drain_events();
        assert_eq!(
            events.iter().find(|e| e.name == "worker").unwrap().parent,
            root_id
        );
    }

    #[test]
    fn shared_registry_and_identity_equality() {
        let registry = Arc::new(Registry::new());
        let a = Telemetry::from_registry(Arc::clone(&registry));
        let b = Telemetry::from_registry(Arc::clone(&registry));
        a.counter_add("c", &[], 1);
        b.counter_add("c", &[], 1);
        assert_eq!(registry.snapshot().counter("c", &[]), Some(2));
        assert_eq!(a, b);
        assert_eq!(a, a.clone());
        assert_eq!(Telemetry::disabled(), Telemetry::default());
        assert_ne!(a, Telemetry::enabled());
        assert_ne!(a, Telemetry::disabled());
    }

    #[test]
    fn ambient_context_parents_across_threads() {
        let t = Telemetry::enabled();
        let root = t.span("root");
        let ctx = t.current_context();
        assert_eq!(ctx, root.context());
        let t2 = t.clone();
        std::thread::spawn(move || {
            assert_eq!(t2.current_context(), None);
            let _guard = t2.install_context(ctx);
            assert_eq!(t2.current_context(), ctx);
            let child = t2.span("worker");
            let child_ctx = child.context().unwrap();
            assert_eq!(Some(child_ctx.trace), ctx.map(|c| c.trace));
            drop(child);
        })
        .join()
        .unwrap();
        let root_ctx = root.context().unwrap();
        drop(root);
        let events = t.drain_events();
        let worker = events.iter().find(|e| e.name == "worker").unwrap();
        assert_eq!(worker.parent, Some(root_ctx.span));
        assert_eq!(worker.trace, root_ctx.trace);
        let root_event = events.iter().find(|e| e.name == "root").unwrap();
        assert_eq!(root_event.parent, None);
        assert_ne!(worker.thread, root_event.thread);
    }

    #[test]
    fn install_context_nests_and_restores() {
        let t = Telemetry::enabled();
        let a = t.span("a");
        let b = t.span("b");
        let ctx_a = a.context();
        let ctx_b = b.context();
        drop(b);
        drop(a);
        assert_eq!(t.current_context(), None);
        {
            let _outer = t.install_context(ctx_a);
            assert_eq!(t.current_context(), ctx_a);
            {
                let _inner = t.install_context(ctx_b);
                assert_eq!(t.current_context(), ctx_b);
                // Installing `None` keeps the current context.
                let _noop = t.install_context(None);
                assert_eq!(t.current_context(), ctx_b);
            }
            assert_eq!(t.current_context(), ctx_a);
        }
        assert_eq!(t.current_context(), None);
        // An open span shadows the ambient context.
        let _guard = t.install_context(ctx_a);
        let c = t.span("c");
        assert_eq!(t.current_context(), c.context());
        drop(c);
        t.drain_events();
    }

    #[test]
    fn span_root_starts_fresh_traces() {
        let t = Telemetry::enabled();
        let outer = t.span("outer");
        let outer_trace = outer.context().unwrap().trace;
        let root = t.span_root("request");
        let root_trace = root.context().unwrap().trace;
        assert_ne!(root_trace, outer_trace);
        let child = t.span("stage");
        // The stack makes the detached root the parent of the next span.
        assert_eq!(child.context().unwrap().trace, root_trace);
        drop(child);
        drop(root);
        drop(outer);
        let by_trace = t.events_for_trace(root_trace);
        assert_eq!(by_trace.len(), 2);
        assert!(by_trace.iter().any(|e| e.name == "request"));
        assert!(by_trace.iter().any(|e| e.name == "stage"));
        assert_eq!(t.events_for_trace(outer_trace).len(), 1);
        // events_for_trace does not drain.
        assert_eq!(t.drain_events().len(), 3);
        assert!(t.events_for_trace(root_trace).is_empty());
    }

    #[test]
    fn dropped_events_surface_in_snapshot() {
        let t = Telemetry::enabled();
        drop(t.span("s"));
        assert_eq!(
            t.snapshot()
                .counter("telemetry_dropped_span_events_total", &[]),
            Some(0)
        );
        for _ in 0..EVENT_CAPACITY {
            drop(t.span("s"));
        }
        assert_eq!(
            t.snapshot()
                .counter("telemetry_dropped_span_events_total", &[]),
            Some(1)
        );
    }

    #[test]
    fn disabled_handle_has_no_context() {
        let t = Telemetry::disabled();
        assert_eq!(t.current_context(), None);
        let _guard = t.install_context(None);
        assert_eq!(t.current_context(), None);
        assert!(t.span_root("request").context().is_none());
        assert!(t.events_for_trace(1).is_empty());
    }

    #[test]
    fn event_ring_is_bounded() {
        let t = Telemetry::enabled();
        for _ in 0..(EVENT_CAPACITY + 10) {
            drop(t.span("s"));
        }
        let registry = t.registry().unwrap();
        assert_eq!(registry.dropped_events(), 10);
        assert_eq!(t.drain_events().len(), EVENT_CAPACITY);
        let agg = &t.snapshot().spans[0];
        assert_eq!(agg.count, (EVENT_CAPACITY + 10) as u64);
    }
}
