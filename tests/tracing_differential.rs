//! Request-scoped tracing differential suite (PR 9): spans must form one
//! connected tree per request regardless of how many pool workers the
//! session fans out to.
//!
//! Pinned contracts:
//!
//! * **thread-invariant topology** — the per-trace span tree of a warm
//!   batch has identical shape at `threads ∈ {1, 8}` (names and
//!   parent-name edges; only durations and thread indices may differ);
//! * **connectivity** — at `threads = 8`, every span of a request's trace
//!   reaches the request root through in-trace parent edges, and the only
//!   trace roots the session produces are `request` and `compile_pair`
//!   spans — no orphan pool-worker spans (the regression the ambient
//!   [`SpanContext`] propagation fixes);
//! * **explain/stat consistency** — [`EvalSession::explain`] agrees with
//!   [`SessionStats`] and the batch APIs at both thread counts;
//! * **export** — the drained ring renders as a Chrome-trace document that
//!   names every recorded span.
//!
//! [`SpanContext`]: treelineage_engine::SpanContext

use std::collections::BTreeMap;
use treelineage::prelude::*;
use treelineage::ProbabilityRequest;
use treelineage_engine::{to_chrome_trace, SpanEvent};

fn sig() -> Signature {
    Signature::builder()
        .relation("R", 2)
        .relation("S", 2)
        .build()
}

fn query() -> UnionOfConjunctiveQueries {
    parse_query(&sig(), "R(x, y), S(y, z)").unwrap()
}

fn chain(n: u64) -> Instance {
    let mut inst = Instance::new(sig());
    for i in 0..n {
        inst.add_fact_by_name("R", &[i, i + 1]);
        inst.add_fact_by_name("S", &[i + 1, i + 2]);
    }
    inst
}

fn config(threads: usize, telemetry: Telemetry) -> EngineConfig {
    EngineConfig {
        telemetry,
        fragment_grain: 4,
        ..EngineConfig::with_threads(threads)
    }
}

/// Canonical shape of every trace in `events`: per trace, the sorted list
/// of `(span name, parent span name)` edges — the thread- and
/// duration-free skeleton. Shapes are returned sorted, so two runs compare
/// as multisets of trees.
fn trace_shapes(events: &[SpanEvent]) -> Vec<Vec<(String, Option<String>)>> {
    let mut by_trace: BTreeMap<u64, Vec<&SpanEvent>> = BTreeMap::new();
    for event in events {
        by_trace.entry(event.trace).or_default().push(event);
    }
    let mut shapes: Vec<Vec<(String, Option<String>)>> = by_trace
        .values()
        .map(|spans| {
            let name_of: BTreeMap<u64, &str> = spans.iter().map(|e| (e.id, e.name)).collect();
            let mut shape: Vec<(String, Option<String>)> = spans
                .iter()
                .map(|e| {
                    (
                        e.name.to_string(),
                        e.parent.map(|p| {
                            name_of
                                .get(&p)
                                .map(|s| s.to_string())
                                .unwrap_or_else(|| "<missing-parent>".to_string())
                        }),
                    )
                })
                .collect();
            shape.sort();
            shape
        })
        .collect();
    shapes.sort();
    shapes
}

/// Runs one warm batch (the compile already cached) and returns the span
/// events it produced.
fn warm_batch_events(threads: usize) -> Vec<SpanEvent> {
    let telemetry = Telemetry::enabled();
    let mut session = EvalSession::new(config(threads, telemetry.clone()));
    let qid = session.register_query(query());
    let iid = session.register_instance(chain(6));
    let valuation = ProbabilityValuation::all_one_half(session.instance(iid));
    let requests: Vec<ProbabilityRequest> = (0..4)
        .map(|_| ProbabilityRequest {
            query: qid,
            instance: iid,
            valuation: valuation.clone(),
        })
        .collect();
    for r in session.batch_probability(&requests) {
        r.unwrap();
    }
    // Warm run only: drop the cold-compile spans, keep the batch's.
    telemetry.drain_events();
    for r in session.batch_probability(&requests) {
        r.unwrap();
    }
    telemetry.drain_events()
}

/// The tentpole differential: a warm batch's span forest has the same
/// shape at 1 and 8 threads — cross-thread propagation must not change
/// *what* the trace says, only which threads recorded it.
#[test]
fn warm_span_topology_is_identical_across_thread_counts() {
    let single = trace_shapes(&warm_batch_events(1));
    let pooled = trace_shapes(&warm_batch_events(8));
    assert!(
        single.iter().flatten().count() > 0,
        "warm batches must record spans"
    );
    assert_eq!(
        single, pooled,
        "span topology must not depend on the thread count"
    );
    // Each of the 4 requests is its own trace rooted at a `request` span.
    let request_traces = single
        .iter()
        .filter(|shape| {
            shape
                .iter()
                .any(|(name, parent)| name == "request" && parent.is_none())
        })
        .count();
    assert_eq!(request_traces, 4);
}

/// The connectivity contract at 8 threads, including the cold compile: no
/// span is orphaned. Every event's parent is a recorded event of the same
/// trace, every trace root is a `request` or `compile_pair` span, and
/// the compile's `dsdnnf_compile` span reaches its trace root — this fails
/// on thread-local-only parenting, where worker spans started fresh
/// traces.
#[test]
fn all_spans_connect_to_request_or_compile_roots_at_eight_threads() {
    let telemetry = Telemetry::enabled();
    let mut session = EvalSession::new(config(8, telemetry.clone()));
    let qid = session.register_query(query());
    let iid = session.register_instance(chain(8));
    let valuation = ProbabilityValuation::all_one_half(session.instance(iid));
    let request = ProbabilityRequest {
        query: qid,
        instance: iid,
        valuation,
    };
    // A lone-request batch: the pair compiles under `compile_pair`, on
    // whichever thread the batch's pool hands it to.
    for r in session.batch_probability(std::slice::from_ref(&request)) {
        r.unwrap();
    }
    let events = telemetry.drain_events();
    let by_id: BTreeMap<u64, &SpanEvent> = events.iter().map(|e| (e.id, e)).collect();
    let mut compile_spans = 0usize;
    for event in &events {
        match event.parent {
            None => assert!(
                event.name == "request" || event.name == "compile_pair",
                "unexpected trace root {:?} (orphan span?)",
                event.name
            ),
            Some(parent) => {
                // Walk to the root: every hop stays in the same trace.
                let mut cursor = parent;
                let mut hops = 0;
                loop {
                    let p = by_id
                        .get(&cursor)
                        .unwrap_or_else(|| panic!("{}: parent {cursor} not recorded", event.name));
                    assert_eq!(
                        p.trace, event.trace,
                        "{}: parent chain crosses traces",
                        event.name
                    );
                    match p.parent {
                        Some(next) => cursor = next,
                        None => break,
                    }
                    hops += 1;
                    assert!(hops < events.len(), "parent cycle at {}", event.name);
                }
            }
        }
        if event.name == "dsdnnf_compile" {
            compile_spans += 1;
            assert!(
                event.parent.is_some(),
                "compile span detached from the compile trace"
            );
        }
    }
    assert_eq!(compile_spans, 1, "the cold request compiles once");
}

/// `explain()` agrees with the session counters and the batch answers at
/// both thread counts, and the flight recorder retains the explained
/// request's trace.
#[test]
fn explain_is_consistent_with_stats_across_thread_counts() {
    for threads in [1usize, 8] {
        let base = config(threads, Telemetry::enabled());
        let mut session = EvalSession::new(EngineConfig {
            flight_recorder_threshold_ns: 0,
            flight_recorder_capacity: 4,
            ..base
        });
        let qid = session.register_query(query());
        let iid = session.register_instance(chain(6));
        let valuation = ProbabilityValuation::all_one_half(session.instance(iid));
        let request = ProbabilityRequest {
            query: qid,
            instance: iid,
            valuation,
        };
        let report = session.explain(&request).unwrap();
        let stats = session.stats();
        assert_eq!(stats.requests, 1, "threads={threads}");
        assert_eq!(report.backend, "automaton");
        assert!(!report.lineage_cached && stats.lineage_misses == 1);
        let exact = session.batch_probability(std::slice::from_ref(&request))[0]
            .clone()
            .unwrap();
        assert_eq!(report.estimate, exact.to_f64(), "threads={threads}");
        let warm = session.explain(&request).unwrap();
        assert!(warm.lineage_cached && warm.encoding_cached && warm.machine_cached);
        assert_eq!(session.stats().lineage_misses, 1);
        assert_eq!(session.stats().requests, 3);
        // The metrics surface counts the explains under their own kind.
        let snap = session.metrics();
        assert_eq!(
            snap.counter("requests_total", &[("kind", "explain"), ("tier", "exact")]),
            Some(2),
            "threads={threads}"
        );
        // The flight recorder (threshold 0) retained traces with request
        // roots, slowest first.
        let slow = session.slow_requests();
        assert!(!slow.is_empty() && slow.len() <= 4);
        assert!(slow
            .windows(2)
            .all(|w| w[0].duration_ns >= w[1].duration_ns));
        assert!(slow.iter().all(|s| s
            .spans
            .iter()
            .any(|e| e.name == "request" && e.trace == s.trace)));
        // The report's stage summary only names spans of its own trace.
        let trace_events = report.trace.map(|t| {
            slow.iter()
                .find(|s| s.trace == t)
                .map(|s| s.spans.len())
                .unwrap_or(0)
        });
        assert!(trace_events.is_some());
        assert!(report.total_ns > 0);
    }
}

/// The drained ring renders as a Chrome-trace document naming every span.
#[test]
fn session_trace_exports_as_chrome_trace() {
    let telemetry = Telemetry::enabled();
    let mut session = EvalSession::new(config(2, telemetry.clone()));
    let qid = session.register_query(query());
    let iid = session.register_instance(chain(5));
    let valuation = ProbabilityValuation::all_one_half(session.instance(iid));
    for r in session.batch_probability(&[ProbabilityRequest {
        query: qid,
        instance: iid,
        valuation,
    }]) {
        r.unwrap();
    }
    let events = telemetry.drain_events();
    assert!(!events.is_empty());
    let rendered = to_chrome_trace(&events);
    assert!(rendered.starts_with("{\"traceEvents\":["));
    assert!(rendered.ends_with("\"displayTimeUnit\":\"ms\"}"));
    for event in &events {
        assert!(
            rendered.contains(&format!("\"name\":\"{}\"", event.name)),
            "export must name span {:?}",
            event.name
        );
    }
    // One complete event per recorded span.
    assert_eq!(rendered.matches("\"ph\":\"X\"").count(), events.len());
}
