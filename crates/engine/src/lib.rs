//! Parallel + batched serving layer over the `treelineage` lineage
//! pipeline.
//!
//! The paper's bottom-up construction (the Theorem 6.11 d-SDNNF gate
//! construction over the automaton run) is embarrassingly parallel over
//! disjoint subtrees; a serving system additionally sees *many* requests
//! that share compile work (same query, same instance, different weights).
//! This crate provides both layers, using only `std::thread` per the
//! workspace's no-external-deps rule:
//!
//! * [`compile_structured_dnnf_parallel`] — a work-stealing subtree
//!   scheduler that compiles fragments on worker threads with the automata
//!   crate's one `StructuredBuilder` and splices them into its whole-tree
//!   build, with output **bit-identical** to the sequential path at every
//!   thread count (see `parallel`'s module docs for the contract);
//!   [`ParallelDnnf`] carries the fragment partition so probability / WMC /
//!   model-counting passes parallelize the same way.
//! * [`EvalSession`] — a long-lived session holding the persistent compiled
//!   query machines, per-instance tree encodings and compiled lineages,
//!   exposing [`EvalSession::batch_probability`] /
//!   [`EvalSession::batch_wmc`] / [`EvalSession::batch_model_count`] that
//!   evaluate many (query, instance, weights) requests concurrently and
//!   deduplicate shared compile work.
//! * [`EngineConfig`] — the knob set (`threads`, `state_budget`,
//!   `fragment_grain`, `lineage_cache_cap`, the Karp–Luby `(ε, δ)`,
//!   telemetry and the flight recorder) that `treelineage-core`'s
//!   `ProbabilityEvaluator` and the bench harness route through, so every
//!   existing entry point can opt into parallelism without API changes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod approx;
mod parallel;
mod pool;
mod session;

pub use approx::{karp_luby_probability, karp_luby_sample_bound, KarpLubyEstimate};
pub use parallel::{compile_structured_dnnf_parallel, CircuitPartition, ParallelDnnf};
pub use session::{
    validate_insert, validate_retract, CacheOccupancy, DecisionTier, EngineError, EvalSession,
    ExplainReport, InstanceId, ProbabilityRequest, QueryId, SessionBackend, SessionStats,
    SlowRequest, StageTiming, ThresholdDecision, ThresholdRequest, UpdateError, UpdateKind,
    UpdateReport, WmcRequest,
};
pub use treelineage_telemetry::{
    to_chrome_trace, ContextGuard, MetricsSnapshot, Registry, Span, SpanContext, SpanEvent,
    Telemetry,
};

use treelineage_dd::order::order_by_first_covering_bag;
use treelineage_graph::TreeDecomposition;
use treelineage_instance::Instance;

/// Configuration of the parallel engine: thread count, the query compiler's
/// state budget, the fragment grain, the [`EvalSession`] lineage cache cap,
/// the Karp–Luby knobs, telemetry and the flight recorder.
/// The default is fully sequential with the compiler's default budget —
/// existing entry points behave exactly as before until they opt in.
/// Float-first serving is a session backend, not a config knob: select it
/// with [`EvalSession::with_backend`] and [`SessionBackend::FloatFirst`].
///
/// (No `Eq`: the `(ε, δ)` knobs are `f64`. `PartialEq` is still derived and
/// the engine never stores `NaN` in them; [`Telemetry`] compares by
/// identity. No `Copy` since the telemetry handle holds an `Arc` — clone
/// configs explicitly where they are reused.)
#[derive(Clone, Debug, PartialEq)]
pub struct EngineConfig {
    /// Worker threads for subtree compilation and batched evaluation.
    /// `1` (the default) means everything runs on the caller's thread.
    pub threads: usize,
    /// State budget handed to the query→automaton compiler
    /// ([`treelineage_encoding::CompileOptions::state_budget`]).
    pub state_budget: usize,
    /// Fragment grain for the subtree scheduler: subtrees of at most this
    /// many nodes become one task. `0` (the default) picks
    /// `node_count / (threads * 4)` with a lower bound that keeps
    /// scheduling overhead negligible; tests use small explicit grains to
    /// exercise the merge on small trees.
    pub fragment_grain: usize,
    /// Maximum number of compiled lineages an [`EvalSession`] keeps (per
    /// (query, instance); least recently used evicted first).
    pub lineage_cache_cap: usize,
    /// Relative error bound ε of the Karp–Luby fallback estimator
    /// (`|estimate − exact| ≤ ε·exact` with probability `1 − δ`). Default
    /// `0.01`.
    pub epsilon: f64,
    /// Failure probability δ of the Karp–Luby fallback estimator. Default
    /// `0.01`.
    pub delta: f64,
    /// Telemetry sink for pipeline-stage spans, pool activity, and
    /// per-request tier/latency records. Defaults to
    /// [`Telemetry::disabled`] — a no-op handle whose recording calls are
    /// single branches (no clock reads, no allocation), and under which
    /// compiled artifacts are byte-identical to an instrumented run.
    pub telemetry: Telemetry,
    /// How many slow requests the session's flight recorder retains
    /// ([`EvalSession::slow_requests`]): the N slowest requests past the
    /// latency threshold, each with the full span subtree of its trace.
    /// `0` disables the recorder. Inert while telemetry is disabled (no
    /// spans, no clock reads). Default `8`.
    pub flight_recorder_capacity: usize,
    /// Latency threshold (nanoseconds) past which a finished request
    /// competes for a flight-recorder slot. Default `10_000_000` (10 ms).
    pub flight_recorder_threshold_ns: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 1,
            state_budget: treelineage_encoding::DEFAULT_STATE_BUDGET,
            fragment_grain: 0,
            lineage_cache_cap: 256,
            epsilon: 0.01,
            delta: 0.01,
            telemetry: Telemetry::disabled(),
            flight_recorder_capacity: 8,
            flight_recorder_threshold_ns: 10_000_000,
        }
    }
}

impl EngineConfig {
    /// The default configuration at the given thread count.
    pub fn with_threads(threads: usize) -> Self {
        EngineConfig {
            threads,
            ..EngineConfig::default()
        }
    }
}

/// Derives the fact (variable) order from a tree decomposition of the
/// instance's Gaifman graph: the \[35\]-style depth-first bag layout with
/// every fact placed at its first covering bag (the layout itself lives in
/// [`treelineage_dd::order`]). This is the order every match-based backend
/// compiles under; `treelineage-core`'s `LineageBuilder::variable_order`
/// calls it.
pub fn variable_order_from_decomposition(
    instance: &Instance,
    td: &TreeDecomposition,
) -> Vec<usize> {
    use std::collections::{BTreeMap, BTreeSet};
    let domain: Vec<_> = instance.domain().into_iter().collect();
    let element_to_vertex: BTreeMap<_, usize> =
        domain.iter().enumerate().map(|(i, &e)| (e, i)).collect();
    if td.bag_count() == 0 {
        return instance.fact_ids().map(|f| f.0).collect();
    }
    let items: Vec<BTreeSet<usize>> = instance
        .facts()
        .map(|(_, fact)| {
            fact.elements()
                .into_iter()
                .map(|e| element_to_vertex[&e])
                .collect()
        })
        .collect();
    order_by_first_covering_bag(td, &items)
}
