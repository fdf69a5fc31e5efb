//! Long-lived evaluation sessions: batched requests over cached compile
//! state.
//!
//! A serving system does not see one `query_probability` call — it sees a
//! stream of (query, instance, weight-vector) requests, most of which share
//! their expensive prefix: the tree encoding is per instance, the compiled
//! query machine is per (query, alphabet), and the provenance d-SDNNF is
//! per (query, instance); only the final linear evaluation pass depends on
//! the weights. [`EvalSession`] keeps all three layers cached across
//! batches and evaluates the requests of a batch concurrently on the
//! engine's work-stealing pool:
//!
//! * **per-instance state** — the instance, its (validated) tree
//!   decomposition and the lazily built [`TreeEncoding`];
//! * **per-(query, width) state** — the persistent
//!   [`CompiledQuery`] machine, whose deterministic-state memo keeps
//!   growing across instances (its own kind of cache);
//! * **per-(query, instance) state** — the compiled [`ParallelDnnf`]
//!   lineage, shared by every request and every batch that names the pair.
//!
//! Every batch method runs the same request pipeline: validate each
//! request on the caller's thread, compile each distinct (query, instance)
//! pair once, then answer each request on the pool with its own trace,
//! latency record and panic containment. Evaluation needs no locking after
//! compile — [`ParallelDnnf`] evaluation is read-only.
//!
//! Results are deterministic: caches only memoize deterministic
//! computations, so a cache hit returns byte-for-byte what a cold compile
//! would have produced (pinned by the umbrella
//! `tests/parallel_differential.rs`).

use crate::approx::karp_luby_probability;
use crate::parallel::{compile_with_pool_cached, FragmentLibrary, ParallelDnnf};
use crate::pool::{lock_recovering, run_tasks, run_tasks_catching};
use crate::EngineConfig;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;
use treelineage_encoding::{
    compile_ucq, CompileError, CompileOptions, CompiledQuery, EncodingError, EncodingPlan,
    LiveStates, TreeEncoding,
};
use treelineage_graph::TreeDecomposition;
use treelineage_instance::{Element, Fact, FactId, Instance, ProbabilityValuation};
use treelineage_num::{BigUint, ErrorInterval, Rational};
use treelineage_query::UnionOfConjunctiveQueries;
use treelineage_telemetry::{write_string, MetricsSnapshot, Span, SpanEvent};

/// Handle to an instance registered with an [`EvalSession`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct InstanceId(usize);

impl InstanceId {
    /// The session-local index of the instance — the value of the
    /// `instance` label on the session's update and compile spans.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a query registered with an [`EvalSession`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct QueryId(usize);

impl QueryId {
    /// The session-local index of the query.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Which compiled representation a session serves requests from.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SessionBackend {
    /// The Section 6 pipeline: tree-encode each instance once, compile each
    /// query to a tree automaton once, serve every request from the cached
    /// provenance d-SDNNF (never materializing query matches). The default.
    #[default]
    Automaton,
    /// The automaton pipeline with the certified-f64 serving policy:
    /// [`EvalSession::batch_threshold`] answers from the interval fast-path
    /// (falling back to exact rationals only when the threshold lands
    /// inside the interval), and (query, instance) pairs whose compilation
    /// blows the state budget degrade to the Karp–Luby estimator with the
    /// session's `(ε, δ)` instead of failing. The exact-rational batch
    /// methods are unchanged under this backend — float-first is a *serving
    /// policy*, not a different compilation pipeline.
    FloatFirst,
}

impl SessionBackend {
    /// Stable lowercase name of the backend, used by [`ExplainReport`] and
    /// the telemetry surfaces.
    pub fn as_str(self) -> &'static str {
        match self {
            SessionBackend::Automaton => "automaton",
            SessionBackend::FloatFirst => "float_first",
        }
    }
}

/// Errors reported per request by the batch methods. Requests that share a
/// failing (query, instance) pair share the (cloned) error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The supplied decomposition is not valid for the instance.
    InvalidDecomposition(String),
    /// Tree-encoding the instance failed.
    Encoding(EncodingError),
    /// Compiling the query to an automaton failed (state budget, alphabet
    /// limits).
    QueryCompile(CompileError),
    /// Provenance extraction failed (internal: the encoder's invariants
    /// should rule this out).
    Provenance(String),
    /// The worker task serving this request panicked (carrying the panic
    /// message). The panic is contained to the request: other requests of
    /// the batch and the session itself stay fully usable.
    WorkerPanicked(String),
    /// The request itself is malformed (unknown query/instance handle, or a
    /// valuation or weight vector that does not cover the instance). Every
    /// batch method and [`EvalSession::explain`] validate each request on
    /// the caller's thread before any work is scheduled, so a malformed
    /// request fails alone with this error instead of panicking a worker.
    InvalidRequest(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::InvalidDecomposition(e) => write!(f, "invalid decomposition: {e}"),
            EngineError::Encoding(e) => write!(f, "tree encoding failed: {e}"),
            EngineError::QueryCompile(e) => write!(f, "query compilation failed: {e}"),
            EngineError::Provenance(e) => write!(f, "provenance compilation failed: {e}"),
            EngineError::WorkerPanicked(e) => write!(f, "worker task panicked: {e}"),
            EngineError::InvalidRequest(e) => write!(f, "invalid request: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// The kind of a mutation applied through [`EvalSession::insert_fact`],
/// [`EvalSession::retract_fact`] or [`EvalSession::set_probability`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UpdateKind {
    /// A new fact was inserted (structural).
    Insert,
    /// An existing fact was retracted (structural).
    Retract,
    /// One fact's probability was overridden (weights only).
    SetProbability,
}

impl UpdateKind {
    /// Stable lowercase name of the kind, used as the `kind` label of the
    /// `updates_total` telemetry series.
    pub fn as_str(self) -> &'static str {
        match self {
            UpdateKind::Insert => "insert",
            UpdateKind::Retract => "retract",
            UpdateKind::SetProbability => "set_probability",
        }
    }
}

/// Typed rejection of a mutation. Rejected updates leave the session
/// untouched: no cache layer is invalidated, no counter moves, the epoch
/// stays. The domain-pinning variants ([`UpdateError::NewElement`],
/// [`UpdateError::UncoveredFact`], [`UpdateError::OrphanedElement`]) exist
/// because a session instance's tree decomposition — and with it the
/// encoding's event numbering — is pinned to the Gaifman graph of the
/// *registered* active domain: an update that grows or shrinks the domain,
/// or introduces a fact no decomposition bag covers, would shift every
/// vertex index and silently invalidate the incremental-recompile contract.
/// Such updates need a re-registration, not an in-place mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UpdateError {
    /// The instance handle does not belong to this session.
    UnknownInstance(usize),
    /// The fact id names no fact of the instance (retracting an absent fact
    /// lands here).
    UnknownFact(FactId),
    /// The inserted fact's argument count does not match its relation's
    /// arity in the instance's signature.
    ArityMismatch {
        /// Arity the signature declares for the relation.
        expected: usize,
        /// Arguments the fact carries.
        got: usize,
    },
    /// The inserted fact is already present (at the reported id). Instances
    /// are fact *sets*; inserting a duplicate is a rejected no-op, mirroring
    /// the idempotence of registration-time loading.
    DuplicateFact(FactId),
    /// The inserted fact mentions an element outside the pinned active
    /// domain.
    NewElement(Element),
    /// The inserted fact's elements are all in the domain, but no bag of the
    /// pinned decomposition contains them jointly (the fact has no home in
    /// the tree encoding, and its Gaifman edges may exceed the width).
    UncoveredFact,
    /// Retracting the fact would orphan the reported element (it occurs in
    /// no other fact), shrinking the pinned active domain.
    OrphanedElement(Element),
    /// The probability is outside `[0, 1]`.
    InvalidProbability,
    /// The pinned decomposition could not be turned into an encoding plan
    /// (alphabet limits); the instance cannot accept structural updates.
    Encoding(String),
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::UnknownInstance(i) => write!(f, "unknown instance handle {i}"),
            UpdateError::UnknownFact(id) => write!(f, "no fact with id {}", id.0),
            UpdateError::ArityMismatch { expected, got } => {
                write!(f, "arity mismatch: relation expects {expected}, got {got}")
            }
            UpdateError::DuplicateFact(id) => {
                write!(f, "fact already present with id {}", id.0)
            }
            UpdateError::NewElement(e) => {
                write!(f, "element {} is outside the pinned active domain", e.0)
            }
            UpdateError::UncoveredFact => {
                write!(f, "no decomposition bag covers the fact's elements")
            }
            UpdateError::OrphanedElement(e) => {
                write!(f, "retraction would orphan element {}", e.0)
            }
            UpdateError::InvalidProbability => write!(f, "probability out of [0, 1]"),
            UpdateError::Encoding(e) => write!(f, "encoding plan failed: {e}"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// What an applied update did, returned by the [`EvalSession`] mutation
/// methods.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateReport {
    /// The kind of mutation applied.
    pub kind: UpdateKind,
    /// The fact the update touched: the new fact's id for an insert, the
    /// vacated id for a retract (where the moved fact now lives, if any),
    /// the reweighted fact for a probability override.
    pub fact: FactId,
    /// Retract only: the id the previously-last fact moved *from* (it now
    /// lives at [`UpdateReport::fact`]); `None` when the retracted fact was
    /// itself last, and for the other kinds.
    pub moved: Option<FactId>,
    /// Whether the update changed the fact set (and therefore invalidated
    /// the structural cache layers). Probability overrides are
    /// non-structural: the gate stream is probability-independent, so only
    /// the session's resident valuation changes.
    pub structural: bool,
    /// Whether the update was a zero-dirty fast path (overriding a
    /// probability with its current value): accepted, but nothing changed
    /// and no cache layer was touched.
    pub no_op: bool,
    /// The instance's update epoch after this update (0 at registration,
    /// +1 per applied non-no-op update).
    pub epoch: u64,
    /// How many resident lineage artifacts the update invalidated (their
    /// fragment libraries are retained for incremental recompilation).
    pub invalidated_lineages: usize,
}

/// Validates a fact insertion against an instance, and — when the instance
/// is pinned to an [`EncodingPlan`] — against the plan's domain and bag
/// coverage. With `plan: None` (a caller deriving a fresh heuristic
/// decomposition per evaluation, like the core builders without an explicit
/// decomposition) only the instance-level checks apply: any in-signature,
/// non-duplicate fact is insertable.
pub fn validate_insert(
    instance: &Instance,
    plan: Option<&EncodingPlan>,
    fact: &Fact,
    probability: &Rational,
) -> Result<(), UpdateError> {
    let expected = instance.signature().arity(fact.relation());
    if fact.arguments().len() != expected {
        return Err(UpdateError::ArityMismatch {
            expected,
            got: fact.arguments().len(),
        });
    }
    if !probability.is_probability() {
        return Err(UpdateError::InvalidProbability);
    }
    if let Some(id) = instance.fact_id(fact.relation(), fact.arguments()) {
        return Err(UpdateError::DuplicateFact(id));
    }
    if let Some(plan) = plan {
        let elements = fact.elements();
        for &e in &elements {
            if !plan.contains_element(e) {
                return Err(UpdateError::NewElement(e));
            }
        }
        if !plan.covers(&elements) {
            return Err(UpdateError::UncoveredFact);
        }
    }
    Ok(())
}

/// Validates a fact retraction. `pinned_domain` adds the orphan check (the
/// session's mode: every element of the fact must survive in another fact,
/// or the pinned active domain would shrink); callers re-deriving their
/// decomposition per evaluation may pass `false` and shrink freely.
pub fn validate_retract(
    instance: &Instance,
    fact: FactId,
    pinned_domain: bool,
) -> Result<(), UpdateError> {
    if fact.0 >= instance.fact_count() {
        return Err(UpdateError::UnknownFact(fact));
    }
    if pinned_domain {
        for e in instance.fact(fact).elements() {
            let survives = instance
                .facts()
                .any(|(id, f)| id != fact && f.elements().contains(&e));
            if !survives {
                return Err(UpdateError::OrphanedElement(e));
            }
        }
    }
    Ok(())
}

/// A probability request: evaluate `query` on `instance` under independent
/// per-fact probabilities.
#[derive(Clone, Debug)]
pub struct ProbabilityRequest {
    /// The registered query.
    pub query: QueryId,
    /// The registered instance.
    pub instance: InstanceId,
    /// Per-fact probabilities (must cover every fact of the instance).
    pub valuation: ProbabilityValuation,
}

/// A weighted-model-count request: general per-literal weights, indexed by
/// fact id (so `pos[f]` / `neg[f]` weight fact `f` present / absent).
#[derive(Clone, Debug)]
pub struct WmcRequest {
    /// The registered query.
    pub query: QueryId,
    /// The registered instance.
    pub instance: InstanceId,
    /// Weight of each fact being present, indexed by fact id.
    pub pos: Vec<Rational>,
    /// Weight of each fact being absent, indexed by fact id.
    pub neg: Vec<Rational>,
}

/// A threshold request: decide whether the probability of `query` on
/// `instance` exceeds `threshold`, letting the session pick the cheapest
/// tier that can answer soundly (see [`EvalSession::batch_threshold`]).
#[derive(Clone, Debug)]
pub struct ThresholdRequest {
    /// The registered query.
    pub query: QueryId,
    /// The registered instance.
    pub instance: InstanceId,
    /// Per-fact probabilities (must cover every fact of the instance).
    pub valuation: ProbabilityValuation,
    /// The decision threshold compared against the exact probability.
    pub threshold: Rational,
}

/// Which evaluation tier answered a request: the tier of a
/// [`ThresholdDecision`], an [`ExplainReport`] and a [`SlowRequest`], and
/// the `tier` label of the request telemetry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecisionTier {
    /// The certified f64 interval pass answered (for a threshold: the
    /// threshold lay strictly outside the interval).
    Float,
    /// Exact rational evaluation (every exact batch method, and threshold
    /// and explain requests on [`SessionBackend::Automaton`]; the fallback
    /// on [`SessionBackend::FloatFirst`] when the threshold lands inside
    /// the interval).
    Exact,
    /// The Karp–Luby estimator (compile budget exceeded under
    /// [`SessionBackend::FloatFirst`]); the decision is probabilistic.
    MonteCarlo,
}

impl DecisionTier {
    /// Stable lowercase name of the tier, used as the `tier` label of the
    /// telemetry series `requests_total` / `request_latency_ns`.
    pub fn as_str(self) -> &'static str {
        match self {
            DecisionTier::Float => "float",
            DecisionTier::Exact => "exact",
            DecisionTier::MonteCarlo => "monte_carlo",
        }
    }
}

/// The outcome of a [`ThresholdRequest`].
#[derive(Clone, Debug, PartialEq)]
pub struct ThresholdDecision {
    /// `true` iff the query probability exceeds the request's threshold
    /// (for [`DecisionTier::MonteCarlo`]: iff the estimate does).
    pub above: bool,
    /// The tier that produced the decision.
    pub tier: DecisionTier,
    /// The enclosure the decision was made from: certified for
    /// [`DecisionTier::Float`], exact (degenerate or optimal-bracket) for
    /// [`DecisionTier::Exact`], probabilistic `(ε, δ)` for
    /// [`DecisionTier::MonteCarlo`].
    pub interval: ErrorInterval,
}

/// One slow request retained by the session's flight recorder: the request
/// classification, its latency, and the full span subtree of its trace
/// (every span the request opened, on any thread), captured at completion
/// time so the spans survive later ring eviction.
#[derive(Clone, Debug)]
pub struct SlowRequest {
    /// The request kind (`"probability"`, `"threshold"`, ... — the same
    /// `kind` label as `requests_total`).
    pub kind: &'static str,
    /// The tier that served the request.
    pub tier: DecisionTier,
    /// End-to-end latency of the request.
    pub duration_ns: u64,
    /// The request's trace id (usable with
    /// [`Telemetry::events_for_trace`](treelineage_telemetry::Telemetry::events_for_trace)
    /// and as the `pid` track in a Chrome-trace export).
    pub trace: u64,
    /// The finished spans of the trace at capture time, including labels.
    pub spans: Vec<SpanEvent>,
}

/// Wall-clock aggregate of one pipeline stage inside a single request's
/// trace (one entry per distinct span name), reported by
/// [`EvalSession::explain`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageTiming {
    /// The span name of the stage (e.g. `"tree_encode"`, `"dsdnnf_compile"`).
    pub name: &'static str,
    /// How many spans of that name the request opened.
    pub count: u64,
    /// Total duration across those spans.
    pub total_ns: u64,
}

/// A structured per-request report from [`EvalSession::explain`]: which
/// backend and tier served the request, what each cache layer contributed,
/// the sizes of the compiled artifacts involved, and where the time went
/// (per-stage durations aggregated from the request's own spans).
/// [`ExplainReport::to_json`] renders it stably for log pipelines and the
/// `tables` experiment binary.
#[derive(Clone, Debug)]
pub struct ExplainReport {
    /// The serving backend ([`SessionBackend::as_str`]).
    pub backend: &'static str,
    /// The tier that produced the answer.
    pub tier: DecisionTier,
    /// The probability estimate (exact value for exact tiers, interval
    /// midpoint for [`DecisionTier::Float`], point estimate for
    /// [`DecisionTier::MonteCarlo`]).
    pub estimate: f64,
    /// Width of the enclosure the estimate came with (0 for exact tiers).
    pub interval_width: f64,
    /// Whether the instance's tree encoding was already cached when the
    /// request arrived.
    pub encoding_cached: bool,
    /// Whether the compiled query machine was already cached.
    pub machine_cached: bool,
    /// Whether the lineage d-SDNNF was already cached.
    pub lineage_cached: bool,
    /// Deterministic states of the compiled query machine (`None` when the
    /// lineage did not compile and Karp–Luby answered).
    pub automaton_states: Option<usize>,
    /// Mean, over the encoding's tree nodes, of the machine states live at
    /// a node when the lineage was materialized — what the d-SDNNF
    /// compile's per-node work follows (`None` under Karp–Luby, or when
    /// the lineage left the cache before the report was assembled).
    pub live_states_mean: Option<f64>,
    /// Most machine states live at one tree node (`None` as for
    /// [`ExplainReport::live_states_mean`]).
    pub live_states_max: Option<usize>,
    /// Gate count of the compiled d-SDNNF (`None` under Karp–Luby).
    pub gates: Option<usize>,
    /// Node count of the vtree structuring the d-SDNNF (`None` under
    /// Karp–Luby).
    pub vtree_nodes: Option<usize>,
    /// Fragments of the circuit partition available to fragment-parallel
    /// evaluation (`None` under Karp–Luby).
    pub fragments: Option<usize>,
    /// The request's trace id, `None` when telemetry is disabled.
    pub trace: Option<u64>,
    /// End-to-end duration of the request span (0 when telemetry is
    /// disabled).
    pub total_ns: u64,
    /// Per-stage durations aggregated from the request's spans, sorted by
    /// stage name. Empty when telemetry is disabled.
    pub stages: Vec<StageTiming>,
}

impl ExplainReport {
    /// Renders the report as one stable JSON object (fixed key order,
    /// `None` artifact fields omitted), suitable for structured logs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"backend\":");
        write_string(self.backend, &mut out);
        out.push_str(",\"tier\":");
        write_string(self.tier.as_str(), &mut out);
        // `{:?}` on finite f64 is shortest-roundtrip and valid JSON.
        out.push_str(&format!(",\"estimate\":{:?}", self.estimate));
        out.push_str(&format!(",\"interval_width\":{:?}", self.interval_width));
        out.push_str(&format!(
            ",\"cache\":{{\"encoding\":{},\"machine\":{},\"lineage\":{}}}",
            self.encoding_cached, self.machine_cached, self.lineage_cached
        ));
        out.push_str(",\"artifact\":{");
        let int = |v: Option<usize>| v.map(|v| v.to_string());
        let artifact: Vec<String> = [
            ("automaton_states", int(self.automaton_states)),
            (
                "live_states_mean",
                self.live_states_mean.map(|v| format!("{v:?}")),
            ),
            ("live_states_max", int(self.live_states_max)),
            ("gates", int(self.gates)),
            ("vtree_nodes", int(self.vtree_nodes)),
            ("fragments", int(self.fragments)),
        ]
        .into_iter()
        .filter_map(|(key, value)| value.map(|value| format!("\"{key}\":{value}")))
        .collect();
        out.push_str(&artifact.join(","));
        out.push('}');
        if let Some(trace) = self.trace {
            out.push_str(&format!(",\"trace\":{trace}"));
        }
        out.push_str(&format!(",\"total_ns\":{}", self.total_ns));
        out.push_str(",\"stages\":[");
        for (i, stage) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_string(stage.name, &mut out);
            out.push_str(&format!(
                ",\"count\":{},\"total_ns\":{}}}",
                stage.count, stage.total_ns
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Cache effectiveness counters of an [`EvalSession`] (monotone since the
/// session was created).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Requests served across all batches.
    pub requests: usize,
    /// Lineage (d-SDNNF) cache hits.
    pub lineage_hits: usize,
    /// Lineage (d-SDNNF) cache misses (compiles).
    pub lineage_misses: usize,
    /// Compiled query machines built (per (query, width) misses).
    pub machines_built: usize,
    /// Tree encodings built (per-instance misses).
    pub encodings_built: usize,
    /// Threshold requests decided by the float interval pass alone.
    pub float_decisions: usize,
    /// Threshold requests that fell back to exact rational evaluation.
    pub exact_fallbacks: usize,
    /// Requests served by the Karp–Luby estimator (budget-exceeded
    /// degradation under [`SessionBackend::FloatFirst`]).
    pub monte_carlo_fallbacks: usize,
    /// Requests whose worker task panicked ([`EngineError::WorkerPanicked`]).
    /// Every panic is also counted in [`SessionStats::errors`].
    pub worker_panics: usize,
    /// Requests that returned an [`EngineError`] (of any kind) instead of a
    /// result; `requests == errors + successes` holds per batch.
    pub errors: usize,
    /// Fact insertions applied ([`EvalSession::insert_fact`]; rejected
    /// updates don't count).
    pub updates_insert: usize,
    /// Fact retractions applied ([`EvalSession::retract_fact`]).
    pub updates_retract: usize,
    /// Probability overrides applied ([`EvalSession::set_probability`];
    /// zero-dirty no-ops don't count).
    pub updates_set_probability: usize,
    /// Fragments recompiled by lineage compiles that consulted a retained
    /// fragment library — the update path's dirty set, summed.
    pub fragments_recompiled: usize,
    /// Fragments replayed byte-identically from a retained library instead
    /// of being recompiled.
    pub fragments_reused: usize,
    /// Resident lineage artifacts invalidated by structural updates.
    pub lineages_invalidated: usize,
}

#[derive(Default)]
struct Counters {
    requests: AtomicUsize,
    lineage_hits: AtomicUsize,
    lineage_misses: AtomicUsize,
    machines_built: AtomicUsize,
    encodings_built: AtomicUsize,
    float_decisions: AtomicUsize,
    exact_fallbacks: AtomicUsize,
    monte_carlo_fallbacks: AtomicUsize,
    worker_panics: AtomicUsize,
    errors: AtomicUsize,
    updates_insert: AtomicUsize,
    updates_retract: AtomicUsize,
    updates_set_probability: AtomicUsize,
    fragments_recompiled: AtomicUsize,
    fragments_reused: AtomicUsize,
    lineages_invalidated: AtomicUsize,
}

/// A capacity-capped map with true LRU eviction: every hit refreshes the
/// entry's recency stamp, and inserting past the cap evicts the least
/// recently *used* entry, so a hot (query, instance) pair registered first
/// outlives cold later entries. Recency is a monotone stamp per entry;
/// eviction scans for the minimum stamp, which is linear but negligible
/// against the compile work a single eviction implies at the configured
/// cache caps.
struct CacheMap<K: Ord + Clone, V: Clone> {
    map: BTreeMap<K, (V, u64)>,
    stamp: u64,
    cap: usize,
}

impl<K: Ord + Clone, V: Clone> CacheMap<K, V> {
    fn new(cap: usize) -> Self {
        CacheMap {
            map: BTreeMap::new(),
            stamp: 0,
            cap: cap.max(1),
        }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        self.stamp += 1;
        let stamp = self.stamp;
        self.map.get_mut(key).map(|(value, last_used)| {
            *last_used = stamp;
            value.clone()
        })
    }

    /// The entry for `key`, *without* refreshing its recency stamp — for
    /// observability probes ([`EvalSession::explain`]) that must not
    /// perturb the eviction order they are reporting on.
    fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|(value, _)| value)
    }

    fn insert(&mut self, key: K, value: V) {
        self.stamp += 1;
        self.map.insert(key, (value, self.stamp));
        while self.map.len() > self.cap {
            let coldest = self
                .map
                .iter()
                .min_by_key(|(_, (_, last_used))| *last_used)
                .map(|(k, _)| k.clone())
                .expect("map is non-empty past the cap");
            self.map.remove(&coldest);
        }
    }

    /// Removes and returns every entry whose key matches `pred` (the
    /// structural-invalidation path: evict all lineages of one instance,
    /// handing their fragment libraries to the stale set for incremental
    /// recompilation).
    fn take_matching(&mut self, pred: impl Fn(&K) -> bool) -> Vec<(K, V)> {
        let keys: Vec<K> = self.map.keys().filter(|k| pred(k)).cloned().collect();
        keys.into_iter()
            .map(|k| {
                let (value, _) = self.map.remove(&k).expect("key just enumerated");
                (k, value)
            })
            .collect()
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn capacity(&self) -> usize {
        self.cap
    }
}

/// Point-in-time occupancy of an [`EvalSession`]'s cache layers, from
/// [`EvalSession::cache_occupancy`]. Entry counts never exceed the matching
/// capacity (the caches evict on insert past the cap); the encoding layer
/// is per registered instance and uncapped, so it reports how many
/// instances have materialized their encoding so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheOccupancy {
    /// Compiled lineages resident in the (query, instance) cache.
    pub lineage_entries: usize,
    /// Capacity of the lineage cache ([`EngineConfig::lineage_cache_cap`]).
    pub lineage_capacity: usize,
    /// Compiled query machines resident in the (query, width) cache.
    pub machine_entries: usize,
    /// Capacity of the machine cache ([`EngineConfig::query_cache_cap`]).
    pub machine_capacity: usize,
    /// Registered instances whose tree encoding has been built.
    pub encodings: usize,
}

struct InstanceEntry {
    instance: Instance,
    decomposition: TreeDecomposition,
    encoding: Mutex<Option<Arc<TreeEncoding>>>,
    /// The session-resident valuation (1/2 per fact at registration),
    /// mutated by [`EvalSession::set_probability`] and kept aligned with the
    /// fact set by insert/retract. Requests still carry their own
    /// valuations; this one is the mutable baseline update-aware callers
    /// read back through [`EvalSession::valuation`].
    valuation: ProbabilityValuation,
    /// Update epoch: 0 at registration, +1 per applied non-no-op update.
    epoch: u64,
    /// The encoding plan update validation checks domain/coverage against,
    /// built lazily at the first structural update. Valid across every
    /// accepted update, because accepted updates preserve the active domain
    /// the plan is pinned to.
    plan: Option<Arc<EncodingPlan>>,
}

/// One resident lineage-cache entry: the artifact plus what incremental
/// recompilation needs — the per-fragment compile library, and the identity
/// of the machine that numbered its gates. Gate ids depend on the machine's
/// memo discovery order, so a library may only be replayed against the
/// *same* machine object; the `Weak` keeps the allocation alive so the
/// pointer comparison cannot be fooled by an ABA reuse.
#[derive(Clone)]
struct CachedLineage {
    artifact: Arc<ParallelDnnf>,
    /// Per-node live states of the materialization it was compiled from.
    live: LiveStates,
    machine: Weak<Mutex<CompiledQuery>>,
    library: Arc<FragmentLibrary>,
}

/// A long-lived, batch-oriented evaluation session. See the module docs
/// for the cache layers; see [`EngineConfig`] for the knobs.
///
/// Registration takes `&mut self`; the batch methods take `&self` and are
/// internally synchronized, so a server can share one session behind an
/// [`Arc`] and call batches from several threads.
pub struct EvalSession {
    config: EngineConfig,
    backend: SessionBackend,
    instances: Vec<InstanceEntry>,
    queries: Vec<UnionOfConjunctiveQueries>,
    /// Compiled query machines, keyed by (query, alphabet width). The
    /// machine itself is behind a `Mutex` because materializing an
    /// automaton grows its state memo (`&mut`).
    machines: Mutex<MachineCache>,
    /// Compiled lineages, keyed by (query, instance).
    lineages: Mutex<CacheMap<(usize, usize), CachedLineage>>,
    /// Fragment libraries parked by structural invalidation, keyed by the
    /// (query, instance) pair they served. Consumed (one-shot) by the next
    /// lineage miss on the pair: untouched fragments replay byte-identically
    /// and only the dirty ones recompile.
    stale: Mutex<BTreeMap<(usize, usize), CachedLineage>>,
    counters: Counters,
    /// Flight recorder: the N slowest requests past the latency threshold,
    /// sorted slowest-first (see [`EngineConfig::flight_recorder_capacity`]).
    flight: Mutex<Vec<SlowRequest>>,
}

/// Query-machine cache: (query, width) → shared, lockable [`CompiledQuery`].
type MachineCache = CacheMap<(usize, usize), Arc<Mutex<CompiledQuery>>>;

/// A (query, instance) pair's compiled lineage, or why it did not compile.
type Artifact = Result<Arc<ParallelDnnf>, EngineError>;

/// One request's result with the tier that served it.
type Answer<T> = Result<(T, DecisionTier), EngineError>;

/// One answer of the tier policy ([`EvalSession::tiered`]).
enum Tiered {
    /// The certified f64 interval pass.
    Float(ErrorInterval),
    /// The exact rational pass.
    Exact(Rational),
    /// The Karp–Luby point estimate and its probabilistic `(ε, δ)` interval.
    MonteCarlo(f64, ErrorInterval),
}

impl Tiered {
    fn tier(&self) -> DecisionTier {
        match self {
            Tiered::Float(_) => DecisionTier::Float,
            Tiered::Exact(_) => DecisionTier::Exact,
            Tiered::MonteCarlo(..) => DecisionTier::MonteCarlo,
        }
    }

    /// The point estimate: the interval midpoint, the exact value, or the
    /// Karp–Luby estimate.
    fn estimate(&self) -> f64 {
        match self {
            Tiered::Float(interval) => interval.midpoint(),
            Tiered::Exact(p) => p.to_f64(),
            Tiered::MonteCarlo(estimate, _) => *estimate,
        }
    }

    /// The enclosure of the answer (for the exact tier the optimal f64
    /// bracket of the exact value).
    fn interval(&self) -> ErrorInterval {
        match self {
            Tiered::Float(interval) | Tiered::MonteCarlo(_, interval) => *interval,
            Tiered::Exact(p) => ErrorInterval::from_rational(p),
        }
    }
}

impl EvalSession {
    /// Creates a session over the default [`SessionBackend::Automaton`];
    /// [`EvalSession::with_backend`] selects float-first serving.
    pub fn new(config: EngineConfig) -> Self {
        EvalSession::with_backend(config, SessionBackend::default())
    }

    /// Creates a session serving requests from the given backend.
    pub fn with_backend(config: EngineConfig, backend: SessionBackend) -> Self {
        EvalSession {
            machines: Mutex::new(CacheMap::new(config.query_cache_cap)),
            lineages: Mutex::new(CacheMap::new(config.lineage_cache_cap)),
            stale: Mutex::new(BTreeMap::new()),
            config,
            backend,
            instances: Vec::new(),
            queries: Vec::new(),
            counters: Counters::default(),
            flight: Mutex::new(Vec::new()),
        }
    }

    /// The session's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The backend requests are served from.
    pub fn backend(&self) -> SessionBackend {
        self.backend
    }

    /// Registers an instance, deriving a heuristic tree decomposition of
    /// its Gaifman graph (valid by construction).
    pub fn register_instance(&mut self, instance: Instance) -> InstanceId {
        let (graph, _) = instance.gaifman_graph();
        let (_, td) = treelineage_graph::treewidth::treewidth_upper_bound(&graph);
        self.push_instance(instance, td)
    }

    /// Registers an instance with a known tree decomposition of its Gaifman
    /// graph (validated here once; every later request trusts it).
    pub fn register_instance_with_decomposition(
        &mut self,
        instance: Instance,
        decomposition: TreeDecomposition,
    ) -> Result<InstanceId, EngineError> {
        let (graph, _) = instance.gaifman_graph();
        decomposition
            .validate(&graph)
            .map_err(|e| EngineError::InvalidDecomposition(e.to_string()))?;
        Ok(self.push_instance(instance, decomposition))
    }

    fn push_instance(
        &mut self,
        instance: Instance,
        decomposition: TreeDecomposition,
    ) -> InstanceId {
        let valuation = ProbabilityValuation::all_one_half(&instance);
        self.instances.push(InstanceEntry {
            instance,
            decomposition,
            encoding: Mutex::new(None),
            valuation,
            epoch: 0,
            plan: None,
        });
        InstanceId(self.instances.len() - 1)
    }

    /// The registered instance behind a handle.
    pub fn instance(&self, id: InstanceId) -> &Instance {
        &self.instances[id.0].instance
    }

    /// Registers a query (idempotent: an equal query returns its existing
    /// handle, so its compile caches are shared).
    pub fn register_query(&mut self, query: UnionOfConjunctiveQueries) -> QueryId {
        if let Some(i) = self.queries.iter().position(|q| *q == query) {
            return QueryId(i);
        }
        self.queries.push(query);
        QueryId(self.queries.len() - 1)
    }

    /// The session's resident valuation for an instance: probability 1/2
    /// per fact at registration, overridden by
    /// [`EvalSession::set_probability`] and kept aligned with the fact set
    /// by insert/retract. Always covers exactly the instance's facts.
    pub fn valuation(&self, id: InstanceId) -> &ProbabilityValuation {
        &self.instances[id.0].valuation
    }

    /// The instance's update epoch: 0 at registration, +1 per applied
    /// non-no-op update. Callers snapshotting derived state across updates
    /// can fold it into their keys.
    pub fn instance_epoch(&self, id: InstanceId) -> u64 {
        self.instances[id.0].epoch
    }

    /// Inserts a fact with the given probability. Structural: the
    /// instance's tree encoding and resident lineages are
    /// invalidated, but each invalidated lineage's fragment library is
    /// retained — the next compile of the pair re-encodes, replays every
    /// fragment whose subtree is untouched byte-identically, and recompiles
    /// only the dirty ones (pinned against a cold compile by
    /// `tests/update_differential.rs`).
    ///
    /// The fact must stay inside the pinned active domain and be covered by
    /// a bag of the registered decomposition; see [`UpdateError`] for the
    /// typed rejections. The new fact takes the next dense id (insertion
    /// never renumbers existing facts).
    pub fn insert_fact(
        &mut self,
        instance: InstanceId,
        fact: Fact,
        probability: Rational,
    ) -> Result<UpdateReport, UpdateError> {
        let i = self.check_instance(instance)?;
        let plan = self.plan(i)?;
        validate_insert(
            &self.instances[i].instance,
            Some(plan.as_ref()),
            &fact,
            &probability,
        )?;
        let span = self.update_span(UpdateKind::Insert, i);
        let entry = &mut self.instances[i];
        let id = entry
            .instance
            .add_fact(fact.relation(), fact.arguments().to_vec());
        entry.valuation.push(probability);
        entry.epoch += 1;
        let epoch = entry.epoch;
        let invalidated = self.invalidate_structural(i);
        self.counters.updates_insert.fetch_add(1, Ordering::Relaxed);
        self.record_update(UpdateKind::Insert, invalidated, span);
        Ok(UpdateReport {
            kind: UpdateKind::Insert,
            fact: id,
            moved: None,
            structural: true,
            no_op: false,
            epoch,
            invalidated_lineages: invalidated,
        })
    }

    /// Retracts a fact by id, with swap-remove semantics: the last fact
    /// (and only it) moves into the vacated id, reported as
    /// [`UpdateReport::moved`]. Structural — same invalidation and
    /// fragment-retention behaviour as [`EvalSession::insert_fact`].
    ///
    /// Retracting an absent fact is [`UpdateError::UnknownFact`]; a
    /// retraction that would orphan an element (shrinking the pinned
    /// domain) is [`UpdateError::OrphanedElement`].
    pub fn retract_fact(
        &mut self,
        instance: InstanceId,
        fact: FactId,
    ) -> Result<UpdateReport, UpdateError> {
        let i = self.check_instance(instance)?;
        validate_retract(&self.instances[i].instance, fact, true)?;
        let span = self.update_span(UpdateKind::Retract, i);
        let entry = &mut self.instances[i];
        let (_removed, moved) = entry.instance.remove_fact(fact);
        entry.valuation.swap_remove(fact);
        entry.epoch += 1;
        let epoch = entry.epoch;
        let invalidated = self.invalidate_structural(i);
        self.counters
            .updates_retract
            .fetch_add(1, Ordering::Relaxed);
        self.record_update(UpdateKind::Retract, invalidated, span);
        Ok(UpdateReport {
            kind: UpdateKind::Retract,
            fact,
            moved,
            structural: true,
            no_op: false,
            epoch,
            invalidated_lineages: invalidated,
        })
    }

    /// Overrides one fact's probability in the session's resident
    /// valuation. The cheap tier: the compiled gate stream is
    /// probability-independent, so no encoding, machine or lineage state
    /// is invalidated — later evaluations simply read the new weight.
    /// Overriding with the current value is an accepted zero-dirty no-op
    /// (`no_op: true`, epoch untouched, nothing counted).
    pub fn set_probability(
        &mut self,
        instance: InstanceId,
        fact: FactId,
        probability: Rational,
    ) -> Result<UpdateReport, UpdateError> {
        let i = self.check_instance(instance)?;
        let entry = &mut self.instances[i];
        if fact.0 >= entry.instance.fact_count() {
            return Err(UpdateError::UnknownFact(fact));
        }
        if !probability.is_probability() {
            return Err(UpdateError::InvalidProbability);
        }
        if *entry.valuation.probability(fact) == probability {
            return Ok(UpdateReport {
                kind: UpdateKind::SetProbability,
                fact,
                moved: None,
                structural: false,
                no_op: true,
                epoch: entry.epoch,
                invalidated_lineages: 0,
            });
        }
        let span = self.update_span(UpdateKind::SetProbability, i);
        let entry = &mut self.instances[i];
        entry.valuation.set_probability(fact, probability);
        entry.epoch += 1;
        let epoch = entry.epoch;
        self.counters
            .updates_set_probability
            .fetch_add(1, Ordering::Relaxed);
        self.record_update(UpdateKind::SetProbability, 0, span);
        Ok(UpdateReport {
            kind: UpdateKind::SetProbability,
            fact,
            moved: None,
            structural: false,
            no_op: false,
            epoch,
            invalidated_lineages: 0,
        })
    }

    /// Resolves an instance handle to its index, typed-rejecting handles
    /// from another session.
    fn check_instance(&self, id: InstanceId) -> Result<usize, UpdateError> {
        if id.0 < self.instances.len() {
            Ok(id.0)
        } else {
            Err(UpdateError::UnknownInstance(id.0))
        }
    }

    /// The instance's encoding plan, built at the first structural update
    /// and shared afterwards (accepted updates preserve the domain it is
    /// pinned to).
    fn plan(&mut self, i: usize) -> Result<Arc<EncodingPlan>, UpdateError> {
        if let Some(plan) = &self.instances[i].plan {
            return Ok(plan.clone());
        }
        let entry = &self.instances[i];
        let plan = EncodingPlan::new_trusted(&entry.instance, &entry.decomposition)
            .map_err(|e| UpdateError::Encoding(e.to_string()))?;
        let arc = Arc::new(plan);
        self.instances[i].plan = Some(arc.clone());
        Ok(arc)
    }

    /// Opens the span of one applied update.
    fn update_span(&self, kind: UpdateKind, instance: usize) -> Span {
        let mut span = self.config.telemetry.span("update");
        span.label("kind", kind.as_str());
        span.label("instance", instance);
        span
    }

    /// Closes an update's span and feeds the `updates_total{kind}` counter
    /// and `dirty_lineages` label.
    fn record_update(&self, kind: UpdateKind, invalidated: usize, mut span: Span) {
        span.label("invalidated_lineages", invalidated);
        drop(span);
        self.config
            .telemetry
            .counter_add("updates_total", &[("kind", kind.as_str())], 1);
    }

    /// Invalidates every structural cache layer of one instance: the tree
    /// encoding is dropped, and the instance's resident lineages move to
    /// the stale set, keeping their fragment libraries for incremental
    /// recompilation. Returns how many lineages were evicted.
    fn invalidate_structural(&self, i: usize) -> usize {
        *lock_recovering(&self.instances[i].encoding) = None;
        let harvested = lock_recovering(&self.lineages).take_matching(|&(_, inst)| inst == i);
        let count = harvested.len();
        if count > 0 {
            let mut stale = lock_recovering(&self.stale);
            for (key, lineage) in harvested {
                stale.insert(key, lineage);
            }
            self.counters
                .lineages_invalidated
                .fetch_add(count, Ordering::Relaxed);
        }
        count
    }

    /// Snapshot of the session's cache counters.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            requests: self.counters.requests.load(Ordering::Relaxed),
            lineage_hits: self.counters.lineage_hits.load(Ordering::Relaxed),
            lineage_misses: self.counters.lineage_misses.load(Ordering::Relaxed),
            machines_built: self.counters.machines_built.load(Ordering::Relaxed),
            encodings_built: self.counters.encodings_built.load(Ordering::Relaxed),
            float_decisions: self.counters.float_decisions.load(Ordering::Relaxed),
            exact_fallbacks: self.counters.exact_fallbacks.load(Ordering::Relaxed),
            monte_carlo_fallbacks: self.counters.monte_carlo_fallbacks.load(Ordering::Relaxed),
            worker_panics: self.counters.worker_panics.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            updates_insert: self.counters.updates_insert.load(Ordering::Relaxed),
            updates_retract: self.counters.updates_retract.load(Ordering::Relaxed),
            updates_set_probability: self
                .counters
                .updates_set_probability
                .load(Ordering::Relaxed),
            fragments_recompiled: self.counters.fragments_recompiled.load(Ordering::Relaxed),
            fragments_reused: self.counters.fragments_reused.load(Ordering::Relaxed),
            lineages_invalidated: self.counters.lineages_invalidated.load(Ordering::Relaxed),
        }
    }

    /// Occupancy and capacity of every cache layer, for capacity planning
    /// (are evictions churning?) and leak spotting.
    pub fn cache_occupancy(&self) -> CacheOccupancy {
        // Guards in a struct literal would live to the end of the whole
        // expression — locking the same cache twice there deadlocks, so
        // each lock is scoped to its own statement.
        let (lineage_entries, lineage_capacity) = {
            let lineages = lock_recovering(&self.lineages);
            (lineages.len(), lineages.capacity())
        };
        let (machine_entries, machine_capacity) = {
            let machines = lock_recovering(&self.machines);
            (machines.len(), machines.capacity())
        };
        CacheOccupancy {
            lineage_entries,
            lineage_capacity,
            machine_entries,
            machine_capacity,
            encodings: self
                .instances
                .iter()
                .filter(|e| lock_recovering(&e.encoding).is_some())
                .count(),
        }
    }

    /// The session's full observability surface as one stable
    /// [`MetricsSnapshot`]: the telemetry registry's counters, gauges,
    /// histograms and span aggregates (empty when [`EngineConfig::telemetry`]
    /// is disabled), merged with the always-on session layers — the
    /// [`SessionStats`] counters (as `session_*` counter series) and the
    /// cache occupancy/capacity gauges. Export with
    /// [`MetricsSnapshot::to_json_lines`] or
    /// [`MetricsSnapshot::to_prometheus`].
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.config.telemetry.snapshot();
        let stats = self.stats();
        for (name, value) in [
            ("session_requests_total", stats.requests),
            ("session_lineage_hits_total", stats.lineage_hits),
            ("session_lineage_misses_total", stats.lineage_misses),
            ("session_machines_built_total", stats.machines_built),
            ("session_encodings_built_total", stats.encodings_built),
            ("session_float_decisions_total", stats.float_decisions),
            ("session_exact_fallbacks_total", stats.exact_fallbacks),
            (
                "session_monte_carlo_fallbacks_total",
                stats.monte_carlo_fallbacks,
            ),
            ("session_worker_panics_total", stats.worker_panics),
            ("session_errors_total", stats.errors),
            (
                "session_fragments_recompiled_total",
                stats.fragments_recompiled,
            ),
            ("session_fragments_reused_total", stats.fragments_reused),
            (
                "session_lineages_invalidated_total",
                stats.lineages_invalidated,
            ),
        ] {
            snap.push_counter(name, &[], value as u64);
        }
        for (kind, value) in [
            ("insert", stats.updates_insert),
            ("retract", stats.updates_retract),
            ("set_probability", stats.updates_set_probability),
        ] {
            snap.push_counter("session_updates_total", &[("kind", kind)], value as u64);
        }
        let occupancy = self.cache_occupancy();
        for (name, value) in [
            ("lineage_cache_entries", occupancy.lineage_entries),
            ("lineage_cache_capacity", occupancy.lineage_capacity),
            ("query_cache_entries", occupancy.machine_entries),
            ("query_cache_capacity", occupancy.machine_capacity),
            ("instance_encodings", occupancy.encodings),
        ] {
            snap.push_gauge(name, &[], value as i64);
        }
        snap
    }

    /// Evaluates a batch of probability requests. Shared compile work is
    /// deduplicated (each distinct (query, instance) pair compiles at most
    /// once, then hits the session cache on later batches); compiles and
    /// evaluations run concurrently on the configured thread count.
    ///
    /// Always exact — under [`SessionBackend::FloatFirst`] the approximate
    /// tiers serve [`EvalSession::batch_threshold`] and
    /// [`EvalSession::batch_probability_f64`]; a caller asking for the
    /// exact rational gets the exact rational.
    ///
    /// A malformed request (unknown handle, short valuation) is that
    /// request's [`EngineError::InvalidRequest`]; a panic inside one
    /// request's evaluation is contained to that request as
    /// [`EngineError::WorkerPanicked`]. Either way the rest of the batch and
    /// the session itself stay usable.
    pub fn batch_probability(
        &self,
        requests: &[ProbabilityRequest],
    ) -> Vec<Result<Rational, EngineError>> {
        self.serve(
            "probability",
            requests,
            |r| self.check_valuation(r.query, r.instance, &r.valuation),
            |r, _, lineage, threads| {
                let p = lineage
                    .clone()?
                    .probability(&|v| r.valuation.probability(FactId(v)).clone(), threads);
                Ok((p, DecisionTier::Exact))
            },
        )
    }

    /// The one request pipeline behind every batch method. It counts the
    /// batch, validates each request with `check` on the caller's thread
    /// ([`EvalSession::check_request`]), and compiles or fetches each
    /// distinct (query, instance) pair once
    /// ([`EvalSession::compile_pairs`]). Then it answers each valid request
    /// on the pool under its own latency timer and root span, with panics
    /// contained to the request. `answer` gets the request, its pair, the
    /// pair's lineage and the inner thread count, and returns the result
    /// with the tier that served it.
    fn serve<R: Sync, T: Send>(
        &self,
        kind: &'static str,
        requests: &[R],
        check: impl Fn(&R) -> Result<(usize, usize), EngineError>,
        answer: impl Fn(&R, (usize, usize), &Artifact, usize) -> Answer<T> + Sync,
    ) -> Vec<Result<T, EngineError>> {
        self.counters
            .requests
            .fetch_add(requests.len(), Ordering::Relaxed);
        let checked: Vec<_> = requests.iter().map(check).collect();
        let artifacts = self.compile_pairs(checked.iter().flatten().copied());
        let eval_threads = self.eval_threads(requests.len());
        let results = run_tasks_catching(
            self.config.threads,
            requests.len(),
            &self.config.telemetry,
            |i| {
                let pair = checked[i].clone()?;
                let started = self.timer();
                let span = self.request_span(kind);
                let (value, tier) = answer(&requests[i], pair, &artifacts[&pair], eval_threads)?;
                self.record_request(kind, tier, started, span);
                Ok(value)
            },
        );
        self.flatten_caught(results)
    }

    /// Validates one request before any work is scheduled: both handles
    /// must name entries registered with this session, and every per-fact
    /// vector — given as `(name, length)` — must cover the instance.
    /// Returns the `(query, instance)` indices. The one check behind every
    /// batch method, [`EvalSession::explain`],
    /// [`EvalSession::lineage_artifact`] and [`EvalSession::cold_lineage`].
    fn check_request(
        &self,
        query: QueryId,
        instance: InstanceId,
        per_fact: &[(&str, usize)],
    ) -> Result<(usize, usize), EngineError> {
        let (q, i) = (query.0, instance.0);
        if q >= self.queries.len() {
            return Err(EngineError::InvalidRequest(format!(
                "unknown query handle {q} ({} registered)",
                self.queries.len()
            )));
        }
        let Some(entry) = self.instances.get(i) else {
            return Err(EngineError::InvalidRequest(format!(
                "unknown instance handle {i} ({} registered)",
                self.instances.len()
            )));
        };
        let facts = entry.instance.fact_count();
        if let Some((name, len)) = per_fact.iter().find(|(_, len)| *len != facts) {
            return Err(EngineError::InvalidRequest(format!(
                "{name} covers {len} facts but instance {i} has {facts}"
            )));
        }
        Ok((q, i))
    }

    /// [`EvalSession::check_request`] for a request carrying a valuation.
    fn check_valuation(
        &self,
        query: QueryId,
        instance: InstanceId,
        valuation: &ProbabilityValuation,
    ) -> Result<(usize, usize), EngineError> {
        self.check_request(query, instance, &[("valuation", valuation.len())])
    }

    /// Converts caught worker panics into per-request typed errors, counting
    /// every panic and every failed request into the session stats.
    fn flatten_caught<T>(
        &self,
        results: Vec<Result<Result<T, EngineError>, String>>,
    ) -> Vec<Result<T, EngineError>> {
        let out: Vec<Result<T, EngineError>> = results
            .into_iter()
            .map(|r| match r {
                Ok(inner) => inner,
                Err(message) => {
                    self.counters.worker_panics.fetch_add(1, Ordering::Relaxed);
                    Err(EngineError::WorkerPanicked(message))
                }
            })
            .collect();
        let failed = out.iter().filter(|r| r.is_err()).count();
        if failed > 0 {
            self.counters.errors.fetch_add(failed, Ordering::Relaxed);
        }
        out
    }

    /// Starts a per-request latency timer; `None` — and no clock read at
    /// all — when telemetry is disabled.
    fn timer(&self) -> Option<Instant> {
        if self.config.telemetry.is_enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Opens the root span of one request's trace: every span the request
    /// opens afterwards — on this thread or on pool workers that inherit
    /// the context — parents into it, so the whole request renders as one
    /// connected tree in the Chrome-trace export. A no-op guard when
    /// telemetry is disabled.
    fn request_span(&self, kind: &'static str) -> Span {
        let mut span = self.config.telemetry.span_root("request");
        span.label("kind", kind);
        span
    }

    /// Records one served request into the `requests_total{kind,tier}`
    /// counter and the `request_latency_ns{kind,tier}` histogram, closing
    /// its root span (so the span ring sees the finished request) and
    /// feeding the flight recorder.
    fn record_request(
        &self,
        kind: &'static str,
        tier: DecisionTier,
        started: Option<Instant>,
        mut span: Span,
    ) {
        span.label("tier", tier.as_str());
        let trace = span.context().map(|c| c.trace);
        // Close the request span first so the flight recorder's trace
        // lookup below sees it in the ring.
        drop(span);
        if let Some(start) = started {
            let duration_ns = start.elapsed().as_nanos() as u64;
            let labels = [("kind", kind), ("tier", tier.as_str())];
            let telemetry = &self.config.telemetry;
            telemetry.counter_add("requests_total", &labels, 1);
            telemetry.observe_ns("request_latency_ns", &labels, duration_ns);
            if let Some(trace) = trace {
                self.flight_record(kind, tier, duration_ns, trace);
            }
        }
    }

    /// Offers one finished request to the flight recorder: requests at or
    /// above [`EngineConfig::flight_recorder_threshold_ns`] compete for the
    /// [`EngineConfig::flight_recorder_capacity`] slots, slowest kept. The
    /// span subtree is snapshotted from the ring only when the request
    /// actually qualifies, so the fast path never clones events.
    fn flight_record(&self, kind: &'static str, tier: DecisionTier, duration_ns: u64, trace: u64) {
        let capacity = self.config.flight_recorder_capacity;
        if capacity == 0 || duration_ns < self.config.flight_recorder_threshold_ns {
            return;
        }
        {
            let flight = lock_recovering(&self.flight);
            if flight.len() >= capacity
                && flight
                    .last()
                    .is_some_and(|slowest| duration_ns <= slowest.duration_ns)
            {
                return;
            }
        }
        let spans = self.config.telemetry.events_for_trace(trace);
        let mut flight = lock_recovering(&self.flight);
        flight.push(SlowRequest {
            kind,
            tier,
            duration_ns,
            trace,
            spans,
        });
        flight.sort_by_key(|r| std::cmp::Reverse(r.duration_ns));
        flight.truncate(capacity);
    }

    /// The flight recorder's current contents: the slowest requests (at or
    /// above the configured latency threshold) seen so far, slowest first,
    /// each with the full span subtree of its trace. Empty when telemetry
    /// is disabled or no request has crossed the threshold.
    pub fn slow_requests(&self) -> Vec<SlowRequest> {
        lock_recovering(&self.flight).clone()
    }

    /// Evaluates a batch of general weighted-model-count requests. Always
    /// served from the automaton backend's smooth d-SDNNF (one pass per
    /// request), mirroring how the core evaluator routes WMC. Malformed
    /// requests and panics fail per request as in
    /// [`EvalSession::batch_probability`].
    pub fn batch_wmc(&self, requests: &[WmcRequest]) -> Vec<Result<Rational, EngineError>> {
        self.serve(
            "wmc",
            requests,
            |r| {
                let per_fact = [("pos weights", r.pos.len()), ("neg weights", r.neg.len())];
                self.check_request(r.query, r.instance, &per_fact)
            },
            |r, _, lineage, threads| {
                let w = lineage
                    .clone()?
                    .wmc(&|v| r.pos[v].clone(), &|v| r.neg[v].clone(), threads);
                Ok((w, DecisionTier::Exact))
            },
        )
    }

    /// The float fast-path: evaluates a batch of probability requests with
    /// one certified-interval f64 pass per request, returning the point
    /// estimate (interval midpoint) together with the [`ErrorInterval`]
    /// guaranteed to contain the exact rational answer. The pass is linear
    /// in the circuit size with `f64` gate operations.
    ///
    /// Under [`SessionBackend::FloatFirst`], a (query, instance) pair whose
    /// compilation exceeds the state budget degrades to the Karp–Luby
    /// estimator with the session's `(ε, δ)`; its interval is then the
    /// *probabilistic* `(ε, δ)` bound, not a certified enclosure.
    pub fn batch_probability_f64(
        &self,
        requests: &[ProbabilityRequest],
    ) -> Vec<Result<(f64, ErrorInterval), EngineError>> {
        self.serve(
            "probability_f64",
            requests,
            |r| self.check_valuation(r.query, r.instance, &r.valuation),
            |r, pair, lineage, threads| {
                let served = self.tiered(pair, &r.valuation, lineage, threads, true, None)?;
                Ok(((served.estimate(), served.interval()), served.tier()))
            },
        )
    }

    /// Decides a batch of threshold requests, picking the cheapest sound
    /// tier per request (see [`ThresholdRequest`] / [`DecisionTier`]):
    ///
    /// * on [`SessionBackend::FloatFirst`]: the certified f64 interval pass
    ///   decides when the threshold lies strictly outside the interval
    ///   ([`DecisionTier::Float`]); otherwise the request falls back to the
    ///   exact rational pass ([`DecisionTier::Exact`]) — so the decision is
    ///   always *bit-identical* to what an exact backend would return (the
    ///   containment contract `exact ∈ interval` makes the float answer
    ///   sound whenever it is used). Pairs whose compilation blows the
    ///   state budget degrade to Karp–Luby ([`DecisionTier::MonteCarlo`]),
    ///   the only probabilistic tier.
    /// * on [`SessionBackend::Automaton`]: every request is decided exactly.
    pub fn batch_threshold(
        &self,
        requests: &[ThresholdRequest],
    ) -> Vec<Result<ThresholdDecision, EngineError>> {
        let float_first = self.backend == SessionBackend::FloatFirst;
        self.serve(
            "threshold",
            requests,
            |r| self.check_valuation(r.query, r.instance, &r.valuation),
            |r, pair, lineage, threads| {
                let t = &r.threshold;
                let served =
                    self.tiered(pair, &r.valuation, lineage, threads, float_first, Some(t))?;
                let above = match &served {
                    Tiered::Float(interval) => {
                        self.counters
                            .float_decisions
                            .fetch_add(1, Ordering::Relaxed);
                        interval.compare_threshold(t) == Some(std::cmp::Ordering::Greater)
                    }
                    Tiered::Exact(p) => {
                        self.counters
                            .exact_fallbacks
                            .fetch_add(1, Ordering::Relaxed);
                        p > t
                    }
                    Tiered::MonteCarlo(estimate, _) => *estimate > t.to_f64(),
                };
                let tier = served.tier();
                let interval = served.interval();
                Ok((
                    ThresholdDecision {
                        above,
                        tier,
                        interval,
                    },
                    tier,
                ))
            },
        )
    }

    /// The tier policy shared by [`EvalSession::batch_probability_f64`],
    /// [`EvalSession::batch_threshold`] and [`EvalSession::explain`], in
    /// order:
    ///
    /// 1. a pair whose compilation blew the state budget degrades to the
    ///    Karp–Luby estimator under [`SessionBackend::FloatFirst`], with the
    ///    session's `(ε, δ)` and a seed fixed per (query, instance) pair;
    ///    any other compile error is the request's error;
    /// 2. when `float` is set, the certified interval pass answers, unless
    ///    a `threshold` is given and lands inside the interval;
    /// 3. otherwise the exact rational pass answers.
    fn tiered(
        &self,
        (query, instance): (usize, usize),
        valuation: &ProbabilityValuation,
        lineage: &Artifact,
        threads: usize,
        float: bool,
        threshold: Option<&Rational>,
    ) -> Result<Tiered, EngineError> {
        let lineage = match lineage {
            Ok(lineage) => lineage,
            Err(e) => {
                let budget_exceeded = matches!(
                    e,
                    EngineError::QueryCompile(CompileError::StateBudget { .. })
                );
                if !budget_exceeded || self.backend != SessionBackend::FloatFirst {
                    return Err(e.clone());
                }
                let (epsilon, delta) = (self.config.epsilon, self.config.delta);
                for (field, value) in [("epsilon", epsilon), ("delta", delta)] {
                    if !(0.0 < value && value < 1.0) {
                        return Err(EngineError::InvalidRequest(format!(
                            "EngineConfig::{field} must lie in (0, 1) for the Karp–Luby \
                             fallback, got {value}"
                        )));
                    }
                }
                self.counters
                    .monte_carlo_fallbacks
                    .fetch_add(1, Ordering::Relaxed);
                let seed = 0x9E37_79B9_7F4A_7C15u64 ^ ((query as u64) << 32) ^ instance as u64;
                let estimate = karp_luby_probability(
                    &self.queries[query],
                    &self.instances[instance].instance,
                    valuation,
                    epsilon,
                    delta,
                    seed,
                );
                return Ok(Tiered::MonteCarlo(estimate.estimate, estimate.interval()));
            }
        };
        if float {
            let interval = lineage.probability_interval(
                &|v| ErrorInterval::from_rational(valuation.probability(FactId(v))),
                threads,
            );
            if threshold.is_none_or(|t| interval.compare_threshold(t).is_some()) {
                return Ok(Tiered::Float(interval));
            }
        }
        let exact = lineage.probability(&|v| valuation.probability(FactId(v)).clone(), threads);
        Ok(Tiered::Exact(exact))
    }

    /// Evaluates a batch of model-count requests (number of satisfying
    /// subinstances over the full fact universe). Malformed requests and
    /// panics fail per request as in [`EvalSession::batch_probability`].
    pub fn batch_model_count(
        &self,
        requests: &[(QueryId, InstanceId)],
    ) -> Vec<Result<BigUint, EngineError>> {
        self.serve(
            "model_count",
            requests,
            |&(q, i)| self.check_request(q, i, &[]),
            |_, _, lineage, threads| {
                Ok((lineage.clone()?.model_count(threads), DecisionTier::Exact))
            },
        )
    }

    /// Serves one probability request on the caller's thread and reports
    /// *how*: backend and tier, what each cache layer contributed, compiled
    /// artifact sizes, and per-stage durations aggregated from the
    /// request's own trace (empty when telemetry is disabled). As in the
    /// batch methods, a malformed request (unknown handle, short valuation)
    /// is a typed [`EngineError::InvalidRequest`], not a panic.
    ///
    /// The request is a real one — it counts into [`SessionStats`] and the
    /// `requests_total{kind="explain"}` series, warms the same caches, and
    /// is served through the same tier policy as the approximate batch
    /// methods ([`SessionBackend::FloatFirst`] answers from the certified
    /// interval pass; [`SessionBackend::Automaton`] exactly). The
    /// cache-state fields report residency *before* this request ran.
    pub fn explain(&self, request: &ProbabilityRequest) -> Result<ExplainReport, EngineError> {
        let (q, i) = self.check_valuation(request.query, request.instance, &request.valuation)?;
        // Probe cache residency non-mutatingly, before serving warms the
        // layers — the report explains what the request *found*.
        let width = self.encoding_width(i);
        let machine_cached =
            width.is_some_and(|w| lock_recovering(&self.machines).peek(&(q, w)).is_some());
        let lineage_cached = lock_recovering(&self.lineages).peek(&(q, i)).is_some();
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let started = self.timer();
        let span = self.request_span("explain");
        let trace = span.context().map(|c| c.trace);
        // Served on the caller's stack with the request span open, so every
        // compile/eval span parents into the request's trace.
        let threads = self.config.threads;
        let lineage = self.lineage(q, i, threads);
        let float_first = self.backend == SessionBackend::FloatFirst;
        let served = match self.tiered(
            (q, i),
            &request.valuation,
            &lineage,
            threads,
            float_first,
            None,
        ) {
            Ok(served) => served,
            Err(e) => {
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                drop(span);
                return Err(e);
            }
        };
        let tier = served.tier();
        self.record_request("explain", tier, started, span);
        let events = match trace {
            Some(t) => self.config.telemetry.events_for_trace(t),
            None => Vec::new(),
        };
        let total_ns = events
            .iter()
            .filter(|e| e.name == "request")
            .map(|e| e.duration_ns)
            .max()
            .unwrap_or(0);
        let mut by_stage: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for event in &events {
            if event.name == "request" {
                continue;
            }
            let slot = by_stage.entry(event.name).or_insert((0, 0));
            slot.0 += 1;
            slot.1 += event.duration_ns;
        }
        let stages = by_stage
            .into_iter()
            .map(|(name, (count, total_ns))| StageTiming {
                name,
                count,
                total_ns,
            })
            .collect();
        let artifact = lineage.as_ref().ok();
        // The machine is resident after the lineage compiled; report its
        // deterministic-state memo without rematerializing.
        let automaton_states = artifact
            .and(self.encoding_width(i))
            .and_then(|w| lock_recovering(&self.machines).get(&(q, w)))
            .map(|machine| lock_recovering(&machine).state_count());
        let live = artifact.and_then(|_| {
            lock_recovering(&self.lineages)
                .peek(&(q, i))
                .map(|c| c.live)
        });
        Ok(ExplainReport {
            backend: self.backend.as_str(),
            tier,
            estimate: served.estimate(),
            interval_width: match served {
                Tiered::Exact(_) => 0.0,
                _ => served.interval().width(),
            },
            encoding_cached: width.is_some(),
            machine_cached,
            lineage_cached,
            automaton_states,
            live_states_mean: live.map(|l| l.mean),
            live_states_max: live.map(|l| l.max),
            gates: artifact.map(|l| l.size()),
            vtree_nodes: artifact.map(|l| l.structured().vtree().node_count()),
            fragments: artifact.map(|l| l.partition().fragments().len()),
            trace,
            total_ns,
            stages,
        })
    }

    /// The alphabet width of the instance's tree encoding, `None` while the
    /// encoding is not resident.
    fn encoding_width(&self, instance: usize) -> Option<usize> {
        lock_recovering(&self.instances[instance].encoding)
            .as_ref()
            .map(|e| e.alphabet().width())
    }

    /// Compiles (or fetches) the lineage of every distinct (query,
    /// instance) pair of a batch, in parallel across pairs. Inner subtree
    /// parallelism is enabled only when the batch has a single pair —
    /// otherwise the pair-level parallelism already saturates the pool.
    fn compile_pairs(
        &self,
        pairs: impl Iterator<Item = (usize, usize)>,
    ) -> BTreeMap<(usize, usize), Artifact> {
        let unique: Vec<(usize, usize)> = pairs.collect::<BTreeSet<_>>().into_iter().collect();
        let inner_threads = self.eval_threads(unique.len());
        let compiled = run_tasks(
            self.config.threads,
            unique.len(),
            &self.config.telemetry,
            |k| {
                // One span per pair: a cold compile's encode/compile spans
                // all parent under it (joining the spawning request's trace
                // via the inherited context), instead of floating as roots.
                let mut span = self.config.telemetry.span("compile_pair");
                span.label("query", unique[k].0);
                span.label("instance", unique[k].1);
                self.lineage(unique[k].0, unique[k].1, inner_threads)
            },
        );
        unique.into_iter().zip(compiled).collect()
    }

    /// Inner (per-task) thread count: full fan-out for a lone task, no
    /// nesting once the task set itself saturates the pool.
    fn eval_threads(&self, task_count: usize) -> usize {
        if task_count <= 1 {
            self.config.threads
        } else {
            1
        }
    }

    /// The lineage d-SDNNF of (query, instance), through the session
    /// caches. Concurrent misses on the same pair may compile twice; the
    /// construction is deterministic, so both results are identical and
    /// either may be cached. The fragment *plan* always uses the session's
    /// full thread count (so cached artifacts carry the partition later
    /// fragment-parallel evaluations need) while `pool_threads` bounds the
    /// workers this particular compile may spawn — 1 when the batch itself
    /// already saturates the pool.
    fn lineage(&self, query: usize, instance: usize, pool_threads: usize) -> Artifact {
        if let Some(hit) = lock_recovering(&self.lineages).get(&(query, instance)) {
            self.counters.lineage_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit.artifact);
        }
        self.counters.lineage_misses.fetch_add(1, Ordering::Relaxed);
        let encoding = self.encoding(instance)?;
        let machine = self.machine(query, encoding.alphabet().width())?;
        let (automaton, live) = lock_recovering(&machine)
            .materialize(encoding.tree())
            .map_err(EngineError::QueryCompile)?;
        // A structural update may have parked this pair's fragment library.
        // Gate numbering depends on the machine's memo history, so the
        // library replays only against the machine object that built it —
        // anything else (an evicted-and-rebuilt machine) compiles cold.
        let previous = lock_recovering(&self.stale)
            .remove(&(query, instance))
            .filter(|parked| Weak::as_ptr(&parked.machine) == Arc::as_ptr(&machine));
        let compiled = compile_with_pool_cached(
            &automaton,
            encoding.tree(),
            &self.config,
            pool_threads,
            previous.as_ref().map(|parked| parked.library.as_ref()),
        )
        .map_err(|e| EngineError::Provenance(e.to_string()))?;
        if previous.is_some() {
            let stats = compiled.stats;
            self.counters
                .fragments_recompiled
                .fetch_add(stats.recompiled, Ordering::Relaxed);
            self.counters
                .fragments_reused
                .fetch_add(stats.reused, Ordering::Relaxed);
            let telemetry = &self.config.telemetry;
            telemetry.gauge_set("dirty_fragments", &[], stats.recompiled as i64);
            telemetry.counter_add("fragments_recompiled_total", &[], stats.recompiled as u64);
        }
        let arc = Arc::new(compiled.artifact);
        lock_recovering(&self.lineages).insert(
            (query, instance),
            CachedLineage {
                artifact: arc.clone(),
                live,
                machine: Arc::downgrade(&machine),
                library: Arc::new(compiled.library),
            },
        );
        Ok(arc)
    }

    /// The cached lineage d-SDNNF of a (query, instance) pair through the
    /// session caches — the incremental path's artifact, for callers that
    /// want the circuit itself (the update differential suite, benches)
    /// rather than an answer. Compiles on miss like any request would.
    pub fn lineage_artifact(
        &self,
        query: QueryId,
        instance: InstanceId,
    ) -> Result<Arc<ParallelDnnf>, EngineError> {
        let (q, i) = self.check_request(query, instance, &[])?;
        self.lineage(q, i, self.config.threads)
    }

    /// The byte-identity oracle behind the update differential suite (and
    /// perfbench's answer check after writes): compiles the
    /// pair's lineage from scratch — fresh tree encoding, every fragment
    /// recompiled, no lineage-cache read or write — through the *same*
    /// cached query machine the incremental path uses. Gate numbering
    /// depends on the machine's memo history, so byte-identity of
    /// incremental against cold is meaningful exactly when both run through
    /// one machine; a fresh session would number states differently.
    pub fn cold_lineage(
        &self,
        query: QueryId,
        instance: InstanceId,
    ) -> Result<ParallelDnnf, EngineError> {
        let (q, i) = self.check_request(query, instance, &[])?;
        let entry = &self.instances[i];
        let encoding = treelineage_encoding::encode_traced(
            &entry.instance,
            &entry.decomposition,
            &self.config.telemetry,
        )
        .map_err(EngineError::Encoding)?;
        let machine = self.machine(q, encoding.alphabet().width())?;
        let automaton = lock_recovering(&machine)
            .automaton_for(encoding.tree())
            .map_err(EngineError::QueryCompile)?;
        crate::parallel::compile_with_pool(
            &automaton,
            encoding.tree(),
            &self.config,
            self.config.threads,
        )
        .map_err(|e| EngineError::Provenance(e.to_string()))
    }

    /// The instance's tree encoding, built on first use.
    fn encoding(&self, instance: usize) -> Result<Arc<TreeEncoding>, EngineError> {
        let entry = &self.instances[instance];
        let mut slot = lock_recovering(&entry.encoding);
        if let Some(encoding) = slot.as_ref() {
            return Ok(encoding.clone());
        }
        self.counters
            .encodings_built
            .fetch_add(1, Ordering::Relaxed);
        // Trusted: the decomposition was validated (or is valid by
        // construction) at registration.
        let encoding = treelineage_encoding::encode_traced(
            &entry.instance,
            &entry.decomposition,
            &self.config.telemetry,
        )
        .map_err(EngineError::Encoding)?;
        let arc = Arc::new(encoding);
        *slot = Some(arc.clone());
        Ok(arc)
    }

    /// The compiled query machine for (query, width), built on first use.
    /// The machine's own deterministic-state memo persists across every
    /// instance of that width.
    fn machine(
        &self,
        query: usize,
        width: usize,
    ) -> Result<Arc<Mutex<CompiledQuery>>, EngineError> {
        if let Some(hit) = lock_recovering(&self.machines).get(&(query, width)) {
            return Ok(hit);
        }
        self.counters.machines_built.fetch_add(1, Ordering::Relaxed);
        let alphabet =
            treelineage_encoding::EncodingAlphabet::new(self.queries[query].signature(), width)
                .map_err(|e| EngineError::Encoding(EncodingError::Alphabet(e)))?;
        let options = CompileOptions {
            state_budget: self.config.state_budget,
            telemetry: self.config.telemetry.clone(),
        };
        let machine = compile_ucq(&self.queries[query], &alphabet, options)
            .map_err(EngineError::QueryCompile)?;
        let arc = Arc::new(Mutex::new(machine));
        lock_recovering(&self.machines).insert((query, width), arc.clone());
        Ok(arc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelineage_instance::Signature;
    use treelineage_query::parse_query;

    fn rst() -> Signature {
        Signature::builder()
            .relation("R", 1)
            .relation("S", 2)
            .relation("T", 1)
            .build()
    }

    fn chain(n: usize) -> Instance {
        let mut inst = Instance::new(rst());
        for i in 0..n as u64 {
            inst.add_fact_by_name("R", &[i]);
            inst.add_fact_by_name("S", &[i, i + 1]);
            inst.add_fact_by_name("T", &[i + 1]);
        }
        inst
    }

    fn session_with(backend: SessionBackend) -> (EvalSession, QueryId, InstanceId) {
        let mut session = EvalSession::with_backend(EngineConfig::with_threads(2), backend);
        let q = session.register_query(parse_query(&rst(), "R(x), S(x, y), T(y)").unwrap());
        let i = session.register_instance(chain(4));
        (session, q, i)
    }

    #[test]
    fn batches_agree_across_backends_and_hit_the_caches() {
        let (auto, q, i) = session_with(SessionBackend::Automaton);
        let (float, q2, i2) = session_with(SessionBackend::FloatFirst);
        let valuation =
            ProbabilityValuation::uniform(auto.instance(i), Rational::from_ratio_u64(1, 3));
        let requests: Vec<ProbabilityRequest> = (0..6)
            .map(|_| ProbabilityRequest {
                query: q,
                instance: i,
                valuation: valuation.clone(),
            })
            .collect();
        let got_auto = auto.batch_probability(&requests);
        let requests_float: Vec<ProbabilityRequest> = requests
            .iter()
            .map(|r| ProbabilityRequest {
                query: q2,
                instance: i2,
                ..r.clone()
            })
            .collect();
        // Float-first is a serving policy: exact batches answer exactly.
        let got_float = float.batch_probability(&requests_float);
        assert_eq!(got_auto, got_float);
        assert!(got_auto.iter().all(|r| r == &got_auto[0]));
        // Six requests, one distinct pair: exactly one compile each.
        assert_eq!(auto.stats().lineage_misses, 1);
        assert_eq!(float.stats().lineage_misses, 1);
        // Second batch: pure cache hits.
        let again = auto.batch_probability(&requests);
        assert_eq!(again, got_auto);
        assert_eq!(auto.stats().lineage_misses, 1);
        assert!(auto.stats().lineage_hits >= 1);
    }

    #[test]
    fn model_counts_match_across_backends() {
        let (auto, q, i) = session_with(SessionBackend::Automaton);
        let (float, q2, i2) = session_with(SessionBackend::FloatFirst);
        let a = auto.batch_model_count(&[(q, i), (q, i)]);
        let f = float.batch_model_count(&[(q2, i2)]);
        assert_eq!(a[0], a[1]);
        assert_eq!(a[0], f[0]);
        // Duplicate pairs compile once; every request is served.
        assert_eq!(auto.stats().lineage_misses, 1);
        assert_eq!(auto.stats().requests, 2);
    }

    #[test]
    fn wmc_batches_with_general_weights() {
        let (session, q, i) = session_with(SessionBackend::Automaton);
        let n = session.instance(i).fact_count();
        let pos: Vec<Rational> = (0..n)
            .map(|f| Rational::from_ratio_u64(f as u64 + 2, 3))
            .collect();
        let neg: Vec<Rational> = (0..n)
            .map(|f| Rational::from_ratio_u64(1, f as u64 + 1))
            .collect();
        let got = session.batch_wmc(&[WmcRequest {
            query: q,
            instance: i,
            pos: pos.clone(),
            neg: neg.clone(),
        }]);
        // pos = neg = 1 counts models.
        let ones: Vec<Rational> = (0..n).map(|_| Rational::one()).collect();
        let counts = session.batch_wmc(&[WmcRequest {
            query: q,
            instance: i,
            pos: ones.clone(),
            neg: ones,
        }]);
        let models = session.batch_model_count(&[(q, i)]);
        assert_eq!(
            counts[0].clone().unwrap(),
            Rational::from_biguint(models[0].clone().unwrap())
        );
        assert!(got[0].is_ok());
    }

    #[test]
    fn queries_are_deduplicated_and_caches_capped() {
        let mut session = EvalSession::new(EngineConfig {
            lineage_cache_cap: 1,
            ..EngineConfig::default()
        });
        let q1 = session.register_query(parse_query(&rst(), "R(x)").unwrap());
        let q2 = session.register_query(parse_query(&rst(), "R(x)").unwrap());
        assert_eq!(q1, q2);
        let q3 = session.register_query(parse_query(&rst(), "T(x)").unwrap());
        assert_ne!(q1, q3);
        let i = session.register_instance(chain(2));
        // Two pairs through a cap-1 cache: second batch of the first pair
        // must recompile (evicted), and results must still be identical.
        let first = session.batch_model_count(&[(q1, i)]);
        let _ = session.batch_model_count(&[(q3, i)]);
        let second = session.batch_model_count(&[(q1, i)]);
        assert_eq!(first, second);
        assert_eq!(session.stats().lineage_misses, 3);
    }

    #[test]
    fn invalid_decomposition_is_rejected_at_registration() {
        let mut session = EvalSession::new(EngineConfig::default());
        let result =
            session.register_instance_with_decomposition(chain(2), TreeDecomposition::new());
        assert!(matches!(result, Err(EngineError::InvalidDecomposition(_))));
    }

    #[test]
    fn lru_cache_keeps_hot_entries_across_churn() {
        // A repeatedly-hit entry must survive cap-sized churn of cold
        // entries (the old insertion-order eviction dropped it first).
        let mut cache: CacheMap<usize, usize> = CacheMap::new(3);
        cache.insert(0, 100); // the hot entry, registered first
        for cold in 1..20 {
            cache.insert(cold, cold);
            assert_eq!(cache.get(&0), Some(100), "hot entry evicted at {cold}");
        }
        // The cold entries churned: only the most recent survive.
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.get(&19), Some(19));
    }

    #[test]
    fn malformed_requests_fail_alone_with_typed_errors() {
        // Handles minted by a session with more registrations are out of
        // range here; a valuation over a smaller instance is too short.
        let mut other = EvalSession::new(EngineConfig::default());
        other.register_query(parse_query(&rst(), "R(x)").unwrap());
        let foreign_query = other.register_query(parse_query(&rst(), "T(x)").unwrap());
        other.register_instance(chain(1));
        let foreign_instance = other.register_instance(chain(2));
        // Per request: served, or rejected as malformed.
        fn outcomes<T>(results: &[Result<T, EngineError>]) -> Vec<&'static str> {
            results
                .iter()
                .map(|r| match r {
                    Ok(_) => "ok",
                    Err(EngineError::InvalidRequest(_)) => "invalid",
                    Err(_) => "other error",
                })
                .collect()
        }
        let expected = ["ok", "invalid", "invalid"];
        for backend in [SessionBackend::Automaton, SessionBackend::FloatFirst] {
            let (session, q, i) = session_with(backend);
            let good = ProbabilityValuation::uniform(session.instance(i), Rational::one_half());
            let short = ProbabilityValuation::uniform(&chain(1), Rational::one_half());
            let request = |instance, valuation: &ProbabilityValuation| ProbabilityRequest {
                query: q,
                instance,
                valuation: valuation.clone(),
            };
            let requests = [
                request(i, &good),
                request(foreign_instance, &good),
                request(i, &short),
            ];
            let results = session.batch_probability(&requests);
            assert_eq!(results[0], session.batch_probability(&requests[..1])[0]);
            assert_eq!(outcomes(&results), expected, "{backend:?}");
            let floats = session.batch_probability_f64(&requests);
            assert_eq!(outcomes(&floats), expected, "{backend:?}");
            let thresholds: Vec<ThresholdRequest> = requests
                .iter()
                .map(|r| ThresholdRequest {
                    query: r.query,
                    instance: r.instance,
                    valuation: r.valuation.clone(),
                    threshold: Rational::one_half(),
                })
                .collect();
            let decisions = session.batch_threshold(&thresholds);
            assert_eq!(outcomes(&decisions), expected, "{backend:?}");
            let counts =
                session.batch_model_count(&[(q, i), (foreign_query, i), (q, foreign_instance)]);
            assert_eq!(outcomes(&counts), expected, "{backend:?}");
            let stats = session.stats();
            assert_eq!(stats.worker_panics, 0, "{backend:?}");
            assert_eq!(stats.errors, 8, "{backend:?}");
        }
        let (session, q, i) = session_with(SessionBackend::Automaton);
        let facts = session.instance(i).fact_count();
        let weights = |n: usize| vec![Rational::one_half(); n];
        let wmc = |instance, pos: usize, neg: usize| WmcRequest {
            query: q,
            instance,
            pos: weights(pos),
            neg: weights(neg),
        };
        let results = session.batch_wmc(&[
            wmc(i, facts, facts),
            wmc(foreign_instance, facts, facts),
            wmc(i, facts, 1),
        ]);
        assert_eq!(outcomes(&results), expected);
        assert_eq!(session.stats().worker_panics, 0);
    }

    #[test]
    fn float_interval_contains_exact_probability() {
        let (session, q, i) = session_with(SessionBackend::FloatFirst);
        let n = session.instance(i).fact_count();
        let probs: Vec<Rational> = (0..n)
            .map(|f| Rational::from_ratio_u64(1, (f as u64 % 3) + 2))
            .collect();
        let valuation = ProbabilityValuation::from_probabilities(session.instance(i), probs);
        let request = ProbabilityRequest {
            query: q,
            instance: i,
            valuation,
        };
        let exact = session.batch_probability(std::slice::from_ref(&request))[0]
            .clone()
            .unwrap();
        let (estimate, interval) = session.batch_probability_f64(std::slice::from_ref(&request))[0]
            .clone()
            .unwrap();
        assert!(interval.contains(&exact));
        assert!(interval.contains_f64(estimate));
        assert!(interval.width() < 1e-12);
    }

    #[test]
    fn float_first_threshold_decisions_match_exact_backend() {
        let (float, qf, inf) = session_with(SessionBackend::FloatFirst);
        let (exact, qe, ine) = session_with(SessionBackend::Automaton);
        let valuation =
            ProbabilityValuation::uniform(float.instance(inf), Rational::from_ratio_u64(1, 3));
        let p = exact.batch_probability(&[ProbabilityRequest {
            query: qe,
            instance: ine,
            valuation: valuation.clone(),
        }])[0]
            .clone()
            .unwrap();
        // Thresholds: clearly below, clearly above, and exactly the answer
        // (which always lands inside the interval → exact fallback).
        let thresholds = [
            Rational::from_ratio_u64(1, 1000),
            Rational::from_ratio_u64(999, 1000),
            p.clone(),
        ];
        let make = |q: QueryId, i: InstanceId| -> Vec<ThresholdRequest> {
            thresholds
                .iter()
                .map(|t| ThresholdRequest {
                    query: q,
                    instance: i,
                    valuation: valuation.clone(),
                    threshold: t.clone(),
                })
                .collect()
        };
        let fast = float.batch_threshold(&make(qf, inf));
        let slow = exact.batch_threshold(&make(qe, ine));
        for (f, s) in fast.iter().zip(&slow) {
            // Bit-identical decisions regardless of which tier answered.
            assert_eq!(f.as_ref().unwrap().above, s.as_ref().unwrap().above);
        }
        // The clear thresholds were served from the float pass; the
        // exact-answer threshold fell back to the exact tier.
        assert_eq!(fast[0].as_ref().unwrap().tier, DecisionTier::Float);
        assert_eq!(fast[1].as_ref().unwrap().tier, DecisionTier::Float);
        assert_eq!(fast[2].as_ref().unwrap().tier, DecisionTier::Exact);
        assert_eq!(float.stats().float_decisions, 2);
        assert_eq!(float.stats().exact_fallbacks, 1);
        // The exact backend only has the exact tier.
        assert!(slow
            .iter()
            .all(|d| d.as_ref().unwrap().tier == DecisionTier::Exact));
    }

    #[test]
    fn budget_blowout_degrades_to_monte_carlo_under_float_first() {
        // A state budget of 1 is unsatisfiable for any real query: the
        // exact pipeline fails with StateBudget, and the float-first
        // session degrades to Karp–Luby instead of surfacing the error.
        let config = EngineConfig {
            state_budget: 1,
            epsilon: 0.02,
            delta: 0.02,
            ..EngineConfig::default()
        };
        let mut session = EvalSession::with_backend(config, SessionBackend::FloatFirst);
        let q = session.register_query(parse_query(&rst(), "R(x), S(x, y), T(y)").unwrap());
        let i = session.register_instance(chain(2));
        let valuation =
            ProbabilityValuation::uniform(session.instance(i), Rational::from_ratio_u64(1, 3));
        let request = ProbabilityRequest {
            query: q,
            instance: i,
            valuation: valuation.clone(),
        };
        // The exact API still surfaces the compile error...
        let exact_result = session.batch_probability(std::slice::from_ref(&request));
        assert!(matches!(
            exact_result[0],
            Err(EngineError::QueryCompile(CompileError::StateBudget { .. }))
        ));
        // ...but the approximate APIs serve the request.
        let (estimate, interval) = session.batch_probability_f64(std::slice::from_ref(&request))[0]
            .clone()
            .unwrap();
        assert!(interval.contains_f64(estimate));
        assert!(session.stats().monte_carlo_fallbacks >= 1);
        let decision = session.batch_threshold(&[ThresholdRequest {
            query: q,
            instance: i,
            valuation,
            threshold: Rational::one_half(),
        }])[0]
            .clone()
            .unwrap();
        assert_eq!(decision.tier, DecisionTier::MonteCarlo);
        // Sanity: the estimate agrees with an exact session on the same
        // (query, instance, weights) triple.
        let exact_session = {
            let mut s = EvalSession::new(EngineConfig::default());
            let q = s.register_query(parse_query(&rst(), "R(x), S(x, y), T(y)").unwrap());
            let i = s.register_instance(chain(2));
            let v = ProbabilityValuation::uniform(s.instance(i), Rational::from_ratio_u64(1, 3));
            s.batch_probability(&[ProbabilityRequest {
                query: q,
                instance: i,
                valuation: v,
            }])[0]
                .clone()
                .unwrap()
        };
        let exact_f = exact_session.to_f64();
        assert!(
            (estimate - exact_f).abs() <= 0.02 * exact_f,
            "Karp–Luby estimate {estimate} vs exact {exact_f}"
        );
        assert_eq!(decision.above, exact_f > 0.5);
    }

    #[test]
    fn out_of_range_karp_luby_parameters_are_typed_errors() {
        // The Karp–Luby fallback sizes its sample count from (ε, δ), which
        // must lie in (0, 1): outside it, every approximate API answers the
        // fallback request with a typed error, on a worker or the caller's
        // thread alike, and no worker panics.
        for (epsilon, delta, field) in [
            (0.0, 0.02, "epsilon"),
            (1.0, 0.02, "epsilon"),
            (f64::NAN, 0.02, "epsilon"),
            (0.02, 0.0, "delta"),
            (0.02, 1.5, "delta"),
        ] {
            let config = EngineConfig {
                state_budget: 1,
                epsilon,
                delta,
                ..EngineConfig::default()
            };
            let mut session = EvalSession::with_backend(config, SessionBackend::FloatFirst);
            let q = session.register_query(parse_query(&rst(), "R(x), S(x, y), T(y)").unwrap());
            let i = session.register_instance(chain(2));
            let valuation =
                ProbabilityValuation::uniform(session.instance(i), Rational::from_ratio_u64(1, 3));
            let request = ProbabilityRequest {
                query: q,
                instance: i,
                valuation: valuation.clone(),
            };
            let names_field =
                |e: &EngineError| matches!(e, EngineError::InvalidRequest(m) if m.contains(field));
            let batch = session.batch_probability_f64(std::slice::from_ref(&request));
            assert!(matches!(&batch[0], Err(e) if names_field(e)), "{batch:?}");
            let threshold = session.batch_threshold(&[ThresholdRequest {
                query: q,
                instance: i,
                valuation,
                threshold: Rational::one_half(),
            }]);
            assert!(
                matches!(&threshold[0], Err(e) if names_field(e)),
                "{threshold:?}"
            );
            let explained = session.explain(&request);
            assert!(
                matches!(&explained, Err(e) if names_field(e)),
                "{epsilon} {delta}"
            );
            let stats = session.stats();
            assert_eq!(stats.worker_panics, 0);
            assert_eq!(stats.errors, 3);
            assert_eq!(stats.monte_carlo_fallbacks, 0);
        }
    }

    fn traced_session(backend: SessionBackend) -> (EvalSession, QueryId, InstanceId) {
        let config = EngineConfig {
            telemetry: treelineage_telemetry::Telemetry::enabled(),
            ..EngineConfig::with_threads(2)
        };
        let mut session = EvalSession::with_backend(config, backend);
        let q = session.register_query(parse_query(&rst(), "R(x), S(x, y), T(y)").unwrap());
        let i = session.register_instance(chain(4));
        (session, q, i)
    }

    #[test]
    fn explain_reports_caches_tier_and_stages() {
        let (session, q, i) = traced_session(SessionBackend::Automaton);
        let valuation =
            ProbabilityValuation::uniform(session.instance(i), Rational::from_ratio_u64(1, 3));
        let request = ProbabilityRequest {
            query: q,
            instance: i,
            valuation,
        };
        let cold = session.explain(&request).unwrap();
        assert_eq!(cold.backend, "automaton");
        assert_eq!(cold.tier, DecisionTier::Exact);
        assert!(!cold.encoding_cached && !cold.machine_cached && !cold.lineage_cached);
        assert!(cold.gates.unwrap() > 0);
        assert!(cold.vtree_nodes.unwrap() > 0);
        assert!(cold.automaton_states.unwrap() > 0);
        assert!(cold.fragments.is_some());
        assert_eq!(cold.interval_width, 0.0);
        // The request's own trace saw the cold compile stages.
        assert!(cold.trace.is_some());
        assert!(cold.total_ns > 0);
        let stage_names: Vec<&str> = cold.stages.iter().map(|s| s.name).collect();
        assert!(
            stage_names.contains(&"encode") && stage_names.contains(&"dsdnnf_compile"),
            "cold explain should surface compile stages, got {stage_names:?}"
        );
        // Warm run: every layer reports resident, and the answer matches
        // the batch API bit-for-bit.
        let warm = session.explain(&request).unwrap();
        assert!(warm.encoding_cached && warm.machine_cached && warm.lineage_cached);
        let exact = session.batch_probability(std::slice::from_ref(&request))[0]
            .clone()
            .unwrap();
        assert_eq!(warm.estimate, exact.to_f64());
        // Consistency with SessionStats: two explains + one batch request.
        let stats = session.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.lineage_misses, 1);
        // The float-first backend serves explain from the interval tier.
        let (float_session, fq, fi) = traced_session(SessionBackend::FloatFirst);
        let float_request = ProbabilityRequest {
            query: fq,
            instance: fi,
            valuation: request.valuation.clone(),
        };
        let float_report = float_session.explain(&float_request).unwrap();
        assert_eq!(float_report.tier, DecisionTier::Float);
        assert!(float_report.interval_width > 0.0);
        assert!((float_report.estimate - exact.to_f64()).abs() <= float_report.interval_width);
    }

    /// Per-node live-state counts read off
    /// [`TreeAutomaton::reachable_states`]: every event-controlled node gets
    /// a fresh label that may do whatever either of its two labels does, so
    /// the nondeterministic run's state sets are the states some valuation
    /// reaches.
    fn reachable_state_counts(
        automaton: &treelineage_automata::TreeAutomaton,
        tree: &treelineage_automata::UncertainTree,
    ) -> Vec<usize> {
        use treelineage_automata::{NodeAnnotation, NodeId, TreeAutomaton};
        let base = automaton.alphabet_size();
        let mut relabeled = tree.tree().clone();
        let mut choices = Vec::new();
        for node in (0..relabeled.node_count()).map(NodeId) {
            if let NodeAnnotation::Event {
                if_true, if_false, ..
            } = tree.annotation(node)
            {
                relabeled.set_label(node, base + choices.len());
                choices.push([if_true, if_false]);
            }
        }
        let mut either = TreeAutomaton::new(automaton.state_count(), base + choices.len());
        for label in 0..base {
            for &q in automaton.leaf_states(label) {
                either.add_leaf_transition(label, q);
                for (j, _) in choices
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.contains(&label))
                {
                    either.add_leaf_transition(base + j, q);
                }
            }
        }
        for (label, l, r, q) in automaton.internal_transitions() {
            either.add_internal_transition(label, l, r, q);
            for (j, _) in choices
                .iter()
                .enumerate()
                .filter(|(_, c)| c.contains(&label))
            {
                either.add_internal_transition(base + j, l, r, q);
            }
        }
        either
            .reachable_states(&relabeled)
            .iter()
            .map(BTreeSet::len)
            .collect()
    }

    #[test]
    fn explain_live_states_match_reachable_state_sets() {
        let (session, q, i) = traced_session(SessionBackend::Automaton);
        let request = ProbabilityRequest {
            query: q,
            instance: i,
            valuation: ProbabilityValuation::uniform(session.instance(i), Rational::one_half()),
        };
        let cold = session.explain(&request).unwrap();
        let warm = session.explain(&request).unwrap();
        // The reference: a fresh machine on the same encoding (state ids
        // differ from the session's machine, per-node counts do not).
        let encoding = session.encoding(i.0).unwrap();
        let query = parse_query(&rst(), "R(x), S(x, y), T(y)").unwrap();
        let mut machine =
            compile_ucq(&query, encoding.alphabet(), CompileOptions::default()).unwrap();
        let automaton = machine.automaton_for(encoding.tree()).unwrap();
        let counts = reachable_state_counts(&automaton, encoding.tree());
        assert_eq!(counts.len(), encoding.tree().tree().node_count());
        let max = *counts.iter().max().unwrap();
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        assert!(max > 1, "the pin needs a node with several live states");
        for report in [&cold, &warm] {
            assert_eq!(report.live_states_max, Some(max));
            assert_eq!(report.live_states_mean, Some(mean));
        }
        let gauge = session.metrics().gauge("live_states_max", &[]);
        assert_eq!(gauge, Some(max as i64));
    }

    #[test]
    fn explain_rejects_malformed_requests_without_panicking() {
        let (session, q, i) = session_with(SessionBackend::Automaton);
        let short = ProbabilityRequest {
            query: q,
            instance: i,
            // A valuation sized for a smaller instance than the request's.
            valuation: ProbabilityValuation::uniform(&chain(1), Rational::one_half()),
        };
        assert!(matches!(
            session.explain(&short),
            Err(EngineError::InvalidRequest(_))
        ));
        let unknown = ProbabilityRequest {
            query: QueryId(17),
            instance: i,
            valuation: ProbabilityValuation::uniform(session.instance(i), Rational::one_half()),
        };
        assert!(matches!(
            session.explain(&unknown),
            Err(EngineError::InvalidRequest(_))
        ));
        // Malformed requests never count as served.
        assert_eq!(session.stats().requests, 0);
    }

    #[test]
    fn explain_report_renders_stable_json() {
        let report = ExplainReport {
            backend: "automaton",
            tier: DecisionTier::Exact,
            estimate: 0.25,
            interval_width: 0.0,
            encoding_cached: true,
            machine_cached: false,
            lineage_cached: true,
            automaton_states: Some(5),
            live_states_mean: Some(2.5),
            live_states_max: Some(4),
            gates: Some(42),
            vtree_nodes: Some(21),
            fragments: Some(3),
            trace: Some(7),
            total_ns: 1_500,
            stages: vec![StageTiming {
                name: "eval\"stage\"",
                count: 2,
                total_ns: 900,
            }],
        };
        assert_eq!(
            report.to_json(),
            "{\"backend\":\"automaton\",\"tier\":\"exact\",\"estimate\":0.25,\
             \"interval_width\":0.0,\
             \"cache\":{\"encoding\":true,\"machine\":false,\"lineage\":true},\
             \"artifact\":{\"automaton_states\":5,\"live_states_mean\":2.5,\"live_states_max\":4,\"gates\":42,\"vtree_nodes\":21,\"fragments\":3},\
             \"trace\":7,\"total_ns\":1500,\
             \"stages\":[{\"name\":\"eval\\\"stage\\\"\",\"count\":2,\"total_ns\":900}]}"
        );
    }

    #[test]
    fn flight_recorder_keeps_the_slowest_requests_bounded() {
        let config = EngineConfig {
            telemetry: treelineage_telemetry::Telemetry::enabled(),
            flight_recorder_capacity: 2,
            flight_recorder_threshold_ns: 0,
            ..EngineConfig::with_threads(2)
        };
        let mut session = EvalSession::with_backend(config, SessionBackend::Automaton);
        let q = session.register_query(parse_query(&rst(), "R(x), S(x, y), T(y)").unwrap());
        let i = session.register_instance(chain(4));
        let valuation =
            ProbabilityValuation::uniform(session.instance(i), Rational::from_ratio_u64(1, 3));
        let requests: Vec<ProbabilityRequest> = (0..6)
            .map(|_| ProbabilityRequest {
                query: q,
                instance: i,
                valuation: valuation.clone(),
            })
            .collect();
        for r in session.batch_probability(&requests) {
            r.unwrap();
        }
        let slow = session.slow_requests();
        assert_eq!(slow.len(), 2, "capacity bounds the recorder");
        assert!(slow[0].duration_ns >= slow[1].duration_ns, "slowest first");
        for entry in &slow {
            assert_eq!(entry.kind, "probability");
            assert_eq!(entry.tier, DecisionTier::Exact);
            let request_span = entry
                .spans
                .iter()
                .find(|e| e.name == "request")
                .expect("each retained request keeps its root span");
            assert_eq!(request_span.trace, entry.trace);
            assert!(entry.spans.iter().all(|e| e.trace == entry.trace));
        }
        // Telemetry disabled: the recorder stays inert.
        let quiet = EvalSession::with_backend(
            EngineConfig {
                flight_recorder_threshold_ns: 0,
                ..EngineConfig::default()
            },
            SessionBackend::Automaton,
        );
        assert!(quiet.slow_requests().is_empty());
    }

    /// Asserts two compiled lineages are byte-identical: same gates at the
    /// same ids with the same operands, same vtree, same universe.
    fn assert_byte_identical(a: &ParallelDnnf, b: &ParallelDnnf) {
        let (ac, bc) = (
            a.structured().dnnf().circuit(),
            b.structured().dnnf().circuit(),
        );
        assert_eq!(ac.size(), bc.size(), "gate counts differ");
        for id in ac.gate_ids() {
            assert_eq!(ac.gate(id), bc.gate(id), "gate {id:?} differs");
        }
        assert_eq!(ac.output(), bc.output());
        let (av, bv) = (a.structured().vtree(), b.structured().vtree());
        assert_eq!(av.node_count(), bv.node_count());
        for i in 0..av.node_count() {
            let id = treelineage_circuit::VtreeId(i);
            assert_eq!(av.node(id), bv.node(id), "vtree node {i} differs");
        }
        assert_eq!(av.root(), bv.root());
        assert_eq!(a.structured().universe(), b.structured().universe());
    }

    #[test]
    fn updates_validate_with_typed_errors_and_track_epochs() {
        let (mut session, _q, i) = session_with(SessionBackend::Automaton);
        let sig = rst();
        let r = sig.relation_by_name("R").unwrap();
        let s = sig.relation_by_name("S").unwrap();
        let t = sig.relation_by_name("T").unwrap();
        let half = Rational::one_half();

        // Rejections leave the session untouched: epoch 0, counters 0.
        assert_eq!(
            session.insert_fact(i, Fact::new(r, vec![Element(0)]), half.clone()),
            Err(UpdateError::DuplicateFact(FactId(0)))
        );
        assert_eq!(
            session.insert_fact(i, Fact::new(r, vec![Element(9)]), half.clone()),
            Err(UpdateError::NewElement(Element(9)))
        );
        assert_eq!(
            session.insert_fact(i, Fact::new(s, vec![Element(0), Element(4)]), half.clone()),
            Err(UpdateError::UncoveredFact)
        );
        assert_eq!(
            session.insert_fact(i, Fact::new(r, vec![Element(0), Element(1)]), half.clone()),
            Err(UpdateError::ArityMismatch {
                expected: 1,
                got: 2
            })
        );
        assert_eq!(
            session.insert_fact(
                i,
                Fact::new(t, vec![Element(0)]),
                Rational::from_ratio_u64(3, 2)
            ),
            Err(UpdateError::InvalidProbability)
        );
        assert_eq!(
            session.retract_fact(i, FactId(99)),
            Err(UpdateError::UnknownFact(FactId(99)))
        );
        assert_eq!(
            session.insert_fact(InstanceId(5), Fact::new(t, vec![Element(0)]), half.clone()),
            Err(UpdateError::UnknownInstance(5))
        );
        assert_eq!(session.instance_epoch(i), 0);
        let stats = session.stats();
        assert_eq!(stats.updates_insert, 0);
        assert_eq!(stats.updates_retract, 0);
        assert_eq!(stats.updates_set_probability, 0);

        // Overriding with the current value is a zero-dirty no-op.
        let noop = session.set_probability(i, FactId(0), half.clone()).unwrap();
        assert!(noop.no_op && !noop.structural);
        assert_eq!(noop.epoch, 0);
        assert_eq!(session.stats().updates_set_probability, 0);

        // An actual override bumps the epoch without structural effects.
        let third = Rational::from_ratio_u64(1, 3);
        let set = session
            .set_probability(i, FactId(0), third.clone())
            .unwrap();
        assert!(!set.no_op && !set.structural);
        assert_eq!(set.epoch, 1);
        assert_eq!(*session.valuation(i).probability(FactId(0)), third);

        // chain(4) ends with T(4) at id 11 (the dense tail): retracting it
        // moves nothing; afterwards S(3, 4) is element 4's only home.
        let retract = session.retract_fact(i, FactId(11)).unwrap();
        assert_eq!(retract.kind, UpdateKind::Retract);
        assert!(retract.structural && retract.moved.is_none());
        assert_eq!(retract.epoch, 2);
        assert_eq!(
            session.retract_fact(i, FactId(10)),
            Err(UpdateError::OrphanedElement(Element(4)))
        );

        // T(0) is absent, in-domain, and (being unary) always covered.
        let insert = session
            .insert_fact(
                i,
                Fact::new(t, vec![Element(0)]),
                Rational::from_ratio_u64(1, 4),
            )
            .unwrap();
        assert_eq!(insert.fact, FactId(11));
        assert!(insert.structural && insert.moved.is_none());
        assert_eq!(insert.epoch, 3);
        assert_eq!(session.instance(i).fact_count(), 12);
        assert_eq!(session.valuation(i).len(), 12);
        assert_eq!(
            *session.valuation(i).probability(FactId(11)),
            Rational::from_ratio_u64(1, 4)
        );
        let stats = session.stats();
        assert_eq!(stats.updates_insert, 1);
        assert_eq!(stats.updates_retract, 1);
        assert_eq!(stats.updates_set_probability, 1);

        // A retraction of a middle fact renumbers exactly the last fact.
        let moved = session.retract_fact(i, FactId(3)).unwrap();
        assert_eq!(moved.moved, Some(FactId(11)));
        assert_eq!(session.instance(i).fact_count(), 11);
        assert_eq!(session.valuation(i).len(), 11);
        // The moved fact (T(0), probability 1/4) now lives at the hole.
        assert_eq!(
            *session.valuation(i).probability(FactId(3)),
            Rational::from_ratio_u64(1, 4)
        );
    }

    #[test]
    fn structural_updates_flip_residency_and_recompile_incrementally() {
        let config = EngineConfig {
            telemetry: treelineage_telemetry::Telemetry::enabled(),
            fragment_grain: 4,
            ..EngineConfig::with_threads(2)
        };
        let mut session = EvalSession::with_backend(config, SessionBackend::Automaton);
        let q = session.register_query(parse_query(&rst(), "R(x), S(x, y), T(y)").unwrap());
        let i = session.register_instance(chain(6));
        let request = |session: &EvalSession| ProbabilityRequest {
            query: q,
            instance: i,
            valuation: session.valuation(i).clone(),
        };

        // Warm every layer, then pin the warm residency report.
        let before = session.batch_probability(&[request(&session)])[0]
            .clone()
            .unwrap();
        let warm = session.explain(&request(&session)).unwrap();
        assert!(warm.encoding_cached && warm.machine_cached && warm.lineage_cached);
        let occupancy = session.cache_occupancy();
        assert_eq!(occupancy.encodings, 1);
        assert_eq!(occupancy.lineage_entries, 1);
        let total_fragments = session
            .lineage_artifact(q, i)
            .unwrap()
            .partition()
            .fragments()
            .len();
        assert!(
            total_fragments >= 2,
            "grain 4 over chain(6) should partition, got {total_fragments}"
        );

        // A structural update invalidates the encoding and lineage layers
        // (the regression this test pins: the explain report and occupancy
        // gauges must reflect post-update invalidation, not stale caches).
        // Retracting R(0) removes the i = 0 match, so the answer must move.
        let report = session.retract_fact(i, FactId(0)).unwrap();
        assert_eq!(report.invalidated_lineages, 1);
        let occupancy = session.cache_occupancy();
        assert_eq!(occupancy.encodings, 0, "encoding must drop on update");
        assert_eq!(occupancy.lineage_entries, 0, "lineage must drop on update");
        let cold = session.explain(&request(&session)).unwrap();
        assert!(!cold.encoding_cached && !cold.lineage_cached);
        assert_ne!(cold.estimate, before.to_f64(), "the answer must move");

        // The explain above recompiled through the parked fragment library:
        // strictly fewer fragments than a cold compile (which recompiles
        // all of them), with real reuse.
        let stats = session.stats();
        assert_eq!(stats.lineages_invalidated, 1);
        let incremental = session.lineage_artifact(q, i).unwrap();
        let new_total = incremental.partition().fragments().len();
        assert!(stats.fragments_reused > 0, "no fragments reused");
        assert_eq!(
            stats.fragments_recompiled + stats.fragments_reused,
            new_total
        );
        assert!(
            stats.fragments_recompiled < new_total,
            "update recompiled {} of {} fragments — not incremental",
            stats.fragments_recompiled,
            new_total
        );

        // And the incremental artifact is byte-identical to a cold compile
        // of the mutated instance through the same machine.
        let cold_artifact = session.cold_lineage(q, i).unwrap();
        assert_byte_identical(&incremental, &cold_artifact);

        // The update surfaced in the metrics: covered counter series.
        let rendered = session.metrics().to_prometheus();
        assert!(rendered.contains("session_updates_total"), "{rendered}");
        assert!(
            rendered.contains("session_fragments_recompiled_total"),
            "{rendered}"
        );
        assert!(rendered.contains("updates_total"), "{rendered}");
        assert!(rendered.contains("dirty_fragments"), "{rendered}");
    }

    #[test]
    fn set_probability_keeps_every_cache_layer_resident() {
        let (mut session, q, i) = session_with(SessionBackend::Automaton);
        let first = session.batch_probability(&[ProbabilityRequest {
            query: q,
            instance: i,
            valuation: session.valuation(i).clone(),
        }])[0]
            .clone()
            .unwrap();
        let misses = session.stats().lineage_misses;
        // The cheap tier: only the resident valuation moves.
        session
            .set_probability(i, FactId(0), Rational::from_ratio_u64(1, 5))
            .unwrap();
        let occupancy = session.cache_occupancy();
        assert_eq!(occupancy.encodings, 1);
        assert_eq!(occupancy.lineage_entries, 1);
        let second = session.batch_probability(&[ProbabilityRequest {
            query: q,
            instance: i,
            valuation: session.valuation(i).clone(),
        }])[0]
            .clone()
            .unwrap();
        assert_eq!(session.stats().lineage_misses, misses, "must hit the cache");
        assert_ne!(first, second, "the reweighted answer must move");
    }
}
