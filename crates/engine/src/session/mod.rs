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
//! engine's pool:
//!
//! * **per-instance state** — the instance, its (validated) tree
//!   decomposition and the lazily built [`TreeEncoding`];
//! * **per-(query, width) state** — the persistent
//!   [`CompiledQuery`](treelineage_encoding::CompiledQuery) machine, whose
//!   deterministic-state memo keeps growing across instances (its own kind
//!   of cache);
//! * **per-(query, instance) state** — the compiled
//!   [`ParallelDnnf`](crate::ParallelDnnf) lineage, shared by every request
//!   and every batch that names the pair.
//!
//! Every batch method runs the same request pipeline: validate each
//! request on the caller's thread, compile each distinct (query, instance)
//! pair once, then answer each request on the pool with its own trace,
//! latency record and panic containment. Evaluation needs no locking after
//! compile — `ParallelDnnf` evaluation is read-only.
//!
//! Results are deterministic: caches only memoize deterministic
//! computations, so a cache hit returns byte-for-byte what a cold compile
//! would have produced (pinned by the umbrella
//! `tests/parallel_differential.rs`).
//!
//! The methods are split by concern: `updates` (the mutations and
//! structural invalidation), `caches` (the cache layers and the one lineage
//! compile body), `serve` (the request pipeline and the tier policy) and
//! `explain` (reports, stats, metrics and the flight recorder). DESIGN.md
//! §Concurrency has the module map.

mod caches;
mod explain;
mod serve;
mod updates;

pub use caches::CacheOccupancy;
pub use explain::{ExplainReport, SessionStats, SlowRequest, StageTiming};
pub use serve::{
    DecisionTier, ProbabilityRequest, ThresholdDecision, ThresholdRequest, WmcRequest,
};
pub use updates::{validate_insert, validate_retract, UpdateError, UpdateKind, UpdateReport};

use crate::EngineConfig;
use caches::{CacheMap, CachedLineage, MachineCache, Parked, QUERY_CACHE_CAP};
use std::sync::{Arc, Mutex, OnceLock};
use treelineage_encoding::{CompileError, EncodingError, EncodingPlan, TreeEncoding};
use treelineage_graph::TreeDecomposition;
use treelineage_instance::{Instance, ProbabilityValuation};
use treelineage_query::UnionOfConjunctiveQueries;

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
    /// blows the state budget degrade to the Karp–Luby estimator at the
    /// fixed `(ε, δ) = (0.01, 0.01)` instead of failing. The exact-rational
    /// batch methods are unchanged under this backend — float-first is a
    /// *serving policy*, not a different compilation pipeline.
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
    /// The one encoding plan of the instance, built at its first encode or
    /// its first structural update, whichever comes first: every cached
    /// re-encode replays it, and update validation checks domain and
    /// coverage against it. Valid across every accepted update, because
    /// accepted updates preserve the active domain the plan is pinned to.
    plan: OnceLock<EncodingPlan>,
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
    /// (query, instance) pair they served and capped like the lineage
    /// cache. The next lineage miss on the pair consumes its entry:
    /// untouched fragments replay byte-identically and only the dirty ones
    /// recompile. An evicted library only means a cold compile.
    stale: Mutex<CacheMap<(usize, usize), Parked>>,
    counters: Mutex<SessionStats>,
    /// Flight recorder: the N slowest requests past the latency threshold,
    /// sorted slowest-first (see [`EngineConfig::flight_recorder_capacity`]).
    flight: Mutex<Vec<SlowRequest>>,
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
            machines: Mutex::new(CacheMap::new(QUERY_CACHE_CAP)),
            lineages: Mutex::new(CacheMap::new(config.lineage_cache_cap)),
            stale: Mutex::new(CacheMap::new(config.lineage_cache_cap)),
            config,
            backend,
            instances: Vec::new(),
            queries: Vec::new(),
            counters: Mutex::new(SessionStats::default()),
            flight: Mutex::new(Vec::new()),
        }
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
            plan: OnceLock::new(),
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

    /// Validates one request before any work is scheduled: both handles
    /// must name entries registered with this session, the query must be
    /// over the instance's signature, and every per-fact vector — given as
    /// `(name, length)` — must cover the instance.
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
        if self.queries[q].signature() != entry.instance.signature() {
            return Err(EngineError::InvalidRequest(format!(
                "query {q} is over another signature than instance {i}"
            )));
        }
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
}

#[cfg(test)]
mod tests;
