//! Observability: [`EvalSession::explain`]'s [`ExplainReport`], the
//! [`SessionStats`] counters, the [`EvalSession::metrics`] export, and the
//! per-request telemetry feeding the flight recorder.

use super::serve::{DecisionTier, ProbabilityRequest, Tiered};
use super::{EngineError, EvalSession, SessionBackend};
use crate::pool::lock_recovering;
use std::collections::BTreeMap;
use std::time::Instant;
use treelineage_telemetry::json::Json;
use treelineage_telemetry::{MetricsSnapshot, Span, SpanEvent};

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
    /// `None` artifact fields omitted, a non-finite float as `null`),
    /// suitable for structured logs.
    pub fn to_json(&self) -> String {
        let object = |fields: Vec<(&str, Json)>| {
            Json::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
        };
        let count = |v: usize| Json::UInt(v as u64);
        let artifact = [
            ("automaton_states", self.automaton_states.map(count)),
            ("live_states_mean", self.live_states_mean.map(Json::Float)),
            ("live_states_max", self.live_states_max.map(count)),
            ("gates", self.gates.map(count)),
            ("vtree_nodes", self.vtree_nodes.map(count)),
            ("fragments", self.fragments.map(count)),
        ];
        let artifact = artifact.into_iter().filter_map(|(k, v)| Some((k, v?)));
        let stages = self.stages.iter().map(|stage| {
            object(vec![
                ("name", Json::Str(stage.name.into())),
                ("count", Json::UInt(stage.count)),
                ("total_ns", Json::UInt(stage.total_ns)),
            ])
        });
        let mut fields = vec![
            ("backend", Json::Str(self.backend.into())),
            ("tier", Json::Str(self.tier.as_str().into())),
            ("estimate", Json::Float(self.estimate)),
            ("interval_width", Json::Float(self.interval_width)),
            (
                "cache",
                object(vec![
                    ("encoding", Json::Bool(self.encoding_cached)),
                    ("machine", Json::Bool(self.machine_cached)),
                    ("lineage", Json::Bool(self.lineage_cached)),
                ]),
            ),
            ("artifact", object(artifact.collect())),
        ];
        fields.extend(self.trace.map(|trace| ("trace", Json::UInt(trace))));
        fields.push(("total_ns", Json::UInt(self.total_ns)));
        fields.push(("stages", Json::Array(stages.collect())));
        let mut out = String::new();
        object(fields).write(&mut out);
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
    /// Threshold requests that fell back to exact rational evaluation: the
    /// float pass ran and could not decide (only under
    /// [`SessionBackend::FloatFirst`]; the exact backend never runs it).
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
    /// Always 0: every lineage compiles in one pass, with no fragment
    /// library to reuse. Kept so existing readers of the field still
    /// build.
    pub fragments_recompiled: usize,
    /// Always 0, like [`SessionStats::fragments_recompiled`].
    pub fragments_reused: usize,
    /// Resident lineage artifacts invalidated by structural updates.
    pub lineages_invalidated: usize,
}

impl EvalSession {
    /// Snapshot of the session's cache counters.
    pub fn stats(&self) -> SessionStats {
        *lock_recovering(&self.counters)
    }

    /// Adds to the session's counters (one lock per call, so a snapshot
    /// never sees half of one update).
    pub(super) fn count(&self, add: impl FnOnce(&mut SessionStats)) {
        add(&mut lock_recovering(&self.counters));
    }

    /// The session's full observability surface as one stable
    /// [`MetricsSnapshot`]: the telemetry registry's counters, gauges,
    /// histograms and span aggregates (empty when
    /// [`EngineConfig::telemetry`](crate::EngineConfig::telemetry) is
    /// disabled), merged with the always-on session layers — the
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

    /// Starts a per-request latency timer; `None` — and no clock read at
    /// all — when telemetry is disabled.
    pub(super) fn timer(&self) -> Option<Instant> {
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
    pub(super) fn request_span(&self, kind: &'static str) -> Span {
        let mut span = self.config.telemetry.span_root("request");
        span.label("kind", kind);
        span
    }

    /// Records one served request into the `requests_total{kind,tier}`
    /// counter and the `request_latency_ns{kind,tier}` histogram, closing
    /// its root span (so the span ring sees the finished request) and
    /// feeding the flight recorder.
    pub(super) fn record_request(
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
    /// above `EngineConfig::flight_recorder_threshold_ns` compete for the
    /// `EngineConfig::flight_recorder_capacity` slots, slowest kept. The
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
        self.count(|s| s.requests += 1);
        let started = self.timer();
        let span = self.request_span("explain");
        let trace = span.context().map(|c| c.trace);
        // Served on the caller's stack with the request span open, so every
        // compile/eval span parents into the request's trace.
        let lineage = self.lineage(q, i);
        let float_first = self.backend == SessionBackend::FloatFirst;
        let served = self
            .tiered(
                (q, i),
                &request.valuation,
                &lineage,
                self.config.threads,
                float_first,
                None,
            )
            .inspect_err(|_| self.count(|s| s.errors += 1))?;
        let tier = served.tier();
        self.record_request("explain", tier, started, span);
        let events = trace.map_or_else(Vec::new, |t| self.config.telemetry.events_for_trace(t));
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
}
