//! Serving: the request types, [`DecisionTier`], the one request pipeline
//! behind every `batch_*` method, and the tier policy shared with
//! [`EvalSession::explain`].

use super::caches::Artifact;
use super::{EngineError, EvalSession, InstanceId, QueryId, SessionBackend};
use crate::approx::karp_luby_probability;
use crate::pool::run_tasks_catching;
use treelineage_encoding::CompileError;
use treelineage_instance::{FactId, ProbabilityValuation};
use treelineage_num::{BigUint, ErrorInterval, Rational};

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
/// [`ThresholdDecision`], an [`ExplainReport`](super::ExplainReport) and a
/// [`SlowRequest`](super::SlowRequest), and
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

/// Relative error bound ε of the Karp–Luby fallback
/// (`|estimate − exact| ≤ ε·exact` with probability `1 − δ`).
pub(super) const KARP_LUBY_EPSILON: f64 = 0.01;

/// Failure probability δ of the Karp–Luby fallback.
const KARP_LUBY_DELTA: f64 = 0.01;

/// One request's result with the tier that served it.
type Answer<T> = Result<(T, DecisionTier), EngineError>;

/// One answer of the tier policy ([`EvalSession::tiered`]).
pub(super) enum Tiered {
    /// The certified f64 interval pass.
    Float(ErrorInterval),
    /// The exact rational pass.
    Exact(Rational),
    /// The Karp–Luby point estimate and its probabilistic `(ε, δ)` interval.
    MonteCarlo(f64, ErrorInterval),
}

impl Tiered {
    pub(super) fn tier(&self) -> DecisionTier {
        match self {
            Tiered::Float(_) => DecisionTier::Float,
            Tiered::Exact(_) => DecisionTier::Exact,
            Tiered::MonteCarlo(..) => DecisionTier::MonteCarlo,
        }
    }

    /// The point estimate: the interval midpoint, the exact value, or the
    /// Karp–Luby estimate.
    pub(super) fn estimate(&self) -> f64 {
        match self {
            Tiered::Float(interval) => interval.midpoint(),
            Tiered::Exact(p) => p.to_f64(),
            Tiered::MonteCarlo(estimate, _) => *estimate,
        }
    }

    /// The enclosure of the answer (for the exact tier the optimal f64
    /// bracket of the exact value).
    pub(super) fn interval(&self) -> ErrorInterval {
        match self {
            Tiered::Float(interval) | Tiered::MonteCarlo(_, interval) => *interval,
            Tiered::Exact(p) => ErrorInterval::from_rational(p),
        }
    }
}

impl EvalSession {
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
        self.count(|s| s.requests += requests.len());
        let checked: Vec<_> = requests.iter().map(check).collect();
        let artifacts = self.compile_pairs(checked.iter().flatten().copied());
        let eval_threads = self.eval_threads(requests.len());
        let caught = run_tasks_catching(
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
        // A caught panic becomes its request's typed error; every panic and
        // every failed request counts into the session stats.
        let results: Vec<Result<T, EngineError>> = caught
            .into_iter()
            .map(|result| {
                result.unwrap_or_else(|message| {
                    self.count(|s| s.worker_panics += 1);
                    Err(EngineError::WorkerPanicked(message))
                })
            })
            .collect();
        let failed = results.iter().filter(|r| r.is_err()).count();
        if failed > 0 {
            self.count(|s| s.errors += failed);
        }
        results
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
    /// estimator at `(ε, δ) = (0.01, 0.01)`; its interval is then the
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
                        self.count(|s| s.float_decisions += 1);
                        interval.compare_threshold(t) == Some(std::cmp::Ordering::Greater)
                    }
                    Tiered::Exact(p) => {
                        if float_first {
                            self.count(|s| s.exact_fallbacks += 1);
                        }
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
    ///    Karp–Luby estimator under [`SessionBackend::FloatFirst`], at
    ///    `(ε, δ) = (0.01, 0.01)` with a seed fixed per (query, instance)
    ///    pair; any other compile error is the request's error;
    /// 2. when `float` is set, the certified interval pass answers, unless
    ///    a `threshold` is given and lands inside the interval;
    /// 3. otherwise the exact rational pass answers.
    pub(super) fn tiered(
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
                self.count(|s| s.monte_carlo_fallbacks += 1);
                let seed = 0x9E37_79B9_7F4A_7C15u64 ^ ((query as u64) << 32) ^ instance as u64;
                let estimate = karp_luby_probability(
                    &self.queries[query],
                    &self.instances[instance].instance,
                    valuation,
                    KARP_LUBY_EPSILON,
                    KARP_LUBY_DELTA,
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
}
