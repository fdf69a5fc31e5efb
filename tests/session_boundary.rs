//! API-boundary fuzz suite: malformed requests fail alone, valid ones
//! answer exactly.
//!
//! Every [`EvalSession`] entry point — the five `batch_*` methods,
//! `explain`, `lineage_artifact` and `cold_lineage` — takes random batches
//! over random treelike instances that mix
//! valid requests with malformed ones: query or instance handles minted by a
//! larger session (out of range here), a query registered over another
//! signature than the instances', and valuation or `pos`/`neg` vectors one
//! fact too short or too long. Before every batch the session also
//! takes a few updates — `insert_fact`, `retract_fact` and
//! `set_probability` with out-of-range instance handles or fact ids, or
//! probabilities outside [0, 1], plus valid `set_probability` overrides.
//! On both session backends, at `threads ∈ {1, 2}` plus
//! `TREELINEAGE_THREADS`:
//!
//! * a result is [`EngineError::InvalidRequest`] exactly when its request is
//!   malformed;
//! * a malformed update returns its typed [`UpdateError`]
//!   (`UnknownInstance`, `UnknownFact` or `InvalidProbability`) and changes
//!   nothing, while a valid override changes only the resident valuation;
//! * every other result matches the core evaluator's OBDD route (an
//!   independent compile route, through enumerated matches): probability,
//!   WMC and model count exactly, a threshold decision's `above` as the
//!   exact comparison, an f64 interval by containing the exact value, and
//!   the cached and the cold lineage artifact by their model counts;
//! * the session counts no worker panic, and one error per malformed batch
//!   request (a malformed `explain` is rejected before it counts as a
//!   request, so it counts as neither).

use proptest::prelude::*;
use treelineage::prelude::*;
use treelineage::{EngineError, ProbabilityRequest, ThresholdRequest, WmcRequest};
use treelineage_engine::{InstanceId, QueryId};
use treelineage_instance::strategies as instance_strategies;

fn sig() -> Signature {
    Signature::builder()
        .relation("R", 2)
        .relation("S", 2)
        .relation("L", 1)
        .build()
}

fn queries() -> Vec<UnionOfConjunctiveQueries> {
    [
        "R(x, y), S(y, z)",
        "S(x, y), S(y, z), x != z",
        "L(x), R(x, y) | L(y), S(x, y)",
    ]
    .iter()
    .map(|t| parse_query(&sig(), t).unwrap())
    .collect()
}

/// A query over another signature than [`sig`]'s: `T` is in no instance.
fn foreign_query() -> UnionOfConjunctiveQueries {
    let other = Signature::builder()
        .relation("S", 2)
        .relation("T", 1)
        .relation("U", 3)
        .build();
    parse_query(&other, "S(x, y), T(y)").unwrap()
}

/// A fixed second instance, so valid handles name instances of two sizes.
fn small_instance() -> Instance {
    let mut inst = Instance::new(sig());
    inst.add_fact_by_name("L", &[0]);
    inst.add_fact_by_name("R", &[0, 1]);
    inst.add_fact_by_name("S", &[1, 2]);
    inst
}

/// The thread counts under test: {1, 2} plus the CI matrix value.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2];
    if let Some(t) = std::env::var("TREELINEAGE_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        if !counts.contains(&t) {
            counts.push(t);
        }
    }
    counts
}

/// Query handles 0..3 and instance handles 0..4, minted by a session with
/// more registrations than the one under test (which holds the query under
/// test, then [`foreign_query`], and two instances), so the higher handles
/// are out of range there.
fn donor_handles() -> (Vec<QueryId>, Vec<InstanceId>) {
    let mut donor = EvalSession::new(EngineConfig::default());
    let queries: Vec<QueryId> = queries()
        .into_iter()
        .map(|q| donor.register_query(q))
        .collect();
    let instances = (0..4)
        .map(|_| donor.register_instance(small_instance()))
        .collect();
    (queries, instances)
}

/// Asserts a result is [`EngineError::InvalidRequest`] exactly when its
/// request is malformed, and that valid requests do not fail otherwise.
fn assert_outcome<T>(what: &str, valid: bool, result: &Result<T, EngineError>, context: &str) {
    match result {
        Ok(_) => assert!(valid, "{what}: malformed request served, {context}"),
        Err(EngineError::InvalidRequest(e)) => {
            assert!(!valid, "{what}: valid request rejected ({e}), {context}")
        }
        Err(e) => panic!("{what}: request failed with {e}, {context}"),
    }
}

/// The oracle: core's evaluator, which compiles the enumerated matches
/// into an OBDD — a route independent of the session's automaton lineage.
fn oracle<'a>(
    instance: &'a Instance,
    valuation: &'a ProbabilityValuation,
) -> ProbabilityEvaluator<'a> {
    ProbabilityEvaluator::new(instance, valuation)
}

/// How many requests of a batch are malformed (have no expected answer).
fn malformed<T>(expected: &[Option<T>]) -> usize {
    expected.iter().filter(|e| e.is_none()).count()
}

/// A per-fact vector length: exact for `shape < 3`, one short for 3, one
/// long otherwise.
fn length(facts: usize, shape: u8) -> usize {
    match shape {
        0..=2 => facts,
        3 => facts.saturating_sub(1),
        _ => facts + 1,
    }
}

/// Probability `k`-th of a small fixed palette, so requests differ.
fn probability(k: usize) -> Rational {
    let (n, d) = [(1, 2), (1, 4), (3, 4), (1, 3), (2, 5)][k % 5];
    Rational::from_ratio_u64(n, d)
}

/// One generated request: query handle, instance handle, the shapes of
/// its two per-fact vectors (`pos`/`neg` for WMC, the valuation uses the
/// first), and a selector for its weights and threshold.
type Spec = (usize, usize, u8, u8, usize);

/// One generated update: its kind, an instance handle, and a selector for
/// its fact and probability.
type UpdateSpec = (u8, usize, usize);

/// The batch calls of one session run; updates are dealt round-robin to
/// the gaps before them.
const PHASES: usize = 6;

/// Applies the updates dealt to `phase` and checks each outcome. Kinds 0–3
/// are malformed: an insert at a probability outside [0, 1], a retraction
/// or an override of a fact id past the end, and an override outside
/// [0, 1]. Kind 4 is a valid override. An out-of-range handle turns any
/// kind into `UnknownInstance`. A rejected update must leave the instance's
/// epoch alone; an accepted one must land in the resident valuation.
/// Returns how many accepted updates changed a probability.
fn apply_updates(
    session: &mut EvalSession,
    handles: &[InstanceId],
    instances: &[Instance],
    updates: &[UpdateSpec],
    phase: usize,
    context: &str,
) -> usize {
    let mut changed = 0;
    for &(kind, h, k) in updates.iter().skip(phase).step_by(PHASES) {
        let id = handles[h];
        // An out-of-range handle still needs a well-formed fact to send.
        let target = &instances[h.min(instances.len() - 1)];
        let present = FactId(k % target.fact_count());
        let absent = FactId(target.fact_count() + k % 3);
        let (n, d) = [(3, 2), (-1, 2), (2, 1), (-1, 1)][k % 4];
        let invalid = Rational::from_ratio_i64(n, d);
        let valid = probability(k);
        let epoch = (h < instances.len()).then(|| session.instance_epoch(id));
        let (result, error) = match kind {
            0 => (
                session.insert_fact(id, target.fact(present).clone(), invalid),
                Some(UpdateError::InvalidProbability),
            ),
            1 => (
                session.retract_fact(id, absent),
                Some(UpdateError::UnknownFact(absent)),
            ),
            2 => (
                session.set_probability(id, absent, valid.clone()),
                Some(UpdateError::UnknownFact(absent)),
            ),
            3 => (
                session.set_probability(id, present, invalid),
                Some(UpdateError::InvalidProbability),
            ),
            _ => (session.set_probability(id, present, valid.clone()), None),
        };
        let error = if h < instances.len() {
            error
        } else {
            Some(UpdateError::UnknownInstance(h))
        };
        match (result, error) {
            (Err(got), Some(expected)) => {
                assert_eq!(got, expected, "update {kind} on handle {h}, {context}");
                if let Some(epoch) = epoch {
                    assert_eq!(session.instance_epoch(id), epoch, "{context}");
                }
            }
            (Ok(report), None) => {
                assert_eq!(
                    *session.valuation(id).probability(present),
                    valid,
                    "{context}"
                );
                changed += usize::from(!report.no_op);
            }
            (result, expected) => {
                panic!("update {kind} on handle {h}: {result:?}, expected {expected:?}, {context}")
            }
        }
    }
    changed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn malformed_requests_fail_alone_and_valid_ones_match_the_dd_oracle(
        (inst, td) in instance_strategies::treelike_instance_with_decomposition(sig(), 7, 2),
        qi in 0usize..3,
        specs in proptest::collection::vec(
            (0usize..3, 0usize..4, 0u8..5, 0u8..5, 0usize..9),
            1..9,
        ),
        updates in proptest::collection::vec((0u8..5, 0usize..4, 0usize..12), 0..10),
    ) {
        prop_assume!(inst.fact_count() >= 1 && inst.fact_count() <= 10);
        let q = queries()[qi].clone();
        let instances = [inst.clone(), small_instance()];
        let (query_handles, instance_handles) = donor_handles();

        // The requests, and what each valid one must answer: `None` marks a
        // malformed request. None of it depends on the backend or threads.
        let handles = |spec: &Spec| (query_handles[spec.0], instance_handles[spec.1]);
        let facts = |spec: &Spec| instances.get(spec.1).map(Instance::fact_count);
        let handles_ok = |spec: &Spec| spec.0 == 0 && spec.1 < instances.len();
        let vector = |spec: &Spec, shape: u8, offset: usize| -> Vec<Rational> {
            let n = length(facts(spec).unwrap_or(3), shape);
            (0..n).map(|f| probability(f + spec.4 + offset)).collect()
        };
        let mut probability_requests = Vec::new();
        let mut threshold_requests = Vec::new();
        let mut wmc_requests = Vec::new();
        let mut count_requests = Vec::new();
        let (mut exact, mut wmc, mut counts) = (Vec::new(), Vec::new(), Vec::new());
        for spec in &specs {
            let (query, instance) = handles(spec);
            // Only valid handles reach the oracle; any instance sizes the
            // vectors of an out-of-range one.
            let target = &instances[spec.1.min(1)];
            let half = ProbabilityValuation::all_one_half(target);
            // Any valuation of the right length: grow or shrink one built
            // for an instance of the same size.
            let mut valuation = half.clone();
            let probabilities = vector(spec, spec.2, 0);
            while valuation.len() > probabilities.len() {
                valuation.swap_remove(FactId(valuation.len() - 1));
            }
            while valuation.len() < probabilities.len() {
                valuation.push(Rational::one_half());
            }
            for (f, p) in probabilities.into_iter().enumerate() {
                valuation.set_probability(FactId(f), p);
            }
            let p = (handles_ok(spec) && facts(spec) == Some(valuation.len()))
                .then(|| oracle(target, &valuation).query_probability(&q).unwrap());
            let threshold = match (spec.4 % 3, &p) {
                // Thresholds at or just below the exact answer land inside
                // the float interval, forcing the exact fallback on the
                // float-first backend.
                (0, Some(p)) => p.clone(),
                (1, Some(p)) => p - &Rational::from_ratio_u64(1, 1 << 63),
                _ => Rational::from_ratio_u64(spec.4 as u64, 8),
            };
            let (pos, neg) = (vector(spec, spec.2, 0), vector(spec, spec.3, 1));
            let wmc_ok = handles_ok(spec)
                && facts(spec) == Some(pos.len())
                && facts(spec) == Some(neg.len());
            wmc.push(wmc_ok.then(|| {
                oracle(target, &half)
                    .query_wmc(&q, &|f: FactId| pos[f.0].clone(), &|f: FactId| neg[f.0].clone())
                    .unwrap()
            }));
            counts.push(handles_ok(spec).then(|| {
                oracle(target, &half)
                    .model_count(&q)
                    .unwrap()
            }));
            exact.push(p);
            probability_requests.push(ProbabilityRequest {
                query,
                instance,
                valuation: valuation.clone(),
            });
            threshold_requests.push(ThresholdRequest {
                query,
                instance,
                valuation,
                threshold,
            });
            wmc_requests.push(WmcRequest { query, instance, pos, neg });
            count_requests.push((query, instance));
        }
        let errors = 3 * malformed(&exact) + malformed(&wmc) + malformed(&counts);
        let valid_explains = specs.len() - malformed(&exact);

        for backend in [SessionBackend::Automaton, SessionBackend::FloatFirst] {
            for threads in thread_counts() {
                let context = format!("{backend:?}, threads={threads}");
                let mut session =
                    EvalSession::with_backend(EngineConfig::with_threads(threads), backend);
                session.register_query(q.clone());
                session.register_query(foreign_query());
                session
                    .register_instance_with_decomposition(inst.clone(), td.clone())
                    .unwrap();
                session.register_instance(small_instance());
                let mut phase = 0;
                let mut overrides = 0;
                let mut update = |session: &mut EvalSession| {
                    overrides += apply_updates(
                        session,
                        &instance_handles,
                        &instances,
                        &updates,
                        phase,
                        &context,
                    );
                    phase += 1;
                };

                update(&mut session);
                let results = session.batch_probability(&probability_requests);
                for (expected, result) in exact.iter().zip(&results) {
                    assert_outcome("probability", expected.is_some(), result, &context);
                    if let (Some(expected), Ok(got)) = (expected, result) {
                        prop_assert_eq!(got, expected, "probability, {}", context);
                    }
                }

                update(&mut session);
                let results = session.batch_probability_f64(&probability_requests);
                for (expected, result) in exact.iter().zip(&results) {
                    assert_outcome("probability_f64", expected.is_some(), result, &context);
                    if let (Some(expected), Ok((estimate, interval))) = (expected, result) {
                        prop_assert!(interval.contains(expected), "f64 interval, {}", context);
                        prop_assert!(interval.contains_f64(*estimate), "f64 estimate, {}", context);
                    }
                }

                update(&mut session);
                let results = session.batch_threshold(&threshold_requests);
                for ((expected, request), result) in
                    exact.iter().zip(&threshold_requests).zip(&results)
                {
                    assert_outcome("threshold", expected.is_some(), result, &context);
                    if let (Some(expected), Ok(decision)) = (expected, result) {
                        prop_assert_eq!(
                            decision.above,
                            *expected > request.threshold,
                            "threshold, {}",
                            context
                        );
                        prop_assert!(decision.interval.contains(expected), "{}", context);
                    }
                }

                update(&mut session);
                let results = session.batch_wmc(&wmc_requests);
                for (expected, result) in wmc.iter().zip(&results) {
                    assert_outcome("wmc", expected.is_some(), result, &context);
                    if let (Some(expected), Ok(got)) = (expected, result) {
                        prop_assert_eq!(got, expected, "wmc, {}", context);
                    }
                }

                update(&mut session);
                let results = session.batch_model_count(&count_requests);
                for (expected, result) in counts.iter().zip(&results) {
                    assert_outcome("model_count", expected.is_some(), result, &context);
                    if let (Some(expected), Ok(got)) = (expected, result) {
                        prop_assert_eq!(got, expected, "model count, {}", context);
                    }
                }

                update(&mut session);
                for (expected, request) in exact.iter().zip(&probability_requests) {
                    let result = session.explain(request);
                    assert_outcome("explain", expected.is_some(), &result, &context);
                    if let (Some(expected), Ok(report)) = (expected, result) {
                        // Exact tier: the exact value's f64; float tier: the
                        // midpoint of an interval holding it.
                        let exact = expected.to_f64();
                        prop_assert!(
                            (report.estimate - exact).abs() <= report.interval_width,
                            "explain estimate {} vs exact {}, {}",
                            report.estimate,
                            exact,
                            context
                        );
                    }
                }

                // The artifact entry points share the request check and the
                // lineage compile body, and count as neither requests nor
                // errors.
                for (expected, &(query, instance)) in counts.iter().zip(&count_requests) {
                    let cached = session.lineage_artifact(query, instance);
                    assert_outcome("lineage_artifact", expected.is_some(), &cached, &context);
                    let cold = session.cold_lineage(query, instance);
                    assert_outcome("cold_lineage", expected.is_some(), &cold, &context);
                    if let (Some(expected), Ok(cached), Ok(cold)) = (expected, cached, cold) {
                        prop_assert_eq!(&cached.model_count(1), expected, "cached, {}", context);
                        prop_assert_eq!(&cold.model_count(1), expected, "cold, {}", context);
                    }
                }

                let stats = session.stats();
                prop_assert_eq!(stats.worker_panics, 0, "{}", context);
                prop_assert_eq!(stats.updates_insert + stats.updates_retract, 0, "{}", context);
                prop_assert_eq!(stats.updates_set_probability, overrides, "{}", context);
                prop_assert_eq!(stats.errors, errors, "{}", context);
                prop_assert_eq!(stats.requests, 5 * specs.len() + valid_explains, "{}", context);
            }
        }
    }
}
