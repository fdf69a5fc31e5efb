//! Unit tests of the session modules, in one `session::tests` module so
//! the fixtures exist once. Sections follow the modules: registration
//! (`mod.rs`), `caches`, `serve`, `explain`, `updates`.

use super::caches::CacheMap;
use super::*;
use crate::ParallelDnnf;
use std::collections::BTreeSet;
use treelineage_encoding::{compile_ucq, CompileError, CompileOptions};
use treelineage_instance::{Element, Fact, FactId, Signature};
use treelineage_num::Rational;
use treelineage_query::parse_query;
use treelineage_telemetry::json::Json;

// Fixtures.

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

// Registration.

#[test]
fn invalid_decomposition_is_rejected_at_registration() {
    let mut session = EvalSession::new(EngineConfig::default());
    let result = session.register_instance_with_decomposition(chain(2), TreeDecomposition::new());
    assert!(matches!(result, Err(EngineError::InvalidDecomposition(_))));
}

// Caches.

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

// Serving.

#[test]
fn batches_agree_across_backends_and_hit_the_caches() {
    let (auto, q, i) = session_with(SessionBackend::Automaton);
    let (float, q2, i2) = session_with(SessionBackend::FloatFirst);
    let valuation = ProbabilityValuation::uniform(auto.instance(i), Rational::from_ratio_u64(1, 3));
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
    // The exact backend never ran the float pass, so nothing fell back.
    assert_eq!(exact.stats().exact_fallbacks, 0);
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
        (estimate - exact_f).abs() <= serve::KARP_LUBY_EPSILON * exact_f,
        "Karp–Luby estimate {estimate} vs exact {exact_f}"
    );
    assert_eq!(decision.above, exact_f > 0.5);
}

// Explain, stats and the flight recorder.

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
    let mut machine = compile_ucq(&query, encoding.alphabet(), CompileOptions::default()).unwrap();
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
fn explain_json_parses_back_field_for_field() {
    for backend in [SessionBackend::Automaton, SessionBackend::FloatFirst] {
        let (session, query, instance) = traced_session(backend);
        let valuation = ProbabilityValuation::uniform(
            session.instance(instance),
            Rational::from_ratio_u64(1, 3),
        );
        let report = session
            .explain(&ProbabilityRequest {
                query,
                instance,
                valuation,
            })
            .unwrap();
        let doc = treelineage_telemetry::json::parse(&report.to_json()).unwrap();
        let get = |path: &[&str]| path.iter().try_fold(&doc, |v, key| v.get(key));
        let str = |path: &[&str]| get(path).and_then(Json::as_str);
        let uint = |path: &[&str]| get(path).and_then(Json::as_u64);
        let bits = |path: &[&str]| get(path).and_then(Json::as_f64).map(f64::to_bits);
        let count = |key: &str| uint(&["artifact", key]).map(|v| v as usize);
        assert_eq!(str(&["backend"]), Some(report.backend));
        assert_eq!(str(&["tier"]), Some(report.tier.as_str()));
        assert_eq!(bits(&["estimate"]), Some(report.estimate.to_bits()));
        assert_eq!(
            bits(&["interval_width"]),
            Some(report.interval_width.to_bits())
        );
        for (key, cached) in [
            ("encoding", report.encoding_cached),
            ("machine", report.machine_cached),
            ("lineage", report.lineage_cached),
        ] {
            assert_eq!(get(&["cache", key]), Some(&Json::Bool(cached)));
        }
        assert_eq!(count("automaton_states"), report.automaton_states);
        assert_eq!(
            bits(&["artifact", "live_states_mean"]),
            report.live_states_mean.map(f64::to_bits)
        );
        assert_eq!(count("live_states_max"), report.live_states_max);
        assert_eq!(count("gates"), report.gates);
        assert_eq!(count("vtree_nodes"), report.vtree_nodes);
        assert_eq!(count("fragments"), report.fragments);
        assert!(matches!(get(&["artifact"]), Some(Json::Object(a)) if a.len() == 6));
        assert_eq!(uint(&["trace"]), report.trace);
        assert_eq!(uint(&["total_ns"]), Some(report.total_ns));
        let Some(Json::Array(stages)) = get(&["stages"]) else {
            panic!("stages is an array");
        };
        assert!(!stages.is_empty());
        assert_eq!(stages.len(), report.stages.len());
        for (json, stage) in stages.iter().zip(&report.stages) {
            assert_eq!(json.get("name").and_then(Json::as_str), Some(stage.name));
            assert_eq!(json.get("count").and_then(Json::as_u64), Some(stage.count));
            assert_eq!(
                json.get("total_ns").and_then(Json::as_u64),
                Some(stage.total_ns)
            );
        }
        let Json::Object(fields) = &doc else {
            panic!("the report is an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "backend",
                "tier",
                "estimate",
                "interval_width",
                "cache",
                "artifact",
                "trace",
                "total_ns",
                "stages"
            ]
        );
    }
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

// Updates.

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
fn validation_rules_apply_without_a_session() {
    // The free functions behind the session's checks: retraction with and
    // without domain pinning, insertion against a plan.
    let sig = rst();
    let s = sig.relation_by_name("S").unwrap();
    let inst = chain(2);
    let missing = FactId(inst.fact_count());
    assert_eq!(
        validate_retract(&inst, missing, false),
        Err(UpdateError::UnknownFact(missing))
    );
    assert_eq!(validate_retract(&inst, FactId(0), false), Ok(()));
    let (graph, _) = inst.gaifman_graph();
    let td = treelineage_graph::treewidth::treewidth_upper_bound(&graph).1;
    let plan = treelineage_encoding::EncodingPlan::new_trusted(&inst, &td).unwrap();
    assert_eq!(
        validate_insert(
            &inst,
            &plan,
            &Fact::new(s, vec![Element(0), Element(9)]),
            &Rational::one_half()
        ),
        Err(UpdateError::NewElement(Element(9)))
    );
    // Element 2 lives only in S(1, 2): a pinned retraction would orphan it,
    // an unpinned one may shrink the domain.
    let mut tail = Instance::new(sig.clone());
    tail.add_fact_by_name("R", &[0]);
    tail.add_fact_by_name("S", &[0, 1]);
    tail.add_fact_by_name("S", &[1, 2]);
    assert_eq!(
        validate_retract(&tail, FactId(2), true),
        Err(UpdateError::OrphanedElement(Element(2)))
    );
    assert_eq!(validate_retract(&tail, FactId(2), false), Ok(()));
    assert_eq!(validate_retract(&tail, FactId(0), true), Ok(()));
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

#[test]
fn invalidation_parks_libraries_not_circuits() {
    let (mut session, q, i) = session_with(SessionBackend::Automaton);
    let artifact = session.lineage_artifact(q, i).unwrap();
    assert_eq!(
        Arc::strong_count(&artifact),
        2,
        "the lineage cache holds one"
    );
    let t = rst().relation_by_name("T").unwrap();
    session
        .insert_fact(i, Fact::new(t, vec![Element(0)]), Rational::one_half())
        .unwrap();
    assert_eq!(
        Arc::strong_count(&artifact),
        1,
        "a parked fragment library must not pin the invalidated circuit"
    );
}

#[test]
fn parked_libraries_are_capped_like_the_lineage_cache() {
    let config = EngineConfig {
        lineage_cache_cap: 2,
        fragment_grain: 4,
        ..EngineConfig::with_threads(2)
    };
    let mut session = EvalSession::new(config);
    let queries: Vec<QueryId> = ["R(x), S(x, y), T(y)", "R(x)", "T(x)", "S(x, y)"]
        .iter()
        .map(|text| session.register_query(parse_query(&rst(), text).unwrap()))
        .collect();
    let i = session.register_instance(chain(6));
    let t = rst().relation_by_name("T").unwrap();
    // Park the first two pairs with an insert and the last two with the
    // retraction that undoes it: four parked pairs, two slots.
    for &q in &queries[..2] {
        session.lineage_artifact(q, i).unwrap();
    }
    let insert = session
        .insert_fact(i, Fact::new(t, vec![Element(0)]), Rational::one_half())
        .unwrap();
    for &q in &queries[2..] {
        session.lineage_artifact(q, i).unwrap();
    }
    session.retract_fact(i, insert.fact).unwrap();
    let before = session.stats();
    assert_eq!(before.lineages_invalidated, 4);
    // The oldest pair's library was evicted: it compiles cold.
    session.lineage_artifact(queries[0], i).unwrap();
    let after = session.stats();
    assert_eq!(after.lineage_misses, before.lineage_misses + 1);
    assert_eq!(after.fragments_reused, before.fragments_reused);
    assert_eq!(after.fragments_recompiled, before.fragments_recompiled);
    // The newest pair's library is still parked and replays.
    session.lineage_artifact(queries[3], i).unwrap();
    assert!(session.stats().fragments_reused > after.fragments_reused);
}
